#include "db/op_log.hpp"

#include <algorithm>
#include <unordered_map>

#include "obs/metrics.hpp"

namespace wtc::db {
namespace {

const std::vector<ApiEvent> kEmpty;

[[nodiscard]] std::uint64_t record_key(const ApiEvent& op) noexcept {
  return static_cast<std::uint64_t>(op.table) << 32 | op.record;
}

}  // namespace

void ThreadOpLog::on_api_event(const ApiEvent& event) {
  if (event.is_update && event.status == Status::Ok) {
    if (logs_.size() <= event.thread) {
      logs_.resize(event.thread + 1);
    }
    logs_[event.thread].ops.push_back(event);
    ++recorded_;
  }
  if (next_ != nullptr) {
    next_->on_api_event(event);
  }
}

const std::vector<ApiEvent>& ThreadOpLog::ops(std::uint32_t thread) const {
  return thread < logs_.size() ? logs_[thread].ops : kEmpty;
}

void ThreadOpLog::advance_watermark(std::uint32_t thread,
                                    sim::Time attested_up_to) {
  if (thread >= logs_.size()) {
    return;
  }
  PerThread& log = logs_[thread];
  if (attested_up_to <= log.watermark) {
    return;
  }
  log.watermark = attested_up_to;

  // Compact the attested prefix: for every (table, record) keep only the
  // last attested op, and drop records the thread no longer holds (latest
  // attested op is a Free). The unattested tail is kept verbatim. Linear:
  // index the prefix's last op per record, then one forward pass into the
  // reused scratch vector (the old version rescanned the prefix per op).
  const auto tail_begin = std::find_if(
      log.ops.begin(), log.ops.end(),
      [&](const ApiEvent& op) { return op.time > attested_up_to; });
  std::unordered_map<std::uint64_t, const ApiEvent*> last;
  last.reserve(static_cast<std::size_t>(tail_begin - log.ops.begin()));
  for (auto it = log.ops.begin(); it != tail_begin; ++it) {
    last[record_key(*it)] = &*it;
  }
  scratch_.clear();
  scratch_.reserve(log.ops.size());
  for (auto it = log.ops.begin(); it != tail_begin; ++it) {
    if (last[record_key(*it)] == &*it && it->op != ApiOp::Free) {
      scratch_.push_back(*it);
    }
  }
  scratch_.insert(scratch_.end(), tail_begin, log.ops.end());
  log.ops.swap(scratch_);
  obs::count(obs::Counter::oplog_compactions);
}

void ThreadOpLog::clear_thread(std::uint32_t thread) {
  if (thread < logs_.size()) {
    logs_[thread].ops.clear();
  }
}

}  // namespace wtc::db
