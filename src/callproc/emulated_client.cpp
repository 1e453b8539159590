#include "callproc/emulated_client.hpp"

#include <array>
#include <numeric>

namespace wtc::callproc {

EmulatedLoadClient::EmulatedLoadClient(db::Database& db, sim::Cpu& cpu,
                                       common::Rng rng, db::NotificationSink* sink)
    : db_(db),
      cpu_(cpu),
      rng_(rng),
      api_(db, [this]() { return this->now(); }) {
  api_.set_audit_hooks(sink);
}

void EmulatedLoadClient::on_start() {
  running_ = true;
  api_.init(pid());
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    schedule_op(t);
  }
}

void EmulatedLoadClient::on_stopped() {
  running_ = false;
  if (api_.connected()) {
    api_.close();
  }
}

void EmulatedLoadClient::schedule_op(std::uint32_t thread) {
  const double mean_us =
      static_cast<double>(sim::kSecond) / kOpsPerSecondPerThread;
  const auto wait = static_cast<sim::Duration>(rng_.exponential(mean_us));
  schedule_after(wait, [this, thread]() {
    if (running_) {
      do_op(thread);
      schedule_op(thread);
    }
  });
}

db::TableId EmulatedLoadClient::pick_table() {
  // Table 5: access-frequency ratio 6:5:4:3:2:1 across the six tables.
  constexpr std::array<std::uint32_t, 6> kAccessRatio = {6, 5, 4, 3, 2, 1};
  constexpr std::uint32_t kAccessRatioTotal =
      std::accumulate(kAccessRatio.begin(), kAccessRatio.end(), 0u);
  std::uint64_t pick = rng_.uniform(kAccessRatioTotal);
  for (std::size_t t = 0; t < kAccessRatio.size(); ++t) {
    if (pick < kAccessRatio[t]) {
      return static_cast<db::TableId>(t);
    }
    pick -= kAccessRatio[t];
  }
  return 0;
}

void EmulatedLoadClient::do_op(std::uint32_t thread) {
  api_.set_thread_id(thread);
  const db::TableId t = pick_table();
  const auto& spec = db_.schema().tables[t];
  const auto record = static_cast<db::RecordIndex>(rng_.uniform(spec.num_records));
  const auto field = static_cast<db::FieldId>(rng_.uniform(spec.fields.size()));
  ++operations_;

  // Share of operations that write (a valid value); the rest read.
  constexpr double kWriteFraction = 0.5;
  if (rng_.uniform01() < kWriteFraction) {
    // Legitimate write: a valid value for the field's rule.
    const auto& fs = spec.fields[field];
    std::int32_t value = 0;
    if (fs.has_range()) {
      value = static_cast<std::int32_t>(
          rng_.uniform_range(*fs.range_min, *fs.range_max));
    } else {
      value = static_cast<std::int32_t>(rng_.uniform(1'000));
    }
    api_.write_fld(t, record, field, value);
    cpu_.book(now(), db::api_cost(db::ApiOp::WriteFld, api_.instrumented()));
  } else {
    std::int32_t value = 0;
    api_.read_fld(t, record, field, value);
    cpu_.book(now(), db::api_cost(db::ApiOp::ReadFld, api_.instrumented()));
  }
}

}  // namespace wtc::callproc
