#include "audit/priority.hpp"

#include <algorithm>
#include <numeric>

namespace wtc::audit {

PriorityScheduler::PriorityScheduler(const db::Database& db, PriorityWeights weights)
    : db_(db),
      weights_(weights),
      credit_(db.table_count(), 0.0),
      prev_cycle_errors_(db.table_count(), 0) {}

std::vector<double> PriorityScheduler::shares() const {
  const std::size_t n = db_.table_count();
  std::vector<double> share(n, 0.0);

  std::uint64_t total_access = 0;
  std::uint64_t total_errors = 0;
  for (std::size_t t = 0; t < n; ++t) {
    total_access += db_.table_stats(static_cast<db::TableId>(t)).accesses();
    total_errors += prev_cycle_errors_[t];
  }

  double nature_total = 0.0;
  std::vector<double> nature(n, 0.0);
  for (std::size_t t = 0; t < n; ++t) {
    // The nature of the object: static/configuration tables are referenced
    // on most operations (catalog-like), so they weigh heavier.
    nature[t] = db_.schema().tables[t].dynamic ? 1.0 : 2.0;
    nature_total += nature[t];
  }

  for (std::size_t t = 0; t < n; ++t) {
    const auto& stats = db_.table_stats(static_cast<db::TableId>(t));
    const double access_share =
        total_access == 0 ? 1.0 / static_cast<double>(n)
                          : static_cast<double>(stats.accesses()) /
                                static_cast<double>(total_access);
    const double error_share =
        total_errors == 0 ? 1.0 / static_cast<double>(n)
                          : static_cast<double>(prev_cycle_errors_[t]) /
                                static_cast<double>(total_errors);
    const double nature_share = nature[t] / nature_total;
    share[t] = weights_.access_frequency * access_share +
               weights_.error_history * error_share +
               weights_.nature * nature_share;
  }

  // Proportional allocation (audit frequency ∝ importance): normalize.
  const double sum = std::accumulate(share.begin(), share.end(), 0.0);
  if (sum > 0) {
    for (double& s : share) {
      s /= sum;
    }
  }
  return share;
}

db::TableId PriorityScheduler::next_prioritized() {
  const auto share = shares();
  for (std::size_t t = 0; t < credit_.size(); ++t) {
    credit_[t] += share[t];
  }
  const auto it = std::max_element(credit_.begin(), credit_.end());
  const auto chosen = static_cast<std::size_t>(it - credit_.begin());
  credit_[chosen] -= 1.0;
  return static_cast<db::TableId>(chosen);
}

std::vector<db::TableId> PriorityScheduler::ranked_by_pressure(
    const std::vector<std::uint64_t>& dirty_chunks) const {
  const std::size_t n = db_.table_count();
  const auto share = shares();
  std::vector<db::TableId> order(n);
  for (std::size_t t = 0; t < n; ++t) {
    order[t] = static_cast<db::TableId>(t);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](db::TableId a, db::TableId b) {
                     const std::uint64_t da =
                         a < dirty_chunks.size() ? dirty_chunks[a] : 0;
                     const std::uint64_t db_chunks =
                         b < dirty_chunks.size() ? dirty_chunks[b] : 0;
                     if (da != db_chunks) {
                       return da > db_chunks;
                     }
                     if (prev_cycle_errors_[a] != prev_cycle_errors_[b]) {
                       return prev_cycle_errors_[a] > prev_cycle_errors_[b];
                     }
                     if (share[a] != share[b]) {
                       return share[a] > share[b];
                     }
                     return a < b;
                   });
  return order;
}

db::TableId PriorityScheduler::next_round_robin() {
  const auto chosen = static_cast<db::TableId>(rr_next_);
  rr_next_ = (rr_next_ + 1) % db_.table_count();
  return chosen;
}

void PriorityScheduler::begin_cycle(db::Database& db) {
  for (std::size_t t = 0; t < prev_cycle_errors_.size(); ++t) {
    auto& stats = db.table_stats(static_cast<db::TableId>(t));
    prev_cycle_errors_[t] = stats.errors_last_cycle;
    stats.errors_last_cycle = 0;
  }
}

}  // namespace wtc::audit
