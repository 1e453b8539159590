#include "inject/db_injector.hpp"

#include <algorithm>

namespace wtc::inject {

DbErrorInjector::DbErrorInjector(db::Database& db, CorruptionOracle& oracle,
                                 common::Rng rng, DbInjectorConfig config)
    : db_(db), oracle_(oracle), rng_(rng), config_(config) {}

void DbErrorInjector::on_start() {
  // Random initial phase: fixed-rate injection must not phase-lock with
  // the (also periodic) audit schedule.
  schedule_after(
      static_cast<sim::Duration>(rng_.uniform(
          static_cast<std::uint64_t>(std::max<sim::Duration>(config_.inter_arrival, 1)))),
      [this]() {
        inject_once();
        schedule_next();
      });
}

void DbErrorInjector::schedule_next() {
  if (config_.arrival == ArrivalModel::Bursty) {
    // A burst of correlated flips around one site, then a gap sized so the
    // long-run rate still averages one error per inter_arrival.
    const auto flips = 1 + rng_.uniform(config_.burst_size);
    const auto gap = static_cast<sim::Duration>(rng_.exponential(
        static_cast<double>(config_.inter_arrival) * static_cast<double>(flips)));
    schedule_after(gap, [this, flips]() { run_burst(flips); });
    return;
  }
  sim::Duration wait = config_.inter_arrival;
  if (config_.arrival == ArrivalModel::Exponential) {
    wait = static_cast<sim::Duration>(
        rng_.exponential(static_cast<double>(config_.inter_arrival)));
  }
  schedule_after(wait, [this]() {
    inject_once();
    schedule_next();
  });
}

void DbErrorInjector::run_burst(std::uint64_t remaining) {
  if (remaining == 0) {
    schedule_next();
    return;
  }
  if (burst_anchor_ == kNoAnchor) {
    burst_anchor_ = pick_offset();
    inject_at(burst_anchor_);
  } else {
    // Stay within the burst radius of the anchor, clamped to the region.
    const std::size_t lo =
        burst_anchor_ > config_.burst_radius ? burst_anchor_ - config_.burst_radius
                                             : 0;
    const std::size_t hi =
        std::min(burst_anchor_ + config_.burst_radius, db_.region().size() - 1);
    inject_at(lo + rng_.uniform(hi - lo + 1));
  }
  if (remaining == 1) {
    burst_anchor_ = kNoAnchor;
    schedule_next();
    return;
  }
  // Intra-burst spacing (exponential mean); the inter-ARRIVAL then spaces
  // the bursts so the long-run error rate matches the other models.
  constexpr sim::Duration kBurstSpacing =
      50 * static_cast<sim::Duration>(sim::kMillisecond);
  schedule_after(static_cast<sim::Duration>(rng_.exponential(
                     static_cast<double>(kBurstSpacing))),
                 [this, remaining]() { run_burst(remaining - 1); });
}

void DbErrorInjector::inject_at(std::size_t offset) {
  const auto bit = static_cast<std::uint8_t>(rng_.uniform(8));
  db_.region()[offset] ^= static_cast<std::byte>(1u << bit);
  if (config_.through_store) {
    // A wild write traverses the memory system like any other store, so
    // dirty tracking sees it (mark only — nothing legitimate about it).
    // mark_written also resyncs the shadow group index when the flipped
    // byte lands in a header's status/group words, so the API's splice
    // path stays coherent with what is actually in the region. Raw-mode
    // corruption (through_store=false) bypasses that, which is exactly
    // the stale-index case alloc_rec's validate-and-rebuild handles.
    db_.mark_written(offset, 1);
  }
  oracle_.record_injection(offset, bit);
  ++injected_;
}

std::size_t DbErrorInjector::pick_offset() {
  const auto& layout = db_.layout();
  switch (config_.distribution) {
    case ErrorDistribution::UniformWholeRegion:
      return rng_.uniform(db_.region().size());
    case ErrorDistribution::UniformDataOnly:
      return layout.data_start() +
             rng_.uniform(db_.region().size() - layout.data_start());
    case ErrorDistribution::ProportionalToAccess: {
      // Choose a table with probability proportional to its access count
      // (plus one so untouched tables are not immune), then a byte
      // uniformly within it.
      std::uint64_t total = 0;
      for (std::size_t t = 0; t < db_.table_count(); ++t) {
        total += db_.table_stats(static_cast<db::TableId>(t)).accesses() + 1;
      }
      std::uint64_t pick = rng_.uniform(total);
      for (std::size_t t = 0; t < db_.table_count(); ++t) {
        const std::uint64_t weight =
            db_.table_stats(static_cast<db::TableId>(t)).accesses() + 1;
        if (pick < weight) {
          const auto& tl = layout.table(static_cast<db::TableId>(t));
          return tl.offset + rng_.uniform(tl.record_size * tl.num_records);
        }
        pick -= weight;
      }
      return rng_.uniform(db_.region().size());
    }
  }
  return 0;
}

void DbErrorInjector::inject_once() { inject_at(pick_offset()); }

}  // namespace wtc::inject
