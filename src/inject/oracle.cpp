#include "inject/oracle.hpp"

#include <algorithm>

namespace wtc::inject {

CorruptionOracle::CorruptionOracle(const db::Database& db,
                                   std::function<sim::Time()> clock)
    : db_(db),
      clock_(std::move(clock)),
      live_(db.region().size()),
      pending_(db.region().size()) {}

std::vector<std::pair<std::size_t, std::uint32_t>>::iterator
CorruptionOracle::ByteFilter::find(std::size_t offset) {
  return std::lower_bound(
      count_.begin(), count_.end(), offset,
      [](const auto& entry, std::size_t key) { return entry.first < key; });
}

void CorruptionOracle::ByteFilter::add(std::size_t offset) {
  const auto it = find(offset);
  if (it != count_.end() && it->first == offset) {
    ++it->second;
    return;
  }
  count_.insert(it, {offset, 1});
  words_[offset / 64] |= std::uint64_t{1} << (offset % 64);
}

void CorruptionOracle::ByteFilter::drop(std::size_t offset) {
  const auto it = find(offset);
  if (--it->second == 0) {
    count_.erase(it);
    words_[offset / 64] &= ~(std::uint64_t{1} << (offset % 64));
  }
}

bool CorruptionOracle::ByteFilter::any(std::size_t offset,
                                       std::size_t len) const noexcept {
  const std::size_t bytes = words_.size() * 64;
  if (offset >= bytes || len == 0) {
    return false;
  }
  const std::size_t end = offset + std::min(len, bytes - offset);
  const std::size_t first = offset / 64;
  const std::size_t last = (end - 1) / 64;
  const std::uint64_t head = ~std::uint64_t{0} << (offset % 64);
  const std::uint64_t tail = ~std::uint64_t{0} >> (63 - (end - 1) % 64);
  if (first == last) {
    return (words_[first] & head & tail) != 0;
  }
  if ((words_[first] & head) != 0 || (words_[last] & tail) != 0) {
    return true;
  }
  for (std::size_t w = first + 1; w < last; ++w) {
    if (words_[w] != 0) {
      return true;
    }
  }
  return false;
}

TargetKind CorruptionOracle::classify_offset(std::size_t offset) const {
  const auto loc = db_.layout().locate(offset);
  if (!loc) {
    return TargetKind::Catalog;
  }
  const auto& spec = db_.schema().tables[loc->table];
  if (!spec.dynamic) {
    return TargetKind::StaticTable;
  }
  if (loc->in_header) {
    return TargetKind::RecordHeader;
  }
  const std::size_t within =
      offset - db_.layout().record_offset(loc->table, loc->record) -
      db::kRecordHeaderSize;
  const std::size_t field = within / 4;
  if (field >= spec.fields.size()) {
    return TargetKind::UnruledField;
  }
  const auto& fs = spec.fields[field];
  if (fs.role != db::FieldRole::Plain) {
    return TargetKind::KeyField;
  }
  return fs.has_range() ? TargetKind::RangedField : TargetKind::UnruledField;
}

void CorruptionOracle::reserve(std::size_t injections) {
  records_.reserve(injections);
  live_.reserve(injections);
  pending_.reserve(injections);
}

std::uint64_t CorruptionOracle::record_injection(std::size_t offset,
                                                 std::uint8_t bit) {
  InjectionRecord record;
  record.id = records_.size();
  record.offset = offset;
  record.bit = bit;
  record.injected_at = clock_();
  record.kind = classify_offset(offset);
  record.live_bytes = 1;
  // A newer flip at an already-tracked byte supersedes the older tracking
  // for that byte (the older injection keeps its fate chances through the
  // overlap machinery having lost that byte). A byte is tracked while any
  // injection there is live; no write has replaced it since, so the
  // latest injection at the byte is the one it tracks.
  if (live_.occupied(offset)) {
    auto& old = *std::find_if(records_.rbegin(), records_.rend(),
                              [offset](const InjectionRecord& r) {
                                return r.offset == offset;
                              });
    if (old.fate == ErrorFate::Pending && old.live_bytes > 0) {
      --old.live_bytes;
      live_.drop(offset);
      if (old.live_bytes == 0) {
        decide(old, ErrorFate::Overwritten, std::nullopt);
      }
    }
  }
  live_.add(offset);
  pending_.add(offset);
  records_.push_back(record);
  return record.id;
}

void CorruptionOracle::decide(InjectionRecord& record, ErrorFate fate,
                              std::optional<audit::Technique> technique) {
  if (record.fate != ErrorFate::Pending) {
    return;
  }
  record.fate = fate;
  record.decided_at = clock_();
  record.caught_by = technique;
  pending_.drop(record.offset);
}

template <typename Fn>
void CorruptionOracle::for_overlapping(const ByteFilter& filter,
                                       std::size_t offset, std::size_t len,
                                       Fn&& fn) {
  if (!filter.any(offset, len)) {
    return;
  }
  // Injections are sparse (tens per run); iterate them instead of the span.
  const std::size_t end = offset + len;
  for (auto& record : records_) {
    if (record.live_bytes > 0 && record.offset >= offset && record.offset < end) {
      fn(record);
    }
  }
}

void CorruptionOracle::on_legitimate_write(std::size_t offset, std::size_t len) {
  for_overlapping(live_, offset, len, [this](InjectionRecord& record) {
    // Corrupted byte replaced with known-good data: the divergence is gone.
    live_.drop(record.offset);
    record.live_bytes = 0;
    decide(record, ErrorFate::Overwritten, std::nullopt);
  });
}

void CorruptionOracle::on_client_read(sim::ProcessId, std::size_t offset,
                                      std::size_t len) {
  for_overlapping(pending_, offset, len, [this](InjectionRecord& record) {
    // The application consumed corrupted data before any audit acted: an
    // escaped error (it may still be *found* later, but the damage is done).
    decide(record, ErrorFate::Escaped, std::nullopt);
  });
}

void CorruptionOracle::on_finding(const audit::Finding& finding) {
  ++findings_;
  if (!first_finding_) {
    first_finding_ = clock_();
  }
  for_overlapping(pending_, finding.offset, finding.length,
                  [&](InjectionRecord& record) {
    decide(record, ErrorFate::Caught, finding.technique);
  });
}

OracleSummary CorruptionOracle::summary() const {
  OracleSummary s;
  s.injected = records_.size();
  for (const auto& record : records_) {
    switch (record.fate) {
      case ErrorFate::Escaped:
        ++s.escaped;
        break;
      case ErrorFate::Caught:
        ++s.caught;
        s.detection_latency_s.add(
            static_cast<double>(record.decided_at - record.injected_at) /
            static_cast<double>(sim::kSecond));
        break;
      case ErrorFate::Overwritten:
        ++s.overwritten;
        break;
      case ErrorFate::Pending:
        ++s.latent;
        break;
    }
  }
  return s;
}

}  // namespace wtc::inject
