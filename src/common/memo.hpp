// A process-wide memo of immutable values, one per key.
#pragma once

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace wtc::common {

/// Builds each key's value once, on its first request, and keeps it for
/// the memo's lifetime. One mutex serializes lookups and builds, so
/// campaign workers may share a memo. A value is const and never moved: a
/// reference to it stays valid and unchanged while the memo lives. Meant
/// for the few distinct keys one process uses (lookup is a linear scan
/// comparing keys with ==).
template <typename Key, typename Value>
class Memo {
 public:
  /// The value for `key`; runs `build()`, which returns a
  /// `std::unique_ptr<const Value>`, only if there is none yet.
  template <typename Build>
  const Value& get(const Key& key, const Build& build) {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [known, value] : entries_) {
      if (known == key) {
        return *value;
      }
    }
    entries_.emplace_back(key, build());
    return *entries_.back().second;
  }

 private:
  std::mutex mutex_;
  std::vector<std::pair<Key, std::unique_ptr<const Value>>> entries_;
};

}  // namespace wtc::common
