#include "db/index.hpp"

#include <algorithm>
#include <bit>

namespace wtc::db {

namespace {

constexpr std::size_t kWordBits = 64;

constexpr std::uint64_t bit(std::size_t i) noexcept {
  return std::uint64_t{1} << (i % kWordBits);
}

/// Bits at positions >= i % 64 of a word.
constexpr std::uint64_t at_or_above(std::size_t i) noexcept {
  return ~std::uint64_t{0} << (i % kWordBits);
}

/// Bits at positions <= i % 64 of a word.
constexpr std::uint64_t at_or_below(std::size_t i) noexcept {
  return ~std::uint64_t{0} >> (kWordBits - 1 - i % kWordBits);
}

std::size_t lowest(std::uint64_t word) noexcept {
  return static_cast<std::size_t>(std::countr_zero(word));
}

std::size_t highest(std::uint64_t word) noexcept {
  return kWordBits - 1 - static_cast<std::size_t>(std::countl_zero(word));
}

}  // namespace

void TableIndex::reset(RecordIndex num_records) {
  words_ = (std::size_t{num_records} + kWordBits - 1) / kWordBits;
  summary_words_ = (words_ + kWordBits - 1) / kWordBits;
  bits_.assign(kSets * (words_ + summary_words_), 0);
  count_.fill(0);
  group_of_.assign(num_records, kNoGroup);
}

void TableIndex::sync(RecordIndex r, std::uint32_t status, std::uint32_t group) {
  const std::uint8_t new_group =
      group < kMaxGroups ? static_cast<std::uint8_t>(group) : kNoGroup;
  if (group_of_[r] != new_group) {
    if (group_of_[r] != kNoGroup) {
      flip(group_of_[r], r);
    }
    if (new_group != kNoGroup) {
      flip(new_group, r);
    }
    group_of_[r] = new_group;
  }
  const bool was_free = (words(kFreeSet)[r / kWordBits] & bit(r)) != 0;
  if (was_free != (status == kStatusFree)) {
    flip(kFreeSet, r);
  }
}

void TableIndex::flip(std::size_t set, RecordIndex r) noexcept {
  const std::size_t w = r / kWordBits;
  std::uint64_t& word = words(set)[w];
  std::uint64_t& summary = words(set)[words_ + w / kWordBits];
  word ^= bit(r);
  if ((word & bit(r)) != 0) {
    ++count_[set];
  } else {
    --count_[set];
  }
  if (word != 0) {
    summary |= bit(w);
  } else {
    summary &= ~bit(w);
  }
}

std::optional<RecordIndex> TableIndex::next_member(
    std::size_t set, std::size_t from) const noexcept {
  if (from >= group_of_.size()) {
    return std::nullopt;
  }
  const std::uint64_t* word = words(set);
  const std::uint64_t* summary = word + words_;
  std::size_t w = from / kWordBits;
  std::uint64_t bits = word[w] & at_or_above(from);
  if (bits == 0) {
    // The next non-empty word after w, found through the summary.
    const std::size_t next = w + 1;
    if (next >= words_) {
      return std::nullopt;
    }
    std::size_t s = next / kWordBits;
    std::uint64_t nonempty = summary[s] & at_or_above(next);
    while (nonempty == 0) {
      if (++s == summary_words_) {
        return std::nullopt;
      }
      nonempty = summary[s];
    }
    w = s * kWordBits + lowest(nonempty);
    bits = word[w];
  }
  return static_cast<RecordIndex>(w * kWordBits + lowest(bits));
}

std::optional<RecordIndex> TableIndex::prev_member(
    std::size_t set, std::size_t before) const noexcept {
  before = std::min(before, group_of_.size());
  if (before == 0) {
    return std::nullopt;
  }
  const std::uint64_t* word = words(set);
  const std::uint64_t* summary = word + words_;
  const std::size_t last = before - 1;
  std::size_t w = last / kWordBits;
  std::uint64_t bits = word[w] & at_or_below(last);
  if (bits == 0) {
    // The last non-empty word before w, found through the summary.
    if (w == 0) {
      return std::nullopt;
    }
    const std::size_t prev = w - 1;
    std::size_t s = prev / kWordBits;
    std::uint64_t nonempty = summary[s] & at_or_below(prev);
    while (nonempty == 0) {
      if (s == 0) {
        return std::nullopt;
      }
      nonempty = summary[--s];
    }
    w = s * kWordBits + highest(nonempty);
    bits = word[w];
  }
  return static_cast<RecordIndex>(w * kWordBits + highest(bits));
}

}  // namespace wtc::db
