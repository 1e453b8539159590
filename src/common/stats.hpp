// Statistics helpers for the evaluation harness: binomial confidence
// intervals (the paper reports 95% CIs assuming a binomial distribution,
// §6.1.4), running means, and percentage formatting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace wtc::common {

/// A [lo, hi] interval of percentages, e.g. (40, 51) for "46% (40, 51)".
struct ConfidenceInterval {
  double lo = 0.0;
  double hi = 0.0;
};

/// 95% confidence interval for a binomial proportion (Wilson score
/// interval), clamped to [0, 100]. `successes <= trials`. Wilson rather
/// than the Wald normal approximation: Wald degenerates to a zero-width
/// interval at 0/N and N/N, which the injection tables hit routinely.
[[nodiscard]] ConfidenceInterval binomial_ci95(std::size_t successes,
                                               std::size_t trials) noexcept;

/// Percentage of successes over trials; 0 when trials == 0.
[[nodiscard]] double percent(std::size_t successes, std::size_t trials) noexcept;

/// Formats "46% (40, 51)" like the paper's Tables 8 and 9. For outcome
/// categories with very few observations the paper prints the raw count
/// instead; `format_count_or_percent` mirrors that convention.
[[nodiscard]] std::string format_percent_ci(std::size_t successes, std::size_t trials);
[[nodiscard]] std::string format_count_or_percent(std::size_t successes,
                                                  std::size_t trials,
                                                  std::size_t min_for_percent = 10);

/// Streaming mean/variance accumulator (Welford).
class RunningStats {
 public:
  void add(double x) noexcept;
  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept;  ///< sample variance
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Frequency histogram over small integer values; used by the selective
/// attribute monitor (§4.4.2) to find under-represented attribute values.
class ValueHistogram {
 public:
  void add(std::int64_t value);
  [[nodiscard]] std::size_t total() const noexcept { return total_; }
  [[nodiscard]] std::size_t distinct() const noexcept { return counts_.size(); }
  /// Average occurrences per distinct value (0 when empty).
  [[nodiscard]] double mean_occurrences() const noexcept;
  /// Values whose occurrence count is strictly below
  /// `fraction * mean_occurrences()` — the paper's "suspect" values.
  [[nodiscard]] std::vector<std::int64_t> suspects(double fraction) const;
  [[nodiscard]] std::size_t count_of(std::int64_t value) const noexcept;

 private:
  // Sorted association list: value histograms here are tiny (tens of
  // distinct values), so a flat vector beats a map.
  std::vector<std::pair<std::int64_t, std::size_t>> counts_;
  std::size_t total_ = 0;
};

}  // namespace wtc::common
