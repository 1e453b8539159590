#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace wtc::common {

ConfidenceInterval binomial_ci95(std::size_t successes, std::size_t trials) noexcept {
  if (trials == 0) {
    return {0.0, 0.0};
  }
  // Wilson score interval. The Wald interval (p ± z·sqrt(p(1-p)/n))
  // collapses to zero width at p = 0 or p = 1, which misreports the
  // all-detected / none-detected rows of Tables 8-10 as exact; Wilson
  // stays well-behaved at the boundaries and inside (0,1) differs from
  // Wald by less than a percentage point at the paper's sample sizes.
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  constexpr double z = 1.959963984540054;  // Phi^-1(0.975)
  const double z2_n = z * z / n;
  const double center = (p + z2_n / 2.0) / (1.0 + z2_n);
  const double half = (z / (1.0 + z2_n)) *
                      std::sqrt(p * (1.0 - p) / n + z2_n / (4.0 * n));
  return {std::max(0.0, (center - half) * 100.0),
          std::min(100.0, (center + half) * 100.0)};
}

double percent(std::size_t successes, std::size_t trials) noexcept {
  return trials == 0 ? 0.0
                     : 100.0 * static_cast<double>(successes) / static_cast<double>(trials);
}

std::string format_percent_ci(std::size_t successes, std::size_t trials) {
  const auto ci = binomial_ci95(successes, trials);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.0f%% (%.0f, %.0f)", percent(successes, trials),
                ci.lo, ci.hi);
  return buf;
}

std::string format_count_or_percent(std::size_t successes, std::size_t trials,
                                    std::size_t min_for_percent) {
  if (successes < min_for_percent) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%zu", successes);
    return buf;
  }
  return format_percent_ci(successes, trials);
}

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

void ValueHistogram::add(std::int64_t value) {
  auto it = std::lower_bound(counts_.begin(), counts_.end(), value,
                             [](const auto& e, std::int64_t v) { return e.first < v; });
  if (it != counts_.end() && it->first == value) {
    ++it->second;
  } else {
    counts_.insert(it, {value, 1});
  }
  ++total_;
}

double ValueHistogram::mean_occurrences() const noexcept {
  return counts_.empty()
             ? 0.0
             : static_cast<double>(total_) / static_cast<double>(counts_.size());
}

std::vector<std::int64_t> ValueHistogram::suspects(double fraction) const {
  std::vector<std::int64_t> out;
  const double threshold = fraction * mean_occurrences();
  for (const auto& [value, count] : counts_) {
    if (static_cast<double>(count) < threshold) {
      out.push_back(value);
    }
  }
  return out;
}

std::size_t ValueHistogram::count_of(std::int64_t value) const noexcept {
  auto it = std::lower_bound(counts_.begin(), counts_.end(), value,
                             [](const auto& e, std::int64_t v) { return e.first < v; });
  return (it != counts_.end() && it->first == value) ? it->second : 0;
}

}  // namespace wtc::common
