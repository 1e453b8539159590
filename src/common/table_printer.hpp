// Fixed-width text table rendering for the benchmark harness, so each bench
// binary can print rows shaped like the paper's tables.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace wtc::common {

/// Accumulates rows of strings and renders them with aligned columns and a
/// header separator, e.g.
///
///   Category            | Without Audits | With Audits
///   --------------------+----------------+------------
///   Errors escaped      | 1884 (63%)     | 402 (13%)
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);

  /// Renders the full table; missing trailing cells render empty.
  [[nodiscard]] std::string render() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `digits` decimal places.
[[nodiscard]] std::string fmt(double value, int digits = 1);

}  // namespace wtc::common
