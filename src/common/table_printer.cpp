#include "common/table_printer.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace wtc::common {

TablePrinter::TablePrinter(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TablePrinter::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::render() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c >= widths.size()) {
        widths.resize(c + 1, 0);
      }
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string{};
      out << cell << std::string(widths[c] - cell.size(), ' ');
      if (c + 1 < widths.size()) {
        out << " | ";
      }
    }
    out << '\n';
  };

  emit_row(header_);
  for (std::size_t c = 0; c < widths.size(); ++c) {
    out << std::string(widths[c], '-');
    if (c + 1 < widths.size()) {
      out << "-+-";
    }
  }
  out << '\n';
  for (const auto& row : rows_) {
    emit_row(row);
  }
  return out.str();
}

std::string fmt(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

}  // namespace wtc::common
