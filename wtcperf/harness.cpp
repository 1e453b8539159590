#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace wtcperf {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

void SpanLog::begin(const char* name) {
  stack_.push_back({name, Clock::now(), 0.0});
}

void SpanLog::end() {
  const Open open = stack_.back();
  stack_.pop_back();
  const auto now = Clock::now();
  const double dur = std::chrono::duration<double, std::nano>(now - open.start).count();
  Total& total = totals_[open.name];
  ++total.count;
  total.total_ns += dur;
  total.self_ns += dur - open.child_ns;
  if (!stack_.empty()) {
    stack_.back().child_ns += dur;
  }
  if (events_.size() < max_events_) {
    const double start_us =
        std::chrono::duration<double, std::micro>(open.start - origin_).count();
    events_.push_back({open.name, start_us, dur * 1e-3});
  } else {
    ++dropped_;
  }
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(file, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    const std::string name = e.name;
    std::fprintf(file,
                 "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                 "\"dur\": %.3f, \"pid\": 1, \"tid\": 1}",
                 i ? "," : "", e.name, name.substr(0, name.find('.')).c_str(),
                 e.start_us, e.dur_us);
  }
  std::fprintf(file, "\n]}\n");
  return std::fclose(file) == 0;
}

}  // namespace wtcperf
