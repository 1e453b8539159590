// Measurement plumbing shared by the wtc-perf workloads: wall-clock
// sampling, order statistics, digests, wall-clock spans (Chrome trace and
// self time), and the Workload interface main.cpp drives.
//
// Everything here measures from the outside: spans and timers wrap the
// benchmark's own calls into the libraries' public functions. Nothing is
// compiled into the program under test.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace wtcperf {

using Clock = std::chrono::steady_clock;

inline double elapsed_ns(Clock::time_point since) {
  return std::chrono::duration<double, std::nano>(Clock::now() - since).count();
}
inline double elapsed_s(Clock::time_point since) {
  return elapsed_ns(since) * 1e-9;
}

/// Quantile by linear interpolation between closest ranks (q in [0, 1]).
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// FNV-1a folded over 64-bit words, byte by byte.
struct Digest {
  std::uint64_t value = 0xcbf29ce484222325ull;
  void mix(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      value ^= (word >> (i * 8)) & 0xFFu;
      value *= 0x100000001b3ull;
    }
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Count and total wall time of one kind of call.
struct OpTimer {
  std::uint64_t count = 0;
  double ns = 0.0;
  void add(double call_ns) {
    ++count;
    ns += call_ns;
  }
  [[nodiscard]] double per_op() const {
    return count == 0 ? 0.0 : ns / static_cast<double>(count);
  }
};

/// Wall-clock spans of one single-threaded traced phase. Spans nest by
/// call order; a span's self time is its duration minus its children's.
/// Per-name totals are always kept; individual events (for the Chrome
/// trace) only up to `max_events`, so a long run's memory stays bounded.
class SpanLog {
 public:
  struct Total {
    std::uint64_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };

  explicit SpanLog(std::size_t max_events = 100000)
      : origin_(Clock::now()), max_events_(max_events) {}

  void begin(const char* name);
  void end();

  [[nodiscard]] const std::map<std::string, Total>& totals() const noexcept {
    return totals_;
  }
  [[nodiscard]] std::uint64_t dropped_events() const noexcept { return dropped_; }
  /// Chrome trace-event JSON ("X" events, wall-clock µs since the log
  /// was created); the category is the span's layer (text before '.').
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Open {
    const char* name;
    Clock::time_point start;
    double child_ns;
  };
  struct Event {
    const char* name;
    double start_us;
    double dur_us;
  };
  Clock::time_point origin_;
  std::size_t max_events_;
  std::vector<Open> stack_;
  std::vector<Event> events_;
  std::map<std::string, Total> totals_;
  std::uint64_t dropped_ = 0;
};

/// RAII span; a null log makes it a no-op (the untraced phases).
class Span {
 public:
  Span(SpanLog* log, const char* name) : log_(log) {
    if (log_ != nullptr) {
      log_->begin(name);
    }
  }
  ~Span() {
    if (log_ != nullptr) {
      log_->end();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< every file the benchmark writes goes here
  std::string root;     ///< repository checkout (for workloads/*.oplog)
};

/// One completed run of a workload.
struct RunSample {
  /// The run's position in its pass: runs with the same slot repeat the
  /// same work on every pass.
  std::size_t slot = 0;
  double wall_s = 0.0;
  /// Operations the run performed (its `op` unit, see Workload::op_unit).
  double ops = 0.0;
  /// Per-op latencies sampled inside the run, when the workload can time
  /// single ops (otherwise op latency is the run's wall per op).
  std::vector<double> op_us;
  bool ok = true;
  std::string failure;
};

/// What a workload hands back for the traced report.
struct LayerReport {
  std::vector<Metric> metrics;
  /// Σ over layers of (calls in the traced phase × measured ns per call):
  /// the part of traced wall time the layer numbers explain.
  double accounted_ns = 0.0;
  /// Lines of the modelled-vs-measured table (already formatted).
  std::vector<std::string> notes;
  /// Checks the layer drives made that failed (e.g. an audit finding on a
  /// database that must be clean).
  std::vector<std::string> failures;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// What one run and one op are, for the report.
  [[nodiscard]] virtual const char* run_unit() const = 0;
  [[nodiscard]] virtual const char* op_unit() const = 0;
  /// True when fail_ratio counts ops (API ops, log events), false when it
  /// counts runs (campaign runs).
  [[nodiscard]] virtual bool fails_per_op() const = 0;
  /// Set-ups per set-up sample (the sample is the batch's fastest).
  [[nodiscard]] virtual int setup_repeats() const = 0;
  /// One set-up: schema, pristine image and database construction plus
  /// workload-file load. Runs before every pass; the pass uses the last.
  virtual void setup() = 0;
  /// Untimed pass before timing: caches fill, reference outputs recorded.
  virtual void prepare() = 0;
  /// Executes the next run. `spans` is non-null in the traced phase.
  virtual RunSample run_next(SpanLog* spans) = 0;
  /// True when the last run completed a pass over the workload's inputs.
  /// Timed phases run whole passes, so the mix of runs in a measurement
  /// does not depend on timing.
  [[nodiscard]] virtual bool at_pass_end() const = 0;
  /// Checks after the timed phase (golden digests, oracles). Each string
  /// is one failed check.
  virtual std::vector<std::string> final_checks() = 0;
  /// Bytes of database region the workload runs on.
  [[nodiscard]] virtual double region_bytes() const = 0;
  /// Per-layer metrics: `traced` holds the obs counters of the traced
  /// phase, `traced_runs` how many runs it executed.
  virtual LayerReport layers(const wtc::obs::MetricsSnapshot& traced,
                             std::uint64_t traced_runs, SpanLog& spans) = 0;
};

std::unique_ptr<Workload> make_t3_audit_campaign(const Options& options);
std::unique_ptr<Workload> make_t8_pecos_campaign(const Options& options);
std::unique_ptr<Workload> make_oplog_replay(const Options& options);
std::unique_ptr<Workload> make_shard_1m(const Options& options);

}  // namespace wtcperf
