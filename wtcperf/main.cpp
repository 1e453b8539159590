// wtc_perf: one workload, one measurement, one JSON result line.
//
//   wtc_perf --workload=NAME --seed=N --seconds=S --trace=0|1 --out=DIR --root=DIR
//
// --trace=0 measures the end-to-end metrics with tracing off. --trace=1
// runs the workload twice for S/2 seconds each, untraced and then traced
// (wall-clock spans around every call the benchmark makes into the
// libraries, obs counters on), then the standalone layer drives, and
// reports the per-layer metrics plus the tracing overhead. The last line
// of stdout is the result object; the same object, with build details,
// is appended to DIR/results.jsonl. Every load is closed-loop on one host
// thread: campaign jobs 1, one shard worker, audit_threads 1,
// replay_threads 1.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "experiments/campaign.hpp"
#include "harness.hpp"

using namespace wtcperf;

namespace {

/// One "VmXXX:  N kB" line of /proc/self/status, in bytes (0 if absent).
double status_bytes(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(key);
  while (std::getline(status, line)) {
    if (line.compare(0, n, key) == 0 && line.size() > n && line[n] == ':') {
      return std::stod(line.substr(n + 1)) * 1024.0;
    }
  }
  return 0.0;
}

/// Memory the workload itself makes resident: the process's high-water
/// mark minus its resident set before the workload's first set-up. The
/// mark is reset at that point, so what the harness built beforehand (a
/// workload's op plan, its key map) and the peak of building it are left
/// out; only growth beyond the baseline counts.
class WorkloadMemory {
 public:
  WorkloadMemory() {
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";  // reset VmHWM to the current VmRSS
    clear.flush();
    reset_ = static_cast<bool>(clear);
    baseline_ = status_bytes("VmRSS");
  }
  [[nodiscard]] double peak_bytes() const { return status_bytes("VmHWM") - baseline_; }
  /// False when the kernel refused the reset: the peak then includes
  /// whatever the harness built before the baseline.
  [[nodiscard]] bool reset() const { return reset_; }

 private:
  bool reset_ = false;
  double baseline_ = 0.0;
};

std::string number(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char text[40];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

std::string escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c >= 0x20 ? c : ' ';
  }
  return out;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      return false;
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    try {
      if (key == "workload") {
        options.workload = value;
      } else if (key == "seed") {
        options.seed = std::stoull(value);
      } else if (key == "seconds") {
        options.seconds = std::stod(value);
      } else if (key == "trace") {
        options.trace = value == "1";
      } else if (key == "out") {
        options.out_dir = value;
      } else if (key == "root") {
        options.root = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !options.workload.empty() && !options.out_dir.empty() &&
         !options.root.empty() && options.seconds > 0;
}

std::unique_ptr<Workload> make(const Options& options) {
  if (options.workload == "t3_audit_campaign") {
    return make_t3_audit_campaign(options);
  }
  if (options.workload == "t8_pecos_campaign") {
    return make_t8_pecos_campaign(options);
  }
  if (options.workload == "oplog_replay") {
    return make_oplog_replay(options);
  }
  if (options.workload == "shard_1m") {
    return make_shard_1m(options);
  }
  return nullptr;
}

/// The operation a fail_ratio counts: a campaign run, or one API op / log
/// event (a failed round or pass fails all of its ops).
struct Tally {
  double attempted = 0.0;
  double failed = 0.0;
};

/// What a timed phase keeps, folded in run by run, so the harness's own
/// memory does not grow with the number of runs a phase executes.
struct Phase {
  std::vector<double> slot_best_s;     ///< fastest wall of each slot
  std::vector<double> slot_ops;        ///< ops of each slot
  std::vector<double> pass_wall_s;     ///< Σ run walls of each pass
  /// Workloads that time single ops: the fastest repetition of each
  /// sampled op, by slot (a slot samples the same ops on every pass).
  std::vector<std::vector<double>> slot_op_best_us;
  std::size_t runs = 0;
  double wall_s = 0.0;                 ///< Σ run walls
  Tally tally;
  std::vector<std::string> failures;
};

/// Every phase covers at least this many whole passes, so each slot has
/// repetitions to choose its best from.
constexpr std::size_t kMinPasses = 3;

/// One set-up sample: the fastest of a batch of `setup_repeats` set-ups.
double setup_sample(Workload& workload) {
  double fastest = 0.0;
  for (int i = 0; i < workload.setup_repeats(); ++i) {
    const auto start = Clock::now();
    workload.setup();
    const double took = elapsed_s(start);
    fastest = i == 0 ? took : std::min(fastest, took);
  }
  return fastest;
}

/// Runs the workload closed-loop, whole passes at a time, until `seconds`
/// of wall time have passed and at least kMinPasses passes are complete.
/// Every pass starts from a fresh set-up; `setups` collects one sample per
/// pass, so set-up time is sampled across the whole run.
Phase run_phase(Workload& workload, double seconds, SpanLog* spans,
                std::vector<double>& setups) {
  Phase phase;
  const bool ops_are_operations = workload.fails_per_op();
  const auto start = Clock::now();
  do {
    setups.push_back(setup_sample(workload));
    double pass_wall = 0.0;
    do {
      const RunSample s = workload.run_next(spans);
      if (s.slot >= phase.slot_best_s.size()) {
        phase.slot_best_s.resize(s.slot + 1, std::numeric_limits<double>::infinity());
        phase.slot_ops.resize(s.slot + 1, 0.0);
        phase.slot_op_best_us.resize(s.slot + 1);
      }
      phase.slot_best_s[s.slot] = std::min(phase.slot_best_s[s.slot], s.wall_s);
      phase.slot_ops[s.slot] = s.ops;
      std::vector<double>& op_best = phase.slot_op_best_us[s.slot];
      if (op_best.empty()) {
        op_best = s.op_us;
      } else {
        for (std::size_t i = 0; i < std::min(op_best.size(), s.op_us.size()); ++i) {
          op_best[i] = std::min(op_best[i], s.op_us[i]);
        }
      }
      pass_wall += s.wall_s;
      const double n = ops_are_operations ? s.ops : 1.0;
      phase.tally.attempted += n;
      if (!s.ok) {
        phase.tally.failed += n;
        if (phase.failures.size() < 5) {
          phase.failures.push_back(s.failure);
        }
      }
      ++phase.runs;
    } while (!workload.at_pass_end());
    phase.pass_wall_s.push_back(pass_wall);
    phase.wall_s += pass_wall;
  } while (elapsed_s(start) < seconds || phase.pass_wall_s.size() < kMinPasses);
  return phase;
}

/// Each slot's fastest repetition over a phase's passes. Every pass repeats
/// the same work slot by slot, so the spread between repetitions is host
/// noise: on a shared host, co-tenants slow a core by up to ~1.6x for
/// seconds at a time (pass walls in one run are bimodal), and the fastest
/// repetition is the estimate least affected by it. The sums below are
/// one pass at best speed.
struct Best {
  double runs = 0.0;     ///< slots in a pass
  double wall_s = 0.0;   ///< Σ slot best walls
  double ops = 0.0;      ///< Σ slot ops
  std::vector<double> run_ms;  ///< slot best walls
  std::vector<double> op_us;   ///< slot best wall per op, or sampled op bests
};

Best best(const Phase& phase) {
  Best r;
  for (std::size_t slot = 0; slot < phase.slot_best_s.size(); ++slot) {
    const double wall = phase.slot_best_s[slot];
    const double ops = phase.slot_ops[slot];
    r.runs += 1.0;
    r.wall_s += wall;
    r.ops += ops;
    r.run_ms.push_back(wall * 1e3);
    const std::vector<double>& op_best = phase.slot_op_best_us[slot];
    if (!op_best.empty()) {
      r.op_us.insert(r.op_us.end(), op_best.begin(), op_best.end());
    } else if (ops > 0) {
      r.op_us.push_back(wall * 1e6 / ops);
    }
  }
  return r;
}

std::vector<Metric> end_to_end(const Phase& phase, double setup_s, double rss_mb) {
  const Best r = best(phase);
  // Workloads that time single ops: p99 over the sampled ops of each op's
  // fastest repetition, so a burst of host noise must hit the same op on
  // every pass to count. The others: p99 over slots of the slot's best
  // wall per op.
  const double op_us_p99 = quantile(r.op_us, 0.99);
  return {
      {"runs_per_s", r.runs / r.wall_s, "1/s"},
      {"run_ms_p90", quantile(r.run_ms, 0.9), "ms"},
      {"ops_per_s", r.ops / r.wall_s, "1/s"},
      {"op_us_p99", op_us_p99, "us"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
}

/// Host-noise evidence for the report: involuntary context switches and
/// CPU time against wall time since process start.
void print_host_noise(Clock::time_point process_start) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double cpu = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
                     1e-6 * static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
  std::printf("host: %ld involuntary context switches; CPU %.2f s over %.2f s wall\n",
              usage.ru_nivcsw, cpu, elapsed_s(process_start));
}

/// Pass-to-pass spread inside one phase, for the report.
void print_passes(const Phase& phase) {
  std::printf("%zu runs in %zu passes; pass wall min %.4f s, median %.4f s, max %.4f s\n",
              phase.runs, phase.pass_wall_s.size(), quantile(phase.pass_wall_s, 0.0),
              median(phase.pass_wall_s), quantile(phase.pass_wall_s, 1.0));
}

void print_self_times(const SpanLog& spans, double traced_wall_ns) {
  std::printf("\nwall-clock self time by span (traced phase + layer drives):\n");
  std::printf("  %-40s %10s %12s %12s %7s\n", "span", "calls", "total ms",
              "self ms", "self %");
  double self_sum = 0;
  for (const auto& [name, total] : spans.totals()) {
    self_sum += total.self_ns;
  }
  for (const auto& [name, total] : spans.totals()) {
    std::printf("  %-40s %10llu %12.3f %12.3f %6.1f%%\n", name.c_str(),
                static_cast<unsigned long long>(total.count), total.total_ns * 1e-6,
                total.self_ns * 1e-6, self_sum > 0 ? 100.0 * total.self_ns / self_sum : 0.0);
  }
  // Self time per layer (the span-name prefix).
  std::map<std::string, double> layers;
  for (const auto& [name, total] : spans.totals()) {
    layers[name.substr(0, name.find('.'))] += total.self_ns;
  }
  std::printf("  per layer:");
  for (const auto& [layer, ns] : layers) {
    std::printf("  %s %.1f ms", layer.c_str(), ns * 1e-6);
  }
  std::printf("\n  (traced phase run wall: %.1f ms)\n", traced_wall_ns * 1e-6);
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  Options options;
  if (!parse(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: wtc_perf --workload=NAME --seed=N --seconds=S --trace=0|1 "
                 "--out=DIR --root=DIR\n");
    return 2;
  }
  // Closed loop on one host thread; no log lines inside the measurement
  // (the ACFA arm would otherwise warn once per attested violation).
  wtc::common::set_log_level(wtc::common::LogLevel::Off);
  wtc::experiments::set_default_campaign_jobs(1);
  wtc::experiments::set_campaign_progress(false);

  std::unique_ptr<Workload> workload = make(options);
  if (workload == nullptr) {
    std::fprintf(stderr, "wtc_perf: unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("wtc-perf %s  seed %llu  %.0f s  trace %d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("build %s, %s, nproc %u; one host thread, closed loop\n",
              WTC_PERF_BUILD_TYPE, WTC_PERF_COMPILER, nproc);

  try {
    std::vector<double> setups;
    const WorkloadMemory memory;  // baseline: before the first set-up
    workload->setup();
    workload->prepare();
    std::printf("run = %s; op = %s; database region %.0f bytes (%.2f MB)\n",
                workload->run_unit(), workload->op_unit(), workload->region_bytes(),
                workload->region_bytes() / 1e6);

    std::vector<Metric> metrics;
    std::vector<std::string> failures;
    std::vector<std::string> notes;
    Tally counted;
    if (!options.trace) {
      const Phase phase = run_phase(*workload, options.seconds, nullptr, setups);
      metrics = end_to_end(phase, median(setups), memory.peak_bytes() / 1e6);
      failures = phase.failures;
      counted = phase.tally;
      print_passes(phase);
      if (!memory.reset()) {
        std::printf("note: the resident high-water mark could not be reset; "
                    "peak_rss_mb includes the harness's own set-up\n");
      }
      print_host_noise(process_start);
    } else {
      const Phase plain = run_phase(*workload, options.seconds / 2, nullptr, setups);
      wtc::obs::Recorder recorder;
      SpanLog spans;
      Phase traced;
      {
        wtc::obs::ScopedRecorder scoped(recorder);
        traced = run_phase(*workload, options.seconds / 2, &spans, setups);
      }
      LayerReport layers = workload->layers(recorder.snapshot(),
                                            traced.runs, spans);
      // Set-up samples and region size are known here, not to the layers.
      for (Metric& m : layers.metrics) {
        if (m.name == "db.build_ms") {
          m.value = median(setups) * 1e3;
        } else if (m.name == "db.region_mb") {
          m.value = workload->region_bytes() / 1e6;
        }
      }
      metrics = std::move(layers.metrics);
      const Best plain_best = best(plain);
      const Best traced_best = best(traced);
      const double plain_ns_per_op = plain_best.wall_s / plain_best.ops;
      const double traced_ns_per_op = traced_best.wall_s / traced_best.ops;
      const double traced_wall_s = traced.wall_s;
      metrics.push_back({"trace.overhead_pct",
                         100.0 * (traced_ns_per_op - plain_ns_per_op) / plain_ns_per_op,
                         "%"});
      metrics.push_back({"layers.accounted_share",
                         layers.accounted_ns / (traced_wall_s * 1e9), "ratio"});
      failures = plain.failures;
      failures.insert(failures.end(), traced.failures.begin(), traced.failures.end());
      failures.insert(failures.end(), layers.failures.begin(), layers.failures.end());
      counted = {plain.tally.attempted + traced.tally.attempted,
                 plain.tally.failed + traced.tally.failed +
                     static_cast<double>(layers.failures.size())};
      notes = std::move(layers.notes);
      print_passes(plain);
      print_passes(traced);
      print_self_times(spans, traced_wall_s * 1e9);
      const std::string trace_path = options.out_dir + "/" + options.workload + "_seed" +
                                     std::to_string(options.seed) +
                                     "_wallclock_trace.json";
      if (spans.write_chrome_trace(trace_path)) {
        std::printf("wall-clock Chrome trace: %s%s\n", trace_path.c_str(),
                    spans.dropped_events() ? " (event cap reached; totals complete)"
                                           : "");
      }
    }

    const std::vector<std::string> final = workload->final_checks();
    failures.insert(failures.end(), final.begin(), final.end());
    counted.failed += static_cast<double>(final.size());
    const bool correct = failures.empty();

    if (!notes.empty()) {
      std::printf("\nmodelled vs measured audit cost (this workload's database):\n");
      for (const std::string& line : notes) {
        std::printf("  %s\n", line.c_str());
      }
    }
    std::printf("\n  %-40s %18s  %s\n", "metric", "value", "unit");
    for (const Metric& m : metrics) {
      std::printf("  %-40s %18.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("  %-40s %18.6g  ratio (%.0f of %.0f operations failed)\n", "fail_ratio",
                counted.attempted > 0 ? counted.failed / counted.attempted : 0.0,
                counted.failed, counted.attempted);
    for (const std::string& failure : failures) {
      std::printf("FAILED: %s\n", failure.c_str());
    }

    const std::string result =
        std::string("{\"correct\": ") + (correct ? "true" : "false") +
        ", \"attempted\": " + number(std::max(1.0, counted.attempted)) +
        ", \"failed\": " + number(counted.failed) +
        ", \"metrics\": " + metrics_json(metrics) + "}";
    std::ofstream log(options.out_dir + "/results.jsonl", std::ios::app);
    log << "{\"workload\": \"" << options.workload << "\", \"seed\": " << options.seed
        << ", \"seconds\": " << number(options.seconds)
        << ", \"trace\": " << (options.trace ? 1 : 0) << ", \"build_type\": \""
        << WTC_PERF_BUILD_TYPE << "\", \"compiler\": \"" << escape(WTC_PERF_COMPILER)
        << "\", \"nproc\": " << nproc << ", \"result\": " << result << "}\n";
    std::printf("%s\n", result.c_str());
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "wtc_perf: %s\n", error.what());
    return 1;
  }
}
