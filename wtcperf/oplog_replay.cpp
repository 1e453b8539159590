// The op-log replay workload.
//
// oplog_replay  The three shipped captures in workloads/*.oplog. Each run
//               takes one capture through the whole zero-simulation
//               pipeline: decode, apply to a fresh controller database
//               (apply_op_log), replay-audit with chain dedup
//               (ReplayAuditor), and re-encode (RunOpLog::serialize). It
//               exercises the database write path with no scheduler,
//               oracle or reads. handoff_storm (99% duplicate chains) and
//               registration_avalanche (alloc-heavy, few duplicates) put
//               dedup on both sides. The seed permutes the capture order.
#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "audit/replay.hpp"
#include "common/rng.hpp"
#include "db/controller_schema.hpp"
#include "db/run_op_log.hpp"
#include "experiments/replay_workload.hpp"
#include "harness.hpp"
#include "layers.hpp"

namespace wtcperf {

using namespace wtc;

namespace {

struct Capture {
  const char* name;
  std::uint64_t events;         ///< golden: decoded event count
  std::uint64_t region_digest;  ///< golden: FNV-1a of the replayed region
  std::vector<std::uint8_t> bytes;
};

/// The shipped captures and what replaying them produces. Every capture
/// releases all it allocates, so each replay ends in the same region.
std::vector<Capture> golden_captures() {
  return {
      {"handoff_storm", 12032, 0xe961c42d468ce11aull, {}},
      {"registration_avalanche", 677, 0xe961c42d468ce11aull, {}},
      {"diurnal_load", 5216, 0xe961c42d468ce11aull, {}},
  };
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::uint64_t region_digest(std::span<const std::byte> region) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const std::byte b : region) {
    hash ^= static_cast<std::uint8_t>(b);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// Stage timings of one or more pipeline passes.
struct PipelineTotals {
  double decode_ns = 0, apply_ns = 0, replay_ns = 0, encode_ns = 0;
  double bytes = 0, encoded_bytes = 0, events = 0, applied = 0;
  double event_capacity = 0, executed_ops = 0, total_ops = 0;

  [[nodiscard]] OplogTiming timing() const {
    OplogTiming t;
    t.decode_mb_per_s = decode_ns > 0 ? bytes / decode_ns * 1e3 : 0.0;
    t.encode_mb_per_s = encode_ns > 0 ? encoded_bytes / encode_ns * 1e3 : 0.0;
    t.disk_bytes_per_event = events > 0 ? bytes / events : 0.0;
    t.mem_bytes_per_event =
        events > 0 ? event_capacity * sizeof(db::ApiEvent) / events : 0.0;
    t.apply_ns_per_op = applied > 0 ? apply_ns / applied : 0.0;
    t.replay_ns_per_event = events > 0 ? replay_ns / events : 0.0;
    t.replay_exec_share = total_ops > 0 ? executed_ops / total_ops : 0.0;
    return t;
  }
};

struct PassResult {
  std::uint64_t events = 0;
  std::uint64_t region = 0;
  std::string failure;  ///< empty when every check held
  std::unique_ptr<db::Database> database;
};

/// One capture through decode -> apply -> replay audit -> re-encode.
PassResult pipeline(const Capture& capture, SpanLog* spans, PipelineTotals& totals) {
  PassResult out;
  auto t0 = Clock::now();
  db::OpLogReadResult log;
  {
    Span span(spans, "db.decode_op_log");
    log = db::decode_op_log(capture.bytes);
  }
  totals.decode_ns += elapsed_ns(t0);
  if (!log.ok()) {
    out.failure = std::string(capture.name) + ": decode failed: " +
                  std::string(db::to_string(log.error));
    return out;
  }
  out.events = log.events.size();

  t0 = Clock::now();
  experiments::ReplayWorkloadStats applied;
  {
    Span span(spans, "experiments.apply_op_log");
    out.database = db::make_controller_database();
    applied = experiments::apply_op_log(*out.database, log.events);
  }
  totals.apply_ns += elapsed_ns(t0);

  t0 = Clock::now();
  audit::ReplayResult replay;
  {
    Span span(spans, "audit.replay");
    audit::ReplayAuditor auditor(*out.database, audit::ReplayConfig{});
    replay = auditor.run(log.events);
  }
  totals.replay_ns += elapsed_ns(t0);

  t0 = Clock::now();
  std::vector<std::uint8_t> encoded;
  {
    Span span(spans, "db.encode_op_log");
    db::RunOpLog tee;
    for (const db::ApiEvent& event : log.events) {
      tee.on_api_event(event);
    }
    encoded = tee.serialize();
  }
  totals.encode_ns += elapsed_ns(t0);

  totals.bytes += static_cast<double>(capture.bytes.size());
  totals.encoded_bytes += static_cast<double>(encoded.size());
  totals.events += static_cast<double>(log.events.size());
  totals.event_capacity += static_cast<double>(log.events.capacity());
  totals.applied += static_cast<double>(applied.applied);
  totals.executed_ops += static_cast<double>(replay.stats.executed_ops);
  totals.total_ops += static_cast<double>(replay.stats.total_ops);

  out.region = region_digest(out.database->region());
  const std::string name = capture.name;
  if (applied.divergences != 0) {
    out.failure = name + ": " + std::to_string(applied.divergences) + " replay divergences";
  } else if (!replay.findings.empty() || replay.stats.mismatched_words != 0) {
    out.failure = name + ": replay audit flagged a just-replayed region";
  } else if (encoded != capture.bytes) {
    out.failure = name + ": re-encoded log differs from the capture";
  }
  return out;
}

std::vector<Capture> load_captures(const Options& options) {
  std::vector<Capture> captures = golden_captures();
  for (Capture& capture : captures) {
    capture.bytes =
        read_file(options.root + "/workloads/" + capture.name + ".oplog");
  }
  return captures;
}

class OplogReplay final : public Workload {
 public:
  explicit OplogReplay(const Options& options) : options_(options) {}

  const char* run_unit() const override { return "capture pass"; }
  const char* op_unit() const override { return "log event"; }
  bool fails_per_op() const override { return true; }
  int setup_repeats() const override { return 11; }

  void setup() override {
    // Release the previous pass's state first, so two sets never coexist.
    database_.reset();
    captures_.clear();
    captures_ = load_captures(options_);
    database_ = db::make_controller_database();
    // The seed picks the order the captures are replayed in.
    common::Rng rng(0x0F1E0000ull + options_.seed);
    for (std::size_t i = captures_.size(); i > 1; --i) {
      std::swap(captures_[i - 1], captures_[rng.uniform(i)]);
    }
  }

  void prepare() override {
    PipelineTotals unused;
    for (const Capture& capture : captures_) {
      const PassResult pass = pipeline(capture, nullptr, unused);
      reference_.push_back(pass.region);
      if (!pass.failure.empty()) {
        prepare_failures_.push_back(pass.failure);
      }
      if (pass.events != capture.events || pass.region != capture.region_digest) {
        char line[200];
        std::snprintf(line, sizeof line,
                      "%s: %llu events, region %016llx; golden %llu, %016llx",
                      capture.name, static_cast<unsigned long long>(pass.events),
                      static_cast<unsigned long long>(pass.region),
                      static_cast<unsigned long long>(capture.events),
                      static_cast<unsigned long long>(capture.region_digest));
        prepare_failures_.emplace_back(line);
      }
    }
  }

  RunSample run_next(SpanLog* spans) override {
    const std::size_t i = next_;
    next_ = (next_ + 1) % captures_.size();
    RunSample sample;
    sample.slot = i;
    PipelineTotals untraced;
    PipelineTotals& totals = spans != nullptr ? traced_ : untraced;
    try {
      const auto start = Clock::now();
      PassResult pass = pipeline(captures_[i], spans, totals);
      sample.wall_s = elapsed_s(start);
      sample.ops = static_cast<double>(pass.events);
      if (!pass.failure.empty()) {
        sample.ok = false;
        sample.failure = pass.failure;
      } else if (pass.region != reference_[i]) {
        sample.ok = false;
        sample.failure = std::string(captures_[i].name) + ": region differs from reference";
      }
      if (spans != nullptr) {
        last_database_ = std::move(pass.database);
      }
    } catch (const std::exception& error) {
      sample.ok = false;
      sample.failure = error.what();
    }
    return sample;
  }

  bool at_pass_end() const override { return next_ == 0; }

  std::vector<std::string> final_checks() override { return prepare_failures_; }

  double region_bytes() const override {
    return static_cast<double>(database_->layout().region_size());
  }

  LayerReport layers(const obs::MetricsSnapshot& traced, std::uint64_t traced_runs,
                     SpanLog& spans) override {
    LayerValues v;
    fill_counts(v, traced, traced_runs);
    v.oplog = traced_.timing();
    v.db_mutating_ops = traced_.applied / static_cast<double>(traced_runs);
    run_standard_drives(v, options_, spans);
    v.db_ops = drive_db_ops(options_.seed, spans);
    if (last_database_ == nullptr) {
      last_database_ = db::make_controller_database();
    }
    v.audit = time_audit(*last_database_, audit::EngineConfig{}, spans);

    LayerReport report;
    report.metrics = layer_metrics(v);
    report.notes = audit_report(v.audit);
    if (v.audit.findings != 0) {
      report.failures.push_back("oplog_replay: audit flagged a replayed region");
    }
    report.accounted_ns =
        traced_.decode_ns + traced_.apply_ns + traced_.replay_ns + traced_.encode_ns;
    return report;
  }

 private:
  Options options_;
  std::vector<Capture> captures_;
  std::unique_ptr<db::Database> database_;
  std::unique_ptr<db::Database> last_database_;
  std::vector<std::uint64_t> reference_;
  std::vector<std::string> prepare_failures_;
  PipelineTotals traced_;
  std::size_t next_ = 0;
};

}  // namespace

OplogTiming drive_oplog(const Options& options, SpanLog& spans) {
  Span span(&spans, "db.oplog_drive");
  const std::vector<Capture> captures = load_captures(options);
  PipelineTotals totals;
  const auto start = Clock::now();
  do {
    const PassResult pass = pipeline(captures.front(), nullptr, totals);
    if (!pass.failure.empty()) {
      throw std::runtime_error("op-log drive: " + pass.failure);
    }
  } while (elapsed_s(start) < 0.05);
  return totals.timing();
}

std::unique_ptr<Workload> make_oplog_replay(const Options& options) {
  return std::make_unique<OplogReplay>(options);
}

}  // namespace wtcperf
