#include "audit/cf_attest.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace wtc::audit {

CfAttestElement::CfAttestElement(
    pecos::CfLog& log, const pecos::Plan& plan, CfAttestConfig config,
    std::function<sim::ProcessId()> client_pid,
    std::function<void(const CfViolation&)> on_violation)
    : log_(log),
      plan_(plan),
      config_(config),
      client_pid_(std::move(client_pid)),
      on_violation_(std::move(on_violation)) {
  for (const vm::CfiInfo& info : plan_.cfg().cfis()) {  // sorted by site
    if (info.kind != vm::CfiKind::Branch) {
      unconditional_sites_.push_back(info.site);
    }
  }
}

void CfAttestElement::on_start(AuditProcess& process) {
  process_ = &process;
  // Overflow policy: a full ring forces an early slice of that thread —
  // the attestation runs NOW (still under the quarantine guard), so no
  // transition is ever dropped and bursty threads are checked sooner.
  log_.set_overflow_handler([this](std::uint32_t thread) {
    if (process_ != nullptr) {
      process_->guarded(*this, [this, thread]() {
        ++slices_;
        obs::count(obs::Counter::audit_cf_slices);
        slice_thread(thread, process_->node().now());
      });
    }
  });
  process.schedule_after(config_.slice_period, [this, &process]() {
    process.guarded(*this, [this, &process]() { tick(process); });
  });
}

CfAttestElement::Shadow& CfAttestElement::shadow_for(std::uint32_t thread) {
  if (shadows_.size() <= thread) {
    shadows_.resize(thread + 1);
  }
  return shadows_[thread];
}

void CfAttestElement::tick(AuditProcess& process) {
  const sim::Time now = process.node().now();
  ++slices_;
  obs::count(obs::Counter::audit_cf_slices);
  for (std::uint32_t t = 0; t < log_.thread_count(); ++t) {
    slice_thread(t, now);
  }
  process.schedule_after(config_.slice_period, [this, &process]() {
    process.guarded(*this, [this, &process]() { tick(process); });
  });
}

bool CfAttestElement::transition_valid(const pecos::CfTransition& entry,
                                       const Shadow& shadow) const {
  const vm::Cfg& cfg = plan_.cfg();
  const vm::CfiInfo* cfi = cfg.cfi_at(entry.from_pc);
  if (cfi == nullptr) {
    // The pristine program has no CFI here: an instruction corrupted
    // *into* a CFI transferred control.
    return false;
  }
  switch (cfi->kind) {
    case vm::CfiKind::Jump:
    case vm::CfiKind::Branch:
    case vm::CfiKind::Call:
      if (std::ranges::find(cfi->static_targets(), entry.to_pc) ==
          cfi->static_targets().end()) {
        return false;
      }
      break;
    case vm::CfiKind::IndirectCall:
      // The register value is gone by attestation time; the log-level
      // invariant is that an indirect call lands on a block leader. (The
      // preemptive monitor still does the exact register recompute.)
      if (!cfg.is_leader(entry.to_pc)) {
        return false;
      }
      break;
    case vm::CfiKind::Ret:
      if (!std::ranges::binary_search(plan_.return_points(), entry.to_pc)) {
        return false;
      }
      break;
  }
  if (shadow.valid) {
    // Continuity: from the previous landing, legit execution moves only
    // forward and cannot cross an always-taken CFI site without logging
    // it. A violation here is a stray entry into a block middle.
    if (entry.from_pc < shadow.landing) {
      return false;
    }
    const auto first_uncond =
        std::lower_bound(unconditional_sites_.begin(),
                         unconditional_sites_.end(), shadow.landing);
    if (first_uncond != unconditional_sites_.end() &&
        *first_uncond < entry.from_pc) {
      return false;
    }
  }
  return true;
}

void CfAttestElement::flag(const pecos::CfTransition& entry, sim::Time now) {
  ++violations_;
  obs::count(obs::Counter::audit_cf_violations);
  if (!first_violation_) {
    first_violation_ = now;
  }
  const std::uint64_t latency =
      now >= entry.time ? static_cast<std::uint64_t>(now - entry.time) : 0;
  max_latency_us_ = std::max(max_latency_us_, latency);
  obs::observe(obs::Histogram::cf_detection_latency_us, latency);
  common::log(common::LogLevel::Warn, "audit", "cf-attest: thread ",
              entry.thread, " illegal transfer ", entry.from_pc, " -> ",
              entry.to_pc, " (latency ", latency, " us)");

  Finding finding;
  finding.technique = Technique::CfAttestation;
  finding.recovery = on_violation_ ? Recovery::HealThread : Recovery::None;
  finding.time = now;
  if (process_ != nullptr) {
    process_->engine().report_external(finding);
  }

  if (on_violation_) {
    CfViolation violation;
    violation.client = client_pid_ ? client_pid_() : sim::kNoProcess;
    violation.thread = entry.thread;
    violation.from_pc = entry.from_pc;
    violation.to_pc = entry.to_pc;
    violation.time = entry.time;
    violation.source = CfSource::Attestation;
    on_violation_(violation);
  }
}

void CfAttestElement::slice_thread(std::uint32_t thread, sim::Time now) {
  scratch_.clear();
  if (log_.drain(thread, scratch_) == 0) {
    return;
  }
  Shadow& shadow = shadow_for(thread);
  bool clean = true;
  for (const auto& entry : scratch_) {
    if (entry.thread_start) {
      shadow.landing = entry.to_pc;
      shadow.valid = true;
      continue;
    }
    ++attested_;
    obs::count(obs::Counter::audit_cf_transitions_attested);
    if (!transition_valid(entry, shadow)) {
      clean = false;
      flag(entry, now);
    }
    // Resync on the observed landing either way: one violation must not
    // cascade into flagging every subsequent (locally consistent) hop.
    shadow.landing = entry.to_pc;
    shadow.valid = true;
  }
  if (process_ != nullptr) {
    // Modelled audit CPU cost per attested transition (µs).
    constexpr sim::Duration kCostPerTransition = 1;
    process_->book_cpu(static_cast<sim::Duration>(scratch_.size()) *
                       kCostPerTransition);
  }
  if (clean && op_log_ != nullptr) {
    // Everything this thread did up to `now` is attested clean: the op
    // log can compact its history up to here (healing never needs to roll
    // back past an attested slice).
    op_log_->advance_watermark(thread, now);
  }
}

}  // namespace wtc::audit
