// The call-processing client compiled to MiniVM (§6.1.2's injection target).
//
// Same logic as the native client — Figure-2 phases with retry loops, the
// Figure-8 golden-copy compare, the Process/Connection/Resource semantic
// loop — expressed as a MiniVM program so that instruction-level error
// injection (ADDIF/DATAIF/DATAOF/DATAInF) and PECOS instrumentation apply.
// The program deliberately exercises every CFI kind: conditional branches
// (retry loops, compare chains), direct calls (phase functions), an
// indirect call (the supplementary-feature dispatch — the paper's
// dynamic-library/virtual-function analog), and returns.
#pragma once

#include <cstdint>

#include "db/controller_schema.hpp"
#include "pecos/bssc.hpp"
#include "pecos/plan.hpp"
#include "vm/program.hpp"

namespace wtc::callproc {

/// Emit-trace codes the experiment harness interprets (Table 7).
enum EmitCode : std::int32_t {
  kEmitCallStart = 1,
  kEmitCallFailed = 2,  ///< auth/alloc phase gave up (graceful)
  kEmitMismatch = 3,    ///< Figure-8 golden compare failed => fail-silence violation
  kEmitCallDone = 4,
  kEmitAllDone = 5,  ///< the thread's "completed successfully" message
};

struct VmProgramParams {
  db::ControllerIds ids;
  std::int32_t num_subscribers = 64;
  std::int32_t calls_per_thread = 2;

  bool operator==(const VmProgramParams&) const = default;
};

/// Builds the per-thread call-processing program. Every thread of the
/// client process runs this same text (threads share the text segment).
/// The text also holds the never-invoked supplementary-feature handlers
/// (call waiting, paging, handoff) plus inter-function padding — cold text
/// the injector can hit without the error ever activating (§5.1 / §6.1.2).
[[nodiscard]] vm::Program build_call_program(const VmProgramParams& params);

/// The pristine call program and what PECOS derives from it when the
/// client is compiled (§6.1.1): its CFG, analysed once, and the PECOS and
/// BSSC plans built from that CFG. Immutable: runs share it read-only and
/// each VmProcess copies the text it mutates.
struct ProgramImage {
  vm::Program program;
  pecos::Plan plan;
  pecos::BsscPlan bssc;

  [[nodiscard]] const vm::Cfg& cfg() const noexcept { return plan.cfg(); }
};

/// The image of `build_call_program(params)`, built on the first request
/// for `params` and kept, unmoved, for the life of the process.
[[nodiscard]] const ProgramImage& call_program_image(const VmProgramParams& params);

}  // namespace wtc::callproc
