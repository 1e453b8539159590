// Instruction-level error injection into the call-processing client
// (§6.1.2, NFTAPE-style).
//
// Implements the Table-6 error models against the MiniVM client:
//
//   ADDIF   — address-line error on instruction fetch: the fetch at the
//             target pc reads a *different* instruction from the stream
//             (pc XOR one address bit);
//   DATAIF  — data-line error while the opcode is fetched: one bit of the
//             instruction word's opcode byte flips;
//   DATAOF  — data-line error while an operand is fetched: one bit of the
//             operand bytes flips;
//   DATAInF — random bit anywhere in the instruction word (RAND).
//
// Trigger semantics follow the paper: a breakpoint on the chosen
// instruction; when any thread reaches it, the error is planted, the
// thread executes the erroneous instruction, and the error is removed a
// short window later — during which *other* threads may also execute it
// (the multi-thread co-activation effect the paper observed).
//
// Targeting: Random picks any instruction in the text segment; DirectedCFI
// picks among control flow instructions only (the paper's two campaign
// families).
#pragma once

#include <cstdint>
#include <optional>

#include "common/rng.hpp"
#include "sim/node.hpp"
#include "vm/cfg.hpp"
#include "vm/interp.hpp"

namespace wtc::inject {

enum class ErrorModel : std::uint8_t { ADDIF, DATAIF, DATAOF, DATAInF };
enum class InjectTarget : std::uint8_t { Random, DirectedCFI };

[[nodiscard]] std::string_view to_string(ErrorModel model) noexcept;

struct ClientInjectorConfig {
  ErrorModel model = ErrorModel::DATAInF;
  InjectTarget target = InjectTarget::Random;
};

/// One injection campaign step bound to a VmProcess. Arm it before the
/// run; it plants the error when the breakpoint is first reached and
/// restores the pristine word after the window.
class ClientErrorInjector {
 public:
  /// How long the planted error stays before restoration (the window in
  /// which other threads can co-activate it).
  static constexpr sim::Duration kErrorWindow =
      2 * static_cast<sim::Duration>(sim::kMillisecond);

  ClientErrorInjector(vm::VmProcess& process, sim::Scheduler& scheduler,
                      common::Rng rng, ClientInjectorConfig config);

  /// Chooses the target instruction and arms the breakpoint.
  void arm();

  [[nodiscard]] std::uint32_t target_pc() const noexcept { return target_pc_; }
  /// The erroneous instruction was fetched at least once.
  [[nodiscard]] bool activated() const noexcept;
  [[nodiscard]] std::uint64_t activations() const noexcept;
  [[nodiscard]] bool planted() const noexcept { return planted_; }

 private:
  void plant();
  void restore();
  [[nodiscard]] std::uint32_t pick_target();
  [[nodiscard]] std::uint8_t pick_bit() const;

  vm::VmProcess& process_;
  sim::Scheduler& scheduler_;
  mutable common::Rng rng_;
  ClientInjectorConfig config_;
  vm::Cfg cfg_;
  std::uint32_t target_pc_ = 0;
  std::uint8_t bit_ = 0;
  std::uint32_t addr_mask_ = 0;
  std::uint64_t saved_word_ = 0;
  std::uint64_t activations_ = 0;
  bool planted_ = false;
  bool restored_ = false;
};

}  // namespace wtc::inject
