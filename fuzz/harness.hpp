// Fuzz harnesses over the untrusted input surfaces (DESIGN §15):
// on-disk region images, MiniVM instruction streams, IPC frames, and
// on-disk op logs — the coverage-guided generalization of the paper's
// hand-rolled fault injection campaigns.
//
// The entry points below contain ALL harness logic and are plain C++:
// they build under any compiler and run under any sanitizer, so the same
// invariants are enforced by
//   * the libFuzzer wrappers (fuzz_*.cpp, -DWTC_FUZZ=ON, Clang only),
//   * the standalone `fuzz_driver` (corpus replay / random smoke, gcc ok),
//   * tests/test_fuzz_regressions (replays checked-in crash inputs).
//
// Determinism: every harness runs on virtual time (fixed clocks or the
// discrete-event scheduler) with fixed RNG seeds, so a crashing input
// reproduces byte-for-byte in any of the three drivers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "db/controller_schema.hpp"
#include "vm/program.hpp"

namespace wtc::fuzz {

/// Invariant check. Aborts (after printing the invariant) so libFuzzer —
/// and every other driver — treats a violated invariant exactly like a
/// crash and saves the offending input.
inline void require(bool ok, const char* invariant) {
  if (!ok) {
    std::fprintf(stderr, "fuzz invariant violated: %s\n", invariant);
    std::abort();
  }
}

/// The deliberately small controller schema every harness (and the corpus
/// generator) uses: the full audit/repair machinery over a region small
/// enough to fuzz at depth.
[[nodiscard]] db::ControllerSchemaParams harness_schema_params();

/// The fixed call-processing-shaped program the MiniVM harness mutates:
/// DB API bindings, a counted loop, call/ret, an indirect call, and
/// inter-function padding. Built from the controller ids of a database
/// created with harness_schema_params().
[[nodiscard]] vm::Program harness_program(const db::ControllerIds& ids);

/// Writes a minivm input's (index, word) overlay groups into `text` (the
/// input grammar is in harness_minivm.cpp); returns how many it applied.
std::size_t overlay_minivm_text(std::vector<std::uint64_t>& text,
                                const std::uint8_t* data, std::size_t size);

// --- harness entry points (LLVMFuzzerTestOneInput-shaped) ---

/// Input = a database image file (envelope + region payload); the input
/// tail is additionally replayed as raw in-region corruption. Asserts the
/// load's all-or-nothing guarantee and that audit -> repair -> re-audit
/// converges to (and stays at) zero findings.
int fuzz_region_image(const std::uint8_t* data, std::size_t size);

/// Input = monitor selector byte + (pc, word) overlays onto the live text
/// of harness_program(), run under a PECOS monitor with CF-attestation
/// slices. Asserts malformed execution is rejected (trap) or flagged
/// within one attestation slice, with no false positives on pristine text.
int fuzz_minivm(const std::uint8_t* data, std::size_t size);

/// Input = a stream of crafted frames/acks fed to ReliableReceiver::accept
/// and ReliableSender::on_message, cross-checked against a model of the
/// dedup/accounting rules.
int fuzz_ipc_frame(const std::uint8_t* data, std::size_t size);

/// Input = an on-disk whole-run op log (--replay-oplog surface). Asserts
/// the decoder's all-or-nothing guarantee, encode/decode round-trip
/// stability of accepted logs, and that an accepted log replays
/// deterministically: byte-identical regions across repeated application
/// and thread-count-independent replay-audit results.
int fuzz_oplog(const std::uint8_t* data, std::size_t size);

}  // namespace wtc::fuzz
