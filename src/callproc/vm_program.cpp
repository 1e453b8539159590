#include "callproc/vm_program.hpp"

#include "callproc/native_client.hpp"
#include "vm/builder.hpp"

namespace wtc::callproc {

namespace {
// Register conventions (r13 is the DB status register).
constexpr std::uint8_t rZ = 0;    // scratch zero / compare constant
constexpr std::uint8_t rT = 1;    // table id
constexpr std::uint8_t rR = 2;    // record index
constexpr std::uint8_t rV = 3;    // value
constexpr std::uint8_t rS = 4;    // scratch
constexpr std::uint8_t rOK = 5;   // function result: 1 ok / 0 fail
constexpr std::uint8_t rDur = 6;  // sleep duration
constexpr std::uint8_t rA = 7;    // scratch
constexpr std::uint8_t rFn = 8;   // icall target
constexpr std::uint8_t rB = 10;   // scratch
constexpr std::uint8_t rTry = 11; // retry counter
constexpr std::uint8_t rSub = 12; // subscriber index

// Per-thread data memory layout.
constexpr std::int32_t dProcRec = 0;
constexpr std::int32_t dConnRec = 1;
constexpr std::int32_t dResRec = 2;
constexpr std::int32_t dGoldCaller = 3;
constexpr std::int32_t dGoldCallee = 4;
constexpr std::int32_t dGoldState = 5;
constexpr std::int32_t dGoldPower = 6;
constexpr std::int32_t dGoldFeature = 7;
constexpr std::int32_t dRemaining = 8;

constexpr std::int32_t kTaskTokenMagic = 0x7A5C;

/// Active-call phase sleep: min + uniform[0, range) microseconds.
constexpr std::int32_t kActiveSleepMinUs = 200'000;
constexpr std::int32_t kActiveSleepRangeUs = 100'000;
constexpr std::int32_t kTxnRetries = 50;
constexpr std::int32_t kTxnBackoffUs = 2'000;
/// Inter-function padding between the supplementary-feature handlers.
constexpr std::uint32_t kPaddingWords = 12;
}  // namespace

vm::Program build_call_program(const VmProgramParams& params) {
  const auto& ids = params.ids;
  const auto P = static_cast<std::int32_t>(ids.process);
  const auto C = static_cast<std::int32_t>(ids.connection);
  const auto R = static_cast<std::int32_t>(ids.resource);
  const auto SUB = static_cast<std::int32_t>(ids.subscriber);
  vm::ProgramBuilder b;

  // ---------------- entry / main loop ----------------
  b.label("entry")
      .loadi(rS, params.calls_per_thread)
      .st(rZ, dRemaining, rS);  // data[remaining] = calls (rZ holds 0 base)
  // NOTE: rZ is 0 at thread start; keep it explicit before address uses.
  b.label("main_loop")
      .loadi(rZ, 0)
      .ld(rS, rZ, dRemaining)
      .beq(rS, rZ, "all_done")
      .addi(rS, rS, -1)
      .st(rZ, dRemaining, rS)
      .call("do_call")
      .jmp("main_loop");
  b.label("all_done").emit(kEmitAllDone).halt();

  // ---------------- one call (Figure 2) ----------------
  b.label("do_call")
      .emit(kEmitCallStart)
      .call("auth")
      .loadi(rZ, 0)
      .beq(rOK, rZ, "call_failed")
      .call("setup")
      .loadi(rZ, 0)
      .beq(rOK, rZ, "call_failed")
      // Active-call phase: hold the connection for its duration.
      .rand(rDur, kActiveSleepRangeUs)
      .addi(rDur, rDur, kActiveSleepMinUs)
      .sleepr(rDur)
      // Supplementary-feature dispatch through a runtime-determined
      // target (dynamic CFI — the virtual-function-table analog).
      .rand(rA, 2)
      .load_label(rFn, "feature_a")
      .loadi(rZ, 0)
      .beq(rA, rZ, "dispatch")
      .load_label(rFn, "feature_b");
  b.label("dispatch")
      .icall(rFn)
      .call("verify")
      .loadi(rZ, 0)
      .bne(rOK, rZ, "verified_ok")
      .emit(kEmitMismatch);
  b.label("verified_ok").call("teardown").emit(kEmitCallDone).ret();
  b.label("call_failed").emit(kEmitCallFailed).ret();

  // ---------------- authentication (with Figure-2 retry loop) ----------
  b.label("auth").loadi(rTry, static_cast<std::int32_t>(kAuthRetries));
  b.label("auth_try")
      .rand(rSub, params.num_subscribers)
      .loadi(rT, SUB)
      .mov(rR, rSub)
      .db_read_fld(rV, rT, rR, ids.s_subscriber_id)
      .loadi(rZ, 0)
      .bne(vm::kDbStatusReg, rZ, "auth_bad")
      .addi(rS, rSub, 1)  // expected key_of(subscriber)
      .beq(rV, rS, "auth_ok");
  b.label("auth_bad")
      .addi(rTry, rTry, -1)
      .loadi(rZ, 0)
      .bne(rTry, rZ, "auth_try")
      .loadi(rOK, 0)
      .ret();
  b.label("auth_ok").loadi(rOK, 1).ret();

  // ---------------- resource allocation + record writes ----------------
  b.label("setup").loadi(rTry, kTxnRetries);
  b.label("txn_try")
      .loadi(rT, P)
      .db_txn_begin(rT)
      .loadi(rZ, 0)
      .beq(vm::kDbStatusReg, rZ, "got_p")
      .jmp("txn_backoff");
  b.label("got_p")
      .loadi(rT, C)
      .db_txn_begin(rT)
      .loadi(rZ, 0)
      .beq(vm::kDbStatusReg, rZ, "got_c")
      .loadi(rT, P)
      .db_txn_end(rT)
      .jmp("txn_backoff");
  b.label("got_c")
      .loadi(rT, R)
      .db_txn_begin(rT)
      .loadi(rZ, 0)
      .beq(vm::kDbStatusReg, rZ, "got_all")
      .loadi(rT, P)
      .db_txn_end(rT)
      .loadi(rT, C)
      .db_txn_end(rT);
  b.label("txn_backoff")
      .addi(rTry, rTry, -1)
      .loadi(rZ, 0)
      .beq(rTry, rZ, "setup_fail_nolock")
      .loadi(rDur, kTxnBackoffUs)
      .sleepr(rDur)
      .jmp("txn_try");

  b.label("got_all")
      .loadi(rS, static_cast<std::int32_t>(db::kGroupActiveCalls))
      // Allocate the three records of the semantic loop.
      .loadi(rT, P)
      .db_alloc(rR, rT, rS)
      .loadi(rZ, 0)
      .blt(rR, rZ, "setup_fail")
      .st(rZ, dProcRec, rR)
      .loadi(rT, C)
      .db_alloc(rR, rT, rS)
      .loadi(rZ, 0)
      .blt(rR, rZ, "setup_fail_free_p")
      .st(rZ, dConnRec, rR)
      .loadi(rT, R)
      .db_alloc(rR, rT, rS)
      .loadi(rZ, 0)
      .blt(rR, rZ, "setup_fail_free_pc")
      .st(rZ, dResRec, rR)

      // Process record: key + the Process->Connection link.
      .loadi(rT, P)
      .ld(rR, rZ, dProcRec)
      .addi(rV, rR, 1)
      .db_write_fld(rV, rT, rR, ids.p_process_id)
      .ld(rS, rZ, dConnRec)
      .addi(rV, rS, 1)
      .db_write_fld(rV, rT, rR, ids.p_connection_id)
      .loadi(rV, 1)
      .db_write_fld(rV, rT, rR, ids.p_status)
      .rand(rV, 8)
      .db_write_fld(rV, rT, rR, ids.p_priority)
      .loadi(rV, kTaskTokenMagic)
      .db_write_fld(rV, rT, rR, ids.p_task_token)

      // Connection record: key + the Connection->Resource link + call data
      // (golden local copies stored alongside, Figure 8 step 2).
      .loadi(rT, C)
      .ld(rR, rZ, dConnRec)
      .addi(rV, rR, 1)
      .db_write_fld(rV, rT, rR, ids.c_connection_id)
      .ld(rS, rZ, dResRec)
      .addi(rV, rS, 1)
      .db_write_fld(rV, rT, rR, ids.c_channel_id)
      .rand(rV, 1'000'000)
      .st(rZ, dGoldCaller, rV)
      .db_write_fld(rV, rT, rR, ids.c_caller_id)
      .rand(rV, 1'000'000)
      .st(rZ, dGoldCallee, rV)
      .db_write_fld(rV, rT, rR, ids.c_callee_id)
      .loadi(rV, 1)
      .st(rZ, dGoldState, rV)
      .db_write_fld(rV, rT, rR, ids.c_state)
      .loadi(rV, 0)
      .st(rZ, dGoldFeature, rV)
      .db_write_fld(rV, rT, rR, ids.c_feature_mask)

      // Resource record: key + the Resource->Process link closing the loop.
      .loadi(rT, R)
      .ld(rR, rZ, dResRec)
      .addi(rV, rR, 1)
      .db_write_fld(rV, rT, rR, ids.r_channel_id)
      .ld(rS, rZ, dProcRec)
      .addi(rV, rS, 1)
      .db_write_fld(rV, rT, rR, ids.r_process_id)
      .loadi(rV, 1)
      .db_write_fld(rV, rT, rR, ids.r_status)
      .rand(rV, 8)
      .db_write_fld(rV, rT, rR, ids.r_capability)
      .rand(rV, 101)
      .st(rZ, dGoldPower, rV)
      .db_write_fld(rV, rT, rR, ids.r_power_level)
      .rand(rV, 4)
      .loadi(rS, 25)
      .mul(rV, rV, rS)
      .db_write_fld(rV, rT, rR, ids.r_link_quality)

      .loadi(rT, P)
      .db_txn_end(rT)
      .loadi(rT, C)
      .db_txn_end(rT)
      .loadi(rT, R)
      .db_txn_end(rT)
      .loadi(rOK, 1)
      .ret();

  b.label("setup_fail_free_pc")
      .loadi(rT, C)
      .ld(rR, rZ, dConnRec)
      .db_free(rT, rR);
  b.label("setup_fail_free_p")
      .loadi(rT, P)
      .ld(rR, rZ, dProcRec)
      .db_free(rT, rR);
  b.label("setup_fail")
      .loadi(rT, P)
      .db_txn_end(rT)
      .loadi(rT, C)
      .db_txn_end(rT)
      .loadi(rT, R)
      .db_txn_end(rT);
  b.label("setup_fail_nolock").loadi(rOK, 0).ret();

  // ---------------- supplementary features (icall targets) -------------
  b.label("feature_a")
      .loadi(rZ, 0)
      .loadi(rT, C)
      .ld(rR, rZ, dConnRec)
      .loadi(rV, 1)
      .st(rZ, dGoldFeature, rV)
      .db_write_fld(rV, rT, rR, ids.c_feature_mask)
      .ret();
  b.label("feature_b")
      .loadi(rZ, 0)
      .loadi(rT, C)
      .ld(rR, rZ, dConnRec)
      .loadi(rV, 2)
      .st(rZ, dGoldFeature, rV)
      .db_write_fld(rV, rT, rR, ids.c_feature_mask)
      .ret();

  // ---------------- golden-copy verification (Figure 8 step 5) ---------
  // A comparison only counts when the read itself succeeded: an
  // unreadable (freed) record means the call was dropped, not that the
  // client wrote bad data.
  b.label("verify")
      .loadi(rOK, 1)
      .loadi(rZ, 0)
      .loadi(rT, C)
      .ld(rR, rZ, dConnRec)
      .db_read_fld(rV, rT, rR, ids.c_caller_id)
      .bne(vm::kDbStatusReg, rZ, "v_callee")
      .ld(rS, rZ, dGoldCaller)
      .beq(rV, rS, "v_callee")
      .loadi(rOK, 0);
  b.label("v_callee")
      .db_read_fld(rV, rT, rR, ids.c_callee_id)
      .bne(vm::kDbStatusReg, rZ, "v_state")
      .ld(rS, rZ, dGoldCallee)
      .beq(rV, rS, "v_state")
      .loadi(rOK, 0);
  b.label("v_state")
      .db_read_fld(rV, rT, rR, ids.c_state)
      .bne(vm::kDbStatusReg, rZ, "v_feature")
      .ld(rS, rZ, dGoldState)
      .beq(rV, rS, "v_feature")
      .loadi(rOK, 0);
  b.label("v_feature")
      .db_read_fld(rV, rT, rR, ids.c_feature_mask)
      .bne(vm::kDbStatusReg, rZ, "v_power")
      .ld(rS, rZ, dGoldFeature)
      .beq(rV, rS, "v_power")
      .loadi(rOK, 0);
  b.label("v_power")
      .loadi(rT, R)
      .ld(rR, rZ, dResRec)
      .db_read_fld(rV, rT, rR, ids.r_power_level)
      .bne(vm::kDbStatusReg, rZ, "v_done")
      .ld(rS, rZ, dGoldPower)
      .beq(rV, rS, "v_done")
      .loadi(rOK, 0);
  b.label("v_done").ret();

  // ---------------- teardown ----------------
  b.label("teardown")
      .loadi(rZ, 0)
      .loadi(rT, R)
      .ld(rR, rZ, dResRec)
      .db_free(rT, rR)
      .loadi(rT, C)
      .ld(rR, rZ, dConnRec)
      .db_free(rT, rR)
      .loadi(rT, P)
      .ld(rR, rZ, dProcRec)
      .db_free(rT, rR)
      .ret();

  // ---------------- cold code ----------------
  // The emulated client "provides the basic call-processing service ...
  // without additional features such as call waiting or paging" (§5.1) —
  // but the binary still contains those feature handlers. They are never
  // invoked by the basic service, so errors injected into them are never
  // activated (the paper's sizeable Errors-Not-Activated fraction), and
  // inter-function padding models alignment gaps in the text segment.
  b.pad(kPaddingWords);

  b.label("feature_call_waiting")
      .loadi(rZ, 0)
      .loadi(rT, C)
      .ld(rR, rZ, dConnRec)
      .db_read_fld(rV, rT, rR, ids.c_state)
      .loadi(rS, 2)
      .bge(rV, rS, "cw_busy")
      .loadi(rV, 2)
      .db_write_fld(rV, rT, rR, ids.c_state)
      .rand(rA, 3)
      .loadi(rB, 0)
      .beq(rA, rB, "cw_tone")
      .loadi(rV, 3)
      .db_write_fld(rV, rT, rR, ids.c_feature_mask)
      .ret();
  b.label("cw_tone")
      .loadi(rV, 4)
      .db_write_fld(rV, rT, rR, ids.c_feature_mask)
      .ret();
  b.label("cw_busy").loadi(rOK, 0).ret();
  b.pad(kPaddingWords);

  b.label("feature_paging")
      .loadi(rZ, 0)
      .rand(rSub, params.num_subscribers)
      .loadi(rT, static_cast<std::int32_t>(ids.subscriber))
      .mov(rR, rSub)
      .db_read_fld(rV, rT, rR, 2)  // privileges field
      .loadi(rS, 1)
      .blt(rV, rS, "page_denied")
      .loadi(rTry, 3)
      .label("page_retry")
      .rand(rA, 100)
      .loadi(rB, 50)
      .blt(rA, rB, "page_acked")
      .addi(rTry, rTry, -1)
      .loadi(rB, 0)
      .bne(rTry, rB, "page_retry")
      .label("page_denied")
      .loadi(rOK, 0)
      .ret();
  b.label("page_acked").loadi(rOK, 1).ret();
  b.pad(kPaddingWords);

  b.label("handle_handoff")
      .loadi(rZ, 0)
      .loadi(rT, R)
      .ld(rR, rZ, dResRec)
      .db_read_fld(rV, rT, rR, ids.r_power_level)
      .loadi(rS, 20)
      .bge(rV, rS, "handoff_keep")
      // Weak signal: re-point the channel at a neighbouring cell and
      // bump the power budget.
      .loadi(rV, 80)
      .db_write_fld(rV, rT, rR, ids.r_power_level)
      .db_read_fld(rV, rT, rR, ids.r_capability)
      .loadi(rS, 1)
      .sub(rV, rV, rS)
      .loadi(rS, 0)
      .bge(rV, rS, "handoff_store")
      .loadi(rV, 0)
      .label("handoff_store")
      .db_write_fld(rV, rT, rR, ids.r_capability)
      .call("handoff_notify")
      .ret();
  b.label("handoff_keep").loadi(rOK, 1).ret();
  b.label("handoff_notify").loadi(rZ, 0).nop().nop().ret();
  b.pad(kPaddingWords);

  return std::move(b).build(/*data_words=*/64);
}

}  // namespace wtc::callproc
