// The flat per-pc tables of vm::Cfg and pecos::Plan against a reference
// model: sorted leaders searched with std::upper_bound and a CFI map built
// by scanning the text, as the analysis did before it kept tables. Checked
// over the call-processing program, over every minivm fuzz-corpus input's
// overlaid text and over random overlays, whose corrupted targets reach
// far past the text, for pcs in [0, size + 4) and 0xFFFFFFFF.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "callproc/vm_program.hpp"
#include "common/rng.hpp"
#include "db/controller_schema.hpp"
#include "fuzz/harness.hpp"
#include "pecos/plan.hpp"
#include "vm/builder.hpp"
#include "vm/cfg.hpp"

namespace wtc {
namespace {

/// What the reference knows about one CFI site.
struct RefCfi {
  vm::CfiKind kind = vm::CfiKind::Jump;
  std::vector<std::uint32_t> targets;  // static targets, in Cfg order
  std::uint8_t icall_reg = 0;
};

struct Reference {
  explicit Reference(const vm::Program& program) {
    leaders.push_back(program.entry);
    const auto note = [&](std::uint32_t pc) {
      if (pc < program.size()) {
        leaders.push_back(pc);
      }
    };
    for (std::uint32_t pc = 0; pc < program.size(); ++pc) {
      const vm::Instr instr = vm::decode(program.text[pc]);
      if (!vm::is_cfi(instr.op)) {
        continue;
      }
      RefCfi cfi;
      const auto imm = static_cast<std::uint32_t>(instr.imm);
      switch (instr.op) {
        case vm::Opcode::Jmp: cfi = {vm::CfiKind::Jump, {imm}, 0}; break;
        case vm::Opcode::Call: cfi = {vm::CfiKind::Call, {imm}, 0}; break;
        case vm::Opcode::ICall: cfi = {vm::CfiKind::IndirectCall, {}, instr.ra}; break;
        case vm::Opcode::Ret: cfi = {vm::CfiKind::Ret, {}, 0}; break;
        default: cfi = {vm::CfiKind::Branch, {imm, pc + 1}, 0}; break;
      }
      for (const std::uint32_t target : cfi.targets) {
        note(target);
      }
      note(pc + 1);
      if (cfi.kind == vm::CfiKind::Call || cfi.kind == vm::CfiKind::IndirectCall) {
        return_points.push_back(pc + 1);
      }
      cfis.emplace(pc, cfi);
    }
    std::sort(leaders.begin(), leaders.end());
    leaders.erase(std::unique(leaders.begin(), leaders.end()), leaders.end());
  }

  [[nodiscard]] std::uint32_t leader_of(std::uint32_t pc) const {
    const auto it = std::upper_bound(leaders.begin(), leaders.end(), pc);
    return it == leaders.begin() ? 0 : *(it - 1);
  }
  [[nodiscard]] bool is_leader(std::uint32_t pc) const {
    return std::binary_search(leaders.begin(), leaders.end(), pc);
  }

  std::vector<std::uint32_t> leaders;
  std::map<std::uint32_t, RefCfi> cfis;
  std::vector<std::uint32_t> return_points;
};

std::vector<std::uint32_t> probe_pcs(const vm::Program& program) {
  std::vector<std::uint32_t> pcs;
  for (std::uint32_t pc = 0; pc < program.size() + 4; ++pc) {
    pcs.push_back(pc);
  }
  pcs.push_back(0xFFFFFFFFu);
  return pcs;
}

std::vector<std::uint32_t> as_vector(std::span<const std::uint32_t> span) {
  return {span.begin(), span.end()};
}

void expect_cfg_matches(const vm::Program& program, const vm::Cfg& cfg,
                        const std::string& what) {
  const Reference ref(program);
  EXPECT_EQ(cfg.leaders(), ref.leaders) << what;
  ASSERT_EQ(cfg.cfis().size(), ref.cfis.size()) << what;
  for (const std::uint32_t pc : probe_pcs(program)) {
    SCOPED_TRACE(what + " pc " + std::to_string(pc));
    EXPECT_EQ(cfg.leader_of(pc), ref.leader_of(pc));
    EXPECT_EQ(cfg.is_leader(pc), ref.is_leader(pc));
    const vm::CfiInfo* cfi = cfg.cfi_at(pc);
    const auto it = ref.cfis.find(pc);
    ASSERT_EQ(cfi != nullptr, it != ref.cfis.end());
    if (cfi == nullptr) {
      continue;
    }
    EXPECT_EQ(cfi->site, pc);
    EXPECT_EQ(cfi->kind, it->second.kind);
    EXPECT_EQ(as_vector(cfi->static_targets()), it->second.targets);
    EXPECT_EQ(cfi->icall_reg, it->second.icall_reg);
    EXPECT_EQ(cfi->block_leader, ref.leader_of(pc));
  }
}

void expect_plan_matches(const vm::Program& program, const pecos::Plan& plan,
                         const std::string& what) {
  const Reference ref(program);
  expect_cfg_matches(program, plan.cfg(), what);
  EXPECT_EQ(plan.assertion_count(), ref.cfis.size()) << what;
  EXPECT_EQ(plan.return_points(), ref.return_points) << what;
  for (const std::uint32_t pc : probe_pcs(program)) {
    SCOPED_TRACE(what + " pc " + std::to_string(pc));
    const pecos::Assertion* assertion = plan.assertion_at(pc);
    const auto it = ref.cfis.find(pc);
    ASSERT_EQ(assertion != nullptr, it != ref.cfis.end());
    if (assertion == nullptr) {
      continue;
    }
    EXPECT_EQ(assertion->site, pc);
    EXPECT_EQ(assertion->kind, it->second.kind);
    EXPECT_EQ(assertion->block_leader, ref.leader_of(pc));
    EXPECT_EQ(assertion->icall_reg, it->second.icall_reg);
    const std::vector<std::uint32_t> expected =
        it->second.kind == vm::CfiKind::Ret ? ref.return_points : it->second.targets;
    EXPECT_EQ(as_vector(assertion->valid_targets), expected);
    // The view is into this plan's own storage, never another plan's.
    if (it->second.kind == vm::CfiKind::Ret) {
      EXPECT_EQ(assertion->valid_targets.data(), plan.return_points().data());
    } else if (it->second.kind != vm::CfiKind::IndirectCall) {
      EXPECT_EQ(assertion->valid_targets.data(), plan.cfg().cfi_at(pc)->targets.data());
    }
  }
}

/// The plan, and copies and moves of it whose source is gone by the time
/// they are checked, all answer as the reference does.
void expect_plan_and_copies_match(const vm::Program& program,
                                  const std::string& what) {
  const pecos::Plan plan = pecos::Plan::instrument(program);
  expect_plan_matches(program, plan, what);

  auto source = std::make_unique<pecos::Plan>(pecos::Plan::instrument(program));
  const pecos::Plan copied(*source);
  pecos::Plan copy_assigned;
  copy_assigned = *source;
  pecos::Plan moved(std::move(*source));
  source.reset();
  pecos::Plan move_assigned;
  move_assigned = std::move(moved);
  expect_plan_matches(program, copied, what + " (copied)");
  expect_plan_matches(program, copy_assigned, what + " (copy-assigned)");
  expect_plan_matches(program, move_assigned, what + " (moved)");
}

TEST(CfgTables, CallProgramMatchesReference) {
  const auto db = db::make_controller_database();
  callproc::VmProgramParams params;
  params.ids = db::resolve_controller_ids(db->schema());
  const vm::Program program = callproc::build_call_program(params);
  EXPECT_EQ(program.size(), 332u);  // the text the per-pc tables are sized by
  expect_cfg_matches(program, vm::Cfg::analyze(program), "call program");
  expect_plan_and_copies_match(program, "call program");
}

/// The minivm harness program with `input`'s overlays written into it.
vm::Program overlaid(const vm::Program& pristine, const std::vector<std::uint8_t>& input) {
  vm::Program program = pristine;
  (void)fuzz::overlay_minivm_text(program.text, input.data(), input.size());
  return program;
}

/// Checks `program` against the reference; true if a static target of it
/// lies past the text.
bool expect_overlay_matches(const vm::Program& program, const std::string& what) {
  const vm::Cfg cfg = vm::Cfg::analyze(program);
  bool beyond_text = false;
  for (const vm::CfiInfo& cfi : cfg.cfis()) {
    for (const std::uint32_t target : cfi.static_targets()) {
      beyond_text = beyond_text || target >= program.size();
    }
  }
  expect_cfg_matches(program, cfg, what);
  expect_plan_and_copies_match(program, what);
  return beyond_text;
}

TEST(CfgTables, MinivmOverlaysMatchReference) {
  const auto db = db::make_controller_database(fuzz::harness_schema_params());
  const vm::Program pristine =
      fuzz::harness_program(db::resolve_controller_ids(db->schema()));
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(WTC_FUZZ_CORPUS_DIR) / "minivm")) {
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  bool corpus_beyond_text = false;
  for (const auto& file : files) {
    std::ifstream in(file, std::ios::binary);
    const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
    corpus_beyond_text |= expect_overlay_matches(
        overlaid(pristine, {bytes.begin(), bytes.end()}), file.filename().string());
  }
  EXPECT_TRUE(corpus_beyond_text);  // seed-jump-oob jumps past the text

  // Random overlays: whole random words, so most CFIs they make have
  // targets far outside the text.
  common::Rng rng(0xCF6);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint8_t> input(1 + 9 * (1 + rng.uniform(16)));
    for (auto& byte : input) {
      byte = static_cast<std::uint8_t>(rng.uniform(256));
    }
    (void)expect_overlay_matches(overlaid(pristine, input),
                                 "random overlay " + std::to_string(round));
  }
}

TEST(CfgTables, EntryBeyondTextIsALeader) {
  vm::ProgramBuilder b;
  b.nop().jmp("end").nop().label("end").halt();
  vm::Program program = std::move(b).build();
  program.entry = program.size() + 2;
  const vm::Cfg cfg = vm::Cfg::analyze(program);
  EXPECT_TRUE(cfg.is_leader(program.entry));
  EXPECT_EQ(cfg.leader_of(program.entry + 1), program.entry);
  EXPECT_FALSE(cfg.is_leader(0));  // no leader below the jump's block
  EXPECT_EQ(cfg.leader_of(0), 0u);
  expect_cfg_matches(program, cfg, "entry beyond text");
  expect_plan_and_copies_match(program, "entry beyond text");
}

}  // namespace
}  // namespace wtc
