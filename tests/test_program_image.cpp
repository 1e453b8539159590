// The per-campaign immutable inputs of a PECOS run: the call program's
// shared ProgramImage (text, CFG, PECOS and BSSC plans) and the pristine
// controller-database template that make_controller_database clones.
//
// An image must be one object per VmProgramParams, across runs and
// campaign workers, and must equal what Plan::instrument and
// BsscPlan::instrument build from scratch. A clone must equal a freshly
// built database in every respect, must not share storage with the
// template or with another clone, and must leave the template untouched
// however a run writes, injects into and repairs its own copy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "bench_util.hpp"
#include "callproc/vm_program.hpp"
#include "db/controller_schema.hpp"
#include "experiments/audit_runner.hpp"
#include "experiments/campaign.hpp"
#include "experiments/pecos_runner.hpp"
#include "obs/metrics.hpp"
#include "pecos/bssc.hpp"
#include "pecos/plan.hpp"

namespace wtc {
namespace {

callproc::VmProgramParams program_params(std::int32_t calls_per_thread,
                                         std::int32_t num_subscribers = 64) {
  const auto db = db::make_controller_database();
  callproc::VmProgramParams params;
  params.ids = db::resolve_controller_ids(db->schema());
  params.num_subscribers = num_subscribers;
  params.calls_per_thread = calls_per_thread;
  return params;
}

// --- (a) one image per VmProgramParams ---

TEST(ProgramImage, OneAddressPerParams) {
  const auto two = program_params(2);
  const callproc::ProgramImage* image = &callproc::call_program_image(two);
  EXPECT_EQ(&callproc::call_program_image(two), image);
  EXPECT_EQ(&callproc::call_program_image(program_params(2)), image);

  const callproc::ProgramImage* one = &callproc::call_program_image(program_params(1));
  EXPECT_NE(one, image);
  EXPECT_EQ(&callproc::call_program_image(program_params(1)), one);
  EXPECT_NE(one->program.text, image->program.text);
}

TEST(ProgramImage, CampaignWorkersShareOneImage) {
  // A key no other test requests, so the four workers race to build it.
  const auto fresh_key = program_params(2, 63);
  experiments::CampaignOptions options;
  options.jobs = 4;
  const auto seen = experiments::run_campaign(
      32, [&](std::size_t) { return &callproc::call_program_image(fresh_key); },
      options);
  const std::set<const callproc::ProgramImage*> distinct(seen.begin(), seen.end());
  EXPECT_EQ(distinct.size(), 1u);
  EXPECT_EQ(*distinct.begin(), &callproc::call_program_image(fresh_key));

  // run_pecos_single's own key: a --jobs=4 campaign leaves it where it was
  // and produces the same outcomes as a serial one.
  const auto run_key = program_params(experiments::PecosRunParams{}.calls_per_thread,
                                      static_cast<std::int32_t>(
                                          db::ControllerSchemaParams{}.subscriber_records));
  const callproc::ProgramImage* before = &callproc::call_program_image(run_key);
  experiments::PecosRunParams params;
  params.injector.target = inject::InjectTarget::DirectedCFI;
  experiments::set_default_campaign_jobs(4);
  const auto parallel = experiments::run_pecos_campaign(params, 3);
  experiments::set_default_campaign_jobs(1);
  const auto serial = experiments::run_pecos_campaign(params, 3);
  experiments::set_default_campaign_jobs(0);
  EXPECT_EQ(parallel.by_outcome, serial.by_outcome);
  EXPECT_EQ(&callproc::call_program_image(run_key), before);
}

// --- (b) the image equals a fresh instrumentation ---

void expect_same_cfg(const vm::Cfg& got, const vm::Cfg& want, std::uint32_t size) {
  EXPECT_EQ(got.leaders(), want.leaders());
  EXPECT_EQ(got.block_count(), want.block_count());
  ASSERT_EQ(got.cfis().size(), want.cfis().size());
  for (std::size_t i = 0; i < want.cfis().size(); ++i) {
    const vm::CfiInfo& g = got.cfis()[i];
    const vm::CfiInfo& w = want.cfis()[i];
    EXPECT_EQ(g.site, w.site);
    EXPECT_EQ(g.kind, w.kind);
    EXPECT_EQ(g.icall_reg, w.icall_reg);
    EXPECT_EQ(g.block_leader, w.block_leader);
    EXPECT_TRUE(std::ranges::equal(g.static_targets(), w.static_targets()));
  }
  for (std::uint32_t pc = 0; pc < size + 4; ++pc) {
    EXPECT_EQ(got.leader_of(pc), want.leader_of(pc)) << "pc " << pc;
    EXPECT_EQ(got.is_leader(pc), want.is_leader(pc)) << "pc " << pc;
    EXPECT_EQ(got.cfi_at(pc) == nullptr, want.cfi_at(pc) == nullptr) << "pc " << pc;
  }
}

TEST(ProgramImage, EqualsAFreshInstrumentation) {
  for (const std::int32_t calls : {1, 2}) {
    const auto params = program_params(calls);
    const callproc::ProgramImage& image = callproc::call_program_image(params);
    const vm::Program program = callproc::build_call_program(params);
    EXPECT_EQ(image.program.text, program.text);
    EXPECT_EQ(image.program.entry, program.entry);
    EXPECT_EQ(image.program.data_words, program.data_words);

    const pecos::Plan plan = pecos::Plan::instrument(program);
    expect_same_cfg(image.cfg(), plan.cfg(), program.size());
    EXPECT_EQ(image.plan.assertion_count(), plan.assertion_count());
    EXPECT_EQ(image.plan.return_points(), plan.return_points());
    for (std::uint32_t pc = 0; pc < program.size() + 4; ++pc) {
      const pecos::Assertion* g = image.plan.assertion_at(pc);
      const pecos::Assertion* w = plan.assertion_at(pc);
      ASSERT_EQ(g == nullptr, w == nullptr) << "pc " << pc;
      if (w == nullptr) {
        continue;
      }
      EXPECT_EQ(g->kind, w->kind);
      EXPECT_EQ(g->site, w->site);
      EXPECT_EQ(g->block_leader, w->block_leader);
      EXPECT_EQ(g->icall_reg, w->icall_reg);
      EXPECT_TRUE(std::ranges::equal(g->valid_targets, w->valid_targets));
      // The targets are views into the image's own plan, not a temporary.
      if (!w->valid_targets.empty()) {
        EXPECT_NE(g->valid_targets.data(), w->valid_targets.data());
      }
    }

    const pecos::BsscPlan bssc = pecos::BsscPlan::instrument(program);
    expect_same_cfg(image.bssc.cfg(), bssc.cfg(), program.size());
    ASSERT_EQ(image.bssc.block_count(), bssc.block_count());
    for (const std::uint32_t leader : bssc.cfg().leaders()) {
      const auto* g = image.bssc.block_at(leader);
      const auto* w = bssc.block_at(leader);
      ASSERT_NE(g, nullptr);
      ASSERT_NE(w, nullptr);
      EXPECT_EQ(g->leader, w->leader);
      EXPECT_EQ(g->end, w->end);
      EXPECT_EQ(g->golden_signature, w->golden_signature);
    }
  }
}

// --- (c) a template clone equals a fresh build ---

std::unique_ptr<db::Database> fresh_database(const db::ControllerSchemaParams& params) {
  return std::make_unique<db::Database>(db::make_controller_schema(params),
                                        db::populate_controller_static_data);
}

void expect_same_database(const db::Database& got, const db::Database& want) {
  ASSERT_EQ(got.table_count(), want.table_count());
  EXPECT_TRUE(std::ranges::equal(got.region(), want.region()));
  EXPECT_TRUE(std::ranges::equal(got.pristine(), want.pristine()));
  EXPECT_NE(got.region().data(), got.pristine().data());
  EXPECT_EQ(got.layout().region_size(), want.layout().region_size());
  EXPECT_EQ(got.write_generation(), 0u);
  EXPECT_TRUE(got.held_locks().empty());
  EXPECT_EQ(got.observer(), nullptr);
  EXPECT_EQ(got.index_cross_check(), want.index_cross_check());
  for (db::TableId t = 0; t < want.table_count(); ++t) {
    const auto& gs = got.schema().tables[t];
    const auto& ws = want.schema().tables[t];
    EXPECT_EQ(gs.name, ws.name);
    EXPECT_EQ(gs.dynamic, ws.dynamic);
    EXPECT_EQ(gs.num_records, ws.num_records);
    ASSERT_EQ(gs.fields.size(), ws.fields.size());
    for (std::size_t f = 0; f < ws.fields.size(); ++f) {
      EXPECT_EQ(gs.fields[f].name, ws.fields[f].name);
      EXPECT_EQ(gs.fields[f].kind, ws.fields[f].kind);
      EXPECT_EQ(gs.fields[f].role, ws.fields[f].role);
      EXPECT_EQ(gs.fields[f].ref_table, ws.fields[f].ref_table);
      EXPECT_EQ(gs.fields[f].range_min, ws.fields[f].range_min);
      EXPECT_EQ(gs.fields[f].range_max, ws.fields[f].range_max);
      EXPECT_EQ(gs.fields[f].default_value, ws.fields[f].default_value);
    }
    const auto& gl = got.layout().table(t);
    const auto& wl = want.layout().table(t);
    EXPECT_EQ(gl.offset, wl.offset);
    EXPECT_EQ(gl.record_size, wl.record_size);
    EXPECT_EQ(gl.num_fields, wl.num_fields);
    EXPECT_EQ(gl.first_field_index, wl.first_field_index);

    EXPECT_TRUE(got.verify_index(t)) << "table " << t;
    EXPECT_TRUE(got.index(t) == want.index(t)) << "table " << t;
    EXPECT_FALSE(got.lock_info(t).has_value());
    EXPECT_EQ(got.table_generation(t), 0u);
    EXPECT_EQ(got.table_header_generation(t), 0u);
    EXPECT_EQ(got.table_field_generation(t), 0u);
    const auto& gst = got.table_stats(t);
    const auto& wst = want.table_stats(t);
    EXPECT_EQ(gst.reads, wst.reads);
    EXPECT_EQ(gst.writes, wst.writes);
    EXPECT_EQ(gst.errors_detected_total, wst.errors_detected_total);
    EXPECT_EQ(gst.errors_last_cycle, wst.errors_last_cycle);
    for (db::RecordIndex r = 0; r < ws.num_records; ++r) {
      const auto& gm = got.record_meta(t, r);
      const auto& wm = want.record_meta(t, r);
      EXPECT_EQ(gm.last_writer, wm.last_writer);
      EXPECT_EQ(gm.last_writer_thread, wm.last_writer_thread);
      EXPECT_EQ(gm.last_access, wm.last_access);
      EXPECT_EQ(gm.access_count, wm.access_count);
      EXPECT_EQ(got.record_generation(t, r), 0u);
      EXPECT_EQ(got.header_generation(t, r), 0u);
      EXPECT_EQ(got.field_generation(t, r), 0u);
      EXPECT_EQ(got.scrub_generation(t, r), 0u);
    }
  }
}

std::vector<db::ControllerSchemaParams> schemas() {
  db::ControllerSchemaParams odd;
  odd.process_records = 5;
  odd.connection_records = 7;
  odd.resource_records = 33;
  odd.config_records = 3;
  odd.subscriber_records = 9;
  return {db::ControllerSchemaParams{}, bench::table2_params().schema, odd};
}

TEST(DatabaseTemplate, CloneEqualsAFreshBuild) {
  for (const auto& params : schemas()) {
    const auto want = fresh_database(params);
    const auto first = db::make_controller_database(params);
    expect_same_database(*first, *want);
    // Scribble over the first clone. The second, cloned from the now
    // memoized template, must not see it: a clone that shared storage
    // with the template or with another clone would.
    std::ranges::fill(first->region(), std::byte{0x5A});
    first->note_write(0, first->region().size());
    const auto second = db::make_controller_database(params);
    EXPECT_NE(second->region().data(), first->region().data());
    expect_same_database(*second, *want);
  }
}

TEST(DatabaseTemplate, CloneCountsItsOwnIndexRebuilds) {
  // A clone rebuilds every shadow index from its copied region, as the
  // constructor does, and counts each rebuild; building the template
  // counts nothing against the run that happens to request it first.
  db::ControllerSchemaParams params;
  params.subscriber_records = 17;  // a template no other test builds
  for (int i = 0; i < 2; ++i) {
    obs::Recorder recorder;
    std::unique_ptr<db::Database> db;
    {
      const obs::ScopedRecorder scope(recorder);
      db = db::make_controller_database(params);
    }
    EXPECT_EQ(recorder.snapshot().counter(obs::Counter::db_index_rebuilds),
              db->table_count());
  }
}

// --- (d) runs leave the template untouched ---

TEST(DatabaseTemplate, AnInjectedAndRepairedRunLeavesTheTemplateUntouched) {
  auto params = bench::table2_params();
  params.duration = 400 * static_cast<sim::Duration>(sim::kSecond);
  params.audits_enabled = true;
  params.injections_enabled = true;
  const auto result = experiments::run_audit_experiment(params);
  ASSERT_FALSE(result.injections.empty());
  ASSERT_GT(result.audit_findings, 0u);
  expect_same_database(*db::make_controller_database(params.schema),
                       *fresh_database(params.schema));

  experiments::PecosRunParams pecos;
  pecos.injector.target = inject::InjectTarget::DirectedCFI;
  pecos.cf_attest = true;
  pecos.heal = true;
  (void)experiments::run_pecos_single(pecos);
  expect_same_database(*db::make_controller_database(),
                       *fresh_database(db::ControllerSchemaParams{}));
}

}  // namespace
}  // namespace wtc
