// Whole-run op-log record/replay: the on-disk format round-trip (and its
// trust-boundary rejections), the deduplicated replay audit, and the
// zero-simulation workload engine's byte-identity.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "audit/engine.hpp"
#include "audit/replay.hpp"
#include "common/crc32.hpp"
#include "db/api.hpp"
#include "db/controller_schema.hpp"
#include "db/run_op_log.hpp"
#include "experiments/audit_runner.hpp"
#include "experiments/campaign.hpp"
#include "experiments/replay_workload.hpp"

namespace wtc {
namespace {

/// A pristine controller DB with an instrumented single-client API and a
/// RunOpLog tee — the replay validity baseline.
struct Fixture {
  std::unique_ptr<db::Database> database = db::make_controller_database();
  db::ControllerIds ids = db::resolve_controller_ids(database->schema());
  db::RunOpLog oplog;
  sim::Time now = 0;
  db::DbApi api{*database, [this]() { return now; }};

  Fixture() {
    api.set_audit_hooks(&oplog);
    api.init(1);
  }

  /// One call lifecycle; `keep` leaves the triple active (and returns the
  /// records through the out params).
  void call(std::int32_t codec, bool keep = false, db::RecordIndex* out_conn = nullptr,
            db::RecordIndex* out_res = nullptr) {
    db::RecordIndex p = 0, c = 0, r = 0;
    ASSERT_EQ(api.alloc_rec(ids.process, db::kGroupActiveCalls, p),
              db::Status::Ok);
    ASSERT_EQ(api.alloc_rec(ids.connection, db::kGroupActiveCalls, c),
              db::Status::Ok);
    ASSERT_EQ(api.alloc_rec(ids.resource, db::kGroupActiveCalls, r),
              db::Status::Ok);
    now += static_cast<sim::Time>(sim::kMillisecond);
    api.write_fld(ids.process, p, ids.p_process_id, db::key_of(p));
    api.write_fld(ids.process, p, ids.p_connection_id, db::key_of(c));
    api.write_fld(ids.connection, c, ids.c_connection_id, db::key_of(c));
    api.write_fld(ids.connection, c, ids.c_channel_id, db::key_of(r));
    api.write_fld(ids.connection, c, ids.c_codec, codec);
    api.write_fld(ids.resource, r, ids.r_channel_id, db::key_of(r));
    api.write_fld(ids.resource, r, ids.r_process_id, db::key_of(p));
    api.move_rec(ids.process, p, db::kGroupStableCalls);
    now += static_cast<sim::Time>(sim::kMillisecond);
    if (keep) {
      if (out_conn != nullptr) *out_conn = c;
      if (out_res != nullptr) *out_res = r;
      return;
    }
    api.free_rec(ids.resource, r);
    api.free_rec(ids.connection, c);
    api.free_rec(ids.process, p);
  }
};

void expect_events_equal(const std::vector<db::ApiEvent>& a,
                         const std::vector<db::ApiEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].op, b[i].op) << "event " << i;
    EXPECT_EQ(a[i].client, b[i].client) << "event " << i;
    EXPECT_EQ(a[i].table, b[i].table) << "event " << i;
    EXPECT_EQ(a[i].record, b[i].record) << "event " << i;
    EXPECT_EQ(a[i].time, b[i].time) << "event " << i;
    EXPECT_EQ(a[i].is_update, b[i].is_update) << "event " << i;
    EXPECT_EQ(a[i].status, b[i].status) << "event " << i;
    EXPECT_EQ(a[i].thread, b[i].thread) << "event " << i;
    EXPECT_EQ(a[i].group, b[i].group) << "event " << i;
    EXPECT_EQ(a[i].field, b[i].field) << "event " << i;
    EXPECT_EQ(a[i].payload_len, b[i].payload_len) << "event " << i;
    for (std::uint8_t f = 0; f < a[i].payload_len; ++f) {
      EXPECT_EQ(a[i].payload[f], b[i].payload[f]) << "event " << i;
    }
  }
}

// --- on-disk format -------------------------------------------------------

TEST(OpLogFormat, InMemoryRoundTrip) {
  Fixture fx;
  for (int call = 0; call < 7; ++call) {
    fx.call(call % 3);
  }
  fx.api.close();
  ASSERT_GT(fx.oplog.recorded(), 0u);

  const std::vector<std::uint8_t> bytes = fx.oplog.serialize();
  const db::OpLogReadResult decoded = db::decode_op_log(bytes);
  ASSERT_TRUE(decoded.ok()) << db::to_string(decoded.error);
  expect_events_equal(fx.oplog.events(), decoded.events);
}

TEST(OpLogFormat, StreamingWriterMatchesSerialize) {
  const std::string path = "test_oplog_stream.oplog";
  Fixture fx;
  // The writer streams events recorded from open_file on — the fixture's
  // DBinit predates it and stays in-memory only.
  ASSERT_TRUE(fx.oplog.open_file(path));
  // Cross several chunk boundaries (chunk_events defaults to 1024).
  for (int call = 0; call < 300; ++call) {
    fx.call(call % 5);
  }
  fx.api.close();
  ASSERT_TRUE(fx.oplog.close_file());

  const db::OpLogReadResult decoded = db::load_op_log(path);
  ASSERT_TRUE(decoded.ok()) << db::to_string(decoded.error);
  const std::vector<db::ApiEvent> streamed(fx.oplog.events().begin() + 1,
                                           fx.oplog.events().end());
  expect_events_equal(streamed, decoded.events);
  std::remove(path.c_str());
}

TEST(OpLogFormat, HeaderOnlyIsEmpty) {
  db::RunOpLog empty;
  const db::OpLogReadResult decoded = db::decode_op_log(empty.serialize());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.events.empty());
}

TEST(OpLogFormat, RejectsBadMagicTruncationAndBadCrc) {
  Fixture fx;
  fx.call(1);
  fx.api.close();
  const std::vector<std::uint8_t> bytes = fx.oplog.serialize();
  ASSERT_GT(bytes.size(), 24u);

  auto bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  EXPECT_EQ(db::decode_op_log(bad_magic).error, db::OpLogError::BadMagic);

  // Truncation anywhere — inside the header, a chunk frame, or the
  // payload — must yield Truncated (or BadMagic for a cut header), and
  // never events from the damaged tail.
  for (const std::size_t keep :
       {bytes.size() - 1, bytes.size() - 5, std::size_t{14}, std::size_t{6}}) {
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() + static_cast<long>(keep));
    const db::OpLogReadResult result = db::decode_op_log(cut);
    EXPECT_FALSE(result.ok()) << "kept " << keep;
    EXPECT_TRUE(result.events.empty()) << "kept " << keep;
  }

  auto bad_crc = bytes;
  bad_crc.back() ^= 0x01;  // last payload byte
  const db::OpLogReadResult result = db::decode_op_log(bad_crc);
  EXPECT_EQ(result.error, db::OpLogError::BadCrc);
  EXPECT_TRUE(result.events.empty());
}

/// A log image: the file header, then one chunk per payload, each framed
/// with its true length and CRC, so the decoder gets past the frame and
/// meets whatever the payload holds.
std::vector<std::uint8_t> framed_log(
    const std::vector<std::pair<std::vector<std::uint8_t>, std::uint32_t>>& chunks) {
  std::vector<std::uint8_t> out;
  const auto put32 = [&out](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  put32(db::kOpLogMagic);
  put32(db::kOpLogVersion);
  for (const auto& [payload, events] : chunks) {
    put32(static_cast<std::uint32_t>(payload.size()));
    put32(events);
    put32(common::crc32(std::as_bytes(std::span(payload))));
    out.insert(out.end(), payload.begin(), payload.end());
  }
  return out;
}

/// Header (8 bytes) plus one chunk frame (12 bytes): where the first
/// chunk's payload starts.
constexpr std::size_t kFirstPayload = 20;

void expect_error(const std::vector<std::uint8_t>& bytes, db::OpLogError error,
                  std::size_t offset, const char* what) {
  const db::OpLogReadResult result = db::decode_op_log(bytes);
  EXPECT_EQ(result.error, error) << what << ": " << db::to_string(result.error);
  EXPECT_EQ(result.error_offset, offset) << what;
  EXPECT_TRUE(result.events.empty()) << what;
}

TEST(OpLogFormat, EveryDecoderErrorIsTypedWithItsOffset) {
  // One valid event: Alloc, Ok, update; dt 0, client 1, thread 0, table 2,
  // record 3, group 1, field 0, two payload words (zigzag 4 -> 2, 6 -> 3).
  const std::vector<std::uint8_t> good = {
      static_cast<std::uint8_t>(db::ApiOp::Alloc), 0, 1, 0, 1, 0, 2, 3, 1, 0, 2, 4, 6};
  {
    const db::OpLogReadResult ok = db::decode_op_log(framed_log({{good, 1}}));
    ASSERT_TRUE(ok.ok()) << db::to_string(ok.error);
    ASSERT_EQ(ok.events.size(), 1u);
    EXPECT_EQ(ok.events[0].payload[1], 3);
  }

  // The file header.
  expect_error({0x57, 0x4F, 0x50}, db::OpLogError::Truncated, 3, "short header");
  auto bad_version = framed_log({});
  bad_version[4] ^= 0x02;
  expect_error(bad_version, db::OpLogError::BadMagic, 0, "bad version");

  // Truncated inside a chunk header, and inside a chunk's declared payload.
  auto cut_frame = framed_log({{good, 1}});
  cut_frame.resize(8 + 5);
  expect_error(cut_frame, db::OpLogError::Truncated, 8, "cut chunk header");
  auto cut_payload = framed_log({{good, 1}});
  cut_payload.pop_back();
  expect_error(cut_payload, db::OpLogError::Truncated, kFirstPayload, "cut payload");

  // Range-invalid op, status and flags bytes: rejected after the three.
  auto bad_op = good;
  bad_op[0] = static_cast<std::uint8_t>(db::ApiOp::TxnEnd) + 1;
  expect_error(framed_log({{bad_op, 1}}), db::OpLogError::BadEvent,
               kFirstPayload + 3, "op out of range");
  auto bad_status = good;
  bad_status[1] = static_cast<std::uint8_t>(db::Status::BadGroup) + 1;
  expect_error(framed_log({{bad_status, 1}}), db::OpLogError::BadEvent,
               kFirstPayload + 3, "status out of range");
  auto bad_flags = good;
  bad_flags[2] = 0x02;
  expect_error(framed_log({{bad_flags, 1}}), db::OpLogError::BadEvent,
               kFirstPayload + 3, "unknown flag");

  // payload_len 9 > 8: rejected once the eight varints are read.
  auto long_payload = good;
  long_payload.resize(10);
  long_payload.push_back(9);
  expect_error(framed_log({{long_payload, 1}}), db::OpLogError::BadEvent,
               kFirstPayload + long_payload.size(), "payload_len > 8");
  // An out-of-range id (table > 0xFFFF: varint 0x80 0x80 0x04).
  const std::vector<std::uint8_t> wide_table = {0, 0, 0,    0, 1, 0, 0x80,
                                                0x80, 0x04, 3, 1, 0, 0};
  expect_error(framed_log({{wide_table, 1}}), db::OpLogError::BadEvent,
               kFirstPayload + wide_table.size(), "table id out of range");
  // A payload word beyond int32 (zigzag 2^33).
  const std::vector<std::uint8_t> wide_word = {
      static_cast<std::uint8_t>(db::ApiOp::Alloc), 0, 1, 0, 1, 0, 2, 3, 1, 0, 2,
      1, 0x80, 0x80, 0x80, 0x80, 0x20};
  expect_error(framed_log({{wide_word, 1}}), db::OpLogError::BadEvent,
               kFirstPayload + wide_word.size(), "payload word beyond int32");

  // Truncated inside an event, CRC-valid: before the three fixed bytes,
  // inside the varints, inside the payload words, and in a runaway varint.
  expect_error(framed_log({{{0, 0}, 1}}), db::OpLogError::Truncated,
               kFirstPayload, "event cut in its fixed bytes");
  const std::vector<std::uint8_t> cut_ids(good.begin(), good.begin() + 5);
  expect_error(framed_log({{cut_ids, 1}}), db::OpLogError::Truncated,
               kFirstPayload + cut_ids.size(), "event cut in its ids");
  const std::vector<std::uint8_t> cut_words(good.begin(), good.end() - 1);
  expect_error(framed_log({{cut_words, 1}}), db::OpLogError::Truncated,
               kFirstPayload + cut_words.size(), "event cut in its payload");
  // Fixed bytes, then a time delta of ten continuation bytes.
  const std::vector<std::uint8_t> runaway = {0,    0,    0,    0xFF, 0xFF, 0xFF, 0xFF,
                                             0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
  expect_error(framed_log({{runaway, 1}}), db::OpLogError::Truncated,
               kFirstPayload + runaway.size(), "runaway varint");

  // A chunk whose events end before its payload does: a framing lie.
  auto trailing = good;
  trailing.push_back(0);
  expect_error(framed_log({{trailing, 1}}), db::OpLogError::BadEvent,
               kFirstPayload + good.size(), "trailing payload bytes");
  // An error in a later chunk drops the earlier chunk's events too.
  const std::size_t second_payload = kFirstPayload + good.size() + 12;
  expect_error(framed_log({{good, 1}, {bad_op, 1}}), db::OpLogError::BadEvent,
               second_payload + 3, "error in the second chunk");
}

TEST(OpLogFormat, AChunkHeaderCountNeverSizesTheEventBuffer) {
  // One valid event (13 bytes), framed under a CRC-valid chunk header
  // that claims 0xFFFFFFFF events.
  const std::vector<std::uint8_t> one = {
      static_cast<std::uint8_t>(db::ApiOp::Alloc), 0, 1, 0, 1, 0, 2, 3, 1, 0, 2, 4, 6};
  const std::vector<std::uint8_t> bytes = framed_log({{one, 0xFFFFFFFFu}});
  const db::OpLogReadResult result = db::decode_op_log(bytes);
  EXPECT_EQ(result.error, db::OpLogError::Truncated) << db::to_string(result.error);
  EXPECT_EQ(result.error_offset, kFirstPayload + one.size());
  EXPECT_TRUE(result.events.empty());
  // Every encoded event takes at least 11 payload bytes, so no log of
  // this size can hold more events than that.
  EXPECT_LE(result.events.capacity(), (bytes.size() - 8) / 11);
}

TEST(OpLogFormat, WorstCaseEventsReEncodeByteIdentical) {
  // Every field at its widest varint: a 10-byte time delta, 5-byte ids,
  // 3-byte table and field, and eight 5-byte payload words.
  db::ApiEvent widest;
  widest.op = db::ApiOp::TxnEnd;
  widest.status = db::Status::BadGroup;
  widest.is_update = true;
  widest.time = sim::Time{1} << 63;  // delta from 0 is INT64_MIN
  widest.client = 0xFFFFFFFFu;
  widest.thread = 0xFFFFFFFFu;
  widest.table = 0xFFFF;
  widest.record = 0xFFFFFFFFu;
  widest.group = 0xFFFFFFFFu;
  widest.field = 0xFFFF;
  widest.payload_len = 8;
  for (std::size_t f = 0; f < widest.payload.size(); ++f) {
    widest.payload[f] = f % 2 == 0 ? INT32_MIN : INT32_MAX;
  }
  db::ApiEvent empty;  // payload_len 0, time back to 0: delta -2^63 again
  empty.op = db::ApiOp::Free;
  empty.record = 7;
  db::ApiEvent narrow = widest;
  narrow.time = 5;
  narrow.payload_len = 1;
  narrow.payload = {INT32_MAX};

  std::vector<std::uint8_t> payload;
  sim::Time last_time = 0;
  db::encode_op_log_event(payload, widest, last_time);
  EXPECT_EQ(payload.size(), 80u);  // the encoder's per-event bound
  db::encode_op_log_event(payload, empty, last_time);
  db::encode_op_log_event(payload, narrow, last_time);
  db::encode_op_log_event(payload, widest, last_time);

  const std::vector<std::uint8_t> bytes = framed_log({{payload, 4}});
  const db::OpLogReadResult decoded = db::decode_op_log(bytes);
  ASSERT_TRUE(decoded.ok()) << db::to_string(decoded.error);
  expect_events_equal({widest, empty, narrow, widest}, decoded.events);

  std::vector<std::uint8_t> again;
  last_time = 0;
  for (const db::ApiEvent& event : decoded.events) {
    db::encode_op_log_event(again, event, last_time);
  }
  EXPECT_EQ(again, payload);
}

TEST(OpLogFormat, WritersReportAnUnopenablePath) {
  const std::string path = "no_such_dir/out.oplog";
  db::OpLogWriter writer(path);
  EXPECT_FALSE(writer.ok());
  writer.add(db::ApiEvent{});  // dropped: there is no file
  EXPECT_EQ(writer.bytes_written(), 0u);
  EXPECT_FALSE(writer.close());

  db::RunOpLog log;
  EXPECT_FALSE(log.open_file(path));
  EXPECT_TRUE(log.close_file());  // nothing was open
  EXPECT_FALSE(log.save(path));
}

TEST(OpLogFormat, SaveWritesTheSerializedImage) {
  const std::string path = "test_oplog_save.oplog";
  Fixture fx;
  for (int call = 0; call < 3; ++call) {
    fx.call(call);
  }
  ASSERT_TRUE(fx.oplog.save(path));
  const db::OpLogReadResult loaded = db::load_op_log(path);
  ASSERT_TRUE(loaded.ok()) << db::to_string(loaded.error);
  expect_events_equal(fx.oplog.events(), loaded.events);
  std::remove(path.c_str());
}

TEST(OpLogFormat, LoadReportsAMissingFile) {
  const db::OpLogReadResult result = db::load_op_log("no_such_dir/missing.oplog");
  EXPECT_EQ(result.error, db::OpLogError::CannotOpen);
  EXPECT_EQ(result.error_offset, 0u);
  EXPECT_TRUE(result.events.empty());
}

/// Every value from 0 to `last` has a name of its own, and none is "?".
template <class Enum>
void expect_distinct_names(Enum last) {
  std::set<std::string_view> names;
  for (unsigned v = 0; v <= static_cast<unsigned>(last); ++v) {
    const std::string_view name = to_string(static_cast<Enum>(v));
    EXPECT_NE(name, "?") << "value " << v;
    EXPECT_TRUE(names.insert(name).second) << "value " << v << ": " << name;
  }
}

TEST(EnumNames, EveryValueHasADistinctName) {
  expect_distinct_names(db::OpLogError::BadEvent);
  expect_distinct_names(db::Status::BadGroup);
  expect_distinct_names(audit::Technique::ReplayCheck);
  expect_distinct_names(audit::Recovery::HealThread);
}

// --- deduplicated replay audit -------------------------------------------

TEST(ReplayAudit, ExecutesEachUniqueChainOnce) {
  Fixture fx;
  // 30 identical call cycles + 2 distinct ones: per table, the identical
  // cycles form one dedup class per lifecycle shape.
  for (int call = 0; call < 30; ++call) {
    fx.call(7);
  }
  fx.call(1);
  fx.call(2);
  fx.api.close();

  audit::ReplayAuditor auditor(*fx.database, audit::ReplayConfig{});
  const audit::ReplayResult result = auditor.run(fx.oplog.events());
  EXPECT_TRUE(result.findings.empty());
  const audit::ReplayStats& s = result.stats;
  // 32 lifecycles on each of 3 tables.
  EXPECT_EQ(s.chains, 96u);
  // process and resource chains don't depend on the codec: 1 unique
  // each; connection has 3 codecs -> 3 uniques.
  EXPECT_EQ(s.unique_chains, 5u);
  EXPECT_GT(s.duplicate_ratio(), 0.30);
  // Each unique chain executed exactly once: the executed-op count is
  // the sum of one representative per class, nothing more.
  EXPECT_LT(s.executed_ops, s.total_ops);
  EXPECT_EQ(s.naive_cost > 0, true);
  EXPECT_LT(s.dedup_cost, s.naive_cost / 3);
}

TEST(ReplayAudit, DetectsSemanticCorruptionStructuralArmsMiss) {
  Fixture fx;
  db::RecordIndex conn = 0, res = 0;
  fx.call(3, true, &conn, &res);
  for (int call = 0; call < 5; ++call) {
    fx.call(call % 2);
  }
  fx.api.close();

  db::Database& db = *fx.database;
  // In-range drift of two unruled dynamic fields, behind the API's back.
  const std::size_t billing_at =
      db.layout().field_offset(fx.ids.connection, conn, fx.ids.c_billing_units);
  const std::size_t quality_at =
      db.layout().field_offset(fx.ids.resource, res, fx.ids.r_link_quality);
  db::store_i32(db.region(), billing_at,
                db::load_i32(db.region(), billing_at) + 1);
  db.mark_written(billing_at, 4);
  db::store_i32(db.region(), quality_at,
                db::load_i32(db.region(), quality_at) + 1);
  db.mark_written(quality_at, 4);

  // The structural arms see nothing: headers intact, no range rule, FK
  // loop unbroken, no static data touched.
  audit::EngineConfig config;
  sim::Time audit_now = 60 * sim::kSecond;
  audit::AuditEngine engine(db, config, [&audit_now]() { return audit_now; });
  std::uint64_t structural = engine.check_static().findings;
  for (db::TableId t = 0;
       t < static_cast<db::TableId>(db.schema().tables.size()); ++t) {
    structural += engine.check_structure(t).findings;
    structural += engine.check_ranges(t).findings;
  }
  structural += engine.check_semantics().findings;
  EXPECT_EQ(structural, 0u);

  // The replay audit flags exactly the two corrupted words.
  audit::ReplayAuditor auditor(db, audit::ReplayConfig{});
  const audit::ReplayResult result = auditor.run(fx.oplog.events());
  EXPECT_EQ(result.stats.mismatched_words, 2u);
  ASSERT_EQ(result.findings.size(), 2u);
  bool billing_found = false, quality_found = false;
  for (const audit::Finding& f : result.findings) {
    EXPECT_EQ(f.technique, audit::Technique::ReplayCheck);
    if (f.offset == billing_at) billing_found = true;
    if (f.offset == quality_at) quality_found = true;
  }
  EXPECT_TRUE(billing_found);
  EXPECT_TRUE(quality_found);
}

TEST(ReplayAudit, CleanRunHasNoFalseMismatches) {
  Fixture fx;
  for (int call = 0; call < 12; ++call) {
    db::RecordIndex conn = 0, res = 0;
    fx.call(call % 4, call % 3 == 0, &conn, &res);
  }
  fx.api.close();
  audit::ReplayAuditor auditor(*fx.database, audit::ReplayConfig{});
  const audit::ReplayResult result = auditor.run(fx.oplog.events());
  EXPECT_TRUE(result.findings.empty());
  EXPECT_EQ(result.stats.mismatched_words, 0u);
}

TEST(ReplayAudit, BitIdenticalAtAnyThreadCount) {
  Fixture fx;
  db::RecordIndex conn = 0;
  for (int call = 0; call < 20; ++call) {
    fx.call(call % 6, call == 4, &conn, nullptr);
  }
  fx.api.close();
  // One corruption so findings are non-trivial in every arm.
  db::Database& db = *fx.database;
  const std::size_t at =
      db.layout().field_offset(fx.ids.connection, conn, fx.ids.c_billing_units);
  db::store_i32(db.region(), at, db::load_i32(db.region(), at) ^ 0x55);
  db.mark_written(at, 4);

  std::vector<audit::ReplayResult> results;
  for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
    audit::ReplayConfig config;
    config.replay_threads = threads;
    config.compare_grain_bytes = 256;  // many slices even on a small region
    audit::ReplayAuditor auditor(db, config);
    results.push_back(auditor.run(fx.oplog.events()));
  }
  const audit::ReplayResult& base = results.front();
  ASSERT_FALSE(base.findings.empty());
  for (const audit::ReplayResult& r : results) {
    ASSERT_EQ(r.findings.size(), base.findings.size());
    for (std::size_t i = 0; i < r.findings.size(); ++i) {
      EXPECT_EQ(r.findings[i].offset, base.findings[i].offset);
      EXPECT_EQ(r.findings[i].length, base.findings[i].length);
      EXPECT_EQ(r.findings[i].table, base.findings[i].table);
      EXPECT_EQ(r.findings[i].record, base.findings[i].record);
      EXPECT_EQ(r.findings[i].field, base.findings[i].field);
    }
    EXPECT_EQ(r.stats.chains, base.stats.chains);
    EXPECT_EQ(r.stats.unique_chains, base.stats.unique_chains);
    EXPECT_EQ(r.stats.executed_ops, base.stats.executed_ops);
    EXPECT_EQ(r.stats.mismatched_words, base.stats.mismatched_words);
    EXPECT_EQ(r.stats.naive_cost, base.stats.naive_cost);
    EXPECT_EQ(r.stats.dedup_cost, base.stats.dedup_cost);
  }
}

TEST(ReplayAudit, ShippedCapturesKeepTheirDedupClasses) {
  // Each capture replayed onto a fresh controller database, then
  // replay-audited. A chain-signature change that merges or splits a
  // dedup class moves `unique_chains` and `executed_ops`.
  struct Expected {
    const char* name;
    std::uint64_t chains, unique_chains, executed_ops, mismatched_words;
  };
  for (const Expected& want : {
           Expected{"handoff_storm", 1800, 14, 123, 0},
           Expected{"registration_avalanche", 135, 100, 500, 0},
           Expected{"diurnal_load", 1008, 41, 252, 0},
       }) {
    SCOPED_TRACE(want.name);
    const db::OpLogReadResult log = db::load_op_log(
        std::string(WTC_WORKLOADS_DIR) + "/" + want.name + ".oplog");
    ASSERT_TRUE(log.ok()) << db::to_string(log.error);
    const auto database = db::make_controller_database();
    EXPECT_EQ(experiments::apply_op_log(*database, log.events).divergences, 0u);
    audit::ReplayAuditor auditor(*database, audit::ReplayConfig{});
    const audit::ReplayStats stats = auditor.run(log.events).stats;
    EXPECT_EQ(stats.chains, want.chains);
    EXPECT_EQ(stats.unique_chains, want.unique_chains);
    EXPECT_EQ(stats.executed_ops, want.executed_ops);
    EXPECT_EQ(stats.mismatched_words, want.mismatched_words);
  }
}

// --- zero-simulation workload engine --------------------------------------

TEST(ReplayWorkload, ByteIdenticalToRecordingRun) {
  const std::string path = "test_oplog_record.oplog";
  experiments::AuditRunParams params;
  params.duration = 120 * static_cast<sim::Duration>(sim::kSecond);
  params.injections_enabled = false;  // clean: region log-explainable
  params.capture_final_region = true;
  params.record_oplog_path = path;
  params.seed = 0x5EED;

  const auto recorded = experiments::run_audit_experiment(params);
  ASSERT_GT(recorded.oplog_recorded, 0u);
  ASSERT_FALSE(recorded.final_region.empty());

  auto replay_params = params;
  replay_params.record_oplog_path.clear();
  replay_params.replay_oplog_path = path;
  const auto replayed = experiments::run_audit_experiment(replay_params);
  EXPECT_EQ(replayed.replay_divergences, 0u);
  EXPECT_GT(replayed.replay_applied, 0u);
  EXPECT_EQ(recorded.final_region, replayed.final_region);
  std::remove(path.c_str());
}

TEST(ReplayWorkload, DeterministicAcrossCampaignJobs) {
  const std::string path = "test_oplog_jobs.oplog";
  experiments::AuditRunParams params;
  params.duration = 60 * static_cast<sim::Duration>(sim::kSecond);
  params.injections_enabled = false;
  params.capture_final_region = true;
  params.record_oplog_path = path;
  params.seed = 0x10B5;
  const auto recorded = experiments::run_audit_experiment(params);
  ASSERT_GT(recorded.oplog_recorded, 0u);

  auto replay_params = params;
  replay_params.record_oplog_path.clear();
  replay_params.replay_oplog_path = path;

  std::vector<std::vector<std::vector<std::byte>>> regions;
  for (const std::size_t jobs : {1u, 3u}) {
    experiments::CampaignOptions options;
    options.jobs = jobs;
    options.stderr_progress = 0;
    regions.push_back(experiments::run_campaign(
        4,
        [&](std::size_t) {
          return experiments::run_audit_experiment(replay_params).final_region;
        },
        options));
  }
  ASSERT_EQ(regions[0].size(), regions[1].size());
  for (std::size_t i = 0; i < regions[0].size(); ++i) {
    EXPECT_EQ(regions[0][i], regions[1][i]) << "run " << i;
    EXPECT_EQ(regions[0][i], recorded.final_region) << "run " << i;
  }
  std::remove(path.c_str());
}

// --- replay audit element wiring ------------------------------------------

TEST(ReplayAuditElement, RunsCleanInsideTheAuditProcess) {
  experiments::AuditRunParams params;
  params.duration = 200 * static_cast<sim::Duration>(sim::kSecond);
  params.injections_enabled = false;
  params.audit.replay_audit = true;
  params.seed = 0xE1E;
  const auto result = experiments::run_audit_experiment(params);
  EXPECT_GT(result.replay_runs, 0u);
  EXPECT_EQ(result.replay.mismatched_words, 0u);
  EXPECT_GT(result.replay.total_ops, 0u);
}

}  // namespace
}  // namespace wtc
