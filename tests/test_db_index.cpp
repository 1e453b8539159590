// Tests for the shadow group/free index (db/index.hpp) and the O(1)
// splice hot path built on it: the bitmaps against an ordered-set
// reference model, byte-equivalence against the full-relink reference,
// self-resync through every store write path, and the
// advisory-index recovery behaviour under raw (store-bypassing)
// corruption.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <iterator>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "db/api.hpp"
#include "db/controller_schema.hpp"
#include "db/direct.hpp"
#include "obs/metrics.hpp"

namespace wtc::db {
namespace {

bool regions_equal(const Database& a, const Database& b) {
  const auto ra = a.region();
  const auto rb = b.region();
  return ra.size() == rb.size() &&
         std::memcmp(ra.data(), rb.data(), ra.size()) == 0;
}

/// Every record's group_links entry is its group's TableIndex successor
/// (kNilLink past the last member and for an out-of-range group).
bool links_match_index(const Database& db) {
  std::vector<std::uint32_t> links;
  for (TableId t = 0; t < db.table_count(); ++t) {
    const auto& tl = db.layout().table(t);
    group_links(db.region(), tl, links);
    for (RecordIndex r = 0; r < tl.num_records; ++r) {
      const std::uint32_t group =
          load_u32(db.region(), db.layout().record_offset(t, r) + 8);
      if (links[r] != db.index(t).succ(group, r).value_or(kNilLink)) {
        return false;
      }
    }
  }
  return true;
}

bool all_indexes_verify(const Database& db) {
  for (TableId t = 0; t < db.table_count(); ++t) {
    if (!db.verify_index(t)) {
      return false;
    }
  }
  return true;
}

// --- TableIndex against a std::set reference model ---

/// The membership a TableIndex must report, kept in ordered sets: the
/// oracle for the bitmap representation.
struct ReferenceIndex {
  explicit ReferenceIndex(RecordIndex n)
      : status(n, kStatusActive), group(n, TableIndex::kNoGroup),
        group_of(n, TableIndex::kNoGroup) {}

  void sync(RecordIndex r, std::uint32_t s, std::uint32_t g) {
    status[r] = s;
    group[r] = g;
    if (group_of[r] != TableIndex::kNoGroup) {
      members[group_of[r]].erase(r);
    }
    group_of[r] = g < kMaxGroups ? static_cast<std::uint8_t>(g)
                                 : TableIndex::kNoGroup;
    if (group_of[r] != TableIndex::kNoGroup) {
      members[group_of[r]].insert(r);
    }
    if (s == kStatusFree) {
      free.insert(r);
    } else {
      free.erase(r);
    }
  }

  [[nodiscard]] std::optional<RecordIndex> pred(std::uint32_t g,
                                                RecordIndex r) const {
    if (g >= kMaxGroups) {
      return std::nullopt;
    }
    const auto it = members[g].lower_bound(r);
    if (it == members[g].begin()) {
      return std::nullopt;
    }
    return *std::prev(it);
  }
  [[nodiscard]] std::optional<RecordIndex> succ(std::uint32_t g,
                                                RecordIndex r) const {
    if (g >= kMaxGroups) {
      return std::nullopt;
    }
    const auto it = members[g].upper_bound(r);
    if (it == members[g].end()) {
      return std::nullopt;
    }
    return *it;
  }

  std::vector<std::uint32_t> status, group;  ///< last synced header words
  std::vector<std::uint8_t> group_of;
  std::array<std::set<RecordIndex>, kMaxGroups> members;
  std::set<RecordIndex> free;
};

/// A group word: mostly the two call groups or the free list, a sparse
/// tail over the rest so some chains have gaps of thousands of records,
/// and out-of-range words (kNoGroup among them).
std::uint32_t random_group(common::Rng& rng) {
  const auto u = rng.uniform(1000);
  if (u < 100) {
    return kGroupFree;
  }
  if (u < 450) {
    return kGroupActiveCalls;
  }
  if (u < 750) {
    return kGroupStableCalls;
  }
  if (u < 850) {
    return 3 + static_cast<std::uint32_t>(rng.uniform(kMaxGroups - 4));
  }
  if (u < 852) {
    return kMaxGroups - 1;
  }
  switch (rng.uniform(4)) {
    case 0:
      return kMaxGroups;
    case 1:
      return TableIndex::kNoGroup;
    case 2:
      return 0xFFFFFFFFu;
    default:
      return kMaxGroups +
             static_cast<std::uint32_t>(rng.uniform(0xFFFFFFFFu - kMaxGroups));
  }
}

void expect_index_matches(const TableIndex& index, const ReferenceIndex& ref,
                          RecordIndex n, common::Rng& rng) {
  const std::optional<RecordIndex> first_free =
      ref.free.empty() ? std::nullopt : std::optional{*ref.free.begin()};
  ASSERT_EQ(index.first_free(), first_free);
  ASSERT_EQ(index.free_count(), ref.free.size());
  for (std::uint32_t g = 0; g < kMaxGroups; ++g) {
    ASSERT_EQ(index.member_count(g), ref.members[g].size()) << "group " << g;
    for (const RecordIndex r : {RecordIndex{0}, n - 1}) {
      ASSERT_EQ(index.pred(g, r), ref.pred(g, r)) << "pred " << g << "," << r;
      ASSERT_EQ(index.succ(g, r), ref.succ(g, r)) << "succ " << g << "," << r;
    }
  }
  ASSERT_EQ(index.member_count(kMaxGroups), 0u);
  for (int probe = 0; probe < 16; ++probe) {
    const auto r = static_cast<RecordIndex>(rng.uniform(n));
    const auto g = static_cast<std::uint32_t>(rng.uniform(kMaxGroups + 1));
    ASSERT_EQ(index.pred(g, r), ref.pred(g, r)) << "pred " << g << "," << r;
    ASSERT_EQ(index.succ(g, r), ref.succ(g, r)) << "succ " << g << "," << r;
    ASSERT_EQ(index.group_of(r), ref.group_of[r]) << "record " << r;
  }
}

// Word (64) and summary-word (4096) boundaries are crossed both ways: the
// sizes sit on either side of them, and the sparse groups leave gaps that
// span several words and summary words.
TEST(TableIndexModel, MatchesOrderedSetReferenceUnderRandomSyncs) {
  for (const RecordIndex n : {1u, 63u, 64u, 65u, 4095u, 4096u, 4097u, 70000u}) {
    SCOPED_TRACE(testing::Message() << n << " records");
    common::Rng rng(0x7AB1E000u + n);
    TableIndex index;
    index.reset(n);
    ReferenceIndex ref(n);
    expect_index_matches(index, ref, n, rng);
    const auto random_status = [&rng]() -> std::uint32_t {
      if (rng.chance(0.4)) {
        return kStatusFree;
      }
      return rng.chance(0.9) ? kStatusActive : static_cast<std::uint32_t>(rng.next());
    };
    // A sweep front to back (every record of a small table, an even
    // stride over a large one), then random records, some resynced to the
    // state they already have.
    const std::uint64_t sweep = std::min<std::uint64_t>(n, 2000);
    for (std::uint64_t step = 0; step < sweep + 2000; ++step) {
      const auto r =
          static_cast<RecordIndex>(step < sweep ? step * n / sweep : rng.uniform(n));
      const std::uint32_t status = random_status();
      const std::uint32_t group = random_group(rng);
      index.sync(r, status, group);
      ref.sync(r, status, group);
      expect_index_matches(index, ref, n, rng);
      if (HasFatalFailure()) {
        FAIL() << "after step " << step;
      }
    }
    TableIndex rebuilt;
    rebuilt.reset(n);
    for (RecordIndex r = 0; r < n; ++r) {
      rebuilt.sync(r, ref.status[r], ref.group[r]);
    }
    EXPECT_TRUE(rebuilt == index);
    const RecordIndex r = n - 1;
    rebuilt.sync(r, ref.status[r] == kStatusFree ? kStatusActive : kStatusFree,
                 ref.group[r]);
    EXPECT_FALSE(rebuilt == index);
  }
}

class IndexTest : public ::testing::Test {
 protected:
  IndexTest()
      : db_(make_controller_database()),
        ids_(resolve_controller_ids(db_->schema())),
        api_(*db_, []() { return sim::Time{0}; }) {
    api_.init(100);
  }

  std::unique_ptr<Database> db_;
  ControllerIds ids_;
  DbApi api_;
};

TEST_F(IndexTest, FreshDatabaseIndexMatchesRegion) {
  EXPECT_TRUE(all_indexes_verify(*db_));
  // Every dynamic record starts on the free list.
  const auto total = db_->schema().tables[ids_.process].num_records;
  EXPECT_EQ(db_->index(ids_.process).free_count(), total);
  EXPECT_EQ(db_->index(ids_.process).first_free(), std::optional<RecordIndex>{0});
}

TEST_F(IndexTest, ApiMutationsKeepIndexInSync) {
  RecordIndex a = 0;
  RecordIndex b = 0;
  ASSERT_EQ(api_.alloc_rec(ids_.process, kGroupActiveCalls, a), Status::Ok);
  ASSERT_EQ(api_.alloc_rec(ids_.process, kGroupActiveCalls, b), Status::Ok);
  EXPECT_TRUE(db_->verify_index(ids_.process));
  ASSERT_EQ(api_.move_rec(ids_.process, a, kGroupStableCalls), Status::Ok);
  EXPECT_TRUE(db_->verify_index(ids_.process));
  ASSERT_EQ(api_.free_rec(ids_.process, b), Status::Ok);
  EXPECT_TRUE(db_->verify_index(ids_.process));
  const auto& index = db_->index(ids_.process);
  EXPECT_EQ(index.group_of(a), kGroupStableCalls);
  EXPECT_EQ(index.member_count(kGroupActiveCalls), 0u);
}

// The heart of the PR: a randomized alloc/free/move campaign driven
// identically through a splice-mode API and a full-relink API must keep
// the two regions byte-identical at every step (the splice is not an
// approximation of the invariant — it produces the same bytes), and the
// splice side's shadow index must continuously match its region.
TEST_F(IndexTest, RandomizedCampaignMatchesFullRelinkByteForByte) {
  auto relink_db = make_controller_database();
  DbApi relink_api(*relink_db, []() { return sim::Time{0}; });
  relink_api.set_link_mode(LinkMode::FullRelink);
  relink_api.init(100);
  ASSERT_EQ(api_.link_mode(), LinkMode::Splice);
  ASSERT_TRUE(regions_equal(*db_, *relink_db));

  common::Rng rng(0xD5171DE5u);
  const TableId tables[] = {ids_.process, ids_.connection, ids_.resource};
  std::vector<std::vector<RecordIndex>> active(3);
  for (int op = 0; op < 2000; ++op) {
    const auto which = rng.uniform(3);
    const TableId t = tables[which];
    auto& live = active[which];
    const auto kind = rng.uniform(3);
    if (kind == 0 || live.empty()) {
      const auto group =
          rng.uniform(2) == 0 ? kGroupActiveCalls : kGroupStableCalls;
      RecordIndex r1 = 0;
      RecordIndex r2 = 0;
      const Status s1 = api_.alloc_rec(t, group, r1);
      const Status s2 = relink_api.alloc_rec(t, group, r2);
      ASSERT_EQ(s1, s2);
      if (s1 == Status::Ok) {
        ASSERT_EQ(r1, r2);  // both must pick the lowest-index free slot
        live.push_back(r1);
      }
    } else {
      const auto pick = rng.uniform(live.size());
      const RecordIndex r = live[pick];
      if (kind == 1) {
        ASSERT_EQ(api_.free_rec(t, r), Status::Ok);
        ASSERT_EQ(relink_api.free_rec(t, r), Status::Ok);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      } else {
        const auto group =
            rng.uniform(2) == 0 ? kGroupActiveCalls : kGroupStableCalls;
        ASSERT_EQ(api_.move_rec(t, r, group), Status::Ok);
        ASSERT_EQ(relink_api.move_rec(t, r, group), Status::Ok);
      }
    }
    ASSERT_TRUE(regions_equal(*db_, *relink_db)) << "after op " << op;
    ASSERT_TRUE(links_match_index(*db_)) << "after op " << op;
    if (op % 64 == 0) {
      ASSERT_TRUE(all_indexes_verify(*db_)) << "after op " << op;
    }
  }
  EXPECT_TRUE(all_indexes_verify(*db_));
}

// The controller tables hold at most 96 records, so the campaign above
// never looks for a chain neighbour past its first bitmap words. Here the
// bench schema's largest table (5,000 records) is first filled past one
// summary word (4,096 records) and then churned, with sparse groups whose
// neighbours lie thousands of records away.
TEST(IndexSpliceAtScale, CampaignMatchesFullRelinkByteForByte) {
  const BenchSchemaParams params{.scale = 40};
  Database splice_db(make_bench_schema(params));
  Database relink_db(make_bench_schema(params));
  DbApi splice_api(splice_db, []() { return sim::Time{0}; });
  DbApi relink_api(relink_db, []() { return sim::Time{0}; });
  relink_api.set_link_mode(LinkMode::FullRelink);
  splice_api.init(1);
  relink_api.init(1);
  const TableId big = 3;
  ASSERT_EQ(splice_db.layout().table(big).num_records, 5000u);
  ASSERT_TRUE(regions_equal(splice_db, relink_db));

  common::Rng rng(0x5B11CE40u);
  const auto pick_group = [&rng]() {
    // Groups 1 and 2 are dense; 3..15 are sparse chains.
    return rng.chance(0.9) ? 1 + static_cast<std::uint32_t>(rng.uniform(2))
                           : 3 + static_cast<std::uint32_t>(rng.uniform(kMaxGroups - 3));
  };
  std::vector<std::vector<RecordIndex>> live(splice_db.table_count());
  std::size_t far_neighbours = 0;  // neighbours in another summary word
  const int fill = 4500;
  for (int op = 0; op < fill + 3000; ++op) {
    const TableId t = op < fill || rng.chance(0.75)
                          ? big
                          : static_cast<TableId>(rng.uniform(splice_db.table_count()));
    auto& records = live[t];
    const auto kind = op < fill ? 0 : rng.uniform(3);
    RecordIndex r = 0;
    if (kind == 0 || records.empty()) {
      const std::uint32_t group = pick_group();
      RecordIndex r2 = 0;
      const Status s1 = splice_api.alloc_rec(t, group, r);
      ASSERT_EQ(s1, relink_api.alloc_rec(t, group, r2));
      if (s1 != Status::Ok) {
        continue;
      }
      ASSERT_EQ(r, r2);
      records.push_back(r);
    } else {
      const auto pick = rng.uniform(records.size());
      r = records[pick];
      if (kind == 1) {
        ASSERT_EQ(splice_api.free_rec(t, r), Status::Ok);
        ASSERT_EQ(relink_api.free_rec(t, r), Status::Ok);
        records.erase(records.begin() + static_cast<std::ptrdiff_t>(pick));
      } else {
        const std::uint32_t group = pick_group();
        ASSERT_EQ(splice_api.move_rec(t, r, group), Status::Ok);
        ASSERT_EQ(relink_api.move_rec(t, r, group), Status::Ok);
      }
    }
    ASSERT_TRUE(regions_equal(splice_db, relink_db)) << "after op " << op;
    ASSERT_TRUE(splice_db.verify_index(t)) << "after op " << op;
    const auto& index = splice_db.index(t);
    const std::uint32_t g = index.group_of(r);
    for (const auto neighbour : {index.pred(g, r), index.succ(g, r)}) {
      if (neighbour && *neighbour / 4096 != r / 4096) {
        ++far_neighbours;
      }
    }
  }
  EXPECT_GT(live[big].size(), 4096u);
  EXPECT_GT(far_neighbours, 0u);
}

TEST_F(IndexTest, IndexRebuiltAfterReloadAndInstallImage) {
  RecordIndex r = 0;
  ASSERT_EQ(api_.alloc_rec(ids_.process, kGroupActiveCalls, r), Status::Ok);
  ASSERT_EQ(api_.alloc_rec(ids_.connection, kGroupActiveCalls, r), Status::Ok);

  // Snapshot the mutated region and install it into a fresh database: the
  // install goes through the store, so the indexes must match the image.
  const auto live = db_->region();
  const std::vector<std::byte> image(live.begin(), live.end());
  auto other = make_controller_database();
  ASSERT_TRUE(other->install_image(image));
  EXPECT_TRUE(all_indexes_verify(*other));
  EXPECT_EQ(other->index(ids_.process).member_count(kGroupActiveCalls), 1u);

  // A full reload-from-disk (recovery escalation) rewinds the region to
  // the pristine image; the resync must follow it back.
  db_->reload_all_from_disk();
  EXPECT_TRUE(all_indexes_verify(*db_));
  EXPECT_EQ(db_->index(ids_.process).member_count(kGroupActiveCalls), 0u);
}

TEST_F(IndexTest, AuditHeaderRepairResyncsIndex) {
  RecordIndex r = 0;
  ASSERT_EQ(api_.alloc_rec(ids_.process, kGroupActiveCalls, r), Status::Ok);

  // Raw-corrupt the group word (bypassing the store): the region now
  // disagrees with the index, exactly the blind spot the audit covers.
  const std::size_t at = db_->layout().record_offset(ids_.process, r);
  store_u32(db_->region(), at + 8, 7);
  EXPECT_FALSE(db_->verify_index(ids_.process));

  // The audit's header repair writes through the store; its note_write
  // must drag the shadow index back into sync with the repaired header.
  direct::repair_header(*db_, ids_.process, r);
  EXPECT_TRUE(db_->verify_index(ids_.process));
}

TEST_F(IndexTest, ThroughStoreCorruptionResyncsIndex) {
  RecordIndex r = 0;
  ASSERT_EQ(api_.alloc_rec(ids_.process, kGroupActiveCalls, r), Status::Ok);

  // The injector's through_store mode: flip a bit, then mark_written —
  // the same path a wild software write takes through the memory system.
  const std::size_t status_at =
      db_->layout().record_offset(ids_.process, r) + 4;
  db_->region()[status_at] ^= std::byte{0x01};
  db_->mark_written(status_at, 1);
  EXPECT_TRUE(db_->verify_index(ids_.process));
}

TEST_F(IndexTest, AllocRecoversFromStaleFreeIndex) {
  // Raw-corrupt the status word of the lowest free record to "active"
  // without telling the store: the free index still advertises it. The
  // splice-mode alloc must detect the lie against the region, rebuild the
  // index, and hand out a record that really is free.
  const auto first = db_->index(ids_.process).first_free();
  ASSERT_TRUE(first.has_value());
  const std::size_t at = db_->layout().record_offset(ids_.process, *first);
  store_u32(db_->region(), at + 4, kStatusActive);

  obs::Recorder recorder;
  RecordIndex r = 0;
  {
    obs::ScopedRecorder scoped(recorder);
    ASSERT_EQ(api_.alloc_rec(ids_.process, kGroupActiveCalls, r), Status::Ok);
  }
  EXPECT_NE(r, *first);
  EXPECT_EQ(load_u32(db_->region(),
                     db_->layout().record_offset(ids_.process, r) + 4),
            kStatusActive);
  EXPECT_EQ(recorder.snapshot().counter(obs::Counter::db_index_rebuilds), 1u);
  EXPECT_TRUE(db_->verify_index(ids_.process));
}

TEST_F(IndexTest, CrossCheckModeHealsDesyncBeforeSplice) {
  RecordIndex a = 0;
  RecordIndex b = 0;
  ASSERT_EQ(api_.alloc_rec(ids_.process, kGroupActiveCalls, a), Status::Ok);
  ASSERT_EQ(api_.alloc_rec(ids_.process, kGroupActiveCalls, b), Status::Ok);

  // Raw-corrupt record a's group word so the index is stale, then mutate
  // record b with the paranoid cross-check on: the API must notice the
  // desync, heal the index from the region, and splice correctly.
  const std::size_t at = db_->layout().record_offset(ids_.process, a);
  store_u32(db_->region(), at + 8, kGroupStableCalls);
  db_->set_index_cross_check(true);
  ASSERT_EQ(api_.move_rec(ids_.process, b, kGroupStableCalls), Status::Ok);
  EXPECT_TRUE(db_->verify_index(ids_.process));
  EXPECT_EQ(db_->index(ids_.process).group_of(a), kGroupStableCalls);
}

TEST_F(IndexTest, AllocExhaustionAndRefillThroughIndex) {
  const auto total = db_->schema().tables[ids_.connection].num_records;
  RecordIndex r = 0;
  for (RecordIndex i = 0; i < total; ++i) {
    ASSERT_EQ(api_.alloc_rec(ids_.connection, kGroupActiveCalls, r), Status::Ok);
  }
  EXPECT_EQ(db_->index(ids_.connection).free_count(), 0u);
  EXPECT_EQ(api_.alloc_rec(ids_.connection, kGroupActiveCalls, r),
            Status::NoFreeRecord);
  ASSERT_EQ(api_.free_rec(ids_.connection, 3), Status::Ok);
  ASSERT_EQ(api_.alloc_rec(ids_.connection, kGroupActiveCalls, r), Status::Ok);
  EXPECT_EQ(r, 3u);  // the index hands back the only (lowest) free slot
  EXPECT_TRUE(db_->verify_index(ids_.connection));
}

// Satellite: the observer accounting on DBalloc. The splice-mode alloc
// consults exactly one record header (the popped free slot); the legacy
// scan reads one header per scanned record. Each must charge the oracle
// for precisely the headers it actually read.
class CountingObserver : public RegionObserver {
 public:
  void on_legitimate_write(std::size_t, std::size_t) override {}
  void on_client_read(sim::ProcessId, std::size_t offset, std::size_t len) override {
    ++reads;
    last_offset = offset;
    last_len = len;
  }
  int reads = 0;
  std::size_t last_offset = 0;
  std::size_t last_len = 0;
};

TEST_F(IndexTest, SpliceAllocChargesExactlyOneHeaderRead) {
  RecordIndex r = 0;
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(api_.alloc_rec(ids_.process, kGroupActiveCalls, r), Status::Ok);
  }
  CountingObserver counting;
  db_->set_observer(&counting);
  ASSERT_EQ(api_.alloc_rec(ids_.process, kGroupActiveCalls, r), Status::Ok);
  db_->set_observer(nullptr);
  EXPECT_EQ(r, 5u);
  EXPECT_EQ(counting.reads, 1);
  EXPECT_EQ(counting.last_offset,
            db_->layout().record_offset(ids_.process, r) + 4);
  EXPECT_EQ(counting.last_len, 4u);
}

TEST_F(IndexTest, FullRelinkAllocChargesOneReadPerScannedHeader) {
  api_.set_link_mode(LinkMode::FullRelink);
  RecordIndex r = 0;
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(api_.alloc_rec(ids_.process, kGroupActiveCalls, r), Status::Ok);
  }
  CountingObserver counting;
  db_->set_observer(&counting);
  ASSERT_EQ(api_.alloc_rec(ids_.process, kGroupActiveCalls, r), Status::Ok);
  db_->set_observer(nullptr);
  EXPECT_EQ(r, 5u);
  EXPECT_EQ(counting.reads, 6);  // headers 0..5 scanned, one charge each
}

// --- the store's stamp walk: the same stamps as the all-tables loop ---

struct Stamps {
  std::vector<std::uint64_t> table, table_header, table_field;
  std::vector<std::vector<std::uint64_t>> record, header, field, scrub;
  bool operator==(const Stamps&) const = default;
};

Stamps read_stamps(const Database& db) {
  Stamps s;
  for (TableId t = 0; t < db.table_count(); ++t) {
    s.table.push_back(db.table_generation(t));
    s.table_header.push_back(db.table_header_generation(t));
    s.table_field.push_back(db.table_field_generation(t));
    auto& record = s.record.emplace_back();
    auto& header = s.header.emplace_back();
    auto& field = s.field.emplace_back();
    auto& scrub = s.scrub.emplace_back();
    for (RecordIndex r = 0; r < db.layout().table(t).num_records; ++r) {
      record.push_back(db.record_generation(t, r));
      header.push_back(db.header_generation(t, r));
      field.push_back(db.field_generation(t, r));
      scrub.push_back(db.scrub_generation(t, r));
    }
  }
  return s;
}

/// Inclusive [first, last] record indices of table `t` overlapping the
/// byte span [offset, end); nullopt when the span misses the table.
std::optional<std::pair<RecordIndex, RecordIndex>> records_overlapping(
    const Layout& layout, std::size_t t, std::size_t offset, std::size_t end) {
  const auto& tl = layout.tables()[t];
  const std::size_t table_end = tl.offset + tl.record_size * tl.num_records;
  const std::size_t lo = std::max(offset, tl.offset);
  const std::size_t hi = std::min(end, table_end);
  if (lo >= hi) {
    return std::nullopt;
  }
  return std::make_pair(
      static_cast<RecordIndex>((lo - tl.offset) / tl.record_size),
      static_cast<RecordIndex>((hi - 1 - tl.offset) / tl.record_size));
}

/// The stamps a store write of [offset, offset+len) with generation `gen`
/// leaves, starting from `s`, computed the slow way: every table, every
/// overlapping record, one rule at a time. A scrub (`scrub` set) also
/// stamps `gen` as the scrub generation of every record whose whole field
/// area lies inside the span. `resyncs` counts the index resyncs due.
Stamps all_tables_loop(const Database& db, Stamps s, std::size_t offset,
                       std::size_t len, bool scrub, std::uint64_t gen,
                       std::uint64_t& resyncs) {
  const Layout& layout = db.layout();
  const std::size_t end = std::min(offset + len, db.region().size());
  if (offset >= end) {
    return s;
  }
  for (std::size_t t = 0; t < layout.tables().size(); ++t) {
    const auto range = records_overlapping(layout, t, offset, end);
    if (!range) {
      continue;
    }
    s.table[t] = gen;
    const auto& tl = layout.tables()[t];
    for (RecordIndex r = range->first; r <= range->second; ++r) {
      s.record[t][r] = gen;
      const std::size_t rec_at =
          tl.offset + static_cast<std::size_t>(r) * tl.record_size;
      const std::size_t field_start = rec_at + kRecordHeaderSize;
      const std::size_t field_end = field_start + tl.num_fields * 4;
      if (offset < field_start) {
        s.header[t][r] = gen;
        s.table_header[t] = gen;
        if (offset < rec_at + 12 && end > rec_at + 4) {
          ++resyncs;
        }
      }
      if (end > field_start && tl.num_fields > 0) {
        s.field[t][r] = gen;
        s.table_field[t] = gen;
      }
      if (scrub && offset <= field_start && end >= field_end && tl.num_fields > 0) {
        s.scrub[t][r] = gen;
      }
    }
  }
  return s;
}

/// Runs `write` (which must mark exactly [offset, offset+len), as a scrub
/// when `scrub`) and checks it stamped what the all-tables loop stamps,
/// made as many index resyncs, counted the scrub, and left every index
/// equal to its region.
template <typename Write>
void expect_stamps_like_all_tables_loop(Database& db, std::size_t offset,
                                        std::size_t len, bool scrub,
                                        Write&& write) {
  std::uint64_t expected_resyncs = 0;
  const Stamps expected = all_tables_loop(db, read_stamps(db), offset, len, scrub,
                                          db.write_generation() + 1,
                                          expected_resyncs);
  obs::Recorder recorder;
  {
    obs::ScopedRecorder scope(recorder);
    write();
  }
  const auto snapshot = recorder.snapshot();
  EXPECT_EQ(read_stamps(db), expected) << "span " << offset << "+" << len;
  EXPECT_EQ(snapshot.counter(obs::Counter::db_index_resyncs), expected_resyncs)
      << "span " << offset << "+" << len;
  EXPECT_EQ(snapshot.counter(obs::Counter::db_scrubs), scrub ? 1u : 0u)
      << "span " << offset << "+" << len;
  EXPECT_TRUE(all_indexes_verify(db)) << "span " << offset << "+" << len;
}

/// Checks both write kinds over [offset, offset+len): first mark_written,
/// then note_scrub, each against the all-tables loop.
void expect_mark_and_scrub_like_all_tables_loop(Database& db, std::size_t offset,
                                                std::size_t len) {
  expect_stamps_like_all_tables_loop(db, offset, len, false,
                                     [&]() { db.mark_written(offset, len); });
  expect_stamps_like_all_tables_loop(db, offset, len, true,
                                     [&]() { db.note_scrub(offset, len); });
}

TEST_F(IndexTest, MarkWrittenAcrossATableBoundaryStampsLikeAllTablesLoop) {
  // The last record of one table and the first header of the next.
  const TableLayout& a = db_->layout().table(ids_.process);
  const TableId next = static_cast<TableId>(ids_.process + 1);
  ASSERT_LT(next, db_->table_count());
  const std::size_t last_rec = db_->layout().record_offset(ids_.process, a.num_records - 1);
  const std::size_t next_rec = db_->layout().record_offset(next, 0);
  ASSERT_EQ(last_rec + a.record_size, next_rec);  // back to back
  // Change the next table's first status word behind the store's back, so
  // the resync has something to pick up.
  store_u32(db_->region(), next_rec + 4, kStatusActive);
  const std::size_t offset = last_rec + kRecordHeaderSize + 4;
  const std::size_t len = next_rec + 10 - offset;
  expect_stamps_like_all_tables_loop(*db_, offset, len, false,
                                     [&]() { db_->mark_written(offset, len); });
  EXPECT_EQ(db_->header_generation(next, 0), db_->write_generation());
  EXPECT_EQ(db_->field_generation(ids_.process, a.num_records - 1),
            db_->write_generation());
}

TEST_F(IndexTest, MarkWrittenInsideTheCatalogStampsNoTable) {
  const Stamps before = read_stamps(*db_);
  expect_mark_and_scrub_like_all_tables_loop(*db_, 8, 40);
  EXPECT_EQ(read_stamps(*db_), before);
  EXPECT_TRUE(db_->span_written_since(8, 40, db_->write_generation() - 1));
}

TEST_F(IndexTest, ReloadAllFromDiskStampsLikeAllTablesLoop) {
  for (TableId t = 0; t < db_->table_count(); ++t) {
    if (db_->layout().table(t).num_records > 0) {
      store_u32(db_->region(), db_->layout().record_offset(t, 0) + 8, 7);
    }
  }
  const std::size_t size = db_->region().size();
  expect_stamps_like_all_tables_loop(*db_, 0, size, false,
                                     [&]() { db_->reload_all_from_disk(); });
  expect_stamps_like_all_tables_loop(*db_, 0, size, true,
                                     [&]() { db_->note_scrub(0, size); });
  EXPECT_EQ(db_->scrub_generation(ids_.process, 0), db_->write_generation());
}

TEST_F(IndexTest, RandomSpansStampLikeAllTablesLoop) {
  common::Rng rng(0x5BA11);
  const std::size_t size = db_->region().size();
  for (int i = 0; i < 500; ++i) {
    const std::size_t offset = rng.uniform(size + 16);  // some past the end
    const std::size_t len = 1 + rng.uniform(rng.chance(0.1) ? size : 96);
    expect_mark_and_scrub_like_all_tables_loop(*db_, offset, len);
  }
}

TEST_F(IndexTest, ScrubOfOneFieldAreaStampsLikeAllTablesLoop) {
  const TableLayout& tl = db_->layout().table(ids_.process);
  ASSERT_GT(tl.num_fields, 0u);
  const RecordIndex r = 3;
  const std::size_t field_start =
      db_->layout().record_offset(ids_.process, r) + kRecordHeaderSize;
  const std::size_t field_len = tl.num_fields * 4;
  expect_mark_and_scrub_like_all_tables_loop(*db_, field_start, field_len);
  const std::uint64_t scrubbed = db_->write_generation();
  EXPECT_EQ(db_->scrub_generation(ids_.process, r), scrubbed);
  EXPECT_EQ(db_->field_generation(ids_.process, r), scrubbed);
  EXPECT_LT(db_->header_generation(ids_.process, r), scrubbed);
  // One byte short at either end: the field area is written, not scrubbed.
  expect_mark_and_scrub_like_all_tables_loop(*db_, field_start + 1, field_len - 1);
  expect_mark_and_scrub_like_all_tables_loop(*db_, field_start, field_len - 1);
  EXPECT_EQ(db_->scrub_generation(ids_.process, r), scrubbed);
  EXPECT_EQ(db_->field_generation(ids_.process, r), db_->write_generation());
}

TEST_F(IndexTest, ScrubOfWholeRecordStampsLikeAllTablesLoop) {
  // direct::free_record's shape: header and field area in one scrub.
  const TableLayout& tl = db_->layout().table(ids_.process);
  const std::size_t rec_at = db_->layout().record_offset(ids_.process, 5);
  store_u32(db_->region(), rec_at + 4, kStatusActive);  // a resync to pick up
  expect_mark_and_scrub_like_all_tables_loop(*db_, rec_at, tl.record_size);
  EXPECT_EQ(db_->scrub_generation(ids_.process, 5), db_->write_generation());
  EXPECT_EQ(db_->header_generation(ids_.process, 5), db_->write_generation());
  EXPECT_EQ(db_->scrub_generation(ids_.process, 4), 0u);
  EXPECT_EQ(db_->scrub_generation(ids_.process, 6), 0u);
}

TEST_F(IndexTest, ScrubAcrossATableBoundaryStampsLikeAllTablesLoop) {
  const TableLayout& a = db_->layout().table(ids_.process);
  const TableId next = static_cast<TableId>(ids_.process + 1);
  ASSERT_LT(next, db_->table_count());
  const TableLayout& b = db_->layout().table(next);
  ASSERT_GT(b.num_fields, 0u);
  const std::size_t last_rec =
      db_->layout().record_offset(ids_.process, a.num_records - 1);
  const std::size_t next_rec = db_->layout().record_offset(next, 0);
  ASSERT_EQ(last_rec + a.record_size, next_rec);  // back to back
  // From the last record's field area through the next table's first one:
  // both field areas whole, the next table's first header too.
  const std::size_t offset = last_rec + kRecordHeaderSize;
  const std::size_t len = next_rec + b.record_size - offset;
  expect_mark_and_scrub_like_all_tables_loop(*db_, offset, len);
  const std::uint64_t gen = db_->write_generation();
  EXPECT_EQ(db_->scrub_generation(ids_.process, a.num_records - 1), gen);
  EXPECT_EQ(db_->scrub_generation(next, 0), gen);
  EXPECT_EQ(db_->header_generation(next, 0), gen);
  // One byte short, the span misses the end of the next table's first
  // field area: only the process record is scrubbed.
  expect_mark_and_scrub_like_all_tables_loop(*db_, offset, len - 1);
  EXPECT_EQ(db_->scrub_generation(ids_.process, a.num_records - 1),
            db_->write_generation());
  EXPECT_EQ(db_->scrub_generation(next, 0), gen);
}

TEST_F(IndexTest, FreeRecAttestsTheScrubUntilTheNextFieldWrite) {
  RecordIndex r = 0;
  RecordIndex other = 0;
  ASSERT_EQ(api_.alloc_rec(ids_.process, kGroupActiveCalls, r), Status::Ok);
  ASSERT_EQ(api_.alloc_rec(ids_.process, kGroupActiveCalls, other), Status::Ok);
  ASSERT_EQ(api_.write_fld(ids_.process, r, ids_.p_status, 2), Status::Ok);
  EXPECT_NE(db_->field_generation(ids_.process, r),
            db_->scrub_generation(ids_.process, r));
  ASSERT_EQ(api_.free_rec(ids_.process, r), Status::Ok);
  EXPECT_GT(db_->scrub_generation(ids_.process, r), 0u);
  EXPECT_EQ(db_->field_generation(ids_.process, r),
            db_->scrub_generation(ids_.process, r));
  // A write refused on the freed record writes nothing; writes elsewhere
  // leave the attestation alone.
  EXPECT_EQ(api_.write_fld(ids_.process, r, ids_.p_status, 3),
            Status::RecordNotActive);
  ASSERT_EQ(api_.write_fld(ids_.process, other, ids_.p_status, 3), Status::Ok);
  EXPECT_EQ(db_->field_generation(ids_.process, r),
            db_->scrub_generation(ids_.process, r));
  // Reallocated and written: the field area is no longer the scrub's.
  RecordIndex again = 0;
  ASSERT_EQ(api_.alloc_rec(ids_.process, kGroupActiveCalls, again), Status::Ok);
  ASSERT_EQ(again, r);
  ASSERT_EQ(api_.write_fld(ids_.process, r, ids_.p_status, 4), Status::Ok);
  EXPECT_EQ(db_->field_generation(ids_.process, r), db_->write_generation());
  EXPECT_NE(db_->field_generation(ids_.process, r),
            db_->scrub_generation(ids_.process, r));
}

}  // namespace
}  // namespace wtc::db
