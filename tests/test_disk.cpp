#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <string_view>

#include "db/controller_schema.hpp"
#include "db/disk.hpp"

namespace wtc::db {
namespace {

class DiskTest : public ::testing::Test {
 protected:
  DiskTest() {
    path_ = std::filesystem::temp_directory_path() /
            ("wtc_disk_test_" + std::to_string(::getpid()) + ".img");
  }
  ~DiskTest() override {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }

  /// XORs `mask` into the byte at `offset` of the on-disk image.
  void flip_byte(std::streamoff offset, int mask) {
    std::fstream file(path_, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file);
    char byte = 0;
    file.seekg(offset);
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ mask);
    file.seekp(offset);
    file.write(&byte, 1);
    ASSERT_TRUE(file.good());
  }

  std::filesystem::path path_;
};

TEST_F(DiskTest, SaveVerifyLoadRoundTrip) {
  auto db = make_controller_database();
  ASSERT_TRUE(save_image(*db, path_));
  ASSERT_TRUE(verify_image(path_));

  // Damage the live region thoroughly, then boot from permanent storage.
  for (std::size_t i = 0; i < db->region().size(); i += 3) {
    db->region()[i] ^= std::byte{0x5A};
  }
  const auto loaded = load_image(*db, path_);
  ASSERT_TRUE(loaded) << loaded.error;
  EXPECT_TRUE(std::equal(db->region().begin(), db->region().end(),
                         db->pristine().begin()));
  EXPECT_TRUE(CatalogView(db->region()).header_ok());
}

TEST_F(DiskTest, LoadIntoFreshDatabaseOfSameSchema) {
  auto original = make_controller_database();
  ASSERT_TRUE(save_image(*original, path_));

  auto fresh = make_controller_database();
  const auto loaded = load_image(*fresh, path_);
  ASSERT_TRUE(loaded) << loaded.error;
  EXPECT_TRUE(std::equal(fresh->pristine().begin(), fresh->pristine().end(),
                         original->pristine().begin()));
}

TEST_F(DiskTest, RejectsMissingFile) {
  auto db = make_controller_database();
  EXPECT_FALSE(load_image(*db, path_));
  EXPECT_FALSE(verify_image(path_));
}

TEST_F(DiskTest, RejectsCorruptedImage) {
  auto db = make_controller_database();
  ASSERT_TRUE(save_image(*db, path_));

  // Flip one payload byte on "disk": the checksum must catch it.
  {
    std::fstream file(path_, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(40);
    char byte = 0;
    file.seekg(40);
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    file.seekp(40);
    file.write(&byte, 1);
  }
  const auto verified = verify_image(path_);
  EXPECT_FALSE(verified);
  EXPECT_NE(verified.error.find("checksum"), std::string::npos);

  // The database must be left untouched by the failed load.
  const std::vector<std::byte> before(db->region().begin(), db->region().end());
  EXPECT_FALSE(load_image(*db, path_));
  EXPECT_TRUE(std::equal(db->region().begin(), db->region().end(), before.begin()));
}

TEST_F(DiskTest, RejectsWrongSchema) {
  auto original = make_controller_database();
  ASSERT_TRUE(save_image(*original, path_));

  // A database with a different layout cannot boot this image.
  Database other(make_bench_schema());
  const auto loaded = load_image(other, path_);
  EXPECT_FALSE(loaded);
}

TEST_F(DiskTest, EveryRejectionPathLeavesLiveRegionUntouched) {
  auto db = make_controller_database();
  ASSERT_TRUE(save_image(*db, path_));
  const auto image_size = std::filesystem::file_size(path_);

  // Pre-damage the live region so a partial install would be visible as
  // either a repair or fresh damage.
  for (std::size_t i = 0; i < db->region().size(); i += 7) {
    db->region()[i] ^= std::byte{0xA5};
  }
  const std::vector<std::byte> damaged(db->region().begin(),
                                       db->region().end());

  const auto expect_rejected = [&](std::string_view label,
                                   std::string_view error_needle) {
    const auto loaded = load_image(*db, path_);
    EXPECT_FALSE(loaded) << label;
    EXPECT_NE(loaded.error.find(error_needle), std::string::npos)
        << label << ": " << loaded.error;
    EXPECT_TRUE(std::equal(db->region().begin(), db->region().end(),
                           damaged.begin()))
        << label << " modified the live region";
  };

  // (1) Truncated mid-payload: header parses but the payload is short.
  std::filesystem::resize_file(path_, image_size / 2);
  expect_rejected("truncated payload", "size mismatch");

  // (1b) Truncated inside the header itself.
  std::filesystem::resize_file(path_, 8);
  expect_rejected("truncated header", "truncated");

  // (2) Wrong magic: flip a bit in the first byte of a valid image.
  ASSERT_TRUE(save_image(*db, path_));
  flip_byte(0, 0x01);
  expect_rejected("wrong magic", "not a database image");

  // (3) CRC: flip one payload bit of a valid image.
  ASSERT_TRUE(save_image(*db, path_));
  flip_byte(24, 0x40);
  expect_rejected("flipped payload bit", "checksum");

  // Control: the intact image loads, and only then does the region change.
  ASSERT_TRUE(save_image(*db, path_));
  ASSERT_TRUE(load_image(*db, path_));
  EXPECT_FALSE(std::equal(db->region().begin(), db->region().end(),
                          damaged.begin()));
  EXPECT_TRUE(std::equal(db->region().begin(), db->region().end(),
                         db->pristine().begin()));
}

/// One header word of one record: 0 id tag, 1 status, 2 group, 3 next.
struct HeaderEdit {
  RecordIndex record;
  std::size_t word;
  std::uint32_t value;
};

/// Loads a fresh controller image whose connection-table headers carry
/// `edits`. The edits go into the payload before the envelope is built, so
/// the image passes its checksum and reaches the structural check.
DiskResult load_with_header_edits(std::initializer_list<HeaderEdit> edits) {
  auto db = make_controller_database();
  const TableId t = resolve_controller_ids(db->schema()).connection;
  std::vector<std::byte> payload(db->pristine().begin(), db->pristine().end());
  for (const auto& edit : edits) {
    const std::size_t at = db->layout().record_offset(t, edit.record) + 4 * edit.word;
    store_u32(payload, at, edit.value);
  }
  return load_image_bytes(*db, make_image_bytes(payload));
}

TEST(DiskStructure, RejectsEachHeaderFaultWithItsMessage) {
  const auto expect_corrupt = [](const DiskResult& loaded, std::string_view message) {
    EXPECT_FALSE(loaded);
    EXPECT_EQ(loaded.code, DiskError::ImageCorrupt);
    EXPECT_EQ(loaded.error, message);
  };
  ASSERT_TRUE(load_with_header_edits({}));
  expect_corrupt(load_with_header_edits({{3, 0, 0}}),
                 "image corrupt: bad record id tag");
  expect_corrupt(load_with_header_edits({{3, 1, 0xDEADBEEFu}}),
                 "image corrupt: bad record status");
  expect_corrupt(load_with_header_edits({{3, 2, kMaxGroups}}),
                 "image corrupt: record group out of range");
  // A free record of a dynamic table must live on the free list.
  expect_corrupt(load_with_header_edits({{3, 2, 1}}),
                 "image corrupt: record status/group disagree");
  expect_corrupt(load_with_header_edits({{3, 3, 5}}),
                 "image corrupt: group chain link out of order");
  // Of two bad records, the higher one is reported, whichever its fault.
  expect_corrupt(load_with_header_edits({{2, 1, 0xDEADBEEFu}, {7, 3, 9}}),
                 "image corrupt: group chain link out of order");
  expect_corrupt(load_with_header_edits({{2, 3, 9}, {7, 1, 0xDEADBEEFu}}),
                 "image corrupt: bad record status");
}

TEST_F(DiskTest, RejectsTruncatedAndForeignFiles) {
  {
    std::ofstream file(path_, std::ios::binary | std::ios::trunc);
    file << "hi";
  }
  EXPECT_FALSE(verify_image(path_));
  {
    std::ofstream file(path_, std::ios::binary | std::ios::trunc);
    file << "this is definitely not a database image, just prose long enough";
  }
  EXPECT_FALSE(verify_image(path_));
}

}  // namespace
}  // namespace wtc::db
