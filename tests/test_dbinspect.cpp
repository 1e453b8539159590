// tools/dbinspect against images the loader rejects: its structural scan
// must report the same damage load_image refuses to boot.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "db/controller_schema.hpp"
#include "db/disk.hpp"
#include "db/layout.hpp"

namespace wtc::db {
namespace {

struct Inspection {
  int exit_code = -1;
  std::string output;
};

/// Writes `payload` as an image file and runs dbinspect on it.
Inspection inspect(const std::vector<std::byte>& payload) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("wtc_dbinspect_test_" + std::to_string(::getpid()) + ".img");
  {
    const auto bytes = make_image_bytes(payload);
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file.write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
  }
  Inspection result;
  const std::string command =
      std::string(WTC_DBINSPECT_PATH) + " '" + path.string() + "'";
  if (std::FILE* pipe = ::popen(command.c_str(), "r")) {
    char buffer[4096];
    std::size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof buffer, pipe)) > 0) {
      result.output.append(buffer, n);
    }
    const int status = ::pclose(pipe);
    result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  std::filesystem::remove(path);
  return result;
}

TEST(DbInspect, FreeRecordOffTheFreeListIsDamage) {
  auto db = make_controller_database();
  TableId t = 0;
  while (!db->schema().tables[t].dynamic) {
    ++t;
  }
  const RecordIndex last = db->schema().tables[t].num_records - 1;
  std::vector<std::byte> payload(db->pristine().begin(), db->pristine().end());

  const Inspection pristine = inspect(payload);
  EXPECT_EQ(pristine.exit_code, 0) << pristine.output;
  EXPECT_NE(pristine.output.find("structural scan: clean"), std::string::npos);

  // Move the table's last record, still Free, to group 1, and end its
  // predecessor's free-list link there: every chain stays consistent, so
  // only the status/group rule is broken.
  const std::size_t pred_at = db->layout().record_offset(t, last - 1);
  const std::size_t last_at = db->layout().record_offset(t, last);
  ASSERT_EQ(load_record_header(payload, last_at).status, kStatusFree);
  ASSERT_EQ(load_record_header(payload, last_at).group, 0u);
  ASSERT_EQ(load_record_header(payload, pred_at).next, last);
  store_u32(payload, last_at + 8, 1);
  store_u32(payload, pred_at + 12, kNilLink);

  const DiskResult loaded = load_image_bytes(*db, make_image_bytes(payload));
  EXPECT_FALSE(loaded);
  EXPECT_EQ(loaded.error, "image corrupt: record status/group disagree");

  const Inspection damaged = inspect(payload);
  EXPECT_EQ(damaged.exit_code, 2) << damaged.output;
  EXPECT_NE(damaged.output.find("DAMAGE FOUND"), std::string::npos)
      << damaged.output;
}

}  // namespace
}  // namespace wtc::db
