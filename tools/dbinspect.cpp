// dbinspect — offline inspection of controller database images.
//
// The database region is self-describing (the system catalog lives at the
// front), so this tool needs no schema: it verifies the image envelope,
// decodes the catalog, summarizes every table's record population, and
// runs an offline structural scan (record identifiers, status magics,
// group values, link chains) — the §4.3.2 audit, applied to permanent
// storage instead of the live region.
//
//   dbinspect --create <image>    write a fresh controller image
//   dbinspect <image>             inspect an existing image
#include <cstdio>
#include <cstring>
#include <string>

#include "common/table_printer.hpp"
#include "db/controller_schema.hpp"
#include "db/disk.hpp"

using namespace wtc;

namespace {

int create_image(const char* path) {
  const auto db = db::make_controller_database();
  const auto saved = db::save_image(*db, path);
  if (!saved) {
    std::fprintf(stderr, "error: %s\n", saved.error.c_str());
    return 1;
  }
  std::printf("wrote fresh controller image to %s (%zu bytes of region)\n", path,
              db->region().size());
  return 0;
}

struct TableScan {
  std::uint32_t active = 0;
  std::uint32_t free_records = 0;
  std::uint32_t bad_status = 0;
  std::uint32_t bad_id = 0;
  std::uint32_t bad_group = 0;
  std::uint32_t bad_links = 0;
};

TableScan scan_table(std::span<const std::byte> region,
                     const db::TableDescriptor& desc, db::TableId t) {
  TableScan scan;
  const db::TableLayout tl{.offset = desc.table_offset,
                           .record_size = desc.record_size,
                           .num_records = desc.num_records};
  std::vector<std::uint32_t> links;
  db::group_links(region, tl, links);
  for (db::RecordIndex r = 0; r < desc.num_records; ++r) {
    const auto header = db::load_record_header(
        region, tl.offset + static_cast<std::size_t>(r) * tl.record_size);
    const std::uint32_t faults =
        db::header_faults(header, t, r, desc.dynamic(), links[r]);
    scan.active += header.status == db::kStatusActive ? 1 : 0;
    scan.free_records += header.status == db::kStatusFree ? 1 : 0;
    scan.bad_status += (faults & db::kFaultStatus) != 0 ? 1 : 0;
    scan.bad_id += (faults & db::kFaultIdTag) != 0 ? 1 : 0;
    // A group out of range, or one that disagrees with the status (a free
    // dynamic record off the free list): either way the group word is bad.
    scan.bad_group +=
        (faults & (db::kFaultGroupRange | db::kFaultStatusGroup)) != 0 ? 1 : 0;
    scan.bad_links += (faults & db::kFaultLink) != 0 ? 1 : 0;
  }
  return scan;
}

int inspect_image(const char* path) {
  const auto verified = db::verify_image(path);
  if (!verified) {
    std::fprintf(stderr, "error: %s\n", verified.error.c_str());
    return 1;
  }
  // Reload the raw payload by booting it into a scratch vector: reuse the
  // loader against a shape-compatible database if possible, else decode in
  // place. Here we read the file manually through the public API by
  // building a controller database first and falling back to raw decode.
  std::FILE* file = std::fopen(path, "rb");
  if (file == nullptr) {
    std::fprintf(stderr, "error: cannot open %s\n", path);
    return 1;
  }
  std::fseek(file, 0, SEEK_END);
  const long size = std::ftell(file);
  std::fseek(file, 16, SEEK_SET);  // past the image envelope
  std::vector<std::byte> region(static_cast<std::size_t>(size) - 16);
  const auto read = std::fread(region.data(), 1, region.size(), file);
  std::fclose(file);
  if (read != region.size()) {
    std::fprintf(stderr, "error: short read\n");
    return 1;
  }

  const db::CatalogView catalog(region);
  if (!catalog.header_ok()) {
    std::fprintf(stderr, "error: in-region catalog does not decode — the "
                         "image passed its envelope checksum but the catalog "
                         "header is inconsistent\n");
    return 1;
  }

  std::printf("image: %s\nregion: %zu bytes, %u tables, catalog ok\n\n", path,
              region.size(), catalog.table_count());

  common::TablePrinter table({"Table", "Records", "RecSize", "Offset", "Dynamic",
                              "Active", "Free", "BadStatus", "BadId", "BadGroup",
                              "BadLinks"});
  bool structural_damage = false;
  for (db::TableId t = 0; t < catalog.table_count(); ++t) {
    const auto desc = catalog.table(t);
    if (!desc) {
      table.add_row({"#" + std::to_string(t), "<descriptor corrupt>"});
      structural_damage = true;
      continue;
    }
    const auto scan = scan_table(region, *desc, t);
    structural_damage |= scan.bad_status + scan.bad_id + scan.bad_group +
                             scan.bad_links >
                         0;
    table.add_row({"#" + std::to_string(t), std::to_string(desc->num_records),
                   std::to_string(desc->record_size),
                   std::to_string(desc->table_offset),
                   desc->dynamic() ? "yes" : "no", std::to_string(scan.active),
                   std::to_string(scan.free_records),
                   std::to_string(scan.bad_status), std::to_string(scan.bad_id),
                   std::to_string(scan.bad_group),
                   std::to_string(scan.bad_links)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("structural scan: %s\n",
              structural_damage ? "DAMAGE FOUND — run the audit before boot"
                                : "clean");
  return structural_damage ? 2 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--create") == 0) {
    return create_image(argv[2]);
  }
  if (argc == 2) {
    return inspect_image(argv[1]);
  }
  std::fprintf(stderr, "usage: %s [--create] <image-file>\n", argv[0]);
  return 64;
}
