#include "db/disk.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <fstream>
#include <vector>

#include "common/crc32.hpp"
#include "db/layout.hpp"
#include "obs/metrics.hpp"

namespace wtc::db {
namespace {

constexpr std::uint32_t kImageMagic = 0xD15C1A6Eu;
constexpr std::uint32_t kImageVersion = 1;
constexpr std::size_t kImageHeaderBytes = 16;

void put_u32(std::span<std::byte> out, std::size_t offset, std::uint32_t value) {
  std::memcpy(out.data() + offset, &value, 4);
}

std::uint32_t get_u32(std::span<const std::byte> in, std::size_t offset) {
  std::uint32_t value = 0;
  std::memcpy(&value, in.data() + offset, 4);
  return value;
}

DiskResult fail(DiskError code, std::string message) {
  return DiskResult{false, code, std::move(message)};
}

DiskResult ok() { return DiskResult{true, DiskError::None, {}}; }

/// Envelope checks: magic, version, declared length, crc32. On success
/// `payload` holds the raw region bytes.
DiskResult parse_envelope(std::span<const std::byte> raw,
                          std::vector<std::byte>& payload) {
  if (raw.size() < kImageHeaderBytes) {
    return fail(DiskError::Truncated, "image truncated");
  }
  if (get_u32(raw, 0) != kImageMagic) {
    return fail(DiskError::BadMagic, "not a database image");
  }
  if (get_u32(raw, 4) != kImageVersion) {
    return fail(DiskError::BadVersion, "unsupported image version");
  }
  const std::uint32_t size = get_u32(raw, 8);
  const std::uint32_t crc = get_u32(raw, 12);
  if (raw.size() != kImageHeaderBytes + size) {
    return fail(DiskError::LengthMismatch, "image size mismatch");
  }
  payload.assign(raw.begin() + kImageHeaderBytes, raw.end());
  if (common::crc32(payload) != crc) {
    return fail(DiskError::ChecksumMismatch,
                "image checksum mismatch (permanent storage corrupted)");
  }
  return ok();
}

/// Structural validation of a size-checked payload against the target
/// database's trusted schema/layout: the catalog bytes must be exactly the
/// canonical serialization, and every record header must satisfy the
/// invariant the structural audit enforces (header_faults against
/// group_links, layout.hpp). An image that fails any of these would
/// become an unrepairable recovery source: the audit reloads from the
/// installed pristine copy, so corrupt pristine structure is re-installed
/// on every repair and the sweep never converges.
DiskResult validate_structure(const Database& db,
                              std::span<const std::byte> payload) {
  const Layout& layout = db.layout();

  std::vector<std::byte> canonical(layout.region_size());
  format_region(canonical, db.schema(), layout);
  if (!std::equal(payload.begin(),
                  payload.begin() +
                      static_cast<std::ptrdiff_t>(layout.catalog_size()),
                  canonical.begin())) {
    return fail(DiskError::ImageCorrupt, "image corrupt: catalog bytes do not "
                                         "match this database's schema");
  }

  // One message per header_faults bit, in bit order.
  static constexpr std::array<const char*, 5> kFaultMessages = {
      "image corrupt: bad record id tag",
      "image corrupt: bad record status",
      "image corrupt: record group out of range",
      "image corrupt: record status/group disagree",
      "image corrupt: group chain link out of order",
  };
  std::vector<std::uint32_t> links;
  for (std::size_t t = 0; t < layout.tables().size(); ++t) {
    const auto& tl = layout.tables()[t];
    const bool dynamic = db.schema().tables[t].dynamic;
    group_links(payload, tl, links);
    // High-to-low: of several bad records, the highest one is reported.
    for (RecordIndex r = tl.num_records; r-- > 0;) {
      const auto header = load_record_header(
          payload, tl.offset + static_cast<std::size_t>(r) * tl.record_size);
      if (const std::uint32_t faults = header_faults(
              header, static_cast<TableId>(t), r, dynamic, links[r])) {
        return fail(DiskError::ImageCorrupt,
                    kFaultMessages[static_cast<std::size_t>(std::countr_zero(faults))]);
      }
    }
  }
  return ok();
}

DiskResult load_checked(Database& db, std::span<const std::byte> file_bytes) {
  std::vector<std::byte> payload;
  if (auto checked = parse_envelope(file_bytes, payload); !checked) {
    return checked;
  }
  // Bounds-check against the catalog-described region size BEFORE any
  // copy: a truncated or oversized payload must never partially install.
  if (payload.size() != db.layout().region_size()) {
    return fail(DiskError::RegionSizeMismatch,
                "image does not match this database's schema/layout "
                "(region size mismatch)");
  }
  if (auto valid = validate_structure(db, payload); !valid) {
    return valid;
  }
  if (!db.install_image(payload)) {
    return fail(DiskError::ImageCorrupt,
                "image does not match this database's schema/layout");
  }
  return ok();
}

}  // namespace

std::vector<std::byte> make_image_bytes(std::span<const std::byte> payload) {
  // Sized once and filled in place: appending the header words through
  // vector::insert trips a false -Wstringop-overflow from GCC 12 at -O3.
  std::vector<std::byte> out(kImageHeaderBytes + payload.size());
  put_u32(out, 0, kImageMagic);
  put_u32(out, 4, kImageVersion);
  put_u32(out, 8, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, 12, common::crc32(payload));
  std::copy(payload.begin(), payload.end(), out.begin() + kImageHeaderBytes);
  return out;
}

DiskResult save_image(const Database& db, const std::filesystem::path& path) {
  const std::vector<std::byte> out = make_image_bytes(db.pristine());

  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    return fail(DiskError::OpenFailed, "cannot write " + path.string());
  }
  file.write(reinterpret_cast<const char*>(out.data()),
             static_cast<std::streamsize>(out.size()));
  if (!file.good()) {
    return fail(DiskError::OpenFailed, "short write to " + path.string());
  }
  return ok();
}

DiskResult load_image(Database& db, const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    obs::count(obs::Counter::db_images_rejected);
    return fail(DiskError::OpenFailed, "cannot open " + path.string());
  }
  const std::streamsize file_size = in.tellg();
  in.seekg(0);
  std::vector<std::byte> raw(
      static_cast<std::size_t>(std::max<std::streamsize>(file_size, 0)));
  if (!raw.empty() && !in.read(reinterpret_cast<char*>(raw.data()), file_size)) {
    obs::count(obs::Counter::db_images_rejected);
    return fail(DiskError::OpenFailed, "cannot read " + path.string());
  }
  return load_image_bytes(db, raw);
}

DiskResult load_image_bytes(Database& db,
                            std::span<const std::byte> file_bytes) {
  auto result = load_checked(db, file_bytes);
  if (!result) {
    obs::count(obs::Counter::db_images_rejected);
  }
  return result;
}

DiskResult verify_image(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return fail(DiskError::OpenFailed, "cannot open " + path.string());
  }
  const std::streamsize file_size = in.tellg();
  in.seekg(0);
  std::vector<std::byte> raw(
      static_cast<std::size_t>(std::max<std::streamsize>(file_size, 0)));
  if (!raw.empty() && !in.read(reinterpret_cast<char*>(raw.data()), file_size)) {
    return fail(DiskError::OpenFailed, "cannot read " + path.string());
  }
  std::vector<std::byte> payload;
  return parse_envelope(raw, payload);
}

}  // namespace wtc::db
