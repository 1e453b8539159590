#include "db/controller_schema.hpp"

#include <array>

#include "common/memo.hpp"
#include "obs/metrics.hpp"

namespace wtc::db {
namespace {

/// Small deterministic mixer for static-table contents.
constexpr std::int32_t mix(std::uint32_t x) noexcept {
  x ^= x >> 16;
  x *= 0x7FEB352Du;
  x ^= x >> 15;
  x *= 0x846CA68Bu;
  x ^= x >> 16;
  return static_cast<std::int32_t>(x & 0x7FFFFFFFu);
}

}  // namespace

std::int32_t subscriber_auth_key(RecordIndex r) noexcept {
  return mix(0xA07Du ^ (r * 2654435761u));
}

Schema make_controller_schema(const ControllerSchemaParams& params) {
  SchemaBuilder b;
  // Static configuration: the paper's "number of CPUs in the system" kind
  // of data, covered by the golden checksum.
  b.table("SystemConfig", params.config_records, /*dynamic=*/false)
      .static_field("num_cpus", 2)
      .static_field("max_calls", 1000)
      .static_field("cell_id", 0)
      .static_field("freq_base", 0)
      .static_field("sw_version", 0x010203);

  // Subscriber authentication data — static content the auth phase reads.
  b.table("Subscriber", params.subscriber_records, /*dynamic=*/false)
      .static_field("subscriber_id", 0)
      .static_field("auth_key", 0)
      .static_field("privileges", 3);

  // The three tables of the §4.3.3 semantic loop.
  b.table("Process", params.process_records, /*dynamic=*/true)
      .primary_key("process_id")
      .foreign_key("connection_id", "Connection")
      .ranged("status", 0, 3, 0)
      .ranged("priority", 0, 7, 4)
      .unruled("task_token")
      .ranged("location_area", 0, 255, 0)
      .ranged("handoff_count", 0, 15, 0);

  b.table("Connection", params.connection_records, /*dynamic=*/true)
      .primary_key("connection_id")
      .foreign_key("channel_id", "Resource")
      .unruled("caller_id")
      .unruled("callee_id")
      .ranged("state", 0, 4, 0)
      .ranged("feature_mask", 0, 255, 0)
      .ranged("codec", 0, 7, 1)
      .unruled("billing_units");

  b.table("Resource", params.resource_records, /*dynamic=*/true)
      .primary_key("channel_id")
      .foreign_key("process_id", "Process")
      .ranged("status", 0, 2, 0)
      .ranged("capability", 0, 7, 7)
      .ranged("power_level", 0, 100, 50)
      .unruled("link_quality")
      .ranged("timeslot", 0, 7, 0)
      .unruled("interference");

  return std::move(b).build();
}

ControllerIds resolve_controller_ids(const Schema& schema) {
  ControllerIds ids;
  ids.system_config = schema.table_id("SystemConfig");
  ids.subscriber = schema.table_id("Subscriber");
  ids.process = schema.table_id("Process");
  ids.connection = schema.table_id("Connection");
  ids.resource = schema.table_id("Resource");

  ids.p_process_id = schema.field_id(ids.process, "process_id");
  ids.p_connection_id = schema.field_id(ids.process, "connection_id");
  ids.p_status = schema.field_id(ids.process, "status");
  ids.p_priority = schema.field_id(ids.process, "priority");
  ids.p_task_token = schema.field_id(ids.process, "task_token");
  ids.p_location_area = schema.field_id(ids.process, "location_area");
  ids.p_handoff_count = schema.field_id(ids.process, "handoff_count");

  ids.c_connection_id = schema.field_id(ids.connection, "connection_id");
  ids.c_channel_id = schema.field_id(ids.connection, "channel_id");
  ids.c_caller_id = schema.field_id(ids.connection, "caller_id");
  ids.c_callee_id = schema.field_id(ids.connection, "callee_id");
  ids.c_state = schema.field_id(ids.connection, "state");
  ids.c_feature_mask = schema.field_id(ids.connection, "feature_mask");
  ids.c_codec = schema.field_id(ids.connection, "codec");
  ids.c_billing_units = schema.field_id(ids.connection, "billing_units");

  ids.r_channel_id = schema.field_id(ids.resource, "channel_id");
  ids.r_process_id = schema.field_id(ids.resource, "process_id");
  ids.r_status = schema.field_id(ids.resource, "status");
  ids.r_capability = schema.field_id(ids.resource, "capability");
  ids.r_power_level = schema.field_id(ids.resource, "power_level");
  ids.r_link_quality = schema.field_id(ids.resource, "link_quality");
  ids.r_timeslot = schema.field_id(ids.resource, "timeslot");
  ids.r_interference = schema.field_id(ids.resource, "interference");

  ids.s_subscriber_id = schema.field_id(ids.subscriber, "subscriber_id");
  ids.s_auth_key = schema.field_id(ids.subscriber, "auth_key");
  ids.s_privileges = schema.field_id(ids.subscriber, "privileges");
  return ids;
}

void populate_controller_static_data(std::span<std::byte> region,
                                     const Schema& schema, const Layout& layout) {
  const TableId config = schema.table_id("SystemConfig");
  const TableId subscriber = schema.table_id("Subscriber");

  const auto& config_spec = schema.tables[config];
  for (RecordIndex r = 0; r < config_spec.num_records; ++r) {
    const std::size_t at = layout.record_offset(config, r) + kRecordHeaderSize;
    store_i32(region, at + 8, mix(0xCE11u ^ r));        // cell_id
    store_i32(region, at + 12, 869'000 + 200 * static_cast<std::int32_t>(r));  // freq_base
  }

  const auto& sub_spec = schema.tables[subscriber];
  for (RecordIndex r = 0; r < sub_spec.num_records; ++r) {
    const std::size_t at = layout.record_offset(subscriber, r) + kRecordHeaderSize;
    store_i32(region, at + 0, key_of(r));                // subscriber_id
    store_i32(region, at + 4, subscriber_auth_key(r));   // auth_key
  }
}

std::unique_ptr<Database> make_controller_database(
    const ControllerSchemaParams& params) {
  static common::Memo<ControllerSchemaParams, Database> templates;
  const Database& pristine = templates.get(params, [&params] {
    // The template is no run's database: its construction's index
    // rebuilds are not counted against the run that happens to build it.
    obs::Recorder discard;
    const obs::ScopedRecorder scope(discard);
    return std::make_unique<const Database>(make_controller_schema(params),
                                            populate_controller_static_data);
  });
  return pristine.boot_copy();
}

Schema make_bench_schema(const BenchSchemaParams& params) {
  // Relative size ratio from Table 5: 7 : 18 : 1 : 125 : 8 : 4.
  const std::array<RecordIndex, 6> ratio = {7, 18, 1, 125, 8, 4};
  SchemaBuilder b;
  for (std::size_t t = 0; t < ratio.size(); ++t) {
    b.table("Bench" + std::to_string(t), ratio[t] * params.scale, /*dynamic=*/true)
        .ranged("value_a", 0, 1000, 0)
        .ranged("value_b", -100, 100, 0)
        .ranged("flags", 0, 15, 0)
        .unruled("payload");
  }
  return std::move(b).build();
}

void activate_all_records(Database& db) {
  auto region = db.region();
  const auto& layout = db.layout();
  for (std::size_t t = 0; t < db.schema().tables.size(); ++t) {
    const auto& tl = layout.tables()[t];
    for (RecordIndex r = 0; r < tl.num_records; ++r) {
      const std::size_t at = layout.record_offset(static_cast<TableId>(t), r);
      auto header = load_record_header(region, at);
      header.status = kStatusActive;
      header.group = kGroupActiveCalls;
      store_record_header(region, at, header);
    }
  }
  if (auto* obs = db.observer()) {
    obs->on_legitimate_write(layout.data_start(),
                             layout.region_size() - layout.data_start());
  }
}

}  // namespace wtc::db
