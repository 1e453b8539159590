// Concrete database schemas used by the reproduction.
//
// 1. The *controller schema*: the wireless network controller's database as
//    the paper describes it — static configuration tables plus the dynamic
//    Process / Connection / Resource tables whose records form the
//    1-detectable semantic loop of §4.3.3:
//        Process.connection_id -> Connection.connection_id
//        Connection.channel_id -> Resource.channel_id
//        Resource.process_id   -> Process.process_id   (closes the loop)
//
// 2. The *prioritized-audit bench schema*: six dynamic tables with the
//    relative size ratio 7 : 18 : 1 : 125 : 8 : 4 measured from the actual
//    controller database (Table 5), used by the Figures 5/6 experiments.
#pragma once

#include <cstdint>

#include "db/database.hpp"
#include "db/schema.hpp"

namespace wtc::db {

/// Sizing knobs for the controller schema.
struct ControllerSchemaParams {
  RecordIndex process_records = 64;
  RecordIndex connection_records = 64;
  RecordIndex resource_records = 96;
  RecordIndex config_records = 16;
  RecordIndex subscriber_records = 64;

  bool operator==(const ControllerSchemaParams&) const = default;
};

/// Resolved ids for the controller schema, so client code reads like the
/// paper's example instead of numeric soup.
struct ControllerIds {
  TableId system_config;
  TableId subscriber;
  TableId process;
  TableId connection;
  TableId resource;

  // Process table fields
  FieldId p_process_id, p_connection_id, p_status, p_priority, p_task_token,
      p_location_area, p_handoff_count;
  // Connection table fields
  FieldId c_connection_id, c_channel_id, c_caller_id, c_callee_id, c_state,
      c_feature_mask, c_codec, c_billing_units;
  // Resource table fields
  FieldId r_channel_id, r_process_id, r_status, r_capability, r_power_level,
      r_link_quality, r_timeslot, r_interference;
  // Subscriber table fields
  FieldId s_subscriber_id, s_auth_key, s_privileges;

  bool operator==(const ControllerIds&) const = default;
};

/// Primary-key encoding: record `r` of a table has key value `r + 1`
/// (0 means "no reference" and is the catalog default for key fields).
[[nodiscard]] constexpr std::int32_t key_of(RecordIndex r) noexcept {
  return static_cast<std::int32_t>(r) + 1;
}
[[nodiscard]] constexpr RecordIndex record_of_key(std::int32_t key) noexcept {
  return static_cast<RecordIndex>(key - 1);
}

/// Logical groups used by the call-processing client. Group 0 is always
/// the free list; active call records live in kActiveCalls; DBmove shifts
/// long-running calls to kStableCalls (exercising Table 1's DBmove).
inline constexpr std::uint32_t kGroupFree = 0;
inline constexpr std::uint32_t kGroupActiveCalls = 1;
inline constexpr std::uint32_t kGroupStableCalls = 2;

[[nodiscard]] Schema make_controller_schema(const ControllerSchemaParams& params = {});

/// Resolves all ids; requires a schema built by make_controller_schema.
[[nodiscard]] ControllerIds resolve_controller_ids(const Schema& schema);

/// Populate hook writing distinct static configuration and subscriber
/// authentication data (deterministic function of record index).
void populate_controller_static_data(std::span<std::byte> region,
                                     const Schema& schema, const Layout& layout);

/// Deterministic auth key assigned to subscriber record `r` — the client's
/// authentication phase checks what it reads from the database against
/// this function (so corrupted subscriber data fails real authentication).
[[nodiscard]] std::int32_t subscriber_auth_key(RecordIndex r) noexcept;

/// Constructs the controller database (schema + static data). Each call
/// returns a `boot_copy` of a pristine template built once per `params`
/// and kept for the life of the process.
[[nodiscard]] std::unique_ptr<Database> make_controller_database(
    const ControllerSchemaParams& params = {});

// --- prioritized-audit bench schema (Table 5) ---

struct BenchSchemaParams {
  /// Scale multiplier over the 7:18:1:125:8:4 ratio (records per unit).
  RecordIndex scale = 4;
};

[[nodiscard]] Schema make_bench_schema(const BenchSchemaParams& params = {});

/// Activates every record of every table (the Figures 5/6 emulated client
/// overwrites records in place rather than allocating per call).
void activate_all_records(Database& db);

}  // namespace wtc::db
