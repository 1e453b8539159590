// Whole-run DbApi operation log (DESIGN §16's log-replay audit arm; the
// whole-run generalization of the per-thread healing feed in op_log.hpp).
//
// `RunOpLog` is a NotificationSink tee: every *successful* ApiEvent —
// across all client threads, in arrival order — is recorded, then
// forwarded to the chained sink, so installing the recorder changes
// nothing the audit process sees. Arrival order is the ground truth the
// two consumers rely on:
//   * the replay audit arm (audit/replay.hpp) re-executes the log against
//     a shadow region and compares word-for-word — exact because alloc
//     picks the lowest free index deterministically and update events
//     carry post-write field snapshots;
//   * the replay workload engine (experiments/replay_workload.hpp)
//     re-applies the log through a fresh DbApi with no call-processing
//     simulation at all, reproducing the recorded run's region
//     byte-for-byte.
//
// On-disk format (little-endian):
//   [u32 magic 'WOPL'][u32 version]
//   chunk*: [u32 payload_len][u32 event_count][u32 crc32(payload)][payload]
// Each payload is `event_count` varint-packed events:
//   op(1) status(1) flags(1: bit0 is_update)
//   zigzag-varint time delta from the previous event,
//   varints client, thread, table, record, group, field, payload_len,
//   then payload_len zigzag-varint field values.
// The reader is a trust boundary (fuzzed by fuzz_oplog): every chunk must
// pass the CRC, decode exactly event_count events consuming exactly
// payload_len bytes, and every event must be range-valid (op, status,
// payload_len <= 8) — anything else is a typed error, never UB.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "db/api.hpp"

namespace wtc::db {

inline constexpr std::uint32_t kOpLogMagic = 0x4C504F57u;  // 'WOPL'
inline constexpr std::uint32_t kOpLogVersion = 1;

enum class OpLogError : std::uint8_t {
  None = 0,
  CannotOpen,  ///< file missing/unreadable (load_op_log only)
  BadMagic,    ///< header magic or version mismatch
  Truncated,   ///< byte stream ends inside a header, chunk, or event
  BadCrc,      ///< chunk payload does not match its CRC frame
  BadEvent,    ///< decoded event is range-invalid (op/status/payload_len)
};

[[nodiscard]] std::string_view to_string(OpLogError error) noexcept;

/// Appends one varint-packed event to `out`. `last_time` is the running
/// delta base; the caller threads it through consecutive appends.
void encode_op_log_event(std::vector<std::uint8_t>& out, const ApiEvent& event,
                         sim::Time& last_time);

struct OpLogReadResult {
  std::vector<ApiEvent> events;
  OpLogError error = OpLogError::None;
  /// Byte offset the decoder had consumed when it hit `error`.
  std::size_t error_offset = 0;

  [[nodiscard]] bool ok() const noexcept { return error == OpLogError::None; }
};

/// Decodes a complete in-memory log image (header + chunks).
[[nodiscard]] OpLogReadResult decode_op_log(std::span<const std::uint8_t> bytes);

/// Reads and decodes a log file.
[[nodiscard]] OpLogReadResult load_op_log(const std::string& path);

/// Streaming writer: buffers events and emits one CRC-framed chunk every
/// `chunk_events` (and at close). Counts obs `oplog.bytes`.
class OpLogWriter {
 public:
  explicit OpLogWriter(const std::string& path, std::uint32_t chunk_events = 1024);
  ~OpLogWriter();

  OpLogWriter(const OpLogWriter&) = delete;
  OpLogWriter& operator=(const OpLogWriter&) = delete;

  [[nodiscard]] bool ok() const noexcept { return file_ != nullptr && !failed_; }
  void add(const ApiEvent& event);
  /// Flushes the tail chunk and closes the file; false on any I/O error.
  bool close();

  [[nodiscard]] std::uint64_t bytes_written() const noexcept { return bytes_; }

 private:
  void flush_chunk();

  std::FILE* file_ = nullptr;
  /// The chunk being built: its 12-byte frame, sealed at flush, then
  /// the encoded events.
  std::vector<std::uint8_t> buffer_;
  std::uint32_t buffered_events_ = 0;
  std::uint32_t chunk_events_;
  sim::Time last_time_ = 0;
  std::uint64_t bytes_ = 0;
  bool failed_ = false;
};

/// The recording tee. Keeps the in-memory event sequence (the replay
/// audit's food) and optionally streams it to disk as it grows.
class RunOpLog final : public NotificationSink {
 public:
  explicit RunOpLog(NotificationSink* next = nullptr) : next_(next) {}

  /// Where recorded events go next (the audit sink when an audit runs).
  void set_next(NotificationSink* next) noexcept { next_ = next; }

  void on_api_event(const ApiEvent& event) override;

  /// All recorded (successful) events, arrival order.
  [[nodiscard]] const std::vector<ApiEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::uint64_t recorded() const noexcept { return events_.size(); }

  /// Opens a streaming writer; every event recorded from now on is also
  /// written to `path`. False if the file cannot be opened.
  bool open_file(const std::string& path);
  /// Closes the streaming writer (flushing the tail chunk), if open.
  bool close_file();

  /// One-shot serialization of everything recorded so far.
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  bool save(const std::string& path) const;

 private:
  NotificationSink* next_;
  std::vector<ApiEvent> events_;
  std::unique_ptr<OpLogWriter> writer_;
};

}  // namespace wtc::db
