#include "db/run_op_log.hpp"

#include <algorithm>

#include "common/crc32.hpp"
#include "obs/metrics.hpp"

namespace wtc::db {
namespace {

/// The longest encoding of one event: three fixed bytes, a 10-byte time
/// delta, four 5-byte 32-bit ids, 3-byte table and field, the payload
/// length byte and eight 5-byte payload words.
constexpr std::size_t kMaxEventBytes = 3 + 10 + 4 * 5 + 2 * 3 + 1 + 8 * 5;
static_assert(kMaxEventBytes == 80);
/// The shortest: three fixed bytes and eight one-byte varints. A log
/// image of N bytes therefore holds fewer than N / 11 events, whatever
/// its chunk headers claim.
constexpr std::size_t kMinEventBytes = 3 + 8;
/// A chunk frame: payload_len, event_count, crc32.
constexpr std::size_t kFrameBytes = 12;

std::uint8_t* put_varint(std::uint8_t* out, std::uint64_t value) noexcept {
  while (value >= 0x80) {
    *out++ = static_cast<std::uint8_t>(value) | 0x80u;
    value >>= 7;
  }
  *out++ = static_cast<std::uint8_t>(value);
  return out;
}

[[nodiscard]] std::uint64_t zigzag(std::int64_t value) noexcept {
  return (static_cast<std::uint64_t>(value) << 1) ^
         static_cast<std::uint64_t>(value >> 63);
}

[[nodiscard]] std::int64_t unzigzag(std::uint64_t value) noexcept {
  return static_cast<std::int64_t>(value >> 1) ^
         -static_cast<std::int64_t>(value & 1);
}

/// Bounds-checked varint read; false on truncation or a >10-byte runaway.
bool get_varint(std::span<const std::uint8_t> bytes, std::size_t& at,
                std::uint64_t& out) {
  if (at < bytes.size() && bytes[at] < 0x80u) {
    out = bytes[at++];  // most fields of a real log fit in one byte
    return true;
  }
  out = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    if (at >= bytes.size()) {
      return false;
    }
    const std::uint8_t byte = bytes[at++];
    out |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
    if ((byte & 0x80u) == 0) {
      return true;
    }
  }
  return false;  // continuation bit set past 64 payload bits
}

[[nodiscard]] std::uint32_t load_le32(std::span<const std::uint8_t> bytes,
                                      std::size_t at) noexcept {
  return static_cast<std::uint32_t>(bytes[at]) |
         static_cast<std::uint32_t>(bytes[at + 1]) << 8 |
         static_cast<std::uint32_t>(bytes[at + 2]) << 16 |
         static_cast<std::uint32_t>(bytes[at + 3]) << 24;
}

void store_le32(std::uint8_t* out, std::uint32_t value) noexcept {
  out[0] = static_cast<std::uint8_t>(value);
  out[1] = static_cast<std::uint8_t>(value >> 8);
  out[2] = static_cast<std::uint8_t>(value >> 16);
  out[3] = static_cast<std::uint8_t>(value >> 24);
}

[[nodiscard]] std::uint32_t payload_crc(std::span<const std::uint8_t> payload) {
  return common::crc32(std::as_bytes(std::span(payload)));
}

/// Appends the encoding of `event` at `out`, which has room for
/// kMaxEventBytes; returns one past the last byte written.
std::uint8_t* encode_event(std::uint8_t* out, const ApiEvent& event,
                           sim::Time& last_time) noexcept {
  *out++ = static_cast<std::uint8_t>(event.op);
  *out++ = static_cast<std::uint8_t>(event.status);
  *out++ = event.is_update ? 1u : 0u;
  // Unsigned subtraction: the delta wraps instead of overflowing, and
  // the decoder's unsigned add undoes it.
  out = put_varint(out, zigzag(static_cast<std::int64_t>(event.time - last_time)));
  last_time = event.time;
  out = put_varint(out, event.client);
  out = put_varint(out, event.thread);
  out = put_varint(out, event.table);
  out = put_varint(out, event.record);
  out = put_varint(out, event.group);
  out = put_varint(out, event.field);
  const std::uint8_t n = static_cast<std::uint8_t>(
      std::min<std::size_t>(event.payload_len, event.payload.size()));
  *out++ = n;
  for (std::uint8_t f = 0; f < n; ++f) {
    out = put_varint(out, zigzag(event.payload[f]));
  }
  return out;
}

/// Fills in the chunk frame at `frame`, whose payload runs from behind it
/// to the end of `out`, with the payload's length, `events` and its CRC.
void seal_chunk(std::vector<std::uint8_t>& out, std::size_t frame, std::uint32_t events) {
  const std::size_t payload = frame + kFrameBytes;
  store_le32(out.data() + frame, static_cast<std::uint32_t>(out.size() - payload));
  store_le32(out.data() + frame + 4, events);
  store_le32(out.data() + frame + 8, payload_crc(std::span(out).subspan(payload)));
}

/// Encodes `events` as one chunk appended to `out`: room for the frame
/// and the longest possible payload, the payload encoded in place, then
/// the sealed frame.
void append_chunk(std::vector<std::uint8_t>& out, std::span<const ApiEvent> events,
                  sim::Time& last_time) {
  const std::size_t frame = out.size();
  out.resize(frame + kFrameBytes + events.size() * kMaxEventBytes);
  std::uint8_t* end = out.data() + frame + kFrameBytes;
  for (const ApiEvent& event : events) {
    end = encode_event(end, event, last_time);
  }
  out.resize(static_cast<std::size_t>(end - out.data()));
  seal_chunk(out, frame, static_cast<std::uint32_t>(events.size()));
}

/// How many events the chunks of a log image can hold: each chunk's
/// claimed count, capped by what its payload length leaves room for. The
/// walk stops at the first chunk that runs past the image, which the
/// decoder rejects before decoding an event of it.
[[nodiscard]] std::size_t event_bound(std::span<const std::uint8_t> bytes) noexcept {
  std::size_t bound = 0;
  for (std::size_t at = 8; bytes.size() - at >= kFrameBytes;) {
    const std::uint32_t payload_len = load_le32(bytes, at);
    const std::uint32_t event_count = load_le32(bytes, at + 4);
    at += kFrameBytes;
    if (bytes.size() - at < payload_len) {
      break;
    }
    bound += std::min<std::size_t>(event_count, payload_len / kMinEventBytes);
    at += payload_len;
  }
  return bound;
}

/// Decodes one event; false (with `error` set) on truncation/invalidity.
bool decode_event(std::span<const std::uint8_t> bytes, std::size_t& at,
                  sim::Time& last_time, ApiEvent& event, OpLogError& error) {
  if (bytes.size() - at < 3) {
    error = OpLogError::Truncated;
    return false;
  }
  const std::uint8_t op = bytes[at++];
  const std::uint8_t status = bytes[at++];
  const std::uint8_t flags = bytes[at++];
  if (op > static_cast<std::uint8_t>(ApiOp::TxnEnd) ||
      status > static_cast<std::uint8_t>(Status::BadGroup) ||
      (flags & ~0x01u) != 0) {
    error = OpLogError::BadEvent;
    return false;
  }
  std::uint64_t dt = 0, client = 0, thread = 0, table = 0, record = 0,
                group = 0, field = 0, payload_len = 0;
  if (!get_varint(bytes, at, dt) || !get_varint(bytes, at, client) ||
      !get_varint(bytes, at, thread) || !get_varint(bytes, at, table) ||
      !get_varint(bytes, at, record) || !get_varint(bytes, at, group) ||
      !get_varint(bytes, at, field) || !get_varint(bytes, at, payload_len)) {
    error = OpLogError::Truncated;
    return false;
  }
  if (client > 0xFFFFFFFFull || thread > 0xFFFFFFFFull || table > 0xFFFFull ||
      record > 0xFFFFFFFFull || group > 0xFFFFFFFFull || field > 0xFFFFull ||
      payload_len > std::tuple_size_v<decltype(ApiEvent::payload)>) {
    error = OpLogError::BadEvent;
    return false;
  }
  const std::int64_t delta = unzigzag(dt);
  event.op = static_cast<ApiOp>(op);
  event.status = static_cast<Status>(status);
  event.is_update = (flags & 1u) != 0;
  event.time = last_time + static_cast<sim::Time>(delta);
  last_time = event.time;
  event.client = static_cast<sim::ProcessId>(client);
  event.thread = static_cast<std::uint32_t>(thread);
  event.table = static_cast<TableId>(table);
  event.record = static_cast<RecordIndex>(record);
  event.group = static_cast<std::uint32_t>(group);
  event.field = static_cast<FieldId>(field);
  event.payload_len = static_cast<std::uint8_t>(payload_len);
  for (std::uint8_t f = 0; f < event.payload_len; ++f) {
    std::uint64_t value = 0;
    if (!get_varint(bytes, at, value)) {
      error = OpLogError::Truncated;
      return false;
    }
    const std::int64_t wide = unzigzag(value);
    if (wide < INT32_MIN || wide > INT32_MAX) {
      error = OpLogError::BadEvent;
      return false;
    }
    event.payload[f] = static_cast<std::int32_t>(wide);
  }
  return true;
}

}  // namespace

std::string_view to_string(OpLogError error) noexcept {
  switch (error) {
    case OpLogError::None: return "None";
    case OpLogError::CannotOpen: return "CannotOpen";
    case OpLogError::BadMagic: return "BadMagic";
    case OpLogError::Truncated: return "Truncated";
    case OpLogError::BadCrc: return "BadCrc";
    case OpLogError::BadEvent: return "BadEvent";
  }
  return "?";
}

void encode_op_log_event(std::vector<std::uint8_t>& out, const ApiEvent& event,
                         sim::Time& last_time) {
  const std::size_t at = out.size();
  out.resize(at + kMaxEventBytes);
  out.resize(static_cast<std::size_t>(
      encode_event(out.data() + at, event, last_time) - out.data()));
}

OpLogReadResult decode_op_log(std::span<const std::uint8_t> bytes) {
  OpLogReadResult result;
  std::size_t at = 0;
  if (bytes.size() < 8) {
    result.error = OpLogError::Truncated;
    result.error_offset = bytes.size();
    return result;
  }
  if (load_le32(bytes, 0) != kOpLogMagic || load_le32(bytes, 4) != kOpLogVersion) {
    result.error = OpLogError::BadMagic;
    return result;
  }
  at = 8;
  result.events.reserve(event_bound(bytes));
  sim::Time last_time = 0;
  while (at < bytes.size()) {
    if (bytes.size() - at < kFrameBytes) {
      result.error = OpLogError::Truncated;
      result.error_offset = at;
      return result;
    }
    const std::uint32_t payload_len = load_le32(bytes, at);
    const std::uint32_t event_count = load_le32(bytes, at + 4);
    const std::uint32_t crc = load_le32(bytes, at + 8);
    at += kFrameBytes;
    if (bytes.size() - at < payload_len) {
      result.error = OpLogError::Truncated;
      result.error_offset = at;
      return result;
    }
    const auto payload = bytes.subspan(at, payload_len);
    if (payload_crc(payload) != crc) {
      result.error = OpLogError::BadCrc;
      result.error_offset = at;
      return result;
    }
    std::size_t payload_at = 0;
    for (std::uint32_t i = 0; i < event_count; ++i) {
      OpLogError error = OpLogError::None;
      if (!decode_event(payload, payload_at, last_time, result.events.emplace_back(),
                        error)) {
        result.error = error;
        result.error_offset = at + payload_at;
        result.events.clear();
        return result;
      }
    }
    if (payload_at != payload_len) {
      // Trailing bytes a CRC-valid chunk never has: a framing lie.
      result.error = OpLogError::BadEvent;
      result.error_offset = at + payload_at;
      result.events.clear();
      return result;
    }
    at += payload_len;
  }
  return result;
}

OpLogReadResult load_op_log(const std::string& path) {
  OpLogReadResult result;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    result.error = OpLogError::CannotOpen;
    return result;
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[65536];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof chunk, file)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  std::fclose(file);
  return decode_op_log(bytes);
}

OpLogWriter::OpLogWriter(const std::string& path, std::uint32_t chunk_events)
    : buffer_(kFrameBytes), chunk_events_(chunk_events == 0 ? 1 : chunk_events) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    failed_ = true;
    return;
  }
  std::uint8_t header[8];
  store_le32(header, kOpLogMagic);
  store_le32(header + 4, kOpLogVersion);
  if (std::fwrite(header, 1, sizeof header, file_) != sizeof header) {
    failed_ = true;
  }
  bytes_ += sizeof header;
}

OpLogWriter::~OpLogWriter() {
  close();
}

void OpLogWriter::add(const ApiEvent& event) {
  if (!ok()) {
    return;
  }
  encode_op_log_event(buffer_, event, last_time_);
  if (++buffered_events_ >= chunk_events_) {
    flush_chunk();
  }
}

void OpLogWriter::flush_chunk() {
  if (file_ == nullptr || buffered_events_ == 0) {
    return;
  }
  seal_chunk(buffer_, 0, buffered_events_);
  if (std::fwrite(buffer_.data(), 1, buffer_.size(), file_) != buffer_.size()) {
    failed_ = true;
  }
  bytes_ += buffer_.size();
  obs::count(obs::Counter::oplog_bytes, buffer_.size());
  buffer_.resize(kFrameBytes);
  buffered_events_ = 0;
}

bool OpLogWriter::close() {
  if (file_ == nullptr) {
    return !failed_;
  }
  flush_chunk();
  if (std::fclose(file_) != 0) {
    failed_ = true;
  }
  file_ = nullptr;
  return !failed_;
}

void RunOpLog::on_api_event(const ApiEvent& event) {
  if (event.status == Status::Ok) {
    events_.push_back(event);
    obs::count(obs::Counter::oplog_recorded);
    if (writer_ != nullptr) {
      writer_->add(event);
    }
  }
  if (next_ != nullptr) {
    next_->on_api_event(event);
  }
}

bool RunOpLog::open_file(const std::string& path) {
  writer_ = std::make_unique<OpLogWriter>(path);
  if (!writer_->ok()) {
    writer_.reset();
    return false;
  }
  return true;
}

bool RunOpLog::close_file() {
  if (writer_ == nullptr) {
    return true;
  }
  const bool ok = writer_->close();
  writer_.reset();
  return ok;
}

std::vector<std::uint8_t> RunOpLog::serialize() const {
  constexpr std::size_t kChunkEvents = 1024;
  std::vector<std::uint8_t> out(8);
  store_le32(out.data(), kOpLogMagic);
  store_le32(out.data() + 4, kOpLogVersion);
  sim::Time last_time = 0;
  const std::span<const ApiEvent> events(events_);
  for (std::size_t first = 0; first < events.size(); first += kChunkEvents) {
    append_chunk(out, events.subspan(first, std::min(kChunkEvents, events.size() - first)),
                 last_time);
  }
  return out;
}

bool RunOpLog::save(const std::string& path) const {
  const std::vector<std::uint8_t> bytes = serialize();
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return false;
  }
  const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
  obs::count(obs::Counter::oplog_bytes, bytes.size());
  return std::fclose(file) == 0 && ok;
}

}  // namespace wtc::db
