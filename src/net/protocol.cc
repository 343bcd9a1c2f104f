#include "src/net/protocol.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"
#include "src/common/crc32.h"

namespace skl {

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kPing: return "Ping";
    case MsgType::kReaches: return "Reaches";
    case MsgType::kReachesBatch: return "ReachesBatch";
    case MsgType::kDependsOn: return "DependsOn";
    case MsgType::kDependsOnBatch: return "DependsOnBatch";
    case MsgType::kModuleDependsOnData: return "ModuleDependsOnData";
    case MsgType::kDataDependsOnModule: return "DataDependsOnModule";
    case MsgType::kAddRun: return "AddRun";
    case MsgType::kImportRun: return "ImportRun";
    case MsgType::kExportRun: return "ExportRun";
    case MsgType::kRemoveRun: return "RemoveRun";
    case MsgType::kListRuns: return "ListRuns";
    case MsgType::kRunStats: return "RunStats";
    case MsgType::kServiceStats: return "ServiceStats";
    case MsgType::kSaveSnapshot: return "SaveSnapshot";
    case MsgType::kLoadSnapshot: return "LoadSnapshot";
    case MsgType::kShutdown: return "Shutdown";
    case MsgType::kSnapshotFetch: return "SnapshotFetch";
    case MsgType::kSubscribe: return "Subscribe";
    case MsgType::kMetrics: return "Metrics";
    case MsgType::kSlowQueries: return "SlowQueries";
    case MsgType::kApplySpecDelta: return "ApplySpecDelta";
    case MsgType::kReply: return "Reply";
    case MsgType::kError: return "Error";
    case MsgType::kLogEntries: return "LogEntries";
    case MsgType::kRetryAt: return "RetryAt";
  }
  return "Unknown";
}

bool IsRequestType(uint8_t type) {
  return type >= static_cast<uint8_t>(MsgType::kPing) &&
         type <= static_cast<uint8_t>(MsgType::kApplySpecDelta);
}

namespace {

void StoreBigEndian32(uint32_t value, uint8_t* out) {
  out[0] = static_cast<uint8_t>(value >> 24);
  out[1] = static_cast<uint8_t>(value >> 16);
  out[2] = static_cast<uint8_t>(value >> 8);
  out[3] = static_cast<uint8_t>(value);
}

}  // namespace

void EncodeFrame(const Frame& frame, std::vector<uint8_t>* out) {
  uint8_t request_id[kMaxVarintBytes];
  const size_t id_bytes = EncodeVarint(frame.request_id, request_id);
  const size_t body_len = 2 + id_bytes + frame.payload.size();
  SKL_CHECK_MSG(body_len <= UINT32_MAX,
                "frame body does not fit the 32-bit length field");

  // Header and body go straight into *out; the body CRC is back-patched
  // once the body bytes are in place.
  const size_t start = out->size();
  out->reserve(start + kFrameHeaderBytes + body_len);
  out->resize(start + kFrameHeaderBytes);
  uint8_t* header = out->data() + start;
  header[0] = static_cast<uint8_t>(kFrameMagic >> 8);
  header[1] = static_cast<uint8_t>(kFrameMagic & 0xFF);
  StoreBigEndian32(static_cast<uint32_t>(body_len), header + 2);
  out->push_back(frame.version);
  out->push_back(static_cast<uint8_t>(frame.type));
  out->insert(out->end(), request_id, request_id + id_bytes);
  out->insert(out->end(), frame.payload.begin(), frame.payload.end());
  const std::span<const uint8_t> body(out->data() + start + kFrameHeaderBytes,
                                      body_len);
  StoreBigEndian32(Crc32(body), out->data() + start + 6);
}

void FrameDecoder::Feed(std::span<const uint8_t> bytes) {
  // Compact the already-decoded prefix before growing; keeps long-lived
  // connections from accumulating every frame ever received.
  if (consumed_ > 0 && consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  } else if (consumed_ > 4096) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

Result<std::optional<Frame>> FrameDecoder::Next() {
  if (poisoned_.has_value()) return *poisoned_;
  const size_t available = buffer_.size() - consumed_;
  if (available < kFrameHeaderBytes) return std::optional<Frame>();

  const uint8_t* base = buffer_.data() + consumed_;
  BitReader header(base, kFrameHeaderBytes);
  uint64_t magic = 0, body_len = 0, body_crc = 0;
  // The header reads cannot fail: kFrameHeaderBytes are present.
  (void)header.Read(16, &magic);
  (void)header.Read(32, &body_len);
  (void)header.Read(32, &body_crc);
  if (magic != kFrameMagic) {
    poisoned_ = Status::ParseError(
        "bad frame magic: peer is not speaking the SKL wire protocol or the "
        "stream lost frame synchronization");
    return *poisoned_;
  }
  if (body_len > max_frame_bytes_) {
    poisoned_ = Status::ParseError(
        "frame length " + std::to_string(body_len) +
        " exceeds the maximum of " + std::to_string(max_frame_bytes_) +
        " bytes (corrupted length prefix?)");
    return *poisoned_;
  }
  if (body_len < 2) {  // version + type are mandatory
    poisoned_ = Status::ParseError("frame body too short for version+type");
    return *poisoned_;
  }
  if (available < kFrameHeaderBytes + body_len) {
    return std::optional<Frame>();  // incomplete: wait for more bytes
  }

  const std::span<const uint8_t> body(base + kFrameHeaderBytes,
                                      static_cast<size_t>(body_len));
  if (Crc32(body) != body_crc) {
    poisoned_ = Status::ParseError(
        "frame checksum mismatch: body of " + std::to_string(body_len) +
        " bytes does not match its CRC-32");
    return *poisoned_;
  }

  Frame frame;
  frame.version = body[0];
  frame.type = static_cast<MsgType>(body[1]);
  BitReader body_reader(body.data() + 2, body.size() - 2);
  uint64_t request_id = 0;
  Status id_status = body_reader.ReadVarint(&request_id);
  if (!id_status.ok()) {
    // CRC was fine, so this is a malformed body encoding, not line noise;
    // still unrecoverable as a message, and ids cannot be echoed.
    poisoned_ = Status::ParseError("frame body truncated inside request id");
    return *poisoned_;
  }
  frame.request_id = request_id;
  body_reader.AlignToByte();
  const size_t payload_offset = 2 + body_reader.bit_position() / 8;
  frame.payload.assign(body.begin() + static_cast<ptrdiff_t>(payload_offset),
                       body.end());
  consumed_ += kFrameHeaderBytes + static_cast<size_t>(body_len);
  return std::optional<Frame>(std::move(frame));
}

Result<uint64_t> PayloadReader::U64() {
  uint64_t value = 0;
  SKL_RETURN_NOT_OK(reader_.ReadVarint(&value));
  return value;
}

Result<bool> PayloadReader::Boolean() {
  uint64_t value = 0;
  SKL_RETURN_NOT_OK(reader_.Read(8, &value));
  if (value > 1) {
    return Status::ParseError("boolean field holds " + std::to_string(value));
  }
  return value == 1;
}

Status PayloadReader::Booleans(size_t count, std::vector<bool>* out) {
  reader_.AlignToByte();
  // Check the bytes that are present before reporting a truncation, so a
  // bad byte is named exactly as Boolean() would name it.
  const size_t present = std::min(count, remaining_bytes());
  std::span<const uint8_t> bytes;
  SKL_RETURN_NOT_OK(reader_.ReadBytes(present, &bytes));
  for (uint8_t byte : bytes) {
    if (byte > 1) {
      return Status::ParseError("boolean field holds " + std::to_string(byte));
    }
  }
  if (present < count) return Status::ParseError("bit stream exhausted");
  out->assign(bytes.begin(), bytes.end());
  return Status::OK();
}

Status PayloadReader::IdPairs(uint64_t count, const char* what,
                              std::vector<std::pair<uint32_t, uint32_t>>* out) {
  reader_.AlignToByte();
  const size_t start = reader_.bit_position() / 8;
  size_t pos = start;
  // BitReader::ReadVarint's decoding, inlined: this runs once per id of a
  // batch, and a Status per id cost more than the label compare answering
  // it. The Status is built once, for the first failing id.
  enum class Fail { kNone, kExhausted, kTooLong, kTooWide };
  auto next_id = [&](uint32_t* id) -> Fail {
    uint64_t value = 0;
    for (int shift = 0;; shift += 7) {
      if (shift > 63) return Fail::kTooLong;
      if (pos >= size_bytes_) return Fail::kExhausted;
      const uint64_t byte = data_[pos++];
      value |= (byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) break;
    }
    if (value > UINT32_MAX) return Fail::kTooWide;
    *id = static_cast<uint32_t>(value);
    return Fail::kNone;
  };
  // Every pair costs at least two bytes.
  out->reserve(std::min<uint64_t>(count, (size_bytes_ - start) / 2));
  Fail fail = Fail::kNone;
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t first = 0;
    uint32_t second = 0;
    if ((fail = next_id(&first)) != Fail::kNone) break;
    if ((fail = next_id(&second)) != Fail::kNone) break;
    out->emplace_back(first, second);
  }
  switch (fail) {
    case Fail::kNone:
      break;
    case Fail::kExhausted:
      return Status::ParseError("bit stream exhausted");
    case Fail::kTooLong:
      return Status::ParseError("varint too long");
    case Fail::kTooWide:
      return Status::InvalidArgument(std::string(what) +
                                     " does not fit 32 bits");
  }
  std::span<const uint8_t> consumed;
  return reader_.ReadBytes(pos - start, &consumed);
}

Result<std::span<const uint8_t>> PayloadReader::Bytes() {
  uint64_t length = 0;
  SKL_RETURN_NOT_OK(reader_.ReadVarint(&length));
  std::span<const uint8_t> out;
  SKL_RETURN_NOT_OK(reader_.ReadBytes(static_cast<size_t>(length), &out));
  return out;
}

Result<std::string> PayloadReader::Str() {
  SKL_ASSIGN_OR_RETURN(std::span<const uint8_t> bytes, Bytes());
  return std::string(reinterpret_cast<const char*>(bytes.data()),
                     bytes.size());
}

Status PayloadReader::ExpectEnd() {
  reader_.AlignToByte();
  if (reader_.bit_position() / 8 != size_bytes_) {
    return Status::ParseError(
        "payload has " +
        std::to_string(size_bytes_ - reader_.bit_position() / 8) +
        " trailing bytes");
  }
  return Status::OK();
}

std::vector<uint8_t> EncodeErrorPayload(const Status& status,
                                        uint64_t trace_id) {
  PayloadWriter writer;
  writer.U64(static_cast<uint64_t>(status.code()));
  writer.Str(status.message());
  writer.U64(trace_id);
  return std::move(writer).Finish();
}

Status DecodeErrorPayload(std::span<const uint8_t> payload,
                          uint64_t* trace_id) {
  *trace_id = 0;
  PayloadReader reader(payload);
  uint64_t code = 0, trace = 0;
  std::string message;
  const Status parsed = [&]() -> Status {
    SKL_ASSIGN_OR_RETURN(code, reader.U64());
    SKL_ASSIGN_OR_RETURN(message, reader.Str());
    SKL_ASSIGN_OR_RETURN(trace, reader.U64());
    return reader.ExpectEnd();
  }();
  if (!parsed.ok()) {
    return Status::ParseError("malformed error payload: " + parsed.message());
  }
  *trace_id = trace;
  if (code == static_cast<uint64_t>(StatusCode::kOk) ||
      code > static_cast<uint64_t>(StatusCode::kEpochMismatch)) {
    // An error frame must carry an error; map codes from a future peer to
    // Internal but keep the human-readable message.
    return Status(StatusCode::kInternal,
                  "remote error with unknown code " + std::to_string(code) +
                      ": " + message);
  }
  return Status(static_cast<StatusCode>(code), std::move(message));
}

}  // namespace skl
