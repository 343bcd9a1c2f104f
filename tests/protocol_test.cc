// Wire-protocol robustness: frame round trips, incremental decoding, and —
// mirroring snapshot_test.cc's fuzz style — byte-exhaustive truncation and
// corruption over encoded frames. Every malformed input must come back as a
// descriptive ParseError (or "incomplete, feed more"), never a decoded
// frame and never a crash; the CRC makes a single flipped byte detectable
// at every position.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/temp_path.h"
#include "src/core/provenance_service.h"
#include "src/io/workflow_xml.h"
#include "src/net/protocol.h"
#include "src/replication/oplog.h"
#include "tests/test_util.h"

namespace skl {
namespace {

Frame MakeReachesFrame(uint64_t request_id) {
  Frame frame;
  frame.type = MsgType::kReaches;
  frame.request_id = request_id;
  PayloadWriter payload;
  payload.U64(7);   // run id
  payload.U64(3);   // v
  payload.U64(12);  // w
  frame.payload = std::move(payload).Finish();
  return frame;
}

std::vector<uint8_t> Encode(const Frame& frame) {
  std::vector<uint8_t> bytes;
  EncodeFrame(frame, &bytes);
  return bytes;
}

void ExpectFramesEqual(const Frame& a, const Frame& b) {
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.request_id, b.request_id);
  EXPECT_EQ(a.payload, b.payload);
}

TEST(ProtocolTest, FrameRoundTrips) {
  for (const Frame& frame :
       {MakeReachesFrame(1), MakeReachesFrame(UINT64_MAX),
        Frame{kProtocolVersion, MsgType::kPing, 0, {}},
        Frame{kProtocolVersion, MsgType::kImportRun, 42,
              std::vector<uint8_t>(100000, 0xAB)}}) {
    FrameDecoder decoder;
    decoder.Feed(Encode(frame));
    auto next = decoder.Next();
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    ASSERT_TRUE(next->has_value());
    ExpectFramesEqual(**next, frame);
    // Exactly one frame; the stream is fully consumed.
    auto empty = decoder.Next();
    ASSERT_TRUE(empty.ok());
    EXPECT_FALSE(empty->has_value());
    EXPECT_EQ(decoder.buffered_bytes(), 0u);
  }
}

TEST(ProtocolTest, DecodesManyFramesFedByteByByte) {
  std::vector<uint8_t> wire;
  for (uint64_t id = 1; id <= 3; ++id) {
    EncodeFrame(MakeReachesFrame(id), &wire);
  }
  FrameDecoder decoder;
  uint64_t decoded = 0;
  for (uint8_t byte : wire) {
    decoder.Feed({&byte, 1});
    for (;;) {
      auto next = decoder.Next();
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      if (!next->has_value()) break;
      ++decoded;
      EXPECT_EQ((*next)->request_id, decoded);
      ExpectFramesEqual(**next, MakeReachesFrame(decoded));
    }
  }
  EXPECT_EQ(decoded, 3u);
}

TEST(ProtocolTest, TruncationAtEveryPrefixIsIncompleteNotError) {
  const std::vector<uint8_t> wire = Encode(MakeReachesFrame(9));
  for (size_t len = 0; len < wire.size(); ++len) {
    FrameDecoder decoder;
    decoder.Feed({wire.data(), len});
    auto next = decoder.Next();
    ASSERT_TRUE(next.ok()) << "prefix of " << len << " bytes: "
                           << next.status().ToString();
    EXPECT_FALSE(next->has_value()) << "prefix of " << len << " bytes";
    // Feeding the remainder completes the frame: truncation was benign.
    decoder.Feed({wire.data() + len, wire.size() - len});
    auto completed = decoder.Next();
    ASSERT_TRUE(completed.ok());
    ASSERT_TRUE(completed->has_value());
    ExpectFramesEqual(**completed, MakeReachesFrame(9));
  }
}

TEST(ProtocolTest, CorruptionAtEveryByteNeverYieldsAFrame) {
  const Frame original = MakeReachesFrame(5);
  const std::vector<uint8_t> wire = Encode(original);
  // A valid Ping follows the corrupted frame, as it would on a pipelined
  // connection; it must never be misparsed as part of the damage.
  std::vector<uint8_t> tail;
  EncodeFrame(Frame{kProtocolVersion, MsgType::kPing, 6, {}}, &tail);

  for (size_t i = 0; i < wire.size(); ++i) {
    for (uint8_t flip : {uint8_t{0x01}, uint8_t{0xFF}}) {
      std::vector<uint8_t> corrupted = wire;
      corrupted[i] ^= flip;
      FrameDecoder decoder;
      decoder.Feed(corrupted);
      decoder.Feed(tail);
      auto next = decoder.Next();
      if (next.ok()) {
        // The corruption may leave the stream incomplete (e.g. an inflated
        // length prefix) — but it must never decode into a frame.
        EXPECT_FALSE(next->has_value())
            << "byte " << i << " ^ " << int(flip) << " decoded a frame";
      } else {
        EXPECT_EQ(next.status().code(), StatusCode::kParseError);
        EXPECT_FALSE(next.status().message().empty());
        // Poisoned: the error is sticky, the tail is not resynced into.
        EXPECT_TRUE(decoder.poisoned());
        auto again = decoder.Next();
        EXPECT_FALSE(again.ok());
      }
    }
  }
}

TEST(ProtocolTest, OversizedLengthPrefixIsBoundedNotAllocated) {
  // Header claiming a ~4GB body: must fail fast on the configured ceiling,
  // not wait for (or allocate) gigabytes.
  std::vector<uint8_t> wire = Encode(MakeReachesFrame(1));
  wire[2] = 0xFF;  // big-endian body_len high byte
  FrameDecoder decoder(/*max_frame_bytes=*/1 << 20);
  decoder.Feed(wire);
  auto next = decoder.Next();
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kParseError);
  EXPECT_NE(next.status().message().find("exceeds the maximum"),
            std::string::npos)
      << next.status().ToString();
}

TEST(ProtocolTest, UnsupportedVersionDecodesForTheDispatcherToReject) {
  // A CRC-intact frame of another protocol version is not line noise: the
  // decoder hands it over so the server can answer a descriptive error.
  Frame future = MakeReachesFrame(2);
  future.version = kProtocolVersion + 3;
  FrameDecoder decoder;
  decoder.Feed(Encode(future));
  auto next = decoder.Next();
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  ASSERT_TRUE(next->has_value());
  EXPECT_EQ((*next)->version, kProtocolVersion + 3);
}

TEST(ProtocolTest, PayloadReaderRejectsTruncationAndTrailingBytes) {
  PayloadWriter writer;
  writer.U64(300);
  writer.Boolean(true);
  writer.Str("hello");
  const std::vector<uint8_t> payload = std::move(writer).Finish();

  {
    PayloadReader reader(payload);
    ASSERT_TRUE(reader.U64().ok());
    ASSERT_TRUE(reader.Boolean().ok());
    auto s = reader.Str();
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(*s, "hello");
    EXPECT_TRUE(reader.ExpectEnd().ok());
  }
  {
    // Stopping early is a shape mismatch.
    PayloadReader reader(payload);
    ASSERT_TRUE(reader.U64().ok());
    Status end = reader.ExpectEnd();
    ASSERT_FALSE(end.ok());
    EXPECT_EQ(end.code(), StatusCode::kParseError);
    EXPECT_NE(end.message().find("trailing"), std::string::npos);
  }
  {
    // Reading past the end fails instead of fabricating values.
    PayloadReader reader(payload);
    ASSERT_TRUE(reader.U64().ok());
    ASSERT_TRUE(reader.Boolean().ok());
    ASSERT_TRUE(reader.Str().ok());
    EXPECT_FALSE(reader.U64().ok());
  }
  {
    // A blob length pointing past the payload is caught by the read.
    PayloadWriter w;
    w.U64(1000);  // as a Bytes() length this overruns
    const std::vector<uint8_t> bad = std::move(w).Finish();
    PayloadReader reader(bad);
    EXPECT_FALSE(reader.Bytes().ok());
  }
}

TEST(ProtocolTest, IdPairsReadsABatchAndFailsLikeOneIdAtATime) {
  constexpr uint64_t kPairs = 9;
  constexpr uint64_t kTooWide = uint64_t{1} << 32;
  auto encode = [&](uint64_t wide_at) {  // id index holding 2^32, or none
    PayloadWriter w;
    for (uint64_t i = 0; i < 2 * kPairs; ++i) {
      w.U64(i == wide_at ? kTooWide : i * 100000);  // 1- to 3-byte varints
    }
    w.U64(77);  // the field after the pairs
    return std::move(w).Finish();
  };

  const std::vector<uint8_t> good = encode(/*wide_at=*/2 * kPairs);
  {
    PayloadReader reader(good);
    std::vector<std::pair<uint32_t, uint32_t>> pairs;
    ASSERT_TRUE(reader.IdPairs(kPairs, "vertex id", &pairs).ok());
    ASSERT_EQ(pairs.size(), kPairs);
    for (uint32_t i = 0; i < kPairs; ++i) {
      EXPECT_EQ(pairs[i].first, 2 * i * 100000);
      EXPECT_EQ(pairs[i].second, (2 * i + 1) * 100000);
    }
    auto next = reader.U64();  // the reader stands right after the pairs
    ASSERT_TRUE(next.ok());
    EXPECT_EQ(*next, 77u);
    EXPECT_TRUE(reader.ExpectEnd().ok());
  }
  {
    // UINT32_MAX itself fits.
    PayloadWriter w;
    w.U64(UINT32_MAX);
    w.U64(0);
    const std::vector<uint8_t> payload = std::move(w).Finish();
    PayloadReader reader(payload);
    std::vector<std::pair<uint32_t, uint32_t>> pairs;
    ASSERT_TRUE(reader.IdPairs(1, "item id", &pairs).ok());
    EXPECT_EQ(pairs[0].first, UINT32_MAX);
  }
  // An over-wide id at the first, a middle and the last pair, on either
  // side of the pair, names the caller's id kind.
  for (uint64_t pair : {uint64_t{0}, kPairs / 2, kPairs - 1}) {
    for (uint64_t side : {0, 1}) {
      const std::vector<uint8_t> payload = encode(2 * pair + side);
      for (const char* what : {"vertex id", "item id"}) {
        PayloadReader reader(payload);
        std::vector<std::pair<uint32_t, uint32_t>> pairs;
        const Status status = reader.IdPairs(kPairs, what, &pairs);
        EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
            << "pair " << pair << " side " << side;
        EXPECT_EQ(status.message(),
                  std::string(what) + " does not fit 32 bits");
      }
    }
  }
  // Truncation anywhere in the pairs, including mid-varint.
  const size_t pairs_bytes = good.size() - 1;  // 77 is one byte
  for (size_t cut = 0; cut < pairs_bytes; ++cut) {
    PayloadReader reader(std::span<const uint8_t>(good.data(), cut));
    std::vector<std::pair<uint32_t, uint32_t>> pairs;
    const Status status = reader.IdPairs(kPairs, "vertex id", &pairs);
    EXPECT_EQ(status.code(), StatusCode::kParseError) << "cut " << cut;
    EXPECT_EQ(status.message(), "bit stream exhausted") << "cut " << cut;
  }
  {
    // An over-wide id before a truncation reports the width, as a
    // one-at-a-time read would reach it first.
    const std::vector<uint8_t> wide = encode(1);
    PayloadReader reader(std::span<const uint8_t>(wide.data(), 8));
    std::vector<std::pair<uint32_t, uint32_t>> pairs;
    EXPECT_EQ(reader.IdPairs(kPairs, "vertex id", &pairs).code(),
              StatusCode::kInvalidArgument);
  }
  {
    // Eleven continuation bytes: longer than any 64-bit varint.
    const std::vector<uint8_t> endless(11, 0x80);
    PayloadReader reader(endless);
    std::vector<std::pair<uint32_t, uint32_t>> pairs;
    const Status status = reader.IdPairs(1, "vertex id", &pairs);
    EXPECT_EQ(status.code(), StatusCode::kParseError);
    EXPECT_EQ(status.message(), "varint too long");
  }
  {
    // A count far beyond the payload reserves by the bytes present and
    // fails on the first missing id.
    PayloadReader reader(good);
    std::vector<std::pair<uint32_t, uint32_t>> pairs;
    EXPECT_EQ(reader.IdPairs(uint64_t{1} << 60, "vertex id", &pairs).message(),
              "bit stream exhausted");
    EXPECT_LE(pairs.capacity(), good.size());
  }
}

TEST(ProtocolTest, ErrorPayloadRoundTripsEveryCode) {
  uint64_t trace_id = 0;
  for (StatusCode code :
       {StatusCode::kInvalidArgument, StatusCode::kInvalidSpecification,
        StatusCode::kInvalidRun, StatusCode::kNotFound,
        StatusCode::kParseError, StatusCode::kCapacityExceeded,
        StatusCode::kInternal, StatusCode::kCancelled,
        StatusCode::kUnavailable, StatusCode::kRetryAt,
        StatusCode::kEpochMismatch}) {
    const Status original(code, std::string("message for ") +
                                    StatusCodeName(code));
    trace_id = trace_id * 131 + 7;
    uint64_t decoded_trace = 0;
    Status decoded = DecodeErrorPayload(
        EncodeErrorPayload(original, trace_id), &decoded_trace);
    EXPECT_EQ(decoded.code(), original.code());
    EXPECT_EQ(decoded.message(), original.message());
    EXPECT_EQ(decoded_trace, trace_id);
  }
}

TEST(ProtocolTest, UnknownErrorCodeMapsToInternalKeepingTheMessage) {
  PayloadWriter writer;
  writer.U64(200);  // a code from the future
  writer.Str("future failure");
  writer.U64(9);
  uint64_t trace = 0;
  Status decoded = DecodeErrorPayload(std::move(writer).Finish(), &trace);
  EXPECT_EQ(decoded.code(), StatusCode::kInternal);
  EXPECT_NE(decoded.message().find("future failure"), std::string::npos);
  EXPECT_EQ(trace, 9u);
}

TEST(ProtocolTest, MalformedErrorPayloadIsAParseError) {
  PayloadWriter no_trace;  // code + message only: the trace id is missing
  no_trace.U64(static_cast<uint64_t>(StatusCode::kNotFound));
  no_trace.Str("run 7");
  for (const std::vector<uint8_t>& payload :
       {std::vector<uint8_t>{0x01}, std::move(no_trace).Finish()}) {
    uint64_t trace = 5;
    Status decoded = DecodeErrorPayload(payload, &trace);
    EXPECT_EQ(decoded.code(), StatusCode::kParseError);
    EXPECT_NE(decoded.message().find("malformed error payload"),
              std::string::npos);
    EXPECT_EQ(trace, 0u);
  }
}

// ------------------------------------------------------ golden bytes --
//
// Fixed inputs whose encodings were recorded from the bit-at-a-time codec.
// A change to any byte on the wire or on disk fails here, whatever the
// round-trip tests say: both ends of a round trip can drift together.

std::string Hex(std::span<const uint8_t> bytes) {
  std::string out;
  char buf[3];
  for (uint8_t b : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", b);
    out += buf;
  }
  return out;
}

constexpr uint64_t kGoldenRequestId = 300;  // a two-byte varint

/// A v6 kReachesBatch request: run 3, eight pairs spanning one- to
/// five-byte varints, read LSN 1234, trace id 0x1D2C3B4A5968.
Frame GoldenBatchRequest() {
  static constexpr std::pair<uint64_t, uint64_t> kPairs[8] = {
      {0, 1},         {5, 127},        {128, 300},          {16383, 16384},
      {2, 2},         {70000, 9},      {uint64_t{1} << 21, 1},
      {UINT32_MAX, 42}};
  PayloadWriter payload;
  payload.U64(3);
  payload.U64(8);
  for (const auto& [v, w] : kPairs) {
    payload.U64(v);
    payload.U64(w);
  }
  payload.U64(1234);
  payload.U64(0x1D2C3B4A5968ULL);
  return Frame{kProtocolVersion, MsgType::kReachesBatch, kGoldenRequestId,
               std::move(payload).Finish()};
}

/// Its kReply: eight answers.
Frame GoldenBatchReply() {
  PayloadWriter payload;
  payload.U64(8);
  for (bool answer : {true, false, true, true, false, false, true, false}) {
    payload.Boolean(answer);
  }
  return Frame{kProtocolVersion, MsgType::kReply, kGoldenRequestId,
               std::move(payload).Finish()};
}

TEST(ProtocolGoldenTest, ReachesBatchRequestFrameBytes) {
  ASSERT_EQ(kProtocolVersion, 6) << "a version bump must re-record the "
                                    "golden frames below";
  const Frame request = GoldenBatchRequest();
  const std::vector<uint8_t> wire = Encode(request);
  EXPECT_EQ(Hex(wire),
            "534e0000002d0db1cdb70603ac0203080001057f8001ac02ff7f808001"
            "0202f0a204098080800101ffffffff0f2ad209e8b2a9dac3a507");
  FrameDecoder decoder;
  decoder.Feed(wire);
  auto next = decoder.Next();
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  ASSERT_TRUE(next->has_value());
  ExpectFramesEqual(**next, request);
}

TEST(ProtocolGoldenTest, ReachesBatchReplyFrameBytes) {
  const Frame reply = GoldenBatchReply();
  const std::vector<uint8_t> wire = Encode(reply);
  EXPECT_EQ(Hex(wire), "534e0000000df835bfcf0640ac02080100010100000100");
  FrameDecoder decoder;
  decoder.Feed(wire);
  auto next = decoder.Next();
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  ASSERT_TRUE(next->has_value());
  ExpectFramesEqual(**next, reply);
}

TEST(ProtocolGoldenTest, ProvenanceStoreBlobChecksum) {
  // The paper's running example (Figures 2-3) labeled under TCM, plus a
  // data catalog with one item per writing vertex read by all of its
  // successors: unaligned label fields and varint catalog columns.
  testing_util::RunningExample ex = testing_util::MakeRunningExample();
  DataCatalog catalog;
  const Digraph& graph = ex.run.graph();
  for (VertexId u = 0; u < graph.num_vertices(); ++u) {
    if (graph.OutDegree(u) == 0) continue;
    const DataItemId item = catalog.AddItem(u);
    for (VertexId v : graph.OutNeighbors(u)) {
      ASSERT_TRUE(catalog.AddFlow(item, u, v).ok());
    }
  }
  auto service =
      ProvenanceService::Create(std::move(ex.spec), SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  auto id = service->AddRun(ex.run, &catalog);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto blob = service->ExportRun(*id);
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  EXPECT_EQ(blob->size(), 93u);
  EXPECT_EQ(Crc32(*blob), 0x9be4818cu);
}

TEST(ProtocolGoldenTest, ErrorPayloadBytes) {
  // kNotFound (4), "run 7", trace id 0x1234 (a two-byte varint).
  const std::vector<uint8_t> payload =
      EncodeErrorPayload(Status::NotFound("run 7"), 0x1234);
  EXPECT_EQ(Hex(payload), "040572756e2037b424");
  uint64_t trace = 0;
  Status decoded = DecodeErrorPayload(payload, &trace);
  EXPECT_EQ(decoded.code(), StatusCode::kNotFound);
  EXPECT_EQ(decoded.message(), "run 7");
  EXPECT_EQ(trace, 0x1234u);
}

/// Appends a fresh module after the current sink: always a valid delta.
SpecDelta GoldenDelta() {
  SpecDelta delta;
  delta.kind = SpecDelta::Kind::kAddModule;
  delta.module = "audit";
  delta.from = {"h"};
  return delta;
}

TEST(ProtocolGoldenTest, SnapshotBytesChecksum) {
  // The running example under TCM with one run at epoch 1, then one spec
  // delta: spec, scheme, epoch chain, run index and label columns.
  testing_util::RunningExample ex = testing_util::MakeRunningExample();
  auto service =
      ProvenanceService::Create(std::move(ex.spec), SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_TRUE(service->AddRun(ex.run).ok());
  auto epoch = service->ApplySpecDelta(GoldenDelta());
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  ASSERT_EQ(*epoch, 2u);
  auto bytes = service->SnapshotBytes();
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_EQ(bytes->size(), 1024u);
  EXPECT_EQ(Crc32(*bytes), 0x6359743au);
}

TEST(ProtocolGoldenTest, OpLogFileChecksum) {
  // One entry of every kind a live service appends: add, import, remove,
  // spec delta.
  const std::string path = PidQualifiedTempPath("golden_oplog", ".skllog");
  std::filesystem::remove(path);
  testing_util::RunningExample ex = testing_util::MakeRunningExample();
  auto service =
      ProvenanceService::Create(std::move(ex.spec), SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  OpLog::Options options;
  options.fsync = false;
  auto log = OpLog::Open(path, WriteSpecificationXml(service->base_spec()),
                         std::string(service->scheme().name()), options);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  service->AttachOpLog(log->get());
  auto added = service->AddRun(ex.run);
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  auto blob = service->ExportRun(*added);
  ASSERT_TRUE(blob.ok());
  ASSERT_TRUE(service->ImportRun(*blob).ok());
  ASSERT_TRUE(service->RemoveRun(*added).ok());
  ASSERT_TRUE(service->ApplySpecDelta(GoldenDelta()).ok());
  ASSERT_EQ((*log)->last_lsn(), 4u);
  service->AttachOpLog(nullptr);
  log->reset();
  std::ifstream in(path, std::ios::binary);
  const std::vector<uint8_t> file((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  EXPECT_EQ(file.size(), 739u);
  EXPECT_EQ(Crc32(file), 0x22ae142cu);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace skl
