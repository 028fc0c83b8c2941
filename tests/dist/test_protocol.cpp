// Shard wire protocol: frame codec, incremental parser, apply payloads,
// ShardSpec/ShardReady JSON round trips.
#include "dist/protocol.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <string>
#include <utility>

#include "ct/geometry.hpp"

namespace cscv::dist {
namespace {

Frame parse_one(const std::string& wire, FrameLimits limits = {}) {
  FrameParser parser(limits);
  parser.append(wire.data(), wire.size());
  Frame frame;
  EXPECT_TRUE(parser.next(frame));
  EXPECT_EQ(parser.buffered_bytes(), 0u);
  return frame;
}

TEST(FrameCodec, RoundTrip) {
  const Frame frame = parse_one(encode_frame(MsgType::kBuildShard, "hello"));
  EXPECT_EQ(frame.type, MsgType::kBuildShard);
  EXPECT_EQ(frame.payload, "hello");
}

TEST(FrameCodec, EmptyPayload) {
  const Frame frame = parse_one(encode_frame(MsgType::kPing, ""));
  EXPECT_EQ(frame.type, MsgType::kPing);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(FrameParser, ByteAtATimeDelivery) {
  const std::string wire = encode_frame(MsgType::kPong, "split across reads");
  FrameParser parser;
  Frame frame;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    parser.append(wire.data() + i, 1);
    EXPECT_FALSE(parser.next(frame)) << "frame completed " << wire.size() - 1 - i
                                     << " bytes early";
  }
  parser.append(wire.data() + wire.size() - 1, 1);
  ASSERT_TRUE(parser.next(frame));
  EXPECT_EQ(frame.payload, "split across reads");
}

TEST(FrameParser, TwoFramesOneAppend) {
  const std::string wire =
      encode_frame(MsgType::kPing, "a") + encode_frame(MsgType::kShutdown, "");
  FrameParser parser;
  parser.append(wire.data(), wire.size());
  Frame frame;
  ASSERT_TRUE(parser.next(frame));
  EXPECT_EQ(frame.type, MsgType::kPing);
  ASSERT_TRUE(parser.next(frame));
  EXPECT_EQ(frame.type, MsgType::kShutdown);
  EXPECT_FALSE(parser.next(frame));
}

TEST(FrameParser, BadMagicThrows) {
  std::string wire = encode_frame(MsgType::kPing, "x");
  wire[0] = 'Z';
  FrameParser parser;
  parser.append(wire.data(), wire.size());
  Frame frame;
  EXPECT_THROW((void)parser.next(frame), ProtocolError);
}

TEST(FrameParser, BadVersionThrows) {
  // Version 1 framed the same bytes but meant single-view OS-SART strata:
  // it must be refused as a protocol error, not parsed.
  for (const char version : {char{1}, char{99}}) {
    std::string wire = encode_frame(MsgType::kPing, "x");
    wire[4] = version;
    wire[5] = 0;
    FrameParser parser;
    parser.append(wire.data(), wire.size());
    Frame frame;
    EXPECT_THROW((void)parser.next(frame), ProtocolError) << "version " << int(version);
  }
}

TEST(FrameParser, UnknownTypeThrows) {
  for (const unsigned char bad : {0, 9, 255}) {
    std::string wire = encode_frame(MsgType::kPing, "x");
    wire[6] = static_cast<char>(bad);
    wire[7] = 0;
    FrameParser parser;
    parser.append(wire.data(), wire.size());
    Frame frame;
    EXPECT_THROW((void)parser.next(frame), ProtocolError) << "type " << int(bad);
  }
}

TEST(FrameParser, OversizedPayloadRejectedFromHeaderAlone) {
  // The header announces more than max_payload: the parser must throw as
  // soon as the header is visible, NOT wait for a body that never comes.
  const std::string wire = encode_frame(MsgType::kApply, std::string(64, 'x'));
  FrameParser parser(FrameLimits{.max_payload = 32});
  parser.append(wire.data(), kFrameHeaderBytes);  // header only
  Frame frame;
  EXPECT_THROW((void)parser.next(frame), ProtocolError);
}

TEST(ApplyPayload, RoundTrip) {
  const float data[] = {1.0f, -2.5f, 0.0f, 3.25e-7f};
  const ApplyHeader header{7, ApplyOp::kAdjoint, 3, 4};
  util::AlignedVector<float> out;
  const ApplyHeader decoded = decode_apply(encode_apply(header, data), out);
  EXPECT_EQ(decoded.shard_id, 7u);
  EXPECT_EQ(decoded.op, ApplyOp::kAdjoint);
  EXPECT_EQ(decoded.subset, 3);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(std::memcmp(out.data(), data, sizeof(data)), 0);
}

TEST(ApplyPayload, WholeShardSubsetIsMinusOne) {
  util::AlignedVector<float> out;
  const ApplyHeader decoded =
      decode_apply(encode_apply(ApplyHeader{0, ApplyOp::kForward, -1, 0}, {}), out);
  EXPECT_EQ(decoded.subset, -1);
  EXPECT_TRUE(out.empty());
}

TEST(ApplyPayload, TruncationAndCountMismatchThrow) {
  const float data[] = {1.0f, 2.0f};
  std::string payload = encode_apply(ApplyHeader{1, ApplyOp::kForward, -1, 2}, data);
  util::AlignedVector<float> out;
  EXPECT_THROW((void)decode_apply(std::string_view(payload).substr(0, 10), out),
               ProtocolError);
  payload.push_back('\0');  // count no longer matches the byte length
  EXPECT_THROW((void)decode_apply(payload, out), ProtocolError);
  EXPECT_THROW((void)decode_apply("", out), ProtocolError);
}

TEST(ApplyPayload, BadOpThrows) {
  const float data[] = {1.0f};
  std::string payload = encode_apply(ApplyHeader{1, ApplyOp::kForward, -1, 1}, data);
  payload[4] = 17;  // op byte
  util::AlignedVector<float> out;
  EXPECT_THROW((void)decode_apply(payload, out), ProtocolError);
}

TEST(ApplyPayload, HugeCountCannotWrapTheLengthCheck) {
  util::AlignedVector<float> out;
  // count = 2^62 makes header + count * sizeof(float) wrap to exactly the
  // 20 header bytes mod 2^64 — a naive total-length check would pass and
  // then attempt a 2^62-element resize. Must throw instead.
  std::string empty = encode_apply(ApplyHeader{1, ApplyOp::kForward, -1, 0}, {});
  ASSERT_EQ(empty.size(), kApplyHeaderBytes);
  empty[19] = static_cast<char>(0x40);  // count bytes 12..19 LE -> 2^62
  EXPECT_THROW((void)decode_apply(empty, out), ProtocolError);

  // count = 2^62 + 1 wraps the naive sum to 24 — one stray float "matches".
  const float one = 1.0f;
  std::string stray = encode_apply(ApplyHeader{1, ApplyOp::kForward, -1, 1},
                                   std::span<const float>(&one, 1));
  stray[19] = static_cast<char>(0x40);  // count -> 2^62 + 1
  EXPECT_THROW((void)decode_apply(stray, out), ProtocolError);
}

ShardSpec sample_spec() {
  ShardSpec spec;
  spec.shard_id = 1;
  spec.num_shards = 3;
  spec.view_begin = 8;
  spec.view_end = 16;
  spec.geometry = ct::standard_geometry(32, 24);
  spec.algorithm = pipeline::Algorithm::kOsSart;
  spec.os_sart_subsets = 4;
  return spec;
}

TEST(ShardSpecJson, RoundTrip) {
  const ShardSpec spec = sample_spec();
  const ShardSpec back = ShardSpec::from_json(spec.to_json());
  EXPECT_EQ(back, spec);
}

TEST(ShardSpecJson, RejectsUnknownKeysAndBadRanges) {
  const ShardSpec spec = sample_spec();
  util::Json j = spec.to_json();
  j["surprise"] = util::Json(1);
  EXPECT_THROW((void)ShardSpec::from_json(j), util::CheckError);

  util::Json bad = spec.to_json();
  bad["view_end"] = util::Json(10'000);  // beyond the geometry's views
  EXPECT_THROW((void)ShardSpec::from_json(bad), util::CheckError);

  util::Json inverted = spec.to_json();
  inverted["view_begin"] = util::Json(16);
  inverted["view_end"] = util::Json(8);
  EXPECT_THROW((void)ShardSpec::from_json(inverted), util::CheckError);

  // Shards hold whole view groups (S_VVec = 8 views): a cut inside a group
  // is rejected at either end; the last group may end at num_views.
  for (const auto& [begin, end] : {std::pair{4, 16}, std::pair{8, 12}}) {
    util::Json mid = spec.to_json();
    mid["view_begin"] = util::Json(begin);
    mid["view_end"] = util::Json(end);
    EXPECT_THROW((void)ShardSpec::from_json(mid), util::CheckError) << begin << ".." << end;
  }
  util::Json tail = spec.to_json();
  tail["view_begin"] = util::Json(16);
  tail["view_end"] = util::Json(24);
  EXPECT_NO_THROW((void)ShardSpec::from_json(tail));

  // Integers beyond int are rejected naming the field, not wrapped: these
  // once read as the sample's own valid 16 and 3.
  for (const auto& [field, value] :
       {std::pair{"view_end", 4294967312LL}, std::pair{"num_shards", 4294967299LL}}) {
    util::Json wide = spec.to_json();
    wide[field] = util::Json(value);
    try {
      (void)ShardSpec::from_json(wide);
      ADD_FAILURE() << "accepted " << field << " = " << value;
    } catch (const util::CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
    }
  }
}

TEST(ShardSpecJson, RejectsGeometryThatOverflowsIndexSpace) {
  // Positive but hostile dimensions: image_size^2 / num_views*num_bins must
  // fit sparse::index_t (int32) or the spec is rejected up front — before
  // build_shard can overflow column ids or attempt terabyte allocations.
  const ShardSpec spec = sample_spec();
  util::Json big_image = spec.to_json();
  big_image["geometry"]["image_size"] = util::Json(1'000'000);
  EXPECT_THROW((void)ShardSpec::from_json(big_image), util::CheckError);

  util::Json big_rows = spec.to_json();
  big_rows["geometry"]["num_views"] = util::Json(100'000'000);
  EXPECT_THROW((void)ShardSpec::from_json(big_rows), util::CheckError);
}

TEST(ShardReadyJson, RoundTrip) {
  ShardReady ready;
  ready.shard_id = 2;
  ready.rows = 1 << 20;
  ready.cols = 1 << 18;
  ready.nnz = (std::uint64_t{1} << 33) + 17;  // must survive > 32 bits
  ready.restored_from_spill = true;
  ready.build_seconds = 1.5;
  const ShardReady back = ShardReady::from_json(ready.to_json());
  EXPECT_EQ(back.shard_id, ready.shard_id);
  EXPECT_EQ(back.rows, ready.rows);
  EXPECT_EQ(back.cols, ready.cols);
  EXPECT_EQ(back.nnz, ready.nnz);
  EXPECT_EQ(back.restored_from_spill, ready.restored_from_spill);
  EXPECT_EQ(back.build_seconds, ready.build_seconds);
}

// nnz is unsigned on the wire's reader side: a negative claim is refused,
// not cast to ~1.8e19.
TEST(ShardReadyJson, RejectsNegativeNnz) {
  ShardReady ready;
  ready.rows = 16;
  ready.cols = 16;
  util::Json j = ready.to_json();
  j["nnz"] = util::Json(std::int64_t{-1});
  EXPECT_THROW((void)ShardReady::from_json(j), util::CheckError);
}

TEST(ErrorPayload, RoundTripAndRawFallback) {
  EXPECT_EQ(decode_error(encode_error("shard 3 exploded")), "shard 3 exploded");
  // A peer that answers kError with a non-JSON body still yields its text.
  EXPECT_EQ(decode_error("not json at all"), "not json at all");
}

}  // namespace
}  // namespace cscv::dist
