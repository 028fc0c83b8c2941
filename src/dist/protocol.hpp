// Shard wire protocol (docs/SHARDING.md) — the length-prefixed binary
// framing the coordinator and shard workers speak over net::Socket.
//
// Every message is one frame:
//
//   bytes 0..3   magic   0x43534844 ("CSHD" big-endian on the wire)
//   bytes 4..5   version (currently 2)
//   bytes 6..7   message type (MsgType)
//   bytes 8..15  payload length in bytes
//
// All header fields are little-endian, encoded/decoded with explicit byte
// shifts so the format is identical on any host. Control payloads
// (kBuildShard/kShardReady/kError) are UTF-8 JSON; the per-iteration data
// payloads (kApply/kApplyResult) are a fixed 20-byte binary header followed
// by raw little-endian float32 — the hot path ships megabytes per
// iteration and must not round-trip through text.
//
// The parser is incremental (append bytes, drain frames) because it sits on
// a stream socket AND under the fuzz harness (tests/fuzz/fuzz_shard_frame):
// any byte sequence must either yield frames or throw ProtocolError —
// never crash, never over-read.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "core/format.hpp"
#include "core/params.hpp"
#include "ct/geometry.hpp"
#include "pipeline/matrix_cache.hpp"
#include "util/aligned_vector.hpp"
#include "util/assertx.hpp"
#include "util/json.hpp"

namespace cscv::dist {

/// Malformed bytes on the shard wire (bad magic, unknown version or type,
/// oversized payload, truncated apply header). Subclasses CheckError; the
/// coordinator treats it as a transport failure (desynced peer) and the
/// worker answers kError and drops the connection.
class ProtocolError : public util::CheckError {
 public:
  explicit ProtocolError(const std::string& what) : CheckError(what) {}
};

inline constexpr std::uint32_t kFrameMagic = 0x43534844;  // "CSHD"
// Version 2: OS-SART stratum rows are whole view groups (g % n == k), not
// single views; shards are cut on view-group boundaries. The frame layout is
// unchanged, so a version-1 peer is refused by version, not mis-sized.
inline constexpr std::uint16_t kProtocolVersion = 2;
inline constexpr std::size_t kFrameHeaderBytes = 16;

enum class MsgType : std::uint16_t {
  kBuildShard = 1,   // coordinator -> worker, ShardSpec JSON
  kShardReady = 2,   // worker -> coordinator, ShardReady JSON
  kApply = 3,        // coordinator -> worker, ApplyHeader + float32[]
  kApplyResult = 4,  // worker -> coordinator, ApplyHeader + float32[]
  kError = 5,        // worker -> coordinator, {"message": ...} JSON
  kPing = 6,         // liveness probe (payload echoed back)
  kPong = 7,
  kShutdown = 8,     // coordinator -> worker: drain and exit
};

struct FrameLimits {
  /// Upper bound on one frame's payload. The default (256 MiB) fits the
  /// largest single-shard float32 exchange we serve; the fuzz harness and
  /// tests shrink it to exercise the rejection path.
  std::size_t max_payload = std::size_t{1} << 28;
};

struct Frame {
  MsgType type = MsgType::kPing;
  std::string payload;
};

/// One encoded frame, ready for Socket::write_all.
[[nodiscard]] std::string encode_frame(MsgType type, std::string_view payload);

/// Incremental frame assembler. append() buffers raw socket bytes; next()
/// pops the earliest complete frame. Header violations throw ProtocolError
/// as soon as the 16 header bytes are visible (before waiting for a body
/// that may never come).
class FrameParser {
 public:
  explicit FrameParser(FrameLimits limits = {}) : limits_(limits) {}

  void append(const char* data, std::size_t size) { buffer_.append(data, size); }
  /// True and fills `out` when a complete frame was buffered.
  bool next(Frame& out);

  [[nodiscard]] std::size_t buffered_bytes() const { return buffer_.size(); }

 private:
  FrameLimits limits_;
  std::string buffer_;
};

// ---- kApply / kApplyResult binary payload ---------------------------------

enum class ApplyOp : std::uint8_t {
  kForward = 0,  // in: image (cols floats) -> out: shard/stratum rows
  kAdjoint = 1,  // in: shard/stratum rows -> out: image (cols floats)
  kRowSums = 2,  // no input -> out: stratum row sums (OS-SART normalizer)
  kColSums = 3,  // no input -> out: per-shard stratum column sums
};

struct ApplyHeader {
  std::uint32_t shard_id = 0;
  ApplyOp op = ApplyOp::kForward;
  /// OS-SART global stratum index, or -1 for the whole shard.
  std::int32_t subset = -1;
  /// float32 elements following the header.
  std::uint64_t count = 0;
};

inline constexpr std::size_t kApplyHeaderBytes = 20;

/// Header + floats as one kApply/kApplyResult payload.
[[nodiscard]] std::string encode_apply(const ApplyHeader& header,
                                       std::span<const float> data);
/// Inverse of encode_apply; ProtocolError on truncation or a count that
/// disagrees with the payload size.
ApplyHeader decode_apply(std::string_view payload, util::AlignedVector<float>& data);

// ---- kBuildShard / kShardReady JSON payloads ------------------------------

/// Everything a worker needs to build one shard: the global problem
/// (geometry + CSCV tuning + algorithm) and this shard's view range.
/// Workers rebuild idempotently — re-sending a spec the worker already
/// hosts under the same shard_id answers kShardReady immediately, which is
/// what makes coordinator failover cheap for surviving shards.
struct ShardSpec {
  std::uint32_t shard_id = 0;
  std::uint32_t num_shards = 1;
  /// View range, cut on view-group boundaries (cscv.s_vvec views): begin a
  /// multiple of s_vvec, end one too or num_views.
  int view_begin = 0;
  int view_end = 0;  // exclusive; rows [view_begin*num_bins, view_end*num_bins)
  ct::ParallelGeometry geometry;
  core::CscvParams cscv{};
  core::CscvMatrix<float>::Variant variant = core::CscvMatrix<float>::Variant::kM;
  pipeline::Algorithm algorithm = pipeline::Algorithm::kSirt;
  int os_sart_subsets = 8;  // requested global subset count (kOsSart only)

  [[nodiscard]] int num_local_views() const { return view_end - view_begin; }
  [[nodiscard]] sparse::index_t local_rows() const {
    return static_cast<sparse::index_t>(num_local_views()) * geometry.num_bins;
  }
  [[nodiscard]] sparse::index_t row_offset() const {
    return static_cast<sparse::index_t>(view_begin) * geometry.num_bins;
  }

  [[nodiscard]] util::Json to_json() const;
  /// Strict parse: unknown keys, bad ranges, or an invalid geometry throw
  /// CheckError naming the offending field.
  static ShardSpec from_json(const util::Json& spec);

  friend bool operator==(const ShardSpec&, const ShardSpec&) = default;
};

/// kShardReady reply: what the worker actually built.
struct ShardReady {
  std::uint32_t shard_id = 0;
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::uint64_t nnz = 0;
  bool restored_from_spill = false;
  double build_seconds = 0.0;

  [[nodiscard]] util::Json to_json() const;
  static ShardReady from_json(const util::Json& j);
};

/// kError payload helpers.
[[nodiscard]] std::string encode_error(const std::string& message);
[[nodiscard]] std::string decode_error(std::string_view payload);

}  // namespace cscv::dist
