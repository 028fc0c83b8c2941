#include "dist/protocol.hpp"

#include <cstdio>
#include <cstring>

namespace cscv::dist {

namespace {

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
}

void put_u32(std::string& out, std::uint32_t v) {
  put_u16(out, static_cast<std::uint16_t>(v & 0xFFFF));
  put_u16(out, static_cast<std::uint16_t>(v >> 16));
}

void put_u64(std::string& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v & 0xFFFFFFFFULL));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint16_t get_u16(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint16_t>(b[0] | (b[1] << 8));
}

std::uint32_t get_u32(const char* p) {
  return static_cast<std::uint32_t>(get_u16(p)) |
         (static_cast<std::uint32_t>(get_u16(p + 2)) << 16);
}

std::uint64_t get_u64(const char* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

}  // namespace

std::string encode_frame(MsgType type, std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  put_u32(out, kFrameMagic);
  put_u16(out, kProtocolVersion);
  put_u16(out, static_cast<std::uint16_t>(type));
  put_u64(out, payload.size());
  out.append(payload);
  return out;
}

bool FrameParser::next(Frame& out) {
  if (buffer_.size() < kFrameHeaderBytes) return false;
  const char* h = buffer_.data();
  const std::uint32_t magic = get_u32(h);
  if (magic != kFrameMagic) {
    char hex[16];
    std::snprintf(hex, sizeof(hex), "%08x", magic);
    throw ProtocolError(std::string("shard frame: bad magic 0x") + hex);
  }
  const std::uint16_t version = get_u16(h + 4);
  if (version != kProtocolVersion) {
    throw ProtocolError("shard frame: unsupported version " + std::to_string(version));
  }
  const std::uint16_t type = get_u16(h + 6);
  if (type < static_cast<std::uint16_t>(MsgType::kBuildShard) ||
      type > static_cast<std::uint16_t>(MsgType::kShutdown)) {
    throw ProtocolError("shard frame: unknown message type " + std::to_string(type));
  }
  const std::uint64_t len = get_u64(h + 8);
  if (len > limits_.max_payload) {
    throw ProtocolError("shard frame: payload of " + std::to_string(len) +
                        " bytes exceeds limit of " +
                        std::to_string(limits_.max_payload));
  }
  if (buffer_.size() < kFrameHeaderBytes + len) return false;
  out.type = static_cast<MsgType>(type);
  out.payload.assign(buffer_, kFrameHeaderBytes, static_cast<std::size_t>(len));
  buffer_.erase(0, kFrameHeaderBytes + static_cast<std::size_t>(len));
  return true;
}

std::string encode_apply(const ApplyHeader& header, std::span<const float> data) {
  CSCV_CHECK(header.count == data.size());
  std::string out;
  out.reserve(kApplyHeaderBytes + data.size() * sizeof(float));
  put_u32(out, header.shard_id);
  out.push_back(static_cast<char>(header.op));
  out.append(3, '\0');  // pad to a 4-byte boundary
  put_u32(out, static_cast<std::uint32_t>(header.subset));
  put_u64(out, header.count);
  // Raw little-endian float32. The repo targets little-endian hosts only
  // (the .cscv on-disk format makes the same assumption).
  out.append(reinterpret_cast<const char*>(data.data()), data.size() * sizeof(float));
  return out;
}

ApplyHeader decode_apply(std::string_view payload, util::AlignedVector<float>& data) {
  if (payload.size() < kApplyHeaderBytes) {
    throw ProtocolError("apply payload: " + std::to_string(payload.size()) +
                        " bytes is shorter than the 20-byte header");
  }
  const char* p = payload.data();
  ApplyHeader h;
  h.shard_id = get_u32(p);
  const auto op = static_cast<std::uint8_t>(p[4]);
  if (op > static_cast<std::uint8_t>(ApplyOp::kColSums)) {
    throw ProtocolError("apply payload: unknown op " + std::to_string(op));
  }
  h.op = static_cast<ApplyOp>(op);
  h.subset = static_cast<std::int32_t>(get_u32(p + 8));
  h.count = get_u64(p + 12);
  // Compare against the body length instead of computing
  // kApplyHeaderBytes + count * sizeof(float), which wraps mod 2^64 for a
  // hostile count near 2^62 and would let a tiny payload pass validation.
  const std::size_t body_bytes = payload.size() - kApplyHeaderBytes;
  if (body_bytes % sizeof(float) != 0 || h.count != body_bytes / sizeof(float)) {
    throw ProtocolError("apply payload: count " + std::to_string(h.count) +
                        " disagrees with payload of " +
                        std::to_string(payload.size()) + " bytes");
  }
  data.resize(static_cast<std::size_t>(h.count));
  // memcpy: the payload has no alignment guarantee. An empty vector's data()
  // may be null, which memcpy must not get even for zero bytes.
  if (h.count > 0) {
    std::memcpy(data.data(), p + kApplyHeaderBytes, data.size() * sizeof(float));
  }
  return h;
}

util::Json ShardSpec::to_json() const {
  util::Json j = util::Json::object();
  j["shard_id"] = util::Json(static_cast<std::int64_t>(shard_id));
  j["num_shards"] = util::Json(static_cast<std::int64_t>(num_shards));
  j["view_begin"] = util::Json(view_begin);
  j["view_end"] = util::Json(view_end);
  util::Json g = util::Json::object();
  g["image_size"] = util::Json(geometry.image_size);
  g["num_bins"] = util::Json(geometry.num_bins);
  g["num_views"] = util::Json(geometry.num_views);
  g["start_angle_deg"] = util::Json(geometry.start_angle_deg);
  g["delta_angle_deg"] = util::Json(geometry.delta_angle_deg);
  j["geometry"] = std::move(g);
  util::Json c = util::Json::object();
  c["s_vvec"] = util::Json(cscv.s_vvec);
  c["s_imgb"] = util::Json(cscv.s_imgb);
  c["s_vxg"] = util::Json(cscv.s_vxg);
  c["reference"] = util::Json(core::reference_name(cscv.reference));
  c["order"] = util::Json(core::vxg_order_name(cscv.order));
  j["cscv"] = std::move(c);
  j["variant"] = util::Json(pipeline::variant_name(variant));
  j["algorithm"] = util::Json(pipeline::algorithm_name(algorithm));
  if (algorithm == pipeline::Algorithm::kOsSart) {
    j["os_sart_subsets"] = util::Json(os_sart_subsets);
  }
  return j;
}

ShardSpec ShardSpec::from_json(const util::Json& spec) {
  CSCV_CHECK_MSG(spec.is_object(), "shard spec must be a JSON object");
  util::check_keys(spec,
                   {"shard_id", "num_shards", "view_begin", "view_end", "geometry", "cscv",
                    "variant", "algorithm", "os_sart_subsets"},
                   "shard spec");
  ShardSpec s;
  s.shard_id = static_cast<std::uint32_t>(util::get_int_field(spec, "shard_id", 0));
  s.num_shards = static_cast<std::uint32_t>(util::get_int_field(spec, "num_shards", 1));
  s.view_begin = util::get_int_field(spec, "view_begin", 0);
  s.view_end = util::get_int_field(spec, "view_end", 0);

  const util::Json* g = spec.find("geometry");
  CSCV_CHECK_MSG(g != nullptr && g->is_object(),
                 "shard spec: \"geometry\" object is required");
  util::check_keys(*g,
                   {"image_size", "num_bins", "num_views", "start_angle_deg", "delta_angle_deg"},
                   "shard spec geometry");
  s.geometry.image_size = util::get_int_field(*g, "image_size", 0);
  s.geometry.num_bins = util::get_int_field(*g, "num_bins", 0);
  s.geometry.num_views = util::get_int_field(*g, "num_views", 0);
  s.geometry.start_angle_deg = util::get_double_field(*g, "start_angle_deg", 0.0);
  s.geometry.delta_angle_deg = util::get_double_field(*g, "delta_angle_deg", 0.0);
  // validate() also bounds the int32 row/col index spaces, so a hostile
  // spec gets a structured rejection instead of driving build_shard into
  // overflowed ids or multi-terabyte allocations.
  s.geometry.validate();

  if (const util::Json* c = spec.find("cscv")) {
    CSCV_CHECK_MSG(c->is_object(), "shard spec: \"cscv\" must be an object");
    util::check_keys(*c, {"s_vvec", "s_imgb", "s_vxg", "reference", "order"},
                     "shard spec cscv");
    s.cscv.s_vvec = util::get_int_field(*c, "s_vvec", s.cscv.s_vvec);
    s.cscv.s_imgb = util::get_int_field(*c, "s_imgb", s.cscv.s_imgb);
    s.cscv.s_vxg = util::get_int_field(*c, "s_vxg", s.cscv.s_vxg);
    s.cscv.reference =
        core::reference_from_name(util::get_string_field(
            *c, "reference", core::reference_name(s.cscv.reference)));
    s.cscv.order = core::vxg_order_from_name(
        util::get_string_field(*c, "order", core::vxg_order_name(s.cscv.order)));
    s.cscv.validate();
  }
  s.variant = pipeline::variant_from_name(
      util::get_string_field(spec, "variant", pipeline::variant_name(s.variant)));
  s.algorithm = pipeline::algorithm_from_name(
      util::get_string_field(spec, "algorithm", pipeline::algorithm_name(s.algorithm)));
  s.os_sart_subsets = util::get_int_field(spec, "os_sart_subsets", s.os_sart_subsets);

  CSCV_CHECK_MSG(s.num_shards >= 1, "shard spec: num_shards must be >= 1");
  CSCV_CHECK_MSG(s.shard_id < s.num_shards,
                 "shard spec: shard_id " << s.shard_id << " out of num_shards "
                                         << s.num_shards);
  CSCV_CHECK_MSG(0 <= s.view_begin && s.view_begin < s.view_end &&
                     s.view_end <= s.geometry.num_views,
                 "shard spec: view range [" << s.view_begin << ", " << s.view_end
                                            << ") out of [0, "
                                            << s.geometry.num_views << ")");
  const int s_vvec = s.cscv.s_vvec;
  CSCV_CHECK_MSG(s.view_begin % s_vvec == 0 &&
                     (s.view_end % s_vvec == 0 || s.view_end == s.geometry.num_views),
                 "shard spec: view range [" << s.view_begin << ", " << s.view_end
                                            << ") cuts inside a view group of " << s_vvec
                                            << " views");
  if (s.algorithm == pipeline::Algorithm::kOsSart) {
    CSCV_CHECK_MSG(s.os_sart_subsets >= 1 &&
                       s.os_sart_subsets <= s.geometry.num_views,
                   "shard spec: os_sart_subsets " << s.os_sart_subsets
                                                  << " out of [1, "
                                                  << s.geometry.num_views << "]");
  }
  return s;
}

util::Json ShardReady::to_json() const {
  util::Json j = util::Json::object();
  j["shard_id"] = util::Json(static_cast<std::int64_t>(shard_id));
  j["rows"] = util::Json(rows);
  j["cols"] = util::Json(cols);
  j["nnz"] = util::Json(static_cast<std::int64_t>(nnz));
  j["restored_from_spill"] = util::Json(restored_from_spill);
  j["build_seconds"] = util::Json(build_seconds);
  return j;
}

ShardReady ShardReady::from_json(const util::Json& j) {
  CSCV_CHECK_MSG(j.is_object(), "shard ready must be a JSON object");
  ShardReady r;
  r.shard_id = static_cast<std::uint32_t>(util::get_int_field(j, "shard_id", 0));
  r.rows = j.at("rows").as_int();
  r.cols = j.at("cols").as_int();
  const std::int64_t nnz = j.at("nnz").as_int();
  CSCV_CHECK_MSG(nnz >= 0, "shard ready: nnz " << nnz << " is negative");
  r.nnz = static_cast<std::uint64_t>(nnz);
  r.restored_from_spill = util::get_bool_field(j, "restored_from_spill", false);
  r.build_seconds = util::get_double_field(j, "build_seconds", 0.0);
  return r;
}

std::string encode_error(const std::string& message) {
  util::Json j = util::Json::object();
  j["message"] = util::Json(message);
  return j.dump();
}

std::string decode_error(std::string_view payload) {
  try {
    const util::Json j = util::Json::parse(payload);
    if (const util::Json* m = j.find("message")) return m->as_string();
  } catch (const util::CheckError&) {
    // fall through: surface the raw payload
  }
  return std::string(payload);
}

}  // namespace cscv::dist
