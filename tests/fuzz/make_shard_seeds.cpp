// Generates the seed corpus for fuzz_shard_frame into the directory given as
// argv[1]. Shard frames are binary (16-byte header, length-prefixed payload),
// so meaningful seeds cannot be checked in as text: this tool encodes one
// valid frame of every message type with a realistic payload, a pipelined
// two-frame stream, and then derives broken ones — truncations and
// single-byte corruptions aimed at the magic, version, type, and length
// fields. Build-time generation keeps the seeds in lockstep with the wire
// format version.
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "ct/geometry.hpp"
#include "dist/protocol.hpp"

namespace {

void write_file(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::cerr << "make_shard_seeds: cannot write " << path << "\n";
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: fuzz_make_shard_seeds <output-dir>\n";
    return 1;
  }
  const std::filesystem::path dir(argv[1]);
  std::filesystem::create_directories(dir);

  using namespace cscv::dist;

  ShardSpec spec;
  spec.shard_id = 1;
  spec.num_shards = 2;
  spec.view_begin = 8;  // whole view groups of 8: [8, 12) ends at num_views
  spec.view_end = 12;
  spec.geometry = cscv::ct::standard_geometry(16, 12);
  spec.algorithm = cscv::pipeline::Algorithm::kOsSart;
  spec.os_sart_subsets = 4;
  const std::string build = encode_frame(MsgType::kBuildShard, spec.to_json().dump());
  write_file(dir / "build_shard.bin", build);

  ShardReady ready{1, 288, 256, 12345, false, 0.25};
  write_file(dir / "shard_ready.bin",
             encode_frame(MsgType::kShardReady, ready.to_json().dump()));

  const float volume[] = {0.0f, 1.5f, -2.25f, 3.0e-8f};
  const std::string apply =
      encode_frame(MsgType::kApply, encode_apply(ApplyHeader{1, ApplyOp::kForward, -1, 4}, volume));
  write_file(dir / "apply_forward.bin", apply);
  write_file(dir / "apply_subset.bin",
             encode_frame(MsgType::kApplyResult,
                          encode_apply(ApplyHeader{0, ApplyOp::kColSums, 2, 4}, volume)));

  write_file(dir / "ping.bin", encode_frame(MsgType::kPing, "are you there"));
  write_file(dir / "shutdown.bin", encode_frame(MsgType::kShutdown, ""));
  write_file(dir / "error.bin",
             encode_frame(MsgType::kError, encode_error("shard 1 exploded")));
  write_file(dir / "pipelined.bin", apply + build);

  write_file(dir / "empty.bin", "");
  write_file(dir / "truncated_header.bin", apply.substr(0, kFrameHeaderBytes / 2));
  write_file(dir / "truncated_payload.bin", apply.substr(0, apply.size() - 3));

  // Apply whose count field is 2^62: header + count * sizeof(float) wraps
  // mod 2^64 to exactly the header size, so only an overflow-free length
  // check rejects it (regression seed for the decode_apply validator).
  {
    std::string wrapped =
        encode_frame(MsgType::kApply, encode_apply(ApplyHeader{1, ApplyOp::kForward, -1, 0}, {}));
    wrapped[kFrameHeaderBytes + 19] = static_cast<char>(0x40);  // count -> 2^62
    write_file(dir / "apply_count_wrap.bin", wrapped);
  }

  // Single-byte corruptions: magic, version, type, payload length, and the
  // apply header's op byte.
  const std::size_t spots[] = {0, 4, 6, 8, kFrameHeaderBytes + 4};
  int index = 0;
  for (const std::size_t spot : spots) {
    std::string corrupt = apply;
    corrupt[spot] = static_cast<char>(corrupt[spot] ^ 0x5A);
    write_file(dir / ("corrupt_" + std::to_string(index++) + ".bin"), corrupt);
  }

  std::cout << "make_shard_seeds: wrote corpus into " << dir << "\n";
  return 0;
}
