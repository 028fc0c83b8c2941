// RemoteBackend over real loopback sockets against in-process ShardWorkers:
// remote results must be bitwise the LocalBackend reference, worker death
// must fail over to survivors (same volume — the reduce order is pinned by
// shard id, not by which process computed the partials), and a dead or
// silent cluster must yield a structured ShardError, never a hang.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ct/phantom.hpp"
#include "dist/coordinator.hpp"
#include "dist/sharded_operator.hpp"
#include "dist/worker.hpp"
#include "util/parallel.hpp"

namespace cscv::dist {
namespace {

/// One in-process worker on an ephemeral loopback port.
class WorkerHarness {
 public:
  WorkerHarness()
      : worker_(WorkerOptions{.host = "127.0.0.1",
                              .port = 0,
                              .spill_dir = {},
                              .limits = {},
                              .poll_seconds = 0.05}),
        thread_([this] {
          // OMP thread counts are per-thread ICVs: the set_num_threads(1)
          // in make_job() does not reach this thread, which would otherwise
          // inherit OMP_NUM_THREADS and break the bitwise remote-vs-local
          // comparisons (the CSR stratum adjoint is only bitwise
          // reproducible at a fixed thread count). Pin it like the real
          // cscv_shardd daemon does.
          util::set_num_threads(1);
          worker_.run();
        }) {}
  ~WorkerHarness() { kill(); }

  [[nodiscard]] Endpoint endpoint() const { return {"127.0.0.1", worker_.port()}; }

  /// Stops serving and joins — the "worker process died" event.
  void kill() {
    worker_.stop();
    if (thread_.joinable()) thread_.join();
  }

 private:
  ShardWorker worker_;
  std::thread thread_;
};

pipeline::ReconJob make_job(pipeline::Algorithm algorithm) {
  util::set_num_threads(1);
  pipeline::ReconJob job;
  job.geometry = ct::standard_geometry(24, 12);
  job.sinogram = ct::analytic_sinogram<float>(ct::shepp_logan_modified(), job.geometry);
  job.algorithm = algorithm;
  job.solve.iterations = 3;
  job.os_sart_subsets = 3;
  return job;
}

bool bitwise_equal(const util::AlignedVector<float>& a,
                   const util::AlignedVector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(RemoteBackend, MatchesLocalBitwise) {
  // 3 shards over 2 workers: one connection carries two pipelined shards.
  for (const auto algorithm :
       {pipeline::Algorithm::kSirt, pipeline::Algorithm::kOsSart}) {
    const auto job = make_job(algorithm);
    const auto specs = make_shard_specs(job, 3);
    WorkerHarness w0;
    WorkerHarness w1;
    RemoteBackend remote(specs, {w0.endpoint(), w1.endpoint()});
    const ShardedRunResult over_wire = run_sharded_job(remote, job);

    LocalBackend local(specs);
    const ShardedRunResult reference = run_sharded_job(local, job);
    EXPECT_TRUE(bitwise_equal(over_wire.volume, reference.volume))
        << pipeline::algorithm_name(algorithm);
    EXPECT_EQ(over_wire.stats.residual_norms, reference.stats.residual_norms);
  }
}

TEST(RemoteBackend, FailoverToSurvivorKeepsTheVolume) {
  const auto job = make_job(pipeline::Algorithm::kSirt);
  const auto specs = make_shard_specs(job, 2);
  WorkerHarness w0;
  auto w1 = std::make_unique<WorkerHarness>();
  RemoteOptions opts;
  opts.apply_timeout_seconds = 10.0;
  RemoteBackend remote(specs, {w0.endpoint(), w1->endpoint()}, opts);
  EXPECT_EQ(remote.live_endpoints(), 2);
  EXPECT_EQ(remote.endpoint_of_shard(1), 1);

  // Kill worker 1 after its shard was built: the next apply hits a closed
  // connection, the coordinator reshards onto worker 0 (idempotent rebuild
  // of shard 0, fresh build of the orphaned shard 1) and retries.
  w1->kill();
  const ShardedRunResult survived = run_sharded_job(remote, job);
  EXPECT_EQ(remote.live_endpoints(), 1);
  EXPECT_EQ(remote.endpoint_of_shard(0), 0);
  EXPECT_EQ(remote.endpoint_of_shard(1), 0);

  // The reduce is ordered by shard id, not by hosting worker, so the
  // volume is the same as an undisturbed run.
  LocalBackend local(specs);
  const ShardedRunResult reference = run_sharded_job(local, job);
  EXPECT_TRUE(bitwise_equal(survived.volume, reference.volume));
}

TEST(RemoteBackend, AllWorkersDeadIsStructuredError) {
  const auto job = make_job(pipeline::Algorithm::kSirt);
  const auto specs = make_shard_specs(job, 2);
  WorkerHarness only;
  RemoteBackend remote(specs, {only.endpoint()});
  only.kill();
  EXPECT_THROW((void)run_sharded_job(remote, job), ShardError);
}

TEST(RemoteBackend, NobodyListeningIsStructuredError) {
  const auto job = make_job(pipeline::Algorithm::kSirt);
  const auto specs = make_shard_specs(job, 1);
  // Grab an ephemeral port, then free it: connects are refused immediately.
  std::uint16_t dead_port = 0;
  {
    auto probe = net::ListenSocket::bind_tcp("127.0.0.1", 0);
    dead_port = probe.port();
  }
  EXPECT_THROW(RemoteBackend(specs, {{"127.0.0.1", dead_port}}), ShardError);
}

TEST(RemoteBackend, SilentPeerTimesOutStructured) {
  const auto job = make_job(pipeline::Algorithm::kSirt);
  const auto specs = make_shard_specs(job, 1);
  // Accepts (kernel backlog) but never reads or answers: the build-phase
  // read must hit its timeout and surface as ShardError, not hang.
  auto mute = net::ListenSocket::bind_tcp("127.0.0.1", 0);
  RemoteOptions opts;
  opts.build_timeout_seconds = 0.3;
  EXPECT_THROW(RemoteBackend(specs, {{"127.0.0.1", mute.port()}}, opts), ShardError);
}

TEST(RemoteBackend, WorkerRejectionIsStructuredError) {
  const auto job = make_job(pipeline::Algorithm::kSirt);
  auto specs = make_shard_specs(job, 1);
  specs[0].view_end = job.geometry.num_views + 5;  // invalid: beyond the geometry
  WorkerHarness w;
  EXPECT_THROW(RemoteBackend(specs, {w.endpoint()}), ShardError);
}

TEST(RemoteBackend, HostileGeometryIsRejectedNotFatal) {
  // A well-formed spec whose dimensions imply a multi-terabyte build must
  // come back as a structured rejection — and the worker must survive it
  // and still serve a real job on the same port.
  const auto job = make_job(pipeline::Algorithm::kSirt);
  auto hostile = make_shard_specs(job, 1);
  hostile[0].geometry.image_size = 1'000'000;
  WorkerHarness w;
  EXPECT_THROW(RemoteBackend(hostile, {w.endpoint()}), ShardError);

  const auto specs = make_shard_specs(job, 1);
  RemoteBackend remote(specs, {w.endpoint()});
  const ShardedRunResult over_wire = run_sharded_job(remote, job);
  LocalBackend local(specs);
  const ShardedRunResult reference = run_sharded_job(local, job);
  EXPECT_TRUE(bitwise_equal(over_wire.volume, reference.volume));
}

/// Drains frames from `conn` until one is complete; CheckError if the peer
/// goes away first.
Frame read_frame_from(net::Socket& conn, FrameParser& parser) {
  Frame frame;
  char buf[65536];
  while (!parser.next(frame)) {
    const std::ptrdiff_t n = conn.read_some(buf, sizeof(buf));
    CSCV_CHECK_MSG(n > 0, "impostor: coordinator went away");
    parser.append(buf, static_cast<std::size_t>(n));
  }
  return frame;
}

TEST(RemoteBackend, WrongReplyCountIsTransportFailure) {
  const auto job = make_job(pipeline::Algorithm::kSirt);
  const auto specs = make_shard_specs(job, 1);
  // An impostor worker that builds honestly but answers the first apply
  // with one float too many: the coordinator must catch the shape lie at
  // the transport layer and (with no survivors) fail structured.
  auto listener = net::ListenSocket::bind_tcp("127.0.0.1", 0);
  const Endpoint ep{"127.0.0.1", listener.port()};
  std::thread impostor([&] {
    net::Socket conn = listener.accept();
    FrameParser parser;
    const Frame build = read_frame_from(conn, parser);
    EXPECT_EQ(build.type, MsgType::kBuildShard);
    const ShardReady ready{specs[0].shard_id, specs[0].local_rows(),
                           specs[0].geometry.num_cols(), 1, false, 0.0};
    conn.write_all(encode_frame(MsgType::kShardReady, ready.to_json().dump()));
    const Frame apply = read_frame_from(conn, parser);
    EXPECT_EQ(apply.type, MsgType::kApply);
    util::AlignedVector<float> in;
    ApplyHeader reply = decode_apply(apply.payload, in);
    util::AlignedVector<float> out(static_cast<std::size_t>(reply.count) + 1, 0.0f);
    reply.count = out.size();
    conn.write_all(encode_frame(MsgType::kApplyResult, encode_apply(reply, out)));
  });
  RemoteBackend remote(specs, {ep});
  EXPECT_THROW((void)run_sharded_job(remote, job), ShardError);
  impostor.join();
}

TEST(RemoteBackend, ReadyFrameWithWrappedRowCountIsRefused) {
  const auto job = make_job(pipeline::Algorithm::kSirt);
  const auto specs = make_shard_specs(job, 1);
  // An impostor that claims 2^32 rows more than the shard has: ShardReady
  // keeps rows as int64, so the claim cannot wrap onto the true count, and
  // the coordinator's shape check refuses it.
  auto listener = net::ListenSocket::bind_tcp("127.0.0.1", 0);
  const Endpoint ep{"127.0.0.1", listener.port()};
  std::thread impostor([&] {
    net::Socket conn = listener.accept();
    FrameParser parser;
    const Frame build = read_frame_from(conn, parser);
    EXPECT_EQ(build.type, MsgType::kBuildShard);
    const ShardReady ready{specs[0].shard_id,
                           specs[0].local_rows() + (std::int64_t{1} << 32),
                           specs[0].geometry.num_cols(), 1, false, 0.0};
    conn.write_all(encode_frame(MsgType::kShardReady, ready.to_json().dump()));
  });
  try {
    RemoteBackend remote(specs, {ep});
    (void)run_sharded_job(remote, job);
    ADD_FAILURE() << "a ready frame with a wrapped row count was accepted";
  } catch (const ShardError& e) {
    EXPECT_NE(std::string(e.what()).find("with shape"), std::string::npos) << e.what();
  }
  impostor.join();
}

TEST(ParseEndpoint, AcceptsHostPortRejectsGarbage) {
  const Endpoint e = parse_endpoint("10.0.0.1:8125");
  EXPECT_EQ(e.host, "10.0.0.1");
  EXPECT_EQ(e.port, 8125);
  EXPECT_THROW((void)parse_endpoint("no-port"), util::CheckError);
  EXPECT_THROW((void)parse_endpoint(":80"), util::CheckError);
  EXPECT_THROW((void)parse_endpoint("host:"), util::CheckError);
  EXPECT_THROW((void)parse_endpoint("host:99999"), util::CheckError);
  EXPECT_THROW((void)parse_endpoint("host:12ab"), util::CheckError);
}

}  // namespace
}  // namespace cscv::dist
