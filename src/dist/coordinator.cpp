#include "dist/coordinator.hpp"

#include <cstddef>
#include <iostream>
#include <utility>

#include "util/json.hpp"

namespace cscv::dist {

// ---- LocalBackend ----------------------------------------------------------

LocalBackend::LocalBackend(std::vector<ShardSpec> specs, const std::string& spill_dir)
    : specs_(std::move(specs)) {
  CSCV_CHECK_MSG(!specs_.empty(), "LocalBackend needs at least one shard spec");
  shards_.reserve(specs_.size());
  for (const auto& spec : specs_) shards_.push_back(build_shard(spec, spill_dir));
}

void LocalBackend::apply_all(ApplyOp op, int subset,
                             const std::vector<std::span<const float>>& in,
                             std::vector<util::AlignedVector<float>>& out) {
  CSCV_CHECK_MSG(in.size() == specs_.size(), "apply_all: " << in.size() << " inputs for "
                                                           << specs_.size() << " shards");
  out.resize(specs_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    apply_shard(shards_[s], op, subset, in[s], out[s]);
  }
}

// ---- RemoteBackend ---------------------------------------------------------

namespace {

/// Floats a well-behaved worker returns for one apply (the output lengths of
/// apply_shard's contract, shard.hpp). A reply that disagrees is a confused
/// or hostile peer — an inconsistent-reply transport failure, not a solver
/// shape error.
std::uint64_t expected_reply_count(const ShardSpec& spec, ApplyOp op, int subset) {
  switch (op) {
    case ApplyOp::kAdjoint:
    case ApplyOp::kColSums:
      return static_cast<std::uint64_t>(spec.geometry.num_cols());
    case ApplyOp::kForward:
    case ApplyOp::kRowSums:
      break;
  }
  if (subset < 0) return static_cast<std::uint64_t>(spec.local_rows());
  std::uint64_t stratum_rows = 0;
  for (const auto& range : stratum_ranges(spec, subset)) stratum_rows += range.second;
  return stratum_rows;
}

}  // namespace

Endpoint parse_endpoint(const std::string& text) {
  const auto colon = text.rfind(':');
  CSCV_CHECK_MSG(colon != std::string::npos && colon > 0 && colon + 1 < text.size(),
                 "endpoint '" << text << "' is not host:port");
  int port = 0;
  for (std::size_t i = colon + 1; i < text.size(); ++i) {
    const char c = text[i];
    CSCV_CHECK_MSG(c >= '0' && c <= '9', "endpoint '" << text << "' has a non-numeric port");
    port = port * 10 + (c - '0');
    CSCV_CHECK_MSG(port <= 65535, "endpoint '" << text << "' port out of range");
  }
  CSCV_CHECK_MSG(port > 0, "endpoint '" << text << "' port out of range");
  return Endpoint{text.substr(0, colon), static_cast<std::uint16_t>(port)};
}

RemoteBackend::RemoteBackend(std::vector<ShardSpec> specs, std::vector<Endpoint> endpoints,
                             RemoteOptions options)
    : specs_(std::move(specs)), endpoints_(std::move(endpoints)),
      options_(options) {
  CSCV_CHECK_MSG(!specs_.empty(), "RemoteBackend needs at least one shard spec");
  CSCV_CHECK_MSG(!endpoints_.empty(), "RemoteBackend needs at least one endpoint");
  endpoint_alive_.assign(endpoints_.size(), true);
  conns_.resize(endpoints_.size());
  shard_endpoint_.resize(specs_.size());
  for (std::size_t s = 0; s < specs_.size(); ++s) {
    shard_endpoint_[s] = static_cast<int>(s % endpoints_.size());
  }
  // The initial build runs under the same failover loop as every apply: a
  // worker that is already gone at startup just shrinks the endpoint set.
  for (;;) {
    try {
      connect_and_build();
      return;
    } catch (const TransportFailure& f) {
      failover(f);
    }
  }
}

int RemoteBackend::live_endpoints() const {
  int n = 0;
  for (const bool alive : endpoint_alive_) n += alive ? 1 : 0;
  return n;
}

void RemoteBackend::failover(const TransportFailure& failed) {
  endpoint_alive_[failed.endpoint] = false;
  // Fresh connections for everyone: a half-read reply on any surviving
  // connection would desync the request/response pairing, and reconnecting
  // is cheaper than sequencing.
  for (auto& c : conns_) c.reset();

  std::vector<int> survivors;
  for (std::size_t e = 0; e < endpoints_.size(); ++e) {
    if (endpoint_alive_[e]) survivors.push_back(static_cast<int>(e));
  }
  if (survivors.empty()) {
    throw ShardError("all shard workers lost; last failure: " + failed.detail);
  }
  std::size_t next = 0;
  for (std::size_t s = 0; s < specs_.size(); ++s) {
    if (!endpoint_alive_[static_cast<std::size_t>(shard_endpoint_[s])]) {
      shard_endpoint_[s] = survivors[next++ % survivors.size()];
    }
  }
  const auto& lost = endpoints_[failed.endpoint];
  std::cerr << "dist: worker " << lost.host << ":" << lost.port << " lost ("
            << failed.detail << "); resharding over " << survivors.size()
            << " surviving worker(s)" << std::endl;
}

void RemoteBackend::send_frame(std::size_t e, const std::string& wire) {
  auto& conn = conns_[e];
  CSCV_CHECK_MSG(conn.has_value(), "send on unconnected endpoint " << e);
  if (!conn->sock.write_all(wire)) {
    throw TransportFailure{e, "send to " + endpoints_[e].host + ":" +
                                  std::to_string(endpoints_[e].port) + " failed"};
  }
}

Frame RemoteBackend::read_frame(std::size_t e, double timeout_seconds) {
  auto& conn = conns_[e];
  CSCV_CHECK_MSG(conn.has_value(), "read on unconnected endpoint " << e);
  const std::string where =
      endpoints_[e].host + ":" + std::to_string(endpoints_[e].port);
  conn->sock.set_recv_timeout(timeout_seconds);
  Frame frame;
  char buf[65536];
  for (;;) {
    try {
      if (conn->parser.next(frame)) return frame;
    } catch (const ProtocolError& err) {
      throw TransportFailure{e, "desynced stream from " + where + ": " + err.what()};
    }
    const std::ptrdiff_t n = conn->sock.read_some(buf, sizeof(buf));
    if (n == 0) throw TransportFailure{e, "worker " + where + " closed the connection"};
    if (n < 0) {
      throw TransportFailure{e, "worker " + where + " did not answer within " +
                                    std::to_string(timeout_seconds) + " s"};
    }
    conn->parser.append(buf, static_cast<std::size_t>(n));
  }
}

void RemoteBackend::connect_and_build() {
  // Connect every live endpoint (even ones hosting no shard right now —
  // they are the failover capacity and shutdown_workers' audience).
  for (std::size_t e = 0; e < endpoints_.size(); ++e) {
    if (!endpoint_alive_[e] || conns_[e].has_value()) continue;
    try {
      conns_[e].emplace(Conn{net::connect_tcp(endpoints_[e].host, endpoints_[e].port,
                                              options_.connect_timeout_seconds),
                             FrameParser(options_.limits)});
    } catch (const util::CheckError& err) {
      throw TransportFailure{e, err.what()};
    }
  }

  // Build requests pipeline depth-1 per endpoint: each worker builds its
  // shards sequentially anyway, and replies are read in global shard order
  // so the reduce-side bookkeeping stays trivial.
  std::vector<std::vector<std::size_t>> queue(endpoints_.size());
  for (std::size_t s = 0; s < specs_.size(); ++s) {
    queue[static_cast<std::size_t>(shard_endpoint_[s])].push_back(s);
  }
  std::vector<std::size_t> next(endpoints_.size(), 0);
  const auto send_next = [&](std::size_t e) {
    if (next[e] >= queue[e].size()) return;
    const std::size_t s = queue[e][next[e]++];
    send_frame(e, encode_frame(MsgType::kBuildShard, specs_[s].to_json().dump()));
  };
  for (std::size_t e = 0; e < endpoints_.size(); ++e) {
    if (!queue[e].empty()) send_next(e);
  }

  for (std::size_t s = 0; s < specs_.size(); ++s) {
    const auto e = static_cast<std::size_t>(shard_endpoint_[s]);
    const Frame frame = read_frame(e, options_.build_timeout_seconds);
    if (frame.type == MsgType::kError) {
      throw ShardError("worker " + endpoints_[e].host + ":" +
                       std::to_string(endpoints_[e].port) + " rejected shard " +
                       std::to_string(s) + ": " + decode_error(frame.payload));
    }
    if (frame.type != MsgType::kShardReady) {
      throw TransportFailure{e, "expected kShardReady for shard " + std::to_string(s) +
                                    ", got type " +
                                    std::to_string(static_cast<int>(frame.type))};
    }
    ShardReady ready;
    try {
      ready = ShardReady::from_json(util::Json::parse(frame.payload));
    } catch (const util::CheckError& err) {
      throw TransportFailure{e, std::string("bad kShardReady payload: ") + err.what()};
    }
    const auto& spec = specs_[s];
    if (ready.shard_id != spec.shard_id || ready.rows != spec.local_rows() ||
        ready.cols != spec.geometry.num_cols()) {
      throw ShardError("worker " + endpoints_[e].host + ":" +
                       std::to_string(endpoints_[e].port) + " built shard " +
                       std::to_string(ready.shard_id) + " with shape " +
                       std::to_string(ready.rows) + "x" + std::to_string(ready.cols) +
                       ", expected shard " + std::to_string(spec.shard_id) + " " +
                       std::to_string(spec.local_rows()) + "x" +
                       std::to_string(spec.geometry.num_cols()));
    }
    send_next(e);  // depth-1 pipelining: request this endpoint's next shard
  }
}

void RemoteBackend::apply_once(ApplyOp op, int subset,
                               const std::vector<std::span<const float>>& in,
                               std::vector<util::AlignedVector<float>>& out) {
  // Depth-1 pipelining per endpoint (send the next request only after the
  // previous reply is fully read) keeps every worker busy while making the
  // classic both-sides-blocked-writing pipelining deadlock impossible —
  // whenever the coordinator writes to a worker, that worker is idle and
  // reading. Replies are consumed in global shard order; an endpoint's own
  // shards are queued in ascending order, so each reply is requested before
  // the read loop reaches it.
  std::vector<std::vector<std::size_t>> queue(endpoints_.size());
  for (std::size_t s = 0; s < specs_.size(); ++s) {
    queue[static_cast<std::size_t>(shard_endpoint_[s])].push_back(s);
  }
  std::vector<std::size_t> next(endpoints_.size(), 0);
  const auto send_next = [&](std::size_t e) {
    if (next[e] >= queue[e].size()) return;
    const std::size_t s = queue[e][next[e]++];
    ApplyHeader header{specs_[s].shard_id, op, subset, in[s].size()};
    send_frame(e, encode_frame(MsgType::kApply, encode_apply(header, in[s])));
  };
  for (std::size_t e = 0; e < endpoints_.size(); ++e) {
    if (!queue[e].empty()) send_next(e);
  }

  for (std::size_t s = 0; s < specs_.size(); ++s) {
    const auto e = static_cast<std::size_t>(shard_endpoint_[s]);
    const Frame frame = read_frame(e, options_.apply_timeout_seconds);
    if (frame.type == MsgType::kError) {
      throw ShardError("worker " + endpoints_[e].host + ":" +
                       std::to_string(endpoints_[e].port) + " failed shard " +
                       std::to_string(s) + ": " + decode_error(frame.payload));
    }
    if (frame.type != MsgType::kApplyResult) {
      throw TransportFailure{e, "expected kApplyResult for shard " + std::to_string(s) +
                                    ", got type " +
                                    std::to_string(static_cast<int>(frame.type))};
    }
    ApplyHeader reply;
    try {
      reply = decode_apply(frame.payload, out[s]);
    } catch (const ProtocolError& err) {
      throw TransportFailure{e, std::string("bad kApplyResult payload: ") + err.what()};
    }
    if (reply.shard_id != specs_[s].shard_id || reply.op != op ||
        reply.subset != subset) {
      throw TransportFailure{e, "kApplyResult for shard " +
                                    std::to_string(reply.shard_id) +
                                    " does not match the request for shard " +
                                    std::to_string(s)};
    }
    const std::uint64_t want = expected_reply_count(specs_[s], op, subset);
    if (reply.count != want) {
      throw TransportFailure{e, "kApplyResult for shard " + std::to_string(s) +
                                    " carries " + std::to_string(reply.count) +
                                    " floats, expected " + std::to_string(want)};
    }
    send_next(e);
  }
}

void RemoteBackend::apply_all(ApplyOp op, int subset,
                              const std::vector<std::span<const float>>& in,
                              std::vector<util::AlignedVector<float>>& out) {
  CSCV_CHECK_MSG(in.size() == specs_.size(), "apply_all: " << in.size() << " inputs for "
                                                           << specs_.size() << " shards");
  out.resize(specs_.size());
  // Each failed attempt removes at least one endpoint (failover throws
  // ShardError once none are left), so this loop runs at most
  // endpoints_.size() times. ShardError — a live worker refusing — is not
  // retried: retrying a deterministic rejection cannot succeed.
  for (;;) {
    try {
      apply_once(op, subset, in, out);
      return;
    } catch (const TransportFailure& f) {
      failover(f);
    }
    for (;;) {
      try {
        connect_and_build();
        break;
      } catch (const TransportFailure& f) {
        failover(f);
      }
    }
  }
}

void RemoteBackend::shutdown_workers() {
  const std::string wire = encode_frame(MsgType::kShutdown, "");
  for (std::size_t e = 0; e < endpoints_.size(); ++e) {
    if (!endpoint_alive_[e] || !conns_[e].has_value()) continue;
    (void)conns_[e]->sock.write_all(wire);  // best effort — worker may be gone
    conns_[e].reset();
  }
}

}  // namespace cscv::dist
