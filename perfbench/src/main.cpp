// perfbench — the workload program behind perfbench/run.py.
//
//   perfbench --workload=solve_large --seed=1 --seconds=10 --trace=0
//             --out=RESULT.json --scratch=DIR
//
// Runs one workload: set-up (timed, repeated), a closed-loop timed window,
// then the correctness references and, with --trace=1, the per-layer
// measurements. Writes the raw samples, spans and layer values as one JSON
// file; run.py turns them into the reported metrics. Exits nonzero only
// when the run itself cannot complete — output mismatches are recorded per
// slice and judged by run.py.
#include <fstream>
#include <iostream>

#include "common.hpp"
#include "util/cli.hpp"

namespace {

using namespace cscv;
using namespace perfbench;

util::Json slice_json(const Slice& s) {
  util::Json j = util::Json::object();
  j["algo"] = util::Json(s.algo);
  j["status"] = util::Json(s.status);
  j["latency_s"] = util::Json(s.latency_s);
  j["rmse"] = util::Json(s.rmse);
  j["traced"] = util::Json(s.traced);
  j["solve_s"] = util::Json(s.solve_s);
  j["iterations"] = util::Json(s.iterations);
  j["queue_wait_s"] = util::Json(s.queue_wait_s);
  j["acquire_s"] = util::Json(s.acquire_s);
  j["submit_s"] = util::Json(s.submit_s);
  j["fetch_s"] = util::Json(s.fetch_s);
  j["polls"] = util::Json(s.polls);
  j["request_bytes"] = util::Json(s.request_bytes);
  j["response_bytes"] = util::Json(s.response_bytes);
  return j;
}

util::Json span_json(const Tracer::Span& s) {
  util::Json j = util::Json::array();
  j.push_back(util::Json(s.name));
  j.push_back(util::Json(static_cast<double>(s.start_ns) * 1e-9));
  j.push_back(util::Json(static_cast<double>(s.end_ns) * 1e-9));
  j.push_back(util::Json(s.id));
  j.push_back(util::Json(s.parent));
  j.push_back(util::Json(s.job));
  return j;
}

util::Json result_json(const RunResult& r) {
  util::Json out = util::Json::object();
  out["config"] = r.config;
  util::Json setup = util::Json::array();
  for (double s : r.setup_s) setup.push_back(util::Json(s));
  out["setup_s"] = std::move(setup);
  out["window_s"] = util::Json(r.window_s);
  out["rss_peak_mb"] = util::Json(r.rss_peak_mb);
  util::Json slices = util::Json::array();
  for (const Slice& s : r.slices) slices.push_back(slice_json(s));
  out["slices"] = std::move(slices);
  util::Json layers = util::Json::object();
  for (const auto& [name, value] : r.layers) layers[name] = util::Json(value);
  out["layers"] = std::move(layers);
  util::Json probes = util::Json::array();
  for (double p : r.probes) probes.push_back(util::Json(p));
  out["probes_bytes_per_s"] = std::move(probes);
  util::Json bypassed = util::Json::object();
  for (const auto& [name, probe] : r.bypassed) bypassed[name] = result_json(*probe);
  out["bypassed"] = std::move(bypassed);
  return out;
}

}  // namespace

int main(int argc, char** argv) try {
  util::CliFlags cli(argc, argv);
  Args args;
  args.workload = cli.get_string("workload", "");
  // Any 64-bit seed: run.py passes --seed reduced modulo 2^64.
  args.seed = std::stoull(cli.get_string("seed", "1"));
  args.seconds = cli.get_double("seconds", 10.0);
  args.trace = cli.get_int("trace", 0) != 0;
  args.out = cli.get_string("out", "");
  args.scratch = cli.get_string("scratch", "");
  cli.finish();
  CSCV_CHECK_MSG(!args.out.empty() && !args.scratch.empty(), "--out and --scratch are required");
  CSCV_CHECK_MSG(args.seconds > 0.0, "--seconds must be positive");

  progress("start " + args.workload);
  RunResult r;
  if (args.workload == "solve_large") {
    r = run_solve_large(args);
  } else if (args.workload == "serve_mixed") {
    r = run_serve_mixed(args);
  } else {
    CSCV_CHECK_MSG(false, "unknown --workload \"" << args.workload << "\"");
  }

  util::Json out = result_json(r);
  out["workload"] = util::Json(args.workload);
  out["seed"] = util::Json(args.seed);
  out["trace"] = util::Json(args.trace);
  out["machine"] = machine_record();
  util::Json spans = util::Json::array();
  for (const Tracer::Span& s : Tracer::instance().spans()) spans.push_back(span_json(s));
  out["spans"] = std::move(spans);

  std::ofstream file(args.out, std::ios::trunc);
  CSCV_CHECK_MSG(file.good(), "cannot write " << args.out);
  file << out.dump() << "\n";
  CSCV_CHECK_MSG(file.good(), "short write to " << args.out);
  progress("done");
  return 0;
} catch (const std::exception& e) {
  std::cerr << "perfbench: " << e.what() << "\n";
  return 2;
}
