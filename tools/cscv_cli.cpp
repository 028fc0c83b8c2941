// cscv_cli — command-line front end for the library.
//
//   cscv_cli generate --image=256 --views=120 [--geometry=parallel|fan]
//                     [--mtx=out.mtx] [--cscv=out.cscv] [--precision=single]
//   cscv_cli info     --mtx=matrix.mtx | --cscv=matrix.cscv
//   cscv_cli convert  --mtx=in.mtx --image=N --bins=B --views=V --cscv=out.cscv
//                     [--svvec=8 --simgb=16 --svxg=4 --variant=m|z]
//   cscv_cli spmv     --cscv=matrix.cscv [--iters=20] [--threads=N]
//   cscv_cli verify   <file.cscv> [--level=cheap|full] [--json]
//   cscv_cli isa      [--json]
//   cscv_cli serve-demo [--image=64 --views=48 --jobs=16 --workers=N]
//                       [--queue=8 --policy=block|reject] [--algorithm=sirt]
//                       [--iters=8] [--budget_mb=512] [--spill=DIR] [--json]
//   cscv_cli submit   --port=P [--host=127.0.0.1] [--image=64 --views=48]
//                     [--algorithm=sirt --iters=8] [--class=batch|interactive]
//                     [--tenant=default] [--tag=...] [--deadline=0]
//                     [--save-volume=out.raw] [--no-wait] [--local] [--json]
//   cscv_cli fetch    --port=P --id=N [--save-volume=out.raw] [--json]
//   cscv_cli stats    --port=P [--expect-ok=N] [--json]
//   cscv_cli shard-run --endpoints=host:port,... [--image=64 --views=48]
//                     [--algorithm=sirt|cgls|ossart --iters=8 --subsets=8]
//                     [--shards=N] [--check] [--save-volume=out.raw]
//                     [--shutdown-workers]
//
// submit/fetch/stats speak the HTTP API of cscv_serve (docs/SERVICE.md).
// `submit --local` runs the identical job through an in-process ReconService
// instead — the reference path the service-e2e CI gate compares against
// bitwise. shard-run drives cscv_shardd workers over the shard protocol
// (docs/SHARDING.md); --check reruns the job on an in-process LocalBackend
// with the same shard boundaries and memcmps the volumes. Exit codes: 0 ok,
// 1 error, 3 structured HTTP rejection (4xx/503), 4 structured shard
// failure (all workers lost / worker rejected the job).
//
// Everything the bench harness measures is reachable from here on user data.
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/autotune.hpp"
#include "core/dispatch.hpp"
#include "core/plan.hpp"
#include "core/serialize.hpp"
#include "core/verify.hpp"
#include "ct/fan_beam.hpp"
#include "ct/phantom.hpp"
#include "ct/system_matrix.hpp"
#include "dist/coordinator.hpp"
#include "dist/sharded_operator.hpp"
#include "net/client.hpp"
#include "pipeline/service.hpp"
#include "sparse/convert.hpp"
#include "sparse/mmio.hpp"
#include "sparse/random.hpp"
#include "sparse/stats.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"
#include "util/timing.hpp"

namespace {

using namespace cscv;

core::CscvParams params_from_flags(util::CliFlags& cli) {
  core::CscvParams p;
  p.s_vvec = cli.get_int("svvec", 8);
  p.s_imgb = cli.get_int("simgb", 16);
  p.s_vxg = cli.get_int("svxg", 4);
  p.validate();
  return p;
}

int cmd_generate(util::CliFlags& cli) {
  const int image = cli.get_int("image", 128);
  const int views = cli.get_int("views", 60);
  const std::string geometry = cli.get_string("geometry", "parallel");
  const std::string mtx_path = cli.get_string("mtx", "");
  const std::string cscv_path = cli.get_string("cscv", "");
  auto params = params_from_flags(cli);
  cli.finish();

  sparse::CscMatrix<float> csc;
  core::OperatorLayout layout;
  if (geometry == "fan") {
    auto g = ct::standard_fan_geometry(image, views);
    csc = ct::build_fan_system_matrix_csc<float>(g);
    layout = {g.image_size, g.num_bins, g.num_views};
  } else {
    auto g = ct::standard_geometry(image, views);
    csc = ct::build_system_matrix_csc<float>(g);
    layout = core::OperatorLayout::from_geometry(g);
  }
  std::cout << "built " << geometry << "-beam matrix: " << csc.rows() << " x "
            << csc.cols() << ", " << csc.nnz() << " nnz\n";

  if (!mtx_path.empty()) {
    sparse::write_matrix_market_file(mtx_path, csc.to_coo());
    std::cout << "wrote " << mtx_path << "\n";
  }
  if (!cscv_path.empty()) {
    auto m = core::CscvMatrix<float>::build(csc, layout, params,
                                            core::CscvMatrix<float>::Variant::kM);
    core::save_cscv_file(cscv_path, m);
    std::cout << "wrote " << cscv_path << " (CSCV-M, R_nnzE = " << m.r_nnze() << ")\n";
  }
  return 0;
}

int cmd_info(util::CliFlags& cli) {
  const std::string mtx_path = cli.get_string("mtx", "");
  const std::string cscv_path = cli.get_string("cscv", "");
  cli.finish();

  if (!mtx_path.empty()) {
    auto coo = sparse::read_matrix_market_file<double>(mtx_path);
    auto s = sparse::compute_stats(coo);
    util::Table t({"property", "value"});
    t.add("rows", s.shape.rows);
    t.add("cols", s.shape.cols);
    t.add("nnz", static_cast<long long>(s.shape.nnz));
    t.add("density", s.density);
    t.add("row nnz (min/mean/max)", std::to_string(s.row.min) + " / " +
                                        util::fmt_fixed(s.row.mean, 2) + " / " +
                                        std::to_string(s.row.max));
    t.add("col nnz (min/mean/max)", std::to_string(s.col.min) + " / " +
                                        util::fmt_fixed(s.col.mean, 2) + " / " +
                                        std::to_string(s.col.max));
    t.add("empty rows", s.row.empty);
    t.add("empty cols", s.col.empty);
    t.add("bandwidth", s.bandwidth);
    t.print(std::cout);
    return 0;
  }
  if (!cscv_path.empty()) {
    auto m = core::load_cscv_file<float>(cscv_path);
    util::Table t({"property", "value"});
    t.add("variant", m.variant() == core::CscvMatrix<float>::Variant::kZ ? "CSCV-Z" : "CSCV-M");
    t.add("rows", m.rows());
    t.add("cols", m.cols());
    t.add("nnz", static_cast<long long>(m.nnz()));
    t.add("folded", m.folded() ? "yes (views 0.." + std::to_string(m.layout().num_views / 4) +
                                     " stored, " +
                                     std::to_string(static_cast<long long>(m.stored_nnz())) +
                                     " nonzeros)"
                               : std::string("no"));
    t.add("S_VVec / S_ImgB / S_VxG", std::to_string(m.params().s_vvec) + " / " +
                                         std::to_string(m.params().s_imgb) + " / " +
                                         std::to_string(m.params().s_vxg));
    t.add("R_nnzE", m.r_nnze());
    t.add("VxGs", static_cast<long long>(m.num_vxgs()));
    t.add("blocks", m.num_blocks());
    t.add("matrix bytes", util::fmt_bytes(m.matrix_bytes()));
    t.print(std::cout);
    return 0;
  }
  std::cerr << "info: pass --mtx=... or --cscv=...\n";
  return 2;
}

int cmd_convert(util::CliFlags& cli) {
  const std::string mtx_path = cli.get_string("mtx", "");
  const std::string cscv_path = cli.get_string("cscv", "out.cscv");
  const int image = cli.get_int("image", 0);
  const int bins = cli.get_int("bins", 0);
  const int views = cli.get_int("views", 0);
  const std::string variant_name = cli.get_string("variant", "m");
  auto params = params_from_flags(cli);
  cli.finish();

  CSCV_CHECK_MSG(!mtx_path.empty(), "convert needs --mtx=...");
  CSCV_CHECK_MSG(image > 0 && bins > 0 && views > 0,
                 "convert needs --image, --bins, --views (the operator layout)");
  auto coo = sparse::read_matrix_market_file<float>(mtx_path);
  auto csc = sparse::CscMatrix<float>::from_coo(coo);
  const core::OperatorLayout layout{image, bins, views};
  const auto variant = variant_name == "z" ? core::CscvMatrix<float>::Variant::kZ
                                           : core::CscvMatrix<float>::Variant::kM;
  util::WallTimer t;
  auto m = core::CscvMatrix<float>::build(csc, layout, params, variant);
  std::cout << "converted in " << t.seconds() << " s: R_nnzE = " << m.r_nnze() << ", "
            << m.num_vxgs() << " VxGs\n";
  core::save_cscv_file(cscv_path, m);
  std::cout << "wrote " << cscv_path << "\n";
  return 0;
}

int cmd_tune(util::CliFlags& cli) {
  const int image = cli.get_int("image", 0);
  const int bins = cli.get_int("bins", 0);
  const int views = cli.get_int("views", 0);
  const std::string mtx_path = cli.get_string("mtx", "");
  const int iters = cli.get_int("iters", 8);
  cli.finish();

  sparse::CscMatrix<float> csc;
  core::OperatorLayout layout;
  if (!mtx_path.empty()) {
    CSCV_CHECK_MSG(image > 0 && bins > 0 && views > 0,
                   "tune --mtx needs --image, --bins, --views");
    csc = sparse::CscMatrix<float>::from_coo(sparse::read_matrix_market_file<float>(mtx_path));
    layout = {image, bins, views};
  } else {
    CSCV_CHECK_MSG(image > 0 && views > 0, "tune needs --image and --views (or --mtx)");
    auto g = ct::standard_geometry(image, views);
    csc = ct::build_system_matrix_csc<float>(g);
    layout = core::OperatorLayout::from_geometry(g);
  }
  core::AutotuneOptions opts;
  opts.iterations = iters;
  util::Table t({"variant", "S_VVec", "S_ImgB", "S_VxG", "R_nnzE", "GFLOP/s",
                 "tried", "skipped"});
  for (auto variant : {core::CscvMatrix<float>::Variant::kZ,
                       core::CscvMatrix<float>::Variant::kM}) {
    auto r = core::autotune<float>(csc, layout, variant, opts);
    t.add(variant == core::CscvMatrix<float>::Variant::kZ ? "CSCV-Z" : "CSCV-M",
          r.params.s_vvec, r.params.s_imgb, r.params.s_vxg, util::fmt_fixed(r.r_nnze, 3),
          util::fmt_fixed(r.gflops, 2), r.candidates_tried, r.candidates_skipped);
  }
  t.print(std::cout);
  return 0;
}

int cmd_spmv(util::CliFlags& cli) {
  const std::string cscv_path = cli.get_string("cscv", "");
  const int iters = cli.get_int("iters", 20);
  const int threads = cli.get_int("threads", util::max_threads());
  cli.finish();
  CSCV_CHECK_MSG(!cscv_path.empty(), "spmv needs --cscv=...");

  auto m = core::load_cscv_file<float>(cscv_path);
  auto x = sparse::random_vector<float>(static_cast<std::size_t>(m.cols()), 1, 0.0, 1.0);
  util::AlignedVector<float> y(static_cast<std::size_t>(m.rows()));
  util::set_num_threads(threads);
  // Build the execution plan up front (the warm state an iterating caller
  // sees) and report what it resolved to.
  const core::SpmvPlan<float> plan(m);
  std::cout << "plan: "
            << (plan.scheme() == core::ThreadScheme::kRowPartition ? "row-partition"
                                                                   : "private-y")
            << " scheme, " << (plan.hardware_expand() ? "hardware" : "software")
            << " expand, " << plan.threads() << " threads, "
            << static_cast<double>(plan.scratch_bytes()) / 1024.0 << " KiB scratch\n";
  const double seconds = util::min_time_seconds(iters, [&] { plan.execute(x, y); });
  std::cout << "y = Ax: " << seconds * 1e3 << " ms/iter (min of " << iters << "), "
            << util::spmv_gflops(static_cast<std::uint64_t>(m.nnz()), seconds)
            << " GFLOP/s at " << threads << " threads\n";
  return 0;
}

/// Element width recorded in a .cscv header (so verify can dispatch to the
/// right precision without asking the user). Throws on non-CSCV files.
std::uint32_t peek_elem_size(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  CSCV_CHECK_MSG(in.is_open(), "cannot open " << path);
  std::uint32_t header[3] = {0, 0, 0};
  in.read(reinterpret_cast<char*>(header), sizeof(header));
  CSCV_CHECK_MSG(static_cast<bool>(in), "cscv.header.magic: truncated CSCV header");
  CSCV_CHECK_MSG(header[0] == core::kCscvFileMagic, "cscv.header.magic: not a CSCV file");
  return header[2];
}

template <typename T>
core::VerifyReport load_and_verify(const std::string& path, core::VerifyLevel level) {
  auto m = core::load_cscv_file<T>(path);
  return core::verify(m, level);
}

int cmd_verify(util::CliFlags& cli) {
  std::string path = cli.get_string("cscv", "");
  const std::string level_name = cli.get_string("level", "full");
  const bool as_json = cli.get_bool("json");
  if (path.empty() && !cli.positional().empty()) path = cli.positional().front();
  cli.finish();
  CSCV_CHECK_MSG(!path.empty(), "verify needs a file: cscv_cli verify matrix.cscv");
  CSCV_CHECK_MSG(level_name == "cheap" || level_name == "full",
                 "--level must be cheap or full (got " << level_name << ")");
  const auto level =
      level_name == "cheap" ? core::VerifyLevel::kCheap : core::VerifyLevel::kFull;

  core::VerifyReport report;
  report.level = level;
  try {
    report = peek_elem_size(path) == sizeof(double)
                 ? load_and_verify<double>(path, level)
                 : load_and_verify<float>(path, level);
  } catch (const util::CheckError& e) {
    // Deserialization rejected the blob before a matrix existed; surface
    // the named invariant from the exception as the report.
    report.add("load", e.what());
  }

  if (as_json) {
    auto j = report.to_json();
    j["file"] = path;
    std::cout << j.dump(2) << "\n";
  } else {
    std::cout << path << ": " << report.summary() << "\n";
    for (const auto& issue : report.issues) {
      std::cout << "  [" << issue.invariant << "] " << issue.detail << "\n";
    }
    if (report.total_violations > report.issues.size()) {
      std::cout << "  ... and " << report.total_violations - report.issues.size()
                << " more\n";
    }
  }
  return report.ok() ? 0 : 1;
}

// What would this process dispatch? Reports the CPU's SIMD features, the
// kernel tiers compiled into this binary, the tier level-one dispatch
// selects right now (honoring CSCV_FORCE_ISA), and whether the hardware
// vexpand path is active per (precision, S_VVec) under that tier — the
// ground truth behind PlanStats::isa_tier and bench reports' "isa_tier".
int cmd_isa(util::CliFlags& cli) {
  const bool as_json = cli.get_bool("json");
  cli.finish();

  namespace dispatch = core::dispatch;
  const simd::IsaInfo& cpu = simd::cpu_isa();
  const dispatch::TierChoice choice = dispatch::select_tier();

  std::string registered;
  for (int i = 0; i < simd::kNumIsaTiers; ++i) {
    const auto tier = static_cast<simd::IsaTier>(i);
    if (!dispatch::tier_registered(tier)) continue;
    if (!registered.empty()) registered += ' ';
    registered += simd::isa_tier_name(tier);
  }

  const std::pair<const char*, bool> features[] = {
      {"avx2", cpu.avx2},         {"fma", cpu.fma},
      {"avx512f", cpu.avx512f},   {"avx512vl", cpu.avx512vl},
      {"avx512dq", cpu.avx512dq}, {"f16c", cpu.f16c},
      {"avx512bf16", cpu.avx512bf16},
      {"avx512fp16", cpu.avx512fp16},
  };
  constexpr int kWidths[] = {4, 8, 16};

  if (as_json) {
    util::Json j = util::Json::object();
    util::Json cpu_json = util::Json::object();
    for (const auto& [name, present] : features) cpu_json[name] = util::Json(present);
    j["cpu"] = std::move(cpu_json);
    util::Json tiers = util::Json::array();
    for (int i = 0; i < simd::kNumIsaTiers; ++i) {
      const auto tier = static_cast<simd::IsaTier>(i);
      if (dispatch::tier_registered(tier)) {
        tiers.push_back(util::Json(simd::isa_tier_name(tier)));
      }
    }
    j["registered_tiers"] = std::move(tiers);
    j["selected_tier"] = util::Json(simd::isa_tier_name(choice.tier));
    j["forced"] = util::Json(choice.forced);
    j["clamped"] = util::Json(choice.clamped);
    util::Json expand = util::Json::object();
    for (const char* precision : {"f32", "f64"}) {
      const bool is_double = precision[1] == '6';
      util::Json row = util::Json::object();
      for (int s : kWidths) {
        row[std::to_string(s)] = util::Json(dispatch::resolve_expand_path(
            simd::ExpandPath::kAuto, is_double, s, choice.tier));
      }
      expand[precision] = std::move(row);
    }
    j["hardware_expand"] = std::move(expand);
    std::cout << j.dump(2) << "\n";
    return 0;
  }

  util::Table t({"property", "value"});
  std::string cpu_line;
  for (const auto& [name, present] : features) {
    if (!present) continue;
    if (!cpu_line.empty()) cpu_line += ' ';
    cpu_line += name;
  }
  t.add("cpu features", cpu_line.empty() ? "(none)" : cpu_line);
  t.add("registered tiers", registered);
  std::string selected = simd::isa_tier_name(choice.tier);
  if (choice.forced) selected += choice.clamped ? " (forced, clamped)" : " (forced)";
  t.add("selected tier", selected);
  t.print(std::cout);

  util::Table e({"precision", "S_VVec", "hardware expand"});
  for (const char* precision : {"f32", "f64"}) {
    const bool is_double = precision[1] == '6';
    for (int s : kWidths) {
      e.add(precision, s,
            dispatch::resolve_expand_path(simd::ExpandPath::kAuto, is_double, s,
                                          choice.tier)
                ? "yes"
                : "no");
    }
  }
  e.print(std::cout);
  return 0;
}

// Push a batch of phantom reconstructions through ReconService and report
// per-job results plus service/cache counters — a runnable demonstration of
// the concurrent serving path on synthetic data.
int cmd_serve_demo(util::CliFlags& cli) {
  const int image = cli.get_int("image", 64);
  const int views = cli.get_int("views", 48);
  const int jobs = cli.get_int("jobs", 16);
  const int workers = cli.get_int("workers", util::max_threads());
  const int queue = cli.get_int("queue", 8);
  const std::string policy = cli.get_string("policy", "block");
  const std::string algorithm_name = cli.get_string("algorithm", "sirt");
  const int iters = cli.get_int("iters", 8);
  const int budget_mb = cli.get_int("budget_mb", 512);
  const std::string spill = cli.get_string("spill", "");
  const bool as_json = cli.get_bool("json");
  cli.finish();
  CSCV_CHECK_MSG(policy == "block" || policy == "reject",
                 "--policy must be block or reject (got " << policy << ")");

  // Alternate between two geometries so the demo exercises cache keying,
  // not just a single hot entry.
  const auto g_a = ct::standard_geometry(image, views);
  const auto g_b = ct::standard_geometry(image + image / 2, views);
  const auto phantom = ct::shepp_logan_modified();
  const auto sino_a = ct::analytic_sinogram<float>(phantom, g_a);
  const auto sino_b = ct::analytic_sinogram<float>(phantom, g_b);

  pipeline::ServiceOptions opts;
  opts.num_workers = workers;
  opts.queue_capacity = static_cast<std::size_t>(queue);
  opts.admission = policy == "reject" ? pipeline::AdmissionPolicy::kReject
                                      : pipeline::AdmissionPolicy::kBlock;
  opts.cache.budget_bytes = static_cast<std::size_t>(budget_mb) << 20;
  opts.cache.spill_dir = spill;
  pipeline::ReconService service(opts);

  util::WallTimer timer;
  std::vector<std::future<pipeline::ReconResult>> inflight;
  inflight.reserve(static_cast<std::size_t>(jobs));
  for (int i = 0; i < jobs; ++i) {
    pipeline::ReconJob job;
    const bool odd = i % 2 != 0;
    job.geometry = odd ? g_b : g_a;
    job.sinogram = odd ? sino_b : sino_a;
    job.algorithm = pipeline::algorithm_from_name(algorithm_name);
    job.solve.iterations = iters;
    job.tag = "demo-" + std::to_string(i);
    inflight.push_back(service.submit(std::move(job)).result);
  }
  std::vector<pipeline::ReconResult> results;
  results.reserve(inflight.size());
  for (auto& f : inflight) results.push_back(f.get());
  const double wall = timer.seconds();
  service.shutdown();

  if (as_json) {
    util::Json j;
    j["wall_seconds"] = wall;
    j["service"] = service.stats().to_json();
    j["cache"] = service.cache_stats().to_json();
    util::Json arr = util::Json::array();
    for (const auto& r : results) arr.push_back(r.to_json());
    j["jobs"] = std::move(arr);
    std::cout << j.dump(2) << "\n";
  } else {
    util::Table t({"job", "status", "worker", "cache", "wait ms", "solve ms", "residual"});
    for (const auto& r : results) {
      t.add(r.tag, pipeline::job_status_name(r.status), r.worker,
            r.cache_hit ? "hit" : "miss", util::fmt_fixed(r.queue_wait_seconds * 1e3, 2),
            util::fmt_fixed(r.solve_seconds * 1e3, 2),
            util::fmt_fixed(r.final_residual, 4));
    }
    t.print(std::cout);
    const auto s = service.stats();
    const auto c = service.cache_stats();
    std::cout << jobs << " jobs in " << util::fmt_fixed(wall, 3) << " s on " << workers
              << " workers: " << s.completed << " ok, " << s.rejected << " rejected, "
              << s.expired << " expired, " << s.failed << " failed\n"
              << "cache: " << c.builds << " builds, hit rate "
              << util::fmt_fixed(c.hit_rate(), 3) << ", resident "
              << util::fmt_bytes(c.resident_bytes) << " in " << c.resident_entries
              << " entries\n";
  }
  return 0;
}

// ---- service client subcommands (submit / fetch / stats) -------------------

/// Raw float32 LE dump — the byte-stable format the e2e gate `cmp`s.
void save_volume_raw(const std::string& path, const float* data, std::size_t count) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  CSCV_CHECK_MSG(out.good(), "cannot open --save-volume path " << path);
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(count * sizeof(float)));
  CSCV_CHECK_MSG(out.good(), "short write to " << path);
}

/// Polls /v1/jobs/<id> until done (or `timeout` passes), then downloads the
/// volume. Returns the process exit code.
int poll_and_fetch(net::HttpClient& client, std::uint64_t id,
                   const std::string& save_volume, double timeout_seconds,
                   double poll_interval_seconds, bool as_json) {
  const std::string status_url = "/v1/jobs/" + std::to_string(id);
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::duration<double>(timeout_seconds);
  util::Json status;
  for (;;) {
    status = client.get_json(status_url);
    if (status.at("state").as_string() == "done") break;
    CSCV_CHECK_MSG(std::chrono::steady_clock::now() < give_up,
                   "job " << id << " still pending after " << timeout_seconds << " s");
    std::this_thread::sleep_for(
        std::chrono::duration<double>(poll_interval_seconds));
  }
  const util::Json& result = status.at("result");
  const std::string job_status = result.at("status").as_string();
  if (job_status != "ok") {
    std::cerr << "job " << id << " finished as " << job_status << "\n"
              << status.dump(2) << "\n";
    return 1;
  }
  if (!save_volume.empty()) {
    const net::HttpResponse volume = client.get(status_url + "/volume");
    CSCV_CHECK_MSG(volume.status == 200,
                   "volume fetch returned " << volume.status << ": " << volume.body);
    CSCV_CHECK_MSG(volume.body.size() % sizeof(float) == 0,
                   "volume body is " << volume.body.size()
                                     << " bytes — not a float32 array");
    save_volume_raw(save_volume,
                    reinterpret_cast<const float*>(volume.body.data()),
                    volume.body.size() / sizeof(float));
  }
  if (as_json) {
    std::cout << status.dump(2) << "\n";
  } else {
    std::cout << "job " << id << ": ok, " << result.at("iterations_run").as_int()
              << " iterations, residual "
              << util::fmt_fixed(result.at("final_residual").as_double(), 4)
              << ", solve " << util::fmt_fixed(result.at("solve_seconds").as_double(), 3)
              << " s, " << result.at("volume_elements").as_int() << " voxels"
              << (save_volume.empty() ? "" : " -> " + save_volume) << "\n";
  }
  return 0;
}

int cmd_submit(util::CliFlags& cli) {
  const std::string host = cli.get_string("host", "127.0.0.1");
  const int port = cli.get_int("port", 0);
  const int image = cli.get_int("image", 64);
  const int views = cli.get_int("views", 48);
  const std::string algorithm_name = cli.get_string("algorithm", "sirt");
  const int iters = cli.get_int("iters", 8);
  const std::string qos = cli.get_string("class", "batch");
  const std::string tenant = cli.get_string("tenant", "");
  const std::string tag = cli.get_string("tag", "");
  const double deadline = cli.get_double("deadline", 0.0);
  const std::string save_volume = cli.get_string("save-volume", "");
  const bool local = cli.get_bool("local");
  const bool no_wait = cli.get_bool("no-wait");
  const bool as_json = cli.get_bool("json");
  const double timeout = cli.get_double("timeout", 120.0);
  const double poll_interval = cli.get_double("poll-interval", 0.05);
  cli.finish();

  // The canonical phantom job: both the --local reference and the served
  // path build it from the same flags, so their volumes must match bitwise.
  pipeline::ReconJob job;
  job.geometry = ct::standard_geometry(image, views);
  job.sinogram = ct::analytic_sinogram<float>(ct::shepp_logan_modified(), job.geometry);
  job.algorithm = pipeline::algorithm_from_name(algorithm_name);
  job.solve.iterations = iters;
  job.qos = pipeline::qos_class_from_name(qos);
  job.tenant = tenant;
  job.tag = tag;
  job.deadline_seconds = deadline;

  if (local) {
    pipeline::ReconService service;  // defaults: threads=1 plans per worker
    pipeline::ReconResult result = service.submit(std::move(job)).result.get();
    service.shutdown();
    CSCV_CHECK_MSG(result.status == pipeline::JobStatus::kOk,
                   "local job finished as " << pipeline::job_status_name(result.status)
                                            << (result.error.empty() ? "" : ": ")
                                            << result.error);
    if (!save_volume.empty()) {
      save_volume_raw(save_volume, result.volume.data(), result.volume.size());
    }
    if (as_json) {
      std::cout << result.to_json().dump(2) << "\n";
    } else {
      std::cout << "local job: ok, " << result.iterations_run
                << " iterations, residual " << util::fmt_fixed(result.final_residual, 4)
                << ", " << result.volume.size() << " voxels"
                << (save_volume.empty() ? "" : " -> " + save_volume) << "\n";
    }
    return 0;
  }

  CSCV_CHECK_MSG(port > 0 && port <= 65535, "--port is required (1..65535)");
  net::HttpClient client(host, static_cast<std::uint16_t>(port));
  const net::HttpResponse posted = client.post_json("/v1/jobs", job.to_json());
  if (posted.status != 202) {
    // Structured rejection (429 quota, 413 payload, 400 spec, 503 queue):
    // print the error body verbatim and exit 3 so scripts can distinguish
    // "service said no" from "client broke".
    std::cerr << "submit rejected with HTTP " << posted.status << ": " << posted.body
              << "\n";
    return 3;
  }
  const util::Json accepted = util::Json::parse(posted.body);
  const auto id = static_cast<std::uint64_t>(accepted.at("id").as_int());
  if (no_wait) {
    std::cout << (as_json ? accepted.dump(2) : std::to_string(id)) << "\n";
    return 0;
  }
  return poll_and_fetch(client, id, save_volume, timeout, poll_interval, as_json);
}

int cmd_fetch(util::CliFlags& cli) {
  const std::string host = cli.get_string("host", "127.0.0.1");
  const int port = cli.get_int("port", 0);
  const int id = cli.get_int("id", -1);
  const std::string save_volume = cli.get_string("save-volume", "");
  const bool as_json = cli.get_bool("json");
  const double timeout = cli.get_double("timeout", 120.0);
  const double poll_interval = cli.get_double("poll-interval", 0.05);
  cli.finish();
  CSCV_CHECK_MSG(port > 0 && port <= 65535, "--port is required (1..65535)");
  CSCV_CHECK_MSG(id >= 0, "--id is required");
  net::HttpClient client(host, static_cast<std::uint16_t>(port));
  return poll_and_fetch(client, static_cast<std::uint64_t>(id), save_volume, timeout,
                        poll_interval, as_json);
}

int cmd_stats(util::CliFlags& cli) {
  const std::string host = cli.get_string("host", "127.0.0.1");
  const int port = cli.get_int("port", 0);
  const int expect_ok = cli.get_int("expect-ok", -1);
  const bool as_json = cli.get_bool("json");
  cli.finish();
  CSCV_CHECK_MSG(port > 0 && port <= 65535, "--port is required (1..65535)");
  net::HttpClient client(host, static_cast<std::uint16_t>(port));
  const util::Json stats = client.get_json("/stats");
  // Round-trip the typed halves — a /stats payload the client library can't
  // parse is a wire-format regression even if the raw JSON "looks fine".
  const pipeline::ServiceStats service_stats =
      pipeline::ServiceStats::from_json(stats.at("service"));
  (void)pipeline::CacheStats::from_json(stats.at("cache"));
  const auto jobs_ok = static_cast<long>(stats.at("jobs_ok").as_int());
  if (expect_ok >= 0 && jobs_ok != expect_ok) {
    std::cerr << "stats: jobs_ok == " << jobs_ok << ", expected " << expect_ok << "\n"
              << stats.dump(2) << "\n";
    return 1;
  }
  if (as_json) {
    std::cout << stats.dump(2) << "\n";
  } else {
    std::cout << "jobs_ok " << jobs_ok << ", submitted " << service_stats.submitted
              << ", rejected " << service_stats.rejected << ", interactive "
              << service_stats.qos_interactive << ", batch " << service_stats.qos_batch
              << "\n";
  }
  return 0;
}

// ---- distributed shard driver (docs/SHARDING.md) ---------------------------

int cmd_shard_run(util::CliFlags& cli) {
  const std::string endpoints_flag = cli.get_string("endpoints", "");
  const int image = cli.get_int("image", 64);
  const int views = cli.get_int("views", 48);
  const std::string algorithm_name = cli.get_string("algorithm", "sirt");
  const int iters = cli.get_int("iters", 8);
  const int subsets = cli.get_int("subsets", 8);
  const int shards_flag = cli.get_int("shards", 0);
  const bool check = cli.get_bool("check");
  const bool shutdown_workers = cli.get_bool("shutdown-workers");
  const std::string save_volume = cli.get_string("save-volume", "");
  const double connect_timeout = cli.get_double("connect-timeout", 10.0);
  const double apply_timeout = cli.get_double("apply-timeout", 60.0);
  cli.finish();
  CSCV_CHECK_MSG(!endpoints_flag.empty(),
                 "shard-run needs --endpoints=host:port[,host:port...]");

  std::vector<dist::Endpoint> endpoints;
  std::size_t start = 0;
  while (start <= endpoints_flag.size()) {
    std::size_t comma = endpoints_flag.find(',', start);
    if (comma == std::string::npos) comma = endpoints_flag.size();
    if (comma > start) {
      endpoints.push_back(dist::parse_endpoint(endpoints_flag.substr(start, comma - start)));
    }
    start = comma + 1;
  }
  CSCV_CHECK_MSG(!endpoints.empty(), "--endpoints has no host:port entries");

  // The same canonical phantom job `submit` builds, so a sharded volume is
  // directly comparable with the serial service path.
  pipeline::ReconJob job;
  job.geometry = ct::standard_geometry(image, views);
  job.sinogram = ct::analytic_sinogram<float>(ct::shepp_logan_modified(), job.geometry);
  job.algorithm = pipeline::algorithm_from_name(algorithm_name);
  job.solve.iterations = iters;
  job.os_sart_subsets = subsets;

  // Coordinator-side math is part of the determinism contract too.
  util::set_num_threads(1);
  const int num_shards = shards_flag > 0 ? shards_flag : static_cast<int>(endpoints.size());
  const std::vector<dist::ShardSpec> specs = dist::make_shard_specs(job, num_shards);

  try {
    dist::RemoteOptions opts;
    opts.connect_timeout_seconds = connect_timeout;
    opts.apply_timeout_seconds = apply_timeout;
    dist::RemoteBackend backend(specs, endpoints, opts);
    util::WallTimer timer;
    const dist::ShardedRunResult run = dist::run_sharded_job(backend, job);
    const double wall = timer.seconds();

    if (!save_volume.empty()) {
      save_volume_raw(save_volume, run.volume.data(), run.volume.size());
    }
    std::cout << "shard-run: ok, " << specs.size() << " shard(s) on "
              << backend.live_endpoints() << "/" << endpoints.size()
              << " worker(s), " << run.stats.iterations_run << " iterations in "
              << util::fmt_fixed(wall, 3) << " s, residual "
              << util::fmt_fixed(run.stats.residual_norms.empty()
                                     ? 0.0
                                     : run.stats.residual_norms.back(),
                                 4)
              << (save_volume.empty() ? "" : " -> " + save_volume) << "\n";

    if (check) {
      // In-process reference with the identical shard boundaries: the remote
      // volume must match bitwise whatever workers served it.
      dist::LocalBackend local(specs);
      const dist::ShardedRunResult ref = dist::run_sharded_job(local, job);
      CSCV_CHECK_MSG(ref.volume.size() == run.volume.size(),
                     "check: reference volume size mismatch");
      if (std::memcmp(ref.volume.data(), run.volume.data(),
                      run.volume.size() * sizeof(float)) != 0) {
        std::cerr << "shard-run: --check FAILED: remote volume differs from the "
                     "local reference with identical shard boundaries\n";
        return 1;
      }
      std::cout << "shard-run: --check ok (remote volume bitwise-equal to local "
                   "reference)\n";
    }
    if (shutdown_workers) backend.shutdown_workers();
    return 0;
  } catch (const dist::ShardError& e) {
    std::cerr << "shard-run: shard failure: " << e.what() << "\n";
    return 4;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cscv;
  if (argc < 2) {
    std::cerr << "usage: cscv_cli <generate|info|convert|spmv|tune|verify|isa|serve-demo"
                 "|submit|fetch|stats|shard-run> [--flags]\n";
    return 2;
  }
  const std::string cmd = argv[1];
  util::CliFlags cli(argc - 1, argv + 1);
  try {
    if (cmd == "generate") return cmd_generate(cli);
    if (cmd == "info") return cmd_info(cli);
    if (cmd == "convert") return cmd_convert(cli);
    if (cmd == "spmv") return cmd_spmv(cli);
    if (cmd == "tune") return cmd_tune(cli);
    if (cmd == "verify") return cmd_verify(cli);
    if (cmd == "isa") return cmd_isa(cli);
    if (cmd == "serve-demo") return cmd_serve_demo(cli);
    if (cmd == "submit") return cmd_submit(cli);
    if (cmd == "fetch") return cmd_fetch(cli);
    if (cmd == "stats") return cmd_stats(cli);
    if (cmd == "shard-run") return cmd_shard_run(cli);
    std::cerr << "unknown command: " << cmd << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
