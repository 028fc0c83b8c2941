// service_roundtrip — the reconstruction service, embedded: boot the HTTP
// front end in-process, submit a job over loopback with the client library,
// and verify the served volume is bitwise identical to running the same job
// directly on a ReconService. This is the programmatic twin of
// `cscv_serve` + `cscv_cli submit` (docs/SERVICE.md).
//
//   ./service_roundtrip [--image=64] [--views=48] [--iters=10]
#include <cstring>
#include <iostream>

#include "ct/phantom.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/service_api.hpp"
#include "util/cli.hpp"

using namespace cscv;

int main(int argc, char** argv) try {
  util::CliFlags cli(argc, argv);
  const int image = cli.get_int("image", 64);
  const int views = cli.get_int("views", 48);
  const int iters = cli.get_int("iters", 10);
  cli.finish();

  // One job spec, used three ways: direct reference run, HTTP submit, and
  // the wire-format JSON in between.
  pipeline::ReconJob job;
  job.geometry = ct::standard_geometry(image, views);
  job.sinogram = ct::analytic_sinogram<float>(ct::shepp_logan_modified(), job.geometry);
  job.algorithm = pipeline::Algorithm::kSirt;
  job.solve.iterations = iters;
  job.qos = pipeline::QosClass::kInteractive;
  job.tenant = "example";

  // Reference: the same machinery, no sockets.
  pipeline::ReconService reference;
  const pipeline::ReconResult direct = reference.submit(job).result.get();
  std::cout << "direct run: " << pipeline::job_status_name(direct.status) << ", "
            << direct.volume.size() << " voxels, residual " << direct.final_residual
            << "\n";

  // Service: front end + HTTP server on an ephemeral loopback port.
  net::FrontEndOptions options;
  options.service.num_workers = 2;
  net::ServiceFrontEnd frontend(options);
  net::ServerOptions server_options;  // 127.0.0.1:0 → ephemeral port
  net::HttpServer server(frontend.make_router(), server_options);
  std::cout << "serving on " << server.host() << ":" << server.port() << "\n";

  // Client: submit the spec, poll, download the volume.
  net::HttpClient client(server.host(), server.port());
  const net::HttpResponse posted = client.post_json("/v1/jobs", job.to_json());
  if (posted.status != 202) {
    std::cerr << "submit failed: HTTP " << posted.status << " " << posted.body << "\n";
    return 1;
  }
  const util::Json accepted = util::Json::parse(posted.body);
  const std::string status_url = accepted.at("status_url").as_string();
  util::Json status;
  do {
    status = client.get_json(status_url);
  } while (status.at("state").as_string() != "done");
  std::cout << "served run: " << status.at("result").at("status").as_string()
            << " (job " << accepted.at("id").as_int() << ", tenant "
            << status.at("tenant").as_string() << ")\n";

  const net::HttpResponse volume = client.get(status.at("volume_url").as_string());
  const bool identical =
      volume.status == 200 &&
      volume.body.size() == direct.volume.size() * sizeof(float) &&
      std::memcmp(volume.body.data(), direct.volume.data(), volume.body.size()) == 0;
  std::cout << "served volume is " << (identical ? "BITWISE IDENTICAL" : "DIFFERENT")
            << " to the direct run\n";

  const util::Json stats = client.get_json("/stats");
  std::cout << "stats: jobs_ok=" << stats.at("jobs_ok").as_int() << ", cache builds="
            << stats.at("cache").at("builds").as_int() << "\n";

  server.stop();
  return identical ? 0 : 1;
} catch (const std::exception& e) {
  return cscv::util::report_main_error(argv[0], e);
}
