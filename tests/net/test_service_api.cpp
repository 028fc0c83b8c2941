// ServiceFrontEnd over a real HttpServer: submit → poll → volume (bitwise
// against the in-process service), structured 4xx rejections, per-tenant
// quotas, cancel, /stats, /healthz. This is the in-tree twin of
// tools/service_e2e.sh.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ct/phantom.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/service_api.hpp"
#include "util/assertx.hpp"

namespace cscv::net {
namespace {

pipeline::ReconJob phantom_job(int image = 16, int views = 12, int iterations = 3) {
  pipeline::ReconJob job;
  job.geometry = ct::standard_geometry(image, views);
  job.cscv = {.s_vvec = 8, .s_imgb = 8, .s_vxg = 2};
  job.algorithm = pipeline::Algorithm::kSirt;
  job.solve.iterations = iterations;
  job.sinogram = ct::analytic_sinogram<float>(ct::shepp_logan_modified(), job.geometry);
  return job;
}

struct Stack {
  explicit Stack(FrontEndOptions fe = {}) : frontend(std::move(fe)) {
    ServerOptions so;
    so.port = 0;
    so.num_threads = 3;
    server = std::make_unique<HttpServer>(frontend.make_router(), so);
    client = std::make_unique<HttpClient>(server->host(), server->port());
  }

  /// Submits and waits for completion; returns the final status JSON.
  util::Json run_job(const pipeline::ReconJob& job) {
    const HttpResponse posted = client->post_json("/v1/jobs", job.to_json());
    EXPECT_EQ(posted.status, 202) << posted.body;
    const util::Json accepted = util::Json::parse(posted.body);
    const std::string url = accepted.at("status_url").as_string();
    for (int i = 0; i < 600; ++i) {
      util::Json status = client->get_json(url);
      if (status.at("state").as_string() == "done") return status;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ADD_FAILURE() << "job never finished";
    return util::Json();
  }

  ServiceFrontEnd frontend;
  std::unique_ptr<HttpServer> server;
  std::unique_ptr<HttpClient> client;
};

TEST(ServiceApi, SubmitPollVolumeBitwiseMatchesInProcessService) {
  Stack stack;
  const pipeline::ReconJob job = phantom_job();

  // In-process reference through the identical service machinery.
  pipeline::ReconService reference;
  const pipeline::ReconResult expected =
      reference.submit(phantom_job()).result.get();
  ASSERT_EQ(expected.status, pipeline::JobStatus::kOk);

  const util::Json status = stack.run_job(job);
  ASSERT_EQ(status.at("result").at("status").as_string(), "ok");
  const std::string volume_url = status.at("volume_url").as_string();
  const HttpResponse volume = stack.client->get(volume_url);
  ASSERT_EQ(volume.status, 200);
  ASSERT_EQ(volume.body.size(), expected.volume.size() * sizeof(float));
  EXPECT_EQ(std::memcmp(volume.body.data(), expected.volume.data(),
                        volume.body.size()),
            0)
      << "served volume differs bitwise from the in-process run";
}

TEST(ServiceApi, StatsEndpointParsesAndCounts) {
  Stack stack;
  (void)stack.run_job(phantom_job());
  (void)stack.run_job(phantom_job());
  const util::Json stats = stack.client->get_json("/stats");
  EXPECT_EQ(stats.at("jobs_ok").as_int(), 2);
  const pipeline::ServiceStats service_stats =
      pipeline::ServiceStats::from_json(stats.at("service"));
  EXPECT_EQ(service_stats.completed, 2u);
  EXPECT_EQ(service_stats.qos_batch, 2u);
  const pipeline::CacheStats cache_stats =
      pipeline::CacheStats::from_json(stats.at("cache"));
  EXPECT_EQ(cache_stats.builds, 1u);  // same geometry: one build, one hit
  EXPECT_EQ(stats.at("tenants").at("default").at("accepted").as_int(), 2);
}

TEST(ServiceApi, MalformedSpecsGetStructured4xx) {
  Stack stack;

  {  // not JSON at all
    const HttpResponse r = stack.client->request("POST", "/v1/jobs", "not json");
    EXPECT_EQ(r.status, 400);
    EXPECT_EQ(util::Json::parse(r.body).at("error").at("code").as_string(),
              "bad_request");
  }
  {  // bad geometry
    util::Json spec = phantom_job().to_json();
    spec["geometry"]["image_size"] = util::Json(-4);
    EXPECT_EQ(stack.client->post_json("/v1/jobs", spec).status, 400);
  }
  {  // unknown algorithm
    util::Json spec = phantom_job().to_json();
    spec["algorithm"] = util::Json("quantum");
    const HttpResponse r = stack.client->post_json("/v1/jobs", spec);
    EXPECT_EQ(r.status, 400);
    EXPECT_NE(r.body.find("algorithm"), std::string::npos);
  }
  {  // unknown key
    util::Json spec = phantom_job().to_json();
    spec["iteratons"] = util::Json(3);
    EXPECT_EQ(stack.client->post_json("/v1/jobs", spec).status, 400);
  }
  // None of these touched the service proper.
  const util::Json stats = stack.client->get_json("/stats");
  EXPECT_EQ(stats.at("service").at("submitted").as_int(), 0);
  EXPECT_EQ(stats.at("frontend").at("bad_requests").as_int(), 4);
}

TEST(ServiceApi, OversizedSinogramGets413) {
  FrontEndOptions fe;
  fe.max_sinogram_bytes = 256;  // tiny cap: the phantom job exceeds it
  Stack stack(fe);
  const HttpResponse r =
      stack.client->post_json("/v1/jobs", phantom_job().to_json());
  EXPECT_EQ(r.status, 413);
  EXPECT_EQ(util::Json::parse(r.body).at("error").at("code").as_string(),
            "payload_too_large");
  EXPECT_EQ(stack.client->get_json("/stats")
                .at("frontend")
                .at("payload_rejections")
                .as_int(),
            1);
}

TEST(ServiceApi, QuotaExhaustionIs429PerTenantAndDoesNotTouchInflightJobs) {
  FrontEndOptions fe;
  fe.quota.tokens = 2.0;
  fe.quota.refill_per_second = 0.0;
  Stack stack(fe);

  // Two jobs drain tenant "default"'s bucket...
  const util::Json first = stack.run_job(phantom_job());
  pipeline::ReconJob second_job = phantom_job();
  const HttpResponse second =
      stack.client->post_json("/v1/jobs", second_job.to_json());
  ASSERT_EQ(second.status, 202);

  // ...so the third bounces with a structured 429 + Retry-After.
  const HttpResponse third =
      stack.client->post_json("/v1/jobs", phantom_job().to_json());
  EXPECT_EQ(third.status, 429);
  EXPECT_EQ(util::Json::parse(third.body).at("error").at("code").as_string(),
            "quota_exhausted");
  bool has_retry_after = false;
  for (const auto& [name, value] : third.headers) {
    if (name == "retry-after" || name == "Retry-After") has_retry_after = true;
  }
  EXPECT_TRUE(has_retry_after);

  // A different tenant still has a full bucket.
  pipeline::ReconJob other = phantom_job();
  other.tenant = "other";
  EXPECT_EQ(stack.client->post_json("/v1/jobs", other.to_json()).status, 202);

  // And the in-flight second job is unaffected by the rejection: it
  // completes ok with the same volume as the first.
  const std::string second_url =
      util::Json::parse(second.body).at("status_url").as_string();
  util::Json second_status;
  for (int i = 0; i < 600; ++i) {
    second_status = stack.client->get_json(second_url);
    if (second_status.at("state").as_string() == "done") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(second_status.at("result").at("status").as_string(), "ok");
  const HttpResponse v1 = stack.client->get(first.at("volume_url").as_string());
  const HttpResponse v2 =
      stack.client->get(second_status.at("volume_url").as_string());
  ASSERT_EQ(v1.status, 200);
  ASSERT_EQ(v2.status, 200);
  EXPECT_EQ(v1.body, v2.body);
}

TEST(ServiceApi, UnknownJobIs404VolumeOfPendingJobIs409) {
  Stack stack;
  EXPECT_EQ(stack.client->get("/v1/jobs/999").status, 404);
  EXPECT_EQ(stack.client->get("/v1/jobs/not-a-number").status, 404);
  EXPECT_EQ(stack.client->get("/v1/jobs/999/volume").status, 404);
  EXPECT_EQ(stack.client->del("/v1/jobs/999").status, 404);
}

TEST(ServiceApi, CancelQueuedJobResolvesAsCancelled) {
  FrontEndOptions fe;
  fe.service.num_workers = 1;  // a slow job keeps the doomed one queued
  Stack stack(fe);
  // Long enough to outlast the two requests below under a loaded ctest -j.
  const HttpResponse slow =
      stack.client->post_json("/v1/jobs", phantom_job(32, 24, 400).to_json());
  ASSERT_EQ(slow.status, 202);
  const HttpResponse posted =
      stack.client->post_json("/v1/jobs", phantom_job().to_json());
  ASSERT_EQ(posted.status, 202);
  const util::Json accepted = util::Json::parse(posted.body);
  const std::string id = std::to_string(accepted.at("id").as_int());

  const HttpResponse cancel = stack.client->del("/v1/jobs/" + id);
  ASSERT_EQ(cancel.status, 200);
  EXPECT_TRUE(util::Json::parse(cancel.body).at("cancelled").as_bool());

  // Once the worker reaches the cancelled job it resolves without running;
  // its volume is then a structured 409.
  util::Json status;
  for (int i = 0; i < 600; ++i) {
    status = stack.client->get_json("/v1/jobs/" + id);
    if (status.at("state").as_string() == "done") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(status.at("state").as_string(), "done");
  EXPECT_EQ(status.at("result").at("status").as_string(), "cancelled");
  const HttpResponse volume = stack.client->get("/v1/jobs/" + id + "/volume");
  EXPECT_EQ(volume.status, 409);
  EXPECT_EQ(util::Json::parse(volume.body).at("error").at("code").as_string(),
            "job_not_ok");
}

TEST(ServiceApi, HealthzIsAlive) {
  Stack stack;
  const util::Json health = stack.client->get_json("/healthz");
  EXPECT_EQ(health.at("status").as_string(), "ok");
}

TEST(ServiceApi, InteractiveClassIsCountedAndServed) {
  Stack stack;
  pipeline::ReconJob job = phantom_job();
  job.qos = pipeline::QosClass::kInteractive;
  const util::Json status = stack.run_job(job);
  EXPECT_EQ(status.at("qos").as_string(), "interactive");
  EXPECT_EQ(status.at("result").at("status").as_string(), "ok");
  const util::Json stats = stack.client->get_json("/stats");
  EXPECT_EQ(stats.at("service").at("qos_interactive").as_int(), 1);
}

}  // namespace
}  // namespace cscv::net
