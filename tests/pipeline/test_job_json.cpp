// The service wire format: ReconJob / ServiceStats / CacheStats JSON round
// trips, and the strict rejection of malformed job specs (the 400 path of
// POST /v1/jobs).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "pipeline/job.hpp"
#include "pipeline/matrix_cache.hpp"
#include "pipeline/service.hpp"
#include "util/assertx.hpp"
#include "util/json.hpp"

namespace cscv::pipeline {
namespace {

/// `spec` is rejected with a CheckError whose message names `field`.
void expect_rejected_naming(const util::Json& spec, const char* field) {
  try {
    (void)ReconJob::from_json(spec);
    ADD_FAILURE() << "accepted a spec with a bad " << field;
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
}

ReconJob small_job() {
  ReconJob job;
  job.geometry = ct::standard_geometry(16, 12);
  job.cscv = {.s_vvec = 8, .s_imgb = 8, .s_vxg = 2};
  job.algorithm = Algorithm::kCgls;
  job.solve.iterations = 5;
  job.solve.relaxation = 0.7;
  job.tag = "round-trip";
  job.tenant = "tenant-a";
  job.qos = QosClass::kInteractive;
  job.deadline_seconds = 2.5;
  const auto rows = static_cast<std::size_t>(job.geometry.num_rows());
  job.sinogram.resize(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    job.sinogram[i] = static_cast<float>(i) * 0.125f - 3.0f;
  }
  return job;
}

TEST(JobJson, RoundTripPreservesEveryField) {
  const ReconJob job = small_job();
  const ReconJob back = ReconJob::from_json(job.to_json());
  EXPECT_EQ(back.geometry.image_size, job.geometry.image_size);
  EXPECT_EQ(back.geometry.num_bins, job.geometry.num_bins);
  EXPECT_EQ(back.geometry.num_views, job.geometry.num_views);
  EXPECT_DOUBLE_EQ(back.geometry.start_angle_deg, job.geometry.start_angle_deg);
  EXPECT_DOUBLE_EQ(back.geometry.delta_angle_deg, job.geometry.delta_angle_deg);
  EXPECT_EQ(back.cscv.s_vvec, job.cscv.s_vvec);
  EXPECT_EQ(back.cscv.s_imgb, job.cscv.s_imgb);
  EXPECT_EQ(back.cscv.s_vxg, job.cscv.s_vxg);
  EXPECT_EQ(back.cscv.reference, job.cscv.reference);
  EXPECT_EQ(back.cscv.order, job.cscv.order);
  EXPECT_EQ(back.variant, job.variant);
  EXPECT_EQ(back.algorithm, job.algorithm);
  EXPECT_EQ(back.solve.iterations, job.solve.iterations);
  EXPECT_DOUBLE_EQ(back.solve.relaxation, job.solve.relaxation);
  EXPECT_EQ(back.solve.enforce_nonneg, job.solve.enforce_nonneg);
  EXPECT_DOUBLE_EQ(back.deadline_seconds, job.deadline_seconds);
  EXPECT_EQ(back.tag, job.tag);
  EXPECT_EQ(back.tenant, job.tenant);
  EXPECT_EQ(back.qos, job.qos);
  // The matrix key — what the cache dedups on — must survive the wire.
  EXPECT_EQ(back.matrix_key(), job.matrix_key());
}

TEST(JobJson, SinogramSurvivesBitwise) {
  ReconJob job = small_job();
  job.sinogram[0] = -0.0f;
  job.sinogram[1] = std::nanf("1");
  job.sinogram[2] = 3.0e38f;
  const ReconJob back = ReconJob::from_json(job.to_json());
  ASSERT_EQ(back.sinogram.size(), job.sinogram.size());
  EXPECT_EQ(std::memcmp(back.sinogram.data(), job.sinogram.data(),
                        job.sinogram.size() * sizeof(float)),
            0);
}

TEST(JobJson, PlainArraySinogramIsAccepted) {
  util::Json spec = small_job().to_json();
  spec.erase("sinogram_b64");
  util::Json arr = util::Json::array();
  const auto rows =
      static_cast<std::size_t>(ct::standard_geometry(16, 12).num_rows());
  for (std::size_t i = 0; i < rows; ++i) arr.push_back(util::Json(0.5));
  spec["sinogram"] = std::move(arr);
  const ReconJob job = ReconJob::from_json(spec);
  ASSERT_EQ(job.sinogram.size(), rows);
  EXPECT_EQ(job.sinogram[0], 0.5f);
}

TEST(JobJson, MinimalSpecGetsDefaults) {
  util::Json spec = util::Json::parse(R"({
    "geometry": {"image_size": 16, "num_views": 12},
    "sinogram_b64": ""
  })");
  // An empty sinogram mismatches the geometry: still a structured failure.
  EXPECT_THROW(ReconJob::from_json(spec), util::CheckError);
  const ReconJob job = ReconJob::from_json(small_job().to_json());
  EXPECT_EQ(job.geometry.num_bins, ct::standard_num_bins(16));
}

TEST(JobJson, RejectsMalformedSpecs) {
  const util::Json good = small_job().to_json();

  {  // missing geometry entirely
    util::Json spec = good;
    spec.erase("geometry");
    EXPECT_THROW(ReconJob::from_json(spec), util::CheckError);
  }
  {  // invalid geometry (zero image) -> geometry.validate() fires
    util::Json spec = good;
    spec["geometry"]["image_size"] = util::Json(0);
    EXPECT_THROW(ReconJob::from_json(spec), util::CheckError);
  }
  {  // unknown algorithm
    util::Json spec = good;
    spec["algorithm"] = util::Json("gradient-descent");
    EXPECT_THROW(ReconJob::from_json(spec), util::CheckError);
  }
  {  // unknown top-level key (typo protection)
    util::Json spec = good;
    spec["iteratons"] = util::Json(3);
    EXPECT_THROW(ReconJob::from_json(spec), util::CheckError);
  }
  {  // unknown nested key
    util::Json spec = good;
    spec["solve"]["relaxaton"] = util::Json(0.5);
    EXPECT_THROW(ReconJob::from_json(spec), util::CheckError);
  }
  {  // both sinogram encodings at once
    util::Json spec = good;
    spec["sinogram"] = util::Json::array();
    EXPECT_THROW(ReconJob::from_json(spec), util::CheckError);
  }
  {  // neither sinogram encoding
    util::Json spec = good;
    spec.erase("sinogram_b64");
    EXPECT_THROW(ReconJob::from_json(spec), util::CheckError);
  }
  {  // sinogram length disagrees with geometry
    util::Json spec = good;
    spec["sinogram_b64"] = util::Json(std::string("AAAAAA=="));
    EXPECT_THROW(ReconJob::from_json(spec), util::CheckError);
  }
  {  // corrupt base64
    util::Json spec = good;
    spec["sinogram_b64"] = util::Json(std::string("!not-base64!"));
    EXPECT_THROW(ReconJob::from_json(spec), util::CheckError);
  }
  {  // "auto" is not a dtype: a job spec names the matrix's value storage
    util::Json spec = good;
    spec["value_type"] = util::Json("auto");
    EXPECT_THROW(ReconJob::from_json(spec), util::CheckError);
  }
  {  // bad QoS class
    util::Json spec = good;
    spec["qos"] = util::Json("realtime");
    EXPECT_THROW(ReconJob::from_json(spec), util::CheckError);
  }
  {  // negative deadline
    util::Json spec = good;
    spec["deadline_seconds"] = util::Json(-1.0);
    EXPECT_THROW(ReconJob::from_json(spec), util::CheckError);
  }
  {  // zero iterations
    util::Json spec = good;
    spec["solve"]["iterations"] = util::Json(0);
    EXPECT_THROW(ReconJob::from_json(spec), util::CheckError);
  }
  {  // OS-SART with more subsets than views: a stratum would have no view
    util::Json spec = good;
    spec["algorithm"] = util::Json("ossart");
    spec["os_sart_subsets"] = util::Json(spec["geometry"]["num_views"].as_int() + 1);
    EXPECT_THROW(ReconJob::from_json(spec), util::CheckError);
    spec["os_sart_subsets"] = util::Json(spec["geometry"]["num_views"].as_int());
    EXPECT_NO_THROW(ReconJob::from_json(spec));
  }
  {  // integers beyond int: 2^32 + 16 / 2^32 + 2 / -(2^32) + 2 once wrapped to
     // the valid 16 / 2 / 2
    util::Json spec = good;
    spec["geometry"]["image_size"] = util::Json(4294967312LL);
    expect_rejected_naming(spec, "image_size");
    spec = good;
    spec["solve"]["iterations"] = util::Json(4294967298LL);
    expect_rejected_naming(spec, "iterations");
    spec = good;
    spec["algorithm"] = util::Json("ossart");
    spec["os_sart_subsets"] = util::Json(-4294967294LL);
    expect_rejected_naming(spec, "os_sart_subsets");
  }
  {  // an image whose pixel ids overflow int32 (50000^2 > 2^31 - 1)
    util::Json spec = good;
    spec["geometry"]["image_size"] = util::Json(50000);
    spec["geometry"]["num_bins"] = util::Json(16);
    expect_rejected_naming(spec, "image_size");
  }
}

// A non-finite solver value would run to an inf/NaN volume whose spec
// to_json cannot write back (JSON has no inf): every double of a spec must
// be finite. strtod reads 1e999 as inf, so the wire text reaches it too.
TEST(JobJson, RejectsNonFiniteNumbers) {
  const util::Json good = small_job().to_json();
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {inf, -inf, nan}) {
    util::Json spec = good;
    spec["solve"]["relaxation"] = util::Json(bad);
    expect_rejected_naming(spec, "relaxation");
    spec = good;
    spec["solve"]["nonneg_floor"] = util::Json(bad);
    expect_rejected_naming(spec, "nonneg_floor");
    spec = good;
    spec["deadline_seconds"] = util::Json(bad);
    expect_rejected_naming(spec, "deadline_seconds");
    spec = good;
    spec["geometry"]["start_angle_deg"] = util::Json(bad);
    EXPECT_THROW(ReconJob::from_json(spec), util::CheckError);
    spec = good;
    spec["geometry"]["delta_angle_deg"] = util::Json(bad);
    EXPECT_THROW(ReconJob::from_json(spec), util::CheckError);
  }
  std::string text = good.dump();
  const std::string key = "\"relaxation\":";
  const std::size_t value = text.find(key) + key.size();
  ASSERT_GT(value, key.size());
  text.replace(value, text.find_first_of(",}", value) - value, "1e999");
  expect_rejected_naming(util::Json::parse(text), "relaxation");
}

TEST(JobJson, QosClassNamesRoundTrip) {
  EXPECT_EQ(qos_class_from_name(qos_class_name(QosClass::kBatch)), QosClass::kBatch);
  EXPECT_EQ(qos_class_from_name(qos_class_name(QosClass::kInteractive)),
            QosClass::kInteractive);
  EXPECT_THROW((void)qos_class_from_name("bulk"), util::CheckError);
}

// A result says what ran: the plan block names the dtype the operator
// streamed, and an OS-SART result the stratum count it ran with (its
// subsets clamped to the operator's view groups: 12 views of 8 are 2).
TEST(ResultJson, PlanReportsDtypeAndOsSartReportsItsStrata) {
  ReconJob job = small_job();
  job.value_type = core::ValueType::kBf16;
  job.os_sart_subsets = 8;
  SystemMatrixCache cache;
  const auto entry = cache.get_or_build(job.matrix_key()).entry;
  for (const Algorithm a : {Algorithm::kSirt, Algorithm::kOsSart}) {
    job.algorithm = a;
    const util::Json j = execute_job(job, *entry, nullptr).to_json();
    SCOPED_TRACE(algorithm_name(a));
    ASSERT_NE(j.find("plan"), nullptr);
    EXPECT_EQ(j.at("plan").at("value_type").as_string(), "bf16");
    if (a == Algorithm::kOsSart) {
      ASSERT_NE(j.find("os_sart_subsets"), nullptr);
      EXPECT_EQ(j.at("os_sart_subsets").as_int(), 2);
    } else {
      EXPECT_EQ(j.find("os_sart_subsets"), nullptr);
    }
  }
}

// The plan block says whether the operator ran folded (docs/FORMAT.md
// section 9): 12 views of a 180-degree scan fold, 10 views do not.
TEST(ResultJson, PlanReportsWhetherTheOperatorFolded) {
  SystemMatrixCache cache;
  for (const int views : {12, 10}) {
    ReconJob job = small_job();
    job.geometry = ct::standard_geometry(16, views);
    job.sinogram.assign(static_cast<std::size_t>(job.geometry.num_rows()), 1.0f);
    const auto entry = cache.get_or_build(job.matrix_key()).entry;
    const util::Json j = execute_job(job, *entry, nullptr).to_json();
    ASSERT_NE(j.find("plan"), nullptr);
    ASSERT_NE(j.at("plan").find("folded"), nullptr);
    EXPECT_EQ(j.at("plan").at("folded").as_bool(), views == 12) << views << " views";
  }
}

TEST(ServiceStatsJson, RoundTripPreservesAllCounters) {
  ServiceStats s;
  s.submitted = 11;
  s.completed = 7;
  s.rejected = 2;
  s.expired = 1;
  s.cancelled = 3;
  s.failed = 4;
  s.batches = 5;
  s.batched_jobs = 10;
  s.debatched = 6;
  s.qos_interactive = 8;
  s.qos_batch = 3;
  const ServiceStats back = ServiceStats::from_json(s.to_json());
  EXPECT_EQ(back.submitted, s.submitted);
  EXPECT_EQ(back.completed, s.completed);
  EXPECT_EQ(back.rejected, s.rejected);
  EXPECT_EQ(back.expired, s.expired);
  EXPECT_EQ(back.cancelled, s.cancelled);
  EXPECT_EQ(back.failed, s.failed);
  EXPECT_EQ(back.batches, s.batches);
  EXPECT_EQ(back.batched_jobs, s.batched_jobs);
  EXPECT_EQ(back.debatched, s.debatched);
  EXPECT_EQ(back.qos_interactive, s.qos_interactive);
  EXPECT_EQ(back.qos_batch, s.qos_batch);
}

TEST(ServiceStatsJson, MissingCounterIsAnError) {
  util::Json j = ServiceStats{}.to_json();
  j.erase("completed");
  EXPECT_THROW(ServiceStats::from_json(j), util::CheckError);
}

TEST(CacheStatsJson, RoundTripPreservesAllCounters) {
  CacheStats c;
  c.hits = 20;
  c.misses = 5;
  c.single_flight_waits = 2;
  c.builds = 5;
  c.restores = 1;
  c.evictions = 3;
  c.spills = 2;
  c.resident_bytes = 1u << 20;
  c.resident_entries = 4;
  const CacheStats back = CacheStats::from_json(c.to_json());
  EXPECT_EQ(back.hits, c.hits);
  EXPECT_EQ(back.misses, c.misses);
  EXPECT_EQ(back.single_flight_waits, c.single_flight_waits);
  EXPECT_EQ(back.builds, c.builds);
  EXPECT_EQ(back.restores, c.restores);
  EXPECT_EQ(back.evictions, c.evictions);
  EXPECT_EQ(back.spills, c.spills);
  EXPECT_EQ(back.resident_bytes, c.resident_bytes);
  EXPECT_EQ(back.resident_entries, c.resident_entries);
  EXPECT_DOUBLE_EQ(back.hit_rate(), c.hit_rate());
}

}  // namespace
}  // namespace cscv::pipeline
