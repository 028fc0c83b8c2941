// BenchRecord/BenchReport JSON round-trips and the bench_compare verdict
// logic (improvement / within-noise / regression / missing-metric).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "benchlib/compare.hpp"
#include "benchlib/record.hpp"
#include "util/assertx.hpp"

namespace cscv::benchlib {
namespace {

BenchRecord make_record(const std::string& workload = "64x64",
                        const std::string& engine = "CSCV-Z") {
  BenchRecord r;
  r.workload = workload;
  r.engine = engine;
  r.precision = "f32";
  r.threads = 2;
  r.iterations = 12;
  r.set("seconds_median", 0.010);
  r.set("seconds_min", 0.008);
  r.set("gflops", 4.0);
  r.set("nnz", 123456.0);
  return r;
}

TEST(BenchRecord, SetUpdatesInPlaceAndFindLooksUp) {
  BenchRecord r = make_record();
  EXPECT_EQ(r.metrics.size(), 4u);
  r.set("seconds_median", 0.02);
  EXPECT_EQ(r.metrics.size(), 4u);
  EXPECT_EQ(r.metrics[0].first, "seconds_median");  // order preserved
  ASSERT_NE(r.find("seconds_median"), nullptr);
  EXPECT_DOUBLE_EQ(*r.find("seconds_median"), 0.02);
  EXPECT_EQ(r.find("absent"), nullptr);
  EXPECT_EQ(r.key(), "64x64/CSCV-Z/f32/t2");
}

TEST(BenchRecord, JsonRoundTripPreservesEverything) {
  const BenchRecord r = make_record();
  const BenchRecord back = record_from_json(record_to_json(r));
  EXPECT_EQ(back.workload, r.workload);
  EXPECT_EQ(back.engine, r.engine);
  EXPECT_EQ(back.precision, r.precision);
  EXPECT_EQ(back.threads, r.threads);
  EXPECT_EQ(back.iterations, r.iterations);
  ASSERT_EQ(back.metrics.size(), r.metrics.size());
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    EXPECT_EQ(back.metrics[i].first, r.metrics[i].first) << i;  // stable order
    EXPECT_DOUBLE_EQ(back.metrics[i].second, r.metrics[i].second) << i;
  }
}

TEST(BenchRecord, NanMetricSerializesAsNullAndIsDroppedOnLoad) {
  BenchRecord r = make_record();
  r.set("gbps", std::nan(""));
  // The NaN guard lives in the serializer: the emitted text holds null, so
  // the document stays valid JSON and the reload drops the poisoned metric.
  const util::Json wire = util::Json::parse(record_to_json(r).dump());
  EXPECT_TRUE(wire.at("metrics").at("gbps").is_null());
  const BenchRecord back = record_from_json(wire);
  EXPECT_EQ(back.find("gbps"), nullptr);
  EXPECT_NE(back.find("gflops"), nullptr);  // finite neighbours survive
}

TEST(BenchReport, FileRoundTrip) {
  BenchReport report;
  report.tag = "test";
  fill_machine_info(report);
  report.set_machine("scale", "8");
  report.records.push_back(make_record("64x64", "CSR"));
  report.records.push_back(make_record("64x64", "CSCV-Z"));

  const std::string path = ::testing::TempDir() + "cscv_test_report.json";
  write_report_file(path, report);
  const BenchReport back = read_report_file(path);
  std::remove(path.c_str());

  EXPECT_EQ(back.schema_version, kBenchSchemaVersion);
  EXPECT_EQ(back.tag, "test");
  EXPECT_EQ(back.machine, report.machine);
  ASSERT_EQ(back.records.size(), 2u);
  EXPECT_EQ(back.records[1].key(), report.records[1].key());
}

TEST(BenchReport, RejectsUnknownSchemaVersion) {
  BenchReport report;
  report.tag = "test";
  util::Json j = report_to_json(report);
  j["schema_version"] = util::Json(kBenchSchemaVersion + 1);
  EXPECT_THROW((void)report_from_json(j), util::CheckError);
}

TEST(Compare, LowerIsBetterConvention) {
  EXPECT_TRUE(lower_is_better("seconds_median"));
  EXPECT_TRUE(lower_is_better("matrix_bytes"));
  EXPECT_TRUE(lower_is_better("padding_fraction"));
  EXPECT_TRUE(lower_is_better("r_nnze"));
  EXPECT_FALSE(lower_is_better("gflops"));
  EXPECT_FALSE(lower_is_better("vxg_occupancy"));
}

TEST(Compare, JudgeMetricVerdicts) {
  // Timing metric: +50% is a regression, -50% an improvement, ±5% noise.
  EXPECT_EQ(judge_metric("seconds_median", 1.0, 1.5, 0.10), Verdict::kRegression);
  EXPECT_EQ(judge_metric("seconds_median", 1.0, 0.5, 0.10), Verdict::kImprovement);
  EXPECT_EQ(judge_metric("seconds_median", 1.0, 1.05, 0.10), Verdict::kWithinNoise);
  EXPECT_EQ(judge_metric("seconds_median", 1.0, 0.95, 0.10), Verdict::kWithinNoise);
  // Rate metric: direction flips.
  EXPECT_EQ(judge_metric("gflops", 10.0, 5.0, 0.10), Verdict::kRegression);
  EXPECT_EQ(judge_metric("gflops", 10.0, 20.0, 0.10), Verdict::kImprovement);
  // Non-finite values never classify silently.
  EXPECT_EQ(judge_metric("gflops", std::nan(""), 1.0, 0.10), Verdict::kMissingMetric);
  EXPECT_EQ(judge_metric("gflops", 1.0, std::nan(""), 0.10), Verdict::kMissingMetric);
  // Zero baseline: exact match is noise, growth depends on direction.
  EXPECT_EQ(judge_metric("seconds_median", 0.0, 0.0, 0.10), Verdict::kWithinNoise);
  EXPECT_EQ(judge_metric("seconds_median", 0.0, 1.0, 0.10), Verdict::kRegression);
  EXPECT_EQ(judge_metric("gflops", 0.0, 1.0, 0.10), Verdict::kImprovement);
}

BenchReport report_with(std::vector<BenchRecord> records) {
  BenchReport report;
  report.tag = "test";
  report.records = std::move(records);
  return report;
}

TEST(Compare, IdenticalReportsPass) {
  const BenchReport a = report_with({make_record("64x64", "CSR"), make_record("64x64", "CSCV-Z")});
  const CompareResult result = compare_reports(a, a);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.regressions, 0);
  EXPECT_EQ(result.missing, 0);
  for (const auto& d : result.deltas) {
    EXPECT_EQ(d.verdict, Verdict::kWithinNoise) << d.record_key << "/" << d.metric;
  }
}

TEST(Compare, GatedRegressionFails) {
  const BenchReport base = report_with({make_record()});
  BenchRecord slow = make_record();
  slow.set("seconds_median", 0.020);  // 2x slower
  const CompareResult result = compare_reports(base, report_with({slow}));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.regressions, 1);
  bool found = false;
  for (const auto& d : result.deltas) {
    if (d.metric == "seconds_median") {
      found = true;
      EXPECT_TRUE(d.gated);
      EXPECT_EQ(d.verdict, Verdict::kRegression);
      EXPECT_NEAR(d.relative_change, 1.0, 1e-12);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Compare, UngatedRegressionIsReportedButDoesNotFail) {
  const BenchReport base = report_with({make_record()});
  BenchRecord cand = make_record();
  cand.set("gflops", 1.0);  // 4x worse, but gflops is not a gate metric
  const CompareResult result = compare_reports(base, report_with({cand}));
  EXPECT_TRUE(result.ok());
  for (const auto& d : result.deltas) {
    if (d.metric == "gflops") {
      EXPECT_FALSE(d.gated);
      EXPECT_EQ(d.verdict, Verdict::kRegression);
    }
  }
}

TEST(Compare, GatedImprovementCountsButPasses) {
  const BenchReport base = report_with({make_record()});
  BenchRecord fast = make_record();
  fast.set("seconds_median", 0.005);
  const CompareResult result = compare_reports(base, report_with({fast}));
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.improvements, 1);
}

TEST(Compare, MissingGatedMetricFails) {
  BenchRecord base = make_record();
  BenchRecord cand = make_record();
  cand.metrics.clear();
  cand.set("gflops", 4.0);  // dropped seconds_median
  const CompareResult result =
      compare_reports(report_with({base}), report_with({cand}));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.missing, 1);
}

TEST(Compare, MissingRecordFailsUnlessAllowed) {
  const BenchReport base =
      report_with({make_record("64x64", "CSR"), make_record("64x64", "CSCV-Z")});
  const BenchReport cand = report_with({make_record("64x64", "CSR")});
  const CompareResult strict = compare_reports(base, cand);
  EXPECT_FALSE(strict.ok());
  EXPECT_EQ(strict.missing, 1);

  CompareOptions lax;
  lax.require_all_records = false;
  EXPECT_TRUE(compare_reports(base, cand, lax).ok());
}

TEST(Compare, CandidateOnlyRecordsAreIgnored) {
  // New coverage in the candidate can't regress anything.
  const BenchReport base = report_with({make_record("64x64", "CSR")});
  const BenchReport cand =
      report_with({make_record("64x64", "CSR"), make_record("128x128", "CSR")});
  const CompareResult result = compare_reports(base, cand);
  EXPECT_TRUE(result.ok());
  for (const auto& d : result.deltas) {
    EXPECT_EQ(d.record_key, "64x64/CSR/f32/t2");
  }
}

TEST(Compare, IsaMismatchSkipsTimingGatesButKeepsStructuralOnes) {
  BenchReport base = report_with({make_record()});
  base.set_machine("isa", "isa: avx2 avx512f (compiled avx512f)");
  BenchRecord slow = make_record();
  slow.set("seconds_median", 0.020);  // 2x slower — but on different silicon
  slow.set("nnz", 999.0);             // structural drift — machine-independent
  BenchReport cand = report_with({slow});
  cand.set_machine("isa", "isa: avx2 (compiled generic)");

  CompareOptions opts;
  opts.gate_metrics = {"seconds_median", "nnz"};
  const CompareResult result = compare_reports(base, cand, opts);
  EXPECT_FALSE(result.timing_skip_reason.empty());
  EXPECT_EQ(result.skipped, 1);
  EXPECT_EQ(result.regressions, 1);  // nnz still fails; timing does not
  for (const auto& d : result.deltas) {
    if (d.metric == "seconds_median") {
      EXPECT_EQ(d.verdict, Verdict::kSkipped);
    }
    if (d.metric == "nnz") {
      EXPECT_EQ(d.verdict, Verdict::kRegression);
    }
  }

  // --force-timing semantics: the 2x slowdown gates again.
  opts.skip_timing_on_isa_mismatch = false;
  EXPECT_EQ(compare_reports(base, cand, opts).regressions, 2);
}

TEST(Compare, SameRuntimeTierGatesTimingsAcrossDifferentBuilds) {
  // Two builds with different compile flags carry different legacy `isa`
  // strings, but if both *dispatched* the same kernel tier they timed the
  // same kernels — the runtime `isa_tier` key must keep the timing gate
  // armed (this is the cross-build regression gate the key restores).
  BenchRecord slow = make_record();
  slow.set("seconds_median", 0.020);
  BenchReport base = report_with({make_record()});
  BenchReport cand = report_with({slow});
  base.set_machine("isa", "isa: avx2 avx512f (compiled avx512f)");
  cand.set_machine("isa", "isa: avx2 avx512f (compiled generic)");
  base.set_machine("isa_tier", "avx512");
  cand.set_machine("isa_tier", "avx512");
  const CompareResult result = compare_reports(base, cand);
  EXPECT_TRUE(result.timing_skip_reason.empty());
  EXPECT_EQ(result.regressions, 1);
  EXPECT_EQ(result.skipped, 0);
}

TEST(Compare, DifferentRuntimeTierSkipsTimingsEvenWithMatchingIsaString) {
  // The converse: identical compile-time flags but a CSCV_FORCE_ISA (or a
  // different CPU) made the two runs dispatch different tiers — their
  // timings are incomparable no matter what the `isa` string says.
  BenchRecord slow = make_record();
  slow.set("seconds_median", 0.020);
  BenchReport base = report_with({make_record()});
  BenchReport cand = report_with({slow});
  base.set_machine("isa", "isa: avx2 avx512f (compiled avx512f)");
  cand.set_machine("isa", "isa: avx2 avx512f (compiled avx512f)");
  base.set_machine("isa_tier", "avx512");
  cand.set_machine("isa_tier", "generic");
  const CompareResult result = compare_reports(base, cand);
  EXPECT_FALSE(result.timing_skip_reason.empty());
  EXPECT_EQ(result.regressions, 0);
  EXPECT_EQ(result.skipped, 1);
}

TEST(Compare, MatchingOrAbsentIsaKeepsTimingGatesArmed) {
  BenchRecord slow = make_record();
  slow.set("seconds_median", 0.020);
  // No isa metadata on either side (hand-built reports): full comparison.
  EXPECT_EQ(compare_reports(report_with({make_record()}), report_with({slow}))
                .regressions,
            1);
  // Identical isa strings: full comparison.
  BenchReport base = report_with({make_record()});
  BenchReport cand = report_with({slow});
  base.set_machine("isa", "isa: avx2 (compiled generic)");
  cand.set_machine("isa", "isa: avx2 (compiled generic)");
  const CompareResult result = compare_reports(base, cand);
  EXPECT_TRUE(result.timing_skip_reason.empty());
  EXPECT_EQ(result.regressions, 1);
  EXPECT_EQ(result.skipped, 0);
}

TEST(Compare, TimingMetricClassifierConvention) {
  EXPECT_TRUE(is_timing_metric("seconds_median"));
  EXPECT_TRUE(is_timing_metric("gflops"));
  EXPECT_TRUE(is_timing_metric("gbps"));
  EXPECT_TRUE(is_timing_metric("speedup_vs_csr"));
  EXPECT_TRUE(is_timing_metric("telemetry_plan_build_seconds"));
  EXPECT_FALSE(is_timing_metric("nnz"));
  EXPECT_FALSE(is_timing_metric("matrix_bytes"));
  EXPECT_FALSE(is_timing_metric("padding_fraction"));
  EXPECT_FALSE(is_timing_metric("vxg_occupancy"));
}

TEST(Compare, CustomGateMetricsAndThreshold) {
  const BenchReport base = report_with({make_record()});
  BenchRecord cand = make_record();
  cand.set("gflops", 3.5);  // -12.5%
  CompareOptions opts;
  opts.gate_metrics = {"gflops"};
  opts.threshold = 0.10;
  EXPECT_FALSE(compare_reports(base, report_with({cand}), opts).ok());
  opts.threshold = 0.25;
  EXPECT_TRUE(compare_reports(base, report_with({cand}), opts).ok());
}

}  // namespace
}  // namespace cscv::benchlib
