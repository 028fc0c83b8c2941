// benchlib: dataset registry, engine registry, bandwidth model, runner.
#include <gtest/gtest.h>

#include "benchlib/bandwidth.hpp"
#include "benchlib/engines.hpp"
#include "benchlib/runner.hpp"
#include "benchlib/workloads.hpp"
#include "sparse/convert.hpp"
#include "test_helpers.hpp"

namespace cscv::benchlib {
namespace {

TEST(Workloads, FourDatasetsMirrorTableII) {
  auto ds = standard_datasets(8);
  ASSERT_EQ(ds.size(), 4u);
  // Image sizes scale 1/8 of {512, 768, 1024, 2048}.
  EXPECT_EQ(ds[0].geometry.image_size, 64);
  EXPECT_EQ(ds[1].geometry.image_size, 96);
  EXPECT_EQ(ds[2].geometry.image_size, 128);
  EXPECT_EQ(ds[3].geometry.image_size, 256);
  // First three are clinical full-coverage; the last is limited-angle.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(ds[static_cast<std::size_t>(i)].clinical);
    EXPECT_NEAR(ds[static_cast<std::size_t>(i)].geometry.delta_angle_deg *
                    ds[static_cast<std::size_t>(i)].geometry.num_views,
                180.0, 1e-9);
  }
  EXPECT_FALSE(ds[3].clinical);
  EXPECT_NEAR(ds[3].geometry.delta_angle_deg * ds[3].geometry.num_views, 30.0, 1e-9);
}

TEST(Workloads, ViewsScaleSlowerThanImage) {
  // The angular-sampling invariant: views divide by scale/2, not scale.
  auto coarse = standard_datasets(8);
  auto fine = standard_datasets(4);
  EXPECT_EQ(fine[0].geometry.image_size, 2 * coarse[0].geometry.image_size);
  EXPECT_EQ(fine[0].geometry.num_views, 2 * coarse[0].geometry.num_views);
}

TEST(Workloads, BinsCoverDiagonal) {
  for (const auto& d : standard_datasets(8)) {
    EXPECT_GE(d.geometry.num_bins,
              static_cast<int>(d.geometry.image_size * std::numbers::sqrt2));
  }
}

TEST(Engines, FullRegistryAgreesOnCtMatrix) {
  const auto& csc = cscv::testing::cached_ct_csc<float>(32, 24);
  auto csr = sparse::csr_from_csc(csc);
  const core::OperatorLayout layout{32, ct::standard_num_bins(32), 24};
  auto engines = build_engines<float>(csr, csc, layout,
                                      {.z = {.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                                       .m = {.s_vvec = 8, .s_imgb = 8, .s_vxg = 2}});
  ASSERT_GE(engines.size(), 9u);  // CSR, CSC, Merge, SegSum, SELL, SPC5, CVR, Z, M

  auto x = sparse::random_vector<float>(static_cast<std::size_t>(csc.cols()), 3, 0.0, 1.0);
  util::AlignedVector<float> y_ref(static_cast<std::size_t>(csc.rows()));
  csr.spmv_serial(x, y_ref);
  for (const auto& engine : engines) {
    util::AlignedVector<float> y(static_cast<std::size_t>(csc.rows()));
    if (engine.prepare) engine.prepare();
    engine.apply(x, y);
    EXPECT_LT(util::rel_l2_error<float>(y, y_ref), 1e-5) << engine.name;
    EXPECT_GT(engine.matrix_bytes, 0u) << engine.name;
    EXPECT_EQ(engine.nnz, csr.nnz()) << engine.name;
  }
}

TEST(Bandwidth, ModelArithmetic) {
  EXPECT_EQ((vector_bytes<float>(10, 20)), 120u);
  EXPECT_EQ(memory_requirement(1000, 120), 1120u);
  EXPECT_DOUBLE_EQ(bandwidth_usage_ratio(1000, 1e-6, 1e9), 1.0);
  EXPECT_DOUBLE_EQ(bandwidth_usage_ratio(1000, 0.0, 1e9), 0.0);
}

TEST(Bandwidth, MeasurementIsPositiveAndRepeatable) {
  const double a = measure_peak_bandwidth(32, 2);
  EXPECT_GT(a, 1e8);  // any real machine exceeds 100 MB/s
}

TEST(Runner, MeasurementProducesPositiveGflops) {
  const auto& csc = cscv::testing::cached_ct_csc<float>(32, 24);
  auto csr = sparse::csr_from_csc(csc);
  Engine<float> engine{"CSR", [&csr](auto x, auto y) { csr.spmv(x, y); },
                       csr.matrix_bytes(), csr.nnz(), nullptr};
  auto m = measure_spmv(engine, static_cast<std::size_t>(csr.cols()),
                        static_cast<std::size_t>(csr.rows()), 1, 3);
  EXPECT_GT(m.seconds, 0.0);
  EXPECT_GT(m.gflops, 0.0);
}

TEST(Runner, RejectsNonPositiveIterationCounts) {
  // iterations=0 (reachable via bench_suite --iters=0) would hand
  // min_element/percentile an empty sample — must throw, not UB.
  const auto& csc = cscv::testing::cached_ct_csc<float>(32, 24);
  auto csr = sparse::csr_from_csc(csc);
  Engine<float> engine{"CSR", [&csr](auto x, auto y) { csr.spmv(x, y); },
                       csr.matrix_bytes(), csr.nnz(), nullptr};
  const auto cols = static_cast<std::size_t>(csr.cols());
  const auto rows = static_cast<std::size_t>(csr.rows());
  EXPECT_THROW((void)measure_spmv_samples(engine, cols, rows, 1, 0), util::CheckError);
  EXPECT_THROW((void)measure_spmv_samples(engine, cols, rows, 1, -3), util::CheckError);
  EXPECT_THROW((void)measure_spmv(engine, cols, rows, 1, 0), util::CheckError);
}

TEST(Runner, ThreadCountsStartAtOne) {
  auto counts = scalability_thread_counts();
  ASSERT_FALSE(counts.empty());
  EXPECT_EQ(counts.front(), 1);
  for (std::size_t i = 1; i < counts.size(); ++i) EXPECT_EQ(counts[i], 2 * counts[i - 1]);
}

}  // namespace
}  // namespace cscv::benchlib
