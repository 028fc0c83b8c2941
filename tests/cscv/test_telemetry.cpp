// Telemetry layer — zero-cost when off, consistent PlanStats either way.
//
// This file compiles in both configurations: the default build (telemetry
// off) proves the counters are compile-time no-ops, a -DCSCV_TELEMETRY=ON
// build (CI perf-smoke job, build dir build-telemetry) proves the dynamic
// half actually counts. The structural stats() checks run identically in
// both.
#include <gtest/gtest.h>

#include <type_traits>

#include "core/format.hpp"
#include "core/plan.hpp"
#include "recon/solvers.hpp"
#include "sparse/random.hpp"
#include "test_helpers.hpp"
#include "util/telemetry.hpp"

namespace cscv::core {
namespace {

using testing::cached_ct_csc;

#if !CSCV_TELEMETRY_ENABLED
// The zero-cost guarantee: with telemetry off the counter types carry no
// state at all, so the [[no_unique_address]] member in SpmvPlan overlaps
// other members and the record_* calls fold to nothing. These are
// compile-time facts — static_assert, not EXPECT.
static_assert(std::is_empty_v<util::telemetry::Counters>,
              "telemetry-off Counters must be stateless");
static_assert(std::is_empty_v<util::telemetry::Stopwatch>,
              "telemetry-off Stopwatch must be stateless");
static_assert(!util::telemetry::kEnabled);
#else
static_assert(!std::is_empty_v<util::telemetry::Counters>);
static_assert(util::telemetry::kEnabled);
#endif

template <typename T>
CscvMatrix<T> build_cscv(typename CscvMatrix<T>::Variant variant, int image = 32,
                         int views = 24) {
  const auto& csc = cached_ct_csc<T>(image, views);
  const OperatorLayout layout{image, ct::standard_num_bins(image), views};
  return CscvMatrix<T>::build(csc, layout, {.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                              variant);
}

// Structural stats are pure matrix facts — available with telemetry on or
// off, and consistent with the paper's definitions: padding_fraction is
// the zero-slot share of nnz(A~) (fig5's padding view), r_nnze is
// nnz(A~)/nnz(A) - 1, occupancy the complement of padding.
// 22 views: not a multiple of 4, so every view is stored.
TEST(PlanStats, StructuralFieldsMatchMatrix) {
  const auto m = build_cscv<float>(CscvMatrix<float>::Variant::kZ, 32, 22);
  const SpmvPlan<float> plan(m);
  const PlanStats s = plan.stats();
  EXPECT_FALSE(s.folded);

  EXPECT_EQ(s.nnz, m.nnz());
  EXPECT_EQ(s.padded_values, m.padded_values());
  EXPECT_EQ(s.stored_values, m.stored_values());
  EXPECT_GT(s.padded_values, s.nnz);  // CT matrices always pad some slots

  EXPECT_NEAR(s.r_nnze, m.r_nnze(), 1e-12);
  EXPECT_NEAR(s.padding_fraction, s.r_nnze / (1.0 + s.r_nnze), 1e-12);
  EXPECT_NEAR(s.vxg_occupancy, 1.0 - s.padding_fraction, 1e-12);
  EXPECT_GT(s.padding_fraction, 0.0);
  EXPECT_LT(s.padding_fraction, 1.0);

  EXPECT_EQ(s.flops_per_apply, 2 * s.nnz);  // num_rhs == 1
  EXPECT_EQ(s.padded_flops_per_apply, 2 * s.padded_values);
  EXPECT_EQ(s.matrix_bytes, m.matrix_bytes());
  EXPECT_EQ(s.num_blocks, m.blocks().size());
  EXPECT_GE(s.num_blocks, s.nonempty_blocks);
  EXPECT_GT(s.nonempty_blocks, 0u);
  EXPECT_GT(s.num_vxgs, 0u);
  EXPECT_EQ(s.threads, plan.threads());
  EXPECT_EQ(s.num_rhs, 1);
  EXPECT_EQ(s.scheme, plan.scheme());
  EXPECT_GE(s.load_imbalance, 1.0);  // max/mean of slot work
  EXPECT_EQ(s.telemetry_enabled, util::telemetry::kEnabled);
}

// Folded, nnz and the flops are the operator's; padding, occupancy and
// bytes are the stored quarter's.
TEST(PlanStats, StructuralFieldsMatchMatrixFolded) {
  const auto m = build_cscv<float>(CscvMatrix<float>::Variant::kZ);
  const SpmvPlan<float> plan(m);
  const PlanStats s = plan.stats();
  EXPECT_TRUE(s.folded);
  EXPECT_EQ(s.nnz, m.nnz());
  EXPECT_GT(static_cast<sparse::offset_t>(s.nnz), m.stored_nnz());
  EXPECT_EQ(s.padded_values, m.padded_values());
  EXPECT_EQ(s.stored_values, m.stored_values());
  EXPECT_GT(s.padded_values, static_cast<std::uint64_t>(m.stored_nnz()));
  EXPECT_NEAR(s.r_nnze, m.r_nnze(), 1e-12);
  EXPECT_NEAR(s.padding_fraction, s.r_nnze / (1.0 + s.r_nnze), 1e-12);
  EXPECT_NEAR(s.vxg_occupancy, 1.0 - s.padding_fraction, 1e-12);
  EXPECT_NEAR(s.vxg_occupancy,
              static_cast<double>(m.stored_nnz()) / static_cast<double>(s.padded_values), 1e-12);
  EXPECT_EQ(s.flops_per_apply, 2 * s.nnz);
  EXPECT_EQ(s.matrix_bytes, m.matrix_bytes());
}

// kZ stores the padded array, kM compresses to nnz — stats must reflect
// the physical footprint difference while padding metrics agree.
TEST(PlanStats, VariantStorageDiffers) {
  const auto z = build_cscv<float>(CscvMatrix<float>::Variant::kZ, 32, 22);
  const auto m = build_cscv<float>(CscvMatrix<float>::Variant::kM, 32, 22);
  const PlanStats sz = SpmvPlan<float>(z).stats();
  const PlanStats sm = SpmvPlan<float>(m).stats();
  EXPECT_EQ(sz.stored_values, sz.padded_values);
  EXPECT_EQ(sm.stored_values, sm.nnz);
  EXPECT_EQ(sz.nnz, sm.nnz);
  EXPECT_NEAR(sz.padding_fraction, sm.padding_fraction, 1e-12);
}

TEST(PlanStats, VariantStorageDiffersFolded) {
  const auto z = build_cscv<float>(CscvMatrix<float>::Variant::kZ);
  const auto m = build_cscv<float>(CscvMatrix<float>::Variant::kM);
  const PlanStats sz = SpmvPlan<float>(z).stats();
  const PlanStats sm = SpmvPlan<float>(m).stats();
  EXPECT_EQ(sz.stored_values, sz.padded_values);
  EXPECT_EQ(sm.stored_values, static_cast<std::uint64_t>(m.stored_nnz()));
  EXPECT_EQ(sz.nnz, sm.nnz);
  EXPECT_NEAR(sz.padding_fraction, sm.padding_fraction, 1e-12);
}

TEST(PlanStats, MultiRhsScalesFlops) {
  const auto m = build_cscv<float>(CscvMatrix<float>::Variant::kZ);
  const SpmvPlan<float> plan(m, {.num_rhs = 3});
  const PlanStats s = plan.stats();
  EXPECT_EQ(s.num_rhs, 3);
  EXPECT_EQ(s.flops_per_apply, 2 * s.nnz * 3);
  EXPECT_EQ(s.vector_bytes_per_apply,
            (static_cast<std::uint64_t>(m.cols()) + static_cast<std::uint64_t>(m.rows())) *
                3 * sizeof(float));
}

// The dynamic half: exercises execute()/execute_transpose() and checks the
// counters in whichever configuration this file was compiled.
TEST(PlanStats, DynamicCountersFollowBuildConfig) {
  const auto m = build_cscv<double>(CscvMatrix<double>::Variant::kM);
  const SpmvPlan<double> plan(m);
  const auto x = sparse::random_vector<double>(static_cast<std::size_t>(m.cols()), 11);
  util::AlignedVector<double> y(static_cast<std::size_t>(m.rows()));
  util::AlignedVector<double> xt(x.size());

  for (int i = 0; i < 3; ++i) plan.execute(x, y);
  plan.execute_transpose(y, xt);
  const PlanStats s = plan.stats();

  if constexpr (util::telemetry::kEnabled) {
    EXPECT_TRUE(s.telemetry_enabled);
    EXPECT_EQ(s.applies, 3u);
    EXPECT_EQ(s.transpose_applies, 1u);
    EXPECT_GT(s.plan_build_seconds, 0.0);
    EXPECT_GT(s.apply_seconds_total, 0.0);
    EXPECT_GT(s.apply_seconds_min, 0.0);
    EXPECT_LE(s.apply_seconds_min, s.apply_seconds_total / 3.0);
    EXPECT_GT(s.transpose_seconds_total, 0.0);
    EXPECT_GT(s.transpose_seconds_min, 0.0);
    EXPECT_LE(s.transpose_seconds_min, s.transpose_seconds_total);
    // Derived rates use the paper's useful-flops convention; the transpose
    // moves the same bytes as the forward.
    EXPECT_NEAR(s.gflops_best,
                static_cast<double>(s.flops_per_apply) / s.apply_seconds_min / 1e9,
                1e-9 * s.gflops_best + 1e-15);
    EXPECT_GT(s.gbytes_per_second_best, 0.0);
    EXPECT_GE(s.gflops_best, s.gflops_avg);
    EXPECT_NEAR(s.transpose_gflops_best,
                static_cast<double>(s.flops_per_apply) / s.transpose_seconds_min / 1e9,
                1e-9 * s.transpose_gflops_best + 1e-15);
    const double bytes = static_cast<double>(s.matrix_bytes + s.vector_bytes_per_apply);
    EXPECT_NEAR(s.transpose_gbytes_per_second_best, bytes / s.transpose_seconds_min / 1e9,
                1e-9 * s.transpose_gbytes_per_second_best + 1e-15);
  } else {
    // Off build: the dynamic half reads as exactly zero, never garbage.
    EXPECT_FALSE(s.telemetry_enabled);
    EXPECT_EQ(s.applies, 0u);
    EXPECT_EQ(s.transpose_applies, 0u);
    EXPECT_EQ(s.plan_build_seconds, 0.0);
    EXPECT_EQ(s.apply_seconds_total, 0.0);
    EXPECT_EQ(s.gflops_best, 0.0);
    EXPECT_EQ(s.gbytes_per_second_best, 0.0);
    EXPECT_EQ(s.transpose_seconds_min, 0.0);
    EXPECT_EQ(s.transpose_gflops_best, 0.0);
    EXPECT_EQ(s.transpose_gbytes_per_second_best, 0.0);
  }
}

TEST(PlanStats, ResetTelemetryClearsDynamicHalf) {
  const auto m = build_cscv<float>(CscvMatrix<float>::Variant::kZ);
  SpmvPlan<float> plan(m);
  const auto x = sparse::random_vector<float>(static_cast<std::size_t>(m.cols()), 12);
  util::AlignedVector<float> y(static_cast<std::size_t>(m.rows()));
  plan.execute(x, y);
  plan.reset_telemetry();
  const PlanStats s = plan.stats();
  EXPECT_EQ(s.applies, 0u);
  EXPECT_EQ(s.apply_seconds_total, 0.0);
  // Structural half is untouched by reset.
  EXPECT_EQ(s.nnz, m.nnz());
}

// SIRT's normalizers come from the plan's memo: the first solve on a plan
// pays one forward and one adjoint for them, a second solve none. Both
// start from zero, so each skips its first forward too.
TEST(PlanStats, SecondSirtSolveAddsNoNormalizerApplies) {
  const auto m = build_cscv<float>(CscvMatrix<float>::Variant::kM);
  SpmvPlan<float> plan(m, {.threads = 1});
  const recon::PlanOperator<float> op(plan);
  const auto b = sparse::random_vector<float>(static_cast<std::size_t>(m.rows()), 13, 0.0, 1.0);
  constexpr int kIters = 3;
  const auto solve = [&] {
    util::AlignedVector<float> x(static_cast<std::size_t>(m.cols()), 0.0F);
    (void)recon::sirt<float>(op, b, x, {.iterations = kIters});
  };

  solve();
  const PlanStats first = plan.stats();
  plan.reset_telemetry();
  solve();
  const PlanStats second = plan.stats();
  if constexpr (util::telemetry::kEnabled) {
    EXPECT_EQ(first.applies, 1u + (kIters - 1));  // A 1, then iterations 2..n
    EXPECT_EQ(first.transpose_applies, 1u + kIters);
    EXPECT_EQ(second.applies, static_cast<std::uint64_t>(kIters - 1));
    EXPECT_EQ(second.transpose_applies, static_cast<std::uint64_t>(kIters));
  } else {
    EXPECT_EQ(first.applies, 0u);
    EXPECT_EQ(second.transpose_applies, 0u);
  }
}

}  // namespace
}  // namespace cscv::core
