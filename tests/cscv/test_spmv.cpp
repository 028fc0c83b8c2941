// CSCV SpMV correctness against the CSR reference.
#include <gtest/gtest.h>

#include "core/format.hpp"
#include "core/plan.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"

namespace cscv {
namespace {

using core::CscvMatrix;
using core::CscvParams;
using core::OperatorLayout;
using core::SpmvPlan;
using core::ThreadScheme;
using testing::cached_ct_csc;
using testing::cached_ct_csr;
using testing::expect_vectors_close;
using testing::spmv_tolerance;

template <typename T>
void check_spmv(int image_size, int num_views, const CscvParams& params,
                typename CscvMatrix<T>::Variant variant,
                ThreadScheme scheme = ThreadScheme::kAuto,
                simd::ExpandPath path = simd::ExpandPath::kAuto) {
  const auto& csc = cached_ct_csc<T>(image_size, num_views);
  const auto& csr = cached_ct_csr<T>(image_size, num_views);
  const OperatorLayout layout{image_size, ct::standard_num_bins(image_size), num_views};
  const auto cscv = CscvMatrix<T>::build(csc, layout, params, variant);
  EXPECT_EQ(cscv.nnz(), csc.nnz());

  const auto x = sparse::random_vector<T>(static_cast<std::size_t>(csc.cols()), 42, 0.0, 1.0);
  util::AlignedVector<T> y_ref(static_cast<std::size_t>(csc.rows()));
  util::AlignedVector<T> y_got(static_cast<std::size_t>(csc.rows()));
  csr.spmv_serial(x, y_ref);
  SpmvPlan<T>(cscv, {.scheme = scheme, .path = path}).execute(x, y_got);
  expect_vectors_close<T>(y_got, y_ref, spmv_tolerance<T>());
}

TEST(CscvSpmv, ZMatchesCsrFloat) {
  check_spmv<float>(32, 24, {.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                    CscvMatrix<float>::Variant::kZ);
}

TEST(CscvSpmv, ZMatchesCsrDouble) {
  check_spmv<double>(32, 24, {.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                     CscvMatrix<double>::Variant::kZ);
}

TEST(CscvSpmv, MMatchesCsrFloat) {
  check_spmv<float>(32, 24, {.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                    CscvMatrix<float>::Variant::kM);
}

TEST(CscvSpmv, MMatchesCsrDouble) {
  check_spmv<double>(32, 24, {.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                     CscvMatrix<double>::Variant::kM);
}

TEST(CscvSpmv, MSoftwareExpandMatches) {
  check_spmv<float>(32, 24, {.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                    CscvMatrix<float>::Variant::kM, ThreadScheme::kAuto,
                    simd::ExpandPath::kSoftware);
}

TEST(CscvSpmv, NonDivisibleViews) {
  // 24 views with S_VVec=16 leaves a partial trailing view group.
  check_spmv<float>(32, 24, {.s_vvec = 16, .s_imgb = 8, .s_vxg = 2},
                    CscvMatrix<float>::Variant::kZ);
}

TEST(CscvSpmv, NonDivisibleImage) {
  // 32-pixel image with S_ImgB=12 leaves partial tiles on both axes.
  check_spmv<float>(32, 24, {.s_vvec = 8, .s_imgb = 12, .s_vxg = 2},
                    CscvMatrix<float>::Variant::kZ);
}

TEST(CscvSpmv, PrivateYScheme) {
  check_spmv<float>(32, 24, {.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                    CscvMatrix<float>::Variant::kZ, ThreadScheme::kPrivateY);
}

TEST(CscvSpmv, RowPartitionScheme) {
  check_spmv<float>(32, 24, {.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                    CscvMatrix<float>::Variant::kZ, ThreadScheme::kRowPartition);
}

// Full parameter sweep: every (S_VVec, S_ImgB, S_VxG) combination must give
// the same result for both variants.
struct SweepParam {
  int s_vvec;
  int s_imgb;
  int s_vxg;
};

class CscvSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(CscvSweep, ZMatches) {
  const auto p = GetParam();
  check_spmv<float>(32, 24, {.s_vvec = p.s_vvec, .s_imgb = p.s_imgb, .s_vxg = p.s_vxg},
                    CscvMatrix<float>::Variant::kZ);
}

TEST_P(CscvSweep, MMatches) {
  const auto p = GetParam();
  check_spmv<float>(32, 24, {.s_vvec = p.s_vvec, .s_imgb = p.s_imgb, .s_vxg = p.s_vxg},
                    CscvMatrix<float>::Variant::kM);
}

TEST_P(CscvSweep, MMatchesDouble) {
  const auto p = GetParam();
  check_spmv<double>(32, 24, {.s_vvec = p.s_vvec, .s_imgb = p.s_imgb, .s_vxg = p.s_vxg},
                     CscvMatrix<double>::Variant::kM);
}

std::vector<SweepParam> sweep_params() {
  std::vector<SweepParam> out;
  for (int s : {4, 8, 16}) {
    for (int b : {4, 8, 16, 32}) {
      for (int v : {1, 2, 4, 8}) out.push_back({s, b, v});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllParams, CscvSweep, ::testing::ValuesIn(sweep_params()),
                         [](const ::testing::TestParamInfo<SweepParam>& info) {
                           // += instead of a chained operator+: gcc 12's
                           // -Wrestrict misfires on the inlined chain and CI
                           // builds with -Werror.
                           std::string name = "S";
                           name += std::to_string(info.param.s_vvec);
                           name += "_B";
                           name += std::to_string(info.param.s_imgb);
                           name += "_V";
                           name += std::to_string(info.param.s_vxg);
                           return name;
                         });

// Reference-strategy and VxG-order policies must not change results.
TEST(CscvSpmv, ReferenceStrategiesAgree) {
  for (auto ref : {core::ReferenceStrategy::kBlockCenter, core::ReferenceStrategy::kBlockCorner,
                   core::ReferenceStrategy::kMinEnvelope,
                   core::ReferenceStrategy::kConstantBtb}) {
    CscvParams p{.s_vvec = 8, .s_imgb = 8, .s_vxg = 2};
    p.reference = ref;
    check_spmv<float>(32, 24, p, CscvMatrix<float>::Variant::kZ);
  }
}

TEST(CscvSpmv, VxgOrdersAgree) {
  for (auto ord : {core::VxgOrder::kNatural, core::VxgOrder::kByOffset,
                   core::VxgOrder::kByCount}) {
    CscvParams p{.s_vvec = 8, .s_imgb = 8, .s_vxg = 4};
    p.order = ord;
    check_spmv<float>(32, 24, p, CscvMatrix<float>::Variant::kM);
  }
}

}  // namespace
}  // namespace cscv
