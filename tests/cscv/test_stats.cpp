// Format-statistics invariants: the R_nnzE / memory trends of Fig. 8.
#include <gtest/gtest.h>

#include "core/format.hpp"
#include "test_helpers.hpp"

namespace cscv::core {
namespace {

using testing::cached_ct_csc;

template <typename T>
CscvMatrix<T> build(int image, int views, const CscvParams& params,
                    typename CscvMatrix<T>::Variant variant) {
  const OperatorLayout layout{image, ct::standard_num_bins(image), views};
  return CscvMatrix<T>::build(cached_ct_csc<T>(image, views), layout, params, variant);
}

TEST(CscvStats, PaddingRateIsNonnegative) {
  auto m = build<float>(32, 24, {.s_vvec = 8, .s_imgb = 8, .s_vxg = 1},
                        CscvMatrix<float>::Variant::kZ);
  EXPECT_GE(m.r_nnze(), 0.0);
}

TEST(CscvStats, PaddingRateInPaperBandForTypicalParams) {
  // Paper: "mostly about 25%-45%" for its parameter region — at clinical
  // angular sampling (delta < 1 degree). Padding grows with the angular
  // span of a view group (trajectories curve away from the reference), so
  // the small test geometry needs a finer delta to land in a comparable
  // band. 64 px / 126 views gives delta = 1.4 degrees; 126 is not a
  // multiple of 4, so every view is stored.
  auto m = build<float>(64, 126, {.s_vvec = 8, .s_imgb = 16, .s_vxg = 2},
                        CscvMatrix<float>::Variant::kZ);
  ASSERT_FALSE(m.folded());
  EXPECT_GT(m.r_nnze(), 0.05);
  EXPECT_LT(m.r_nnze(), 0.9);
}

// Folded, R_nnzE is the stored quarter's: views 0..32 of 128, whose last
// view group holds one view in 8 lanes, so it pads more than the full set.
TEST(CscvStats, PaddingRateInPaperBandForTypicalParamsFolded) {
  const CscvParams p{.s_vvec = 8, .s_imgb = 16, .s_vxg = 2};
  auto m = build<float>(64, 128, p, CscvMatrix<float>::Variant::kZ);
  ASSERT_TRUE(m.folded());
  const auto g = ct::standard_geometry(64, 128);
  const auto quarter = CscvMatrix<float>::build(ct::build_system_matrix_csc_range<float>(g, 0, 33),
                                                {64, g.num_bins, 33}, p,
                                                CscvMatrix<float>::Variant::kZ);
  EXPECT_DOUBLE_EQ(m.r_nnze(), quarter.r_nnze());
  EXPECT_GT(m.r_nnze(), build<float>(64, 126, p, CscvMatrix<float>::Variant::kZ).r_nnze());
}

TEST(CscvStats, PaddingGrowsWithImgB) {
  // Fig. 8 trend: larger image blocks -> trajectories diverge from the
  // reference -> more padding.
  double prev = -1.0;
  for (int sb : {4, 8, 16, 32}) {
    auto m = build<float>(64, 32, {.s_vvec = 8, .s_imgb = sb, .s_vxg = 1},
                          CscvMatrix<float>::Variant::kZ);
    if (prev >= 0.0) {
      EXPECT_GE(m.r_nnze(), prev - 0.02) << "S_ImgB " << sb;
    }
    prev = m.r_nnze();
  }
}

TEST(CscvStats, PaddingGrowsWithVVec) {
  double r4 = build<float>(64, 32, {.s_vvec = 4, .s_imgb = 16, .s_vxg = 1},
                           CscvMatrix<float>::Variant::kZ)
                  .r_nnze();
  double r16 = build<float>(64, 32, {.s_vvec = 16, .s_imgb = 16, .s_vxg = 1},
                            CscvMatrix<float>::Variant::kZ)
                   .r_nnze();
  EXPECT_GT(r16, r4);
}

TEST(CscvStats, VxgChunkingAddsPadding) {
  double r1 = build<float>(64, 32, {.s_vvec = 8, .s_imgb = 16, .s_vxg = 1},
                           CscvMatrix<float>::Variant::kZ)
                  .r_nnze();
  double r8 = build<float>(64, 32, {.s_vvec = 8, .s_imgb = 16, .s_vxg = 8},
                           CscvMatrix<float>::Variant::kZ)
                  .r_nnze();
  EXPECT_GE(r8, r1);
}

TEST(CscvStats, MMatrixBytesBelowZ) {
  CscvParams p{.s_vvec = 8, .s_imgb = 16, .s_vxg = 2};
  auto z = build<float>(64, 32, p, CscvMatrix<float>::Variant::kZ);
  auto m = build<float>(64, 32, p, CscvMatrix<float>::Variant::kM);
  EXPECT_LT(m.matrix_bytes(), z.matrix_bytes());
}

TEST(CscvStats, IndexDataShrinksWithVxg) {
  // The motivation for VxG: index volume divides by S_VxG (one (col, q)
  // pair per VxG instead of per CSCVE).
  auto v1 = build<float>(64, 32, {.s_vvec = 8, .s_imgb = 16, .s_vxg = 1},
                         CscvMatrix<float>::Variant::kZ);
  auto v4 = build<float>(64, 32, {.s_vvec = 8, .s_imgb = 16, .s_vxg = 4},
                         CscvMatrix<float>::Variant::kZ);
  EXPECT_LT(v4.num_vxgs(), v1.num_vxgs());
  // Not exactly 4x because chunking pads, but well below half.
  EXPECT_LT(static_cast<double>(v4.num_vxgs()),
            0.5 * static_cast<double>(v1.num_vxgs()));
}

TEST(CscvStats, BtbConstantReferencePadsMoreThanIoblr) {
  // The paper's core argument vs [14]: a view-major (constant-reference)
  // layout cannot follow trajectories, so it needs more padded vectors than
  // IOBLR at the same parameters.
  CscvParams ioblr{.s_vvec = 8, .s_imgb = 16, .s_vxg = 1};
  CscvParams btb = ioblr;
  btb.reference = ReferenceStrategy::kConstantBtb;
  double r_ioblr = build<float>(64, 64, ioblr, CscvMatrix<float>::Variant::kZ).r_nnze();
  double r_btb = build<float>(64, 64, btb, CscvMatrix<float>::Variant::kZ).r_nnze();
  EXPECT_GT(r_btb, r_ioblr);
}

TEST(CscvStats, CenterReferenceBeatsCorner) {
  // Fig. 5's premise: the block-center pixel is the best reference.
  CscvParams center{.s_vvec = 8, .s_imgb = 16, .s_vxg = 1};
  center.reference = ReferenceStrategy::kBlockCenter;
  CscvParams corner = center;
  corner.reference = ReferenceStrategy::kBlockCorner;
  double rc = build<float>(64, 32, center, CscvMatrix<float>::Variant::kZ).r_nnze();
  double rk = build<float>(64, 32, corner, CscvMatrix<float>::Variant::kZ).r_nnze();
  EXPECT_LE(rc, rk + 1e-9);
}

TEST(CscvStats, MatrixBytesFarBelowCscForIndexData) {
  // Paper: with VxGs, index volume is ~0.03x CSC's (CSC stores a row index
  // per nonzero). Compare index-only volumes.
  auto m = build<float>(64, 32, {.s_vvec = 8, .s_imgb = 16, .s_vxg = 4},
                        CscvMatrix<float>::Variant::kZ);
  const auto& csc = cached_ct_csc<float>(64, 32);
  const std::size_t csc_index_bytes = static_cast<std::size_t>(csc.nnz()) * sizeof(int);
  const std::size_t cscv_index_bytes =
      static_cast<std::size_t>(m.num_vxgs()) * (sizeof(int) + sizeof(int));
  EXPECT_LT(cscv_index_bytes * 5, csc_index_bytes);  // at least 5x smaller
}

TEST(CscvStats, YtildeScratchBounded) {
  auto m = build<float>(32, 24, {.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                        CscvMatrix<float>::Variant::kZ);
  EXPECT_GT(m.ytilde_max_slots(), 0u);
  // y~ never exceeds the full detector width per lane.
  EXPECT_LE(m.ytilde_max_slots(),
            static_cast<std::size_t>(m.layout().num_bins + 16) * 8);
}

}  // namespace
}  // namespace cscv::core
