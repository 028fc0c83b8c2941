// Structural invariants of the CSCV builder.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/format.hpp"
#include "core/plan.hpp"
#include "sparse/coo.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"

namespace cscv::core {
namespace {

using testing::cached_ct_csc;

template <typename T>
CscvMatrix<T> build_small(const CscvParams& params,
                          typename CscvMatrix<T>::Variant variant, int image = 32,
                          int views = 24) {
  const OperatorLayout layout{image, ct::standard_num_bins(image), views};
  return CscvMatrix<T>::build(cached_ct_csc<T>(image, views), layout, params, variant);
}

TEST(CscvBuilder, PreservesNnz) {
  auto m = build_small<float>({.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                              CscvMatrix<float>::Variant::kZ);
  EXPECT_EQ(m.nnz(), cached_ct_csc<float>(32, 24).nnz());
}

TEST(CscvBuilder, BlockTableConsistent) {
  auto m = build_small<float>({.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                              CscvMatrix<float>::Variant::kZ);
  EXPECT_EQ(m.num_blocks(), m.grid().num_blocks());
  sparse::offset_t prev_end = 0;
  for (const auto& blk : m.blocks()) {
    EXPECT_EQ(blk.vxg_begin, prev_end) << "VxG ranges must tile the array";
    EXPECT_LE(blk.vxg_begin, blk.vxg_end);
    prev_end = blk.vxg_end;
  }
  EXPECT_EQ(prev_end, m.num_vxgs());
}

TEST(CscvBuilder, VxgSlotsInsideBlockYtilde) {
  auto m = build_small<float>({.s_vvec = 8, .s_imgb = 8, .s_vxg = 4},
                              CscvMatrix<float>::Variant::kZ);
  const int s = m.params().s_vvec;
  const int v = m.params().s_vxg;
  for (int b = 0; b < m.num_blocks(); ++b) {
    const auto& blk = m.blocks()[static_cast<std::size_t>(b)];
    for (auto g = blk.vxg_begin; g < blk.vxg_end; ++g) {
      const auto q = m.vxg_q()[static_cast<std::size_t>(g)];
      EXPECT_GE(q, 0);
      EXPECT_EQ(q % s, 0) << "q must be CSCVE-aligned";
      EXPECT_LE(q + v * s, blk.o_count * s) << "VxG must fit in y~";
    }
  }
}

TEST(CscvBuilder, VxgColumnsBelongToTile) {
  auto m = build_small<float>({.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                              CscvMatrix<float>::Variant::kZ);
  const auto& layout = m.layout();
  const int sb = m.params().s_imgb;
  for (int b = 0; b < m.num_blocks(); ++b) {
    const auto& blk = m.blocks()[static_cast<std::size_t>(b)];
    for (auto g = blk.vxg_begin; g < blk.vxg_end; ++g) {
      const auto col = m.vxg_col()[static_cast<std::size_t>(g)];
      EXPECT_EQ(layout.px_of_col(col) / sb, blk.tile_x);
      EXPECT_EQ(layout.py_of_col(col) / sb, blk.tile_y);
    }
  }
}

TEST(CscvBuilder, SlotMappingIsInjectivePerBlock) {
  // iota_k must be a bijection between live y~ slots and matrix rows.
  auto m = build_small<float>({.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                              CscvMatrix<float>::Variant::kZ);
  const int s = m.params().s_vvec;
  for (int b = 0; b < std::min(m.num_blocks(), 40); ++b) {
    const auto& blk = m.blocks()[static_cast<std::size_t>(b)];
    std::map<sparse::index_t, int> seen;
    for (int o = 0; o < blk.o_count; ++o) {
      for (int vi = 0; vi < s; ++vi) {
        const auto row = m.row_of_slot(b, o, vi);
        if (row >= 0) {
          EXPECT_EQ(seen.count(row), 0u) << "row " << row << " mapped twice in block " << b;
          seen[row] = 1;
        }
      }
    }
  }
}

// 22 views: not a multiple of 4, so the matrix stores every view.
TEST(CscvBuilder, MaskPopcountsMatchPackedValues) {
  auto m = build_small<float>({.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                              CscvMatrix<float>::Variant::kM, 32, 22);
  ASSERT_FALSE(m.folded());
  std::size_t total = 0;
  for (std::uint16_t mask : m.masks()) total += std::popcount(mask);
  EXPECT_EQ(total, static_cast<std::size_t>(m.nnz()));
}

// Folded, the masks pack the stored quarter's own nonzeros.
TEST(CscvBuilder, MaskPopcountsMatchPackedValuesFolded) {
  auto m = build_small<float>({.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                              CscvMatrix<float>::Variant::kM);
  ASSERT_TRUE(m.folded());
  std::size_t total = 0;
  for (std::uint16_t mask : m.masks()) total += std::popcount(mask);
  EXPECT_EQ(total, static_cast<std::size_t>(m.stored_nnz()));
  EXPECT_LT(m.stored_nnz(), m.nnz());
}

TEST(CscvBuilder, MasksFitWidth) {
  auto m = build_small<float>({.s_vvec = 4, .s_imgb = 8, .s_vxg = 2},
                              CscvMatrix<float>::Variant::kM);
  for (std::uint16_t mask : m.masks()) EXPECT_LT(mask, 1u << 4);
}

TEST(CscvBuilder, ZStoresPaddedMStoresExact) {
  CscvParams p{.s_vvec = 8, .s_imgb = 16, .s_vxg = 2};
  auto z = build_small<float>(p, CscvMatrix<float>::Variant::kZ, 32, 22);
  auto mm = build_small<float>(p, CscvMatrix<float>::Variant::kM, 32, 22);
  EXPECT_EQ(z.stored_values(), z.padded_values());
  EXPECT_EQ(mm.stored_values(), mm.nnz());
  EXPECT_EQ(z.padded_values(), mm.padded_values());  // same structure
  EXPECT_GT(z.stored_values(), mm.stored_values());
}

TEST(CscvBuilder, ZStoresPaddedMStoresExactFolded) {
  CscvParams p{.s_vvec = 8, .s_imgb = 16, .s_vxg = 2};
  auto z = build_small<float>(p, CscvMatrix<float>::Variant::kZ);
  auto mm = build_small<float>(p, CscvMatrix<float>::Variant::kM);
  ASSERT_TRUE(z.folded() && mm.folded());
  EXPECT_EQ(z.stored_values(), z.padded_values());
  EXPECT_EQ(mm.stored_values(), mm.stored_nnz());
  EXPECT_EQ(z.padded_values(), mm.padded_values());  // same structure
  EXPECT_GT(z.stored_values(), mm.stored_values());
  EXPECT_EQ(z.nnz(), mm.nnz());
}

TEST(CscvBuilder, ByOffsetOrderIsSorted) {
  CscvParams p{.s_vvec = 8, .s_imgb = 8, .s_vxg = 1};
  p.order = VxgOrder::kByOffset;
  auto m = build_small<float>(p, CscvMatrix<float>::Variant::kZ);
  for (int b = 0; b < m.num_blocks(); ++b) {
    const auto& blk = m.blocks()[static_cast<std::size_t>(b)];
    for (auto g = blk.vxg_begin + 1; g < blk.vxg_end; ++g) {
      EXPECT_LE(m.vxg_q()[static_cast<std::size_t>(g - 1)],
                m.vxg_q()[static_cast<std::size_t>(g)]);
    }
  }
}

template <typename U>
bool same_bytes(std::span<const U> a, std::span<const U> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

/// Every output of two builds, compared byte for byte. The block table is
/// compared field by field: BlockInfo's padding bytes are not part of it.
template <typename T>
void expect_identical(const CscvMatrix<T>& a, const CscvMatrix<T>& b, const std::string& what) {
  ASSERT_EQ(a.num_blocks(), b.num_blocks()) << what;
  for (int k = 0; k < a.num_blocks(); ++k) {
    const auto& x = a.blocks()[static_cast<std::size_t>(k)];
    const auto& y = b.blocks()[static_cast<std::size_t>(k)];
    ASSERT_TRUE(x.view_group == y.view_group && x.tile_x == y.tile_x && x.tile_y == y.tile_y &&
                x.o_min == y.o_min && x.o_count == y.o_count && x.vxg_begin == y.vxg_begin &&
                x.vxg_end == y.vxg_end && x.val_begin == y.val_begin)
        << what << ": block " << k;
  }
  EXPECT_TRUE(same_bytes(a.reference_bins(), b.reference_bins())) << what << ": refs";
  EXPECT_TRUE(same_bytes(a.vxg_col(), b.vxg_col())) << what << ": vxg_col";
  EXPECT_TRUE(same_bytes(a.vxg_q(), b.vxg_q())) << what << ": vxg_q";
  EXPECT_TRUE(same_bytes(a.values(), b.values())) << what << ": values";
  EXPECT_TRUE(same_bytes(a.masks(), b.masks())) << what << ": masks";
  EXPECT_EQ(a.ytilde_max_slots(), b.ytilde_max_slots()) << what;
}

template <typename T>
void check_thread_count_independence() {
  using M = CscvMatrix<T>;
  // 30 is not a multiple of S_ImgB 8 and 21 views not of S_VVec 8: partial
  // tiles and a partial last view group.
  const int image = 30, views = 21;
  const OperatorLayout layout{image, ct::standard_num_bins(image), views};
  const auto& csc = cached_ct_csc<T>(image, views);
  const int saved = util::max_threads();
  for (auto ref : {ReferenceStrategy::kBlockCenter, ReferenceStrategy::kBlockCorner,
                   ReferenceStrategy::kMinEnvelope, ReferenceStrategy::kConstantBtb}) {
    for (auto order : {VxgOrder::kNatural, VxgOrder::kByOffset, VxgOrder::kByCount}) {
      for (auto variant : {M::Variant::kZ, M::Variant::kM}) {
        const CscvParams p{.s_vvec = 8, .s_imgb = 8, .s_vxg = 2, .reference = ref, .order = order};
        util::set_num_threads(1);
        const M one = M::build(csc, layout, p, variant);
        for (int threads : {2, 3, 4}) {
          util::set_num_threads(threads);
          expect_identical(one, M::build(csc, layout, p, variant),
                           reference_name(ref) + "/" + vxg_order_name(order) + "/" +
                               (variant == M::Variant::kZ ? "Z" : "M") + " at " +
                               std::to_string(threads) + " threads");
        }
      }
    }
  }
  util::set_num_threads(saved);
}

// The builder splits tiles over the ambient OpenMP threads; what it writes
// must not depend on how many there are.
TEST(CscvBuilder, OutputIsIndependentOfThreadCount) {
  check_thread_count_independence<float>();
  check_thread_count_independence<double>();
}

// A run's tail VxG can reach into the column's next offset run. The later
// VxG owns the shared offsets; the tail chunk's lanes there stay zero (kZ)
// or masked off (kM), so no nonzero is stored twice (docs/FORMAT.md §4).
TEST(CscvBuilder, LaterVxgOwnsOverlappingOffsets) {
  using M = CscvMatrix<float>;
  // One pixel, one view group of S_VVec 4 over 8 bins. With the constant
  // reference r = 0 (the block's min bin), offsets are bins: view 0 holds
  // offsets {0..4, 6, 7} and view 1 {1, 6}, so the column's runs are
  // {0..4} and {6, 7}. At S_VxG 4 they give VxGs at 0, 4 and 6; the one at
  // 4 covers offsets 4..7 and overlaps the one at 6 on 6 and 7.
  const OperatorLayout layout{1, 8, 4};
  sparse::CooMatrix<float> coo(layout.num_rows(), layout.num_cols());
  const auto value = [](int view, int bin) { return static_cast<float>(10 * view + bin + 1); };
  for (int bin : {0, 1, 2, 3, 4, 6, 7}) coo.add(layout.row_of(0, bin), 0, value(0, bin));
  for (int bin : {1, 6}) coo.add(layout.row_of(1, bin), 0, value(1, bin));
  coo.normalize();
  const auto csc = sparse::CscMatrix<float>::from_coo(coo);
  const CscvParams p{.s_vvec = 4, .s_imgb = 8, .s_vxg = 4,
                     .reference = ReferenceStrategy::kConstantBtb};

  const M z = M::build(csc, layout, p, M::Variant::kZ);
  ASSERT_EQ(z.num_vxgs(), 3);
  EXPECT_EQ(z.blocks()[0].o_min, 0);
  EXPECT_EQ(z.blocks()[0].o_count, 10);
  EXPECT_EQ(std::vector<std::int32_t>(z.vxg_q().begin(), z.vxg_q().end()),
            (std::vector<std::int32_t>{0 * 4, 4 * 4, 6 * 4}));
  // Slot (vxg, offset - o_start, lane) of the VxG-major dense values.
  const auto at = [&](int g, int e, int lane) {
    return z.values()[static_cast<std::size_t>((g * 4 + e) * 4 + lane)];
  };
  for (int e = 0; e < 4; ++e) EXPECT_EQ(at(0, e, 0), value(0, e));
  EXPECT_EQ(at(0, 1, 1), value(1, 1));
  EXPECT_EQ(at(1, 0, 0), value(0, 4));
  for (int e = 1; e < 4; ++e) {
    for (int lane = 0; lane < 4; ++lane) {
      EXPECT_EQ(at(1, e, lane), 0.0F) << "tail VxG must leave offset " << 4 + e << " empty";
    }
  }
  EXPECT_EQ(at(2, 0, 0), value(0, 6));
  EXPECT_EQ(at(2, 0, 1), value(1, 6));
  EXPECT_EQ(at(2, 1, 0), value(0, 7));

  const M m = M::build(csc, layout, p, M::Variant::kM);
  EXPECT_EQ(std::vector<std::uint16_t>(m.masks().begin(), m.masks().end()),
            (std::vector<std::uint16_t>{0b0001, 0b0011, 0b0001, 0b0001,  // offsets 0..3
                                        0b0001, 0, 0, 0,                 // 4, then 5..7 empty
                                        0b0011, 0b0001, 0, 0}));         // 6..9
  EXPECT_EQ(std::vector<float>(m.values().begin(), m.values().begin() + m.nnz()),
            (std::vector<float>{value(0, 0), value(0, 1), value(1, 1), value(0, 2), value(0, 3),
                                value(0, 4), value(0, 6), value(1, 6), value(0, 7)}));

  // Each nonzero is applied once: y = A x matches the CSC exactly (one
  // product per row).
  const util::AlignedVector<float> x{2.0F};
  util::AlignedVector<float> want(static_cast<std::size_t>(layout.num_rows()));
  csc.spmv_serial(x, want);
  for (const M* a : {&z, &m}) {
    util::AlignedVector<float> y(want.size());
    SpmvPlan<float>(*a).execute(x, y);
    EXPECT_EQ(y, want);
  }
}

TEST(CscvBuilder, RejectsWrongShape) {
  const OperatorLayout wrong{16, ct::standard_num_bins(16), 24};
  EXPECT_THROW(CscvMatrix<float>::build(cached_ct_csc<float>(32, 24), wrong,
                                        {.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                                        CscvMatrix<float>::Variant::kZ),
               util::CheckError);
}

TEST(CscvBuilder, RejectsBadParams) {
  const OperatorLayout layout{32, ct::standard_num_bins(32), 24};
  EXPECT_THROW(CscvMatrix<float>::build(cached_ct_csc<float>(32, 24), layout,
                                        {.s_vvec = 5, .s_imgb = 8, .s_vxg = 2},
                                        CscvMatrix<float>::Variant::kZ),
               util::CheckError);
  EXPECT_THROW(CscvMatrix<float>::build(cached_ct_csc<float>(32, 24), layout,
                                        {.s_vvec = 8, .s_imgb = 8, .s_vxg = 3},
                                        CscvMatrix<float>::Variant::kZ),
               util::CheckError);
}

}  // namespace
}  // namespace cscv::core
