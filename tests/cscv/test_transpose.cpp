// CSCV transpose apply (x = A^T y) — the paper's future-work extension.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "core/format.hpp"
#include "core/plan.hpp"
#include "sparse/random.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"

namespace cscv::core {
namespace {

using testing::cached_ct_csc;
using testing::cached_ct_csr;
using testing::expect_vectors_close;
using testing::spmv_tolerance;

template <typename T>
void check_transpose(const CscvParams& params, typename CscvMatrix<T>::Variant variant,
                     int image = 32, int views = 24,
                     simd::ExpandPath path = simd::ExpandPath::kAuto) {
  const auto& csc = cached_ct_csc<T>(image, views);
  const auto& csr = cached_ct_csr<T>(image, views);
  const OperatorLayout layout{image, ct::standard_num_bins(image), views};
  const auto cscv = CscvMatrix<T>::build(csc, layout, params, variant);

  const auto y = sparse::random_vector<T>(static_cast<std::size_t>(csc.rows()), 7, 0.0, 1.0);
  util::AlignedVector<T> x_ref(static_cast<std::size_t>(csc.cols()));
  util::AlignedVector<T> x_got(static_cast<std::size_t>(csc.cols()));
  csr.spmv_transpose_serial(y, x_ref);
  SpmvPlan<T>(cscv, {.path = path}).execute_transpose(y, x_got);
  expect_vectors_close<T>(x_got, x_ref, spmv_tolerance<T>());
}

TEST(CscvTranspose, ZFloat) {
  check_transpose<float>({.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                         CscvMatrix<float>::Variant::kZ);
}

TEST(CscvTranspose, ZDouble) {
  check_transpose<double>({.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                          CscvMatrix<double>::Variant::kZ);
}

TEST(CscvTranspose, MFloat) {
  check_transpose<float>({.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                         CscvMatrix<float>::Variant::kM);
}

TEST(CscvTranspose, MDouble) {
  check_transpose<double>({.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                          CscvMatrix<double>::Variant::kM);
}

// The transpose apply honors its expand-path argument on the mask variant
// (it used to be silently ignored). Forcing kHardware is portable: the
// wrapper degrades to the software expansion at compile time on machines
// without the vexpand instruction, so both forced paths must match the
// reference everywhere.
TEST(CscvTranspose, MForcedHardwareExpand) {
  for (int s : {4, 8, 16}) {
    check_transpose<float>({.s_vvec = s, .s_imgb = 8, .s_vxg = 2},
                           CscvMatrix<float>::Variant::kM, 32, 24,
                           simd::ExpandPath::kHardware);
  }
  check_transpose<double>({.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                          CscvMatrix<double>::Variant::kM, 32, 24,
                          simd::ExpandPath::kHardware);
}

TEST(CscvTranspose, MForcedSoftwareExpand) {
  for (int s : {4, 8, 16}) {
    check_transpose<float>({.s_vvec = s, .s_imgb = 8, .s_vxg = 2},
                           CscvMatrix<float>::Variant::kM, 32, 24,
                           simd::ExpandPath::kSoftware);
  }
  check_transpose<double>({.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                          CscvMatrix<double>::Variant::kM, 32, 24,
                          simd::ExpandPath::kSoftware);
}

TEST(CscvTranspose, ParamSweep) {
  for (int s : {4, 8, 16}) {
    for (int b : {8, 12}) {
      for (int v : {1, 2, 4}) {
        check_transpose<float>({.s_vvec = s, .s_imgb = b, .s_vxg = v},
                               CscvMatrix<float>::Variant::kZ);
        check_transpose<float>({.s_vvec = s, .s_imgb = b, .s_vxg = v},
                               CscvMatrix<float>::Variant::kM);
      }
    }
  }
}

TEST(CscvTranspose, NonDivisibleViewsAndImage) {
  check_transpose<float>({.s_vvec = 16, .s_imgb = 12, .s_vxg = 2},
                         CscvMatrix<float>::Variant::kZ);
}

// The transpose gives the same bits at any thread count (docs/API.md):
// whichever slot owns a tile, each x element sums its view groups in
// ascending order. At 2-4 threads a slot owns several of the 16 tiles.
TEST(CscvTranspose, MultiThreadedMatchesSerial) {
  const int image = 32, views = 24;
  const auto& csc = cached_ct_csc<float>(image, views);
  const OperatorLayout layout{image, ct::standard_num_bins(image), views};
  const auto y = sparse::random_vector<float>(static_cast<std::size_t>(csc.rows()), 8);
  const auto n = static_cast<std::size_t>(csc.cols());
  struct Case {
    CscvMatrix<float>::Variant variant;
    simd::ExpandPath path;
    const char* name;
  };
  const Case cases[] = {
      {CscvMatrix<float>::Variant::kZ, simd::ExpandPath::kAuto, "Z"},
      {CscvMatrix<float>::Variant::kM, simd::ExpandPath::kHardware, "M-hw"},
      {CscvMatrix<float>::Variant::kM, simd::ExpandPath::kSoftware, "M-soft"}};
  const int saved = util::max_threads();
  for (const Case& c : cases) {
    const auto cscv =
        CscvMatrix<float>::build(csc, layout, {.s_vvec = 8, .s_imgb = 8, .s_vxg = 2}, c.variant);
    util::AlignedVector<float> serial(n);
    for (int threads = 1; threads <= 4; ++threads) {
      util::set_num_threads(threads);
      const SpmvPlan<float> plan(cscv, {.path = c.path, .threads = threads});
      util::AlignedVector<float> x(n);
      plan.execute_transpose(y, x);
      if (threads == 1) {
        serial = x;
      } else {
        EXPECT_EQ(0, std::memcmp(x.data(), serial.data(), n * sizeof(float)))
            << c.name << " at " << threads << " threads";
      }
    }
  }
  util::set_num_threads(saved);
}

// The documented within-VxG order (docs/API.md, spmv_transpose), spelled
// out over the public format arrays: one partial sum per view lane over the
// S_VxG CSCVEs, a pairwise tree over the S_VVec lanes (lane l + W/2 onto
// lane l), then x[col] += in block order. `fold` instead accumulates every
// CSCVE slot of a VxG in one in-order chain.
std::vector<float> ordered_transpose(const CscvMatrix<float>& m, std::span<const float> y,
                                     bool fold) {
  const int s = m.params().s_vvec, v = m.params().s_vxg;
  const OperatorLayout layout = m.stored_layout();
  const bool packed = m.variant() == CscvMatrix<float>::Variant::kM;
  std::vector<float> x(static_cast<std::size_t>(m.cols()), 0.0f);
  for (std::size_t b = 0; b < m.blocks().size(); ++b) {
    const auto& info = m.blocks()[b];
    std::vector<float> yt(static_cast<std::size_t>(info.o_count) * s, 0.0f);
    for (int vi = 0; vi < s; ++vi) {
      const int view = info.view_group * s + vi;
      for (int o = 0; o < info.o_count && view < layout.num_views; ++o) {
        const int bin = m.reference_bins()[b * s + vi] + info.o_min + o;
        if (bin >= 0 && bin < layout.num_bins) yt[o * s + vi] = y[layout.row_of(view, bin)];
      }
    }
    std::size_t val = static_cast<std::size_t>(info.val_begin);
    for (auto g = info.vxg_begin; g < info.vxg_end; ++g) {
      std::vector<float> lane(static_cast<std::size_t>(s), 0.0f);
      float chain = 0.0f;
      for (int e = 0; e < v; ++e) {
        const unsigned mask = packed ? m.masks()[g * v + e] : ~0u;
        for (int l = 0; l < s; ++l) {
          if ((mask >> l & 1u) == 0) continue;
          const float p = m.values()[val++] * yt[m.vxg_q()[g] + e * s + l];
          lane[l] += p;
          chain += p;
        }
      }
      for (int w = s / 2; w > 0; w /= 2) {
        for (int l = 0; l < w; ++l) lane[l] += lane[l + w];
      }
      x[static_cast<std::size_t>(m.vxg_col()[g])] += fold ? chain : lane[0];
    }
  }
  return x;
}

/// The CT pattern at `views`, values rounded down to powers of two (which
/// keeps a foldable matrix's symmetry bit for bit).
sparse::CscMatrix<float> power_of_two_csc(int image, int views) {
  const auto& pattern = cached_ct_csc<float>(image, views);
  util::UninitAlignedVector<float> vals(pattern.values().begin(), pattern.values().end());
  for (float& a : vals) a = std::exp2(std::floor(std::log2(a)));
  return sparse::CscMatrix<float>(
      pattern.rows(), pattern.cols(),
      util::UninitAlignedVector<sparse::offset_t>(pattern.col_ptr().begin(),
                                                  pattern.col_ptr().end()),
      util::UninitAlignedVector<sparse::index_t>(pattern.row_idx().begin(),
                                                 pattern.row_idx().end()),
      std::move(vals));
}

/// The folded adjoint's documented order: the stored quarter's transpose of
/// each image's rows (zeros where the image owns no view), then per pixel
/// ((I + T) + R) + M at the image pixels that read it (ct::ViewFold).
std::vector<float> folded_transpose(const CscvMatrix<float>& m, std::span<const float> y,
                                    bool fold) {
  const OperatorLayout q = m.stored_layout();
  const ct::ViewFold views{m.layout().num_views};
  const int n = q.image_size;
  const auto bins = static_cast<std::size_t>(q.num_bins);
  std::vector<std::vector<float>> images;
  for (int f = 0; f < ct::ViewFold::kImages; ++f) {
    std::vector<float> rows(static_cast<std::size_t>(q.num_rows()), 0.0f);
    for (int v = 0; v < q.num_views; ++v) {
      const int w = views.view_of(f, v);
      if (w < 0) continue;
      std::copy_n(y.begin() + static_cast<std::ptrdiff_t>(static_cast<std::size_t>(w) * bins),
                  bins, rows.begin() + static_cast<std::ptrdiff_t>(static_cast<std::size_t>(v) * bins));
    }
    images.push_back(ordered_transpose(m, rows, fold));
  }
  std::vector<float> x(static_cast<std::size_t>(m.cols()));
  for (int py = 0; py < n; ++py) {
    for (int px = 0; px < n; ++px) {
      float sum = images[0][static_cast<std::size_t>(q.col_of_pixel(px, py))];
      for (int f = 1; f < ct::ViewFold::kImages; ++f) {
        const auto [jx, jy] = ct::ViewFold::image_pixel(f, n, px, py);
        sum += images[static_cast<std::size_t>(f)][static_cast<std::size_t>(q.col_of_pixel(jx, jy))];
      }
      x[static_cast<std::size_t>(q.col_of_pixel(px, py))] = sum;
    }
  }
  return x;
}

// Pins that order on every tier: values rounded down to powers of two and
// y mixing +-2^20 with 1 make every product exact (so FMA versus mul+add
// cannot matter and one expected vector serves all tiers) while the sums
// cancel, so an in-order fold or any other association rounds differently.
void check_transpose_order(int views, bool folded) {
  const int image = 32;
  const auto csc = power_of_two_csc(image, views);
  util::AlignedVector<float> y(static_cast<std::size_t>(csc.rows()));
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] = i % 3 == 0 ? 1.0f : (i % 3 == 1 ? 1048576.0f : -1048576.0f);
  }
  const OperatorLayout layout{image, ct::standard_num_bins(image), views};
  for (const CscvParams params : {CscvParams{.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                                  CscvParams{.s_vvec = 8, .s_imgb = 8, .s_vxg = 4},
                                  CscvParams{.s_vvec = 16, .s_imgb = 8, .s_vxg = 2},
                                  CscvParams{.s_vvec = 4, .s_imgb = 8, .s_vxg = 8}}) {
    for (const auto variant : {CscvMatrix<float>::Variant::kZ, CscvMatrix<float>::Variant::kM}) {
      const auto m = CscvMatrix<float>::build(csc, layout, params, variant);
      ASSERT_EQ(m.folded(), folded);
      const auto order = folded ? folded_transpose : ordered_transpose;
      const std::vector<float> want = order(m, y, false);
      // The data must tell the orders apart, or the memcmp below proves nothing.
      ASSERT_NE(std::memcmp(want.data(), order(m, y, true).data(), want.size() * sizeof(float)),
                0);
      for (const simd::IsaTier tier : testing::usable_tiers()) {
        for (const auto path : {simd::ExpandPath::kHardware, simd::ExpandPath::kSoftware}) {
          const SpmvPlan<float> plan(m, {.path = path, .isa = tier});
          util::AlignedVector<float> got(want.size());
          plan.execute_transpose(y, got);
          EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)), 0)
              << "S_VVec " << params.s_vvec << ", S_VxG " << params.s_vxg
              << (variant == CscvMatrix<float>::Variant::kZ ? " Z" : " M") << " on "
              << simd::isa_tier_name(tier)
              << (path == simd::ExpandPath::kHardware ? " (hw)" : " (soft)");
        }
      }
    }
  }
}

// 22 views: not a multiple of 4, so every view is stored.
TEST(CscvTranspose, SummationOrderIsPinned) { check_transpose_order(22, false); }

TEST(CscvTranspose, SummationOrderIsPinnedFolded) { check_transpose_order(24, true); }

// The documented forward order (SpmvPlan::execute), spelled out over the
// public format arrays: per block, y~ starts at zero and every VxG adds its
// products lane by lane in block order; y~ is then added into y, block by
// block. `by_run` instead sums each run of VxGs sharing a vxg_q from zero
// and adds that sum into y~, the re-association a register-held run must
// not make.
std::vector<float> ordered_forward(const CscvMatrix<float>& m, std::span<const float> x,
                                   bool by_run) {
  const int s = m.params().s_vvec, v = m.params().s_vxg;
  const OperatorLayout layout = m.stored_layout();
  const bool packed = m.variant() == CscvMatrix<float>::Variant::kM;
  std::vector<float> y(static_cast<std::size_t>(layout.num_rows()), 0.0f);
  for (std::size_t b = 0; b < m.blocks().size(); ++b) {
    const auto& info = m.blocks()[b];
    std::vector<float> yt(static_cast<std::size_t>(info.o_count) * s, 0.0f);
    std::vector<float> run(yt.size(), 0.0f);
    std::size_t val = static_cast<std::size_t>(info.val_begin);
    for (auto g = info.vxg_begin; g < info.vxg_end; ++g) {
      const auto q = static_cast<std::size_t>(m.vxg_q()[g]);
      const float xv = x[static_cast<std::size_t>(m.vxg_col()[g])];
      float* dst = by_run ? run.data() : yt.data() + q;
      for (int e = 0; e < v; ++e) {
        const unsigned mask = packed ? m.masks()[g * v + e] : ~0u;
        for (int l = 0; l < s; ++l) {
          if ((mask >> l & 1u) != 0) dst[e * s + l] += xv * m.values()[val++];
        }
      }
      if (by_run && (g + 1 == info.vxg_end || m.vxg_q()[g + 1] != m.vxg_q()[g])) {
        for (int i = 0; i < v * s; ++i) {
          yt[q + static_cast<std::size_t>(i)] += run[static_cast<std::size_t>(i)];
          run[static_cast<std::size_t>(i)] = 0.0f;
        }
      }
    }
    for (int vi = 0; vi < s; ++vi) {
      const int view = info.view_group * s + vi;
      for (int o = 0; o < info.o_count && view < layout.num_views; ++o) {
        const int bin = m.reference_bins()[b * s + vi] + info.o_min + o;
        if (bin >= 0 && bin < layout.num_bins) {
          y[static_cast<std::size_t>(layout.row_of(view, bin))] += yt[o * s + vi];
        }
      }
    }
  }
  return y;
}

/// The folded forward's documented order: the stored quarter's forward of
/// each image of x, every full view then taken from its owner's rows.
std::vector<float> folded_forward(const CscvMatrix<float>& m, std::span<const float> x,
                                  bool by_run) {
  const OperatorLayout q = m.stored_layout();
  const ct::ViewFold views{m.layout().num_views};
  const int n = q.image_size;
  const auto bins = static_cast<std::size_t>(q.num_bins);
  std::vector<float> y(static_cast<std::size_t>(m.rows()));
  for (int f = 0; f < ct::ViewFold::kImages; ++f) {
    std::vector<float> image(static_cast<std::size_t>(m.cols()));
    for (int jy = 0; jy < n; ++jy) {
      for (int jx = 0; jx < n; ++jx) {
        const auto [sx, sy] = ct::ViewFold::source_pixel(f, n, jx, jy);
        image[static_cast<std::size_t>(q.col_of_pixel(jx, jy))] =
            x[static_cast<std::size_t>(q.col_of_pixel(sx, sy))];
      }
    }
    const std::vector<float> rows = ordered_forward(m, image, by_run);
    for (int w = 0; w < views.num_views; ++w) {
      const ct::ViewFold::Owner o = views.owner(w);
      if (o.image != f) continue;
      std::copy_n(rows.begin() + static_cast<std::ptrdiff_t>(static_cast<std::size_t>(o.view) * bins),
                  bins, y.begin() + static_cast<std::ptrdiff_t>(static_cast<std::size_t>(w) * bins));
    }
  }
  return y;
}

// Pins the forward order on every tier and path, with the transpose test's
// data: exact products (one expected vector for FMA and mul+add tiers) whose
// sums cancel, so any other association rounds differently.
void check_forward_order(int views, bool folded) {
  const int image = 32;
  const auto csc = power_of_two_csc(image, views);
  util::AlignedVector<float> x(static_cast<std::size_t>(csc.cols()));
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = i % 3 == 0 ? 1.0f : (i % 3 == 1 ? 1048576.0f : -1048576.0f);
  }
  const OperatorLayout layout{image, ct::standard_num_bins(image), views};
  for (const CscvParams params : {CscvParams{.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                                  CscvParams{.s_vvec = 8, .s_imgb = 8, .s_vxg = 4},
                                  CscvParams{.s_vvec = 16, .s_imgb = 8, .s_vxg = 2},
                                  CscvParams{.s_vvec = 4, .s_imgb = 8, .s_vxg = 8}}) {
    for (const auto variant : {CscvMatrix<float>::Variant::kZ, CscvMatrix<float>::Variant::kM}) {
      const auto m = CscvMatrix<float>::build(csc, layout, params, variant);
      ASSERT_EQ(m.folded(), folded);
      const auto order = folded ? folded_forward : ordered_forward;
      const std::vector<float> want = order(m, x, false);
      // The data must tell the orders apart, or the memcmp below proves nothing.
      ASSERT_NE(std::memcmp(want.data(), order(m, x, true).data(), want.size() * sizeof(float)),
                0);
      for (const simd::IsaTier tier : testing::usable_tiers()) {
        for (const auto path : {simd::ExpandPath::kHardware, simd::ExpandPath::kSoftware}) {
          const SpmvPlan<float> plan(m, {.path = path, .threads = 1, .isa = tier});
          util::AlignedVector<float> got(want.size());
          plan.execute(x, got);
          EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)), 0)
              << "S_VVec " << params.s_vvec << ", S_VxG " << params.s_vxg
              << (variant == CscvMatrix<float>::Variant::kZ ? " Z" : " M") << " on "
              << simd::isa_tier_name(tier)
              << (path == simd::ExpandPath::kHardware ? " (hw)" : " (soft)");
        }
      }
    }
  }
}

TEST(CscvForward, SummationOrderIsPinned) { check_forward_order(22, false); }

TEST(CscvForward, SummationOrderIsPinnedFolded) { check_forward_order(24, true); }

TEST(CscvTranspose, AdjointIdentity) {
  // <A x, y> == <x, A^T y> with both directions computed by CSCV.
  const int image = 32, views = 24;
  const auto& csc = cached_ct_csc<double>(image, views);
  const OperatorLayout layout{image, ct::standard_num_bins(image), views};
  const auto cscv = CscvMatrix<double>::build(csc, layout,
                                              {.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                                              CscvMatrix<double>::Variant::kM);
  auto x = sparse::random_vector<double>(static_cast<std::size_t>(csc.cols()), 1);
  auto y = sparse::random_vector<double>(static_cast<std::size_t>(csc.rows()), 2);
  util::AlignedVector<double> ax(y.size()), aty(x.size());
  const SpmvPlan<double> plan(cscv);
  plan.execute(x, ax);
  plan.execute_transpose(y, aty);
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < ax.size(); ++i) lhs += ax[i] * y[i];
  for (std::size_t j = 0; j < aty.size(); ++j) rhs += aty[j] * x[j];
  EXPECT_NEAR(lhs, rhs, 1e-8 * (std::abs(lhs) + 1.0));
}

}  // namespace
}  // namespace cscv::core
