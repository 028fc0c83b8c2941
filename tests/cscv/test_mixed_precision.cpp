// Mixed-precision CSCV storage (docs/PRECISION.md): reduced bf16/fp16 value
// storage with fp32 accumulation, the sparsify certificate, the v2 <-> v1
// serialization compatibility, and the solver-level error contract.
//
// The load-bearing guarantee tested here: widening 16-bit storage to
// binary32 is EXACT, and the reduced kernels run the *identical* fp32
// accumulation chain as the full-precision kernels — so a reduced matrix
// computes bitwise the same result as an fp32 matrix holding the quantized
// values, on every registered tier, for every variant, expand path,
// direction, and RHS width.
#include <gtest/gtest.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/dispatch.hpp"
#include "core/format.hpp"
#include "core/plan.hpp"
#include "core/serialize.hpp"
#include "core/verify.hpp"
#include "recon/operators.hpp"
#include "recon/solvers.hpp"
#include "sparse/random.hpp"
#include "test_helpers.hpp"
#include "util/assertx.hpp"

namespace cscv::core {
namespace {

using testing::cached_ct_csc;
using testing::cached_ct_csr;
using testing::expect_vectors_close;
using testing::spmv_tolerance;
using testing::usable_tiers;

using FVariant = CscvMatrix<float>::Variant;

CscvMatrix<float> build_f32(FVariant variant, int image = 32, int views = 24) {
  const OperatorLayout layout{image, ct::standard_num_bins(image), views};
  return CscvMatrix<float>::build(cached_ct_csc<float>(image, views), layout,
                                  {.s_vvec = 8, .s_imgb = 8, .s_vxg = 2}, variant);
}

/// Per-dtype tolerance of a reduced SpMV against the fp32 CSR reference:
/// storage rounding only (half-ulp of an 8-/11-bit mantissa), with slack
/// for accumulation across a row.
double reduced_tolerance(ValueType vt) {
  return vt == ValueType::kBf16 ? 5e-3 : 7e-4;
}

// ---------------------------------------------------------------------------
// Reduced SpMV correctness and exactness of the widen.
// ---------------------------------------------------------------------------

class ReducedDtype : public ::testing::TestWithParam<std::tuple<ValueType, FVariant>> {};

TEST_P(ReducedDtype, SpmvMatchesCsrWithinStorageRounding) {
  const auto [vt, variant] = GetParam();
  auto m = build_f32(variant);
  m.convert_values(vt);
  EXPECT_EQ(m.value_type(), vt);
  EXPECT_EQ(m.value_bytes(), 2u);

  const auto& csr = cached_ct_csr<float>(32, 24);
  const auto x = sparse::random_vector<float>(static_cast<std::size_t>(m.cols()), 7, 0.0, 1.0);
  util::AlignedVector<float> y_ref(static_cast<std::size_t>(m.rows()));
  util::AlignedVector<float> y(static_cast<std::size_t>(m.rows()));
  csr.spmv_serial(x, y_ref);
  SpmvPlan<float>(m).execute(x, y);
  expect_vectors_close<float>(y, y_ref, reduced_tolerance(vt));
}

// A reduced matrix and an fp32 matrix holding the exact widened values must
// produce BITWISE identical results on every usable tier, both directions,
// every RHS width class — the "identical accumulation chain" contract.
TEST_P(ReducedDtype, BitwiseMatchesQuantizedF32OnEveryTier) {
  const auto [vt, variant] = GetParam();
  auto m16 = build_f32(variant);
  m16.convert_values(vt);
  auto m32 = build_f32(variant);
  m32.convert_values(vt);
  m32.convert_values(ValueType::kF32);  // exact widen back: quantized fp32
  ASSERT_EQ(m32.value_type(), ValueType::kF32);

  const auto rows = static_cast<std::size_t>(m16.rows());
  const auto cols = static_cast<std::size_t>(m16.cols());
  for (simd::IsaTier tier : usable_tiers()) {
    for (simd::ExpandPath path : {simd::ExpandPath::kAuto, simd::ExpandPath::kSoftware}) {
      const SpmvPlan<float> p16(m16, {.path = path, .isa = tier});
      const SpmvPlan<float> p32(m32, {.path = path, .isa = tier});
      EXPECT_EQ(p16.stats().value_type, vt);
      EXPECT_EQ(p16.stats().bytes_per_value, 2u);

      const auto x = sparse::random_vector<float>(cols, 11, 0.0, 1.0);
      util::AlignedVector<float> y16(rows), y32(rows);
      p16.execute(x, y16);
      p32.execute(x, y32);
      EXPECT_EQ(std::memcmp(y16.data(), y32.data(), rows * sizeof(float)), 0)
          << "forward diverges on " << simd::isa_tier_name(tier);

      const auto yt = sparse::random_vector<float>(rows, 13, 0.0, 1.0);
      util::AlignedVector<float> x16(cols), x32(cols);
      p16.execute_transpose(yt, x16);
      p32.execute_transpose(yt, x32);
      EXPECT_EQ(std::memcmp(x16.data(), x32.data(), cols * sizeof(float)), 0)
          << "transpose diverges on " << simd::isa_tier_name(tier);

      // Compile-time-specialized width (4) and the runtime-K fallback (7).
      for (const int k : {4, 7}) {
        const auto ks = static_cast<std::size_t>(k);
        const SpmvPlan<float> pk16(m16, {.path = path, .num_rhs = k, .isa = tier});
        const SpmvPlan<float> pk32(m32, {.path = path, .num_rhs = k, .isa = tier});
        const auto xk = sparse::random_vector<float>(cols * ks, 17, 0.0, 1.0);
        util::AlignedVector<float> yk16(rows * ks), yk32(rows * ks);
        pk16.execute(xk, yk16);
        pk32.execute(xk, yk32);
        EXPECT_EQ(std::memcmp(yk16.data(), yk32.data(), rows * ks * sizeof(float)), 0)
            << "multi-RHS k=" << k << " diverges on " << simd::isa_tier_name(tier);
        const auto ytk = sparse::random_vector<float>(rows * ks, 19, 0.0, 1.0);
        util::AlignedVector<float> xk16(cols * ks), xk32(cols * ks);
        pk16.execute_transpose(ytk, xk16);
        pk32.execute_transpose(ytk, xk32);
        EXPECT_EQ(std::memcmp(xk16.data(), xk32.data(), cols * ks * sizeof(float)), 0)
            << "multi-RHS transpose k=" << k << " diverges on "
            << simd::isa_tier_name(tier);
      }
    }
  }
}

// That contract swept over the kernel shapes: every S_VVec x S_VxG x
// {Z, M-hw, M-soft} x K (single RHS, compile-time 2/8/16 and the runtime-K
// fallback at 3), each usable tier. S_VxG = 1 and S_VVec 16 leave the
// 512-bit hardware loads a single CSCVE; the other shapes group 2 or 4.
// `check(p16, p32, k, where)` runs one direction on the reduced plan and its
// quantized fp32 twin.
template <typename Check>
void sweep_reduced_shapes(ValueType vt, int s_vvec, int s_vxg, Check&& check) {
  const int image = 32, views = 24;
  const OperatorLayout layout{image, ct::standard_num_bins(image), views};
  struct Path {
    FVariant variant;
    simd::ExpandPath expand;
    const char* name;
  };
  for (const Path path : {Path{FVariant::kZ, simd::ExpandPath::kAuto, "Z"},
                          Path{FVariant::kM, simd::ExpandPath::kHardware, "M-hw"},
                          Path{FVariant::kM, simd::ExpandPath::kSoftware, "M-soft"}}) {
    const CscvParams params{.s_vvec = s_vvec, .s_imgb = 8, .s_vxg = s_vxg};
    auto m16 = CscvMatrix<float>::build(cached_ct_csc<float>(image, views), layout, params,
                                        path.variant);
    m16.convert_values(vt);
    auto m32 = CscvMatrix<float>::build(cached_ct_csc<float>(image, views), layout, params,
                                        path.variant);
    m32.convert_values(vt);
    m32.convert_values(ValueType::kF32);
    for (const simd::IsaTier tier : usable_tiers()) {
      for (const int k : {1, 2, 3, 8, 16}) {
        const SpmvPlan<float> p16(m16, {.path = path.expand, .num_rhs = k, .isa = tier});
        const SpmvPlan<float> p32(m32, {.path = path.expand, .num_rhs = k, .isa = tier});
        std::ostringstream where;
        where << path.name << " K=" << k << " on " << simd::isa_tier_name(tier);
        check(p16, p32, static_cast<std::size_t>(k), where.str());
      }
    }
  }
}

class ReducedTransposeSweep
    : public ::testing::TestWithParam<std::tuple<ValueType, int, int>> {};

TEST_P(ReducedTransposeSweep, BitwiseMatchesQuantizedF32) {
  const auto [vt, s_vvec, s_vxg] = GetParam();
  sweep_reduced_shapes(vt, s_vvec, s_vxg,
                       [](const SpmvPlan<float>& p16, const SpmvPlan<float>& p32,
                          std::size_t k, const std::string& where) {
                         const auto rows = static_cast<std::size_t>(p16.matrix()->rows());
                         const auto cols = static_cast<std::size_t>(p16.matrix()->cols());
                         const auto y = sparse::random_vector<float>(rows * k, 47, -1.0, 1.0);
                         util::AlignedVector<float> x16(cols * k), x32(cols * k);
                         p16.execute_transpose(y, x16);
                         p32.execute_transpose(y, x32);
                         EXPECT_EQ(std::memcmp(x16.data(), x32.data(), x16.size() * sizeof(float)),
                                   0)
                             << where << " transpose diverges";
                       });
}

class ReducedForwardSweep
    : public ::testing::TestWithParam<std::tuple<ValueType, int, int>> {};

TEST_P(ReducedForwardSweep, BitwiseMatchesQuantizedF32) {
  const auto [vt, s_vvec, s_vxg] = GetParam();
  sweep_reduced_shapes(vt, s_vvec, s_vxg,
                       [](const SpmvPlan<float>& p16, const SpmvPlan<float>& p32,
                          std::size_t k, const std::string& where) {
                         const auto rows = static_cast<std::size_t>(p16.matrix()->rows());
                         const auto cols = static_cast<std::size_t>(p16.matrix()->cols());
                         const auto x = sparse::random_vector<float>(cols * k, 53, -1.0, 1.0);
                         util::AlignedVector<float> y16(rows * k), y32(rows * k);
                         p16.execute(x, y16);
                         p32.execute(x, y32);
                         EXPECT_EQ(std::memcmp(y16.data(), y32.data(), y16.size() * sizeof(float)),
                                   0)
                             << where << " forward diverges";
                       });
}

const auto kReducedShapes =
    ::testing::Combine(::testing::Values(ValueType::kBf16, ValueType::kF16),
                       ::testing::Values(4, 8, 16), ::testing::Values(1, 2, 4, 8, 16));

std::string reduced_shape_name(
    const ::testing::TestParamInfo<std::tuple<ValueType, int, int>>& info) {
  return std::string(value_type_name(std::get<0>(info.param))) + "_S" +
         std::to_string(std::get<1>(info.param)) + "_V" + std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(DtypeByShape, ReducedTransposeSweep, kReducedShapes,
                         reduced_shape_name);
INSTANTIATE_TEST_SUITE_P(DtypeByShape, ReducedForwardSweep, kReducedShapes,
                         reduced_shape_name);

// Every usable tier agrees with the generic resolution on the same reduced
// matrix (relative L2 — tiers differ in FMA contraction of the widen-free
// parts exactly as they do for fp32).
TEST_P(ReducedDtype, TiersAgreeWithGenericResolution) {
  const auto [vt, variant] = GetParam();
  auto m = build_f32(variant);
  m.convert_values(vt);
  const auto rows = static_cast<std::size_t>(m.rows());
  const auto x =
      sparse::random_vector<float>(static_cast<std::size_t>(m.cols()), 23, 0.0, 1.0);

  util::AlignedVector<float> y_generic(rows);
  const SpmvPlan<float> gplan(m, {.isa = simd::IsaTier::kGeneric});
  gplan.execute(x, y_generic);
  for (simd::IsaTier tier : usable_tiers()) {
    const SpmvPlan<float> plan(m, {.isa = tier});
    util::AlignedVector<float> y(rows);
    plan.execute(x, y);
    expect_vectors_close<float>(y, y_generic, spmv_tolerance<float>());
  }
}

INSTANTIATE_TEST_SUITE_P(
    DtypeByVariant, ReducedDtype,
    ::testing::Combine(::testing::Values(ValueType::kBf16, ValueType::kF16),
                       ::testing::Values(FVariant::kZ, FVariant::kM)),
    [](const ::testing::TestParamInfo<std::tuple<ValueType, FVariant>>& info) {
      std::string name = value_type_name(std::get<0>(info.param));
      name += std::get<1>(info.param) == FVariant::kZ ? "_Z" : "_M";
      return name;
    });

// ---------------------------------------------------------------------------
// Plans take the matrix's dtype.
// ---------------------------------------------------------------------------

TEST(MixedPrecisionPlan, Fp16PlanNeverLandsOnAnF16clessSimdTier) {
  // The f16c clamp contract: an fp16 matrix either runs the generic tier or
  // a SIMD tier on a CPU that can decode fp16 (postcondition form — this
  // machine may or may not have f16c).
  auto m = build_f32(FVariant::kZ);
  m.convert_values(ValueType::kF16);
  const SpmvPlan<float> plan(m);
  EXPECT_TRUE(plan.isa_tier() == simd::IsaTier::kGeneric || simd::cpu_isa().f16c);
  if (!simd::cpu_isa().f16c) {
    EXPECT_TRUE(plan.stats().isa_clamped);
  }
}

// A plan decodes the dtype the matrix stores when the plan is built, so
// the one built after convert_values streams the new encoding.
TEST(MixedPrecisionPlan, ConvertInvalidatesCachedPlan) {
  auto m = build_f32(FVariant::kM);
  EXPECT_EQ(SpmvPlan<float>(m).stats().value_type, ValueType::kF32);
  m.convert_values(ValueType::kBf16);
  const SpmvPlan<float> plan(m);
  EXPECT_EQ(plan.stats().value_type, ValueType::kBf16);
  EXPECT_EQ(plan.stats().bytes_per_value, 2u);
}

#if defined(__GLIBC__)
/// Bytes the process holds from malloc: chunks in use plus mapped blocks.
std::size_t malloc_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}
#endif

// convert_values frees the array it replaces, so a 16-bit matrix holds no
// fp32 values and widening back holds no 16-bit ones: the bytes glibc
// counts as in use change by the new array's bytes less the old array's.
TEST(MixedPrecisionStorage, ConvertReleasesTheReplacedArray) {
#if defined(__GLIBC__)
  constexpr std::size_t kSlack = 2 * 4096;  // chunk headers, page rounding
  auto m = build_f32(FVariant::kM, 64, 48);
  const std::size_t f32_bytes = m.values().size() * sizeof(float);
  const std::size_t u16_bytes = m.values().size() * sizeof(std::uint16_t);
  ASSERT_GT(u16_bytes, 16 * kSlack);
  {
    const std::size_t before = malloc_in_use();
    const util::AlignedVector<float> probe(f32_bytes / sizeof(float));
    if (malloc_in_use() < before + f32_bytes) {
      GTEST_SKIP() << "the allocator does not report through mallinfo2";
    }
  }

  const std::size_t at_f32 = malloc_in_use();
  m.convert_values(ValueType::kBf16);
  const std::size_t at_bf16 = malloc_in_use();
  EXPECT_LE(at_bf16 + f32_bytes, at_f32 + u16_bytes + kSlack);

  m.convert_values(ValueType::kF32);
  const std::size_t back_at_f32 = malloc_in_use();
  EXPECT_LE(back_at_f32 + u16_bytes, at_bf16 + f32_bytes + kSlack);
#else
  GTEST_SKIP() << "needs glibc's mallinfo2";
#endif
}

// ---------------------------------------------------------------------------
// Sparsify: the certified footprint pass.
// ---------------------------------------------------------------------------

TEST(Sparsify, CertificateBoundsTheForwardError) {
  for (auto variant : {FVariant::kZ, FVariant::kM}) {
    auto m = build_f32(variant);
    auto full = build_f32(variant);
    const double eps = 1e-3;
    const auto rep = m.sparsify(eps);
    EXPECT_EQ(rep.eps, eps);
    EXPECT_GT(rep.dropped, 0u) << "eps too small to exercise the pass";
    EXPECT_EQ(m.nnz(), full.nnz() - static_cast<sparse::offset_t>(rep.dropped))
        << "dropped entries leave the logical nonzero count for both variants";
    EXPECT_EQ(m.sparsify_eps(), eps);
    EXPECT_GE(m.sparsify_error_bound(), 0.0);

    // |(A~ x)_i - (A x)_i| <= bound * max|x_j| for every row i.
    const auto cols = static_cast<std::size_t>(m.cols());
    const auto rows = static_cast<std::size_t>(m.rows());
    const auto x = sparse::random_vector<float>(cols, 29, 0.0, 1.0);
    util::AlignedVector<float> y_sparse(rows), y_full(rows);
    SpmvPlan<float>(m).execute(x, y_sparse);
    SpmvPlan<float>(full).execute(x, y_full);
    double max_abs_x = 0.0, max_dev = 0.0;
    for (float v : x) max_abs_x = std::max(max_abs_x, std::abs(static_cast<double>(v)));
    for (std::size_t i = 0; i < rows; ++i) {
      max_dev = std::max(max_dev, std::abs(static_cast<double>(y_sparse[i]) -
                                           static_cast<double>(y_full[i])));
    }
    // Slack covers fp32 evaluation rounding on top of the exact-arithmetic
    // certificate.
    EXPECT_LE(max_dev, m.sparsify_error_bound() * max_abs_x * (1.0 + 1e-4) + 1e-6);

    // The epsilon-aware verify level accepts the certified matrix.
    EXPECT_TRUE(verify(m, VerifyLevel::kEpsilon).ok());
  }
}

TEST(Sparsify, RequiresF32StorageAndComposesWithConvert) {
  auto m = build_f32(FVariant::kM);
  m.convert_values(ValueType::kBf16);
  EXPECT_THROW(m.sparsify(1e-3), util::CheckError);  // sparsify before convert

  auto ordered = build_f32(FVariant::kM);
  const auto rep = ordered.sparsify(1e-3);
  const double sparsify_only_bound = ordered.sparsify_error_bound();
  const double rounding_mass = ordered.convert_values(ValueType::kBf16);
  EXPECT_GT(rep.kept, 0u);
  EXPECT_GE(rounding_mass, 0.0);
  // Conversion folds its rounding mass into the same certificate.
  EXPECT_NEAR(ordered.sparsify_error_bound(), sparsify_only_bound + rounding_mass, 1e-12);
  EXPECT_TRUE(verify(ordered, VerifyLevel::kEpsilon).ok());
}

TEST(Sparsify, EpsilonVerifyToleratesStorageRoundingOfSurvivors) {
  // Adversarial eps: pick a stored value whose bf16 rounding lands strictly
  // below it, then sparsify with eps equal to that value. The survivor is
  // certified (|v| >= eps) yet its *converted* storage is < eps; the
  // epsilon verify must charge that gap to dtype rounding, not report a
  // broken certificate.
  auto probe = build_f32(FVariant::kM);
  double eps = 0.0;
  for (sparse::offset_t i = 0; i < probe.nnz(); ++i) {
    const float v = probe.stored_value(i);
    if (!(v > 0.0f)) continue;
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    const std::uint32_t rounded = (bits + 0x7FFFu + ((bits >> 16) & 1u)) & 0xFFFF0000u;
    float widened;
    std::memcpy(&widened, &rounded, sizeof(widened));
    if (widened < v) {
      eps = static_cast<double>(v);
      break;
    }
  }
  ASSERT_GT(eps, 0.0) << "no stored value rounds downward under bf16?";

  auto m = build_f32(FVariant::kM);
  m.sparsify(eps);
  m.convert_values(ValueType::kBf16);
  const auto report = verify(m, VerifyLevel::kEpsilon);
  EXPECT_TRUE(report.ok()) << (report.issues.empty() ? std::string()
                                                     : report.issues.front().detail);
}

// ---------------------------------------------------------------------------
// Serialization: v2 round-trip and v1 backward compatibility.
// ---------------------------------------------------------------------------

TEST(MixedPrecisionSerialize, V2RoundTripPreservesPrecisionHeader) {
  for (ValueType vt : {ValueType::kBf16, ValueType::kF16}) {
    auto m = build_f32(FVariant::kM);
    m.sparsify(1e-3);
    m.convert_values(vt);
    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    save_cscv(ss, m);
    auto back = load_cscv<float>(ss);
    EXPECT_EQ(back.value_type(), vt);
    EXPECT_EQ(back.sparsify_eps(), m.sparsify_eps());
    EXPECT_EQ(back.sparsify_error_bound(), m.sparsify_error_bound());

    const auto x =
        sparse::random_vector<float>(static_cast<std::size_t>(m.cols()), 31, 0.0, 1.0);
    util::AlignedVector<float> y1(static_cast<std::size_t>(m.rows()));
    util::AlignedVector<float> y2(static_cast<std::size_t>(m.rows()));
    SpmvPlan<float>(m).execute(x, y1);
    SpmvPlan<float>(back).execute(x, y2);
    EXPECT_EQ(std::memcmp(y1.data(), y2.data(), y1.size() * sizeof(float)), 0);
  }
}

// Files written before the fold hold operators whose views in (45, 180)
// degrees were computed from their own angles, not the operator a foldable
// geometry builds now, so they are refused (and the caches rebuild). A
// version-2 file is a version-3 file without the 12-byte fold header
// (i32 flag + i64 stored nnz) after the precision header, and a version-1
// file also lacks the 20-byte precision header (value_type i32 + sparsify
// eps/bound doubles) after ytilde_max_slots — docs/FORMAT.md. Splicing those
// bytes out of a fresh save and patching the version field reconstructs
// exactly what those writers produced.
TEST(MixedPrecisionSerialize, RefusesFilesFromBeforeTheFold) {
  const auto m = build_f32(FVariant::kM, 32, 22);
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  save_cscv(ss, m);
  const std::string v3 = ss.str();

  constexpr std::size_t kOffVersion = 4;     // after the magic
  constexpr std::size_t kOffPrecision = 64;  // header through ytilde_max_slots
  constexpr std::size_t kPrecisionBytes = 4 + 8 + 8;
  constexpr std::size_t kFoldBytes = 4 + 8;
  ASSERT_GT(v3.size(), kOffPrecision + kPrecisionBytes + kFoldBytes);
  const std::string v2 = v3.substr(0, kOffPrecision + kPrecisionBytes) +
                         v3.substr(kOffPrecision + kPrecisionBytes + kFoldBytes);
  const std::string v1 =
      v3.substr(0, kOffPrecision) + v3.substr(kOffPrecision + kPrecisionBytes + kFoldBytes);
  for (const auto& [version, blob] : {std::pair<std::uint32_t, std::string>{1, v1}, {2, v2}}) {
    std::string old = blob;
    std::memcpy(old.data() + kOffVersion, &version, sizeof(version));
    std::stringstream in(old, std::ios::in | std::ios::binary);
    try {
      (void)load_cscv<float>(in);
      ADD_FAILURE() << "version " << version << " file loaded";
    } catch (const util::CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("cscv.header.version"), std::string::npos)
          << e.what();
    }
  }
  std::stringstream in(v3, std::ios::in | std::ios::binary);
  EXPECT_EQ(load_cscv<float>(in).nnz(), m.nnz());
}

TEST(MixedPrecisionSerialize, RejectsReducedDtypeInDoubleFile) {
  auto m = build_f32(FVariant::kM);
  m.convert_values(ValueType::kBf16);
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  save_cscv(ss, m);
  std::string blob = ss.str();
  // Lie about the element size: claim sizeof(double) so the double loader
  // accepts the header — the dtype check must still reject it.
  const std::uint32_t eight = 8;
  std::memcpy(blob.data() + 8, &eight, sizeof(eight));
  std::stringstream in(blob, std::ios::in | std::ios::binary);
  EXPECT_THROW(load_cscv<double>(in), util::CheckError);
}

// ---------------------------------------------------------------------------
// Solver-level contract: batched solvers over a reduced operator keep the
// per-column bitwise fusion guarantee, and the final volume stays within
// storage-rounding distance of the fp32-operator solve.
// ---------------------------------------------------------------------------

TEST(MixedPrecisionSolvers, BatchedSirtKeepsBitwiseColumnsAndBoundedError) {
  const int image = 16, views = 12;
  const auto& csc = cached_ct_csc<float>(image, views);
  const OperatorLayout layout{image, ct::standard_num_bins(image), views};
  auto cscv16 = CscvMatrix<float>::build(csc, layout, {.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                                         FVariant::kM);
  auto cscv32 = CscvMatrix<float>::build(csc, layout, {.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                                         FVariant::kM);
  cscv16.convert_values(ValueType::kBf16);
  constexpr std::size_t kBatch = 3;
  const SpmvPlan<float> fused16(cscv16, {.num_rhs = kBatch});
  const recon::PlanOperator<float> batch16(fused16);
  const SpmvPlan<float> plan16(cscv16);
  const SpmvPlan<float> plan32(cscv32);
  const recon::PlanOperator<float> op16(plan16);
  const recon::PlanOperator<float> op32(plan32);

  const auto rows = static_cast<std::size_t>(csc.rows());
  const auto cols = static_cast<std::size_t>(csc.cols());
  std::vector<util::AlignedVector<float>> bs;
  for (std::size_t c = 0; c < kBatch; ++c) {
    bs.push_back(sparse::random_vector<float>(rows, 50 + static_cast<unsigned>(c), 0.0, 1.0));
  }
  util::AlignedVector<float> b(rows * kBatch);
  for (std::size_t c = 0; c < kBatch; ++c) {
    for (std::size_t i = 0; i < rows; ++i) b[i * kBatch + c] = bs[c][i];
  }

  const std::vector<recon::SolveOptions> opts(kBatch, recon::SolveOptions{.iterations = 8});
  util::AlignedVector<float> x(cols * kBatch, 0.0f);
  const auto stats = recon::sirt_batch<float>(batch16, b, x, kBatch, opts);
  ASSERT_EQ(stats.size(), kBatch);

  for (std::size_t c = 0; c < kBatch; ++c) {
    // Column c of the fused reduced solve == the serial reduced solve.
    util::AlignedVector<float> x_serial(cols, 0.0f);
    recon::sirt<float>(op16, bs[c], x_serial, opts[c]);
    util::AlignedVector<float> x_col(cols);
    for (std::size_t i = 0; i < cols; ++i) x_col[i] = x[i * kBatch + c];
    EXPECT_EQ(std::memcmp(x_col.data(), x_serial.data(), cols * sizeof(float)), 0)
        << "batched bf16 column " << c << " diverges from the serial solve";

    // And the reduced volume stays close to the fp32-operator volume:
    // bf16 storage rounding (<= 2^-9 relative per value) through 8 SIRT
    // iterations stays well under 2% relative L2 on this problem.
    util::AlignedVector<float> x_f32(cols, 0.0f);
    recon::sirt<float>(op32, bs[c], x_f32, opts[c]);
    expect_vectors_close<float>(x_col, x_f32, 2e-2);
  }
}

}  // namespace
}  // namespace cscv::core
