// Level-one kernel dispatch (docs/DISPATCH.md): tier-registry
// postconditions, CSCV_FORCE_ISA parsing and clamping, numerical
// equivalence of every registered tier against the generic resolution, and
// plan-cache keying on the forced tier (including an env-var flip between
// plan() calls).
//
// The tests must pass on any build shape: a CSCV_MULTIVERSION binary
// carries all three tiers, a CSCV_NATIVE one carries a single
// self-reported tier (possibly leaving the generic slot empty), and the
// CPU underneath may or may not support what is registered — so most
// assertions are postconditions of select_tier's contract rather than
// literal tier values.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/dispatch.hpp"
#include "core/format.hpp"
#include "core/plan.hpp"
#include "sparse/random.hpp"
#include "test_helpers.hpp"
#include "util/assertx.hpp"
#include "util/parallel.hpp"

namespace cscv::core {
namespace {

using testing::cached_ct_csc;
using testing::cached_ct_csr;
using testing::expect_vectors_close;
using testing::spmv_tolerance;

/// Sets (or clears, when value == nullptr) an environment variable for the
/// enclosing scope and restores the previous state on destruction — the
/// CSCV_FORCE_ISA tests must not leak state into each other or the rest of
/// the binary.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::string old_;
  bool had_old_ = false;
};

constexpr simd::IsaTier kConcreteTiers[] = {simd::IsaTier::kGeneric, simd::IsaTier::kAvx2,
                                            simd::IsaTier::kAvx512};

std::vector<simd::IsaTier> registered_tiers() {
  std::vector<simd::IsaTier> tiers;
  for (simd::IsaTier t : kConcreteTiers) {
    if (dispatch::tier_registered(t)) tiers.push_back(t);
  }
  return tiers;
}

template <typename T>
CscvMatrix<T> build_cscv(typename CscvMatrix<T>::Variant variant, int image = 32,
                         int views = 24, int s_vvec = 8) {
  const auto& csc = cached_ct_csc<T>(image, views);
  const OperatorLayout layout{image, ct::standard_num_bins(image), views};
  return CscvMatrix<T>::build(csc, layout, {.s_vvec = s_vvec, .s_imgb = 8, .s_vxg = 2},
                              variant);
}

TEST(Dispatch, AtLeastOneTierRegistered) {
  EXPECT_FALSE(registered_tiers().empty());
  for (simd::IsaTier t : registered_tiers()) {
    const dispatch::TierOps* ops = dispatch::tier_ops(t);
    ASSERT_NE(ops, nullptr);
    EXPECT_NE(ops->resolve_f, nullptr);
    EXPECT_NE(ops->resolve_d, nullptr);
    EXPECT_NE(ops->hw_expand, nullptr);
    EXPECT_EQ(ops->compiled_tier, static_cast<int>(t));  // self-reported slot
  }
  EXPECT_EQ(dispatch::tier_ops(simd::IsaTier::kAuto), nullptr);  // not a slot
}

TEST(Dispatch, AutoSelectsRegisteredSupportedTier) {
  const ScopedEnv clear("CSCV_FORCE_ISA", nullptr);
  const dispatch::TierChoice choice = dispatch::select_tier();
  EXPECT_FALSE(choice.forced);
  EXPECT_FALSE(choice.clamped);
  EXPECT_TRUE(dispatch::tier_registered(choice.tier));
  EXPECT_TRUE(simd::cpu_supports_tier(choice.tier));
  // No registered+supported tier above the pick was passed over.
  for (int i = static_cast<int>(choice.tier) + 1; i < simd::kNumIsaTiers; ++i) {
    const auto t = static_cast<simd::IsaTier>(i);
    EXPECT_FALSE(dispatch::tier_registered(t) && simd::cpu_supports_tier(t))
        << "auto skipped usable tier " << simd::isa_tier_name(t);
  }
}

TEST(Dispatch, ConcreteRequestsClampToWhatTheBinaryCarries) {
  const ScopedEnv clear("CSCV_FORCE_ISA", nullptr);
  for (simd::IsaTier request : kConcreteTiers) {
    const dispatch::TierChoice choice = dispatch::select_tier(request);
    EXPECT_TRUE(choice.forced);
    EXPECT_TRUE(dispatch::tier_registered(choice.tier));
    const bool available =
        dispatch::tier_registered(request) && simd::cpu_supports_tier(request);
    if (available) {
      // An exactly satisfiable request is never clamped elsewhere.
      EXPECT_EQ(choice.tier, request);
      EXPECT_FALSE(choice.clamped);
    } else {
      // Graceful degradation: the request still resolves, flagged clamped
      // (PlanStats::isa_clamped is this flag's telemetry surface).
      EXPECT_NE(choice.tier, request);
      EXPECT_TRUE(choice.clamped);
    }
  }
}

TEST(Dispatch, ParseIsaTierNamesAndRejectsUnknown) {
  EXPECT_EQ(simd::parse_isa_tier("auto"), simd::IsaTier::kAuto);
  EXPECT_EQ(simd::parse_isa_tier("generic"), simd::IsaTier::kGeneric);
  EXPECT_EQ(simd::parse_isa_tier("avx2"), simd::IsaTier::kAvx2);
  EXPECT_EQ(simd::parse_isa_tier("avx512"), simd::IsaTier::kAvx512);
  EXPECT_THROW((void)simd::parse_isa_tier("avx1024"), util::CheckError);
  EXPECT_THROW((void)simd::parse_isa_tier("AVX2"), util::CheckError);  // names are exact
  EXPECT_THROW((void)simd::parse_isa_tier(""), util::CheckError);
}

TEST(Dispatch, ForceIsaEnvParsing) {
  {
    const ScopedEnv unset("CSCV_FORCE_ISA", nullptr);
    EXPECT_EQ(dispatch::forced_tier_from_env(), simd::IsaTier::kAuto);
  }
  {
    const ScopedEnv empty("CSCV_FORCE_ISA", "");
    EXPECT_EQ(dispatch::forced_tier_from_env(), simd::IsaTier::kAuto);
  }
  {
    const ScopedEnv autoval("CSCV_FORCE_ISA", "auto");
    EXPECT_EQ(dispatch::forced_tier_from_env(), simd::IsaTier::kAuto);
  }
  {
    const ScopedEnv generic("CSCV_FORCE_ISA", "generic");
    EXPECT_EQ(dispatch::forced_tier_from_env(), simd::IsaTier::kGeneric);
    const dispatch::TierChoice choice = dispatch::select_tier();
    EXPECT_TRUE(choice.forced);  // env force flows through kAuto selection
  }
  {
    // A misspelled override fails loudly instead of silently running the
    // wrong kernels.
    const ScopedEnv bogus("CSCV_FORCE_ISA", "sse42");
    EXPECT_THROW((void)dispatch::forced_tier_from_env(), util::CheckError);
    EXPECT_THROW((void)dispatch::select_tier(), util::CheckError);
  }
}

TEST(Dispatch, EveryRegisteredTierResolvesKernels) {
  for (simd::IsaTier t : registered_tiers()) {
    for (int s_vvec : {4, 8, 16}) {
      const auto set = dispatch::resolve_kernels<float>(CscvMatrix<float>::Variant::kZ,
                                                        s_vvec, 2, false, 1, t);
      EXPECT_NE(set.forward, nullptr) << simd::isa_tier_name(t) << " S=" << s_vvec;
      EXPECT_NE(set.multi, nullptr);
      EXPECT_NE(set.transpose, nullptr);
      const bool hw = dispatch::resolve_expand_path(simd::ExpandPath::kAuto, true, s_vvec, t);
      const auto md = dispatch::resolve_kernels<double>(CscvMatrix<double>::Variant::kM,
                                                        s_vvec, 2, hw, 3, t);
      EXPECT_NE(md.forward, nullptr);
      EXPECT_NE(md.multi, nullptr);
      EXPECT_NE(md.transpose, nullptr);
    }
  }
}

TEST(Dispatch, MultiversionGenericTierHasNoHardwareExpand) {
  // Only meaningful when the binary carries more than one tier: then the
  // generic slot really is the no-AVX codegen, whose chunked vexpand must
  // be absent no matter what the CPU offers.
  if (registered_tiers().size() < 2 ||
      !dispatch::tier_registered(simd::IsaTier::kGeneric)) {
    GTEST_SKIP() << "single-tier binary: generic slot is not the baseline codegen";
  }
  const dispatch::TierOps* generic = dispatch::tier_ops(simd::IsaTier::kGeneric);
  for (int s_vvec : {4, 8, 16}) {
    EXPECT_FALSE(generic->hw_expand(false, s_vvec));
    EXPECT_FALSE(generic->hw_expand(true, s_vvec));
    EXPECT_FALSE(dispatch::resolve_expand_path(simd::ExpandPath::kAuto, false, s_vvec,
                                               simd::IsaTier::kGeneric));
  }
}

// The tentpole equivalence guarantee: every registered tier the CPU can run
// computes the same forward / multi-RHS / transpose results as the generic
// resolution, for both variants and both expand paths, within the usual
// SpMV tolerance (tiers differ in FMA contraction, so bitwise equality is
// not expected — relative L2 against an independent CSR reference plus the
// cross-tier comparison is).
template <typename T>
void check_tier_equivalence(typename CscvMatrix<T>::Variant variant,
                            simd::ExpandPath path) {
  const ScopedEnv clear("CSCV_FORCE_ISA", nullptr);
  const auto m = build_cscv<T>(variant);
  const auto& csr = cached_ct_csr<T>(32, 24);
  const std::size_t rows = static_cast<std::size_t>(m.rows());
  const std::size_t cols = static_cast<std::size_t>(m.cols());
  const auto x = sparse::random_vector<T>(cols, 21, 0.0, 1.0);
  util::AlignedVector<T> y_ref(rows);
  csr.spmv(x, y_ref);

  util::AlignedVector<T> y_generic(rows);
  {
    const SpmvPlan<T> plan(m, {.path = path, .isa = simd::IsaTier::kGeneric});
    plan.execute(x, y_generic);
    expect_vectors_close<T>(y_generic, y_ref, spmv_tolerance<T>());
  }

  for (simd::IsaTier tier : registered_tiers()) {
    if (!simd::cpu_supports_tier(tier)) continue;
    const SpmvPlan<T> plan(m, {.path = path, .isa = tier});
    EXPECT_EQ(plan.isa_tier(), tier) << simd::isa_tier_name(tier);
    const PlanStats stats = plan.stats();
    EXPECT_EQ(stats.isa_tier, tier);
    EXPECT_TRUE(stats.isa_forced);
    EXPECT_FALSE(stats.isa_clamped);

    util::AlignedVector<T> y(rows);
    plan.execute(x, y);
    expect_vectors_close<T>(y, y_ref, spmv_tolerance<T>());
    expect_vectors_close<T>(y, y_generic, spmv_tolerance<T>());

    // Multi-RHS sweep: the batched kernels (forward SpMM and the fused
    // transpose) must agree with the generic resolution at every batch
    // width class — a compile-time-specialized width (2, 4) and the
    // runtime-K fallback (7, above the specialization set).
    for (const int k : {2, 4, 7}) {
      const auto ks = static_cast<std::size_t>(k);
      const auto xk = sparse::random_vector<T>(cols * ks, 22, 0.0, 1.0);
      util::AlignedVector<T> yk(rows * ks), yk_generic(rows * ks);
      const SpmvPlan<T> mplan(m, {.path = path, .num_rhs = k, .isa = tier});
      mplan.execute(xk, yk);
      const SpmvPlan<T> gplan(m,
                              {.path = path, .num_rhs = k, .isa = simd::IsaTier::kGeneric});
      gplan.execute(xk, yk_generic);
      expect_vectors_close<T>(yk, yk_generic, spmv_tolerance<T>());

      const auto ytk = sparse::random_vector<T>(rows * ks, 23 + k, 0.0, 1.0);
      util::AlignedVector<T> xtk(cols * ks), xtk_generic(cols * ks);
      mplan.execute_transpose(ytk, xtk);
      gplan.execute_transpose(ytk, xtk_generic);
      expect_vectors_close<T>(xtk, xtk_generic, spmv_tolerance<T>());
    }

    const auto yt = sparse::random_vector<T>(rows, 23, 0.0, 1.0);
    util::AlignedVector<T> xt(cols), xt_generic(cols);
    plan.execute_transpose(yt, xt);
    const SpmvPlan<T> gtplan(m, {.path = path, .isa = simd::IsaTier::kGeneric});
    gtplan.execute_transpose(yt, xt_generic);
    expect_vectors_close<T>(xt, xt_generic, spmv_tolerance<T>());
  }
}

TEST(Dispatch, TierEquivalenceZFloat) {
  check_tier_equivalence<float>(CscvMatrix<float>::Variant::kZ, simd::ExpandPath::kAuto);
}

TEST(Dispatch, TierEquivalenceZDouble) {
  check_tier_equivalence<double>(CscvMatrix<double>::Variant::kZ, simd::ExpandPath::kAuto);
}

TEST(Dispatch, TierEquivalenceMFloatAutoExpand) {
  check_tier_equivalence<float>(CscvMatrix<float>::Variant::kM, simd::ExpandPath::kAuto);
}

TEST(Dispatch, TierEquivalenceMFloatSoftExpand) {
  check_tier_equivalence<float>(CscvMatrix<float>::Variant::kM, simd::ExpandPath::kSoftware);
}

TEST(Dispatch, TierEquivalenceMDoubleAutoExpand) {
  check_tier_equivalence<double>(CscvMatrix<double>::Variant::kM, simd::ExpandPath::kAuto);
}

TEST(Dispatch, TierEquivalenceMDoubleSoftExpand) {
  check_tier_equivalence<double>(CscvMatrix<double>::Variant::kM,
                                 simd::ExpandPath::kSoftware);
}

// CSCV_FORCE_ISA is read when a plan is built: a plan built under
// CSCV_FORCE_ISA=generic reports the force and runs the generic tier, and a
// plan built after the variable is restored is back to auto selection.
TEST(Dispatch, PlanCacheTracksForceIsaEnvChanges) {
  const ScopedEnv clear("CSCV_FORCE_ISA", nullptr);
  const auto m = build_cscv<float>(CscvMatrix<float>::Variant::kZ);
  const auto& csr = cached_ct_csr<float>(32, 24);
  const auto x = sparse::random_vector<float>(static_cast<std::size_t>(m.cols()), 24);
  util::AlignedVector<float> y(static_cast<std::size_t>(m.rows()));
  util::AlignedVector<float> y_ref(y.size());
  csr.spmv(x, y_ref);

  {
    const ScopedEnv force("CSCV_FORCE_ISA", "generic");
    const SpmvPlan<float> forced(m);
    EXPECT_TRUE(forced.stats().isa_forced);
    EXPECT_EQ(forced.isa_tier(), simd::IsaTier::kGeneric);
    forced.execute(x, y);
    expect_vectors_close<float>(y, y_ref, spmv_tolerance<float>());
  }

  EXPECT_FALSE(SpmvPlan<float>(m).stats().isa_forced);
}

}  // namespace
}  // namespace cscv::core
