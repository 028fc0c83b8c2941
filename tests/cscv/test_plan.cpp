// SpmvPlan — the reusable execution context (plan/executor split).
//
// The one-shot entry points route through the same plan machinery, so the
// property tests here pin down bitwise identity between an explicitly built
// plan and spmv / spmv_multi / spmv_transpose, across variants, precisions,
// and thread schemes. The thread-count tests cover the invalidation rule
// (cached plans rebuild when set_num_threads changes) and the slot-striping
// guarantee (a stale plan built at N threads stays correct at any count).
#include <gtest/gtest.h>

#include <array>
#include <barrier>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <thread>
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
CscvMatrix<T> build_cscv(typename CscvMatrix<T>::Variant variant, int image = 32,
                         int views = 24, int s_vvec = 8) {
  const auto& csc = cached_ct_csc<T>(image, views);
  const OperatorLayout layout{image, ct::standard_num_bins(image), views};
  return CscvMatrix<T>::build(csc, layout, {.s_vvec = s_vvec, .s_imgb = 8, .s_vxg = 2},
                              variant);
}

template <typename T>
void expect_bitwise_equal(std::span<const T> got, std::span<const T> want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(), got.size() * sizeof(T)))
      << "plan-based and one-shot results are not bitwise identical";
}

// An explicitly built plan and the one-shot entry points must produce
// bitwise-identical outputs: the one-shots are thin wrappers over the same
// partitioning, dispatch, and reduction order.
template <typename T>
void check_plan_vs_oneshot(typename CscvMatrix<T>::Variant variant, ThreadScheme scheme,
                           int views) {
  const auto m = build_cscv<T>(variant, 32, views);
  const std::size_t rows = static_cast<std::size_t>(m.rows());
  const std::size_t cols = static_cast<std::size_t>(m.cols());
  const auto x = sparse::random_vector<T>(cols, 3, 0.0, 1.0);
  const auto y_in = sparse::random_vector<T>(rows, 4, 0.0, 1.0);

  // Forward.
  util::AlignedVector<T> y_shot(rows), y_plan(rows);
  m.spmv(x, y_shot, scheme);
  const SpmvPlan<T> plan(m, {.scheme = scheme});
  plan.execute(x, y_plan);
  expect_bitwise_equal<T>(y_plan, y_shot);

  // Multi-RHS (interleaved).
  const int k = 3;
  const auto xk = sparse::random_vector<T>(cols * k, 5, 0.0, 1.0);
  util::AlignedVector<T> yk_shot(rows * k), yk_plan(rows * k);
  m.spmv_multi(xk, yk_shot, k, scheme);
  const SpmvPlan<T> mplan(m, {.scheme = scheme, .num_rhs = k});
  mplan.execute(xk, yk_plan);
  expect_bitwise_equal<T>(yk_plan, yk_shot);

  // Transpose (scheme-independent: tiles partition x disjointly).
  util::AlignedVector<T> x_shot(cols), x_plan(cols);
  m.spmv_transpose(y_in, x_shot);
  plan.execute_transpose(y_in, x_plan);
  expect_bitwise_equal<T>(x_plan, x_shot);
}

template <typename T>
void check_plan_vs_oneshot(typename CscvMatrix<T>::Variant variant, ThreadScheme scheme) {
  // 24 views fold, 22 do not.
  for (const int views : {24, 22}) check_plan_vs_oneshot<T>(variant, scheme, views);
}

TEST(SpmvPlan, BitwiseMatchesOneShotZFloat) {
  check_plan_vs_oneshot<float>(CscvMatrix<float>::Variant::kZ, ThreadScheme::kRowPartition);
  check_plan_vs_oneshot<float>(CscvMatrix<float>::Variant::kZ, ThreadScheme::kPrivateY);
}

TEST(SpmvPlan, BitwiseMatchesOneShotZDouble) {
  check_plan_vs_oneshot<double>(CscvMatrix<double>::Variant::kZ,
                                ThreadScheme::kRowPartition);
  check_plan_vs_oneshot<double>(CscvMatrix<double>::Variant::kZ, ThreadScheme::kPrivateY);
}

TEST(SpmvPlan, BitwiseMatchesOneShotMFloat) {
  check_plan_vs_oneshot<float>(CscvMatrix<float>::Variant::kM, ThreadScheme::kRowPartition);
  check_plan_vs_oneshot<float>(CscvMatrix<float>::Variant::kM, ThreadScheme::kPrivateY);
}

TEST(SpmvPlan, BitwiseMatchesOneShotMDouble) {
  check_plan_vs_oneshot<double>(CscvMatrix<double>::Variant::kM,
                                ThreadScheme::kRowPartition);
  check_plan_vs_oneshot<double>(CscvMatrix<double>::Variant::kM, ThreadScheme::kPrivateY);
}

// The cached plan is rebuilt when util::set_num_threads() changes between
// construction and apply — in both directions — and the result stays right.
TEST(SpmvPlan, CachedPlanTracksThreadCountChanges) {
  const int saved = util::max_threads();
  const auto m = build_cscv<float>(CscvMatrix<float>::Variant::kM);
  const auto& csr = cached_ct_csr<float>(32, 24);
  const auto x = sparse::random_vector<float>(static_cast<std::size_t>(m.cols()), 6);
  util::AlignedVector<float> y(static_cast<std::size_t>(m.rows()));
  util::AlignedVector<float> y_ref(y.size());
  csr.spmv(x, y_ref);

  util::set_num_threads(4);
  EXPECT_EQ(m.plan().threads(), 4);
  m.spmv(x, y);
  expect_vectors_close<float>(y, y_ref, spmv_tolerance<float>());

  util::set_num_threads(2);  // shrink: cached plan must be replaced
  EXPECT_EQ(m.plan().threads(), 2);
  m.spmv(x, y);
  expect_vectors_close<float>(y, y_ref, spmv_tolerance<float>());

  util::set_num_threads(8);  // grow: likewise
  EXPECT_EQ(m.plan().threads(), 8);
  m.spmv(x, y);
  expect_vectors_close<float>(y, y_ref, spmv_tolerance<float>());

  util::set_num_threads(saved);
}

// A plan the caller holds on to is not invalidated — slots are striped over
// the threads that actually run, so executing a stale plan at a smaller or
// larger thread count must still give the exact build-time result.
TEST(SpmvPlan, StalePlanStaysCorrectAcrossThreadCounts) {
  const int saved = util::max_threads();
  const auto m = build_cscv<float>(CscvMatrix<float>::Variant::kZ);
  const auto x = sparse::random_vector<float>(static_cast<std::size_t>(m.cols()), 7);
  for (ThreadScheme scheme : {ThreadScheme::kRowPartition, ThreadScheme::kPrivateY}) {
    util::set_num_threads(4);
    const SpmvPlan<float> plan(m, {.scheme = scheme});
    util::AlignedVector<float> y_at4(static_cast<std::size_t>(m.rows()));
    plan.execute(x, y_at4);
    for (int t : {1, 2, 8}) {
      util::set_num_threads(t);
      util::AlignedVector<float> y(y_at4.size());
      plan.execute(x, y);
      expect_bitwise_equal<float>(y, y_at4);
    }
    util::set_num_threads(saved);
  }
}

// More threads than view groups: trailing partition slots are empty (the
// kAuto rule would pick private-y here, but both schemes must cope).
void check_more_threads_than_groups(int views, int groups) {
  const int saved = util::max_threads();
  // s_vvec = 16: 8 threads > the stored view groups.
  const auto m = build_cscv<float>(CscvMatrix<float>::Variant::kM, 32, views, 16);
  ASSERT_EQ(m.grid().view_groups, groups);
  const auto& csr = cached_ct_csr<float>(32, views);
  const auto x = sparse::random_vector<float>(static_cast<std::size_t>(m.cols()), 8);
  util::AlignedVector<float> y_ref(static_cast<std::size_t>(m.rows()));
  csr.spmv(x, y_ref);

  util::set_num_threads(8);
  for (ThreadScheme scheme : {ThreadScheme::kRowPartition, ThreadScheme::kPrivateY}) {
    const SpmvPlan<float> plan(m, {.scheme = scheme});
    EXPECT_EQ(plan.threads(), 8);
    // Work conservation: the slot loads sum to the whole matrix.
    const auto work = plan.work_per_slot();
    const std::uint64_t total = std::accumulate(work.begin(), work.end(), std::uint64_t{0});
    std::uint64_t expected = 0;
    for (const auto& b : m.blocks()) {
      expected += static_cast<std::uint64_t>(b.vxg_end - b.vxg_begin);
    }
    EXPECT_EQ(total, expected);

    util::AlignedVector<float> y(y_ref.size());
    plan.execute(x, y);
    expect_vectors_close<float>(y, y_ref, spmv_tolerance<float>());

    util::AlignedVector<float> xt(static_cast<std::size_t>(m.cols()));
    plan.execute_transpose(y_ref, xt);  // tile partition also has empty slots
    util::AlignedVector<float> xt_ref(xt.size());
    csr.spmv_transpose_serial(y_ref, xt_ref);
    expect_vectors_close<float>(xt, xt_ref, spmv_tolerance<float>());
  }
  util::set_num_threads(saved);
}

// 22 views of 16 -> 2 view groups, all stored.
TEST(SpmvPlan, MoreThreadsThanViewGroups) { check_more_threads_than_groups(22, 2); }

// 24 views fold to a stored quarter of 7 views -> 1 view group.
TEST(SpmvPlan, MoreThreadsThanViewGroupsFolded) { check_more_threads_than_groups(24, 1); }

// The nnz-weighted partition balances VxG work, not block counts: on a CT
// matrix (sparse corner tiles, dense center) every private-y slot must land
// within 10% of the ideal equal share.
TEST(SpmvPlan, WeightedPartitionBalancesVxgWork) {
  const int saved = util::max_threads();
  util::set_num_threads(4);
  const auto m = build_cscv<float>(CscvMatrix<float>::Variant::kZ, 64, 48);
  const SpmvPlan<float> plan(m, {.scheme = ThreadScheme::kPrivateY});
  const auto work = plan.work_per_slot();
  ASSERT_EQ(work.size(), 4u);
  const std::uint64_t total = std::accumulate(work.begin(), work.end(), std::uint64_t{0});
  const double ideal = static_cast<double>(total) / static_cast<double>(work.size());
  for (std::uint64_t w : work) {
    EXPECT_LE(static_cast<double>(w), 1.10 * ideal)
        << "slot exceeds ideal share by more than 10%";
    EXPECT_GE(static_cast<double>(w), 0.90 * ideal)
        << "slot falls short of ideal share by more than 10%";
  }
  util::set_num_threads(saved);
}

// Cache identity: repeated plan() calls with equal options return the same
// object; the multi-RHS slot is independent of the single-RHS slot; a copy
// of the matrix does not serve plans built for the original.
TEST(SpmvPlan, CacheReuseAndInvalidation) {
  const int saved = util::max_threads();
  util::set_num_threads(4);  // >1 so a forced scheme is not downgraded
  const auto m = build_cscv<float>(CscvMatrix<float>::Variant::kZ);
  const SpmvPlan<float>* first = &m.plan();
  EXPECT_EQ(first, &m.plan());             // exact reuse
  EXPECT_EQ(first->matrix(), &m);
  EXPECT_EQ(first->num_rhs(), 1);

  const SpmvPlan<float>* multi = &m.plan({.num_rhs = 2});
  EXPECT_NE(first, multi);
  EXPECT_EQ(multi->num_rhs(), 2);
  EXPECT_EQ(first, &m.plan());             // single-RHS slot survived
  EXPECT_EQ(multi, &m.plan({.num_rhs = 2}));

  // Different options on the same slot rebuild it.
  const SpmvPlan<float>* forced = &m.plan({.scheme = ThreadScheme::kPrivateY});
  EXPECT_EQ(forced->scheme(), ThreadScheme::kPrivateY);
  EXPECT_EQ(forced, &m.plan({.scheme = ThreadScheme::kPrivateY}));

  // A copied matrix has its own identity: its cache must not serve plans
  // remembering the original's address.
  const CscvMatrix<float> copy = m;
  const SpmvPlan<float>& copy_plan = copy.plan();
  EXPECT_EQ(copy_plan.matrix(), &copy);
  util::set_num_threads(saved);
}

// Assignment must also leave the *target* with a cold cache. A cached plan
// keys on the matrix address (which assignment does not change), so a stale
// plan would still "match" after `a = b` while indexing a's replaced — for
// move-assign, destroyed — arrays (regression test: wrong SpMV results and
// a use-after-free that the sanitizer jobs catch).
TEST(SpmvPlan, AssignmentInvalidatesTargetCachedPlans) {
  CscvMatrix<float> a = build_cscv<float>(CscvMatrix<float>::Variant::kM, 32, 24);
  CscvMatrix<float> b = build_cscv<float>(CscvMatrix<float>::Variant::kM, 48, 16);

  // Reference result through b's own spmv (same entry point, same global
  // thread settings as the post-assignment calls, so bitwise comparable).
  const auto x = sparse::random_vector<float>(static_cast<std::size_t>(b.cols()), 11);
  util::AlignedVector<float> y_ref(static_cast<std::size_t>(b.rows()));
  b.spmv(x, y_ref);

  // Warm a's cached plan, then copy-assign over it.
  {
    const auto xa = sparse::random_vector<float>(static_cast<std::size_t>(a.cols()), 12);
    util::AlignedVector<float> ya(static_cast<std::size_t>(a.rows()));
    a.spmv(xa, ya);
  }
  a = b;
  util::AlignedVector<float> y_copy(static_cast<std::size_t>(a.rows()));
  a.spmv(x, y_copy);
  expect_bitwise_equal<float>(y_copy, y_ref);

  // a.spmv above re-warmed a's cache; move-assign must clear it again (and
  // gut the moved-from b's cache, whose arrays now live inside a).
  a = std::move(b);
  util::AlignedVector<float> y_move(static_cast<std::size_t>(a.rows()));
  a.spmv(x, y_move);
  expect_bitwise_equal<float>(y_move, y_ref);
}

// Many threads hitting the cached plan() of a cold matrix at once: the
// accessor is locked and single-flight, so everyone must receive the same
// instance (no torn shared_ptr, no duplicate builds racing into the slot).
// Execution stays per-thread: each thread runs its own private plan and
// must reproduce the serial result bitwise. Exercised under TSan in CI.
TEST(SpmvPlan, ConcurrentColdPlanAccessIsSingleFlight) {
  constexpr int kThreads = 8;
  const auto m = build_cscv<float>(CscvMatrix<float>::Variant::kM);
  const std::size_t rows = static_cast<std::size_t>(m.rows());
  const auto x = sparse::random_vector<float>(static_cast<std::size_t>(m.cols()), 10);
  util::AlignedVector<float> y_ref(rows);
  {
    const SpmvPlan<float> serial(m, {.threads = 1});
    serial.execute(x, y_ref);
  }

  std::array<const SpmvPlan<float>*, kThreads> seen{};
  std::vector<util::AlignedVector<float>> results(kThreads);
  std::barrier sync(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      sync.arrive_and_wait();  // everyone asks the cold cache together
      seen[static_cast<std::size_t>(t)] = &m.plan({.threads = 1});
      // Acquisition is shared; execution is not — run a private plan.
      const SpmvPlan<float> mine(m, {.threads = 1});
      util::AlignedVector<float> y(rows);
      mine.execute(x, y);
      results[static_cast<std::size_t>(t)] = std::move(y);
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], seen[0])
        << "cold stampede produced more than one cached plan";
    expect_bitwise_equal<float>(results[static_cast<std::size_t>(t)], y_ref);
  }
}

// Scratch is sized and warm after construction; executing does not grow it.
TEST(SpmvPlan, ScratchStableAcrossExecutes) {
  const auto m = build_cscv<float>(CscvMatrix<float>::Variant::kM);
  const SpmvPlan<float> plan(m, {.scheme = ThreadScheme::kPrivateY});
  const std::size_t bytes = plan.scratch_bytes();
  EXPECT_GT(bytes, 0u);
  const auto x = sparse::random_vector<float>(static_cast<std::size_t>(m.cols()), 9);
  util::AlignedVector<float> y(static_cast<std::size_t>(m.rows()));
  for (int i = 0; i < 3; ++i) plan.execute(x, y);
  EXPECT_EQ(plan.scratch_bytes(), bytes);
}

// A x for x all +0 or all -0 is exactly +0 on every engine — the fact the
// solvers' zero-start skip rests on (recon/solvers.cpp). The outputs start
// as NaN so a path that leaves an entry unwritten fails too.
TEST(ZeroInput, ForwardIsExactlyPositiveZeroOnEveryEngine) {
  const int image = 32, views = 24;
  const auto& csc = cached_ct_csc<float>(image, views);
  const auto& csr = cached_ct_csr<float>(image, views);
  const auto rows = static_cast<std::size_t>(csc.rows());
  const auto cols = static_cast<std::size_t>(csc.cols());
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const auto expect_positive_zero = [](const util::AlignedVector<float>& y,
                                       const std::string& what) {
    const util::AlignedVector<float> zeros(y.size(), 0.0F);
    EXPECT_EQ(0, std::memcmp(y.data(), zeros.data(), y.size() * sizeof(float))) << what;
  };

  for (const float zero : {0.0F, -0.0F}) {
    const std::string sign = std::signbit(zero) ? "-0" : "+0";
    for (const int k : {1, 3}) {
      const util::AlignedVector<float> x(cols * static_cast<std::size_t>(k), zero);
      util::AlignedVector<float> y(rows * static_cast<std::size_t>(k), nan);
      csr.spmv_multi(x, y, k);
      expect_positive_zero(y, "CSR x=" + sign + " k=" + std::to_string(k));
    }
    const util::AlignedVector<float> x(cols, zero);
    util::AlignedVector<float> y(rows, nan);
    util::AlignedVector<float> scratch;
    csc.spmv(x, y, scratch);
    expect_positive_zero(y, "CSC x=" + sign);

    for (const simd::IsaTier tier : testing::usable_tiers()) {
      for (const auto variant : {CscvMatrix<float>::Variant::kZ, CscvMatrix<float>::Variant::kM}) {
        for (const ValueType vt : {ValueType::kF32, ValueType::kBf16}) {
          auto m = build_cscv<float>(variant, image, views);
          m.convert_values(vt);
          for (const ThreadScheme scheme :
               {ThreadScheme::kRowPartition, ThreadScheme::kPrivateY}) {
            for (const int k : {1, 3}) {
              const SpmvPlan<float> plan(
                  m, {.scheme = scheme, .num_rhs = k, .threads = 2, .isa = tier});
              const util::AlignedVector<float> xk(cols * static_cast<std::size_t>(k), zero);
              util::AlignedVector<float> yk(rows * static_cast<std::size_t>(k), nan);
              plan.execute(xk, yk);
              expect_positive_zero(
                  yk, std::string("CSCV x=") + sign + " tier=" + simd::isa_tier_name(tier) +
                          (variant == CscvMatrix<float>::Variant::kZ ? " Z" : " M") + " " +
                          value_type_name(vt) +
                          (scheme == ThreadScheme::kPrivateY ? " private-y" : " row") +
                          " k=" + std::to_string(k));
            }
          }
        }
      }
    }
  }
}

// The plan's memoized A 1 / A^T 1 are bitwise a fresh execute /
// execute_transpose of ones (column 0 of a replicated batch when K > 1),
// computed once.
TEST(SpmvPlan, MemoizedSumsAreBitwiseFreshAppliesOfOnes) {
  for (const ValueType vt : {ValueType::kF32, ValueType::kBf16}) {
    auto m = build_cscv<float>(CscvMatrix<float>::Variant::kM);
    m.convert_values(vt);
    const auto rows = static_cast<std::size_t>(m.rows());
    const auto cols = static_cast<std::size_t>(m.cols());
    for (const ThreadScheme scheme : {ThreadScheme::kRowPartition, ThreadScheme::kPrivateY}) {
      for (const int k : {1, 3}) {
        const SpmvPlan<float> plan(m, {.scheme = scheme, .num_rhs = k, .threads = 2});
        ASSERT_EQ(plan.scheme(), scheme);
        const auto kk = static_cast<std::size_t>(k);
        const std::span<const float> row_sums = plan.row_sums();
        const std::span<const float> col_sums = plan.col_sums();
        EXPECT_EQ(plan.row_sums().data(), row_sums.data()) << "row sums recomputed";
        EXPECT_EQ(plan.col_sums().data(), col_sums.data()) << "col sums recomputed";

        const util::AlignedVector<float> ones_x(cols * kk, 1.0F);
        const util::AlignedVector<float> ones_y(rows * kk, 1.0F);
        util::AlignedVector<float> fwd(rows * kk);
        util::AlignedVector<float> adj(cols * kk);
        plan.execute(ones_x, fwd);
        plan.execute_transpose(ones_y, adj);
        util::AlignedVector<float> want_rows(rows);
        util::AlignedVector<float> want_cols(cols);
        for (std::size_t i = 0; i < rows; ++i) want_rows[i] = fwd[i * kk];
        for (std::size_t j = 0; j < cols; ++j) want_cols[j] = adj[j * kk];
        SCOPED_TRACE(std::string(value_type_name(vt)) + " k=" + std::to_string(k) +
                     (scheme == ThreadScheme::kPrivateY ? " private-y" : " row"));
        expect_bitwise_equal<float>(row_sums, want_rows);
        expect_bitwise_equal<float>(col_sums, want_cols);
      }
    }
  }
}

}  // namespace
}  // namespace cscv::core
