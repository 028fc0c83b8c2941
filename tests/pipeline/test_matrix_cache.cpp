// SystemMatrixCache — single-flight dedup, LRU eviction, spill/restore.
#include <gtest/gtest.h>

#include <barrier>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/plan.hpp"
#include "core/serialize.hpp"
#include "pipeline/job.hpp"
#include "pipeline/matrix_cache.hpp"
#include "sparse/random.hpp"
#include "util/assertx.hpp"

namespace cscv::pipeline {
namespace {

MatrixKey key_for(int image, int views) {
  MatrixKey k;
  k.geometry = ct::standard_geometry(image, views);
  k.cscv = {.s_vvec = 8, .s_imgb = 8, .s_vxg = 2};
  return k;
}

/// Fresh per-test scratch directory for spill files.
std::filesystem::path fresh_spill_dir(const char* name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "cscv_spill" / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Bitwise SpMV comparison between two operator entries (threads=1 plans
/// fix the summation order, so equal matrices give equal bytes).
void expect_same_operator(const SystemMatrixEntry& a, const SystemMatrixEntry& b) {
  ASSERT_NE(a.cscv, nullptr);
  ASSERT_NE(b.cscv, nullptr);
  const auto cols = static_cast<std::size_t>(a.cscv->cols());
  const auto rows = static_cast<std::size_t>(a.cscv->rows());
  const auto x = sparse::random_vector<float>(cols, 11, 0.0, 1.0);
  util::AlignedVector<float> ya(rows);
  util::AlignedVector<float> yb(rows);
  const core::SpmvPlan<float> pa(*a.cscv, {.threads = 1});
  const core::SpmvPlan<float> pb(*b.cscv, {.threads = 1});
  pa.execute(x, ya);
  pb.execute(x, yb);
  EXPECT_EQ(0, std::memcmp(ya.data(), yb.data(), rows * sizeof(float)));
}

TEST(SystemMatrixCache, FingerprintSeparatesEveryKeyField) {
  const MatrixKey base = key_for(16, 12);
  MatrixKey other = base;
  EXPECT_EQ(base.fingerprint(), other.fingerprint());
  other.geometry.num_views = 13;
  EXPECT_NE(base.fingerprint(), other.fingerprint());
  other = base;
  other.cscv.s_vxg = 4;
  EXPECT_NE(base.fingerprint(), other.fingerprint());
  other = base;
  other.variant = core::CscvMatrix<float>::Variant::kZ;
  EXPECT_NE(base.fingerprint(), other.fingerprint());
  other = base;
  other.value_type = core::ValueType::kBf16;
  EXPECT_NE(base.fingerprint(), other.fingerprint());
  other = base;
  other.sparsify_eps = 1e-3;
  EXPECT_NE(base.fingerprint(), other.fingerprint());
  // The algorithm is not a key field: every job on one operator shares it.
  EXPECT_EQ(base.fingerprint().find("sirt"), std::string::npos) << base.fingerprint();
}

// The acceptance-critical stampede: many threads, one cold key, exactly one
// build; everyone shares the same published entry.
TEST(SystemMatrixCache, SingleFlightStampedeBuildsOnce) {
  constexpr int kThreads = 8;
  SystemMatrixCache cache;
  const MatrixKey key = key_for(16, 12);

  std::vector<std::shared_ptr<const SystemMatrixEntry>> entries(kThreads);
  std::barrier sync(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      sync.arrive_and_wait();  // line everyone up on the cold key
      entries[static_cast<std::size_t>(t)] = cache.get_or_build(key).entry;
    });
  }
  for (auto& th : threads) th.join();

  for (const auto& e : entries) {
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e.get(), entries[0].get()) << "stampede produced distinct entries";
  }
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.builds, 1U) << "single-flight must deduplicate the build";
  EXPECT_EQ(s.misses, 1U);
  EXPECT_EQ(s.hits + s.single_flight_waits, static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(s.resident_entries, 1U);
}

TEST(SystemMatrixCache, DistinctKeysBuildSeparatelyAndHitAfterwards) {
  SystemMatrixCache cache;
  const auto a = cache.get_or_build(key_for(16, 12));
  const auto b = cache.get_or_build(key_for(20, 12));
  EXPECT_FALSE(a.hit);
  EXPECT_FALSE(b.hit);
  EXPECT_NE(a.entry.get(), b.entry.get());

  const auto a2 = cache.get_or_build(key_for(16, 12));
  EXPECT_TRUE(a2.hit);
  EXPECT_EQ(a2.entry.get(), a.entry.get());
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.builds, 2U);
  EXPECT_EQ(s.hits, 1U);
}

// One entry per operator: FBP, SIRT, CGLS and OS-SART jobs (any subset
// count) on one geometry share one key and one CSCV entry, whose matrix is
// all that counts against the budget.
TEST(SystemMatrixCache, EveryAlgorithmSharesOneCscvEntry) {
  SystemMatrixCache cache;
  ReconJob job;
  job.geometry = ct::standard_geometry(16, 12);
  job.cscv = {.s_vvec = 8, .s_imgb = 8, .s_vxg = 2};
  std::shared_ptr<const SystemMatrixEntry> first;
  for (const Algorithm a :
       {Algorithm::kFbp, Algorithm::kSirt, Algorithm::kCgls, Algorithm::kOsSart}) {
    for (const int subsets : {4, 3}) {
      job.algorithm = a;
      job.os_sart_subsets = subsets;
      EXPECT_EQ(job.matrix_key(), key_for(16, 12));
      const auto got = cache.get_or_build(job.matrix_key());
      if (!first) first = got.entry;
      EXPECT_EQ(got.entry.get(), first.get()) << algorithm_name(a) << " s" << subsets;
    }
  }
  ASSERT_NE(first->cscv, nullptr);
  EXPECT_EQ(first->bytes(), first->cscv->matrix_bytes());
  EXPECT_EQ(cache.stats().builds, 1U);
  EXPECT_EQ(cache.stats().resident_entries, 1U);
}

// Byte-budget LRU: with A and B resident and A freshly touched, inserting a
// third entry evicts B (the least recently used), not A.
TEST(SystemMatrixCache, LruEvictsLeastRecentlyTouched) {
  const MatrixKey key_a = key_for(16, 12);
  const MatrixKey key_b = key_for(24, 12);
  MatrixKey key_c = key_for(16, 12);  // A narrowed: fewer bytes than A
  key_c.value_type = core::ValueType::kBf16;

  std::size_t bytes_a = 0;
  std::size_t bytes_b = 0;
  {
    SystemMatrixCache probe;
    bytes_a = probe.get_or_build(key_a).entry->bytes();
    bytes_b = probe.get_or_build(key_b).entry->bytes();
  }
  ASSERT_GT(bytes_b, bytes_a) << "test premise: B is the larger entry";

  SystemMatrixCache cache({.budget_bytes = bytes_a + bytes_b, .spill_dir = ""});
  (void)cache.get_or_build(key_a);
  (void)cache.get_or_build(key_b);
  EXPECT_EQ(cache.stats().evictions, 0U) << "A+B fit the budget exactly";
  (void)cache.get_or_build(key_a);  // touch A -> B becomes the LRU entry
  (void)cache.get_or_build(key_c);  // overflow: B must go, A must stay

  const std::vector<std::string> resident = cache.resident_fingerprints();
  ASSERT_EQ(resident.size(), 2U);
  EXPECT_EQ(resident[0], key_c.fingerprint());  // newest is MRU
  EXPECT_EQ(resident[1], key_a.fingerprint());
  EXPECT_EQ(cache.stats().evictions, 1U);

  const auto a_again = cache.get_or_build(key_a);
  EXPECT_TRUE(a_again.hit) << "the recently touched entry must have survived";
}

// An entry larger than the whole budget still serves (a cache of one).
TEST(SystemMatrixCache, OversizedEntryStaysResidentUntilReplaced) {
  SystemMatrixCache cache({.budget_bytes = 1, .spill_dir = ""});
  (void)cache.get_or_build(key_for(16, 12));
  EXPECT_EQ(cache.stats().resident_entries, 1U);
  (void)cache.get_or_build(key_for(20, 12));
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.resident_entries, 1U);
  EXPECT_EQ(s.evictions, 1U);
}

TEST(SystemMatrixCache, SpillRestoreRoundTrip) {
  const auto dir = fresh_spill_dir("round_trip");
  SystemMatrixCache cache({.budget_bytes = 1, .spill_dir = dir.string()});
  const MatrixKey key_a = key_for(16, 12);
  const MatrixKey key_b = key_for(20, 12);

  const auto original = cache.get_or_build(key_a);
  (void)cache.get_or_build(key_b);  // evicts A -> spill file
  ASSERT_TRUE(std::filesystem::exists(cache.spill_path(key_a)));
  EXPECT_EQ(cache.stats().spills, 1U);

  const auto restored = cache.get_or_build(key_a);
  EXPECT_TRUE(restored.restored);
  EXPECT_TRUE(restored.entry->restored_from_spill);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.restores, 1U);
  EXPECT_EQ(s.builds, 2U) << "the restore must replace a build, not add one";
  expect_same_operator(*original.entry, *restored.entry);
}

// load_cscv's mandatory cheap verify rejects a corrupted spill file and the
// cache falls back to a full rebuild instead of serving garbage.
TEST(SystemMatrixCache, CorruptedSpillFileFallsBackToRebuild) {
  const auto dir = fresh_spill_dir("corrupt");
  SystemMatrixCache cache({.budget_bytes = 1, .spill_dir = dir.string()});
  const MatrixKey key_a = key_for(16, 12);
  (void)cache.get_or_build(key_a);
  (void)cache.get_or_build(key_for(20, 12));  // spill A
  const std::string path = cache.spill_path(key_a);
  ASSERT_TRUE(std::filesystem::exists(path));
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << "not a cscv file";
  }
  const auto again = cache.get_or_build(key_a);
  EXPECT_FALSE(again.restored);
  ASSERT_NE(again.entry->cscv, nullptr);
  EXPECT_EQ(cache.stats().builds, 3U) << "corrupt spill must trigger a rebuild";
  EXPECT_EQ(cache.stats().restores, 0U);
}

// A valid CSCV file that doesn't match the key (stale config under the same
// name) is ignored rather than served.
TEST(SystemMatrixCache, MismatchedSpillFileIsIgnored) {
  const auto dir = fresh_spill_dir("stale");
  SystemMatrixCache cache({.budget_bytes = std::size_t{512} << 20,
                           .spill_dir = dir.string()});
  const MatrixKey key_a = key_for(16, 12);

  SystemMatrixCache donor;
  const auto foreign = donor.get_or_build(key_for(20, 12));
  core::save_cscv_file(cache.spill_path(key_a), *foreign.entry->cscv);

  const auto got = cache.get_or_build(key_a);
  EXPECT_FALSE(got.restored);
  EXPECT_EQ(cache.stats().builds, 1U);
  EXPECT_EQ(got.entry->layout.image_size, 16);
}

// A failed build propagates to the caller, clears the slot, and the next
// call retries instead of caching the failure.
TEST(SystemMatrixCache, BuildFailurePropagatesAndRetries) {
  SystemMatrixCache cache;
  MatrixKey bad = key_for(16, 12);
  bad.geometry.image_size = 0;  // validate() throws
  EXPECT_THROW((void)cache.get_or_build(bad), util::CheckError);
  EXPECT_THROW((void)cache.get_or_build(bad), util::CheckError);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 2U) << "the slot must be cleared so retries are possible";
  EXPECT_EQ(s.builds, 0U);
  EXPECT_EQ(s.resident_entries, 0U);
}

TEST(SystemMatrixCache, ClearEvictsEverything) {
  const auto dir = fresh_spill_dir("clear");
  SystemMatrixCache cache({.budget_bytes = std::size_t{512} << 20,
                           .spill_dir = dir.string()});
  const MatrixKey key_a = key_for(16, 12);
  (void)cache.get_or_build(key_a);
  (void)cache.get_or_build(key_for(20, 12));
  cache.clear();
  EXPECT_EQ(cache.stats().resident_entries, 0U);
  EXPECT_EQ(cache.stats().resident_bytes, 0U);
  EXPECT_TRUE(std::filesystem::exists(cache.spill_path(key_a)))
      << "clear spills per policy";
  EXPECT_TRUE(cache.get_or_build(key_a).restored);
}

}  // namespace
}  // namespace cscv::pipeline
