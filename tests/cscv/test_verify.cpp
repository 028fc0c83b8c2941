// Corruption fuzzing for the CSCV structural verifier (core/verify.hpp) and
// the hardened deserializer: flip header fields, patch table entries, and
// truncate the payload of a serialized blob, then assert the load/verify
// stack reports the named invariant instead of reading out of bounds.
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <sstream>

#include "core/plan.hpp"
#include "core/serialize.hpp"
#include "core/verify.hpp"
#include "sparse/random.hpp"
#include "test_helpers.hpp"

namespace cscv::core {
namespace {

using testing::cached_ct_csc;

// ---- blob plumbing -------------------------------------------------------

// Header layout of the .cscv container (docs/FORMAT.md section 7).
constexpr std::size_t kOffMagic = 0;
constexpr std::size_t kOffVersion = 4;
constexpr std::size_t kOffElemSize = 8;
constexpr std::size_t kOffVariant = 12;
constexpr std::size_t kOffSVvec = 16;
constexpr std::size_t kOffNnz = 48;
constexpr std::size_t kOffYtildeMax = 56;
// Version-2 precision header (docs/PRECISION.md).
constexpr std::size_t kOffValueType = 64;
constexpr std::size_t kOffSparsifyEps = 68;
constexpr std::size_t kOffSparsifyBound = 76;
// Version-3 fold header (docs/FORMAT.md section 9).
constexpr std::size_t kOffFolded = 84;
constexpr std::size_t kOffStoredNnz = 88;
constexpr std::size_t kOffArrays = 96;

template <typename T>
CscvMatrix<T> make(typename CscvMatrix<T>::Variant variant, int num_views = 24) {
  const OperatorLayout layout{32, ct::standard_num_bins(32), num_views};
  return CscvMatrix<T>::build(cached_ct_csc<T>(32, num_views), layout,
                              {.s_vvec = 8, .s_imgb = 8, .s_vxg = 2}, variant);
}

template <typename T>
std::string to_bytes(const CscvMatrix<T>& m) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  save_cscv(ss, m);
  return ss.str();
}

template <typename T>
CscvMatrix<T> from_bytes(const std::string& bytes) {
  std::stringstream ss(bytes, std::ios::in | std::ios::binary);
  return load_cscv<T>(ss);
}

template <typename V>
void poke(std::string& bytes, std::size_t off, V v) {
  ASSERT_TRUE(off + sizeof(V) <= bytes.size()) << "poke past end";
  std::memcpy(bytes.data() + off, &v, sizeof(V));
}

template <typename V>
V peek_at(const std::string& bytes, std::size_t off) {
  V v{};
  EXPECT_LE(off + sizeof(V), bytes.size()) << "peek past end";
  std::memcpy(&v, bytes.data() + off, sizeof(V));
  return v;
}

/// Byte offsets of the six serialized arrays (count word and first data
/// byte of each), recovered by walking the container.
struct BlobMap {
  std::size_t blocks_count = 0, blocks_data = 0;
  std::size_t refs_count = 0, refs_data = 0;
  std::size_t vxg_col_count = 0, vxg_col_data = 0;
  std::size_t vxg_q_count = 0, vxg_q_data = 0;
  std::size_t values_count = 0, values_data = 0;
  std::size_t masks_count = 0, masks_data = 0;
};

template <typename T>
BlobMap map_blob(const std::string& bytes) {
  using BlockInfo = typename CscvMatrix<T>::BlockInfo;
  BlobMap map;
  std::size_t off = kOffArrays;
  const auto walk = [&](std::size_t elem, std::size_t& count_off, std::size_t& data_off) {
    count_off = off;
    const auto n = peek_at<std::uint64_t>(bytes, off);
    off += sizeof(std::uint64_t);
    data_off = off;
    off += static_cast<std::size_t>(n) * elem;
  };
  walk(sizeof(BlockInfo), map.blocks_count, map.blocks_data);
  walk(sizeof(sparse::index_t), map.refs_count, map.refs_data);
  walk(sizeof(sparse::index_t), map.vxg_col_count, map.vxg_col_data);
  walk(sizeof(std::int32_t), map.vxg_q_count, map.vxg_q_data);
  walk(sizeof(T), map.values_count, map.values_data);
  walk(sizeof(std::uint16_t), map.masks_count, map.masks_data);
  EXPECT_EQ(off, bytes.size()) << "blob walk out of sync with the container";
  return map;
}

/// First block (by id) with at least one VxG, decoded from the blob.
template <typename T>
typename CscvMatrix<T>::BlockInfo find_block(const std::string& bytes, const BlobMap& map,
                                             int view_group, std::size_t* index = nullptr) {
  using BlockInfo = typename CscvMatrix<T>::BlockInfo;
  const auto n = peek_at<std::uint64_t>(bytes, map.blocks_count);
  for (std::size_t b = 0; b < n; ++b) {
    const auto info =
        peek_at<BlockInfo>(bytes, map.blocks_data + b * sizeof(BlockInfo));
    if (info.vxg_end == info.vxg_begin) continue;
    if (view_group >= 0 && info.view_group != view_group) continue;
    if (index != nullptr) *index = b;
    return info;
  }
  ADD_FAILURE() << "no nonempty block with view group " << view_group;
  return BlockInfo{};
}

/// Asserts that loading `bytes` throws CheckError whose message names
/// `invariant`.
void expect_load_rejects(const std::string& bytes, const std::string& invariant) {
  try {
    auto m = from_bytes<float>(bytes);
    FAIL() << "corrupted blob loaded cleanly (wanted invariant " << invariant << ")";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(invariant), std::string::npos)
        << "CheckError does not name " << invariant << ": " << e.what();
  }
}

// ---- healthy matrices ----------------------------------------------------

TEST(CscvVerify, CleanMatrixPassesBothLevels) {
  for (auto variant : {CscvMatrix<float>::Variant::kZ, CscvMatrix<float>::Variant::kM}) {
    auto m = make<float>(variant);
    for (auto level : {VerifyLevel::kCheap, VerifyLevel::kFull}) {
      const VerifyReport r = verify(m, level);
      EXPECT_TRUE(r.ok()) << r.summary();
      EXPECT_GT(r.blocks_checked, 0u);
      EXPECT_GT(r.vxgs_checked, 0u);
    }
    const VerifyReport full = verify(m, VerifyLevel::kFull);
    EXPECT_GT(full.slots_checked, 0u);
    EXPECT_GT(full.values_nonzero, 0u);
    EXPECT_LE(full.values_nonzero, static_cast<std::uint64_t>(m.nnz()));
  }
}

TEST(CscvVerify, CleanDoubleAndPartialViewGroupPass) {
  // 20 views with S_VVec = 8 leaves a partial last view group (dead lanes).
  auto m = make<double>(CscvMatrix<double>::Variant::kM, 20);
  const VerifyReport r = verify(m, VerifyLevel::kFull);
  EXPECT_TRUE(r.ok()) << r.summary();
}

TEST(CscvVerify, PlanPassesBothSchemes) {
  auto m = make<double>(CscvMatrix<double>::Variant::kZ);
  for (auto scheme : {ThreadScheme::kRowPartition, ThreadScheme::kPrivateY}) {
    const SpmvPlan<double> plan(m, {.scheme = scheme, .threads = 3});
    const VerifyReport r = verify(plan, VerifyLevel::kFull);
    EXPECT_TRUE(r.ok()) << r.summary();
  }
}

TEST(CscvVerify, ReportJsonAndRequireOk) {
  auto m = make<float>(CscvMatrix<float>::Variant::kM);
  VerifyReport r = verify(m, VerifyLevel::kFull);
  EXPECT_NO_THROW(r.require_ok("test"));
  const auto j = r.to_json();
  EXPECT_TRUE(j.at("ok").as_bool());
  EXPECT_EQ(j.at("level").as_string(), "full");
  EXPECT_EQ(j.at("issues").size(), 0u);

  r.add("fake.invariant", "injected for the test");
  EXPECT_FALSE(r.ok());
  EXPECT_THROW(r.require_ok("test"), util::CheckError);
  EXPECT_NE(r.summary().find("fake.invariant"), std::string::npos);
  EXPECT_NE(r.to_json().dump().find("fake.invariant"), std::string::npos);
}

TEST(CscvVerify, IssueStorageIsCapped) {
  VerifyReport r;
  for (int i = 0; i < 1000; ++i) r.add("cap.test", "issue");
  EXPECT_EQ(r.issues.size(), VerifyReport::kMaxIssues);
  EXPECT_EQ(r.total_violations, 1000u);
  EXPECT_FALSE(r.ok());
}

// ---- header corruption ---------------------------------------------------

TEST(CscvVerify, RejectsCorruptHeaderFields) {
  auto bytes = to_bytes(make<float>(CscvMatrix<float>::Variant::kM));

  auto patched = bytes;
  poke<std::uint32_t>(patched, kOffMagic, 0xDEADBEEF);
  expect_load_rejects(patched, "cscv.header.magic");

  patched = bytes;
  poke<std::uint32_t>(patched, kOffVersion, 999);
  expect_load_rejects(patched, "cscv.header.version");

  patched = bytes;
  poke<std::uint32_t>(patched, kOffElemSize, 2);
  expect_load_rejects(patched, "cscv.header.elem_size");

  patched = bytes;
  poke<std::int32_t>(patched, kOffVariant, 7);
  expect_load_rejects(patched, "cscv.header.variant");

  patched = bytes;
  poke<std::int32_t>(patched, kOffSVvec, 5);  // params.validate() domain
  expect_load_rejects(patched, "S_VVec");

  patched = bytes;
  poke<std::int64_t>(patched, kOffNnz, -1);
  expect_load_rejects(patched, "cscv.header.nnz");
}

TEST(CscvVerify, RejectsYtildeMaxSlotsMismatch) {
  auto bytes = to_bytes(make<float>(CscvMatrix<float>::Variant::kM));
  const auto stored = peek_at<std::uint64_t>(bytes, kOffYtildeMax);
  poke<std::uint64_t>(bytes, kOffYtildeMax, stored + 8);
  expect_load_rejects(bytes, "ytilde.max_slots");
}

// ---- array-shape corruption ----------------------------------------------

TEST(CscvVerify, RejectsArrayCountMismatch) {
  auto bytes = to_bytes(make<float>(CscvMatrix<float>::Variant::kM));
  const auto map = map_blob<float>(bytes);
  const auto n = peek_at<std::uint64_t>(bytes, map.blocks_count);
  poke<std::uint64_t>(bytes, map.blocks_count, n + 1);
  expect_load_rejects(bytes, "cscv.array.count");
}

TEST(CscvVerify, RejectsOversizedPayloadBeforeAllocating) {
  // Coordinated corruption: a huge-but-in-range nnz plus a values count that
  // matches it. The payload guard must reject against the actual stream
  // size before the multi-megabyte resize happens. 22 views store every
  // view, so the stored nnz is the nnz.
  auto m = make<float>(CscvMatrix<float>::Variant::kM, 22);
  ASSERT_FALSE(m.folded());
  auto bytes = to_bytes(m);
  const auto map = map_blob<float>(bytes);
  const auto huge_nnz =
      static_cast<std::int64_t>(m.rows()) * static_cast<std::int64_t>(m.cols());
  poke<std::int64_t>(bytes, kOffNnz, huge_nnz);
  poke<std::int64_t>(bytes, kOffStoredNnz, huge_nnz);
  poke<std::uint64_t>(bytes, map.values_count,
                      static_cast<std::uint64_t>(huge_nnz) + 8);
  expect_load_rejects(bytes, "cscv.array.payload");
}

// Folded, the values count follows the stored quarter's nnz.
TEST(CscvVerify, RejectsOversizedPayloadBeforeAllocatingFolded) {
  auto m = make<float>(CscvMatrix<float>::Variant::kM);
  ASSERT_TRUE(m.folded());
  auto bytes = to_bytes(m);
  ASSERT_EQ(peek_at<std::int32_t>(bytes, kOffFolded), 1);
  const auto map = map_blob<float>(bytes);
  const OperatorLayout q = m.stored_layout();
  const auto huge_nnz =
      static_cast<std::int64_t>(q.num_rows()) * static_cast<std::int64_t>(q.num_cols());
  poke<std::int64_t>(bytes, kOffStoredNnz, huge_nnz);
  poke<std::uint64_t>(bytes, map.values_count,
                      static_cast<std::uint64_t>(huge_nnz) + 8);
  expect_load_rejects(bytes, "cscv.array.payload");
}

// The fold fields are checked against the layout: a fold tag on a view
// count that is not a multiple of 4, and an unfolded file whose stored nnz
// is not its nnz.
TEST(CscvVerify, RejectsInconsistentFoldHeader) {
  auto bytes = to_bytes(make<float>(CscvMatrix<float>::Variant::kM, 22));
  auto patched = bytes;
  poke<std::int32_t>(patched, kOffFolded, 1);
  expect_load_rejects(patched, "cscv.header.fold");
  patched = bytes;
  poke<std::int64_t>(patched, kOffStoredNnz, peek_at<std::int64_t>(bytes, kOffNnz) - 1);
  expect_load_rejects(patched, "cscv.header.stored_nnz");
}

TEST(CscvVerify, RejectsTruncationAtEveryRegion) {
  const auto bytes = to_bytes(make<float>(CscvMatrix<float>::Variant::kM));
  const auto map = map_blob<float>(bytes);
  const std::size_t cuts[] = {2,
                              kOffVariant + 1,
                              kOffNnz + 3,
                              kOffArrays - 1,
                              map.blocks_data + 5,
                              map.refs_count + 2,
                              map.vxg_col_data + 1,
                              map.values_data + 9,
                              bytes.size() - 1};
  for (const std::size_t cut : cuts) {
    ASSERT_LT(cut, bytes.size());
    std::stringstream ss(bytes.substr(0, cut), std::ios::in | std::ios::binary);
    EXPECT_THROW(load_cscv<float>(ss), util::CheckError) << "cut at " << cut;
  }
}

// ---- table corruption (caught by the mandatory cheap verify on load) -----

TEST(CscvVerify, RejectsVxgStartSlotOutOfWindow) {
  auto bytes = to_bytes(make<float>(CscvMatrix<float>::Variant::kM));
  const auto map = map_blob<float>(bytes);
  const auto info = find_block<float>(bytes, map, -1);
  // Misaligned start slot (not a multiple of S_VVec).
  auto patched = bytes;
  poke<std::int32_t>(patched,
                     map.vxg_q_data + static_cast<std::size_t>(info.vxg_begin) *
                                          sizeof(std::int32_t),
                     3);
  expect_load_rejects(patched, "vxg.q_bounds");
  // Start slot past the block's y~ window.
  patched = bytes;
  poke<std::int32_t>(patched,
                     map.vxg_q_data + static_cast<std::size_t>(info.vxg_begin) *
                                          sizeof(std::int32_t),
                     info.o_count * 8);
  expect_load_rejects(patched, "vxg.q_bounds");
}

TEST(CscvVerify, RejectsVxgColumnCorruption) {
  auto bytes = to_bytes(make<float>(CscvMatrix<float>::Variant::kM));
  const auto map = map_blob<float>(bytes);
  const auto info = find_block<float>(bytes, map, -1);
  const std::size_t col_off =
      map.vxg_col_data + static_cast<std::size_t>(info.vxg_begin) * sizeof(sparse::index_t);
  // Out of the column space entirely.
  auto patched = bytes;
  poke<sparse::index_t>(patched, col_off, -5);
  expect_load_rejects(patched, "vxg.column_range");
  // A valid column of a *different* image tile (IOBLR groups by tile).
  const int image = 32, s_imgb = 8;
  const int other_tx = info.tile_x == 0 ? 1 : 0;
  const auto foreign_col = static_cast<sparse::index_t>(
      info.tile_y * s_imgb * image + other_tx * s_imgb);
  patched = bytes;
  poke<sparse::index_t>(patched, col_off, foreign_col);
  expect_load_rejects(patched, "vxg.column_in_tile");
}

// ---- content corruption (full level, in-memory) --------------------------

TEST(CscvVerify, FullLevelCatchesMaskCorruption) {
  auto bytes = to_bytes(make<float>(CscvMatrix<float>::Variant::kM));
  const auto map = map_blob<float>(bytes);
  const auto num_masks = peek_at<std::uint64_t>(bytes, map.masks_count);
  // Find a CSCVE mask with a clear lane and set it: popcounts now claim one
  // more packed value than the matrix stores.
  bool patched_one = false;
  for (std::uint64_t i = 0; i < num_masks && !patched_one; ++i) {
    const std::size_t off = map.masks_data + i * sizeof(std::uint16_t);
    const auto mask = peek_at<std::uint16_t>(bytes, off);
    if ((mask & 0xFFu) == 0xFFu) continue;
    const auto flipped = static_cast<std::uint16_t>(
        mask | (1u << std::countr_one(static_cast<unsigned>(mask))));
    poke<std::uint16_t>(bytes, off, flipped);
    patched_one = true;
  }
  ASSERT_TRUE(patched_one);

  // Cheap verify on load does not walk masks, so the blob still loads ...
  auto m = from_bytes<float>(bytes);
  EXPECT_TRUE(verify(m, VerifyLevel::kCheap).ok());
  // ... and the full walk reports the accounting mismatch by name.
  const VerifyReport r = verify(m, VerifyLevel::kFull);
  EXPECT_FALSE(r.ok());
  bool named = false;
  for (const auto& issue : r.issues) {
    named = named || issue.invariant.rfind("mask.", 0) == 0;
  }
  EXPECT_TRUE(named) << r.summary();
}

TEST(CscvVerify, FullLevelCatchesMaskHighBits) {
  auto bytes = to_bytes(make<float>(CscvMatrix<float>::Variant::kM));
  const auto map = map_blob<float>(bytes);
  const auto mask = peek_at<std::uint16_t>(bytes, map.masks_data);
  poke<std::uint16_t>(bytes, map.masks_data,
                      static_cast<std::uint16_t>(mask | (1u << 12)));  // S_VVec = 8
  auto m = from_bytes<float>(bytes);
  const VerifyReport r = verify(m, VerifyLevel::kFull);
  EXPECT_FALSE(r.ok());
  bool named = false;
  for (const auto& issue : r.issues) {
    named = named || issue.invariant == "mask.high_bits";
  }
  EXPECT_TRUE(named) << r.summary();
}

/// Plants a nonzero at `lane` of CSCVE 0 of the first nonempty block of
/// `group` and expects the full verify, not the cheap one, to name it.
void expect_dead_slot_caught(int views, int group, int lane) {
  auto bytes = to_bytes(make<float>(CscvMatrix<float>::Variant::kZ, views));
  const auto map = map_blob<float>(bytes);
  const auto info = find_block<float>(bytes, map, group);
  const std::size_t slot =
      static_cast<std::size_t>(info.vxg_begin) * 2 * 8 + static_cast<std::size_t>(lane);
  poke<float>(bytes, map.values_data + slot * sizeof(float), 1.0f);
  auto m = from_bytes<float>(bytes);
  EXPECT_TRUE(verify(m, VerifyLevel::kCheap).ok());
  const VerifyReport r = verify(m, VerifyLevel::kFull);
  EXPECT_FALSE(r.ok());
  bool named = false;
  for (const auto& issue : r.issues) {
    named = named || issue.invariant == "values.dead_slot";
  }
  EXPECT_TRUE(named) << r.summary();
}

TEST(CscvVerify, FullLevelCatchesNonzeroInDeadSlot) {
  // 19 views / S_VVec 8 (not a multiple of 4, so all stored): the last view
  // group has dead lanes 3..7. Planting a nonzero in one means the value
  // data no longer matches the reordering tables — exactly what the kZ
  // dead-slot scan exists to catch.
  expect_dead_slot_caught(19, 2, 6);
}

TEST(CscvVerify, FullLevelCatchesNonzeroInDeadSlotFolded) {
  // 20 views fold to a stored quarter of views 0..5: one view group whose
  // lanes 6 and 7 are dead.
  expect_dead_slot_caught(20, 0, 7);
}

// ---- loaded matrices still work end to end -------------------------------

TEST(CscvVerify, HardenedLoadRoundTripStillComputes) {
  auto m = make<double>(CscvMatrix<double>::Variant::kM);
  auto back = from_bytes<double>(to_bytes(m));
  auto x = sparse::random_vector<double>(static_cast<std::size_t>(m.cols()), 7);
  util::AlignedVector<double> y1(static_cast<std::size_t>(m.rows()));
  util::AlignedVector<double> y2(static_cast<std::size_t>(m.rows()));
  SpmvPlan<double>(m).execute(x, y1);
  SpmvPlan<double>(back).execute(x, y2);
  for (std::size_t i = 0; i < y1.size(); ++i) EXPECT_EQ(y1[i], y2[i]);
}

}  // namespace
}  // namespace cscv::core
