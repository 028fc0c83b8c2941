#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>

#include "core/plan.hpp"
#include "core/serialize.hpp"
#include "sparse/random.hpp"
#include "test_helpers.hpp"

namespace cscv::core {
namespace {

using testing::cached_ct_csc;
using testing::expect_vectors_close;

template <typename T>
CscvMatrix<T> make(typename CscvMatrix<T>::Variant variant) {
  const OperatorLayout layout{32, ct::standard_num_bins(32), 24};
  return CscvMatrix<T>::build(cached_ct_csc<T>(32, 24), layout,
                              {.s_vvec = 8, .s_imgb = 8, .s_vxg = 2}, variant);
}

TEST(CscvSerialize, RoundTripPreservesEverything) {
  auto m = make<float>(CscvMatrix<float>::Variant::kM);
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  save_cscv(ss, m);
  auto back = load_cscv<float>(ss);

  EXPECT_EQ(back.variant(), m.variant());
  EXPECT_EQ(back.params().s_vvec, m.params().s_vvec);
  EXPECT_EQ(back.params().s_imgb, m.params().s_imgb);
  EXPECT_EQ(back.params().s_vxg, m.params().s_vxg);
  EXPECT_EQ(back.nnz(), m.nnz());
  EXPECT_EQ(back.num_vxgs(), m.num_vxgs());
  EXPECT_EQ(back.num_blocks(), m.num_blocks());
  EXPECT_EQ(back.matrix_bytes(), m.matrix_bytes());
  EXPECT_EQ(back.ytilde_max_slots(), m.ytilde_max_slots());
}

TEST(CscvSerialize, LoadedMatrixComputesIdentically) {
  for (auto variant : {CscvMatrix<double>::Variant::kZ, CscvMatrix<double>::Variant::kM}) {
    auto m = make<double>(variant);
    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    save_cscv(ss, m);
    auto back = load_cscv<double>(ss);

    auto x = sparse::random_vector<double>(static_cast<std::size_t>(m.cols()), 5);
    util::AlignedVector<double> y1(static_cast<std::size_t>(m.rows()));
    util::AlignedVector<double> y2(static_cast<std::size_t>(m.rows()));
    SpmvPlan<double>(m).execute(x, y1);
    SpmvPlan<double>(back).execute(x, y2);
    for (std::size_t i = 0; i < y1.size(); ++i) EXPECT_EQ(y1[i], y2[i]);  // bitwise
  }
}

TEST(CscvSerialize, RejectsWrongMagic) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  const std::uint32_t junk = 0xDEADBEEF;
  ss.write(reinterpret_cast<const char*>(&junk), sizeof(junk));
  EXPECT_THROW(load_cscv<float>(ss), util::CheckError);
}

TEST(CscvSerialize, RejectsPrecisionMismatch) {
  auto m = make<float>(CscvMatrix<float>::Variant::kZ);
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  save_cscv(ss, m);
  EXPECT_THROW(load_cscv<double>(ss), util::CheckError);
}

TEST(CscvSerialize, RejectsTruncation) {
  auto m = make<float>(CscvMatrix<float>::Variant::kZ);
  std::stringstream full(std::ios::in | std::ios::out | std::ios::binary);
  save_cscv(full, m);
  const std::string bytes = full.str();
  std::stringstream cut(bytes.substr(0, bytes.size() / 2),
                        std::ios::in | std::ios::binary);
  EXPECT_THROW(load_cscv<float>(cut), util::CheckError);
}

TEST(CscvSerialize, FileRoundTrip) {
  auto m = make<float>(CscvMatrix<float>::Variant::kM);
  const std::string path = ::testing::TempDir() + "cscv_roundtrip.bin";
  save_cscv_file(path, m);
  auto back = load_cscv_file<float>(path);
  EXPECT_EQ(back.nnz(), m.nnz());
  std::remove(path.c_str());
}

template <typename T>
std::string bytes_of(const CscvMatrix<T>& m) {
  std::ostringstream out(std::ios::out | std::ios::binary);
  save_cscv(out, m);
  return out.str();
}

template <typename T>
CscvMatrix<T> from_bytes(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::in | std::ios::binary);
  return load_cscv<T>(in);
}

// Equal matrices serialize to equal bytes: save -> load -> save gives the
// same file. The loader ignores whatever bytes sit in BlockInfo::reserved
// (unnamed struct padding in earlier builds), so such a file re-saves to
// the canonical bytes.
template <typename T>
void check_save_load_save(typename CscvMatrix<T>::Variant variant) {
  using BlockInfo = typename CscvMatrix<T>::BlockInfo;
  const auto m = make<T>(variant);
  const std::string first = bytes_of(m);
  EXPECT_EQ(bytes_of(from_bytes<T>(first)), first);

  // The v3 header is 96 bytes, then the block table's u64 count.
  constexpr std::size_t kBlockCount = 96;
  constexpr std::size_t kBlockData = kBlockCount + sizeof(std::uint64_t);
  std::uint64_t stored_blocks = 0;
  std::memcpy(&stored_blocks, first.data() + kBlockCount, sizeof(stored_blocks));
  ASSERT_EQ(stored_blocks, static_cast<std::uint64_t>(m.num_blocks()));
  std::string dirty = first;
  for (std::size_t b = 0; b < stored_blocks; ++b) {
    const std::int32_t junk = static_cast<std::int32_t>(0x5A000001 + b);
    std::memcpy(dirty.data() + kBlockData + b * sizeof(BlockInfo) + offsetof(BlockInfo, reserved),
                &junk, sizeof(junk));
  }
  ASSERT_NE(dirty, first);
  const auto loaded = from_bytes<T>(dirty);
  for (const BlockInfo& info : loaded.blocks()) ASSERT_EQ(info.reserved, 0);
  EXPECT_EQ(bytes_of(loaded), first);
}

TEST(CscvSerialize, SaveLoadSaveIsByteIdentical) {
  check_save_load_save<float>(CscvMatrix<float>::Variant::kZ);
  check_save_load_save<float>(CscvMatrix<float>::Variant::kM);
  check_save_load_save<double>(CscvMatrix<double>::Variant::kM);
}

}  // namespace
}  // namespace cscv::core
