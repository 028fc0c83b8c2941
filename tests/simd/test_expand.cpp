// Expansion primitives: every path (soft, hardware, chunked, and the
// register expand + FMA of the CSCV-M kernels) must agree with the obvious
// scalar definition for every mask.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "simd/expand.hpp"
#include "simd/isa.hpp"

namespace cscv::simd {
namespace {

/// Scalar definition of expansion used as ground truth.
template <typename T>
std::vector<T> expand_reference(const std::vector<T>& packed, std::uint32_t mask, int width) {
  std::vector<T> out(static_cast<std::size_t>(width), T(0));
  std::size_t k = 0;
  for (int l = 0; l < width; ++l) {
    if (mask & (1u << l)) out[static_cast<std::size_t>(l)] = packed[k++];
  }
  return out;
}

template <typename T, int W>
void check_all_masks_soft() {
  std::vector<T> packed(W + 1);
  std::iota(packed.begin(), packed.end(), T(1));
  const std::uint32_t limit = W >= 16 ? 0xFFFFu : (1u << W) - 1u;
  for (std::uint32_t mask = 0; mask <= limit; mask += (W >= 16 ? 257 : 1)) {
    auto want = expand_reference(packed, mask, W);
    T out[W];
    const int used = expand_soft<T, W>(packed.data(), mask, out);
    EXPECT_EQ(used, std::popcount(mask & limit));
    for (int l = 0; l < W; ++l) EXPECT_EQ(out[l], want[static_cast<std::size_t>(l)]);
  }
}

TEST(ExpandSoft, Float4AllMasks) { check_all_masks_soft<float, 4>(); }
TEST(ExpandSoft, Float8AllMasks) { check_all_masks_soft<float, 8>(); }
TEST(ExpandSoft, Float16SampledMasks) { check_all_masks_soft<float, 16>(); }
TEST(ExpandSoft, Double4AllMasks) { check_all_masks_soft<double, 4>(); }
TEST(ExpandSoft, Double8AllMasks) { check_all_masks_soft<double, 8>(); }

template <typename T, int W>
void check_hardware_agrees() {
  if constexpr (has_chunked_hardware_expand<T, W>()) {
    if (!(cpu_isa().avx512f)) GTEST_SKIP() << "no AVX-512 at runtime";
    std::vector<T> packed(W + 1);
    std::iota(packed.begin(), packed.end(), T(1));
    const std::uint32_t limit = (W >= 32) ? 0xFFFFFFFFu : (1u << W) - 1u;
    for (std::uint32_t mask = 0; mask <= limit && mask <= 0xFFFFu;
         mask += (W >= 16 ? 97 : 1)) {
      T soft[W], hw[W];
      const int used_soft = expand_any<T, W, false>(packed.data(), mask, soft);
      const int used_hw = expand_any<T, W, true>(packed.data(), mask, hw);
      EXPECT_EQ(used_soft, used_hw) << "mask " << mask;
      for (int l = 0; l < W; ++l) EXPECT_EQ(soft[l], hw[l]) << "mask " << mask << " lane " << l;
    }
  } else {
    GTEST_SKIP() << "hardware expand not compiled for this width";
  }
}

TEST(ExpandHardware, Float16) { check_hardware_agrees<float, 16>(); }
TEST(ExpandHardware, Float8) { check_hardware_agrees<float, 8>(); }
TEST(ExpandHardware, Float4) { check_hardware_agrees<float, 4>(); }
TEST(ExpandHardware, Double8) { check_hardware_agrees<double, 8>(); }
TEST(ExpandHardware, Double4) { check_hardware_agrees<double, 4>(); }
TEST(ExpandHardware, Double16Chunked) { check_hardware_agrees<double, 16>(); }

/// acc += xv * expand(packed, mask) in registers, as the hardware CSCV-M
/// forward kernels run it (simd::expand_lanes, then simd::fma_lanes).
template <typename T, int W>
void check_expand_fma() {
  if constexpr (!has_chunked_hardware_expand<T, W>()) {
    GTEST_SKIP() << "no hardware path compiled in";
  } else {
    if (!cpu_isa().avx512f) GTEST_SKIP() << "no AVX-512 at runtime";
    std::vector<T> packed(W + 1);
    std::iota(packed.begin(), packed.end(), T(1));
    const std::uint32_t limit = W >= 16 ? 0xFFFFu : (1u << W) - 1u;
    const T xv = T(3);
    for (std::uint32_t mask = 0; mask <= limit; mask += (W >= 16 ? 193 : 1)) {
      std::vector<T> y(static_cast<std::size_t>(W));
      std::iota(y.begin(), y.end(), T(10));
      std::vector<T> want = y;
      const auto expanded = expand_reference(packed, mask, W);
      for (std::size_t l = 0; l < y.size(); ++l) want[l] += xv * expanded[l];
      lanes_t<T, W> v, acc;
      std::memcpy(&acc, y.data(), sizeof acc);
      expand_lanes<T>(packed.data(), mask, v);
      fma_lanes(xv, v, acc);
      std::memcpy(y.data(), &acc, sizeof acc);
      for (std::size_t l = 0; l < y.size(); ++l) {
        EXPECT_EQ(y[l], want[l]) << "mask " << mask << " lane " << l;
      }
    }
  }
}

TEST(ExpandFma, HwFloat16) { check_expand_fma<float, 16>(); }
TEST(ExpandFma, HwFloat8) { check_expand_fma<float, 8>(); }
TEST(ExpandFma, HwFloat4) { check_expand_fma<float, 4>(); }
TEST(ExpandFma, HwDouble8) { check_expand_fma<double, 8>(); }
TEST(ExpandFma, HwDouble4) { check_expand_fma<double, 4>(); }
TEST(ExpandFma, HwDouble16Chunked) { check_expand_fma<double, 16>(); }

TEST(Expand, EmptyMaskConsumesNothing) {
  float packed[4] = {1, 2, 3, 4};
  float out[8] = {};
  EXPECT_EQ((expand_soft<float, 8>(packed, 0, out)), 0);
  for (float v : out) EXPECT_EQ(v, 0.0f);
}

TEST(Expand, FullMaskCopiesAll) {
  float packed[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  float out[8] = {};
  EXPECT_EQ((expand_soft<float, 8>(packed, 0xFF, out)), 8);
  for (int l = 0; l < 8; ++l) EXPECT_EQ(out[l], packed[l]);
}

}  // namespace
}  // namespace cscv::simd
