// Property suite: every SpMV implementation must agree with the COO
// reference on arbitrary random matrices — uniform, banded, power-law —
// across seeds and both precisions.
#include <gtest/gtest.h>

#include "sparse/csc.hpp"
#include "sparse/csr.hpp"
#include "sparse/ell.hpp"
#include "sparse/merge.hpp"
#include "sparse/random.hpp"
#include "sparse/segsum.hpp"
#include "sparse/sell.hpp"
#include "sparse/spc5.hpp"
#include "test_helpers.hpp"

namespace cscv::sparse {
namespace {

using cscv::testing::expect_vectors_close;

enum class Family : std::uint64_t { kUniform, kBanded, kPowerLaw };

const char* family_name(Family f) {
  switch (f) {
    case Family::kUniform: return "uniform";
    case Family::kBanded: return "banded";
    case Family::kPowerLaw: return "powerlaw";
  }
  return "unknown";
}

// gtest prints the raw bytes of the parameter into each test's name, so the
// parameter holds no pointer and no padding: the names stay the same from
// one build and run to the next.
struct PropertyParam {
  Family family;
  std::uint64_t seed;
};

class SpmvProperty : public ::testing::TestWithParam<PropertyParam> {
 protected:
  static CooMatrix<double> make_matrix(const PropertyParam& p) {
    switch (p.family) {
      case Family::kUniform: return random_uniform<double>(90, 70, 0.12, p.seed);
      case Family::kBanded: return random_banded<double>(120, 9, 0.5, p.seed);
      case Family::kPowerLaw: break;
    }
    return random_power_law<double>(150, 90, 60, p.seed);
  }
};

TEST_P(SpmvProperty, AllFormatsAgree) {
  auto coo = make_matrix(GetParam());
  const auto rows = static_cast<std::size_t>(coo.rows());
  const auto cols = static_cast<std::size_t>(coo.cols());
  auto x = random_vector<double>(cols, GetParam().seed ^ 0xabcdef);
  util::AlignedVector<double> y_ref(rows);
  coo.spmv(x, y_ref);

  auto csr = CsrMatrix<double>::from_coo(coo);
  auto csc = CscMatrix<double>::from_coo(coo);
  auto ell = EllMatrix<double>::from_coo(coo);
  auto sell = SellMatrix<double>::from_coo(coo, 8, 64);
  SegSumCsr<double> seg(csr, 64);
  auto spc5 = Spc5Matrix<double>::from_csr(csr, 2, 8);

  util::AlignedVector<double> y(rows);
  csr.spmv(x, y);
  expect_vectors_close<double>(y, y_ref, 1e-12);
  csc.spmv(x, y);
  expect_vectors_close<double>(y, y_ref, 1e-12);
  ell.spmv(x, y);
  expect_vectors_close<double>(y, y_ref, 1e-12);
  sell.spmv(x, y);
  expect_vectors_close<double>(y, y_ref, 1e-12);
  seg.spmv(x, y);
  expect_vectors_close<double>(y, y_ref, 1e-12);
  spc5.spmv(x, y);
  expect_vectors_close<double>(y, y_ref, 1e-12);
  merge_spmv(csr, std::span<const double>(x), std::span<double>(y));
  expect_vectors_close<double>(y, y_ref, 1e-12);
}

TEST_P(SpmvProperty, TransposeRoundTripIsSymmetricBilinear) {
  // <A x, y> == <x, A^T y> for random x, y — ties forward and adjoint.
  auto coo = make_matrix(GetParam());
  auto csr = CsrMatrix<double>::from_coo(coo);
  auto x = random_vector<double>(static_cast<std::size_t>(coo.cols()), 1);
  auto y = random_vector<double>(static_cast<std::size_t>(coo.rows()), 2);
  util::AlignedVector<double> ax(static_cast<std::size_t>(coo.rows()));
  util::AlignedVector<double> aty(static_cast<std::size_t>(coo.cols()));
  csr.spmv(x, ax);
  csr.spmv_transpose(y, aty);
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < ax.size(); ++i) lhs += ax[i] * y[i];
  for (std::size_t j = 0; j < aty.size(); ++j) rhs += aty[j] * x[j];
  EXPECT_NEAR(lhs, rhs, 1e-8 * (std::abs(lhs) + 1.0));
}

std::vector<PropertyParam> property_params() {
  std::vector<PropertyParam> out;
  for (Family family : {Family::kUniform, Family::kBanded, Family::kPowerLaw}) {
    for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) out.push_back({family, seed});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Families, SpmvProperty, ::testing::ValuesIn(property_params()),
                         [](const ::testing::TestParamInfo<PropertyParam>& info) {
                           return std::string(family_name(info.param.family)) + "_seed" +
                                  std::to_string(info.param.seed);
                         });

}  // namespace
}  // namespace cscv::sparse
