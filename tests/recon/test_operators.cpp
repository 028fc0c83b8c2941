#include <gtest/gtest.h>

#include "recon/operators.hpp"
#include "sparse/random.hpp"
#include "test_helpers.hpp"

namespace cscv::recon {
namespace {

using cscv::testing::cached_ct_csc;
using cscv::testing::cached_ct_csr;
using cscv::testing::expect_vectors_close;

TEST(Operators, CsrAndCscAgree) {
  const auto& csr = cached_ct_csr<double>(16, 12);
  const auto& csc = cached_ct_csc<double>(16, 12);
  CsrOperator<double> op_r(csr);
  CscOperator<double> op_c(csc);
  auto x = sparse::random_vector<double>(static_cast<std::size_t>(csr.cols()), 1);
  auto y = sparse::random_vector<double>(static_cast<std::size_t>(csr.rows()), 2);
  util::AlignedVector<double> fr(y.size()), fc(y.size()), ar(x.size()), ac(x.size());
  op_r.forward(x, fr);
  op_c.forward(x, fc);
  expect_vectors_close<double>(fc, fr, 1e-12);
  op_r.adjoint(y, ar);
  op_c.adjoint(y, ac);
  expect_vectors_close<double>(ac, ar, 1e-12);
}

TEST(Operators, PlanOperatorMatchesCsc) {
  // The CSCV operator over a held plan: forward and adjoint
  // (the CSCV transpose) agree with CSC.
  const int image = 16, views = 12;
  const auto& csc = cached_ct_csc<double>(image, views);
  const core::OperatorLayout layout{image, ct::standard_num_bins(image), views};
  auto cscv_z = core::CscvMatrix<double>::build(csc, layout,
                                                {.s_vvec = 4, .s_imgb = 4, .s_vxg = 2},
                                                core::CscvMatrix<double>::Variant::kZ);
  const core::SpmvPlan<double> plan(cscv_z);
  const PlanOperator<double> op(plan);
  CscOperator<double> ref(csc);
  auto x = sparse::random_vector<double>(static_cast<std::size_t>(csc.cols()), 3);
  auto y = sparse::random_vector<double>(static_cast<std::size_t>(csc.rows()), 4);
  util::AlignedVector<double> f1(y.size()), f2(y.size()), a1(x.size()), a2(x.size());
  op.forward(x, f1);
  ref.forward(x, f2);
  expect_vectors_close<double>(f1, f2, 1e-12);
  op.adjoint(y, a1);
  ref.adjoint(y, a2);
  expect_vectors_close<double>(a1, a2, 1e-12);
}

TEST(Operators, RowAndColSumsArePositiveForCt) {
  const auto& csr = cached_ct_csr<double>(16, 12);
  CsrOperator<double> op(csr);
  auto rs = op.row_sums();
  auto cs = op.col_sums();
  // Every pixel projects somewhere: all column sums positive; most bins see
  // mass (edge bins may be empty).
  for (double v : cs) EXPECT_GT(v, 0.0);
  std::size_t positive_rows = 0;
  for (double v : rs) {
    EXPECT_GE(v, 0.0);
    if (v > 0.0) ++positive_rows;
  }
  EXPECT_GT(positive_rows, rs.size() / 2);
}

TEST(Operators, AdjointConsistency) {
  // <A x, y> == <x, A^T y> via the operator interface.
  const auto& csr = cached_ct_csr<double>(16, 12);
  CsrOperator<double> op(csr);
  auto x = sparse::random_vector<double>(static_cast<std::size_t>(op.cols()), 5);
  auto y = sparse::random_vector<double>(static_cast<std::size_t>(op.rows()), 6);
  util::AlignedVector<double> ax(y.size()), aty(x.size());
  op.forward(x, ax);
  op.adjoint(y, aty);
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < ax.size(); ++i) lhs += ax[i] * y[i];
  for (std::size_t j = 0; j < aty.size(); ++j) rhs += aty[j] * x[j];
  EXPECT_NEAR(lhs, rhs, 1e-8 * (std::abs(lhs) + 1.0));
}

}  // namespace
}  // namespace cscv::recon
