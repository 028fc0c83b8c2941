// SpMV engine registry for the comparison benches.
//
// Each engine owns its converted matrix and exposes a uniform apply();
// the list mirrors the paper's comparator set with the substitutions
// documented in DESIGN.md (MKL-CSR -> our CSR, ESB -> SELL-C-sigma,
// CSR5 -> tiled segmented sum, Merge and SPC5 reimplemented directly).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/format.hpp"
#include "core/plan.hpp"
#include "sparse/csc.hpp"
#include "sparse/csr.hpp"
#include "sparse/cvr.hpp"
#include "sparse/merge.hpp"
#include "sparse/segsum.hpp"
#include "sparse/sell.hpp"
#include "sparse/spc5.hpp"
#include "util/assertx.hpp"

namespace cscv::benchlib {

/// What a CSCV engine (cscv_engine) holds: its matrix and the plan its
/// apply runs.
template <typename T>
struct CscvEngineState {
  std::shared_ptr<const core::CscvMatrix<T>> matrix;
  std::unique_ptr<core::SpmvPlan<T>> plan;  // built by the engine's prepare
};

template <typename T>
struct Engine {
  std::string name;
  std::function<void(std::span<const T>, std::span<T>)> apply;
  std::size_t matrix_bytes = 0;      // M(A): matrix traffic per iteration
  sparse::offset_t nnz = 0;          // useful flops = 2 * nnz
  std::shared_ptr<void> state;       // keeps the converted matrix alive
  /// Optional warm-up run after the thread count is pinned and before the
  /// timed loop: builds execution plans / scratch so the measurement sees
  /// only the steady-state apply. Engines without setup leave it empty;
  /// engines with one need it before their first apply.
  std::function<void()> prepare = nullptr;
  /// CSCV engines only: the matrix and the plan the timed loop ran, whose
  /// PlanStats the records carry.
  std::shared_ptr<CscvEngineState<T>> cscv = nullptr;
};

/// A CSCV engine over `m`: prepare() builds an SpmvPlan with `options` at
/// the thread count pinned then, and apply runs it — y = A x, or x = A^T y
/// when `transpose`.
template <typename T>
Engine<T> cscv_engine(std::string name, std::shared_ptr<const core::CscvMatrix<T>> m,
                      bool transpose = false, core::PlanOptions options = {}) {
  auto s = std::make_shared<CscvEngineState<T>>(CscvEngineState<T>{m, nullptr});
  Engine<T> e{std::move(name),
              [s, transpose](std::span<const T> in, std::span<T> out) {
                CSCV_CHECK_MSG(s->plan != nullptr, "CSCV engine applied before prepare()");
                if (transpose) {
                  s->plan->execute_transpose(in, out);
                } else {
                  s->plan->execute(in, out);
                }
              },
              m->matrix_bytes(),
              m->nnz(),
              s,
              [s, options] {
                s->plan = std::make_unique<core::SpmvPlan<T>>(*s->matrix, options);
              }};
  e.cscv = std::move(s);
  return e;
}

/// CSCV parameters per variant. The paper's Table III picks S_VVec up to 16
/// at clinical angular sampling (delta ~ 0.375 deg, so 16 views span 6 deg);
/// the scaled benchmark geometries have coarser steps, where a 16-view group
/// spans tens of degrees and trajectories curve away from the reference.
/// S_VVec = 8 is the right default at bench scale — run format_tuning or
/// table3_selected_params to re-derive per matrix.
struct CscvConfig {
  core::CscvParams z{.s_vvec = 8, .s_imgb = 16, .s_vxg = 4};
  core::CscvParams m{.s_vvec = 8, .s_imgb = 16, .s_vxg = 4};
};

/// Builds the full engine list over one matrix. `csr`/`csc` must outlive
/// the engines (they are shared inputs; converted formats are owned).
template <typename T>
std::vector<Engine<T>> build_engines(const sparse::CsrMatrix<T>& csr,
                                     const sparse::CscMatrix<T>& csc,
                                     const core::OperatorLayout& layout,
                                     const CscvConfig& config = {},
                                     bool include_cscv = true) {
  std::vector<Engine<T>> engines;

  engines.push_back({"CSR", [&csr](auto x, auto y) { csr.spmv(x, y); },
                     csr.matrix_bytes(), csr.nnz(), nullptr});
  engines.push_back({"CSC", [&csc](auto x, auto y) { csc.spmv(x, y); },
                     csc.matrix_bytes(), csc.nnz(), nullptr});
  engines.push_back({"Merge",
                     [&csr](auto x, auto y) { sparse::merge_spmv(csr, x, y); },
                     csr.matrix_bytes(), csr.nnz(), nullptr});

  {
    auto seg = std::make_shared<sparse::SegSumCsr<T>>(csr, 512);
    engines.push_back({"SegSum(CSR5)",
                       [seg](auto x, auto y) { seg->spmv(x, y); },
                       seg->matrix_bytes(), csr.nnz(), seg});
  }
  {
    auto sell = std::make_shared<sparse::SellMatrix<T>>(
        sparse::SellMatrix<T>::from_csr(csr, 8, 4096));
    engines.push_back({"SELL(ESB)",
                       [sell](auto x, auto y) { sell->spmv(x, y); },
                       sell->matrix_bytes(), sell->nnz(), sell});
  }
  {
    // beta(2,4) is the best SPC5 kernel on CT matrices (short per-view bin
    // runs make wide blocks mask-heavy); the paper likewise reports the
    // best SPC5 kernel per matrix.
    auto spc5 = std::make_shared<sparse::Spc5Matrix<T>>(
        sparse::Spc5Matrix<T>::from_csr(csr, 2, 4));
    engines.push_back({"SPC5",
                       [spc5](auto x, auto y) { spc5->spmv(x, y); },
                       spc5->matrix_bytes(), spc5->nnz(), spc5});
  }
  {
    auto cvr = std::make_shared<sparse::CvrMatrix<T>>(
        sparse::CvrMatrix<T>::from_csr(csr, sizeof(T) == 4 ? 16 : 8));
    engines.push_back({"CVR",
                       [cvr](auto x, auto y) { cvr->spmv(x, y); },
                       cvr->matrix_bytes(), cvr->nnz(), cvr});
  }
  if (include_cscv) {
    engines.push_back(cscv_engine<T>(
        "CSCV-Z", std::make_shared<const core::CscvMatrix<T>>(core::CscvMatrix<T>::build(
                      csc, layout, config.z, core::CscvMatrix<T>::Variant::kZ))));
    engines.push_back(cscv_engine<T>(
        "CSCV-M", std::make_shared<const core::CscvMatrix<T>>(core::CscvMatrix<T>::build(
                      csc, layout, config.m, core::CscvMatrix<T>::Variant::kM))));
  }
  return engines;
}

}  // namespace cscv::benchlib
