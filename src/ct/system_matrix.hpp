// CT system-matrix builders.
//
// Two independent discretizations of the Radon transform:
//
//  * build_system_matrix_csc — pixel-driven: each column (pixel) collects
//    footprint integrals over detector bins, view by view. Columns emit rows
//    in ascending order, so the CSC structure is produced directly with no
//    sort. This is the matrix family the paper evaluates (nnz per column
//    ~ 2.6 x num_views, matching Table II). On a foldable geometry
//    (ParallelGeometry::foldable) each view is computed from its canonical
//    view in [0, 45] degrees at the mapped pixel centre (ViewFold), so the
//    matrix is exactly symmetric and core::CscvMatrix stores a quarter.
//
//  * build_system_matrix_siddon — ray-driven: each row (view, bin) traces a
//    ray through the pixel grid accumulating chord lengths (Siddon's
//    algorithm), producing CSR directly. A genuinely different quadrature
//    of the same operator, used to cross-validate the pixel-driven build.
#pragma once

#include <cstdint>
#include <vector>

#include "ct/footprint.hpp"
#include "ct/geometry.hpp"
#include "sparse/csc.hpp"
#include "sparse/csr.hpp"

namespace cscv::ct {

/// Pixel-driven strip-integral system matrix in CSC layout.
/// Entries below `drop_tolerance` (relative to the footprint peak) are
/// dropped; they are edge slivers that would otherwise inflate nnz with
/// values ~1e-16.
template <typename T>
sparse::CscMatrix<T> build_system_matrix_csc(const ParallelGeometry& geometry,
                                             FootprintModel model = FootprintModel::kRect,
                                             double drop_tolerance = 1e-9);

/// The rows of build_system_matrix_csc restricted to views
/// [view_begin, view_end), renumbered to (v - view_begin) * num_bins + b.
/// Because rows are bin-major per view, a view range IS a contiguous row
/// range — the shard decomposition used by src/dist. Each entry is computed
/// by the exact same per-view trigonometry and footprint integration as the
/// full build, so vertically stacking the range matrices for a partition of
/// [0, num_views) reproduces the full matrix bit for bit.
template <typename T>
sparse::CscMatrix<T> build_system_matrix_csc_range(
    const ParallelGeometry& geometry, int view_begin, int view_end,
    FootprintModel model = FootprintModel::kRect, double drop_tolerance = 1e-9);

/// Exact nnz of each view's row block of build_system_matrix_csc — the
/// weights dist::partition_views feeds to util::weighted_boundaries. Costs
/// one counting pass (same footprint math as the build's pass 1).
std::vector<std::uint64_t> count_view_nnz(const ParallelGeometry& geometry,
                                          FootprintModel model = FootprintModel::kRect,
                                          double drop_tolerance = 1e-9);

/// Ray-driven Siddon system matrix in CSR layout (values are chord lengths).
template <typename T>
sparse::CsrMatrix<T> build_system_matrix_siddon(const ParallelGeometry& geometry);

extern template sparse::CscMatrix<float> build_system_matrix_csc<float>(
    const ParallelGeometry&, FootprintModel, double);
extern template sparse::CscMatrix<double> build_system_matrix_csc<double>(
    const ParallelGeometry&, FootprintModel, double);
extern template sparse::CscMatrix<float> build_system_matrix_csc_range<float>(
    const ParallelGeometry&, int, int, FootprintModel, double);
extern template sparse::CscMatrix<double> build_system_matrix_csc_range<double>(
    const ParallelGeometry&, int, int, FootprintModel, double);
extern template sparse::CsrMatrix<float> build_system_matrix_siddon<float>(
    const ParallelGeometry&);
extern template sparse::CsrMatrix<double> build_system_matrix_siddon<double>(
    const ParallelGeometry&);

}  // namespace cscv::ct
