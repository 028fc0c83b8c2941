// Column update primitives shared by every solver body.
//
// The batched solvers promise: column k of a fused multi-RHS solve is
// bitwise identical to the serial solver run alone on that column. The
// SpMV engines hold up their half by matching accumulation chains per
// column; this header holds up the solver half. Every per-element update
// the solvers perform (SIRT/SART steps, CGLS axpy family, norm and dot
// reductions, clamps) lives here as ONE noinline function instantiation
// over contiguous arrays. Each solver is one body over k columns, and the
// serial solve is its column 0 at k = 1: that column works in place on the
// caller's arrays, while k columns are gathered into contiguous scratch,
// and both call the very same code.
//
// Why this indirection matters: open-coding "the same" update twice —
// contiguous in place, strided in a batch — lets the compiler make
// different contraction/vectorization choices per site (fused scalar FMA
// here, unfused vector mul+add there), which diverges in the last ulp and
// breaks the bitwise contract. The rule still holds with one body: the
// in-place and gathered call sites (a column at k = 1 and at k = K, the
// shard coordinator's reduce and its in-process reference) all call these,
// and a single noinline instantiation can only be compiled one way.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace cscv::recon::colmath {

/// r = b - r (elementwise).
template <typename T>
[[gnu::noinline]] void residual_from(const T* b, T* r, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) r[i] = b[i] - r[i];
}

/// v *= w (elementwise).
template <typename T>
[[gnu::noinline]] void scale_by(T* v, const T* w, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) v[i] *= w[i];
}

/// acc += p (elementwise) — the shard-reduce primitive. The distributed
/// coordinator and its in-process reference both fold partial
/// backprojections through this one instantiation, in shard-id order, so
/// the reduce is bitwise-identical by construction on both paths.
template <typename T>
[[gnu::noinline]] void accumulate(T* acc, const T* p, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) acc[i] += p[i];
}

/// x += lambda * inv_col * back — the SIRT/OS-SART update step.
template <typename T>
[[gnu::noinline]] void sirt_step(T* x, const T* inv_col, const T* back, T lambda,
                                 std::size_t len) {
  for (std::size_t j = 0; j < len; ++j) x[j] += lambda * inv_col[j] * back[j];
}

/// y += alpha * p.
template <typename T>
[[gnu::noinline]] void axpy(T* y, T alpha, const T* p, std::size_t len) {
  for (std::size_t j = 0; j < len; ++j) y[j] += alpha * p[j];
}

/// y -= alpha * q.
template <typename T>
[[gnu::noinline]] void axmy(T* y, T alpha, const T* q, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) y[i] -= alpha * q[i];
}

/// p = s + beta * p (the CG direction update).
template <typename T>
[[gnu::noinline]] void xpay(T* p, const T* s, T beta, std::size_t len) {
  for (std::size_t j = 0; j < len; ++j) p[j] = s[j] + beta * p[j];
}

/// x = max(x, floor) (elementwise).
template <typename T>
[[gnu::noinline]] void clamp_floor(T* x, T floor_v, std::size_t len) {
  for (std::size_t j = 0; j < len; ++j) x[j] = std::max(x[j], floor_v);
}

/// sum v[i]^2, accumulated in double in index order.
template <typename T>
[[gnu::noinline]] double dot_self(const T* v, std::size_t len) {
  double s = 0.0;
  for (std::size_t i = 0; i < len; ++i) {
    s += static_cast<double>(v[i]) * static_cast<double>(v[i]);
  }
  return s;
}

/// sqrt(sum v[i]^2) — the residual norm CGLS reports; the SART body sums
/// dot_self over its strata's rows and takes one sqrt per pass.
template <typename T>
double norm2(const T* v, std::size_t len) {
  return std::sqrt(dot_self(v, len));
}

/// Column c of an interleaved multi-RHS vector into contiguous out.
template <typename T>
void gather_column(const T* multi, std::size_t len, std::size_t k, std::size_t c, T* out) {
  for (std::size_t i = 0; i < len; ++i) out[i] = multi[i * k + c];
}

/// Contiguous in back into column c of an interleaved multi-RHS vector.
template <typename T>
void scatter_column(const T* in, std::size_t len, std::size_t k, std::size_t c, T* multi) {
  for (std::size_t i = 0; i < len; ++i) multi[i * k + c] = in[i];
}

}  // namespace cscv::recon::colmath
