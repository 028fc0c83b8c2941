#include "dist/sharded_operator.hpp"

#include <algorithm>
#include <cstddef>

#include "ct/system_matrix.hpp"
#include "dist/partition.hpp"
#include "recon/colmath.hpp"

namespace cscv::dist {

void check_partition(const std::vector<ShardSpec>& specs) {
  CSCV_CHECK_MSG(!specs.empty(), "sharded run needs at least one shard");
  const auto& first = specs[0];
  int expect_begin = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& s = specs[i];
    CSCV_CHECK_MSG(s.shard_id == i, "spec at index " << i << " has shard_id " << s.shard_id);
    CSCV_CHECK_MSG(s.num_shards == specs.size(),
                   "shard " << i << " believes in " << s.num_shards << " shards, have "
                            << specs.size());
    CSCV_CHECK_MSG(s.geometry == first.geometry && s.cscv == first.cscv &&
                       s.variant == first.variant && s.algorithm == first.algorithm &&
                       s.os_sart_subsets == first.os_sart_subsets,
                   "shard " << i << " disagrees with shard 0 on the global problem");
    CSCV_CHECK_MSG(s.view_begin == expect_begin && s.view_end > s.view_begin,
                   "shard " << i << " views [" << s.view_begin << ", " << s.view_end
                            << ") break the contiguous partition at view " << expect_begin);
    CSCV_CHECK_MSG(s.view_end % s.cscv.s_vvec == 0 || s.view_end == s.geometry.num_views,
                   "shard " << i << " ends at view " << s.view_end
                            << ", inside a view group of " << s.cscv.s_vvec << " views");
    expect_begin = s.view_end;
  }
  CSCV_CHECK_MSG(expect_begin == first.geometry.num_views,
                 "shards cover views [0, " << expect_begin << ") of "
                                           << first.geometry.num_views);
}

// ---- ShardedOperator -------------------------------------------------------

ShardedOperator::ShardedOperator(ShardBackend& backend) : backend_(&backend) {
  const auto& specs = backend.specs();
  check_partition(specs);
  rows_ = specs[0].geometry.num_rows();
  cols_ = specs[0].geometry.num_cols();
  row_offset_.reserve(specs.size());
  for (const auto& s : specs) row_offset_.push_back(s.row_offset());
}

void ShardedOperator::forward(std::span<const float> x, std::span<float> y) const {
  CSCV_CHECK(static_cast<sparse::index_t>(x.size()) == cols_);
  CSCV_CHECK(static_cast<sparse::index_t>(y.size()) == rows_);
  const auto& specs = backend_->specs();
  in_.assign(specs.size(), x);  // every shard projects the same image
  backend_->apply_all(ApplyOp::kForward, -1, in_, parts_);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    CSCV_CHECK(parts_[i].size() == static_cast<std::size_t>(specs[i].local_rows()));
    // Concatenation at the shard's row offset: pure placement, no FP ops —
    // the forward side of the determinism contract is free.
    std::copy(parts_[i].begin(), parts_[i].end(),
              y.begin() + static_cast<std::ptrdiff_t>(row_offset_[i]));
  }
}

void ShardedOperator::adjoint(std::span<const float> y, std::span<float> x) const {
  CSCV_CHECK(static_cast<sparse::index_t>(y.size()) == rows_);
  CSCV_CHECK(static_cast<sparse::index_t>(x.size()) == cols_);
  const auto& specs = backend_->specs();
  in_.resize(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    in_[i] = y.subspan(static_cast<std::size_t>(row_offset_[i]),
                       static_cast<std::size_t>(specs[i].local_rows()));
  }
  backend_->apply_all(ApplyOp::kAdjoint, -1, in_, parts_);
  // Fixed shard-ordered reduce: copy shard 0, accumulate 1..N-1 through the
  // shared colmath primitive. Run-to-run deterministic for every N; at N=1
  // the copy is the serial adjoint bit for bit.
  const auto cols = static_cast<std::size_t>(cols_);
  CSCV_CHECK(parts_[0].size() == cols);
  std::copy(parts_[0].begin(), parts_[0].end(), x.begin());
  for (std::size_t i = 1; i < specs.size(); ++i) {
    CSCV_CHECK(parts_[i].size() == cols);
    recon::colmath::accumulate(x.data(), parts_[i].data(), cols);
  }
}

// ---- sharded OS-SART -------------------------------------------------------

recon::RunStats sharded_os_sart(ShardBackend& backend, std::span<const float> b,
                                std::span<float> x, const recon::OsSartOptions& options) {
  const auto& specs = backend.specs();
  check_partition(specs);
  const auto& g = specs[0].geometry;
  CSCV_CHECK_MSG(specs[0].algorithm == pipeline::Algorithm::kOsSart,
                 "shards were built for " << pipeline::algorithm_name(specs[0].algorithm));
  CSCV_CHECK_MSG(options.num_subsets == specs[0].os_sart_subsets,
                 "solver wants " << options.num_subsets << " subsets, shards were built for "
                                 << specs[0].os_sart_subsets);
  CSCV_CHECK(static_cast<sparse::index_t>(b.size()) == g.num_rows());
  CSCV_CHECK(static_cast<sparse::index_t>(x.size()) == g.num_cols());

  const int n = shard_strata(specs[0]);
  const std::size_t num_shards = specs.size();
  const auto cols = static_cast<std::size_t>(g.num_cols());

  // Per-stratum layout of the shard-concatenated stratum rows (whole view
  // groups, ascending — stratum_ranges in shard order), its b slice and
  // weights, and the latest forward of its rows. Serial os_sart works on
  // the same rows in place, through the same colmath calls.
  struct Stratum {
    std::vector<std::size_t> global_row;  // per concatenated range
    std::vector<std::size_t> length;
    std::vector<std::size_t> part_rows;   // stratum rows per shard
    std::vector<std::size_t> part_off;    // their offsets in the concatenation
    std::size_t rows = 0;
    util::AlignedVector<float> b;
    util::AlignedVector<float> inv_row;
    util::AlignedVector<float> inv_col;
    util::AlignedVector<float> fwd;
  };
  // A stratum's rows of a global-row vector, in concatenation order.
  const auto gather_rows = [](const Stratum& st, std::span<const float> src,
                              util::AlignedVector<float>& dst) {
    dst.resize(st.rows);
    std::size_t at = 0;
    for (std::size_t r = 0; r < st.global_row.size(); ++r) {
      std::copy_n(src.begin() + static_cast<std::ptrdiff_t>(st.global_row[r]), st.length[r],
                  dst.begin() + static_cast<std::ptrdiff_t>(at));
      at += st.length[r];
    }
  };
  std::vector<Stratum> strata(static_cast<std::size_t>(n));
  for (int s = 0; s < n; ++s) {
    auto& st = strata[static_cast<std::size_t>(s)];
    for (std::size_t i = 0; i < num_shards; ++i) {
      st.part_off.push_back(st.rows);
      std::size_t part = 0;
      for (const auto& [r0, len] : stratum_ranges(specs[i], s)) {
        st.global_row.push_back(static_cast<std::size_t>(specs[i].row_offset()) + r0);
        st.length.push_back(len);
        part += len;
      }
      st.part_rows.push_back(part);
      st.rows += part;
    }
    gather_rows(st, b, st.b);
  }

  std::vector<std::span<const float>> in(num_shards);
  std::vector<util::AlignedVector<float>> parts;
  const auto concat = [&](const Stratum& st, util::AlignedVector<float>& dst) {
    dst.resize(st.rows);
    for (std::size_t i = 0; i < num_shards; ++i) {
      CSCV_CHECK(parts[i].size() == st.part_rows[i]);
      std::copy(parts[i].begin(), parts[i].end(),
                dst.begin() + static_cast<std::ptrdiff_t>(st.part_off[i]));
    }
  };
  const auto reduce = [&](util::AlignedVector<float>& dst) {
    dst.resize(cols);
    CSCV_CHECK(parts[0].size() == cols);
    std::copy(parts[0].begin(), parts[0].end(), dst.begin());
    for (std::size_t i = 1; i < num_shards; ++i) {
      CSCV_CHECK(parts[i].size() == cols);
      recon::colmath::accumulate(dst.data(), parts[i].data(), cols);
    }
  };
  // Weights: the shards' stratum rows of A 1 and partial A_s^T 1, reduced
  // in shard order, inverted with the guard serial os_sart applies.
  for (int s = 0; s < n; ++s) {
    auto& st = strata[static_cast<std::size_t>(s)];
    std::fill(in.begin(), in.end(), std::span<const float>());
    backend.apply_all(ApplyOp::kRowSums, s, in, parts);
    concat(st, st.inv_row);
    backend.apply_all(ApplyOp::kColSums, s, in, parts);
    reduce(st.inv_col);
    for (auto& v : st.inv_row) v = v > 0.0f ? 1.0f / v : 0.0f;
    for (auto& v : st.inv_col) v = v > 0.0f ? 1.0f / v : 0.0f;
  }

  const float lambda = static_cast<float>(options.relaxation);
  util::AlignedVector<float> back(x.size());
  util::AlignedVector<float> full_residual(b.size());
  recon::RunStats stats;

  for (int it = 0; it < options.iterations; ++it) {
    for (int s = 0; s < n; ++s) {
      auto& st = strata[static_cast<std::size_t>(s)];
      if (it == 0 || s != 0) {  // else: the last residual forward's rows
        std::fill(in.begin(), in.end(), std::span<const float>(x.data(), x.size()));
        backend.apply_all(ApplyOp::kForward, s, in, parts);
        concat(st, st.fwd);
      }
      recon::colmath::weighted_residual(st.b.data(), st.inv_row.data(), st.fwd.data(),
                                        st.rows);
      for (std::size_t i = 0; i < num_shards; ++i) {
        in[i] = std::span<const float>(st.fwd).subspan(st.part_off[i], st.part_rows[i]);
      }
      backend.apply_all(ApplyOp::kAdjoint, s, in, parts);
      reduce(back);
      recon::colmath::sart_step(x.data(), st.inv_col.data(), back.data(), lambda,
                                options.enforce_nonneg, back.size());
    }
    // Per-pass residual from one full forward per shard: a shard's plan has
    // one thread, so it runs the row-partition loop and every row is
    // bitwise the stratum forward serial os_sart stacks. Stratum 0's rows
    // are kept for the next pass, as serial os_sart keeps them.
    std::fill(in.begin(), in.end(), std::span<const float>(x.data(), x.size()));
    backend.apply_all(ApplyOp::kForward, -1, in, parts);
    for (std::size_t i = 0; i < num_shards; ++i) {
      CSCV_CHECK(parts[i].size() == static_cast<std::size_t>(specs[i].local_rows()));
      std::copy(parts[i].begin(), parts[i].end(),
                full_residual.begin() + static_cast<std::ptrdiff_t>(specs[i].row_offset()));
    }
    gather_rows(strata.front(), full_residual, strata.front().fwd);
    stats.residual_norms.push_back(
        recon::colmath::diff_norm2(b.data(), full_residual.data(), full_residual.size()));
    ++stats.iterations_run;
  }
  return stats;
}

// ---- job-level entry points ------------------------------------------------

std::vector<ShardSpec> make_shard_specs(const pipeline::ReconJob& job, int num_shards) {
  CSCV_CHECK_MSG(num_shards >= 1, "num_shards must be positive");
  job.geometry.validate();
  const std::vector<std::uint64_t> nnz = ct::count_view_nnz(job.geometry);
  const std::vector<ViewRange> ranges = partition_views(nnz, num_shards, job.cscv.s_vvec);
  std::vector<ShardSpec> specs;
  specs.reserve(ranges.size());
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    specs.push_back(ShardSpec{.shard_id = static_cast<std::uint32_t>(i),
                              .num_shards = static_cast<std::uint32_t>(ranges.size()),
                              .view_begin = ranges[i].begin,
                              .view_end = ranges[i].end,
                              .geometry = job.geometry,
                              .cscv = job.cscv,
                              .variant = job.variant,
                              .algorithm = job.algorithm,
                              .os_sart_subsets = job.os_sart_subsets});
  }
  return specs;
}

ShardedRunResult run_sharded_job(ShardBackend& backend, const pipeline::ReconJob& job) {
  const auto& specs = backend.specs();
  check_partition(specs);
  CSCV_CHECK_MSG(specs[0].geometry == job.geometry &&
                     specs[0].algorithm == job.algorithm,
                 "backend shards were built for a different problem than the job");
  CSCV_CHECK_MSG(static_cast<sparse::index_t>(job.sinogram.size()) ==
                     job.geometry.num_rows(),
                 "sinogram has " << job.sinogram.size() << " elements, geometry wants "
                                 << job.geometry.num_rows());

  ShardedRunResult result;
  result.volume.assign(static_cast<std::size_t>(job.geometry.num_cols()), 0.0f);
  switch (job.algorithm) {
    case pipeline::Algorithm::kSirt: {
      ShardedOperator op(backend);
      result.stats = recon::sirt<float>(op, job.sinogram, result.volume, job.solve);
      break;
    }
    case pipeline::Algorithm::kCgls: {
      ShardedOperator op(backend);
      result.stats = recon::cgls<float>(op, job.sinogram, result.volume, job.solve);
      break;
    }
    case pipeline::Algorithm::kOsSart: {
      const recon::OsSartOptions opts{.iterations = job.solve.iterations,
                                      .num_subsets = job.os_sart_subsets,
                                      .relaxation = job.solve.relaxation,
                                      .enforce_nonneg = job.solve.enforce_nonneg};
      result.stats = sharded_os_sart(backend, job.sinogram, result.volume, opts);
      break;
    }
    case pipeline::Algorithm::kFbp:
      throw ShardError("fbp does not shard: nothing to scatter/reduce per iteration");
  }
  return result;
}

}  // namespace cscv::dist
