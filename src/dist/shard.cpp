#include "dist/shard.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <utility>

#include "core/serialize.hpp"
#include "ct/system_matrix.hpp"
#include "pipeline/matrix_cache.hpp"
#include "recon/solvers.hpp"
#include "util/assertx.hpp"
#include "util/timing.hpp"

namespace cscv::dist {

namespace {

/// Spill stem: global matrix identity + the view range. Same directory as
/// the pipeline cache's spill files, distinct names (the "-shard-" infix).
std::string shard_spill_path(const std::string& spill_dir, const ShardSpec& spec) {
  const pipeline::MatrixKey key{spec.geometry, spec.cscv, spec.variant};
  return spill_dir + "/" + key.fingerprint() + "-shard-" + std::to_string(spec.view_begin) +
         "-" + std::to_string(spec.view_end) + ".cscv";
}

/// Restore attempt; empty pointer when the file is missing, fails
/// verification, or describes a different shard than the spec asks for.
std::shared_ptr<core::CscvMatrix<float>> try_restore(const std::string& path,
                                                     const ShardSpec& spec) {
  try {
    auto m = std::make_shared<core::CscvMatrix<float>>(core::load_cscv_file<float>(path));
    if (m->rows() != spec.local_rows() || m->cols() != spec.geometry.num_cols() ||
        !(m->params() == spec.cscv) || m->variant() != spec.variant) {
      return nullptr;
    }
    return m;
  } catch (const util::CheckError&) {
    return nullptr;  // missing or corrupt spill — rebuild from the geometry
  }
}

/// Best-effort atomic spill write (tmp + rename); a failed write only costs
/// the next cold start its warm restore.
void try_spill(const std::string& path, const core::CscvMatrix<float>& m) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  try {
    core::save_cscv_file(tmp, m);
  } catch (const util::CheckError&) {
    std::remove(tmp.c_str());
    return;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) std::remove(tmp.c_str());
}

/// The group subset of global stratum `subset` on the shard's plan.
core::GroupSubset shard_subset(const ShardSpec& spec, int subset) {
  return {shard_strata(spec), subset, spec.view_begin / spec.cscv.s_vvec};
}

}  // namespace

int shard_strata(const ShardSpec& spec) {
  const int groups = (spec.geometry.num_views + spec.cscv.s_vvec - 1) / spec.cscv.s_vvec;
  return recon::os_sart_strata(groups, spec.os_sart_subsets);
}

std::vector<std::pair<std::size_t, std::size_t>> stratum_ranges(const ShardSpec& spec,
                                                                int subset) {
  const core::GroupSubset sub = shard_subset(spec, subset);
  const auto rows = static_cast<std::size_t>(spec.local_rows());
  const std::size_t group_rows = static_cast<std::size_t>(spec.cscv.s_vvec) *
                                 static_cast<std::size_t>(spec.geometry.num_bins);
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  for (std::size_t r0 = static_cast<std::size_t>(sub.first_local()) * group_rows; r0 < rows;
       r0 += static_cast<std::size_t>(sub.count) * group_rows) {
    ranges.emplace_back(r0, std::min(group_rows, rows - r0));
  }
  return ranges;
}

Shard build_shard(const ShardSpec& spec, const std::string& spill_dir) {
  util::WallTimer timer;
  Shard shard;
  shard.spec = spec;
  shard.local_layout = {spec.geometry.image_size, spec.geometry.num_bins,
                        spec.num_local_views()};
  const std::string spill_path =
      spill_dir.empty() ? std::string() : shard_spill_path(spill_dir, spec);
  if (!spill_path.empty()) {
    shard.cscv = try_restore(spill_path, spec);
    shard.restored_from_spill = shard.cscv != nullptr;
  }
  if (!shard.cscv) {
    auto csc = ct::build_system_matrix_csc_range<float>(spec.geometry, spec.view_begin,
                                                        spec.view_end);
    shard.cscv = std::make_shared<core::CscvMatrix<float>>(
        core::CscvMatrix<float>::build(csc, shard.local_layout, spec.cscv, spec.variant));
    if (!spill_path.empty()) try_spill(spill_path, *shard.cscv);
  }
  shard.nnz = static_cast<std::uint64_t>(shard.cscv->nnz());
  shard.plan = std::make_shared<const core::SpmvPlan<float>>(*shard.cscv,
                                                             core::PlanOptions{.threads = 1});
  shard.build_seconds = timer.seconds();
  return shard;
}

void apply_shard(const Shard& shard, ApplyOp op, int subset, std::span<const float> in,
                 util::AlignedVector<float>& out) {
  const auto cols = static_cast<std::size_t>(shard.local_layout.num_cols());
  const auto rows = static_cast<std::size_t>(shard.spec.local_rows());
  const core::SpmvPlan<float>& plan = *shard.plan;

  if (subset < 0) {
    if (op == ApplyOp::kForward) {
      CSCV_CHECK_MSG(in.size() == cols, "shard forward: input has " << in.size()
                                                                    << " elements, want "
                                                                    << cols);
      out.resize(rows);
      plan.execute(in, out);
      return;
    }
    if (op == ApplyOp::kAdjoint) {
      CSCV_CHECK_MSG(in.size() == rows, "shard adjoint: input has " << in.size()
                                                                    << " elements, want "
                                                                    << rows);
      out.resize(cols);
      plan.execute_transpose(in, out);
      return;
    }
    CSCV_CHECK_MSG(false, "shard row/col sums require a subset index");
  }

  const int strata = shard_strata(shard.spec);
  CSCV_CHECK_MSG(subset < strata, "subset " << subset << " out of " << strata);
  const core::GroupSubset sub = shard_subset(shard.spec, subset);
  const auto ranges = stratum_ranges(shard.spec, subset);
  std::size_t sub_rows = 0;
  for (const auto& [r0, len] : ranges) sub_rows += len;
  // Stratum rows travel compacted; the plan works on full-length rows.
  const auto compact = [&](std::span<const float> full) {
    out.resize(sub_rows);
    std::size_t at = 0;
    for (const auto& [r0, len] : ranges) {
      std::copy_n(full.begin() + static_cast<std::ptrdiff_t>(r0), len,
                  out.begin() + static_cast<std::ptrdiff_t>(at));
      at += len;
    }
  };
  switch (op) {
    case ApplyOp::kForward: {
      CSCV_CHECK_MSG(in.size() == cols, "stratum forward: input has "
                                            << in.size() << " elements, want " << cols);
      util::AlignedVector<float> full(rows);
      plan.execute(sub, in, full);
      compact(full);
      return;
    }
    case ApplyOp::kAdjoint: {
      CSCV_CHECK_MSG(in.size() == sub_rows, "stratum adjoint: input has "
                                                << in.size() << " elements, want "
                                                << sub_rows);
      // The subset transpose reads only the stratum's rows.
      util::AlignedVector<float> full(rows, 0.0F);
      std::size_t at = 0;
      for (const auto& [r0, len] : ranges) {
        std::copy_n(in.begin() + static_cast<std::ptrdiff_t>(at), len,
                    full.begin() + static_cast<std::ptrdiff_t>(r0));
        at += len;
      }
      out.resize(cols);
      plan.execute_transpose(sub, full, out);
      return;
    }
    case ApplyOp::kRowSums:
      compact(plan.row_sums());
      return;
    case ApplyOp::kColSums: {
      const std::span<const float> sums = plan.col_sums(sub);
      out.assign(sums.begin(), sums.end());
      return;
    }
  }
  CSCV_CHECK_MSG(false, "unknown apply op");
}

}  // namespace cscv::dist
