#include "dist/shard.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <utility>

#include "core/serialize.hpp"
#include "ct/system_matrix.hpp"
#include "pipeline/matrix_cache.hpp"
#include "recon/operators.hpp"
#include "recon/os_sart.hpp"
#include "sparse/convert.hpp"
#include "util/assertx.hpp"
#include "util/timing.hpp"

namespace cscv::dist {

namespace {

/// Spill stem: global matrix identity + the view range. Same directory as
/// the pipeline cache's spill files, distinct names (the "-shard-" infix).
std::string shard_spill_path(const std::string& spill_dir, const ShardSpec& spec) {
  const pipeline::MatrixKey key{spec.geometry, spec.cscv, spec.variant, spec.algorithm};
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

}  // namespace

Shard build_shard(const ShardSpec& spec, const std::string& spill_dir) {
  util::WallTimer timer;
  Shard shard;
  shard.spec = spec;
  shard.local_layout = {spec.geometry.image_size, spec.geometry.num_bins,
                        spec.num_local_views()};

  if (spec.algorithm == pipeline::Algorithm::kOsSart) {
    // OS-SART runs on CSR strata; there is no .cscv serialization for CSR,
    // so this path always builds fresh.
    auto csc = ct::build_system_matrix_csc_range<float>(spec.geometry, spec.view_begin,
                                                        spec.view_end);
    shard.nnz = static_cast<std::uint64_t>(csc.nnz());
    shard.csr = std::make_shared<sparse::CsrMatrix<float>>(sparse::csr_from_csc(csc));
    for (auto& sub : recon::split_view_subsets(*shard.csr, shard.local_layout,
                                               spec.os_sart_subsets, spec.view_begin)) {
      const recon::CsrOperator<float> op(sub.matrix);
      auto row_sums = op.row_sums();
      auto col_sums = op.col_sums();
      shard.strata.push_back({std::move(sub.matrix), std::move(row_sums), std::move(col_sums)});
    }
  } else {
    const std::string spill_path =
        spill_dir.empty() ? std::string() : shard_spill_path(spill_dir, spec);
    if (!spill_path.empty()) {
      shard.cscv = try_restore(spill_path, spec);
      shard.restored_from_spill = shard.cscv != nullptr;
    }
    if (!shard.cscv) {
      auto csc = ct::build_system_matrix_csc_range<float>(spec.geometry, spec.view_begin,
                                                          spec.view_end);
      shard.cscv = std::make_shared<core::CscvMatrix<float>>(core::CscvMatrix<float>::build(
          csc, shard.local_layout, spec.cscv, spec.variant));
      if (!spill_path.empty()) try_spill(spill_path, *shard.cscv);
    }
    shard.nnz = static_cast<std::uint64_t>(shard.cscv->nnz());
    (void)shard.plan();  // warm the cached plan before the first apply
  }
  shard.build_seconds = timer.seconds();
  return shard;
}

void apply_shard(const Shard& shard, ApplyOp op, int subset, std::span<const float> in,
                 util::AlignedVector<float>& out) {
  const auto cols = static_cast<std::size_t>(shard.local_layout.num_cols());
  const auto rows = static_cast<std::size_t>(shard.spec.local_rows());

  if (subset < 0) {
    if (op == ApplyOp::kForward) {
      CSCV_CHECK_MSG(in.size() == cols, "shard forward: input has " << in.size()
                                                                    << " elements, want "
                                                                    << cols);
      out.resize(rows);
      if (shard.cscv) {
        shard.plan().execute(in, out);
      } else {
        shard.csr->spmv(in, out);
      }
      return;
    }
    if (op == ApplyOp::kAdjoint) {
      CSCV_CHECK_MSG(in.size() == rows, "shard adjoint: input has " << in.size()
                                                                    << " elements, want "
                                                                    << rows);
      out.resize(cols);
      if (shard.cscv) {
        shard.plan().execute_transpose(in, out);
      } else {
        shard.csr->spmv_transpose(in, out);
      }
      return;
    }
    CSCV_CHECK_MSG(false, "shard row/col sums require a subset index");
  }

  CSCV_CHECK_MSG(!shard.strata.empty(),
                 "subset apply on a shard built for " << pipeline::algorithm_name(
                     shard.spec.algorithm));
  CSCV_CHECK_MSG(subset < static_cast<int>(shard.strata.size()),
                 "subset " << subset << " out of " << shard.strata.size());
  const auto& stratum = shard.strata[static_cast<std::size_t>(subset)];
  const auto& sub = stratum.matrix;
  const auto sub_rows = static_cast<std::size_t>(sub.rows());
  switch (op) {
    case ApplyOp::kForward:
      CSCV_CHECK_MSG(in.size() == cols, "stratum forward: input has "
                                            << in.size() << " elements, want " << cols);
      out.resize(sub_rows);
      sub.spmv(in, out);
      return;
    case ApplyOp::kAdjoint:
      CSCV_CHECK_MSG(in.size() == sub_rows, "stratum adjoint: input has "
                                                << in.size() << " elements, want "
                                                << sub_rows);
      out.resize(cols);
      // The CSR transpose recon::os_sart applies to its strata; a held
      // scratch there gives the same bits, and a one-thread shard never
      // touches one.
      sub.spmv_transpose(in, out);
      return;
    case ApplyOp::kRowSums:
      out = stratum.row_sums;
      return;
    case ApplyOp::kColSums:
      out = stratum.col_sums;
      return;
  }
  CSCV_CHECK_MSG(false, "unknown apply op");
}

}  // namespace cscv::dist
