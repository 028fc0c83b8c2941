// Invariant walks behind core::verify (see verify.hpp and docs/FORMAT.md §8).
#include "core/verify.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>
#include <type_traits>

#include "core/plan.hpp"
#include "util/assertx.hpp"

namespace cscv::core {

void VerifyReport::add(std::string invariant, std::string detail) {
  ++total_violations;
  if (issues.size() < kMaxIssues) {
    issues.push_back({std::move(invariant), std::move(detail)});
  }
}

std::string VerifyReport::summary() const {
  if (ok()) {
    std::ostringstream os;
    os << "ok (" << blocks_checked << " blocks, " << vxgs_checked << " VxGs";
    if (level != VerifyLevel::kCheap) os << ", " << slots_checked << " live slots";
    os << " checked)";
    return os.str();
  }
  std::ostringstream os;
  os << total_violations << " invariant violation" << (total_violations == 1 ? "" : "s");
  if (!issues.empty()) {
    os << ": [" << issues.front().invariant << "] " << issues.front().detail;
    if (total_violations > 1) os << " (+" << total_violations - 1 << " more)";
  }
  return os.str();
}

util::Json VerifyReport::to_json() const {
  util::Json j = util::Json::object();
  j["ok"] = ok();
  j["level"] = level == VerifyLevel::kCheap ? "cheap"
               : level == VerifyLevel::kFull ? "full"
                                             : "epsilon";
  j["total_violations"] = total_violations;
  util::Json list = util::Json::array();
  for (const VerifyIssue& issue : issues) {
    util::Json item = util::Json::object();
    item["invariant"] = issue.invariant;
    item["detail"] = issue.detail;
    list.push_back(std::move(item));
  }
  j["issues"] = std::move(list);
  j["blocks_checked"] = blocks_checked;
  j["vxgs_checked"] = vxgs_checked;
  j["slots_checked"] = slots_checked;
  j["values_nonzero"] = values_nonzero;
  return j;
}

void VerifyReport::require_ok(const std::string& context) const {
  if (ok()) return;
  std::ostringstream os;
  os << context << ": " << summary();
  for (std::size_t i = 1; i < std::min<std::size_t>(issues.size(), 4); ++i) {
    os << "; [" << issues[i].invariant << "] " << issues[i].detail;
  }
  throw util::CheckError(os.str());
}

namespace {

using sparse::index_t;
using sparse::offset_t;

/// Formats "<what> of block <b>" style details without dragging iostreams
/// through every call site.
template <typename... Parts>
std::string detail(Parts&&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  return os.str();
}

/// Cheap tier: header/table consistency and index bounds. Returns true when
/// the tables are internally consistent enough for the full tier to index
/// them without going out of bounds itself.
template <typename T>
bool verify_tables(const CscvMatrix<T>& m, VerifyReport& r) {
  // Parameter and layout domains; everything else derives from these, so a
  // violation here ends the walk.
  try {
    m.params().validate();
  } catch (const util::CheckError& e) {
    r.add("params.valid", e.what());
    return false;
  }
  try {
    m.layout().validate();
  } catch (const util::CheckError& e) {
    r.add("layout.valid", e.what());
    return false;
  }

  const int s = m.params().s_vvec;
  const int v = m.params().s_vxg;
  // The tables describe the stored views (a quarter when folded).
  const OperatorLayout layout = m.stored_layout();
  if (m.folded() && m.layout().num_views % 4 != 0) {
    r.add("fold.views", detail("folded matrix with ", m.layout().num_views,
                               " views, not a multiple of 4"));
    return false;
  }

  const BlockGrid want(layout, s, m.params().s_imgb);
  if (m.grid().view_groups != want.view_groups || m.grid().tiles_x != want.tiles_x ||
      m.grid().tiles_y != want.tiles_y || m.grid().s_vvec != want.s_vvec ||
      m.grid().s_imgb != want.s_imgb) {
    r.add("grid.shape", detail("stored grid disagrees with BlockGrid(layout, ",
                               s, ", ", m.params().s_imgb, ")"));
    return false;
  }

  if (m.nnz() < 0 ||
      m.nnz() > static_cast<offset_t>(m.layout().num_rows()) * layout.num_cols()) {
    r.add("nnz.range", detail("nnz = ", m.nnz(), " outside [0, rows*cols]"));
    return false;
  }
  if (m.stored_nnz() < 0 ||
      m.stored_nnz() > static_cast<offset_t>(layout.num_rows()) * layout.num_cols() ||
      (!m.folded() && m.stored_nnz() != m.nnz())) {
    r.add("nnz.stored", detail("stored nnz = ", m.stored_nnz(), " for nnz = ", m.nnz(),
                               m.folded() ? " (folded)" : " (unfolded)"));
    return false;
  }

  bool ok = true;
  const auto blocks = m.blocks();
  if (static_cast<int>(blocks.size()) != want.num_blocks()) {
    r.add("block_table.size",
          detail(blocks.size(), " blocks stored, grid has ", want.num_blocks()));
    return false;
  }
  if (m.reference_bins().size() != blocks.size() * static_cast<std::size_t>(s)) {
    r.add("refs.size", detail(m.reference_bins().size(), " reference bins stored, want ",
                              blocks.size() * static_cast<std::size_t>(s)));
    return false;
  }
  if (m.vxg_col().size() != m.vxg_q().size()) {
    r.add("vxg.index_sizes", detail("vxg_col has ", m.vxg_col().size(),
                                    " entries, vxg_q has ", m.vxg_q().size()));
    return false;
  }

  // Precision header: the dtype tag must be a concrete storable dtype
  // (reduced only on float matrices) and the sparsify fields finite.
  const ValueType vt = m.value_type();
  if (vt != ValueType::kF32 && !value_type_is_reduced(vt)) {
    r.add("precision.dtype", detail("stored value dtype tag ", static_cast<int>(vt),
                                    " is not a concrete dtype"));
    return false;
  }
  if (value_type_is_reduced(vt) && !std::is_same_v<T, float>) {
    r.add("precision.dtype", detail("reduced dtype ", value_type_name(vt),
                                    " on a non-float matrix"));
    return false;
  }
  if (!std::isfinite(m.sparsify_eps()) || m.sparsify_eps() < 0.0 ||
      !std::isfinite(m.sparsify_error_bound()) || m.sparsify_error_bound() < 0.0) {
    r.add("precision.header", detail("sparsify eps ", m.sparsify_eps(), " / error bound ",
                                     m.sparsify_error_bound(),
                                     " must be finite and non-negative"));
    ok = false;
  }

  // Storage arrays sized for the variant; exactly one value array (per the
  // dtype tag) is populated.
  const auto num_vxgs = static_cast<std::size_t>(m.num_vxgs());
  const std::size_t stored = vt == ValueType::kF32 ? m.values().size()
                                                   : m.values_u16().size();
  const std::size_t other = vt == ValueType::kF32 ? m.values_u16().size()
                                                  : m.values().size();
  if (other != 0) {
    r.add("storage.sizes", detail("matrix tagged ", value_type_name(vt), " also carries ",
                                  other, " slots of the other value array"));
    ok = false;
  }
  if (m.variant() == CscvMatrix<T>::Variant::kZ) {
    if (stored != num_vxgs * static_cast<std::size_t>(v) * s) {
      r.add("storage.sizes", detail("kZ values array has ", stored,
                                    " slots, want num_vxgs*S_VxG*S_VVec = ",
                                    num_vxgs * static_cast<std::size_t>(v) * s));
      ok = false;
    }
    if (!m.masks().empty()) {
      r.add("storage.sizes", detail("kZ matrix carries ", m.masks().size(), " masks"));
      ok = false;
    }
  } else {
    // kM over-allocates one vector of zero slack for branch-free expanders.
    if (stored != static_cast<std::size_t>(m.stored_nnz()) + s) {
      r.add("storage.sizes", detail("kM values array has ", stored,
                                    " slots, want stored nnz + S_VVec = ",
                                    static_cast<std::size_t>(m.stored_nnz()) + s));
      ok = false;
    }
    if (m.masks().size() != num_vxgs * static_cast<std::size_t>(v)) {
      r.add("storage.sizes", detail("kM mask array has ", m.masks().size(),
                                    " entries, want num_vxgs*S_VxG = ",
                                    num_vxgs * static_cast<std::size_t>(v)));
      ok = false;
    }
  }
  if (!ok) return false;

  // Per-block table invariants: coordinates match the block id, VxG ranges
  // tile [0, num_vxgs) contiguously, o_count covers the VxG chunking, and
  // the value cursor advances consistently with the variant.
  offset_t vxg_cursor = 0;
  offset_t val_cursor = 0;
  std::size_t max_slots = 0;
  for (int b = 0; b < static_cast<int>(blocks.size()); ++b) {
    const auto& info = blocks[static_cast<std::size_t>(b)];
    ++r.blocks_checked;
    if (info.view_group != m.grid().group_of(b) || info.tile_y != m.grid().tile_y_of(b) ||
        info.tile_x != m.grid().tile_x_of(b)) {
      r.add("block.coords", detail("block ", b, " stores (g,ty,tx) = (", info.view_group,
                                   ",", info.tile_y, ",", info.tile_x,
                                   "), id decodes to (", m.grid().group_of(b), ",",
                                   m.grid().tile_y_of(b), ",", m.grid().tile_x_of(b), ")"));
      ok = false;
    }
    if (info.vxg_begin != vxg_cursor || info.vxg_end < info.vxg_begin) {
      r.add("block.vxg_contiguous",
            detail("block ", b, " VxG range [", info.vxg_begin, ", ", info.vxg_end,
                   ") does not continue at cursor ", vxg_cursor));
      ok = false;
      return ok;  // downstream ranges are meaningless now
    }
    vxg_cursor = info.vxg_end;
    const bool empty = info.vxg_begin == info.vxg_end;
    if (info.o_count < 0 || (empty && info.o_count != 0) ||
        (!empty && info.o_count < v)) {
      r.add("block.o_count", detail("block ", b, " has o_count = ", info.o_count,
                                    " for ", info.vxg_end - info.vxg_begin, " VxGs"));
      ok = false;
    }
    const std::size_t slots = static_cast<std::size_t>(std::max(info.o_count, 0)) * s;
    max_slots = std::max(max_slots, slots);
    if (slots > m.ytilde_max_slots()) {
      r.add("block.ytilde_bound",
            detail("block ", b, " needs ", slots, " y~ slots, matrix advertises ",
                   m.ytilde_max_slots()));
      ok = false;
    }
    if (m.variant() == CscvMatrix<T>::Variant::kZ) {
      if (info.val_begin != info.vxg_begin * v * s) {
        r.add("block.val_begin", detail("block ", b, " kZ val_begin = ", info.val_begin,
                                        ", want vxg_begin*S_VxG*S_VVec = ",
                                        info.vxg_begin * v * s));
        ok = false;
      }
    } else {
      if (info.val_begin < val_cursor || info.val_begin > m.stored_nnz()) {
        r.add("block.val_cursor", detail("block ", b, " kM val_begin = ", info.val_begin,
                                         " not monotone in [", val_cursor, ", ",
                                         m.stored_nnz(), "]"));
        ok = false;
      }
      val_cursor = std::max(val_cursor, info.val_begin);
    }
  }
  if (vxg_cursor != m.num_vxgs()) {
    r.add("block.vxg_contiguous", detail("block table covers ", vxg_cursor,
                                         " VxGs, index arrays hold ", m.num_vxgs()));
    ok = false;
  }
  if (max_slots != m.ytilde_max_slots()) {
    r.add("ytilde.max_slots", detail("largest block needs ", max_slots,
                                     " y~ slots, matrix advertises ",
                                     m.ytilde_max_slots()));
    ok = false;
  }

  // Reference bins must lie on the detector (dead lanes store 0, in range).
  const auto refs = m.reference_bins();
  for (std::size_t i = 0; i < refs.size(); ++i) {
    if (refs[i] < 0 || refs[i] >= layout.num_bins) {
      r.add("refs.range", detail("reference bin ", refs[i], " of block ", i / s,
                                 " lane ", i % s, " off the detector"));
      ok = false;
    }
  }
  if (!ok) return false;

  // Per-VxG index bounds, with the owning block as context: the column must
  // be a pixel of the block's image tile (IOBLR groups by tile), and the
  // start slot must keep the whole S_VxG*S_VVec window inside block y~.
  for (int b = 0; b < static_cast<int>(blocks.size()); ++b) {
    const auto& info = blocks[static_cast<std::size_t>(b)];
    const int px0 = info.tile_x * m.params().s_imgb;
    const int py0 = info.tile_y * m.params().s_imgb;
    const int px1 = std::min(px0 + m.params().s_imgb, layout.image_size);
    const int py1 = std::min(py0 + m.params().s_imgb, layout.image_size);
    for (offset_t g = info.vxg_begin; g < info.vxg_end; ++g) {
      ++r.vxgs_checked;
      const index_t col = m.vxg_col()[static_cast<std::size_t>(g)];
      if (col < 0 || col >= layout.num_cols()) {
        r.add("vxg.column_range", detail("VxG ", g, " column ", col, " outside [0, ",
                                         layout.num_cols(), ")"));
        ok = false;
        continue;
      }
      const int px = layout.px_of_col(col);
      const int py = layout.py_of_col(col);
      if (px < px0 || px >= px1 || py < py0 || py >= py1) {
        r.add("vxg.column_in_tile",
              detail("VxG ", g, " column ", col, " = pixel (", px, ",", py,
                     ") outside tile [", px0, ",", px1, ")x[", py0, ",", py1,
                     ") of block ", b));
        ok = false;
      }
      const std::int32_t q = m.vxg_q()[static_cast<std::size_t>(g)];
      if (q < 0 || q % s != 0 ||
          static_cast<std::size_t>(q) + static_cast<std::size_t>(v) * s >
              static_cast<std::size_t>(info.o_count) * s) {
        r.add("vxg.q_bounds",
              detail("VxG ", g, " start slot ", q, " (block ", b, ", o_count ",
                     info.o_count, ") breaks 0 <= q, q % S_VVec == 0, q + S_VxG*S_VVec",
                     " <= o_count*S_VVec"));
        ok = false;
      }
    }
  }
  return ok;
}

/// Full tier: IOBLR slot->row injectivity, CSCV-M popcount accounting, and
/// CSCV-Z dead-slot scanning. Assumes verify_tables returned true (so every
/// table index below is in bounds).
template <typename T>
void verify_contents(const CscvMatrix<T>& m, VerifyReport& r) {
  const int s = m.params().s_vvec;
  const int v = m.params().s_vxg;
  const OperatorLayout layout = m.stored_layout();
  const auto blocks = m.blocks();
  const auto refs = m.reference_bins();

  // ---- IOBLR injectivity ------------------------------------------------
  // Live slots of one block must map to pairwise-distinct matrix rows (the
  // paper's iota_k is a bijection onto the rows it covers); a collision
  // would double-count a sinogram entry in scatter and drop one in gather.
  std::vector<index_t> rows;
  for (int b = 0; b < static_cast<int>(blocks.size()); ++b) {
    const auto& info = blocks[static_cast<std::size_t>(b)];
    if (info.o_count == 0) continue;
    const int v0 = m.grid().first_view(info.view_group);
    const int s_eff = std::min(s, layout.num_views - v0);
    rows.clear();
    for (int vi = 0; vi < s_eff; ++vi) {
      const index_t ref = refs[static_cast<std::size_t>(b) * s + vi];
      for (int o = 0; o < info.o_count; ++o) {
        const int bin = ref + info.o_min + o;
        if (bin < 0 || bin >= layout.num_bins) continue;  // dead slot
        rows.push_back(layout.row_of(v0 + vi, bin));
        ++r.slots_checked;
      }
    }
    std::sort(rows.begin(), rows.end());
    if (std::adjacent_find(rows.begin(), rows.end()) != rows.end()) {
      r.add("ioblr.injective",
            detail("block ", b, " maps two live y~ slots to matrix row ",
                   *std::adjacent_find(rows.begin(), rows.end())));
    }
    if (!rows.empty() && (rows.front() < 0 || rows.back() >= layout.num_rows())) {
      r.add("ioblr.row_range", detail("block ", b, " live slots cover rows [",
                                      rows.front(), ", ", rows.back(),
                                      "], matrix has ", layout.num_rows()));
    }
  }

  if (m.variant() == CscvMatrix<T>::Variant::kM) {
    // ---- CSCV-M mask accounting ----------------------------------------
    // The packed-value cursor is implicit: kernels advance it by popcount.
    // Verify the advertised per-block cursors and the grand total against
    // the masks, and that no mask addresses lanes past S_VVec.
    const std::uint32_t lane_mask = (1u << s) - 1u;
    offset_t cursor = 0;
    for (int b = 0; b < static_cast<int>(blocks.size()); ++b) {
      const auto& info = blocks[static_cast<std::size_t>(b)];
      if (info.val_begin != cursor) {
        r.add("mask.val_cursor",
              detail("block ", b, " val_begin = ", info.val_begin,
                     ", mask popcounts place the packed cursor at ", cursor));
        cursor = info.val_begin;  // resynchronize to localize later reports
      }
      for (offset_t g = info.vxg_begin; g < info.vxg_end; ++g) {
        for (int e = 0; e < v; ++e) {
          const std::uint16_t mask = m.masks()[static_cast<std::size_t>(g * v + e)];
          if ((mask & ~lane_mask) != 0) {
            r.add("mask.high_bits", detail("CSCVE ", g * v + e, " mask ", mask,
                                           " addresses lanes past S_VVec = ", s));
          }
          cursor += std::popcount(static_cast<std::uint32_t>(mask & lane_mask));
        }
      }
    }
    r.values_nonzero = static_cast<std::uint64_t>(std::max<offset_t>(cursor, 0));
    if (cursor != m.stored_nnz()) {
      r.add("mask.popcount_total", detail("mask popcounts sum to ", cursor,
                                          ", matrix stores nnz = ", m.stored_nnz()));
    }
  } else {
    // ---- CSCV-Z padding accounting -------------------------------------
    // Stored nonzeros can never exceed nnz(A), and a nonzero value must sit
    // in a live slot — padding and dead lanes are zero by construction, so
    // a nonzero there means the offset/reference data no longer matches the
    // values (exactly the unlocalizable corruption this verifier exists
    // for).
    for (int b = 0; b < static_cast<int>(blocks.size()); ++b) {
      const auto& info = blocks[static_cast<std::size_t>(b)];
      const int v0 = m.grid().first_view(info.view_group);
      const int s_eff = std::min(s, layout.num_views - v0);
      for (offset_t g = info.vxg_begin; g < info.vxg_end; ++g) {
        const std::int32_t q = m.vxg_q()[static_cast<std::size_t>(g)];
        for (int e = 0; e < v; ++e) {
          for (int l = 0; l < s; ++l) {
            if (m.stored_value(g * v * s + e * s + l) == T(0)) continue;
            ++r.values_nonzero;
            const int o_idx = q / s + e;
            const int bin = refs[static_cast<std::size_t>(b) * s + l] + info.o_min + o_idx;
            if (l >= s_eff || bin < 0 || bin >= layout.num_bins) {
              r.add("values.dead_slot",
                    detail("VxG ", g, " CSCVE ", e, " lane ", l,
                           " holds a nonzero in a dead slot (block ", b, ", bin ", bin,
                           ")"));
            }
          }
        }
      }
    }
    if (r.values_nonzero > static_cast<std::uint64_t>(m.stored_nnz())) {
      r.add("values.nonzero_count", detail("kZ stores ", r.values_nonzero,
                                           " nonzero values, matrix advertises nnz = ",
                                           m.stored_nnz()));
    }
  }
}

/// Epsilon tier: the sparsification certificate. A sparsified matrix
/// promises every surviving stored nonzero has |v| >= eps — that is what
/// makes the stored error bound a certificate rather than a log line. The
/// walk sees widened stored values, and narrowing to a reduced dtype may
/// round a kept value just below eps, so the threshold is relaxed by that
/// dtype's worst-case rounding (relative unit roundoff plus half the
/// smallest subnormal): survivors certify against eps as *converted*
/// values, not as the exact fp32 values sparsify saw.
template <typename T>
void verify_epsilon(const CscvMatrix<T>& m, VerifyReport& r) {
  double eps = m.sparsify_eps();
  if (eps <= 0.0) return;  // never sparsified: nothing was certified
  switch (m.value_type()) {
    case ValueType::kBf16: eps -= eps * 0x1p-8 + 0x1p-133; break;
    case ValueType::kF16: eps -= eps * 0x1p-11 + 0x1p-25; break;
    default: break;
  }
  const int s = m.params().s_vvec;
  const int v = m.params().s_vxg;
  if (m.variant() == CscvMatrix<T>::Variant::kM) {
    for (offset_t i = 0; i < m.stored_nnz(); ++i) {
      const double val = std::abs(static_cast<double>(m.stored_value(i)));
      if (val < eps) {
        r.add("sparsify.certificate",
              detail("packed value ", i, " has |v| = ", val,
                     " below the certified eps ", eps));
      }
    }
  } else {
    const offset_t total = static_cast<offset_t>(m.num_vxgs()) * v * s;
    for (offset_t i = 0; i < total; ++i) {
      const T stored = m.stored_value(i);
      if (stored == T(0)) continue;
      const double val = std::abs(static_cast<double>(stored));
      if (val < eps) {
        r.add("sparsify.certificate",
              detail("kZ slot ", i, " has nonzero |v| = ", val,
                     " below the certified eps ", eps));
      }
    }
  }
}

}  // namespace

template <typename T>
VerifyReport verify(const CscvMatrix<T>& m, VerifyLevel level) {
  VerifyReport r;
  r.level = level;
  const bool tables_ok = verify_tables(m, r);
  // The deeper tiers index the tables they walk; skip them when the cheap
  // tier already found the tables inconsistent (the report says why).
  if (level != VerifyLevel::kCheap && tables_ok) verify_contents(m, r);
  if (level == VerifyLevel::kEpsilon && tables_ok) verify_epsilon(m, r);
  return r;
}

template <typename T>
VerifyReport verify(const SpmvPlan<T>& plan, VerifyLevel level) {
  VerifyReport r;
  if (plan.matrix() == nullptr) {
    r.level = level;
    r.add("plan.matrix", "plan holds no matrix");
    return r;
  }
  const CscvMatrix<T>& m = *plan.matrix();
  r = verify(m, level);

  if (plan.threads() < 1) {
    r.add("plan.threads", detail("plan built for ", plan.threads(), " partition slots"));
  }
  if (plan.num_rhs() < 1) {
    r.add("plan.num_rhs", detail("plan built for ", plan.num_rhs(), " right-hand sides"));
  }
  const auto work = plan.work_per_slot();
  if (static_cast<int>(work.size()) != plan.threads()) {
    r.add("plan.work_slots", detail(work.size(), " work slots for ", plan.threads(),
                                    " partition slots"));
  }
  std::uint64_t total = 0;
  for (std::uint64_t w : work) total += w;
  if (total != static_cast<std::uint64_t>(m.num_vxgs())) {
    r.add("plan.work_total", detail("partition accounts for ", total, " VxGs, matrix has ",
                                    m.num_vxgs()));
  }
  // Each partition slot owns one aligned y~ stripe able to hold the largest
  // block (times num_rhs); the private-y reduction pool only adds to this.
  const std::uint64_t need = static_cast<std::uint64_t>(plan.threads()) *
                             static_cast<std::uint64_t>(m.ytilde_max_slots()) *
                             static_cast<std::uint64_t>(plan.num_rhs()) * sizeof(T);
  if (plan.scratch_bytes() < need) {
    r.add("plan.scratch_bound", detail("plan scratch is ", plan.scratch_bytes(),
                                       " bytes, largest block needs ", need));
  }
  const PlanStats stats = plan.stats();
  if (stats.nnz != static_cast<std::uint64_t>(m.nnz()) ||
      stats.num_vxgs != static_cast<std::uint64_t>(m.num_vxgs()) ||
      stats.padded_values != static_cast<std::uint64_t>(m.padded_values())) {
    r.add("plan.stats_consistent",
          detail("PlanStats (nnz ", stats.nnz, ", vxgs ", stats.num_vxgs, ", padded ",
                 stats.padded_values, ") disagrees with the matrix (", m.nnz(), ", ",
                 m.num_vxgs(), ", ", m.padded_values(), ")"));
  }
  if (total > 0 && stats.load_imbalance < 1.0) {
    r.add("plan.load_imbalance",
          detail("max/mean work ratio ", stats.load_imbalance, " below 1"));
  }
  return r;
}

template VerifyReport verify<float>(const CscvMatrix<float>&, VerifyLevel);
template VerifyReport verify<double>(const CscvMatrix<double>&, VerifyLevel);
template VerifyReport verify<float>(const SpmvPlan<float>&, VerifyLevel);
template VerifyReport verify<double>(const SpmvPlan<double>&, VerifyLevel);

}  // namespace cscv::core
