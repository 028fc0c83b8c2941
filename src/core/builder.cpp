// CSCV construction: IOBLR reordering + CSCVE/VxG packing (Section IV).
//
// Two parallel passes over image tiles: count, then fill — the same
// count-then-fill pattern as ct::build_system_matrix_csc_range. A tile owns
// the blocks of every view group over its pixels and walks the groups in
// ascending order with one cursor per tile column into the CSC: rows are
// view-major and ascending within a column, so each group's nonzeros of a
// column are the next run of it. Pass 1 fixes each block's reference
// curve, offset window, VxG count and value count; a scan in block-id order
// places every block in the flat arrays; pass 2 lays the same VxGs out again
// and writes them in place. What a block writes depends on that block's
// nonzeros alone, so the arrays are the same bytes at any thread count.
//
// A matrix that folds (docs/FORMAT.md §9) is first checked entry for entry
// against the scan's symmetry; then the same two passes build views
// 0..V/4 only, with the tile-column cursors stopping at the quarter's last
// row, so the CSC is never copied.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "core/format.hpp"
#include "core/verify.hpp"
#include "simd/expand.hpp"
#include "util/assertx.hpp"
#include "util/parallel.hpp"
#include "util/prefix_sum.hpp"

namespace cscv::core {

namespace {

using sparse::index_t;
using sparse::offset_t;

/// One CSC nonzero of the block being laid out: view lane, bin (the offset
/// o = bin - r(vi) once the reference curve is known) and value.
template <typename T>
struct Entry {
  std::int32_t vi;
  std::int32_t o;
  T val;
};

/// One VxG: S_VxG consecutive offsets of one column starting at o_start.
/// Its nonzeros are by_offset[first, last), in (offset, lane) order.
struct Vxg {
  index_t col;
  std::int32_t o_start;
  std::size_t first;
  std::size_t last;
};

/// Stable counting sort of [first, last) by key(x) in [0, range) into `out`.
template <typename It, typename Out, typename Key>
void bucket_sort(It first, It last, Out out, std::vector<std::size_t>& bucket,
                 std::size_t range, Key key) {
  bucket.assign(range, 0);
  for (It it = first; it != last; ++it) ++bucket[key(*it)];
  util::exclusive_scan_in_place(bucket);
  for (It it = first; it != last; ++it) out[bucket[key(*it)]++] = *it;
}

/// Per-thread working set of both passes, reused tile after tile.
template <typename T>
struct Scratch {
  std::vector<index_t> cols;           // the tile's columns, row-major
  std::vector<offset_t> cursor;        // per tile column: next CSC position
  std::vector<Entry<T>> entries;       // block nonzeros, column by column
  std::vector<std::size_t> col_begin;  // per tile column, into entries
  std::vector<Entry<T>> by_offset;     // the same, (offset, lane) order per column
  std::vector<Vxg> vxgs;               // natural order
  std::vector<Vxg> sorted;             // VxgOrder applied
  std::vector<std::size_t> bucket;     // counting-sort buckets
};

template <typename T>
class TileBuilder {
 public:
  TileBuilder(const sparse::CscMatrix<T>& a, const OperatorLayout& layout,
              const CscvParams& params, const BlockGrid& grid)
      : a_(a), layout_(layout), params_(params), grid_(grid) {}

  /// Stored nnz per tile, tile id = ty * tiles_x + tx: the pass partition
  /// weights. Only rows of the layout's views count (all of a column unless
  /// the layout is a folded quarter).
  [[nodiscard]] std::vector<std::uint64_t> tile_weights() const {
    std::vector<std::uint64_t> w(static_cast<std::size_t>(grid_.tiles_y * grid_.tiles_x), 0);
    const auto cp = a_.col_ptr();
    const auto rows = a_.row_idx();
    const index_t row_end = layout_.num_rows();
    for (index_t col = 0; col < layout_.num_cols(); ++col) {
      const int tile = layout_.py_of_col(col) / params_.s_imgb * grid_.tiles_x +
                       layout_.px_of_col(col) / params_.s_imgb;
      const auto first = rows.begin() + cp[static_cast<std::size_t>(col)];
      auto last = rows.begin() + cp[static_cast<std::size_t>(col) + 1];
      if (row_end < a_.rows()) last = std::lower_bound(first, last, row_end);
      w[static_cast<std::size_t>(tile)] += static_cast<std::uint64_t>(last - first);
    }
    return w;
  }

  /// Calls fn(block, scratch) for every block of `tile`, view group by view
  /// group, with the block's nonzeros gathered into scratch.entries.
  template <typename Fn>
  void for_each_block(int tile, Scratch<T>& s, Fn&& fn) const {
    const int ty = tile / grid_.tiles_x;
    const int tx = tile % grid_.tiles_x;
    const Window w = window(tx, ty);
    s.cols.clear();
    s.cursor.clear();
    for (int py = w.py0; py < w.py1; ++py) {
      for (int px = w.px0; px < w.px1; ++px) {
        const index_t col = layout_.col_of_pixel(px, py);
        s.cols.push_back(col);
        s.cursor.push_back(a_.col_ptr()[static_cast<std::size_t>(col)]);
      }
    }
    for (int g = 0; g < grid_.view_groups; ++g) {
      gather(g, s);
      fn(grid_.block_id(g, ty, tx), s);
    }
  }

  /// r(vi) for the lanes of the block's views (docs/FORMAT.md §3) into
  /// refs[0, s_eff); the lanes past the last view keep 0.
  void reference_curve(int block, const Scratch<T>& s, index_t* refs) const {
    const int s_eff = lanes(grid_.group_of(block));
    constexpr int kNone = std::numeric_limits<int>::max();
    // The per-view min bin over the block: the kMinEnvelope curve, and the
    // fallback where the reference pixel has no nonzero at some view.
    // (S_VVec <= 16.)
    std::array<int, 16> envelope;
    envelope.fill(kNone);
    for (const Entry<T>& e : s.entries) {
      envelope[static_cast<std::size_t>(e.vi)] =
          std::min(envelope[static_cast<std::size_t>(e.vi)], e.o);
    }
    if (params_.reference == ReferenceStrategy::kConstantBtb) {
      // Block Transpose Buffer: one constant bin for the whole block, so
      // offsets are absolute bins. The block has a nonzero, so some view
      // has a finite envelope.
      const int block_min = *std::min_element(envelope.begin(), envelope.begin() + s_eff);
      std::fill(refs, refs + s_eff, block_min);
      return;
    }
    std::array<int, 16> ref_min;
    ref_min.fill(kNone);
    if (params_.reference != ReferenceStrategy::kMinEnvelope) {
      // The reference pixel's entries are in (lane, bin) order, so the first
      // one of each lane holds its min bin.
      const Window w = window(grid_.tile_x_of(block), grid_.tile_y_of(block));
      int rx = w.px0;
      int ry = w.py0;
      if (params_.reference == ReferenceStrategy::kBlockCenter) {
        rx = std::min(w.px0 + params_.s_imgb / 2, w.px1 - 1);
        ry = std::min(w.py0 + params_.s_imgb / 2, w.py1 - 1);
      }
      const auto k = static_cast<std::size_t>((ry - w.py0) * (w.px1 - w.px0) + (rx - w.px0));
      for (std::size_t i = s.col_begin[k]; i < s.col_begin[k + 1]; ++i) {
        auto& slot = ref_min[static_cast<std::size_t>(s.entries[i].vi)];
        if (slot == kNone) slot = s.entries[i].o;
      }
    }
    for (int vi = 0; vi < s_eff; ++vi) {
      int r = ref_min[static_cast<std::size_t>(vi)];
      if (r == kNone) r = envelope[static_cast<std::size_t>(vi)];
      refs[vi] = r == kNone ? 0 : r;  // 0 when the view is empty in the block
    }
  }

  /// Turns the block's bins into offsets against `refs` and appends every
  /// column's VxGs to vxgs; with `place`, also writes each column's
  /// nonzeros in (offset, lane) order into by_offset, where the VxGs' ranges
  /// point. Each maximal run of consecutive offsets is cut into S_VxG-offset
  /// chunks from the run's first offset. A run's tail chunk can reach into
  /// the column's next run; the next run's VxGs own those offsets, and the
  /// tail chunk's lanes there stay empty (docs/FORMAT.md §4).
  void layout_vxgs(const index_t* refs, bool place, Scratch<T>& s) const {
    const auto vxg = static_cast<std::size_t>(params_.s_vxg);
    for (Entry<T>& e : s.entries) e.o -= refs[e.vi];
    if (place) s.by_offset.resize(s.entries.size());
    s.vxgs.clear();
    for (std::size_t k = 0; k + 1 < s.col_begin.size(); ++k) {
      const std::size_t b = s.col_begin[k];
      const std::size_t e = s.col_begin[k + 1];
      if (b == e) continue;
      std::int32_t lo = s.entries[b].o;
      std::int32_t hi = lo;
      for (std::size_t i = b; i < e; ++i) {
        lo = std::min(lo, s.entries[i].o);
        hi = std::max(hi, s.entries[i].o);
      }
      // Counting sort by offset: offset lo + j holds [at[j], at[j + 1]).
      const auto range = static_cast<std::size_t>(hi - lo + 1);
      auto& at = s.bucket;
      at.assign(range + 1, 0);
      for (std::size_t i = b; i < e; ++i) ++at[static_cast<std::size_t>(s.entries[i].o - lo) + 1];
      for (std::size_t j = 1; j <= range; ++j) at[j] += at[j - 1];
      for (std::size_t j = 0; j < range;) {
        if (at[j + 1] == at[j]) {
          ++j;
          continue;
        }
        std::size_t run_end = j + 1;  // one past the run's last offset
        while (run_end < range && at[run_end + 1] > at[run_end]) ++run_end;
        for (; j < run_end; j += vxg) {
          s.vxgs.push_back({s.cols[k], lo + static_cast<std::int32_t>(j), b + at[j],
                            b + at[std::min(j + vxg, run_end)]});
        }
        j = run_end;
      }
      if (!place) continue;
      for (std::size_t i = b; i < e; ++i) {
        s.by_offset[b + at[static_cast<std::size_t>(s.entries[i].o - lo)]++] = s.entries[i];
      }
    }
  }

  /// The block's VxGs in params.order: stable counting sorts, so ties keep
  /// the natural (column, offset) order.
  const std::vector<Vxg>& ordered(std::int32_t o_min, std::int32_t o_count,
                                  Scratch<T>& s) const {
    switch (params_.order) {
      case VxgOrder::kNatural:
        return s.vxgs;
      case VxgOrder::kByOffset:
        s.sorted.resize(s.vxgs.size());
        bucket_sort(s.vxgs.begin(), s.vxgs.end(), s.sorted.begin(), s.bucket,
                    static_cast<std::size_t>(o_count), [o_min](const Vxg& v) {
                      return static_cast<std::size_t>(v.o_start - o_min);
                    });
        return s.sorted;
      case VxgOrder::kByCount: {
        // Descending nonzero count.
        const auto most = static_cast<std::size_t>(params_.s_vxg * params_.s_vvec);
        s.sorted.resize(s.vxgs.size());
        bucket_sort(s.vxgs.begin(), s.vxgs.end(), s.sorted.begin(), s.bucket, most + 1,
                    [most](const Vxg& v) { return most - (v.last - v.first); });
        return s.sorted;
      }
    }
    return s.vxgs;
  }

 private:
  /// Pixel window [px0, px1) x [py0, py1) of tile (tx, ty); edge tiles are
  /// cut at the image border.
  struct Window {
    int px0, px1, py0, py1;
  };
  [[nodiscard]] Window window(int tx, int ty) const {
    const int px0 = tx * params_.s_imgb;
    const int py0 = ty * params_.s_imgb;
    return {px0, std::min(px0 + params_.s_imgb, layout_.image_size), py0,
            std::min(py0 + params_.s_imgb, layout_.image_size)};
  }

  /// View lanes of group g that hold a view.
  [[nodiscard]] int lanes(int g) const {
    return std::min(params_.s_vvec, layout_.num_views - grid_.first_view(g));
  }

  /// Gathers view group g's nonzeros of every tile column into s.entries
  /// (lane, bin), advancing the column cursors past them.
  void gather(int g, Scratch<T>& s) const {
    const auto rows = a_.row_idx();
    const auto vals = a_.values();
    const auto cp = a_.col_ptr();
    const int s_eff = lanes(g);
    const index_t row_lo = layout_.row_of(grid_.first_view(g), 0);
    s.entries.clear();
    s.col_begin.clear();
    for (std::size_t k = 0; k < s.cols.size(); ++k) {
      s.col_begin.push_back(s.entries.size());
      const auto end = cp[static_cast<std::size_t>(s.cols[k]) + 1];
      offset_t at = s.cursor[k];
      // Rows below the group are not CSCV rows; skipping them (instead of
      // assigning them a lane) leaves them to the lost-nonzeros check.
      while (at < end && rows[static_cast<std::size_t>(at)] < row_lo) ++at;
      for (int vi = 0; vi < s_eff; ++vi) {
        const index_t view_lo = row_lo + static_cast<index_t>(vi) * layout_.num_bins;
        const index_t view_hi = view_lo + layout_.num_bins;
        for (; at < end && rows[static_cast<std::size_t>(at)] < view_hi; ++at) {
          s.entries.push_back({vi, rows[static_cast<std::size_t>(at)] - view_lo,
                               vals[static_cast<std::size_t>(at)]});
        }
      }
      s.cursor[k] = at;
    }
    s.col_begin.push_back(s.entries.size());
  }

  const sparse::CscMatrix<T>& a_;
  const OperatorLayout& layout_;
  const CscvParams& params_;
  const BlockGrid& grid_;
};

/// out[u] = first position of CSC column `col` at a row of view >= u, for
/// u in [0, views]: each view's entries of the column are [out[u], out[u+1]).
template <typename T>
void view_runs(const sparse::CscMatrix<T>& a, index_t col, index_t bins, int views,
               std::vector<offset_t>& out) {
  const auto rows = a.row_idx();
  offset_t p = a.col_ptr()[static_cast<std::size_t>(col)];
  const offset_t end = a.col_ptr()[static_cast<std::size_t>(col) + 1];
  out.resize(static_cast<std::size_t>(views) + 1);
  for (int u = 0; u <= views; ++u) {
    const index_t lo = static_cast<index_t>(u) * bins;
    while (p < end && rows[static_cast<std::size_t>(p)] < lo) ++p;
    out[static_cast<std::size_t>(u)] = p;
  }
}

/// Whether `a` folds: V % 4 == 0 and every view w outside [0, V/4] holds,
/// bin for bin and bit for bit, the entries of its canonical view v at the
/// pixel its owning image maps the column to (ct::ViewFold), with none
/// missing. One parallel pass over the columns; every thread stops at the
/// first mismatch any of them finds.
template <typename T>
bool folds(const sparse::CscMatrix<T>& a, const OperatorLayout& layout) {
  const int views = layout.num_views;
  if (views % 4 != 0) return false;
  const ct::ViewFold fold{views};
  const int quarter = fold.quarter_views();
  const int n = layout.image_size;
  const index_t bins = layout.num_bins;
  const auto rows = a.row_idx();
  const auto vals = a.values();
  std::atomic<bool> mismatch{false};
  util::parallel_region([&](int tid, int nthreads) {
    std::vector<offset_t> own;
    std::array<std::vector<offset_t>, ct::ViewFold::kImages> canon;
    const auto [c0, c1] =
        util::static_partition(static_cast<std::size_t>(layout.num_cols()), nthreads, tid);
    for (std::size_t c = c0; c < c1 && !mismatch.load(std::memory_order_relaxed); ++c) {
      const auto col = static_cast<index_t>(c);
      view_runs(a, col, bins, views, own);
      for (int f = ct::ViewFold::kT; f < ct::ViewFold::kImages; ++f) {
        const auto [jx, jy] =
            ct::ViewFold::image_pixel(f, n, layout.px_of_col(col), layout.py_of_col(col));
        view_runs(a, layout.col_of_pixel(jx, jy), bins, quarter,
                  canon[static_cast<std::size_t>(f)]);
      }
      for (int w = quarter; w < views; ++w) {
        const ct::ViewFold::Owner o = fold.owner(w);
        const auto& cr = canon[static_cast<std::size_t>(o.image)];
        const auto b = static_cast<std::size_t>(own[static_cast<std::size_t>(w)]);
        const auto len = static_cast<std::size_t>(own[static_cast<std::size_t>(w) + 1]) - b;
        const auto cb = static_cast<std::size_t>(cr[static_cast<std::size_t>(o.view)]);
        bool same =
            len == static_cast<std::size_t>(cr[static_cast<std::size_t>(o.view) + 1]) - cb;
        const index_t shift = static_cast<index_t>(w - o.view) * bins;
        for (std::size_t i = 0; same && i < len; ++i) {
          same = rows[b + i] - shift == rows[cb + i] &&
                 std::memcmp(&vals[b + i], &vals[cb + i], sizeof(T)) == 0;
        }
        if (!same) {
          mismatch.store(true, std::memory_order_relaxed);
          break;
        }
      }
    }
  });
  return !mismatch.load();
}

/// Runs fn(block, scratch) over every block, the tiles split into
/// nnz-balanced contiguous ranges, one scratch per thread.
template <typename T, typename Fn>
void parallel_blocks(const TileBuilder<T>& tb, const std::vector<std::size_t>& bounds,
                     Fn&& fn) {
  const int parts = static_cast<int>(bounds.size()) - 1;
  util::parallel_region([&](int tid, int nthreads) {
    Scratch<T> s;
    for (int p = tid; p < parts; p += nthreads) {
      for (std::size_t t = bounds[static_cast<std::size_t>(p)];
           t < bounds[static_cast<std::size_t>(p) + 1]; ++t) {
        tb.for_each_block(static_cast<int>(t), s, fn);
      }
    }
  });
}

}  // namespace

template <typename T>
CscvMatrix<T> CscvMatrix<T>::build(const sparse::CscMatrix<T>& a, const OperatorLayout& layout,
                                   const CscvParams& params, Variant variant) {
  params.validate();
  layout.validate();
  CSCV_CHECK_MSG(a.rows() == layout.num_rows() && a.cols() == layout.num_cols(),
                 "matrix shape does not match the operator layout");

  CscvMatrix<T> m;
  m.variant_ = variant;
  m.params_ = params;
  m.layout_ = layout;
  m.folded_ = folds(a, layout);
  const OperatorLayout stored = m.stored_layout();
  m.grid_ = BlockGrid(stored, params.s_vvec, params.s_imgb);
  m.nnz_ = a.nnz();

  const int s = params.s_vvec;
  const int vxg = params.s_vxg;
  const int num_blocks = m.grid_.num_blocks();
  const TileBuilder<T> tb(a, stored, params, m.grid_);
  const auto weights = tb.tile_weights();
  for (std::uint64_t w : weights) m.stored_nnz_ += static_cast<offset_t>(w);
  const auto bounds = util::weighted_boundaries(weights, util::max_threads());

  // ---- pass 1: reference curves, offset windows and counts -------------
  struct Count {
    offset_t nnz = 0;     // CSC nonzeros in the block
    offset_t vxgs = 0;
    offset_t values = 0;  // stored: padded (kZ) or nonzero (kM)
  };
  std::vector<Count> counts(static_cast<std::size_t>(num_blocks));
  m.blocks_.resize(static_cast<std::size_t>(num_blocks));
  m.refs_.assign(static_cast<std::size_t>(num_blocks) * s, 0);
  parallel_blocks(tb, bounds, [&](int b, Scratch<T>& sc) {
    Count& c = counts[static_cast<std::size_t>(b)];
    c.nnz = static_cast<offset_t>(sc.entries.size());
    if (sc.entries.empty()) return;  // no VxGs, o_min = o_count = 0, refs 0
    if (variant == Variant::kM) {
      for (const Entry<T>& e : sc.entries) c.values += e.val != T(0) ? 1 : 0;
    }
    index_t* refs = m.refs_.data() + static_cast<std::size_t>(b) * s;
    tb.reference_curve(b, sc, refs);
    tb.layout_vxgs(refs, /*place=*/false, sc);
    std::int32_t o_min = std::numeric_limits<std::int32_t>::max();
    std::int32_t o_max = std::numeric_limits<std::int32_t>::min();
    for (const Vxg& v : sc.vxgs) {
      o_min = std::min(o_min, v.o_start);
      o_max = std::max(o_max, v.o_start + vxg - 1);
    }
    BlockInfo& info = m.blocks_[static_cast<std::size_t>(b)];
    info.o_min = o_min;
    info.o_count = o_max - o_min + 1;
    c.vxgs = static_cast<offset_t>(sc.vxgs.size());
    if (variant == Variant::kZ) c.values = c.vxgs * vxg * s;
  });

  // ---- place every block: scan in block-id order ------------------------
  offset_t total_nnz = 0;
  offset_t vxg_cursor = 0;
  offset_t val_cursor = 0;
  for (int b = 0; b < num_blocks; ++b) {
    const Count& c = counts[static_cast<std::size_t>(b)];
    BlockInfo& info = m.blocks_[static_cast<std::size_t>(b)];
    info.view_group = m.grid_.group_of(b);
    info.tile_y = m.grid_.tile_y_of(b);
    info.tile_x = m.grid_.tile_x_of(b);
    info.vxg_begin = vxg_cursor;
    info.vxg_end = vxg_cursor + c.vxgs;
    info.val_begin = val_cursor;
    vxg_cursor = info.vxg_end;
    val_cursor += c.values;
    total_nnz += c.nnz;
    m.ytilde_max_slots_ =
        std::max(m.ytilde_max_slots_, static_cast<std::size_t>(info.o_count) * s);
  }
  CSCV_CHECK_MSG(total_nnz == m.stored_nnz_, "builder lost nonzeros: " << total_nnz << " of "
                                                                       << m.stored_nnz_);
  if (variant == Variant::kM) {
    CSCV_CHECK_MSG(val_cursor == m.stored_nnz_,
                   "mask packing mismatch: " << val_cursor << " of " << m.stored_nnz_);
  }

  // ---- pass 2: write every block in place ---------------------------------
  // The arrays are sized without being value-initialised: the fill writes
  // every element (padding and mask zeros included), so its writes are the
  // pages' first touch, spread over the threads.
  m.vxg_col_.resize(static_cast<std::size_t>(vxg_cursor));
  m.vxg_q_.resize(static_cast<std::size_t>(vxg_cursor));
  if (variant == Variant::kZ) {
    m.values_.resize(static_cast<std::size_t>(val_cursor));
  } else {
    // One vector of zero tail slack keeps branch-free expansion in-bounds.
    m.values_.resize(static_cast<std::size_t>(val_cursor) + static_cast<std::size_t>(s));
    std::fill(m.values_.begin() + static_cast<std::ptrdiff_t>(val_cursor), m.values_.end(),
              T(0));
    m.masks_.resize(static_cast<std::size_t>(vxg_cursor * vxg));
  }
  const auto lanes = static_cast<std::size_t>(s);
  const auto chunk = static_cast<std::size_t>(vxg);
  index_t* const vxg_col = m.vxg_col_.data();
  std::int32_t* const vxg_q = m.vxg_q_.data();
  T* const values = m.values_.data();
  std::uint16_t* const masks = m.masks_.data();
  parallel_blocks(tb, bounds, [&](int b, Scratch<T>& sc) {
    if (sc.entries.empty()) return;
    const BlockInfo& info = m.blocks_[static_cast<std::size_t>(b)];
    tb.layout_vxgs(m.refs_.data() + static_cast<std::size_t>(b) * s, /*place=*/true, sc);
    auto g = static_cast<std::size_t>(info.vxg_begin);
    auto val = static_cast<std::size_t>(info.val_begin);
    for (const Vxg& v : tb.ordered(info.o_min, info.o_count, sc)) {
      vxg_col[g] = v.col;
      vxg_q[g] = (v.o_start - info.o_min) * s;
      if (variant == Variant::kZ) {
        T* dense = values + g * chunk * lanes;
        std::fill_n(dense, chunk * lanes, T(0));
        for (std::size_t i = v.first; i < v.last; ++i) {
          const Entry<T>& e = sc.by_offset[i];
          dense[static_cast<std::size_t>(e.o - v.o_start) * lanes +
                static_cast<std::size_t>(e.vi)] = e.val;
        }
      } else {
        std::uint16_t* mask = masks + g * chunk;
        std::fill_n(mask, chunk, std::uint16_t{0});
        for (std::size_t i = v.first; i < v.last; ++i) {
          const Entry<T>& e = sc.by_offset[i];
          if (e.val == T(0)) continue;
          mask[e.o - v.o_start] |= static_cast<std::uint16_t>(1u << e.vi);
          values[val++] = e.val;
        }
      }
      ++g;
    }
  });
#ifndef NDEBUG
  // CSCV_DCHECK tier: exhaustively re-check every structural invariant of
  // the freshly built matrix in debug builds (free in release). A failure
  // here is a builder bug, caught at the source instead of as a wrong
  // sinogram downstream.
  verify(m, VerifyLevel::kFull).require_ok("CSCV builder postcondition");
#endif
  return m;
}


template <typename T>
std::size_t CscvMatrix<T>::matrix_bytes() const {
  std::size_t bytes = 0;
  if (variant_ == Variant::kZ) {
    bytes += static_cast<std::size_t>(padded_values()) * value_bytes();
  } else {
    bytes += static_cast<std::size_t>(stored_nnz_) * value_bytes();
    bytes += masks_.size() * sizeof(std::uint16_t);
  }
  bytes += vxg_col_.size() * sizeof(sparse::index_t);
  bytes += vxg_q_.size() * sizeof(std::int32_t);
  bytes += blocks_.size() * sizeof(BlockInfo);
  bytes += refs_.size() * sizeof(sparse::index_t);
  return bytes;
}

template <typename T>
sparse::index_t CscvMatrix<T>::row_of_slot(int block, int o_idx, int vi) const {
  CSCV_DCHECK(block >= 0 && block < num_blocks());
  const BlockInfo& info = blocks_[static_cast<std::size_t>(block)];
  CSCV_DCHECK(o_idx >= 0 && o_idx < info.o_count && vi >= 0 && vi < params_.s_vvec);
  const OperatorLayout stored = stored_layout();
  const int v = grid_.first_view(info.view_group) + vi;
  if (v >= stored.num_views) return -1;
  const int bin = refs_[static_cast<std::size_t>(block) * params_.s_vvec + vi] +
                  info.o_min + o_idx;
  if (bin < 0 || bin >= stored.num_bins) return -1;
  return stored.row_of(v, bin);
}


// ---- value-storage passes (docs/PRECISION.md) ----------------------------

namespace {

/// Walks every *stored* value slot of `m` in storage order, calling
/// fn(value_index, row) — for kZ that includes the padding and dead slots
/// (their stored value is zero), for kM exactly the packed nonzeros. `row`
/// is -1 for slots outside the operator (kZ padding rows).
template <typename T, typename Fn>
void for_each_stored_slot(const CscvMatrix<T>& m, Fn&& fn) {
  const int s = m.params().s_vvec;
  const int vxg = m.params().s_vxg;
  const auto vxg_q = m.vxg_q();
  const auto masks = m.masks();
  const bool is_m = m.variant() == CscvMatrix<T>::Variant::kM;
  for (int b = 0; b < m.num_blocks(); ++b) {
    const auto& info = m.blocks()[static_cast<std::size_t>(b)];
    auto val = info.val_begin;
    for (auto g = info.vxg_begin; g < info.vxg_end; ++g) {
      const int o0 = vxg_q[static_cast<std::size_t>(g)] / s;
      for (int e = 0; e < vxg; ++e) {
        if (!is_m) {
          for (int l = 0; l < s; ++l) {
            fn(val++, m.row_of_slot(b, o0 + e, l));
          }
        } else {
          const std::uint16_t mask = masks[static_cast<std::size_t>(g) *
                                               static_cast<std::size_t>(vxg) +
                                           static_cast<std::size_t>(e)];
          for (int l = 0; l < s; ++l) {
            if ((mask & (1u << l)) != 0) fn(val++, m.row_of_slot(b, o0 + e, l));
          }
        }
      }
    }
  }
}

inline std::uint16_t narrow_to(core::ValueType vt, float v) {
  return vt == core::ValueType::kBf16 ? simd::WidenBf16::narrow(v)
                                      : simd::WidenF16::narrow(v);
}

inline float widen_from(core::ValueType vt, std::uint16_t bits) {
  return vt == core::ValueType::kBf16 ? simd::WidenBf16::widen(bits)
                                      : simd::WidenF16::widen(bits);
}

}  // namespace

template <typename T>
double CscvMatrix<T>::convert_values(ValueType vt) {
  if (vt == value_type_) return 0.0;
  if constexpr (!std::is_same_v<T, float>) {
    CSCV_CHECK_MSG(false, "reduced value storage requires a float matrix, not "
                              << (sizeof(T) * 8) << "-bit elements");
    return 0.0;  // unreachable
  } else {
    double max_row_mass = 0.0;
    if (vt == ValueType::kF32) {
      // Widening back is exact (both reduced dtypes embed into binary32).
      values_.resize(values16_.size());
      for (std::size_t i = 0; i < values16_.size(); ++i) {
        values_[i] = widen_from(value_type_, values16_[i]);
      }
      decltype(values16_)().swap(values16_);  // frees; `= {}` keeps the capacity
    } else {
      const ValueType from = value_type_;
      const auto load = [&](std::size_t i) {
        return from == ValueType::kF32 ? values_[i] : widen_from(from, values16_[i]);
      };
      const std::size_t n = from == ValueType::kF32 ? values_.size() : values16_.size();
      util::AlignedVector<std::uint16_t> out(n);
      for (std::size_t i = 0; i < n; ++i) out[i] = narrow_to(vt, load(i));
      // Certify the storage rounding: per-row l1 mass of |v - rtne(v)|,
      // folded into the same bound the sparsifier maintains (the two error
      // sources add row-wise, so max-row masses add conservatively).
      std::vector<double> row_mass(static_cast<std::size_t>(rows()), 0.0);
      for_each_stored_slot(*this, [&](sparse::offset_t i, sparse::index_t row) {
        if (row < 0) return;
        const auto idx = static_cast<std::size_t>(i);
        const double err = std::abs(static_cast<double>(load(idx)) -
                                    static_cast<double>(widen_from(vt, out[idx])));
        row_mass[static_cast<std::size_t>(row)] += err;
      });
      for (double rm : row_mass) max_row_mass = std::max(max_row_mass, rm);
      values16_ = std::move(out);
      decltype(values_)().swap(values_);  // frees; `= {}` keeps the capacity
      sparsify_bound_ += max_row_mass;
    }
    value_type_ = vt;
    return max_row_mass;
  }
}

template <typename T>
SparsifyReport CscvMatrix<T>::sparsify(double eps) {
  CSCV_CHECK_MSG(value_type_ == ValueType::kF32,
                 "sparsify requires kF32 storage (sparsify before convert_values)");
  CSCV_CHECK_MSG(std::isfinite(eps) && eps >= 0.0, "sparsify eps must be finite and >= 0");
  SparsifyReport rep;
  rep.eps = eps;
  // The report counts operator entries: a stored entry of a folded matrix
  // stands for one entry per full view its canonical view fills. A row's
  // dropped mass is the same in every copy of it.
  const ct::ViewFold fold{layout_.num_views};
  const auto copies = [&](index_t row) -> std::uint64_t {
    return folded_ ? static_cast<std::uint64_t>(fold.owners(row / layout_.num_bins)) : 1;
  };
  offset_t stored_kept = 0;
  std::vector<double> row_mass(static_cast<std::size_t>(rows()), 0.0);
  if (variant_ == Variant::kZ) {
    // Drop in place: the slot stays (padding layout is immutable), its
    // stored value becomes an ordinary padding zero.
    for_each_stored_slot(*this, [&](offset_t i, index_t row) {
      T& v = values_[static_cast<std::size_t>(i)];
      if (v == T(0)) return;
      const std::uint64_t n = copies(row);
      if (std::abs(static_cast<double>(v)) < eps) {
        rep.dropped_mass += static_cast<double>(n) * std::abs(static_cast<double>(v));
        if (row >= 0) row_mass[static_cast<std::size_t>(row)] +=
            std::abs(static_cast<double>(v));
        v = T(0);
        rep.dropped += n;
      } else {
        rep.kept += n;
        ++stored_kept;
      }
    });
  } else {
    // Repack values and masks in place (the write cursor never passes the
    // read cursor), then rewrite each block's val_begin with its new start.
    const int s = params_.s_vvec;
    const int vxg = params_.s_vxg;
    offset_t w = 0;
    for (auto& info : blocks_) {
      const int b = static_cast<int>(&info - blocks_.data());
      offset_t r = info.val_begin;
      info.val_begin = w;
      for (offset_t g = info.vxg_begin; g < info.vxg_end; ++g) {
        const int o0 = vxg_q_[static_cast<std::size_t>(g)] / s;
        for (int e = 0; e < vxg; ++e) {
          auto& mask = masks_[static_cast<std::size_t>(g) * static_cast<std::size_t>(vxg) +
                              static_cast<std::size_t>(e)];
          std::uint16_t new_mask = 0;
          for (int l = 0; l < s; ++l) {
            if ((mask & (1u << l)) == 0) continue;
            const T v = values_[static_cast<std::size_t>(r++)];
            const bool drop = std::abs(static_cast<double>(v)) < eps;
            const index_t row = drop || folded_ ? row_of_slot(b, o0 + e, l) : -1;
            const std::uint64_t n = copies(row);
            if (drop) {
              rep.dropped_mass += static_cast<double>(n) * std::abs(static_cast<double>(v));
              if (row >= 0) row_mass[static_cast<std::size_t>(row)] +=
                  std::abs(static_cast<double>(v));
              rep.dropped += n;
            } else {
              new_mask |= static_cast<std::uint16_t>(1u << l);
              values_[static_cast<std::size_t>(w++)] = v;
              rep.kept += n;
              ++stored_kept;
            }
          }
          mask = new_mask;
        }
      }
    }
    // One vector of tail slack, zeroed, mirroring the builder's layout.
    values_.resize(static_cast<std::size_t>(w) + static_cast<std::size_t>(s));
    std::fill(values_.begin() + static_cast<std::ptrdiff_t>(w), values_.end(), T(0));
  }
  for (double rm : row_mass) rep.max_row_l1 = std::max(rep.max_row_l1, rm);
  nnz_ = static_cast<offset_t>(rep.kept);
  stored_nnz_ = stored_kept;
  sparsify_eps_ = std::max(sparsify_eps_, eps);
  sparsify_bound_ += rep.max_row_l1;  // row-wise error masses add
  return rep;
}

template CscvMatrix<float> CscvMatrix<float>::build(const sparse::CscMatrix<float>&,
                                                    const OperatorLayout&, const CscvParams&,
                                                    CscvMatrix<float>::Variant);
template CscvMatrix<double> CscvMatrix<double>::build(const sparse::CscMatrix<double>&,
                                                      const OperatorLayout&,
                                                      const CscvParams&,
                                                      CscvMatrix<double>::Variant);
template std::size_t CscvMatrix<float>::matrix_bytes() const;
template std::size_t CscvMatrix<double>::matrix_bytes() const;
template sparse::index_t CscvMatrix<float>::row_of_slot(int, int, int) const;
template sparse::index_t CscvMatrix<double>::row_of_slot(int, int, int) const;
template double CscvMatrix<float>::convert_values(ValueType);
template double CscvMatrix<double>::convert_values(ValueType);
template SparsifyReport CscvMatrix<float>::sparsify(double);
template SparsifyReport CscvMatrix<double>::sparsify(double);

}  // namespace cscv::core
