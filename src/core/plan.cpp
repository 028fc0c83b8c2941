// SpmvPlan construction and the warm apply paths (see plan.hpp).
#include "core/plan.hpp"

#include <algorithm>
#include <type_traits>

#include "util/assertx.hpp"
#include "util/parallel.hpp"

namespace cscv::core {

using sparse::index_t;
using sparse::offset_t;

template <typename T>
SpmvPlan<T>::SpmvPlan(const CscvMatrix<T>& a, const PlanOptions& opts)
    : a_(&a) {
  const util::telemetry::Stopwatch build_timer;
  CSCV_CHECK(opts.num_rhs >= 1);
  num_rhs_ = opts.num_rhs;
  threads_ = opts.threads > 0 ? opts.threads : util::max_threads();
  CSCV_CHECK(threads_ >= 1);
  folded_ = a.folded();
  k_stored_ = folded_ ? ct::ViewFold::kImages * num_rhs_ : num_rhs_;
  stored_ = a.stored_layout();

  // Resolve the scheme, dtype, tier and kernels once for every apply.
  scheme_ = opts.scheme;
  if (scheme_ == ThreadScheme::kAuto) {
    scheme_ = a.grid_.view_groups >= threads_ ? ThreadScheme::kRowPartition
                                              : ThreadScheme::kPrivateY;
  }
  if (threads_ == 1) scheme_ = ThreadScheme::kRowPartition;  // trivially race-free
  value_type_ = a.value_type();
  tier_ = dispatch::select_tier_for_dtype(opts.isa, value_type_);
  use_hw_ = a.variant_ == CscvMatrix<T>::Variant::kM &&
            dispatch::resolve_expand_path(opts.path, std::is_same_v<T, double>,
                                          a.params_.s_vvec, tier_.tier);
  kernels_ = dispatch::resolve_kernels<T>(a.variant_, a.params_.s_vvec, a.params_.s_vxg,
                                          use_hw_, k_stored_, tier_.tier, value_type_);
  if (folded_) {
    image_kernels_ = dispatch::resolve_kernels<T>(a.variant_, a.params_.s_vvec,
                                                  a.params_.s_vxg, use_hw_, num_rhs_,
                                                  tier_.tier, value_type_);
  }

  // Weighted partitions: a block's work is its VxG count, so prefix-sum
  // splits balance actual FMA work, not block counts (corner tiles of a CT
  // matrix carry far fewer VxGs than central ones).
  const int tiles_per_group = a.grid_.tiles_x * a.grid_.tiles_y;
  const std::size_t num_groups = static_cast<std::size_t>(a.grid_.view_groups);
  const std::size_t num_blocks = a.blocks_.size();
  std::vector<std::uint64_t> group_w(num_groups, 0);
  std::vector<std::uint64_t> block_w(num_blocks, 0);
  std::vector<std::uint64_t> tile_w(static_cast<std::size_t>(tiles_per_group), 0);
  for (std::size_t b = 0; b < num_blocks; ++b) {
    const auto& info = a.blocks_[b];
    const auto w = static_cast<std::uint64_t>(info.vxg_end - info.vxg_begin);
    block_w[b] = w;
    group_w[static_cast<std::size_t>(info.view_group)] += w;
    tile_w[b % static_cast<std::size_t>(tiles_per_group)] += w;
  }
  group_bounds_ = util::weighted_boundaries(group_w, threads_);
  block_bounds_ = util::weighted_boundaries(block_w, threads_);
  tile_bounds_ = util::weighted_boundaries(tile_w, threads_);

  work_.assign(static_cast<std::size_t>(threads_), 0);
  for (int t = 0; t < threads_; ++t) {
    const auto& bounds = scheme_ == ThreadScheme::kRowPartition ? group_bounds_ : block_bounds_;
    const auto& weights = scheme_ == ThreadScheme::kRowPartition ? group_w : block_w;
    for (std::size_t i = bounds[static_cast<std::size_t>(t)];
         i < bounds[static_cast<std::size_t>(t) + 1]; ++i) {
      work_[static_cast<std::size_t>(t)] += weights[i];
    }
  }

  // Per-thread y~ scratch, one cache-line-aligned stripe per slot.
  const std::size_t slots =
      std::max<std::size_t>(a.ytilde_max_slots_, 1) * static_cast<std::size_t>(k_stored_);
  const std::size_t align_elems = 64 / sizeof(T);
  ytilde_stride_ = (slots + align_elems - 1) / align_elems * align_elems;
  ytilde_pool_.resize(static_cast<std::size_t>(threads_) * ytilde_stride_);

  const std::size_t stored_elems =
      static_cast<std::size_t>(stored_.num_rows()) * static_cast<std::size_t>(k_stored_);
  if (scheme_ == ThreadScheme::kPrivateY) {
    // Private-copy pool plus, per slot, the contiguous y interval its
    // contiguous block range can touch: blocks are view-group-major and a
    // group's rows are contiguous (row = view * num_bins + bin), so slot t
    // only ever writes rows of view groups [group(first block), group(last
    // block)]. Re-zeroing and reducing just these intervals is what keeps
    // the warm path free of the full threads x m fill.
    const std::size_t row_elems =
        static_cast<std::size_t>(stored_.num_bins) * static_cast<std::size_t>(k_stored_);
    row_interval_.assign(static_cast<std::size_t>(threads_), {0, 0});
    for (int t = 0; t < threads_; ++t) {
      const std::size_t b0 = block_bounds_[static_cast<std::size_t>(t)];
      const std::size_t b1 = block_bounds_[static_cast<std::size_t>(t) + 1];
      if (b0 == b1) continue;
      const int g_lo = a.blocks_[b0].view_group;
      const int g_hi = a.blocks_[b1 - 1].view_group;
      const auto v_lo = static_cast<std::size_t>(a.grid_.first_view(g_lo));
      const auto v_hi = std::min<std::size_t>(
          static_cast<std::size_t>(stored_.num_views),
          static_cast<std::size_t>(a.grid_.first_view(g_hi)) +
              static_cast<std::size_t>(a.grid_.s_vvec));
      row_interval_[static_cast<std::size_t>(t)] = {v_lo * row_elems, v_hi * row_elems};
    }
    copies_.resize(static_cast<std::size_t>(threads_) * stored_elems);
  }
  if (folded_) {
    images_.resize(static_cast<std::size_t>(a.cols()) * static_cast<std::size_t>(k_stored_));
    image_rows_.resize(stored_elems);
  }
  counters_.record_plan_build(build_timer.seconds());
}

template <typename T>
void SpmvPlan<T>::run_forward(int block, const T* x, T* ytilde, int k) const {
  const auto& info = a_->blocks_[static_cast<std::size_t>(block)];
  const void* values = a_->value_ptr(info.val_begin);
  const dispatch::KernelSet<T>& ks = k == k_stored_ ? kernels_ : image_kernels_;
  if (k == 1) {
    ks.forward(info.vxg_begin, info.vxg_end, a_->vxg_col_.data(), a_->vxg_q_.data(), values,
               a_->masks_.data(), x, ytilde);
  } else {
    ks.multi(info.vxg_begin, info.vxg_end, a_->vxg_col_.data(), a_->vxg_q_.data(), values,
             a_->masks_.data(), x, k, ytilde);
  }
}

template <typename T>
void SpmvPlan<T>::scatter_add(int block, const T* ytilde, T* dst, int k) const {
  const auto& info = a_->blocks_[static_cast<std::size_t>(block)];
  const int s = a_->params_.s_vvec;
  const int v0 = a_->grid_.first_view(info.view_group);
  const int s_eff = std::min(s, stored_.num_views - v0);
  for (int vi = 0; vi < s_eff; ++vi) {
    const int ref = a_->refs_[static_cast<std::size_t>(block) * s + vi];
    // Valid offset indices keep the bin ref + o_min + o_idx on the detector.
    const int lo = std::max(0, -(ref + info.o_min));
    const int hi = std::min(info.o_count, stored_.num_bins - ref - info.o_min);
    const int bin0 = ref + info.o_min;
    T* yrow = dst + static_cast<std::size_t>(stored_.row_of(v0 + vi, 0)) * k;
    if (k == 1) {
      for (int o = lo; o < hi; ++o) {
        yrow[bin0 + o] += ytilde[static_cast<std::size_t>(o) * s + vi];
      }
    } else {
      for (int o = lo; o < hi; ++o) {
        const T* src = ytilde + (static_cast<std::size_t>(o) * s + vi) * k;
        T* d = yrow + static_cast<std::size_t>(bin0 + o) * k;
        for (int r = 0; r < k; ++r) d[r] += src[r];
      }
    }
  }
}

template <typename T>
void SpmvPlan<T>::gather(int block, const T* src, T* ytilde, int k) const {
  const auto& info = a_->blocks_[static_cast<std::size_t>(block)];
  const int s = a_->params_.s_vvec;
  const int v0 = a_->grid_.first_view(info.view_group);
  const int s_eff = std::min(s, stored_.num_views - v0);
  std::fill_n(ytilde, static_cast<std::size_t>(info.o_count) * s * k, T(0));
  for (int vi = 0; vi < s_eff; ++vi) {
    const int ref = a_->refs_[static_cast<std::size_t>(block) * s + vi];
    const int lo = std::max(0, -(ref + info.o_min));
    const int hi = std::min(info.o_count, stored_.num_bins - ref - info.o_min);
    const T* yrow = src + static_cast<std::size_t>(stored_.row_of(v0 + vi, 0)) * k;
    const int bin0 = ref + info.o_min;
    if (k == 1) {
      for (int o = lo; o < hi; ++o) {
        ytilde[static_cast<std::size_t>(o) * s + vi] = yrow[bin0 + o];
      }
    } else {
      for (int o = lo; o < hi; ++o) {
        const T* srow = yrow + static_cast<std::size_t>(bin0 + o) * k;
        T* drow = ytilde + (static_cast<std::size_t>(o) * s + vi) * k;
        for (int r = 0; r < k; ++r) drow[r] = srow[r];
      }
    }
  }
}

template <typename T>
void SpmvPlan<T>::check_sizes(std::size_t x_size, std::size_t y_size) const {
  CSCV_CHECK(x_size ==
             static_cast<std::size_t>(a_->cols()) * static_cast<std::size_t>(num_rhs_));
  CSCV_CHECK(y_size ==
             static_cast<std::size_t>(a_->rows()) * static_cast<std::size_t>(num_rhs_));
}

namespace {

void check_subset(const GroupSubset& subset) {
  CSCV_CHECK_MSG(subset.count >= 1 && subset.index >= 0 && subset.index < subset.count &&
                     subset.first_group >= 0,
                 "group subset " << subset.index << " of " << subset.count << " (offset "
                                 << subset.first_group << ") is malformed");
}

/// Selects every stored group or full view.
constexpr auto kAll = [](int) { return true; };

}  // namespace

template <typename T>
template <typename Pick>
void SpmvPlan<T>::forward_groups(Pick pick, const T* x, T* y, int k) const {
  const int tiles_per_group = a_->grid_.tiles_x * a_->grid_.tiles_y;
  const int s = a_->params_.s_vvec;
  // A group's rows are contiguous (row = view * num_bins + bin).
  const std::size_t group_elems = static_cast<std::size_t>(s) *
                                  static_cast<std::size_t>(stored_.num_bins) *
                                  static_cast<std::size_t>(k);
  const std::size_t y_size =
      static_cast<std::size_t>(stored_.num_rows()) * static_cast<std::size_t>(k);

  // Slots own whole view groups: their blocks write disjoint y rows, so
  // each slot zeroes its groups' rows and scatters straight into the shared
  // output. Slots are striped over however many threads the runtime
  // actually provides, so a plan built at N threads stays correct at any
  // other count.
  util::parallel_region([&](int tid, int nthreads) {
    for (int slot = tid; slot < threads_; slot += nthreads) {
      T* ytilde = ytilde_slot(slot);
      for (std::size_t g = group_bounds_[static_cast<std::size_t>(slot)];
           g < group_bounds_[static_cast<std::size_t>(slot) + 1]; ++g) {
        if (!pick(static_cast<int>(g))) continue;
        const std::size_t r0 = g * group_elems;
        std::fill(y + r0, y + std::min(r0 + group_elems, y_size), T(0));
        for (int tb = 0; tb < tiles_per_group; ++tb) {
          const int b = static_cast<int>(g) * tiles_per_group + tb;
          const auto& info = a_->blocks_[static_cast<std::size_t>(b)];
          if (info.vxg_begin == info.vxg_end) continue;
          std::fill_n(ytilde, static_cast<std::size_t>(info.o_count) * s * k, T(0));
          run_forward(b, x, ytilde, k);
          scatter_add(b, ytilde, y, k);
        }
      }
    }
  });
}

template <typename T>
void SpmvPlan<T>::forward_stored(const T* x, T* y) const {
  if (scheme_ == ThreadScheme::kRowPartition) {
    forward_groups(kAll, x, y, k_stored_);
    return;
  }

  // Private-copy scheme (the paper's description): slots split the block
  // list; each accumulates into its own y copy; copies are reduced in a
  // second parallel pass. Only each slot's touchable row interval is
  // zeroed and reduced.
  const int s = a_->params_.s_vvec;
  const int k = k_stored_;
  const std::size_t m_total =
      static_cast<std::size_t>(stored_.num_rows()) * static_cast<std::size_t>(k);
  util::parallel_region([&](int tid, int nthreads) {
    for (int slot = tid; slot < threads_; slot += nthreads) {
      const auto [r_lo, r_hi] = row_interval_[static_cast<std::size_t>(slot)];
      T* yc = copies_.data() + static_cast<std::size_t>(slot) * m_total;
      std::fill(yc + r_lo, yc + r_hi, T(0));
      T* ytilde = ytilde_slot(slot);
      for (std::size_t b = block_bounds_[static_cast<std::size_t>(slot)];
           b < block_bounds_[static_cast<std::size_t>(slot) + 1]; ++b) {
        const auto& info = a_->blocks_[b];
        if (info.vxg_begin == info.vxg_end) continue;
        std::fill_n(ytilde, static_cast<std::size_t>(info.o_count) * s * k, T(0));
        run_forward(static_cast<int>(b), x, ytilde, k);
        scatter_add(static_cast<int>(b), ytilde, yc, k);
      }
    }
  });
  util::parallel_region([&](int tid, int nthreads) {
    auto [r0, r1] = util::static_partition(m_total, nthreads, tid);
    std::fill(y + r0, y + r1, T(0));
    for (int slot = 0; slot < threads_; ++slot) {
      const auto [i_lo, i_hi] = row_interval_[static_cast<std::size_t>(slot)];
      const std::size_t lo = std::max(r0, i_lo);
      const std::size_t hi = std::min(r1, i_hi);
      const T* yc = copies_.data() + static_cast<std::size_t>(slot) * m_total;
      for (std::size_t r = lo; r < hi; ++r) y[r] += yc[r];
    }
  });
}

// ---- folded matrices ------------------------------------------------------

namespace {

/// dst[0, k) = src[0, k): one element per pixel or bin on the hot k = 1
/// path, where a library copy call would cost more than the copy.
template <typename T>
[[gnu::always_inline]] inline void copy_columns(const T* src, T* dst, std::size_t k) {
  if (k == 1) {
    *dst = *src;
    return;
  }
  for (std::size_t r = 0; r < k; ++r) dst[r] = src[r];
}

}  // namespace

template <typename T>
void SpmvPlan<T>::load_images(const T* x, int f0, int f1, std::size_t stride, T* out) const {
  const int n = stored_.image_size;
  const auto k = static_cast<std::size_t>(num_rhs_);
  util::parallel_for(0, static_cast<std::size_t>(n), [&](std::size_t row) {
    const int jy = static_cast<int>(row);
    for (int f = f0; f < f1; ++f) {
      T* dst = out + row * static_cast<std::size_t>(n) * stride +
               static_cast<std::size_t>(f - f0) * k;
      for (int jx = 0; jx < n; ++jx) {
        const auto [sx, sy] = ct::ViewFold::source_pixel(f, n, jx, jy);
        copy_columns(x + static_cast<std::size_t>(stored_.col_of_pixel(sx, sy)) * k,
                     dst + static_cast<std::size_t>(jx) * stride, k);
      }
    }
  });
}

template <typename T>
template <typename Want>
void SpmvPlan<T>::load_rows(const T* y, int f0, int f1, std::size_t stride, Want want,
                            T* rows) const {
  const ct::ViewFold fold{a_->layout_.num_views};
  const auto bins = static_cast<std::size_t>(stored_.num_bins);
  const auto k = static_cast<std::size_t>(num_rhs_);
  util::parallel_for(0, static_cast<std::size_t>(stored_.num_views), [&](std::size_t v) {
    for (int f = f0; f < f1; ++f) {
      const int w = fold.view_of(f, static_cast<int>(v));
      T* dst = rows + v * bins * stride + static_cast<std::size_t>(f - f0) * k;
      if (w >= 0 && want(w)) {
        const T* src = y + static_cast<std::size_t>(w) * bins * k;
        for (std::size_t b = 0; b < bins; ++b) copy_columns(src + b * k, dst + b * stride, k);
      } else {
        for (std::size_t b = 0; b < bins; ++b) {
          for (std::size_t r = 0; r < k; ++r) dst[b * stride + r] = T(0);
        }
      }
    }
  });
}

template <typename T>
template <typename Want>
void SpmvPlan<T>::store_rows(const T* rows, int f0, int f1, std::size_t stride, Want want,
                             T* y) const {
  const ct::ViewFold fold{a_->layout_.num_views};
  const auto bins = static_cast<std::size_t>(stored_.num_bins);
  const auto k = static_cast<std::size_t>(num_rhs_);
  util::parallel_for(0, static_cast<std::size_t>(fold.num_views), [&](std::size_t w) {
    const ct::ViewFold::Owner o = fold.owner(static_cast<int>(w));
    if (o.image < f0 || o.image >= f1 || !want(static_cast<int>(w))) return;
    const T* src = rows + static_cast<std::size_t>(o.view) * bins * stride +
                   static_cast<std::size_t>(o.image - f0) * k;
    T* dst = y + w * bins * k;
    for (std::size_t b = 0; b < bins; ++b) copy_columns(src + b * stride, dst + b * k, k);
  });
}

template <typename T>
void SpmvPlan<T>::sum_images(const T* images, std::size_t image_offset, std::size_t stride,
                             T* x) const {
  const int n = stored_.image_size;
  const auto k = static_cast<std::size_t>(num_rhs_);
  util::parallel_for(0, static_cast<std::size_t>(n), [&](std::size_t row) {
    const int py = static_cast<int>(row);
    for (int px = 0; px < n; ++px) {
      const T* at[ct::ViewFold::kImages];
      for (int f = 0; f < ct::ViewFold::kImages; ++f) {
        const auto [jx, jy] = ct::ViewFold::image_pixel(f, n, px, py);
        at[f] = images + static_cast<std::size_t>(f) * image_offset +
                static_cast<std::size_t>(stored_.col_of_pixel(jx, jy)) * stride;
      }
      T* dst = x + static_cast<std::size_t>(stored_.col_of_pixel(px, py)) * k;
      for (std::size_t r = 0; r < k; ++r) dst[r] = ((at[0][r] + at[1][r]) + at[2][r]) + at[3][r];
    }
  });
}

template <typename T>
bool SpmvPlan<T>::pair_in(const GroupSubset& subset, int g, int f) const {
  const ct::ViewFold fold{a_->layout_.num_views};
  const int s = a_->params_.s_vvec;
  const int v0 = a_->grid_.first_view(g);
  for (int v = v0; v < std::min(v0 + s, stored_.num_views); ++v) {
    const int w = fold.view_of(f, v);
    if (w >= 0 && subset.contains(w / s)) return true;
  }
  return false;
}

template <typename T>
bool SpmvPlan<T>::image_in(const GroupSubset& subset, int f) const {
  for (int g = 0; g < a_->grid_.view_groups; ++g) {
    if (pair_in(subset, g, f)) return true;
  }
  return false;
}

// ---- apply entry points ---------------------------------------------------

template <typename T>
void SpmvPlan<T>::execute(std::span<const T> x, std::span<T> y) const {
  check_sizes(x.size(), y.size());
  const util::telemetry::Stopwatch apply_timer;
  if (folded_) {
    // One pass of the quarter over the four images, k_stored_ columns, then
    // every row from the image that owns its view.
    const auto stride = static_cast<std::size_t>(k_stored_);
    load_images(x.data(), 0, ct::ViewFold::kImages, stride, images_.data());
    forward_stored(images_.data(), image_rows_.data());
    store_rows(image_rows_.data(), 0, ct::ViewFold::kImages, stride, kAll, y.data());
  } else {
    forward_stored(x.data(), y.data());
  }
  counters_.record_apply(apply_timer.seconds());
}

template <typename T>
void SpmvPlan<T>::execute(const GroupSubset& subset, std::span<const T> x,
                          std::span<T> y) const {
  check_subset(subset);
  check_sizes(x.size(), y.size());
  const auto in_subset = [&](int g) { return subset.contains(g); };
  if (!folded_) {
    forward_groups(in_subset, x.data(), y.data(), num_rhs_);
  } else {
    // Each (stored group, image) pair that fills a row of the subset, one
    // image at a time at num_rhs_ columns: column for column the same
    // operations as the full apply's.
    const int s = a_->params_.s_vvec;
    const auto k = static_cast<std::size_t>(num_rhs_);
    for (int f = 0; f < ct::ViewFold::kImages; ++f) {
      if (!image_in(subset, f)) continue;
      load_images(x.data(), f, f + 1, k, images_.data());
      forward_groups([&](int g) { return pair_in(subset, g, f); }, images_.data(),
                     image_rows_.data(), num_rhs_);
      store_rows(image_rows_.data(), f, f + 1, k,
                 [&](int w) { return subset.contains(w / s); }, y.data());
    }
  }
  counters_.record_subset_apply();
}

template <typename T>
template <typename Pick>
void SpmvPlan<T>::transpose_groups(Pick pick, const T* y, T* x, int k) const {
  const int tiles_per_group = a_->grid_.tiles_x * a_->grid_.tiles_y;
  const std::size_t x_size =
      static_cast<std::size_t>(a_->cols()) * static_cast<std::size_t>(k);
  const dispatch::KernelSet<T>& ks = k == k_stored_ ? kernels_ : image_kernels_;

  // Slots own image tiles: the same tile across the view groups touches a
  // private x slice, so writes need no synchronization. y is read-only, and
  // each tile sums its groups in ascending order at any thread count.
  // Blocks are stored group-major, so walking the groups outermost reads a
  // slot's tile range as one contiguous run of blocks per group, in storage
  // order like the forward, instead of jumping a whole group between blocks.
  util::parallel_for(0, x_size, [&](std::size_t i) { x[i] = T(0); });
  util::parallel_region([&](int tid, int nthreads) {
    for (int slot = tid; slot < threads_; slot += nthreads) {
      T* ytilde = ytilde_slot(slot);
      for (int g = 0; g < a_->grid_.view_groups; ++g) {
        if (!pick(g)) continue;
        for (std::size_t tile = tile_bounds_[static_cast<std::size_t>(slot)];
             tile < tile_bounds_[static_cast<std::size_t>(slot) + 1]; ++tile) {
          const int b = g * tiles_per_group + static_cast<int>(tile);
          const auto& info = a_->blocks_[static_cast<std::size_t>(b)];
          if (info.vxg_begin == info.vxg_end) continue;
          gather(b, y, ytilde, k);
          if (k == 1) {
            ks.transpose(info.vxg_begin, info.vxg_end, a_->vxg_col_.data(), a_->vxg_q_.data(),
                         a_->value_ptr(info.val_begin), a_->masks_.data(), ytilde, x);
          } else {
            ks.transpose_multi(info.vxg_begin, info.vxg_end, a_->vxg_col_.data(),
                               a_->vxg_q_.data(), a_->value_ptr(info.val_begin),
                               a_->masks_.data(), ytilde, k, x);
          }
        }
      }
    }
  });
}

template <typename T>
void SpmvPlan<T>::execute_transpose(std::span<const T> y, std::span<T> x) const {
  check_sizes(x.size(), y.size());
  const util::telemetry::Stopwatch apply_timer;
  if (folded_) {
    // Each image's rows (zeros where it owns no view), one transpose pass
    // of the quarter over all four, then the images summed per pixel.
    const auto stride = static_cast<std::size_t>(k_stored_);
    load_rows(y.data(), 0, ct::ViewFold::kImages, stride, kAll, image_rows_.data());
    transpose_groups(kAll, image_rows_.data(), images_.data(), k_stored_);
    sum_images(images_.data(), static_cast<std::size_t>(num_rhs_), stride, x.data());
  } else {
    transpose_groups(kAll, y.data(), x.data(), num_rhs_);
  }
  counters_.record_transpose(apply_timer.seconds());
}

template <typename T>
void SpmvPlan<T>::execute_transpose(const GroupSubset& subset, std::span<const T> y,
                                    std::span<T> x) const {
  check_subset(subset);
  check_sizes(x.size(), y.size());
  if (!folded_) {
    transpose_groups([&](int g) { return subset.contains(g); }, y.data(), x.data(), num_rhs_);
  } else {
    // Image by image over the pairs that read a row of the subset, each
    // into its own num_rhs_-wide slice of images_, then the same sum as the
    // full transpose.
    const int s = a_->params_.s_vvec;
    const auto k = static_cast<std::size_t>(num_rhs_);
    const std::size_t image_elems = static_cast<std::size_t>(a_->cols()) * k;
    for (int f = 0; f < ct::ViewFold::kImages; ++f) {
      T* image = images_.data() + static_cast<std::size_t>(f) * image_elems;
      // An image with no pair in the subset runs no group: its slice only
      // needs the zeros transpose_groups writes first.
      if (image_in(subset, f)) {
        load_rows(y.data(), f, f + 1, k, [&](int w) { return subset.contains(w / s); },
                  image_rows_.data());
      }
      transpose_groups([&](int g) { return pair_in(subset, g, f); }, image_rows_.data(), image,
                       num_rhs_);
    }
    sum_images(images_.data(), image_elems, k, x.data());
  }
  counters_.record_subset_transpose();
}

template <typename T>
std::span<const T> SpmvPlan<T>::sums_of_ones(bool transpose) const {
  util::AlignedVector<T>& memo = transpose ? col_sums_ : row_sums_;
  const auto k = static_cast<std::size_t>(num_rhs_);
  const auto in_len = static_cast<std::size_t>(transpose ? a_->rows() : a_->cols());
  const auto out_len = static_cast<std::size_t>(transpose ? a_->cols() : a_->rows());
  if (memo.size() != out_len) {
    const util::AlignedVector<T> ones(in_len * k, T(1));
    util::AlignedVector<T> out(out_len * k);
    if (transpose) {
      execute_transpose(ones, out);
    } else {
      execute(ones, out);
    }
    memo.resize(out_len);
    for (std::size_t i = 0; i < out_len; ++i) memo[i] = out[i * k];
  }
  return memo;
}

template <typename T>
std::span<const T> SpmvPlan<T>::col_sums(const GroupSubset& subset) const {
  check_subset(subset);
  if (subset.count != subset_sums_for_.count ||
      subset.first_group != subset_sums_for_.first_group || subset_col_sums_.empty()) {
    subset_sums_for_ = subset;
    subset_col_sums_.assign(static_cast<std::size_t>(subset.count), {});
  }
  util::AlignedVector<T>& memo = subset_col_sums_[static_cast<std::size_t>(subset.index)];
  const auto k = static_cast<std::size_t>(num_rhs_);
  const auto cols = static_cast<std::size_t>(a_->cols());
  if (memo.size() != cols) {
    const util::AlignedVector<T> ones(static_cast<std::size_t>(a_->rows()) * k, T(1));
    util::AlignedVector<T> out(cols * k);
    execute_transpose(subset, ones, out);
    memo.resize(cols);
    for (std::size_t i = 0; i < cols; ++i) memo[i] = out[i * k];
  }
  return memo;
}

template <typename T>
PlanStats SpmvPlan<T>::stats() const {
  PlanStats s;
  const CscvMatrix<T>& a = *a_;

  // Structural half — the format statistics the fig4/fig5 benches report,
  // restated per plan so a telemetry record is self-describing.
  s.nnz = static_cast<std::uint64_t>(a.nnz());
  s.padded_values = static_cast<std::uint64_t>(a.padded_values());
  s.stored_values = static_cast<std::uint64_t>(a.stored_values());
  s.vxg_occupancy = s.padded_values == 0 ? 0.0
                                         : static_cast<double>(a.stored_nnz()) /
                                               static_cast<double>(s.padded_values);
  s.padding_fraction = s.padded_values == 0 ? 0.0 : 1.0 - s.vxg_occupancy;
  s.r_nnze = a.r_nnze();
  s.num_vxgs = static_cast<std::uint64_t>(a.num_vxgs());
  s.num_blocks = static_cast<std::uint64_t>(a.num_blocks());
  for (const auto& info : a.blocks_) {
    if (info.vxg_begin != info.vxg_end) ++s.nonempty_blocks;
  }
  const auto k = static_cast<std::uint64_t>(num_rhs_);
  s.flops_per_apply = 2 * s.nnz * k;
  s.padded_flops_per_apply = 2 * s.padded_values * k;
  s.matrix_bytes = static_cast<std::uint64_t>(a.matrix_bytes());
  s.vector_bytes_per_apply =
      (static_cast<std::uint64_t>(a.cols()) + static_cast<std::uint64_t>(a.rows())) * k *
      sizeof(T);
  s.scratch_bytes = static_cast<std::uint64_t>(scratch_bytes());
  s.threads = threads_;
  s.num_rhs = num_rhs_;
  s.scheme = scheme_;
  s.hardware_expand = use_hw_;
  s.isa_tier = tier_.tier;
  s.isa_forced = tier_.forced;
  s.isa_clamped = tier_.clamped;
  s.value_type = value_type_;
  s.bytes_per_value = static_cast<std::uint64_t>(a.value_bytes());
  s.folded = folded_;
  std::uint64_t total_work = 0, max_work = 0;
  for (std::uint64_t w : work_) {
    total_work += w;
    max_work = std::max(max_work, w);
  }
  s.load_imbalance =
      total_work == 0 ? 0.0
                      : static_cast<double>(max_work) * static_cast<double>(threads_) /
                            static_cast<double>(total_work);

  // Dynamic half — reads compile-time zeros when telemetry is off.
  s.telemetry_enabled = util::telemetry::kEnabled;
  s.applies = counters_.applies;
  s.transpose_applies = counters_.transpose_applies;
  s.plan_build_seconds = counters_.plan_build_seconds;
  s.apply_seconds_total = counters_.apply_seconds_total;
  s.apply_seconds_min = counters_.apply_seconds_min;
  s.transpose_seconds_total = counters_.transpose_seconds_total;
  s.transpose_seconds_min = counters_.transpose_seconds_min;
  s.subset_applies = counters_.subset_applies;
  s.subset_transpose_applies = counters_.subset_transpose_applies;
  const auto flops = static_cast<double>(s.flops_per_apply);
  const auto bytes = static_cast<double>(s.matrix_bytes + s.vector_bytes_per_apply);
  if (counters_.apply_seconds_min > 0.0) {
    s.gflops_best = flops / counters_.apply_seconds_min / 1e9;
    s.gbytes_per_second_best = bytes / counters_.apply_seconds_min / 1e9;
  }
  if (counters_.transpose_seconds_min > 0.0) {
    s.transpose_gflops_best = flops / counters_.transpose_seconds_min / 1e9;
    s.transpose_gbytes_per_second_best = bytes / counters_.transpose_seconds_min / 1e9;
  }
  if (counters_.apply_seconds_total > 0.0 && counters_.applies > 0) {
    s.gflops_avg = static_cast<double>(s.flops_per_apply) *
                   static_cast<double>(counters_.applies) / counters_.apply_seconds_total /
                   1e9;
  }
  return s;
}

template class SpmvPlan<float>;
template class SpmvPlan<double>;

}  // namespace cscv::core
