#include "core/serialize.hpp"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>

#include "core/verify.hpp"
#include "util/assertx.hpp"

namespace cscv::core {

/// Private-member access shim for serialization (befriended by CscvMatrix).
template <typename T>
class CscvBuilderAccess {
 public:
  static void write(std::ostream& out, const CscvMatrix<T>& m);
  static CscvMatrix<T> read(std::istream& in);
};

namespace {

template <typename V>
void write_pod(std::ostream& out, const V& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(V));
}

template <typename V>
V read_pod(std::istream& in) {
  V v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(V));
  CSCV_CHECK_MSG(static_cast<bool>(in), "truncated CSCV file");
  return v;
}

template <typename Vec>
void write_array(std::ostream& out, const Vec& v) {
  write_pod<std::uint64_t>(out, v.size());
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(typename Vec::value_type)));
}

/// Bytes left in the stream past the current position, or -1 when the
/// stream is not seekable. Lets array reads reject a corrupted count before
/// allocating: a flipped count byte must not turn into a multi-gigabyte
/// resize followed by a short read.
std::int64_t remaining_bytes(std::istream& in) {
  const auto here = in.tellg();
  if (here == std::istream::pos_type(-1)) return -1;
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  in.seekg(here);
  if (end == std::istream::pos_type(-1)) return -1;
  return static_cast<std::int64_t>(end - here);
}

/// Reads an array whose element count is known from the (already validated)
/// header. The stored count must match it exactly and the payload must fit
/// in the stream — both checked before any memory is touched.
template <typename Vec>
void read_array_checked(std::istream& in, Vec& v, std::uint64_t expected,
                        const char* what) {
  const auto n = read_pod<std::uint64_t>(in);
  CSCV_CHECK_MSG(n == expected, "cscv.array.count: " << what << " stores " << n
                                                     << " elements, header implies "
                                                     << expected);
  const std::uint64_t bytes = n * sizeof(typename Vec::value_type);
  const std::int64_t left = remaining_bytes(in);
  CSCV_CHECK_MSG(left < 0 || bytes <= static_cast<std::uint64_t>(left),
                 "cscv.array.payload: " << what << " claims " << bytes
                                        << " bytes, stream has " << left);
  v.resize(static_cast<std::size_t>(n));
  in.read(reinterpret_cast<char*>(v.data()), static_cast<std::streamsize>(bytes));
  CSCV_CHECK_MSG(static_cast<bool>(in), "truncated CSCV array (" << what << ")");
}

}  // namespace

template <typename T>
void CscvBuilderAccess<T>::write(std::ostream& out, const CscvMatrix<T>& m) {
  write_pod<std::uint32_t>(out, kCscvFileMagic);
  write_pod<std::uint32_t>(out, kCscvFileVersion);
  write_pod<std::uint32_t>(out, sizeof(T));
  write_pod<std::int32_t>(out, static_cast<std::int32_t>(m.variant_));
  write_pod<std::int32_t>(out, m.params_.s_vvec);
  write_pod<std::int32_t>(out, m.params_.s_imgb);
  write_pod<std::int32_t>(out, m.params_.s_vxg);
  write_pod<std::int32_t>(out, static_cast<std::int32_t>(m.params_.reference));
  write_pod<std::int32_t>(out, static_cast<std::int32_t>(m.params_.order));
  write_pod<std::int32_t>(out, m.layout_.image_size);
  write_pod<std::int32_t>(out, m.layout_.num_bins);
  write_pod<std::int32_t>(out, m.layout_.num_views);
  write_pod<std::int64_t>(out, m.nnz_);
  write_pod<std::uint64_t>(out, m.ytilde_max_slots_);
  // Precision header (v2): storage dtype + the sparsify certificate.
  write_pod<std::int32_t>(out, static_cast<std::int32_t>(m.value_type_));
  write_pod<double>(out, m.sparsify_eps_);
  write_pod<double>(out, m.sparsify_bound_);
  // Fold header (v3): the arrays below hold views 0..V/4 when set.
  write_pod<std::int32_t>(out, m.folded_ ? 1 : 0);
  write_pod<std::int64_t>(out, m.stored_nnz_);
  write_array(out, m.blocks_);
  write_array(out, m.refs_);
  write_array(out, m.vxg_col_);
  write_array(out, m.vxg_q_);
  if (m.value_type_ == ValueType::kF32) {
    write_array(out, m.values_);
  } else {
    write_array(out, m.values16_);  // 2-byte elements, same slot layout
  }
  write_array(out, m.masks_);
  CSCV_CHECK_MSG(static_cast<bool>(out), "CSCV write failed");
}

// Deserialization is treated as hostile input: every header field is
// validated, and every array count is cross-checked against the sizes the
// header implies *before* any allocation or pointer arithmetic. After the
// raw arrays are in memory, the mandatory cheap-level structural verify
// (core/verify.hpp) re-checks the table invariants as a whole, so a blob
// that decodes but lies about its structure still fails to load.
template <typename T>
CscvMatrix<T> CscvBuilderAccess<T>::read(std::istream& in) {
  CSCV_CHECK_MSG(read_pod<std::uint32_t>(in) == kCscvFileMagic,
                 "cscv.header.magic: not a CSCV file");
  const auto version = read_pod<std::uint32_t>(in);
  CSCV_CHECK_MSG(version == kCscvFileVersion,
                 "cscv.header.version: CSCV file version " << version << " is not "
                     << kCscvFileVersion << " (files before version 3 predate the fold; "
                     << "rebuild them)");
  CSCV_CHECK_MSG(read_pod<std::uint32_t>(in) == sizeof(T),
                 "cscv.header.elem_size: element type mismatch (saved with different "
                 "precision)");
  CscvMatrix<T> m;
  const auto variant = read_pod<std::int32_t>(in);
  CSCV_CHECK_MSG(variant == 0 || variant == 1,
                 "cscv.header.variant: unknown variant tag " << variant);
  m.variant_ = static_cast<typename CscvMatrix<T>::Variant>(variant);
  m.params_.s_vvec = read_pod<std::int32_t>(in);
  m.params_.s_imgb = read_pod<std::int32_t>(in);
  m.params_.s_vxg = read_pod<std::int32_t>(in);
  const auto reference = read_pod<std::int32_t>(in);
  CSCV_CHECK_MSG(reference >= 0 && reference <= static_cast<int>(ReferenceStrategy::kConstantBtb),
                 "cscv.header.reference: unknown reference strategy " << reference);
  m.params_.reference = static_cast<ReferenceStrategy>(reference);
  const auto order = read_pod<std::int32_t>(in);
  CSCV_CHECK_MSG(order >= 0 && order <= static_cast<int>(VxgOrder::kByCount),
                 "cscv.header.order: unknown VxG order " << order);
  m.params_.order = static_cast<VxgOrder>(order);
  m.layout_.image_size = read_pod<std::int32_t>(in);
  m.layout_.num_bins = read_pod<std::int32_t>(in);
  m.layout_.num_views = read_pod<std::int32_t>(in);
  m.params_.validate();
  m.layout_.validate();
  // Shape products must fit the 32-bit index type before anything derives
  // row/column counts from them (a corrupted header must not overflow into
  // a plausible-looking small grid).
  constexpr auto kIndexMax =
      static_cast<std::int64_t>(std::numeric_limits<sparse::index_t>::max());
  CSCV_CHECK_MSG(static_cast<std::int64_t>(m.layout_.num_views) * m.layout_.num_bins <=
                     kIndexMax,
                 "cscv.header.layout: num_views * num_bins overflows the row index");
  CSCV_CHECK_MSG(static_cast<std::int64_t>(m.layout_.image_size) * m.layout_.image_size <=
                     kIndexMax,
                 "cscv.header.layout: image_size^2 overflows the column index");
  m.nnz_ = read_pod<std::int64_t>(in);
  CSCV_CHECK_MSG(m.nnz_ >= 0 && m.nnz_ <= static_cast<std::int64_t>(m.layout_.num_rows()) *
                                              m.layout_.num_cols(),
                 "cscv.header.nnz: nnz = " << m.nnz_ << " outside [0, rows*cols]");
  m.ytilde_max_slots_ = static_cast<std::size_t>(read_pod<std::uint64_t>(in));
  const auto vt = read_pod<std::int32_t>(in);
  CSCV_CHECK_MSG(vt == static_cast<std::int32_t>(ValueType::kF32) ||
                     vt == static_cast<std::int32_t>(ValueType::kBf16) ||
                     vt == static_cast<std::int32_t>(ValueType::kF16),
                 "cscv.header.value_type: unknown value dtype tag " << vt);
  m.value_type_ = static_cast<ValueType>(vt);
  CSCV_CHECK_MSG(m.value_type_ == ValueType::kF32 || (std::is_same_v<T, float>),
                 "cscv.header.value_type: reduced dtype "
                     << value_type_name(m.value_type_) << " requires a float matrix");
  m.sparsify_eps_ = read_pod<double>(in);
  m.sparsify_bound_ = read_pod<double>(in);
  CSCV_CHECK_MSG(std::isfinite(m.sparsify_eps_) && m.sparsify_eps_ >= 0.0 &&
                     std::isfinite(m.sparsify_bound_) && m.sparsify_bound_ >= 0.0,
                 "cscv.header.sparsify: eps " << m.sparsify_eps_ << " / bound "
                                              << m.sparsify_bound_
                                              << " must be finite and non-negative");
  const auto folded = read_pod<std::int32_t>(in);
  CSCV_CHECK_MSG(folded == 0 || (folded == 1 && m.layout_.num_views % 4 == 0),
                 "cscv.header.fold: fold tag " << folded << " for " << m.layout_.num_views
                                               << " views");
  m.folded_ = folded == 1;
  const OperatorLayout stored = m.stored_layout();
  m.stored_nnz_ = read_pod<std::int64_t>(in);
  CSCV_CHECK_MSG(m.stored_nnz_ >= 0 &&
                     m.stored_nnz_ <= static_cast<std::int64_t>(stored.num_rows()) *
                                          stored.num_cols() &&
                     (m.folded_ || m.stored_nnz_ == m.nnz_),
                 "cscv.header.stored_nnz: stored nnz = " << m.stored_nnz_ << " for nnz = "
                                                         << m.nnz_);
  m.grid_ = BlockGrid(stored, m.params_.s_vvec, m.params_.s_imgb);
  const std::int64_t num_blocks =
      static_cast<std::int64_t>(m.grid_.view_groups) * m.grid_.tiles_y * m.grid_.tiles_x;
  CSCV_CHECK_MSG(num_blocks <= kIndexMax,
                 "cscv.header.layout: block grid overflows the block index");

  // Array counts are fully determined by the header plus the block table;
  // each read rejects a mismatched count before allocating.
  read_array_checked(in, m.blocks_, static_cast<std::uint64_t>(num_blocks), "block table");
  read_array_checked(in, m.refs_,
                     static_cast<std::uint64_t>(num_blocks) *
                         static_cast<std::uint64_t>(m.params_.s_vvec),
                     "reference bins");
  std::uint64_t num_vxgs = 0;
  for (std::size_t b = 0; b < m.blocks_.size(); ++b) {
    auto& info = m.blocks_[b];
    info.reserved = 0;  // unspecified padding in files of earlier builds
    CSCV_CHECK_MSG(info.vxg_begin == static_cast<sparse::offset_t>(num_vxgs) &&
                       info.vxg_end >= info.vxg_begin,
                   "cscv.block_table.vxg_contiguous: block "
                       << b << " VxG range [" << info.vxg_begin << ", " << info.vxg_end
                       << ") does not continue at " << num_vxgs);
    num_vxgs = static_cast<std::uint64_t>(info.vxg_end);
  }
  read_array_checked(in, m.vxg_col_, num_vxgs, "VxG columns");
  read_array_checked(in, m.vxg_q_, num_vxgs, "VxG start slots");
  const std::uint64_t expected_values =
      m.variant_ == CscvMatrix<T>::Variant::kZ
          ? num_vxgs * static_cast<std::uint64_t>(m.params_.s_vxg) *
                static_cast<std::uint64_t>(m.params_.s_vvec)
          : static_cast<std::uint64_t>(m.stored_nnz_) +
                static_cast<std::uint64_t>(m.params_.s_vvec);
  if (m.value_type_ == ValueType::kF32) {
    read_array_checked(in, m.values_, expected_values, "values");
  } else {
    read_array_checked(in, m.values16_, expected_values, "values");
  }
  const std::uint64_t expected_masks =
      m.variant_ == CscvMatrix<T>::Variant::kZ
          ? 0
          : num_vxgs * static_cast<std::uint64_t>(m.params_.s_vxg);
  read_array_checked(in, m.masks_, expected_masks, "masks");

  // Mandatory structural pass over the decoded tables (docs/FORMAT.md §8).
  verify(m, VerifyLevel::kCheap).require_ok("cscv.load");
  return m;
}

template <typename T>
void save_cscv(std::ostream& out, const CscvMatrix<T>& m) {
  CscvBuilderAccess<T>::write(out, m);
}

template <typename T>
CscvMatrix<T> load_cscv(std::istream& in) {
  return CscvBuilderAccess<T>::read(in);
}

template <typename T>
void save_cscv_file(const std::string& path, const CscvMatrix<T>& m) {
  std::ofstream out(path, std::ios::binary);
  CSCV_CHECK_MSG(out.is_open(), "cannot open " << path << " for writing");
  save_cscv(out, m);
}

template <typename T>
CscvMatrix<T> load_cscv_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  CSCV_CHECK_MSG(in.is_open(), "cannot open " << path);
  return load_cscv<T>(in);
}

template void save_cscv<float>(std::ostream&, const CscvMatrix<float>&);
template void save_cscv<double>(std::ostream&, const CscvMatrix<double>&);
template CscvMatrix<float> load_cscv<float>(std::istream&);
template CscvMatrix<double> load_cscv<double>(std::istream&);
template void save_cscv_file<float>(const std::string&, const CscvMatrix<float>&);
template void save_cscv_file<double>(const std::string&, const CscvMatrix<double>&);
template CscvMatrix<float> load_cscv_file<float>(const std::string&);
template CscvMatrix<double> load_cscv_file<double>(const std::string&);

}  // namespace cscv::core
