// Binary serialization of CscvMatrix.
//
// CSCV conversion costs a full pass over the matrix with per-block
// reordering; production pipelines convert once and reload. The format is
// a tagged little-endian dump of the flat arrays with a header carrying
// the parameters, layout, and element type; versioned so future layout
// changes stay detectable.
#pragma once

#include <iosfwd>
#include <string>

#include "core/format.hpp"

namespace cscv::core {

inline constexpr std::uint32_t kCscvFileMagic = 0x43534356;  // "CSCV"
/// Version 2 added the precision header (value dtype tag + sparsify eps +
/// certified error bound) and dtype-sized value payloads. Version 3 adds
/// the fold (a flag and the stored quarter's nnz). Only the current
/// version loads: files of earlier versions hold operators whose views in
/// (45, 180) degrees were computed from their own angles, which is not the
/// operator a foldable geometry builds now (docs/FORMAT.md).
inline constexpr std::uint32_t kCscvFileVersion = 3;

/// Writes `m` to a binary stream. Throws CheckError on I/O failure.
template <typename T>
void save_cscv(std::ostream& out, const CscvMatrix<T>& m);

/// Reads a CscvMatrix written by save_cscv. Validates magic, version, and
/// element type; throws CheckError on any mismatch or truncation.
template <typename T>
CscvMatrix<T> load_cscv(std::istream& in);

template <typename T>
void save_cscv_file(const std::string& path, const CscvMatrix<T>& m);

template <typename T>
CscvMatrix<T> load_cscv_file(const std::string& path);

extern template void save_cscv<float>(std::ostream&, const CscvMatrix<float>&);
extern template void save_cscv<double>(std::ostream&, const CscvMatrix<double>&);
extern template CscvMatrix<float> load_cscv<float>(std::istream&);
extern template CscvMatrix<double> load_cscv<double>(std::istream&);
extern template void save_cscv_file<float>(const std::string&, const CscvMatrix<float>&);
extern template void save_cscv_file<double>(const std::string&, const CscvMatrix<double>&);
extern template CscvMatrix<float> load_cscv_file<float>(const std::string&);
extern template CscvMatrix<double> load_cscv_file<double>(const std::string&);

}  // namespace cscv::core
