// SystemMatrixCache — shared, single-flight cache of built CT operators.
//
// Building a system matrix dominates end-to-end tomography service time
// once SpMV itself is fast (Marchesini et al., "Sparse Matrix-Based HPC
// Tomography"): one pixel-driven CSC build plus the CSCV conversion costs
// orders of magnitude more than the reconstruction it feeds. A service
// handling a stream of slices therefore lives or dies on operator reuse:
//
//   * keyed on the operator alone (geometry, CscvParams, variant, value
//     dtype, sparsify threshold) — everything that changes its bytes — so
//     one entry serves a geometry's FBP, SIRT, CGLS and OS-SART jobs;
//   * single-flight build deduplication: when N requests for the same key
//     arrive while nothing is cached, exactly one caller builds and the
//     other N-1 block on the in-flight slot, then share the result;
//   * byte-budget LRU: ready entries are evicted least-recently-used first
//     once the resident total exceeds the budget (a single entry larger
//     than the whole budget stays resident — a cache of one);
//   * optional disk spill: evicted CSCV entries write their matrix through
//     core::save_cscv, and a later miss restores via core::load_cscv —
//     which runs the mandatory cheap invariant verify on every load, so a
//     truncated or corrupted spill file falls back to a full rebuild
//     instead of serving garbage.
//
// Entries are immutable once published and handed out as shared_ptr, so
// eviction never invalidates an operator a worker is still reconstructing
// with — the entry dies when its last user lets go.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/format.hpp"
#include "core/layout.hpp"
#include "core/params.hpp"
#include "ct/geometry.hpp"
#include "util/json.hpp"
#include "util/sync.hpp"

namespace cscv::pipeline {

/// Reconstruction algorithm a job runs. Not part of the cache key: every
/// algorithm runs on the entry's one CSCV matrix.
enum class Algorithm { kFbp, kSirt, kCgls, kOsSart };

[[nodiscard]] const char* algorithm_name(Algorithm a);
/// Inverse of algorithm_name; throws util::CheckError on unknown names.
[[nodiscard]] Algorithm algorithm_from_name(std::string_view name);

/// Wire names of the CSCV variant ("m" / "z", matching cscv_cli flags).
[[nodiscard]] const char* variant_name(core::CscvMatrix<float>::Variant v);
/// Inverse of variant_name; throws util::CheckError on unknown names.
[[nodiscard]] core::CscvMatrix<float>::Variant variant_from_name(std::string_view name);

/// Cache identity: two keys compare equal exactly when the built operators
/// would be byte-identical.
struct MatrixKey {
  ct::ParallelGeometry geometry;
  core::CscvParams cscv{};
  core::CscvMatrix<float>::Variant variant = core::CscvMatrix<float>::Variant::kM;
  /// Value storage dtype of the built CSCV matrix (docs/PRECISION.md).
  core::ValueType value_type = core::ValueType::kF32;
  /// Certified sparsification threshold applied after the build; 0 keeps
  /// every stored coefficient.
  double sparsify_eps = 0.0;

  /// Stable, filesystem-safe serialization of the key — the map key and
  /// the spill file stem (docs/PIPELINE.md documents the format). Precision
  /// fields append a suffix only when non-default.
  [[nodiscard]] std::string fingerprint() const;

  friend bool operator==(const MatrixKey&, const MatrixKey&) = default;
};

/// One resident operator set. Immutable after publication; shared between
/// the cache and every worker currently reconstructing with it.
struct SystemMatrixEntry {
  ct::ParallelGeometry geometry;
  core::OperatorLayout layout;
  bool restored_from_spill = false;
  double build_seconds = 0.0;  // wall time of the build (or restore)

  /// The house format, for every algorithm: forward via SpmvPlan::execute,
  /// backprojection via SpmvPlan::execute_transpose, OS-SART strata via
  /// their group-subset forms.
  std::shared_ptr<const core::CscvMatrix<float>> cscv;

  /// Budget-relevant footprint of the resident arrays.
  [[nodiscard]] std::size_t bytes() const;
};

struct CacheStats {
  std::uint64_t hits = 0;    // served instantly from a ready entry
  std::uint64_t misses = 0;  // this call built (or restored) the entry
  std::uint64_t single_flight_waits = 0;  // blocked on someone else's build
  std::uint64_t builds = 0;   // full builds performed (the stampede metric)
  std::uint64_t restores = 0; // rebuilt from a spill file instead
  std::uint64_t evictions = 0;
  std::uint64_t spills = 0;   // evictions that wrote a spill file
  std::size_t resident_bytes = 0;
  std::size_t resident_entries = 0;

  /// Fraction of lookups that never blocked: hits / all lookups.
  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = hits + misses + single_flight_waits;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
  [[nodiscard]] util::Json to_json() const;
  /// Inverse of to_json (ignores the derived "hit_rate" field); CheckError
  /// on missing counters. Used by clients consuming /stats.
  static CacheStats from_json(const util::Json& j);
};

class SystemMatrixCache {
 public:
  struct Options {
    /// Resident-set ceiling. Eviction runs after each insertion until the
    /// total fits (the newest entry itself is never evicted).
    std::size_t budget_bytes = std::size_t{512} << 20;
    /// Directory for spill files; empty disables spill/restore. Created on
    /// first spill if missing.
    std::string spill_dir;
  };

  /// What one get_or_build call experienced.
  struct Acquired {
    std::shared_ptr<const SystemMatrixEntry> entry;
    bool hit = false;       // served without building or waiting
    bool restored = false;  // this call restored the entry from spill
    double seconds = 0.0;   // time spent inside the call
  };

  SystemMatrixCache() : SystemMatrixCache(Options{}) {}
  explicit SystemMatrixCache(Options options);

  /// Returns the entry for `key`, building it exactly once per residency no
  /// matter how many threads ask concurrently. Throws whatever the build
  /// threw (waiters receive the same error; the slot is cleared so a later
  /// call retries).
  Acquired get_or_build(const MatrixKey& key);

  [[nodiscard]] CacheStats stats() const;
  /// Resident keys, most-recently-used first (tests assert eviction order).
  [[nodiscard]] std::vector<std::string> resident_fingerprints() const;
  /// Drops every ready entry (spilling per policy). In-flight builds finish
  /// and publish normally.
  void clear();

  [[nodiscard]] const Options& options() const { return options_; }
  /// Spill file path for a key (exposed so tests can corrupt/inspect it).
  [[nodiscard]] std::string spill_path(const MatrixKey& key) const;

 private:
  // Slot fields are written by the builder and read by waiters, all under
  // the cache's mu_ — but a nested struct cannot name the enclosing
  // object's mutex in a CSCV_GUARDED_BY, so the invariant is enforced by
  // TSan and review here rather than the capability analysis. Keep every
  // Slot access inside a MutexLock(mu_) scope.
  struct Slot {
    bool building = true;
    std::shared_ptr<const SystemMatrixEntry> entry;  // set once ready
    std::exception_ptr error;                        // set when the build threw
  };

  /// Full build from the geometry (CSC -> CSCV); no lock held.
  static std::shared_ptr<SystemMatrixEntry> build_entry(const MatrixKey& key);
  /// Attempts a spill restore; nullptr when unavailable/unusable.
  [[nodiscard]] std::shared_ptr<SystemMatrixEntry> try_restore(const MatrixKey& key) const;
  /// Evicts LRU entries (never `keep`) until resident bytes fit `budget`.
  /// Returns the evicted entries that want a spill file; the caller writes
  /// them via spill_entries() AFTER releasing mu_ — spilling a
  /// multi-hundred-MB matrix under the lock would stall every concurrent
  /// lookup (including pure hits) for the full duration of the disk write.
  [[nodiscard]] std::vector<std::shared_ptr<const SystemMatrixEntry>> evict_to_locked(
      std::size_t budget, const std::string& keep) CSCV_REQUIRES(mu_);
  /// Writes spill files for evicted entries. Must NOT hold mu_ (the
  /// off-lock I/O rule, docs/CONCURRENCY.md): entries are immutable
  /// shared_ptrs and options_ never changes after construction, so the
  /// writes need no lock — only the stats_.spills increment re-locks.
  void spill_entries(
      const std::vector<std::shared_ptr<const SystemMatrixEntry>>& victims)
      CSCV_EXCLUDES(mu_);
  void touch_locked(const std::string& fingerprint) CSCV_REQUIRES(mu_);

  Options options_;
  mutable util::Mutex mu_;
  util::CondVar ready_;  // signaled when a slot leaves kBuilding
  std::unordered_map<std::string, std::shared_ptr<Slot>> slots_ CSCV_GUARDED_BY(mu_);
  // Ready entries only; front = most recent.
  std::list<std::string> lru_ CSCV_GUARDED_BY(mu_);
  std::size_t resident_bytes_ CSCV_GUARDED_BY(mu_) = 0;
  CacheStats stats_ CSCV_GUARDED_BY(mu_);
};

}  // namespace cscv::pipeline
