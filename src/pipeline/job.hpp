// ReconJob / ReconResult — the value types that flow through ReconService.
//
// A job carries everything needed to reconstruct one slice: the acquisition
// geometry, the CSCV tuning of the operator it wants, the algorithm and its
// solver options, and the sinogram itself. A result carries the volume plus
// the telemetry a service operator actually looks at: where time went
// (queue wait / operator acquire / solve), whether the system matrix was a
// cache hit, and the PlanStats snapshot of the worker's execution plan.
// Results serialize to util::Json (summary only — the volume payload stays
// in memory).
#pragma once

#include <cstdint>
#include <string>

#include "core/plan.hpp"
#include "pipeline/matrix_cache.hpp"
#include "recon/solvers.hpp"
#include "util/aligned_vector.hpp"
#include "util/json.hpp"

namespace cscv::pipeline {

/// Service class of a job (docs/SERVICE.md). The class selects admission
/// and deadline behavior, not priority: interactive jobs are admitted with
/// kReject semantics (a full queue answers immediately instead of applying
/// backpressure) and inherit ServiceOptions::interactive_deadline_seconds
/// when they carry no deadline of their own; batch jobs follow the
/// service-wide admission policy and never gain an implicit deadline.
enum class QosClass { kBatch, kInteractive };

[[nodiscard]] const char* qos_class_name(QosClass q);
/// Inverse of qos_class_name; CheckError on unknown names.
[[nodiscard]] QosClass qos_class_from_name(std::string_view name);

struct ReconJob {
  ct::ParallelGeometry geometry;
  core::CscvParams cscv{};
  core::CscvMatrix<float>::Variant variant = core::CscvMatrix<float>::Variant::kM;
  Algorithm algorithm = Algorithm::kSirt;

  /// Value storage dtype for the operator ("fp32" | "bf16" | "fp16" on the
  /// wire, docs/PRECISION.md). Reduced storage halves operator bytes; the
  /// solve still accumulates in fp32.
  core::ValueType value_type = core::ValueType::kF32;
  /// Certified sparsification threshold for the operator; 0 disables.
  double sparsify_eps = 0.0;

  /// Solver knobs for the iterative algorithms (ignored by kFbp).
  recon::SolveOptions solve{};
  /// Subset count for kOsSart, in [1, geometry.num_views] (ignored
  /// elsewhere). The solve clamps it to the operator's view groups
  /// (recon::os_sart_strata); ReconResult::os_sart_subsets reports what ran.
  int os_sart_subsets = 8;
  /// The subset count of the job's SART-family solve: os_sart_subsets for
  /// kOsSart, 1 for kSirt (SIRT is one-subset OS-SART).
  [[nodiscard]] int sart_subsets() const {
    return algorithm == Algorithm::kOsSart ? os_sart_subsets : 1;
  }

  /// Wall-clock budget measured from submit(); 0 disables. A job whose
  /// budget is spent before its solve starts resolves as kExpired (checked
  /// at dequeue and again after operator acquisition — a running solve is
  /// never interrupted).
  double deadline_seconds = 0.0;

  /// Free-form label echoed into the result (dataset name, client id, ...).
  std::string tag;

  /// Originating tenant (quota accounting in the network front end; empty
  /// means the default tenant). Deliberately NOT part of matrix_key():
  /// tenants sharing a scanner geometry share the cached system matrix.
  std::string tenant;
  QosClass qos = QosClass::kBatch;

  /// Bin-major sinogram, geometry.num_rows() elements.
  util::AlignedVector<float> sinogram;

  /// The operator this job runs on — the same for every algorithm.
  [[nodiscard]] MatrixKey matrix_key() const {
    return MatrixKey{geometry, cscv, variant, value_type, sparsify_eps};
  }

  /// The service wire format (docs/SERVICE.md): every field of the job as
  /// one JSON object, the sinogram as base64 of its little-endian float32
  /// bytes — the encoding that survives the HTTP round trip bit-for-bit.
  [[nodiscard]] util::Json to_json() const;

  /// Parses the wire format. Required fields: "geometry" and a sinogram
  /// ("sinogram_b64", or "sinogram" as a JSON number array for hand-written
  /// requests); everything else defaults like a default-constructed job.
  /// Throws CheckError naming the offending field on malformed or
  /// inconsistent specs (unknown algorithm, bad geometry, sinogram length
  /// mismatch, unknown keys) — the 4xx path of the HTTP front end.
  static ReconJob from_json(const util::Json& spec);
};

enum class JobStatus {
  kOk,         // volume is valid
  kRejected,   // refused at admission (queue full under kReject, or shutdown)
  kExpired,    // deadline spent before the solve started
  kCancelled,  // cancel() reached it while queued, or abort-shutdown drained it
  kFailed,     // the build or solve threw; see error
};

[[nodiscard]] const char* job_status_name(JobStatus s);

struct ReconResult {
  std::uint64_t job_id = 0;
  std::string tag;
  JobStatus status = JobStatus::kFailed;
  std::string error;  // empty unless status == kFailed

  int worker = -1;  // worker index that ran the job (-1: never ran)
  bool cache_hit = false;
  double queue_wait_seconds = 0.0;
  double acquire_seconds = 0.0;  // time inside SystemMatrixCache::get_or_build
  double solve_seconds = 0.0;

  int iterations_run = 0;
  double final_residual = 0.0;  // ||b - A x|| after the last iteration

  /// Jobs fused into the batched solve that produced this result (1 = ran
  /// alone), and this job's column index within that batch. The volume is
  /// bitwise identical either way; these exist for telemetry.
  int batch_size = 1;
  int batch_index = 0;

  /// The stratum count a kOsSart job ran with (its os_sart_subsets clamped
  /// to the operator's view groups); 0 for the other algorithms.
  int os_sart_subsets = 0;

  /// Reconstructed image, geometry.num_cols() elements (empty unless kOk).
  util::AlignedVector<float> volume;
  /// Snapshot of the plan that ran the job.
  core::PlanStats plan_stats{};

  /// Telemetry summary (status, timings, plan highlights) — not the volume.
  [[nodiscard]] util::Json to_json() const;
};

}  // namespace cscv::pipeline
