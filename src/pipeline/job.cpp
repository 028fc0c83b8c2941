#include "pipeline/job.hpp"

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "util/base64.hpp"

namespace cscv::pipeline {

const char* qos_class_name(QosClass q) {
  return q == QosClass::kInteractive ? "interactive" : "batch";
}

QosClass qos_class_from_name(std::string_view name) {
  if (name == "batch") return QosClass::kBatch;
  if (name == "interactive") return QosClass::kInteractive;
  CSCV_CHECK_MSG(false, "unknown QoS class \"" << std::string(name)
                                               << "\" (want interactive|batch)");
  return QosClass::kBatch;  // unreachable
}

const char* job_status_name(JobStatus s) {
  switch (s) {
    case JobStatus::kOk: return "ok";
    case JobStatus::kRejected: return "rejected";
    case JobStatus::kExpired: return "expired";
    case JobStatus::kCancelled: return "cancelled";
    case JobStatus::kFailed: return "failed";
  }
  return "?";
}

util::Json ReconJob::to_json() const {
  util::Json j = util::Json::object();
  util::Json g = util::Json::object();
  g["image_size"] = util::Json(geometry.image_size);
  g["num_bins"] = util::Json(geometry.num_bins);
  g["num_views"] = util::Json(geometry.num_views);
  g["start_angle_deg"] = util::Json(geometry.start_angle_deg);
  g["delta_angle_deg"] = util::Json(geometry.delta_angle_deg);
  j["geometry"] = std::move(g);
  util::Json c = util::Json::object();
  c["s_vvec"] = util::Json(cscv.s_vvec);
  c["s_imgb"] = util::Json(cscv.s_imgb);
  c["s_vxg"] = util::Json(cscv.s_vxg);
  c["reference"] = util::Json(core::reference_name(cscv.reference));
  c["order"] = util::Json(core::vxg_order_name(cscv.order));
  j["cscv"] = std::move(c);
  j["variant"] = util::Json(variant_name(variant));
  j["algorithm"] = util::Json(algorithm_name(algorithm));
  if (value_type != core::ValueType::kF32) {
    j["value_type"] = util::Json(core::value_type_name(value_type));
  }
  if (sparsify_eps > 0.0) j["sparsify_eps"] = util::Json(sparsify_eps);
  util::Json s = util::Json::object();
  s["iterations"] = util::Json(solve.iterations);
  s["relaxation"] = util::Json(solve.relaxation);
  s["nonneg_floor"] = util::Json(solve.nonneg_floor);
  s["enforce_nonneg"] = util::Json(solve.enforce_nonneg);
  j["solve"] = std::move(s);
  if (algorithm == Algorithm::kOsSart) j["os_sart_subsets"] = util::Json(os_sart_subsets);
  if (deadline_seconds > 0.0) j["deadline_seconds"] = util::Json(deadline_seconds);
  if (!tag.empty()) j["tag"] = util::Json(tag);
  if (!tenant.empty()) j["tenant"] = util::Json(tenant);
  j["qos"] = util::Json(qos_class_name(qos));
  j["sinogram_b64"] =
      util::Json(util::base64_encode(sinogram.data(), sinogram.size() * sizeof(float)));
  return j;
}

ReconJob ReconJob::from_json(const util::Json& spec) {
  CSCV_CHECK_MSG(spec.is_object(), "job spec must be a JSON object");
  util::check_keys(spec,
                   {"geometry", "cscv", "variant", "algorithm", "value_type", "sparsify_eps",
                    "solve", "os_sart_subsets", "deadline_seconds", "tag", "tenant", "qos",
                    "sinogram_b64", "sinogram"},
                   "job spec");
  ReconJob job;

  const util::Json* g = spec.find("geometry");
  CSCV_CHECK_MSG(g != nullptr && g->is_object(),
                 "job spec: \"geometry\" object is required");
  util::check_keys(*g,
                   {"image_size", "num_bins", "num_views", "start_angle_deg", "delta_angle_deg"},
                   "job spec geometry");
  job.geometry.image_size = util::get_int_field(*g, "image_size", 0);
  job.geometry.num_bins =
      util::get_int_field(*g, "num_bins", ct::standard_num_bins(job.geometry.image_size));
  job.geometry.num_views = util::get_int_field(*g, "num_views", 0);
  job.geometry.start_angle_deg = util::get_double_field(*g, "start_angle_deg", 0.0);
  job.geometry.delta_angle_deg = util::get_double_field(
      *g, "delta_angle_deg",
      job.geometry.num_views > 0 ? 180.0 / job.geometry.num_views : 0.0);
  job.geometry.validate();  // CheckError on bad geometry -> 400

  if (const util::Json* c = spec.find("cscv")) {
    CSCV_CHECK_MSG(c->is_object(), "job spec: \"cscv\" must be an object");
    util::check_keys(*c, {"s_vvec", "s_imgb", "s_vxg", "reference", "order"},
                     "job spec cscv");
    job.cscv.s_vvec = util::get_int_field(*c, "s_vvec", job.cscv.s_vvec);
    job.cscv.s_imgb = util::get_int_field(*c, "s_imgb", job.cscv.s_imgb);
    job.cscv.s_vxg = util::get_int_field(*c, "s_vxg", job.cscv.s_vxg);
    job.cscv.reference = core::reference_from_name(
        util::get_string_field(*c, "reference", core::reference_name(job.cscv.reference)));
    job.cscv.order = core::vxg_order_from_name(
        util::get_string_field(*c, "order", core::vxg_order_name(job.cscv.order)));
    job.cscv.validate();
  }

  job.variant = variant_from_name(util::get_string_field(spec, "variant", "m"));
  job.algorithm = algorithm_from_name(util::get_string_field(spec, "algorithm", "sirt"));

  job.value_type = core::value_type_from_name(
      util::get_string_field(spec, "value_type", core::value_type_name(job.value_type)));
  job.sparsify_eps = util::get_double_field(spec, "sparsify_eps", 0.0);
  CSCV_CHECK_MSG(std::isfinite(job.sparsify_eps) && job.sparsify_eps >= 0.0,
                 "job spec: sparsify_eps must be finite and >= 0");

  if (const util::Json* s = spec.find("solve")) {
    CSCV_CHECK_MSG(s->is_object(), "job spec: \"solve\" must be an object");
    util::check_keys(*s, {"iterations", "relaxation", "nonneg_floor", "enforce_nonneg"},
                     "job spec solve");
    job.solve.iterations = util::get_int_field(*s, "iterations", job.solve.iterations);
    job.solve.relaxation = util::get_double_field(*s, "relaxation", job.solve.relaxation);
    job.solve.nonneg_floor =
        util::get_double_field(*s, "nonneg_floor", job.solve.nonneg_floor);
    job.solve.enforce_nonneg =
        util::get_bool_field(*s, "enforce_nonneg", job.solve.enforce_nonneg);
    CSCV_CHECK_MSG(job.solve.iterations >= 1, "job spec: iterations must be >= 1");
    // A non-finite value would solve into an inf/NaN volume, and to_json
    // could not write it back (JSON has no inf).
    CSCV_CHECK_MSG(std::isfinite(job.solve.relaxation),
                   "job spec: relaxation must be finite");
    CSCV_CHECK_MSG(std::isfinite(job.solve.nonneg_floor),
                   "job spec: nonneg_floor must be finite");
  }

  job.os_sart_subsets = util::get_int_field(spec, "os_sart_subsets", job.os_sart_subsets);
  CSCV_CHECK_MSG(job.os_sart_subsets >= 1, "job spec: os_sart_subsets must be >= 1");
  // The same bound ShardSpec::from_json enforces; the solve further clamps
  // the count to the operator's view groups (recon::os_sart_strata).
  if (job.algorithm == Algorithm::kOsSart) {
    CSCV_CHECK_MSG(job.os_sart_subsets <= job.geometry.num_views,
                   "job spec: os_sart_subsets " << job.os_sart_subsets << " out of [1, "
                                                << job.geometry.num_views << "]");
  }
  job.deadline_seconds = util::get_double_field(spec, "deadline_seconds", 0.0);
  CSCV_CHECK_MSG(std::isfinite(job.deadline_seconds) && job.deadline_seconds >= 0.0,
                 "job spec: deadline_seconds must be finite and >= 0");
  job.tag = util::get_string_field(spec, "tag", "");
  job.tenant = util::get_string_field(spec, "tenant", "");
  job.qos = qos_class_from_name(util::get_string_field(spec, "qos", "batch"));

  const util::Json* b64 = spec.find("sinogram_b64");
  const util::Json* arr = spec.find("sinogram");
  CSCV_CHECK_MSG((b64 != nullptr) != (arr != nullptr),
                 "job spec: exactly one of \"sinogram_b64\" / \"sinogram\" is required");
  const auto rows = static_cast<std::size_t>(job.geometry.num_rows());
  if (b64 != nullptr) {
    const std::vector<unsigned char> bytes = util::base64_decode(b64->as_string());
    CSCV_CHECK_MSG(bytes.size() == rows * sizeof(float),
                   "job spec: sinogram_b64 decodes to "
                       << bytes.size() << " bytes, geometry wants "
                       << rows * sizeof(float) << " (" << rows << " float32)");
    job.sinogram.resize(rows);
    if (!bytes.empty()) std::memcpy(job.sinogram.data(), bytes.data(), bytes.size());
  } else {
    CSCV_CHECK_MSG(arr->is_array(), "job spec: \"sinogram\" must be an array");
    CSCV_CHECK_MSG(arr->size() == rows, "job spec: sinogram has "
                                            << arr->size() << " elements, geometry wants "
                                            << rows);
    job.sinogram.resize(rows);
    for (std::size_t i = 0; i < rows; ++i) {
      job.sinogram[i] = static_cast<float>(arr->at(i).as_double());
    }
  }
  return job;
}

util::Json ReconResult::to_json() const {
  util::Json j = util::Json::object();
  j["job_id"] = util::Json(job_id);
  if (!tag.empty()) j["tag"] = util::Json(tag);
  j["status"] = util::Json(job_status_name(status));
  if (!error.empty()) j["error"] = util::Json(error);
  j["worker"] = util::Json(worker);
  j["cache_hit"] = util::Json(cache_hit);
  j["queue_wait_seconds"] = util::Json(queue_wait_seconds);
  j["acquire_seconds"] = util::Json(acquire_seconds);
  j["solve_seconds"] = util::Json(solve_seconds);
  j["iterations_run"] = util::Json(iterations_run);
  j["final_residual"] = util::Json(final_residual);
  if (batch_size > 1) {
    j["batch_size"] = util::Json(batch_size);
    j["batch_index"] = util::Json(batch_index);
  }
  if (os_sart_subsets > 0) j["os_sart_subsets"] = util::Json(os_sart_subsets);
  j["volume_elements"] = util::Json(volume.size());
  if (plan_stats.nnz > 0) {
    util::Json p = util::Json::object();
    p["nnz"] = util::Json(plan_stats.nnz);
    p["padding_fraction"] = util::Json(plan_stats.padding_fraction);
    p["value_type"] = util::Json(core::value_type_name(plan_stats.value_type));
    p["folded"] = util::Json(plan_stats.folded);
    p["isa_tier"] = util::Json(simd::isa_tier_name(plan_stats.isa_tier));
    if (plan_stats.isa_clamped) p["isa_clamped"] = util::Json(true);
    p["threads"] = util::Json(plan_stats.threads);
    p["scratch_bytes"] = util::Json(plan_stats.scratch_bytes);
    if (plan_stats.telemetry_enabled) {
      p["applies"] = util::Json(plan_stats.applies);
      p["transpose_applies"] = util::Json(plan_stats.transpose_applies);
      p["gflops_best"] = util::Json(plan_stats.gflops_best);
      p["transpose_gflops_best"] = util::Json(plan_stats.transpose_gflops_best);
    }
    j["plan"] = p;
  }
  return j;
}

}  // namespace cscv::pipeline
