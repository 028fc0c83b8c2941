// Fuzz surface: pipeline::ReconJob::from_json — the composed POST /v1/jobs
// path (src/pipeline/job.hpp): JSON text -> strict-key spec validation ->
// base64 sinogram decode -> geometry checks. Contract: any text either
// throws util::CheckError (the 400 path) or yields a job whose wire round
// trip (to_json -> from_json) is accepted again and reproduces the same
// shape, and an accepted OS-SART job has 1 <= os_sart_subsets <= num_views
// (the solve clamps the count to the view groups, so it cannot fail on it).
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "pipeline/job.hpp"
#include "util/assertx.hpp"
#include "util/json.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  using cscv::pipeline::ReconJob;
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  ReconJob job;
  try {
    job = ReconJob::from_json(cscv::util::Json::parse(text));
  } catch (const cscv::util::CheckError&) {
    return 0;  // malformed spec rejected — the expected path (HTTP 400)
  }
  ReconJob back;
  try {
    back = ReconJob::from_json(job.to_json());
  } catch (const cscv::util::CheckError&) {
    __builtin_trap();  // accepted spec whose own wire format is refused
  }
  if (back.sinogram.size() != job.sinogram.size() ||
      back.geometry.image_size != job.geometry.image_size) {
    __builtin_trap();  // accepted spec did not survive its own wire format
  }
  if (job.algorithm == cscv::pipeline::Algorithm::kOsSart &&
      (job.os_sart_subsets < 1 || job.os_sart_subsets > job.geometry.num_views)) {
    __builtin_trap();  // accepted an OS-SART subset count no stratum split can serve
  }
  return 0;
}
