// Iterative CT reconstruction — the paper's motivating application.
//
//   ./ct_reconstruction [--image=128] [--views=120] [--iters=100]
//                       [--solver=sirt|cgls|icd|ossart|fbp] [--out=recon.pgm]
//                       [--dose=I0]   (transmission Poisson noise; 0 = off)
//
// Pipeline: Shepp-Logan phantom -> analytic sinogram (so the inverse
// problem has genuine discretization mismatch) -> SIRT/CGLS/OS-SART/FBP
// with the CSCV forward projector and CSCV backprojector (ICD on CSC) ->
// RMSE vs ground truth + PGM images of phantom and reconstruction.
#include <algorithm>
#include <fstream>
#include <iostream>

#include "core/format.hpp"
#include "ct/noise.hpp"
#include "ct/phantom.hpp"
#include "ct/system_matrix.hpp"
#include "recon/fbp.hpp"
#include "recon/solvers.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/timing.hpp"

namespace {

// 8-bit PGM writer: enough to eyeball a reconstruction without bringing an
// image library into the build.
void write_pgm(const std::string& path, std::span<const double> img, int n) {
  double lo = img[0], hi = img[0];
  for (double v : img) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const double scale = hi > lo ? 255.0 / (hi - lo) : 0.0;
  std::ofstream out(path, std::ios::binary);
  out << "P5\n" << n << ' ' << n << "\n255\n";
  for (int iy = n - 1; iy >= 0; --iy) {  // flip: PGM is top-down
    for (int ix = 0; ix < n; ++ix) {
      const double v = img[static_cast<std::size_t>(iy) * n + ix];
      out.put(static_cast<char>(std::clamp((v - lo) * scale, 0.0, 255.0)));
    }
  }
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace cscv;
  util::CliFlags cli(argc, argv);
  const int image = cli.get_int("image", 128);
  const int views = cli.get_int("views", 120);
  const int iters = cli.get_int("iters", 100);
  const std::string solver = cli.get_string("solver", "sirt");
  const std::string out_path = cli.get_string("out", "recon.pgm");
  const double dose = cli.get_double("dose", 0.0);
  cli.finish();
  CSCV_CHECK_MSG(solver == "sirt" || solver == "cgls" || solver == "icd" ||
                     solver == "ossart" || solver == "fbp",
                 "unknown --solver=" << solver << " (want sirt|cgls|icd|ossart|fbp)");

  const auto geometry = ct::standard_geometry(image, views);
  std::cout << "building system matrix (" << image << "x" << image << ", " << views
            << " views)...\n";
  util::WallTimer build_timer;
  const auto csc = ct::build_system_matrix_csc<double>(geometry,
                                                       ct::FootprintModel::kTrapezoid);
  const auto layout = core::OperatorLayout::from_geometry(geometry);
  const auto cscv = core::CscvMatrix<double>::build(
      csc, layout, {.s_vvec = 8, .s_imgb = 32, .s_vxg = 2},
      core::CscvMatrix<double>::Variant::kM);
  std::cout << "  " << csc.nnz() << " nonzeros, R_nnzE = " << cscv.r_nnze() << ", built in "
            << build_timer.seconds() << " s\n";

  // Measured data: the closed-form Radon transform of the phantom, i.e.
  // NOT produced by our own matrix — a genuine inverse problem.
  const auto phantom = ct::shepp_logan_modified();
  const auto ground_truth = ct::rasterize<double>(phantom, image);
  auto sinogram = ct::analytic_sinogram<double>(phantom, geometry);
  if (dose > 0.0) {
    // Transmission Poisson noise at I0 = dose photons per detector cell
    // (line integrals scaled to plausible attenuation units first).
    const double atten_scale = 2.0 / image;
    for (auto& v : sinogram) v *= atten_scale;
    util::Rng rng(1234);
    ct::add_transmission_poisson_noise<double>(std::span<double>(sinogram), dose, rng);
    for (auto& v : sinogram) v /= atten_scale;
    std::cout << "added transmission Poisson noise at I0 = " << dose << "\n";
  }

  // Builds the execution plan outside the solve timer.
  const core::SpmvPlan<double> plan(cscv);
  const recon::PlanOperator<double> op(plan);
  util::AlignedVector<double> x(static_cast<std::size_t>(csc.cols()), 0.0);
  std::cout << "reconstructing with " << solver << " (" << iters << " iterations)...\n";
  util::WallTimer solve_timer;
  recon::RunStats stats;
  if (solver == "cgls") {
    stats = recon::cgls<double>(op, sinogram, x, {.iterations = iters});
  } else if (solver == "icd") {
    stats = recon::icd<double>(csc, sinogram, x, {.iterations = iters});
  } else if (solver == "ossart") {
    stats = recon::os_sart<double>(op, sinogram, x, 10,
                                   {.iterations = iters, .relaxation = 0.7});
  } else if (solver == "fbp") {
    auto img = recon::fbp<double>(geometry, op, std::span<const double>(sinogram),
                                  dose > 0.0 ? recon::FbpWindow::kHann
                                             : recon::FbpWindow::kRamLak);
    std::copy(img.begin(), img.end(), x.begin());
  } else {  // sirt
    stats = recon::sirt<double>(op, sinogram, x, {.iterations = iters});
  }
  const double solve_seconds = solve_timer.seconds();

  if (!stats.residual_norms.empty()) {
    std::cout << "  residual: " << stats.residual_norms.front() << " -> "
              << stats.residual_norms.back() << " in " << solve_seconds << " s ("
              << solve_seconds / stats.iterations_run << " s/iter)\n";
  } else {
    std::cout << "  solved analytically (FBP) in " << solve_seconds << " s\n";
  }
  std::cout << "  image RMSE vs phantom: " << util::rmse<double>(x, ground_truth) << "\n";

  write_pgm(out_path, x, image);
  write_pgm("phantom.pgm", ground_truth, image);
  std::cout << "wrote " << out_path << " and phantom.pgm\n";
  return 0;
} catch (const std::exception& e) {
  return cscv::util::report_main_error(argv[0], e);
}
