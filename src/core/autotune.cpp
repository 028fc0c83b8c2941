#include "core/autotune.hpp"

#include "core/plan.hpp"
#include "sparse/random.hpp"
#include "util/parallel.hpp"
#include "util/timing.hpp"

namespace cscv::core {

template <typename T>
AutotuneResult autotune(const sparse::CscMatrix<T>& a, const OperatorLayout& layout,
                        typename CscvMatrix<T>::Variant variant,
                        const AutotuneOptions& options) {
  CSCV_CHECK(options.iterations >= 1);
  const bool is_z = variant == CscvMatrix<T>::Variant::kZ;
  const int threads = is_z ? 1
                           : (options.threads > 0 ? options.threads : util::max_threads());

  const auto x = sparse::random_vector<T>(static_cast<std::size_t>(a.cols()), 99, 0.0, 1.0);
  util::AlignedVector<T> y(static_cast<std::size_t>(a.rows()));

  AutotuneResult best;
  best.gflops = -1.0;
  const int saved_threads = util::max_threads();
  for (int s_vvec : options.s_vvec_candidates) {
    for (int s_imgb : options.s_imgb_candidates) {
      for (int s_vxg : options.s_vxg_candidates) {
        const CscvParams p{.s_vvec = s_vvec, .s_imgb = s_imgb, .s_vxg = s_vxg};
        p.validate();
        const auto m = CscvMatrix<T>::build(a, layout, p, variant);
        ++best.candidates_tried;
        if (m.r_nnze() > options.max_r_nnze) {
          ++best.candidates_skipped;
          continue;
        }
        util::set_num_threads(threads);
        const SpmvPlan<T> plan(m, {.threads = threads});
        const double seconds =
            util::min_time_seconds(options.iterations, [&] { plan.execute(x, y); });
        util::set_num_threads(saved_threads);
        const double gflops =
            util::spmv_gflops(static_cast<std::uint64_t>(m.nnz()), seconds);
        if (gflops > best.gflops) {
          best.gflops = gflops;
          best.params = p;
          best.r_nnze = m.r_nnze();
        }
      }
    }
  }
  CSCV_CHECK_MSG(best.gflops >= 0.0, "no candidate survived the R_nnzE cap");
  return best;
}

template AutotuneResult autotune<float>(const sparse::CscMatrix<float>&,
                                        const OperatorLayout&, CscvMatrix<float>::Variant,
                                        const AutotuneOptions&);
template AutotuneResult autotune<double>(const sparse::CscMatrix<double>&,
                                         const OperatorLayout&, CscvMatrix<double>::Variant,
                                         const AutotuneOptions&);

}  // namespace cscv::core
