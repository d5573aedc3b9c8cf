#include "apps/heat.hpp"

#include "apps/common.hpp"
#include "apps/exec_policy.hpp"

namespace apps::heat {

Grid make_grid(std::size_t nx, std::size_t ny) {
  Grid g{nx, ny, std::vector<double>(nx * ny, 0.0)};
  for (std::size_t i = nx / 4; i < nx / 2; ++i) {
    for (std::size_t j = ny / 4; j < ny / 2; ++j) g.cells[i * ny + j] = 100.0;
  }
  return g;
}

namespace {

constexpr double kAlpha = 0.2;

template <typename Exec>
void run_steps(Grid& g, int steps) {
  const std::size_t nx = g.nx, ny = g.ny;
  std::vector<double> next(g.cells.size(), 0.0);
  const std::size_t band = std::max<std::size_t>(8, nx / 64);
  for (int s = 0; s < steps; ++s) {
    const double* cur = g.cells.data();
    double* out = next.data();
    Exec::par_for(1, nx - 1, band, [cur, out, ny](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        Exec::poll();
        for (std::size_t j = 1; j < ny - 1; ++j) {
          const double c = cur[i * ny + j];
          out[i * ny + j] = c + kAlpha * (cur[(i - 1) * ny + j] + cur[(i + 1) * ny + j] +
                                          cur[i * ny + j - 1] + cur[i * ny + j + 1] - 4.0 * c);
        }
      }
    });
    g.cells.swap(next);
  }
}

}  // namespace

void step_seq(Grid& g, int steps) { run_steps<SeqExec>(g, steps); }
void step_st(Grid& g, int steps) { run_steps<StExec>(g, steps); }
void step_ck(Grid& g, int steps) { run_steps<CkExec>(g, steps); }

std::uint64_t checksum(const Grid& g) { return hash_vector(g.cells); }

}  // namespace apps::heat
