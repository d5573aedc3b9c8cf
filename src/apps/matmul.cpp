#include "apps/matmul.hpp"

#include <cassert>

#include "apps/common.hpp"
#include "apps/exec_policy.hpp"

namespace apps::matmul {

namespace {

constexpr std::size_t kLeaf = 32;  // recursive base-case edge

/// Leaf kernel: C += A*B on sub-blocks addressed with a shared leading
/// dimension ld (i,k,j order: ascending k, cache-friendly inner j).
void mm_leaf(double* c, const double* a, const double* b, std::size_t n, std::size_t ld) {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < n; ++k) {
      const double aik = a[i * ld + k];
      for (std::size_t j = 0; j < n; ++j) c[i * ld + j] += aik * b[k * ld + j];
    }
  }
}

template <typename Exec>
void mm_rec_notemp(double* c, const double* a, const double* b, std::size_t n, std::size_t ld) {
  if (n <= kLeaf) {
    mm_leaf(c, a, b, n, ld);
    return;
  }
  const std::size_t h = n / 2;
  const std::size_t dr = h * ld;  // offset of the lower half (rows)
  // Phase 1: the k < h halves of all four quadrants.
  Exec::par([&] { mm_rec_notemp<Exec>(c, a, b, h, ld); },
            [&] { mm_rec_notemp<Exec>(c + h, a, b + h, h, ld); },
            [&] { mm_rec_notemp<Exec>(c + dr, a + dr, b, h, ld); },
            [&] { mm_rec_notemp<Exec>(c + dr + h, a + dr, b + h, h, ld); });
  // Phase 2: the k >= h halves, accumulating onto phase 1.
  Exec::par([&] { mm_rec_notemp<Exec>(c, a + h, b + dr, h, ld); },
            [&] { mm_rec_notemp<Exec>(c + h, a + h, b + dr + h, h, ld); },
            [&] { mm_rec_notemp<Exec>(c + dr, a + dr + h, b + dr, h, ld); },
            [&] { mm_rec_notemp<Exec>(c + dr + h, a + dr + h, b + dr + h, h, ld); });
}

/// Adds t (ld-strided block) into c element-wise, splitting rows.
template <typename Exec>
void add_block(double* c, const double* t, std::size_t n, std::size_t ld) {
  Exec::par_for(0, n, n <= kLeaf ? n : n / 2, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      for (std::size_t j = 0; j < n; ++j) c[i * ld + j] += t[i * ld + j];
    }
  });
}

template <typename Exec>
void mm_rec_space(double* c, const double* a, const double* b, std::size_t n, std::size_t ld) {
  if (n <= kLeaf) {
    mm_leaf(c, a, b, n, ld);
    return;
  }
  const std::size_t h = n / 2;
  const std::size_t dr = h * ld;
  // Temporary for the k >= h products; zero-initialized (ld == n here to
  // keep the scratch dense would complicate indexing, so the scratch
  // reuses the parent stride: n*ld doubles but only the quadrant slots
  // are touched).
  std::vector<double> t(n * ld, 0.0);
  double* td = t.data();
  Exec::par([&] { mm_rec_space<Exec>(c, a, b, h, ld); },
            [&] { mm_rec_space<Exec>(c + h, a, b + h, h, ld); },
            [&] { mm_rec_space<Exec>(c + dr, a + dr, b, h, ld); },
            [&] { mm_rec_space<Exec>(c + dr + h, a + dr, b + h, h, ld); },
            [&] { mm_rec_space<Exec>(td, a + h, b + dr, h, ld); },
            [&] { mm_rec_space<Exec>(td + h, a + h, b + dr + h, h, ld); },
            [&] { mm_rec_space<Exec>(td + dr, a + dr + h, b + dr, h, ld); },
            [&] { mm_rec_space<Exec>(td + dr + h, a + dr + h, b + dr + h, h, ld); });
  Exec::par([&] { add_block<Exec>(c, td, h, ld); },
            [&] { add_block<Exec>(c + h, td + h, h, ld); },
            [&] { add_block<Exec>(c + dr, td + dr, h, ld); },
            [&] { add_block<Exec>(c + dr + h, td + dr + h, h, ld); });
}

template <typename Exec>
void mm_blocked(double* c, const double* a, const double* b, std::size_t n) {
  // Parallel over block rows of C; each block row runs its k-blocks in
  // ascending order (bit-identical to the naive loop).
  Exec::par_for(0, n, kLeaf, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t k0 = 0; k0 < n; k0 += kLeaf) {
      for (std::size_t j0 = 0; j0 < n; j0 += kLeaf) {
        Exec::poll();
        for (std::size_t i = i0; i < i1; ++i) {
          for (std::size_t k = k0; k < std::min(k0 + kLeaf, n); ++k) {
            const double aik = a[i * n + k];
            for (std::size_t j = j0; j < std::min(j0 + kLeaf, n); ++j) {
              c[i * n + j] += aik * b[k * n + j];
            }
          }
        }
      }
    }
  });
}

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

template <typename Exec>
void dispatch(Variant v, Matrix& c, const Matrix& a, const Matrix& b, std::size_t n) {
  assert(c.size() == n * n && a.size() == n * n && b.size() == n * n);
  switch (v) {
    case Variant::kNoTemp:
      assert(is_pow2(n));
      mm_rec_notemp<Exec>(c.data(), a.data(), b.data(), n, n);
      break;
    case Variant::kSpace:
      assert(is_pow2(n));
      mm_rec_space<Exec>(c.data(), a.data(), b.data(), n, n);
      break;
    case Variant::kBlocked:
      mm_blocked<Exec>(c.data(), a.data(), b.data(), n);
      break;
  }
}

}  // namespace

void multiply_seq(Variant v, Matrix& c, const Matrix& a, const Matrix& b, std::size_t n) {
  dispatch<SeqExec>(v, c, a, b, n);
}
void multiply_st(Variant v, Matrix& c, const Matrix& a, const Matrix& b, std::size_t n) {
  dispatch<StExec>(v, c, a, b, n);
}
void multiply_ck(Variant v, Matrix& c, const Matrix& a, const Matrix& b, std::size_t n) {
  dispatch<CkExec>(v, c, a, b, n);
}

void multiply_naive(Matrix& c, const Matrix& a, const Matrix& b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < n; ++k) {
      const double aik = a[i * n + k];
      for (std::size_t j = 0; j < n; ++j) c[i * n + j] += aik * b[k * n + j];
    }
  }
}

std::uint64_t checksum(const Matrix& m) { return hash_vector(m); }

}  // namespace apps::matmul
