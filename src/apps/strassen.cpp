#include "apps/strassen.hpp"

#include <cassert>

#include "apps/common.hpp"
#include "apps/exec_policy.hpp"

namespace apps::strassen {

namespace {

/// Dense leaf product: out = a * b, all n x n with stride n (contiguous).
void leaf_mul(double* out, const double* a, const double* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) out[i * n + j] = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      const double aik = a[i * n + k];
      for (std::size_t j = 0; j < n; ++j) out[i * n + j] += aik * b[k * n + j];
    }
  }
}

/// Copies quadrant (qi, qj) of src (edge 2h, stride ld) into dst (dense h x h).
void pack(double* dst, const double* src, std::size_t h, std::size_t ld, int qi, int qj) {
  const double* s = src + static_cast<std::size_t>(qi) * h * ld + static_cast<std::size_t>(qj) * h;
  for (std::size_t i = 0; i < h; ++i) {
    for (std::size_t j = 0; j < h; ++j) dst[i * h + j] = s[i * ld + j];
  }
}

void add_into(double* dst, const double* x, const double* y, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) dst[i] = x[i] + y[i];
}
void sub_into(double* dst, const double* x, const double* y, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) dst[i] = x[i] - y[i];
}

template <typename Exec>
void strassen_rec(double* c, const double* a, const double* b, std::size_t n) {
  if (n <= kLeaf) {
    leaf_mul(c, a, b, n);
    return;
  }
  const std::size_t h = n / 2;
  const std::size_t q = h * h;

  // Dense quadrant copies (Strassen needs the sums anyway; packing also
  // keeps every recursive call contiguous).
  std::vector<double> buf(q * 21);
  double* a11 = &buf[0 * q];
  double* a12 = &buf[1 * q];
  double* a21 = &buf[2 * q];
  double* a22 = &buf[3 * q];
  double* b11 = &buf[4 * q];
  double* b12 = &buf[5 * q];
  double* b21 = &buf[6 * q];
  double* b22 = &buf[7 * q];
  double* m1 = &buf[8 * q];
  double* m2 = &buf[9 * q];
  double* m3 = &buf[10 * q];
  double* m4 = &buf[11 * q];
  double* m5 = &buf[12 * q];
  double* m6 = &buf[13 * q];
  double* m7 = &buf[14 * q];
  double* t1 = &buf[15 * q];
  double* t2 = &buf[16 * q];
  double* t3 = &buf[17 * q];
  double* t4 = &buf[18 * q];
  double* t5 = &buf[19 * q];
  double* t6 = &buf[20 * q];

  pack(a11, a, h, n, 0, 0);
  pack(a12, a, h, n, 0, 1);
  pack(a21, a, h, n, 1, 0);
  pack(a22, a, h, n, 1, 1);
  pack(b11, b, h, n, 0, 0);
  pack(b12, b, h, n, 0, 1);
  pack(b21, b, h, n, 1, 0);
  pack(b22, b, h, n, 1, 1);

  // Seven products, each on its own operand buffers, in parallel.
  // M1 = (A11 + A22)(B11 + B22)     M2 = (A21 + A22) B11
  // M3 = A11 (B12 - B22)            M4 = A22 (B21 - B11)
  // M5 = (A11 + A12) B22            M6 = (A21 - A11)(B11 + B12)
  // M7 = (A12 - A22)(B21 + B22)
  std::vector<double> extra(q * 4);
  double* u1 = &extra[0 * q];
  double* u2 = &extra[1 * q];
  double* u3 = &extra[2 * q];
  double* u4 = &extra[3 * q];
  Exec::par(
      [&] {
        add_into(t1, a11, a22, q);
        add_into(u1, b11, b22, q);
        strassen_rec<Exec>(m1, t1, u1, h);
      },
      [&] {
        add_into(t2, a21, a22, q);
        strassen_rec<Exec>(m2, t2, b11, h);
      },
      [&] {
        sub_into(t3, b12, b22, q);
        strassen_rec<Exec>(m3, a11, t3, h);
      },
      [&] {
        sub_into(t4, b21, b11, q);
        strassen_rec<Exec>(m4, a22, t4, h);
      },
      [&] {
        add_into(t5, a11, a12, q);
        strassen_rec<Exec>(m5, t5, b22, h);
      },
      [&] {
        sub_into(t6, a21, a11, q);
        add_into(u2, b11, b12, q);
        strassen_rec<Exec>(m6, t6, u2, h);
      },
      [&] {
        sub_into(u3, a12, a22, q);
        add_into(u4, b21, b22, q);
        strassen_rec<Exec>(m7, u3, u4, h);
      });

  // C11 = M1 + M4 - M5 + M7, C12 = M3 + M5, C21 = M2 + M4,
  // C22 = M1 - M2 + M3 + M6; written quadrant-parallel.
  Exec::par(
      [&] {
        for (std::size_t i = 0; i < h; ++i) {
          for (std::size_t j = 0; j < h; ++j) {
            c[i * n + j] = m1[i * h + j] + m4[i * h + j] - m5[i * h + j] + m7[i * h + j];
          }
        }
      },
      [&] {
        for (std::size_t i = 0; i < h; ++i) {
          for (std::size_t j = 0; j < h; ++j) {
            c[i * n + (j + h)] = m3[i * h + j] + m5[i * h + j];
          }
        }
      },
      [&] {
        for (std::size_t i = 0; i < h; ++i) {
          for (std::size_t j = 0; j < h; ++j) {
            c[(i + h) * n + j] = m2[i * h + j] + m4[i * h + j];
          }
        }
      },
      [&] {
        for (std::size_t i = 0; i < h; ++i) {
          for (std::size_t j = 0; j < h; ++j) {
            c[(i + h) * n + (j + h)] =
                m1[i * h + j] - m2[i * h + j] + m3[i * h + j] + m6[i * h + j];
          }
        }
      });
}

// Only assert()s call it; NDEBUG builds compile them out.
[[maybe_unused]] bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

}  // namespace

void multiply_seq(Matrix& c, const Matrix& a, const Matrix& b, std::size_t n) {
  assert(is_pow2(n) && c.size() == n * n);
  strassen_rec<SeqExec>(c.data(), a.data(), b.data(), n);
}
void multiply_st(Matrix& c, const Matrix& a, const Matrix& b, std::size_t n) {
  assert(is_pow2(n) && c.size() == n * n);
  strassen_rec<StExec>(c.data(), a.data(), b.data(), n);
}
void multiply_ck(Matrix& c, const Matrix& a, const Matrix& b, std::size_t n) {
  assert(is_pow2(n) && c.size() == n * n);
  strassen_rec<CkExec>(c.data(), a.data(), b.data(), n);
}

std::uint64_t checksum(const Matrix& m) { return hash_vector(m); }

}  // namespace apps::strassen
