#include "apps/cilksort.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <new>

#include "apps/common.hpp"
#include "cilk/cilkstyle.hpp"
#include "runtime/runtime.hpp"
#include "sync/join_counter.hpp"

namespace apps::cilksort {

namespace {

void merge_halves(long* lo, long* mid, long* hi, long* tmp) {
  long* a = lo;
  long* b = mid;
  long* out = tmp;
  while (a != mid && b != hi) *out++ = (*b < *a) ? *b++ : *a++;
  while (a != mid) *out++ = *a++;
  while (b != hi) *out++ = *b++;
  std::copy(tmp, out, lo);
}

void sort_seq(long* lo, long* hi, long* tmp) {
  const std::size_t n = static_cast<std::size_t>(hi - lo);
  if (n <= kCutoff) {
    std::sort(lo, hi);
    return;
  }
  long* mid = lo + n / 2;
  sort_seq(lo, mid, tmp);
  sort_seq(mid, hi, tmp + (mid - lo));
  merge_halves(lo, mid, hi, tmp);
}

void sort_st(long* lo, long* hi, long* tmp) {
  const std::size_t n = static_cast<std::size_t>(hi - lo);
  if (n <= kCutoff) {
    std::sort(lo, hi);
    return;
  }
  long* mid = lo + n / 2;
  st::JoinCounter jc(1);
  st::fork([lo, mid, tmp, &jc] {
    sort_st(lo, mid, tmp);
    jc.finish();
  });
  sort_st(mid, hi, tmp + (mid - lo));
  jc.join();
  merge_halves(lo, mid, hi, tmp);
}

void sort_ck(long* lo, long* hi, long* tmp) {
  const std::size_t n = static_cast<std::size_t>(hi - lo);
  if (n <= kCutoff) {
    std::sort(lo, hi);
    return;
  }
  long* mid = lo + n / 2;
  ck::SpawnGroup g;
  g.spawn([lo, mid, tmp] { sort_ck(lo, mid, tmp); });
  sort_ck(mid, hi, tmp + (mid - lo));
  g.sync();
  merge_halves(lo, mid, hi, tmp);
}

/// The merge scratch, as large as the input, in its own anonymous
/// mapping that is unmapped when the sort ends.  A heap buffer this size
/// would, once glibc has raised its mmap threshold after the first
/// free, come from the malloc arena of whichever thread runs the sort,
/// and every arena would keep its freed copy resident.  The kernel
/// zero-fills the mapping; MAP_POPULATE faults it in up front, as the
/// old value-initialization did.
class Scratch {
 public:
  explicit Scratch(std::size_t n) : bytes_(n * sizeof(long)) {
    if (bytes_ == 0) return;
    int flags = MAP_PRIVATE | MAP_ANONYMOUS;
#ifdef MAP_POPULATE
    flags |= MAP_POPULATE;
#endif
    void* p = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE, flags, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    p_ = static_cast<long*>(p);
  }
  ~Scratch() {
    if (p_ != nullptr) ::munmap(p_, bytes_);
  }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;
  long* data() const { return p_; }

 private:
  std::size_t bytes_;
  long* p_ = nullptr;
};

}  // namespace

void seq(std::vector<long>& data) {
  Scratch tmp(data.size());
  sort_seq(data.data(), data.data() + data.size(), tmp.data());
}

void run_st(std::vector<long>& data) {
  Scratch tmp(data.size());
  sort_st(data.data(), data.data() + data.size(), tmp.data());
}

void run_ck(std::vector<long>& data) {
  Scratch tmp(data.size());
  sort_ck(data.data(), data.data() + data.size(), tmp.data());
}

std::vector<long> make_input(std::size_t n, std::uint64_t seed) {
  return random_longs(n, seed, -1000000, 1000000);
}

std::uint64_t checksum(const std::vector<long>& sorted) { return hash_vector(sorted); }

}  // namespace apps::cilksort
