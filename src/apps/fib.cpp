#include "apps/fib.hpp"

#include "cilk/cilkstyle.hpp"
#include "runtime/runtime.hpp"
#include "sync/join_counter.hpp"

namespace apps::fib {

long seq(int n) {
  if (n < 2) return n;
  return seq(n - 1) + seq(n - 2);
}

long run_st(int n) {
  if (n < 2) return n;
  long a = 0;
  st::JoinCounter jc;
  st::fork(jc, [&a, n] { a = run_st(n - 1); });
  const long b = run_st(n - 2);
  jc.join();
  return a + b;
}

long run_ck(int n) {
  if (n < 2) return n;
  long a = 0;
  ck::SpawnGroup g;
  g.spawn([&a, n] { a = run_ck(n - 1); });
  const long b = run_ck(n - 2);
  g.sync();
  return a + b;
}

}  // namespace apps::fib
