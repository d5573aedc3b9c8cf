// Quickstart: the StackThreads/MP-style API in one page.
//
//   $ ./examples/quickstart [n]
//
// Shows the three ways to express the paper's "futures in calling
// standards": a fork counted by a join counter (Figure 8), the st::spawn
// future call, and a suspend/resume round trip.
#include <cstdio>
#include <cstdlib>

#include "runtime/runtime.hpp"
#include "sync/future.hpp"
#include "sync/join_counter.hpp"

namespace {

long fib(int n) {
  if (n < 2) return n;
  long a = 0;
  st::JoinCounter jc;
  // ASYNC_CALL: the child runs immediately (LIFO); our continuation is
  // stealable by idle workers.  The counter counts the child only if it
  // detaches from us (we were stolen, or it suspended).
  st::fork(jc, [&a, n] { a = fib(n - 1); });
  const long b = fib(n - 2);
  jc.join();  // suspends only if the child was stolen and is unfinished
  return a + b;
}

}  // namespace

int main(int argc, char** argv) {
  const int n = argc > 1 ? std::atoi(argv[1]) : 26;
  st::Runtime rt(st::RuntimeConfig{});  // one worker; pass {4} for four

  // 1. counted fork + join (the paper's Figure 8 pattern).
  rt.run([&] {
    std::printf("fib(%d) = %ld  (forks are asynchronous calls)\n", n, fib(n));
  });

  // 2. future calls: spawn returns a handle; get() suspends if needed.
  rt.run([&] {
    auto square = st::spawn([&] { return static_cast<long>(n) * n; });
    auto cube = st::spawn([&] { return static_cast<long>(n) * n * n; });
    std::printf("%d^2 + %d^3 = %ld  (via futures)\n", n, n, square.get() + cube.get());
  });

  // 3. suspend/resume: a thread detaches mid-execution and is continued
  // later -- the primitive everything above is built from.
  rt.run([&] {
    st::Continuation paused;
    st::JoinCounter done;
    st::fork(done, [&] {
      std::printf("child: suspending...\n");
      st::suspend(&paused);
      std::printf("child: resumed, finishing\n");
    });
    std::printf("parent: child is parked; resuming it\n");
    st::resume(&paused);
    done.join();
  });

  const auto s = rt.stats();
  std::printf("stats: %llu forks, %llu suspends, %llu steals\n",
              static_cast<unsigned long long>(s.forks),
              static_cast<unsigned long long>(s.suspends),
              static_cast<unsigned long long>(s.steals_received));
  return 0;
}
