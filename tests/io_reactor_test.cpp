// Reactor correctness: the suspend/restart <-> epoll handshake
// (src/io/reactor.cpp, docs/ASYNC_IO.md).  Each test drives real kernel
// objects -- socketpairs, TCP loopback, timerfd -- through the public
// st::io surface; nothing here reaches into reactor internals.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "io/net.hpp"
#include "runtime/runtime.hpp"
#include "sync/join_counter.hpp"

namespace {

/// AF_UNIX stream socketpair wrapped as two reactor-registered handles.
struct Pair {
  st::io::IoFd a, b;
  Pair() {
    int sv[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0) {
      a = st::io::IoFd(sv[0]);
      b = st::io::IoFd(sv[1]);
    }
  }
  bool valid() const { return a.valid() && b.valid(); }
};

TEST(IoReactor, ImmediateReadNeedsNoSuspend) {
  st::Runtime rt(1);
  rt.run([&] {
    Pair p;
    ASSERT_TRUE(p.valid());
    ASSERT_EQ(::write(p.b.fd(), "hi", 2), 2);  // data ready before the call
    char buf[8] = {};
    EXPECT_EQ(st::io::read(p.a, buf, sizeof buf), 2);
    EXPECT_STREQ(buf, "hi");
  });
}

TEST(IoReactor, ReadSuspendsUntilPeerWrites) {
  st::Runtime rt(2);
  std::atomic<bool> got{false};
  rt.run([&] {
    Pair p;
    ASSERT_TRUE(p.valid());
    st::JoinCounter done(2);
    st::fork([&] {
      char buf[8] = {};
      EXPECT_EQ(st::io::read(p.a, buf, sizeof buf), 5);  // suspends: pipe empty
      got.store(std::memcmp(buf, "hello", 5) == 0);
      done.finish();
    });
    st::fork([&] {
      st::io::sleep_for(std::chrono::milliseconds(5));  // let the reader arm
      EXPECT_EQ(st::io::write(p.b, "hello", 5), 5);
      done.finish();
    });
    done.join();
  });
  EXPECT_TRUE(got.load());
}

TEST(IoReactor, WriteSuspendsUntilPeerDrains) {
  st::Runtime rt(2);
  constexpr std::size_t kTotal = 1 << 20;  // far beyond any socket buffer
  std::atomic<long> drained{0};
  rt.run([&] {
    Pair p;
    ASSERT_TRUE(p.valid());
    const int tiny = 4096;
    ::setsockopt(p.a.fd(), SOL_SOCKET, SO_SNDBUF, &tiny, sizeof tiny);
    st::JoinCounter done(2);
    st::fork([&] {
      std::vector<char> buf(kTotal, 'x');
      std::size_t off = 0;
      while (off < kTotal) {
        const ssize_t n = st::io::write(p.a, buf.data() + off, kTotal - off);
        ASSERT_GT(n, 0);  // suspends on EAGAIN; never fails
        off += static_cast<std::size_t>(n);
      }
      p.a.close();  // EOF for the drainer
      done.finish();
    });
    st::fork([&] {
      char buf[8192];
      for (;;) {
        const ssize_t n = st::io::read(p.b, buf, sizeof buf);
        if (n <= 0) break;
        drained.fetch_add(n, std::memory_order_relaxed);
      }
      done.finish();
    });
    done.join();
  });
  EXPECT_EQ(drained.load(), static_cast<long>(kTotal));
}

TEST(IoReactor, CloseWhileSuspendedCancelsWithEcanceled) {
  st::Runtime rt(2);
  std::atomic<int> got_errno{0};
  rt.run([&] {
    Pair p;
    ASSERT_TRUE(p.valid());
    st::JoinCounter done(2);
    st::fork([&] {
      char buf[8];
      const ssize_t n = st::io::read(p.a, buf, sizeof buf);  // no data: suspends
      if (n < 0) got_errno.store(errno);
      done.finish();
    });
    st::fork([&] {
      st::io::sleep_for(std::chrono::milliseconds(10));  // reader is suspended
      p.a.close();
      done.finish();
    });
    done.join();
  });
  EXPECT_EQ(got_errno.load(), ECANCELED);
}

TEST(IoReactor, SleepForWakesAfterDeadlineInOrder) {
  st::Runtime rt(2);
  std::atomic<int> order{0};
  int long_pos = -1, short_pos = -1;
  const auto t0 = std::chrono::steady_clock::now();
  rt.run([&] {
    st::JoinCounter done(2);
    st::fork([&] {  // armed first, expires second
      st::io::sleep_for(std::chrono::milliseconds(60));
      long_pos = order.fetch_add(1);
      done.finish();
    });
    st::fork([&] {
      st::io::sleep_for(std::chrono::milliseconds(10));
      short_pos = order.fetch_add(1);
      done.finish();
    });
    done.join();
  });
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_GE(elapsed.count(), 60);  // the long sleeper really slept
  EXPECT_EQ(short_pos, 0);         // min-heap, not arm order
  EXPECT_EQ(long_pos, 1);
}

TEST(IoReactor, ListenerCloseCancelsSuspendedAccept) {
  st::Runtime rt(2);
  std::atomic<bool> cancelled{false};
  rt.run([&] {
    auto listener = st::io::TcpListener::listen(0);
    ASSERT_TRUE(listener.valid());
    st::JoinCounter done(2);
    st::fork([&] {
      auto s = listener.accept();  // nobody connects: suspends
      cancelled.store(!s.has_value() && errno == ECANCELED);
      done.finish();
    });
    st::fork([&] {
      st::io::sleep_for(std::chrono::milliseconds(10));
      listener.close();
      done.finish();
    });
    done.join();
  });
  EXPECT_TRUE(cancelled.load());
}

/// Cross-worker restart + migration: two threads ping-pong one message
/// over a socketpair.  Each read suspends, and with more workers than
/// runnable threads the restarted thread frequently lands on a different
/// worker than the one whose reactor armed the fd -- the next wait then
/// takes the migration (or remote-arm) path.
TEST(IoReactor, PingPongAcrossWorkers) {
  st::Runtime rt(4);
  constexpr int kRounds = 200;
  std::atomic<int> a_rounds{0}, b_rounds{0};
  rt.run([&] {
    Pair p;
    ASSERT_TRUE(p.valid());
    st::JoinCounter done(2);
    st::fork([&] {
      char c = 0;
      for (int i = 0; i < kRounds; ++i) {
        ASSERT_EQ(st::io::write(p.a, "p", 1), 1);
        ASSERT_EQ(st::io::read(p.a, &c, 1), 1);
        ASSERT_EQ(c, 'q');
        a_rounds.fetch_add(1, std::memory_order_relaxed);
      }
      done.finish();
    });
    st::fork([&] {
      char c = 0;
      for (int i = 0; i < kRounds; ++i) {
        ASSERT_EQ(st::io::read(p.b, &c, 1), 1);
        ASSERT_EQ(c, 'p');
        ASSERT_EQ(st::io::write(p.b, "q", 1), 1);
        b_rounds.fetch_add(1, std::memory_order_relaxed);
      }
      done.finish();
    });
    done.join();
  });
  EXPECT_EQ(a_rounds.load(), kRounds);
  EXPECT_EQ(b_rounds.load(), kRounds);
}

/// Many-connection TCP smoke over loopback: fine-grain acceptor, one
/// handler per connection, every byte verified.  Also asserts the new io
/// counters actually count (the observability surface is load-bearing).
TEST(IoReactor, LoopbackEchoManyConnections) {
  constexpr long kConns = 64;
  constexpr long kMsgs = 4;
  st::Runtime rt(4);
  std::atomic<long> served{0}, failures{0};
  rt.run([&] {
    auto listener = st::io::TcpListener::listen(0);
    ASSERT_TRUE(listener.valid());
    const std::uint16_t port = listener.port();
    st::JoinCounter sessions_done(0);
    st::JoinCounter acceptor_done(1);
    st::fork([&] {
      for (;;) {
        auto s = listener.accept();
        if (!s.has_value()) break;
        sessions_done.add(1);
        auto* boxed = new st::io::TcpStream(std::move(*s));
        st::fork([boxed, &served, &sessions_done] {
          char buf[256];
          for (;;) {
            const ssize_t n = boxed->read(buf, sizeof buf);
            if (n <= 0) break;
            if (!boxed->write_all(buf, static_cast<std::size_t>(n))) break;
          }
          delete boxed;
          served.fetch_add(1, std::memory_order_relaxed);
          sessions_done.finish();
        });
      }
      acceptor_done.finish();
    });
    st::JoinCounter clients_done(kConns);
    for (long c = 0; c < kConns; ++c) {
      st::fork([&, c] {
        auto s = st::io::dial("127.0.0.1", port);
        bool ok = s.valid();
        char out[32], in[32];
        for (long m = 0; ok && m < kMsgs; ++m) {
          std::snprintf(out, sizeof out, "c%ld m%ld", c, m);
          ok = s.write_all(out, sizeof out) && s.read_exact(in, sizeof in) &&
               std::memcmp(out, in, sizeof in) == 0;
        }
        if (ok) {
          s.shutdown_write();
          char drain[64];
          while (s.read(drain, sizeof drain) > 0) {
          }
        } else {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        clients_done.finish();
      });
    }
    clients_done.join();
    listener.close();
    acceptor_done.join();
    sessions_done.join();
  });
  EXPECT_EQ(served.load(), kConns);
  EXPECT_EQ(failures.load(), 0);
  const st::RuntimeStats s = rt.stats();
  EXPECT_GT(s.io_events, 0u);   // suspensions resumed by readiness
  EXPECT_GT(s.io_wakeups, 0u);  // epoll_wait actually ran
  EXPECT_GT(s.io_cancels, 0u);  // listener.close cancelled the acceptor
}

// The runtime's one idle sleep has two kinds of sleeper: a worker whose
// reactor holds a pending fd wait blocks in epoll_wait, every other
// worker futex-parks (Runtime::sleep_worker).  Each root below is
// injected only once every worker sleeps, so it runs only when
// notify_work reaches a sleeper; a lost wakeup stalls the root until
// Runtime::kIdleSleepUs, the sleep's backstop.  Parameters: (workers,
// whether one worker holds an fd wait) -- epoll only, futex only, mixed.
class IdleSleepers : public ::testing::TestWithParam<std::tuple<unsigned, bool>> {};

TEST_P(IdleSleepers, EveryRootWakesASleeper) {
  const auto [workers, fd_wait] = GetParam();
  st::Runtime rt(workers);
  std::unique_ptr<Pair> p;
  std::atomic<bool> read_done{false};
  if (fd_wait) {
    rt.run([&] {
      p = std::make_unique<Pair>();
      ASSERT_TRUE(p->valid());
      st::fork([&] {  // suspends in this worker's reactor until the end
        char c = 0;
        EXPECT_EQ(st::io::read(p->a, &c, 1), 1);
        read_done.store(true);
      });
    });
  }
  const unsigned in_epoll = fd_wait ? 1 : 0;
  auto all_asleep = [&] {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (rt.io_blocked_workers() != in_epoll || rt.parked_workers() != workers - in_epoll) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    return true;
  };
  constexpr int kRoots = 40;
  std::vector<double> us;
  for (int i = 0; i < kRoots; ++i) {
    ASSERT_TRUE(all_asleep()) << "parked " << rt.parked_workers() << ", in epoll_wait "
                              << rt.io_blocked_workers();
    const auto t0 = std::chrono::steady_clock::now();
    rt.run([] {});
    us.push_back(std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - t0).count());
  }
  std::sort(us.begin(), us.end());
  EXPECT_LT(us[kRoots / 2], st::Runtime::kIdleSleepUs / 4.0)
      << "median root latency in us; slowest " << us.back();
  if (fd_wait) {
    rt.run([&] { EXPECT_EQ(::write(p->b.fd(), "x", 1), 1); });
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!read_done.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(read_done.load());
    rt.run([&] { p.reset(); });
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, IdleSleepers,
                         ::testing::Values(std::make_tuple(1u, true),
                                           std::make_tuple(2u, false),
                                           std::make_tuple(3u, true)));

}  // namespace
