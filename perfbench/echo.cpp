// echo: an in-process st::io echo server driven by one generator thread
// outside the runtime, over 4 loopback connections with 32-byte payloads.
//
// Unlike the dnc workloads, workers here mostly suspend on fds and block
// in epoll_wait; an idle-path change that helps thieves but slows wake-ups
// shows up here.  Three servers take the same closed-loop batches:
//   seq  -- one plain thread answering the connections round-robin with
//           blocking syscalls (no runtime),
//   p1   -- st::io on one worker,
//   par  -- st::io on P = min(3, nproc - 1) workers (one core is left to
//           the generator).
// The par server then takes an open loop at a fixed rate with seeded
// Poisson arrivals, each request timed from when it was due, and a sweep
// of rates for the highest one whose p99 meets kSloUs without a growing
// backlog.  Every reply is compared with its request byte for byte.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>

#include "io/net.hpp"
#include "runtime_probe.hpp"
#include "sync/join_counter.hpp"
#include "util/rng.hpp"

namespace pb {
namespace {

constexpr int kConns = 4;
constexpr std::size_t kPayload = 32;
constexpr double kSloUs = 1000;        ///< p99 limit of the rate sweep
constexpr double kOpenRate = 10000;    ///< req/s of the fixed-rate open loop
constexpr int kTimeoutMs = 2000;       ///< a reply later than this is lost

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

/// Request `seq` on connection `conn`: 32 bytes derived from the seed.
void payload(std::uint64_t seed, int conn, std::uint64_t seq, unsigned char* out) {
  stu::Xoshiro256 r(seed ^ (static_cast<std::uint64_t>(conn) << 56) ^
                    (seq * 0x9e3779b97f4a7c15ULL));
  for (std::size_t i = 0; i < kPayload; i += 8) {
    const std::uint64_t w = r.next();
    std::memcpy(out + i, &w, 8);
  }
}

/// Connects to 127.0.0.1:port with a blocking connect, then switches the
/// socket to nonblocking.  -1 on failure.
int dial(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_port = htons(port);
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&a), sizeof a) != 0) {
    ::close(fd);
    return -1;
  }
  set_nodelay(fd);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// Opens and closes connections until a server's accept loop has taken
/// its kConns; used when set-up failed half way, so no thread stays
/// blocked in accept.
void unblock_accepts(std::uint16_t port, int missing) {
  for (int i = 0; i < missing; ++i) {
    const int fd = dial(port);
    if (fd >= 0) ::close(fd);
  }
}

/// The st::io server: an acceptor forks one echo session per connection.
class StServer {
 public:
  StServer(Ctx& ctx, unsigned workers) : ctx_(ctx), rt_(workers) {
    std::promise<std::uint16_t> port;
    std::future<std::uint16_t> ready = port.get_future();
    thread_ = std::thread([this, &port] { rt_.run([&] { serve(port); }); });
    port_ = ready.get();
    if (port_ == 0) {
      thread_.join();
      throw std::runtime_error("st::io listen failed");
    }
  }
  ~StServer() { stop(); }
  StServer(const StServer&) = delete;
  StServer& operator=(const StServer&) = delete;

  std::uint16_t port() const noexcept { return port_; }
  st::Runtime& rt() noexcept { return rt_; }

  /// Returns once every session saw its client close.
  void stop() {
    if (!thread_.joinable()) return;
    unblock_accepts(port_, kConns - accepted_.load());
    thread_.join();
  }

 private:
  void serve(std::promise<std::uint16_t>& port) {
    st::io::TcpListener listener;
    {
      Span s(ctx_.spans, "io.listen", "io");
      listener = st::io::TcpListener::listen(0);
    }
    port.set_value(listener.valid() ? listener.port() : 0);
    if (!listener.valid()) return;
    st::JoinCounter sessions(0);
    for (int i = 0; i < kConns; ++i) {
      std::optional<st::io::TcpStream> s;
      {
        Span span(ctx_.spans, "io.accept", "io");
        s = listener.accept();
      }
      accepted_.fetch_add(1);
      if (!s.has_value()) break;
      sessions.add(1);
      auto* boxed = new st::io::TcpStream(std::move(*s));
      st::fork([boxed, &sessions] {
        echo_session(*boxed);
        delete boxed;
        sessions.finish();
      });
    }
    listener.close();
    sessions.join();
  }

  static void echo_session(st::io::TcpStream& s) {
    set_nodelay(s.fd());
    char buf[4096];
    for (;;) {
      const ssize_t n = s.read(buf, sizeof buf);
      if (n <= 0 || !s.write_all(buf, static_cast<std::size_t>(n))) return;
    }
  }

  Ctx& ctx_;
  st::Runtime rt_;
  std::uint16_t port_ = 0;
  std::atomic<int> accepted_{0};
  std::thread thread_;  // last: uses the members above
};

/// The baseline: one thread, blocking syscalls, connections answered
/// round-robin one request at a time (the closed loop keeps exactly one
/// request outstanding per connection).
class SeqServer {
 public:
  SeqServer() {
    lfd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in a{};
    a.sin_family = AF_INET;
    a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof a;
    if (lfd_ < 0 || ::bind(lfd_, reinterpret_cast<sockaddr*>(&a), sizeof a) != 0 ||
        ::listen(lfd_, kConns) != 0 ||
        ::getsockname(lfd_, reinterpret_cast<sockaddr*>(&a), &len) != 0) {
      if (lfd_ >= 0) ::close(lfd_);
      throw std::runtime_error("seq server listen failed");
    }
    port_ = ntohs(a.sin_port);
    thread_ = std::thread([this] { serve(); });
  }
  ~SeqServer() { stop(); }
  SeqServer(const SeqServer&) = delete;
  SeqServer& operator=(const SeqServer&) = delete;

  std::uint16_t port() const noexcept { return port_; }

  void stop() {
    if (!thread_.joinable()) return;
    unblock_accepts(port_, kConns - accepted_.load());
    thread_.join();
    ::close(lfd_);
  }

 private:
  void serve() {
    int fds[kConns];
    int n = 0;
    for (; n < kConns; ++n) {
      fds[n] = ::accept(lfd_, nullptr, nullptr);
      accepted_.fetch_add(1);
      if (fds[n] < 0) break;
      set_nodelay(fds[n]);
    }
    bool open = n == kConns;
    while (open) {
      for (int i = 0; i < n && open; ++i) {
        unsigned char buf[kPayload];
        std::size_t got = 0;
        while (got < kPayload) {
          const ssize_t r = ::read(fds[i], buf + got, kPayload - got);
          if (r <= 0) {
            open = false;
            break;
          }
          got += static_cast<std::size_t>(r);
        }
        if (open && ::write(fds[i], buf, kPayload) != static_cast<ssize_t>(kPayload)) open = false;
      }
    }
    for (int i = 0; i < n; ++i) ::close(fds[i]);
  }

  int lfd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<int> accepted_{0};
  std::thread thread_;
};

/// One generator connection: requests in flight (FIFO) with their due
/// times, unsent bytes, and a partial reply.
struct Conn {
  int fd = -1;
  int id = 0;
  std::uint64_t next_seq = 0;
  struct Pending {
    std::uint64_t seq, due_ns;
  };
  std::deque<Pending> inflight;
  std::string out;
  unsigned char part[kPayload];
  std::size_t part_len = 0;
  long batch_sent = 0;
  bool dead = false;  ///< the server closed the connection or it failed
};

bool any_dead(const std::vector<Conn>& cs) {
  return std::any_of(cs.begin(), cs.end(), [](const Conn& c) { return c.dead; });
}

struct OpenResult {
  long sent = 0, completed = 0, lost = 0, backlog_at_end = 0;
  std::vector<double> lat_us, late_us;
};

/// Sorted-sample percentile (nearest rank on q * (n - 1)).
double pct(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  return sorted[static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1) + 0.5)];
}

class Generator {
 public:
  explicit Generator(Ctx& ctx) : ctx_(ctx) {}

  std::vector<Conn> connect(std::uint16_t port) {
    std::vector<Conn> cs(kConns);
    for (int i = 0; i < kConns; ++i) {
      cs[i].id = i;
      cs[i].fd = dial(port);
      if (cs[i].fd < 0) {
        close(cs);
        throw std::runtime_error("generator connect failed");
      }
    }
    return cs;
  }

  static void close(std::vector<Conn>& cs) {
    for (Conn& c : cs) {
      if (c.fd >= 0) ::close(c.fd);
      c.fd = -1;
    }
  }

  /// `per_conn` round trips on every connection, one outstanding per
  /// connection.  Returns wall ms, or a negative value if replies were lost.
  double closed_batch(std::vector<Conn>& cs, long per_conn) {
    const std::uint64_t t0 = now_ns();
    for (Conn& c : cs) {
      c.batch_sent = 0;
      send(c, t0);
    }
    const long total = per_conn * static_cast<long>(cs.size());
    long done = 0;
    while (done < total) {
      if (!wait(cs, kTimeoutMs * 1'000'000LL)) return -1;
      for (Conn& c : cs) {
        receive(c, [&](std::uint64_t) {
          ++done;
          if (c.batch_sent < per_conn) send(c, now_ns());
        });
      }
      if (any_dead(cs)) return -1;
    }
    return ms_since(t0);
  }

  /// Seeded Poisson arrivals at `rate` req/s for `secs`, spread over the
  /// connections; each latency is measured from the request's due time.
  OpenResult open_loop(std::vector<Conn>& cs, double rate, double secs, stu::Xoshiro256& rng) {
    OpenResult res;
    const auto gap_ns = [&] { return -std::log(1.0 - rng.unit()) / rate * 1e9; };
    const std::uint64_t t0 = now_ns();
    const std::uint64_t t_end = t0 + static_cast<std::uint64_t>(secs * 1e9);
    double due = static_cast<double>(t0) + gap_ns();
    bool backlog_taken = false;
    for (;;) {
      const std::uint64_t now = now_ns();
      while (due <= static_cast<double>(now) && due < static_cast<double>(t_end)) {
        Conn& c = cs[rng.below(cs.size())];
        send(c, static_cast<std::uint64_t>(due));
        res.late_us.push_back((static_cast<double>(now) - due) * 1e-3);
        ++res.sent;
        due += gap_ns();
      }
      long inflight = 0;
      for (const Conn& c : cs) inflight += static_cast<long>(c.inflight.size());
      if (!backlog_taken && now >= t_end) {
        backlog_taken = true;
        res.backlog_at_end = inflight;
      }
      const bool sending = due < static_cast<double>(t_end);
      if (!sending && inflight == 0) break;
      long long timeout = kTimeoutMs * 1'000'000LL;
      if (sending) {
        timeout = static_cast<long long>(due - static_cast<double>(now));
      } else if (now < t_end) {
        timeout = static_cast<long long>(t_end - now);
      }
      if (!wait(cs, std::max(0LL, timeout)) && !sending && now >= t_end) {
        res.lost = inflight;
        return res;
      }
      for (Conn& c : cs) {
        receive(c, [&](std::uint64_t due_ns) {
          ++res.completed;
          res.lat_us.push_back(static_cast<double>(now_ns() - due_ns) * 1e-3);
        });
      }
      if (any_dead(cs)) {
        for (const Conn& c : cs) res.lost += static_cast<long>(c.inflight.size());
        return res;
      }
    }
    return res;
  }

 private:
  void send(Conn& c, std::uint64_t due_ns) {
    unsigned char buf[kPayload];
    payload(ctx_.opt.seed, c.id, c.next_seq, buf);
    c.inflight.push_back({c.next_seq++, due_ns});
    c.out.append(reinterpret_cast<const char*>(buf), kPayload);
    ++c.batch_sent;
    flush(c);
  }

  static void flush(Conn& c) {
    while (!c.out.empty()) {
      const ssize_t n = ::write(c.fd, c.out.data(), c.out.size());
      if (n <= 0) return;  // EAGAIN: poll for POLLOUT; errors surface as lost replies
      c.out.erase(0, static_cast<std::size_t>(n));
    }
  }

  /// Waits up to timeout_ns for any connection to become readable (or
  /// writable with bytes pending).  False on timeout.
  bool wait(std::vector<Conn>& cs, long long timeout_ns) {
    pollfd pfd[kConns];
    for (std::size_t i = 0; i < cs.size(); ++i) {
      pfd[i] = {cs[i].fd, static_cast<short>(POLLIN | (cs[i].out.empty() ? 0 : POLLOUT)), 0};
    }
    const timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000LL),
                      static_cast<long>(timeout_ns % 1'000'000'000LL)};
    const int r = ::ppoll(pfd, cs.size(), &ts, nullptr);
    if (r < 0 && errno != EINTR) throw std::runtime_error("ppoll failed");
    for (std::size_t i = 0; i < cs.size(); ++i) {
      if (pfd[i].revents & POLLOUT) flush(cs[i]);
    }
    return r != 0;
  }

  /// Reads what has arrived and checks every complete reply against the
  /// oldest request in flight on that connection.
  template <typename OnReply>
  void receive(Conn& c, OnReply&& on_reply) {
    unsigned char buf[4096];
    for (;;) {
      const ssize_t n = ::read(c.fd, buf, sizeof buf);
      if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR)) c.dead = true;
      if (n <= 0) return;
      for (ssize_t i = 0; i < n;) {
        const std::size_t take =
            std::min(kPayload - c.part_len, static_cast<std::size_t>(n - i));
        std::memcpy(c.part + c.part_len, buf + i, take);
        c.part_len += take;
        i += static_cast<ssize_t>(take);
        if (c.part_len < kPayload) break;
        c.part_len = 0;
        bool ok = !c.inflight.empty();
        std::uint64_t due = 0;
        if (ok) {
          const Conn::Pending p = c.inflight.front();
          c.inflight.pop_front();
          unsigned char want[kPayload];
          payload(ctx_.opt.seed, c.id, p.seq, want);
          ok = std::memcmp(want, c.part, kPayload) == 0;
          due = p.due_ns;
        }
        ctx_.checks.expect(ok, "echo reply differs from its request");
        if (ok) on_reply(due);
      }
    }
  }

  Ctx& ctx_;
};

class EchoRun {
 public:
  explicit EchoRun(Ctx& ctx) : ctx_(ctx), gen_(ctx), rng_(ctx.opt.seed ^ 0xec40) {}

  void run() {
    ctx_.P = std::max(1u, std::min(3u, ctx_.nproc - 1));
    per_conn_ = ctx_.opt.tiny ? 20 : 500;
    setup();
    closed_rounds(ctx_.opt.seconds * (ctx_.opt.tiny ? 0.5 : 0.65));
    if (!broken_) open_phase(ctx_.opt.seconds * (ctx_.opt.tiny ? 0.25 : 0.2));
    if (!broken_) slo_sweep(ctx_.opt.seconds * (ctx_.opt.tiny ? 0.25 : 0.15));
    teardown();
  }

 private:
  void teardown_servers() {
    Generator::close(c_seq_);
    Generator::close(c_p1_);
    Generator::close(c_par_);
    if (seq_) seq_->stop();
    if (p1_) p1_->stop();
    if (par_) par_->stop();
  }

  /// Starts the three servers and connects to each, several times; the
  /// last set stays up.
  void setup() {
    std::vector<double> connect_ms;
    const int reps = ctx_.opt.tiny ? 2 : 15;
    for (int rep = 0; rep < reps; ++rep) {
      teardown_servers();
      seq_.reset();
      p1_.reset();
      par_.reset();
      const std::uint64_t t0 = now_ns();
      seq_ = std::make_unique<SeqServer>();
      {
        Span s(ctx_.spans, "runtime.ctor", "runtime");
        p1_ = std::make_unique<StServer>(ctx_, 1);
        par_ = std::make_unique<StServer>(ctx_, ctx_.P);
      }
      c_seq_ = gen_.connect(seq_->port());
      const std::uint64_t tc = now_ns();
      {
        Span s(ctx_.spans, "gen.connect", "gen");
        c_p1_ = gen_.connect(p1_->port());
        c_par_ = gen_.connect(par_->port());
      }
      connect_ms.push_back(ms_since(tc) / 2);
      ctx_.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    }
    ctx_.layer.num("io.connect_ms", median(connect_ms));
  }

  double batch(std::vector<Conn>& cs, const char* what, int parent) {
    Span s(ctx_.spans, std::string("gen.closed.") + what, "gen", parent);
    const double ms = gen_.closed_batch(cs, per_conn_);
    if (ms < 0) {
      fail_inflight(cs, std::string(what) + " server stopped answering");
      return 0;
    }
    return ms;
  }

  void fail_inflight(std::vector<Conn>& cs, const std::string& why) {
    for (Conn& c : cs) {
      for (std::size_t i = 0; i < c.inflight.size(); ++i) ctx_.checks.expect(false, why);
    }
    broken_ = true;
  }

  void closed_rounds(double budget_s) {
    ctx_.set_tracing(false);
    batch(c_seq_, "seq", -1);  // warm-up
    batch(c_p1_, "p1", -1);
    batch(c_par_, "par", -1);
    const std::uint64_t t_start = now_ns();
    for (int round = 0; !broken_ && ctx_.keep_going(t_start, budget_s, round); ++round) {
      const bool traced = ctx_.traced_round(round);
      ctx_.set_tracing(traced);
      traced_rounds_ += traced ? 1 : 0;
      KernelTimes& kt = ctx_.kernel(ctx_.times_for(round), "echo");
      Span rs(ctx_.spans, "round", "bench");
      const double seq = batch(c_seq_, "seq", rs.id());
      const double p1 = probed(ctx_, p1_->rt(), rs.id(), traced ? &acc1_ : nullptr,
                               [&] { return batch(c_p1_, "p1", rs.id()); });
      const double par = probed(ctx_, par_->rt(), rs.id(), traced ? &accp_ : nullptr,
                                [&] { return batch(c_par_, "par", rs.id()); });
      if (broken_) break;
      kt.seq_ms.push_back(seq);
      kt.p1_ms.push_back(p1);
      kt.par_ms.push_back(par);
    }
  }

  OpenResult open(double rate, double secs, const char* what) {
    Span s(ctx_.spans, what, "gen");
    OpenResult r = gen_.open_loop(c_par_, rate, secs, rng_);
    if (r.lost > 0) fail_inflight(c_par_, std::string(what) + ": replies lost");
    std::sort(r.lat_us.begin(), r.lat_us.end());
    std::sort(r.late_us.begin(), r.late_us.end());
    return r;
  }

  void open_phase(double secs) {
    ctx_.set_tracing(ctx_.opt.trace);
    const double rate = ctx_.opt.tiny ? 2000 : kOpenRate;
    const OpenResult r = open(rate, secs, "gen.open");
    const auto n = static_cast<double>(r.lat_us.size());
    // The highest percentile with at least ten samples beyond it.
    const double top_q = n > 10 ? 1.0 - 10.0 / n : 0.5;
    ctx_.layer.num("open.rate", rate)
        .num("open.sent", static_cast<double>(r.sent))
        .num("open.completed", static_cast<double>(r.completed))
        .num("open.lat_p50_us", pct(r.lat_us, 0.5))
        .num("open.lat_p99_us", pct(r.lat_us, 0.99))
        .num("open.lat_top_q", top_q)
        .num("open.lat_top_us", pct(r.lat_us, top_q))
        .num("open.late_p99_us", pct(r.late_us, 0.99))
        .num("open.backlog_at_end", static_cast<double>(r.backlog_at_end));
  }

  /// Doubling rates; stops at the first that misses the limit or leaves
  /// a backlog beyond what the limit allows in flight.
  void slo_sweep(double budget_s) {
    const std::vector<double> rates = ctx_.opt.tiny ? std::vector<double>{1000, 2000}
                                                    : std::vector<double>{2500, 5000, 10000, 20000,
                                                                          40000, 80000, 160000};
    const double window = budget_s / static_cast<double>(rates.size());
    double best = 0, closed_rps = 0;
    for (const double rate : rates) {
      const OpenResult r = open(rate, window, "gen.slo");
      if (broken_) break;
      const double p99 = pct(r.lat_us, 0.99);
      const double allowed = std::max(4.0, 2 * rate * kSloUs * 1e-6);
      if (p99 > kSloUs || static_cast<double>(r.backlog_at_end) > allowed) break;
      best = rate;
    }
    const KernelTimes& kt = ctx_.kernel(ctx_.kernels, "echo");
    if (!kt.par_ms.empty()) closed_rps = per_conn_ * kConns / (median(kt.par_ms) * 1e-3);
    ctx_.layer.num("slo.rps_at_slo", best).num("closed.rps", closed_rps);
  }

  void teardown() {
    ctx_.set_tracing(false);
    teardown_servers();
    if (ctx_.opt.trace) {
      const double rounds = std::max(1, traced_rounds_);
      acc1_.emit(ctx_.layer, "p1", rounds);
      accp_.emit(ctx_.layer, "par", rounds);
      ctx_.layer.num("run_empty_us", run_empty_us(ctx_, par_->rt(), 200));
      const st::RuntimeStats sp = par_->rt().stats();
      ctx_.layer.num("region_high_water", static_cast<double>(sp.region_high_water));
      snapshot_runtime(ctx_, "p1", p1_->rt());
      snapshot_runtime(ctx_, "par", par_->rt());
    }
  }

  Ctx& ctx_;
  Generator gen_;
  stu::Xoshiro256 rng_;
  std::unique_ptr<SeqServer> seq_;
  std::unique_ptr<StServer> p1_, par_;
  std::vector<Conn> c_seq_, c_p1_, c_par_;
  long per_conn_ = 0;
  bool broken_ = false;
  int traced_rounds_ = 0;
  RtAcc acc1_, accp_;
};

}  // namespace

void run_echo(Ctx& ctx) { EchoRun(ctx).run(); }

}  // namespace pb
