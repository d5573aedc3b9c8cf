// dnc-fine and dnc-coarse: divide-and-conquer kernels from src/apps timed
// sequentially, on one worker and on P workers (Figures 21 and 22).
//
// dnc-fine (fib, knapsack, cilksort, futures) forks at nearly every call,
// so the fork path, stacklet allocation and future handoff dominate.
// dnc-coarse (magic, heat, strassen, blockedmul, nqueens) forks rarely
// and runs long fork-free leaves, so its P-time depends on whether a
// thief can take the parent continuation at all.
//
// Inputs are built from the seed during set-up; each timed call first
// restores its input outside the timer and is checked against the
// sequential result after it.
#include <algorithm>
#include <map>
#include <memory>

#include "apps/cilksort.hpp"
#include "apps/common.hpp"
#include "apps/fib.hpp"
#include "apps/heat.hpp"
#include "apps/knapsack.hpp"
#include "apps/magic.hpp"
#include "apps/matmul.hpp"
#include "apps/nqueens.hpp"
#include "apps/strassen.hpp"
#include "cilk/cilkstyle.hpp"
#include "runtime_probe.hpp"
#include "sync/future.hpp"
#include "util/rng.hpp"

namespace pb {
namespace {

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t salt) {
  stu::Xoshiro256 r(seed ^ salt);
  return r.next();
}

long fib_closed(int n) {
  long a = 0, b = 1;
  for (int i = 0; i < n; ++i) {
    const long t = a + b;
    a = b;
    b = t;
  }
  return a;
}

/// The `futures` kernel: a fib-shaped tree with one st::spawn per inner
/// node, joined through Future::get.
long fut_fib(int n) {
  if (n < 2) return n;
  st::Future<long> a = st::spawn([n] { return fut_fib(n - 1); });
  const long b = fut_fib(n - 2);
  return a.get() + b;
}

struct Kernel {
  std::string name;
  const char* layer = "apps";             ///< layer of the kernel's own code
  std::function<void()> prepare;          ///< restores the input (untimed)
  std::function<void()> seq, st, ck;      ///< ck empty: no cilkstyle variant
  std::function<std::uint64_t()> result;  ///< checksum of the last run (untimed)
  std::uint64_t expect = 0;               ///< the warm-up's sequential result
  long closed_form = -1;                  ///< known answer, when there is one
  bool repeatable = false;                ///< seq may run back to back (no input)
  int seq_reps = 1;                       ///< seq calls per timing
  int triples = 1;                        ///< (seq, P1, P) triples per round
};

Kernel scalar(const std::string& name, std::function<long()> seq, std::function<long()> st,
              std::function<long()> ck) {
  auto out = std::make_shared<long>(0);
  Kernel k;
  k.name = name;
  k.prepare = [out] { *out = -1; };
  k.seq = [out, seq] { *out = seq(); };
  k.st = [out, st] { *out = st(); };
  if (ck) k.ck = [out, ck] { *out = ck(); };
  k.result = [out] { return static_cast<std::uint64_t>(*out); };
  k.repeatable = true;
  return k;
}

/// A kernel that rewrites its input in place: `pristine` is restored into
/// `work` before every call.
template <typename T>
Kernel in_place(const std::string& name, T pristine, std::function<void(T&)> seq,
                std::function<void(T&)> st, std::function<void(T&)> ck,
                std::function<std::uint64_t(const T&)> sum) {
  auto src = std::make_shared<const T>(std::move(pristine));
  auto work = std::make_shared<T>(*src);
  Kernel k;
  k.name = name;
  k.prepare = [src, work] { *work = *src; };
  k.seq = [work, seq] { seq(*work); };
  k.st = [work, st] { st(*work); };
  k.ck = [work, ck] { ck(*work); };
  k.result = [work, sum] { return sum(*work); };
  return k;
}

struct MatMul {
  std::vector<double> a, b, c;
  std::size_t n = 0;
};

MatMul make_matmul(std::size_t n, std::uint64_t seed) {
  return {apps::random_matrix(n, sub_seed(seed, 0xa)), apps::random_matrix(n, sub_seed(seed, 0xb)),
          std::vector<double>(n * n, 0.0), n};
}

apps::heat::Grid make_heat(std::size_t n, std::uint64_t seed) {
  stu::Xoshiro256 rng(sub_seed(seed, 0x4ea7));
  apps::heat::Grid g{n, n, std::vector<double>(n * n)};
  for (double& x : g.cells) x = 100.0 * rng.unit();
  return g;
}

std::vector<Kernel> fine_kernels(bool tiny, std::uint64_t seed) {
  const int fib_n = tiny ? 12 : 27;
  const int fut_n = tiny ? 10 : 25;
  const int knap_items = tiny ? 12 : 26;
  const std::size_t sort_n = tiny ? 4096 : 1'000'000;
  std::vector<Kernel> ks;
  ks.push_back(scalar(
      "fib", [=] { return apps::fib::seq(fib_n); }, [=] { return apps::fib::run_st(fib_n); },
      [=] { return apps::fib::run_ck(fib_n); }));
  ks.back().closed_form = fib_closed(fib_n);
  // Branch-and-bound work, and how much of it the parallel search wastes,
  // differ widely between instances, so the instances are fixed, like the
  // sizes of fib and futures, instead of drawn from the seed.
  auto insts = std::make_shared<std::vector<apps::knapsack::Instance>>();
  for (std::uint64_t i = 0; i < 4; ++i) {
    insts->push_back(apps::knapsack::make_instance(knap_items, 0x6a7c + i));
  }
  const auto solve_all = [insts](long (*solve)(const apps::knapsack::Instance&)) {
    return [insts, solve] {
      long sum = 0;
      for (const auto& inst : *insts) sum = sum * 31 + solve(inst);
      return sum;
    };
  };
  ks.push_back(scalar("knapsack", solve_all(&apps::knapsack::seq), solve_all(&apps::knapsack::run_st),
                      solve_all(&apps::knapsack::run_ck)));
  ks.push_back(in_place<std::vector<long>>(
      "cilksort", apps::cilksort::make_input(sort_n, sub_seed(seed, 0x50f7)),
      [](auto& v) { apps::cilksort::seq(v); }, [](auto& v) { apps::cilksort::run_st(v); },
      [](auto& v) { apps::cilksort::run_ck(v); },
      [](const auto& v) { return apps::cilksort::checksum(v); }));
  ks.push_back(scalar(
      "futures", [=] { return apps::fib::seq(fut_n); }, [=] { return fut_fib(fut_n); }, nullptr));
  ks.back().layer = "sync";
  ks.back().closed_form = fib_closed(fut_n);
  return ks;
}

std::vector<Kernel> coarse_kernels(bool tiny, std::uint64_t seed) {
  using apps::matmul::Variant;
  const int magic_limit = 1;
  const std::size_t heat_n = tiny ? 64 : 1024;
  const int heat_steps = tiny ? 2 : 64;
  const std::size_t strassen_n = tiny ? 64 : 512;
  const std::size_t mul_n = tiny ? 64 : 512;
  const int queens = tiny ? 6 : 13;
  std::vector<Kernel> ks;
  ks.push_back(scalar(
      "magic", [=] { return apps::magic::seq(magic_limit); },
      [=] { return apps::magic::run_st(magic_limit); },
      [=] { return apps::magic::run_ck(magic_limit); }));
  ks.push_back(in_place<apps::heat::Grid>(
      "heat", make_heat(heat_n, seed), [=](auto& g) { apps::heat::step_seq(g, heat_steps); },
      [=](auto& g) { apps::heat::step_st(g, heat_steps); },
      [=](auto& g) { apps::heat::step_ck(g, heat_steps); },
      [](const auto& g) { return apps::heat::checksum(g); }));
  ks.push_back(in_place<MatMul>(
      "strassen", make_matmul(strassen_n, sub_seed(seed, 0x57a5)),
      [](MatMul& m) { apps::strassen::multiply_seq(m.c, m.a, m.b, m.n); },
      [](MatMul& m) { apps::strassen::multiply_st(m.c, m.a, m.b, m.n); },
      [](MatMul& m) { apps::strassen::multiply_ck(m.c, m.a, m.b, m.n); },
      [](const MatMul& m) { return apps::strassen::checksum(m.c); }));
  ks.push_back(in_place<MatMul>(
      "blockedmul", make_matmul(mul_n, sub_seed(seed, 0xb10c)),
      [](MatMul& m) { apps::matmul::multiply_seq(Variant::kBlocked, m.c, m.a, m.b, m.n); },
      [](MatMul& m) { apps::matmul::multiply_st(Variant::kBlocked, m.c, m.a, m.b, m.n); },
      [](MatMul& m) { apps::matmul::multiply_ck(Variant::kBlocked, m.c, m.a, m.b, m.n); },
      [](const MatMul& m) { return apps::matmul::checksum(m.c); }));
  ks.push_back(scalar(
      "nqueens", [=] { return apps::nqueens::seq(queens); },
      [=] { return apps::nqueens::run_st(queens); },
      [=] { return apps::nqueens::run_ck(queens); }));
  return ks;
}

class DncRun {
 public:
  DncRun(Ctx& ctx, bool fine) : ctx_(ctx), fine_(fine) {}

  void run() {
    ctx_.P = std::min(4u, ctx_.nproc);
    setup();
    warm_up();
    measure();
    finish();
  }

 private:
  void setup() {
    // Set up several times and keep the last, so setup_s is a median.
    const int reps = ctx_.opt.tiny ? 2 : 7;
    for (int rep = 0; rep < reps; ++rep) {
      ks_.clear();
      rt1_.reset();
      rtp_.reset();
      const std::uint64_t t0 = now_ns();
      {
        Span s(ctx_.spans, "setup.inputs", "apps");
        ks_ = fine_ ? fine_kernels(ctx_.opt.tiny, ctx_.opt.seed)
                    : coarse_kernels(ctx_.opt.tiny, ctx_.opt.seed);
      }
      {
        Span s(ctx_.spans, "runtime.ctor", "runtime");
        rt1_ = std::make_unique<st::Runtime>(1);
        rtp_ = std::make_unique<st::Runtime>(ctx_.P);
      }
      ctx_.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    }
    if (ctx_.opt.trace) {
      Span s(ctx_.spans, "cilk.ctor", "cilk");
      ckp_ = std::make_unique<ck::Runtime>(ctx_.P);
    }
  }

  /// One untimed round: fills caches and stacklet regions, and fixes each
  /// kernel's reference result (its sequential run).
  void warm_up() {
    ctx_.set_tracing(false);
    for (Kernel& k : ks_) {
      k.prepare();
      const std::uint64_t t0 = now_ns();
      k.seq();
      const double seq_ms = ms_since(t0);
      if (k.repeatable) k.seq_reps = reps_for(seq_ms);
      k.expect = k.result();
      if (k.closed_form >= 0) {
        ctx_.checks.expect(k.expect == static_cast<std::uint64_t>(k.closed_form),
                           k.name + " seq result differs from the closed form");
      }
      const double st_ms = time_st(*rt1_, k, "p1", -1, nullptr) + time_st(*rtp_, k, "par", -1, nullptr);
      k.triples = triples_for(seq_ms * k.seq_reps + st_ms);
      if (ckp_ && k.ck) time_ck(k, -1);
    }
  }

  void measure() {
    const std::uint64_t t_start = now_ns();
    for (int round = 0; ctx_.keep_going(t_start, ctx_.opt.seconds, round); ++round) {
      const bool traced = ctx_.traced_round(round);
      ctx_.set_tracing(traced);
      traced_rounds_ += traced ? 1 : 0;
      std::vector<KernelTimes>& times = ctx_.times_for(round);
      Span rs(ctx_.spans, "round", "bench");
      for (Kernel& k : ks_) {
        KernelTimes& kt = ctx_.kernel(times, k.name);
        for (int t = 0; t < k.triples; ++t) {
          kt.seq_ms.push_back(time_seq(k, rs.id()));
          const std::uint64_t forks0 = acc1_.d.forks;
          kt.p1_ms.push_back(time_st(*rt1_, k, "p1", rs.id(), traced ? &acc1_ : nullptr));
          if (traced) kernel_forks_[k.name] += static_cast<double>(acc1_.d.forks - forks0);
          kt.par_ms.push_back(time_st(*rtp_, k, "par", rs.id(), traced ? &accp_ : nullptr));
        }
        if (ckp_ && !traced && k.ck) kt.ref_ms.push_back(time_ck(k, rs.id()));
      }
    }
    ctx_.set_tracing(false);
  }

  double time_seq(Kernel& k, int parent) {
    k.prepare();
    const std::uint64_t t0 = now_ns();
    {
      Span s(ctx_.spans, k.name + ".seq", k.layer, parent);
      for (int i = 0; i < k.seq_reps; ++i) k.seq();
    }
    const double ms = ms_since(t0) / k.seq_reps;
    ctx_.checks.expect(k.result() == k.expect, k.name + " seq result changed between runs");
    return ms;
  }

  double time_st(st::Runtime& rt, Kernel& k, const char* mode, int parent, RtAcc* acc) {
    k.prepare();
    const double ms = probed(ctx_, rt, parent, acc, [&] {
      const std::uint64_t t0 = now_ns();
      Span run(ctx_.spans, "runtime.run", "runtime", parent);
      const int run_id = run.id();
      rt.run([&] {
        Span s(ctx_.spans, k.name + ".st", k.layer, run_id);
        k.st();
      });
      return ms_since(t0);
    });
    ctx_.checks.expect(k.result() == k.expect,
                       k.name + " " + mode + " result differs from the sequential one");
    return ms;
  }

  double time_ck(Kernel& k, int parent) {
    k.prepare();
    const std::uint64_t t0 = now_ns();
    {
      Span run(ctx_.spans, "cilk.run", "cilk", parent);
      ckp_->run([&] { k.ck(); });
    }
    const double ms = ms_since(t0);
    ctx_.checks.expect(k.result() == k.expect,
                       k.name + " cilkstyle result differs from the sequential one");
    return ms;
  }

  void finish() {
    if (!ctx_.opt.trace) return;
    const double rounds = std::max(1, traced_rounds_);
    acc1_.emit(ctx_.layer, "p1", rounds);
    accp_.emit(ctx_.layer, "par", rounds);
    for (const Kernel& k : ks_) {  // forks of one P1 run, and runs per round
      ctx_.layer.num("kernel_forks." + k.name, kernel_forks_[k.name] / rounds / k.triples);
      ctx_.layer.num("kernel_triples." + k.name, k.triples);
    }
    ctx_.layer.num("run_empty_us", run_empty_us(ctx_, *rtp_, 200));
    const st::RuntimeStats s1 = rt1_->stats(), sp = rtp_->stats();
    ctx_.layer.num("region_high_water",
                   static_cast<double>(std::max(s1.region_high_water, sp.region_high_water)));
    snapshot_runtime(ctx_, "p1", *rt1_);
    snapshot_runtime(ctx_, "par", *rtp_);
  }

  Ctx& ctx_;
  bool fine_;
  std::vector<Kernel> ks_;
  std::unique_ptr<st::Runtime> rt1_, rtp_;
  std::unique_ptr<ck::Runtime> ckp_;
  RtAcc acc1_, accp_;
  std::map<std::string, double> kernel_forks_;
  int traced_rounds_ = 0;
};

}  // namespace

void run_dnc(Ctx& ctx, bool fine) { DncRun(ctx, fine).run(); }

}  // namespace pb
