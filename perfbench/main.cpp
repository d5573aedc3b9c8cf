// stbench: the measurement binary behind `python3 perfbench/run.py`.
//
//   stbench --workload dnc-fine|dnc-coarse|echo|stvm --seed N --seconds S
//           --trace 0|1 --out raw.json [--spans spans.json] [--tiny]
//
// Writes one raw record (timing samples, counters, metrics snapshots,
// correctness tallies) to --out; run.py derives the named metrics.
// Exit code 0 means the record was written, whatever it says about
// correctness.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "stbench.hpp"
#include "util/metrics.hpp"

namespace pb {

double process_cpu_s() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

int Spans::begin(const std::string& name, const char* layer, int parent) {
  if (!on_) return -1;
  const std::uint64_t t = now_ns();
  std::lock_guard<std::mutex> g(mu_);
  recs_.push_back({name, layer, t, 0, parent});
  return static_cast<int>(recs_.size() - 1);
}

void Spans::end(int id) {
  if (id < 0) return;
  const std::uint64_t t = now_ns();
  std::lock_guard<std::mutex> g(mu_);
  recs_[static_cast<std::size_t>(id)].t1 = t;
}

bool Spans::write(const std::string& path) const {
  std::ofstream os(path);
  std::lock_guard<std::mutex> g(mu_);
  os << "[";
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    const Rec& r = recs_[i];
    os << (i ? ",\n" : "") << "[" << json_str(r.name) << "," << json_str(r.layer) << ","
       << r.t0 << "," << r.t1 << "," << r.parent << "]";
  }
  os << "]\n";
  return static_cast<bool>(os);
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void Obj::key(const std::string& k) {
  if (!body_.empty()) body_ += ",";
  body_ += json_str(k) + ":";
}

Obj& Obj::num(const std::string& k, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  key(k);
  body_ += buf;
  return *this;
}

Obj& Obj::str(const std::string& k, const std::string& v) {
  key(k);
  body_ += json_str(v);
  return *this;
}

Obj& Obj::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

Obj& Obj::arr(const std::string& k, const std::vector<double>& v) {
  std::string a = "[";
  char buf[64];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "", v[i]);
    a += buf;
  }
  return raw(k, a + "]");
}

KernelTimes& Ctx::kernel(std::vector<KernelTimes>& v, const std::string& name) {
  for (auto& k : v) {
    if (k.name == name) return k;
  }
  v.push_back({name, {}, {}, {}, {}});
  return v.back();
}

void Ctx::set_tracing(bool on) {
  spans.enable(on);
  stu::metrics_set_enabled(on);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string kernels_json(const std::vector<KernelTimes>& ks) {
  std::string out = "[";
  for (std::size_t i = 0; i < ks.size(); ++i) {
    Obj o;
    o.str("name", ks[i].name)
        .arr("seq_ms", ks[i].seq_ms)
        .arr("p1_ms", ks[i].p1_ms)
        .arr("par_ms", ks[i].par_ms)
        .arr("ref_ms", ks[i].ref_ms);
    out += (i ? "," : "") + o.done();
  }
  return out + "]";
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "stbench: %s\nusage: stbench --workload dnc-fine|dnc-coarse|echo|stvm "
               "--seed N --seconds S --trace 0|1 --out PATH [--spans PATH] [--tiny]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--tiny") {
      o.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--out") {
      o.out = v;
    } else if (a == "--spans") {
      o.spans = v;
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  if (o.out.empty()) usage("--out is required");
  if (o.seconds <= 0) usage("--seconds must be positive");
  return o;
}

}  // namespace

}  // namespace pb

int main(int argc, char** argv) {
  using namespace pb;
  Ctx ctx;
  ctx.opt = parse(argc, argv);
  ctx.nproc = usable_cpus();
  // Runtime counters are always on; histograms (steal latency, io wait,
  // suspend->restart) only while metrics are enabled, i.e. in traced rounds.
  ctx.set_tracing(ctx.opt.trace);
  const std::string engine = default_vm_engine();

  const std::string& w = ctx.opt.workload;
  try {
    if (w == "dnc-fine" || w == "dnc-coarse") {
      run_dnc(ctx, w == "dnc-fine");
    } else if (w == "echo") {
      run_echo(ctx);
    } else if (w == "stvm") {
      run_stvm(ctx);
    } else {
      usage(("unknown workload " + w).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stbench: %s failed: %s\n", w.c_str(), e.what());
    return 1;
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::string failures = "[";
  for (std::size_t i = 0; i < ctx.checks.messages.size(); ++i) {
    failures += (i ? "," : "") + json_str(ctx.checks.messages[i]);
  }
  failures += "]";
  std::string snaps = "[";
  for (std::size_t i = 0; i < ctx.snapshots.size(); ++i) {
    snaps += (i ? "," : "") + ctx.snapshots[i];
  }
  snaps += "]";

  Obj rec;
  rec.str("workload", w)
      .num("seed", static_cast<double>(ctx.opt.seed))
      .num("trace", ctx.opt.trace ? 1 : 0)
      .num("nproc", ctx.nproc)
      .num("P", ctx.P)
      .str("engine", engine)
      .arr("setup_s", ctx.setup_s)
      .num("peak_rss_kb", static_cast<double>(ru.ru_maxrss))
      .num("attempted", static_cast<double>(ctx.checks.attempted))
      .num("failed", static_cast<double>(ctx.checks.failed))
      .raw("failures", failures)
      .raw("kernels", kernels_json(ctx.kernels))
      .raw("untraced", kernels_json(ctx.untraced))
      .raw("layer", ctx.layer.done())
      .raw("snapshots", snaps);
  std::ofstream os(ctx.opt.out);
  os << rec.done() << "\n";
  if (!os) {
    std::fprintf(stderr, "stbench: cannot write %s\n", ctx.opt.out.c_str());
    return 1;
  }
  if (ctx.opt.trace && !ctx.opt.spans.empty() && !ctx.spans.write(ctx.opt.spans)) {
    std::fprintf(stderr, "stbench: cannot write %s\n", ctx.opt.spans.c_str());
    return 1;
  }
  return 0;
}
