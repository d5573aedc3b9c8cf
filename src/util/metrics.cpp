#include "util/metrics.hpp"

#include <bit>
#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <mutex>

#include "util/env.hpp"

namespace stu {

std::atomic<bool> g_metrics_enabled{false};

namespace {

struct MetricsGlobals {
  std::mutex lock;
  std::string path;
  long period_ms = 0;
  long stall_ms = 0;
  struct Provider {
    int id;
    MetricsRegistry::Render render;
  };
  std::vector<Provider> providers;
  std::vector<std::string> retained;  // final renders of dead providers
  int next_id = 1;
};

MetricsGlobals& globals() {
  static MetricsGlobals g;
  return g;
}

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void atexit_writer() {
  MetricsGlobals& g = globals();
  std::string path;
  {
    std::lock_guard<std::mutex> hold(g.lock);
    path = g.path;
  }
  if (!path.empty()) MetricsRegistry::instance().write_snapshot(path);
}

// ---- fatal-signal dumps ----------------------------------------------

constexpr int kMaxCrashHooks = 8;
std::atomic<void (*)()> g_crash_hooks[kMaxCrashHooks];
std::atomic<int> g_crash_hook_count{0};
std::atomic<bool> g_in_crash{false};

void crash_signal_handler(int sig) {
  // One shot: a second fault (possibly from inside a hook) falls through
  // to the default disposition immediately.
  if (!g_in_crash.exchange(true)) {
    std::fprintf(stderr,
                 "stackthreads-mp: fatal signal %d -- flushing traces/metrics "
                 "(best effort)\n",
                 sig);
    crash_run_hooks();
  }
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

}  // namespace

void metrics_set_enabled(bool on) noexcept {
  g_metrics_enabled.store(on, std::memory_order_relaxed);
}

void metrics_configure_from_env() {
  static std::once_flag once;
  std::call_once(once, [] {
    MetricsGlobals& g = globals();
    bool want_atexit = false;
    {
      std::lock_guard<std::mutex> hold(g.lock);
      g.path = env_string("ST_METRICS", "");
      g.period_ms = env_long("ST_METRICS_PERIOD_MS", 0);
      g.stall_ms = env_long("ST_STALL_MS", 0);
      want_atexit = !g.path.empty();
      if (!g.path.empty() || g.period_ms > 0 || env_long("ST_STATS", 0) != 0) {
        g_metrics_enabled.store(true, std::memory_order_relaxed);
      }
    }
    if (want_atexit) {
      std::atexit(&atexit_writer);
      // A crash must still leave a snapshot behind (best effort; skipped
      // if the fault happened under the registry lock).
      crash_add_hook([] {
        MetricsGlobals& g = globals();
        std::string path;
        {
          std::unique_lock<std::mutex> hold(g.lock, std::try_to_lock);
          if (!hold.owns_lock()) return;
          path = g.path;
        }
        if (!path.empty()) MetricsRegistry::instance().try_write_snapshot(path);
      });
      crash_handlers_install();
    }
  });
}

const std::string& metrics_path() {
  metrics_configure_from_env();
  MetricsGlobals& g = globals();
  std::lock_guard<std::mutex> hold(g.lock);
  return g.path;
}

long metrics_period_ms() {
  metrics_configure_from_env();
  MetricsGlobals& g = globals();
  std::lock_guard<std::mutex> hold(g.lock);
  return g.period_ms;
}

long metrics_stall_ms() {
  metrics_configure_from_env();
  MetricsGlobals& g = globals();
  std::lock_guard<std::mutex> hold(g.lock);
  return g.stall_ms;
}

void crash_handlers_install() {
  static std::once_flag once;
  std::call_once(once, [] {
    for (int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE}) {
      struct sigaction sa;
      std::memset(&sa, 0, sizeof sa);
      sa.sa_handler = &crash_signal_handler;
      sigemptyset(&sa.sa_mask);
      sigaction(sig, &sa, nullptr);
    }
  });
}

void crash_add_hook(void (*fn)()) {
  // Idempotent per function: callers (e.g. each st::Runtime) re-add their
  // hook freely without exhausting the bounded table.
  const int seen = std::min(g_crash_hook_count.load(std::memory_order_acquire),
                            kMaxCrashHooks);
  for (int i = 0; i < seen; ++i) {
    if (g_crash_hooks[i].load(std::memory_order_acquire) == fn) return;
  }
  const int i = g_crash_hook_count.fetch_add(1, std::memory_order_acq_rel);
  if (i < kMaxCrashHooks) {
    g_crash_hooks[i].store(fn, std::memory_order_release);
  } else {
    g_crash_hook_count.store(kMaxCrashHooks, std::memory_order_release);
  }
}

void crash_run_hooks() {
  const int n = std::min(g_crash_hook_count.load(std::memory_order_acquire),
                         kMaxCrashHooks);
  for (int i = 0; i < n; ++i) {
    void (*fn)() = g_crash_hooks[i].load(std::memory_order_acquire);
    if (fn != nullptr) fn();
  }
}

// ---------------------------------------------------------------------
// LogHistogram
// ---------------------------------------------------------------------

std::size_t LogHistogram::bucket_of(std::uint64_t v) noexcept {
  if (v < HistogramSnapshot::kLinear) return static_cast<std::size_t>(v);
  const int msb = 63 - std::countl_zero(v);  // >= 4
  const std::size_t sub = static_cast<std::size_t>((v >> (msb - 2)) & 3);
  return HistogramSnapshot::kLinear +
         static_cast<std::size_t>(msb - 4) * HistogramSnapshot::kSubBuckets + sub;
}

std::uint64_t LogHistogram::bucket_lo(std::size_t b) noexcept {
  if (b < HistogramSnapshot::kLinear) return b;
  const std::size_t rel = b - HistogramSnapshot::kLinear;
  const int msb = 4 + static_cast<int>(rel / HistogramSnapshot::kSubBuckets);
  const std::uint64_t sub = rel % HistogramSnapshot::kSubBuckets;
  return (std::uint64_t{4} + sub) << (msb - 2);
}

std::uint64_t LogHistogram::bucket_hi(std::size_t b) noexcept {
  if (b < HistogramSnapshot::kLinear) return b;
  const std::size_t rel = b - HistogramSnapshot::kLinear;
  const int msb = 4 + static_cast<int>(rel / HistogramSnapshot::kSubBuckets);
  return bucket_lo(b) + (std::uint64_t{1} << (msb - 2)) - 1;
}

HistogramSnapshot LogHistogram::snapshot() const {
  HistogramSnapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  if (s.count > 0) {
    s.min = min_.load(std::memory_order_relaxed);
    s.max = max_.load(std::memory_order_relaxed);
  }
  for (std::size_t b = 0; b < kBuckets; ++b) {
    s.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  return s;
}

void LogHistogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~std::uint64_t{0}, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  if (other.count == 0) return;
  if (count == 0 || other.min < min) min = other.min;
  if (count == 0 || other.max > max) max = other.max;
  count += other.count;
  sum += other.sum;
  for (std::size_t b = 0; b < kBuckets; ++b) buckets[b] += other.buckets[b];
}

Summary HistogramSnapshot::summarize() const {
  std::vector<double> centers;
  std::vector<std::uint64_t> weights;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (buckets[b] == 0) continue;
    const std::uint64_t lo = LogHistogram::bucket_lo(b);
    const std::uint64_t hi = LogHistogram::bucket_hi(b);
    centers.push_back(static_cast<double>(lo) +
                      static_cast<double>(hi - lo) / 2.0);
    weights.push_back(buckets[b]);
  }
  Summary s = summarize_weighted(centers, weights);
  // min/max/mean are tracked exactly; prefer them over bucket estimates,
  // and keep the quantiles (bucket midpoints) inside that exact range.
  if (s.n > 0) {
    s.min = static_cast<double>(min);
    s.max = static_cast<double>(max);
    s.mean = static_cast<double>(sum) / static_cast<double>(count);
    s.median = std::clamp(s.median, s.min, s.max);
    s.p90 = std::clamp(s.p90, s.min, s.max);
    s.p99 = std::clamp(s.p99, s.min, s.max);
  }
  return s;
}

std::string HistogramSnapshot::to_json(const std::string& name, const char* unit,
                                       double scale) const {
  const Summary s = summarize();
  char buf[256];
  std::string out = "{\"name\":\"" + json_escape(name) + "\",\"unit\":\"" +
                    json_escape(unit) + "\",";
  std::snprintf(buf, sizeof buf,
                "\"count\":%" PRIu64 ",\"min\":%.3f,\"max\":%.3f,\"mean\":%.3f,"
                "\"p50\":%.3f,\"p90\":%.3f,\"p99\":%.3f,\"buckets\":[",
                count, static_cast<double>(count ? min : 0) * scale,
                static_cast<double>(max) * scale, (count ? s.mean : 0.0) * scale,
                s.median * scale, s.p90 * scale, s.p99 * scale);
  out += buf;
  bool first = true;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (buckets[b] == 0) continue;
    std::snprintf(buf, sizeof buf, "%s[%.3f,%.3f,%" PRIu64 "]", first ? "" : ",",
                  static_cast<double>(LogHistogram::bucket_lo(b)) * scale,
                  static_cast<double>(LogHistogram::bucket_hi(b)) * scale,
                  buckets[b]);
    out += buf;
    first = false;
  }
  out += "]}";
  return out;
}

// ---------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry reg;
  return reg;
}

int MetricsRegistry::add_provider(Render fn) {
  MetricsGlobals& g = globals();
  std::lock_guard<std::mutex> hold(g.lock);
  const int id = g.next_id++;
  g.providers.push_back({id, std::move(fn)});
  return id;
}

void MetricsRegistry::remove_provider(int id) {
  MetricsGlobals& g = globals();
  std::lock_guard<std::mutex> hold(g.lock);
  for (auto it = g.providers.begin(); it != g.providers.end(); ++it) {
    if (it->id == id) {
      g.retained.push_back(it->render());
      g.providers.erase(it);
      return;
    }
  }
}

void MetricsRegistry::clear_retained() {
  MetricsGlobals& g = globals();
  std::lock_guard<std::mutex> hold(g.lock);
  g.retained.clear();
}

namespace {

std::string render_document_locked(MetricsGlobals& g) {
  char buf[128];
  std::string out = "{\"schema\":\"stmp-metrics-v1\",";
  std::snprintf(buf, sizeof buf, "\"wall_ns\":%" PRIu64 ",\"enabled\":%s,",
                wall_ns(), metrics_enabled() ? "true" : "false");
  out += buf;
  out += "\"sections\":[";
  bool first = true;
  for (const auto& p : g.providers) {
    if (!first) out.push_back(',');
    first = false;
    out += p.render();
  }
  for (const auto& r : g.retained) {
    if (!first) out.push_back(',');
    first = false;
    out += r;
  }
  out += "]}";
  return out;
}

bool write_text(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "metrics: cannot open %s for writing\n", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  if (!ok) std::fprintf(stderr, "metrics: short write to %s\n", path.c_str());
  return ok;
}

}  // namespace

std::string MetricsRegistry::snapshot_json() {
  MetricsGlobals& g = globals();
  std::lock_guard<std::mutex> hold(g.lock);
  return render_document_locked(g);
}

bool MetricsRegistry::write_snapshot(const std::string& path) {
  return write_text(path, snapshot_json());
}

bool MetricsRegistry::try_write_snapshot(const std::string& path) {
  MetricsGlobals& g = globals();
  std::unique_lock<std::mutex> hold(g.lock, std::try_to_lock);
  if (!hold.owns_lock()) return false;
  const std::string doc = render_document_locked(g);
  hold.unlock();
  return write_text(path, doc);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace stu
