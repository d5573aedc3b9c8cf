#include "util/trace_export.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <set>
#include <utility>

#include "util/env.hpp"
#include "util/metrics.hpp"
#include "util/sched_log.hpp"

namespace stu {

std::atomic<std::uint64_t> g_trace_mask{0};
std::atomic<std::size_t> g_trace_ring_capacity{65536};

namespace {

struct TraceGlobals {
  std::mutex lock;
  std::vector<TraceRecord> sink;
  std::string path;
  bool stats = false;
  // Live rings (registered by workers/VMs) -> per-ring flush watermark:
  // the `emitted()` count already copied into the sink, so a crash/stall
  // flush followed by the destructor flush appends each record once.
  std::map<const TraceRing*, std::uint64_t> live_rings;
  // Timestamp calibration: one (raw clock, wall ns) sample at configure
  // time and one at export time give the tick -> ns scale.
  std::uint64_t cal_tsc = 0;
  std::uint64_t cal_ns = 0;
  bool calibrated = false;
};

TraceGlobals& globals() {
  static TraceGlobals g;
  return g;
}

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void ensure_calibrated(TraceGlobals& g) {
  if (!g.calibrated) {
    g.cal_tsc = trace_clock();
    g.cal_ns = wall_ns();
    g.calibrated = true;
  }
}

void atexit_writer() {
  TraceGlobals& g = globals();
  std::string path;
  {
    std::lock_guard<std::mutex> hold(g.lock);
    path = g.path;
  }
  if (!path.empty()) trace_write(path);
}

struct EventName {
  const char* name;
  std::uint64_t group;  // extra bits its name also implies (itself always)
};

constexpr std::uint64_t bit(TraceEvent e) { return std::uint64_t{1} << e; }

const char* kEventNames[kTraceEventCount] = {
    "fork",           // kTraceFork
    "suspend",        // kTraceSuspend
    "resume",         // kTraceResume
    "resume-run",     // kTraceResumeRun
    "restart",        // kTraceRestart
    "task-complete",  // kTraceTaskComplete
    "steal-posted",     "steal-served", "steal-rejected", "steal-received",
    "steal-cancelled",
    "stacklet-alloc", "heap-fallback",
    "vm-suspend", "vm-restart", "vm-shrink", "vm-migrate",
    "io-wait", "io-ready", "io-wake", "io-timer", "io-migrate", "io-cancel",
    "sched-decision",
};

constexpr std::uint64_t kGroupSteal =
    bit(kTraceStealPosted) | bit(kTraceStealServed) | bit(kTraceStealRejected) |
    bit(kTraceStealReceived) | bit(kTraceStealCancelled);
constexpr std::uint64_t kGroupStacklet = bit(kTraceStackletAlloc) | bit(kTraceHeapFallback);
constexpr std::uint64_t kGroupVm = bit(kTraceVmSuspend) | bit(kTraceVmRestart) |
                                   bit(kTraceVmShrink) | bit(kTraceVmMigrate);
constexpr std::uint64_t kGroupSched = bit(kTraceFork) | bit(kTraceSuspend) |
                                      bit(kTraceResume) | bit(kTraceResumeRun) |
                                      bit(kTraceRestart) | bit(kTraceTaskComplete);
constexpr std::uint64_t kGroupIo = bit(kTraceIoWait) | bit(kTraceIoReady) |
                                   bit(kTraceIoWake) | bit(kTraceIoTimer) |
                                   bit(kTraceIoMigrate) | bit(kTraceIoCancel);

void append_escaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') out.push_back('\\');
    out.push_back(*s);
  }
}

}  // namespace

const char* trace_event_name(TraceEvent ev) {
  return ev < kTraceEventCount ? kEventNames[ev] : "unknown";
}

std::uint64_t trace_parse_mask(const std::string& spec) {
  if (spec.empty()) return kTraceAll;
  if (std::isdigit(static_cast<unsigned char>(spec[0]))) {
    return std::strtoull(spec.c_str(), nullptr, 0) & kTraceAll;
  }
  std::uint64_t mask = 0;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string tok = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (tok.empty()) continue;
    if (tok == "all") {
      mask |= kTraceAll;
    } else if (tok == "steal") {
      mask |= kGroupSteal;
    } else if (tok == "stacklet") {
      mask |= kGroupStacklet;
    } else if (tok == "vm") {
      mask |= kGroupVm;
    } else if (tok == "sched") {
      mask |= kGroupSched;
    } else if (tok == "io") {
      mask |= kGroupIo;
    } else {
      for (int e = 0; e < kTraceEventCount; ++e) {
        if (tok == kEventNames[e]) mask |= std::uint64_t{1} << e;
      }
    }
  }
  return mask;
}

void trace_configure_from_env() {
  static std::once_flag once;
  std::call_once(once, [] {
    TraceGlobals& g = globals();
    std::lock_guard<std::mutex> hold(g.lock);
    ensure_calibrated(g);
    g.path = env_string("ST_TRACE", "");
    g.stats = env_long("ST_STATS", 0) != 0;
    const long buf = env_long("ST_TRACE_BUF", 0);
    if (buf > 1) g_trace_ring_capacity.store(static_cast<std::size_t>(buf),
                                             std::memory_order_relaxed);
    const std::string events = env_string("ST_TRACE_EVENTS", "");
    if (!g.path.empty() || !events.empty()) {
      g_trace_mask.store(trace_parse_mask(events), std::memory_order_relaxed);
    }
    if (!g.path.empty()) {
      std::atexit(&atexit_writer);
      // Crashes must not lose the trace: flush live rings and write the
      // file from the fatal-signal handler too.
      crash_add_hook([] { trace_crash_dump(); });
      crash_handlers_install();
    }
  });
}

bool trace_stats_enabled() {
  trace_configure_from_env();
  TraceGlobals& g = globals();
  std::lock_guard<std::mutex> hold(g.lock);
  return g.stats;
}

const std::string& trace_path() {
  trace_configure_from_env();
  TraceGlobals& g = globals();
  std::lock_guard<std::mutex> hold(g.lock);
  return g.path;
}

void trace_set_mask(std::uint64_t mask) {
  TraceGlobals& g = globals();
  {
    std::lock_guard<std::mutex> hold(g.lock);
    ensure_calibrated(g);
  }
  g_trace_mask.store(mask & kTraceAll, std::memory_order_relaxed);
}

std::uint64_t trace_mask() { return g_trace_mask.load(std::memory_order_relaxed); }

namespace {

/// Appends `ring`'s retained records past its watermark.  Caller holds
/// g.lock.
void flush_locked(TraceGlobals& g, const TraceRing& ring) {
  if (ring.empty()) return;
  // The head must be the one snapshot() based its copy on: reading
  // emitted() *after* the copy (as this used to) lets a concurrent
  // writer -- the crash-dump path flushes rings whose workers are still
  // running -- advance the head in between, shifting the watermark base
  // and re-exporting (or skipping) records on wraparound.  snapshot()
  // itself drops any record overwritten mid-copy, so `head -
  // records.size()` is exactly the index of the first returned record.
  std::uint64_t head = 0;
  std::vector<TraceRecord> records = ring.snapshot(&head);
  std::size_t skip = 0;
  auto it = g.live_rings.find(&ring);
  if (it != g.live_rings.end()) {
    const std::uint64_t base = head - records.size();
    if (it->second > base) {
      skip = static_cast<std::size_t>(
          std::min<std::uint64_t>(it->second - base, records.size()));
    }
    if (head > it->second) it->second = head;
  }
  g.sink.insert(g.sink.end(), records.begin() + static_cast<std::ptrdiff_t>(skip),
                records.end());
}

}  // namespace

void trace_flush(const TraceRing& ring) {
  if (ring.empty()) return;
  TraceGlobals& g = globals();
  std::lock_guard<std::mutex> hold(g.lock);
  flush_locked(g, ring);
}

void trace_ring_register(const TraceRing* ring) {
  TraceGlobals& g = globals();
  std::lock_guard<std::mutex> hold(g.lock);
  g.live_rings.emplace(ring, 0);
}

void trace_ring_unregister(const TraceRing* ring) {
  TraceGlobals& g = globals();
  std::lock_guard<std::mutex> hold(g.lock);
  g.live_rings.erase(ring);
}

void trace_flush_live() {
  TraceGlobals& g = globals();
  std::lock_guard<std::mutex> hold(g.lock);
  for (auto& [ring, watermark] : g.live_rings) flush_locked(g, *ring);
}

bool trace_crash_dump() {
  TraceGlobals& g = globals();
  std::string path;
  {
    // try_lock: if the fault happened while this thread held the sink
    // lock, a blocking flush would deadlock the signal handler.
    std::unique_lock<std::mutex> hold(g.lock, std::try_to_lock);
    if (!hold.owns_lock()) return false;
    path = g.path;
    if (path.empty()) return false;
    for (auto& [ring, watermark] : g.live_rings) flush_locked(g, *ring);
  }
  return trace_write(path);
}

double trace_ns_per_tick() {
  TraceGlobals& g = globals();
  std::lock_guard<std::mutex> hold(g.lock);
  ensure_calibrated(g);
  const std::uint64_t now_tsc = trace_clock();
  const std::uint64_t now_ns = wall_ns();
  if (now_tsc > g.cal_tsc && now_ns > g.cal_ns) {
    return static_cast<double>(now_ns - g.cal_ns) /
           static_cast<double>(now_tsc - g.cal_tsc);
  }
  return 1.0;
}

void trace_sink_clear() {
  TraceGlobals& g = globals();
  std::lock_guard<std::mutex> hold(g.lock);
  g.sink.clear();
}

std::vector<TraceRecord> trace_sink_snapshot() {
  TraceGlobals& g = globals();
  std::lock_guard<std::mutex> hold(g.lock);
  return g.sink;
}

std::string trace_to_json(std::vector<TraceRecord> records) {
  std::stable_sort(records.begin(), records.end(),
                   [](const TraceRecord& x, const TraceRecord& y) { return x.tsc < y.tsc; });

  // Tick -> microsecond scale from the two calibration samples.
  double ns_per_tick = 1.0;
  std::uint64_t origin = records.empty() ? 0 : records.front().tsc;
  {
    TraceGlobals& g = globals();
    std::lock_guard<std::mutex> hold(g.lock);
    ensure_calibrated(g);
    const std::uint64_t now_tsc = trace_clock();
    const std::uint64_t now_ns = wall_ns();
    if (now_tsc > g.cal_tsc && now_ns > g.cal_ns) {
      ns_per_tick = static_cast<double>(now_ns - g.cal_ns) /
                    static_cast<double>(now_tsc - g.cal_tsc);
    }
  }
  auto ts_us = [&](std::uint64_t tsc) {
    return static_cast<double>(tsc - origin) * ns_per_tick / 1000.0;
  };

  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[256];
  bool first = true;
  auto emit_raw = [&](const std::string& obj) {
    if (!first) out.push_back(',');
    first = false;
    out += obj;
  };

  // Metadata: process names per source, thread names per worker row.
  std::set<std::uint32_t> pids;
  std::set<std::pair<std::uint32_t, std::uint16_t>> rows;
  for (const TraceRecord& r : records) {
    pids.insert(r.src);
    rows.insert({r.src, r.worker});
  }
  for (std::uint32_t pid : pids) {
    const char* name = pid == kTraceSrcStvm ? "stvm (virtual workers)"
                                            : "stackthreads runtime";
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,\"tid\":0,"
                  "\"args\":{\"name\":\"%s\"}}",
                  pid, name);
    emit_raw(buf);
  }
  for (const auto& [pid, tid] : rows) {
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%u,\"tid\":%u,"
                  "\"args\":{\"name\":\"worker %u\"}}",
                  pid, tid, tid);
    emit_raw(buf);
  }

  // Flow correlation: steal negotiations key on the StealRequest address
  // (record field a); resume edges key on the Continuation address.  Ids
  // are assigned at flow start so address reuse cannot conflate
  // negotiations.
  std::map<std::uint64_t, std::uint64_t> steal_flow, resume_flow, io_flow;
  std::uint64_t next_flow_id = 1;

  auto emit_flow = [&](const char* ph, const char* cat, std::uint64_t id,
                       const TraceRecord& r) {
    const bool finish = ph[0] == 'f';
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",%s\"id\":%" PRIu64
                  ",\"pid\":%u,\"tid\":%u,\"ts\":%.3f}",
                  cat, cat, ph, finish ? "\"bp\":\"e\"," : "", id, r.src, r.worker,
                  ts_us(r.tsc));
    emit_raw(buf);
  };

  for (const TraceRecord& r : records) {
    const char* name = trace_event_name(static_cast<TraceEvent>(r.event));
    if (r.event == kTraceSched) {
      // Annotation ride-alongs (b = SchedKind) get their own names so
      // viewers and trace_lint can tell observations from decisions.
      if (r.b == kSchedAccess) name = "sched-access";
      else if (r.b == kSchedHbRelease || r.b == kSchedHbAcquire) name = "sched-hb";
    }
    std::string obj = "{\"name\":\"";
    append_escaped(obj, name);
    if (r.event == kTraceSched) {
      // Schedule-clock ride-along (util/sched_log.hpp): a = Lamport seq,
      // b = SchedKind.  Exported as a named "seq" arg so trace_lint can
      // check the clock and viewers can correlate with the .sched file.
      std::snprintf(buf, sizeof buf,
                    "\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":%u,\"tid\":%u,"
                    "\"ts\":%.3f,\"dur\":0,\"args\":{\"seq\":%" PRIu64
                    ",\"kind\":%" PRIu64 "}}",
                    r.src == kTraceSrcStvm ? "stvm" : "runtime", r.src, r.worker,
                    ts_us(r.tsc), r.a, r.b);
    } else {
      std::snprintf(buf, sizeof buf,
                    "\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":%u,\"tid\":%u,"
                    "\"ts\":%.3f,\"dur\":0,\"args\":{\"a\":%" PRIu64 ",\"b\":%" PRIu64 "}}",
                    r.src == kTraceSrcStvm ? "stvm" : "runtime", r.src, r.worker,
                    ts_us(r.tsc), r.a, r.b);
    }
    obj += buf;
    emit_raw(obj);

    switch (r.event) {
      case kTraceStealPosted: {
        const std::uint64_t id = next_flow_id++;
        steal_flow[r.a] = id;
        emit_flow("s", "steal", id, r);
        break;
      }
      case kTraceStealServed: {
        // A step on the posted negotiation's flow (the thief's
        // steal-received closes it).
        auto it = steal_flow.find(r.a);
        if (it != steal_flow.end()) emit_flow("t", "steal", it->second, r);
        break;
      }
      case kTraceStealReceived:
      case kTraceStealRejected:
      case kTraceStealCancelled: {
        auto it = steal_flow.find(r.a);
        if (it != steal_flow.end()) {
          emit_flow("f", "steal", it->second, r);
          steal_flow.erase(it);
        }
        break;
      }
      case kTraceResume: {
        const std::uint64_t id = next_flow_id++;
        resume_flow[r.a] = id;
        emit_flow("s", "resume", id, r);
        break;
      }
      case kTraceResumeRun: {
        auto it = resume_flow.find(r.a);
        if (it != resume_flow.end()) {
          emit_flow("f", "resume", it->second, r);
          resume_flow.erase(it);
        }
        break;
      }
      case kTraceIoWait: {
        const std::uint64_t id = next_flow_id++;
        io_flow[r.a] = id;
        emit_flow("s", "io", id, r);
        break;
      }
      case kTraceIoReady:
      case kTraceIoCancel: {
        auto it = io_flow.find(r.a);
        if (it != io_flow.end()) {
          emit_flow("f", "io", it->second, r);
          io_flow.erase(it);
        }
        break;
      }
      default:
        break;
    }
  }
  out += "]}";
  return out;
}

bool trace_write(const std::string& path) {
  const std::string json = trace_to_json(trace_sink_snapshot());
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "trace_export: cannot open %s for writing\n", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  if (!ok) std::fprintf(stderr, "trace_export: short write to %s\n", path.c_str());
  return ok;
}

// ---------------------------------------------------------------------
// Minimal strict JSON validator (no AST, just well-formedness).
// ---------------------------------------------------------------------

namespace {

struct JsonLint {
  const std::string& s;
  std::size_t i = 0;
  std::string err;

  bool fail(const char* what) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%s at byte %zu", what, i);
    err = buf;
    return false;
  }
  void ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r')) ++i;
  }
  bool literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (s.compare(i, n, lit) != 0) return fail("invalid literal");
    i += n;
    return true;
  }
  bool string() {
    if (i >= s.size() || s[i] != '"') return fail("expected string");
    ++i;
    while (i < s.size()) {
      const char c = s[i];
      if (c == '"') {
        ++i;
        return true;
      }
      if (c == '\\') {
        ++i;
        if (i >= s.size()) return fail("truncated escape");
        const char e = s[i];
        if (e == 'u') {
          for (int k = 1; k <= 4; ++k) {
            if (i + static_cast<std::size_t>(k) >= s.size() ||
                !std::isxdigit(static_cast<unsigned char>(s[i + static_cast<std::size_t>(k)]))) {
              return fail("bad \\u escape");
            }
          }
          i += 4;
        } else if (std::strchr("\"\\/bfnrt", e) == nullptr) {
          return fail("bad escape");
        }
        ++i;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return fail("control character in string");
      } else {
        ++i;
      }
    }
    return fail("unterminated string");
  }
  bool number() {
    const std::size_t start = i;
    if (i < s.size() && s[i] == '-') ++i;
    if (i >= s.size() || !std::isdigit(static_cast<unsigned char>(s[i]))) {
      return fail("expected digit");
    }
    while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) ++i;
    if (i < s.size() && s[i] == '.') {
      ++i;
      if (i >= s.size() || !std::isdigit(static_cast<unsigned char>(s[i]))) {
        return fail("expected fraction digit");
      }
      while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) ++i;
    }
    if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
      ++i;
      if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
      if (i >= s.size() || !std::isdigit(static_cast<unsigned char>(s[i]))) {
        return fail("expected exponent digit");
      }
      while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) ++i;
    }
    return i > start;
  }
  bool value(int depth) {
    if (depth > 256) return fail("nesting too deep");
    ws();
    if (i >= s.size()) return fail("expected value");
    switch (s[i]) {
      case '{': return object(depth);
      case '[': return array(depth);
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object(int depth) {
    ++i;  // '{'
    ws();
    if (i < s.size() && s[i] == '}') {
      ++i;
      return true;
    }
    for (;;) {
      ws();
      if (!string()) return false;
      ws();
      if (i >= s.size() || s[i] != ':') return fail("expected ':'");
      ++i;
      if (!value(depth + 1)) return false;
      ws();
      if (i < s.size() && s[i] == ',') {
        ++i;
        continue;
      }
      if (i < s.size() && s[i] == '}') {
        ++i;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }
  bool array(int depth) {
    ++i;  // '['
    ws();
    if (i < s.size() && s[i] == ']') {
      ++i;
      return true;
    }
    for (;;) {
      if (!value(depth + 1)) return false;
      ws();
      if (i < s.size() && s[i] == ',') {
        ++i;
        continue;
      }
      if (i < s.size() && s[i] == ']') {
        ++i;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }
};

}  // namespace

bool trace_json_lint(const std::string& text, std::string* err) {
  JsonLint lint{text, 0, {}};
  if (!lint.value(0)) {
    if (err != nullptr) *err = lint.err;
    return false;
  }
  lint.ws();
  if (lint.i != text.size()) {
    if (err != nullptr) *err = "trailing garbage at byte " + std::to_string(lint.i);
    return false;
  }
  return true;
}

std::uint64_t trace_schedule_digest(const std::vector<TraceRecord>& records) {
  // Small payloads (worker ids, counts, outcome codes) hash as
  // themselves; larger ones (addresses, tokens) get a dense first-
  // appearance numbering.  The renaming is injective, so two record
  // sequences collide only if they are equal up to a consistent renaming
  // of large payloads -- exactly the equivalence replay promises.
  std::map<std::uint64_t, std::uint64_t> names;
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  const auto norm = [&names](std::uint64_t v) {
    if (v < 4096) return v;
    const auto [it, fresh] = names.emplace(v, names.size() + 4096);
    (void)fresh;
    return it->second;
  };
  for (const TraceRecord& r : records) {
    // The sched-decision ride-alongs are markers *about* the schedule,
    // not effects of it: a replayed prefix re-emits only the prefix's
    // markers, so including them would make every prefix trivially
    // differ from the full run.  Excluding them gives shrink its
    // invariant -- replaying an unmutated prefix digests equal to the
    // free-run baseline -- while every real event still counts.
    if (r.event == kTraceSched) continue;
    mix(r.event);
    mix(r.worker);
    mix(r.src);
    mix(norm(r.a));
    mix(norm(r.b));
  }
  return h;
}

}  // namespace stu
