#include "util/sched_log.hpp"

#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <utility>

#include "util/env.hpp"
#include "util/metrics.hpp"

namespace stu {

std::atomic<std::uint32_t> g_sched_mode{kSchedModeOff};
std::atomic<std::uint32_t> g_sched_annotate{0};

namespace {

constexpr char kSchedMagic[16] = {'s', 't', 'm', 'p', '-', 's', 'c', 'h',
                                  'e', 'd', '-', 'v', '1', '\0', '\0', '\0'};

struct SchedState {
  std::mutex lock;
  std::uint64_t clock = 0;                 // Lamport seq, next value = clock + 1
  std::vector<SchedDecision> recorded;     // record-mode buffer
  // Replay: per-(src, worker, kind) FIFO of STVM decisions.
  std::map<std::uint64_t, std::deque<SchedDecision>> queues;
  std::string record_path;                 // ST_SCHED_RECORD target
  bool first_divergence_reported = false;
  Counter recorded_n;
  Counter replayed_n;
  Counter divergence_n;
  LogHistogram divergence_seq;
  int provider_id = -1;
};

SchedState& state() {
  static SchedState s;
  return s;
}

std::uint64_t queue_key(TraceSource src, std::uint16_t worker, std::uint16_t kind) {
  return (static_cast<std::uint64_t>(src) << 32) |
         (static_cast<std::uint64_t>(worker) << 16) | kind;
}

const char* mode_name(std::uint32_t m) {
  switch (m) {
    case kSchedModeRecord: return "record";
    case kSchedModeReplay: return "replay";
    case kSchedModeRecord | kSchedModeReplay: return "replay+record";
    default: return "off";
  }
}

bool is_annotation_kind(std::uint16_t kind) {
  return kind == kSchedAccess || kind == kSchedHbRelease || kind == kSchedHbAcquire;
}

std::string render_metrics() {
  SchedState& s = state();
  std::string out = "{\"kind\":\"sched\",\"mode\":\"";
  out += mode_name(g_sched_mode.load(std::memory_order_relaxed));
  out += "\"";
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                ",\"recorded\":%llu,\"replayed\":%llu,\"sched_divergence\":%llu",
                static_cast<unsigned long long>(s.recorded_n.get()),
                static_cast<unsigned long long>(s.replayed_n.get()),
                static_cast<unsigned long long>(s.divergence_n.get()));
  out += buf;
  out += ",\"histograms\":[";
  out += s.divergence_seq.snapshot().to_json("sched_divergence_seq", "seq");
  out += "]}";
  return out;
}

/// Registers the metrics provider the first time record/replay turns on.
/// Caller holds s.lock.
void ensure_provider_locked(SchedState& s) {
  if (s.provider_id < 0) {
    s.provider_id = MetricsRegistry::instance().add_provider(render_metrics);
  }
}

void load_replay_locked(SchedState& s, std::vector<SchedDecision> log) {
  s.queues.clear();
  s.first_divergence_reported = false;
  std::size_t dropped = 0;
  for (const SchedDecision& d : log) {
    if (is_annotation_kind(d.kind)) continue;  // observations, never forced
    if (d.src != kTraceSrcStvm) {
      ++dropped;  // native decisions are recorded, never forced back
      continue;
    }
    s.queues[queue_key(kTraceSrcStvm, d.worker, d.kind)].push_back(d);
  }
  if (dropped > 0) {
    std::fprintf(stderr,
                 "[sched-replay] dropped %zu runtime-source decisions: replay "
                 "forces STVM decisions only\n",
                 dropped);
  }
}

void write_recorded_at_exit() {
  SchedState& s = state();
  std::string path;
  std::vector<SchedDecision> log;
  {
    std::lock_guard<std::mutex> g(s.lock);
    path = s.record_path;
    log = s.recorded;
  }
  if (path.empty()) return;
  std::string err;
  if (!sched_write_file(path, log, &err)) {
    std::fprintf(stderr, "[sched] failed to write %s: %s\n", path.c_str(),
                 err.c_str());
  } else {
    std::fprintf(stderr, "[sched] wrote %zu decisions to %s\n", log.size(),
                 path.c_str());
  }
}

}  // namespace

void sched_configure_from_env() {
  static std::once_flag once;
  std::call_once(once, [] {
    const std::string replay = env_string("ST_SCHED_REPLAY", "");
    const std::string record = env_string("ST_SCHED_RECORD", "");
    if (!replay.empty()) {
      std::vector<SchedDecision> log;
      std::string err;
      if (!sched_read_file(replay, &log, &err)) {
        std::fprintf(stderr, "[sched] cannot replay %s: %s\n", replay.c_str(),
                     err.c_str());
        return;
      }
      sched_set_replay(std::move(log));
      return;
    }
    if (!record.empty()) {
      SchedState& s = state();
      {
        std::lock_guard<std::mutex> g(s.lock);
        s.record_path = record;
        ensure_provider_locked(s);
      }
      std::atexit(write_recorded_at_exit);
      g_sched_mode.store(kSchedModeRecord, std::memory_order_relaxed);
    }
    if (env_long("ST_SCHED_ANNOTATE", 0) != 0) {
      g_sched_annotate.store(1, std::memory_order_relaxed);
    }
  });
}

std::uint64_t sched_record(SchedKind kind, std::uint16_t worker, TraceSource src,
                           std::uint64_t a, std::uint64_t b, TraceRing* ring) {
  SchedState& s = state();
  std::uint64_t seq;
  {
    std::lock_guard<std::mutex> g(s.lock);
    seq = ++s.clock;
    s.recorded.push_back(SchedDecision{seq, a, b, static_cast<std::uint16_t>(kind),
                                       worker, static_cast<std::uint32_t>(src)});
  }
  // stu::Counter is single-writer; these are bumped from any worker, so
  // use a real RMW on the underlying atomic.
  s.recorded_n.v.fetch_add(1, std::memory_order_relaxed);
  if (ring != nullptr && trace_enabled(kTraceSched)) {
    ring->emit(kTraceSched, worker, src, seq, kind);
  }
  return seq;
}

bool sched_replay_next(SchedKind kind, std::uint16_t worker, TraceSource src,
                       SchedDecision* out, TraceRing* ring) {
  SchedState& s = state();
  {
    std::lock_guard<std::mutex> g(s.lock);
    auto it = s.queues.find(queue_key(src, worker, kind));
    if (it == s.queues.end() || it->second.empty()) return false;
    *out = it->second.front();
    it->second.pop_front();
  }
  s.replayed_n.v.fetch_add(1, std::memory_order_relaxed);
  if (ring != nullptr && trace_enabled(kTraceSched)) {
    ring->emit(kTraceSched, worker, src, out->seq, out->kind);
  }
  return true;
}

void sched_note_divergence(SchedKind kind, std::uint16_t worker, TraceSource src,
                           std::uint64_t seq, std::uint64_t expect, std::uint64_t got,
                           const char* what) {
  SchedState& s = state();
  s.divergence_n.v.fetch_add(1, std::memory_order_relaxed);
  // LogHistogram::record is single-writer by contract; divergences are
  // rare and the racy loss of a sample is acceptable here.
  s.divergence_seq.record(seq);
  bool first = false;
  {
    std::lock_guard<std::mutex> g(s.lock);
    if (!s.first_divergence_reported) {
      s.first_divergence_reported = true;
      first = true;
    }
  }
  if (first) {
    // Same shape as the static verifier's diagnostics: proc/worker @decision.
    std::fprintf(stderr,
                 "[sched-replay] divergence at %s/worker %u @decision %llu "
                 "(%s): expected %llu, got %llu -- %s\n",
                 src == kTraceSrcStvm ? "stvm" : "runtime",
                 static_cast<unsigned>(worker),
                 static_cast<unsigned long long>(seq), sched_kind_name(kind),
                 static_cast<unsigned long long>(expect),
                 static_cast<unsigned long long>(got), what);
  }
}

void sched_access(std::uint16_t worker, TraceSource src, std::uint64_t obj,
                  SchedAccessKind kind, std::uint64_t aux, TraceRing* ring) {
  sched_record(kSchedAccess, worker, src, obj,
               (aux << kSchedAccessAuxShift) | static_cast<std::uint64_t>(kind), ring);
}

void sched_hb_release(std::uint16_t worker, TraceSource src, std::uint64_t token,
                      SchedHbClass cls, TraceRing* ring) {
  sched_record(kSchedHbRelease, worker, src, token,
               static_cast<std::uint64_t>(cls), ring);
}

void sched_hb_acquire(std::uint16_t worker, TraceSource src, std::uint64_t token,
                      SchedHbClass cls, TraceRing* ring) {
  sched_record(kSchedHbAcquire, worker, src, token,
               static_cast<std::uint64_t>(cls), ring);
}

void sched_hb_acq_rel(std::uint16_t worker, TraceSource src, std::uint64_t token,
                      SchedHbClass cls, TraceRing* ring) {
  SchedState& s = state();
  std::uint64_t seq;
  {
    std::lock_guard<std::mutex> g(s.lock);
    for (const SchedKind kind : {kSchedHbAcquire, kSchedHbRelease}) {
      seq = ++s.clock;
      s.recorded.push_back(SchedDecision{seq, token, static_cast<std::uint64_t>(cls),
                                         static_cast<std::uint16_t>(kind), worker,
                                         static_cast<std::uint32_t>(src)});
    }
  }
  s.recorded_n.v.fetch_add(2, std::memory_order_relaxed);
  if (ring != nullptr && trace_enabled(kTraceSched)) {
    ring->emit(kTraceSched, worker, src, seq - 1, kSchedHbAcquire);
    ring->emit(kTraceSched, worker, src, seq, kSchedHbRelease);
  }
}

void sched_set_off() {
  g_sched_mode.store(kSchedModeOff, std::memory_order_relaxed);
  SchedState& s = state();
  std::lock_guard<std::mutex> g(s.lock);
  s.queues.clear();
}

void sched_set_record() {
  SchedState& s = state();
  {
    std::lock_guard<std::mutex> g(s.lock);
    s.recorded.clear();
    ensure_provider_locked(s);
  }
  g_sched_mode.store(kSchedModeRecord, std::memory_order_relaxed);
}

void sched_set_replay(std::vector<SchedDecision> log) {
  SchedState& s = state();
  {
    std::lock_guard<std::mutex> g(s.lock);
    load_replay_locked(s, std::move(log));
    ensure_provider_locked(s);
  }
  g_sched_mode.store(kSchedModeReplay, std::memory_order_relaxed);
}

void sched_set_replay_record(std::vector<SchedDecision> log) {
  SchedState& s = state();
  {
    std::lock_guard<std::mutex> g(s.lock);
    load_replay_locked(s, std::move(log));
    s.recorded.clear();
    ensure_provider_locked(s);
  }
  g_sched_mode.store(kSchedModeRecord | kSchedModeReplay, std::memory_order_relaxed);
}

void sched_set_annotate(bool on) {
  g_sched_annotate.store(on ? 1 : 0, std::memory_order_relaxed);
}

std::vector<SchedDecision> sched_take_recorded() {
  SchedState& s = state();
  std::vector<SchedDecision> out;
  {
    std::lock_guard<std::mutex> g(s.lock);
    out.swap(s.recorded);
  }
  // The clock is global and monotone, so the buffer is already seq-sorted.
  return out;
}

SchedCounters sched_counters() {
  SchedState& s = state();
  return SchedCounters{s.recorded_n.get(), s.replayed_n.get(), s.divergence_n.get()};
}

void sched_reset_counters() {
  SchedState& s = state();
  s.recorded_n.v.store(0, std::memory_order_relaxed);
  s.replayed_n.v.store(0, std::memory_order_relaxed);
  s.divergence_n.v.store(0, std::memory_order_relaxed);
  s.divergence_seq.reset();
  std::lock_guard<std::mutex> g(s.lock);
  s.first_divergence_reported = false;
}

const char* sched_kind_name(std::uint16_t kind) noexcept {
  switch (kind) {
    case kSchedVictim: return "victim";
    case kSchedStealResult: return "steal-result";
    case kSchedServe: return "serve";
    case kSchedRoot: return "root";
    case kSchedQuantum: return "quantum";
    case kSchedPark: return "park";
    case kSchedUnpark: return "unpark";
    case kSchedIoReady: return "io-ready";
    case kSchedAccess: return "access";
    case kSchedHbRelease: return "hb-release";
    case kSchedHbAcquire: return "hb-acquire";
    default: return "?";
  }
}

std::uint64_t sched_schedule_digest(const std::vector<SchedDecision>& log) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const SchedDecision& d : log) {
    mix(d.kind);
    mix(d.worker);
    mix(d.src);
    mix(d.a);
    mix(d.b);
  }
  return h;
}

bool sched_write_file(const std::string& path, const std::vector<SchedDecision>& log,
                      std::string* err) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (err != nullptr) *err = "cannot open for writing";
    return false;
  }
  bool ok = std::fwrite(kSchedMagic, 1, 16, f) == 16;
  const std::uint64_t n = log.size();
  ok = ok && std::fwrite(&n, sizeof(n), 1, f) == 1;
  ok = ok && (n == 0 || std::fwrite(log.data(), sizeof(SchedDecision), n, f) == n);
  ok = std::fclose(f) == 0 && ok;
  if (!ok && err != nullptr) *err = "short write";
  return ok;
}

bool sched_read_file(const std::string& path, std::vector<SchedDecision>* out,
                     std::string* err) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (err != nullptr) *err = "cannot open";
    return false;
  }
  char magic[16];
  std::uint64_t n = 0;
  bool ok = std::fread(magic, 1, sizeof(magic), f) == sizeof(magic);
  if (!ok || std::memcmp(magic, kSchedMagic, sizeof(magic)) != 0) {
    // Name what was found: an old stmp-sched-v2 (hierarchical-steal) log
    // must fail loudly rather than replay misaligned.
    std::string found;
    for (std::size_t i = 0; ok && i < sizeof(magic) && magic[i] != '\0'; ++i) {
      found += magic[i] >= 0x20 && magic[i] < 0x7f ? magic[i] : '?';
    }
    if (err != nullptr) *err = "bad magic '" + found + "' (want stmp-sched-v1)";
    std::fclose(f);
    return false;
  }
  ok = std::fread(&n, sizeof(n), 1, f) == 1;
  if (ok && n > (std::uint64_t{1} << 32)) {
    if (err != nullptr) *err = "implausible decision count";
    std::fclose(f);
    return false;
  }
  out->assign(n, SchedDecision{});
  ok = ok && (n == 0 || std::fread(out->data(), sizeof(SchedDecision), n, f) == n);
  std::fclose(f);
  if (!ok) {
    if (err != nullptr) *err = "truncated file";
    out->clear();
    return false;
  }
  return true;
}

bool sched_lint(const std::vector<SchedDecision>& log, std::string* err) {
  auto fail = [&](const std::string& m) {
    if (err != nullptr) *err = m;
    return false;
  };
  std::uint64_t prev_seq = 0;
  // Per (src, worker): victim probes posted but not yet resolved.  The
  // native runtime records kSchedVictim only after the port CAS succeeds,
  // so every runtime probe must resolve via kSchedStealResult; STVM
  // probes resolve VM-internally and record no steal-result.
  std::map<std::uint64_t, std::uint64_t> pending;
  char buf[192];
  for (std::size_t i = 0; i < log.size(); ++i) {
    const SchedDecision& d = log[i];
    if (d.seq == 0 || d.seq <= prev_seq) {
      std::snprintf(buf, sizeof(buf), "decision %zu: seq %llu not increasing", i,
                    static_cast<unsigned long long>(d.seq));
      return fail(buf);
    }
    prev_seq = d.seq;
    if (d.kind >= kSchedKindCount) {
      std::snprintf(buf, sizeof(buf), "decision %zu: unknown kind %u", i,
                    static_cast<unsigned>(d.kind));
      return fail(buf);
    }
    if (d.src != kTraceSrcRuntime && d.src != kTraceSrcStvm) {
      std::snprintf(buf, sizeof(buf), "decision %zu: unknown src %u", i,
                    static_cast<unsigned>(d.src));
      return fail(buf);
    }
    const std::uint64_t wk = queue_key(static_cast<TraceSource>(d.src), d.worker, 0);
    if (d.src == kTraceSrcRuntime) {
      if (d.kind == kSchedVictim) {
        if (++pending[wk] > 1) {
          std::snprintf(buf, sizeof(buf),
                        "decision %zu: worker %u posted a second probe before "
                        "resolving the first",
                        i, static_cast<unsigned>(d.worker));
          return fail(buf);
        }
      } else if (d.kind == kSchedStealResult) {
        auto it = pending.find(wk);
        if (it == pending.end() || it->second == 0) {
          std::snprintf(buf, sizeof(buf),
                        "decision %zu: steal-result for worker %u without a probe",
                        i, static_cast<unsigned>(d.worker));
          return fail(buf);
        }
        --it->second;
        if (d.a > kSchedOutcomeCancelled) {
          std::snprintf(buf, sizeof(buf), "decision %zu: bad steal outcome %llu", i,
                        static_cast<unsigned long long>(d.a));
          return fail(buf);
        }
      }
    }
    if (d.kind == kSchedQuantum && d.a == 0) {
      std::snprintf(buf, sizeof(buf), "decision %zu: zero-length quantum", i);
      return fail(buf);
    }
    if (d.kind == kSchedAccess &&
        (d.b & ((1u << kSchedAccessAuxShift) - 1)) >= kSchedAccessKindCount) {
      std::snprintf(buf, sizeof(buf), "decision %zu: bad access kind %llu", i,
                    static_cast<unsigned long long>(d.b & 3));
      return fail(buf);
    }
    if ((d.kind == kSchedHbRelease || d.kind == kSchedHbAcquire) &&
        (d.b == 0 || d.b >= kSchedHbClassCount)) {
      std::snprintf(buf, sizeof(buf), "decision %zu: bad hb edge class %llu", i,
                    static_cast<unsigned long long>(d.b));
      return fail(buf);
    }
  }
  return true;
}

}  // namespace stu
