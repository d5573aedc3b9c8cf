#include "runtime/monitor.hpp"

#include <chrono>
#include <cstdio>
#include <sstream>
#include <vector>

#include "runtime/runtime.hpp"
#include "util/metrics.hpp"
#include "util/trace_export.hpp"

namespace st {

namespace {

const char* phase_name(WorkerPhase p) {
  switch (p) {
    case WorkerPhase::kIdle: return "idle";
    case WorkerPhase::kWorking: return "working";
    case WorkerPhase::kStealing: return "stealing";
  }
  return "?";
}

}  // namespace

std::string dump_runtime_state(Runtime& rt) {
  std::ostringstream os;
  os << "== stackthreads-mp runtime dump: " << rt.num_workers()
     << " worker(s) ==\n";
  for (unsigned i = 0; i < rt.num_workers(); ++i) {
    Worker& w = rt.worker(i);
    StackRegion& r = w.region();
    const std::size_t top = r.top();
    os << "worker " << i << ": phase=" << phase_name(w.phase())
       << " heartbeat=" << w.heartbeat_count()
       << " fork_deque=" << w.fork_deque().size()
       << " readyq=" << w.readyq().size() << "\n";
    // Section 5 classification at stacklet granularity: a live slot is an
    // exported frame (E) -- it may be continued from another worker; a
    // retired slot (R) is finished but trapped under a live one; the
    // bump-pointer extent is the extended set (X).
    std::size_t e = 0, ret = 0;
    os << "  logical stack (stacklet granularity, newest first):";
    if (top == 0) os << " <empty>";
    os << "\n";
    for (std::size_t s = top; s-- > 0;) {
      const auto st = r.slot_state(s);
      if (st == StackRegion::kLive) {
        ++e;
        os << "    slot " << s << ": E (exported/live)\n";
      } else if (st == StackRegion::kRetired) {
        ++ret;
        os << "    slot " << s << ": R (retired, awaiting shrink)\n";
      } else {
        os << "    slot " << s << ": free (hole)\n";
      }
    }
    os << "  E=" << e << " R=" << ret << " X=" << top
       << " high_water=" << r.high_water() << " capacity=" << r.capacity()
       << " heap_fallbacks=" << r.heap_fallbacks() << "\n";
  }
  return os.str();
}

Monitor::Monitor(Runtime& rt, MonitorConfig cfg)
    : rt_(rt), cfg_(std::move(cfg)), thread_([this] { loop(); }) {}

Monitor::~Monitor() {
  stop_.store(true, std::memory_order_release);
  thread_.join();
}

std::string Monitor::last_dump() const {
  std::lock_guard<std::mutex> hold(dump_lock_);
  return last_dump_;
}

void Monitor::on_stall(unsigned worker, std::uint64_t heartbeat) {
  std::string dump = dump_runtime_state(rt_);
  if (cfg_.dump_to_stderr) {
    std::fprintf(stderr,
                 "stackthreads-mp: worker %u stalled (heartbeat %llu frozen "
                 ">= %ld ms while working; missing st::poll()?)\n%s",
                 worker, static_cast<unsigned long long>(heartbeat),
                 cfg_.stall_ms, dump.c_str());
  }
  {
    std::lock_guard<std::mutex> hold(dump_lock_);
    last_dump_ = std::move(dump);
  }
  // Count the stall only once its dump is stored: a reader that sees the
  // count (acquire) then reads last_dump() gets this dump, not "".
  stalls_.store(stalls_.load(std::memory_order_relaxed) + 1,
                std::memory_order_release);
  // Preserve the evidence: drain live trace rings (so a later crash or the
  // atexit writer has the events leading up to the stall) and write a
  // metrics snapshot if one was requested.
  if (!stu::trace_path().empty()) stu::trace_flush_live();
  if (!cfg_.snapshot_path.empty()) {
    stu::MetricsRegistry::instance().write_snapshot(cfg_.snapshot_path);
  }
}

void Monitor::loop() {
  using clock = std::chrono::steady_clock;
  const auto poll = std::chrono::milliseconds(cfg_.poll_ms > 0 ? cfg_.poll_ms : 10);

  struct Armed {
    std::uint64_t heartbeat = 0;
    clock::time_point since{};
    bool reported = false;
  };
  std::vector<Armed> armed(rt_.num_workers());
  const auto start = clock::now();
  for (auto& a : armed) a.since = start;
  auto next_snapshot = start + std::chrono::milliseconds(
                                   cfg_.snapshot_period_ms > 0 ? cfg_.snapshot_period_ms : 0);

  while (!stop_.load(std::memory_order_acquire)) {
    // Heartbeats and stats are plain single-writer fields; workers only
    // publish their atomic mirrors when asked.  Request before sleeping
    // so a healthy worker has a full poll period to reach a poll point:
    // a wedged one never publishes, its mirror freezes, the stall fires.
    rt_.request_sample_all();
    std::this_thread::sleep_for(poll);
    const auto now = clock::now();

    if (cfg_.stall_ms > 0) {
      for (unsigned i = 0; i < rt_.num_workers(); ++i) {
        Worker& w = rt_.worker(i);
        const std::uint64_t hb = w.heartbeat_count();
        Armed& a = armed[i];
        if (hb != a.heartbeat || w.phase() != WorkerPhase::kWorking) {
          // Progress (or not running app code): re-arm.
          a.heartbeat = hb;
          a.since = now;
          a.reported = false;
          continue;
        }
        if (!a.reported &&
            now - a.since >= std::chrono::milliseconds(cfg_.stall_ms)) {
          a.reported = true;  // one report per freeze; re-armed on progress
          on_stall(i, hb);
        }
      }
    }

    if (cfg_.snapshot_period_ms > 0 && !cfg_.snapshot_path.empty() &&
        now >= next_snapshot) {
      next_snapshot = now + std::chrono::milliseconds(cfg_.snapshot_period_ms);
      if (stu::MetricsRegistry::instance().write_snapshot(cfg_.snapshot_path)) {
        snapshots_.store(snapshots_.load(std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
      }
    }
  }
}

}  // namespace st
