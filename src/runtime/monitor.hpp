// Stall watchdog + periodic metrics snapshots: the runtime's monitor
// thread (docs/OBSERVABILITY.md).
//
// The paper's polling steal protocol has a characteristic failure mode:
// a worker that computes through a long fork-free stretch without an
// st::poll() call starves every thief that posts to its port (Section
// 4.1 discusses the polling-frequency tradeoff).  The monitor makes that
// visible: each worker bumps a heartbeat counter at every scheduling
// event, and a worker that is in the *working* phase with a frozen
// heartbeat for ST_STALL_MS is reported as stalled, with a logical-stack
// introspection dump (E/R/X classification per Section 5) so the
// offending computation can be located.
//
// The same thread drives periodic ST_METRICS snapshots
// (ST_METRICS_PERIOD_MS), so a hung run still leaves a recent snapshot
// on disk.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

namespace st {

class Runtime;

struct MonitorConfig {
  long poll_ms = 10;        ///< sampling cadence
  long stall_ms = 0;        ///< 0 = stall watchdog off
  long snapshot_period_ms = 0;  ///< 0 = no periodic snapshots
  std::string snapshot_path;    ///< ST_METRICS path for periodic snapshots
  bool dump_to_stderr = true;   ///< print stall dumps (tests turn this off)
};

/// Renders the runtime's current state as text: per worker the phase,
/// heartbeat, deque depths, and the logical stack at stacklet granularity
/// with the Section-5 classification (E = exported/live slot, R = retired
/// slot awaiting the owner's shrink, X = the extended region extent, i.e.
/// the bump pointer).  Reads racy-but-bounded relaxed atomics; safe to
/// call from the monitor or a crash hook while workers run.
std::string dump_runtime_state(Runtime& rt);

class Monitor {
 public:
  Monitor(Runtime& rt, MonitorConfig cfg);
  ~Monitor();  ///< stops and joins the monitor thread

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  std::uint64_t stalls_detected() const noexcept {
    return stalls_.load(std::memory_order_acquire);
  }
  std::uint64_t snapshots_written() const noexcept {
    return snapshots_.load(std::memory_order_relaxed);
  }

  /// The most recent stall dump ("" if none fired yet).
  std::string last_dump() const;

 private:
  void loop();
  void on_stall(unsigned worker, std::uint64_t heartbeat);

  Runtime& rt_;
  MonitorConfig cfg_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> stalls_{0};
  std::atomic<std::uint64_t> snapshots_{0};
  mutable std::mutex dump_lock_;
  std::string last_dump_;
  std::thread thread_;  // last: starts sampling immediately
};

}  // namespace st
