// Monitor thread: stall watchdog on a deliberately-wedged worker, phase
// classification, logical-stack dump content, periodic snapshots
// (docs/OBSERVABILITY.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "runtime/monitor.hpp"
#include "runtime/runtime.hpp"
#include "sync/join_counter.hpp"
#include "util/metrics.hpp"
#include "util/trace_export.hpp"

namespace {

using namespace std::chrono_literals;

// A worker that computes through a long fork-free stretch without
// st::poll() -- the stall the watchdog exists to catch.  The wedge is
// released from outside run() once the watchdog has fired.
TEST(Monitor, StallFiresAndDumpShowsWorkingWorker) {
  st::RuntimeConfig cfg;
  cfg.workers = 2;
  cfg.stall_ms = 0;
  st::Runtime rt(cfg);

  st::MonitorConfig mc;
  mc.poll_ms = 5;
  mc.stall_ms = 50;
  mc.dump_to_stderr = false;
  st::Monitor monitor(rt, mc);

  std::atomic<bool> release{false};
  std::thread driver([&] {
    rt.run([&] {
      while (!release.load(std::memory_order_acquire)) {
        // wedged: no poll, no fork
      }
    });
  });

  // Wait for the watchdog to fire (well over stall_ms).
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (monitor.stalls_detected() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  const std::uint64_t stalls = monitor.stalls_detected();
  const std::string dump = monitor.last_dump();
  release.store(true, std::memory_order_release);
  driver.join();

  ASSERT_GE(stalls, 1u);
  EXPECT_NE(dump.find("runtime dump"), std::string::npos) << dump;
  EXPECT_NE(dump.find("phase=working"), std::string::npos) << dump;
  // The dump carries the Section-5 classification summary.
  EXPECT_NE(dump.find("E="), std::string::npos) << dump;
  EXPECT_NE(dump.find("R="), std::string::npos) << dump;
  EXPECT_NE(dump.find("X="), std::string::npos) << dump;
}

TEST(Monitor, NoFalseStallOnHealthyRun) {
  st::RuntimeConfig cfg;
  cfg.workers = 2;
  cfg.stall_ms = 0;
  st::Runtime rt(cfg);

  st::MonitorConfig mc;
  mc.poll_ms = 5;
  mc.stall_ms = 100;
  mc.dump_to_stderr = false;
  st::Monitor monitor(rt, mc);

  // Healthy fork-join work with frequent scheduling events for ~300ms.
  const auto until = std::chrono::steady_clock::now() + 300ms;
  while (std::chrono::steady_clock::now() < until) {
    rt.run([] {
      st::JoinCounter jc(8);
      for (int i = 0; i < 8; ++i) {
        st::fork([&jc] {
          st::poll();
          jc.finish();
        });
      }
      jc.join();
    });
  }
  EXPECT_EQ(monitor.stalls_detected(), 0u);
}

TEST(Monitor, PeriodicSnapshotsLint) {
  const std::string path = ::testing::TempDir() + "monitor_periodic.json";
  std::remove(path.c_str());

  stu::metrics_set_enabled(true);
  {
    st::RuntimeConfig cfg;
    cfg.workers = 2;
    cfg.stall_ms = 0;
    st::Runtime rt(cfg);

    st::MonitorConfig mc;
    mc.poll_ms = 5;
    mc.snapshot_period_ms = 20;
    mc.snapshot_path = path;
    mc.dump_to_stderr = false;
    st::Monitor monitor(rt, mc);

    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (monitor.snapshots_written() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      rt.run([] {
        st::JoinCounter jc(2);
        st::fork([&jc] { jc.finish(); });
        st::fork([&jc] { jc.finish(); });
        jc.join();
      });
    }
    EXPECT_GE(monitor.snapshots_written(), 1u);
  }
  stu::metrics_set_enabled(false);

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  std::string err;
  EXPECT_TRUE(stu::trace_json_lint(text, &err)) << err;
  EXPECT_NE(text.find("\"schema\":\"stmp-metrics-v1\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"runtime\""), std::string::npos);
  EXPECT_NE(text.find("\"sets\":{\"E\":"), std::string::npos);
}

TEST(Monitor, MetricsJsonLintsAndHasHistograms) {
  stu::metrics_set_enabled(true);
  st::RuntimeConfig cfg;
  cfg.workers = 2;
  cfg.stall_ms = 0;
  st::Runtime rt(cfg);
  rt.run([] {
    st::JoinCounter jc(4);
    for (int i = 0; i < 4; ++i) {
      st::fork([&jc] { jc.finish(); });
    }
    jc.join();
  });
  const std::string json = rt.metrics_json();
  stu::metrics_set_enabled(false);
  std::string err;
  EXPECT_TRUE(stu::trace_json_lint(json, &err)) << err << "\n" << json;
  EXPECT_NE(json.find("\"kind\":\"runtime\""), std::string::npos);
  EXPECT_NE(json.find("\"fork_deque_depth\""), std::string::npos);
  EXPECT_NE(json.find("\"steal_latency\""), std::string::npos);
  EXPECT_NE(json.find("\"suspend_to_restart\""), std::string::npos);
}

TEST(Monitor, DumpRuntimeStateListsAllWorkers) {
  st::RuntimeConfig cfg;
  cfg.workers = 3;
  cfg.stall_ms = 0;
  st::Runtime rt(cfg);
  const std::string dump = st::dump_runtime_state(rt);
  EXPECT_NE(dump.find("3 worker(s)"), std::string::npos) << dump;
  EXPECT_NE(dump.find("worker 0:"), std::string::npos);
  EXPECT_NE(dump.find("worker 2:"), std::string::npos);
  EXPECT_NE(dump.find("logical stack"), std::string::npos);
}

void fork_tree(int depth) {
  if (depth == 0) return;
  st::JoinCounter jc(2);
  for (int i = 0; i < 2; ++i) st::fork([&jc, depth] { fork_tree(depth - 1); jc.finish(); });
  jc.join();
}

// The counter table drives metrics_json: every ST_WORKER_COUNTERS row
// appears in "counters" under its key with the value stats() returned,
// and nothing else does.  The JSON renders between two stats() reads, so
// a late idle-path bump cannot make the test flaky.
TEST(CounterTable, RuntimeMetricsJsonCarriesEveryRow) {
  st::RuntimeConfig cfg;
  cfg.workers = 4;
  cfg.stall_ms = 0;
  st::Runtime rt(cfg);
  rt.run([] { fork_tree(12); });
  const st::RuntimeStats lo = rt.stats();
  const std::string json = rt.metrics_json();
  const st::RuntimeStats hi = rt.stats();
  const std::size_t begin = json.find("\"counters\":{"), end = json.find('}', begin);
  ASSERT_NE(begin, std::string::npos) << json;
  long rows = 0;
  auto expect_row = [&](const std::string& key, std::uint64_t low, std::uint64_t high) {
    ++rows;
    const std::size_t at = json.find('"' + key + "\":", begin);
    ASSERT_LT(at, end) << key << " missing from " << json;
    const std::uint64_t v = std::strtoull(json.c_str() + at + key.size() + 3, nullptr, 10);
    EXPECT_TRUE(v >= low && v <= high) << key << '=' << v << " outside " << low << ".." << high;
  };
#define EXPECT_ROW(field, key) expect_row(#key, lo.field, hi.field);
#define EXPECT_REGION_ROW(field, getter) expect_row(#field, lo.field, hi.field);
  ST_WORKER_COUNTERS(EXPECT_ROW, EXPECT_REGION_ROW)
#undef EXPECT_ROW
#undef EXPECT_REGION_ROW
  // One colon per row, plus the "counters" key's own.
  EXPECT_EQ(std::count(json.begin() + begin, json.begin() + end, ':'), rows + 1) << json;
  EXPECT_EQ(lo.forks, (1u << 13) - 2);
}

}  // namespace
