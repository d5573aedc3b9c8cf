// Shared "run phase" for the STVM benchmark suites: times the same
// postprocessed program under both execution engines (the portable
// switch interpreter and -- where the host supports it -- the baseline
// template JIT; DESIGN.md §5.13), asserts the architectural instruction
// counts match (native compilation must be invisible), and emits one
// --json cell per engine so CI artifacts track the JIT speedup over time.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "stvm/vm.hpp"

namespace bench {

struct EngineCell {
  std::string name;
  stvm::PostprocResult prog;
  const char* entry;
  std::vector<stvm::Word> args;
  unsigned workers = 1;
};

/// Best-of-reps() wall time of one engine on one cell.  The Vm is
/// constructed outside the timer: predecode and the JIT's template
/// emission are linear one-shot work, so the run phases measure steady
/// state execution.  `*jit`, when given, receives the run's native-code
/// counters (deterministic, so any rep's are every rep's).
inline double time_engine(const EngineCell& cell, stvm::VmConfig::Dispatch d,
                          std::uint64_t* instrs, stvm::Vm::JitCounters* jit = nullptr) {
  double best = 1e100;
  for (long r = 0; r < reps(); ++r) {
    stvm::VmConfig cfg;
    cfg.workers = cell.workers;
    cfg.dispatch = d;
    stvm::Vm vm(cell.prog, cfg);
    stu::WallTimer t;
    vm.run(cell.entry, cell.args);
    best = std::min(best, t.seconds());
    *instrs = vm.stats().instructions;
    if (jit != nullptr) *jit = vm.jit_counters();
  }
  return best;
}

/// Runs every cell under both engines, printing the comparison table,
/// the JIT's host visits per 1k retired instructions (how often native
/// code returned to the host: DESIGN.md §5.13) and the geomean speedup.
/// Returns false (after finishing the table) if any cell retired
/// different architectural instruction counts under the two engines --
/// the suites exit nonzero on that so CI fails loudly.
/// The JIT column only appears when this build/host can emit native
/// code (x86-64 Linux, see docs/OBSERVABILITY.md).
inline bool compare_engines(const std::vector<EngineCell>& cells) {
  const bool jit = stvm::Vm::jit_supported();
  json_writer().set_meta("engines", jit ? "switch,jit" : "switch");
  std::vector<std::string> cols = {"program", "switch (ms)"};
  if (jit) {
    cols.push_back("jit (ms)");
    cols.push_back("jit/sw");
  }
  cols.push_back(jit ? "Minstr/s (jit)" : "Minstr/s (switch)");
  if (jit) cols.push_back("host visits/1k (jit)");
  stu::Table table(cols);
  double geo = 1.0;
  int n = 0;
  bool ok = true;
  for (const auto& cell : cells) {
    std::uint64_t instrs_sw = 0, instrs_jit = 0;
    stvm::Vm::JitCounters counters;
    const double sw = time_engine(cell, stvm::VmConfig::Dispatch::kSwitch, &instrs_sw);
    const double jt =
        jit ? time_engine(cell, stvm::VmConfig::Dispatch::kJit, &instrs_jit, &counters) : 0.0;
    if (jit && instrs_sw != instrs_jit) {
      std::fprintf(stderr,
                   "FATAL: %s retired %llu instructions under switch dispatch "
                   "but %llu under jit dispatch\n",
                   cell.name.c_str(), static_cast<unsigned long long>(instrs_sw),
                   static_cast<unsigned long long>(instrs_jit));
      ok = false;
      continue;
    }
    json_record(cell.name + "/run/switch", sw, reps());
    if (jit) json_record(cell.name + "/run/jit", jt, reps());
    const double fast = jit ? jt : sw;
    std::vector<std::string> row = {cell.name, stu::Table::num(sw * 1e3, 3)};
    if (jit) {
      row.push_back(stu::Table::num(jt * 1e3, 3));
      row.push_back(stu::Table::num(sw / jt, 2));
      geo *= sw / jt;
    }
    row.push_back(stu::Table::num(static_cast<double>(instrs_sw) / fast / 1e6, 1));
    if (jit) {
      row.push_back(stu::Table::num(static_cast<double>(counters.host_visits) * 1e3 /
                                        static_cast<double>(instrs_jit),
                                    3));
    }
    table.add_row(row);
    ++n;
  }
  table.print();
  if (jit && n > 0) {
    std::printf("\ngeomean speedup (jit over switch): %.2fx\n", std::pow(geo, 1.0 / n));
  }
  return ok;
}

}  // namespace bench
