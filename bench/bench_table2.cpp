// Table 2 of the paper: machine settings for the parallel benchmarks.
// The paper used a Sun Ultra Enterprise 10000 (64 x 250 MHz, 8 GB); we
// report the reproduction host detected at runtime, then time the
// parallel STVM programs at a multi-worker setting under both STVM
// engines, switch and jit (--json for the CI artifact).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "bench/harness.hpp"
#include "bench/stvm_engines.hpp"
#include "stvm/asm.hpp"
#include "stvm/programs.hpp"
#include "stvm/vm.hpp"
#include "util/table.hpp"

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

long mem_total_mb() {
  std::ifstream in("/proc/meminfo");
  std::string key;
  long kb = 0;
  while (in >> key >> kb) {
    if (key == "MemTotal:") return kb / 1024;
    in.ignore(256, '\n');
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_json_flag(argc, argv, "table2");
  std::printf("Table 2: settings for parallel application benchmarks\n\n");
  stu::Table t({"Setting", "Paper (1999)", "This host"});
  t.add_row({"Machine", "Ultra Enterprise 10000 (Starfire)", "Linux container"});
  t.add_row({"CPU", "250MHz UltraSPARC, 1MB L2", cpu_model()});
  t.add_row({"Number of CPUs", "64",
             std::to_string(std::thread::hardware_concurrency())});
  t.add_row({"Memory", "8GB", std::to_string(mem_total_mb()) + "MB"});
  t.add_row({"Worker sweep", "1, 8, 32, 50", "see bench_fig22 (STMP_MAX_WORKERS)"});
  t.print();
  std::printf("\nNote: with fewer physical CPUs than the paper's 64, absolute\n"
              "speedups are not reproducible; Figure 22's *ratios* between the\n"
              "two runtimes are (see EXPERIMENTS.md).\n");

  // Run phase: the parallel benchmark programs at a multi-worker setting
  // (STVM workers are virtual -- deterministically round-robin stepped --
  // so both engines must retire identical instruction counts even with
  // stealing and migration in play).
  const unsigned workers =
      std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
  auto prog = [](const std::string& source) {
    using namespace stvm;
    return postprocess(assemble(source + "\n" + programs::stdlib()),
                       /*force_augment_all=*/false);
  };
  std::printf("\nParallel programs at workers=%u under both STVM "
              "engines:\n\n", workers);
  const std::vector<bench::EngineCell> cells = {
      {"pfib(21)/w" + std::to_string(workers), prog(stvm::programs::pfib()),
       "pmain", {21}, workers},
      {"psum(120k)/w" + std::to_string(workers), prog(stvm::programs::psum()),
       "psum_main", {120000}, workers},
  };
  if (!bench::compare_engines(cells)) return 1;
  if (!bench::json_finish("table2")) return 1;
  return 0;
}
