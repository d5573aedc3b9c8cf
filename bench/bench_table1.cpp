// Table 1 of the paper: comparison of fine-grain multithreading systems
// by multiprocessor support and compilation strategy, extended with the
// two artifacts this repository implements.  A run phase makes the
// "use standard compiler" rows concrete: STC-compiled sequential code
// executed under both STVM engines (switch and jit), timed via --json.
#include <cstdio>

#include "bench/harness.hpp"
#include "bench/stvm_engines.hpp"
#include "stvm/asm.hpp"
#include "stvm/stc.hpp"
#include "stvm/vm.hpp"

namespace {

// The paper's running example, in STC: a dumb, standard-conforming
// sequential compiler whose output the postprocessor/VM must tolerate.
const char* kStcFib = R"(
func fib(n) {
  if (n < 2) { return n; }
  var a;
  a = fib(n - 1);
  return a + fib(n - 2);
}
func main(n) { exit(fib(n)); }
)";

// Loop-heavy counterpart: naive codegen spills every temporary, so this
// stresses frame-slot loads and stores.
const char* kStcSum = R"(
func main(n) {
  var s = 0;
  var i = 0;
  while (i < n) {
    s = s + i * 3 - (i / 2);
    i = i + 1;
  }
  exit(s);
}
)";

stvm::PostprocResult compile(const char* src) {
  return stvm::postprocess(stvm::assemble(stvm::stc::compile_to_asm(src)));
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_json_flag(argc, argv, "table1");
  std::printf("Table 1: fine-grain multithreading systems "
              "(paper's survey + this reproduction)\n\n");
  stu::Table t({"Name", "MP", "compilation strategy"});
  t.add_row({"LTC [17]", "yes", "compile to native"});
  t.add_row({"MP-LTC [7]", "yes", "compile to native"});
  t.add_row({"Schematic [19]", "yes", "compile to C"});
  t.add_row({"Cilk [10]", "yes", "compile to C"});
  t.add_row({"Concert [20]", "yes", "compile to C"});
  t.add_row({"Lazy Threads [11]", "no", "compile to native"});
  t.add_row({"Olden [21]", "no", "compile to native"});
  t.add_row({"Old StackThreads [27]", "no", "use standard C compiler"});
  t.add_row({"StackThreads/MP (paper)", "yes", "use standard C compiler"});
  t.add_row({"this repo: stmp runtime", "yes", "standard C++ compiler + stacklets"});
  t.add_row({"this repo: STVM substrate", "yes", "standard toy compiler + postprocessor"});
  t.add_row({"this repo: cilkstyle baseline", "yes", "compile to C (heap frames)"});
  t.print();

  std::printf("\nThe 'standard toy compiler' row, timed: STC output through\n"
              "the postprocessor, run by both STVM engines:\n\n");
  const std::vector<bench::EngineCell> cells = {
      {"stc_fib(25)", compile(kStcFib), "main", {25}},
      {"stc_sum(400k)", compile(kStcSum), "main", {400000}},
  };
  if (!bench::compare_engines(cells)) return 1;
  if (!bench::json_finish("table1")) return 1;
  return 0;
}
