// metrics_lint <snapshot.json> -- CI gate for the metrics layer.
//
// Validates that a file produced via ST_METRICS is (a) well-formed JSON,
// (b) the stmp-metrics-v1 schema, and (c) structurally complete: a
// "sections" array whose runtime/stvm sections carry "counters",
// "per_worker" (with E/R/X set sizes) and "histograms" keys, and (d)
// every runtime section's counters satisfy the steal identity
// steal_attempts == steals_received + steals_rejected + steals_cancelled
// (each posted negotiation has exactly one outcome; exact once the
// runtime is quiescent, as in the at-exit snapshot).  Exit 0 on success;
// exit 1 with a diagnostic otherwise.  Used by the `metrics_smoke` ctests
// (cmake/metrics_smoke.cmake), by `metrics_lint_identity`
// (cmake/metrics_lint_identity.cmake), and usable by hand:
//
//   $ ST_METRICS=/tmp/m.json ./build/examples/quickstart 20
//   $ ./build/tools/metrics_lint /tmp/m.json
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "util/trace_export.hpp"

namespace {

int fail(const char* path, const char* what) {
  std::fprintf(stderr, "metrics_lint: %s: %s\n", path, what);
  return 1;
}

/// The flat "counters" object following `pos` (a section's "kind" key),
/// as key -> value.  Counter values are unsigned integers.
std::map<std::string, std::uint64_t> counters_after(const std::string& text,
                                                    std::size_t pos) {
  std::map<std::string, std::uint64_t> out;
  const std::string open = "\"counters\":{";
  std::size_t i = text.find(open, pos);
  if (i == std::string::npos) return out;
  const std::size_t close = text.find('}', i);
  for (i += open.size(); i < close;) {
    const std::size_t k0 = text.find('"', i);
    const std::size_t k1 = text.find('"', k0 + 1);
    if (k0 >= close || k1 >= close) break;
    out[text.substr(k0 + 1, k1 - k0 - 1)] =
        std::strtoull(text.c_str() + k1 + 2, nullptr, 10);
    i = text.find(',', k1);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: metrics_lint <snapshot.json>\n");
    return 2;
  }
  std::ifstream in(argv[1], std::ios::binary);
  if (!in) return fail(argv[1], "cannot open");
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  std::string err;
  if (!stu::trace_json_lint(text, &err)) {
    std::fprintf(stderr, "metrics_lint: %s: invalid JSON: %s\n", argv[1], err.c_str());
    return 1;
  }
  if (text.find("\"schema\":\"stmp-metrics-v1\"") == std::string::npos) {
    return fail(argv[1], "missing or wrong \"schema\" (want stmp-metrics-v1)");
  }
  if (text.find("\"wall_ns\":") == std::string::npos) {
    return fail(argv[1], "missing \"wall_ns\"");
  }
  if (text.find("\"sections\":[") == std::string::npos) {
    return fail(argv[1], "missing \"sections\" array");
  }
  // At least one subsystem must have rendered a section.
  const bool has_runtime = text.find("\"kind\":\"runtime\"") != std::string::npos;
  const bool has_stvm = text.find("\"kind\":\"stvm\"") != std::string::npos;
  if (!has_runtime && !has_stvm) {
    return fail(argv[1], "sections contain neither a runtime nor an stvm entry");
  }
  for (const char* key : {"\"counters\":{", "\"per_worker\":[", "\"histograms\":["}) {
    if (text.find(key) == std::string::npos) {
      std::fprintf(stderr, "metrics_lint: %s: section missing %s...}\n", argv[1], key);
      return 1;
    }
  }
  // E/R/X set sizes are part of the stable schema.
  if (text.find("\"sets\":{\"E\":") == std::string::npos) {
    return fail(argv[1], "per_worker entries missing \"sets\" (E/R/X)");
  }
  // Steal identity (docs/OBSERVABILITY.md): the thief counts each
  // attempt together with its outcome.
  std::size_t runtime_sections = 0;
  const std::string runtime_kind = "\"kind\":\"runtime\"";
  for (std::size_t pos = text.find(runtime_kind); pos != std::string::npos;
       pos = text.find(runtime_kind, pos + 1)) {
    ++runtime_sections;
    std::map<std::string, std::uint64_t> c = counters_after(text, pos);
    for (const char* key :
         {"steal_attempts", "steals_received", "steals_rejected", "steals_cancelled"}) {
      if (c.count(key) == 0) {
        std::fprintf(stderr, "metrics_lint: %s: runtime counters missing \"%s\"\n",
                     argv[1], key);
        return 1;
      }
    }
    if (c["steal_attempts"] !=
        c["steals_received"] + c["steals_rejected"] + c["steals_cancelled"]) {
      std::fprintf(stderr,
                   "metrics_lint: %s: steal identity broken in runtime section %zu: "
                   "steal_attempts=%llu != steals_received=%llu + "
                   "steals_rejected=%llu + steals_cancelled=%llu\n",
                   argv[1], runtime_sections,
                   static_cast<unsigned long long>(c["steal_attempts"]),
                   static_cast<unsigned long long>(c["steals_received"]),
                   static_cast<unsigned long long>(c["steals_rejected"]),
                   static_cast<unsigned long long>(c["steals_cancelled"]));
      return 1;
    }
  }
  std::printf("metrics_lint: %s ok (%zu bytes, %zu runtime sections)\n", argv[1],
              text.size(), runtime_sections);
  return 0;
}
