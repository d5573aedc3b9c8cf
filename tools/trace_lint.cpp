// trace_lint <file.json> -- CI gate for the tracing layer.
//
// Validates that a file produced via ST_TRACE is (a) well-formed JSON,
// (b) a Chrome trace_event object with a non-empty "traceEvents" array,
// and (c) semantically coherent on the event level:
//   - every io-* duration event carries one of the six known names
//     (io-wait, io-ready, io-wake, io-timer, io-migrate, io-cancel);
//   - flow arrows pair up per (cat, id): the "s" start precedes any
//     "t"/"f" with the same id, no id starts twice, and a step/finish
//     without a start is an error.  A start without a finish is fine:
//     a ring may have dropped the tail of a negotiation, and the io
//     arrows ("io-wait" -> "io-ready") legitimately dangle when a run
//     exits with fds still parked.
//   - sched-decision / sched-access / sched-hb events (the kTraceSched
//     ride-alongs from util/sched_log.hpp) carry a "seq" arg that is
//     nonzero and unique across all three names (they share one Lamport
//     clock) and a "kind" arg consistent with the name: decisions are
//     the non-annotation SchedKinds, sched-access is kSchedAccess, and
//     sched-hb is kSchedHbRelease/kSchedHbAcquire.
//   - with a second argument naming a stmp-sched-v1 file
//     (ST_SCHED_RECORD output), every ride-along's (seq, kind) must
//     match a decision in the schedule log: the two streams are views of
//     one clock.
// Exit 0 on success; exit 1 with a diagnostic otherwise.  Used by the
// `trace_smoke` ctest (cmake/trace_smoke.cmake) and usable by hand:
//
//   $ ST_TRACE=/tmp/t.json ST_SCHED_RECORD=/tmp/t.sched ./build/examples/quickstart 20
//   $ ./build/tools/trace_lint /tmp/t.json /tmp/t.sched
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/sched_log.hpp"
#include "util/trace_export.hpp"

namespace {

// Extracts a string field ("key":"value") from one event object.  The
// exporter writes compact JSON with no whitespace around ':', and the
// file already passed the strict JSON lint, so plain substring search
// inside a single object is reliable.
bool field_string(const std::string& obj, const char* key, std::string* out) {
  const std::string needle = std::string("\"") + key + "\":\"";
  const std::size_t at = obj.find(needle);
  if (at == std::string::npos) return false;
  const std::size_t begin = at + needle.size();
  const std::size_t end = obj.find('"', begin);
  if (end == std::string::npos) return false;
  *out = obj.substr(begin, end - begin);
  return true;
}

// Extracts a numeric field ("key":123).
bool field_u64(const std::string& obj, const char* key, std::uint64_t* out) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = obj.find(needle);
  if (at == std::string::npos) return false;
  *out = std::strtoull(obj.c_str() + at + needle.size(), nullptr, 10);
  return true;
}

// Splits the traceEvents array into its top-level objects.  Quote-aware
// (strings may contain braces; '\' escapes) -- correctness is easy here
// because trace_json_lint already accepted the document.
std::vector<std::string> event_objects(const std::string& text) {
  std::vector<std::string> out;
  std::size_t at = text.find("\"traceEvents\"");
  if (at == std::string::npos) return out;
  at = text.find('[', at);
  if (at == std::string::npos) return out;
  int depth = 0;
  bool in_string = false;
  std::size_t start = 0;
  for (std::size_t i = at + 1; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') { in_string = true; continue; }
    if (c == '{') { if (depth++ == 0) start = i; continue; }
    if (c == '}') {
      if (--depth == 0) out.push_back(text.substr(start, i - start + 1));
      continue;
    }
    if (c == ']' && depth == 0) break;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2 && argc != 3) {
    std::fprintf(stderr, "usage: trace_lint <trace.json> [schedule.sched]\n");
    return 2;
  }
  // Optional cross-check target: seq -> SchedKind from the binary log.
  std::map<std::uint64_t, std::uint64_t> sched_file;
  bool have_sched_file = false;
  if (argc == 3) {
    std::vector<stu::SchedDecision> log;
    std::string serr;
    if (!stu::sched_read_file(argv[2], &log, &serr)) {
      std::fprintf(stderr, "trace_lint: %s: %s\n", argv[2], serr.c_str());
      return 1;
    }
    if (!stu::sched_lint(log, &serr)) {
      std::fprintf(stderr, "trace_lint: %s: %s\n", argv[2], serr.c_str());
      return 1;
    }
    for (const stu::SchedDecision& d : log) sched_file[d.seq] = d.kind;
    have_sched_file = true;
  }
  std::ifstream in(argv[1], std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "trace_lint: cannot open %s\n", argv[1]);
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  std::string err;
  if (!stu::trace_json_lint(text, &err)) {
    std::fprintf(stderr, "trace_lint: %s: invalid JSON: %s\n", argv[1], err.c_str());
    return 1;
  }
  if (text.find("\"traceEvents\"") == std::string::npos) {
    std::fprintf(stderr, "trace_lint: %s: no \"traceEvents\" key\n", argv[1]);
    return 1;
  }
  // A traced run must have recorded something beyond the metadata rows.
  if (text.find("\"ph\":\"X\"") == std::string::npos) {
    std::fprintf(stderr, "trace_lint: %s: traceEvents contains no event records\n", argv[1]);
    return 1;
  }

  const std::vector<std::string> events = event_objects(text);
  const std::set<std::string> kIoNames = {"io-wait",  "io-ready",   "io-wake",
                                          "io-timer", "io-migrate", "io-cancel"};
  // (cat, id) -> phase progress: 1 = started, 2 = finished.
  std::map<std::pair<std::string, std::uint64_t>, int> flows;
  std::set<std::uint64_t> sched_seqs;
  std::size_t n_io = 0, n_flow = 0, n_sched = 0;
  int bad = 0;
  auto fail = [&](const std::string& obj, const char* what) {
    std::fprintf(stderr, "trace_lint: %s: %s: %s\n", argv[1], what, obj.c_str());
    ++bad;
  };

  for (const std::string& obj : events) {
    std::string name, ph, cat;
    field_string(obj, "name", &name);
    field_string(obj, "ph", &ph);
    field_string(obj, "cat", &cat);

    if (ph == "X" && name.rfind("io-", 0) == 0) {
      ++n_io;
      if (!kIoNames.count(name)) fail(obj, "unknown io-* event name");
    }

    if (ph == "s" || ph == "t" || ph == "f") {
      ++n_flow;
      std::uint64_t id = 0;
      if (!field_u64(obj, "id", &id)) { fail(obj, "flow event without id"); continue; }
      auto key = std::make_pair(cat, id);
      auto it = flows.find(key);
      if (ph == "s") {
        if (it != flows.end()) fail(obj, "duplicate flow start for (cat,id)");
        else flows[key] = 1;
      } else {
        if (it == flows.end()) fail(obj, "flow step/finish without a start");
        else if (it->second == 2) fail(obj, "flow continues after finish");
        else if (ph == "f") it->second = 2;
      }
    }

    if (name == "sched-decision" || name == "sched-access" || name == "sched-hb") {
      ++n_sched;
      std::uint64_t seq = 0, kind = 0;
      if (!field_u64(obj, "seq", &seq) || seq == 0) {
        fail(obj, "sched event without a nonzero seq arg");
        continue;
      }
      if (!sched_seqs.insert(seq).second) fail(obj, "duplicate sched event seq");
      if (!field_u64(obj, "kind", &kind)) {
        fail(obj, "sched event without a kind arg");
        continue;
      }
      // The name partitions the SchedKind space (trace_export.cpp).
      if (name == "sched-access") {
        if (kind != stu::kSchedAccess) fail(obj, "sched-access with a non-access kind");
      } else if (name == "sched-hb") {
        if (kind != stu::kSchedHbRelease && kind != stu::kSchedHbAcquire) {
          fail(obj, "sched-hb with a non-hb kind");
        }
      } else if (kind == stu::kSchedAccess || kind == stu::kSchedHbRelease ||
                 kind == stu::kSchedHbAcquire) {
        // Annotation kinds are renamed by the exporter; a decision-named
        // event carrying one means the streams are out of sync.
        fail(obj, "sched-decision named event carries an annotation kind");
      }
      if (kind >= stu::kSchedKindCount) fail(obj, "sched event kind out of range");
      if (have_sched_file) {
        const auto it = sched_file.find(seq);
        if (it == sched_file.end()) {
          fail(obj, "sched event seq absent from the schedule file");
        } else if (it->second != kind) {
          fail(obj, "sched event kind disagrees with the schedule file");
        }
      }
    }
  }

  if (bad != 0) {
    std::fprintf(stderr, "trace_lint: %s: %d error(s)\n", argv[1], bad);
    return 1;
  }
  std::size_t dangling = 0;
  for (const auto& f : flows)
    if (f.second != 2) ++dangling;
  std::printf(
      "trace_lint: %s ok (%zu bytes, %zu events, %zu io, %zu flow arrows"
      " (%zu unfinished), %zu sched events%s)\n",
      argv[1], text.size(), events.size(), n_io, n_flow, dangling, n_sched,
      have_sched_file ? ", cross-checked" : "");
  return 0;
}
