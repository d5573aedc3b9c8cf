// lint_suspend_safety: a source lint for the TLS hazards of a
// runtime whose frames migrate between OS threads (docs/ANALYSIS.md,
// "Suspend safety").
//
// A StackThreads frame that crosses a suspension point may resume on a
// different OS thread, so anything resolved from thread-local storage
// before the switch is stale after it:
//
//   1. `errno` expands to `*__errno_location()`, and glibc declares the
//      location function __attribute__((const)) -- the compiler may
//      hoist one TLS resolve per frame and reuse it across the switch.
//      Rule: the `errno` token may only appear inside a function body
//      marked `noinline` (the per-call re-resolver idiom of
//      io/net.cpp); `__errno_location` may not appear at all.
//
//   2. A local cached from `tl_worker` names the pre-switch worker.
//      Rule: a name bound from `tl_worker` may not be used after a
//      suspension marker (`suspend(`, `st_ctx_swap(`, `wait_on_fd(`, or
//      an `io::` blocking op) in the same function body unless rebound
//      from `tl_worker` first.
//
//   3. Re-reading `tl_worker` is no cure inside the same function: the
//      compiler treats the thread pointer as fixed for a whole function
//      body and may reuse a TLS address computed before the switch (the
//      forked child's completion read its old thread's worker this way).
//      Rule: a body not marked `noinline` may not read `tl_worker` on
//      both sides of a migration point (`->invoke(`, `suspend(`,
//      `st_ctx_swap(`, `st_ctx_fork(`, `fork(`, `spawn(`, or a future's
//      `.get(`/`->get(`, which may suspend); the later read belongs in a
//      noinline function (runtime.cpp's complete_child, future.hpp's
//      cell_block_give).  `fork(` (plain or counted, `fork(jc, f)`) and
//      `spawn(` count because the fork's stack switch is inlined into
//      its caller, whose continuation may then resume on a thief.
//
// The scanner is a character-level pass: comments and string/char
// literals are stripped (newlines preserved), brace depth is tracked,
// and a function body is "noinline" when the header text since the
// previous `;`/`{`/`}` mentions the attribute.  This is a lint, not a
// parser -- it is tuned to this codebase's idiom and kept honest by the
// seeded snippets behind --self-test and by running clean over src/.
//
// Usage: lint_suspend_safety [--self-test] <file-or-dir>...
// Directories are scanned recursively for *.cpp / *.hpp.  Exit 0 when
// clean, 1 when any violation is printed (file:line: message).
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

struct Violation {
  std::string file;
  int line = 0;
  std::string message;
};

/// Replaces comments and string/char literal contents with spaces,
/// keeping every newline so line numbers survive.
std::string strip(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  enum { kCode, kLine, kBlock, kStr, kChr } st = kCode;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    const char n = i + 1 < in.size() ? in[i + 1] : '\0';
    switch (st) {
      case kCode:
        if (c == '/' && n == '/') { st = kLine; out += "  "; ++i; }
        else if (c == '/' && n == '*') { st = kBlock; out += "  "; ++i; }
        else if (c == '"') { st = kStr; out += ' '; }
        else if (c == '\'') { st = kChr; out += ' '; }
        else out += c;
        break;
      case kLine:
        if (c == '\n') { st = kCode; out += '\n'; } else out += ' ';
        break;
      case kBlock:
        if (c == '*' && n == '/') { st = kCode; out += "  "; ++i; }
        else out += c == '\n' ? '\n' : ' ';
        break;
      case kStr:
        if (c == '\\') { out += "  "; ++i; if (n == '\n') out.back() = '\n'; }
        else if (c == '"') { st = kCode; out += ' '; }
        else out += c == '\n' ? '\n' : ' ';
        break;
      case kChr:
        if (c == '\\') { out += "  "; ++i; }
        else if (c == '\'') { st = kCode; out += ' '; }
        else out += c == '\n' ? '\n' : ' ';
        break;
    }
  }
  return out;
}

bool ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

/// True when `text[pos..]` starts the whole identifier `word` (not a
/// substring of a longer identifier).
bool word_at(const std::string& text, std::size_t pos, const char* word) {
  const std::size_t len = std::strlen(word);
  if (text.compare(pos, len, word) != 0) return false;
  if (pos > 0 && ident_char(text[pos - 1])) return false;
  if (pos + len < text.size() && ident_char(text[pos + len])) return false;
  return true;
}

/// Skips whitespace forward from `pos`.
std::size_t skip_ws(const std::string& text, std::size_t pos) {
  while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) ++pos;
  return pos;
}

const char* const kSuspendMarkers[] = {
    "suspend", "st_ctx_swap", "wait_on_fd",
};

/// Calls after which the same function body may run on another OS
/// thread (rule 3); `invoke` and `get` count only as member calls.
const char* const kMigrationMarkers[] = {
    "suspend", "st_ctx_swap", "st_ctx_fork", "fork", "spawn", "invoke", "get",
};

/// Blocking io:: entry points (each suspends internally on would-block).
const char* const kIoMarkers[] = {
    "read", "write", "accept", "connect", "sleep_until", "sleep_for",
};

struct Region {
  bool noinline = false;    ///< this or an enclosing body is noinline
  bool function = false;    ///< opened by a function-like header
};

void scan(const std::string& file, const std::string& raw, std::vector<Violation>* out) {
  const std::string text = strip(raw);
  int line = 1;
  std::vector<Region> stack;
  std::string header;  // text since the last `;` / `{` / `}` at this level
  // Per function body.  For locals cached from tl_worker: name ->
  // (binding line, suspension epoch at binding); a use is a violation
  // when the epoch has moved on (a marker was crossed since the bind), a
  // rebind refreshes the epoch.  For rule 3: the migration count at the
  // body's first tl_worker read (-1: none yet).  A nested function-like
  // body (a lambda, e.g. the one handed to st::fork) gets a fresh state
  // and gives the enclosing body's back when it closes, so the fork the
  // lambda rides on still separates the reads around it.
  struct Bind { int line = 0; int epoch = 0; };
  struct FunctionState {
    std::map<std::string, Bind> cached;
    int first_read = -1;
    bool tls_flagged = false;
  };
  FunctionState fn;
  std::vector<FunctionState> enclosing;
  int epoch = 0;
  int migrations = 0;  // migration points crossed so far in the file

  const auto in_noinline = [&] {
    return !stack.empty() && stack.back().noinline;
  };
  const auto mark_suspended = [&] { ++epoch; };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '\n') { ++line; header += c; continue; }
    if (c == '{') {
      Region r;
      r.noinline = in_noinline() || header.find("noinline") != std::string::npos;
      // Function-like (gates where the cached-name map resets): the
      // header has a parameter list and is not a control-flow statement.
      // Namespaces/classes don't qualify, so bodies nested in them do.
      std::size_t w0 = skip_ws(header, 0);
      std::size_t w1 = w0;
      while (w1 < header.size() && ident_char(header[w1])) ++w1;
      const std::string first = header.substr(w0, w1 - w0);
      const bool control = first == "if" || first == "for" || first == "while" ||
                           first == "switch" || first == "catch" || first == "do" ||
                           first == "else";
      r.function = !control && header.find('(') != std::string::npos;
      if (r.function) enclosing.push_back(std::exchange(fn, FunctionState{}));
      stack.push_back(r);
      header.clear();
      continue;
    }
    if (c == '}') {
      if (!stack.empty()) {
        if (stack.back().function && !enclosing.empty()) {
          fn = std::move(enclosing.back());
          enclosing.pop_back();
        }
        stack.pop_back();
      }
      if (stack.empty()) fn = FunctionState{};
      header.clear();
      continue;
    }
    if (c == ';') { header.clear(); continue; }
    header += c;

    if (!ident_char(c) || (i > 0 && ident_char(text[i - 1]))) continue;
    // An identifier starts at i.
    if (word_at(text, i, "__errno_location")) {
      out->push_back({file, line,
                      "__errno_location must not be named directly; use a "
                      "noinline errno helper (see io/net.cpp)"});
      continue;
    }
    if (word_at(text, i, "errno")) {
      if (!in_noinline()) {
        out->push_back({file, line,
                        "raw errno in a non-noinline body: frames that may "
                        "suspend must go through a noinline errno helper"});
      }
      continue;
    }
    for (const char* m : kSuspendMarkers) {
      if (word_at(text, i, m)) {
        std::size_t j = skip_ws(text, i + std::strlen(m));
        if (j < text.size() && text[j] == '(') mark_suspended();
        break;
      }
    }
    for (const char* m : kMigrationMarkers) {
      if (word_at(text, i, m)) {
        const bool arrow = i >= 2 && text[i - 1] == '>' && text[i - 2] == '-';
        const bool member = arrow || (i >= 1 && text[i - 1] == '.');
        const bool needs_member = std::strcmp(m, "invoke") == 0 || std::strcmp(m, "get") == 0;
        std::size_t j = skip_ws(text, i + std::strlen(m));
        if (j < text.size() && text[j] == '(' && (!needs_member || member)) {
          ++migrations;
        }
        break;
      }
    }
    if (word_at(text, i, "io")) {
      std::size_t j = i + 2;
      if (j + 1 < text.size() && text[j] == ':' && text[j + 1] == ':') {
        j = skip_ws(text, j + 2);
        for (const char* m : kIoMarkers) {
          if (word_at(text, j, m)) { mark_suspended(); break; }
        }
      }
    }
    if (word_at(text, i, "tl_worker")) {
      // Rule 3: a read (not `tl_worker = ...`) in an inlinable body.
      std::size_t a = skip_ws(text, i + std::strlen("tl_worker"));
      const bool write = a + 1 < text.size() && text[a] == '=' && text[a + 1] != '=';
      if (!write && !in_noinline()) {
        if (fn.first_read < 0) {
          fn.first_read = migrations;
        } else if (migrations > fn.first_read && !fn.tls_flagged) {
          fn.tls_flagged = true;
          out->push_back({file, line,
                          "tl_worker read on both sides of a migration point "
                          "in a body that may be inlined: the TLS address may "
                          "be reused from before the switch; re-read it in a "
                          "noinline function"});
        }
      }
      // Is this a binding `name = tl_worker`?  Walk back over `=` to the
      // identifier being assigned.
      std::size_t b = i;
      while (b > 0 && std::isspace(static_cast<unsigned char>(text[b - 1]))) --b;
      if (b > 0 && text[b - 1] == '=') {
        --b;
        while (b > 0 && std::isspace(static_cast<unsigned char>(text[b - 1]))) --b;
        std::size_t e = b;
        while (b > 0 && ident_char(text[b - 1])) --b;
        if (e > b) fn.cached[text.substr(b, e - b)] = {line, epoch};
      }
      continue;
    }
    if (!fn.cached.empty()) {
      for (const auto& [name, bind] : fn.cached) {
        if (bind.epoch == epoch) continue;  // no marker crossed since bind
        if (!word_at(text, i, name.c_str())) continue;
        // A rebinding after the suspension point is the fix, not a bug
        // (it is caught by the tl_worker handler above; this arm only
        // fires for uses that are not part of `name = tl_worker`).
        std::size_t j = skip_ws(text, i + name.size());
        if (j < text.size() && text[j] == '=' &&
            (j + 1 >= text.size() || text[j + 1] != '=')) {
          std::size_t k = skip_ws(text, j + 1);
          if (word_at(text, k, "tl_worker")) break;
        }
        std::ostringstream msg;
        msg << "'" << name << "' was cached from tl_worker (line " << bind.line
            << ") and is used after a suspension point; rebind it from "
               "tl_worker after resuming (in a noinline function: rule 3)";
        out->push_back({file, line, msg.str()});
        break;
      }
    }
  }
}

bool lintable(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp";
}

int run_self_test() {
  struct Case {
    const char* name;
    const char* src;
    int want;  ///< expected violation count
  };
  const Case cases[] = {
      {"raw errno flagged",
       "int f() { if (bar() < 0) return errno; return 0; }\n", 1},
      {"errno in noinline helper ok",
       "__attribute__((noinline)) void set_errno(int e) noexcept { errno = e; }\n", 0},
      {"errno in comment/string ok",
       "// errno here\nint f() { const char* s = \"errno\"; return 0; }\n", 0},
      {"__errno_location always flagged",
       "__attribute__((noinline)) int* f() { return __errno_location(); }\n", 1},
      {"cached worker used after suspend",
       "void f(Continuation* c) { Worker* w = tl_worker; suspend(c, nullptr,\n"
       "  nullptr); w->trace(1, 2); }\n", 1},
      {"cached worker rebound after suspend: re-read in one body (rule 3)",
       "void f(Continuation* c) { Worker* w = tl_worker; suspend(c, nullptr,\n"
       "  nullptr); w = tl_worker; w->trace(1, 2); }\n", 1},
      {"cached worker before suspend ok",
       "void f(Continuation* c) { Worker* w = tl_worker; w->trace(1, 2);\n"
       "  suspend(c, nullptr, nullptr); }\n", 0},
      {"io op is a suspension point",
       "bool f(IoFd& h) { Worker* w = tl_worker; if (io::connect(h, a, l)\n"
       "  != 0) return false; return w != nullptr; }\n", 1},
      {"nested control flow keeps the noinline scope",
       "__attribute__((noinline)) int f() { if (g()) { return errno; }\n"
       "  return 0; }\n", 0},
      {"completion re-reads tl_worker after invoke in the entry body",
       "void child_entry(void* m, void* arg) {\n"
       "  auto* s = static_cast<Stacklet*>(arg);\n"
       "  Worker* w = tl_worker;\n"
       "  if (w->poll_word() & Worker::kPollServe) w->poll_slow();\n"
       "  s->invoke(s->closure);\n"
       "  Worker* done = tl_worker;\n"
       "  ++done->stats().tasks_completed;\n"
       "}\n", 1},
      {"completion split into a noinline function ok",
       "[[gnu::noinline]] void complete_child(Stacklet* s) {\n"
       "  Worker* w = tl_worker; ++w->stats().tasks_completed; }\n"
       "void child_entry(void* m, void* arg) {\n"
       "  auto* s = static_cast<Stacklet*>(arg);\n"
       "  Worker* w = tl_worker;\n"
       "  if (w->poll_word() & Worker::kPollServe) w->poll_slow();\n"
       "  s->invoke(s->closure);\n"
       "  complete_child(s);\n"
       "}\n", 0},
      {"future handle drop reads the cell cache on both sides of get()",
       "template <typename T> Future<T>::~Future() {\n"
       "  void* spare = tl_worker->cell_cache().take();\n"
       "  consume(cell_->get());\n"
       "  tl_worker->cell_cache().give(cell_);\n"
       "  tl_worker->cell_cache().give(spare);\n"
       "}\n", 1},
      {"future cell cache behind noinline helpers ok",
       "[[gnu::noinline]] void* cell_block_take() {\n"
       "  return tl_worker->cell_cache().take(); }\n"
       "[[gnu::noinline]] void cell_block_give(void* p) {\n"
       "  tl_worker->cell_cache().give(p); }\n"
       "template <typename T> Future<T>::~Future() {\n"
       "  void* spare = cell_block_take(); consume(cell_->get());\n"
       "  cell_block_give(cell_); cell_block_give(spare); }\n", 0},
      {"tl_worker read on both sides of an inlinable st::fork",
       "void parent(JoinCounter& jc) {\n"
       "  Worker* a = tl_worker; a->trace(1, 2);\n"
       "  st::fork([&jc] { jc.finish(); });\n"
       "  Worker* b = tl_worker; b->trace(3, 4);\n"
       "  jc.join();\n"
       "}\n", 1},
      {"tl_worker read on both sides of a counted st::fork",
       "void parent(JoinCounter& jc) {\n"
       "  Worker* a = tl_worker; a->trace(1, 2);\n"
       "  st::fork(jc, [] { work(); });\n"
       "  Worker* b = tl_worker; b->trace(3, 4);\n"
       "  jc.join();\n"
       "}\n", 1},
      {"tl_worker after st::fork behind a noinline helper ok",
       "[[gnu::noinline]] void trace_here(int ev) { tl_worker->trace(ev, 0); }\n"
       "void parent(JoinCounter& jc) {\n"
       "  Worker* a = tl_worker; a->trace(1, 2);\n"
       "  st::fork([&jc] { jc.finish(); });\n"
       "  trace_here(3);\n"
       "  jc.join();\n"
       "}\n", 0},
      {"tl_worker read on both sides of spawn",
       "long parent() {\n"
       "  void* p = tl_worker->cell_cache().take();\n"
       "  auto f = spawn([] { return 1L; });\n"
       "  tl_worker->cell_cache().give(p);\n"
       "  return 0;\n"
       "}\n", 1},
      {"a plain invoke( call is no migration point",
       "void f(Fn* fn) { Worker* a = tl_worker; invoke(fn); Worker* b =\n"
       "  tl_worker; (void)a; (void)b; }\n", 0},
      {"assigning tl_worker is not a read",
       "void loop(Worker* self) { tl_worker = self; st_ctx_swap(&a, b, c);\n"
       "  tl_worker = nullptr; }\n", 0},
      {"second function gets a fresh cache",
       "void f() { Worker* w = tl_worker; (void)w; }\n"
       "void g(Continuation* c) { suspend(c, nullptr, nullptr); use(); }\n", 0},
  };
  int failures = 0;
  for (const Case& t : cases) {
    std::vector<Violation> v;
    scan(t.name, t.src, &v);
    if (static_cast<int>(v.size()) != t.want) {
      std::fprintf(stderr, "self-test FAIL: %s: want %d violations, got %zu\n",
                   t.name, t.want, v.size());
      for (const Violation& x : v) {
        std::fprintf(stderr, "  %s:%d: %s\n", x.file.c_str(), x.line, x.message.c_str());
      }
      ++failures;
    }
  }
  if (failures == 0) std::printf("lint_suspend_safety: self-test ok (%zu cases)\n",
                                 sizeof(cases) / sizeof(cases[0]));
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> inputs;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--self-test") == 0) self_test = true;
    else inputs.push_back(argv[i]);
  }
  if (self_test) {
    const int rc = run_self_test();
    if (rc != 0 || inputs.empty()) return rc;
  }
  if (inputs.empty()) {
    std::fprintf(stderr, "usage: lint_suspend_safety [--self-test] <file-or-dir>...\n");
    return 2;
  }
  std::vector<std::filesystem::path> files;
  for (const std::string& in : inputs) {
    std::filesystem::path p(in);
    if (std::filesystem::is_directory(p)) {
      for (const auto& e : std::filesystem::recursive_directory_iterator(p)) {
        if (e.is_regular_file() && lintable(e.path())) files.push_back(e.path());
      }
    } else {
      files.push_back(p);
    }
  }
  std::sort(files.begin(), files.end());
  std::vector<Violation> violations;
  for (const auto& f : files) {
    std::ifstream s(f);
    if (!s) {
      std::fprintf(stderr, "lint_suspend_safety: cannot read %s\n", f.c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << s.rdbuf();
    scan(f.string(), buf.str(), &violations);
  }
  for (const Violation& v : violations) {
    std::printf("%s:%d: %s\n", v.file.c_str(), v.line, v.message.c_str());
  }
  if (violations.empty()) {
    std::printf("lint_suspend_safety: %zu files clean\n", files.size());
    return 0;
  }
  std::printf("lint_suspend_safety: %zu violations\n", violations.size());
  return 1;
}
