#include "stvm/asm.hpp"

#include <cctype>
#include <sstream>
#include <unordered_map>

namespace stvm {

namespace {

struct Token {
  std::string text;
};

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::string cur;
  auto flush = [&] {
    if (!cur.empty()) {
      out.push_back(cur);
      cur.clear();
    }
  };
  for (char ch : line) {
    if (ch == ';') break;  // comment
    if (std::isspace(static_cast<unsigned char>(ch)) || ch == ',') {
      flush();
    } else if (ch == '[' || ch == ']' || ch == '+' || ch == ':') {
      flush();
      out.push_back(std::string(1, ch));
    } else {
      cur += ch;
    }
  }
  flush();
  return out;
}

int parse_reg(const std::string& t, int line) {
  if (t == "lr") return kLr;
  if (t == "sp") return kSp;
  if (t == "fp") return kFp;
  if (t.size() >= 2 && t[0] == 'r') {
    const int n = std::atoi(t.c_str() + 1);
    if (n >= 0 && n <= 11 && std::to_string(n) == t.substr(1)) return n;
  }
  throw AsmError(line, "expected register, got '" + t + "'");
}

Word parse_imm(const std::string& t, int line) {
  try {
    std::size_t used = 0;
    const long long v = std::stoll(t, &used, 0);
    if (used != t.size()) throw std::invalid_argument(t);
    return static_cast<Word>(v);
  } catch (...) {
    throw AsmError(line, "expected immediate, got '" + t + "'");
  }
}

/// Parses "[ reg ]", "[ reg + imm ]" or "[ reg + -imm ]" starting at
/// tokens[i]; returns (reg, disp) and advances i past the ']'.
std::pair<int, Word> parse_mem(const std::vector<std::string>& t, std::size_t& i, int line) {
  if (i >= t.size() || t[i] != "[") throw AsmError(line, "expected '['");
  ++i;
  if (i >= t.size()) throw AsmError(line, "unterminated memory operand");
  const int reg = parse_reg(t[i++], line);
  Word disp = 0;
  if (i < t.size() && (t[i] == "+" || t[i] == "-")) {
    const bool negate = (t[i] == "-");
    ++i;
    if (i >= t.size()) throw AsmError(line, "missing displacement");
    disp = parse_imm(t[i++], line);
    if (negate) disp = -disp;
  } else if (i < t.size() && t[i] != "]") {
    // "[fp -1]" without spaces around the sign.
    disp = parse_imm(t[i++], line);
  }
  if (i >= t.size() || t[i] != "]") throw AsmError(line, "expected ']'");
  ++i;
  return {reg, disp};
}

const std::unordered_map<std::string, Op>& mnemonic_map() {
  static const std::unordered_map<std::string, Op> map = {
      {"li", Op::kLi},       {"mov", Op::kMov},   {"add", Op::kAdd},
      {"sub", Op::kSub},     {"mul", Op::kMul},   {"div", Op::kDiv},
      {"addi", Op::kAddi},   {"subi", Op::kSubi}, {"ld", Op::kLd},
      {"st", Op::kSt},       {"call", Op::kCall}, {"callr", Op::kCallr},
      {"jmp", Op::kJmp},     {"jr", Op::kJr},     {"beq", Op::kBeq},
      {"bne", Op::kBne},     {"blt", Op::kBlt},   {"bge", Op::kBge},
      {"bltu", Op::kBltu},   {"bgeu", Op::kBgeu}, {"fetchadd", Op::kFetchAdd},
      {"getmaxe", Op::kGetMaxE},                  {"halt", Op::kHalt},
  };
  return map;
}

}  // namespace

Module assemble(const std::string& source) {
  Module m;
  std::istringstream in(source);
  std::string line;
  int line_no = 0;
  std::string open_proc;
  std::size_t open_proc_begin = 0;

  while (std::getline(in, line)) {
    ++line_no;
    auto t = tokenize(line);
    if (t.empty()) continue;

    // Directives.
    if (t[0] == ".proc") {
      if (t.size() != 2) throw AsmError(line_no, ".proc needs a name");
      if (!open_proc.empty()) throw AsmError(line_no, "nested .proc");
      open_proc = t[1];
      open_proc_begin = m.code.size();
      continue;
    }
    if (t[0] == ".endproc") {
      if (open_proc.empty()) throw AsmError(line_no, ".endproc without .proc");
      m.procs.push_back({open_proc, open_proc_begin, m.code.size()});
      open_proc.clear();
      continue;
    }

    // Labels (possibly followed by an instruction on the same line).
    std::size_t i = 0;
    while (i + 1 < t.size() && t[i + 1] == ":") {
      if (m.labels.count(t[i]) != 0) throw AsmError(line_no, "duplicate label " + t[i]);
      m.labels[t[i]] = m.code.size();
      i += 2;
    }
    if (i >= t.size()) continue;

    const auto& mnemonics = mnemonic_map();
    auto op_it = mnemonics.find(t[i]);
    if (op_it == mnemonics.end()) throw AsmError(line_no, "unknown mnemonic '" + t[i] + "'");
    ++i;
    Instr ins;
    ins.op = op_it->second;

    auto need = [&](const char* what) -> const std::string& {
      if (i >= t.size()) throw AsmError(line_no, std::string("missing operand: ") + what);
      return t[i];
    };

    switch (ins.op) {
      case Op::kLi:
        ins.rd = parse_reg(need("rd"), line_no);
        ++i;
        ins.imm = parse_imm(need("imm"), line_no);
        ++i;
        break;
      case Op::kMov:
        ins.rd = parse_reg(need("rd"), line_no);
        ++i;
        ins.ra = parse_reg(need("rs"), line_no);
        ++i;
        break;
      case Op::kAdd:
      case Op::kSub:
      case Op::kMul:
      case Op::kDiv:
        ins.rd = parse_reg(need("rd"), line_no);
        ++i;
        ins.ra = parse_reg(need("ra"), line_no);
        ++i;
        ins.rb = parse_reg(need("rb"), line_no);
        ++i;
        break;
      case Op::kAddi:
      case Op::kSubi:
        ins.rd = parse_reg(need("rd"), line_no);
        ++i;
        ins.ra = parse_reg(need("ra"), line_no);
        ++i;
        ins.imm = parse_imm(need("imm"), line_no);
        ++i;
        break;
      case Op::kLd: {
        ins.rd = parse_reg(need("rd"), line_no);
        ++i;
        auto [base, disp] = parse_mem(t, i, line_no);
        ins.ra = base;
        ins.imm = disp;
        break;
      }
      case Op::kSt: {
        ins.rd = parse_reg(need("rs"), line_no);
        ++i;
        auto [base, disp] = parse_mem(t, i, line_no);
        ins.ra = base;
        ins.imm = disp;
        break;
      }
      case Op::kFetchAdd: {
        ins.rd = parse_reg(need("rd"), line_no);
        ++i;
        auto [base, disp] = parse_mem(t, i, line_no);
        ins.ra = base;
        ins.imm = disp;
        ins.rb = parse_reg(need("rb"), line_no);
        ++i;
        break;
      }
      case Op::kCall:
      case Op::kJmp:
        ins.label = need("label");
        ++i;
        break;
      case Op::kCallr:
      case Op::kJr:
        ins.ra = parse_reg(need("ra"), line_no);
        ++i;
        break;
      case Op::kBeq:
      case Op::kBne:
      case Op::kBlt:
      case Op::kBge:
      case Op::kBltu:
      case Op::kBgeu:
        ins.ra = parse_reg(need("ra"), line_no);
        ++i;
        ins.rb = parse_reg(need("rb"), line_no);
        ++i;
        ins.label = need("label");
        ++i;
        break;
      case Op::kGetMaxE:
        ins.rd = parse_reg(need("rd"), line_no);
        ++i;
        break;
      case Op::kHalt:
        break;
    }
    if (i != t.size()) throw AsmError(line_no, "trailing operands on line");
    m.code.push_back(std::move(ins));
  }
  if (!open_proc.empty()) throw AsmError(line_no, "unterminated .proc " + open_proc);
  return m;
}

std::string disassemble(const Module& m) {
  // Reverse label map (allow multiple labels per address).
  std::unordered_map<std::size_t, std::vector<std::string>> labels_at;
  for (const auto& [name, idx] : m.labels) labels_at[idx].push_back(name);

  std::ostringstream out;
  for (std::size_t i = 0; i < m.code.size(); ++i) {
    if (auto it = labels_at.find(i); it != labels_at.end()) {
      for (const auto& l : it->second) out << l << ":\n";
    }
    const Instr& ins = m.code[i];
    out << "    " << op_name(ins.op);
    auto mem = [&] {
      out << " " << reg_name(ins.rd) << ", [" << reg_name(ins.ra);
      if (ins.imm != 0) out << " + " << ins.imm;
      out << "]";
    };
    switch (ins.op) {
      case Op::kLi: out << " " << reg_name(ins.rd) << ", " << ins.imm; break;
      case Op::kMov: out << " " << reg_name(ins.rd) << ", " << reg_name(ins.ra); break;
      case Op::kAdd:
      case Op::kSub:
      case Op::kMul:
      case Op::kDiv:
        out << " " << reg_name(ins.rd) << ", " << reg_name(ins.ra) << ", " << reg_name(ins.rb);
        break;
      case Op::kAddi:
      case Op::kSubi:
        out << " " << reg_name(ins.rd) << ", " << reg_name(ins.ra) << ", " << ins.imm;
        break;
      case Op::kLd:
      case Op::kSt: mem(); break;
      case Op::kFetchAdd: mem(); out << ", " << reg_name(ins.rb); break;
      case Op::kCall:
      case Op::kJmp: out << " " << ins.label; break;
      case Op::kCallr:
      case Op::kJr: out << " " << reg_name(ins.ra); break;
      case Op::kBeq:
      case Op::kBne:
      case Op::kBlt:
      case Op::kBge:
      case Op::kBltu:
      case Op::kBgeu:
        out << " " << reg_name(ins.ra) << ", " << reg_name(ins.rb) << ", " << ins.label;
        break;
      case Op::kGetMaxE: out << " " << reg_name(ins.rd); break;
      case Op::kHalt: break;
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace stvm
