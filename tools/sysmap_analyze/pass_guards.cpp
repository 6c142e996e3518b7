#include "pass_guards.hpp"

#include <algorithm>
#include <optional>
#include <string_view>

namespace sysmap::lint {

namespace {

// Members/free functions that return raw signed-64 values in this codebase.
const std::set<std::string, std::less<>>& raw_returning() {
  static const std::set<std::string, std::less<>> fns = {
      "mu",          "value",       "to_int64",       "gcd_i64",
      "lcm_i64",     "add_checked", "sub_checked",    "mul_checked",
      "div_checked", "rem_checked", "neg_checked",    "abs_checked",
      "floor_div_checked"};
  return fns;
}

// Exact-scalar wrappers: constructing one of these absorbs a raw value into
// the checked/bignum discipline, so the call is not a raw operand.
const std::set<std::string, std::less<>>& wrapped_ctors() {
  static const std::set<std::string, std::less<>> w = {
      "T", "Q", "BigInt", "CheckedInt", "Rational", "CheckedRational",
      "Scalar"};
  return w;
}

bool is_narrow_int_type(const std::vector<std::string>& type_tokens) {
  // Narrower-than-64 signed integer spellings we refuse to cast into.
  static const std::set<std::string, std::less<>> narrow = {
      "int", "short", "char", "int8_t", "int16_t", "int32_t"};
  for (const std::string& t : type_tokens) {
    if (narrow.count(t)) return true;
  }
  return false;
}

/// The intraprocedural analyzer over one FileModel.
struct FileGuards {
  const FileModel& m;
  std::vector<Diagnostic>& out;

  void diag(std::size_t ci, std::string rule, std::string message) {
    Diagnostic d;
    d.file = m.path();
    d.line = m.tok(ci).line;
    d.col = m.tok(ci).col;
    d.pass = "guards";
    d.rule = std::move(rule);
    d.message = std::move(message);
    d.function = m.enclosing_function_name(ci);
    out.push_back(std::move(d));
  }

  // ---- operand classification ----------------------------------------------

  bool ident_is_raw_operand(std::size_t ci) const {
    const std::string& name = m.tok(ci).text;
    if (m.is_keyword(name)) return false;
    if (m.name_is_raw_at(ci, name)) return true;
    if (m.name_is_container_at(ci, name) && ci + 1 < m.ntok() &&
        (m.is_punct(ci + 1, "(") || m.is_punct(ci + 1, "["))) {
      return true;  // element access of a machine-int matrix/vector
    }
    // Member or free call returning a raw value: name(...)
    if (ci + 1 < m.ntok() && m.is_punct(ci + 1, "(") &&
        raw_returning().count(name)) {
      return true;
    }
    return false;
  }

  /// Rawness of a token range treated as one parenthesized expression.
  bool group_is_raw(std::size_t begin, std::size_t end) const {
    static const std::set<std::string, std::less<>> boolean_ops = {
        "<", ">", "<=", ">=", "==", "!=", "&&", "||", "?"};
    std::size_t depth = 0;
    bool has_raw = false;
    for (std::size_t ci = begin; ci < end; ++ci) {
      const Token& t = m.tok(ci);
      if (t.kind == TokenKind::kPunct) {
        if (t.text == "(" || t.text == "[") ++depth;
        if (t.text == ")" || t.text == "]") --depth;
        if (depth == 0 && boolean_ops.count(t.text)) {
          return false;  // comparison/conditional: result is not an int64
        }
      }
      if (t.kind == TokenKind::kIdentifier && ident_is_raw_operand(ci)) {
        has_raw = true;
      }
    }
    return has_raw;
  }

  /// Rawness of the operand ENDING at code index ci (inclusive).
  bool left_operand_is_raw(std::size_t ci) const {
    const Token& t = m.tok(ci);
    if (t.kind == TokenKind::kIdentifier) {
      return m.name_is_raw_at(ci, t.text) && !m.is_keyword(t.text);
    }
    if (t.kind == TokenKind::kNumber) return false;
    if (t.kind == TokenKind::kPunct && t.text == "]") {
      std::size_t open = m.match_open_back(ci, "[", "]");
      if (open == ci || open == 0) return false;
      const Token& base = m.tok(open - 1);
      return base.kind == TokenKind::kIdentifier &&
             (m.name_is_raw_at(open - 1, base.text) ||
              m.name_is_container_at(open - 1, base.text));
    }
    if (t.kind == TokenKind::kPunct && t.text == ")") {
      std::size_t open = m.match_open_back(ci, "(", ")");
      if (open == ci || open == 0) return false;
      const Token& before = m.tok(open - 1);
      if (before.kind == TokenKind::kIdentifier) {
        if (wrapped_ctors().count(before.text)) return false;
        if (raw_returning().count(before.text)) return true;
        if (m.name_is_container_at(open - 1, before.text)) return true;
        return false;  // unknown call: conservative
      }
      if (before.kind == TokenKind::kPunct && before.text == ">") {
        // Cast or template call: scan the <...> type list.
        std::size_t lt = m.match_open_back(open - 1, "<", ">");
        if (lt == open - 1 || lt == 0) return false;
        bool raw_type = false;
        for (std::size_t k = lt + 1; k + 1 < open; ++k) {
          if (match_raw_type(m, k) != 0 &&
              (k == lt + 1 || !m.is_punct(k - 1, "::"))) {
            raw_type = true;
          }
        }
        const Token& head = m.tok(lt - 1);
        if (head.kind == TokenKind::kIdentifier &&
            (head.text == "static_cast" || head.text == "const_cast" ||
             head.text == "reinterpret_cast")) {
          return raw_type;
        }
        return false;
      }
      // Plain parenthesized group.
      return group_is_raw(open + 1, ci);
    }
    return false;
  }

  /// Rawness of the operand STARTING at code index ci.
  bool right_operand_is_raw(std::size_t ci) const {
    const Token& t = m.tok(ci);
    if (t.kind == TokenKind::kIdentifier) {
      if (t.text == "static_cast" || t.text == "const_cast" ||
          t.text == "reinterpret_cast") {
        // static_cast<T>(x): raw iff T is a raw-64 type.
        std::size_t k = ci + 1;
        if (k < m.ntok() && m.is_punct(k, "<")) {
          for (std::size_t j = k + 1; j < m.ntok() && !m.is_punct(j, ">");
               ++j) {
            if (match_raw_type(m, j) != 0 && !m.is_punct(j - 1, "::")) {
              return true;
            }
          }
        }
        return false;
      }
      return ident_is_raw_operand(ci);
    }
    if (t.kind == TokenKind::kNumber) return false;
    if (t.kind == TokenKind::kPunct && t.text == "(") {
      std::size_t close = m.match_close(ci, "(", ")");
      return close < m.ntok() ? group_is_raw(ci + 1, close) : false;
    }
    return false;
  }

  // ---- the raw-arith scan --------------------------------------------------

  bool token_ends_operand(std::size_t ci) const {
    const Token& t = m.tok(ci);
    if (t.kind == TokenKind::kIdentifier) return !m.is_keyword(t.text);
    if (t.kind == TokenKind::kNumber) return true;
    return t.kind == TokenKind::kPunct && (t.text == ")" || t.text == "]");
  }

  bool token_starts_operand(std::size_t ci) const {
    const Token& t = m.tok(ci);
    if (t.kind == TokenKind::kIdentifier) {
      return !m.is_keyword(t.text) || t.text == "static_cast" ||
             t.text == "const_cast" || t.text == "reinterpret_cast";
    }
    if (t.kind == TokenKind::kNumber) return true;
    return t.kind == TokenKind::kPunct && t.text == "(";
  }

  void check_raw_arithmetic() {
    static const std::set<std::string, std::less<>> binary_ops = {"+", "-",
                                                                  "*"};
    static const std::set<std::string, std::less<>> compound_ops = {
        "+=", "-=", "*="};
    static const std::set<std::string, std::less<>> unary_prefix_before = {
        "(", "[", "{", ",", "=", "?", ":", ";", "+",  "-",  "*",  "/",
        "%", "<", ">", "<=", ">=", "==", "!=", "&&", "||", "<<", ">>",
        "+=", "-=", "*=", "/="};
    for (std::size_t ci = 1; ci + 1 < m.ntok(); ++ci) {
      const Token& t = m.tok(ci);
      if (t.kind != TokenKind::kPunct) continue;
      const bool is_binary_op = binary_ops.count(t.text) != 0;
      const bool is_compound_op = compound_ops.count(t.text) != 0;
      if (!is_binary_op && !is_compound_op) continue;
      if (m.enclosing_function_name(ci).empty()) continue;  // not in a body
      if (m.in_fastpath_function(ci)) continue;

      if (is_compound_op) {
        if (left_operand_is_raw(ci - 1) || right_operand_is_raw(ci + 1)) {
          diag(ci, "raw-arith",
               "raw int64 compound assignment '" + t.text +
                   "' outside a SYSMAP_RAW_FASTPATH function; route through "
                   "exact::CheckedInt or exact::*_checked");
        }
        continue;
      }

      const bool binary =
          token_ends_operand(ci - 1) && token_starts_operand(ci + 1);
      if (binary) {
        if (left_operand_is_raw(ci - 1) || right_operand_is_raw(ci + 1)) {
          diag(ci, "raw-arith",
               "raw int64 '" + t.text +
                   "' outside a SYSMAP_RAW_FASTPATH function; route through "
                   "exact::CheckedInt or exact::*_checked");
        }
        continue;
      }
      // Unary minus on a raw operand: -INT64_MIN is signed overflow.
      if (t.text == "-" && token_starts_operand(ci + 1)) {
        const Token& prev = m.tok(ci - 1);
        bool unary_context =
            (prev.kind == TokenKind::kPunct &&
             unary_prefix_before.count(prev.text)) ||
            (prev.kind == TokenKind::kIdentifier &&
             (prev.text == "return" || prev.text == "case"));
        if (unary_context && right_operand_is_raw(ci + 1)) {
          diag(ci, "raw-arith",
               "raw int64 negation outside a SYSMAP_RAW_FASTPATH function "
               "(overflows on INT64_MIN); use exact::neg_checked or "
               "exact::abs_checked");
        }
      }
    }
  }

  // ---- narrowing -----------------------------------------------------------

  bool narrowing_escaped(std::size_t line) const {
    return m.suppressed_at(line, AnnotationKind::kNarrowingOk);
  }

  void check_narrowing() {
    for (std::size_t ci = 0; ci + 3 < m.ntok(); ++ci) {
      if (m.in_fastpath_function(ci)) continue;
      // static_cast<narrow>(...)
      if (m.is_ident(ci, "static_cast") && m.is_punct(ci + 1, "<")) {
        std::vector<std::string> type_tokens;
        std::size_t j = ci + 2;
        while (j < m.ntok() && !m.is_punct(j, ">")) {
          type_tokens.push_back(m.tok(j).text);
          ++j;
        }
        if (is_narrow_int_type(type_tokens) &&
            !narrowing_escaped(m.tok(ci).line)) {
          diag(ci, "narrowing",
               "explicit cast to a sub-64-bit integer type in kernel code; "
               "widen instead, or mark the line SYSMAP_NARROWING_OK with a "
               "reason");
        }
        continue;
      }
      // C-style (int)x on an operand.
      if (m.is_punct(ci, "(") && m.is_ident(ci + 1, "int") &&
          m.is_punct(ci + 2, ")") && token_starts_operand(ci + 3) &&
          !narrowing_escaped(m.tok(ci).line)) {
        diag(ci, "narrowing",
             "C-style cast to int in kernel code; widen instead, or mark "
             "the line SYSMAP_NARROWING_OK with a reason");
        continue;
      }
      // int x = <expression containing a raw 64-bit operand>;
      if (m.is_ident(ci, "int") &&
          (ci == 0 || (!m.is_ident(ci - 1, "long") &&
                       !m.is_ident(ci - 1, "unsigned") &&
                       !m.is_ident(ci - 1, "short") &&
                       !m.is_punct(ci - 1, "<") && !m.is_punct(ci - 1, "::"))) &&
          m.tok(ci + 1).kind == TokenKind::kIdentifier &&
          !m.is_keyword(m.tok(ci + 1).text) && m.is_punct(ci + 2, "=")) {
        bool raw_init = false;
        std::size_t depth = 0;
        for (std::size_t j = ci + 3; j < m.ntok(); ++j) {
          if (m.is_punct(j, "(") || m.is_punct(j, "[")) ++depth;
          if (m.is_punct(j, ")") || m.is_punct(j, "]")) {
            if (depth == 0) break;
            --depth;
          }
          if (depth == 0 && m.is_punct(j, ";")) break;
          if (m.tok(j).kind == TokenKind::kIdentifier &&
              ident_is_raw_operand(j)) {
            raw_init = true;
          }
        }
        if (raw_init && !narrowing_escaped(m.tok(ci).line)) {
          diag(ci, "narrowing",
               "int variable initialized from a raw 64-bit expression in "
               "kernel code; keep the full width or mark the line "
               "SYSMAP_NARROWING_OK");
        }
      }
    }
  }
};

/// True when the identifier at ci heads a call expression `name(`, judged
/// by the token before it.  Conservative: declarations (`Type name(`) and
/// template-closed declarators (`vector<T> name(`) are excluded, so a
/// missed call can only under-report, never flag a clean tree.
bool is_call_head(const FileModel& m, std::size_t ci) {
  if (ci + 1 >= m.ntok() || !m.is_punct(ci + 1, "(")) return false;
  if (m.tok(ci).kind != TokenKind::kIdentifier) return false;
  if (m.is_keyword(m.tok(ci).text)) return false;
  for (const FunctionBody& f : m.functions()) {
    if (f.sig_start == ci) return false;  // this IS the definition
  }
  if (ci == 0) return false;
  const Token& prev = m.tok(ci - 1);
  if (prev.kind == TokenKind::kIdentifier) {
    return prev.text == "return" || prev.text == "case" ||
           prev.text == "co_return" || prev.text == "throw";
  }
  if (prev.kind != TokenKind::kPunct) return false;
  static const std::set<std::string, std::less<>> call_prefix = {
      "(", ",", "=",  "{",  ";",  "}",  "?",  ":",  "!",  "&&", "||",
      "+", "-", "*",  "/",  "%",  "<",  "<=", ">=", "==", "!=", ".",
      "->", "::", "[", "+=", "-=", "*=", "/=", "|", "^", "<<"};
  return call_prefix.count(prev.text) != 0;
}

}  // namespace

bool GuardsPass::kernel_surface(const std::string& path) {
  static const char* const needles[] = {
      "src/lattice",          "src/mapping",          "src/exact",
      "src/opt",              "src/search/ilp_formulation",
      "src/search/fixed_space", "src/search/space_optimal",
      "src/search/procedure51", "src/search/enumerate",
      "src/search/pipeline",
      "src/support/packed_coord",
      "src/systolic/simulator", "src/systolic/engine",
      "lint_fixtures"};
  for (const char* n : needles) {
    if (path.find(n) != std::string::npos) return true;
  }
  return false;
}

void GuardsPass::analyze(const FileModel& m, std::vector<Diagnostic>& out) {
  // Annotation grammar: validated wherever a marker appears.
  for (const Annotation& a : m.annotations()) {
    if (a.kind != AnnotationKind::kRawFastpath) continue;
    if (!a.well_formed) {
      Diagnostic d;
      d.file = m.path();
      d.line = a.line;
      d.col = a.col;
      d.pass = "guards";
      d.rule = "fastpath-annotation";
      d.message = a.error;
      out.push_back(std::move(d));
    } else if (!a.fallback_symbol.empty()) {
      pending_fallbacks_.push_back({m.path(), a.line, a.col,
                                    a.fallback_symbol});
    }
  }

  global_identifiers_.insert(m.identifiers().begin(), m.identifiers().end());

  if (kernel_surface(m.path())) {
    FileGuards fg{m, out};
    fg.check_raw_arithmetic();
    fg.check_narrowing();
  }

  // exact::with_fallback(...) argument ranges: calls inside one are guarded.
  std::vector<std::pair<std::size_t, std::size_t>> guarded_ranges;
  for (std::size_t ci = 0; ci + 1 < m.ntok(); ++ci) {
    if (m.is_ident(ci, "with_fallback") && m.is_punct(ci + 1, "(")) {
      std::size_t close = m.match_close(ci + 1, "(", ")");
      if (close < m.ntok()) guarded_ranges.emplace_back(ci + 1, close);
    }
  }

  // Function summaries: flags from the model, call edges from the body.
  for (const FunctionBody& f : m.functions()) {
    if (f.name == "<lambda>") continue;  // folded into the named enclosers
    FunctionSummary& s = summaries_[f.name];
    s.fastpath |= f.fastpath;
    s.bounded |= f.fastpath_bounded;
    s.fallback |= f.fastpath_fallback;
    if (!f.fallback_symbol.empty()) s.fallback_symbol = f.fallback_symbol;
    for (std::size_t ci = f.open; ci <= f.close && ci < m.ntok(); ++ci) {
      if (is_call_head(m, ci)) s.calls.insert(m.tok(ci).text);
    }
  }

  // Call sites, with the full enclosing chain for fallback propagation.
  for (std::size_t ci = 1; ci + 1 < m.ntok(); ++ci) {
    if (!is_call_head(m, ci)) continue;
    CallSite site;
    site.file = m.path();
    site.line = m.tok(ci).line;
    site.col = m.tok(ci).col;
    site.callee = m.tok(ci).text;
    site.caller = m.enclosing_function_name(ci);
    for (const auto& [b, e] : guarded_ranges) {
      if (b < ci && ci < e) site.in_with_fallback = true;
    }
    for (const FunctionBody& f : m.functions()) {
      if (f.open <= ci && ci <= f.close) {
        if (f.name != "<lambda>") site.enclosing.push_back(f.name);
        site.caller_fastpath_fallback |= f.fastpath && f.fastpath_fallback;
        site.caller_fastpath_bounded |= f.fastpath && f.fastpath_bounded;
      }
    }
    call_sites_.push_back(std::move(site));
  }
}

void GuardsPass::finalize(std::vector<Diagnostic>& out) {
  // Fallback symbols now resolve against the whole analyzed file set: a
  // fast path whose exact restart exists nowhere has nowhere to go on
  // overflow, no matter who calls it.
  for (const PendingFallback& p : pending_fallbacks_) {
    if (global_identifiers_.count(p.symbol)) continue;
    Diagnostic d;
    d.file = p.file;
    d.line = p.line;
    d.col = p.col;
    d.pass = "guards";
    d.rule = "fastpath-annotation";
    d.message = "SYSMAP_RAW_FASTPATH fallback symbol '" + p.symbol +
                "' does not appear in the analyzed file set";
    out.push_back(std::move(d));
  }

  // Guard propagation: reaches[f] = fallback symbols whose exact path is
  // invoked somewhere below f in the call graph.  A fixpoint over the
  // summary edges (the graph is small: one node per named function).
  std::set<std::string> fallback_symbols;
  for (const auto& [name, s] : summaries_) {
    if (s.fastpath && s.fallback && !s.fallback_symbol.empty()) {
      fallback_symbols.insert(s.fallback_symbol);
    }
  }
  std::map<std::string, std::set<std::string>> reaches;
  for (const auto& [name, s] : summaries_) {
    for (const std::string& callee : s.calls) {
      if (fallback_symbols.count(callee)) reaches[name].insert(callee);
    }
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (const auto& [name, s] : summaries_) {
      std::set<std::string>& r = reaches[name];
      const std::size_t before = r.size();
      for (const std::string& callee : s.calls) {
        auto it = reaches.find(callee);
        if (it != reaches.end()) r.insert(it->second.begin(), it->second.end());
      }
      changed |= r.size() != before;
    }
  }

  for (const CallSite& site : call_sites_) {
    auto it = summaries_.find(site.callee);
    if (it == summaries_.end()) continue;
    const FunctionSummary& callee = it->second;
    if (!callee.fastpath || !callee.fallback || callee.fallback_symbol.empty())
      continue;
    if (site.in_with_fallback) continue;
    if (site.caller_fastpath_fallback) continue;  // restart owed to *its* caller
    bool guarded = false;
    for (const std::string& encloser : site.enclosing) {
      auto rit = reaches.find(encloser);
      if (rit != reaches.end() && rit->second.count(callee.fallback_symbol)) {
        guarded = true;
        break;
      }
    }
    if (guarded) continue;
    Diagnostic d;
    d.file = site.file;
    d.line = site.line;
    d.col = site.col;
    d.pass = "guards";
    d.function = site.caller;
    if (site.caller_fastpath_bounded) {
      d.rule = "bounded-breach";
      d.message = "bounded fast path calls fallback-guarded fast path '" +
                  site.callee + "' but cannot reach its exact restart '" +
                  callee.fallback_symbol +
                  "'; a bounded: clause promises no overflow, so either "
                  "guard the call or tighten the bound argument";
    } else {
      d.rule = "unguarded-fastpath-call";
      d.message = "call to fallback-guarded fast path '" + site.callee +
                  "' from a context that reaches neither exact restart '" +
                  callee.fallback_symbol +
                  "' nor an exact::with_fallback frame; the overflow signal "
                  "would be dropped";
    }
    out.push_back(std::move(d));
  }
}

}  // namespace sysmap::lint
