// callgraph.cpp — interprocedural frame-path pass for rrp_lint (R6/R7).
//
// Three stages, all over the blanked code view shared with lint.cpp:
//
//  1. Index.  A brace/statement state machine (sibling of lint.cpp's
//     scope_pass) finds function definitions at namespace/class scope:
//     the statement preceding a body-opening '{' is accepted as a
//     definition header when its first top-level '(' is preceded by a
//     plain identifier and the statement tail after the last ')' is only
//     cv/ref/noexcept qualifiers or a trailing return.  Lambdas and local
//     structs inside a body are attributed to the enclosing definition.
//     While a definition's body is open the same walk extracts call
//     sites: an identifier followed by '(' that is not a keyword, not a
//     declaration (previous significant character is an identifier, '>',
//     or '*'), and not inside an ALL-CAPS macro invocation's argument
//     list.  Frame-path markers are parsed from comment lines and bound
//     to the next definition header.
//
//  2. Resolve.  Banned names (allocation, container growth, lock
//     acquisition) are findings at the call site; `std::`-qualified and
//     safe-listed names are accepted; every other name edges to ALL
//     indexed definitions with that simple name (conservative overload /
//     virtual-dispatch treatment) except stop-marked definitions and
//     definitions living in a boundary module (thread_pool, timer,
//     trace, metrics, log, checks — the sanctioned facades, documented
//     in DESIGN.md).  A name that matches nothing is an unresolved-callee
//     diagnostic, never a silent pass.
//
//  3. Check.  BFS from the root set marks the reachable subgraph; each
//     reachable body gets the R6 line scans (new/delete, local
//     declarations of owning types, lock guards, stdio/fstream/ostream
//     tokens, throw) and its banned/unresolved
//     call findings; Tarjan SCCs over the reachable subgraph yield the
//     R7 recursion findings (self-edge = direct, |SCC| > 1 = mutual).
#include "callgraph.h"

#include <algorithm>
#include <map>
#include <set>

#include "text_util.h"

namespace rrp::lint {

namespace {

// ---------------------------------------------------------------------------
// Vocabulary.
// ---------------------------------------------------------------------------

/// Keywords and keyword-like tokens that can precede '(' without being a
/// call we care about (control flow, casts, operators, builtins).
const std::set<std::string>& keyword_set() {
  static const std::set<std::string> kw = {
      "if",       "for",      "while",        "switch",   "catch",
      "return",   "sizeof",   "alignof",      "alignas",  "decltype",
      "noexcept", "throw",    "new",          "delete",   "do",
      "else",     "case",     "default",      "goto",     "operator",
      "this",     "typeid",   "static_assert","asm",      "co_await",
      "co_return","co_yield", "int",          "float",    "double",
      "char",     "bool",     "auto",         "void",     "long",
      "short",    "unsigned", "signed",       "const",    "constexpr",
      "static",   "inline",   "explicit",     "typename", "template",
      "using",    "namespace","struct",       "class",    "enum",
      "union",    "public",   "private",      "protected","virtual",
      "override", "final",    "try",          "defined"};
  return kw;
}

/// R6 allocation: names whose very call allocates (or frees) heap memory.
const std::set<std::string>& alloc_call_set() {
  static const std::set<std::string> s = {
      "malloc",      "calloc",      "realloc", "aligned_alloc",
      "free",        "strdup",      "make_unique", "make_shared",
      "operator_new"};
  return s;
}

/// R6 container growth: member calls that may reallocate the container.
const std::set<std::string>& growth_call_set() {
  static const std::set<std::string> s = {
      "push_back", "emplace_back", "push_front", "emplace_front",
      "resize",    "reserve",      "insert",     "emplace",
      "append",    "shrink_to_fit"};
  return s;
}

/// R6 lock acquisition: member calls on a mutex-like receiver.
const std::set<std::string>& lock_call_set() {
  static const std::set<std::string> s = {"lock", "try_lock", "lock_shared",
                                          "try_lock_shared"};
  return s;
}

/// Names accepted WITHOUT following any definition: libc/cmath helpers
/// and trivially-bounded accessor/lookup names that neither allocate,
/// block, nor do IO.  Checked BEFORE the definition index, so a call to
/// one of these names never creates an edge even when the project
/// defines a same-named function — the receiver-blind resolver would
/// otherwise conflate every `x.size()` / `m.find(k)` with every
/// project method of that name and invent cycles and reachability that
/// do not exist.  The cost is an under-approximation: a project
/// function that shadows one of these names (e.g. Network::find, which
/// allocates) is invisible to the traversal; DESIGN.md §7 documents
/// this, and such functions must not be given frame-path-hot names.
/// Everything else unmatched is an explicit frame-path-unresolved
/// diagnostic, so this list is the ONLY way an external call passes
/// silently — keep it boring.
const std::set<std::string>& safe_call_set() {
  static const std::set<std::string> s = {
      "memcpy",  "memset", "memmove",  "memcmp", "strcmp", "strlen",
      "abs",     "labs",   "llabs",    "fabs",   "fabsf",  "sqrt",
      "sqrtf",   "pow",    "exp",      "expf",   "log2",   "floor",
      "ceil",    "round",  "lround",   "lrint",  "isnan",  "isinf",
      "fmin",    "fmax",   "min",      "max",    "clamp",  "swap",
      "move",    "forward","size",     "empty",  "data",   "begin",
      "end",     "cbegin", "cend",     "front",  "back",   "get",
      "dim",     "raw",    "find",     "count",  "at",     "contains"};
  return s;
}

/// Boundary modules: sanctioned facades whose internals are certified by
/// their own tests and whitelists (thread_pool owns the only legitimate
/// locks; timer/trace/metrics/log/checks are the observability and
/// assert facades).  Edges INTO these files are accepted and traversal
/// stops; the list mirrors the per-file rule whitelists and is
/// documented in DESIGN.md §7.
const char* const kBoundaryPrefixes[] = {
    "src/util/thread_pool.", "src/util/timer.h", "src/util/trace.",
    "src/util/metrics.",     "src/util/log.",    "src/util/checks.h"};

bool boundary_file(const std::string& rel_path) {
  for (const char* p : kBoundaryPrefixes)
    if (starts_with(rel_path, p)) return true;
  return false;
}

/// ALL-CAPS identifier of length >= 3 — treated as a macro invocation
/// when followed by '(' (RRP_CHECK, RRP_SPAN_VAR, RRP_LOG_*, EXPECT_*).
bool macro_like(const std::string& tok) {
  if (tok.size() < 3) return false;
  bool has_alpha = false;
  for (char c : tok) {
    if (c >= 'a' && c <= 'z') return false;
    if (c >= 'A' && c <= 'Z') has_alpha = true;
  }
  return has_alpha;
}

// ---------------------------------------------------------------------------
// Index structures.
// ---------------------------------------------------------------------------

struct CallSite {
  int line = 0;
  std::string name;   ///< callee simple name
  bool member = false;     ///< preceded by '.' or '->'
  bool std_qual = false;   ///< qualifier chain starts at std::
  std::string receiver;    ///< `x` of `x.name(` / `x->name(`, else ""
};

struct FunctionDef {
  int file_index = -1;
  std::string name;       ///< simple name
  std::string qualifier;  ///< explicit Class:: or enclosing class, may be ""
  int header_line = 0;    ///< line where the definition statement starts
  int body_begin = 0;     ///< line of the body-opening '{'
  int body_end = 0;       ///< line of the matching '}'
  std::vector<CallSite> calls;
  int marker = 0;  ///< 0 none, 1 root, 2 stop
  std::string display;  ///< "Class::name" for messages
};

struct Marker {
  int line = 0;
  int kind = 0;  ///< 1 root, 2 stop
  bool bound = false;
};

/// Pretty name for findings.
std::string display_name(const FunctionDef& d) {
  return d.qualifier.empty() ? d.name : d.qualifier + "::" + d.name;
}

// ---------------------------------------------------------------------------
// Definition-header parsing.
// ---------------------------------------------------------------------------

/// Walks back from `pos` (exclusive) over spaces; returns the identifier
/// ending there, or "" if the preceding token is not an identifier.
std::string ident_before(const std::string& s, std::size_t pos) {
  std::size_t e = pos;
  while (e > 0 && (s[e - 1] == ' ' || s[e - 1] == '\t')) --e;
  std::size_t b = e;
  while (b > 0 && ident_char(s[b - 1])) --b;
  if (b == e) return "";
  return s.substr(b, e - b);
}

/// The plain identifier a member call at `pos` is made on — `x` in
/// `x.f(` or `x->f(` — or "" when the receiver is an expression or itself
/// a member (`a.x.f(`, `p->x.f(`, `N::x.f(`).
std::string receiver_before(const std::string& s, std::size_t pos) {
  auto skip_back = [&](std::size_t i) {
    while (i > 0 && (s[i - 1] == ' ' || s[i - 1] == '\t')) --i;
    return i;
  };
  // True when the text ending at `i` is a member/scope operator.
  auto accessor_at = [&](std::size_t i) {
    return i > 0 && (s[i - 1] == '.' || s[i - 1] == ':' ||
                     (i >= 2 && s[i - 1] == '>' && s[i - 2] == '-'));
  };
  std::size_t e = skip_back(pos);
  if (!accessor_at(e) || s[e - 1] == ':') return "";
  e = skip_back(e - (s[e - 1] == '.' ? 1 : 2));
  std::size_t b = e;
  while (b > 0 && ident_char(s[b - 1])) --b;
  if (b == e || accessor_at(skip_back(b))) return "";
  return s.substr(b, e - b);
}

/// Names declared with a std:: type in `text` — `std::T<...> x`,
/// `const std::T& x`, `std::T* x`, range-for `std::T x :` — i.e. the
/// parameters and locals whose member calls are standard-library calls.
std::set<std::string> std_typed_names(const std::string& text) {
  std::set<std::string> out;
  for (std::size_t pos = text.find("std::"); pos != kNposT;
       pos = text.find("std::", pos + 1)) {
    if (pos > 0 && (ident_char(text[pos - 1]) || text[pos - 1] == ':'))
      continue;
    std::size_t i = pos;
    while (i < text.size() && (ident_char(text[i]) || text[i] == ':')) ++i;
    i = skip_spaces(text, i);
    if (i < text.size() && text[i] == '<') {
      // A template argument list never spans a statement: `std::cout <<`
      // must not pair with a later `->`.
      int depth = 0;
      for (; i < text.size() && text[i] != ';' && text[i] != '{'; ++i) {
        if (text[i] == '<') ++depth;
        if (text[i] == '>' && --depth == 0) break;
      }
      if (i >= text.size() || text[i] != '>') continue;
      ++i;
    }
    for (;;) {
      i = skip_spaces(text, i);
      if (i < text.size() && (text[i] == '&' || text[i] == '*')) {
        ++i;
      } else if (text.compare(i, 5, "const") == 0 &&
                 (i + 5 >= text.size() || !ident_char(text[i + 5]))) {
        i += 5;
      } else {
        break;
      }
    }
    if (i >= text.size() || !(std::isalpha(static_cast<unsigned char>(
                                  text[i])) || text[i] == '_'))
      continue;
    const std::size_t b = i;
    while (i < text.size() && ident_char(text[i])) ++i;
    const std::size_t k = skip_spaces(text, i);
    if (k >= text.size() || std::string(";=({,):[").find(text[k]) != kNposT)
      out.insert(text.substr(b, i - b));
  }
  return out;
}

/// Accepts `stmt` (the statement text preceding a body-opening '{') as a
/// function definition header, extracting name and explicit qualifier.
/// Heuristic by design: precise on this codebase's idioms, and anything
/// it cannot parse is simply not indexed (an under-approximation that
/// surfaces as frame-path-unresolved at the call site, not as silence).
bool parse_def_header(const std::string& stmt, std::string* name,
                      std::string* qualifier) {
  const std::size_t paren = stmt.find('(');
  if (paren == kNposT) return false;
  // Reject headers that open with control flow or class-shaped keywords.
  const std::string head = stmt.substr(0, paren);
  for (const char* kw : {"if", "for", "while", "switch", "catch", "return"})
    if (has_token(head, kw)) return false;
  std::string n = ident_before(stmt, paren);
  if (n.empty() || keyword_set().count(n) || macro_like(n)) return false;
  // Optional explicit qualifier: Qual::name(.
  std::string q;
  std::size_t nb = paren;
  while (nb > 0 && (stmt[nb - 1] == ' ' || stmt[nb - 1] == '\t')) --nb;
  nb -= n.size();
  std::size_t qe = nb;
  while (qe > 0 && (stmt[qe - 1] == ' ' || stmt[qe - 1] == '\t')) --qe;
  if (qe >= 2 && stmt[qe - 1] == ':' && stmt[qe - 2] == ':')
    q = ident_before(stmt, qe - 2);
  // Tail after the LAST ')' must be qualifiers / ref / trailing return.
  const std::size_t close = stmt.rfind(')');
  if (close == kNposT) return false;
  std::string tail = trim(stmt.substr(close + 1));
  if (!tail.empty()) {
    if (starts_with(tail, "->")) {
      tail.clear();  // trailing return type: accept
    } else {
      // Consume allowed qualifier tokens.
      std::size_t i = 0;
      while (i < tail.size()) {
        i = skip_spaces(tail, i);
        if (i >= tail.size()) break;
        if (tail[i] == '&') { ++i; continue; }
        std::size_t j = i;
        while (j < tail.size() && ident_char(tail[j])) ++j;
        const std::string tok = tail.substr(i, j - i);
        if (tok == "const" || tok == "noexcept" || tok == "override" ||
            tok == "final" || tok == "mutable") {
          i = j;
          continue;
        }
        return false;  // '= default', 'try', initializer braces, ...
      }
    }
  }
  *name = n;
  *qualifier = q;
  return true;
}

/// Name of the class/struct opened by `stmt`, or "" (enum, anonymous).
std::string parse_class_name(const std::string& stmt) {
  for (const char* kw : {"class", "struct", "union"}) {
    std::size_t pos = 0;
    const std::string k = kw;
    while ((pos = stmt.find(k, pos)) != kNposT) {
      const bool l = pos == 0 || !ident_char(stmt[pos - 1]);
      const std::size_t e = pos + k.size();
      const bool r = e >= stmt.size() || !ident_char(stmt[e]);
      if (l && r) {
        std::size_t i = skip_spaces(stmt, e);
        std::size_t j = i;
        while (j < stmt.size() && ident_char(stmt[j])) ++j;
        if (j > i) return stmt.substr(i, j - i);
        return "";
      }
      pos = e;
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// Marker parsing.
// ---------------------------------------------------------------------------

const std::string kMarkerTok = "rrp-frame-path";

/// Extracts frame-path markers from comment lines.  Only a comment whose
/// first token IS the marker binds (prose mentions never do).  Malformed
/// markers are findings.
void parse_markers(const ParsedFile& pf, std::vector<Marker>* markers,
                   std::vector<Finding>* findings) {
  for (std::size_t li = 0; li < pf.view.comments.size(); ++li) {
    const std::string c = trim(pf.view.comments[li]);
    if (!starts_with(c, kMarkerTok)) continue;
    const int line = static_cast<int>(li) + 1;
    std::string rest = c.substr(kMarkerTok.size());
    if (starts_with(rest, "-stop")) {
      rest = rest.substr(5);
      if (!rest.empty() && (ident_char(rest[0]) || rest[0] == '-')) {
        findings->push_back({pf.rel_path, line, "bad-frame-path-marker",
                             "unknown frame-path marker suffix in '" + c +
                                 "' (expected rrp-frame-path or "
                                 "rrp-frame-path-stop: <reason>)"});
        continue;
      }
      const std::string reason =
          starts_with(trim(rest), ":") ? trim(trim(rest).substr(1)) : "";
      if (reason.empty()) {
        findings->push_back(
            {pf.rel_path, line, "bad-frame-path-marker",
             "rrp-frame-path-stop needs a reason: // rrp-frame-path-stop: "
             "<why this boundary is sound>"});
        continue;
      }
      markers->push_back({line, 2, false});
    } else if (!rest.empty() && (ident_char(rest[0]) || rest[0] == '-')) {
      findings->push_back({pf.rel_path, line, "bad-frame-path-marker",
                           "unknown frame-path marker suffix in '" + c +
                               "' (expected rrp-frame-path or "
                               "rrp-frame-path-stop: <reason>)"});
    } else {
      // Optional ": note" after the bare root marker is fine.
      markers->push_back({line, 1, false});
    }
  }
}

// ---------------------------------------------------------------------------
// Per-file indexing: definitions, call sites, indirect-call syntax.
// ---------------------------------------------------------------------------

struct FileIndex {
  std::vector<FunctionDef> defs;
  /// (def-local index, line, message) — fn-pointer / memfn-pointer sites.
  std::vector<Finding> marker_findings;
};

void index_file(const ParsedFile& pf, int file_index,
                std::vector<FunctionDef>* all_defs,
                std::vector<Finding>* findings) {
  std::vector<Marker> markers;
  parse_markers(pf, &markers, findings);

  struct Scope {
    char kind;  // 'N' namespace, 'C' class, 'F' function body, 'B' block
    std::string cls;  // class name when kind == 'C'
  };
  std::vector<Scope> scopes;

  const int first_def = static_cast<int>(all_defs->size());
  int active = -1;          // index into *all_defs of the open definition
  std::size_t fn_depth = 0; // scope depth at which the body was opened
  int paren = 0;            // paren depth inside the active function
  int macro_paren = -1;     // paren depth at ALL-CAPS macro entry, -1 idle
  char last_sig = 0;        // last significant (non-space) char seen
  char prev_sig = 0;        // the one before it (detects "->", "::")
  std::string prev_tok;     // last identifier token seen
  std::string stmt;         // statement text since last '{' '}' ';'
  int stmt_line = 0;        // line where stmt started

  auto enclosing_class = [&]() -> std::string {
    for (auto it = scopes.rbegin(); it != scopes.rend(); ++it)
      if (it->kind == 'C') return it->cls;
    return "";
  };

  for (std::size_t li = 0; li < pf.view.code.size(); ++li) {
    const std::string& s = pf.view.code[li];
    const int line = static_cast<int>(li) + 1;
    std::size_t i = 0;
    while (i < s.size()) {
      const char c = s[i];
      if (c == ' ' || c == '\t') {
        ++i;
        continue;
      }
      if (ident_char(c)) {
        std::size_t j = i;
        while (j < s.size() && ident_char(s[j])) ++j;
        const std::string tok = s.substr(i, j - i);
        if (active >= 0) {
          // Call-site extraction inside the open definition.
          const std::size_t k = skip_spaces(s, j);
          const bool calls_next = k < s.size() && s[k] == '(';
          if (calls_next && macro_paren < 0 && macro_like(tok)) {
            macro_paren = paren;  // skip the macro's argument list
          } else if (calls_next && macro_paren < 0 &&
                     !keyword_set().count(tok) && !macro_like(tok)) {
            const bool member =
                last_sig == '.' || (last_sig == '>' && prev_sig == '-');
            // Two identifiers in a row (`Foo bar(`) or a template /
            // pointer suffix (`vector<T> v(`, `T* v(`) is a declaration,
            // unless the previous token reads as an expression keyword.
            const bool decl_like =
                (ident_char(last_sig) &&
                 !(prev_tok == "return" || prev_tok == "else" ||
                   prev_tok == "do" || prev_tok == "case" ||
                   prev_tok == "co_return" || prev_tok == "new" ||
                   prev_tok == "throw")) ||
                (last_sig == '>' && prev_sig != '-') || last_sig == '*';
            if (!member && decl_like) {
              // declaration — not a call
            } else {
              bool std_qual = false;
              if (last_sig == ':' && prev_sig == ':') {
                // Walk the qualifier chain left: a::b::name(
                std::string lead, cur = tok;
                std::size_t back = i;
                const std::string& line_s = s;
                while (back >= 2 && line_s[back - 1] == ':' &&
                       line_s[back - 2] == ':') {
                  const std::string q = ident_before(line_s, back - 2);
                  if (q.empty()) break;
                  lead = q;
                  back -= 2 + q.size();
                  while (back > 0 && (line_s[back - 1] == ' ' ||
                                      line_s[back - 1] == '\t'))
                    --back;
                }
                std_qual = lead == "std";
              }
              (*all_defs)[active].calls.push_back(
                  {line, tok, member, std_qual,
                   member ? receiver_before(s, i) : std::string()});
            }
          }
        } else {
          // Statement accumulation for definition detection.
          if (stmt.empty()) stmt_line = line;
          stmt.append(tok);
          stmt.push_back(' ');
        }
        prev_sig = last_sig;
        last_sig = s[j - 1];
        prev_tok = tok;
        i = j;
        continue;
      }
      switch (c) {
        case '(':
          if (active >= 0) ++paren;
          if (active < 0) { if (stmt.empty()) stmt_line = line; stmt.push_back(c); }
          break;
        case ')':
          if (active >= 0) {
            if (paren > 0) --paren;
            if (macro_paren >= 0 && paren <= macro_paren) macro_paren = -1;
          }
          if (active < 0) stmt.push_back(c);
          break;
        case '{': {
          if (active >= 0) {
            scopes.push_back({'B', ""});
            break;
          }
          Scope sc{'B', ""};
          std::string name, qual;
          if (has_token(stmt, "namespace")) {
            sc.kind = 'N';
          } else if (parse_def_header(stmt, &name, &qual)) {
            sc.kind = 'F';
            FunctionDef d;
            d.file_index = file_index;
            d.name = name;
            d.qualifier = qual.empty() ? enclosing_class() : qual;
            d.header_line = stmt_line;
            d.body_begin = line;
            d.display = display_name(d);
            all_defs->push_back(d);
            active = static_cast<int>(all_defs->size()) - 1;
            fn_depth = scopes.size();
            paren = 0;
            macro_paren = -1;
          } else if (has_token(stmt, "class") || has_token(stmt, "struct") ||
                     has_token(stmt, "union") || has_token(stmt, "enum")) {
            sc.kind = 'C';
            sc.cls = parse_class_name(stmt);
          }
          scopes.push_back(sc);
          stmt.clear();
          break;
        }
        case '}': {
          if (!scopes.empty()) {
            const bool closing_fn =
                active >= 0 && scopes.size() == fn_depth + 1;
            scopes.pop_back();
            if (closing_fn) {
              (*all_defs)[active].body_end = line;
              active = -1;
            }
          }
          stmt.clear();
          break;
        }
        case ';':
          if (active < 0) stmt.clear();
          break;
        default:
          if (active < 0) {
            if (stmt.empty()) stmt_line = line;
            stmt.push_back(c);
          }
          break;
      }
      prev_sig = last_sig;
      last_sig = c;
      prev_tok.clear();
      ++i;
    }
  }
  // Unterminated definition at EOF (unbalanced braces): close it so the
  // body range stays sane.
  if (active >= 0 && (*all_defs)[active].body_end == 0)
    (*all_defs)[active].body_end = static_cast<int>(pf.view.code.size());

  // Bind markers to the next definition header.  A marker on line L binds
  // to the first definition whose header starts at/after L with only
  // blank code lines in between, or whose header region spans L
  // (trailing marker on the header line itself).
  for (Marker& m : markers) {
    int best = -1;
    for (int di = first_def; di < static_cast<int>(all_defs->size()); ++di) {
      const FunctionDef& d = (*all_defs)[di];
      if (d.body_begin < m.line) continue;
      if (d.header_line <= m.line) {
        best = di;  // marker sits inside the header region
        break;
      }
      bool blank_between = true;
      for (int l = m.line + 1; l < d.header_line; ++l) {
        const std::string& code = pf.view.code[static_cast<std::size_t>(l) - 1];
        if (!trim(code).empty()) {
          blank_between = false;
          break;
        }
      }
      if (blank_between) best = di;
      break;  // defs are in order; the first candidate decides
    }
    if (best < 0) {
      findings->push_back(
          {pf.rel_path, m.line, "bad-frame-path-marker",
           "dangling frame-path marker: no function definition follows"});
      continue;
    }
    FunctionDef& d = (*all_defs)[best];
    if (d.marker != 0) {
      findings->push_back({pf.rel_path, m.line, "bad-frame-path-marker",
                           "duplicate frame-path marker on '" + d.display +
                               "' (already marked)"});
      continue;
    }
    d.marker = m.kind;
  }
}

// ---------------------------------------------------------------------------
// R6 body line scans (reachable definitions only).
// ---------------------------------------------------------------------------

const char* const kLockTokens[] = {"lock_guard", "unique_lock", "scoped_lock",
                                   "shared_lock"};
// Stream objects share their names with ordinary identifiers (`cin` is
// also an input-channel count), so they count as IO only when qualified
// (`std::cout`) or used as a stream-operator operand (`cin >> x`); the
// stream types are unambiguous tokens.
const char* const kIoStreams[] = {"cout", "cerr", "cin", "clog"};
const char* const kIoTypes[] = {"ofstream", "ifstream", "fstream", "filebuf"};
const char* const kIoCalls[] = {"printf", "fprintf", "sprintf", "snprintf",
                                "fopen",  "fwrite",  "fread",   "fputs",
                                "fgets",  "puts",    "putchar", "fflush",
                                "fclose", "getline", "scanf",   "fscanf"};

/// True when `s` uses the stream object `tok` as `std::tok` or as
/// `tok << ...` / `tok >> ...`.
bool has_stream_use(const std::string& s, const std::string& tok) {
  for (std::size_t pos = s.find(tok); pos != kNposT;
       pos = s.find(tok, pos + 1)) {
    const std::size_t end = pos + tok.size();
    if ((pos > 0 && ident_char(s[pos - 1])) ||
        (end < s.size() && ident_char(s[end])))
      continue;
    if (pos >= 5 && s.compare(pos - 5, 5, "std::") == 0) return true;
    const std::size_t op = skip_spaces(s, end);
    if (s.compare(op, 2, "<<") == 0 || s.compare(op, 2, ">>") == 0)
      return true;
  }
  return false;
}

/// The body scan above owns the diagnostic for these names; the resolver
/// skips them so one printf is one frame-path-io finding, not an
/// additional frame-path-unresolved.
bool io_call_name(const std::string& name) {
  for (const char* t : kIoCalls)
    if (name == t) return true;
  return false;
}

/// Types whose constructor owns heap storage: a local of one of them
/// allocates without a call token the resolver could see.
const char* const kOwningTypes[] = {"std::vector", "std::string", "Tensor",
                                    "Shape"};

/// The owning type declared by a local declaration in `s` at or after
/// `from` — `T name`, `T name(...)`, `T name = ...`, `T name{...}`, with
/// std::vector's template arguments balanced on the line — or "".  A
/// reference or pointer (`T& r`, `const T* p`) owns nothing.
std::string owning_declaration(const std::string& s, std::size_t from) {
  for (const char* type : kOwningTypes) {
    const std::string t = type;
    for (std::size_t pos = s.find(t, from); pos != kNposT;
         pos = s.find(t, pos + 1)) {
      if (pos > 0 && ident_char(s[pos - 1])) continue;
      std::size_t i = pos + t.size();
      if (i < s.size() && ident_char(s[i])) continue;
      if (t == "std::vector") {
        i = skip_spaces(s, i);
        if (i >= s.size() || s[i] != '<') continue;
        int depth = 0;
        for (; i < s.size(); ++i) {
          if (s[i] == '<') ++depth;
          if (s[i] == '>' && --depth == 0) break;
        }
        if (i >= s.size()) continue;
        ++i;
      }
      i = skip_spaces(s, i);
      if (s.compare(i, 5, "const") == 0 &&
          (i + 5 >= s.size() || !ident_char(s[i + 5])))
        i = skip_spaces(s, i + 5);
      if (i >= s.size() || !(std::isalpha(static_cast<unsigned char>(s[i])) ||
                             s[i] == '_'))
        continue;  // &, *, ::, (, > — not a declaration of an owner
      while (i < s.size() && ident_char(s[i])) ++i;
      i = skip_spaces(s, i);
      if (i >= s.size() || std::string(";=({,):").find(s[i]) != kNposT)
        return t;
    }
  }
  return "";
}

void scan_body_lines(const ParsedFile& pf, const FunctionDef& d,
                     const std::string& via, std::vector<Finding>* out) {
  const std::string ctx = " in '" + d.display + "' (" + via + ")";
  for (int l = d.body_begin; l <= d.body_end; ++l) {
    const std::string& s = pf.view.code[static_cast<std::size_t>(l) - 1];
    // The body starts after the '{' that opens it; what precedes it on
    // that line is the header (return and parameter types).
    const std::size_t body_from =
        l == d.body_begin && s.find('{') != kNposT ? s.find('{') + 1 : 0;
    const std::string owner = owning_declaration(s, body_from);
    if (!owner.empty())
      out->push_back({pf.rel_path, l, "frame-path-alloc",
                      "local '" + owner + "' declaration" + ctx +
                          " constructs heap storage on the frame path: "
                          "preallocate at provision time (DESIGN.md "
                          "invariant 14)"});
    if (has_token(s, "new") || has_token(s, "delete"))
      out->push_back({pf.rel_path, l, "frame-path-alloc",
                      "heap allocation (new/delete) on the frame path" + ctx +
                          ": preallocate at provision time (DESIGN.md "
                          "invariant 14)"});
    for (const char* t : kLockTokens)
      if (has_token(s, t))
        out->push_back({pf.rel_path, l, "frame-path-lock",
                        std::string(t) + " acquires a lock on the frame "
                        "path" + ctx + ": only the deterministic pool may "
                        "block (DESIGN.md invariant 14)"});
    bool io = false;
    for (const char* t : kIoStreams) io = io || has_stream_use(s, t);
    for (const char* t : kIoTypes) io = io || has_token(s, t);
    for (const char* t : kIoCalls) io = io || has_call(s, t);
    if (io)
      out->push_back({pf.rel_path, l, "frame-path-io",
                      "IO on the frame path" + ctx +
                          ": record to the flight recorder / metrics "
                          "instead (DESIGN.md invariant 14)"});
    if (has_token(s, "throw"))
      out->push_back({pf.rel_path, l, "frame-path-throw",
                      "throw on the frame path" + ctx +
                          ": certified degrade paths return status, they "
                          "do not unwind (DESIGN.md invariant 14)"});
    // Indirect calls the resolver cannot see: member-function pointers
    // and explicit function-pointer dereference calls.
    if (s.find("->*") != kNposT)
      out->push_back({pf.rel_path, l, "frame-path-unresolved",
                      "member-function-pointer call" + ctx +
                          ": cannot be resolved statically — annotate the "
                          "target or suppress with a reason"});
    std::size_t dp = 0;
    while ((dp = s.find(".*", dp)) != kNposT) {
      const bool digit =
          dp > 0 && std::isdigit(static_cast<unsigned char>(s[dp - 1]));
      if (!digit) {
        out->push_back({pf.rel_path, l, "frame-path-unresolved",
                        "member-function-pointer call" + ctx +
                            ": cannot be resolved statically — annotate "
                            "the target or suppress with a reason"});
        break;
      }
      dp += 2;
    }
  }
}

// ---------------------------------------------------------------------------
// Tarjan SCC (iterative) over the reachable subgraph.
// ---------------------------------------------------------------------------

struct SccState {
  std::vector<int> index, lowlink;
  std::vector<bool> on_stack;
  std::vector<int> stack;
  std::vector<std::vector<int>> sccs;
  int counter = 0;
};

void tarjan(int v, const std::vector<std::vector<int>>& adj, SccState* st) {
  struct Frame {
    int v;
    std::size_t edge;
  };
  std::vector<Frame> work{{v, 0}};
  while (!work.empty()) {
    Frame& f = work.back();
    if (f.edge == 0) {
      st->index[f.v] = st->lowlink[f.v] = st->counter++;
      st->stack.push_back(f.v);
      st->on_stack[f.v] = true;
    }
    bool descended = false;
    while (f.edge < adj[f.v].size()) {
      const int w = adj[f.v][f.edge++];
      if (st->index[w] < 0) {
        work.push_back({w, 0});
        descended = true;
        break;
      }
      if (st->on_stack[w])
        st->lowlink[f.v] = std::min(st->lowlink[f.v], st->index[w]);
    }
    if (descended) continue;
    if (st->lowlink[f.v] == st->index[f.v]) {
      std::vector<int> scc;
      int w;
      do {
        w = st->stack.back();
        st->stack.pop_back();
        st->on_stack[w] = false;
        scc.push_back(w);
      } while (w != f.v);
      st->sccs.push_back(std::move(scc));
    }
    const int done = f.v;
    work.pop_back();
    if (!work.empty())
      st->lowlink[work.back().v] =
          std::min(st->lowlink[work.back().v], st->lowlink[done]);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// The pass.
// ---------------------------------------------------------------------------

std::vector<Finding> frame_path_pass(const std::vector<ParsedFile>& files,
                                     FramePathStats* stats) {
  std::vector<Finding> out;
  std::vector<FunctionDef> defs;
  for (std::size_t fi = 0; fi < files.size(); ++fi)
    index_file(files[fi], static_cast<int>(fi), &defs, &out);

  std::map<std::string, std::vector<int>> by_name;
  for (std::size_t di = 0; di < defs.size(); ++di)
    by_name[defs[di].name].push_back(static_cast<int>(di));

  // Resolve call sites into edges; classify banned / safe / unresolved.
  const int n = static_cast<int>(defs.size());
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  struct Pending {
    int def;
    Finding finding;
  };
  std::vector<Pending> pending;  // emitted only if the def is reachable
  int edge_count = 0;
  for (int di = 0; di < n; ++di) {
    const FunctionDef& d = defs[di];
    const ParsedFile& pf = files[static_cast<std::size_t>(d.file_index)];
    const std::string& rel = pf.rel_path;
    // Parameters and locals of std:: type, read off the whole definition
    // (header and body); the function's own name is not a variable.
    std::string text;
    for (int l = d.header_line; l <= d.body_end; ++l)
      text += pf.view.code[static_cast<std::size_t>(l) - 1] + ' ';
    std::set<std::string> std_receivers = std_typed_names(text);
    std_receivers.erase(d.name);
    for (const CallSite& c : d.calls) {
      if (growth_call_set().count(c.name)) {
        pending.push_back(
            {di,
             {rel, c.line, "frame-path-alloc",
              "container growth '" + c.name + "(...)'" + " in '" + d.display +
                  "' may reallocate on the frame path: preallocate at "
                  "provision time (DESIGN.md invariant 14)"}});
        continue;
      }
      if (alloc_call_set().count(c.name)) {
        pending.push_back(
            {di,
             {rel, c.line, "frame-path-alloc",
              "'" + c.name + "(...)' allocates in '" + d.display +
                  "' on the frame path (DESIGN.md invariant 14)"}});
        continue;
      }
      if (c.member && lock_call_set().count(c.name)) {
        pending.push_back(
            {di,
             {rel, c.line, "frame-path-lock",
              "'." + c.name + "()' acquires a lock in '" + d.display +
                  "' on the frame path: only the deterministic pool may "
                  "block (DESIGN.md invariant 14)"}});
        continue;
      }
      if (c.std_qual) continue;  // remaining std:: calls: accepted facade
      if (c.member && std_receivers.count(c.receiver))
        continue;  // a std:: container's or type's own method
      if (io_call_name(c.name)) continue;  // the body scan reports these
      if (safe_call_set().count(c.name)) continue;  // wins over the index
      if (starts_with(c.name, "__")) continue;   // compiler builtins
      if (starts_with(c.name, "_mm")) continue;  // SIMD intrinsics
                                                 // (_mm_/_mm256_/_mm512_)
      const auto it = by_name.find(c.name);
      if (it != by_name.end()) {
        for (int ti : it->second) {
          const FunctionDef& t = defs[static_cast<std::size_t>(ti)];
          if (t.marker == 2) continue;  // stop boundary: edge dropped
          if (ti == di && c.member)
            continue;  // `x.f()` inside f: delegation through another
                       // receiver object, not self-recursion (the
                       // receiver-blind resolver cannot tell x's class;
                       // genuine recursion is a free call and still
                       // caught)
          if (boundary_file(
                  files[static_cast<std::size_t>(t.file_index)].rel_path))
            continue;  // sanctioned facade module
          adj[static_cast<std::size_t>(di)].push_back(ti);
          ++edge_count;
        }
        continue;  // name resolved (even if every target was a boundary)
      }
      if (c.member) continue;  // unknown member on an unknown type: the
                               // receiver's class is outside the tree or
                               // an STL type; growth/lock names were
                               // already screened above
      pending.push_back(
          {di,
           {rel, c.line, "frame-path-unresolved",
            "cannot resolve callee '" + c.name + "' in '" + d.display +
                "': no definition indexed (function pointer, external, or "
                "unparsed) — annotate the target, stop-mark it, or "
                "suppress with a reason"}});
    }
  }

  // Reachability from roots.
  std::vector<int> reach_from(static_cast<std::size_t>(n), -1);
  std::vector<int> queue;
  for (int di = 0; di < n; ++di)
    if (defs[static_cast<std::size_t>(di)].marker == 1) {
      reach_from[static_cast<std::size_t>(di)] = di;
      queue.push_back(di);
    }
  for (std::size_t qi = 0; qi < queue.size(); ++qi) {
    const int v = queue[qi];
    for (int w : adj[static_cast<std::size_t>(v)])
      if (reach_from[static_cast<std::size_t>(w)] < 0) {
        reach_from[static_cast<std::size_t>(w)] =
            reach_from[static_cast<std::size_t>(v)];
        queue.push_back(w);
      }
  }

  // R6: body scans + pending call findings on the reachable set.
  for (int di = 0; di < n; ++di) {
    if (reach_from[static_cast<std::size_t>(di)] < 0) continue;
    const FunctionDef& d = defs[static_cast<std::size_t>(di)];
    const FunctionDef& root = defs[static_cast<std::size_t>(
        reach_from[static_cast<std::size_t>(di)])];
    const std::string via = di == reach_from[static_cast<std::size_t>(di)]
                                ? "frame-path root"
                                : "frame path via root '" + root.display + "'";
    scan_body_lines(files[static_cast<std::size_t>(d.file_index)], d, via,
                    &out);
  }
  for (const Pending& p : pending)
    if (reach_from[static_cast<std::size_t>(p.def)] >= 0)
      out.push_back(p.finding);

  // R7: recursion within the reachable subgraph.
  std::vector<std::vector<int>> radj(static_cast<std::size_t>(n));
  for (int di = 0; di < n; ++di) {
    if (reach_from[static_cast<std::size_t>(di)] < 0) continue;
    for (int w : adj[static_cast<std::size_t>(di)])
      if (reach_from[static_cast<std::size_t>(w)] >= 0)
        radj[static_cast<std::size_t>(di)].push_back(w);
  }
  SccState st;
  st.index.assign(static_cast<std::size_t>(n), -1);
  st.lowlink.assign(static_cast<std::size_t>(n), -1);
  st.on_stack.assign(static_cast<std::size_t>(n), false);
  for (int di = 0; di < n; ++di)
    if (reach_from[static_cast<std::size_t>(di)] >= 0 && st.index[di] < 0)
      tarjan(di, radj, &st);
  for (const std::vector<int>& scc : st.sccs) {
    if (scc.size() == 1) {
      const int v = scc[0];
      const auto& edges = radj[static_cast<std::size_t>(v)];
      if (std::find(edges.begin(), edges.end(), v) == edges.end()) continue;
      const FunctionDef& d = defs[static_cast<std::size_t>(v)];
      out.push_back(
          {files[static_cast<std::size_t>(d.file_index)].rel_path,
           d.header_line, "frame-path-recursion",
           "direct recursion: '" + d.display + "' calls itself on the "
           "frame path (unbounded stack/latency, DESIGN.md invariant 14)"});
      continue;
    }
    std::vector<std::string> names;
    for (int v : scc)
      names.push_back(defs[static_cast<std::size_t>(v)].display);
    std::sort(names.begin(), names.end());
    std::string cycle;
    for (const std::string& nm : names) {
      if (!cycle.empty()) cycle += ", ";
      cycle += nm;
    }
    for (int v : scc) {
      const FunctionDef& d = defs[static_cast<std::size_t>(v)];
      out.push_back(
          {files[static_cast<std::size_t>(d.file_index)].rel_path,
           d.header_line, "frame-path-recursion",
           "mutual recursion on the frame path: cycle {" + cycle +
               "} (unbounded stack/latency, DESIGN.md invariant 14)"});
    }
  }

  if (stats) {
    stats->defs = n;
    stats->edges = edge_count;
    for (int di = 0; di < n; ++di) {
      if (defs[static_cast<std::size_t>(di)].marker == 1) ++stats->roots;
      if (defs[static_cast<std::size_t>(di)].marker == 2) ++stats->stops;
      if (reach_from[static_cast<std::size_t>(di)] >= 0) ++stats->reachable;
    }
  }
  return out;
}

}  // namespace rrp::lint
