// lint.cpp — rule engine for rrp_lint (see lint.h for the contract).
//
// Implementation notes.  The scanner is a character-level state machine
// that blanks comments and literal contents while preserving line
// structure; every rule then works on the blanked "code view" (so a
// banned identifier inside a string or comment never fires) except
// include parsing, which reads the raw lines because quoted include
// paths are string literals.  Scope-sensitive rules (float accumulators
// in loops, virtual-without-override in derived classes) share a single
// statement-oriented pass that tracks brace depth, loop nesting and
// class kind — a deliberate heuristic, not a parser: it is precise on
// the idioms this codebase uses and cheap enough to run on every ctest.
#include "lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "callgraph.h"
#include "text_util.h"

namespace rrp::lint {

namespace {

constexpr std::size_t kNpos = std::string::npos;

/// scan_file call counter backing lex_count(): lint_tree_report promises
/// one lex per file, and the lint test asserts it.
std::size_t g_lex_count = 0;

// ---------------------------------------------------------------------------
// Module layering (R3).  Linear DAG, low rank = lower layer; a file may
// only include headers of rank <= its own.  Mirrors src/CMakeLists.txt.
// ---------------------------------------------------------------------------

const std::map<std::string, int>& module_ranks() {
  static const std::map<std::string, int> ranks = {
      {"util", 0}, {"nn", 1},  {"prune", 2},  {"core", 3},
      {"sim", 4},  {"serve", 5}, {"models", 6},
  };
  return ranks;
}

constexpr int kAppRank = 7;  // tools / bench / examples sit on top

/// Rank of the module a file belongs to, or -1 when outside the DAG.
int file_rank(const std::string& rel_path) {
  if (starts_with(rel_path, "tools/") || starts_with(rel_path, "bench/") ||
      starts_with(rel_path, "examples/"))
    return kAppRank;
  if (starts_with(rel_path, "src/")) {
    const std::size_t slash = rel_path.find('/', 4);
    if (slash == kNpos) return -1;
    const auto it = module_ranks().find(rel_path.substr(4, slash - 4));
    if (it != module_ranks().end()) return it->second;
  }
  return -1;
}

/// Rank of a quoted include target, or -1 when it names no module (a
/// sibling header like "bench_common.h" or "lint.h").
int include_rank(const std::string& inc_path) {
  const std::size_t slash = inc_path.find('/');
  if (slash == kNpos) return -1;
  const auto it = module_ranks().find(inc_path.substr(0, slash));
  return it != module_ranks().end() ? it->second : -1;
}

// ---------------------------------------------------------------------------
// Rule tables.
// ---------------------------------------------------------------------------

// R1a: ambient randomness / wall-clock time.  Call-form entries only fire
// when followed by '('; token-form entries fire on any delimited use.
const char* const kRandomCalls[] = {"rand",      "srand",     "time",
                                    "clock",     "gettimeofday", "localtime",
                                    "gmtime"};
const char* const kRandomTokens[] = {"random_device", "mt19937",
                                     "mt19937_64",    "default_random_engine",
                                     "minstd_rand",   "minstd_rand0",
                                     "system_clock"};
const char* const kRandomHeaders[] = {"random", "ctime", "time.h",
                                      "sys/time.h"};

// R1b: ad-hoc threading.  All std-qualified so that domain identifiers
// ("barrier", "latch") stay usable.
const char* const kThreadTokens[] = {
    "std::thread",          "std::jthread",
    "std::async",           "std::mutex",
    "std::recursive_mutex", "std::timed_mutex",
    "std::shared_mutex",    "std::condition_variable",
    "std::condition_variable_any",
    "std::counting_semaphore", "std::binary_semaphore",
    "std::barrier",         "std::latch"};
const char* const kThreadHeaders[] = {"thread",  "mutex",     "shared_mutex",
                                      "future",  "semaphore", "barrier",
                                      "latch",   "condition_variable",
                                      "stop_token"};

// R5: raw wall-clock access.  Everything time-shaped flows through the
// Timer facade (util/timer.h) or the trace layer's opt-in wall capture;
// a stray std::chrono read anywhere else silently breaks byte-identical
// replay, so the tokens are banned at the source level.  (system_clock is
// already covered by R1a; this closes the steady/high_resolution gap.)
const char* const kChronoTokens[] = {"std::chrono", "steady_clock",
                                     "high_resolution_clock"};
const char* const kChronoHeaders[] = {"chrono"};

// Whitelists, matched as rel-path prefixes.
//
// src/sim/faults.* is deliberately ABSENT from kRandomWhitelist: the
// fault-injection layer draws every event from the seeded rrp::Rng API, so
// the ambient-entropy rule (R1a) must keep applying to it.  A campaign that
// touched std::random_device / rand() / wall clocks would stop replaying
// byte-identically from its --seed.
const char* const kRandomWhitelist[] = {"src/util/rng.", "src/util/timer.h"};
// The deterministic pool itself, and util/log's line mutex.
const char* const kThreadWhitelist[] = {"src/util/thread_pool.",
                                        "src/util/log.cpp"};
// Timer facade, span tracer (optional wall capture) and pool (timed
// waits) may touch chrono; every other module uses Timer or modeled time.
// In particular core/flight_recorder.* and core/slo.* must stay OFF this
// list: incident bundles are byte-identical replay oracles, so a
// wall-clock timestamp in a record would break the determinism contract
// (DESIGN.md §8; enforced by test_rrp_lint.cpp's
// FlightRecorderStaysOffTheChronoWhitelist).  core/telemetry.* is off it
// too (its records carry modeled time only), and core/metrics_export.*
// and serve/obs.* are on NO whitelist at all — exposition and snapshots
// are pure functions of registry state.
const char* const kChronoWhitelist[] = {"src/util/timer.h", "src/util/trace.",
                                        "src/util/thread_pool."};

bool whitelisted(const std::string& rel_path, const char* const* list,
                 std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if (starts_with(rel_path, list[i])) return true;
  return false;
}

bool is_header(const std::string& rel_path) {
  return ends_with(rel_path, ".h") || ends_with(rel_path, ".hpp");
}

/// R2 applies to the deterministic reduction kernels only.  Any nn file
/// named *kernel* is covered too, so the micro-kernel TUs (gemm_kernels,
/// gemm_kernels_avx2, and future SIMD variants) inherit the accumulation
/// contract without a whitelist edit per file.
bool is_kernel_file(const std::string& rel_path) {
  if (!starts_with(rel_path, "src/nn/")) return false;
  return rel_path.find("gemm") != kNpos || rel_path.find("conv") != kNpos ||
         rel_path.find("depthwise") != kNpos ||
         rel_path.find("kernel") != kNpos;
}

// ---------------------------------------------------------------------------
// Suppressions: // rrp-lint-allow(<rule>): <reason>
// ---------------------------------------------------------------------------

struct Suppressions {
  /// (line, rule) pairs silenced; a comment on line N covers N and N+1.
  std::set<std::pair<int, std::string>> allowed;
  std::vector<Finding> bad;  ///< malformed or unknown-rule suppressions
};

Suppressions parse_suppressions(const std::string& rel_path,
                                const FileView& view) {
  static const std::string kMarker = "rrp-lint-allow(";
  const std::vector<std::string> rules = all_rule_ids();
  Suppressions out;
  for (std::size_t i = 0; i < view.comments.size(); ++i) {
    const std::string& c = view.comments[i];
    const int line = static_cast<int>(i) + 1;
    std::size_t pos = 0;
    while ((pos = c.find(kMarker, pos)) != kNpos) {
      pos += kMarker.size();
      const std::size_t close = c.find(')', pos);
      if (close == kNpos) {
        out.bad.push_back({rel_path, line, "bad-suppression",
                           "unterminated rrp-lint-allow(...)"});
        break;
      }
      const std::string rule = trim(c.substr(pos, close - pos));
      if (rule.find('<') != kNpos) {
        // "rrp-lint-allow(<rule>)" is documentation describing the
        // marker, not an actual suppression.
        pos = close;
        continue;
      }
      std::size_t after = skip_spaces(c, close + 1);
      std::string reason;
      if (after < c.size() && c[after] == ':')
        reason = trim(c.substr(after + 1));
      if (std::find(rules.begin(), rules.end(), rule) == rules.end()) {
        out.bad.push_back({rel_path, line, "bad-suppression",
                           "unknown rule '" + rule + "' in rrp-lint-allow"});
      } else if (reason.empty()) {
        out.bad.push_back(
            {rel_path, line, "bad-suppression",
             "rrp-lint-allow(" + rule +
                 ") needs a reason: // rrp-lint-allow(" + rule +
                 "): <why this exception is sound>"});
      } else {
        out.allowed.insert({line, rule});
        out.allowed.insert({line + 1, rule});
      }
      pos = close;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Scope-sensitive pass: float accumulators in loops (R2) and
// virtual-without-override in derived classes (R4a).
// ---------------------------------------------------------------------------

struct ScopeFindings {
  std::vector<Finding> findings;
};

void scope_pass(const std::string& rel_path, const FileView& view,
                ScopeFindings& out) {
  const bool kernel = is_kernel_file(rel_path);

  struct Candidate {
    std::string name;
    int decl_line;
    int loop_depth;   // loops open at declaration
    int brace_depth;  // for scope-based eviction
  };
  std::vector<Candidate> floats;

  // Brace stack entries: 'L' loop body, 'D' derived-class body, 'N' other.
  std::vector<char> braces;
  int pending_loops = 0;  // for/while seen, body brace (or statement) ahead
  int paren = 0;
  std::string stmt;        // code since the last '{', '}' or ';'
  int virtual_line = 0;    // line of the last 'virtual' token in stmt

  auto loop_depth = [&]() {
    return static_cast<int>(std::count(braces.begin(), braces.end(), 'L')) +
           pending_loops;
  };
  auto in_derived = [&]() { return !braces.empty() && braces.back() == 'D'; };

  auto end_statement = [&]() {
    if (in_derived() && virtual_line > 0 && has_token(stmt, "virtual") &&
        !has_token(stmt, "override") && !has_token(stmt, "final") &&
        stmt.find('~') == kNpos) {
      out.findings.push_back(
          {rel_path, virtual_line, "hygiene-override",
           "virtual member in a derived class: mark it 'override' (or "
           "'final'), or suppress if it introduces a new virtual"});
    }
    stmt.clear();
    virtual_line = 0;
  };

  for (std::size_t li = 0; li < view.code.size(); ++li) {
    const std::string& s = view.code[li];
    const int line = static_cast<int>(li) + 1;
    std::size_t i = 0;
    while (i < s.size()) {
      const char c = s[i];
      if (ident_char(c)) {
        std::size_t j = i;
        while (j < s.size() && ident_char(s[j])) ++j;
        const std::string tok = s.substr(i, j - i);
        if (tok == "for" || tok == "while") ++pending_loops;
        if (tok == "virtual") virtual_line = line;
        if (kernel && tok == "float") {
          // `float <id> =` declares a candidate accumulator (skip
          // pointers: `float* out = ...` is a buffer, not a scalar).
          std::size_t k = skip_spaces(s, j);
          if (k < s.size() && ident_char(s[k])) {
            std::size_t k2 = k;
            while (k2 < s.size() && ident_char(s[k2])) ++k2;
            const std::string name = s.substr(k, k2 - k);
            const std::size_t k3 = skip_spaces(s, k2);
            if (k3 < s.size() && s[k3] == '=' &&
                (k3 + 1 >= s.size() || s[k3 + 1] != '='))
              floats.push_back({name, line, loop_depth(),
                                static_cast<int>(braces.size())});
          }
        }
        if (kernel && j + 1 < s.size()) {
          const std::size_t k = skip_spaces(s, j);
          if (k + 1 < s.size() && s[k] == '+' && s[k + 1] == '=') {
            for (const Candidate& cand : floats) {
              if (cand.name == tok && loop_depth() > cand.loop_depth) {
                out.findings.push_back(
                    {rel_path, line, "float-accumulator",
                     "float accumulator '" + tok + "' (declared line " +
                         std::to_string(cand.decl_line) +
                         ") is accumulated inside a loop; use a double "
                         "accumulator and cast once (GEMM accumulation "
                         "contract, DESIGN.md invariant 9)"});
                break;
              }
            }
          }
        }
        stmt.append(tok);
        stmt.push_back(' ');
        i = j;
        continue;
      }
      switch (c) {
        case '(': ++paren; break;
        case ')': if (paren > 0) --paren; break;
        case '{': {
          char kind = 'N';
          if (pending_loops > 0) {
            kind = 'L';
            --pending_loops;
          } else if ((has_token(stmt, "class") || has_token(stmt, "struct")) &&
                     stmt.find(':') != kNpos &&
                     (has_token(stmt, "public") || has_token(stmt, "private") ||
                      has_token(stmt, "protected"))) {
            kind = 'D';
          }
          braces.push_back(kind);
          stmt.clear();
          virtual_line = 0;
          break;
        }
        case '}': {
          if (!braces.empty()) braces.pop_back();
          const int depth = static_cast<int>(braces.size());
          floats.erase(std::remove_if(floats.begin(), floats.end(),
                                      [&](const Candidate& cand) {
                                        return cand.brace_depth > depth;
                                      }),
                       floats.end());
          stmt.clear();
          virtual_line = 0;
          break;
        }
        case ';':
          if (paren == 0) {
            end_statement();
            if (pending_loops > 0) --pending_loops;  // brace-less loop body
          }
          break;
        default:
          stmt.push_back(c);
          break;
      }
      ++i;
    }
    stmt.push_back(' ');  // line break separates tokens
  }
}

// ---------------------------------------------------------------------------
// Include parsing (raw lines — quoted paths are string literals and would
// be blanked in the code view).
// ---------------------------------------------------------------------------

struct Include {
  int line;
  std::string path;
  bool angled;
};

std::vector<Include> parse_includes(const std::string& text) {
  std::vector<Include> out;
  std::istringstream is(text);
  std::string raw;
  int line = 0;
  while (std::getline(is, raw)) {
    ++line;
    std::size_t i = skip_spaces(raw, 0);
    if (i >= raw.size() || raw[i] != '#') continue;
    i = skip_spaces(raw, i + 1);
    if (raw.compare(i, 7, "include") != 0) continue;
    i = skip_spaces(raw, i + 7);
    if (i >= raw.size()) continue;
    const char open = raw[i];
    if (open != '"' && open != '<') continue;
    const char close = open == '"' ? '"' : '>';
    const std::size_t end = raw.find(close, i + 1);
    if (end == kNpos) continue;
    out.push_back({line, raw.substr(i + 1, end - i - 1), open == '<'});
  }
  return out;
}

bool in_list(const std::string& s, const char* const* list, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if (s == list[i]) return true;
  return false;
}

template <std::size_t N>
constexpr std::size_t len(const char* const (&)[N]) {
  return N;
}

}  // namespace

std::vector<std::string> all_rule_ids() {
  return {"determinism-random",      "determinism-thread",
          "determinism-chrono",      "float-accumulator",
          "layering",                "hygiene-override",
          "hygiene-using-namespace", "hygiene-logging",
          "frame-path-alloc",        "frame-path-lock",
          "frame-path-io",           "frame-path-throw",
          "frame-path-unresolved",   "frame-path-recursion",
          "bad-frame-path-marker",   "top-level-blob",
          "bad-suppression"};
}

std::size_t lex_count() { return g_lex_count; }
void reset_lex_count() { g_lex_count = 0; }

ParsedFile parse_source(const std::string& rel_path, const std::string& text) {
  ParsedFile pf;
  pf.rel_path = rel_path;
  pf.text = text;
  pf.view = scan_file(text);
  return pf;
}

FileView scan_file(const std::string& text) {
  ++g_lex_count;
  FileView view;
  std::string code, comment;
  enum class State { Code, LineComment, BlockComment, String, Char, Raw };
  State st = State::Code;
  std::string raw_delim;  // for R"delim( ... )delim"
  auto flush_line = [&]() {
    view.code.push_back(code);
    view.comments.push_back(comment);
    code.clear();
    comment.clear();
  };
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '\n') {
      if (st == State::LineComment) st = State::Code;
      flush_line();
      continue;
    }
    switch (st) {
      case State::Code:
        if (c == '/' && i + 1 < text.size() && text[i + 1] == '/') {
          st = State::LineComment;
          ++i;
          code += "  ";
        } else if (c == '/' && i + 1 < text.size() && text[i + 1] == '*') {
          st = State::BlockComment;
          ++i;
          code += "  ";
        } else if (c == '"') {
          // Raw string?  R"delim( was already consumed up to R when the
          // identifier pass saw it, so detect via the preceding char.
          if (i > 0 && text[i - 1] == 'R' &&
              (i < 2 || !ident_char(text[i - 2]))) {
            std::size_t p = i + 1;
            while (p < text.size() && text[p] != '(' && text[p] != '\n') ++p;
            if (p < text.size() && text[p] == '(') {
              raw_delim = ")" + text.substr(i + 1, p - i - 1) + "\"";
              st = State::Raw;
              code += '"';
              for (std::size_t q = i + 1; q <= p; ++q) code += ' ';
              i = p;
              break;
            }
          }
          st = State::String;
          code += '"';
        } else if (c == '\'') {
          st = State::Char;
          code += '\'';
        } else {
          code += c;
        }
        break;
      case State::LineComment:
        comment += c;
        code += ' ';
        break;
      case State::BlockComment:
        if (c == '*' && i + 1 < text.size() && text[i + 1] == '/') {
          st = State::Code;
          ++i;
          code += "  ";
        } else {
          comment += c;
          code += ' ';
        }
        break;
      case State::String:
        if (c == '\\' && i + 1 < text.size()) {
          ++i;
          code += "  ";
        } else if (c == '"') {
          st = State::Code;
          code += '"';
        } else {
          code += ' ';
        }
        break;
      case State::Char:
        if (c == '\\' && i + 1 < text.size()) {
          ++i;
          code += "  ";
        } else if (c == '\'') {
          st = State::Code;
          code += '\'';
        } else {
          code += ' ';
        }
        break;
      case State::Raw:
        if (text.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (std::size_t q = 0; q < raw_delim.size() - 1; ++q) code += ' ';
          code += '"';
          i += raw_delim.size() - 1;
          st = State::Code;
        } else {
          code += ' ';
        }
        break;
    }
  }
  flush_line();
  return view;
}

namespace {

/// All per-file rule findings for one parsed file, unsuppressed and
/// unsorted.  Shared by lint_file (single file) and lint_tree_report
/// (whole tree, one lex per file).
std::vector<Finding> per_file_findings(const ParsedFile& pf) {
  const std::string& rel_path = pf.rel_path;
  const FileView& view = pf.view;
  const std::string& text = pf.text;
  std::vector<Finding> raw;

  const bool random_ok =
      whitelisted(rel_path, kRandomWhitelist, len(kRandomWhitelist));
  const bool thread_ok =
      whitelisted(rel_path, kThreadWhitelist, len(kThreadWhitelist));
  const bool chrono_ok =
      whitelisted(rel_path, kChronoWhitelist, len(kChronoWhitelist));
  const bool logging_scope = starts_with(rel_path, "src/") &&
                             !starts_with(rel_path, "src/util/log.");
  const bool header = is_header(rel_path);
  const int rank = file_rank(rel_path);

  // Line-wise rules on the blanked code view.
  for (std::size_t li = 0; li < view.code.size(); ++li) {
    std::string s = view.code[li];
    const int line = static_cast<int>(li) + 1;

    if (!thread_ok) {
      // hardware_concurrency is a read-only query, not a thread spawn.
      std::size_t hc;
      while ((hc = s.find("std::thread::hardware_concurrency")) != kNpos)
        s.replace(hc, 33, std::string(33, ' '));
      for (std::size_t t = 0; t < len(kThreadTokens); ++t) {
        if (has_token(s, kThreadTokens[t])) {
          raw.push_back({rel_path, line, "determinism-thread",
                         std::string(kThreadTokens[t]) +
                             " outside src/util/thread_pool: all "
                             "parallelism goes through the deterministic "
                             "pool (DESIGN.md invariant 9)"});
          break;
        }
      }
    }
    if (!random_ok) {
      bool hit = false;
      for (std::size_t t = 0; !hit && t < len(kRandomCalls); ++t)
        hit = has_call(s, kRandomCalls[t]);
      for (std::size_t t = 0; !hit && t < len(kRandomTokens); ++t)
        hit = has_token(s, kRandomTokens[t]);
      if (!hit && has_argless_call(s, "now")) hit = true;
      if (hit)
        raw.push_back({rel_path, line, "determinism-random",
                       "ambient randomness or wall-clock time: use the "
                       "seeded rrp::Rng / util/timer instead (runs must be "
                       "bit-reproducible)"});
    }
    if (!chrono_ok) {
      for (std::size_t t = 0; t < len(kChronoTokens); ++t) {
        if (has_token(s, kChronoTokens[t])) {
          raw.push_back({rel_path, line, "determinism-chrono",
                         std::string(kChronoTokens[t]) +
                             " outside util/timer: clock reads go through "
                             "the Timer facade (or the trace layer's "
                             "opt-in wall capture) so modeled time stays "
                             "the only decision input (DESIGN.md "
                             "invariant 11)"});
          break;
        }
      }
    }
    if (header && has_token(s, "using") && has_token(s, "namespace") &&
        s.find("using") < s.find("namespace")) {
      raw.push_back({rel_path, line, "hygiene-using-namespace",
                     "'using namespace' in a header leaks into every "
                     "includer; qualify names instead"});
    }
    if (logging_scope) {
      if (has_token(s, "cout") || has_token(s, "cerr") ||
          has_call(s, "printf") || has_call(s, "fprintf") ||
          has_call(s, "puts")) {
        raw.push_back({rel_path, line, "hygiene-logging",
                       "direct stream/stdio output in library code: use "
                       "RRP_LOG_* (util/log) so lines stay atomic under "
                       "the thread pool"});
      }
    }
  }

  // Includes: layering DAG + banned headers.
  for (const Include& inc : parse_includes(text)) {
    if (inc.angled) {
      if (!thread_ok && in_list(inc.path, kThreadHeaders, len(kThreadHeaders)))
        raw.push_back({rel_path, inc.line, "determinism-thread",
                       "#include <" + inc.path +
                           "> outside src/util/thread_pool: all "
                           "parallelism goes through the deterministic "
                           "pool (DESIGN.md invariant 9)"});
      if (!random_ok && in_list(inc.path, kRandomHeaders, len(kRandomHeaders)))
        raw.push_back({rel_path, inc.line, "determinism-random",
                       "#include <" + inc.path +
                           ">: use the seeded rrp::Rng / util/timer "
                           "instead (runs must be bit-reproducible)"});
      if (!chrono_ok && in_list(inc.path, kChronoHeaders, len(kChronoHeaders)))
        raw.push_back({rel_path, inc.line, "determinism-chrono",
                       "#include <" + inc.path +
                           "> outside util/timer: clock reads go through "
                           "the Timer facade (DESIGN.md invariant 11)"});
      continue;
    }
    if (rank < 0) continue;
    const int inc_rank = include_rank(inc.path);
    if (inc_rank >= 0 && inc_rank > rank) {
      raw.push_back(
          {rel_path, inc.line, "layering",
           "\"" + inc.path + "\" is an upward include (module DAG: util -> "
           "nn -> prune -> core -> sim -> models -> tools/bench/examples)"});
    }
  }

  // Scope-sensitive rules.
  ScopeFindings scoped;
  scope_pass(rel_path, view, scoped);
  raw.insert(raw.end(), scoped.findings.begin(), scoped.findings.end());
  return raw;
}

/// Partitions `raw` into active / suppressed under `sup` (a comment on
/// line N covers findings on N and N+1, same rule).
void split_suppressed(std::vector<Finding> raw, const Suppressions& sup,
                      std::vector<Finding>* active,
                      std::vector<Finding>* suppressed) {
  for (Finding& f : raw) {
    if (sup.allowed.count({f.line, f.rule}) != 0)
      suppressed->push_back(std::move(f));
    else
      active->push_back(std::move(f));
  }
}

}  // namespace

std::vector<Finding> lint_file(const std::string& rel_path,
                               const std::string& text) {
  const ParsedFile pf = parse_source(rel_path, text);
  const Suppressions sup = parse_suppressions(rel_path, pf.view);
  std::vector<Finding> out, suppressed;
  split_suppressed(per_file_findings(pf), sup, &out, &suppressed);
  out.insert(out.end(), sup.bad.begin(), sup.bad.end());
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.line, a.rule) < std::tie(b.line, b.rule);
  });
  return out;
}

std::vector<Finding> check_top_level(const std::string& root) {
  namespace fs = std::filesystem;
  static const char* const kBinaryExt[] = {".rrpn", ".bin", ".pt",  ".pth",
                                           ".onnx", ".npz", ".npy", ".pkl",
                                           ".so",   ".o",   ".a"};
  std::vector<Finding> out;
  std::error_code ec;
  std::vector<fs::path> entries;
  for (const fs::directory_entry& e : fs::directory_iterator(root, ec))
    if (e.is_regular_file()) entries.push_back(e.path());
  std::sort(entries.begin(), entries.end());
  for (const fs::path& p : entries) {
    const std::string name = p.filename().string();
    const std::string ext = p.extension().string();
    bool binary = false;
    for (std::size_t i = 0; i < len(kBinaryExt); ++i)
      if (ext == kBinaryExt[i]) binary = true;
    if (!binary) {
      // Sniff: a NUL byte in the first 512 bytes means not-a-text-file.
      std::ifstream in(p, std::ios::binary);
      char buf[512];
      in.read(buf, sizeof buf);
      const std::streamsize got = in.gcount();
      for (std::streamsize i = 0; i < got; ++i)
        if (buf[i] == '\0') binary = true;
    }
    if (binary)
      out.push_back({name, 1, "top-level-blob",
                     "binary artifact at the repo top level; model caches "
                     "and other blobs belong in cache/ (gitignored, "
                     "auto-created by trained_cache)"});
  }
  return out;
}

LintReport lint_tree_report(const std::string& root,
                            std::vector<std::string> dirs) {
  namespace fs = std::filesystem;
  if (dirs.empty()) dirs = {"src", "tools", "bench", "examples"};

  std::vector<fs::path> files;
  for (const std::string& d : dirs) {
    const fs::path base = fs::path(root) / d;
    std::error_code ec;
    for (fs::recursive_directory_iterator it(base, ec), end; it != end;
         it.increment(ec)) {
      if (!it->is_regular_file()) continue;
      const std::string ext = it->path().extension().string();
      if (ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc")
        files.push_back(it->path());
    }
  }
  std::sort(files.begin(), files.end());

  // Lex each file exactly once; every rule (per-file, suppressions, and
  // the interprocedural frame-path pass) shares the parsed view.
  const std::size_t lex_before = lex_count();
  std::vector<ParsedFile> parsed;
  parsed.reserve(files.size());
  for (const fs::path& p : files) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    parsed.push_back(parse_source(
        fs::path(p).lexically_relative(root).generic_string(), ss.str()));
  }

  std::vector<Finding> raw;
  std::map<std::string, Suppressions> sup_by_file;
  for (const ParsedFile& pf : parsed) {
    const std::vector<Finding> file_raw = per_file_findings(pf);
    raw.insert(raw.end(), file_raw.begin(), file_raw.end());
    sup_by_file.emplace(pf.rel_path, parse_suppressions(pf.rel_path, pf.view));
  }

  FramePathStats fp;
  const std::vector<Finding> inter = frame_path_pass(parsed, &fp);
  raw.insert(raw.end(), inter.begin(), inter.end());

  LintReport report;
  report.files_scanned = parsed.size();
  report.lex_passes = lex_count() - lex_before;
  report.frame_path_roots = fp.roots;
  report.frame_path_reachable = fp.reachable;
  report.frame_path_stops = fp.stops;

  // One shared suppression mechanism: frame-path findings silence with
  // the same rrp-lint-allow(<rule>): <reason> markers as per-file ones.
  static const Suppressions kNone;
  for (Finding& f : raw) {
    const auto it = sup_by_file.find(f.file);
    const Suppressions& sup = it == sup_by_file.end() ? kNone : it->second;
    std::vector<Finding> one{std::move(f)};
    split_suppressed(std::move(one), sup, &report.findings,
                     &report.suppressed);
  }
  for (const auto& [rel, sup] : sup_by_file)
    report.findings.insert(report.findings.end(), sup.bad.begin(),
                           sup.bad.end());

  const std::vector<Finding> blobs = check_top_level(root);
  report.findings.insert(report.findings.end(), blobs.begin(), blobs.end());
  const auto by_loc = [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule) <
           std::tie(b.file, b.line, b.rule);
  };
  std::sort(report.findings.begin(), report.findings.end(), by_loc);
  std::sort(report.suppressed.begin(), report.suppressed.end(), by_loc);
  return report;
}

std::vector<Finding> lint_tree(const std::string& root,
                               std::vector<std::string> dirs) {
  return lint_tree_report(root, std::move(dirs)).findings;
}

std::string to_string(const Finding& f) {
  return f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
         f.message;
}

}  // namespace rrp::lint
