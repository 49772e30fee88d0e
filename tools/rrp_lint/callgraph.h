// callgraph.h — interprocedural frame-path safety analysis for rrp_lint
// (rules R6/R7, DESIGN.md invariant 14).
//
// The per-file rules in lint.cpp prove local properties; this pass proves
// a *global* one: every function reachable from an annotated frame-path
// root performs no heap allocation, no lock acquisition, no IO, no throw
// (R6) and no direct or mutual recursion (R7).  It is built from the same
// heuristic lexer as the rest of rrp_lint — a function-definition indexer
// and call-site extractor over the blanked code view, a project-wide call
// graph, BFS reachability from the roots, and Tarjan SCCs for recursion —
// deliberately not a compiler plugin.
//
// Annotation markers (parsed from comments; a marker is recognised only
// when it is the first token of the comment, so prose mentions like this
// one never bind):
//
//   marker "rrp-frame-path"            — the next function definition is a
//       frame-path root; everything it (transitively) calls is checked.
//       An optional ": note" may follow.
//   marker "rrp-frame-path-stop: why"  — the next function definition is a
//       documented traversal boundary: calls INTO it are allowed but its
//       body is not checked.  The reason is mandatory.
//
// A marker that dangles (no function definition follows), has an unknown
// suffix, duplicates another marker on the same definition, or is a stop
// without a reason is itself a finding (`bad-frame-path-marker`).
//
// Conservative treatment of dynamic dispatch: a call site `f(...)` edges
// to EVERY indexed definition named `f` (all overloads, all overriders of
// a virtual hook), so a virtual call through a provider interface checks
// every implementation unless one is explicitly stop-marked.  Calls that
// resolve to no indexed definition and match no safe-list entry — function
// pointers, member-function pointers, externals — produce a per-edge
// `frame-path-unresolved` diagnostic instead of silently passing.
//
// Constructors have no call token, so the body scan also flags local
// declarations of owning types (`std::vector<...>`, `std::string`,
// `Tensor`, `Shape`) in reachable bodies; references and pointers to
// them own nothing and pass.
//
// Known under-approximations (documented, deliberate): temporaries and
// copy-assignments of owning types (`out = Tensor(s);`) are not
// declarations and pass unseen, and the arguments of ALL-CAPS macro
// invocations (assert/log/span macros) are excluded from call extraction
// because their message arguments only evaluate on the failure path.
#pragma once

#include <string>
#include <vector>

#include "lint.h"

namespace rrp::lint {

/// Summary of what the frame-path pass saw (reported in --json and the
/// check.sh summary line so coverage shrinkage is visible in review).
struct FramePathStats {
  int roots = 0;      ///< function definitions marked rrp-frame-path
  int reachable = 0;  ///< definitions reachable from any root (incl. roots)
  int stops = 0;      ///< definitions marked rrp-frame-path-stop
  int defs = 0;       ///< total function definitions indexed
  int edges = 0;      ///< resolved call-graph edges
};

/// Runs the R6/R7 interprocedural pass over an already-parsed tree.
/// Findings are NOT suppression-filtered (lint_tree_report applies the
/// shared rrp-lint-allow mechanism afterwards, so frame-path findings
/// suppress exactly like per-file ones).
std::vector<Finding> frame_path_pass(const std::vector<ParsedFile>& files,
                                     FramePathStats* stats = nullptr);

}  // namespace rrp::lint
