// IR analysis and optimization passes.
//
// Built on the worklist engine in dataflow.hpp, these passes give the
// analyzer flow-sensitive facts the PR 3 syntactic walk cannot see:
//
//   constant propagation / folding    SA503 (constant conditions), branch
//                                     folding, and the groundwork for DCE
//   definite assignment               SA501 (no assignment reaches a use),
//                                     CheckDef elision for execution
//   liveness + DCE                    SA502 (dead stores)
//   reachability diff                 SA504 (code killed by constant
//                                     branches)
//   interval analysis                 per-loop trip bounds that tighten
//                                     the syntactic cost/energy estimates
//   sensor taint                      the information-flow manifest and
//                                     SA505 (sensor-free output)
//
// OptimizeModule is semantics-preserving and its output is what phones
// execute; AnalyzeModule additionally derives diagnostics, trip bounds,
// and the flow manifest from the optimized module.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "script/analysis/diagnostics.hpp"
#include "script/analysis/flow_manifest.hpp"
#include "script/ir/ir.hpp"

namespace sor::script::analysis {

// Facts recorded while optimizing, for diagnostic synthesis.
struct OptimizeReport {
  struct FoldedBranch {
    int line = 0;
    bool value = false;      // condition constant-truthiness
    bool user_cond = false;  // came from a source if/while condition
    bool while_head = false; // the branch was a while-loop test
  };
  std::vector<FoldedBranch> folded_branches;

  struct NamedUse {
    int line = 0;
    std::string name;
  };
  std::vector<NamedUse> undef_uses;   // reachable uses no assignment reaches
  std::vector<NamedUse> dead_stores;  // pure user stores never read
  std::vector<int> unreachable_lines; // lines made unreachable by folding
};

// Semantics-preserving optimization pipeline: constant propagation and
// folding, constant-branch folding, definite-assignment CheckDef elision,
// and dead-code elimination. Observable behaviour (values, output, error
// text, steps) is untouched: deleted instructions hand their AST ticks on.
// With `report`, records the facts behind SA501-SA504.
void OptimizeModule(ir::Module& m, OptimizeReport* report = nullptr);

struct IrAnalysisOptions {
  // Samples assumed when an acquisition call's sample-count argument is not
  // a compile-time constant; mirrors AnalyzerOptions.
  int default_samples_per_window = 5;
};

// Loop identity as the cost pass sees it: (source line, kind) with kind
// 0 = while, 1 = numeric for.
using LoopKey = std::pair<int, int>;

struct IrAnalysis {
  std::vector<Diagnostic> diagnostics;  // SA501..SA505
  // Interval-derived upper bound on body executions per loop. Absent key =
  // the pass could not bound the loop (the syntactic estimate stands).
  std::map<LoopKey, double> trip_bounds;
  FlowManifest flow;
};

// Optimizes `m` in place, then derives diagnostics, trip bounds, and the
// information-flow manifest from the optimized module.
[[nodiscard]] IrAnalysis AnalyzeModule(ir::Module& m,
                                       const IrAnalysisOptions& opts = {});

}  // namespace sor::script::analysis
