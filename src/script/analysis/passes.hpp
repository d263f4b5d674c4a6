// IR analysis and optimization passes.
//
// Built on the worklist engine in dataflow.hpp, these passes give the
// analyzer flow-sensitive facts its AST walk cannot see:
//
//   constant propagation / folding    SA503 (constant conditions), branch
//                                     folding, and the groundwork for DCE
//   definite assignment               SA501 (no assignment reaches a use),
//                                     CheckDef elision for execution
//   liveness + DCE                    SA502 (dead stores)
//   reachability diff                 SA504 (code killed by constant
//                                     branches)
//   sensor taint                      the information-flow manifest and
//                                     SA505 (sensor-free output)
//
// OptimizeModule is semantics-preserving and its output is what phones
// execute; AnalyzeModule additionally derives diagnostics and the flow
// manifest from the optimized module. Loop bounds and cost are the AST
// walk's alone (analyzer.cpp, pass 4).
#pragma once

#include <string>
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

struct IrAnalysis {
  std::vector<Diagnostic> diagnostics;  // SA501..SA505
  FlowManifest flow;
};

// Optimizes `m` in place, then derives diagnostics and the information-flow
// manifest from the optimized module.
[[nodiscard]] IrAnalysis AnalyzeModule(ir::Module& m);

}  // namespace sor::script::analysis
