// SenseScript static analyzer.
//
// Walks a parsed Program (no execution) and produces the diagnostics
// catalogued in diagnostics.hpp plus a ScriptManifest describing what the
// script needs from a device. Four passes share one walk where possible:
//
//   1. scope & flow   — undefined names, use-before-assignment, shadowing,
//                       dead code after return/break, break placement,
//                       host-function shadowing, call-before-definition
//   2. types          — abstract interpretation over the nil/bool/number/
//                       string/list lattice; operator and host-signature
//                       argument mismatches
//   3. capability     — acquisition calls resolved against the host API
//                       table; required-sensor manifest; unknown functions;
//                       sensors absent from the target device
//   4. cost           — static loop bounds via interval folding, worst-case
//                       step/acquisition/energy estimates priced with
//                       sensors::AcquisitionEnergyMj; rejects unboundable
//                       loops, recursion, and over-budget scripts
//
// The program is also lowered to the dataflow IR, whose passes (passes.hpp)
// add the flow-sensitive SA5xx diagnostics and the information-flow
// manifest. Loop bounds come from pass 4 alone.
//
// The analyzer is deliberately conservative in both directions: it only
// *errors* on programs that are guaranteed wrong if the flagged code runs
// (or whose cost it cannot bound, which the registration contract treats
// as wrong), and it uses warnings where execution may still succeed.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/sensor_kind.hpp"
#include "script/analysis/diagnostics.hpp"
#include "script/ast.hpp"

namespace sor::script::ir {
struct Module;
}  // namespace sor::script::ir

namespace sor::script::analysis {

struct AnalyzerOptions {
  // Samples assumed for an acquisition call whose sample-count argument is
  // absent; mirrors TaskInstance's samples_per_window fallback.
  int default_samples_per_window = 5;
  // Instruction budget the worst-case step estimate is checked against
  // (SA404). Matches InterpreterOptions::max_steps.
  double max_steps = 2'000'000;
  // Per-run energy budget in millijoules (SA403). <= 0 disables the check.
  double energy_budget_mj = 0.0;
  // When set, acquisition calls whose sensor is not in this list get SA302.
  // Unset = analyze against the full provider vocabulary.
  std::optional<std::vector<SensorKind>> available_sensors;
  // Extra host functions to accept (variadic, untyped). Lets embedders that
  // register bespoke helpers keep their scripts lint-clean.
  std::vector<std::string> extra_host_fns;
};

// Analyze a parsed program. With `optimized`, also hands over the module
// the IR passes optimized (filled whatever the diagnostics say): what a
// task executes, so it compiles once.
[[nodiscard]] AnalysisReport Analyze(const Program& program,
                                     const AnalyzerOptions& options = {},
                                     ir::Module* optimized = nullptr);

// Parse + analyze. Lex/parse failures come back as a single SA001
// diagnostic (carrying the parser's line number) instead of a Result error,
// so every caller renders failures through one channel (`optimized` is
// then left untouched).
[[nodiscard]] AnalysisReport AnalyzeSource(std::string_view source,
                                           const AnalyzerOptions& options = {},
                                           ir::Module* optimized = nullptr);

}  // namespace sor::script::analysis
