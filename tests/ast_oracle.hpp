// The AST walker: SenseScript's first executor, kept as the test oracle.
//
// Phones run the IR (script/ir/exec.hpp) over a module lowered once per
// task. This tree-walking interpreter evaluates the parsed program
// directly, one Tick() per statement, expression node and loop check, and
// it is the reference the IR is held to: tests/test_ir.cpp and
// tests/test_script.cpp require the raw and optimized IR to match it in
// value, print output, error text and line, steps, and the order of host
// calls, at every instruction budget.
#pragma once

#include <string_view>

#include "common/result.hpp"
#include "script/ast.hpp"
#include "script/interpreter.hpp"

namespace sor::script::oracle {

// Execute a parsed program with the AST walker.
[[nodiscard]] Result<ExecutionResult> Execute(const Program& program,
                                              const HostRegistry& host,
                                              const InterpreterOptions& opts = {});

// Parse + execute in one go.
[[nodiscard]] Result<ExecutionResult> Run(std::string_view source,
                                          const HostRegistry& host,
                                          const InterpreterOptions& opts = {});

}  // namespace sor::script::oracle
