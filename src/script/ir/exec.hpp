// IR executor: the one SenseScript executor. It only reads the module, so
// tasks on any number of threads can share one compile. Return value,
// print output, error text and steps (AST evaluations, through
// Inst::ticks) match the AST walker the tests keep as their oracle
// (tests/ast_oracle.cpp) bit for bit.
#pragma once

#include "common/result.hpp"
#include "script/interpreter.hpp"
#include "script/ir/ir.hpp"

namespace sor::script::ir {

[[nodiscard]] Result<ExecutionResult> Execute(const Module& m,
                                              const HostRegistry& host,
                                              const InterpreterOptions& opts);

}  // namespace sor::script::ir
