// AST → IR lowering.
#pragma once

#include "script/ast.hpp"
#include "script/ir/ir.hpp"

namespace sor::script::ir {

// Lower a parsed program to a CFG module. Never fails on a parseable
// program: scripts with scope/type errors lower to IR whose execution
// raises the same runtime errors — after the same number of steps — as
// the AST walker the tests keep as the executor's oracle.
[[nodiscard]] Module Lower(const Program& program);

}  // namespace sor::script::ir
