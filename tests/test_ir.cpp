// SenseScript IR: lowering/executor parity with the AST walker oracle.
//
// Phones execute only the IR, so a lowered (and optimized) module must be
// observationally identical to the AST walker the tests keep as the
// oracle (ast_oracle.hpp): same return value (bit-for-bit for
// numbers), same print output, same error code/message/line, the same
// `steps`, and the same host calls in the same order. This file checks
// that four ways:
//   * targeted edge cases for every semantic subtlety the lowering has to
//     preserve (iteration-fresh block scopes, evaluation order, dynamic
//     function binding, short-circuit result values, ...),
//   * a seeded random-program fuzz battery (600 programs),
//   * the same battery and the example scripts run at every instruction
//     budget up to their step count, so a budget overrun dies at the same
//     node (and line, and host call) under all three engines, and
//   * the battery partitioned across 1/2/8 worker threads, asserting the
//     aggregated result fingerprints are thread-count invariant.
// It also holds the analyzer to its word: every program it bounds (the
// battery, the example scripts) runs within that bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ast_oracle.hpp"
#include "core/system.hpp"
#include "script/analysis/analyzer.hpp"
#include "script/host_api.hpp"
#include "script/analysis/passes.hpp"
#include "script/interpreter.hpp"
#include "script/ir/exec.hpp"
#include "script/ir/ir.hpp"
#include "script/ir/lower.hpp"
#include "script/parser.hpp"

namespace sor::script {
namespace {

// Deterministic host registry: the pure stdlib plus stand-ins for sensor
// acquisition (fixed data) and a host function that always fails, so the
// "in fn(): ..." error-wrapping path is exercised.
HostRegistry MakeTestHost() {
  HostRegistry host;
  InstallStdlib(host);
  host.Register("get_value", [](std::span<const Value>) -> Result<Value> {
    return Value(42.5);
  });
  host.Register("get_series", [](std::span<const Value>) -> Result<Value> {
    return Value::MakeList({Value(1.0), Value(2.5), Value(-3.0)});
  });
  host.Register("host_fail", [](std::span<const Value>) -> Result<Value> {
    return Error{Errc::kUnavailable, "sensor offline"};
  });
  return host;
}

// `base` with every function wrapped to append "name(args);" to `log`
// before it runs: the ordered host-call log a fingerprint covers.
HostRegistry WithCallLog(const HostRegistry& base, std::string& log) {
  HostRegistry logged;
  for (const std::string& name : base.Names()) {
    logged.Register(name, [fn = *base.Find(name), name,
                           &log](std::span<const Value> args) {
      log += name + "(";
      for (const Value& a : args) log += a.ToDisplayString() + ",";
      log += ");";
      return fn(args);
    });
  }
  return logged;
}

std::string FingerprintValue(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNumber: {
      // Bit-exact: two doubles that happen to print alike must not pass.
      std::uint64_t bits = 0;
      const double d = v.as_number();
      std::memcpy(&bits, &d, sizeof(bits));
      char buf[20];
      std::snprintf(buf, sizeof(buf), "n%016llx",
                    static_cast<unsigned long long>(bits));
      return buf;
    }
    case Value::Kind::kList: {
      std::string s = "[";
      for (const Value& e : *v.as_list()) s += FingerprintValue(e) + ",";
      return s + "]";
    }
    default:
      return std::string(v.TypeName()) + ":" + v.ToDisplayString();
  }
}

std::string Fingerprint(const Result<ExecutionResult>& r,
                        const std::string& host_calls = "") {
  if (!r.ok()) {
    const Error& e = r.error();
    return "err|" + std::to_string(static_cast<int>(e.code)) + "|" +
           e.message + "|" + std::to_string(e.line) + "|" + host_calls;
  }
  return "ok|" + FingerprintValue(r.value().return_value) + "|" +
         r.value().output + "|steps=" + std::to_string(r.value().steps) +
         "|" + host_calls;
}

// One program ready to run under all three engines.
struct Engines {
  Program program;
  ir::Module raw;
  ir::Module opt;
};

Engines Compile(Program program) {
  Engines e{std::move(program), {}, {}};
  e.raw = ir::Lower(e.program);
  e.opt = e.raw;
  analysis::OptimizeModule(e.opt);
  return e;
}

struct DiffResult {
  std::string ast;
  std::string ir;
  std::string opt;
};

DiffResult RunEngines(const Engines& e, const HostRegistry& base,
                      const InterpreterOptions& opts) {
  std::string log;
  const HostRegistry host = WithCallLog(base, log);
  DiffResult out;
  const Result<ExecutionResult> ast = oracle::Execute(e.program, host, opts);
  out.ast = Fingerprint(ast, log);
  log.clear();
  const Result<ExecutionResult> raw = ir::Execute(e.raw, host, opts);
  out.ir = Fingerprint(raw, log);
  log.clear();
  const Result<ExecutionResult> opt = ir::Execute(e.opt, host, opts);
  out.opt = Fingerprint(opt, log);
  return out;
}

DiffResult RunDifferential(const std::string& source) {
  Result<Program> program = Parse(source);
  if (!program.ok()) {
    // Parse failures never reach lowering; mirror the oracle's result.
    DiffResult out;
    out.ast = Fingerprint(oracle::Run(source, MakeTestHost()));
    out.ir = Fingerprint(Result<ExecutionResult>(program.error()));
    out.opt = out.ir;
    return out;
  }
  return RunEngines(Compile(std::move(program).value()), MakeTestHost(), {});
}

// Asserts AST / raw-IR / optimized-IR all agree and returns the fingerprint.
std::string ExpectParity(const std::string& source) {
  const DiffResult r = RunDifferential(source);
  EXPECT_EQ(r.ast, r.ir) << "raw IR diverged for:\n" << source;
  EXPECT_EQ(r.ast, r.opt) << "optimized IR diverged for:\n" << source;
  return r.ast;
}

bool IsBudgetError(const Result<ExecutionResult>& r) {
  return !r.ok() &&
         r.error().message.rfind("instruction budget exhausted", 0) == 0;
}

// The program's step count S under the oracle: the smallest budget it runs
// under without a budget error (budget errors are monotone in max_steps).
std::uint64_t StepCount(const Program& program, const HostRegistry& host) {
  const Result<ExecutionResult> full = oracle::Execute(program, host, {});
  if (full.ok()) return full.value().steps;
  std::uint64_t lo = 0;
  std::uint64_t hi = InterpreterOptions{}.max_steps;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    InterpreterOptions opts;
    opts.max_steps = mid;
    if (IsBudgetError(oracle::Execute(program, host, opts))) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Every budget 0..S when S <= 500, else 500 evenly spaced ones plus S-1
// and S.
std::vector<std::uint64_t> BudgetsUpTo(std::uint64_t steps) {
  constexpr std::uint64_t kMaxBudgets = 500;
  std::vector<std::uint64_t> budgets;
  if (steps <= kMaxBudgets) {
    for (std::uint64_t b = 0; b <= steps; ++b) budgets.push_back(b);
    return budgets;
  }
  for (std::uint64_t i = 0; i < kMaxBudgets; ++i)
    budgets.push_back(i * steps / kMaxBudgets);
  budgets.push_back(steps - 1);
  budgets.push_back(steps);
  return budgets;
}

// Runs all three engines at every budget of BudgetsUpTo(S); returns the
// number of budgets at which they disagreed (each reported).
int BudgetSweepMismatches(const std::string& source, const HostRegistry& host,
                          const std::string& label) {
  Result<Program> program = Parse(source);
  if (!program.ok()) return 0;
  const Engines e = Compile(std::move(program).value());
  const std::uint64_t steps = StepCount(e.program, host);
  int mismatches = 0;
  for (const std::uint64_t budget : BudgetsUpTo(steps)) {
    InterpreterOptions opts;
    opts.max_steps = budget;
    const DiffResult r = RunEngines(e, host, opts);
    if (r.ast != r.ir || r.ast != r.opt) {
      ++mismatches;
      ADD_FAILURE() << label << " diverged at max_steps=" << budget
                    << " (S=" << steps << "):\n" << source
                    << "\nAST: " << r.ast << "\nIR:  " << r.ir
                    << "\nOPT: " << r.opt;
      if (mismatches > 3) break;
    }
  }
  return mismatches;
}

// --- targeted semantic edge cases -----------------------------------------

TEST(IrParity, StraightLineArithmeticAndPrint) {
  const std::string fp = ExpectParity(
      "local a = 2 + 3 * 4\n"
      "local b = a / 7\n"
      "print(a, b, a % 5, -b)\n"
      "return a .. \"/\" .. b\n");
  EXPECT_EQ(fp.rfind("ok|", 0), 0u) << fp;
}

TEST(IrParity, BlockScopeLocalInvisibleAfterIf) {
  // `local y` inside the branch dies with the scope; the later read must
  // fail with the same undefined-variable error in both engines.
  const std::string fp = ExpectParity(
      "if true then\n"
      "  local y = 1\n"
      "end\n"
      "print(y)\n");
  EXPECT_NE(fp.find("undefined variable 'y'"), std::string::npos) << fp;
}

TEST(IrParity, LoopIterationFreshLocals) {
  // Iteration 1 assigns y; iteration 2 reads it before its declaration.
  // Scopes are iteration-fresh, so this must fail on iteration 2 — a slot
  // reuse bug would happily reuse iteration 1's value.
  const std::string fp = ExpectParity(
      "for i = 1, 2 do\n"
      "  if i == 2 then print(y) end\n"
      "  local y = 5\n"
      "end\n");
  EXPECT_NE(fp.find("undefined variable 'y'"), std::string::npos) << fp;
}

TEST(IrParity, WhileIterationFreshLocals) {
  ExpectParity(
      "local n = 0\n"
      "while n < 2 do\n"
      "  if n == 1 then print(z) end\n"
      "  local z = 7\n"
      "  n = n + 1\n"
      "end\n");
}

TEST(IrParity, TopLevelLocalIsVisibleInsideFunctions) {
  // A top-level `local` lives in the interpreter's global scope, so a
  // function body can read it.
  const std::string fp = ExpectParity(
      "function f() return base * 2 end\n"
      "local base = 21\n"
      "return f()\n");
  EXPECT_NE(fp.find("ok|"), std::string::npos) << fp;
}

TEST(IrParity, FunctionDoesNotSeeCallerBlockLocals) {
  ExpectParity(
      "function f() return hidden end\n"
      "if true then\n"
      "  local hidden = 1\n"
      "  print(f())\n"
      "end\n");
}

TEST(IrParity, AssignmentBeforeLocalDeclarationHitsGlobal) {
  // Inside a block, `x = 2` before `local x` writes the global; the local
  // then shadows it for the rest of the scope.
  ExpectParity(
      "if true then\n"
      "  x = 2\n"
      "  local x = 10\n"
      "  x = x + 1\n"
      "  print(x)\n"
      "end\n"
      "print(x)\n");
}

TEST(IrParity, ShadowingAndScopeExit) {
  ExpectParity(
      "local v = 1\n"
      "if true then\n"
      "  local v = 2\n"
      "  print(v)\n"
      "end\n"
      "print(v)\n");
}

TEST(IrParity, LocalInitializerSeesOuterBinding) {
  ExpectParity(
      "local x = 3\n"
      "if true then\n"
      "  local x = x + 10\n"
      "  print(x)\n"
      "end\n"
      "print(x)\n");
}

TEST(IrParity, ForLoopVarReassignmentDoesNotAffectIteration) {
  ExpectParity(
      "local total = 0\n"
      "for i = 1, 4 do\n"
      "  i = 100\n"
      "  total = total + 1\n"
      "end\n"
      "print(total)\n");
}

TEST(IrParity, ForLoopBounds) {
  ExpectParity("for i = 3, 1 do print(i) end print(\"done\")\n");
  ExpectParity("for i = 3, 1, -1 do print(i) end\n");
  ExpectParity("for i = 1, 2, 0.5 do print(i) end\n");
  ExpectParity("for i = 1, \"x\" do print(i) end\n");       // bounds error
  ExpectParity("for i = 1, 5, \"y\" do print(i) end\n");    // step error
  ExpectParity("for i = 1, 5, 0 do print(i) end\n");        // zero step
  ExpectParity("for i = 1, 5, 1 - 1 do print(i) end\n");    // computed zero
}

TEST(IrParity, ForStepErrorPrecedesBoundsError) {
  // The interpreter validates the (explicit) step's type before the bounds.
  const std::string fp = ExpectParity("for i = nil, nil, nil do end\n");
  EXPECT_NE(fp.find("for step must be a number"), std::string::npos) << fp;
}

TEST(IrParity, BreakVariants) {
  ExpectParity(
      "local c = 0\n"
      "while true do\n"
      "  c = c + 1\n"
      "  if c > 3 then break end\n"
      "end\n"
      "print(c)\n");
  ExpectParity(
      "for i = 1, 10 do\n"
      "  if i == 4 then break end\n"
      "  print(i)\n"
      "end\n");
  // break outside any loop unwinds the whole block (return-nil semantics).
  ExpectParity("print(1)\nbreak\nprint(2)\n");
  ExpectParity("function f() print(1) break print(2) end\nf()\nprint(3)\n");
}

TEST(IrParity, ShortCircuitReturnsOperand) {
  ExpectParity("print(nil and 1, false and 1, 2 and 3)\n");
  ExpectParity("print(nil or \"fallback\", false or 0, 1 or 2)\n");
  ExpectParity("local l = {1} and {2}\nprint(l[1])\n");
}

TEST(IrParity, ShortCircuitSkipsSideEffects) {
  ExpectParity(
      "function loud() print(\"evaluated\") return true end\n"
      "local a = false and loud()\n"
      "local b = true or loud()\n"
      "print(a, b)\n"
      "local c = true and loud()\n");
}

TEST(IrParity, ListLiteralIndexAndAppend) {
  ExpectParity(
      "local l = {10, 20, 30}\n"
      "l[2] = 21\n"
      "l[4] = 40\n"
      "print(l[1], l[2], l[3], l[4], #l)\n");
}

TEST(IrParity, ListAliasingIsShared) {
  ExpectParity(
      "local a = {1}\n"
      "local b = a\n"
      "b[2] = 2\n"
      "print(#a, a[2])\n");
}

TEST(IrParity, IndexErrors) {
  ExpectParity("local l = {1}\nprint(l[2])\n");       // read out of range
  ExpectParity("local l = {1}\nl[3] = 9\n");          // write skips a slot
  ExpectParity("local l = {1}\nprint(l[\"k\"])\n");   // non-number index
  ExpectParity("local n = 5\nprint(n[1])\n");         // index a number
  ExpectParity("local n = 5\nn[1] = 2\n");            // assign into a number
  ExpectParity("local l = {1}\nprint(l[0])\n");
}

TEST(IrParity, ListCycleRefusedAtInsertion) {
  ExpectParity("local l = {}\npush(l, l)\n");
  ExpectParity("local l = {}\nl[1] = l\n");
  ExpectParity("local l = {}\nlocal box = {l}\nl[1] = box\nprint(#l)\n");
}

TEST(IrParity, FailingHostCallKeepsItsLine) {
  // A host function's error gains the "in name(): " prefix and the line of
  // the call, as every other runtime error carries its line.
  const HostRegistry host = MakeTestHost();
  for (const char* source : {"local l = {}\n\npush(l, l)\n",
                             "local a = 1\n\nlocal b = host_fail()\n"}) {
    const Engines e = Compile(Parse(source).value());
    const Result<ExecutionResult> runs[] = {
        oracle::Execute(e.program, host, {}), ir::Execute(e.raw, host, {}),
        ir::Execute(e.opt, host, {})};
    for (const Result<ExecutionResult>& r : runs) {
      ASSERT_FALSE(r.ok()) << source;
      EXPECT_EQ(r.error().message.rfind("in ", 0), 0u) << r.error().message;
      EXPECT_EQ(r.error().line, 3) << source;
    }
  }
}

TEST(IrParity, BudgetAndShadowErrorsKeepTheirLine) {
  // The two errors that name their line in the message ("instruction
  // budget exhausted at line N", "line N: cannot shadow host function")
  // carry it in Error::line too, as every other runtime error does.
  const HostRegistry host = MakeTestHost();
  InterpreterOptions opts;
  opts.max_steps = 20;
  for (const char* source :
       {"local s = 0\n\nfor i = 1, 100 do s = s + i end\n",
        "local a = 1\n\nfunction floor(x) return x end\n"}) {
    const Engines e = Compile(Parse(source).value());
    const Result<ExecutionResult> runs[] = {
        oracle::Execute(e.program, host, opts), ir::Execute(e.raw, host, opts),
        ir::Execute(e.opt, host, opts)};
    for (const Result<ExecutionResult>& r : runs) {
      ASSERT_FALSE(r.ok()) << source;
      EXPECT_NE(r.error().message.find("line 3"), std::string::npos)
          << r.error().message;
      EXPECT_EQ(r.error().line, 3) << r.error().message;
    }
  }
}

TEST(IrParity, EvaluationOrderValueBeforeListBeforeIndex) {
  // list[i] = v evaluates v first, then the list, then the index — observable
  // through print side effects.
  ExpectParity(
      "function mk() print(\"list\") return {0} end\n"
      "function idx() print(\"index\") return 1 end\n"
      "function val() print(\"value\") return 9 end\n"
      "local l = {0}\n"
      "l[idx()] = val()\n"
      "local err = 5\n"
      "err[idx()] = val()\n");  // value+list evaluated, then type error
}

TEST(IrParity, CallArgumentSnapshotting) {
  // Argument values are captured at evaluation time: bump() changes x after
  // x was already evaluated as the first argument.
  ExpectParity(
      "x = 1\n"
      "function bump() x = 99 return 2 end\n"
      "print(x, bump(), x)\n");
}

TEST(IrParity, TypeErrors) {
  ExpectParity("print(1 + \"s\")\n");
  ExpectParity("print(nil < 1)\n");
  ExpectParity("print(\"a\" < \"b\", \"b\" <= \"a\")\n");
  ExpectParity("print(-\"x\")\n");
  ExpectParity("print(#5)\n");
  ExpectParity("print({1} .. \"x\")\n");
  ExpectParity("print(1 == \"1\", {1} == {1}, nil == false)\n");
}

TEST(IrParity, FunctionSemantics) {
  ExpectParity(
      "function add(a, b) return a + b end\n"
      "print(add(2, 3))\n"
      "print(add(2))\n");  // arity error
  ExpectParity("function dup(a, a) return a end\nprint(dup(1, 2))\n");
  ExpectParity("function f() end\nprint(f())\n");  // implicit nil return
  ExpectParity("function len(x) return 0 end\n");  // host shadow error
  ExpectParity("nope(1)\n");                       // whitelist violation
  ExpectParity(
      "function rec(n) if n > 0 then return rec(n - 1) end return 0 end\n"
      "print(rec(10))\n"
      "print(rec(500))\n");  // call depth limit exceeded
}

TEST(IrParity, FunctionRebindingInLoop) {
  ExpectParity(
      "for i = 1, 2 do\n"
      "  function pick() return i end\n"
      "  print(pick())\n"
      "end\n");
}

TEST(IrParity, CallBeforeDefinitionFails) {
  // Bindings happen when the `function` statement executes.
  ExpectParity("f()\nfunction f() return 1 end\n");
}

TEST(IrParity, HostFunctionsAndErrorWrapping) {
  ExpectParity("print(get_value(), abs(-3), min(4, 2), max(4, 2))\n");
  ExpectParity("local s = get_series()\nprint(#s, s[2], mean(s))\n");
  ExpectParity("print(host_fail())\n");  // "in host_fail(): sensor offline"
  ExpectParity("print(len(5))\n");       // stdlib arg error, wrapped
}

TEST(IrParity, StdlibPureFunctions) {
  ExpectParity(
      "print(floor(2.7), ceil(2.1), sqrt(16))\n"
      "print(tostring(nil), tostring(1.5), tonumber(\"2.5\"), "
      "tonumber(\"zz\"))\n"
      "local l = {3, 1, 2}\n"
      "push(l, 10)\n"
      "print(#l, mean(l), variance(l) >= 0, stddev(l) >= 0)\n");
}

TEST(IrParity, ReturnStopsExecution) {
  ExpectParity("print(1)\nreturn 42\nprint(2)\n");
  ExpectParity(
      "for i = 1, 5 do\n"
      "  if i == 2 then return \"early\" end\n"
      "  print(i)\n"
      "end\n"
      "print(\"after\")\n");
}

TEST(IrParity, NestedFunctionDefinition) {
  ExpectParity(
      "function outer()\n"
      "  function inner() return 5 end\n"
      "  return inner() + 1\n"
      "end\n"
      "print(outer())\n"
      "print(inner())\n");  // inner was bound when outer ran
}

TEST(IrParity, ConcatFormatsLikeDisplay) {
  ExpectParity(
      "print(1 .. \"\", 1.5 .. \"\", true .. \"!\", nil .. \"?\")\n"
      "print(\"v=\" .. 2 / 3)\n");
}

TEST(IrParity, DivisionEdgeCases) {
  ExpectParity("print(1 / 0, -1 / 0, 0 / 0 ~= 0 / 0)\n");
  ExpectParity("print(5 % 3, -5 % 3, 5.5 % 2)\n");
}

TEST(IrParity, UndefinedVariableLineNumbers) {
  const DiffResult r = RunDifferential("local a = 1\n\n\nprint(missing)\n");
  EXPECT_EQ(r.ast, r.ir);
  EXPECT_NE(r.ast.find("line 4"), std::string::npos) << r.ast;
}

// --- random program generator ----------------------------------------------

// --- steps and the instruction budget ----------------------------------------

TEST(IrSteps, LoopHeavyCountsAstEvaluations) {
  // One tick per statement, loop check and expression node: 50,007 AST
  // evaluations (one per IR instruction would be 100,011).
  const std::string fp = ExpectParity(
      "local s = 0\nfor i = 1, 10000 do s = s + i end\nreturn s");
  EXPECT_NE(fp.find("|steps=50007|"), std::string::npos) << fp;
  // A step count above 500 takes the sampled budget sweep.
  EXPECT_EQ(BudgetSweepMismatches(
                "local s = 0\nfor i = 1, 1000 do s = s + i end\nreturn s",
                MakeTestHost(), "loop"),
            0);
}

TEST(IrSteps, MultiLineStatementsOverrunOnTheNodesLine) {
  // Nodes of one statement on several lines: a budget overrun must name the
  // line of the node whose tick overran, so ticks never merge across lines.
  const std::string src =
      "local t = {\n"
      "  get_value(),\n"
      "  -(1 +\n"
      "    2),\n"
      "  get_series()\n"
      "}\n"
      "function f(a,\n"
      "           b)\n"
      "  local dead = a\n"
      "  local also_dead = {b,\n"
      "                     a}\n"
      "  return a +\n"
      "    b\n"
      "end\n"
      "print(f(1,\n"
      "        #t), t[\n"
      "  2])\n";
  ExpectParity(src);
  EXPECT_EQ(BudgetSweepMismatches(src, MakeTestHost(), "multi-line"), 0);
  // The sweep above only proves something if ticks had to wait on kTick
  // carriers, in the lowered and in the optimized module.
  const Engines e = Compile(Parse(src).value());
  EXPECT_NE(ir::Dump(e.raw).find("    tick  ; line 1 ticks 2"), std::string::npos);
  EXPECT_NE(ir::Dump(e.opt).find("    tick  ; line 9 ticks 2"), std::string::npos)
      << ir::Dump(e.opt);
}

TEST(IrSteps, TicksBeyondOneInstructionsCapacity) {
  // 40,000 dead stores on one line: the optimizer folds their 80,000 ticks
  // forward, which overflows one instruction's tick field.
  std::string src = "if true then";
  for (int i = 0; i < 40'000; ++i) src += " local a = 1";
  src += " end return 7";
  const std::string fp = ExpectParity(src);
  EXPECT_NE(fp.find("|steps=80004|"), std::string::npos) << fp.substr(0, 80);
  Result<Program> program = Parse(src);
  ASSERT_TRUE(program.ok());
  const Engines e = Compile(std::move(program).value());
  for (const std::uint64_t budget :
       {std::uint64_t{65'534}, std::uint64_t{65'535}, std::uint64_t{65'536},
        std::uint64_t{80'003}, std::uint64_t{80'004}}) {
    InterpreterOptions opts;
    opts.max_steps = budget;
    const DiffResult r = RunEngines(e, MakeTestHost(), opts);
    EXPECT_EQ(r.ast, r.ir) << "max_steps=" << budget;
    EXPECT_EQ(r.ast, r.opt) << "max_steps=" << budget;
  }
}

// The shipped scenario scripts, against sensor stand-ins that return
// `samples` deterministic readings (added to `*acquired` when given).
HostRegistry MakeExampleHost(double* acquired = nullptr) {
  HostRegistry host;
  InstallStdlib(host);
  for (const HostSignature& sig : HostSignatures()) {
    if (!sig.sensor.has_value()) continue;
    host.Register(std::string(sig.name),
                  [acquired](std::span<const Value> args) -> Result<Value> {
                    int samples = 5;
                    if (!args.empty() && args[0].is_number())
                      samples = std::max(1, static_cast<int>(args[0].as_number()));
                    if (acquired != nullptr) *acquired += samples;
                    List values;
                    for (int i = 0; i < samples; ++i)
                      values.emplace_back(30.0 + 4.5 * i);
                    return Value::MakeList(std::move(values));
                  });
  }
  host.Register("get_time_s", [](std::span<const Value>) -> Result<Value> {
    return Value(3600.0);
  });
  host.Register("get_sample_window_s",
                [](std::span<const Value>) -> Result<Value> {
                  return Value(10.0);
                });
  host.Register("get_remaining_instants",
                [](std::span<const Value>) -> Result<Value> {
                  return Value(2.0);
                });
  return host;
}

// (name, source) of every example script, then both built-in scripts.
std::vector<std::pair<std::string, std::string>> ExampleScripts() {
  std::vector<std::pair<std::string, std::string>> scripts;
  for (const auto& entry :
       std::filesystem::directory_iterator(SOR_EXAMPLE_SCRIPTS_DIR)) {
    if (entry.path().extension() != ".sor") continue;
    std::ifstream in(entry.path());
    std::stringstream text;
    text << in.rdbuf();
    scripts.emplace_back(entry.path().filename().string(), text.str());
  }
  std::sort(scripts.begin(), scripts.end());
  scripts.emplace_back("builtin:trails",
                       core::DefaultScript(world::PlaceCategory::kHikingTrail));
  scripts.emplace_back("builtin:coffee",
                       core::DefaultScript(world::PlaceCategory::kCoffeeShop));
  return scripts;
}

// The step budget a bounded program is admitted with: its worst case.
std::uint64_t BudgetOfBound(const analysis::AnalysisReport& report) {
  return static_cast<std::uint64_t>(
      std::floor(std::min(report.manifest.worst_case_steps, 1e15)));
}

TEST(IrSteps, ExampleScriptsAtEveryBudget) {
  const std::vector<std::pair<std::string, std::string>> scripts =
      ExampleScripts();
  ASSERT_GE(scripts.size(), 6u);
  const HostRegistry host = MakeExampleHost();
  for (const auto& [name, source] : scripts) {
    EXPECT_EQ(BudgetSweepMismatches(source, host, name), 0) << name;
    const Result<ExecutionResult> run = oracle::Run(source, host);
    ASSERT_TRUE(run.ok()) << name << ": " << run.error().str();
  }
}

// The analyzer's worst case covers a run: at a step budget equal to the
// bound the script finishes, having acquired no more than the bound.
TEST(IrSteps, ExampleScriptsRunWithinTheirBounds) {
  for (const auto& [name, source] : ExampleScripts()) {
    ir::Module module;
    const analysis::AnalysisReport report =
        analysis::AnalyzeSource(source, {}, &module);
    ASSERT_TRUE(report.manifest.cost_bounded) << name;
    double acquired = 0;
    InterpreterOptions opts;
    opts.max_steps = BudgetOfBound(report);
    const Result<ExecutionResult> run =
        ir::Execute(module, MakeExampleHost(&acquired), opts);
    EXPECT_TRUE(run.ok()) << name << ": " << run.error().str();
    EXPECT_LE(acquired, report.manifest.worst_case_acquisitions) << name;
  }
}

// Accumulating a non-integer step rounds: ten additions of 0.1 reach
// 0.9999999999999999, so each loop runs a trip more than exact arithmetic
// gives, and the bound must cover it.
TEST(IrSteps, NonIntegerLoopsRunWithinTheirBounds) {
  for (const char* source : {"local x = 0 while x < 1 do x = x + 0.1 end",
                             "for i = 0, 0.7, 0.1 do end"}) {
    ir::Module module;
    const analysis::AnalysisReport report =
        analysis::AnalyzeSource(source, {}, &module);
    ASSERT_TRUE(report.manifest.cost_bounded) << source;
    InterpreterOptions opts;
    opts.max_steps = BudgetOfBound(report);
    const Result<ExecutionResult> run =
        ir::Execute(module, MakeTestHost(), opts);
    EXPECT_TRUE(run.ok()) << source << ": " << run.error().str();
  }
}

// Generates syntactically valid programs (parser never rejects them) that
// are runtime-bounded by construction: while loops use dedicated counters
// the rest of the generator can't touch, for loops have constant trip
// counts, and script functions only call previously defined functions.
class ProgramGen {
 public:
  explicit ProgramGen(std::uint32_t seed) : rng_(seed) {}

  std::string Generate() {
    out_.clear();
    vars_.clear();
    fns_.clear();
    loop_depth_ = 0;
    var_counter_ = 0;
    const int num_fns = Pick(0, 2);
    for (int i = 0; i < num_fns; ++i) GenFunction();
    GenBlock(Pick(3, 7), 0);
    if (Chance(2)) Line("return " + GenExpr(2));
    return out_;
  }

 private:
  bool Chance(int one_in) { return Pick(1, one_in) == 1; }
  int Pick(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }
  void Line(const std::string& s) { out_ += s + "\n"; }

  std::string FreshVar() { return "v" + std::to_string(var_counter_++); }

  std::string KnownVar() {
    if (vars_.empty() || Chance(14)) return "zz_undefined";
    return vars_[static_cast<std::size_t>(
        Pick(0, static_cast<int>(vars_.size()) - 1))];
  }

  std::string GenNumber() {
    switch (Pick(0, 3)) {
      case 0: return std::to_string(Pick(-20, 20));
      case 1: return std::to_string(Pick(0, 9)) + "." + std::to_string(Pick(0, 99));
      default: return std::to_string(Pick(0, 5));
    }
  }

  std::string GenExpr(int depth) {
    if (depth <= 0 || Chance(3)) {
      switch (Pick(0, 5)) {
        case 0: return GenNumber();
        case 1: return "\"s" + std::to_string(Pick(0, 9)) + "\"";
        case 2: return Chance(2) ? "true" : "false";
        case 3: return Chance(6) ? "nil" : GenNumber();
        default: return KnownVar();
      }
    }
    switch (Pick(0, 9)) {
      case 0: case 1: {
        static const char* kOps[] = {"+", "-",  "*",  "/",  "%",  "..",
                                     "==", "~=", "<",  "<=", ">",  ">="};
        return "(" + GenExpr(depth - 1) + " " + kOps[Pick(0, 11)] + " " +
               GenExpr(depth - 1) + ")";
      }
      case 2: {
        static const char* kUn[] = {"-", "not ", "#"};
        return "(" + std::string(kUn[Pick(0, 2)]) + GenExpr(depth - 1) + ")";
      }
      case 3: {
        static const char* kBool[] = {" and ", " or "};
        return "(" + GenExpr(depth - 1) + kBool[Pick(0, 1)] +
               GenExpr(depth - 1) + ")";
      }
      case 4: {
        switch (Pick(0, 6)) {
          case 0: return "abs(" + GenExpr(depth - 1) + ")";
          case 1: return "min(" + GenExpr(depth - 1) + ", " +
                         GenExpr(depth - 1) + ")";
          case 2: return "max(" + GenExpr(depth - 1) + ", " +
                         GenExpr(depth - 1) + ")";
          case 3: return "tostring(" + GenExpr(depth - 1) + ")";
          case 4: return "floor(" + GenExpr(depth - 1) + ")";
          case 5: return "get_value()";
          default: return "get_series()";
        }
      }
      case 5: {
        if (fns_.empty()) return GenNumber();
        const auto& [name, arity] = fns_[static_cast<std::size_t>(
            Pick(0, static_cast<int>(fns_.size()) - 1))];
        std::string call = name + "(";
        for (int i = 0; i < arity; ++i) {
          if (i) call += ", ";
          call += GenExpr(depth - 1);
        }
        return call + ")";
      }
      case 6:
        return "{" + GenExpr(depth - 1) + ", " + GenExpr(depth - 1) + "}";
      case 7:
        return "(" + GenExpr(depth - 1) + ")[" + GenExpr(depth - 1) + "]";
      default:
        return GenExpr(depth - 1);
    }
  }

  void GenFunction() {
    const std::string name = "fn" + std::to_string(fns_.size());
    const int arity = Pick(0, 2);
    std::string header = "function " + name + "(";
    std::vector<std::string> saved_vars;
    saved_vars.swap(vars_);  // bodies see only params (and earlier fns)
    for (int i = 0; i < arity; ++i) {
      const std::string p = "p" + std::to_string(i);
      if (i) header += ", ";
      header += p;
      vars_.push_back(p);
    }
    Line(header + ")");
    GenBlock(Pick(1, 3), 1);
    Line("return " + GenExpr(2));
    Line("end");
    vars_.swap(saved_vars);
    fns_.emplace_back(name, arity);
  }

  void GenBlock(int stmts, int depth) {
    const std::size_t scope_mark = vars_.size();
    for (int i = 0; i < stmts; ++i) {
      if (GenStmt(depth)) break;  // return/break ends the block
    }
    vars_.resize(scope_mark);  // block locals go out of scope
  }

  // Returns true if the statement terminated the block.
  bool GenStmt(int depth) {
    switch (Pick(0, 11)) {
      case 0: {
        const std::string v = FreshVar();
        Line("local " + v + " = " + GenExpr(2));
        vars_.push_back(v);
        return false;
      }
      case 1:
        if (!vars_.empty()) {
          Line(KnownVar() + " = " + GenExpr(2));
          return false;
        }
        [[fallthrough]];
      case 2:
        Line("print(" + GenExpr(2) + (Chance(2) ? ", " + GenExpr(1) : "") +
             ")");
        return false;
      case 3: {
        Line("if " + GenExpr(2) + " then");
        GenBlock(Pick(1, 3), depth + 1);
        if (Chance(2)) {
          Line("else");
          GenBlock(Pick(1, 2), depth + 1);
        }
        Line("end");
        return false;
      }
      case 4: {
        if (depth >= 2) return false;  // bound nesting (and runtime)
        const std::string v = FreshVar();
        std::string header = "for " + v + " = " + std::to_string(Pick(-2, 3)) +
                             ", " + std::to_string(Pick(-2, 4));
        if (Chance(2)) header += ", " + std::to_string(Pick(1, 2));
        Line(header + " do");
        vars_.push_back(v);
        ++loop_depth_;
        GenBlock(Pick(1, 3), depth + 1);
        --loop_depth_;
        vars_.pop_back();
        Line("end");
        return false;
      }
      case 5: {
        if (depth >= 2) return false;
        // Dedicated counter: never added to vars_, so no generated
        // statement can perturb it and the loop always terminates.
        const std::string c = "w" + std::to_string(var_counter_++);
        Line("local " + c + " = 0");
        Line("while " + c + " < " + std::to_string(Pick(1, 3)) + " do");
        ++loop_depth_;
        GenBlock(Pick(1, 2), depth + 1);
        --loop_depth_;
        Line(c + " = " + c + " + 1");
        Line("end");
        return false;
      }
      case 6: {
        const std::string v = FreshVar();
        Line("local " + v + " = {" + GenExpr(1) + ", " + GenExpr(1) + "}");
        vars_.push_back(v);
        if (Chance(2)) Line(v + "[" + std::to_string(Pick(1, 3)) + "] = " +
                            GenExpr(1));
        if (Chance(2)) Line("push(" + v + ", " + GenExpr(1) + ")");
        return false;
      }
      case 7:
        if (loop_depth_ > 0 && Chance(3)) {
          Line("break");
          return true;
        }
        Line("print(" + GenExpr(1) + ")");
        return false;
      case 8:
        if (Chance(4)) {
          Line("return " + GenExpr(2));
          return true;
        }
        Line(KnownVar() + " = " + GenExpr(2));
        return false;
      case 9:
        Line("print(#" + GenExpr(2) + ")");
        return false;
      case 10:
        if (Chance(6)) {
          Line("print(host_fail())");
          return false;
        }
        Line("print(get_value() * " + GenNumber() + ")");
        return false;
      default: {
        const std::string v = FreshVar();
        Line("local " + v + " = " + GenExpr(3));
        vars_.push_back(v);
        return false;
      }
    }
  }

  std::mt19937 rng_;
  std::string out_;
  std::vector<std::string> vars_;
  std::vector<std::pair<std::string, int>> fns_;
  int loop_depth_ = 0;
  int var_counter_ = 0;
};

constexpr std::uint32_t kFuzzSeeds[] = {11, 23, 47, 101, 9001};
constexpr int kProgramsPerSeed = 120;  // 5 * 120 = 600 programs total

std::vector<std::string> GeneratePrograms(std::uint32_t seed) {
  ProgramGen gen(seed);
  std::vector<std::string> programs;
  programs.reserve(kProgramsPerSeed);
  for (int i = 0; i < kProgramsPerSeed; ++i) programs.push_back(gen.Generate());
  return programs;
}

// Per-program fingerprint used by the thread-invariance battery: execution
// results through both engines plus analyzer diagnostics.
std::string ProgramFingerprint(const std::string& source) {
  const DiffResult r = RunDifferential(source);
  std::string fp = r.ast + "##" + r.ir + "##" + r.opt + "##";
  const analysis::AnalysisReport report = analysis::AnalyzeSource(source, {});
  for (const auto& d : report.diagnostics) {
    fp += d.code + "@" + std::to_string(d.line) + ";";
  }
  return fp;
}

TEST(IrFuzz, DifferentialBatteryAllSeeds) {
  int mismatches = 0;
  for (const std::uint32_t seed : kFuzzSeeds) {
    const std::vector<std::string> programs = GeneratePrograms(seed);
    for (const std::string& src : programs) {
      const DiffResult r = RunDifferential(src);
      if (r.ast != r.ir || r.ast != r.opt) {
        ++mismatches;
        ADD_FAILURE() << "divergence (seed " << seed << "):\n"
                      << src << "\nAST: " << r.ast << "\nIR:  " << r.ir
                      << "\nOPT: " << r.opt;
        if (mismatches > 5) return;  // don't drown the log
      }
    }
  }
}

TEST(IrFuzz, EveryBudgetAllSeeds) {
  // The 600 programs again, now at every max_steps from 0 to their step
  // count: a budget overrun must die at the same node, after the same host
  // calls, with the same message, under all three engines.
  const HostRegistry host = MakeTestHost();
  int mismatches = 0;
  for (const std::uint32_t seed : kFuzzSeeds) {
    const std::vector<std::string> programs = GeneratePrograms(seed);
    for (const std::string& src : programs) {
      mismatches += BudgetSweepMismatches(src, host,
                                          "seed " + std::to_string(seed));
      if (mismatches > 5) return;  // don't drown the log
    }
  }
}

TEST(IrFuzz, BoundedProgramsRunWithinTheirStepBound) {
  // Every program the analyzer bounds, run with its bound as the budget,
  // must never exhaust it.
  const HostRegistry host = MakeTestHost();
  analysis::AnalyzerOptions options;
  options.extra_host_fns = {"get_value", "get_series", "host_fail"};
  int bounded = 0;
  int overruns = 0;
  for (const std::uint32_t seed : kFuzzSeeds) {
    for (const std::string& src : GeneratePrograms(seed)) {
      ir::Module module;
      const analysis::AnalysisReport report =
          analysis::AnalyzeSource(src, options, &module);
      if (!report.manifest.cost_bounded) continue;
      ++bounded;
      InterpreterOptions opts;
      opts.max_steps = BudgetOfBound(report);
      if (IsBudgetError(ir::Execute(module, host, opts))) {
        ++overruns;
        ADD_FAILURE() << "bound of " << report.manifest.worst_case_steps
                      << " steps overrun (seed " << seed << "):\n" << src;
      }
    }
  }
  EXPECT_EQ(overruns, 0);
  EXPECT_GE(bounded, 550);  // the generator's loops are bounded by design
}

TEST(IrFuzz, ThreadCountInvariantFingerprints) {
  for (const std::uint32_t seed : kFuzzSeeds) {
    const std::vector<std::string> programs = GeneratePrograms(seed);
    std::vector<std::string> reference;
    for (const int threads : {1, 2, 8}) {
      std::vector<std::string> fps(programs.size());
      std::vector<std::thread> pool;
      pool.reserve(static_cast<std::size_t>(threads));
      for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
          for (std::size_t i = static_cast<std::size_t>(t);
               i < programs.size(); i += static_cast<std::size_t>(threads)) {
            fps[i] = ProgramFingerprint(programs[i]);
          }
        });
      }
      for (std::thread& th : pool) th.join();
      if (reference.empty()) {
        reference = std::move(fps);
      } else {
        ASSERT_EQ(reference.size(), fps.size());
        for (std::size_t i = 0; i < fps.size(); ++i) {
          EXPECT_EQ(reference[i], fps[i])
              << "seed " << seed << " program " << i
              << " fingerprint changed with " << threads << " threads:\n"
              << programs[i];
        }
      }
    }
  }
}

}  // namespace
}  // namespace sor::script
