// Unit tests for SenseScript: lexer, parser, execution semantics, the
// host-function whitelist (the §II-A security mechanism), instruction
// budgets, and the stdlib.
//
// Every script runs the way a phone runs it — AnalyzeSource hands over the
// optimized module, ir::Execute runs it — and must agree with the AST
// walker oracle on value, output, steps and error.
#include <gtest/gtest.h>

#include "ast_oracle.hpp"
#include "script/analysis/analyzer.hpp"
#include "script/interpreter.hpp"
#include "script/ir/exec.hpp"
#include "script/ir/ir.hpp"
#include "script/lexer.hpp"
#include "script/parser.hpp"

namespace sor::script {
namespace {

std::string Describe(const Result<ExecutionResult>& r) {
  if (!r.ok()) return "error: " + r.error().str() + " @" +
                      std::to_string(r.error().line);
  return "ok: " + r.value().return_value.ToDisplayString() + " | " +
         r.value().output + " | steps " + std::to_string(r.value().steps);
}

// The phone's path, checked against the oracle.
Result<ExecutionResult> Execute(const std::string& src,
                                const HostRegistry& host,
                                InterpreterOptions opts = {}) {
  ir::Module module;
  (void)analysis::AnalyzeSource(src, {}, &module);
  Result<ExecutionResult> oracle_r = oracle::Run(src, host, opts);
  if (module.functions.empty()) {  // parse error: nothing was compiled
    EXPECT_FALSE(oracle_r.ok()) << src;
    return oracle_r;
  }
  Result<ExecutionResult> r = ir::Execute(module, host, opts);
  EXPECT_EQ(Describe(r), Describe(oracle_r)) << src;
  return r;
}

// Run a script with the stdlib plus any extra host functions; expect
// success and return the result.
ExecutionResult RunScript(const std::string& src,
                    const HostRegistry* extra = nullptr,
                    InterpreterOptions opts = {}) {
  HostRegistry host;
  InstallStdlib(host);
  if (extra != nullptr) {
    for (const std::string& name : extra->Names())
      host.Register(name, *extra->Find(name));
  }
  Result<ExecutionResult> r = Execute(src, host, opts);
  EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().str());
  return r.ok() ? std::move(r).value() : ExecutionResult{};
}

Error ScriptError(const std::string& src, InterpreterOptions opts = {}) {
  HostRegistry host;
  InstallStdlib(host);
  Result<ExecutionResult> r = Execute(src, host, opts);
  EXPECT_FALSE(r.ok()) << "script unexpectedly succeeded";
  return r.ok() ? Error{} : r.error();
}

// --- lexer --------------------------------------------------------------------

TEST(Lexer, TokenizesRepresentativeScript) {
  Result<std::vector<Token>> tokens = Tokenize(
      "local x = 1.5 -- comment\nif x >= 1 then x = x + 1 end");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value().front().type, TokenType::kLocal);
  EXPECT_EQ(tokens.value().back().type, TokenType::kEof);
}

TEST(Lexer, NumbersIncludingExponents) {
  Result<std::vector<Token>> tokens = Tokenize("x = 1e3 y = 2.5e-2 z = .5");
  ASSERT_TRUE(tokens.ok());
  double values[3] = {0, 0, 0};
  int vi = 0;
  for (const Token& t : tokens.value()) {
    if (t.type == TokenType::kNumber) values[vi++] = t.number;
  }
  EXPECT_DOUBLE_EQ(values[0], 1000.0);
  EXPECT_DOUBLE_EQ(values[1], 0.025);
  EXPECT_DOUBLE_EQ(values[2], 0.5);
}

TEST(Lexer, StringEscapes) {
  Result<std::vector<Token>> tokens = Tokenize(R"(s = "a\nb\t\"c\"")");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[2].text, "a\nb\t\"c\"");
}

TEST(Lexer, Errors) {
  EXPECT_FALSE(Tokenize("x = \"unterminated").ok());
  EXPECT_FALSE(Tokenize("x = 'newline\n'").ok());
  EXPECT_FALSE(Tokenize("x = @").ok());
  EXPECT_FALSE(Tokenize("x ~ y").ok());
  EXPECT_FALSE(Tokenize("x = \"bad \\q escape\"").ok());
}

TEST(Lexer, LineNumbersTracked) {
  Result<std::vector<Token>> tokens = Tokenize("x = 1\ny = 2\nz = 3");
  ASSERT_TRUE(tokens.ok());
  int max_line = 0;
  for (const Token& t : tokens.value()) max_line = std::max(max_line, t.line);
  EXPECT_EQ(max_line, 3);
}

// --- parser --------------------------------------------------------------------

TEST(Parser, AcceptsPaperStyleScript) {
  // Shaped like Fig. 4's Lua acquisition scripts.
  const char* src = R"(
-- sample sensing task
local readings = get_light_readings(10)
local loc = get_location()
local sum = 0
for i = 1, len(readings) do
  sum = sum + readings[i]
end
if len(readings) > 0 then
  result = sum / len(readings)
else
  result = 0
end
)";
  EXPECT_TRUE(Parse(src).ok());
}

TEST(Parser, SyntaxErrorsCarryLineNumbers) {
  Result<Program> r = Parse("x = 1\ny = ");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("line 2"), std::string::npos)
      << r.error().message;
}

TEST(Parser, RejectsMalformedConstructs) {
  EXPECT_FALSE(Parse("if x then").ok());           // missing end
  EXPECT_FALSE(Parse("for i = 1 do end").ok());    // missing stop bound
  EXPECT_FALSE(Parse("local = 3").ok());           // missing name
  EXPECT_FALSE(Parse("x + 1").ok());               // expr stmt must be call
  EXPECT_FALSE(Parse("1 = x").ok());               // bad assign target
  EXPECT_FALSE(Parse("f(1,)").ok());               // trailing comma
  EXPECT_FALSE(Parse("while do end").ok());        // missing condition
  EXPECT_FALSE(Parse("function f( end").ok());     // bad params
}

TEST(Parser, ElseifChains) {
  EXPECT_TRUE(Parse(R"(
x = 3
if x == 1 then y = 1
elseif x == 2 then y = 2
elseif x == 3 then y = 3
else y = 0
end)").ok());
}

// --- interpreter: expressions ----------------------------------------------------

TEST(Interp, ArithmeticAndPrecedence) {
  const ExecutionResult r = RunScript("print(2 + 3 * 4 - 6 / 2)");
  EXPECT_EQ(r.output, "11\n");
}

TEST(Interp, UnaryAndModulo) {
  // Modulo follows C's fmod (truncated): fmod(-5, 3) = -2.
  EXPECT_EQ(RunScript("print(-5 % 3)").output, "-2\n");
  EXPECT_EQ(RunScript("print(7 % 3)").output, "1\n");
  EXPECT_EQ(RunScript("print(-(2+3))").output, "-5\n");
}

TEST(Interp, ComparisonAndLogic) {
  EXPECT_EQ(RunScript("print(1 < 2 and 2 <= 2 and 3 > 2 and 3 >= 3)").output,
            "true\n");
  EXPECT_EQ(RunScript("print(1 == 1, 1 ~= 2, not false)").output,
            "true\ttrue\ttrue\n");
  EXPECT_EQ(RunScript("print(\"abc\" < \"abd\")").output, "true\n");
}

TEST(Interp, ShortCircuitSemantics) {
  // Lua semantics: and/or return operands; rhs not evaluated when decided.
  EXPECT_EQ(RunScript("print(false and undefined_variable)").output, "false\n");
  EXPECT_EQ(RunScript("print(7 or undefined_variable)").output, "7\n");
  EXPECT_EQ(RunScript("print(nil or \"fallback\")").output, "fallback\n");
}

TEST(Interp, StringConcat) {
  EXPECT_EQ(RunScript("print(\"n=\" .. 42)").output, "n=42\n");
  EXPECT_EQ(RunScript("print(1 .. 2)").output, "12\n");
}

TEST(Interp, Lists) {
  const char* src = R"(
local xs = {10, 20, 30}
xs[2] = 21
xs[4] = 40        -- append via size+1
print(xs[1], xs[2], xs[4], #xs, len(xs))
)";
  EXPECT_EQ(RunScript(src).output, "10\t21\t40\t4\t4\n");
}

TEST(Interp, ListsAreReferences) {
  const char* src = R"(
local a = {1}
local b = a
push(b, 2)
print(#a)
)";
  EXPECT_EQ(RunScript(src).output, "2\n");
}

TEST(Interp, ListCannotContainItself) {
  // A list stored into itself, directly or through a list it holds, would
  // form a reference cycle that is never freed: both kinds of store refuse.
  for (const char* src : {"local l = {}\npush(l, l)\n",
                          "local l = {}\nl[1] = l\n",
                          "local l = {}\nlocal box = {l}\npush(l, box)\n",
                          "local l = {1}\nlocal box = {{l}}\nl[1] = box\n"}) {
    const Error e = ScriptError(src);
    EXPECT_EQ(e.code, Errc::kScriptError) << src;
    EXPECT_NE(e.message.find(kListCycleError), std::string::npos) << src;
  }
  // Sharing one list many times over is not a cycle.
  EXPECT_EQ(RunScript("local a = {}\n"
                      "local b = {a, a}\n"
                      "push(b, a)\n"
                      "b[1] = {a, b[2]}\n"
                      "push(a, 1)\n"
                      "print(#b, #a)\n")
                .output,
            "3\t1\n");
}

TEST(Interp, ListIndexErrors) {
  EXPECT_EQ(ScriptError("local a = {1} print(a[0])").code, Errc::kScriptError);
  EXPECT_EQ(ScriptError("local a = {1} print(a[3])").code, Errc::kScriptError);
  EXPECT_EQ(ScriptError("local a = {1} a[5] = 1").code, Errc::kScriptError);
  EXPECT_EQ(ScriptError("local a = 1 print(a[1])").code, Errc::kScriptError);
}

TEST(Interp, UndefinedVariableIsError) {
  EXPECT_EQ(ScriptError("print(mystery)").code, Errc::kScriptError);
}

TEST(Interp, TypeErrorsAreReported) {
  EXPECT_EQ(ScriptError("print(1 + \"x\")").code, Errc::kScriptError);
  EXPECT_EQ(ScriptError("print(-\"x\")").code, Errc::kScriptError);
  EXPECT_EQ(ScriptError("print(#5)").code, Errc::kScriptError);
  EXPECT_EQ(ScriptError("print(1 < \"x\")").code, Errc::kScriptError);
}

// --- interpreter: statements -----------------------------------------------------

TEST(Interp, WhileLoopAndBreak) {
  const char* src = R"(
local i = 0
local total = 0
while true do
  i = i + 1
  if i > 10 then break end
  total = total + i
end
print(total)
)";
  EXPECT_EQ(RunScript(src).output, "55\n");
}

TEST(Interp, NumericForWithStep) {
  EXPECT_EQ(RunScript("local s = 0 for i = 10, 2, -2 do s = s + i end print(s)")
                .output,
            "30\n");
  EXPECT_EQ(RunScript("local s = 0 for i = 1, 0 do s = s + 1 end print(s)").output,
            "0\n");
  EXPECT_EQ(ScriptError("for i = 1, 5, 0 do end").code, Errc::kScriptError);
}

TEST(Interp, ScopingLocalsShadow) {
  const char* src = R"(
local x = 1
if true then
  local x = 2
  print(x)
end
print(x)
)";
  EXPECT_EQ(RunScript(src).output, "2\n1\n");
}

TEST(Interp, GlobalAssignmentFromNestedScope) {
  const char* src = R"(
if true then
  g = 42
end
print(g)
)";
  EXPECT_EQ(RunScript(src).output, "42\n");
}

TEST(Interp, FunctionsWithReturn) {
  const char* src = R"(
function add(a, b)
  return a + b
end
function fib(n)
  if n < 2 then return n end
  return fib(n - 1) + fib(n - 2)
end
print(add(2, 3), fib(10))
)";
  EXPECT_EQ(RunScript(src).output, "5\t55\n");
}

TEST(Interp, FunctionArityChecked) {
  EXPECT_EQ(ScriptError("function f(a) return a end print(f(1, 2))").code,
            Errc::kScriptError);
}

TEST(Interp, FunctionsDoNotSeeCallerBlockLocals) {
  // Top-level locals live in the global scope (there is no enclosing
  // function), but locals of an inner block must be invisible to called
  // functions.
  const char* src = R"(
function f()
  return hidden
end
if true then
  local hidden = 5
  print(f())
end
)";
  EXPECT_EQ(ScriptError(src).code, Errc::kScriptError);
}

TEST(Interp, FunctionsSeeGlobals) {
  const char* src = R"(
function f()
  return g + 1
end
g = 41
print(f())
)";
  EXPECT_EQ(RunScript(src).output, "42\n");
}

TEST(Interp, TopLevelReturnValue) {
  const ExecutionResult r = RunScript("return 6 * 7");
  ASSERT_TRUE(r.return_value.is_number());
  EXPECT_DOUBLE_EQ(r.return_value.as_number(), 42.0);
}

// --- whitelist & resource limits ---------------------------------------------------

TEST(Interp, UnregisteredFunctionIsPermissionDenied) {
  // §II-A: only whitelisted functions may be called.
  const Error err = ScriptError("delete_all_files()");
  EXPECT_EQ(err.code, Errc::kPermissionDenied);
  EXPECT_NE(err.message.find("whitelist"), std::string::npos);
}

TEST(Interp, HostFunctionCallable) {
  HostRegistry extra;
  extra.Register("get_fake_readings",
                 [](std::span<const Value>) -> Result<Value> {
                   return Value::MakeList({Value(1.0), Value(2.0)});
                 });
  const ExecutionResult r =
      RunScript("local xs = get_fake_readings() print(mean(xs))", &extra);
  EXPECT_EQ(r.output, "1.5\n");
}

TEST(Interp, HostErrorsPropagateWithContext) {
  HostRegistry host;
  InstallStdlib(host);
  host.Register("get_broken", [](std::span<const Value>) -> Result<Value> {
    return Error{Errc::kTimeout, "sensor timed out"};
  });
  Result<ExecutionResult> r = Execute("get_broken()", host);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::kTimeout);
  EXPECT_NE(r.error().message.find("get_broken"), std::string::npos);
}

TEST(Interp, CannotShadowHostFunctions) {
  EXPECT_EQ(ScriptError("function len(x) return 0 end").code,
            Errc::kScriptError);
}

TEST(Interp, InstructionBudgetKillsInfiniteLoop) {
  InterpreterOptions opts;
  opts.max_steps = 10'000;
  const Error err = ScriptError("while true do end", opts);
  EXPECT_EQ(err.code, Errc::kScriptError);
  EXPECT_NE(err.message.find("budget"), std::string::npos);
}

TEST(Interp, CallDepthLimited) {
  InterpreterOptions opts;
  opts.max_call_depth = 16;
  const Error err =
      ScriptError("function f(n) return f(n + 1) end print(f(0))", opts);
  EXPECT_EQ(err.code, Errc::kScriptError);
}

TEST(Interp, StepsReported) {
  // AST evaluations: the statement, the `+` node and its two operands. The
  // optimizer folds the sum into one constant but keeps all four ticks.
  EXPECT_EQ(RunScript("local x = 1 + 2").steps, 4u);
  // `local s = 0` takes 2; the `for` statement and its two bounds 3; each
  // of the 3 iterations 1 for entering the body and 4 for `s = s + i`.
  EXPECT_EQ(RunScript("local s = 0 for i = 1, 3 do s = s + i end").steps,
            2u + 3u + 3u * (1u + 4u));
}

// --- stdlib -------------------------------------------------------------------

TEST(Stdlib, MathHelpers) {
  EXPECT_EQ(RunScript("print(abs(-3), floor(2.7), ceil(2.2), sqrt(16))").output,
            "3\t2\t3\t4\n");
  EXPECT_EQ(RunScript("print(min(3, 1, 2), max(3, 1, 2))").output, "1\t3\n");
  EXPECT_EQ(ScriptError("print(sqrt(-1))").code, Errc::kScriptError);
}

TEST(Stdlib, Conversions) {
  EXPECT_EQ(RunScript("print(tostring(1.5), tonumber(\"2.5\") + 1)").output,
            "1.5\t3.5\n");
  EXPECT_EQ(RunScript("print(tonumber(\"abc\"))").output, "nil\n");
}

TEST(Stdlib, StatisticsOverLists) {
  const char* src = R"(
local xs = {2, 4, 4, 4, 5, 5, 7, 9}
print(mean(xs), variance(xs), stddev(xs))
)";
  EXPECT_EQ(RunScript(src).output, "5\t4\t2\n");
}

TEST(Stdlib, ArgumentValidation) {
  EXPECT_EQ(ScriptError("mean(5)").code, Errc::kScriptError);
  EXPECT_EQ(ScriptError("push(1, 2)").code, Errc::kScriptError);
  EXPECT_EQ(ScriptError("len()").code, Errc::kScriptError);
  EXPECT_EQ(ScriptError("abs(\"x\")").code, Errc::kScriptError);
}

}  // namespace
}  // namespace sor::script
