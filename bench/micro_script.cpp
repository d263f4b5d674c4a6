// micro_script — what a SenseScript run costs on a phone.
//
// One JSON object on stdout for the one executor a phone has, the
// optimized IR, on two workloads:
//
//   * sensing        — the shape of a real sensing task: one acquisition,
//                      a reduction loop over the samples, two stdlib calls
//   * loop_heavy_10k — a 10'000-iteration arithmetic loop, the worst case
//                      the analyzer's step budget is protecting against
//
// A task compiles its script once (parse + lower + optimize, reported as
// one one-shot cost) and executes the module at every scheduled instant
// (the per-run cost, with the AST steps each run retires). Loop timings
// use steady_clock around a fixed iteration count with an empty-asm sink,
// same discipline as micro_db. BENCH_micro_script.json records a blessed
// run.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>

#include "script/analysis/passes.hpp"
#include "script/ir/exec.hpp"
#include "script/ir/lower.hpp"
#include "script/parser.hpp"
#include "json_gate.hpp"

namespace {

using Clock = std::chrono::steady_clock;
namespace script = sor::script;

template <typename T>
inline void Sink(T&& v) {
  asm volatile("" : : "g"(v) : "memory");
}

double NsPerOp(Clock::time_point t0, Clock::time_point t1,
               std::uint64_t iters) {
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(iters);
}

const char* kSensingScript = R"(
local readings = get_fake_readings(10)
local sum = 0
for i = 1, len(readings) do
  sum = sum + readings[i]
end
local avg = sum / len(readings)
local sd = stddev(readings)
result = avg + sd
)";

const char* kLoopHeavyScript =
    "local s = 0\nfor i = 1, 10000 do s = s + i end\nreturn s";

script::HostRegistry MakeHost() {
  script::HostRegistry host;
  script::InstallStdlib(host);
  host.Register("get_fake_readings",
                [](std::span<const script::Value> args)
                    -> sor::Result<script::Value> {
                  int n = 10;
                  if (!args.empty() && args[0].is_number())
                    n = static_cast<int>(args[0].as_number());
                  script::List values;
                  for (int i = 0; i < n; ++i)
                    values.emplace_back(9.8 + 0.01 * i);
                  return script::Value(
                      std::make_shared<script::List>(std::move(values)));
                });
  return host;
}

// Parse + lower + optimize: the compile each task does once, inside its
// static analysis.
script::ir::Module Compile(const char* source) {
  script::ir::Module mod = script::ir::Lower(script::Parse(source).value());
  script::analysis::OptimizeModule(mod);
  return mod;
}

double BenchCompile(const char* source, std::uint64_t iters) {
  auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    auto mod = Compile(source);
    Sink(mod.functions.size());
  }
  return NsPerOp(t0, Clock::now(), iters);
}

struct RunCost {
  double ns = 0;
  std::uint64_t steps = 0;
};

RunCost BenchRun(const char* source, const script::HostRegistry& host,
                 std::uint64_t iters) {
  const script::ir::Module mod = Compile(source);
  const script::InterpreterOptions opts;
  RunCost out;
  out.steps = script::ir::Execute(mod, host, opts).value().steps;
  auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    auto r = script::ir::Execute(mod, host, opts);
    Sink(r.ok());
  }
  out.ns = NsPerOp(t0, Clock::now(), iters);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  sor::bench::RequireCleanTree(argc, argv);
  const script::HostRegistry host = MakeHost();

  const double compile_ns = BenchCompile(kSensingScript, 20'000);
  const RunCost sensing = BenchRun(kSensingScript, host, 50'000);
  const RunCost loop = BenchRun(kLoopHeavyScript, host, 1'000);

  std::printf("{\n  \"bench\": \"micro_script\",\n");
  std::printf("  \"host_threads\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"build_type\": \"%s\",\n", SOR_BUILD_TYPE);
  std::printf("  \"git_sha\": \"%s\",\n", SOR_GIT_SHA);
  std::printf("  \"one_shot_ns\": { \"compile_sensing\": %.1f },\n",
              compile_ns);
  std::printf("  \"per_run\": {\n");
  std::printf("    \"sensing\": { \"ir_opt_ns\": %.1f, \"steps\": %llu },\n",
              sensing.ns, static_cast<unsigned long long>(sensing.steps));
  std::printf("    \"loop_heavy_10k\": "
              "{ \"ir_opt_ns\": %.1f, \"steps\": %llu }\n",
              loop.ns, static_cast<unsigned long long>(loop.steps));
  std::printf("  }\n}\n");
  return 0;
}
