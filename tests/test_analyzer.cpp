// SenseScript static analyzer: one rejecting test and one accepting
// near-miss per diagnostic code, manifest/cost checks, the diagnostics
// plumbing, and a seeded random-source property test that drives
// lexer→parser→analyzer without crashing (runs under asan-ubsan in CI).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "script/analysis/analyzer.hpp"
#include "script/analysis/diagnostics.hpp"
#include "script/analysis/flow_manifest.hpp"
#include "script/host_api.hpp"
#include "script/interpreter.hpp"
#include "script/ir/exec.hpp"
#include "script/ir/ir.hpp"
#include "sensors/energy.hpp"

namespace sor::script::analysis {
namespace {

AnalysisReport Analyzed(const std::string& source,
                   const AnalyzerOptions& options = {}) {
  return AnalyzeSource(source, options);
}

// --- SA001: lex/parse failure ----------------------------------------------

TEST(Analyzer, SA001ParseErrorBecomesDiagnostic) {
  const AnalysisReport r = Analyzed("local = 3\n");
  EXPECT_TRUE(r.Has("SA001"));
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.diagnostics.empty());
  EXPECT_EQ(r.diagnostics[0].line, 1);
  EXPECT_FALSE(r.manifest.cost_bounded);
}

TEST(Analyzer, SA001NearMissValidLocalPasses) {
  const AnalysisReport r = Analyzed("local x = 3\nprint(x)\n");
  EXPECT_FALSE(r.Has("SA001"));
  EXPECT_TRUE(r.ok());
}

// --- SA101: undefined name ---------------------------------------------------

TEST(Analyzer, SA101UndefinedNameRejected) {
  const AnalysisReport r = Analyzed("print(nowhere)\n");
  EXPECT_TRUE(r.Has("SA101"));
  EXPECT_FALSE(r.ok());
}

TEST(Analyzer, SA101NearMissAssignedNamePasses) {
  const AnalysisReport r = Analyzed("somewhere = 1\nprint(somewhere)\n");
  EXPECT_FALSE(r.Has("SA101"));
  EXPECT_TRUE(r.ok());
}

// --- SA102: use of possibly-unassigned variable ------------------------------

TEST(Analyzer, SA102OneBranchAssignmentWarns) {
  const AnalysisReport r = Analyzed(
      "local a = get_time_s()\n"
      "if a > 0 then\n"
      "  b = 1\n"
      "end\n"
      "print(b)\n");
  EXPECT_TRUE(r.Has("SA102"));
  EXPECT_TRUE(r.ok());  // warning, not error
}

TEST(Analyzer, SA102NearMissBothBranchesAssignPasses) {
  const AnalysisReport r = Analyzed(
      "local a = get_time_s()\n"
      "if a > 0 then\n"
      "  b = 1\n"
      "else\n"
      "  b = 2\n"
      "end\n"
      "print(b)\n");
  EXPECT_FALSE(r.Has("SA102"));
}

// --- SA103: shadowing --------------------------------------------------------

TEST(Analyzer, SA103InnerLocalShadowsOuterWarns) {
  const AnalysisReport r = Analyzed(
      "local x = 1\n"
      "if x > 0 then\n"
      "  local x = 2\n"
      "  print(x)\n"
      "end\n");
  EXPECT_TRUE(r.Has("SA103"));
  EXPECT_TRUE(r.ok());
}

TEST(Analyzer, SA103NearMissDistinctNamesPass) {
  const AnalysisReport r = Analyzed(
      "local x = 1\n"
      "if x > 0 then\n"
      "  local y = 2\n"
      "  print(y)\n"
      "end\n");
  EXPECT_FALSE(r.Has("SA103"));
}

// --- SA104: unreachable statement --------------------------------------------

TEST(Analyzer, SA104StatementAfterReturnWarns) {
  const AnalysisReport r = Analyzed(
      "function f()\n"
      "  return 1\n"
      "  print(\"dead\")\n"
      "end\n"
      "local r = f()\n"
      "print(r)\n");
  EXPECT_TRUE(r.Has("SA104"));
  EXPECT_TRUE(r.ok());
}

TEST(Analyzer, SA104NearMissReturnLastPasses) {
  const AnalysisReport r = Analyzed(
      "function f()\n"
      "  print(\"live\")\n"
      "  return 1\n"
      "end\n"
      "local r = f()\n"
      "print(r)\n");
  EXPECT_FALSE(r.Has("SA104"));
}

// --- SA105: break outside loop -----------------------------------------------

TEST(Analyzer, SA105TopLevelBreakRejected) {
  const AnalysisReport r = Analyzed("break\n");
  EXPECT_TRUE(r.Has("SA105"));
  EXPECT_FALSE(r.ok());
}

TEST(Analyzer, SA105NearMissBreakInsideLoopPasses) {
  const AnalysisReport r = Analyzed(
      "while true do\n"
      "  break\n"
      "end\n");
  EXPECT_FALSE(r.Has("SA105"));
  EXPECT_TRUE(r.ok());
}

// --- SA106: function shadows a host function ---------------------------------

TEST(Analyzer, SA106RedefiningHostFunctionRejected) {
  const AnalysisReport r = Analyzed(
      "function mean(xs)\n"
      "  return 0\n"
      "end\n");
  EXPECT_TRUE(r.Has("SA106"));
  EXPECT_FALSE(r.ok());
}

TEST(Analyzer, SA106NearMissFreshNamePasses) {
  const AnalysisReport r = Analyzed(
      "function center(xs)\n"
      "  return mean(xs)\n"
      "end\n"
      "local c = center({1, 2, 3})\n"
      "print(c)\n");
  EXPECT_FALSE(r.Has("SA106"));
}

// --- SA107: top-level call before definition ---------------------------------

TEST(Analyzer, SA107CallBeforeDefinitionWarns) {
  const AnalysisReport r = Analyzed(
      "early()\n"
      "function early()\n"
      "  print(\"hi\")\n"
      "end\n");
  EXPECT_TRUE(r.Has("SA107"));
}

TEST(Analyzer, SA107NearMissDefinitionFirstPasses) {
  const AnalysisReport r = Analyzed(
      "function early()\n"
      "  print(\"hi\")\n"
      "end\n"
      "early()\n");
  EXPECT_FALSE(r.Has("SA107"));
  EXPECT_TRUE(r.ok());
}

// --- SA201: operator type mismatch -------------------------------------------

TEST(Analyzer, SA201StringPlusNumberRejected) {
  const AnalysisReport r = Analyzed("local x = \"a\" + 1\nprint(x)\n");
  EXPECT_TRUE(r.Has("SA201"));
  EXPECT_FALSE(r.ok());
}

TEST(Analyzer, SA201NearMissConcatPasses) {
  const AnalysisReport r = Analyzed(
      "local x = \"a\" .. tostring(1)\nprint(x)\n");
  EXPECT_FALSE(r.Has("SA201"));
  EXPECT_TRUE(r.ok());
}

// --- SA202: host-function argument mismatch ----------------------------------

TEST(Analyzer, SA202LenOfNumberRejected) {
  const AnalysisReport r = Analyzed("local n = len(5)\nprint(n)\n");
  EXPECT_TRUE(r.Has("SA202"));
  EXPECT_FALSE(r.ok());
}

TEST(Analyzer, SA202NearMissLenOfStringPasses) {
  const AnalysisReport r = Analyzed("local n = len(\"abc\")\nprint(n)\n");
  EXPECT_FALSE(r.Has("SA202"));
  EXPECT_TRUE(r.ok());
}

// --- SA203: script-function arity mismatch -----------------------------------

TEST(Analyzer, SA203WrongArgumentCountRejected) {
  const AnalysisReport r = Analyzed(
      "function add(a, b)\n"
      "  return a + b\n"
      "end\n"
      "local r = add(1)\n"
      "print(r)\n");
  EXPECT_TRUE(r.Has("SA203"));
  EXPECT_FALSE(r.ok());
}

TEST(Analyzer, SA203NearMissCorrectArityPasses) {
  const AnalysisReport r = Analyzed(
      "function add(a, b)\n"
      "  return a + b\n"
      "end\n"
      "local r = add(1, 2)\n"
      "print(r)\n");
  EXPECT_FALSE(r.Has("SA203"));
  EXPECT_TRUE(r.ok());
}

// --- SA301: call outside the whitelist ---------------------------------------

TEST(Analyzer, SA301UnknownFunctionRejected) {
  const AnalysisReport r = Analyzed("delete_all_files()\n");
  EXPECT_TRUE(r.Has("SA301"));
  EXPECT_FALSE(r.ok());
}

TEST(Analyzer, SA301NearMissExtraHostFnAccepted) {
  AnalyzerOptions options;
  options.extra_host_fns = {"delete_all_files"};
  const AnalysisReport r = Analyzed("delete_all_files()\n", options);
  EXPECT_FALSE(r.Has("SA301"));
  EXPECT_TRUE(r.ok());
}

// --- SA302: sensor unavailable on target device ------------------------------

TEST(Analyzer, SA302MissingSensorRejected) {
  AnalyzerOptions options;
  options.available_sensors = {{SensorKind::kMicrophone}};
  const AnalysisReport r = Analyzed("local fix = get_location()\nprint(fix)\n",
                               options);
  EXPECT_TRUE(r.Has("SA302"));
  EXPECT_FALSE(r.ok());
}

TEST(Analyzer, SA302NearMissSensorPresentPasses) {
  AnalyzerOptions options;
  options.available_sensors = {{SensorKind::kGps}};
  const AnalysisReport r = Analyzed("local fix = get_location()\nprint(fix)\n",
                               options);
  EXPECT_FALSE(r.Has("SA302"));
  EXPECT_TRUE(r.ok());
}

// --- SA401: unboundable loop -------------------------------------------------

TEST(Analyzer, SA401WhileTrueWithoutBreakRejected) {
  const AnalysisReport r = Analyzed(
      "while true do\n"
      "  print(\"spin\")\n"
      "end\n");
  EXPECT_TRUE(r.Has("SA401"));
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.manifest.cost_bounded);
}

TEST(Analyzer, SA401NearMissInductionBoundPasses) {
  const AnalysisReport r = Analyzed(
      "local i = 0\n"
      "while i < 10 do\n"
      "  i = i + 1\n"
      "end\n"
      "print(i)\n");
  EXPECT_FALSE(r.Has("SA401"));
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.manifest.cost_bounded);
}

// --- SA402: recursion --------------------------------------------------------

TEST(Analyzer, SA402RecursionRejected) {
  const AnalysisReport r = Analyzed(
      "function f(n)\n"
      "  return f(n)\n"
      "end\n"
      "local r = f(1)\n"
      "print(r)\n");
  EXPECT_TRUE(r.Has("SA402"));
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.manifest.cost_bounded);
}

TEST(Analyzer, SA402NearMissNonRecursiveChainPasses) {
  const AnalysisReport r = Analyzed(
      "function g(n)\n"
      "  return n + 1\n"
      "end\n"
      "function f(n)\n"
      "  return g(n)\n"
      "end\n"
      "local r = f(1)\n"
      "print(r)\n");
  EXPECT_FALSE(r.Has("SA402"));
  EXPECT_TRUE(r.ok());
}

// --- SA403: energy over budget -----------------------------------------------

TEST(Analyzer, SA403OverBudgetRejectedWithLine) {
  AnalyzerOptions options;
  options.energy_budget_mj = 100.0;  // 3 GPS fixes cost 450 mJ
  const AnalysisReport r = Analyzed(
      "local warmup = get_time_s()\n"
      "local fix = get_location(3)\n"
      "print(warmup)\n",
      options);
  ASSERT_TRUE(r.Has("SA403"));
  EXPECT_FALSE(r.ok());
  for (const Diagnostic& d : r.diagnostics) {
    if (d.code == "SA403") {
      EXPECT_EQ(d.line, 2);
    }
  }
}

TEST(Analyzer, SA403NearMissWithinBudgetPasses) {
  AnalyzerOptions options;
  options.energy_budget_mj = 1000.0;
  const AnalysisReport r = Analyzed("local fix = get_location(3)\nprint(fix)\n",
                               options);
  EXPECT_FALSE(r.Has("SA403"));
  EXPECT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.manifest.worst_case_energy_mj, 450.0);
}

// --- SA404: steps exceed interpreter budget ----------------------------------

TEST(Analyzer, SA404HugeBoundedLoopRejected) {
  const AnalysisReport r = Analyzed(
      "for i = 1, 10000000 do\n"
      "  print(i)\n"
      "end\n");
  EXPECT_TRUE(r.Has("SA404"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.manifest.cost_bounded);  // bounded — just too expensive
}

TEST(Analyzer, SA404NearMissModestLoopPasses) {
  const AnalysisReport r = Analyzed(
      "for i = 1, 1000 do\n"
      "  print(i)\n"
      "end\n");
  EXPECT_FALSE(r.Has("SA404"));
  EXPECT_TRUE(r.ok());
}

// --- SA405: non-static sample count ------------------------------------------

TEST(Analyzer, SA405DynamicSampleCountWarns) {
  const AnalysisReport r = Analyzed(
      "local n = get_time_s()\n"
      "local readings = get_noise_readings(n)\n"
      "print(len(readings))\n");
  EXPECT_TRUE(r.Has("SA405"));
  EXPECT_TRUE(r.ok());
}

TEST(Analyzer, SA405NearMissLiteralCountPasses) {
  const AnalysisReport r = Analyzed(
      "local readings = get_noise_readings(4)\n"
      "print(len(readings))\n");
  EXPECT_FALSE(r.Has("SA405"));
  EXPECT_TRUE(r.ok());
}

// --- SA501: flow-sensitive use before assignment -----------------------------

TEST(Analyzer, SA501NoPathAssignsBeforeUseRejected) {
  // 'y' is assigned somewhere (so SA101 stays quiet), but no assignment
  // can reach the use — the flow-sensitive pass upgrades the syntactic
  // may-be-unassigned warning to an error.
  const AnalysisReport r = Analyzed(
      "print(y)\n"
      "y = 1\n");
  EXPECT_TRUE(r.Has("SA501"));
  EXPECT_FALSE(r.ok());
}

TEST(Analyzer, SA501NearMissEveryPathAssignsPasses) {
  const AnalysisReport r = Analyzed(
      "if get_time_s() > 0 then\n"
      "  x = 1\n"
      "else\n"
      "  x = 2\n"
      "end\n"
      "print(x)\n");
  EXPECT_FALSE(r.Has("SA501"));
  EXPECT_TRUE(r.ok());
}

// --- SA502: dead store -------------------------------------------------------

TEST(Analyzer, SA502OverwrittenLocalStoreWarns) {
  // Function bodies have true locals (top-level locals are globals), so
  // the overwritten initializer is a per-occurrence dead store.
  const AnalysisReport r = Analyzed(
      "function f()\n"
      "  local acc = 1\n"
      "  acc = 2\n"
      "  return acc\n"
      "end\n"
      "print(f())\n");
  EXPECT_TRUE(r.Has("SA502"));
  EXPECT_TRUE(r.ok());  // warning only
}

TEST(Analyzer, SA502NeverReadGlobalWarns) {
  const AnalysisReport r = Analyzed(
      "g = 5\n"
      "print(1)\n");
  EXPECT_TRUE(r.Has("SA502"));
  EXPECT_TRUE(r.ok());
}

TEST(Analyzer, SA502NearMissBothStoresReadPasses) {
  const AnalysisReport r = Analyzed(
      "function f()\n"
      "  local acc = 1\n"
      "  print(acc)\n"
      "  acc = 2\n"
      "  return acc\n"
      "end\n"
      "print(f())\n");
  EXPECT_FALSE(r.Has("SA502"));
  EXPECT_TRUE(r.ok());
}

// --- SA503: constant condition -----------------------------------------------

TEST(Analyzer, SA503ConstantComparisonWarns) {
  const AnalysisReport r = Analyzed(
      "if 1 < 2 then\n"
      "  print(\"always\")\n"
      "end\n");
  EXPECT_TRUE(r.Has("SA503"));
  EXPECT_TRUE(r.ok());
}

TEST(Analyzer, SA503NearMissWhileTrueBreakIdiomPasses) {
  // `while true do ... break end` is the idiomatic bounded reader; the
  // constant-true head is deliberately not reported.
  const AnalysisReport r = Analyzed(
      "local n = 0\n"
      "while true do\n"
      "  n = n + 1\n"
      "  if n >= 3 then\n"
      "    break\n"
      "  end\n"
      "end\n"
      "print(n)\n");
  EXPECT_FALSE(r.Has("SA503"));
  // The cost pass still (correctly) rejects the loop as unboundable —
  // SA503 suppression is about not piling a misleading "condition is
  // always true" on top of that.
  EXPECT_TRUE(r.Has("SA401"));
}

// --- SA504: unreachable via constant condition -------------------------------

TEST(Analyzer, SA504ConstantFalseBranchUnreachable) {
  const AnalysisReport r = Analyzed(
      "if 2 < 1 then\n"
      "  print(\"never\")\n"
      "end\n"
      "print(\"after\")\n");
  EXPECT_TRUE(r.Has("SA504"));
  EXPECT_TRUE(r.ok());
}

TEST(Analyzer, SA504NearMissDynamicConditionPasses) {
  const AnalysisReport r = Analyzed(
      "if get_time_s() > 0 then\n"
      "  print(\"maybe\")\n"
      "end\n");
  EXPECT_FALSE(r.Has("SA504"));
  EXPECT_TRUE(r.ok());
}

// --- SA505: acquisition feeds no output --------------------------------------

TEST(Analyzer, SA505UnusedAcquisitionWarns) {
  const AnalysisReport r = Analyzed(
      "local xs = get_noise_readings(4)\n"
      "print(\"done\")\n");
  EXPECT_TRUE(r.Has("SA505"));
  EXPECT_TRUE(r.ok());
}

TEST(Analyzer, SA505NearMissOutputDependsOnSensorPasses) {
  const AnalysisReport r = Analyzed(
      "local xs = get_noise_readings(4)\n"
      "print(len(xs))\n");
  EXPECT_FALSE(r.Has("SA505"));
  EXPECT_TRUE(r.ok());
}

// --- information-flow manifest -----------------------------------------------

TEST(FlowManifest, AnalyzerComputesSitesWithSensors) {
  const AnalysisReport r = Analyzed(
      "local xs = get_noise_readings(4)\n"
      "print(len(xs))\n"
      "print(\"static\")\n");
  ASSERT_EQ(r.flow.sites.size(), 3u);
  EXPECT_EQ(r.flow.sites[0].kind, FlowSite::Kind::kAcquire);
  EXPECT_EQ(r.flow.sites[0].line, 1);
  ASSERT_EQ(r.flow.sites[0].sensors.size(), 1u);
  EXPECT_EQ(r.flow.sites[0].sensors[0], SensorKind::kMicrophone);
  EXPECT_EQ(r.flow.sites[1].kind, FlowSite::Kind::kPrint);
  EXPECT_EQ(r.flow.sites[1].sensors,
            std::vector<SensorKind>{SensorKind::kMicrophone});
  // The constant print carries no sensor data.
  EXPECT_EQ(r.flow.sites[2].line, 3);
  EXPECT_TRUE(r.flow.sites[2].sensors.empty());
}

TEST(FlowManifest, ImplicitFlowThroughBranchIsTracked) {
  // The printed value is a constant, but WHICH constant depends on the
  // sensed reading — an implicit flow the taint pass must catch.
  const AnalysisReport r = Analyzed(
      "local xs = get_noise_readings(4)\n"
      "local label = \"quiet\"\n"
      "if len(xs) > 0 then\n"
      "  label = \"noisy\"\n"
      "end\n"
      "print(label)\n");
  ASSERT_EQ(r.flow.sites.size(), 2u);
  EXPECT_EQ(r.flow.sites[1].kind, FlowSite::Kind::kPrint);
  EXPECT_EQ(r.flow.sites[1].sensors,
            std::vector<SensorKind>{SensorKind::kMicrophone});
}

TEST(FlowManifest, EncodeDecodeRoundTrip) {
  const AnalysisReport r = Analyzed(
      "local xs = get_noise_readings(4)\n"
      "local fixes = get_location(3)\n"
      "print(len(xs) + len(fixes))\n");
  const std::string encoded = EncodeFlowManifest(r.flow);
  EXPECT_EQ(encoded,
            "acquire@1=microphone;acquire@2=gps;print@3=gps,microphone");
  const auto decoded = DecodeFlowManifest(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), r.flow);
}

// --- bounds of the shipped scripts may tighten, never loosen ---------------

// Worst-case manifests of the shipped scripts when each loop bound was the
// minimum of an AST and an IR interval analysis. The one analysis left
// must stay at or below them.
struct PinnedBound {
  double steps;
  double acquisitions;
  double energy_mj;
};

void ExpectNoLooserThan(const std::string& source, const PinnedBound& pin,
                        const std::string& label) {
  const AnalysisReport r = AnalyzeSource(source);
  ASSERT_TRUE(r.manifest.cost_bounded) << label;
  EXPECT_LE(r.manifest.worst_case_steps, pin.steps) << label;
  EXPECT_LE(r.manifest.worst_case_acquisitions, pin.acquisitions) << label;
  EXPECT_LE(r.manifest.worst_case_energy_mj, pin.energy_mj + 1e-9) << label;
}

TEST(Analyzer, BoundsNoLooserThanPinnedOnAllExampleScripts) {
  const std::map<std::string, PinnedBound> pinned = {
      {"air_quality.sor", {91, 16, 128}},
      {"coffee_shop.sor", {25, 23, 420}},
      {"hiking_trail.sor", {29, 43, 2338.4}},
      {"noise_survey.sor", {105, 12, 60}},
  };
  const std::filesystem::path dir = SOR_EXAMPLE_SCRIPTS_DIR;
  int seen = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".sor") continue;
    const std::string name = entry.path().filename().string();
    const auto pin = pinned.find(name);
    ASSERT_NE(pin, pinned.end()) << "no pinned bound for " << name;
    std::ifstream in(entry.path());
    ASSERT_TRUE(in.good()) << entry.path();
    std::ostringstream buf;
    buf << in.rdbuf();
    ExpectNoLooserThan(buf.str(), pin->second, name);
    ++seen;
  }
  EXPECT_EQ(seen, 4);
}

TEST(Analyzer, BoundsNoLooserThanPinnedOnBuiltins) {
  ExpectNoLooserThan(core::DefaultScript(world::PlaceCategory::kHikingTrail),
                     {29, 43, 2338.4}, "trails");
  ExpectNoLooserThan(core::DefaultScript(world::PlaceCategory::kCoffeeShop),
                     {25, 23, 420}, "coffee");
}

// --- manifest & cost ---------------------------------------------------------

TEST(Analyzer, DefaultTrailScriptCleanWithExpectedManifest) {
  const AnalysisReport r = Analyzed(
      core::DefaultScript(world::PlaceCategory::kHikingTrail));
  EXPECT_TRUE(r.diagnostics.empty())
      << Render(std::span<const Diagnostic>(r.diagnostics));
  const std::vector<SensorKind> want = {
      SensorKind::kAccelerometer, SensorKind::kGps, SensorKind::kBarometer,
      SensorKind::kDroneTemperature, SensorKind::kDroneHumidity};
  EXPECT_EQ(r.manifest.required_sensors, want);
  // 5×8 (temp) + 5×8 (humidity) + 12×0.5 (accel) + 6×0.4 (baro) + 15×150
  // (GPS) = 2338.4 mJ.
  EXPECT_NEAR(r.manifest.worst_case_energy_mj, 2338.4, 1e-9);
  EXPECT_TRUE(r.manifest.cost_bounded);
}

TEST(Analyzer, DefaultCoffeeScriptClean) {
  const AnalysisReport r = Analyzed(
      core::DefaultScript(world::PlaceCategory::kCoffeeShop));
  EXPECT_TRUE(r.diagnostics.empty())
      << Render(std::span<const Diagnostic>(r.diagnostics));
  EXPECT_NEAR(r.manifest.worst_case_energy_mj, 420.0, 1e-9);
}

TEST(Analyzer, ManifestCountsLoopScaledAcquisitions) {
  const AnalysisReport r = Analyzed(
      "local i = 0\n"
      "while i < 3 do\n"
      "  local xs = get_noise_readings(4)\n"
      "  print(len(xs))\n"
      "  i = i + 1\n"
      "end\n");
  EXPECT_TRUE(r.ok());
  // The induction bound is exact: 3 trips.
  EXPECT_DOUBLE_EQ(r.manifest.worst_case_acquisitions, 12.0);
  EXPECT_DOUBLE_EQ(r.manifest.worst_case_energy_mj, 60.0);
}

// --- lists grown by push: bounds must cover what a run does ------------------

// What one run of `source` does: acquisitions, their energy, and the AST
// steps. The sensors return the full sample count, or, denied, an empty
// list (as TaskInstance::Acquire does); either way the samples are asked for.
struct Observed {
  double acquisitions = 0;
  double energy_mj = 0;
  std::uint64_t steps = 0;
};

enum class Sensors { kFull, kDenied };

Observed RunCounting(const std::string& source,
                     Sensors sensors = Sensors::kFull) {
  Observed seen;
  HostRegistry host;
  InstallStdlib(host);
  for (const HostSignature& sig : HostSignatures()) {
    if (!sig.sensor.has_value()) continue;
    const SensorKind kind = *sig.sensor;
    host.Register(std::string(sig.name),
                  [kind, sensors,
                   &seen](std::span<const Value> args) -> Result<Value> {
                    int samples = 5;
                    if (!args.empty() && args[0].is_number())
                      samples = static_cast<int>(args[0].as_number());
                    seen.acquisitions += samples;
                    seen.energy_mj +=
                        samples * sensors::AcquisitionEnergyMj(kind);
                    if (sensors == Sensors::kDenied) return Value::MakeList();
                    return Value::MakeList(
                        List(static_cast<std::size_t>(samples), Value(1.0)));
                  });
  }
  ir::Module module;
  (void)AnalyzeSource(source, {}, &module);
  const Result<ExecutionResult> run = ir::Execute(module, host, {});
  EXPECT_TRUE(run.ok()) << run.error().str();
  if (run.ok()) seen.steps = run.value().steps;
  return seen;
}

void ExpectBoundsCoverARun(const std::string& source,
                           Sensors sensors = Sensors::kFull) {
  const AnalysisReport r = Analyzed(source);
  ASSERT_TRUE(r.manifest.cost_bounded)
      << Render(std::span<const Diagnostic>(r.diagnostics));
  const Observed seen = RunCounting(source, sensors);
  EXPECT_GT(seen.acquisitions, 0);
  EXPECT_GE(r.manifest.worst_case_acquisitions, seen.acquisitions) << source;
  EXPECT_GE(r.manifest.worst_case_energy_mj, seen.energy_mj) << source;
  EXPECT_GE(r.manifest.worst_case_steps, static_cast<double>(seen.steps))
      << source;
}

TEST(AnalyzerPush, ForLoopGrownListBoundsTheNextLoop) {
  const std::string src =
      "local l = {}\n"
      "for i = 1, 1000 do push(l, i) end\n"
      "for i = 1, len(l) do local t = get_temperature_readings(5) end\n";
  ExpectBoundsCoverARun(src);
  // 5000 acquisitions at 8 mJ: over the server's default 5000 mJ budget,
  // exactly as the same loop written `for i = 1, 1000` is.
  AnalyzerOptions server;
  server.energy_budget_mj = 5000;
  EXPECT_TRUE(Analyzed(src, server).Has("SA403"));
}

TEST(AnalyzerPush, GrowthThroughAnAliasReachesTheList) {
  ExpectBoundsCoverARun(
      "local a = {}\n"
      "local b = a\n"
      "push(b, 1)\n"
      "push(b, 2)\n"
      "push(b, 3)\n"
      "for i = 1, len(a) do local t = get_temperature_readings(5) end\n");
}

TEST(AnalyzerPush, FunctionPushingOntoItsArgument) {
  ExpectBoundsCoverARun(
      "function fill(l)\n"
      "  for i = 1, 10 do push(l, i) end\n"
      "end\n"
      "local a = {}\n"
      "fill(a)\n"
      "for i = 1, len(a) do local t = get_temperature_readings(5) end\n");
}

TEST(AnalyzerPush, WhileLoopGrownList) {
  ExpectBoundsCoverARun(
      "local l = {}\n"
      "local n = 0\n"
      "while n < 20 do\n"
      "  push(l, n)\n"
      "  n = n + 1\n"
      "end\n"
      "for i = 1, len(l) do local t = get_temperature_readings(5) end\n");
}

TEST(AnalyzerPush, GrowthThroughAContainedReference) {
  // The list is reachable as an element of another list; a push through
  // that element must still count against it.
  ExpectBoundsCoverARun(
      "local a = {}\n"
      "local box = {a}\n"
      "for i = 1, 4 do push(box[1], i) end\n"
      "for i = 1, len(a) do local t = get_temperature_readings(5) end\n");
}

TEST(AnalyzerPush, PushInsideTheLoopThatReadsTheLength) {
  // A while loop whose limit grows with every iteration cannot be bounded.
  const AnalysisReport r = Analyzed(
      "local l = {1}\n"
      "local i = 0\n"
      "while i < len(l) do\n"
      "  push(l, i)\n"
      "  i = i + 1\n"
      "end\n");
  EXPECT_TRUE(r.Has("SA401"));
}

// --- loop exits: the state after a loop covers every way out of it -------

// `x = 5` runs only if the loop does; the loop after it may read 100.
const char* const kZeroTripFor =
    "x = 100\n"
    "for i = 1, 0 do x = 5 end\n"
    "for j = 1, x do local t = get_temperature_readings(5) end\n";

TEST(AnalyzerLoopExit, ForLoopThatMayNotRun) {
  ExpectBoundsCoverARun(kZeroTripFor);
}

TEST(AnalyzerLoopExit, WhileLoopThatMayNotRun) {
  ExpectBoundsCoverARun(
      "x = 100\n"
      "local k = 0\n"
      "while k < 0 do\n"
      "  x = 5\n"
      "  k = k + 1\n"
      "end\n"
      "for j = 1, x do local t = get_temperature_readings(5) end\n");
}

TEST(AnalyzerLoopExit, LoopOverADeniedSensorsReadings) {
  // A denied sensor returns an empty list, so the first loop runs zero
  // times.
  ExpectBoundsCoverARun(
      "x = 100\n"
      "local c = get_temperature_readings(3)\n"
      "for i = 1, len(c) do x = 5 end\n"
      "for j = 1, x do local t = get_temperature_readings(5) end\n",
      Sensors::kDenied);
}

TEST(AnalyzerLoopExit, BreakCarriesItsStateOut) {
  ExpectBoundsCoverARun(
      "local x = 0\n"
      "for i = 1, 3 do\n"
      "  x = 500\n"
      "  if len(get_temperature_readings(1)) > 0 then break end\n"
      "  x = 1\n"
      "end\n"
      "for j = 1, x do local t = get_temperature_readings(5) end\n");
}

TEST(AnalyzerLoopExit, ZeroTripLoopOverBudgetIsRejected) {
  // A run acquires 500 samples at 8 mJ: 4000 mJ, over a 1000 mJ budget.
  AnalyzerOptions options;
  options.energy_budget_mj = 1000;
  EXPECT_TRUE(Analyzed(kZeroTripFor, options).Has("SA403"));
}

// --- counted loops over non-integer operands ---------------------------------

// Ten additions of 0.1 reach 0.9999999999999999: the loop runs an eleventh
// trip that exact arithmetic would not.
TEST(AnalyzerLoopExit, NonIntegerWhileStepRoundsShortOfTheLimit) {
  ExpectBoundsCoverARun(
      "local x = 0\n"
      "while x < 1 do\n"
      "  x = x + 0.1\n"
      "  local t = get_temperature_readings(1)\n"
      "end\n");
}

TEST(AnalyzerLoopExit, NonIntegerForStepRoundsShortOfTheLimit) {
  ExpectBoundsCoverARun(
      "for i = 0, 0.7, 0.1 do local t = get_temperature_readings(1) end\n");
}

TEST(AnalyzerLoopExit, StepBelowOneUlpHasNoBound) {
  // 1e16 + 1 rounds back to 1e16: the variable never moves.
  EXPECT_TRUE(Analyzed("local x = 1e16\n"
                       "while x < 1e16 + 10 do x = x + 1 end\n")
                  .Has("SA401"));
  EXPECT_TRUE(Analyzed("for i = 1e16, 1e16 + 10 do end\n").Has("SA401"));
  // Below 2^53 the same integer loop adds exactly and keeps its bound.
  EXPECT_FALSE(Analyzed("local x = 1e15\n"
                        "while x < 1e15 + 10 do x = x + 1 end\n")
                   .Has("SA401"));
}

TEST(Analyzer, AndOrFoldsTheOperandItReturns) {
  // `"s7" and 5` is 5, so the branch never runs and acquires nothing.
  const AnalysisReport r = Analyzed(
      "if not (\"s7\" and 5) then\n"
      "  for i = 1, 100 do local t = get_temperature_readings(5) end\n"
      "end\n");
  EXPECT_TRUE(r.manifest.cost_bounded);
  EXPECT_DOUBLE_EQ(r.manifest.worst_case_acquisitions, 0.0);
}

// --- diagnostics plumbing ----------------------------------------------------

TEST(Diagnostics, RenderMatchesParserStyle) {
  const Diagnostic d{"SA101", Severity::kError, 3, "undefined name 'foo'"};
  EXPECT_EQ(Render(d), "error SA101 at line 3: undefined name 'foo'");
}

TEST(Diagnostics, SortAndDedupeIsDeterministic) {
  std::vector<Diagnostic> ds = {
      {"SA102", Severity::kWarning, 5, "b"},
      {"SA101", Severity::kError, 5, "a"},
      {"SA101", Severity::kError, 2, "c"},
      {"SA101", Severity::kError, 5, "a"},  // exact duplicate
  };
  SortAndDedupe(ds);
  ASSERT_EQ(ds.size(), 3u);
  EXPECT_EQ(ds[0].line, 2);
  EXPECT_EQ(ds[1].code, "SA101");
  EXPECT_EQ(ds[2].code, "SA102");
}

TEST(Diagnostics, OrderingIsLineColCodeRegardlessOfInsertion) {
  // Regression for the (line, col, code) contract: shuffling the insertion
  // order of same-line diagnostics must not change the rendered output.
  const std::vector<Diagnostic> want = {
      {"SA101", Severity::kError, 2, "a", 0},
      {"SA503", Severity::kWarning, 5, "c", 1},
      {"SA101", Severity::kError, 5, "b", 4},
      {"SA502", Severity::kWarning, 5, "d", 4},
  };
  std::vector<Diagnostic> forward = want;
  std::vector<Diagnostic> reversed(want.rbegin(), want.rend());
  SortAndDedupe(forward);
  SortAndDedupe(reversed);
  EXPECT_EQ(forward, reversed);
  ASSERT_EQ(forward.size(), 4u);
  EXPECT_EQ(forward[0].code, "SA101");  // line 2 first
  EXPECT_EQ(forward[1].col, 1);         // then line 5 by col...
  EXPECT_EQ(forward[2].col, 4);
  EXPECT_EQ(forward[2].code, "SA101");  // ...ties broken by code
  EXPECT_EQ(forward[3].code, "SA502");
}

TEST(Diagnostics, RenderIncludesColumnWhenKnown) {
  const Diagnostic d{"SA501", Severity::kError, 3, "boom", 7};
  EXPECT_EQ(Render(d), "error SA501 at line 3, col 7: boom");
}

TEST(Diagnostics, SensorListRoundTrip) {
  const std::vector<SensorKind> kinds = {SensorKind::kGps,
                                         SensorKind::kBarometer};
  const std::string text = EncodeSensorList(kinds);
  Result<std::vector<SensorKind>> back = DecodeSensorList(text);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), kinds);
  EXPECT_TRUE(DecodeSensorList("").value().empty());
  EXPECT_FALSE(DecodeSensorList("gps,flux_capacitor").ok());
}

TEST(HostApi, AcquisitionTableConsistent) {
  int acquisition_rows = 0;
  for (const HostSignature& sig : HostSignatures()) {
    if (sig.sensor.has_value()) {
      ++acquisition_rows;
      EXPECT_EQ(AcquisitionSensor(sig.name), sig.sensor);
      EXPECT_EQ(FindHostSignature(sig.name), &sig);
    }
  }
  EXPECT_EQ(acquisition_rows, 14);
  EXPECT_EQ(FindHostSignature("not_a_function"), nullptr);
  EXPECT_EQ(AcquisitionSensor("mean"), std::nullopt);
}

// --- property test: random source never crashes the pipeline -----------------

TEST(AnalyzerProperty, RandomTokenSoupNeverCrashes) {
  // Deterministic LCG so failures reproduce from the seed printed below.
  const char* const vocab[] = {
      "local", "if", "then", "else", "elseif", "end", "while", "do", "for",
      "function", "return", "break", "and", "or", "not", "true", "false",
      "nil", "x", "y", "readings", "f", "get_location", "get_noise_readings",
      "len", "mean", "print", "0", "1", "42", "3.5", "\"s\"", "+", "-", "*",
      "/", "%", "..", "==", "~=", "<", "<=", ">", ">=", "=", "(", ")", "{",
      "}", "[", "]", ",", "\n"};
  constexpr std::size_t kVocab = sizeof(vocab) / sizeof(vocab[0]);
  std::uint64_t state = 0x5eedULL;
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int iter = 0; iter < 400; ++iter) {
    std::string source;
    const std::size_t tokens = 1 + next() % 60;
    for (std::size_t t = 0; t < tokens; ++t) {
      source += vocab[next() % kVocab];
      source += ' ';
    }
    const AnalysisReport r = AnalyzeSource(source);
    // Whatever came out must be internally consistent.
    for (const Diagnostic& d : r.diagnostics) {
      EXPECT_FALSE(d.code.empty()) << "iter " << iter << ": " << source;
      EXPECT_GE(d.line, 0) << "iter " << iter << ": " << source;
    }
  }
}

// Structured variant: mutate a known-good script by splicing random tokens
// into random positions — exercises deeper parser states than pure soup.
TEST(AnalyzerProperty, MutatedTrailScriptNeverCrashes) {
  const std::string base =
      core::DefaultScript(world::PlaceCategory::kHikingTrail);
  const char* const splices[] = {"end", "do", "then", "(", ")", "=", "local",
                                 "while", "\"", "..", "[", "9e99", "--[["};
  constexpr std::size_t kSplices = sizeof(splices) / sizeof(splices[0]);
  std::uint64_t state = 0xfeedULL;
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int iter = 0; iter < 200; ++iter) {
    std::string source = base;
    const int cuts = 1 + static_cast<int>(next() % 4);
    for (int c = 0; c < cuts; ++c) {
      const std::size_t at = next() % (source.size() + 1);
      source.insert(at, splices[next() % kSplices]);
    }
    const AnalysisReport r = AnalyzeSource(source);
    (void)r;  // surviving the pipeline (under asan/ubsan) is the property
  }
}

}  // namespace
}  // namespace sor::script::analysis
