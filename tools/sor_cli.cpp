// sor — command-line front door to the SOR reproduction.
//
//   sor fieldtest --scenario trails|coffee [--budget N] [--method M] [--csv]
//       run a full sensing campaign and print feature data + rankings
//   sor simulate [--users N] [--budget B] [--runs R] [--sigma S]
//       scheduling simulation: greedy vs baseline average coverage
//   sor barcode --scenario trails|coffee --place IDX [--ascii]
//       print the deployable 2D barcode for one target place
//   sor rank --scenario trails|coffee --user NAME [--method M]
//       run one profile's personalizable ranking on a fresh campaign
//   sor lint FILE.sor | sor lint --builtin trails|coffee
//       run the SenseScript static analyzer on a script and print its
//       diagnostics and required-sensor manifest (exit 1 on errors)
//   sor metrics --scenario trails|coffee [--chaos] [--overload [B]]
//               [--threads N] [--json]
//       run a campaign and dump the metrics registry; --overload caps the
//       server's per-tick ingest at B (default 5) to exercise the
//       backpressure/shedding path (docs/robustness.md)
//   sor trace [--scenario ...] [--chaos] [--threads N] [--seed S]
//             [--out F.jsonl] [--chrome F.json] [--summary] [--fingerprint]
//       record the deterministic campaign trace, or analyse one recorded
//       earlier with --in F.jsonl
//   sor serve --scenario trails|coffee [--bind ADDR] [--snapshot F]
//       host the sensing server out-of-process behind a Unix/TCP socket
//   sor loadgen --scenario trails|coffee [--connect ADDR] [--workers N]
//       replay a phone fleet against a live daemon; report throughput
//   sor help
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "bench_args.hpp"
#include "core/fleet.hpp"
#include "core/system.hpp"
#include "net/fault_injector.hpp"
#include "obs/spans.hpp"
#include "obs/trace_io.hpp"
#include "script/analysis/analyzer.hpp"
#include "script/analysis/passes.hpp"
#include "script/ir/lower.hpp"
#include "script/parser.hpp"
#include "server/json_export.hpp"
#include "sched/baseline.hpp"
#include "sched/greedy.hpp"
#include "transport/daemon.hpp"
#include "transport/loadgen.hpp"
#include "transport/socket.hpp"
#include "world/arrivals.hpp"

using namespace sor;

namespace {

int Usage() {
  std::printf(
      "sor — mobile-phone-sensing objective ranking (SOR, ICDCS'14)\n\n"
      "usage:\n"
      "  sor fieldtest --scenario trails|coffee [--budget N] [--method M]"
      " [--csv|--json]\n"
      "                [--phones N] [--period S] [--seed S]"
      " [--scheduler A] [--rankings-out F]\n"
      "  sor simulate  [--users N] [--budget B] [--runs R] [--sigma S]\n"
      "  sor barcode   --scenario trails|coffee --place IDX [--ascii]\n"
      "  sor rank      --scenario trails|coffee --user NAME [--method M]"
      " [--explain]\n"
      "  sor lint      FILE.sor [--energy-budget MJ] [--samples N]"
      " [--strict] [--ir-dump] [--flow-manifest]\n"
      "  sor lint      --builtin trails|coffee [same options]\n"
      "  sor metrics   [--scenario trails|coffee] [--chaos] [--overload [B]]"
      " [--threads N] [--json]\n"
      "  sor trace     [--scenario trails|coffee] [--chaos] [--seed S]"
      " [--threads N]\n"
      "                [--out F.jsonl] [--chrome F.json] [--summary]"
      " [--fingerprint]\n"
      "  sor trace     --in F.jsonl [--summary] [--fingerprint]\n"
      "  sor serve     --scenario trails|coffee [--bind ADDR] [--phones N]"
      " [--period S]\n"
      "                [--seed S] [--method M] [--scheduler A]"
      " [--tick-ms MS] [--snapshot F]\n"
      "                [--rankings-out F] [--overload [B]]\n"
      "  sor loadgen   --scenario trails|coffee [--connect ADDR]"
      " [--workers N]\n"
      "                [--phones N] [--period S] [--seed S] [--budget N]"
      " [--report F]\n"
      "  sor help\n\n"
      "addresses: unix:/path/to.sock or tcp:HOST:PORT\n"
      "methods:   mcmf (default), hungarian, kemeny, borda\n"
      "schedulers: lazy (default), periodic\n");
  return 2;
}

// Every subcommand rejects flags it does not understand: a typo fails the
// invocation with exit 2 naming the flag, instead of silently running a
// different campaign than the one asked for.
int RejectUnknownFlags(const cli::Args& args, const char* cmd,
                       std::initializer_list<std::string_view> allowed) {
  const std::string unknown = args.FirstUnknown(allowed);
  if (unknown.empty()) return 0;
  std::fprintf(stderr, "unknown flag '--%s' for 'sor %s'\n", unknown.c_str(),
               cmd);
  return 2;
}

// Shared --phones / --period fleet-shape overrides: campaign identity for
// fieldtest, serve and loadgen, so the three hosts agree on the plan.
void ApplyScenarioOverrides(const cli::Args& args, world::Scenario* scenario) {
  if (args.Has("phones")) {
    scenario->phones_per_place = args.GetInt("phones", scenario->phones_per_place);
  }
  if (args.Has("period")) {
    scenario->period_s = args.GetDouble("period", scenario->period_s);
  }
}

Result<world::Scenario> ScenarioByName(const std::string& name) {
  if (name == "trails" || name == "hiking")
    return world::MakeHikingTrailScenario();
  if (name == "coffee" || name == "shops")
    return world::MakeCoffeeShopScenario();
  return Error{Errc::kInvalidArgument,
               "unknown scenario '" + name + "' (trails|coffee)"};
}

Result<rank::AggregationMethod> MethodByName(const std::string& name) {
  if (name == "mcmf" || name.empty())
    return rank::AggregationMethod::kFootruleMcmf;
  if (name == "hungarian")
    return rank::AggregationMethod::kFootruleHungarian;
  if (name == "kemeny") return rank::AggregationMethod::kExactKemeny;
  if (name == "borda") return rank::AggregationMethod::kBorda;
  return Error{Errc::kInvalidArgument, "unknown method '" + name + "'"};
}

Result<server::SchedulerAlgorithm> SchedulerByName(const std::string& name) {
  if (name == "lazy" || name.empty())
    return server::SchedulerAlgorithm::kLazyGreedy;
  if (name == "periodic") return server::SchedulerAlgorithm::kPeriodic;
  return Error{Errc::kInvalidArgument,
               "unknown scheduler '" + name + "' (lazy|periodic)"};
}

bool WriteFileOrStdout(const std::string& path, const std::string& content,
                       const char* what) {
  if (path == "-") {
    std::fwrite(content.data(), 1, content.size(), stdout);
    return true;
  }
  std::ofstream out(path, std::ios::binary);
  if (!out || !(out << content)) {
    std::fprintf(stderr, "cannot write %s to '%s'\n", what, path.c_str());
    return false;
  }
  std::fprintf(stderr, "wrote %s to %s\n", what, path.c_str());
  return true;
}

Result<core::FieldTestResult> Campaign(
    const world::Scenario& scenario, int budget,
    rank::AggregationMethod method, std::uint64_t seed = 42,
    server::SchedulerAlgorithm scheduler =
        server::SchedulerAlgorithm::kLazyGreedy) {
  core::System system;
  core::FieldTestConfig config;
  config.budget_per_user = budget;
  config.aggregation = method;
  config.sigma_s = 60.0;
  config.seed = seed;
  config.scheduler_algorithm = scheduler;
  return system.RunFieldTest(scenario, config);
}

int CmdFieldTest(const cli::Args& args) {
  if (int rc = RejectUnknownFlags(
          args, "fieldtest",
          {"scenario", "budget", "method", "scheduler", "csv", "json",
           "phones", "period", "seed", "rankings-out"}))
    return rc;
  Result<world::Scenario> scenario = ScenarioByName(args.Get("scenario"));
  if (!scenario.ok()) {
    std::fprintf(stderr, "%s\n", scenario.error().str().c_str());
    return 2;
  }
  ApplyScenarioOverrides(args, &scenario.value());
  Result<rank::AggregationMethod> method = MethodByName(args.Get("method"));
  if (!method.ok()) {
    std::fprintf(stderr, "%s\n", method.error().str().c_str());
    return 2;
  }
  Result<server::SchedulerAlgorithm> scheduler =
      SchedulerByName(args.Get("scheduler"));
  if (!scheduler.ok()) {
    std::fprintf(stderr, "%s\n", scheduler.error().str().c_str());
    return 2;
  }
  Result<core::FieldTestResult> run = Campaign(
      scenario.value(), args.GetInt("budget", 40), method.value(),
      static_cast<std::uint64_t>(args.GetInt("seed", 42)), scheduler.value());
  if (!run.ok()) {
    std::fprintf(stderr, "campaign failed: %s\n", run.error().str().c_str());
    return 1;
  }
  const core::FieldTestResult& result = run.value();
  if (args.Has("rankings-out")) {
    // The canonical campaign-equivalence artifact (core/fleet.hpp): CI
    // compares this byte-for-byte against a daemon+loadgen run.
    const std::string text =
        core::RenderRankingsText(result.matrix, result.rankings);
    if (!WriteFileOrStdout(args.Get("rankings-out"), text, "rankings"))
      return 1;
  }
  if (args.Has("csv")) {
    std::printf("%s", server::RenderFeatureCsv(result.matrix).c_str());
    return 0;
  }
  std::vector<std::pair<std::string, rank::Ranking>> table;
  for (const auto& [user, outcome] : result.rankings)
    table.emplace_back(user, outcome.final_ranking);
  if (args.Has("json")) {
    std::printf("{\"features\":%s,\"rankings\":%s}\n",
                server::RenderFeatureJson(result.matrix).c_str(),
                server::RenderRankingJson(result.matrix, table).c_str());
    return 0;
  }
  std::printf("%s", server::RenderFeatureBars(result.matrix).c_str());
  std::printf("%s", server::RenderRankingTable(result.matrix, table).c_str());
  std::printf("\nuploads: %llu, energy: %.0f mJ spent / %.0f mJ saved\n",
              static_cast<unsigned long long>(result.total_uploads),
              result.energy_spent_mj, result.energy_saved_mj);
  return 0;
}

int CmdSimulate(const cli::Args& args) {
  if (int rc = RejectUnknownFlags(args, "simulate",
                                  {"users", "budget", "runs", "sigma"}))
    return rc;
  const int users = args.GetInt("users", 40);
  const int budget = args.GetInt("budget", 17);
  const int runs = args.GetInt("runs", 10);
  const double sigma = args.GetDouble("sigma", 10.0);
  if (users < 1 || budget < 1 || runs < 1 || sigma <= 0) {
    std::fprintf(stderr, "invalid simulate parameters\n");
    return 2;
  }
  double greedy_sum = 0.0;
  double base_sum = 0.0;
  for (int run = 0; run < runs; ++run) {
    Rng rng(777 + static_cast<std::uint64_t>(run) * 101);
    world::ArrivalConfig cfg;
    cfg.num_users = users;
    cfg.budget = budget;
    sched::Problem p = sched::Problem::UniformGrid(10'800.0, 1'080, sigma);
    p.users = world::GenerateArrivals(cfg, rng);
    const auto greedy = sched::GreedySchedule(p);
    const auto base = sched::PeriodicBaselineSchedule(p);
    if (!greedy.ok() || !base.ok()) {
      std::fprintf(stderr, "scheduling failed\n");
      return 1;
    }
    const sched::CoverageEvaluator eval(p);
    greedy_sum += eval.AverageCoverage(greedy.value().schedule);
    base_sum += eval.AverageCoverage(base.value().schedule);
  }
  std::printf("users=%d budget=%d sigma=%.1fs runs=%d\n", users, budget,
              sigma, runs);
  std::printf("greedy   average coverage: %.4f\n", greedy_sum / runs);
  std::printf("baseline average coverage: %.4f\n", base_sum / runs);
  std::printf("improvement: %.1f%%\n",
              (greedy_sum / base_sum - 1.0) * 100.0);
  return 0;
}

int CmdBarcode(const cli::Args& args) {
  if (int rc =
          RejectUnknownFlags(args, "barcode", {"scenario", "place", "ascii"}))
    return rc;
  Result<world::Scenario> scenario = ScenarioByName(args.Get("scenario"));
  if (!scenario.ok()) {
    std::fprintf(stderr, "%s\n", scenario.error().str().c_str());
    return 2;
  }
  const int place = args.GetInt("place", 0);
  if (place < 0 ||
      place >= static_cast<int>(scenario.value().places.size())) {
    std::fprintf(stderr, "place index out of range\n");
    return 2;
  }
  const world::PlaceModel& p =
      scenario.value().places[static_cast<std::size_t>(place)];
  BarcodePayload payload;
  payload.app = AppId{static_cast<std::uint64_t>(place + 1)};
  payload.place = p.id;
  payload.place_name = p.name;
  payload.location = p.center;
  payload.server = "server";
  payload.radius_m = p.radius_m;
  std::printf("place: %s\n", p.name.c_str());
  std::printf("text:  %s\n", EncodeBarcodeText(payload).c_str());
  if (args.Has("ascii")) {
    std::printf("\n%s", RenderBarcodeMatrix(payload).ascii().c_str());
  }
  return 0;
}

int CmdRank(const cli::Args& args) {
  if (int rc = RejectUnknownFlags(args, "rank",
                                  {"scenario", "user", "method", "explain"}))
    return rc;
  Result<world::Scenario> scenario = ScenarioByName(args.Get("scenario"));
  if (!scenario.ok()) {
    std::fprintf(stderr, "%s\n", scenario.error().str().c_str());
    return 2;
  }
  Result<rank::AggregationMethod> method = MethodByName(args.Get("method"));
  if (!method.ok()) {
    std::fprintf(stderr, "%s\n", method.error().str().c_str());
    return 2;
  }
  const std::string user = args.Get("user");
  const rank::UserProfile* profile = nullptr;
  for (const rank::UserProfile& p : scenario.value().profiles) {
    if (p.name == user) profile = &p;
  }
  if (profile == nullptr) {
    std::fprintf(stderr, "unknown user '%s'; profiles:", user.c_str());
    for (const rank::UserProfile& p : scenario.value().profiles)
      std::fprintf(stderr, " %s", p.name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  Result<core::FieldTestResult> run =
      Campaign(scenario.value(), 40, method.value());
  if (!run.ok()) {
    std::fprintf(stderr, "campaign failed: %s\n", run.error().str().c_str());
    return 1;
  }
  const rank::PersonalizableRanker ranker(run.value().matrix);
  Result<rank::RankingOutcome> outcome =
      ranker.Rank(*profile, method.value());
  if (!outcome.ok()) {
    std::fprintf(stderr, "ranking failed: %s\n",
                 outcome.error().str().c_str());
    return 1;
  }
  std::printf("ranking for %s:\n", profile->name.c_str());
  const auto names = outcome.value().OrderedNames(run.value().matrix);
  for (std::size_t i = 0; i < names.size(); ++i)
    std::printf("  No. %zu  %s\n", i + 1, names[i].c_str());
  if (args.Has("explain")) {
    std::printf("\n%s", server::RenderRankingExplanation(
                            run.value().matrix, outcome.value())
                            .c_str());
  }
  return 0;
}

// The CLI's canned chaos wire for `--chaos`: the aggressive-but-recoverable
// profile the chaos tests run (lossy request+response legs plus a one-minute
// hard partition mid-period). Fixed here so the CI determinism stage can
// compare fingerprints of the exact same campaign across thread counts.
std::vector<net::FaultRule> ChaosRules() {
  net::FaultRule lossy;
  lossy.drop = 0.25;
  lossy.corrupt = 0.15;
  lossy.duplicate = 0.15;
  net::FaultRule partition;
  partition.partition = SimInterval{SimTime{600'000}, SimTime{660'000}};
  return {lossy, partition};
}

// Shared campaign setup for `sor metrics` / `sor trace`. The System outlives
// the call so the caller can read its registry and tracer.
Result<core::FieldTestResult> ObservedCampaign(core::System& system,
                                               const cli::Args& args,
                                               bool trace) {
  Result<world::Scenario> scenario =
      ScenarioByName(args.Get("scenario", "coffee"));
  if (!scenario.ok()) return scenario.error();
  core::FieldTestConfig config;
  config.budget_per_user = args.GetInt("budget", 40);
  config.seed = static_cast<std::uint64_t>(args.GetInt("seed", 42));
  config.threads = args.GetInt("threads", 1);
  config.trace = trace;
  if (args.Has("chaos")) {
    config.chaos_rules = ChaosRules();
    // Derived from --seed by default: each seed is a distinct fault
    // schedule, so the CI fingerprint sweep covers distinct campaigns.
    config.chaos_seed = static_cast<std::uint64_t>(
        args.GetInt("chaos-seed",
                    static_cast<int>(config.seed * 31 + 7)));
  }
  if (args.Has("overload")) {
    // Cap the server's per-tick ingest (docs/robustness.md). The default
    // of 5 puts the stock scenarios well past the budget, so the shed and
    // throttle counters in the metrics dump are exercised.
    config.overload.ingest_budget = args.GetInt("overload", 5);
    // 0.6 keeps the stale-shedding band non-empty down to a budget of 3
    // (ceil(0.6 * B) < B); the stock 0.75 would round the band away for
    // the small budgets this flag is used with.
    config.overload.throttle_at = 0.6;
    config.overload.stale_after = SimDuration{15'000};
    config.overload.retry_after = SimDuration{12'000};
    config.drain_ticks = 60;  // let the throttled fleet flush afterwards
  }
  return system.RunFieldTest(scenario.value(), config);
}

int CmdMetrics(const cli::Args& args) {
  if (int rc = RejectUnknownFlags(args, "metrics",
                                  {"scenario", "budget", "seed", "threads",
                                   "chaos", "chaos-seed", "overload", "json"}))
    return rc;
  core::System system;
  Result<core::FieldTestResult> run =
      ObservedCampaign(system, args, /*trace=*/false);
  if (!run.ok()) {
    std::fprintf(stderr, "campaign failed: %s\n", run.error().str().c_str());
    return 1;
  }
  if (args.Has("json")) {
    std::printf("%s\n", system.metrics().RenderJson().c_str());
  } else {
    std::printf("%s", system.metrics().RenderText().c_str());
  }
  return 0;
}

int CmdTrace(const cli::Args& args) {
  if (int rc = RejectUnknownFlags(
          args, "trace",
          {"scenario", "budget", "seed", "threads", "chaos", "chaos-seed",
           "in", "out", "chrome", "summary", "fingerprint"}))
    return rc;
  obs::TraceData trace;
  if (args.Has("in")) {
    // Offline mode: analyse a previously recorded JSONL trace.
    std::ifstream in(args.Get("in"), std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot read '%s'\n", args.Get("in").c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string error;
    if (!obs::ReadJsonLines(buf.str(), &trace, &error)) {
      std::fprintf(stderr, "%s: %s\n", args.Get("in").c_str(),
                   error.c_str());
      return 1;
    }
  } else {
    core::System system;
    Result<core::FieldTestResult> run =
        ObservedCampaign(system, args, /*trace=*/true);
    if (!run.ok()) {
      std::fprintf(stderr, "campaign failed: %s\n",
                   run.error().str().c_str());
      return 1;
    }
    trace = system.tracer().Snapshot();
  }

  bool did_something = false;
  if (args.Has("out")) {
    if (!WriteFileOrStdout(args.Get("out"), obs::WriteJsonLines(trace),
                           "trace"))
      return 1;
    did_something = true;
  }
  if (args.Has("chrome")) {
    if (!WriteFileOrStdout(args.Get("chrome"), obs::WriteChromeTrace(trace),
                           "chrome trace"))
      return 1;
    did_something = true;
  }
  if (args.Has("fingerprint")) {
    std::printf("fingerprint=%016llx\n",
                static_cast<unsigned long long>(obs::Fingerprint(trace)));
    did_something = true;
  }
  // Summary is the default action when nothing else was requested.
  if (args.Has("summary") || !did_something) {
    std::printf("%s", obs::RenderSummary(obs::Summarize(trace)).c_str());
  }
  return 0;
}

// sor lint FILE.sor — the registration-time analyzer as a local gate: same
// passes, same diagnostic codes, so CI catches a script the server would
// reject before it is ever deployed.
int CmdLint(const std::string& source_name, const std::string& source,
            const cli::Args& args) {
  namespace analysis = script::analysis;
  analysis::AnalyzerOptions options;
  options.energy_budget_mj = args.GetDouble("energy-budget", 0.0);
  options.default_samples_per_window = args.GetInt("samples", 5);
  options.max_steps = args.GetDouble("max-steps", 2'000'000.0);
  const analysis::AnalysisReport report =
      analysis::AnalyzeSource(source, options);

  if (args.Has("ir-dump")) {
    // Dump the optimized dataflow IR the flow-sensitive passes analyzed.
    Result<script::Program> program = script::Parse(source);
    if (program.ok()) {
      script::ir::Module mod = script::ir::Lower(program.value());
      analysis::OptimizeModule(mod);
      std::printf("%s", script::ir::Dump(mod).c_str());
    }
  }
  if (args.Has("flow-manifest")) {
    const std::string encoded = analysis::EncodeFlowManifest(report.flow);
    std::printf("%s: flow manifest: %s\n", source_name.c_str(),
                encoded.empty() ? "(empty)" : encoded.c_str());
  }

  for (const analysis::Diagnostic& d : report.diagnostics)
    std::printf("%s: %s\n", source_name.c_str(),
                analysis::Render(d).c_str());

  const analysis::ScriptManifest& m = report.manifest;
  std::printf("%s: required sensors: %s\n", source_name.c_str(),
              m.required_sensors.empty()
                  ? "(none)"
                  : analysis::EncodeSensorList(m.required_sensors).c_str());
  if (m.cost_bounded) {
    std::printf(
        "%s: worst case per run: %.0f samples, %.1f mJ, %.0f steps\n",
        source_name.c_str(), m.worst_case_acquisitions,
        m.worst_case_energy_mj, m.worst_case_steps);
  } else {
    std::printf("%s: cost not statically bounded\n", source_name.c_str());
  }

  const std::size_t errors = report.error_count();
  const std::size_t warnings = report.diagnostics.size() - errors;
  std::printf("%s: %zu error(s), %zu warning(s)\n", source_name.c_str(),
              errors, warnings);
  if (errors > 0) return 1;
  if (args.Has("strict") && warnings > 0) return 1;
  return 0;
}

// --- out-of-process serving (src/transport) --------------------------------

volatile std::sig_atomic_t g_stop = 0;
void OnStopSignal(int) { g_stop = 1; }

int CmdServe(const cli::Args& args) {
  if (int rc = RejectUnknownFlags(
          args, "serve",
          {"scenario", "bind", "phones", "period", "seed", "method",
           "scheduler", "tick-ms", "io-timeout-ms", "snapshot",
           "rankings-out", "overload"}))
    return rc;
  Result<world::Scenario> scenario = ScenarioByName(args.Get("scenario"));
  if (!scenario.ok()) {
    std::fprintf(stderr, "%s\n", scenario.error().str().c_str());
    return 2;
  }
  ApplyScenarioOverrides(args, &scenario.value());
  Result<rank::AggregationMethod> method = MethodByName(args.Get("method"));
  if (!method.ok()) {
    std::fprintf(stderr, "%s\n", method.error().str().c_str());
    return 2;
  }

  Result<server::SchedulerAlgorithm> scheduler =
      SchedulerByName(args.Get("scheduler"));
  if (!scheduler.ok()) {
    std::fprintf(stderr, "%s\n", scheduler.error().str().c_str());
    return 2;
  }

  transport::DaemonConfig config;
  config.bind = args.Get("bind", "unix:/tmp/sor-serve.sock");
  config.scheduler_algorithm = scheduler.value();
  config.scenario = scenario.value();
  config.plan.seed = static_cast<std::uint64_t>(args.GetInt("seed", 42));
  config.aggregation = method.value();
  config.tick_interval_ms = args.GetInt("tick-ms", 50);
  config.io_timeout_ms = args.GetInt("io-timeout-ms", 10'000);
  config.snapshot_path = args.Get("snapshot");
  config.rankings_path = args.Get("rankings-out");
  if (args.Has("overload")) {
    // Same preset as `sor metrics --overload` (docs/robustness.md).
    config.overload.ingest_budget = args.GetInt("overload", 5);
    config.overload.throttle_at = 0.6;
    config.overload.stale_after = SimDuration{15'000};
    config.overload.retry_after = SimDuration{12'000};
  }

  obs::MetricsRegistry registry;
  config.registry = &registry;
  transport::SocketTransport socket_transport(
      transport::Metrics::For(registry));
  transport::Daemon daemon(socket_transport, config);
  if (Status s = daemon.Start(); !s.ok()) {
    std::fprintf(stderr, "serve failed: %s\n", s.str().c_str());
    return 1;
  }
  std::signal(SIGTERM, OnStopSignal);
  std::signal(SIGINT, OnStopSignal);
  std::printf("serving %s on %s\n", args.Get("scenario").c_str(),
              config.bind.c_str());
  std::fflush(stdout);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  daemon.Stop();
  std::printf("%s", registry.RenderText().c_str());
  return 0;
}

int CmdLoadgen(const cli::Args& args) {
  if (int rc = RejectUnknownFlags(
          args, "loadgen",
          {"scenario", "connect", "phones", "period", "seed", "budget",
           "workers", "io-timeout-ms", "report"}))
    return rc;
  Result<world::Scenario> scenario = ScenarioByName(args.Get("scenario"));
  if (!scenario.ok()) {
    std::fprintf(stderr, "%s\n", scenario.error().str().c_str());
    return 2;
  }
  ApplyScenarioOverrides(args, &scenario.value());

  transport::LoadgenConfig config;
  config.address = args.Get("connect", "unix:/tmp/sor-serve.sock");
  config.scenario = scenario.value();
  config.plan.seed = static_cast<std::uint64_t>(args.GetInt("seed", 42));
  config.budget_per_user = args.GetInt("budget", 40);
  config.workers = args.GetInt("workers", 2);
  config.io_timeout_ms = args.GetInt("io-timeout-ms", 10'000);

  obs::MetricsRegistry registry;
  config.registry = &registry;
  transport::SocketTransport socket_transport(
      transport::Metrics::For(registry));
  Result<transport::LoadgenReport> run =
      transport::RunLoadgen(socket_transport, config);
  if (!run.ok()) {
    std::fprintf(stderr, "loadgen failed: %s\n", run.error().str().c_str());
    return 1;
  }
  const transport::LoadgenReport& report = run.value();
  std::printf("phones=%llu workers=%llu calls=%llu failures=%llu "
              "pushes=%llu uploads=%llu\n",
              static_cast<unsigned long long>(report.phones),
              static_cast<unsigned long long>(report.workers),
              static_cast<unsigned long long>(report.calls),
              static_cast<unsigned long long>(report.call_failures),
              static_cast<unsigned long long>(report.pushes_served),
              static_cast<unsigned long long>(report.uploads_sent));
  std::printf("wall=%.2fs throughput=%.0f calls/s latency p50=%.0fus "
              "p90=%.0fus p99=%.0fus\n",
              report.wall_seconds, report.calls_per_second,
              report.p50_call_us, report.p90_call_us, report.p99_call_us);
  const std::string report_path = args.Get("report", "BENCH_loadgen.json");
  if (!WriteFileOrStdout(report_path, report.ToJson(), "loadgen report"))
    return 1;
  return 0;
}

int CmdLintEntry(int argc, char** argv) {
  // Optional positional FILE before the --flags.
  std::string file;
  if (argc > 0 && std::string(argv[0]).rfind("--", 0) != 0) {
    file = argv[0];
    ++argv;
    --argc;
  }
  const cli::Args args(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "bad arguments: %s\n", args.error().c_str());
    return 2;
  }
  if (const int rc = RejectUnknownFlags(
          args, "lint",
          {"builtin", "energy-budget", "samples", "strict", "ir-dump",
           "flow-manifest", "max-steps"});
      rc != 0)
    return rc;
  if (args.Has("builtin")) {
    const std::string which = args.Get("builtin");
    if (which != "trails" && which != "coffee") {
      std::fprintf(stderr, "--builtin expects trails|coffee\n");
      return 2;
    }
    const std::string source = core::DefaultScript(
        which == "trails" ? world::PlaceCategory::kHikingTrail
                          : world::PlaceCategory::kCoffeeShop);
    return CmdLint("builtin:" + which, source, args);
  }
  if (file.empty()) {
    std::fprintf(stderr,
                 "usage: sor lint FILE.sor | sor lint --builtin "
                 "trails|coffee\n");
    return 2;
  }
  std::ifstream in(file);
  if (!in) {
    std::fprintf(stderr, "cannot read '%s'\n", file.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return CmdLint(file, buf.str(), args);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  // lint takes a positional FILE argument, so it parses its own flags.
  if (cmd == "lint") return CmdLintEntry(argc - 2, argv + 2);
  const cli::Args args(argc - 2, argv + 2);
  if (!args.ok()) {
    std::fprintf(stderr, "bad arguments: %s\n", args.error().c_str());
    return 2;
  }
  if (cmd == "fieldtest") return CmdFieldTest(args);
  if (cmd == "simulate") return CmdSimulate(args);
  if (cmd == "barcode") return CmdBarcode(args);
  if (cmd == "rank") return CmdRank(args);
  if (cmd == "metrics") return CmdMetrics(args);
  if (cmd == "trace") return CmdTrace(args);
  if (cmd == "serve") return CmdServe(args);
  if (cmd == "loadgen") return CmdLoadgen(args);
  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    Usage();
    return 0;
  }
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return Usage();
}
