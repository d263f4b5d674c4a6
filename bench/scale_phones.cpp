// scale_phones — throughput of the sharded runtime vs phone count.
//
// Runs the coffee-shop campaign at ~50/200/1000 phones on 1/2/4/8 threads
// (plus ~5k/~10k tiers behind --large and a ~100k tier behind --xlarge) and
// emits one JSON object per line-printer run: campaign wall time, tick
// throughput, the measured speedup_vs_serial, and the scheduler's work
// counters (gain_evaluations / schedules_sent per join — the numbers that
// must stay flat-ish per join for incremental replanning to be O(delta))
// per (phones, threads) cell. Deferred setup reschedules
// keep the join storm O(P) so the measurement is dominated by the tick
// loop, which is what the epoch runtime parallelizes (phase A overlaps the
// per-phone compute; phase B is one serial merge per tick).
//
// Output is JSON on stdout (redirect to BENCH_scale_phones.json). The
// speedup a given host shows is bounded by "hardware_concurrency": on a
// single-core container every thread count measures the same serial
// machine plus coordination overhead.
#include <chrono>
#include <cstdlib>
#include <string_view>
#include <cstdio>
#include <thread>
#include <vector>

#include "core/system.hpp"
#include "json_gate.hpp"

namespace {

struct Cell {
  int phones = 0;
  int threads = 0;
  int ticks = 0;
  double wall_ms = 0.0;
  double ticks_per_sec = 0.0;
  // Scheduler work accounting (docs/performance.md): with incremental
  // replanning both totals grow O(phones · support), so the per-join
  // ratios should be flat-ish across tiers instead of growing O(phones).
  std::uint64_t joins = 0;
  std::uint64_t gain_evaluations = 0;
  std::uint64_t schedules_distributed = 0;
  std::uint64_t schedule_rows = 0;   // one per task under plan-delta rows
  std::uint64_t db_full_scans = 0;   // queries that degraded to O(table)
  std::uint64_t rows_materialized = 0;  // rows copied out of the database
};

Cell RunCell(int phones_per_place, int threads) {
  sor::world::Scenario scenario = sor::world::MakeCoffeeShopScenario();
  scenario.phones_per_place = phones_per_place;
  scenario.period_s = 600.0;

  sor::core::FieldTestConfig config;
  config.budget_per_user = 10;
  config.n_instants = 60;
  config.sigma_s = 60.0;
  config.threads = threads;
  config.defer_setup_reschedules = true;

  sor::core::System system;
  const auto t0 = std::chrono::steady_clock::now();
  sor::Result<sor::core::FieldTestResult> run =
      system.RunFieldTest(scenario, config);
  const auto t1 = std::chrono::steady_clock::now();
  if (!run.ok()) {
    std::fprintf(stderr, "campaign failed: %s\n", run.error().str().c_str());
    std::exit(1);
  }

  Cell cell;
  cell.phones =
      phones_per_place * static_cast<int>(scenario.places.size());
  cell.threads = threads;
  cell.ticks = static_cast<int>(
      (sor::SimTime::FromSeconds(scenario.period_s).ms + config.tick.ms - 1) /
      config.tick.ms);
  cell.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  cell.ticks_per_sec = cell.wall_ms > 0.0
                           ? 1000.0 * cell.ticks / cell.wall_ms
                           : 0.0;
  const sor::core::FieldTestResult& result = run.value();
  cell.joins = result.server_stats.participations_accepted;
  const sor::server::SchedulerStats& sched = system.server().scheduler().stats();
  cell.gain_evaluations = sched.gain_evaluations;
  cell.schedules_distributed = sched.schedules_distributed;
  if (const sor::db::Table* schedules =
          system.server().database().table("schedules");
      schedules != nullptr) {
    cell.schedule_rows = schedules->size();
  }
  cell.db_full_scans = system.metrics().counter("db.full_scans").value();
  cell.rows_materialized =
      system.metrics().counter("db.rows_materialized").value();
  return cell;
}

void PrintCellJson(const Cell& c, const char* indent, bool with_speedup,
                   double speedup) {
  const double joins = c.joins > 0 ? static_cast<double>(c.joins) : 1.0;
  std::printf(
      "%s{\"phones\": %d, \"threads\": %d, \"ticks\": %d, "
      "\"wall_ms\": %.1f, \"ticks_per_sec\": %.2f",
      indent, c.phones, c.threads, c.ticks, c.wall_ms, c.ticks_per_sec);
  if (with_speedup) std::printf(", \"speedup_vs_serial\": %.3f", speedup);
  std::printf(
      ", \"joins\": %llu, \"gain_evaluations\": %llu, "
      "\"gain_evaluations_per_join\": %.1f, "
      "\"schedules_distributed\": %llu, \"schedules_sent_per_join\": %.3f, "
      "\"schedule_rows\": %llu, \"db_full_scans\": %llu, "
      "\"rows_materialized_per_join\": %.2f}",
      static_cast<unsigned long long>(c.joins),
      static_cast<unsigned long long>(c.gain_evaluations),
      static_cast<double>(c.gain_evaluations) / joins,
      static_cast<unsigned long long>(c.schedules_distributed),
      static_cast<double>(c.schedules_distributed) / joins,
      static_cast<unsigned long long>(c.schedule_rows),
      static_cast<unsigned long long>(c.db_full_scans),
      static_cast<double>(c.rows_materialized) / joins);
}

}  // namespace

int main(int argc, char** argv) {
  // `scale_phones --cell PPP THREADS` runs one cell and prints its wall
  // time only — the shape profilers and quick A/B comparisons want.
  if (argc >= 4 && std::string_view(argv[1]) == "--cell") {
    const Cell c = RunCell(std::atoi(argv[2]), std::atoi(argv[3]));
    PrintCellJson(c, "", /*with_speedup=*/false, 0.0);
    std::printf("\n");
    return 0;
  }
  sor::bench::RequireCleanTree(argc, argv);
  bool large = false;
  bool xlarge = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--large") large = true;
    if (std::string_view(argv[i]) == "--xlarge") xlarge = true;
  }
  // ×3 places ≈ 50/200/1000 phones; --large adds ~5k and ~10k tiers,
  // --xlarge a ~100k tier (the ROADMAP's target scale — incremental
  // replanning + plan-delta distribution is what makes it reachable; far
  // too slow for every CI run).
  std::vector<int> per_place = {17, 67, 334};
  if (large || xlarge) {
    per_place.push_back(1667);
    per_place.push_back(3334);
  }
  if (xlarge) per_place.push_back(33334);
  const std::vector<int> thread_counts = {1, 2, 4, 8};

  std::printf("{\n  \"bench\": \"scale_phones\",\n");
  const unsigned host_threads = std::thread::hardware_concurrency();
  std::printf("  \"host_threads\": %u,\n", host_threads);
  std::printf("  \"hardware_concurrency\": %u,\n", host_threads);
  std::printf("  \"build_type\": \"%s\",\n", SOR_BUILD_TYPE);
  std::printf("  \"git_sha\": \"%s\",\n", SOR_GIT_SHA);
  // On a single-core host every thread count measures the same serial
  // machine plus coordination overhead — flag that in the data itself so a
  // flat speedup curve is not misread as a scaling regression.
  std::printf("  \"single_core_host\": %s,\n",
              host_threads <= 1 ? "true" : "false");
  std::printf("  \"results\": [\n");
  bool first = true;
  for (int ppp : per_place) {
    double serial_wall_ms = 0.0;  // threads==1 baseline of this phone tier
    for (int threads : thread_counts) {
      const Cell c = RunCell(ppp, threads);
      if (threads == 1) serial_wall_ms = c.wall_ms;
      // Explicit speedup so the bench is interpretable off-host: >1.0
      // means this thread count beat the serial run of the same tier.
      const double speedup =
          c.wall_ms > 0.0 ? serial_wall_ms / c.wall_ms : 0.0;
      if (!first) std::printf(",\n");
      PrintCellJson(c, "    ", /*with_speedup=*/true, speedup);
      first = false;
      std::fflush(stdout);
      std::fprintf(stderr, "phones=%d threads=%d wall=%.0fms speedup=%.2f\n",
                   c.phones, c.threads, c.wall_ms, speedup);
    }
  }
  std::printf("\n  ]\n}\n");
  return 0;
}
