#include "core/system.hpp"

#include <algorithm>
#include <chrono>

#include "common/log.hpp"
#include "core/fleet.hpp"
#include "sensors/energy.hpp"
#include "server/feature_def.hpp"

namespace sor::core {

std::string DefaultScript(world::PlaceCategory category) {
  if (category == world::PlaceCategory::kHikingTrail) {
    // The trail task (cf. Fig. 4): environmental channels in the standard
    // Δt window; the GPS track with a wide window so consecutive fixes are
    // tens of meters apart (curvature needs geometry, not jitter).
    return R"(-- SOR hiking-trail sensing task
local temp = get_temperature_readings(5)
local hum = get_humidity_readings(5)
local accel = get_accelerometer_readings(12)
local alt = get_altitude_readings(6)
local track = get_location(15, 300)
-- quality gate: flag an empty acquisition so the server can see it
if len(temp) == 0 and len(accel) == 0 then
  print("no sensors available")
end
)";
  }
  return R"(-- SOR coffee-shop sensing task
local temp = get_temperature_readings(5)
local light = get_light_readings(5)
local noise = get_noise_readings(8)
local wifi = get_wifi_readings(5)
if len(noise) == 0 and len(light) == 0 then
  print("no sensors available")
end
)";
}

System::System() {
  network_.set_clock(&clock_);  // partition windows run on simulated time
  network_.set_metrics(&registry_);  // transport counters live here too
  server_ = std::make_unique<server::SensingServer>(
      server::ServerConfig{}, network_, clock_);
  server_->AttachObservability(&registry_, nullptr);
}

System::~System() = default;

void System::ApplyNodeEvents() {
  if (churn_ == nullptr) return;
  net::FaultInjector& faults = network_.faults();
  const SimTime now = clock_.now();

  // Server stall first: a stalled server makes this whole tick's uploads
  // fail, which is the point. The down-window is timed and lifts itself.
  if (churn_->server_can_stall &&
      !faults.NodeDown(server_->endpoint_name(), now)) {
    const net::NodeEvent ev =
        faults.DecideNodeEvent(server_->endpoint_name(), now);
    if (ev.kind == net::NodeEvent::Kind::kStall) {
      faults.SetNodeDown(server_->endpoint_name(), now + ev.down_for);
      ++churn_->stall_ticks;
      SOR_LOG(kWarn, "system",
              "server stalled until t=" << (now + ev.down_for).ms << "ms");
    }
  }

  for (std::size_t k = 0; k < frontends_.size(); ++k) {
    phone::MobileFrontend& phone = *frontends_[k];
    ChurnContext::PhoneState& st = churn_->phones[k];
    const std::string& endpoint = phone.EndpointName();
    switch (st.phase) {
      case ChurnContext::Phase::kUp: {
        const net::NodeEvent ev = faults.DecideNodeEvent(endpoint, now);
        if (ev.kind == net::NodeEvent::Kind::kCrash) {
          // Down until the rejoin completes, not merely until `due`: a
          // crashed phone that cannot reach the server stays dark.
          phone.Crash();
          faults.SetNodeDown(endpoint);
          st.phase = ChurnContext::Phase::kCrashed;
          st.due = now + ev.down_for;
          ++churn_->crashes;
        } else if (ev.kind == net::NodeEvent::Kind::kUninstall) {
          phone.Uninstall();
          faults.SetNodeDown(endpoint);
          st.phase = ChurnContext::Phase::kUninstalled;
          st.due = now + ev.down_for;
        }
        break;
      }
      case ChurnContext::Phase::kCrashed: {
        if (now < st.due) break;
        faults.SetNodeUp(endpoint);
        // Same incarnation: the server resumes the existing participation
        // and re-pushes the schedule (admitted — we are between rounds).
        if (phone.Restart().ok()) {
          st.phase = ChurnContext::Phase::kUp;
          ++churn_->restarts;
        }
        // else: keep retrying every tick; the server may itself be down.
        break;
      }
      case ChurnContext::Phase::kUninstalled: {
        if (now < st.due) break;
        faults.SetNodeUp(endpoint);
        // Fresh install: re-scan the deployed barcode with a bumped
        // incarnation; the server retires the old task and issues a new
        // one whose seq space starts over.
        const BitMatrix matrix = RenderBarcodeMatrix(churn_->barcodes[k]);
        if (phone.ScanBarcodeMatrix(matrix, churn_->budget).ok()) {
          st.phase = ChurnContext::Phase::kUp;
          ++churn_->reinstalls;
        }
        break;
      }
    }
  }
}

void System::RunTicks(int n, SimDuration tick) {
  if (n <= 0) return;
  // Fleet backlog, sampled once per tick by the driver thread: the peak
  // feeds FieldTestResult, the histogram gives benches/operators a depth
  // distribution (p99 etc.) without any per-phone bookkeeping.
  obs::Histogram& depth_hist = registry_.histogram(
      "core.fleet_queue_depth", obs::ExponentialBuckets(1.0, 2.0, 14));
  const auto note_depth = [this, &depth_hist] {
    std::uint64_t depth = 0;
    for (const auto& frontend : frontends_) depth += frontend->pending_uploads();
    peak_pending_ = std::max(peak_pending_, depth);
    depth_hist.Observe(static_cast<double>(depth));
  };
  // Merge overhead, sampled per tick in wall-clock nanoseconds (registry
  // contents are never fingerprinted, so a wall-clock metric cannot break
  // the determinism contract). 1µs .. ~4s exponential range.
  obs::Histogram& merge_wait = registry_.histogram(
      "core.merge_wait_ns", obs::ExponentialBuckets(1000.0, 4.0, 12));

  // Every campaign tick — serial or parallel — is one epoch round
  // (docs/runtime.md): phase A runs the phones wait-free, collecting their
  // sends into per-sender outboxes; phase B is one deterministic merge on
  // this (the driver) thread, delivering in (rank, send order) — the exact
  // serial interleaving. Running threads==1 through the SAME path is what
  // makes every thread count byte-identical by construction. Node events
  // run between rounds, with outboxes empty and phones idle, so crash /
  // rejoin pushes never race a collect phase.
  std::vector<std::string> names;
  names.reserve(frontends_.size());
  for (const auto& frontend : frontends_)
    names.push_back(frontend->EndpointName());
  network_.BeginEpoch(std::move(names));
  const bool parallel = executor_ != nullptr && executor_->threads() > 1;
  for (int i = 0; i < n; ++i) {
    clock_.advance(tick);
    // Driver-thread heartbeat: lets the overload ladder decay on quiet
    // ticks. Runs before the phones, so it is ordered before every
    // admission of this tick at any thread count.
    server_->health().ObserveTick(clock_.now());
    ApplyNodeEvents();
    if (parallel) {
      // Phase A: no locks, no gates — the executor's barrier is the only
      // synchronization in the entire tick.
      executor_->ParallelFor(frontends_.size(),
                             [&](std::size_t k) { frontends_[k]->Tick(); });
    } else {
      for (auto& frontend : frontends_) frontend->Tick();
    }
    // Phase B: deliver the epoch's outboxes and run the phones' completion
    // callbacks (acks, backoff re-queues, throttle pacing).
    // Wall-clock telemetry only: the observed nanoseconds feed a histogram
    // excluded from trace fingerprints, never simulation state.
    const auto merge_start = std::chrono::steady_clock::now();  // det-lint: allow
    network_.MergeEpoch();
    merge_wait.Observe(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - merge_start)  // det-lint: allow
            .count()));
    note_depth();
  }
  network_.EndEpoch();
}

Result<FieldTestResult> System::RunFieldTest(const world::Scenario& scenario,
                                             const FieldTestConfig& config) {
  if (scenario.places.empty())
    return Error{Errc::kInvalidArgument, "scenario has no places"};
  if (config.budget_per_user <= 0)
    return Error{Errc::kInvalidArgument, "budget must be positive"};

  clock_.reset();
  agents_.clear();
  frontends_.clear();
  churn_.reset();
  peak_pending_ = 0;
  storage_faults_.Clear();
  server_->database().AttachStorageFaults(nullptr);
  server_->set_overload(config.overload);
  server_->scheduler().set_algorithm(config.scheduler_algorithm);
  {
    server::SchedulerOptions opts;
    opts.incremental = config.incremental_scheduling;
    server_->scheduler().set_options(opts);
  }
  {
    server::DataProcessorOptions opts =
        server_->data_processor().options();
    opts.incremental = config.incremental_processing;
    server_->data_processor().set_options(opts);
  }

  // Telemetry: one trace per campaign. Clearing invalidates stream ids, so
  // every component re-registers: the server here (stream 0), the system
  // stream next (1), phones in spawn order, then the transport's per-link
  // lookups and the data processor's per-app streams — the same serial
  // order at any thread count.
  tracer_.Clear();
  tracer_.set_capacity(config.trace_ring_capacity);
  tracer_.set_enabled(config.trace);
  obs::Tracer* tracer = config.trace ? &tracer_ : nullptr;
  network_.set_tracer(tracer);
  server_->AttachObservability(&registry_, tracer);
  system_stream_ = config.trace ? tracer_.RegisterStream("system") : 0;

  // Stand up the worker pool for this campaign (threads==1 → pure serial
  // paths everywhere; see docs/runtime.md for the determinism contract).
  const int threads = config.threads > 1 ? config.threads : 1;
  if (threads > 1) {
    executor_ = std::make_unique<ShardedExecutor>(threads);
    server_->set_executor(executor_.get());
  } else {
    executor_.reset();
    server_->set_executor(nullptr);
  }

  const SimInterval period{SimTime{0},
                           SimTime::FromSeconds(scenario.period_s)};

  FieldTestResult result;

  // The shared fleet derivation (core/fleet.hpp): app specs, join order,
  // names/tokens and per-phone seeds — identical for this System, the
  // `sor serve` daemon and `sor loadgen`, which is what makes their
  // campaigns comparable byte-for-byte.
  FleetPlanParams plan_params;
  plan_params.seed = config.seed;
  plan_params.n_instants = config.n_instants;
  plan_params.sigma_s = config.sigma_s;
  plan_params.first_phone = next_phone_;
  plan_params.server_endpoint = server_->endpoint_name();
  const FleetPlan plan = PlanFleet(scenario, plan_params);

  // 1. Deploy one application per target place; print the barcode. The
  // ACTUAL barcodes are used (not plan.barcodes): a reused System numbers
  // apps across campaigns.
  std::vector<BarcodePayload> barcodes;
  for (const server::ApplicationSpec& spec : plan.app_specs) {
    Result<BarcodePayload> barcode = server_->DeployApplication(spec);
    if (!barcode.ok()) return barcode.error();
    result.app_ids.push_back(barcode.value().app);
    barcodes.push_back(std::move(barcode).value());
  }

  // 2. Spawn phones: register users, then trigger participation through
  // the real barcode scan (render to the 2D matrix and scan it back).
  // Every scan triggers a reschedule of the whole app; deferred mode
  // batches that storm into one plan per app after the last scan.
  if (config.defer_setup_reschedules)
    server_->scheduler().set_deferred(true);
  for (const PhonePlan& ph : plan.phones) {
    const world::PlaceModel& place = scenario.places[ph.place_index];
    Result<UserId> user =
        server_->users().RegisterUser(ph.user_name, ph.token);
    if (!user.ok()) return user.error();

    world::PhoneAgentConfig agent_cfg;
    agent_cfg.id = PhoneId{ph.seq};
    agent_cfg.mobility =
        scenario.category == world::PlaceCategory::kHikingTrail
            ? world::Mobility::kTrailWalk
            : world::Mobility::kStatic;
    agent_cfg.enter_time = SimTime{0};
    agent_cfg.seed = ph.agent_seed;
    agents_.push_back(std::make_unique<world::PhoneAgent>(place, agent_cfg));

    phone::FrontendConfig phone_cfg;
    phone_cfg.phone_id = agent_cfg.id;
    phone_cfg.user_id = user.value();
    phone_cfg.user_name = ph.user_name;
    phone_cfg.token = ph.token;
    phone_cfg.retry_budget = config.phone_retry_budget;
    frontends_.push_back(std::make_unique<phone::MobileFrontend>(
        phone_cfg, network_, *agents_.back(), clock_));
    frontends_.back()->AttachObservability(
        &registry_, config.trace ? &tracer_ : nullptr);

    const BitMatrix matrix = RenderBarcodeMatrix(barcodes[ph.place_index]);
    Result<TaskId> task = frontends_.back()->ScanBarcodeMatrix(
        matrix, config.budget_per_user);
    if (!task.ok()) return task.error();
  }
  next_phone_ += plan.phones.size();
  if (config.defer_setup_reschedules) {
    server_->scheduler().set_deferred(false);
    if (Status s = server_->FlushReschedules(); !s.ok()) {
      SOR_LOG(kWarn, "system", "deferred reschedule flush: " << s.str());
    }
  }

  // 3. Arm the chaos rules now that deployment and participation are done —
  // the campaign exists; everything after this point must survive faults.
  if (!config.chaos_rules.empty()) {
    network_.faults().set_seed(config.chaos_seed);
    for (const net::FaultRule& rule : config.chaos_rules)
      network_.faults().AddRule(rule);
  }
  if (!config.node_rules.empty()) {
    network_.faults().set_node_seed(config.node_seed);
    for (const net::NodeFaultRule& rule : config.node_rules)
      network_.faults().AddNodeRule(rule);
    churn_ = std::make_unique<ChurnContext>();
    churn_->phones.resize(frontends_.size());
    churn_->budget = config.budget_per_user;
    // Phone k joined place k / phones_per_place; keep its barcode so a
    // reinstall can re-scan it.
    for (std::size_t k = 0; k < frontends_.size(); ++k)
      churn_->barcodes.push_back(
          barcodes[k / static_cast<std::size_t>(scenario.phones_per_place)]);
    for (const net::NodeFaultRule& rule : config.node_rules) {
      if (net::FaultInjector::Matches(rule.endpoint,
                                      server_->endpoint_name()))
        churn_->server_can_stall = true;
    }
  }
  if (!config.storage_rules.empty()) {
    storage_faults_.set_seed(config.storage_seed);
    for (const db::StorageFaultRule& rule : config.storage_rules)
      storage_faults_.AddRule(rule);
    server_->database().AttachStorageFaults(&storage_faults_);
  }
  // Overload is not a fault, but a budgeted run still needs the drain: the
  // post-period ticks are the "load drops" phase in which paced queues
  // flush and the server steps back down the ladder.
  const bool chaos_armed = !config.chaos_rules.empty() ||
                           !config.node_rules.empty() ||
                           !config.storage_rules.empty() ||
                           config.overload.ingest_budget > 0;

  // Advance simulated time across the scheduling period; every tick the
  // phones execute due sensing activities and upload.
  const std::int64_t remaining = period.end.ms - clock_.now().ms;
  const int main_ticks = static_cast<int>(
      (remaining + config.tick.ms - 1) / config.tick.ms);
  RunTicks(main_ticks, config.tick);

  // Drain: clear the faults and give the phones fault-free ticks so
  // store-and-forward queues and pending leaves flush before evaluation.
  // Node RULES are cleared (no new crashes) but the churn context stays:
  // phones still down keep retrying their rejoin during the drain. The
  // overload policy is not a fault and stays armed — recovery back to
  // normal mode under a drained load is part of what runs exercise.
  if (chaos_armed) {
    network_.faults().Clear();
    network_.faults().ClearNodeRules();
    storage_faults_.Clear();
    RunTicks(config.drain_ticks, config.tick);
    // Lift any down-state that outlived the drain (a phone whose rejoin
    // never landed): later campaigns and the leave sweep below should see
    // a reachable fleet.
    for (const auto& frontend : frontends_)
      network_.faults().SetNodeUp(frontend->EndpointName());
    network_.faults().SetNodeUp(server_->endpoint_name());
  }

  // 4. Users leave; the Participation Manager flips their tasks to
  // "finished".
  if (config.leave_at_end) {
    for (auto& frontend : frontends_) {
      if (Status s = frontend->LeavePlace(); !s.ok()) {
        SOR_LOG(kWarn, "system", "leave failed: " << s.str());
      }
    }
  }

  // 5. Data processing: raw blobs → feature data.
  if (Result<int> n = server_->ProcessAllData(); !n.ok()) return n.error();

  // 6. Assemble H and produce one personalizable ranking per profile.
  std::vector<server::ApplicationRecord> records;
  for (AppId id : result.app_ids) {
    Result<server::ApplicationRecord> rec = server_->applications().Get(id);
    if (!rec.ok()) return rec.error();
    records.push_back(std::move(rec).value());
  }
  Result<rank::FeatureMatrix> matrix =
      server_->data_processor().BuildFeatureMatrix(records,
                                                   scenario.features);
  if (!matrix.ok()) return matrix.error();
  result.matrix = std::move(matrix).value();

  const rank::PersonalizableRanker ranker(result.matrix);
  for (const rank::UserProfile& profile : scenario.profiles) {
    Result<rank::RankingOutcome> outcome =
        ranker.Rank(profile, config.aggregation);
    if (!outcome.ok()) return outcome.error();
    result.rankings.emplace_back(profile.name, std::move(outcome).value());
  }
  // The end of every upload span: each place's final ranking exists.
  if (config.trace) {
    for (AppId id : result.app_ids)
      tracer_.Emit(system_stream_, clock_.now(),
                   obs::EventKind::kRankingDone, id.value());
  }

  // 7. Statistics snapshot.
  result.server_stats = server_->stats();
  result.processor_stats = server_->data_processor().stats();
  result.transport_stats = network_.stats();
  for (const auto& frontend : frontends_) {
    result.total_uploads += frontend->stats().uploads_sent;
    result.total_upload_failures += frontend->stats().upload_failures;
    result.total_uploads_retried += frontend->stats().uploads_retried;
    result.total_uploads_dropped += frontend->stats().uploads_dropped;
    result.total_leaves_retried += frontend->stats().leaves_retried;
    result.total_uploads_throttled += frontend->stats().uploads_throttled;
    result.total_uploads_abandoned += frontend->stats().uploads_abandoned;
    const sensors::EnergyReport energy =
        sensors::EnergyOf(frontend->sensor_manager());
    result.energy_spent_mj += energy.spent_mj;
    result.energy_saved_mj += energy.saved_mj;
  }
  if (churn_ != nullptr) {
    result.total_crashes = churn_->crashes;
    result.total_restarts = churn_->restarts;
    result.total_reinstalls = churn_->reinstalls;
    result.server_stall_ticks = churn_->stall_ticks;
  }
  result.peak_pending_uploads = peak_pending_;
  result.trace_fingerprint = tracer_.Fingerprint();
  return result;
}

}  // namespace sor::core
