#include "campaign.hpp"

#include <bit>
#include <memory>

#include "codec/barcode.hpp"
#include "core/fleet.hpp"

namespace layerbench {

namespace {

using sor::core::FieldTestConfig;
using sor::world::Scenario;

// The SOR5 envelope: a 4-byte magic, then the message-type byte.
const char* HandlerSpanName(std::span<const std::uint8_t> frame) {
  if (frame.size() <= 4) return "server.other";
  switch (static_cast<sor::MessageType>(frame[4])) {
    case sor::MessageType::kParticipationRequest:
      return "server.participation";
    case sor::MessageType::kSensedDataUpload:
      return "server.upload";
    case sor::MessageType::kLeaveNotification:
      return "server.leave";
    default:
      return "server.other";
  }
}

// Registered under the server's name in traced passes: times each
// SensingServer::HandleFrame call, keyed by the frame's type.
class TimedServer final : public sor::net::Endpoint {
 public:
  TimedServer(sor::net::Endpoint& server, SpanRecorder& rec)
      : server_(server), rec_(rec) {}

  sor::Bytes HandleFrame(std::span<const std::uint8_t> frame) override {
    rec_.Begin(HandlerSpanName(frame));
    sor::Bytes reply = server_.HandleFrame(frame);
    rec_.End();
    return reply;
  }

 private:
  sor::net::Endpoint& server_;
  SpanRecorder& rec_;
};

// Everything one campaign owns, declared so that destruction runs phones
// first and the network last.
struct World {
  sor::SimClock clock;
  sor::obs::MetricsRegistry registry;
  sor::net::LoopbackNetwork network;
  std::unique_ptr<TimedServer> timed;
  std::unique_ptr<sor::server::SensingServer> server;
  std::vector<std::unique_ptr<sor::world::PhoneAgent>> agents;
  std::vector<std::unique_ptr<sor::phone::MobileFrontend>> frontends;
};

double Seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }
double Micros(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

// Marks the pass failed; its recorder, open spans and all, is discarded.
void Fail(PassResult& out, const std::string& what, const sor::Error& e) {
  out.ok = false;
  out.error = what + ": " + e.str();
}

}  // namespace

std::optional<Workload> MakeWorkload(std::string_view name,
                                     std::uint64_t seed, bool tiny) {
  Workload w;
  FieldTestConfig& c = w.config;
  c.seed = seed;
  c.threads = 1;
  if (name == "join_storm") {
    // The coffee scenario at 1000 phones per shop; every scan replans
    // online; 60 s of sensing, then every phone leaves.
    w.scenario = sor::world::MakeCoffeeShopScenario();
    w.scenario.phones_per_place = tiny ? 6 : 1000;
    w.scenario.period_s = 60.0;
    c.budget_per_user = 10;
    c.n_instants = 60;
  } else if (name == "sensing_day") {
    // The §V-A hiking-trail field test at 300 phones per trail over the
    // full three hours, with joins batched into one plan per app.
    w.scenario = sor::world::MakeHikingTrailScenario();
    w.scenario.phones_per_place = tiny ? 4 : 300;
    if (tiny) {
      w.scenario.period_s = 600.0;
      c.n_instants = 60;
      c.budget_per_user = 10;
    } else {
      c.n_instants = 1080;
      c.budget_per_user = 40;
    }
    c.defer_setup_reschedules = true;
  } else {
    return std::nullopt;
  }
  return w;
}

std::string OracleMismatch(const Outputs& got, const Outputs& want) {
  if (got.rankings_text != want.rankings_text)
    return "rankings text differs:\n" + got.rankings_text + "vs oracle\n" +
           want.rankings_text;
  const sor::rank::FeatureMatrix& a = got.matrix;
  const sor::rank::FeatureMatrix& b = want.matrix;
  if (a.place_names() != b.place_names() ||
      a.num_features() != b.num_features())
    return "feature matrix shape differs";
  for (int i = 0; i < a.num_places(); ++i) {
    for (int j = 0; j < a.num_features(); ++j) {
      if (std::bit_cast<std::uint64_t>(a.at(i, j)) !=
          std::bit_cast<std::uint64_t>(b.at(i, j)))
        return "feature matrix cell (" + std::to_string(i) + ", " +
               std::to_string(j) + ") differs";
    }
  }
  if (got.gain_evaluations != want.gain_evaluations)
    return "sched.gain_evaluations " + std::to_string(got.gain_evaluations) +
           " vs oracle " + std::to_string(want.gain_evaluations);
  return "";
}

PassResult RunPass(const Workload& w, bool traced) {
  const Scenario& sc = w.scenario;
  const FieldTestConfig& cfg = w.config;
  PassResult out;
  SpanRecorder rec(traced);

  // --- set-up: everything before the first scan ---------------------------
  rec.Begin("setup");
  auto world = std::make_unique<World>();
  world->network.set_clock(&world->clock);
  world->network.set_metrics(&world->registry);
  world->server = std::make_unique<sor::server::SensingServer>(
      sor::server::ServerConfig{}, world->network, world->clock);
  sor::server::SensingServer& server = *world->server;
  server.AttachObservability(&world->registry, nullptr);
  if (traced) {
    world->timed = std::make_unique<TimedServer>(server, rec);
    world->network.Register(server.endpoint_name(), world->timed.get());
  }
  server.set_overload(cfg.overload);
  server.scheduler().set_algorithm(cfg.scheduler_algorithm);
  {
    sor::server::SchedulerOptions opts;
    opts.incremental = cfg.incremental_scheduling;
    server.scheduler().set_options(opts);
  }
  {
    sor::server::DataProcessorOptions opts = server.data_processor().options();
    opts.incremental = cfg.incremental_processing;
    server.data_processor().set_options(opts);
  }

  sor::core::FleetPlanParams params;
  params.seed = cfg.seed;
  params.n_instants = cfg.n_instants;
  params.sigma_s = cfg.sigma_s;
  params.first_phone = 1;
  params.server_endpoint = server.endpoint_name();
  const sor::core::FleetPlan plan = sor::core::PlanFleet(sc, params);

  std::vector<sor::AppId> app_ids;
  std::vector<sor::BitMatrix> barcodes;
  for (const sor::server::ApplicationSpec& spec : plan.app_specs) {
    rec.Begin("server.deploy");
    sor::Result<sor::BarcodePayload> barcode = server.DeployApplication(spec);
    rec.End();
    if (!barcode.ok()) {
      Fail(out, "deploy", barcode.error());
      return out;
    }
    app_ids.push_back(barcode.value().app);
    barcodes.push_back(sor::RenderBarcodeMatrix(barcode.value()));
  }
  for (const sor::core::PhonePlan& ph : plan.phones) {
    sor::Result<sor::UserId> user =
        server.users().RegisterUser(ph.user_name, ph.token);
    if (!user.ok()) {
      Fail(out, "register", user.error());
      return out;
    }
    sor::world::PhoneAgentConfig agent_cfg;
    agent_cfg.id = sor::PhoneId{ph.seq};
    agent_cfg.mobility = sc.category == sor::world::PlaceCategory::kHikingTrail
                             ? sor::world::Mobility::kTrailWalk
                             : sor::world::Mobility::kStatic;
    agent_cfg.enter_time = sor::SimTime{0};
    agent_cfg.seed = ph.agent_seed;
    world->agents.push_back(std::make_unique<sor::world::PhoneAgent>(
        sc.places[ph.place_index], agent_cfg));

    sor::phone::FrontendConfig phone_cfg;
    phone_cfg.phone_id = agent_cfg.id;
    phone_cfg.user_id = user.value();
    phone_cfg.user_name = ph.user_name;
    phone_cfg.token = ph.token;
    phone_cfg.retry_budget = cfg.phone_retry_budget;
    world->frontends.push_back(std::make_unique<sor::phone::MobileFrontend>(
        phone_cfg, world->network, *world->agents.back(), world->clock));
    world->frontends.back()->AttachObservability(&world->registry, nullptr);
  }
  out.setup_s = Seconds(rec.End());

  // --- campaign: first scan .. last ranking -------------------------------
  rec.Begin("campaign");
  if (cfg.defer_setup_reschedules) server.scheduler().set_deferred(true);
  for (std::size_t k = 0; k < plan.phones.size(); ++k) {
    const sor::core::PhonePlan& ph = plan.phones[k];
    rec.Begin("phone.join", ph.seq);
    sor::Result<sor::TaskId> task = world->frontends[k]->ScanBarcodeMatrix(
        barcodes[ph.place_index], cfg.budget_per_user);
    out.join_us.push_back(Micros(rec.End()));
    ++out.attempted;
    if (!task.ok()) ++out.failed;
  }
  if (cfg.defer_setup_reschedules) {
    server.scheduler().set_deferred(false);
    rec.Begin("sched.flush");
    const sor::Status flushed = server.FlushReschedules();
    rec.End();
    if (!flushed.ok()) {
      Fail(out, "flush", flushed.error());
      return out;
    }
  }

  const std::int64_t period_ms = sor::SimTime::FromSeconds(sc.period_s).ms;
  const int ticks = static_cast<int>(
      (period_ms - world->clock.now().ms + cfg.tick.ms - 1) / cfg.tick.ms);
  std::vector<std::string> names;
  for (const auto& f : world->frontends) names.push_back(f->EndpointName());
  world->network.BeginEpoch(std::move(names));
  std::int64_t tick_loop_ns = 0;
  std::uint64_t pending_peak = 0;
  for (int i = 0; i < ticks; ++i) {
    world->clock.advance(cfg.tick);
    server.health().ObserveTick(world->clock.now());
    rec.Begin("phone.tick", static_cast<std::uint64_t>(i));
    for (auto& f : world->frontends) f->Tick();
    tick_loop_ns += rec.End();
    rec.Begin("net.merge", static_cast<std::uint64_t>(i));
    world->network.MergeEpoch();
    tick_loop_ns += rec.End();
    std::uint64_t depth = 0;
    for (const auto& f : world->frontends) depth += f->pending_uploads();
    pending_peak = std::max(pending_peak, depth);
  }
  world->network.EndEpoch();
  out.tick_loop_s = Seconds(tick_loop_ns);
  out.uploads_stored = server.stats().uploads_stored;

  for (std::size_t k = 0; k < world->frontends.size(); ++k) {
    rec.Begin("phone.leave", plan.phones[k].seq);
    const sor::Status left = world->frontends[k]->LeavePlace();
    out.leave_us.push_back(Micros(rec.End()));
    ++out.attempted;
    if (!left.ok()) ++out.failed;
  }

  const std::int64_t ready_start = rec.Now();
  rec.Begin("processor.pass");
  const sor::Result<int> processed = server.ProcessAllData();
  rec.End();
  if (!processed.ok()) {
    Fail(out, "process", processed.error());
    return out;
  }
  std::vector<sor::server::ApplicationRecord> records;
  for (sor::AppId id : app_ids) {
    sor::Result<sor::server::ApplicationRecord> r =
        server.applications().Get(id);
    if (!r.ok()) {
      Fail(out, "application", r.error());
      return out;
    }
    records.push_back(std::move(r).value());
  }
  rec.Begin("processor.matrix");
  sor::Result<sor::rank::FeatureMatrix> matrix =
      server.data_processor().BuildFeatureMatrix(records, sc.features);
  rec.End();
  if (!matrix.ok()) {
    Fail(out, "feature matrix", matrix.error());
    return out;
  }
  const sor::rank::PersonalizableRanker ranker(matrix.value());
  std::vector<std::pair<std::string, sor::rank::RankingOutcome>> rankings;
  for (std::size_t k = 0; k < sc.profiles.size(); ++k) {
    rec.Begin("rank.query", k);
    sor::Result<sor::rank::RankingOutcome> outcome =
        ranker.Rank(sc.profiles[k], cfg.aggregation);
    rec.End();
    ++out.attempted;
    if (!outcome.ok()) {
      ++out.failed;
      continue;
    }
    rankings.emplace_back(sc.profiles[k].name, std::move(outcome).value());
  }
  out.rank_ready_ms = static_cast<double>(rec.Now() - ready_start) / 1e6;
  out.campaign_s = Seconds(rec.End());

  // --- untimed read-out ---------------------------------------------------
  std::uint64_t upload_failures = 0;
  std::uint64_t uploads_sent = 0;
  for (const auto& f : world->frontends) {
    upload_failures += f->stats().upload_failures;
    uploads_sent += f->stats().uploads_sent;
  }
  out.attempted += uploads_sent + upload_failures;
  out.failed += upload_failures;

  sor::obs::MetricsRegistry& reg = world->registry;
  const auto counter = [&reg](const char* name) {
    return static_cast<double>(reg.counter(name).value());
  };
  const auto rows = [&server](const char* table) {
    const sor::db::Table* t = server.database().table(table);
    return t == nullptr ? 0.0 : static_cast<double>(t->size());
  };
  const double joins =
      std::max(1.0, counter("server.participations_accepted"));
  out.counts = {
      {"sched.gain_evaluations_per_join",
       counter("sched.gain_evaluations") / joins},
      {"sched.schedules_sent_per_join",
       counter("sched.schedules_distributed") / joins},
      {"sched.distribution_failures", counter("sched.distribution_failures")},
      {"server.participations_rejected",
       counter("server.participations_rejected")},
      {"db.full_scans", counter("db.full_scans")},
      {"db.participations_rows", rows("participations")},
      {"db.raw_data_rows", rows("raw_data")},
      {"phone.tuples_collected", counter("phone.tuples_collected")},
      {"phone.upload_failures", static_cast<double>(upload_failures)},
      {"phone.pending_peak", static_cast<double>(pending_peak)},
      {"net.bytes_sent",
       static_cast<double>(world->network.stats().bytes_sent)},
      {"processor.blobs_decoded", counter("processor.blobs_decoded")},
  };
  out.outputs.rankings_text =
      sor::core::RenderRankingsText(matrix.value(), rankings);
  out.outputs.matrix = std::move(matrix).value();
  out.outputs.gain_evaluations =
      reg.counter("sched.gain_evaluations").value();
  if (traced) {
    out.spans = rec.spans();
    for (std::size_t i = 0; i < out.spans.size(); ++i)
      if (std::string_view(out.spans[i].name) == "campaign")
        out.campaign_span = static_cast<int>(i);
  }
  return out;
}

void Normalize(PassResult& p, double before, double after) {
  const double around = (before + after) / 2.0;
  p.setup_s /= before;
  for (double& us : p.join_us) us /= before;
  p.campaign_s /= around;
  p.tick_loop_s /= around;
  for (double& us : p.leave_us) us /= after;
  p.rank_ready_ms /= after;
}

sor::Result<Outputs> RunOracle(const Workload& w) {
  sor::core::System system;
  sor::Result<sor::core::FieldTestResult> run =
      system.RunFieldTest(w.scenario, w.config);
  if (!run.ok()) return run.error();
  Outputs out;
  out.rankings_text =
      sor::core::RenderRankingsText(run.value().matrix, run.value().rankings);
  out.matrix = run.value().matrix;
  out.gain_evaluations =
      system.metrics().counter("sched.gain_evaluations").value();
  return out;
}

std::map<std::string, double> SelfTimeByName(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = SelfTimes(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i)
    out[spans[i].name] += static_cast<double>(self[i]) / 1e6;
  return out;
}

std::map<std::string, double> LayerMetrics(const PassResult& p) {
  std::map<std::string, double> out = p.counts;
  std::map<std::string, std::vector<double>> durations_us;
  for (const Span& s : p.spans)
    durations_us[s.name].push_back(Micros(s.end_ns - s.start_ns));
  const auto p50 = [&durations_us](const char* name) {
    std::vector<double> v = durations_us[name];
    std::sort(v.begin(), v.end());
    return Percentile(v, 50.0);
  };
  const auto total_ms = [&durations_us](const char* name) {
    double sum = 0.0;
    for (double us : durations_us[name]) sum += us;
    return sum / 1e3;
  };
  const std::map<std::string, double> self = SelfTimeByName(p.spans);
  const auto self_ms = [&self](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  out["server.participation_p50_us"] = p50("server.participation");
  out["server.leave_p50_us"] = p50("server.leave");
  out["server.upload_p50_us"] = p50("server.upload");
  out["phone.tick_ms"] = total_ms("phone.tick");
  out["net.merge_self_ms"] = self_ms("net.merge");
  out["processor.pass_ms"] = total_ms("processor.pass");
  out["processor.matrix_us"] = total_ms("processor.matrix") * 1e3;
  out["rank.busy_ms"] = total_ms("rank.query");
  return out;
}

}  // namespace layerbench
