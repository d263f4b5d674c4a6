// Lockstep oracle for the scheduler's change-feed planning.
//
// SensingScheduler::PlanApp derives each reschedule's joins and leaves from
// the tasks the Participation Manager reports as changed since the app's
// last plan. The oracle below is the reconstruction it replaced: every
// active participation of the app (ActiveForApp) diffed against every
// planner member (Members()). Through the scheduler's delta observer it runs
// beside every PlanApp — in scripted server sessions and in whole campaigns
// — and the two must agree on every join (member, window, budget) and every
// leave (member, cutoff).
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/features.hpp"
#include "common/rng.hpp"
#include "common/sharded_executor.hpp"
#include "core/system.hpp"
#include "server/server.hpp"

namespace sor::server {
namespace {

using Join = sched::IncrementalPlanner::Join;
using Leave = sched::IncrementalPlanner::Leave;

std::string Describe(const std::vector<Leave>& leaves,
                     const std::vector<Join>& joins) {
  std::ostringstream os;
  os << "leaves[";
  for (const Leave& l : leaves) os << ' ' << l.member << '@' << l.cutoff.ms;
  os << " ] joins[";
  for (const Join& j : joins) {
    os << ' ' << j.member << ':' << j.window.begin.ms << '-'
       << j.window.end.ms << '/' << j.budget;
  }
  os << " ]";
  return os.str();
}

// The diff-the-world reconstruction: unknown active tasks are joins (sorted
// by member), members that are no longer active are leaves (in member
// order), cut off at their leave time or at `now`.
void OracleDelta(const ApplicationRecord& app,
                 const sched::IncrementalPlanner& planner,
                 const ParticipationManager& parts, SimTime now,
                 bool online_aware, std::vector<Leave>& leaves,
                 std::vector<Join>& joins) {
  std::set<std::uint64_t> active_tasks;
  for (const ParticipationRecord& rec : parts.ActiveForApp(app.id)) {
    active_tasks.insert(rec.task.value());
    if (planner.HasMember(static_cast<std::int64_t>(rec.task.value())))
      continue;
    Join j;
    j.member = static_cast<std::int64_t>(rec.task.value());
    SimTime begin = rec.arrive;
    if (online_aware && now > begin) begin = now;
    j.window = SimInterval{begin, rec.leave.value_or(app.spec.period.end)}
                   .intersect(app.spec.period);
    j.budget = rec.budget_left;
    joins.push_back(j);
  }
  std::sort(joins.begin(), joins.end(),
            [](const Join& a, const Join& b) { return a.member < b.member; });
  for (std::int64_t member : planner.Members()) {
    if (active_tasks.contains(static_cast<std::uint64_t>(member))) continue;
    Leave l;
    l.member = member;
    l.cutoff = now;
    Result<ParticipationRecord> rec =
        parts.Get(TaskId{static_cast<std::uint64_t>(member)});
    if (rec.ok() && rec.value().leave.has_value()) l.cutoff = *rec.value().leave;
    leaves.push_back(l);
  }
}

// Attaches the oracle to one server's scheduler. The observer may run on
// FlushReschedules workers, so the tallies sit behind a mutex.
class LockstepOracle {
 public:
  void Attach(SensingServer& server, const SimClock& clock) {
    SensingScheduler& sched = server.scheduler();
    const ParticipationManager& parts = server.participations();
    sched.set_delta_observer([this, &sched, &parts, &clock](
                                 const ApplicationRecord& app,
                                 const sched::IncrementalPlanner& planner,
                                 const std::vector<Leave>& leaves,
                                 const std::vector<Join>& joins) {
      std::vector<Leave> want_leaves;
      std::vector<Join> want_joins;
      OracleDelta(app, planner, parts, clock.now(), sched.online_aware(),
                  want_leaves, want_joins);
      const std::string got = Describe(leaves, joins);
      const std::string want = Describe(want_leaves, want_joins);
      std::lock_guard lock(mu_);
      ++plans_;
      joins_ += joins.size();
      leaves_ += leaves.size();
      if (got != want && mismatches_.size() < 5)
        mismatches_.push_back("app " + app.id.str() + ": got " + got +
                              ", oracle " + want);
      if (got != want) ++mismatch_count_;
    });
  }

  void ExpectAgreed() const {
    std::lock_guard lock(mu_);
    EXPECT_EQ(mismatch_count_, 0u);
    for (const std::string& m : mismatches_) ADD_FAILURE() << m;
  }

  std::uint64_t plans() const { return plans_; }
  std::uint64_t joins() const { return joins_; }
  std::uint64_t leaves() const { return leaves_; }

 private:
  mutable std::mutex mu_;
  std::uint64_t plans_ = 0;
  std::uint64_t joins_ = 0;
  std::uint64_t leaves_ = 0;
  std::uint64_t mismatch_count_ = 0;
  std::vector<std::string> mismatches_;
};

// --- scripted server sessions ----------------------------------------------

ApplicationSpec OracleAppSpec(std::uint64_t place) {
  ApplicationSpec spec;
  spec.creator = "oracle";
  spec.place = PlaceId{place};
  spec.place_name = "Oracle Cafe " + std::to_string(place);
  spec.location = GeoPoint{43.0, -76.0 + 0.01 * static_cast<double>(place),
                           100.0};
  spec.radius_m = 80.0;
  spec.script = "local xs = get_noise_readings(3)";
  spec.features = CoffeeShopFeatures();
  spec.period = SimInterval{SimTime{0}, SimTime{3'600'000}};
  spec.n_instants = 90;
  spec.sigma_s = 30.0;
  return spec;
}

// A phone endpoint: acks schedules (or refuses them with kUnsupported, the
// way a phone lacking the required sensor does) and answers pings from
// `location`.
class FakePhone final : public net::Endpoint {
 public:
  FakePhone(net::LoopbackNetwork& net, std::string name, bool refuses,
            GeoPoint location)
      : net_(net), name_(std::move(name)), refuses_(refuses),
        location_(location) {
    net_.Register(name_, this);
  }
  ~FakePhone() override { net_.Unregister(name_); }

  Bytes HandleFrame(std::span<const std::uint8_t> frame) override {
    Result<Message> decoded = DecodeFrame(frame);
    if (decoded.ok() && std::holds_alternative<Ping>(decoded.value()))
      return EncodeFrame(PingReply{PhoneId{1}, location_, SimTime{}});
    if (refuses_ && decoded.ok() &&
        std::holds_alternative<ScheduleDistribution>(decoded.value())) {
      ++refusals_;
      return EncodeFrame(
          ErrorReply{static_cast<std::uint8_t>(Errc::kUnsupported),
                     "phone lacks required sensor 'microphone'"});
    }
    return EncodeFrame(Ack{});
  }

  void Wander() { location_.lat_deg += 0.05; }  // ~5.5 km: out of place
  [[nodiscard]] int refusals() const { return refusals_; }

 private:
  net::LoopbackNetwork& net_;
  std::string name_;
  bool refuses_;
  GeoPoint location_;
  int refusals_ = 0;
};

struct Session {
  struct User {
    UserId id;
    Token token;
    std::size_t app = 0;  // index into apps
    std::uint32_t incarnation = 1;
    std::optional<TaskId> task;
    std::unique_ptr<FakePhone> phone;  // null once the phone is unreachable
  };

  explicit Session(bool parallel_flush) {
    net.set_clock(&clock);
    if (parallel_flush) executor = std::make_unique<ShardedExecutor>(2);
    StartServer();
    for (std::uint64_t place = 1; place <= 2; ++place) {
      Result<BarcodePayload> barcode =
          server->DeployApplication(OracleAppSpec(place));
      EXPECT_TRUE(barcode.ok()) << barcode.error().str();
      apps.push_back(barcode.value().app);
    }
  }

  void StartServer() {
    server = std::make_unique<SensingServer>(ServerConfig{}, net, clock);
    server->set_executor(executor.get());
    oracle.Attach(*server, clock);
  }

  GeoPoint PlaceOf(std::size_t app) const {
    return OracleAppSpec(app + 1).location;
  }

  // Scan the app's barcode with `incarnation`; returns the reply.
  ParticipationReply Scan(User& u, std::uint32_t incarnation, int budget) {
    ParticipationRequest req;
    req.user = u.id;
    req.token = u.token;
    req.app = apps[u.app];
    req.location = PlaceOf(u.app);
    req.budget = budget;
    req.scan_time = clock.now();
    req.incarnation = incarnation;
    Result<Message> reply = net.Send("server", req);
    EXPECT_TRUE(reply.ok()) << reply.error().str();
    if (!reply.ok()) return {};
    return std::get<ParticipationReply>(reply.value());
  }

  User& NewUser(std::size_t app, bool refuses) {
    const std::string n = std::to_string(users.size());
    User u;
    u.token = Token{"tok-o" + n};
    u.id = server->users().RegisterUser("user" + n, u.token).value();
    u.app = app;
    u.phone = std::make_unique<FakePhone>(net, "phone:" + u.token.value,
                                          refuses, PlaceOf(app));
    users.push_back(std::move(u));
    return users.back();
  }

  void Join(User& u, int budget) {
    const ParticipationReply r = Scan(u, u.incarnation, budget);
    EXPECT_TRUE(r.accepted) << r.reason;
    if (r.accepted) u.task = r.task;
  }

  void Leave(User& u) {
    LeaveNotification note;
    note.task = *u.task;
    note.user = u.id;
    note.time = clock.now();
    Result<Message> reply = net.Send("server", note);
    EXPECT_TRUE(reply.ok()) << reply.error().str();
    u.task.reset();
  }

  // A refused push fails the flush; the oracle still checked its plan.
  void Flush() { (void)server->FlushReschedules(); }

  void SetDeferred(bool deferred) {
    if (!deferred) Flush();
    server->scheduler().set_deferred(deferred);
  }

  // Crash and restart the server from its snapshot (the daemon's restart
  // path): a fresh process rebuilds its planners from the durable rows.
  // Deferred reschedules still pending are lost with the process.
  void Restart() {
    const bool deferred = server->scheduler().deferred();
    const Bytes snapshot = server->SnapshotState();
    server.reset();
    StartServer();
    ASSERT_TRUE(server->RestoreFromSnapshot(snapshot).ok());
    server->scheduler().set_deferred(deferred);
  }

  // The members of every app's planner must be its active set: checked by
  // running one more plan per app against the oracle.
  void Settle() {
    SetDeferred(false);
    const ServerConfig config;
    for (AppId app : apps) {
      const ApplicationRecord rec = server->applications().Get(app).value();
      (void)server->scheduler().RescheduleApp(rec, server->participations(),
                                              config.sample_window,
                                              config.samples_per_window);
    }
  }

  SimClock clock;
  net::LoopbackNetwork net;
  std::unique_ptr<ShardedExecutor> executor;
  std::unique_ptr<SensingServer> server;
  LockstepOracle oracle;
  std::vector<AppId> apps;
  std::deque<User> users;  // stable references across NewUser
};

TEST(PlanOracle, JoinAndLeaveBetweenTwoFlushesNeverReachesThePlanner) {
  Session s(/*parallel_flush=*/false);
  s.SetDeferred(true);
  Session::User& a = s.NewUser(0, false);
  Session::User& b = s.NewUser(0, false);
  s.Join(a, 4);
  s.Join(b, 4);
  s.Flush();
  const std::uint64_t joins_before = s.oracle.joins();
  EXPECT_EQ(joins_before, 2u);

  s.clock.advance(SimDuration{20'000});
  Session::User& c = s.NewUser(0, false);
  s.Join(c, 4);
  s.clock.advance(SimDuration{5'000});
  s.Leave(c);  // opened and closed while the app waits for its flush
  s.Leave(a);
  s.Flush();
  EXPECT_EQ(s.oracle.joins(), joins_before);  // c was never planned
  EXPECT_EQ(s.oracle.leaves(), 1u);           // only a left the planner
  s.oracle.ExpectAgreed();
}

TEST(PlanOracle, IncarnationRejoinsMatchOracle) {
  Session s(/*parallel_flush=*/false);
  Session::User& u = s.NewUser(0, false);
  Session::User& other = s.NewUser(0, false);
  s.Join(u, 5);
  s.Join(other, 5);
  const TaskId first = *u.task;

  // Same incarnation: idempotent, the existing task is re-sent.
  s.clock.advance(SimDuration{10'000});
  ParticipationReply same = s.Scan(u, 1, 5);
  ASSERT_TRUE(same.accepted);
  EXPECT_EQ(same.task, first);

  // Higher incarnation: the old task leaves and a fresh one joins, in the
  // same plan.
  s.clock.advance(SimDuration{10'000});
  const std::uint64_t leaves_before = s.oracle.leaves();
  ParticipationReply higher = s.Scan(u, 2, 5);
  ASSERT_TRUE(higher.accepted);
  EXPECT_NE(higher.task, first);
  EXPECT_EQ(s.oracle.leaves(), leaves_before + 1);

  // Lower incarnation: refused, nothing planned.
  const std::uint64_t plans_before = s.oracle.plans();
  ParticipationReply lower = s.Scan(u, 1, 5);
  EXPECT_FALSE(lower.accepted);
  EXPECT_EQ(s.oracle.plans(), plans_before);

  s.Settle();
  s.oracle.ExpectAgreed();
}

TEST(PlanOracle, RefusedPushLeavesAtTheNextPlan) {
  Session s(/*parallel_flush=*/false);
  Session::User& refuser = s.NewUser(0, /*refuses=*/true);
  s.Join(refuser, 5);
  EXPECT_EQ(refuser.phone->refusals(), 1);
  const std::string status =
      s.server->participations().Get(*refuser.task).value().status;
  EXPECT_EQ(status.rfind("error:", 0), 0u) << status;

  // MarkError ran inside the distribution, after the change feed was
  // cleared: the next plan must still see the refuser leave.
  s.clock.advance(SimDuration{10'000});
  Session::User& next = s.NewUser(0, false);
  s.Join(next, 5);
  EXPECT_EQ(s.oracle.leaves(), 1u);
  s.oracle.ExpectAgreed();
}

TEST(PlanOracle, VerifyParticipantsLeavesMatchOracle) {
  Session s(/*parallel_flush=*/false);
  std::vector<Session::User*> users;
  for (int i = 0; i < 5; ++i) {
    users.push_back(&s.NewUser(0, false));
    s.Join(*users.back(), 4);
  }
  users[1]->phone->Wander();   // out of the place: finished
  users[3]->phone.reset();     // unreachable: error
  s.clock.advance(SimDuration{30'000});
  Result<int> removed = s.server->VerifyParticipants(s.apps[0]);
  ASSERT_TRUE(removed.ok()) << removed.error().str();
  EXPECT_EQ(removed.value(), 2);
  EXPECT_EQ(s.oracle.leaves(), 2u);
  s.oracle.ExpectAgreed();
}

TEST(PlanOracle, RestoreThenMoreJoinsMatchOracle) {
  Session s(/*parallel_flush=*/false);
  for (int i = 0; i < 4; ++i) s.Join(s.NewUser(i % 2, false), 5);
  s.clock.advance(SimDuration{40'000});
  s.Leave(s.users[0]);
  s.Restart();
  for (int i = 0; i < 3; ++i) {
    s.clock.advance(SimDuration{15'000});
    s.Join(s.NewUser(i % 2, false), 5);
  }
  s.Leave(s.users[1]);
  s.Settle();
  EXPECT_EQ(s.oracle.leaves(), 2u);
  s.oracle.ExpectAgreed();
}

// Seeded random sessions mixing every event the change feed must carry:
// joins, leaves, same/higher/lower-incarnation rescans, refused pushes,
// participant verification, deferred flushes (planned in parallel) and
// restarts from a snapshot.
TEST(PlanOracle, RandomSessionsMatchOracle) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Session s(/*parallel_flush=*/true);
    Rng rng(seed);
    for (int step = 0; step < 240; ++step) {
      s.clock.advance(SimDuration{rng.uniform_int(0, 15) * 1'000});
      std::vector<Session::User*> open;
      std::vector<Session::User*> reachable;
      for (Session::User& u : s.users) {
        if (!u.phone) continue;
        reachable.push_back(&u);
        if (u.task.has_value()) open.push_back(&u);
      }
      auto pick = [&rng](std::vector<Session::User*>& from) {
        return from[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(from.size()) - 1))];
      };
      const std::int64_t roll = rng.uniform_int(0, 99);
      if (roll < 32 || open.empty()) {
        Session::User& u = s.NewUser(
            static_cast<std::size_t>(rng.uniform_int(0, 1)),
            /*refuses=*/rng.uniform_int(0, 9) == 0);
        s.Join(u, static_cast<int>(rng.uniform_int(1, 8)));
      } else if (roll < 54) {
        s.Leave(*pick(open));
      } else if (roll < 62) {
        Session::User& u = *pick(reachable);
        const ParticipationReply r = s.Scan(u, u.incarnation, 5);
        if (r.accepted) u.task = r.task;
      } else if (roll < 68) {
        Session::User& u = *pick(reachable);
        ++u.incarnation;  // reinstall
        const ParticipationReply r = s.Scan(u, u.incarnation, 5);
        EXPECT_TRUE(r.accepted) << r.reason;
        if (r.accepted) u.task = r.task;
      } else if (roll < 72) {
        Session::User& u = *pick(open);
        if (u.incarnation > 1) {
          EXPECT_FALSE(s.Scan(u, u.incarnation - 1, 5).accepted);
        }
      } else if (roll < 78) {
        s.SetDeferred(!s.server->scheduler().deferred());
      } else if (roll < 88) {
        s.Flush();
      } else if (roll < 94) {
        Session::User& u = *pick(open);
        if (rng.uniform_int(0, 1) == 0) {
          u.phone->Wander();
        } else {
          u.phone.reset();
        }
        const std::size_t app = u.app;
        Result<int> removed = s.server->VerifyParticipants(s.apps[app]);
        EXPECT_TRUE(removed.ok());
        // Whoever verification closed no longer holds a task.
        for (Session::User& v : s.users) {
          if (v.task.has_value() &&
              !IsOpenStatus(
                  s.server->participations().Get(*v.task).value().status))
            v.task.reset();
        }
      } else {
        s.Restart();
      }
      // A refused push closes the task in the same call.
      for (Session::User& v : s.users) {
        if (v.task.has_value() &&
            !IsOpenStatus(
                s.server->participations().Get(*v.task).value().status))
          v.task.reset();
      }
    }
    s.Settle();
    EXPECT_GT(s.oracle.joins(), 50u);
    EXPECT_GT(s.oracle.leaves(), 20u);
    s.oracle.ExpectAgreed();
  }
}

}  // namespace
}  // namespace sor::server

// --- whole campaigns ---------------------------------------------------------

namespace sor::core {
namespace {

// Online and deferred campaigns under node churn (crash restarts rejoin
// with the same incarnation, reinstalls with a higher one), at one and two
// threads: every PlanApp of the campaign runs beside the oracle.
TEST(PlanOracle, ChurnCampaignsMatchOracle) {
  world::Scenario scenario = world::MakeCoffeeShopScenario();
  scenario.phones_per_place = 4;
  scenario.period_s = 1'800.0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    for (bool deferred : {false, true}) {
      SCOPED_TRACE("seed " + std::to_string(seed) +
                   (deferred ? " deferred" : " online"));
      FieldTestConfig config;
      config.budget_per_user = 20;
      config.n_instants = 120;
      config.seed = 7;
      config.threads = deferred ? 2 : 1;
      config.defer_setup_reschedules = deferred;
      net::NodeFaultRule phones;
      phones.endpoint = "phone:*";
      phones.crash = 0.01;
      phones.restart_after = SimDuration{30'000};
      phones.uninstall = 0.004;
      phones.reinstall_after = SimDuration{40'000};
      config.node_rules = {phones};
      config.node_seed = seed;
      config.drain_ticks = 12;

      System system;
      server::LockstepOracle oracle;
      oracle.Attach(system.server(), system.clock());
      Result<FieldTestResult> run = system.RunFieldTest(scenario, config);
      ASSERT_TRUE(run.ok()) << run.error().str();
      EXPECT_GT(oracle.joins(), 0u);
      EXPECT_GT(oracle.leaves(), 0u);
      EXPECT_GT(run.value().total_restarts + run.value().total_reinstalls,
                0u);
      oracle.ExpectAgreed();
    }
  }
}

}  // namespace
}  // namespace sor::core
