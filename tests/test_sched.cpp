// Unit + property tests for the §III scheduler: the coverage model (Eq. 1),
// the budget matroid (Theorem 1's axioms), Algorithm 1 and its variants
// (identical objectives), the 1/2-approximation bound against brute force,
// and the §V-C baseline.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>

#include "common/rng.hpp"
#include "sched/baseline.hpp"
#include "sched/brute_force.hpp"
#include "sched/greedy.hpp"
#include "sched/incremental.hpp"
#include "sched/matroid.hpp"
#include "planner_oracle.hpp"

namespace sor::sched {
namespace {

Problem SmallProblem(int n_instants, double period_s, double sigma_s) {
  return Problem::UniformGrid(period_s, n_instants, sigma_s);
}

void AddUser(Problem& p, double arrive_s, double leave_s, int budget) {
  p.users.push_back(UserWindow{
      SimInterval{SimTime::FromSeconds(arrive_s),
                  SimTime::FromSeconds(leave_s)},
      budget});
}

// --- coverage model ------------------------------------------------------------

TEST(Kernel, GaussianShape) {
  const CoverageKernel k(10.0, 10.0, 5.0);
  EXPECT_DOUBLE_EQ(k.at(0), 1.0);
  // One grid step = 10 s = 1 sigma: exp(-0.5).
  EXPECT_NEAR(k.at(1), std::exp(-0.5), 1e-12);
  EXPECT_NEAR(k.at(2), std::exp(-2.0), 1e-12);
  // Beyond support: exactly zero.
  EXPECT_DOUBLE_EQ(k.at(k.support() + 1), 0.0);
  EXPECT_EQ(k.support(), 5);
}

TEST(Kernel, SigmaScalesSupport) {
  const CoverageKernel narrow(10.0, 10.0, 5.0);
  const CoverageKernel wide(60.0, 10.0, 5.0);
  EXPECT_GT(wide.support(), narrow.support());
  EXPECT_GT(wide.at(3), narrow.at(3));
}

TEST(Coverage, SingleMeasurementObjective) {
  // Eq. (1) with one measurement: coverage at j is p(t_i, t_j); objective
  // is the sum of kernel values over the support.
  Problem p = SmallProblem(21, 210.0, 10.0);
  AddUser(p, 0, 210, 1);
  Schedule s = Schedule::Empty(1);
  s.per_user[0] = {10};  // middle instant
  const CoverageEvaluator eval(p);
  double expected = 1.0;  // d = 0
  for (int d = 1; d <= eval.kernel().support(); ++d)
    expected += 2.0 * eval.kernel().at(d);
  EXPECT_NEAR(eval.CombinedObjective(s), expected, 1e-9);
}

TEST(Coverage, ProbabilisticUnionNeverExceedsCount) {
  Problem p = SmallProblem(50, 500.0, 10.0);
  AddUser(p, 0, 500, 5);
  Schedule s = Schedule::Empty(1);
  s.per_user[0] = {10, 11, 12, 13, 14};  // clustered
  const CoverageEvaluator eval(p);
  const double obj = eval.CombinedObjective(s);
  EXPECT_GT(obj, 0.0);
  EXPECT_LE(obj, 50.0);  // can't exceed the number of instants
  // Spread schedule covers strictly more than the clustered one.
  Schedule spread = Schedule::Empty(1);
  spread.per_user[0] = {5, 15, 25, 35, 45};
  EXPECT_GT(eval.CombinedObjective(spread), obj);
}

TEST(Coverage, PerUserSumDoubleCountsSharedInstants) {
  Problem p = SmallProblem(20, 200.0, 10.0);
  AddUser(p, 0, 200, 1);
  AddUser(p, 0, 200, 1);
  Schedule s = Schedule::Empty(2);
  s.per_user[0] = {10};
  s.per_user[1] = {10};
  const CoverageEvaluator eval(p);
  // Per-user-sum (Eq. 2) counts both; combined saturates via Eq. 1.
  EXPECT_GT(eval.PerUserSumObjective(s), eval.CombinedObjective(s));
}

TEST(Coverage, AverageCoverageNormalized) {
  Problem p = SmallProblem(10, 100.0, 10.0);
  AddUser(p, 0, 100, 10);
  Schedule s = Schedule::Empty(1);
  for (int i = 0; i < 10; ++i) s.per_user[0].push_back(i);
  const CoverageEvaluator eval(p);
  const double avg = eval.AverageCoverage(s);
  EXPECT_GT(avg, 0.9);
  EXPECT_LE(avg, 1.0);
}

TEST(Problem, UserInstantsRespectWindow) {
  Problem p = SmallProblem(10, 100.0, 10.0);  // instants at 10,20,...,100
  AddUser(p, 25, 55, 3);
  const std::vector<int> instants = p.UserInstants(0);
  // instants within [25s, 55s]: 30,40,50 -> indices 2,3,4.
  EXPECT_EQ(instants, (std::vector<int>{2, 3, 4}));
}

TEST(Problem, ValidationCatchesBadInstances) {
  Problem p;
  EXPECT_FALSE(p.Validate().ok());  // empty grid
  p = SmallProblem(5, 50, 10);
  p.sigma_s = -1;
  EXPECT_FALSE(p.Validate().ok());
  p = SmallProblem(5, 50, 10);
  AddUser(p, 10, 5, 1);  // leave before arrive
  EXPECT_FALSE(p.Validate().ok());
  p = SmallProblem(5, 50, 10);
  AddUser(p, 0, 50, -2);
  EXPECT_FALSE(p.Validate().ok());
}

// --- matroid -------------------------------------------------------------------

TEST(Matroid, IndependenceOracle) {
  Problem p = SmallProblem(10, 100.0, 10.0);
  AddUser(p, 0, 100, 2);
  AddUser(p, 45, 100, 1);
  BudgetMatroid m(p);
  EXPECT_TRUE(m.CanAdd({0, 0}));
  EXPECT_FALSE(m.CanAdd({1, 0}));  // instant 0 (t=10s) before user 1 arrives
  EXPECT_TRUE(m.CanAdd({1, 5}));
  m.Add({0, 0});
  m.Add({0, 5});
  EXPECT_FALSE(m.CanAdd({0, 7}));  // budget 2 exhausted
  m.Remove({0, 5});
  EXPECT_TRUE(m.CanAdd({0, 7}));
}

TEST(Matroid, InstantFeasibleAndPickUser) {
  Problem p = SmallProblem(10, 100.0, 10.0);
  AddUser(p, 0, 100, 1);
  AddUser(p, 0, 100, 3);
  BudgetMatroid m(p);
  // User 1 has more remaining budget: deterministic pick.
  EXPECT_EQ(m.PickUserFor(4), 1);
  m.Add({1, 4});
  m.Add({1, 5});
  m.Add({1, 6});
  EXPECT_EQ(m.PickUserFor(4), 0);  // user 1 exhausted
  m.Add({0, 0});
  EXPECT_FALSE(m.InstantFeasible(4));
  EXPECT_FALSE(m.InstantFeasible(-1));
}

// Property: the matroid exchange axiom holds on the (user, instant) ground
// set — for independent sets |X| > |Y| there is an element of X \ Y whose
// addition keeps Y independent. (Theorem 1 in executable form.)
TEST(Matroid, ExchangePropertyOnRandomInstances) {
  Rng rng(17);
  for (int round = 0; round < 200; ++round) {
    Problem p = SmallProblem(6, 60.0, 10.0);
    const int K = 2 + static_cast<int>(rng.uniform_int(0, 1));
    for (int k = 0; k < K; ++k) {
      const double a = rng.uniform(0, 40);
      AddUser(p, a, a + rng.uniform(10, 60),
              static_cast<int>(rng.uniform_int(1, 3)));
    }
    // Ground set.
    std::vector<Assignment> ground;
    for (int k = 0; k < p.num_users(); ++k) {
      for (int i : p.UserInstants(k)) ground.push_back({k, i});
    }
    if (ground.size() > 12) continue;  // keep enumeration cheap

    auto independent = [&](std::uint32_t mask) {
      std::vector<int> used(static_cast<std::size_t>(p.num_users()), 0);
      for (std::size_t e = 0; e < ground.size(); ++e) {
        if (mask & (1u << e)) {
          if (++used[static_cast<std::size_t>(ground[e].user)] >
              p.users[static_cast<std::size_t>(ground[e].user)].budget)
            return false;
        }
      }
      return true;
    };

    const std::uint32_t limit = 1u << ground.size();
    for (std::uint32_t x = 0; x < limit; ++x) {
      if (!independent(x)) continue;
      for (std::uint32_t y = 0; y < limit; ++y) {
        if (!independent(y)) continue;
        if (std::popcount(x) <= std::popcount(y)) continue;
        bool exchangeable = false;
        for (std::size_t e = 0; e < ground.size(); ++e) {
          const std::uint32_t bit = 1u << e;
          if ((x & bit) && !(y & bit) && independent(y | bit)) {
            exchangeable = true;
            break;
          }
        }
        ASSERT_TRUE(exchangeable) << "round " << round;
      }
    }
  }
}

// --- greedy variants ----------------------------------------------------------

TEST(Greedy, RespectsBudgetsAndWindows) {
  Problem p = SmallProblem(30, 300.0, 10.0);
  AddUser(p, 0, 150, 3);
  AddUser(p, 100, 300, 5);
  Result<ScheduleResult> r = GreedySchedule(p);
  ASSERT_TRUE(r.ok());
  const Schedule& s = r.value().schedule;
  EXPECT_LE(s.per_user[0].size(), 3u);
  EXPECT_LE(s.per_user[1].size(), 5u);
  for (int i : s.per_user[0]) {
    EXPECT_TRUE(p.users[0].presence.contains(p.grid[i]));
  }
  for (int i : s.per_user[1]) {
    EXPECT_TRUE(p.users[1].presence.contains(p.grid[i]));
  }
  // No duplicate instants within one user's schedule.
  std::set<int> uniq(s.per_user[0].begin(), s.per_user[0].end());
  EXPECT_EQ(uniq.size(), s.per_user[0].size());
}

TEST(Greedy, ExhaustsBudgetWhenBeneficial) {
  Problem p = SmallProblem(50, 500.0, 10.0);
  AddUser(p, 0, 500, 5);
  Result<ScheduleResult> r = GreedySchedule(p);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().schedule.per_user[0].size(), 5u);
}

TEST(Greedy, SpreadsMeasurements) {
  Problem p = SmallProblem(100, 1'000.0, 10.0);
  AddUser(p, 0, 1'000, 4);
  Result<ScheduleResult> r = GreedySchedule(p);
  ASSERT_TRUE(r.ok());
  const auto& phi = r.value().schedule.per_user[0];
  ASSERT_EQ(phi.size(), 4u);
  // Adjacent picks should be far apart (roughly N/4 instants).
  for (std::size_t i = 1; i < phi.size(); ++i)
    EXPECT_GT(phi[i] - phi[i - 1], 10);
}

TEST(Greedy, VariantsAgreeOnObjective) {
  Rng rng(23);
  for (int round = 0; round < 10; ++round) {
    Problem p = SmallProblem(60, 600.0, 10.0);
    const int K = 1 + static_cast<int>(rng.uniform_int(0, 4));
    for (int k = 0; k < K; ++k) {
      const double a = rng.uniform(0, 500);
      AddUser(p, a, a + rng.uniform(30, 600 - a),
              static_cast<int>(rng.uniform_int(1, 6)));
    }
    Result<ScheduleResult> eager = GreedySchedule(p);
    Result<ScheduleResult> naive = GreedyScheduleNaive(p);
    Result<ScheduleResult> lazy = LazyGreedySchedule(p);
    ASSERT_TRUE(eager.ok());
    ASSERT_TRUE(naive.ok());
    ASSERT_TRUE(lazy.ok());
    EXPECT_NEAR(eager.value().objective, naive.value().objective, 1e-9)
        << "round " << round;
    EXPECT_NEAR(eager.value().objective, lazy.value().objective, 1e-6)
        << "round " << round;
  }
}

TEST(Greedy, LazyEvaluationSavesWorkAtScale) {
  // On tiny instances the lazy heap's refresh overhead can exceed its
  // savings; on paper-scale instances it must win decisively.
  Problem p = Problem::UniformGrid(10'800.0, 1'080, 10.0);
  Rng rng(5);
  for (int k = 0; k < 20; ++k) {
    const double a = rng.uniform(0, 9'000);
    AddUser(p, a, rng.uniform(a, 10'800), 17);
  }
  Result<ScheduleResult> naive = GreedyScheduleNaive(p);
  Result<ScheduleResult> lazy = LazyGreedySchedule(p);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(lazy.ok());
  // At this scale exact gain ties are common (symmetric kernel over a
  // uniform grid) and the two variants may break them differently; allow a
  // 0.2% relative difference in the objective.
  EXPECT_NEAR(naive.value().objective, lazy.value().objective,
              naive.value().objective * 0.002);
  EXPECT_LT(lazy.value().gain_evaluations,
            naive.value().gain_evaluations / 10);
}

TEST(Greedy, EmptyUsersProducesEmptySchedule) {
  Problem p = SmallProblem(10, 100.0, 10.0);
  Result<ScheduleResult> r = GreedySchedule(p);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().schedule.total_measurements(), 0);
  EXPECT_DOUBLE_EQ(r.value().objective, 0.0);
}

TEST(Greedy, ZeroBudgetUserGetsNothing) {
  Problem p = SmallProblem(10, 100.0, 10.0);
  AddUser(p, 0, 100, 0);
  AddUser(p, 0, 100, 2);
  Result<ScheduleResult> r = GreedySchedule(p);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().schedule.per_user[0].empty());
  EXPECT_EQ(r.value().schedule.per_user[1].size(), 2u);
}

// Property: the 1/2-approximation guarantee versus brute force on every
// enumerable instance. (Greedy over a matroid: f(greedy) >= OPT/2.)
class GreedyApproximationTest : public ::testing::TestWithParam<int> {};

TEST_P(GreedyApproximationTest, AtLeastHalfOfOptimum) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 101 + 3);
  for (int round = 0; round < 25; ++round) {
    Problem p = SmallProblem(5 + GetParam() % 3, 60.0, 12.0);
    const int K = 1 + static_cast<int>(rng.uniform_int(0, 2));
    for (int k = 0; k < K; ++k) {
      const double a = rng.uniform(0, 40);
      AddUser(p, a, a + rng.uniform(10, 60), 1 + (round + k) % 3);
    }
    Result<ScheduleResult> optimal = BruteForceOptimalSchedule(p, 14);
    if (!optimal.ok()) continue;  // ground set too large: skip
    Result<ScheduleResult> greedy = GreedySchedule(p);
    ASSERT_TRUE(greedy.ok());
    EXPECT_GE(greedy.value().objective,
              0.5 * optimal.value().objective - 1e-9)
        << "round " << round;
    // Sanity: greedy never exceeds the optimum.
    EXPECT_LE(greedy.value().objective,
              optimal.value().objective + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyApproximationTest,
                         ::testing::Values(1, 2, 3, 4));

// In practice greedy is near-optimal on these instances, far above 1/2.
TEST(Greedy, EmpiricallyCloseToOptimum) {
  Rng rng(77);
  double worst_ratio = 1.0;
  for (int round = 0; round < 20; ++round) {
    Problem p = SmallProblem(6, 60.0, 10.0);
    AddUser(p, rng.uniform(0, 20), 60, 2);
    AddUser(p, rng.uniform(0, 30), 60, 1);
    Result<ScheduleResult> optimal = BruteForceOptimalSchedule(p, 14);
    if (!optimal.ok() || optimal.value().objective <= 0) continue;
    Result<ScheduleResult> greedy = GreedySchedule(p);
    ASSERT_TRUE(greedy.ok());
    worst_ratio = std::min(
        worst_ratio, greedy.value().objective / optimal.value().objective);
  }
  // The theoretical floor is 0.5; observed worst case on these instances
  // stays well above it.
  EXPECT_GT(worst_ratio, 0.8);
}

// --- baseline ------------------------------------------------------------------

TEST(Baseline, SensesEveryTenSecondsFromArrival) {
  Problem p = SmallProblem(30, 300.0, 10.0);  // instants every 10 s
  AddUser(p, 50, 300, 4);
  Result<ScheduleResult> r = PeriodicBaselineSchedule(p);
  ASSERT_TRUE(r.ok());
  // Arrival at 50 s: first instants at/after 50,60,70,80 -> indices 4..7.
  EXPECT_EQ(r.value().schedule.per_user[0], (std::vector<int>{4, 5, 6, 7}));
}

TEST(Baseline, StopsAtLeaveTime) {
  Problem p = SmallProblem(30, 300.0, 10.0);
  AddUser(p, 0, 25, 10);  // leaves after 25 s
  Result<ScheduleResult> r = PeriodicBaselineSchedule(p);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r.value().schedule.per_user[0].size(), 3u);
  for (int i : r.value().schedule.per_user[0]) {
    EXPECT_LE(p.grid[i].seconds(), 25.0);
  }
}

TEST(Baseline, GreedyBeatsBaselineOnPaperSetup) {
  Rng rng(2014);
  Problem p = Problem::UniformGrid(10'800.0, 1'080, 10.0);
  for (int k = 0; k < 20; ++k) {
    const double a = rng.uniform(0, 10'800);
    AddUser(p, a, rng.uniform(a, 10'800), 17);
  }
  Result<ScheduleResult> greedy = GreedySchedule(p);
  Result<ScheduleResult> base = PeriodicBaselineSchedule(p);
  ASSERT_TRUE(greedy.ok());
  ASSERT_TRUE(base.ok());
  EXPECT_GT(greedy.value().objective, base.value().objective);
  // §V-C reports an average improvement of ~65%; demand at least 20% here.
  EXPECT_GT(greedy.value().objective, 1.2 * base.value().objective);
}

TEST(Baseline, InvalidIntervalRejected) {
  Problem p = SmallProblem(5, 50.0, 10.0);
  AddUser(p, 0, 50, 1);
  PeriodicBaselineOptions opts;
  opts.interval_s = 0;
  EXPECT_FALSE(PeriodicBaselineSchedule(p, opts).ok());
}

// --- brute force ----------------------------------------------------------------

TEST(BruteForce, MatchesHandComputedTinyInstance) {
  // 3 instants, 1 user, budget 1: optimum takes the middle instant.
  Problem p = SmallProblem(3, 30.0, 10.0);
  AddUser(p, 0, 30, 1);
  Result<ScheduleResult> r = BruteForceOptimalSchedule(p);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().schedule.per_user[0], (std::vector<int>{1}));
}

TEST(BruteForce, RefusesLargeGroundSets) {
  Problem p = SmallProblem(30, 300.0, 10.0);
  AddUser(p, 0, 300, 5);
  EXPECT_FALSE(BruteForceOptimalSchedule(p, 10).ok());
}

// --- delta placement + the incremental planner ------------------------------

// Random delta instance: K users with random windows and budgets.
Problem RandomDelta(Rng& rng, int n_instants, double period_s) {
  Problem p = SmallProblem(n_instants, period_s, 10.0);
  const int K = 1 + static_cast<int>(rng.uniform_int(0, 3));
  for (int k = 0; k < K; ++k) {
    const double a = rng.uniform(0, period_s * 0.8);
    AddUser(p, a, a + rng.uniform(30, period_s - a),
            1 + static_cast<int>(rng.uniform_int(0, 5)));
  }
  return p;
}

TEST(Greedy, EagerAndLazyDeltaPickParity) {
  // The eager placement (the cold-replan oracle's) and the lazy one (the
  // planner's) must commit the SAME picks in the SAME order — the lazy heap
  // is an efficiency change only. Checked over two delta waves so the
  // second wave places against nontrivial residual coverage, where stale
  // heap entries actually occur.
  Rng rng(71);
  for (int round = 0; round < 10; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::vector<double> q_eager(60, 1.0);
    std::vector<double> q_lazy = q_eager;
    Rng wave_rng = rng.fork();
    for (int wave = 0; wave < 2; ++wave) {
      SCOPED_TRACE("wave " + std::to_string(wave));
      const Problem p = RandomDelta(wave_rng, 60, 600.0);
      Result<ScheduleResult> eager = GreedyPlaceDelta(p, q_eager);
      Result<ScheduleResult> lazy = LazyGreedyPlaceDelta(p, q_lazy);
      ASSERT_TRUE(eager.ok());
      ASSERT_TRUE(lazy.ok());
      // Identical commit sequences...
      EXPECT_EQ(eager.value().insertion_order, lazy.value().insertion_order);
      // ...and bitwise-identical residual coverage carried to the next wave.
      EXPECT_EQ(q_eager, q_lazy);
      // The windowed lazy heap may only SAVE evaluations.
      EXPECT_LE(lazy.value().gain_evaluations,
                eager.value().gain_evaluations);
    }
  }
}

IncrementalPlanner::Options PlannerOpts(double rebuild_fraction = 0.25) {
  IncrementalPlanner::Options o;
  o.sigma_s = 10.0;
  o.rebuild_fraction = rebuild_fraction;
  return o;
}

// Drive two planners through an identical churn history and require
// byte-identical observable state after every delta. `b` is another
// IncrementalPlanner or the cold-replan oracle.
template <typename Planner>
void ExpectLockstep(IncrementalPlanner& a, Planner& b, std::uint64_t seed,
                    std::int64_t first_member) {
  Rng rng(seed);
  std::vector<std::int64_t> active;
  std::int64_t next_member = first_member;
  for (int round = 0; round < 8; ++round) {
    SCOPED_TRACE("delta round " + std::to_string(round));
    std::vector<IncrementalPlanner::Leave> leaves;
    for (std::size_t i = 0; i < active.size();) {
      if (rng.uniform(0, 1) < 0.3) {
        leaves.push_back(
            {active[i], SimTime::FromSeconds(rng.uniform(0, 600))});
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    std::vector<IncrementalPlanner::Join> joins;
    const int arriving = 1 + static_cast<int>(rng.uniform_int(0, 2));
    for (int k = 0; k < arriving; ++k) {
      const double arrive = rng.uniform(0, 500);
      joins.push_back({next_member,
                       SimInterval{SimTime::FromSeconds(arrive),
                                   SimTime::FromSeconds(
                                       arrive + rng.uniform(30, 600 - arrive))},
                       1 + static_cast<int>(rng.uniform_int(0, 5))});
      active.push_back(next_member++);
    }
    Result<IncrementalPlanner::DeltaResult> ra = a.ApplyDelta(leaves, joins);
    Result<IncrementalPlanner::DeltaResult> rb = b.ApplyDelta(leaves, joins);
    ASSERT_TRUE(ra.ok()) << ra.error().str();
    ASSERT_TRUE(rb.ok()) << rb.error().str();
    // Bitwise: objective, pruned rows, every member's plan, total coverage.
    EXPECT_EQ(ra.value().objective, rb.value().objective);
    ASSERT_EQ(ra.value().pruned.size(), rb.value().pruned.size());
    for (const auto& [member, picks] : ra.value().pruned) {
      auto it = rb.value().pruned.find(member);
      ASSERT_NE(it, rb.value().pruned.end()) << "member " << member;
      ASSERT_EQ(picks.size(), it->second.size());
      for (std::size_t i = 0; i < picks.size(); ++i) {
        EXPECT_EQ(picks[i].instant, it->second[i].instant);
        EXPECT_EQ(picks[i].seq, it->second[i].seq);
      }
    }
    EXPECT_EQ(a.Members(), b.Members());
    for (std::int64_t m : active) EXPECT_EQ(a.PlanOf(m), b.PlanOf(m));
    EXPECT_EQ(a.total_coverage(), b.total_coverage());
  }
}

TEST(Incremental, ChurnMatchesColdReplanOracle) {
  // The planner's parity contract: incremental q maintenance + windowed
  // lazy heap seeding produce bit-for-bit the plans of a full cold replan
  // from the commit log (tests/planner_oracle.hpp), across random
  // join/leave churn. A huge rebuild_fraction sends every leave through
  // RepairQAround, whose seq-ordered products the oracle's replay pins:
  // multiplying the factors in reversed seq order, or in gather (instant)
  // order, fails seeds 7 and 18 of that input.
  std::vector<SimTime> grid = Problem::UniformGrid(600.0, 60, 10.0).grid;
  for (double rebuild_fraction : {0.25, 1e9}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      SCOPED_TRACE("rebuild_fraction " + std::to_string(rebuild_fraction) +
                   " seed " + std::to_string(seed));
      IncrementalPlanner inc(grid, PlannerOpts(rebuild_fraction));
      oracle::ColdReplan cold(grid, 10.0);
      ExpectLockstep(inc, cold, seed, 100);
    }
  }
}

TEST(Incremental, LeaveRepairModesBitwiseEqual) {
  // Support-local factor gathering vs full-log replay are the same bits —
  // only the cost differs. rebuild_fraction 0 forces replay on every leave;
  // a huge fraction forces local repair always.
  std::vector<SimTime> grid = Problem::UniformGrid(600.0, 60, 10.0).grid;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    IncrementalPlanner always_rebuild(grid, PlannerOpts(0.0));
    IncrementalPlanner always_local(grid, PlannerOpts(1e9));
    ExpectLockstep(always_rebuild, always_local, seed, 300);
  }
}

TEST(Incremental, RestoreRebuildsEquivalentState) {
  // A planner restored from durable picks (RestoreMember/RestoreCommit/
  // FinishRestore) must behave bitwise like the uninterrupted original on
  // every subsequent delta.
  std::vector<SimTime> grid = Problem::UniformGrid(600.0, 60, 10.0).grid;
  IncrementalPlanner live(grid, PlannerOpts());
  std::vector<IncrementalPlanner::Join> wave1 = {
      {1, SimInterval{SimTime::FromSeconds(0), SimTime::FromSeconds(600)}, 5},
      {2, SimInterval{SimTime::FromSeconds(100), SimTime::FromSeconds(500)},
       4},
      {3, SimInterval{SimTime::FromSeconds(50), SimTime::FromSeconds(350)},
       3}};
  ASSERT_TRUE(live.ApplyDelta({}, wave1).ok());

  IncrementalPlanner restored(grid, PlannerOpts());
  for (std::int64_t m : live.Members()) {
    restored.RestoreMember(m);
    for (const IncrementalPlanner::Pick& pick : live.PicksOf(m))
      restored.RestoreCommit(m, pick.instant, pick.seq);
  }
  restored.FinishRestore();
  EXPECT_EQ(restored.Members(), live.Members());
  for (std::int64_t m : live.Members())
    EXPECT_EQ(restored.PlanOf(m), live.PlanOf(m));
  EXPECT_EQ(restored.total_coverage(), live.total_coverage());

  // Same churn applied to both from here on stays in lockstep.
  ExpectLockstep(live, restored, 9, 500);
}

TEST(Incremental, RejoinOfKnownMemberRejected) {
  std::vector<SimTime> grid = Problem::UniformGrid(600.0, 60, 10.0).grid;
  IncrementalPlanner planner(grid, PlannerOpts());
  const std::vector<IncrementalPlanner::Join> join = {
      {7, SimInterval{SimTime::FromSeconds(0), SimTime::FromSeconds(600)},
       3}};
  ASSERT_TRUE(planner.ApplyDelta({}, join).ok());
  Result<IncrementalPlanner::DeltaResult> again = planner.ApplyDelta({}, join);
  EXPECT_EQ(again.code(), Errc::kAlreadyExists);
  // After a leave the member may join again.
  ASSERT_TRUE(
      planner.ApplyDelta({{7, SimTime::FromSeconds(600)}}, {}).ok());
  EXPECT_FALSE(planner.HasMember(7));
  EXPECT_TRUE(planner.ApplyDelta({}, join).ok());
}

}  // namespace
}  // namespace sor::sched
