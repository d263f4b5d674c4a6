// Incremental commit-log planner: the O(delta) replanning core.
//
// The paper's online scheduler (§III) replans an application from scratch on
// every join/leave — O(fleet · budget) greedy commits per event, O(fleet²)
// over a campaign. This class keeps the planning state ALIVE between events
// instead:
//
//   * The durable plan is an append-only log of commits (member, instant),
//     each stamped with a globally increasing sequence number. A member's
//     schedule is simply its alive log entries; placed picks never move.
//   * The residual-uncoverage vector q[j] = Π(1 − p) over alive commits is
//     the only derived state. A join warm-starts the lazy-greedy heap
//     against q and places just the new members' budgets; a leave kills the
//     departed member's unexecuted picks and repairs q locally.
//
// Numerics contract (why leaves REPLAY instead of divide): q is maintained
// as the product of (1 − p) factors applied in global seq order. Dividing a
// factor back out is not the inverse of multiplying it in under IEEE-754
// (and is 0/0 at the pick's own instant, where p = 1), and a one-ulp drift
// can flip a greedy tie — breaking the byte-identical parity contract. So a
// leave recomputes each affected q[j] as the product of the SURVIVING
// factors in seq order, which is bitwise identical to a full replay: factors
// outside the truncated kernel support are exactly 1.0 and multiplying by
// 1.0 is exact. When the affected region exceeds `rebuild_fraction` of the
// grid, one full replay is cheaper than per-instant gathering — same bits,
// different cost.
//
// The cold replan these plans are held to lives in test code
// (tests/planner_oracle.hpp): it replays q from its own commit log on every
// delta and places joins with the eager GreedyPlaceDelta over the full grid.
// tests/test_sched.cpp and tests/test_determinism.cpp hold the planner to
// it bit for bit.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/result.hpp"
#include "common/sim_time.hpp"
#include "sched/coverage.hpp"

namespace sor::sched {

enum class PlacementAlgorithm {
  kLazyGreedy,  // Minoux heap over the residual coverage — the default
  kPeriodic,    // §V-C baseline: fixed cadence from arrival, ignores q
};

class IncrementalPlanner {
 public:
  struct Options {
    double sigma_s = 10.0;
    double support_sigmas = 5.0;
    PlacementAlgorithm algorithm = PlacementAlgorithm::kLazyGreedy;
    // Leave repair: above this fraction of affected grid instants, rebuild
    // q from the full log instead of gathering per-instant factor lists.
    // 0 replays the whole log on every leave that kills a pick.
    double rebuild_fraction = 0.25;
  };

  // A member joining the plan: its presence window (already clipped to the
  // scheduling period and to "now" by the caller) and sensing budget.
  struct Join {
    std::int64_t member = 0;
    SimInterval window;
    int budget = 0;
  };

  // A member leaving: picks at instants strictly after `cutoff` die (they
  // were never executed); earlier picks stay as sunk coverage — the data
  // was already uploaded.
  struct Leave {
    std::int64_t member = 0;
    SimTime cutoff;
  };

  struct Pick {
    int instant = 0;
    std::uint64_t seq = 0;
  };

  struct DeltaResult {
    // Coverage added by this delta's placements (leaves not subtracted).
    double objective = 0.0;
    std::uint64_t gain_evaluations = 0;
    // Per departed member: the picks that SURVIVED the leave (executed
    // before the cutoff). The caller rewrites the member's durable schedule
    // row to exactly these, so a restore replays only sunk coverage.
    std::map<std::int64_t, std::vector<Pick>> pruned;
  };

  IncrementalPlanner(std::vector<SimTime> grid, Options opts);

  // Process one batch of departures and arrivals. Leaves are applied first
  // (in input order), then all joins are placed in ONE greedy run (matroid
  // over the joining members only) — callers pass joins sorted by member
  // for determinism. Members re-joining (already known) are rejected.
  Result<DeltaResult> ApplyDelta(const std::vector<Leave>& leaves,
                                 const std::vector<Join>& joins);

  [[nodiscard]] bool HasMember(std::int64_t member) const {
    return member_commits_.contains(member);
  }
  [[nodiscard]] std::size_t num_members() const {
    return member_commits_.size();
  }
  // Registered members, ascending. The scheduler keeps this equal to the
  // app's active participation set after every plan (tests check that).
  [[nodiscard]] std::vector<std::int64_t> Members() const {
    std::vector<std::int64_t> out;
    out.reserve(member_commits_.size());
    for (const auto& [m, positions] : member_commits_) out.push_back(m);
    return out;
  }

  // Alive picks of one member, sorted by instant (a schedule), or with their
  // commit seqs (for durable storage / restore).
  [[nodiscard]] std::vector<int> PlanOf(std::int64_t member) const;
  [[nodiscard]] std::vector<Pick> PicksOf(std::int64_t member) const;

  [[nodiscard]] const std::vector<SimTime>& grid() const { return grid_; }
  // Σ(1 − q): total coverage locked in by all alive commits.
  [[nodiscard]] double total_coverage() const;

  // Restore path (post-snapshot): re-register members and their surviving
  // commits in any order, then FinishRestore() sorts by seq, replays q and
  // advances the seq source — bitwise the state an uninterrupted run holds.
  void RestoreMember(std::int64_t member);
  void RestoreCommit(std::int64_t member, int instant, std::uint64_t seq);
  void FinishRestore();

 private:
  struct Commit {
    std::uint64_t seq = 0;
    std::int64_t member = 0;
    int instant = 0;
    bool alive = true;
  };

  [[nodiscard]] int num_instants() const {
    return static_cast<int>(grid_.size());
  }
  [[nodiscard]] double spacing_s() const;
  // Rebuild q (and compact dead log entries) by full seq-order replay.
  void ReplayQ();
  void RebuildCommitIndexes();
  // Recompute q at every instant within kernel support of `instants` from
  // the surviving per-instant factor lists, in seq order.
  void RepairQAround(const std::vector<int>& instants);

  std::vector<SimTime> grid_;
  Options opts_;
  std::shared_ptr<const CoverageKernel> kernel_;
  std::vector<double> q_;
  std::vector<Commit> log_;  // seq-ascending
  // member → positions into log_ (ascending). Presence in this map is what
  // makes a member "known", even with zero picks.
  std::map<std::int64_t, std::vector<std::size_t>> member_commits_;
  // instant → alive log positions (ascending == seq-ascending).
  std::vector<std::vector<std::size_t>> commits_at_;
  std::size_t dead_commits_ = 0;
  std::uint64_t next_seq_ = 1;
};

}  // namespace sor::sched
