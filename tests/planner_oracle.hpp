// The cold replan: the online planner's first algorithm, kept as the test
// oracle.
//
// sched::IncrementalPlanner keeps q alive between deltas: a join places
// against it with the lazy heap seeded only where a delta user can sense,
// and a leave repairs q around the killed picks. ColdReplan rebuilds every
// derived value on every delta instead, from its own commit log:
//   * each leave kills its member's commits past the cutoff (the earlier
//     ones stay as ownerless sunk coverage);
//   * q is recomputed by a full seq-order replay of the alive log;
//   * the joins are placed with the eager GreedyPlaceDelta, which evaluates
//     every grid instant;
//   * each placed pick takes the next seq, and a seq is never reused.
// tests/test_sched.cpp and tests/test_determinism.cpp require the live
// planner's plans, seqs, pruned rows, objectives and total coverage to
// equal this replan's bit for bit. Lazy-greedy placement only.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/sim_time.hpp"
#include "sched/incremental.hpp"
#include "server/scheduler.hpp"

namespace sor::sched::oracle {

class ColdReplan {
 public:
  ColdReplan(std::vector<SimTime> grid, double sigma_s,
             double support_sigmas = 5.0);

  // The same contract as IncrementalPlanner::ApplyDelta: leaves first (in
  // input order), then one placement over all joins; a join of a known
  // member is rejected.
  Result<IncrementalPlanner::DeltaResult> ApplyDelta(
      const std::vector<IncrementalPlanner::Leave>& leaves,
      const std::vector<IncrementalPlanner::Join>& joins);

  [[nodiscard]] std::vector<std::int64_t> Members() const {
    return {members_.begin(), members_.end()};
  }
  [[nodiscard]] std::vector<int> PlanOf(std::int64_t member) const;
  [[nodiscard]] std::vector<IncrementalPlanner::Pick> PicksOf(
      std::int64_t member) const;
  [[nodiscard]] double total_coverage() const;

 private:
  struct Commit {
    std::uint64_t seq = 0;
    std::int64_t member = 0;
    int instant = 0;
    bool alive = true;
    bool owned = true;  // false once its member left (sunk coverage)
  };

  void ReplayQ();

  std::vector<SimTime> grid_;
  double sigma_s_;
  double support_sigmas_;
  std::shared_ptr<const CoverageKernel> kernel_;
  std::vector<double> q_;
  std::vector<Commit> log_;  // seq-ascending, dead entries kept
  std::set<std::int64_t> members_;
  std::uint64_t next_seq_ = 1;
};

// Runs a ColdReplan per app beside a scheduler, through its delta observer:
// at every plan, the app's pre-delta planner must hold exactly the oracle's
// members, per-member picks (instant and seq) and total coverage; the
// oracle then applies the same delta. The observer may run on
// FlushReschedules workers, so its state sits behind a mutex.
class SchedulerLockstep {
 public:
  // Replaces any delta observer `scheduler` had.
  void Attach(server::SensingScheduler& scheduler);

  [[nodiscard]] std::uint64_t plans() const;
  [[nodiscard]] std::uint64_t mismatch_count() const;
  // The first few disagreements, each naming the app.
  [[nodiscard]] std::vector<std::string> mismatches() const;

 private:
  void Check(const server::ApplicationRecord& app,
             const IncrementalPlanner& planner,
             const std::vector<IncrementalPlanner::Leave>& leaves,
             const std::vector<IncrementalPlanner::Join>& joins);

  mutable std::mutex mu_;
  std::map<std::uint64_t, std::unique_ptr<ColdReplan>> apps_;
  std::uint64_t plans_ = 0;
  std::uint64_t mismatch_count_ = 0;
  std::vector<std::string> mismatches_;
};

}  // namespace sor::sched::oracle
