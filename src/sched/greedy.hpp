// Algorithm 1 — the online greedy sensing scheduler (§III) — plus a lazy
// (Minoux) variant, the one the online planner places with.
//
// All variants maximize the combined coverage objective (Eq. 4) over the
// budget matroid and therefore inherit the 1/2-approximation guarantee of
// greedy submodular maximization over a matroid [Gargano & Hammar / Fisher
// et al.]. They differ only in how marginal gains are (re)computed:
//
//   * GreedyScheduleNaive — the literal Algorithm 1: every iteration
//     re-evaluates f(Ψ ∪ {x}) − f(Ψ) for every candidate. O(N²) per the
//     paper's analysis (with the truncated kernel, O(N·S) per iteration).
//   * GreedySchedule — identical output; exploits that adding a measurement
//     at t_i only changes `q` (the uncovered probability) within the kernel
//     support, so only gains within 2·support of the pick are recomputed.
//   * LazyGreedySchedule — Minoux lazy evaluation with a max-heap of stale
//     gains; valid because marginal gains only shrink as the schedule grows
//     (submodularity). Identical objective value, far fewer evaluations.
//     The heap holds only instants some user can still take.
//
// Determinism: ties in gain break toward the lower instant index, and the
// user charged for a pick is BudgetMatroid::PickUserFor's deterministic
// choice (excluding users already sensing at that instant).
#pragma once

#include <cstdint>

#include "common/result.hpp"
#include "sched/coverage.hpp"

namespace sor::sched {

struct ScheduleResult {
  Schedule schedule;
  double objective = 0.0;          // combined objective f (Eq. 4)
  std::uint64_t gain_evaluations = 0;  // marginal-gain computations performed
  std::vector<Assignment> insertion_order;
};

[[nodiscard]] Result<ScheduleResult> GreedySchedule(const Problem& p);
[[nodiscard]] Result<ScheduleResult> GreedyScheduleNaive(const Problem& p);
[[nodiscard]] Result<ScheduleResult> LazyGreedySchedule(const Problem& p);

// Warm-start placement for incremental replanning (docs/performance.md):
// place ONLY `p.users` (the delta members — e.g. the users who joined since
// the last reschedule) against an externally maintained residual-uncoverage
// vector `q` = Π(1−p) over every previously committed measurement. `q` must
// have one entry per grid instant; it is updated in place with the new
// commits, so the caller can carry it into the next delta round. The
// reported objective is the coverage the new picks add on top of `q`. The
// lazy heap is seeded only with instants some delta user can take, so the
// work is O(delta windows), not O(grid).
[[nodiscard]] Result<ScheduleResult> LazyGreedyPlaceDelta(
    const Problem& p, std::vector<double>& q);

// Eager variant of the same warm start: identical picks, more gain
// evaluations. The reference the lazy placement and the test-side
// cold-replan oracle (tests/planner_oracle.hpp) are held to.
[[nodiscard]] Result<ScheduleResult> GreedyPlaceDelta(const Problem& p,
                                                      std::vector<double>& q);

}  // namespace sor::sched
