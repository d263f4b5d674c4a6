#include "sched/greedy.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <queue>

#include "sched/matroid.hpp"

namespace sor::sched {

namespace {

// Shared mutable state for all greedy variants. `q` binds either to internal
// storage seeded from the problem's existing measurements (the classic full
// plans) or to a caller-owned residual vector that outlives the run (the
// warm-start delta placements).
struct GreedyState {
  explicit GreedyState(const Problem& p)
      : n(p.num_instants()),
        k(p.num_users()),
        eval(p),
        matroid(p),
        q_storage(eval.UncoveredAfter(p.existing_measurements)),
        q(q_storage),
        taken(static_cast<std::size_t>(n) * std::max(k, 1), 0),
        result{Schedule::Empty(p.num_users()), 0.0, 0, {}} {
    // Baseline coverage already locked in by past measurements; the
    // reported objective is the ADDITIONAL coverage this schedule adds.
    for (double qj : q) preexisting_coverage += 1.0 - qj;
  }

  GreedyState(const Problem& p, std::vector<double>& shared_q)
      : n(p.num_instants()),
        k(p.num_users()),
        eval(p),
        matroid(p),
        q(shared_q),
        taken(static_cast<std::size_t>(n) * std::max(k, 1), 0),
        result{Schedule::Empty(p.num_users()), 0.0, 0, {}} {
    assert(static_cast<int>(q.size()) == n);
    for (double qj : q) preexisting_coverage += 1.0 - qj;
  }

  double preexisting_coverage = 0.0;

  int n;
  int k;
  CoverageEvaluator eval;
  BudgetMatroid matroid;
  std::vector<double> q_storage;  // empty when q binds caller storage
  std::vector<double>& q;         // Π(1 − p) per instant, current schedule
  std::vector<std::uint8_t> taken;  // (instant, user) already scheduled?
  ScheduleResult result;

  [[nodiscard]] bool Taken(int instant, int user) const {
    return taken[static_cast<std::size_t>(instant) * k + user] != 0;
  }

  // Marginal gain of one more measurement at `instant` (independent of which
  // user takes it): Σ_j q[j] · p(t_i, t_j) over the kernel support.
  [[nodiscard]] double Gain(int instant) {
    ++result.gain_evaluations;
    const CoverageKernel& kern = eval.kernel();
    const int sup = kern.support();
    const int lo = std::max(0, instant - sup);
    const int hi = std::min(n - 1, instant + sup);
    double g = 0.0;
    for (int j = lo; j <= hi; ++j)
      g += q[static_cast<std::size_t>(j)] * kern.at(std::abs(j - instant));
    return g;
  }

  // A user that can take `instant` now: positive remaining budget, window
  // covers it, not already sensing at it. -1 if none. Deterministic: most
  // remaining budget, ties toward lower index (fairness, §III). The matroid's
  // budget-bucket index answers this without scanning the fleet.
  [[nodiscard]] int FeasibleUserAt(int instant) const {
    return matroid.FirstFeasibleUserAt(
        instant, [&](int u) { return !Taken(instant, u); });
  }

  // Commit the pick and update q within the kernel support.
  void Commit(int instant, int user) {
    assert(user >= 0);
    matroid.Add({user, instant});
    taken[static_cast<std::size_t>(instant) * k + user] = 1;
    result.schedule.per_user[static_cast<std::size_t>(user)].push_back(
        instant);
    result.insertion_order.push_back({user, instant});
    const CoverageKernel& kern = eval.kernel();
    const int sup = kern.support();
    const int lo = std::max(0, instant - sup);
    const int hi = std::min(n - 1, instant + sup);
    for (int j = lo; j <= hi; ++j)
      q[static_cast<std::size_t>(j)] *= 1.0 - kern.at(std::abs(j - instant));
  }

  ScheduleResult Finish() {
    for (auto& phi : result.schedule.per_user)
      std::sort(phi.begin(), phi.end());
    // Additional coverage achieved by the new schedule on top of whatever
    // already existed: Σ(1 − q_final) − Σ(1 − q_initial). With no existing
    // measurements this is exactly CombinedObjective(schedule).
    double covered = 0.0;
    for (double qj : q) covered += 1.0 - qj;
    result.objective = covered - preexisting_coverage;
    return std::move(result);
  }
};

// The Minoux lazy loop; shared by the full plan and the warm-start delta
// placement.
ScheduleResult RunLazy(GreedyState& st) {
  // Max-heap of (possibly stale gain, instant). Staleness is resolved by
  // re-evaluating the popped candidate and re-inserting if it no longer
  // dominates; submodularity guarantees gains never grow, so a fresh value
  // that still tops the heap is the true argmax. Tie-break toward the lower
  // instant index to match the eager variants.
  using Item = std::pair<double, int>;
  auto cmp = [](const Item& a, const Item& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second > b.second;
  };
  std::priority_queue<Item, std::vector<Item>, decltype(cmp)> heap(cmp);
  for (int i = 0; i < st.n; ++i) {
    // Skipping exhausted instants changes which candidates get evaluated but
    // never which get committed: budgets only shrink during a run, so an
    // instant with no feasible user now never gains one later.
    if (!st.matroid.InstantFeasible(i)) continue;
    heap.emplace(st.Gain(i), i);
  }

  while (!heap.empty()) {
    auto [stale_gain, i] = heap.top();
    heap.pop();
    if (st.FeasibleUserAt(i) < 0) continue;  // exhausted instant: drop
    const double fresh = st.Gain(i);
    // Re-insert unless the fresh value still tops the heap under the SAME
    // ordering the heap uses — including the lower-instant tie-break. On an
    // exact gain tie the eager variants commit the lower instant, so
    // committing a higher-index pop here would break pick parity.
    if (!heap.empty() && cmp(Item{fresh, i}, heap.top())) {
      heap.emplace(fresh, i);
      continue;
    }
    // Fresh value still dominates (or heap empty): this is the greedy pick.
    st.Commit(i, st.FeasibleUserAt(i));
    heap.emplace(st.Gain(i), i);  // the instant may be picked again (other users)
  }
  return st.Finish();
}

// The eager loop with a gain cache; entries within 2·support of a committed
// pick are recomputed, everything else is still exact.
ScheduleResult RunEager(GreedyState& st) {
  std::vector<double> gain(static_cast<std::size_t>(st.n));
  for (int i = 0; i < st.n; ++i) gain[static_cast<std::size_t>(i)] = st.Gain(i);

  const int sup = st.eval.kernel().support();
  while (true) {
    double best_gain = -1.0;
    int best_instant = -1;
    for (int i = 0; i < st.n; ++i) {
      if (gain[static_cast<std::size_t>(i)] <= best_gain) continue;
      if (st.FeasibleUserAt(i) < 0) continue;
      best_gain = gain[static_cast<std::size_t>(i)];
      best_instant = i;
    }
    if (best_instant < 0) break;
    st.Commit(best_instant, st.FeasibleUserAt(best_instant));
    const int lo = std::max(0, best_instant - 2 * sup);
    const int hi = std::min(st.n - 1, best_instant + 2 * sup);
    for (int i = lo; i <= hi; ++i)
      gain[static_cast<std::size_t>(i)] = st.Gain(i);
  }
  return st.Finish();
}

Status ValidateDelta(const Problem& p, const std::vector<double>& q) {
  if (Status s = p.Validate(); !s.ok()) return s;
  if (static_cast<int>(q.size()) != p.num_instants())
    return Status(Errc::kInvalidArgument,
                  "residual vector does not match the grid");
  return Status::Ok();
}

}  // namespace

Result<ScheduleResult> GreedyScheduleNaive(const Problem& p) {
  if (Status s = p.Validate(); !s.ok()) return s.error();
  GreedyState st(p);
  while (true) {
    double best_gain = -1.0;
    int best_instant = -1;
    for (int i = 0; i < st.n; ++i) {
      if (st.FeasibleUserAt(i) < 0) continue;
      const double g = st.Gain(i);
      if (g > best_gain) {
        best_gain = g;
        best_instant = i;
      }
    }
    if (best_instant < 0) break;  // no feasible element left
    st.Commit(best_instant, st.FeasibleUserAt(best_instant));
  }
  return st.Finish();
}

Result<ScheduleResult> GreedySchedule(const Problem& p) {
  if (Status s = p.Validate(); !s.ok()) return s.error();
  GreedyState st(p);
  return RunEager(st);
}

Result<ScheduleResult> LazyGreedySchedule(const Problem& p) {
  if (Status s = p.Validate(); !s.ok()) return s.error();
  GreedyState st(p);
  return RunLazy(st);
}

Result<ScheduleResult> LazyGreedyPlaceDelta(const Problem& p,
                                            std::vector<double>& q) {
  if (Status s = ValidateDelta(p, q); !s.ok()) return s.error();
  GreedyState st(p, q);
  return RunLazy(st);
}

Result<ScheduleResult> GreedyPlaceDelta(const Problem& p,
                                        std::vector<double>& q) {
  if (Status s = ValidateDelta(p, q); !s.ok()) return s.error();
  GreedyState st(p, q);
  return RunEager(st);
}

}  // namespace sor::sched
