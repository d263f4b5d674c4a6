#include "sched/incremental.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "sched/baseline.hpp"
#include "sched/greedy.hpp"

namespace sor::sched {

namespace {
double SpacingSeconds(const std::vector<SimTime>& grid) {
  if (grid.size() <= 1) return 1.0;
  return (grid[1] - grid[0]).seconds();
}
}  // namespace

IncrementalPlanner::IncrementalPlanner(std::vector<SimTime> grid, Options opts)
    : grid_(std::move(grid)),
      opts_(opts),
      kernel_(CoverageKernel::Shared(opts.sigma_s, SpacingSeconds(grid_),
                                     opts.support_sigmas)),
      q_(grid_.size(), 1.0),
      commits_at_(grid_.size()) {
  assert(!grid_.empty());
}

double IncrementalPlanner::spacing_s() const { return SpacingSeconds(grid_); }

void IncrementalPlanner::RebuildCommitIndexes() {
  for (auto& lst : commits_at_) lst.clear();
  for (auto& [member, positions] : member_commits_) positions.clear();
  for (std::size_t pos = 0; pos < log_.size(); ++pos) {
    const Commit& c = log_[pos];
    if (!c.alive) continue;
    commits_at_[static_cast<std::size_t>(c.instant)].push_back(pos);
    // Only registered (active) members index their commits; commits of
    // departed members stay in the log as ownerless sunk coverage.
    if (auto it = member_commits_.find(c.member); it != member_commits_.end())
      it->second.push_back(pos);
  }
}

void IncrementalPlanner::ReplayQ() {
  // Compact first: dead entries never matter again, and dropping them keeps
  // the log proportional to alive picks rather than campaign history.
  if (dead_commits_ > 0) {
    std::vector<Commit> alive;
    alive.reserve(log_.size() - dead_commits_);
    for (const Commit& c : log_) {
      if (c.alive) alive.push_back(c);
    }
    log_ = std::move(alive);
    dead_commits_ = 0;
    RebuildCommitIndexes();
  }
  std::fill(q_.begin(), q_.end(), 1.0);
  const int n = num_instants();
  const int sup = kernel_->support();
  for (const Commit& c : log_) {
    const int lo = std::max(0, c.instant - sup);
    const int hi = std::min(n - 1, c.instant + sup);
    for (int j = lo; j <= hi; ++j)
      q_[static_cast<std::size_t>(j)] *=
          1.0 - kernel_->at(std::abs(j - c.instant));
  }
}

void IncrementalPlanner::RepairQAround(const std::vector<int>& instants) {
  // Instants whose q is stale: everything within kernel support of a killed
  // pick.
  const int n = num_instants();
  const int sup = kernel_->support();
  std::vector<std::uint8_t> affected(static_cast<std::size_t>(n), 0);
  int affected_count = 0;
  for (int i : instants) {
    const int lo = std::max(0, i - sup);
    const int hi = std::min(n - 1, i + sup);
    for (int j = lo; j <= hi; ++j) {
      if (affected[static_cast<std::size_t>(j)] == 0) {
        affected[static_cast<std::size_t>(j)] = 1;
        ++affected_count;
      }
    }
  }
  // Support-local exact replay: q[j] becomes the product of the SURVIVING
  // factors applied in global seq order — bitwise what a full replay
  // produces, because factors beyond the truncated support are exactly 1.0.
  std::vector<std::pair<std::uint64_t, int>> factors;  // (seq, |i − j|)
  for (int j = 0; j < n; ++j) {
    if (affected[static_cast<std::size_t>(j)] == 0) continue;
    factors.clear();
    const int lo = std::max(0, j - sup);
    const int hi = std::min(n - 1, j + sup);
    for (int i = lo; i <= hi; ++i) {
      for (std::size_t pos : commits_at_[static_cast<std::size_t>(i)])
        factors.emplace_back(log_[pos].seq, std::abs(i - j));
    }
    std::sort(factors.begin(), factors.end());
    double qj = 1.0;
    for (const auto& [seq, d] : factors) qj *= 1.0 - kernel_->at(d);
    q_[static_cast<std::size_t>(j)] = qj;
  }
}

Result<IncrementalPlanner::DeltaResult> IncrementalPlanner::ApplyDelta(
    const std::vector<Leave>& leaves, const std::vector<Join>& joins) {
  DeltaResult out;

  // --- leaves first: reclaim the coverage their unexecuted picks held ----
  std::vector<int> killed_instants;
  for (const Leave& l : leaves) {
    auto it = member_commits_.find(l.member);
    if (it == member_commits_.end()) continue;  // unknown member: no-op
    std::vector<Pick>& survivors = out.pruned[l.member];
    for (std::size_t pos : it->second) {
      Commit& c = log_[pos];
      if (!c.alive) continue;
      if (grid_[static_cast<std::size_t>(c.instant)] <= l.cutoff) {
        // Executed before departure: the data was uploaded, the coverage is
        // sunk. The commit stays alive but becomes ownerless.
        survivors.push_back({c.instant, c.seq});
        continue;
      }
      c.alive = false;
      ++dead_commits_;
      killed_instants.push_back(c.instant);
      auto& lst = commits_at_[static_cast<std::size_t>(c.instant)];
      lst.erase(std::find(lst.begin(), lst.end(), pos));
    }
    member_commits_.erase(it);
  }

  if (!killed_instants.empty()) {
    const int sup = kernel_->support();
    const double affected_bound = static_cast<double>(killed_instants.size()) *
                                  static_cast<double>(2 * sup + 1);
    if (affected_bound >
        opts_.rebuild_fraction * static_cast<double>(num_instants())) {
      ReplayQ();
    } else {
      RepairQAround(killed_instants);
    }
  }

  // --- then joins: one greedy run over just the arriving members ---------
  if (joins.empty()) return out;
  for (const Join& j : joins) {
    if (member_commits_.contains(j.member))
      return Error{Errc::kAlreadyExists,
                   "member " + std::to_string(j.member) + " already planned"};
  }

  Problem prob;
  prob.grid = grid_;
  prob.sigma_s = opts_.sigma_s;
  prob.support_sigmas = opts_.support_sigmas;
  prob.users.reserve(joins.size());
  bool plannable = false;
  for (const Join& j : joins) {
    UserWindow w;
    if (j.window.empty() || j.budget <= 0) {
      // Window already in the past (or no budget): keep the member with a
      // valid zero-budget sentinel window so indices line up.
      w.presence = SimInterval{grid_.back(), grid_.back()};
      w.budget = 0;
    } else {
      w.presence = j.window;
      w.budget = j.budget;
      plannable = true;
    }
    prob.users.push_back(w);
  }

  // Register every join (even pickless ones) so the diff on the next delta
  // knows them.
  for (const Join& j : joins) member_commits_.try_emplace(j.member);
  if (!plannable) return out;

  double before = 0.0;
  for (double qj : q_) before += 1.0 - qj;

  Result<ScheduleResult> placed = [&]() {
    switch (opts_.algorithm) {
      case PlacementAlgorithm::kLazyGreedy:
        return LazyGreedyPlaceDelta(prob, q_);
      case PlacementAlgorithm::kPeriodic: {
        // The baseline ignores coverage; its per-member picks depend only on
        // the member's own window, so placing deltas is exact.
        Result<ScheduleResult> r = PeriodicBaselineSchedule(prob);
        if (r.ok()) {
          const int n = num_instants();
          const int sup = kernel_->support();
          for (const Assignment& a : r.value().insertion_order) {
            const int lo = std::max(0, a.instant - sup);
            const int hi = std::min(n - 1, a.instant + sup);
            for (int j = lo; j <= hi; ++j)
              q_[static_cast<std::size_t>(j)] *=
                  1.0 - kernel_->at(std::abs(j - a.instant));
          }
        }
        return r;
      }
    }
    return Result<ScheduleResult>(
        Error{Errc::kInvalidArgument, "unknown placement algorithm"});
  }();
  if (!placed.ok()) return placed.error();
  out.gain_evaluations = placed.value().gain_evaluations;

  // Append the picks to the log in greedy commit order — that order IS the
  // global seq order every replay reproduces.
  for (const Assignment& a : placed.value().insertion_order) {
    const std::int64_t member =
        joins[static_cast<std::size_t>(a.user)].member;
    const std::size_t pos = log_.size();
    log_.push_back(Commit{next_seq_++, member, a.instant, true});
    member_commits_[member].push_back(pos);
    commits_at_[static_cast<std::size_t>(a.instant)].push_back(pos);
  }

  double after = 0.0;
  for (double qj : q_) after += 1.0 - qj;
  out.objective = after - before;
  return out;
}

std::vector<int> IncrementalPlanner::PlanOf(std::int64_t member) const {
  std::vector<int> instants;
  auto it = member_commits_.find(member);
  if (it == member_commits_.end()) return instants;
  instants.reserve(it->second.size());
  for (std::size_t pos : it->second) {
    if (log_[pos].alive) instants.push_back(log_[pos].instant);
  }
  std::sort(instants.begin(), instants.end());
  return instants;
}

std::vector<IncrementalPlanner::Pick> IncrementalPlanner::PicksOf(
    std::int64_t member) const {
  std::vector<Pick> picks;
  auto it = member_commits_.find(member);
  if (it == member_commits_.end()) return picks;
  picks.reserve(it->second.size());
  for (std::size_t pos : it->second) {
    if (log_[pos].alive) picks.push_back({log_[pos].instant, log_[pos].seq});
  }
  std::sort(picks.begin(), picks.end(),
            [](const Pick& a, const Pick& b) { return a.instant < b.instant; });
  return picks;
}

double IncrementalPlanner::total_coverage() const {
  double covered = 0.0;
  for (double qj : q_) covered += 1.0 - qj;
  return covered;
}

void IncrementalPlanner::RestoreMember(std::int64_t member) {
  member_commits_.try_emplace(member);
}

void IncrementalPlanner::RestoreCommit(std::int64_t member, int instant,
                                       std::uint64_t seq) {
  if (instant < 0 || instant >= num_instants()) return;  // tolerate corrupt rows
  log_.push_back(Commit{seq, member, instant, true});
}

void IncrementalPlanner::FinishRestore() {
  std::sort(log_.begin(), log_.end(),
            [](const Commit& a, const Commit& b) { return a.seq < b.seq; });
  dead_commits_ = 0;
  RebuildCommitIndexes();
  ReplayQ();
  next_seq_ = 1;
  for (const Commit& c : log_) next_seq_ = std::max(next_seq_, c.seq + 1);
}

}  // namespace sor::sched
