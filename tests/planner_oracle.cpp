#include "planner_oracle.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "sched/greedy.hpp"

namespace sor::sched::oracle {

using Join = IncrementalPlanner::Join;
using Leave = IncrementalPlanner::Leave;
using Pick = IncrementalPlanner::Pick;

namespace {

double SpacingSeconds(const std::vector<SimTime>& grid) {
  if (grid.size() <= 1) return 1.0;
  return (grid[1] - grid[0]).seconds();
}

std::string DescribePicks(const std::vector<Pick>& picks) {
  std::ostringstream os;
  os << '[';
  for (const Pick& p : picks) os << ' ' << p.instant << '#' << p.seq;
  os << " ]";
  return os.str();
}

}  // namespace

ColdReplan::ColdReplan(std::vector<SimTime> grid, double sigma_s,
                       double support_sigmas)
    : grid_(std::move(grid)),
      sigma_s_(sigma_s),
      support_sigmas_(support_sigmas),
      kernel_(CoverageKernel::Shared(sigma_s, SpacingSeconds(grid_),
                                     support_sigmas)),
      q_(grid_.size(), 1.0) {}

void ColdReplan::ReplayQ() {
  std::fill(q_.begin(), q_.end(), 1.0);
  const int n = static_cast<int>(grid_.size());
  const int sup = kernel_->support();
  for (const Commit& c : log_) {
    if (!c.alive) continue;
    const int lo = std::max(0, c.instant - sup);
    const int hi = std::min(n - 1, c.instant + sup);
    for (int j = lo; j <= hi; ++j)
      q_[static_cast<std::size_t>(j)] *=
          1.0 - kernel_->at(std::abs(j - c.instant));
  }
}

Result<IncrementalPlanner::DeltaResult> ColdReplan::ApplyDelta(
    const std::vector<Leave>& leaves, const std::vector<Join>& joins) {
  IncrementalPlanner::DeltaResult out;
  for (const Leave& l : leaves) {
    if (members_.erase(l.member) == 0) continue;  // unknown member: no-op
    std::vector<Pick>& survivors = out.pruned[l.member];
    for (Commit& c : log_) {
      if (!c.alive || !c.owned || c.member != l.member) continue;
      c.owned = false;
      if (grid_[static_cast<std::size_t>(c.instant)] <= l.cutoff) {
        survivors.push_back({c.instant, c.seq});
      } else {
        c.alive = false;
      }
    }
  }
  ReplayQ();

  if (joins.empty()) return out;
  for (const Join& j : joins) {
    if (members_.contains(j.member))
      return Error{Errc::kAlreadyExists,
                   "member " + std::to_string(j.member) + " already planned"};
  }
  Problem prob;
  prob.grid = grid_;
  prob.sigma_s = sigma_s_;
  prob.support_sigmas = support_sigmas_;
  bool plannable = false;
  for (const Join& j : joins) {
    members_.insert(j.member);
    UserWindow w;
    if (j.window.empty() || j.budget <= 0) {
      w.presence = SimInterval{grid_.back(), grid_.back()};
    } else {
      w.presence = j.window;
      w.budget = j.budget;
      plannable = true;
    }
    prob.users.push_back(w);
  }
  if (!plannable) return out;

  const double before = total_coverage();
  Result<ScheduleResult> placed = GreedyPlaceDelta(prob, q_);
  if (!placed.ok()) return placed.error();
  out.gain_evaluations = placed.value().gain_evaluations;
  for (const Assignment& a : placed.value().insertion_order) {
    log_.push_back(Commit{next_seq_++,
                          joins[static_cast<std::size_t>(a.user)].member,
                          a.instant, true, true});
  }
  out.objective = total_coverage() - before;
  return out;
}

std::vector<int> ColdReplan::PlanOf(std::int64_t member) const {
  std::vector<int> instants;
  for (const Pick& p : PicksOf(member)) instants.push_back(p.instant);
  return instants;
}

std::vector<Pick> ColdReplan::PicksOf(std::int64_t member) const {
  std::vector<Pick> picks;
  if (!members_.contains(member)) return picks;
  for (const Commit& c : log_) {
    if (c.alive && c.owned && c.member == member)
      picks.push_back({c.instant, c.seq});
  }
  std::sort(picks.begin(), picks.end(),
            [](const Pick& a, const Pick& b) { return a.instant < b.instant; });
  return picks;
}

double ColdReplan::total_coverage() const {
  double covered = 0.0;
  for (double qj : q_) covered += 1.0 - qj;
  return covered;
}

namespace {

// Empty when `live` equals `cold`; otherwise the first difference.
std::string DiffPlanners(const IncrementalPlanner& live,
                         const ColdReplan& cold) {
  const std::vector<std::int64_t> members = live.Members();
  if (members != cold.Members()) {
    return "members differ: " + std::to_string(members.size()) +
           " live, " + std::to_string(cold.Members().size()) + " oracle";
  }
  for (std::int64_t m : members) {
    const std::vector<Pick> got = live.PicksOf(m);
    const std::vector<Pick> want = cold.PicksOf(m);
    const bool same = std::equal(
        got.begin(), got.end(), want.begin(), want.end(),
        [](const Pick& a, const Pick& b) {
          return a.instant == b.instant && a.seq == b.seq;
        });
    if (!same) {
      return "member " + std::to_string(m) + " picks " + DescribePicks(got) +
             ", oracle " + DescribePicks(want);
    }
  }
  if (live.total_coverage() != cold.total_coverage()) {
    std::ostringstream os;
    os.precision(17);
    os << "total coverage " << live.total_coverage() << ", oracle "
       << cold.total_coverage();
    return os.str();
  }
  return {};
}

}  // namespace

void SchedulerLockstep::Attach(server::SensingScheduler& scheduler) {
  scheduler.set_delta_observer(
      [this](const server::ApplicationRecord& app,
             const IncrementalPlanner& planner,
             const std::vector<Leave>& leaves,
             const std::vector<Join>& joins) {
        Check(app, planner, leaves, joins);
      });
}

void SchedulerLockstep::Check(const server::ApplicationRecord& app,
                              const IncrementalPlanner& planner,
                              const std::vector<Leave>& leaves,
                              const std::vector<Join>& joins) {
  std::lock_guard lock(mu_);
  std::unique_ptr<ColdReplan>& cold = apps_[app.id.value()];
  if (!cold)
    cold = std::make_unique<ColdReplan>(planner.grid(), app.spec.sigma_s);
  ++plans_;
  std::string diff = DiffPlanners(planner, *cold);
  Result<IncrementalPlanner::DeltaResult> applied =
      cold->ApplyDelta(leaves, joins);
  if (diff.empty() && !applied.ok())
    diff = "oracle refused the delta: " + applied.error().str();
  if (diff.empty()) return;
  ++mismatch_count_;
  if (mismatches_.size() < 5) {
    mismatches_.push_back("app " + app.id.str() + " plan " +
                          std::to_string(plans_) + ": " + diff);
  }
}

std::uint64_t SchedulerLockstep::plans() const {
  std::lock_guard lock(mu_);
  return plans_;
}

std::uint64_t SchedulerLockstep::mismatch_count() const {
  std::lock_guard lock(mu_);
  return mismatch_count_;
}

std::vector<std::string> SchedulerLockstep::mismatches() const {
  std::lock_guard lock(mu_);
  return mismatches_;
}

}  // namespace sor::sched::oracle
