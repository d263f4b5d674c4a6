// TaskInstance — one running sensing task on the phone (§II-A).
//
// "Each incoming task will be served by a task instance ... A task instance
// is a self-contained component, which maintains its own status (e.g.,
// running, waiting for data, etc), call[s] proper API functions to acquire
// data from sensors, and manages data collected from sensors."
//
// The task holds its SenseScript program as optimized IR, compiled once per
// process for each distinct script and shared read-only by every task built
// from it, and owns its schedule Φ_k. When the simulation clock reaches a scheduled instant,
// the task executes it with the data-acquisition host functions
// (get_temperature, get_location, ...) bound to the phone's SensorManager;
// every successful acquisition is recorded as a ReadingTuple (t, Δt, d).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "codec/messages.hpp"
#include "common/ids.hpp"
#include "common/result.hpp"
#include "phone/preferences.hpp"
#include "script/host_api.hpp"
#include "script/interpreter.hpp"
#include "script/ir/ir.hpp"
#include "sensors/manager.hpp"

namespace sor::phone {

enum class TaskStatus {
  kWaitingForSchedule,
  kRunning,
  kFinished,
  kError,
};

[[nodiscard]] constexpr const char* to_string(TaskStatus s) {
  switch (s) {
    case TaskStatus::kWaitingForSchedule: return "waiting_for_schedule";
    case TaskStatus::kRunning: return "running";
    case TaskStatus::kFinished: return "finished";
    case TaskStatus::kError: return "error";
  }
  return "?";
}

struct TaskRunStats {
  std::uint64_t executions = 0;        // scheduled instants executed
  std::uint64_t acquisitions = 0;      // successful get_* calls
  std::uint64_t denied = 0;            // blocked by local preferences
  std::uint64_t failed = 0;            // sensor unavailable / timeout
  std::uint64_t script_errors = 0;
};

class TaskInstance {
 public:
  // `script` is compiled immediately (the static analysis parses, lowers
  // and optimizes it), or its module is shared with the live tasks built
  // from the same script and samples_per_window; a parse failure or any
  // analyzer error puts the task in kError and last_error() carries the
  // rendered diagnostics.
  TaskInstance(TaskId id, AppId app, const std::string& script,
               std::vector<SimTime> schedule, SimDuration sample_window,
               int samples_per_window);

  [[nodiscard]] TaskId id() const { return id_; }
  [[nodiscard]] AppId app() const { return app_; }
  [[nodiscard]] TaskStatus status() const { return status_; }
  [[nodiscard]] const TaskRunStats& stats() const { return stats_; }
  [[nodiscard]] const std::string& last_error() const { return last_error_; }
  [[nodiscard]] const std::vector<SimTime>& schedule() const {
    return schedule_;
  }

  // Execute all scheduled instants with time <= now that have not yet run.
  // Produces the ReadingTuples collected by those executions (the caller —
  // the frontend — uploads them). `sensors` and `prefs` belong to the
  // phone; the task only borrows them per execution.
  [[nodiscard]] std::vector<ReadingTuple> RunDue(
      SimTime now, sensors::SensorManager& sensors,
      const LocalPreferenceManager& prefs);

  // Mark the task finished (user left the place / server said stop).
  void Finish() {
    if (status_ != TaskStatus::kError) status_ = TaskStatus::kFinished;
  }

  [[nodiscard]] bool AllInstantsDone() const {
    return next_instant_ >= schedule_.size();
  }

  // The `now` of the latest RunDue call: every scheduled instant at or
  // before it has had its turn.
  [[nodiscard]] SimTime ran_through() const { return ran_through_; }

  // The earliest instant this task will still execute, if any: nothing it
  // acquires later starts before it.
  [[nodiscard]] std::optional<SimTime> next_instant() const {
    if (status_ != TaskStatus::kRunning || AllInstantsDone())
      return std::nullopt;
    return schedule_[next_instant_];
  }

  // How many times the calling thread has built its host-function table.
  // The table is built once per thread and shared by every task that
  // thread executes, so this stays at most 1.
  [[nodiscard]] static std::uint64_t host_tables_built_on_this_thread();

  // The host-function table of the calling thread: every row of the host
  // API (script/host_api.hpp) but print, which the executor runs itself.
  // Each entry reads the execution running on this thread, so it may only
  // be called from a script that a TaskInstance executes.
  [[nodiscard]] static const script::HostRegistry& ThreadHostTable();

  // How many times this process has compiled a script for a task. Tasks
  // built while another task of the same (script, samples_per_window) is
  // alive share its module, so a fleet running one app compiles it once.
  [[nodiscard]] static std::uint64_t scripts_compiled();

 private:
  // What the thread's host table is bound to while one scheduled instant
  // executes.
  struct Execution {
    TaskInstance& task;
    SimTime t;
    sensors::SensorManager& sensors;
    const LocalPreferenceManager& prefs;
    std::vector<ReadingTuple>& out;
  };

  // Run the script once for the instant at `t`, collecting tuples.
  void ExecuteOnce(SimTime t, sensors::SensorManager& sensors,
                   const LocalPreferenceManager& prefs,
                   std::vector<ReadingTuple>& out);
  // A task fact for the script of `e`.
  [[nodiscard]] double Fact(const Execution& e, script::TaskFact fact) const;
  // One acquisition call from the script of `e`.
  [[nodiscard]] script::Value Acquire(const Execution& e, SensorKind kind,
                                      std::span<const script::Value> args);

  static thread_local const Execution* current_;

  TaskId id_;
  AppId app_;
  // Optimized; every instant executes it. Shared with the other tasks of
  // the same script, so it is never written after the compile.
  std::shared_ptr<const script::ir::Module> module_;
  std::vector<SimTime> schedule_;  // sorted
  std::size_t next_instant_ = 0;
  SimTime ran_through_;
  SimDuration sample_window_;
  int samples_per_window_;
  TaskStatus status_ = TaskStatus::kWaitingForSchedule;
  TaskRunStats stats_;
  std::string last_error_;
};

}  // namespace sor::phone
