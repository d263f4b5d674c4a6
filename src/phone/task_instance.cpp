#include "phone/task_instance.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <variant>

#include "common/log.hpp"
#include "script/analysis/analyzer.hpp"
#include "script/ir/exec.hpp"

namespace sor::phone {

namespace {

// What a task needs of one compile: the optimized module every instant
// executes, and the analysis verdict with its rendered diagnostics.
struct Compiled {
  script::ir::Module module;  // empty when the script was rejected
  bool ok = false;
  std::string errors;  // AnalysisReport::RenderErrors() when !ok
  std::vector<std::string> warnings;
};

// The compile cache: one entry per distinct (script, samples_per_window)
// input, the only AnalyzerOptions field a phone sets. Analysis is a pure
// function of that input, so every task built from it shares one entry.
// The map holds weak references: an entry lives as long as its last task.
// Expired keys are pruned once the map has doubled since the last prune,
// so a server that sends many distinct scripts cannot grow it past twice
// the entries live at that prune (or 64), and an insert stays amortized
// O(log n).
struct CompileCache {
  std::mutex mu;
  std::map<std::pair<int, std::string>, std::weak_ptr<const Compiled>>
      entries;
  std::size_t prune_at = 64;
  std::atomic<std::uint64_t> compiles{0};
};

CompileCache& Cache() {
  static CompileCache cache;
  return cache;
}

std::shared_ptr<const Compiled> Compile(const std::string& script,
                                        int samples_per_window) {
  CompileCache& cache = Cache();
  std::pair<int, std::string> key{samples_per_window, script};
  // Held across the compile, so concurrent tasks for one new script wait
  // for it rather than compile it twice.
  const std::lock_guard<std::mutex> lock(cache.mu);
  if (auto it = cache.entries.find(key); it != cache.entries.end()) {
    if (std::shared_ptr<const Compiled> hit = it->second.lock()) return hit;
  }
  // Compile = parse + static analysis, which lowers and optimizes the
  // module every instant then executes.
  ++cache.compiles;
  auto compiled = std::make_shared<Compiled>();
  script::analysis::AnalyzerOptions options;
  options.default_samples_per_window = samples_per_window;
  const script::analysis::AnalysisReport report =
      script::analysis::AnalyzeSource(script, options, &compiled->module);
  for (const script::analysis::Diagnostic& d : report.diagnostics) {
    if (d.severity == script::analysis::Severity::kWarning)
      compiled->warnings.push_back(Render(d));
  }
  compiled->ok = report.ok();
  if (!compiled->ok) {
    compiled->errors = report.RenderErrors();
    compiled->module = {};
  }
  if (cache.entries.size() >= cache.prune_at) {
    std::erase_if(cache.entries,
                  [](const auto& entry) { return entry.second.expired(); });
    cache.prune_at = std::max<std::size_t>(64, 2 * cache.entries.size());
  }
  cache.entries.insert_or_assign(std::move(key), compiled);
  return compiled;
}

}  // namespace

std::uint64_t TaskInstance::scripts_compiled() {
  return Cache().compiles.load();
}

TaskInstance::TaskInstance(TaskId id, AppId app, const std::string& script,
                           std::vector<SimTime> schedule,
                           SimDuration sample_window, int samples_per_window)
    : id_(id),
      app_(app),
      schedule_(std::move(schedule)),
      sample_window_(sample_window),
      samples_per_window_(std::max(1, samples_per_window)) {
  std::sort(schedule_.begin(), schedule_.end());
  // The phone re-checks what the server should already have verified — a
  // defense against a stale or hostile server build — so a script that
  // would crash or never terminate is refused before its first scheduled
  // instant. Every task built from one script shares its compile (and its
  // verdict); each still logs the warnings and records the errors itself.
  std::shared_ptr<const Compiled> compiled =
      Compile(script, samples_per_window_);
  for (const std::string& w : compiled->warnings)
    SOR_LOG(kWarn, "task", id_.str() << ": " << w);
  if (!compiled->ok) {
    status_ = TaskStatus::kError;
    last_error_ = compiled->errors;
    ++stats_.script_errors;
  } else {
    status_ = TaskStatus::kRunning;
  }
  const script::ir::Module* module = &compiled->module;
  module_ = std::shared_ptr<const script::ir::Module>(std::move(compiled),
                                                      module);
}

std::vector<ReadingTuple> TaskInstance::RunDue(
    SimTime now, sensors::SensorManager& sensors,
    const LocalPreferenceManager& prefs) {
  std::vector<ReadingTuple> collected;
  ran_through_ = std::max(ran_through_, now);
  if (status_ != TaskStatus::kRunning) return collected;
  while (next_instant_ < schedule_.size() &&
         schedule_[next_instant_] <= now) {
    ExecuteOnce(schedule_[next_instant_], sensors, prefs, collected);
    ++next_instant_;
  }
  if (AllInstantsDone() && status_ == TaskStatus::kRunning)
    status_ = TaskStatus::kFinished;
  return collected;
}

thread_local const TaskInstance::Execution* TaskInstance::current_ = nullptr;

namespace {
thread_local std::uint64_t host_tables_built = 0;
}  // namespace

std::uint64_t TaskInstance::host_tables_built_on_this_thread() {
  return host_tables_built;
}

const script::HostRegistry& TaskInstance::ThreadHostTable() {
  // Built on the thread's first execution and kept for its lifetime; every
  // entry reads the running execution through current_, so no entry holds
  // a task, phone or instant of its own.
  static thread_local const script::HostRegistry table = [] {
    ++host_tables_built;
    script::HostRegistry host;
    script::InstallStdlib(host);
    for (const script::HostSignature& sig : script::HostSignatures()) {
      const std::string name(sig.name);
      if (const auto* fact = std::get_if<script::TaskFact>(&sig.impl)) {
        host.Register(name, [fact](std::span<const script::Value>) {
          return script::Value(current_->task.Fact(*current_, *fact));
        });
      } else if (std::holds_alternative<script::Acquisition>(sig.impl)) {
        host.Register(name, [&sig](std::span<const script::Value> args) {
          return current_->task.Acquire(*current_, *sig.sensor, args);
        });
      }
    }
    return host;
  }();
  return table;
}

double TaskInstance::Fact(const Execution& e, script::TaskFact fact) const {
  // Introspection: scripts can adapt to where they are in the task
  // (e.g. take a final long GPS trace on the last scheduled instant).
  switch (fact) {
    case script::TaskFact::kTimeS: return e.t.seconds();
    case script::TaskFact::kSampleWindowS: return sample_window_.seconds();
    case script::TaskFact::kRemainingInstants:
      return static_cast<double>(schedule_.size() - next_instant_ - 1);
  }
  return 0.0;
}

void TaskInstance::ExecuteOnce(SimTime t, sensors::SensorManager& sensors,
                               const LocalPreferenceManager& prefs,
                               std::vector<ReadingTuple>& out) {
  ++stats_.executions;

  // Bind the thread's host table to this execution for the script's run.
  const Execution execution{*this, t, sensors, prefs, out};
  current_ = &execution;
  Result<script::ExecutionResult> r =
      script::ir::Execute(*module_, ThreadHostTable(), {});
  current_ = nullptr;
  if (!r.ok()) {
    ++stats_.script_errors;
    last_error_ = r.error().str();
    status_ = TaskStatus::kError;
    SOR_LOG(kWarn, "task", "script failed: " << last_error_);
  }
}

script::Value TaskInstance::Acquire(const Execution& e, SensorKind kind,
                                    std::span<const script::Value> args) {
  // Each call acquires `samples_per_window_` readings within [t, t+Δt],
  // records the (t, Δt, d) tuple for upload, and hands the values back to
  // the script.
  int samples = samples_per_window_;
  if (!args.empty() && args[0].is_number())
    samples = std::max(1, static_cast<int>(args[0].as_number()));
  // Optional second argument: a per-call window override in seconds.
  // Trail scripts use it to spread GPS fixes far enough apart that the
  // curvature estimate is geometry- rather than noise-driven.
  SimDuration window = sample_window_;
  if (args.size() >= 2 && args[1].is_number() && args[1].as_number() > 0)
    window = SimDuration::FromSeconds(args[1].as_number());

  if (!e.prefs.Allows(kind)) {
    ++stats_.denied;
    // Denied sensors yield an empty list rather than aborting the whole
    // script: partial participation is better than none.
    return script::Value::MakeList();
  }
  sensors::AcquireRequest req{e.t, window, samples};
  Result<std::vector<sensors::Reading>> readings =
      e.sensors.Acquire(kind, req);
  if (!readings.ok()) {
    ++stats_.failed;
    SOR_LOG(kDebug, "task",
            "acquisition failed: " << readings.error().str());
    return script::Value::MakeList();
  }
  ++stats_.acquisitions;

  const std::size_t n = readings.value().size();
  ReadingTuple tuple;
  tuple.kind = kind;
  tuple.t = e.t;
  tuple.dt = window;
  tuple.values.reserve(n);
  if (n > 0 && readings.value().front().location.has_value())
    tuple.locations.reserve(n);
  script::List values;
  values.reserve(n);
  for (const sensors::Reading& r : readings.value()) {
    tuple.values.push_back(r.value);
    values.emplace_back(r.value);
    if (r.location.has_value()) {
      GeoPoint loc = *r.location;
      if (e.prefs.coarse_location()) {
        // Snap to a ~1 km grid (0.01 degrees): coarse mode.
        loc.lat_deg = std::round(loc.lat_deg * 100.0) / 100.0;
        loc.lon_deg = std::round(loc.lon_deg * 100.0) / 100.0;
      }
      tuple.locations.push_back(loc);
    }
  }
  e.out.push_back(std::move(tuple));
  return script::Value(std::make_shared<script::List>(std::move(values)));
}

}  // namespace sor::phone
