// User Info Manager, Application Manager, Participation Manager (§II-B).
//
// All three are thin, table-backed managers over the shared Database —
// mirroring the prototype, where they are PostgreSQL-backed components of
// the sensing server.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "codec/barcode.hpp"
#include "codec/messages.hpp"
#include "common/ids.hpp"
#include "common/result.hpp"
#include "common/sim_time.hpp"
#include "db/database.hpp"
#include "script/analysis/analyzer.hpp"
#include "server/feature_def.hpp"

namespace sor::server {

// --- User Info Manager ----------------------------------------------------
// "maintains user information, including userID, name, token (used to
// uniquely identify a mobile device)".
class UserInfoManager {
 public:
  explicit UserInfoManager(db::Database& database) : db_(database) {}

  Result<UserId> RegisterUser(const std::string& name, const Token& token);
  [[nodiscard]] std::optional<UserId> FindByToken(const Token& token) const;
  [[nodiscard]] Status VerifyUser(UserId user, const Token& token) const;
  [[nodiscard]] std::size_t count() const;

  // After a snapshot restore the id generator must skip every id already in
  // the table (generators are process state, not database state).
  void ResyncIds();

 private:
  db::Database& db_;
  IdGenerator<UserId> ids_;
};

// --- Application Manager ----------------------------------------------------
// "an application is defined as a procedure of acquiring data from sensors
// for a target place ... AppID, its creator (which could be the
// owner/manager/operator of the corresponding target place), and the Lua
// scripts defining the corresponding data acquisition procedure."
struct ApplicationSpec {
  std::string creator;
  PlaceId place;
  std::string place_name;
  GeoPoint location;
  double radius_m = 75.0;
  std::string script;               // SenseScript source
  std::vector<FeatureDef> features; // what the Data Processor computes
  SimInterval period;               // scheduling period [tS, tE]
  int n_instants = 1080;            // N
  double sigma_s = 10.0;            // coverage kernel σ
  // Per-run energy ceiling the static analyzer enforces at registration
  // (SA403). <= 0 disables the check. The default admits every script a
  // 2013-era phone could reasonably run once per scheduled instant.
  double energy_budget_mj = 5000.0;
};

struct ApplicationRecord {
  AppId id;
  ApplicationSpec spec;
  // Statically derived at registration: the sensors the script acquires
  // from. Shipped inside every ScheduleDistribution so phones can refuse
  // tasks their hardware cannot serve.
  std::vector<SensorKind> required_sensors;
  // Encoded information-flow manifest from the same analysis: which sensor
  // kinds flow into each upload site of the script. Shipped verbatim in
  // ScheduleDistribution.
  std::string flow_manifest;
};

class ApplicationManager {
 public:
  explicit ApplicationManager(db::Database& database) : db_(database) {}

  // Validates the script with the full static analyzer before storing:
  // scope/type errors, non-whitelisted calls, unboundable loops and
  // over-budget energy estimates are all rejected here, so a bad script
  // never reaches a phone. On rejection the returned Error carries
  // Errc::kScriptError, the rendered error diagnostics as its message and
  // the first offending line; pass `report` to receive every structured
  // diagnostic (including warnings) from the registration response.
  Result<AppId> CreateApplication(
      const ApplicationSpec& spec,
      script::analysis::AnalysisReport* report = nullptr);
  [[nodiscard]] Result<ApplicationRecord> Get(AppId id) const;
  [[nodiscard]] std::vector<ApplicationRecord> All() const;

  // The 2D barcode deployed at the target place (§II).
  [[nodiscard]] Result<BarcodePayload> BarcodeFor(
      AppId id, const std::string& server_endpoint) const;

  // See UserInfoManager::ResyncIds.
  void ResyncIds();

 private:
  db::Database& db_;
  IdGenerator<AppId> ids_;
};

// --- Participation Manager --------------------------------------------------
// "keeps track of a list of sensing tasks and their information, including
// participating userID, the corresponding token, the corresponding
// application, the location of the target place, the sensing budget and its
// status". Status transitions: waiting_for_schedule → running → finished
// (or error). Budget is decremented as uploads arrive.
struct ParticipationRecord {
  TaskId task;
  UserId user;
  AppId app;
  Token token;
  int budget = 0;
  int budget_left = 0;
  std::string status;
  SimTime arrive;
  std::optional<SimTime> leave;
  // Install generation of the phone that opened this task; see
  // ParticipationRequest::incarnation.
  std::uint32_t incarnation = 1;
};

// The open statuses: a task in either one is active (it still senses).
[[nodiscard]] inline bool IsOpenStatus(std::string_view status) {
  return status == "waiting_for_schedule" || status == "running";
}

class ParticipationManager {
 public:
  ParticipationManager(db::Database& database, const SimClock& clock)
      : db_(database), clock_(clock) {}

  // Handle a barcode-triggered request: verify the user's identity and that
  // the claimed location lies within the app's participation radius
  // ("verify whether the user is actually in the target place ... create a
  // task for it if the user is considered as a truthful user").
  Result<TaskId> HandleRequest(const ParticipationRequest& req,
                               const ApplicationRecord& app,
                               const UserInfoManager& users);

  Status MarkRunning(TaskId task);
  Status MarkFinished(TaskId task, SimTime when);
  Status MarkError(TaskId task, const std::string& why);

  // Deduct `executions` acquisitions from the task's remaining budget.
  Status ConsumeBudget(TaskId task, int executions);

  [[nodiscard]] Result<ParticipationRecord> Get(TaskId task) const;
  // Active (not finished/error) participations of one application. Copies
  // every row the app ever had: for restore and verification passes only,
  // never for a single join or leave.
  [[nodiscard]] std::vector<ParticipationRecord> ActiveForApp(AppId app) const;
  [[nodiscard]] std::vector<ParticipationRecord> AllForApp(AppId app) const;

  // Campaign-completion probes across ALL applications, used by hosts that
  // must decide when a campaign is over from traffic alone (the `sor serve`
  // daemon finalizes when every opened participation has closed).
  [[nodiscard]] std::size_t TotalCount() const;
  [[nodiscard]] std::size_t ActiveCount() const;

  // Change feed for the scheduler: the tasks of `app` this manager inserted
  // or whose status it wrote since the last ClearChanged(app), ascending.
  // HandleRequest's insert and MarkRunning/MarkFinished/MarkError are the
  // only writers of `status`, so every task that became active or inactive
  // is in here. Read-only calls may run concurrently for different apps;
  // writes and ClearChanged are serial.
  [[nodiscard]] const std::set<std::uint64_t>& ChangedTasks(AppId app) const;
  void ClearChanged(AppId app);

  // See UserInfoManager::ResyncIds.
  void ResyncIds();

 private:
  // Status write on one row, recorded in the change feed on success.
  Status WriteStatus(TaskId task, std::string status,
                     std::optional<SimTime> leave = std::nullopt);

  db::Database& db_;
  const SimClock& clock_;
  IdGenerator<TaskId> ids_;
  std::map<std::uint64_t, std::set<std::uint64_t>> changed_;  // app → tasks
};

}  // namespace sor::server
