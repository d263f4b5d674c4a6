// SensingServer — the backend facade (§II-B, Fig. 5).
//
// Owns the database and every server-side component: Message Handler (the
// net::Endpoint implementation), User Info Manager, Application Manager,
// Participation Manager, Sensing Scheduler, Data Processor and the
// Personalizable Ranker entry point. One instance == one sensing server;
// multiple servers can coexist on the same LoopbackNetwork under different
// endpoint names (the paper allows "one or multiple sensing servers").
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>

#include "common/sim_time.hpp"
#include "db/database.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rank/personalizable_ranker.hpp"
#include "server/data_processor.hpp"
#include "server/health_monitor.hpp"
#include "server/managers.hpp"
#include "server/scheduler.hpp"

namespace sor {
class ShardedExecutor;
}

namespace sor::server {

struct ServerConfig {
  std::string endpoint_name = "server";
  // Δt and the per-window sample count distributed with every schedule
  // (§IV-A: "SOR takes multiple (instead of one) readings within [t, t+Δt]
  // to ensure high sensing quality").
  SimDuration sample_window = SimDuration{5'000};
  int samples_per_window = 5;

  // Overload control (docs/robustness.md). The default budget of 0 keeps
  // admission unlimited — existing runs keep their exact fingerprints.
  OverloadConfig overload;
};

struct ServerStats {
  std::uint64_t requests_handled = 0;
  std::uint64_t decode_failures = 0;
  std::uint64_t uploads_stored = 0;
  std::uint64_t participations_accepted = 0;
  std::uint64_t participations_rejected = 0;
  // Retried uploads whose (task, seq) was already stored: acknowledged
  // again, but neither re-inserted nor re-billed against the budget.
  std::uint64_t duplicate_uploads_ignored = 0;
  std::uint64_t recoveries = 0;        // successful RestoreFromSnapshot calls
  std::uint64_t resyncs_triggered = 0; // post-restart schedule re-pushes
  // Overload + storage-fault accounting (docs/robustness.md).
  std::uint64_t uploads_throttled = 0;      // admission refused, hint sent
  std::uint64_t uploads_shed_stale = 0;     // subset shed for being stale
  std::uint64_t storage_write_failures = 0; // raw_data insert failed
  std::uint64_t reprimes = 0;               // quarantine-and-reprime runs
};

class SensingServer final : public net::Endpoint {
 public:
  SensingServer(ServerConfig config, net::LoopbackNetwork& network,
                const SimClock& clock);
  ~SensingServer() override;

  SensingServer(const SensingServer&) = delete;
  SensingServer& operator=(const SensingServer&) = delete;

  [[nodiscard]] const std::string& endpoint_name() const {
    return config_.endpoint_name;
  }

  // --- component access --------------------------------------------------
  [[nodiscard]] db::Database& database() { return db_; }
  [[nodiscard]] UserInfoManager& users() { return users_; }
  [[nodiscard]] ApplicationManager& applications() { return apps_; }
  [[nodiscard]] ParticipationManager& participations() { return parts_; }
  [[nodiscard]] SensingScheduler& scheduler() { return scheduler_; }
  [[nodiscard]] DataProcessor& data_processor() { return processor_; }
  [[nodiscard]] HealthMonitor& health() { return health_; }
  [[nodiscard]] const ServerStats& stats() const { return stats_; }

  // Swap the overload policy (serial code only; chaos drivers use this).
  void set_overload(const OverloadConfig& overload) {
    config_.overload = overload;
    health_.set_config(overload);
  }

  // --- high-level operations ----------------------------------------------
  // Deploys a new application and returns the barcode to place on site.
  Result<BarcodePayload> DeployApplication(const ApplicationSpec& spec);

  // Run the Data Processor over every application (the "periodic check").
  // With an executor attached, apps are processed in parallel: each app's
  // row set is disjoint and reads take the table locks shared. Each app
  // counts into its own stats sink, folded in app order after the barrier;
  // the one table every app writes is feature_data, whose rows change under
  // the table's exclusive lock and whose writes() counter is atomic.
  // Results (features, accumulator cursors, returned total) are independent
  // of thread count. Each call's wall time lands in the "processor.pass_ns"
  // histogram of the attached registry (telemetry only, never traced).
  Result<int> ProcessAllData();

  // Borrow a worker pool for ProcessAllData / FlushReschedules. Not owned;
  // nullptr (the default) restores the serial path.
  void set_executor(ShardedExecutor* executor) { executor_ = executor; }

  // Hook the server (and its scheduler + data processor) into the shared
  // telemetry. The server's handler runs only inside the epoch merge pass
  // (or from serial code), so its "server.*"/"sched.*" counters are
  // single-cell and its trace stream stays single-writer. Call from serial
  // code; safe to call again after a Tracer::Clear() to re-register
  // streams.
  void AttachObservability(obs::MetricsRegistry* registry,
                           obs::Tracer* tracer);

  // Drain the scheduler's deferred dirty set: plan every dirty app (in
  // parallel when an executor is attached — planning is const), then
  // distribute serially in ascending app-id order so the schedule table
  // and the send stream are identical to planning serially.
  Status FlushReschedules();

  // Rank the places covered by `apps` for one user profile (Algorithm 2 on
  // the feature matrix assembled from the database).
  [[nodiscard]] Result<rank::RankingOutcome> RankPlaces(
      const std::vector<AppId>& apps,
      const std::vector<rank::FeatureSpec>& feature_specs,
      const rank::UserProfile& profile,
      rank::AggregationMethod method =
          rank::AggregationMethod::kFootruleMcmf) const;

  // Locate a phone through the cloud-messaging detour (§II-A): ping it and
  // return the reported position.
  [[nodiscard]] Result<PingReply> PingPhone(const Token& token);

  // --- crash recovery ------------------------------------------------------
  // Serialize the full database (the durable state: users, apps,
  // participations, raw uploads with their seqs, features, schedules) into
  // one restorable buffer — what the prototype got from PostgreSQL. First
  // writes the Data Processor's accumulator state into processor_state
  // (DataProcessor::PersistState): processing passes keep it in memory
  // only, so the snapshot is the one place it is encoded.
  [[nodiscard]] Bytes SnapshotState();

  // Rebuild this server from a snapshot, as a freshly started process would
  // after a crash: replaces the database wholesale, re-syncs every id
  // generator past the ids already issued, rebuilds the (task, seq) upload
  // dedup index from raw_data, and marks every active task as needing a
  // schedule re-push on its next contact (phones keep uploading against
  // their last known schedule; the first message from any of an app's
  // participants triggers one reschedule for that app).
  Status RestoreFromSnapshot(std::span<const std::uint8_t> snapshot);

  // Re-verify that the app's active participants are still at the target
  // place ("a mobile user's status ... will be changed to 'finished' if
  // according to his/her location, he/she leaves the target place",
  // §II-B): ping every active phone; mark participants outside the radius
  // finished and unreachable ones as errored, then re-plan once for the
  // remaining users. Returns the number of participants removed.
  Result<int> VerifyParticipants(AppId app);

  // --- net::Endpoint -------------------------------------------------------
  [[nodiscard]] Bytes HandleFrame(std::span<const std::uint8_t> frame) override;

 private:
  // `body` is the frame's body bytes as received (see SplitFrame).
  [[nodiscard]] Message HandleMessage(const Message& m,
                                      std::span<const std::uint8_t> body);
  [[nodiscard]] Message OnParticipation(const ParticipationRequest& req);
  // Stores `body`, the upload's bytes as received, in raw_data.
  [[nodiscard]] Message OnUpload(const SensedDataUpload& upload,
                                 std::span<const std::uint8_t> body);
  [[nodiscard]] Message OnLeave(const LeaveNotification& note);
  // First post-restart contact from a task whose app still needs a schedule
  // re-push: reschedule the app (which redistributes to all of its phones).
  void MaybeResyncAfterRestart(TaskId task);
  // Rebuild every derived process structure (id generators, upload dedup
  // index, processor watermarks) from the CURRENT database tables. The
  // shared tail of RestoreFromSnapshot and Reprime. The Data Processor's
  // cached accumulators are left alone: they hold only what processing
  // passes folded in from committed rows, and a reprime keeps the tables.
  void RebuildDerivedState();
  // ProcessAllData without its timer.
  Result<int> ProcessEveryApp();
  // Quarantine-and-reprime after storage write failures: suspect the
  // process state, not the rows — rebuild the derived structures in place
  // and enter kRecovering for the rest of the tick.
  void Reprime();
  // Emit on the server's trace stream (no-op when tracing is off).
  void Trace(obs::EventKind kind, std::uint64_t a = 0, std::uint64_t b = 0,
             std::uint64_t c = 0);

  ServerConfig config_;
  net::LoopbackNetwork& network_;
  const SimClock& clock_;

  db::Database db_;
  UserInfoManager users_;
  ApplicationManager apps_;
  ParticipationManager parts_;
  SensingScheduler scheduler_;
  DataProcessor processor_;
  HealthMonitor health_;
  ShardedExecutor* executor_ = nullptr;  // not owned
  ServerStats stats_;
  IdGenerator<ScheduleId> raw_ids_;  // raw_data PK source

  // Shared-telemetry handles (null until AttachObservability). The registry
  // is kept so the database's counters can be re-attached after a restore
  // replaces db_ wholesale.
  obs::MetricsRegistry* registry_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::StreamId stream_ = 0;
  struct ServerCounters {
    obs::Counter* requests_handled = nullptr;
    obs::Counter* decode_failures = nullptr;
    obs::Counter* uploads_stored = nullptr;
    obs::Counter* uploads_deduped = nullptr;
    obs::Counter* participations_accepted = nullptr;
    obs::Counter* participations_rejected = nullptr;
    obs::Counter* recoveries = nullptr;
    obs::Counter* resyncs_triggered = nullptr;
    obs::Histogram* upload_batch_tuples = nullptr;  // tuples per stored blob
    obs::Histogram* pass_ns = nullptr;  // wall time of each ProcessAllData
  };
  ServerCounters obs_;

  // Upload dedup index: task id → seqs already stored. Rebuilt from
  // raw_data on restore, so it survives crashes with the database.
  std::map<std::uint64_t, std::set<std::uint64_t>> seen_upload_seqs_;
  // Tasks whose phones have not been re-contacted since the last restore.
  std::set<TaskId> needs_resync_;
};

}  // namespace sor::server
