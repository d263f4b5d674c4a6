#include "db/database.hpp"

#include <algorithm>

namespace sor::db {

Result<Table*> Database::CreateTable(Schema schema) {
  const std::string name = schema.table_name;
  if (tables_.contains(name))
    return Error{Errc::kAlreadyExists, "table exists: " + name};
  auto table = std::make_unique<Table>(std::move(schema));
  Table* ptr = table.get();
  ptr->set_full_scan_counter(full_scans_);
  ptr->set_rows_materialized_counter(rows_materialized_);
  ptr->set_storage_faults(storage_faults_);
  tables_.emplace(name, std::move(table));
  return ptr;
}

void Database::AttachObservability(obs::MetricsRegistry* registry) {
  // Per-thread sharding: ProcessApp streams read tables from worker threads.
  full_scans_ = registry == nullptr
                    ? nullptr
                    : &registry->counter("db.full_scans",
                                         obs::Sharding::kPerThread);
  rows_materialized_ =
      registry == nullptr
          ? nullptr
          : &registry->counter("db.rows_materialized",
                               obs::Sharding::kPerThread);
  for (auto& [_, table] : tables_) {
    table->set_full_scan_counter(full_scans_);
    table->set_rows_materialized_counter(rows_materialized_);
  }
}

void Database::AttachStorageFaults(StorageFaultInjector* faults) {
  storage_faults_ = faults;
  for (auto& [_, table] : tables_) table->set_storage_faults(faults);
}

Table* Database::table(const std::string& name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

const Table* Database::table(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Database::table_names() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, _] : tables_) names.push_back(name);
  return names;
}

Status Database::DropTable(const std::string& name) {
  if (tables_.erase(name) == 0)
    return Status(Errc::kNotFound, "no table " + name);
  return Status::Ok();
}

void MakeSorSchema(Database& db) {
  using CT = ColumnType;

  // users(user_id PK, name, token)  — §II-B User Info Manager.
  {
    Schema s;
    s.table_name = tables::kUsers;
    s.columns = {{"user_id", CT::kInt64}, {"name", CT::kText},
                 {"token", CT::kText}};
    Table* t = db.CreateTable(std::move(s)).value();
    (void)t->CreateIndex("token");
  }
  // applications(app_id PK, creator, place_id, place_name, lat, lon, alt,
  //              radius_m, script, features, period_begin_ms, period_end_ms,
  //              n_instants, sigma_s, required_sensors, energy_budget_mj,
  //              flow_manifest)
  // — §II-B Application Manager; the
  // creator also specifies the scheduling-period duration. `features` is
  // the encoded list of feature definitions (name:sensor:method) the Data
  // Processor computes for this app. `required_sensors` is the script's
  // statically derived sensor manifest and `energy_budget_mj` the per-run
  // ceiling the analyzer enforced at registration; `flow_manifest` is the
  // encoded information-flow manifest (which sensors reach each upload
  // site). All appended last so older positional column reads stay valid.
  {
    Schema s;
    s.table_name = tables::kApplications;
    s.columns = {{"app_id", CT::kInt64},      {"creator", CT::kText},
                 {"place_id", CT::kInt64},    {"place_name", CT::kText},
                 {"lat", CT::kDouble},        {"lon", CT::kDouble},
                 {"alt", CT::kDouble},        {"radius_m", CT::kDouble},
                 {"script", CT::kText},       {"features", CT::kText},
                 {"period_begin_ms", CT::kInt64},
                 {"period_end_ms", CT::kInt64}, {"n_instants", CT::kInt64},
                 {"sigma_s", CT::kDouble},
                 {"required_sensors", CT::kText},
                 {"energy_budget_mj", CT::kDouble},
                 {"flow_manifest", CT::kText}};
    (void)db.CreateTable(std::move(s)).value();
  }
  // participations(task_id PK, user_id, app_id, token, budget,
  //                budget_left, status, arrive_ms, leave_ms, incarnation)
  // — §II-B Participation Manager ("running, waiting for sensing schedule,
  // finished, error"); budget updated at runtime. `incarnation` is the
  // phone's install generation (ParticipationRequest::incarnation): a
  // re-scan with the same incarnation is idempotent, a higher one finishes
  // this task and opens a fresh one (reinstalled phones restart their
  // upload seq at 1, so reusing the task would trip the dedup index). It
  // is appended last so older positional column reads stay valid.
  {
    Schema s;
    s.table_name = tables::kParticipations;
    s.columns = {{"task_id", CT::kInt64},   {"user_id", CT::kInt64},
                 {"app_id", CT::kInt64},    {"token", CT::kText},
                 {"budget", CT::kInt64},    {"budget_left", CT::kInt64},
                 {"status", CT::kText},     {"arrive_ms", CT::kInt64},
                 {"leave_ms", CT::kInt64, /*nullable=*/true},
                 {"incarnation", CT::kInt64}};
    Table* t = db.CreateTable(std::move(s)).value();
    (void)t->CreateIndex("app_id");
    (void)t->CreateIndex("user_id");
    (void)t->CreateIndex("status");
  }
  // raw_data(raw_id PK, task_id, app_id, body BLOB, received_ms, seq) — the
  // message handler "directly store[s] the binary message body into the
  // database, which will be processed later by the Data Processor". `seq`
  // is the upload sequence number; together with task_id it is the
  // server's dedup key for retried uploads. Rows are written once: the
  // Data Processor marks nothing here, it keeps a per-app raw_id cursor
  // (persisted in processor_state) as its processed watermark.
  {
    Schema s;
    s.table_name = tables::kRawData;
    s.columns = {{"raw_id", CT::kInt64},     {"task_id", CT::kInt64},
                 {"app_id", CT::kInt64},     {"body", CT::kBlob},
                 {"received_ms", CT::kInt64}, {"seq", CT::kInt64}};
    Table* t = db.CreateTable(std::move(s)).value();
    (void)t->CreateIndex("app_id");
    (void)t->CreateIndex("task_id");
  }
  // feature_data(feature_id PK, app_id, place_id, feature, value, n_samples,
  //              computed_ms) — the Data Processor's output, the ranker's
  // input (matrix H is read from here).
  {
    Schema s;
    s.table_name = tables::kFeatureData;
    s.columns = {{"feature_id", CT::kInt64}, {"app_id", CT::kInt64},
                 {"place_id", CT::kInt64},   {"feature", CT::kText},
                 {"value", CT::kDouble},     {"n_samples", CT::kInt64},
                 {"computed_ms", CT::kInt64}};
    Table* t = db.CreateTable(std::move(s)).value();
    (void)t->CreateIndex("place_id");
    (void)t->CreateIndex("feature");
    (void)t->CreateIndex("app_id");
  }
  // schedules(schedule_id PK, task_id, app_id, instants BLOB, created_ms)
  // — the Sensing Scheduler "store[s] them into the database".
  {
    Schema s;
    s.table_name = tables::kSchedules;
    s.columns = {{"schedule_id", CT::kInt64}, {"task_id", CT::kInt64},
                 {"app_id", CT::kInt64},      {"instants", CT::kBlob},
                 {"created_ms", CT::kInt64}};
    Table* t = db.CreateTable(std::move(s)).value();
    (void)t->CreateIndex("task_id");
  }
  // processor_state(app_id PK, cursor, state BLOB) — the Data Processor's
  // persistent per-app accumulator state (raw_id cursor + encoded sufficient
  // statistics). Stored as a table so snapshot/restore carries it and crash
  // recovery (PR 1) resumes the incremental path instead of re-decoding
  // history.
  {
    Schema s;
    s.table_name = tables::kProcessorState;
    s.columns = {{"app_id", CT::kInt64},
                 {"cursor", CT::kInt64},
                 {"state", CT::kBlob}};
    (void)db.CreateTable(std::move(s)).value();
  }
}

Status CheckSorSchema(const Database& db) {
  Database want;
  MakeSorSchema(want);
  std::vector<std::string> names = want.table_names();
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    const Table* got = db.table(name);
    if (got == nullptr || got->schema() != want.table(name)->schema())
      return Status(Errc::kDecodeError,
                    "table " + name + " does not match the SOR schema");
  }
  return Status::Ok();
}

}  // namespace sor::db
