// Database: a named collection of tables, plus the concrete SOR schema.
//
// §II-B: "we chose PostgreSQL for storing data". The sensing server stores
// (a) user records, (b) application records with their scripts, (c)
// participation/task state, (d) raw binary upload bodies exactly as
// received (decoded later by the Data Processor), (e) processed feature
// data, and (f) computed schedules. MakeSorSchema() creates those tables.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.hpp"
#include "db/table.hpp"

namespace sor::db {

class Database {
 public:
  Database() = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  // Movable: snapshot restore builds a scratch database and commits it by
  // move (table pointers stay valid — ownership is by unique_ptr).
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  // Create a table; error if the name is taken.
  Result<Table*> CreateTable(Schema schema);

  // nullptr when absent.
  [[nodiscard]] Table* table(const std::string& name);
  [[nodiscard]] const Table* table(const std::string& name) const;

  [[nodiscard]] std::vector<std::string> table_names() const;

  Status DropTable(const std::string& name);

  // Wire every table's full-scan and rows-materialized counters to
  // `registry` (the shared `db.full_scans` and `db.rows_materialized`
  // counters); tables created later inherit them. nullptr detaches. Call
  // again after replacing the database by move (restore).
  void AttachObservability(obs::MetricsRegistry* registry);

  // Wire every table's write path to a storage fault injector (tables
  // created later inherit it); nullptr detaches. Same re-attach caveat
  // after a restore-by-move as AttachObservability.
  void AttachStorageFaults(StorageFaultInjector* faults);

 private:
  std::unordered_map<std::string, std::unique_ptr<Table>> tables_;
  obs::Counter* full_scans_ = nullptr;  // not owned; nullable
  obs::Counter* rows_materialized_ = nullptr;  // not owned; nullable
  StorageFaultInjector* storage_faults_ = nullptr;  // not owned; nullable
};

// Table names used by the sensing server.
namespace tables {
inline constexpr const char* kUsers = "users";
inline constexpr const char* kApplications = "applications";
inline constexpr const char* kParticipations = "participations";
inline constexpr const char* kRawData = "raw_data";
inline constexpr const char* kFeatureData = "feature_data";
inline constexpr const char* kSchedules = "schedules";
inline constexpr const char* kProcessorState = "processor_state";
}  // namespace tables

// Instantiate the full SOR schema (all seven tables + indexes) on `db`.
void MakeSorSchema(Database& db);

// kDecodeError naming the first SOR table that `db` lacks or lays out
// otherwise than MakeSorSchema (columns, types, nullability, primary key):
// the server reads rows by position, so a restored snapshot must match.
[[nodiscard]] Status CheckSorSchema(const Database& db);

}  // namespace sor::db
