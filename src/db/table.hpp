// Table: rows + primary-key uniqueness + optional secondary indexes.
//
// Deliberately relational-minimal: the sensing server's access patterns are
// point lookups by key (user by token, task by id), filtered scans
// (unprocessed raw blobs, participations of one app), ordered scans (feature
// data by place), and in-place updates (task status transitions). All of
// those are first-class here; anything fancier (joins) is composed by the
// caller.
//
// Storage layout (docs/performance.md):
//   * rows live in a contiguous slot vector addressed by RowId (monotone,
//     never reused; erased slots become tombstones), so visitation is a
//     linear walk instead of a std::map pointer chase;
//   * index keys are typed Values ordered by Value::Compare — no string
//     materialization, so indexing a blob column never copies the blob;
//   * secondary postings lists are kept sorted by RowId, which makes every
//     equality visitation deterministic insertion order and enables the
//     cursored ForEachWhereEqFromPk access path;
//   * updates that touch only non-key, non-indexed columns can go through
//     UpdateInPlace, which assigns the cells in place — no row copy, no
//     re-index.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "db/storage_faults.hpp"
#include "db/value.hpp"
#include "obs/metrics.hpp"

namespace sor::db {

using RowId = std::uint64_t;  // stable internal handle, never reused

// A filter over rows; empty function means "all rows".
using Predicate = std::function<bool(const Row&)>;

// A visitor over rows; return false to stop the iteration early. Runs under
// the table's shared lock: it must not call back into the same table.
using RowVisitor = std::function<bool(const Row&)>;

class Table {
 public:
  explicit Table(Schema schema);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  [[nodiscard]] const Schema& schema() const { return schema_; }

  // Create a secondary (non-unique) index on a column. Must be called
  // before rows exist or it back-fills. Indexed equality scans then avoid
  // the full-table walk.
  Status CreateIndex(const std::string& column);

  // Insert; fails on schema mismatch or duplicate primary key.
  Result<RowId> Insert(Row row);

  // Batch insert: validates every row and checks primary-key uniqueness
  // (against the table AND within the batch) before any mutation, then
  // appends and indexes all rows under a single exclusive lock.
  // All-or-nothing: on any failure no row is inserted. Returns the new
  // RowIds in batch order. Because fresh RowIds are monotone, every
  // secondary-index posting is a pure append — one lock acquisition and no
  // binary inserts, which is what makes bulk loads (snapshot restore)
  // cheaper than a loop of Insert calls.
  Result<std::vector<RowId>> InsertBatch(std::vector<Row> rows);

  // Upsert on primary key: replaces the existing row if the key exists.
  // When the replacement changes no indexed cell (the common recompute
  // case, e.g. feature_data), the row moves into its slot without touching
  // any index.
  Result<RowId> Upsert(Row row);

  // Point lookup by primary-key value.
  [[nodiscard]] std::optional<Row> FindByKey(const Value& key) const;

  // Point read of one cell — no row copy (blobs stay put).
  [[nodiscard]] Result<Value> ReadCell(const Value& key, int column) const;

  // Largest primary-key value present, or nullopt on an empty table. O(1).
  [[nodiscard]] std::optional<Value> MaxPrimaryKey() const;

  // Equality scan on any column; uses a secondary index if one exists.
  [[nodiscard]] std::vector<Row> FindWhereEq(const std::string& column,
                                             const Value& v) const;

  // Number of rows with `column == v`, copying none: the postings size on
  // an indexed column, a counted full walk otherwise.
  [[nodiscard]] std::size_t CountWhereEq(const std::string& column,
                                         const Value& v) const;

  // Filtered scan (all rows if pred is empty).
  [[nodiscard]] std::vector<Row> Scan(const Predicate& pred = {}) const;

  // Allocation-free visitation in RowId (insertion) order; the visitor
  // returns false to stop. Hot read paths use these instead of Scan /
  // FindWhereEq so they never copy whole row vectors (blobs included).
  void ForEach(const RowVisitor& visit) const;
  // Indexed equality visitation: same row set and order as FindWhereEq.
  void ForEachWhereEq(const std::string& column, const Value& v,
                      const RowVisitor& visit) const;

  // Cursored equality visitation: rows with `column == v` AND primary key
  // strictly greater than `pk_after`, ascending RowId order. Requires that
  // primary-key order matches insertion order for the matching rows (true
  // for append-only tables with monotone keys, e.g. raw_data), which lets
  // the cursor position resolve by binary search over the postings list —
  // O(log matches + new rows), never O(history). Falls back to a filtered
  // walk of the equality set when the assumption cannot apply (unindexed
  // column).
  void ForEachWhereEqFromPk(const std::string& column, const Value& v,
                            const Value& pk_after,
                            const RowVisitor& visit) const;

  // Filtered scan, sorted ascending by a column.
  [[nodiscard]] std::vector<Row> ScanOrderedBy(const std::string& column,
                                               const Predicate& pred = {}) const;

  // Update all rows matching `pred` via `mutate` (which edits a Row copy
  // that is then validated & re-indexed). Returns rows touched. Changing the
  // primary key to a duplicate fails the whole update.
  Result<std::size_t> Update(const Predicate& pred,
                             const std::function<void(Row&)>& mutate);

  // Update the single row whose primary key equals `key` (pk-index point
  // lookup, not a scan). Only indexes whose column actually changed are
  // touched on commit.
  Status UpdateByKey(const Value& key, const std::function<void(Row&)>& mutate);

  // In-place fast path: assign `v` to `column` of the row with primary key
  // `key`, without copying the row or touching any index. Restricted to
  // non-key, non-indexed columns (kInvalidArgument otherwise) — the
  // index-safety contract is documented in docs/performance.md. The value
  // is schema-validated before assignment.
  Status UpdateInPlace(const Value& key, int column, Value v);
  // Multi-column variant; all columns must satisfy the same contract.
  Status UpdateInPlace(const Value& key,
                       std::span<const std::pair<int, Value>> cells);

  // Indexed update: like Update, but candidate rows come from the equality
  // index on `column` (falling back to a full walk when unindexed), and
  // `pred` further filters them. Candidates are mutated in ascending RowId
  // order — exactly the row set and order Update(pred && column==v) visits.
  Result<std::size_t> UpdateWhereEq(const std::string& column, const Value& v,
                                    const Predicate& pred,
                                    const std::function<void(Row&)>& mutate);

  // Delete rows matching pred; returns rows removed.
  std::size_t Erase(const Predicate& pred);

  // Delete the single row whose primary key equals `key` (point lookup).
  Status EraseByKey(const Value& key);

  [[nodiscard]] std::size_t size() const;

  // Column-index helper that throws away the string lookup for hot paths.
  [[nodiscard]] int col(std::string_view name) const {
    return schema_.column_index(name);
  }

  // Calls to the mutating methods (Insert, InsertBatch, Upsert, Update*,
  // UpdateInPlace, Erase*), counted on entry whether or not they succeed:
  // the operation-count tests assert which paths write a table at all.
  [[nodiscard]] std::uint64_t writes() const { return writes_.load(); }

  // Names of columns carrying a secondary index (snapshot/restore).
  [[nodiscard]] std::vector<std::string> IndexedColumns() const;

  // Observability hook: every full-table walk (Scan/ForEach/Erase-by-pred
  // and the unindexed equality fallbacks) bumps this counter, so a query
  // silently degrading to O(table) shows up in `db.full_scans`. nullptr
  // (the default) disables counting.
  void set_full_scan_counter(obs::Counter* counter) { full_scans_ = counter; }

  // Observability hook: every row copied out to the caller (FindByKey,
  // FindWhereEq, Scan, ScanOrderedBy) bumps this counter by one, so a hot
  // path that materializes O(table) rows shows up in
  // `db.rows_materialized` even when an index serves it. Visitors and
  // ReadCell copy no rows and count nothing. nullptr disables counting.
  void set_rows_materialized_counter(obs::Counter* counter) {
    rows_materialized_ = counter;
  }

  // Storage fault hook (docs/robustness.md): when set, Insert/Upsert ask
  // the injector whether the write fails before touching any state, so an
  // injected failure is indistinguishable from a clean rejection. nullptr
  // (the default) disables injection.
  void set_storage_faults(StorageFaultInjector* faults) {
    storage_faults_ = faults;
  }

 private:
  // Sorted-by-RowId postings of one index key.
  using Postings = std::vector<RowId>;
  using SecondaryIndex = std::map<Value, Postings, ValueLess>;

  void IndexRow(RowId id, const Row& row);
  void UnindexRow(RowId id, const Row& row);
  static void AddPosting(Postings& p, RowId id);
  static void RemovePosting(SecondaryIndex& idx, const Value& key, RowId id);

  [[nodiscard]] const Row& row_at(RowId id) const {
    return *slots_[static_cast<std::size_t>(id - 1)];
  }
  [[nodiscard]] Row& row_at(RowId id) {
    return *slots_[static_cast<std::size_t>(id - 1)];
  }
  void CountFullScan() const {
    if (full_scans_ != nullptr) full_scans_->Inc();
  }
  void CountWrite() { ++writes_; }
  void CountMaterialized(std::size_t rows) const {
    if (rows_materialized_ != nullptr && rows != 0)
      rows_materialized_->Inc(rows);
  }
  // Shared checks for the in-place contract; returns the error or Ok.
  [[nodiscard]] Status CheckInPlaceColumn(int column, const Value& v) const;

  // Commits a validated change set (ids paired with their new rows) under
  // an already-held exclusive lock; shared by Update and UpdateWhereEq.
  // Diff-aware: only indexes whose column value actually changed are
  // rewritten.
  Result<std::size_t> CommitUpdate(std::vector<std::pair<RowId, Row>> changed);

  Schema schema_;
  // Readers (point lookups, scans, visitors) share the lock; writers are
  // exclusive. Lock hierarchy: executor round → network inbox gate → table
  // lock (see docs/runtime.md); visitors must not re-enter the table.
  mutable std::shared_mutex mu_;
  // Slot i holds the row with RowId i+1; erased rows leave tombstones
  // (RowIds are never reused, so the mapping is permanent).
  std::vector<std::optional<Row>> slots_;
  std::size_t live_ = 0;
  RowId next_id_ = 1;
  // Primary-key → RowId (unique), ordered by Value::Compare.
  std::map<Value, RowId, ValueLess> pk_index_;
  // column index → (value → sorted row ids); non-unique secondary indexes.
  std::unordered_map<int, SecondaryIndex> secondary_;
  std::atomic<std::uint64_t> writes_{0};
  obs::Counter* full_scans_ = nullptr;  // not owned; nullable
  obs::Counter* rows_materialized_ = nullptr;  // not owned; nullable
  StorageFaultInjector* storage_faults_ = nullptr;  // not owned; nullable
};

}  // namespace sor::db
