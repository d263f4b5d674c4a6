#include "db/table.hpp"

#include <algorithm>
#include <cassert>

namespace sor::db {

Table::Table(Schema schema) : schema_(std::move(schema)) {
  assert(schema_.primary_key >= 0 &&
         schema_.primary_key < static_cast<int>(schema_.columns.size()));
}

void Table::AddPosting(Postings& p, RowId id) {
  // Postings stay sorted ascending; appends dominate (new rows get the
  // largest RowId), re-adds after an update binary-insert.
  if (p.empty() || p.back() < id) {
    p.push_back(id);
    return;
  }
  p.insert(std::lower_bound(p.begin(), p.end(), id), id);
}

void Table::RemovePosting(SecondaryIndex& idx, const Value& key, RowId id) {
  auto it = idx.find(key);
  if (it == idx.end()) return;
  Postings& p = it->second;
  auto pos = std::lower_bound(p.begin(), p.end(), id);
  if (pos != p.end() && *pos == id) p.erase(pos);
  if (p.empty()) idx.erase(it);
}

Status Table::CreateIndex(const std::string& column) {
  std::lock_guard lock(mu_);
  const int ci = schema_.column_index(column);
  if (ci < 0)
    return Status(Errc::kInvalidArgument, "no column named " + column);
  if (secondary_.contains(ci)) return Status::Ok();
  auto& idx = secondary_[ci];
  // Back-fill in RowId order, so every postings list is born sorted.
  for (RowId id = 1; id < next_id_; ++id) {
    const auto& slot = slots_[static_cast<std::size_t>(id - 1)];
    if (slot.has_value())
      AddPosting(idx[(*slot)[static_cast<std::size_t>(ci)]], id);
  }
  return Status::Ok();
}

void Table::IndexRow(RowId id, const Row& row) {
  pk_index_.emplace(row[static_cast<std::size_t>(schema_.primary_key)], id);
  for (auto& [ci, idx] : secondary_)
    AddPosting(idx[row[static_cast<std::size_t>(ci)]], id);
}

void Table::UnindexRow(RowId id, const Row& row) {
  pk_index_.erase(row[static_cast<std::size_t>(schema_.primary_key)]);
  for (auto& [ci, idx] : secondary_)
    RemovePosting(idx, row[static_cast<std::size_t>(ci)], id);
}

Result<RowId> Table::Insert(Row row) {
  CountWrite();
  if (Status s = schema_.Validate(row); !s.ok()) return s.error();
  if (storage_faults_ != nullptr && storage_faults_->FailWrite(schema_.table_name))
    return Error{Errc::kUnavailable,
                 schema_.table_name + ": injected storage write failure"};
  std::lock_guard lock(mu_);
  if (pk_index_.contains(row[static_cast<std::size_t>(schema_.primary_key)])) {
    return Error{Errc::kAlreadyExists,
                 schema_.table_name + ": duplicate key " +
                     row[static_cast<std::size_t>(schema_.primary_key)].str()};
  }
  const RowId id = next_id_++;
  slots_.push_back(std::move(row));
  ++live_;
  IndexRow(id, *slots_.back());
  return id;
}

Result<std::vector<RowId>> Table::InsertBatch(std::vector<Row> rows) {
  CountWrite();
  for (const Row& row : rows) {
    if (Status s = schema_.Validate(row); !s.ok()) return s.error();
  }
  // One batch is one write operation to the injector, mirroring Insert's
  // check-before-any-state-change contract.
  if (storage_faults_ != nullptr && storage_faults_->FailWrite(schema_.table_name))
    return Error{Errc::kUnavailable,
                 schema_.table_name + ": injected storage write failure"};
  std::lock_guard lock(mu_);
  const auto pk = std::size_t(schema_.primary_key);
  // Claim every key in the pk index up front — ids are predictable, the
  // batch occupies [next_id_, next_id_ + rows.size()). A collision (with
  // the table or within the batch, which the emplace catches uniformly)
  // unwinds the claims, so a failed batch leaves no trace.
  std::vector<decltype(pk_index_)::iterator> claimed;
  claimed.reserve(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    auto [it, fresh] = pk_index_.emplace(rows[i][pk], next_id_ + i);
    if (!fresh) {
      for (auto c : claimed) pk_index_.erase(c);
      return Error{Errc::kAlreadyExists,
                   schema_.table_name + ": duplicate key " + rows[i][pk].str()};
    }
    claimed.push_back(it);
  }
  std::vector<RowId> ids;
  ids.reserve(rows.size());
  slots_.reserve(slots_.size() + rows.size());
  for (Row& row : rows) {
    const RowId id = next_id_++;
    slots_.push_back(std::move(row));
    ++live_;
    // The pk entry is already claimed; only secondary postings remain, and
    // fresh monotone ids make each one a pure append.
    for (auto& [ci, idx] : secondary_)
      AddPosting(idx[(*slots_.back())[static_cast<std::size_t>(ci)]], id);
    ids.push_back(id);
  }
  return ids;
}

Result<RowId> Table::Upsert(Row row) {
  CountWrite();
  if (Status s = schema_.Validate(row); !s.ok()) return s.error();
  if (storage_faults_ != nullptr && storage_faults_->FailWrite(schema_.table_name))
    return Error{Errc::kUnavailable,
                 schema_.table_name + ": injected storage write failure"};
  std::lock_guard lock(mu_);
  const auto it =
      pk_index_.find(row[static_cast<std::size_t>(schema_.primary_key)]);
  if (it != pk_index_.end()) {
    const RowId id = it->second;
    Row& old = row_at(id);
    // Fast path: the replacement leaves every indexed cell unchanged (the
    // pk matches by construction), so the row moves into its slot without
    // any index maintenance — this is the feature-recompute hot path.
    for (auto& [ci, idx] : secondary_) {
      const auto c = static_cast<std::size_t>(ci);
      if (old[c] == row[c]) continue;
      RemovePosting(idx, old[c], id);
      AddPosting(idx[row[c]], id);
    }
    old = std::move(row);
    return id;
  }
  const RowId id = next_id_++;
  slots_.push_back(std::move(row));
  ++live_;
  IndexRow(id, *slots_.back());
  return id;
}

std::optional<Row> Table::FindByKey(const Value& key) const {
  std::shared_lock lock(mu_);
  auto it = pk_index_.find(key);
  if (it == pk_index_.end()) return std::nullopt;
  CountMaterialized(1);
  return row_at(it->second);
}

Result<Value> Table::ReadCell(const Value& key, int column) const {
  std::shared_lock lock(mu_);
  if (column < 0 || column >= static_cast<int>(schema_.columns.size()))
    return Error{Errc::kInvalidArgument, "column out of range"};
  auto it = pk_index_.find(key);
  if (it == pk_index_.end())
    return Error{Errc::kNotFound,
                 schema_.table_name + ": no row with key " + key.str()};
  return row_at(it->second)[static_cast<std::size_t>(column)];
}

std::optional<Value> Table::MaxPrimaryKey() const {
  std::shared_lock lock(mu_);
  if (pk_index_.empty()) return std::nullopt;
  return std::prev(pk_index_.end())->first;
}

std::vector<Row> Table::FindWhereEq(const std::string& column,
                                    const Value& v) const {
  std::vector<Row> out;
  ForEachWhereEq(column, v, [&out](const Row& row) {
    out.push_back(row);
    return true;
  });
  CountMaterialized(out.size());
  return out;
}

std::size_t Table::CountWhereEq(const std::string& column,
                                const Value& v) const {
  std::shared_lock lock(mu_);
  const int ci = schema_.column_index(column);
  if (ci < 0) return 0;
  if (auto idx = secondary_.find(ci); idx != secondary_.end()) {
    auto p = idx->second.find(v);
    return p == idx->second.end() ? 0 : p->second.size();
  }
  if (ci == schema_.primary_key) return pk_index_.contains(v) ? 1 : 0;
  CountFullScan();
  std::size_t n = 0;
  for (const auto& slot : slots_) {
    if (slot.has_value() && (*slot)[static_cast<std::size_t>(ci)] == v) ++n;
  }
  return n;
}

std::vector<Row> Table::Scan(const Predicate& pred) const {
  std::shared_lock lock(mu_);
  CountFullScan();
  std::vector<Row> out;
  for (const auto& slot : slots_) {
    if (slot.has_value() && (!pred || pred(*slot))) out.push_back(*slot);
  }
  CountMaterialized(out.size());
  return out;
}

void Table::ForEach(const RowVisitor& visit) const {
  std::shared_lock lock(mu_);
  CountFullScan();
  for (const auto& slot : slots_) {
    if (slot.has_value() && !visit(*slot)) return;
  }
}

void Table::ForEachWhereEq(const std::string& column, const Value& v,
                           const RowVisitor& visit) const {
  std::shared_lock lock(mu_);
  const int ci = schema_.column_index(column);
  if (ci < 0) return;
  if (auto idx = secondary_.find(ci); idx != secondary_.end()) {
    if (auto p = idx->second.find(v); p != idx->second.end()) {
      for (RowId id : p->second) {
        if (!visit(row_at(id))) return;
      }
    }
    return;
  }
  if (ci == schema_.primary_key) {
    if (auto it = pk_index_.find(v); it != pk_index_.end())
      (void)visit(row_at(it->second));
    return;
  }
  CountFullScan();
  for (const auto& slot : slots_) {
    if (slot.has_value() && (*slot)[static_cast<std::size_t>(ci)] == v &&
        !visit(*slot))
      return;
  }
}

void Table::ForEachWhereEqFromPk(const std::string& column, const Value& v,
                                 const Value& pk_after,
                                 const RowVisitor& visit) const {
  std::shared_lock lock(mu_);
  const int ci = schema_.column_index(column);
  if (ci < 0) return;
  const auto pk = static_cast<std::size_t>(schema_.primary_key);
  if (auto idx = secondary_.find(ci); idx != secondary_.end()) {
    auto p = idx->second.find(v);
    if (p == idx->second.end()) return;
    const Postings& postings = p->second;
    // Postings are ascending RowId; with pk order == insertion order the
    // rows past the cursor form a suffix, found by binary search.
    auto it = std::partition_point(
        postings.begin(), postings.end(), [&](RowId id) {
          return Value::Compare(row_at(id)[pk], pk_after) <= 0;
        });
    for (; it != postings.end(); ++it) {
      if (!visit(row_at(*it))) return;
    }
    return;
  }
  // Unindexed fallback: filtered walk (counted — this is the degradation
  // the counter exists to expose).
  CountFullScan();
  for (const auto& slot : slots_) {
    if (!slot.has_value()) continue;
    if ((*slot)[static_cast<std::size_t>(ci)] != v) continue;
    if (Value::Compare((*slot)[pk], pk_after) <= 0) continue;
    if (!visit(*slot)) return;
  }
}

std::vector<Row> Table::ScanOrderedBy(const std::string& column,
                                      const Predicate& pred) const {
  std::vector<Row> out = Scan(pred);
  const int ci = schema_.column_index(column);
  if (ci < 0) return out;
  std::stable_sort(out.begin(), out.end(), [ci](const Row& a, const Row& b) {
    return Value::Compare(a[static_cast<std::size_t>(ci)],
                          b[static_cast<std::size_t>(ci)]) < 0;
  });
  return out;
}

Result<std::size_t> Table::Update(const Predicate& pred,
                                  const std::function<void(Row&)>& mutate) {
  CountWrite();
  std::lock_guard lock(mu_);
  CountFullScan();
  // Two-phase: compute all new rows first, validate (including pk
  // uniqueness among survivors), then commit. Keeps the table consistent on
  // failure.
  std::vector<std::pair<RowId, Row>> changed;
  for (RowId id = 1; id < next_id_; ++id) {
    const auto& slot = slots_[static_cast<std::size_t>(id - 1)];
    if (!slot.has_value()) continue;
    if (pred && !pred(*slot)) continue;
    Row next = *slot;
    mutate(next);
    if (Status s = schema_.Validate(next); !s.ok()) return s.error();
    changed.emplace_back(id, std::move(next));
  }
  return CommitUpdate(std::move(changed));
}

Result<std::size_t> Table::UpdateWhereEq(
    const std::string& column, const Value& v, const Predicate& pred,
    const std::function<void(Row&)>& mutate) {
  CountWrite();
  std::lock_guard lock(mu_);
  const int ci = schema_.column_index(column);
  if (ci < 0)
    return Error{Errc::kInvalidArgument, "no column named " + column};

  // Candidate ids from the index (or a walk when unindexed); postings are
  // already in ascending RowId order, the order a full Update would use.
  std::vector<RowId> candidates;
  if (auto idx = secondary_.find(ci); idx != secondary_.end()) {
    if (auto p = idx->second.find(v); p != idx->second.end())
      candidates = p->second;
  } else if (ci == schema_.primary_key) {
    if (auto it = pk_index_.find(v); it != pk_index_.end())
      candidates.push_back(it->second);
  } else {
    CountFullScan();
    for (RowId id = 1; id < next_id_; ++id) {
      const auto& slot = slots_[static_cast<std::size_t>(id - 1)];
      if (slot.has_value() && (*slot)[static_cast<std::size_t>(ci)] == v)
        candidates.push_back(id);
    }
  }

  std::vector<std::pair<RowId, Row>> changed;
  for (RowId id : candidates) {
    const Row& row = row_at(id);
    if (pred && !pred(row)) continue;
    Row next = row;
    mutate(next);
    if (Status s = schema_.Validate(next); !s.ok()) return s.error();
    changed.emplace_back(id, std::move(next));
  }
  return CommitUpdate(std::move(changed));
}

Result<std::size_t> Table::CommitUpdate(
    std::vector<std::pair<RowId, Row>> changed) {
  const auto pk = static_cast<std::size_t>(schema_.primary_key);
  // PK-uniqueness check against unchanged rows and within the change set.
  std::map<Value, RowId, ValueLess> new_keys;
  for (const auto& [id, next] : changed) {
    if (auto it = pk_index_.find(next[pk]);
        it != pk_index_.end() && it->second != id) {
      // Key collides with a row not in the change set?
      const bool collides_with_changed =
          std::any_of(changed.begin(), changed.end(),
                      [&](const auto& p) { return p.first == it->second; });
      if (!collides_with_changed)
        return Error{Errc::kAlreadyExists, "update would duplicate key"};
    }
    if (!new_keys.emplace(next[pk], id).second)
      return Error{Errc::kAlreadyExists, "update would duplicate key"};
  }
  // Diff-aware commit, two passes per index so transiently-overlapping key
  // swaps inside one change set cannot collide mid-commit: drop all stale
  // entries first, then add the new ones, then move the rows in.
  for (const auto& [id, next] : changed) {
    const Row& old = row_at(id);
    if (old[pk] != next[pk]) pk_index_.erase(old[pk]);
    for (auto& [ci, idx] : secondary_) {
      const auto c = static_cast<std::size_t>(ci);
      if (old[c] != next[c]) RemovePosting(idx, old[c], id);
    }
  }
  for (const auto& [id, next] : changed) {
    const Row& old = row_at(id);
    if (old[pk] != next[pk]) pk_index_.emplace(next[pk], id);
    for (auto& [ci, idx] : secondary_) {
      const auto c = static_cast<std::size_t>(ci);
      if (old[c] != next[c]) AddPosting(idx[next[c]], id);
    }
  }
  for (auto& [id, next] : changed) row_at(id) = std::move(next);
  return changed.size();
}

Status Table::UpdateByKey(const Value& key,
                          const std::function<void(Row&)>& mutate) {
  CountWrite();
  std::lock_guard lock(mu_);
  const auto it = pk_index_.find(key);
  if (it == pk_index_.end())
    return Status(Errc::kNotFound,
                  schema_.table_name + ": no row with key " + key.str());
  Row next = row_at(it->second);
  mutate(next);
  if (Status s = schema_.Validate(next); !s.ok()) return s;
  std::vector<std::pair<RowId, Row>> changed;
  changed.emplace_back(it->second, std::move(next));
  Result<std::size_t> n = CommitUpdate(std::move(changed));
  if (!n.ok()) return Status(n.error());
  return Status::Ok();
}

Status Table::CheckInPlaceColumn(int column, const Value& v) const {
  if (column < 0 || column >= static_cast<int>(schema_.columns.size()))
    return Status(Errc::kInvalidArgument, "column out of range");
  if (column == schema_.primary_key)
    return Status(Errc::kInvalidArgument,
                  "in-place update cannot touch the primary key");
  if (secondary_.contains(column))
    return Status(Errc::kInvalidArgument,
                  "in-place update cannot touch indexed column " +
                      schema_.columns[static_cast<std::size_t>(column)].name);
  const ColumnSpec& spec = schema_.columns[static_cast<std::size_t>(column)];
  if (v.is_null()) {
    if (!spec.nullable)
      return Status(Errc::kInvalidArgument,
                    "null into non-nullable column " + spec.name);
    return Status::Ok();
  }
  if (!v.matches(spec.type))
    return Status(Errc::kInvalidArgument,
                  "type mismatch for column " + spec.name);
  return Status::Ok();
}

Status Table::UpdateInPlace(const Value& key, int column, Value v) {
  const std::pair<int, Value> cell{column, std::move(v)};
  return UpdateInPlace(key, std::span<const std::pair<int, Value>>(&cell, 1));
}

Status Table::UpdateInPlace(const Value& key,
                            std::span<const std::pair<int, Value>> cells) {
  CountWrite();
  std::lock_guard lock(mu_);
  for (const auto& [column, v] : cells) {
    if (Status s = CheckInPlaceColumn(column, v); !s.ok()) return s;
  }
  const auto it = pk_index_.find(key);
  if (it == pk_index_.end())
    return Status(Errc::kNotFound,
                  schema_.table_name + ": no row with key " + key.str());
  Row& row = row_at(it->second);
  for (const auto& [column, v] : cells)
    row[static_cast<std::size_t>(column)] = v;
  return Status::Ok();
}

std::size_t Table::Erase(const Predicate& pred) {
  CountWrite();
  std::lock_guard lock(mu_);
  CountFullScan();
  std::size_t erased = 0;
  for (RowId id = 1; id < next_id_; ++id) {
    auto& slot = slots_[static_cast<std::size_t>(id - 1)];
    if (!slot.has_value()) continue;
    if (pred && !pred(*slot)) continue;
    UnindexRow(id, *slot);
    slot.reset();
    --live_;
    ++erased;
  }
  return erased;
}

Status Table::EraseByKey(const Value& key) {
  CountWrite();
  std::lock_guard lock(mu_);
  const auto it = pk_index_.find(key);
  if (it == pk_index_.end())
    return Status(Errc::kNotFound,
                  schema_.table_name + ": no row with key " + key.str());
  const RowId id = it->second;
  auto& slot = slots_[static_cast<std::size_t>(id - 1)];
  UnindexRow(id, *slot);
  slot.reset();
  --live_;
  return Status::Ok();
}

std::size_t Table::size() const {
  std::shared_lock lock(mu_);
  return live_;
}

std::vector<std::string> Table::IndexedColumns() const {
  std::shared_lock lock(mu_);
  std::vector<std::string> cols;
  cols.reserve(secondary_.size());
  for (const auto& [ci, _] : secondary_)
    cols.push_back(schema_.columns[static_cast<std::size_t>(ci)].name);
  return cols;
}

}  // namespace sor::db
