// Unit tests for the embedded relational store: schema enforcement, primary
// keys, secondary indexes, scans, updates, and the concrete SOR schema.
#include <gtest/gtest.h>

#include "db/database.hpp"
#include "obs/metrics.hpp"

namespace sor::db {
namespace {

Schema PeopleSchema() {
  Schema s;
  s.table_name = "people";
  s.columns = {{"id", ColumnType::kInt64},
               {"name", ColumnType::kText},
               {"score", ColumnType::kDouble},
               {"active", ColumnType::kBool},
               {"note", ColumnType::kText, /*nullable=*/true}};
  return s;
}

TEST(Value, TypePredicatesAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(5).is_int());
  EXPECT_TRUE(Value(2.5).is_double());
  EXPECT_TRUE(Value("hi").is_text());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(Blob{1, 2}).is_blob());
  EXPECT_EQ(Value(5).as_int(), 5);
  EXPECT_DOUBLE_EQ(Value(5).numeric(), 5.0);
  EXPECT_DOUBLE_EQ(Value(true).numeric(), 1.0);
}

TEST(Value, IntMatchesDoubleColumn) {
  EXPECT_TRUE(Value(5).matches(ColumnType::kDouble));
  EXPECT_FALSE(Value(5.0).matches(ColumnType::kInt64));
}

TEST(Value, CompareTotalOrder) {
  EXPECT_LT(Value::Compare(Value(1), Value(2)), 0);
  EXPECT_EQ(Value::Compare(Value("a"), Value("a")), 0);
  EXPECT_GT(Value::Compare(Value("b"), Value("a")), 0);
  // Null sorts before everything.
  EXPECT_LT(Value::Compare(Value(), Value(false)), 0);
  // Numeric comparison crosses int/double.
  EXPECT_LT(Value::Compare(Value(1), Value(1.5)), 0);
}

TEST(Schema, ValidateChecksArityTypesAndNulls) {
  const Schema s = PeopleSchema();
  EXPECT_TRUE(s.Validate({Value(1), Value("a"), Value(1.0), Value(true),
                          Value()})
                  .ok());
  // wrong arity
  EXPECT_FALSE(s.Validate({Value(1)}).ok());
  // wrong type
  EXPECT_FALSE(s.Validate({Value(1), Value(2), Value(1.0), Value(true),
                           Value()})
                   .ok());
  // null in non-nullable column
  EXPECT_FALSE(s.Validate({Value(1), Value(), Value(1.0), Value(true),
                           Value()})
                   .ok());
}

TEST(Table, InsertAndFindByKey) {
  Table t(PeopleSchema());
  ASSERT_TRUE(t.Insert({Value(1), Value("ann"), Value(3.5), Value(true),
                        Value()})
                  .ok());
  ASSERT_TRUE(t.Insert({Value(2), Value("bob"), Value(1.5), Value(false),
                        Value("x")})
                  .ok());
  EXPECT_EQ(t.size(), 2u);
  const auto row = t.FindByKey(Value(2));
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[1].as_text(), "bob");
  EXPECT_FALSE(t.FindByKey(Value(99)).has_value());
}

TEST(Table, DuplicateKeyRejected) {
  Table t(PeopleSchema());
  ASSERT_TRUE(t.Insert({Value(1), Value("ann"), Value(0.0), Value(true),
                        Value()})
                  .ok());
  Result<RowId> dup =
      t.Insert({Value(1), Value("eve"), Value(0.0), Value(true), Value()});
  EXPECT_EQ(dup.code(), Errc::kAlreadyExists);
  EXPECT_EQ(t.size(), 1u);
}

Row Person(int id, const char* name) {
  return {Value(id), Value(name), Value(0.5 * id), Value(true), Value()};
}

TEST(Table, InsertBatchAppendsAndIndexes) {
  Table t(PeopleSchema());
  ASSERT_TRUE(t.CreateIndex("name").ok());
  ASSERT_TRUE(t.Insert(Person(1, "ann")).ok());
  std::vector<Row> batch = {Person(2, "ann"), Person(3, "bob"),
                            Person(4, "ann"), Person(5, "bob")};
  Result<std::vector<RowId>> ids = t.InsertBatch(std::move(batch));
  ASSERT_TRUE(ids.ok()) << ids.error().str();
  // RowIds continue the single-insert sequence, in batch order.
  EXPECT_EQ(ids.value(), (std::vector<RowId>{2, 3, 4, 5}));
  EXPECT_EQ(t.size(), 5u);
  // Both the pk index and the secondary index see every batch row.
  ASSERT_TRUE(t.FindByKey(Value(4)).has_value());
  EXPECT_EQ((*t.FindByKey(Value(4)))[1].as_text(), "ann");
  EXPECT_EQ(t.FindWhereEq("name", Value("ann")).size(), 3u);
  EXPECT_EQ(t.FindWhereEq("name", Value("bob")).size(), 2u);
  // And the postings stayed sorted: the cursored path still works.
  std::vector<int> seen;
  t.ForEachWhereEqFromPk("name", Value("ann"), Value(1), [&](const Row& r) {
    seen.push_back(static_cast<int>(r[0].as_int()));
    return true;
  });
  EXPECT_EQ(seen, (std::vector<int>{2, 4}));
}

TEST(Table, InsertBatchIsAllOrNothing) {
  Table t(PeopleSchema());
  ASSERT_TRUE(t.CreateIndex("name").ok());
  ASSERT_TRUE(t.Insert(Person(1, "ann")).ok());

  // Duplicate against an existing row: nothing from the batch lands.
  Result<std::vector<RowId>> dup_table =
      t.InsertBatch({Person(2, "bob"), Person(1, "eve")});
  EXPECT_EQ(dup_table.code(), Errc::kAlreadyExists);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_FALSE(t.FindByKey(Value(2)).has_value());
  EXPECT_TRUE(t.FindWhereEq("name", Value("bob")).empty());

  // Duplicate within the batch itself.
  Result<std::vector<RowId>> dup_batch =
      t.InsertBatch({Person(2, "bob"), Person(3, "cat"), Person(2, "eve")});
  EXPECT_EQ(dup_batch.code(), Errc::kAlreadyExists);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_FALSE(t.FindByKey(Value(3)).has_value());

  // Schema violation anywhere in the batch.
  Result<std::vector<RowId>> bad_row =
      t.InsertBatch({Person(2, "bob"), {Value(3)}});
  EXPECT_EQ(bad_row.code(), Errc::kInvalidArgument);
  EXPECT_EQ(t.size(), 1u);

  // The failed batches left no trace: the keys are still insertable.
  EXPECT_TRUE(t.Insert(Person(2, "bob")).ok());
  EXPECT_TRUE(t.InsertBatch({Person(3, "cat")}).ok());
  EXPECT_EQ(t.size(), 3u);
}

TEST(Table, InsertBatchEmptyIsNoop) {
  Table t(PeopleSchema());
  Result<std::vector<RowId>> r = t.InsertBatch({});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().empty());
  EXPECT_EQ(t.size(), 0u);
}

TEST(Table, UpsertInsertsThenReplaces) {
  Table t(PeopleSchema());
  ASSERT_TRUE(t.Upsert({Value(1), Value("ann"), Value(1.0), Value(true),
                        Value()})
                  .ok());
  ASSERT_TRUE(t.Upsert({Value(1), Value("ann2"), Value(2.0), Value(true),
                        Value()})
                  .ok());
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ((*t.FindByKey(Value(1)))[1].as_text(), "ann2");
}

TEST(Table, SecondaryIndexFindWhereEq) {
  Table t(PeopleSchema());
  ASSERT_TRUE(t.CreateIndex("name").ok());
  for (int i = 1; i <= 10; ++i) {
    ASSERT_TRUE(t.Insert({Value(i), Value(i % 2 ? "odd" : "even"),
                          Value(double(i)), Value(true), Value()})
                    .ok());
  }
  EXPECT_EQ(t.FindWhereEq("name", Value("odd")).size(), 5u);
  EXPECT_EQ(t.FindWhereEq("name", Value("even")).size(), 5u);
  EXPECT_TRUE(t.FindWhereEq("name", Value("none")).empty());
  EXPECT_FALSE(t.CreateIndex("no_such_column").ok());
}

TEST(Table, IndexBackfillOnLateCreation) {
  Table t(PeopleSchema());
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(t.Insert({Value(i), Value("x"), Value(0.0), Value(true),
                          Value()})
                    .ok());
  }
  ASSERT_TRUE(t.CreateIndex("name").ok());
  EXPECT_EQ(t.FindWhereEq("name", Value("x")).size(), 4u);
}

TEST(Table, UnindexedEqScanStillWorks) {
  Table t(PeopleSchema());
  ASSERT_TRUE(t.Insert({Value(1), Value("a"), Value(1.0), Value(true),
                        Value()})
                  .ok());
  EXPECT_EQ(t.FindWhereEq("score", Value(1.0)).size(), 1u);
}

TEST(Table, ScanWithPredicateAndOrdering) {
  Table t(PeopleSchema());
  const double scores[] = {3.0, 1.0, 2.0};
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(t.Insert({Value(i + 1), Value("p"), Value(scores[i]),
                          Value(true), Value()})
                    .ok());
  }
  const auto all = t.ScanOrderedBy("score");
  ASSERT_EQ(all.size(), 3u);
  EXPECT_DOUBLE_EQ(all[0][2].as_double(), 1.0);
  EXPECT_DOUBLE_EQ(all[2][2].as_double(), 3.0);
  const auto some =
      t.Scan([](const Row& r) { return r[2].as_double() >= 2.0; });
  EXPECT_EQ(some.size(), 2u);
}

TEST(Table, UpdateMutatesAndReindexes) {
  Table t(PeopleSchema());
  ASSERT_TRUE(t.CreateIndex("name").ok());
  ASSERT_TRUE(t.Insert({Value(1), Value("a"), Value(1.0), Value(true),
                        Value()})
                  .ok());
  Result<std::size_t> n = t.Update(
      [](const Row& r) { return r[0].as_int() == 1; },
      [](Row& r) { r[1] = Value("renamed"); });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 1u);
  EXPECT_EQ(t.FindWhereEq("name", Value("a")).size(), 0u);
  EXPECT_EQ(t.FindWhereEq("name", Value("renamed")).size(), 1u);
}

TEST(Table, UpdateByKeyNotFound) {
  Table t(PeopleSchema());
  EXPECT_EQ(t.UpdateByKey(Value(9), [](Row&) {}).code(), Errc::kNotFound);
}

TEST(Table, UpdateRejectsInvalidRows) {
  Table t(PeopleSchema());
  ASSERT_TRUE(t.Insert({Value(1), Value("a"), Value(1.0), Value(true),
                        Value()})
                  .ok());
  Result<std::size_t> bad = t.Update(
      {}, [](Row& r) { r[1] = Value(); });  // NULL into non-nullable
  EXPECT_FALSE(bad.ok());
  // Original row unchanged (two-phase commit).
  EXPECT_EQ((*t.FindByKey(Value(1)))[1].as_text(), "a");
}

TEST(Table, UpdateRejectsDuplicatePrimaryKey) {
  Table t(PeopleSchema());
  ASSERT_TRUE(t.Insert({Value(1), Value("a"), Value(1.0), Value(true),
                        Value()})
                  .ok());
  ASSERT_TRUE(t.Insert({Value(2), Value("b"), Value(1.0), Value(true),
                        Value()})
                  .ok());
  Result<std::size_t> bad = t.Update(
      [](const Row& r) { return r[0].as_int() == 2; },
      [](Row& r) { r[0] = Value(1); });
  EXPECT_EQ(bad.code(), Errc::kAlreadyExists);
}

TEST(Table, PrimaryKeySwapWithinUpdateSetAllowed) {
  Table t(PeopleSchema());
  ASSERT_TRUE(t.Insert({Value(1), Value("a"), Value(1.0), Value(true),
                        Value()})
                  .ok());
  ASSERT_TRUE(t.Insert({Value(2), Value("b"), Value(1.0), Value(true),
                        Value()})
                  .ok());
  // Shift both keys up by 10: transiently overlapping, finally disjoint.
  Result<std::size_t> n = t.Update(
      {}, [](Row& r) { r[0] = Value(r[0].as_int() + 10); });
  ASSERT_TRUE(n.ok());
  EXPECT_TRUE(t.FindByKey(Value(11)).has_value());
  EXPECT_TRUE(t.FindByKey(Value(12)).has_value());
}

TEST(Table, EraseRemovesAndUnindexes) {
  Table t(PeopleSchema());
  ASSERT_TRUE(t.CreateIndex("name").ok());
  for (int i = 1; i <= 6; ++i) {
    ASSERT_TRUE(t.Insert({Value(i), Value(i <= 3 ? "del" : "keep"),
                          Value(0.0), Value(true), Value()})
                    .ok());
  }
  EXPECT_EQ(t.Erase([](const Row& r) { return r[1].as_text() == "del"; }),
            3u);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_TRUE(t.FindWhereEq("name", Value("del")).empty());
  // Re-inserting an erased key works (index fully cleaned).
  EXPECT_TRUE(t.Insert({Value(1), Value("back"), Value(0.0), Value(true),
                        Value()})
                  .ok());
}

TEST(Table, DoubleKeysDoNotAlias) {
  Schema s;
  s.table_name = "d";
  s.columns = {{"k", ColumnType::kDouble}};
  Table t(std::move(s));
  ASSERT_TRUE(t.Insert({Value(1.0000000000000002)}).ok());
  EXPECT_TRUE(t.Insert({Value(1.0)}).ok());  // distinct doubles, both fit
  EXPECT_EQ(t.size(), 2u);
}

TEST(Table, ReadCellAndMaxPrimaryKey) {
  Table t(PeopleSchema());
  EXPECT_FALSE(t.MaxPrimaryKey().has_value());
  ASSERT_TRUE(t.Insert({Value(3), Value("c"), Value(0.5), Value(true),
                        Value()})
                  .ok());
  ASSERT_TRUE(t.Insert({Value(7), Value("g"), Value(1.5), Value(false),
                        Value()})
                  .ok());
  ASSERT_EQ(t.MaxPrimaryKey()->as_int(), 7);
  Result<Value> cell = t.ReadCell(Value(3), 2);
  ASSERT_TRUE(cell.ok());
  EXPECT_DOUBLE_EQ(cell.value().as_double(), 0.5);
  EXPECT_EQ(t.ReadCell(Value(99), 2).code(), Errc::kNotFound);
  EXPECT_EQ(t.ReadCell(Value(3), 99).code(), Errc::kInvalidArgument);
  // Erasing the max re-exposes the previous one.
  ASSERT_TRUE(t.EraseByKey(Value(7)).ok());
  ASSERT_EQ(t.MaxPrimaryKey()->as_int(), 3);
}

TEST(Table, UpdateInPlaceEnforcesContract) {
  Table t(PeopleSchema());
  ASSERT_TRUE(t.CreateIndex("name").ok());
  ASSERT_TRUE(t.Insert({Value(1), Value("ann"), Value(1.0), Value(true),
                        Value()})
                  .ok());
  // Happy path: "score" is non-key and unindexed.
  ASSERT_TRUE(t.UpdateInPlace(Value(1), 2, Value(9.5)).ok());
  EXPECT_DOUBLE_EQ((*t.FindByKey(Value(1)))[2].as_double(), 9.5);
  // Primary-key column refused (would desync the pk index).
  EXPECT_EQ(t.UpdateInPlace(Value(1), 0, Value(5)).code(),
            Errc::kInvalidArgument);
  // Indexed column refused (would desync the secondary index).
  EXPECT_EQ(t.UpdateInPlace(Value(1), 1, Value("eve")).code(),
            Errc::kInvalidArgument);
  // Schema still enforced: wrong type, bad column, null into non-nullable.
  EXPECT_EQ(t.UpdateInPlace(Value(1), 2, Value("nan")).code(),
            Errc::kInvalidArgument);
  EXPECT_EQ(t.UpdateInPlace(Value(1), 42, Value(0.0)).code(),
            Errc::kInvalidArgument);
  EXPECT_EQ(t.UpdateInPlace(Value(1), 3, Value()).code(),
            Errc::kInvalidArgument);
  // Nullable column may go to null in place; missing key is kNotFound.
  EXPECT_TRUE(t.UpdateInPlace(Value(1), 4, Value()).ok());
  EXPECT_EQ(t.UpdateInPlace(Value(99), 2, Value(0.0)).code(),
            Errc::kNotFound);
  // The in-place write left the index intact.
  EXPECT_EQ(t.FindWhereEq("name", Value("ann")).size(), 1u);
}

TEST(Table, ForEachWhereEqFromPkResumesAfterCursor) {
  Table t(PeopleSchema());
  ASSERT_TRUE(t.CreateIndex("name").ok());
  for (int i = 1; i <= 8; ++i) {
    ASSERT_TRUE(t.Insert({Value(i), Value(i % 2 ? "odd" : "even"),
                          Value(double(i)), Value(true), Value()})
                    .ok());
  }
  auto Collect = [&](const Value& after) {
    std::vector<std::int64_t> ids;
    t.ForEachWhereEqFromPk("name", Value("odd"), after, [&](const Row& r) {
      ids.push_back(r[0].as_int());
      return true;
    });
    return ids;
  };
  EXPECT_EQ(Collect(Value(0)), (std::vector<std::int64_t>{1, 3, 5, 7}));
  EXPECT_EQ(Collect(Value(3)), (std::vector<std::int64_t>{5, 7}));
  // Cursor between matches and past the end both behave.
  EXPECT_EQ(Collect(Value(4)), (std::vector<std::int64_t>{5, 7}));
  EXPECT_TRUE(Collect(Value(7)).empty());
  // Early-exit visitor stops the walk.
  int seen = 0;
  t.ForEachWhereEqFromPk("name", Value("odd"), Value(0), [&](const Row&) {
    ++seen;
    return false;
  });
  EXPECT_EQ(seen, 1);
}

TEST(Table, EraseByKeyRemovesAndUnindexes) {
  Table t(PeopleSchema());
  ASSERT_TRUE(t.CreateIndex("name").ok());
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(t.Insert({Value(i), Value("dup"), Value(0.0), Value(true),
                          Value()})
                    .ok());
  }
  ASSERT_TRUE(t.EraseByKey(Value(2)).ok());
  EXPECT_EQ(t.size(), 2u);
  EXPECT_FALSE(t.FindByKey(Value(2)).has_value());
  EXPECT_EQ(t.FindWhereEq("name", Value("dup")).size(), 2u);
  EXPECT_EQ(t.EraseByKey(Value(2)).code(), Errc::kNotFound);
  // A re-insert of the erased key works and re-indexes.
  ASSERT_TRUE(t.Insert({Value(2), Value("dup"), Value(0.0), Value(true),
                        Value()})
                  .ok());
  EXPECT_EQ(t.FindWhereEq("name", Value("dup")).size(), 3u);
}

TEST(Table, FullScanCounterTracksOnlyFullWalks) {
  Table t(PeopleSchema());
  ASSERT_TRUE(t.CreateIndex("name").ok());
  ASSERT_TRUE(t.Insert({Value(1), Value("ann"), Value(1.0), Value(true),
                        Value()})
                  .ok());
  obs::Counter counter(obs::Sharding::kSingle);
  t.set_full_scan_counter(&counter);
  // Point and indexed access paths are free.
  (void)t.FindByKey(Value(1));
  (void)t.ReadCell(Value(1), 2);
  (void)t.FindWhereEq("name", Value("ann"));
  (void)t.FindWhereEq("id", Value(1));  // pk path, no walk
  (void)t.UpdateInPlace(Value(1), 2, Value(2.0));
  EXPECT_EQ(counter.value(), 0u);
  // Full walks count: Scan, unindexed equality, predicate update/erase.
  (void)t.Scan();
  (void)t.FindWhereEq("score", Value(2.0));
  (void)t.Update([](const Row&) { return false; }, [](Row&) {});
  (void)t.Erase([](const Row&) { return false; });
  EXPECT_EQ(counter.value(), 4u);
  t.set_full_scan_counter(nullptr);
  (void)t.Scan();
  EXPECT_EQ(counter.value(), 4u);
}

TEST(Table, CountWhereEqCopiesNoRows) {
  Table t(PeopleSchema());
  ASSERT_TRUE(t.CreateIndex("name").ok());
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(t.Insert({Value(i), Value(i % 2 == 0 ? "even" : "odd"),
                          Value(1.0 * i), Value(i <= 2), Value()})
                    .ok());
  }
  obs::Counter rows(obs::Sharding::kSingle);
  obs::Counter scans(obs::Sharding::kSingle);
  t.set_rows_materialized_counter(&rows);
  t.set_full_scan_counter(&scans);
  // Indexed and primary-key counts read postings only.
  EXPECT_EQ(t.CountWhereEq("name", Value("odd")), 3u);
  EXPECT_EQ(t.CountWhereEq("name", Value("even")), 2u);
  EXPECT_EQ(t.CountWhereEq("name", Value("none")), 0u);
  EXPECT_EQ(t.CountWhereEq("id", Value(4)), 1u);
  EXPECT_EQ(t.CountWhereEq("id", Value(9)), 0u);
  EXPECT_EQ(t.CountWhereEq("nope", Value(1)), 0u);
  EXPECT_EQ(scans.value(), 0u);
  // An unindexed column still counts correctly, as one counted walk.
  EXPECT_EQ(t.CountWhereEq("active", Value(true)), 2u);
  EXPECT_EQ(scans.value(), 1u);
  EXPECT_EQ(rows.value(), 0u);
  // Counts follow index maintenance on update and erase.
  ASSERT_TRUE(
      t.UpdateByKey(Value(1), [](Row& r) { r[1] = Value("even"); }).ok());
  ASSERT_TRUE(t.EraseByKey(Value(3)).ok());
  EXPECT_EQ(t.CountWhereEq("name", Value("odd")), 1u);
  EXPECT_EQ(t.CountWhereEq("name", Value("even")), 3u);
  EXPECT_EQ(t.CountWhereEq("name", Value("odd")),
            t.FindWhereEq("name", Value("odd")).size());
}

TEST(Table, RowsMaterializedCountsCopiedRows) {
  Table t(PeopleSchema());
  ASSERT_TRUE(t.CreateIndex("name").ok());
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(t.Insert({Value(i), Value(i <= 3 ? "ann" : "bob"),
                          Value(1.0 * i), Value(true), Value()})
                    .ok());
  }
  obs::Counter rows(obs::Sharding::kSingle);
  t.set_rows_materialized_counter(&rows);
  // Visitors, cell reads and counts copy nothing.
  t.ForEach([](const Row&) { return true; });
  t.ForEachWhereEq("name", Value("ann"), [](const Row&) { return true; });
  (void)t.ReadCell(Value(1), 2);
  (void)t.CountWhereEq("name", Value("ann"));
  EXPECT_EQ(rows.value(), 0u);
  // Every copied-out row counts once, misses count nothing.
  (void)t.FindByKey(Value(2));
  (void)t.FindByKey(Value(99));
  EXPECT_EQ(rows.value(), 1u);
  (void)t.FindWhereEq("name", Value("ann"));   // indexed: 3
  (void)t.FindWhereEq("score", Value(4.0));    // unindexed walk: 1
  EXPECT_EQ(rows.value(), 5u);
  (void)t.Scan();                                        // 4
  (void)t.ScanOrderedBy("score", [](const Row& r) {      // 2, counted once
    return r[0].as_int() <= 2;
  });
  EXPECT_EQ(rows.value(), 11u);
  t.set_rows_materialized_counter(nullptr);
  (void)t.Scan();
  EXPECT_EQ(rows.value(), 11u);
}

TEST(Database, AttachObservabilityWiresRowsMaterialized) {
  Database db;
  MakeSorSchema(db);
  obs::MetricsRegistry registry;
  db.AttachObservability(&registry);
  Table* users = db.table(tables::kUsers);
  ASSERT_TRUE(users->Insert({Value(1), Value("ann"), Value("tok")}).ok());
  (void)users->FindByKey(Value(1));
  EXPECT_EQ(registry.counter("db.rows_materialized").value(), 1u);
}

TEST(Database, CreateLookupDrop) {
  Database db;
  ASSERT_TRUE(db.CreateTable(PeopleSchema()).ok());
  EXPECT_NE(db.table("people"), nullptr);
  EXPECT_EQ(db.table("ghosts"), nullptr);
  EXPECT_EQ(db.CreateTable(PeopleSchema()).code(), Errc::kAlreadyExists);
  EXPECT_TRUE(db.DropTable("people").ok());
  EXPECT_EQ(db.DropTable("people").code(), Errc::kNotFound);
}

TEST(Database, SorSchemaComplete) {
  Database db;
  MakeSorSchema(db);
  for (const char* name :
       {tables::kUsers, tables::kApplications, tables::kParticipations,
        tables::kRawData, tables::kFeatureData, tables::kSchedules}) {
    EXPECT_NE(db.table(name), nullptr) << name;
  }
  // Spot-check a couple of schema facts the server relies on.
  EXPECT_EQ(db.table(tables::kParticipations)->col("status"), 6);
  EXPECT_EQ(db.table(tables::kRawData)->col("seq"), 5);
  EXPECT_EQ(db.table(tables::kRawData)->schema().columns.size(), 6u);
  EXPECT_EQ(db.table(tables::kApplications)->col("features"), 9);
  EXPECT_EQ(db.table(tables::kParticipations)->col("incarnation"), 9);
}

// --- storage fault injection -------------------------------------------------

TEST(StorageFaults, MatcherGrammar) {
  EXPECT_TRUE(StorageFaultInjector::Matches("*", "raw_data"));
  EXPECT_TRUE(StorageFaultInjector::Matches("raw_data", "raw_data"));
  EXPECT_TRUE(StorageFaultInjector::Matches("raw*", "raw_data"));
  EXPECT_FALSE(StorageFaultInjector::Matches("raw_data", "feature_data"));
  EXPECT_FALSE(StorageFaultInjector::Matches("feature*", "raw_data"));
}

TEST(StorageFaults, ScriptedFailuresLeaveTableUntouched) {
  Database db;
  MakeSorSchema(db);
  StorageFaultInjector faults;
  db.AttachStorageFaults(&faults);
  StorageFaultRule rule;
  rule.table = tables::kUsers;
  rule.fail_next = 2;
  faults.AddRule(rule);

  Table* users = db.table(tables::kUsers);
  const Row row{Value(1), Value("ann"), Value("tok-1")};
  for (int i = 0; i < 2; ++i) {
    Result<RowId> r = users->Insert(row);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, Errc::kUnavailable);
    EXPECT_EQ(users->size(), 0u);  // the failed write changed nothing
  }
  // Third attempt succeeds: at-least-once retry absorbs the fault.
  EXPECT_TRUE(users->Insert(row).ok());
  EXPECT_EQ(users->size(), 1u);
  EXPECT_EQ(faults.writes_failed(), 2u);
}

TEST(StorageFaults, SeededScheduleIsDeterministicAndScoped) {
  // Same seed -> same failure schedule; a rule consumes the stream only
  // for matching tables, so unmatched writes never shift it.
  auto run = [](bool interleave_unmatched) {
    Database db;
    MakeSorSchema(db);
    StorageFaultInjector faults;
    faults.set_seed(99);
    StorageFaultRule rule;
    rule.table = tables::kRawData;
    rule.write_fail = 0.4;
    faults.AddRule(rule);
    db.AttachStorageFaults(&faults);
    Table* raw = db.table(tables::kRawData);
    Table* users = db.table(tables::kUsers);
    std::string pattern;
    for (int i = 0; i < 40; ++i) {
      if (interleave_unmatched)
        (void)users->Insert({Value(1000 + i), Value("u"), Value("t" + std::to_string(i))});
      Result<RowId> r = raw->Insert({Value(i), Value(1), Value(1),
                                     Value(Blob{1}), Value(0), Value(i)});
      pattern += r.ok() ? '.' : 'x';
    }
    return pattern;
  };
  const std::string base = run(false);
  EXPECT_NE(base.find('x'), std::string::npos);
  EXPECT_NE(base.find('.'), std::string::npos);
  EXPECT_EQ(run(true), base);
}

}  // namespace
}  // namespace sor::db
