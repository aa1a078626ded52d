#include "inference/answer_segment.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "inference/segment_store.h"
#include "test_helpers.h"

namespace tcrowd {
namespace {

using tcrowd::testing::SimWorld;

/// Expects `got` to hold exactly `all` minus the log ids in `dead`, in log
/// order, with labels and continuous values bit-exact.
void ExpectLiveLog(const AnswerSet& got, const std::vector<Answer>& all,
                   const std::vector<size_t>& dead) {
  ASSERT_EQ(got.size(), all.size() - dead.size());
  size_t want = 0;
  for (size_t id = 0; id < all.size(); ++id) {
    bool is_dead = false;
    for (size_t d : dead) is_dead = is_dead || d == id;
    if (is_dead) continue;
    const Answer& a = got.answer(static_cast<int>(want++));
    EXPECT_EQ(a.worker, all[id].worker) << "log id " << id;
    EXPECT_EQ(a.cell.row, all[id].cell.row) << "log id " << id;
    EXPECT_EQ(a.cell.col, all[id].cell.col) << "log id " << id;
    if (all[id].value.is_continuous()) {
      EXPECT_EQ(a.value.number(), all[id].value.number()) << "log id " << id;
    } else {
      EXPECT_EQ(a.value.label(), all[id].value.label()) << "log id " << id;
    }
  }
}

// ---------------------------------------------------------------------------
// SegmentedAnswerStore: the plain answer log.

TEST(SegmentStore, SealReturnsOnlyTheNewSlice) {
  SimWorld world(774, /*answers_per_task=*/3);
  const std::vector<Answer>& all = world.answers.answers();
  SegmentedAnswerStore store(world.answers.num_rows(),
                             world.world.schema.num_columns());
  store.AppendBatch(all.data(), 100);
  SegmentedAnswerStore::Slice first = store.Seal();
  ASSERT_EQ(first.size, 100u);
  EXPECT_EQ(first.answers[0].worker, all[0].worker);
  EXPECT_EQ(first.answers[99].worker, all[99].worker);

  store.AppendBatch(all.data() + 100, 50);
  SegmentedAnswerStore::Slice second = store.Seal();
  ASSERT_EQ(second.size, 50u);
  EXPECT_EQ(second.answers[0].worker, all[100].worker);
  EXPECT_EQ(second.answers[49].worker, all[149].worker);

  // Nothing new: an empty slice, and the seal counters stay put.
  EXPECT_EQ(store.Seal().size, 0u);
  const SegmentedAnswerStore::Stats& stats = store.stats();
  EXPECT_EQ(stats.appended, 150u);
  EXPECT_EQ(stats.sealed_segments, 2u);
  EXPECT_EQ(stats.sealed_entries, 150u);
  EXPECT_EQ(stats.compactions, 0u);
  EXPECT_EQ(stats.compacted_entries, 0u);
}

TEST(SegmentStore, LiveLogExcludesRetractedAnswersSealedOrNot) {
  SimWorld world(778, /*answers_per_task=*/3);
  std::vector<Answer> all(world.answers.answers().begin(),
                          world.answers.answers().begin() + 90);
  SegmentedAnswerStore store(world.answers.num_rows(),
                             world.world.schema.num_columns());
  store.AppendBatch(all.data(), 80);
  store.Seal();
  store.AppendBatch(all.data() + 80, 10);  // unsealed: log ids 80..89

  // all[45] is sealed, all[83] is not. Each worker answers a cell at most
  // once in this world, so each retraction resolves to that log id.
  EXPECT_EQ(store.RetractNewest(all[45].worker, all[45].cell),
            std::optional<uint64_t>(45));
  EXPECT_EQ(store.RetractNewest(all[83].worker, all[83].cell),
            std::optional<uint64_t>(83));
  EXPECT_EQ(store.size(), 88u);
  EXPECT_EQ(store.log_size(), 90u);
  ExpectLiveLog(store.MaterializeAnswerSet(), all, {45, 83});

  // The retracted answers stay in place: the next seal hands over all of
  // log ids 80..89.
  SegmentedAnswerStore::Slice slice = store.Seal();
  ASSERT_EQ(slice.size, 10u);
  EXPECT_EQ(slice.answers[3].worker, all[83].worker);
  EXPECT_EQ(slice.answers[3].cell.row, all[83].cell.row);
  ExpectLiveLog(store.MaterializeAnswerSet(), all, {45, 83});
}

TEST(SegmentStore, SecondRetractionOfTheSameAnswerFindsNothing) {
  SimWorld world(779, /*answers_per_task=*/1);
  const std::vector<Answer>& all = world.answers.answers();
  SegmentedAnswerStore store(world.answers.num_rows(),
                             world.world.schema.num_columns());
  store.AppendBatch(all.data(), all.size());
  ASSERT_TRUE(store.RetractNewest(all[7].worker, all[7].cell).has_value());
  EXPECT_FALSE(store.RetractNewest(all[7].worker, all[7].cell).has_value());
  // A worker that never answered the cell finds nothing either.
  EXPECT_FALSE(store.RetractNewest(1 << 20, all[7].cell).has_value());
  EXPECT_EQ(store.size(), all.size() - 1);
}

TEST(SegmentStore, RetractionTakesTheNewerOfTwoAnswersOnACell) {
  Schema schema{{Schema::MakeCategorical("c", {"a", "b"}),
                 Schema::MakeContinuous("x", 0.0, 10.0)}};
  std::vector<Answer> log = {
      {2, CellRef{1, 0}, Value::Categorical(0)},   // 0
      {3, CellRef{1, 0}, Value::Categorical(1)},   // 1
      {2, CellRef{1, 0}, Value::Categorical(1)},   // 2: worker 2 again
      {2, CellRef{1, 1}, Value::Continuous(4.5)},  // 3
  };
  SegmentedAnswerStore store(4, schema.num_columns());
  store.AppendBatch(log.data(), log.size());
  EXPECT_EQ(store.RetractNewest(2, CellRef{1, 0}),
            std::optional<uint64_t>(2));

  // Re-answering after the retraction makes the new answer the newest.
  Answer redo{2, CellRef{1, 0}, Value::Categorical(0)};
  store.AppendBatch(&redo, 1);  // log id 4
  EXPECT_EQ(store.RetractNewest(2, CellRef{1, 0}),
            std::optional<uint64_t>(4));
  EXPECT_EQ(store.RetractNewest(2, CellRef{1, 0}),
            std::optional<uint64_t>(0));
  EXPECT_FALSE(store.RetractNewest(2, CellRef{1, 0}).has_value());
  log.push_back(redo);
  ExpectLiveLog(store.MaterializeAnswerSet(), log, {0, 2, 4});
}

TEST(SegmentStore, RestoreKeepsLogIdsDeadFlagsAndTheSealedBoundary) {
  SimWorld world(781, /*answers_per_task=*/3);
  const std::vector<Answer>& all = world.answers.answers();
  std::vector<Answer> durable(all.begin(), all.begin() + 60);
  SegmentedAnswerStore store(world.answers.num_rows(),
                             world.world.schema.num_columns());
  store.Restore(durable, /*retracted_ids=*/{12, 55}, /*sealed_answers=*/50);
  EXPECT_EQ(store.log_size(), 60u);
  EXPECT_EQ(store.size(), 58u);
  ExpectLiveLog(store.MaterializeAnswerSet(), durable, {12, 55});

  // A dead answer stays dead; a live one resolves to its durable log id.
  // (Each worker answers a cell at most once in this world.)
  EXPECT_FALSE(store.RetractNewest(all[12].worker, all[12].cell).has_value());
  EXPECT_EQ(store.RetractNewest(all[59].worker, all[59].cell),
            std::optional<uint64_t>(59));

  // New answers continue the log ids; the next seal starts at the durable
  // sealed boundary.
  store.AppendBatch(all.data() + 60, 5);
  SegmentedAnswerStore::Slice slice = store.Seal();
  ASSERT_EQ(slice.size, 15u);
  EXPECT_EQ(slice.answers[0].worker, all[50].worker);
  EXPECT_EQ(slice.answers[14].worker, all[64].worker);
}

// ---------------------------------------------------------------------------
// AnswerSegment: the layout one fit streams.

TEST(AnswerSegments, CellMajorRunsKeepLogOrderAndSkipInactiveColumns) {
  Schema schema{{Schema::MakeCategorical("c", {"a", "b", "c"}),
                 Schema::MakeContinuous("x", 0.0, 10.0),
                 Schema::MakeCategorical("d", {"a", "b"})}};
  AnswerSet answers(3, 3);
  answers.Add(Answer{7, CellRef{2, 2}, Value::Categorical(1)});
  answers.Add(Answer{5, CellRef{0, 1}, Value::Continuous(3.0)});
  answers.Add(Answer{7, CellRef{0, 0}, Value::Categorical(2)});
  answers.Add(Answer{9, CellRef{0, 1}, Value::Continuous(5.0)});
  answers.Add(Answer{5, CellRef{0, 0}, Value::Categorical(0)});
  AnswerSegment layout(schema, {true, true, false}, answers);

  // Workers are numbered by first appearance; every answer keeps its
  // answer-order slot.
  EXPECT_EQ(layout.worker_ids(), (std::vector<WorkerId>{7, 5, 9}));
  ASSERT_EQ(layout.size(), 5u);
  EXPECT_EQ(layout.ans_active()[0], 0);
  EXPECT_EQ(layout.ans_worker()[3], 2);

  // Row 0 holds (0,0) then (0,1), each in log order; column 2 is inactive,
  // so row 2 has no entries.
  ASSERT_EQ(layout.row_begin(0), 0u);
  ASSERT_EQ(layout.row_begin(1), 4u);
  EXPECT_EQ(layout.row_begin(2), 4u);
  EXPECT_EQ(layout.row_begin(3), 4u);
  EXPECT_EQ(std::vector<int32_t>(layout.cm_col(), layout.cm_col() + 4),
            (std::vector<int32_t>{0, 0, 1, 1}));
  EXPECT_EQ(std::vector<int32_t>(layout.cm_worker(), layout.cm_worker() + 4),
            (std::vector<int32_t>{0, 1, 1, 2}));
  EXPECT_EQ(layout.cm_label()[0], 2);
  EXPECT_EQ(layout.cm_label()[1], 0);
  // Standardized around the median (4.0) of the column's answers.
  EXPECT_LT(layout.cm_number()[2], 0.0);
  EXPECT_GT(layout.cm_number()[3], 0.0);
  EXPECT_EQ(layout.col_center()[1], 4.0);
}

}  // namespace
}  // namespace tcrowd
