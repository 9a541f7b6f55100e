// Batch-size differential: the engine must be observationally identical
// at every batch size — same tuples in the same order AND identical
// simulated CostMeter charges (DESIGN.md §10) — across randomized
// tables/predicates/joins, edge-case shapes, and deterministic fault
// schedules. The reference run drives every operator one row per batch.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "common/metrics_registry.h"
#include "common/rng.h"
#include "exec/aggregate.h"
#include "exec/executors.h"
#include "exec/sort.h"
#include "test_util.h"

namespace sqp {
namespace {

using testutil::Join;
using testutil::Sel;

using ExecFactory = std::function<std::unique_ptr<Executor>()>;

/// Everything observable about one executor-tree run.
struct RunOutcome {
  Status status = Status::OK();
  std::vector<Tuple> rows;
  uint64_t tuples = 0;
  uint64_t blocks_read = 0;
  uint64_t blocks_written = 0;
};

/// Drive a fresh executor tree batch-at-a-time from a cold buffer pool.
RunOutcome RunBatchPath(Database* db, const ExecFactory& factory,
                        size_t batch_size) {
  RunOutcome out;
  EXPECT_TRUE(db->ColdStart().ok());
  const CostMeter& meter = db->meter();
  uint64_t r0 = meter.blocks_read();
  uint64_t w0 = meter.blocks_written();
  uint64_t t0 = meter.tuples_processed();
  std::unique_ptr<Executor> exec = factory();
  out.status = exec->Init();
  TupleBatch batch(batch_size);
  while (out.status.ok()) {
    auto more = exec->NextBatch(&batch);
    if (!more.ok()) {
      out.status = more.status();
      break;
    }
    if (batch.empty()) break;
    for (Tuple& row : batch) out.rows.push_back(std::move(row));
  }
  out.blocks_read = meter.blocks_read() - r0;
  out.blocks_written = meter.blocks_written() - w0;
  out.tuples = meter.tuples_processed() - t0;
  return out;
}

void ExpectIdentical(const RunOutcome& reference,
                     const RunOutcome& batch_run) {
  ASSERT_EQ(reference.status.code(), batch_run.status.code())
      << "reference: " << reference.status.ToString()
      << " batch: " << batch_run.status.ToString();
  ASSERT_EQ(reference.rows.size(), batch_run.rows.size());
  for (size_t i = 0; i < reference.rows.size(); i++) {
    ASSERT_EQ(reference.rows[i], batch_run.rows[i]) << "row " << i;
  }
  EXPECT_EQ(reference.tuples, batch_run.tuples) << "CPU charge diverged";
  EXPECT_EQ(reference.blocks_read, batch_run.blocks_read)
      << "read charge diverged";
  EXPECT_EQ(reference.blocks_written, batch_run.blocks_written)
      << "write charge diverged";
}

/// Run the differential: the 1-row-batch reference against a spread of
/// batch sizes around page/row-count boundaries.
void Differential(Database* db, const ExecFactory& factory) {
  RunOutcome reference = RunBatchPath(db, factory, 1);
  for (size_t batch_size : {size_t{7}, size_t{256}, kDefaultExecBatchSize}) {
    SCOPED_TRACE("batch_size " + std::to_string(batch_size));
    RunOutcome batch_run = RunBatchPath(db, factory, batch_size);
    ExpectIdentical(reference, batch_run);
  }
}

/// Factory for a planner-built tree over `graph` (fresh tree per call).
ExecFactory PlannedFactory(Database* db, QueryGraph graph) {
  return [db, graph]() {
    auto plan = db->planner().Plan(graph, &db->views(), ViewMode::kNone);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    auto exec = db->planner().Build(*plan, &db->catalog(),
                                    &db->buffer_pool(), &db->meter());
    EXPECT_TRUE(exec.ok()) << exec.status().ToString();
    return std::move(*exec);
  };
}

TEST(ExecBatchDifferentialTest, RandomizedScansAndJoins) {
  Rng rng(0xbadc0ffee);
  for (int round = 0; round < 8; round++) {
    SCOPED_TRACE("round " + std::to_string(round));
    size_t rows_r = 200 + static_cast<size_t>(rng.NextRange(2000));
    size_t rows_s = 200 + static_cast<size_t>(rng.NextRange(4000));
    std::unique_ptr<Database> db(
        testutil::MakeTwoTableDb(rows_r, rows_s, /*seed=*/round + 11));

    QueryGraph graph;
    graph.AddRelation("r");
    // Random predicate mix on r (and s when joined).
    if (rng.NextDouble(0, 1) < 0.8) {
      CompareOp op = rng.NextDouble(0, 1) < 0.5 ? CompareOp::kLt
                                                : CompareOp::kGe;
      graph.AddSelection(Sel("r", "r_a", op, Value(rng.NextInt(0, 99))));
    }
    if (rng.NextDouble(0, 1) < 0.6) {
      graph.AddJoin(testutil::RsJoin());
      if (rng.NextDouble(0, 1) < 0.5) {
        graph.AddSelection(
            Sel("s", "s_c", CompareOp::kLt, Value(rng.NextInt(1, 49))));
      }
    }
    Differential(db.get(), PlannedFactory(db.get(), graph));
  }
}

TEST(ExecBatchDifferentialTest, EmptyTable) {
  std::unique_ptr<Database> db(testutil::MakeTwoTableDb(0, 0));
  TableInfo* r = db->catalog().GetTable("r");
  ASSERT_NE(r, nullptr);
  Differential(db.get(), [&] {
    return std::make_unique<SeqScanExecutor>(r, &db->buffer_pool(),
                                             &db->meter());
  });
}

TEST(ExecBatchDifferentialTest, SingleTuple) {
  std::unique_ptr<Database> db(testutil::MakeTwoTableDb(1, 1));
  QueryGraph graph;
  graph.AddJoin(testutil::RsJoin());
  Differential(db.get(), PlannedFactory(db.get(), graph));
}

TEST(ExecBatchDifferentialTest, ExactBatchBoundary) {
  // 512 rows: exact multiples of batch sizes 1 and 256, and exactly two
  // 256-row batches — the end-of-stream batch is empty, not short.
  std::unique_ptr<Database> db(testutil::MakeTwoTableDb(512, 512));
  TableInfo* r = db->catalog().GetTable("r");
  ASSERT_NE(r, nullptr);
  ExecFactory factory = [&] {
    return std::make_unique<SeqScanExecutor>(r, &db->buffer_pool(),
                                             &db->meter());
  };
  RunOutcome reference = RunBatchPath(db.get(), factory, 1);
  ASSERT_EQ(reference.rows.size(), 512u);
  for (size_t batch_size : {size_t{256}, size_t{512}}) {
    SCOPED_TRACE("batch_size " + std::to_string(batch_size));
    ExpectIdentical(reference, RunBatchPath(db.get(), factory, batch_size));
  }
}

TEST(ExecBatchDifferentialTest, AllFilteredBatches) {
  std::unique_ptr<Database> db(testutil::MakeTwoTableDb(1500, 100));
  QueryGraph graph;
  // r_a is uniform in [0, 100): nothing survives.
  graph.AddSelection(
      Sel("r", "r_a", CompareOp::kLt, Value(static_cast<int64_t>(-1))));
  Differential(db.get(), PlannedFactory(db.get(), graph));
}

TEST(ExecBatchDifferentialTest, SortAggregateAndLimitDecorations) {
  std::unique_ptr<Database> db(testutil::MakeTwoTableDb(900, 2700));
  QueryGraph graph;
  graph.AddJoin(testutil::RsJoin());
  graph.AddSelection(
      Sel("s", "s_c", CompareOp::kLt, Value(static_cast<int64_t>(30))));
  ExecFactory spj = PlannedFactory(db.get(), graph);
  TableInfo* r = db->catalog().GetTable("r");
  ASSERT_NE(r, nullptr);

  {
    SCOPED_TRACE("sort");
    Differential(db.get(), [&] {
      return std::make_unique<SortExecutor>(
          spj(), std::vector<SortKey>{{1, false}, {0, true}}, &db->meter());
    });
  }
  {
    SCOPED_TRACE("aggregate");
    Differential(db.get(), [&] {
      AggSpec count;
      count.func = AggFunc::kCount;
      count.column_index = AggSpec::kStar;
      count.output_name = "count(*)";
      AggSpec avg;
      avg.func = AggFunc::kAvg;
      avg.column_index = 2;  // r_b
      avg.output_name = "avg(r_b)";
      return std::make_unique<HashAggregateExecutor>(
          spj(), std::vector<size_t>{1}, std::vector<AggSpec>{count, avg},
          &db->meter());
    });
  }
  {
    SCOPED_TRACE("limit");
    // LIMIT pulls its child one row per batch whatever its own batch
    // size, so every run charges the child identically.
    Differential(db.get(), [&] {
      return std::make_unique<LimitExecutor>(spj(), 37);
    });
  }
}

/// Under a deterministic fault schedule, batch sizes 1 and 1024 must
/// fail (or not) with the same status, the same rows-before-failure
/// drained total, and the same charges — the bit-identity guarantee
/// chaos schedules rely on. Seeded from SQP_CHAOS_SEED like the chaos
/// sweep.
TEST(ExecBatchDifferentialTest, FaultScheduleBitIdentical) {
  uint64_t base_seed = 1;
  if (const char* env = std::getenv("SQP_CHAOS_SEED")) {
    base_seed = static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
  }
  // Small pool: the scan cannot cache the table, so "disk.read" fires
  // on real fetches in both runs.
  std::unique_ptr<Database> db(
      testutil::MakeTwoTableDb(3000, 6000, /*seed=*/5, /*pool_pages=*/32));
  QueryGraph graph;
  graph.AddJoin(testutil::RsJoin());
  graph.AddSelection(
      Sel("r", "r_a", CompareOp::kGe, Value(static_cast<int64_t>(10))));
  ExecFactory factory = PlannedFactory(db.get(), graph);

  Rng rng(base_seed);
  for (int round = 0; round < 6; round++) {
    SCOPED_TRACE("fault round " + std::to_string(round));
    uint64_t nth = 5 + rng.NextRange(120);

    FaultInjector::Global().Reset();
    FaultInjector::Global().Arm("disk.read", FaultSpec::EveryNth(nth));
    RunOutcome reference = RunBatchPath(db.get(), factory, 1);

    FaultInjector::Global().Reset();
    FaultInjector::Global().Arm("disk.read", FaultSpec::EveryNth(nth));
    RunOutcome batch_run = RunBatchPath(db.get(), factory, 1024);

    FaultInjector::Global().Reset();
    ExpectIdentical(reference, batch_run);
  }
}

/// exec.batch.* metrics: batches/rows counters advance and the fill
/// gauge stays within (0, target].
TEST(ExecBatchMetricsTest, CountersAdvance) {
  std::unique_ptr<Database> db(testutil::MakeTwoTableDb(2100, 100));
  TableInfo* r = db->catalog().GetTable("r");
  ASSERT_NE(r, nullptr);
  auto before = MetricsRegistry::Global().Snapshot();
  SeqScanExecutor scan(r, &db->buffer_pool(), &db->meter());
  auto rows = DrainExecutor(&scan);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2100u);
  auto after = MetricsRegistry::Global().Snapshot();
  EXPECT_GT(after.counter("exec.batch.batches"),
            before.counter("exec.batch.batches"));
  EXPECT_GE(after.counter("exec.batch.rows"),
            before.counter("exec.batch.rows") + 2100);
  EXPECT_GT(after.counter("exec.batch.pages_pinned"),
            before.counter("exec.batch.pages_pinned"));
  EXPECT_GT(after.gauges.at("exec.batch.avg_fill"), 0.0);
}

}  // namespace
}  // namespace sqp
