// Parallel-vs-sequential differential: the morsel-parallel engine
// (DESIGN.md §15) must be observationally identical to the sequential
// engine at every exec_threads setting — same rows in the same order,
// identical CostMeter charges, byte-identical EXPLAIN ANALYZE actuals,
// and the same failure point under deterministic fault schedules. Only
// wall-clock may differ.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "common/metrics_registry.h"
#include "common/metrics_timeline.h"
#include "common/rng.h"
#include "db/database.h"
#include "harness/replayer.h"
#include "test_util.h"
#include "trace/trace.h"

namespace sqp {
namespace {

using testutil::Sel;

constexpr size_t kThreadCounts[] = {1, 2, 4, 8};

/// Everything observable about one query run on a fresh database.
struct RunOutcome {
  StatusCode code = StatusCode::kOk;
  std::string status_message;
  std::vector<Tuple> rows;
  uint64_t row_count = 0;
  double seconds = 0;
  uint64_t tuples = 0;
  uint64_t blocks_read = 0;
  uint64_t blocks_written = 0;
  std::string profile_text;  // EXPLAIN ANALYZE rendering (when asked)
};

/// Runs one query against a database (Execute or ExecuteSql).
using QueryRunner =
    std::function<Result<QueryResult>(Database*, const ExecuteOptions&)>;

/// Build the canonical two-table database at `exec_threads` and run the
/// query once from a cold cache, capturing rows + meter deltas.
RunOutcome RunQueryAtThreads(size_t exec_threads, const QueryRunner& run,
                             size_t rows_r, size_t rows_s, uint64_t seed,
                             size_t pool_pages,
                             bool explain_analyze = false) {
  std::unique_ptr<Database> db(testutil::MakeTwoTableDb(
      rows_r, rows_s, seed, pool_pages, exec_threads));
  EXPECT_TRUE(db->ColdStart().ok());
  const CostMeter& meter = db->meter();
  uint64_t r0 = meter.blocks_read();
  uint64_t w0 = meter.blocks_written();
  uint64_t t0 = meter.tuples_processed();

  ExecuteOptions options;
  options.keep_rows = true;
  options.explain_analyze = explain_analyze;
  auto result = run(db.get(), options);

  RunOutcome out;
  out.code = result.status().code();
  out.status_message = result.status().ToString();
  out.blocks_read = meter.blocks_read() - r0;
  out.blocks_written = meter.blocks_written() - w0;
  out.tuples = meter.tuples_processed() - t0;
  if (result.ok()) {
    out.rows = std::move(result->rows);
    out.row_count = result->row_count;
    out.seconds = result->seconds;
    if (result->profile != nullptr) {
      out.profile_text = result->profile->FormatText();
    }
  }
  return out;
}

RunOutcome RunAtThreads(size_t exec_threads, const QueryGraph& graph,
                        size_t rows_r, size_t rows_s, uint64_t seed,
                        size_t pool_pages, bool explain_analyze = false) {
  return RunQueryAtThreads(
      exec_threads,
      [&graph](Database* db, const ExecuteOptions& options) {
        return db->Execute(graph, options);
      },
      rows_r, rows_s, seed, pool_pages, explain_analyze);
}

void ExpectIdentical(const RunOutcome& base, const RunOutcome& other,
                     size_t threads) {
  SCOPED_TRACE("exec_threads " + std::to_string(threads));
  ASSERT_EQ(base.code, other.code)
      << "seq: " << base.status_message << " par: " << other.status_message;
  ASSERT_EQ(base.rows.size(), other.rows.size());
  for (size_t i = 0; i < base.rows.size(); i++) {
    ASSERT_EQ(base.rows[i], other.rows[i]) << "row " << i;
  }
  EXPECT_EQ(base.row_count, other.row_count);
  EXPECT_EQ(base.seconds, other.seconds) << "simulated time diverged";
  EXPECT_EQ(base.tuples, other.tuples) << "CPU charge diverged";
  EXPECT_EQ(base.blocks_read, other.blocks_read) << "read charge diverged";
  EXPECT_EQ(base.blocks_written, other.blocks_written)
      << "write charge diverged";
  EXPECT_EQ(base.profile_text, other.profile_text)
      << "EXPLAIN ANALYZE diverged";
}

/// Randomized scans/joins: rows and every CostMeter total must match
/// the sequential engine at 2, 4, and 8 threads.
TEST(ExecParallelDifferentialTest, RandomizedScansAndJoins) {
  Rng rng(0x5eed5eed);
  for (int round = 0; round < 6; round++) {
    SCOPED_TRACE("round " + std::to_string(round));
    size_t rows_r = 200 + static_cast<size_t>(rng.NextRange(2000));
    size_t rows_s = 200 + static_cast<size_t>(rng.NextRange(4000));
    uint64_t seed = static_cast<uint64_t>(round) + 31;

    QueryGraph graph;
    graph.AddRelation("r");
    if (rng.NextDouble(0, 1) < 0.8) {
      CompareOp op =
          rng.NextDouble(0, 1) < 0.5 ? CompareOp::kLt : CompareOp::kGe;
      graph.AddSelection(Sel("r", "r_a", op, Value(rng.NextInt(0, 99))));
    }
    if (rng.NextDouble(0, 1) < 0.5) {
      // Range pair: exercises the fused BETWEEN term on worker morsels.
      graph.AddSelection(
          Sel("r", "r_a", CompareOp::kGt, Value(rng.NextInt(0, 40))));
      graph.AddSelection(
          Sel("r", "r_a", CompareOp::kLt, Value(rng.NextInt(50, 99))));
    }
    if (rng.NextDouble(0, 1) < 0.7) {
      graph.AddJoin(testutil::RsJoin());
      if (rng.NextDouble(0, 1) < 0.5) {
        graph.AddSelection(
            Sel("s", "s_c", CompareOp::kLt, Value(rng.NextInt(1, 49))));
      }
    }

    RunOutcome base = RunAtThreads(1, graph, rows_r, rows_s, seed, 256);
    for (size_t threads : kThreadCounts) {
      if (threads == 1) continue;
      ExpectIdentical(
          base, RunAtThreads(threads, graph, rows_r, rows_s, seed, 256),
          threads);
    }
  }
}

/// LIMIT over a join (DESIGN.md §10): LIMIT pulls its child one row per
/// batch, and those pulls reach the parallel scan and the fused probe.
/// The rows kept and every charge of the partial child drain must match
/// the sequential engine, with and without EXPLAIN ANALYZE wrappers.
TEST(ExecParallelDifferentialTest, LimitOverJoinIdentical) {
  const struct {
    const char* sql;
    uint64_t rows;
    bool explain_analyze;
  } cases[] = {
      {"SELECT * FROM r, s WHERE r_id = s_rid LIMIT 37", 37, false},
      {"SELECT * FROM r, s WHERE r_id = s_rid LIMIT 37", 37, true},
      {"SELECT r_s, s_c FROM r, s WHERE r_id = s_rid AND s_c < 20 "
       "LIMIT 700",
       700, false},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.sql);
    QueryRunner run = [&c](Database* db, const ExecuteOptions& options) {
      return db->ExecuteSql(c.sql, options);
    };
    RunOutcome base =
        RunQueryAtThreads(1, run, 1500, 4500, 29, 256, c.explain_analyze);
    ASSERT_EQ(base.code, StatusCode::kOk) << base.status_message;
    ASSERT_EQ(base.row_count, c.rows);
    for (size_t threads : kThreadCounts) {
      if (threads == 1) continue;
      ExpectIdentical(base,
                      RunQueryAtThreads(threads, run, 1500, 4500, 29, 256,
                                        c.explain_analyze),
                      threads);
    }
  }
}

/// EXPLAIN ANALYZE actuals (per-operator rows, batches, pages, charges)
/// render byte-identically at every thread count.
TEST(ExecParallelDifferentialTest, ExplainAnalyzeByteIdentical) {
  QueryGraph graph;
  graph.AddJoin(testutil::RsJoin());
  graph.AddSelection(
      Sel("r", "r_a", CompareOp::kGe, Value(static_cast<int64_t>(10))));
  graph.AddSelection(
      Sel("s", "s_c", CompareOp::kLt, Value(static_cast<int64_t>(40))));

  RunOutcome base =
      RunAtThreads(1, graph, 1500, 4500, 17, 256, /*explain_analyze=*/true);
  ASSERT_FALSE(base.profile_text.empty());
  for (size_t threads : kThreadCounts) {
    if (threads == 1) continue;
    ExpectIdentical(base,
                    RunAtThreads(threads, graph, 1500, 4500, 17, 256,
                                 /*explain_analyze=*/true),
                    threads);
  }
}

/// Edge shapes: empty table, single row, and a predicate nothing
/// survives — the parallel window must handle empty/short morsel runs.
TEST(ExecParallelDifferentialTest, EdgeShapes) {
  struct Shape {
    const char* name;
    size_t rows_r;
    size_t rows_s;
    bool join;
    bool filter_all;
  };
  const Shape shapes[] = {
      {"empty", 0, 0, false, false},
      {"single", 1, 1, true, false},
      {"all_filtered", 1500, 100, false, true},
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    QueryGraph graph;
    graph.AddRelation("r");
    if (shape.join) graph.AddJoin(testutil::RsJoin());
    if (shape.filter_all) {
      graph.AddSelection(
          Sel("r", "r_a", CompareOp::kLt, Value(static_cast<int64_t>(-1))));
    }
    RunOutcome base =
        RunAtThreads(1, graph, shape.rows_r, shape.rows_s, 23, 256);
    for (size_t threads : kThreadCounts) {
      if (threads == 1) continue;
      ExpectIdentical(
          base,
          RunAtThreads(threads, graph, shape.rows_r, shape.rows_s, 23, 256),
          threads);
    }
  }
}

/// Under a deterministic fault schedule every thread count must fail at
/// the same point with the same status and the same charges: workers
/// never fetch pages, so the disk.read schedule advances exactly as in
/// the sequential engine. Seeded from SQP_CHAOS_SEED like the sweeps.
TEST(ExecParallelDifferentialTest, FaultScheduleBitIdentical) {
  uint64_t base_seed = 1;
  if (const char* env = std::getenv("SQP_CHAOS_SEED")) {
    base_seed = static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
  }
  QueryGraph graph;
  graph.AddJoin(testutil::RsJoin());
  graph.AddSelection(
      Sel("r", "r_a", CompareOp::kGe, Value(static_cast<int64_t>(10))));

  Rng rng(base_seed);
  for (int round = 0; round < 4; round++) {
    SCOPED_TRACE("fault round " + std::to_string(round));
    uint64_t nth = 5 + rng.NextRange(120);

    // Small pool: the scan cannot cache the tables, so "disk.read"
    // fires on real fetches in every run.
    FaultInjector::Global().Reset();
    FaultInjector::Global().Arm("disk.read", FaultSpec::EveryNth(nth));
    RunOutcome base = RunAtThreads(1, graph, 3000, 6000, 5, 32);

    for (size_t threads : kThreadCounts) {
      if (threads == 1) continue;
      FaultInjector::Global().Reset();
      FaultInjector::Global().Arm("disk.read", FaultSpec::EveryNth(nth));
      ExpectIdentical(base, RunAtThreads(threads, graph, 3000, 6000, 5, 32),
                      threads);
    }
    FaultInjector::Global().Reset();
  }
}

/// Speculative materialization (background-priority morsels) produces
/// the same table row count and the same simulated cost at every
/// thread count.
TEST(ExecParallelDifferentialTest, MaterializationIdentical) {
  QueryGraph def;
  def.AddRelation("r");
  def.AddSelection(
      Sel("r", "r_a", CompareOp::kLt, Value(static_cast<int64_t>(60))));

  uint64_t base_rows = 0;
  double base_seconds = -1;
  for (size_t threads : kThreadCounts) {
    SCOPED_TRACE("exec_threads " + std::to_string(threads));
    std::unique_ptr<Database> db(
        testutil::MakeTwoTableDb(2500, 100, 13, 256, threads));
    ASSERT_TRUE(db->ColdStart().ok());
    auto result = db->Materialize(def, "mv_par", /*register_view=*/false);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (threads == 1) {
      base_rows = result->row_count;
      base_seconds = result->seconds;
      EXPECT_GT(base_rows, 0u);
    } else {
      EXPECT_EQ(result->row_count, base_rows);
      EXPECT_EQ(result->seconds, base_seconds) << "materialize cost diverged";
    }
  }
}

/// The timeline-series dump (DESIGN.md §16) is part of the parallel
/// determinism contract: a speculative replay of the same trace at
/// exec_threads 1/2/4/8 yields a byte-identical dump. The sampler ticks
/// on the simulated clock (never wall time) and the deterministic
/// filter excludes the `scheduler.*` / `*.parallel.*` families, so
/// every remaining series is a pure function of the replay seed.
TEST(ExecParallelDifferentialTest, TimelineSeriesByteIdentical) {
  Trace trace;
  trace.user_id = 3;
  auto event = [&](double t, TraceEventType type) {
    TraceEvent e;
    e.timestamp = t;
    e.type = type;
    return e;
  };
  TraceEvent sel = event(1, TraceEventType::kAddSelection);
  sel.selection = Sel("r", "r_a", CompareOp::kLt, Value(int64_t{20}));
  TraceEvent join = event(2, TraceEventType::kAddJoin);
  join.join = testutil::RsJoin();
  TraceEvent sel2 = event(40, TraceEventType::kAddSelection);
  sel2.selection = Sel("s", "s_c", CompareOp::kLt, Value(int64_t{10}));
  trace.events = {sel, join, event(31, TraceEventType::kGo), sel2,
                  event(70, TraceEventType::kGo)};

  auto replay_csv = [&](size_t threads, std::string* csv) {
    // Cumulative values must start from the same baseline each run;
    // registrations survive the reset, so series sets align too (the
    // warm-up run below registers the lazy families).
    MetricsRegistry::Global().ResetAll();
    std::unique_ptr<Database> db(
        testutil::MakeTwoTableDb(1200, 3600, 11, 128, threads));
    MetricsTimeline timeline;
    ReplayOptions options;
    options.speculation = true;
    options.timeline = &timeline;
    auto result = TraceReplayer(db.get(), options).Replay(trace);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(timeline.tick_count(), 10u);
    *csv = timeline.FormatCsv();
  };

  std::string warmup;
  replay_csv(1, &warmup);  // registers lazy families (learner, q-error)
  std::string base;
  replay_csv(1, &base);
  ASSERT_FALSE(base.empty());
  EXPECT_NE(base.find("bufferpool.hits"), std::string::npos);
  EXPECT_NE(base.find("attr.query.blocks"), std::string::npos);
  for (size_t threads : kThreadCounts) {
    if (threads == 1) continue;
    SCOPED_TRACE("exec_threads " + std::to_string(threads));
    std::string csv;
    replay_csv(threads, &csv);
    EXPECT_EQ(csv, base) << "timeline series diverged from sequential";
  }
}

/// The scheduler and morsel counters register and advance when a worker
/// pool exists; morsel counts are deterministic (foreground-dispatched),
/// so two identical runs bump them identically.
TEST(ExecParallelMetricsTest, CountersAdvance) {
  QueryGraph graph;
  graph.AddJoin(testutil::RsJoin());

  auto before = MetricsRegistry::Global().Snapshot();
  std::unique_ptr<Database> db(
      testutil::MakeTwoTableDb(2100, 4200, 7, 256, /*exec_threads=*/4));
  ExecuteOptions options;
  auto result = db->Execute(graph, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto after = MetricsRegistry::Global().Snapshot();

  EXPECT_EQ(after.gauges.at("scheduler.workers"), 3.0);
  EXPECT_GT(after.counter("exec.parallel.morsels"),
            before.counter("exec.parallel.morsels"));
  // Fallbacks only happen on peek failures; none under healthy storage.
  EXPECT_EQ(after.counter("exec.parallel.fallbacks"),
            before.counter("exec.parallel.fallbacks"));
}

}  // namespace
}  // namespace sqp
