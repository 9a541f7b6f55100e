// Replayers: normal vs speculative replays of hand-crafted traces on
// the two-table database, plus multi-user contention behaviour.
#include "harness/replayer.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/metrics_registry.h"
#include "common/metrics_timeline.h"
#include "test_util.h"

namespace sqp {
namespace {

using testutil::Join;
using testutil::RsJoin;
using testutil::Sel;

TraceEvent SelAdd(double t, SelectionPred s) {
  TraceEvent e;
  e.timestamp = t;
  e.type = TraceEventType::kAddSelection;
  e.selection = std::move(s);
  return e;
}

TraceEvent JoinAdd(double t, JoinPred j) {
  TraceEvent e;
  e.timestamp = t;
  e.type = TraceEventType::kAddJoin;
  e.join = std::move(j);
  return e;
}

TraceEvent Go(double t) {
  TraceEvent e;
  e.timestamp = t;
  e.type = TraceEventType::kGo;
  return e;
}

/// A session with plenty of think time: a selective predicate is placed,
/// the user thinks 30 s, GO; then the same query is re-run twice.
Trace ThinkyTrace() {
  Trace trace;
  auto sel = Sel("r", "r_a", CompareOp::kLt, Value(int64_t{5}));
  trace.events = {SelAdd(1, sel),  JoinAdd(2, RsJoin()), Go(31),
                  SelAdd(40, Sel("s", "s_c", CompareOp::kLt,
                                 Value(int64_t{10}))),
                  Go(70), Go(100)};
  // A trailing GO without edits is not generated by the user model but
  // exercises the replayer's re-run path.
  return trace;
}

class ReplayerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_.reset(testutil::MakeTwoTableDb(3000, 9000, /*seed=*/5,
                                       /*pool_pages=*/64));
  }
  std::unique_ptr<Database> db_;
};

TEST_F(ReplayerTest, NormalReplayExecutesEveryQuery) {
  ReplayOptions options;
  options.speculation = false;
  TraceReplayer replayer(db_.get(), options);
  auto result = replayer.Replay(ThinkyTrace());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->queries.size(), 3u);
  for (const auto& q : result->queries) EXPECT_GT(q.seconds, 0);
  EXPECT_EQ(result->engine_stats.manipulations_issued, 0u);
}

TEST_F(ReplayerTest, SpeculativeReplayBeatsNormal) {
  Trace trace = ThinkyTrace();
  ReplayOptions normal_opts;
  normal_opts.speculation = false;
  auto normal = TraceReplayer(db_.get(), normal_opts).Replay(trace);
  ASSERT_TRUE(normal.ok());

  ReplayOptions spec_opts;
  spec_opts.speculation = true;
  auto spec = TraceReplayer(db_.get(), spec_opts).Replay(trace);
  ASSERT_TRUE(spec.ok());

  ASSERT_EQ(normal->queries.size(), spec->queries.size());
  EXPECT_GT(spec->engine_stats.manipulations_issued, 0u);
  EXPECT_GT(spec->engine_stats.manipulations_completed, 0u);
  EXPECT_LT(spec->total_exec_seconds, normal->total_exec_seconds);
}

TEST_F(ReplayerTest, ReplayLeavesDatabaseClean) {
  auto tables_before = db_->catalog().TableNames().size();
  ReplayOptions options;
  options.speculation = true;
  auto result = TraceReplayer(db_.get(), options).Replay(ThinkyTrace());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(db_->catalog().TableNames().size(), tables_before);
  EXPECT_EQ(db_->views().size(), 0u);
}

TEST_F(ReplayerTest, ReplayIsDeterministic) {
  Trace trace = ThinkyTrace();
  std::vector<ReplayResult> runs;
  std::vector<std::string> dumps;
  for (int run = 0; run < 3; run++) {
    // Every run samples from a zeroed registry, so cumulative values
    // align, not just deltas.
    MetricsRegistry::Global().ResetAll();
    MetricsTimeline timeline;
    ReplayOptions options;
    options.speculation = true;
    options.timeline = &timeline;
    auto result = TraceReplayer(db_.get(), options).Replay(trace);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(timeline.tick_count(), 10u);
    runs.push_back(std::move(*result));
    dumps.push_back(timeline.FormatCsv());
  }
  for (size_t run = 1; run < runs.size(); run++) {
    ASSERT_EQ(runs[0].queries.size(), runs[run].queries.size());
    for (size_t i = 0; i < runs[0].queries.size(); i++) {
      EXPECT_NEAR(runs[0].queries[i].seconds, runs[run].queries[i].seconds,
                  1e-9)
          << "run " << run << " query " << i;
    }
  }
  // The timeline dump (DESIGN.md §16) is byte-identical as well, the
  // execution-shape counters included. Run 0 registers the lazily
  // created families, so the differential is runs 1 and 2.
  EXPECT_NE(dumps[1].find("bufferpool.hits"), std::string::npos);
  EXPECT_NE(dumps[1].find("attr.query.blocks"), std::string::npos);
  EXPECT_NE(dumps[1].find("exec.batch.rows"), std::string::npos);
  EXPECT_EQ(dumps[1], dumps[2]);
}

TEST_F(ReplayerTest, ExecutionDelaysShiftLaterEvents) {
  ReplayOptions options;
  options.speculation = false;
  auto result = TraceReplayer(db_.get(), options).Replay(ThinkyTrace());
  ASSERT_TRUE(result.ok());
  // Session end = last GO think-time (100) + total execution time.
  EXPECT_NEAR(result->session_end_time,
              100.0 + result->total_exec_seconds, 1e-6);
  // GO times are strictly increasing and shifted by prior executions.
  EXPECT_GT(result->queries[1].go_sim_time,
            70.0 + result->queries[0].seconds - 1e-9);
}

/// Pins Replay(trace) to the one-session group Replay({trace}): the
/// same loop must produce the same bits either way.
void ExpectBitIdentical(const ReplayResult& single,
                        const GroupReplayResult& group) {
  ASSERT_EQ(group.per_user.size(), 1u);
  const auto& queries = group.per_user[0];
  ASSERT_EQ(single.queries.size(), queries.size());
  for (size_t i = 0; i < queries.size(); i++) {
    EXPECT_EQ(single.queries[i].seconds, queries[i].seconds) << i;
    EXPECT_EQ(single.queries[i].go_sim_time, queries[i].go_sim_time) << i;
    EXPECT_EQ(single.queries[i].row_count, queries[i].row_count) << i;
    EXPECT_EQ(single.queries[i].views_used.size(),
              queries[i].views_used.size())
        << i;
  }
  EXPECT_EQ(single.session_end_time, group.session_end_time);

  const OverlapStats& a = single.overlap;
  const OverlapStats& b = group.overlap[0];
  EXPECT_EQ(a.executed_seconds, b.executed_seconds);
  EXPECT_EQ(a.hidden_seconds, b.hidden_seconds);
  EXPECT_EQ(a.wasted_seconds, b.wasted_seconds);
  EXPECT_EQ(a.think_seconds, b.think_seconds);
  EXPECT_EQ(a.overlap_fraction, b.overlap_fraction);
  EXPECT_EQ(a.wasted_ratio, b.wasted_ratio);
  EXPECT_EQ(a.think_utilization, b.think_utilization);

  const EngineStats& x = single.engine_stats;
  const EngineStats& y = group.engine_stats[0];
  EXPECT_EQ(x.manipulations_issued, y.manipulations_issued);
  EXPECT_EQ(x.manipulations_completed, y.manipulations_completed);
  EXPECT_EQ(x.cancelled_by_edit, y.cancelled_by_edit);
  EXPECT_EQ(x.cancelled_at_go, y.cancelled_at_go);
  EXPECT_EQ(x.abandoned_at_completion, y.abandoned_at_completion);
  EXPECT_EQ(x.predictions_scored, y.predictions_scored);
  EXPECT_EQ(x.brier_sum, y.brier_sum);
  EXPECT_EQ(x.total_manipulation_work, y.total_manipulation_work);
  EXPECT_EQ(x.wasted_manipulation_work, y.wasted_manipulation_work);
  EXPECT_EQ(x.completed_durations, y.completed_durations);
  EXPECT_EQ(single.decisions.size(), group.decisions[0].size());
  EXPECT_EQ(single.calibration.scored, group.calibration[0].scored);
  EXPECT_EQ(single.calibration.brier_sum, group.calibration[0].brier_sum);
  EXPECT_EQ(single.calibration.bucket_counts,
            group.calibration[0].bucket_counts);
}

TEST_F(ReplayerTest, SingleTraceEqualsOneSessionGroup) {
  // Simulated durations are differences of the cumulative CostMeter, so
  // each replay gets its own freshly built database.
  auto fresh_db = [] {
    return std::unique_ptr<Database>(testutil::MakeTwoTableDb(
        3000, 9000, /*seed=*/5, /*pool_pages=*/64));
  };
  Trace trace = ThinkyTrace();
  trace.user_id = 7;
  // Pretraining history: other users' sessions plus one of this user's,
  // which leave-one-out skips.
  std::vector<Trace> history;
  for (uint64_t id : {1, 2, 7}) {
    Trace other = ThinkyTrace();
    other.user_id = id;
    history.push_back(std::move(other));
  }

  struct Case {
    const char* name;
    bool speculation;
    const std::vector<Trace>* pretrain;
  };
  for (const Case& c : {Case{"speculative", true, nullptr},
                        Case{"normal", false, nullptr},
                        Case{"pretrained", true, &history}}) {
    SCOPED_TRACE(c.name);
    ReplayOptions options;
    options.speculation = c.speculation;
    options.pretrain_traces = c.pretrain;
    auto db_single = fresh_db();
    auto single = TraceReplayer(db_single.get(), options).Replay(trace);
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    auto db_group = fresh_db();
    auto group = TraceReplayer(db_group.get(), options)
                     .Replay(std::vector<Trace>{trace});
    ASSERT_TRUE(group.ok()) << group.status().ToString();
    ExpectBitIdentical(*single, *group);
    if (c.speculation) {
      EXPECT_GT(single->engine_stats.manipulations_issued, 0u);
      EXPECT_GT(single->engine_stats.predictions_scored, 0u);
    }
  }
}

TEST_F(ReplayerTest, WaitPolicyDelaysGoInOneSessionReplay) {
  // Time the selection's materialization with a GO long after it, then
  // replay with the GO just before it completes: under the §7 wait
  // policy the query waits for the view, and the wait counts as part of
  // the user-perceived response time.
  auto sel = Sel("r", "r_a", CompareOp::kLt, Value(int64_t{5}));
  Trace trace;
  trace.events = {SelAdd(1, sel), Go(100)};
  auto timed = TraceReplayer(db_.get(), ReplayOptions{}).Replay(trace);
  ASSERT_TRUE(timed.ok()) << timed.status().ToString();
  ASSERT_EQ(timed->engine_stats.completed_durations.size(), 1u);
  double materialize = timed->engine_stats.completed_durations[0];

  trace.events[1].timestamp = 1 + materialize - 0.05;
  ReplayOptions options;
  options.engine.go_policy = GoPolicy::kWaitIfWorthwhile;
  auto result = TraceReplayer(db_.get(), options).Replay(trace);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->engine_stats.waits_at_go, 1u);
  EXPECT_EQ(result->engine_stats.manipulations_completed, 1u);
  ASSERT_EQ(result->queries.size(), 1u);
  EXPECT_EQ(result->queries[0].views_used.size(), 1u);
  EXPECT_GT(result->queries[0].seconds,
            result->engine_stats.total_wait_seconds);
}

// ------------------------------------------------------------ multi-user

TEST_F(ReplayerTest, MultiSessionReplayRejectsWaitPolicy) {
  // Waiting at GO would move the shared clock past the other session's
  // events; the replay refuses instead of silently changing the policy.
  std::vector<Trace> group;
  for (int u = 0; u < 2; u++) {
    Trace t = ThinkyTrace();
    t.user_id = u;
    group.push_back(std::move(t));
  }
  ReplayOptions options;
  options.engine.go_policy = GoPolicy::kWaitIfWorthwhile;
  auto result = TraceReplayer(db_.get(), options).Replay(group);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(db_->views().size(), 0u);
}

TEST_F(ReplayerTest, MultiSessionReplayRejectsRepeatedUserIds) {
  // A session's lane, attribution row and table prefix derive from its
  // user id, so two sessions of one user would share them.
  ReplayOptions options;
  auto result = TraceReplayer(db_.get(), options)
                    .Replay(std::vector<Trace>{ThinkyTrace(), ThinkyTrace()});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}


TEST_F(ReplayerTest, MultiUserContentionStretchesQueries) {
  // Cache-neutral setup: a pool big enough for the whole dataset, a
  // warm-up replay, and no cold starts — so the only difference between
  // single-user and multi-user runs is server contention.
  std::unique_ptr<Database> db(
      testutil::MakeTwoTableDb(3000, 9000, /*seed=*/5, /*pool_pages=*/512));
  std::vector<Trace> group;
  for (int u = 0; u < 3; u++) {
    Trace t = ThinkyTrace();
    t.user_id = u;
    group.push_back(std::move(t));
  }

  ReplayOptions single_opts;
  single_opts.speculation = false;
  single_opts.cold_start = false;
  (void)TraceReplayer(db.get(), single_opts).Replay(group[0]);  // warm up
  auto single = TraceReplayer(db.get(), single_opts).Replay(group[0]);
  ASSERT_TRUE(single.ok());
  double single_total = single->total_exec_seconds;

  ReplayOptions options;
  options.speculation = false;
  options.cold_start = false;
  auto multi = TraceReplayer(db.get(), options).Replay(group);
  ASSERT_TRUE(multi.ok());
  ASSERT_EQ(multi->per_user.size(), 3u);

  // Identical users issue identical queries at identical think times:
  // they collide on the server and each query stretches.
  for (const auto& user : multi->per_user) {
    ASSERT_EQ(user.size(), 3u);
    double user_total = 0;
    for (const auto& q : user) user_total += q.seconds;
    EXPECT_GT(user_total, single_total * 1.5);
  }
}

TEST_F(ReplayerTest, MultiUserSpeculativeRunsComplete) {
  std::vector<Trace> group;
  for (int u = 0; u < 2; u++) {
    Trace t = ThinkyTrace();
    t.user_id = u;
    group.push_back(std::move(t));
  }
  ReplayOptions options;
  options.speculation = true;
  options.engine.speculator.space.join_materializations = false;  // §6.3
  auto result = TraceReplayer(db_.get(), options).Replay(group);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->engine_stats.size(), 2u);
  EXPECT_EQ(db_->views().size(), 0u);  // cleaned up
  auto flat = result->Flatten();
  EXPECT_EQ(flat.size(), 6u);
}

TEST_F(ReplayerTest, MultiUserHandlesEmptyGroup) {
  ReplayOptions options;
  auto result = TraceReplayer(db_.get(), options).Replay(std::vector<Trace>{});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->per_user.empty());
}

}  // namespace
}  // namespace sqp
