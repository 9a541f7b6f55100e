// Multi-user replay invariants: determinism, causality, completeness,
// and cross-user sharing semantics.
#include <gtest/gtest.h>

#include <memory>

#include "harness/replayer.h"
#include "test_util.h"
#include "trace/trace_generator.h"

namespace sqp {
namespace {

using testutil::Join;
using testutil::RsJoin;
using testutil::Sel;

std::vector<Trace> SmallGroup(size_t n, uint64_t seed) {
  // Generated traces reference TPC-H tables; build two-table traces by
  // hand instead so the cheap test database suffices.
  std::vector<Trace> group;
  Rng rng(seed);
  for (size_t u = 0; u < n; u++) {
    Trace trace;
    trace.user_id = u;
    double t = rng.NextDouble(0, 3);
    for (int q = 0; q < 4; q++) {
      TraceEvent add;
      add.type = TraceEventType::kAddSelection;
      add.selection =
          Sel("r", "r_a", CompareOp::kLt, Value(rng.NextInt(5, 90)));
      add.timestamp = t;
      trace.events.push_back(add);
      bool with_join = rng.NextBool(0.5);
      if (with_join) {
        TraceEvent join;
        join.type = TraceEventType::kAddJoin;
        join.join = RsJoin();
        join.timestamp = t + 1;
        trace.events.push_back(join);
      }
      t += rng.NextDouble(4, 25);
      TraceEvent go;
      go.type = TraceEventType::kGo;
      go.timestamp = t;
      trace.events.push_back(go);
      // Clear the canvas for the next query.
      TraceEvent del = add;
      del.type = TraceEventType::kRemoveSelection;
      del.timestamp = t + 0.5;
      trace.events.push_back(del);
      if (with_join) {
        TraceEvent deljoin;
        deljoin.type = TraceEventType::kRemoveJoin;
        deljoin.join = RsJoin();
        deljoin.timestamp = t + 0.6;
        trace.events.push_back(deljoin);
      }
      t += rng.NextDouble(1, 5);
    }
    group.push_back(std::move(trace));
  }
  return group;
}

class MultiUserInvariants : public ::testing::Test {
 protected:
  void SetUp() override {
    db_.reset(testutil::MakeTwoTableDb(2000, 6000, 11, 128));
  }
  std::unique_ptr<Database> db_;
};

TEST_F(MultiUserInvariants, DeterministicAcrossRuns) {
  auto group = SmallGroup(3, 5);
  ReplayOptions options;
  options.speculation = true;
  auto a = TraceReplayer(db_.get(), options).Replay(group);
  auto b = TraceReplayer(db_.get(), options).Replay(group);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->per_user.size(), b->per_user.size());
  for (size_t u = 0; u < a->per_user.size(); u++) {
    ASSERT_EQ(a->per_user[u].size(), b->per_user[u].size());
    for (size_t q = 0; q < a->per_user[u].size(); q++) {
      EXPECT_NEAR(a->per_user[u][q].seconds, b->per_user[u][q].seconds,
                  1e-9);
    }
  }
  EXPECT_NEAR(a->session_end_time, b->session_end_time, 1e-9);
}

TEST_F(MultiUserInvariants, EveryQueryExecutedOncePerUser) {
  auto group = SmallGroup(3, 7);
  ReplayOptions options;
  options.speculation = false;
  auto result = TraceReplayer(db_.get(), options).Replay(group);
  ASSERT_TRUE(result.ok());
  for (size_t u = 0; u < group.size(); u++) {
    EXPECT_EQ(result->per_user[u].size(), group[u].QueryCount());
  }
}

TEST_F(MultiUserInvariants, PerUserTimesAreCausal) {
  auto group = SmallGroup(3, 9);
  ReplayOptions options;
  options.speculation = true;
  auto result = TraceReplayer(db_.get(), options).Replay(group);
  ASSERT_TRUE(result.ok());
  for (const auto& user : result->per_user) {
    double prev_go = -1;
    for (const auto& q : user) {
      EXPECT_GT(q.go_sim_time, prev_go);
      EXPECT_GT(q.seconds, 0);
      prev_go = q.go_sim_time;
    }
  }
}

TEST_F(MultiUserInvariants, SpeculativeViewsSharedAcrossUsers) {
  // All three users pose the same query shape: once one user's
  // manipulation completes, others' final queries may be rewritten with
  // it (the paper's shared-database semantics).
  std::vector<Trace> group;
  for (int u = 0; u < 3; u++) {
    Trace trace;
    trace.user_id = u;
    TraceEvent add;
    add.type = TraceEventType::kAddSelection;
    add.selection = Sel("r", "r_a", CompareOp::kLt, Value(int64_t{5}));
    add.timestamp = 1.0 + u;  // staggered starts
    trace.events.push_back(add);
    TraceEvent go;
    go.type = TraceEventType::kGo;
    go.timestamp = 40.0 + u;
    trace.events.push_back(go);
    group.push_back(std::move(trace));
  }
  ReplayOptions options;
  options.speculation = true;
  auto result = TraceReplayer(db_.get(), options).Replay(group);
  ASSERT_TRUE(result.ok());
  size_t rewritten_users = 0;
  for (const auto& user : result->per_user) {
    ASSERT_EQ(user.size(), 1u);
    if (!user[0].views_used.empty()) rewritten_users++;
  }
  // At minimum the users whose manipulation completed get the rewrite;
  // typically all three (shared registry).
  EXPECT_GE(rewritten_users, 2u);
}

}  // namespace
}  // namespace sqp
