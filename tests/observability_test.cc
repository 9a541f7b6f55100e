// Observability layer (DESIGN.md §9): metrics registry semantics, span
// tracing, Chrome trace_event export validity, and the replay wiring
// that must show manipulation spans overlapping think time.
#include <algorithm>
#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "common/metrics_registry.h"
#include "common/tracing.h"
#include "harness/replayer.h"
#include "sim/sim_server.h"
#include "speculation/engine.h"
#include "test_util.h"
#include "trace/trace.h"

namespace sqp {
namespace {

using testutil::RsJoin;
using testutil::Sel;

// ---------------------------------------------------- MetricsRegistry

TEST(MetricsRegistryTest, CounterIncrementAndSnapshot) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("a.b.count");
  EXPECT_EQ(c->value(), 0u);
  c->Increment();
  c->Increment(4);
  EXPECT_EQ(c->value(), 5u);
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counter("a.b.count"), 5u);
  EXPECT_EQ(snap.counter("missing"), 0u);
}

TEST(MetricsRegistryTest, HandlesAreFindOrCreateAndPointerStable) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x");
  Counter* b = registry.GetCounter("x");
  EXPECT_EQ(a, b);
  registry.GetCounter("y");
  registry.GetGauge("g");
  EXPECT_EQ(registry.GetCounter("x"), a);  // stable across registrations
  EXPECT_EQ(registry.size(), 3u);
}

TEST(MetricsRegistryTest, GaugeHoldsLastValue) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("level");
  g->Set(2.5);
  g->Set(1.25);
  EXPECT_DOUBLE_EQ(g->value(), 1.25);
  EXPECT_DOUBLE_EQ(registry.Snapshot().gauges.at("level"), 1.25);
}

TEST(MetricsRegistryTest, HistogramBucketsAndOverflow) {
  MetricsRegistry registry;
  HistogramMetric* h = registry.GetHistogram("dur", {1.0, 10.0});
  h->Observe(0.5);   // bucket 0 (<= 1)
  h->Observe(1.0);   // bucket 0 (inclusive upper bound)
  h->Observe(5.0);   // bucket 1
  h->Observe(99.0);  // overflow
  EXPECT_EQ(h->count(), 4u);
  EXPECT_DOUBLE_EQ(h->sum(), 105.5);
  EXPECT_EQ(h->bucket_count(0), 2u);
  EXPECT_EQ(h->bucket_count(1), 1u);
  EXPECT_EQ(h->bucket_count(2), 1u);  // overflow bucket
  MetricsSnapshot snap = registry.Snapshot();
  const auto& entry = snap.histograms.at("dur");
  EXPECT_EQ(entry.counts, (std::vector<uint64_t>{2, 1, 1}));
  EXPECT_EQ(entry.bounds, (std::vector<double>{1.0, 10.0}));
}

TEST(MetricsRegistryTest, HistogramKeepsFirstLayout) {
  MetricsRegistry registry;
  HistogramMetric* h = registry.GetHistogram("dur", {1.0});
  EXPECT_EQ(registry.GetHistogram("dur", {5.0, 50.0}), h);
  EXPECT_EQ(h->bounds(), (std::vector<double>{1.0}));
}

TEST(MetricsRegistryTest, ResetZeroesValuesButKeepsHandles) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("c");
  Gauge* g = registry.GetGauge("g");
  HistogramMetric* h = registry.GetHistogram("h", {1.0});
  c->Increment(7);
  g->Set(3.0);
  h->Observe(0.5);
  registry.ResetAll();
  EXPECT_EQ(registry.size(), 3u);
  EXPECT_EQ(c->value(), 0u);
  EXPECT_DOUBLE_EQ(g->value(), 0.0);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_DOUBLE_EQ(h->sum(), 0.0);
  EXPECT_EQ(h->bucket_count(0), 0u);
  // Handles remain live after reset.
  c->Increment();
  EXPECT_EQ(registry.Snapshot().counter("c"), 1u);
}

TEST(MetricsRegistryTest, FormatListsEveryInstrument) {
  MetricsRegistry registry;
  registry.GetCounter("engine.manipulations_issued")->Increment(3);
  registry.GetGauge("pool.fill")->Set(0.5);
  registry.GetHistogram("lat", {1.0})->Observe(0.2);
  std::string text = registry.Snapshot().Format();
  EXPECT_NE(text.find("engine.manipulations_issued"), std::string::npos);
  EXPECT_NE(text.find("pool.fill"), std::string::npos);
  EXPECT_NE(text.find("lat"), std::string::npos);
}

TEST(MetricsRegistryTest, GlobalRegistrySeesSubsystemCounters) {
  MetricsRegistry::Global().ResetAll();
  {
    // A SimServer and a throwaway database exercise the storage and sim
    // counters (construction alone registers them; ops increment them).
    SimServer server;
    SimServer::JobId job = server.Submit(1.0);
    server.AdvanceTo(2.0);
    EXPECT_TRUE(server.IsComplete(job));
    server.Cancel(server.Submit(5.0));
  }
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.counter("sim.jobs_submitted"), 2u);
  EXPECT_EQ(snap.counter("sim.jobs_completed"), 1u);
  EXPECT_EQ(snap.counter("sim.jobs_cancelled"), 1u);
  MetricsRegistry::Global().ResetAll();
}

// -------------------------------------------------------------- Tracer

TEST(TracerTest, SpanOpenCloseNesting) {
  Tracer tracer;
  auto session = tracer.BeginSpan("session", "session", 0.0);
  auto inner = tracer.BeginSpan("materialize", "manipulation", 1.0);
  EXPECT_EQ(tracer.open_spans(), 2u);
  tracer.EndSpan(inner, 3.0, "completed");
  tracer.EndSpan(session, 10.0);
  EXPECT_EQ(tracer.open_spans(), 0u);
  ASSERT_EQ(tracer.records().size(), 2u);
  // Completion order: inner first.
  EXPECT_EQ(tracer.records()[0].name, "materialize");
  EXPECT_EQ(tracer.records()[0].status, "completed");
  EXPECT_DOUBLE_EQ(tracer.records()[0].duration(), 2.0);
  EXPECT_EQ(tracer.records()[1].name, "session");
  EXPECT_EQ(tracer.records()[1].status, "ok");
}

TEST(TracerTest, CancelStatusAndUnknownEndIgnored) {
  Tracer tracer;
  auto span = tracer.BeginSpan("m", "manipulation", 5.0);
  tracer.SpanArg(span, "type", "materialize_query");
  tracer.EndSpan(span, 6.5, "cancelled@edit");
  // Double-end and invalid ids are silently ignored.
  tracer.EndSpan(span, 9.0, "completed");
  tracer.EndSpan(Tracer::kInvalidSpan, 9.0);
  tracer.EndSpan(12345, 9.0);
  ASSERT_EQ(tracer.records().size(), 1u);
  EXPECT_EQ(tracer.records()[0].status, "cancelled@edit");
  ASSERT_EQ(tracer.records()[0].args.size(), 1u);
  EXPECT_EQ(tracer.records()[0].args[0].second, "materialize_query");
}

TEST(TracerTest, EndBeforeStartClamps) {
  Tracer tracer;
  auto span = tracer.BeginSpan("m", "manipulation", 5.0);
  tracer.EndSpan(span, 4.0);
  EXPECT_DOUBLE_EQ(tracer.records()[0].end, 5.0);
}

TEST(TracerTest, SinkObservesCompletions) {
  struct CountingSink : TraceSink {
    size_t seen = 0;
    void OnRecord(const SpanRecord&) override { seen++; }
  } sink;
  Tracer tracer;
  tracer.set_sink(&sink);
  auto span = tracer.BeginSpan("m", "manipulation", 0.0);
  EXPECT_EQ(sink.seen, 0u);  // open spans are not emitted
  tracer.EndSpan(span, 1.0);
  tracer.Instant("GO", "go", 2.0);
  EXPECT_EQ(sink.seen, 2u);
}

TEST(TracerTest, TimelineIndentsNestedSpans) {
  Tracer tracer;
  auto outer = tracer.BeginSpan("session", "session", 0.0, "user1");
  auto inner = tracer.BeginSpan("mat", "manipulation", 1.0, "user1");
  tracer.EndSpan(inner, 2.0, "completed");
  tracer.EndSpan(outer, 5.0);
  tracer.Instant("GO", "go", 3.0, "user1");
  std::string timeline = tracer.FormatTimeline();
  EXPECT_NE(timeline.find("session: session"), std::string::npos);
  EXPECT_NE(timeline.find("  manipulation: mat (completed)"),
            std::string::npos);
  EXPECT_NE(timeline.find("go: GO"), std::string::npos);
}

// ------------------------------------------- Chrome trace_event export

/// Minimal JSON syntax checker (no external deps): validates the value
/// grammar and returns the end position, or npos on error.
size_t ParseJsonValue(const std::string& s, size_t i);

size_t SkipWs(const std::string& s, size_t i) {
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) i++;
  return i;
}

size_t ParseJsonString(const std::string& s, size_t i) {
  if (i >= s.size() || s[i] != '"') return std::string::npos;
  for (i++; i < s.size(); i++) {
    if (s[i] == '\\') {
      i++;
      continue;
    }
    if (s[i] == '"') return i + 1;
  }
  return std::string::npos;
}

size_t ParseJsonValue(const std::string& s, size_t i) {
  i = SkipWs(s, i);
  if (i >= s.size()) return std::string::npos;
  if (s[i] == '"') return ParseJsonString(s, i);
  if (s[i] == '{' || s[i] == '[') {
    const char open = s[i], close = open == '{' ? '}' : ']';
    i = SkipWs(s, i + 1);
    if (i < s.size() && s[i] == close) return i + 1;
    for (;;) {
      if (open == '{') {
        i = ParseJsonString(s, SkipWs(s, i));
        if (i == std::string::npos) return i;
        i = SkipWs(s, i);
        if (i >= s.size() || s[i] != ':') return std::string::npos;
        i++;
      }
      i = ParseJsonValue(s, i);
      if (i == std::string::npos) return i;
      i = SkipWs(s, i);
      if (i >= s.size()) return std::string::npos;
      if (s[i] == close) return i + 1;
      if (s[i] != ',') return std::string::npos;
      i++;
    }
  }
  // number / true / false / null
  size_t start = i;
  while (i < s.size() && (std::isalnum(static_cast<unsigned char>(s[i])) ||
                          s[i] == '-' || s[i] == '+' || s[i] == '.')) {
    i++;
  }
  return i > start ? i : std::string::npos;
}

bool IsValidJson(const std::string& s) {
  size_t end = ParseJsonValue(s, 0);
  return end != std::string::npos && SkipWs(s, end) == s.size();
}

/// All values of an integer field ("ts":N / "dur":N) in emission order.
std::vector<long long> IntField(const std::string& json,
                                const std::string& field) {
  std::vector<long long> out;
  std::string needle = "\"" + field + "\":";
  for (size_t pos = json.find(needle); pos != std::string::npos;
       pos = json.find(needle, pos + 1)) {
    out.push_back(std::stoll(json.substr(pos + needle.size())));
  }
  return out;
}

TEST(ChromeTraceTest, ExportIsValidJsonWithMonotoneTimestamps) {
  Tracer tracer;
  auto session = tracer.BeginSpan("session", "session", 0.0, "user1");
  auto m1 = tracer.BeginSpan("mat \"quoted\"", "manipulation", 0.5, "user1");
  tracer.SpanArg(m1, "table", "spec_mv_0");
  tracer.EndSpan(m1, 2.0, "completed");
  tracer.Instant("GO", "go", 3.0, "user1");
  auto m2 = tracer.BeginSpan("idx", "manipulation", 3.5, "user2");
  tracer.EndSpan(m2, 4.0, "cancelled@go");
  tracer.EndSpan(session, 5.0);
  auto leaked = tracer.BeginSpan("open", "manipulation", 9.0);
  (void)leaked;  // never ended: must be omitted from the export

  std::string json = tracer.ExportChromeTrace();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_EQ(json.find("open"), std::string::npos);
  EXPECT_NE(json.find("mat \\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\"status\":\"cancelled@go\""), std::string::npos);
  // Lanes become named threads.
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("\"user2\""), std::string::npos);

  // ph:"X"/"i" timestamps are sorted monotonically, in microseconds.
  std::vector<long long> ts = IntField(json, "ts");
  EXPECT_TRUE(std::is_sorted(ts.begin(), ts.end()));
  ASSERT_FALSE(ts.empty());
  EXPECT_EQ(ts.back(), 3500000);  // m2 at 3.5 s -> 3500000 us
  for (long long d : IntField(json, "dur")) EXPECT_GE(d, 0);
}

TEST(ChromeTraceTest, EmptyTracerStillExportsValidJson) {
  Tracer tracer;
  EXPECT_TRUE(IsValidJson(tracer.ExportChromeTrace()));
}

TEST(ChromeTraceTest, JsonEscapeHandlesControlChars) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
}

// -------------------------------------------------- replay integration

TraceEvent SelAdd(SelectionPred s, double t) {
  TraceEvent e;
  e.type = TraceEventType::kAddSelection;
  e.selection = std::move(s);
  e.timestamp = t;
  return e;
}

TraceEvent JoinAdd(JoinPred j, double t) {
  TraceEvent e;
  e.type = TraceEventType::kAddJoin;
  e.join = std::move(j);
  e.timestamp = t;
  return e;
}

TraceEvent Go(double t) {
  TraceEvent e;
  e.type = TraceEventType::kGo;
  e.timestamp = t;
  return e;
}

/// Two-query session with generous think time, so a selection
/// materialization completes before each GO.
Trace ThinkyTrace() {
  Trace trace;
  trace.user_id = 3;
  trace.events = {
      SelAdd(Sel("r", "r_a", CompareOp::kLt, Value(int64_t{5})), 1.0),
      JoinAdd(RsJoin(), 2.0),
      Go(120.0),
      SelAdd(Sel("s", "s_c", CompareOp::kLt, Value(int64_t{10})), 130.0),
      Go(260.0),
  };
  return trace;
}

class ReplayTracingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global().Reset();
    db_.reset(testutil::MakeTwoTableDb(2000, 6000));
    ASSERT_TRUE(db_->ColdStart().ok());
  }
  void TearDown() override { FaultInjector::Global().Reset(); }

  std::unique_ptr<Database> db_;
};

TEST_F(ReplayTracingTest, ReplayEmitsSessionQueryAndManipulationSpans) {
  Tracer tracer;
  ReplayOptions opts;
  opts.speculation = true;
  opts.tracer = &tracer;
  auto result = TraceReplayer(db_.get(), opts).Replay(ThinkyTrace());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(result->engine_stats.manipulations_completed, 0u);
  EXPECT_EQ(tracer.open_spans(), 0u);

  const SpanRecord* session = nullptr;
  std::vector<const SpanRecord*> manipulations, queries;
  size_t edits = 0;
  for (const auto& r : tracer.records()) {
    if (r.category == "session") session = &r;
    if (r.category == "manipulation" && r.kind == SpanRecord::Kind::kSpan) {
      manipulations.push_back(&r);
    }
    if (r.category == "query") queries.push_back(&r);
    if (r.category == "edit") edits++;
    EXPECT_EQ(r.lane, "user3");
  }
  ASSERT_NE(session, nullptr);
  ASSERT_EQ(queries.size(), 2u);
  ASSERT_FALSE(manipulations.empty());
  EXPECT_EQ(edits, 3u);

  // The acceptance claim: a completed manipulation span sits entirely
  // inside think time — after an edit, finished before the GO's query.
  bool overlapped = false;
  for (const SpanRecord* m : manipulations) {
    if (m->status != "completed") continue;
    EXPECT_GT(m->duration(), 0.0);
    for (const SpanRecord* q : queries) {
      if (m->end <= q->start + 1e-9) overlapped = true;
    }
  }
  EXPECT_TRUE(overlapped);

  // Derived overlap story agrees with the spans.
  EXPECT_GT(result->overlap.hidden_seconds, 0.0);
  EXPECT_GT(result->overlap.overlap_fraction, 0.0);
  EXPECT_LE(result->overlap.wasted_ratio, 1.0);
  EXPECT_GT(result->overlap.think_seconds, 0.0);

  // And the whole thing exports as valid Chrome JSON.
  EXPECT_TRUE(IsValidJson(tracer.ExportChromeTrace()));
}

TEST_F(ReplayTracingTest, NormalReplayWithoutTracerRecordsNothing) {
  ReplayOptions opts;
  opts.speculation = false;
  auto result = TraceReplayer(db_.get(), opts).Replay(ThinkyTrace());
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->overlap.executed_seconds, 0.0);
}

TEST_F(ReplayTracingTest, ChaosRunEmitsRetryAndBreakerInstants) {
  // Every manipulation attempt fails with a permanent error: retries are
  // skipped, the circuit breaker opens after `threshold` failures.
  FaultSpec permanent = FaultSpec::EveryNth(1, StatusCode::kInternal);
  FaultInjector::Global().Arm("engine.manipulation", permanent);

  Tracer tracer;
  SimServer server;
  SpeculationEngineOptions options;
  options.tracer = &tracer;
  options.circuit_breaker_threshold = 2;
  SpeculationEngine engine(db_.get(), &server, options);
  double t = 0;
  for (int i = 0; i < 3; i++) {
    t += 10;
    ASSERT_TRUE(
        engine
            .OnUserEvent(SelAdd(Sel("r", "r_a", CompareOp::kLt,
                                    Value(int64_t{5 + i})),
                                t),
                         t)
            .ok());
  }
  ASSERT_GE(engine.stats().manipulations_failed, 2u);
  ASSERT_GE(engine.stats().speculation_suspended_events, 1u);
  ASSERT_TRUE(engine.Shutdown().ok());

  size_t failures = 0, breakers = 0;
  for (const auto& r : tracer.records()) {
    if (r.name == "manipulation failed") failures++;
    if (r.name == "circuit breaker open") breakers++;
  }
  EXPECT_GE(failures, 2u);
  EXPECT_GE(breakers, 1u);

  // Transient failures additionally schedule retries.
  FaultInjector::Global().Reset();
  FaultSpec transient = FaultSpec::OneShot(1);
  FaultInjector::Global().Arm("engine.manipulation", transient);
  Tracer retry_tracer;
  SpeculationEngineOptions retry_options;
  retry_options.tracer = &retry_tracer;
  SpeculationEngine retry_engine(db_.get(), &server, retry_options);
  ASSERT_TRUE(
      retry_engine
          .OnUserEvent(SelAdd(Sel("r", "r_a", CompareOp::kLt,
                                  Value(int64_t{7})),
                              t + 10),
                       t + 10)
          .ok());
  ASSERT_GE(retry_engine.stats().retries, 1u);
  ASSERT_TRUE(retry_engine.Shutdown().ok());
  bool retry_seen = false;
  for (const auto& r : retry_tracer.records()) {
    if (r.name == "retry scheduled") retry_seen = true;
  }
  EXPECT_TRUE(retry_seen);
}

}  // namespace
}  // namespace sqp
