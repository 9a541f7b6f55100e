// sqp_perfbench: the repository benchmark program.
//
// Replays generated user sessions through libsqp's public calls —
// SpeculationEngine::{PretrainLearner, OnUserEvent, OnGo, OnQueryResult,
// Shutdown}, Database::{ColdStart, Execute} and SimServer — mirroring
// TraceReplayer (single-user workloads) and MultiUserReplayer (groups of
// concurrent sessions), and times every call from outside the library.
// Load is closed-loop with one client: simulated think time never
// sleeps, so sessions replay back to back.
//
// One run = setup (BuildDatabase + BuildTraces, repeated; the median is
// setup_s), then timed passes over the workload's fixed session set
// while the mean pass still fits in --seconds (at least one pass), then
// the baseline replay outside the timed region: the paper's normal
// processing of the same sessions, which also checks every final query's
// rows. Every pass must reproduce the first pass's simulated results and
// deterministic registry counts bit for bit. With --trace 1 a second,
// traced set of passes records one span per call and yields the
// per-layer metrics; it must reproduce the untraced fingerprint too.
//
// Usage:
//   sqp_perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//                 [--sessions N] [--trace-out FILE]
// The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <malloc.h>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics_registry.h"
#include "harness/experiment.h"
#include "harness/metrics.h"
#include "harness/multi_user_replayer.h"
#include "harness/replayer.h"
#include "sim/sim_server.h"
#include "speculation/engine.h"
#include "trace/trace.h"

using namespace sqp;

namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// VmHWM of this process, in KiB.
long PeakRssKiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
  }
  return 0;
}

/// Restarts VmHWM from the current RSS (Linux clear_refs "5"), so the
/// next PeakRssKiB() is the peak since this call. Free heap memory is
/// returned to the kernel first; otherwise the RSS kept from the largest
/// earlier replay would set every later mark. Without kernel support the
/// mark stays the process peak.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

// ------------------------------------------------------------ workloads

struct WorkloadSpec {
  const char* name;
  /// Sessions replayed per pass (one trace each).
  size_t sessions;
  /// 1 = single-user replays; k > 1 = groups of k concurrent sessions
  /// on one shared SimServer (paper §6.3).
  size_t group_size;
  size_t buffer_pool_pages;
  size_t storage_nodes;
  size_t exec_threads;
  /// Restrict the manipulation space to selection materializations
  /// (the paper's multi-user configuration).
  bool selections_only;
};

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      // Full manipulation space, cold 180-page pool (~1/3 of the data).
      {"explore-spec", 8, 1, 180, 1, 1, false},
      // Fig7 configuration plus two storage nodes and two exec threads.
      {"multiuser-sharded", 9, 3, 540, 2, 2, true},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const auto& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

ExperimentConfig ConfigFor(const WorkloadSpec& w, uint64_t seed) {
  ExperimentConfig cfg;
  cfg.scale = tpch::Scale::kSmall;
  cfg.num_users = w.sessions;
  // The dataset is fixed (the paper's small TPC-H subset); the seed
  // drives the generated user sessions.
  cfg.data_seed = 42;
  cfg.trace_seed = seed;
  cfg.buffer_pool_pages = w.buffer_pool_pages;
  cfg.storage_nodes = w.storage_nodes;
  cfg.exec_threads = w.exec_threads;
  if (w.selections_only) {
    cfg.engine.speculator.space.join_materializations = false;
  }
  return cfg;
}

// ---------------------------------------------------------------- spans

/// One timed call (or session / group) recorded by the traced run.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint32_t session = 0;
};

/// In-memory span store; written out as Chrome trace JSON at the end.
class SpanLog {
 public:
  int32_t Begin(const char* name, int32_t parent, uint32_t session) {
    spans_.push_back(Span{name, NowNs(), 0, parent, session});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t id) { spans_[id].end_ns = NowNs(); }
  void Rename(int32_t id, const char* name) { spans_[id].name = name; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// --------------------------------------------------------------- passes

struct QueryOutcome {
  QueryGraph query;
  uint64_t rows = 0;
  /// User-perceived simulated response time, GO to result.
  double response_s = 0;
  /// Standalone simulated execution time (QueryResult::seconds).
  double standalone_s = 0;
  bool rewritten = false;
  double est_rows = 0;
  /// Session that issued the query, and the query's position among
  /// that session's final queries (aligns it with the baseline replay).
  size_t session = 0;
  size_t index = 0;
};

/// Everything one pass over the session set produced.
struct PassResult {
  double wall_s = 0;
  std::vector<QueryOutcome> queries;
  /// Execute calls that returned a non-OK Status.
  size_t failed = 0;
  // Per-call wall times (ns).
  std::vector<int64_t> exec_ns;
  std::vector<uint64_t> exec_rows;  // exec.batch.rows moved by each Execute
  std::vector<int64_t> plan_ns;     // traced passes only
  std::vector<int64_t> decide_ns;   // edits that issued nothing
  std::vector<int64_t> issue_ns;    // edits/results that issued
  std::vector<int64_t> cold_start_ns;
  /// Peak RSS (KiB) while replaying each session (single-user) or group.
  std::vector<long> replay_peak_kib;
  std::vector<EngineStats> engine_stats;
  std::vector<OverlapStats> overlap;
  /// Registry counter deltas across the pass.
  std::map<std::string, uint64_t> counters;
};

/// Counters whose values depend on thread timing (work stealing,
/// morsel peeks) rather than on the program's inputs.
bool TimingDependent(const std::string& name) {
  for (const char* prefix :
       {"scheduler.", "exec.parallel.", "spec.parallel."}) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

/// FNV-1a over the simulated results and deterministic counters.
class Fingerprint {
 public:
  void Add(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; i++) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void Add(uint64_t v) { Add(&v, sizeof(v)); }
  void Add(double v) { Add(&v, sizeof(v)); }
  void Add(const std::string& s) { Add(s.data(), s.size()); }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

uint64_t FingerprintOf(const PassResult& pass) {
  Fingerprint fp;
  for (const auto& q : pass.queries) {
    fp.Add(q.rows);
    fp.Add(q.response_s);
    fp.Add(q.standalone_s);
    fp.Add(static_cast<uint64_t>(q.rewritten));
    fp.Add(q.est_rows);
  }
  fp.Add(static_cast<uint64_t>(pass.failed));
  for (const auto& s : pass.engine_stats) {
    fp.Add(static_cast<uint64_t>(s.manipulations_issued));
    fp.Add(static_cast<uint64_t>(s.manipulations_completed));
    fp.Add(static_cast<uint64_t>(s.cancelled()));
    fp.Add(s.brier_sum);
    fp.Add(s.total_manipulation_work);
    fp.Add(s.wasted_manipulation_work);
  }
  for (const auto& [name, value] : pass.counters) {
    if (TimingDependent(name)) continue;
    fp.Add(name);
    fp.Add(value);
  }
  return fp.value();
}

/// Names the first simulated result or counter where two passes that
/// should be identical diverge (the determinism guard's error message).
std::string DescribeDifference(const PassResult& a, const PassResult& b) {
  if (a.queries.size() != b.queries.size()) {
    return "final query count " + std::to_string(a.queries.size()) + " vs " +
           std::to_string(b.queries.size());
  }
  for (size_t i = 0; i < a.queries.size(); i++) {
    const QueryOutcome& x = a.queries[i];
    const QueryOutcome& y = b.queries[i];
    if (x.rows != y.rows || x.response_s != y.response_s ||
        x.standalone_s != y.standalone_s || x.rewritten != y.rewritten ||
        x.est_rows != y.est_rows) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "final query %zu: rows %llu/%llu response %.17g/%.17g "
                    "standalone %.17g/%.17g",
                    i, static_cast<unsigned long long>(x.rows),
                    static_cast<unsigned long long>(y.rows), x.response_s,
                    y.response_s, x.standalone_s, y.standalone_s);
      return buf;
    }
  }
  std::map<std::string, uint64_t> all = a.counters;
  all.insert(b.counters.begin(), b.counters.end());
  for (const auto& [name, unused] : all) {
    if (TimingDependent(name)) continue;
    uint64_t va = a.counters.count(name) ? a.counters.at(name) : 0;
    uint64_t vb = b.counters.count(name) ? b.counters.at(name) : 0;
    if (va != vb) {
      return "counter " + name + " " + std::to_string(va) + " vs " +
             std::to_string(vb);
    }
  }
  return "engine statistics";
}

/// Replays the session set once, timing each library call.
class PassRunner {
 public:
  PassRunner(const WorkloadSpec& w, const ExperimentConfig& cfg,
             SpanLog* spans)
      : w_(w), cfg_(cfg), spans_(spans) {
    MetricsRegistry& registry = MetricsRegistry::Global();
    issued_ = registry.GetCounter("engine.manipulations_issued");
    batch_rows_ = registry.GetCounter("exec.batch.rows");
  }

  Result<PassResult> Run(Database* db, const std::vector<Trace>& traces,
                         const std::vector<std::vector<Trace>>& histories) {
    PassResult pass;
    db_ = db;
    out_ = &pass;
    MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
    // The pass wall time covers the session (group) replays only, not
    // the memory bookkeeping between them.
    int64_t wall_ns = 0;
    for (size_t start = 0; start < traces.size(); start += w_.group_size) {
      ResetPeakRss();
      int64_t t0 = NowNs();
      if (w_.group_size <= 1) {
        SQP_RETURN_IF_ERROR(
            ReplaySession(traces[start], &histories[start], start));
      } else {
        std::vector<Trace> group(traces.begin() + start,
                                 traces.begin() + start + w_.group_size);
        SQP_RETURN_IF_ERROR(ReplayGroup(group, start));
      }
      wall_ns += NowNs() - t0;
      pass.replay_peak_kib.push_back(PeakRssKiB());
    }
    pass.wall_s = static_cast<double>(wall_ns) * 1e-9;
    MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
    for (const auto& [name, value] : after.counters) {
      uint64_t delta = value - before.counter(name);
      if (delta != 0) pass.counters[name] = delta;
    }
    out_ = nullptr;
    return pass;
  }

 private:
  int32_t Begin(const char* name, int32_t parent, uint32_t session) {
    return spans_ != nullptr ? spans_->Begin(name, parent, session) : -1;
  }
  void End(int32_t id) {
    if (spans_ != nullptr) spans_->End(id);
  }

  Status ColdStart(int32_t parent, uint32_t session) {
    int32_t span = Begin("cold_start", parent, session);
    int64_t t0 = NowNs();
    Status status = db_->ColdStart();
    out_->cold_start_ns.push_back(NowNs() - t0);
    End(span);
    return status;
  }

  /// OnUserEvent / OnQueryResult: a call counts as issuing when it moved
  /// engine.manipulations_issued.
  template <typename Call>
  Status SpeculationCall(const char* name, const char* issuing_name,
                         bool is_edit, int32_t parent, uint32_t session,
                         Call&& call) {
    int32_t span = Begin(name, parent, session);
    uint64_t issued0 = issued_->value();
    int64_t t0 = NowNs();
    Status status = call();
    int64_t ns = NowNs() - t0;
    End(span);
    if (issued_->value() != issued0) {
      out_->issue_ns.push_back(ns);
      if (spans_ != nullptr) spans_->Rename(span, issuing_name);
    } else if (is_edit) {
      out_->decide_ns.push_back(ns);
    }
    return status;
  }

  /// Plans (traced runs only: the estimate is timed, not used) and
  /// executes one final query.
  Result<QueryResult> ExecuteFinal(const QueryGraph& query, ViewMode mode,
                                   int32_t parent, uint32_t session) {
    if (spans_ != nullptr) {
      int32_t span = Begin("plan", parent, session);
      int64_t t0 = NowNs();
      (void)db_->EstimateCost(query, mode);  // Execute reports failures
      out_->plan_ns.push_back(NowNs() - t0);
      End(span);
    }
    ExecuteOptions exec;
    exec.view_mode = mode;
    int32_t span = Begin("execute", parent, session);
    uint64_t rows0 = batch_rows_->value();
    int64_t t0 = NowNs();
    auto result = db_->Execute(query, exec);
    out_->exec_ns.push_back(NowNs() - t0);
    out_->exec_rows.push_back(batch_rows_->value() - rows0);
    End(span);
    if (!result.ok()) out_->failed++;
    return result;
  }

  // Mirrors TraceReplayer::Replay.
  Status ReplaySession(const Trace& trace, const std::vector<Trace>* history,
                       size_t index) {
    const uint32_t sid = static_cast<uint32_t>(index);
    int32_t session_span = Begin("session", -1, sid);
    SQP_RETURN_IF_ERROR(ColdStart(session_span, sid));
    SimServer server(db_->storage().node_count());
    db_->attribution().SetSession("user" + std::to_string(trace.user_id));
    SpeculationEngine engine(db_, &server, cfg_.engine);
    int32_t pretrain_span = Begin("pretrain", session_span, sid);
    engine.PretrainLearner(*history);
    End(pretrain_span);

    double exec_offset = 0;
    double total_exec = 0;
    size_t query_index = 0;
    for (const auto& event : trace.events) {
      double sim_time = event.timestamp + exec_offset;
      server.AdvanceTo(sim_time);
      if (event.type != TraceEventType::kGo) {
        SQP_RETURN_IF_ERROR(SpeculationCall(
            "edit", "edit.issue", true, session_span, sid,
            [&] { return engine.OnUserEvent(event, sim_time); }));
        continue;
      }
      QueryGraph final_query = engine.partial();
      int32_t go_span = Begin("go", session_span, sid);
      auto submit_time = engine.OnGo(sim_time);
      if (submit_time.ok() && *submit_time > sim_time) {
        server.AdvanceTo(*submit_time);
        SQP_RETURN_IF_ERROR(engine.ResolveWait(*submit_time));
      }
      End(go_span);
      if (!submit_time.ok()) return submit_time.status();

      // A failed query keeps its index, so later ones stay aligned with
      // the baseline replay.
      size_t position = query_index++;
      auto result = ExecuteFinal(final_query, engine.final_view_mode(),
                                 session_span, sid);
      if (!result.ok()) continue;  // counted in PassResult::failed
      SimServer::JobId job = server.Submit(
          result->seconds, db_->storage().read_cursor() % server.lanes());
      double done = server.RunUntilComplete(job);
      double duration = done - sim_time;
      exec_offset += duration;
      total_exec += duration;
      SQP_RETURN_IF_ERROR(SpeculationCall(
          "result", "result.issue", false, session_span, sid,
          [&] { return engine.OnQueryResult(done); }));
      Record(std::move(final_query), *result, duration, index, position);
    }

    int32_t span = Begin("shutdown", session_span, sid);
    Status status = engine.Shutdown();
    End(span);
    SQP_RETURN_IF_ERROR(status);
    out_->engine_stats.push_back(engine.stats());
    out_->overlap.push_back(
        ComputeOverlap(engine.stats(), server.now(), total_exec));
    db_->attribution().SetSession("");
    End(session_span);
    return Status::OK();
  }

  // Mirrors MultiUserReplayer::Replay: the group shares one SimServer
  // and one database; events and completions interleave on the shared
  // simulated clock.
  Status ReplayGroup(const std::vector<Trace>& traces, size_t first_index) {
    const uint32_t gid = static_cast<uint32_t>(first_index);
    int32_t group_span = Begin("group", -1, gid);
    SQP_RETURN_IF_ERROR(ColdStart(group_span, gid));
    SimServer server(db_->storage().node_count());
    const size_t n = traces.size();

    struct UserState {
      std::unique_ptr<SpeculationEngine> engine;
      uint32_t sid = 0;
      size_t next_event = 0;
      double exec_offset = 0;
      bool waiting = false;
      SimServer::JobId job = 0;
      double go_time = 0;
      QueryGraph pending_query;
      QueryResult pending_result;
      size_t pending_index = 0;
      size_t query_index = 0;
      double total_exec = 0;
      double last_time = 0;
    };
    std::vector<UserState> users(n);
    for (size_t u = 0; u < n; u++) {
      SpeculationEngineOptions opts = cfg_.engine;
      opts.table_prefix = "spec_u" + std::to_string(u) + "_mv_";
      opts.go_policy = GoPolicy::kCancelIncomplete;
      users[u].engine =
          std::make_unique<SpeculationEngine>(db_, &server, std::move(opts));
      users[u].sid = static_cast<uint32_t>(first_index + u);
    }

    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (;;) {
      double t_event = kInf;
      size_t who = n;
      for (size_t u = 0; u < n; u++) {
        const UserState& user = users[u];
        if (user.waiting || user.next_event >= traces[u].events.size()) {
          continue;
        }
        double t =
            traces[u].events[user.next_event].timestamp + user.exec_offset;
        if (t < t_event) {
          t_event = t;
          who = u;
        }
      }
      double t_completion = server.NextCompletionTime();
      bool any_waiting = false;
      for (const auto& user : users) any_waiting |= user.waiting;
      if (t_event == kInf && !any_waiting) break;

      if (t_completion <= t_event) {
        if (t_completion == kInf) {
          return Status::Internal("group replay stalled");
        }
        server.AdvanceTo(t_completion);
        for (size_t u = 0; u < n; u++) {
          UserState& user = users[u];
          if (!user.waiting || !server.IsComplete(user.job)) continue;
          db_->attribution().SetSession(
              "user" + std::to_string(traces[u].user_id));
          double done = server.CompletionTime(user.job);
          double duration = done - user.go_time;
          user.exec_offset += duration;
          user.total_exec += duration;
          user.last_time = done;
          user.waiting = false;
          SQP_RETURN_IF_ERROR(SpeculationCall(
              "result", "result.issue", false, group_span, user.sid,
              [&] { return user.engine->OnQueryResult(done); }));
          Record(std::move(user.pending_query), user.pending_result,
                 duration, user.sid, user.pending_index);
        }
        continue;
      }

      UserState& user = users[who];
      const TraceEvent& event = traces[who].events[user.next_event++];
      double sim_time = event.timestamp + user.exec_offset;
      db_->attribution().SetSession("user" +
                                    std::to_string(traces[who].user_id));
      server.AdvanceTo(sim_time);
      user.last_time = sim_time;
      if (event.type != TraceEventType::kGo) {
        SQP_RETURN_IF_ERROR(SpeculationCall(
            "edit", "edit.issue", true, group_span, user.sid,
            [&] { return user.engine->OnUserEvent(event, sim_time); }));
        continue;
      }

      QueryGraph final_query = user.engine->partial();
      int32_t go_span = Begin("go", group_span, user.sid);
      auto submit_time = user.engine->OnGo(sim_time);
      End(go_span);
      if (!submit_time.ok()) return submit_time.status();
      user.pending_index = user.query_index++;
      auto result = ExecuteFinal(final_query, user.engine->final_view_mode(),
                                 group_span, user.sid);
      if (!result.ok()) continue;  // counted in PassResult::failed
      user.job = server.Submit(result->seconds,
                               db_->storage().read_cursor() % server.lanes());
      user.go_time = sim_time;
      user.waiting = true;
      user.pending_query = std::move(final_query);
      user.pending_result = std::move(*result);
    }

    db_->attribution().SetSession("");
    for (size_t u = 0; u < n; u++) {
      int32_t span = Begin("shutdown", group_span, users[u].sid);
      Status status = users[u].engine->Shutdown();
      End(span);
      SQP_RETURN_IF_ERROR(status);
      out_->engine_stats.push_back(users[u].engine->stats());
      out_->overlap.push_back(ComputeOverlap(users[u].engine->stats(),
                                             users[u].last_time,
                                             users[u].total_exec));
    }
    End(group_span);
    return Status::OK();
  }

  void Record(QueryGraph query, const QueryResult& result, double duration,
              size_t session, size_t index) {
    QueryOutcome q;
    q.session = session;
    q.index = index;
    q.query = std::move(query);
    q.rows = result.row_count;
    q.response_s = duration;
    q.standalone_s = result.seconds;
    q.rewritten = !result.views_used.empty();
    q.est_rows = result.est_rows;
    out_->queries.push_back(std::move(q));
  }

  Database* db_ = nullptr;
  const WorkloadSpec& w_;
  const ExperimentConfig& cfg_;
  SpanLog* spans_;
  PassResult* out_ = nullptr;
  Counter* issued_;
  Counter* batch_rows_;
};

/// Set-up wall times, one sample per BuildDatabase + BuildTraces.
struct SetupTimes {
  std::vector<double> load_s;
  std::vector<double> traces_s;
  std::vector<double> total_s;
};

/// Builds the workload's database and session set. Every pass starts
/// from a fresh database: simulated durations are differences of the
/// cumulative CostMeter, so replaying on a used database changes their
/// last bits.
Result<std::unique_ptr<Database>> Setup(const ExperimentConfig& cfg,
                                        std::vector<Trace>* traces,
                                        SetupTimes* times) {
  int64_t t0 = NowNs();
  auto db = BuildDatabase(cfg);
  int64_t t1 = NowNs();
  if (!db.ok()) return db.status();
  *traces = BuildTraces(cfg);
  int64_t t2 = NowNs();
  times->load_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
  times->traces_s.push_back(static_cast<double>(t2 - t1) * 1e-9);
  times->total_s.push_back(static_cast<double>(t2 - t0) * 1e-9);
  return db;
}

/// Timed passes over the session set, each on a freshly set-up
/// database: at least one, and another only while the mean pass still
/// fits in `seconds` of replay. Fails when a pass does not reproduce the
/// first pass's fingerprint.
struct PassSet {
  std::vector<PassResult> passes;
  double wall_s = 0;
  uint64_t fingerprint = 0;
  /// The last pass's database, for the correctness check.
  std::unique_ptr<Database> db;
};

Result<PassSet> RunPasses(PassRunner& runner, const ExperimentConfig& cfg,
                          const std::vector<std::vector<Trace>>& histories,
                          double seconds, SetupTimes* times) {
  PassSet set;
  std::vector<Trace> traces;
  do {
    set.db.reset();
    auto db = Setup(cfg, &traces, times);
    if (!db.ok()) return db.status();
    set.db = std::move(*db);
    auto pass = runner.Run(set.db.get(), traces, histories);
    if (!pass.ok()) return pass.status();
    uint64_t fp = FingerprintOf(*pass);
    if (set.passes.empty()) {
      set.fingerprint = fp;
    } else if (fp != set.fingerprint) {
      return Status::Internal(
          "determinism guard: pass " + std::to_string(set.passes.size() + 1) +
          " differs from pass 1: " +
          DescribeDifference(set.passes.front(), *pass));
    }
    set.wall_s += pass->wall_s;
    set.passes.push_back(std::move(*pass));
  } while (set.wall_s * (1.0 + 1.0 / static_cast<double>(set.passes.size())) <=
           seconds);
  return set;
}

/// Normal processing (paper §6): replays every session without
/// speculation and with ViewMode::kNone through TraceReplayer, or each
/// group through MultiUserReplayer so the baseline has the same
/// multi-user contention. Returns each session's final-query records,
/// indexed by session; a replay that fails leaves its sessions empty.
std::vector<std::vector<QueryRecord>> ReplayBaseline(
    Database* db, const WorkloadSpec& w, const ExperimentConfig& cfg,
    const std::vector<Trace>& traces) {
  std::vector<std::vector<QueryRecord>> out(traces.size());
  for (size_t start = 0; start < traces.size(); start += w.group_size) {
    if (w.group_size <= 1) {
      ReplayOptions opts;
      opts.speculation = false;
      opts.engine = cfg.engine;
      opts.normal_view_mode = ViewMode::kNone;
      auto normal = TraceReplayer(db, opts).Replay(traces[start]);
      if (normal.ok()) out[start] = std::move(normal->queries);
      continue;
    }
    MultiUserReplayOptions opts;
    opts.speculation = false;
    opts.engine = cfg.engine;
    opts.normal_view_mode = ViewMode::kNone;
    std::vector<Trace> group(traces.begin() + start,
                             traces.begin() + start + w.group_size);
    auto normal = MultiUserReplayer(db, opts).Replay(group);
    if (!normal.ok()) continue;
    for (size_t u = 0; u < w.group_size; u++) {
      out[start + u] = std::move(normal->per_user[u]);
    }
  }
  return out;
}

// -------------------------------------------------------------- metrics

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least q of the samples at
  // or below it.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Sum of a storage counter over the single-node name and every
/// per-node name (storage.disk.<leaf> / storage.node<k>.disk.<leaf>).
uint64_t DiskCounter(const std::map<std::string, uint64_t>& counters,
                     const std::string& leaf) {
  uint64_t total = 0;
  for (const auto& [name, value] : counters) {
    if (name == "storage.disk." + leaf) total += value;
    if (name.rfind("storage.node", 0) == 0 &&
        name.size() > leaf.size() + 6 &&
        name.compare(name.size() - leaf.size() - 6, leaf.size() + 6,
                     ".disk." + leaf) == 0) {
      total += value;
    }
  }
  return total;
}

uint64_t CounterOf(const std::map<std::string, uint64_t>& counters,
                   const std::string& name) {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Self time per span name: duration minus the direct children's.
std::map<std::string, std::pair<size_t, double>> SelfTimes(
    const std::vector<Span>& spans) {
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const auto& s : spans) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, std::pair<size_t, double>> table;
  for (size_t i = 0; i < spans.size(); i++) {
    auto& row = table[spans[i].name];
    row.first++;
    row.second +=
        static_cast<double>(spans[i].end_ns - spans[i].start_ns - child_ns[i]) *
        1e-9;
  }
  return table;
}

/// Chrome trace_event JSON ("X" complete events, microseconds).
std::string ChromeTrace(const std::vector<Span>& spans) {
  std::string out = "{\"traceEvents\":[";
  int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  char buf[256];
  for (size_t i = 0; i < spans.size(); i++) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"session\":%u}}",
                  i == 0 ? "" : ",\n", s.name, s.session,
                  static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                  s.parent, s.session);
    out += buf;
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

/// Maps a span name to the src/ layer whose call it times.
const char* LayerOf(const std::string& span) {
  if (span == "edit" || span == "edit.issue" || span == "result" ||
      span == "result.issue" || span == "go" || span == "pretrain" ||
      span == "shutdown") {
    return "speculation";
  }
  if (span == "plan") return "optimizer";
  if (span == "execute") return "exec";
  if (span == "cold_start") return "storage";
  return "harness";  // session / group loop, SimServer bookkeeping
}

void AddLayerMetrics(const PassSet& traced, const PassSet& untraced,
                     const std::vector<Span>& spans, double setup_load_s,
                     double setup_traces_s, std::vector<Metric>* out) {
  const PassResult& first = traced.passes.front();
  const double passes = static_cast<double>(traced.passes.size());
  std::map<std::string, uint64_t> counters;  // summed over traced passes
  std::vector<double> decide, issue, plan, exec_self, cold_start;
  double issue_total_s = 0, exec_self_ns = 0;
  uint64_t exec_rows = 0;
  size_t queries = 0;
  for (const auto& pass : traced.passes) {
    for (const auto& [name, value] : pass.counters) counters[name] += value;
    for (int64_t ns : pass.decide_ns) decide.push_back(ns * 1e-6);
    for (int64_t ns : pass.issue_ns) {
      issue.push_back(ns * 1e-6);
      issue_total_s += ns * 1e-9;
    }
    for (int64_t ns : pass.cold_start_ns) cold_start.push_back(ns * 1e-6);
    for (size_t i = 0; i < pass.exec_ns.size(); i++) {
      double self = static_cast<double>(pass.exec_ns[i] - pass.plan_ns[i]);
      plan.push_back(pass.plan_ns[i] * 1e-6);
      exec_self.push_back(self * 1e-6);
      exec_self_ns += self;
      exec_rows += pass.exec_rows[i];
    }
    queries += pass.queries.size();
  }
  auto per_pass = [&](uint64_t v) { return static_cast<double>(v) / passes; };

  EngineStats engine = AggregateEngineStats(first.engine_stats);
  OverlapStats overlap = AggregateOverlap(first.overlap);
  size_t rewritten = 0;
  std::vector<double> q_error, queue_wait;
  for (const auto& q : first.queries) {
    rewritten += q.rewritten;
    double act = std::max<double>(1.0, static_cast<double>(q.rows));
    double est = std::max(1.0, q.est_rows);
    q_error.push_back(std::max(est / act, act / est));
    queue_wait.push_back(q.response_s - q.standalone_s);
  }
  const double nq = static_cast<double>(first.queries.size());
  const auto& c = first.counters;
  uint64_t issued = CounterOf(c, "engine.manipulations_issued");
  uint64_t hits = CounterOf(c, "bufferpool.hits");
  uint64_t misses = CounterOf(c, "bufferpool.misses");
  uint64_t primary = CounterOf(c, "storage.node.reads_primary");
  uint64_t shadow = CounterOf(c, "storage.node.reads_shadow");

  auto add = [&](const char* name, double value, const char* unit) {
    out->push_back({name, value, unit});
  };
  std::vector<double> response, exec_ms;
  for (const auto& q : first.queries) response.push_back(q.response_s);
  for (const auto& pass : traced.passes) {
    for (int64_t ns : pass.exec_ns) exec_ms.push_back(ns * 1e-6);
  }
  add("response_sim_s.p50", Percentile(response, 0.5), "sim_s");
  add("response_sim_s.p90", Percentile(response, 0.9), "sim_s");
  add("response_sim_s.mean", Mean(response), "sim_s");
  add("query_wall_ms.p50", Percentile(exec_ms, 0.5), "ms");
  add("query_wall_ms.p90", Percentile(exec_ms, 0.9), "ms");

  add("workload.load_s", setup_load_s, "s");
  add("trace.generate_s", setup_traces_s, "s");

  add("speculation.decide_ms.p50", Median(decide), "ms");
  add("speculation.issue_ms.p50", Median(issue), "ms");
  add("speculation.issue_s", issue_total_s / passes, "s");
  add("speculation.candidates_per_round",
      Ratio(CounterOf(c, "speculator.candidates_considered"),
            CounterOf(c, "speculator.decisions")),
      "count");
  add("speculation.completed_ratio",
      Ratio(engine.manipulations_completed, engine.manipulations_issued),
      "ratio");
  add("speculation.wasted_ratio", overlap.wasted_ratio, "ratio");
  add("speculation.rewritten_fraction", Ratio(rewritten, nq), "ratio");
  add("speculation.learner_brier",
      Ratio(engine.brier_sum, engine.predictions_scored), "score");

  add("optimizer.plan_ms.p50", Median(plan), "ms");
  add("optimizer.q_error.mean", Mean(q_error), "ratio");

  add("exec.self_ms.p50", Median(exec_self), "ms");
  double exec_sim_s = 0;
  for (const auto& q : first.queries) exec_sim_s += q.standalone_s;
  add("exec.wall_ms_per_sim_s",
      Ratio(exec_self_ns * 1e-6 / passes, exec_sim_s), "ms/sim_s");
  add("exec.rows", per_pass(exec_rows), "count");
  add("exec.ns_per_row", Ratio(exec_self_ns, exec_rows), "ns");
  add("exec.parallel.fallback_ratio",
      Ratio(counters["exec.parallel.fallbacks"],
            counters["exec.parallel.morsels"]),
      "ratio");
  add("common.scheduler.tasks", per_pass(counters["scheduler.tasks"]),
      "count");
  add("common.scheduler.steal_ratio",
      Ratio(counters["scheduler.steals"], counters["scheduler.tasks"]),
      "ratio");

  add("storage.bufferpool.hit_rate", Ratio(hits, hits + misses), "ratio");
  add("storage.bufferpool.evictions",
      static_cast<double>(CounterOf(c, "bufferpool.evictions")), "count");
  add("storage.disk.reads_per_query", Ratio(DiskCounter(c, "reads"), nq),
      "count");
  add("storage.disk.writes_per_manipulation",
      Ratio(DiskCounter(c, "writes"), issued), "count");
  add("storage.disk.syncs", static_cast<double>(DiskCounter(c, "syncs")),
      "count");
  add("storage.cross_shard_pages",
      static_cast<double>(CounterOf(c, "storage.node.cross_shard_pages")),
      "count");
  add("storage.shadow_read_share", Ratio(shadow, primary + shadow), "ratio");

  add("db.manifest_commits_per_manipulation",
      Ratio(CounterOf(c, "manifest.replication.commits"), issued), "count");
  add("db.cold_start_ms", Median(cold_start), "ms");

  add("sim.queue_wait_s.mean", Mean(queue_wait), "sim_s");
  add("sim.cancelled_ratio",
      Ratio(CounterOf(c, "sim.jobs_cancelled"),
            CounterOf(c, "sim.jobs_submitted")),
      "ratio");
  add("sim.think_utilization", overlap.think_utilization, "ratio");

  // Self time per layer, per pass, from the spans.
  std::map<std::string, double> layer_s;
  for (const auto& [name, row] : SelfTimes(spans)) {
    layer_s[LayerOf(name)] += row.second;
  }
  for (const char* layer :
       {"speculation", "optimizer", "exec", "storage", "harness"}) {
    std::string name = std::string(layer) + ".self_s";
    out->push_back({name, layer_s[layer] / passes, "s"});
  }
  double traced_per_query = traced.wall_s / static_cast<double>(queries);
  size_t untraced_queries = 0;
  for (const auto& pass : untraced.passes) {
    untraced_queries += pass.queries.size();
  }
  double untraced_per_query =
      untraced.wall_s / static_cast<double>(untraced_queries);
  add("tracing.overhead_ratio", traced_per_query / untraced_per_query - 1,
      "ratio");
}

void PrintSelfTimeTable(const std::vector<Span>& spans, double wall_s) {
  std::printf("\nper-call self time (traced run, %.3f s replay wall):\n",
              wall_s);
  std::printf("  %-14s %-12s %8s %10s %7s\n", "span", "layer", "calls",
              "self_s", "share");
  double covered = 0;
  for (const auto& [name, row] : SelfTimes(spans)) {
    covered += row.second;
    std::printf("  %-14s %-12s %8zu %10.4f %6.1f%%\n", name.c_str(),
                LayerOf(name), row.first, row.second,
                100 * Ratio(row.second, wall_s));
  }
  std::printf("  %-14s %-12s %8s %10.4f %6.1f%%\n", "(all spans)", "", "",
              covered, 100 * Ratio(covered, wall_s));
}

struct Args {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  size_t sessions = 0;  // 0 = the workload's default
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; i++) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--sessions") {
      args->sessions = static_cast<size_t>(std::atol(value.c_str()));
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

/// " v1 v2 ...", each value printed with `format`.
std::string Join(const std::vector<double>& values, const char* format) {
  std::string out;
  for (double v : values) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), format, v);
    out += " ";
    out += buf;
  }
  return out;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "sqp_perfbench: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: sqp_perfbench --workload <name> [--seed N] "
                 "[--seconds S] [--trace 0|1] [--sessions N] "
                 "[--trace-out FILE]\n");
    return 2;
  }
  const WorkloadSpec* found = FindWorkload(args.workload);
  if (found == nullptr) return Fail("unknown workload " + args.workload);
  WorkloadSpec w = *found;
  if (args.sessions > 0) w.sessions = args.sessions;
  if (w.sessions < 2 || w.sessions % w.group_size != 0) {
    return Fail("--sessions must be >= 2 and a multiple of the group size");
  }
  ExperimentConfig cfg = ConfigFor(w, args.seed);

  // ---- setup, timed several times (each pass adds one more sample);
  // setup_s is the median. The session set also yields the
  // leave-one-out pretraining histories, built outside the timed region.
  constexpr int kSetupSamples = 15;
  SetupTimes setup;
  std::vector<Trace> traces;
  for (int i = 0; i < kSetupSamples; i++) {
    auto db = Setup(cfg, &traces, &setup);
    if (!db.ok()) return Fail("setup: " + db.status().ToString());
  }
  std::vector<std::vector<Trace>> histories(traces.size());
  if (w.group_size <= 1) {
    for (size_t t = 0; t < traces.size(); t++) {
      for (size_t o = 0; o < traces.size(); o++) {
        if (o != t) histories[t].push_back(traces[o]);
      }
    }
  }

  // ---- timed, untraced passes.
  PassRunner untraced_runner(w, cfg, nullptr);
  auto untraced =
      RunPasses(untraced_runner, cfg, histories, args.seconds, &setup);
  if (!untraced.ok()) return Fail(untraced.status().ToString());
  Database* db = untraced->db.get();
  const PassResult& first = untraced->passes.front();
  std::vector<double> replay_peak_mb;
  for (const auto& pass : untraced->passes) {
    for (long kib : pass.replay_peak_kib) {
      replay_peak_mb.push_back(static_cast<double>(kib) / 1024.0);
    }
  }

  // ---- correctness, outside the timed region: the paper's normal
  // processing of the same sessions runs every final query again, with
  // neither speculation nor views, each session (group) on a cold pool.
  // Its user-perceived times are the baseline of response_ratio.
  int64_t check_t0 = NowNs();
  std::vector<std::vector<QueryRecord>> baseline =
      ReplayBaseline(db, w, cfg, traces);
  size_t mismatches = 0;
  double response_sum = 0, baseline_sum = 0;
  for (const QueryOutcome& q : first.queries) {
    const std::vector<QueryRecord>& normal = baseline[q.session];
    if (q.index >= normal.size() || normal[q.index].row_count != q.rows ||
        !(normal[q.index].query == q.query)) {
      mismatches++;
      continue;
    }
    response_sum += q.response_s;
    baseline_sum += normal[q.index].seconds;
  }
  double check_s = static_cast<double>(NowNs() - check_t0) * 1e-9;

  // A mismatch in pass 1 repeats in every pass (passes are identical).
  const size_t passes = untraced->passes.size();
  size_t attempted = 0, failed = mismatches * passes;
  std::vector<double> pass_qps;
  for (const auto& pass : untraced->passes) {
    attempted += pass.queries.size() + pass.failed;
    failed += pass.failed;
    pass_qps.push_back(
        Ratio(static_cast<double>(pass.queries.size() - mismatches),
              pass.wall_s));
  }
  double error_rate = Ratio(static_cast<double>(failed), attempted);

  std::vector<Metric> e2e = {
      {"setup_s", Median(setup.total_s), "s"},
      {"replay_qps", Median(pass_qps), "queries/s"},
      {"response_ratio", Ratio(response_sum, baseline_sum), "ratio"},
      {"peak_rss_mb", Median(replay_peak_mb), "MiB"},
      {"success_rate", 1 - error_rate, "ratio"},
  };

  std::printf("workload %s seed %llu: %zu sessions, %zu final queries per "
              "pass; fingerprint %016llx\n",
              w.name, static_cast<unsigned long long>(args.seed), w.sessions,
              first.queries.size(),
              static_cast<unsigned long long>(untraced->fingerprint));
  std::vector<double> pass_walls;
  for (const auto& pass : untraced->passes) pass_walls.push_back(pass.wall_s);
  std::printf("setup %zu x %.3f s (median), replay %zu pass(es) %.3f s "
              "(per pass:%s), correctness %.3f s\n",
              setup.total_s.size(), Median(setup.total_s), passes,
              untraced->wall_s, Join(pass_walls, "%.3f").c_str(), check_s);
  std::printf("setup per sample (s):%s\n",
              Join(setup.total_s, "%.3f").c_str());
  std::printf("peak RSS per replay (MiB):%s\n",
              Join(replay_peak_mb, "%.1f").c_str());
  std::printf("error_rate %.6f (%zu failed of %zu attempted, %zu correctness "
              "mismatches per pass)\n",
              error_rate, failed, attempted, mismatches);

  std::vector<Metric> reported = e2e;
  if (args.trace) {
    SpanLog spans;
    PassRunner traced_runner(w, cfg, &spans);
    auto traced =
        RunPasses(traced_runner, cfg, histories, args.seconds, &setup);
    if (!traced.ok()) return Fail(traced.status().ToString());
    if (traced->fingerprint != untraced->fingerprint) {
      return Fail("determinism guard: traced run differs from untraced run: " +
                  DescribeDifference(first, traced->passes.front()));
    }
    std::printf("traced replay %zu pass(es) %.3f s; simulated results "
                "identical to the untraced run\n",
                traced->passes.size(), traced->wall_s);
    reported.clear();
    AddLayerMetrics(*traced, *untraced, spans.spans(), Median(setup.load_s),
                    Median(setup.traces_s), &reported);
    PrintSelfTimeTable(spans.spans(), traced->wall_s);
    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      out << ChromeTrace(spans.spans());
      if (!out) return Fail("cannot write " + args.trace_out);
      std::printf("wrote %zu spans to %s\n", spans.spans().size(),
                  args.trace_out.c_str());
    }
  }

  std::printf("\n");
  for (const auto& m : reported) {
    std::printf("%-40s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[512];
  for (size_t i = 0; i < reported.size(); i++) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", reported[i].name.c_str(),
                  std::isfinite(reported[i].value) ? reported[i].value : 0.0,
                  reported[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
