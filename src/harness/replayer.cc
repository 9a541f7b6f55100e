#include "harness/replayer.h"

#include <cassert>
#include <limits>
#include <memory>
#include <set>

#include "common/metrics_timeline.h"

namespace sqp {

std::vector<QueryRecord> GroupReplayResult::Flatten() const {
  std::vector<QueryRecord> out;
  for (const auto& user : per_user) {
    out.insert(out.end(), user.begin(), user.end());
  }
  return out;
}

Result<ReplayResult> TraceReplayer::Replay(const Trace& trace) {
  auto group = Replay(std::vector<Trace>{trace});
  if (!group.ok()) return group.status();
  ReplayResult result;
  result.queries = std::move(group->per_user[0]);
  for (const auto& q : result.queries) result.total_exec_seconds += q.seconds;
  result.engine_stats = std::move(group->engine_stats[0]);
  result.session_end_time = group->session_end_time;
  result.overlap = group->overlap[0];
  result.decisions = std::move(group->decisions[0]);
  result.calibration = std::move(group->calibration[0]);
  return result;
}

Result<GroupReplayResult> TraceReplayer::Replay(
    const std::vector<Trace>& traces) {
  const size_t n = traces.size();
  std::set<uint64_t> user_ids;
  for (const Trace& trace : traces) {
    if (!user_ids.insert(trace.user_id).second) {
      return Status::InvalidArgument(
          "replayed sessions need distinct user ids; user" +
          std::to_string(trace.user_id) + " repeats");
    }
  }
  // Waiting at GO advances the shared clock to the submit time, past
  // other sessions' pending events.
  if (n > 1 && options_.engine.go_policy == GoPolicy::kWaitIfWorthwhile) {
    return Status::InvalidArgument(
        "GoPolicy::kWaitIfWorthwhile needs a session of its own; got " +
        std::to_string(n) + " sessions");
  }
  if (options_.cold_start) SQP_RETURN_IF_ERROR(db_->ColdStart());

  // One simulator lane per storage node (DESIGN.md §14): speculative
  // manipulations queue on their home node's lane and only contend with
  // work on the same node. A single-node store gets the classic single
  // shared-capacity server the paper's §6.3 experiment assumes.
  SimServer server(db_->storage().node_count());
  if (options_.timeline != nullptr) {
    options_.timeline->BeginEpoch(options_.timeline_epoch);
    server.set_timeline(options_.timeline);
  }

  struct Session {
    std::string name;  // "user<id>": lane, attribution, table prefix
    std::unique_ptr<SpeculationEngine> engine;
    size_t next_event = 0;
    double exec_offset = 0;  // accumulated query delays
    bool waiting = false;    // query in flight
    SimServer::JobId job = 0;
    double go_time = 0;
    QueryRecord pending;
    double total_exec = 0;  // final-query seconds (user-perceived)
    double last_time = 0;   // last event/completion on this session
    Tracer::SpanId session_span = Tracer::kInvalidSpan;
    Tracer::SpanId query_span = Tracer::kInvalidSpan;
  };
  std::vector<Session> sessions(n);
  Tracer* tracer = options_.tracer;
  for (size_t u = 0; u < n; u++) {
    Session& s = sessions[u];
    s.name = "user" + std::to_string(traces[u].user_id);
    SpeculationEngineOptions opts = options_.engine;
    opts.enabled = options_.speculation;
    opts.table_prefix = "spec_" + s.name + "_mv_";
    opts.tracer = tracer;
    opts.trace_lane = s.name;
    s.engine = std::make_unique<SpeculationEngine>(db_, &server,
                                                   std::move(opts));
    // Leave-one-out: the Learner has observed the *other* users before
    // this session starts. Normal replays issue no manipulations.
    if (options_.speculation && options_.pretrain_traces != nullptr) {
      std::vector<Trace> history;
      for (const Trace& other : *options_.pretrain_traces) {
        if (other.user_id != traces[u].user_id) history.push_back(other);
      }
      s.engine->PretrainLearner(history);
    }
    if (tracer != nullptr && !traces[u].events.empty()) {
      s.session_span =
          tracer->BeginSpan("session " + s.name, "session",
                            traces[u].events.front().timestamp, s.name);
      tracer->SpanArg(s.session_span, "mode",
                      options_.speculation ? "speculative" : "normal");
      tracer->SpanArg(s.session_span, "events",
                      std::to_string(traces[u].events.size()));
    }
  }

  GroupReplayResult result;
  result.per_user.resize(n);

  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (;;) {
    // Earliest pending user event among sessions without a query in
    // flight.
    double t_event = kInf;
    size_t who = n;
    for (size_t u = 0; u < n; u++) {
      const Session& s = sessions[u];
      if (s.waiting || s.next_event >= traces[u].events.size()) continue;
      double t = traces[u].events[s.next_event].timestamp + s.exec_offset;
      if (t < t_event) {
        t_event = t;
        who = u;
      }
    }
    double t_completion = server.NextCompletionTime();
    bool any_waiting = false;
    for (const auto& s : sessions) any_waiting |= s.waiting;

    if (t_event == kInf && !any_waiting) break;  // all sessions done

    if (t_completion <= t_event) {
      // A job finishes first: advance and settle completed queries.
      assert(t_completion < kInf);
      server.AdvanceTo(t_completion);
      for (size_t u = 0; u < n; u++) {
        Session& s = sessions[u];
        if (!s.waiting || !server.IsComplete(s.job)) continue;
        // Speculation issued from the result examination pause below
        // charges this session.
        db_->attribution().SetSession(s.name);
        double done = server.CompletionTime(s.job);
        // User-perceived response time: any §7 wait is part of it.
        double duration = done - s.go_time;
        s.exec_offset += duration;
        s.total_exec += duration;
        s.last_time = done;
        s.pending.seconds = duration;
        result.per_user[u].push_back(std::move(s.pending));
        s.waiting = false;
        if (tracer != nullptr) {
          tracer->EndSpan(s.query_span, done);
          s.query_span = Tracer::kInvalidSpan;
        }
        SQP_RETURN_IF_ERROR(s.engine->OnQueryResult(done));
      }
      continue;
    }

    // Process the next user event.
    assert(who < n);
    Session& s = sessions[who];
    const TraceEvent& event = traces[who].events[s.next_event++];
    double sim_time = event.timestamp + s.exec_offset;
    // Sessions interleave on the shared clock: name the owner before
    // any engine/database work this event triggers (DESIGN.md §16).
    db_->attribution().SetSession(s.name);
    server.AdvanceTo(sim_time);

    s.last_time = sim_time;
    if (event.type != TraceEventType::kGo) {
      if (tracer != nullptr) {
        tracer->Instant(TraceEventTypeName(event.type), "edit", sim_time,
                        s.name);
      }
      SQP_RETURN_IF_ERROR(s.engine->OnUserEvent(event, sim_time));
      continue;
    }

    // GO: finish speculation bookkeeping first. Under the paper's
    // convention this cancels any incomplete manipulation; under the §7
    // wait policy (one session only, checked above) it may tell us to
    // delay the query until a near-complete materialization lands.
    QueryGraph final_query = s.engine->partial();
    auto submit_time = s.engine->OnGo(sim_time);
    if (!submit_time.ok()) return submit_time.status();
    if (*submit_time > sim_time) {
      server.AdvanceTo(*submit_time);
      SQP_RETURN_IF_ERROR(s.engine->ResolveWait(*submit_time));
    }

    ExecuteOptions exec;
    exec.view_mode = options_.speculation ? s.engine->final_view_mode()
                                          : options_.normal_view_mode;
    exec.explain_analyze = options_.explain || tracer != nullptr;
    auto query_result = db_->Execute(final_query, exec);
    if (!query_result.ok()) return query_result.status();

    // The query contends on the server with whatever else runs there.
    // On a multi-node store the replica-read cursor picks the lane — a
    // deterministic stand-in for "whichever node the balanced reads
    // last touched" (always lane 0 on single-node stores).
    s.job = server.Submit(query_result->seconds,
                          db_->storage().read_cursor() % server.lanes());
    s.go_time = sim_time;
    s.waiting = true;
    s.pending = QueryRecord{};
    s.pending.index = result.per_user[who].size();
    s.pending.user_id = traces[who].user_id;
    s.pending.query = std::move(final_query);
    s.pending.row_count = query_result->row_count;
    s.pending.views_used = query_result->views_used;
    s.pending.go_sim_time = sim_time;
    s.pending.plan_explain = query_result->plan_explain;
    s.pending.est_rows = query_result->est_rows;
    if (query_result->profile != nullptr) {
      s.pending.plan_profile = query_result->profile->FormatText();
    }
    if (tracer != nullptr) {
      s.query_span = tracer->BeginSpan(
          "query " + std::to_string(s.pending.index), "query", sim_time,
          s.name);
      tracer->SpanArg(s.query_span, "exec_s",
                      std::to_string(query_result->seconds));
      tracer->SpanArg(s.query_span, "rows",
                      std::to_string(query_result->row_count));
      for (const auto& view : query_result->views_used) {
        tracer->SpanArg(s.query_span, "view", view);
      }
      if (query_result->profile != nullptr) {
        // Perfetto renders span args inline, so the per-operator
        // profile shows up on the query span itself (DESIGN.md §11).
        tracer->SpanArg(s.query_span, "plan_profile",
                        query_result->profile->FormatJson());
      }
    }
  }

  // Teardown is system work, not any one session's. Shutdown leaves the
  // database as we found it and stamps terminal outcomes on everything
  // the flight recorder still has pending, so copy the log after it.
  db_->attribution().SetSession("");
  for (size_t u = 0; u < n; u++) {
    Session& s = sessions[u];
    SQP_RETURN_IF_ERROR(s.engine->Shutdown());
    const EngineStats& stats = s.engine->stats();
    result.engine_stats.push_back(stats);
    result.overlap.push_back(
        ComputeOverlap(stats, s.last_time, s.total_exec));
    const FlightRecorder& recorder = s.engine->flight_recorder();
    result.decisions.emplace_back(recorder.records().begin(),
                                  recorder.records().end());
    result.calibration.push_back(recorder.calibration());
    if (tracer != nullptr && s.session_span != Tracer::kInvalidSpan) {
      tracer->SpanArg(s.session_span, "queries",
                      std::to_string(result.per_user[u].size()));
      tracer->EndSpan(s.session_span, s.last_time);
    }
  }
  result.session_end_time = server.now();
  if (options_.timeline != nullptr) {
    options_.timeline->Flush(result.session_end_time);
  }
  return result;
}

}  // namespace sqp
