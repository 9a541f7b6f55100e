// Trace replayer (paper §4.1, §6.3).
//
// One event loop replays one or more recorded sessions against one
// database and one processor-sharing server. Event timestamps in a
// trace are think-time offsets; the loop maps them onto the simulated
// clock by inserting each query's execution delay after its GO, so
// speculation gets exactly the think time the user exhibited. Sessions
// replayed together share the clock, so their queries and speculative
// manipulations slow each other down (§6.3); each session gets its own
// speculation engine (the paper's cost model ignores other users). A
// single-user replay is the one-session case of the same loop.
//
// Session `user<id>` (from Trace::user_id) names its tracer lane, its
// attribution session and its speculative tables (`spec_user<id>_mv_`),
// so the sessions of one replay need distinct user ids. Engine teardown
// at the end is system work, charged to no session.
#pragma once

#include <vector>

#include "db/database.h"
#include "harness/metrics.h"
#include "sim/sim_server.h"
#include "speculation/engine.h"
#include "trace/trace.h"

namespace sqp {

struct ReplayOptions {
  bool speculation = true;
  /// Each session's engine clones these options; the replayer sets
  /// `enabled`, `tracer`, `trace_lane` and `table_prefix`. The §7 wait
  /// policy (GoPolicy::kWaitIfWorthwhile) needs a session of its own:
  /// waiting would advance the shared clock past other sessions'
  /// events, so a replay of several sessions rejects it.
  SpeculationEngineOptions engine;
  /// View mode for query execution under *normal* processing (kCostBased
  /// lets normal runs exploit pre-materialized views — Figure 6's
  /// "Views" configuration; with an empty registry it is a no-op).
  ViewMode normal_view_mode = ViewMode::kCostBased;
  /// Reset the buffer pool before the replay (paper methodology).
  bool cold_start = true;
  /// Historical traces to pretrain each speculative session's Learner
  /// on (the paper's Learner "observes users over time"). Leave-one-out:
  /// a session skips the traces of its own user id.
  const std::vector<Trace>* pretrain_traces = nullptr;
  /// Optional span tracer (DESIGN.md §9): each session records a
  /// session span, edit instants and a query span per GO on its
  /// `user<id>` lane, and its engine adds manipulation spans there.
  /// Null = off.
  Tracer* tracer = nullptr;
  /// Run every final query with EXPLAIN ANALYZE (DESIGN.md §11): each
  /// QueryRecord carries a rendered per-operator profile and the
  /// profile JSON attaches to the query's trace span. Profiling is
  /// also implied by an attached tracer. Never affects simulated time.
  bool explain = false;
  /// Optional telemetry sampler (DESIGN.md §16), driven from the
  /// server's clock-advance points. A replay restarts the simulated
  /// clock at zero, so it is one epoch, labelled `timeline_epoch`
  /// ("" = plain track names). Null = off.
  MetricsTimeline* timeline = nullptr;
  std::string timeline_epoch;
};

/// One session replayed on a server of its own.
struct ReplayResult {
  std::vector<QueryRecord> queries;
  EngineStats engine_stats;  // zero-valued for normal replays
  double total_exec_seconds = 0;
  double session_end_time = 0;
  /// Think-time-overlap story derived from engine_stats and the two
  /// fields above (DESIGN.md §9); zero-valued for normal replays.
  OverlapStats overlap;
  /// Flight-recorder decision log (DESIGN.md §11), copied after
  /// Shutdown so every recorded round has a terminal outcome. Empty
  /// for normal replays (a disabled engine never evaluates candidates).
  std::vector<DecisionRecord> decisions;
  /// Learner calibration (Brier + reliability buckets) at session end.
  CalibrationReport calibration;
};

/// Sessions replayed together; every vector is index-aligned with the
/// input traces.
struct GroupReplayResult {
  std::vector<std::vector<QueryRecord>> per_user;
  std::vector<EngineStats> engine_stats;
  /// Each session's overlap story, up to its own last event or query.
  std::vector<OverlapStats> overlap;
  std::vector<std::vector<DecisionRecord>> decisions;
  std::vector<CalibrationReport> calibration;
  /// The shared clock when the last session ended.
  double session_end_time = 0;

  /// All query records flattened (order: user-major).
  std::vector<QueryRecord> Flatten() const;
};

class TraceReplayer {
 public:
  TraceReplayer(Database* db, ReplayOptions options)
      : db_(db), options_(std::move(options)) {}

  /// Replay `traces` as concurrent sessions on one shared server; leaves
  /// no speculative views behind. InvalidArgument when two sessions
  /// share a user id, or several sessions meet the §7 wait policy.
  Result<GroupReplayResult> Replay(const std::vector<Trace>& traces);

  /// Replay one session: the one-trace group above. (A braced `{trace}`
  /// selects this overload; pass a vector for the group result.)
  Result<ReplayResult> Replay(const Trace& trace);

 private:
  Database* db_;
  ReplayOptions options_;
};

}  // namespace sqp
