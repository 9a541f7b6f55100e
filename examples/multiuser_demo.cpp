// Multi-user demo (paper §6.3): three analysts exploring the same
// database simultaneously on a processor-sharing server, with and
// without speculation (restricted to selection materializations, as the
// paper does to limit interference).
#include <cstdio>

#include "harness/experiment.h"

using namespace sqp;

int main() {
  std::printf("Loading the TPC-H subset (small scale, 96MB-equivalent "
              "buffer pool)...\n");
  ExperimentConfig cfg;
  cfg.scale = tpch::Scale::kSmall;
  cfg.num_users = 3;
  cfg.buffer_pool_pages = 3 * cfg.buffer_pool_pages;
  auto db = BuildDatabase(cfg);
  if (!db.ok()) {
    std::printf("load failed: %s\n", db.status().ToString().c_str());
    return 1;
  }
  std::vector<Trace> traces = BuildTraces(cfg);

  ReplayOptions normal_opts;
  normal_opts.speculation = false;
  auto normal = TraceReplayer(db->get(), normal_opts).Replay(traces);
  if (!normal.ok()) {
    std::printf("replay failed: %s\n", normal.status().ToString().c_str());
    return 1;
  }

  ReplayOptions spec_opts;
  spec_opts.speculation = true;
  spec_opts.engine.speculator.space.join_materializations = false;  // §6.3
  auto spec = TraceReplayer(db->get(), spec_opts).Replay(traces);
  if (!spec.ok()) {
    std::printf("replay failed: %s\n", spec.status().ToString().c_str());
    return 1;
  }

  std::printf("\n%-6s %10s %12s %12s %9s\n", "user", "queries",
              "normal(s)", "spec(s)", "gain%");
  for (size_t u = 0; u < traces.size(); u++) {
    double n_total = 0, s_total = 0;
    for (const auto& q : normal->per_user[u]) n_total += q.seconds;
    for (const auto& q : spec->per_user[u]) s_total += q.seconds;
    std::printf("%-6zu %10zu %12.1f %12.1f %8.1f%%\n", u,
                normal->per_user[u].size(), n_total, s_total,
                n_total > 0 ? 100 * (1 - s_total / n_total) : 0.0);
  }

  std::printf("\nPer-user speculation activity:\n");
  for (size_t u = 0; u < spec->engine_stats.size(); u++) {
    const EngineStats& st = spec->engine_stats[u];
    std::printf("  user %zu: issued %zu, completed %zu, cancelled %zu\n", u,
                st.manipulations_issued, st.manipulations_completed,
                st.cancelled());
  }
  std::printf(
      "\nSessions finished at t=%.0fs (normal) vs t=%.0fs (speculative)\n",
      normal->session_end_time, spec->session_end_time);
  return 0;
}
