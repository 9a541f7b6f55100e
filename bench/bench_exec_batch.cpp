// Morsel-parallel execution wall-clock microbenchmark.
//
// Builds a 100k-row fact table joined against a 10k-row dim table with
// a pushed-down selection, then sweeps the same scan+join across
// exec_threads 1/2/4/8 (DESIGN.md §15): the morsel-parallel engine must
// produce the identical rows and CostMeter charges at every setting
// (checked here, not just in tests), and the `parallel.t<k>_over_t1`
// wall-clock ratios are gated lower-is-better by bench_compare.py. On a
// many-core host the 8-thread ratio should sit well under 1; on a
// single hardware thread it degrades gracefully toward 1.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "db/database.h"
#include "exec/executors.h"

using namespace sqp;

namespace {

constexpr size_t kFactRows = 100000;
constexpr size_t kDimRows = 10000;
constexpr int kReps = 5;

std::unique_ptr<Database> BuildDb(size_t exec_threads) {
  DatabaseOptions options;
  options.buffer_pool_pages = 8192;  // tables fit: measure CPU, not I/O
  options.exec_threads = exec_threads;
  auto db = std::make_unique<Database>(options);

  Schema dim_schema({{"d_id", TypeId::kInt64}, {"d_v", TypeId::kInt64}});
  Schema fact_schema({{"f_id", TypeId::kInt64},
                      {"f_did", TypeId::kInt64},
                      {"f_v", TypeId::kInt64}});
  if (!db->CreateTable("dim", dim_schema).ok() ||
      !db->CreateTable("fact", fact_schema).ok()) {
    std::fprintf(stderr, "table setup failed\n");
    std::exit(1);
  }

  Rng rng(42);
  std::vector<Tuple> dim_rows;
  dim_rows.reserve(kDimRows);
  for (size_t i = 0; i < kDimRows; i++) {
    dim_rows.push_back(
        Tuple{Value(static_cast<int64_t>(i)), Value(rng.NextInt(0, 999))});
  }
  std::vector<Tuple> fact_rows;
  fact_rows.reserve(kFactRows);
  for (size_t i = 0; i < kFactRows; i++) {
    fact_rows.push_back(
        Tuple{Value(static_cast<int64_t>(i)),
              Value(rng.NextInt(0, static_cast<int64_t>(kDimRows) - 1)),
              Value(rng.NextInt(0, 99))});
  }
  if (!db->BulkLoad("dim", dim_rows).ok() ||
      !db->BulkLoad("fact", fact_rows).ok()) {
    std::fprintf(stderr, "bulk load failed\n");
    std::exit(1);
  }
  return db;
}

/// Fresh scan(fact, f_v < 60) ⋈ dim executor tree. With the database's
/// scheduler attached, scan morsels and the fused probe run on workers.
std::unique_ptr<Executor> BuildTree(Database* db) {
  TableInfo* dim = db->catalog().GetTable("dim");
  TableInfo* fact = db->catalog().GetTable("fact");
  SelectionPred pred;
  pred.table = "fact";
  pred.column = "f_v";
  pred.op = CompareOp::kLt;
  pred.constant = Value(static_cast<int64_t>(60));
  auto bound = BindSelection(pred, fact->schema);
  if (!bound.ok()) {
    std::fprintf(stderr, "bind failed\n");
    std::exit(1);
  }
  auto build = std::make_unique<SeqScanExecutor>(dim, &db->buffer_pool(),
                                                 &db->meter());
  auto probe = std::make_unique<SeqScanExecutor>(
      fact, &db->buffer_pool(), &db->meter(),
      std::vector<BoundSelection>{*bound});
  ExecParallel par{db->scheduler(), false};
  build->EnableParallel(par);
  probe->EnableParallel(par);
  auto join = std::make_unique<HashJoinExecutor>(std::move(build),
                                                 std::move(probe),
                                                 /*build_key=*/0,
                                                 /*probe_key=*/1, &db->meter(),
                                                 /*build_rows_hint=*/kDimRows);
  join->EnableParallel(par);
  return join;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Drain via NextBatch(); returns rows produced, records seconds.
size_t RunBatch(Database* db, double* seconds) {
  auto exec = BuildTree(db);
  auto start = std::chrono::steady_clock::now();
  if (!exec->Init().ok()) std::exit(1);
  size_t rows = 0;
  TupleBatch batch;
  for (;;) {
    auto more = exec->NextBatch(&batch);
    if (!more.ok()) std::exit(1);
    if (batch.empty()) break;
    rows += batch.size();
  }
  *seconds = SecondsSince(start);
  return rows;
}

/// Thread-scaling sweep: same scan+join on a fresh database per thread
/// count; returns the best wall seconds and checks rows + CostMeter
/// tuple charges are bit-identical to the exec_threads=1 run.
double RunScaling(size_t exec_threads, size_t* rows_out,
                  uint64_t* tuples_out) {
  auto db = BuildDb(exec_threads);
  double s = 0;
  RunBatch(db.get(), &s);  // warm
  uint64_t t0 = db->meter().tuples_processed();
  double best = 1e9;
  size_t rows = 0;
  for (int rep = 0; rep < kReps; rep++) {
    rows = RunBatch(db.get(), &s);
    best = std::min(best, s);
  }
  *rows_out = rows;
  // Per-rep charge: identical across thread counts or the morsel
  // engine broke determinism.
  *tuples_out = (db->meter().tuples_processed() - t0) / kReps;
  return best;
}

}  // namespace

int main() {
  // ---- morsel-parallel scaling sweep (DESIGN.md §15) ----
  std::printf("--- parallel scaling ---\n");
  const size_t thread_counts[] = {1, 2, 4, 8};
  double wall[4] = {0, 0, 0, 0};
  size_t rows_at[4] = {0, 0, 0, 0};
  uint64_t tuples_at[4] = {0, 0, 0, 0};
  for (int i = 0; i < 4; i++) {
    wall[i] = RunScaling(thread_counts[i], &rows_at[i], &tuples_at[i]);
    if (rows_at[i] != rows_at[0] || tuples_at[i] != tuples_at[0]) {
      std::fprintf(stderr,
                   "determinism violation at %zu threads: rows %zu vs %zu, "
                   "tuple charges %llu vs %llu\n",
                   thread_counts[i], rows_at[i], rows_at[0],
                   static_cast<unsigned long long>(tuples_at[i]),
                   static_cast<unsigned long long>(tuples_at[0]));
      return 1;
    }
    std::printf("wall_ms_t%zu: %.2f\n", thread_counts[i], wall[i] * 1e3);
  }
  // Gated lower-is-better: the wall-clock ratio vs the 1-thread engine
  // (0.5 = 2x speedup; 1.0 = no scaling, e.g. a single-core host).
  for (int i = 1; i < 4; i++) {
    std::printf("parallel.t%zu_over_t1: %.3f\n", thread_counts[i],
                wall[i] / wall[0]);
  }
  return 0;
}
