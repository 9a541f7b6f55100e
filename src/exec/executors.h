// Batch-at-a-time executors.
//
// Every executor charges CPU work per tuple it processes through the
// shared CostMeter; page traffic charges I/O inside the buffer pool.
// Together these produce the simulated execution times the experiments
// bucket queries by.
//
// Execution model (DESIGN.md §10): NextBatch() is the only way to pull
// rows, moving ~kDefaultExecBatchSize rows per virtual call. Simulated
// charges are per tuple and per page, so they do not depend on how rows
// are grouped into batches — only real wall-clock does.
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <vector>

#include "catalog/catalog.h"
#include "common/cost_meter.h"
#include "common/status.h"
#include "exec/expression.h"
#include "exec/tuple_batch.h"
#include "index/bplus_tree.h"

namespace sqp {

class Counter;
class TaskScheduler;

/// Parallel-execution context threaded from DatabaseOptions into the
/// executors that have a parallel batch path (DESIGN.md §15). A null
/// scheduler (exec_threads = 1) leaves every executor on its original
/// single-threaded code path, bit-identical to the pre-parallel engine.
/// `background` routes this plan's worker tasks to the scheduler's
/// background queues — speculative materializations soak up idle
/// workers without delaying interactive query morsels.
struct ExecParallel {
  TaskScheduler* scheduler = nullptr;
  bool background = false;
};

class Executor {
 public:
  virtual ~Executor() = default;

  /// Prepare for iteration. Must be called exactly once before
  /// NextBatch().
  virtual Status Init() = 0;

  /// Fill `out` (cleared first) with up to ~out->target_rows() tuples;
  /// page-at-a-time producers may overshoot by up to one page. Returns
  /// false exactly at end of stream (empty batch).
  virtual Result<bool> NextBatch(TupleBatch* out) = 0;

  virtual const Schema& output_schema() const = 0;
};

/// Full scan of a heap file, with optional pushed-down predicates.
///
/// Page-at-a-time: one buffer-pool pin per page serves every tuple on
/// it, and a batch always finishes the page it pinned. The scan
/// late-materializes: it evaluates the pushed-down predicates directly
/// against each slot's serialized bytes (skipping columns is a few
/// adds) and fully decodes only surviving rows, into recycled batch
/// slots.
class SeqScanExecutor : public Executor {
 public:
  SeqScanExecutor(const TableInfo* table, BufferPool* pool, CostMeter* meter,
                  std::vector<BoundSelection> predicates = {});
  ~SeqScanExecutor() override;

  /// Run NextBatch with page-morsel worker lookahead (DESIGN.md §15):
  /// workers evaluate predicates and decode survivors on side-effect-free
  /// page snapshots while the foreground thread replays the accountable
  /// page fetches — and every charge — in sequential order. Rows, their
  /// order, and all CostMeter totals are bit-identical to the
  /// single-threaded scan at any worker count.
  void EnableParallel(const ExecParallel& parallel);

  // Fused-probe accessors (HashJoinExecutor drives the scan's pages
  // itself when it fuses a parallel probe over a bare SeqScan child).
  const TableInfo* table() const { return table_; }
  BufferPool* pool() const { return pool_; }
  const std::vector<BoundSelection>& predicates() const {
    return predicates_;
  }

  Status Init() override;
  Result<bool> NextBatch(TupleBatch* out) override;
  const Schema& output_schema() const override { return table_->schema; }

 private:
  /// One page of worker lookahead: the foreground snapshots the page
  /// bytes (PeekPage — no charge, no fault points), a worker evaluates
  /// the pushed-down predicates against the serialized records and
  /// decodes the survivors, and the foreground consumes the rows when
  /// it replays the page's accountable fetch.
  struct PageTask {
    Page snapshot;
    uint16_t nslots = 0;
    std::vector<Tuple> rows;  // surviving decoded rows, slot order
    bool fallback = false;    // peek failed: process the page inline
    std::atomic<bool> done{false};
  };

  /// Late materialization: evaluate the pushed-down predicates against
  /// each serialized record of `page` and decode only the survivors,
  /// into recycled batch slots.
  void AppendSurvivors(const Page& page, TupleBatch* out) const;
  /// Move the worker-decoded rows of the window's front page (which has
  /// `nslots` slots) into `out`. Returns false, consuming the task,
  /// when the snapshot is unusable and the page must go inline.
  bool TakeWindowRows(uint16_t nslots, TupleBatch* out);
  /// Keep the lookahead window primed: peek + submit pages up to the
  /// window bound ahead of the emission cursor.
  void DispatchWindow();
  /// Execute queued tasks on this thread until `task` completes.
  void AwaitTask(PageTask* task);
  /// Drain every in-flight window task (Init / destruction).
  void AwaitWindow();

  const TableInfo* table_;
  BufferPool* pool_;
  CostMeter* meter_;
  std::vector<BoundSelection> predicates_;

  // Next page to fetch.
  size_t page_index_ = 0;

  // Parallel lookahead state (unused until EnableParallel).
  TaskScheduler* scheduler_ = nullptr;
  bool background_ = false;
  std::deque<std::unique_ptr<PageTask>> window_;
  size_t dispatch_index_ = 0;
  Counter* m_morsels_ = nullptr;
  Counter* m_fallbacks_ = nullptr;
};

/// Index range scan + heap fetches, with residual predicates.
/// Charges the B+-tree's height + leaf touches as simulated I/O (the
/// tree is memory-resident; see index/bplus_tree.h).
class IndexScanExecutor : public Executor {
 public:
  IndexScanExecutor(const TableInfo* table, const BPlusTree* index,
                    KeyRange range, BufferPool* pool, CostMeter* meter,
                    std::vector<BoundSelection> residual = {});

  Status Init() override;
  Result<bool> NextBatch(TupleBatch* out) override;
  const Schema& output_schema() const override { return table_->schema; }

 private:
  const TableInfo* table_;
  const BPlusTree* index_;
  KeyRange range_;
  BufferPool* pool_;
  CostMeter* meter_;
  std::vector<BoundSelection> residual_;
  std::vector<Rid> rids_;
  size_t pos_ = 0;
};

/// Filter on top of any child.
class FilterExecutor : public Executor {
 public:
  FilterExecutor(std::unique_ptr<Executor> child,
                 std::vector<BoundSelection> predicates, CostMeter* meter);

  Status Init() override;
  Result<bool> NextBatch(TupleBatch* out) override;
  const Schema& output_schema() const override {
    return child_->output_schema();
  }

 private:
  std::unique_ptr<Executor> child_;
  std::vector<BoundSelection> predicates_;
  CostMeter* meter_;
  TupleBatch child_batch_;
  std::vector<uint32_t> selection_;
};

/// Column projection.
class ProjectExecutor : public Executor {
 public:
  ProjectExecutor(std::unique_ptr<Executor> child,
                  std::vector<size_t> column_indices, CostMeter* meter);

  Status Init() override;
  Result<bool> NextBatch(TupleBatch* out) override;
  const Schema& output_schema() const override { return schema_; }

 private:
  std::unique_ptr<Executor> child_;
  std::vector<size_t> indices_;
  CostMeter* meter_;
  Schema schema_;
  TupleBatch child_batch_;
};

/// Hash equijoin; builds on the left child, probes with the right.
/// Output schema = left ++ right.
///
/// The build side is one contiguous row vector (reserved up front from
/// the planner's cardinality estimate) indexed by a flat chained hash
/// table: `heads_[bucket]` holds the first row ordinal and `next_`
/// links rows of the same bucket in insertion order. A probe is one
/// array load plus a chain walk over rows it must compare anyway —
/// no node allocations or per-bucket vectors.
///
/// Memory-bounded (Grace) behaviour: when the build side outgrows the
/// configured hash_join_memory_pages, the join charges one extra
/// write+read pass over both inputs (the partitioning spill), as a
/// 2003-era system with a small hash area would.
class HashJoinExecutor : public Executor {
 public:
  /// `build_rows_hint` pre-reserves the build vector (0 = no hint);
  /// the planner passes its build-side cardinality estimate.
  HashJoinExecutor(std::unique_ptr<Executor> build,
                   std::unique_ptr<Executor> probe, size_t build_key,
                   size_t probe_key, CostMeter* meter,
                   size_t build_rows_hint = 0);
  ~HashJoinExecutor() override;

  /// Parallelize this join (DESIGN.md §15): the build side's hash
  /// computation is partitioned over workers (chain links are still
  /// applied sequentially, so insertion order — and output order — is
  /// unchanged), and when the probe child is a bare SeqScan the probe
  /// is fused: workers filter, decode, and pre-join whole probe pages
  /// against the frozen hash table while the foreground replays the
  /// accountable page fetches and charges in sequential order. A
  /// profiled (EXPLAIN ANALYZE) or spilled join keeps the sequential
  /// probe path automatically.
  void EnableParallel(const ExecParallel& parallel);

  bool spilled() const { return spilled_; }

  Status Init() override;
  Result<bool> NextBatch(TupleBatch* out) override;
  const Schema& output_schema() const override { return schema_; }

 private:
  /// One probe page of fused lookahead: per surviving probe row, its
  /// match count and the fully concatenated output rows, precomputed
  /// against the frozen build table.
  struct ProbeTask {
    Page snapshot;
    uint16_t nslots = 0;
    std::vector<uint32_t> match_counts;  // per surviving probe row
    std::vector<Tuple> out_rows;         // all matches, emission order
    bool fallback = false;               // peek failed: probe inline
    std::atomic<bool> done{false};
  };

  /// Charge one probe-side row of a spilled join: CPU plus the
  /// streaming partition write + re-read of its bytes.
  void ChargeSpilledProbeRow(const Tuple& row);
  /// Concatenate build ++ probe into one pre-sized output row.
  static Tuple ConcatRows(const Tuple& build_row, const Tuple& probe_row);

  std::unique_ptr<Executor> build_;
  std::unique_ptr<Executor> probe_;
  size_t build_key_;
  size_t probe_key_;
  CostMeter* meter_;
  size_t build_rows_hint_;
  Schema schema_;

  /// First build-row ordinal of the probe key's bucket, or -1.
  int32_t BucketHead(const Value& key) const {
    return heads_.empty()
               ? -1
               : heads_[key.HashInline() & bucket_mask_];
  }

  std::vector<Tuple> build_rows_;
  // Flat chained hash table over build_rows_ (see class comment).
  std::vector<int32_t> heads_;
  std::vector<int32_t> next_;
  size_t bucket_mask_ = 0;
  bool spilled_ = false;
  size_t probe_spill_bytes_ = 0;

  // Probe cursor.
  TupleBatch probe_batch_;
  size_t probe_pos_ = 0;

  /// Filter + decode + probe one page's records into `task` (worker
  /// body and foreground fallback; touches only frozen post-build
  /// state).
  void ProbePageInto(const Page& page, ProbeTask* task) const;
  Result<bool> NextBatchFused(TupleBatch* out);
  void DispatchFused();
  void AwaitProbeTask(ProbeTask* task);
  void AwaitFusedWindow();

  // Parallel state (unused until EnableParallel).
  TaskScheduler* scheduler_ = nullptr;
  bool background_ = false;
  /// Probe-side scan the fused path drives directly (null when fusion
  /// does not apply: no scheduler, spilled build, wrapped probe child).
  SeqScanExecutor* fused_scan_ = nullptr;
  std::deque<std::unique_ptr<ProbeTask>> fused_window_;
  size_t fused_dispatch_ = 0;  // next probe page to peek + submit
  size_t fused_page_ = 0;      // next probe page to fetch (group build)
  // Current emission group: the pages forming one sequential probe
  // batch, with cursors carrying partial emission across NextBatch
  // calls exactly like the sequential probe_pos_ cursor.
  std::vector<std::unique_ptr<ProbeTask>> group_;
  size_t group_task_ = 0;
  size_t group_row_ = 0;
  size_t group_out_ = 0;
  Counter* m_morsels_ = nullptr;
  Counter* m_fallbacks_ = nullptr;
};

/// Nested-loop join for arbitrary (or absent) join predicates; the inner
/// child is materialized in memory once. Used for cross products and
/// non-equijoin conditions.
class NestedLoopJoinExecutor : public Executor {
 public:
  /// `condition` may be empty (cross product). Column indices refer to
  /// the concatenated output schema.
  struct JoinCondition {
    size_t left_index;
    size_t right_index;
    CompareOp op = CompareOp::kEq;
  };

  NestedLoopJoinExecutor(std::unique_ptr<Executor> outer,
                         std::unique_ptr<Executor> inner,
                         std::vector<JoinCondition> conditions,
                         CostMeter* meter);

  Status Init() override;
  Result<bool> NextBatch(TupleBatch* out) override;
  const Schema& output_schema() const override { return schema_; }

 private:
  bool MatchesConditions(const Tuple& outer_row,
                         const Tuple& inner_row) const;

  std::unique_ptr<Executor> outer_;
  std::unique_ptr<Executor> inner_;
  std::vector<JoinCondition> conditions_;
  CostMeter* meter_;
  Schema schema_;

  std::vector<Tuple> inner_rows_;

  // Outer cursor.
  TupleBatch outer_batch_;
  size_t outer_pos_ = 0;
};

/// Filter on column-column conditions within one tuple (used for the
/// residual edges of multi-edge join connections, e.g. the composite
/// lineitem–partsupp join).
class ColumnFilterExecutor : public Executor {
 public:
  struct Condition {
    size_t left_index;
    size_t right_index;
    CompareOp op = CompareOp::kEq;
  };

  ColumnFilterExecutor(std::unique_ptr<Executor> child,
                       std::vector<Condition> conditions, CostMeter* meter);

  Status Init() override;
  Result<bool> NextBatch(TupleBatch* out) override;
  const Schema& output_schema() const override {
    return child_->output_schema();
  }

 private:
  bool Passes(const Tuple& row) const;

  std::unique_ptr<Executor> child_;
  std::vector<Condition> conditions_;
  CostMeter* meter_;
  TupleBatch child_batch_;
};

/// Drain an executor into a vector (test/example convenience), batch at
/// a time.
Result<std::vector<Tuple>> DrainExecutor(
    Executor* exec, size_t batch_size = kDefaultExecBatchSize);

}  // namespace sqp
