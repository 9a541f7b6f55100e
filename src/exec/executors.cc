#include "exec/executors.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <iterator>
#include <utility>

#include "common/metrics_registry.h"
#include "common/task_scheduler.h"

namespace sqp {

namespace {

/// Pages of worker lookahead a parallel scan/probe keeps in flight
/// ahead of the foreground's emission cursor. Deep enough to keep a
/// handful of workers fed, shallow enough that the snapshots (one page
/// plus its decoded survivors each) stay cache-friendly.
constexpr size_t kParallelLookaheadPages = 32;

/// Register both parallel morsel families — a single parallel database
/// must surface the full catalog for the docs drift check — and return
/// the {morsels, fallbacks} pair matching this plan's priority class.
std::pair<Counter*, Counter*> ParallelCounters(bool background) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* exec_morsels = registry.GetCounter("exec.parallel.morsels");
  Counter* exec_fallbacks = registry.GetCounter("exec.parallel.fallbacks");
  Counter* spec_morsels = registry.GetCounter("spec.parallel.morsels");
  Counter* spec_fallbacks = registry.GetCounter("spec.parallel.fallbacks");
  return background ? std::make_pair(spec_morsels, spec_fallbacks)
                    : std::make_pair(exec_morsels, exec_fallbacks);
}

// Decode only column `col` from a serialized record (storage/tuple.cc
// layout: arity byte, then per column a type tag plus an 8-byte numeric
// or a u32-length string). Fixed-width columns are skipped with pointer
// arithmetic, so evaluating a predicate needs no full-row decode.
Value DecodeColumn(const uint8_t* rec, size_t col) {
  size_t off = 1;  // arity byte
  for (size_t i = 0; i < col; i++) {
    TypeId type = static_cast<TypeId>(rec[off++]);
    if (type == TypeId::kString) {
      uint32_t slen;
      std::memcpy(&slen, rec + off, sizeof(slen));
      off += sizeof(slen) + slen;
    } else {
      off += 8;
    }
  }
  TypeId type = static_cast<TypeId>(rec[off++]);
  switch (type) {
    case TypeId::kInt64: {
      int64_t v;
      std::memcpy(&v, rec + off, sizeof(v));
      return Value(v);
    }
    case TypeId::kDouble: {
      double v;
      std::memcpy(&v, rec + off, sizeof(v));
      return Value(v);
    }
    case TypeId::kString:
    default: {
      uint32_t slen;
      std::memcpy(&slen, rec + off, sizeof(slen));
      return Value(std::string(
          reinterpret_cast<const char*>(rec + off + sizeof(slen)), slen));
    }
  }
}

// EvalConjunction against the serialized record instead of a decoded
// tuple. DecodeColumn yields exactly the Value DeserializeTuple would,
// and the comparison is the same Value::Compare, so the verdict is
// bit-identical to EvalConjunction on the decoded row.
bool EvalConjunctionOnRecord(const std::vector<BoundSelection>& preds,
                             const uint8_t* rec) {
  for (const BoundSelection& p : preds) {
    Value v = DecodeColumn(rec, p.column_index);
    if (!EvalCompare(v.CompareInline(p.constant), p.op)) return false;
    // Fused BETWEEN upper bound: the column is already decoded, so the
    // second comparison costs one compare, not a second record walk.
    if (p.has_upper && !EvalCompare(v.CompareInline(p.upper), p.upper_op)) {
      return false;
    }
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------- SeqScan

SeqScanExecutor::SeqScanExecutor(const TableInfo* table, BufferPool* pool,
                                 CostMeter* meter,
                                 std::vector<BoundSelection> predicates)
    : table_(table),
      pool_(pool),
      meter_(meter),
      predicates_(std::move(predicates)) {}

SeqScanExecutor::~SeqScanExecutor() { AwaitWindow(); }

void SeqScanExecutor::EnableParallel(const ExecParallel& parallel) {
  scheduler_ = parallel.scheduler;
  background_ = parallel.background;
  if (scheduler_ == nullptr) return;
  auto counters = ParallelCounters(background_);
  m_morsels_ = counters.first;
  m_fallbacks_ = counters.second;
}

Status SeqScanExecutor::Init() {
  AwaitWindow();
  window_.clear();
  dispatch_index_ = 0;
  page_index_ = 0;
  return Status::OK();
}

void SeqScanExecutor::AwaitTask(PageTask* task) {
  if (task->done.load(std::memory_order_acquire)) return;
  scheduler_->WaitFor(
      [task] { return task->done.load(std::memory_order_acquire); });
}

void SeqScanExecutor::AwaitWindow() {
  for (auto& task : window_) AwaitTask(task.get());
}

void SeqScanExecutor::DispatchWindow() {
  const std::vector<page_id_t>& pages = table_->heap->pages();
  if (dispatch_index_ < page_index_) dispatch_index_ = page_index_;
  const size_t limit = page_index_ + kParallelLookaheadPages;
  while (dispatch_index_ < pages.size() && dispatch_index_ < limit) {
    auto task = std::make_unique<PageTask>();
    Status peeked = pool_->PeekPage(pages[dispatch_index_], &task->snapshot);
    m_morsels_->Increment();
    if (!peeked.ok()) {
      // Torn page, dead copy, crashed disk: the page goes through the
      // fully sequential path at emission, where the accountable fetch
      // reports (and charges) the failure exactly as ever.
      task->fallback = true;
      task->done.store(true, std::memory_order_release);
    } else {
      PageTask* t = task.get();
      scheduler_->Submit(
          [this, t] {
            const uint16_t nslots = t->snapshot.slot_count();
            t->nslots = nslots;
            t->rows.reserve(nslots);
            for (uint16_t s = 0; s < nslots; s++) {
              uint16_t len = 0;
              const uint8_t* rec = t->snapshot.Record(s, &len);
              if (!predicates_.empty() &&
                  !EvalConjunctionOnRecord(predicates_, rec)) {
                continue;
              }
              t->rows.emplace_back();
              DeserializeTupleInto(rec, len, &t->rows.back());
            }
            t->done.store(true, std::memory_order_release);
          },
          background_ ? TaskScheduler::Priority::kBackground
                      : TaskScheduler::Priority::kForeground);
    }
    window_.push_back(std::move(task));
    dispatch_index_++;
  }
}

void SeqScanExecutor::AppendSurvivors(const Page& page,
                                      TupleBatch* out) const {
  const uint16_t nslots = page.slot_count();
  for (uint16_t s = 0; s < nslots; s++) {
    uint16_t len = 0;
    const uint8_t* rec = page.Record(s, &len);
    if (!predicates_.empty() && !EvalConjunctionOnRecord(predicates_, rec)) {
      continue;
    }
    DeserializeTupleInto(rec, len, &out->AppendSlot());
  }
}

bool SeqScanExecutor::TakeWindowRows(uint16_t nslots, TupleBatch* out) {
  std::unique_ptr<PageTask> task = std::move(window_.front());
  window_.pop_front();
  AwaitTask(task.get());
  if (task->fallback || task->nslots != nslots) {
    m_fallbacks_->Increment();
    return false;
  }
  for (Tuple& row : task->rows) out->PushRow(std::move(row));
  return true;
}

Result<bool> SeqScanExecutor::NextBatch(TupleBatch* out) {
  out->Clear();
  const std::vector<page_id_t>& pages = table_->heap->pages();
  while (out->size() < out->target_rows() && page_index_ < pages.size()) {
    if (scheduler_ != nullptr) DispatchWindow();
    // The accountable fetch, in sequential page order: pool hit/miss
    // state, I/O charges, fault firing, and replica routing are the
    // same at every thread count (the lookahead window holds only
    // charge-free snapshots).
    const page_id_t page_id = pages[page_index_];
    auto page = pool_->FetchPage(page_id);
    if (!page.ok()) return page.status();
    PageGuard guard(pool_, page_id, *page);
    exec_internal::NotePagePinned();
    // Every slot on the page flows through the scan: one bulk CPU
    // charge per page.
    const uint16_t nslots = (*page)->slot_count();
    meter_->ChargeTuples(nslots);
    if (scheduler_ == nullptr || !TakeWindowRows(nslots, out)) {
      AppendSurvivors(**page, out);
    }
    page_index_++;
  }
  return exec_internal::FinishBatch(*out);
}

// -------------------------------------------------------------- IndexScan

IndexScanExecutor::IndexScanExecutor(const TableInfo* table,
                                     const BPlusTree* index, KeyRange range,
                                     BufferPool* pool, CostMeter* meter,
                                     std::vector<BoundSelection> residual)
    : table_(table),
      index_(index),
      range_(std::move(range)),
      pool_(pool),
      meter_(meter),
      residual_(std::move(residual)) {}

Status IndexScanExecutor::Init() {
  IndexScanStats stats;
  rids_ = index_->RangeScan(range_, &stats);
  // The memory-resident tree stands in for an on-disk B+-tree: charge
  // one block per level descended plus one per leaf touched.
  meter_->ChargeBlockRead(stats.height + stats.leaves_touched);
  pos_ = 0;
  return Status::OK();
}

Result<bool> IndexScanExecutor::NextBatch(TupleBatch* out) {
  out->Clear();
  // Heap fetches stay rid-by-rid (each may touch a different page, and
  // the fetch order is what chaos schedules key on), but the batch
  // amortizes the virtual dispatch above them.
  while (out->size() < out->target_rows() && pos_ < rids_.size()) {
    auto row = table_->heap->Fetch(rids_[pos_++]);
    if (!row.ok()) return row.status();
    meter_->ChargeTuples();
    if (EvalConjunction(residual_, *row)) {
      out->PushRow(std::move(*row));
    }
  }
  return exec_internal::FinishBatch(*out);
}

// ----------------------------------------------------------------- Filter

FilterExecutor::FilterExecutor(std::unique_ptr<Executor> child,
                               std::vector<BoundSelection> predicates,
                               CostMeter* meter)
    : child_(std::move(child)),
      predicates_(std::move(predicates)),
      meter_(meter) {}

Status FilterExecutor::Init() { return child_->Init(); }

Result<bool> FilterExecutor::NextBatch(TupleBatch* out) {
  out->Clear();
  child_batch_.set_target_rows(out->target_rows());
  while (out->size() < out->target_rows()) {
    auto more = child_->NextBatch(&child_batch_);
    if (!more.ok()) return more.status();
    if (child_batch_.empty()) break;
    meter_->ChargeTuples(child_batch_.size());
    EvalConjunctionBatch(predicates_, child_batch_.begin(),
                         child_batch_.size(), &selection_);
    for (uint32_t idx : selection_) {
      out->PushRow(std::move(child_batch_[idx]));
    }
  }
  return exec_internal::FinishBatch(*out);
}

// ---------------------------------------------------------------- Project

ProjectExecutor::ProjectExecutor(std::unique_ptr<Executor> child,
                                 std::vector<size_t> column_indices,
                                 CostMeter* meter)
    : child_(std::move(child)),
      indices_(std::move(column_indices)),
      meter_(meter) {
  std::vector<Column> cols;
  cols.reserve(indices_.size());
  for (size_t idx : indices_) {
    cols.push_back(child_->output_schema().column(idx));
  }
  schema_ = Schema(std::move(cols));
}

Status ProjectExecutor::Init() { return child_->Init(); }

Result<bool> ProjectExecutor::NextBatch(TupleBatch* out) {
  out->Clear();
  child_batch_.set_target_rows(out->target_rows());
  while (out->size() < out->target_rows()) {
    auto more = child_->NextBatch(&child_batch_);
    if (!more.ok()) return more.status();
    if (child_batch_.empty()) break;
    meter_->ChargeTuples(child_batch_.size());
    for (Tuple& row : child_batch_) {
      Tuple& projected = out->AppendSlot();
      projected.clear();  // recycled slots may hold stale values
      projected.reserve(indices_.size());
      for (size_t idx : indices_) projected.push_back(std::move(row[idx]));
    }
  }
  return exec_internal::FinishBatch(*out);
}

// --------------------------------------------------------------- HashJoin

HashJoinExecutor::HashJoinExecutor(std::unique_ptr<Executor> build,
                                   std::unique_ptr<Executor> probe,
                                   size_t build_key, size_t probe_key,
                                   CostMeter* meter, size_t build_rows_hint)
    : build_(std::move(build)),
      probe_(std::move(probe)),
      build_key_(build_key),
      probe_key_(probe_key),
      meter_(meter),
      build_rows_hint_(build_rows_hint) {
  schema_ = build_->output_schema().Concat(probe_->output_schema());
}

HashJoinExecutor::~HashJoinExecutor() { AwaitFusedWindow(); }

void HashJoinExecutor::EnableParallel(const ExecParallel& parallel) {
  scheduler_ = parallel.scheduler;
  background_ = parallel.background;
  if (scheduler_ == nullptr) return;
  auto counters = ParallelCounters(background_);
  m_morsels_ = counters.first;
  m_fallbacks_ = counters.second;
}

Status HashJoinExecutor::Init() {
  AwaitFusedWindow();
  fused_window_.clear();
  group_.clear();
  fused_scan_ = nullptr;
  fused_dispatch_ = 0;
  fused_page_ = 0;
  group_task_ = 0;
  group_row_ = 0;
  group_out_ = 0;
  SQP_RETURN_IF_ERROR(build_->Init());
  SQP_RETURN_IF_ERROR(probe_->Init());
  size_t build_bytes = 0;
  if (build_rows_hint_ > 0) {
    build_rows_.reserve(build_rows_hint_);
  }
  TupleBatch batch;
  for (;;) {
    auto more = build_->NextBatch(&batch);
    if (!more.ok()) return more.status();
    if (batch.empty()) break;
    meter_->ChargeTuples(batch.size());
    for (Tuple& row : batch) {
      build_bytes += SerializedTupleSize(row);
      build_rows_.push_back(std::move(row));
    }
  }
  // Build the flat table in one pass now that the row count is known:
  // power-of-two buckets at ~2x occupancy headroom. Inserting in
  // reverse makes each chain run in insertion order, so matches emit
  // in the same order the per-bucket vectors used to.
  if (!build_rows_.empty()) {
    size_t buckets = 1;
    while (buckets < build_rows_.size() * 2) buckets <<= 1;
    bucket_mask_ = buckets - 1;
    heads_.assign(buckets, -1);
    next_.resize(build_rows_.size());
    const size_t n = build_rows_.size();
    std::vector<uint64_t> hashes(n);
    constexpr size_t kHashChunk = 8192;
    if (scheduler_ != nullptr && n >= 2 * kHashChunk) {
      // Partitioned build (DESIGN.md §15): workers hash disjoint row
      // ranges in parallel; the chain links below are applied
      // sequentially in the same reverse order as ever, so insertion
      // order — and with it match emission order — is unchanged.
      const size_t chunks = (n + kHashChunk - 1) / kHashChunk;
      std::atomic<size_t> hashed{0};
      for (size_t c = 0; c < chunks; c++) {
        const size_t begin = c * kHashChunk;
        const size_t end = std::min(n, begin + kHashChunk);
        scheduler_->Submit(
            [this, &hashes, &hashed, begin, end] {
              for (size_t i = begin; i < end; i++) {
                hashes[i] = build_rows_[i][build_key_].HashInline();
              }
              hashed.fetch_add(1, std::memory_order_release);
            },
            background_ ? TaskScheduler::Priority::kBackground
                        : TaskScheduler::Priority::kForeground);
      }
      scheduler_->WaitFor([&hashed, chunks] {
        return hashed.load(std::memory_order_acquire) == chunks;
      });
    } else {
      for (size_t i = 0; i < n; i++) {
        hashes[i] = build_rows_[i][build_key_].HashInline();
      }
    }
    for (size_t i = n; i-- > 0;) {
      size_t b = hashes[i] & bucket_mask_;
      next_[i] = heads_[b];
      heads_[b] = static_cast<int32_t>(i);
    }
  }
  // Grace spill: build side over budget means both inputs take an extra
  // partition-write + re-read pass. The build side is charged here; the
  // probe side is charged page by page as it streams
  // (ChargeSpilledProbeRow).
  spilled_ = build_bytes >
             meter_->config().hash_join_memory_pages * kPageSize;
  if (spilled_) {
    uint64_t build_pages =
        static_cast<uint64_t>(build_bytes / kPageSize) + 1;
    meter_->ChargeBlockWrite(build_pages);
    meter_->ChargeBlockRead(build_pages);
  }
  // Fused parallel probe (DESIGN.md §15): only over a bare SeqScan
  // child (a profiled wrapper fails the cast, keeping EXPLAIN ANALYZE
  // actuals byte-identical) and only in-memory (the spilled path's
  // per-row byte-stream charges depend on probe row order at charge
  // time). The hash table is frozen from here on, so workers can probe
  // it lock-free.
  if (scheduler_ != nullptr && !spilled_) {
    fused_scan_ = dynamic_cast<SeqScanExecutor*>(probe_.get());
  }
  if (fused_scan_ != nullptr) DispatchFused();
  return Status::OK();
}

void HashJoinExecutor::ProbePageInto(const Page& page,
                                     ProbeTask* task) const {
  const std::vector<BoundSelection>& preds = fused_scan_->predicates();
  const uint16_t nslots = page.slot_count();
  task->nslots = nslots;
  task->match_counts.clear();
  task->out_rows.clear();
  Tuple probe;
  for (uint16_t s = 0; s < nslots; s++) {
    uint16_t len = 0;
    const uint8_t* rec = page.Record(s, &len);
    if (!preds.empty() && !EvalConjunctionOnRecord(preds, rec)) continue;
    probe.clear();
    DeserializeTupleInto(rec, len, &probe);
    uint32_t matches = 0;
    const Value& key = probe[probe_key_];
    for (int32_t idx = BucketHead(key); idx >= 0; idx = next_[idx]) {
      const Tuple& build_row = build_rows_[idx];
      if (build_row[build_key_].CompareInline(key) != 0) {
        continue;  // bucket shared by a different key
      }
      task->out_rows.push_back(ConcatRows(build_row, probe));
      matches++;
    }
    task->match_counts.push_back(matches);
  }
}

void HashJoinExecutor::AwaitProbeTask(ProbeTask* task) {
  if (task->done.load(std::memory_order_acquire)) return;
  scheduler_->WaitFor(
      [task] { return task->done.load(std::memory_order_acquire); });
}

void HashJoinExecutor::AwaitFusedWindow() {
  for (auto& task : fused_window_) AwaitProbeTask(task.get());
}

void HashJoinExecutor::DispatchFused() {
  const std::vector<page_id_t>& pages = fused_scan_->table()->heap->pages();
  if (fused_dispatch_ < fused_page_) fused_dispatch_ = fused_page_;
  const size_t limit = fused_page_ + kParallelLookaheadPages;
  while (fused_dispatch_ < pages.size() && fused_dispatch_ < limit) {
    auto task = std::make_unique<ProbeTask>();
    Status peeked =
        fused_scan_->pool()->PeekPage(pages[fused_dispatch_], &task->snapshot);
    m_morsels_->Increment();
    if (!peeked.ok()) {
      task->fallback = true;
      task->done.store(true, std::memory_order_release);
    } else {
      ProbeTask* t = task.get();
      scheduler_->Submit(
          [this, t] {
            ProbePageInto(t->snapshot, t);
            t->done.store(true, std::memory_order_release);
          },
          background_ ? TaskScheduler::Priority::kBackground
                      : TaskScheduler::Priority::kForeground);
    }
    fused_window_.push_back(std::move(task));
    fused_dispatch_++;
  }
}

Result<bool> HashJoinExecutor::NextBatchFused(TupleBatch* out) {
  out->Clear();
  const std::vector<page_id_t>& pages = fused_scan_->table()->heap->pages();
  BufferPool* pool = fused_scan_->pool();
  while (out->size() < out->target_rows()) {
    if (group_task_ >= group_.size()) {
      // Form the next probe batch exactly as the sequential scan
      // would: whole pages, fetched and charged in page order, until
      // the surviving-row count reaches the batch target or the table
      // is exhausted.
      group_.clear();
      group_task_ = 0;
      group_row_ = 0;
      group_out_ = 0;
      size_t survivors = 0;
      const size_t scan_target = out->target_rows();
      while (survivors < scan_target && fused_page_ < pages.size()) {
        DispatchFused();
        const page_id_t page_id = pages[fused_page_];
        auto page = pool->FetchPage(page_id);
        if (!page.ok()) return page.status();
        PageGuard guard(pool, page_id, *page);
        exec_internal::NotePagePinned();
        std::unique_ptr<ProbeTask> task = std::move(fused_window_.front());
        fused_window_.pop_front();
        const uint16_t nslots = (*page)->slot_count();
        meter_->ChargeTuples(nslots);  // the scan's bulk per-page charge
        AwaitProbeTask(task.get());
        if (task->fallback || task->nslots != nslots) {
          m_fallbacks_->Increment();
          ProbePageInto(**page, task.get());
        }
        survivors += task->match_counts.size();
        group_.push_back(std::move(task));
        fused_page_++;
      }
      if (survivors == 0) break;  // probe side exhausted: end of join
      // The join's bulk charge for the pulled probe batch — the
      // sequential ChargeTuples(probe_batch_.size()).
      meter_->ChargeTuples(survivors);
    }
    // Emit, probe row by probe row: a row's matches flush in full
    // (batches overshoot their soft target), the cursors carrying a
    // partially-emitted group across NextBatch calls exactly like the
    // sequential probe_pos_ cursor.
    while (group_task_ < group_.size() &&
           out->size() < out->target_rows()) {
      ProbeTask& task = *group_[group_task_];
      while (group_row_ < task.match_counts.size() &&
             out->size() < out->target_rows()) {
        const uint32_t matches = task.match_counts[group_row_++];
        meter_->ChargeTuples(matches);
        for (uint32_t m = 0; m < matches; m++) {
          out->PushRow(std::move(task.out_rows[group_out_++]));
        }
      }
      if (group_row_ >= task.match_counts.size()) {
        group_task_++;
        group_row_ = 0;
        group_out_ = 0;
      }
    }
  }
  return exec_internal::FinishBatch(*out);
}

void HashJoinExecutor::ChargeSpilledProbeRow(const Tuple& row) {
  meter_->ChargeTuples();
  probe_spill_bytes_ += SerializedTupleSize(row);
  while (probe_spill_bytes_ >= kPageSize) {
    meter_->ChargeBlockWrite();
    meter_->ChargeBlockRead();
    probe_spill_bytes_ -= kPageSize;
  }
}

Tuple HashJoinExecutor::ConcatRows(const Tuple& build_row,
                                   const Tuple& probe_row) {
  Tuple out;
  out.reserve(build_row.size() + probe_row.size());
  out.insert(out.end(), build_row.begin(), build_row.end());
  out.insert(out.end(), probe_row.begin(), probe_row.end());
  return out;
}

Result<bool> HashJoinExecutor::NextBatch(TupleBatch* out) {
  if (fused_scan_ != nullptr) return NextBatchFused(out);
  out->Clear();
  while (out->size() < out->target_rows()) {
    if (probe_pos_ >= probe_batch_.size()) {
      probe_batch_.set_target_rows(out->target_rows());
      auto more = probe_->NextBatch(&probe_batch_);
      if (!more.ok()) return more.status();
      if (probe_batch_.empty()) break;
      probe_pos_ = 0;
      if (!spilled_) {
        // One bulk CPU charge for the pulled rows, made before the
        // next fault opportunity (a page fetch), so totals agree
        // across batch sizes at every abort point too.
        meter_->ChargeTuples(probe_batch_.size());
      }
    }
    // A probe row's matches are flushed in full (batches may overshoot
    // their soft target), so no partial-match cursor is needed here.
    const Tuple& probe = probe_batch_[probe_pos_++];
    if (spilled_) ChargeSpilledProbeRow(probe);
    for (int32_t idx = BucketHead(probe[probe_key_]); idx >= 0;
         idx = next_[idx]) {
      const Tuple& build_row = build_rows_[idx];
      if (build_row[build_key_].CompareInline(probe[probe_key_]) != 0) {
        continue;  // bucket shared by a different key
      }
      meter_->ChargeTuples();
      // Concat into a recycled slot with inlined per-value copies,
      // avoiding a per-output-row malloc and the variant copy
      // visitation of ConcatRows. A recycled slot of the right width
      // is overwritten in place so its element storage is reused too.
      exec_internal::ConcatInto(out->AppendSlot(), build_row, probe);
    }
  }
  return exec_internal::FinishBatch(*out);
}

// --------------------------------------------------------- NestedLoopJoin

NestedLoopJoinExecutor::NestedLoopJoinExecutor(
    std::unique_ptr<Executor> outer, std::unique_ptr<Executor> inner,
    std::vector<JoinCondition> conditions, CostMeter* meter)
    : outer_(std::move(outer)),
      inner_(std::move(inner)),
      conditions_(std::move(conditions)),
      meter_(meter) {
  schema_ = outer_->output_schema().Concat(inner_->output_schema());
}

Status NestedLoopJoinExecutor::Init() {
  SQP_RETURN_IF_ERROR(outer_->Init());
  SQP_RETURN_IF_ERROR(inner_->Init());
  TupleBatch batch;
  for (;;) {
    auto more = inner_->NextBatch(&batch);
    if (!more.ok()) return more.status();
    if (batch.empty()) break;
    meter_->ChargeTuples(batch.size());
    inner_rows_.insert(inner_rows_.end(),
                       std::make_move_iterator(batch.begin()),
                       std::make_move_iterator(batch.end()));
  }
  return Status::OK();
}

bool NestedLoopJoinExecutor::MatchesConditions(const Tuple& outer_row,
                                               const Tuple& inner_row) const {
  for (const auto& c : conditions_) {
    int cmp = outer_row[c.left_index].Compare(
        inner_row[c.right_index - outer_row.size()]);
    if (!EvalCompare(cmp, c.op)) return false;
  }
  return true;
}

Result<bool> NestedLoopJoinExecutor::NextBatch(TupleBatch* out) {
  out->Clear();
  while (out->size() < out->target_rows()) {
    if (outer_pos_ >= outer_batch_.size()) {
      outer_batch_.set_target_rows(out->target_rows());
      auto more = outer_->NextBatch(&outer_batch_);
      if (!more.ok()) return more.status();
      if (outer_batch_.empty()) break;
      outer_pos_ = 0;
    }
    // Each outer row runs the full inner loop before the next one: one
    // charge for the outer row plus one per inner row examined.
    const Tuple& outer_row = outer_batch_[outer_pos_++];
    meter_->ChargeTuples();
    meter_->ChargeTuples(inner_rows_.size());
    for (const Tuple& inner_row : inner_rows_) {
      if (MatchesConditions(outer_row, inner_row)) {
        exec_internal::ConcatInto(out->AppendSlot(), outer_row, inner_row);
      }
    }
  }
  return exec_internal::FinishBatch(*out);
}

// ----------------------------------------------------------- ColumnFilter

ColumnFilterExecutor::ColumnFilterExecutor(std::unique_ptr<Executor> child,
                                           std::vector<Condition> conditions,
                                           CostMeter* meter)
    : child_(std::move(child)),
      conditions_(std::move(conditions)),
      meter_(meter) {}

Status ColumnFilterExecutor::Init() { return child_->Init(); }

bool ColumnFilterExecutor::Passes(const Tuple& row) const {
  for (const auto& c : conditions_) {
    int cmp = row[c.left_index].Compare(row[c.right_index]);
    if (!EvalCompare(cmp, c.op)) return false;
  }
  return true;
}

Result<bool> ColumnFilterExecutor::NextBatch(TupleBatch* out) {
  out->Clear();
  child_batch_.set_target_rows(out->target_rows());
  while (out->size() < out->target_rows()) {
    auto more = child_->NextBatch(&child_batch_);
    if (!more.ok()) return more.status();
    if (child_batch_.empty()) break;
    meter_->ChargeTuples(child_batch_.size());
    for (Tuple& row : child_batch_) {
      if (Passes(row)) out->PushRow(std::move(row));
    }
  }
  return exec_internal::FinishBatch(*out);
}

// ------------------------------------------------------------------ Drain

Result<std::vector<Tuple>> DrainExecutor(Executor* exec, size_t batch_size) {
  SQP_RETURN_IF_ERROR(exec->Init());
  std::vector<Tuple> out;
  TupleBatch batch(batch_size);
  for (;;) {
    auto more = exec->NextBatch(&batch);
    if (!more.ok()) return more.status();
    if (batch.empty()) return out;
    // insert() grows geometrically, so the drain stays amortized O(n)
    // without knowing the result size up front.
    out.insert(out.end(), std::make_move_iterator(batch.begin()),
               std::make_move_iterator(batch.end()));
  }
}

}  // namespace sqp
