// Redo manifest: the database's durable metadata log.
//
// The paper's speculation subsystem sits on a real DBMS whose committed
// state survives failures while speculative materializations are
// disposable (§3.1). Our simulated engine reproduces that contract with
// a small ARIES-flavoured redo log of *metadata* operations: DDL, bulk
// load completion, index/histogram creation, materialized-view
// registration, and drops. Page contents are made durable by
// DiskManager::Sync() *before* the covering manifest record commits
// (write-ahead discipline), so a committed record always describes
// pages whose bytes — and checksums — are already on disk.
//
// This header holds the record format and the fold. The log itself is
// ReplicatedManifest (replicated_manifest.h): records are staged with
// Append() and become durable atomically with Commit(): a crash
// discards the staged tail but never splits a commit group.
// Database::Reopen() folds the committed records into the final
// logical state and rebuilds catalog/views from it; live disk pages not
// referenced by any recovered table are orphans (half-built speculative
// materializations) and are garbage-collected.
//
// The manifest lives in memory but models a durable file: it survives
// DiskManager::SimulateCrash() untouched except for its staged tail.
#pragma once

#include <string>
#include <vector>

#include "catalog/schema.h"
#include "optimizer/query_graph.h"
#include "storage/page.h"

namespace sqp {

enum class ManifestRecordType {
  kCreateTable,      // table, schema, is_materialized
  kBulkLoadCommit,   // table, pages, tuple_count (cumulative)
  kCreateIndex,      // table, column
  kDropIndex,        // table, column
  kCreateHistogram,  // table, column
  kDropHistogram,    // table, column
  kRegisterView,     // table, view_definition
  kDropTable,        // table (also drops its indexes/histograms/view)
  kShardMove,        // shard, target_node (slot re-homed by rebalance)
  kRepair,           // table carries a note (re-protection marker)
};

struct ManifestRecord {
  ManifestRecordType type = ManifestRecordType::kCreateTable;
  std::string table;
  std::string column;
  Schema schema;
  bool is_materialized = false;
  std::vector<page_id_t> pages;
  uint64_t tuple_count = 0;
  QueryGraph view_definition;
  /// kShardMove: which slot moved and where it now lives.
  uint64_t shard = 0;
  uint32_t target_node = 0;

  static ManifestRecord CreateTable(std::string table, Schema schema,
                                    bool is_materialized);
  static ManifestRecord BulkLoadCommit(std::string table,
                                       std::vector<page_id_t> pages,
                                       uint64_t tuple_count);
  static ManifestRecord CreateIndex(std::string table, std::string column);
  static ManifestRecord DropIndex(std::string table, std::string column);
  static ManifestRecord CreateHistogram(std::string table,
                                        std::string column);
  static ManifestRecord DropHistogram(std::string table, std::string column);
  static ManifestRecord RegisterView(std::string table,
                                     QueryGraph definition);
  static ManifestRecord DropTable(std::string table);
  static ManifestRecord ShardMove(uint64_t shard, uint32_t target_node);
  static ManifestRecord Repair(std::string note);
};

/// Final logical state after folding a committed record sequence:
/// exactly what Reopen() must rebuild.
struct ManifestTableState {
  Schema schema;
  bool is_materialized = false;
  std::vector<page_id_t> pages;
  uint64_t tuple_count = 0;
  std::vector<std::string> index_columns;
  std::vector<std::string> histogram_columns;
  bool has_view = false;
  QueryGraph view_definition;
};

struct ManifestFoldResult {
  /// Insertion-ordered (creation order) surviving tables.
  std::vector<std::pair<std::string, ManifestTableState>> tables;
};

/// Fold committed records front to back: later records supersede
/// earlier ones; a kDropTable erases the table and everything hanging
/// off it (mirroring Catalog::DropTable).
ManifestFoldResult FoldManifest(const std::vector<ManifestRecord>& records);

}  // namespace sqp
