#include "db/manifest.h"

#include <algorithm>

namespace sqp {

ManifestRecord ManifestRecord::CreateTable(std::string table, Schema schema,
                                           bool is_materialized) {
  ManifestRecord r;
  r.type = ManifestRecordType::kCreateTable;
  r.table = std::move(table);
  r.schema = std::move(schema);
  r.is_materialized = is_materialized;
  return r;
}

ManifestRecord ManifestRecord::BulkLoadCommit(std::string table,
                                              std::vector<page_id_t> pages,
                                              uint64_t tuple_count) {
  ManifestRecord r;
  r.type = ManifestRecordType::kBulkLoadCommit;
  r.table = std::move(table);
  r.pages = std::move(pages);
  r.tuple_count = tuple_count;
  return r;
}

ManifestRecord ManifestRecord::CreateIndex(std::string table,
                                           std::string column) {
  ManifestRecord r;
  r.type = ManifestRecordType::kCreateIndex;
  r.table = std::move(table);
  r.column = std::move(column);
  return r;
}

ManifestRecord ManifestRecord::DropIndex(std::string table,
                                         std::string column) {
  ManifestRecord r;
  r.type = ManifestRecordType::kDropIndex;
  r.table = std::move(table);
  r.column = std::move(column);
  return r;
}

ManifestRecord ManifestRecord::CreateHistogram(std::string table,
                                               std::string column) {
  ManifestRecord r;
  r.type = ManifestRecordType::kCreateHistogram;
  r.table = std::move(table);
  r.column = std::move(column);
  return r;
}

ManifestRecord ManifestRecord::DropHistogram(std::string table,
                                             std::string column) {
  ManifestRecord r;
  r.type = ManifestRecordType::kDropHistogram;
  r.table = std::move(table);
  r.column = std::move(column);
  return r;
}

ManifestRecord ManifestRecord::RegisterView(std::string table,
                                            QueryGraph definition) {
  ManifestRecord r;
  r.type = ManifestRecordType::kRegisterView;
  r.table = std::move(table);
  r.view_definition = std::move(definition);
  return r;
}

ManifestRecord ManifestRecord::DropTable(std::string table) {
  ManifestRecord r;
  r.type = ManifestRecordType::kDropTable;
  r.table = std::move(table);
  return r;
}

ManifestRecord ManifestRecord::ShardMove(uint64_t shard,
                                         uint32_t target_node) {
  ManifestRecord r;
  r.type = ManifestRecordType::kShardMove;
  r.shard = shard;
  r.target_node = target_node;
  return r;
}

ManifestRecord ManifestRecord::Repair(std::string note) {
  ManifestRecord r;
  r.type = ManifestRecordType::kRepair;
  r.table = std::move(note);
  return r;
}

namespace {
void AddOnce(std::vector<std::string>& columns, const std::string& column) {
  if (std::find(columns.begin(), columns.end(), column) == columns.end()) {
    columns.push_back(column);
  }
}

void RemoveColumn(std::vector<std::string>& columns,
                  const std::string& column) {
  columns.erase(std::remove(columns.begin(), columns.end(), column),
                columns.end());
}
}  // namespace

ManifestFoldResult FoldManifest(const std::vector<ManifestRecord>& records) {
  ManifestFoldResult out;
  auto find = [&](const std::string& table) -> ManifestTableState* {
    for (auto& [name, state] : out.tables) {
      if (name == table) return &state;
    }
    return nullptr;
  };
  for (const ManifestRecord& r : records) {
    switch (r.type) {
      case ManifestRecordType::kCreateTable: {
        ManifestTableState state;
        state.schema = r.schema;
        state.is_materialized = r.is_materialized;
        out.tables.emplace_back(r.table, std::move(state));
        break;
      }
      case ManifestRecordType::kBulkLoadCommit:
        if (ManifestTableState* state = find(r.table)) {
          state->pages = r.pages;
          state->tuple_count = r.tuple_count;
        }
        break;
      case ManifestRecordType::kCreateIndex:
        if (ManifestTableState* state = find(r.table)) {
          AddOnce(state->index_columns, r.column);
        }
        break;
      case ManifestRecordType::kDropIndex:
        if (ManifestTableState* state = find(r.table)) {
          RemoveColumn(state->index_columns, r.column);
        }
        break;
      case ManifestRecordType::kCreateHistogram:
        if (ManifestTableState* state = find(r.table)) {
          AddOnce(state->histogram_columns, r.column);
        }
        break;
      case ManifestRecordType::kDropHistogram:
        if (ManifestTableState* state = find(r.table)) {
          RemoveColumn(state->histogram_columns, r.column);
        }
        break;
      case ManifestRecordType::kRegisterView:
        if (ManifestTableState* state = find(r.table)) {
          state->has_view = true;
          state->view_definition = r.view_definition;
        }
        break;
      case ManifestRecordType::kDropTable:
        for (auto it = out.tables.begin(); it != out.tables.end(); ++it) {
          if (it->first == r.table) {
            out.tables.erase(it);
            break;
          }
        }
        break;
      case ManifestRecordType::kShardMove:
      case ManifestRecordType::kRepair:
        // Placement history, not table state: the router's placement
        // journal is authoritative; these records only document the
        // commit points of membership/repair work.
        break;
    }
  }
  return out;
}

}  // namespace sqp
