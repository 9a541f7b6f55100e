#include "stats/table_stats.h"

#include <cassert>

namespace sqp {

namespace {
std::string DistinctKey(const Value& v) {
  // A type tag, then the value's text. Appending to the tagged string
  // (rather than `"i" + std::to_string(...)`) keeps GCC's -Wrestrict
  // quiet and yields the same bytes.
  std::string key;
  switch (v.type()) {
    case TypeId::kInt64:
      key = "i";
      key += std::to_string(v.AsInt64());
      break;
    case TypeId::kDouble:
      key = "d";
      key += std::to_string(v.AsDouble());
      break;
    case TypeId::kString:
      key = "s";
      key += v.AsString();
      break;
  }
  return key;
}
}  // namespace

TableStats TableStats::Compute(const Schema& schema,
                               const std::vector<Tuple>& rows,
                               uint64_t page_count) {
  TableStats stats;
  stats.Begin(schema);
  for (const Tuple& row : rows) stats.Observe(row);
  stats.Finish(page_count);
  return stats;
}

void TableStats::Begin(const Schema& schema) {
  row_count_ = 0;
  columns_.assign(schema.size(), ColumnStats{});
  distinct_sets_.assign(schema.size(), {});
  building_ = true;
}

void TableStats::Observe(const Tuple& row) {
  assert(building_);
  assert(row.size() == columns_.size());
  row_count_++;
  for (size_t i = 0; i < row.size(); i++) {
    ColumnStats& cs = columns_[i];
    const Value& v = row[i];
    if (!cs.min.has_value() || v < *cs.min) cs.min = v;
    if (!cs.max.has_value() || v > *cs.max) cs.max = v;
    if (distinct_sets_[i].size() < kDistinctCap) {
      distinct_sets_[i].insert(DistinctKey(v));
    }
  }
}

void TableStats::Finish(uint64_t page_count) {
  assert(building_);
  page_count_ = page_count;
  for (size_t i = 0; i < columns_.size(); i++) {
    columns_[i].distinct_count = distinct_sets_[i].size();
  }
  distinct_sets_.clear();
  distinct_sets_.shrink_to_fit();
  building_ = false;
}

}  // namespace sqp
