#include "em/blocking.h"

#include <algorithm>

#include "common/string_util.h"
#include "obs/trace.h"
#include "text/interner.h"
#include "text/tokenizer.h"

namespace autoem {

namespace {

std::string NormalizeKey(const Value& v) {
  return ToLower(Trim(v.ToString()));
}

Result<int> FindAttribute(const Table& t, const std::string& attribute) {
  int idx = t.schema().IndexOf(attribute);
  if (idx < 0) {
    return Status::NotFound("blocking attribute not in schema: " + attribute);
  }
  return idx;
}

bool RightThenLeft(const RecordPair& a, const RecordPair& b) {
  if (a.right_id != b.right_id) return a.right_id < b.right_id;
  return a.left_id < b.left_id;
}

// A cell's join key as sorted, duplicate-free token IDs: the distinct
// 3-grams of the normalized value, or (`whole_key`) the normalized value
// itself as one token. An empty key has no IDs, so it joins nothing.
void KeyIds(const Value& cell, bool whole_key, TokenInterner* interner,
            QGramScratch* scratch, std::vector<uint32_t>* out) {
  out->clear();
  const std::string key = NormalizeKey(cell);
  if (key.empty()) return;
  if (whole_key) {
    out->push_back(interner->IdOf(key));
  } else {
    InternSortedUnique(interner, QGramTokenizeInto(key, 3, scratch), out);
  }
}

// The token-overlap join both key blockers run: every (left, right) row
// pair whose key ID sets share at least max(min_shared, 1) IDs, in
// (right, left) order. Left rows are indexed as posting lists (ID ->
// ascending left rows); each right row counts shared IDs in a dense
// per-left-row counter, remembering which counters it touched.
Result<std::vector<RecordPair>> OverlapJoin(const Table& left,
                                            const Table& right,
                                            const std::string& attribute,
                                            bool whole_key,
                                            size_t min_shared) {
  auto left_idx = FindAttribute(left, attribute);
  if (!left_idx.ok()) return left_idx.status();
  auto right_idx = FindAttribute(right, attribute);
  if (!right_idx.ok()) return right_idx.status();

  TokenInterner interner;
  QGramScratch scratch;
  std::vector<uint32_t> ids;
  // Interner IDs are near-dense (a per-shard counter times the shard count
  // plus the shard), so they index the posting lists directly.
  std::vector<std::vector<size_t>> postings;
  for (size_t l = 0; l < left.num_rows(); ++l) {
    KeyIds(left.cell(l, *left_idx), whole_key, &interner, &scratch, &ids);
    for (uint32_t id : ids) {
      if (id >= postings.size()) postings.resize(size_t{id} + 1);
      postings[id].push_back(l);
    }
  }

  const size_t need = std::max<size_t>(min_shared, 1);
  std::vector<uint32_t> shared(left.num_rows(), 0);
  std::vector<size_t> touched;
  std::vector<RecordPair> out;
  for (size_t r = 0; r < right.num_rows(); ++r) {
    KeyIds(right.cell(r, *right_idx), whole_key, &interner, &scratch, &ids);
    touched.clear();
    for (uint32_t id : ids) {
      if (id >= postings.size()) continue;
      for (size_t l : postings[id]) {
        if (shared[l]++ == 0) touched.push_back(l);
      }
    }
    // Emit in ascending left order: sort a short touched list, else scan
    // every counter (cheaper than sorting once a row touches many rows).
    if (touched.size() * 8 < shared.size()) {
      std::sort(touched.begin(), touched.end());
      for (size_t l : touched) {
        if (shared[l] >= need) out.push_back({l, r, -1});
        shared[l] = 0;
      }
    } else {
      for (size_t l = 0; l < shared.size(); ++l) {
        if (shared[l] >= need) out.push_back({l, r, -1});
        shared[l] = 0;
      }
    }
  }
  return out;
}

}  // namespace

AttributeEquivalenceBlocker::AttributeEquivalenceBlocker(std::string attribute)
    : attribute_(std::move(attribute)) {}

Result<std::vector<RecordPair>> AttributeEquivalenceBlocker::Block(
    const Table& left, const Table& right) const {
  obs::Span span("em.block");
  return OverlapJoin(left, right, attribute_, /*whole_key=*/true,
                     /*min_shared=*/1);
}

QGramBlocker::QGramBlocker(std::string attribute, size_t min_shared)
    : attribute_(std::move(attribute)), min_shared_(min_shared) {}

Result<std::vector<RecordPair>> QGramBlocker::Block(
    const Table& left, const Table& right) const {
  obs::Span span("em.block");
  return OverlapJoin(left, right, attribute_, /*whole_key=*/false,
                     min_shared_);
}

SortedNeighborhoodBlocker::SortedNeighborhoodBlocker(std::string attribute,
                                                     size_t window)
    : attribute_(std::move(attribute)), window_(window) {}

Result<std::vector<RecordPair>> SortedNeighborhoodBlocker::Block(
    const Table& left, const Table& right) const {
  obs::Span span("em.block");
  if (window_ == 0) return Status::InvalidArgument("window must be positive");
  auto left_idx = FindAttribute(left, attribute_);
  if (!left_idx.ok()) return left_idx.status();
  auto right_idx = FindAttribute(right, attribute_);
  if (!right_idx.ok()) return right_idx.status();

  // Merge both tables into one (key, side, row) list and sort by key.
  struct Entry {
    std::string key;
    bool from_left;
    size_t row;
  };
  std::vector<Entry> entries;
  entries.reserve(left.num_rows() + right.num_rows());
  for (size_t r = 0; r < left.num_rows(); ++r) {
    std::string key = NormalizeKey(left.cell(r, *left_idx));
    if (!key.empty()) entries.push_back({std::move(key), true, r});
  }
  for (size_t r = 0; r < right.num_rows(); ++r) {
    std::string key = NormalizeKey(right.cell(r, *right_idx));
    if (!key.empty()) entries.push_back({std::move(key), false, r});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.key < b.key; });

  // Slide the window and emit cross-side pairs only. Each row has one
  // entry, so no pair is emitted twice.
  std::vector<RecordPair> out;
  for (size_t i = 0; i < entries.size(); ++i) {
    size_t end = std::min(entries.size(), i + window_);
    for (size_t j = i + 1; j < end; ++j) {
      const Entry& a = entries[i];
      const Entry& b = entries[j];
      if (a.from_left == b.from_left) continue;
      size_t l = a.from_left ? a.row : b.row;
      size_t r = a.from_left ? b.row : a.row;
      out.push_back({l, r, -1});
    }
  }
  std::sort(out.begin(), out.end(), RightThenLeft);
  return out;
}

double BlockingRecall(const std::vector<RecordPair>& candidates,
                      const std::vector<RecordPair>& truth) {
  std::vector<RecordPair> sorted = candidates;
  std::sort(sorted.begin(), sorted.end(), RightThenLeft);
  size_t n_true = 0;
  size_t n_found = 0;
  for (const auto& p : truth) {
    if (p.label != 1) continue;
    ++n_true;
    n_found += std::binary_search(sorted.begin(), sorted.end(), p,
                                  RightThenLeft);
  }
  return n_true == 0 ? 1.0
                     : static_cast<double>(n_found) /
                           static_cast<double>(n_true);
}

}  // namespace autoem
