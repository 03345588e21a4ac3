#ifndef AUTOEM_EM_BLOCKING_H_
#define AUTOEM_EM_BLOCKING_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "table/table.h"

namespace autoem {

/// Blocking generates the candidate pair set from two tables (paper §II-A).
/// The paper treats blocking as orthogonal to matching; these two standard
/// blockers exist so the end-to-end examples can run on raw tables.
class Blocker {
 public:
  virtual ~Blocker() = default;

  /// Emits candidate (left row, right row) pairs, sorted by
  /// (right_id, left_id) with no duplicates, so the output is a pure
  /// function of the two tables. Labels are unknown (-1).
  virtual Result<std::vector<RecordPair>> Block(const Table& left,
                                                const Table& right) const = 0;

  virtual std::string name() const = 0;
};

/// Pairs records whose blocking attribute values are equal after
/// lower-casing and whitespace normalization (e.g. block restaurants by
/// city). Null and empty keys never pair.
class AttributeEquivalenceBlocker : public Blocker {
 public:
  explicit AttributeEquivalenceBlocker(std::string attribute);

  Result<std::vector<RecordPair>> Block(const Table& left,
                                        const Table& right) const override;
  std::string name() const override { return "attr_equiv(" + attribute_ + ")"; }

 private:
  std::string attribute_;
};

/// Pairs records sharing at least `min_shared` character 3-grams on the
/// blocking attribute — the standard q-gram overlap blocker, robust to
/// typos where equivalence blocking is not. A `min_shared` of 0 acts as 1.
class QGramBlocker : public Blocker {
 public:
  QGramBlocker(std::string attribute, size_t min_shared = 2);

  Result<std::vector<RecordPair>> Block(const Table& left,
                                        const Table& right) const override;
  std::string name() const override { return "qgram(" + attribute_ + ")"; }

 private:
  std::string attribute_;
  size_t min_shared_;
};

/// Classic sorted-neighborhood blocking: both tables' records are sorted by
/// a normalized key expression (here: the blocking attribute), and every
/// record is paired with the records inside a sliding window over the
/// merged sort order. Catches near-duplicates whose keys disagree only in
/// suffixes, with candidate count linear in the window size.
class SortedNeighborhoodBlocker : public Blocker {
 public:
  SortedNeighborhoodBlocker(std::string attribute, size_t window = 5);

  Result<std::vector<RecordPair>> Block(const Table& left,
                                        const Table& right) const override;
  std::string name() const override {
    return "sorted_neighborhood(" + attribute_ + ")";
  }

 private:
  std::string attribute_;
  size_t window_;
};

/// Fraction of true matches surviving blocking (needs labeled truth pairs).
double BlockingRecall(const std::vector<RecordPair>& candidates,
                      const std::vector<RecordPair>& truth);

}  // namespace autoem

#endif  // AUTOEM_EM_BLOCKING_H_
