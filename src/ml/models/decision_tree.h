#ifndef AUTOEM_ML_MODELS_DECISION_TREE_H_
#define AUTOEM_ML_MODELS_DECISION_TREE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/parallelism.h"
#include "common/params.h"
#include "common/rng.h"
#include "ml/model.h"

namespace autoem {

/// Options shared by classification and regression trees. Mirrors the
/// scikit-learn hyperparameters the paper's search space tunes (Fig. 11).
struct TreeOptions {
  /// "gini" or "entropy" for classification; regression always uses MSE.
  std::string criterion = "gini";
  /// Depth limit; <= 0 means unlimited.
  int max_depth = 0;
  int min_samples_split = 2;
  int min_samples_leaf = 1;
  /// Fraction of features considered per split in (0, 1]; 1.0 = all.
  /// (sklearn's float max_features semantics, as in the Fig. 11 pipeline.)
  double max_features = 1.0;
  /// Minimum impurity decrease required to accept a split.
  double min_impurity_decrease = 0.0;
  /// When true, split thresholds are drawn uniformly at random between the
  /// feature min and max (Extra-Trees style) instead of exhaustive scan.
  bool random_thresholds = false;
  uint64_t seed = 13;
  /// Per-trial cancellation (fault/cancel.h). Checked once per node build;
  /// once fired, remaining subtrees collapse to leaves and Fit returns
  /// DeadlineExceeded. Default-constructed = disabled (one null check).
  fault::CancelToken cancel;
};

/// Every feature column's rows sorted once by the total (SplitValue, row)
/// order, where SplitValue maps NaN to -inf: ties — including -0.0 next to
/// +0.0 — are broken by ascending row id. Built once per ensemble fit and
/// shared read-only by every tree, which copies out its positive-weight
/// rows and then splits by stable partition instead of per-node sorts
/// (DESIGN.md §13). Row ids are 16-bit up to 65,536 rows and 32-bit above.
class PresortedIndex {
 public:
  /// Bytes per stored row id for a matrix of `rows` rows: 2 up to 65,536,
  /// 4 up to UINT32_MAX, InvalidArgument past that (ids never truncate).
  static Result<int> RowIdBytes(size_t rows);

  /// Sorts every column of X, in parallel under `par`; `trace_label` names
  /// the sorting span (obs/trace.h).
  static Result<PresortedIndex> Build(
      const Matrix& X, const Parallelism& par = Parallelism::Serial(),
      const char* trace_label = "tree.presort");

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool wide() const { return !ids32_.empty(); }

  /// Column f's row ids in (SplitValue, row) order; `Id` must match wide().
  template <typename Id>
  const Id* Column(size_t f) const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<uint16_t> ids16_;
  std::vector<uint32_t> ids32_;
};

template <>
inline const uint16_t* PresortedIndex::Column<uint16_t>(size_t f) const {
  return ids16_.data() + f * rows_;
}
template <>
inline const uint32_t* PresortedIndex::Column<uint32_t>(size_t f) const {
  return ids32_.data() + f * rows_;
}

/// CART binary classification tree with sample weights and NaN routing
/// (missing values always descend to the left child, so the same record is
/// routed identically at train and inference time).
class DecisionTreeClassifier : public Classifier {
 public:
  explicit DecisionTreeClassifier(TreeOptions options = {});

  /// Builds from an AutoML hyperparameter map (keys: criterion, max_depth,
  /// min_samples_split, min_samples_leaf, max_features,
  /// min_impurity_decrease).
  static std::unique_ptr<Classifier> FromParams(const ParamMap& params);

  Status Fit(const Matrix& X, const std::vector<int>& y,
             const std::vector<double>* sample_weights = nullptr) override;
  /// Same fit against an index presorted from this X; ensembles build the
  /// index once and pass it to every tree.
  Status Fit(const Matrix& X, const PresortedIndex& index,
             const std::vector<int>& y,
             const std::vector<double>* sample_weights);
  std::vector<double> PredictProba(const Matrix& X) const override;
  std::unique_ptr<Classifier> CloneConfig() const override;
  std::string name() const override { return "decision_tree"; }
  Status SaveFitted(io::Writer* w) const override;
  Status LoadFitted(io::Reader* r) override;

  /// P(y=1) for a single feature row.
  double PredictRowProba(const double* row) const;

  /// Number of nodes in the fitted tree (0 before Fit).
  size_t NodeCount() const { return nodes_.size(); }

  /// Fitted-tree depth (0 for a single leaf).
  size_t Depth() const;

  const TreeOptions& options() const { return options_; }

  struct Node {
    int feature = -1;          // -1 for leaf
    double threshold = 0.0;    // go left when value <= threshold or NaN
    int left = -1;
    int right = -1;
    double prob_positive = 0.0;  // leaf payload
  };

  /// Fitted nodes in build (DFS) order; children always point forward.
  /// Exposed for the forest-level flattened relayout (flat_forest.h).
  const std::vector<Node>& nodes() const { return nodes_; }

 private:
  TreeOptions options_;
  std::vector<Node> nodes_;
};

/// CART regression tree (MSE criterion) with the same NaN routing. Backs
/// gradient boosting and the SMAC surrogate forest.
class RegressionTree {
 public:
  explicit RegressionTree(TreeOptions options = {});

  Status Fit(const Matrix& X, const std::vector<double>& y,
             const std::vector<double>* sample_weights = nullptr);
  /// Same fit against an index presorted from this X.
  Status Fit(const Matrix& X, const PresortedIndex& index,
             const std::vector<double>& y,
             const std::vector<double>* sample_weights);
  double PredictRow(const double* row) const;
  std::vector<double> Predict(const Matrix& X) const;

  size_t NodeCount() const { return nodes_.size(); }

  struct Node {
    int feature = -1;
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    double value = 0.0;
  };

  /// Fitted nodes in build (DFS) order, for the flattened relayout.
  const std::vector<Node>& nodes() const { return nodes_; }

 private:
  TreeOptions options_;
  std::vector<Node> nodes_;
};

// ---- sort-based reference builder -------------------------------------------
//
// The per-node gather-and-sort CART builder, retained as the differential
// oracle for the presorted splitter: per node and tried feature it gathers
// (SplitValue, row) pairs, sorts them in the same total order and scans.
// Same criteria, RNG draws and row-order node sums, so a presorted fit must
// reproduce its nodes bit for bit. Never optimized; see DESIGN.md §13.
namespace reference {

/// Nodes of a classification tree fit on rows with positive weight in `w`;
/// empty when no row has positive weight.
std::vector<DecisionTreeClassifier::Node> FitClassifierNodes(
    const Matrix& X, const std::vector<int>& y, const std::vector<double>& w,
    const TreeOptions& options);

/// Same for a regression (MSE) tree.
std::vector<RegressionTree::Node> FitRegressionNodes(
    const Matrix& X, const std::vector<double>& y,
    const std::vector<double>& w, const TreeOptions& options);

}  // namespace reference

}  // namespace autoem

#endif  // AUTOEM_ML_MODELS_DECISION_TREE_H_
