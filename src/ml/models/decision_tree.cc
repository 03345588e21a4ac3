#include "ml/models/decision_tree.h"

#include "io/serialize.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "fault/failpoint.h"

namespace autoem {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// NaN cells sort (and split) as -inf so they always descend left.
inline double SplitValue(double v) { return std::isnan(v) ? kNegInf : v; }

double GiniImpurity(double w_pos, double w_total) {
  if (w_total <= 0.0) return 0.0;
  double p = w_pos / w_total;
  return 2.0 * p * (1.0 - p);
}

double EntropyImpurity(double w_pos, double w_total) {
  if (w_total <= 0.0) return 0.0;
  double p = w_pos / w_total;
  double h = 0.0;
  if (p > 0.0) h -= p * std::log2(p);
  if (p < 1.0) h -= (1.0 - p) * std::log2(1.0 - p);
  return h;
}

size_t NumFeaturesToTry(double max_features, size_t n_features) {
  double k = max_features * static_cast<double>(n_features);
  size_t out = static_cast<size_t>(std::lround(k));
  return std::clamp<size_t>(out, 1, n_features);
}

// Midpoint threshold between adjacent distinct split values; -inf (NaN)
// neighbors fall back to the lower value so finite rows are still separable
// from missing ones.
double CutThreshold(double lo_v, double hi_v) {
  double t = std::isinf(lo_v) ? lo_v : (lo_v + hi_v) / 2.0;
  return std::isfinite(t) ? t : lo_v;
}

// ---- criterion policies ------------------------------------------------------
//
// A policy owns a node's sufficient statistics, its leaf payload, its stop
// rule and the split score. The presorted splitter and the reference builder
// share them, so each criterion is written once.

template <bool kEntropy>
struct ClassCriterion {
  using Node = DecisionTreeClassifier::Node;
  using Target = int;
  struct Stats {
    double w = 0.0;
    double pos = 0.0;
    void Add(double wi, int yi) {
      w += wi;
      if (yi == 1) pos += wi;
    }
  };
  static Stats Minus(const Stats& a, const Stats& b) {
    return {a.w - b.w, a.pos - b.pos};
  }
  static void SetPayload(const Stats& s, Node* node) {
    node->prob_positive = s.w > 0.0 ? s.pos / s.w : 0.0;
  }
  static double Impurity(const Stats& s) {
    return kEntropy ? EntropyImpurity(s.pos, s.w) : GiniImpurity(s.pos, s.w);
  }
  static bool Pure(const Stats& s, double /*impurity*/) {
    return s.pos <= 0.0 || s.pos >= s.w;
  }
  static double MinGain(const TreeOptions& o) {
    return o.min_impurity_decrease;
  }
  /// Weighted impurity decrease of a split.
  static double Gain(const Stats& parent, double parent_impurity,
                     const Stats& l, const Stats& r) {
    return parent_impurity - (l.w / parent.w) * Impurity(l) -
           (r.w / parent.w) * Impurity(r);
  }
};

using GiniCriterion = ClassCriterion<false>;
using EntropyCriterion = ClassCriterion<true>;

struct MseCriterion {
  using Node = RegressionTree::Node;
  using Target = double;
  struct Stats {
    double w = 0.0;
    double sum = 0.0;
    double sum_sq = 0.0;
    void Add(double wi, double yi) {
      w += wi;
      sum += wi * yi;
      sum_sq += wi * yi * yi;
    }
  };
  static Stats Minus(const Stats& a, const Stats& b) {
    return {a.w - b.w, a.sum - b.sum, a.sum_sq - b.sum_sq};
  }
  static void SetPayload(const Stats& s, Node* node) {
    node->value = s.w > 0.0 ? s.sum / s.w : 0.0;
  }
  /// Weighted sum of squared errors around the node mean.
  static double Impurity(const Stats& s) {
    return s.sum_sq - (s.w > 0 ? s.sum * s.sum / s.w : 0.0);
  }
  static bool Pure(const Stats& /*s*/, double sse) { return sse <= 1e-12; }
  static double MinGain(const TreeOptions& o) {
    return std::max(o.min_impurity_decrease, 1e-12);
  }
  /// SSE reduction of a split; -inf rejects a weightless child.
  static double Gain(const Stats& /*parent*/, double parent_sse,
                     const Stats& l, const Stats& r) {
    if (l.w <= 0.0 || r.w <= 0.0) return kNegInf;
    return parent_sse - Impurity(l) - Impurity(r);
  }
};

// Stop rule shared by both builders: a node splits only when it is impure,
// above the depth cap and large enough for two min_samples_leaf children.
template <class C>
bool Splittable(const typename C::Stats& s, double impurity, size_t n_rows,
                int depth, const TreeOptions& o) {
  const bool depth_capped = o.max_depth > 0 && depth >= o.max_depth;
  return !(C::Pure(s, impurity) || depth_capped ||
           n_rows < static_cast<size_t>(o.min_samples_split) ||
           n_rows < 2 * static_cast<size_t>(o.min_samples_leaf));
}

struct Split {
  int feature = -1;
  double threshold = 0.0;
  double gain = 0.0;
};

// A candidate replaces the best split only on a strictly larger gain, so
// among equal gains the first in (tried-feature, cut) order wins.
template <class C>
void OfferSplit(const typename C::Stats& totals, double impurity,
                const typename C::Stats& left, size_t feature,
                double threshold, Split* best) {
  const double gain =
      C::Gain(totals, impurity, left, C::Minus(totals, left));
  if (gain > best->gain) {
    best->gain = gain;
    best->feature = static_cast<int>(feature);
    best->threshold = threshold;
  }
}

// ---- presorted splitter ------------------------------------------------------
//
// One tree's fit over a PresortedIndex. The tree copies the index without its
// zero-weight rows into `cols_`: slot 0 is the row-ascending column, slot
// f + 1 is feature f in (SplitValue, row) order, all m_ ids long. A node owns
// the same [begin, end) range in every slot, so its sorted segments are read
// straight off and a split stable-partitions each slot, keeping both
// children's segments sorted. Node totals and Extra-Trees sums accumulate
// over slot 0 (row order) and cut scans over the feature slot in the pinned
// tie order — exactly the summation orders of the reference builder.
template <class C, typename Id>
class PresortedSplitter {
 public:
  using Stats = typename C::Stats;

  PresortedSplitter(const Matrix& X, const PresortedIndex& index,
                    const std::vector<typename C::Target>& y,
                    const std::vector<double>& w, const TreeOptions& options,
                    std::vector<typename C::Node>* nodes)
      : X_(X),
        index_(index),
        y_(y),
        w_(w),
        options_(options),
        nodes_(nodes),
        n_try_(NumFeaturesToTry(options.max_features, X.cols())),
        min_leaf_(static_cast<size_t>(options.min_samples_leaf)),
        rng_(options.seed) {}

  /// Builds the tree into *nodes; false when no row has positive weight.
  bool Fit() {
    const size_t n = X_.rows();
    const size_t d = X_.cols();
    m_ = 0;
    for (size_t r = 0; r < n; ++r) m_ += w_[r] > 0.0;
    if (m_ == 0) return false;
    // One spare slot: the branchless filter below stores every id and
    // advances only past kept ones, so each slot's last store may land one
    // past its end (in the next slot, overwritten when that slot fills).
    cols_.resize((d + 1) * m_ + 1);
    Id* rows = Slot(0);
    size_t k = 0;
    for (size_t r = 0; r < n; ++r) {
      rows[k] = static_cast<Id>(r);
      k += w_[r] > 0.0;
    }
    for (size_t f = 0; f < d; ++f) {
      const Id* sorted = index_.template Column<Id>(f);
      Id* out = Slot(f + 1);
      k = 0;
      for (size_t j = 0; j < n; ++j) {
        out[k] = sorted[j];
        k += w_[sorted[j]] > 0.0;
      }
    }
    scratch_.resize(m_);
    goes_left_.assign(n, 0);
    Stats totals;
    for (size_t j = 0; j < m_; ++j) totals.Add(w_[rows[j]], y_[rows[j]]);
    BuildNode(0, m_, totals, 0);
    return true;
  }

 private:
  Id* Slot(size_t s) { return cols_.data() + s * m_; }
  double Value(size_t row, size_t f) const {
    return SplitValue(X_.At(row, f));
  }

  int BuildNode(size_t begin, size_t end, const Stats& totals, int depth) {
    const int node_id = static_cast<int>(nodes_->size());
    nodes_->emplace_back();
    C::SetPayload(totals, &nodes_->back());

    // Once the trial deadline fires, stop splitting: the subtree collapses
    // to this leaf and Fit reports DeadlineExceeded. One check per node keeps
    // the poll cost far below the split-search work it gates.
    if (options_.cancel.Cancelled()) return node_id;

    const size_t count = end - begin;
    const double impurity = C::Impurity(totals);
    if (!Splittable<C>(totals, impurity, count, depth, options_)) {
      return node_id;
    }
    Split best;
    best.gain = C::MinGain(options_);
    for (size_t f : rng_.SampleWithoutReplacement(X_.cols(), n_try_)) {
      if (options_.random_thresholds) {
        ScanRandomCut(f, begin, end, totals, impurity, &best);
      } else {
        ScanSortedCuts(f, begin, end, totals, impurity, &best);
      }
    }
    if (best.feature < 0) return node_id;

    // Route rows in row order, so each child's totals accumulate exactly as
    // a fresh sum over its rows would.
    const size_t bf = static_cast<size_t>(best.feature);
    const Id* rows = Slot(0) + begin;
    Stats left, right;
    size_t n_left = 0;
    for (size_t k = 0; k < count; ++k) {
      const size_t r = rows[k];
      const bool go_left = Value(r, bf) <= best.threshold;
      goes_left_[r] = go_left;
      if (go_left) {
        left.Add(w_[r], y_[r]);
        ++n_left;
      } else {
        right.Add(w_[r], y_[r]);
      }
    }
    if (n_left == 0 || n_left == count) return node_id;  // degenerate

    // Two leaf children never read their segments; skip the partition.
    if (Splittable<C>(left, C::Impurity(left), n_left, depth + 1,
                      options_) ||
        Splittable<C>(right, C::Impurity(right), count - n_left, depth + 1,
                      options_)) {
      for (size_t s = 0; s <= X_.cols(); ++s) Partition(Slot(s) + begin, count);
    }
    const int left_id = BuildNode(begin, begin + n_left, left, depth + 1);
    const int right_id = BuildNode(begin + n_left, end, right, depth + 1);
    auto& node = (*nodes_)[node_id];
    node.feature = best.feature;
    node.threshold = best.threshold;
    node.left = left_id;
    node.right = right_id;
    return node_id;
  }

  // Exhaustive scan of every cut between distinct values of feature f.
  void ScanSortedCuts(size_t f, size_t begin, size_t end, const Stats& totals,
                      double impurity, Split* best) const {
    const Id* seg = cols_.data() + (f + 1) * m_ + begin;
    const size_t count = end - begin;
    double v = Value(seg[0], f);
    if (v == Value(seg[count - 1], f)) return;  // constant in this node
    Stats left;
    for (size_t k = 0; k + 1 < count; ++k) {
      const size_t i = seg[k];
      left.Add(w_[i], y_[i]);
      const double lo_v = v;
      v = Value(seg[k + 1], f);
      if (lo_v == v) continue;  // no cut between ties
      const size_t n_left = k + 1;
      if (n_left < min_leaf_ || count - n_left < min_leaf_) continue;
      OfferSplit<C>(totals, impurity, left, f, CutThreshold(lo_v, v), best);
    }
  }

  // Extra-Trees: one uniform threshold between the finite min and max, which
  // sit at the ends of the sorted segment once -inf/NaN and +inf are skipped.
  // (The reference keeps the first max in row order, this the last; they can
  // differ only as -0.0 vs +0.0, which leaves Uniform(lo, hi) unchanged.)
  void ScanRandomCut(size_t f, size_t begin, size_t end, const Stats& totals,
                     double impurity, Split* best) {
    const Id* seg = cols_.data() + (f + 1) * m_ + begin;
    const size_t count = end - begin;
    size_t a = 0;
    while (a < count && !std::isfinite(Value(seg[a], f))) ++a;
    if (a == count) return;
    size_t b = count - 1;
    while (!std::isfinite(Value(seg[b], f))) --b;
    const double lo = Value(seg[a], f);
    const double hi = Value(seg[b], f);
    if (!(lo < hi)) return;
    const double threshold = rng_.Uniform(lo, hi);
    const Id* rows = cols_.data() + begin;
    Stats left;
    size_t n_left = 0;
    for (size_t k = 0; k < count; ++k) {
      const size_t r = rows[k];
      if (Value(r, f) <= threshold) {
        left.Add(w_[r], y_[r]);
        ++n_left;
      }
    }
    if (n_left < min_leaf_ || count - n_left < min_leaf_) return;
    OfferSplit<C>(totals, impurity, left, f, threshold, best);
  }

  // Stable partition of one slot's node segment by goes_left_: left ids
  // compact in place, right ids go through scratch_.
  void Partition(Id* seg, size_t count) {
    Id* right = scratch_.data();
    size_t n_left = 0;
    size_t n_right = 0;
    for (size_t k = 0; k < count; ++k) {
      const Id r = seg[k];
      const size_t go_left = goes_left_[r];
      seg[n_left] = r;
      right[n_right] = r;
      n_left += go_left;
      n_right += 1 - go_left;
    }
    std::copy(right, right + n_right, seg + n_left);
  }

  const Matrix& X_;
  const PresortedIndex& index_;
  const std::vector<typename C::Target>& y_;
  const std::vector<double>& w_;
  const TreeOptions& options_;
  std::vector<typename C::Node>* nodes_;
  const size_t n_try_;
  const size_t min_leaf_;
  Rng rng_;
  size_t m_ = 0;             // rows with positive weight
  std::vector<Id> cols_;     // (d + 1) slots of m_ ids, plus one spare
  std::vector<Id> scratch_;  // right-hand ids during a partition
  std::vector<uint8_t> goes_left_;  // per row, set by the current split
};

// Fits one tree of any criterion: checks the index against X, defaults the
// weights and dispatches on the index's row-id width.
template <class C>
Status FitNodes(const Matrix& X, const PresortedIndex& index,
                const std::vector<typename C::Target>& y,
                const std::vector<double>* sample_weights,
                const TreeOptions& options,
                std::vector<typename C::Node>* nodes) {
  if (index.rows() != X.rows() || index.cols() != X.cols()) {
    return Status::InvalidArgument("presorted index does not match X");
  }
  nodes->clear();
  std::vector<double> unit;
  if (sample_weights == nullptr) unit.assign(y.size(), 1.0);
  const std::vector<double>& w = sample_weights ? *sample_weights : unit;
  const bool fitted =
      index.wide()
          ? PresortedSplitter<C, uint32_t>(X, index, y, w, options, nodes)
                .Fit()
          : PresortedSplitter<C, uint16_t>(X, index, y, w, options, nodes)
                .Fit();
  if (!fitted) return Status::InvalidArgument("all sample weights are zero");
  return Status::OK();
}

// ---- sort-based reference builder --------------------------------------------

template <class C>
class ReferenceBuilder {
 public:
  using Stats = typename C::Stats;

  ReferenceBuilder(const Matrix& X, const std::vector<typename C::Target>& y,
                   const std::vector<double>& w, const TreeOptions& options)
      : X_(X), y_(y), w_(w), options_(options), rng_(options.seed) {}

  std::vector<typename C::Node> Fit() {
    std::vector<size_t> indices;
    for (size_t i = 0; i < y_.size(); ++i) {
      if (w_[i] > 0.0) indices.push_back(i);
    }
    if (!indices.empty()) BuildNode(&indices, 0);
    return std::move(nodes_);
  }

 private:
  int BuildNode(std::vector<size_t>* indices, int depth) {
    const auto& idx = *indices;
    Stats totals;
    for (size_t i : idx) totals.Add(w_[i], y_[i]);
    const int node_id = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    C::SetPayload(totals, &nodes_.back());
    if (options_.cancel.Cancelled()) return node_id;
    const double impurity = C::Impurity(totals);
    if (!Splittable<C>(totals, impurity, idx.size(), depth, options_)) {
      return node_id;
    }

    const size_t n_try = NumFeaturesToTry(options_.max_features, X_.cols());
    std::vector<size_t> features =
        rng_.SampleWithoutReplacement(X_.cols(), n_try);
    Split best;
    best.gain = C::MinGain(options_);
    const size_t min_leaf = static_cast<size_t>(options_.min_samples_leaf);
    std::vector<std::pair<double, size_t>> vals;  // (split value, row)
    vals.reserve(idx.size());
    for (size_t f : features) {
      vals.clear();
      for (size_t i : idx) vals.emplace_back(SplitValue(X_.At(i, f)), i);

      if (options_.random_thresholds) {
        double lo = std::numeric_limits<double>::infinity();
        double hi = -std::numeric_limits<double>::infinity();
        for (const auto& [v, i] : vals) {
          if (std::isfinite(v)) {
            lo = std::min(lo, v);
            hi = std::max(hi, v);
          }
        }
        if (!(lo < hi)) continue;
        const double threshold = rng_.Uniform(lo, hi);
        Stats left;
        size_t nl = 0;
        for (const auto& [v, i] : vals) {
          if (v <= threshold) {
            left.Add(w_[i], y_[i]);
            ++nl;
          }
        }
        if (nl < min_leaf || vals.size() - nl < min_leaf) continue;
        OfferSplit<C>(totals, impurity, left, f, threshold, &best);
        continue;
      }

      // The total (value, row) order pins the summation order among ties.
      std::sort(vals.begin(), vals.end());
      Stats left;
      for (size_t k = 0; k + 1 < vals.size(); ++k) {
        const size_t i = vals[k].second;
        left.Add(w_[i], y_[i]);
        if (vals[k].first == vals[k + 1].first) continue;
        const size_t nl = k + 1;
        if (nl < min_leaf || vals.size() - nl < min_leaf) continue;
        OfferSplit<C>(totals, impurity, left, f,
                      CutThreshold(vals[k].first, vals[k + 1].first), &best);
      }
    }
    if (best.feature < 0) return node_id;

    std::vector<size_t> left_idx;
    std::vector<size_t> right_idx;
    for (size_t i : idx) {
      const double v = SplitValue(X_.At(i, static_cast<size_t>(best.feature)));
      (v <= best.threshold ? left_idx : right_idx).push_back(i);
    }
    if (left_idx.empty() || right_idx.empty()) return node_id;
    indices->clear();  // release parent memory before recursing
    indices->shrink_to_fit();

    const int left_id = BuildNode(&left_idx, depth + 1);
    const int right_id = BuildNode(&right_idx, depth + 1);
    auto& node = nodes_[node_id];
    node.feature = best.feature;
    node.threshold = best.threshold;
    node.left = left_id;
    node.right = right_id;
    return node_id;
  }

  const Matrix& X_;
  const std::vector<typename C::Target>& y_;
  const std::vector<double>& w_;
  const TreeOptions& options_;
  Rng rng_;
  std::vector<typename C::Node> nodes_;
};

}  // namespace

// ---- PresortedIndex ------------------------------------------------------------

Result<int> PresortedIndex::RowIdBytes(size_t rows) {
  if (rows <= size_t{1} << 16) return 2;
  if (rows <= std::numeric_limits<uint32_t>::max()) return 4;
  return Status::InvalidArgument("presorted index: more than 2^32-1 rows");
}

Result<PresortedIndex> PresortedIndex::Build(const Matrix& X,
                                             const Parallelism& par,
                                             const char* trace_label) {
  Result<int> id_bytes = RowIdBytes(X.rows());
  AUTOEM_RETURN_IF_ERROR(id_bytes.status());
  PresortedIndex index;
  const size_t n = X.rows();
  index.rows_ = n;
  index.cols_ = X.cols();
  if (*id_bytes == 2) {
    index.ids16_.resize(n * X.cols());
  } else {
    index.ids32_.resize(n * X.cols());
  }
  ParallelFor(
      par, X.cols(),
      [&](size_t f) {
        std::vector<std::pair<double, uint32_t>> keyed(n);
        for (size_t r = 0; r < n; ++r) {
          keyed[r] = {SplitValue(X.At(r, f)), static_cast<uint32_t>(r)};
        }
        std::sort(keyed.begin(), keyed.end());  // (value, row)
        if (index.wide()) {
          uint32_t* out = index.ids32_.data() + f * n;
          for (size_t j = 0; j < n; ++j) out[j] = keyed[j].second;
        } else {
          uint16_t* out = index.ids16_.data() + f * n;
          for (size_t j = 0; j < n; ++j) {
            out[j] = static_cast<uint16_t>(keyed[j].second);
          }
        }
      },
      trace_label);
  return index;
}

// ---- DecisionTreeClassifier -------------------------------------------------

DecisionTreeClassifier::DecisionTreeClassifier(TreeOptions options)
    : options_(std::move(options)) {}

std::unique_ptr<Classifier> DecisionTreeClassifier::FromParams(
    const ParamMap& params) {
  TreeOptions opt;
  opt.criterion = GetString(params, "criterion", "gini");
  opt.max_depth = static_cast<int>(GetInt(params, "max_depth", 0));
  opt.min_samples_split =
      static_cast<int>(GetInt(params, "min_samples_split", 2));
  opt.min_samples_leaf =
      static_cast<int>(GetInt(params, "min_samples_leaf", 1));
  opt.max_features = GetDouble(params, "max_features", 1.0);
  opt.min_impurity_decrease =
      GetDouble(params, "min_impurity_decrease", 0.0);
  opt.seed = static_cast<uint64_t>(GetInt(params, "seed", 13));
  return std::make_unique<DecisionTreeClassifier>(opt);
}

Status DecisionTreeClassifier::Fit(const Matrix& X, const std::vector<int>& y,
                                   const std::vector<double>* sample_weights) {
  AUTOEM_RETURN_IF_ERROR(ValidateFitInputs(X, y, sample_weights));
  Result<PresortedIndex> index = PresortedIndex::Build(X);
  AUTOEM_RETURN_IF_ERROR(index.status());
  return Fit(X, *index, y, sample_weights);
}

Status DecisionTreeClassifier::Fit(const Matrix& X, const PresortedIndex& index,
                                   const std::vector<int>& y,
                                   const std::vector<double>* sample_weights) {
  AUTOEM_RETURN_IF_ERROR(ValidateFitInputs(X, y, sample_weights));
  AUTOEM_FAILPOINT("tree.fit");
  AUTOEM_RETURN_IF_ERROR(
      options_.criterion == "entropy"
          ? FitNodes<EntropyCriterion>(X, index, y, sample_weights, options_,
                                       &nodes_)
          : FitNodes<GiniCriterion>(X, index, y, sample_weights, options_,
                                    &nodes_));
  return options_.cancel.Check("tree.fit");
}

double DecisionTreeClassifier::PredictRowProba(const double* row) const {
  AUTOEM_CHECK(!nodes_.empty());
  int cur = 0;
  while (nodes_[cur].feature >= 0) {
    const Node& n = nodes_[cur];
    double v = SplitValue(row[n.feature]);
    cur = v <= n.threshold ? n.left : n.right;
  }
  return nodes_[cur].prob_positive;
}

std::vector<double> DecisionTreeClassifier::PredictProba(
    const Matrix& X) const {
  std::vector<double> out(X.rows());
  for (size_t r = 0; r < X.rows(); ++r) out[r] = PredictRowProba(X.RowPtr(r));
  return out;
}

std::unique_ptr<Classifier> DecisionTreeClassifier::CloneConfig() const {
  return std::make_unique<DecisionTreeClassifier>(options_);
}

size_t DecisionTreeClassifier::Depth() const {
  if (nodes_.empty()) return 0;
  // Iterative depth computation over the explicit node array.
  std::vector<std::pair<int, size_t>> stack = {{0, 0}};
  size_t max_depth = 0;
  while (!stack.empty()) {
    auto [id, d] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, d);
    const Node& n = nodes_[id];
    if (n.feature >= 0) {
      stack.push_back({n.left, d + 1});
      stack.push_back({n.right, d + 1});
    }
  }
  return max_depth;
}

// ---- RegressionTree ----------------------------------------------------------

RegressionTree::RegressionTree(TreeOptions options)
    : options_(std::move(options)) {}

Status RegressionTree::Fit(const Matrix& X, const std::vector<double>& y,
                           const std::vector<double>* sample_weights) {
  if (X.rows() == 0 || X.cols() == 0) {
    return Status::InvalidArgument("empty training matrix");
  }
  Result<PresortedIndex> index = PresortedIndex::Build(X);
  AUTOEM_RETURN_IF_ERROR(index.status());
  return Fit(X, *index, y, sample_weights);
}

Status RegressionTree::Fit(const Matrix& X, const PresortedIndex& index,
                           const std::vector<double>& y,
                           const std::vector<double>* sample_weights) {
  if (X.rows() == 0 || X.cols() == 0) {
    return Status::InvalidArgument("empty training matrix");
  }
  if (X.rows() != y.size()) {
    return Status::InvalidArgument("X rows != y size");
  }
  if (sample_weights != nullptr && sample_weights->size() != y.size()) {
    return Status::InvalidArgument("sample_weights size != y size");
  }
  AUTOEM_RETURN_IF_ERROR(FitNodes<MseCriterion>(X, index, y, sample_weights,
                                                options_, &nodes_));
  return options_.cancel.Check("regression_tree.fit");
}

double RegressionTree::PredictRow(const double* row) const {
  AUTOEM_CHECK(!nodes_.empty());
  int cur = 0;
  while (nodes_[cur].feature >= 0) {
    const Node& n = nodes_[cur];
    double v = SplitValue(row[n.feature]);
    cur = v <= n.threshold ? n.left : n.right;
  }
  return nodes_[cur].value;
}

std::vector<double> RegressionTree::Predict(const Matrix& X) const {
  std::vector<double> out(X.rows());
  for (size_t r = 0; r < X.rows(); ++r) out[r] = PredictRow(X.RowPtr(r));
  return out;
}

namespace reference {

std::vector<DecisionTreeClassifier::Node> FitClassifierNodes(
    const Matrix& X, const std::vector<int>& y, const std::vector<double>& w,
    const TreeOptions& options) {
  return options.criterion == "entropy"
             ? ReferenceBuilder<EntropyCriterion>(X, y, w, options).Fit()
             : ReferenceBuilder<GiniCriterion>(X, y, w, options).Fit();
}

std::vector<RegressionTree::Node> FitRegressionNodes(
    const Matrix& X, const std::vector<double>& y,
    const std::vector<double>& w, const TreeOptions& options) {
  return ReferenceBuilder<MseCriterion>(X, y, w, options).Fit();
}

}  // namespace reference

Status DecisionTreeClassifier::SaveFitted(io::Writer* w) const {
  w->U64(nodes_.size());
  for (const Node& n : nodes_) {
    w->I32(n.feature);
    w->F64(n.threshold);
    w->I32(n.left);
    w->I32(n.right);
    w->F64(n.prob_positive);
  }
  return Status::OK();
}

Status DecisionTreeClassifier::LoadFitted(io::Reader* r) {
  uint64_t count;
  // 28 bytes per encoded node: 2 doubles + 3 i32.
  AUTOEM_RETURN_IF_ERROR(r->Len(&count, 28));
  nodes_.assign(static_cast<size_t>(count), Node{});
  for (Node& n : nodes_) {
    AUTOEM_RETURN_IF_ERROR(r->I32(&n.feature));
    AUTOEM_RETURN_IF_ERROR(r->F64(&n.threshold));
    AUTOEM_RETURN_IF_ERROR(r->I32(&n.left));
    AUTOEM_RETURN_IF_ERROR(r->I32(&n.right));
    AUTOEM_RETURN_IF_ERROR(r->F64(&n.prob_positive));
    // Child ids must stay inside the node array and point strictly forward
    // (the DFS build always appends children after their parent), so a
    // crafted or corrupted payload can neither make the prediction walk go
    // out of bounds nor cycle — the flattened relayout (flat_forest.h)
    // relies on both properties. Internal nodes must have two children.
    const int64_t self = static_cast<int64_t>(&n - nodes_.data());
    const int64_t limit = static_cast<int64_t>(count);
    if (n.feature < -1) {
      return Status::InvalidArgument("decision_tree: bad feature index");
    }
    if (n.feature >= 0 &&
        (n.left <= self || n.left >= limit || n.right <= self ||
         n.right >= limit)) {
      return Status::InvalidArgument("decision_tree: node index out of range");
    }
  }
  // A well-formed tree references every non-root node exactly once; shared
  // children would make the relayout's breadth-first expansion quadratic or
  // worse on crafted input.
  std::vector<bool> referenced(nodes_.size(), false);
  for (const Node& n : nodes_) {
    if (n.feature < 0) continue;
    if (referenced[n.left] || referenced[n.right] || n.left == n.right) {
      return Status::InvalidArgument("decision_tree: node referenced twice");
    }
    referenced[n.left] = true;
    referenced[n.right] = true;
  }
  return Status::OK();
}

}  // namespace autoem
