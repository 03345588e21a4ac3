#include "ml/models/gradient_boosting.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "ml/models/linear_common.h"

namespace autoem {

GradientBoostingClassifier::GradientBoostingClassifier(
    GradientBoostingOptions options)
    : options_(options) {}

std::unique_ptr<Classifier> GradientBoostingClassifier::FromParams(
    const ParamMap& params) {
  GradientBoostingOptions opt;
  opt.n_estimators = static_cast<int>(GetInt(params, "n_estimators", 100));
  opt.learning_rate = GetDouble(params, "learning_rate", 0.1);
  opt.max_depth = static_cast<int>(GetInt(params, "max_depth", 3));
  opt.min_samples_leaf =
      static_cast<int>(GetInt(params, "min_samples_leaf", 1));
  opt.subsample = GetDouble(params, "subsample", 1.0);
  opt.seed = static_cast<uint64_t>(GetInt(params, "seed", 31));
  return std::make_unique<GradientBoostingClassifier>(opt);
}

Status GradientBoostingClassifier::Fit(
    const Matrix& X, const std::vector<int>& y,
    const std::vector<double>* sample_weights) {
  AUTOEM_RETURN_IF_ERROR(ValidateFitInputs(X, y, sample_weights));
  stages_.clear();
  const size_t n = X.rows();
  std::vector<double> base_w =
      sample_weights ? *sample_weights : std::vector<double>(n, 1.0);

  // Initial score: weighted log-odds of the positive class.
  double w_pos = 0.0, w_total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    w_total += base_w[i];
    if (y[i] == 1) w_pos += base_w[i];
  }
  if (w_total <= 0.0) {
    return Status::InvalidArgument("all sample weights are zero");
  }
  double p = std::clamp(w_pos / w_total, 1e-6, 1.0 - 1e-6);
  initial_score_ = std::log(p / (1.0 - p));

  Result<PresortedIndex> index = PresortedIndex::Build(X);
  AUTOEM_RETURN_IF_ERROR(index.status());
  std::vector<double> score(n, initial_score_);
  std::vector<double> residual(n);
  Rng rng(options_.seed);

  TreeOptions tree_opt;
  tree_opt.max_depth = options_.max_depth;
  tree_opt.min_samples_leaf = options_.min_samples_leaf;

  for (int t = 0; t < options_.n_estimators; ++t) {
    // Negative gradient of log-loss: y - sigmoid(score).
    for (size_t i = 0; i < n; ++i) {
      residual[i] = (y[i] == 1 ? 1.0 : 0.0) - Sigmoid(score[i]);
    }
    std::vector<double> w = base_w;
    if (options_.subsample < 1.0) {
      for (size_t i = 0; i < n; ++i) {
        if (!rng.Bernoulli(options_.subsample)) w[i] = 0.0;
      }
    }
    tree_opt.seed = rng.engine()();
    RegressionTree tree(tree_opt);
    Status st = tree.Fit(X, *index, residual, &w);
    if (!st.ok()) break;
    for (size_t i = 0; i < n; ++i) {
      score[i] += options_.learning_rate * tree.PredictRow(X.RowPtr(i));
    }
    stages_.push_back(std::move(tree));
  }
  return Status::OK();
}

std::vector<double> GradientBoostingClassifier::PredictProba(
    const Matrix& X) const {
  std::vector<double> score(X.rows(), initial_score_);
  for (const auto& tree : stages_) {
    for (size_t r = 0; r < X.rows(); ++r) {
      score[r] += options_.learning_rate * tree.PredictRow(X.RowPtr(r));
    }
  }
  std::vector<double> out(X.rows());
  for (size_t r = 0; r < X.rows(); ++r) out[r] = Sigmoid(score[r]);
  return out;
}

std::unique_ptr<Classifier> GradientBoostingClassifier::CloneConfig() const {
  return std::make_unique<GradientBoostingClassifier>(options_);
}

}  // namespace autoem
