#ifndef AUTOEM_ML_MODELS_GRADIENT_BOOSTING_H_
#define AUTOEM_ML_MODELS_GRADIENT_BOOSTING_H_

#include <memory>
#include <string>
#include <vector>

#include "common/params.h"
#include "ml/models/decision_tree.h"

namespace autoem {

struct GradientBoostingOptions {
  int n_estimators = 100;
  double learning_rate = 0.1;
  int max_depth = 3;
  int min_samples_leaf = 1;
  /// Row subsampling fraction per stage (stochastic gradient boosting).
  double subsample = 1.0;
  uint64_t seed = 31;
};

/// Gradient boosting with logistic loss: each stage fits a regression tree
/// to the negative gradient (residual) of the log-loss.
class GradientBoostingClassifier : public Classifier {
 public:
  explicit GradientBoostingClassifier(GradientBoostingOptions options = {});

  static std::unique_ptr<Classifier> FromParams(const ParamMap& params);

  Status Fit(const Matrix& X, const std::vector<int>& y,
             const std::vector<double>* sample_weights = nullptr) override;
  std::vector<double> PredictProba(const Matrix& X) const override;
  std::unique_ptr<Classifier> CloneConfig() const override;
  std::string name() const override { return "gradient_boosting"; }

  size_t NumStages() const { return stages_.size(); }
  const std::vector<RegressionTree>& stages() const { return stages_; }

 private:
  GradientBoostingOptions options_;
  double initial_score_ = 0.0;  // log-odds prior
  std::vector<RegressionTree> stages_;
};

}  // namespace autoem

#endif  // AUTOEM_ML_MODELS_GRADIENT_BOOSTING_H_
