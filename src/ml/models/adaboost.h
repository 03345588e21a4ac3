#ifndef AUTOEM_ML_MODELS_ADABOOST_H_
#define AUTOEM_ML_MODELS_ADABOOST_H_

#include <memory>
#include <string>
#include <vector>

#include "common/params.h"
#include "ml/models/decision_tree.h"

namespace autoem {

struct AdaBoostOptions {
  int n_estimators = 50;
  double learning_rate = 1.0;
  /// Depth of the weak learners (1 = decision stumps, sklearn default).
  int base_max_depth = 1;
  uint64_t seed = 29;
};

/// Discrete AdaBoost (SAMME) over shallow decision trees.
class AdaBoostClassifier : public Classifier {
 public:
  explicit AdaBoostClassifier(AdaBoostOptions options = {});

  static std::unique_ptr<Classifier> FromParams(const ParamMap& params);

  Status Fit(const Matrix& X, const std::vector<int>& y,
             const std::vector<double>* sample_weights = nullptr) override;
  std::vector<double> PredictProba(const Matrix& X) const override;
  std::unique_ptr<Classifier> CloneConfig() const override;
  std::string name() const override { return "adaboost"; }

  size_t NumLearners() const { return trees_.size(); }
  const std::vector<DecisionTreeClassifier>& trees() const { return trees_; }

 private:
  AdaBoostOptions options_;
  std::vector<DecisionTreeClassifier> trees_;
  std::vector<double> alphas_;
};

}  // namespace autoem

#endif  // AUTOEM_ML_MODELS_ADABOOST_H_
