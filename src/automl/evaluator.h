#ifndef AUTOEM_AUTOML_EVALUATOR_H_
#define AUTOEM_AUTOML_EVALUATOR_H_

#include <string>
#include <vector>

#include "automl/pipeline.h"
#include "common/timer.h"
#include "fault/cancel.h"
#include "ml/dataset.h"
#include "obs/resource.h"

namespace autoem {

/// Resource attribution for one trial, captured by an obs::ResourceProbe
/// when the run is profiled (`--resources`). `sampled == false` (all zeros)
/// when probes were off — serialized that way so resumed runs and reports
/// can tell "free" from "unmeasured".
using TrialResources = obs::ResourceUsage;

/// Why a trial was quarantined (SMAC treats failed evaluations as
/// first-class data: worst-score imputation, never re-proposed).
enum class TrialFailure : uint8_t {
  kNone = 0,       // trial completed with a finite score
  kError = 1,      // compile/fit/score returned an error or threw
  kTimeout = 2,    // per-trial deadline (TrialOptions::max_trial_seconds)
  kNonFinite = 3,  // score came back NaN/Inf
};

/// Stable short name ("ok", "error", "timeout", "non_finite") — used for
/// metric suffixes (automl.trials_failed.<name>) and checkpoint logs.
const char* TrialFailureName(TrialFailure failure);

/// One completed pipeline evaluation.
struct EvalRecord {
  Configuration config;
  double valid_f1 = 0.0;
  double test_f1 = -1.0;  // -1 when no test set was supplied
  double fit_seconds = 0.0;
  /// 0-based index of this evaluation in the evaluator's trajectory.
  int trial = 0;
  /// Wall clock from evaluator construction to the end of this evaluation.
  /// Together with `trial` this makes a trajectory a complete Fig. 3-style
  /// tuning curve (best F1 vs time) that SaveTrajectory/FormatTuningCurve
  /// can serialize without re-running the search.
  double elapsed_seconds = 0.0;
  /// kNone for a clean trial. Anything else means valid_f1 is the imputed
  /// worst score (0.0), not a measurement, and the search must quarantine
  /// this configuration.
  TrialFailure failure = TrialFailure::kNone;
  /// Human-readable cause for quarantined trials (Status message); empty on
  /// success. Not serialized into trajectories.
  std::string failure_message;
  /// What the trial cost (CPU / wall / peak-RSS growth / allocations).
  /// Measurement only — never feeds back into the search — so enabling
  /// probes cannot change results. Flows into trajectory CSVs and v2
  /// checkpoints.
  TrialResources resources;
  /// Thread-pool wait/run split for this trial (obs v4): deltas of the
  /// process-wide `threadpool.wait_micros` / `threadpool.busy_micros`
  /// counters across the evaluation. Wait is summed enqueue→dequeue queue
  /// delay of the trial's pool tasks; busy is their summed execution wall
  /// time. Both zero when resource probes were off (trials run serially, so
  /// the process-wide counters attribute cleanly). Joins the trajectory CSV
  /// (`pool_wait_micros`, `pool_busy_micros`) and checkpoints.
  uint64_t pool_wait_micros = 0;
  uint64_t pool_busy_micros = 0;
};

/// Per-trial resource limits applied by the evaluator.
struct TrialOptions {
  /// Cooperative wall-clock deadline per evaluation; <= 0 disables. A trial
  /// past its deadline is cancelled (forest fits bail at the next tree/node
  /// boundary) and recorded as TrialFailure::kTimeout.
  double max_trial_seconds = 0.0;
};

/// Satellite guard against silent NaN propagation into the surrogate mean:
/// OK for finite scores, Status::Internal naming the offending config hash
/// otherwise.
Status ValidateTrialScore(double score, const Configuration& config);

/// One-hold-out evaluation (the paper's validation protocol, §V-A): fit the
/// candidate pipeline on `train`, score F1 on `valid`. A `test` set may be
/// attached for trajectory reporting (Fig. 10); it never influences search.
class HoldoutEvaluator {
 public:
  HoldoutEvaluator(Dataset train, Dataset valid);

  /// Attaches an optional test set scored alongside each evaluation.
  void SetTestSet(Dataset test) { test_ = std::move(test); has_test_ = true; }

  /// Parallelism applied to every compiled candidate pipeline (the search
  /// itself stays sequential — SMAC is inherently iterative; the win is
  /// inside each forest fit). Scores are unchanged by this setting.
  void SetParallelism(const Parallelism& parallelism) {
    parallelism_ = parallelism;
  }

  /// Per-trial limits (deadline). Applies to subsequent Evaluate calls.
  void SetTrialOptions(const TrialOptions& options) {
    trial_options_ = options;
  }

  /// Fits and scores one configuration. Never throws and never aborts the
  /// search: a trial that errors, exceeds its deadline, or produces a
  /// non-finite score comes back with the worst score imputed (0.0) and
  /// `failure` set, so callers can quarantine the config and continue.
  EvalRecord Evaluate(const Configuration& config);

  size_t num_evaluations() const { return trajectory_.size(); }
  const std::vector<EvalRecord>& trajectory() const { return trajectory_; }

  /// Best record so far by validation F1 (ties: earliest wins).
  const EvalRecord& best() const;

  /// Checkpoint resume: seeds the trajectory with `history` (recomputing the
  /// best index) and offsets future elapsed_seconds by `elapsed_offset` so a
  /// resumed run's tuning curve continues the killed run's clock instead of
  /// restarting at zero. Must be called before the first Evaluate.
  void RestoreTrajectory(std::vector<EvalRecord> history,
                         double elapsed_offset);

  const Dataset& train() const { return train_; }
  const Dataset& valid() const { return valid_; }

 private:
  /// The fallible core of Evaluate: compile, fit under the trial deadline,
  /// score, validate finiteness. Sets record fields on success; on failure
  /// may tag record->failure (non-finite detection) and returns the error.
  Status FitAndScore(const Configuration& config, EvalRecord* record);

  Dataset train_;
  Dataset valid_;
  Dataset test_;
  Parallelism parallelism_;
  TrialOptions trial_options_;
  bool has_test_ = false;
  std::vector<EvalRecord> trajectory_;
  size_t best_index_ = 0;
  double elapsed_offset_ = 0.0;  // prior run's clock, from RestoreTrajectory
  Stopwatch lifetime_;  // feeds EvalRecord::elapsed_seconds
};

/// Stratified k-fold cross-validated F1 of one configuration — the
/// resampling alternative to one-hold-out validation (auto-sklearn offers
/// both; the paper uses holdout, §V-A). Returns the mean fold F1; folds
/// whose fit fails contribute 0. InvalidArgument for folds < 2 or datasets
/// with fewer rows than folds.
///
/// Folds are fitted concurrently under `parallelism`, each on its own
/// compiled pipeline; fold assignment is fixed by `seed` before dispatch
/// and fold scores are reduced in fold order, so the result is bit-identical
/// at any thread count.
Result<double> CrossValidatedF1(const Configuration& config,
                                const Dataset& data, int folds,
                                uint64_t seed,
                                const Parallelism& parallelism = {});

}  // namespace autoem

#endif  // AUTOEM_AUTOML_EVALUATOR_H_
