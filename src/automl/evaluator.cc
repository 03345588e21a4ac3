#include "automl/evaluator.h"

#include <cmath>
#include <exception>
#include <new>

#include "automl/config_io.h"
#include "common/rng.h"
#include "fault/failpoint.h"
#include "ml/metrics.h"
#include "obs/obs.h"

namespace autoem {

const char* TrialFailureName(TrialFailure failure) {
  switch (failure) {
    case TrialFailure::kNone:
      return "ok";
    case TrialFailure::kError:
      return "error";
    case TrialFailure::kTimeout:
      return "timeout";
    case TrialFailure::kNonFinite:
      return "non_finite";
  }
  return "unknown";
}

Status ValidateTrialScore(double score, const Configuration& config) {
  if (std::isfinite(score)) return Status::OK();
  return Status::Internal(
      "non-finite score " + std::to_string(score) + " for config hash " +
      std::to_string(ConfigurationHash(config)));
}

HoldoutEvaluator::HoldoutEvaluator(Dataset train, Dataset valid)
    : train_(std::move(train)), valid_(std::move(valid)) {}

Status HoldoutEvaluator::FitAndScore(const Configuration& config,
                                     EvalRecord* record) {
  // The library itself reports failures through Status, but a pathological
  // configuration can still blow memory inside the STL (and the bad_alloc
  // failpoint simulates exactly that); catch here so one trial's OOM becomes
  // a quarantined record, not a dead search.
  try {
    AUTOEM_FAILPOINT("evaluator.fit");
    auto compiled = EmPipeline::Compile(config);
    AUTOEM_RETURN_IF_ERROR(compiled.status());
    EmPipeline& pipeline = *compiled;
    pipeline.SetParallelism(parallelism_);

    fault::CancelToken cancel;
    if (trial_options_.max_trial_seconds > 0.0) {
      cancel =
          fault::CancelToken::WithDeadline(trial_options_.max_trial_seconds);
      pipeline.SetCancelToken(cancel);
    }

    AUTOEM_RETURN_IF_ERROR(pipeline.Fit(train_));
    AUTOEM_FAILPOINT("evaluator.score");
    AUTOEM_RETURN_IF_ERROR(cancel.Check("evaluator.score"));
    double valid_f1 = F1Score(valid_.y, pipeline.Predict(valid_.X));
    Status finite = ValidateTrialScore(valid_f1, config);
    if (!finite.ok()) {
      record->failure = TrialFailure::kNonFinite;
      return finite;
    }
    record->valid_f1 = valid_f1;
    if (has_test_) {
      double test_f1 = F1Score(test_.y, pipeline.Predict(test_.X));
      record->test_f1 = std::isfinite(test_f1) ? test_f1 : -1.0;
    }
  } catch (const std::bad_alloc&) {
    return Status::Internal("out of memory evaluating config hash " +
                            std::to_string(ConfigurationHash(config)));
  } catch (const std::exception& e) {
    return Status::Internal("exception evaluating config hash " +
                            std::to_string(ConfigurationHash(config)) + ": " +
                            e.what());
  }
  return Status::OK();
}

EvalRecord HoldoutEvaluator::Evaluate(const Configuration& config) {
  static obs::Counter* trials =
      obs::MetricsRegistry::Global().GetCounter("automl.trials");
  static obs::Counter* failed_error =
      obs::MetricsRegistry::Global().GetCounter("automl.trials_failed.error");
  static obs::Counter* failed_timeout =
      obs::MetricsRegistry::Global().GetCounter("automl.trials_failed.timeout");
  static obs::Counter* failed_non_finite =
      obs::MetricsRegistry::Global().GetCounter(
          "automl.trials_failed.non_finite");
  static obs::Histogram* eval_ms =
      obs::MetricsRegistry::Global().GetHistogram("automl.pipeline_eval_ms");
  static obs::Histogram* trial_cpu_ms =
      obs::MetricsRegistry::Global().GetHistogram("automl.trial_cpu_ms");
  obs::Span span("automl.pipeline_eval");
  obs::ResourceProbe probe;
  // Pool wait/run attribution (obs v4): trials run serially, so deltas of
  // the process-wide pool counters belong to this trial.
  static obs::Counter* pool_wait =
      obs::MetricsRegistry::Global().GetCounter("threadpool.wait_micros");
  static obs::Counter* pool_busy =
      obs::MetricsRegistry::Global().GetCounter("threadpool.busy_micros");
  const bool pool_split_sampled = obs::ResourceProbesEnabled();
  uint64_t pool_wait_before = pool_split_sampled ? pool_wait->Total() : 0;
  uint64_t pool_busy_before = pool_split_sampled ? pool_busy->Total() : 0;

  EvalRecord record;
  record.config = config;
  record.trial = static_cast<int>(trajectory_.size());

  Stopwatch timer;
  Status st = FitAndScore(config, &record);
  if (!st.ok()) {
    // Quarantine: impute the worst score so the surrogate learns this region
    // is bad, and classify the failure so the search never re-proposes it.
    record.valid_f1 = 0.0;
    record.test_f1 = -1.0;
    if (record.failure == TrialFailure::kNone) {
      record.failure = st.code() == StatusCode::kDeadlineExceeded
                           ? TrialFailure::kTimeout
                           : TrialFailure::kError;
    }
    record.failure_message = st.ToString();
    switch (record.failure) {
      case TrialFailure::kTimeout:
        failed_timeout->Add();
        break;
      case TrialFailure::kNonFinite:
        failed_non_finite->Add();
        break;
      default:
        failed_error->Add();
        break;
    }
    AUTOEM_LOG(WARN) << "trial " << record.trial << " quarantined ("
                     << TrialFailureName(record.failure)
                     << "): " << record.failure_message;
  }
  record.fit_seconds = timer.ElapsedSeconds();
  record.elapsed_seconds = lifetime_.ElapsedSeconds() + elapsed_offset_;
  record.resources = probe.Take();
  if (pool_split_sampled) {
    uint64_t wait_after = pool_wait->Total();
    uint64_t busy_after = pool_busy->Total();
    record.pool_wait_micros =
        wait_after > pool_wait_before ? wait_after - pool_wait_before : 0;
    record.pool_busy_micros =
        busy_after > pool_busy_before ? busy_after - pool_busy_before : 0;
  }

  trials->Add();
  eval_ms->Observe(record.fit_seconds * 1000.0);
  if (record.resources.sampled) {
    trial_cpu_ms->Observe(record.resources.cpu_seconds * 1000.0);
  }
  if (span.active()) {
    span.Arg("trial", record.trial);
    span.Arg("config_hash", ConfigurationHash(config));
    span.Arg("valid_f1", record.valid_f1);
    span.Arg("fit_ms", record.fit_seconds * 1000.0);
    span.Arg("failure", TrialFailureName(record.failure));
    if (record.resources.sampled) {
      span.Arg("cpu_ms", record.resources.cpu_seconds * 1000.0);
      span.Arg("rss_delta_kb", record.resources.peak_rss_delta_kb);
      span.Arg("allocs", record.resources.allocs);
    }
    if (pool_split_sampled) {
      span.Arg("pool_wait_us", record.pool_wait_micros);
      span.Arg("pool_busy_us", record.pool_busy_micros);
    }
  }
  AUTOEM_LOG(DEBUG) << "trial " << record.trial << " valid_f1="
                    << record.valid_f1 << " fit_s=" << record.fit_seconds;

  if (trajectory_.empty() ||
      record.valid_f1 > trajectory_[best_index_].valid_f1) {
    best_index_ = trajectory_.size();
  }
  trajectory_.push_back(record);
  return record;
}

void HoldoutEvaluator::RestoreTrajectory(std::vector<EvalRecord> history,
                                         double elapsed_offset) {
  trajectory_ = std::move(history);
  elapsed_offset_ = elapsed_offset;
  best_index_ = 0;
  for (size_t i = 1; i < trajectory_.size(); ++i) {
    if (trajectory_[i].valid_f1 > trajectory_[best_index_].valid_f1) {
      best_index_ = i;
    }
  }
}

const EvalRecord& HoldoutEvaluator::best() const {
  AUTOEM_CHECK(!trajectory_.empty());
  return trajectory_[best_index_];
}

Result<double> CrossValidatedF1(const Configuration& config,
                                const Dataset& data, int folds,
                                uint64_t seed,
                                const Parallelism& parallelism) {
  if (folds < 2) return Status::InvalidArgument("folds must be >= 2");
  if (data.size() < static_cast<size_t>(folds)) {
    return Status::InvalidArgument("fewer rows than folds");
  }
  // Stratified fold assignment: spread each class round-robin over folds.
  Rng rng(seed);
  std::vector<size_t> pos;
  std::vector<size_t> neg;
  for (size_t i = 0; i < data.size(); ++i) {
    (data.y[i] == 1 ? pos : neg).push_back(i);
  }
  rng.Shuffle(&pos);
  rng.Shuffle(&neg);
  std::vector<int> fold_of(data.size(), 0);
  for (size_t k = 0; k < pos.size(); ++k) {
    fold_of[pos[k]] = static_cast<int>(k % folds);
  }
  for (size_t k = 0; k < neg.size(); ++k) {
    fold_of[neg[k]] = static_cast<int>(k % folds);
  }

  // The configuration either compiles for every fold or for none; validate
  // once up front so the parallel loop below cannot fail.
  AUTOEM_RETURN_IF_ERROR(EmPipeline::Compile(config).status());

  // Fold assignment is fixed above, before any fitting, and each fold gets
  // its own freshly compiled pipeline — folds share nothing mutable, and
  // reducing fold scores in fold order keeps the mean bit-identical at any
  // thread count.
  static obs::Counter* cv_folds =
      obs::MetricsRegistry::Global().GetCounter("automl.cv_folds");
  static obs::Histogram* cv_fold_ms =
      obs::MetricsRegistry::Global().GetHistogram("automl.cv_fold_ms");
  static obs::Histogram* cv_fold_cpu_ms =
      obs::MetricsRegistry::Global().GetHistogram("automl.cv_fold_cpu_ms");
  obs::Span cv_span("automl.cv");
  if (cv_span.active()) {
    cv_span.Arg("folds", folds);
    cv_span.Arg("rows", data.size());
  }
  std::vector<double> fold_f1(folds, 0.0);
  ParallelFor(parallelism, static_cast<size_t>(folds), [&](size_t fold) {
    obs::Span fold_span("automl.cv_fold");
    if (fold_span.active()) fold_span.Arg("fold", fold);
    obs::ResourceProbe fold_probe;
    Stopwatch fold_timer;
    std::vector<size_t> train_idx;
    std::vector<size_t> valid_idx;
    for (size_t i = 0; i < data.size(); ++i) {
      (fold_of[i] == static_cast<int>(fold) ? valid_idx : train_idx)
          .push_back(i);
    }
    if (valid_idx.empty() || train_idx.empty()) return;
    Dataset train = data.SelectRows(train_idx);
    Dataset valid = data.SelectRows(valid_idx);
    auto pipeline = EmPipeline::Compile(config);
    if (!pipeline.ok()) return;  // cannot happen: validated above
    pipeline->SetParallelism(parallelism);
    bool fit_ok = pipeline->Fit(train).ok();
    if (fit_ok) {
      fold_f1[fold] = F1Score(valid.y, pipeline->Predict(valid.X));
    }
    cv_folds->Add();
    cv_fold_ms->Observe(fold_timer.ElapsedMillis());
    if (fold_probe.active()) {
      obs::ResourceUsage used = fold_probe.Take();
      cv_fold_cpu_ms->Observe(used.cpu_seconds * 1000.0);
      if (fold_span.active()) {
        fold_span.Arg("cpu_ms", used.cpu_seconds * 1000.0);
        fold_span.Arg("allocs", used.allocs);
      }
    }
    if (fold_span.active()) fold_span.Arg("f1", fold_f1[fold]);
  });

  double total_f1 = 0.0;
  for (double f1 : fold_f1) total_f1 += f1;
  return total_f1 / folds;
}

}  // namespace autoem
