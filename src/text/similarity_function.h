#ifndef AUTOEM_TEXT_SIMILARITY_FUNCTION_H_
#define AUTOEM_TEXT_SIMILARITY_FUNCTION_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "text/similarity.h"
#include "text/tokenizer.h"

namespace autoem {

/// The similarity measures used in the paper's Table I / Table II.
enum class Measure {
  kLevenshteinDistance,
  kLevenshteinSimilarity,
  kJaro,
  kJaroWinkler,
  kExactMatch,
  kNeedlemanWunsch,
  kSmithWaterman,
  kMongeElkan,
  kOverlapCoefficient,
  kDice,
  kCosine,
  kJaccard,
  kAbsoluteNorm,
};

/// A (measure, tokenizer) pair — one row of Table I / Table II. Sequence
/// measures use TokenizerKind::kNone; set measures use Space or 3-gram.
struct SimFunction {
  Measure measure;
  TokenizerKind tokenizer = TokenizerKind::kNone;

  /// "(Jaccard Similarity, Space)"-style name matching the paper's tables.
  std::string Name() const;

  /// Computes the similarity between two attribute values rendered as
  /// strings. kAbsoluteNorm parses both sides as numbers and returns NaN if
  /// either fails to parse; all other measures operate on the raw strings.
  double Apply(std::string_view a, std::string_view b) const;

  /// True when the measure consumes token *sets* (Overlap/Dice/Cosine/
  /// Jaccard), i.e. when `tokenizer` participates in Apply.
  bool IsTokenMeasure() const;
};

/// Memo of the kernels several Table II functions share, for one pair of
/// cell strings: one Levenshtein serves lev_dist and lev_sim, one Jaro serves
/// jaro and jaro_winkler, one alignment pass serves Needleman-Wunsch and
/// Smith-Waterman, and one ID intersection per tokenizer serves the four set
/// measures. Each kernel runs at most once between Resets, on first use.
///
/// The memo is keyed by nothing but Reset: the caller must Reset it whenever
/// the strings (for feature rows: the attribute) change. SimFunction::Apply
/// is a fresh memo applied once, so both paths run the same kernels.
class KernelMemo {
 public:
  /// Forgets every memoized result and binds the memo to (a, b). The
  /// strings must stay alive until the next Reset.
  void Reset(std::string_view a, std::string_view b);

  /// `f` applied to the bound strings; equal to f.Apply(a, b).
  double Apply(const SimFunction& f);

  /// Set measure `f` on the interned sorted-unique token IDs of the bound
  /// strings under f.tokenizer (both sides from one TokenInterner); equal to
  /// f.Apply(a, b). Precondition: f.IsTokenMeasure() and f.tokenizer is
  /// kWhitespace or kQGram3.
  double ApplyTokenIds(const SimFunction& f, const std::vector<uint32_t>& a_ids,
                       const std::vector<uint32_t>& b_ids);

 private:
  std::string_view a_;
  std::string_view b_;
  bool has_levenshtein_ = false;
  bool has_jaro_ = false;
  bool has_alignment_ = false;
  bool has_intersection_[2] = {false, false};  // [kWhitespace, kQGram3]
  int levenshtein_ = 0;
  double jaro_ = 0.0;
  AlignmentScores alignment_{};
  size_t intersection_[2] = {0, 0};
};

/// Short display name of a measure, e.g. "Jaccard Similarity".
const char* MeasureName(Measure m);

/// All sixteen string similarity functions of Table II (8 sequence measures
/// plus {Overlap, Dice, Cosine, Jaccard} × {Space, 3-gram}).
const std::vector<SimFunction>& AllStringFunctions();

/// The four numeric functions shared by Table I and Table II: Levenshtein
/// distance/similarity on the digit strings, exact match, absolute norm.
const std::vector<SimFunction>& AllNumericFunctions();

/// The single boolean function: exact match.
const std::vector<SimFunction>& AllBooleanFunctions();

}  // namespace autoem

#endif  // AUTOEM_TEXT_SIMILARITY_FUNCTION_H_
