#include "text/similarity_function.h"

#include <algorithm>
#include <limits>

#include "common/string_util.h"

namespace autoem {

const char* MeasureName(Measure m) {
  switch (m) {
    case Measure::kLevenshteinDistance:
      return "Levenshtein Distance";
    case Measure::kLevenshteinSimilarity:
      return "Levenshtein Similarity";
    case Measure::kJaro:
      return "Jaro Distance";
    case Measure::kJaroWinkler:
      return "Jaro-Winkler Distance";
    case Measure::kExactMatch:
      return "Exact Match";
    case Measure::kNeedlemanWunsch:
      return "Needleman-Wunsch Algorithm";
    case Measure::kSmithWaterman:
      return "Smith-Waterman Algorithm";
    case Measure::kMongeElkan:
      return "Monge-Elkan Algorithm";
    case Measure::kOverlapCoefficient:
      return "Overlap Coefficient";
    case Measure::kDice:
      return "Dice Similarity";
    case Measure::kCosine:
      return "Cosine Similarity";
    case Measure::kJaccard:
      return "Jaccard Similarity";
    case Measure::kAbsoluteNorm:
      return "Absolute Norm";
  }
  return "?";
}

std::string SimFunction::Name() const {
  std::string out = "(";
  out += MeasureName(measure);
  out += ", ";
  out += TokenizerName(tokenizer);
  out += ")";
  return out;
}

bool SimFunction::IsTokenMeasure() const {
  switch (measure) {
    case Measure::kOverlapCoefficient:
    case Measure::kDice:
    case Measure::kCosine:
    case Measure::kJaccard:
      return true;
    default:
      return false;
  }
}

namespace {

// A set measure from its counts (see JaccardFromCounts and friends).
double SetMeasureFromCounts(Measure m, size_t a, size_t b, size_t inter) {
  switch (m) {
    case Measure::kOverlapCoefficient:
      return OverlapFromCounts(a, b, inter);
    case Measure::kDice:
      return DiceFromCounts(a, b, inter);
    case Measure::kCosine:
      return CosineFromCounts(a, b, inter);
    case Measure::kJaccard:
      return JaccardFromCounts(a, b, inter);
    default:
      return std::numeric_limits<double>::quiet_NaN();
  }
}

// A set measure on string tokens (the uncached path).
double SetMeasureOnTokens(Measure m, const std::vector<std::string>& a,
                          const std::vector<std::string>& b) {
  switch (m) {
    case Measure::kOverlapCoefficient:
      return OverlapCoefficient(a, b);
    case Measure::kDice:
      return DiceSimilarity(a, b);
    case Measure::kCosine:
      return CosineSimilarity(a, b);
    case Measure::kJaccard:
      return JaccardSimilarity(a, b);
    default:
      return std::numeric_limits<double>::quiet_NaN();
  }
}

}  // namespace

double SimFunction::Apply(std::string_view a, std::string_view b) const {
  KernelMemo memo;
  memo.Reset(a, b);
  return memo.Apply(*this);
}

void KernelMemo::Reset(std::string_view a, std::string_view b) {
  a_ = a;
  b_ = b;
  has_levenshtein_ = false;
  has_jaro_ = false;
  has_alignment_ = false;
  has_intersection_[0] = false;
  has_intersection_[1] = false;
}

double KernelMemo::Apply(const SimFunction& f) {
  switch (f.measure) {
    case Measure::kLevenshteinDistance:
    case Measure::kLevenshteinSimilarity:
      if (!has_levenshtein_) {
        levenshtein_ = LevenshteinDistance(a_, b_);
        has_levenshtein_ = true;
      }
      return f.measure == Measure::kLevenshteinDistance
                 ? static_cast<double>(levenshtein_)
                 : LevenshteinSimilarityFromDistance(
                       levenshtein_, std::max(a_.size(), b_.size()));
    case Measure::kJaro:
    case Measure::kJaroWinkler:
      if (!has_jaro_) {
        jaro_ = JaroSimilarity(a_, b_);
        has_jaro_ = true;
      }
      return f.measure == Measure::kJaro ? jaro_
                                         : JaroWinklerFromJaro(jaro_, a_, b_);
    case Measure::kNeedlemanWunsch:
    case Measure::kSmithWaterman:
      if (!has_alignment_) {
        alignment_ = Align(a_, b_);
        has_alignment_ = true;
      }
      return f.measure == Measure::kNeedlemanWunsch
                 ? alignment_.needleman_wunsch
                 : alignment_.smith_waterman;
    case Measure::kExactMatch:
      return ExactMatch(a_, b_);
    case Measure::kMongeElkan:
      return MongeElkan(a_, b_);
    case Measure::kOverlapCoefficient:
    case Measure::kDice:
    case Measure::kCosine:
    case Measure::kJaccard:
      return SetMeasureOnTokens(f.measure, Tokenize(f.tokenizer, a_),
                                Tokenize(f.tokenizer, b_));
    case Measure::kAbsoluteNorm: {
      double va = 0.0;
      double vb = 0.0;
      if (!ParseDouble(a_, &va) || !ParseDouble(b_, &vb)) {
        return std::numeric_limits<double>::quiet_NaN();
      }
      return AbsoluteNorm(va, vb);
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

double KernelMemo::ApplyTokenIds(const SimFunction& f,
                                 const std::vector<uint32_t>& a_ids,
                                 const std::vector<uint32_t>& b_ids) {
  const size_t k = f.tokenizer == TokenizerKind::kWhitespace ? 0 : 1;
  if (!has_intersection_[k]) {
    intersection_[k] = SortedIdIntersectionSize(a_ids, b_ids);
    has_intersection_[k] = true;
  }
  return SetMeasureFromCounts(f.measure, a_ids.size(), b_ids.size(),
                              intersection_[k]);
}

const std::vector<SimFunction>& AllStringFunctions() {
  // Table II, rows 1-16.
  static const std::vector<SimFunction>& kFuncs =
      *new std::vector<SimFunction>{
          {Measure::kLevenshteinDistance, TokenizerKind::kNone},
          {Measure::kLevenshteinSimilarity, TokenizerKind::kNone},
          {Measure::kJaro, TokenizerKind::kNone},
          {Measure::kExactMatch, TokenizerKind::kNone},
          {Measure::kJaroWinkler, TokenizerKind::kNone},
          {Measure::kNeedlemanWunsch, TokenizerKind::kNone},
          {Measure::kSmithWaterman, TokenizerKind::kNone},
          {Measure::kMongeElkan, TokenizerKind::kNone},
          {Measure::kOverlapCoefficient, TokenizerKind::kWhitespace},
          {Measure::kDice, TokenizerKind::kWhitespace},
          {Measure::kCosine, TokenizerKind::kWhitespace},
          {Measure::kJaccard, TokenizerKind::kWhitespace},
          {Measure::kOverlapCoefficient, TokenizerKind::kQGram3},
          {Measure::kDice, TokenizerKind::kQGram3},
          {Measure::kCosine, TokenizerKind::kQGram3},
          {Measure::kJaccard, TokenizerKind::kQGram3},
      };
  return kFuncs;
}

const std::vector<SimFunction>& AllNumericFunctions() {
  // Table II, rows 17-20 (identical to Table I rows 22-25).
  static const std::vector<SimFunction>& kFuncs =
      *new std::vector<SimFunction>{
          {Measure::kLevenshteinDistance, TokenizerKind::kNone},
          {Measure::kLevenshteinSimilarity, TokenizerKind::kNone},
          {Measure::kExactMatch, TokenizerKind::kNone},
          {Measure::kAbsoluteNorm, TokenizerKind::kNone},
      };
  return kFuncs;
}

const std::vector<SimFunction>& AllBooleanFunctions() {
  static const std::vector<SimFunction>& kFuncs =
      *new std::vector<SimFunction>{
          {Measure::kExactMatch, TokenizerKind::kNone},
      };
  return kFuncs;
}

}  // namespace autoem
