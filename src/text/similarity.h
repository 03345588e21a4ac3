#ifndef AUTOEM_TEXT_SIMILARITY_H_
#define AUTOEM_TEXT_SIMILARITY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace autoem {

// String similarity primitives backing the feature-generation tables
// (Table I / Table II of the paper). Sequence measures follow the
// py_stringmatching definitions Magellan uses; token measures operate on
// token *sets*.
//
// Two implementations exist for every kernel with a fast path: the
// production kernel below and a scalar reference under `reference::`.
// The references are kept forever as the correctness oracle — the
// differential property tests (tests/kernel_property_test.cc) assert exact
// agreement on random and hostile inputs, which is what licenses every
// future rewrite of the fast path.

/// Levenshtein (edit) distance: minimum number of single-character
/// insertions, deletions, and substitutions. Myers' bit-parallel algorithm:
/// one 64-bit word when the shorter string fits in 64 bytes, the blocked
/// multi-word variant above that. Integer-exact, so results are bit-identical
/// to `reference::LevenshteinDistance`.
int LevenshteinDistance(std::string_view a, std::string_view b);

/// Normalized Levenshtein similarity: 1 - dist / max(|a|, |b|); 1.0 for two
/// empty strings.
double LevenshteinSimilarity(std::string_view a, std::string_view b);

/// LevenshteinSimilarity from a known distance: 1 - distance / max_len, 1.0
/// when max_len is 0. Lets one distance serve both Levenshtein features.
double LevenshteinSimilarityFromDistance(int distance, size_t max_len);

/// Jaro similarity in [0, 1]. Bit-parallel: b's unmatched positions live in
/// a bit set (one word when |b| <= 64), and each character of a takes the
/// lowest set bit of `eq[a[i]] & unmatched & window` — exactly the greedy
/// "first unmatched equal position in the window" of `reference::`.
double JaroSimilarity(std::string_view a, std::string_view b);

/// Jaro-Winkler similarity with common-prefix boost (p = 0.1, max prefix 4).
double JaroWinklerSimilarity(std::string_view a, std::string_view b);

/// Winkler's prefix boost applied to `jaro`, the Jaro similarity of (a, b).
/// Lets one Jaro pass serve both the Jaro and the Jaro-Winkler features.
double JaroWinklerFromJaro(double jaro, std::string_view a, std::string_view b);

/// 1.0 iff the strings are identical, else 0.0.
double ExactMatch(std::string_view a, std::string_view b);

/// Both alignment scores of (a, b). Needleman-Wunsch and Smith-Waterman run
/// the same recurrence (match +1, mismatch -1, gap -1) and differ only in
/// Smith-Waterman's floor of 0, so one DP pass yields both.
struct AlignmentScores {
  double needleman_wunsch;
  double smith_waterman;
};
AlignmentScores Align(std::string_view a, std::string_view b);

/// Needleman-Wunsch global alignment score normalized by max(|a|, |b|) and
/// affinely rescaled from the raw [-1, 1] band into [0, 1] like every other
/// string kernel: identical strings score 1.0, empty-vs-nonempty and
/// all-mismatch score 0.0, and two empty strings score 1.0. Keeping the
/// feature bounded stops alignment scores from leaking an unbounded negative
/// range into the imputer/scaler.
double NeedlemanWunsch(std::string_view a, std::string_view b);

/// Smith-Waterman local alignment score normalized by min(|a|, |b|), in
/// [0, 1].
double SmithWaterman(std::string_view a, std::string_view b);

/// Monge-Elkan: mean over tokens of `a` of the best Jaro-Winkler match in
/// `b`'s tokens (whitespace tokenization), the standard hybrid measure.
double MongeElkan(std::string_view a, std::string_view b);

// ---- token-set measures ----------------------------------------------------

/// |A ∩ B| / |A ∪ B|; 1.0 when both sets are empty.
double JaccardSimilarity(const std::vector<std::string>& a,
                         const std::vector<std::string>& b);

/// |A ∩ B| / sqrt(|A| * |B|) (set cosine, a.k.a. Ochiai coefficient).
double CosineSimilarity(const std::vector<std::string>& a,
                        const std::vector<std::string>& b);

/// 2|A ∩ B| / (|A| + |B|).
double DiceSimilarity(const std::vector<std::string>& a,
                      const std::vector<std::string>& b);

/// |A ∩ B| / min(|A|, |B|).
double OverlapCoefficient(const std::vector<std::string>& a,
                          const std::vector<std::string>& b);

// ---- token-ID set measures --------------------------------------------------
//
// Fast variants of the four set measures over interned token IDs. Inputs
// must be sorted and duplicate-free (TableTokenCache produces exactly that,
// via a TokenInterner shared across both tables so equal tokens get equal
// IDs). Each is a single linear merge — no hashing, no per-call allocation —
// and computes the same integer |A|, |B|, |A ∩ B| as the string overloads,
// so the resulting doubles are bit-identical.

/// The four set measures from the set sizes |A|, |B| and |A ∩ B|. Both the
/// string and the ID overloads compute their counts and then call these, so
/// one intersection can serve all four measures of a tokenizer.
double JaccardFromCounts(size_t a, size_t b, size_t inter);
double CosineFromCounts(size_t a, size_t b, size_t inter);
double DiceFromCounts(size_t a, size_t b, size_t inter);
double OverlapFromCounts(size_t a, size_t b, size_t inter);

/// |A ∩ B| for sorted duplicate-free ID vectors.
size_t SortedIdIntersectionSize(const std::vector<uint32_t>& a,
                                const std::vector<uint32_t>& b);

double JaccardSimilarityIds(const std::vector<uint32_t>& a,
                            const std::vector<uint32_t>& b);
double CosineSimilarityIds(const std::vector<uint32_t>& a,
                           const std::vector<uint32_t>& b);
double DiceSimilarityIds(const std::vector<uint32_t>& a,
                         const std::vector<uint32_t>& b);
double OverlapCoefficientIds(const std::vector<uint32_t>& a,
                             const std::vector<uint32_t>& b);

// ---- numeric measures -------------------------------------------------------

/// Absolute norm similarity for numbers: 1 - |a-b| / max(|a|, |b|), clamped
/// to [0, 1]; 1.0 when both are zero.
double AbsoluteNorm(double a, double b);

// ---- scalar reference kernels ----------------------------------------------
//
// Retained forever as the correctness oracle for the fast kernels above.
// Never optimized, never deleted; see DESIGN.md §13.
namespace reference {

/// Textbook one-row dynamic program. Oracle for the bit-parallel kernel.
int LevenshteinDistance(std::string_view a, std::string_view b);

/// Scalar greedy matching over two flag arrays. Oracle for the bit-parallel
/// Jaro and for the shared-Jaro Jaro-Winkler.
double JaroSimilarity(std::string_view a, std::string_view b);
double JaroWinklerSimilarity(std::string_view a, std::string_view b);

/// One-row dynamic programs, one per measure. Oracles for the one-pass
/// `Align`.
double NeedlemanWunsch(std::string_view a, std::string_view b);
double SmithWaterman(std::string_view a, std::string_view b);

/// Allocating whitespace tokens scored with `reference::JaroWinklerSimilarity`.
/// Oracle for the zero-copy Monge-Elkan.
double MongeElkan(std::string_view a, std::string_view b);

}  // namespace reference

}  // namespace autoem

#endif  // AUTOEM_TEXT_SIMILARITY_H_
