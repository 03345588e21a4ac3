#include "text/similarity.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "text/tokenizer.h"

namespace autoem {

namespace {

// Intersection size of two token multiset-collapsed sets.
size_t SetIntersectionSize(const std::vector<std::string>& a,
                           const std::vector<std::string>& b) {
  std::unordered_set<std::string_view> set_a(a.begin(), a.end());
  std::unordered_set<std::string_view> seen;
  size_t count = 0;
  for (const auto& tok : b) {
    if (set_a.count(tok) && seen.insert(tok).second) ++count;
  }
  return count;
}

size_t SetSize(const std::vector<std::string>& v) {
  std::unordered_set<std::string_view> s(v.begin(), v.end());
  return s.size();
}

constexpr int kMatchScore = 1;
constexpr int kMismatchScore = -1;
constexpr int kGapScore = -1;

}  // namespace

namespace reference {

int LevenshteinDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0) return static_cast<int>(m);
  // One-row dynamic program over the shorter string.
  std::vector<int> row(n + 1);
  for (size_t j = 0; j <= n; ++j) row[j] = static_cast<int>(j);
  for (size_t i = 1; i <= m; ++i) {
    int prev_diag = row[0];
    row[0] = static_cast<int>(i);
    for (size_t j = 1; j <= n; ++j) {
      int insert_cost = row[j] + 1;
      int delete_cost = row[j - 1] + 1;
      int subst_cost = prev_diag + (a[j - 1] == b[i - 1] ? 0 : 1);
      prev_diag = row[j];
      row[j] = std::min({insert_cost, delete_cost, subst_cost});
    }
  }
  return row[n];
}

double JaroSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const size_t la = a.size();
  const size_t lb = b.size();
  const size_t match_window =
      std::max<size_t>(1, std::max(la, lb) / 2) - 1;

  std::vector<bool> a_matched(la, false);
  std::vector<bool> b_matched(lb, false);
  size_t matches = 0;
  for (size_t i = 0; i < la; ++i) {
    size_t lo = i > match_window ? i - match_window : 0;
    size_t hi = std::min(lb, i + match_window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (!b_matched[j] && a[i] == b[j]) {
        a_matched[i] = true;
        b_matched[j] = true;
        ++matches;
        break;
      }
    }
  }
  if (matches == 0) return 0.0;

  // Count transpositions among matched characters.
  size_t transpositions = 0;
  size_t j = 0;
  for (size_t i = 0; i < la; ++i) {
    if (!a_matched[i]) continue;
    while (!b_matched[j]) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }
  double m = static_cast<double>(matches);
  return (m / la + m / lb + (m - transpositions / 2.0) / m) / 3.0;
}

double JaroWinklerSimilarity(std::string_view a, std::string_view b) {
  double jaro = JaroSimilarity(a, b);
  const double kPrefixScale = 0.1;
  size_t prefix = 0;
  size_t limit = std::min({a.size(), b.size(), static_cast<size_t>(4)});
  while (prefix < limit && a[prefix] == b[prefix]) ++prefix;
  return jaro + prefix * kPrefixScale * (1.0 - jaro);
}

double NeedlemanWunsch(std::string_view a, std::string_view b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0 && m == 0) return 1.0;
  std::vector<int> row(m + 1);
  for (size_t j = 0; j <= m; ++j) row[j] = static_cast<int>(j) * kGapScore;
  for (size_t i = 1; i <= n; ++i) {
    int prev_diag = row[0];
    row[0] = static_cast<int>(i) * kGapScore;
    for (size_t j = 1; j <= m; ++j) {
      int diag = prev_diag +
                 (a[i - 1] == b[j - 1] ? kMatchScore : kMismatchScore);
      int up = row[j] + kGapScore;
      int left = row[j - 1] + kGapScore;
      prev_diag = row[j];
      row[j] = std::max({diag, up, left});
    }
  }
  // Raw score normalized by max(n, m) lands in [-1, 1]; rescale into [0, 1]
  // so the feature range matches every other string kernel (identical -> 1,
  // empty-vs-nonempty and all-mismatch -> 0).
  const double normalized =
      static_cast<double>(row[m]) / static_cast<double>(std::max(n, m));
  return (normalized + 1.0) / 2.0;
}

double SmithWaterman(std::string_view a, std::string_view b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0 || m == 0) return (n == 0 && m == 0) ? 1.0 : 0.0;
  std::vector<int> row(m + 1, 0);
  int best = 0;
  for (size_t i = 1; i <= n; ++i) {
    int prev_diag = row[0];
    row[0] = 0;
    for (size_t j = 1; j <= m; ++j) {
      int diag = prev_diag +
                 (a[i - 1] == b[j - 1] ? kMatchScore : kMismatchScore);
      int up = row[j] + kGapScore;
      int left = row[j - 1] + kGapScore;
      prev_diag = row[j];
      row[j] = std::max({0, diag, up, left});
      best = std::max(best, row[j]);
    }
  }
  return static_cast<double>(best) / static_cast<double>(std::min(n, m));
}

double MongeElkan(std::string_view a, std::string_view b) {
  std::vector<std::string> tokens_a = WhitespaceTokenize(a);
  std::vector<std::string> tokens_b = WhitespaceTokenize(b);
  if (tokens_a.empty() && tokens_b.empty()) return 1.0;
  if (tokens_a.empty() || tokens_b.empty()) return 0.0;
  double total = 0.0;
  for (const auto& ta : tokens_a) {
    double best = 0.0;
    for (const auto& tb : tokens_b) {
      best = std::max(best, JaroWinklerSimilarity(ta, tb));
    }
    total += best;
  }
  return total / static_cast<double>(tokens_a.size());
}

}  // namespace reference

namespace {

// Myers' bit-parallel edit distance, single-word case: pattern |a| <= 64.
// The DP column for the pattern is encoded as vertical-delta bit vectors
// Pv/Mv (+1/-1); each text character updates them in O(1) word ops.
int MyersLevenshtein64(std::string_view a, std::string_view b) {
  const size_t m = a.size();
  // Only the entries the loops below read are zeroed (every byte of a and
  // b), not all 256.
  uint64_t peq[256];
  for (const char c : a) peq[static_cast<unsigned char>(c)] = 0;
  for (const char c : b) peq[static_cast<unsigned char>(c)] = 0;
  for (size_t i = 0; i < m; ++i) {
    peq[static_cast<unsigned char>(a[i])] |= uint64_t{1} << i;
  }
  const uint64_t last = uint64_t{1} << (m - 1);
  uint64_t pv = ~uint64_t{0};
  uint64_t mv = 0;
  int score = static_cast<int>(m);
  for (const char c : b) {
    const uint64_t eq = peq[static_cast<unsigned char>(c)];
    const uint64_t xv = eq | mv;
    const uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
    uint64_t ph = mv | ~(xh | pv);
    uint64_t mh = pv & xh;
    if (ph & last) ++score;
    else if (mh & last) --score;
    ph = (ph << 1) | 1;
    mh = mh << 1;
    pv = mh | ~(xv | ph);
    mv = ph & xv;
  }
  return score;
}

// Blocked variant for patterns longer than 64 bytes (Myers 1999 / Hyyrö
// 2003): the pattern is split into 64-bit blocks and the horizontal
// deltas carry between blocks; the score is tracked at the pattern's
// last row, bit (m-1) % 64 of the top block.
int MyersLevenshteinBlocked(std::string_view a, std::string_view b) {
  const size_t m = a.size();
  const size_t words = (m + 63) / 64;
  std::vector<uint64_t> peq(256 * words, 0);
  for (size_t i = 0; i < m; ++i) {
    peq[static_cast<unsigned char>(a[i]) * words + i / 64] |=
        uint64_t{1} << (i % 64);
  }
  std::vector<uint64_t> pv(words, ~uint64_t{0});
  std::vector<uint64_t> mv(words, 0);
  const uint64_t top_bit = uint64_t{1} << ((m - 1) % 64);
  int score = static_cast<int>(m);
  for (const char c : b) {
    const uint64_t* eq_row = &peq[static_cast<unsigned char>(c) * words];
    uint64_t ph_in = 1;
    uint64_t mh_in = 0;
    for (size_t w = 0; w < words; ++w) {
      uint64_t eq = eq_row[w];
      const uint64_t pv_w = pv[w];
      const uint64_t mv_w = mv[w];
      const uint64_t xv = eq | mv_w;
      eq |= mh_in;  // incoming -1 horizontal delta extends the match chain
      const uint64_t xh = (((eq & pv_w) + pv_w) ^ pv_w) | eq;
      uint64_t ph = mv_w | ~(xh | pv_w);
      uint64_t mh = pv_w & xh;
      if (w + 1 == words) {
        if (ph & top_bit) ++score;
        else if (mh & top_bit) --score;
      }
      const uint64_t ph_out = ph >> 63;
      const uint64_t mh_out = mh >> 63;
      ph = (ph << 1) | ph_in;
      mh = (mh << 1) | mh_in;
      pv[w] = mh | ~(xv | ph);
      mv[w] = ph & xv;
      ph_in = ph_out;
      mh_in = mh_out;
    }
  }
  return score;
}

}  // namespace

int LevenshteinDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  if (a.empty()) return static_cast<int>(b.size());
  if (a.size() <= 64) return MyersLevenshtein64(a, b);
  return MyersLevenshteinBlocked(a, b);
}

double LevenshteinSimilarity(std::string_view a, std::string_view b) {
  return LevenshteinSimilarityFromDistance(LevenshteinDistance(a, b),
                                           std::max(a.size(), b.size()));
}

double LevenshteinSimilarityFromDistance(int distance, size_t max_len) {
  if (max_len == 0) return 1.0;
  return 1.0 - static_cast<double>(distance) / static_cast<double>(max_len);
}

namespace {

// Bits [0, n) set, for n <= 64.
uint64_t LowBits(size_t n) {
  return n >= 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
}

// The Jaro formula from the match and transposition counts, in the
// reference's evaluation order.
double JaroFromMatches(size_t matches, size_t transpositions, size_t la,
                       size_t lb) {
  if (matches == 0) return 0.0;
  double m = static_cast<double>(matches);
  return (m / la + m / lb + (m - transpositions / 2.0) / m) / 3.0;
}

// Bit-parallel greedy matching, |b| <= 64. Bit j of eq[c] is set when
// b[j] == c and bit j of `unmatched` while b[j] is free, so the lowest set
// bit of eq[a[i]] & unmatched & window is the first unmatched equal position
// in the window — the position the scalar scan stops at. At most |b| <= 64
// characters of a match; they are kept in order for the transposition count.
double Jaro64(std::string_view a, std::string_view b, size_t window) {
  const size_t la = a.size();
  const size_t lb = b.size();
  uint64_t eq[256];  // only the entries read below are initialized
  for (const char c : a) eq[static_cast<unsigned char>(c)] = 0;
  for (const char c : b) eq[static_cast<unsigned char>(c)] = 0;
  for (size_t j = 0; j < lb; ++j) {
    eq[static_cast<unsigned char>(b[j])] |= uint64_t{1} << j;
  }
  uint64_t unmatched = LowBits(lb);
  char a_matched[64];
  size_t matches = 0;
  for (size_t i = 0; i < la; ++i) {
    const size_t lo = i > window ? i - window : 0;
    if (lo >= lb) break;  // the window only moves right
    const size_t hi = std::min(lb, i + window + 1);
    const uint64_t cand = eq[static_cast<unsigned char>(a[i])] & unmatched &
                          LowBits(hi) & ~LowBits(lo);
    if (cand != 0) {
      unmatched &= ~(cand & -cand);  // take cand's lowest set bit
      a_matched[matches++] = a[i];
    }
  }
  uint64_t b_matched = ~unmatched & LowBits(lb);
  size_t transpositions = 0;
  for (size_t k = 0; k < matches; ++k) {
    const int j = __builtin_ctzll(b_matched);
    b_matched &= b_matched - 1;
    if (a_matched[k] != b[j]) ++transpositions;
  }
  return JaroFromMatches(matches, transpositions, la, lb);
}

// Multi-word variant for |b| > 64: the same greedy step, scanning the
// window's words from the left. Scratch is thread_local and keeps its
// capacity, so steady state allocates nothing.
double JaroBlocked(std::string_view a, std::string_view b, size_t window) {
  const size_t la = a.size();
  const size_t lb = b.size();
  const size_t words = (lb + 63) / 64;
  thread_local std::vector<uint64_t> eq;
  thread_local std::vector<uint64_t> unmatched;
  thread_local std::string a_matched;
  if (eq.size() < 256 * words) eq.resize(256 * words);
  for (const std::string_view s : {a, b}) {
    for (const char c : s) {
      std::fill_n(&eq[static_cast<unsigned char>(c) * words], words, 0);
    }
  }
  for (size_t j = 0; j < lb; ++j) {
    eq[static_cast<unsigned char>(b[j]) * words + j / 64] |= uint64_t{1}
                                                              << (j % 64);
  }
  unmatched.assign(words, ~uint64_t{0});
  unmatched[words - 1] = LowBits(lb - 64 * (words - 1));
  a_matched.clear();
  for (size_t i = 0; i < la; ++i) {
    const size_t lo = i > window ? i - window : 0;
    if (lo >= lb) break;
    const size_t hi = std::min(lb, i + window + 1);
    const uint64_t* eq_c = &eq[static_cast<unsigned char>(a[i]) * words];
    for (size_t w = lo / 64; w <= (hi - 1) / 64; ++w) {
      uint64_t cand = eq_c[w] & unmatched[w];
      if (w == lo / 64) cand &= ~LowBits(lo % 64);
      if (w == (hi - 1) / 64) cand &= LowBits((hi - 1) % 64 + 1);
      if (cand != 0) {
        unmatched[w] &= ~(cand & -cand);
        a_matched.push_back(a[i]);
        break;
      }
    }
  }
  size_t transpositions = 0;
  size_t k = 0;
  for (size_t w = 0; w < words; ++w) {
    uint64_t b_matched = ~unmatched[w] & LowBits(lb - 64 * w);
    while (b_matched != 0) {
      const size_t j = 64 * w + __builtin_ctzll(b_matched);
      b_matched &= b_matched - 1;
      if (a_matched[k++] != b[j]) ++transpositions;
    }
  }
  return JaroFromMatches(a_matched.size(), transpositions, la, lb);
}

}  // namespace

double JaroSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const size_t window =
      std::max<size_t>(1, std::max(a.size(), b.size()) / 2) - 1;
  return b.size() <= 64 ? Jaro64(a, b, window) : JaroBlocked(a, b, window);
}

double JaroWinklerSimilarity(std::string_view a, std::string_view b) {
  return JaroWinklerFromJaro(JaroSimilarity(a, b), a, b);
}

double JaroWinklerFromJaro(double jaro, std::string_view a,
                           std::string_view b) {
  const double kPrefixScale = 0.1;
  size_t prefix = 0;
  size_t limit = std::min({a.size(), b.size(), static_cast<size_t>(4)});
  while (prefix < limit && a[prefix] == b[prefix]) ++prefix;
  return jaro + prefix * kPrefixScale * (1.0 - jaro);
}

double ExactMatch(std::string_view a, std::string_view b) {
  return a == b ? 1.0 : 0.0;
}

AlignmentScores Align(std::string_view a, std::string_view b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0 || m == 0) {
    // Needleman-Wunsch's -max/max rescales to exactly 0.0 here too.
    const double s = (n == 0 && m == 0) ? 1.0 : 0.0;
    return {s, s};
  }
  // One row per recurrence; Smith-Waterman's is floored at 0. The two
  // dependency chains are independent, so the fused loop costs little more
  // than one of them.
  thread_local std::vector<int> nw_row;
  thread_local std::vector<int> sw_row;
  nw_row.resize(m + 1);
  sw_row.assign(m + 1, 0);
  for (size_t j = 0; j <= m; ++j) nw_row[j] = static_cast<int>(j) * kGapScore;
  int best = 0;
  for (size_t i = 1; i <= n; ++i) {
    const char ai = a[i - 1];
    int nw_diag = nw_row[0];
    int sw_diag = 0;
    int nw_left = static_cast<int>(i) * kGapScore;
    int sw_left = 0;
    nw_row[0] = nw_left;
    for (size_t j = 1; j <= m; ++j) {
      const int s = ai == b[j - 1] ? kMatchScore : kMismatchScore;
      const int nw_up = nw_row[j];
      const int sw_up = sw_row[j];
      nw_left = std::max(nw_diag + s, std::max(nw_up, nw_left) + kGapScore);
      sw_left = std::max(std::max(0, sw_diag + s),
                         std::max(sw_up, sw_left) + kGapScore);
      nw_diag = nw_up;
      sw_diag = sw_up;
      nw_row[j] = nw_left;
      sw_row[j] = sw_left;
      best = std::max(best, sw_left);
    }
  }
  // The raw global score normalized by max(n, m) lands in [-1, 1]; rescale
  // into [0, 1] so the feature range matches every other string kernel
  // (identical -> 1, empty-vs-nonempty and all-mismatch -> 0).
  const double normalized =
      static_cast<double>(nw_row[m]) / static_cast<double>(std::max(n, m));
  return {(normalized + 1.0) / 2.0,
          static_cast<double>(best) / static_cast<double>(std::min(n, m))};
}

double NeedlemanWunsch(std::string_view a, std::string_view b) {
  return Align(a, b).needleman_wunsch;
}

double SmithWaterman(std::string_view a, std::string_view b) {
  return Align(a, b).smith_waterman;
}

double MongeElkan(std::string_view a, std::string_view b) {
  thread_local std::vector<std::string_view> tokens_a;
  thread_local std::vector<std::string_view> tokens_b;
  WhitespaceTokenizeInto(a, &tokens_a);
  WhitespaceTokenizeInto(b, &tokens_b);
  if (tokens_a.empty() && tokens_b.empty()) return 1.0;
  if (tokens_a.empty() || tokens_b.empty()) return 0.0;
  double total = 0.0;
  for (const std::string_view ta : tokens_a) {
    double best = 0.0;
    for (const std::string_view tb : tokens_b) {
      best = std::max(best, JaroWinklerSimilarity(ta, tb));
      // Jaro-Winkler never exceeds 1.0, so no later token can change best.
      if (best == 1.0) break;
    }
    total += best;
  }
  return total / static_cast<double>(tokens_a.size());
}

double JaccardFromCounts(size_t a, size_t b, size_t inter) {
  if (a == 0 && b == 0) return 1.0;
  const size_t uni = a + b - inter;
  return uni == 0 ? 0.0 : static_cast<double>(inter) / uni;
}

double CosineFromCounts(size_t a, size_t b, size_t inter) {
  if (a == 0 && b == 0) return 1.0;
  if (a == 0 || b == 0) return 0.0;
  return static_cast<double>(inter) /
         std::sqrt(static_cast<double>(a) * static_cast<double>(b));
}

double DiceFromCounts(size_t a, size_t b, size_t inter) {
  if (a == 0 && b == 0) return 1.0;
  return 2.0 * inter / static_cast<double>(a + b);
}

double OverlapFromCounts(size_t a, size_t b, size_t inter) {
  if (a == 0 && b == 0) return 1.0;
  if (a == 0 || b == 0) return 0.0;
  return static_cast<double>(inter) / std::min(a, b);
}

double JaccardSimilarity(const std::vector<std::string>& a,
                         const std::vector<std::string>& b) {
  return JaccardFromCounts(SetSize(a), SetSize(b), SetIntersectionSize(a, b));
}

double CosineSimilarity(const std::vector<std::string>& a,
                        const std::vector<std::string>& b) {
  return CosineFromCounts(SetSize(a), SetSize(b), SetIntersectionSize(a, b));
}

double DiceSimilarity(const std::vector<std::string>& a,
                      const std::vector<std::string>& b) {
  return DiceFromCounts(SetSize(a), SetSize(b), SetIntersectionSize(a, b));
}

double OverlapCoefficient(const std::vector<std::string>& a,
                          const std::vector<std::string>& b) {
  return OverlapFromCounts(SetSize(a), SetSize(b), SetIntersectionSize(a, b));
}

size_t SortedIdIntersectionSize(const std::vector<uint32_t>& a,
                                const std::vector<uint32_t>& b) {
  size_t i = 0;
  size_t j = 0;
  size_t count = 0;
  while (i < a.size() && j < b.size()) {
    const uint32_t x = a[i];
    const uint32_t y = b[j];
    count += (x == y);
    i += (x <= y);
    j += (y <= x);
  }
  return count;
}

double JaccardSimilarityIds(const std::vector<uint32_t>& a,
                            const std::vector<uint32_t>& b) {
  return JaccardFromCounts(a.size(), b.size(), SortedIdIntersectionSize(a, b));
}

double CosineSimilarityIds(const std::vector<uint32_t>& a,
                           const std::vector<uint32_t>& b) {
  return CosineFromCounts(a.size(), b.size(), SortedIdIntersectionSize(a, b));
}

double DiceSimilarityIds(const std::vector<uint32_t>& a,
                         const std::vector<uint32_t>& b) {
  return DiceFromCounts(a.size(), b.size(), SortedIdIntersectionSize(a, b));
}

double OverlapCoefficientIds(const std::vector<uint32_t>& a,
                             const std::vector<uint32_t>& b) {
  return OverlapFromCounts(a.size(), b.size(), SortedIdIntersectionSize(a, b));
}

double AbsoluteNorm(double a, double b) {
  double max_abs = std::max(std::fabs(a), std::fabs(b));
  if (max_abs == 0.0) return 1.0;
  double sim = 1.0 - std::fabs(a - b) / max_abs;
  return std::clamp(sim, 0.0, 1.0);
}

}  // namespace autoem
