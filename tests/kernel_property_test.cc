// Differential and property tests for the fast similarity kernels, the
// flattened forest traversal and the presorted tree splitter (DESIGN.md
// §13). The scalar reference kernels and the sort-based tree builder under
// `autoem::reference` and the per-tree node walks are the oracles;
// every fast path must agree *exactly* — bit-identical doubles, equal
// integers — on random and hostile inputs. These tests are what license
// future rewrites of the fast paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "automl/surrogate.h"
#include "common/rng.h"
#include "datagen/benchmark_gen.h"
#include "features/feature_gen.h"
#include "io/serialize.h"
#include "ml/models/adaboost.h"
#include "ml/models/decision_tree.h"
#include "ml/models/flat_forest.h"
#include "ml/models/gradient_boosting.h"
#include "ml/models/linear_common.h"
#include "ml/models/random_forest.h"
#include "preprocess/balancing.h"
#include "text/interner.h"
#include "text/similarity.h"
#include "text/similarity_function.h"
#include "text/tokenizer.h"

namespace autoem {
namespace {

// ---- input generators -------------------------------------------------------

std::string RandomString(Rng* rng, size_t len, int alphabet) {
  std::string s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>('a' + rng->UniformIndex(alphabet)));
  }
  return s;
}

std::string RandomBytes(Rng* rng, size_t len) {
  std::string s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>(rng->UniformIndex(256)));
  }
  return s;
}

// Hostile inputs: empties, embedded NULs, strings straddling the 64/128-char
// word boundaries of the bit-parallel kernel, long runs, and raw UTF-8
// multi-byte sequences (the kernels are byte-oriented; these must not
// confuse the per-byte tables).
std::vector<std::string> HostileStrings() {
  std::vector<std::string> v;
  v.push_back("");
  v.push_back(std::string(1, '\0'));
  v.push_back(std::string("a\0b", 3));
  v.push_back(std::string("\0\0\0\0", 4));
  v.push_back(std::string(63, 'x'));
  v.push_back(std::string(64, 'x'));
  v.push_back(std::string(65, 'x'));
  v.push_back(std::string(127, 'y'));
  v.push_back(std::string(128, 'y'));
  v.push_back(std::string(129, 'y'));
  v.push_back(std::string(300, 'z'));
  v.push_back("caf\xC3\xA9");                 // café
  v.push_back("\xE6\x9D\xB1\xE4\xBA\xAC");    // 東京
  v.push_back("na\xC3\xAFve na\xC3\xAFve");
  std::string mixed;
  for (int i = 0; i < 70; ++i) mixed += (i % 3 == 0) ? "\xC3\xA9" : "e";
  v.push_back(mixed);
  return v;
}

// ---- Levenshtein: bit-parallel vs reference DP ------------------------------

TEST(KernelPropertyLevenshtein, MatchesReferenceOnRandomStrings) {
  Rng rng(17);
  for (int iter = 0; iter < 400; ++iter) {
    // Small alphabet maximizes match density (the interesting case for the
    // bit-parallel Eq tables); lengths sweep across both word boundaries.
    std::string a = RandomString(&rng, rng.UniformIndex(200), 4);
    std::string b = RandomString(&rng, rng.UniformIndex(200), 4);
    EXPECT_EQ(LevenshteinDistance(a, b), reference::LevenshteinDistance(a, b))
        << "len a=" << a.size() << " len b=" << b.size();
  }
}

TEST(KernelPropertyLevenshtein, MatchesReferenceOnRandomBytes) {
  Rng rng(23);
  for (int iter = 0; iter < 200; ++iter) {
    std::string a = RandomBytes(&rng, rng.UniformIndex(150));
    std::string b = RandomBytes(&rng, rng.UniformIndex(150));
    EXPECT_EQ(LevenshteinDistance(a, b), reference::LevenshteinDistance(a, b));
  }
}

TEST(KernelPropertyLevenshtein, MatchesReferenceAtWordBoundaries) {
  // Exhaustive sweep of every length pair around the single-word (64) and
  // two-word (128) boundaries, where the blocked kernel's carry logic and
  // top-block score bit are easiest to get wrong.
  Rng rng(31);
  const size_t lens[] = {0, 1, 2, 31, 62, 63, 64, 65, 66,
                         126, 127, 128, 129, 130, 192, 200};
  for (size_t la : lens) {
    for (size_t lb : lens) {
      std::string a = RandomString(&rng, la, 3);
      std::string b = RandomString(&rng, lb, 3);
      EXPECT_EQ(LevenshteinDistance(a, b),
                reference::LevenshteinDistance(a, b))
          << "la=" << la << " lb=" << lb;
    }
  }
}

TEST(KernelPropertyLevenshtein, MatchesReferenceOnHostileInputs) {
  auto hostile = HostileStrings();
  for (const std::string& a : hostile) {
    for (const std::string& b : hostile) {
      EXPECT_EQ(LevenshteinDistance(a, b),
                reference::LevenshteinDistance(a, b))
          << "a.size=" << a.size() << " b.size=" << b.size();
    }
  }
}

TEST(KernelPropertyLevenshtein, KnownValues) {
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3);
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3);
  EXPECT_EQ(LevenshteinDistance("abc", ""), 3);
  EXPECT_EQ(LevenshteinDistance("", ""), 0);
  EXPECT_EQ(LevenshteinDistance("same", "same"), 0);
  // Straddling the word boundary with a known single edit.
  std::string long_a(100, 'q');
  std::string long_b = long_a;
  long_b[50] = 'r';
  EXPECT_EQ(LevenshteinDistance(long_a, long_b), 1);
}

// ---- string-kernel properties: symmetry, identity, range --------------------

using StringKernel = double (*)(std::string_view, std::string_view);

struct NamedKernel {
  const char* name;
  StringKernel fn;
};

const NamedKernel kStringKernels[] = {
    {"LevenshteinSimilarity", &LevenshteinSimilarity},
    {"JaroSimilarity", &JaroSimilarity},
    {"JaroWinklerSimilarity", &JaroWinklerSimilarity},
    {"ExactMatch", &ExactMatch},
    {"NeedlemanWunsch", &NeedlemanWunsch},
    {"SmithWaterman", &SmithWaterman},
    {"MongeElkan", &MongeElkan},
};

TEST(KernelPropertyStrings, SelfSimilarityIsOne) {
  Rng rng(41);
  std::vector<std::string> inputs = HostileStrings();
  for (int i = 0; i < 30; ++i) {
    inputs.push_back(RandomString(&rng, rng.UniformIndex(120), 6));
  }
  for (const auto& k : kStringKernels) {
    for (const std::string& s : inputs) {
      EXPECT_DOUBLE_EQ(k.fn(s, s), 1.0) << k.name << " len=" << s.size();
    }
  }
}

TEST(KernelPropertyStrings, SymmetricAndBounded) {
  Rng rng(43);
  std::vector<std::string> inputs = HostileStrings();
  for (int i = 0; i < 30; ++i) {
    inputs.push_back(RandomString(&rng, rng.UniformIndex(120), 4));
  }
  for (const auto& k : kStringKernels) {
    for (const std::string& a : inputs) {
      for (const std::string& b : inputs) {
        double ab = k.fn(a, b);
        double ba = k.fn(b, a);
        EXPECT_DOUBLE_EQ(ab, ba) << k.name;
        EXPECT_GE(ab, 0.0) << k.name;
        EXPECT_LE(ab, 1.0 + 1e-12) << k.name;
      }
    }
  }
}

// ---- token-set measures: ID merge vs string hash sets -----------------------

using TokenKernel = double (*)(const std::vector<std::string>&,
                               const std::vector<std::string>&);
using IdKernel = double (*)(const std::vector<uint32_t>&,
                            const std::vector<uint32_t>&);

struct NamedSetKernel {
  const char* name;
  TokenKernel strings;
  IdKernel ids;
};

const NamedSetKernel kSetKernels[] = {
    {"Jaccard", &JaccardSimilarity, &JaccardSimilarityIds},
    {"Cosine", &CosineSimilarity, &CosineSimilarityIds},
    {"Dice", &DiceSimilarity, &DiceSimilarityIds},
    {"Overlap", &OverlapCoefficient, &OverlapCoefficientIds},
};

std::vector<uint32_t> InternSortedUnique(const std::vector<std::string>& toks,
                                         TokenInterner* interner) {
  std::vector<uint32_t> ids;
  ids.reserve(toks.size());
  for (const std::string& t : toks) ids.push_back(interner->IdOf(t));
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

TEST(KernelPropertyTokenSets, IdMergeMatchesStringSetsExactly) {
  Rng rng(53);
  TokenInterner interner;
  // Small token universe so overlaps are common; duplicates exercised
  // deliberately (the string measures de-dup via hash set, the ID path via
  // sort+unique — the resulting counts must match).
  const char* universe[] = {"new", "york", "city", "golden", "dragon",
                            "palace", "##a", "#ab", "ab#",
                            "caf\xC3\xA9", "", "12345"};
  const size_t kUniverse = sizeof(universe) / sizeof(universe[0]);
  for (int iter = 0; iter < 300; ++iter) {
    std::vector<std::string> a, b;
    size_t na = rng.UniformIndex(10);
    size_t nb = rng.UniformIndex(10);
    for (size_t i = 0; i < na; ++i) {
      a.push_back(universe[rng.UniformIndex(kUniverse)]);
    }
    for (size_t i = 0; i < nb; ++i) {
      b.push_back(universe[rng.UniformIndex(kUniverse)]);
    }
    std::vector<uint32_t> ida = InternSortedUnique(a, &interner);
    std::vector<uint32_t> idb = InternSortedUnique(b, &interner);
    for (const auto& k : kSetKernels) {
      double s = k.strings(a, b);
      double f = k.ids(ida, idb);
      // Bit-identical, including the empty-set conventions.
      EXPECT_TRUE(s == f || (std::isnan(s) && std::isnan(f)))
          << k.name << ": " << s << " vs " << f << " (|a|=" << na
          << " |b|=" << nb << ")";
    }
  }
}

TEST(KernelPropertyTokenSets, EmptySetConventionsMatch) {
  TokenInterner interner;
  std::vector<std::string> empty;
  std::vector<std::string> one = {"token"};
  std::vector<uint32_t> id_empty;
  std::vector<uint32_t> id_one = InternSortedUnique(one, &interner);
  for (const auto& k : kSetKernels) {
    EXPECT_DOUBLE_EQ(k.strings(empty, empty), k.ids(id_empty, id_empty))
        << k.name;
    EXPECT_DOUBLE_EQ(k.strings(empty, one), k.ids(id_empty, id_one))
        << k.name;
    EXPECT_DOUBLE_EQ(k.strings(one, empty), k.ids(id_one, id_empty))
        << k.name;
    EXPECT_DOUBLE_EQ(k.ids(id_one, id_one), 1.0) << k.name;
  }
}

TEST(KernelPropertyTokenSets, InternerGivesEqualIdsForEqualTokens) {
  TokenInterner interner;
  uint32_t a1 = interner.IdOf("alpha");
  uint32_t b = interner.IdOf("beta");
  uint32_t a2 = interner.IdOf(std::string("alpha"));
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_EQ(interner.size(), 2u);
  // NUL-containing and empty tokens are first-class.
  uint32_t nul = interner.IdOf(std::string_view("a\0b", 3));
  EXPECT_NE(nul, interner.IdOf("a"));
  EXPECT_EQ(nul, interner.IdOf(std::string_view("a\0b", 3)));
}

// ---- arena tokenizers vs allocating tokenizers ------------------------------

TEST(KernelPropertyTokenizers, ArenaQGramsMatchAllocating) {
  Rng rng(61);
  QGramScratch scratch;
  std::vector<std::string> inputs = HostileStrings();
  for (int i = 0; i < 40; ++i) {
    inputs.push_back(RandomBytes(&rng, rng.UniformIndex(80)));
  }
  for (const std::string& s : inputs) {
    auto expected = QGramTokenize(s, 3);
    const auto& views = QGramTokenizeInto(s, 3, &scratch);
    ASSERT_EQ(views.size(), expected.size()) << "len=" << s.size();
    for (size_t i = 0; i < views.size(); ++i) {
      EXPECT_EQ(std::string(views[i]), expected[i]);
    }
  }
}

TEST(KernelPropertyTokenizers, ArenaWhitespaceMatchesAllocating) {
  std::vector<std::string> inputs = {
      "", " ", "  \t \n ", "one", " one ", "new  york\tcity\n",
      std::string("a\0b c", 5), "  leading and trailing  "};
  std::vector<std::string_view> views;
  for (const std::string& s : inputs) {
    auto expected = WhitespaceTokenize(s);
    WhitespaceTokenizeInto(s, &views);
    ASSERT_EQ(views.size(), expected.size()) << "'" << s << "'";
    for (size_t i = 0; i < views.size(); ++i) {
      EXPECT_EQ(std::string(views[i]), expected[i]);
    }
  }
}

// ---- Jaro, alignment and Monge-Elkan: fast kernels vs reference -------------

bool SameBits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(x)) == 0;
}

// Strings for the all-pairs sweeps: the hostile set plus runs and random
// strings at lengths 1/63/64/65/128 (either side of the one-word kernels),
// bytes >= 0x80 and embedded NULs.
std::vector<std::string> SweepStrings(Rng* rng) {
  std::vector<std::string> v = HostileStrings();
  for (size_t len : {1, 2, 63, 64, 65, 128}) {
    v.push_back(RandomString(rng, len, 2));
    v.push_back(RandomString(rng, len, 5));
    v.push_back(RandomBytes(rng, len));
  }
  v.push_back(std::string(64, '\x80'));
  v.push_back(std::string(65, '\xFF'));
  v.push_back(std::string(130, '\0'));
  v.push_back(std::string("ab\0ab\0ab", 8));
  return v;
}

// Random strings whose lengths straddle 64 and 128 on either side.
std::vector<std::pair<std::string, std::string>> RandomPairs(Rng* rng,
                                                              int n) {
  std::vector<std::pair<std::string, std::string>> pairs;
  for (int i = 0; i < n; ++i) {
    const int alphabet = 2 + static_cast<int>(rng->UniformIndex(6));
    std::string a = (i % 4 == 3) ? RandomBytes(rng, rng->UniformIndex(160))
                                 : RandomString(rng, rng->UniformIndex(160),
                                                alphabet);
    std::string b = (i % 4 == 3) ? RandomBytes(rng, rng->UniformIndex(160))
                                 : RandomString(rng, rng->UniformIndex(160),
                                                alphabet);
    pairs.emplace_back(std::move(a), std::move(b));
  }
  return pairs;
}

template <typename Check>
void ForSweepAndRandomPairs(uint64_t seed, Check check) {
  Rng rng(seed);
  const std::vector<std::string> sweep = SweepStrings(&rng);
  for (const std::string& a : sweep) {
    for (const std::string& b : sweep) check(a, b);
  }
  for (const auto& [a, b] : RandomPairs(&rng, 600)) check(a, b);
}

TEST(KernelPropertyJaro, MatchesReferenceBitForBit) {
  ForSweepAndRandomPairs(71, [](const std::string& a, const std::string& b) {
    EXPECT_TRUE(SameBits(JaroSimilarity(a, b), reference::JaroSimilarity(a, b)))
        << "la=" << a.size() << " lb=" << b.size() << ": "
        << JaroSimilarity(a, b) << " vs " << reference::JaroSimilarity(a, b);
  });
}

TEST(KernelPropertyJaro, WinklerMatchesReferenceBitForBit) {
  ForSweepAndRandomPairs(73, [](const std::string& a, const std::string& b) {
    const double expected = reference::JaroWinklerSimilarity(a, b);
    EXPECT_TRUE(SameBits(JaroWinklerSimilarity(a, b), expected))
        << "la=" << a.size() << " lb=" << b.size();
    EXPECT_TRUE(
        SameBits(JaroWinklerFromJaro(JaroSimilarity(a, b), a, b), expected));
  });
}

TEST(KernelPropertyJaro, WindowEdgesAndTranspositions) {
  // Matches exactly at the window's edge, repeated characters competing for
  // one position, and transposed pairs across the 64-byte boundary.
  const std::pair<std::string, std::string> cases[] = {
      {"martha", "marhta"},     {"dixon", "dicksonx"},
      {"abcd", "dcba"},         {"aaaa", "aa"},
      {"ab", "ba"},             {"a", "a"},
      {std::string(40, 'a') + "b", "b" + std::string(40, 'a')},
      {std::string(63, 'a') + "xy", std::string(63, 'a') + "yx"},
      {std::string(64, 'a') + "xy", "yx" + std::string(64, 'a')},
      {std::string(200, 'q'), std::string(65, 'q')},
      {std::string(65, 'q'), std::string(200, 'q')},
  };
  for (const auto& [a, b] : cases) {
    EXPECT_TRUE(SameBits(JaroSimilarity(a, b), reference::JaroSimilarity(a, b)))
        << a << " / " << b;
    EXPECT_TRUE(SameBits(JaroSimilarity(b, a), reference::JaroSimilarity(b, a)))
        << b << " / " << a;
  }
}

TEST(KernelPropertyAlignment, OnePassMatchesBothReferencesBitForBit) {
  ForSweepAndRandomPairs(79, [](const std::string& a, const std::string& b) {
    const AlignmentScores s = Align(a, b);
    const double nw = reference::NeedlemanWunsch(a, b);
    const double sw = reference::SmithWaterman(a, b);
    EXPECT_TRUE(SameBits(s.needleman_wunsch, nw))
        << "la=" << a.size() << " lb=" << b.size();
    EXPECT_TRUE(SameBits(s.smith_waterman, sw))
        << "la=" << a.size() << " lb=" << b.size();
    EXPECT_TRUE(SameBits(NeedlemanWunsch(a, b), nw));
    EXPECT_TRUE(SameBits(SmithWaterman(a, b), sw));
  });
}

TEST(KernelPropertyAlignment, LocalScoreNeedsTheZeroFloor) {
  // The shared "abc" starts in the interior of the DP: without the floor,
  // the mismatched prefixes would drag its local score from 3 down to 1.
  EXPECT_DOUBLE_EQ(Align("xxabcxx", "yyabcyy").smith_waterman, 3.0 / 7.0);
  EXPECT_DOUBLE_EQ(Align("xxxxxxabc", "abc").smith_waterman, 1.0);
  EXPECT_DOUBLE_EQ(Align("abc", "abc").needleman_wunsch, 1.0);
  EXPECT_DOUBLE_EQ(Align("", "abc").needleman_wunsch, 0.0);
  EXPECT_DOUBLE_EQ(Align("", "").smith_waterman, 1.0);
}

// Whitespace-separated words (runs of spaces, tabs and newlines, words with
// NULs and high bytes) for the token-level Monge-Elkan sweep.
std::string RandomWords(Rng* rng, size_t words) {
  const char* separators[] = {" ", "  ", "\t", "\n ", " \r"};
  std::string s;
  if (rng->UniformIndex(3) == 0) s += " ";
  for (size_t w = 0; w < words; ++w) {
    if (w > 0) s += separators[rng->UniformIndex(5)];
    const size_t len = 1 + rng->UniformIndex(rng->UniformIndex(8) == 0 ? 90 : 8);
    for (size_t c = 0; c < len; ++c) {
      const size_t r = rng->UniformIndex(20);
      s.push_back(r == 0 ? '\0' : r == 1 ? '\xC3' : static_cast<char>('a' + r % 4));
    }
  }
  return s;
}

TEST(KernelPropertyMongeElkan, MatchesReferenceBitForBit) {
  Rng rng(83);
  std::vector<std::string> inputs = SweepStrings(&rng);
  inputs.push_back("new york city");
  inputs.push_back("york  new\tcity");
  inputs.push_back(" \t\n ");
  for (int i = 0; i < 40; ++i) inputs.push_back(RandomWords(&rng, rng.UniformIndex(7)));
  for (const std::string& a : inputs) {
    for (const std::string& b : inputs) {
      EXPECT_TRUE(SameBits(MongeElkan(a, b), reference::MongeElkan(a, b)))
          << "la=" << a.size() << " lb=" << b.size();
    }
  }
}

// ---- set measures: one count-based formula ----------------------------------

TEST(KernelPropertyTokenSets, CountFormulaMatchesIdAndStringOverloads) {
  Rng rng(89);
  TokenInterner interner;
  for (int iter = 0; iter < 400; ++iter) {
    const std::string a = RandomWords(&rng, rng.UniformIndex(6));
    const std::string b = RandomWords(&rng, rng.UniformIndex(6));
    for (TokenizerKind kind :
         {TokenizerKind::kWhitespace, TokenizerKind::kQGram3}) {
      const std::vector<std::string> ta = Tokenize(kind, a);
      const std::vector<std::string> tb = Tokenize(kind, b);
      const std::vector<uint32_t> ia = InternSortedUnique(ta, &interner);
      const std::vector<uint32_t> ib = InternSortedUnique(tb, &interner);
      const size_t inter = SortedIdIntersectionSize(ia, ib);
      const double by_counts[] = {
          JaccardFromCounts(ia.size(), ib.size(), inter),
          CosineFromCounts(ia.size(), ib.size(), inter),
          DiceFromCounts(ia.size(), ib.size(), inter),
          OverlapFromCounts(ia.size(), ib.size(), inter),
      };
      const Measure measures[] = {Measure::kJaccard, Measure::kCosine,
                                  Measure::kDice,
                                  Measure::kOverlapCoefficient};
      KernelMemo memo;
      memo.Reset(a, b);
      for (size_t k = 0; k < 4; ++k) {
        const NamedSetKernel& m = kSetKernels[k];
        EXPECT_TRUE(SameBits(by_counts[k], m.ids(ia, ib))) << m.name;
        EXPECT_TRUE(SameBits(by_counts[k], m.strings(ta, tb))) << m.name;
        const SimFunction f{measures[k], kind};
        EXPECT_TRUE(SameBits(by_counts[k], f.Apply(a, b))) << f.Name();
        EXPECT_TRUE(SameBits(by_counts[k], memo.ApplyTokenIds(f, ia, ib)))
            << f.Name();
      }
    }
  }
}

// ---- whole feature rows: shared-kernel memo vs per-function Apply -----------

// GenerateChunk (token cache + per-attribute memo) must equal GenerateRow,
// which applies each planned SimFunction on its own, bit for bit.
void ExpectChunkMatchesPerFunction(const FeatureGenerator& gen,
                                   const PairSet& set, size_t max_pairs,
                                   const std::string& label) {
  const size_t n = std::min(max_pairs, set.pairs.size());
  ASSERT_GT(n, 0u);
  const FeatureGenerator::PreparedTables prepared =
      gen.Prepare(set.left, set.right);
  const Matrix X = gen.GenerateChunk(prepared, set.pairs, 0, n);
  size_t mismatches = 0;
  for (size_t i = 0; i < n; ++i) {
    const RecordPair& pair = set.pairs[i];
    const std::vector<double> row = gen.GenerateRow(
        set.left.row(pair.left_id), set.right.row(pair.right_id));
    ASSERT_EQ(row.size(), X.cols());
    for (size_t f = 0; f < row.size(); ++f) {
      if (!SameBits(row[f], X.At(i, f)) && ++mismatches <= 5) {
        ADD_FAILURE() << label << ": pair " << i << " feature "
                      << (f < gen.plan().size() ? gen.plan()[f].name
                                                : std::string("tfidf"))
                      << ": " << X.At(i, f) << " vs " << row[f];
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << label;
}

BenchmarkData RowSample(const std::string& name) {
  auto data = GenerateBenchmarkByName(name, 7, 0.05);
  EXPECT_TRUE(data.ok());
  return std::move(*data);
}

TEST(FeatureRowDifferential, AutoMlEmPlansMatchPerFunctionApply) {
  for (const char* name : {"Walmart-Amazon", "Fodors-Zagats"}) {
    BenchmarkData data = RowSample(name);
    for (bool tfidf : {false, true}) {
      AutoMlEmFeatureGenerator gen(tfidf);
      ASSERT_TRUE(gen.Plan(data.train.left, data.train.right).ok());
      ExpectChunkMatchesPerFunction(
          gen, data.train, 300,
          std::string(name) + (tfidf ? " automl_em+tfidf" : " automl_em"));
    }
  }
}

TEST(FeatureRowDifferential, MagellanPlanMatchesPerFunctionApply) {
  for (const char* name : {"Walmart-Amazon", "Fodors-Zagats"}) {
    BenchmarkData data = RowSample(name);
    MagellanFeatureGenerator gen;
    ASSERT_TRUE(gen.Plan(data.train.left, data.train.right).ok());
    ExpectChunkMatchesPerFunction(gen, data.train, 300,
                                  std::string(name) + " magellan");
  }
}

TEST(FeatureRowDifferential, InterleavedLoadedPlanMatchesPerFunctionApply) {
  // A saved plan may list attributes in any order. Re-encode the AutoML-EM
  // plan round-robin across attributes so consecutive features never share
  // an attribute, and load it back: the memo must be reset at every step.
  BenchmarkData data = RowSample("Walmart-Amazon");
  AutoMlEmFeatureGenerator planned;
  ASSERT_TRUE(planned.Plan(data.train.left, data.train.right).ok());
  std::vector<std::vector<const FeaturePlan*>> by_attr;
  for (const FeaturePlan& p : planned.plan()) {
    if (by_attr.size() <= p.attr_index) by_attr.resize(p.attr_index + 1);
    by_attr[p.attr_index].push_back(&p);
  }
  std::vector<const FeaturePlan*> interleaved;
  for (size_t k = 0; interleaved.size() < planned.plan().size(); ++k) {
    for (const auto& plans : by_attr) {
      if (k < plans.size()) interleaved.push_back(plans[k]);
    }
  }
  io::Writer w;
  w.U64(interleaved.size());
  for (const FeaturePlan* p : interleaved) {
    w.U64(p->attr_index);
    w.U32(static_cast<uint32_t>(p->func.measure));
    w.U32(static_cast<uint32_t>(p->func.tokenizer));
    w.Str(p->name);
  }
  w.U64(0);  // no TF-IDF plans
  AutoMlEmFeatureGenerator loaded;
  io::Reader r(w.data());
  ASSERT_TRUE(loaded.LoadState(&r).ok());
  ASSERT_EQ(loaded.plan().size(), planned.plan().size());
  size_t switches = 0;
  for (size_t f = 1; f < loaded.plan().size(); ++f) {
    switches += loaded.plan()[f].attr_index != loaded.plan()[f - 1].attr_index;
  }
  ASSERT_GT(switches, loaded.plan().size() / 2);
  ExpectChunkMatchesPerFunction(loaded, data.train, 300, "interleaved");
}

// ---- flattened forest vs per-tree scalar walks ------------------------------

Matrix RandomMatrix(Rng* rng, size_t rows, size_t cols, double nan_frac) {
  Matrix X(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (nan_frac > 0.0 &&
          rng->UniformIndex(1000) < static_cast<size_t>(nan_frac * 1000)) {
        X.At(r, c) = std::numeric_limits<double>::quiet_NaN();
      } else {
        X.At(r, c) =
            static_cast<double>(rng->UniformIndex(2000)) / 100.0 - 10.0;
      }
    }
  }
  return X;
}

TEST(FlatForestDifferential, ClassifierTreesMatchScalarWalkBitForBit) {
  Rng rng(71);
  const size_t kRows = 200, kCols = 6;
  Matrix X = RandomMatrix(&rng, kRows, kCols, 0.1);
  std::vector<int> y(kRows);
  for (size_t r = 0; r < kRows; ++r) {
    y[r] = (X.At(r, 0) + X.At(r, 1) > 0.0) ? 1 : 0;
  }

  std::vector<DecisionTreeClassifier> trees;
  FlatForest flat;
  for (int t = 0; t < 5; ++t) {
    TreeOptions opt;
    opt.seed = 100 + t;
    opt.max_features = 0.8;
    trees.emplace_back(opt);
    ASSERT_TRUE(trees.back().Fit(X, y).ok());
    flat.AppendTree(trees.back().nodes(),
                    [](const DecisionTreeClassifier::Node& n) {
                      return n.prob_positive;
                    });
  }
  ASSERT_EQ(flat.num_trees(), trees.size());

  // Eval rows include NaNs (kernel must keep the NaN-goes-left routing) and
  // sweep odd block sizes so the lockstep loop's tail lanes are covered.
  Matrix eval = RandomMatrix(&rng, 97, kCols, 0.15);
  std::vector<double> sums(eval.rows(), 0.0);
  flat.AccumulateRows(eval, 0, eval.rows(), sums.data());
  for (size_t r = 0; r < eval.rows(); ++r) {
    double expected = 0.0;
    for (const auto& tree : trees) {
      expected += tree.PredictRowProba(eval.RowPtr(r));
    }
    EXPECT_EQ(sums[r], expected) << "row " << r;  // bit-identical
  }

  // Sub-range accumulation (the chunked ParallelFor shape) must agree too.
  std::vector<double> chunk(7, 0.0);
  flat.AccumulateRows(eval, 13, 20, chunk.data());
  for (size_t r = 13; r < 20; ++r) {
    EXPECT_EQ(chunk[r - 13], sums[r]);
  }
}

TEST(FlatForestDifferential, RegressionTreesMatchScalarWalkBitForBit) {
  Rng rng(73);
  const size_t kRows = 150, kCols = 4;
  Matrix X = RandomMatrix(&rng, kRows, kCols, 0.0);
  std::vector<double> y(kRows);
  for (size_t r = 0; r < kRows; ++r) {
    y[r] = X.At(r, 0) * 0.5 - X.At(r, 2);
  }

  std::vector<RegressionTree> trees;
  FlatForest flat;
  for (int t = 0; t < 4; ++t) {
    TreeOptions opt;
    opt.seed = 200 + t;
    opt.min_samples_leaf = 2;
    trees.emplace_back(opt);
    ASSERT_TRUE(trees.back().Fit(X, y).ok());
    flat.AppendTree(trees.back().nodes(),
                    [](const RegressionTree::Node& n) { return n.value; });
  }

  Matrix eval = RandomMatrix(&rng, 60, kCols, 0.1);
  std::vector<double> per_tree(trees.size(), 0.0);
  for (size_t r = 0; r < eval.rows(); ++r) {
    flat.PredictRowPerTree(eval.RowPtr(r), per_tree.data());
    for (size_t t = 0; t < trees.size(); ++t) {
      EXPECT_EQ(per_tree[t], trees[t].PredictRow(eval.RowPtr(r)))
          << "row " << r << " tree " << t;
    }
  }
}

TEST(FlatForestDifferential, SingleLeafTreeWorks) {
  // A tree that never splits (all labels equal) flattens to one node.
  Matrix X(10, 2, 1.0);
  std::vector<int> y(10, 1);
  DecisionTreeClassifier tree;
  ASSERT_TRUE(tree.Fit(X, y).ok());
  FlatForest flat;
  flat.AppendTree(tree.nodes(), [](const DecisionTreeClassifier::Node& n) {
    return n.prob_positive;
  });
  std::vector<double> sums(X.rows(), 0.0);
  flat.AccumulateRows(X, 0, X.rows(), sums.data());
  for (size_t r = 0; r < X.rows(); ++r) {
    EXPECT_EQ(sums[r], tree.PredictRowProba(X.RowPtr(r)));
  }
}

TEST(FlatForestDifferential, ForestPredictionsThreadCountInvariant) {
  Rng rng(79);
  const size_t kRows = 120, kCols = 5;
  Matrix X = RandomMatrix(&rng, kRows, kCols, 0.05);
  std::vector<int> y(kRows);
  for (size_t r = 0; r < kRows; ++r) y[r] = (X.At(r, 1) > 0.0) ? 1 : 0;

  auto fit_predict = [&](int threads) {
    RandomForestOptions opt;
    opt.n_estimators = 15;
    opt.seed = 99;
    opt.parallelism = Parallelism::Threads(threads);
    RandomForestClassifier rf(opt);
    EXPECT_TRUE(rf.Fit(X, y).ok());
    return rf.PredictProba(X);
  };
  auto p1 = fit_predict(1);
  auto p2 = fit_predict(2);
  auto p8 = fit_predict(8);
  for (size_t r = 0; r < kRows; ++r) {
    EXPECT_EQ(p1[r], p2[r]) << "row " << r;
    EXPECT_EQ(p1[r], p8[r]) << "row " << r;
  }
}

// ---- presorted tree splitter vs sort-based reference ------------------------

using ClassNodes = std::vector<DecisionTreeClassifier::Node>;
using RegNodes = std::vector<RegressionTree::Node>;

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

double Payload(const DecisionTreeClassifier::Node& n) {
  return n.prob_positive;
}
double Payload(const RegressionTree::Node& n) { return n.value; }

// Node for node, exactly: feature, threshold bits, children, payload bits.
template <typename Node>
void ExpectSameNodes(const std::vector<Node>& got,
                     const std::vector<Node>& want, const std::string& ctx) {
  ASSERT_EQ(got.size(), want.size()) << ctx;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].feature, want[i].feature) << ctx << " node " << i;
    EXPECT_EQ(Bits(got[i].threshold), Bits(want[i].threshold))
        << ctx << " node " << i;
    EXPECT_EQ(got[i].left, want[i].left) << ctx << " node " << i;
    EXPECT_EQ(got[i].right, want[i].right) << ctx << " node " << i;
    EXPECT_EQ(Bits(Payload(got[i])), Bits(Payload(want[i])))
        << ctx << " node " << i;
    if (::testing::Test::HasFailure()) return;
  }
}

template <typename Node>
double WalkNodes(const std::vector<Node>& nodes, const double* row) {
  int cur = 0;
  while (nodes[cur].feature >= 0) {
    double v = row[nodes[cur].feature];
    if (std::isnan(v)) v = -std::numeric_limits<double>::infinity();
    cur = v <= nodes[cur].threshold ? nodes[cur].left : nodes[cur].right;
  }
  return Payload(nodes[cur]);
}

// Columns that stress the pinned (SplitValue, row) tie order: heavy ties,
// NaN (splits as -inf), ±inf, -0.0 next to +0.0, a constant column, and a
// dyadic grid whose midpoints are exact.
Matrix HostileTreeMatrix(Rng* rng, size_t rows, size_t cols) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  Matrix X(rows, cols);
  for (size_t c = 0; c < cols; ++c) {
    for (size_t r = 0; r < rows; ++r) {
      double v = 0.0;
      switch (c % 6) {
        case 0:
          v = static_cast<double>(rng->UniformIndex(3));
          break;
        case 1:
          v = rng->UniformIndex(4) == 0 ? kNaN : rng->Uniform(-1.0, 1.0);
          break;
        case 2: {
          const uint64_t k = rng->UniformIndex(6);
          v = k == 0 ? kInf : k == 1 ? -kInf : k == 2 ? kNaN
                                                      : rng->Uniform(-5, 5);
          break;
        }
        case 3:
          v = rng->UniformIndex(5) == 0 ? rng->Uniform(-1.0, 1.0)
              : rng->UniformIndex(2)    ? 0.0
                                        : -0.0;
          break;
        case 4:
          v = 7.0;
          break;
        default:
          v = static_cast<double>(rng->UniformIndex(40)) / 8.0 - 2.0;
          break;
      }
      X.At(r, c) = v;
    }
  }
  return X;
}

// Labels driven by the tie-heavy columns plus 15% noise, so trees grow deep.
std::vector<int> NoisyLabels(Rng* rng, const Matrix& X) {
  std::vector<int> y(X.rows());
  for (size_t r = 0; r < X.rows(); ++r) {
    const double s = X.At(r, 0) + (X.cols() > 5 ? X.At(r, 5) : 0.0);
    y[r] = (s > 1.5) != (rng->UniformIndex(100) < 15) ? 1 : 0;
  }
  return y;
}

enum class WeightKind { kUnit, kZeros, kFractional, kBalancedBootstrap };

std::vector<double> MakeWeights(Rng* rng, const std::vector<int>& y,
                                WeightKind kind) {
  const size_t n = y.size();
  std::vector<double> w(n, 1.0);
  switch (kind) {
    case WeightKind::kUnit:
      break;
    case WeightKind::kZeros:
      for (double& wi : w) {
        wi = rng->UniformIndex(3) == 0
                 ? 0.0
                 : static_cast<double>(1 + rng->UniformIndex(3));
      }
      break;
    case WeightKind::kFractional:
      for (double& wi : w) {
        wi = rng->UniformIndex(8) == 0 ? 0.0 : rng->Uniform(0.05, 2.5);
      }
      break;
    case WeightKind::kBalancedBootstrap: {
      // The forest's weights under balancing:strategy=weighting.
      std::vector<double> base = *BalancedClassWeights(y);
      std::vector<uint32_t> counts(n, 0);
      for (size_t k = 0; k < n; ++k) ++counts[rng->UniformIndex(n)];
      for (size_t k = 0; k < n; ++k) {
        w[k] = static_cast<double>(counts[k]) * base[k];
      }
      break;
    }
  }
  return w;
}

constexpr WeightKind kWeightKinds[] = {
    WeightKind::kUnit, WeightKind::kZeros, WeightKind::kFractional,
    WeightKind::kBalancedBootstrap};

// Extra-Trees × max_depth × (min_samples_leaf, min_samples_split) ×
// min_impurity_decrease × max_features.
std::vector<TreeOptions> TreeOptionGrid() {
  std::vector<TreeOptions> grid;
  for (bool extra : {false, true}) {
    for (int depth : {0, 3}) {
      for (int leaf : {1, 4}) {
        for (double min_decrease : {0.0, 0.005}) {
          for (double max_features : {1.0, 0.4}) {
            TreeOptions o;
            o.random_thresholds = extra;
            o.max_depth = depth;
            o.min_samples_leaf = leaf;
            o.min_samples_split = leaf == 1 ? 2 : 10;
            o.min_impurity_decrease = min_decrease;
            o.max_features = max_features;
            grid.push_back(o);
          }
        }
      }
    }
  }
  return grid;
}

std::string Describe(const TreeOptions& o, int kind, uint64_t seed) {
  return o.criterion + " extra=" + std::to_string(o.random_thresholds) +
         " depth=" + std::to_string(o.max_depth) +
         " leaf=" + std::to_string(o.min_samples_leaf) +
         " min_dec=" + std::to_string(o.min_impurity_decrease) +
         " max_feat=" + std::to_string(o.max_features) +
         " weights=" + std::to_string(kind) + " seed=" + std::to_string(seed);
}

TEST(TreeSplitterDifferential, ClassifierMatchesReferenceNodeForNode) {
  Rng rng(301);
  for (uint64_t seed : {1u, 2u}) {
    const Matrix X = HostileTreeMatrix(&rng, 240, 8);
    const std::vector<int> y = NoisyLabels(&rng, X);
    for (int kind = 0; kind < 4; ++kind) {
      const std::vector<double> w = MakeWeights(&rng, y, kWeightKinds[kind]);
      for (const char* criterion : {"gini", "entropy"}) {
        for (TreeOptions opt : TreeOptionGrid()) {
          opt.criterion = criterion;
          opt.seed = seed * 1000 + static_cast<uint64_t>(kind);
          DecisionTreeClassifier tree(opt);
          ASSERT_TRUE(tree.Fit(X, y, &w).ok());
          ExpectSameNodes(tree.nodes(),
                          reference::FitClassifierNodes(X, y, w, opt),
                          Describe(opt, kind, seed));
          if (HasFailure()) return;
        }
      }
    }
  }
}

TEST(TreeSplitterDifferential, RegressionMatchesReferenceNodeForNode) {
  Rng rng(307);
  for (uint64_t seed : {1u, 2u}) {
    const Matrix X = HostileTreeMatrix(&rng, 240, 8);
    const std::vector<int> labels = NoisyLabels(&rng, X);
    // Tied targets (a residual-like grid) plus continuous noise.
    std::vector<double> y(X.rows());
    for (size_t r = 0; r < y.size(); ++r) {
      y[r] = labels[r] - 0.25 * static_cast<double>(rng.UniformIndex(3)) +
             (r % 4 == 0 ? rng.Uniform(-0.1, 0.1) : 0.0);
    }
    for (int kind = 0; kind < 4; ++kind) {
      const std::vector<double> w =
          MakeWeights(&rng, labels, kWeightKinds[kind]);
      for (TreeOptions opt : TreeOptionGrid()) {
        opt.seed = seed * 1000 + static_cast<uint64_t>(kind);
        RegressionTree tree(opt);
        ASSERT_TRUE(tree.Fit(X, y, &w).ok());
        opt.criterion = "mse";
        ExpectSameNodes(tree.nodes(),
                        reference::FitRegressionNodes(X, y, w, opt),
                        Describe(opt, kind, seed));
        if (HasFailure()) return;
      }
    }
  }
}

TEST(TreeSplitterDifferential, ZeroWeightsAndShapeMismatchAreRejected) {
  Rng rng(311);
  const Matrix X = HostileTreeMatrix(&rng, 50, 6);
  const std::vector<int> y = NoisyLabels(&rng, X);
  const std::vector<double> zeros(X.rows(), 0.0);
  DecisionTreeClassifier tree;
  EXPECT_EQ(tree.Fit(X, y, &zeros).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(reference::FitClassifierNodes(X, y, zeros, {}).empty());

  // An index must come from a matrix of the same shape.
  const Matrix other = HostileTreeMatrix(&rng, 49, 6);
  auto index = PresortedIndex::Build(other);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(tree.Fit(X, *index, y, nullptr).code(),
            StatusCode::kInvalidArgument);
}

TEST(TreeSplitterDifferential, RowIdWidthFollowsRowCount) {
  EXPECT_EQ(*PresortedIndex::RowIdBytes(1), 2);
  EXPECT_EQ(*PresortedIndex::RowIdBytes(65536), 2);
  EXPECT_EQ(*PresortedIndex::RowIdBytes(65537), 4);
  EXPECT_EQ(*PresortedIndex::RowIdBytes(std::numeric_limits<uint32_t>::max()),
            4);
  auto past = PresortedIndex::RowIdBytes(
      size_t{std::numeric_limits<uint32_t>::max()} + 1);
  ASSERT_FALSE(past.ok());
  EXPECT_EQ(past.status().code(), StatusCode::kInvalidArgument);
}

TEST(TreeSplitterDifferential, MatchesReferenceAcross65536Rows) {
  // Tall and narrow at the id-width boundary: 16-bit ids at 65,536 rows,
  // 32-bit ids one row later.
  for (size_t rows : {size_t{65536}, size_t{65537}}) {
    Rng rng(313 + rows);
    Matrix X(rows, 3);
    for (size_t r = 0; r < rows; ++r) {
      X.At(r, 0) = static_cast<double>(rng.UniformIndex(50));
      X.At(r, 1) = rng.UniformIndex(10) == 0
                       ? std::numeric_limits<double>::quiet_NaN()
                       : static_cast<double>(rng.UniformIndex(400)) / 16.0;
      X.At(r, 2) = rng.UniformIndex(2) ? 0.0 : -0.0;
    }
    std::vector<int> y(rows);
    for (size_t r = 0; r < rows; ++r) {
      y[r] = (X.At(r, 0) > 20.0) != (rng.UniformIndex(10) == 0) ? 1 : 0;
    }
    auto index = PresortedIndex::Build(X);
    ASSERT_TRUE(index.ok());
    EXPECT_EQ(index->wide(), rows > 65536);
    const std::vector<double> w =
        MakeWeights(&rng, y, WeightKind::kBalancedBootstrap);
    TreeOptions opt;
    opt.max_depth = 4;
    opt.seed = rows;
    DecisionTreeClassifier tree(opt);
    ASSERT_TRUE(tree.Fit(X, *index, y, &w).ok());
    ExpectSameNodes(tree.nodes(), reference::FitClassifierNodes(X, y, w, opt),
                    "rows=" + std::to_string(rows));
  }
}

// Ensemble oracles: each re-derives its ensemble's RNG draws and weights and
// fits every member with the reference builder.

// Forest and surrogate draw (seed, then n bootstrap indices) per tree.
std::vector<std::vector<double>> StagedBootstraps(
    Rng* rng, size_t n_trees, const std::vector<double>& base_w,
    std::vector<uint64_t>* seeds) {
  const size_t n = base_w.size();
  std::vector<std::vector<double>> weights(n_trees);
  for (size_t t = 0; t < n_trees; ++t) {
    seeds->push_back(rng->engine()());
    std::vector<double> counts(n, 0.0);
    for (size_t k = 0; k < n; ++k) counts[rng->UniformIndex(n)] += 1.0;
    for (size_t k = 0; k < n; ++k) weights[t].push_back(counts[k] * base_w[k]);
  }
  return weights;
}

std::vector<ClassNodes> ReferenceForest(const Matrix& X,
                                        const std::vector<int>& y,
                                        const std::vector<double>& base_w,
                                        const RandomForestOptions& o) {
  Rng rng(o.seed);
  std::vector<uint64_t> seeds;
  auto weights = StagedBootstraps(&rng, o.n_estimators, base_w, &seeds);
  std::vector<ClassNodes> trees;
  for (size_t t = 0; t < weights.size(); ++t) {
    TreeOptions opt;
    opt.criterion = o.criterion;
    opt.max_depth = o.max_depth;
    opt.min_samples_split = o.min_samples_split;
    opt.min_samples_leaf = o.min_samples_leaf;
    opt.max_features = o.max_features;
    opt.min_impurity_decrease = o.min_impurity_decrease;
    opt.random_thresholds = o.random_thresholds;
    opt.seed = seeds[t];
    trees.push_back(reference::FitClassifierNodes(X, y, weights[t], opt));
  }
  return trees;
}

std::vector<RegNodes> ReferenceSurrogate(const Matrix& X,
                                         const std::vector<double>& y,
                                         const SurrogateForest::Options& o) {
  Rng rng(o.seed);
  std::vector<uint64_t> seeds;
  auto weights = StagedBootstraps(&rng, o.n_trees,
                                  std::vector<double>(X.rows(), 1.0), &seeds);
  std::vector<RegNodes> trees;
  for (size_t t = 0; t < weights.size(); ++t) {
    TreeOptions opt;
    opt.min_samples_leaf = o.min_samples_leaf;
    opt.min_samples_split = 2 * o.min_samples_leaf;
    opt.max_features = o.max_features;
    opt.seed = seeds[t];
    trees.push_back(reference::FitRegressionNodes(X, y, weights[t], opt));
  }
  return trees;
}

std::vector<ClassNodes> ReferenceAdaBoost(const Matrix& X,
                                          const std::vector<int>& y,
                                          const AdaBoostOptions& o) {
  const size_t n = X.rows();
  std::vector<double> w(n, 1.0 / static_cast<double>(n));
  Rng rng(o.seed);
  TreeOptions opt;
  opt.max_depth = o.base_max_depth;
  opt.min_samples_leaf = 1;
  std::vector<ClassNodes> trees;
  for (int t = 0; t < o.n_estimators; ++t) {
    opt.seed = rng.engine()();
    ClassNodes nodes = reference::FitClassifierNodes(X, y, w, opt);
    std::vector<int> pred(n);
    double err = 0.0;
    for (size_t i = 0; i < n; ++i) {
      pred[i] = WalkNodes(nodes, X.RowPtr(i)) >= 0.5 ? 1 : 0;
      if (pred[i] != y[i]) err += w[i];
    }
    if (err >= 0.5) break;
    err = std::max(err, 1e-10);
    const double alpha = o.learning_rate * 0.5 * std::log((1.0 - err) / err);
    trees.push_back(std::move(nodes));
    if (err <= 1e-10) break;
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      w[i] *= std::exp((pred[i] == y[i] ? -1.0 : 1.0) * alpha * 2.0);
      sum += w[i];
    }
    for (double& wi : w) wi /= sum;
  }
  return trees;
}

std::vector<RegNodes> ReferenceGbm(const Matrix& X, const std::vector<int>& y,
                                   const GradientBoostingOptions& o) {
  const size_t n = X.rows();
  double w_pos = 0.0;
  for (int label : y) w_pos += label == 1 ? 1.0 : 0.0;
  const double p =
      std::clamp(w_pos / static_cast<double>(n), 1e-6, 1.0 - 1e-6);
  std::vector<double> score(n, std::log(p / (1.0 - p)));
  std::vector<double> residual(n);
  Rng rng(o.seed);
  TreeOptions opt;
  opt.max_depth = o.max_depth;
  opt.min_samples_leaf = o.min_samples_leaf;
  std::vector<RegNodes> trees;
  for (int t = 0; t < o.n_estimators; ++t) {
    for (size_t i = 0; i < n; ++i) {
      residual[i] = (y[i] == 1 ? 1.0 : 0.0) - Sigmoid(score[i]);
    }
    std::vector<double> w(n, 1.0);
    if (o.subsample < 1.0) {
      for (size_t i = 0; i < n; ++i) {
        if (!rng.Bernoulli(o.subsample)) w[i] = 0.0;
      }
    }
    opt.seed = rng.engine()();
    RegNodes nodes = reference::FitRegressionNodes(X, residual, w, opt);
    for (size_t i = 0; i < n; ++i) {
      score[i] += o.learning_rate * WalkNodes(nodes, X.RowPtr(i));
    }
    trees.push_back(std::move(nodes));
  }
  return trees;
}

template <typename Tree, typename Node>
void ExpectSameTrees(const std::vector<Tree>& got,
                     const std::vector<std::vector<Node>>& want,
                     const std::string& ctx) {
  ASSERT_EQ(got.size(), want.size()) << ctx;
  for (size_t t = 0; t < got.size(); ++t) {
    ExpectSameNodes(got[t].nodes(), want[t], ctx + " tree " +
                                                 std::to_string(t));
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(TreeSplitterDifferential, ForestMatchesReferenceAt1_2_8Threads) {
  Rng rng(317);
  const Matrix X = HostileTreeMatrix(&rng, 300, 12);
  const std::vector<int> y = NoisyLabels(&rng, X);
  const std::vector<double> balanced = *BalancedClassWeights(y);
  for (bool extra : {false, true}) {
    RandomForestOptions o;
    o.n_estimators = 12;
    o.random_thresholds = extra;
    o.criterion = extra ? "entropy" : "gini";
    o.max_features = 0.3;
    o.seed = 41;
    const auto want = ReferenceForest(X, y, balanced, o);
    for (int threads : {1, 2, 8}) {
      o.parallelism = Parallelism::Threads(threads);
      RandomForestClassifier rf(o);
      ASSERT_TRUE(rf.Fit(X, y, &balanced).ok());
      ExpectSameTrees(rf.trees(), want,
                      "extra=" + std::to_string(extra) +
                          " threads=" + std::to_string(threads));
    }
  }
}

TEST(TreeSplitterDifferential, BoostingAndSurrogateMatchReferenceAt1_2_8Threads) {
  // Several ensembles fit concurrently: the shared-per-ensemble index and
  // per-tree buffers must not leak state between fits on any thread count.
  Rng rng(331);
  const Matrix X = HostileTreeMatrix(&rng, 180, 7);
  const std::vector<int> y = NoisyLabels(&rng, X);
  std::vector<double> y_reg(y.size());
  for (size_t r = 0; r < y.size(); ++r) {
    y_reg[r] = 0.5 * y[r] + 0.125 * static_cast<double>(r % 3);
  }
  constexpr size_t kJobs = 4;
  std::vector<std::vector<ClassNodes>> want_ada(kJobs);
  std::vector<std::vector<RegNodes>> want_gbm(kJobs), want_sur(kJobs);
  auto ada_opt = [](size_t j) {
    AdaBoostOptions o;
    o.n_estimators = 8;
    o.base_max_depth = 2;
    o.seed = 50 + j;
    return o;
  };
  auto gbm_opt = [](size_t j) {
    GradientBoostingOptions o;
    o.n_estimators = 8;
    o.subsample = 0.7;
    o.seed = 60 + j;
    return o;
  };
  auto sur_opt = [](size_t j) {
    SurrogateForest::Options o;
    o.n_trees = 6;
    o.seed = 70 + j;
    return o;
  };
  for (size_t j = 0; j < kJobs; ++j) {
    want_ada[j] = ReferenceAdaBoost(X, y, ada_opt(j));
    want_gbm[j] = ReferenceGbm(X, y, gbm_opt(j));
    want_sur[j] = ReferenceSurrogate(X, y_reg, sur_opt(j));
  }
  for (int threads : {1, 2, 8}) {
    std::vector<AdaBoostClassifier> ada;
    std::vector<GradientBoostingClassifier> gbm;
    std::vector<SurrogateForest> sur;
    for (size_t j = 0; j < kJobs; ++j) {
      ada.emplace_back(ada_opt(j));
      gbm.emplace_back(gbm_opt(j));
      sur.emplace_back(sur_opt(j));
    }
    std::vector<Status> status(3 * kJobs);
    ParallelFor(Parallelism::Threads(threads), 3 * kJobs, [&](size_t i) {
      const size_t j = i / 3;
      status[i] = i % 3 == 0   ? ada[j].Fit(X, y)
                  : i % 3 == 1 ? gbm[j].Fit(X, y)
                               : sur[j].Fit(X, y_reg);
    });
    for (const Status& st : status) ASSERT_TRUE(st.ok()) << st.message();
    const std::string ctx = " threads=" + std::to_string(threads);
    for (size_t j = 0; j < kJobs; ++j) {
      ExpectSameTrees(ada[j].trees(), want_ada[j], "adaboost" + ctx);
      ExpectSameTrees(gbm[j].stages(), want_gbm[j], "gbm" + ctx);
      ExpectSameTrees(sur[j].trees(), want_sur[j], "surrogate" + ctx);
    }
  }
}

}  // namespace
}  // namespace autoem
