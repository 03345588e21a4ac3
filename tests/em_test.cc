#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <set>

#include "common/rng.h"
#include "common/string_util.h"
#include "datagen/benchmark_gen.h"
#include "em/blocking.h"
#include "em/matcher.h"
#include "em/pairs_io.h"
#include "text/tokenizer.h"

namespace autoem {
namespace {

Table MakeRestaurants(const std::string& name,
                      const std::vector<std::vector<const char*>>& rows) {
  Table t(name, Schema({"name", "city"}));
  for (const auto& row : rows) {
    EXPECT_TRUE(t.Append(Record({Value(row[0]), Value(row[1])})).ok());
  }
  return t;
}

// ---- blocking -------------------------------------------------------------------

TEST(BlockingTest, AttributeEquivalenceGroupsByKey) {
  Table left = MakeRestaurants(
      "A", {{"arnie mortons", "los angeles"}, {"arts deli", "studio city"}});
  Table right = MakeRestaurants(
      "B",
      {{"arnie mortons of chicago", "Los Angeles"},  // case-insensitive
       {"arts delicatessen", "studio city"},
       {"fenix", "west hollywood"}});
  AttributeEquivalenceBlocker blocker("city");
  auto pairs = blocker.Block(left, right);
  ASSERT_TRUE(pairs.ok());
  ASSERT_EQ(pairs->size(), 2u);
  for (const auto& p : *pairs) EXPECT_EQ(p.label, -1);
}

TEST(BlockingTest, AttributeEquivalenceSkipsNulls) {
  Table left("A", Schema({"k"}));
  ASSERT_TRUE(left.Append(Record({Value::Null()})).ok());
  Table right("B", Schema({"k"}));
  ASSERT_TRUE(right.Append(Record({Value::Null()})).ok());
  AttributeEquivalenceBlocker blocker("k");
  auto pairs = blocker.Block(left, right);
  ASSERT_TRUE(pairs.ok());
  EXPECT_TRUE(pairs->empty());  // null keys never pair
}

TEST(BlockingTest, MissingAttributeRejected) {
  Table left = MakeRestaurants("A", {{"x", "y"}});
  Table right = MakeRestaurants("B", {{"x", "y"}});
  AttributeEquivalenceBlocker blocker("bogus");
  EXPECT_FALSE(blocker.Block(left, right).ok());
  QGramBlocker qblocker("bogus");
  EXPECT_FALSE(qblocker.Block(left, right).ok());
}

TEST(BlockingTest, QGramSurvivesTypos) {
  Table left = MakeRestaurants("A", {{"arnie mortons", "la"}});
  Table right = MakeRestaurants("B", {{"arnie mortns", "la"},  // typo
                                      {"zzzz qqqq", "la"}});
  QGramBlocker blocker("name", /*min_shared=*/4);
  auto pairs = blocker.Block(left, right);
  ASSERT_TRUE(pairs.ok());
  ASSERT_EQ(pairs->size(), 1u);
  EXPECT_EQ((*pairs)[0].right_id, 0u);
}

TEST(BlockingTest, QGramRecallOnGeneratedData) {
  // On the easy restaurant benchmark, q-gram blocking on name should keep
  // nearly all true matches.
  auto data = GenerateBenchmarkByName("Fodors-Zagats", 3, 0.3);
  ASSERT_TRUE(data.ok());
  QGramBlocker blocker("name", 3);
  auto candidates = blocker.Block(data->train.left, data->train.right);
  ASSERT_TRUE(candidates.ok());
  double recall = BlockingRecall(*candidates, data->train.pairs);
  EXPECT_GT(recall, 0.85);
}

TEST(BlockingTest, RecallComputation) {
  std::vector<RecordPair> truth = {{0, 0, 1}, {1, 1, 1}, {2, 2, 0}};
  std::vector<RecordPair> candidates = {{0, 0, -1}, {5, 5, -1}};
  EXPECT_DOUBLE_EQ(BlockingRecall(candidates, truth), 0.5);
  EXPECT_DOUBLE_EQ(BlockingRecall({}, {{0, 0, 0}}), 1.0);  // no true matches
}

// ---- blocking differential tests ---------------------------------------------
//
// Each blocker against a brute-force oracle over every (left, right) pair.
// Keys draw words through TPC-C's NURand, so a few words (and their grams)
// are very popular and their posting lists long; null, empty and
// whitespace-only keys, mixed case, and keys repeating a gram are mixed in.

std::string BlockKey(const Value& v) { return ToLower(Trim(v.ToString())); }

std::set<std::string> DistinctGrams(const Value& v) {
  std::vector<std::string> grams = QGramTokenize(BlockKey(v), 3);
  return {grams.begin(), grams.end()};
}

// TPC-C 2.1.6 non-uniform random number in [x, y].
int NURand(Rng* rng, int a, int x, int y, int c) {
  return (((rng->UniformInt(0, a) | rng->UniformInt(x, y)) + c) %
          (y - x + 1)) +
         x;
}

Table SkewedKeyTable(const std::string& name, size_t rows, Rng* rng) {
  static const char* kWords[] = {
      "cafe",  "deli",   "grill",  "bistro", "pizza", "sushi",  "taco",
      "diner", "bar",    "house",  "garden", "golden", "dragon", "palace",
      "blue",  "red",    "star",   "moon",   "sun",   "king",   "queen",
      "thai",  "indian", "french", "aaaa",   "abab",  "cafes",  "deli's"};
  constexpr int kNumWords = sizeof(kWords) / sizeof(kWords[0]);
  static const char* kOdd[] = {"", "   ", " \t ", "aaaaaaa", "Cafe CAFE cafe",
                               "ab", "x", "  Deli  "};
  Table t(name, Schema({"k"}));
  for (size_t r = 0; r < rows; ++r) {
    const int pick = rng->UniformInt(0, 19);
    Value cell;
    if (pick == 0) {
      cell = Value::Null();
    } else if (pick == 1) {
      cell = Value(kOdd[rng->UniformIndex(sizeof(kOdd) / sizeof(kOdd[0]))]);
    } else {
      std::string key;
      const int words = rng->UniformInt(1, 4);
      for (int w = 0; w < words; ++w) {
        if (w > 0) key += ' ';
        key += kWords[NURand(rng, 7, 0, kNumWords - 1, 5)];
      }
      if (pick == 2) {
        for (char& c : key) c = static_cast<char>(std::toupper(c));
        key = "  " + key + " ";
      }
      cell = Value(key);
    }
    EXPECT_TRUE(t.Append(Record({cell})).ok());
  }
  return t;
}

void ExpectSortedUnique(const std::vector<RecordPair>& pairs) {
  for (size_t i = 1; i < pairs.size(); ++i) {
    const RecordPair& a = pairs[i - 1];
    const RecordPair& b = pairs[i];
    EXPECT_TRUE(a.right_id < b.right_id ||
                (a.right_id == b.right_id && a.left_id < b.left_id))
        << "pair " << i << " out of (right, left) order or duplicated";
  }
}

using IdPairs = std::vector<std::pair<size_t, size_t>>;  // (left, right)

IdPairs Ids(const std::vector<RecordPair>& pairs) {
  IdPairs out;
  for (const RecordPair& p : pairs) {
    EXPECT_EQ(p.label, -1);
    out.emplace_back(p.left_id, p.right_id);
  }
  return out;
}

void ExpectMatchesOracle(const Blocker& blocker, const Table& left,
                         const Table& right, const IdPairs& oracle) {
  auto first = blocker.Block(left, right);
  auto second = blocker.Block(left, right);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok());
  ExpectSortedUnique(*first);
  EXPECT_EQ(Ids(*first), oracle) << blocker.name();
  EXPECT_EQ(Ids(*second), Ids(*first)) << blocker.name();
}

TEST(BlockingDifferentialTest, KeyBlockersMatchBruteForce) {
  for (uint64_t seed : {1, 2, 3, 4}) {
    Rng rng(seed);
    Table left = SkewedKeyTable("A", 60 + 10 * seed, &rng);
    Table right = SkewedKeyTable("B", 50 + 10 * seed, &rng);
    std::vector<std::set<std::string>> left_grams, right_grams;
    for (size_t l = 0; l < left.num_rows(); ++l) {
      left_grams.push_back(DistinctGrams(left.cell(l, 0)));
    }
    for (size_t r = 0; r < right.num_rows(); ++r) {
      right_grams.push_back(DistinctGrams(right.cell(r, 0)));
    }

    for (size_t min_shared = 0; min_shared <= 4; ++min_shared) {
      // A pair needs at least one shared gram even at min_shared 0.
      const size_t need = std::max<size_t>(min_shared, 1);
      IdPairs oracle;
      for (size_t r = 0; r < right.num_rows(); ++r) {
        for (size_t l = 0; l < left.num_rows(); ++l) {
          size_t shared = 0;
          for (const std::string& g : right_grams[r]) {
            shared += left_grams[l].count(g);
          }
          if (shared >= need) oracle.emplace_back(l, r);
        }
      }
      SCOPED_TRACE("seed " + std::to_string(seed) + " min_shared " +
                   std::to_string(min_shared));
      ExpectMatchesOracle(QGramBlocker("k", min_shared), left, right,
                          oracle);
    }

    IdPairs oracle;
    for (size_t r = 0; r < right.num_rows(); ++r) {
      for (size_t l = 0; l < left.num_rows(); ++l) {
        const std::string key = BlockKey(right.cell(r, 0));
        if (!key.empty() && key == BlockKey(left.cell(l, 0))) {
          oracle.emplace_back(l, r);
        }
      }
    }
    SCOPED_TRACE("seed " + std::to_string(seed) + " equivalence");
    EXPECT_FALSE(oracle.empty());
    ExpectMatchesOracle(AttributeEquivalenceBlocker("k"), left, right,
                        oracle);
  }
}

TEST(BlockingDifferentialTest, SortedNeighborhoodIsTheSortedWindowPairSet) {
  Rng rng(11);
  Table left = SkewedKeyTable("A", 90, &rng);
  Table right = SkewedKeyTable("B", 70, &rng);
  for (size_t window : {1, 2, 5, 12}) {
    // The window-pair set: non-empty keys of both sides sorted by key (the
    // same std::sort over the same entry order as the blocker), and every
    // cross-side pair less than `window` positions apart.
    struct Entry {
      std::string key;
      bool from_left;
      size_t row;
    };
    std::vector<Entry> entries;
    for (size_t l = 0; l < left.num_rows(); ++l) {
      std::string key = BlockKey(left.cell(l, 0));
      if (!key.empty()) entries.push_back({key, true, l});
    }
    for (size_t r = 0; r < right.num_rows(); ++r) {
      std::string key = BlockKey(right.cell(r, 0));
      if (!key.empty()) entries.push_back({key, false, r});
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) { return a.key < b.key; });
    std::set<std::pair<size_t, size_t>> by_right;  // (right, left)
    for (size_t i = 0; i < entries.size(); ++i) {
      for (size_t j = i + 1; j < std::min(entries.size(), i + window); ++j) {
        const Entry& a = entries[i];
        const Entry& b = entries[j];
        if (a.from_left == b.from_left) continue;
        by_right.insert(a.from_left ? std::make_pair(b.row, a.row)
                                    : std::make_pair(a.row, b.row));
      }
    }
    IdPairs oracle;
    for (const auto& [r, l] : by_right) oracle.emplace_back(l, r);
    SCOPED_TRACE("window " + std::to_string(window));
    ExpectMatchesOracle(SortedNeighborhoodBlocker("k", window), left, right,
                        oracle);
  }
}

// ---- EntityMatcher end-to-end -----------------------------------------------------

TEST(EntityMatcherTest, TrainsAndEvaluatesOnBenchmark) {
  auto data = GenerateBenchmarkByName("Fodors-Zagats", 4, 0.4);
  ASSERT_TRUE(data.ok());
  EntityMatcher::Options options;
  options.automl.max_evaluations = 6;
  auto matcher = EntityMatcher::Train(data->train, options);
  ASSERT_TRUE(matcher.ok()) << matcher.status().ToString();
  auto report = matcher->Evaluate(data->test);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->f1, 0.7);
  EXPECT_EQ(report->num_pairs, data->test.pairs.size());
  EXPECT_EQ(report->num_positives, data->test.NumPositives());
}

TEST(EntityMatcherTest, ScoresAreProbabilities) {
  auto data = GenerateBenchmarkByName("iTunes-Amazon", 5, 0.4);
  ASSERT_TRUE(data.ok());
  EntityMatcher::Options options;
  options.automl.max_evaluations = 4;
  auto matcher = EntityMatcher::Train(data->train, options);
  ASSERT_TRUE(matcher.ok());
  auto scores = matcher->ScorePairs(data->test);
  ASSERT_TRUE(scores.ok());
  EXPECT_EQ(scores->size(), data->test.pairs.size());
  for (double s : *scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(EntityMatcherTest, MagellanFeatureModeWorks) {
  auto data = GenerateBenchmarkByName("Fodors-Zagats", 6, 0.3);
  ASSERT_TRUE(data.ok());
  EntityMatcher::Options options;
  options.feature_generator = "magellan";
  options.automl.max_evaluations = 4;
  auto matcher = EntityMatcher::Train(data->train, options);
  ASSERT_TRUE(matcher.ok());
  EXPECT_EQ(matcher->feature_generator().name(), "magellan");
}

TEST(EntityMatcherTest, ThresholdTradesPrecisionForRecall) {
  auto data = GenerateBenchmarkByName("Amazon-Google", 7, 0.2);
  ASSERT_TRUE(data.ok());
  EntityMatcher::Options options;
  options.automl.max_evaluations = 5;
  auto matcher = EntityMatcher::Train(data->train, options);
  ASSERT_TRUE(matcher.ok());
  auto strict = matcher->Evaluate(data->test, 0.9);
  auto lenient = matcher->Evaluate(data->test, 0.1);
  ASSERT_TRUE(strict.ok());
  ASSERT_TRUE(lenient.ok());
  EXPECT_GE(lenient->recall, strict->recall);
}

TEST(EntityMatcherTest, EmptyTrainingRejected) {
  PairSet empty;
  EntityMatcher::Options options;
  EXPECT_FALSE(EntityMatcher::Train(empty, options).ok());
}

TEST(EntityMatcherTest, UnknownFeatureGeneratorRejected) {
  auto data = GenerateBenchmarkByName("Fodors-Zagats", 8, 0.1);
  ASSERT_TRUE(data.ok());
  EntityMatcher::Options options;
  options.feature_generator = "bogus";
  EXPECT_FALSE(EntityMatcher::Train(data->train, options).ok());
}

// ---- pairs interchange format ------------------------------------------------

TEST(PairsIoTest, RoundTripsThroughTable) {
  std::vector<RecordPair> pairs = {{0, 2, 1}, {1, 0, 0}, {3, 1, -1}};
  Table t = PairsToTable(pairs);
  EXPECT_EQ(t.num_rows(), 3u);
  auto back = PairsFromTable(t, /*left_rows=*/4, /*right_rows=*/3);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->size(), 3u);
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ((*back)[i].left_id, pairs[i].left_id);
    EXPECT_EQ((*back)[i].right_id, pairs[i].right_id);
    EXPECT_EQ((*back)[i].label, pairs[i].label);
  }
}

TEST(PairsIoTest, OutOfRangeIdsRejected) {
  std::vector<RecordPair> pairs = {{5, 0, 1}};
  Table t = PairsToTable(pairs);
  auto back = PairsFromTable(t, /*left_rows=*/3, /*right_rows=*/3);
  EXPECT_EQ(back.status().code(), StatusCode::kOutOfRange);
}

TEST(PairsIoTest, MissingColumnsRejected) {
  Table t("bad", Schema({"x", "y"}));
  ASSERT_TRUE(t.Append(Record({Value(0.0), Value(0.0)})).ok());
  EXPECT_FALSE(PairsFromTable(t, 1, 1).ok());
}

TEST(PairsIoTest, MissingLabelColumnMeansUnlabeled) {
  Table t("p", Schema({"ltable_id", "rtable_id"}));
  ASSERT_TRUE(t.Append(Record({Value(0.0), Value(0.0)})).ok());
  auto pairs = PairsFromTable(t, 1, 1);
  ASSERT_TRUE(pairs.ok());
  EXPECT_EQ((*pairs)[0].label, -1);
}

TEST(PairsIoTest, NonNumericIdRejected) {
  Table t("p", Schema({"ltable_id", "rtable_id", "label"}));
  ASSERT_TRUE(t.Append(Record({Value("x"), Value(0.0), Value(1.0)})).ok());
  EXPECT_FALSE(PairsFromTable(t, 1, 1).ok());
}

}  // namespace
}  // namespace autoem
