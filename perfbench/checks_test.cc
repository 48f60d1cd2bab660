// Tests of the benchmark's own correctness machinery: the independent RWMP
// scorer agrees with the engine's TreeScorer, and every answer check fires
// on a deliberately corrupted answer.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "core/engine.h"
#include "datasets/dblp_gen.h"
#include "datasets/imdb_gen.h"
#include "datasets/micro_graphs.h"
#include "datasets/query_gen.h"
#include "reference_scorer.h"

namespace cirank {
namespace perfbench {
namespace {

ReferenceScorer MakeReference(const CiRankEngine& engine) {
  return ReferenceScorer(engine.graph(), engine.model().importance_vector(),
                         engine.model().params());
}

// Searches `query` and compares every answer's score with the reference.
// Returns the number of answers compared.
size_t ExpectScoresAgree(const CiRankEngine& engine, const Query& query) {
  const ReferenceScorer reference = MakeReference(engine);
  SearchOptions options;
  options.k = 10;
  options.max_diameter = 4;
  options.max_expansions = 5000;
  Result<std::vector<RankedAnswer>> answers = engine.Search(query, options);
  EXPECT_TRUE(answers.ok()) << answers.status().ToString();
  if (!answers.ok()) return 0;
  for (const RankedAnswer& answer : *answers) {
    const double engine_score = engine.scorer().Score(answer.tree, query).score;
    const double ref = reference.Score(ToView(answer), query);
    EXPECT_NEAR(ref, engine_score, 1e-9 * std::abs(engine_score))
        << answer.tree.ToString(engine.graph());
    EXPECT_NEAR(ref, answer.score, 1e-9 * std::abs(answer.score));
  }
  return answers->size();
}

// Queries made of the first token of one node, and of two nodes, of a
// small graph.
std::vector<Query> TokenQueries(const Graph& graph) {
  std::vector<std::string> firsts;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    const std::vector<std::string> tokens = TextTokens(graph.text_of(v));
    if (!tokens.empty()) firsts.push_back(tokens.front());
  }
  std::vector<Query> queries;
  for (size_t i = 0; i < firsts.size(); ++i) {
    queries.push_back(Query::MustParse(firsts[i]));
    const std::string& other = firsts[(i * 7 + 3) % firsts.size()];
    if (other != firsts[i]) {
      queries.push_back(Query::MustParse(firsts[i] + " " + other));
    }
  }
  return queries;
}

TEST(ReferenceScorerTest, AgreesWithTreeScorerOnMicroGraphs) {
  const std::vector<Dataset> micro = {
      BuildTsimmisExample().dataset, BuildCostarExample().dataset,
      BuildFreeNodeDominationExample().dataset,
      BuildStarVsChainExample().dataset};
  size_t compared = 0;
  for (const Dataset& dataset : micro) {
    Result<CiRankEngine> engine = CiRankEngine::Builder(dataset.graph).Build();
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    for (const Query& query : TokenQueries(dataset.graph)) {
      compared += ExpectScoresAgree(*engine, query);
    }
  }
  EXPECT_GT(compared, 50u);
}

TEST(ReferenceScorerTest, AgreesWithTreeScorerOnSeededGraphs) {
  size_t compared = 0;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    ImdbGenOptions imdb;
    imdb.num_movies = 60;
    imdb.num_actors = 80;
    imdb.num_actresses = 40;
    imdb.num_directors = 15;
    imdb.num_producers = 10;
    imdb.num_companies = 8;
    imdb.seed = seed;
    DblpGenOptions dblp;
    dblp.num_papers = 80;
    dblp.num_authors = 60;
    dblp.num_conferences = 6;
    dblp.seed = seed;
    for (Result<Dataset> dataset : {BuildImdbDataset(imdb),
                                    BuildDblpDataset(dblp)}) {
      ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
      Result<CiRankEngine> engine =
          CiRankEngine::Builder(dataset->graph).Build();
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      QueryGenOptions options;
      options.num_queries = 12;
      options.seed = seed;
      Result<std::vector<LabeledQuery>> queries =
          GenerateQueries(*dataset, options);
      ASSERT_TRUE(queries.ok()) << queries.status().ToString();
      for (const LabeledQuery& lq : *queries) {
        compared += ExpectScoresAgree(*engine, lq.query);
      }
    }
  }
  EXPECT_GT(compared, 100u);
}

// A real answer list to corrupt: the costar micro graph's top answers for
// two of its actors.
class CorruptedAnswerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    example_ = BuildCostarExample();
    Result<CiRankEngine> engine =
        CiRankEngine::Builder(example_.dataset.graph).Build();
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_.emplace(std::move(engine).value());
    reference_.emplace(MakeReference(*engine_));
    ctx_.graph = &example_.dataset.graph;
    ctx_.reference = &*reference_;
    query_ = Query::MustParse(FirstToken(example_.bloom) + " " +
                              FirstToken(example_.wood));
    SearchOptions options;
    options.k = 10;
    Result<std::vector<RankedAnswer>> answers =
        engine_->Search(query_, options, &stats_);
    ASSERT_TRUE(answers.ok()) << answers.status().ToString();
    answers_ = ToViews(*answers);
    ASSERT_GE(answers_.size(), 2u);
    ASSERT_GT(answers_[0].score, answers_[1].score);
    ASSERT_FALSE(answers_[0].edges.empty());
    ASSERT_EQ(CheckAnswerList(ctx_, query_, answers_), "");
  }

  std::string FirstToken(NodeId v) const {
    return TextTokens(example_.dataset.graph.text_of(v)).front();
  }

  CostarExample example_;
  std::optional<CiRankEngine> engine_;
  std::optional<ReferenceScorer> reference_;
  AnswerCheckContext ctx_;
  Query query_;
  SearchStats stats_;
  std::vector<AnswerView> answers_;
};

TEST_F(CorruptedAnswerTest, PerturbedScoreFails) {
  answers_[0].score *= 1.0 + 1e-7;
  EXPECT_NE(CheckAnswerList(ctx_, query_, answers_).find("reference"),
            std::string::npos);
}

TEST_F(CorruptedAnswerTest, DroppedEdgeFails) {
  answers_[0].edges.pop_back();
  EXPECT_NE(CheckAnswerList(ctx_, query_, answers_).find("edges for"),
            std::string::npos);
}

TEST_F(CorruptedAnswerTest, EdgeOutsideTheGraphFails) {
  // Re-attach the last child straight to a node it has no graph edge to.
  AnswerView& tree = answers_[0];
  const NodeId child = tree.edges.back().second;
  bool moved = false;
  for (const NodeId v : tree.nodes) {
    if (v != child && !ctx_.graph->has_edge(v, child)) {
      tree.edges.back().first = v;
      moved = true;
      break;
    }
  }
  ASSERT_TRUE(moved);
  EXPECT_NE(CheckAnswerList(ctx_, query_, answers_).find("not in the graph"),
            std::string::npos);
}

TEST_F(CorruptedAnswerTest, NodeWithoutTheKeywordFails) {
  // A single-node answer whose node's text lacks the query keyword.
  const Query query = Query::MustParse(FirstToken(example_.bloom));
  AnswerView wrong;
  wrong.root = example_.popular_movie;
  wrong.nodes = {example_.popular_movie};
  wrong.score = reference_->Score(wrong, query);
  EXPECT_NE(CheckAnswerList(ctx_, query, {wrong}).find("in no node's text"),
            std::string::npos);
}

TEST_F(CorruptedAnswerTest, OversizedDiameterFails) {
  ctx_.max_diameter = 0;
  EXPECT_NE(CheckAnswerList(ctx_, query_, answers_).find("diameter"),
            std::string::npos);
}

TEST_F(CorruptedAnswerTest, OutOfOrderListFails) {
  std::swap(answers_[0], answers_[1]);
  EXPECT_NE(CheckAnswerList(ctx_, query_, answers_).find("scores above"),
            std::string::npos);
}

TEST_F(CorruptedAnswerTest, DuplicateTreeFails) {
  answers_[1] = answers_[0];
  EXPECT_NE(CheckAnswerList(ctx_, query_, answers_).find("duplicates"),
            std::string::npos);
}

TEST_F(CorruptedAnswerTest, TooManyAnswersFails) {
  ctx_.k = static_cast<int>(answers_.size()) - 1;
  EXPECT_NE(CheckAnswerList(ctx_, query_, answers_).find("answers for k"),
            std::string::npos);
}

TEST_F(CorruptedAnswerTest, PrunedBoundAtTheKthScoreFails) {
  const int k = static_cast<int>(answers_.size());
  SearchStats stats;
  stats.proven_optimal = true;
  stats.max_pruned_bound = answers_.back().score * 0.5;
  EXPECT_EQ(CheckProvenOptimal(stats, k, answers_, answers_), "");
  stats.max_pruned_bound = answers_.back().score;
  EXPECT_NE(CheckProvenOptimal(stats, k, answers_, {}).find("pruned bound"),
            std::string::npos);
}

TEST_F(CorruptedAnswerTest, UnlistedBetterAnswerFails) {
  const int k = static_cast<int>(answers_.size()) - 1;
  std::vector<AnswerView> listed(answers_.begin(), answers_.end() - 1);
  AnswerView better = answers_.back();
  better.score = listed.back().score * 2.0;
  SearchStats stats;
  EXPECT_NE(CheckProvenOptimal(stats, k, listed, {better}).find("unlisted"),
            std::string::npos);
}

TEST(BudgetCheckTest, CountsTheFinalDequeueAsNoExpansion) {
  SearchStats stats;
  stats.budget_exhausted = true;
  stats.popped = 2001;
  EXPECT_EQ(CheckBudget(stats, 2000), "");
  stats.popped = 2002;
  EXPECT_NE(CheckBudget(stats, 2000), "");
}

TEST(ServedAnswersTest, DifferingAnswersFail) {
  EXPECT_EQ(CheckServedAnswers("[{\"score\":1}]", "[{\"score\":1}]"), "");
  EXPECT_NE(CheckServedAnswers("[{\"score\":1}]", "[{\"score\":2}]"), "");
  EXPECT_EQ(CheckAnswersAfterClick("[1]", "[1]"), "");
  EXPECT_NE(CheckAnswersAfterClick("[2]", "[1]"), "");
}

TEST(FailedOperationsTest, AnyFailedOperationFails) {
  EXPECT_EQ(CheckNoFailures(720, 0), "");
  EXPECT_EQ(CheckNoFailures(720, 1), "1 of 720 operations failed");
}

}  // namespace
}  // namespace perfbench
}  // namespace cirank
