// Correctness checks the benchmark applies to every answer it receives.
// Each returns an empty string when the input passes and otherwise a
// one-line description of the first violation found. They use only the
// graph, the independent ReferenceScorer and the benchmark's own BFS, never
// Jtt's own diameter or keyword helpers.
#ifndef CIRANK_CHECKS_H_
#define CIRANK_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/execution.h"
#include "graph/graph.h"
#include "reference_scorer.h"
#include "text/tokenizer.h"

namespace cirank {
namespace perfbench {

AnswerView ToView(const RankedAnswer& answer);
std::vector<AnswerView> ToViews(const std::vector<RankedAnswer>& answers);

struct AnswerCheckContext {
  const Graph* graph = nullptr;
  const ReferenceScorer* reference = nullptr;
  int k = 10;
  uint32_t max_diameter = 4;
  // Largest accepted |score - reference| / |reference|.
  double score_tolerance = 1e-9;
};

// Per answer: a connected tree over distinct nodes whose edges all exist in
// the graph, diameter at most D, every query keyword in some node's text,
// and a score equal to the reference score. Per list: at most k answers, no
// two with the same node and edge sets, scores non-increasing.
std::string CheckAnswerList(const AnswerCheckContext& ctx, const Query& query,
                            const std::vector<AnswerView>& answers);

// For a search reported proven optimal: every bound the stopping rule
// discarded lies below the k-th returned score (Theorem 1), and no answer
// of an independent search (the naive executor) scores above the k-th
// returned score without being in the returned list.
std::string CheckProvenOptimal(const SearchStats& stats, int k,
                               const std::vector<AnswerView>& answers,
                               const std::vector<AnswerView>& other_answers);

// For a search that reached its budget: it expanded at most max_expansions
// candidates (SearchStats::popped also counts the final dequeue that found
// the budget spent).
std::string CheckBudget(const SearchStats& stats, int64_t max_expansions);

// Served answers (the JSON the server sent) against the direct search of a
// cache-less engine rendered the same way, and against the answers served
// for the same query before the latest click.
std::string CheckServedAnswers(const std::string& served,
                               const std::string& direct);
std::string CheckAnswersAfterClick(const std::string& after,
                                   const std::string& before);

// Every operation of a run completed: no operation may fail on the
// benchmark's workloads.
std::string CheckNoFailures(int64_t attempted, int64_t failed);

}  // namespace perfbench
}  // namespace cirank

#endif  // CIRANK_CHECKS_H_
