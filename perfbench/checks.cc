#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <utility>

namespace cirank {
namespace perfbench {

namespace {

// Order-independent identity of a tree: sorted nodes, sorted undirected
// edges.
using TreeKey =
    std::pair<std::vector<NodeId>, std::vector<std::pair<NodeId, NodeId>>>;

TreeKey KeyOf(const AnswerView& tree) {
  std::vector<NodeId> nodes = tree.nodes;
  std::sort(nodes.begin(), nodes.end());
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (const auto& [a, b] : tree.edges) {
    edges.emplace_back(std::min(a, b), std::max(a, b));
  }
  std::sort(edges.begin(), edges.end());
  return {std::move(nodes), std::move(edges)};
}

// Hop distances from node index `from` over the tree's own edge list.
std::vector<uint32_t> TreeDistances(const AnswerView& tree, size_t from) {
  const size_t n = tree.nodes.size();
  constexpr uint32_t kUnreached = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> dist(n, kUnreached);
  std::vector<size_t> frontier = {from};
  dist[from] = 0;
  for (size_t head = 0; head < frontier.size(); ++head) {
    const NodeId v = tree.nodes[frontier[head]];
    for (const auto& [a, b] : tree.edges) {
      if (a != v && b != v) continue;
      const NodeId other = a == v ? b : a;
      const size_t j = static_cast<size_t>(
          std::find(tree.nodes.begin(), tree.nodes.end(), other) -
          tree.nodes.begin());
      if (j < n && dist[j] == kUnreached) {
        dist[j] = dist[frontier[head]] + 1;
        frontier.push_back(j);
      }
    }
  }
  return dist;
}

std::string CheckTree(const AnswerCheckContext& ctx, const Query& query,
                      const AnswerView& tree) {
  const Graph& graph = *ctx.graph;
  const size_t n = tree.nodes.size();
  if (n == 0) return "empty tree";
  std::vector<NodeId> sorted = tree.nodes;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return "tree repeats a node";
  }
  for (const NodeId v : sorted) {
    if (v >= graph.num_nodes()) return "tree node outside the graph";
  }
  if (tree.edges.size() != n - 1) {
    return "tree has " + std::to_string(tree.edges.size()) +
           " edges for " + std::to_string(n) + " nodes";
  }
  for (const auto& [a, b] : tree.edges) {
    if (!std::binary_search(sorted.begin(), sorted.end(), a) ||
        !std::binary_search(sorted.begin(), sorted.end(), b)) {
      return "tree edge endpoint outside the tree";
    }
    if (!graph.has_edge(a, b) || !graph.has_edge(b, a)) {
      return "tree edge " + std::to_string(a) + "-" + std::to_string(b) +
             " is not in the graph";
    }
  }
  uint32_t diameter = 0;
  for (size_t i = 0; i < n; ++i) {
    for (const uint32_t d : TreeDistances(tree, i)) {
      if (d == std::numeric_limits<uint32_t>::max()) {
        return "tree is not connected";
      }
      diameter = std::max(diameter, d);
    }
  }
  if (diameter > ctx.max_diameter) {
    return "tree diameter " + std::to_string(diameter) + " exceeds D = " +
           std::to_string(ctx.max_diameter);
  }
  for (const std::string& keyword : query.keywords) {
    bool found = false;
    for (const NodeId v : tree.nodes) {
      const std::vector<std::string> tokens = TextTokens(graph.text_of(v));
      if (std::find(tokens.begin(), tokens.end(), keyword) != tokens.end()) {
        found = true;
        break;
      }
    }
    if (!found) return "keyword '" + keyword + "' is in no node's text";
  }
  const double expected = ctx.reference->Score(tree, query);
  const double scale = std::max(std::abs(expected),
                                std::numeric_limits<double>::min());
  if (!(std::abs(tree.score - expected) <= ctx.score_tolerance * scale)) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "score %.17g differs from reference %.17g",
                  tree.score, expected);
    return buf;
  }
  return "";
}

}  // namespace

AnswerView ToView(const RankedAnswer& answer) {
  AnswerView view;
  view.score = answer.score;
  view.root = answer.tree.root();
  view.nodes = answer.tree.nodes();
  view.edges = answer.tree.edges();
  return view;
}

std::vector<AnswerView> ToViews(const std::vector<RankedAnswer>& answers) {
  std::vector<AnswerView> views;
  views.reserve(answers.size());
  for (const RankedAnswer& answer : answers) views.push_back(ToView(answer));
  return views;
}

std::string CheckAnswerList(const AnswerCheckContext& ctx, const Query& query,
                            const std::vector<AnswerView>& answers) {
  if (answers.size() > static_cast<size_t>(ctx.k)) {
    return "list has " + std::to_string(answers.size()) +
           " answers for k = " + std::to_string(ctx.k);
  }
  for (size_t i = 0; i < answers.size(); ++i) {
    const std::string problem = CheckTree(ctx, query, answers[i]);
    if (!problem.empty()) {
      return "answer " + std::to_string(i) + ": " + problem;
    }
  }
  std::set<TreeKey> seen;
  for (size_t i = 0; i < answers.size(); ++i) {
    if (!seen.insert(KeyOf(answers[i])).second) {
      return "answer " + std::to_string(i) + " duplicates an earlier tree";
    }
    if (i > 0 && answers[i].score > answers[i - 1].score) {
      return "answer " + std::to_string(i) + " scores above answer " +
             std::to_string(i - 1);
    }
  }
  return "";
}

std::string CheckProvenOptimal(const SearchStats& stats, int k,
                               const std::vector<AnswerView>& answers,
                               const std::vector<AnswerView>& other_answers) {
  const bool full = answers.size() == static_cast<size_t>(k);
  // With fewer than k answers every answer of the query must be listed.
  const double kth = full ? answers.back().score
                          : -std::numeric_limits<double>::infinity();
  if (full && !(stats.max_pruned_bound < kth)) {
    char buf[112];
    std::snprintf(buf, sizeof(buf),
                  "pruned bound %.17g is not below the k-th score %.17g",
                  stats.max_pruned_bound, kth);
    return buf;
  }
  std::set<TreeKey> listed;
  for (const AnswerView& answer : answers) listed.insert(KeyOf(answer));
  // Ties within rounding may legitimately fall either side of the cut.
  const double cut = full ? kth + 1e-9 * std::abs(kth) : kth;
  for (const AnswerView& other : other_answers) {
    if (other.score > cut &&
        listed.count(KeyOf(other)) == 0) {
      char buf[112];
      std::snprintf(buf, sizeof(buf),
                    "an unlisted answer scores %.17g, above the k-th %.17g",
                    other.score, kth);
      return buf;
    }
  }
  return "";
}

std::string CheckBudget(const SearchStats& stats, int64_t max_expansions) {
  const int64_t expanded = stats.popped - (stats.budget_exhausted ? 1 : 0);
  if (max_expansions > 0 && expanded > max_expansions) {
    return "expanded " + std::to_string(expanded) +
           " candidates for max_expansions = " +
           std::to_string(max_expansions);
  }
  return "";
}

std::string CheckServedAnswers(const std::string& served,
                               const std::string& direct) {
  if (served == direct) return "";
  return "served answers differ from the direct search";
}

std::string CheckAnswersAfterClick(const std::string& after,
                                   const std::string& before) {
  if (after == before) return "";
  return "answers after a click differ from those before it";
}

std::string CheckNoFailures(int64_t attempted, int64_t failed) {
  if (failed == 0) return "";
  return std::to_string(failed) + " of " + std::to_string(attempted) +
         " operations failed";
}

}  // namespace perfbench
}  // namespace cirank
