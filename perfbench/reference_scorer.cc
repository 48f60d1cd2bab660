#include "reference_scorer.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace cirank {
namespace perfbench {

std::vector<std::string> TextTokens(std::string_view text) {
  std::vector<std::string> tokens;
  std::string current;
  for (const char c : text) {
    const bool digit = c >= '0' && c <= '9';
    const bool lower = c >= 'a' && c <= 'z';
    const bool upper = c >= 'A' && c <= 'Z';
    if (digit || lower || upper) {
      current.push_back(upper ? static_cast<char>(c - 'A' + 'a') : c);
    } else if (!current.empty()) {
      tokens.push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

ReferenceScorer::ReferenceScorer(const Graph& graph,
                                 const std::vector<double>& importance,
                                 const RwmpParams& params)
    : graph_(&graph), importance_(importance) {
  const double p_min =
      importance_.empty()
          ? 1.0
          : *std::min_element(importance_.begin(), importance_.end());
  total_surfers_ = 1.0 / p_min;
  // Eq. 2: d_i = 1 - (1 - alpha)^(1 + log_g(p_i / p_min)).
  dampening_.reserve(importance_.size());
  for (const double p : importance_) {
    const double exponent = 1.0 + std::log(p / p_min) / std::log(params.g);
    dampening_.push_back(1.0 - std::pow(1.0 - params.alpha, exponent));
  }
}

double ReferenceScorer::Score(const AnswerView& tree,
                              const Query& query) const {
  const size_t n = tree.nodes.size();
  auto position = [&tree](NodeId v) {
    return static_cast<size_t>(
        std::find(tree.nodes.begin(), tree.nodes.end(), v) -
        tree.nodes.begin());
  };
  std::vector<std::vector<size_t>> adjacent(n);
  for (const auto& [a, b] : tree.edges) {
    adjacent[position(a)].push_back(position(b));
    adjacent[position(b)].push_back(position(a));
  }
  // W(x): total weight of x's tree edges, the split denominator.
  std::vector<double> out_weight(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (const size_t j : adjacent[i]) {
      out_weight[i] += graph_->edge_weight(tree.nodes[i], tree.nodes[j]);
    }
  }

  // Emission r_ii = t * p_i * |v_i ∩ Q| / |v_i| of every non-free node.
  std::vector<size_t> sources;
  std::vector<double> emission;
  for (size_t i = 0; i < n; ++i) {
    const std::vector<std::string> tokens =
        TextTokens(graph_->text_of(tree.nodes[i]));
    size_t matched = 0;
    for (const std::string& token : tokens) {
      if (std::find(query.keywords.begin(), query.keywords.end(), token) !=
          query.keywords.end()) {
        ++matched;
      }
    }
    if (matched == 0) continue;
    sources.push_back(i);
    emission.push_back(total_surfers_ * importance_[tree.nodes[i]] *
                       static_cast<double>(matched) /
                       static_cast<double>(tokens.size()));
  }
  if (sources.empty()) return 0.0;
  if (sources.size() == 1) return emission[0];

  // Messages of source s reaching d: e_s times, along the path
  // s = x_0 .. x_m = d, the split share w(x_j -> x_j+1) / W(x_j) at every
  // sender and the dampening d(x_j) at every node after the source.
  auto path_from = [&](size_t from) {
    std::vector<size_t> parent(n, n);
    std::vector<size_t> order = {from};
    parent[from] = from;
    for (size_t head = 0; head < order.size(); ++head) {
      for (const size_t next : adjacent[order[head]]) {
        if (parent[next] != n) continue;
        parent[next] = order[head];
        order.push_back(next);
      }
    }
    return parent;
  };
  std::vector<std::vector<double>> reach(sources.size(),
                                         std::vector<double>(n, 0.0));
  for (size_t s = 0; s < sources.size(); ++s) {
    const std::vector<size_t> parent = path_from(sources[s]);
    for (size_t d = 0; d < sources.size(); ++d) {
      if (d == s) continue;
      // Walk d back to s, then apply the factors source-first.
      std::vector<size_t> path = {sources[d]};
      while (path.back() != sources[s]) path.push_back(parent[path.back()]);
      std::reverse(path.begin(), path.end());
      double count = emission[s];
      for (size_t j = 0; j + 1 < path.size(); ++j) {
        const size_t x = path[j];
        const size_t y = path[j + 1];
        if (out_weight[x] <= 0.0) {
          count = 0.0;
          break;
        }
        count = count *
                (graph_->edge_weight(tree.nodes[x], tree.nodes[y]) /
                 out_weight[x]) *
                dampening_[tree.nodes[y]];
      }
      reach[s][sources[d]] = count;
    }
  }

  // Eq. 3: a non-free node scores its least populous incoming message
  // type; Eq. 4: the tree scores the average over non-free nodes.
  double total = 0.0;
  for (size_t d = 0; d < sources.size(); ++d) {
    double least = std::numeric_limits<double>::infinity();
    for (size_t s = 0; s < sources.size(); ++s) {
      if (s != d) least = std::min(least, reach[s][sources[d]]);
    }
    total += least;
  }
  return total / static_cast<double>(sources.size());
}

}  // namespace perfbench
}  // namespace cirank
