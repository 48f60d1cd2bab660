// An independent RWMP scorer (Eqs. 2-4 of the paper) used to check the
// engine's answer scores. It shares no code with core/scorer.cc,
// core/rwmp.cc or text/: dampening is recomputed from the importance
// vector, node text is tokenized here, and each message count is the
// closed-form product along the tree path instead of a propagation walk.
#ifndef CIRANK_REFERENCE_SCORER_H_
#define CIRANK_REFERENCE_SCORER_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/rwmp.h"
#include "graph/graph.h"
#include "text/tokenizer.h"

namespace cirank {
namespace perfbench {

// One answer tree as plain data, so the checks can also be fed trees that
// Jtt::Create would refuse to build (the corrupted answers of the tests).
struct AnswerView {
  double score = 0.0;
  NodeId root = kInvalidNode;
  std::vector<NodeId> nodes;
  std::vector<std::pair<NodeId, NodeId>> edges;  // (parent, child)
};

// Lower-cased ASCII-alphanumeric runs of `text`.
std::vector<std::string> TextTokens(std::string_view text);

class ReferenceScorer {
 public:
  // Takes the engine's PageRank importances and RWMP parameters; the
  // graph must outlive the scorer.
  ReferenceScorer(const Graph& graph, const std::vector<double>& importance,
                  const RwmpParams& params);

  // Eq. 4 score of `tree` for `query`. The tree must be connected (the
  // answer checks establish that before scoring).
  double Score(const AnswerView& tree, const Query& query) const;

  // Eq. 2 dampening rate of node v.
  double dampening(NodeId v) const { return dampening_[v]; }

 private:
  const Graph* graph_;
  std::vector<double> importance_;
  std::vector<double> dampening_;
  double total_surfers_ = 0.0;
};

}  // namespace perfbench
}  // namespace cirank

#endif  // CIRANK_REFERENCE_SCORER_H_
