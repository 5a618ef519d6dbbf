#include "stargraph/star_graph.hpp"

#include <cassert>

namespace starring {

StarGraph::StarGraph(int n) : n_(n) { assert(n >= 1 && n <= kMaxN); }

std::vector<VertexId> StarGraph::neighbor_ids(VertexId id) const {
  const Perm p = vertex(id);
  std::vector<VertexId> out;
  out.reserve(static_cast<std::size_t>(n_ - 1));
  for (int i = 1; i < n_; ++i) out.push_back(p.star_move(i).rank());
  return out;
}

Graph StarGraph::materialize() const {
  Graph g(num_vertices());
  for (VertexId id = 0; id < num_vertices(); ++id) {
    const Perm p = vertex(id);
    for (int i = 1; i < n_; ++i) {
      const VertexId q = p.star_move(i).rank();
      if (q > id) g.add_edge(id, q);
    }
  }
  return g;
}

}  // namespace starring
