// The n-dimensional star graph S_n (Akers, Harel & Krishnamurthy 1986).
//
// Vertices are the n! permutations of {1..n} (0-based internally); u ~ v
// iff v arises from u by swapping position 0 with some position i >= 1.
// S_n is (n-1)-regular, vertex- and edge-transitive, and bipartite with
// the even and odd permutations as the two (equal-size) partite sets.
//
// This class is a thin façade: the symbolic structure lives in Perm and
// SubstarPattern; here we provide id-based access, explicit
// materialization (for verification and exhaustive experiments), and a
// few whole-graph facts used across the library.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "perm/permutation.hpp"
#include "stargraph/substar.hpp"

namespace starring {

class StarGraph {
 public:
  explicit StarGraph(int n);

  int n() const { return n_; }

  /// |V| = n!.
  std::uint64_t num_vertices() const { return factorial(n_); }

  /// |E| = n! * (n-1) / 2.
  std::uint64_t num_edges() const {
    return num_vertices() * static_cast<std::uint64_t>(n_ - 1) / 2;
  }

  /// Degree of every vertex.
  int degree() const { return n_ - 1; }

  Perm vertex(VertexId id) const { return Perm::unrank(id, n_); }
  VertexId id_of(const Perm& p) const { return p.rank(); }

  /// Neighbour ids of `id`, in dimension order (n-1 of them).
  std::vector<VertexId> neighbor_ids(VertexId id) const;

  bool adjacent_ids(VertexId a, VertexId b) const {
    return vertex(a).adjacent(vertex(b));
  }

  /// Explicit adjacency-list materialization.  Memory ~ n! * (n-1)
  /// ids; intended for n <= 9 (verification) and n <= 7 (exhaustive
  /// experiments).
  Graph materialize() const;

  /// The whole-graph pattern <* * ... *>_n.
  SubstarPattern whole_pattern() const { return SubstarPattern::whole(n_); }

 private:
  int n_;
};

}  // namespace starring
