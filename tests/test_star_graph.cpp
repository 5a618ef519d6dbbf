// Unit tests for the S_n model: global structure, materialization,
// bipartiteness, and the ring-checking helper.
#include <gtest/gtest.h>

#include "stargraph/star_graph.hpp"

namespace starring {
namespace {

TEST(StarGraph, SizesAndDegree) {
  const StarGraph g(6);
  EXPECT_EQ(g.n(), 6);
  EXPECT_EQ(g.num_vertices(), 720u);
  EXPECT_EQ(g.num_edges(), 720u * 5 / 2);
  EXPECT_EQ(g.degree(), 5);
}

TEST(StarGraph, NeighborIdsMatchPermMoves) {
  const StarGraph g(5);
  for (VertexId id = 0; id < g.num_vertices(); id += 13) {
    const auto nbrs = g.neighbor_ids(id);
    ASSERT_EQ(nbrs.size(), 4u);
    const Perm p = g.vertex(id);
    for (int i = 1; i < 5; ++i) {
      EXPECT_EQ(nbrs[static_cast<std::size_t>(i - 1)],
                p.star_move(i).rank());
      EXPECT_TRUE(g.adjacent_ids(id, nbrs[static_cast<std::size_t>(i - 1)]));
    }
  }
}

TEST(StarGraph, MaterializeRegular) {
  for (int n = 2; n <= 6; ++n) {
    const StarGraph sg(n);
    const Graph g = sg.materialize();
    EXPECT_EQ(g.num_vertices(), factorial(n));
    EXPECT_EQ(g.num_edges(), sg.num_edges());
    for (std::uint64_t v = 0; v < g.num_vertices(); ++v)
      EXPECT_EQ(g.degree(v), static_cast<std::size_t>(n - 1));
  }
}

TEST(StarGraph, MaterializedIsBipartite) {
  for (int n = 2; n <= 6; ++n) {
    const Graph g = StarGraph(n).materialize();
    const auto res = check_bipartite(g);
    EXPECT_TRUE(res.is_bipartite) << "S_" << n;
  }
}

TEST(StarGraph, BipartitionMatchesParity) {
  const StarGraph sg(5);
  const Graph g = sg.materialize();
  const auto res = check_bipartite(g);
  ASSERT_TRUE(res.is_bipartite);
  // The 2-colouring must coincide with permutation parity (up to
  // swapping colour names).
  const int c0 = res.color[0];
  const int p0 = sg.vertex(0).parity();
  for (VertexId id = 0; id < sg.num_vertices(); ++id) {
    const bool same_color = res.color[id] == c0;
    const bool same_parity = sg.vertex(id).parity() == p0;
    EXPECT_EQ(same_color, same_parity) << id;
  }
}

TEST(StarGraph, S3IsSixCycle) {
  const StarGraph sg(3);
  const Graph g = sg.materialize();
  EXPECT_EQ(g.num_vertices(), 6u);
  for (std::uint64_t v = 0; v < 6; ++v) EXPECT_EQ(g.degree(v), 2u);
  // Connected 2-regular graph on 6 vertices = C6.
  std::vector<std::uint8_t> blocked(6, 0);
  EXPECT_EQ(reachable_count(g, 0, blocked), 6u);
}

TEST(StarGraph, StarGraphIsConnected) {
  for (int n = 2; n <= 6; ++n) {
    const Graph g = StarGraph(n).materialize();
    std::vector<std::uint8_t> blocked(g.num_vertices(), 0);
    EXPECT_EQ(reachable_count(g, 0, blocked), g.num_vertices());
  }
}

TEST(StarGraph, VertexIdRoundTrip) {
  const StarGraph g(7);
  for (VertexId id = 0; id < g.num_vertices(); id += 101)
    EXPECT_EQ(g.id_of(g.vertex(id)), id);
}

}  // namespace
}  // namespace starring
