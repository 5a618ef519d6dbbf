// Unit tests for the independent verifier — it must catch every way an
// embedding can be wrong.
#include <gtest/gtest.h>

#include <random>
#include <set>

#include "core/ring_embedder.hpp"
#include "core/verify.hpp"
#include "fault/generators.hpp"

namespace starring {
namespace {

std::vector<VertexId> good_ring(const StarGraph& g) {
  const auto res = embed_hamiltonian_cycle(g);
  EXPECT_TRUE(res.has_value());
  return res->ring;
}

/// A longest healthy ring of S_n under n - 3 random vertex faults.
struct FaultyRing {
  FaultSet faults;
  std::vector<VertexId> ring;
};

FaultyRing faulty_ring(const StarGraph& g, std::uint64_t seed) {
  FaultyRing out{random_vertex_faults(g, g.n() - 3, seed), {}};
  const auto res = embed_longest_ring(g, out.faults);
  EXPECT_TRUE(res.has_value());
  if (res) out.ring = res->ring;
  return out;
}

/// The verifier's specification, spelled out with nothing but scalar
/// Perm::unrank, Perm::adjacent, FaultSet lookups and std::set: the
/// first out-of-range id, else the first repeat, else the first bad
/// step (faulty successor, non-adjacent, faulty edge), else a faulty
/// seq[0]; "" when the sequence is healthy.
std::string reference_defect(const StarGraph& g, const FaultSet& f,
                             const std::vector<VertexId>& seq, bool cyclic) {
  for (const VertexId id : seq)
    if (id >= g.num_vertices())
      return "vertex id out of range: " + std::to_string(id);
  std::set<VertexId> seen;
  for (const VertexId id : seq)
    if (!seen.insert(id).second)
      return "repeated vertex: " + g.vertex(id).to_string();
  const std::size_t steps = cyclic ? seq.size() : seq.size() - 1;
  for (std::size_t i = 0; i < steps; ++i) {
    const Perm a = g.vertex(seq[i]);
    const Perm b = g.vertex(seq[(i + 1) % seq.size()]);
    if (f.vertex_faulty(b)) return "faulty vertex on ring: " + b.to_string();
    if (!a.adjacent(b))
      return "non-adjacent step " + a.to_string() + " -> " + b.to_string();
    if (f.edge_faulty(a, b))
      return "faulty edge used: " + a.to_string() + " -- " + b.to_string();
  }
  if (f.vertex_faulty(g.vertex(seq[0])))
    return "faulty vertex on ring: " + g.vertex(seq[0]).to_string();
  return "";
}

/// Verifies `seq` at 1 and 4 threads: both must reject with the
/// reference message, which must contain `kind`.
void expect_rejected(const StarGraph& g, const FaultSet& f,
                     const std::vector<VertexId>& seq, const std::string& kind,
                     bool cyclic = true) {
  const std::string want = reference_defect(g, f, seq, cyclic);
  ASSERT_NE(want.find(kind), std::string::npos) << want;
  for (const unsigned threads : {1u, 4u}) {
    const auto rep = cyclic ? verify_healthy_ring(g, f, seq, threads)
                            : verify_healthy_path(g, f, seq, threads);
    EXPECT_FALSE(rep.valid) << "threads " << threads;
    EXPECT_EQ(rep.error, want) << "threads " << threads;
  }
}

TEST(Verify, AcceptsValidRing) {
  const StarGraph g(5);
  const auto rep = verify_healthy_ring(g, FaultSet{}, good_ring(g));
  EXPECT_TRUE(rep.valid) << rep.error;
  EXPECT_EQ(rep.length, 120u);
}

TEST(Verify, RejectsEmpty) {
  const StarGraph g(4);
  const auto rep = verify_healthy_ring(g, FaultSet{}, {});
  EXPECT_FALSE(rep.valid);
  // Degenerate input has a fixed message, independent of the adjacency
  // scan (and identical for the ring and path variants).
  EXPECT_EQ(rep.error, "empty sequence");
  EXPECT_EQ(rep.length, 0u);
  EXPECT_EQ(verify_healthy_path(g, FaultSet{}, {}).error, "empty sequence");
}

TEST(Verify, RejectsTooShortCycle) {
  const StarGraph g(4);
  const auto rep = verify_healthy_ring(g, FaultSet{}, {0, 1});
  EXPECT_FALSE(rep.valid);
  EXPECT_EQ(rep.error, "a cycle needs at least 3 vertices, got 2");
  const auto rep1 = verify_healthy_ring(g, FaultSet{}, {0});
  EXPECT_FALSE(rep1.valid);
  EXPECT_EQ(rep1.error, "a cycle needs at least 3 vertices, got 1");
}

TEST(Verify, TooShortCycleBeatsOtherDefects) {
  // Even when the short sequence also holds an out-of-range id, the
  // shape error wins: the scan must never touch the bad id.
  const StarGraph g(4);
  const auto rep =
      verify_healthy_ring(g, FaultSet{}, {0, factorial(4) + 7});
  EXPECT_FALSE(rep.valid);
  EXPECT_EQ(rep.error, "a cycle needs at least 3 vertices, got 2");
}

TEST(Verify, RejectsDuplicatesDeterministically) {
  // A two-vertex "path" that repeats one vertex: the duplicate check
  // reports it, not the adjacency scan (a vertex is not self-adjacent,
  // but the error must name the repetition).
  const StarGraph g(4);
  const auto rep = verify_healthy_path(g, FaultSet{}, {5, 5});
  EXPECT_FALSE(rep.valid);
  EXPECT_NE(rep.error.find("repeated vertex"), std::string::npos);
  // The first repeated occurrence is the one reported.
  auto ring = good_ring(g);
  ring[9] = ring[2];
  ring[15] = ring[4];
  const auto rep2 = verify_healthy_ring(g, FaultSet{}, ring);
  EXPECT_FALSE(rep2.valid);
  EXPECT_NE(rep2.error.find(g.vertex(ring[2]).to_string()),
            std::string::npos);
}

TEST(Verify, DuplicateCheckRunsAtAnyThreadCount) {
  const StarGraph g(5);
  auto ring = good_ring(g);
  ring[50] = ring[10];
  for (const unsigned threads : {1u, 4u}) {
    const auto rep = verify_healthy_ring(g, FaultSet{}, ring, threads);
    EXPECT_FALSE(rep.valid);
    EXPECT_NE(rep.error.find("repeated vertex"), std::string::npos);
  }
}

TEST(Verify, RejectsDuplicates) {
  const StarGraph g(5);
  auto ring = good_ring(g);
  ring[3] = ring[10];
  const auto rep = verify_healthy_ring(g, FaultSet{}, ring);
  EXPECT_FALSE(rep.valid);
  EXPECT_NE(rep.error.find("repeated"), std::string::npos);
}

TEST(Verify, RejectsOutOfRangeId) {
  const StarGraph g(4);
  auto ring = good_ring(g);
  ring[0] = factorial(4) + 1;
  const auto rep = verify_healthy_ring(g, FaultSet{}, ring);
  EXPECT_FALSE(rep.valid);
  EXPECT_NE(rep.error.find("out of range"), std::string::npos);
}

TEST(Verify, RejectsNonAdjacentStep) {
  const StarGraph g(5);
  auto ring = good_ring(g);
  std::swap(ring[2], ring[40]);
  const auto rep = verify_healthy_ring(g, FaultSet{}, ring);
  EXPECT_FALSE(rep.valid);
}

TEST(Verify, RejectsFaultyVertexOnRing) {
  const StarGraph g(5);
  const auto ring = good_ring(g);
  FaultSet f;
  f.add_vertex(g.vertex(ring[7]));
  const auto rep = verify_healthy_ring(g, f, ring);
  EXPECT_FALSE(rep.valid);
  EXPECT_NE(rep.error.find("faulty vertex"), std::string::npos);
}

TEST(Verify, RejectsFaultyEdgeOnRing) {
  const StarGraph g(5);
  const auto ring = good_ring(g);
  FaultSet f;
  f.add_edge(g.vertex(ring[4]), g.vertex(ring[5]));
  const auto rep = verify_healthy_ring(g, f, ring);
  EXPECT_FALSE(rep.valid);
  EXPECT_NE(rep.error.find("faulty edge"), std::string::npos);
}

TEST(Verify, WrapAroundEdgeIsChecked) {
  const StarGraph g(5);
  const auto ring = good_ring(g);
  FaultSet f;
  f.add_edge(g.vertex(ring.back()), g.vertex(ring.front()));
  const auto rep = verify_healthy_ring(g, f, ring);
  EXPECT_FALSE(rep.valid);
}

TEST(Verify, PathVariantAcceptsOpenPath) {
  const StarGraph g(5);
  auto ring = good_ring(g);
  // Drop the last vertex: still a valid open path even though the ends
  // may not be adjacent.
  ring.pop_back();
  const auto rep = verify_healthy_path(g, FaultSet{}, ring);
  EXPECT_TRUE(rep.valid) << rep.error;
}

TEST(Verify, PathVariantSingleVertex) {
  const StarGraph g(4);
  const auto rep = verify_healthy_path(g, FaultSet{}, {5});
  EXPECT_TRUE(rep.valid);
  EXPECT_EQ(rep.length, 1u);
}

TEST(Verify, PathVariantRejectsFaultyInterior) {
  const StarGraph g(4);
  const Perm p = g.vertex(3);
  const Perm q = p.star_move(1);
  FaultSet f;
  f.add_vertex(q);
  const auto rep =
      verify_healthy_path(g, f, {p.rank(), q.rank(), q.star_move(2).rank()});
  EXPECT_FALSE(rep.valid);
}

TEST(Verify, AcceptsS3SixCycle) {
  const StarGraph sg(3);
  // Walk the 6-cycle from the identity.
  std::vector<VertexId> ring;
  Perm p = Perm::identity(3);
  int dim = 1;
  for (int i = 0; i < 6; ++i) {
    ring.push_back(p.rank());
    p = p.star_move(dim);
    dim = dim == 1 ? 2 : 1;
  }
  EXPECT_TRUE(verify_healthy_ring(sg, FaultSet{}, ring).valid);
}

TEST(Verify, FaultFreeRejectsBadInput) {
  const StarGraph sg(4);
  const FaultSet none;
  EXPECT_FALSE(verify_healthy_ring(sg, none, {0, 1}).valid);     // too short
  EXPECT_FALSE(verify_healthy_ring(sg, none, {0, 1, 1}).valid);  // repeat
  EXPECT_FALSE(  // out of range
      verify_healthy_ring(sg, none, {0, 1, factorial(4) + 5}).valid);
}

TEST(Verify, AcceptsFaultyRingsAtAnyThreadCount) {
  for (const int n : {7, 8}) {
    const StarGraph g(n);
    const FaultyRing fr = faulty_ring(g, 11);
    ASSERT_EQ(fr.ring.size(), factorial(n) - 2 * (n - 3));
    for (const unsigned threads : {1u, 4u}) {
      const auto rep = verify_healthy_ring(g, fr.faults, fr.ring, threads);
      EXPECT_TRUE(rep.valid) << rep.error;
    }
    // Every prefix is a healthy path, whatever chunk boundary it ends on.
    for (const std::size_t len : {1ul, 1023ul, 1024ul, 1025ul, 2049ul}) {
      const std::vector<VertexId> path(fr.ring.begin(), fr.ring.begin() + len);
      for (const unsigned threads : {1u, 4u})
        EXPECT_TRUE(verify_healthy_path(g, fr.faults, path, threads).valid);
    }
  }
}

// Each defect kind at the first vertex, both sides of the first chunk
// boundary, the last vertex and the closing edge of n=7 and n=8 rings.
TEST(Verify, DefectsAtChunkBoundariesAndClosingEdge) {
  for (const int n : {7, 8}) {
    const StarGraph g(n);
    const FaultyRing fr = faulty_ring(g, 5);
    const std::vector<VertexId>& ring = fr.ring;
    const std::size_t L = ring.size();
    for (const std::size_t pos : {std::size_t{0}, std::size_t{1023},
                                  std::size_t{1024}, L - 1}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " pos=" + std::to_string(pos));
      auto bad = ring;
      bad[pos] = g.num_vertices() + 5;
      expect_rejected(g, fr.faults, bad, "out of range");

      bad = ring;
      bad[pos] = ring[(pos + 7) % L];
      expect_rejected(g, fr.faults, bad, "repeated vertex");

      FaultSet f = fr.faults;
      f.add_vertex(g.vertex(ring[pos]));
      expect_rejected(g, f, ring, "faulty vertex");

      // A same-parity swap with a far vertex breaks adjacency only.
      bad = ring;
      std::swap(bad[pos], bad[(pos + 100) % L]);
      expect_rejected(g, fr.faults, bad, "non-adjacent step");

      f = fr.faults;
      f.add_edge(g.vertex(ring[pos]), g.vertex(ring[(pos + 1) % L]));
      expect_rejected(g, f, ring, "faulty edge");
    }
    SCOPED_TRACE("n=" + std::to_string(n) + " closing edge");
    // Dropping the last vertex leaves a healthy path whose closing edge
    // joins two vertices of the same parity: never adjacent.
    const std::vector<VertexId> open(ring.begin(), ring.end() - 1);
    expect_rejected(g, fr.faults, open, "non-adjacent step");
    EXPECT_EQ(verify_healthy_ring(g, fr.faults, open).error,
              "non-adjacent step " + g.vertex(open.back()).to_string() +
                  " -> " + g.vertex(open.front()).to_string());
    FaultSet f = fr.faults;
    f.add_edge(g.vertex(ring.back()), g.vertex(ring.front()));
    expect_rejected(g, f, ring, "faulty edge");
    f = fr.faults;
    f.add_vertex(g.vertex(ring.front()));
    expect_rejected(g, f, ring, "faulty vertex");
  }
}

// With two defects the report names the one that comes first in the
// order range, repeat, first bad step, faulty seq[0].
TEST(Verify, TwoDefectsReportTheFirstInOrder) {
  const StarGraph g(7);
  const FaultyRing fr = faulty_ring(g, 9);
  const auto& ring = fr.ring;

  auto bad = ring;
  bad[3000] = g.num_vertices();  // range beats an earlier repeat
  bad[10] = ring[20];
  expect_rejected(g, fr.faults, bad, "vertex id out of range");

  bad = ring;
  bad[2000] = ring[2500];  // repeat beats an earlier non-adjacent step
  std::swap(bad[5], bad[105]);
  expect_rejected(g, fr.faults, bad, "repeated vertex");

  FaultSet f = fr.faults;  // an earlier bad step beats a later fault
  f.add_vertex(g.vertex(ring[3000]));
  bad = ring;
  std::swap(bad[100], bad[200]);
  expect_rejected(g, f, bad, "non-adjacent step " +
                                 g.vertex(ring[99]).to_string() + " -> ");

  // On a path, a faulty seq[0] is reported only after every step.
  f = fr.faults;
  f.add_vertex(g.vertex(ring[0]));
  bad.assign(ring.begin(), ring.end() - 1);
  std::swap(bad[2000], bad[2100]);
  expect_rejected(g, f, bad, "non-adjacent step", /*cyclic=*/false);
  bad.assign(ring.begin(), ring.end() - 1);
  expect_rejected(g, f, bad, "faulty vertex on ring: " +
                                 g.vertex(ring[0]).to_string(),
                  /*cyclic=*/false);
}

// S_n has girth 6, so no replacement vertex is adjacent to both ring
// neighbours of the one it replaces: every single-vertex corruption of
// a longest ring must be rejected.
TEST(Verify, RandomSingleVertexCorruptionsAreRejected) {
  const StarGraph g(7);
  const FaultyRing fr = faulty_ring(g, 3);
  std::mt19937_64 rng(20260417);
  std::uniform_int_distribution<std::size_t> pos(0, fr.ring.size() - 1);
  std::uniform_int_distribution<VertexId> id(0, g.num_vertices() + 100);
  for (int trial = 0; trial < 200; ++trial) {
    auto bad = fr.ring;
    const std::size_t i = pos(rng);
    do bad[i] = id(rng);
    while (bad[i] == fr.ring[i]);
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::string want = reference_defect(g, fr.faults, bad, true);
    ASSERT_FALSE(want.empty());
    for (const unsigned threads : {1u, 4u}) {
      const auto rep = verify_healthy_ring(g, fr.faults, bad, threads);
      EXPECT_FALSE(rep.valid);
      EXPECT_EQ(rep.error, want);
    }
  }
}

}  // namespace
}  // namespace starring
