// Independent embedding verifier.
//
// Every ring the library emits is checked by code that shares nothing
// with the construction beyond the fault set.  Its one kernel,
// simd::batch_unrank, is never called by the construction, and
// tests/test_simd.cpp holds it to scalar Perm::unrank on every
// permutation for n <= 8.  Tests and benches route all results through
// here, so a bug in the partition/super-ring/chaining machinery cannot
// silently produce a wrong "ring".
//
// One pass over chunks of 1024 ids does every check: a range test; one
// n!-bit seen bitmap, pre-set at the fault ranks, so a set bit is a
// repeat or a faulty vertex; one batch_unrank per chunk; adjacency as
// "exactly two nibbles differ, one of them slot 0" on the packed bits;
// and the hashed edge-fault lookup per step when Fe is non-empty.  Only
// a rejected sequence gets a second, sequential pass that finds the
// first offender and words the error.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "stargraph/star_graph.hpp"

namespace starring {

struct RingReport {
  bool valid = false;
  /// Human-readable reason when !valid.
  std::string error;
  /// Number of vertices on the ring.
  std::uint64_t length = 0;
};

/// Check that `ring` is a simple cycle of S_n that touches no faulty
/// vertex and uses no faulty edge.  `threads` spreads the chunks over
/// the worker pool (the verdict and the error are identical for any
/// value).
RingReport verify_healthy_ring(const StarGraph& g, const FaultSet& faults,
                               const std::vector<VertexId>& ring,
                               unsigned threads = 1);

/// Check that `path` is a simple healthy path of S_n.
RingReport verify_healthy_path(const StarGraph& g, const FaultSet& faults,
                               const std::vector<VertexId>& path,
                               unsigned threads = 1);

}  // namespace starring
