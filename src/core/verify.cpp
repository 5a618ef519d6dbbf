#include "core/verify.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "perm/simd.hpp"
#include "util/parallel.hpp"

namespace starring {

namespace {

/// Vertices per chunk: one batch_unrank call, one stack buffer.
constexpr std::size_t kChunk = 1024;

/// Star adjacency of two valid packed permutations of the same S_n.
/// Two permutations that differ in exactly two slots differ by swapping
/// them, so the test is: exactly two nibbles differ, one of them slot 0.
inline bool star_adjacent(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t d = a ^ b;
  const std::uint64_t slots =
      (d | d >> 1 | d >> 2 | d >> 3) & 0x1111111111111111ULL;
  return (slots & 1) != 0 && std::popcount(slots) == 2;
}

inline bool test_bit(const std::vector<std::uint64_t>& bits, VertexId id) {
  return (bits[id >> 6] >> (id & 63)) & 1;
}

inline void set_bit(std::vector<std::uint64_t>& bits, VertexId id) {
  bits[id >> 6] |= std::uint64_t{1} << (id & 63);
}

/// One sequence under verification.  Step i joins seq[i] to
/// seq[(i + 1) % L]; a cycle has L steps, a path L - 1.
struct Walk {
  const StarGraph& g;
  const FaultSet& faults;
  const std::vector<VertexId>& seq;
  std::size_t steps;
  /// Ranks of the vertex faults of this S_n (at most n - 3 of them).
  std::vector<VertexId> fault_ranks;

  Walk(const StarGraph& g_, const FaultSet& f, const std::vector<VertexId>& s,
       bool cyclic)
      : g(g_), faults(f), seq(s), steps(cyclic ? s.size() : s.size() - 1) {
    for (const Perm& p : faults.vertex_faults())
      if (p.size() == g.n()) fault_ranks.push_back(p.rank());
  }

  /// End of the steps a chunk of vertices [lo, hi) owns.
  std::size_t step_end(std::size_t hi) const { return std::min(hi, steps); }

  /// Unranks seq[lo, hi) into out[0, hi - lo), plus the successor of
  /// the chunk's last step (seq[hi], or seq[0] on the closing edge) when
  /// that step exists.  Every id read must be in range.
  void unrank(std::size_t lo, std::size_t hi, std::uint64_t* out) const {
    simd::batch_unrank(seq.data() + lo, hi - lo, g.n(), out);
    if (step_end(hi) == hi)
      simd::batch_unrank(&seq[hi % seq.size()], 1, g.n(), out + (hi - lo));
  }

  bool edge_faulty(std::uint64_t a, std::uint64_t b) const {
    return faults.edge_faulty(Perm::from_packed(a, g.n()),
                              Perm::from_packed(b, g.n()));
  }

  /// The fast check of vertices [lo, hi) and their steps: false on any
  /// defect.  `seen` holds the fault ranks and every vertex marked so
  /// far, so an already-set bit is a repeat or a fault; `shared` marks
  /// it with atomic fetch_or because other chunks run concurrently.
  bool chunk_ok(std::size_t lo, std::size_t hi, std::vector<std::uint64_t>& seen,
                bool shared) const {
    const VertexId nv = g.num_vertices();
    bool in_range = true;
    for (std::size_t i = lo; i < hi; ++i) in_range &= seq[i] < nv;
    const std::size_t end = step_end(hi);
    if (end == hi) in_range &= seq[hi % seq.size()] < nv;
    if (!in_range) return false;

    for (std::size_t i = lo; i < hi; ++i) {
      std::uint64_t& word = seen[seq[i] >> 6];
      const std::uint64_t bit = std::uint64_t{1} << (seq[i] & 63);
      const std::uint64_t old =
          shared ? std::atomic_ref<std::uint64_t>(word).fetch_or(
                       bit, std::memory_order_relaxed)
                 : std::exchange(word, word | bit);
      if (old & bit) return false;
    }

    std::uint64_t v[kChunk + 1];
    unrank(lo, hi, v);
    bool adjacent = true;
    for (std::size_t k = 0; k < end - lo; ++k)
      adjacent &= star_adjacent(v[k], v[k + 1]);
    if (!adjacent) return false;
    if (faults.num_edge_faults() != 0)
      for (std::size_t k = 0; k < end - lo; ++k)
        if (edge_faulty(v[k], v[k + 1])) return false;
    return true;
  }

  /// True iff no chunk finds a defect.  The verdict does not depend on
  /// `threads`: every id, repeat, fault and step is checked by exactly
  /// one chunk, and of two equal ids exactly one fetch_or sees the
  /// other's bit.
  bool fast_ok(unsigned threads) const {
    std::vector<std::uint64_t> seen((g.num_vertices() + 63) / 64, 0);
    for (const VertexId r : fault_ranks) set_bit(seen, r);
    const std::size_t chunks = (seq.size() + kChunk - 1) / kChunk;
    std::atomic<bool> bad{false};
    parallel_for(0, chunks, threads, [&](std::size_t c) {
      if (bad.load(std::memory_order_relaxed)) return;
      const std::size_t lo = c * kChunk;
      const std::size_t hi = std::min(seq.size(), lo + kChunk);
      if (!chunk_ok(lo, hi, seen, /*shared=*/threads > 1))
        bad.store(true, std::memory_order_relaxed);
    });
    return !bad.load();
  }

  bool vertex_fault(VertexId id) const {
    return std::find(fault_ranks.begin(), fault_ranks.end(), id) !=
           fault_ranks.end();
  }

  /// The first defect in the reporting order — out-of-range id, then
  /// repeated vertex, then the first bad step, then seq[0]'s own fault —
  /// with its error message.  Sequential; runs only after a reject.
  std::string first_defect() const {
    const VertexId nv = g.num_vertices();
    for (const VertexId id : seq)
      if (id >= nv) return "vertex id out of range: " + std::to_string(id);

    std::vector<std::uint64_t> seen((nv + 63) / 64, 0);
    for (const VertexId id : seq) {
      if (test_bit(seen, id))
        return "repeated vertex: " + g.vertex(id).to_string();
      set_bit(seen, id);
    }

    std::uint64_t v[kChunk + 1];
    for (std::size_t lo = 0; lo < steps; lo += kChunk) {
      const std::size_t hi = std::min(seq.size(), lo + kChunk);
      unrank(lo, hi, v);
      for (std::size_t i = lo; i < step_end(hi); ++i) {
        const std::uint64_t a = v[i - lo];
        const std::uint64_t b = v[i - lo + 1];
        auto str = [&](std::uint64_t p) {
          return Perm::from_packed(p, g.n()).to_string();
        };
        if (vertex_fault(seq[(i + 1) % seq.size()]))
          return "faulty vertex on ring: " + str(b);
        if (!star_adjacent(a, b))
          return "non-adjacent step " + str(a) + " -> " + str(b);
        if (edge_faulty(a, b))
          return "faulty edge used: " + str(a) + " -- " + str(b);
      }
    }
    if (vertex_fault(seq[0]))
      return "faulty vertex on ring: " + g.vertex(seq[0]).to_string();
    return {};
  }
};

RingReport verify_sequence(const StarGraph& g, const FaultSet& faults,
                           const std::vector<VertexId>& seq, bool cyclic,
                           unsigned threads) {
  obs::ScopedPhase phase("verify");
  obs::trace::ScopedSpan span("verify");
  obs::counter("verify.calls").add();
  RingReport rep;
  rep.length = seq.size();
  // Degenerate shapes are rejected up front with fixed messages — the
  // chunk scan below must never be what trips on them.
  if (seq.empty()) {
    rep.error = "empty sequence";
    return rep;
  }
  if (cyclic && seq.size() < 3) {
    rep.error = "a cycle needs at least 3 vertices, got " +
                std::to_string(seq.size());
    return rep;
  }
  const Walk walk(g, faults, seq, cyclic);
  if (walk.fast_ok(threads)) {
    rep.valid = true;
    return rep;
  }
  rep.error = walk.first_defect();
  assert(!rep.error.empty() && "fast pass rejected a sequence with no defect");
  rep.valid = rep.error.empty();
  return rep;
}

}  // namespace

RingReport verify_healthy_ring(const StarGraph& g, const FaultSet& faults,
                               const std::vector<VertexId>& ring,
                               unsigned threads) {
  RingReport rep = verify_sequence(g, faults, ring, /*cyclic=*/true, threads);
  if (!rep.valid) obs::counter("verify.rejects").add();
  return rep;
}

RingReport verify_healthy_path(const StarGraph& g, const FaultSet& faults,
                               const std::vector<VertexId>& path,
                               unsigned threads) {
  RingReport rep = verify_sequence(g, faults, path, /*cyclic=*/false, threads);
  if (!rep.valid) obs::counter("verify.rejects").add();
  return rep;
}

}  // namespace starring
