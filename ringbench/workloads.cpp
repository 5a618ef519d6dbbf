// Seeded request streams.  Every request is generated here, in the
// client; the daemons see only the encoded bytes.
//
//   miss_n7         closed loop, one connection to one starringd: n=7,
//                   |Fv|=4, a fresh canonical class per request (always
//                   a cache miss), verify 1.
//   hit_n7          same connection shape; set-up computes 8 classes at
//                   n=7, |Fv|=4, and each timed request is a fresh random
//                   symbol relabeling of one of them (new bytes, same
//                   canonical class: a cache hit), verify 0.
//   open_mix_proxy  open loop, Poisson arrivals at 50 req/s in total,
//                   through starring-proxy to two shards.  Tenant `hot`
//                   (25 req/s): zipf(1.1) over 64 classes at n in {5,6},
//                   each request relabeled.  Tenant `scan` (25 req/s):
//                   n=6, |Fv|=3, a fresh class per request.  Shard caches
//                   hold 128 rings, far below the scan's class count.
//
// The closed loops run at n=7, not n=8: an n=8 response takes ~0.3-0.4 s
// to transmit today, so a 30 s run holds ~80 requests, and their medians
// differed by up to 30% from run to run; at n=7 (~47 ms, ~850 requests
// in a 40 s run) they agree within about 5%.
#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <sstream>
#include <unordered_set>

#include "perm/factorial.hpp"
#include "perm/permutation.hpp"
#include "ringbench.hpp"
#include "service/canonical.hpp"

namespace ringbench {
namespace {

using starring::FaultSet;
using starring::Perm;

constexpr double kOpenRate = 50.0;        // req/s over both tenants
constexpr double kOpenSloMs = 50.0;
constexpr int kClosedN = 7;               // miss_n7, hit_n7: n=7, |Fv|=4
constexpr double kClosedSloMs = 1000.0;   // ~20x today's n=7 latency
constexpr std::size_t kHotClasses = 64;
constexpr double kZipfS = 1.1;
constexpr std::size_t kClusterCacheCapacity = 128;
constexpr std::size_t kHitClasses = 8;
// open_mix_proxy set-up: lanes sent in parallel (the last two carry
// the scan fill), and the scan classes sent, 1.5x the probation
// segments of both shards' caches together.
constexpr std::size_t kWarmLanes = 6;
constexpr std::size_t kScanFill = 96;

// Warm-up ids live far from timed ids so a stray late response can
// never be taken for a timed one.
constexpr std::uint64_t kWarmupIdBase = 1'000'000'000;

/// SplitMix64 step: decorrelates the (seed, tag) pairs that key each
/// generator's own engine.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t tag) : eng_(mix(seed ^ mix(tag))) {}
  std::uint64_t below(std::uint64_t k) { return eng_() % k; }
  double uniform() {  // [0, 1)
    return static_cast<double>(eng_() >> 11) * 0x1.0p-53;
  }
  Perm perm(int n) { return Perm::unrank(below(starring::factorial(n)), n); }

 private:
  std::mt19937_64 eng_;
};

FaultSet random_faults(Rng& rng, int n, int count) {
  FaultSet f;
  while (static_cast<int>(f.num_vertex_faults()) < count)
    f.add_vertex(rng.perm(n));
  return f;
}

/// Canonical keys already handed out in one plan, so "fresh" classes
/// stay fresh across the set-up, the timed streams and both tenants.
using KeySet = std::shared_ptr<std::unordered_set<std::string>>;

FaultSet fresh_class(Rng& rng, int n, int count, KeySet& used) {
  while (true) {
    FaultSet f = random_faults(rng, n, count);
    if (used->insert(starring::canonicalize(n, f).key).second) return f;
  }
}

/// Encode `r` (id, n, faults, verify, tenant) into r.wire.
void encode(Request& r) {
  starring::ServiceRequest q;
  q.id = r.id;
  q.n = r.n;
  q.faults = r.faults;
  q.verify = r.verify;
  q.tenant = r.tenant;
  std::ostringstream os;
  starring::write_request(os, q);
  r.wire = os.str();
}

Request make_request(std::uint64_t id, int n, FaultSet faults, bool verify,
                     const std::string& tenant) {
  Request r;
  r.id = id;
  r.n = n;
  r.faults = std::move(faults);
  r.verify = verify;
  r.tenant = tenant;
  encode(r);
  return r;
}

/// A fresh canonical class per request (miss_n7, the scan tenant).
class FreshStream : public Stream {
 public:
  FreshStream(std::uint64_t seed, std::uint64_t tag, int n, int faults,
              bool verify, std::string tenant, KeySet used)
      : rng_(seed, tag), n_(n), faults_(faults), verify_(verify),
        tenant_(std::move(tenant)), used_(std::move(used)) {}

  Request next() override {
    return make_request(++id_, n_, fresh_class(rng_, n_, faults_, used_),
                        verify_, tenant_);
  }

 private:
  Rng rng_;
  int n_, faults_;
  bool verify_;
  std::string tenant_;
  KeySet used_;
  std::uint64_t id_ = 0;
};

/// Fresh random relabelings of a fixed set of classes, the class drawn
/// from a zipf(s) law over its rank (s = 0: uniform).
class RelabelStream : public Stream {
 public:
  RelabelStream(std::uint64_t seed, std::uint64_t tag,
                std::vector<Request> classes, double zipf_s, std::string tenant)
      : rng_(seed, tag), classes_(std::move(classes)), tenant_(std::move(tenant)) {
    double total = 0.0;
    for (std::size_t k = 1; k <= classes_.size(); ++k) {
      total += 1.0 / std::pow(static_cast<double>(k), zipf_s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  Request next() override {
    const double u = rng_.uniform();
    const std::size_t k = static_cast<std::size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    const Request& base = classes_[std::min(k, classes_.size() - 1)];
    return make_request(++id_, base.n, base.faults.relabeled(rng_.perm(base.n)),
                        /*verify=*/false, tenant_);
  }

 private:
  Rng rng_;
  std::vector<Request> classes_;
  std::vector<double> cdf_;
  std::string tenant_;
  std::uint64_t id_ = 0;
};

// Generator tags: one engine per (purpose), so adding a draw to one
// stream never shifts another.
enum Tag : std::uint64_t {
  kTagMissWarm = 1, kTagMissTimed, kTagHitClasses, kTagHitTimed,
  kTagHotClasses, kTagHotWarm, kTagHotTimed, kTagScanWarm, kTagScanTimed,
  kTagArrivals  // + stream index
};

WorkloadPlan plan_miss(std::uint64_t seed) {
  WorkloadPlan p;
  p.slo_ms = kClosedSloMs;
  auto used = std::make_shared<std::unordered_set<std::string>>();
  // Set-up: one miss, which also warms the daemon's block-path oracle.
  Rng warm_rng(seed, kTagMissWarm);
  p.warmup = {{make_request(kWarmupIdBase, kClosedN,
                            fresh_class(warm_rng, kClosedN, kClosedN - 3, used),
                            /*verify=*/true, "")}};
  p.streams.push_back(std::make_unique<FreshStream>(
      seed, kTagMissTimed, kClosedN, kClosedN - 3, /*verify=*/true, "", used));
  return p;
}

WorkloadPlan plan_hit(std::uint64_t seed) {
  WorkloadPlan p;
  p.slo_ms = kClosedSloMs;
  auto used = std::make_shared<std::unordered_set<std::string>>();
  Rng rng(seed, kTagHitClasses);
  std::vector<Request> classes;
  for (std::size_t i = 0; i < kHitClasses; ++i)
    classes.push_back(make_request(kWarmupIdBase + i, kClosedN,
                                   fresh_class(rng, kClosedN, kClosedN - 3, used),
                                   /*verify=*/false, ""));
  // Set-up computes every class, one lane each.
  for (const Request& c : classes) p.warmup.push_back({c});
  p.streams.push_back(std::make_unique<RelabelStream>(
      seed, kTagHitTimed, std::move(classes), /*zipf_s=*/0.0, ""));
  return p;
}

WorkloadPlan plan_open_mix(std::uint64_t seed) {
  WorkloadPlan p;
  p.rates = {kOpenRate / 2, kOpenRate / 2};  // hot, scan
  p.slo_ms = kOpenSloMs;
  p.shards = 2;
  p.shard_cache_capacity = kClusterCacheCapacity;
  p.shard_flags = {"--cache-capacity", std::to_string(kClusterCacheCapacity)};
  auto used = std::make_shared<std::unordered_set<std::string>>();

  Rng class_rng(seed, kTagHotClasses);
  std::vector<Request> hot;
  for (std::size_t i = 0; i < kHotClasses; ++i) {
    const int n = i % 2 == 0 ? 5 : 6;
    hot.push_back(make_request(0, n, fresh_class(class_rng, n, n - 3, used),
                               false, "hot"));
  }
  // Set-up: three relabeled passes over the hot set (the second touch
  // promotes a class in the segmented LRU; the third ok answer makes
  // the proxy seed its replica), then scan classes enough to overflow
  // every shard's probation segment, so eviction runs from the first
  // timed request.
  p.warmup.resize(kWarmLanes);
  Rng hot_rng(seed, kTagHotWarm);
  std::uint64_t id = kWarmupIdBase;
  for (int pass = 0; pass < 3; ++pass)
    for (std::size_t i = 0; i < hot.size(); ++i)
      p.warmup[i % (kWarmLanes - 2)].push_back(make_request(
          ++id, hot[i].n, hot[i].faults.relabeled(hot_rng.perm(hot[i].n)),
          false, "hot"));
  Rng scan_rng(seed, kTagScanWarm);
  for (std::size_t i = 0; i < kScanFill; ++i)
    p.warmup[kWarmLanes - 2 + i % 2].push_back(make_request(
        ++id, 6, fresh_class(scan_rng, 6, 3, used), false, "scan"));

  p.streams.push_back(std::make_unique<RelabelStream>(
      seed, kTagHotTimed, std::move(hot), kZipfS, "hot"));
  p.streams.push_back(std::make_unique<FreshStream>(
      seed, kTagScanTimed, 6, 3, false, "scan", used));
  return p;
}

}  // namespace

std::vector<double> arrival_times(std::uint64_t seed, std::size_t stream,
                                  double rate, double seconds) {
  Rng rng(seed, kTagArrivals + stream);
  std::vector<double> t(static_cast<std::size_t>(std::llround(rate * seconds)));
  for (double& x : t) x = rng.uniform() * seconds;
  std::sort(t.begin(), t.end());
  return t;
}

WorkloadPlan make_plan(const std::string& workload, std::uint64_t seed) {
  WorkloadPlan p;
  if (workload == "miss_n7")
    p = plan_miss(seed);
  else if (workload == "hit_n7")
    p = plan_hit(seed);
  else if (workload == "open_mix_proxy")
    p = plan_open_mix(seed);
  else
    throw BenchError("unknown workload " + workload);
  p.seed = seed;
  return p;
}

}  // namespace ringbench
