// Cluster placement + routing unit tests: the FNV-1a test vectors, the
// shard-map grammar, the consistent-hash ring's balance / minimal-
// disruption / replica-set properties, endpoint parsing, and the
// circuit-breaker state machine, fed by data-path outcomes and by SWIM
// membership verdicts (driven with injected time — no sleeps).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/membership.hpp"
#include "cluster/router.hpp"
#include "cluster/shard_map.hpp"
#include "obs/metrics.hpp"
#include "util/net.hpp"

namespace starring::cluster {
namespace {

std::string map_text(int shards, int replication = 2, int vnodes = 128) {
  std::ostringstream os;
  os << "starring-shard-map v1\n"
     << "epoch 7\n"
     << "replication " << replication << "\n"
     << "vnodes " << vnodes << "\n"
     << "shards " << shards << "\n";
  for (int i = 0; i < shards; ++i)
    os << "shard " << i << " 127.0.0.1:" << (47181 + i) << "\n";
  os << "end\n";
  return os.str();
}

ShardMap parse_or_die(const std::string& text) {
  std::istringstream is(text);
  std::string err;
  const auto m = ShardMap::parse(is, &err);
  EXPECT_TRUE(m.has_value()) << err;
  return *m;
}

std::string key_for(int i) { return "class-" + std::to_string(i); }

TEST(Fnv, PublishedTestVectors) {
  // Offset basis and the canonical fnv.isthe.com vectors — pins the
  // constants so placement can never silently drift across builds.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
  // And the finalized placement hash, so ring positions can never
  // silently drift either (mix64 is murmur3's fmix64).
  EXPECT_EQ(place_hash(""), 0xefd01f60ba992926ull);
  EXPECT_EQ(mix64(0), 0u);
}

TEST(ShardMapParse, FullRecordRoundTrips) {
  const ShardMap m = parse_or_die(map_text(3));
  EXPECT_EQ(m.epoch(), 7u);
  EXPECT_EQ(m.replication(), 2);
  EXPECT_EQ(m.vnodes(), 128);
  ASSERT_EQ(m.shards().size(), 3u);
  EXPECT_EQ(m.shards()[1].id, 1);
  EXPECT_EQ(m.shards()[1].endpoint.port, 47182);
  const ShardMap again = parse_or_die(m.to_text());
  EXPECT_EQ(again.epoch(), m.epoch());
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(again.owner(key_for(i)), m.owner(key_for(i)));
}

TEST(ShardMapParse, ScalarsAreOptionalWithDefaults) {
  const ShardMap m = parse_or_die(
      "starring-shard-map v1\n"
      "shards 2\n"
      "shard 0 127.0.0.1:1\n"
      "shard 5 127.0.0.1:2\n"
      "end\n");
  EXPECT_EQ(m.epoch(), 1u);
  EXPECT_EQ(m.replication(), 2);
  EXPECT_EQ(m.vnodes(), 128);
  ASSERT_NE(m.find(5), nullptr);
  EXPECT_EQ(m.find(5)->endpoint.port, 2);
  EXPECT_EQ(m.find(3), nullptr);
}

TEST(ShardMapParse, RejectsMalformedRecords) {
  const char* bad[] = {
      "starring-shard-map v2\nshards 1\nshard 0 127.0.0.1:1\nend\n",
      "starring-shard-map v1\nshards 2\nshard 0 127.0.0.1:1\n"
      "shard 0 127.0.0.1:2\nend\n",  // duplicate id
      "starring-shard-map v1\nreplication 3\nshards 2\n"
      "shard 0 127.0.0.1:1\nshard 1 127.0.0.1:2\nend\n",  // R > shards
      "starring-shard-map v1\nreplication 0\nshards 1\n"
      "shard 0 127.0.0.1:1\nend\n",
      "starring-shard-map v1\nshards 1\nshard 0 notaport\nend\n",
      "starring-shard-map v1\nshards 1\nshard 0 127.0.0.1:1\n",  // no end
      "starring-shard-map v1\nshards 0\nend\n",
  };
  for (const char* text : bad) {
    std::istringstream is(text);
    std::string err;
    EXPECT_FALSE(ShardMap::parse(is, &err).has_value()) << text;
    EXPECT_FALSE(err.empty()) << text;
  }
}

TEST(ShardMapRing, BalancesKeysAcrossEightShards) {
  const ShardMap m = parse_or_die(map_text(8));
  std::map<int, int> per_shard;
  const int kKeys = 10000;
  for (int i = 0; i < kKeys; ++i) per_shard[m.owner(key_for(i))]++;
  ASSERT_EQ(per_shard.size(), 8u) << "every shard must own some keys";
  const double expect = kKeys / 8.0;
  for (const auto& [id, count] : per_shard) {
    EXPECT_GE(count, expect * 0.85) << "shard " << id << " underloaded";
    EXPECT_LE(count, expect * 1.15) << "shard " << id << " overloaded";
  }
}

TEST(ShardMapRing, RemovalMovesOnlyTheRemovedShardsKeys) {
  // The minimal-disruption property: vnode points depend only on the
  // shard's own id, so dropping shard 3 leaves every other point in
  // place — a key moves iff shard 3 owned it.
  const ShardMap before = parse_or_die(map_text(8));
  const ShardMap after = before.without(3);
  ASSERT_EQ(after.shards().size(), 7u);
  EXPECT_EQ(after.epoch(), before.epoch() + 1);
  const int kKeys = 10000;
  int moved = 0;
  for (int i = 0; i < kKeys; ++i) {
    const std::string k = key_for(i);
    if (before.owner(k) == 3) {
      EXPECT_NE(after.owner(k), 3);
      ++moved;
    } else {
      EXPECT_EQ(after.owner(k), before.owner(k)) << k;
    }
  }
  // ~1/8 of keys lived on the removed shard; comfortably under the
  // 2/N disruption bound the design promises.
  EXPECT_LT(moved, 2 * kKeys / 8);
  EXPECT_GT(moved, 0);
}

TEST(ShardMapRing, ReplicaSetsAreDistinctAndOwnerFirst) {
  const ShardMap m = parse_or_die(map_text(8, /*replication=*/3));
  for (int i = 0; i < 1000; ++i) {
    const std::string k = key_for(i);
    const auto reps = m.replicas(k);
    ASSERT_EQ(reps.size(), 3u);
    EXPECT_EQ(reps[0], m.owner(k));
    EXPECT_EQ(std::set<int>(reps.begin(), reps.end()).size(), reps.size());
  }
}

TEST(ShardMapRing, ReplicationClampsToShardCount) {
  const ShardMap m = parse_or_die(map_text(2, /*replication=*/2));
  const auto reps = m.replicas("anything");
  ASSERT_EQ(reps.size(), 2u);
  EXPECT_NE(reps[0], reps[1]);
}

TEST(ShardMapRing, AllCandidatesIsAPermutationWithReplicaPrefix) {
  const ShardMap m = parse_or_die(map_text(8, /*replication=*/3));
  for (int i = 0; i < 200; ++i) {
    const std::string k = key_for(i);
    const auto all = m.all_candidates(k);
    ASSERT_EQ(all.size(), 8u);
    EXPECT_EQ(std::set<int>(all.begin(), all.end()).size(), 8u);
    const auto reps = m.replicas(k);
    ASSERT_LE(reps.size(), all.size());
    for (std::size_t j = 0; j < reps.size(); ++j)
      EXPECT_EQ(all[j], reps[j]) << k;
  }
}

TEST(ShardMapRing, PlacementIsIndependentOfFileOrder) {
  // Two maps listing the same shards in different order must place
  // every key identically — cross-process determinism is what lets a
  // failover test compute the owner without asking the proxy.
  const ShardMap a = parse_or_die(
      "starring-shard-map v1\nshards 3\n"
      "shard 0 127.0.0.1:1\nshard 1 127.0.0.1:2\nshard 2 127.0.0.1:3\n"
      "end\n");
  const ShardMap b = parse_or_die(
      "starring-shard-map v1\nshards 3\n"
      "shard 2 127.0.0.1:3\nshard 0 127.0.0.1:1\nshard 1 127.0.0.1:2\n"
      "end\n");
  for (int i = 0; i < 2000; ++i) {
    const std::string k = key_for(i);
    EXPECT_EQ(a.owner(k), b.owner(k)) << k;
    EXPECT_EQ(a.replicas(k), b.replicas(k)) << k;
  }
}

TEST(EndpointParse, AcceptsPortAndHostPortForms) {
  const auto bare = net::parse_endpoint("47181");
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare->host, "127.0.0.1");
  EXPECT_EQ(bare->port, 47181);
  const auto full = net::parse_endpoint("10.0.0.2:80");
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->host, "10.0.0.2");
  EXPECT_EQ(full->port, 80);
  EXPECT_EQ(net::to_string(*full), "10.0.0.2:80");
  for (const char* bad : {"", ":80", "host:", "host:0", "host:99999",
                          "host:8x0", "-1"})
    EXPECT_FALSE(net::parse_endpoint(bad).has_value()) << bad;
}

// ---- circuit breaker ------------------------------------------------

using Clock = ShardRouter::Clock;
using std::chrono::milliseconds;

ShardRouter make_router(int shards = 3) {
  BreakerOptions opts;
  opts.open_threshold = 3;
  opts.base_ms = 100;
  opts.cap_ms = 5000;
  return ShardRouter(parse_or_die(map_text(shards)), opts);
}

TEST(Breaker, OpensAfterThresholdConsecutiveFailures) {
  ShardRouter r = make_router();
  const Clock::time_point t0{};
  EXPECT_TRUE(r.allow(0, t0));
  r.record_failure(0, t0);
  r.record_failure(0, t0);
  EXPECT_TRUE(r.allow(0, t0)) << "two failures stay below threshold";
  r.record_failure(0, t0);
  EXPECT_FALSE(r.allow(0, t0)) << "third failure opens the breaker";
  EXPECT_EQ(r.consecutive_failures(0), 3);
}

TEST(Breaker, HalfOpenProbeAfterCooldownThenCloseOnSuccess) {
  ShardRouter r = make_router();
  const Clock::time_point t0{};
  for (int i = 0; i < 3; ++i) r.record_failure(0, t0);
  EXPECT_FALSE(r.allow(0, t0 + milliseconds(99)));
  EXPECT_TRUE(r.allow(0, t0 + milliseconds(100)))
      << "cooldown elapsed: half-open probe may go out";
  r.record_success(0);
  EXPECT_TRUE(r.allow(0, t0));
  EXPECT_EQ(r.consecutive_failures(0), 0);
}

TEST(Breaker, ReopenCooldownGrowsWithTheStreak) {
  ShardRouter r = make_router();
  const Clock::time_point t0{};
  for (int i = 0; i < 3; ++i) r.record_failure(0, t0);
  // Failed half-open probe: re-opens for a second, longer round.
  const Clock::time_point t1 = t0 + milliseconds(100);
  r.record_failure(0, t1);
  EXPECT_FALSE(r.allow(0, t1 + milliseconds(199)));
  EXPECT_TRUE(r.allow(0, t1 + milliseconds(200)));
}

TEST(Breaker, OpenShardsSinkToTheBackOfCandidates) {
  ShardRouter r = make_router(3);
  const Clock::time_point t0{};
  const std::string key = "class-key";
  const auto healthy = r.candidates(key, t0);
  ASSERT_EQ(healthy.size(), 3u);
  const int victim = healthy[0];
  for (int i = 0; i < 3; ++i) r.record_failure(victim, t0);
  const auto degraded = r.candidates(key, t0);
  ASSERT_EQ(degraded.size(), 3u) << "open breakers demote, never remove";
  EXPECT_EQ(degraded.back(), victim);
  // Relative order of the still-closed shards is preserved.
  EXPECT_EQ(degraded[0], healthy[1]);
  EXPECT_EQ(degraded[1], healthy[2]);
  // Recovery restores the original nearest-first order.
  r.record_success(victim);
  EXPECT_EQ(r.candidates(key, t0), healthy);
}

TEST(Breaker, SuccessResetsTheFailureStreak) {
  ShardRouter r = make_router();
  const Clock::time_point t0{};
  r.record_failure(0, t0);
  r.record_failure(0, t0);
  r.record_success(0);
  r.record_failure(0, t0);
  r.record_failure(0, t0);
  EXPECT_TRUE(r.allow(0, t0))
      << "streak restarted after a success; two failures must not open";
}

TEST(Breaker, StateAndStreakExportedAsGauges) {
  obs::set_enabled(true);
  ShardRouter r = make_router();
  const Clock::time_point t0{};
  const auto state = [] {
    return obs::counter("cluster.shard.0.breaker_state").value();
  };
  const auto streak = [] {
    return obs::counter("cluster.shard.0.breaker_streak").value();
  };
  r.record_failure(0, t0);
  EXPECT_EQ(state(), static_cast<std::int64_t>(BreakerState::kClosed));
  EXPECT_EQ(streak(), 1);
  r.record_failure(0, t0);
  r.record_failure(0, t0);
  EXPECT_EQ(state(), static_cast<std::int64_t>(BreakerState::kOpen));
  EXPECT_EQ(streak(), 3);
  // Past the cooldown, the candidates() walk republishes the flip to
  // half-open — no request-side success/failure event needed.
  r.candidates("class-key", t0 + milliseconds(200));
  EXPECT_EQ(state(), static_cast<std::int64_t>(BreakerState::kHalfOpen));
  r.record_success(0);
  EXPECT_EQ(state(), static_cast<std::int64_t>(BreakerState::kClosed));
  EXPECT_EQ(streak(), 0);
  obs::set_enabled(false);
}

TEST(Router, SwapMapDropsDepartedBreakersAndRoutesNewSet) {
  ShardRouter r = make_router(3);
  const Clock::time_point t0{};
  for (int i = 0; i < 3; ++i) r.record_failure(2, t0);
  EXPECT_FALSE(r.allow(2, t0));
  // Shard 2 departs; its streak must not haunt the id on rejoin.
  auto next = std::make_shared<const ShardMap>(r.map()->without(2));
  r.swap_map(next);
  EXPECT_EQ(r.map()->epoch(), 8u) << "without() bumps the parsed epoch 7";
  EXPECT_EQ(r.candidates("class-key", t0).size(), 2u);
  auto back = std::make_shared<const ShardMap>(
      r.map()->with(ShardInfo{2, *net::parse_endpoint("127.0.0.1:47999")}));
  r.swap_map(back);
  EXPECT_TRUE(r.allow(2, t0)) << "rejoined shard starts with a clean breaker";
  EXPECT_EQ(r.candidates("class-key", t0).size(), 3u);
}

TEST(Breaker, SwimSuspectDemotesAndAliveOrRefuteRestores) {
  ShardRouter r = make_router(3);
  const Clock::time_point t0{};
  const Clock::time_point t1 = t0 + milliseconds(10);
  const std::string key = "class-key";
  const auto healthy = r.candidates(key, t0);
  ASSERT_EQ(healthy.size(), 3u);
  const int victim = healthy[0];
  MembershipEvent ev;
  ev.member.shard_id = victim;
  for (const auto restore :
       {MembershipEvent::Kind::kAlive, MembershipEvent::Kind::kRefute}) {
    ev.kind = MembershipEvent::Kind::kSuspect;
    r.observe(ev, t0);
    EXPECT_EQ(r.breaker_state(victim, t0), BreakerState::kOpen)
        << "one suspect verdict opens the breaker, no request needed";
    const auto demoted = r.candidates(key, t0);
    ASSERT_EQ(demoted.size(), 3u) << "suspects are demoted, never removed";
    EXPECT_EQ(demoted.back(), victim);
    ev.kind = restore;
    r.observe(ev, t1);
    EXPECT_EQ(r.candidates(key, t1), healthy)
        << membership_event_name(restore) << " restores the order";
  }
  // A death opens the breaker too; observer (shard -1) verdicts touch
  // nothing.
  ev.kind = MembershipEvent::Kind::kDead;
  r.observe(ev, t0);
  EXPECT_FALSE(r.allow(victim, t0));
  ev.member.shard_id = -1;
  ev.kind = MembershipEvent::Kind::kSuspect;
  r.observe(ev, t0);
  EXPECT_EQ(r.consecutive_failures(healthy[1]), 0);
}

// ---- membership-driven map churn (with()/without() sequences) -------

TEST(ShardMapChurn, RepeatedRemovalDownToOneShardMovesOnlyDepartedKeys) {
  ShardMap m = parse_or_die(map_text(5));
  std::map<std::string, int> owner;
  for (int i = 0; i < 400; ++i) owner[key_for(i)] = m.owner(key_for(i));
  std::uint64_t epoch = m.epoch();
  for (const int victim : {4, 3, 2, 1}) {
    const ShardMap next = m.without(victim);
    EXPECT_EQ(next.epoch(), epoch + 1);
    EXPECT_EQ(next.find(victim), nullptr);
    for (auto& [key, prev] : owner) {
      const int now = next.owner(key);
      if (prev != victim)
        EXPECT_EQ(now, prev) << "surviving shard " << prev
                             << " lost key " << key << " to " << now;
      else
        EXPECT_NE(now, victim);
      owner[key] = now;
    }
    m = next;
    epoch = m.epoch();
  }
  // Down to one shard: it owns everything, replication degrades to 1.
  ASSERT_EQ(m.shards().size(), 1u);
  EXPECT_EQ(m.replication(), 1);
  for (int i = 0; i < 400; ++i) {
    EXPECT_EQ(m.owner(key_for(i)), 0);
    EXPECT_EQ(m.replicas(key_for(i)).size(), 1u);
  }
}

TEST(ShardMapChurn, RejoinViaWithMovesOnlyKeysToTheArrival) {
  ShardMap one = parse_or_die(map_text(5));
  for (const int victim : {4, 3, 2, 1}) one = one.without(victim);
  ASSERT_EQ(one.shards().size(), 1u);
  const ShardMap two =
      one.with(ShardInfo{3, *net::parse_endpoint("127.0.0.1:50000")});
  EXPECT_EQ(two.epoch(), one.epoch() + 1);
  ASSERT_EQ(two.shards().size(), 2u);
  // Replication re-raises toward the target R=2 as members return.
  EXPECT_EQ(two.replication(), 2);
  int moved = 0;
  for (int i = 0; i < 400; ++i) {
    const int now = two.owner(key_for(i));
    if (now != one.owner(key_for(i))) {
      EXPECT_EQ(now, 3) << "a key may only move to the arriving shard";
      ++moved;
    }
    // With 2 shards and R=2, replica sets must be the full distinct
    // pair.
    const auto reps = two.replicas(key_for(i));
    ASSERT_EQ(reps.size(), 2u);
    EXPECT_NE(reps[0], reps[1]);
  }
  EXPECT_GT(moved, 0) << "the arrival must take some ownership";
  // Vnode labels depend only on the shard id, so the rejoin lands the
  // same ring points the original shard 3 held: against the *original*
  // 5-shard map, every key shard 3 owned still resolves consistently.
  const ShardMap orig = parse_or_die(map_text(5));
  for (int i = 0; i < 400; ++i)
    if (orig.owner(key_for(i)) == 3 && two.owner(key_for(i)) != 3)
      FAIL() << "key " << key_for(i)
             << " belonged to shard 3 in the full map but did not return";
}

TEST(ShardMapChurn, WithReplacesEndpointInPlaceMovingZeroKeys) {
  const ShardMap m = parse_or_die(map_text(4));
  const ShardMap moved =
      m.with(ShardInfo{2, *net::parse_endpoint("127.0.0.1:60001")});
  EXPECT_EQ(moved.epoch(), m.epoch() + 1);
  ASSERT_EQ(moved.shards().size(), 4u);
  EXPECT_EQ(moved.find(2)->endpoint.port, 60001);
  // A rejoin at a new port is a membership change but not a placement
  // change: zero keys move.
  for (int i = 0; i < 400; ++i)
    EXPECT_EQ(moved.owner(key_for(i)), m.owner(key_for(i)));
}

TEST(ShardMapChurn, MakeBuildsEmptyAndGrowsFromNothing) {
  const ShardMap empty = ShardMap::make({}, 1, 2, 128);
  EXPECT_EQ(empty.shards().size(), 0u);
  EXPECT_TRUE(empty.replicas("anything").empty());
  const ShardMap one =
      empty.with(ShardInfo{0, *net::parse_endpoint("127.0.0.1:47181")});
  EXPECT_EQ(one.epoch(), 2u);
  EXPECT_EQ(one.owner("anything"), 0);
  EXPECT_EQ(one.replication(), 1) << "clamped to the live count";
}

}  // namespace
}  // namespace starring::cluster
