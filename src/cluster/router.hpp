// Failure-aware candidate ordering on top of the ShardMap.
//
// The proxy asks the router, not the map, where to send a request: the
// router starts from the map's nearest-first candidate list and
// reorders it by per-shard circuit-breaker state.  A shard that has
// failed `open_threshold` consecutive times has its breaker opened for
// a cooldown that grows with the failure streak
// (util/backoff.hpp::retry_backoff_ms); while open it sinks to the
// back of every candidate list instead of being removed — the list is
// never empty, so every request still reaches *some* terminal status
// even with the whole cluster limping.  When the cooldown elapses the
// next request through is the half-open probe: its success closes the
// breaker, its failure re-opens with a longer cooldown.
//
// The map is held RCU-style: an immutable snapshot behind a
// shared_ptr, swapped atomically by the membership layer on each epoch
// bump.  Requests read a consistent snapshot (map() hands out the
// shared_ptr); in-flight retries re-fetch candidates per attempt, so a
// swap mid-request re-routes the remaining attempts against the new
// owner set.
//
// Breakers are fed from two sides: the data path (record_failure /
// record_success per forward attempt) and SWIM membership (observe):
// a suspect or dead verdict opens the shard's breaker at once, an
// alive or refute verdict closes it.
//
// Breaker state is exported as gauges through the Prometheus path:
//   cluster.shard.<id>.breaker_state   0 closed / 1 open / 2 half-open
//   cluster.shard.<id>.breaker_streak  consecutive failures
//
// Time is an explicit parameter (steady_clock::time_point) so unit
// tests drive the breaker state machine without sleeping.
#pragma once

#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "cluster/membership.hpp"
#include "cluster/shard_map.hpp"

namespace starring::cluster {

struct BreakerOptions {
  /// Consecutive failures that open a shard's breaker.
  int open_threshold = 3;
  /// Backoff schedule for the open cooldown: round k after opening
  /// waits retry_backoff_ms(k, base_ms, cap_ms).
  int base_ms = 100;
  int cap_ms = 5000;
};

/// Breaker positions for the state gauge.
enum class BreakerState { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

class ShardRouter {
 public:
  using Clock = std::chrono::steady_clock;

  explicit ShardRouter(std::shared_ptr<const ShardMap> map,
                       BreakerOptions opts = {});
  /// Convenience for static single-map callers (tests, tools).
  explicit ShardRouter(ShardMap map, BreakerOptions opts = {});

  /// Current placement snapshot.  Callers hold the returned pointer
  /// for the duration of one request so every placement decision in it
  /// is made against one consistent map, even across a live swap.
  std::shared_ptr<const ShardMap> map() const;

  /// Install a new map snapshot (membership epoch bump).  Breakers of
  /// shards absent from the new map are dropped — a departed shard's
  /// failure streak must not haunt its id if it rejoins later.
  void swap_map(std::shared_ptr<const ShardMap> next);

  /// Every shard, nearest-first for `key`, with open-breaker shards
  /// moved to the back (stable within each group).  Never empty while
  /// the map has shards.
  std::vector<int> candidates(std::string_view key, Clock::time_point now);

  /// Is the shard currently worth trying (breaker closed, or open with
  /// an elapsed cooldown — the half-open probe)?
  bool allow(int shard_id, Clock::time_point now);

  void record_failure(int shard_id, Clock::time_point now);
  void record_success(int shard_id);

  /// Feed one membership event to the breakers.  Suspect or dead opens
  /// the shard's breaker at once — its probes already failed, so no
  /// request should pay to rediscover that; join, alive, or refute
  /// closes it.  Observer events (shard -1) are ignored.
  void observe(const MembershipEvent& ev, Clock::time_point now);

  int consecutive_failures(int shard_id);
  /// Gauge view of one shard's breaker (also what the gauges export).
  BreakerState breaker_state(int shard_id, Clock::time_point now);

 private:
  struct Breaker {
    int failures = 0;
    /// Set while open: earliest time a half-open probe may go out.
    Clock::time_point retry_at{};
    bool open = false;
  };

  bool allow_locked(const Breaker& b, Clock::time_point now) const;
  /// Count one failure, at least `min_streak` deep, and open the
  /// breaker once the streak reaches the threshold.
  void fail(int shard_id, Clock::time_point now, int min_streak);
  /// Refresh the shard's breaker gauges.  nullptr = closed/no entry.
  void publish_locked(int shard_id, const Breaker* b,
                      Clock::time_point now) const;

  std::shared_ptr<const ShardMap> map_;  // guarded by mu_, read via map()
  BreakerOptions opts_;
  mutable std::mutex mu_;
  std::map<int, Breaker> breakers_;
};

}  // namespace starring::cluster
