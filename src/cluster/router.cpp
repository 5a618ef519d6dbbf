#include "cluster/router.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "util/backoff.hpp"

namespace starring::cluster {

ShardRouter::ShardRouter(std::shared_ptr<const ShardMap> map,
                         BreakerOptions opts)
    : map_(std::move(map)), opts_(opts) {
  if (!map_) map_ = std::make_shared<const ShardMap>();
}

ShardRouter::ShardRouter(ShardMap map, BreakerOptions opts)
    : ShardRouter(std::make_shared<const ShardMap>(std::move(map)), opts) {}

std::shared_ptr<const ShardMap> ShardRouter::map() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return map_;
}

void ShardRouter::swap_map(std::shared_ptr<const ShardMap> next) {
  if (!next) return;
  const std::lock_guard<std::mutex> lock(mu_);
  map_ = std::move(next);
  for (auto it = breakers_.begin(); it != breakers_.end();) {
    if (map_->find(it->first) == nullptr) {
      // Departed shard: zero its gauges and forget the streak.
      publish_locked(it->first, nullptr, Clock::time_point{});
      it = breakers_.erase(it);
    } else {
      ++it;
    }
  }
}

bool ShardRouter::allow_locked(const Breaker& b,
                               Clock::time_point now) const {
  return !b.open || now >= b.retry_at;
}

void ShardRouter::publish_locked(int shard_id, const Breaker* b,
                                 Clock::time_point now) const {
  int state = static_cast<int>(BreakerState::kClosed);
  int streak = 0;
  if (b != nullptr) {
    streak = b->failures;
    if (b->open)
      state = static_cast<int>(now >= b->retry_at ? BreakerState::kHalfOpen
                                                  : BreakerState::kOpen);
  }
  const std::string prefix =
      "cluster.shard." + std::to_string(shard_id) + ".breaker_";
  obs::counter(prefix + "state").set(state);
  obs::counter(prefix + "streak").set(streak);
}

std::vector<int> ShardRouter::candidates(std::string_view key,
                                         Clock::time_point now) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> order = map_->all_candidates(key);
  // Stable partition: preference order inside each group is still the
  // map's nearest-first order, open-breaker shards are last-resort
  // rather than absent.
  std::stable_partition(order.begin(), order.end(), [&](int id) {
    const auto it = breakers_.find(id);
    if (it == breakers_.end()) return true;
    // Open breakers are the rare case; keeping their state gauge live
    // here is what makes the open -> half-open flip observable without
    // a request-side event.
    if (it->second.open) publish_locked(id, &it->second, now);
    return allow_locked(it->second, now);
  });
  return order;
}

bool ShardRouter::allow(int shard_id, Clock::time_point now) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = breakers_.find(shard_id);
  return it == breakers_.end() || allow_locked(it->second, now);
}

void ShardRouter::record_failure(int shard_id, Clock::time_point now) {
  fail(shard_id, now, 0);
}

void ShardRouter::fail(int shard_id, Clock::time_point now, int min_streak) {
  const std::lock_guard<std::mutex> lock(mu_);
  Breaker& b = breakers_[shard_id];
  b.failures = std::max(b.failures + 1, min_streak);
  if (b.failures >= opts_.open_threshold) {
    // Cooldown grows with the streak past the threshold: a shard that
    // keeps failing its half-open probes is probed less and less often
    // (up to cap_ms).
    const int round = b.failures - opts_.open_threshold + 1;
    b.open = true;
    b.retry_at = now + std::chrono::milliseconds(retry_backoff_ms(
                           round, opts_.base_ms, opts_.cap_ms));
  }
  publish_locked(shard_id, &b, now);
}

void ShardRouter::record_success(int shard_id) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = breakers_.find(shard_id);
  if (it != breakers_.end()) breakers_.erase(it);
  publish_locked(shard_id, nullptr, Clock::time_point{});
}

void ShardRouter::observe(const MembershipEvent& ev, Clock::time_point now) {
  const int id = ev.member.shard_id;
  if (id < 0) return;
  switch (ev.kind) {
    case MembershipEvent::Kind::kSuspect:
    case MembershipEvent::Kind::kDead:
      fail(id, now, opts_.open_threshold);
      break;
    case MembershipEvent::Kind::kJoin:
    case MembershipEvent::Kind::kAlive:
    case MembershipEvent::Kind::kRefute:
      record_success(id);
      break;
    case MembershipEvent::Kind::kLeft:
      break;  // the map change that follows drops the shard
  }
}

int ShardRouter::consecutive_failures(int shard_id) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = breakers_.find(shard_id);
  return it == breakers_.end() ? 0 : it->second.failures;
}

BreakerState ShardRouter::breaker_state(int shard_id,
                                        Clock::time_point now) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = breakers_.find(shard_id);
  if (it == breakers_.end() || !it->second.open)
    return BreakerState::kClosed;
  return now >= it->second.retry_at ? BreakerState::kHalfOpen
                                    : BreakerState::kOpen;
}

}  // namespace starring::cluster
