// Process-level cluster tests: spawn real starringd shards (formed with
// --bootstrap/--join) and a real starring-proxy, SIGKILL the owner of a
// class mid-conversation, and assert a replica serves the retry
// (`status ok`, cluster.failover counted).  A second test storms the
// proxy's failpoints via the STARRING_FAILPOINTS environment and
// asserts every request still reaches a terminal status.  A third
// sends every control command to a shard and to the proxy and parses
// each reply with the matching reader: both daemons answer through the
// one shared command table.
//
// These tests exec the binaries the build just produced, located
// relative to /proc/self/exe (build/tests/ -> build/src/...).  If the
// binaries are missing (component build), the tests skip.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <istream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/shard_map.hpp"
#include "fault/generators.hpp"
#include "graph/graph.hpp"
#include "loadgen/loadgen.hpp"
#include "service/canonical.hpp"
#include "util/io.hpp"
#include "util/net.hpp"

namespace starring {
namespace {

std::string build_dir() {
  // /proc/self/exe = <build>/tests/test_cluster_failover
  char buf[4096];
  const ssize_t len = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (len <= 0) return {};
  buf[len] = '\0';
  std::string path(buf);
  const auto slash = path.rfind('/');
  if (slash == std::string::npos) return {};
  path.resize(slash);  // .../tests
  const auto slash2 = path.rfind('/');
  if (slash2 == std::string::npos) return {};
  path.resize(slash2);  // <build>
  return path;
}

bool file_exists(const std::string& p) {
  return ::access(p.c_str(), X_OK) == 0;
}

/// fork+exec with stderr redirected to `stderr_path` (the daemons
/// announce their kernel-assigned port there) and optional extra
/// environment entries of the form NAME=VALUE.
pid_t spawn(const std::vector<std::string>& argv,
            const std::string& stderr_path,
            const std::vector<std::string>& extra_env = {}) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  const int err_fd =
      ::open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (err_fd >= 0) {
    ::dup2(err_fd, 2);
    ::close(err_fd);
  }
  for (const std::string& kv : extra_env) {
    const auto eq = kv.find('=');
    ::setenv(kv.substr(0, eq).c_str(), kv.substr(eq + 1).c_str(), 1);
  }
  std::vector<char*> cargv;
  for (const std::string& a : argv)
    cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  ::execv(cargv[0], cargv.data());
  std::perror("execv");
  std::_Exit(127);
}

/// Poll a daemon's captured stderr for its "listening on
/// 127.0.0.1:<port>" line; -1 on timeout.
int wait_for_port(const std::string& stderr_path, int timeout_ms = 10000) {
  const char* needle = "listening on 127.0.0.1:";
  for (int waited = 0; waited < timeout_ms; waited += 50) {
    std::ifstream f(stderr_path);
    std::stringstream ss;
    ss << f.rdbuf();
    const std::string text = ss.str();
    const auto pos = text.find(needle);
    if (pos != std::string::npos) {
      const int port = std::atoi(text.c_str() + pos + std::strlen(needle));
      if (port > 0) return port;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return -1;
}

/// A client connection with bounded reads, so a wedged server fails the
/// test instead of hanging it.
struct Conn : net::Stream {
  explicit Conn(const net::Endpoint& ep, int read_timeout_ms = 20000)
      : net::Stream(ep, read_timeout_ms, /*write_timeout_ms=*/5000) {}
};

class ClusterProcessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::signal(SIGPIPE, SIG_IGN);
    bdir_ = build_dir();
    starringd_ = bdir_ + "/src/service/starringd";
    proxy_ = bdir_ + "/src/cluster/starring-proxy";
    if (!file_exists(starringd_) || !file_exists(proxy_))
      GTEST_SKIP() << "service binaries not built";
    char tmpl[] = "/tmp/starring-cluster-XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    for (const pid_t pid : children_)
      if (pid > 0) ::kill(pid, SIGKILL);
    for (const pid_t pid : children_)
      if (pid > 0) ::waitpid(pid, nullptr, 0);
  }

  /// Boot `count` shards — shard 0 --bootstrap, the rest --join it —
  /// plus a proxy that joins through shard 0, then wait until the
  /// proxy's MEMBERS view shows every shard alive.  Fills shard_pids_
  /// and returns the proxy endpoint.
  net::Endpoint boot_cluster(int count, std::vector<std::string> extra,
                             const std::vector<std::string>& proxy_extra,
                             const std::vector<std::string>& proxy_env) {
    std::string seed_addr;
    for (int i = 0; i < count; ++i) {
      const std::string log = dir_ + "/shard" + std::to_string(i) + ".log";
      std::vector<std::string> argv = {starringd_, "--listen", "0",
                                       "--shard-id", std::to_string(i)};
      if (i == 0) {
        argv.push_back("--bootstrap");
      } else {
        argv.push_back("--join");
        argv.push_back(seed_addr);
      }
      argv.insert(argv.end(), extra.begin(), extra.end());
      const pid_t pid = spawn(argv, log);
      children_.push_back(pid);
      shard_pids_.push_back(pid);
      const int port = wait_for_port(log);
      EXPECT_GT(port, 0) << "shard " << i << " never announced its port";
      shard_eps_.push_back(net::Endpoint{"127.0.0.1", port});
      if (i == 0) seed_addr = net::to_string(shard_eps_[0]);
    }

    std::vector<std::string> argv = {proxy_, "--join", seed_addr,
                                     "--listen", "0"};
    argv.insert(argv.end(), extra.begin(), extra.end());
    argv.insert(argv.end(), proxy_extra.begin(), proxy_extra.end());
    const std::string log = dir_ + "/proxy.log";
    children_.push_back(spawn(argv, log, proxy_env));
    const int port = wait_for_port(log);
    EXPECT_GT(port, 0) << "proxy never announced its port";
    const net::Endpoint proxy{"127.0.0.1", port};
    for (int waited = 0; waited < 10000; waited += 50) {
      if (alive_shards(proxy) == count) return proxy;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ADD_FAILURE() << "proxy never saw all " << count << " shards alive";
    return proxy;
  }

  /// The member record list of `ep`'s MEMBERS view (empty on failure).
  static std::vector<MemberRecord> members(const net::Endpoint& ep) {
    Conn c(ep);
    ServiceRequest req;
    req.kind = RequestKind::kMembers;
    if (!c.ok() || !write_request(c.out(), req) || !c.out().flush())
      return {};
    const auto rec = read_membership(c.in());
    return rec ? rec->members : std::vector<MemberRecord>{};
  }

  static int alive_shards(const net::Endpoint& ep) {
    int alive = 0;
    for (const MemberRecord& m : members(ep))
      alive += m.shard_id >= 0 && m.state == MemberWireState::kAlive;
    return alive;
  }

  static std::optional<ServiceResponse> embed(Conn& c, std::uint64_t id,
                                              int n, const FaultSet& f) {
    ServiceRequest req;
    req.id = id;
    req.n = n;
    req.faults = f;
    if (!write_request(c.out(), req)) return std::nullopt;
    if (!c.out().flush()) return std::nullopt;
    return read_response(c.in());
  }

  static std::optional<double> scrape_counter(const net::Endpoint& ep,
                                              const std::string& metric) {
    Conn c(ep);
    if (!c.ok()) return std::nullopt;
    ServiceRequest req;
    req.kind = RequestKind::kStats;
    if (!write_request(c.out(), req)) return std::nullopt;
    c.out().flush();
    const auto body = read_stats(c.in());
    if (!body) return std::nullopt;
    return loadgen::parse_scalar(*body, metric);
  }

  std::string bdir_, starringd_, proxy_, dir_;
  std::vector<pid_t> children_;
  std::vector<pid_t> shard_pids_;
  std::vector<net::Endpoint> shard_eps_;
};

TEST_F(ClusterProcessTest, ReplicaServesAfterOwnerSigkill) {
  // SWIM held out of the race: with a 60 s probe period and suspicion
  // window, no membership verdict reaches the breakers before the
  // second request, so the dead owner is still first in the candidate
  // list and the serve must go through the data-path failover
  // (cluster.failover increments).
  const net::Endpoint proxy = boot_cluster(
      3, {"--gossip-interval-ms", "60000", "--suspicion-timeout-ms", "60000"},
      {"--seed-threshold", "1"}, {});

  const int n = 5;
  const StarGraph g(n);
  const FaultSet faults = random_vertex_faults(g, 2, 11);
  const auto canon = canonicalize(n, faults);

  // Compute the owner in-process from the proxy's MEMBERS view —
  // placement is a pure function of the member set (test_cluster pins
  // this), and the view's map parameters are the proxy's own.
  Conn mc(proxy);
  ServiceRequest mreq;
  mreq.kind = RequestKind::kMembers;
  ASSERT_TRUE(write_request(mc.out(), mreq) && mc.out().flush());
  const auto view = read_membership(mc.in());
  ASSERT_TRUE(view.has_value());
  std::vector<cluster::ShardInfo> shards;
  for (const MemberRecord& m : view->members)
    if (m.shard_id >= 0 && m.state == MemberWireState::kAlive)
      shards.push_back({m.shard_id, *net::parse_endpoint(m.addr)});
  const cluster::ShardMap map = cluster::ShardMap::make(
      shards, view->epoch, view->replication, view->vnodes);
  const int owner = map.owner(canon.key);
  ASSERT_GE(owner, 0);

  Conn c(proxy);
  ASSERT_TRUE(c.ok());
  const auto first = embed(c, 1, n, faults);
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->status, ServiceStatus::kOk);

  ASSERT_EQ(::kill(shard_pids_[owner], SIGKILL), 0);
  ::waitpid(shard_pids_[owner], nullptr, 0);
  shard_pids_[owner] = -1;

  // Same connection: the proxy's pooled upstream to the owner is now a
  // corpse; the retry must land on a replica and still answer ok.
  const auto second = embed(c, 2, n, faults);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->status, ServiceStatus::kOk) << second->reason;
  EXPECT_EQ(second->ring.size(), first->ring.size());

  const auto failover = scrape_counter(proxy, "starring_cluster_failover");
  ASSERT_TRUE(failover.has_value());
  EXPECT_GE(*failover, 1.0);
}

TEST_F(ClusterProcessTest, ChaosStormEveryRequestReachesTerminalStatus) {
  // Arm the proxy's failpoints through the environment, exactly as the
  // chaos CI stage does, and hammer it: some requests fail over, some
  // are answered error by the armed proxy.forward site — but every
  // single one gets a terminal response.
  const net::Endpoint proxy = boot_cluster(
      3, {}, {},
      {"STARRING_FAILPOINTS="
       "proxy.upstream=error@p:0.4,proxy.forward=error@p:0.1"});

  const int n = 4;
  const StarGraph g(n);
  Conn c(proxy);
  ASSERT_TRUE(c.ok());
  int ok = 0, errors = 0, rejected = 0, timeouts = 0;
  const int kRequests = 60;
  for (int i = 0; i < kRequests; ++i) {
    const FaultSet faults =
        random_vertex_faults(g, 1, static_cast<std::uint64_t>(i));
    const auto resp = embed(c, static_cast<std::uint64_t>(i + 1), n, faults);
    ASSERT_TRUE(resp.has_value()) << "request " << i << " never answered";
    switch (resp->status) {
      case ServiceStatus::kOk: ++ok; break;
      case ServiceStatus::kError: ++errors; break;
      case ServiceStatus::kRejected: ++rejected; break;
      case ServiceStatus::kTimeout: ++timeouts; break;
      case ServiceStatus::kThrottled: ++rejected; break;
    }
  }
  EXPECT_EQ(ok + errors + rejected + timeouts, kRequests);
  EXPECT_GT(ok, 0) << "storm at p:0.4 should still let most through";
}


TEST_F(ClusterProcessTest, ControlCommandsParseAlikeOnShardAndProxy) {
  const net::Endpoint proxy = boot_cluster(2, {}, {}, {});
  // A one-line reply: `word` followed by "ok" (or "bad <reason>" when
  // `bad_ok` — the proxy refuses SEED by design).
  const auto line_reply = [](const char* word, bool bad_ok) {
    return [word, bad_ok](std::istream& is) {
      std::string w, verdict, rest;
      if (!(is >> w) || w != word) return false;
      if (std::string(word) == "PONG") return true;
      if (!(is >> verdict)) return false;
      std::getline(is, rest);
      return verdict == "ok" || (bad_ok && verdict == "bad" && !rest.empty());
    };
  };
  struct Row {
    const char* name;
    ServiceRequest req;
    std::function<bool(std::istream&)> parses;
  };
  const auto make = [](RequestKind kind) {
    ServiceRequest r;
    r.kind = kind;
    return r;
  };
  ServiceRequest fail = make(RequestKind::kFail);
  fail.fail_config = "clear";
  ServiceRequest seed = make(RequestKind::kSeed);
  seed.n = 4;
  seed.seed_key = "parity-check";
  seed.seed_ring = {0, 1, 2, 3};
  const std::vector<Row> rows = {
      {"PING", make(RequestKind::kPing), line_reply("PONG", false)},
      {"STATS", make(RequestKind::kStats),
       [](std::istream& is) { return read_stats(is).has_value(); }},
      {"HEALTH", make(RequestKind::kHealth),
       [](std::istream& is) { return read_health(is).has_value(); }},
      {"TRACE", make(RequestKind::kTrace),
       [](std::istream& is) { return read_trace(is).has_value(); }},
      {"SLOW", make(RequestKind::kSlow),
       [](std::istream& is) { return read_stats(is).has_value(); }},
      {"MEMBERS", make(RequestKind::kMembers),
       [](std::istream& is) { return read_membership(is).has_value(); }},
      {"SEED", seed, line_reply("SEED", true)},
      {"FAIL", fail, line_reply("FAIL", false)},
  };
  const std::vector<std::pair<const char*, net::Endpoint>> daemons = {
      {"shard", shard_eps_[0]}, {"proxy", proxy}};
  for (const auto& [who, ep] : daemons) {
    // One connection per daemon: every reply must also leave the
    // stream positioned at the next record.
    Conn c(ep);
    ASSERT_TRUE(c.ok()) << who;
    for (const Row& row : rows) {
      ASSERT_TRUE(write_request(c.out(), row.req) && c.out().flush())
          << who << " " << row.name;
      EXPECT_TRUE(row.parses(c.in())) << who << " " << row.name;
    }
  }
}

}  // namespace
}  // namespace starring
