#include "cluster/serve.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/trace.hpp"
#include "util/failpoint.hpp"

namespace starring::serve {

namespace {

// Lock-free, so the signal handler may store it; atomic, so a LEAVE
// thread's store and every connection thread's load do not race.
std::atomic<bool> g_stop{false};
static_assert(std::atomic<bool>::is_always_lock_free);
void on_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

// Process start, for HEALTH uptime_ms.  Static-initialized so the
// number covers the whole process, not just time since first probe.
const std::chrono::steady_clock::time_point g_start =
    std::chrono::steady_clock::now();

std::once_flag g_drain_once;
std::optional<net::DrainGuard> g_drain_guard;

/// Answer `req` inline when it is a control command; false for an
/// embedding request.  Control commands never queue behind embeddings:
/// liveness probes, fault arming, gossip, and seeding answer at once.
bool answer_control(const Daemon& d, ServiceRequest& req, Connection& conn) {
  const auto line = [&conn](const std::string& text) {
    conn.write([&text](std::ostream& os) {
      os << text << "\n";
      return static_cast<bool>(os);
    });
  };
  switch (req.kind) {
    case RequestKind::kEmbed:
      return false;
    case RequestKind::kStats:
      conn.write([](std::ostream& os) {
        return write_stats(os, obs::render_prometheus());
      });
      return true;
    case RequestKind::kPing:
      line("PONG");
      return true;
    case RequestKind::kFail: {
      std::string why;
      if (failpoint::set(req.fail_config, &why))
        line("FAIL ok");
      else
        line("FAIL bad " + (why.empty() ? "failpoints unavailable" : why));
      return true;
    }
    case RequestKind::kHealth: {
      HealthInfo h;
      h.shard_id = d.shard_id;
      h.epoch = d.agent != nullptr ? d.agent->epoch() : 0;
      h.uptime_ms = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - g_start)
              .count());
      d.health(h);
      conn.write([&h](std::ostream& os) { return write_health(os, h); });
      return true;
    }
    case RequestKind::kSeed: {
      const std::string why = d.seed(req);
      line(why.empty() ? "SEED ok" : "SEED bad " + why);
      return true;
    }
    case RequestKind::kTrace: {
      // The proxy's merge path pulls these from every shard into one
      // Perfetto file.
      const TraceDump t = trace_dump(d);
      conn.write([&t](std::ostream& os) { return write_trace(os, t); });
      return true;
    }
    case RequestKind::kSlow: {
      const std::string body = d.slow();
      conn.write([&body](std::ostream& os) { return write_stats(os, body); });
      return true;
    }
    case RequestKind::kGossip: {
      if (d.agent == nullptr) {
        // Not a member: a malformed-on-purpose line makes the peer's
        // gossip parse fail fast instead of burning its read timeout.
        line("GOSSIP bad not a cluster member");
        return true;
      }
      const cluster::MembershipAgent::Reply reply =
          d.agent->handle(*req.gossip);
      if (FAILPOINT("gossip.ack")) {
        // Partition chaos, receiver half: the updates were merged but
        // the peer hears nothing back — a silent peer, not a slow one,
        // so the connection goes too and its probe fails at once.
        obs::counter("cluster.membership.acks_dropped").add();
        conn.kill();
        return true;
      }
      conn.write([&reply](std::ostream& os) {
        return reply.snapshot ? write_membership(os, *reply.snapshot)
                              : write_gossip(os, *reply.ack);
      });
      return true;
    }
    case RequestKind::kMembers: {
      const MembershipRecord rec =
          d.agent != nullptr ? d.agent->membership() : MembershipRecord{};
      conn.write([&rec](std::ostream& os) {
        return write_membership(os, rec);
      });
      return true;
    }
    case RequestKind::kLeave: {
      line("LEAVE ok");
      // Graceful departure: announce `left` to every peer (so nobody
      // burns a suspicion window or trips a breaker on us), then stop
      // accepting; the accept loop's bounded drain answers what is
      // queued.  Detached: leave() dials peers and must not block this
      // reader.
      std::thread([agent = d.agent] {
        if (agent != nullptr) agent->leave();
        request_stop();
      }).detach();
      return true;
    }
  }
  return false;
}

/// Over the connection cap: one `status rejected` response, then close.
void refuse_connection(int fd) {
  obs::counter("svc.rejected_conns").add();
  {
    Connection conn(fd, fd, /*write_timeout_ms=*/1000);
    ServiceResponse rej;
    rej.status = ServiceStatus::kRejected;
    rej.reason = "connection limit";
    conn.send(rej);
  }
  ::close(fd);
}

}  // namespace

// --- Connection -------------------------------------------------------

Connection::Connection(int in_fd, int out_fd, int write_timeout_ms)
    : in_buf_(in_fd),
      out_buf_(out_fd, write_timeout_ms, &dead_),
      in_(&in_buf_),
      out_(&out_buf_) {}

void Connection::write(const std::function<bool(std::ostream&)>& record) {
  const std::lock_guard<std::mutex> lock(out_mu_);
  if (dead()) return;
  // A record that fails to serialize (the io.write_response failpoint,
  // or a stream that went bad underneath us) must not leave the
  // connection half-alive: the peer would burn its full read timeout
  // on a socket that will never answer.
  if (record(out_))
    out_.flush();
  else
    out_buf_.mark_dead();
}

void Connection::send(const ServiceResponse& resp) {
  write([&resp](std::ostream& os) { return write_response(os, resp); });
}

std::function<void(ServiceResponse)> Connection::defer() {
  {
    const std::lock_guard<std::mutex> lock(hold_mu_);
    ++holds_;
  }
  // Released when the last copy of the reply is destroyed, called or
  // not: a request the service refused still lets the connection close.
  std::shared_ptr<void> hold(nullptr, [this](void*) {
    // Notify under the lock: the connection thread may destroy the cv
    // the moment it observes zero holds.
    const std::lock_guard<std::mutex> lock(hold_mu_);
    if (--holds_ == 0) idle_cv_.notify_all();
  });
  return [this, hold](ServiceResponse resp) { send(resp); };
}

void Connection::wait_idle() {
  std::unique_lock<std::mutex> lock(hold_mu_);
  idle_cv_.wait(lock, [this] { return holds_ == 0; });
}

// --- process lifecycle ------------------------------------------------

TraceDump trace_dump(const Daemon& d) {
  TraceDump t;
  t.process = d.process;
  t.epoch_ns = obs::trace::epoch_ns();
  t.dropped = obs::trace::stats().dropped;
  t.spans = obs::trace::collect();
  return t;
}

void install_signal_handlers() {
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);
}

void request_stop() { g_stop.store(true, std::memory_order_relaxed); }

bool stopping() { return g_stop.load(std::memory_order_relaxed); }

void begin_drain(int budget_ms) {
  std::call_once(g_drain_once,
                 [budget_ms] { g_drain_guard.emplace(budget_ms); });
}

bool parse_flag(Daemon& d, int argc, char** argv, int* i) {
  if (*i + 1 >= argc) return false;
  const std::string flag = argv[*i];
  const char* value = argv[*i + 1];
  const long v = std::atol(value);
  if (flag == "--join")
    d.join_addr = value;
  else if (flag == "--listen" && v >= 0 && v < 65536)
    d.listen_port = static_cast<int>(v);
  else if (flag == "--gossip-interval-ms" && v > 0)
    d.gossip.probe_interval_ms = static_cast<int>(v);
  else if (flag == "--suspicion-timeout-ms" && v > 0)
    d.gossip.suspicion_timeout_ms = static_cast<int>(v);
  else if (flag == "--max-conns" && v > 0)
    d.max_conns = static_cast<int>(v);
  else if (flag == "--write-timeout-ms" && v > 0)
    d.write_timeout_ms = static_cast<int>(v);
  else if (flag == "--drain-timeout-ms" && v > 0)
    d.drain_timeout_ms = static_cast<int>(v);
  else
    return false;
  ++*i;
  return true;
}

const char* const kFlagUsage =
    "  --listen PORT          serve TCP on 127.0.0.1:PORT (0 = "
    "kernel-assigned,\n"
    "                         printed on stderr)\n"
    "  --join HOST:PORT       join a running cluster through this member\n"
    "                         (gossip adopts its snapshot)\n"
    "  --gossip-interval-ms N SWIM probe period (default 250)\n"
    "  --suspicion-timeout-ms N  silence before a suspect is declared "
    "dead\n"
    "                         (default 1500)\n"
    "  --max-conns N          concurrent TCP connections; excess accepts "
    "are\n"
    "                         answered `status rejected` (default 64)\n"
    "  --write-timeout-ms N   evict a client that cannot drain its "
    "socket\n"
    "                         within N ms (default 5000)\n"
    "  --drain-timeout-ms N   abort if shutdown drain exceeds N ms\n"
    "                         (default 10000)\n";

int listen(const Daemon& d, int* actual_port) {
  std::string err;
  const int fd = net::listen_loopback(d.listen_port, 16, actual_port, &err);
  if (fd < 0)
    std::cerr << d.name << ": " << err << "\n";
  else
    std::cerr << d.name << ": listening on 127.0.0.1:" << *actual_port
              << "\n";
  return fd;
}

std::unique_ptr<cluster::MembershipAgent> form_cluster(const Daemon& d,
                                                       int port) {
  MemberRecord self;
  self.shard_id = d.shard_id;
  self.incarnation = 1;
  self.addr = "127.0.0.1:" + std::to_string(port);
  auto agent = std::make_unique<cluster::MembershipAgent>(self, d.gossip);
  if (d.join_addr.empty()) {
    agent->bootstrap_single();
    return agent;
  }
  if (!agent->join(d.join_addr)) {
    std::cerr << d.name << ": failed to join cluster via " << d.join_addr
              << "\n";
    return nullptr;
  }
  std::cerr << d.name << ": joined cluster via " << d.join_addr
            << ", epoch " << agent->epoch() << "\n";
  return agent;
}

// --- serving ----------------------------------------------------------

bool serve_connection(const Daemon& d, int in_fd, int out_fd) {
  Connection conn(in_fd, out_fd, d.write_timeout_ms);
  const Session session = d.session();
  bool clean = true;
  std::string err;
  while (!conn.dead() && !stopping()) {
    auto req = read_request(conn.in(), &err);
    if (!req) {
      if (!err.empty()) {
        // Framing is token-based; a malformed record poisons the
        // stream.  Report once and finish what was admitted.
        clean = false;
        ServiceResponse bad;
        bad.status = ServiceStatus::kError;
        bad.reason = "parse: " + err;
        conn.send(bad);
      }
      break;
    }
    if (!answer_control(d, *req, conn)) session(std::move(*req), conn);
  }
  // A clean EOF drain may take as long as the admitted work needs; a
  // stop-initiated one is bounded.
  if (stopping()) begin_drain(d.drain_timeout_ms);
  conn.wait_idle();
  return clean;
}

void serve_tcp(const Daemon& d, int listen_fd) {
  net::ConnRegistry reg;
  obs::Counter& accept_errors = obs::counter("svc.accept_errors");
  while (!stopping()) {
    pollfd pfd{listen_fd, POLLIN, 0};
    const int r = ::poll(&pfd, 1, 200 /*ms*/);
    if (r <= 0) continue;  // timeout or EINTR: re-check the stop flag
    const int fd = net::accept_transient(listen_fd, d.name, accept_errors);
    if (fd < 0) continue;
    if (reg.count() >= static_cast<std::size_t>(d.max_conns)) {
      refuse_connection(fd);
      continue;
    }
    if (!net::set_nonblocking(fd)) {
      ::close(fd);
      continue;
    }
    reg.add(fd);
    // Detached with the registry as the liveness ledger: finished
    // connections release their thread immediately instead of
    // accumulating joinable handles until shutdown.
    std::thread([fd, &d, &reg] {
      serve_connection(d, fd, fd);
      reg.remove(fd);
      ::close(fd);
    }).detach();
  }
  ::close(listen_fd);
  // Depart politely on SIGTERM too (idempotent after a LEAVE command):
  // peers record `left` and drop us from their maps without a
  // suspicion window.  A SIGKILLed process never gets here, which is
  // exactly the failure-detection path.
  if (d.agent != nullptr) {
    d.agent->leave();
    d.agent->stop();
  }
  begin_drain(d.drain_timeout_ms);
  reg.shutdown_all(SHUT_RD);
  if (!reg.wait_empty(d.drain_timeout_ms / 2)) {
    // Laggards lose their half-closed grace: hard-close both ways so
    // blocked reads and writes fail and the connections unwind.
    reg.shutdown_all(SHUT_RDWR);
    if (!reg.wait_empty(d.drain_timeout_ms / 4)) {
      // Detached threads still reference the daemon's state; exiting
      // now is the only unwind that cannot touch freed state.
      std::cerr << d.name << ": connections failed to drain, aborting\n";
      std::_Exit(1);
    }
  }
}

}  // namespace starring::serve
