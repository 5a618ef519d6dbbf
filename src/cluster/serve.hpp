// The serving layer shared by starringd and starring-proxy: one accept
// loop, one per-connection read loop, and one control-command table.
//
// A daemon describes itself with a Daemon record: its name, identity,
// membership agent, connection limits, and the few answers that really
// differ between a shard and the router — HEALTH's cache and inflight
// fields, what SEED does, the SLOW body, TRACE's process name, and how
// an embedding request is served.  Everything else is written once
// here: STATS, PING, FAIL, GOSSIP, MEMBERS, LEAVE, the parse-error
// bounce, the connection cap with its `status rejected` answer,
// slow-client eviction (util/net.hpp), and the bounded SIGINT/SIGTERM
// drain — stop accepting, SHUT_RD every connection so its reads see
// EOF while pending responses still flow out, escalate laggards to
// SHUT_RDWR, and abort if even that does not unwind them.
//
// Response order: the read loop hands each embedding request to the
// daemon's session and reads the next one at once.  A session that
// answers inline (the proxy) therefore answers each connection in
// request order; one that defers (starringd's batching service) may
// answer out of order and relies on the request id to correlate.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "cluster/membership.hpp"
#include "util/io.hpp"
#include "util/net.hpp"

namespace starring::serve {

/// One client connection as a session sees it.  Writes are serialized
/// under the connection's lock and flushed per record; a record that
/// fails to serialize kills the connection, so the peer sees EOF at
/// once instead of waiting out its read timeout.
class Connection {
 public:
  Connection(int in_fd, int out_fd, int write_timeout_ms);

  /// Write one response; dropped once the connection is dead.
  void send(const ServiceResponse& resp);
  /// Write one record of any kind with `record(os)`.
  void write(const std::function<bool(std::ostream&)>& record);

  /// A reply for a response produced later on another thread.  The
  /// read loop keeps the connection open until every deferred reply
  /// has been called or destroyed.
  std::function<void(ServiceResponse)> defer();

  bool dead() const { return dead_.load(std::memory_order_relaxed); }
  /// Hard-close: the peer sees EOF and the read loop ends.
  void kill() { out_buf_.mark_dead(); }

  std::istream& in() { return in_; }
  /// Block until no deferred reply is outstanding.
  void wait_idle();

 private:
  std::atomic<bool> dead_{false};
  net::FdInBuf in_buf_;
  net::FdOutBuf out_buf_;
  std::istream in_;
  std::ostream out_;
  std::mutex out_mu_;
  std::mutex hold_mu_;
  std::condition_variable idle_cv_;
  int holds_ = 0;  // deferred replies outstanding
};

/// Serves the embedding requests of one connection.
using Session = std::function<void(ServiceRequest&&, Connection&)>;

struct Daemon {
  const char* name = "";  // log prefix
  /// Cluster identity reported by HEALTH; -1 for the proxy or a
  /// standalone daemon.
  int shard_id = -1;
  /// TRACE's process name ("shard-0", "starringd", "proxy").
  std::string process;
  /// Null outside member mode: GOSSIP is then refused and MEMBERS
  /// answers an empty view.
  cluster::MembershipAgent* agent = nullptr;

  // The flags both daemons take (parse_flag).
  int listen_port = -1;  // -1: not given (starringd then serves stdio)
  std::string join_addr;
  cluster::MembershipOptions gossip;
  int max_conns = 64;
  int write_timeout_ms = 5000;
  int drain_timeout_ms = 10000;

  /// Fill HEALTH's cache_* and inflight fields (identity, epoch and
  /// uptime are common).
  std::function<void(HealthInfo&)> health;
  /// Apply one SEED record: "" when accepted, else the reason.
  std::function<std::string(ServiceRequest&)> seed;
  /// The SLOW report body.
  std::function<std::string()> slow;
  /// A fresh session per connection, so a daemon can keep
  /// per-connection state (the proxy's upstream pool).
  std::function<Session()> session;
};

/// Consume argv[*i] and its value when it is one of the flags both
/// daemons take (kFlagUsage).  False when it is not, or when its value
/// is out of range.
bool parse_flag(Daemon& d, int argc, char** argv, int* i);

/// Usage lines for the flags parse_flag() takes.
extern const char* const kFlagUsage;

/// This process's flight recorder as a TRACE record — a read, not a
/// reset, so repeated pulls see every span still retained.
TraceDump trace_dump(const Daemon& d);

/// SIGINT/SIGTERM request a stop; SIGPIPE is ignored (a vanished peer
/// is a write error, not a process kill).
void install_signal_handlers();
void request_stop();
bool stopping();

/// Arm the shutdown bound once per process: if the process has not
/// exited within budget_ms of the first call, it aborts — a wedged
/// embedding or connection must not turn SIGTERM into a hang.
void begin_drain(int budget_ms);

/// Bind 127.0.0.1:<listen_port> and announce "NAME: listening on
/// 127.0.0.1:<port>" on stderr (how a script using `--listen 0` learns
/// the port).  -1 after logging the failure.
int listen(const Daemon& d, int* actual_port);

/// Found a cluster (no join_addr: self is the only member) or join a
/// running one through join_addr, as shard_id (-1: observer) reachable
/// at 127.0.0.1:port.  Null after logging a failed join.  The caller
/// registers its event callback, then start()s the agent.
std::unique_ptr<cluster::MembershipAgent> form_cluster(const Daemon& d,
                                                       int port);

/// Serve requests from in_fd, replying on out_fd, until EOF, a framing
/// error (answered `status error` with `reason parse: ...`), a dead
/// connection, or a stop request; then wait for deferred replies.
/// False after a framing error.
bool serve_connection(const Daemon& d, int in_fd, int out_fd);

/// Accept loop on listen_fd until stop is requested: one detached
/// thread per connection, the excess over max_conns bounced with
/// `status rejected`.  Then close the listener, announce departure to
/// the cluster, and drain every connection (bounded).
void serve_tcp(const Daemon& d, int listen_fd);

}  // namespace starring::serve
