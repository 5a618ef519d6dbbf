// TCP plumbing shared by every networked binary (starringd,
// starring-proxy, starring-cli, starring-load).
//
// Before the cluster work each binary carried its own copy of the
// fd <-> iostream glue and hardcoded 127.0.0.1: the daemon's streambufs
// lived in starringd.cpp, and both clients could only dial a bare
// loopback port.  A sharded deployment needs the same pieces in four
// processes — endpoint parsing ("HOST:PORT" as well as the
// back-compatible bare "PORT"), bounded-read/bounded-write stream
// glue (a proxy must not hang forever on a wedged shard), a hardened
// accept loop, and the connection-drain scaffolding — so they live
// here once.
//
// Everything is loopback/IPv4-oriented on purpose: the cluster model
// (DESIGN.md §13) is co-located processes behind one router, not a
// WAN protocol.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <condition_variable>
#include <istream>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace starring::net {

struct Endpoint {
  std::string host = "127.0.0.1";
  int port = 0;
};

/// Parse "PORT" (loopback, the historical grammar) or "HOST:PORT".
/// nullopt on an empty host, a non-numeric or out-of-range port.
std::optional<Endpoint> parse_endpoint(const std::string& text);

std::string to_string(const Endpoint& ep);

/// Blocking TCP connect (IPv4, name resolution via getaddrinfo);
/// -1 on failure with errno left from the failing call.  On success
/// the fd is switched to non-blocking when `nonblocking` is set, so it
/// composes with the poll-based stream glue below.
int connect_endpoint(const Endpoint& ep, bool nonblocking = false);

bool set_nonblocking(int fd);

/// Bind + listen on 127.0.0.1:port (port 0: kernel-assigned).  Returns
/// the listening fd, or -1 with *error describing the failing call.
/// *actual_port receives the bound port — the way a test or script
/// using `--listen 0` learns where the daemon actually lives.
int listen_loopback(int port, int backlog, int* actual_port,
                    std::string* error);

/// accept() with transient-error discipline.  A daemon accept loop
/// must never treat accept failure as uniform: EINTR is silent,
/// ECONNABORTED (peer gave up in the backlog) and EMFILE/ENFILE
/// (fd exhaustion — hot when a proxy fronts many connections) are
/// logged, counted in `errors`, and survived.  EMFILE additionally
/// sleeps briefly so the loop cannot spin at 100% while the process
/// is out of descriptors.  Returns the accepted fd or -1 (caller
/// continues its loop either way).
int accept_transient(int listen_fd, const char* tag, obs::Counter& errors);

// --- fd <-> iostream glue --------------------------------------------
//
// Buffered streambufs over a non-blocking socket.  Reads poll for data
// (bounded by read_timeout_ms when >= 0); writes collect in a 64 KiB
// put area that drains on overflow and on flush(), polling for POLLOUT
// bounded by write_timeout_ms.  Every writer flushes after each
// record, so one record costs one write(2) per 64 KiB instead of one
// per token.  A write timeout evicts the peer (svc.evicted_conns) and a
// hard error records io.write_errors; both mark the connection dead so
// the owner stops servicing it.

inline constexpr std::size_t kStreamBufBytes = 64 * 1024;

class FdInBuf : public std::streambuf {
 public:
  /// read_timeout_ms < 0 blocks forever (a server reading its client);
  /// >= 0 bounds each poll — a proxy waiting on a shard reports EOF
  /// instead of hanging when the shard wedges.
  explicit FdInBuf(int fd, int read_timeout_ms = -1)
      : fd_(fd),
        timeout_ms_(read_timeout_ms),
        buf_(new char[kStreamBufBytes]) {}

 private:
  int_type underflow() override;

  int fd_;
  int timeout_ms_;
  std::unique_ptr<char[]> buf_;
};

class FdOutBuf : public std::streambuf {
 public:
  /// write_timeout_ms < 0 means block forever.  `dead`, when non-null,
  /// is set on eviction or hard write error so the owner stops
  /// servicing the connection.
  FdOutBuf(int fd, int write_timeout_ms, std::atomic<bool>* dead);
  /// Delivers what is still buffered on a live connection; a dead one
  /// has no peer left, so its bytes are discarded.
  ~FdOutBuf() override;

  /// Owner-invoked kill switch: sets `dead` and hard-closes the socket
  /// so the peer sees EOF.  Used when a response fails to serialize —
  /// a wedged output stream must not leave the connection half-alive.
  void mark_dead();

 private:
  int_type overflow(int_type c) override;
  int sync() override;
  /// Write out the put area and empty it (also on failure).
  bool drain();
  bool write_all(const char* p, std::size_t count);

  int fd_;
  int timeout_ms_;
  std::atomic<bool> own_dead_{false};
  std::atomic<bool>* dead_;  // never null: `dead` or own_dead_
  std::unique_ptr<char[]> buf_;
};

/// A dialed connection: a non-blocking socket with bounded iostreams.
/// ok() is false when the connect failed; the streams then fail at
/// once.  Destruction flushes what is buffered, then closes the socket.
class Stream {
 public:
  Stream(const Endpoint& ep, int read_timeout_ms, int write_timeout_ms);
  ~Stream();
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  bool ok() const { return fd_ >= 0; }
  std::istream& in() { return in_; }
  std::ostream& out() { return out_; }

 private:
  int fd_;
  FdInBuf in_buf_;
  FdOutBuf out_buf_;
  std::istream in_;
  std::ostream out_;
};

// --- daemon shutdown scaffolding -------------------------------------

/// Live-connection ledger for a TCP daemon: connection threads
/// register their fd, the acceptor half-closes everything at drain and
/// waits (bounded) for the table to empty.
struct ConnRegistry {
  std::mutex mu;
  std::condition_variable empty_cv;
  std::vector<int> fds;

  std::size_t count();
  void add(int fd);
  void remove(int fd);
  /// SHUT_RD: readers see EOF, pending responses still flow out.
  /// SHUT_RDWR: hard close for drain laggards.
  void shutdown_all(int how);
  /// Wait (bounded) for every connection thread to deregister.
  bool wait_empty(int budget_ms);
};

/// Arms a wall-clock bound on shutdown: if the owner has not finished
/// draining (destroyed the guard) within the budget, the process is
/// aborted — a wedged embedding or connection must not turn SIGTERM
/// into a hang.
class DrainGuard {
 public:
  explicit DrainGuard(int budget_ms);
  ~DrainGuard();
  DrainGuard(const DrainGuard&) = delete;
  DrainGuard& operator=(const DrainGuard&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread watcher_;
};

}  // namespace starring::net
