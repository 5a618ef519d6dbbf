// ringbench — the repository's end-to-end benchmark.
//
// One client process drives the shipped starringd / starring-proxy
// binaries over loopback TCP and checks every returned ring itself
// (verify_healthy_ring plus the Theorem 1 length n! - 2|Fv|).  The
// clock of a request runs from its first request byte (open loop: its
// scheduled send time) until the ring is decoded and client-verified.
//
// Pieces, one file each:
//   workloads.cpp  seeded request streams (the daemons see only bytes)
//   procs.cpp      daemon processes, control commands, /proc readings
//   client.cpp     timed connections, closed and open loops
//   replay.cpp     in-process replay of a request stream through the
//                  library's public functions, one timer per layer
//   main.cpp       topologies, set-up, metrics, ledger, JSON result
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "util/io.hpp"

namespace ringbench {

using Clock = std::chrono::steady_clock;
using Time = Clock::time_point;

inline double ms_between(Time a, Time b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// A benchmark-level failure (a daemon that will not start, a closed
/// socket during set-up): the run cannot produce numbers.
struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// --- statistics -------------------------------------------------------

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample;
/// 0 for an empty one.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// --- workloads --------------------------------------------------------

/// One embedding request as the client generated it.
struct Request {
  std::uint64_t id = 0;
  int n = 0;
  starring::FaultSet faults;
  bool verify = false;
  std::string tenant;  // empty: the line is omitted
  std::string wire;    // the encoded starring-request v1 record
  double due_s = 0.0;  // open loop: send offset from the window start
};

/// Deterministic request source for one connection.  A stream is a
/// function of (workload, seed, stream index) only.
class Stream {
 public:
  virtual ~Stream() = default;
  virtual Request next() = 0;
};

struct WorkloadPlan {
  std::uint64_t seed = 0;
  /// Open loop: each stream's Poisson arrival rate, req/s.  Empty for a
  /// closed loop.
  std::vector<double> rates;
  /// Latency limit of slo_met_pct, measured from the request's clock
  /// start.
  double slo_ms = 0.0;
  /// 1: one starringd, dialled directly.  2: two starringd shards
  /// formed with --bootstrap/--join behind one starring-proxy.
  int shards = 1;
  /// Extra flags for every starringd.
  std::vector<std::string> shard_flags;
  /// Cache capacity of one shard (the daemons' own setting), mirrored
  /// by the replay's cache.
  std::size_t shard_cache_capacity = 4096;
  /// Set-up requests in lanes: each lane is sent closed loop on its own
  /// connection, all lanes at once; every ring is verified, none timed.
  std::vector<std::vector<Request>> warmup;
  /// Timed request sources, one per connection.
  std::vector<std::unique_ptr<Stream>> streams;

  bool open_loop() const { return !rates.empty(); }
};

/// The plan of a named workload; throws BenchError for an unknown name.
WorkloadPlan make_plan(const std::string& workload, std::uint64_t seed);

/// Send offsets (seconds, sorted) of open-loop stream `stream`: a
/// Poisson process of `rate` over [0, seconds) conditioned on holding
/// exactly round(rate * seconds) arrivals, so every run offers the same
/// load.
std::vector<double> arrival_times(std::uint64_t seed, std::size_t stream,
                                  double rate, double seconds);

// --- processes --------------------------------------------------------

/// A spawned daemon.  stdout/stderr go to `log_path`; the listen port is
/// read back from the "listening on 127.0.0.1:PORT" line.  The child
/// is killed if this process dies first (PR_SET_PDEATHSIG).
class Daemon {
 public:
  Daemon(std::string label, const std::vector<std::string>& argv,
         const std::vector<std::string>& env, const std::string& log_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }
  int port() const { return port_; }
  /// SIGTERM, bounded wait, SIGKILL.  Idempotent.
  void stop();

 private:
  std::string label_;
  std::string log_path_;
  pid_t pid_ = -1;
  int port_ = 0;
};

/// Pin this process (and every thread it starts later) to one CPU and
/// every daemon spawned afterwards to the others, so the load generator
/// never competes with the servers for a core and the closed loops'
/// wake-ups always cross CPUs.  No-op with fewer than two CPUs.
/// Returns a one-line description.
std::string split_cpus();

/// Move the calling thread onto the daemons' CPUs (after split_cpus).
void move_to_daemon_cpus();

/// Peak resident set (VmHWM) of a live process, in MiB.
double peak_rss_mb(pid_t pid);
/// utime + stime of a live process, in ms.
double cpu_ms(pid_t pid);

/// A blocking loopback TCP connection with a large receive buffer.
/// Reads give up after `read_timeout_s` without data (seen as EOF).
class Conn {
 public:
  explicit Conn(int port, int read_timeout_s = 30);
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Write all of `bytes`; false on a socket error.
  bool send(const std::string& bytes);
  /// Block until at least one unread byte is buffered; false on EOF.
  bool wait_readable();
  std::istream& in() { return in_; }
  /// Response bytes consumed from the socket so far.
  std::uint64_t bytes_read() const { return buf_.bytes(); }
  /// Shut the socket down both ways: a reader blocked on it sees EOF.
  void shutdown();

 private:
  class InBuf : public std::streambuf {
   public:
    explicit InBuf(int fd);
    std::uint64_t bytes() const { return total_; }

   private:
    int_type underflow() override;
    int fd_;
    std::uint64_t total_ = 0;
    std::vector<char> buf_;
  };

  int fd_ = -1;
  InBuf buf_;
  std::istream in_;
};

/// Prometheus text from a bare STATS command, as name -> value (scalar
/// samples only; histogram buckets are skipped).
std::map<std::string, double> scrape_stats(int port);
/// The process's span flight recorder, via the bare TRACE command.
starring::TraceDump pull_trace(int port);
/// Members listed alive in the process's MEMBERS view.
std::vector<std::string> alive_members(int port);

// --- client -----------------------------------------------------------

/// One timed request, as the client saw it.  All times are absolute.
struct Sample {
  Time start{};           // clock start: first byte written / due time
  Time send_begin{};
  Time send_end{};
  Time first_byte{};
  Time decoded{};
  Time done{};            // client verification finished
  bool answered = false;  // a response record arrived
  bool status_ok = false; // ... with status ok
  bool ok = false;        // status ok, right length, client-verified
  bool cache_hit = false;
  std::uint64_t response_bytes = 0;
  std::string error;      // why !ok
};

struct ClientOptions {
  /// Test hook: corrupt every k-th ok response before verification
  /// (0 = never), to prove the verification gate is live.
  int corrupt_every = 0;
};

struct LoopResult {
  std::vector<Request> requests;  // every timed request, in send order
  std::vector<Sample> samples;    // parallel to requests
  Time window_start{};
  Time window_end{};              // scheduled end of the window
  /// closed loop: VmHWM sum read once kRssAfterRequests requests were
  /// done (or at the window end, if fewer were).
  double rss_mb = 0.0;
};

/// Closed loop over one connection: one request outstanding, until
/// `seconds` elapsed.  `rss_pids` are sampled for LoopResult::rss_mb.
LoopResult run_closed(Conn& c, Stream& stream, double seconds,
                      const ClientOptions& opt,
                      const std::vector<pid_t>& rss_pids);

/// Open loop: each of the plan's streams has its own connection, a
/// sender walking its arrival schedule and a reader verifying
/// responses.  Arrivals stop at `seconds`; stragglers get `drain_s`
/// more to arrive.
LoopResult run_open(const std::vector<Conn*>& conns, WorkloadPlan& plan,
                    double seconds, double drain_s, const ClientOptions& opt);

/// Closed-loop requests with no timing (set-up warm-up).  Throws
/// BenchError on any failed response.
void warm(Conn& c, const std::vector<Request>& reqs);

constexpr std::size_t kRssAfterRequests = 100;

// --- replay -----------------------------------------------------------

/// Per-call timings of the library's public functions over a request
/// stream, in process (no daemon, no socket except net.write).
struct ReplayResult {
  std::vector<double> canonicalize_us, lookup_us, insert_us, embed_ms,
      relabel_ms, verify_ms, encode_ms, decode_ms, net_write_ms;
  std::vector<double> response_bytes;
  std::size_t hits = 0, lookups = 0;
};

struct ReplayOptions {
  std::size_t cache_capacity = 4096;
  std::size_t max_requests = 64;   // timed requests replayed at most
  std::size_t max_net_writes = 32;  // FdOutBuf writes timed at most
  double budget_s = 5.0;           // stop early past this wall time
};

/// Replay `warmup` untimed (it fills the cache the way set-up filled the
/// daemons'), then time each call for a prefix of `timed`.
ReplayResult replay(const std::vector<Request>& warmup,
                    const std::vector<Request>& timed,
                    const ReplayOptions& opt);

}  // namespace ringbench
