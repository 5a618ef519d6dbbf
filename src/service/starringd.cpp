// starringd — long-running embedding daemon.
//
// Speaks the versioned starring-request/starring-response line protocol
// (util/io.hpp) over stdio (default) or TCP (--listen PORT, loopback).
// Requests flow through the EmbedService: bounded admission queue,
// same-dimension batching on the persistent thread pool, and the
// symmetry-canonical result cache.
//
// Shutdown/drain semantics:
//   stdio: EOF on stdin stops admission; every queued request is still
//          answered, stdout is flushed, exit 0.  A SIGINT/SIGTERM drain
//          is bounded by --drain-timeout-ms (overrun aborts the
//          process: a hung embedding must not wedge shutdown forever).
//   TCP:   SIGINT/SIGTERM stops accepting, half-closes live
//          connections (their reads see EOF), drains under the same
//          bound, escalating laggards to a hard close.
// Backpressure: the stdio reader blocks on a full queue, which stops
// consuming the pipe — the OS pipe buffer then backpressures the
// client.  TCP connections instead get `status rejected` responses so
// remote callers can retry elsewhere.
//
// Slow-client defense (TCP): connection sockets are non-blocking and
// every write polls POLLOUT with a --write-timeout-ms budget; a client
// that cannot drain its socket is evicted (svc.evicted_conns) rather
// than allowed to pin a response callback forever.  A hard write error
// (EPIPE, reset) marks the connection dead (io.write_errors) and stops
// servicing it.  --max-conns caps concurrent connections; excess
// accepts are answered `status rejected` and closed.
//
// Cluster membership (TCP + --shard-id only): the daemon runs a SWIM
// gossip agent (cluster/membership.hpp) when started with --bootstrap
// (first member of a brand-new cluster) or --join HOST:PORT (dial a
// running member and adopt its snapshot — live scale-out, no restart
// of the world).  It answers starring-gossip v1 probes inline, serves
// MEMBERS, and honors a graceful LEAVE: announce departure to every
// peer, stop accepting, drain in-flight work, exit 0 — peers see
// `left`, not a suspicion window, so no failover fires.
//
// The connection loop, the control commands, and the drain are the
// ones starring-proxy runs too (cluster/serve.hpp); this file supplies
// only what a shard answers differently and how it serves an embedding.
//
// With --bench-artifact NAME the daemon enables the metrics layer and
// writes BENCH_<NAME>.json (svc.* counters, latency histogram, cache
// hit rate) to $STARRING_BENCH_DIR on clean drain.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/membership.hpp"
#include "cluster/serve.hpp"
#include "core/oracle_store.hpp"
#include "obs/bench_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/service.hpp"
#include "util/io.hpp"

namespace starring {
namespace {

// SIGUSR1 asks for a flight-recorder dump without stopping the daemon;
// a watcher thread does the actual file I/O (signal-safe handlers
// cannot).
volatile std::sig_atomic_t g_dump = 0;
void on_dump_signal(int) { g_dump = 1; }

struct DaemonConfig {
  ServiceOptions svc;
  /// Identity, --listen (absent: stdio mode; 0: kernel-assigned),
  /// --join, SWIM tuning, and connection limits.
  serve::Daemon daemon;
  /// First member of a brand-new cluster (exclusive with --join).
  bool bootstrap = false;
  std::string bench_artifact;
  std::string trace_out;  // non-empty: tracing on, dump here
  /// Tracing on without a local dump file: spans stay in the flight
  /// recorder for a remote TRACE pull (the proxy's merged export).
  bool trace = false;
  std::string oracle_snapshot;  // non-empty: warm-start from this file
  /// Canonical rings from a loaded snapshot, handed to the EmbedService
  /// (which is constructed inside serve_daemon()) and consumed there.
  std::vector<OracleSnapshot::CanonicalRing> seed_rings;
};

/// Move the snapshot's canonical rings into the service's result cache.
void seed_service(EmbedService& svc, DaemonConfig& cfg) {
  for (OracleSnapshot::CanonicalRing& r : cfg.seed_rings)
    svc.seed_cache(r.key, std::move(r.ring));
  cfg.seed_rings.clear();
  cfg.seed_rings.shrink_to_fit();
}

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --queue-depth N      admission queue bound (default 256)\n"
      << "  --batch-max N        max requests per batch (default 16)\n"
      << "  --cache-capacity N   canonical embeddings kept (default 4096)\n"
      << "  --verify-on-hit      re-verify relabeled cache hits\n"
      << "  --tenant-rate R      per-tenant token-bucket refill, req/s\n"
      << "                       (default 0 = quotas off)\n"
      << "  --tenant-burst B     token-bucket depth (default: "
         "max(1, R))\n"
      << "  --drr-quantum N      requests per tenant per DRR visit at\n"
      << "                       batch formation (default 1)\n"
      << "  --threads N          embedding worker threads (0 = cores)\n"
      << "  --shard-id N         cluster identity, reported by HEALTH\n"
      << "  --bootstrap          start a brand-new cluster with self as "
         "the\n"
      << "                       only member; later members --join it\n"
      << "                       (both need --listen and --shard-id)\n"
      << serve::kFlagUsage
      << "  (without --listen the daemon serves stdin/stdout)\n"
      << "  --oracle-snapshot F  warm-start: seed the path-oracle memo "
         "and\n"
      << "                       canonical cache from this snapshot "
         "file\n"
      << "                       (written by `starring-cli warm`); a "
         "bad\n"
      << "                       snapshot is rejected and computation\n"
      << "                       proceeds cold\n"
      << "  --bench-artifact S   write BENCH_<S>.json on clean drain\n"
      << "  --trace-out FILE     enable tracing; dump Chrome trace JSON\n"
      << "                       on clean drain and on SIGUSR1\n"
      << "  --trace              enable tracing without a local dump; "
         "spans\n"
      << "                       are served to the TRACE command (the\n"
      << "                       proxy's merged cluster export)\n";
  return 2;
}

std::optional<DaemonConfig> parse_args(int argc, char** argv) {
  DaemonConfig cfg;
  cfg.svc.embed.prewarm_oracle = true;  // a daemon amortizes the warmup
  const auto num = [&](int* i) -> long {
    if (*i + 1 >= argc) return -1;
    return std::atol(argv[++*i]);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    long v = 0;
    if (a == "--queue-depth" && (v = num(&i)) > 0) {
      cfg.svc.queue_depth = static_cast<std::size_t>(v);
    } else if (a == "--batch-max" && (v = num(&i)) > 0) {
      cfg.svc.batch_max = static_cast<std::size_t>(v);
    } else if (a == "--cache-capacity" && (v = num(&i)) > 0) {
      cfg.svc.cache_capacity = static_cast<std::size_t>(v);
    } else if (a == "--verify-on-hit") {
      cfg.svc.verify_on_hit = true;
    } else if (a == "--tenant-rate" && i + 1 < argc) {
      cfg.svc.tenant_rate = std::atof(argv[++i]);
      if (cfg.svc.tenant_rate < 0) return std::nullopt;
    } else if (a == "--tenant-burst" && i + 1 < argc) {
      cfg.svc.tenant_burst = std::atof(argv[++i]);
      if (cfg.svc.tenant_burst < 0) return std::nullopt;
    } else if (a == "--drr-quantum" && (v = num(&i)) > 0) {
      cfg.svc.drr_quantum = static_cast<std::size_t>(v);
    } else if (a == "--threads" && (v = num(&i)) >= 0) {
      cfg.svc.embed.num_threads = static_cast<unsigned>(v);
    } else if (a == "--shard-id" && (v = num(&i)) >= 0) {
      cfg.daemon.shard_id = static_cast<int>(v);
    } else if (a == "--bootstrap") {
      cfg.bootstrap = true;
    } else if (serve::parse_flag(cfg.daemon, argc, argv, &i)) {
      // consumed: a flag starring-proxy takes too
    } else if (a == "--oracle-snapshot" && i + 1 < argc) {
      cfg.oracle_snapshot = argv[++i];
    } else if (a == "--bench-artifact" && i + 1 < argc) {
      cfg.bench_artifact = argv[++i];
    } else if (a == "--trace-out" && i + 1 < argc) {
      cfg.trace_out = argv[++i];
    } else if (a == "--trace") {
      cfg.trace = true;
    } else {
      return std::nullopt;
    }
  }
  // Membership needs a dialable identity: TCP and a shard id.
  const serve::Daemon& d = cfg.daemon;
  if (cfg.bootstrap && !d.join_addr.empty()) return std::nullopt;
  if ((cfg.bootstrap || !d.join_addr.empty()) &&
      (d.listen_port < 0 || d.shard_id < 0))
    return std::nullopt;
  return cfg;
}

/// Serve stdio (default) or TCP until EOF or a stop request.  A member
/// founds or joins its cluster before the service starts.
int serve_daemon(DaemonConfig& cfg) {
  serve::Daemon& d = cfg.daemon;
  d.name = "starringd";
  d.process =
      d.shard_id >= 0 ? "shard-" + std::to_string(d.shard_id) : "starringd";

  const bool tcp = d.listen_port >= 0;
  int listen_fd = -1;
  std::unique_ptr<cluster::MembershipAgent> agent;
  if (tcp) {
    // Listen first: a member's gossip identity is the actual listen
    // endpoint (PORT may be kernel-assigned).
    int port = 0;
    listen_fd = serve::listen(d, &port);
    if (listen_fd < 0) return 1;
    if (cfg.bootstrap || !d.join_addr.empty()) {
      agent = serve::form_cluster(d, port);
      if (!agent) {
        ::close(listen_fd);
        return 1;
      }
      agent->start();
      d.agent = agent.get();
    }
  }

  EmbedService svc(cfg.svc);
  seed_service(svc, cfg);
  d.health = [&svc](HealthInfo& h) {
    h.cache_entries = svc.cache_size();
    h.cache_hits = static_cast<std::uint64_t>(
        obs::counter("svc.cache_hits").value());
    h.cache_misses = static_cast<std::uint64_t>(
        obs::counter("svc.cache_misses").value());
    h.inflight = svc.inflight();
  };
  d.seed = [&svc](ServiceRequest& req) {
    // Proxy-initiated read-through replication: insert the pushed
    // canonical ring as if it came from a snapshot warm start.  Trust
    // boundary is the same as FAIL — loopback peers are operators.
    std::string why;
    if (req.seed_key.empty())
      why = "empty key";
    else if (req.seed_ring.empty())
      why = "empty ring";
    else
      svc.seed_cache(req.seed_key, std::move(req.seed_ring));
    obs::counter(why.empty() ? "svc.seeds_accepted" : "svc.seeds_rejected")
        .add();
    return why;
  };
  // The slow-request recorder lives in the proxy; a shard answers the
  // framed record with an empty report so callers can issue SLOW
  // cluster-wide without special-casing.
  d.slow = [] { return std::string("# slow-request recorder: not a proxy\n"); };
  d.session = [&svc, tcp] {
    return serve::Session([&svc, tcp](ServiceRequest&& req,
                                      serve::Connection& conn) {
      // Responses complete out of submission order across batches; ids
      // correlate them.  On stdio a full queue blocks the reader, and
      // the pipe buffer backpressures the writer on the other side; a
      // TCP caller instead gets an explicit bounce, so it can back off
      // or retry elsewhere.
      const std::uint64_t id = req.id;
      if (svc.submit(std::move(req), conn.defer(), /*wait=*/!tcp)) return;
      ServiceResponse rej;
      rej.id = id;
      rej.status = ServiceStatus::kRejected;
      rej.reason = "queue full";
      conn.send(rej);
    });
  };

  int rc = 0;
  if (tcp)
    serve::serve_tcp(d, listen_fd);
  else if (!serve::serve_connection(d, STDIN_FILENO, STDOUT_FILENO))
    rc = 1;
  svc.drain();
  return rc;
}

int daemon_main(int argc, char** argv) {
  auto cfg = parse_args(argc, argv);
  if (!cfg) return usage(argv[0]);

  serve::install_signal_handlers();

  // A live daemon is meant to be inspected (STATS), so the metrics
  // layer is always on here; batch tools still opt in via BenchRecorder
  // or STARRING_METRICS.
  obs::set_enabled(true);

  // Cluster members mint trace/span ids in a per-process namespace so
  // a merged trace file never sees two processes reuse an id (shard k
  // gets namespace k+1; the proxy keeps the default 0).
  if (cfg->daemon.shard_id >= 0)
    obs::trace::set_id_namespace(
        static_cast<std::uint32_t>(cfg->daemon.shard_id) + 1);

  if (!cfg->oracle_snapshot.empty()) {
    // Warm start.  A rejected snapshot is a logged degradation, not a
    // startup failure: the daemon serves identical answers either way,
    // just colder.  snapshot_load_ms is greppable — the CI cold-start
    // smoke compares it against the warm run's warm_compute_ms.
    const auto t0 = std::chrono::steady_clock::now();
    std::string err;
    if (auto snap = load_oracle_snapshot(cfg->oracle_snapshot, &err)) {
      BlockOracle::import_memo(snap->memo);
      cfg->seed_rings = std::move(snap->rings);
      const double load_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - t0)
              .count();
      std::fprintf(stderr,
                   "starringd: snapshot_load_ms %.3f (%zu canonical rings, "
                   "%zu memo entries) from %s\n",
                   load_ms, cfg->seed_rings.size(), snap->memo.size(),
                   cfg->oracle_snapshot.c_str());
    } else {
      std::cerr << "starringd: snapshot rejected (" << err
                << "); starting cold\n";
    }
  }

  std::unique_ptr<obs::BenchRecorder> rec;
  if (!cfg->bench_artifact.empty())
    rec = std::make_unique<obs::BenchRecorder>(cfg->bench_artifact);

  if (cfg->trace) obs::trace::set_enabled(true);
  std::thread dump_watcher;
  std::atomic<bool> dump_watcher_stop{false};
  if (!cfg->trace_out.empty()) {
    obs::trace::set_enabled(true);
    std::signal(SIGUSR1, on_dump_signal);
    const std::string path = cfg->trace_out;
    dump_watcher = std::thread([path, &dump_watcher_stop] {
      while (!dump_watcher_stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        if (g_dump != 0) {
          g_dump = 0;
          if (!obs::trace::write_chrome_trace_file(path))
            std::cerr << "starringd: cannot write trace to " << path
                      << "\n";
          else
            std::cerr << "starringd: trace dumped to " << path << "\n";
        }
      }
    });
  }

  const int rc = serve_daemon(*cfg);

  if (!cfg->trace_out.empty()) {
    dump_watcher_stop.store(true, std::memory_order_relaxed);
    dump_watcher.join();
    if (!obs::trace::write_chrome_trace_file(cfg->trace_out)) {
      std::cerr << "starringd: cannot write trace to " << cfg->trace_out
                << "\n";
      return rc == 0 ? 1 : rc;
    }
  }

  if (rec) {
    const double hits =
        static_cast<double>(obs::counter("svc.cache_hits").value());
    const double misses =
        static_cast<double>(obs::counter("svc.cache_misses").value());
    rec->add_counter("svc.cache_hit_rate",
                     hits + misses > 0 ? hits / (hits + misses) : 0.0);
  }
  return rc;
}

}  // namespace
}  // namespace starring

int main(int argc, char** argv) {
  return starring::daemon_main(argc, argv);
}
