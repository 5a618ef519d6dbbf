// In-process layer replay.  The daemons record no span for encoding or
// transmitting a response, so the traced run feeds the workload's own
// request stream through the library's public functions here and
// times each call: canonicalize, CanonicalRingCache::lookup/insert,
// embed_longest_ring, relabel_ring, verify_healthy_ring,
// write_response/read_response to memory, and write_response through
// net::FdOutBuf to a loopback reader (the daemon's transmit path).
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <ostream>
#include <sstream>
#include <thread>

#include "core/ring_embedder.hpp"
#include "core/verify.hpp"
#include "ringbench.hpp"
#include "service/cache.hpp"
#include "service/canonical.hpp"
#include "stargraph/star_graph.hpp"
#include "util/net.hpp"

namespace ringbench {
namespace {

using starring::CanonicalForm;
using starring::CanonicalRingCache;

/// Time one call, appending its duration in the given unit.
template <typename Unit, typename F>
auto timed(std::vector<double>& out, F&& f) {
  const Time t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    out.push_back(std::chrono::duration<double, Unit>(Clock::now() - t0).count());
  } else {
    auto r = f();
    out.push_back(std::chrono::duration<double, Unit>(Clock::now() - t0).count());
    return r;
  }
}

/// A loopback connection whose far end a thread reads the way the
/// benchmark client does (the same buffered stream and read_response):
/// the receiving side of the daemon's transmit path.  The near end is
/// non-blocking and TCP_NODELAY, as starringd's accepted sockets are,
/// and the reader runs on another CPU than the writer, as the client
/// does; on one CPU every wake-up would be cheap.
class LoopbackSink {
 public:
  LoopbackSink() {
    std::string err;
    int port = 0;
    const int lfd = starring::net::listen_loopback(0, 1, &port, &err);
    if (lfd < 0) throw BenchError("replay: " + err);
    reader_ = std::make_unique<Conn>(port);
    writer_fd_ = ::accept(lfd, nullptr, nullptr);
    ::close(lfd);
    if (writer_fd_ < 0 || !starring::net::set_nonblocking(writer_fd_))
      throw BenchError("replay: loopback connection failed");
    const int one = 1;
    ::setsockopt(writer_fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    reader_thread_ = std::thread([this] {
      move_to_daemon_cpus();
      while (reader_->wait_readable() && starring::read_response(reader_->in())) {
      }
    });
  }
  ~LoopbackSink() {
    ::shutdown(writer_fd_, SHUT_RDWR);
    reader_thread_.join();
    ::close(writer_fd_);
  }
  LoopbackSink(const LoopbackSink&) = delete;
  LoopbackSink& operator=(const LoopbackSink&) = delete;

  int writer_fd() const { return writer_fd_; }

 private:
  std::unique_ptr<Conn> reader_;
  int writer_fd_ = -1;
  std::thread reader_thread_;
};

/// The daemon's embedding settings (starringd turns the oracle prewarm
/// on; everything else is the library default).
starring::EmbedOptions daemon_embed_options() {
  starring::EmbedOptions o;
  o.prewarm_oracle = true;
  return o;
}

CanonicalRingCache::RingPtr compute(const CanonicalForm& canon, int n) {
  auto res = starring::embed_longest_ring(starring::StarGraph(n), canon.faults,
                                          daemon_embed_options());
  if (!res) throw BenchError("replay: embedding failed for key " + canon.key);
  return std::make_shared<const std::vector<starring::VertexId>>(
      std::move(res->ring));
}

}  // namespace

ReplayResult replay(const std::vector<Request>& warmup,
                    const std::vector<Request>& timed_reqs,
                    const ReplayOptions& opt) {
  ReplayResult out;
  CanonicalRingCache cache(opt.cache_capacity);
  for (const Request& r : warmup) {
    const CanonicalForm canon = starring::canonicalize(r.n, r.faults);
    if (cache.lookup(canon.key) == nullptr)
      cache.insert(canon.key, compute(canon, r.n));
  }

  LoopbackSink sink;
  std::atomic<bool> dead{false};
  starring::net::FdOutBuf net_buf(sink.writer_fd(), 5000, &dead);
  std::ostream net_out(&net_buf);

  const Time stop_at =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opt.budget_s));
  for (std::size_t i = 0; i < timed_reqs.size() && i < opt.max_requests; ++i) {
    if (i > 0 && Clock::now() > stop_at) break;
    const Request& r = timed_reqs[i];
    const CanonicalForm canon = timed<std::micro>(
        out.canonicalize_us, [&] { return starring::canonicalize(r.n, r.faults); });
    CanonicalRingCache::RingPtr ring = timed<std::micro>(
        out.lookup_us, [&] { return cache.lookup(canon.key); });
    ++out.lookups;
    const bool hit = ring != nullptr;
    if (hit) {
      ++out.hits;
    } else {
      ring = timed<std::milli>(out.embed_ms, [&] { return compute(canon, r.n); });
      timed<std::micro>(out.insert_us, [&] { cache.insert(canon.key, ring); });
    }

    starring::ServiceResponse resp;
    resp.id = r.id;
    resp.status = starring::ServiceStatus::kOk;
    resp.cache_hit = hit;
    resp.ring = timed<std::milli>(out.relabel_ms, [&] {
      return starring::relabel_ring(*ring, starring::inverse_of(canon.to_canonical),
                                    r.n);
    });
    if (r.verify) {
      const starring::RingReport rep = timed<std::milli>(out.verify_ms, [&] {
        return starring::verify_healthy_ring(starring::StarGraph(r.n), r.faults,
                                             resp.ring);
      });
      if (!rep.valid) throw BenchError("replay: ring failed verification");
      resp.verified = true;
    }

    const std::string bytes = timed<std::milli>(out.encode_ms, [&] {
      std::ostringstream os;
      starring::write_response(os, resp);
      return os.str();
    });
    out.response_bytes.push_back(static_cast<double>(bytes.size()));
    timed<std::milli>(out.decode_ms, [&] {
      std::istringstream is(bytes);
      if (!starring::read_response(is)) throw BenchError("replay: decode failed");
    });
    if (out.net_write_ms.size() < opt.max_net_writes) {
      timed<std::milli>(out.net_write_ms, [&] {
        starring::write_response(net_out, resp);
        net_out.flush();
      });
      if (dead.load() || !net_out) throw BenchError("replay: loopback write failed");
    }
  }
  return out;
}

}  // namespace ringbench
