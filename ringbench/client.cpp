// The timed client: one request's round trip, the closed loop, and the
// open loop.  Every ok ring is checked here, on the client, before its
// clock stops.
#include <sys/socket.h>

#include <atomic>
#include <thread>

#include "core/ring_embedder.hpp"
#include "core/verify.hpp"
#include "ringbench.hpp"
#include "stargraph/star_graph.hpp"

namespace ringbench {
namespace {

/// Check one decoded response against its request: status ok, matching
/// id, ring length n! - 2|Fv|, verify_healthy_ring.  Empty when good.
std::string check_response(const Request& r,
                           const starring::ServiceResponse& resp) {
  if (resp.id != r.id)
    return "response id " + std::to_string(resp.id) + " for request " +
           std::to_string(r.id);
  if (resp.status != starring::ServiceStatus::kOk)
    return "status not ok: " + resp.reason;
  const std::uint64_t want =
      starring::expected_ring_length(r.n, r.faults.num_vertex_faults());
  if (resp.ring.size() != want)
    return "ring length " + std::to_string(resp.ring.size()) + ", want " +
           std::to_string(want);
  const starring::RingReport rep = starring::verify_healthy_ring(
      starring::StarGraph(r.n), r.faults, resp.ring);
  if (!rep.valid) return "client verification: " + rep.error;
  return {};
}

/// Read the response to `r` from `c` and check it; fills the reply half
/// of `s` (first_byte .. done).  `seq` numbers ok responses for the
/// corruption hook.
void receive(Conn& c, const Request& r, Sample& s, const ClientOptions& opt,
             std::uint64_t seq) {
  // Counted from here, a record's bytes include the newline the
  // previous record left behind.
  const std::uint64_t before =
      c.bytes_read() - static_cast<std::uint64_t>(c.in().rdbuf()->in_avail());
  if (!c.wait_readable()) {
    s.first_byte = s.decoded = s.done = Clock::now();
    s.error = "no response (connection closed or timed out)";
    return;
  }
  s.first_byte = Clock::now();
  std::string err;
  auto resp = starring::read_response(c.in(), &err);
  s.decoded = Clock::now();
  s.response_bytes =
      c.bytes_read() - static_cast<std::uint64_t>(c.in().rdbuf()->in_avail()) -
      before;
  if (!resp) {
    s.done = s.decoded;
    s.error = "malformed response: " + err;
    return;
  }
  s.answered = true;
  s.status_ok = resp->status == starring::ServiceStatus::kOk;
  s.cache_hit = resp->cache_hit;
  if (opt.corrupt_every > 0 && resp->ring.size() >= 2 &&
      seq % static_cast<std::uint64_t>(opt.corrupt_every) ==
          static_cast<std::uint64_t>(opt.corrupt_every) - 1)
    resp->ring[1] = resp->ring[0];  // a repeated vertex: never a ring
  s.error = check_response(r, *resp);
  s.ok = s.error.empty();
  s.done = Clock::now();
}

/// Send `r`, read its response, check it.  Fills every field of `s`
/// but start.
void round_trip(Conn& c, const Request& r, Sample& s, const ClientOptions& opt,
                std::uint64_t seq) {
  s.send_begin = Clock::now();
  const bool sent = c.send(r.wire);
  s.send_end = Clock::now();
  if (!sent) {
    s.first_byte = s.decoded = s.done = s.send_end;
    s.error = "send failed";
    return;
  }
  receive(c, r, s, opt, seq);
}

}  // namespace

void warm(Conn& c, const std::vector<Request>& reqs) {
  for (const Request& r : reqs) {
    Sample s;
    round_trip(c, r, s, ClientOptions{}, 0);
    if (!s.ok) throw BenchError("set-up request failed: " + s.error);
  }
}

LoopResult run_closed(Conn& c, Stream& stream, double seconds,
                      const ClientOptions& opt,
                      const std::vector<pid_t>& rss_pids) {
  const auto rss_now = [&] {
    double mb = 0.0;
    for (const pid_t p : rss_pids) mb += peak_rss_mb(p);
    return mb;
  };
  LoopResult res;
  res.window_start = Clock::now();
  res.window_end =
      res.window_start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds));
  std::uint64_t ok_seq = 0;
  while (Clock::now() < res.window_end) {
    res.requests.push_back(stream.next());
    Sample s;
    round_trip(c, res.requests.back(), s, opt, ok_seq);
    s.start = s.send_begin;
    if (s.answered) ++ok_seq;
    res.samples.push_back(std::move(s));
    if (res.samples.size() == kRssAfterRequests) res.rss_mb = rss_now();
  }
  if (res.rss_mb == 0.0) res.rss_mb = rss_now();
  return res;
}

LoopResult run_open(const std::vector<Conn*>& conns, WorkloadPlan& plan,
                    double seconds, double drain_s, const ClientOptions& opt) {
  LoopResult res;
  // The schedule is generated before the window opens: per stream, its
  // arrivals inside the window.
  std::vector<std::size_t> first;
  for (std::size_t k = 0; k < plan.streams.size(); ++k) {
    first.push_back(res.requests.size());
    for (const double due :
         arrival_times(plan.seed, k, plan.rates[k], seconds)) {
      res.requests.push_back(plan.streams[k]->next());
      res.requests.back().due_s = due;
    }
  }
  first.push_back(res.requests.size());
  res.samples.resize(res.requests.size());

  res.window_start = Clock::now() + std::chrono::milliseconds(20);
  res.window_end =
      res.window_start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds));
  for (std::size_t i = 0; i < res.requests.size(); ++i)
    res.samples[i].start =
        res.window_start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   res.requests[i].due_s));

  std::atomic<std::size_t> readers_done{0};
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < plan.streams.size(); ++k) {
    Conn& c = *conns[k];
    threads.emplace_back([&, k] {  // sender
      for (std::size_t i = first[k]; i < first[k + 1]; ++i) {
        Sample& s = res.samples[i];
        std::this_thread::sleep_until(s.start);
        s.send_begin = Clock::now();
        const bool sent = c.send(res.requests[i].wire);
        s.send_end = Clock::now();
        if (!sent) break;  // the reader reports the missing responses
      }
    });
    threads.emplace_back([&, k] {  // reader: responses arrive in order
      std::uint64_t ok_seq = 0;
      for (std::size_t i = first[k]; i < first[k + 1]; ++i) {
        Sample& s = res.samples[i];
        receive(c, res.requests[i], s, opt, ok_seq);
        if (s.answered) ++ok_seq;
        if (!s.answered) break;  // the connection is gone
      }
      readers_done.fetch_add(1);
    });
  }
  // Readers block in recv; past the drain deadline the sockets are shut
  // down under them so the run always ends.
  const Time deadline =
      res.window_end + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(drain_s));
  while (readers_done.load() < plan.streams.size() && Clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  if (readers_done.load() < plan.streams.size())
    for (Conn* c : conns) c->shutdown();
  for (std::thread& t : threads) t.join();
  for (Sample& s : res.samples)
    if (!s.answered && s.error.empty()) s.error = "no response";
  return res;
}

}  // namespace ringbench
