// ringbench entry point.
//
//   ringbench --workload NAME --seed N --seconds S --trace 0|1
//             [--build-dir DIR] [--run-dir DIR] [--corrupt-every K]
//
// --trace 0 (end-to-end run): set up the workload's daemons five times
// (set-up time is the median; the last set-up stays up), then drive one
// timed window of S seconds with tracing off and report the end-to-end
// metrics.
//
// --trace 1 (per-layer run): an untraced window of S/2 seconds (the
// base of the tracing overhead and of the CPU figures), then a window
// of S/2 seconds against daemons started with tracing on, bracketed by
// STATS scrapes and followed by a TRACE pull, then the in-process layer
// replay of that window's requests.  Prints the latency ledger on
// stderr and the per-layer metrics.
//
// The last line of stdout is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every request was answered ok and its ring
// client-verified, 1 when not (the object is still printed), 2 when the
// run could not produce numbers at all.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <optional>
#include <set>
#include <thread>

#include "ringbench.hpp"

namespace ringbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

namespace {

constexpr int kSetupRounds = 5;
constexpr double kOpenDrainS = 5.0;
// Open-loop validity: the generator may send at most this late (p99),
// and the backlog (requests due and not yet answered) may not grow by
// more than this many requests from the first to the last tenth of the
// window.
constexpr double kLateBoundMs = 10.0;
constexpr double kBacklogGrowthBound = 5.0;
constexpr double kMembershipTimeoutS = 20.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string build_dir = ".bench_build";
  std::string run_dir;
  int corrupt_every = 0;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--build-dir") {
      a.build_dir = v;
    } else if (k == "--run-dir") {
      a.run_dir = v;
    } else if (k == "--corrupt-every") {
      a.corrupt_every = std::atoi(v.c_str());
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_workload || a.seconds <= 0) return std::nullopt;
  if (a.run_dir.empty()) a.run_dir = a.build_dir + "/run/" + a.workload;
  return a;
}

double seconds_since(Time t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- topology and set-up ---------------------------------------------

/// The daemons of one set-up: one starringd, or two shards formed with
/// --bootstrap/--join behind a starring-proxy that joined through
/// shard 0.  Clients dial entry_port().
class Topology {
 public:
  Topology(const WorkloadPlan& plan, const Args& args, bool traced, int round) {
    const std::string starringd = args.build_dir + "/starring/service/starringd";
    const std::string proxy = args.build_dir + "/starring/cluster/starring-proxy";
    std::vector<std::string> env;
    if (traced) env.push_back("STARRING_TRACE_BUFFER=65536");
    const auto log = [&](const std::string& label) {
      return args.run_dir + "/" + label + (traced ? "-traced-" : "-") +
             std::to_string(round) + ".log";
    };
    const auto flags = [&](std::vector<std::string> argv) {
      argv.insert(argv.end(), plan.shard_flags.begin(), plan.shard_flags.end());
      if (traced) argv.push_back("--trace");
      return argv;
    };
    if (plan.shards == 1) {
      shards_.push_back(std::make_unique<Daemon>(
          "starringd", flags({starringd, "--listen", "0"}), env,
          log("starringd")));
      return;
    }
    std::string seed_addr;
    for (int k = 0; k < plan.shards; ++k) {
      std::vector<std::string> argv = {starringd, "--listen", "0", "--shard-id",
                                       std::to_string(k)};
      if (k == 0) {
        argv.push_back("--bootstrap");
      } else {
        argv.push_back("--join");
        argv.push_back(seed_addr);
      }
      const std::string label = "shard" + std::to_string(k);
      shards_.push_back(
          std::make_unique<Daemon>(label, flags(argv), env, log(label)));
      if (k == 0)
        seed_addr = "127.0.0.1:" + std::to_string(shards_[0]->port());
    }
    std::vector<std::string> proxy_env = env;
    if (traced) proxy_env.push_back("STARRING_TRACE=1");
    proxy_ = std::make_unique<Daemon>(
        "proxy",
        std::vector<std::string>{proxy, "--join", seed_addr, "--listen", "0"},
        proxy_env, log("proxy"));
    // Membership convergence: the proxy routes only to shards it has
    // heard are alive.
    std::set<std::string> want;
    for (const auto& s : shards_)
      want.insert("127.0.0.1:" + std::to_string(s->port()));
    const Time t0 = Clock::now();
    while (true) {
      const std::vector<std::string> alive = alive_members(proxy_->port());
      if (std::set<std::string>(alive.begin(), alive.end()) == want) break;
      if (seconds_since(t0) > kMembershipTimeoutS)
        throw BenchError("proxy never saw every shard alive");
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  int entry_port() const { return proxy_ ? proxy_->port() : shards_[0]->port(); }
  const std::vector<std::unique_ptr<Daemon>>& shards() const { return shards_; }
  const Daemon* proxy() const { return proxy_.get(); }

  std::vector<pid_t> server_pids() const {
    std::vector<pid_t> out;
    for (const auto& s : shards_) out.push_back(s->pid());
    if (proxy_) out.push_back(proxy_->pid());
    return out;
  }

  /// Proxy first, so no shard sees its router fail over.
  void stop() {
    if (proxy_) proxy_->stop();
    for (auto& s : shards_) s->stop();
  }

 private:
  std::vector<std::unique_ptr<Daemon>> shards_;
  std::unique_ptr<Daemon> proxy_;
};

struct Live {
  std::unique_ptr<Topology> topo;
  std::vector<std::unique_ptr<Conn>> conns;  // one per stream
  double setup_s = 0.0;

  void stop() {
    conns.clear();
    if (topo) topo->stop();
  }
};

/// Start the daemons, connect, and send the workload's warm-up: the
/// interval setup_s measures ends where the first timed request starts.
Live set_up(const WorkloadPlan& plan, const Args& args, bool traced, int round) {
  Live l;
  const Time t0 = Clock::now();
  l.topo = std::make_unique<Topology>(plan, args, traced, round);
  std::vector<std::thread> lanes;
  std::vector<std::string> errors(plan.warmup.size());
  for (std::size_t k = 0; k < plan.warmup.size(); ++k)
    lanes.emplace_back([&, k] {
      try {
        Conn c(l.topo->entry_port());
        warm(c, plan.warmup[k]);
      } catch (const std::exception& e) {
        errors[k] = e.what();
      }
    });
  for (std::thread& t : lanes) t.join();
  for (const std::string& e : errors)
    if (!e.empty()) throw BenchError(e);
  for (std::size_t k = 0; k < plan.streams.size(); ++k)
    l.conns.push_back(std::make_unique<Conn>(l.topo->entry_port()));
  l.setup_s = seconds_since(t0);
  return l;
}

LoopResult run_window(WorkloadPlan& plan, Live& live, double seconds,
                      const ClientOptions& opt) {
  const std::vector<pid_t> pids = live.topo->server_pids();
  if (!plan.open_loop())
    return run_closed(*live.conns[0], *plan.streams[0], seconds, opt, pids);
  std::vector<Conn*> conns;
  for (auto& c : live.conns) conns.push_back(c.get());
  LoopResult res = run_open(conns, plan, seconds, kOpenDrainS, opt);
  for (const pid_t p : pids) res.rss_mb += peak_rss_mb(p);
  return res;
}

// --- end-to-end summary ------------------------------------------------

struct Summary {
  std::size_t attempted = 0, answered = 0, status_ok = 0, ok = 0;
  double p50 = 0, p90 = 0, p99 = 0;
  double throughput_rps = 0, slo_met_pct = 0, bytes_per_req = 0;
  std::string first_error;
};

Summary summarize(const LoopResult& r, double slo_ms) {
  Summary s;
  s.attempted = r.samples.size();
  std::vector<double> lat;
  double bytes = 0.0;
  std::size_t in_slo = 0;
  Time last = r.window_end;
  for (const Sample& x : r.samples) {
    s.answered += x.answered ? 1 : 0;
    s.status_ok += x.status_ok ? 1 : 0;
    if (!x.ok) {
      if (s.first_error.empty()) s.first_error = x.error;
      continue;
    }
    ++s.ok;
    const double ms = ms_between(x.start, x.done);
    lat.push_back(ms);
    bytes += static_cast<double>(x.response_bytes);
    if (ms <= slo_ms) ++in_slo;
    last = std::max(last, x.done);
  }
  s.p50 = quantile(lat, 0.50);
  s.p90 = quantile(lat, 0.90);
  s.p99 = quantile(lat, 0.99);
  const double elapsed_s =
      std::chrono::duration<double>(last - r.window_start).count();
  s.throughput_rps = elapsed_s > 0 ? static_cast<double>(s.ok) / elapsed_s : 0;
  s.slo_met_pct = s.attempted > 0 ? 100.0 * static_cast<double>(in_slo) /
                                        static_cast<double>(s.attempted)
                                  : 0.0;
  s.bytes_per_req = s.ok > 0 ? bytes / static_cast<double>(s.ok) : 0.0;
  return s;
}

struct OpenHealth {
  double late_p99_ms = 0;
  std::size_t offered = 0, answered = 0, backlog_end = 0;
  double backlog_growth = 0;  // requests
  std::string invalid;        // non-empty: the run measured nothing
};

/// Generator lateness and backlog of an open-loop window.
OpenHealth open_health(const LoopResult& r) {
  OpenHealth h;
  std::vector<double> late;
  for (const Sample& x : r.samples) {
    if (x.send_begin != Time{}) late.push_back(ms_between(x.start, x.send_begin));
    h.answered += x.answered ? 1 : 0;
  }
  h.offered = r.samples.size();
  h.late_p99_ms = quantile(late, 0.99);
  // Requests due by t and not answered by t.
  const auto backlog = [&](Time t) {
    std::size_t b = 0;
    for (const Sample& x : r.samples)
      if (x.start <= t && (!x.answered || x.done > t)) ++b;
    return static_cast<double>(b);
  };
  const Clock::duration span = r.window_end - r.window_start;
  std::vector<double> at;
  for (int k = 1; k <= 10; ++k) at.push_back(backlog(r.window_start + span * k / 10));
  h.backlog_end = static_cast<std::size_t>(at.back());
  h.backlog_growth = (at[7] + at[8] + at[9]) / 3 - (at[0] + at[1] + at[2]) / 3;
  if (h.late_p99_ms > kLateBoundMs)
    h.invalid = "generator ran late: p99 " + std::to_string(h.late_p99_ms) +
                " ms > " + std::to_string(kLateBoundMs) + " ms";
  else if (h.backlog_growth > kBacklogGrowthBound)
    h.invalid = "backlog grew by " + std::to_string(h.backlog_growth) +
                " requests over the window";
  return h;
}

// --- daemon-side numbers -------------------------------------------------

using Stats = std::map<std::string, double>;

double stat(const Stats& s, const std::string& dotted) {
  std::string key = "starring_";
  for (const char c : dotted)
    key.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
  const auto it = s.find(key);
  return it == s.end() ? 0.0 : it->second;
}

/// Sum over processes of after - before.
double delta(const std::vector<Stats>& before, const std::vector<Stats>& after,
             const std::string& name) {
  double d = 0.0;
  for (std::size_t i = 0; i < after.size(); ++i)
    d += stat(after[i], name) - stat(before[i], name);
  return d;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Span durations by name (ms) of the spans that started inside the
/// window; the proxy's self time (each proxy.request minus the
/// proxy.forward.s<k> attempts under it); and the deepest any one
/// daemon's queue got (svc.queue_wait spans open at once).
struct SpanTable {
  explicit SpanTable(Time window_start)
      : from_ns_(std::chrono::duration_cast<std::chrono::nanoseconds>(
                     window_start.time_since_epoch())
                     .count()) {}

  std::map<std::string, std::vector<double>> ms;
  std::vector<double> proxy_self_ms;
  std::uint64_t dropped = 0;
  std::size_t queue_depth_max = 0;

  void add(const starring::TraceDump& d) {
    dropped += d.dropped;
    std::map<std::uint64_t, double> forward_under;
    std::vector<std::pair<std::int64_t, int>> queue_edges;
    for (const auto& s : d.spans) {
      // Both clocks are CLOCK_MONOTONIC, so the dump's epoch places its
      // spans on this process's timeline.
      const std::int64_t start = static_cast<std::int64_t>(d.epoch_ns) + s.start_ns;
      if (start < from_ns_) continue;  // set-up traffic
      const double dur = static_cast<double>(s.dur_ns) / 1e6;
      const bool fwd = s.name.rfind("proxy.forward.", 0) == 0;
      ms[fwd ? "proxy.forward" : s.name].push_back(dur);
      if (fwd) forward_under[s.parent_id] += dur;
      if (s.name == "svc.queue_wait") {
        queue_edges.emplace_back(start, 1);
        queue_edges.emplace_back(start + s.dur_ns, -1);
      }
    }
    for (const auto& s : d.spans)
      if (s.name == "proxy.request" &&
          static_cast<std::int64_t>(d.epoch_ns) + s.start_ns >= from_ns_)
        proxy_self_ms.push_back(static_cast<double>(s.dur_ns) / 1e6 -
                                forward_under[s.span_id]);
    std::sort(queue_edges.begin(), queue_edges.end());  // exits before entries
    int depth = 0;
    for (const auto& [t, step] : queue_edges) {
      depth += step;
      queue_depth_max = std::max(queue_depth_max, static_cast<std::size_t>(depth));
    }
  }
  double med(const std::string& name) const {
    const auto it = ms.find(name);
    return it == ms.end() ? 0.0 : median(it->second);
  }
  double q(const std::string& name, double p) const {
    const auto it = ms.find(name);
    return it == ms.end() ? 0.0 : quantile(it->second, p);
  }

 private:
  std::int64_t from_ns_;
};

// --- output ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

void report_summary(const std::string& tag, const Summary& s) {
  std::fprintf(stderr,
               "ringbench: %s: attempted %zu, answered %zu, status ok %zu, "
               "client-verified %zu, failed %zu; p50 %.3f ms, p90 %.3f ms, "
               "p99 %.3f ms over %zu samples\n",
               tag.c_str(), s.attempted, s.answered, s.status_ok, s.ok,
               s.attempted - s.ok, s.p50, s.p90, s.p99, s.ok);
  if (!s.first_error.empty())
    std::fprintf(stderr, "ringbench: %s: first failure: %s\n", tag.c_str(),
                 s.first_error.c_str());
}

// --- the two run kinds ------------------------------------------------------

int end_to_end_run(const Args& args, const ClientOptions& opt) {
  WorkloadPlan plan = make_plan(args.workload, args.seed);
  std::vector<double> setups;
  Live live;
  for (int round = 0; round < kSetupRounds; ++round) {
    if (round > 0) live.stop();
    live = set_up(plan, args, /*traced=*/false, round);
    setups.push_back(live.setup_s);
  }
  const LoopResult loop = run_window(plan, live, args.seconds, opt);
  live.stop();

  const Summary s = summarize(loop, plan.slo_ms);
  report_summary(args.workload, s);
  bool correct = s.ok == s.attempted && s.attempted > 0;
  if (plan.open_loop()) {
    const OpenHealth h = open_health(loop);
    std::fprintf(stderr,
                 "ringbench: %s: offered %zu, answered %zu, backlog at end %zu, "
                 "backlog growth %.1f, generator late p99 %.3f ms\n",
                 args.workload.c_str(), h.offered, h.answered, h.backlog_end,
                 h.backlog_growth, h.late_p99_ms);
    if (!h.invalid.empty()) {
      std::fprintf(stderr, "ringbench: %s: INVALID run: %s\n",
                   args.workload.c_str(), h.invalid.c_str());
      correct = false;
    }
  }
  std::fprintf(stderr, "ringbench: %s: set-up times (s):", args.workload.c_str());
  for (const double t : setups) std::fprintf(stderr, " %.3f", t);
  std::fprintf(stderr, "\n");

  print_result(correct, s.attempted, s.attempted - s.ok,
               {{"latency_p50_ms", s.p50, "ms"},
                {"latency_p90_ms", s.p90, "ms"},
                {"latency_p99_ms", s.p99, "ms"},
                {"throughput_rps", s.throughput_rps, "1/s"},
                {"slo_met_pct", s.slo_met_pct, "%"},
                {"response_bytes_per_req", s.bytes_per_req, "bytes"},
                {"server_rss_mb", loop.rss_mb, "MiB"},
                {"setup_s", median(setups), "s"}});
  return correct ? 0 : 1;
}

/// Medians of the client's own spans over the ok requests of a window,
/// and the least share of any request's latency they cover.
struct ClientSpans {
  double send = 0, wait = 0, receive = 0, verify = 0, late = 0;
  double coverage_pct = 0;
};

ClientSpans client_spans(const LoopResult& r) {
  std::vector<double> send, wait, receive, verify, late, cover;
  for (const Sample& x : r.samples) {
    if (!x.ok) continue;
    send.push_back(ms_between(x.send_begin, x.send_end));
    wait.push_back(ms_between(x.send_end, x.first_byte));
    receive.push_back(ms_between(x.first_byte, x.decoded));
    verify.push_back(ms_between(x.decoded, x.done));
    late.push_back(ms_between(x.start, x.send_begin));
    // Union of the spans, clipped to the request's clock.
    std::vector<std::pair<Time, Time>> iv = {{x.start, x.send_begin},
                                             {x.send_begin, x.send_end},
                                             {x.send_end,
                                              x.first_byte},
                                             {x.first_byte, x.decoded},
                                             {x.decoded, x.done}};
    std::sort(iv.begin(), iv.end());
    Clock::duration covered{0};
    Time reach = x.start;
    for (auto [a, b] : iv) {
      a = std::max(a, reach);
      b = std::min(b, x.done);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    const double total = ms_between(x.start, x.done);
    cover.push_back(total > 0 ? 100.0 *
                                    std::chrono::duration<double, std::milli>(
                                        covered)
                                        .count() /
                                    total
                              : 100.0);
  }
  ClientSpans c;
  c.send = median(send);
  c.wait = median(wait);
  c.receive = median(receive);
  c.verify = median(verify);
  c.late = median(late);
  c.coverage_pct = cover.empty() ? 0.0 : *std::min_element(cover.begin(), cover.end());
  return c;
}

int traced_run(const Args& args, const ClientOptions& opt) {
  const double half = args.seconds / 2;

  // A: untraced window — the base of the tracing overhead and CPU cost.
  WorkloadPlan plan_a = make_plan(args.workload, args.seed);
  Live live = set_up(plan_a, args, /*traced=*/false, 0);
  std::vector<double> cpu0;
  for (const pid_t p : live.topo->server_pids()) cpu0.push_back(cpu_ms(p));
  const LoopResult loop_a = run_window(plan_a, live, half, opt);
  double shard_cpu = 0, proxy_cpu = 0;
  {
    const std::vector<pid_t> pids = live.topo->server_pids();
    for (std::size_t i = 0; i < pids.size(); ++i) {
      const double d = cpu_ms(pids[i]) - cpu0[i];
      (i < live.topo->shards().size() ? shard_cpu : proxy_cpu) += d;
    }
  }
  live.stop();
  const Summary sa = summarize(loop_a, plan_a.slo_ms);
  report_summary(args.workload + " (untraced window)", sa);

  // B: traced window, bracketed by STATS.
  WorkloadPlan plan = make_plan(args.workload, args.seed);
  live = set_up(plan, args, /*traced=*/true, 0);
  const auto scrape_all = [&](std::vector<Stats>& shards, Stats& proxy) {
    for (const auto& d : live.topo->shards()) shards.push_back(scrape_stats(d->port()));
    if (live.topo->proxy()) proxy = scrape_stats(live.topo->proxy()->port());
  };
  std::vector<Stats> before, after;
  Stats proxy_before, proxy_after;
  scrape_all(before, proxy_before);
  const LoopResult loop = run_window(plan, live, half, opt);
  scrape_all(after, proxy_after);
  SpanTable spans(loop.window_start);
  for (const auto& d : live.topo->shards()) spans.add(pull_trace(d->port()));
  if (live.topo->proxy()) spans.add(pull_trace(live.topo->proxy()->port()));
  live.stop();
  const Summary s = summarize(loop, plan.slo_ms);
  report_summary(args.workload + " (traced window)", s);

  // C: in-process replay of the traced window's requests.
  std::vector<Request> warmup;
  for (const auto& w : plan.warmup) warmup.insert(warmup.end(), w.begin(), w.end());
  ReplayOptions ro;
  ro.cache_capacity = plan.shard_cache_capacity * static_cast<std::size_t>(plan.shards);
  if (plan.open_loop()) {
    ro.max_requests = 600;
    ro.max_net_writes = 100;
  }
  std::vector<Request> timed_reqs = loop.requests;
  if (plan.open_loop())  // replay in arrival order across the tenants
    std::stable_sort(timed_reqs.begin(), timed_reqs.end(),
                     [](const Request& a, const Request& b) { return a.due_s < b.due_s; });
  const ReplayResult rp = replay(warmup, timed_reqs, ro);

  const ClientSpans cs = client_spans(loop);
  const std::vector<Stats> pb = {proxy_before}, pa = {proxy_after};
  const double calls = delta(before, after, "embed.calls");
  const double verifies = delta(before, after, "verify.calls");
  const double hits = delta(before, after, "svc.cache_hits");
  const double misses = delta(before, after, "svc.cache_misses");
  const double ohits = delta(before, after, "oracle.cache_hits");
  const double omisses = delta(before, after, "oracle.cache_misses");
  const auto phase_ms = [&](const char* phase) {
    return ratio(delta(before, after, std::string("phase.") + phase + "_ns") / 1e6,
                 calls);
  };
  const double a_n = static_cast<double>(loop_a.samples.size());

  OpenHealth h;
  if (plan.open_loop()) {
    h = open_health(loop);
  } else {
    h.offered = loop.samples.size();
    h.answered = s.answered;
  }
  const double net_write = median(rp.net_write_ms);
  const double encode = median(rp.encode_ms);
  const double decode = median(rp.decode_ms);
  // What the server-side layers leave unexplained.  Until the first
  // response byte the client waits on the entry process's request span
  // (the daemon's, or behind the proxy the proxy's, which holds the
  // shard's); after it, the response arrives at the pace of the entry
  // process's write through FdOutBuf, which the replay times.
  const double entry_span =
      plan.shards > 1 ? spans.med("proxy.request") : spans.med("svc.request");
  const double wait_rest = cs.wait - entry_span;
  const double receive_rest = cs.receive - net_write;
  const double unattributed = wait_rest + receive_rest;

  const std::vector<Metric> metrics = {
      {"client.send_ms", cs.send, "ms"},
      {"client.wait_ms", cs.wait, "ms"},
      {"client.receive_ms", cs.receive, "ms"},
      {"client.verify_ms", cs.verify, "ms"},
      {"client.coverage_pct", cs.coverage_pct, "%"},
      {"net.write_ms", net_write, "ms"},
      {"io.encode_ms", encode, "ms"},
      {"io.decode_ms", decode, "ms"},
      {"io.response_bytes", median(rp.response_bytes), "bytes"},
      {"canonical.canonicalize_us", median(rp.canonicalize_us), "us"},
      {"canonical.relabel_ms", median(rp.relabel_ms), "ms"},
      {"cache.lookup_us", median(rp.lookup_us), "us"},
      {"cache.insert_us", median(rp.insert_us), "us"},
      {"cache.hit_rate", ratio(static_cast<double>(rp.hits),
                               static_cast<double>(rp.lookups)), "ratio"},
      {"svc.cache_hit_rate", ratio(hits, hits + misses), "ratio"},
      {"svc.cache_evictions", delta(before, after, "svc.cache_evictions"), "count"},
      {"core.embed_ms", median(rp.embed_ms), "ms"},
      {"embed.partition_select_ms", phase_ms("partition_select"), "ms"},
      {"embed.super_ring_ms", phase_ms("super_ring"), "ms"},
      {"embed.chain_ms",
       phase_ms("chain_block_infos") + phase_ms("chain_expanders") +
           phase_ms("chain_exits") + phase_ms("chain_search"),
       "ms"},
      {"embed.chain_emit_ms", phase_ms("chain_emit"), "ms"},
      {"oracle.hit_rate", ratio(ohits, ohits + omisses), "ratio"},
      {"core.verify_ms", median(rp.verify_ms), "ms"},
      {"svc.verify_ms", ratio(delta(before, after, "phase.verify_ns") / 1e6, verifies),
       "ms"},
      {"svc.request_ms", spans.med("svc.request"), "ms"},
      {"svc.canonicalize_us", spans.med("svc.canonicalize") * 1e3, "us"},
      {"svc.cache_probe_us", spans.med("svc.cache_probe") * 1e3, "us"},
      {"svc.embed_ms", spans.med("svc.embed"), "ms"},
      {"svc.relabel_ms", spans.med("svc.relabel"), "ms"},
      {"svc.queue_wait_ms_p50", spans.q("svc.queue_wait", 0.50), "ms"},
      {"svc.queue_wait_ms_p99", spans.q("svc.queue_wait", 0.99), "ms"},
      {"svc.batch_size_mean",
       ratio(delta(before, after, "svc.requests"), delta(before, after, "svc.batches")),
       "count"},
      {"svc.batches", delta(before, after, "svc.batches"), "count"},
      {"svc.queue_depth_max", static_cast<double>(spans.queue_depth_max), "count"},
      {"svc.rejected", delta(before, after, "svc.rejected"), "count"},
      {"svc.timeouts", delta(before, after, "svc.timeouts"), "count"},
      {"proxy.request_ms", spans.med("proxy.request"), "ms"},
      {"proxy.self_ms", median(spans.proxy_self_ms), "ms"},
      {"proxy.forward_ms", spans.med("proxy.forward"), "ms"},
      {"cluster.failover", delta(pb, pa, "cluster.failover"), "count"},
      {"proxy.cpu_ms_per_req", ratio(proxy_cpu, a_n), "ms"},
      {"server.cpu_ms_per_req", ratio(shard_cpu, a_n), "ms"},
      {"loadgen.late_ms_p99", h.late_p99_ms, "ms"},
      {"loadgen.offered", static_cast<double>(h.offered), "count"},
      {"loadgen.answered", static_cast<double>(h.answered), "count"},
      {"loadgen.backlog_end", static_cast<double>(h.backlog_end), "count"},
      {"trace.overhead_ms", s.p50 - sa.p50, "ms"},
      {"trace.dropped_spans", static_cast<double>(spans.dropped), "count"},
      {"ledger.unattributed_ms", unattributed, "ms"},
  };

  // The ledger: where the median request's time goes.
  std::fprintf(stderr,
               "ringbench ledger: %s, traced window, %zu ok requests; "
               "latency_p50_ms %.3f (untraced %.3f)\n",
               args.workload.c_str(), s.ok, s.p50, sa.p50);
  const auto row = [](int depth, const char* name, double ms, const char* src) {
    std::fprintf(stderr, "  %*s%-*s %10.3f ms  %s\n", 2 * depth, "", 30 - 2 * depth,
                 name, ms, src);
  };
  if (plan.open_loop()) row(0, "client.late", cs.late, "generator: due -> send");
  row(0, "client.send", cs.send, "client span");
  row(0, "client.wait", cs.wait, "client span: send -> first byte");
  int d = 1;
  if (plan.shards > 1) {
    row(1, "proxy.request", spans.med("proxy.request"), "proxy span");
    row(2, "proxy.self", median(spans.proxy_self_ms), "proxy span minus forwards");
    row(2, "proxy.forward", spans.med("proxy.forward"),
        "proxy span: shard request + shard write + decode");
    d = 3;
  }
  row(d, "svc.request", spans.med("svc.request"), "daemon span: admit -> deliver");
  row(d + 1, "svc.queue_wait", spans.med("svc.queue_wait"), "daemon span");
  row(d + 1, "svc.canonicalize", spans.med("svc.canonicalize"), "daemon span");
  row(d + 1, "svc.cache_probe", spans.med("svc.cache_probe"), "daemon span");
  row(d + 1, "svc.embed", spans.med("svc.embed"), "daemon span (misses only)");
  row(d + 1, "svc.relabel", spans.med("svc.relabel"), "daemon span");
  row(d + 1, "svc.verify", spans.med("svc.verify"), "daemon span (verify 1 only)");
  row(1, "unattributed", wait_rest, "client.wait - entry request span");
  row(0, "client.receive", cs.receive, "client span: first byte -> decoded");
  row(1, "net.write", net_write, "replay: write_response through FdOutBuf");
  row(2, "io.encode", encode, "replay: write_response to memory");
  row(2, "transmit", net_write - encode, "replay: net.write - io.encode");
  row(1, "io.decode", decode, "replay: read_response from memory (overlaps)");
  row(1, "unattributed", receive_rest, "client.receive - net.write");
  row(0, "client.verify", cs.verify, "client span: verify_healthy_ring");
  row(0, "uncovered",
      s.p50 - cs.send - cs.wait - cs.receive - cs.verify - (plan.open_loop() ? cs.late : 0),
      "latency_p50_ms - client span medians");
  std::fprintf(stderr, "  client spans cover >= %.2f%% of every request\n",
               cs.coverage_pct);
  if (!h.invalid.empty())
    std::fprintf(stderr, "ringbench: %s: INVALID run: %s\n", args.workload.c_str(),
                 h.invalid.c_str());

  const std::size_t attempted = sa.attempted + s.attempted;
  const std::size_t failed = attempted - sa.ok - s.ok;
  const bool correct = failed == 0 && s.attempted > 0 && h.invalid.empty();
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ringbench

int main(int argc, char** argv) {
  using namespace ringbench;
  const auto args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--build-dir DIR] [--run-dir DIR] [--corrupt-every K]\n",
                 argv[0]);
    return 2;
  }
  ClientOptions opt;
  opt.corrupt_every = args->corrupt_every;
  std::fprintf(stderr, "ringbench: %s\n", split_cpus().c_str());
  try {
    return args->trace ? traced_run(*args, opt) : end_to_end_run(*args, opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ringbench: %s\n", e.what());
    return 2;
  }
}
