// Broker benchmark: starts a ShardedBrokerDaemon (in its own process) in
// front of benchmark-owned replicas, drives one workload over the binary
// frame protocol with a closed-loop client, checks every reply and the
// broker's accounting, and prints one JSON result line.
//
//   perfbench --workload hit|miss|churn --seed N --seconds S --trace 0|1
//             [--fault NAME]
//
// --trace 0 prints the end-to-end metrics; --trace 1 splits the window into
// an untraced and a traced half and prints the per-layer metrics. Exit code
// 0 = every check passed, 1 = a check failed, 2 = the run could not be made.
#include <sched.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "client.h"
#include "common.h"
#include "daemon_proc.h"
#include "layers.h"
#include "replicas.h"

namespace perfbench {
namespace {

/// A run that has not finished by then is killed (the daemon process dies
/// with it), so no run outlives its time limit.
constexpr unsigned kWatchdogSeconds = 170;

/// Result records and trace spans, relative to the repository root.
constexpr const char* kOutDir = "perfbench/out";

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  Fault fault = Fault::kNone;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload hit|miss|churn --seed N "
               "--seconds S --trace 0|1 [--fault NAME]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0 && a.seconds <= 120)) usage("bad --seconds " + value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace " + value);
      a.trace = value == "1";
    } else if (flag == "--fault") {
      if (!parse_fault(value, a.fault)) usage("unknown --fault " + value);
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

/// CPUs for the client thread, the replica threads and the daemon shards,
/// one each, so the threads that a run keeps busy never share a CPU. Left
/// empty (no pinning) when the process may use fewer CPUs than that.
struct CpuPlan {
  int client = -1;
  std::vector<int> replicas;
  std::vector<int> daemon;
};

CpuPlan plan_cpus(const Workload& w) {
  CpuPlan plan;
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return plan;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  size_t need = 1 + w.replica_threads + w.shards;
  if (cpus.size() < need) return plan;
  plan.client = cpus[0];
  for (size_t i = 0; i < w.replica_threads; ++i) plan.replicas.push_back(cpus[1 + i]);
  for (size_t i = 0; i < w.shards; ++i) plan.daemon.push_back(cpus[1 + w.replica_threads + i]);
  return plan;
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Counters at one instant: the daemon's, and CPU time of this side.
struct Snapshot {
  DaemonProcess::Counters daemon;
  std::vector<uint64_t> steal;  ///< per-CPU steal ticks from /proc/stat
  uint64_t client_cpu = 0;
  uint64_t replica_cpu = 0;
  uint64_t replica_calls = 0;
};

/// Steal time of each CPU, in clock ticks, from /proc/stat.
std::vector<uint64_t> steal_ticks() {
  std::vector<uint64_t> out;
  std::ifstream stat("/proc/stat");
  std::string line;
  while (std::getline(stat, line)) {
    if (line.rfind("cpu", 0) != 0 || line.size() < 4 || line[3] == ' ') continue;
    std::istringstream fields(line);
    std::string name;
    uint64_t v[8] = {};
    fields >> name;
    for (uint64_t& x : v) fields >> x;
    out.push_back(v[7]);
  }
  return out;
}

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// Metric value + unit, printed in declaration order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// `{"name": {"value": v, "unit": "u"}, ...}` without the braces.
std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out;
  for (const Metric& m : metrics) {
    if (!out.empty()) out += ", ";
    out += '"' + m.name + "\": {\"value\": " + fmt(m.value) + ", \"unit\": \"" + m.unit +
           "\"}";
  }
  return out;
}

/// Joins replica and channel spans to the client request whose interval
/// contains them (the earliest such request: the one whose miss caused the
/// fetch). Returns the legs client->replica and replica->client in us.
void join_spans(std::vector<Span>& client, std::vector<Span>& others,
                std::vector<double>* to_replica, std::vector<double>* from_replica) {
  std::unordered_map<uint64_t, std::vector<const Span*>> by_key;
  for (const Span& c : client) by_key[c.key].push_back(&c);
  for (Span& s : others) {
    auto it = by_key.find(s.key);
    if (it == by_key.end()) continue;
    const Span* best = nullptr;
    for (const Span* c : it->second) {
      if (c->start_ns <= s.start_ns && c->end_ns >= s.end_ns &&
          (best == nullptr || c->start_ns < best->start_ns)) {
        best = c;
      }
    }
    if (best == nullptr) continue;
    s.request = best->request;
    s.parent = best->request;
    if (to_replica != nullptr && std::strcmp(s.name, "replica.service") == 0) {
      to_replica->push_back(static_cast<double>(s.start_ns - best->start_ns) * 1e-3);
      from_replica->push_back(static_cast<double>(best->end_ns - s.end_ns) * 1e-3);
    }
  }
}

int run(const Args& args, uint64_t t_start) {
  Workload w;
  if (!find_workload(args.workload, w)) usage("unknown workload " + args.workload);
  CpuPlan cpus = plan_cpus(w);
  bool tracing = args.trace == 1;

  // Set-up: replicas' sockets, the daemon process, the replica threads,
  // the client's connections, the preload and the warm-up.
  Replicas replicas(w, args.fault);
  replicas.bind();
  replicas.track_keys(w.preload);
  DaemonPlan plan;
  plan.workload = w;
  plan.seed = args.seed;
  plan.fault = args.fault;
  for (size_t r = 0; r < kReplicas; ++r) plan.replica_ports.push_back(replicas.port(r));
  plan.cpus = cpus.daemon;
  DaemonProcess daemon;
  daemon.spawn(
      plan, [](void* arg) { static_cast<Replicas*>(arg)->close_listeners(); }, &replicas);
  if (cpus.client >= 0) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus.client, &set);
    sched_setaffinity(0, sizeof(set), &set);
  }
  replicas.start(cpus.replicas);
  uint16_t port = daemon.wait_ready();
  Client client(w, args.seed, args.fault);
  client.connect(port);
  auto set_tracing = [&](bool on) {
    client.set_tracing(on);
    replicas.set_tracing(on);
    daemon.set_tracing(on);
  };
  // The traced mode traces the set-up too: on `hit` it is the only part
  // that reaches the replicas.
  if (tracing) set_tracing(true);
  if (w.preload) client.preload();
  uint64_t calls_after_preload = replicas.total_calls();
  client.run_replies(w.warmup);
  double setup_s = static_cast<double>(now_ns() - t_start) * 1e-9;

  auto take = [&]() {
    Snapshot s;
    s.daemon = daemon.snap();
    s.client_cpu = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
    s.replica_cpu = replicas.cpu_ns();
    s.replica_calls = replicas.total_calls();
    s.steal = steal_ticks();
    return s;
  };

  // Timed window; the traced mode runs half untraced, half traced.
  PhaseStats untraced;
  if (tracing) {
    set_tracing(false);
    untraced = client.run_for(args.seconds / 2);
    set_tracing(true);
  }
  Snapshot a = take();
  PhaseStats window = client.run_for(tracing ? args.seconds / 2 : args.seconds);
  Snapshot b = take();
  client.drain();

  std::vector<Span> channel_spans;
  DaemonProcess::Counters fin = daemon.stop(&channel_spans);
  replicas.stop();

  // ---- checks, against facts computed apart from the broker
  std::vector<Check> checks;
  auto check = [&](const std::string& name, bool ok, const std::string& detail) {
    checks.push_back({name, ok, detail});
  };
  auto d = [&](const DaemonProcess::Counters& c, const std::string& k) {
    auto it = c.find(k);
    return it == c.end() ? 0.0 : it->second;
  };
  uint64_t sent = client.requests_sent();
  check("payload", client.bad_payloads() == 0,
        std::to_string(client.bad_payloads()) + " replies differ from f(key)");
  check("status", client.bad_status() == 0 && client.bad_ids() == 0 &&
                      replicas.protocol_errors() == 0,
        std::to_string(client.bad_status()) + " busy/error replies, " +
            std::to_string(client.bad_ids()) + " unknown ids, " +
            std::to_string(replicas.protocol_errors()) + " malformed backend requests");
  double broker_total = d(fin, "forwarded") + d(fin, "cache_hits") + d(fin, "dropped") +
                        d(fin, "errors");
  check("conservation",
        static_cast<double>(sent) == broker_total && client.replies_received() == sent,
        "client sent " + std::to_string(sent) + ", got " +
            std::to_string(client.replies_received()) +
            " replies; broker forwarded+cached+dropped+errors = " + fmt(broker_total));
  uint64_t calls_total = 0;
  bool picks_ok = true;
  std::string picks_detail;
  for (size_t r = 0; r < kReplicas; ++r) {
    uint64_t calls = replicas.calls(r);
    calls_total += calls;
    double picks = d(fin, "picks_" + std::to_string(r));
    if (static_cast<double>(calls) != picks) picks_ok = false;
    picks_detail += "replica " + std::to_string(r) + ": " + std::to_string(calls) +
                    " calls vs " + fmt(picks) + " picks; ";
  }
  if (static_cast<double>(calls_total) != d(fin, "backend_calls")) picks_ok = false;
  check("picks", picks_ok, picks_detail + "backend calls " + fmt(d(fin, "backend_calls")));
  check("single_flight", d(fin, "overlaps") == 0,
        fmt(d(fin, "overlaps")) + " fetches began while one of the same key was in flight");
  if (w.name == "hit") {
    auto per_key = replicas.key_calls();
    bool once = per_key.size() == w.keyspace && calls_after_preload == w.keyspace &&
                calls_total == w.keyspace;
    for (const auto& [key, n] : per_key) once = once && n == 1;
    check("hit.preload", once,
          std::to_string(per_key.size()) + " keys fetched, " + std::to_string(calls_total) +
              " calls for " + std::to_string(w.keyspace) + " preloaded keys");
    check("hit.window", b.replica_calls == a.replica_calls,
          std::to_string(b.replica_calls - a.replica_calls) + " replica calls while timed");
  } else if (w.name == "miss") {
    check("miss.calls", calls_total == sent,
          std::to_string(calls_total) + " replica calls for " + std::to_string(sent) +
              " requests");
  } else {
    check("churn.bounds", client.distinct_keys() <= calls_total && calls_total <= sent,
          std::to_string(client.distinct_keys()) + " distinct keys <= " +
              std::to_string(calls_total) + " replica calls <= " + std::to_string(sent) +
              " requests");
  }
  bool correct = true;
  for (const Check& c : checks) {
    if (!c.ok) {
      correct = false;
      std::fprintf(stderr, "perfbench: check %s FAILED: %s\n", c.name.c_str(),
                   c.detail.c_str());
    }
  }

  // ---- metrics
  double replies = static_cast<double>(window.replies);
  double throughput = ratio(replies, window.seconds());
  std::vector<Metric> metrics;
  // The timing figures did not repeat within a tenth across runs on the
  // reference host (see README), so they are recorded beside the result,
  // not reported in it.
  std::vector<Metric> unlisted = {
      {"throughput_rps", throughput, "req/s"},
      {"latency_p50_us", window.latency.quantile_us(0.50), "us"},
      {"latency_p99_us", window.latency.quantile_us(0.99), "us"},
      {"daemon_cpu_us_per_req",
       ratio((d(b.daemon, "cpu_ns") - d(a.daemon, "cpu_ns")) * 1e-3, replies), "us"},
  };
  if (!tracing) {
    metrics.push_back({"setup_s", setup_s, "s"});
    metrics.push_back({"daemon_rss_mib", d(fin, "serve_hwm_kib") / 1024.0, "MiB"});
  } else {
    std::map<std::string, double> layer = measure_layers(w, args.seed, window.latency.sample());
    auto delta = [&](const std::string& k) { return d(b.daemon, k) - d(a.daemon, k); };
    std::vector<Span>& client_spans = client.spans();
    std::vector<Span> replica_spans = replicas.take_spans();
    std::vector<double> to_replica, from_replica;
    join_spans(client_spans, replica_spans, &to_replica, &from_replica);
    join_spans(client_spans, channel_spans, nullptr, nullptr);
    std::vector<double> service, rtt;
    for (const Span& s : replica_spans) {
      service.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    }
    for (const Span& s : channel_spans) {
      rtt.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    }
    // Channel counters over the window; over the whole run where the window
    // made no backend call (hit: only the preload did).
    double ch_flushes = delta("ch_flushes");
    double ch_written = delta("ch_requests_written");
    if (ch_flushes == 0) {
      ch_flushes = d(fin, "ch_flushes");
      ch_written = d(fin, "ch_requests_written");
    }
    double issued = delta("issued");
    double hits = delta("cache_hits");
    double untraced_tput = ratio(static_cast<double>(untraced.replies), untraced.seconds());
    metrics.push_back({"net.frame.decode_ns", layer["net.frame.decode_ns"], "ns"});
    metrics.push_back({"net.frame.encode_ns", layer["net.frame.encode_ns"], "ns"});
    metrics.push_back({"net.wire.replies_per_writev",
                       ratio(delta("wire_flushed"), delta("wire_flushes")), "replies/writev"});
    metrics.push_back({"net.reactor.ctxsw_per_req", ratio(delta("vol_ctxsw"), replies),
                       "ctxsw/req"});
    metrics.push_back({"net.channel.rtt_us", median_of(rtt), "us"});
    metrics.push_back({"net.channel.requests_per_flush", ratio(ch_written, ch_flushes),
                       "req/flush"});
    metrics.push_back({"net.channel.connections_opened", d(fin, "ch_connections_opened"),
                       "count"});
    metrics.push_back({"core.broker.hit_ns", layer["core.broker.hit_ns"], "ns"});
    metrics.push_back({"core.broker.miss_self_ns", layer["core.broker.miss_self_ns"], "ns"});
    metrics.push_back({"core.cache.lookup_ns", layer["core.cache.lookup_ns"], "ns"});
    metrics.push_back({"core.cache.put_ns", layer["core.cache.put_ns"], "ns"});
    metrics.push_back({"core.cache.hit_ratio", ratio(hits, issued), "ratio"});
    metrics.push_back({"core.cache.evictions_per_kreq",
                       ratio(delta("cache_evictions") * 1000.0, replies), "evictions/kreq"});
    metrics.push_back({"core.flight.coalesced_per_miss",
                       ratio(delta("coalesced"), issued - hits), "waiters/miss"});
    metrics.push_back({"core.balance.pick_ns", layer["core.balance.pick_ns"], "ns"});
    metrics.push_back({"obs.histogram.record_ns", layer["obs.histogram.record_ns"], "ns"});
    metrics.push_back({"http.response_parse_ns", layer["http.response_parse_ns"], "ns"});
    metrics.push_back({"client.cpu_us_per_req",
                       ratio(static_cast<double>(b.client_cpu - a.client_cpu) * 1e-3, replies),
                       "us"});
    metrics.push_back({"replica.cpu_us_per_req",
                       ratio(static_cast<double>(b.replica_cpu - a.replica_cpu) * 1e-3, replies),
                       "us"});
    metrics.push_back({"replica.service_us", median_of(service), "us"});
    metrics.push_back({"leg.to_replica_us", median_of(to_replica), "us"});
    metrics.push_back({"leg.from_replica_us", median_of(from_replica), "us"});
    metrics.push_back({"trace.overhead_pct",
                       100.0 * ratio(untraced_tput - throughput, untraced_tput), "%"});

    // Spans, written out once the run is over.
    mkdir(kOutDir, 0755);
    std::ofstream spans(std::string(kOutDir) + "/trace-" + w.name + ".tsv");
    spans << "name\tstart_ns\tend_ns\tparent\trequest\tkey\n";
    for (const auto* set : {&client_spans, &replica_spans, &channel_spans}) {
      for (const Span& s : *set) {
        spans << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << s.parent
              << '\t' << s.request << '\t' << s.key << '\n';
      }
    }
  }

  // Every request of the run counts, set-up included; a failed one is a
  // reply that was busy, shed, an error, unknown or not f(key).
  uint64_t failed = client.bad_status() + client.bad_payloads() + client.bad_ids();
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << std::max<uint64_t>(1, sent)
       << ", \"failed\": " << failed << ", \"metrics\": {" << metrics_json(metrics) << "}}";

  // Full record of the run, beside the result line.
  mkdir(kOutDir, 0755);
  std::ofstream record(std::string(kOutDir) + "/result-" + w.name + "-seed" +
                       std::to_string(args.seed) + "-trace" + std::to_string(args.trace) +
                       ".json");
  record << "{\"result\": " << json.str() << ", \"checks\": {";
  for (size_t i = 0; i < checks.size(); ++i) {
    record << (i ? ", " : "") << '"' << checks[i].name << "\": {\"ok\": "
           << (checks[i].ok ? "true" : "false") << ", \"detail\": \"" << checks[i].detail
           << "\"}";
  }
  record << "}, \"unlisted\": {" << metrics_json(unlisted) << "}, \"daemon_final\": {";
  size_t i = 0;
  for (const auto& [k, v] : fin) record << (i++ ? ", " : "") << '"' << k << "\": " << fmt(v);
  record << "}, \"setup_s\": " << fmt(setup_s) << ", \"window_replies\": " << window.replies
         << ", \"pinned\": " << (cpus.client >= 0 ? "true" : "false") << ", \"buckets\": [";
  for (size_t k = 0; k < window.buckets.size(); ++k) record << (k ? "," : "") << window.buckets[k];
  record << "], \"steal\": [";
  for (size_t k = 0; k < b.steal.size() && k < a.steal.size(); ++k) record << (k ? "," : "") << b.steal[k] - a.steal[k];
  record << "], \"cpus\": [" << cpus.client;
  for (int c : cpus.replicas) record << ", " << c;
  for (int c : cpus.daemon) record << ", " << c;
  record << "]}\n";

  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  uint64_t t_start = perfbench::now_ns();
  perfbench::Args args = perfbench::parse_args(argc, argv);
  alarm(perfbench::kWatchdogSeconds);
  try {
    return perfbench::run(args, t_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
