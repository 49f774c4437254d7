#include "layers.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/balance.h"
#include "core/broker.h"
#include "core/striped_cache.h"
#include "http/parser.h"
#include "net/frame.h"
#include "obs/histogram.h"

namespace perfbench {
namespace {

namespace core = sbroker::core;

constexpr int kRounds = 31;
constexpr size_t kBatch = 2048;

/// Keeps results observable so the timed calls are not optimised away.
volatile uint64_t g_sink = 0;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median over kRounds rounds of the mean ns per call of `op(i)`.
template <typename Op>
double ns_per_call(size_t batch, Op op) {
  std::vector<double> per_call;
  size_t next = 0;
  for (int r = 0; r < kRounds; ++r) {
    uint64_t t0 = now_ns();
    for (size_t i = 0; i < batch; ++i) op(next++);
    per_call.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(batch));
  }
  return median(std::move(per_call));
}

/// The workload's key stream, drawn like the client draws it.
std::vector<std::string> key_stream(const Workload& w, uint64_t seed, size_t n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  Rng rng(mix64(seed) ^ 0x1a7e5ull);
  if (w.dist == KeyDist::kDistinct) {
    for (size_t i = 0; i < n; ++i) keys.push_back(key_for(w, seed, i));
    return keys;
  }
  std::vector<double> cdf;
  if (w.dist == KeyDist::kZipf) {
    double sum = 0.0;
    for (size_t i = 0; i < w.keyspace; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), w.zipf_theta);
      cdf.push_back(sum);
    }
    for (double& v : cdf) v /= sum;
  }
  for (size_t i = 0; i < n; ++i) {
    size_t index = 0;
    if (w.dist == KeyDist::kZipf) {
      index = static_cast<size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), rng.unit()) - cdf.begin());
      index = std::min(index, w.keyspace - 1);
    } else {
      index = rng.below(w.keyspace);
    }
    keys.push_back(key_for(w, seed, index));
  }
  return keys;
}

std::string value_of(const Workload& w, std::string_view key) {
  uint64_t h = fnv1a(key);
  std::string v(value_size(w, h), '\0');
  fill_value(h, v.size(), v.data());
  return v;
}

/// A backend answering in-line with f(key); its own time is summed apart so
/// the broker's self time can be taken out of a miss.
class InlineBackend : public core::Backend {
 public:
  InlineBackend(const Workload& w, const double* clock) : workload_(w), clock_(clock) {}

  void invoke(const Call& call, Completion done) override {
    uint64_t t0 = now_ns();
    uint64_t h = fnv1a(call.payload);
    value_.resize(value_size(workload_, h));
    fill_value(h, value_.size(), value_.data());
    span_ns += now_ns() - t0;
    done(*clock_, true, value_);
  }

  uint64_t span_ns = 0;

 private:
  Workload workload_;
  const double* clock_;
  std::string value_;
};

core::BrokerConfig broker_config(const Workload& w, uint64_t seed) {
  core::BrokerConfig cfg;
  cfg.rules = core::QosRules{3, kThreshold};
  cfg.enable_cache = w.cache;
  cfg.cache_capacity = w.cache ? w.cache_capacity : 1;
  cfg.cache_ttl = w.ttl;
  cfg.cache_tuning.swr_grace = w.swr_grace;
  cfg.cache_tuning.ttl_jitter = w.ttl_jitter;
  cfg.rng_seed = seed;
  return cfg;
}

struct BrokerTimes {
  std::vector<double> hit_ns;
  std::vector<double> miss_self_ns;
};

/// Replays `stream` through ServiceBroker::submit against an in-line
/// backend, timing each call; misses have the backend's own time removed.
/// The first `untimed` requests warm the cache.
BrokerTimes replay_broker(const Workload& w, const core::BrokerConfig& cfg,
                          const std::vector<std::string>& stream, size_t untimed) {
  double clock = 1.0;
  core::ServiceBroker broker("perfbench-inproc", cfg);
  if (cfg.enable_cache) {
    broker.share_cache(std::make_shared<core::StripedResultCache>(
        cfg.cache_capacity, cfg.cache_ttl, 8, cfg.cache_tuning));
  }
  auto backend = std::make_shared<InlineBackend>(w, &clock);
  broker.add_backend(backend);
  broker.add_backend(backend);
  BrokerTimes times;
  sbroker::http::BrokerRequest req;
  for (size_t i = 0; i < stream.size(); ++i) {
    req.request_id = i + 1;
    req.qos_level = static_cast<uint8_t>(1 + i % 3);
    req.payload = stream[i];
    bool answered = false;
    sbroker::http::Fidelity fidelity = sbroker::http::Fidelity::kError;
    uint64_t span_before = backend->span_ns;
    uint64_t t0 = now_ns();
    broker.submit(clock, req, [&](const sbroker::http::BrokerReply& reply) {
      answered = true;
      fidelity = reply.fidelity;
    });
    if (!answered) broker.tick(clock);
    uint64_t elapsed = now_ns() - t0;
    clock += 1e-6;
    if (i < untimed || !answered) continue;
    uint64_t backend_ns = backend->span_ns - span_before;
    if (fidelity == sbroker::http::Fidelity::kCached && backend_ns == 0) {
      times.hit_ns.push_back(static_cast<double>(elapsed));
    } else if (fidelity == sbroker::http::Fidelity::kFull) {
      times.miss_self_ns.push_back(static_cast<double>(elapsed - backend_ns));
    }
  }
  return times;
}

}  // namespace

std::map<std::string, double> measure_layers(const Workload& w, uint64_t seed,
                                             const std::vector<uint64_t>& latencies_ns) {
  std::map<std::string, double> out;
  std::vector<std::string> stream = key_stream(w, seed, 4 * kBatch);
  std::vector<std::string> values;
  values.reserve(stream.size());
  for (const std::string& key : stream) values.push_back(value_of(w, key));
  size_t n = stream.size();

  // net: decode of request frames, encode of reply frames.
  std::vector<std::string> frames(n);
  for (size_t i = 0; i < n; ++i) {
    sbroker::net::frame::Request r;
    r.request_id = i + 1;
    r.qos_level = 3;
    r.query = stream[i];
    sbroker::net::frame::encode_request(r, frames[i]);
  }
  out["net.frame.decode_ns"] = ns_per_call(kBatch, [&](size_t i) {
    sbroker::net::frame::Request r;
    size_t consumed = 0;
    sbroker::net::frame::parse_request(frames[i % n], r, &consumed);
    g_sink = g_sink + r.request_id + consumed;
  });
  std::string encoded;
  out["net.frame.encode_ns"] = ns_per_call(kBatch, [&](size_t i) {
    encoded.clear();
    sbroker::net::frame::encode_reply(i, sbroker::http::Fidelity::kCached,
                                      sbroker::net::frame::kFlagCacheServed,
                                      values[i % n], encoded);
    g_sink = g_sink + encoded.size();
  });

  // core: broker submit, hit and miss. A workload without cache hits (its
  // cache is off) times hits on a cache-on copy of its configuration.
  core::BrokerConfig cfg = broker_config(w, seed);
  if (w.dist == KeyDist::kDistinct) {
    BrokerTimes miss = replay_broker(w, cfg, stream, kBatch / 4);
    core::BrokerConfig cached = cfg;
    cached.enable_cache = true;
    cached.cache_capacity = 2 * n;
    cached.cache_ttl = 1e6;
    std::vector<std::string> twice;
    for (size_t i = 0; i < kBatch; ++i) twice.push_back(stream[i]);
    for (size_t i = 0; i < kBatch; ++i) twice.push_back(stream[i]);
    BrokerTimes hit = replay_broker(w, cached, twice, kBatch);
    out["core.broker.hit_ns"] = median(hit.hit_ns);
    out["core.broker.miss_self_ns"] = median(miss.miss_self_ns);
  } else {
    std::vector<std::string> replay;
    size_t untimed = 0;
    if (w.preload) {
      for (size_t i = 0; i < w.keyspace; ++i) replay.push_back(key_for(w, seed, i));
      untimed = replay.size();
    }
    replay.insert(replay.end(), stream.begin(), stream.end());
    BrokerTimes t = replay_broker(w, cfg, replay, untimed);
    out["core.broker.hit_ns"] = median(t.hit_ns);
    // A workload that never misses once warm times misses on its preload.
    if (t.miss_self_ns.empty()) {
      t = replay_broker(w, cfg, replay, 0);
    }
    out["core.broker.miss_self_ns"] = median(t.miss_self_ns);
  }

  // core: the shared cache's lookup and put.
  size_t capacity = w.cache ? w.cache_capacity : 4096;
  core::StripedResultCache cache(capacity, w.ttl > 0 ? w.ttl : 1e6, 8, cfg.cache_tuning);
  double now = 1.0;
  out["core.cache.put_ns"] = ns_per_call(kBatch, [&](size_t i) {
    cache.put(stream[i % n], values[i % n], now);
  });
  core::Arena scratch;
  out["core.cache.lookup_ns"] = ns_per_call(kBatch, [&](size_t i) {
    scratch.reset();
    core::LookupView v = cache.lookup_into(stream[i % n], now, scratch);
    g_sink = g_sink + v.value.size();
  });

  // core: replica choice among two replicas.
  core::LoadBalancer balancer(cfg.balance);
  balancer.add_backend();
  balancer.add_backend();
  out["core.balance.pick_ns"] = ns_per_call(kBatch, [&](size_t) {
    auto pick = balancer.pick(now);
    if (pick) balancer.complete(*pick);
    g_sink = g_sink + pick.value_or(7);
  });

  // obs: one latency sample into a histogram.
  sbroker::obs::LatencyHistogram histogram;
  std::vector<double> samples;
  for (size_t i = 0; i < latencies_ns.size() && i < n; ++i) {
    samples.push_back(static_cast<double>(latencies_ns[i]) * 1e-9);
  }
  if (samples.empty()) samples.push_back(1e-4);
  out["obs.histogram.record_ns"] = ns_per_call(kBatch, [&](size_t i) {
    histogram.record_seconds(samples[i % samples.size()]);
  });
  g_sink = g_sink + histogram.count();

  // http: replica replies at the workload's value size.
  std::vector<std::string> responses(n);
  for (size_t i = 0; i < n; ++i) {
    responses[i] = "HTTP/1.1 200 OK\r\nContent-Length: " +
                   std::to_string(values[i].size()) + "\r\n\r\n" + values[i];
  }
  sbroker::http::ResponseParser parser;
  sbroker::http::Response response;
  out["http.response_parse_ns"] = ns_per_call(kBatch, [&](size_t i) {
    parser.feed(responses[i % n]);
    parser.next(response);
    g_sink = g_sink + response.body.size();
  });
  return out;
}

}  // namespace perfbench
