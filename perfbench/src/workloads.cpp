#include "common.h"

namespace perfbench {

bool find_workload(std::string_view name, Workload& w) {
  w = Workload{};
  w.name = std::string(name);
  if (name == "hit") {
    // Cache-resident small reads: a uniform stream over 1024 keys that the
    // set-up fetches once each, so the timed window never leaves the cache.
    w.shards = 1;
    w.replica_threads = 1;
    w.cache = true;
    w.cache_capacity = 8192;  // 8x the keyspace: no stripe can overflow
    w.ttl = 1e6;
    w.connections = 1;
    w.window = 256;
    w.dist = KeyDist::kUniform;
    w.keyspace = 1024;
    w.value_base = 64;
    w.value_span = 32;
    w.preload = true;
    w.warmup = 100000;
    return true;
  }
  if (name == "miss") {
    // The forwarded path: cache off, every request a distinct key, two
    // replicas on their own threads.
    w.shards = 1;
    w.replica_threads = 2;
    w.cache = false;
    w.connections = 2;
    w.window = 64;
    w.dist = KeyDist::kDistinct;
    w.value_base = 1024;
    w.value_span = 256;
    w.warmup = 30000;
    return true;
  }
  if (name == "churn") {
    // Zipf reads over a keyspace four times the cache, short TTL with
    // stale-while-revalidate grace, mixed QoS, two shards sharing the
    // striped cache and the flight table.
    w.shards = 2;
    w.replica_threads = 1;
    w.cache = true;
    w.cache_capacity = 1024;
    w.ttl = 0.5;
    w.swr_grace = 0.5;
    w.ttl_jitter = 0.1;
    w.connections = 2;
    w.window = 64;
    w.dist = KeyDist::kZipf;
    w.keyspace = 4096;
    w.zipf_theta = 0.99;
    w.value_base = 1024;
    w.value_span = 256;
    w.mixed_qos = true;
    w.warmup = 100000;
    return true;
  }
  return false;
}

std::string key_for(const Workload& w, uint64_t seed, uint64_t index) {
  static const char kHex[] = "0123456789abcdef";
  uint64_t salt = fnv1a(w.name);
  uint64_t x = mix64(mix64(seed ^ salt) + index);  // distinct per index
  std::string key = w.dist == KeyDist::kDistinct ? "/m/" : "/k/";
  for (int i = 15; i >= 0; --i) key.push_back(kHex[(x >> (4 * i)) & 0xf]);
  return key;
}

bool parse_fault(std::string_view name, Fault& out) {
  struct Entry {
    std::string_view name;
    Fault fault;
  };
  static const Entry kFaults[] = {
      {"none", Fault::kNone},         {"corrupt", Fault::kCorrupt},
      {"count", Fault::kCount},       {"lostcalls", Fault::kLostCalls},
      {"inflatecalls", Fault::kInflateCalls}, {"dupfetch", Fault::kDupFetch},
      {"shed", Fault::kShed},         {"error", Fault::kError},
      {"conserve", Fault::kConserve}, {"expire", Fault::kExpire},
  };
  for (const Entry& e : kFaults) {
    if (e.name == name) {
      out = e.fault;
      return true;
    }
  }
  return false;
}

}  // namespace perfbench
