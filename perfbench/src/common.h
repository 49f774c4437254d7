// Shared pieces of the broker benchmark: workload definitions, the seeded
// key generator, the value function f(key) that replicas serve and the
// client re-computes, the client side of the binary frame protocol, clocks
// and trace spans.
//
// Everything here is the benchmark's own code on purpose: the client, the
// replicas and the inputs stay fixed while the broker under test changes.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <time.h>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------- clocks

/// CLOCK_MONOTONIC in nanoseconds: one clock for the client, the replicas
/// and the daemon process, so spans from all three line up.
inline uint64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

/// CPU time of a clock id (process, thread or another process's clock).
inline uint64_t cpu_ns(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// ---------------------------------------------------------------- hashing

/// SplitMix64 finalizer: a bijection on 64-bit words.
inline uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

inline uint64_t fnv1a(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Small seeded generator (xoshiro-style state is overkill here).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(mix64(seed)) {}
  uint64_t next() { return mix64(state_++); }
  /// Uniform in [0, n).
  uint64_t below(uint64_t n) {
    return static_cast<uint64_t>((static_cast<unsigned __int128>(next()) * n) >> 64);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

// ---------------------------------------------------------------- workloads

enum class KeyDist { kUniform, kDistinct, kZipf };

/// Backend replicas behind the broker, in every workload.
inline constexpr size_t kReplicas = 2;
/// The broker's admission threshold: far above the requests in flight
/// (at most 256), so no request is ever shed.
inline constexpr double kThreshold = 4096;

struct Workload {
  std::string name;
  // Daemon shape.
  size_t shards = 1;
  size_t replica_threads = 1;  ///< threads serving the kReplicas replicas
  bool cache = true;
  size_t cache_capacity = 0;
  double ttl = 0.0;        ///< seconds
  double swr_grace = 0.0;  ///< seconds
  double ttl_jitter = 0.0; ///< fraction
  // Load shape.
  size_t connections = 2;
  size_t window = 16;      ///< pipelined requests in flight per connection
  // Inputs.
  KeyDist dist = KeyDist::kUniform;
  size_t keyspace = 0;     ///< 0 for distinct keys
  double zipf_theta = 0.0;
  size_t value_base = 64;  ///< value sizes lie in [base - span/2, base + span/2)
  size_t value_span = 0;
  bool mixed_qos = false;  ///< QoS classes 1..3 uniformly; else class 3
  bool preload = false;    ///< request every key once during set-up
  size_t warmup = 0;       ///< requests after the preload, before timing
};

/// The three workloads; returns false for an unknown name.
bool find_workload(std::string_view name, Workload& out);

/// Key strings of a keyed workload, derived from the seed.
std::string key_for(const Workload& w, uint64_t seed, uint64_t index);

/// Sampling rule shared by the client, the replicas and the daemon-side
/// channel decorator, so that spans of one key are kept everywhere or
/// nowhere: one key in kTraceSampleEvery.
inline constexpr uint64_t kTraceSampleEvery = 8;
/// Spans kept per recorder (client, each replica thread, the daemon's
/// channel): enough for stable medians, small enough to keep in memory.
inline constexpr size_t kMaxSpans = 50000;
inline bool trace_sampled(uint64_t key_hash) {
  return (key_hash >> 7) % kTraceSampleEvery == 0;
}

// ---------------------------------------------------------------- f(key)

/// Size of f(key) for a workload: value_base +- value_span/2, from the key.
inline size_t value_size(const Workload& w, uint64_t key_hash) {
  if (w.value_span == 0) return w.value_base;
  return w.value_base - w.value_span / 2 + (mix64(key_hash) % w.value_span);
}

/// Writes f(key) (printable bytes '0'..'o') into `out`, `size` bytes long.
inline void fill_value(uint64_t key_hash, size_t size, char* out) {
  size_t i = 0;
  for (uint64_t block = 0; i + 8 <= size; ++block, i += 8) {
    uint64_t x = (mix64(key_hash + block) & 0x3f3f3f3f3f3f3f3full) +
                 0x3030303030303030ull;
    std::memcpy(out + i, &x, 8);
  }
  if (i < size) {
    uint64_t x = (mix64(key_hash + (i / 8)) & 0x3f3f3f3f3f3f3f3full) +
                 0x3030303030303030ull;
    std::memcpy(out + i, &x, size - i);
  }
}

// ---------------------------------------------------------------- frames

/// Client side of the broker's binary frame protocol: an 8-byte header
/// [0xB7][version 1][kind][qos|status][u32 LE section length], a request
/// section of u64 id + u32 deadline_ms + query, a reply section of u64 id +
/// u8 flags + payload.
namespace wire {
inline constexpr uint8_t kMagic = 0xB7;
inline constexpr uint8_t kKindRequest = 1;
inline constexpr uint8_t kKindReply = 2;
inline constexpr uint8_t kStatusFull = 0;
inline constexpr uint8_t kStatusCached = 1;
inline constexpr uint8_t kFlagShed = 0x04;
inline constexpr uint8_t kFlagError = 0x08;

inline void put_u32(std::string& out, uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.append(b, 4);
}
inline void put_u64(std::string& out, uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.append(b, 8);
}
inline uint64_t get_le(const char* p, int n) {
  uint64_t v = 0;
  for (int i = n - 1; i >= 0; --i) v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}

inline void encode_request(uint64_t id, uint8_t qos, std::string_view query,
                           std::string& out) {
  out.push_back(static_cast<char>(kMagic));
  out.push_back(1);
  out.push_back(static_cast<char>(kKindRequest));
  out.push_back(static_cast<char>(qos));
  put_u32(out, static_cast<uint32_t>(12 + query.size()));
  put_u64(out, id);
  put_u32(out, 0);  // no deadline: every request is answered
  out.append(query);
}

struct Reply {
  uint64_t id = 0;
  uint8_t status = 0;
  uint8_t flags = 0;
  std::string_view payload;
};

/// Decodes one reply from the front of `bytes`: >0 = bytes consumed,
/// 0 = need more, <0 = malformed.
inline long parse_reply(std::string_view bytes, Reply& out) {
  if (bytes.size() < 8) return 0;
  if (static_cast<uint8_t>(bytes[0]) != kMagic || bytes[1] != 1 ||
      bytes[2] != static_cast<char>(kKindReply)) {
    return -1;
  }
  uint64_t len = get_le(bytes.data() + 4, 4);
  if (len < 9) return -1;
  if (bytes.size() < 8 + len) return 0;
  out.status = static_cast<uint8_t>(bytes[3]);
  out.id = get_le(bytes.data() + 8, 8);
  out.flags = static_cast<uint8_t>(bytes[16]);
  out.payload = bytes.substr(17, len - 9);
  return static_cast<long>(8 + len);
}
}  // namespace wire

// ---------------------------------------------------------------- spans

/// One traced interval. `request` is the client request id the span
/// belongs to (0 until joined), `parent` the request id of the span that
/// caused it, `key` the hash of the key it served.
struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  uint64_t key = 0;
};

/// Faults the self-test injects; each must make a check fail.
enum class Fault {
  kNone,
  kCorrupt,      ///< a replica corrupts one value
  kCount,        ///< replica 0 reports one call more than it served
  kLostCalls,    ///< the replicas report no calls at all
  kInflateCalls, ///< replica 0 reports twenty calls for each it served
  kDupFetch,     ///< the broker runs without single-flight coalescing
  kShed,         ///< admission threshold so low that requests are shed
  kError,        ///< a replica answers one call with HTTP 500
  kConserve,     ///< the client counts one request it never sent
  kExpire,       ///< the broker's cache entries expire after half a second
};

bool parse_fault(std::string_view name, Fault& out);

}  // namespace perfbench
