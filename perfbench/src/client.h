// Closed-loop load generator over the broker's binary frame protocol.
//
// One thread drives every connection. Each connection keeps a fixed window
// of pipelined requests in flight: a reply frees its slot and the next
// request goes out in the same loop turn. Every reply is checked on arrival:
// its id must be one in flight, its status full or cached, its payload
// equal to f(key) recomputed here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// Width of the sub-windows a phase counts replies in.
inline constexpr uint64_t kBucketNs = 10'000'000;

/// Send-to-reply latencies, at 10 ns resolution up to 20 ms and as they are
/// beyond: fixed memory however long the run.
class LatencyLog {
 public:
  static constexpr uint64_t kStepNs = 10;
  static constexpr size_t kSlots = 2'000'000;
  static constexpr size_t kSampleSize = 8192;

  void add(uint64_t ns) {
    if (slots_.empty()) slots_.assign(kSlots, 0);
    uint64_t slot = ns / kStepNs;
    if (slot < kSlots) {
      ++slots_[slot];
    } else {
      tail_.push_back(ns);
    }
    ++count_;
    if (sample_.size() < kSampleSize) sample_.push_back(ns);
  }
  uint64_t count() const { return count_; }
  /// Nearest-rank quantile, in microseconds (0 when empty).
  double quantile_us(double q) const;
  /// The first latencies logged, as they are.
  const std::vector<uint64_t>& sample() const { return sample_; }

 private:
  std::vector<uint32_t> slots_;
  std::vector<uint64_t> tail_;
  std::vector<uint64_t> sample_;
  uint64_t count_ = 0;
};

/// What one timed phase saw.
struct PhaseStats {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t replies = 0;
  LatencyLog latency;
  std::vector<uint32_t> buckets;       ///< replies per kBucketNs of the phase

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class Client {
 public:
  Client(const Workload& workload, uint64_t seed, Fault fault);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void connect(uint16_t port);
  /// Requests every key of the keyspace once, then waits for all replies.
  void preload();
  /// Runs the workload stream until `replies` more replies arrived.
  void run_replies(uint64_t replies);
  /// Runs the workload stream for `seconds`, recording each reply.
  PhaseStats run_for(double seconds);
  /// Stops sending and waits until nothing is in flight.
  void drain();

  void set_tracing(bool on) { tracing_ = on; }

  std::vector<Span>& spans() { return spans_; }

  /// Requests sent over the whole run, as the client counts them.
  uint64_t requests_sent() const;
  uint64_t replies_received() const { return replies_; }
  /// Keys requested at least once (keyed workloads).
  uint64_t distinct_keys() const { return distinct_; }
  uint64_t bad_ids() const { return bad_ids_; }
  uint64_t bad_status() const { return bad_status_; }
  uint64_t bad_payloads() const { return bad_payloads_; }

 private:
  struct Slot {
    uint64_t id = 0;
    uint32_t gen = 0;
    bool busy = false;
    uint64_t key_hash = 0;
    uint64_t sent_ns = 0;
    std::string key;
  };
  struct Conn {
    int fd = -1;
    std::vector<Slot> slots;
    std::vector<uint32_t> free;
    std::vector<uint32_t> filled;  ///< slots written this loop turn
    std::string in;
    std::string out;
    size_t out_off = 0;
    Rng rng{0};
  };
  enum class Mode { kPreload, kStream, kDrain };

  /// Runs the loop until `done()` holds; `record` receives reply latencies.
  template <typename Done>
  void loop(Mode mode, Done done, PhaseStats* record);
  /// Picks the next request's key for connection `c`; false when the mode
  /// has nothing more to send.
  bool next_key(Mode mode, Conn& c, std::string& key, uint64_t& hash, uint8_t& qos);
  void on_reply(Conn& c, size_t conn_index, const wire::Reply& reply,
                uint64_t now, PhaseStats* record);
  size_t in_flight() const;

  Workload workload_;
  uint64_t seed_;
  Fault fault_;
  int epoll_fd_ = -1;
  std::vector<Conn> conns_;
  std::vector<std::string> keys_;       ///< keyed workloads
  std::vector<uint64_t> key_hashes_;
  std::vector<double> zipf_cdf_;
  std::vector<uint8_t> seen_;
  uint64_t distinct_ = 0;
  uint64_t next_preload_ = 0;
  uint64_t next_distinct_ = 0;
  uint64_t sent_ = 0;
  uint64_t replies_ = 0;
  uint64_t bad_ids_ = 0;
  uint64_t bad_status_ = 0;
  uint64_t bad_payloads_ = 0;
  bool tracing_ = false;
  std::vector<Span> spans_;
  std::string expected_;  ///< scratch for f(key)
};

}  // namespace perfbench
