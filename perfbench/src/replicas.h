// Benchmark-owned backend replicas: plain HTTP/1.1 servers on localhost
// that answer `GET <key>` with f(key) (common.h), pipelining-safe (answers
// leave in request order per connection). Each replica counts the calls it
// served; spans and per-key counts are kept for the checks and the trace.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.h"

namespace perfbench {

class Replicas {
 public:
  Replicas(const Workload& workload, Fault fault);
  ~Replicas();
  Replicas(const Replicas&) = delete;
  Replicas& operator=(const Replicas&) = delete;

  /// Opens the listening sockets. Runs before the daemon process is forked,
  /// so that the daemon knows the ports; starts no thread.
  void bind();
  uint16_t port(size_t replica) const { return ports_.at(replica); }
  /// In the forked daemon process: closes the inherited listening sockets.
  void close_listeners();

  /// Starts the serving threads; thread t is pinned to cpus[t] when given.
  void start(const std::vector<int>& cpus);
  /// Stops and joins the serving threads. Idempotent.
  void stop();

  /// Calls served by one replica, as the replica reports them.
  uint64_t calls(size_t replica) const;
  uint64_t total_calls() const;
  /// CPU time of all serving threads.
  uint64_t cpu_ns() const;
  /// Malformed requests seen (each closes its connection).
  uint64_t protocol_errors() const { return protocol_errors_.load(); }

  void set_tracing(bool on) { tracing_.store(on, std::memory_order_relaxed); }
  /// After stop(): the spans recorded while tracing was on.
  std::vector<Span> take_spans();
  /// After stop(): calls per key, when key tracking was enabled.
  std::unordered_map<std::string, uint32_t> key_calls() const;
  void track_keys(bool on) { track_keys_ = on; }

 private:
  struct Worker;
  void serve(Worker& worker);

  Workload workload_;
  Fault fault_;
  bool track_keys_ = false;
  std::vector<int> listen_fds_;
  std::vector<uint16_t> ports_;
  std::unique_ptr<std::atomic<uint64_t>[]> calls_;
  std::atomic<uint64_t> served_total_{0};  ///< across replicas, for faults
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<bool> tracing_{false};
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace perfbench
