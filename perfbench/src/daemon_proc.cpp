#include "daemon_proc.h"

#include <dirent.h>
#include <errno.h>
#include <fcntl.h>
#include <inttypes.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "net/pipelined_backend.h"
#include "net/sharded_daemon.h"

namespace perfbench {
namespace {

/// How long the parent waits for any one answer from the daemon process.
constexpr int kReplyTimeoutMs = 30000;

/// State shared by every shard's channel decorator: calls per replica, keys
/// in flight (for the single-flight check) and channel spans.
struct ChannelProbe {
  explicit ChannelProbe(size_t replicas)
      : calls(std::make_unique<std::atomic<uint64_t>[]>(replicas)) {
    for (size_t i = 0; i < replicas; ++i) calls[i] = 0;
  }
  std::unique_ptr<std::atomic<uint64_t>[]> calls;
  std::atomic<uint64_t> overlaps{0};  ///< fetches started while one was in flight
  std::atomic<bool> tracing{false};
  std::mutex mu;  ///< guards inflight and spans
  std::unordered_map<std::string, uint32_t> inflight;
  std::vector<Span> spans;
};

/// core::Backend decorator around the daemon's PipelinedBackend: counts the
/// calls, tracks which keys have a fetch in flight and, while tracing, times
/// each call from invoke() to its completion.
class ProbedBackend : public sbroker::core::Backend {
 public:
  ProbedBackend(std::shared_ptr<sbroker::core::Backend> inner, size_t replica,
                std::shared_ptr<ChannelProbe> probe)
      : inner_(std::move(inner)), replica_(replica), probe_(std::move(probe)) {}

  void invoke(const Call& call, Completion done) override {
    invoke(call, nullptr, std::move(done));
  }

  void invoke(const Call& call, const sbroker::core::CancelTokenPtr& token,
              Completion done) override {
    probe_->calls[replica_].fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(probe_->mu);
      if (probe_->inflight[call.payload]++ > 0) probe_->overlaps.fetch_add(1);
    }
    uint64_t start = probe_->tracing.load(std::memory_order_relaxed) ? now_ns() : 0;
    inner_->invoke(call, token,
                   [probe = probe_, key = call.payload, start,
                    done = std::move(done)](double now, bool ok,
                                            const std::string& payload) {
                     uint64_t end = start != 0 ? now_ns() : 0;
                     {
                       std::lock_guard<std::mutex> lock(probe->mu);
                       auto it = probe->inflight.find(key);
                       if (it != probe->inflight.end() && --it->second == 0) {
                         probe->inflight.erase(it);
                       }
                       uint64_t h = fnv1a(key);
                       if (start != 0 && trace_sampled(h) && probe->spans.size() < kMaxSpans) {
                         Span s;
                         s.name = "channel.invoke";
                         s.start_ns = start;
                         s.end_ns = end;
                         s.key = h;
                         probe->spans.push_back(s);
                       }
                     }
                     done(now, ok, payload);
                   });
  }

  sbroker::core::ChannelStats channel_stats() const override {
    return inner_->channel_stats();
  }

 private:
  std::shared_ptr<sbroker::core::Backend> inner_;
  size_t replica_;
  std::shared_ptr<ChannelProbe> probe_;
};

/// Sums a field of /proc/self/task/*/status (e.g. voluntary_ctxt_switches).
uint64_t sum_task_status(const char* field) {
  uint64_t total = 0;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  size_t flen = std::strlen(field);
  while (dirent* ent = readdir(dir)) {
    if (ent->d_name[0] == '.') continue;
    std::ifstream in(std::string("/proc/self/task/") + ent->d_name + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.compare(0, flen, field) == 0 && line.size() > flen && line[flen] == ':') {
        total += std::strtoull(line.c_str() + flen + 1, nullptr, 10);
      }
    }
  }
  closedir(dir);
  return total;
}

uint64_t status_kib(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  size_t flen = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, flen, field) == 0) {
      return std::strtoull(line.c_str() + flen + 1, nullptr, 10);
    }
  }
  return 0;
}

/// Pins each thread of this process other than the calling one (the shard
/// reactors, in creation order) to its own CPU of `cpus`.
void pin_shard_threads(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  std::vector<pid_t> tids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return;
  while (dirent* ent = readdir(dir)) {
    if (ent->d_name[0] == '.') continue;
    pid_t tid = static_cast<pid_t>(std::strtol(ent->d_name, nullptr, 10));
    if (tid != gettid()) tids.push_back(tid);
  }
  closedir(dir);
  std::sort(tids.begin(), tids.end());
  for (size_t i = 0; i < tids.size(); ++i) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus[i % cpus.size()], &set);
    sched_setaffinity(tids[i], sizeof(set), &set);
  }
}

void write_all(int fd, const std::string& s) {
  size_t off = 0;
  while (off < s.size()) {
    ssize_t n = write(fd, s.data() + off, s.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    off += static_cast<size_t>(n);
  }
}

void append(std::ostringstream& out, const char* key, double value) {
  out << ' ' << key << '=' << static_cast<uint64_t>(value);
}

std::string counters_line(const char* tag, sbroker::net::ShardedBrokerDaemon& daemon,
                          const ChannelProbe& probe, size_t replicas, bool stopped) {
  sbroker::core::BrokerMetrics m = daemon.aggregate_metrics();
  sbroker::net::WireStats ws = daemon.aggregate_wire_stats();
  auto t = m.total();
  std::ostringstream out;
  out << tag;
  append(out, "issued", t.issued);
  append(out, "forwarded", t.forwarded);
  append(out, "cache_hits", t.cache_hits);
  append(out, "dropped", t.dropped);
  append(out, "errors", t.errors);
  append(out, "completed", t.completed);
  append(out, "coalesced", m.flight.coalesced_waiters);
  append(out, "swr_hits", m.flight.swr_hits);
  append(out, "refreshes", m.flight.refreshes);
  append(out, "backend_calls", m.transport.calls);
  append(out, "ch_flushes", m.transport.flushes);
  append(out, "ch_requests_written", m.transport.requests_written);
  append(out, "ch_connections_opened", m.transport.connections_opened);
  append(out, "wire_flushes", ws.flushes);
  append(out, "wire_flushed", ws.flushed_responses);
  append(out, "wire_frames_in", ws.frames_in);
  append(out, "cache_evictions", daemon.shared_cache().evictions());
  append(out, "overlaps", probe.overlaps.load());
  for (size_t r = 0; r < replicas; ++r) {
    append(out, ("probe_calls_" + std::to_string(r)).c_str(), probe.calls[r].load());
  }
  if (stopped) {
    for (size_t r = 0; r < replicas; ++r) {
      uint64_t picks = 0;
      for (size_t s = 0; s < daemon.shards(); ++s) {
        picks += daemon.shard(s).broker().balancer().picks(r);
      }
      append(out, ("picks_" + std::to_string(r)).c_str(), picks);
    }
  }
  append(out, "cpu_ns", cpu_ns(CLOCK_PROCESS_CPUTIME_ID));
  append(out, "vol_ctxsw", sum_task_status("voluntary_ctxt_switches"));
  append(out, "rss_hwm_kib", status_kib("VmHWM:"));
  out << '\n';
  return out.str();
}

}  // namespace

void run_daemon_process(const DaemonPlan& plan, int cmd_fd, int reply_fd) {
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (!plan.cpus.empty()) {
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int cpu : plan.cpus) CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof(set), &set);
  }
  const Workload& w = plan.workload;
  int code = 0;
  try {
    sbroker::net::ShardedBrokerDaemonConfig cfg;
    double threshold = plan.fault == Fault::kShed ? 1.0 : kThreshold;
    cfg.broker.rules = sbroker::core::QosRules{3, threshold};
    cfg.broker.enable_cache = w.cache;
    cfg.broker.cache_capacity = w.cache ? w.cache_capacity : 1;
    cfg.broker.cache_ttl = plan.fault == Fault::kExpire ? 0.5 : w.ttl;
    cfg.broker.cache_tuning.swr_grace = w.swr_grace;
    cfg.broker.cache_tuning.ttl_jitter = w.ttl_jitter;
    cfg.broker.single_flight = plan.fault != Fault::kDupFetch;
    cfg.broker.rng_seed = plan.seed;
    cfg.shards = w.shards;
    cfg.enable_udp = false;
    cfg.admin.enabled = false;
    // Round-robin placement: connection i lands on shard i % shards in
    // every run, where kernel accept sharding would place them by hash.
    cfg.force_acceptor_fallback = w.shards > 1;
    sbroker::net::ShardedBrokerDaemon daemon("perfbench", cfg);
    auto probe = std::make_shared<ChannelProbe>(kReplicas);
    sbroker::core::PoolConfig pool = cfg.broker.pool;
    for (size_t r = 0; r < kReplicas; ++r) {
      uint16_t port = plan.replica_ports.at(r);
      daemon.add_backend([port, pool, r, probe](sbroker::net::Reactor& reactor, size_t) {
        auto inner = std::make_shared<sbroker::net::PipelinedBackend>(
            reactor, port, sbroker::net::PipelinedBackend::Config::from_pool(pool));
        return std::make_shared<ProbedBackend>(std::move(inner), r, probe);
      });
    }
    daemon.start();
    pin_shard_threads(plan.cpus);
    write_all(reply_fd, "ready " + std::to_string(daemon.port()) + "\n");

    std::string buffer;
    char chunk[256];
    bool stopping = false;
    while (!stopping) {
      ssize_t n = read(cmd_fd, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;  // parent gone
      buffer.append(chunk, static_cast<size_t>(n));
      size_t nl;
      while ((nl = buffer.find('\n')) != std::string::npos) {
        std::string cmd = buffer.substr(0, nl);
        buffer.erase(0, nl + 1);
        if (cmd == "snap") {
          write_all(reply_fd, counters_line("snap", daemon, *probe, kReplicas, false));
        } else if (cmd == "trace 1" || cmd == "trace 0") {
          probe->tracing.store(cmd == "trace 1");
          write_all(reply_fd, "ok\n");
        } else if (cmd == "stop") {
          uint64_t hwm = status_kib("VmHWM:");
          daemon.stop();
          std::string line = counters_line("final", daemon, *probe, kReplicas, true);
          // Peak memory as it stood while serving, before teardown.
          line.insert(line.size() - 1, " serve_hwm_kib=" + std::to_string(hwm));
          std::ostringstream spans;
          for (const Span& s : probe->spans) {
            spans << "span " << s.start_ns << ' ' << s.end_ns << ' ' << s.key << '\n';
          }
          write_all(reply_fd, line + spans.str() + "end\n");
          stopping = true;
          break;
        } else {
          write_all(reply_fd, "error unknown command\n");
        }
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench daemon: %s\n", e.what());
    code = 1;
  }
  _exit(code);
}

DaemonProcess::~DaemonProcess() {
  if (cmd_fd_ >= 0) close(cmd_fd_);
  if (reply_fd_ >= 0) close(reply_fd_);
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
  }
}

void DaemonProcess::spawn(const DaemonPlan& plan, void (*in_child)(void*), void* arg) {
  int cmd[2];
  int reply[2];
  if (pipe2(cmd, O_CLOEXEC) != 0 || pipe2(reply, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe failed");
  }
  std::fflush(stdout);
  std::fflush(stderr);
  pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(cmd[1]);
    close(reply[0]);
    if (in_child != nullptr) in_child(arg);
    run_daemon_process(plan, cmd[0], reply[1]);
  }
  close(cmd[0]);
  close(reply[1]);
  pid_ = pid;
  cmd_fd_ = cmd[1];
  reply_fd_ = reply[0];
}

void DaemonProcess::send(const std::string& line) {
  std::string s = line + "\n";
  size_t off = 0;
  while (off < s.size()) {
    ssize_t n = write(cmd_fd_, s.data() + off, s.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("daemon process is gone");
    off += static_cast<size_t>(n);
  }
}

std::string DaemonProcess::read_line() {
  while (true) {
    size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return line;
    }
    pollfd p{reply_fd_, POLLIN, 0};
    int r = poll(&p, 1, kReplyTimeoutMs);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) throw std::runtime_error("daemon process did not answer");
    char chunk[65536];
    ssize_t n = read(reply_fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("daemon process exited");
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

DaemonProcess::Counters DaemonProcess::parse(const std::string& line, const char* tag) {
  std::istringstream in(line);
  std::string word;
  in >> word;
  if (word != tag) throw std::runtime_error("unexpected daemon answer: " + line);
  Counters out;
  while (in >> word) {
    size_t eq = word.find('=');
    if (eq == std::string::npos) continue;
    out[word.substr(0, eq)] = std::strtod(word.c_str() + eq + 1, nullptr);
  }
  return out;
}

uint16_t DaemonProcess::wait_ready() {
  std::string line = read_line();
  if (line.rfind("ready ", 0) != 0) throw std::runtime_error("daemon failed to start");
  return static_cast<uint16_t>(std::stoi(line.substr(6)));
}

DaemonProcess::Counters DaemonProcess::snap() {
  send("snap");
  return parse(read_line(), "snap");
}

void DaemonProcess::set_tracing(bool on) {
  send(on ? "trace 1" : "trace 0");
  if (read_line() != "ok") throw std::runtime_error("daemon refused trace command");
}

DaemonProcess::Counters DaemonProcess::stop(std::vector<Span>* spans) {
  send("stop");
  Counters final_counters = parse(read_line(), "final");
  while (true) {
    std::string line = read_line();
    if (line == "end") break;
    Span s;
    s.name = "channel.invoke";
    if (std::sscanf(line.c_str(), "span %" SCNu64 " %" SCNu64 " %" SCNu64, &s.start_ns, &s.end_ns, &s.key) == 3 &&
        spans != nullptr) {
      spans->push_back(s);
    }
  }
  int status = 0;
  waitpid(pid_, &status, 0);
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("daemon process exited abnormally");
  }
  return final_counters;
}

}  // namespace perfbench
