#include "replicas.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <stdexcept>

namespace perfbench {
namespace {

/// epoll tag for the stop eventfd; listener tags are 1 + replica index,
/// connection tags are the fd shifted past them.
constexpr uint64_t kStopTag = 0;
constexpr uint64_t kConnBase = 1ull << 32;

/// The served call at which the corrupt / error faults fire.
constexpr uint64_t kFaultCall = 50;

int listen_localhost(uint16_t* port) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("replica socket failed");
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(fd, 64) != 0) {
    close(fd);
    throw std::runtime_error("replica bind/listen failed");
  }
  socklen_t len = sizeof(addr);
  getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  *port = ntohs(addr.sin_port);
  return fd;
}

}  // namespace

struct Replicas::Worker {
  struct Conn {
    int fd = -1;
    size_t replica = 0;
    std::string in;
    std::string out;
    size_t out_off = 0;
    bool want_write = false;
  };

  std::vector<size_t> replicas;  ///< replica indices this thread serves
  int epoll_fd = -1;
  int stop_fd = -1;
  int cpu = -1;
  std::thread thread;
  clockid_t clock = CLOCK_THREAD_CPUTIME_ID;
  std::atomic<bool> clock_ready{false};
  std::unordered_map<int, Conn> conns;
  std::vector<Span> spans;
  std::unordered_map<std::string, uint32_t> key_calls;
  /// Spans of requests read but not yet written, per connection batch.
  std::vector<Span> pending;
};

Replicas::Replicas(const Workload& workload, Fault fault)
    : workload_(workload), fault_(fault) {
  calls_ = std::make_unique<std::atomic<uint64_t>[]>(kReplicas);
  for (size_t i = 0; i < kReplicas; ++i) calls_[i] = 0;
}

Replicas::~Replicas() {
  stop();
  for (int fd : listen_fds_) {
    if (fd >= 0) close(fd);
  }
}

void Replicas::bind() {
  for (size_t i = 0; i < kReplicas; ++i) {
    uint16_t port = 0;
    listen_fds_.push_back(listen_localhost(&port));
    ports_.push_back(port);
  }
}

void Replicas::close_listeners() {
  for (int& fd : listen_fds_) {
    close(fd);
    fd = -1;
  }
}

void Replicas::start(const std::vector<int>& cpus) {
  size_t threads = std::max<size_t>(1, std::min(workload_.replica_threads,
                                                kReplicas));
  for (size_t t = 0; t < threads; ++t) {
    auto worker = std::make_unique<Worker>();
    for (size_t r = t; r < kReplicas; r += threads) {
      worker->replicas.push_back(r);
    }
    worker->cpu = t < cpus.size() ? cpus[t] : -1;
    worker->epoll_fd = epoll_create1(EPOLL_CLOEXEC);
    worker->stop_fd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (worker->epoll_fd < 0 || worker->stop_fd < 0) {
      throw std::runtime_error("replica epoll/eventfd failed");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kStopTag;
    epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, worker->stop_fd, &ev);
    for (size_t r : worker->replicas) {
      ev.data.u64 = 1 + r;
      epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, listen_fds_[r], &ev);
    }
    workers_.push_back(std::move(worker));
  }
  for (auto& worker : workers_) {
    Worker* w = worker.get();
    w->thread = std::thread([this, w]() { serve(*w); });
    pthread_getcpuclockid(w->thread.native_handle(), &w->clock);
    w->clock_ready = true;
  }
}

void Replicas::stop() {
  for (auto& worker : workers_) {
    if (!worker->thread.joinable()) continue;
    uint64_t one = 1;
    ssize_t n = write(worker->stop_fd, &one, sizeof(one));
    (void)n;
    worker->thread.join();
    for (auto& [fd, conn] : worker->conns) close(fd);
    worker->conns.clear();
    close(worker->epoll_fd);
    close(worker->stop_fd);
  }
}

uint64_t Replicas::calls(size_t replica) const {
  uint64_t n = calls_[replica].load(std::memory_order_relaxed);
  if (fault_ == Fault::kLostCalls) return 0;
  if (replica != 0) return n;
  switch (fault_) {
    case Fault::kCount: return n + 1;
    case Fault::kInflateCalls: return 20 * n;
    default: return n;
  }
}

uint64_t Replicas::total_calls() const {
  uint64_t total = 0;
  for (size_t i = 0; i < kReplicas; ++i) total += calls(i);
  return total;
}

uint64_t Replicas::cpu_ns() const {
  uint64_t total = 0;
  for (const auto& worker : workers_) {
    if (worker->clock_ready && worker->thread.joinable()) total += perfbench::cpu_ns(worker->clock);
  }
  return total;
}

std::vector<Span> Replicas::take_spans() {
  std::vector<Span> all;
  for (auto& worker : workers_) {
    all.insert(all.end(), worker->spans.begin(), worker->spans.end());
    worker->spans.clear();
  }
  return all;
}

std::unordered_map<std::string, uint32_t> Replicas::key_calls() const {
  std::unordered_map<std::string, uint32_t> all;
  for (const auto& worker : workers_) {
    for (const auto& [key, n] : worker->key_calls) all[key] += n;
  }
  return all;
}

void Replicas::serve(Worker& w) {
  if (w.cpu >= 0) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(w.cpu, &set);
    pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
  }
  std::vector<char> buf(256 * 1024);
  epoll_event events[64];
  auto close_conn = [&](int fd) {
    epoll_ctl(w.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
    close(fd);
    w.conns.erase(fd);
  };
  // Writes what is queued; false when the connection died.
  auto flush = [&](Worker::Conn& c) {
    while (c.out_off < c.out.size()) {
      ssize_t n = write(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off);
      if (n > 0) {
        c.out_off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      return false;
    }
    bool pending = c.out_off < c.out.size();
    if (!pending) {
      c.out.clear();
      c.out_off = 0;
    }
    if (pending != c.want_write) {
      epoll_event ev{};
      ev.events = EPOLLIN | (pending ? EPOLLOUT : 0u);
      ev.data.u64 = kConnBase + static_cast<uint64_t>(c.fd);
      epoll_ctl(w.epoll_fd, EPOLL_CTL_MOD, c.fd, &ev);
      c.want_write = pending;
    }
    return true;
  };

  while (true) {
    int n = epoll_wait(w.epoll_fd, events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    for (int e = 0; e < n; ++e) {
      uint64_t tag = events[e].data.u64;
      if (tag == kStopTag) return;
      if (tag < kConnBase) {
        size_t replica = static_cast<size_t>(tag - 1);
        while (true) {
          int fd = accept4(listen_fds_[replica], nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
          if (fd < 0) break;
          int one = 1;
          setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
          Worker::Conn& c = w.conns[fd];
          c.fd = fd;
          c.replica = replica;
          epoll_event ev{};
          ev.events = EPOLLIN;
          ev.data.u64 = kConnBase + static_cast<uint64_t>(fd);
          epoll_ctl(w.epoll_fd, EPOLL_CTL_ADD, fd, &ev);
        }
        continue;
      }
      int fd = static_cast<int>(tag - kConnBase);
      auto it = w.conns.find(fd);
      if (it == w.conns.end()) continue;
      Worker::Conn& c = it->second;
      if (events[e].events & EPOLLOUT) {
        if (!flush(c)) {
          close_conn(fd);
          continue;
        }
      }
      if (!(events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR))) continue;
      bool eof = false;
      while (true) {
        ssize_t r = read(fd, buf.data(), buf.size());
        if (r > 0) {
          c.in.append(buf.data(), static_cast<size_t>(r));
          if (static_cast<size_t>(r) < buf.size()) break;
          continue;
        }
        if (r < 0 && errno == EINTR) continue;
        if (r == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) eof = true;
        break;
      }
      uint64_t t_recv = now_ns();
      bool tracing = tracing_.load(std::memory_order_relaxed);
      bool bad = false;
      size_t off = 0;
      while (true) {
        size_t end = c.in.find("\r\n\r\n", off);
        if (end == std::string::npos) break;
        std::string_view head(c.in.data() + off, end - off);
        off = end + 4;
        size_t sp1 = head.find(' ');
        size_t sp2 = sp1 == std::string_view::npos ? sp1 : head.find(' ', sp1 + 1);
        if (sp2 == std::string_view::npos || head.substr(0, sp1) != "GET" ||
            head.find("Content-Length") != std::string_view::npos) {
          bad = true;
          break;
        }
        std::string_view key = head.substr(sp1 + 1, sp2 - sp1 - 1);
        uint64_t h = fnv1a(key);
        size_t size = value_size(workload_, h);
        uint64_t served = served_total_.fetch_add(1, std::memory_order_relaxed) + 1;
        calls_[c.replica].fetch_add(1, std::memory_order_relaxed);
        if (track_keys_) w.key_calls[std::string(key)] += 1;
        bool fail = fault_ == Fault::kError && served == kFaultCall;
        char header[96];
        int hl = std::snprintf(header, sizeof(header),
                               "HTTP/1.1 %s\r\nContent-Length: %zu\r\n\r\n",
                               fail ? "500 Internal Server Error" : "200 OK", size);
        c.out.append(header, static_cast<size_t>(hl));
        size_t at = c.out.size();
        c.out.resize(at + size);
        fill_value(h, size, c.out.data() + at);
        if (fault_ == Fault::kCorrupt && served == kFaultCall) c.out[at] ^= 0x01;
        if (tracing && trace_sampled(h) && w.spans.size() + w.pending.size() < kMaxSpans) {
          Span s;
          s.name = "replica.service";
          s.start_ns = t_recv;
          s.key = h;
          w.pending.push_back(s);
        }
      }
      if (off > 0) c.in.erase(0, off);
      if (bad) protocol_errors_.fetch_add(1);
      uint64_t t_send = now_ns();
      for (Span& s : w.pending) {
        s.end_ns = t_send;
        w.spans.push_back(s);
      }
      w.pending.clear();
      if (bad || eof || !flush(c)) close_conn(fd);
    }
  }
}

}  // namespace perfbench
