#include "client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {
namespace {

/// Longest a drain may take before the run is declared stuck.
constexpr uint64_t kDrainTimeoutNs = 10'000'000'000ull;

int connect_localhost(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("client socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    throw std::runtime_error("client connect failed");
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  int fl = fcntl(fd, F_GETFL, 0);
  fcntl(fd, F_SETFL, fl | O_NONBLOCK);
  return fd;
}

}  // namespace

double LatencyLog::quantile_us(double q) const {
  if (count_ == 0) return 0.0;
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_)));
  rank = std::clamp<uint64_t>(rank, 1, count_);
  uint64_t seen = 0;
  for (size_t slot = 0; slot < slots_.size(); ++slot) {
    seen += slots_[slot];
    if (seen >= rank) {
      return static_cast<double>(slot * kStepNs + kStepNs / 2) * 1e-3;
    }
  }
  std::vector<uint64_t> tail = tail_;
  std::sort(tail.begin(), tail.end());
  return static_cast<double>(tail.at(rank - seen - 1)) * 1e-3;
}

Client::Client(const Workload& workload, uint64_t seed, Fault fault)
    : workload_(workload), seed_(seed), fault_(fault) {
  if (workload_.dist != KeyDist::kDistinct) {
    keys_.reserve(workload_.keyspace);
    for (uint64_t i = 0; i < workload_.keyspace; ++i) {
      keys_.push_back(key_for(workload_, seed_, i));
      key_hashes_.push_back(fnv1a(keys_.back()));
    }
    seen_.assign(workload_.keyspace, 0);
  }
  if (workload_.dist == KeyDist::kZipf) {
    zipf_cdf_.resize(workload_.keyspace);
    double sum = 0.0;
    for (size_t i = 0; i < workload_.keyspace; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), workload_.zipf_theta);
      zipf_cdf_[i] = sum;
    }
    for (double& v : zipf_cdf_) v /= sum;
  }
}

Client::~Client() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) close(c.fd);
  }
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

void Client::connect(uint16_t port) {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  conns_.resize(workload_.connections);
  for (size_t i = 0; i < conns_.size(); ++i) {
    Conn& c = conns_[i];
    c.fd = connect_localhost(port);
    c.rng = Rng(mix64(seed_) ^ (0x5bd1e995ull * (i + 1)));
    c.slots.resize(workload_.window);
    for (uint32_t s = 0; s < workload_.window; ++s) {
      c.free.push_back(static_cast<uint32_t>(workload_.window - 1 - s));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = static_cast<uint32_t>(i);
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, c.fd, &ev);
  }
}

uint64_t Client::requests_sent() const {
  return sent_ + (fault_ == Fault::kConserve ? 1 : 0);
}

size_t Client::in_flight() const {
  size_t n = 0;
  for (const Conn& c : conns_) n += c.slots.size() - c.free.size();
  return n;
}

bool Client::next_key(Mode mode, Conn& c, std::string& key, uint64_t& hash,
                      uint8_t& qos) {
  size_t index = 0;
  if (mode == Mode::kPreload) {
    if (next_preload_ >= keys_.size()) return false;
    index = next_preload_++;
  } else if (workload_.dist == KeyDist::kDistinct) {
    key = key_for(workload_, seed_, next_distinct_++);
    hash = fnv1a(key);
    qos = workload_.mixed_qos ? static_cast<uint8_t>(1 + c.rng.below(3)) : 3;
    return true;
  } else if (workload_.dist == KeyDist::kZipf) {
    double u = c.rng.unit();
    index = static_cast<size_t>(
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) - zipf_cdf_.begin());
    if (index >= keys_.size()) index = keys_.size() - 1;
  } else {
    index = c.rng.below(keys_.size());
  }
  if (!seen_[index]) {
    seen_[index] = 1;
    ++distinct_;
  }
  key.assign(keys_[index]);
  hash = key_hashes_[index];
  qos = workload_.mixed_qos ? static_cast<uint8_t>(1 + c.rng.below(3)) : 3;
  return true;
}

void Client::on_reply(Conn& c, size_t conn_index, const wire::Reply& reply,
                      uint64_t now, PhaseStats* record) {
  uint64_t slot_index = reply.id & 0xffff;
  if ((reply.id >> 56) != conn_index || slot_index >= c.slots.size() ||
      !c.slots[slot_index].busy || c.slots[slot_index].id != reply.id) {
    ++bad_ids_;
    return;
  }
  Slot& slot = c.slots[slot_index];
  ++replies_;
  bool status_ok = (reply.status == wire::kStatusFull ||
                    reply.status == wire::kStatusCached) &&
                   (reply.flags & (wire::kFlagShed | wire::kFlagError)) == 0;
  if (!status_ok) {
    ++bad_status_;
  } else {
    size_t size = value_size(workload_, slot.key_hash);
    expected_.resize(size);
    fill_value(slot.key_hash, size, expected_.data());
    if (reply.payload != std::string_view(expected_)) ++bad_payloads_;
  }
  if (record != nullptr) {
    record->latency.add(now - slot.sent_ns);
    ++record->replies;
    size_t bucket = static_cast<size_t>((now - record->start_ns) / kBucketNs);
    if (bucket >= record->buckets.size()) record->buckets.resize(bucket + 1, 0);
    ++record->buckets[bucket];
  }
  if (tracing_ && trace_sampled(slot.key_hash) && spans_.size() < kMaxSpans) {
    Span s;
    s.name = "client.request";
    s.start_ns = slot.sent_ns;
    s.end_ns = now;
    s.request = slot.id;
    s.key = slot.key_hash;
    spans_.push_back(s);
  }
  slot.busy = false;
  c.free.push_back(static_cast<uint32_t>(slot_index));
}

template <typename Done>
void Client::loop(Mode mode, Done done, PhaseStats* record) {
  epoll_event events[16];
  static thread_local std::vector<char> buf(512 * 1024);
  while (!done()) {
    if (mode != Mode::kDrain) {
      for (Conn& c : conns_) {
        while (!c.free.empty()) {
          uint32_t s = c.free.back();
          Slot& slot = c.slots[s];
          uint8_t qos = 3;
          if (!next_key(mode, c, slot.key, slot.key_hash, qos)) break;
          c.free.pop_back();
          size_t conn_index = static_cast<size_t>(&c - conns_.data());
          ++slot.gen;
          slot.id = (static_cast<uint64_t>(conn_index) << 56) |
                    (static_cast<uint64_t>(slot.gen & 0xffffffffu) << 16) | s;
          slot.busy = true;
          wire::encode_request(slot.id, qos, slot.key, c.out);
          c.filled.push_back(s);
          ++sent_;
        }
      }
    }
    uint64_t t_send = now_ns();
    for (Conn& c : conns_) {
      for (uint32_t s : c.filled) c.slots[s].sent_ns = t_send;
      c.filled.clear();
      while (c.out_off < c.out.size()) {
        ssize_t n = write(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off);
        if (n > 0) {
          c.out_off += static_cast<size_t>(n);
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        throw std::runtime_error("client write failed: broker closed the connection");
      }
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      }
    }
    int n = epoll_wait(epoll_fd_, events, 16, 20);
    if (n < 0 && errno != EINTR) throw std::runtime_error("client epoll failed");
    uint64_t t_recv = now_ns();
    for (int e = 0; e < n; ++e) {
      size_t ci = events[e].data.u32;
      Conn& c = conns_[ci];
      while (true) {
        ssize_t r = read(c.fd, buf.data(), buf.size());
        if (r > 0) {
          c.in.append(buf.data(), static_cast<size_t>(r));
          if (static_cast<size_t>(r) < buf.size()) break;
          continue;
        }
        if (r < 0 && errno == EINTR) continue;
        if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        throw std::runtime_error("client read failed: broker closed the connection");
      }
      size_t off = 0;
      while (true) {
        wire::Reply reply;
        long used = wire::parse_reply(std::string_view(c.in).substr(off), reply);
        if (used < 0) throw std::runtime_error("client got a malformed reply frame");
        if (used == 0) break;
        on_reply(c, ci, reply, t_recv, record);
        off += static_cast<size_t>(used);
      }
      if (off > 0) c.in.erase(0, off);
    }
  }
}

void Client::preload() {
  loop(Mode::kPreload,
       [this]() { return next_preload_ >= keys_.size() && in_flight() == 0; },
       nullptr);
}

void Client::run_replies(uint64_t replies) {
  uint64_t target = replies_ + replies;
  loop(Mode::kStream, [this, target]() { return replies_ >= target; }, nullptr);
}

PhaseStats Client::run_for(double seconds) {
  PhaseStats stats;
  stats.start_ns = now_ns();
  uint64_t end = stats.start_ns + static_cast<uint64_t>(seconds * 1e9);
  loop(Mode::kStream, [end]() { return now_ns() >= end; }, &stats);
  stats.end_ns = now_ns();
  return stats;
}

void Client::drain() {
  uint64_t give_up = now_ns() + kDrainTimeoutNs;
  loop(Mode::kDrain,
       [this, give_up]() {
         if (now_ns() > give_up) throw std::runtime_error("replies missing after drain");
         return in_flight() == 0;
       },
       nullptr);
}

}  // namespace perfbench
