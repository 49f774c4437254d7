// The broker under test, in its own forked process so that its CPU time,
// context switches and memory are read apart from the load generator's.
//
// The parent drives it over two pipes with one-line commands:
//   snap      -> "snap k=v ..."   broker, wire, channel and process counters
//   trace 0|1 -> "ok"             channel-span recording off / on
//   stop      -> "final k=v ..."  counters after the shards stopped, then one
//                "span <start> <end> <key>" line per channel span, then "end"
// The daemon announces itself with "ready <port>".
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct DaemonPlan {
  Workload workload;
  uint64_t seed = 0;
  Fault fault = Fault::kNone;
  std::vector<uint16_t> replica_ports;
  std::vector<int> cpus;  ///< CPUs the daemon process may run on; empty = any
};

/// Body of the forked child; never returns.
[[noreturn]] void run_daemon_process(const DaemonPlan& plan, int cmd_fd, int reply_fd);

/// Parent-side handle: forks the daemon and speaks the command protocol.
class DaemonProcess {
 public:
  DaemonProcess() = default;
  ~DaemonProcess();  ///< kills and reaps the child if still running
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  using Counters = std::map<std::string, double>;

  /// Forks; `in_child` runs first in the child (closing inherited fds).
  void spawn(const DaemonPlan& plan, void (*in_child)(void*), void* arg);
  /// Waits for "ready"; returns the daemon's frame port.
  uint16_t wait_ready();
  Counters snap();
  void set_tracing(bool on);
  /// Stops the daemon and reaps the process; fills the final counters and
  /// the channel spans it recorded.
  Counters stop(std::vector<Span>* spans);
  int pid() const { return pid_; }

 private:
  void send(const std::string& line);
  std::string read_line();
  static Counters parse(const std::string& line, const char* tag);

  int pid_ = -1;
  int cmd_fd_ = -1;
  int reply_fd_ = -1;
  std::string buffer_;
};

}  // namespace perfbench
