// The vicinityd child process, and what the benchmark reads about it from
// outside: /proc counters summed over every thread, and VmRSS.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Starts `exe args...` with stdout on a pipe and stderr appended to
/// `log_path`, and blocks until the daemon prints `listening on HOST:PORT`.
/// The child is killed if the benchmark dies (PR_SET_PDEATHSIG). The
/// destructor stops it if stop() was not called.
class Daemon {
 public:
  Daemon(const std::string& exe, const std::vector<std::string>& args,
         const std::string& log_path);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }
  std::uint16_t port() const { return port_; }

  /// SIGTERM (graceful drain), then SIGKILL after a grace period; waits for
  /// the process either way. Returns its exit code (128+signal if killed).
  int stop();

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::uint16_t port_ = 0;
};

/// One reading of a process's counters, summed over /proc/PID/task/*.
struct ProcSample {
  double cpu_us = 0.0;               ///< on-CPU time (schedstat)
  std::uint64_t ctx_switches = 0;    ///< voluntary + nonvoluntary
  std::uint64_t threads = 0;
  double rss_mib = 0.0;              ///< VmRSS
};

/// `pid` 0 reads the benchmark process itself.
ProcSample read_proc(pid_t pid);

/// The machine's CPU time from the first line of /proc/stat, in ticks.
struct HostSample {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;  ///< taken by the hypervisor for other guests
};

HostSample read_host();

/// The share of the machine's CPU time stolen since `from`.
double steal_since(const HostSample& from);

}  // namespace perfbench
