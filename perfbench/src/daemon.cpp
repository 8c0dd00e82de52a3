#include "daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

constexpr int kStartupTimeoutMs = 60'000;
constexpr int kStopGraceMs = 10'000;

/// Reads the daemon's stdout until the `listening on HOST:PORT` line.
std::uint16_t await_listening(int fd, pid_t pid) {
  std::string buf;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kStartupTimeoutMs);
  for (;;) {
    const auto nl = buf.find('\n');
    if (nl != std::string::npos) {
      const std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      if (line.rfind("listening on ", 0) == 0) {
        return static_cast<std::uint16_t>(
            std::stoul(line.substr(line.rfind(':') + 1)));
      }
      continue;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) {
      throw std::runtime_error("vicinityd did not start listening in time");
    }
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left.count())) < 0 && errno != EINTR) {
      throw std::runtime_error("poll on vicinityd stdout failed");
    }
    char chunk[256];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n == 0) {
      int status = 0;
      ::waitpid(pid, &status, 0);
      throw std::runtime_error("vicinityd exited before listening (status " +
                               std::to_string(status) + ")");
    }
    if (n > 0) buf.append(chunk, static_cast<std::size_t>(n));
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Value of a `Key:   N ...` line in a /proc status file; 0 when absent.
std::uint64_t status_field(const std::string& status, const std::string& key) {
  const auto at = status.find("\n" + key + ":");
  if (at == std::string::npos) return 0;
  return std::stoull(status.substr(at + key.size() + 2));
}

}  // namespace

Daemon::Daemon(const std::string& exe, const std::vector<std::string>& args,
               const std::string& log_path) {
  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe2 failed");
  }
  std::vector<std::string> argv_s{exe};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int log = ::open(log_path.c_str(),
                           O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (log >= 0) ::dup2(log, STDERR_FILENO);
    ::dup2(out[1], STDOUT_FILENO);
    ::execv(exe.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(out[1]);
  stdout_fd_ = out[0];
  try {
    port_ = await_listening(stdout_fd_, pid_);
  } catch (...) {
    stop();
    throw;
  }
}

Daemon::~Daemon() { stop(); }

int Daemon::stop() {
  if (pid_ < 0) return 0;
  ::kill(pid_, SIGTERM);
  int status = 0;
  pid_t done = 0;
  for (int waited = 0; waited < kStopGraceMs; waited += 10) {
    done = ::waitpid(pid_, &status, WNOHANG);
    if (done != 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (done == 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
  stdout_fd_ = -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
}

ProcSample read_proc(pid_t pid) {
  const std::string root =
      pid == 0 ? "/proc/self" : "/proc/" + std::to_string(pid);
  ProcSample s;
  s.rss_mib =
      static_cast<double>(status_field(read_file(root + "/status"), "VmRSS")) /
      1024.0;
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator(root + "/task", ec)) {
    const std::string dir = task.path().string();
    const std::string status = read_file(dir + "/status");
    if (status.empty()) continue;  // the thread exited meanwhile
    ++s.threads;
    s.ctx_switches += status_field(status, "voluntary_ctxt_switches") +
                      status_field(status, "nonvoluntary_ctxt_switches");
    std::istringstream sched(read_file(dir + "/schedstat"));
    double on_cpu_ns = 0.0;
    if (sched >> on_cpu_ns) s.cpu_us += on_cpu_ns / 1e3;
  }
  return s;
}

HostSample read_host() {
  std::istringstream in(read_file("/proc/stat"));
  std::string cpu;
  in >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  HostSample s;
  std::uint64_t v = 0;
  for (int i = 0; i < 8 && in >> v; ++i) {
    s.total += v;
    if (i == 7) s.steal = v;
  }
  return s;
}

double steal_since(const HostSample& from) {
  const HostSample now = read_host();
  return static_cast<double>(now.steal - from.steal) /
         static_cast<double>(std::max<std::uint64_t>(1, now.total - from.total));
}

}  // namespace perfbench
