// A gmfnetd child process: spawned on a Unix-domain socket, read from
// /proc while it runs, and always reaped.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace gmfbench {

/// Host CPU time (/proc/stat, all CPUs, in ticks): the total and the part
/// the hypervisor stole from this machine's virtual CPUs.
struct HostCpu {
  unsigned long long total = 0;
  unsigned long long steal = 0;
};
[[nodiscard]] HostCpu host_cpu();

class Daemon {
 public:
  /// Starts `exe args... --unix socket_path` with stdout on a pipe and
  /// stderr appended to `log_path`, and returns once the daemon announced
  /// that it serves (it booted and listens).  Throws std::runtime_error
  /// when it exits or stays silent for `timeout_ms`.
  Daemon(const std::string& exe, const std::vector<std::string>& args,
         const std::string& socket_path, const std::string& log_path,
         int timeout_ms = 60'000);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// The daemon's Unix socket path.
  [[nodiscard]] const std::string& socket() const { return socket_; }
  [[nodiscard]] pid_t pid() const { return pid_; }

  /// User + system CPU time consumed so far (/proc/<pid>/stat), in µs.
  [[nodiscard]] double cpu_us() const;
  /// Peak resident set size (VmHWM of /proc/<pid>/status), in MiB.
  [[nodiscard]] double peak_rss_mb() const;

  /// Asks the daemon to exit (SHUTDOWN), waits up to `timeout_ms`, then
  /// kills it.  Returns true when it exited by itself with status 0.
  bool stop(int timeout_ms = 10'000);

 private:
  bool wait_exit(int timeout_ms, int& status);

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string socket_;
};

}  // namespace gmfbench
