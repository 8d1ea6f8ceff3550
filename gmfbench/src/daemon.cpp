#include "daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "rpc/client.hpp"


namespace gmfbench {

namespace {

using Clock = std::chrono::steady_clock;

int ms_left(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  return left < 0 ? 0 : static_cast<int>(left);
}

}  // namespace

Daemon::Daemon(const std::string& exe, const std::vector<std::string>& args,
               const std::string& socket_path, const std::string& log_path,
               int timeout_ms) {
  socket_ = socket_path;
  int pipefd[2];
  if (::pipe2(pipefd, O_CLOEXEC) != 0) {
    throw std::runtime_error("gmfnetd: pipe failed");
  }
  std::vector<std::string> argv_s{exe};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  argv_s.push_back("--unix");
  argv_s.push_back(socket_path);
  std::vector<char*> argv;
  for (std::string& s : argv_s) argv.push_back(s.data());
  argv.push_back(nullptr);

  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  pid_ = ::fork();
  if (pid_ == 0) {
    // Child: only async-signal-safe calls until exec.  The daemon dies
    // with the benchmark even when the benchmark itself is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(pipefd[1], STDOUT_FILENO);
    if (log_fd >= 0) ::dup2(log_fd, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  if (log_fd >= 0) ::close(log_fd);
  ::close(pipefd[1]);
  out_fd_ = pipefd[0];
  if (pid_ < 0) {
    ::close(out_fd_);
    throw std::runtime_error("gmfnetd: fork failed");
  }

  // The daemon prints "gmfnetd: serving on unix:PATH" once it listens.
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  std::string out;
  for (;;) {
    if (out.find("serving on unix:") != std::string::npos) break;
    pollfd pfd{out_fd_, POLLIN, 0};
    const int left = ms_left(deadline);
    if (left == 0 || ::poll(&pfd, 1, left) <= 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
      throw std::runtime_error("gmfnetd did not come up; output: " + out);
    }
    char buf[512];
    const ssize_t n = ::read(out_fd_, buf, sizeof buf);
    if (n <= 0) {
      int status = 0;
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
      throw std::runtime_error("gmfnetd exited during boot; output: " + out);
    }
    out.append(buf, static_cast<std::size_t>(n));
  }
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  if (out_fd_ >= 0) ::close(out_fd_);
}

HostCpu host_cpu() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  HostCpu h;
  // user nice system idle iowait irq softirq steal [guest guest_nice]
  unsigned long long v = 0;
  for (int i = 0; i < 8 && in >> v; ++i) {
    h.total += v;
    if (i == 7) h.steal = v;
  }
  return h;
}

double Daemon::cpu_us() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string line;
  std::getline(in, line);
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields overall, i.e. the 12th and 13th after it.
  const auto close = line.rfind(')');
  if (close == std::string::npos) {
    throw std::runtime_error("cannot read /proc/<pid>/stat of gmfnetd");
  }
  std::istringstream fields(line.substr(close + 2));
  std::string f;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  for (int i = 1; i <= 13 && fields >> f; ++i) {
    if (i == 12) utime = std::stoull(f);
    if (i == 13) stime = std::stoull(f);
  }
  return static_cast<double>(utime + stime) * 1e6 /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double Daemon::peak_rss_mb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("cannot read VmHWM of gmfnetd");
}

bool Daemon::wait_exit(int timeout_ms, int& status) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) return true;
    if (r < 0 || ms_left(deadline) == 0) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

bool Daemon::stop(int timeout_ms) {
  if (pid_ <= 0) return false;
  bool asked = true;
  try {
    gmfnet::rpc::ClientConfig cfg;
    cfg.request_timeout_ms = timeout_ms;
    gmfnet::rpc::Client::connect_unix(socket_, cfg).shutdown();
  } catch (const std::exception&) {
    asked = false;
  }
  int status = 0;
  bool clean = asked && wait_exit(timeout_ms, status) && WIFEXITED(status) &&
               WEXITSTATUS(status) == 0;
  if (!clean && ::waitpid(pid_, &status, WNOHANG) == 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    clean = false;
  }
  pid_ = -1;
  return clean;
}

}  // namespace gmfbench
