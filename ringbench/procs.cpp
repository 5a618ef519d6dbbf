// Daemon processes and the control side of the wire: spawning the
// shipped binaries, reading their listen port back, stopping them, the
// STATS / TRACE / MEMBERS commands, and /proc readings.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <fstream>
#include <sstream>
#include <thread>

#include "ringbench.hpp"
#include "util/net.hpp"

extern char** environ;

namespace ringbench {
namespace {

constexpr double kStartTimeoutS = 30.0;
constexpr double kStopTimeoutS = 15.0;

// Set by split_cpus(): the CPUs the daemons run on.
bool g_split_cpus = false;
cpu_set_t g_daemon_cpus;

/// The port from a "<binary>: listening on 127.0.0.1:PORT" log line.
int find_port(const std::string& log) {
  const std::string mark = "listening on 127.0.0.1:";
  const std::size_t at = log.find(mark);
  if (at == std::string::npos) return 0;
  const std::size_t eol = log.find('\n', at);
  if (eol == std::string::npos) return 0;  // line not complete yet
  return std::atoi(log.c_str() + at + mark.size());
}

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

}  // namespace

std::string split_cpus() {
  cpu_set_t all;
  CPU_ZERO(&all);
  if (::sched_getaffinity(0, sizeof all, &all) != 0 || CPU_COUNT(&all) < 2)
    return "client and daemons share every CPU";
  int client = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &all)) client = c;
  cpu_set_t mine;
  CPU_ZERO(&mine);
  CPU_SET(client, &mine);
  if (::sched_setaffinity(0, sizeof mine, &mine) != 0)
    return "client and daemons share every CPU";
  g_daemon_cpus = all;
  CPU_CLR(client, &g_daemon_cpus);
  g_split_cpus = true;
  return "client on CPU " + std::to_string(client) + ", daemons on the other " +
         std::to_string(CPU_COUNT(&g_daemon_cpus));
}

void move_to_daemon_cpus() {
  if (g_split_cpus) ::sched_setaffinity(0, sizeof g_daemon_cpus, &g_daemon_cpus);
}

Daemon::Daemon(std::string label, const std::vector<std::string>& argv,
               const std::vector<std::string>& env,
               const std::string& log_path)
    : label_(std::move(label)), log_path_(log_path) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  std::vector<std::string> env_strs;
  for (char** e = environ; *e != nullptr; ++e) env_strs.emplace_back(*e);
  env_strs.insert(env_strs.end(), env.begin(), env.end());
  std::vector<char*> envp;
  for (const std::string& e : env_strs) envp.push_back(const_cast<char*>(e.c_str()));
  envp.push_back(nullptr);

  // Truncated here, before the child exists, so the port scan below
  // can never read a previous run's log.
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) throw BenchError("cannot open " + log_path);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(log_fd);
    throw BenchError("fork failed for " + label_);
  }
  if (pid_ == 0) {
    // Child: only async-signal-safe calls until exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int devnull = ::open("/dev/null", O_RDONLY);
    if (devnull < 0) ::_exit(127);
    ::dup2(devnull, 0);
    ::dup2(log_fd, 1);
    ::dup2(log_fd, 2);
    // No client socket may leak into a daemon: it would keep the peer
    // connection open past the client's close.
    ::close_range(3, ~0U, 0);
    if (g_split_cpus) ::sched_setaffinity(0, sizeof g_daemon_cpus, &g_daemon_cpus);
    ::execve(args[0], args.data(), envp.data());
    ::_exit(127);
  }
  ::close(log_fd);

  const Time deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kStartTimeoutS));
  while (Clock::now() < deadline) {
    port_ = find_port(read_file(log_path_));
    if (port_ > 0) return;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw BenchError(label_ + " exited during start-up; log: " +
                       read_file(log_path_));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop();
  throw BenchError(label_ + " did not report a listen port");
}

Daemon::~Daemon() { stop(); }

void Daemon::stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  const Time deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kStopTimeoutS));
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (Clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pid_ = -1;
}

double peak_rss_mb(pid_t pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
  return 0.0;
}

double cpu_ms(pid_t pid) {
  // Fields 14 and 15 of /proc/<pid>/stat, counted after the
  // parenthesised command name (which may itself hold spaces).
  const std::string stat = read_file("/proc/" + std::to_string(pid) + "/stat");
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream is(stat.substr(close + 2));
  std::string tok;
  double ticks = 0.0;
  for (int field = 3; field <= 15 && (is >> tok); ++field)
    if (field >= 14) ticks += std::atof(tok.c_str());
  return ticks * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

// --- Conn --------------------------------------------------------------

Conn::InBuf::InBuf(int fd) : fd_(fd), buf_(std::size_t{1} << 20) {}

Conn::InBuf::int_type Conn::InBuf::underflow() {
  if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
  while (true) {
    const ssize_t got = ::recv(fd_, buf_.data(), buf_.size(), 0);
    if (got > 0) {
      total_ += static_cast<std::uint64_t>(got);
      setg(buf_.data(), buf_.data(), buf_.data() + got);
      return traits_type::to_int_type(*gptr());
    }
    if (got < 0 && errno == EINTR) continue;
    return traits_type::eof();  // EOF, error, or the read timeout
  }
}

Conn::Conn(int port, int read_timeout_s)
    : fd_(starring::net::connect_endpoint(
          starring::net::Endpoint{"127.0.0.1", port})),
      buf_(fd_),
      in_(&buf_) {
  if (fd_ < 0)
    throw BenchError("cannot connect to 127.0.0.1:" + std::to_string(port));
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  timeval tv{read_timeout_s, 0};
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

bool Conn::send(const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t put =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (put < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(put);
  }
  return true;
}

void Conn::shutdown() { ::shutdown(fd_, SHUT_RDWR); }

bool Conn::wait_readable() {
  // A record's parser stops at its `end` token, so the newline after it
  // is still buffered: skip it, or it would pass for the next record's
  // first byte.
  in_ >> std::ws;
  return in_.rdbuf()->sgetc() != std::char_traits<char>::eof();
}

// --- control commands --------------------------------------------------

std::map<std::string, double> scrape_stats(int port) {
  Conn c(port);
  std::string err;
  if (!c.send("STATS\n")) throw BenchError("STATS: send failed");
  const auto body = starring::read_stats(c.in(), &err);
  if (!body) throw BenchError("STATS: " + err);
  std::map<std::string, double> out;
  std::istringstream is(*body);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#' || line.find('{') != std::string::npos)
      continue;
    const std::size_t sp = line.find(' ');
    if (sp == std::string::npos) continue;
    out[line.substr(0, sp)] = std::atof(line.c_str() + sp + 1);
  }
  return out;
}

starring::TraceDump pull_trace(int port) {
  Conn c(port);
  std::string err;
  if (!c.send("TRACE\n")) throw BenchError("TRACE: send failed");
  auto d = starring::read_trace(c.in(), &err);
  if (!d) throw BenchError("TRACE: " + err);
  return std::move(*d);
}

std::vector<std::string> alive_members(int port) {
  Conn c(port);
  std::string err;
  if (!c.send("MEMBERS\n")) throw BenchError("MEMBERS: send failed");
  const auto m = starring::read_membership(c.in(), &err);
  if (!m) throw BenchError("MEMBERS: " + err);
  std::vector<std::string> out;
  for (const starring::MemberRecord& r : m->members)
    if (r.state == starring::MemberWireState::kAlive && r.shard_id >= 0)
      out.push_back(r.addr);
  return out;
}

}  // namespace ringbench
