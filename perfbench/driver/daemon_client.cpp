#include "daemon_client.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "io/json_value.hpp"
#include "report/json.hpp"
#include "server/fd_io.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

int connect_to(const std::string& sock) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (sock.size() >= sizeof addr.sun_path) {
    ::close(fd);
    throw std::runtime_error("socket path too long: " + sock);
  }
  std::memcpy(addr.sun_path, sock.c_str(), sock.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool wait_exit(int pid, double timeout_s) {
  const double until = now_s() + timeout_s;
  while (now_s() < until) {
    int status = 0;
    const int r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid || (r < 0 && errno == ECHILD)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

/// The "report" member of a result line, verbatim (it is the last member).
std::string report_of(const std::string& line) {
  const std::string key = ", \"report\": ";
  const std::size_t at = line.find(key);
  if (at == std::string::npos || line.empty() || line.back() != '}') return "";
  return line.substr(at + key.size(), line.size() - 1 - (at + key.size()));
}

}  // namespace

Daemon::Daemon(const std::string& soctest_bin, const std::string& sock,
               int lanes)
    : sock_(sock) {
  ::unlink(sock.c_str());
  const std::string jobs = std::to_string(lanes);
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    // The daemon must not outlive the driver, even if the driver is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    // stdout carries the driver's own protocol lines; the daemon's banner
    // must not mix into it.
    const int devnull = ::open("/dev/null", O_WRONLY | O_CLOEXEC);
    if (devnull >= 0) ::dup2(devnull, STDOUT_FILENO);
    std::vector<char*> argv = {const_cast<char*>(soctest_bin.c_str()),
                               const_cast<char*>("--serve"),
                               const_cast<char*>(sock.c_str()),
                               const_cast<char*>("--jobs"),
                               const_cast<char*>(jobs.c_str()), nullptr};
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  const double until = now_s() + 30.0;
  while (now_s() < until) {
    const int fd = connect_to(sock);
    if (fd >= 0) {
      ::close(fd);
      Connection c(sock);
      if (c.call("{\"op\": \"ping\", \"id\": \"p\"}", 10.0)
              .find("\"pong\"") != std::string::npos)
        return;
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("daemon exited during start-up");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  shutdown();
  throw std::runtime_error("daemon did not answer ping");
}

Daemon::~Daemon() {
  try {
    shutdown();
  } catch (...) {
    // Reaping below is what matters.
  }
}

void Daemon::shutdown() {
  if (pid_ <= 0) return;
  try {
    Connection c(sock_);
    c.call("{\"op\": \"shutdown\", \"id\": \"bye\"}", 10.0);
  } catch (const std::exception&) {
    // Fall through to the kill below.
  }
  if (!wait_exit(pid_, 10.0)) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  pid_ = -1;
  ::unlink(sock_.c_str());
}

Connection::Connection(const std::string& sock) : fd_(connect_to(sock)) {
  if (fd_ < 0) throw std::runtime_error("cannot connect to " + sock);
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

bool Connection::read_line(std::string* out, double timeout_s) {
  const double until = now_s() + timeout_s;
  std::size_t scanned = 0;
  for (;;) {
    const std::size_t nl = buf_.find('\n', scanned);
    if (nl != std::string::npos) {
      out->assign(buf_, 0, nl);
      buf_.erase(0, nl + 1);
      return true;
    }
    scanned = buf_.size();
    const double left = until - now_s();
    if (left <= 0) return false;
    pollfd p{fd_, POLLIN, 0};
    const int r = ::poll(&p, 1, static_cast<int>(left * 1000) + 1);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    char chunk[65536];
    const ssize_t n = ::read(fd_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

Connection::Reply Connection::request(const std::string& line,
                                      double timeout_s) {
  Reply r;
  r.sent_s = now_s();
  if (!soctest::server::fd_write_all(fd_, line + "\n")) {
    r.error = "send failed";
    return r;
  }
  std::string ev;
  while (read_line(&ev, timeout_s)) {
    if (ev.find("{\"event\": \"accepted\"") == 0) {
      r.accepted_s = now_s();
      continue;
    }
    if (ev.find("{\"event\": \"progress\"") == 0) continue;
    r.done_s = now_s();
    if (ev.find("{\"event\": \"result\"") != 0) {
      r.error = "error event: " + ev.substr(0, 300);
      return r;
    }
    r.terminal = std::move(ev);
    return r;
  }
  r.done_s = now_s();
  r.error = "timeout or connection closed";
  return r;
}

std::string Connection::call(const std::string& line, double timeout_s) {
  if (!soctest::server::fd_write_all(fd_, line + "\n")) return "";
  std::string ev;
  if (!read_line(&ev, timeout_s)) return "";
  return ev;
}

std::string request_line(const DaemonRequest& r, const std::string& id,
                         const std::string* soc_text) {
  std::string s = "{\"op\": \"optimize\", \"id\": \"" + id + "\", ";
  if (soc_text)
    s += "\"soc_text\": \"" + soctest::json_escape(*soc_text) + "\"";
  else
    s += "\"design\": \"" + soctest::json_escape(r.design) + "\"";
  s += ", \"width\": " + std::to_string(r.width) + "}";
  return s;
}

std::vector<DaemonSample> run_closed_loop(
    const std::string& sock, const std::vector<DaemonRequest>& schedule,
    int clients, const std::map<std::string, std::string>& soc_texts,
    int trace_parent) {
  std::vector<DaemonSample> samples(schedule.size());
  std::vector<char> done(schedule.size(), 0);
  std::mutex mu;
  std::size_t next = 0;

  auto client = [&](int c) {
    Connection conn(sock);
    Span client_span("server.client", -1, trace_parent);
    for (;;) {
      std::size_t i = 0;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (next >= schedule.size()) return;
        i = next++;
      }
      const DaemonRequest& rq = schedule[i];
      const std::string* text = nullptr;
      if (rq.kind == "inline") {
        const auto it = soc_texts.find(rq.design);
        if (it == soc_texts.end())
          throw std::runtime_error("no soc text for " + rq.design);
        text = &it->second;
      }
      const std::string line = request_line(
          rq, "c" + std::to_string(c) + "r" + std::to_string(i), text);
      DaemonSample& s = samples[i];
      s.index = static_cast<int>(i);
      s.kind = rq.kind;
      s.design = rq.design;
      s.width = rq.width;
      Connection::Reply rep;
      {
        Span span("server.request_" + rq.kind, static_cast<int>(i));
        rep = conn.request(line, 120.0);
      }
      s.sent_s = rep.sent_s;
      s.accepted_s = rep.accepted_s;
      s.done_s = rep.done_s;
      s.error = rep.error;
      if (s.error.empty()) {
        try {
          const soctest::JsonValue v = soctest::parse_json(rep.terminal);
          s.elapsed_ms = v.find("elapsed_ms")->as_double();
          const soctest::JsonValue* report = v.find("report");
          s.test_time = report->find("test_time")->as_int64();
          s.volume_bits = report->find("data_volume_bits")->as_int64();
          s.report = report_of(rep.terminal);
        } catch (const std::exception& e) {
          s.error = std::string("malformed result: ") + e.what();
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      done[i] = 1;
      if (!s.error.empty()) return;  // the connection state is unknown now
    }
  };

  std::vector<std::thread> threads;
  std::vector<std::string> errors(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c)
    threads.emplace_back([&, c] {
      try {
        client(c);
      } catch (const std::exception& e) {
        errors[static_cast<std::size_t>(c)] = e.what();
      }
    });
  for (auto& t : threads) t.join();
  for (const auto& e : errors)
    if (!e.empty()) throw std::runtime_error("daemon client: " + e);

  std::vector<DaemonSample> out;
  for (std::size_t i = 0; i < schedule.size(); ++i)
    if (done[i]) out.push_back(std::move(samples[i]));
  return out;
}

SessionStats parse_stats(const std::string& line) {
  const soctest::JsonValue v = soctest::parse_json(line);
  const soctest::JsonValue* s = v.find("sessions");
  if (!s) throw std::runtime_error("stats reply without sessions: " + line);
  SessionStats st;
  st.hits = s->find("hits")->as_uint64();
  st.misses = s->find("misses")->as_uint64();
  st.evictions = s->find("evictions")->as_uint64();
  return st;
}

}  // namespace perfbench
