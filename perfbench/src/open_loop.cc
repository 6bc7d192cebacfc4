#include "open_loop.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <fcntl.h>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "bench.h"
#include "checks.h"
#include "net/resp.h"
#include "net/ring_buffer.h"
#include "workloads/trace.h"

namespace ditto::perfbench {
namespace {

// A reply later than this past its due time counts as a timeout; requests
// still unanswered this long after the last reply count as lost.
constexpr uint64_t kTimeoutNs = 2'000'000'000;

struct Pending {
  uint64_t key;
  uint64_t due_ns;
  int64_t expect_version;  // GET: last version SET before it; SET: the version written
  bool is_set;
};

struct Conn {
  int fd = -1;
  net::RingBuffer in;
  net::RingBuffer out;
  std::deque<Pending> pending;
  std::unordered_map<uint64_t, int64_t> last_set;  // key -> last version sent
  std::unordered_set<uint64_t> tainted;            // keys with a failed SET

  ~Conn() {
    if (fd >= 0) {
      ::close(fd);
    }
  }
};

int Connect(uint16_t port, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = "connect to 127.0.0.1:" + std::to_string(port) + " failed";
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

// Sets the calling thread's timer slack to 1 ns for its lifetime, so the
// generator's timed wake-ups land on schedule.
class PreciseTimers {
 public:
  PreciseTimers() : old_(::prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0)) {
    ::prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
  }
  ~PreciseTimers() { ::prctl(PR_SET_TIMERSLACK, old_, 0, 0, 0); }
  PreciseTimers(const PreciseTimers&) = delete;
  PreciseTimers& operator=(const PreciseTimers&) = delete;

 private:
  int old_;
};

class OpenLoop {
 public:
  OpenLoop(const std::vector<OpenLoopRequest>& schedule, const OpenLoopOptions& options)
      : schedule_(schedule), options_(options) {}

  OpenLoopResult Run() {
    result_.latency_ns.reserve(schedule_.size());
    result_.late_ns.reserve(schedule_.size());
    std::vector<pollfd> fds;
    for (int c = 0; c < options_.connections; ++c) {
      auto conn = std::make_unique<Conn>();
      conn->fd = Connect(options_.port, &result_.error);
      if (conn->fd < 0) {
        return result_;
      }
      fds.push_back(pollfd{conn->fd, POLLIN, 0});
      conns_.push_back(std::move(conn));
    }
    // The generator sleeps in ppoll until the next request is due or a
    // reply arrives, rather than spinning: a spinning thread would delay
    // the loopback network's deferred softirq work on its CPU.
    const PreciseTimers precise;
    const double interval_ns = 1e9 / options_.rate_per_s;
    const uint64_t start_ns = NowNs() + 1000000;  // first request due in 1 ms
    size_t next = 0;
    uint64_t outstanding = 0;
    uint64_t last_progress_ns = start_ns;
    while (next < schedule_.size() || outstanding > 0) {
      const uint64_t now = NowNs();
      while (next < schedule_.size()) {
        const uint64_t due =
            start_ns + static_cast<uint64_t>(static_cast<double>(next) * interval_ns);
        if (due > now) {
          break;
        }
        Send(next, due, now);
        next++;
        outstanding++;
      }
      for (size_t c = 0; c < conns_.size(); ++c) {
        if (!Flush(c)) {
          return result_;
        }
      }
      uint64_t wait_ns = 1000000;  // re-check the reply timeout at least every 1 ms
      if (next < schedule_.size()) {
        const uint64_t due =
            start_ns + static_cast<uint64_t>(static_cast<double>(next) * interval_ns);
        const uint64_t t = NowNs();
        wait_ns = due > t ? std::min(due - t, wait_ns) : 0;
      }
      const timespec timeout{static_cast<time_t>(wait_ns / 1000000000),
                             static_cast<long>(wait_ns % 1000000000)};
      if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) > 0) {
        for (size_t c = 0; c < fds.size(); ++c) {
          if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
            continue;
          }
          const uint64_t got = Receive(c);
          if (!result_.error.empty()) {
            return result_;
          }
          outstanding -= got;
          if (got > 0) {
            last_progress_ns = NowNs();
          }
        }
      }
      if (next >= schedule_.size() && outstanding > 0 &&
          NowNs() - last_progress_ns > kTimeoutNs) {
        result_.lost = outstanding;  // the server stopped answering
        break;
      }
    }
    result_.ok = true;
    return result_;
  }

 private:
  void Send(size_t index, uint64_t due_ns, uint64_t now_ns) {
    const OpenLoopRequest& req = schedule_[index];
    Conn& conn = *conns_[index % conns_.size()];
    workload::KeyBuf buf;
    const std::string_view key = workload::FormatKey(req.key, &buf);
    const auto it = conn.last_set.try_emplace(req.key, 0).first;
    if (req.is_set) {
      it->second++;
      const std::string value =
          RegisterValue(req.key, static_cast<uint32_t>(it->second), options_.value_bytes);
      net::AppendCommand(&conn.out, {"SET", key, value});
    } else {
      net::AppendCommand(&conn.out, {"GET", key});
    }
    conn.pending.push_back(Pending{req.key, due_ns, it->second, req.is_set});
    result_.late_ns.push_back(static_cast<uint32_t>(std::min<uint64_t>(now_ns - due_ns, UINT32_MAX)));
  }

  // Writes what the socket accepts now; the rest goes out on a later pass
  // of the send loop. Returns false on a broken connection.
  bool Flush(size_t c) {
    Conn& conn = *conns_[c];
    while (!conn.out.empty()) {
      const ssize_t n = ::send(conn.fd, conn.out.data(), conn.out.size(), MSG_NOSIGNAL);
      if (n > 0) {
        conn.out.Consume(static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      }
      result_.error = "send failed on connection " + std::to_string(c);
      return false;
    }
    return true;
  }

  // Reads and accounts every complete reply; returns the replies consumed.
  uint64_t Receive(size_t c) {
    Conn& conn = *conns_[c];
    while (true) {
      char* dst = conn.in.Reserve(64 << 10);
      const ssize_t n = ::read(conn.fd, dst, 64 << 10);
      if (n > 0) {
        conn.in.Commit(static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      }
      result_.error = "connection " + std::to_string(c) + " closed by the server";
      return 0;
    }
    const uint64_t now = NowNs();
    uint64_t got = 0;
    net::RespReply reply;
    std::string error;
    while (true) {
      const net::ParseStatus st = net::ParseReply(&conn.in, &reply, nullptr, &error);
      if (st == net::ParseStatus::kNeedMore) {
        break;
      }
      if (st == net::ParseStatus::kError || conn.pending.empty()) {
        result_.error = "protocol error on connection " + std::to_string(c) + ": " + error;
        return got;
      }
      const Pending p = conn.pending.front();
      conn.pending.pop_front();
      got++;
      Account(&conn, p, reply, now);
    }
    return got;
  }

  void Account(Conn* conn, const Pending& p, const net::RespReply& reply, uint64_t now) {
    if (reply.type == net::RespReply::Type::kError) {
      if (reply.text.starts_with("LOADSHED")) {
        result_.shed++;
      } else if (reply.text.starts_with("UNAVAILABLE")) {
        result_.unavailable++;
      } else {
        result_.errors++;
      }
      if (p.is_set) {
        conn->tainted.insert(p.key);  // the key's value is no longer known
      }
      return;
    }
    const uint64_t latency = now - p.due_ns;
    if (latency > kTimeoutNs) {
      result_.timeouts++;
      return;
    }
    if (p.is_set) {
      if (reply.type != net::RespReply::Type::kSimple || reply.text != "OK") {
        result_.errors++;
        conn->tainted.insert(p.key);
        return;
      }
    } else {
      const bool nil = reply.type == net::RespReply::Type::kNil;
      if (!nil && reply.type != net::RespReply::Type::kBulk) {
        result_.errors++;
        return;
      }
      if (conn->tainted.count(p.key) == 0 &&
          !RegisterReplyOk(nil, reply.text, p.key, p.expect_version, options_.value_bytes)) {
        if (result_.register_violations++ == 0) {
          result_.first_violation = "GET " + workload::KeyString(p.key) + " returned '" +
                                    std::string(reply.text.substr(0, 40)) +
                                    "...', last SET was version " +
                                    std::to_string(p.expect_version);
        }
      }
    }
    result_.latency_ns.push_back(static_cast<uint32_t>(std::min<uint64_t>(latency, UINT32_MAX)));
  }

  const std::vector<OpenLoopRequest>& schedule_;
  const OpenLoopOptions& options_;
  std::vector<std::unique_ptr<Conn>> conns_;
  OpenLoopResult result_;
};

}  // namespace

OpenLoopResult RunOpenLoop(const std::vector<OpenLoopRequest>& schedule,
                           const OpenLoopOptions& options) {
  OpenLoop loop(schedule, options);
  return loop.Run();
}

}  // namespace ditto::perfbench
