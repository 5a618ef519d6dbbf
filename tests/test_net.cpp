// util/net stream glue over a socketpair: the buffered FdOutBuf holds
// a record until flush(), delivers leftovers when destroyed, and still
// evicts a peer that never reads within the write timeout.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <ostream>
#include <string>
#include <thread>

#include "obs/metrics.hpp"
#include "util/net.hpp"

namespace starring::net {
namespace {

struct SocketPair {
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fd), 0); }
  ~SocketPair() {
    ::close(fd[0]);
    ::close(fd[1]);
  }
  /// Everything readable on the peer end right now, without blocking.
  std::string drain_peer() const {
    std::string got;
    char buf[4096];
    ssize_t k;
    while ((k = ::recv(fd[1], buf, sizeof buf, MSG_DONTWAIT)) > 0)
      got.append(buf, static_cast<std::size_t>(k));
    return got;
  }
  int fd[2] = {-1, -1};
};

TEST(FdOutBuf, NothingArrivesBeforeFlush) {
  SocketPair sp;
  std::atomic<bool> dead{false};
  FdOutBuf buf(sp.fd[0], 1000, &dead);
  std::ostream os(&buf);
  os << "starring-response v1\nid 7\n";
  EXPECT_EQ(sp.drain_peer(), "") << "a record must not leak out token by token";
  os.flush();
  EXPECT_TRUE(os.good());
  EXPECT_EQ(sp.drain_peer(), "starring-response v1\nid 7\n");
  EXPECT_FALSE(dead.load());
}

TEST(FdOutBuf, DestructorDeliversLeftoverBytes) {
  SocketPair sp;
  {
    FdOutBuf buf(sp.fd[0], 1000, nullptr);
    std::ostream os(&buf);
    os << "end\n";
  }
  EXPECT_EQ(sp.drain_peer(), "end\n");
}

TEST(FdOutBuf, RecordsLargerThanTheBufferArriveWhole) {
  SocketPair sp;
  const std::string big(3 * kStreamBufBytes + 17, 'x');
  std::string got;
  {
    FdOutBuf buf(sp.fd[0], 1000, nullptr);
    std::ostream os(&buf);
    // The peer drains concurrently: the record overflows the put area
    // and the socket buffer several times over.
    std::thread reader([&] {
      char chunk[4096];
      while (got.size() < big.size()) {
        const ssize_t k = ::read(sp.fd[1], chunk, sizeof chunk);
        if (k <= 0) break;
        got.append(chunk, static_cast<std::size_t>(k));
      }
    });
    os << big;
    os.flush();
    EXPECT_TRUE(os.good());
    reader.join();
  }
  EXPECT_EQ(got, big);
}

TEST(FdOutBuf, PeerThatNeverReadsIsEvictedWithinTheWriteTimeout) {
  obs::set_enabled(true);
  const auto evicted_before = obs::counter("svc.evicted_conns").value();
  SocketPair sp;
  ASSERT_TRUE(set_nonblocking(sp.fd[0]));
  std::atomic<bool> dead{false};
  const int timeout_ms = 200;
  const auto t0 = std::chrono::steady_clock::now();
  {
    FdOutBuf buf(sp.fd[0], timeout_ms, &dead);
    std::ostream os(&buf);
    // Far more than the socket can queue; the peer never reads.
    const std::string record(kStreamBufBytes, 'r');
    for (int i = 0; i < 512 && os.good(); ++i) {
      os << record;
      os.flush();
    }
    EXPECT_FALSE(os.good());
    EXPECT_TRUE(dead.load());
    // A dead connection's leftovers are discarded, not retried: the
    // destructor must not wait out another timeout.
    os.clear();
    os << "discarded";
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::milliseconds(timeout_ms * 5))
      << "one POLLOUT budget, not one per queued byte";
  EXPECT_EQ(obs::counter("svc.evicted_conns").value(), evicted_before + 1);
  obs::set_enabled(false);
}

}  // namespace
}  // namespace starring::net
