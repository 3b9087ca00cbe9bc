// Tests for the real UDP multicast transport. Environments without
// loopback multicast support (containers, sandboxes) skip gracefully.
#include <gtest/gtest.h>

#include "net/udp_multicast.hpp"

namespace ftcorba::net {
namespace {

constexpr McastAddress kAddr{0x0105};  // 239.192.1.5

TEST(UdpMulticast, GroupIpMapping) {
  EXPECT_EQ(UdpMulticastTransport::group_ip(McastAddress{0}), "239.192.0.0");
  EXPECT_EQ(UdpMulticastTransport::group_ip(McastAddress{0x0105}), "239.192.1.5");
  EXPECT_EQ(UdpMulticastTransport::group_ip(McastAddress{0xFFFF}), "239.192.255.255");
}

TEST(UdpMulticast, LoopbackSendReceive) {
  UdpMulticastTransport::Options options;
  options.port = 31999;
  try {
    UdpMulticastTransport sender(options);
    UdpMulticastTransport receiver(options);
    receiver.join(kAddr);
    sender.send(Datagram{kAddr, bytes_of("over-the-wire")});
    // A couple of tries: the kernel may need a moment.
    for (int i = 0; i < 10; ++i) {
      auto got = receiver.receive(100 * kMillisecond);
      if (got) {
        EXPECT_EQ(got->addr, kAddr);
        EXPECT_EQ(got->payload, bytes_of("over-the-wire"));
        return;
      }
    }
    GTEST_SKIP() << "multicast loopback not functional in this environment";
  } catch (const TransportError& e) {
    GTEST_SKIP() << "UDP multicast unavailable: " << e.what();
  }
}

TEST(UdpMulticast, SelfLoopbackWhenEnabled) {
  UdpMulticastTransport::Options options;
  options.port = 32001;
  options.loopback = true;
  try {
    UdpMulticastTransport endpoint(options);
    endpoint.join(kAddr);
    endpoint.send(Datagram{kAddr, bytes_of("self")});
    for (int i = 0; i < 10; ++i) {
      auto got = endpoint.receive(100 * kMillisecond);
      if (got) {
        EXPECT_EQ(got->payload, bytes_of("self"));
        return;
      }
    }
    GTEST_SKIP() << "multicast loopback not functional in this environment";
  } catch (const TransportError& e) {
    GTEST_SKIP() << "UDP multicast unavailable: " << e.what();
  }
}

TEST(UdpMulticast, ReceiveManyTakesOneBufferPerDatagram) {
  UdpMulticastTransport::Options options;
  options.port = 32007;
  try {
    UdpMulticastTransport sender(options);
    UdpMulticastTransport receiver(options);
    receiver.join(kAddr);
    const auto poll_one = [&]() -> std::vector<Datagram> {
      for (int i = 0; i < 10; ++i) {
        auto got = receiver.receive_many(100 * kMillisecond, 64);
        if (!got.empty()) return got;
      }
      return {};
    };
    // The first poll builds the persistent receive array (64 buffers).
    sender.send(Datagram{kAddr, bytes_of("warm-up")});
    if (poll_one().empty()) GTEST_SKIP() << "multicast loopback not functional here";

    const Datagram probe{kAddr, bytes_of("one")};
    alloc_stats_reset();
    sender.send(probe);
    const auto got = poll_one();
    const AllocStats stats = alloc_stats();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].payload, bytes_of("one"));
    EXPECT_LE(stats.fresh_buffers + stats.pool_hits, 1u)
        << "a poll must replace only the receive slot it handed out";
  } catch (const TransportError& e) {
    GTEST_SKIP() << "UDP multicast unavailable: " << e.what();
  }
}

TEST(UdpMulticast, ReceiveTimesOutQuietly) {
  UdpMulticastTransport::Options options;
  options.port = 32003;
  try {
    UdpMulticastTransport endpoint(options);
    endpoint.join(kAddr);
    EXPECT_FALSE(endpoint.receive(10 * kMillisecond).has_value());
  } catch (const TransportError& e) {
    GTEST_SKIP() << "UDP multicast unavailable: " << e.what();
  }
}

TEST(UdpMulticast, JoinLeaveIdempotent) {
  UdpMulticastTransport::Options options;
  options.port = 32005;
  try {
    UdpMulticastTransport endpoint(options);
    endpoint.join(kAddr);
    endpoint.join(kAddr);
    endpoint.leave(kAddr);
    endpoint.leave(kAddr);
  } catch (const TransportError& e) {
    GTEST_SKIP() << "UDP multicast unavailable: " << e.what();
  }
}

}  // namespace
}  // namespace ftcorba::net
