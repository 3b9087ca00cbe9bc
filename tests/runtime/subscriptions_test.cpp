// Pins the exact multicast subscription list a driver reads from
// Stack::subscriptions() (and from an inline ShardedRuntime, which returns
// its single stack's list) across every call that changes it: group
// creation, expect_join, open_connection and the Connect bind, a rebind
// while the old address is retiring, the retirement itself and drop_group.
// The list is kept up to date by those calls rather than rebuilt per read,
// so a missed refresh would show here as a stale list.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ftmp/stack.hpp"
#include "runtime/shard.hpp"

namespace ftcorba {
namespace {

constexpr FtDomainId kServerDomain{1};
constexpr FtDomainId kClientDomain{2};
constexpr McastAddress kServerDomainAddr{110};
constexpr McastAddress kClientDomainAddr{100};
constexpr ProcessorGroupId kGroup{1};
constexpr McastAddress kGroupAddr{200};
constexpr McastAddress kRebindAddr{201};
constexpr McastAddress kSecondRebindAddr{202};
constexpr ProcessorGroupId kOtherGroup{2};
constexpr McastAddress kOtherAddr{300};
constexpr ProcessorId kServer{1};
constexpr ProcessorId kMember{2};

ConnectionId conn() {
  return ConnectionId{kClientDomain, ObjectGroupId{1}, kServerDomain, ObjectGroupId{2}};
}

std::vector<McastAddress> addrs(std::initializer_list<std::uint32_t> raw) {
  std::vector<McastAddress> out;
  for (std::uint32_t r : raw) out.emplace_back(r);
  return out;
}

// Driver-side adapters, so one scenario runs against a bare Stack and an
// inline ShardedRuntime.
void ingest(ftmp::Stack& s, TimePoint now, const net::Datagram& d) { s.on_datagram(now, d); }
void ingest(runtime::ShardedRuntime& r, TimePoint now, const net::Datagram& d) {
  r.ingest(now, d);
}
void drain(ftmp::Stack& s, std::vector<net::Datagram>& out) {
  for (net::Datagram& d : s.take_packets()) out.push_back(std::move(d));
}
void drain(runtime::ShardedRuntime& r, std::vector<net::Datagram>& out) { r.drain_egress(out); }

std::vector<McastAddress> subs(const ftmp::Stack& s) { return s.subscriptions(); }
std::vector<McastAddress> subs(const runtime::ShardedRuntime& r) { return r.subscriptions(); }

bool subscribed(const std::vector<McastAddress>& list, McastAddress a) {
  return std::find(list.begin(), list.end(), a) != list.end();
}

// A zero-latency bus between the server stack and the member under test:
// each datagram reaches every node subscribed to its address, the sender
// included (multicast loopback). Time advances in 1 ms steps.
template <typename Member>
struct Bus {
  ftmp::Stack& server;
  Member& member;
  TimePoint now = 0;

  void step() {
    now += kMillisecond;
    server.tick(now);
    member.tick(now);
    for (int rounds = 0; rounds < 64; ++rounds) {
      std::vector<net::Datagram> from_server;
      std::vector<net::Datagram> from_member;
      drain(server, from_server);
      drain(member, from_member);
      if (from_server.empty() && from_member.empty()) break;
      const auto server_subs = subs(server);
      const auto member_subs = subs(member);
      for (const auto* batch : {&from_server, &from_member}) {
        for (const net::Datagram& d : *batch) {
          if (subscribed(server_subs, d.addr)) server.on_datagram(now, d);
          if (subscribed(member_subs, d.addr)) ingest(member, now, d);
        }
      }
    }
    (void)server.take_events();
    (void)member.take_events();
  }

  template <typename Pred>
  bool run_until(Pred pred, Duration limit) {
    const TimePoint deadline = now + limit;
    while (!pred()) {
      if (now >= deadline) return false;
      step();
    }
    return true;
  }
};

template <typename Member>
void exercise(Member& member, ftmp::Stack* member_stack) {
  ftmp::Stack server(kServer, kServerDomain, kServerDomainAddr);
  Bus<Member> bus{server, member};
  const ftmp::Config defaults;

  EXPECT_EQ(subs(server), addrs({110}));
  EXPECT_EQ(subs(member), addrs({100}));

  server.create_group(bus.now, kGroup, kGroupAddr, {kServer});
  server.serve_connections(kGroup);
  EXPECT_EQ(subs(server), addrs({110, 200})) << "after create_group";

  member.expect_join(kOtherGroup, kOtherAddr);
  EXPECT_EQ(subs(member), addrs({100, 300})) << "after expect_join";

  member.open_connection(bus.now, conn(), kServerDomainAddr, {kMember});
  EXPECT_EQ(subs(member), addrs({100, 110, 300})) << "after open_connection";

  ASSERT_TRUE(bus.run_until([&] { return member.connection_ready(conn()); }, 5 * kSecond));
  EXPECT_EQ(subs(member), addrs({100, 110, 200, 300})) << "after the Connect bind and join";
  EXPECT_EQ(subs(server), addrs({110, 200}));

  // First rebind: the new address is current, the creation address retires
  // (it stays listed anyway: it was joined on creation).
  ASSERT_TRUE(member.rebind_group(bus.now, kGroup, kRebindAddr));
  ASSERT_TRUE(bus.run_until(
      [&] {
        return subscribed(subs(server), kRebindAddr) && subscribed(subs(member), kRebindAddr);
      },
      kSecond));
  EXPECT_EQ(subs(server), addrs({110, 200, 201})) << "during the first rebind";
  EXPECT_EQ(subs(member), addrs({100, 110, 200, 201, 300}));
  bus.run_until([] { return false; }, 4 * defaults.fault_timeout + 200 * kMillisecond);

  // Second rebind: 201 is only listed as the session's current address, so
  // it is listed while retiring and gone once retired.
  ASSERT_TRUE(member.rebind_group(bus.now, kGroup, kSecondRebindAddr));
  ASSERT_TRUE(bus.run_until(
      [&] {
        return subscribed(subs(server), kSecondRebindAddr) &&
               subscribed(subs(member), kSecondRebindAddr);
      },
      kSecond));
  EXPECT_EQ(subs(server), addrs({110, 200, 201, 202})) << "current and retiring listed";
  EXPECT_EQ(subs(member), addrs({100, 110, 200, 201, 202, 300}));
  ASSERT_TRUE(bus.run_until([&] { return !subscribed(subs(server), kRebindAddr); },
                            4 * defaults.fault_timeout + kSecond));
  EXPECT_EQ(subs(server), addrs({110, 200, 202})) << "after the old address retired";
  ASSERT_TRUE(bus.run_until([&] { return !subscribed(subs(member), kRebindAddr); },
                            kSecond));
  EXPECT_EQ(subs(member), addrs({100, 110, 200, 202, 300}));

  ASSERT_TRUE(server.drop_group(kGroup));
  EXPECT_EQ(subs(server), addrs({110, 200})) << "after drop_group";
  if (member_stack != nullptr) {
    ASSERT_TRUE(member_stack->drop_group(kGroup));
    EXPECT_EQ(subs(member), addrs({100, 110, 200, 300})) << "after drop_group";
  }
}

TEST(Subscriptions, StackListIsExactThroughTheGroupLifecycle) {
  ftmp::Stack member(kMember, kClientDomain, kClientDomainAddr);
  exercise(member, &member);
}

TEST(Subscriptions, InlineRuntimeReturnsTheSameList) {
  runtime::ShardedRuntime member(kMember, kClientDomain, kClientDomainAddr);
  ASSERT_TRUE(member.inline_mode());
  exercise(member, nullptr);
}

}  // namespace
}  // namespace ftcorba
