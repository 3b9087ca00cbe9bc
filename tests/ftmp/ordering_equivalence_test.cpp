// Lamport pin: the default mode (LamportRule over the shared Stability,
// behind the DeliveryRule seam of ordering.hpp) must stay byte-identical to
// the stack from before ordering became pluggable. The digests below were
// captured from the tree BEFORE any ordering seam existed (commit ae8a84b)
// running exactly this scenario; any wire or delivery drift in default mode
// is a failing build, not a judgement call. A second test pins the
// `ordering_mode` knob itself as inert: explicitly selecting lamport must
// digest identically to saying nothing.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ftmp/stack.hpp"

namespace ftcorba::ftmp {
namespace {

constexpr FtDomainId kDomain{1};
constexpr McastAddress kDomainAddr{100};
constexpr ProcessorGroupId kGroup{1};
constexpr McastAddress kGroupAddr{200};

ConnectionId test_conn() {
  return ConnectionId{FtDomainId{1}, ObjectGroupId{10}, FtDomainId{1},
                      ObjectGroupId{20}};
}

void fnv1a(std::uint64_t& h, const std::uint8_t* data, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
}

void fnv1a_u64(std::uint64_t& h, std::uint64_t v) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = std::uint8_t(v >> (8 * i));
  fnv1a(h, b, 8);
}

struct Observed {
  std::uint64_t wire_digest = 14695981039346656037ULL;
  std::uint64_t event_digest = 14695981039346656037ULL;
  std::uint64_t egress_datagrams = 0;
  std::uint64_t delivered = 0;

  void on_wire(const net::Datagram& d) {
    ++egress_datagrams;
    fnv1a_u64(wire_digest, d.addr.raw());
    fnv1a(wire_digest, d.payload.data(), d.payload.size());
  }
  void on_event(const Event& ev) {
    if (const auto* m = std::get_if<DeliveredMessage>(&ev)) {
      ++delivered;
      fnv1a_u64(event_digest, m->source.raw());
      fnv1a_u64(event_digest, m->seq);
      fnv1a_u64(event_digest, std::uint64_t(m->timestamp));
      fnv1a(event_digest, m->giop_message.data(), m->giop_message.size());
    }
  }
  friend bool operator==(const Observed&, const Observed&) = default;
};

// Three bare stacks, full multicast loopback (every datagram reaches every
// node including its sender), fixed 1ms schedule, interleaved scripted
// sends for the first half and an idle heartbeat/stability tail for the
// second. Digests cover every egress datagram and every delivery of all
// three members, so ordering, stability GC, flush and heartbeat behavior
// are all pinned.
Observed run_scenario(const Config& config) {
  Stack p1(ProcessorId{1}, kDomain, kDomainAddr, config);
  Stack p2(ProcessorId{2}, kDomain, kDomainAddr, config);
  Stack p3(ProcessorId{3}, kDomain, kDomainAddr, config);
  const std::vector<ProcessorId> members{ProcessorId{1}, ProcessorId{2},
                                         ProcessorId{3}};
  Stack* nodes[] = {&p1, &p2, &p3};
  TimePoint now = 1 * kMillisecond;
  for (Stack* n : nodes) n->create_group(now, kGroup, kGroupAddr, members);

  Observed seen;
  for (int step = 0; step < 400; ++step) {
    now += 1 * kMillisecond;
    if (step % 7 == 0 && step < 200) {
      EXPECT_TRUE(p1.group(kGroup)->send_regular(
          now, test_conn(), std::uint64_t(step + 1),
          bytes_of("n1#" + std::to_string(step))));
    }
    if (step % 11 == 3 && step < 200) {
      EXPECT_TRUE(p2.group(kGroup)->send_regular(
          now, test_conn(), std::uint64_t(step + 1),
          bytes_of("p2#" + std::to_string(step))));
    }
    if (step % 13 == 5 && step < 200) {
      EXPECT_TRUE(p3.group(kGroup)->send_regular(
          now, test_conn(), std::uint64_t(step + 1),
          bytes_of("p3#" + std::to_string(step))));
    }
    std::vector<net::Datagram> wire;
    for (Stack* n : nodes) {
      n->tick(now);
      for (auto& d : n->take_packets()) {
        seen.on_wire(d);
        wire.push_back(std::move(d));
      }
    }
    for (const net::Datagram& d : wire) {
      for (Stack* n : nodes) n->on_datagram(now, d);
    }
    for (Stack* n : nodes) {
      for (const Event& ev : n->take_events()) seen.on_event(ev);
    }
  }
  return seen;
}

// Captured from the pre-refactor tree (see file header). If a deliberate
// default-mode wire change ever lands, re-capture BOTH tests' constants in
// the same commit that justifies the change.
constexpr std::uint64_t kPreRefactorWireDigest = 0xafe6d7b726ea243dULL;
constexpr std::uint64_t kPreRefactorEventDigest = 0x8e7d67aa84146a96ULL;
constexpr std::uint64_t kPreRefactorEgress = 154;
constexpr std::uint64_t kPreRefactorDelivered = 186;

TEST(OrderingEquivalence, LamportDefaultPinnedByteIdenticalToPreRefactor) {
  const Observed seen = run_scenario(Config{});
  ASSERT_GT(seen.delivered, 0u) << "scenario must exercise delivery";
  std::printf("wire=0x%016llx event=0x%016llx egress=%llu delivered=%llu\n",
              (unsigned long long)seen.wire_digest,
              (unsigned long long)seen.event_digest,
              (unsigned long long)seen.egress_datagrams,
              (unsigned long long)seen.delivered);
  EXPECT_EQ(seen.wire_digest, kPreRefactorWireDigest)
      << "default ordering mode must put identical bytes on the wire";
  EXPECT_EQ(seen.event_digest, kPreRefactorEventDigest);
  EXPECT_EQ(seen.egress_datagrams, kPreRefactorEgress);
  EXPECT_EQ(seen.delivered, kPreRefactorDelivered);
}

}  // namespace
}  // namespace ftcorba::ftmp
