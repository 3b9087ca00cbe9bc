// udp_demo — FTMP over real UDP IP-Multicast sockets (the paper's actual
// substrate). Three members run in one process, each an inline
// single-shard runtime behind its own ShardedUdpDriver on the loopback
// interface, and exchange totally-ordered messages through the kernel.
//
// Exits cleanly with a notice if the environment forbids multicast.
//
//   $ ./udp_demo
#include <cstdio>
#include <memory>

#include "runtime/udp_front.hpp"

using namespace ftcorba;
using namespace ftcorba::ftmp;
using runtime::ShardedRuntime;
using runtime::ShardedUdpDriver;

int main() {
  const FtDomainId domain{1};
  const McastAddress domain_addr{0x0101};
  const ProcessorGroupId group{1};
  const McastAddress group_addr{0x0202};
  const std::vector<ProcessorId> members{ProcessorId{1}, ProcessorId{2}, ProcessorId{3}};
  const ConnectionId conn{domain, ObjectGroupId{1}, domain, ObjectGroupId{2}};

  std::vector<std::unique_ptr<ShardedRuntime>> nodes;
  std::vector<std::unique_ptr<ShardedUdpDriver>> drivers;
  try {
    for (ProcessorId p : members) {
      nodes.push_back(std::make_unique<ShardedRuntime>(p, domain, domain_addr));
      net::UdpMulticastTransport::Options options;
      options.port = 30771;
      drivers.push_back(std::make_unique<ShardedUdpDriver>(*nodes.back(), options));
    }
  } catch (const net::TransportError& e) {
    std::printf("UDP multicast unavailable in this environment (%s); skipping demo\n",
                e.what());
    return 0;
  }

  const TimePoint start = wall_now();
  for (auto& n : nodes) n->create_group(start, group, group_addr, members);

  auto pump_all = [&](Duration d) {
    const TimePoint until = wall_now() + d;
    while (wall_now() < until) {
      for (auto& drv : drivers) drv->poll_once(200 * kMicrosecond);
    }
  };

  pump_all(50 * kMillisecond);  // warm up: heartbeats establish bounds

  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const std::string text = "udp message " + std::to_string(round) + " from " +
                               to_string(members[i]);
      nodes[i]->stack(0).group(group)->send_regular(wall_now(), conn,
                                                    std::uint64_t(round + 1),
                                                    bytes_of(text));
    }
    pump_all(20 * kMillisecond);
  }
  pump_all(300 * kMillisecond);

  std::vector<std::vector<std::string>> transcripts(nodes.size());
  for (std::size_t i = 0; i < drivers.size(); ++i) {
    for (const Event& ev : drivers[i]->take_events()) {
      if (const auto* m = std::get_if<DeliveredMessage>(&ev)) {
        transcripts[i].emplace_back(m->giop_message.begin(), m->giop_message.end());
      }
    }
  }

  for (std::size_t i = 0; i < transcripts.size(); ++i) {
    std::printf("--- %s delivered %zu messages over the wire ---\n",
                to_string(members[i]).c_str(), transcripts[i].size());
    for (const std::string& line : transcripts[i]) std::printf("  %s\n", line.c_str());
  }

  if (transcripts[0].size() != 9) {
    std::printf("note: expected 9 deliveries; multicast loopback may be flaky here\n");
    return 0;
  }
  for (const auto& t : transcripts) {
    if (t != transcripts[0]) {
      std::printf("ERROR: transcripts diverge\n");
      return 1;
    }
  }
  std::printf("\nidentical total order at all three kernels-attached stacks\n");
  return 0;
}
