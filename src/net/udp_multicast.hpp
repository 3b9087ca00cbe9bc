// udp_multicast.hpp — real IP-Multicast transport over POSIX UDP sockets
// (DESIGN.md S3). The paper's FTMP "operates over IP Multicast"; this class
// provides exactly that substrate for deployments, while tests/benches use
// the deterministic SimNetwork. Both drive the same sans-IO protocol
// stacks.
//
// Address scheme: McastAddress raw value a maps to the administratively
// scoped IPv4 group 239.192.((a >> 8) & 0xFF).(a & 0xFF), one UDP port for
// the whole fault-tolerance domain. One socket is opened per joined group,
// bound to the group address itself so the kernel demultiplexes groups for
// us.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/ids.hpp"
#include "common/metrics.hpp"
#include "net/packet.hpp"

namespace ftcorba::net {

/// Thrown when a socket operation fails irrecoverably (errno text included).
class TransportError : public std::runtime_error {
 public:
  explicit TransportError(const std::string& what) : std::runtime_error(what) {}
};

/// Blocking/poll-based UDP multicast endpoint.
class UdpMulticastTransport {
 public:
  struct Options {
    /// UDP port shared by every group of the domain.
    std::uint16_t port = 30551;
    /// Interface used for sending and joining (loopback works for
    /// same-host multi-process runs).
    std::string interface_ip = "127.0.0.1";
    /// Whether the sender receives its own multicasts (FTMP requires it:
    /// a member orders its own messages through the same path).
    bool loopback = true;
    /// IP TTL for multicasts (1 = link-local).
    int ttl = 1;
  };

  explicit UdpMulticastTransport(Options options);
  ~UdpMulticastTransport();

  UdpMulticastTransport(const UdpMulticastTransport&) = delete;
  UdpMulticastTransport& operator=(const UdpMulticastTransport&) = delete;

  /// Joins a multicast group; subsequent receive() calls can return
  /// datagrams addressed to it. Idempotent.
  void join(McastAddress addr);

  /// Leaves a group and closes its socket.
  void leave(McastAddress addr);

  /// Sends one datagram to the group address.
  void send(const Datagram& datagram);

  /// Sends a burst of datagrams with one sendmmsg(2) syscall on Linux
  /// (falls back to per-datagram send() elsewhere). The egress batching
  /// layer (docs/BATCHING.md) hands the driver several datagrams per drain;
  /// this collapses the per-datagram syscall cost the same way batching
  /// collapses per-datagram wire cost.
  void send_many(const std::vector<Datagram>& datagrams);

  /// Waits up to `timeout` for a datagram on any joined group.
  /// Returns std::nullopt on timeout.
  [[nodiscard]] std::optional<Datagram> receive(Duration timeout);

  /// Waits up to `timeout` for traffic, then drains up to `max_batch`
  /// datagrams per ready group socket with one recvmmsg(2) syscall each on
  /// Linux (single recv fallback elsewhere), into pooled buffers. The
  /// receive buffers persist across calls: a poll takes one fresh pooled
  /// buffer per datagram it returns, not one per batch slot. Returns an
  /// empty vector on timeout.
  [[nodiscard]] std::vector<Datagram> receive_many(Duration timeout,
                                                   std::size_t max_batch = 16);

  /// Dotted-quad group IP for a McastAddress (exposed for logging/tests).
  [[nodiscard]] static std::string group_ip(McastAddress addr);

 private:
  int open_group_socket(McastAddress addr);

  Options options_;
  int send_fd_ = -1;
  std::unordered_map<std::uint32_t, int> group_fds_;  // McastAddress -> fd
  // receive_many's buffer array, 64 KiB each; a slot is replaced only
  // after a datagram landed in it and was handed out.
  std::vector<Bytes> rx_bufs_;

  // Process-global instruments (docs/METRICS.md).
  struct Instruments {
    metrics::CounterHandle datagrams_out;
    metrics::CounterHandle bytes_out;
    metrics::CounterHandle datagrams_in;
    metrics::CounterHandle bytes_in;
  };
  Instruments metrics_;
};

}  // namespace ftcorba::net
