#include "net/udp_multicast.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace ftcorba::net {

namespace {
// Receive buffer size: room for the largest UDP payload.
constexpr std::size_t kRxBufferSize = 65536;

[[noreturn]] void fail(const std::string& op) {
  throw TransportError(op + ": " + std::strerror(errno));
}
}  // namespace

std::string UdpMulticastTransport::group_ip(McastAddress addr) {
  const std::uint32_t raw = addr.raw();
  return "239.192." + std::to_string((raw >> 8) & 0xFF) + "." +
         std::to_string(raw & 0xFF);
}

UdpMulticastTransport::UdpMulticastTransport(Options options)
    : options_(std::move(options)) {
  metrics_.datagrams_out = metrics::counter(
      "net_udp_datagrams_out_total", "Datagrams sent on the UDP multicast driver",
      "datagrams", "net");
  metrics_.bytes_out = metrics::counter(
      "net_udp_bytes_out_total", "Bytes sent on the UDP multicast driver",
      "bytes", "net");
  metrics_.datagrams_in = metrics::counter(
      "net_udp_datagrams_in_total",
      "Datagrams received on the UDP multicast driver", "datagrams", "net");
  metrics_.bytes_in = metrics::counter(
      "net_udp_bytes_in_total", "Bytes received on the UDP multicast driver",
      "bytes", "net");
  send_fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (send_fd_ < 0) fail("socket(send)");

  in_addr iface{};
  if (::inet_pton(AF_INET, options_.interface_ip.c_str(), &iface) != 1) {
    ::close(send_fd_);
    throw TransportError("bad interface ip: " + options_.interface_ip);
  }
  if (::setsockopt(send_fd_, IPPROTO_IP, IP_MULTICAST_IF, &iface, sizeof(iface)) < 0) {
    int saved = errno;
    ::close(send_fd_);
    errno = saved;
    fail("setsockopt(IP_MULTICAST_IF)");
  }
  const unsigned char ttl = static_cast<unsigned char>(options_.ttl);
  (void)::setsockopt(send_fd_, IPPROTO_IP, IP_MULTICAST_TTL, &ttl, sizeof(ttl));
  const unsigned char loop = options_.loopback ? 1 : 0;
  (void)::setsockopt(send_fd_, IPPROTO_IP, IP_MULTICAST_LOOP, &loop, sizeof(loop));
}

UdpMulticastTransport::~UdpMulticastTransport() {
  if (send_fd_ >= 0) ::close(send_fd_);
  for (auto& [addr, fd] : group_fds_) ::close(fd);
}

int UdpMulticastTransport::open_group_socket(McastAddress addr) {
  int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) fail("socket(recv)");
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
#ifdef SO_REUSEPORT
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));
#endif

  sockaddr_in bind_addr{};
  bind_addr.sin_family = AF_INET;
  bind_addr.sin_port = htons(options_.port);
  // Bind to the group address itself so this socket only sees this group.
  if (::inet_pton(AF_INET, group_ip(addr).c_str(), &bind_addr.sin_addr) != 1) {
    ::close(fd);
    throw TransportError("bad group ip");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&bind_addr), sizeof(bind_addr)) < 0) {
    int saved = errno;
    ::close(fd);
    errno = saved;
    fail("bind(group)");
  }

  ip_mreq mreq{};
  mreq.imr_multiaddr = bind_addr.sin_addr;
  if (::inet_pton(AF_INET, options_.interface_ip.c_str(), &mreq.imr_interface) != 1) {
    ::close(fd);
    throw TransportError("bad interface ip");
  }
  if (::setsockopt(fd, IPPROTO_IP, IP_ADD_MEMBERSHIP, &mreq, sizeof(mreq)) < 0) {
    int saved = errno;
    ::close(fd);
    errno = saved;
    fail("setsockopt(IP_ADD_MEMBERSHIP)");
  }
  return fd;
}

void UdpMulticastTransport::join(McastAddress addr) {
  if (group_fds_.contains(addr.raw())) return;
  group_fds_[addr.raw()] = open_group_socket(addr);
}

void UdpMulticastTransport::leave(McastAddress addr) {
  auto it = group_fds_.find(addr.raw());
  if (it == group_fds_.end()) return;
  ::close(it->second);
  group_fds_.erase(it);
}

void UdpMulticastTransport::send(const Datagram& datagram) {
  sockaddr_in dest{};
  dest.sin_family = AF_INET;
  dest.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, group_ip(datagram.addr).c_str(), &dest.sin_addr) != 1) {
    throw TransportError("bad group ip");
  }
  const ssize_t n =
      ::sendto(send_fd_, datagram.payload.data(), datagram.payload.size(), 0,
               reinterpret_cast<sockaddr*>(&dest), sizeof(dest));
  if (n < 0) fail("sendto");
  metrics_.datagrams_out.add();
  metrics_.bytes_out.add(static_cast<std::uint64_t>(n));
}

void UdpMulticastTransport::send_many(const std::vector<Datagram>& datagrams) {
  if (datagrams.empty()) return;
#ifdef __linux__
  // One syscall for the whole burst: each message carries its own
  // destination group address on the shared send socket.
  std::vector<sockaddr_in> dests(datagrams.size());
  std::vector<iovec> iovs(datagrams.size());
  std::vector<mmsghdr> msgs(datagrams.size());
  for (std::size_t i = 0; i < datagrams.size(); ++i) {
    sockaddr_in& dest = dests[i];
    dest.sin_family = AF_INET;
    dest.sin_port = htons(options_.port);
    if (::inet_pton(AF_INET, group_ip(datagrams[i].addr).c_str(),
                    &dest.sin_addr) != 1) {
      throw TransportError("bad group ip");
    }
    iovs[i].iov_base = const_cast<std::uint8_t*>(datagrams[i].payload.data());
    iovs[i].iov_len = datagrams[i].payload.size();
    msgs[i] = mmsghdr{};
    msgs[i].msg_hdr.msg_name = &dest;
    msgs[i].msg_hdr.msg_namelen = sizeof(dest);
    msgs[i].msg_hdr.msg_iov = &iovs[i];
    msgs[i].msg_hdr.msg_iovlen = 1;
  }
  std::size_t sent = 0;
  while (sent < msgs.size()) {
    const int n = ::sendmmsg(send_fd_, msgs.data() + sent,
                             static_cast<unsigned>(msgs.size() - sent), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("sendmmsg");
    }
    for (int i = 0; i < n; ++i) {
      metrics_.datagrams_out.add();
      metrics_.bytes_out.add(msgs[sent + std::size_t(i)].msg_len);
    }
    sent += static_cast<std::size_t>(n);
  }
#else
  for (const Datagram& d : datagrams) send(d);
#endif
}

std::optional<Datagram> UdpMulticastTransport::receive(Duration timeout) {
  if (group_fds_.empty()) return std::nullopt;
  std::vector<pollfd> fds;
  std::vector<std::uint32_t> addrs;
  fds.reserve(group_fds_.size());
  for (auto& [addr, fd] : group_fds_) {
    fds.push_back(pollfd{fd, POLLIN, 0});
    addrs.push_back(addr);
  }
  const int timeout_ms =
      static_cast<int>(std::max<Duration>(0, timeout) / kMillisecond);
  const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
  if (ready < 0) {
    if (errno == EINTR) return std::nullopt;
    fail("poll");
  }
  if (ready == 0) return std::nullopt;
  for (std::size_t i = 0; i < fds.size(); ++i) {
    if (!(fds[i].revents & POLLIN)) continue;
    // Pooled receive buffer: the vector's 64 KiB capacity is recycled when
    // the last SharedBytes slice referencing this datagram is released.
    Bytes buf = pool_acquire(kRxBufferSize);
    const ssize_t n = ::recv(fds[i].fd, buf.data(), buf.size(), 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EINTR) continue;
      fail("recv");
    }
    buf.resize(static_cast<std::size_t>(n));
    metrics_.datagrams_in.add();
    metrics_.bytes_in.add(static_cast<std::uint64_t>(n));
    return Datagram{McastAddress{addrs[i]},
                    SharedBytes::share_pooled(std::move(buf))};
  }
  return std::nullopt;
}

std::vector<Datagram> UdpMulticastTransport::receive_many(Duration timeout,
                                                          std::size_t max_batch) {
  std::vector<Datagram> out;
  if (group_fds_.empty() || max_batch == 0) return out;
  std::vector<pollfd> fds;
  std::vector<std::uint32_t> addrs;
  fds.reserve(group_fds_.size());
  for (auto& [addr, fd] : group_fds_) {
    fds.push_back(pollfd{fd, POLLIN, 0});
    addrs.push_back(addr);
  }
  const int timeout_ms =
      static_cast<int>(std::max<Duration>(0, timeout) / kMillisecond);
  const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
  if (ready < 0) {
    if (errno == EINTR) return out;
    fail("poll");
  }
  if (ready == 0) return out;
  for (std::size_t i = 0; i < fds.size(); ++i) {
    if (!(fds[i].revents & POLLIN)) continue;
#ifdef __linux__
    // Drain the socket with one syscall into the persistent 64 KiB receive
    // buffers; each filled one becomes a zero-copy Datagram payload and
    // only its slot takes a fresh pooled buffer.
    while (rx_bufs_.size() < max_batch) rx_bufs_.push_back(pool_acquire(kRxBufferSize));
    std::vector<iovec> iovs(max_batch);
    std::vector<mmsghdr> msgs(max_batch);
    for (std::size_t m = 0; m < max_batch; ++m) {
      iovs[m].iov_base = rx_bufs_[m].data();
      iovs[m].iov_len = rx_bufs_[m].size();
      msgs[m] = mmsghdr{};
      msgs[m].msg_hdr.msg_iov = &iovs[m];
      msgs[m].msg_hdr.msg_iovlen = 1;
    }
    const int n = ::recvmmsg(fds[i].fd, msgs.data(),
                             static_cast<unsigned>(max_batch), MSG_DONTWAIT,
                             nullptr);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      fail("recvmmsg");
    }
    for (int m = 0; m < n; ++m) {
      Bytes buf = std::exchange(rx_bufs_[std::size_t(m)], pool_acquire(kRxBufferSize));
      buf.resize(msgs[std::size_t(m)].msg_len);
      metrics_.datagrams_in.add();
      metrics_.bytes_in.add(msgs[std::size_t(m)].msg_len);
      out.push_back(Datagram{McastAddress{addrs[i]},
                             SharedBytes::share_pooled(std::move(buf))});
    }
#else
    Bytes buf = pool_acquire(kRxBufferSize);
    const ssize_t n = ::recv(fds[i].fd, buf.data(), buf.size(), 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EINTR) continue;
      fail("recv");
    }
    buf.resize(static_cast<std::size_t>(n));
    metrics_.datagrams_in.add();
    metrics_.bytes_in.add(static_cast<std::uint64_t>(n));
    out.push_back(Datagram{McastAddress{addrs[i]},
                           SharedBytes::share_pooled(std::move(buf))});
#endif
  }
  return out;
}

}  // namespace ftcorba::net
