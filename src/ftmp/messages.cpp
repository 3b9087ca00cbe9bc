#include "ftmp/messages.hpp"

namespace ftcorba::ftmp {

namespace {

void put_connection(Writer& w, const ConnectionId& c) {
  w.u32(c.client_domain.raw());
  w.u32(c.client_group.raw());
  w.u32(c.server_domain.raw());
  w.u32(c.server_group.raw());
}

[[nodiscard]] ConnectionId get_connection(Reader& r) {
  ConnectionId c;
  c.client_domain = FtDomainId{r.u32()};
  c.client_group = ObjectGroupId{r.u32()};
  c.server_domain = FtDomainId{r.u32()};
  c.server_group = ObjectGroupId{r.u32()};
  return c;
}

void put_processors(Writer& w, const std::vector<ProcessorId>& ps) {
  w.u32(static_cast<std::uint32_t>(ps.size()));
  for (ProcessorId p : ps) w.u32(p.raw());
}

[[nodiscard]] std::vector<ProcessorId> get_processors(Reader& r) {
  const std::uint32_t n = r.u32();
  if (n > r.remaining() / 4) throw CodecError("processor list too long");
  std::vector<ProcessorId> ps;
  ps.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) ps.push_back(ProcessorId{r.u32()});
  return ps;
}

void put_membership(Writer& w, const MembershipInfo& m) {
  w.u64(m.timestamp);
  put_processors(w, m.members);
}

[[nodiscard]] MembershipInfo get_membership(Reader& r) {
  MembershipInfo m;
  m.timestamp = r.u64();
  m.members = get_processors(r);
  return m;
}

void put_source_seqs(Writer& w, const std::vector<SourceSeq>& ss) {
  w.u32(static_cast<std::uint32_t>(ss.size()));
  for (const SourceSeq& s : ss) {
    w.u32(s.processor.raw());
    w.u64(s.seq);
  }
}

// Replaces the contents of `ss`, keeping its capacity.
void get_source_seqs(Reader& r, std::vector<SourceSeq>& ss) {
  const std::uint32_t n = r.u32();
  if (n > r.remaining() / 12) throw CodecError("source-seq list too long");
  ss.clear();
  ss.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    SourceSeq s;
    s.processor = ProcessorId{r.u32()};
    s.seq = r.u64();
    ss.push_back(s);
  }
}

[[nodiscard]] std::vector<SourceSeq> get_source_seqs(Reader& r) {
  std::vector<SourceSeq> ss;
  get_source_seqs(r, ss);
  return ss;
}

void get_order_info(Reader& r, OrderInfoBody& b) {
  b.view_ts = static_cast<Timestamp>(r.u64());
  get_source_seqs(r, b.floors);
  get_source_seqs(r, b.grants);
}

struct BodyEncoder {
  Writer& w;
  void operator()(const RegularBody& b) {
    put_connection(w, b.connection);
    w.u64(b.request_num);
    w.raw(b.giop_message);  // GIOP message runs to end of datagram (Fig. 2).
  }
  void operator()(const RetransmitRequestBody& b) {
    w.u32(b.processor.raw());
    w.u64(b.start_seq);
    w.u64(b.stop_seq);
  }
  void operator()(const HeartbeatBody&) {}
  void operator()(const ConnectRequestBody& b) {
    put_connection(w, b.connection);
    put_processors(w, b.client_processors);
  }
  void operator()(const ConnectBody& b) {
    put_connection(w, b.connection);
    w.u32(b.processor_group.raw());
    w.u32(b.multicast_address.raw());
    put_membership(w, b.current_membership);
  }
  void operator()(const AddProcessorBody& b) {
    put_membership(w, b.current_membership);
    put_source_seqs(w, b.current_seqs);
    w.u32(b.new_member.raw());
  }
  void operator()(const RemoveProcessorBody& b) { w.u32(b.member_to_remove.raw()); }
  void operator()(const SuspectBody& b) {
    put_membership(w, b.current_membership);
    put_processors(w, b.suspects);
  }
  void operator()(const MembershipBody& b) {
    put_membership(w, b.current_membership);
    put_source_seqs(w, b.current_seqs);
    put_processors(w, b.new_membership);
  }
  void operator()(const StateRequestBody& b) {
    w.u32(b.joiner.raw());
    w.u64(b.view_ts);
    w.u32(b.next_chunk);
  }
  void operator()(const StateChunkBody& b) {
    w.u32(b.joiner.raw());
    w.u64(b.view_ts);
    w.u32(b.chunk_seq);
    w.u32(b.total_chunks);
    w.u64(b.snapshot_digest);
    w.u64(b.cut_digest);
    put_source_seqs(w, b.cut_seqs);
    w.blob(b.payload);
  }
  void operator()(const StateDigestBody& b) {
    w.u64(b.fingerprint);
    w.u64(b.digest);
  }
  void operator()(const OrderInfoBody& b) {
    w.u64(static_cast<std::uint64_t>(b.view_ts));
    put_source_seqs(w, b.floors);
    put_source_seqs(w, b.grants);
  }
};

[[nodiscard]] Body decode_body(MessageType type, Reader& r) {
  switch (type) {
    case MessageType::kRegular: {
      RegularBody b;
      b.connection = get_connection(r);
      b.request_num = r.u64();
      const BytesView rest = r.rest();
      b.giop_message.assign(rest.begin(), rest.end());
      r.skip(rest.size());
      return b;
    }
    case MessageType::kRetransmitRequest: {
      RetransmitRequestBody b;
      b.processor = ProcessorId{r.u32()};
      b.start_seq = r.u64();
      b.stop_seq = r.u64();
      if (b.start_seq > b.stop_seq) throw CodecError("retransmit range inverted");
      return b;
    }
    case MessageType::kHeartbeat:
      return HeartbeatBody{};
    case MessageType::kConnectRequest: {
      ConnectRequestBody b;
      b.connection = get_connection(r);
      b.client_processors = get_processors(r);
      return b;
    }
    case MessageType::kConnect: {
      ConnectBody b;
      b.connection = get_connection(r);
      b.processor_group = ProcessorGroupId{r.u32()};
      b.multicast_address = McastAddress{r.u32()};
      b.current_membership = get_membership(r);
      return b;
    }
    case MessageType::kAddProcessor: {
      AddProcessorBody b;
      b.current_membership = get_membership(r);
      b.current_seqs = get_source_seqs(r);
      b.new_member = ProcessorId{r.u32()};
      return b;
    }
    case MessageType::kRemoveProcessor: {
      RemoveProcessorBody b;
      b.member_to_remove = ProcessorId{r.u32()};
      return b;
    }
    case MessageType::kSuspect: {
      SuspectBody b;
      b.current_membership = get_membership(r);
      b.suspects = get_processors(r);
      return b;
    }
    case MessageType::kMembership: {
      MembershipBody b;
      b.current_membership = get_membership(r);
      b.current_seqs = get_source_seqs(r);
      b.new_membership = get_processors(r);
      return b;
    }
    case MessageType::kStateRequest: {
      StateRequestBody b;
      b.joiner = ProcessorId{r.u32()};
      b.view_ts = static_cast<Timestamp>(r.u64());
      b.next_chunk = r.u32();
      return b;
    }
    case MessageType::kStateChunk: {
      StateChunkBody b;
      b.joiner = ProcessorId{r.u32()};
      b.view_ts = static_cast<Timestamp>(r.u64());
      b.chunk_seq = r.u32();
      b.total_chunks = r.u32();
      if (b.total_chunks == 0) throw CodecError("state chunk with zero total");
      if (b.chunk_seq >= b.total_chunks) throw CodecError("state chunk seq out of range");
      b.snapshot_digest = r.u64();
      b.cut_digest = r.u64();
      b.cut_seqs = get_source_seqs(r);
      b.payload = r.blob();
      return b;
    }
    case MessageType::kStateDigest: {
      StateDigestBody b;
      b.fingerprint = r.u64();
      b.digest = r.u64();
      return b;
    }
    case MessageType::kOrderInfo: {
      OrderInfoBody b;
      get_order_info(r, b);
      return b;
    }
  }
  throw CodecError("unknown message type");
}

}  // namespace

bool is_totally_ordered(MessageType t) {
  switch (t) {
    case MessageType::kRegular:
    case MessageType::kConnect:
    case MessageType::kAddProcessor:
    case MessageType::kRemoveProcessor:
      return true;
    default:
      return false;
  }
}

bool is_reliable(MessageType t) {
  switch (t) {
    case MessageType::kRegular:
    case MessageType::kConnect:
    case MessageType::kAddProcessor:
    case MessageType::kRemoveProcessor:
    case MessageType::kSuspect:
    case MessageType::kMembership:
    case MessageType::kStateRequest:
    case MessageType::kStateChunk:
    case MessageType::kStateDigest:
    case MessageType::kOrderInfo:
      return true;
    default:
      return false;
  }
}

MessageType type_of(const Body& body) {
  return std::visit(
      [](const auto& b) -> MessageType {
        using T = std::decay_t<decltype(b)>;
        if constexpr (std::is_same_v<T, RegularBody>) return MessageType::kRegular;
        else if constexpr (std::is_same_v<T, RetransmitRequestBody>) return MessageType::kRetransmitRequest;
        else if constexpr (std::is_same_v<T, HeartbeatBody>) return MessageType::kHeartbeat;
        else if constexpr (std::is_same_v<T, ConnectRequestBody>) return MessageType::kConnectRequest;
        else if constexpr (std::is_same_v<T, ConnectBody>) return MessageType::kConnect;
        else if constexpr (std::is_same_v<T, AddProcessorBody>) return MessageType::kAddProcessor;
        else if constexpr (std::is_same_v<T, RemoveProcessorBody>) return MessageType::kRemoveProcessor;
        else if constexpr (std::is_same_v<T, SuspectBody>) return MessageType::kSuspect;
        else if constexpr (std::is_same_v<T, MembershipBody>) return MessageType::kMembership;
        else if constexpr (std::is_same_v<T, StateRequestBody>) return MessageType::kStateRequest;
        else if constexpr (std::is_same_v<T, StateChunkBody>) return MessageType::kStateChunk;
        else if constexpr (std::is_same_v<T, StateDigestBody>) return MessageType::kStateDigest;
        else return MessageType::kOrderInfo;
      },
      body);
}

Body decode_body(const Header& header, BytesView body_bytes) {
  Reader r(body_bytes, header.byte_order);
  Body b = decode_body(header.type, r);
  if (!r.exhausted()) throw CodecError("trailing bytes after body");
  return b;
}

void decode_order_info(const Header& header, BytesView body_bytes, OrderInfoBody& out) {
  if (header.type != MessageType::kOrderInfo) throw CodecError("not an OrderInfo");
  Reader r(body_bytes, header.byte_order);
  get_order_info(r, out);
  if (!r.exhausted()) throw CodecError("trailing bytes after body");
}

Bytes encode_message(const Message& message) {
  Header header = message.header;
  header.type = type_of(message.body);
  Writer w(header.byte_order);
  encode_header(w, header);
  std::visit(BodyEncoder{w}, message.body);
  patch_message_size(w, static_cast<std::uint32_t>(w.size()));
  return std::move(w).take();
}

Message decode_message(BytesView datagram) {
  Reader r(datagram);
  Message m;
  m.header = decode_header(r);
  if (m.header.message_size != datagram.size()) {
    throw CodecError("message size mismatch: header says " +
                     std::to_string(m.header.message_size) + ", datagram is " +
                     std::to_string(datagram.size()));
  }
  m.body = decode_body(m.header.type, r);
  if (!r.exhausted()) throw CodecError("trailing bytes after body");
  return m;
}

}  // namespace ftcorba::ftmp
