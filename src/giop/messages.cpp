#include "giop/messages.hpp"

namespace ftcorba::giop {

namespace {
constexpr std::uint8_t kMagic[4] = {'G', 'I', 'O', 'P'};

void put_service_context(CdrWriter& w, const std::vector<ServiceContext>& scs) {
  w.ulong_(static_cast<std::uint32_t>(scs.size()));
  for (const ServiceContext& sc : scs) {
    w.ulong_(sc.context_id);
    w.octet_seq(sc.context_data);
  }
}

[[nodiscard]] std::vector<ServiceContext> get_service_context(CdrReader& r) {
  const std::uint32_t n = r.ulong_();
  if (n > r.remaining() / 8) throw CdrError("service context list too long");
  std::vector<ServiceContext> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ServiceContext sc;
    sc.context_id = r.ulong_();
    sc.context_data = r.octet_seq();
    out.push_back(std::move(sc));
  }
  return out;
}

struct BodyEncoder {
  CdrWriter& w;
  void operator()(const Request& b) {
    put_service_context(w, b.service_context);
    w.ulong_(b.request_id);
    w.boolean(b.response_expected);
    w.octet_seq(b.object_key);
    w.string(b.operation);
    w.octet_seq(b.requesting_principal);
    // Argument body starts 8-aligned per GIOP.
    w.align(8);
    w.raw(b.body);
  }
  void operator()(const Reply& b) {
    put_service_context(w, b.service_context);
    w.ulong_(b.request_id);
    w.ulong_(static_cast<std::uint32_t>(b.status));
    w.align(8);
    w.raw(b.body);
  }
  void operator()(const CancelRequest& b) { w.ulong_(b.request_id); }
  void operator()(const LocateRequest& b) {
    w.ulong_(b.request_id);
    w.octet_seq(b.object_key);
  }
  void operator()(const LocateReply& b) {
    w.ulong_(b.request_id);
    w.ulong_(static_cast<std::uint32_t>(b.status));
    w.raw(b.body);
  }
  void operator()(const CloseConnection&) {}
  void operator()(const MessageError&) {}
  void operator()(const Fragment& b) { w.raw(b.data); }
};

[[nodiscard]] GiopBody decode_body(MsgType type, CdrReader& r) {
  switch (type) {
    case MsgType::kRequest: {
      Request b;
      b.service_context = get_service_context(r);
      b.request_id = r.ulong_();
      b.response_expected = r.boolean();
      b.object_key = r.octet_seq();
      b.operation = r.string();
      b.requesting_principal = r.octet_seq();
      if (!r.exhausted()) {
        r.align(8);
        const BytesView rest = r.rest();
        b.body.assign(rest.begin(), rest.end());
        r.skip(rest.size());
      }
      return b;
    }
    case MsgType::kReply: {
      Reply b;
      b.service_context = get_service_context(r);
      b.request_id = r.ulong_();
      const std::uint32_t status = r.ulong_();
      if (status > 3) throw CdrError("bad reply status");
      b.status = static_cast<ReplyStatus>(status);
      if (!r.exhausted()) {
        r.align(8);
        const BytesView rest = r.rest();
        b.body.assign(rest.begin(), rest.end());
        r.skip(rest.size());
      }
      return b;
    }
    case MsgType::kCancelRequest: {
      CancelRequest b;
      b.request_id = r.ulong_();
      return b;
    }
    case MsgType::kLocateRequest: {
      LocateRequest b;
      b.request_id = r.ulong_();
      b.object_key = r.octet_seq();
      return b;
    }
    case MsgType::kLocateReply: {
      LocateReply b;
      b.request_id = r.ulong_();
      const std::uint32_t status = r.ulong_();
      if (status > 2) throw CdrError("bad locate status");
      b.status = static_cast<LocateStatus>(status);
      const BytesView rest = r.rest();
      b.body.assign(rest.begin(), rest.end());
      r.skip(rest.size());
      return b;
    }
    case MsgType::kCloseConnection:
      return CloseConnection{};
    case MsgType::kMessageError:
      return MessageError{};
    case MsgType::kFragment: {
      Fragment b;
      const BytesView rest = r.rest();
      b.data.assign(rest.begin(), rest.end());
      r.skip(rest.size());
      return b;
    }
  }
  throw CdrError("unknown GIOP message type");
}

}  // namespace

const char* to_string(MsgType t) {
  switch (t) {
    case MsgType::kRequest: return "Request";
    case MsgType::kReply: return "Reply";
    case MsgType::kCancelRequest: return "CancelRequest";
    case MsgType::kLocateRequest: return "LocateRequest";
    case MsgType::kLocateReply: return "LocateReply";
    case MsgType::kCloseConnection: return "CloseConnection";
    case MsgType::kMessageError: return "MessageError";
    case MsgType::kFragment: return "Fragment";
  }
  return "Unknown";
}

MsgType type_of(const GiopBody& body) {
  return static_cast<MsgType>(body.index());
}

Bytes encode(const GiopMessage& message) {
  const ByteOrder order = message.header.byte_order;
  // Body is encoded first (alignment is relative to the start of the body
  // in our encapsulated setting; GIOP's 12-byte header preserves 8-byte
  // alignment either way).
  CdrWriter body_w(order);
  std::visit(BodyEncoder{body_w}, message.body);

  CdrWriter w(order);
  for (std::uint8_t b : kMagic) w.octet(b);
  w.octet(message.header.major);
  w.octet(message.header.minor);
  w.octet(order == ByteOrder::kLittle ? 1 : 0);
  w.octet(static_cast<std::uint8_t>(type_of(message.body)));
  w.ulong_(static_cast<std::uint32_t>(body_w.size()));
  w.raw(body_w.bytes());
  return std::move(w).take();
}

GiopMessage decode(BytesView data) {
  if (data.size() < kGiopHeaderSize) throw CdrError("truncated GIOP header");
  for (std::size_t i = 0; i < 4; ++i) {
    if (data[i] != kMagic[i]) throw CdrError("bad GIOP magic");
  }
  GiopMessage m;
  m.header.major = data[4];
  m.header.minor = data[5];
  if (m.header.major != 1) throw CdrError("unsupported GIOP major version");
  if (data[6] > 1) throw CdrError("bad GIOP byte-order flag");
  m.header.byte_order = data[6] == 1 ? ByteOrder::kLittle : ByteOrder::kBig;
  if (data[7] > 7) throw CdrError("bad GIOP message type");
  m.header.type = static_cast<MsgType>(data[7]);

  CdrReader size_r(data.subspan(8, 4), m.header.byte_order);
  m.header.message_size = size_r.ulong_();
  if (kGiopHeaderSize + m.header.message_size != data.size()) {
    throw CdrError("GIOP message size mismatch");
  }
  CdrReader body_r(data.subspan(kGiopHeaderSize), m.header.byte_order);
  m.body = decode_body(m.header.type, body_r);
  return m;
}

std::optional<MsgType> peek_type(BytesView data) {
  if (data.size() < kGiopHeaderSize || !looks_like_giop(data) || data[7] > 7) {
    return std::nullopt;
  }
  return static_cast<MsgType>(data[7]);
}

bool looks_like_giop(BytesView data) {
  if (data.size() < 4) return false;
  for (std::size_t i = 0; i < 4; ++i) {
    if (data[i] != kMagic[i]) return false;
  }
  return true;
}

}  // namespace ftcorba::giop
