// messages.hpp — the GIOP 1.0 message set (CORBA 2.2 §13): the eight
// message types the paper's §3.1 lists as the payloads FTMP encapsulates
// (Request, Reply, CancelRequest, LocateRequest, LocateReply,
// CloseConnection, MessageError, Fragment).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/bytes.hpp"
#include "giop/cdr.hpp"

namespace ftcorba::giop {

/// GIOP message types (the values are the on-wire discriminants).
enum class MsgType : std::uint8_t {
  kRequest = 0,
  kReply = 1,
  kCancelRequest = 2,
  kLocateRequest = 3,
  kLocateReply = 4,
  kCloseConnection = 5,
  kMessageError = 6,
  kFragment = 7,
};

/// Human-readable message-type name.
[[nodiscard]] const char* to_string(MsgType t);

/// Reply outcome (GIOP 1.0 ReplyStatusType).
enum class ReplyStatus : std::uint32_t {
  kNoException = 0,
  kUserException = 1,
  kSystemException = 2,
  kLocationForward = 3,
};

/// LocateReply outcome.
enum class LocateStatus : std::uint32_t {
  kUnknownObject = 0,
  kObjectHere = 1,
  kObjectForward = 2,
};

/// One GIOP service-context entry (id + encapsulated data).
struct ServiceContext {
  std::uint32_t context_id = 0;
  Bytes context_data;
  friend bool operator==(const ServiceContext&, const ServiceContext&) = default;
};

/// GIOP message header: 'GIOP', version, byte-order flag, type, body size.
struct GiopHeader {
  std::uint8_t major = 1;
  std::uint8_t minor = 0;
  ByteOrder byte_order = ByteOrder::kBig;
  MsgType type = MsgType::kMessageError;
  std::uint32_t message_size = 0;  // body bytes after the 12-byte header
  friend bool operator==(const GiopHeader&, const GiopHeader&) = default;
};

/// Encoded size of the fixed GIOP header.
inline constexpr std::size_t kGiopHeaderSize = 12;

/// Request: an operation invocation. `body` carries the marshaled in/inout
/// arguments (already CDR-encoded by the stub).
struct Request {
  std::vector<ServiceContext> service_context;
  std::uint32_t request_id = 0;
  bool response_expected = true;
  Bytes object_key;
  std::string operation;
  Bytes requesting_principal;
  Bytes body;
  friend bool operator==(const Request&, const Request&) = default;
};

/// Reply: the result of a Request with the same request_id.
struct Reply {
  std::vector<ServiceContext> service_context;
  std::uint32_t request_id = 0;
  ReplyStatus status = ReplyStatus::kNoException;
  Bytes body;  // marshaled results, exception, or forwarded IOR
  friend bool operator==(const Reply&, const Reply&) = default;
};

/// CancelRequest: the client no longer awaits the reply to request_id.
struct CancelRequest {
  std::uint32_t request_id = 0;
  friend bool operator==(const CancelRequest&, const CancelRequest&) = default;
};

/// LocateRequest: does this target host the object?
struct LocateRequest {
  std::uint32_t request_id = 0;
  Bytes object_key;
  friend bool operator==(const LocateRequest&, const LocateRequest&) = default;
};

/// LocateReply: answer to LocateRequest.
struct LocateReply {
  std::uint32_t request_id = 0;
  LocateStatus status = LocateStatus::kUnknownObject;
  Bytes body;  // forwarded IOR when kObjectForward
  friend bool operator==(const LocateReply&, const LocateReply&) = default;
};

/// CloseConnection: orderly shutdown (header-only).
struct CloseConnection {
  friend bool operator==(const CloseConnection&, const CloseConnection&) = default;
};

/// MessageError: the peer sent something unintelligible (header-only).
struct MessageError {
  friend bool operator==(const MessageError&, const MessageError&) = default;
};

/// Fragment: continuation of a fragmented message (GIOP 1.1+ semantics;
/// carried for completeness of the eight-type set).
struct Fragment {
  Bytes data;
  friend bool operator==(const Fragment&, const Fragment&) = default;
};

/// Any GIOP message body.
using GiopBody = std::variant<Request, Reply, CancelRequest, LocateRequest,
                              LocateReply, CloseConnection, MessageError, Fragment>;

/// A complete GIOP message.
struct GiopMessage {
  GiopHeader header;
  GiopBody body;
  friend bool operator==(const GiopMessage&, const GiopMessage&) = default;
};

/// The MsgType implied by a body alternative.
[[nodiscard]] MsgType type_of(const GiopBody& body);

/// Encodes a GIOP message (header.message_size and header.type are derived
/// from the body).
[[nodiscard]] Bytes encode(const GiopMessage& message);

/// Decodes a GIOP message; throws CdrError on malformed input.
[[nodiscard]] GiopMessage decode(BytesView data);

/// The message type from the fixed 12-byte header, read without decoding
/// anything else: nullopt unless `data` holds a whole header with the GIOP
/// magic and a known type. A message it accepts may still fail decode().
[[nodiscard]] std::optional<MsgType> peek_type(BytesView data);

/// True if `data` begins with the GIOP magic.
[[nodiscard]] bool looks_like_giop(BytesView data);

}  // namespace ftcorba::giop
