// messages.hpp — bodies of the nine FTMP message types (§5–§7) and the
// whole-message codec (header + body).
//
// Every body layout follows the paper's field lists verbatim; variable-
// length sequences are encoded as a u32 count followed by the elements.
#pragma once

#include <variant>
#include <vector>

#include "common/bytes.hpp"
#include "common/codec.hpp"
#include "common/ids.hpp"
#include "ftmp/wire.hpp"

namespace ftcorba::ftmp {

/// "timestamp of current membership" + "current membership" — the pair that
/// Connect, AddProcessor, Suspect and Membership messages all carry (§7).
struct MembershipInfo {
  /// Timestamp of the most recent message delivered by the sender when the
  /// membership was current.
  Timestamp timestamp = 0;
  /// The processor group membership at that timestamp.
  std::vector<ProcessorId> members;

  friend bool operator==(const MembershipInfo&, const MembershipInfo&) = default;
};

/// One (processor, sequence number) pair in a "current sequence numbers"
/// vector (AddProcessor / Membership bodies).
struct SourceSeq {
  ProcessorId processor{};
  SeqNum seq = 0;

  friend bool operator==(const SourceSeq&, const SourceSeq&) = default;
};

/// Regular (§5): carries one encapsulated GIOP message, plus the logical-
/// connection identifier and request number used for duplicate
/// detection/suppression across replicas (§4).
struct RegularBody {
  ConnectionId connection{};
  RequestNum request_num = 0;
  /// The encapsulated GIOP message (Fig. 2's third layer), opaque to FTMP.
  Bytes giop_message;

  friend bool operator==(const RegularBody&, const RegularBody&) = default;
};

/// RetransmitRequest (§5): negative acknowledgment for a block of missing
/// messages [start_seq, stop_seq] from `processor`.
struct RetransmitRequestBody {
  /// The source whose messages are missing.
  ProcessorId processor{};
  SeqNum start_seq = 0;
  SeqNum stop_seq = 0;

  friend bool operator==(const RetransmitRequestBody&, const RetransmitRequestBody&) = default;
};

/// Heartbeat (§5): empty body — all information (current sequence number,
/// message timestamp, ack timestamp) rides in the header.
struct HeartbeatBody {
  friend bool operator==(const HeartbeatBody&, const HeartbeatBody&) = default;
};

/// ConnectRequest (§7): client infrastructure asks the server group for a
/// logical connection; lists the processors supporting the client group.
struct ConnectRequestBody {
  ConnectionId connection{};
  std::vector<ProcessorId> client_processors;

  friend bool operator==(const ConnectRequestBody&, const ConnectRequestBody&) = default;
};

/// Connect (§7): server establishes a new connection or rebinds an existing
/// one to a new multicast address / processor group.
struct ConnectBody {
  ConnectionId connection{};
  ProcessorGroupId processor_group{};
  McastAddress multicast_address{};
  MembershipInfo current_membership;

  friend bool operator==(const ConnectBody&, const ConnectBody&) = default;
};

/// AddProcessor (§7.1): adds a non-faulty processor; carries the sequence
/// number of the most recent ordered message from each current member so the
/// new member can construct the order from there on.
struct AddProcessorBody {
  MembershipInfo current_membership;
  std::vector<SourceSeq> current_seqs;
  ProcessorId new_member{};

  friend bool operator==(const AddProcessorBody&, const AddProcessorBody&) = default;
};

/// RemoveProcessor (§7.1): removes a non-faulty processor; takes effect when
/// the message is ordered.
struct RemoveProcessorBody {
  ProcessorId member_to_remove{};

  friend bool operator==(const RemoveProcessorBody&, const RemoveProcessorBody&) = default;
};

/// Suspect (§7.2): the sender suspects the listed processors of being
/// faulty; suspicions from enough members convict.
struct SuspectBody {
  MembershipInfo current_membership;
  std::vector<ProcessorId> suspects;

  friend bool operator==(const SuspectBody&, const SuspectBody&) = default;
};

/// Membership (§7.2): proposes a new membership excluding convicted
/// processors; `current_seqs` holds, per current member, the highest
/// sequence number such that the sender has that message and all smaller
/// ones — survivors use it to equalize their message sets (virtual
/// synchrony).
struct MembershipBody {
  MembershipInfo current_membership;
  std::vector<SourceSeq> current_seqs;
  std::vector<ProcessorId> new_membership;

  friend bool operator==(const MembershipBody&, const MembershipBody&) = default;
};

/// StateRequest (docs/RECOVERY.md): the joiner asks the current donor for
/// the snapshot chunks starting at `next_chunk`. Doubles as the cumulative
/// acknowledgment (everything below `next_chunk` was received) and as the
/// resume offset after a donor crash — the re-elected donor continues from
/// exactly here.
struct StateRequestBody {
  /// The catching-up member this transfer serves.
  ProcessorId joiner{};
  /// Install timestamp of the view that admitted the joiner; anchors the
  /// snapshot cut. A request for a stale view_ts is ignored.
  Timestamp view_ts = 0;
  /// First chunk the joiner still needs (cumulative ack / resume offset).
  std::uint32_t next_chunk = 0;

  friend bool operator==(const StateRequestBody&, const StateRequestBody&) = default;
};

/// StateChunk (docs/RECOVERY.md): one chunk of the snapshot taken at the
/// virtual-synchrony cut `view_ts`. Chunks are idempotent by
/// (view_ts, chunk_seq); every chunk repeats the transfer metadata so the
/// joiner can finish from any subset arriving in any order.
struct StateChunkBody {
  ProcessorId joiner{};
  Timestamp view_ts = 0;
  std::uint32_t chunk_seq = 0;
  std::uint32_t total_chunks = 0;
  /// ft::state_hash64 over the complete snapshot — verified before installing.
  std::uint64_t snapshot_digest = 0;
  /// The donor's rolling delivery digest at the cut; the joiner adopts it
  /// so post-transfer digests are comparable across members.
  std::uint64_t cut_digest = 0;
  /// Per-source applied-Regular sequence high-water marks at the cut; the
  /// joiner replays only buffered messages above these.
  std::vector<SourceSeq> cut_seqs;
  /// This chunk's slice of the snapshot bytes.
  Bytes payload;

  friend bool operator==(const StateChunkBody&, const StateChunkBody&) = default;
};

/// StateDigest (docs/RECOVERY.md): anti-entropy check emitted after installs
/// and periodically — members at the same `fingerprint` (cut position) must
/// report the same rolling `digest`, or the group diverged.
struct StateDigestBody {
  /// Position identifier: hash over the sorted (source, high-water) pairs.
  std::uint64_t fingerprint = 0;
  /// Rolling order-sensitive digest of every applied message.
  std::uint64_t digest = 0;

  friend bool operator==(const StateDigestBody&, const StateDigestBody&) = default;
};

/// OrderInfo (docs/ORDERING.md): in LLFT mode the current leader grants
/// delivery slots by naming (source, seq) pairs; followers deliver the
/// referenced messages in grant order. Like Suspect, OrderInfo is reliable
/// and source-ordered but NOT totally ordered — the leader's own stream
/// position is what serializes the grants.
struct OrderInfoBody {
  /// Membership (view) timestamp under which the leader issued the grants;
  /// grants from a deposed leader or a not-yet-installed view are
  /// disambiguated by this tag (docs/ORDERING.md §reconciliation).
  Timestamp view_ts = 0;
  /// Delivered-floor advisory: per-source seqs at or below which every
  /// member must consider delivery settled (sent with the leader's first
  /// OrderInfo of a view, so a joiner discards pre-join backlog instead of
  /// re-ordering it). Empty on steady-state grants.
  std::vector<SourceSeq> floors;
  /// Granted delivery slots, consumed in list order. Per source, grant
  /// seqs are strictly increasing across a leader's reign.
  std::vector<SourceSeq> grants;

  friend bool operator==(const OrderInfoBody&, const OrderInfoBody&) = default;
};

/// Any FTMP message body.
using Body = std::variant<RegularBody, RetransmitRequestBody, HeartbeatBody,
                          ConnectRequestBody, ConnectBody, AddProcessorBody,
                          RemoveProcessorBody, SuspectBody, MembershipBody,
                          StateRequestBody, StateChunkBody, StateDigestBody,
                          OrderInfoBody>;

/// A complete FTMP message: header + typed body.
struct Message {
  Header header;
  Body body;

  friend bool operator==(const Message&, const Message&) = default;
};

/// Encoded size of the fixed Regular-body prefix (connection id, four u32
/// fields, + u64 request number) that precedes the GIOP payload. The hot
/// delivery path parses it in place and slices the payload after it.
inline constexpr std::size_t kRegularPrefixSize = 4 * 4 + 8;

/// A received message on the zero-copy path: the decoded fixed header plus
/// a ref-counted slice of the arrival datagram. Frames flow from
/// Stack::on_datagram through RMP's out-of-order buffer and ROMP's ordering
/// buffer without their bodies ever being decoded; `decode_body` runs once
/// at the single point of delivery (docs/BUFFERS.md).
struct Frame {
  Header header;
  SharedBytes raw;  ///< the full datagram, header included

  /// The encoded body (everything after the fixed header), zero-copy.
  [[nodiscard]] SharedBytes body() const { return raw.slice(kHeaderSize); }
};

/// The MessageType implied by a body alternative.
[[nodiscard]] MessageType type_of(const Body& body);

/// True for the message types Fig. 3 marks "Totally Ordered".
[[nodiscard]] bool is_totally_ordered(MessageType t);

/// True for the message types Fig. 3 marks "Reliable" (they consume
/// sequence numbers and flow through RMP's source-ordered path).
[[nodiscard]] bool is_reliable(MessageType t);

/// Decodes the body of a message whose header was already decoded (the
/// deferred half of the zero-copy split). `body_bytes` is everything after
/// the fixed header; byte order and type come from `header`. Throws
/// CodecError on malformed input (including trailing garbage).
[[nodiscard]] Body decode_body(const Header& header, BytesView body_bytes);

/// Decodes an OrderInfo body into `out`, reusing the capacity of its
/// vectors (the LLFT grant path decodes one per grant batch). Accepts and
/// rejects exactly what decode_body does; throws CodecError.
void decode_order_info(const Header& header, BytesView body_bytes, OrderInfoBody& out);

/// Encodes header + body into a wire datagram payload. Sets
/// header.message_size and header.type from the actual encoding; the byte
/// order used is header.byte_order.
[[nodiscard]] Bytes encode_message(const Message& message);

/// Decodes a wire datagram payload. Throws CodecError on malformed input
/// (truncated, bad magic, type/body mismatch, trailing garbage).
[[nodiscard]] Message decode_message(BytesView datagram);

}  // namespace ftcorba::ftmp
