// stability.hpp — the half of ROMP (§6) that does not depend on the
// delivery rule: Lamport message timestamps, per-member bounds, ack
// timestamps and message stability for buffer management. One Stability
// per group session; both delivery rules (ordering.hpp) read it.
//
// Bounds. For each member q we track bound(q): the largest timestamp B such
// that we are guaranteed to already hold every message from q with
// timestamp <= B. bound(q) advances when a reliable message from q is
// received in source order (its timestamp becomes the bound — q's later
// messages necessarily carry larger Lamport timestamps), or when a
// Heartbeat from q arrives whose carried sequence number equals our
// contiguously-received sequence for q (q asserts it has sent nothing we
// lack, and its future messages will exceed the heartbeat timestamp).
// Idle members keep bounds advancing via Heartbeats — exactly why §5
// requires them for "liveness of ROMP". The Lamport rule delivers a
// message once min over members of bound(q) reaches its timestamp.
//
// Stability rule. Every outgoing header carries ack_timestamp =
// min over members bound(q) ("the sender has received all messages with
// lower timestamps from all members", §3.2). A message with timestamp t is
// stable once min over members q of last-ack(q) >= t: every member holds
// it, nobody can need a retransmission, so RMP may reclaim the buffer (§6).
//
// State layout. Everything per source lives in one slot of a dense table
// (source_table.hpp). Each source's messages arrive in source order with
// rising timestamps, so the unstable set is a FIFO per source that
// stability pops from the front. min-bound and the stable timestamp are
// cached and refreshed only when the member at the minimum moves.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "common/ids.hpp"
#include "common/metrics.hpp"
#include "ftmp/config.hpp"
#include "ftmp/messages.hpp"
#include "ftmp/source_table.hpp"

namespace ftcorba::ftmp {

/// Timestamps, bounds, acks, stability and consumed prefixes for one
/// processor group.
class Stability {
 public:
  explicit Stability(const Config& config);

  // ---- membership epochs ----

  /// Installs the initial member set (bounds start at 0 and rise with the
  /// first messages/heartbeats from each member).
  void set_members(const std::vector<ProcessorId>& members);

  /// Adds a member at an AddProcessor ordering point; `initial_bound` is
  /// the AddProcessor's own timestamp (the new member's future messages are
  /// guaranteed to exceed the membership timestamp it starts from).
  void add_member(ProcessorId member, Timestamp initial_bound);

  /// Removes a member: its bound and ack stop counting, and its unstable
  /// messages are forgotten (RMP drops its stream with it).
  void remove_member(ProcessorId member);

  /// Restarts consumption tracking for `src` at `floor`: seqs at or below
  /// it count as consumed, nothing above it does. Needed whenever the
  /// source's RMP stream is (re)based — a re-added member starts a new
  /// incarnation at sequence 1, and a joiner resumes members' streams at
  /// the AddProcessor body's positions; stale counters from before the
  /// rebase would otherwise never advance again and poison the resume
  /// points this processor reports in future AddProcessor bodies.
  void reset_source(ProcessorId src, SeqNum floor);

  /// Current member set (sorted).
  [[nodiscard]] std::vector<ProcessorId> members() const;

  /// True if `p` is currently a member.
  [[nodiscard]] bool is_member(ProcessorId p) const;

  // ---- timestamping ----

  /// Stamps an outgoing message (advances the Lamport clock).
  [[nodiscard]] Timestamp stamp(TimePoint now) { return clock_.tick(now); }

  /// The greatest timestamp issued or witnessed.
  [[nodiscard]] Timestamp latest() const { return clock_.latest(); }

  /// Observes a timestamp (Lamport advance) without receiving a message —
  /// used when a joining member seeds its clock from an AddProcessor body.
  void witness(Timestamp t) { clock_.witness(t); }

  /// Ack timestamp for outgoing headers: min over members of bound
  /// ("received all messages with lower timestamps from all members").
  [[nodiscard]] Timestamp ack_timestamp() const {
    return std::min(clock_.latest(), min_bound_);
  }

  /// Current bound for one member (0 if never heard).
  [[nodiscard]] Timestamp bound(ProcessorId q) const;

  /// min over members of bound — the timestamp up to which Lamport
  /// delivery can proceed (also the flush watermark for Connect rebinds,
  /// §7). 0 with no members.
  [[nodiscard]] Timestamp min_bound() const { return member_count_ == 0 ? 0 : min_bound_; }

  /// True when the group has members and every member's bound has reached
  /// `ts`: every message stamped at or below `ts` has arrived here.
  [[nodiscard]] bool bounds_cover(Timestamp ts) const {
    return member_count_ != 0 && ts <= min_bound_;
  }

  // ---- inputs ----

  /// Receipt bookkeeping for a reliable frame from RMP, in source order:
  /// witnesses the timestamps, records the sender's ack, raises the
  /// source's bound and records the message as unstable.
  void note_receipt(const Header& h);

  /// A Heartbeat header (unreliable direct delivery from RMP).
  /// `contiguous_seq` is RMP's contiguously-received sequence for the
  /// source; the bound only rises when the heartbeat's sequence number
  /// equals it (otherwise there are messages in flight we lack).
  void on_heartbeat(const Header& header, SeqNum contiguous_seq);

  /// Records that message `seq` from `src` has been consumed: delivered in
  /// total order, or handed to PGMP / the state-transfer layer / the
  /// delivery rule as a source-ordered control message.
  void mark_consumed(ProcessorId src, SeqNum seq);

  /// note_receipt followed by mark_consumed of the same message, with one
  /// lookup of the source: the path of every reliable frame that is not
  /// totally ordered.
  void note_consumed_receipt(const Header& h);

  /// The largest S such that every message from `src` with seq <= S has
  /// been consumed here. This is the safe stream-resume point a sponsor
  /// reports for a new member: control messages may be stability-purged
  /// and are epoch-stale for a joiner anyway, so a boundary below them
  /// could never become contiguous.
  [[nodiscard]] SeqNum consumed_up_to(ProcessorId src) const;

  // ---- stability / buffer management ----

  /// Timestamp below which every member has acknowledged everything.
  [[nodiscard]] Timestamp stable_timestamp() const {
    return member_count_ == 0 ? 0 : min_ack_;
  }

  /// The largest ack timestamp observed from `q` (0 if never heard) — the
  /// per-member stability knowledge feeding slow-receiver lag monitoring
  /// (flow.hpp): stable_timestamp() is the min of these over members.
  [[nodiscard]] Timestamp last_ack(ProcessorId q) const;

  /// Advances stability: appends to `out`, per source, the largest
  /// sequence number whose message has become stable since the last call.
  /// The session forwards these to Rmp::release (§6: "ROMP then recovers
  /// the buffer space").
  void collect_stable(std::vector<std::pair<ProcessorId, SeqNum>>& out);

 private:
  static constexpr Timestamp kNoMember = ~Timestamp{0};

  struct UnstableEntry {
    Timestamp ts = 0;
    SeqNum seq = 0;
  };
  /// Everything this layer knows about one source (member or not).
  struct Source {
    bool member = false;
    Timestamp bound = 0;
    Timestamp last_ack = 0;
    // Contiguous consumed prefix, plus the sorted out-of-prefix consumed
    // seqs awaiting the gap.
    SeqNum consumed = 0;
    Ring<SeqNum> consumed_ahead;
    // Contiguously received reliable messages not yet stable, by timestamp
    // (for stability -> RMP release).
    Ring<UnstableEntry> unstable;
  };

  Source& observe_header(const Header& h);
  void receive(Source& s, const Header& h);
  static void consume(Source& s, SeqNum seq);
  void raise_bound(Source& s, Timestamp t);
  void refresh_minima();

  TimestampSource clock_;
  SourceTable<Source> sources_;
  std::size_t member_count_ = 0;
  // Cached min over members of bound / of last_ack (kNoMember when the
  // member set is empty).
  Timestamp min_bound_ = kNoMember;
  Timestamp min_ack_ = kNoMember;
  Timestamp last_stable_ = 0;
  // Process-global (docs/METRICS.md).
  metrics::CounterHandle stability_releases_;
};

}  // namespace ftcorba::ftmp
