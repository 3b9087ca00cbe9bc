// romp.hpp — the Reliable Ordered Multicast Protocol layer (§6): Lamport
// message timestamps give causal + total order; ack timestamps give message
// stability for buffer management.
//
// Ordering rule. For each member q we track bound(q): the largest timestamp
// B such that we are guaranteed to already hold every message from q with
// timestamp <= B. bound(q) advances when a reliable message from q is
// received in source order (its timestamp becomes the bound — q's later
// messages necessarily carry larger Lamport timestamps), or when a
// Heartbeat from q arrives whose carried sequence number equals our
// contiguously-received sequence for q (q asserts it has sent nothing we
// lack, and its future messages will exceed the heartbeat timestamp).
// A pending message m with timestamp t is deliverable once
// min over members q of bound(q) >= t; deliverable messages are delivered
// in (timestamp, source id) lexicographic order, which is a total order
// consistent with causality. Idle members keep bounds advancing via
// Heartbeats — exactly why §5 requires them for "liveness of ROMP".
//
// Stability rule. Every outgoing header carries ack_timestamp =
// min over members bound(q) ("the sender has received all messages with
// lower timestamps from all members", §3.2). A message with timestamp t is
// stable once min over members q of last-ack(q) >= t: every member holds
// it, nobody can need a retransmission, so RMP may reclaim the buffer (§6).
//
// State layout. Everything per source lives in one slot of a dense table
// (source_table.hpp). Because each source's messages arrive in source order
// with rising timestamps, the pending set is a FIFO per source and delivery
// merges the queue heads by (timestamp, source); the unstable set is a FIFO
// per source that stability pops from the front. min-bound and the stable
// timestamp are cached and refreshed only when the member at the minimum
// moves, so an ordering pass with nothing deliverable costs O(1).
#pragma once

#include <map>
#include <set>
#include <vector>

#include "common/clock.hpp"
#include "common/ids.hpp"
#include "common/metrics.hpp"
#include "ftmp/config.hpp"
#include "ftmp/messages.hpp"
#include "ftmp/ordering.hpp"
#include "ftmp/source_table.hpp"

namespace ftcorba::ftmp {

/// Causal/total ordering and stability for one processor group — the
/// paper's Lamport engine behind the OrderingPolicy seam (ordering.hpp).
class Romp : public OrderingPolicy {
 public:
  Romp(ProcessorId self, const Config& config);

  [[nodiscard]] OrderingMode mode() const override {
    return OrderingMode::kLamport;
  }

  // ---- membership epochs ----

  /// Installs the initial member set (bounds start at 0 and rise with the
  /// first messages/heartbeats from each member).
  void set_members(const std::vector<ProcessorId>& members) override;

  /// Adds a member at an AddProcessor ordering point; `initial_bound` is
  /// the AddProcessor's own timestamp (the new member's future messages are
  /// guaranteed to exceed the membership timestamp it starts from).
  void add_member(ProcessorId member, Timestamp initial_bound) override;

  /// Removes a member; if `drop_pending`, its not-yet-ordered messages are
  /// discarded (RemoveProcessor semantics: "removed from the membership
  /// when the RemoveProcessor message is ordered").
  void remove_member(ProcessorId member, bool drop_pending) override;

  /// Lamport ordering is leaderless: view changes carry no engine state
  /// beyond the membership updates above.
  void set_view(Timestamp view_ts) override { (void)view_ts; }

  /// Restarts consumption tracking for `src` at `floor`: seqs at or below
  /// it count as consumed, nothing above it does. Needed whenever the
  /// source's RMP stream is (re)based — a re-added member starts a new
  /// incarnation at sequence 1, and a joiner resumes members' streams at
  /// the AddProcessor body's positions; stale counters from before the
  /// rebase would otherwise never advance again and poison the resume
  /// points this processor reports in future AddProcessor bodies.
  void reset_source(ProcessorId src, SeqNum floor) override;

  /// Current member set (sorted).
  [[nodiscard]] std::vector<ProcessorId> members() const override;

  /// True if `p` is currently a member.
  [[nodiscard]] bool is_member(ProcessorId p) const override;

  // ---- timestamping ----

  /// Stamps an outgoing message (advances the Lamport clock).
  [[nodiscard]] Timestamp stamp(TimePoint now) override { return clock_.tick(now); }

  /// The greatest timestamp issued or witnessed.
  [[nodiscard]] Timestamp latest() const override { return clock_.latest(); }

  /// Observes a timestamp (Lamport advance) without receiving a message —
  /// used when a joining member seeds its clock from an AddProcessor body.
  void witness(Timestamp t) override { clock_.witness(t); }

  /// Ack timestamp for outgoing headers: min over members of bound
  /// ("received all messages with lower timestamps from all members").
  [[nodiscard]] Timestamp ack_timestamp() const override;

  /// Current bound for one member (0 if never heard).
  [[nodiscard]] Timestamp bound(ProcessorId q) const override;

  /// min over members of bound — the timestamp up to which delivery can
  /// proceed (also the flush watermark for Connect rebinds, §7).
  [[nodiscard]] Timestamp min_bound() const override;

  // ---- inputs ----

  /// A reliable frame from RMP, in source order (header decoded, body
  /// still raw). Raises bound(source), witnesses the timestamp, records ack
  /// knowledge, and — if the type is totally ordered (Regular, Connect,
  /// AddProcessor, RemoveProcessor, Fig. 3) — adds it to the pending set.
  /// `now` (when the caller has it) feeds the ordering-wait histogram; the
  /// default keeps time-less unit-test call sites valid.
  void on_source_ordered(const Frame& frame, TimePoint now = 0) override;

  /// A Heartbeat header (unreliable direct delivery from RMP).
  /// `contiguous_seq` is RMP's contiguously-received sequence for the
  /// source; the bound only rises when the heartbeat's sequence number
  /// equals it (otherwise there are messages in flight we lack).
  void on_heartbeat(const Header& header, SeqNum contiguous_seq) override;

  // ---- ordered delivery ----

  /// Pops every pending frame that is now deliverable, in delivery
  /// (total) order.
  [[nodiscard]] std::vector<Frame> collect_deliverable(TimePoint now = 0) override;

  /// Number of messages awaiting order.
  [[nodiscard]] std::size_t pending_count() const override { return pending_count_; }

  /// Sequence number of the most recent message from `src` that this
  /// processor has ordered (delivered). Reported in AddProcessor bodies
  /// (§7.1) so a new member can construct the order from there on.
  [[nodiscard]] SeqNum last_ordered_seq(ProcessorId src) const override;

  /// The largest S such that every message from `src` with seq <= S has
  /// been consumed here: delivered if totally ordered, or handed to PGMP
  /// if a source-ordered control message (Suspect/Membership). This — not
  /// last_ordered_seq — is the safe stream-resume point for a new member:
  /// control messages may be stability-purged and are epoch-stale for a
  /// joiner anyway, so a boundary below them could never become contiguous.
  [[nodiscard]] SeqNum consumed_up_to(ProcessorId src) const override;

  // ---- stability / buffer management ----

  /// Timestamp below which every member has acknowledged everything.
  [[nodiscard]] Timestamp stable_timestamp() const override;

  /// The largest ack timestamp observed from `q` (0 if never heard) — the
  /// per-member stability knowledge feeding slow-receiver lag monitoring
  /// (flow.hpp): stable_timestamp() is the min of these over members.
  [[nodiscard]] Timestamp last_ack(ProcessorId q) const override;

  /// Advances stability: returns, per source, the largest sequence number
  /// whose message has become stable since the last call. The session
  /// forwards these to Rmp::release (§6: "ROMP then recovers the buffer
  /// space").
  [[nodiscard]] std::vector<std::pair<ProcessorId, SeqNum>> collect_stable() override;

  // ---- fault-recovery epoch cut (PGMP §7.2) ----

  /// Delivers the old-epoch remainder during a fault-driven membership
  /// change: pops pending messages with seq <= cuts[source] in total order;
  /// drops pending messages from sources not in `survivors` beyond their
  /// cut. Survivors' beyond-cut messages stay pending for the new epoch.
  [[nodiscard]] std::vector<Frame> drain_up_to_cut(
      const std::map<ProcessorId, SeqNum>& cuts,
      const std::set<ProcessorId>& survivors) override;

  /// Layer counters.
  [[nodiscard]] const OrderingStats& stats() const override { return stats_; }

 protected:
  static constexpr Timestamp kNoMember = ~Timestamp{0};

  struct PendingEntry {
    Frame frame;
    TimePoint arrival = 0;  // wall clock at arrival (0 when the caller had none)
  };
  struct UnstableEntry {
    Timestamp ts = 0;
    SeqNum seq = 0;
  };
  /// Everything this engine knows about one source (member or not).
  struct Source {
    bool member = false;
    Timestamp bound = 0;
    Timestamp last_ack = 0;
    // Seq of the most recent ordered (delivered) message.
    SeqNum last_ordered = 0;
    // Contiguous consumed prefix (ordered deliveries + control messages),
    // plus the sorted out-of-prefix consumed seqs awaiting the gap.
    SeqNum consumed = 0;
    Ring<SeqNum> consumed_ahead;
    // Contiguously received reliable messages not yet stable, by timestamp
    // (for stability -> RMP release).
    Ring<UnstableEntry> unstable;
    // Totally-ordered frames awaiting delivery (raw bodies, zero-copy
    // slices of their arrival buffers), by timestamp.
    Ring<PendingEntry> pending;
  };

  /// Receipt bookkeeping shared by both engines for a reliable frame from
  /// RMP: witnesses the timestamps, raises the source's bound and records
  /// the message as unstable. Returns the source's slot.
  Source& note_receipt(const Header& h);
  Source& observe_header(const Header& h);
  void raise_bound(Source& s, Timestamp t);
  void mark_consumed(Source& s, SeqNum seq);
  void refresh_minima();

  // Process-global instruments shared by every Romp instance (docs/METRICS.md).
  struct Instruments {
    metrics::CounterHandle ordered_delivered;
    metrics::CounterHandle stability_releases;
    metrics::GaugeHandle pending;
    metrics::HistogramHandle ordering_wait_ms;
    metrics::HistogramHandle stability_lag;
  };

  ProcessorId self_;
  Config config_;
  TimestampSource clock_;
  SourceTable<Source> sources_;
  std::size_t member_count_ = 0;
  // Cached min over members of bound / of last_ack (kNoMember when the
  // member set is empty).
  Timestamp min_bound_ = kNoMember;
  Timestamp min_ack_ = kNoMember;
  std::size_t pending_count_ = 0;
  // Lower bound on the timestamps at the heads of the pending FIFOs.
  Timestamp head_floor_ = kNoMember;
  Timestamp last_stable_ = 0;
  OrderingStats stats_;
  Instruments metrics_;
};

/// True for the message types Fig. 3 marks "Totally Ordered".
[[nodiscard]] bool is_totally_ordered(MessageType t);

/// True for the message types Fig. 3 marks "Reliable" (they consume
/// sequence numbers and flow through RMP's source-ordered path).
[[nodiscard]] bool is_reliable(MessageType t);

}  // namespace ftcorba::ftmp
