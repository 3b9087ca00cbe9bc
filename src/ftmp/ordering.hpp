// ordering.hpp — the delivery-rule seam (docs/ORDERING.md).
//
// ROMP (§6) has two mechanisms. Stability (stability.hpp) — timestamps,
// per-member bounds, ack timestamps, buffer reclaim — has one
// implementation, owned by the GroupSession. The delivery rule decides the
// single group-wide order in which totally-ordered messages are delivered;
// it is a per-stack Config choice (`Config::ordering_mode`):
//
//   * LamportRule (romp.hpp) — the paper's rule: deliver once every
//     member's bound has passed the timestamp, in (timestamp, source)
//     order. Default, pinned byte-identical by
//     tests/ftmp/ordering_equivalence_test.cpp.
//   * LlftRule (llft.hpp) — LLFT-style leader-stamped slots: the
//     smallest-id live member grants the delivery order via OrderInfo
//     messages riding its own reliable stream.
//
// Both rules run over the same Stability, so headers, stability and PGMP's
// equalization-gated installs are identical in either mode.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "common/clock.hpp"
#include "common/ids.hpp"
#include "common/metrics.hpp"
#include "ftmp/config.hpp"
#include "ftmp/messages.hpp"
#include "ftmp/stability.hpp"

namespace ftcorba::ftmp {

/// Sentinel for note_joined_epoch: the member's admission has not reached
/// its ordering point yet, so it is leader-ineligible in every view.
inline constexpr Timestamp kJoinPending = ~Timestamp{0};

/// The order in which one processor group delivers its totally-ordered
/// messages. The GroupSession does the receipt bookkeeping
/// (Stability::note_receipt) for every reliable frame before a rule sees
/// it; a rule marks what it delivers or settles consumed in the Stability
/// it was built over.
class DeliveryRule {
 public:
  virtual ~DeliveryRule() = default;

  /// A totally-ordered frame (Regular, Connect, AddProcessor,
  /// RemoveProcessor — Fig. 3) or an OrderInfo, in per-source seq order
  /// with no gaps (RMP releases only the contiguous prefix). `now` (0 when
  /// the caller has no clock) feeds the wait histograms.
  virtual void on_ordered(const Frame& frame, TimePoint now) = 0;

  /// Pops every frame that is now deliverable, in the group's total order,
  /// appending them to `out`. A batch ends after any non-Regular message,
  /// so the session applies a membership change before ordering continues.
  virtual void collect_deliverable(TimePoint now, std::vector<Frame>& out) = 0;

  /// Finalizes the old view at a fault install (PGMP §7.2): returns the
  /// frames with seq <= cuts[source] still undelivered, and drops a
  /// non-survivor's frames beyond its cut. Survivors' beyond-cut frames
  /// stay for the new view. Every survivor calls this with identical
  /// arguments (PGMP's equalization gate) and must get the identical
  /// sequence back.
  [[nodiscard]] virtual std::vector<Frame> drain_up_to_cut(
      const std::map<ProcessorId, SeqNum>& cuts,
      const std::set<ProcessorId>& survivors) = 0;

  /// Number of frames awaiting delivery.
  [[nodiscard]] virtual std::size_t pending_count() const = 0;

  /// `src` left the group (`floor` empty: its undelivered frames are
  /// dropped) or its stream was rebased at `floor` (a re-added member's new
  /// incarnation, or a joiner's resume point).
  virtual void reset_source(ProcessorId src, std::optional<SeqNum> floor) = 0;

  /// Membership changed under view timestamp `view_ts`: called at every
  /// membership-change point (planned add/remove ordering points, fault
  /// installs, bootstrap and join) after the member set was updated, and
  /// also for a duplicate Add/Remove that leaves the set unchanged.
  /// Leader-based rules recompute leadership and advance their grant epoch
  /// here. Lamport ordering is leaderless: no-op.
  virtual void set_view(Timestamp view_ts) { (void)view_ts; }

  /// `member` joined the group at view `epoch` (`kJoinPending` while its
  /// admission is still in flight). A member admitted in the current view
  /// defers leadership until the next view change — the standing leader's
  /// floor advisory must reach it before it may ever grant
  /// (docs/ORDERING.md). No-op for leaderless rules.
  virtual void note_joined_epoch(ProcessorId member, Timestamp epoch) {
    (void)member;
    (void)epoch;
  }

  /// PGMP signal: a fault-recovery round is running (`true` from the first
  /// local Membership proposal until the round aborts or installs). A
  /// leader-based rule must stop issuing grants past its proposed cut —
  /// the equalization gate only synchronizes streams up to the cut, so
  /// later grants would reach survivors on opposite sides of their
  /// installs and fork the slot queues. No-op for Lamport ordering, which
  /// stops on its own: a crashed member's bound stalls delivery.
  virtual void set_recovering(bool active) { (void)active; }

  /// Bodies the rule wants multicast to the group now (stamped, stored and
  /// sent by the session like any reliable message). The Lamport rule
  /// never originates messages, which keeps default mode byte-identical.
  [[nodiscard]] virtual std::vector<Body> take_protocol_sends() { return {}; }
};

/// Process-global instruments every rule reports to (docs/METRICS.md).
/// The names keep their `romp` prefix from when Lamport was the only rule.
struct DeliveryInstruments {
  DeliveryInstruments();

  /// Counts one ordered delivery of a frame stamped `ts`: the wait since
  /// `arrival` (when both times are known) and how far `ts` runs ahead of
  /// the `stable` timestamp.
  void observe(Timestamp ts, TimePoint arrival, TimePoint now, Timestamp stable);

  metrics::CounterHandle ordered_delivered;
  metrics::GaugeHandle pending;
  metrics::HistogramHandle ordering_wait_ms;
  metrics::HistogramHandle stability_lag;
};

/// Builds the rule selected by `config.ordering_mode` over `stability`.
[[nodiscard]] std::unique_ptr<DeliveryRule> make_ordering(
    ProcessorId self, const Config& config, Stability& stability);

}  // namespace ftcorba::ftmp
