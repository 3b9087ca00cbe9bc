// romp.hpp — the Reliable Ordered Multicast Protocol's delivery rule (§6):
// Lamport message timestamps give causal + total order. The timestamps,
// bounds and stability it reads live in Stability (stability.hpp).
//
// Ordering rule. A pending message m with timestamp t is deliverable once
// min over members q of bound(q) >= t; deliverable messages are delivered
// in (timestamp, source id) lexicographic order, which is a total order
// consistent with causality.
//
// State layout. Because each source's messages arrive in source order with
// rising timestamps, the pending set is a FIFO per source (one slot of a
// dense table, source_table.hpp) and delivery merges the queue heads by
// (timestamp, source). A lower bound on the head timestamps makes an
// ordering pass with nothing deliverable cost O(1).
#pragma once

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/clock.hpp"
#include "common/ids.hpp"
#include "ftmp/messages.hpp"
#include "ftmp/ordering.hpp"
#include "ftmp/source_table.hpp"
#include "ftmp/stability.hpp"

namespace ftcorba::ftmp {

/// The paper's symmetric Lamport delivery rule.
class LamportRule final : public DeliveryRule {
 public:
  explicit LamportRule(Stability& stability) : stability_(stability) {}

  /// Adds a totally-ordered frame to its source's pending FIFO (anything
  /// else — an OrderInfo in a misconfigured mixed group — is ignored).
  void on_ordered(const Frame& frame, TimePoint now) override;

  /// Pops every pending frame whose timestamp all members' bounds have
  /// passed, in (timestamp, source) order.
  void collect_deliverable(TimePoint now, std::vector<Frame>& out) override;

  /// Takes the at-or-below-cut frames out of every FIFO in (timestamp,
  /// source) order and drops a non-survivor's beyond-cut frames.
  [[nodiscard]] std::vector<Frame> drain_up_to_cut(
      const std::map<ProcessorId, SeqNum>& cuts,
      const std::set<ProcessorId>& survivors) override;

  [[nodiscard]] std::size_t pending_count() const override { return pending_count_; }

  /// A departed source's pending frames are dropped (RemoveProcessor
  /// semantics: "removed from the membership when the RemoveProcessor
  /// message is ordered"); a rebased stream keeps them.
  void reset_source(ProcessorId src, std::optional<SeqNum> floor) override;

 private:
  static constexpr Timestamp kNone = ~Timestamp{0};

  struct PendingEntry {
    Frame frame;
    TimePoint arrival = 0;  // wall clock at arrival (0 when the caller had none)
  };

  Stability& stability_;
  // Totally-ordered frames awaiting delivery (raw bodies, zero-copy slices
  // of their arrival buffers), per source by timestamp.
  SourceTable<Ring<PendingEntry>> pending_;
  std::size_t pending_count_ = 0;
  // Lower bound on the timestamps at the heads of the pending FIFOs.
  Timestamp head_floor_ = kNone;
  DeliveryInstruments metrics_;
};

}  // namespace ftcorba::ftmp
