// routing.hpp — feeds one reliable frame to a Stability and a DeliveryRule
// the way GroupSession::route_source_ordered does, and returns by value what
// the RMP and ordering entry points append to a session's vectors, for tests
// that drive these layers without a session.
#pragma once

#include <utility>
#include <vector>

#include "ftmp/messages.hpp"
#include "ftmp/ordering.hpp"
#include "ftmp/rmp.hpp"
#include "ftmp/stability.hpp"

namespace ftcorba::ftmp {

inline void route(Stability& stability, DeliveryRule& rule, const Frame& frame,
                  TimePoint now = 0) {
  const Header& h = frame.header;
  stability.note_receipt(h);
  if (is_totally_ordered(h.type)) {
    rule.on_ordered(frame, now);
    return;
  }
  stability.mark_consumed(h.source, h.sequence_number);
  if (h.type == MessageType::kOrderInfo) rule.on_ordered(frame, now);
}

/// The frames Rmp::on_reliable makes deliverable.
inline std::vector<Frame> reliable(Rmp& rmp, TimePoint now, Frame frame) {
  std::vector<Frame> out;
  (void)rmp.on_reliable(now, std::move(frame), out);
  return out;
}

/// The frames DeliveryRule::collect_deliverable pops.
inline std::vector<Frame> deliverable(DeliveryRule& rule, TimePoint now = 0) {
  std::vector<Frame> out;
  rule.collect_deliverable(now, out);
  return out;
}

/// The releases Stability::collect_stable reports.
inline std::vector<std::pair<ProcessorId, SeqNum>> stable(Stability& stability) {
  std::vector<std::pair<ProcessorId, SeqNum>> out;
  stability.collect_stable(out);
  return out;
}

}  // namespace ftcorba::ftmp
