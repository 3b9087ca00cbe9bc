// routing.hpp — feeds one reliable frame to a Stability and a DeliveryRule
// the way GroupSession::route_source_ordered does, for tests that drive the
// ordering layer without a session.
#pragma once

#include "ftmp/messages.hpp"
#include "ftmp/ordering.hpp"
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

}  // namespace ftcorba::ftmp
