#include "ftmp/romp.hpp"

#include <algorithm>

namespace ftcorba::ftmp {

namespace {

constexpr auto kPendingTs = [](const auto& e) { return e.frame.header.message_timestamp; };

}  // namespace

void LamportRule::on_ordered(const Frame& frame, TimePoint now) {
  const Header& h = frame.header;
  if (!is_totally_ordered(h.type)) return;
  // A duplicate (timestamp, source) keeps the frame already pending.
  if (pending_[h.source].insert_sorted(PendingEntry{frame, now}, kPendingTs)) {
    ++pending_count_;
    head_floor_ = std::min(head_floor_, h.message_timestamp);
    metrics_.pending.add(1);
  }
}

void LamportRule::collect_deliverable(TimePoint now, std::vector<Frame>& out) {
  // Any member never heard from stalls delivery (bound 0), which is
  // precisely the "ordering of messages stops until faulty processors are
  // removed" behaviour of §7.
  if (pending_count_ == 0 || !stability_.bounds_cover(head_floor_)) return;
  const Timestamp stable = stability_.stable_timestamp();
  for (;;) {
    // Merge the per-source heads: smallest timestamp, ties to the smallest
    // source id (the table is in id order).
    Ring<PendingEntry>* next = nullptr;
    ProcessorId src{};
    Timestamp ts = kNone;
    for (auto& [id, q] : pending_) {
      if (q.empty()) continue;
      const Timestamp t = q.front().frame.header.message_timestamp;
      if (next == nullptr || t < ts) {
        next = &q;
        src = id;
        ts = t;
      }
    }
    head_floor_ = ts;
    if (next == nullptr || !stability_.bounds_cover(ts)) break;
    PendingEntry& m = next->front();
    stability_.mark_consumed(src, m.frame.header.sequence_number);
    const MessageType type = m.frame.header.type;
    metrics_.observe(ts, m.arrival, now, stable);
    out.push_back(std::move(m.frame));
    next->pop_front();
    --pending_count_;
    metrics_.pending.add(-1);
    if (type != MessageType::kRegular) {
      // A membership-affecting message (AddProcessor / RemoveProcessor /
      // Connect): stop the batch here. min_bound was computed over the
      // *current* membership; once this message is applied, later messages
      // must also clear the new member's (or shed the removed member's)
      // bound. The session re-enters after applying it.
      break;
    }
  }
}

std::vector<Frame> LamportRule::drain_up_to_cut(
    const std::map<ProcessorId, SeqNum>& cuts,
    const std::set<ProcessorId>& survivors) {
  // (timestamp, source) -> frame: the delivery order of the remainder.
  std::vector<std::pair<std::pair<Timestamp, std::uint32_t>, Frame>> taken;
  for (auto& [src, q] : pending_) {
    auto cut = cuts.find(src);
    const SeqNum limit = cut == cuts.end() ? 0 : cut->second;
    const bool survivor = survivors.contains(src);
    const std::size_t removed = q.remove_if([&](PendingEntry& e) {
      const SeqNum seq = e.frame.header.sequence_number;
      if (seq <= limit) {
        stability_.mark_consumed(src, seq);
        taken.emplace_back(std::make_pair(e.frame.header.message_timestamp, src.raw()),
                           std::move(e.frame));
        metrics_.ordered_delivered.add();
        return true;
      }
      // A non-survivor's message beyond the cut: nobody will deliver it.
      // Survivors' beyond-cut messages stay pending for the new epoch.
      return !survivor;
    });
    pending_count_ -= removed;
    metrics_.pending.add(-static_cast<std::int64_t>(removed));
  }
  std::sort(taken.begin(), taken.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Frame> out;
  out.reserve(taken.size());
  for (auto& [key, frame] : taken) out.push_back(std::move(frame));
  return out;
}

void LamportRule::reset_source(ProcessorId src, std::optional<SeqNum> floor) {
  if (floor) return;
  Ring<PendingEntry>* q = pending_.find(src);
  if (q == nullptr || q->empty()) return;
  pending_count_ -= q->size();
  metrics_.pending.add(-static_cast<std::int64_t>(q->size()));
  q->clear();
}

}  // namespace ftcorba::ftmp
