#include "ftmp/romp.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace ftcorba::ftmp {

bool is_totally_ordered(MessageType t) {
  switch (t) {
    case MessageType::kRegular:
    case MessageType::kConnect:
    case MessageType::kAddProcessor:
    case MessageType::kRemoveProcessor:
      return true;
    default:
      return false;
  }
}

bool is_reliable(MessageType t) {
  switch (t) {
    case MessageType::kRegular:
    case MessageType::kConnect:
    case MessageType::kAddProcessor:
    case MessageType::kRemoveProcessor:
    case MessageType::kSuspect:
    case MessageType::kMembership:
    case MessageType::kStateRequest:
    case MessageType::kStateChunk:
    case MessageType::kStateDigest:
    case MessageType::kOrderInfo:
      return true;
    default:
      return false;
  }
}

Romp::Romp(ProcessorId self, const Config& config)
    : self_(self),
      config_(config),
      clock_(config.clock_mode, config.clock_skew) {
  metrics_.ordered_delivered = metrics::counter(
      "ftmp_romp_ordered_delivered_total",
      "Messages delivered upward in total (timestamp, source) order",
      "messages", "romp");
  metrics_.stability_releases = metrics::counter(
      "ftmp_romp_stability_releases_total",
      "Per-source release notices issued to RMP when messages became stable",
      "releases", "romp");
  metrics_.pending = metrics::gauge(
      "ftmp_romp_pending_messages",
      "Messages buffered awaiting total-order delivery", "messages", "romp");
  metrics_.ordering_wait_ms = metrics::histogram(
      "ftmp_romp_ordering_wait_ms",
      "Wall-clock wait from source-ordered arrival to total-order delivery",
      "ms", "romp", metrics::latency_buckets_ms());
  metrics_.stability_lag = metrics::histogram(
      "ftmp_romp_stability_lag_ts",
      "Delivered-vs-stable gap: message timestamp minus the stable timestamp "
      "at delivery (buffer-reclaim lag, paper section 6)",
      "timestamp", "romp", metrics::timestamp_gap_buckets());
}

void Romp::refresh_minima() {
  min_bound_ = kNoMember;
  min_ack_ = kNoMember;
  for (const auto& [id, s] : sources_) {
    if (!s.member) continue;
    min_bound_ = std::min(min_bound_, s.bound);
    min_ack_ = std::min(min_ack_, s.last_ack);
  }
}

void Romp::set_members(const std::vector<ProcessorId>& members) {
  for (auto& [id, s] : sources_) s.member = false;
  for (ProcessorId m : members) sources_[m].member = true;
  member_count_ = 0;
  for (const auto& [id, s] : sources_) member_count_ += s.member ? 1 : 0;
  refresh_minima();
}

void Romp::add_member(ProcessorId member, Timestamp initial_bound) {
  Source& s = sources_[member];
  if (!s.member) ++member_count_;
  s.member = true;
  s.bound = std::max(s.bound, initial_bound);
  refresh_minima();
}

void Romp::reset_source(ProcessorId src, SeqNum floor) {
  Source& s = sources_[src];
  s.consumed = floor;
  s.consumed_ahead.clear();
  s.last_ordered = floor;
  s.unstable.clear();
}

void Romp::remove_member(ProcessorId member, bool drop_pending) {
  Source* s = sources_.find(member);
  if (s == nullptr) return;
  if (s->member) --member_count_;
  s->member = false;
  s->bound = 0;
  s->last_ack = 0;
  s->unstable.clear();
  if (drop_pending && !s->pending.empty()) {
    pending_count_ -= s->pending.size();
    metrics_.pending.add(-static_cast<std::int64_t>(s->pending.size()));
    s->pending.clear();
  }
  refresh_minima();
}

std::vector<ProcessorId> Romp::members() const {
  std::vector<ProcessorId> out;
  out.reserve(member_count_);
  for (const auto& [id, s] : sources_) {
    if (s.member) out.push_back(id);
  }
  return out;
}

bool Romp::is_member(ProcessorId p) const {
  const Source* s = sources_.find(p);
  return s != nullptr && s->member;
}

Timestamp Romp::ack_timestamp() const { return std::min(clock_.latest(), min_bound_); }

Timestamp Romp::bound(ProcessorId q) const {
  const Source* s = sources_.find(q);
  return s == nullptr ? 0 : s->bound;
}

Timestamp Romp::min_bound() const { return member_count_ == 0 ? 0 : min_bound_; }

Romp::Source& Romp::observe_header(const Header& h) {
  clock_.witness(h.message_timestamp);
  Source& s = sources_[h.source];
  if (h.ack_timestamp > s.last_ack) {
    const Timestamp old = s.last_ack;
    s.last_ack = h.ack_timestamp;
    if (s.member && old == min_ack_) refresh_minima();
  }
  return s;
}

void Romp::raise_bound(Source& s, Timestamp t) {
  if (t <= s.bound) return;
  const Timestamp old = s.bound;
  s.bound = t;
  if (s.member && old == min_bound_) refresh_minima();
}

Romp::Source& Romp::note_receipt(const Header& h) {
  Source& s = observe_header(h);
  raise_bound(s, h.message_timestamp);
  // Timestamps rise along a source's stream, so this appends; a repeated
  // timestamp keeps one entry with the later seq.
  const std::size_t i = s.unstable.lower_bound(
      h.message_timestamp, [](const UnstableEntry& e) { return e.ts; });
  if (i < s.unstable.size() && s.unstable[i].ts == h.message_timestamp) {
    s.unstable[i].seq = h.sequence_number;
  } else {
    s.unstable.insert(i, UnstableEntry{h.message_timestamp, h.sequence_number});
  }
  return s;
}

void Romp::on_source_ordered(const Frame& frame, TimePoint now) {
  const Header& h = frame.header;
  Source& s = note_receipt(h);
  if (is_totally_ordered(h.type)) {
    // A duplicate (timestamp, source) keeps the frame already pending.
    if (s.pending.insert_sorted(PendingEntry{frame, now},
                                [](const PendingEntry& e) { return e.frame.header.message_timestamp; })) {
      ++pending_count_;
      head_floor_ = std::min(head_floor_, h.message_timestamp);
      metrics_.pending.add(1);
    }
    stats_.pending_peak = std::max<std::uint64_t>(stats_.pending_peak, pending_count_);
  } else {
    // Suspect/Membership: consumed by PGMP right away (Fig. 3: reliable,
    // source-ordered, not totally ordered).
    mark_consumed(s, h.sequence_number);
  }
}

void Romp::mark_consumed(Source& s, SeqNum seq) {
  if (seq != s.consumed + 1) {
    if (seq > s.consumed) s.consumed_ahead.insert_sorted(seq, [](SeqNum v) { return v; });
    return;
  }
  s.consumed = seq;
  while (!s.consumed_ahead.empty() && s.consumed_ahead.front() == s.consumed + 1) {
    s.consumed = s.consumed_ahead.front();
    s.consumed_ahead.pop_front();
  }
}

SeqNum Romp::consumed_up_to(ProcessorId src) const {
  const Source* s = sources_.find(src);
  return s == nullptr ? 0 : s->consumed;
}

void Romp::on_heartbeat(const Header& header, SeqNum contiguous_seq) {
  Source& s = observe_header(header);
  if (header.sequence_number == contiguous_seq) raise_bound(s, header.message_timestamp);
}

std::vector<Frame> Romp::collect_deliverable(TimePoint now) {
  std::vector<Frame> out;
  // Any member never heard from stalls delivery (bound 0), which is
  // precisely the "ordering of messages stops until faulty processors are
  // removed" behaviour of §7.
  if (pending_count_ == 0 || member_count_ == 0 || head_floor_ > min_bound_) return out;
  const Timestamp stable = stable_timestamp();
  for (;;) {
    // Merge the per-source heads: smallest timestamp, ties to the smallest
    // source id (the table is in id order).
    Source* next = nullptr;
    Timestamp ts = kNoMember;
    for (auto& [id, s] : sources_) {
      if (s.pending.empty()) continue;
      const Timestamp t = s.pending.front().frame.header.message_timestamp;
      if (next == nullptr || t < ts) {
        next = &s;
        ts = t;
      }
    }
    head_floor_ = ts;
    if (next == nullptr || ts > min_bound_) break;
    PendingEntry& m = next->pending.front();
    next->last_ordered = std::max(next->last_ordered, m.frame.header.sequence_number);
    mark_consumed(*next, m.frame.header.sequence_number);
    const MessageType type = m.frame.header.type;
    if (now > 0 && m.arrival > 0) {
      metrics_.ordering_wait_ms.observe(to_ms(now - m.arrival));
    }
    metrics_.stability_lag.observe(ts > stable ? double(ts - stable) : 0.0);
    out.push_back(std::move(m.frame));
    next->pending.pop_front();
    --pending_count_;
    metrics_.pending.add(-1);
    stats_.ordered_delivered += 1;
    metrics_.ordered_delivered.add();
    if (type != MessageType::kRegular) {
      // A membership-affecting message (AddProcessor / RemoveProcessor /
      // Connect): stop the batch here. min_bound was computed over the
      // *current* membership; once this message is applied, later messages
      // must also clear the new member's (or shed the removed member's)
      // bound. The session re-enters after applying it.
      break;
    }
  }
  return out;
}

SeqNum Romp::last_ordered_seq(ProcessorId src) const {
  const Source* s = sources_.find(src);
  return s == nullptr ? 0 : s->last_ordered;
}

Timestamp Romp::stable_timestamp() const { return member_count_ == 0 ? 0 : min_ack_; }

Timestamp Romp::last_ack(ProcessorId q) const {
  const Source* s = sources_.find(q);
  return s == nullptr ? 0 : s->last_ack;
}

std::vector<std::pair<ProcessorId, SeqNum>> Romp::collect_stable() {
  std::vector<std::pair<ProcessorId, SeqNum>> out;
  const Timestamp stable = stable_timestamp();
  if (stable <= last_stable_) return out;
  last_stable_ = stable;
  for (auto& [src, s] : sources_) {
    // Everything up to the seq of the largest timestamp <= stable is
    // reclaimable.
    if (s.unstable.empty() || s.unstable.front().ts > stable) continue;
    SeqNum up_to = 0;
    while (!s.unstable.empty() && s.unstable.front().ts <= stable) {
      up_to = s.unstable.front().seq;
      s.unstable.pop_front();
    }
    out.emplace_back(src, up_to);
    stats_.stability_releases += 1;
    metrics_.stability_releases.add();
  }
  return out;
}

std::vector<Frame> Romp::drain_up_to_cut(
    const std::map<ProcessorId, SeqNum>& cuts,
    const std::set<ProcessorId>& survivors) {
  // (timestamp, source) -> frame: the delivery order of the remainder.
  std::vector<std::pair<std::pair<Timestamp, std::uint32_t>, Frame>> taken;
  for (auto& [src, s] : sources_) {
    auto cut = cuts.find(src);
    const SeqNum limit = cut == cuts.end() ? 0 : cut->second;
    const bool survivor = survivors.contains(src);
    const std::size_t removed = s.pending.remove_if([&](PendingEntry& e) {
      const SeqNum seq = e.frame.header.sequence_number;
      if (seq <= limit) {
        s.last_ordered = std::max(s.last_ordered, seq);
        mark_consumed(s, seq);
        taken.emplace_back(std::make_pair(e.frame.header.message_timestamp, src.raw()),
                           std::move(e.frame));
        stats_.ordered_delivered += 1;
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

}  // namespace ftcorba::ftmp
