#include "ftmp/stability.hpp"

#include <algorithm>

namespace ftcorba::ftmp {

Stability::Stability(const Config& config)
    : clock_(config.clock_mode, config.clock_skew) {
  stability_releases_ = metrics::counter(
      "ftmp_romp_stability_releases_total",
      "Per-source release notices issued to RMP when messages became stable",
      "releases", "romp");
}

void Stability::refresh_minima() {
  min_bound_ = kNoMember;
  min_ack_ = kNoMember;
  for (const auto& [id, s] : sources_) {
    if (!s.member) continue;
    min_bound_ = std::min(min_bound_, s.bound);
    min_ack_ = std::min(min_ack_, s.last_ack);
  }
}

void Stability::set_members(const std::vector<ProcessorId>& members) {
  for (auto& [id, s] : sources_) s.member = false;
  for (ProcessorId m : members) sources_[m].member = true;
  member_count_ = 0;
  for (const auto& [id, s] : sources_) member_count_ += s.member ? 1 : 0;
  refresh_minima();
}

void Stability::add_member(ProcessorId member, Timestamp initial_bound) {
  Source& s = sources_[member];
  if (!s.member) ++member_count_;
  s.member = true;
  s.bound = std::max(s.bound, initial_bound);
  refresh_minima();
}

void Stability::reset_source(ProcessorId src, SeqNum floor) {
  Source& s = sources_[src];
  s.consumed = floor;
  s.consumed_ahead.clear();
  s.unstable.clear();
}

void Stability::remove_member(ProcessorId member) {
  Source* s = sources_.find(member);
  if (s == nullptr) return;
  if (s->member) --member_count_;
  s->member = false;
  s->bound = 0;
  s->last_ack = 0;
  s->unstable.clear();
  refresh_minima();
}

std::vector<ProcessorId> Stability::members() const {
  std::vector<ProcessorId> out;
  out.reserve(member_count_);
  for (const auto& [id, s] : sources_) {
    if (s.member) out.push_back(id);
  }
  return out;
}

bool Stability::is_member(ProcessorId p) const {
  const Source* s = sources_.find(p);
  return s != nullptr && s->member;
}

Timestamp Stability::bound(ProcessorId q) const {
  const Source* s = sources_.find(q);
  return s == nullptr ? 0 : s->bound;
}

Stability::Source& Stability::observe_header(const Header& h) {
  clock_.witness(h.message_timestamp);
  Source& s = sources_[h.source];
  if (h.ack_timestamp > s.last_ack) {
    const Timestamp old = s.last_ack;
    s.last_ack = h.ack_timestamp;
    if (s.member && old == min_ack_) refresh_minima();
  }
  return s;
}

void Stability::raise_bound(Source& s, Timestamp t) {
  if (t <= s.bound) return;
  const Timestamp old = s.bound;
  s.bound = t;
  if (s.member && old == min_bound_) refresh_minima();
}

void Stability::note_receipt(const Header& h) { receive(observe_header(h), h); }

void Stability::note_consumed_receipt(const Header& h) {
  Source& s = observe_header(h);
  receive(s, h);
  consume(s, h.sequence_number);
}

void Stability::receive(Source& s, const Header& h) {
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
}

void Stability::on_heartbeat(const Header& header, SeqNum contiguous_seq) {
  Source& s = observe_header(header);
  if (header.sequence_number == contiguous_seq) raise_bound(s, header.message_timestamp);
}

void Stability::mark_consumed(ProcessorId src, SeqNum seq) { consume(sources_[src], seq); }

void Stability::consume(Source& s, SeqNum seq) {
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

SeqNum Stability::consumed_up_to(ProcessorId src) const {
  const Source* s = sources_.find(src);
  return s == nullptr ? 0 : s->consumed;
}

Timestamp Stability::last_ack(ProcessorId q) const {
  const Source* s = sources_.find(q);
  return s == nullptr ? 0 : s->last_ack;
}

void Stability::collect_stable(std::vector<std::pair<ProcessorId, SeqNum>>& out) {
  const Timestamp stable = stable_timestamp();
  if (stable <= last_stable_) return;
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
    stability_releases_.add();
  }
}

}  // namespace ftcorba::ftmp
