#include "ftmp/llft.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace ftcorba::ftmp {

namespace {

// Grants per OrderInfo body: keeps every body comfortably inside a single
// datagram (12 bytes per grant + header), since OrderInfo — unlike Regular —
// has no fragmentation path.
constexpr std::size_t kMaxGrantsPerBody = 96;

// Bound on buffered future-view OrderInfo bodies (total across views). A
// healthy follower is at most a few installs behind the issuing leader, so
// anything approaching this cap is a partitioned or misbehaving peer
// tagging grants with ever-higher views — which must not grow memory
// without limit.
constexpr std::size_t kMaxFutureBodies = 256;

// Sort key of LLFT's per-source held FIFO.
constexpr auto kHeldSeq = [](const auto& e) { return e.frame.header.sequence_number; };

[[nodiscard]] bool is_membership_change(MessageType t) {
  return t == MessageType::kAddProcessor || t == MessageType::kRemoveProcessor;
}

}  // namespace

LlftRule::LlftRule(ProcessorId self, Stability& stability)
    : self_(self), stability_(stability) {
  llft_metrics_.sessions = metrics::gauge(
      "ftmp_ordering_llft_sessions",
      "Group sessions running the LLFT leader-granted ordering engine",
      "sessions", "ordering");
  llft_metrics_.leader_changes = metrics::counter(
      "ftmp_ordering_leader_changes_total",
      "LLFT leadership handovers observed at view changes", "changes",
      "ordering");
  llft_metrics_.grants = metrics::counter(
      "ftmp_ordering_grants_total",
      "Delivery slots granted by this member while leading", "grants",
      "ordering");
  llft_metrics_.stale_grants = metrics::counter(
      "ftmp_ordering_stale_grants_total",
      "Grants dropped because their view tag named a superseded view", "grants",
      "ordering");
  llft_metrics_.future_dropped = metrics::counter(
      "ftmp_ordering_future_dropped_total",
      "Future-view OrderInfo bodies dropped at the bounded buffer cap",
      "bodies", "ordering");
  llft_metrics_.truncations = metrics::counter(
      "ftmp_ordering_truncations_total",
      "Slots truncated at fault installs (referenced message beyond the cut)",
      "slots", "ordering");
  llft_metrics_.stamp_wait_ms = metrics::histogram(
      "ftmp_ordering_stamp_wait_ms",
      "Wait from source-ordered arrival to the leader's grant being consumed",
      "ms", "ordering", metrics::latency_buckets_ms());
  llft_metrics_.slot_wait_ms = metrics::histogram(
      "ftmp_ordering_slot_wait_ms",
      "Wait from grant consumption to slot delivery", "ms", "ordering",
      metrics::latency_buckets_ms());
  llft_metrics_.sessions.add(1);
}

LlftRule::~LlftRule() { llft_metrics_.sessions.add(-1); }

SeqNum LlftRule::floor_of(ProcessorId src) const {
  const Stream* st = streams_.find(src);
  return st == nullptr ? 0 : st->floor;
}

std::size_t LlftRule::held_index(const Stream& st, SeqNum seq) {
  const std::size_t i = st.held.lower_bound(seq, kHeldSeq);
  return i < st.held.size() && st.held[i].frame.header.sequence_number == seq
             ? i
             : st.held.size();
}

bool LlftRule::eligible(ProcessorId m) const {
  auto it = joined_epoch_.find(m);
  const Timestamp je = it == joined_epoch_.end() ? 0 : it->second;
  return je != kJoinPending && je < epoch_;
}

void LlftRule::recompute_granter() {
  const bool old_have = have_granter_;
  const ProcessorId old = granter_;
  have_granter_ = false;
  const std::vector<ProcessorId> current = stability_.members();
  for (ProcessorId p : current) {
    if (eligible(p)) {
      granter_ = p;
      have_granter_ = true;
      break;
    }
  }
  if (!have_granter_ && !current.empty()) {
    // Nobody predates the current view (bootstrap, or every established
    // member crashed): fall back to the smallest id — still deterministic.
    granter_ = current.front();
    have_granter_ = true;
  }
  if (!have_granter_) granter_ = ProcessorId{};
  if (old_have && have_granter_ && granter_ != old) {
    llft_metrics_.leader_changes.add();
    FTC_LOG(kDebug) << to_string(self_) << " llft leader " << to_string(old)
                    << " -> " << to_string(granter_) << " epoch=" << epoch_;
  }
}

void LlftRule::note_joined_epoch(ProcessorId member, Timestamp epoch) {
  joined_epoch_[member] = epoch;
  recompute_granter();
}

void LlftRule::apply_floors(const std::vector<SourceSeq>& floors) {
  for (const SourceSeq& f : floors) {
    Stream& st = streams_[f.processor];
    if (f.seq <= st.floor) continue;
    st.floor = f.seq;
    while (!st.held.empty() && st.held.front().frame.header.sequence_number <= st.floor) {
      // Settled below the floor (delivered by the members before we
      // joined, covered by our state snapshot): consume without
      // delivering, or our resume-point reports would stick here.
      stability_.mark_consumed(f.processor, st.held.front().frame.header.sequence_number);
      st.held.pop_front();
      --held_count_;
      metrics_.pending.add(-1);
    }
    st.granted_hw = std::max(st.granted_hw, st.floor);
    st.issued_hw = std::max(st.issued_hw, st.floor);
  }
}

void LlftRule::consume_order_info(ProcessorId from, const OrderInfoBody& body,
                                  TimePoint now) {
  // The view tag alone authenticates a grant: only the member that actually
  // leads epoch E ever emits bodies tagged E (leadership is a deterministic
  // function of the agreed view), so matching the issuer against our local
  // granter_ adds nothing — and deadlocks a joiner, whose init_from_add
  // snapshot cannot reconstruct pre-join eligibility history (it may compute
  // a different leader for the sponsor's view and drop the real one's
  // grants, starving its own AddProcessor of the slot that installs it).
  if (body.view_ts == epoch_) {
    apply_floors(body.floors);
    for (const SourceSeq& g : body.grants) {
      Stream& st = streams_[g.processor];
      if (g.seq <= std::max(st.granted_hw, st.floor)) continue;  // re-grant
      st.granted_hw = g.seq;
      slots_.push_back({g.processor, g.seq, now});
      const std::size_t i = held_index(st, g.seq);
      if (i < st.held.size() && now > 0 && st.held[i].arrival > 0) {
        llft_metrics_.stamp_wait_ms.observe(to_ms(now - st.held[i].arrival));
      }
    }
  } else if (body.view_ts > epoch_) {
    // Issued under a view we have not installed yet (the issuer is ahead of
    // us): buffer until our own install decides whether it is the leader.
    // Bounded: legitimate racing grants sit at the lowest buffered tags
    // (the issuer is at most a few installs ahead), so at the cap the
    // highest-tagged body goes first.
    if (future_count_ >= kMaxFutureBodies) {
      llft_metrics_.future_dropped.add();
      auto last = std::prev(future_.end());
      if (body.view_ts >= last->first) return;
      last->second.pop_back();
      if (last->second.empty()) future_.erase(last);
      --future_count_;
    }
    future_[body.view_ts].emplace_back(from, body);
    ++future_count_;
  } else {
    llft_metrics_.stale_grants.add(
        body.grants.empty() ? 1 : body.grants.size());
  }
}

void LlftRule::grant_ready(ProcessorId src) {
  if (!leading() || suspended_) return;
  Stream& st = streams_[src];
  st.issued_hw = std::max({st.issued_hw, st.floor, st.granted_hw});
  // Every held frame already cleared RMP's contiguous gate, so seq gaps
  // between held entries are non-totally-ordered messages on the same
  // stream (the leader's own OrderInfo, Suspect, Membership) — grant
  // straight across them, in seq order.
  for (std::size_t i = st.held.lower_bound(st.issued_hw + 1, kHeldSeq); i < st.held.size();
       ++i) {
    const Header& h = st.held[i].frame.header;
    st.issued_hw = h.sequence_number;
    pending_grants_.push_back({src, st.issued_hw});
    llft_metrics_.grants.add();
    if (is_membership_change(h.type)) {
      // §7: "the ordering of messages stops" — no grants may trail a
      // membership change, so the slot queue is empty when it installs.
      suspended_ = true;
      return;
    }
  }
}

void LlftRule::sweep_ungranted() {
  for (ProcessorId m : stability_.members()) {
    if (!leading() || suspended_) return;
    grant_ready(m);
  }
}

void LlftRule::set_view(Timestamp view_ts) {
  epoch_ = std::max(epoch_, view_ts);
  suspended_ = false;
  // Entries queued under the old epoch are void; the accession sweep below
  // re-grants whatever still needs a slot under the new tag.
  pending_grants_.clear();
  for (auto& [src, st] : streams_) st.issued_hw = 0;
  recompute_granter();
  auto it = future_.begin();
  while (it != future_.end() && it->first <= epoch_) {
    for (auto& [from, body] : it->second) {
      if (it->first == epoch_) {
        // The new leader's grants raced ahead of our install: consume them
        // now, in the order they arrived on its stream.
        consume_order_info(from, body, 0);
      } else {
        llft_metrics_.stale_grants.add(
            body.grants.empty() ? 1 : body.grants.size());
      }
    }
    future_count_ -= it->second.size();
    it = future_.erase(it);
  }
  if (leading()) {
    // Announce the delivered floors (a joiner admitted by this view uses
    // them to discard pre-join backlog), then re-grant surviving backlog.
    advisory_pending_ = true;
    sweep_ungranted();
  } else {
    advisory_pending_ = false;
  }
}

void LlftRule::on_ordered(const Frame& frame, TimePoint now) {
  const Header& h = frame.header;
  if (h.type == MessageType::kOrderInfo) {
    try {
      decode_order_info(h, frame.raw.view().subspan(kHeaderSize), order_info_);
    } catch (const CodecError& e) {
      FTC_LOG(kWarn) << to_string(self_) << " malformed OrderInfo from "
                     << to_string(h.source) << ": " << e.what();
      return;
    }
    consume_order_info(h.source, order_info_, now);
    return;
  }
  // Totally-ordered message: held per-source until its slot is granted.
  Stream& st = streams_[h.source];
  if (h.sequence_number <= st.floor) {
    // Settled below an advisory floor (pre-join backlog): never delivered
    // here — the state snapshot covers it.
    stability_.mark_consumed(h.source, h.sequence_number);
    return;
  }
  if (st.held.insert_sorted(HeldEntry{frame, now}, kHeldSeq)) {
    ++held_count_;
    metrics_.pending.add(1);
  }
  grant_ready(h.source);
}

Frame LlftRule::deliver_held(ProcessorId src, Stream& st, std::size_t i,
                             TimePoint now, TimePoint granted_at) {
  Frame f = std::move(st.held[i].frame);
  const TimePoint arrival = st.held[i].arrival;
  st.held.erase(i);
  --held_count_;
  metrics_.pending.add(-1);
  const SeqNum seq = f.header.sequence_number;
  st.floor = std::max(st.floor, seq);
  st.granted_hw = std::max(st.granted_hw, st.floor);
  stability_.mark_consumed(src, seq);
  if (now > 0 && granted_at > 0) {
    llft_metrics_.slot_wait_ms.observe(to_ms(now - granted_at));
  }
  metrics_.observe(f.header.message_timestamp, arrival, now,
                   stability_.stable_timestamp());
  return f;
}

void LlftRule::collect_deliverable(TimePoint now, std::vector<Frame>& out) {
  while (!slots_.empty()) {
    const Slot s = slots_.front();
    Stream* st = streams_.find(s.src);
    if (s.seq <= (st == nullptr ? 0 : st->floor)) {
      slots_.pop_front();  // settled by an advisory floor
      continue;
    }
    if (st == nullptr) break;
    const std::size_t i = held_index(*st, s.seq);
    if (i == st->held.size()) break;  // in flight: RMP NACK recovery runs
    slots_.pop_front();
    out.push_back(deliver_held(s.src, *st, i, now, s.granted_at));
    if (out.back().header.type != MessageType::kRegular) {
      // Membership-affecting message: the session applies it (and the view
      // change re-keys the grant epoch) before ordering continues.
      break;
    }
  }
}

std::vector<Frame> LlftRule::drain_up_to_cut(
    const std::map<ProcessorId, SeqNum>& cuts,
    const std::set<ProcessorId>& survivors) {
  std::vector<Frame> out;
  // 1. Flush the slot queue. Slots at or below the cut are deliverable on
  //    every survivor (the equalization gate closed the streams); slots
  //    beyond it reference a crashed source's messages that not every
  //    survivor holds — truncate them deterministically (same queue, same
  //    cuts everywhere). The frames, where held, stay for the new epoch if
  //    their source survived.
  while (!slots_.empty()) {
    const Slot s = slots_.front();
    slots_.pop_front();
    Stream* st = streams_.find(s.src);
    if (s.seq <= (st == nullptr ? 0 : st->floor)) continue;
    auto c = cuts.find(s.src);
    const SeqNum limit = c == cuts.end() ? 0 : c->second;
    if (s.seq <= limit && st != nullptr) {
      const std::size_t i = held_index(*st, s.seq);
      if (i < st->held.size()) {
        out.push_back(deliver_held(s.src, *st, i, 0, s.granted_at));
        continue;
      }
    }
    llft_metrics_.truncations.add();
  }
  // 2. Ungranted remainder at or below the cut (the old leader died before
  //    granting them): every survivor holds the same set, delivered in
  //    Lamport (timestamp, source) order — deterministic without a leader.
  std::map<std::pair<Timestamp, std::uint32_t>, std::pair<ProcessorId, SeqNum>>
      rest;
  for (const auto& [src, st] : streams_) {
    auto c = cuts.find(src);
    const SeqNum limit = c == cuts.end() ? 0 : c->second;
    for (std::size_t i = 0; i < st.held.size(); ++i) {
      const Header& h = st.held[i].frame.header;
      if (h.sequence_number > limit) break;
      rest.emplace(std::make_pair(h.message_timestamp, src.raw()),
                   std::make_pair(src, h.sequence_number));
    }
  }
  for (const auto& [key, ref] : rest) {
    Stream& st = *streams_.find(ref.first);
    const std::size_t i = held_index(st, ref.second);
    if (i == st.held.size()) continue;
    out.push_back(deliver_held(ref.first, st, i, 0, 0));
  }
  // 3. A non-survivor's held messages beyond the cut will never be granted.
  for (auto& [src, st] : streams_) {
    if (survivors.contains(src)) continue;
    auto c = cuts.find(src);
    const SeqNum limit = c == cuts.end() ? 0 : c->second;
    while (!st.held.empty() && st.held.back().frame.header.sequence_number > limit) {
      st.held.pop_back();
      --held_count_;
      metrics_.pending.add(-1);
    }
  }
  return out;
}

std::vector<Body> LlftRule::take_protocol_sends() {
  std::vector<Body> out;
  if (recovering_) return out;  // nothing may outrun our proposed cut
  if (!leading()) {
    pending_grants_.clear();
    advisory_pending_ = false;
    return out;
  }
  if (advisory_pending_) {
    advisory_pending_ = false;
    OrderInfoBody adv;
    adv.view_ts = epoch_;
    for (ProcessorId m : stability_.members()) {
      const SeqNum f = floor_of(m);
      if (f > 0) adv.floors.push_back({m, f});
    }
    if (!adv.floors.empty()) out.emplace_back(std::move(adv));
  }
  for (std::size_t i = 0; i < pending_grants_.size(); i += kMaxGrantsPerBody) {
    OrderInfoBody b;
    b.view_ts = epoch_;
    const std::size_t end =
        std::min(pending_grants_.size(), i + kMaxGrantsPerBody);
    b.grants.assign(pending_grants_.begin() + static_cast<std::ptrdiff_t>(i),
                    pending_grants_.begin() + static_cast<std::ptrdiff_t>(end));
    out.emplace_back(std::move(b));
  }
  pending_grants_.clear();
  return out;
}

void LlftRule::set_recovering(bool active) {
  if (recovering_ == active) return;
  recovering_ = active;
  if (!active && leading() && !suspended_) {
    // Round aborted (false suspicion withdrawn): resume granting whatever
    // arrived while the round ran; the install path resumes via set_view.
    sweep_ungranted();
  }
}

void LlftRule::reset_source(ProcessorId src, std::optional<SeqNum> floor) {
  // Slots referencing the source are either delivered (planned removes:
  // FIFO puts them before the change slot) or truncated by the install
  // drain before a removal; purge defensively.
  std::erase_if(slots_, [&](const Slot& s) { return s.src == src; });
  Stream& st = streams_[src];
  held_count_ -= st.held.size();
  metrics_.pending.add(-static_cast<std::int64_t>(st.held.size()));
  if (!floor) {
    joined_epoch_.erase(src);
    streams_.erase(src);
    // NOTE: granter recompute is deferred to the set_view PGMP issues next.
    return;
  }
  st.held.clear();
  st.floor = *floor;
  st.granted_hw = *floor;
  st.issued_hw = *floor;
}

}  // namespace ftcorba::ftmp
