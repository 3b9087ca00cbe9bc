#include "ftmp/rmp.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/log.hpp"

namespace ftcorba::ftmp {

namespace {
// At most this many messages are retransmitted per RetransmitRequest; the
// requester re-NACKs for the remainder (bounds burst size).
constexpr std::size_t kMaxRetransmitBurst = 64;
// At most this many missing blocks are NACKed per source per tick.
constexpr std::size_t kMaxNackRunsPerTick = 16;
}  // namespace

Rmp::Rmp(ProcessorId self, const Config& config) : self_(self), config_(config) {
  metrics_.delivered = metrics::counter(
      "ftmp_rmp_delivered_in_order_total",
      "Reliable messages delivered to ROMP in source order", "messages", "rmp");
  metrics_.duplicates = metrics::counter(
      "ftmp_rmp_duplicates_ignored_total",
      "Reliable messages discarded as duplicates (already contiguous or buffered)",
      "messages", "rmp");
  metrics_.nacks_sent = metrics::counter(
      "ftmp_rmp_retransmit_requests_sent_total",
      "RetransmitRequest (NACK) blocks multicast for detected gaps", "requests",
      "rmp");
  metrics_.retransmits_served = metrics::counter(
      "ftmp_rmp_retransmit_requests_served_total",
      "Stored messages re-multicast in answer to RetransmitRequests", "messages",
      "rmp");
  metrics_.dropped_unknown = metrics::counter(
      "ftmp_rmp_dropped_unknown_source_total",
      "Reliable messages dropped because the source is not a tracked member",
      "messages", "rmp");
  metrics_.dropped_stale = metrics::counter(
      "ftmp_rmp_dropped_stale_incarnation_total",
      "Reliable messages dropped by the incarnation timestamp floor", "messages",
      "rmp");
  metrics_.ooo_dropped = metrics::counter(
      "ftmp_rmp_ooo_dropped_total",
      "Reliable messages dropped at the max_out_of_order_buffer cap "
      "(recovered later via NACK)",
      "messages", "rmp");
  metrics_.store_bytes = metrics::gauge(
      "ftmp_rmp_store_bytes", "Bytes held in the retransmission store", "bytes",
      "rmp");
  metrics_.out_of_order = metrics::gauge(
      "ftmp_rmp_out_of_order_messages",
      "Messages buffered out of order awaiting gap fill", "messages", "rmp");
  metrics_.gap_repair_ms = metrics::histogram(
      "ftmp_rmp_gap_repair_ms",
      "Gap-detection-to-repair latency: open gap first observed until the "
      "stream is contiguous again",
      "ms", "rmp", metrics::latency_buckets_ms());
}

void Rmp::update_gap_state(TimePoint now, SourceState& st) {
  if (st.contiguous < st.highest_seen) {
    if (st.gap_open_since < 0) st.gap_open_since = now;
  } else if (st.gap_open_since >= 0) {
    metrics_.gap_repair_ms.observe(to_ms(now - st.gap_open_since));
    st.gap_open_since = -1;
  }
}

void Rmp::add_source(ProcessorId src, SeqNum expect_after, Timestamp min_timestamp) {
  SourceState st;
  st.contiguous = expect_after;
  st.highest_seen = expect_after;
  st.min_timestamp = min_timestamp;
  auto [it, inserted] = sources_.insert_or_assign(src, std::move(st));
  streams_[src].state = &it->second;
}

void Rmp::remove_source(ProcessorId src) {
  auto it = sources_.find(src);
  if (it == sources_.end()) return;
  metrics_.out_of_order.add(-static_cast<std::int64_t>(it->second.out_of_order.size()));
  sources_.erase(it);
  streams_.find(src)->state = nullptr;
}

void Rmp::purge_store(ProcessorId src) {
  Stream* s = streams_.find(src);
  if (s == nullptr) return;
  drop_stored(s->store, ~SeqNum{0});
  if (s->state == nullptr) streams_.erase(src);
}

void Rmp::drop_stored(SeqWindow<Stored>& store, SeqNum up_to) {
  std::size_t bytes = 0;
  store.trim(up_to, [&](const Stored& m) {
    bytes += m.raw.size();
    --stored_count_;
  });
  stored_bytes_ -= bytes;
  if (bytes > 0) metrics_.store_bytes.add(-static_cast<std::int64_t>(bytes));
}

Rmp::SourceState* Rmp::tracked(ProcessorId src) const {
  const Stream* s = streams_.find(src);
  return s == nullptr ? nullptr : s->state;
}

bool Rmp::has_source(ProcessorId src) const { return tracked(src) != nullptr; }

std::vector<ProcessorId> Rmp::sources() const {
  std::vector<ProcessorId> out;
  out.reserve(sources_.size());
  for (const auto& [src, s] : streams_) {
    if (s.state != nullptr) out.push_back(src);
  }
  return out;
}

SeqNum Rmp::contiguous(ProcessorId src) const {
  const SourceState* st = tracked(src);
  return st == nullptr ? 0 : st->contiguous;
}

SeqNum Rmp::highest_seen(ProcessorId src) const {
  const SourceState* st = tracked(src);
  return st == nullptr ? 0 : st->highest_seen;
}

bool Rmp::complete(ProcessorId src) const {
  const SourceState* st = tracked(src);
  return st == nullptr || st->contiguous == st->highest_seen;
}

void Rmp::store(ProcessorId src, SeqNum seq, SharedBytes raw) {
  store_in(streams_[src].store, seq, std::move(raw));
}

void Rmp::store_in(SeqWindow<Stored>& store, SeqNum seq, SharedBytes raw) {
  // The slice is kept exactly as transmitted/received ("The retransmitted
  // message is identical to the original", §5). The retransmission flag —
  // "true for all subsequent retransmissions", §3.2 — is patched into a
  // pooled copy by with_retransmission_flag only when a retransmission is
  // actually sent, so storing a received message pins the arrival buffer
  // instead of copying it. A seq already stored keeps its first copy.
  const std::size_t size = raw.size();
  if (!store.insert(seq, Stored{std::move(raw)})) return;
  stored_bytes_ += size;
  ++stored_count_;
  metrics_.store_bytes.add(static_cast<std::int64_t>(size));
}

RmpAccept Rmp::on_reliable(TimePoint now, Frame frame, std::vector<Frame>& out) {
  RmpAccept disposed{};
  const ProcessorId src = frame.header.source;
  const SeqNum seq = frame.header.sequence_number;
  Stream* stream = streams_.find(src);
  if (stream == nullptr || stream->state == nullptr) {
    stats_.dropped_unknown_source += 1;
    metrics_.dropped_unknown.add();
    return RmpAccept::kUnknownSource;
  }
  SourceState& st = *stream->state;

  if (frame.header.message_timestamp <= st.min_timestamp) {
    // A straggler from a previous incarnation of this source id (e.g. a
    // retransmission served by a member that has not yet processed the
    // re-add): poisonous if accepted into the fresh stream.
    stats_.dropped_stale_incarnation += 1;
    metrics_.dropped_stale.add();
    return RmpAccept::kStaleIncarnation;
  }
  if (seq <= st.contiguous || st.out_of_order.find(seq) != nullptr) {
    stats_.duplicates_ignored += 1;
    metrics_.duplicates.add();
    return RmpAccept::kDuplicate;
  }

  store_in(stream->store, seq, frame.raw);
  st.highest_seen = std::max(st.highest_seen, seq);

  const std::size_t first = out.size();
  if (seq == st.contiguous + 1) {
    disposed = RmpAccept::kDelivered;
    st.contiguous = seq;
    stats_.delivered_in_order += 1;
    out.push_back(std::move(frame));
    if (!st.out_of_order.empty()) {
      // Drain any buffered messages that are now contiguous.
      while (Frame* next = st.out_of_order.find(st.contiguous + 1)) {
        st.contiguous += 1;
        stats_.delivered_in_order += 1;
        out.push_back(std::move(*next));
        metrics_.out_of_order.add(-1);
      }
      st.out_of_order.trim(st.contiguous, [](const Frame&) {});
    }
  } else {
    if (config_.max_out_of_order_buffer == 0 ||
        st.out_of_order.size() < config_.max_out_of_order_buffer) {
      disposed = RmpAccept::kBuffered;
      st.out_of_order.insert(seq, std::move(frame));
      metrics_.out_of_order.add(1);
    } else {
      // At the cap the message is not buffered, but its stored copy (and
      // everyone else's) still answers the NACK recovery that will refetch
      // it once the gap closes — dropped here means delayed, not lost.
      disposed = RmpAccept::kOooDropped;
      stats_.ooo_dropped += 1;
      metrics_.ooo_dropped.add();
    }
    queue_nacks(now, st, src);
  }
  metrics_.delivered.add(out.size() - first);
  update_gap_state(now, st);
  return disposed;
}

void Rmp::on_heartbeat(TimePoint now, const Header& header) {
  SourceState* tracked_state = tracked(header.source);
  if (tracked_state == nullptr) return;
  SourceState& st = *tracked_state;
  // "The purpose of a Heartbeat message is to provide the other members ...
  // with the sender's current sequence number" (§5): it reveals gaps even
  // when the tail messages themselves were lost.
  if (header.sequence_number > st.highest_seen) {
    st.highest_seen = header.sequence_number;
  }
  update_gap_state(now, st);
  if (st.highest_seen > st.contiguous) queue_nacks(now, st, header.source);
}

void Rmp::on_retransmit_request(TimePoint now, const RetransmitRequestBody& body) {
  const ProcessorId src = body.processor;
  if (!config_.any_holder_retransmit && src != self_) return;
  Stream* stream = streams_.find(src);
  if (stream == nullptr) return;
  std::size_t sent = 0;
  // Walk only the stored seqs of the range, so a huge or hostile range
  // costs what the store holds, and stop at stop_seq without wrapping.
  std::optional<SeqNum> next = stream->store.next_at_or_after(body.start_seq);
  while (next && *next <= body.stop_seq && sent < kMaxRetransmitBurst) {
    const SeqNum seq = *next;
    next = seq == body.stop_seq ? std::nullopt : stream->store.next_at_or_after(seq + 1);
    Stored* m = stream->store.find(seq);
    if (m->retransmitted && now - m->last_retransmit < config_.retransmit_interval) {
      continue;  // someone (maybe us) answered this very recently
    }
    m->retransmitted = true;
    m->last_retransmit = now;
    // Patch the retransmission flag into a pooled copy here, on the cold
    // path, so the store itself keeps arrival slices byte-identical.
    output_.emplace_back(RetransmitOut{with_retransmission_flag(m->raw)});
    stats_.retransmissions_sent += 1;
    metrics_.retransmits_served.add();
    ++sent;
  }
}

void Rmp::queue_nacks(TimePoint now, SourceState& st, ProcessorId src) {
  if (now - st.last_nack < config_.nack_interval) return;
  st.last_nack = now;
  // Walk the gap structure: missing runs between contiguous+1 and
  // highest_seen, skipping seqs buffered out of order.
  SeqNum cursor = st.contiguous + 1;
  // Where the search for the next buffered seq starts. Like an iterator it
  // never moves back, even when cursor wraps past 2^64 - 1.
  std::optional<SeqNum> scan = cursor;
  std::size_t runs = 0;
  while (cursor <= st.highest_seen && runs < kMaxNackRunsPerTick) {
    std::optional<SeqNum> buffered;
    if (scan) {
      scan = std::max(*scan, cursor);
      buffered = st.out_of_order.next_at_or_after(*scan);
    }
    SeqNum run_end;
    if (buffered && *buffered <= st.highest_seen) {
      if (*buffered == cursor) {  // not missing; skip the buffered seq
        scan = *buffered == ~SeqNum{0} ? std::nullopt : std::optional(*buffered + 1);
        ++cursor;
        continue;
      }
      run_end = *buffered - 1;
    } else {
      run_end = st.highest_seen;
    }
    output_.emplace_back(NackOut{src, cursor, run_end});
    stats_.nacks_sent += 1;
    metrics_.nacks_sent.add();
    ++runs;
    cursor = run_end + 1;
  }
}

void Rmp::detect_gaps(TimePoint now, SourceState& st, ProcessorId src) {
  if (st.highest_seen > st.contiguous) queue_nacks(now, st, src);
}

void Rmp::on_tick(TimePoint now) {
  for (auto& [src, st] : sources_) detect_gaps(now, st, src);
}

void Rmp::note_exists(TimePoint now, ProcessorId src, SeqNum seq) {
  SourceState* tracked_state = tracked(src);
  if (tracked_state == nullptr) return;
  SourceState& st = *tracked_state;
  if (seq > st.highest_seen) st.highest_seen = seq;
  update_gap_state(now, st);
  if (st.highest_seen > st.contiguous) queue_nacks(now, st, src);
}

std::optional<BytesView> Rmp::stored(ProcessorId src, SeqNum seq) const {
  const Stream* s = streams_.find(src);
  const Stored* m = s == nullptr ? nullptr : s->store.find(seq);
  if (m == nullptr) return std::nullopt;
  return m->raw.view();
}

void Rmp::pin_store(std::uint32_t token,
                    const std::vector<std::pair<ProcessorId, SeqNum>>& floors) {
  auto& pin = pins_[token];
  for (const auto& [src, floor] : floors) {
    auto it = pin.find(src.raw());
    if (it == pin.end() || floor < it->second) pin[src.raw()] = floor;
  }
}

void Rmp::unpin_store(std::uint32_t token) { pins_.erase(token); }

void Rmp::release(ProcessorId src, SeqNum up_to) {
  // Stability release stops at any active pin floor for this source.
  for (const auto& [token, pin] : pins_) {
    auto it = pin.find(src.raw());
    if (it != pin.end() && it->second < up_to) up_to = it->second;
  }
  if (Stream* s = streams_.find(src)) drop_stored(s->store, up_to);
}

std::vector<RmpOut> Rmp::take_output() {
  std::vector<RmpOut> out;
  out.swap(output_);
  return out;
}

std::size_t Rmp::out_of_order_count() const {
  std::size_t n = 0;
  for (const auto& [src, st] : sources_) n += st.out_of_order.size();
  return n;
}

}  // namespace ftcorba::ftmp
