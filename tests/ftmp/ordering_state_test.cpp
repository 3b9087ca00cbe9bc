// Differential tests for the flat per-source ordering state: seeded random
// operation streams drive Stability with the Lamport rule, Rmp's
// retransmission store and Rmp's
// receive path (out-of-order buffer, NACK runs) next to small reference
// models written with the node-based containers (std::map / std::set) that
// define the semantics, and every output and query must match after every
// step.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "ftmp/rmp.hpp"
#include "ftmp/romp.hpp"
#include "routing.hpp"

namespace ftcorba::ftmp {
namespace {

// ---- ROMP reference model ---------------------------------------------------

struct RefRomp {
  std::set<ProcessorId> members;
  std::map<ProcessorId, Timestamp> bounds;
  std::map<ProcessorId, Timestamp> last_acks;
  std::map<std::pair<Timestamp, std::uint32_t>, Header> pending;
  std::map<ProcessorId, std::map<Timestamp, SeqNum>> unstable;
  std::map<ProcessorId, SeqNum> consumed;
  std::map<ProcessorId, std::set<SeqNum>> ahead;
  Timestamp last_stable = 0;

  static Timestamp get(const std::map<ProcessorId, Timestamp>& m, ProcessorId p) {
    auto it = m.find(p);
    return it == m.end() ? 0 : it->second;
  }

  void add_member(ProcessorId p, Timestamp b) {
    members.insert(p);
    bounds[p] = std::max(bounds[p], b);
  }
  void remove_member(ProcessorId p) {
    members.erase(p);
    bounds.erase(p);
    last_acks.erase(p);
    unstable.erase(p);
    std::erase_if(pending, [&](const auto& kv) { return kv.second.source == p; });
  }
  void reset_source(ProcessorId p, SeqNum floor) {
    consumed[p] = floor;
    ahead.erase(p);
    unstable.erase(p);
  }
  void mark_consumed(ProcessorId p, SeqNum seq) {
    SeqNum& up = consumed[p];
    if (seq != up + 1) {
      if (seq > up) ahead[p].insert(seq);
      return;
    }
    up = seq;
    auto& a = ahead[p];
    while (!a.empty() && *a.begin() == up + 1) {
      up = *a.begin();
      a.erase(a.begin());
    }
  }
  void observe(const Header& h) {
    Timestamp& ack = last_acks[h.source];
    ack = std::max(ack, h.ack_timestamp);
  }
  void on_source_ordered(const Header& h) {
    observe(h);
    bounds[h.source] = std::max(bounds[h.source], h.message_timestamp);
    unstable[h.source][h.message_timestamp] = h.sequence_number;
    if (is_totally_ordered(h.type)) {
      pending.emplace(std::make_pair(h.message_timestamp, h.source.raw()), h);
    } else {
      mark_consumed(h.source, h.sequence_number);
    }
  }
  void on_heartbeat(const Header& h, SeqNum contiguous) {
    observe(h);
    if (h.sequence_number == contiguous) {
      bounds[h.source] = std::max(bounds[h.source], h.message_timestamp);
    }
  }
  Timestamp min_bound() const {
    if (members.empty()) return 0;
    Timestamp acc = ~Timestamp{0};
    for (ProcessorId q : members) acc = std::min(acc, get(bounds, q));
    return acc;
  }
  Timestamp stable() const {
    if (members.empty()) return 0;
    Timestamp acc = ~Timestamp{0};
    for (ProcessorId q : members) acc = std::min(acc, get(last_acks, q));
    return acc;
  }
  std::vector<Header> collect_deliverable() {
    std::vector<Header> out;
    if (pending.empty() || members.empty()) return out;
    const Timestamp mb = min_bound();
    while (!pending.empty() && pending.begin()->first.first <= mb) {
      const Header h = pending.begin()->second;
      pending.erase(pending.begin());
      mark_consumed(h.source, h.sequence_number);
      out.push_back(h);
      if (h.type != MessageType::kRegular) break;
    }
    return out;
  }
  std::vector<std::pair<ProcessorId, SeqNum>> collect_stable() {
    std::vector<std::pair<ProcessorId, SeqNum>> out;
    const Timestamp s = stable();
    if (s <= last_stable) return out;
    last_stable = s;
    for (auto& [src, by_ts] : unstable) {
      auto it = by_ts.upper_bound(s);
      if (it == by_ts.begin()) continue;
      --it;
      out.emplace_back(src, it->second);
      by_ts.erase(by_ts.begin(), std::next(it));
    }
    return out;
  }
  std::vector<Header> drain(const std::map<ProcessorId, SeqNum>& cuts,
                            const std::set<ProcessorId>& survivors) {
    std::vector<Header> out;
    for (auto it = pending.begin(); it != pending.end();) {
      const Header h = it->second;
      auto c = cuts.find(h.source);
      const SeqNum limit = c == cuts.end() ? 0 : c->second;
      if (h.sequence_number <= limit) {
        mark_consumed(h.source, h.sequence_number);
        out.push_back(h);
        it = pending.erase(it);
      } else if (!survivors.contains(h.source)) {
        it = pending.erase(it);
      } else {
        ++it;
      }
    }
    return out;
  }
};

using HeaderKey = std::tuple<std::uint32_t, SeqNum, Timestamp, MessageType>;

std::vector<HeaderKey> keys(const std::vector<Header>& hs) {
  std::vector<HeaderKey> out;
  for (const Header& h : hs) {
    out.emplace_back(h.source.raw(), h.sequence_number, h.message_timestamp, h.type);
  }
  return out;
}

std::vector<Header> headers(const std::vector<Frame>& fs) {
  std::vector<Header> out;
  for (const Frame& f : fs) out.push_back(f.header);
  return out;
}

void run_romp_differential(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto pick = [&](std::uint64_t n) { return rng() % n; };
  constexpr std::uint32_t kSources = 5;
  Config config;
  Stability stability(config);
  LamportRule rule(stability);
  RefRomp ref;
  stability.set_members({ProcessorId{1}, ProcessorId{2}, ProcessorId{3}, ProcessorId{4}});
  for (std::uint32_t p = 1; p <= 4; ++p) ref.members.insert(ProcessorId{p});

  std::vector<SeqNum> next_seq(kSources + 1, 1);
  std::vector<Timestamp> last_ts(kSources + 1, 0);
  Timestamp top = 0;

  for (int step = 0; step < 4000; ++step) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " step " + std::to_string(step));
    const ProcessorId src{static_cast<std::uint32_t>(1 + pick(kSources))};
    const std::uint64_t op = pick(100);
    if (op < 45) {
      Header h;
      h.source = src;
      h.sequence_number = next_seq[src.raw()]++;
      const std::uint64_t shape = pick(100);
      if (shape < 3 && last_ts[src.raw()] > 0) {
        h.message_timestamp = last_ts[src.raw()];  // duplicate timestamp
      } else if (shape < 5 && last_ts[src.raw()] > 3) {
        h.message_timestamp = last_ts[src.raw()] - 1 - pick(3);  // goes backwards
      } else {
        h.message_timestamp = std::max(last_ts[src.raw()], top / 2) + 1 + pick(5);
      }
      last_ts[src.raw()] = std::max(last_ts[src.raw()], h.message_timestamp);
      top = std::max(top, h.message_timestamp);
      h.ack_timestamp = pick(top + 1);
      const std::uint64_t t = pick(100);
      h.type = t < 85   ? MessageType::kRegular
               : t < 93 ? MessageType::kSuspect
               : t < 97 ? MessageType::kConnect
                        : MessageType::kAddProcessor;
      route(stability, rule, Frame{h, SharedBytes{}});
      ref.on_source_ordered(h);
    } else if (op < 65) {
      Header h;
      h.type = MessageType::kHeartbeat;
      h.source = src;
      const SeqNum contiguous = next_seq[src.raw()] - 1;
      h.sequence_number = pick(4) == 0 ? contiguous + 1 : contiguous;
      h.message_timestamp = last_ts[src.raw()] + pick(8);
      last_ts[src.raw()] = std::max(last_ts[src.raw()], h.message_timestamp);
      top = std::max(top, h.message_timestamp);
      h.ack_timestamp = pick(top + 1);
      stability.on_heartbeat(h, contiguous);
      ref.on_heartbeat(h, contiguous);
    } else if (op < 82) {
      ASSERT_EQ(keys(headers(deliverable(rule))), keys(ref.collect_deliverable()));
    } else if (op < 92) {
      auto got = stable(stability);
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, ref.collect_stable());
    } else if (op < 95) {
      stability.remove_member(src);
      rule.reset_source(src, std::nullopt);
      ref.remove_member(src);
    } else if (op < 98) {
      const Timestamp b = pick(top + 1);
      stability.add_member(src, b);
      ref.add_member(src, b);
    } else if (op < 99) {
      const SeqNum floor = pick(next_seq[src.raw()]);
      stability.reset_source(src, floor);
      rule.reset_source(src, floor);
      ref.reset_source(src, floor);
    } else {
      std::map<ProcessorId, SeqNum> cuts;
      std::set<ProcessorId> survivors;
      for (std::uint32_t p = 1; p <= kSources; ++p) {
        if (pick(3) != 0) cuts[ProcessorId{p}] = pick(next_seq[p] + 1);
        if (pick(4) != 0) survivors.insert(ProcessorId{p});
      }
      ASSERT_EQ(keys(headers(rule.drain_up_to_cut(cuts, survivors))),
                keys(ref.drain(cuts, survivors)));
    }

    ASSERT_EQ(rule.pending_count(), ref.pending.size());
    ASSERT_EQ(stability.min_bound(), ref.min_bound());
    ASSERT_EQ(stability.stable_timestamp(), ref.stable());
    ASSERT_EQ(stability.ack_timestamp(), std::min(stability.latest(), ref.members.empty()
                                                               ? ~Timestamp{0}
                                                               : ref.min_bound()));
    ASSERT_EQ(stability.members(),
              std::vector<ProcessorId>(ref.members.begin(), ref.members.end()));
    for (std::uint32_t p = 1; p <= kSources; ++p) {
      const ProcessorId q{p};
      ASSERT_EQ(stability.is_member(q), ref.members.contains(q));
      ASSERT_EQ(stability.bound(q), RefRomp::get(ref.bounds, q));
      ASSERT_EQ(stability.last_ack(q), RefRomp::get(ref.last_acks, q));
      ASSERT_EQ(stability.consumed_up_to(q), RefRomp::get(ref.consumed, q));
    }
  }
}

TEST(OrderingStateDifferential, RompMatchesMapReference) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) run_romp_differential(seed);
}

// ---- RMP store reference model ----------------------------------------------

struct RefStore {
  std::map<std::pair<std::uint32_t, SeqNum>, Bytes> store;
  std::map<std::pair<std::uint32_t, SeqNum>, TimePoint> last_retransmit;
  std::map<std::uint32_t, std::map<std::uint32_t, SeqNum>> pins;
  std::size_t bytes = 0;

  void put(ProcessorId src, SeqNum seq, const Bytes& raw) {
    if (store.emplace(std::make_pair(src.raw(), seq), raw).second) bytes += raw.size();
  }
  void erase_range(ProcessorId src, SeqNum up_to) {
    for (auto it = store.lower_bound({src.raw(), 0});
         it != store.end() && it->first.first == src.raw() && it->first.second <= up_to;) {
      bytes -= it->second.size();
      last_retransmit.erase(it->first);
      it = store.erase(it);
    }
  }
  void release(ProcessorId src, SeqNum up_to) {
    for (const auto& [token, pin] : pins) {
      auto it = pin.find(src.raw());
      if (it != pin.end() && it->second < up_to) up_to = it->second;
    }
    erase_range(src, up_to);
  }
  void pin(std::uint32_t token, ProcessorId src, SeqNum floor) {
    auto& p = pins[token];
    auto it = p.find(src.raw());
    if (it == p.end() || floor < it->second) p[src.raw()] = floor;
  }
  std::vector<Bytes> retransmit(TimePoint now, const Config& config, ProcessorId src,
                                SeqNum start, SeqNum stop) {
    std::vector<Bytes> out;
    for (SeqNum seq = start; seq <= stop && out.size() < 64; ++seq) {
      const auto key = std::make_pair(src.raw(), seq);
      auto it = store.find(key);
      if (it == store.end()) continue;
      auto last = last_retransmit.find(key);
      if (last != last_retransmit.end() && now - last->second < config.retransmit_interval) {
        continue;
      }
      last_retransmit[key] = now;
      out.push_back(with_retransmission_flag(it->second).to_bytes());
    }
    return out;
  }
};

Bytes stored_bytes_of(ProcessorId src, SeqNum seq, std::size_t pad) {
  Message m;
  m.header.type = MessageType::kRegular;
  m.header.source = src;
  m.header.sequence_number = seq;
  m.header.message_timestamp = 1;
  m.body = RegularBody{{}, seq, Bytes(pad, std::uint8_t(seq))};
  return encode_message(m);
}

void run_store_differential(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto pick = [&](std::uint64_t n) { return rng() % n; };
  constexpr std::uint32_t kSources = 3;
  Config config;
  Rmp rmp(ProcessorId{1}, config);
  RefStore ref;
  std::vector<SeqNum> cursor(kSources + 1, 1);
  TimePoint now = 0;

  for (int step = 0; step < 6000; ++step) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " step " + std::to_string(step));
    now += 1 + static_cast<TimePoint>(pick(3 * kMillisecond));
    const ProcessorId src{static_cast<std::uint32_t>(1 + pick(kSources))};
    SeqNum& cur = cursor[src.raw()];
    const std::uint64_t op = pick(100);
    if (op < 55) {
      SeqNum seq;
      const std::uint64_t shape = pick(100);
      if (shape < 80) {
        seq = cur++;  // the FIFO case
      } else if (shape < 90) {
        seq = cur + pick(600);  // ahead, within or beyond the gap bound
      } else if (shape < 96) {
        seq = cur > 700 ? cur - 700 + pick(700) : 1 + pick(cur);  // behind
      } else if (shape < 98) {
        seq = rng();  // anywhere in 64 bits
      } else {
        seq = ~SeqNum{0} - pick(4);  // the very top
      }
      const Bytes raw = stored_bytes_of(src, seq, pick(40));
      rmp.store(src, seq, Bytes(raw));
      ref.put(src, seq, raw);
    } else if (op < 75) {
      const SeqNum up_to = pick(5) == 0 ? rng() : (cur > 50 ? cur - pick(50) : pick(cur + 1));
      rmp.release(src, up_to);
      ref.release(src, up_to);
    } else if (op < 78) {
      const std::uint32_t token = static_cast<std::uint32_t>(1 + pick(3));
      const SeqNum floor = pick(cur + 1);
      rmp.pin_store(token, {{src, floor}});
      ref.pin(token, src, floor);
    } else if (op < 81) {
      const std::uint32_t token = static_cast<std::uint32_t>(1 + pick(3));
      rmp.unpin_store(token);
      ref.pins.erase(token);
    } else if (op < 82) {
      rmp.purge_store(src);
      ref.erase_range(src, ~SeqNum{0});
    } else if (op < 92) {
      const SeqNum start = cur > 100 ? cur - pick(100) : 1 + pick(cur);
      const SeqNum stop = start + pick(120);
      rmp.on_retransmit_request(now, RetransmitRequestBody{src, start, stop});
      std::vector<Bytes> got;
      for (RmpOut& out : rmp.take_output()) {
        got.push_back(std::get<RetransmitOut>(out).raw.to_bytes());
      }
      ASSERT_EQ(got, ref.retransmit(now, config, src, start, stop));
    } else {
      for (int probe = 0; probe < 8; ++probe) {
        const SeqNum seq = cur > 40 ? cur - 40 + pick(80) : pick(cur + 40);
        const auto got = rmp.stored(src, seq);
        auto want = ref.store.find({src.raw(), seq});
        ASSERT_EQ(got.has_value(), want != ref.store.end()) << "seq " << seq;
        if (got) {
          ASSERT_EQ(Bytes(got->begin(), got->end()), want->second);
        }
      }
    }
    ASSERT_EQ(rmp.stored_count(), ref.store.size());
    ASSERT_EQ(rmp.stored_bytes(), ref.bytes);
  }
}

TEST(OrderingStateDifferential, RmpStoreMatchesMapReference) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) run_store_differential(seed);
}

// ---- RMP receive path reference model --------------------------------------

// Source-ordered delivery and NACK generation with a std::map out-of-order
// buffer (default config: fixed NACK spacing, no buffer cap).
struct RefStream {
  SeqNum contiguous = 0;
  SeqNum highest = 0;
  std::map<SeqNum, bool> ooo;
  TimePoint last_nack = -1'000'000'000;
};

struct RefReceiver {
  Config config;
  std::map<ProcessorId, RefStream> streams;
  std::map<ProcessorId, std::vector<std::pair<SeqNum, SeqNum>>> nacks;

  void queue_nacks(TimePoint now, RefStream& st, ProcessorId src) {
    if (now - st.last_nack < config.nack_interval) return;
    st.last_nack = now;
    SeqNum cursor = st.contiguous + 1;
    std::size_t runs = 0;
    auto buffered = st.ooo.begin();
    while (cursor <= st.highest && runs < 16) {
      while (buffered != st.ooo.end() && buffered->first < cursor) ++buffered;
      SeqNum run_end;
      if (buffered != st.ooo.end() && buffered->first <= st.highest) {
        if (buffered->first == cursor) {
          while (buffered != st.ooo.end() && buffered->first == cursor) {
            ++cursor;
            ++buffered;
          }
          continue;
        }
        run_end = buffered->first - 1;
      } else {
        run_end = st.highest;
      }
      nacks[src].emplace_back(cursor, run_end);
      ++runs;
      cursor = run_end + 1;
    }
  }
  std::vector<SeqNum> on_reliable(TimePoint now, ProcessorId src, SeqNum seq) {
    RefStream& st = streams[src];
    if (seq <= st.contiguous || st.ooo.contains(seq)) return {};
    st.highest = std::max(st.highest, seq);
    std::vector<SeqNum> out;
    if (seq == st.contiguous + 1) {
      st.contiguous = seq;
      out.push_back(seq);
      for (auto next = st.ooo.find(st.contiguous + 1); next != st.ooo.end();
           next = st.ooo.find(st.contiguous + 1)) {
        st.contiguous = next->first;
        out.push_back(next->first);
        st.ooo.erase(next);
      }
    } else {
      st.ooo.emplace(seq, true);
      queue_nacks(now, st, src);
    }
    return out;
  }
  void on_heartbeat(TimePoint now, ProcessorId src, SeqNum seq) {
    RefStream& st = streams[src];
    st.highest = std::max(st.highest, seq);
    if (st.highest > st.contiguous) queue_nacks(now, st, src);
  }
  void on_tick(TimePoint now) {
    for (auto& [src, st] : streams) {
      if (st.highest > st.contiguous) queue_nacks(now, st, src);
    }
  }
};

void run_receive_differential(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto pick = [&](std::uint64_t n) { return rng() % n; };
  constexpr std::uint32_t kSources = 3;
  Config config;
  Rmp rmp(ProcessorId{9}, config);
  RefReceiver ref;
  for (std::uint32_t p = 1; p <= kSources; ++p) {
    rmp.add_source(ProcessorId{p}, 0);
    ref.streams[ProcessorId{p}];
  }
  std::vector<SeqNum> next(kSources + 1, 1);
  TimePoint now = 0;
  auto drain_nacks = [&] {
    std::map<ProcessorId, std::vector<std::pair<SeqNum, SeqNum>>> got;
    for (RmpOut& out : rmp.take_output()) {
      const NackOut& n = std::get<NackOut>(out);
      got[n.missing_from].emplace_back(n.start, n.stop);
    }
    std::map<ProcessorId, std::vector<std::pair<SeqNum, SeqNum>>> want;
    want.swap(ref.nacks);
    return std::make_pair(got, want);
  };

  for (int step = 0; step < 5000; ++step) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " step " + std::to_string(step));
    now += static_cast<TimePoint>(pick(2 * kMillisecond));
    const ProcessorId src{static_cast<std::uint32_t>(1 + pick(kSources))};
    const SeqNum c = rmp.contiguous(src);
    const std::uint64_t op = pick(100);
    if (op < 80) {
      SeqNum seq;
      const std::uint64_t shape = pick(100);
      if (shape < 55) {
        seq = c + 1;  // fills the gap
      } else if (shape < 85) {
        seq = c + 1 + pick(40);  // reordered within a small window
      } else if (shape < 93) {
        seq = c + 1 + pick(700);  // beyond the window's gap bound
      } else if (shape < 97) {
        seq = c > 0 ? 1 + pick(c) : 1;  // duplicate
      } else if (shape < 99) {
        seq = rng();  // anywhere in 64 bits
      } else {
        seq = ~SeqNum{0} - pick(2);  // the very top
      }
      Header h;
      h.type = MessageType::kRegular;
      h.source = src;
      h.sequence_number = seq;
      h.message_timestamp = 1;
      std::vector<SeqNum> got;
      for (const Frame& f : reliable(rmp, now, Frame{h, SharedBytes(Bytes{1, 2, 3})})) {
        got.push_back(f.header.sequence_number);
      }
      ASSERT_EQ(got, ref.on_reliable(now, src, seq));
    } else if (op < 90) {
      Header h;
      h.type = MessageType::kHeartbeat;
      h.source = src;
      h.sequence_number = c + pick(60);
      rmp.on_heartbeat(now, h);
      ref.on_heartbeat(now, src, h.sequence_number);
    } else {
      rmp.on_tick(now);
      ref.on_tick(now);
    }
    const auto [got, want] = drain_nacks();
    ASSERT_EQ(got, want);
    std::size_t buffered = 0;
    for (std::uint32_t p = 1; p <= kSources; ++p) {
      const ProcessorId q{p};
      const RefStream& st = ref.streams[q];
      buffered += st.ooo.size();
      ASSERT_EQ(rmp.contiguous(q), st.contiguous);
      ASSERT_EQ(rmp.highest_seen(q), st.highest);
    }
    ASSERT_EQ(rmp.out_of_order_count(), buffered);
  }
}

TEST(OrderingStateDifferential, RmpReceivePathMatchesMapReference) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) run_receive_differential(seed);
}

TEST(OrderingStateDifferential, NackWalkOverTheTopSequenceMatchesReference) {
  // A buffered seq of 2^64 - 1 makes the NACK walk's cursor wrap; the walk
  // must still emit exactly what the map-based walk emits.
  constexpr SeqNum kTop = ~SeqNum{0};
  Config config;
  Rmp rmp(ProcessorId{9}, config);
  RefReceiver ref;
  const ProcessorId src{1};
  rmp.add_source(src, 0);
  ref.streams[src];
  TimePoint now = 0;
  for (SeqNum seq : {SeqNum{3}, kTop - 1, kTop, SeqNum{1}}) {
    now += 10 * kMillisecond;
    Header h;
    h.type = MessageType::kRegular;
    h.source = src;
    h.sequence_number = seq;
    h.message_timestamp = 1;
    (void)reliable(rmp, now, Frame{h, SharedBytes(Bytes{1})});
    (void)ref.on_reliable(now, src, seq);
    now += 10 * kMillisecond;
    rmp.on_tick(now);
    ref.on_tick(now);
  }
  std::vector<std::pair<SeqNum, SeqNum>> got;
  for (RmpOut& out : rmp.take_output()) {
    got.emplace_back(std::get<NackOut>(out).start, std::get<NackOut>(out).stop);
  }
  EXPECT_FALSE(got.empty());
  EXPECT_EQ(got, ref.nacks[src]);
}

}  // namespace
}  // namespace ftcorba::ftmp
