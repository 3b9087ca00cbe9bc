// LLFT delivery-rule tests (llft.hpp, docs/ORDERING.md): leader grant
// stamping, follower gap recovery through RMP NACKs, leader-failover
// reconciliation through the PGMP install path (prefix agreement across
// survivors, new-leader accession, post-failover progress), and the fault
// cut of one LlftRule over a bare Stability.
#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "ftmp/llft.hpp"
#include "ftmp/sim_harness.hpp"
#include "routing.hpp"

namespace ftcorba::ftmp {
namespace {

constexpr FtDomainId kDomain{1};
constexpr McastAddress kDomainAddr{100};
constexpr ProcessorGroupId kGroup{1};
constexpr McastAddress kGroupAddr{200};

ConnectionId test_conn() {
  return ConnectionId{kDomain, ObjectGroupId{1}, kDomain, ObjectGroupId{2}};
}

std::vector<ProcessorId> ids(std::initializer_list<std::uint32_t> raw) {
  std::vector<ProcessorId> out;
  for (auto r : raw) out.push_back(ProcessorId{r});
  return out;
}

Config llft_config() {
  Config cfg;
  cfg.ordering_mode = OrderingMode::kLlft;
  return cfg;
}

// Throws std::bad_cast unless the session runs the LLFT rule.
const LlftRule& engine(SimHarness& h, ProcessorId p) {
  auto* g = h.stack(p).group(kGroup);
  EXPECT_NE(g, nullptr) << "no session for " << to_string(p);
  return dynamic_cast<const LlftRule&>(g->delivery());
}

void expect_same_order(SimHarness& h, const std::vector<ProcessorId>& members,
                       std::size_t expected, const char* what) {
  const auto reference = h.delivered(members.front(), kGroup);
  ASSERT_EQ(reference.size(), expected) << what;
  for (ProcessorId p : members) {
    const auto msgs = h.delivered(p, kGroup);
    ASSERT_EQ(msgs.size(), reference.size())
        << what << " at " << to_string(p);
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      EXPECT_EQ(msgs[i].source, reference[i].source) << what << " pos " << i;
      EXPECT_EQ(msgs[i].seq, reference[i].seq) << what << " pos " << i;
      EXPECT_EQ(msgs[i].giop_message, reference[i].giop_message)
          << what << " pos " << i;
    }
  }
}

// The smallest-id member grants the slots; everyone (the leader included,
// via multicast loopback) delivers in one identical order, and headers
// still carry live Lamport timestamps for the untouched stability plane.
TEST(Llft, LeaderStampsAndAllMembersDeliverInGrantOrder) {
  SimHarness h({}, 71);
  const auto all = ids({1, 2, 3});
  for (ProcessorId p : all) h.add_processor(p, kDomain, kDomainAddr, llft_config());
  for (ProcessorId p : all) h.stack(p).create_group(h.now(), kGroup, kGroupAddr, all);
  h.run_for(50 * kMillisecond);

  for (ProcessorId p : all) {
    EXPECT_EQ(engine(h, p).leader(), ProcessorId{1}) << "at " << to_string(p);
  }
  EXPECT_TRUE(engine(h, ProcessorId{1}).leading());
  EXPECT_FALSE(engine(h, ProcessorId{2}).leading());

  std::uint64_t req = 0;
  for (int round = 0; round < 20; ++round) {
    for (ProcessorId p : all) {
      h.stack(p).group(kGroup)->send_regular(
          h.now(), test_conn(), ++req,
          bytes_of(to_string(p) + "-m" + std::to_string(round)));
    }
    h.run_for(5 * kMillisecond);
  }
  h.run_for(500 * kMillisecond);
  expect_same_order(h, all, std::size_t(req), "grant order");

  // Stability kept running: the sessions reclaimed buffers (non-zero acks).
  for (ProcessorId p : all) {
    EXPECT_GT(h.stack(p).group(kGroup)->stability().stable_timestamp(), 0u)
        << "at " << to_string(p);
  }
}

// A follower cut off mid-stream misses both Regulars and the OrderInfo
// grants covering them; after the heal, RMP NACK recovery refills the gaps
// and the follower converges on the leader's order with no skips.
TEST(Llft, FollowerRecoversGrantGapsThroughRetransmission) {
  SimHarness h({}, 72);
  const auto all = ids({1, 2, 3});
  for (ProcessorId p : all) h.add_processor(p, kDomain, kDomainAddr, llft_config());
  for (ProcessorId p : all) h.stack(p).create_group(h.now(), kGroup, kGroupAddr, all);
  h.run_for(50 * kMillisecond);

  std::uint64_t req = 0;
  // Isolate P3 briefly (below the fault timeout — no exclusion) while the
  // other members keep ordering traffic.
  h.network().set_partition({ids({3})});
  for (int round = 0; round < 5; ++round) {
    for (ProcessorId p : ids({1, 2})) {
      ++req;
      h.stack(p).group(kGroup)->send_regular(h.now(), test_conn(), req,
                                             bytes_of("gap-" + std::to_string(req)));
    }
    h.run_for(10 * kMillisecond);
  }
  h.network().heal();
  h.run_for(1 * kSecond);

  for (ProcessorId p : all) {
    EXPECT_EQ(h.stack(p).group(kGroup)->membership().members, all)
        << "spurious exclusion at " << to_string(p);
  }
  expect_same_order(h, all, std::size_t(req), "post-gap order");
}

// Leader failure: the survivors convict the leader, reconcile through the
// PGMP install (identical delivered prefix at the cut), the next smallest
// eligible member accedes, and ordering resumes under the new leader.
TEST(Llft, LeaderFailoverReconcilesAndResumesUnderNewLeader) {
  SimHarness h({}, 73);
  const auto all = ids({1, 2, 3, 4});
  for (ProcessorId p : all) h.add_processor(p, kDomain, kDomainAddr, llft_config());
  for (ProcessorId p : all) h.stack(p).create_group(h.now(), kGroup, kGroupAddr, all);
  h.run_for(50 * kMillisecond);
  ASSERT_EQ(engine(h, ProcessorId{2}).leader(), ProcessorId{1});

  // In-flight traffic from everyone, then the leader dies mid-stream.
  std::uint64_t req = 0;
  for (ProcessorId p : all) {
    h.stack(p).group(kGroup)->send_regular(h.now(), test_conn(), ++req,
                                           bytes_of(to_string(p) + "-preq"));
  }
  h.run_for(5 * kMillisecond);
  h.network().set_partition({ids({1})});

  const auto survivors = ids({2, 3, 4});
  ASSERT_TRUE(h.run_until_pred(
      [&] {
        for (ProcessorId p : survivors) {
          auto* g = h.stack(p).group(kGroup);
          if (!g || g->membership().members != survivors) return false;
        }
        return true;
      },
      h.now() + 10 * kSecond));

  // New leader everywhere: the smallest surviving (founding) member.
  for (ProcessorId p : survivors) {
    EXPECT_EQ(engine(h, p).leader(), ProcessorId{2}) << "at " << to_string(p);
  }
  EXPECT_TRUE(engine(h, ProcessorId{2}).leading());

  // The reconciled prefixes agree (virtual synchrony at the cut).
  const auto reference = h.delivered(ProcessorId{2}, kGroup);
  for (ProcessorId p : survivors) {
    const auto msgs = h.delivered(p, kGroup);
    ASSERT_EQ(msgs.size(), reference.size()) << "at " << to_string(p);
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      EXPECT_EQ(msgs[i].source, reference[i].source) << "pos " << i;
      EXPECT_EQ(msgs[i].seq, reference[i].seq) << "pos " << i;
    }
  }

  // Ordering must RESUME under the new leader — the regression this test
  // pins is a post-install grant stall.
  h.clear_events();
  std::uint64_t post = 0;
  for (ProcessorId p : survivors) {
    h.stack(p).group(kGroup)->send_regular(h.now(), test_conn(), 100 + ++post,
                                           bytes_of(to_string(p) + "-post"));
  }
  h.run_for(500 * kMillisecond);
  expect_same_order(h, survivors, std::size_t(post), "post-failover order");
}

// Back-to-back failovers walk the leadership down the id order and keep
// every survivor's ledger a common prefix.
TEST(Llft, SecondFailoverHandsLeadershipDownAgain) {
  SimHarness h({}, 74);
  const auto all = ids({1, 2, 3, 4, 5});
  for (ProcessorId p : all) h.add_processor(p, kDomain, kDomainAddr, llft_config());
  for (ProcessorId p : all) h.stack(p).create_group(h.now(), kGroup, kGroupAddr, all);
  h.run_for(50 * kMillisecond);

  h.network().set_partition({ids({1})});
  auto wait_members = [&](const std::vector<ProcessorId>& want) {
    return h.run_until_pred(
        [&] {
          for (ProcessorId p : want) {
            auto* g = h.stack(p).group(kGroup);
            if (!g || g->membership().members != want) return false;
          }
          return true;
        },
        h.now() + 10 * kSecond);
  };
  ASSERT_TRUE(wait_members(ids({2, 3, 4, 5})));
  EXPECT_TRUE(engine(h, ProcessorId{2}).leading());

  h.clear_events();
  std::uint64_t req = 0;
  for (ProcessorId p : ids({2, 3, 4, 5})) {
    h.stack(p).group(kGroup)->send_regular(h.now(), test_conn(), ++req,
                                           bytes_of(to_string(p) + "-era2"));
  }
  h.run_for(500 * kMillisecond);
  expect_same_order(h, ids({2, 3, 4, 5}), std::size_t(req), "era2");

  h.network().set_partition({ids({1, 2})});
  ASSERT_TRUE(wait_members(ids({3, 4, 5})));
  for (ProcessorId p : ids({3, 4, 5})) {
    EXPECT_EQ(engine(h, p).leader(), ProcessorId{3}) << "at " << to_string(p);
  }

  h.clear_events();
  req = 0;
  for (ProcessorId p : ids({3, 4, 5})) {
    h.stack(p).group(kGroup)->send_regular(h.now(), test_conn(), 200 + ++req,
                                           bytes_of(to_string(p) + "-era3"));
  }
  h.run_for(500 * kMillisecond);
  expect_same_order(h, ids({3, 4, 5}), std::size_t(req), "era3");
}

// A rejoining member defers leadership for one view (kJoinPending, then a
// joined-epoch equal to the admitting view): the standing leader keeps
// granting, the joiner applies its floor advisory instead of re-ordering
// pre-join backlog, and traffic keeps flowing end to end.
TEST(Llft, RejoiningSmallestIdDefersLeadershipAndCatchesUp) {
  SimHarness h({}, 75);
  const auto all = ids({1, 2, 3, 4});
  for (ProcessorId p : all) h.add_processor(p, kDomain, kDomainAddr, llft_config());
  for (ProcessorId p : all) h.stack(p).create_group(h.now(), kGroup, kGroupAddr, all);
  h.run_for(50 * kMillisecond);

  // Kill the leader; survivors reconcile and continue under P2.
  h.network().set_partition({ids({1})});
  const auto survivors = ids({2, 3, 4});
  ASSERT_TRUE(h.run_until_pred(
      [&] {
        for (ProcessorId p : survivors) {
          auto* g = h.stack(p).group(kGroup);
          if (!g || g->membership().members != survivors) return false;
        }
        return true;
      },
      h.now() + 10 * kSecond));

  std::uint64_t req = 0;
  for (ProcessorId p : survivors) {
    h.stack(p).group(kGroup)->send_regular(h.now(), test_conn(), ++req,
                                           bytes_of(to_string(p) + "-mid"));
  }
  h.run_for(300 * kMillisecond);

  // Heal and re-admit P1 (the smallest id). It must NOT reclaim leadership
  // in the view that admits it — only at the next view change.
  h.network().heal();
  ASSERT_TRUE(h.stack(ProcessorId{1}).drop_group(kGroup));
  h.stack(ProcessorId{1}).expect_join(kGroup, kGroupAddr);
  ASSERT_TRUE(h.stack(ProcessorId{2}).add_processor(h.now(), kGroup, ProcessorId{1}));
  ASSERT_TRUE(h.run_until_pred(
      [&] {
        auto* sponsor = h.stack(ProcessorId{2}).group(kGroup);
        auto* joiner = h.stack(ProcessorId{1}).group(kGroup);
        return sponsor && sponsor->is_member(ProcessorId{1}) && joiner &&
               joiner->is_member(ProcessorId{1});
      },
      h.now() + 5 * kSecond));
  h.run_for(200 * kMillisecond);
  for (ProcessorId p : all) {
    EXPECT_EQ(engine(h, p).leader(), ProcessorId{2})
        << "rejoined smallest id must defer leadership, at " << to_string(p);
  }

  // Traffic still orders across all four members under the standing leader.
  h.clear_events();
  std::uint64_t post = 0;
  for (ProcessorId p : all) {
    h.stack(p).group(kGroup)->send_regular(h.now(), test_conn(), 300 + ++post,
                                           bytes_of(to_string(p) + "-re"));
  }
  h.run_for(500 * kMillisecond);
  expect_same_order(h, all, std::size_t(post), "post-rejoin order");
}

// Two sponsors race to add the same joiner: both AddProcessor messages
// reach their ordering points, the second one is a membership no-op. The
// leader suspends granting at every membership-change slot it grants, so
// the duplicate must still resume it (regression: a duplicate used to
// return early without set_view, leaving the leader suspended forever and
// stalling totally-ordered delivery group-wide).
TEST(Llft, DuplicateAddFromRacingSponsorsDoesNotStallGranting) {
  SimHarness h({}, 76);
  const auto founders = ids({1, 2, 3, 4});
  for (ProcessorId p : founders) {
    h.add_processor(p, kDomain, kDomainAddr, llft_config());
  }
  for (ProcessorId p : founders) {
    h.stack(p).create_group(h.now(), kGroup, kGroupAddr, founders);
  }
  h.run_for(50 * kMillisecond);
  ASSERT_TRUE(engine(h, ProcessorId{1}).leading());

  const ProcessorId joiner{5};
  const auto all = ids({1, 2, 3, 4, 5});
  h.add_processor(joiner, kDomain, kDomainAddr, llft_config());
  h.stack(joiner).expect_join(kGroup, kGroupAddr);
  // Same instant, two different sponsors (each one's local in-flight
  // bookkeeping cannot see the other's Add).
  ASSERT_TRUE(h.stack(ProcessorId{2}).add_processor(h.now(), kGroup, joiner));
  ASSERT_TRUE(h.stack(ProcessorId{3}).add_processor(h.now(), kGroup, joiner));
  ASSERT_TRUE(h.run_until_pred(
      [&] {
        for (ProcessorId p : all) {
          auto* g = h.stack(p).group(kGroup);
          if (!g || g->membership().members != all) return false;
        }
        return true;
      },
      h.now() + 5 * kSecond));
  h.run_for(200 * kMillisecond);

  // The regression: after the duplicate Add resolved, the leader must
  // still grant — traffic from every member orders and delivers.
  h.clear_events();
  std::uint64_t req = 0;
  for (ProcessorId p : all) {
    h.stack(p).group(kGroup)->send_regular(h.now(), test_conn(), 400 + ++req,
                                           bytes_of(to_string(p) + "-dup"));
  }
  h.run_for(500 * kMillisecond);
  expect_same_order(h, all, std::size_t(req), "post-duplicate-add order");
}

// Concurrent removes of the same member: the second RemoveProcessor orders
// as a membership no-op and must resume the leader's granting, same
// regression as the duplicate Add above.
TEST(Llft, DuplicateRemoveDoesNotStallGranting) {
  SimHarness h({}, 77);
  const auto all = ids({1, 2, 3, 4});
  for (ProcessorId p : all) h.add_processor(p, kDomain, kDomainAddr, llft_config());
  for (ProcessorId p : all) h.stack(p).create_group(h.now(), kGroup, kGroupAddr, all);
  h.run_for(50 * kMillisecond);
  ASSERT_TRUE(engine(h, ProcessorId{1}).leading());

  // Same instant, two different members remove P4 (both see it as a member
  // when they issue the Remove).
  ASSERT_TRUE(h.stack(ProcessorId{2}).remove_processor(h.now(), kGroup,
                                                       ProcessorId{4}));
  ASSERT_TRUE(h.stack(ProcessorId{3}).remove_processor(h.now(), kGroup,
                                                       ProcessorId{4}));
  const auto survivors = ids({1, 2, 3});
  ASSERT_TRUE(h.run_until_pred(
      [&] {
        for (ProcessorId p : survivors) {
          auto* g = h.stack(p).group(kGroup);
          if (!g || g->membership().members != survivors) return false;
        }
        return true;
      },
      h.now() + 5 * kSecond));
  h.run_for(200 * kMillisecond);

  h.clear_events();
  std::uint64_t req = 0;
  for (ProcessorId p : survivors) {
    h.stack(p).group(kGroup)->send_regular(h.now(), test_conn(), 500 + ++req,
                                           bytes_of(to_string(p) + "-dup"));
  }
  h.run_for(500 * kMillisecond);
  expect_same_order(h, survivors, std::size_t(req), "post-duplicate-remove order");
}

// The future-view grant buffer is bounded: a peer tagging OrderInfo with
// ever-higher view timestamps saturates the cap instead of growing memory,
// eviction sheds the highest tags first, and a legitimately-low future tag
// is still admitted and drained by the install that reaches it.
TEST(Llft, FutureViewGrantBufferIsBounded) {
  constexpr std::size_t kCap = 256;  // kMaxFutureBodies in llft.cpp
  Stability stability{llft_config()};
  LlftRule eng(ProcessorId{2}, stability);
  stability.set_members(ids({1, 2}));

  auto order_info = [](SeqNum seq, Timestamp view_ts) {
    Message m;
    m.header.type = MessageType::kOrderInfo;
    m.header.source = ProcessorId{1};
    m.header.sequence_number = seq;
    m.header.message_timestamp = Timestamp{seq};
    OrderInfoBody b;
    b.view_ts = view_ts;
    b.grants.push_back({ProcessorId{1}, seq});
    m.body = std::move(b);
    return Frame{m.header, encode_message(m)};
  };

  SeqNum seq = 0;
  for (std::size_t i = 0; i < kCap + 50; ++i) {
    route(stability, eng, order_info(++seq, 1000 + Timestamp{i}));
  }
  EXPECT_EQ(eng.future_buffered(), kCap) << "cap must hold under flood";

  // A low future tag (the one a real racing leader would use) evicts a
  // high one instead of being refused.
  route(stability, eng, order_info(++seq, 5));
  EXPECT_EQ(eng.future_buffered(), kCap);
  eng.set_view(5);
  EXPECT_EQ(eng.future_buffered(), kCap - 1)
      << "install must drain exactly the admitted low-tagged body";
}

// ---- the fault cut over a bare Stability (no session, no network) ----

Frame regular_frame(std::uint32_t src, SeqNum seq, Timestamp ts) {
  Message m;
  m.header.source = ProcessorId{src};
  m.header.sequence_number = seq;
  m.header.message_timestamp = ts;
  m.header.type = MessageType::kRegular;
  m.body = RegularBody{};
  return Frame{m.header, encode_message(m)};
}

Frame grant_frame(SeqNum seq, Timestamp ts,
                  std::initializer_list<std::pair<std::uint32_t, SeqNum>> grants) {
  Message m;
  m.header.type = MessageType::kOrderInfo;
  m.header.source = ProcessorId{1};
  m.header.sequence_number = seq;
  m.header.message_timestamp = ts;
  OrderInfoBody b;  // view 0: the bootstrap view
  for (const auto& [src, s] : grants) b.grants.push_back({ProcessorId{src}, s});
  m.body = std::move(b);
  return Frame{m.header, encode_message(m)};
}

// Streams of a three-member group led by P1: P1 sends two Regulars, a
// grant body and a third Regular; P2 and P3 send three Regulars each. The
// grants cover four frames, in an order that is not timestamp order; the
// last one is P3's seq 2, beyond P3's cut below.
std::vector<std::vector<Frame>> cut_scenario_streams() {
  return {
      {regular_frame(1, 1, 1), regular_frame(1, 2, 4),
       grant_frame(3, 10, {{2, 1}, {1, 1}, {3, 1}, {3, 2}}),
       regular_frame(1, 4, 11)},
      {regular_frame(2, 1, 2), regular_frame(2, 2, 5), regular_frame(2, 3, 8)},
      {regular_frame(3, 1, 3), regular_frame(3, 2, 6), regular_frame(3, 3, 7)},
  };
}

struct CutResult {
  std::vector<std::pair<std::uint32_t, SeqNum>> remainder;
  std::size_t pending_after = 0;
  std::int64_t gauge_delta = 0;
  std::uint64_t truncated = 0;
};

// Feeds the scenario's streams to a follower in the given interleaving
// (each entry names the stream that sends its next frame), then drains the
// cut that convicts P3: P1 up to seq 4, P2 up to seq 2, P3 up to seq 1.
CutResult run_cut(ProcessorId self, const std::vector<int>& interleaving) {
  const metrics::GaugeHandle pending = metrics::gauge(
      "ftmp_romp_pending_messages",
      "Messages buffered awaiting total-order delivery", "messages", "romp");
  const metrics::CounterHandle truncations = metrics::counter(
      "ftmp_ordering_truncations_total",
      "Slots truncated at fault installs (referenced message beyond the cut)",
      "slots", "ordering");
  const std::int64_t pending_before = pending.value();
  const std::uint64_t truncated_before = truncations.value();

  Stability stability{llft_config()};
  LlftRule rule(self, stability);
  stability.set_members(ids({1, 2, 3}));
  rule.set_view(0);
  auto streams = cut_scenario_streams();
  std::vector<std::size_t> next(streams.size(), 0);
  for (int s : interleaving) route(stability, rule, streams[s][next[s]++]);
  for (std::size_t s = 0; s < streams.size(); ++s) {
    EXPECT_EQ(next[s], streams[s].size()) << "interleaving must send every frame";
  }
  EXPECT_EQ(rule.pending_count(), 9u);

  const std::map<ProcessorId, SeqNum> cuts{
      {ProcessorId{1}, 4}, {ProcessorId{2}, 2}, {ProcessorId{3}, 1}};
  CutResult r;
  for (const Frame& f : rule.drain_up_to_cut(cuts, {ProcessorId{1}, ProcessorId{2}})) {
    r.remainder.emplace_back(f.header.source.raw(), f.header.sequence_number);
  }
  r.pending_after = rule.pending_count();
  r.gauge_delta = pending.value() - pending_before;
  r.truncated = truncations.value() - truncated_before;
  return r;
}

// Two survivors that received the same frames and grants in different
// arrival orders drain the identical remainder: the granted slots at or
// below the cut in slot order, then the ungranted held frames at or below
// the cut in (timestamp, source) order.
TEST(LlftRule, FaultCutRemainderIsIdenticalAcrossArrivalOrders) {
  const CutResult a = run_cut(ProcessorId{2}, {0, 0, 0, 0, 1, 1, 1, 2, 2, 2});
  const CutResult b = run_cut(ProcessorId{3}, {2, 1, 2, 1, 2, 1, 0, 0, 0, 0});
  const std::vector<std::pair<std::uint32_t, SeqNum>> want{
      {2, 1}, {1, 1}, {3, 1},   // granted, in slot order
      {1, 2}, {2, 2}, {1, 4}};  // ungranted: (4, P1), (5, P2), (11, P1)
  EXPECT_EQ(a.remainder, want);
  EXPECT_EQ(b.remainder, want);
}

// The slot beyond the crashed source's cut is truncated and counted; the
// crashed source's held frames beyond its cut are dropped while a
// survivor's stay for the new view, and the pending gauge stays balanced.
TEST(LlftRule, FaultCutTruncatesAndDropsBeyondTheCut) {
  for (const std::vector<int>& order :
       {std::vector<int>{0, 0, 0, 0, 1, 1, 1, 2, 2, 2},
        std::vector<int>{2, 1, 2, 1, 2, 1, 0, 0, 0, 0}}) {
    const CutResult r = run_cut(ProcessorId{2}, order);
    EXPECT_EQ(r.truncated, FTCORBA_METRICS_ENABLED ? 1u : 0u)
        << "the grant of P3 seq 2 lies beyond P3's cut";
    EXPECT_EQ(r.pending_after, 1u) << "only survivor P2's seq 3 stays held";
    EXPECT_EQ(r.gauge_delta, FTCORBA_METRICS_ENABLED ? 1 : 0)
        << "dropped and delivered frames leave the pending gauge";
  }
}

}  // namespace
}  // namespace ftcorba::ftmp
