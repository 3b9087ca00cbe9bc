// Unit tests for the ROMP layer (§6) — the Lamport delivery rule over the
// shared Stability: delivery condition, total order, heartbeat bounds, ack
// timestamps and stability.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "ftmp/romp.hpp"
#include "routing.hpp"

namespace ftcorba::ftmp {
namespace {

constexpr ProcessorId kP1{1};
constexpr ProcessorId kP2{2};
constexpr ProcessorId kP3{3};

Message regular(ProcessorId src, SeqNum seq, Timestamp ts, Timestamp ack = 0) {
  Message m;
  m.header.type = MessageType::kRegular;
  m.header.source = src;
  m.header.sequence_number = seq;
  m.header.message_timestamp = ts;
  m.header.ack_timestamp = ack;
  m.body = RegularBody{};
  return m;
}

Frame frame_of(const Message& m) { return Frame{m.header, encode_message(m)}; }

Header heartbeat(ProcessorId src, SeqNum seq, Timestamp ts, Timestamp ack = 0) {
  Header h;
  h.type = MessageType::kHeartbeat;
  h.source = src;
  h.sequence_number = seq;
  h.message_timestamp = ts;
  h.ack_timestamp = ack;
  return h;
}

struct RompFixture : ::testing::Test {
  Config config;
  Stability stability{config};
  LamportRule rule{stability};
  void SetUp() override { stability.set_members({kP1, kP2, kP3}); }

  void receive(const Message& m) { route(stability, rule, frame_of(m)); }
  // What PGMP does when a member leaves.
  void remove(ProcessorId p) {
    stability.remove_member(p);
    rule.reset_source(p, std::nullopt);
  }
};

TEST_F(RompFixture, NoDeliveryUntilAllBoundsPass) {
  receive(regular(kP2, 1, 10));
  EXPECT_TRUE(deliverable(rule).empty()) << "P1/P3 bounds still 0";
  stability.on_heartbeat(heartbeat(kP1, 0, 11), 0);
  EXPECT_TRUE(deliverable(rule).empty()) << "P3 bound still 0";
  stability.on_heartbeat(heartbeat(kP3, 0, 12), 0);
  const auto out = deliverable(rule);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].header.source, kP2);
}

TEST_F(RompFixture, DeliveryInTimestampOrderWithSourceTieBreak) {
  receive(regular(kP3, 1, 5));
  receive(regular(kP2, 1, 5));  // same ts: source id breaks tie
  receive(regular(kP2, 2, 7));
  stability.on_heartbeat(heartbeat(kP1, 0, 20), 0);
  stability.on_heartbeat(heartbeat(kP2, 2, 20), 2);
  stability.on_heartbeat(heartbeat(kP3, 1, 20), 1);
  const auto out = deliverable(rule);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].header.source, kP2);  // (5, P2)
  EXPECT_EQ(out[1].header.source, kP3);  // (5, P3)
  EXPECT_EQ(out[2].header.source, kP2);  // (7, P2)
}

TEST_F(RompFixture, HeartbeatWithStaleSeqDoesNotRaiseBound) {
  receive(regular(kP2, 1, 10));
  stability.on_heartbeat(heartbeat(kP1, 0, 50), 0);
  // P3's heartbeat claims seq 4, but we've contiguously received only 0:
  // messages 1..4 are in flight with unknown (smaller) timestamps.
  stability.on_heartbeat(heartbeat(kP3, 4, 50), 0);
  EXPECT_TRUE(deliverable(rule).empty());
  EXPECT_EQ(stability.bound(kP3), 0u);
  // Matching seq raises it.
  stability.on_heartbeat(heartbeat(kP3, 0, 50), 0);
  EXPECT_EQ(stability.bound(kP3), 50u);
  EXPECT_EQ(deliverable(rule).size(), 1u);
}

TEST_F(RompFixture, OrderedTypesEnterPending) {
  Message add = regular(kP2, 1, 10);
  add.header.type = MessageType::kAddProcessor;
  add.body = AddProcessorBody{};
  receive(add);
  EXPECT_EQ(rule.pending_count(), 1u);
  Message suspect = regular(kP2, 2, 11);
  suspect.header.type = MessageType::kSuspect;
  suspect.body = SuspectBody{};
  receive(suspect);
  EXPECT_EQ(rule.pending_count(), 1u) << "Suspect is not totally ordered (Fig. 3)";
  EXPECT_EQ(stability.bound(kP2), 11u) << "but it raises the bound";
}

TEST_F(RompFixture, Fig3OrderingClassification) {
  EXPECT_TRUE(is_totally_ordered(MessageType::kRegular));
  EXPECT_TRUE(is_totally_ordered(MessageType::kConnect));
  EXPECT_TRUE(is_totally_ordered(MessageType::kAddProcessor));
  EXPECT_TRUE(is_totally_ordered(MessageType::kRemoveProcessor));
  EXPECT_FALSE(is_totally_ordered(MessageType::kSuspect));
  EXPECT_FALSE(is_totally_ordered(MessageType::kMembership));
  EXPECT_FALSE(is_totally_ordered(MessageType::kHeartbeat));
  EXPECT_FALSE(is_totally_ordered(MessageType::kRetransmitRequest));
  EXPECT_FALSE(is_totally_ordered(MessageType::kConnectRequest));

  EXPECT_TRUE(is_reliable(MessageType::kRegular));
  EXPECT_TRUE(is_reliable(MessageType::kSuspect));
  EXPECT_TRUE(is_reliable(MessageType::kMembership));
  EXPECT_FALSE(is_reliable(MessageType::kHeartbeat));
  EXPECT_FALSE(is_reliable(MessageType::kRetransmitRequest));
  EXPECT_FALSE(is_reliable(MessageType::kConnectRequest));
}

TEST_F(RompFixture, AckTimestampIsMinBound) {
  stability.on_heartbeat(heartbeat(kP1, 0, 30), 0);
  stability.on_heartbeat(heartbeat(kP2, 0, 10), 0);
  stability.on_heartbeat(heartbeat(kP3, 0, 20), 0);
  EXPECT_EQ(stability.ack_timestamp(), 10u);
}

TEST_F(RompFixture, StabilityFollowsMinAck) {
  receive(regular(kP2, 1, 10, /*ack=*/0));
  EXPECT_EQ(stability.stable_timestamp(), 0u);
  // Everyone acks >= 10: the message is stable.
  stability.on_heartbeat(heartbeat(kP1, 0, 40, /*ack=*/15), 0);
  stability.on_heartbeat(heartbeat(kP2, 1, 41, /*ack=*/12), 1);
  stability.on_heartbeat(heartbeat(kP3, 0, 42, /*ack=*/11), 0);
  EXPECT_EQ(stability.stable_timestamp(), 11u);
  const auto releases = stable(stability);
  ASSERT_EQ(releases.size(), 1u);
  EXPECT_EQ(releases[0].first, kP2);
  EXPECT_EQ(releases[0].second, 1u);
  // Second call: nothing new.
  EXPECT_TRUE(stable(stability).empty());
}

TEST_F(RompFixture, StampAndWitnessKeepLamportProperty) {
  receive(regular(kP2, 1, 1000));
  EXPECT_GT(stability.stamp(0), 1000u);
}

TEST_F(RompFixture, RemoveMemberUnblocksDelivery) {
  receive(regular(kP2, 1, 10));
  stability.on_heartbeat(heartbeat(kP1, 0, 20), 0);
  // P3 silent: stalled. Removing it (as PGMP conviction would) unblocks.
  EXPECT_TRUE(deliverable(rule).empty());
  remove(kP3);
  EXPECT_EQ(deliverable(rule).size(), 1u);
}

TEST_F(RompFixture, RemoveMemberDropsItsPending) {
  receive(regular(kP3, 1, 10));
  remove(kP3);
  stability.on_heartbeat(heartbeat(kP1, 0, 20), 0);
  stability.on_heartbeat(heartbeat(kP2, 0, 20), 0);
  EXPECT_TRUE(deliverable(rule).empty());
  EXPECT_EQ(rule.pending_count(), 0u);
}

TEST_F(RompFixture, AddMemberStartsAtGivenBound) {
  stability.add_member(ProcessorId{4}, 100);
  EXPECT_EQ(stability.bound(ProcessorId{4}), 100u);
  // A message above everyone's bounds stalls on the new member too.
  receive(regular(kP2, 1, 150));
  stability.on_heartbeat(heartbeat(kP1, 0, 200), 0);
  stability.on_heartbeat(heartbeat(kP2, 1, 200), 1);
  stability.on_heartbeat(heartbeat(kP3, 0, 200), 0);
  EXPECT_TRUE(deliverable(rule).empty());
  stability.on_heartbeat(heartbeat(ProcessorId{4}, 0, 160), 0);
  EXPECT_EQ(deliverable(rule).size(), 1u);
}

TEST_F(RompFixture, DrainUpToCutDeliversExactlyTheCut) {
  receive(regular(kP2, 1, 10));
  receive(regular(kP2, 2, 12));
  receive(regular(kP3, 1, 11));
  receive(regular(kP3, 2, 14));
  std::map<ProcessorId, SeqNum> cuts{{kP1, 0}, {kP2, 2}, {kP3, 1}};
  const std::set<ProcessorId> survivors{kP1, kP2};
  const auto out = rule.drain_up_to_cut(cuts, survivors);
  ASSERT_EQ(out.size(), 3u);
  // (10,P2), (11,P3), (12,P2) — timestamp order.
  EXPECT_EQ(out[0].header.message_timestamp, 10u);
  EXPECT_EQ(out[1].header.message_timestamp, 11u);
  EXPECT_EQ(out[2].header.message_timestamp, 12u);
  // P3's beyond-cut message was dropped (not a survivor).
  EXPECT_EQ(rule.pending_count(), 0u);
}

TEST_F(RompFixture, DrainKeepsSurvivorsBeyondCut) {
  receive(regular(kP2, 1, 10));
  receive(regular(kP2, 2, 12));
  std::map<ProcessorId, SeqNum> cuts{{kP1, 0}, {kP2, 1}, {kP3, 0}};
  const std::set<ProcessorId> survivors{kP1, kP2};
  const auto out = rule.drain_up_to_cut(cuts, survivors);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(rule.pending_count(), 1u) << "survivor's later message stays pending";
}

TEST_F(RompFixture, DeliveryBatchStopsAtMembershipChange) {
  // Regression (found by the soak run): a batch whose min_bound was
  // computed over the current membership must not run past an ordered
  // AddProcessor — later messages must also clear the NEW member's bound.
  Message add = regular(kP2, 1, 10);
  add.header.type = MessageType::kAddProcessor;
  add.body = AddProcessorBody{};
  receive(add);
  receive(regular(kP2, 2, 12));
  receive(regular(kP2, 3, 14));
  stability.on_heartbeat(heartbeat(kP1, 0, 20), 0);
  stability.on_heartbeat(heartbeat(kP3, 0, 20), 0);
  stability.on_heartbeat(heartbeat(kP2, 3, 20), 3);

  auto batch = deliverable(rule);
  ASSERT_EQ(batch.size(), 1u) << "batch must end at the AddProcessor";
  EXPECT_EQ(batch[0].header.type, MessageType::kAddProcessor);

  // The session applies the ADD: the new member P4 joins with bound 10.
  stability.add_member(ProcessorId{4}, 10);
  EXPECT_TRUE(deliverable(rule).empty())
      << "ts 12/14 must now wait for the new member's bound";
  stability.on_heartbeat(heartbeat(ProcessorId{4}, 0, 13), 0);
  auto next = deliverable(rule);
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].header.message_timestamp, 12u);
}

TEST_F(RompFixture, ConsumedBoundaryCoversControlMessages) {
  // Suspect/Membership consume sequence numbers without being ordered;
  // the join resume boundary must advance over them (soak regression).
  receive(regular(kP2, 1, 10));
  Message suspect = regular(kP2, 2, 11);
  suspect.header.type = MessageType::kSuspect;
  suspect.body = SuspectBody{};
  receive(suspect);
  Message membership = regular(kP2, 3, 12);
  membership.header.type = MessageType::kMembership;
  membership.body = MembershipBody{};
  receive(membership);

  // The Regular at seq 1 is not delivered yet: consumed stops before it.
  EXPECT_EQ(stability.consumed_up_to(kP2), 0u);
  stability.on_heartbeat(heartbeat(kP1, 0, 20), 0);
  stability.on_heartbeat(heartbeat(kP3, 0, 20), 0);
  (void)deliverable(rule);  // delivers seq 1
  EXPECT_EQ(stability.consumed_up_to(kP2), 3u)
      << "boundary passes the delivered Regular AND the control messages";
}

TEST_F(RompFixture, DuplicateTimestampSourceIsIgnored) {
  receive(regular(kP2, 1, 10));
  receive(regular(kP2, 2, 10));  // same (ts, src)
  EXPECT_EQ(rule.pending_count(), 1u);
  stability.on_heartbeat(heartbeat(kP1, 0, 20), 0);
  stability.on_heartbeat(heartbeat(kP2, 2, 20), 2);
  stability.on_heartbeat(heartbeat(kP3, 0, 20), 0);
  const auto out = deliverable(rule);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].header.sequence_number, 1u) << "the first copy is kept";
}

TEST_F(RompFixture, NonMonotonicTimestampIsSortedIn) {
  // A source whose timestamps go backwards (a faulty or hostile peer) must
  // not corrupt the order: its frames are still delivered by timestamp.
  receive(regular(kP2, 1, 30));
  receive(regular(kP2, 2, 15));
  receive(regular(kP3, 1, 20));
  stability.on_heartbeat(heartbeat(kP1, 0, 40), 0);
  stability.on_heartbeat(heartbeat(kP3, 1, 40), 1);
  const auto out = deliverable(rule);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].header.message_timestamp, 15u);
  EXPECT_EQ(out[1].header.message_timestamp, 20u);
  EXPECT_EQ(out[2].header.message_timestamp, 30u);
}

TEST_F(RompFixture, DrainMergesHeadsAndDropsOnlyNonSurvivors) {
  const ProcessorId kP4{4};
  stability.add_member(kP4, 0);
  // Interleaved streams; the cut falls mid-queue for every source.
  receive(regular(kP2, 1, 3));
  receive(regular(kP2, 2, 7));
  receive(regular(kP2, 3, 9));
  receive(regular(kP3, 1, 4));
  receive(regular(kP3, 2, 8));
  receive(regular(kP4, 1, 4));
  receive(regular(kP4, 2, 6));
  receive(regular(kP4, 3, 10));
  const std::map<ProcessorId, SeqNum> cuts{{kP2, 2}, {kP3, 1}, {kP4, 2}};
  const std::set<ProcessorId> survivors{kP1, kP2, kP4};
  const auto out = rule.drain_up_to_cut(cuts, survivors);
  std::vector<std::pair<Timestamp, ProcessorId>> got;
  for (const Frame& f : out) got.emplace_back(f.header.message_timestamp, f.header.source);
  const std::vector<std::pair<Timestamp, ProcessorId>> want{
      {3, kP2}, {4, kP3}, {4, kP4}, {6, kP4}, {7, kP2}};
  EXPECT_EQ(got, want);
  // Beyond the cut: P2 seq 3 and P4 seq 3 stay (survivors); P3 seq 2 is
  // dropped (P3 did not survive).
  EXPECT_EQ(rule.pending_count(), 2u);
  EXPECT_EQ(stability.consumed_up_to(kP2), 2u);
  EXPECT_EQ(stability.consumed_up_to(kP4), 2u);
  remove(kP3);
  stability.on_heartbeat(heartbeat(kP1, 0, 20), 0);
  stability.on_heartbeat(heartbeat(kP2, 3, 20), 3);
  stability.on_heartbeat(heartbeat(kP4, 3, 20), 3);
  const auto rest = deliverable(rule);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].header.source, kP2);
  EXPECT_EQ(rest[1].header.source, kP4);
}

TEST_F(RompFixture, RemoveMemberDropPendingBalancesGauge) {
  const metrics::GaugeHandle gauge = metrics::gauge(
      "ftmp_romp_pending_messages",
      "Messages buffered awaiting total-order delivery", "messages", "romp");
  const std::int64_t before = gauge.value();
  receive(regular(kP2, 1, 10));
  receive(regular(kP3, 1, 11));
  receive(regular(kP3, 2, 12));
  EXPECT_EQ(rule.pending_count(), 3u);
  remove(kP3);
  EXPECT_EQ(rule.pending_count(), 1u);
  remove(kP2);
  EXPECT_EQ(rule.pending_count(), 0u);
  EXPECT_EQ(gauge.value(), before);
}

}  // namespace
}  // namespace ftcorba::ftmp
