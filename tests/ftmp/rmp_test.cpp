// Unit tests for the RMP layer (§5): sequencing, gap detection, NACKs,
// retransmission policy, and buffer accounting.
#include <gtest/gtest.h>

#include <vector>

#include "ftmp/rmp.hpp"
#include "routing.hpp"

namespace ftcorba::ftmp {
namespace {

constexpr ProcessorId kSelf{1};
constexpr ProcessorId kPeer{2};

Message regular(ProcessorId src, SeqNum seq, Timestamp ts = 0) {
  Message m;
  m.header.type = MessageType::kRegular;
  m.header.source = src;
  m.header.destination_group = ProcessorGroupId{1};
  m.header.sequence_number = seq;
  m.header.message_timestamp = ts ? ts : seq * 10;
  m.body = RegularBody{{}, seq, bytes_of("m" + std::to_string(seq))};
  return m;
}

Bytes raw_of(const Message& m) { return encode_message(m); }

Frame frame_of(const Message& m) { return Frame{m.header, raw_of(m)}; }

struct RmpFixture : ::testing::Test {
  Config config;
  Rmp rmp{kSelf, config};

  void SetUp() override {
    rmp.add_source(kSelf, 0);
    rmp.add_source(kPeer, 0);
  }

  std::vector<Frame> feed(const Message& m, TimePoint now = 0) {
    return reliable(rmp, now, frame_of(m));
  }
};

TEST_F(RmpFixture, InOrderDeliveryImmediate) {
  EXPECT_EQ(feed(regular(kPeer, 1)).size(), 1u);
  EXPECT_EQ(feed(regular(kPeer, 2)).size(), 1u);
  EXPECT_EQ(rmp.contiguous(kPeer), 2u);
  EXPECT_TRUE(rmp.complete(kPeer));
}

TEST_F(RmpFixture, GapBuffersAndDrains) {
  EXPECT_EQ(feed(regular(kPeer, 1)).size(), 1u);
  EXPECT_TRUE(feed(regular(kPeer, 3)).empty());  // gap at 2
  EXPECT_EQ(rmp.out_of_order_count(), 1u);
  EXPECT_FALSE(rmp.complete(kPeer));
  const auto drained = feed(regular(kPeer, 2));
  ASSERT_EQ(drained.size(), 2u);  // 2 then 3, in source order
  EXPECT_EQ(drained[0].header.sequence_number, 2u);
  EXPECT_EQ(drained[1].header.sequence_number, 3u);
  EXPECT_EQ(rmp.out_of_order_count(), 0u);
}

TEST_F(RmpFixture, GapTriggersNack) {
  (void)feed(regular(kPeer, 1));
  (void)feed(regular(kPeer, 4), 1 * kMillisecond);
  const auto out = rmp.take_output();
  ASSERT_EQ(out.size(), 1u);
  const auto* nack = std::get_if<NackOut>(&out[0]);
  ASSERT_NE(nack, nullptr);
  EXPECT_EQ(nack->missing_from, kPeer);
  EXPECT_EQ(nack->start, 2u);
  EXPECT_EQ(nack->stop, 3u);
  EXPECT_EQ(rmp.stats().nacks_sent, 1u);
}

TEST_F(RmpFixture, NackRateLimited) {
  (void)feed(regular(kPeer, 1));
  (void)feed(regular(kPeer, 4), 1 * kMillisecond);
  (void)rmp.take_output();
  rmp.on_tick(2 * kMillisecond);  // within nack_interval (5ms)
  EXPECT_TRUE(rmp.take_output().empty());
  rmp.on_tick(10 * kMillisecond);
  EXPECT_EQ(rmp.take_output().size(), 1u);
}

TEST_F(RmpFixture, HeartbeatRevealsGap) {
  Header hb;
  hb.type = MessageType::kHeartbeat;
  hb.source = kPeer;
  hb.sequence_number = 5;  // peer has sent 5 messages; we saw none
  rmp.on_heartbeat(1 * kMillisecond, hb);
  const auto out = rmp.take_output();
  ASSERT_EQ(out.size(), 1u);
  const auto* nack = std::get_if<NackOut>(&out[0]);
  ASSERT_NE(nack, nullptr);
  EXPECT_EQ(nack->start, 1u);
  EXPECT_EQ(nack->stop, 5u);
}

TEST_F(RmpFixture, DuplicatesIgnored) {
  (void)feed(regular(kPeer, 1));
  EXPECT_TRUE(feed(regular(kPeer, 1)).empty());
  EXPECT_EQ(rmp.stats().duplicates_ignored, 1u);
  // Duplicate of a buffered out-of-order message too.
  (void)feed(regular(kPeer, 3));
  EXPECT_TRUE(feed(regular(kPeer, 3)).empty());
  EXPECT_EQ(rmp.stats().duplicates_ignored, 2u);
}

TEST_F(RmpFixture, UnknownSourceDropped) {
  EXPECT_TRUE(feed(regular(ProcessorId{99}, 1)).empty());
  EXPECT_EQ(rmp.stats().dropped_unknown_source, 1u);
}

TEST_F(RmpFixture, RetransmitServesStoredMessages) {
  (void)feed(regular(kPeer, 1));
  (void)feed(regular(kPeer, 2));
  rmp.on_retransmit_request(10 * kMillisecond, RetransmitRequestBody{kPeer, 1, 2});
  const auto out = rmp.take_output();
  ASSERT_EQ(out.size(), 2u);
  for (const RmpOut& o : out) {
    const auto* rt = std::get_if<RetransmitOut>(&o);
    ASSERT_NE(rt, nullptr);
    const Message m = decode_message(rt->raw);
    EXPECT_TRUE(m.header.retransmission) << "retransmission flag must be set";
    EXPECT_EQ(m.header.source, kPeer);
  }
  EXPECT_EQ(rmp.stats().retransmissions_sent, 2u);
}

TEST_F(RmpFixture, SourceOnlyPolicyRefusesOthersMessages) {
  Config strict;
  strict.any_holder_retransmit = false;
  Rmp rmp2(kSelf, strict);
  rmp2.add_source(kPeer, 0);
  (void)reliable(rmp2, 0, frame_of(regular(kPeer, 1)));
  rmp2.on_retransmit_request(10 * kMillisecond, RetransmitRequestBody{kPeer, 1, 1});
  EXPECT_TRUE(rmp2.take_output().empty()) << "not the source: must not retransmit";
  // But our own messages are always served.
  const SeqNum seq = rmp2.assign_seq();
  Message own = regular(kSelf, seq);
  rmp2.store(kSelf, seq, raw_of(own));
  rmp2.on_retransmit_request(20 * kMillisecond, RetransmitRequestBody{kSelf, seq, seq});
  EXPECT_EQ(rmp2.take_output().size(), 1u);
}

TEST_F(RmpFixture, RetransmitRateLimitedPerMessage) {
  (void)feed(regular(kPeer, 1));
  rmp.on_retransmit_request(10 * kMillisecond, RetransmitRequestBody{kPeer, 1, 1});
  rmp.on_retransmit_request(11 * kMillisecond, RetransmitRequestBody{kPeer, 1, 1});
  EXPECT_EQ(rmp.take_output().size(), 1u) << "second request within interval suppressed";
  rmp.on_retransmit_request(30 * kMillisecond, RetransmitRequestBody{kPeer, 1, 1});
  EXPECT_EQ(rmp.take_output().size(), 1u);
}

TEST_F(RmpFixture, ReleaseReclaimsBuffers) {
  for (SeqNum s = 1; s <= 5; ++s) (void)feed(regular(kPeer, s));
  EXPECT_EQ(rmp.stored_count(), 5u);
  const std::size_t bytes_before = rmp.stored_bytes();
  EXPECT_GT(bytes_before, 0u);
  rmp.release(kPeer, 3);
  EXPECT_EQ(rmp.stored_count(), 2u);
  EXPECT_LT(rmp.stored_bytes(), bytes_before);
  // Released messages can no longer be retransmitted.
  rmp.on_retransmit_request(10 * kMillisecond, RetransmitRequestBody{kPeer, 1, 5});
  EXPECT_EQ(rmp.take_output().size(), 2u);
}

TEST_F(RmpFixture, NoteExistsTriggersRecovery) {
  rmp.note_exists(1 * kMillisecond, kPeer, 7);
  EXPECT_EQ(rmp.highest_seen(kPeer), 7u);
  const auto out = rmp.take_output();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(std::get<NackOut>(out[0]).stop, 7u);
}

TEST_F(RmpFixture, HeartbeatDueTracksSends) {
  EXPECT_TRUE(rmp.heartbeat_due(20 * kMillisecond));
  rmp.note_sent(20 * kMillisecond);
  EXPECT_FALSE(rmp.heartbeat_due(25 * kMillisecond));
  EXPECT_TRUE(rmp.heartbeat_due(31 * kMillisecond));  // default interval 10ms
}

TEST_F(RmpFixture, AssignSeqMonotone) {
  EXPECT_EQ(rmp.assign_seq(), 1u);
  EXPECT_EQ(rmp.assign_seq(), 2u);
  EXPECT_EQ(rmp.last_sent(), 2u);
}

TEST_F(RmpFixture, JoiningSourceStartsMidStream) {
  rmp.add_source(ProcessorId{3}, 10);  // join: expect from 11
  EXPECT_EQ(reliable(rmp, 0, frame_of(regular(ProcessorId{3}, 11))).size(), 1u);
  EXPECT_EQ(rmp.contiguous(ProcessorId{3}), 11u);
}

TEST(RmpOooCap, DropsAtCapWithDistinctStatus) {
  Config config;
  config.max_out_of_order_buffer = 2;
  Rmp rmp(kSelf, config);
  rmp.add_source(kSelf, 0);
  rmp.add_source(kPeer, 0);
  auto feed = [&](const Message& m) {
    std::vector<Frame> delivered;
    return rmp.on_reliable(0, frame_of(m), delivered);
  };
  // Seqs 1-2 missing: 3 and 4 park in the out-of-order buffer, 5 hits the cap.
  EXPECT_EQ(feed(regular(kPeer, 3)), RmpAccept::kBuffered);
  EXPECT_EQ(feed(regular(kPeer, 4)), RmpAccept::kBuffered);
  EXPECT_EQ(feed(regular(kPeer, 5)), RmpAccept::kOooDropped);
  EXPECT_EQ(rmp.stats().ooo_dropped, 1u);
  EXPECT_EQ(rmp.out_of_order_count(), 2u);
  // The drop is a delay, not a loss: once the gap fills, NACK recovery
  // re-fetches seq 5 like any other missing message.
  EXPECT_EQ(feed(regular(kPeer, 1)), RmpAccept::kDelivered);
  EXPECT_EQ(feed(regular(kPeer, 1)), RmpAccept::kDuplicate);
  EXPECT_EQ(feed(regular(kPeer, 2)), RmpAccept::kDelivered);  // drains 3, 4
  EXPECT_EQ(rmp.contiguous(kPeer), 4u);
  EXPECT_EQ(feed(regular(kPeer, 5)), RmpAccept::kDelivered);
  EXPECT_TRUE(rmp.complete(kPeer));
}

// --- NACK spacing -----------------------------------------------------------
// Drives a persistent gap against a 1ms tick clock and records when each
// NACK round fires; the emission times expose the spacing schedule.

std::vector<TimePoint> nack_times(Rmp& rmp, TimePoint from, TimePoint until) {
  std::vector<TimePoint> times;
  for (TimePoint t = from; t <= until; t += kMillisecond) {
    rmp.on_tick(t);
    for (const RmpOut& o : rmp.take_output()) {
      if (std::get_if<NackOut>(&o)) times.push_back(t);
    }
  }
  return times;
}

TEST(RmpNack, RepeatsAtTheFixedInterval) {
  Config config;
  Rmp rmp(kSelf, config);
  rmp.add_source(kPeer, 0);
  (void)reliable(rmp, 0, Frame{regular(kPeer, 1).header, encode_message(regular(kPeer, 1))});
  rmp.note_exists(0, kPeer, 5);  // open a gap that never fills
  (void)rmp.take_output();       // discard the immediate first NACK
  const auto times = nack_times(rmp, kMillisecond, 100 * kMillisecond);
  ASSERT_GE(times.size(), 2u);
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_EQ(times[i] - times[i - 1], config.nack_interval)
        << "every round at the fixed interval";
  }
}

TEST_F(RmpFixture, RemoveSourceKeepsStoreUntilPurge) {
  (void)feed(regular(kPeer, 1));
  rmp.remove_source(kPeer);
  EXPECT_FALSE(rmp.has_source(kPeer));
  // Lagging members can still fetch the removed member's messages...
  rmp.on_retransmit_request(10 * kMillisecond, RetransmitRequestBody{kPeer, 1, 1});
  EXPECT_EQ(rmp.take_output().size(), 1u);
  // ...until the deferred purge.
  rmp.purge_store(kPeer);
  rmp.on_retransmit_request(30 * kMillisecond, RetransmitRequestBody{kPeer, 1, 1});
  EXPECT_TRUE(rmp.take_output().empty());
}

/// Sequence numbers of the retransmissions in `out`, in output order.
std::vector<SeqNum> retransmitted_seqs(const std::vector<RmpOut>& out) {
  std::vector<SeqNum> seqs;
  for (const RmpOut& o : out) {
    const auto* rt = std::get_if<RetransmitOut>(&o);
    if (rt != nullptr) seqs.push_back(decode_message(rt->raw).header.sequence_number);
  }
  return seqs;
}

// The request walk visits stored seqs only: a range up to 2^64 - 1 must
// neither step through every seq of it nor wrap past the top and loop.
TEST_F(RmpFixture, RetransmitFullRangeOnEmptyStoreReturns) {
  rmp.on_retransmit_request(10 * kMillisecond, RetransmitRequestBody{kPeer, 1, ~SeqNum{0}});
  EXPECT_TRUE(rmp.take_output().empty());
  EXPECT_EQ(rmp.stats().retransmissions_sent, 0u);
}

TEST_F(RmpFixture, RetransmitFullRangeServesOnlyStoredInOrder) {
  constexpr SeqNum kMax = ~SeqNum{0};
  rmp.store(kPeer, kMax - 1, raw_of(regular(kPeer, kMax - 1)));
  rmp.store(kPeer, 5, raw_of(regular(kPeer, 5)));
  rmp.on_retransmit_request(10 * kMillisecond, RetransmitRequestBody{kPeer, 1, kMax});
  EXPECT_EQ(retransmitted_seqs(rmp.take_output()), (std::vector<SeqNum>{5, kMax - 1}));
  EXPECT_EQ(rmp.stats().retransmissions_sent, 2u);
}

TEST_F(RmpFixture, RetransmitStopsAtTopSeqWithoutWrapping) {
  constexpr SeqNum kMax = ~SeqNum{0};
  rmp.store(kPeer, kMax, raw_of(regular(kPeer, kMax)));
  rmp.store(kPeer, 1, raw_of(regular(kPeer, 1)));
  rmp.on_retransmit_request(10 * kMillisecond, RetransmitRequestBody{kPeer, kMax, kMax});
  EXPECT_EQ(retransmitted_seqs(rmp.take_output()), (std::vector<SeqNum>{kMax}));
}

TEST_F(RmpFixture, RetransmitInvertedRangeIsNoOp) {
  for (SeqNum s = 1; s <= 10; ++s) (void)feed(regular(kPeer, s));
  rmp.on_retransmit_request(10 * kMillisecond, RetransmitRequestBody{kPeer, 8, 3});
  EXPECT_TRUE(rmp.take_output().empty());
}

TEST_F(RmpFixture, RetransmitBurstCapAndRateLimitOverStoredSeqs) {
  for (SeqNum s = 1; s <= 100; ++s) (void)feed(regular(kPeer, s));
  // Seqs 1-10 were just answered, so a full-range request skips them and
  // the burst cap counts only what is actually sent.
  rmp.on_retransmit_request(10 * kMillisecond, RetransmitRequestBody{kPeer, 1, 10});
  EXPECT_EQ(rmp.take_output().size(), 10u);
  rmp.on_retransmit_request(11 * kMillisecond, RetransmitRequestBody{kPeer, 1, ~SeqNum{0}});
  const std::vector<SeqNum> seqs = retransmitted_seqs(rmp.take_output());
  ASSERT_EQ(seqs.size(), 64u);
  EXPECT_EQ(seqs.front(), 11u);
  EXPECT_EQ(seqs.back(), 74u);
}

// ---- retransmission store layout (docs/BUFFERS.md) ----

TEST_F(RmpFixture, StoreBelowTheBaseIsKept) {
  for (SeqNum s = 10; s <= 20; ++s) rmp.store(kPeer, s, raw_of(regular(kPeer, s)));
  rmp.release(kPeer, 15);  // the window now starts at 16
  EXPECT_EQ(rmp.stored_count(), 5u);
  rmp.store(kPeer, 5, raw_of(regular(kPeer, 5)));    // just below the base
  rmp.store(kPeer, 14, raw_of(regular(kPeer, 14)));  // released earlier
  EXPECT_EQ(rmp.stored_count(), 7u);
  ASSERT_TRUE(rmp.stored(kPeer, 5).has_value());
  const BytesView five = *rmp.stored(kPeer, 5);
  EXPECT_EQ(Bytes(five.begin(), five.end()), raw_of(regular(kPeer, 5)));
  EXPECT_FALSE(rmp.stored(kPeer, 6).has_value());
  rmp.release(kPeer, 14);
  EXPECT_EQ(rmp.stored_count(), 5u);
  EXPECT_FALSE(rmp.stored(kPeer, 14).has_value());
  EXPECT_TRUE(rmp.stored(kPeer, 16).has_value());
}

TEST_F(RmpFixture, FarAheadSeqTakesTheSparsePath) {
  // A hostile or corrupt sequence number far beyond the window must not
  // allocate slots for the gap: these stores would need exabytes otherwise.
  constexpr SeqNum kFar = SeqNum{1} << 62;
  constexpr SeqNum kMax = ~SeqNum{0};
  (void)feed(regular(kPeer, 1));
  (void)feed(regular(kPeer, kFar));
  rmp.store(kPeer, kMax, raw_of(regular(kPeer, kMax)));
  rmp.store(kSelf, kMax, raw_of(regular(kSelf, kMax)));  // window at the top
  rmp.store(kSelf, 3, raw_of(regular(kSelf, 3)));        // far below it
  EXPECT_EQ(rmp.stored_count(), 5u);
  EXPECT_TRUE(rmp.stored(kPeer, kFar).has_value());
  EXPECT_TRUE(rmp.stored(kPeer, kMax).has_value());
  EXPECT_TRUE(rmp.stored(kSelf, 3).has_value());
  EXPECT_FALSE(rmp.stored(kPeer, kFar - 1).has_value());
  // Duplicates are still recognised on the sparse path.
  rmp.store(kPeer, kFar, raw_of(regular(kPeer, kFar)));
  EXPECT_EQ(rmp.stored_count(), 5u);
  rmp.release(kPeer, kFar);
  EXPECT_FALSE(rmp.stored(kPeer, kFar).has_value());
  EXPECT_TRUE(rmp.stored(kPeer, kMax).has_value());
  rmp.release(kPeer, kMax);
  rmp.release(kSelf, kMax);
  EXPECT_EQ(rmp.stored_count(), 0u);
  EXPECT_EQ(rmp.stored_bytes(), 0u);
}

TEST_F(RmpFixture, WindowAbsorbsSparseEntriesItGrowsOver) {
  const ProcessorId kThird{3};
  rmp.store(kThird, 1, raw_of(regular(kThird, 1)));
  rmp.store(kThird, 1000, raw_of(regular(kThird, 1000)));  // sparse: gap > bound
  for (SeqNum s = 2; s < 1000; ++s) rmp.store(kThird, s, raw_of(regular(kThird, s)));
  rmp.store(kThird, 1000, raw_of(regular(kThird, 1000)));  // still a duplicate
  rmp.store(kThird, 1001, raw_of(regular(kThird, 1001)));  // grows over 1000
  EXPECT_EQ(rmp.stored_count(), 1001u);
  EXPECT_TRUE(rmp.stored(kThird, 1000).has_value());
  rmp.release(kThird, 1000);
  EXPECT_EQ(rmp.stored_count(), 1u);
  EXPECT_TRUE(rmp.stored(kThird, 1001).has_value());
}

TEST_F(RmpFixture, ReleaseCrossesHolesAndStopsAtPins) {
  for (SeqNum s : {1, 2, 4, 6, 9}) rmp.store(kPeer, s, raw_of(regular(kPeer, s)));
  rmp.pin_store(7, {{kPeer, 3}});
  rmp.release(kPeer, 8);  // clamped to the pin floor: only 1 and 2 go
  EXPECT_EQ(rmp.stored_count(), 3u);
  EXPECT_TRUE(rmp.stored(kPeer, 4).has_value());
  rmp.unpin_store(7);
  rmp.release(kPeer, 5);  // across the hole at 3 and up to the one at 5
  EXPECT_EQ(rmp.stored_count(), 2u);
  EXPECT_FALSE(rmp.stored(kPeer, 4).has_value());
  EXPECT_TRUE(rmp.stored(kPeer, 6).has_value());
  rmp.release(kPeer, 8);
  EXPECT_EQ(rmp.stored_count(), 1u);
  EXPECT_TRUE(rmp.stored(kPeer, 9).has_value());
}

TEST_F(RmpFixture, PurgeStoreBalancesCountAndBytes) {
  std::size_t self_bytes = 0;
  for (SeqNum s = 1; s <= 4; ++s) {
    const Bytes raw = raw_of(regular(kSelf, s));
    self_bytes += raw.size();
    rmp.store(kSelf, s, Bytes(raw));
  }
  for (SeqNum s = 1; s <= 6; ++s) (void)feed(regular(kPeer, s));
  rmp.store(kPeer, 1'000'000, raw_of(regular(kPeer, 1'000'000)));  // sparse
  EXPECT_EQ(rmp.stored_count(), 11u);
  rmp.purge_store(kPeer);
  EXPECT_EQ(rmp.stored_count(), 4u);
  EXPECT_EQ(rmp.stored_bytes(), self_bytes);
  EXPECT_FALSE(rmp.stored(kPeer, 1'000'000).has_value());
  // The tracked stream itself is untouched.
  EXPECT_TRUE(rmp.has_source(kPeer));
  EXPECT_EQ(rmp.contiguous(kPeer), 6u);
  rmp.purge_store(kSelf);
  EXPECT_EQ(rmp.stored_count(), 0u);
  EXPECT_EQ(rmp.stored_bytes(), 0u);
}

}  // namespace
}  // namespace ftcorba::ftmp
