// Unit tests for duplicate detection/suppression (§4).
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <map>
#include <vector>

#include "ft/dedup.hpp"

namespace ftcorba::ft {
namespace {

ConnectionId conn(std::uint32_t tag = 1) {
  return ConnectionId{FtDomainId{tag}, ObjectGroupId{1}, FtDomainId{2}, ObjectGroupId{2}};
}

// Heap bytes this (single-threaded) test binary has in use, malloc chunk
// overhead included.
std::size_t heap_in_use() {
  const struct mallinfo2 m = mallinfo2();
  return m.uordblks + m.hblkhd;
}

TEST(Dedup, FirstCopyAcceptedRestSuppressed) {
  DuplicateSuppressor d;
  EXPECT_TRUE(d.accept(conn(), 1, MessageKind::kRequest));
  EXPECT_FALSE(d.accept(conn(), 1, MessageKind::kRequest));
  EXPECT_FALSE(d.accept(conn(), 1, MessageKind::kRequest));
  EXPECT_EQ(d.stats().accepted, 1u);
  EXPECT_EQ(d.stats().suppressed, 2u);
}

TEST(Dedup, RequestAndReplyAreDistinct) {
  DuplicateSuppressor d;
  EXPECT_TRUE(d.accept(conn(), 1, MessageKind::kRequest));
  EXPECT_TRUE(d.accept(conn(), 1, MessageKind::kReply));
  EXPECT_FALSE(d.accept(conn(), 1, MessageKind::kReply));
}

TEST(Dedup, ConnectionsAreIndependent) {
  DuplicateSuppressor d;
  EXPECT_TRUE(d.accept(conn(1), 1, MessageKind::kRequest));
  EXPECT_TRUE(d.accept(conn(2), 1, MessageKind::kRequest));
}

TEST(Dedup, SeenDoesNotRecord) {
  DuplicateSuppressor d;
  EXPECT_FALSE(d.seen(conn(), 1, MessageKind::kRequest));
  EXPECT_TRUE(d.accept(conn(), 1, MessageKind::kRequest));
  EXPECT_TRUE(d.seen(conn(), 1, MessageKind::kRequest));
  EXPECT_FALSE(d.seen(conn(), 2, MessageKind::kRequest));
}

TEST(Dedup, TrimReclaimsAndStillSuppresses) {
  DuplicateSuppressor d;
  for (RequestNum n = 1; n <= 100; ++n) {
    EXPECT_TRUE(d.accept(conn(), n, MessageKind::kRequest));
  }
  EXPECT_EQ(d.size(), 100u);
  d.trim(conn(), 90);
  EXPECT_LE(d.size(), 11u);
  // A late replica copy of a trimmed request must still be suppressed.
  EXPECT_FALSE(d.accept(conn(), 50, MessageKind::kRequest));
  // Post-watermark numbers behave normally.
  EXPECT_TRUE(d.accept(conn(), 101, MessageKind::kRequest));
}

TEST(Dedup, LargeRequestNumbers) {
  DuplicateSuppressor d;
  const RequestNum big = ~RequestNum{0} >> 2;
  EXPECT_TRUE(d.accept(conn(), big, MessageKind::kRequest));
  EXPECT_FALSE(d.accept(conn(), big, MessageKind::kRequest));
  EXPECT_TRUE(d.accept(conn(), big, MessageKind::kReply));
}

// Two client replicas issue the same request sequence; their copies reach
// a receiver interleaved and out of order. Each ⟨number, kind⟩ is accepted
// exactly once, whatever the arrival order.
TEST(Dedup, InterleavedReplicaCopiesAcceptedOnce) {
  DuplicateSuppressor d;
  const std::vector<RequestNum> replica_a{1, 2, 3, 5, 4, 6, 9, 7, 8, 10};
  const std::vector<RequestNum> replica_b{2, 1, 4, 3, 6, 5, 8, 10, 7, 9};
  std::map<std::pair<RequestNum, MessageKind>, int> accepted;
  for (std::size_t i = 0; i < replica_a.size(); ++i) {
    for (RequestNum n : {replica_a[i], replica_b[i]}) {
      for (MessageKind kind : {MessageKind::kReply, MessageKind::kRequest}) {
        if (d.accept(conn(), n, kind)) accepted[{n, kind}] += 1;
      }
    }
  }
  EXPECT_EQ(accepted.size(), 20u);
  for (const auto& [key, count] : accepted) EXPECT_EQ(count, 1) << key.first;
  EXPECT_EQ(d.stats().accepted, 20u);
  EXPECT_EQ(d.stats().suppressed, 20u);
  EXPECT_EQ(d.size(), 20u);
}

TEST(Dedup, KindsAreKeptApartAcrossTheWindow) {
  DuplicateSuppressor d;
  for (RequestNum n = 1; n <= 100; n += 2) {
    EXPECT_TRUE(d.accept(conn(), n, MessageKind::kRequest));
  }
  for (RequestNum n = 1; n <= 100; ++n) {
    EXPECT_EQ(d.seen(conn(), n, MessageKind::kRequest), n % 2 == 1) << n;
    EXPECT_FALSE(d.seen(conn(), n, MessageKind::kReply)) << n;
  }
  for (RequestNum n = 2; n <= 100; n += 2) {
    EXPECT_TRUE(d.accept(conn(), n, MessageKind::kReply));
    EXPECT_FALSE(d.seen(conn(), n, MessageKind::kRequest)) << n;
  }
}

// A (n << 1) | kind key would map 5 and 2^63 + 5 to the same entry.
TEST(Dedup, NumbersDifferingInTheTopBitAreDistinct) {
  DuplicateSuppressor d;
  const RequestNum high = (RequestNum{1} << 63) + 5;
  EXPECT_TRUE(d.accept(conn(), 5, MessageKind::kRequest));
  EXPECT_FALSE(d.seen(conn(), high, MessageKind::kRequest));
  EXPECT_TRUE(d.accept(conn(), high, MessageKind::kRequest));
  EXPECT_TRUE(d.accept(conn(), high, MessageKind::kReply));
  EXPECT_FALSE(d.seen(conn(), 5, MessageKind::kReply));
  EXPECT_FALSE(d.accept(conn(), high, MessageKind::kRequest));
  EXPECT_FALSE(d.accept(conn(), 5, MessageKind::kRequest));
}

// A hostile or far-ahead number costs a sparse entry, not storage for the
// gap; when the window later reaches it, it is still recognised.
TEST(Dedup, FarAheadNumberAllocatesNoGap) {
  DuplicateSuppressor d;
  EXPECT_TRUE(d.accept(conn(), 1, MessageKind::kRequest));
  const std::size_t base_bytes = heap_in_use();
  for (RequestNum far : {RequestNum{1} << 40, ~RequestNum{0} >> 2, ~RequestNum{0},
                         RequestNum{1} + 2 * DuplicateSuppressor::kMaxGap}) {
    EXPECT_TRUE(d.accept(conn(), far, MessageKind::kRequest));
    EXPECT_FALSE(d.accept(conn(), far, MessageKind::kRequest));
  }
  EXPECT_LE(heap_in_use(), base_bytes + 4 * 128) << "four sparse entries, no gap";
  // Walk the window up to and past the nearest far entry in small steps.
  for (RequestNum n = 2; n <= 3 * DuplicateSuppressor::kMaxGap; n += 16) {
    EXPECT_TRUE(d.accept(conn(), n, MessageKind::kReply));
  }
  EXPECT_FALSE(d.accept(conn(), 1 + 2 * DuplicateSuppressor::kMaxGap, MessageKind::kRequest))
      << "a sparse entry absorbed by the growing window stays seen";
  EXPECT_TRUE(d.accept(conn(), 1 + 2 * DuplicateSuppressor::kMaxGap, MessageKind::kReply));
  EXPECT_FALSE(d.accept(conn(), ~RequestNum{0}, MessageKind::kRequest));
}

TEST(Dedup, TrimBelowInsideAndAboveTheWindowStillSuppresses) {
  for (RequestNum watermark : {RequestNum{0}, RequestNum{3}, RequestNum{40},
                               RequestNum{64}, RequestNum{95}, RequestNum{500}}) {
    DuplicateSuppressor d;
    for (RequestNum n = 10; n < 100; ++n) {
      ASSERT_TRUE(d.accept(conn(), n, MessageKind::kRequest));
    }
    d.trim(conn(), watermark);
    const RequestNum kept = watermark <= 10 ? 90 : watermark >= 100 ? 0 : 100 - watermark;
    EXPECT_EQ(d.size(), kept) << "watermark " << watermark;
    for (RequestNum n = 10; n < 100; ++n) {
      EXPECT_FALSE(d.accept(conn(), n, MessageKind::kRequest))
          << "late copy of " << n << " after trim at " << watermark;
    }
    for (RequestNum n = 0; n < std::min<RequestNum>(watermark, 10); ++n) {
      EXPECT_FALSE(d.accept(conn(), n, MessageKind::kReply)) << "below the watermark";
    }
    EXPECT_TRUE(d.accept(conn(), std::max<RequestNum>(watermark, 100), MessageKind::kReply));
  }
}

TEST(Dedup, SeenNeitherRecordsNorCounts) {
  DuplicateSuppressor d;
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(d.seen(conn(), 7, MessageKind::kRequest));
  EXPECT_EQ(d.size(), 0u);
  EXPECT_EQ(d.stats().accepted + d.stats().suppressed, 0u);
  EXPECT_TRUE(d.accept(conn(), 7, MessageKind::kRequest));
  EXPECT_TRUE(d.seen(conn(), 7, MessageKind::kRequest));
  EXPECT_EQ(d.stats().suppressed, 0u);
  // suppress_seen counts a seen copy and records an unseen one not at all.
  EXPECT_TRUE(d.suppress_seen(conn(), 7, MessageKind::kRequest));
  EXPECT_FALSE(d.suppress_seen(conn(), 8, MessageKind::kRequest));
  EXPECT_FALSE(d.seen(conn(), 8, MessageKind::kRequest));
  EXPECT_EQ(d.stats().suppressed, 1u);
  EXPECT_EQ(d.size(), 1u);
}

// 2 bits per request number: 10 000 requests and their replies fit in a
// few KiB (the std::set this replaced held ~800 KB for the same run).
TEST(Dedup, RetainedMemoryStaysBoundedForSequentialRequests) {
  DuplicateSuppressor d;
  const std::size_t before = heap_in_use();
  for (RequestNum n = 1; n <= 10000; ++n) {
    ASSERT_TRUE(d.accept(conn(), n, MessageKind::kRequest));
    ASSERT_TRUE(d.accept(conn(), n, MessageKind::kReply));
  }
  EXPECT_EQ(d.size(), 20000u);
  EXPECT_LE(heap_in_use() - before, 6u * 1024u);
}

// A huge first number anchors the window; the normal numbers that follow
// take it over after one sparse entry instead of each costing one for good.
TEST(Dedup, HugeFirstNumberDoesNotHoldTheWindow) {
  DuplicateSuppressor d;
  const std::size_t before = heap_in_use();
  const RequestNum huge = (RequestNum{1} << 62) - 1;
  EXPECT_TRUE(d.accept(conn(), huge, MessageKind::kRequest));
  for (RequestNum n = 1; n <= 10000; ++n) {
    ASSERT_TRUE(d.accept(conn(), n, MessageKind::kRequest));
    ASSERT_TRUE(d.accept(conn(), n, MessageKind::kReply));
  }
  EXPECT_EQ(d.size(), 20001u);
  EXPECT_LE(heap_in_use() - before, 6u * 1024u);
  EXPECT_FALSE(d.accept(conn(), huge, MessageKind::kRequest));
  for (RequestNum n = 1; n <= 10000; n += 999) {
    EXPECT_FALSE(d.accept(conn(), n, MessageKind::kReply)) << n;
  }
}

// Hostile numbers sprayed between normal ones each cost one sparse entry;
// they never take the window from the normal traffic.
TEST(Dedup, SprayedFarNumbersDoNotTakeTheWindow) {
  DuplicateSuppressor d;
  for (RequestNum n = 1; n <= 4000; ++n) {
    ASSERT_TRUE(d.accept(conn(), n, MessageKind::kRequest));
    const RequestNum hostile = (RequestNum{1} << 50) + n * 4 * DuplicateSuppressor::kMaxGap;
    ASSERT_TRUE(d.accept(conn(), hostile, MessageKind::kRequest));
  }
  EXPECT_EQ(d.size(), 8000u);
  // A cluster of hostile numbers outnumbering the window's does take it;
  // nothing is lost, and normal traffic then takes it back.
  DuplicateSuppressor e;
  const RequestNum far = RequestNum{1} << 50;
  for (RequestNum n = 1; n <= 10; ++n) ASSERT_TRUE(e.accept(conn(), n, MessageKind::kRequest));
  for (RequestNum n = 0; n < 20; ++n) ASSERT_TRUE(e.accept(conn(), far + n, MessageKind::kRequest));
  for (RequestNum n = 11; n <= 100; ++n) ASSERT_TRUE(e.accept(conn(), n, MessageKind::kRequest));
  EXPECT_EQ(e.size(), 120u);
  for (RequestNum n = 1; n <= 100; ++n) EXPECT_FALSE(e.seen(conn(), n, MessageKind::kReply)) << n;
  for (RequestNum n = 1; n <= 100; ++n) EXPECT_TRUE(e.seen(conn(), n, MessageKind::kRequest)) << n;
  for (RequestNum n = 0; n < 20; ++n) EXPECT_TRUE(e.seen(conn(), far + n, MessageKind::kRequest));
  e.trim(conn(), 50);
  EXPECT_EQ(e.size(), 71u);
}

}  // namespace
}  // namespace ftcorba::ft
