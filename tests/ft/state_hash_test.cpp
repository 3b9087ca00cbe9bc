// The state-transfer hashes: state_hash64 (XXH64, seed 0) feeds the rolling
// digest and the snapshot digest, so members built from the same sources
// must agree on it bit for bit; state_fnv1a64 stays available to
// applications with its output unchanged.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "ft/state_transfer.hpp"

namespace ftcorba::ft {
namespace {

/// A fixed, non-periodic byte pattern for the known-answer values.
Bytes pattern(std::size_t n) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(i * 131 + (i >> 8));
  }
  return out;
}

TEST(StateHash64, KnownAnswers) {
  // Published XXH64 vectors (seed 0).
  EXPECT_EQ(state_hash64(BytesView{}), 0xef46db3751d8e999ull);
  EXPECT_EQ(state_hash64(bytes_of("abc")), 0x44bc2cf5ad770999ull);
  // Every code path: tail only, a block boundary on either side, and a
  // large input through the four-lane loop.
  EXPECT_EQ(state_hash64(pattern(0)), 0xef46db3751d8e999ull);
  EXPECT_EQ(state_hash64(pattern(1)), 0xe934a84adb052768ull);
  EXPECT_EQ(state_hash64(pattern(31)), 0x1add2d10328c4897ull);
  EXPECT_EQ(state_hash64(pattern(32)), 0x333288d992cf3b16ull);
  EXPECT_EQ(state_hash64(pattern(33)), 0x379b60150f2cfc7full);
  EXPECT_EQ(state_hash64(pattern(1 << 20)), 0xdb9d70ec2be21cf3ull);
}

TEST(StateHash64, LengthIsFoldedIn) {
  // Zero bytes add nothing to the lanes, so only the length tells these
  // apart: appending zeros must still change the hash.
  const Bytes zeros(64, 0);
  std::set<std::uint64_t> seen;
  for (std::size_t n = 0; n <= zeros.size(); ++n) {
    seen.insert(state_hash64(BytesView{zeros.data(), n}));
  }
  EXPECT_EQ(seen.size(), zeros.size() + 1);
}

TEST(StateHash64, EveryBitFlipChangesTheHash) {
  Bytes buf = pattern(4096);
  const std::uint64_t base = state_hash64(buf);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      buf[i] ^= static_cast<std::uint8_t>(1u << bit);
      ASSERT_NE(state_hash64(buf), base) << "byte " << i << " bit " << bit;
      buf[i] ^= static_cast<std::uint8_t>(1u << bit);
    }
  }
}

TEST(StateFnv1a64, KnownAnswersUnchanged) {
  // Published FNV-1a/64 vectors.
  EXPECT_EQ(state_fnv1a64(BytesView{}), 0xcbf29ce484222325ull);
  EXPECT_EQ(state_fnv1a64(bytes_of("a")), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(state_fnv1a64(bytes_of("foobar")), 0x85944171f73967e8ull);
}

}  // namespace
}  // namespace ftcorba::ft
