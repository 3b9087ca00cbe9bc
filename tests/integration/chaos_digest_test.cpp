// Pinned chaos digests: seeds 1-6 of the CI smoke campaign shape (4
// processors, 8 s, 4 faults) under both ordering engines, with egress
// batching off and at a 1400-byte budget. A campaign digest folds every
// delivery and view record in order, so an unchanged digest means the
// protocol made the same decisions on the same wire traffic. A refactor of
// the ordering, stability or store layers must leave every value as is;
// only a change that means to alter protocol behaviour re-pins them, and
// says why.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <string>

#include "ftmp/chaos.hpp"

namespace ftcorba::ftmp::chaos {
namespace {

struct Pinned {
  OrderingMode mode;
  std::size_t batch;
  std::uint64_t seed;
  std::uint64_t digest;
};

constexpr OrderingMode kLamport = OrderingMode::kLamport;
constexpr OrderingMode kLlft = OrderingMode::kLlft;

constexpr Pinned kPinned[] = {
    {kLamport, 0, 1, 0xa4fd6e9ae27e13acull},
    {kLamport, 0, 2, 0x88949d357d53691aull},
    {kLamport, 0, 3, 0x66191274b39379d7ull},
    {kLamport, 0, 4, 0x4f95344623237d11ull},
    {kLamport, 0, 5, 0xb4ed900c4f38bfe9ull},
    {kLamport, 0, 6, 0x97d6ca679618d07cull},
    {kLamport, 1400, 1, 0xbf8ad53cf86f0240ull},
    {kLamport, 1400, 2, 0x684d274a78f6f122ull},
    {kLamport, 1400, 3, 0x5c92d8b31bad7c9dull},
    {kLamport, 1400, 4, 0x722dc7065072bb38ull},
    {kLamport, 1400, 5, 0xa8ad060ae48fe663ull},
    {kLamport, 1400, 6, 0x66376defe4d4f082ull},
    {kLlft, 0, 1, 0x3295b26210caacfcull},
    {kLlft, 0, 2, 0xe1c5389aed17f1ecull},
    {kLlft, 0, 3, 0x893abe51350701b7ull},
    {kLlft, 0, 4, 0x321cec406d88e297ull},
    {kLlft, 0, 5, 0xe75e8715a8650516ull},
    {kLlft, 0, 6, 0x23b2bee54ba03e8aull},
    {kLlft, 1400, 1, 0xd7a01a835b17beb4ull},
    {kLlft, 1400, 2, 0x41b136b5ec97cb7aull},
    {kLlft, 1400, 3, 0x1781d6807783744aull},
    {kLlft, 1400, 4, 0x9b18be5c1cfd362eull},
    {kLlft, 1400, 5, 0x39727a77bb67eb61ull},
    {kLlft, 1400, 6, 0x41a958fae2b7b75full},
};

void PrintTo(const Pinned& p, std::ostream* os) {
  *os << to_string(p.mode) << " batch " << p.batch << " seed " << p.seed;
}

class ChaosDigest : public ::testing::TestWithParam<Pinned> {};

TEST_P(ChaosDigest, MatchesPinnedValue) {
  const Pinned& p = GetParam();
  CampaignConfig cfg;
  cfg.seed = p.seed;
  cfg.params.processors = 4;
  cfg.params.duration = 8 * kSecond;
  cfg.params.faults = 4;
  cfg.ordering_mode = p.mode;
  cfg.batch_max_datagram_bytes = p.batch;
  const CampaignResult r = run_campaign(cfg);
  EXPECT_TRUE(r.ok());
  char got[32];
  char want[32];
  std::snprintf(got, sizeof got, "%016" PRIx64, r.digest);
  std::snprintf(want, sizeof want, "%016" PRIx64, p.digest);
  EXPECT_EQ(std::string(got), std::string(want))
      << "reproduce: chaos_campaign --seed " << p.seed
      << " --procs 4 --duration 8000 --faults 4 --ordering " << to_string(p.mode)
      << " --batch " << p.batch;
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, ChaosDigest, ::testing::ValuesIn(kPinned),
    [](const ::testing::TestParamInfo<Pinned>& param) {
      const Pinned& p = param.param;
      return std::string(to_string(p.mode)) + "_batch" + std::to_string(p.batch) +
             "_seed" + std::to_string(p.seed);
    });

}  // namespace
}  // namespace ftcorba::ftmp::chaos
