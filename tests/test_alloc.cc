/**
 * @file
 * Allocation policy tests: equal/proportional shares, QoS targets,
 * UCP lookahead.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "alloc/qos_alloc.hh"
#include "alloc/static_alloc.hh"
#include "alloc/utility_alloc.hh"

namespace fscache
{
namespace
{

TEST(StaticAlloc, EqualShareExact)
{
    Allocation a = equalShare(100, 3);
    EXPECT_EQ(a.size(), 3u);
    EXPECT_EQ(std::accumulate(a.begin(), a.end(), 0u), 100u);
    EXPECT_EQ(a[0], 34u);
    EXPECT_EQ(a[1], 33u);
    EXPECT_EQ(a[2], 33u);
}

TEST(StaticAlloc, ProportionalShareExactSum)
{
    Allocation a = proportionalShare(1000, {1.0, 2.0, 7.0});
    EXPECT_EQ(std::accumulate(a.begin(), a.end(), 0u), 1000u);
    EXPECT_EQ(a[0], 100u);
    EXPECT_EQ(a[1], 200u);
    EXPECT_EQ(a[2], 700u);
}

TEST(StaticAlloc, ProportionalRounding)
{
    Allocation a = proportionalShare(10, {1.0, 1.0, 1.0});
    EXPECT_EQ(std::accumulate(a.begin(), a.end(), 0u), 10u);
    for (auto v : a)
        EXPECT_GE(v, 3u);
}

TEST(QosAlloc, PaperConfiguration)
{
    // 8MB / 64B = 131072 lines; 4 subjects at 4096 lines each;
    // 28 background threads split the rest.
    Allocation a = qosAllocation(131072, 32, 4, 4096);
    EXPECT_EQ(a.size(), 32u);
    for (std::uint32_t p = 0; p < 4; ++p)
        EXPECT_EQ(a[p], 4096u);
    std::uint64_t rest = 131072 - 4 * 4096;
    std::uint64_t sum = 0;
    for (std::uint32_t p = 4; p < 32; ++p) {
        EXPECT_NEAR(a[p], rest / 28.0, 1.0);
        sum += a[p];
    }
    EXPECT_EQ(sum, rest);
}

TEST(QosAlloc, AllSubjects)
{
    Allocation a = qosAllocation(131072, 32, 32, 4096);
    for (auto v : a)
        EXPECT_EQ(v, 4096u);
}

TEST(QosAlloc, NoSubjects)
{
    Allocation a = qosAllocation(1000, 4, 0, 0);
    EXPECT_EQ(std::accumulate(a.begin(), a.end(), 0u), 1000u);
}

TEST(UtilityAlloc, PrefersSteeperCurve)
{
    // Partition 0 gains 100 misses per block; partition 1 gains 10.
    MissCurve steep{1000, 900, 800, 700, 600};
    MissCurve flat{1000, 990, 980, 970, 960};
    Allocation a =
        lookaheadAllocation({steep, flat}, 4, 64);
    EXPECT_EQ(a[0], 4u * 64u);
    EXPECT_EQ(a[1], 0u);
}

TEST(UtilityAlloc, LookaheadSeesThroughPlateau)
{
    // Partition 0: no gain for 1 block, huge gain at 3 blocks
    // (non-convex). Greedy-per-block would starve it; lookahead
    // must grant all 3.
    MissCurve cliff{1000, 1000, 1000, 100};
    MissCurve gentle{1000, 950, 900, 850};
    Allocation a = lookaheadAllocation({cliff, gentle}, 3, 1);
    EXPECT_EQ(a[0], 3u);
    EXPECT_EQ(a[1], 0u);
}

TEST(UtilityAlloc, SplitsWhenBothBenefit)
{
    MissCurve c0{100, 50, 25, 20, 19};
    MissCurve c1{100, 40, 30, 29, 28};
    Allocation a = lookaheadAllocation({c0, c1}, 4, 1);
    EXPECT_EQ(a[0] + a[1], 4u);
    EXPECT_GE(a[0], 1u);
    EXPECT_GE(a[1], 1u);
}

TEST(UtilityAlloc, FlatCurvesDontLoseCapacity)
{
    MissCurve f0{100, 100, 100};
    MissCurve f1{100, 100, 100};
    Allocation a = lookaheadAllocation({f0, f1}, 2, 10);
    EXPECT_EQ(a[0] + a[1], 20u);
}

} // namespace
} // namespace fscache
