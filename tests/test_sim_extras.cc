/**
 * @file
 * Tests for the RRIP futility ranking, alone and under FS.
 */

#include <gtest/gtest.h>

#include <memory>

#include "ranking/rrip_ranking.hh"
#include "sim/experiment.hh"

namespace fscache
{
namespace
{

TEST(Rrip, InsertionIsLongNotDistant)
{
    RripRanking r(8);
    r.onInstall(0, 0, kNeverUsed);
    EXPECT_EQ(r.rrpv(0), 2u); // 2^2 - 2 with default 2-bit RRPV
    r.onHit(0, kNeverUsed);
    EXPECT_EQ(r.rrpv(0), 0u);
}

TEST(Rrip, HitLinesOutrankFreshOnes)
{
    RripRanking r(8);
    r.onInstall(0, 0, kNeverUsed);
    r.onInstall(1, 0, kNeverUsed);
    r.onHit(0, kNeverUsed);
    // Line 1 (never hit, RRPV 2) is more futile than line 0.
    EXPECT_GT(r.schemeFutility(1), r.schemeFutility(0));
    EXPECT_EQ(r.worstIn(0), 1u);
}

TEST(Rrip, RecencyBreaksRrpvTies)
{
    RripRanking r(8);
    r.onInstall(0, 0, kNeverUsed);
    r.onInstall(1, 0, kNeverUsed);
    // Same RRPV; older line 0 must rank more futile.
    EXPECT_GT(r.schemeFutility(0), r.schemeFutility(1));
}

TEST(Rrip, ScanResistanceBeatsLruOnCyclicMix)
{
    // A reused core + a long scan: RRIP should keep the core and
    // beat exact LRU on hit ratio.
    auto run = [](RankKind rank) {
        CacheSpec spec;
        spec.array.numLines = 1024;
        spec.array.ways = 16;
        spec.ranking = rank;
        spec.scheme.kind = SchemeKind::None;
        spec.numParts = 1;
        auto cache = buildCache(spec);
        Rng rng(9);
        Addr scan = 1u << 20;
        std::uint64_t hits = 0, accesses = 0;
        for (int i = 0; i < 60000; ++i) {
            Addr a = rng.chance(0.5)
                         ? rng.below(512)  // reused core
                         : scan++;         // endless scan
            AccessOutcome out = cache->access(0, a);
            ++accesses;
            hits += out.hit;
        }
        return static_cast<double>(hits) / accesses;
    };
    double rrip_hits = run(RankKind::Rrip);
    double lru_hits = run(RankKind::ExactLru);
    EXPECT_GT(rrip_hits, lru_hits);
}

TEST(Rrip, WorksWithFsScheme)
{
    CacheSpec spec;
    spec.array.numLines = 1024;
    spec.array.ways = 16;
    spec.ranking = RankKind::Rrip;
    spec.scheme.kind = SchemeKind::Fs;
    spec.numParts = 2;
    auto cache = buildCache(spec);
    cache->setTargets({768, 256});
    Rng rng(4);
    for (int i = 0; i < 40000; ++i) {
        auto part = static_cast<PartId>(rng.below(2));
        cache->access(part, (part + 1) * 100000 + rng.below(1500));
    }
    EXPECT_NEAR(cache->actualSize(0), 768.0, 90.0);
    EXPECT_NEAR(cache->actualSize(1), 256.0, 90.0);
}

} // namespace
} // namespace fscache
