/**
 * @file
 * Cross-module edge cases: degenerate geometries, boundary
 * parameters, and documented corner-case semantics.
 */

#include <gtest/gtest.h>

#include "common/order_stat_index.hh"
#include "ranking/coarse_ts_lru_ranking.hh"
#include "sim/experiment.hh"
#include "stats/histogram.hh"
#include "trace/next_use_annotator.hh"

namespace fscache
{
namespace
{

TEST(EdgeCases, IndexDescendingInserts)
{
    // Every insert lands at the front of the first block, so the
    // first block splits over and over.
    LineHandles handles(1000);
    OrderStatIndex<LineKey> t(handles);
    for (std::uint64_t k = 1000; k-- > 0;)
        t.insert({k, static_cast<LineId>(k)});
    EXPECT_EQ(t.size(), 1000u);
    for (std::uint32_t k = 0; k < 1000; k += 111) {
        EXPECT_EQ(t.kth(k).primary, k);
        EXPECT_EQ(t.rankOf(k), k);
    }
    EXPECT_EQ(t.auditInvariants(), "");
}

TEST(EdgeCases, HistogramQuantileExtremes)
{
    Histogram h(0.0, 1.0, 10);
    for (int i = 0; i < 100; ++i)
        h.add(0.55);
    EXPECT_LE(h.quantile(0.0), 0.1);
    EXPECT_NEAR(h.quantile(1.0), 0.6, 1e-9);
}

TEST(EdgeCases, SingleSetCache)
{
    // 16 lines, 16 ways: one set, R = whole cache.
    CacheSpec spec;
    spec.array.numLines = 16;
    spec.array.ways = 16;
    spec.ranking = RankKind::ExactLru;
    spec.scheme.kind = SchemeKind::Fs;
    spec.numParts = 2;
    auto cache = buildCache(spec);
    cache->setTargets({8, 8});
    Rng rng(1);
    for (int i = 0; i < 2000; ++i) {
        auto part = static_cast<PartId>(rng.below(2));
        cache->access(part, (part + 1) * 1000 + rng.below(30));
    }
    EXPECT_EQ(cache->actualSize(0) + cache->actualSize(1), 16u);
    EXPECT_NEAR(cache->actualSize(0), 8.0, 3.0);
}

TEST(EdgeCases, SingleLinePerPartitionTargets)
{
    CacheSpec spec;
    spec.array.numLines = 64;
    spec.array.ways = 16;
    spec.scheme.kind = SchemeKind::Fs;
    spec.numParts = 2;
    auto cache = buildCache(spec);
    cache->setTargets({63, 1});
    Rng rng(2);
    for (int i = 0; i < 5000; ++i) {
        auto part = static_cast<PartId>(rng.below(2));
        cache->access(part, (part + 1) * 1000 + rng.below(100));
    }
    // The tiny partition is squeezed hard but never vanishes for
    // long; no crashes and conservation holds.
    EXPECT_EQ(cache->actualSize(0) + cache->actualSize(1), 64u);
}

TEST(EdgeCases, SharedAddressAcrossPartitions)
{
    // An address installed by partition 0 and later touched by
    // partition 1 is a *hit* for the requester, and the line stays
    // owned by the installer (threads have disjoint address spaces
    // in the experiments; this pins the facade's semantics).
    CacheSpec spec;
    spec.array.numLines = 64;
    spec.array.ways = 16;
    spec.scheme.kind = SchemeKind::None;
    spec.numParts = 2;
    auto cache = buildCache(spec);
    EXPECT_FALSE(cache->access(0, 42).hit);
    EXPECT_TRUE(cache->access(1, 42).hit);
    EXPECT_EQ(cache->stats(1).hits, 1u);
    EXPECT_EQ(cache->actualSize(0), 1u);
    EXPECT_EQ(cache->actualSize(1), 0u);
}

TEST(EdgeCases, PrismWindowOne)
{
    PrismConfig cfg;
    cfg.window = 1;
    CacheSpec spec;
    spec.array.numLines = 64;
    spec.array.ways = 16;
    spec.scheme.kind = SchemeKind::Prism;
    spec.scheme.prism = cfg;
    spec.numParts = 2;
    auto cache = buildCache(spec);
    cache->setTargets({32, 32});
    Rng rng(3);
    for (int i = 0; i < 3000; ++i) {
        auto part = static_cast<PartId>(rng.below(2));
        cache->access(part, (part + 1) * 1000 + rng.below(80));
    }
    EXPECT_EQ(cache->actualSize(0) + cache->actualSize(1), 64u);
}

TEST(EdgeCases, FsIntervalOne)
{
    FsFeedbackConfig cfg;
    cfg.intervalLength = 1;
    CacheSpec spec;
    spec.array.numLines = 256;
    spec.array.ways = 16;
    spec.scheme.kind = SchemeKind::Fs;
    spec.scheme.fs = cfg;
    spec.numParts = 2;
    auto cache = buildCache(spec);
    cache->setTargets({192, 64});
    Rng rng(4);
    for (int i = 0; i < 10000; ++i) {
        auto part = static_cast<PartId>(rng.below(2));
        cache->access(part, (part + 1) * 1000 + rng.below(400));
    }
    EXPECT_NEAR(cache->actualSize(0), 192.0, 40.0);
}

TEST(EdgeCases, CoarseTsWideTimestamps)
{
    TagStore tags(64);
    CoarseTsLruRanking rank(64, &tags, 16, 16);
    EXPECT_EQ(rank.tsMax(), 0xffffu);
    tags.install(0, 1, 0);
    rank.onInstall(0, 0, kNeverUsed);
    EXPECT_LE(rank.schemeFutility(0), 1.0);
}

TEST(EdgeCases, AnnotateTwiceIsIdempotent)
{
    Workload wl = Workload::duplicate("gromacs", 1, 500, 9);
    wl.annotateNextUse();
    std::vector<AccessTime> first;
    for (int i = 0; i < 500; ++i)
        first.push_back(wl.thread(0).trace[i].nextUse);
    wl.annotateNextUse();
    for (int i = 0; i < 500; ++i)
        EXPECT_EQ(wl.thread(0).trace[i].nextUse, first[i]);
}

TEST(EdgeCases, ZeroTargetPartitionUnderFs)
{
    CacheSpec spec;
    spec.array.numLines = 256;
    spec.array.ways = 16;
    spec.scheme.kind = SchemeKind::Fs;
    spec.numParts = 2;
    auto cache = buildCache(spec);
    cache->setTargets({256, 0});
    Rng rng(5);
    for (int i = 0; i < 10000; ++i) {
        auto part = static_cast<PartId>(rng.below(2));
        cache->access(part, (part + 1) * 1000 + rng.below(400));
    }
    // The zero-target partition is squeezed to (near) nothing.
    EXPECT_LT(cache->actualSize(1), 32u);
}

TEST(EdgeCases, EmptyCandidateFutilityNeverNegativeForValid)
{
    CacheSpec spec;
    spec.array.kind = ArrayKind::RandomCands;
    spec.array.numLines = 128;
    spec.array.randomCands = 8;
    spec.ranking = RankKind::Random;
    spec.scheme.kind = SchemeKind::None;
    spec.numParts = 1;
    auto cache = buildCache(spec);
    Rng rng(6);
    for (int i = 0; i < 3000; ++i) {
        AccessOutcome out = cache->access(0, rng.below(1000));
        if (out.evicted) {
            EXPECT_GT(out.victimFutility, 0.0);
        }
    }
}

} // namespace
} // namespace fscache
