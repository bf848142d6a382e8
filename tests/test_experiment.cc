/**
 * @file
 * Experiment-harness tests: cache assembly from specs, the untimed
 * driver's warmup handling, insertion-rate control accuracy, and
 * target-proportional prefill.
 */

#include <gtest/gtest.h>

#include "core/cache_builder.hh"
#include "alloc/static_alloc.hh"
#include "sim/experiment.hh"
#include "trace/benchmark_profiles.hh"
#include "trace/stream_generator.hh"

namespace fscache
{
namespace
{

TEST(BuildCache, WiringMatchesSpec)
{
    CacheSpec spec;
    spec.array.kind = ArrayKind::ZCache;
    spec.array.numLines = 512;
    spec.array.banks = 4;
    spec.array.walkLevels = 2;
    spec.ranking = RankKind::Lfu;
    spec.scheme.kind = SchemeKind::Prism;
    spec.numParts = 3;
    auto cache = buildCache(spec);
    EXPECT_EQ(cache->cacheLines(), 512u);
    EXPECT_EQ(cache->numPartitions(), 3u);
    EXPECT_EQ(cache->array().name(), "zcache-4b-2l");
    EXPECT_EQ(cache->ranking().name(), "lfu");
    EXPECT_EQ(cache->scheme().name(), "prism");
}

TEST(CacheBuilder, SizeBytesToLines)
{
    auto cache = CacheBuilder()
                     .sizeBytes(1 << 20)
                     .lineBytes(64)
                     .setAssociative(16)
                     .scheme(SchemeKind::None)
                     .partitions(1)
                     .build();
    EXPECT_EQ(cache->cacheLines(), 16384u);
}

TEST(CacheBuilder, ExplicitLinesWin)
{
    auto cache = CacheBuilder()
                     .sizeBytes(1 << 20)
                     .lines(1024)
                     .setAssociative(4)
                     .build();
    EXPECT_EQ(cache->cacheLines(), 1024u);
}

TEST(CacheBuilder, AllArrayShapes)
{
    EXPECT_EQ(CacheBuilder().lines(256).directMapped().build()
                  ->array().candidateCount(), 1u);
    EXPECT_GT(CacheBuilder().lines(256).zcache(4, 2).build()
                  ->array().candidateCount(), 4u);
    EXPECT_EQ(CacheBuilder().lines(256).randomCandidates(8).build()
                  ->array().candidateCount(), 8u);
    EXPECT_TRUE(CacheBuilder().lines(256).fullyAssociative().build()
                    ->array().fullyAssociative());
}

TEST(RunUntimed, WarmupResetsStats)
{
    CacheSpec spec;
    spec.array.numLines = 256;
    spec.array.ways = 16;
    spec.scheme.kind = SchemeKind::None;
    spec.numParts = 1;
    auto cache = buildCache(spec);

    Workload wl = Workload::duplicate("h264ref", 1, 10000, 3);
    runUntimed(*cache, wl, 0.5);
    // Stats only cover the second half.
    EXPECT_LE(cache->stats(0).accesses(), 5001u);
    EXPECT_GE(cache->stats(0).accesses(), 4999u);
}

TEST(DriveByInsertionRate, FractionsEnforced)
{
    CacheSpec spec;
    spec.array.kind = ArrayKind::RandomCands;
    spec.array.numLines = 1024;
    spec.scheme.kind = SchemeKind::None;
    spec.numParts = 2;
    auto cache = buildCache(spec);
    cache->setTargets({512, 512});

    std::vector<std::unique_ptr<TraceSource>> src;
    src.push_back(std::make_unique<StreamGenerator>(0, 1, 1,
                                                    Rng(1)));
    src.push_back(std::make_unique<StreamGenerator>(1ull << 40, 1,
                                                    1, Rng(2)));
    driveByInsertionRate(*cache, src, {0.3, 0.7}, 20000, 1000, 5);

    double frac0 =
        static_cast<double>(cache->stats(0).insertions) /
        (cache->stats(0).insertions + cache->stats(1).insertions);
    EXPECT_NEAR(frac0, 0.3, 0.02);
}

TEST(DriveByInsertionRate, ZeroWeightPartitionStaysIdle)
{
    // QoS/occupancy sweeps deliberately idle a partition with
    // weight 0; that must not abort, and the idle partition must
    // receive no insertions (regression: cumulative() used to
    // assert every probability > 0).
    CacheSpec spec;
    spec.array.kind = ArrayKind::RandomCands;
    spec.array.numLines = 1024;
    spec.scheme.kind = SchemeKind::None;
    spec.numParts = 3;
    auto cache = buildCache(spec);
    cache->setTargets({512, 256, 256});

    std::vector<std::unique_ptr<TraceSource>> src;
    for (std::uint32_t t = 0; t < 3; ++t)
        src.push_back(std::make_unique<StreamGenerator>(
            static_cast<Addr>(t) << 40, 1, 1, Rng(t + 1)));
    std::vector<double> prefill{0.5, 0.0, 0.5};
    driveByInsertionRate(*cache, src, {0.6, 0.0, 0.4}, 5000, 500, 5,
                         &prefill);

    EXPECT_EQ(cache->stats(1).insertions, 0u);
    EXPECT_GT(cache->stats(0).insertions, 0u);
    EXPECT_GT(cache->stats(2).insertions, 0u);
    double frac0 =
        static_cast<double>(cache->stats(0).insertions) /
        (cache->stats(0).insertions + cache->stats(2).insertions);
    EXPECT_NEAR(frac0, 0.6, 0.03);
}

TEST(DriveByInsertionRate, PrefillReachesTargets)
{
    CacheSpec spec;
    spec.array.kind = ArrayKind::RandomCands;
    spec.array.numLines = 4096;
    spec.ranking = RankKind::ExactLru;
    spec.scheme.kind = SchemeKind::FsAnalytic;
    spec.numParts = 2;
    auto cache = buildCache(spec);
    cache->setTargets({4096 * 3 / 4, 4096 / 4});

    std::vector<std::unique_ptr<TraceSource>> src;
    src.push_back(std::make_unique<StreamGenerator>(0, 1, 1,
                                                    Rng(1)));
    src.push_back(std::make_unique<StreamGenerator>(1ull << 40, 1,
                                                    1, Rng(2)));
    std::vector<double> prefill{0.75, 0.25};
    // Zero post-warmup work: sizes must already be near target
    // right after the prefill + tiny warmup.
    driveByInsertionRate(*cache, src, {0.5, 0.5}, 200, 0, 5,
                         &prefill);
    EXPECT_NEAR(cache->actualSize(0), 3072.0, 160.0);
    EXPECT_NEAR(cache->actualSize(1), 1024.0, 160.0);
}

TEST(MeasureMissCurve, StreamingIsFlat)
{
    auto misses = measureMissCurve("lbm", {1024, 8192}, 20000,
                                   RankKind::ExactLru, 7);
    ASSERT_EQ(misses.size(), 2u);
    // Streaming: more cache barely helps.
    EXPECT_GT(misses[0], 0u);
    double ratio = static_cast<double>(misses[1]) / misses[0];
    EXPECT_GT(ratio, 0.8);
}

} // namespace
} // namespace fscache
