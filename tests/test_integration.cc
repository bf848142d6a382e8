/**
 * @file
 * End-to-end statistical properties from the paper, verified on
 * real simulations (moderate sizes for test runtime):
 *
 *  - a non-partitioned random-candidates cache follows the x^R
 *    associativity law (AEF = R/(R+1));
 *  - analytic FS enforces sizes statistically while the unscaled
 *    partition keeps full R-candidate associativity (Fig. 4/5);
 *  - feedback FS converges to targets on a real set-assoc array;
 *  - PF's associativity collapses as N -> R (Fig. 2);
 *  - PriSM's abnormality rate explodes at N = 2R (Sec. VIII.A);
 *  - miss curves decrease with cache size;
 *  - a fixed seed reproduces golden counters and analytic values.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "analytic/assoc_model.hh"
#include "analytic/scaling_solver.hh"
#include "partition/futility_scaling_analytic.hh"
#include "sim/experiment.hh"
#include "trace/benchmark_profiles.hh"
#include "trace/stack_dist_generator.hh"

namespace fscache
{
namespace
{

/** A reuse-heavy generator whose stack depths span the cache. */
std::unique_ptr<TraceSource>
reuseSource(Addr base, std::uint64_t max_depth, std::uint64_t seed)
{
    StackDistConfig cfg;
    cfg.pNew = 0.05;
    cfg.depth = DepthDist::logUniform(1, max_depth);
    cfg.maxResident = max_depth * 2;
    cfg.meanInstrGap = 1;
    return std::make_unique<StackDistGenerator>(cfg, base, Rng(seed));
}

/** Largest gap between a partition's eviction-futility CDF and
 *  `model`, over the 100 histogram bin edges (a Kolmogorov-Smirnov
 *  distance). */
template <typename Model>
double
cdfGap(const AssocDistribution &dist, Model model)
{
    double worst = 0.0;
    for (int b = 0; b < 100; ++b)
        worst = std::max(worst, std::fabs(dist.cdfAt((b + 0.5) / 100) -
                                          model((b + 1) / 100.0)));
    return worst;
}

TEST(Integration, RandomCandsFollowsXPowerRLaw)
{
    CacheSpec spec;
    spec.array.kind = ArrayKind::RandomCands;
    spec.array.numLines = 8192;
    spec.array.randomCands = 16;
    spec.ranking = RankKind::ExactLru;
    spec.scheme.kind = SchemeKind::None;
    spec.numParts = 1;
    auto cache = buildCache(spec);

    std::vector<std::unique_ptr<TraceSource>> src;
    src.push_back(reuseSource(0, 1 << 15, 21));
    driveByInsertionRate(*cache, src, {1.0}, 60000, 20000, 3);

    double aef = cache->assocDist(0).aef();
    EXPECT_NEAR(aef, 16.0 / 17.0, 0.015);
    // CDF at 0.8 should be near 0.8^16 ~ 0.028.
    EXPECT_NEAR(cache->assocDist(0).cdfAt(0.8), std::pow(0.8, 16),
                0.03);
}

TEST(Integration, FsAnalyticSizingAndAssociativity)
{
    // Figure 4/5 setup: two equal-pressure threads, targets 90/10.
    constexpr LineId kLines = 8192;
    CacheSpec spec;
    spec.array.kind = ArrayKind::RandomCands;
    spec.array.numLines = kLines;
    spec.array.randomCands = 16;
    spec.ranking = RankKind::ExactLru;
    spec.scheme.kind = SchemeKind::FsAnalytic;
    spec.numParts = 2;
    auto cache = buildCache(spec);
    cache->setTargets({kLines * 9 / 10, kLines / 10});

    auto &fs = dynamic_cast<FutilityScalingAnalytic &>(
        cache->scheme());
    double alpha2 = analytic::scalingFactorTwoPart(0.9, 0.5, 16);
    fs.setScalingFactor(0, 1.0);
    fs.setScalingFactor(1, alpha2);

    std::vector<std::unique_ptr<TraceSource>> src;
    src.push_back(reuseSource(0, 1 << 15, 31));
    src.push_back(reuseSource(1ull << 48, 1 << 15, 32));
    driveByInsertionRate(*cache, src, {0.5, 0.5}, 80000, 30000, 7);

    // Sizing: mean occupancy statistically near target (Fig. 5).
    EXPECT_NEAR(cache->deviation(0).meanOccupancy(),
                kLines * 0.9, kLines * 0.02);
    EXPECT_NEAR(cache->deviation(1).meanOccupancy(),
                kLines * 0.1, kLines * 0.02);

    // Associativity: the unscaled partition keeps the x^R law;
    // the scaled one degrades but stays far above 0.5 (Fig. 4).
    EXPECT_NEAR(cache->assocDist(0).aef(), 16.0 / 17.0, 0.02);
    double aef2 = cache->assocDist(1).aef();
    EXPECT_GT(aef2, 0.72);
    EXPECT_LT(aef2, 0.93);
}

TEST(Integration, FsFeedbackConvergesToTargets)
{
    constexpr LineId kLines = 8192;
    CacheSpec spec;
    spec.array.kind = ArrayKind::SetAssoc;
    spec.array.numLines = kLines;
    spec.array.ways = 16;
    spec.array.hash = HashKind::XorFold;
    spec.ranking = RankKind::CoarseTsLru;
    spec.scheme.kind = SchemeKind::Fs;
    spec.numParts = 2;
    auto cache = buildCache(spec);
    // Asymmetric targets under symmetric pressure.
    cache->setTargets({kLines * 3 / 4, kLines / 4});

    std::vector<std::unique_ptr<TraceSource>> src;
    src.push_back(reuseSource(0, 1 << 15, 41));
    src.push_back(reuseSource(1ull << 48, 1 << 15, 42));
    driveByInsertionRate(*cache, src, {0.5, 0.5}, 60000, 40000, 11);

    EXPECT_NEAR(cache->deviation(0).meanOccupancy(), kLines * 0.75,
                kLines * 0.05);
    EXPECT_NEAR(cache->deviation(1).meanOccupancy(), kLines * 0.25,
                kLines * 0.05);
}

TEST(Integration, PfAssociativityCollapsesWithPartitions)
{
    // Same total pressure, N = 1 vs N = 16 partitions, R = 16.
    auto run = [](std::uint32_t parts) {
        constexpr LineId kLines = 8192;
        CacheSpec spec;
        spec.array.kind = ArrayKind::RandomCands;
        spec.array.numLines = kLines;
        spec.array.randomCands = 16;
        spec.ranking = RankKind::ExactLru;
        spec.scheme.kind = SchemeKind::PF;
        spec.numParts = parts;
        auto cache = buildCache(spec);
        std::vector<std::uint32_t> targets(parts, kLines / parts);
        cache->setTargets(targets);

        std::vector<std::unique_ptr<TraceSource>> src;
        std::vector<double> probs(parts, 1.0 / parts);
        for (std::uint32_t p = 0; p < parts; ++p)
            src.push_back(reuseSource(
                (static_cast<Addr>(p) + 1) << 48, 1 << 12, 50 + p));
        driveByInsertionRate(*cache, src, probs, 60000, 30000, 13);
        return cache->assocDist(0).aef();
    };

    double aef1 = run(1);
    double aef16 = run(16);
    EXPECT_GT(aef1, 0.9);   // paper: 0.95
    EXPECT_LT(aef16, 0.70); // paper: 0.60 at N=16
    EXPECT_GT(aef16, 0.45); // but no worse than random
}

TEST(Integration, PrismAbnormalityRateAtScale)
{
    // N = 32 partitions, R = 16 candidates: the partition-selection
    // step rarely finds a candidate (paper reports > 70%).
    constexpr LineId kLines = 16384;
    CacheSpec spec;
    spec.array.kind = ArrayKind::RandomCands;
    spec.array.numLines = kLines;
    spec.array.randomCands = 16;
    spec.ranking = RankKind::ExactLru;
    spec.scheme.kind = SchemeKind::Prism;
    spec.numParts = 32;
    auto cache = buildCache(spec);
    cache->setTargets(std::vector<std::uint32_t>(32, kLines / 32));

    std::vector<std::unique_ptr<TraceSource>> src;
    std::vector<double> probs(32, 1.0 / 32);
    for (std::uint32_t p = 0; p < 32; ++p)
        src.push_back(reuseSource(
            (static_cast<Addr>(p) + 1) << 48, 1 << 10, 90 + p));
    driveByInsertionRate(*cache, src, probs, 40000, 20000, 17);

    auto &prism = dynamic_cast<PrismScheme &>(cache->scheme());
    EXPECT_GT(prism.abnormalityRate(), 0.5);
}

TEST(Integration, MissCurvesDecreaseWithSize)
{
    std::vector<LineId> sizes{2048, 8192, 32768};
    auto misses = measureMissCurve("gromacs", sizes, 60000,
                                   RankKind::ExactLru, 23);
    ASSERT_EQ(misses.size(), 3u);
    EXPECT_GT(misses[0], misses[1]);
    EXPECT_GE(misses[1], misses[2]);
}

TEST(Integration, FsDeviationSmallButNonzero)
{
    // Fig. 5: FS trades a small temporal deviation for
    // associativity; MAD stays well under 1% of the cache.
    constexpr LineId kLines = 8192;
    CacheSpec spec;
    spec.array.kind = ArrayKind::RandomCands;
    spec.array.numLines = kLines;
    spec.array.randomCands = 16;
    spec.ranking = RankKind::ExactLru;
    spec.scheme.kind = SchemeKind::FsAnalytic;
    spec.numParts = 2;
    auto cache = buildCache(spec);
    cache->setTargets({kLines / 2, kLines / 2});
    // Equal everything: alphas stay 1.

    std::vector<std::unique_ptr<TraceSource>> src;
    src.push_back(reuseSource(0, 1 << 14, 61));
    src.push_back(reuseSource(1ull << 48, 1 << 14, 62));
    driveByInsertionRate(*cache, src, {0.5, 0.5}, 60000, 30000, 19);

    double mad = cache->deviation(0).mad();
    EXPECT_GT(mad, 0.0);
    EXPECT_LT(mad, kLines * 0.02);
}

/** The whole x^R CDF, not just its mean and one point, and its R = 1
 *  counterpart: a random ranking evicts uniform futility. */
TEST(Integration, XPowerRLawHoldsAsFullCdf)
{
    for (RankKind rank : {RankKind::ExactLru, RankKind::Random}) {
        CacheSpec spec;
        spec.array.kind = ArrayKind::RandomCands;
        spec.array.numLines = 8192;
        spec.array.randomCands = 16;
        spec.ranking = rank;
        spec.scheme.kind = SchemeKind::None;
        spec.numParts = 1;
        auto cache = buildCache(spec);

        const bool lru = rank == RankKind::ExactLru;
        std::vector<std::unique_ptr<TraceSource>> src;
        src.push_back(reuseSource(0, 1 << 15, lru ? 77 : 78));
        driveByInsertionRate(*cache, src, {1.0}, 60000, 20000, 3);

        double r = lru ? 16.0 : 1.0;
        EXPECT_LT(cdfGap(cache->assocDist(0),
                         [r](double x) { return std::pow(x, r); }),
                  0.03)
            << (lru ? "ExactLru" : "Random");
    }
}

/**
 * Golden determinism: a fixed seed must always produce the exact
 * same counters. Guards against accidental behavioural drift in
 * any layer (generator, hashing, ranking, scheme). If a change is
 * *intended* to alter behaviour, update the golden values.
 */
TEST(Golden, FixedSeedCountersStable)
{
    CacheSpec spec;
    spec.array.kind = ArrayKind::SetAssoc;
    spec.array.numLines = 4096;
    spec.array.ways = 16;
    spec.array.hash = HashKind::XorFold;
    spec.ranking = RankKind::CoarseTsLru;
    spec.scheme.kind = SchemeKind::Fs;
    spec.numParts = 2;
    spec.seed = 2024;
    auto run = [&] {
        auto cache = buildCache(spec);
        cache->setTargets({3072, 1024});
        Workload wl = Workload::mix({"gromacs", "lbm"}, 30000, 77);
        runUntimed(*cache, wl, 0.2);
        return std::make_pair(cache->stats(0).misses,
                              cache->stats(1).misses);
    };
    auto a = run();
    auto b = run();
    EXPECT_EQ(a, b);
    // Golden values for this exact configuration and seed.
    EXPECT_EQ(a.first + a.second, 27045u);
}

TEST(Golden, AnalyticValuesStable)
{
    EXPECT_NEAR(analytic::scalingFactorTwoPart(0.9, 0.5, 16),
                1.6241134, 1e-6);
    EXPECT_NEAR(analytic::scalingFactorTwoPart(0.8, 0.1, 16),
                2.8348467, 1e-6);
}

} // namespace
} // namespace fscache
