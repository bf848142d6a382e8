/**
 * @file
 * Parameterized property sweeps: every (scheme x array x ranking)
 * combination must uphold the facade's structural invariants under
 * randomized traffic — occupancy conservation, owner-consistent
 * accounting, valid victim futilities, and hit correctness.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "alloc/static_alloc.hh"
#include "sim/experiment.hh"

namespace fscache
{
namespace
{

using Combo = std::tuple<SchemeKind, ArrayKind, RankKind>;

class SchemeArrayRanking
    : public ::testing::TestWithParam<Combo>
{
};

TEST_P(SchemeArrayRanking, StructuralInvariants)
{
    auto [scheme, array, rank] = GetParam();
    constexpr std::uint32_t kParts = 4;
    constexpr LineId kLines = 1024;

    CacheSpec spec;
    spec.array.kind = array;
    spec.array.numLines = kLines;
    spec.array.ways = 16;
    spec.array.banks = 4;
    spec.array.walkLevels = 2;
    spec.array.randomCands = 16;
    spec.ranking = rank;
    spec.scheme.kind = scheme;
    spec.scheme.ways = 16;
    spec.numParts = kParts;
    spec.seed = 77;
    auto cache = buildCache(spec);

    auto manageable = static_cast<LineId>(
        kLines * cache->scheme().managedFraction());
    cache->setTargets(equalShare(manageable, kParts));

    Rng rng(123);
    std::uint64_t evictions_seen = 0;
    for (int i = 0; i < 30000; ++i) {
        auto part = static_cast<PartId>(rng.below(kParts));
        Addr addr = (static_cast<Addr>(part) + 1) * 1000000 +
                    rng.below(700);
        AccessOutcome out = cache->access(part, addr, 1000000 - i);
        if (out.evicted) {
            ++evictions_seen;
            EXPECT_GT(out.victimFutility, 0.0);
            EXPECT_LE(out.victimFutility, 1.0);
            EXPECT_LT(out.victimOwner, kParts);
        }
    }
    EXPECT_GT(evictions_seen, 0u);

    // Occupancy conservation across all tag partitions (including
    // Vantage's unmanaged pseudo-partition).
    const TagStore &tags = cache->array().tags();
    std::uint64_t total = 0;
    for (PartId p = 0; p <= kParts; ++p)
        total += tags.partSize(p);
    EXPECT_EQ(total, tags.validCount());

    // Owner-based accounting: insertions - evictions equals the
    // ranking's per-owner line count.
    for (PartId p = 0; p < kParts; ++p) {
        const CachePartStats &st = cache->stats(p);
        EXPECT_EQ(st.insertions - st.evictions,
                  cache->ranking().partLines(p))
            << "partition " << p;
    }

    // A just-inserted line must hit immediately.
    AccessOutcome miss = cache->access(0, 42424242, kNeverUsed);
    EXPECT_FALSE(miss.hit);
    AccessOutcome hit = cache->access(0, 42424242, kNeverUsed);
    EXPECT_TRUE(hit.hit);
}

std::string
comboName(const ::testing::TestParamInfo<Combo> &info)
{
    auto [scheme, array, rank] = info.param;
    std::string name = schemeKindName(scheme);
    switch (array) {
      case ArrayKind::SetAssoc:
        name += "_setassoc";
        break;
      case ArrayKind::DirectMapped:
        name += "_direct";
        break;
      case ArrayKind::ZCache:
        name += "_zcache";
        break;
      case ArrayKind::RandomCands:
        name += "_random";
        break;
      case ArrayKind::FullyAssoc:
        name += "_fullyassoc";
        break;
    }
    switch (rank) {
      case RankKind::ExactLru:
        name += "_lru";
        break;
      case RankKind::CoarseTsLru:
        name += "_coarse";
        break;
      case RankKind::Lfu:
        name += "_lfu";
        break;
      case RankKind::Opt:
        name += "_opt";
        break;
      case RankKind::Random:
        name += "_rand";
        break;
      case RankKind::Rrip:
        name += "_rrip";
        break;
    }
    for (char &c : name)
        if (c == '-')
            c = '_';
    return name;
}

INSTANTIATE_TEST_SUITE_P(
    ReplacementSchemes, SchemeArrayRanking,
    ::testing::Combine(
        ::testing::Values(SchemeKind::None, SchemeKind::PF,
                          SchemeKind::Fs, SchemeKind::FsAnalytic,
                          SchemeKind::Vantage, SchemeKind::Prism),
        ::testing::Values(ArrayKind::SetAssoc, ArrayKind::ZCache,
                          ArrayKind::RandomCands, ArrayKind::FullyAssoc),
        ::testing::Values(RankKind::ExactLru, RankKind::CoarseTsLru,
                          RankKind::Lfu)),
    comboName);

/** Way partitioning needs a set-associative array. */
INSTANTIATE_TEST_SUITE_P(
    WayPartitioning, SchemeArrayRanking,
    ::testing::Combine(::testing::Values(SchemeKind::WayPart),
                       ::testing::Values(ArrayKind::SetAssoc),
                       ::testing::Values(RankKind::ExactLru,
                                         RankKind::CoarseTsLru)),
    comboName);

/** OPT ranking across schemes (annotation-driven usefulness). */
INSTANTIATE_TEST_SUITE_P(
    OptRanking, SchemeArrayRanking,
    ::testing::Combine(::testing::Values(SchemeKind::PF,
                                         SchemeKind::Fs),
                       ::testing::Values(ArrayKind::SetAssoc,
                                         ArrayKind::RandomCands),
                       ::testing::Values(RankKind::Opt)),
    comboName);

class DirectMappedSweep
    : public ::testing::TestWithParam<RankKind>
{
};

TEST_P(DirectMappedSweep, SingleCandidateAlwaysWorks)
{
    CacheSpec spec;
    spec.array.kind = ArrayKind::DirectMapped;
    spec.array.numLines = 512;
    spec.ranking = GetParam();
    spec.scheme.kind = SchemeKind::None;
    spec.numParts = 1;
    auto cache = buildCache(spec);
    cache->setTarget(0, 512);
    Rng rng(5);
    for (int i = 0; i < 20000; ++i)
        cache->access(0, rng.below(2000), 1000000 - i);
    EXPECT_GT(cache->stats(0).misses, 0u);
    EXPECT_GT(cache->stats(0).hits, 0u);
    // Direct-mapped eviction is rank-agnostic: AEF near 0.5.
    EXPECT_NEAR(cache->assocDist(0).aef(), 0.5, 0.12);
}

INSTANTIATE_TEST_SUITE_P(AllRankings, DirectMappedSweep,
                         ::testing::Values(RankKind::ExactLru,
                                           RankKind::CoarseTsLru,
                                           RankKind::Lfu,
                                           RankKind::Opt,
                                           RankKind::Random));

} // namespace
} // namespace fscache
