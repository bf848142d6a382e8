/**
 * @file
 * Runtime witness for the no-alloc-on-hot-path contract that
 * tools/fscache_analyze.py checks statically: after a warmup replay
 * has grown every amortized buffer (order-statistic index block
 * pools and directories, candidate buffers, batch outcome vectors,
 * eviction free lists) to its
 * high-water mark, a steady-state accessBatch() replay of the same
 * stream must perform ZERO heap allocations.
 *
 * Every allow(hot-path-alloc) directive in src/ that cites amortized
 * or bounded growth names this test as its witness — if a push_back
 * on the hot path ever starts reallocating per access, the static
 * analyzer stays quiet (the directive suppresses it) but this test
 * fails.
 *
 * The counting hook replaces global operator new/delete for the
 * whole test binary; gtest also allocates, so the zero-assert brackets
 * only the replay loop itself.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <unordered_map>
#include <vector>

#include "common/random.hh"
#include "sim/access_batch.hh"
#include "sim/experiment.hh"
#include "trace/stack_dist_generator.hh"

namespace
{

std::atomic<std::uint64_t> g_allocs{0};

void *
countedAlloc(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(std::size_t n)
{
    return countedAlloc(n);
}

void *
operator new[](std::size_t n)
{
    return countedAlloc(n);
}

void *
operator new(std::size_t n, std::align_val_t al)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::aligned_alloc(static_cast<std::size_t>(al),
                                     (n + static_cast<std::size_t>(al) - 1) &
                                         ~(static_cast<std::size_t>(al) - 1)))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n, std::align_val_t al)
{
    return operator new(n, al);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace fscache
{
namespace
{

CacheSpec
hotSpec()
{
    CacheSpec spec;
    spec.array.kind = ArrayKind::SetAssoc;
    spec.array.numLines = 256;
    spec.array.ways = 16;
    spec.ranking = RankKind::CoarseTsLru;
    spec.scheme.kind = SchemeKind::Fs;
    spec.numParts = 2;
    spec.seed = 11;
    return spec;
}

/** The hook itself must be live, or the zero-assert below proves
 *  nothing. */
TEST(HotPathAlloc, CountingHookIsInstalled)
{
    std::uint64_t before = g_allocs.load();
    auto *p = new int(42);
    EXPECT_GT(g_allocs.load(), before);
    delete p;
}

/**
 * Steady-state zero-allocation contract. Pass 1 replays the full
 * stream to grow every pool and scratch buffer to high water; pass 2
 * replays the identical stream through the same AccessBatch object
 * and must not touch the heap at all. The stream mixes hits, misses
 * and evictions (working set ≈ 600 lines > 256-line cache), so the
 * quiet pass exercises lookup, install, eviction and relocation
 * paths — not just hits.
 */
TEST(HotPathAlloc, SteadyStateBatchReplayAllocatesNothing)
{
    // The diagnostic layers are exempt from the contract (FS_COLD):
    // paranoid audits and the shadow model allocate by design.
    if (std::getenv("FS_AUDIT") != nullptr ||
        std::getenv("FS_SHADOW") != nullptr)
        GTEST_SKIP() << "audit/shadow diagnostics may allocate";

    constexpr std::size_t kStream = 20000;
    constexpr std::size_t kBatch = 512;

    Rng rng(777);
    std::vector<PartId> parts;
    std::vector<Addr> addrs;
    parts.reserve(kStream);
    addrs.reserve(kStream);
    for (std::size_t i = 0; i < kStream; ++i) {
        auto part = static_cast<PartId>(rng.below(2));
        parts.push_back(part);
        addrs.push_back((part + 1) * 1000000 + rng.below(600) * 64);
    }

    auto cache = buildCache(hotSpec());
    cache->setTargets({128, 128});

    AccessBatch batch;
    batch.reserve(kBatch);
    auto replay = [&] {
        for (std::size_t base = 0; base < kStream; base += kBatch) {
            batch.clear();
            std::size_t end = std::min(base + kBatch, kStream);
            for (std::size_t i = base; i < end; ++i)
                batch.push(parts[i], addrs[i]);
            cache->accessBatch(batch);
        }
    };

    replay(); // warmup: amortized growth to high water is allowed

    std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    replay(); // steady state: the hot path must not allocate
    std::uint64_t after = g_allocs.load(std::memory_order_relaxed);

    EXPECT_EQ(after - before, 0u)
        << "steady-state accessBatch replay hit operator new "
        << (after - before) << " time(s); some hot-path container "
        << "is growing per access, not amortized";
}

/** Same contract through the per-access API: access() is the other
 *  analyzer hot root and must also be heap-quiet once warm. */
TEST(HotPathAlloc, SteadyStatePerAccessReplayAllocatesNothing)
{
    if (std::getenv("FS_AUDIT") != nullptr ||
        std::getenv("FS_SHADOW") != nullptr)
        GTEST_SKIP() << "audit/shadow diagnostics may allocate";

    constexpr std::size_t kStream = 20000;
    Rng rng(778);
    std::vector<PartId> parts;
    std::vector<Addr> addrs;
    parts.reserve(kStream);
    addrs.reserve(kStream);
    for (std::size_t i = 0; i < kStream; ++i) {
        auto part = static_cast<PartId>(rng.below(2));
        parts.push_back(part);
        addrs.push_back((part + 1) * 1000000 + rng.below(600) * 64);
    }

    auto cache = buildCache(hotSpec());
    cache->setTargets({128, 128});

    for (std::size_t i = 0; i < kStream; ++i)
        cache->access(parts[i], addrs[i]);

    std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < kStream; ++i)
        cache->access(parts[i], addrs[i]);
    std::uint64_t after = g_allocs.load(std::memory_order_relaxed);

    EXPECT_EQ(after - before, 0u)
        << "steady-state access() replay hit operator new "
        << (after - before) << " time(s)";
}

/**
 * The keyed rankings (OPT, LFU, RRIP) keep one blocked
 * order-statistic index per partition, whose block pool and
 * directory grow by amortized doubling. Pass 1 grows them to high
 * water; pass 2 replays the same stream and must make zero calls to
 * operator new, through every split, merge and cross-block re-key.
 * The cache is large enough for dozens of blocks per partition, and
 * the stream's next-use annotations make OPT re-key lines to
 * arbitrary positions.
 */
class KeyedRankingHotAlloc : public ::testing::TestWithParam<RankKind>
{
};

TEST_P(KeyedRankingHotAlloc, SteadyStateReplayAllocatesNothing)
{
    if (std::getenv("FS_AUDIT") != nullptr ||
        std::getenv("FS_SHADOW") != nullptr)
        GTEST_SKIP() << "audit/shadow diagnostics may allocate";

    constexpr std::size_t kStream = 60000;
    constexpr std::size_t kBatch = 512;
    Rng rng(780);
    std::vector<PartId> parts(kStream);
    std::vector<Addr> addrs(kStream);
    std::vector<AccessTime> nextUse(kStream, kNeverUsed);
    for (std::size_t i = 0; i < kStream; ++i) {
        parts[i] = static_cast<PartId>(rng.below(2));
        addrs[i] = (parts[i] + 1) * 1000000 + rng.below(3000) * 64;
    }
    std::unordered_map<Addr, std::size_t> seen;
    for (std::size_t i = kStream; i-- > 0;) {
        auto it = seen.find(addrs[i]);
        if (it != seen.end())
            nextUse[i] = it->second;
        seen[addrs[i]] = i;
    }

    CacheSpec spec = hotSpec();
    spec.array.numLines = 4096;
    spec.ranking = GetParam();
    auto cache = buildCache(spec);
    cache->setTargets({2048, 2048});

    AccessBatch batch;
    batch.reserve(kBatch);
    auto replay = [&] {
        for (std::size_t base = 0; base < kStream; base += kBatch) {
            batch.clear();
            std::size_t end = std::min(base + kBatch, kStream);
            for (std::size_t i = base; i < end; ++i)
                batch.push(parts[i], addrs[i], nextUse[i]);
            cache->accessBatch(batch);
        }
    };

    replay(); // warmup: the pools grow to high water

    std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    replay();
    std::uint64_t after = g_allocs.load(std::memory_order_relaxed);

    EXPECT_EQ(after - before, 0u)
        << cache->ranking().name() << " steady-state replay hit "
        << "operator new " << (after - before) << " time(s)";
}

INSTANTIATE_TEST_SUITE_P(Rankings, KeyedRankingHotAlloc,
                         ::testing::Values(RankKind::Opt, RankKind::Lfu,
                                           RankKind::Rrip));

/**
 * The trace generator's per-access path is a hot root of its own:
 * once constructed, next() must not touch the heap, including the
 * stamp-axis compactions. The stack holds at most 1024 entries on a
 * 2048-stamp axis, so the axis never doubles, and 20000 accesses
 * append 20000 stamps — at least nine compactions.
 */
TEST(HotPathAlloc, StackDistGeneratorNextAllocatesNothing)
{
    StackDistConfig cfg;
    cfg.pNew = 0.1;
    cfg.depth = DepthDist::logUniform(1, 1024);
    cfg.maxResident = 1024;
    StackDistGenerator gen(cfg, 0, Rng(779));

    std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    Addr sum = 0;
    for (int i = 0; i < 20000; ++i)
        sum += gen.next().addr;
    std::uint64_t after = g_allocs.load(std::memory_order_relaxed);

    EXPECT_GT(sum, 0u);
    EXPECT_EQ(gen.resident(), 1024u);
    EXPECT_EQ(after - before, 0u)
        << "StackDistGenerator::next hit operator new "
        << (after - before) << " time(s)";
}

} // namespace
} // namespace fscache
