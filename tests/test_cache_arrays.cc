/**
 * @file
 * Cache array tests: tag store invariants, candidate discipline per
 * organization, zcache walk relocation, candidate uniformity of the
 * random-candidates array.
 */

#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "cache/array_factory.hh"
#include "cache/fully_assoc_array.hh"
#include "cache/random_cands_array.hh"
#include "cache/set_assoc_array.hh"
#include "cache/tag_store.hh"
#include "cache/zcache_array.hh"
#include "common/random.hh"

namespace fscache
{
namespace
{

TEST(TagStore, InstallLookupEvict)
{
    TagStore tags(16);
    EXPECT_EQ(tags.lookup(0xabc), kInvalidLine);
    tags.install(3, 0xabc, 1);
    EXPECT_EQ(tags.lookup(0xabc), 3u);
    EXPECT_EQ(tags.line(3).part, 1);
    EXPECT_EQ(tags.partSize(1), 1u);
    EXPECT_EQ(tags.validCount(), 1u);
    tags.evict(3);
    EXPECT_EQ(tags.lookup(0xabc), kInvalidLine);
    EXPECT_EQ(tags.partSize(1), 0u);
    EXPECT_EQ(tags.validCount(), 0u);
}

TEST(TagStore, RetagMovesOccupancy)
{
    TagStore tags(8);
    tags.install(0, 1, 0);
    tags.install(1, 2, 0);
    tags.retag(1, 5);
    EXPECT_EQ(tags.partSize(0), 1u);
    EXPECT_EQ(tags.partSize(5), 1u);
    EXPECT_EQ(tags.line(1).part, 5);
    EXPECT_EQ(tags.lookup(2), 1u); // address mapping unchanged
}

TEST(TagStore, MoveRelocatesAddress)
{
    TagStore tags(8);
    tags.install(2, 0x10, 3);
    tags.move(2, 6);
    EXPECT_EQ(tags.lookup(0x10), 6u);
    EXPECT_FALSE(tags.line(2).valid);
    EXPECT_TRUE(tags.line(6).valid);
    EXPECT_EQ(tags.line(6).part, 3);
    EXPECT_EQ(tags.partSize(3), 1u);
    EXPECT_EQ(tags.validCount(), 1u);
}

TEST(TagStore, PopFreeFillsWholeCache)
{
    TagStore tags(32);
    std::unordered_set<LineId> slots;
    for (Addr a = 0; a < 32; ++a) {
        LineId slot = tags.popFree();
        ASSERT_NE(slot, kInvalidLine);
        EXPECT_TRUE(slots.insert(slot).second);
        tags.install(slot, a, 0);
    }
    EXPECT_TRUE(tags.full());
    EXPECT_EQ(tags.popFree(), kInvalidLine);
}

TEST(TagStore, PopFreeSkipsStaleEntries)
{
    TagStore tags(4);
    // Install into free-list slots directly (as set-assoc does),
    // leaving stale free-list entries behind.
    tags.install(0, 10, 0);
    tags.install(1, 11, 0);
    tags.install(2, 12, 0);
    tags.install(3, 13, 0);
    tags.evict(2);
    LineId slot = tags.popFree();
    EXPECT_EQ(slot, 2u);
}

TEST(TagStore, ChainedMovesKeepLookupConsistent)
{
    // zcache makeRoom relocates whole ancestor chains; the address
    // index must track a line through several hops.
    TagStore tags(8);
    tags.install(1, 0x42, 0);
    tags.move(1, 3);
    tags.move(3, 5);
    tags.move(5, 0);
    EXPECT_EQ(tags.lookup(0x42), 0u);
    EXPECT_TRUE(tags.line(0).valid);
    EXPECT_FALSE(tags.line(1).valid);
    EXPECT_FALSE(tags.line(3).valid);
    EXPECT_FALSE(tags.line(5).valid);
    EXPECT_EQ(tags.partSize(0), 1u);
}

TEST(TagStore, MoveThenRetagThenEvict)
{
    TagStore tags(8);
    tags.install(2, 0x99, 1);
    tags.move(2, 7);
    tags.retag(7, 4);
    EXPECT_EQ(tags.lookup(0x99), 7u);
    EXPECT_EQ(tags.partSize(1), 0u);
    EXPECT_EQ(tags.partSize(4), 1u);
    tags.evict(7);
    EXPECT_EQ(tags.lookup(0x99), kInvalidLine);
    EXPECT_EQ(tags.partSize(4), 0u);
    EXPECT_EQ(tags.validCount(), 0u);
}

TEST(TagStore, ReinstallSameAddressDifferentSlot)
{
    TagStore tags(8);
    tags.install(0, 0x1000, 0);
    tags.evict(0);
    tags.install(5, 0x1000, 2);
    EXPECT_EQ(tags.lookup(0x1000), 5u);
    EXPECT_EQ(tags.line(5).part, 2);
}

TEST(TagStore, FullCapacityChurn)
{
    // Fill completely, then stream evict+reinstall cycles so the
    // address index works at its sizing limit (every slot valid)
    // with constant deletions — the regime where an open-addressing
    // index with tombstones would degrade.
    constexpr LineId kLines = 64;
    TagStore tags(kLines);
    for (Addr a = 0; a < kLines; ++a)
        tags.install(static_cast<LineId>(a), 0x5000 + a, 0);
    EXPECT_TRUE(tags.full());

    Rng rng(4096);
    std::vector<Addr> addrOf(kLines);
    for (LineId id = 0; id < kLines; ++id)
        addrOf[id] = 0x5000 + id;
    for (int round = 0; round < 4000; ++round) {
        auto id = static_cast<LineId>(rng.below(kLines));
        tags.evict(id);
        Addr fresh = 0x9000 + static_cast<Addr>(round);
        tags.install(id, fresh, 0);
        addrOf[id] = fresh;
    }
    EXPECT_EQ(tags.validCount(), kLines);
    for (LineId id = 0; id < kLines; ++id) {
        EXPECT_EQ(tags.lookup(addrOf[id]), id);
        EXPECT_EQ(tags.line(id).addr, addrOf[id]);
    }
    // All original addresses were replaced and must be gone.
    for (Addr a = 0; a < kLines; ++a)
        EXPECT_EQ(tags.lookup(0x5000 + a), kInvalidLine);
}

TEST(SetAssoc, CandidatesAreTheSet)
{
    SetAssocArray arr(64, 4, HashKind::Modulo, 1);
    EXPECT_EQ(arr.sets(), 16u);
    EXPECT_EQ(arr.candidateCount(), 4u);
    std::vector<LineId> cands;
    arr.collectCandidates(5, cands);
    ASSERT_EQ(cands.size(), 4u);
    // Modulo hash: addr 5 -> set 5 -> slots 20..23.
    for (std::uint32_t w = 0; w < 4; ++w)
        EXPECT_EQ(cands[w], 20u + w);
}

TEST(SetAssoc, SameSetForAliasedAddresses)
{
    SetAssocArray arr(64, 4, HashKind::Modulo, 1);
    std::vector<LineId> a, b;
    arr.collectCandidates(7, a);
    arr.collectCandidates(7 + 16, b); // same set mod 16
    EXPECT_EQ(a, b);
}

TEST(SetAssoc, DirectMappedSingleCandidate)
{
    SetAssocArray arr(32, 1, HashKind::XorFold, 1);
    std::vector<LineId> cands;
    arr.collectCandidates(123, cands);
    EXPECT_EQ(cands.size(), 1u);
}

TEST(RandomCands, DistinctAndUniform)
{
    RandomCandsArray arr(1024, 16, Rng(7));
    std::vector<LineId> cands;
    std::vector<int> hits(1024, 0);
    for (int r = 0; r < 4000; ++r) {
        arr.collectCandidates(0, cands);
        ASSERT_EQ(cands.size(), 16u);
        std::unordered_set<LineId> uniq(cands.begin(), cands.end());
        EXPECT_EQ(uniq.size(), 16u);
        for (LineId c : cands)
            ++hits[c];
    }
    // 64000 draws over 1024 slots: expect ~62.5 each.
    for (int h : hits)
        EXPECT_NEAR(h, 62.5, 40.0);
}

TEST(FullyAssoc, Flags)
{
    FullyAssocArray arr(128);
    EXPECT_TRUE(arr.fullyAssociative());
    EXPECT_TRUE(arr.unrestrictedPlacement());
    EXPECT_EQ(arr.candidateCount(), 128u);
}

TEST(ZCache, FirstLevelCandidatesMatchHashes)
{
    ZCacheArray arr(256, 4, 1, 5);
    std::vector<LineId> cands;
    arr.collectCandidates(0x77, cands);
    // One candidate per bank at level 1 (dedup may only shrink).
    EXPECT_LE(cands.size(), 4u);
    EXPECT_GE(cands.size(), 1u);
    for (std::size_t i = 0; i < cands.size(); ++i)
        for (std::size_t j = i + 1; j < cands.size(); ++j)
            EXPECT_NE(cands[i], cands[j]);
}

TEST(ZCache, WalkExpandsWhenLinesValid)
{
    ZCacheArray arr(256, 4, 2, 5);
    TagStore &tags = arr.tags();
    // Fill the level-1 slots for some address so the walk can
    // expand through them.
    std::vector<LineId> l1;
    arr.collectCandidates(0x1234, l1);
    Addr filler = 0x9000;
    for (LineId slot : l1)
        tags.install(slot, filler++, 0);

    std::vector<LineId> cands;
    arr.collectCandidates(0x1234, cands);
    EXPECT_GT(cands.size(), l1.size());
    std::unordered_set<LineId> uniq(cands.begin(), cands.end());
    EXPECT_EQ(uniq.size(), cands.size());
}

TEST(ZCache, MakeRoomRelocatesChainCorrectly)
{
    ZCacheArray arr(256, 4, 2, 5);
    TagStore &tags = arr.tags();
    std::vector<LineId> l1;
    arr.collectCandidates(0x1234, l1);
    Addr filler = 0x9000;
    std::vector<Addr> installed;
    for (LineId slot : l1) {
        tags.install(slot, filler, 0);
        installed.push_back(filler);
        ++filler;
    }

    std::vector<LineId> cands;
    arr.collectCandidates(0x1234, cands);
    // Pick a second-level candidate (not in l1).
    LineId victim = kInvalidLine;
    std::unordered_set<LineId> l1set(l1.begin(), l1.end());
    for (LineId c : cands) {
        if (!l1set.count(c)) {
            victim = c;
            break;
        }
    }
    ASSERT_NE(victim, kInvalidLine);

    // Fill the victim slot so the walk chain is realistic.
    if (!tags.line(victim).valid)
        tags.install(victim, 0x8888, 0);
    LineId evicted_slot = victim;
    tags.evict(evicted_slot);

    int moves = 0;
    LineId hole = arr.makeRoom(0x1234, victim,
                               [&](LineId, LineId) { ++moves; });
    EXPECT_EQ(moves, 1);
    // The hole must be a level-1 slot of the incoming address.
    EXPECT_TRUE(l1set.count(hole));
    EXPECT_FALSE(tags.line(hole).valid);
    // All originally installed addresses are still findable.
    for (Addr a : installed)
        EXPECT_NE(tags.lookup(a), kInvalidLine);
}

TEST(ArrayFactory, BuildsEveryKind)
{
    for (ArrayKind kind :
         {ArrayKind::SetAssoc, ArrayKind::DirectMapped,
          ArrayKind::ZCache, ArrayKind::RandomCands,
          ArrayKind::FullyAssoc}) {
        ArrayConfig cfg;
        cfg.kind = kind;
        cfg.numLines = 256;
        auto arr = makeArray(cfg);
        ASSERT_NE(arr, nullptr);
        EXPECT_EQ(arr->numLines(), 256u);
        EXPECT_FALSE(arr->name().empty());
    }
    EXPECT_EQ(parseArrayKind("zcache"), ArrayKind::ZCache);
    EXPECT_EQ(parseArrayKind("setassoc"), ArrayKind::SetAssoc);
    // An unknown name fails loudly and lists the accepted kinds.
    EXPECT_DEATH(parseArrayKind("skew"),
                 "unknown array kind 'skew' \\(want setassoc[|]direct"
                 "[|]zcache[|]random[|]fullyassoc\\)");
}

} // namespace
} // namespace fscache
