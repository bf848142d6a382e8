#include "ranking/recency_ranking_base.hh"

#include <algorithm>

#include "common/bits.hh"
#include "common/log.hh"

namespace fscache
{

RecencyRankingBase::RecencyRankingBase(LineId num_lines)
    : axis_(num_lines), stampOf_(num_lines, 0),
      partOf_(num_lines, kInvalidPart), present_(num_lines, 0)
{
}

void
RecencyRankingBase::ensurePart(PartId part)
{
    if (part < fens_.size())
        return;
    // fs-analyze: allow(hot-path-alloc) one-time growth per
    // newly-seen partition id, bounded by the partition count
    // (witness: tests/test_hot_alloc.cc).
    fens_.resize(part + 1);
    // fs-analyze: allow(hot-path-alloc) see above.
    size_.resize(part + 1, 0);
    for (FenwickTree &fen : fens_) {
        if (fen.capacity() == 0)
            // fs-analyze: allow(hot-path-alloc) see above.
            fen.reset(axis_.capacity());
    }
}

std::uint32_t
RecencyRankingBase::stampNewest(LineId id)
{
    if (axis_.full())
        renumber();
    std::uint32_t pos = axis_.append(id);
    stampOf_[id] = pos;
    return pos;
}

void
RecencyRankingBase::renumber()
{
    axis_.compact();
    fs_assert(!axis_.full(), "stamp axis cannot hold its lines");
    // One pass over the compacted axis puts each line's bit in its
    // partition's words; each partition's word tree is then rebuilt
    // from its words alone.
    for (FenwickTree &fen : fens_)
        fen.clear();
    std::uint32_t live = axis_.end();
    for (std::uint32_t pos = 0; pos < live; ++pos) {
        LineId id = axis_.at(pos);
        stampOf_[id] = pos;
        fens_[partOf_[id]].setBulk(pos);
    }
    for (FenwickTree &fen : fens_)
        fen.recount();
}

void
RecencyRankingBase::placeNewest(LineId id, PartId part)
{
    fs_assert(!present_[id], "placing an already-present line");
    ensurePart(part);
    partOf_[id] = part;
    present_[id] = 1;
    fens_[part].mark(stampNewest(id));
    ++size_[part];
}

void
RecencyRankingBase::touchNewest(LineId id)
{
    fs_assert(present_[id], "touching an absent line");
    FenwickTree &fen = fens_[partOf_[id]];
    fen.unmark(stampOf_[id]);
    axis_.vacate(stampOf_[id]);
    fen.mark(stampNewest(id));
}

void
RecencyRankingBase::remove(LineId id)
{
    fs_assert(present_[id], "removing an absent line");
    PartId part = partOf_[id];
    fens_[part].unmark(stampOf_[id]);
    axis_.vacate(stampOf_[id]);
    --size_[part];
    present_[id] = 0;
    partOf_[id] = kInvalidPart;
}

void
RecencyRankingBase::onEvict(LineId id)
{
    remove(id);
}

void
RecencyRankingBase::onRelocate(LineId from, LineId to)
{
    fs_assert(present_[from] && !present_[to],
              "bad relocation in ranking");
    // The stamp is positional metadata that follows the line: the
    // order (and so every rank) is untouched, no Fenwick changes.
    std::uint32_t pos = stampOf_[from];
    axis_.set(pos, to);
    stampOf_[to] = pos;
    partOf_[to] = partOf_[from];
    present_[to] = 1;
    present_[from] = 0;
    partOf_[from] = kInvalidPart;
}

void
RecencyRankingBase::onRetag(LineId id, PartId new_part)
{
    fs_assert(present_[id], "retag of an absent line");
    // The line keeps its stamp — its recency relative to every other
    // line is unchanged — but its mark moves between the partition
    // Fenwicks, exactly like a keyed ranking's key moving between
    // partition indexes with its old primary.
    PartId old_part = partOf_[id];
    std::uint32_t pos = stampOf_[id];
    ensurePart(new_part);
    fens_[old_part].unmark(pos);
    --size_[old_part];
    fens_[new_part].mark(pos);
    ++size_[new_part];
    partOf_[id] = new_part;
}

double
RecencyRankingBase::exactFutility(LineId id) const
{
    double out;
    exactFutilityManyImpl(std::span<const LineId>(&id, 1), &out);
    return out;
}

void
RecencyRankingBase::exactFutilityManyImpl(
    std::span<const LineId> ids, double *out) const
{
    for (std::size_t i = 0; i < ids.size(); ++i) {
        LineId id = ids[i];
        fs_assert(present_[id], "futility of an absent line");
        PartId part = partOf_[id];
        std::uint32_t size = size_[part];
        std::uint32_t rank =
            size - fens_[part].countBelow(stampOf_[id]);
        out[i] = static_cast<double>(rank) /
                 static_cast<double>(size);
    }
}

LineId
RecencyRankingBase::worstIn(PartId part) const
{
    // Navigate off the Fenwick's own total, not size_: the fault
    // hook may have drifted the counter, and navigation must stay
    // safe under that damage (audits, not crashes, report it).
    if (part >= fens_.size() || fens_[part].total() == 0)
        return kInvalidLine;
    return axis_.at(fens_[part].lowest());
}

std::uint32_t
RecencyRankingBase::partLines(PartId part) const
{
    return part < size_.size() ? size_[part] : 0;
}

bool
RecencyRankingBase::corruptRankNodeForFaultInjection()
{
    // The recency analog of the keyed rankings' index size bump:
    // silently inflate the first non-empty partition's resident-line
    // counter. Navigation never reads it
    // (see worstIn), so the damage is crash-safe and visible only to
    // the occupancy-sum audit and the deep self-audit below.
    for (std::uint32_t &size : size_) {
        if (size > 0) {
            ++size;
            return true;
        }
    }
    return false;
}

std::string
RecencyRankingBase::auditInvariants() const
{
    // Stamp axis <-> line metadata: axis_/stampOf_ must be inverse
    // over present lines, and nothing may sit past axis_.end().
    std::uint32_t live = 0;
    for (std::uint32_t pos = 0; pos < axis_.capacity(); ++pos) {
        LineId id = axis_.at(pos);
        if (id == kInvalidLine)
            continue;
        if (pos >= axis_.end()) {
            return strprintf("line %u at unallocated stamp %u", id,
                             pos);
        }
        if (id >= present_.size() || present_[id] == 0) {
            return strprintf("absent line %u on the stamp axis",
                             id);
        }
        if (stampOf_[id] != pos) {
            return strprintf("line %u at stamp %u but mapped to %u",
                             id, pos, stampOf_[id]);
        }
        ++live;
    }
    std::uint32_t presentLines = 0;
    for (LineId id = 0; id < present_.size(); ++id) {
        if (present_[id] == 0) {
            if (partOf_[id] != kInvalidPart) {
                return strprintf("absent line %u still mapped to "
                                 "partition %u", id,
                                 static_cast<unsigned>(partOf_[id]));
            }
            continue;
        }
        ++presentLines;
        if (partOf_[id] >= fens_.size()) {
            return strprintf("present line %u in untracked "
                             "partition %u", id,
                             static_cast<unsigned>(partOf_[id]));
        }
        if (axis_.at(stampOf_[id]) != id) {
            return strprintf("present line %u missing from the "
                             "stamp axis", id);
        }
    }
    if (presentLines != live) {
        return strprintf("%u present lines but %u stamps live",
                         presentLines, live);
    }

    // Per-partition mark words vs. the axis, one word of stamps at a
    // time; then each word tree's counts against its words, and the
    // size counters (the corruption arm's target) against the
    // totals.
    for (std::size_t p = 0; p < fens_.size(); ++p) {
        if (fens_[p].capacity() != axis_.capacity()) {
            return strprintf("partition %zu fenwick spans %u stamps "
                             "of %u", p, fens_[p].capacity(),
                             axis_.capacity());
        }
    }
    std::vector<std::uint64_t> want(fens_.size());
    std::uint32_t words = fens_.empty() ? 0 : fens_[0].words();
    for (std::uint32_t w = 0; w < words; ++w) {
        std::fill(want.begin(), want.end(), 0);
        for (std::uint32_t b = 0; b < 64 && 64 * w + b < axis_.end();
             ++b) {
            LineId id = axis_.at(64 * w + b);
            if (id != kInvalidLine)
                want[partOf_[id]] |= std::uint64_t{1} << b;
        }
        for (std::size_t p = 0; p < fens_.size(); ++p) {
            if (fens_[p].word(w) != want[p]) {
                return strprintf("partition %zu mark word %u is "
                                 "%016llx (want %016llx)", p, w,
                                 static_cast<unsigned long long>(
                                     fens_[p].word(w)),
                                 static_cast<unsigned long long>(
                                     want[p]));
            }
        }
    }
    for (std::size_t p = 0; p < fens_.size(); ++p) {
        const FenwickTree &fen = fens_[p];
        for (std::uint32_t w = 0; w < fen.words(); ++w) {
            std::uint32_t hi = std::min(64 * w + 64, fen.capacity());
            std::uint32_t counted =
                fen.countBelow(hi) - fen.countBelow(64 * w);
            if (counted != popcount64(fen.word(w))) {
                return strprintf("partition %zu fenwick counts %u "
                                 "marks in word %u (want %u)", p,
                                 counted, w,
                                 popcount64(fen.word(w)));
            }
        }
        if (fen.countBelow(fen.capacity()) != fen.total()) {
            return strprintf("partition %zu fenwick total %u but "
                             "prefix sum %u", p, fen.total(),
                             fen.countBelow(fen.capacity()));
        }
        if (size_[p] != fen.total()) {
            return strprintf("partition %zu counts %u lines but "
                             "its fenwick holds %u", p, size_[p],
                             fen.total());
        }
    }
    return std::string();
}

} // namespace fscache
