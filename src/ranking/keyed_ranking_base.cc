#include "ranking/keyed_ranking_base.hh"

#include "common/log.hh"

namespace fscache
{

KeyedRankingBase::KeyedRankingBase(LineId num_lines)
    : keyOf_(num_lines), partOf_(num_lines, kInvalidPart),
      present_(num_lines, 0)
{
}

OrderStatIndex<KeyedRankingBase::Key> &
KeyedRankingBase::indexFor(PartId part)
{
    if (part >= indexes_.size())
        // fs-analyze: allow(hot-path-alloc) one-time growth per
        // newly-seen partition id, bounded by the partition count
        // (witness: tests/test_hot_alloc.cc).
        indexes_.resize(part + 1);
    return indexes_[part];
}

const OrderStatIndex<KeyedRankingBase::Key> *
KeyedRankingBase::indexFor(PartId part) const
{
    return part < indexes_.size() ? &indexes_[part] : nullptr;
}

void
KeyedRankingBase::place(LineId id, PartId part, std::uint64_t primary)
{
    fs_assert(!present_[id], "placing an already-present line");
    Key key{primary, id};
    keyOf_[id] = key;
    partOf_[id] = part;
    present_[id] = 1;
    indexFor(part).insert(key);
}

void
KeyedRankingBase::reKey(LineId id, std::uint64_t primary)
{
    fs_assert(present_[id], "rekeying an absent line");
    Key key{primary, id};
    indexFor(partOf_[id]).reKey(keyOf_[id], key);
    keyOf_[id] = key;
}

void
KeyedRankingBase::remove(LineId id)
{
    fs_assert(present_[id], "removing an absent line");
    indexFor(partOf_[id]).erase(keyOf_[id]);
    present_[id] = 0;
    partOf_[id] = kInvalidPart;
}

void
KeyedRankingBase::onEvict(LineId id)
{
    remove(id);
}

void
KeyedRankingBase::onRelocate(LineId from, LineId to)
{
    fs_assert(present_[from] && !present_[to],
              "bad relocation in ranking");
    // Keys embed the line id for uniqueness, so the key changes.
    PartId part = partOf_[from];
    std::uint64_t primary = keyOf_[from].primary;
    remove(from);
    place(to, part, primary);
}

void
KeyedRankingBase::onRetag(LineId id, PartId new_part)
{
    fs_assert(present_[id], "retag of an absent line");
    std::uint64_t primary = keyOf_[id].primary;
    remove(id);
    place(id, new_part, primary);
}

double
KeyedRankingBase::exactFutility(LineId id) const
{
    double out;
    exactFutilityManyImpl(std::span<const LineId>(&id, 1), &out);
    return out;
}

void
KeyedRankingBase::exactFutilityManyImpl(std::span<const LineId> ids,
                                        double *out) const
{
    for (std::size_t i = 0; i < ids.size(); ++i) {
        LineId id = ids[i];
        fs_assert(present_[id], "futility of an absent line");
        const auto *index = indexFor(partOf_[id]);
        std::uint32_t size = index->size();
        std::uint32_t rank = size - index->countLess(keyOf_[id]);
        out[i] = static_cast<double>(rank) /
                 static_cast<double>(size);
    }
}

LineId
KeyedRankingBase::worstIn(PartId part) const
{
    const auto *index = indexFor(part);
    if (index == nullptr || index->empty())
        return kInvalidLine;
    return index->minKey().line;
}

std::uint32_t
KeyedRankingBase::partLines(PartId part) const
{
    const auto *index = indexFor(part);
    return index == nullptr ? 0 : index->size();
}

bool
KeyedRankingBase::corruptRankNodeForFaultInjection()
{
    for (auto &index : indexes_) {
        if (index.corruptSizeForFaultInjection())
            return true;
    }
    return false;
}

std::string
KeyedRankingBase::auditInvariants() const
{
    // Per-partition index structure first (order/counts/pool).
    std::uint32_t indexed = 0;
    for (std::size_t p = 0; p < indexes_.size(); ++p) {
        std::string err = indexes_[p].auditInvariants();
        if (!err.empty())
            return strprintf("partition %zu index: %s", p,
                             err.c_str());
        indexed += indexes_[p].size();
    }

    // Line metadata <-> index cross-consistency: every present line
    // is stored once, under its recorded partition and key.
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
        if (keyOf_[id].line != id) {
            return strprintf("line %u keyed as line %u", id,
                             keyOf_[id].line);
        }
        const auto *index = indexFor(partOf_[id]);
        if (index == nullptr || !index->contains(keyOf_[id])) {
            return strprintf(
                "present line %u missing from partition %u's "
                "index", id, static_cast<unsigned>(partOf_[id]));
        }
    }
    if (presentLines != indexed) {
        return strprintf("%u present lines but the indexes hold %u "
                         "keys", presentLines, indexed);
    }
    return std::string();
}

} // namespace fscache
