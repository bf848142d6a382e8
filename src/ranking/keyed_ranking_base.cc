#include "ranking/keyed_ranking_base.hh"

#include "common/log.hh"

namespace fscache
{

KeyedRankingBase::KeyedRankingBase(LineId num_lines)
    : handles_(num_lines), partOf_(num_lines, kInvalidPart)
{
}

OrderStatIndex<KeyedRankingBase::Key> &
KeyedRankingBase::indexFor(PartId part)
{
    while (part >= indexes_.size())
        // fs-analyze: allow(hot-path-alloc) one-time growth per
        // newly-seen partition id, bounded by the partition count
        // (witness: tests/test_hot_alloc.cc).
        indexes_.emplace_back(handles_);
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
    // insert() panics if the line is already held anywhere.
    partOf_[id] = part;
    indexFor(part).insert(Key{primary, id});
}

void
KeyedRankingBase::reKey(LineId id, std::uint64_t primary)
{
    fs_assert(handles_.holds(id), "rekeying an absent line");
    auto &index = indexFor(partOf_[id]);
    index.reKey(index.keyOf(id), Key{primary, id});
}

void
KeyedRankingBase::remove(LineId id)
{
    fs_assert(handles_.holds(id), "removing an absent line");
    auto &index = indexFor(partOf_[id]);
    index.erase(index.keyOf(id));
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
    fs_assert(handles_.holds(from) && !handles_.holds(to),
              "bad relocation in ranking");
    // Keys embed the line id for uniqueness, so the key changes.
    PartId part = partOf_[from];
    std::uint64_t primary = indexFor(part).keyOf(from).primary;
    remove(from);
    place(to, part, primary);
}

void
KeyedRankingBase::onRetag(LineId id, PartId new_part)
{
    fs_assert(handles_.holds(id), "retag of an absent line");
    std::uint64_t primary = indexFor(partOf_[id]).keyOf(id).primary;
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
        fs_assert(handles_.holds(id), "futility of an absent line");
        const auto *index = indexFor(partOf_[id]);
        std::uint32_t size = index->size();
        std::uint32_t rank = size - index->rankOf(id);
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
    // is stored once, under its recorded partition. (Each index's
    // audit has already checked that its keys' handles lead back to
    // them.)
    std::uint32_t presentLines = 0;
    for (LineId id = 0; id < partOf_.size(); ++id) {
        if (!handles_.holds(id)) {
            if (partOf_[id] != kInvalidPart) {
                return strprintf("absent line %u still mapped to "
                                 "partition %u", id,
                                 static_cast<unsigned>(partOf_[id]));
            }
            continue;
        }
        ++presentLines;
        const auto *index = indexFor(partOf_[id]);
        if (index == nullptr || !index->holds(id)) {
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
