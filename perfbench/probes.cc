/**
 * @file
 * Inner-layer probes of the traced run. Each probe warms a fresh
 * cache with the workload's probe input (runUntimed), then times one
 * layer's public calls over the input's own address stream. They run
 * after every sweep cell's digest is taken and on caches of their
 * own, so they cannot affect results.
 *
 * The calls are timed in bulk (one clock pair around a loop over
 * precomputed inputs), so clock reads stay out of the per-call cost.
 */

#include <algorithm>
#include <span>

#include "perfbench.hh"

namespace fspb
{

namespace
{

/** At most this many accesses of the input drive each probe. */
constexpr std::size_t kProbeOps = 20000;

struct Op
{
    PartId part;
    Addr addr;
    AccessTime nextUse;
};

/** The input's replay order (round-robin over threads), evenly
 *  subsampled to at most kProbeOps accesses. */
std::vector<Op>
probeOps(const Workload &wl)
{
    std::vector<Op> all;
    std::vector<std::uint64_t> pos(wl.threadCount(), 0);
    bool any = true;
    while (any) {
        any = false;
        for (std::uint32_t t = 0; t < wl.threadCount(); ++t) {
            const TraceBuffer &trace = wl.thread(t).trace;
            if (pos[t] >= trace.size())
                continue;
            any = true;
            const Access &a = trace[pos[t]++];
            all.push_back({static_cast<PartId>(t), a.addr, a.nextUse});
        }
    }
    const std::size_t stride =
        std::max<std::size_t>(1, all.size() / kProbeOps);
    std::vector<Op> out;
    for (std::size_t i = 0; i < all.size(); i += stride)
        out.push_back(all[i]);
    return out;
}

double
perCallNs(std::uint64_t t0, std::uint64_t t1, std::uint64_t calls)
{
    return calls ? static_cast<double>(t1 - t0) / calls : 0.0;
}

class Prober
{
  public:
    Prober(const BenchWorkload &wl, SpanLog &log, std::uint32_t root)
        : in_(wl.probeInput()), log_(log), root_(root)
    {
    }

    void
    run(MetricMap &out)
    {
        probeTrace(out);
        ops_ = probeOps(annotated_);

        // The FS + coarse-timestamp cache carries the cache, scoring
        // and replay probes.
        std::uint64_t b0 = nowNs();
        auto fs = build(SchemeKind::Fs, RankKind::CoarseTsLru);
        std::uint64_t b1 = nowNs();
        runUntimed(*fs, annotated_, 0.2);
        span("sim.replay", b1, nowNs());
        out["cache.build_s"] = nsToS(b1 - b0);
        std::uint64_t hits = 0, misses = 0;
        for (PartId p = 0; p < fs->numPartitions(); ++p) {
            hits += fs->stats(p).hits;
            misses += fs->stats(p).misses;
        }
        out["sim.miss_ratio"] =
            static_cast<double>(misses) / std::max<std::uint64_t>(
                                              1, hits + misses);

        probeCache(*fs, out);
        probeFutility(*fs, out);
        probeSchemes(*fs, out);
        probeOnHit(*fs, out);
        probeTiming(out);
    }

  private:
    void
    span(const char *name, std::uint64_t t0, std::uint64_t t1)
    {
        log_.add(name, t0, t1, root_, -1);
    }

    std::unique_ptr<PartitionedCache>
    build(SchemeKind scheme, RankKind rank)
    {
        CacheSpec c;
        c.array = in_.array;
        // Way partitioning needs a set-associative array.
        if (scheme == SchemeKind::WayPart)
            c.array.kind = ArrayKind::SetAssoc;
        c.ranking = rank;
        c.scheme.kind = scheme;
        c.scheme.ways = c.array.ways;
        c.numParts = in_.parts;
        c.seed = 17;
        std::uint64_t t0 = nowNs();
        auto cache = buildCache(c);
        cache->setTargets(in_.targets);
        span("cache.build", t0, nowNs());
        return cache;
    }

    /** build() and warm with the probe input. */
    std::unique_ptr<PartitionedCache>
    warm(SchemeKind scheme, RankKind rank)
    {
        auto cache = build(scheme, rank);
        std::uint64_t t0 = nowNs();
        runUntimed(*cache, annotated_, 0.2);
        span("sim.replay", t0, nowNs());
        return cache;
    }

    void
    probeTrace(MetricMap &out)
    {
        std::uint64_t t0 = nowNs();
        annotated_ = in_.generate();
        std::uint64_t t1 = nowNs();
        annotated_.annotateNextUse();
        std::uint64_t t2 = nowNs();
        span("trace.generate", t0, t1);
        span("trace.annotate", t1, t2);
        accesses_ = workloadAccesses(annotated_);
        out["trace.generate_s"] = nsToS(t1 - t0);
        out["trace.generate_ns_per_access"] =
            static_cast<double>(t1 - t0) / accesses_;
        out["trace.annotate_s"] = nsToS(t2 - t1);
        out["trace.accesses"] = static_cast<double>(accesses_);
    }

    /** TagStore::lookup and CacheArray::collectCandidates. */
    void
    probeCache(PartitionedCache &cache, MetricMap &out)
    {
        const TagStore &tags = cache.array().tags();
        std::uint64_t found = 0;
        std::uint64_t t0 = nowNs();
        for (const Op &op : ops_)
            found += tags.lookup(op.addr) != kInvalidLine;
        std::uint64_t t1 = nowNs();
        span("cache.probe", t0, t1);
        out["cache.probe_ns"] = perCallNs(t0, t1, ops_.size());
        out["cache.probe_hit_ratio"] =
            static_cast<double>(found) / ops_.size();

        std::vector<LineId> slots;
        std::uint64_t total = 0;
        t0 = nowNs();
        for (const Op &op : ops_) {
            cache.array().collectCandidates(op.addr, slots);
            total += slots.size();
        }
        t1 = nowNs();
        span("cache.candidates", t0, t1);
        out["cache.candidates_ns"] = perCallNs(t0, t1, ops_.size());
        out["cache.candidates_per_call"] =
            static_cast<double>(total) / ops_.size();
    }

    /** Valid candidate lines of every op, flattened. */
    void
    candidateLists(PartitionedCache &cache, std::vector<LineId> &flat,
                   std::vector<std::size_t> &offs)
    {
        const TagStore &tags = cache.array().tags();
        std::vector<LineId> slots;
        flat.clear();
        offs.assign(1, 0);
        for (const Op &op : ops_) {
            cache.array().collectCandidates(op.addr, slots);
            for (LineId s : slots)
                if (tags.line(s).valid)
                    flat.push_back(s);
            offs.push_back(flat.size());
        }
    }

    /** FutilityRanking::schemeFutilityMany per candidate list. */
    void
    probeFutility(PartitionedCache &cache, MetricMap &out)
    {
        std::vector<LineId> flat;
        std::vector<std::size_t> offs;
        candidateLists(cache, flat, offs);
        std::vector<double> fut(flat.size());
        std::uint64_t t0 = nowNs();
        for (std::size_t i = 0; i + 1 < offs.size(); ++i)
            cache.ranking().schemeFutilityMany(
                std::span<const LineId>(flat.data() + offs[i],
                                        offs[i + 1] - offs[i]),
                fut.data() + offs[i]);
        std::uint64_t t1 = nowNs();
        span("ranking.futility_many", t0, t1);
        out["ranking.futility_many_ns"] =
            perCallNs(t0, t1, offs.size() - 1);
    }

    /** PartitionScheme::selectVictim, per scheme, on candidate sets
     *  built exactly as the facade builds them. */
    void
    probeSchemes(PartitionedCache &fs, MetricMap &out)
    {
        const std::pair<SchemeKind, const char *> schemes[] = {
            {SchemeKind::None, "none"},
            {SchemeKind::PF, "pf"},
            {SchemeKind::Fs, "fs"},
            {SchemeKind::FsAnalytic, "fs_analytic"},
            {SchemeKind::Vantage, "vantage"},
            {SchemeKind::Prism, "prism"},
            {SchemeKind::WayPart, "waypart"},
        };
        for (const auto &[kind, label] : schemes) {
            std::unique_ptr<PartitionedCache> own;
            if (kind != SchemeKind::Fs)
                own = warm(kind, RankKind::CoarseTsLru);
            PartitionedCache &cache = own ? *own : fs;
            const TagStore &tags = cache.array().tags();

            std::vector<CandidateSoA> sets;
            std::vector<PartId> incoming;
            std::vector<LineId> slots;
            sets.reserve(ops_.size());
            for (const Op &op : ops_) {
                // As the facade builds them: every slot, invalid ones
                // with no partition and futility -1.
                cache.array().collectCandidates(op.addr, slots);
                CandidateSoA c;
                bool any_valid = false;
                for (LineId s : slots) {
                    const Line &l = tags.line(s);
                    c.push(s, l.valid ? l.part : kInvalidPart, -1.0);
                    if (l.valid)
                        cache.ranking().schemeFutilityMany(
                            std::span<const LineId>(&s, 1),
                            &c.futility.back());
                    any_valid |= l.valid;
                }
                if (!any_valid)
                    continue;
                sets.push_back(std::move(c));
                incoming.push_back(op.part);
            }
            std::uint64_t t0 = nowNs();
            for (std::size_t i = 0; i < sets.size(); ++i)
                cache.scheme().selectVictim(sets[i], incoming[i]);
            std::uint64_t t1 = nowNs();
            span("partition.select_victim", t0, t1);
            out[std::string("partition.select_victim_ns.") + label] =
                perCallNs(t0, t1, sets.size());
        }
    }

    /** FutilityRanking::onHit for the Fenwick-backed rankings (LRU,
     *  coarse) and the treap-backed ones (OPT, LFU, RRIP, Random). */
    void
    probeOnHit(PartitionedCache &fs, MetricMap &out)
    {
        auto time_hits = [this](PartitionedCache &cache,
                                std::uint64_t &calls) {
            const TagStore &tags = cache.array().tags();
            std::vector<std::pair<LineId, AccessTime>> hits;
            for (const Op &op : ops_) {
                LineId id = tags.lookup(op.addr);
                if (id != kInvalidLine)
                    hits.emplace_back(id, op.nextUse);
            }
            std::uint64_t t0 = nowNs();
            for (const auto &[id, next] : hits)
                cache.ranking().onHit(id, next);
            std::uint64_t t1 = nowNs();
            span("ranking.on_hit", t0, t1);
            calls += hits.size();
            return t1 - t0;
        };

        std::uint64_t ns = 0, calls = 0;
        ns += time_hits(fs, calls);
        ns += time_hits(*warm(SchemeKind::Fs, RankKind::ExactLru), calls);
        out["ranking.on_hit_ns.fenwick"] =
            calls ? static_cast<double>(ns) / calls : 0.0;

        ns = calls = 0;
        for (RankKind r : {RankKind::Opt, RankKind::Lfu, RankKind::Rrip,
                           RankKind::Random})
            ns += time_hits(*warm(SchemeKind::Fs, r), calls);
        out["ranking.on_hit_ns.treap"] =
            calls ? static_cast<double>(ns) / calls : 0.0;
    }

    /**
     * TimingSim::run minus runUntimed on an identical fresh cell,
     * per access. Both run twice on warm memory and the faster of
     * each pair counts, so first-touch page faults cancel out; the
     * untimed figure is also sim.replay_ns_per_access.
     */
    void
    probeTiming(MetricMap &out)
    {
        std::uint64_t untimed = ~0ull, timed = ~0ull;
        double queueing = 0.0;
        TimingConfig cfg;
        cfg.warmupFraction = 0.2;
        for (int pass = 0; pass < 2; ++pass) {
            auto plain = build(SchemeKind::Fs, RankKind::CoarseTsLru);
            std::uint64_t t0 = nowNs();
            runUntimed(*plain, annotated_, cfg.warmupFraction);
            std::uint64_t t1 = nowNs();
            span("sim.replay", t0, t1);
            untimed = std::min(untimed, t1 - t0);

            auto cache = build(SchemeKind::Fs, RankKind::CoarseTsLru);
            TimingSim sim(*cache, annotated_, cfg);
            t0 = nowNs();
            sim.run();
            t1 = nowNs();
            span("sim.timing", t0, t1);
            timed = std::min(timed, t1 - t0);
            queueing = sim.memory().avgQueueing();
        }
        out["sim.replay_ns_per_access"] =
            static_cast<double>(untimed) / accesses_;
        out["sim.timing_ns_per_access"] =
            (static_cast<double>(timed) - static_cast<double>(untimed)) /
            accesses_;
        out["sim.mem_avg_queueing_cycles"] = queueing;
    }

    ProbeInput in_;
    SpanLog &log_;
    std::uint32_t root_;
    Workload annotated_;
    std::uint64_t accesses_ = 0;
    std::vector<Op> ops_;
};

} // namespace

void
runProbes(const BenchWorkload &wl, SpanLog &log, std::uint32_t root,
          MetricMap &out)
{
    Prober(wl, log, root).run(out);
}

} // namespace fspb
