/**
 * @file
 * The four benchmark workloads. Each is a sweep of independent
 * cells; each loads a different layer (README.md gives the reasons):
 *
 *  - replay_sweep: one 4-thread mix generated per sweep, replayed
 *    untimed across a scheme x array x ranking x size grid;
 *  - gen_heavy: fig2-style cells that each generate, annotate and
 *    replay their own 4 x mcf workload in a small cache;
 *  - timed_qos: the Section VIII QoS mix under TimingSim, one cell
 *    per treap-backed ranking and subject count;
 *  - farm_dispatch: thousands of near-empty cells on the process
 *    farm.
 *
 * Every random stream derives from the --seed argument and the cell
 * index, so a seed fixes every cell's simulated statistics.
 */

#include <algorithm>
#include <cmath>

#include "common/log.hh"
#include "perfbench.hh"
#include "sim/access_batch.hh"

namespace fspb
{

namespace
{

std::uint64_t
scaled(double scale, std::uint64_t n)
{
    return std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::llround(n * scale)));
}

/**
 * runUntimed() through the per-access API: the same round-robin
 * order and warm-up reset, one PartitionedCache::access() per
 * record instead of accessBatch(). The reference path for digests.
 */
void
replaySerial(PartitionedCache &cache, const Workload &wl,
             double warmup_fraction)
{
    const std::uint32_t n = wl.threadCount();
    const std::uint64_t total = workloadAccesses(wl);
    const auto warmup =
        static_cast<std::uint64_t>(warmup_fraction * total);
    std::vector<std::uint64_t> pos(n, 0);
    std::uint64_t issued = 0;
    bool reset = warmup == 0;
    while (issued < total) {
        for (std::uint32_t t = 0; t < n; ++t) {
            const TraceBuffer &trace = wl.thread(t).trace;
            if (pos[t] >= trace.size())
                continue;
            const Access &acc = trace[pos[t]++];
            cache.access(static_cast<PartId>(t), acc.addr,
                         acc.nextUse);
            ++issued;
            if (!reset && issued >= warmup) {
                cache.resetStats();
                reset = true;
            }
        }
    }
}

std::vector<std::uint32_t>
equalTargets(LineId lines, std::uint32_t parts)
{
    return std::vector<std::uint32_t>(parts, lines / parts);
}

const std::vector<std::string> kMix{"mcf", "omnetpp", "lbm",
                                    "gromacs"};

// ---------------------------------------------------------------

class ReplaySweep : public BenchWorkload
{
  public:
    ReplaySweep(std::uint64_t seed, double scale)
        : seed_(seed), accesses_(scaled(scale, 40000))
    {
        const SchemeKind schemes[] = {
            SchemeKind::None,    SchemeKind::PF,
            SchemeKind::Fs,      SchemeKind::FsAnalytic,
            SchemeKind::Vantage, SchemeKind::Prism,
            SchemeKind::WayPart};
        for (LineId lines : {LineId{8192}, LineId{16384}})
            for (SchemeKind s : schemes)
                for (ArrayKind a :
                     {ArrayKind::SetAssoc, ArrayKind::ZCache})
                    for (RankKind r :
                         {RankKind::CoarseTsLru, RankKind::ExactLru}) {
                        // Way partitioning is placement-based: it
                        // needs a set-associative array.
                        if (s == SchemeKind::WayPart &&
                            a != ArrayKind::SetAssoc)
                            continue;
                        grid_.push_back(spec(s, a, r, lines));
                    }
    }

    const char *name() const override { return "replay_sweep"; }
    std::size_t cells() const override { return grid_.size(); }
    std::size_t minRounds() const override { return 2; }

    std::string
    configKey() const override
    {
        return strprintf("replay_sweep;seed=%llu;acc=%llu",
                         static_cast<unsigned long long>(seed_),
                         static_cast<unsigned long long>(accesses_));
    }

    std::uint64_t
    prepare(std::vector<Phase> &phases, bool traced) override
    {
        std::uint64_t t0 = nowNs();
        mix_ = Workload::mix(kMix, accesses_, seed_);
        std::uint64_t t1 = nowNs();
        if (traced)
            phases.push_back({"trace.generate", t0, t1});
        return t1 - t0;
    }

    CellResult
    runCell(std::size_t cell, bool traced) override
    {
        CellResult r;
        PhaseClock clock(r, traced);
        const CacheSpec &s = grid_[cell];
        auto cache = buildCache(s);
        cache->setTargets(equalTargets(s.array.numLines, 4));
        r.setupNs = clock.mark("cache.build");
        runUntimed(*cache, mix_, 0.2);
        clock.mark("sim.replay");
        r.digest = cacheDigest(*cache);
        r.accesses = workloadAccesses(mix_);
        return r;
    }

    std::uint64_t
    referenceDigest(std::size_t cell) override
    {
        const CacheSpec &s = grid_[cell];
        auto cache = buildCache(s);
        cache->setTargets(equalTargets(s.array.numLines, 4));
        replaySerial(*cache, mix_, 0.2);
        return cacheDigest(*cache);
    }

    ProbeInput
    probeInput() const override
    {
        ProbeInput in;
        std::uint64_t acc = accesses_, seed = seed_;
        in.generate = [acc, seed] {
            return Workload::mix(kMix, acc, seed);
        };
        in.array = spec(SchemeKind::Fs, ArrayKind::ZCache,
                        RankKind::CoarseTsLru, 16384)
                       .array;
        in.parts = 4;
        in.targets = equalTargets(16384, 4);
        return in;
    }

  private:
    CacheSpec
    spec(SchemeKind s, ArrayKind a, RankKind r, LineId lines) const
    {
        CacheSpec c;
        c.array.kind = a;
        c.array.numLines = lines;
        c.array.ways = 16;
        c.array.hash = HashKind::XorFold;
        c.ranking = r;
        c.scheme.kind = s;
        c.scheme.ways = 16;
        c.numParts = 4;
        c.seed = seed_ + lines;
        return c;
    }

    std::uint64_t seed_;
    std::uint64_t accesses_;
    std::vector<CacheSpec> grid_;
    Workload mix_;
};

// ---------------------------------------------------------------

class GenHeavy : public BenchWorkload
{
  public:
    static constexpr std::size_t kCells = 8;
    static constexpr LineId kLines = 4096; // 1024 per partition

    GenHeavy(std::uint64_t seed, double scale)
        : seed_(seed), accesses_(scaled(scale, 40000))
    {
    }

    const char *name() const override { return "gen_heavy"; }
    std::size_t cells() const override { return kCells; }
    std::size_t minRounds() const override { return 5; }

    std::string
    configKey() const override
    {
        return strprintf("gen_heavy;seed=%llu;acc=%llu",
                         static_cast<unsigned long long>(seed_),
                         static_cast<unsigned long long>(accesses_));
    }

    CellResult
    runCell(std::size_t cell, bool traced) override
    {
        CellResult r;
        PhaseClock clock(r, traced);
        Workload wl = generate(cell);
        r.setupNs += clock.mark("trace.generate");
        wl.annotateNextUse();
        r.setupNs += clock.mark("trace.annotate");
        auto cache = buildCache(spec(cell));
        cache->setTargets(equalTargets(kLines, 4));
        r.setupNs += clock.mark("cache.build");
        runUntimed(*cache, wl, 0.2);
        clock.mark("sim.replay");
        r.digest = cacheDigest(*cache);
        r.accesses = workloadAccesses(wl);
        return r;
    }

    std::uint64_t
    referenceDigest(std::size_t cell) override
    {
        Workload wl = generate(cell);
        wl.annotateNextUse();
        auto cache = buildCache(spec(cell));
        cache->setTargets(equalTargets(kLines, 4));
        replaySerial(*cache, wl, 0.2);
        return cacheDigest(*cache);
    }

    ProbeInput
    probeInput() const override
    {
        ProbeInput in;
        std::uint64_t acc = accesses_, seed = cellSeed(0);
        in.generate = [acc, seed] {
            return Workload::duplicate("mcf", 4, acc, seed);
        };
        in.array = spec(0).array;
        in.parts = 4;
        in.targets = equalTargets(kLines, 4);
        return in;
    }

  private:
    std::uint64_t cellSeed(std::size_t cell) const
    { return seed_ * 7919 + cell; }

    Workload
    generate(std::size_t cell) const
    {
        return Workload::duplicate("mcf", 4, accesses_,
                                   cellSeed(cell));
    }

    CacheSpec
    spec(std::size_t cell) const
    {
        // Figure 2's cache: 16-way set-associative, OPT ranking,
        // Partitioning-First, equal partitions.
        CacheSpec c;
        c.array.kind = ArrayKind::SetAssoc;
        c.array.numLines = kLines;
        c.array.ways = 16;
        c.array.hash = HashKind::XorFold;
        c.ranking = RankKind::Opt;
        c.scheme.kind = SchemeKind::PF;
        c.numParts = 4;
        c.seed = cellSeed(cell);
        return c;
    }

    std::uint64_t seed_;
    std::uint64_t accesses_;
};

// ---------------------------------------------------------------

class TimedQos : public BenchWorkload
{
  public:
    static constexpr std::uint32_t kThreads = 8;
    static constexpr LineId kLines = 32768; // 4096 per thread
    static constexpr std::uint32_t kSubjectLines = 4096;

    TimedQos(std::uint64_t seed, double scale)
        : seed_(seed), accesses_(scaled(scale, 30000))
    {
    }

    const char *name() const override { return "timed_qos"; }
    std::size_t minRounds() const override { return 5; }

    std::size_t
    cells() const override
    {
        return kRanks.size() * kSubjects.size();
    }

    std::string
    configKey() const override
    {
        return strprintf("timed_qos;seed=%llu;acc=%llu",
                         static_cast<unsigned long long>(seed_),
                         static_cast<unsigned long long>(accesses_));
    }

    std::uint64_t
    prepare(std::vector<Phase> &phases, bool traced) override
    {
        std::uint64_t total = 0;
        mixes_.clear();
        for (std::uint32_t subjects : kSubjects) {
            std::uint64_t t0 = nowNs();
            mixes_.push_back(generate(subjects));
            std::uint64_t t1 = nowNs();
            mixes_.back().annotateNextUse();
            std::uint64_t t2 = nowNs();
            if (traced) {
                phases.push_back({"trace.generate", t0, t1});
                phases.push_back({"trace.annotate", t1, t2});
            }
            total += t2 - t0;
        }
        return total;
    }

    CellResult
    runCell(std::size_t cell, bool traced) override
    {
        CellResult r;
        PhaseClock clock(r, traced);
        const std::size_t mix = cell % kSubjects.size();
        auto cache = build(cell);
        r.setupNs = clock.mark("cache.build");
        TimingSim sim(*cache, mixes_[mix], timingConfig());
        sim.run();
        clock.mark("sim.timing");
        r.digest = cacheDigest(*cache, &sim, kThreads);
        r.accesses = workloadAccesses(mixes_[mix]);
        return r;
    }

    /** No second timing path exists: recompute on a fresh cell. */
    std::uint64_t
    referenceDigest(std::size_t cell) override
    {
        const std::size_t mix = cell % kSubjects.size();
        auto cache = build(cell);
        TimingSim sim(*cache, mixes_[mix], timingConfig());
        sim.run();
        return cacheDigest(*cache, &sim, kThreads);
    }

    ProbeInput
    probeInput() const override
    {
        ProbeInput in;
        std::uint64_t acc = accesses_, seed = seed_;
        in.generate = [acc, seed] {
            return Workload::mix(qosMix(kSubjects[0]), acc, seed);
        };
        in.array.kind = ArrayKind::SetAssoc;
        in.array.numLines = kLines;
        in.array.ways = 16;
        in.parts = kThreads;
        in.targets =
            qosAllocation(kLines, kThreads, kSubjects[0], kSubjectLines);
        return in;
    }

  private:
    /** Slowest rankings first, so the J workers start on the long
     *  cells and the short ones fill in behind them. */
    static inline const std::vector<RankKind> kRanks{
        RankKind::Lfu, RankKind::Opt, RankKind::Rrip,
        RankKind::Random};
    static inline const std::vector<std::uint32_t> kSubjects{2, 4};

    static std::vector<std::string>
    qosMix(std::uint32_t subjects)
    {
        std::vector<std::string> mix;
        for (std::uint32_t t = 0; t < kThreads; ++t)
            mix.push_back(t < subjects ? "gromacs" : "lbm");
        return mix;
    }

    static TimingConfig
    timingConfig()
    {
        TimingConfig cfg;
        cfg.warmupFraction = 0.2;
        return cfg;
    }

    Workload
    generate(std::uint32_t subjects) const
    {
        return Workload::mix(qosMix(subjects), accesses_,
                             seed_ + subjects);
    }

    std::unique_ptr<PartitionedCache>
    build(std::size_t cell) const
    {
        const std::uint32_t subjects =
            kSubjects[cell % kSubjects.size()];
        CacheSpec c;
        c.array.kind = ArrayKind::SetAssoc;
        c.array.numLines = kLines;
        c.array.ways = 16;
        c.array.hash = HashKind::XorFold;
        c.ranking = kRanks[cell / kSubjects.size()];
        c.scheme.kind = SchemeKind::Fs;
        c.numParts = kThreads;
        c.seed = seed_ + cell;
        auto cache = buildCache(c);
        cache->setTargets(qosAllocation(kLines, kThreads, subjects,
                                        kSubjectLines));
        cache->setDeviationSampleInterval(13);
        return cache;
    }

    std::uint64_t seed_;
    std::uint64_t accesses_;
    std::vector<Workload> mixes_;
};

// ---------------------------------------------------------------

class FarmDispatch : public BenchWorkload
{
  public:
    static constexpr std::uint64_t kTraceLen = 2048;
    static constexpr std::uint64_t kCellAccesses = 128;
    static constexpr LineId kLines = 256;

    FarmDispatch(std::uint64_t seed, double scale)
        : seed_(seed), cells_(scaled(scale, 4000))
    {
    }

    const char *name() const override { return "farm_dispatch"; }
    ExecutorKind executor() const override
    { return ExecutorKind::Process; }
    std::size_t cells() const override { return cells_; }

    std::string
    configKey() const override
    {
        return strprintf("farm_dispatch;seed=%llu",
                         static_cast<unsigned long long>(seed_));
    }

    std::uint64_t
    prepare(std::vector<Phase> &phases, bool traced) override
    {
        std::uint64_t t0 = nowNs();
        mix_ = Workload::mix(kMix, kTraceLen, seed_);
        std::uint64_t t1 = nowNs();
        if (traced)
            phases.push_back({"trace.generate", t0, t1});
        return t1 - t0;
    }

    CellResult
    runCell(std::size_t cell, bool traced) override
    {
        CellResult r;
        PhaseClock clock(r, traced);
        auto cache = buildCache(spec(cell));
        r.setupNs = clock.mark("cache.build");
        AccessBatch batch;
        fill(cell, batch);
        cache->accessBatch(batch);
        clock.mark("sim.replay");
        r.digest = cacheDigest(*cache);
        r.accesses = batch.size();
        return r;
    }

    std::uint64_t
    referenceDigest(std::size_t cell) override
    {
        auto cache = buildCache(spec(cell));
        AccessBatch batch;
        fill(cell, batch);
        for (std::size_t i = 0; i < batch.size(); ++i)
            cache->access(batch.part[i], batch.addr[i],
                          batch.nextUse[i]);
        return cacheDigest(*cache);
    }

    ProbeInput
    probeInput() const override
    {
        ProbeInput in;
        std::uint64_t seed = seed_;
        in.generate = [seed] {
            return Workload::mix(kMix, kTraceLen, seed);
        };
        in.array = spec(0).array;
        in.array.numLines = kLines * 4;
        in.parts = 4;
        in.targets = equalTargets(kLines * 4, 4);
        return in;
    }

  private:
    /** Cell i replays a 128-access window of thread i % 4. */
    void
    fill(std::size_t cell, AccessBatch &batch) const
    {
        const TraceBuffer &trace =
            mix_.thread(static_cast<std::uint32_t>(cell % 4)).trace;
        const std::uint64_t span = trace.size() - kCellAccesses;
        const std::uint64_t start = (cell / 4 * 97) % (span + 1);
        batch.reserve(kCellAccesses);
        for (std::uint64_t k = 0; k < kCellAccesses; ++k)
            batch.push(0, trace[start + k].addr);
    }

    CacheSpec
    spec(std::size_t cell) const
    {
        CacheSpec c;
        c.array.kind = ArrayKind::SetAssoc;
        c.array.numLines = kLines;
        c.array.ways = 16;
        c.ranking = RankKind::CoarseTsLru;
        c.scheme.kind = SchemeKind::None;
        c.numParts = 1;
        c.seed = seed_ + cell;
        return c;
    }

    std::uint64_t seed_;
    std::size_t cells_;
    Workload mix_;
};

} // namespace

std::uint64_t
workloadAccesses(const Workload &wl)
{
    std::uint64_t n = 0;
    for (const ThreadTrace &t : wl.threads())
        n += t.trace.size();
    return n;
}

std::unique_ptr<BenchWorkload>
makeWorkload(const std::string &name, std::uint64_t seed,
             double scale)
{
    if (name == "replay_sweep")
        return std::make_unique<ReplaySweep>(seed, scale);
    if (name == "gen_heavy")
        return std::make_unique<GenHeavy>(seed, scale);
    if (name == "timed_qos")
        return std::make_unique<TimedQos>(seed, scale);
    if (name == "farm_dispatch")
        return std::make_unique<FarmDispatch>(seed, scale);
    return nullptr;
}

} // namespace fspb
