/**
 * @file
 * Ablation: FS under different futility rankings (paper Section VI:
 * FS is conceptually independent of the ranking; the ranking sets
 * the performance headroom that higher associativity can unlock).
 *
 * One heterogeneous 4-thread mix, FS enforcement, rankings swapped:
 * coarse-timestamp LRU (the paper's hardware), exact LRU, LFU,
 * SRRIP, and ideal OPT. Expected shape: sizing is ranking-
 * independent (occupancy ~= target everywhere); miss ratios and IPC
 * improve from LRU-family -> RRIP -> OPT on scan-heavy threads
 * (cactusadm), echoing Figure 6's OPT-vs-LRU headroom.
 */

#include <iostream>
#include <vector>

#include "bench_util.hh"

using namespace fscache;

namespace
{

constexpr LineId kLines = 65536; // 4MB
const std::vector<std::string> kMix{"mcf", "gromacs", "cactusadm",
                                    "lbm"};

struct Result
{
    double occErr = 0.0;
    std::vector<double> missRatio; ///< per thread of kMix
    std::vector<double> ipc;       ///< per thread of kMix
    auto fields() { return std::tie(occErr, missRatio, ipc); }
};

struct Entry
{
    const char *name;
    RankKind rank;
};

Result
run(const Entry &e)
{
    CacheSpec spec;
    spec.array.kind = ArrayKind::SetAssoc;
    spec.array.numLines = kLines;
    spec.array.ways = 16;
    spec.ranking = e.rank;
    spec.scheme.kind = SchemeKind::Fs;
    spec.numParts = 4;
    spec.seed = 3;
    auto cache = buildCache(spec);
    cache->setTargets(equalShare(kLines, 4));

    Workload wl = Workload::mix(kMix, bench::scaled(200000), 4242);
    if (e.rank == RankKind::Opt)
        wl.annotateNextUse();
    TimingConfig cfg;
    cfg.warmupFraction = 0.3;
    TimingSim sim(*cache, wl, cfg);
    sim.run();

    Result res;
    for (PartId p = 0; p < 4; ++p) {
        res.occErr +=
            std::abs(cache->deviation(p).meanOccupancy() -
                     kLines / 4.0) /
            (kLines / 4.0) / 4.0;
        res.missRatio.push_back(cache->stats(p).missRatio());
        res.ipc.push_back(sim.perf(p).ipc());
    }
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    procExecutorInit(&argc, argv); // farm workers re-enter here
    bench::banner("Ablation: futility rankings under FS",
                  "FS with coarse-LRU / exact LRU / LFU / RRIP / "
                  "OPT on a heterogeneous mix (4MB, equal targets)");

    const std::vector<Entry> entries{
        {"coarse-ts-lru", RankKind::CoarseTsLru},
        {"exact lru", RankKind::ExactLru},
        {"lfu", RankKind::Lfu},
        {"rrip", RankKind::Rrip},
        {"opt (ideal)", RankKind::Opt},
    };
    auto report = bench::sweep("ablation_rankings", "seed=3;wl-seed=4242",
                               entries, run);

    TablePrinter table({"ranking", "occ err", "mcf IPC",
                        "gromacs IPC", "cactusadm IPC", "lbm IPC",
                        "cactusadm missratio"});
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const CellOutcome<Result> &o = report.cells[i];
        table.addRow(
            {entries[i].name, bench::num(o, &Result::occErr, 4),
             bench::num(o, &Result::ipc, 0, 3),
             bench::num(o, &Result::ipc, 1, 3),
             bench::num(o, &Result::ipc, 2, 3),
             bench::num(o, &Result::ipc, 3, 3),
             bench::num(o, &Result::missRatio, 2, 3)});
    }
    table.print(std::cout);
    std::printf("\nSizing is ranking-independent; the ranking only "
                "decides how much performance the preserved "
                "associativity is worth (paper Section VI).\n");
    return 0;
}
