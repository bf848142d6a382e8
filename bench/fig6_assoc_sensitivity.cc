/**
 * @file
 * Figure 6: associativity sensitivity of the modeled benchmarks —
 * speedup of a fully-associative cache over a direct-mapped cache
 * of the same size, for sizes 128KB..8MB, under (a) OPT and
 * (b) LRU futility ranking.
 *
 * Expected shape (paper Section VI):
 *  - mcf: large speedups under OPT at every size;
 *  - gromacs: sensitive below ~1MB, negligible above;
 *  - lbm: insensitive everywhere (streaming);
 *  - LRU shrinks everyone's sensitivity vs OPT; cactusADM can even
 *    lose performance from more associativity under LRU.
 */

#include <iostream>
#include <vector>

#include "bench_util.hh"

using namespace fscache;

namespace
{

double
runIpc(const Workload &wl, ArrayKind array, RankKind rank,
       LineId lines)
{
    CacheSpec spec;
    spec.array.kind = array;
    spec.array.numLines = lines;
    spec.array.hash = HashKind::XorFold;
    spec.ranking = rank;
    spec.scheme.kind = SchemeKind::None;
    spec.numParts = 1;
    spec.seed = 3;
    auto cache = buildCache(spec);
    cache->setTarget(0, lines);

    TimingConfig cfg;
    cfg.warmupFraction = 0.3;
    TimingSim sim(*cache, wl, cfg);
    sim.run();
    return sim.perf(0).ipc();
}

const std::vector<LineId> kSizes{2048, 8192, 16384, 32768, 131072};

struct Cell
{
    RankKind rank;
    std::string benchmark;
};

struct Speedups
{
    std::vector<double> faOverDm; ///< one per kSizes entry
    auto fields() { return std::tie(faOverDm); }
};

Speedups
run(const Cell &c)
{
    // Long traces matter here: an 8MB cache holds 131072 lines, so
    // short traces would be dominated by compulsory misses that hit
    // both array types equally.
    Workload wl = Workload::duplicate(c.benchmark, 1,
                                      bench::scaled(1000000), 4242);
    if (c.rank == RankKind::Opt)
        wl.annotateNextUse();
    Speedups res;
    for (LineId lines : kSizes) {
        double fa = runIpc(wl, ArrayKind::FullyAssoc, c.rank, lines);
        double dm = runIpc(wl, ArrayKind::DirectMapped, c.rank, lines);
        res.faOverDm.push_back(fa / dm);
    }
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    procExecutorInit(&argc, argv); // farm workers re-enter here
    bench::banner("Figure 6",
                  "Speedup of fully-associative over direct-mapped "
                  "caches, 128KB..8MB, OPT (6a) and LRU (6b) "
                  "rankings");

    const std::vector<std::string> benches{"mcf",    "omnetpp",
                                           "gromacs", "astar",
                                           "cactusadm", "lbm"};
    // One cell per (ranking x benchmark): it generates its own
    // trace and runs every size on both arrays.
    const RankKind ranks[] = {RankKind::Opt, RankKind::ExactLru};
    std::vector<Cell> cells;
    for (RankKind rank : ranks)
        for (const std::string &name : benches)
            cells.push_back({rank, name});
    auto report = bench::sweep("fig6", "seed=3;wl-seed=4242", cells, run);

    for (std::size_t r = 0; r < 2; ++r) {
        bench::section(ranks[r] == RankKind::Opt
                           ? "(a) OPT ranking — speedup FA / DM"
                           : "(b) LRU ranking — speedup FA / DM");
        TablePrinter table({"benchmark", "128KB", "512KB", "1MB",
                            "2MB", "8MB"});
        for (std::size_t b = 0; b < benches.size(); ++b) {
            const CellOutcome<Speedups> &o =
                report.cells[r * benches.size() + b];
            std::vector<std::string> row{benches[b]};
            for (std::size_t k = 0; k < kSizes.size(); ++k)
                row.push_back(bench::num(o, &Speedups::faOverDm, k, 3));
            table.addRow(std::move(row));
        }
        table.print(std::cout);
    }
    std::printf("\nValues > 1 mean the benchmark benefits from "
                "associativity at that size.\n");
    return 0;
}
