/**
 * @file
 * Figure 5: distribution of Partition 1's deviation from its target
 * size under FS and PF; equal split (S1/S2 = 1), insertion rates
 * I1 = 0.1 and I1 = 0.5; 2MB random-candidates cache, R = 16.
 *
 * Expected shape (paper Section IV.D): PF holds sizes near-exactly
 * (MAD < 1 line); FS shows a small temporal deviation that is
 * worst at I1 = 0.5 (paper MADs: 59.8 at I1 = 0.1, 67.4 at 0.5 —
 * still < 0.5% of a 1MB partition).
 */

#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.hh"
#include "trace/benchmark_profiles.hh"

using namespace fscache;

namespace
{

constexpr LineId kLines = 32768;
constexpr std::uint32_t kR = 16;

struct Result
{
    double mad = 0.0;
    double bias = 0.0;
    std::vector<double> cdf; // P(|dev| <= x) at x in steps of 32
    auto fields() { return std::tie(mad, bias, cdf); }
};

using Cell = std::pair<SchemeKind, double>; // scheme, I1

Result
run(const Cell &c)
{
    const auto [scheme, i1] = c;
    CacheSpec spec;
    spec.array.kind = ArrayKind::RandomCands;
    spec.array.numLines = kLines;
    spec.array.randomCands = kR;
    spec.ranking = RankKind::ExactLru;
    spec.scheme.kind = scheme;
    spec.numParts = 2;
    spec.seed = 17;
    auto cache = buildCache(spec);
    cache->setTargets({kLines / 2, kLines / 2});

    if (scheme == SchemeKind::FsAnalytic) {
        auto &fs =
            dynamic_cast<FutilityScalingAnalytic &>(cache->scheme());
        double a2 = i1 >= 0.5
                        ? 1.0
                        : analytic::scalingFactorTwoPart(0.5, i1, kR);
        fs.setScalingFactor(0, 1.0);
        fs.setScalingFactor(1, a2);
    }

    std::vector<std::unique_ptr<TraceSource>> src;
    src.push_back(makeBenchmarkTrace("mcf", threadBaseAddr(0),
                                     Rng(2001)));
    src.push_back(makeBenchmarkTrace("mcf", threadBaseAddr(1),
                                     Rng(2002)));
    // Prefill at the target split so the measurement captures the
    // steady-state deviation, not the convergence ramp.
    std::vector<double> prefill{0.5, 0.5};
    driveByInsertionRate(*cache, src, {i1, 1.0 - i1},
                         bench::scaled(200000),
                         bench::scaled(100000), 9, &prefill);

    Result res;
    res.mad = cache->deviation(0).mad();
    res.bias = cache->deviation(0).bias();
    for (int x = 32; x <= 256; x += 32)
        res.cdf.push_back(cache->deviation(0).absDeviationCdf(x));
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    procExecutorInit(&argc, argv); // farm workers re-enter here
    bench::banner("Figure 5",
                  "Partition 1 size deviation, FS vs PF, equal "
                  "split, 2MB random-candidates cache, R = 16");

    std::vector<Cell> cells;
    for (double i1 : {0.1, 0.5})
        for (SchemeKind k : {SchemeKind::FsAnalytic, SchemeKind::PF})
            cells.push_back({k, i1});
    auto report =
        bench::sweep("fig5", "seed=17;trace-seeds=2001,2002", cells, run);

    TablePrinter table({"scheme", "I1", "MAD (lines)", "bias",
                        "P(|dev|<=32)", "P(|dev|<=128)",
                        "P(|dev|<=256)"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto &[scheme, i1] = cells[i];
        const CellOutcome<Result> &r = report.cells[i];
        table.addRow({scheme == SchemeKind::PF ? "PF" : "FS",
                      TablePrinter::num(i1, 1),
                      bench::num(r, &Result::mad, 1),
                      bench::num(r, &Result::bias, 1),
                      bench::num(r, &Result::cdf, 0, 3),
                      bench::num(r, &Result::cdf, 3, 3),
                      bench::num(r, &Result::cdf, 7, 3)});
    }
    table.print(std::cout);
    std::printf("\nExpected: PF MAD < ~2 lines; FS MAD tens of "
                "lines (< 0.5%% of the partition), larger at "
                "I1 = 0.5 than at I1 = 0.1.\n");
    return 0;
}
