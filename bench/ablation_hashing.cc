/**
 * @file
 * Ablation: index-hash quality vs the Uniformity Assumption
 * (DESIGN.md Section 3.1).
 *
 * A 16-way set-associative array indexed by modulo, XOR-fold, and
 * H3 hashing, against the ideal random-candidates array. Metrics:
 * unpartitioned AEF (how close the real array gets to the x^R law)
 * and the sizing error of feedback FS with two partitions.
 *
 * Expected shape: XOR-fold and H3 sit close to the ideal array;
 * modulo indexing concentrates candidates and degrades both
 * associativity and sizing for strided/structured address streams.
 */

#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.hh"
#include "trace/benchmark_profiles.hh"

using namespace fscache;

namespace
{

constexpr LineId kLines = 16384;

struct Result
{
    /// -1 when the unpartitioned cache never evicted (the ideal
    /// array at small FS_BENCH_SCALE), printed "n/a".
    double aefUnpart = -1.0;
    double fsOccErr = 0.0;
    auto fields() { return std::tie(aefUnpart, fsOccErr); }
};

struct Config
{
    const char *name;
    ArrayKind array;
    HashKind hash;
};

Result
run(const Config &c)
{
    const ArrayKind array = c.array;
    const HashKind hash = c.hash;
    const std::uint64_t accesses = bench::scaled(50000);
    const std::uint64_t warmup = bench::scaled(25000);
    Result res;

    // Unpartitioned associativity with an mcf-like stream.
    {
        CacheSpec spec;
        spec.array.kind = array;
        spec.array.numLines = kLines;
        spec.array.ways = 16;
        spec.array.hash = hash;
        spec.array.randomCands = 16;
        spec.ranking = RankKind::ExactLru;
        spec.scheme.kind = SchemeKind::None;
        spec.numParts = 1;
        spec.seed = 2;
        auto cache = buildCache(spec);
        cache->setTarget(0, kLines);
        std::vector<std::unique_ptr<TraceSource>> src;
        src.push_back(makeBenchmarkTrace("mcf", threadBaseAddr(0),
                                         Rng(811)));
        driveByInsertionRate(*cache, src, {1.0}, accesses, warmup, 3);
        if (cache->assocDist(0).evictions() > 0)
            res.aefUnpart = cache->assocDist(0).aef();
    }

    // Feedback-FS sizing with asymmetric targets.
    {
        CacheSpec spec;
        spec.array.kind = array;
        spec.array.numLines = kLines;
        spec.array.ways = 16;
        spec.array.hash = hash;
        spec.array.randomCands = 16;
        spec.ranking = RankKind::CoarseTsLru;
        spec.scheme.kind = SchemeKind::Fs;
        spec.numParts = 2;
        spec.seed = 2;
        auto cache = buildCache(spec);
        cache->setTargets({kLines * 3 / 4, kLines / 4});
        std::vector<std::unique_ptr<TraceSource>> src;
        src.push_back(makeBenchmarkTrace("mcf", threadBaseAddr(0),
                                         Rng(812)));
        src.push_back(makeBenchmarkTrace("mcf", threadBaseAddr(1),
                                         Rng(813)));
        std::vector<double> prefill{0.75, 0.25};
        driveByInsertionRate(*cache, src, {0.5, 0.5}, accesses, warmup,
                             3, &prefill);
        double occ1 = cache->deviation(0).meanOccupancy();
        res.fsOccErr =
            std::abs(occ1 - kLines * 0.75) / (kLines * 0.75);
    }
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    procExecutorInit(&argc, argv); // farm workers re-enter here
    bench::banner("Ablation: index hashing",
                  "Hash quality vs the Uniformity Assumption "
                  "(16-way set-assoc vs ideal random candidates)");

    const std::vector<Config> configs{
        {"setassoc/modulo", ArrayKind::SetAssoc, HashKind::Modulo},
        {"setassoc/xorfold", ArrayKind::SetAssoc, HashKind::XorFold},
        {"setassoc/h3", ArrayKind::SetAssoc, HashKind::H3},
        {"random (ideal)", ArrayKind::RandomCands, HashKind::H3},
    };
    auto report = bench::sweep("ablation_hashing",
                               "seed=2;trace-seeds=811,812,813;aef-na",
                               configs, run);

    TablePrinter table({"array/hash", "unpartitioned AEF",
                        "FS occupancy err (75% part)"});
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const CellOutcome<Result> &o = report.cells[i];
        table.addRow({configs[i].name,
                      o.ok() && o.value->aefUnpart < 0.0
                          ? std::string("n/a")
                          : bench::num(o, &Result::aefUnpart, 3),
                      bench::num(o, &Result::fsOccErr, 4)});
    }
    table.print(std::cout);
    std::printf("\nIdeal reference: AEF = R/(R+1) = %.3f for "
                "R = 16.\n", analytic::uniformCacheAef(16));
    return 0;
}
