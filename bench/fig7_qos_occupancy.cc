/**
 * @file
 * Figure 7: QoS enforcement on a 32-core CMP. Subject threads run
 * gromacs with a 256KB guarantee each; background threads run lbm
 * (much higher miss rate). Mixes vary the number of subject
 * threads.
 *
 *  (a) average occupancy of subject threads relative to their
 *      target — FullAssoc / PF / FS enforce ~100%; Vantage dips a
 *      few percent below; PriSM under-occupies badly (paper: 20.9%
 *      below target with LRU on average);
 *  (b) average eviction futility of subject threads — FullAssoc 1.0,
 *      FS ~0.86, Vantage ~0.80, PF down to ~0.51, PriSM in between.
 *
 * Vantage is skipped at 31 subjects (needs 97% of the cache but
 * manages 90%), as in the paper. Two Vantage rows bracket the
 * paper's: "Vantage" with idealized exact-rank demotion thresholds
 * and "Vantage-rt" with realistic feedback-estimated thresholds.
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "qos_common.hh"

using namespace fscache;
using namespace fscache::bench;

namespace
{

struct QosResult
{
    bool valid = false;
    /// Means over the subjects with samples (evictions for the
    /// AEF); -1 when no subject has any, printed "n/a".
    double occupancyFrac = -1.0; ///< mean subject occupancy / target
    double aef = -1.0;           ///< mean subject AEF
    double abnormality = -1.0;   ///< PriSM only
    auto
    fields()
    {
        return std::tie(valid, occupancyFrac, aef, abnormality);
    }
};

struct Cell
{
    RankKind rank;
    std::uint32_t subjects;
    std::size_t scheme; ///< index into qosSchemes()
};

QosResult
run(const Cell &c)
{
    const QosScheme &scheme = qosSchemes()[c.scheme];
    std::fprintf(stderr, "[fig7] %s Nsub=%u %s...\n",
                 c.rank == RankKind::Opt ? "OPT" : "LRU", c.subjects,
                 scheme.name.c_str());
    auto cache = buildQosCache(scheme, c.subjects, c.rank, 99);
    if (!cache)
        return {};

    Workload wl =
        Workload::mix(qosMix(c.subjects), bench::scaled(60000), 555);
    if (c.rank == RankKind::Opt)
        wl.annotateNextUse();
    runUntimed(*cache, wl, 0.3);

    // An empty tracker's mean reads 0.0, the worst possible value,
    // so subjects that never evicted (or were never sampled) are
    // left out of the means rather than averaged in.
    double occ = 0.0, aef = 0.0;
    std::uint32_t occ_n = 0, aef_n = 0;
    for (std::uint32_t p = 0; p < c.subjects; ++p) {
        if (cache->deviation(p).samples() > 0) {
            occ += cache->deviation(p).meanOccupancy() / kSubjectLines;
            ++occ_n;
        }
        if (cache->assocDist(p).evictions() > 0) {
            aef += cache->assocDist(p).aef();
            ++aef_n;
        }
    }
    QosResult res;
    res.valid = true;
    if (occ_n > 0)
        res.occupancyFrac = occ / occ_n;
    if (aef_n > 0)
        res.aef = aef / aef_n;
    if (auto *prism = dynamic_cast<PrismScheme *>(&cache->scheme()))
        res.abnormality = prism->abnormalityRate();
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    procExecutorInit(&argc, argv); // farm workers re-enter here
    bench::banner("Figure 7",
                  "QoS occupancy and associativity of subject "
                  "threads (gromacs subjects @256KB + lbm "
                  "background, 32 threads, 8MB L2)");

    const std::vector<std::uint32_t> subject_counts{1, 13, 25, 31};
    const std::size_t schemes = qosSchemes().size();

    // One cell per (ranking x mix x scheme), in that nesting order;
    // each generates its own mix.
    const RankKind ranks[] = {RankKind::CoarseTsLru, RankKind::Opt};
    std::vector<Cell> cells;
    for (RankKind rank : ranks)
        for (std::uint32_t n : subject_counts)
            for (std::size_t s = 0; s < schemes; ++s)
                cells.push_back({rank, n, s});
    // "means=sampled": journals from drivers that averaged empty
    // trackers in as 0.0 are not restored.
    auto report = bench::sweep(
        "fig7", "seed=99;wl-seed=555;means=sampled", cells, run);

    for (std::size_t r = 0; r < 2; ++r) {
        const char *rank_name =
            ranks[r] == RankKind::CoarseTsLru ? "LRU" : "OPT";

        TablePrinter occ({"scheme", "Nsub=1", "Nsub=13", "Nsub=25",
                          "Nsub=31"});
        TablePrinter aef({"scheme", "Nsub=1", "Nsub=13", "Nsub=25",
                          "Nsub=31"});
        double prism_abnormality = 0.0;
        int prism_samples = 0;
        for (std::size_t s = 0; s < schemes; ++s) {
            std::vector<std::string> occ_row{qosSchemes()[s].name};
            std::vector<std::string> aef_row{qosSchemes()[s].name};
            for (std::size_t n = 0; n < subject_counts.size(); ++n) {
                const CellOutcome<QosResult> &o = report.cells[
                    (r * subject_counts.size() + n) * schemes + s];
                if (o.ok() && !o.value->valid) {
                    occ_row.push_back("n/a");
                    aef_row.push_back("n/a");
                    continue;
                }
                auto mean = [&](double QosResult::*m) {
                    return o.ok() && (*o.value).*m < 0.0
                               ? std::string("n/a")
                               : bench::num(o, m, 3);
                };
                occ_row.push_back(mean(&QosResult::occupancyFrac));
                aef_row.push_back(mean(&QosResult::aef));
                if (o.ok() && o.value->abnormality >= 0.0) {
                    prism_abnormality += o.value->abnormality;
                    ++prism_samples;
                }
            }
            occ.addRow(std::move(occ_row));
            aef.addRow(std::move(aef_row));
        }

        bench::section(strprintf(
            "(a) subject occupancy / target — %s ranking",
            rank_name));
        occ.print(std::cout);
        bench::section(strprintf(
            "(b) subject average eviction futility — %s ranking",
            rank_name));
        aef.print(std::cout);
        if (prism_samples > 0) {
            std::printf("\nPriSM abnormality rate (no candidate "
                        "from the selected partition): %.1f%% "
                        "average (paper: >70%%)\n",
                        100.0 * prism_abnormality / prism_samples);
        }
        std::fflush(stdout);
    }
    return 0;
}
