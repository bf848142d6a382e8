/**
 * @file
 * Section VIII headline performance result: end-to-end IPC of the
 * QoS mixes under each partitioning scheme (coarse-timestamp LRU
 * ranking), normalized to the ideal FullAssoc scheme.
 *
 * Expected shape: FS tracks FullAssoc closely and beats Vantage
 * (paper: up to 6.0%) and PriSM (up to 13.7%) on subject-thread
 * performance; PF trails due to associativity loss.
 */

#include <iostream>
#include <vector>

#include "qos_common.hh"

using namespace fscache;
using namespace fscache::bench;

namespace
{

struct PerfResult
{
    bool valid = false;
    double subjectIpc = 0.0;    ///< mean subject-thread IPC
    double throughput = 0.0;    ///< sum of all thread IPCs
    double subjectMpki = 0.0;   ///< mean subject misses/kilo-instr
    auto
    fields()
    {
        return std::tie(valid, subjectIpc, throughput, subjectMpki);
    }
};

struct Cell
{
    std::uint32_t subjects;
    std::size_t scheme; ///< index into qosSchemes()
};

PerfResult
run(const Cell &c)
{
    const QosScheme &scheme = qosSchemes()[c.scheme];
    const std::uint32_t subjects = c.subjects;
    auto cache = buildQosCache(scheme, subjects,
                               RankKind::CoarseTsLru, 77);
    if (!cache)
        return {};

    std::fprintf(stderr, "[fig8] Nsub=%u %s...\n", subjects,
                 scheme.name.c_str());
    Workload wl =
        Workload::mix(qosMix(subjects), bench::scaled(100000), 888);
    TimingConfig cfg;
    cfg.warmupFraction = 0.3;
    TimingSim sim(*cache, wl, cfg);
    sim.run();

    PerfResult res;
    res.valid = true;
    for (std::uint32_t t = 0; t < subjects; ++t) {
        const ThreadPerf &p = sim.perf(t);
        res.subjectIpc += p.ipc();
        res.subjectMpki += p.instructions
                               ? 1000.0 * p.misses / p.instructions
                               : 0.0;
    }
    res.subjectIpc /= subjects;
    res.subjectMpki /= subjects;
    res.throughput = sim.throughput();
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    procExecutorInit(&argc, argv); // farm workers re-enter here
    bench::banner("Section VIII (performance)",
                  "Subject-thread IPC per scheme, normalized to "
                  "FullAssoc (LRU ranking)");

    const std::vector<std::uint32_t> subject_counts{1, 13, 25};
    const std::size_t schemes = qosSchemes().size();

    // One cell per (mix x scheme); each generates its own mix.
    std::vector<Cell> cells;
    for (std::uint32_t n : subject_counts)
        for (std::size_t s = 0; s < schemes; ++s)
            cells.push_back({n, s});
    auto report = bench::sweep("fig8", "seed=77;wl-seed=888", cells, run);

    for (std::size_t m = 0; m < subject_counts.size(); ++m) {
        bench::section(
            strprintf("%u subject threads", subject_counts[m]));
        // FullAssoc (scheme 0) is the normalization base.
        const CellOutcome<PerfResult> &base = report.cells[m * schemes];
        const double base_ipc =
            base.ok() ? base.value->subjectIpc : 0.0;
        TablePrinter table({"scheme", "subject IPC", "vs FullAssoc",
                            "subject MPKI", "throughput (sum IPC)"});
        double fs_ipc = 0.0, vantage_ipc = 0.0, prism_ipc = 0.0;
        for (std::size_t s = 0; s < schemes; ++s) {
            const std::string &name = qosSchemes()[s].name;
            const CellOutcome<PerfResult> &o =
                report.cells[m * schemes + s];
            if (o.ok() && !o.value->valid) {
                table.addRow({name, "n/a", "n/a", "n/a", "n/a"});
                continue;
            }
            const double ipc = o.ok() ? o.value->subjectIpc : 0.0;
            if (name == "FS")
                fs_ipc = ipc;
            if (name == "Vantage")
                vantage_ipc = ipc;
            if (name == "PriSM")
                prism_ipc = ipc;
            const double vs_base = base_ipc > 0 ? ipc / base_ipc : 0.0;
            table.addRow({name, bench::num(o, &PerfResult::subjectIpc, 4),
                          o.ok() ? TablePrinter::num(vs_base, 3)
                                 : bench::failedMarker(o),
                          bench::num(o, &PerfResult::subjectMpki, 2),
                          bench::num(o, &PerfResult::throughput, 2)});
        }
        table.print(std::cout);
        if (vantage_ipc > 0.0 && prism_ipc > 0.0 && fs_ipc > 0.0) {
            std::printf("FS vs Vantage: %+.1f%%   FS vs PriSM: "
                        "%+.1f%%\n",
                        100.0 * (fs_ipc / vantage_ipc - 1.0),
                        100.0 * (fs_ipc / prism_ipc - 1.0));
        }
        std::fflush(stdout);
    }
    std::printf("\nPaper headline: FS improves subject performance "
                "over Vantage by up to 6.0%% and over PriSM by up "
                "to 13.7%%.\n");
    return 0;
}
