/**
 * @file
 * Shared helpers for the figure-reproduction benches: a standard
 * header banner, workload-scale control, and the one sweep call
 * every simulating driver makes.
 *
 * Every bench prints the paper artifact it regenerates, the system
 * configuration, and its trace scale. Set FS_BENCH_SCALE to scale
 * simulated accesses (default 1.0; e.g. 0.2 for a quick pass, 4 for
 * tighter statistics).
 *
 * Driver shape (docs/RUNNER.md): a list of cells, one
 * bench::sweep() call, then a pure print step over its report.
 */

#ifndef FSCACHE_BENCH_BENCH_UTIL_HH
#define FSCACHE_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <functional>
#include <iostream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/arg_parser.hh"
#include "core/fscache.hh"
#include "runner/sweep_runner.hh"

namespace fscache
{
namespace bench
{

/** Workload-scale multiplier from FS_BENCH_SCALE (default 1); a
 *  malformed value, or one outside (0, 2^32], is fatal. */
inline double
scale()
{
    static const double s =
        parseEnvScale("FS_BENCH_SCALE", 1.0, 4294967296.0);
    return s;
}

/** Scale an access count by FS_BENCH_SCALE. Counts below 2^32 times
 *  a scale of at most 2^32 always fit the 64-bit cast. */
inline std::uint64_t
scaled(std::uint64_t accesses)
{
    fs_assert(accesses >> 32 == 0, "base count too large to scale");
    return static_cast<std::uint64_t>(accesses * scale());
}

/** Standard banner. */
inline void
banner(const std::string &artifact, const std::string &what)
{
    SystemConfig sys;
    std::printf("=============================================="
                "==============================\n");
    std::printf("%s — %s\n", artifact.c_str(), what.c_str());
    std::printf("system: %s\n", sys.summary().c_str());
    std::printf("workload scale: %.2fx (set FS_BENCH_SCALE to "
                "change)\n", scale());
    std::printf("=============================================="
                "==============================\n");
}

/** Section sub-header. */
inline void
section(const std::string &title)
{
    std::printf("\n--- %s ---\n", title.c_str());
}

/**
 * Explicit table/JSON marker for a quarantined sweep cell, e.g.
 * "FAILED(timeout)" or "FAILED(crash:SIGSEGV)". Built from the
 * error class and crash signal only — reasons can contain
 * wall-clock-dependent text, and artifacts must stay deterministic.
 */
template <typename R>
std::string
failedMarker(const CellOutcome<R> &o)
{
    return std::string("FAILED(") + failureLabel(o) + ")";
}

/** TablePrinter::num of `pick` (a member pointer or a callable)
 *  applied to a cell's value, or its FAILED marker. */
template <typename R, typename Pick>
std::string
num(const CellOutcome<R> &o, Pick &&pick, int precision)
{
    if (!o.ok())
        return failedMarker(o);
    return TablePrinter::num(std::invoke(pick, *o.value), precision);
}

/** num() of element k of a list field. */
template <typename R>
std::string
num(const CellOutcome<R> &o, std::vector<double> R::*list,
    std::size_t k, int precision)
{
    return num(o, [&](const R &r) { return (r.*list)[k]; }, precision);
}

/**
 * Run a figure's cells: fn(cells[i]) for each, resilient and
 * checkpointed, results encoded by their fields() (encodeFields in
 * runner/checkpoint.hh). `key` names what identifies the sweep
 * besides the cell count (seeds); the parsed FS_BENCH_SCALE is
 * appended, so a resume at another scale restores nothing stale.
 * Prints the quarantine manifest (deterministic; nothing on a clean
 * sweep) to stderr and fails the driver when every cell failed.
 */
template <typename Cell, typename Fn>
auto
sweep(const char *name, const std::string &key,
      const std::vector<Cell> &cells, Fn &&fn)
    -> SweepReport<std::invoke_result_t<Fn &, const Cell &>>
{
    using R = std::invoke_result_t<Fn &, const Cell &>;
    SweepRunner runner;
    SweepReport<R> report = runner.mapResilientCheckpointed(
        cells.size(), [&](std::size_t i) { return fn(cells[i]); },
        name, strprintf("%s;scale=%a", key.c_str(), scale()),
        encodeFields<R>, decodeFields<R>);
    if (!report.allOk())
        std::fprintf(stderr, "[%s] %s", name, report.manifest().c_str());
    if (report.okCount() == 0)
        fatal("[%s] every cell failed; no results to report", name);
    return report;
}

} // namespace bench
} // namespace fscache

#endif // FSCACHE_BENCH_BENCH_UTIL_HH
