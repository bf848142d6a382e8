#include "runner/sweep_runner.hh"

#include <atomic>
#include <thread>

#include "check/breadcrumb.hh"
#include "common/arg_parser.hh"

namespace fscache
{

void
SweepRunner::warnNoFarmWithoutCodec()
{
    static std::atomic<bool> warned{false};
    if (warned.exchange(true))
        return;
    warn("FS_EXECUTOR=process/net: this sweep has no cell codec "
         "(mapResilient without checkpoint encode/decode); results "
         "cannot cross a process boundary, so it runs on the "
         "thread executor instead");
}

unsigned
SweepRunner::defaultJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return envKnob<unsigned>("FS_JOBS", hw > 0 ? hw : 1, 1);
}

SweepRunner::SweepRunner(unsigned jobs)
    : jobs_(jobs > 0 ? jobs : defaultJobs())
{
    // Hard-crash diagnostics (SIGSEGV & friends): idempotent, so
    // every runner construction may call it. Installed here — not in
    // main() — because any driver that sweeps benefits and none of
    // them should have to remember.
    check::installCrashBreadcrumbs();
}

} // namespace fscache
