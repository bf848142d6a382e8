// Fixture: wall-clock reads in simulation code. Line numbers of the
// deliberate violations are pinned by fscache_analyze.py --self-test.
#include <chrono>
#include <ctime>

namespace fixture
{

long bad1() { return std::time(nullptr); }

double bad2() {
    auto t = std::chrono::steady_clock::now();
    (void)t;
    return 0.0;
}

long bad3() {
    return time(0);
}

// fs-analyze: allow(wall-clock) fixture: progress meter only, never in results
long allowed() { return std::time(nullptr); }

// fs-analyze: allow(wall-clock)
long emptyWhy() { return std::time(nullptr); } // BAD: allow() has no why

} // namespace fixture
