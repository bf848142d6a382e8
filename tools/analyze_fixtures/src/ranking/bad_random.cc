// Fixture: ad-hoc randomness in ranking code. Line numbers of the
// deliberate violations are pinned by fscache_analyze.py --self-test.
#include <cstdlib>
#include <random>

namespace fixture
{
int bad1() { return std::rand(); }

unsigned bad2()
{
    std::random_device rd;
    return rd();
}
unsigned bad3(unsigned seed) { std::mt19937 g(seed); return g(); }

// fs-analyze: allow(raw-random) fixture: demonstrating the suppression syntax
int allowed() { return std::rand(); }
} // namespace fixture
