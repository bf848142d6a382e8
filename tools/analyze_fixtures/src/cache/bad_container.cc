// Fixture: node-based hash containers on the per-access hot path.
// Violation line numbers are pinned by fscache_analyze.py --self-test.
#include <unordered_map>
#include <unordered_set>

namespace fixture
{

class BadTagStore
{
  public:
    std::unordered_map<unsigned long long, unsigned> byAddr_;
    std::unordered_set<unsigned long long> resident_;
};

bool lookupTwice(BadTagStore &ts, unsigned long long addr)
{
    std::unordered_map<unsigned long long, unsigned> local(ts.byAddr_);
    return local.count(addr) != 0;
}

// fs-analyze: allow(hot-path-container) fixture: cold-path config table,
// built once at construction and never touched per access
std::unordered_map<int, int> allowedConfig_;

} // namespace fixture
