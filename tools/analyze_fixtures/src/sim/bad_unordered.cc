/**
 * @file
 * determinism-pass fixture (tools/fscache_analyze.py --self-test):
 * hash containers hidden behind an alias in a result-aggregation
 * scope (src/sim). The unordered-aggregation text rule sees only the
 * alias's own line; the type-aware pass must see through `TenantMap`
 * and `auto`.
 *
 * Expected findings:
 *   - the TenantMap alias line: unordered-aggregation (direct spelling)
 *   - byTenant_: field whose canonical type is unordered_map
 *   - report: range-for over byTenant_ (hash iteration order)
 *   - report::scratch: local whose canonical type is unordered_map
 *
 * Must stay quiet:
 *   - ordered_ (std::vector member)
 *   - the sums_ loop over a vector
 */

#include <unordered_map>
#include <vector>

namespace fscache
{

using TenantMap = std::unordered_map<unsigned, double>;

class Aggregator
{
  public:
    double
    report()
    {
        TenantMap scratch; // BAD: alias-hidden hash container
        double sum = 0.0;
        for (const auto &kv : byTenant_) // BAD: hash-order iteration
            sum += kv.second;
        for (double v : ordered_) // fine: deterministic order
            sum += v;
        scratch[0] = sum;
        return sum;
    }

  private:
    TenantMap byTenant_; // BAD: alias-hidden hash container member
    std::vector<double> ordered_;
};

} // namespace fscache
