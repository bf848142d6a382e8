// Fixture: unpoliced float accumulation and hash containers in
// result-aggregation code. Violation line numbers are pinned by
// fscache_analyze.py --self-test.
#include <unordered_map>

namespace fixture
{

class BadStats
{
  public:
    void
    add(double x)
    {
        sum_ += x;
    }

    void
    addPoliced(double x)
    {
        policed_ += x;  // fs-analyze: float-accum(naive-sum) fixture demo
    }
    std::unordered_map<int, int> byId_;

  private:
    double sum_ = 0.0;
    double policed_ = 0.0;
};

double accumulate(double acc, double v)
{
    acc += v;
    return acc;
}

double compoundAssignForm(double acc, double v)
{
    acc = acc + v;
    return acc;
}

double viaStdAccumulate(const std::vector<double> &xs)
{
    double total = std::accumulate(xs.begin(), xs.end(), 0.0);
    return total;
}

double policedViaStdAccumulate(const std::vector<double> &xs)
{
    // fs-analyze: float-accum(naive-sum) fixture demo
    return std::accumulate(xs.begin(), xs.end(), 0.0);
}

} // namespace fixture
