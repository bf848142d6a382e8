/**
 * @file
 * Property tests for the victim-selection SIMD kernels
 * (common/simd.hh): every compiled-in backend must match the scalar
 * reference bit for bit — same index, same count, same out bytes —
 * on randomized inputs covering ties, invalid-slot sentinels,
 * denormals, and lengths that are not a multiple of the vector
 * width. The byte-identity goldens depend on this equivalence. On
 * top of the kernels, every partitioning scheme must pick the scalar
 * backend's victim sequence on every backend.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "cache/candidate.hh"
#include "common/random.hh"
#include "common/simd.hh"
#include "common/types.hh"
#include "partition/scheme_factory.hh"

namespace fscache
{
namespace
{

/** Backends compiled in and runnable on this CPU (scalar always). */
std::vector<std::string>
availableBackends()
{
    std::vector<std::string> v{"scalar"};
    if (simd::backendAvailable("sse2"))
        v.push_back("sse2");
    if (simd::backendAvailable("avx2"))
        v.push_back("avx2");
    return v;
}

/** Active-backend kernels after forcing `name`. */
const simd::Kernels &
forceBackend(const std::string &name)
{
    EXPECT_TRUE(simd::setBackend(name.c_str()));
    EXPECT_STREQ(simd::backendName(), name.c_str());
    return simd::kernels();
}

struct Input
{
    std::vector<double> v;
    std::vector<PartId> part;
};

/**
 * Randomized candidate arrays biased toward the hard cases: exact
 * ties (quantized futilities), -1.0 invalid sentinels, zeros,
 * denormals, and the paper's R=16 plus off-width lengths.
 */
Input
makeInput(Rng &rng, std::size_t n)
{
    Input in;
    in.v.resize(n);
    in.part.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        switch (rng.below(8)) {
        case 0:
            in.v[i] = -1.0; // invalid-slot sentinel
            break;
        case 1:
            in.v[i] = 0.0;
            break;
        case 2: // force ties: 16 distinct values only
            in.v[i] = static_cast<double>(rng.below(16)) / 16.0;
            break;
        case 3: // denormal-scale values
            in.v[i] = static_cast<double>(rng.below(4) + 1) *
                      std::numeric_limits<double>::denorm_min();
            break;
        default:
            in.v[i] = rng.uniform();
            break;
        }
        // Small partition space so masks hit often; sprinkle
        // kInvalidPart like real invalid candidate slots.
        in.part[i] = rng.below(10) == 0
                         ? kInvalidPart
                         : static_cast<PartId>(rng.below(5));
        if (in.part[i] == kInvalidPart)
            in.v[i] = -1.0;
    }
    return in;
}

/** Lengths around the SSE2 (2) and AVX2 (4) widths, plus R=16. */
const std::size_t kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 13, 16, 33};

class SimdBackends : public ::testing::TestWithParam<std::string>
{
  protected:
    void TearDown() override { simd::setBackend("scalar"); }
};

TEST_P(SimdBackends, ArgmaxPlainMatchesScalar)
{
    const simd::Kernels &k = forceBackend(GetParam());
    Rng rng(101);
    for (int round = 0; round < 200; ++round) {
        for (std::size_t n : kLengths) {
            Input in = makeInput(rng, n);
            EXPECT_EQ(k.argmaxPlain(in.v.data(), n),
                      simd::scalar::argmaxPlain(in.v.data(), n))
                << GetParam() << " n=" << n << " round=" << round;
        }
    }
}

TEST_P(SimdBackends, ArgmaxMaskedMatchesScalar)
{
    const simd::Kernels &k = forceBackend(GetParam());
    Rng rng(202);
    for (int round = 0; round < 200; ++round) {
        for (std::size_t n : kLengths) {
            Input in = makeInput(rng, n);
            // Sometimes ask for a partition nothing carries, to hit
            // the -1 "no candidate" return.
            auto want = static_cast<PartId>(rng.below(7));
            EXPECT_EQ(k.argmaxMasked(in.v.data(), in.part.data(),
                                     want, n),
                      simd::scalar::argmaxMasked(
                          in.v.data(), in.part.data(), want, n))
                << GetParam() << " n=" << n << " want=" << want;
        }
    }
}

TEST_P(SimdBackends, ArgmaxMaskedAllTiedPicksFirst)
{
    const simd::Kernels &k = forceBackend(GetParam());
    std::vector<double> v(16, 0.25);
    std::vector<PartId> part(16, 3);
    EXPECT_EQ(k.argmaxMasked(v.data(), part.data(), 3, v.size()), 0);
    // A masked-in candidate at exactly the -1.0 floor never wins.
    std::vector<double> sent(16, -1.0);
    EXPECT_EQ(k.argmaxMasked(sent.data(), part.data(), 3, v.size()),
              -1);
}

TEST_P(SimdBackends, ArgmaxScaledMatchesScalar)
{
    const simd::Kernels &k = forceBackend(GetParam());
    // Tied rounds draw values and factors from powers of two whose
    // products coincide often, so two candidates in the same vector
    // lane scale to the same value and the first must still win
    // (random factors almost never tie a product).
    const double kTieSet[] = {0.25, 0.5, 1.0, 2.0};
    Rng rng(303);
    for (int round = 0; round < 400; ++round) {
        bool tied = round % 2 == 1;
        for (std::size_t n : kLengths) {
            Input in = makeInput(rng, n);
            // Factor table smaller than the partition space so the
            // "partition has no factor" skip path is exercised.
            std::size_t nf = rng.below(6);
            std::vector<double> factors(nf);
            for (double &f : factors)
                f = tied ? kTieSet[rng.below(4)]
                         : 0.25 + rng.uniform() * 4.0;
            for (std::size_t i = 0; tied && i < n; ++i) {
                if (in.v[i] != -1.0)
                    in.v[i] = kTieSet[rng.below(3)];
            }
            EXPECT_EQ(k.argmaxScaled(in.v.data(), in.part.data(),
                                     factors.data(), nf, n),
                      simd::scalar::argmaxScaled(
                          in.v.data(), in.part.data(),
                          factors.data(), nf, n))
                << GetParam() << " n=" << n << " nf=" << nf
                << " tied=" << tied;
        }
    }
}

TEST_P(SimdBackends, ThresholdGeMatchesScalar)
{
    const simd::Kernels &k = forceBackend(GetParam());
    constexpr double kInf = std::numeric_limits<double>::infinity();
    Rng rng(404);
    for (int round = 0; round < 200; ++round) {
        for (std::size_t n : kLengths) {
            Input in = makeInput(rng, n);
            std::vector<double> thresh(n);
            for (std::size_t i = 0; i < n; ++i) {
                switch (rng.below(4)) {
                case 0:
                    thresh[i] = kInf; // excluded candidate
                    break;
                case 1:
                    thresh[i] = in.v[i]; // exact-equality edge
                    break;
                default:
                    thresh[i] = rng.uniform();
                    break;
                }
            }
            std::vector<std::uint8_t> got(n ? n : 1, 0xee);
            std::vector<std::uint8_t> ref(n ? n : 1, 0xee);
            std::uint32_t gc =
                k.thresholdGe(in.v.data(), thresh.data(), n,
                              got.data());
            std::uint32_t rc = simd::scalar::thresholdGe(
                in.v.data(), thresh.data(), n, ref.data());
            EXPECT_EQ(gc, rc) << GetParam() << " n=" << n;
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(got[i], ref[i])
                    << GetParam() << " n=" << n << " i=" << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, SimdBackends,
    ::testing::ValuesIn(availableBackends()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

constexpr std::uint32_t kVictimWays = 16;
constexpr std::uint32_t kVictimParts = 8;

/** Owner stub with fixed occupancies and rank futilities, so a
 *  scheme's feedback state evolves identically on every backend. */
class FixedOps : public PartitionOps
{
  public:
    std::uint32_t actualSize(PartId part) const override
    {
        return 1000 + part * 10;
    }
    LineId cacheLines() const override { return 131072; }
    void demote(LineId, PartId) override {}
    double exactFutility(LineId line) const override
    {
        return (line % 97 + 1) / 97.0;
    }
};

/**
 * 256 R=16 candidate lists with a spread of futilities and
 * partitions, then the same lists with futilities quantized to
 * eighths, as coarse-timestamp rankings produce them: the uniform
 * lists never tie, the quantized ones tie often, so the kernels'
 * first-index tiebreak shows at the scheme level.
 */
std::vector<CandidateVec>
victimInputs()
{
    Rng rng(7);
    std::vector<CandidateVec> inputs(256);
    for (CandidateVec &cands : inputs) {
        cands.reserve(kVictimWays);
        for (std::uint32_t i = 0; i < kVictimWays; ++i)
            cands.push(i, static_cast<PartId>(rng.below(kVictimParts)),
                       rng.uniform());
    }
    for (std::size_t k = 0; k < 256; ++k) {
        CandidateVec quantized = inputs[k];
        for (std::uint32_t i = 0; i < kVictimWays; ++i)
            quantized.futility[i] =
                (std::floor(quantized.futility[i] * 8.0) + 1.0) / 8.0;
        inputs.push_back(std::move(quantized));
    }
    return inputs;
}

/**
 * Victims a fresh `kind` scheme picks on `backend` over 16 rounds of
 * the inputs, each call on a fresh copy of its list (Vantage demotes
 * in place).
 */
std::vector<std::uint32_t>
victimSequence(const std::string &backend, SchemeKind kind)
{
    EXPECT_TRUE(simd::setBackend(backend.c_str()));
    FixedOps ops;
    SchemeConfig cfg;
    cfg.kind = kind;
    cfg.ways = kVictimWays;
    auto scheme = makeScheme(cfg);
    scheme->bind(&ops, kVictimParts);
    for (PartId p = 0; p < kVictimParts; ++p)
        scheme->setTarget(p, 1000);
    const std::vector<CandidateVec> inputs = victimInputs();
    std::vector<std::uint32_t> victims;
    CandidateVec cands;
    for (int round = 0; round < 16; ++round) {
        for (const CandidateVec &in : inputs) {
            cands = in;
            victims.push_back(scheme->selectVictim(
                cands, static_cast<PartId>(victims.size() %
                                           kVictimParts)));
        }
    }
    return victims;
}

class SchemeVictimBackends
    : public ::testing::TestWithParam<std::tuple<std::string, SchemeKind>>
{
  protected:
    void TearDown() override { simd::setBackend("scalar"); }
};

TEST_P(SchemeVictimBackends, PicksScalarVictimSequence)
{
    const auto &[backend, kind] = GetParam();
    const std::vector<std::uint32_t> ref = victimSequence("scalar", kind);
    const std::vector<std::uint32_t> got = victimSequence(backend, kind);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
        if (got[i] != ref[i]) {
            ADD_FAILURE() << backend << " " << schemeKindName(kind)
                          << ": call " << i << " picked " << got[i]
                          << ", scalar picked " << ref[i];
            break;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeVictimBackends,
    ::testing::Combine(
        ::testing::ValuesIn(availableBackends()),
        ::testing::Values(SchemeKind::None, SchemeKind::PF,
                          SchemeKind::Fs, SchemeKind::FsAnalytic,
                          SchemeKind::Vantage, SchemeKind::Prism,
                          SchemeKind::WayPart)),
    [](const ::testing::TestParamInfo<
        std::tuple<std::string, SchemeKind>> &info) {
        std::string name = std::get<0>(info.param) + "_" +
                           schemeKindName(std::get<1>(info.param));
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

TEST(SimdDispatch, UnknownBackendRejected)
{
    EXPECT_FALSE(simd::setBackend("avx512"));
    EXPECT_FALSE(simd::setBackend(""));
}

TEST(SimdDispatch, ScalarAlwaysAvailable)
{
    EXPECT_TRUE(simd::backendAvailable("scalar"));
    EXPECT_TRUE(simd::setBackend("scalar"));
    // Scalar dispatch hands back the reference functions themselves.
    EXPECT_EQ(simd::kernels().argmaxPlain,
              &simd::scalar::argmaxPlain);
}

} // namespace
} // namespace fscache
