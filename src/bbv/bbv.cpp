#include "bbv/bbv.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "support/logging.hpp"
#include "support/random.hpp"

namespace lpp::bbv {

BbvCollector::BbvCollector(size_t dims, uint64_t seed_)
    : dim(dims), seed(seed_)
{
    LPP_REQUIRE(dims > 0, "dims must be positive");
}

void
BbvCollector::onBlock(trace::BlockId block, uint32_t instructions)
{
    counts[block] += instructions;
    weight += instructions;
}

double
projectionCoefficient(trace::BlockId block, size_t d, uint64_t seed)
{
    // One deterministic uniform [0,1) coefficient per (block, dim),
    // derived from a SplitMix64 stream — a fixed random projection
    // matrix generated on demand.
    SplitMix64 sm(seed ^
                  (static_cast<uint64_t>(block) * 0x9e3779b97f4a7c15ULL) ^
                  (static_cast<uint64_t>(d) << 32));
    return static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
}

double
BbvCollector::projection(trace::BlockId block, size_t d) const
{
    return projectionCoefficient(block, d, seed);
}

void
BbvCollector::finalizeInterval()
{
    std::vector<double> v(dim, 0.0);
    if (weight > 0) {
        // Accumulate in sorted block order: float addition is not
        // associative, and the map's iteration order is unspecified.
        // A fixed order makes the vector a pure function of the
        // (block, count) multiset, independent of insertion history.
        std::vector<std::pair<trace::BlockId, uint64_t>> ordered(
            counts.begin(), counts.end());
        std::sort(ordered.begin(), ordered.end());
        for (const auto &kv : ordered) {
            double share = static_cast<double>(kv.second) /
                           static_cast<double>(weight);
            for (size_t d = 0; d < dim; ++d)
                v[d] += share * projection(kv.first, d);
        }
        // Normalize to unit L1 so interval length does not matter.
        double sum = 0.0;
        for (double x : v)
            sum += x;
        if (sum > 0.0) {
            for (double &x : v)
                x /= sum;
        }
        // Consumers (clustering, markov) assume a unit-L1 probability
        // vector: coordinates in [0, 1] summing to 1 (within float
        // rounding) whenever the interval had any weight.
#if !defined(NDEBUG) || defined(LPP_FORCE_DCHECKS)
        double norm = 0.0;
        for (double x : v) {
            LPP_DCHECK(x >= 0.0 && x <= 1.0,
                       "BBV coordinate %f outside [0, 1]", x);
            norm += x;
        }
        LPP_DCHECK(norm == 0.0 || std::abs(norm - 1.0) < 1e-9,
                   "BBV not L1-normalized: sum %f", norm);
#endif
    }
    intervalVectors.push_back(std::move(v));
    counts.clear();
    weight = 0;
}

double
manhattan(const std::vector<double> &a, const std::vector<double> &b)
{
    LPP_REQUIRE(a.size() == b.size(), "dimension mismatch: %zu vs %zu",
                a.size(), b.size());
    double d = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        d += std::abs(a[i] - b[i]);
    return d;
}

} // namespace lpp::bbv
