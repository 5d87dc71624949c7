/**
 * @file
 * Basic-block vectors (Sherwood et al., the paper's strongest baseline).
 *
 * An execution is cut into fixed-length intervals; each interval is
 * summarized by the frequency of every basic block weighted by its
 * instruction count, randomly projected to a small dimension (32 in the
 * paper) and normalized. Similar intervals then cluster together.
 */

#ifndef LPP_BBV_BBV_HPP
#define LPP_BBV_BBV_HPP

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "trace/sink.hpp"
#include "trace/types.hpp"

namespace lpp::bbv {

/**
 * Collects one randomly projected basic-block vector per interval.
 *
 * Interval boundaries are driven externally through finalizeInterval()
 * so that locality measurement (a StackSimulator) and BBV collection can
 * be cut at exactly the same points by one driver.
 */
class BbvCollector : public trace::TraceSink
{
  public:
    /**
     * @param dims projected dimensionality (the paper uses 32)
     * @param seed seed of the random projection matrix
     */
    explicit BbvCollector(size_t dims = 32, uint64_t seed = 12345);

    void onBlock(trace::BlockId block, uint32_t instructions) override;

    /** BBVs ignore data accesses; skip the per-access default loop. */
    void onAccessBatch(const trace::Addr *, size_t) override {}

    /** Close the current interval and append its projected vector. */
    void finalizeInterval();

    void
    onEnd() override
    {
        if (weight > 0)
            finalizeInterval();
    }

    /** @return one normalized projected vector per interval. */
    const std::vector<std::vector<double>> &vectors() const
    {
        return intervalVectors;
    }

    /** @return projected dimensionality. */
    size_t dims() const { return dim; }

  private:
    /** Deterministic projection coefficient for (block, dim). */
    double projection(trace::BlockId block, size_t d) const;

    size_t dim;
    uint64_t seed;
    std::unordered_map<trace::BlockId, uint64_t> counts;
    uint64_t weight = 0;
    std::vector<std::vector<double>> intervalVectors;
};

/**
 * Deterministic uniform [0,1) projection coefficient for (block, dim):
 * the random projection matrix, generated on demand. BbvCollector uses
 * this internally; external aggregators (e.g. the stratified
 * evaluator's extrapolated whole-run BBV) share the same matrix so
 * their vectors are comparable with the collector's.
 */
double projectionCoefficient(trace::BlockId block, size_t d,
                             uint64_t seed);

/** Manhattan (L1) distance between two vectors of equal size. */
double manhattan(const std::vector<double> &a,
                 const std::vector<double> &b);

} // namespace lpp::bbv

#endif // LPP_BBV_BBV_HPP
