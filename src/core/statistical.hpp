/**
 * @file
 * Statistics-based phase prediction — the extension the paper sketches
 * for Gcc and Vortex (Section 3.1.2): their phase *structure* is
 * recognizable but the exact length of an execution depends on the
 * input (the function being compiled, the query being served), so
 * point prediction fails. Ding & Zhong observed that the *overall*
 * behaviour is stable; accordingly this predictor maintains the
 * empirical distribution of each phase's past lengths and predicts a
 * quantile band instead of a point. Exact-match accuracy stays ~0 on
 * such programs while band predictions become usefully reliable.
 */

#ifndef LPP_CORE_STATISTICAL_HPP
#define LPP_CORE_STATISTICAL_HPP

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/runtime.hpp"
#include "trace/types.hpp"

namespace lpp::core {

/** Tuning of the statistical predictor. */
struct StatisticalConfig
{
    /** Observations of a phase before it becomes predictable. */
    size_t minObservations = 5;

    /** Lower quantile of the predicted band. */
    double lowQuantile = 0.1;

    /** Upper quantile of the predicted band. */
    double highQuantile = 0.9;
};

/** On-line quantile-band predictor over phase execution lengths. */
class StatisticalPredictor
{
  public:
    using Config = StatisticalConfig;

    /** A predicted range of instruction counts. */
    struct Band
    {
        uint64_t low = 0;     //!< lowQuantile of past lengths
        uint64_t high = 0;    //!< highQuantile of past lengths
        double mean = 0.0;    //!< mean past length
        size_t observations = 0;

        /** @return whether `length` falls inside the band. */
        bool
        contains(uint64_t length) const
        {
            return length >= low && length <= high;
        }

        /** @return band width relative to its mean (0 = point). */
        double
        relativeWidth() const
        {
            return mean > 0.0
                       ? static_cast<double>(high - low) / mean
                       : 0.0;
        }
    };

    explicit StatisticalPredictor(Config cfg = {});

    /** Record one completed execution of `phase`. */
    void observe(trace::PhaseId phase, uint64_t instructions);

    /**
     * Predict the next execution's length band.
     * @return false while the phase has too few observations
     */
    bool predict(trace::PhaseId phase, Band *band) const;

    /** @return observations recorded for `phase`. */
    size_t observationCount(trace::PhaseId phase) const;

  private:
    Config cfg;
    std::unordered_map<trace::PhaseId, std::vector<uint64_t>> history;
};

/** Outcome of running the band predictor over a whole replay. */
struct BandMetrics
{
    uint64_t predictions = 0; //!< band predictions issued
    double hitRate = 0.0;     //!< fraction of bands containing actual
    double coverage = 0.0;    //!< instr share under issued predictions
    double meanRelativeWidth = 0.0; //!< avg band width / mean length
};

/** Replay-driven evaluation of statistical prediction. */
BandMetrics
evaluateStatisticalPrediction(const Replay &replay,
                              StatisticalPredictor::Config cfg = {});

} // namespace lpp::core

#endif // LPP_CORE_STATISTICAL_HPP
