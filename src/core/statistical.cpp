#include "core/statistical.hpp"

#include <algorithm>
#include <cmath>

#include "support/logging.hpp"

namespace lpp::core {

StatisticalPredictor::StatisticalPredictor(Config cfg_) : cfg(cfg_)
{
    LPP_REQUIRE(cfg.lowQuantile >= 0.0 &&
                    cfg.highQuantile <= 1.0 &&
                    cfg.lowQuantile <= cfg.highQuantile,
                "bad quantiles [%f, %f]", cfg.lowQuantile,
                cfg.highQuantile);
    LPP_REQUIRE(cfg.minObservations >= 2, "need at least 2 samples");
}

void
StatisticalPredictor::observe(trace::PhaseId phase,
                              uint64_t instructions)
{
    auto &lengths = history[phase];
    // Keep the history sorted (insertion keeps predict O(1)-ish; phase
    // histories are at most a few thousand entries).
    lengths.insert(std::upper_bound(lengths.begin(), lengths.end(),
                                    instructions),
                   instructions);
}

bool
StatisticalPredictor::predict(trace::PhaseId phase, Band *band) const
{
    auto it = history.find(phase);
    if (it == history.end() || it->second.size() < cfg.minObservations)
        return false;

    const auto &sorted = it->second;
    auto at = [&sorted](double q) {
        double idx =
            q * static_cast<double>(sorted.size() - 1);
        auto lo = static_cast<size_t>(idx);
        size_t hi = std::min(lo + 1, sorted.size() - 1);
        double frac = idx - static_cast<double>(lo);
        return static_cast<uint64_t>(std::llround(
            static_cast<double>(sorted[lo]) * (1.0 - frac) +
            static_cast<double>(sorted[hi]) * frac));
    };

    if (band) {
        band->low = at(cfg.lowQuantile);
        band->high = at(cfg.highQuantile);
        double sum = 0.0;
        for (uint64_t v : sorted)
            sum += static_cast<double>(v);
        band->mean = sum / static_cast<double>(sorted.size());
        band->observations = sorted.size();
    }
    return true;
}

size_t
StatisticalPredictor::observationCount(trace::PhaseId phase) const
{
    auto it = history.find(phase);
    return it == history.end() ? 0 : it->second.size();
}

BandMetrics
evaluateStatisticalPrediction(const Replay &replay,
                              StatisticalPredictor::Config cfg)
{
    StatisticalPredictor predictor(cfg);
    BandMetrics m;
    uint64_t covered_instr = 0;
    uint64_t hits = 0;
    double width_sum = 0.0;

    for (const auto &e : replay.executions) {
        StatisticalPredictor::Band band;
        if (predictor.predict(e.phase, &band)) {
            ++m.predictions;
            covered_instr += e.instructions;
            hits += band.contains(e.instructions);
            width_sum += band.relativeWidth();
        }
        predictor.observe(e.phase, e.instructions);
    }

    if (m.predictions > 0) {
        m.hitRate = static_cast<double>(hits) /
                    static_cast<double>(m.predictions);
        m.meanRelativeWidth =
            width_sum / static_cast<double>(m.predictions);
    }
    if (replay.totalInstructions > 0) {
        m.coverage = static_cast<double>(covered_instr) /
                     static_cast<double>(replay.totalInstructions);
    }
    return m;
}

} // namespace lpp::core
