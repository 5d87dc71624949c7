#include "reuse/sampler.hpp"

#include <algorithm>

#include "support/logging.hpp"

namespace lpp::reuse {

VariableDistanceSampler::VariableDistanceSampler(SamplerConfig cfg)
    : VariableDistanceSampler(cfg, ExternalTag{})
{
    if (cfg.addressSpaceElements > 0)
        stack.reserveElements(cfg.addressSpaceElements);
}

VariableDistanceSampler::VariableDistanceSampler(SamplerConfig cfg,
                                                 ExternalTag)
    : config(cfg),
      qualification(cfg.initialQualification),
      temporal(cfg.initialTemporal),
      spatial(cfg.initialSpatial),
      nextCheck(cfg.checkInterval)
{
}

VariableDistanceSampler
VariableDistanceSampler::externalDistances(SamplerConfig cfg)
{
    // No stack reservation: distances arrive via observe(), so the
    // address-space-sized last-access table is never needed.
    return VariableDistanceSampler(cfg, ExternalTag{});
}

void
VariableDistanceSampler::onAccessBatch(const trace::Addr *addrs, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        VariableDistanceSampler::onAccess(addrs[i]);
}

size_t
VariableDistanceSampler::sampledRank(uint64_t element) const
{
    // Lower bound without branches: this runs on most accesses (every
    // long-gap one), and which way each step goes is too irregular to
    // predict.
    if (sampledElements.empty())
        return 0;
    const uint64_t *first = sampledElements.data();
    size_t n = sampledElements.size();
    while (n > 1) {
        size_t half = n / 2;
        first = first[half] < element ? first + half : first;
        n -= half;
    }
    return static_cast<size_t>(first - sampledElements.data()) +
           (*first < element);
}

bool
VariableDistanceSampler::spatiallyIsolated(uint64_t element,
                                           size_t rank) const
{
    if (spatial == 0)
        return true;
    if (rank < sampledElements.size() &&
        sampledElements[rank] - element < spatial)
        return false;
    return rank == 0 || element - sampledElements[rank - 1] >= spatial;
}

template <typename Exact>
void
VariableDistanceSampler::decide(uint64_t element, uint64_t gap,
                                Exact &&exact)
{
    uint64_t now = accessesSeen++;

    // Every decision needs distance >= a threshold, and gap >= distance,
    // so below both thresholds nothing can fire — skip the rest. Sweeps
    // over whole arrays pass this test; the datum and spatial tests
    // then leave a few percent of accesses for the exact query.
    if (gap != ReuseStack::infinite &&
        gap >= std::min(temporal, qualification)) {
        // One search answers both the datum test and, for a non-datum,
        // which sampled elements are its neighbours.
        size_t rank = sampledRank(element);
        if (rank < sampledElements.size() &&
            sampledElements[rank] == element) {
            uint64_t dist = gap >= temporal ? exact() : 0;
            if (gap >= temporal && dist >= temporal) {
                auto &accesses = data[sampledDatum[rank]].accesses;
                // Downstream wavelet filtering assumes each datum's
                // sub-trace is strictly time-ordered (merge sorts only
                // across data, not within).
                LPP_DCHECK(accesses.empty() || accesses.back().time < now,
                           "datum sub-trace not monotone: time %llu "
                           "after %llu",
                           static_cast<unsigned long long>(now),
                           static_cast<unsigned long long>(
                               accesses.back().time));
                accesses.push_back(AccessSample{now, dist});
                ++collected;
            }
        } else if (gap >= qualification &&
                   data.size() < config.maxDataSamples &&
                   spatiallyIsolated(element, rank)) {
            uint64_t dist = exact();
            if (dist >= qualification) {
                sampledElements.insert(sampledElements.begin() + rank,
                                       element);
                sampledDatum.insert(sampledDatum.begin() + rank,
                                    static_cast<uint32_t>(data.size()));
                data.push_back(DataSample{element, {}});
                data.back().accesses.push_back(AccessSample{now, dist});
                ++collected;
            }
        }
    }

    if (accessesSeen >= nextCheck) {
        feedback();
        nextCheck = accessesSeen + config.checkInterval;
    }
}

void
VariableDistanceSampler::onAccess(trace::Addr addr)
{
    uint64_t element = trace::toElement(addr);
    ReuseStack::Touch t = stack.touch(element);
    decide(element, t.gap,
           [this, &t] { return stack.distanceSince(t.prev); });
}

void
VariableDistanceSampler::observe(uint64_t element, uint64_t now,
                                 uint64_t dist)
{
    // Every caller — the sharded sweep's funnel and the tests — feeds
    // accesses in stream order with `now` = accesses before this one,
    // and the sub-trace monotonicity in decide() depends on it.
    LPP_DCHECK(now == accessesSeen,
               "sampler clock out of order: access %llu observed as "
               "number %llu",
               static_cast<unsigned long long>(now),
               static_cast<unsigned long long>(accessesSeen));
    decide(element, dist, [dist] { return dist; });
}

void
VariableDistanceSampler::feedback()
{
    uint64_t recent = collected - collectedAtLastCheck;
    collectedAtLastCheck = collected;

    double projected;
    uint64_t now = accessesSeen;
    if (config.expectedAccesses > now) {
        double remaining =
            static_cast<double>(config.expectedAccesses - now);
        double rate = static_cast<double>(recent) /
                      static_cast<double>(config.checkInterval);
        projected = static_cast<double>(collected) + rate * remaining;
    } else {
        // No length hint (or already past it): steer the recent rate
        // toward one target's worth per expected run of 32 checks.
        projected = static_cast<double>(recent) * 32.0;
    }

    // Scale thresholds by how far off target the projection is; the
    // factor is clamped so one noisy interval cannot swing them wildly,
    // and floor/ceiling bounds keep them inside the configured range
    // (no overflow to 0, no drift into within-phase reuse distances).
    auto scale = [](uint64_t value, double factor, uint64_t lo,
                    uint64_t hi) {
        double scaled = static_cast<double>(std::max<uint64_t>(value, 1)) *
                        factor;
        scaled = std::min(scaled, static_cast<double>(hi));
        scaled = std::max(scaled, static_cast<double>(lo));
        return static_cast<uint64_t>(scaled);
    };

    double target = static_cast<double>(config.targetSamples);
    double ratio = projected / target;
    // Raising thresholds cannot undo past over-collection, so only raise
    // while samples are actually still flowing; otherwise a permanently
    // exceeded target would ratchet the thresholds to the cap.
    if (ratio > 1.4 && recent > 0) {
        double f = std::min(ratio, 8.0);
        qualification = scale(qualification, f,
                              config.floorQualification,
                              config.ceilQualification);
        temporal = scale(temporal, f, config.floorTemporal,
                         config.ceilTemporal);
        spatial = scale(spatial, f, 0, 1ULL << 40);
        ++adjustCount;
    } else if (ratio < 0.6 &&
               static_cast<double>(collected) < target) {
        double f = std::max(ratio / 0.9, 1.0 / 8.0);
        qualification = scale(qualification, f,
                              config.floorQualification,
                              config.ceilQualification);
        temporal = scale(temporal, f, config.floorTemporal,
                         config.ceilTemporal);
        spatial = spatial / 2;
        ++adjustCount;
    }

    // The clamp above must keep both distance thresholds inside their
    // configured band; drifting below the floor would reclassify
    // within-phase reuse as cross-phase samples.
    LPP_DCHECK(qualification >= config.floorQualification &&
                   qualification <= config.ceilQualification,
               "qualification threshold %llu outside [%llu, %llu]",
               static_cast<unsigned long long>(qualification),
               static_cast<unsigned long long>(config.floorQualification),
               static_cast<unsigned long long>(config.ceilQualification));
    LPP_DCHECK(temporal >= config.floorTemporal &&
                   temporal <= config.ceilTemporal,
               "temporal threshold %llu outside [%llu, %llu]",
               static_cast<unsigned long long>(temporal),
               static_cast<unsigned long long>(config.floorTemporal),
               static_cast<unsigned long long>(config.ceilTemporal));
}

std::vector<SamplePoint>
VariableDistanceSampler::mergedTrace() const
{
    std::vector<SamplePoint> merged;
    merged.reserve(collected);
    for (uint32_t di = 0; di < data.size(); ++di) {
        for (const auto &a : data[di].accesses)
            merged.push_back(SamplePoint{a.time, a.distance, di});
    }
    std::sort(merged.begin(), merged.end(),
              [](const SamplePoint &a, const SamplePoint &b) {
                  return a.time < b.time;
              });
    return merged;
}

} // namespace lpp::reuse
