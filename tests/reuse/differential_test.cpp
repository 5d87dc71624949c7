/**
 * @file
 * Differential tests of the counted-bitmap reuse stack and the
 * on-demand sampler against the Fenwick reference stack.
 *
 * Distances: ReuseStack::access and touch + distanceSince must equal
 * the reference at every access of seeded random traces, including
 * with capacity hints small enough to compact the axis over and over,
 * and with element ids spread so that the last-access table keeps
 * creating pages across those compactions.
 *
 * Sampler: a VariableDistanceSampler that streams accesses (and asks
 * its stack for a distance only where a decision depends on one) must
 * end bit-identical to an externalDistances sampler fed the
 * reference's exact distance for every access — samples, thresholds
 * and feedback adjustments. Both run the same decision code, so with
 * pinned thresholds the samples are also checked against a plain
 * restatement of the sampling rule over the reference's distances.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "fenwick_oracle.hpp"
#include "reuse/sampler.hpp"
#include "reuse/stack.hpp"
#include "support/random.hpp"
#include "trace/types.hpp"

namespace {

using lpp::reuse::AccessSample;
using lpp::reuse::DataSample;
using lpp::reuse::ReuseStack;
using lpp::reuse::SamplerConfig;
using lpp::reuse::VariableDistanceSampler;
using lpp::reuse::oracle::FenwickReuseStack;

constexpr uint64_t inf = ReuseStack::infinite;

/**
 * A phased element stream: each phase sweeps a working set (sometimes
 * with a stride) with random reuses mixed in, and consecutive phases
 * overlap, so reuse distances range from 0 to the whole footprint.
 */
std::vector<uint64_t>
phasedTrace(uint64_t seed, size_t accesses, uint64_t max_working_set)
{
    lpp::Rng rng(seed);
    std::vector<uint64_t> out;
    out.reserve(accesses);
    uint64_t base = 0;
    while (out.size() < accesses) {
        uint64_t ws = 1 + rng.below(max_working_set);
        uint64_t stride = rng.below(3) == 0 ? 1 + rng.below(4) : 1;
        size_t length = static_cast<size_t>(ws * (1 + rng.below(4)));
        for (size_t i = 0; i < length && out.size() < accesses; ++i) {
            uint64_t offset = rng.below(5) == 0 ? rng.below(ws) : i % ws;
            out.push_back(base + offset * stride);
        }
        base += rng.below(ws + 1);
    }
    return out;
}

/**
 * Gives every fourth element id a last-access-table page of its own
 * near the top of the id range (element 0 becomes the largest id,
 * 2^61 - 1); the rest stay dense at the bottom.
 */
uint64_t
sparseKey(uint64_t e)
{
    if (e % 4 != 0)
        return e;
    constexpr uint64_t page = 512;
    constexpr uint64_t topPage = ((uint64_t{1} << 61) - 1) / page;
    uint64_t k = e / 4;
    return (topPage - k) * page + (k * 37 + page - 1) % page;
}

struct DistanceCase
{
    uint64_t seed;
    size_t accesses;
    uint64_t maxWorkingSet;
    size_t capacityHint;
    bool sparse = false; //!< map ids through sparseKey
};

void
PrintTo(const DistanceCase &c, std::ostream *os)
{
    *os << "seed " << c.seed << ", " << c.accesses << " accesses, ws <= "
        << c.maxWorkingSet << ", hint " << c.capacityHint;
    if (c.sparse)
        *os << ", sparse ids";
}

class StackDifferential : public ::testing::TestWithParam<DistanceCase>
{};

TEST_P(StackDifferential, DistancesMatchFenwickReference)
{
    const DistanceCase c = GetParam();
    std::vector<uint64_t> trace =
        phasedTrace(c.seed, c.accesses, c.maxWorkingSet);
    if (c.sparse)
        for (uint64_t &e : trace)
            e = sparseKey(e);
    FenwickReuseStack reference(c.capacityHint);
    ReuseStack whole(c.capacityHint);
    ReuseStack split(c.capacityHint);
    for (size_t i = 0; i < trace.size(); ++i) {
        uint64_t expected = reference.access(trace[i]);
        ASSERT_EQ(whole.access(trace[i]), expected) << "access " << i;

        ReuseStack::Touch t = split.touch(trace[i]);
        ASSERT_EQ(t.prev == inf, expected == inf) << "access " << i;
        if (expected == inf) {
            ASSERT_EQ(t.gap, inf);
            continue;
        }
        ASSERT_GE(t.gap, expected) << "gap must bound the distance";
        // Query only some accesses: skipped queries must not disturb
        // later ones.
        if (i % 3 != 1) {
            ASSERT_EQ(split.distanceSince(t.prev), expected)
                << "access " << i;
        }
    }
    EXPECT_EQ(whole.distinctCount(), split.distinctCount());
    EXPECT_EQ(whole.accessCount(), trace.size());
}

INSTANTIATE_TEST_SUITE_P(
    Traces, StackDifferential,
    ::testing::Values(
        // Tiny hints: the axis compacts every few dozen accesses.
        DistanceCase{1, 20000, 8, 8}, DistanceCase{2, 20000, 100, 8},
        DistanceCase{3, 50000, 700, 64},
        // Default-sized axis, working sets that outgrow it.
        DistanceCase{4, 100000, 5000, 1u << 16},
        // Footprints past several 32768-slot superblocks.
        DistanceCase{5, 400000, 90000, 1024},
        DistanceCase{6, 300000, 120000, 1u << 20},
        // Pages of the last-access table created mid-run, between and
        // across compactions.
        DistanceCase{7, 30000, 400, 8, true},
        DistanceCase{8, 100000, 3000, 1024, true}));

/** Field-by-field equality of two samplers' observable state. */
void
expectSameSampler(const VariableDistanceSampler &a,
                  const VariableDistanceSampler &b)
{
    EXPECT_EQ(a.accessCount(), b.accessCount());
    EXPECT_EQ(a.sampleCount(), b.sampleCount());
    EXPECT_EQ(a.adjustments(), b.adjustments());
    EXPECT_EQ(a.qualificationThreshold(), b.qualificationThreshold());
    EXPECT_EQ(a.temporalThreshold(), b.temporalThreshold());
    EXPECT_EQ(a.spatialThreshold(), b.spatialThreshold());
    ASSERT_EQ(a.samples().size(), b.samples().size());
    for (size_t d = 0; d < a.samples().size(); ++d) {
        const auto &x = a.samples()[d];
        const auto &y = b.samples()[d];
        ASSERT_EQ(x.element, y.element) << "datum " << d;
        ASSERT_EQ(x.accesses.size(), y.accesses.size()) << "datum " << d;
        for (size_t k = 0; k < x.accesses.size(); ++k) {
            ASSERT_EQ(x.accesses[k].time, y.accesses[k].time);
            ASSERT_EQ(x.accesses[k].distance, y.accesses[k].distance);
        }
    }
}

/**
 * The sampling rule with fixed thresholds, written plainly: a datum's
 * reuse is recorded when its distance reaches `temporal`; any other
 * element becomes a datum when its distance reaches `qualification`,
 * slots remain, and no datum lies within `spatial` elements of it.
 * @return the data in promotion order.
 */
std::vector<DataSample>
plainSamples(const SamplerConfig &cfg, const std::vector<uint64_t> &trace,
             const std::vector<uint64_t> &dist)
{
    std::vector<DataSample> data;
    std::map<uint64_t, size_t> index;
    for (size_t t = 0; t < trace.size(); ++t) {
        uint64_t e = trace[t];
        uint64_t d = dist[t];
        if (d == inf)
            continue;
        if (auto it = index.find(e); it != index.end()) {
            if (d >= cfg.initialTemporal)
                data[it->second].accesses.push_back(AccessSample{t, d});
            continue;
        }
        if (d < cfg.initialQualification ||
            data.size() >= cfg.maxDataSamples)
            continue;
        bool crowded = false;
        for (const auto &kv : index) {
            uint64_t s = kv.first;
            if ((s > e ? s - e : e - s) < cfg.initialSpatial)
                crowded = true;
        }
        if (crowded)
            continue;
        index[e] = data.size();
        data.push_back(DataSample{e, {AccessSample{t, d}}});
    }
    return data;
}

struct SamplerCase
{
    const char *name;
    SamplerConfig config;
    uint64_t seed;
    size_t accesses;
    uint64_t maxWorkingSet;
};

void
PrintTo(const SamplerCase &c, std::ostream *os)
{
    *os << c.name;
}

SamplerConfig
pinned(uint64_t qual, uint64_t temporal, uint64_t spatial)
{
    SamplerConfig cfg;
    cfg.initialQualification = qual;
    cfg.initialTemporal = temporal;
    cfg.initialSpatial = spatial;
    cfg.checkInterval = 1ULL << 60; // feedback never fires
    return cfg;
}

SamplerConfig
floating(uint64_t target, uint64_t check_interval, uint64_t expected)
{
    SamplerConfig cfg;
    cfg.targetSamples = target;
    cfg.checkInterval = check_interval;
    cfg.expectedAccesses = expected;
    cfg.initialQualification = 256;
    cfg.initialTemporal = 128;
    cfg.initialSpatial = 16;
    cfg.floorQualification = 4;
    cfg.floorTemporal = 2;
    return cfg;
}

std::vector<SamplerCase>
samplerCases()
{
    std::vector<SamplerCase> cases;
    cases.push_back({"pinned", pinned(300, 200, 8), 11, 200000, 3000});
    cases.push_back(
        {"pinned_spatial0", pinned(100, 100, 0), 12, 150000, 2000});
    SamplerConfig few = pinned(50, 40, 0);
    few.maxDataSamples = 4; // slots run out early
    cases.push_back({"saturated_slots", few, 13, 150000, 2000});
    cases.push_back({"floating_no_hint", floating(500, 1024, 0), 14,
                     250000, 4000});
    cases.push_back({"floating_with_hint",
                     floating(3000, 2048, 250000), 15, 250000, 6000});
    SamplerConfig flood = floating(20, 512, 0);
    flood.initialSpatial = 0;
    flood.maxDataSamples = 64;
    cases.push_back({"floating_flooded", flood, 16, 200000, 3000});
    SamplerConfig reserved = floating(2000, 4096, 300000);
    reserved.addressSpaceElements = 1u << 17;
    cases.push_back({"floating_large_footprint", reserved, 17, 300000,
                     90000});
    return cases;
}

class SamplerDifferential : public ::testing::TestWithParam<SamplerCase>
{};

TEST_P(SamplerDifferential, OnDemandMatchesExternalExactDistances)
{
    const SamplerCase c = GetParam();
    std::vector<uint64_t> trace =
        phasedTrace(c.seed, c.accesses, c.maxWorkingSet);

    VariableDistanceSampler on_demand(c.config);
    auto external = VariableDistanceSampler::externalDistances(c.config);
    FenwickReuseStack reference;
    std::vector<uint64_t> dist(trace.size());
    for (size_t i = 0; i < trace.size(); ++i) {
        dist[i] = reference.access(trace[i]);
        on_demand.onAccess(trace[i] * lpp::trace::elementBytes);
        external.observe(trace[i], i, dist[i]);
    }
    expectSameSampler(on_demand, external);
    if (c.config.checkInterval >= trace.size()) {
        // Thresholds stay pinned: the plain rule must give the same.
        std::vector<DataSample> plain = plainSamples(c.config, trace, dist);
        ASSERT_EQ(external.samples().size(), plain.size());
        for (size_t d = 0; d < plain.size(); ++d) {
            const DataSample &got = external.samples()[d];
            ASSERT_EQ(got.element, plain[d].element) << "datum " << d;
            ASSERT_EQ(got.accesses.size(), plain[d].accesses.size())
                << "datum " << d;
            for (size_t k = 0; k < got.accesses.size(); ++k) {
                ASSERT_EQ(got.accesses[k].time, plain[d].accesses[k].time);
                ASSERT_EQ(got.accesses[k].distance,
                          plain[d].accesses[k].distance);
            }
        }
    }
    // The case must exercise the decision, not pass vacuously.
    EXPECT_GT(external.sampleCount(), 0u);
    if (c.config.checkInterval < trace.size()) {
        EXPECT_GT(external.adjustments(), 0u);
    }
    if (c.config.maxDataSamples < 16) {
        EXPECT_EQ(external.samples().size(), c.config.maxDataSamples);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SamplerDifferential, ::testing::ValuesIn(samplerCases()),
    [](const ::testing::TestParamInfo<SamplerCase> &info) {
        return std::string(info.param.name);
    });

} // namespace
