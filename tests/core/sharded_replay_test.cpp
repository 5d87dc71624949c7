/**
 * @file
 * Property suite for the sharded intra-workload pipeline: every
 * consumer of a chunked replay — exact reuse distances, precount,
 * block recording, and the variable-distance sampler — must be
 * bit-identical to its serial single-replay counterpart at every
 * chunk size (including 1 and longer-than-the-trace) and every pool
 * size.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <unordered_set>
#include <vector>

#include "phase/detector.hpp"
#include "reuse/sampler.hpp"
#include "reuse/sharded_reuse.hpp"
#include "reuse/stack.hpp"
#include "support/random.hpp"
#include "support/thread_pool.hpp"
#include "trace/memory_trace.hpp"
#include "trace/recorder.hpp"

namespace {

using lpp::SplitMix64;
using lpp::support::ThreadPool;
using lpp::trace::MemoryTrace;

/**
 * A synthetic mixed event stream: blocks, single accesses, batches of
 * varying length, occasional markers, and (optionally) an end event.
 * Addresses mix a hot working set with a cold wandering tail so reuse
 * distances span everything from 0 to infinite.
 */
MemoryTrace
makeTrace(uint64_t seed, size_t target_accesses, uint64_t working_set,
          bool with_end)
{
    MemoryTrace t;
    SplitMix64 sm(seed);
    uint64_t coldBase = working_set + 1000;
    size_t accesses = 0;
    std::vector<lpp::trace::Addr> batch;
    while (accesses < target_accesses) {
        uint64_t roll = sm.next() % 100;
        if (roll < 25) {
            t.onBlock(static_cast<lpp::trace::BlockId>(sm.next() % 96),
                      static_cast<uint32_t>(1 + sm.next() % 24));
        } else if (roll < 27) {
            t.onManualMarker(static_cast<uint32_t>(sm.next() % 4));
        } else if (roll < 29) {
            t.onPhaseMarker(static_cast<uint32_t>(sm.next() % 3));
        } else if (roll < 60) {
            uint64_t e = sm.next() % 10 == 0 ? coldBase++
                                             : sm.next() % working_set;
            t.onAccess(e * 8);
            ++accesses;
        } else {
            size_t n = 1 + sm.next() % 17;
            batch.clear();
            for (size_t i = 0; i < n; ++i) {
                uint64_t e = sm.next() % 8 == 0 ? coldBase++
                                                : sm.next() % working_set;
                batch.push_back(e * 8);
            }
            t.onAccessBatch(batch.data(), batch.size());
            accesses += n;
        }
    }
    if (with_end)
        t.onEnd();
    return t;
}

/** Serial oracle: per-access (element, distance) via one ReuseStack. */
struct SerialSweep : lpp::trace::TraceSink
{
    lpp::reuse::ReuseStack stack{1 << 12};
    std::vector<uint64_t> elements, distances;

    void
    onAccess(lpp::trace::Addr addr) override
    {
        uint64_t e = lpp::trace::toElement(addr);
        elements.push_back(e);
        distances.push_back(stack.access(e));
    }

    void
    onAccessBatch(const lpp::trace::Addr *addrs, size_t n) override
    {
        for (size_t i = 0; i < n; ++i)
            SerialSweep::onAccess(addrs[i]);
    }
};

std::vector<uint64_t>
chunkSizes(uint64_t accesses)
{
    return {1, 7, 100, 1000, accesses / 2 + 1, accesses + 1};
}

TEST(ShardedReplay, ChunksPartitionTheEventStream)
{
    MemoryTrace t = makeTrace(11, 2000, 200, true);
    for (uint64_t target : chunkSizes(t.accessCount())) {
        auto ranges = t.chunks(target);
        ASSERT_FALSE(ranges.empty()) << "target " << target;
        size_t event = 0;
        uint64_t access = 0;
        for (const auto &r : ranges) {
            EXPECT_EQ(r.firstEvent, event) << "target " << target;
            EXPECT_EQ(r.firstAccess, access) << "target " << target;
            event += r.eventCount;
            access += r.accessCount;
        }
        EXPECT_EQ(event, t.eventCount()) << "target " << target;
        EXPECT_EQ(access, t.accessCount()) << "target " << target;
    }
}

TEST(ShardedReplay, SweepDistancesBitIdenticalToSerialStack)
{
    MemoryTrace t = makeTrace(23, 4000, 300, true);
    SerialSweep serial;
    t.replay(serial);

    std::unordered_set<uint64_t> distinct(serial.elements.begin(),
                                          serial.elements.end());

    for (size_t threads : {1u, 4u}) {
        ThreadPool pool(threads);
        for (uint64_t chunk : chunkSizes(t.accessCount())) {
            lpp::reuse::ShardedSweepConfig cfg;
            cfg.chunkAccesses = chunk;
            std::vector<uint64_t> elements, distances;
            auto counts = lpp::reuse::shardedReuseSweep(
                t, cfg, pool, [&](const lpp::reuse::ShardChunk &c) {
                    EXPECT_EQ(c.elements.size(), c.range.accessCount);
                    EXPECT_EQ(elements.size(), c.range.firstAccess);
                    elements.insert(elements.end(), c.elements.begin(),
                                    c.elements.end());
                    distances.insert(distances.end(),
                                     c.distances.begin(),
                                     c.distances.end());
                });
            ASSERT_EQ(elements, serial.elements)
                << "chunk " << chunk << " threads " << threads;
            ASSERT_EQ(distances, serial.distances)
                << "chunk " << chunk << " threads " << threads;
            EXPECT_EQ(counts.accesses, t.accessCount());
            EXPECT_EQ(counts.distinctElements, distinct.size());
        }
    }
}

TEST(ShardedReplay, SweepBitIdenticalAcrossFrameGeometries)
{
    // The same stream recorded with tiny frames (many sealed, LZ-packed
    // frames; chunk boundaries landing mid-frame) must sweep
    // bit-identically to the default single-frame recording at every
    // pool size.
    MemoryTrace reference = makeTrace(41, 5000, 250, true);
    SerialSweep serial;
    reference.replay(serial);

    for (uint64_t frameTarget : {64u, 1021u}) {
        MemoryTrace t;
        t.setFrameTargetAccesses(frameTarget);
        reference.replay(t);
        ASSERT_GT(t.sealedFrameCount(), 2u)
            << "frame target " << frameTarget;

        for (size_t threads : {1u, 2u, 4u}) {
            ThreadPool pool(threads);
            lpp::reuse::ShardedSweepConfig cfg;
            cfg.chunkAccesses = 777; // straddles frame boundaries
            std::vector<uint64_t> elements, distances;
            lpp::reuse::shardedReuseSweep(
                t, cfg, pool, [&](const lpp::reuse::ShardChunk &c) {
                    elements.insert(elements.end(), c.elements.begin(),
                                    c.elements.end());
                    distances.insert(distances.end(),
                                     c.distances.begin(),
                                     c.distances.end());
                });
            ASSERT_EQ(elements, serial.elements)
                << "frames " << frameTarget << " threads " << threads;
            ASSERT_EQ(distances, serial.distances)
                << "frames " << frameTarget << " threads " << threads;
        }
    }
}

TEST(ShardedReplay, PrecountMatchesSerialPrecount)
{
    MemoryTrace t = makeTrace(37, 3000, 150, true);
    auto serial = lpp::phase::PhaseDetector::precountFromTrace(t);
    for (size_t threads : {1u, 4u}) {
        ThreadPool pool(threads);
        for (uint64_t chunk : chunkSizes(t.accessCount())) {
            lpp::reuse::ShardedSweepConfig cfg;
            cfg.chunkAccesses = chunk;
            auto counts = lpp::reuse::shardedPrecount(t, cfg, pool);
            EXPECT_EQ(counts.accesses, serial.accesses)
                << "chunk " << chunk << " threads " << threads;
            EXPECT_EQ(counts.distinctElements, serial.distinctElements)
                << "chunk " << chunk << " threads " << threads;
        }
    }
}

TEST(ShardedReplay, PrecountsEqualDistinctSetCount)
{
    // Dense: sweeps over one array range with scattered revisits.
    // Sparse: ids far apart, mostly one per 512-id page, plus the
    // smallest and largest element ids.
    SplitMix64 sm(61);
    std::vector<uint64_t> dense, sparse{0, (uint64_t{1} << 61) - 1};
    for (uint64_t i = 0; i < 4000; ++i)
        dense.push_back(0x2000 + (sm.next() % 5 == 0 ? sm.next() % 3000
                                                     : i % 1500));
    for (uint64_t i = 0; i < 1500; ++i)
        sparse.push_back((sm.next() % 700) * 977 * 512 + sm.next() % 512);
    ThreadPool pool(2);
    for (const auto *elements : {&dense, &sparse}) {
        const std::set<uint64_t> distinct(elements->begin(),
                                          elements->end());
        MemoryTrace t;
        for (size_t i = 0; i < elements->size(); ++i) {
            if (i % 50 == 0)
                t.onBlock(static_cast<lpp::trace::BlockId>(i % 7), 3);
            t.onAccess((*elements)[i] * lpp::trace::elementBytes);
        }
        t.onEnd();

        auto serial = lpp::phase::PhaseDetector::precountFromTrace(t);
        EXPECT_EQ(serial.accesses, elements->size());
        EXPECT_EQ(serial.distinctElements, distinct.size());
        for (uint64_t chunk : {uint64_t{1}, uint64_t{100},
                               uint64_t{elements->size() + 1}}) {
            lpp::reuse::ShardedSweepConfig cfg;
            cfg.chunkAccesses = chunk;
            auto counts = lpp::reuse::shardedPrecount(t, cfg, pool);
            EXPECT_EQ(counts.distinctElements, distinct.size())
                << "chunk " << chunk;
        }
    }
}

TEST(ShardedReplay, ChunkBlockRecordersAbsorbToSerialRecording)
{
    MemoryTrace t = makeTrace(41, 3000, 250, true);
    lpp::trace::BlockRecorder serial;
    t.replay(serial);

    ThreadPool pool(4);
    for (uint64_t chunk : chunkSizes(t.accessCount())) {
        lpp::reuse::ShardedSweepConfig cfg;
        cfg.chunkAccesses = chunk;
        lpp::trace::BlockRecorder merged;
        lpp::reuse::shardedReuseSweep(
            t, cfg, pool, [&](const lpp::reuse::ShardChunk &c) {
                merged.absorb(c.blocks);
            });
        EXPECT_EQ(merged.totalAccesses(), serial.totalAccesses());
        EXPECT_EQ(merged.totalInstructions(), serial.totalInstructions());
        ASSERT_EQ(merged.events().size(), serial.events().size())
            << "chunk " << chunk;
        for (size_t i = 0; i < merged.events().size(); ++i) {
            const auto &a = merged.events()[i];
            const auto &b = serial.events()[i];
            EXPECT_EQ(a.block, b.block) << i;
            EXPECT_EQ(a.instructions, b.instructions) << i;
            EXPECT_EQ(a.accessTime, b.accessTime) << i;
            EXPECT_EQ(a.instrTime, b.instrTime) << i;
        }
    }
}

TEST(ShardedReplay, SamplerFedExternalDistancesBitIdentical)
{
    MemoryTrace t = makeTrace(53, 6000, 400, true);

    lpp::reuse::SamplerConfig cfg;
    cfg.targetSamples = 60;
    cfg.checkInterval = 257; // many feedback rounds over 6000 accesses
    cfg.initialQualification = 16;
    cfg.initialTemporal = 8;
    cfg.initialSpatial = 4;
    cfg.expectedAccesses = t.accessCount();
    cfg.floorQualification = 2;
    cfg.floorTemporal = 1;

    lpp::reuse::VariableDistanceSampler serial(cfg);
    t.replay(serial);
    ASSERT_GT(serial.sampleCount(), 0u);
    ASSERT_GT(serial.adjustments(), 0u);

    ThreadPool pool(4);
    for (uint64_t chunk : chunkSizes(t.accessCount())) {
        auto sharded =
            lpp::reuse::VariableDistanceSampler::externalDistances(cfg);
        lpp::reuse::ShardedSweepConfig scfg;
        scfg.chunkAccesses = chunk;
        lpp::reuse::shardedReuseSweep(
            t, scfg, pool, [&](const lpp::reuse::ShardChunk &c) {
                for (size_t i = 0; i < c.elements.size(); ++i)
                    sharded.observe(c.elements[i],
                                    c.range.firstAccess + i,
                                    c.distances[i]);
            });

        EXPECT_EQ(sharded.accessCount(), serial.accessCount());
        EXPECT_EQ(sharded.sampleCount(), serial.sampleCount());
        EXPECT_EQ(sharded.adjustments(), serial.adjustments());
        EXPECT_EQ(sharded.qualificationThreshold(),
                  serial.qualificationThreshold());
        EXPECT_EQ(sharded.temporalThreshold(),
                  serial.temporalThreshold());
        EXPECT_EQ(sharded.spatialThreshold(),
                  serial.spatialThreshold());
        ASSERT_EQ(sharded.samples().size(), serial.samples().size())
            << "chunk " << chunk;
        for (size_t d = 0; d < sharded.samples().size(); ++d) {
            const auto &x = sharded.samples()[d];
            const auto &y = serial.samples()[d];
            EXPECT_EQ(x.element, y.element) << d;
            ASSERT_EQ(x.accesses.size(), y.accesses.size()) << d;
            for (size_t i = 0; i < x.accesses.size(); ++i) {
                EXPECT_EQ(x.accesses[i].time, y.accesses[i].time);
                EXPECT_EQ(x.accesses[i].distance,
                          y.accesses[i].distance);
            }
        }
    }
}

TEST(ShardedReplay, EmptyAndTinyTraces)
{
    ThreadPool pool(2);
    MemoryTrace empty;
    lpp::reuse::ShardedSweepConfig cfg;
    cfg.chunkAccesses = 4;
    auto counts = lpp::reuse::shardedPrecount(empty, cfg, pool);
    EXPECT_EQ(counts.accesses, 0u);
    EXPECT_EQ(counts.distinctElements, 0u);

    // One access, chunk size far larger than the trace.
    MemoryTrace one;
    one.onAccess(64);
    one.onEnd();
    SerialSweep serial;
    one.replay(serial);
    cfg.chunkAccesses = 1000;
    std::vector<uint64_t> distances;
    lpp::reuse::shardedReuseSweep(
        one, cfg, pool, [&](const lpp::reuse::ShardChunk &c) {
            distances.insert(distances.end(), c.distances.begin(),
                             c.distances.end());
        });
    EXPECT_EQ(distances, serial.distances);
}

} // namespace
