/**
 * @file
 * Streaming-substrate contract: multi-frame recordings replay
 * bit-identically to the live stream through whole-trace cursors and
 * through every ChunkRange slicing, cursors are reusable across
 * disjoint and out-of-order ranges, and a multi-frame recording
 * round-trips through the on-disk store.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "delivery_log.hpp"
#include "support/random.hpp"
#include "trace/memory_trace.hpp"
#include "trace/sink.hpp"
#include "trace/trace_store.hpp"

namespace fs = std::filesystem;

namespace {

using lpp::test::DeliveryLog;
using lpp::trace::Addr;
using lpp::trace::MemoryTrace;
using lpp::trace::TraceCursor;

/** A mixed stream with strided batches, markers, and some noise. */
void
emitStream(lpp::trace::TraceSink &sink, int rounds, uint64_t seed)
{
    lpp::Rng rng(seed);
    std::vector<Addr> batch;
    for (int round = 0; round < rounds; ++round) {
        sink.onBlock(static_cast<uint32_t>(round % 17), 10 + round % 5);
        batch.clear();
        size_t n = 1 + rng.below(60);
        Addr base = 0x10000 + 8 * rng.below(1 << 16);
        for (size_t i = 0; i < n; ++i)
            batch.push_back(base + 8 * static_cast<Addr>(i));
        sink.onAccessBatch(batch.data(), batch.size());
        sink.onAccess(8 * rng.below(1 << 20));
        if (round % 13 == 0)
            sink.onManualMarker(static_cast<uint32_t>(round));
        if (round % 29 == 0)
            sink.onPhaseMarker(static_cast<uint32_t>(round / 29));
    }
    sink.onEnd();
}

/** Record `rounds` of emitStream with a small frame target. */
MemoryTrace
recordMultiFrame(int rounds, uint64_t frame_target, uint64_t seed,
                 DeliveryLog *direct = nullptr)
{
    MemoryTrace trace;
    trace.setFrameTargetAccesses(frame_target);
    if (direct) {
        lpp::trace::FanoutSink both;
        both.attach(&trace);
        both.attach(direct);
        emitStream(both, rounds, seed);
    } else {
        emitStream(trace, rounds, seed);
    }
    return trace;
}

TEST(StreamingTrace, MultiFrameReplayIsBitIdenticalToLiveStream)
{
    DeliveryLog direct;
    MemoryTrace trace = recordMultiFrame(400, 512, 1, &direct);
    ASSERT_GT(trace.frameCount(), 4u) << "frame target did not split";

    DeliveryLog replayed;
    trace.replay(replayed);
    EXPECT_EQ(replayed.log, direct.log);
}

TEST(StreamingTrace, EndSealsTheTrailingFrame)
{
    MemoryTrace trace = recordMultiFrame(50, 1u << 20, 2);
    // Everything fits one frame, and End closes it: all frames are
    // sealed (and LZ-packed), none left open.
    EXPECT_EQ(trace.sealedFrameCount(), trace.frameCount());
}

TEST(StreamingTrace, RangeReplayMatchesWholeReplayAtEveryChunkTarget)
{
    constexpr uint64_t frameTarget = 512;
    DeliveryLog direct;
    MemoryTrace trace = recordMultiFrame(300, frameTarget, 3, &direct);

    // Chunk targets straddling the frame geometry: single-access
    // chunks, one less / exactly / one more than a frame, and larger
    // than the whole recording.
    const uint64_t targets[] = {1, frameTarget - 1, frameTarget,
                                frameTarget + 1,
                                trace.accessCount() + 100};
    for (uint64_t target : targets) {
        auto ranges = trace.chunks(target);
        ASSERT_FALSE(ranges.empty());
        DeliveryLog sliced;
        TraceCursor cursor(trace);
        size_t events = 0;
        uint64_t accesses = 0;
        for (const auto &r : ranges) {
            EXPECT_EQ(r.firstEvent, events);
            EXPECT_EQ(r.firstAccess, accesses);
            cursor.replayRange(sliced, r);
            events += r.eventCount;
            accesses += r.accessCount;
        }
        EXPECT_EQ(events, trace.eventCount()) << "target " << target;
        EXPECT_EQ(accesses, trace.accessCount()) << "target " << target;
        EXPECT_EQ(sliced.log, direct.log) << "target " << target;
    }
}

TEST(StreamingTrace, CursorReplaysRangesOutOfOrderAndRepeatedly)
{
    DeliveryLog direct;
    MemoryTrace trace = recordMultiFrame(200, 256, 4, &direct);
    auto ranges = trace.chunks(700);
    ASSERT_GE(ranges.size(), 3u);

    // One cursor, ranges visited back-to-front, then the first range
    // again: every slice must still match the corresponding span of
    // the live log.
    TraceCursor cursor(trace);
    std::vector<std::vector<std::string>> expected;
    size_t at = 0;
    for (const auto &r : ranges) {
        expected.emplace_back(direct.log.begin() +
                                  static_cast<long>(at),
                              direct.log.begin() +
                                  static_cast<long>(at + r.eventCount));
        at += r.eventCount;
    }
    for (size_t i = ranges.size(); i-- > 0;) {
        DeliveryLog got;
        cursor.replayRange(got, ranges[i]);
        EXPECT_EQ(got.log, expected[i]) << "range " << i;
    }
    DeliveryLog again;
    cursor.replayRange(again, ranges[0]);
    EXPECT_EQ(again.log, expected[0]);
}

TEST(StreamingTrace, SliceAtPartitionsAtEveryEventBoundary)
{
    // Cuts at every event-start access clock — the finest slicing
    // sliceAt supports, crossing every frame boundary by construction.
    // Replaying all ranges in order must reproduce the live stream.
    constexpr uint64_t frameTarget = 512;
    DeliveryLog direct;
    MemoryTrace trace = recordMultiFrame(300, frameTarget, 7, &direct);
    ASSERT_GT(trace.sealedFrameCount(), 2u);

    auto fine = trace.chunks(1); // one event-ish per chunk
    std::vector<uint64_t> cuts;
    for (const auto &r : fine)
        if (r.firstAccess != 0 || !cuts.empty())
            cuts.push_back(r.firstAccess);
    auto ranges = trace.sliceAt(cuts);
    ASSERT_EQ(ranges.size(), cuts.size() + 1);

    DeliveryLog sliced;
    TraceCursor cursor(trace);
    size_t events = 0;
    uint64_t accesses = 0;
    for (const auto &r : ranges) {
        EXPECT_EQ(r.firstEvent, events);
        EXPECT_EQ(r.firstAccess, accesses);
        cursor.replayRange(sliced, r);
        events += r.eventCount;
        accesses += r.accessCount;
    }
    EXPECT_EQ(events, trace.eventCount());
    EXPECT_EQ(accesses, trace.accessCount());
    EXPECT_EQ(sliced.log, direct.log);
}

TEST(StreamingTrace, SliceAtDuplicateAndBoundaryCutsYieldEmptyRanges)
{
    DeliveryLog direct;
    MemoryTrace trace = recordMultiFrame(150, 256, 8, &direct);
    const uint64_t total = trace.accessCount();
    const uint64_t mid = total / 2;

    // Cut at zero, a duplicated interior cut, and the end of the
    // recording: the duplicate yields a zero-length range and the
    // trailing range carries only zero-access events (if any).
    auto ranges = trace.sliceAt({0, mid, mid, total});
    ASSERT_EQ(ranges.size(), 5u);
    EXPECT_EQ(ranges[0].eventCount, 0u);
    EXPECT_EQ(ranges[0].accessCount, 0u);
    EXPECT_EQ(ranges[2].accessCount, 0u);
    EXPECT_EQ(ranges[4].accessCount, 0u);

    // A zero-length range replays nothing, and a cursor survives
    // being handed one between real ranges (a seek to a position it
    // is already at, or a no-op jump).
    TraceCursor cursor(trace);
    DeliveryLog sliced;
    for (const auto &r : ranges)
        cursor.replayRange(sliced, r);
    EXPECT_EQ(sliced.log, direct.log);

    DeliveryLog empty;
    TraceCursor fresh(trace);
    fresh.replayRange(empty, ranges[2]);
    EXPECT_TRUE(empty.log.empty());
}

TEST(StreamingTrace, CursorSeeksForwardAndBackwardAcrossFrames)
{
    // Ranges visited out of order with long jumps in both directions:
    // backward seeks must rewind to the owning frame, forward seeks
    // within the current frame must not rewind (same delivered
    // events either way — this pins the seek paths the sampled
    // evaluator leans on).
    DeliveryLog direct;
    MemoryTrace trace = recordMultiFrame(400, 256, 9, &direct);
    ASSERT_GT(trace.sealedFrameCount(), 4u);
    auto ranges = trace.sliceAt(
        {trace.accessCount() / 5, 2 * trace.accessCount() / 5,
         3 * trace.accessCount() / 5, 4 * trace.accessCount() / 5});
    ASSERT_EQ(ranges.size(), 5u);

    std::vector<std::vector<std::string>> expected;
    size_t at = 0;
    for (const auto &r : ranges) {
        expected.emplace_back(
            direct.log.begin() + static_cast<long>(at),
            direct.log.begin() + static_cast<long>(at + r.eventCount));
        at += r.eventCount;
    }

    TraceCursor cursor(trace);
    for (size_t i : {2u, 4u, 0u, 3u, 1u, 3u}) {
        DeliveryLog got;
        cursor.replayRange(got, ranges[i]);
        EXPECT_EQ(got.log, expected[i]) << "range " << i;
    }
}

TEST(StreamingTrace, MultiFrameStoreRoundTrip)
{
    fs::path dir = fs::temp_directory_path() /
                   ("lpp_streaming_test_" + std::to_string(::getpid()));
    fs::remove_all(dir);

    DeliveryLog direct;
    MemoryTrace trace = recordMultiFrame(300, 512, 5, &direct);
    ASSERT_GT(trace.sealedFrameCount(), 2u);

    lpp::trace::TraceStore store(dir.string());
    ASSERT_GT(store.store("w@s1:x1", 9, trace, {}), 0u);

    // Zero-decode load adopts the compressed frames; replay of the
    // loaded recording is bit-identical to the live stream.
    MemoryTrace loaded;
    loaded.setFrameTargetAccesses(512);
    ASSERT_TRUE(store.load("w@s1:x1", 9, loaded));
    EXPECT_EQ(loaded.frameCount(), trace.frameCount());
    DeliveryLog replayed;
    loaded.replay(replayed);
    EXPECT_EQ(replayed.log, direct.log);

    fs::remove_all(dir);
}

TEST(StreamingTrace, CompressesStridedStreamsWell)
{
    MemoryTrace trace = recordMultiFrame(2000, 1u << 20, 6);
    ASSERT_GT(trace.accessCount(), 10000u);
    // The bench enforces >= 4x on the real workloads; the synthetic
    // strided stream here must compress at least that well.
    EXPECT_GE(static_cast<double>(trace.rawBytes()),
              4.0 * static_cast<double>(trace.encodedBytes()));
}

} // namespace
