/**
 * @file
 * MemoryTrace contract: replay must reproduce the recorded stream
 * exactly — same events, same order, same access-batch boundaries.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "delivery_log.hpp"
#include "support/random.hpp"
#include "trace/memory_trace.hpp"
#include "trace/sink.hpp"
#include "workloads/registry.hpp"

namespace {

using lpp::test::DeliveryLog;
using lpp::trace::Addr;

TEST(MemoryTrace, ReplayReproducesStreamExactly)
{
    lpp::trace::MemoryTrace trace;
    DeliveryLog direct;
    lpp::trace::FanoutSink both;
    both.attach(&trace);
    both.attach(&direct);

    lpp::Rng rng(7);
    std::vector<Addr> batch;
    for (int round = 0; round < 50; ++round) {
        both.onBlock(static_cast<uint32_t>(round), 10 + round);
        batch.clear();
        size_t n = 1 + rng.below(300);
        for (size_t i = 0; i < n; ++i)
            batch.push_back(rng.below(1 << 20) * 8);
        both.onAccessBatch(batch.data(), batch.size());
        both.onAccess(rng.below(1 << 20) * 8);
        if (round % 7 == 0)
            both.onManualMarker(static_cast<uint32_t>(round));
        if (round % 11 == 0)
            both.onPhaseMarker(static_cast<uint32_t>(round / 11));
    }
    both.onEnd();

    DeliveryLog replayed;
    trace.replay(replayed);
    EXPECT_EQ(replayed.log, direct.log);
    EXPECT_EQ(trace.eventCount(), direct.log.size());
}

TEST(MemoryTrace, RecordsRealWorkloadAndReplaysIdentically)
{
    auto w = lpp::workloads::create("gcc");
    ASSERT_NE(w, nullptr);
    auto in = w->trainInput();

    lpp::trace::MemoryTrace trace;
    DeliveryLog direct;
    lpp::trace::FanoutSink both;
    both.attach(&trace);
    both.attach(&direct);
    w->run(in, both);

    DeliveryLog replayed;
    trace.replay(replayed);
    EXPECT_EQ(replayed.log, direct.log);
    EXPECT_GT(trace.accessCount(), 1000u);
    EXPECT_GT(trace.memoryBytes(), 0u);
}

TEST(MemoryTrace, ReplayIsRepeatable)
{
    lpp::trace::MemoryTrace trace;
    Addr addrs[3] = {8, 16, 24};
    trace.onBlock(1, 5);
    trace.onAccessBatch(addrs, 3);
    trace.onEnd();

    DeliveryLog one, two;
    trace.replay(one);
    trace.replay(two);
    EXPECT_EQ(one.log, two.log);
}

TEST(MemoryTrace, ClearReleasesRecording)
{
    lpp::trace::MemoryTrace trace;
    Addr a = 8;
    trace.onAccessBatch(&a, 1);
    trace.onEnd();
    EXPECT_FALSE(trace.empty());
    trace.clear();
    EXPECT_TRUE(trace.empty());
    EXPECT_EQ(trace.eventCount(), 0u);
    EXPECT_EQ(trace.accessCount(), 0u);
    DeliveryLog log;
    trace.replay(log);
    EXPECT_TRUE(log.log.empty());
}

} // namespace
