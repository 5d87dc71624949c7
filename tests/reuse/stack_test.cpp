#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "fenwick_oracle.hpp"
#include "reuse/stack.hpp"
#include "support/random.hpp"

namespace {

using lpp::reuse::MarkAxis;
using lpp::reuse::oracle::FenwickTree;
using lpp::reuse::ReuseStack;

constexpr uint64_t inf = ReuseStack::infinite;

/** O(n*m) reference: count distinct elements between consecutive uses. */
class NaiveReuse
{
  public:
    uint64_t
    access(uint64_t element)
    {
        uint64_t dist = inf;
        auto it = lastIndex.find(element);
        if (it != lastIndex.end()) {
            std::unordered_set<uint64_t> between;
            for (size_t i = it->second + 1; i < history.size(); ++i)
                between.insert(history[i]);
            dist = between.size();
        }
        lastIndex[element] = history.size();
        history.push_back(element);
        return dist;
    }

  private:
    std::vector<uint64_t> history;
    std::unordered_map<uint64_t, size_t> lastIndex;
};

TEST(FenwickTree, PrefixSums)
{
    FenwickTree t(8);
    t.add(0, 1);
    t.add(3, 1);
    t.add(7, 1);
    EXPECT_EQ(t.prefix(0), 1u);
    EXPECT_EQ(t.prefix(2), 1u);
    EXPECT_EQ(t.prefix(3), 2u);
    EXPECT_EQ(t.prefix(7), 3u);
}

TEST(FenwickTree, NegativeUpdates)
{
    FenwickTree t(4);
    t.add(1, 1);
    t.add(1, -1);
    t.add(2, 1);
    EXPECT_EQ(t.prefix(1), 0u);
    EXPECT_EQ(t.prefix(3), 1u);
}

TEST(MarkAxis, CountMatchesNaiveAcrossBlockAndSuperblockEdges)
{
    // 100000 slots: three whole 32768-slot superblocks plus a ragged
    // tail, so ranges end inside words, blocks, superblocks and the
    // partial last block.
    const size_t n = 100000;
    MarkAxis axis(n);
    ASSERT_EQ(axis.size(), 100032u);
    std::vector<bool> naive(axis.size());
    lpp::Rng rng(17);
    for (int i = 0; i < 40000; ++i) {
        size_t slot = rng.below(axis.size());
        if (naive[slot])
            axis.clear(slot);
        else
            axis.set(slot);
        naive[slot] = !naive[slot];
    }
    auto naive_count = [&naive](size_t lo, size_t hi) {
        uint64_t c = 0;
        for (size_t i = lo; i < hi; ++i)
            c += naive[i];
        return c;
    };
    const size_t edges[] = {0,     1,     63,    64,    511,   512,
                            513,   4095,  32767, 32768, 32769, 65536,
                            98304, 99999, 100031, 100032};
    for (size_t lo : edges)
        for (size_t hi : edges)
            ASSERT_EQ(axis.count(lo, hi), lo < hi ? naive_count(lo, hi) : 0)
                << "[" << lo << ", " << hi << ")";
    for (int i = 0; i < 300; ++i) {
        size_t lo = rng.below(axis.size() + 1);
        size_t hi = rng.below(axis.size() + 1);
        if (lo > hi)
            std::swap(lo, hi);
        ASSERT_EQ(axis.count(lo, hi), naive_count(lo, hi))
            << "[" << lo << ", " << hi << ")";
    }

    // A marked slot's rank is the number of marks before it.
    std::vector<uint64_t> ranks = axis.wordRanks();
    EXPECT_EQ(ranks.back(), naive_count(0, axis.size()));
    for (size_t slot = 0; slot < axis.size(); slot += 997)
        EXPECT_EQ(axis.rank(ranks, slot), naive_count(0, slot));
}

TEST(MarkAxis, FillPrefixMarksExactlyThePrefix)
{
    MarkAxis axis(70000);
    for (size_t n : {size_t{0}, size_t{1}, size_t{64}, size_t{600},
                     size_t{32768}, size_t{40000}, axis.size()}) {
        axis.fillPrefix(n);
        EXPECT_EQ(axis.count(0, axis.size()), n);
        EXPECT_EQ(axis.count(0, n), n);
        EXPECT_EQ(axis.count(n, axis.size()), 0u);
    }
}

TEST(ReuseStack, FirstAccessIsInfinite)
{
    ReuseStack s;
    EXPECT_EQ(s.access(1), inf);
    EXPECT_EQ(s.access(2), inf);
    EXPECT_EQ(s.distinctCount(), 2u);
}

TEST(ReuseStack, ImmediateReuseIsZero)
{
    ReuseStack s;
    s.access(1);
    EXPECT_EQ(s.access(1), 0u);
    EXPECT_EQ(s.access(1), 0u);
}

TEST(ReuseStack, ClassicAbaPattern)
{
    ReuseStack s;
    s.access('a');
    s.access('b');
    EXPECT_EQ(s.access('a'), 1u);
}

TEST(ReuseStack, DuplicatesBetweenCountOnce)
{
    ReuseStack s;
    s.access('a');
    s.access('b');
    s.access('c');
    s.access('b');
    EXPECT_EQ(s.access('a'), 2u); // b and c, b counted once
}

TEST(ReuseStack, CyclicSweepDistanceIsWorkingSetMinusOne)
{
    const uint64_t n = 100;
    ReuseStack s;
    for (uint64_t i = 0; i < n; ++i)
        EXPECT_EQ(s.access(i), inf);
    for (int pass = 0; pass < 3; ++pass) {
        for (uint64_t i = 0; i < n; ++i)
            EXPECT_EQ(s.access(i), n - 1);
    }
    EXPECT_EQ(s.accessCount(), 4 * n);
}

TEST(ReuseStack, MatchesNaiveOnRandomTrace)
{
    lpp::Rng rng(41);
    ReuseStack fast;
    NaiveReuse slow;
    for (int i = 0; i < 3000; ++i) {
        uint64_t e = rng.below(60);
        EXPECT_EQ(fast.access(e), slow.access(e)) << "at access " << i;
    }
}

TEST(ReuseStack, CompactionPreservesDistances)
{
    // Tiny capacity hint forces many compactions.
    lpp::Rng rng(43);
    ReuseStack fast(64);
    NaiveReuse slow;
    for (int i = 0; i < 5000; ++i) {
        uint64_t e = rng.below(40);
        ASSERT_EQ(fast.access(e), slow.access(e)) << "at access " << i;
    }
}

TEST(ReuseStack, ManyCompactionsBitIdenticalToLargeCapacityStack)
{
    // A stack with a tiny capacity hint compacts its time axis over
    // and over; one sized for the whole trace up front never does.
    // Distances must be bit-identical at every access regardless —
    // compaction is a pure re-numbering of the time axis. The trace
    // mixes phase-local sweeps with random reuse and a growing working
    // set so compactions land in every regime (dense marks, stale
    // marks, mid-sweep).
    lpp::Rng rng(97);
    ReuseStack tiny(8);       // compacts hundreds of times
    ReuseStack big(1u << 20); // never compacts in this trace
    uint64_t phase_base = 0;
    for (int phase = 0; phase < 6; ++phase) {
        const uint64_t working_set = 50 + 80 * phase;
        for (int i = 0; i < 20000; ++i) {
            uint64_t e;
            if (i % 3 == 0)
                e = phase_base + (i % working_set); // sweep
            else
                e = phase_base + rng.below(working_set);
            ASSERT_EQ(tiny.access(e), big.access(e))
                << "phase " << phase << " access " << i;
        }
        phase_base += working_set / 2; // partial working-set overlap
    }
    EXPECT_EQ(tiny.accessCount(), big.accessCount());
    EXPECT_EQ(tiny.distinctCount(), big.distinctCount());
}

TEST(ReuseStack, ResetForgetsHistory)
{
    ReuseStack s;
    s.access(1);
    s.reset();
    EXPECT_EQ(s.access(1), inf);
    EXPECT_EQ(s.accessCount(), 1u);
    EXPECT_EQ(s.distinctCount(), 1u);
}

TEST(ReuseStack, LargeWorkingSetBeyondInitialCapacity)
{
    ReuseStack s(128);
    const uint64_t n = 5000;
    for (uint64_t i = 0; i < n; ++i)
        s.access(i);
    for (uint64_t i = 0; i < n; ++i)
        EXPECT_EQ(s.access(i), n - 1);
}

struct SweepParam
{
    uint64_t elements;
    size_t capacityHint;
};

class ReuseStackSweep : public ::testing::TestWithParam<SweepParam>
{};

TEST_P(ReuseStackSweep, RandomTraceMatchesNaive)
{
    auto [elements, hint] = GetParam();
    lpp::Rng rng(elements * 31 + hint);
    ReuseStack fast(hint);
    NaiveReuse slow;
    for (int i = 0; i < 1500; ++i) {
        uint64_t e = rng.below(elements);
        ASSERT_EQ(fast.access(e), slow.access(e));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ReuseStackSweep,
    ::testing::Values(SweepParam{2, 64}, SweepParam{8, 64},
                      SweepParam{64, 64}, SweepParam{64, 4096},
                      SweepParam{512, 64}, SweepParam{512, 1u << 16}));

} // namespace
