#include "reuse/sharded_reuse.hpp"

#include <algorithm>
#include <utility>

#include "reuse/stack.hpp"
#include "support/element_table.hpp"
#include "support/parallel_for.hpp"
#include "trace/types.hpp"

namespace lpp::reuse {

namespace {

/** Per-chunk state of the full sweep's parallel local pass. */
struct ChunkState
{
    ShardChunk chunk;
    ReuseStack stack{64};
    std::vector<size_t> firstTouch; //!< local indices of boundary accesses
};

/**
 * Chunk-local pass: exact intra-chunk distances via a private stack
 * sized to the chunk so it never compacts, plus the chunk-local block
 * recording. The end-of-chunk correction reads only the order of its
 * last-access times.
 */
class LocalSink : public trace::TraceSink
{
  public:
    explicit LocalSink(ChunkState &st_) : st(st_) {}

    void
    onBlock(trace::BlockId block, uint32_t instructions) override
    {
        st.chunk.blocks.onBlock(block, instructions);
    }

    void
    onAccess(trace::Addr addr) override
    {
        handle(addr);
        st.chunk.blocks.onAccess(addr);
    }

    void
    onAccessBatch(const trace::Addr *addrs, size_t n) override
    {
        for (size_t i = 0; i < n; ++i)
            handle(addrs[i]);
        st.chunk.blocks.onAccessBatch(addrs, n);
    }

  private:
    void
    handle(trace::Addr addr)
    {
        uint64_t element = trace::toElement(addr);
        uint64_t dist = st.stack.access(element);
        if (dist == ReuseStack::infinite)
            st.firstTouch.push_back(st.chunk.elements.size());
        st.chunk.elements.push_back(element);
        st.chunk.distances.push_back(dist);
    }

    ChunkState &st;
};

void
localPass(trace::TraceCursor &cursor,
          const trace::MemoryTrace::ChunkRange &range, ChunkState &st)
{
    st.chunk.range = range;
    st.chunk.elements.reserve(range.accessCount);
    st.chunk.distances.reserve(range.accessCount);
    st.stack = ReuseStack(range.accessCount + 64);
    LocalSink sink(st);
    cursor.replayRange(sink, range);
}

/**
 * Sequential part: resolve the chunk's boundary distances on the global
 * stack, then move every locally-touched element's mark to its final
 * in-chunk position (in increasing local time, so the global order
 * matches the serial stack's after the chunk).
 *
 * When the k-th boundary access (element e) is resolved, the chunk's k
 * earlier boundaries sit newest on the global stack, and every other
 * mark is where the previous chunks left it. The marks newer than e's
 * are exactly the distinct elements touched since e's previous access,
 * so the global stack's own distance is the serial one.
 */
void
resolveChunk(ChunkState &st, ReuseStack &global)
{
    for (size_t pos : st.firstTouch)
        st.chunk.distances[pos] = global.access(st.chunk.elements[pos]);
    std::vector<std::pair<uint64_t, uint64_t>> order; // (local time, elem)
    order.reserve(st.firstTouch.size());
    st.stack.forEachLastAccess([&order](uint64_t element, uint64_t time) {
        order.emplace_back(time, element);
    });
    std::sort(order.begin(), order.end());
    for (auto &te : order)
        global.touch(te.second);
}

size_t
waveSize(support::ThreadPool &pool)
{
    return pool.threadCount() + 1; // the caller participates
}

/**
 * One streaming cursor per wave slot, reused across waves: a wave of
 * parallel chunk replays decodes one frame-sized window per worker
 * instead of touching a materialized trace, and slot i's cursor keeps
 * its decoder and batch scratch warm from wave to wave.
 */
std::vector<trace::TraceCursor>
cursorsFor(const trace::MemoryTrace &trace, size_t wave)
{
    std::vector<trace::TraceCursor> cursors;
    cursors.reserve(wave);
    for (size_t i = 0; i < wave; ++i)
        cursors.emplace_back(trace);
    return cursors;
}

/** Applies a callback to every data access delivered to it. */
template <typename Fn>
class AccessVisitor : public trace::TraceSink
{
  public:
    explicit AccessVisitor(Fn &fn_) : fn(fn_) {}

    void onAccess(trace::Addr addr) override { fn(addr); }

    void
    onAccessBatch(const trace::Addr *addrs, size_t n) override
    {
        for (size_t i = 0; i < n; ++i)
            fn(addrs[i]);
    }

  private:
    Fn &fn;
};

} // namespace

TraceCounts
shardedPrecount(const trace::MemoryTrace &trace,
                const ShardedSweepConfig &cfg, support::ThreadPool &pool)
{
    TraceCounts counts;
    counts.accesses = trace.accessCount();
    auto ranges = trace.chunks(cfg.chunkAccesses);

    support::ElementTable<uint8_t> seen;
    if (cfg.reserveElements > 0)
        seen.reserve(cfg.reserveElements);

    const size_t wave = waveSize(pool);
    auto cursors = cursorsFor(trace, wave);
    for (size_t base = 0; base < ranges.size(); base += wave) {
        const size_t n = std::min(wave, ranges.size() - base);
        // Per-chunk distinct-element lists, computed in parallel.
        std::vector<std::vector<uint64_t>> locals(n);
        support::parallelFor(pool, n, [&](size_t i) {
            support::ElementTable<uint8_t> localSeen;
            std::vector<uint64_t> &distinct = locals[i];
            auto visit = [&](trace::Addr addr) {
                uint64_t element = trace::toElement(addr);
                if (localSeen.insert(element, 0).second)
                    distinct.push_back(element);
            };
            AccessVisitor sink(visit);
            cursors[i].replayRange(sink, ranges[base + i]);
        });
        for (size_t i = 0; i < n; ++i)
            for (uint64_t element : locals[i])
                seen.insert(element, 0);
    }
    counts.distinctElements = seen.size();
    return counts;
}

TraceCounts
shardedReuseSweep(const trace::MemoryTrace &trace,
                  const ShardedSweepConfig &cfg, support::ThreadPool &pool,
                  const std::function<void(const ShardChunk &)> &consume)
{
    TraceCounts counts;
    counts.accesses = trace.accessCount();
    auto ranges = trace.chunks(cfg.chunkAccesses);
    ReuseStack global;
    if (cfg.reserveElements > 0)
        global.reserveElements(cfg.reserveElements);

    const size_t wave = waveSize(pool);
    auto cursors = cursorsFor(trace, wave);
    for (size_t base = 0; base < ranges.size(); base += wave) {
        const size_t n = std::min(wave, ranges.size() - base);
        std::vector<ChunkState> states(n);
        support::parallelFor(pool, n, [&](size_t i) {
            localPass(cursors[i], ranges[base + i], states[i]);
        });
        for (size_t i = 0; i < n; ++i) {
            resolveChunk(states[i], global);
            consume(states[i].chunk);
            states[i] = ChunkState{}; // free before the next wave
        }
    }
    counts.distinctElements = global.distinctCount();
    return counts;
}

} // namespace lpp::reuse
