/**
 * @file
 * Microbenchmarks for the reuse-distance substrate: mark maintenance
 * alone (ReuseStack::touch), the full per-access distance
 * (ReuseStack::access = touch + distanceSince), the precount's
 * distinct-element set (phase::PrecountSink), and variable-distance
 * sampling throughput.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "core/parallel.hpp"
#include "phase/detector.hpp"
#include "reuse/analyzer.hpp"
#include "reuse/sampler.hpp"
#include "reuse/stack.hpp"
#include "support/flat_map.hpp"
#include "support/random.hpp"

namespace {

void
BM_ReuseStackRandom(benchmark::State &state)
{
    uint64_t working_set = static_cast<uint64_t>(state.range(0));
    lpp::Rng rng(7);
    lpp::reuse::ReuseStack stack;
    for (auto _ : state) {
        benchmark::DoNotOptimize(stack.access(rng.below(working_set)));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ReuseStackRandom)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void
BM_ReuseStackSweep(benchmark::State &state)
{
    uint64_t working_set = static_cast<uint64_t>(state.range(0));
    lpp::reuse::ReuseStack stack;
    uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(stack.access(i));
        if (++i == working_set)
            i = 0;
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ReuseStackSweep)->Arg(1 << 12)->Arg(1 << 18);

void
BM_ReuseStackTouchSweep(benchmark::State &state)
{
    uint64_t working_set = static_cast<uint64_t>(state.range(0));
    lpp::reuse::ReuseStack stack;
    uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(stack.touch(i));
        if (++i == working_set)
            i = 0;
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ReuseStackTouchSweep)->Arg(1 << 12)->Arg(1 << 18);

// --- Interleaved sweeps of several arrays, the programs' usual shape ---

constexpr uint64_t kSweepArrays = 4;

/**
 * Element id of the i-th access of a sweep that visits element j of
 * each of kSweepArrays arrays of `length` elements in turn (a[j],
 * b[j], c[j], d[j], a[j+1], ...). The arrays lie back to back from
 * element 0x2000, where the programs' data starts.
 */
uint64_t
sweepElement(uint64_t i, uint64_t length)
{
    return 0x2000 + (i % kSweepArrays) * length + i / kSweepArrays;
}

void
BM_ReuseStackTouchMultiArraySweep(benchmark::State &state)
{
    // Four arrays of 2^18 8-byte elements: an 8 MiB footprint, past
    // the L2 cache of common server cores.
    uint64_t length = static_cast<uint64_t>(state.range(0));
    uint64_t accesses = kSweepArrays * length;
    lpp::reuse::ReuseStack stack;
    stack.reserveElements(accesses);
    uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(stack.touch(sweepElement(i, length)));
        if (++i == accesses)
            i = 0;
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ReuseStackTouchMultiArraySweep)->Arg(1 << 18);

void
BM_PrecountMultiArraySweep(benchmark::State &state)
{
    uint64_t length = static_cast<uint64_t>(state.range(0));
    std::vector<lpp::trace::Addr> addrs(kSweepArrays * length);
    for (uint64_t i = 0; i < addrs.size(); ++i)
        addrs[i] = sweepElement(i, length) * lpp::trace::elementBytes;
    lpp::phase::PrecountSink sink;
    constexpr size_t batch = 4096;
    for (auto _ : state) {
        for (size_t i = 0; i < addrs.size(); i += batch)
            sink.onAccessBatch(addrs.data() + i,
                               std::min(batch, addrs.size() - i));
    }
    benchmark::DoNotOptimize(sink.stats());
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * addrs.size()));
}
BENCHMARK(BM_PrecountMultiArraySweep)->Arg(1 << 18);

void
BM_VariableDistanceSampler(benchmark::State &state)
{
    lpp::reuse::SamplerConfig cfg;
    cfg.targetSamples = 20000;
    lpp::reuse::VariableDistanceSampler sampler(cfg);
    uint64_t i = 0;
    uint64_t n = 1 << 16;
    for (auto _ : state) {
        sampler.onAccess((i % n) * 8);
        ++i;
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_VariableDistanceSampler);

// --- Hot-path substrate: flat robin-hood map vs std::unordered_map ---

void
BM_FlatMapProbe(benchmark::State &state)
{
    uint64_t keys = static_cast<uint64_t>(state.range(0));
    lpp::support::FlatMap<uint64_t> map(keys);
    for (uint64_t k = 0; k < keys; ++k)
        map.insert(k * 3, k);
    lpp::Rng rng(11);
    for (auto _ : state) {
        benchmark::DoNotOptimize(map.find(rng.below(keys * 3)));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FlatMapProbe)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void
BM_UnorderedMapProbe(benchmark::State &state)
{
    uint64_t keys = static_cast<uint64_t>(state.range(0));
    std::unordered_map<uint64_t, uint64_t> map;
    map.reserve(keys);
    for (uint64_t k = 0; k < keys; ++k)
        map.emplace(k * 3, k);
    lpp::Rng rng(11);
    for (auto _ : state) {
        benchmark::DoNotOptimize(map.find(rng.below(keys * 3)));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_UnorderedMapProbe)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

// --- Batched vs per-access delivery into a ReuseAnalyzer ---

void
BM_AnalyzerPerAccess(benchmark::State &state)
{
    lpp::Rng rng(5);
    std::vector<lpp::trace::Addr> addrs(1 << 16);
    for (auto &a : addrs)
        a = rng.below(1 << 20) * 8;
    lpp::reuse::ReuseAnalyzer analyzer(1 << 20);
    lpp::trace::TraceSink &sink = analyzer;
    for (auto _ : state) {
        for (auto a : addrs)
            sink.onAccess(a);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * addrs.size()));
}
BENCHMARK(BM_AnalyzerPerAccess);

void
BM_AnalyzerBatched(benchmark::State &state)
{
    lpp::Rng rng(5);
    std::vector<lpp::trace::Addr> addrs(1 << 16);
    for (auto &a : addrs)
        a = rng.below(1 << 20) * 8;
    lpp::reuse::ReuseAnalyzer analyzer(1 << 20);
    lpp::trace::TraceSink &sink = analyzer;
    constexpr size_t batch = 4096;
    for (auto _ : state) {
        for (size_t i = 0; i < addrs.size(); i += batch)
            sink.onAccessBatch(addrs.data() + i,
                               std::min(batch, addrs.size() - i));
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * addrs.size()));
}
BENCHMARK(BM_AnalyzerBatched);

// --- Parallel fan-out of independent reuse analyses (trace shards) ---

void
BM_ParallelReuseShards(benchmark::State &state)
{
    size_t shards = static_cast<size_t>(state.range(0));
    std::vector<std::vector<lpp::trace::Addr>> traces(shards);
    for (size_t s = 0; s < shards; ++s) {
        lpp::Rng rng(100 + s);
        traces[s].resize(1 << 15);
        for (auto &a : traces[s])
            a = rng.below(1 << 16) * 8;
    }
    lpp::core::ParallelRunner runner;
    for (auto _ : state) {
        auto counts = runner.mapIndexed(shards, [&](size_t s) {
            lpp::reuse::ReuseAnalyzer analyzer(1 << 16);
            analyzer.onAccessBatch(traces[s].data(), traces[s].size());
            analyzer.onEnd();
            return analyzer.histogram().total();
        });
        benchmark::DoNotOptimize(counts);
    }
    state.SetItemsProcessed(static_cast<int64_t>(
        state.iterations() * shards * (1 << 15)));
}
BENCHMARK(BM_ParallelReuseShards)->Arg(1)->Arg(4)->Arg(8);

} // namespace

BENCHMARK_MAIN();
