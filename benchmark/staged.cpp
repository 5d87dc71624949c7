/**
 * @file
 * The --trace 1 operations: core::analyzeWorkload and
 * core::evaluateWorkload rebuilt from the layers' public stage calls,
 * one span per call. The composition mirrors registerTrainAnalysis and
 * registerWorkloadEvaluation (core/evaluation.cpp) — sharded sweeps on
 * a multi-thread pool, no precount when the stored header carries its
 * statistics — but runs the plan's independent units one after the
 * other. Every op's digest is compared with the library entry point's,
 * so a drift in the library's composition fails the run instead of
 * timing a different program.
 */

#include <optional>

#include "cache/stack_sim.hpp"
#include "grammar/hierarchy.hpp"
#include "lpp_bench.hpp"
#include "reuse/sharded_reuse.hpp"
#include "support/logging.hpp"
#include "trace/instrument.hpp"
#include "trace/memory_trace.hpp"
#include "trace/recorder.hpp"
#include "trace/trace_store.hpp"

namespace lppbench {

namespace {

using namespace lpp;

using Scope = Tracer::Scope;

/** The training side of an analysis or evaluation. */
struct TrainSide
{
    core::AnalysisResult analysis;
    trace::MemoryTrace log;
    uint64_t live = 0;
};

support::ThreadPool &
poolOf(const core::AnalysisConfig &config)
{
    return config.sharding.pool ? *config.sharding.pool
                                : support::ThreadPool::shared();
}

/** Mirror of makeAnalysisJob + registerTrainAnalysis. */
void
stagedTrain(const workloads::Workload &w, const core::AnalysisConfig &config,
            const trace::TraceStore *store, Tracer &t, TrainSide &side)
{
    LPP_REQUIRE(!config.stratifiedSampling.enabled &&
                    !config.staticOracle.enabled,
                "stage-built analysis covers the plain training side");
    const workloads::WorkloadInput in = w.trainInput();
    phase::DetectorConfig dcfg = config.detector;
    if (dcfg.sampler.addressSpaceElements == 0)
        for (const auto &a : w.arrays(in))
            dcfg.sampler.addressSpaceElements += a.elements;
    const phase::PhaseDetector det(dcfg);
    support::ThreadPool &pool = poolOf(config);
    const bool sharded =
        config.sharding.enabled && pool.threadCount() > 1;
    const std::string key = core::workloadKey(w, in);
    const uint64_t hash = store ? storeParamsHash(w, in) : 0;

    std::optional<trace::StoredTraceInfo> info;
    if (store) {
        Scope s(&t, "trace.store.lookup");
        info = store->lookup(key, hash);
    }
    bool header_stats = info && info->stats.valid;

    bool loaded = false;
    if (info) {
        Scope s(&t, "trace.store.load");
        loaded = store->load(key, hash, side.log);
        s.count(side.log.accessCount(), info->fileBytes);
    }
    if (!loaded) {
        header_stats = false;
        Scope s(&t, "trace.record");
        w.run(in, side.log);
        ++side.live;
        s.count(side.log.accessCount(), side.log.encodedBytes());
    }

    phase::PrecountStats pre;
    const bool used_pre = det.needsPrecount();
    if (used_pre && header_stats) {
        pre = phase::PrecountStats{info->accesses,
                                   info->stats.distinctElements};
    } else if (used_pre) {
        Scope s(&t, "reuse.precount");
        if (sharded) {
            reuse::ShardedSweepConfig scfg;
            scfg.chunkAccesses = config.sharding.chunkAccesses;
            reuse::TraceCounts c =
                reuse::shardedPrecount(side.log, scfg, pool);
            pre = phase::PrecountStats{c.accesses, c.distinctElements};
        } else {
            pre = phase::PhaseDetector::precountFromTrace(side.log);
        }
        s.count(side.log.accessCount());
    }

    std::optional<reuse::VariableDistanceSampler> sampler;
    trace::BlockRecorder blocks;
    {
        Scope s(&t, "reuse.sample");
        reuse::SamplerConfig scfg =
            det.samplingConfig(used_pre ? &pre : nullptr);
        if (sharded) {
            sampler.emplace(
                reuse::VariableDistanceSampler::externalDistances(scfg));
            reuse::ShardedSweepConfig sweep;
            sweep.chunkAccesses = config.sharding.chunkAccesses;
            sweep.reserveElements =
                used_pre ? static_cast<size_t>(pre.distinctElements) : 0;
            reuse::shardedReuseSweep(
                side.log, sweep, pool, [&](const reuse::ShardChunk &c) {
                    for (size_t i = 0; i < c.elements.size(); ++i)
                        sampler->observe(c.elements[i],
                                         c.range.firstAccess + i,
                                         c.distances[i]);
                    blocks.absorb(c.blocks);
                });
        } else {
            sampler.emplace(scfg);
            trace::FanoutSink fan;
            fan.attach(&*sampler);
            fan.attach(&blocks);
            side.log.replay(fan);
        }
        s.count(side.log.accessCount());
    }

    if (store && !info) {
        Scope s(&t, "trace.store.publish");
        trace::StoredTraceStats stats;
        if (used_pre) {
            stats.valid = true;
            stats.distinctElements = pre.distinctElements;
        }
        s.count(side.log.accessCount(),
                store->store(key, hash, side.log, stats));
    }

    // PhaseDetector::finish, one span per stage.
    phase::DetectionResult &r = side.analysis.detection;
    r.dataSamples = sampler->samples().size();
    r.accessSamples = sampler->sampleCount();
    r.samplerAdjustments = sampler->adjustments();
    r.trainAccesses = blocks.totalAccesses();
    r.trainInstructions = blocks.totalInstructions();
    std::vector<reuse::SamplePoint> filtered;
    {
        Scope s(&t, "wavelet.filter");
        filtered = det.filterSamples(sampler->samples(), &r.filterStats);
        s.count(r.accessSamples);
    }
    {
        Scope s(&t, "phase.partition");
        r.partitionResult = det.partitionFiltered(filtered);
        for (size_t b : r.partitionResult.boundaries)
            r.boundaryTimes.push_back(filtered[b].time);
    }
    {
        Scope s(&t, "phase.markers");
        r.selection =
            det.selectMarkers(blocks, r.partitionResult.phaseCount());
        // The sampler and block trace die here, as in the library's
        // finish step.
        sampler.reset();
        blocks = trace::BlockRecorder();
    }
    {
        Scope s(&t, "grammar.hierarchy");
        side.analysis.hierarchy = grammar::PhaseHierarchy::fromSequence(
            r.selection.sequence());
    }
}

std::vector<uint64_t>
startTimes(const core::Replay &r)
{
    std::vector<uint64_t> times;
    times.reserve(r.executions.size());
    for (const auto &e : r.executions)
        times.push_back(e.startAccess);
    return times;
}

/** An instrumented run's sinks: markers -> {collector, manual}. */
struct Instrumented
{
    explicit Instrumented(const trace::MarkerTable &table)
        : inst(table, fan)
    {
        fan.attach(&collector);
        fan.attach(&manual);
    }

    core::InstrumentedRun
    take() const
    {
        return core::InstrumentedRun{collector.replay(), manual.times()};
    }

    core::ExecutionCollector collector;
    trace::ManualMarkerRecorder manual;
    trace::FanoutSink fan;
    trace::Instrumenter inst;
};

/** Discards the stream; counts accesses so it cannot be elided. */
class CountSink : public trace::TraceSink
{
  public:
    void onAccess(trace::Addr) override { ++accesses; }
    void onAccessBatch(const trace::Addr *, size_t n) override
    {
        accesses += n;
    }
    uint64_t accesses = 0;
};

/** Folds every address, so a replay's decode cannot be elided. */
class FoldSink : public trace::TraceSink
{
  public:
    void onAccess(trace::Addr a) override
    {
        ++accesses;
        fold ^= a;
    }
    void onAccessBatch(const trace::Addr *addrs, size_t n) override
    {
        accesses += n;
        for (size_t i = 0; i < n; ++i)
            fold ^= addrs[i];
    }
    uint64_t accesses = 0;
    trace::Addr fold = 0;
};

} // namespace

core::WorkloadAnalysisRun
stagedAnalyze(const workloads::Workload &workload,
              const core::AnalysisConfig &config, Tracer &tracer)
{
    LPP_REQUIRE(!config.traceCache.enabled,
                "the analyze op runs with the store off");
    TrainSide side;
    stagedTrain(workload, config, nullptr, tracer, side);
    core::WorkloadAnalysisRun out;
    out.analysis = std::move(side.analysis);
    out.programExecutions = side.live;
    return out;
}

core::WorkloadEvaluation
stagedEvaluate(const workloads::Workload &w,
               const core::AnalysisConfig &config, Tracer &t)
{
    std::optional<trace::TraceStore> store;
    if (config.traceCache.enabled)
        store.emplace(config.traceCache.dir);
    const trace::TraceStore *st = store ? &*store : nullptr;
    const bool strat = config.stratifiedSampling.enabled;

    core::WorkloadEvaluation ev;
    ev.name = w.name();
    core::AnalysisConfig train_cfg = config;
    train_cfg.stratifiedSampling.enabled = false;
    TrainSide train;
    stagedTrain(w, train_cfg, st, t, train);
    ev.analysis = std::move(train.analysis);
    uint64_t live = train.live;

    const workloads::WorkloadInput in = w.refInput();
    const std::string key = core::workloadKey(w, in);
    const uint64_t hash = st ? storeParamsHash(w, in) : 0;
    trace::MemoryTrace ref_log;
    if (strat)
        ref_log.setFrameTargetAccesses(
            config.stratifiedSampling.frameTargetAccesses);
    std::optional<trace::StoredTraceInfo> info;
    if (st) {
        Scope s(&t, "trace.store.lookup");
        info = st->lookup(key, hash);
    }

    const trace::MarkerTable &table = ev.analysis.detection.selection.table;
    Instrumented train_run(table), ref_run(table);
    {
        Scope s(&t, "core.instrumented_replay");
        train.log.replay(train_run.inst);
        s.count(train.log.accessCount());
    }
    if (info) {
        bool loaded = false;
        {
            Scope s(&t, "trace.store.load");
            loaded = st->load(key, hash, ref_log);
            s.count(ref_log.accessCount(), info->fileBytes);
        }
        if (!loaded) {
            Scope s(&t, "trace.record");
            w.run(in, ref_log);
            ++live;
        }
        Scope s(&t, "core.instrumented_replay");
        ref_log.replay(ref_run.inst);
        s.count(ref_log.accessCount());
    } else {
        {
            Scope s(&t, "core.instrumented_run");
            trace::FanoutSink fan;
            fan.attach(&ref_run.inst);
            if (st || strat)
                fan.attach(&ref_log);
            w.run(in, fan);
            ++live;
            s.count(ref_run.collector.replay().totalAccesses);
        }
        if (st) {
            Scope s(&t, "trace.store.publish");
            s.count(ref_log.accessCount(),
                    st->store(key, hash, ref_log, trace::StoredTraceStats{}));
        }
    }

    if (strat) {
        Scope s(&t, "core.stratified");
        core::StratifiedEvaluator evaluator(config.stratifiedSampling,
                                            &poolOf(config));
        ev.stratified =
            evaluator.evaluate(ref_log, ref_run.collector.replay());
        s.count(ev.stratified.estimate.measuredAccesses);
    }

    {
        Scope s(&t, "core.predict");
        ev.train = train_run.take();
        ev.ref = ref_run.take();
        ev.metrics = core::evaluatePrediction(
            ev.ref.replay, ev.analysis.consistentPhases());
        std::optional<grammar::PhaseHierarchy> train_hier, ref_hier;
        {
            Scope g(&t, "grammar.hierarchy");
            train_hier = grammar::PhaseHierarchy::fromSequence(
                ev.train.replay.sequence());
            ref_hier = grammar::PhaseHierarchy::fromSequence(
                ev.ref.replay.sequence());
        }
        ev.detectionRow = core::granularity(ev.train.replay, *train_hier);
        ev.predictionRow = core::granularity(ev.ref.replay, *ref_hier);
        ev.localityStddev = core::phaseLocalityStddev(ev.ref.replay);
        ev.trainOverlap = core::markerOverlap(ev.train.manualTimes,
                                              startTimes(ev.train.replay));
        ev.refOverlap = core::markerOverlap(ev.ref.manualTimes,
                                            startTimes(ev.ref.replay));
    }
    ev.programExecutions = live;
    return ev;
}

Prediction
predictLive(const workloads::Workload &w, const core::AnalysisResult &analysis,
            Tracer *t, uint64_t &live)
{
    const workloads::WorkloadInput in = w.refInput();
    Prediction p;
    {
        Scope s(t, "core.instrumented_run");
        p.ref = core::runInstrumented(analysis.detection.selection.table,
                                      [&](trace::TraceSink &sink) {
                                          ++live;
                                          w.run(in, sink);
                                      });
        s.count(p.ref.replay.totalAccesses);
    }
    Scope s(t, "core.predict");
    p.metrics = core::evaluatePrediction(p.ref.replay,
                                         analysis.consistentPhases());
    std::optional<grammar::PhaseHierarchy> hier;
    {
        Scope g(t, "grammar.hierarchy");
        hier = grammar::PhaseHierarchy::fromSequence(p.ref.replay.sequence());
    }
    p.row = core::granularity(p.ref.replay, *hier);
    p.localityStddev = core::phaseLocalityStddev(p.ref.replay);
    p.overlap =
        core::markerOverlap(p.ref.manualTimes, startTimes(p.ref.replay));
    return p;
}

void
probeStream(const workloads::Workload &w, const workloads::WorkloadInput &in,
            uint64_t frame_target, Tracer &t)
{
    Scope root(&t, "probe");
    {
        Scope s(&t, "workloads.generate");
        CountSink sink;
        w.run(in, sink);
        s.count(sink.accesses);
    }
    trace::MemoryTrace log(trace::PredictorConfig{}, frame_target);
    {
        Scope s(&t, "trace.record");
        w.run(in, log);
        s.count(log.accessCount(), log.encodedBytes());
    }
    {
        Scope s(&t, "trace.decode");
        FoldSink sink;
        log.replay(sink);
        s.count(sink.accesses, log.rawBytes());
    }
    {
        Scope s(&t, "cache.stack_sim");
        cache::StackSimulator sim;
        log.replay(sim);
        s.count(sim.total().accesses);
    }
}

} // namespace lppbench
