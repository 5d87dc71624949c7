#include "core/evaluation.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include <bit>

#include "reuse/sharded_reuse.hpp"
#include "support/logging.hpp"
#include "support/stats.hpp"
#include "trace/instrument.hpp"
#include "trace/codec.hpp"
#include "trace/memory_trace.hpp"
#include "trace/recorder.hpp"
#include "trace/trace_store.hpp"
#include "workloads/registry.hpp"
#include "workloads/static_workload.hpp"

namespace lpp::core {

OverlapResult
markerOverlap(const std::vector<uint64_t> &manual_times,
              const std::vector<uint64_t> &auto_times,
              uint64_t tolerance)
{
    auto matched = [tolerance](const std::vector<uint64_t> &sorted,
                               uint64_t t) {
        auto it = std::lower_bound(sorted.begin(), sorted.end(),
                                   t >= tolerance ? t - tolerance : 0);
        return it != sorted.end() && *it <= t + tolerance;
    };

    std::vector<uint64_t> manual_sorted = manual_times;
    std::vector<uint64_t> auto_sorted = auto_times;
    std::sort(manual_sorted.begin(), manual_sorted.end());
    std::sort(auto_sorted.begin(), auto_sorted.end());

    OverlapResult r;
    if (!manual_sorted.empty()) {
        uint64_t hit = 0;
        for (uint64_t t : manual_sorted)
            hit += matched(auto_sorted, t);
        r.recall = static_cast<double>(hit) /
                   static_cast<double>(manual_sorted.size());
    }
    if (!auto_sorted.empty()) {
        uint64_t hit = 0;
        for (uint64_t t : auto_sorted)
            hit += matched(manual_sorted, t);
        r.precision = static_cast<double>(hit) /
                      static_cast<double>(auto_sorted.size());
    }
    return r;
}

InstrumentedRun
runInstrumented(const trace::MarkerTable &table,
                const std::function<void(trace::TraceSink &)> &runner)
{
    ExecutionCollector collector;
    trace::ManualMarkerRecorder manual;
    trace::FanoutSink fan;
    fan.attach(&collector);
    fan.attach(&manual);
    trace::Instrumenter inst(table, fan);
    runner(inst);

    InstrumentedRun out;
    out.replay = collector.replay();
    out.manualTimes = manual.times();
    return out;
}

GranularityRow
granularity(const Replay &replay,
            const grammar::PhaseHierarchy &hierarchy)
{
    GranularityRow row;
    row.leafExecutions = replay.executions.size();
    row.execLengthM =
        static_cast<double>(replay.totalInstructions) / 1e6;
    if (replay.executions.empty())
        return row;

    double leaf_sum = 0.0;
    std::unordered_map<trace::PhaseId, RunningStats> per_phase;
    for (const auto &e : replay.executions) {
        leaf_sum += static_cast<double>(e.instructions);
        per_phase[e.phase].push(static_cast<double>(e.instructions));
    }
    row.avgLeafSizeM =
        leaf_sum / static_cast<double>(replay.executions.size()) / 1e6;

    const grammar::CompositePhase *big = hierarchy.largestComposite();
    if (big) {
        // Composite size = sum of the mean length of each leaf phase in
        // one iteration of the repeat body.
        double size = 0.0;
        for (uint32_t leaf : big->node->body()->expand()) {
            auto it = per_phase.find(leaf);
            if (it != per_phase.end())
                size += it->second.mean();
        }
        row.avgLargestCompositeM = size / 1e6;
    } else {
        // No repetition: the whole run is the largest composite.
        row.avgLargestCompositeM = row.execLengthM;
    }
    return row;
}

namespace {

/**
 * Content hash of everything that determines a workload input's event
 * stream: the codec format, the workload's identity, the input, and
 * the array layout a run with that input allocates. Any change to the
 * generator invalidates that workload's cache entries.
 */
uint64_t
workloadParamsHash(const workloads::Workload &workload,
                   const workloads::WorkloadInput &input)
{
    std::vector<uint8_t> buf;
    auto put64 = [&buf](uint64_t v) {
        for (int b = 0; b < 8; ++b)
            buf.push_back(static_cast<uint8_t>(v >> (8 * b)));
    };
    auto putStr = [&buf, &put64](const std::string &s) {
        put64(s.size());
        buf.insert(buf.end(), s.begin(), s.end());
    };
    put64(1); // hash layout version
    putStr(workload.name());
    putStr(workload.description());
    put64(input.seed);
    put64(std::bit_cast<uint64_t>(input.scale));
    for (const auto &a : workload.arrays(input)) {
        putStr(a.name);
        put64(a.base);
        put64(a.elements);
        put64(a.elemBytes);
    }
    return trace::contentHash64(buf.data(), buf.size());
}

/**
 * Mutable state of the training-side analysis (shared by
 * analyzeWorkload and registerWorkloadEvaluation): the stage sinks
 * live here so sink factories can build them lazily (after their
 * dependencies completed) and steps can read them afterwards. Owned by
 * the plan via retain().
 */
struct AnalysisJob
{
    const workloads::Workload *workload = nullptr;
    phase::PhaseDetector detector;
    workloads::WorkloadInput trainIn;

    std::shared_ptr<trace::TraceStore> store; //!< null: caching off
    uint64_t trainHash = 0;
    bool trainHit = false;
    bool headerStatsValid = false;
    phase::PrecountStats headerPre; //!< from the stored header, on hit

    trace::MemoryTrace trainLog;
    phase::PrecountStats pre;
    bool usedPrecount = false;
    std::optional<reuse::VariableDistanceSampler> sampler;
    trace::BlockRecorder blocks;

    ShardingConfig sharding;

    /** @return the pool the sharded sweeps run on. */
    support::ThreadPool &
    shardPool() const
    {
        return sharding.pool ? *sharding.pool
                             : support::ThreadPool::shared();
    }

    /** @return whether the sharded replay path is active. */
    bool
    sharded() const
    {
        return sharding.enabled && shardPool().threadCount() > 1;
    }

    AnalysisResult *analysisOut = nullptr;
    uint64_t cacheHits = 0, cacheMisses = 0, traceBytes = 0;
    uint64_t rawBytes = 0, encodedBytes = 0; //!< trainLog sizes

    /** Static-oracle verification (config.staticOracle.enabled). */
    StaticOracleConfig oracleCfg;
    const workloads::StaticallyDescribed *staticDesc = nullptr;
    StaticOracleReport *oracleOut = nullptr;
    std::optional<MeasuredLocalitySink> measured;

    /** Train-side stratified evaluation (analyzeWorkload only; the
     *  workload evaluation samples the reference stream instead). */
    StratifiedSamplingConfig stratCfg;
    StratifiedEvalReport *stratOut = nullptr;
    ExecutionCollector stratCollector;
    std::optional<trace::Instrumenter> stratInst;
};

/** Node handles of one registered training-side analysis. */
struct AnalysisNodes
{
    ExecutionPlan::NodeId acquired; //!< trainLog holds the stream
    ExecutionPlan::NodeId ready;    //!< *analysisOut final

    /** Oracle comparison done (== ready when the oracle is off). */
    ExecutionPlan::NodeId oracle;
};

std::shared_ptr<AnalysisJob>
makeAnalysisJob(const workloads::Workload &workload,
                const AnalysisConfig &config, AnalysisResult *out,
                StaticOracleReport *oracle_out,
                StratifiedEvalReport *stratified_out)
{
    auto job = std::make_shared<AnalysisJob>();
    job->workload = &workload;
    job->trainIn = workload.trainInput();
    job->analysisOut = out;
    job->sharding = config.sharding;
    job->oracleCfg = config.staticOracle;
    job->oracleOut = oracle_out;
    job->stratCfg = config.stratifiedSampling;
    job->stratOut = stratified_out;
    if (config.stratifiedSampling.enabled)
        // Finer frames keep the sampled path's seek/decode cost
        // proportional to the sampled fraction (a seek decodes from
        // the start of the containing frame).
        job->trainLog.setFrameTargetAccesses(
            config.stratifiedSampling.frameTargetAccesses);
    if (config.staticOracle.enabled && oracle_out)
        job->staticDesc =
            dynamic_cast<const workloads::StaticallyDescribed *>(
                &workload);

    // Same configuration adjustment the serial path applies: the
    // addressed footprint bounds the sampler's distinct-element count.
    AnalysisConfig cfg = config;
    if (cfg.detector.sampler.addressSpaceElements == 0) {
        uint64_t elements = 0;
        for (const auto &a : workload.arrays(job->trainIn))
            elements += a.elements;
        cfg.detector.sampler.addressSpaceElements = elements;
    }
    job->detector = phase::PhaseDetector(cfg.detector);

    if (config.traceCache.enabled) {
        job->store =
            std::make_shared<trace::TraceStore>(config.traceCache.dir);
        job->trainHash = workloadParamsHash(workload, job->trainIn);
        auto info = job->store->lookup(
            workloadKey(workload, job->trainIn), job->trainHash);
        if (info) {
            job->trainHit = true;
            job->cacheHits = 1;
            job->traceBytes += info->fileBytes;
            if (info->stats.valid) {
                job->headerStatsValid = true;
                job->headerPre = phase::PrecountStats{
                    info->accesses, info->stats.distinctElements};
            }
        } else {
            job->cacheMisses = 1;
        }
    }
    return job;
}

/**
 * Register the training-side analysis:
 *
 *   acquire the training stream (ONE live recording execution, or a
 *   trace-store load on a hit)  ->  precount from the recording (step;
 *   skipped entirely when the stored header carries the stats)  ->
 *   sampling + block trace as one coalesced replay of the recording
 *   ->  publish to the store (miss only)  ->  detection finish.
 */
AnalysisNodes
registerTrainAnalysis(ExecutionPlan &plan,
                      const std::shared_ptr<AnalysisJob> &job)
{
    plan.retain(job);
    AnalysisJob *j = job.get();
    const std::string train_key = workloadKey(*j->workload, j->trainIn);

    // Acquire: the one (at most) live training execution records its
    // raw stream; a cache hit decodes the stored stream instead. A
    // corrupt entry falls back to a live run inside the step (not
    // plan-counted — rare, and the result is still exact).
    ExecutionPlan::NodeId acquired;
    if (j->trainHit) {
        acquired = plan.addStep([j, train_key] {
            if (!j->store->load(train_key, j->trainHash, j->trainLog)) {
                j->headerStatsValid = false;
                j->workload->run(j->trainIn, j->trainLog);
            }
        });
    } else {
        acquired = plan.addPass(
            train_key,
            [j](trace::TraceSink &sink) {
                j->workload->run(j->trainIn, sink);
            },
            [j] { return &j->trainLog; });
    }

    // Precount from the recording: same statistics a dedicated
    // precount execution would produce (the replay is exact), without
    // the execution. A stored header supplies them for free; with
    // sharding active, chunk-local distinct sets run on the pool.
    auto precounted = plan.addStep(
        [j] {
            if (!j->detector.needsPrecount())
                return;
            j->usedPrecount = true;
            if (j->headerStatsValid) {
                j->pre = j->headerPre;
            } else if (j->sharded()) {
                reuse::ShardedSweepConfig scfg;
                scfg.chunkAccesses = j->sharding.chunkAccesses;
                reuse::TraceCounts counts = reuse::shardedPrecount(
                    j->trainLog, scfg, j->shardPool());
                j->pre = phase::PrecountStats{counts.accesses,
                                              counts.distinctElements};
            } else {
                j->pre =
                    phase::PhaseDetector::precountFromTrace(j->trainLog);
            }
        },
        {acquired});

    std::vector<ExecutionPlan::NodeId> ready_deps;
    if (j->sharded()) {
        // Sampling + block trace as one sharded sweep: the chunk-local
        // reuse stacks run on the pool, and the sequential part is one
        // observe() call per access plus a per-chunk block-recorder
        // absorb — bit-identical to the serial replay below.
        ready_deps.push_back(plan.addStep(
            [j] {
                j->sampler.emplace(
                    reuse::VariableDistanceSampler::externalDistances(
                        j->detector.samplingConfig(
                            j->usedPrecount ? &j->pre : nullptr)));
                reuse::ShardedSweepConfig scfg;
                scfg.chunkAccesses = j->sharding.chunkAccesses;
                scfg.reserveElements =
                    j->usedPrecount
                        ? static_cast<size_t>(j->pre.distinctElements)
                        : 0;
                reuse::shardedReuseSweep(
                    j->trainLog, scfg, j->shardPool(),
                    [j](const reuse::ShardChunk &c) {
                        for (size_t i = 0; i < c.elements.size(); ++i)
                            j->sampler->observe(
                                c.elements[i],
                                c.range.firstAccess + i,
                                c.distances[i]);
                        j->blocks.absorb(c.blocks);
                    });
            },
            {precounted}));
    } else {
        // Sampling + block trace: one coalesced replay of the recording.
        auto replay_runner = [j](trace::TraceSink &sink) {
            j->trainLog.replay(sink);
        };
        auto sampler_pass = plan.addPass(
            train_key, replay_runner,
            [j]() -> trace::TraceSink * {
                j->sampler.emplace(j->detector.samplingConfig(
                    j->usedPrecount ? &j->pre : nullptr));
                return &*j->sampler;
            },
            {precounted}, {.replay = true});
        auto blocks_pass = plan.addPass(
            train_key, replay_runner, [j] { return &j->blocks; },
            {precounted}, {.replay = true});
        ready_deps.push_back(sampler_pass);
        ready_deps.push_back(blocks_pass);
    }

    // Publish the recording for the next process (cache miss only).
    // Best-effort: a failed store leaves the pipeline untouched.
    if (j->store && !j->trainHit) {
        ready_deps.push_back(plan.addStep(
            [j, train_key] {
                trace::StoredTraceStats stats;
                if (j->usedPrecount) {
                    stats.valid = true;
                    stats.distinctElements = j->pre.distinctElements;
                }
                j->traceBytes += j->store->store(train_key, j->trainHash,
                                                 j->trainLog, stats);
            },
            {precounted}));
    }

    // Detection finish + hierarchy (pure computation).
    auto ready = plan.addStep(
        [j] {
            j->rawBytes = j->trainLog.rawBytes();
            j->encodedBytes = j->trainLog.encodedBytes();
            j->analysisOut->detection =
                j->detector.finish(*j->sampler, j->blocks);
            j->analysisOut->hierarchy =
                grammar::PhaseHierarchy::fromSequence(
                    j->analysisOut->detection.selection.sequence());
            // The sampler and the block trace can dominate a large
            // run's footprint, and the detection result owns
            // everything downstream consumers read — release them as
            // soon as finish() returns rather than at plan teardown.
            j->sampler.reset();
            j->blocks = trace::BlockRecorder();
        },
        std::move(ready_deps));

    // Static-oracle verification: measure the recorded stream with one
    // more coalescable replay (never a live execution), predict the
    // same run from the workload's affine IR, and compare once the
    // detector's boundaries are final.
    auto oracle = ready;
    if (j->staticDesc && j->oracleOut) {
        auto measured_pass = plan.addPass(
            train_key,
            [j](trace::TraceSink &sink) { j->trainLog.replay(sink); },
            [j]() -> trace::TraceSink * {
                uint64_t elements = 0;
                for (const auto &a : j->workload->arrays(j->trainIn))
                    elements += a.elements;
                j->measured.emplace(elements);
                return &*j->measured;
            },
            {acquired}, {.replay = true});
        oracle = plan.addStep(
            [j] {
                staticloc::StaticPrediction pred = staticloc::predict(
                    j->staticDesc->loopProgram(j->trainIn),
                    j->oracleCfg.method);
                *j->oracleOut = compareStaticOracle(
                    pred, j->measured->take(),
                    j->analysisOut->detection.boundaryTimes,
                    j->oracleCfg);
                j->measured.reset();
            },
            {measured_pass, ready});
    }

    // Train-side stratified sampled evaluation (analyzeWorkload only):
    // one instrumented replay of the recording cuts it into phase
    // executions, then the sampled evaluator seeks back into the same
    // recording for the chosen ranges. Never a live execution.
    if (j->stratCfg.enabled && j->stratOut) {
        auto instrumented = plan.addPass(
            train_key,
            [j](trace::TraceSink &sink) { j->trainLog.replay(sink); },
            [j]() -> trace::TraceSink * {
                j->stratInst.emplace(
                    j->analysisOut->detection.selection.table,
                    j->stratCollector);
                return &*j->stratInst;
            },
            {ready}, {.replay = true});
        plan.addStep(
            [j] {
                StratifiedEvaluator ev(j->stratCfg, &j->shardPool());
                *j->stratOut = ev.evaluate(j->trainLog,
                                           j->stratCollector.replay());
            },
            {instrumented});
    }

    return AnalysisNodes{acquired, ready, oracle};
}

/**
 * Reference-side and instrumented-run state of one registered workload
 * evaluation. Owned by the plan via retain().
 */
struct EvalJob
{
    const workloads::Workload *workload = nullptr;
    workloads::WorkloadInput refIn;

    std::shared_ptr<trace::TraceStore> store; //!< null: caching off
    uint64_t refHash = 0;
    bool refHit = false;
    trace::MemoryTrace refLog; //!< decoded on a hit, recorded on a miss

    ExecutionCollector trainCollector, refCollector;
    trace::ManualMarkerRecorder trainManual, refManual;
    trace::FanoutSink trainFan, refFan;
    std::optional<trace::Instrumenter> trainInst, refInst;

    uint64_t cacheHits = 0, cacheMisses = 0, traceBytes = 0;
    WorkloadEvaluation *out = nullptr;

    /** Ref-side stratified sampled evaluation. */
    StratifiedSamplingConfig stratCfg;
};

} // namespace

WorkloadEvaluationNodes
registerWorkloadEvaluation(ExecutionPlan &plan,
                           const workloads::Workload &workload,
                           const AnalysisConfig &config,
                           WorkloadEvaluation *out)
{
    AnalysisConfig train_config = config;
    // The workload evaluation samples the *reference* stream (far more
    // phase executions than the training run); keep the training side
    // exact rather than paying for a second instrumented replay.
    train_config.stratifiedSampling.enabled = false;
    auto ajob = makeAnalysisJob(workload, train_config, &out->analysis,
                                &out->staticOracle, nullptr);
    auto anodes = registerTrainAnalysis(plan, ajob);
    AnalysisJob *a = ajob.get();

    auto job = std::make_shared<EvalJob>();
    plan.retain(job);
    EvalJob *j = job.get();

    j->workload = &workload;
    j->refIn = workload.refInput();
    j->out = out;
    j->stratCfg = config.stratifiedSampling;
    if (j->stratCfg.enabled)
        j->refLog.setFrameTargetAccesses(
            j->stratCfg.frameTargetAccesses);
    out->name = workload.name();

    const std::string train_key = workloadKey(workload, a->trainIn);
    const std::string ref_key = workloadKey(workload, j->refIn);

    if (a->store) {
        j->store = a->store;
        j->refHash = workloadParamsHash(workload, j->refIn);
        if (j->store->lookup(ref_key, j->refHash)) {
            j->refHit = true;
            j->cacheHits = 1;
        } else {
            j->cacheMisses = 1;
        }
    }

    auto analysis_ready = anodes.ready;

    // Instrumented training run: a replay of the training recording
    // (never a live execution). Wraps its own instrumenter so the raw
    // stream stays shareable.
    auto train_replay = plan.addPass(
        train_key,
        [a](trace::TraceSink &sink) { a->trainLog.replay(sink); },
        [j]() -> trace::TraceSink * {
            j->trainFan.attach(&j->trainCollector);
            j->trainFan.attach(&j->trainManual);
            j->trainInst.emplace(j->out->analysis.detection.selection.table,
                                 j->trainFan);
            return &*j->trainInst;
        },
        {analysis_ready}, {.replay = true});

    // Instrumented reference run: live on a cold cache (recording the
    // raw stream for the store when caching), a replay of the stored
    // stream on a hit.
    auto ref_sink_factory = [j]() -> trace::TraceSink * {
        j->refFan.attach(&j->refCollector);
        j->refFan.attach(&j->refManual);
        j->refInst.emplace(j->out->analysis.detection.selection.table,
                           j->refFan);
        return &*j->refInst;
    };
    // The assemble step clears the training recording, so the oracle's
    // measured replay (if any) must have finished by then.
    std::vector<ExecutionPlan::NodeId> done_deps{train_replay,
                                                 anodes.oracle};
    // Dependencies of the stratified step: the instrumented ref run
    // (phase executions) and the recorded reference stream.
    std::vector<ExecutionPlan::NodeId> strat_deps;
    if (j->refHit) {
        auto acquired = plan.addStep([j, ref_key] {
            if (!j->store->load(ref_key, j->refHash, j->refLog))
                j->workload->run(j->refIn, j->refLog);
        });
        auto ref_replay = plan.addPass(
            ref_key,
            [j](trace::TraceSink &sink) { j->refLog.replay(sink); },
            ref_sink_factory, {analysis_ready, acquired},
            {.replay = true});
        done_deps.push_back(ref_replay);
        strat_deps = {ref_replay};
    } else {
        auto live_runner = [j](trace::TraceSink &sink) {
            j->workload->run(j->refIn, sink);
        };
        auto ref_run = plan.addPass(ref_key, live_runner,
                                    ref_sink_factory, {analysis_ready});
        done_deps.push_back(ref_run);
        if (j->store || j->stratCfg.enabled) {
            // Record the raw reference stream in the same coalesced
            // execution (for the store, the stratified evaluator, or
            // both); no precount stats — the reference side never
            // sizes a sampler.
            auto record = plan.addPass(ref_key, live_runner,
                                       [j] { return &j->refLog; },
                                       {analysis_ready});
            strat_deps = {ref_run, record};
            if (j->store)
                done_deps.push_back(plan.addStep(
                    [j, ref_key] {
                        j->traceBytes += j->store->store(
                            ref_key, j->refHash, j->refLog,
                            trace::StoredTraceStats{});
                    },
                    {record}));
        }
    }

    if (j->stratCfg.enabled) {
        // Sampled evaluation of the reference recording. Must complete
        // before the assemble step releases refLog.
        done_deps.push_back(plan.addStep(
            [j, a] {
                StratifiedEvaluator ev(j->stratCfg, &a->shardPool());
                j->out->stratified =
                    ev.evaluate(j->refLog, j->refCollector.replay());
            },
            std::move(strat_deps)));
    }

    // Assemble the evaluation; the recordings are no longer needed, so
    // release their memory.
    auto done = plan.addStep(
        [j, a] {
            WorkloadEvaluation &ev = *j->out;
            ev.train.replay = j->trainCollector.replay();
            ev.train.manualTimes = j->trainManual.times();
            ev.ref.replay = j->refCollector.replay();
            ev.ref.manualTimes = j->refManual.times();

            ev.metrics = evaluatePrediction(ev.ref.replay,
                                            ev.analysis.consistentPhases());

            auto train_hier = grammar::PhaseHierarchy::fromSequence(
                ev.train.replay.sequence());
            auto ref_hier = grammar::PhaseHierarchy::fromSequence(
                ev.ref.replay.sequence());
            ev.detectionRow = granularity(ev.train.replay, train_hier);
            ev.predictionRow = granularity(ev.ref.replay, ref_hier);

            ev.localityStddev = phaseLocalityStddev(ev.ref.replay);

            auto auto_times = [](const Replay &r) {
                std::vector<uint64_t> t;
                t.reserve(r.executions.size());
                for (const auto &e : r.executions)
                    t.push_back(e.startAccess);
                return t;
            };
            ev.trainOverlap = markerOverlap(ev.train.manualTimes,
                                            auto_times(ev.train.replay));
            ev.refOverlap = markerOverlap(ev.ref.manualTimes,
                                          auto_times(ev.ref.replay));

            ev.traceCacheHits = a->cacheHits + j->cacheHits;
            ev.traceCacheMisses = a->cacheMisses + j->cacheMisses;
            ev.traceBytes = a->traceBytes + j->traceBytes;
            ev.rawTraceBytes = a->rawBytes + j->refLog.rawBytes();
            ev.encodedTraceBytes =
                a->encodedBytes + j->refLog.encodedBytes();

            a->trainLog.clear();
            j->refLog.clear();
        },
        std::move(done_deps));

    return WorkloadEvaluationNodes{analysis_ready, done};
}

WorkloadAnalysisRun
analyzeWorkload(const workloads::Workload &workload,
                const AnalysisConfig &config)
{
    WorkloadAnalysisRun out;
    ExecutionPlan plan;
    auto job = makeAnalysisJob(workload, config, &out.analysis,
                               &out.staticOracle, &out.stratified);
    registerTrainAnalysis(plan, job);
    plan.run();
    out.programExecutions =
        plan.programExecutions(workload.name() + "@");
    out.traceCacheHits = job->cacheHits;
    out.traceCacheMisses = job->cacheMisses;
    out.traceBytes = job->traceBytes;
    out.rawTraceBytes = job->rawBytes;
    out.encodedTraceBytes = job->encodedBytes;
    return out;
}

WorkloadEvaluation
evaluateWorkload(const workloads::Workload &workload,
                 const AnalysisConfig &config)
{
    WorkloadEvaluation ev;
    ExecutionPlan plan;
    registerWorkloadEvaluation(plan, workload, config, &ev);
    plan.run();
    ev.programExecutions =
        plan.programExecutions(workload.name() + "@");
    return ev;
}

std::vector<WorkloadEvaluation>
evaluateWorkloads(const std::vector<std::string> &names,
                  const AnalysisConfig &config)
{
    AnalysisConfig cfg = config;
    support::ThreadPool &pool = cfg.sharding.pool
                                    ? *cfg.sharding.pool
                                    : support::ThreadPool::shared();
    return evaluateWorkloads(names, cfg, pool);
}

std::vector<WorkloadEvaluation>
evaluateWorkloads(const std::vector<std::string> &names,
                  const AnalysisConfig &config, support::ThreadPool &pool)
{
    std::vector<WorkloadEvaluation> results(names.size());
    AnalysisConfig cfg = config;
    cfg.sharding.pool = &pool; // sharded sweeps share the plan's pool
    ExecutionPlan plan;
    for (size_t i = 0; i < names.size(); ++i) {
        std::shared_ptr<workloads::Workload> w =
            workloads::create(names[i]);
        LPP_REQUIRE(w != nullptr, "unknown workload '%s'",
                    names[i].c_str());
        plan.retain(w);
        registerWorkloadEvaluation(plan, *w, cfg, &results[i]);
    }
    plan.run(pool);
    for (size_t i = 0; i < names.size(); ++i)
        results[i].programExecutions =
            plan.programExecutions(results[i].name + "@");
    return results;
}

namespace {

/** Cuts fixed-size units, driving a stack simulator and a BBV. */
class IntervalDriver : public trace::TraceSink
{
  public:
    IntervalDriver(uint64_t unit_accesses, size_t bbv_dims)
        : bbv(bbv_dims), unitAccesses(unit_accesses)
    {
        LPP_REQUIRE(unit_accesses > 0, "unit size must be positive");
    }

    void
    onBlock(trace::BlockId block, uint32_t instructions) override
    {
        bbv.onBlock(block, instructions);
    }

    void
    onAccess(trace::Addr addr) override
    {
        sim.onAccess(addr);
        if (++inUnit >= unitAccesses) {
            sim.markSegment();
            bbv.finalizeInterval();
            inUnit = 0;
        }
    }

    void
    onAccessBatch(const trace::Addr *addrs, size_t n) override
    {
        // Feed the simulator whole sub-batches up to each unit
        // boundary; boundary handling is identical to per-access
        // delivery because unit cuts depend only on access counts.
        while (n > 0) {
            uint64_t room = unitAccesses - inUnit;
            size_t take = n < room ? n : static_cast<size_t>(room);
            sim.onAccessBatch(addrs, take);
            inUnit += take;
            addrs += take;
            n -= take;
            if (inUnit >= unitAccesses) {
                sim.markSegment();
                bbv.finalizeInterval();
                inUnit = 0;
            }
        }
    }

    void
    onEnd() override
    {
        if (inUnit > 0) {
            sim.markSegment();
            bbv.finalizeInterval();
        }
    }

    cache::StackSimulator sim;
    bbv::BbvCollector bbv;

  private:
    uint64_t unitAccesses;
    uint64_t inUnit = 0;
};

/** Units restarting at phase markers, keyed (phase, index). */
class PhaseIntervalDriver : public trace::TraceSink
{
  public:
    explicit PhaseIntervalDriver(uint64_t unit_accesses)
        : unitAccesses(unit_accesses)
    {
        LPP_REQUIRE(unit_accesses > 0, "unit size must be positive");
    }

    void
    onAccess(trace::Addr addr) override
    {
        sim.onAccess(addr);
        if (++inUnit >= unitAccesses)
            closeUnit();
    }

    void
    onAccessBatch(const trace::Addr *addrs, size_t n) override
    {
        while (n > 0) {
            uint64_t room = unitAccesses - inUnit;
            size_t take = n < room ? n : static_cast<size_t>(room);
            sim.onAccessBatch(addrs, take);
            inUnit += take;
            addrs += take;
            n -= take;
            if (inUnit >= unitAccesses)
                closeUnit();
        }
    }

    void
    onPhaseMarker(trace::PhaseId phase) override
    {
        if (inUnit > 0)
            closeUnit();
        currentPhase = phase;
        unitIndex = 0;
    }

    void
    onEnd() override
    {
        if (inUnit > 0)
            closeUnit();
    }

    cache::StackSimulator sim;
    std::vector<uint64_t> keys;

  private:
    void
    closeUnit()
    {
        sim.markSegment();
        keys.push_back((static_cast<uint64_t>(currentPhase) << 32) |
                       unitIndex);
        ++unitIndex;
        inUnit = 0;
    }

    uint64_t unitAccesses;
    uint64_t inUnit = 0;
    trace::PhaseId currentPhase = 0xFFFFFFFFu;
    uint64_t unitIndex = 0;
};

} // namespace

ExecutionPlan::NodeId
registerIntervalProfile(ExecutionPlan &plan, std::string key,
                        std::function<void(trace::TraceSink &)> runner,
                        uint64_t unit_accesses, size_t bbv_dims,
                        IntervalProfile *out,
                        std::vector<ExecutionPlan::NodeId> after)
{
    auto driver =
        std::make_shared<IntervalDriver>(unit_accesses, bbv_dims);
    plan.retain(driver);
    IntervalDriver *d = driver.get();
    auto pass = plan.addPass(std::move(key), std::move(runner),
                             [d] { return d; }, std::move(after));
    return plan.addStep(
        [d, out] {
            out->units = d->sim.segments();
            out->bbvs = d->bbv.vectors();
            // Block events after the last access can add a trailing
            // BBV with no matching locality unit; align conservatively.
            size_t n = std::min(out->units.size(), out->bbvs.size());
            out->units.resize(n);
            out->bbvs.resize(n);
        },
        {pass});
}

IntervalProfile
collectIntervals(const std::function<void(trace::TraceSink &)> &runner,
                 uint64_t unit_accesses, size_t bbv_dims)
{
    IntervalProfile out;
    ExecutionPlan plan;
    registerIntervalProfile(plan, "run@local", runner, unit_accesses,
                            bbv_dims, &out);
    plan.run();
    return out;
}

ExecutionPlan::NodeId
registerPhaseIntervalProfile(ExecutionPlan &plan, std::string key,
                             const trace::MarkerTable *table,
                             std::function<void(trace::TraceSink &)> runner,
                             uint64_t unit_accesses,
                             PhaseIntervalProfile *out,
                             std::vector<ExecutionPlan::NodeId> after)
{
    LPP_REQUIRE(table != nullptr, "marker table must be non-null");
    struct Job
    {
        explicit Job(uint64_t unit) : driver(unit) {}
        PhaseIntervalDriver driver;
        std::optional<trace::Instrumenter> inst;
    };
    auto job = std::make_shared<Job>(unit_accesses);
    plan.retain(job);
    Job *jp = job.get();
    auto pass = plan.addPass(
        std::move(key), std::move(runner),
        [jp, table]() -> trace::TraceSink * {
            jp->inst.emplace(*table, jp->driver);
            return &*jp->inst;
        },
        std::move(after));
    return plan.addStep(
        [jp, out] {
            out->units = jp->driver.sim.segments();
            out->keys = jp->driver.keys;
            LPP_REQUIRE(out->units.size() == out->keys.size(),
                        "unit/key mismatch: %zu vs %zu",
                        out->units.size(), out->keys.size());
        },
        {pass});
}

PhaseIntervalProfile
collectPhaseIntervals(
    const trace::MarkerTable &table,
    const std::function<void(trace::TraceSink &)> &runner,
    uint64_t unit_accesses)
{
    PhaseIntervalProfile out;
    ExecutionPlan plan;
    registerPhaseIntervalProfile(plan, "run@local", &table, runner,
                                 unit_accesses, &out);
    plan.run();
    return out;
}

} // namespace lpp::core
