/**
 * @file
 * Evaluation engine shared by the table/figure benches: per-workload
 * analysis + prediction (Tables 2, 3, 4, 6) and interval profiling for
 * the baselines (Table 4, Fig 6).
 */

#ifndef LPP_CORE_EVALUATION_HPP
#define LPP_CORE_EVALUATION_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bbv/bbv.hpp"
#include "cache/stack_sim.hpp"
#include "core/analysis.hpp"
#include "core/execution_plan.hpp"
#include "core/runtime.hpp"
#include "support/thread_pool.hpp"
#include "trace/memory_trace.hpp"
#include "workloads/workload.hpp"

namespace lpp::core {

/** One side (detection or prediction) of a Table 3 row. */
struct GranularityRow
{
    uint64_t leafExecutions = 0;   //!< leaf phase executions
    double execLengthM = 0.0;      //!< run length, M instructions
    double avgLeafSizeM = 0.0;     //!< avg leaf size, M instructions
    double avgLargestCompositeM = 0.0; //!< largest composite phase size
};

/** Recall/precision of auto markers against manual markers (Table 6). */
struct OverlapResult
{
    double recall = 0.0;
    double precision = 0.0;
};

/** A replay together with the manual marker times of the same run. */
struct InstrumentedRun
{
    Replay replay;
    std::vector<uint64_t> manualTimes; //!< access clock
};

/** Full evaluation of one workload (everything except baselines). */
struct WorkloadEvaluation
{
    std::string name;
    AnalysisResult analysis;
    InstrumentedRun train; //!< instrumented detection run
    InstrumentedRun ref;   //!< instrumented prediction run
    PredictionMetrics metrics;       //!< Table 2 row
    GranularityRow detectionRow;     //!< Table 3, left half
    GranularityRow predictionRow;    //!< Table 3, right half
    double localityStddev = 0.0;     //!< Table 4, first column
    OverlapResult trainOverlap;      //!< Table 6, detection
    OverlapResult refOverlap;        //!< Table 6, prediction

    /** Static-vs-dynamic verification (config.staticOracle). Default
     *  (unchecked) unless the oracle is enabled and the workload
     *  carries an affine IR. */
    StaticOracleReport staticOracle;

    /** Sampled evaluation of the reference recording
     *  (config.stratifiedSampling); default (ran = false) when off. */
    StratifiedEvalReport stratified;

    /** Live program executions this evaluation cost (replays free). */
    uint64_t programExecutions = 0;

    /** Executions served from the trace cache (0 when caching is off). */
    uint64_t traceCacheHits = 0;

    /** Cache probes that missed and ran (and recorded) live. */
    uint64_t traceCacheMisses = 0;

    /** Compressed trace bytes written to or reused from the cache. */
    uint64_t traceBytes = 0;

    /** Raw address bytes the recorded streams would occupy decoded
     *  (train + ref, 8 bytes per access). */
    uint64_t rawTraceBytes = 0;

    /** In-memory compressed frame bytes of the same recordings; the
     *  rawTraceBytes / encodedTraceBytes quotient is the predictive
     *  codec's compression ratio on this workload. */
    uint64_t encodedTraceBytes = 0;
};

/**
 * Marker-time overlap with the paper's matching rule: two times are the
 * same if they differ by at most `tolerance` accesses.
 */
OverlapResult markerOverlap(const std::vector<uint64_t> &manual_times,
                            const std::vector<uint64_t> &auto_times,
                            uint64_t tolerance = 400);

/** Run `runner` under `table`, collecting replay + manual times. */
InstrumentedRun
runInstrumented(const trace::MarkerTable &table,
                const std::function<void(trace::TraceSink &)> &runner);

/** Table 3 row for a replay and the hierarchy of its sequence. */
GranularityRow granularity(const Replay &replay,
                           const grammar::PhaseHierarchy &hierarchy);

/**
 * The full per-workload evaluation pipeline, driven through an
 * execution plan: at most two live program executions (one recording
 * training run, one reference run) — every other consumer replays the
 * recorded streams, and precount statistics are derived from the
 * training recording instead of a dedicated precount execution. With
 * config.traceCache enabled, each live execution first probes the
 * on-disk trace store: a hit replaces it with a replay of the stored
 * stream (0 live executions on a fully warm cache) and a miss records
 * and publishes the stream for the next process. Results are
 * bit-identical to the serial one-sink-per-run pipeline on every path
 * (cold-live, cold-recorded, warm-cache); programExecutions reports
 * the live cost.
 */
WorkloadEvaluation
evaluateWorkload(const workloads::Workload &workload,
                 const AnalysisConfig &config = {});

/** Analysis-only result of analyzeWorkload(), with its cache costs. */
struct WorkloadAnalysisRun
{
    AnalysisResult analysis;
    uint64_t programExecutions = 0; //!< live executions (0 or 1)
    uint64_t traceCacheHits = 0;
    uint64_t traceCacheMisses = 0;
    uint64_t traceBytes = 0;
    uint64_t rawTraceBytes = 0;     //!< decoded size of the recording
    uint64_t encodedTraceBytes = 0; //!< compressed frames in memory

    /** Static-vs-dynamic verification (config.staticOracle). */
    StaticOracleReport staticOracle;

    /** Sampled evaluation of the training recording
     *  (config.stratifiedSampling); default (ran = false) when off. */
    StratifiedEvalReport stratified;
};

/**
 * The training-side analysis alone (detection, markers, hierarchy),
 * driven through an execution plan with the same trace-cache semantics
 * as evaluateWorkload: at most one live training execution, 0 on a
 * warm cache. Bit-identical to PhaseAnalysis::analyzeWorkload.
 */
WorkloadAnalysisRun
analyzeWorkload(const workloads::Workload &workload,
                const AnalysisConfig &config = {});

/**
 * Evaluate many workloads (by registry name) with the same config on
 * ONE shared execution plan, scheduling independent stages of every
 * workload across the shared thread pool. Results come back in the
 * order of `names`, and every field is bit-identical to calling
 * evaluateWorkload serially on each name: the stages share no state
 * and results land in per-call slots.
 */
std::vector<WorkloadEvaluation>
evaluateWorkloads(const std::vector<std::string> &names,
                  const AnalysisConfig &config = {});

/**
 * Same, but on an explicit pool: the plan schedules its units on
 * `pool` and the sharded intra-workload sweeps reuse it (the config's
 * sharding.pool is overridden). Lets benches sweep thread counts with
 * dedicated pools instead of the process-wide shared one.
 */
std::vector<WorkloadEvaluation>
evaluateWorkloads(const std::vector<std::string> &names,
                  const AnalysisConfig &config, support::ThreadPool &pool);

/** Node handles of one registered workload evaluation. */
struct WorkloadEvaluationNodes
{
    /**
     * Completed once the marker table and hierarchy in out->analysis
     * are final. Chain interval/phase-interval passes after this node
     * (not after `done`) so they can still coalesce with the
     * evaluation's own reference execution.
     */
    ExecutionPlan::NodeId analysisReady;

    /** Completed once every field of *out (except the execution
     *  counts, filled post-run) is final. */
    ExecutionPlan::NodeId done;
};

/**
 * Register the full per-workload evaluation pipeline on `plan`:
 *
 *   acquire train stream (ONE live recording execution, or a trace-
 *   cache load)  ->  precount from the recording (step)  ->  sampling
 *   + block trace as one coalesced REPLAY of the recording  ->
 *   detection finish (step)  ->  instrumented train REPLAY +
 *   instrumented ref execution (live or cache replay)  ->  metrics
 *   assembly (step)
 *
 * At most two live program executions per workload (training,
 * reference); precount statistics come from the recorded stream, and
 * every other consumer replays a recording. With config.traceCache
 * enabled each live execution is replaced by a store replay on a hit
 * and recorded + published on a miss. Every field of *out is
 * bit-identical to the serial one-sink-per-run pipeline. `workload`
 * and `out` must outlive plan.run(); the caller fills
 * out->programExecutions from plan.programExecutions(name + "@")
 * after the run.
 */
WorkloadEvaluationNodes
registerWorkloadEvaluation(ExecutionPlan &plan,
                           const workloads::Workload &workload,
                           const AnalysisConfig &config,
                           WorkloadEvaluation *out);

/** Aligned per-interval locality and BBV profile of one run. */
struct IntervalProfile
{
    std::vector<cache::SegmentLocality> units;
    std::vector<std::vector<double>> bbvs;
};

/**
 * Cut a run into fixed `unit_accesses`-sized units, measuring each
 * unit's all-associativity locality and BBV at the same boundaries.
 */
IntervalProfile
collectIntervals(const std::function<void(trace::TraceSink &)> &runner,
                 uint64_t unit_accesses, size_t bbv_dims = 32);

/**
 * Register an interval-profile pass under `key` on `plan`. A pass with
 * an equal key (e.g. a workload evaluation's reference execution) and
 * no dependency path to this one shares its program execution. `out`
 * must outlive plan.run(); its fields are final once the returned node
 * completed.
 */
ExecutionPlan::NodeId registerIntervalProfile(
    ExecutionPlan &plan, std::string key,
    std::function<void(trace::TraceSink &)> runner,
    uint64_t unit_accesses, size_t bbv_dims, IntervalProfile *out,
    std::vector<ExecutionPlan::NodeId> after = {});

/** Per-unit locality plus (phase, intra-phase index) keys (Fig 6). */
struct PhaseIntervalProfile
{
    std::vector<cache::SegmentLocality> units;
    std::vector<uint64_t> keys; //!< (phase << 32) | interval index
};

/**
 * Cut an instrumented run into `unit_accesses`-sized units that restart
 * at every phase marker, keyed by (phase, index) — the paper's "phase
 * intervals" for resizing inside long phases.
 */
PhaseIntervalProfile collectPhaseIntervals(
    const trace::MarkerTable &table,
    const std::function<void(trace::TraceSink &)> &runner,
    uint64_t unit_accesses);

/**
 * Register a phase-interval pass under `key` on `plan`. The pass wraps
 * its own instrumenter over the shared raw stream, so it coalesces
 * with plain passes of the same key. `*table` is read when the pass
 * starts (pass `after` = the node that finalizes it, e.g.
 * WorkloadEvaluationNodes::analysisReady); `table` and `out` must
 * outlive plan.run().
 */
ExecutionPlan::NodeId registerPhaseIntervalProfile(
    ExecutionPlan &plan, std::string key, const trace::MarkerTable *table,
    std::function<void(trace::TraceSink &)> runner,
    uint64_t unit_accesses, PhaseIntervalProfile *out,
    std::vector<ExecutionPlan::NodeId> after = {});

} // namespace lpp::core

#endif // LPP_CORE_EVALUATION_HPP
