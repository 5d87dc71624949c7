/**
 * @file
 * Shared declarations of the repository benchmark, lpp_bench.
 *
 * The benchmark drives the pipeline from outside, through the public
 * entry points the table benches use. Its pieces:
 *   - program inputs drawn from the benchmark seed (SeededProgram): the
 *     library only ever sees ordinary WorkloadInputs;
 *   - output digests, so two ways of computing one operation can be
 *     compared bit for bit;
 *   - span tracing (Tracer) for the --trace 1 run, which rebuilds each
 *     operation from the layers' public stage functions;
 *   - the declared metric set, which must match BENCHMARK.json.
 */

#ifndef LPP_BENCH_HPP
#define LPP_BENCH_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/evaluation.hpp"
#include "workloads/workload.hpp"

namespace lppbench {

// Program inputs ----------------------------------------------------

/** Round of the untimed warm-up op: outside every timed round. */
constexpr uint64_t warmupRound = 1u << 20;

/**
 * @return the input seed a program runs with in `round` of a run with
 *         benchmark seed `bench_seed`. Seed 0, round 0 keeps the
 *         program's own (Table 2) seed.
 */
uint64_t deriveSeed(uint64_t bench_seed, uint64_t round,
                    uint64_t program_seed);

/**
 * A Table 1 program whose training and reference seeds are redrawn
 * from (benchmark seed, round). Everything else — generator, scale,
 * array layout — is the registry program's own.
 */
class SeededProgram final : public lpp::workloads::Workload
{
  public:
    SeededProgram(const std::string &name, uint64_t bench_seed,
                  uint64_t train_round, uint64_t ref_round);

    std::string name() const override { return inner->name(); }
    std::string description() const override
    {
        return inner->description();
    }
    std::string source() const override { return inner->source(); }
    lpp::workloads::WorkloadInput trainInput() const override
    {
        return train;
    }
    lpp::workloads::WorkloadInput refInput() const override { return ref; }
    void run(const lpp::workloads::WorkloadInput &input,
             lpp::trace::TraceSink &sink) const override
    {
        inner->run(input, sink);
    }
    std::vector<lpp::workloads::ArrayInfo>
    arrays(const lpp::workloads::WorkloadInput &input) const override
    {
        return inner->arrays(input);
    }
    bool predictable() const override { return inner->predictable(); }

  private:
    std::unique_ptr<lpp::workloads::Workload> inner;
    lpp::workloads::WorkloadInput train;
    lpp::workloads::WorkloadInput ref;
};

/**
 * The trace store's params hash for (workload, input). The library
 * keeps its own copy private (core/evaluation.cpp); this mirror lets the
 * stage-built operations address the same store entries. If the two
 * drift apart, the stage-built operations miss the store and run live,
 * which their live-execution check reports as a failed op.
 */
uint64_t storeParamsHash(const lpp::workloads::Workload &workload,
                         const lpp::workloads::WorkloadInput &input);

// Digests -----------------------------------------------------------

/** Marker table, phase sequence, boundary times and hierarchy. */
uint64_t digestAnalysis(const lpp::core::AnalysisResult &analysis);

/** Extrapolated locality of a stratified evaluation. */
uint64_t digestEstimate(const lpp::core::StratifiedEstimate &estimate);

/**
 * Every output field the table benches print (the fields
 * perf_pipeline's sameEvaluation compares), per-execution locality of
 * both instrumented runs, the analysis, and the stratified estimate
 * when one ran. Timings and cache counters are excluded.
 */
uint64_t digestEvaluation(const lpp::core::WorkloadEvaluation &ev);

/** The run-time prediction of one reference execution. */
struct Prediction
{
    lpp::core::InstrumentedRun ref;
    lpp::core::PredictionMetrics metrics;
    lpp::core::GranularityRow row;
    double localityStddev = 0.0;
    lpp::core::OverlapResult overlap;
};

uint64_t digestPrediction(const Prediction &p);

// Tracing -----------------------------------------------------------

/** One timed call. Names are "<layer>.<stage>"; roots are "op" and
 *  "probe". */
struct Span
{
    std::string name;
    std::string program;
    uint64_t op = 0;     //!< shared by every span of one op or probe
    int64_t startNs = 0; //!< steady clock
    int64_t endNs = 0;
    int32_t parent = -1; //!< index into the span list, -1 for roots
    uint64_t accesses = 0;
    uint64_t bytes = 0;

    /** @return the module the span belongs to ("bench" for roots). */
    std::string layer() const;
};

/** In-memory span recorder; spans nest by call structure. */
class Tracer
{
  public:
    /** RAII span. A null tracer records nothing, so untraced and
     *  traced callers share one code path. */
    class Scope
    {
      public:
        Scope(Tracer *tracer, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Attach the work done: accesses processed, bytes moved. */
        void count(uint64_t accesses, uint64_t bytes = 0);

      private:
        Tracer *t;
        int32_t id = -1;
    };

    /** Label the spans that follow with a program and an op id. */
    void setContext(std::string program, uint64_t op);

    const std::vector<Span> &spans() const { return list; }

  private:
    int32_t open(const char *name);
    void close(int32_t id);

    std::vector<Span> list;
    std::vector<int32_t> stack;
    std::string program;
    uint64_t opId = 0;
};

/** @return per span: its duration minus its direct children's. */
std::vector<int64_t> selfTimes(const std::vector<Span> &spans);

/**
 * @return whether every span lies inside its parent and siblings do
 *         not overlap; `why` names the first violation.
 */
bool properlyNested(const std::vector<Span> &spans, std::string *why);

/** Write Chrome trace-event JSON (loads in Perfetto). */
bool writeChromeTrace(const std::vector<Span> &spans,
                      const std::string &path);

// Stage-built operations (--trace 1) --------------------------------

/** core::analyzeWorkload, rebuilt from public stage calls. */
lpp::core::WorkloadAnalysisRun
stagedAnalyze(const lpp::workloads::Workload &workload,
              const lpp::core::AnalysisConfig &config, Tracer &tracer);

/** core::evaluateWorkload, rebuilt from public stage calls. */
lpp::core::WorkloadEvaluation
stagedEvaluate(const lpp::workloads::Workload &workload,
               const lpp::core::AnalysisConfig &config, Tracer &tracer);

/**
 * The predict-live op: one live instrumented reference run under the
 * analysis's markers, then the prediction and assembly helpers.
 * `live` counts program executions.
 */
Prediction predictLive(const lpp::workloads::Workload &workload,
                       const lpp::core::AnalysisResult &analysis,
                       Tracer *tracer, uint64_t &live);

/**
 * Layer probes over one input, run after an op and outside its wall
 * time: generate into a no-op sink, record, decode the recording, and
 * stream it through a stack simulator.
 */
void probeStream(const lpp::workloads::Workload &workload,
                 const lpp::workloads::WorkloadInput &input,
                 uint64_t frame_target, Tracer &tracer);

// Metrics -----------------------------------------------------------

/** One metric declared in BENCHMARK.json. */
struct MetricSpec
{
    const char *name;
    const char *unit;
    const char *better; //!< "higher" or "lower"
    double bound;       //!< end_to_end only
};

/** The end_to_end metrics, in BENCHMARK.json order. */
const std::vector<MetricSpec> &endToEndMetrics();

/** The per_layer metrics, in BENCHMARK.json order. */
const std::vector<MetricSpec> &perLayerMetrics();

/** @return whether `name` is a legal metric name ([A-Za-z0-9_.-]+). */
bool validMetricName(std::string_view name);

/**
 * @return the highest of p75/p90/p95/p99 that leaves at least ten of
 *         `samples` beyond it, or 50 (the median) when none does.
 */
int tailPercentile(size_t samples);

/** Linear-interpolated percentile (p in [0, 100]) of `values`. */
double percentile(std::vector<double> values, double p);

/** Shortest decimal text that reads back as `v` (JSON number). */
std::string jsonNumber(double v);

/** JSON string literal with escapes. */
std::string jsonString(std::string_view s);

/**
 * Run the self-test. `benchmark_json` is the file the declared metrics
 * and `workloads` (the benchmark's workload names) are checked against.
 */
int selfTest(const std::string &benchmark_json,
             const std::vector<std::string> &workloads);

} // namespace lppbench

#endif // LPP_BENCH_HPP
