/**
 * @file
 * lpp_bench: the repository benchmark.
 *
 *   lpp_bench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
 *             [--threads <n>] [--out <dir>] [--ops <n>]
 *   lpp_bench --selftest        (from the repository root)
 *
 * Each workload is a closed loop — one client, the next op starts when
 * the previous one returned — over rounds of the nine Table 1 programs.
 * The loop runs whole rounds until --seconds have passed and at least
 * two rounds ran (or until --ops ops ran). Before timing, the workload's fixture is set up and one
 * untimed warm-up op runs on inputs outside the timed set; set-up is
 * repeated and its median reported as setup_s.
 *
 *   analyze-cold      core::analyzeWorkload on the training input, store
 *                     off, fresh seed per round
 *   predict-live      core::runInstrumented on a live reference run with
 *                     a fresh seed per round, then the prediction
 *                     helpers; markers from one analysis per program
 *   evaluate-warm     core::evaluateWorkload against a private store
 *                     holding every train and ref stream: zero live runs
 *   evaluate-sampled  core::evaluateWorkload with the store and the
 *                     stratified estimator on, fresh seed per round:
 *                     every op records, publishes and samples
 *
 * With --trace 0 the run reports the end-to-end metrics; with --trace 1
 * every op runs twice, through the library entry point and rebuilt from
 * stage calls with one span per call, and the run reports per-layer
 * metrics and writes <out>/trace.json (Chrome trace events) and
 * <out>/layers.json. Every run writes <out>/result.json. The last line
 * of standard output is one JSON object {correct, attempted, failed,
 * metrics}; the exit code is non-zero when any op failed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/execution_plan.hpp"
#include "lpp_bench.hpp"
#include "reuse/sharded_reuse.hpp"
#include "support/parallel_for.hpp"
#include "support/thread_pool.hpp"
#include "trace/memory_trace.hpp"
#include "trace/trace_store.hpp"
#include "workloads/registry.hpp"

namespace {

using namespace lpp;
using namespace lppbench;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

enum class Kind
{
    AnalyzeCold,
    PredictLive,
    EvaluateWarm,
    EvaluateSampled
};

struct KindInfo
{
    Kind kind;
    const char *name;
    uint64_t expectedLive; //!< live program executions per op
};

constexpr KindInfo kinds[] = {
    {Kind::AnalyzeCold, "analyze-cold", 1},
    {Kind::PredictLive, "predict-live", 1},
    {Kind::EvaluateWarm, "evaluate-warm", 0},
    {Kind::EvaluateSampled, "evaluate-sampled", 2},
};

/** Set-up repetitions of an untraced run; setup_s is their median. */
constexpr int setupRepeats = 3;

/** The traced run fails when spans leave more of the op unexplained. */
constexpr double maxUnattributedShare = 0.05;

/** Timed rounds of an untraced run, at least. */
constexpr uint64_t minRounds = 2;

/** evaluate-sampled verifies every verifyStride-th predictable
 *  program of the first round. */
constexpr uint64_t verifyStride = 7;

/** The stratified estimator's error must stay below this (percent). */
constexpr double maxSampledErrorPct = 1.0;

struct Options
{
    const KindInfo *kind = nullptr;
    uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    // One pool worker: at two the sharded sweeps churn memory across
    // threads, and on a shared VM that doubles run-to-run spread.
    size_t threads = 1;
    std::string out;
    uint64_t maxOps = 0; //!< 0: whole rounds until --seconds
    bool selftest = false;
};

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One timed op. */
struct OpRecord
{
    std::string program;
    uint64_t round = 0;
    bool predictable = false;
    double wallS = 0.0;
    uint64_t accesses = 0;
    uint64_t live = 0;
    uint64_t digest = 0;

    bool predicted = false; //!< the op produced Table 2 metrics
    core::PredictionMetrics metrics;
    uint64_t refInstructions = 0;
    uint64_t refExecutions = 0;

    uint64_t estimateDigest = 0; //!< evaluate-sampled
    double sampledFraction = 0.0;
    size_t strata = 0;
    uint64_t accessSamples = 0; //!< training-side sampler output
    size_t phases = 0;

    std::string failure; //!< empty: the op succeeded
};

/** One reported number. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Table 2 rows of the committed reference, keyed by program. */
std::map<std::string, std::vector<std::string>>
readTable2(const std::string &path)
{
    std::map<std::string, std::vector<std::string>> rows;
    std::ifstream in(path);
    std::string line;
    std::getline(in, line); // header
    while (std::getline(in, line)) {
        std::vector<std::string> cells;
        std::stringstream ss(line);
        std::string cell;
        while (std::getline(ss, cell, ','))
            cells.push_back(cell);
        if (cells.size() == 6)
            rows[cells[0]] = {cells.begin() + 1, cells.end()};
    }
    return rows;
}

std::string
pct2(double fraction)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", fraction * 100.0);
    return buf;
}

/**
 * Record one input's stream and publish it as an evaluation with the
 * store on would: training streams carry the precount statistics in
 * their header, reference streams none.
 */
void
publishStream(const trace::TraceStore &store, const workloads::Workload &w,
              const workloads::WorkloadInput &in, bool training,
              support::ThreadPool &pool)
{
    trace::MemoryTrace log;
    w.run(in, log);
    trace::StoredTraceStats stats;
    if (training) {
        stats.valid = true;
        stats.distinctElements =
            reuse::shardedPrecount(log, reuse::ShardedSweepConfig{}, pool)
                .distinctElements;
    }
    if (!store.store(core::workloadKey(w, in), storeParamsHash(w, in), log,
                     stats))
        throw std::runtime_error("cannot publish " + w.name() + " to " +
                                 store.dir());
}

uint64_t
directoryBytes(const fs::path &dir)
{
    uint64_t bytes = 0;
    std::error_code ec;
    for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec))
        if (it->is_regular_file(ec))
            bytes += it->file_size(ec);
    return bytes;
}

class Bench
{
  public:
    explicit Bench(const Options &o) : opt(o), names(workloads::allNames())
    {
        outDir = opt.out.empty() ? fs::path(".bench_build/out") /
                                       opt.kind->name
                                 : fs::path(opt.out);
        storeDir = outDir / "store";
    }

    int run();

  private:
    /** (train round, ref round) of an op in `round`. */
    std::pair<uint64_t, uint64_t>
    inputRounds(uint64_t round) const
    {
        switch (opt.kind->kind) {
          case Kind::PredictLive:
            return {0, round};
          case Kind::EvaluateWarm:
            return round == warmupRound ? std::pair{round, round}
                                        : std::pair{0ul, 0ul};
          default:
            return {round, round};
        }
    }

    core::AnalysisConfig config(bool traced) const;
    OpRecord runOp(size_t program, uint64_t round, Tracer *tracer);
    double setUp();
    void verifySampled(double &max_error_pct);
    void checkRepeat(OpRecord &rec);
    void runTraced(std::vector<Metric> &layer);
    std::vector<Metric> layerMetrics(double untraced_wall_s,
                                     uint64_t pool_busy_ns);

    Options opt;
    std::vector<std::string> names;
    fs::path outDir, storeDir;
    std::vector<core::AnalysisResult> analyses; //!< predict-live fixture
    std::vector<OpRecord> ops;
    std::map<std::string, uint64_t> firstDigest; //!< evaluate-warm
    std::map<std::string, std::vector<std::string>> table2;
    Tracer tracer;
    uint64_t nextOpId = 0;
    std::vector<std::string> runFailures; //!< checks outside any op
};

core::AnalysisConfig
Bench::config(bool traced) const
{
    core::AnalysisConfig cfg;
    switch (opt.kind->kind) {
      case Kind::EvaluateWarm:
        cfg.traceCache.enabled = true;
        cfg.traceCache.dir = storeDir.string();
        break;
      case Kind::EvaluateSampled:
        // Each twin of a traced run records into its own store, so
        // both stay cold.
        cfg.traceCache.enabled = true;
        cfg.traceCache.dir = (storeDir / (traced ? "traced" : "plain"))
                                 .string();
        cfg.stratifiedSampling.enabled = true;
        break;
      default:
        break;
    }
    return cfg;
}

OpRecord
Bench::runOp(size_t program, uint64_t round, Tracer *t)
{
    OpRecord rec;
    rec.program = names[program];
    rec.round = round;
    auto [train_round, ref_round] = inputRounds(round);
    try {
        SeededProgram w(names[program], opt.seed, train_round, ref_round);
        rec.predictable = w.predictable();
        const core::AnalysisConfig cfg = config(t != nullptr);
        auto predicted = [&rec](const core::PredictionMetrics &m,
                                const core::Replay &ref) {
            rec.predicted = true;
            rec.metrics = m;
            rec.refInstructions = ref.totalInstructions;
            rec.refExecutions = ref.executions.size();
        };

        std::optional<Tracer::Scope> root;
        if (t) {
            t->setContext(rec.program, nextOpId++);
            root.emplace(t, "op");
        }
        const auto t0 = Clock::now();
        switch (opt.kind->kind) {
          case Kind::AnalyzeCold: {
            core::WorkloadAnalysisRun run =
                t ? stagedAnalyze(w, cfg, *t) : core::analyzeWorkload(w, cfg);
            rec.wallS = secondsSince(t0);
            root.reset();
            const auto &det = run.analysis.detection;
            rec.accesses = det.trainAccesses;
            rec.live = run.programExecutions;
            rec.digest = digestAnalysis(run.analysis);
            rec.accessSamples = det.accessSamples;
            rec.phases = det.selection.phases.size();
            if (rec.predictable && det.selection.table.empty())
                rec.failure = "no phase markers selected";
            break;
          }
          case Kind::PredictLive: {
            Prediction p = predictLive(w, analyses[program], t, rec.live);
            rec.wallS = secondsSince(t0);
            root.reset();
            rec.accesses = p.ref.replay.totalAccesses;
            rec.digest = digestPrediction(p);
            predicted(p.metrics, p.ref.replay);
            break;
          }
          case Kind::EvaluateWarm:
          case Kind::EvaluateSampled: {
            core::WorkloadEvaluation ev =
                t ? stagedEvaluate(w, cfg, *t) : core::evaluateWorkload(w, cfg);
            rec.wallS = secondsSince(t0);
            root.reset();
            const auto &det = ev.analysis.detection;
            rec.accesses = det.trainAccesses + ev.ref.replay.totalAccesses;
            rec.live = ev.programExecutions;
            rec.digest = digestEvaluation(ev);
            rec.accessSamples = det.accessSamples;
            rec.phases = det.selection.phases.size();
            predicted(ev.metrics, ev.ref.replay);
            if (opt.kind->kind == Kind::EvaluateSampled) {
                if (!ev.stratified.ran)
                    rec.failure = "stratified evaluation did not run";
                rec.estimateDigest = digestEstimate(ev.stratified.estimate);
                rec.sampledFraction = ev.stratified.sampledFraction();
                rec.strata = ev.stratified.strata.size();
            }
            break;
          }
        }
        if (rec.failure.empty() && rec.live != opt.kind->expectedLive)
            rec.failure = "live executions " + std::to_string(rec.live) +
                          " != " + std::to_string(opt.kind->expectedLive);
        if (rec.failure.empty() && rec.predicted && rec.predictable &&
            rec.refExecutions == 0)
            rec.failure = "instrumented run has no phase executions";
        if (rec.failure.empty() && opt.kind->kind == Kind::EvaluateWarm &&
            opt.seed == 0 && round == 0 && rec.predictable) {
            // Reference check: the programs' own inputs must reproduce
            // the committed Table 2 row.
            auto it = table2.find(rec.program);
            const auto &m = rec.metrics;
            std::vector<std::string> got = {
                pct2(m.strictAccuracy), pct2(m.strictCoverage),
                pct2(m.relaxedAccuracy), pct2(m.relaxedCoverage),
                std::to_string(rec.refExecutions)};
            if (it == table2.end() || it->second != got)
                rec.failure = "Table 2 row differs from bench_out/table2.csv";
        }
    } catch (const std::exception &e) {
        rec.failure = std::string("threw: ") + e.what();
    }
    return rec;
}

double
Bench::setUp()
{
    const auto t0 = Clock::now();
    fs::remove_all(storeDir);
    analyses.clear();
    switch (opt.kind->kind) {
      case Kind::PredictLive:
        for (const auto &name : names) {
            SeededProgram w(name, opt.seed, 0, 0);
            analyses.push_back(core::analyzeWorkload(w, config(false)).analysis);
        }
        break;
      case Kind::EvaluateWarm: {
        // Record every train and ref stream of the timed rounds, plus
        // the warm-up op's, into the private store. The warm-up op
        // then fails unless every later evaluation finds its streams.
        std::vector<SeededProgram> progs;
        for (const auto &name : names)
            progs.emplace_back(name, opt.seed, 0, 0);
        progs.emplace_back(names[0], opt.seed, warmupRound, warmupRound);
        const trace::TraceStore store(storeDir.string());
        support::ThreadPool &pool = support::ThreadPool::shared();
        support::parallelFor(pool, 2 * progs.size(), [&](size_t i) {
            const SeededProgram &w = progs[i / 2];
            publishStream(store, w, i % 2 ? w.refInput() : w.trainInput(),
                          i % 2 == 0, pool);
        });
        break;
      }
      default:
        break;
    }
    OpRecord warm = runOp(0, warmupRound, nullptr);
    if (!warm.failure.empty())
        throw std::runtime_error("warm-up op failed: " + warm.failure);
    return secondsSince(t0);
}

void
Bench::checkRepeat(OpRecord &rec)
{
    if (opt.kind->kind != Kind::EvaluateWarm || !rec.failure.empty())
        return;
    auto [it, first] = firstDigest.emplace(rec.program, rec.digest);
    if (!first && it->second != rec.digest)
        rec.failure = "output differs from the first round's";
}

void
Bench::verifySampled(double &max_error_pct)
{
    // Re-evaluate first-round ops against the now-warm store with the
    // exhaustive cross-check on: the estimate must repeat exactly and
    // stay inside the error bound. The bound rests on executions of a
    // phase repeating their locality, which the paper finds false for
    // gcc and vortex (gcc exceeds 1% on some inputs), so only the
    // predictable programs are held to it. The exhaustive pass costs
    // about three sampled ops, so each run checks one of them and seven
    // consecutive seeds cover all seven.
    max_error_pct = 0.0;
    core::AnalysisConfig cfg = config(false);
    cfg.stratifiedSampling.verifyAgainstExact = true;
    uint64_t position = 0;
    for (OpRecord &rec : ops) {
        if (rec.round != 0 || !rec.predictable ||
            position++ % verifyStride != opt.seed % verifyStride ||
            !rec.failure.empty())
            continue;
        auto [train_round, ref_round] = inputRounds(rec.round);
        SeededProgram w(rec.program, opt.seed, train_round, ref_round);
        core::WorkloadEvaluation ev = core::evaluateWorkload(w, cfg);
        const auto &rep = ev.stratified;
        max_error_pct = std::max(max_error_pct,
                                 100.0 * rep.comparison.maxRelMissRateError);
        if (!rep.verified || !rep.comparison.ok)
            rec.failure = "stratified estimate outside its error bound";
        else if (digestEstimate(rep.estimate) != rec.estimateDigest)
            rec.failure = "verification pass sampled a different estimate";
    }
}

std::vector<Metric>
Bench::layerMetrics(double untraced_wall_s, uint64_t pool_busy_ns)
{
    const std::vector<Span> &spans = tracer.spans();
    std::vector<int64_t> self = selfTimes(spans);
    std::vector<bool> inProbe(spans.size(), false);
    double op_wall = 0, root_self = 0;
    std::map<std::string, double> span_self, layer_self;
    std::map<std::string, uint64_t> span_acc, span_calls;
    struct Probe
    {
        double ns = 0;
        uint64_t accesses = 0, bytes = 0;
    };
    std::map<std::string, Probe> probe;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        double dur = double(s.endNs - s.startNs);
        if (s.parent < 0) {
            inProbe[i] = s.name == "probe";
            if (!inProbe[i]) {
                op_wall += dur;
                root_self += double(self[i]);
            }
            continue;
        }
        inProbe[i] = inProbe[s.parent];
        if (inProbe[i]) {
            Probe &p = probe[s.name];
            p.ns += dur;
            p.accesses += s.accesses;
            p.bytes += s.bytes;
            continue;
        }
        span_self[s.name] += double(self[i]);
        span_acc[s.name] += s.accesses;
        ++span_calls[s.name];
        layer_self[s.layer()] += double(self[i]);
    }

    auto rate = [](double ns, uint64_t n) { return n ? ns / double(n) : 0.0; };
    const Probe &gen = probe["workloads.generate"];
    const Probe &rec = probe["trace.record"];
    const Probe &dec = probe["trace.decode"];
    const Probe &sim = probe["cache.stack_sim"];
    double gen_ns = rate(gen.ns, gen.accesses);
    double rec_ns = rate(rec.ns, rec.accesses);
    double dec_ns = rate(dec.ns, dec.accesses);
    size_t threads = support::ThreadPool::shared().threadCount();
    double traced_wall_s = op_wall / 1e9;

    std::vector<Metric> m = {
        {"support.pool.utilization",
         double(pool_busy_ns) / (double(threads) * op_wall), "fraction"},
        {"workloads.generate.ns_per_access", gen_ns, "ns/access"},
        {"trace.record.ns_per_access", rec_ns, "ns/access"},
        {"trace.encode.ns_per_access", rec_ns - gen_ns, "ns/access"},
        {"trace.compression_ratio",
         rec.bytes ? 8.0 * double(rec.accesses) / double(rec.bytes) : 0.0,
         "ratio"},
        {"trace.decode.ns_per_access", dec_ns, "ns/access"},
        {"trace.decode.mb_per_s",
         dec.ns > 0 ? double(dec.bytes) / 1e6 / (dec.ns / 1e9) : 0.0, "MB/s"},
        {"cache.stack_sim.ns_per_access",
         rate(sim.ns, sim.accesses) - dec_ns, "ns/access"},
    };
    for (const char *layer :
         {"trace", "reuse", "wavelet", "phase", "grammar", "core"})
        m.push_back({std::string(layer) + ".share",
                     layer_self[layer] / op_wall, "fraction"});
    m.push_back({"unattributed_share", root_self / op_wall, "fraction"});
    m.push_back({"trace_overhead_pct",
                 100.0 * (traced_wall_s - untraced_wall_s) / untraced_wall_s,
                 "%"});

    // Detail beyond the declared set: every op span's self time, share
    // and (for the reuse and core stages) cost per access.
    double n_ops = double(ops.size());
    for (const auto &[name, ns] : span_self) {
        m.push_back({name + ".self_s", ns / 1e9 / n_ops, "s"});
        m.push_back({name + ".share", ns / op_wall, "fraction"});
        m.push_back({name + ".calls", double(span_calls[name]) / n_ops,
                     "count"});
        if ((name.rfind("reuse.", 0) == 0 || name.rfind("core.", 0) == 0) &&
            span_acc[name] > 0)
            m.push_back({name + ".ns_per_access",
                         ns / double(span_acc[name]), "ns/access"});
    }
    if (span_calls.count("trace.store.lookup"))
        m.push_back({"trace.store.hit_ratio",
                     double(span_calls["trace.store.load"]) /
                         double(span_calls["trace.store.lookup"]),
                     "fraction"});
    double samples = 0, phases = 0, fraction = 0, strata = 0;
    for (const OpRecord &r : ops) {
        samples += double(r.accessSamples);
        phases += double(r.phases);
        fraction += r.sampledFraction;
        strata += double(r.strata);
    }
    if (opt.kind->kind != Kind::PredictLive) {
        m.push_back({"reuse.sample.access_samples", samples / n_ops, "count"});
        m.push_back({"phase.detected_phases", phases / n_ops, "count"});
    }
    if (opt.kind->kind == Kind::EvaluateSampled) {
        m.push_back({"core.stratified.sampled_fraction", fraction / n_ops,
                     "fraction"});
        m.push_back({"core.stratified.strata", strata / n_ops, "count"});
    }
    return m;
}

void
Bench::runTraced(std::vector<Metric> &layer)
{
    support::ThreadPool &pool = support::ThreadPool::shared();
    double untraced_wall = 0;
    uint64_t busy_ns = 0;
    const auto start = Clock::now();
    bool stop = false;
    for (uint64_t round = 0; !stop; ++round) {
        for (size_t p = 0; p < names.size() && !stop; ++p) {
            stop = opt.maxOps && ops.size() >= opt.maxOps;
            if (stop)
                break;
            // Alternate which twin runs first, so neither always finds
            // the allocator and page cache warmed by the other.
            auto tracedOp = [&] {
                pool.resetWorkerStats();
                OpRecord r = runOp(p, round, &tracer);
                for (const auto &ws : pool.workerStats())
                    busy_ns += ws.busyNs;
                return r;
            };
            std::optional<OpRecord> traced;
            if (ops.size() % 2)
                traced = tracedOp();
            OpRecord plain = runOp(p, round, nullptr);
            checkRepeat(plain);
            if (!traced)
                traced = tracedOp();
            if (!plain.failure.empty())
                traced->failure = "library op: " + plain.failure;
            else if (traced->failure.empty() && traced->digest != plain.digest)
                traced->failure = "stage-built op differs from the library's";
            untraced_wall += plain.wallS;
            ops.push_back(std::move(*traced));

            if (round == 0) {
                auto [train_round, ref_round] = inputRounds(round);
                SeededProgram w(names[p], opt.seed, train_round, ref_round);
                tracer.setContext(names[p], nextOpId++);
                bool sampled = opt.kind->kind == Kind::EvaluateSampled;
                if (opt.kind->kind != Kind::PredictLive)
                    probeStream(w, w.trainInput(),
                                trace::StreamingTrace::defaultFrameTarget,
                                tracer);
                if (opt.kind->kind != Kind::AnalyzeCold)
                    probeStream(
                        w, w.refInput(),
                        sampled ? config(false)
                                      .stratifiedSampling.frameTargetAccesses
                                : trace::StreamingTrace::defaultFrameTarget,
                        tracer);
            }
        }
        stop = stop || secondsSince(start) >= opt.seconds;
    }
    layer = layerMetrics(untraced_wall, busy_ns);
}

int
Bench::run()
{
    fs::remove_all(outDir);
    fs::create_directories(outDir);
    if (opt.kind->kind == Kind::EvaluateWarm && opt.seed == 0) {
        table2 = readTable2("bench_out/table2.csv");
        if (table2.empty())
            runFailures.push_back("bench_out/table2.csv is missing");
    }

    std::vector<double> setups;
    for (int i = 0; i < (opt.trace ? 1 : setupRepeats); ++i)
        setups.push_back(setUp());

    std::vector<Metric> metrics, reported;
    double peak_rss_mb = 0, sampled_error_pct = 0;
    if (opt.trace) {
        runTraced(metrics);
        std::string why;
        if (!properlyNested(tracer.spans(), &why))
            runFailures.push_back("spans not nested: " + why);
        if (!writeChromeTrace(tracer.spans(), (outDir / "trace.json").string()))
            runFailures.push_back("cannot write trace.json");
        for (const Metric &m : metrics)
            if (m.name == "unattributed_share" && m.value >= maxUnattributedShare)
                runFailures.push_back("spans explain too little of the op");
    } else {
        const auto start = Clock::now();
        for (uint64_t round = 0;; ++round) {
            bool stop = false;
            for (size_t p = 0; p < names.size() && !stop; ++p) {
                stop = opt.maxOps && ops.size() >= opt.maxOps;
                if (!stop) {
                    ops.push_back(runOp(p, round, nullptr));
                    checkRepeat(ops.back());
                }
            }
            if (stop || (round + 1 >= minRounds &&
                         secondsSince(start) >= opt.seconds))
                break;
        }
        // The high-water mark of set-up and the timed loop, before the
        // untimed checks below add their own.
        struct rusage ru = {};
        getrusage(RUSAGE_SELF, &ru);
        peak_rss_mb = double(ru.ru_maxrss) / 1024.0;
        if (opt.kind->kind == Kind::EvaluateSampled)
            verifySampled(sampled_error_pct);
    }

    uint64_t live = 0, failed = 0;
    std::vector<double> ns_per_access;
    std::map<uint64_t, std::pair<double, uint64_t>> rounds; // wall, accesses
    std::map<std::string, std::vector<double>> per_program; // ns/access
    for (const OpRecord &r : ops) {
        live += r.live;
        failed += r.failure.empty() ? 0 : 1;
        rounds[r.round].first += r.wallS;
        rounds[r.round].second += r.accesses;
        if (r.accesses) {
            ns_per_access.push_back(r.wallS * 1e9 / double(r.accesses));
            per_program[r.program].push_back(ns_per_access.back());
        }
    }
    const double n_ops = double(ops.size());

    if (!opt.trace) {
        // Medians over rounds, and over each program's rounds, damp a
        // burst of contention from other tenants of the host. The
        // programs' costs per access differ by up to 4x, so the median
        // op jumps whenever two middle programs swap places; the
        // geometric mean over programs moves smoothly instead.
        std::vector<double> round_rates;
        for (const auto &[round, wa] : rounds)
            round_rates.push_back(double(wa.second) / 1e6 / wa.first);
        double log_sum = 0;
        for (const auto &[program, values] : per_program)
            log_sum += std::log(percentile(values, 50));
        metrics = {
            {"throughput_maccess_s", percentile(round_rates, 50),
             "Maccess/s"},
            {"op_ns_per_access_gmean",
             std::exp(log_sum / double(per_program.size())), "ns/access"},
            {"setup_s", percentile(setups, 50), "s"},
            {"peak_rss_mb", peak_rss_mb, "MiB"},
        };
        reported.push_back({"op_ns_per_access_p50",
                            percentile(ns_per_access, 50), "ns/access"});
        if (int p = tailPercentile(ns_per_access.size()); p > 50)
            reported.push_back({"op_ns_per_access_p" + std::to_string(p),
                                percentile(ns_per_access, p), "ns/access"});
    }
    reported.push_back({"ops", n_ops, "count"});
    reported.push_back({"failed_op_ratio", double(failed) / n_ops, "fraction"});
    reported.push_back({"live_executions_per_op", double(live) / n_ops,
                        "count"});

    // Prediction quality over the predictable programs: coverage
    // weighted by instructions, accuracy by predictions.
    double instr = 0, cov = 0, spred = 0, sacc = 0, rpred = 0, racc = 0;
    for (const OpRecord &r : ops) {
        if (!r.predicted || !r.predictable)
            continue;
        const auto &m = r.metrics;
        instr += double(r.refInstructions);
        cov += m.strictCoverage * double(r.refInstructions);
        spred += double(m.strictPredictions);
        sacc += m.strictAccuracy * double(m.strictPredictions);
        rpred += double(m.relaxedPredictions);
        racc += m.relaxedAccuracy * double(m.relaxedPredictions);
    }
    if (instr > 0) {
        reported.push_back({"strict_coverage_pct", 100 * cov / instr, "%"});
        reported.push_back({"strict_accuracy_pct",
                            spred > 0 ? 100 * sacc / spred : 0, "%"});
        reported.push_back({"relaxed_accuracy_pct",
                            rpred > 0 ? 100 * racc / rpred : 0, "%"});
    }
    if (opt.kind->kind == Kind::EvaluateSampled && !opt.trace) {
        reported.push_back({"sampled_max_rel_error_pct", sampled_error_pct,
                            "%"});
        if (!(sampled_error_pct < maxSampledErrorPct))
            runFailures.push_back("sampled error above 1%");
    }
    if (opt.kind->kind == Kind::EvaluateWarm ||
        opt.kind->kind == Kind::EvaluateSampled)
        reported.push_back({"store_mb",
                            double(directoryBytes(storeDir)) / (1 << 20),
                            "MiB"});
    fs::remove_all(storeDir);

    for (const Metric &m : metrics)
        if (!std::isfinite(m.value))
            runFailures.push_back(m.name + " is not a finite number");
    const bool correct = failed == 0 && runFailures.empty();

    // Human-readable report, then result.json, then the result line.
    std::printf("# %s seed %llu, %s, %zu threads\n", opt.kind->name,
                static_cast<unsigned long long>(opt.seed),
                opt.trace ? "traced" : "untraced",
                support::ThreadPool::shared().threadCount());
    for (const OpRecord &r : ops)
        if (!r.failure.empty())
            std::printf("FAILED %s round %llu: %s\n", r.program.c_str(),
                        static_cast<unsigned long long>(r.round),
                        r.failure.c_str());
    for (const std::string &f : runFailures)
        std::printf("FAILED run: %s\n", f.c_str());
    for (const Metric &m : metrics)
        std::printf("%s %s %s\n", m.name.c_str(), jsonNumber(m.value).c_str(),
                    m.unit.c_str());
    for (const Metric &m : reported)
        std::printf("%s %s %s\n", m.name.c_str(), jsonNumber(m.value).c_str(),
                    m.unit.c_str());

    auto metricObject = [](const std::vector<Metric> &list,
                           const std::vector<MetricSpec> *only) {
        std::string s = "{";
        bool first = true;
        for (const Metric &m : list) {
            if (only &&
                std::none_of(only->begin(), only->end(),
                             [&](const MetricSpec &d) { return m.name == d.name; }))
                continue;
            s += (first ? "" : ", ") + jsonString(m.name) +
                 ": {\"value\": " + jsonNumber(m.value) +
                 ", \"unit\": " + jsonString(m.unit) + "}";
            first = false;
        }
        return s + "}";
    };
    const auto &declared = opt.trace ? perLayerMetrics() : endToEndMetrics();

    std::ofstream result(outDir / "result.json");
    result << "{\"workload\": " << jsonString(opt.kind->name)
           << ", \"seed\": " << opt.seed << ", \"trace\": " << opt.trace
           << ", \"threads\": " << support::ThreadPool::shared().threadCount()
           << ", \"nproc\": " << std::thread::hardware_concurrency()
           << ",\n \"setup_s\": [";
    for (size_t i = 0; i < setups.size(); ++i)
        result << (i ? ", " : "") << jsonNumber(setups[i]);
    result << "],\n \"ops\": [\n";
    for (size_t i = 0; i < ops.size(); ++i) {
        const OpRecord &r = ops[i];
        char digest[32];
        std::snprintf(digest, sizeof(digest), "%016llx",
                      static_cast<unsigned long long>(r.digest));
        result << "  {\"program\": " << jsonString(r.program)
               << ", \"round\": " << r.round
               << ", \"wall_s\": " << jsonNumber(r.wallS)
               << ", \"accesses\": " << r.accesses
               << ", \"live_executions\": " << r.live
               << ", \"digest\": \"" << digest << "\""
               << ", \"failure\": " << jsonString(r.failure) << "}"
               << (i + 1 < ops.size() ? ",\n" : "\n");
    }
    result << " ],\n \"run_failures\": [";
    for (size_t i = 0; i < runFailures.size(); ++i)
        result << (i ? ", " : "") << jsonString(runFailures[i]);
    result << "],\n \"metrics\": " << metricObject(metrics, nullptr)
           << ",\n \"reported\": " << metricObject(reported, nullptr)
           << ",\n \"correct\": " << (correct ? "true" : "false")
           << ", \"attempted\": " << ops.size() << ", \"failed\": " << failed
           << "}\n";
    result.close();
    if (opt.trace) {
        std::ofstream layers(outDir / "layers.json");
        layers << metricObject(metrics, nullptr) << "\n";
    }

    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false", ops.size(),
                static_cast<unsigned long long>(failed),
                metricObject(metrics, &declared).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "lpp_bench: %s\n"
                 "usage: lpp_bench --workload <analyze-cold|predict-live|"
                 "evaluate-warm|evaluate-sampled> --seed <n>\n"
                 "                 [--seconds <s>] [--trace 0|1] "
                 "[--threads <n>] [--out <dir>] [--ops <n>]\n"
                 "       lpp_bench --selftest\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--selftest") {
            o.selftest = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        try {
            if (a == "--workload") {
                for (const KindInfo &k : kinds)
                    if (v == k.name)
                        o.kind = &k;
                if (!o.kind)
                    usage(("unknown workload " + v).c_str());
            } else if (a == "--seed") {
                o.seed = std::stoull(v);
                have_seed = true;
            } else if (a == "--seconds") {
                o.seconds = std::stod(v);
            } else if (a == "--trace") {
                if (v != "0" && v != "1")
                    usage("--trace takes 0 or 1");
                o.trace = v == "1";
            } else if (a == "--threads") {
                o.threads = std::stoul(v);
            } else if (a == "--out") {
                o.out = v;
            } else if (a == "--ops") {
                o.maxOps = std::stoull(v);
            } else {
                usage(("unknown option " + a).c_str());
            }
        } catch (const std::logic_error &) {
            usage(("bad value for " + a).c_str());
        }
    }
    if (!o.selftest && (!o.kind || !have_seed))
        usage("--workload and --seed are required");
    if (o.threads == 0)
        usage("--threads must be positive");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    if (opt.selftest) {
        std::vector<std::string> names;
        for (const KindInfo &k : kinds)
            names.push_back(k.name);
        return selfTest("BENCHMARK.json", names);
    }
    // Before any pool exists: the shared pool reads LPP_THREADS once.
    setenv("LPP_THREADS", std::to_string(opt.threads).c_str(), 1);
    try {
        return Bench(opt).run();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "lpp_bench: %s\n", e.what());
        return 1;
    }
}
