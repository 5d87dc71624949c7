/**
 * @file
 * Off-line phase detection driver: variable-distance sampling, wavelet
 * filtering, optimal phase partitioning, and marker selection chained
 * over a training execution (paper Sections 2.2-2.3).
 *
 * The pipeline is exposed as named stages with explicit data handoffs
 * so callers that manage program executions themselves (the execution
 * plan in core/) can drive each stage against a shared execution:
 *
 *   precount          PrecountSink            -> PrecountStats
 *   sampling planning samplingConfig()        -> reuse::SamplerConfig
 *   sampling pass     VariableDistanceSampler + trace::BlockRecorder
 *   wavelet filtering filterSamples()         -> filtered trace
 *   partitioning      partitionFiltered()     -> Partition
 *   marker selection  selectMarkers()         -> MarkerSelection
 *
 * analyze() composes the stages over a runner callback and is the
 * serial reference: one precount execution (when configured) plus one
 * sampling execution.
 */

#ifndef LPP_PHASE_DETECTOR_HPP
#define LPP_PHASE_DETECTOR_HPP

#include <cstdint>
#include <functional>
#include <vector>

#include "phase/marker_selection.hpp"
#include "phase/partition.hpp"
#include "reuse/sampler.hpp"
#include "support/element_table.hpp"
#include "trace/recorder.hpp"
#include "trace/sink.hpp"
#include "wavelet/filtering.hpp"

namespace lpp::trace {
class StreamingTrace;
using MemoryTrace = StreamingTrace;
}

namespace lpp::phase {

/** Configuration of the whole detection pipeline. */
struct DetectorConfig
{
    reuse::SamplerConfig sampler;   //!< variable-distance sampling
    wavelet::FilterConfig filter;   //!< per-datum wavelet filtering
    PartitionConfig partition;      //!< optimal phase partitioning
    MarkerConfig marker;            //!< marker selection

    /**
     * Run the program once up front to learn the trace length, giving
     * the sampler's feedback an accurate projection target. Cheap for
     * simulated workloads; a real deployment would pass an estimate in
     * sampler.expectedAccesses instead.
     */
    bool precountAccesses = true;

    /**
     * Derive the qualification/temporal thresholds from the training
     * run's working set: threshold = thresholdFraction * distinct
     * elements. A reuse longer than a tenth of the working set is a
     * cross-phase reuse for every program in the suite, while
     * within-phase reuses stay below it; the derived value also floors
     * and ceils feedback so count control cannot push the thresholds
     * into either regime. Requires precountAccesses.
     */
    bool autoThresholds = true;

    /** Fraction of the distinct-element count used as threshold. */
    double thresholdFraction = 0.05;
};

/** What one precount pass learns (stage handoff to sampling). */
struct PrecountStats
{
    uint64_t accesses = 0;         //!< trace length in accesses
    uint64_t distinctElements = 0; //!< working-set size in elements
};

/** Precount stage sink: counts accesses and distinct elements. */
class PrecountSink : public trace::TraceSink
{
  public:
    void
    onAccess(trace::Addr addr) override
    {
        ++accesses;
        elements.insert(trace::toElement(addr), 0);
    }

    void
    onAccessBatch(const trace::Addr *addrs, size_t n) override
    {
        accesses += n;
        for (size_t i = 0; i < n; ++i)
            elements.insert(trace::toElement(addrs[i]), 0);
    }

    /** @return the stage output (valid any time). */
    PrecountStats
    stats() const
    {
        return PrecountStats{accesses, elements.size()};
    }

  private:
    uint64_t accesses = 0;
    support::ElementTable<uint8_t> elements; //!< used as a set
};

/** Everything the off-line analysis learned from the training run. */
struct DetectionResult
{
    /** Marker table, per-phase info, and training executions. */
    MarkerSelection selection;

    /** Phase boundaries (access clock) from the locality analysis. */
    std::vector<uint64_t> boundaryTimes;

    /** The raw optimal partition (indices refer to the merged trace). */
    Partition partitionResult;

    /** Wavelet filtering statistics. */
    wavelet::FilterStats filterStats;

    uint64_t dataSamples = 0;       //!< data elements sampled
    uint64_t accessSamples = 0;     //!< access samples collected
    uint32_t samplerAdjustments = 0; //!< feedback threshold changes
    uint64_t trainAccesses = 0;     //!< training run length (accesses)
    uint64_t trainInstructions = 0; //!< training run length (instrs)
};

/**
 * Drives the off-line stages over a training execution provided as a
 * runner callback (the callback streams one full execution into the
 * sink it is given; it must be repeatable).
 */
class PhaseDetector
{
  public:
    /** Streams one complete training execution into the given sink. */
    using Runner = std::function<void(trace::TraceSink &)>;

    explicit PhaseDetector(DetectorConfig cfg = {});

    /** Run the full detection pipeline (composes every stage). */
    DetectionResult analyze(const Runner &run) const;

    // Named stages ---------------------------------------------------

    /** @return whether the configuration calls for a precount pass. */
    bool needsPrecount() const;

    /**
     * Precount stage over a recording instead of a live execution:
     * replays the recorded stream into a PrecountSink. With a recorded
     * (or cached) training trace this replaces the dedicated precount
     * program execution — the trace-derived-counts handoff of the
     * single-execution pipeline.
     */
    static PrecountStats precountFromTrace(const trace::MemoryTrace &t);

    /**
     * Stage handoff precount -> sampling: the effective sampler
     * configuration. Pass the precount output, or nullptr when no
     * precount ran (the configured sampler settings are used as-is).
     */
    reuse::SamplerConfig samplingConfig(const PrecountStats *pre) const;

    /** Wavelet-filtering stage over the sampling pass's output. */
    std::vector<reuse::SamplePoint>
    filterSamples(const std::vector<reuse::DataSample> &samples,
                  wavelet::FilterStats *stats) const;

    /** Partitioning stage over the filtered merged trace. */
    Partition
    partitionFiltered(const std::vector<reuse::SamplePoint> &filtered) const;

    /** Marker-selection stage against the recorded block trace. */
    MarkerSelection
    selectMarkers(const trace::BlockRecorder &blocks,
                  uint64_t detected_executions) const;

    /**
     * Compose the post-execution stages (filtering, partitioning,
     * marker selection) over a completed sampling pass, producing the
     * same DetectionResult analyze() would.
     */
    DetectionResult finish(const reuse::VariableDistanceSampler &sampler,
                           const trace::BlockRecorder &blocks) const;

    /** @return the configuration in use. */
    const DetectorConfig &config() const { return cfg; }

  private:
    DetectorConfig cfg;
};

} // namespace lpp::phase

#endif // LPP_PHASE_DETECTOR_HPP
