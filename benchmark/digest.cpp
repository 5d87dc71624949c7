#include <algorithm>
#include <bit>

#include "lpp_bench.hpp"
#include "trace/codec.hpp"

namespace lppbench {

namespace {

using namespace lpp;

/** Little-endian byte image of the hashed fields. */
class Hasher
{
  public:
    Hasher &
    u64(uint64_t v)
    {
        for (int b = 0; b < 8; ++b)
            buf.push_back(static_cast<uint8_t>(v >> (8 * b)));
        return *this;
    }

    Hasher &f64(double v) { return u64(std::bit_cast<uint64_t>(v)); }

    Hasher &
    str(const std::string &s)
    {
        u64(s.size());
        buf.insert(buf.end(), s.begin(), s.end());
        return *this;
    }

    template <typename T>
    Hasher &
    u64s(const std::vector<T> &v)
    {
        u64(v.size());
        for (T x : v)
            u64(static_cast<uint64_t>(x));
        return *this;
    }

    uint64_t done() const { return trace::contentHash64(buf.data(), buf.size()); }

  private:
    std::vector<uint8_t> buf;
};

void
hashReplay(Hasher &h, const core::Replay &r)
{
    h.u64(r.totalInstructions).u64(r.totalAccesses).u64(
        r.prologueInstructions);
    h.u64(r.executions.size());
    for (const auto &e : r.executions) {
        h.u64(e.phase).u64(e.startInstr).u64(e.startAccess);
        h.u64(e.instructions).u64(e.accesses).u64(e.locality.accesses);
        for (uint64_t m : e.locality.misses)
            h.u64(m);
    }
}

void
hashRow(Hasher &h, const core::GranularityRow &row)
{
    h.u64(row.leafExecutions).f64(row.execLengthM).f64(row.avgLeafSizeM);
    h.f64(row.avgLargestCompositeM);
}

void
hashMetrics(Hasher &h, const core::PredictionMetrics &m)
{
    h.f64(m.strictAccuracy).f64(m.strictCoverage);
    h.f64(m.relaxedAccuracy).f64(m.relaxedCoverage);
    h.u64(m.strictPredictions).u64(m.relaxedPredictions);
}

void
hashOverlap(Hasher &h, const core::OverlapResult &o)
{
    h.f64(o.recall).f64(o.precision);
}

} // namespace

uint64_t
digestAnalysis(const core::AnalysisResult &analysis)
{
    const auto &det = analysis.detection;
    Hasher h;
    auto markers = det.selection.table.entries();
    std::sort(markers.begin(), markers.end());
    h.u64(markers.size());
    for (const auto &[block, phase] : markers)
        h.u64(block).u64(phase);
    h.u64s(det.selection.sequence());
    h.u64s(det.boundaryTimes);
    const auto &hier = analysis.hierarchy;
    h.str(hier.root() ? hier.root()->toString() : std::string());
    h.u64(hier.composites().size());
    for (const auto &c : hier.composites())
        h.u64(c.iterations).u64(c.leavesPerIteration).u64(c.depth);
    return h.done();
}

uint64_t
digestEstimate(const core::StratifiedEstimate &e)
{
    Hasher h;
    h.u64(e.totalAccesses).u64(e.totalExecutions);
    h.u64(e.measuredRanges).u64(e.measuredAccesses);
    for (double m : e.missTotal)
        h.f64(m);
    for (double w : e.missHalfWidth)
        h.f64(w);
    h.u64(e.histogramBins.size());
    for (double b : e.histogramBins)
        h.f64(b);
    h.f64(e.histogramInfinite).f64(e.footprintSum);
    h.u64(e.bbv.size());
    for (double b : e.bbv)
        h.f64(b);
    return h.done();
}

uint64_t
digestEvaluation(const core::WorkloadEvaluation &ev)
{
    Hasher h;
    h.str(ev.name).u64(digestAnalysis(ev.analysis));
    hashMetrics(h, ev.metrics);
    hashRow(h, ev.detectionRow);
    hashRow(h, ev.predictionRow);
    h.f64(ev.localityStddev);
    hashOverlap(h, ev.trainOverlap);
    hashOverlap(h, ev.refOverlap);
    hashReplay(h, ev.train.replay);
    hashReplay(h, ev.ref.replay);
    h.u64s(ev.train.manualTimes).u64s(ev.ref.manualTimes);
    h.u64(ev.stratified.ran ? digestEstimate(ev.stratified.estimate) : 0);
    return h.done();
}

uint64_t
digestPrediction(const Prediction &p)
{
    Hasher h;
    hashReplay(h, p.ref.replay);
    h.u64s(p.ref.manualTimes);
    hashMetrics(h, p.metrics);
    hashRow(h, p.row);
    h.f64(p.localityStddev);
    hashOverlap(h, p.overlap);
    return h.done();
}

} // namespace lppbench
