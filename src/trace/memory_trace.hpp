/**
 * @file
 * Bounded-frame recording and exact streaming replay of a trace event
 * stream.
 *
 * The execution plan (core::ExecutionPlan) treats program executions as
 * the scarce resource: when a consumer needs the training stream *after*
 * the marker table exists (the instrumented training replay), re-running
 * the program would cost a third training execution. Instead the
 * sampling execution records its stream, and the later consumer replays
 * the recording. Replay is exact: every event is re-delivered in order,
 * and access batches are re-delivered with their original boundaries,
 * so a replayed stream is indistinguishable from the live one — bit for
 * bit, including batching granularity.
 *
 * Unlike the first-generation recorder, StreamingTrace never owns the
 * raw stream. Events are pushed straight through the predictive frame
 * codec (trace/codec.hpp) as they arrive, and the recording is a list
 * of *sealed frames* — independently decodable compressed spans of
 * about a frame-target's worth of accesses — plus one open frame still
 * being built. Replay decodes one frame at a time through a reused
 * scratch buffer (TraceCursor), so the working set of a replay is one
 * batch, not the trace: memory stays flat no matter how long the
 * recorded execution ran, and the resident encoding is typically an
 * order of magnitude smaller than the 8 raw bytes per address.
 *
 * The sharded consumers slice the stream with chunks()/replayRange(),
 * which are *views over the frame list*: a ChunkRange names event
 * indices, and a cursor seeks to the containing frame and skip-decodes
 * to the boundary. With the chunk target equal to the frame target
 * (both default 2^20 accesses) chunk boundaries coincide with frame
 * boundaries and seeks are free.
 */

#ifndef LPP_TRACE_MEMORY_TRACE_HPP
#define LPP_TRACE_MEMORY_TRACE_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/codec.hpp"
#include "trace/sink.hpp"
#include "trace/types.hpp"

namespace lpp::trace {

/** Sink that records the stream into compressed frames for later
 *  exact, bounded-memory replay. */
class StreamingTrace : public TraceSink
{
  public:
    /** Default data accesses per sealed frame. */
    static constexpr uint64_t defaultFrameTarget = 1u << 20;

    StreamingTrace() : StreamingTrace(PredictorConfig{}) {}

    explicit StreamingTrace(const PredictorConfig &cfg,
                            uint64_t frame_target = defaultFrameTarget);

    // Recording (sink interface) -------------------------------------

    void onBlock(BlockId block, uint32_t instructions) override;
    void onAccess(Addr addr) override;
    void onAccessBatch(const Addr *batch, size_t n) override;
    void onManualMarker(uint32_t marker_id) override;
    void onPhaseMarker(PhaseId phase) override;
    void onEnd() override;

    // Replay ---------------------------------------------------------

    /**
     * Re-deliver the recorded stream into `sink`, preserving event
     * order and the original access-batch boundaries exactly.
     */
    void replay(TraceSink &sink) const;

    /**
     * Contiguous slice of the recorded stream, for sharded replay.
     * Slices partition the event list, so replaying every chunk in
     * order through one sink is identical to replay().
     */
    struct ChunkRange
    {
        size_t firstEvent = 0;  //!< index of the first event
        size_t eventCount = 0;  //!< events in this chunk
        uint64_t firstAccess = 0; //!< accesses recorded before the chunk
        uint64_t accessCount = 0; //!< accesses delivered by the chunk
    };

    /**
     * Partition the recording into chunks of roughly `target_accesses`
     * data accesses each. Batches are never split (batch boundaries are
     * part of the exact-replay contract), so a chunk can exceed the
     * target by up to one batch. Always returns at least one chunk for
     * a non-empty recording, and the chunks cover every event: a
     * `target_accesses` of 0 is treated as 1, and one larger than the
     * recording yields a single chunk. Only the frames' event sections
     * are walked — no addresses are decoded.
     */
    std::vector<ChunkRange> chunks(uint64_t target_accesses) const;

    /** Re-deliver exactly the events of `range` into `sink` (a
     *  one-shot cursor; sharded workers keep their own TraceCursor). */
    void replayRange(TraceSink &sink, const ChunkRange &range) const;

    /**
     * Partition the recording at the given access clocks (ascending,
     * each <= accessCount()), returning cuts.size() + 1 consecutive
     * ranges [0, c0), [c0, c1), ..., [c_last, end). A cut places every
     * event whose *starting* access clock is at or past it into the
     * later range, so an access batch straddling a cut stays whole in
     * the earlier range and zero-access events (blocks, markers) at
     * exactly the cut clock open the later one — the rule that makes
     * phase-marker cuts land exactly, because emitters flush access
     * batches before block events. Duplicate cuts yield empty ranges.
     * Like chunks(), this walks only the event sections.
     */
    std::vector<ChunkRange>
    sliceAt(const std::vector<uint64_t> &access_cuts) const;

    // Introspection --------------------------------------------------

    /** @return recorded events (a batch counts as one event). */
    uint64_t eventCount() const { return totalEvents; }

    /** @return recorded data accesses. */
    uint64_t accessCount() const { return totalAccesses; }

    /** @return whether nothing has been recorded. */
    bool empty() const { return totalEvents == 0; }

    /** @return approximate heap footprint of the recording, in bytes. */
    size_t memoryBytes() const;

    /** @return compressed bytes of the recording (frame payloads). */
    uint64_t encodedBytes() const;

    /** @return bytes a raw address log would cost (8 per access) —
     *  the numerator of the reported compression ratio. */
    uint64_t rawBytes() const { return totalAccesses * sizeof(Addr); }

    /** Pre-size the recording buffers (soft reserve-ahead hint). */
    void reserve(size_t event_hint, size_t access_hint);

    /** Drop the recording and release its memory. */
    void clear();

    // Frame access (store + cursors) ---------------------------------

    /** One sealed frame: directory entry plus compressed payload. */
    struct Frame
    {
        FrameInfo info;
        std::vector<uint8_t> payload;
    };

    /** Borrowed view of one frame's *stored* sections, sealed or
     *  open: pointers address the bytes as held in memory, which may
     *  be LZ-packed (stored size < logical size in info). Run them
     *  through trace::unpackFrame before decoding. Invalidated by any
     *  subsequent append or clear(). */
    struct FrameView
    {
        FrameInfo info;
        const uint8_t *events = nullptr;
        const uint8_t *bitmap = nullptr;
        const uint8_t *residue = nullptr;
    };

    /** @return the predictor geometry this recording encodes with. */
    const PredictorConfig &predictorConfig() const { return cfg; }

    /** @return the frame-seal threshold, in accesses. */
    uint64_t frameTargetAccesses() const { return frameTarget; }

    /** Change the seal threshold (recording must be empty). */
    void setFrameTargetAccesses(uint64_t target_accesses);

    /** @return sealed frames (excludes the open frame). */
    size_t sealedFrameCount() const { return sealed.size(); }

    /** @return one sealed frame. */
    const Frame &sealedFrame(size_t i) const { return sealed[i]; }

    /** @return frames covering the stream, including the open one. */
    size_t frameCount() const;

    /** @return a borrowed view of frame `i` (sealed or open). */
    FrameView frameView(size_t i) const;

    /** Describe and copy out the open frame, if any (for persisting a
     *  live recording without mutating it). @return false when the
     *  open frame is empty. */
    bool materializeOpenFrame(FrameInfo &info,
                              std::vector<uint8_t> &payload) const;

    /**
     * Replace the recording with already-encoded frames (the
     * trace store's zero-decode load path). The frames must use this
     * trace's predictor geometry and carry consistent global offsets;
     * the totals are trusted as verified by the caller. An adopted
     * recording is replay-only.
     */
    void adoptFrames(std::vector<Frame> frames, uint64_t events,
                     uint64_t accesses);

  private:
    void sealNow();
    void maybeSeal();

    PredictorConfig cfg;
    uint64_t frameTarget = defaultFrameTarget;
    std::vector<Frame> sealed;
    FrameEncoder enc;
    uint64_t totalEvents = 0;
    uint64_t totalAccesses = 0;
    bool adopted = false;
};

/** The frame-backed recorder is the MemoryTrace of this codebase. */
using MemoryTrace = StreamingTrace;

/**
 * Stateful streaming reader over a StreamingTrace: binds one
 * FrameDecoder and one batch scratch buffer, and replays whole
 * recordings or ChunkRange slices by decoding one frame at a time.
 * Consecutive ranges replay without a reseek; anything else binary
 * searches the frame directory and skip-decodes to the boundary.
 * Sharded workers each own one cursor, so a wave of parallel chunk
 * replays holds exactly one decoded batch per worker — never a whole
 * trace.
 */
class TraceCursor
{
  public:
    explicit TraceCursor(const StreamingTrace &trace);

    /** Replay the whole recording into `sink`. */
    void replayAll(TraceSink &sink);

    /** Replay exactly the events of `range` into `sink`. */
    void replayRange(TraceSink &sink,
                     const StreamingTrace::ChunkRange &range);

  private:
    void bindFrame(size_t frame_index);
    void seek(uint64_t global_event);
    void step(TraceSink *sink);

    const StreamingTrace *trace;
    FrameDecoder dec;
    StreamingTrace::FrameView view;
    FrameSections sections; //!< reused unpack buffers across frames
    size_t frameIdx = 0;
    uint64_t pos = 0; //!< global index of the next event to decode
    bool bound = false;
    std::vector<Addr> scratch;
};

} // namespace lpp::trace

#endif // LPP_TRACE_MEMORY_TRACE_HPP
