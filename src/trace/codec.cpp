#include "trace/codec.hpp"

#include <algorithm>

#include "support/logging.hpp"

namespace lpp::trace {

namespace {

/** Map a signed delta onto small unsigned values (zig-zag). */
inline uint64_t
zigzag(uint64_t value, uint64_t prev)
{
    int64_t d = static_cast<int64_t>(value - prev);
    return (static_cast<uint64_t>(d) << 1) ^
           static_cast<uint64_t>(d >> 63);
}

/** Inverse of zigzag(): recover the value from the coded delta. */
inline uint64_t
unzigzag(uint64_t coded, uint64_t prev)
{
    int64_t d = static_cast<int64_t>((coded >> 1) ^
                                     (~(coded & 1) + 1));
    return prev + static_cast<uint64_t>(d);
}

/**
 * Decode one varint from [*p, end). Returns false on truncation. The
 * caller's cursor advances past the consumed bytes on success.
 */
inline bool
readVarint(const uint8_t *&p, const uint8_t *end, uint64_t &v)
{
    uint64_t out = 0;
    unsigned shift = 0;
    while (p < end && shift < 64) {
        uint8_t byte = *p++;
        out |= static_cast<uint64_t>(byte & 0x7F) << shift;
        if ((byte & 0x80) == 0) {
            v = out;
            return true;
        }
        shift += 7;
    }
    return false;
}

inline void
writeVarint(std::vector<uint8_t> &out, uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<uint8_t>(v));
}

} // namespace

uint64_t
contentHash64(const uint8_t *data, size_t size)
{
    // FNV-1a over 8-byte lanes (tail bytes zero-padded), then a
    // mix64 finalizer so nearby payloads land far apart.
    uint64_t h = 0xcbf29ce484222325ULL ^ (size * 0x9E3779B97F4A7C15ULL);
    size_t i = 0;
    for (; i + 8 <= size; i += 8) {
        uint64_t lane = 0;
        for (int b = 0; b < 8; ++b)
            lane |= static_cast<uint64_t>(data[i + static_cast<size_t>(b)])
                    << (8 * b);
        h = (h ^ lane) * 0x100000001b3ULL;
    }
    uint64_t tail = 0;
    for (int b = 0; i < size; ++i, ++b)
        tail |= static_cast<uint64_t>(data[i]) << (8 * b);
    h = (h ^ tail) * 0x100000001b3ULL;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
}

// Byte-level LZ section transform -----------------------------------

namespace {

constexpr size_t lzMinMatch = 4;
constexpr size_t lzMaxOffset = 65535;
constexpr uint32_t lzHashBits = 15;

inline uint32_t
lzHash(const uint8_t *p)
{
    uint32_t v = static_cast<uint32_t>(p[0]) |
                 (static_cast<uint32_t>(p[1]) << 8) |
                 (static_cast<uint32_t>(p[2]) << 16) |
                 (static_cast<uint32_t>(p[3]) << 24);
    return (v * 2654435761u) >> (32 - lzHashBits);
}

inline void
lzPutLength(std::vector<uint8_t> &out, size_t len)
{
    while (len >= 255) {
        out.push_back(255);
        len -= 255;
    }
    out.push_back(static_cast<uint8_t>(len));
}

inline bool
lzGetLength(const uint8_t *&p, const uint8_t *end, size_t &len)
{
    for (;;) {
        if (p >= end)
            return false;
        uint8_t b = *p++;
        len += b;
        if (b != 255)
            return true;
    }
}

} // namespace

size_t
lzPack(const uint8_t *src, size_t n, std::vector<uint8_t> &out)
{
    const size_t baseSize = out.size();
    if (n < lzMinMatch + 1) // nothing a match could cover
        return 0;

    std::vector<uint32_t> head(size_t{1} << lzHashBits, UINT32_MAX);
    size_t pos = 0;
    size_t anchor = 0;
    const size_t matchLimit = n - lzMinMatch;

    auto emit = [&](size_t literals, size_t matchLen, size_t offset) {
        size_t litToken = std::min<size_t>(literals, 15);
        size_t matToken =
            matchLen ? std::min<size_t>(matchLen - lzMinMatch, 15) : 0;
        out.push_back(
            static_cast<uint8_t>((litToken << 4) | matToken));
        if (litToken == 15)
            lzPutLength(out, literals - 15);
        out.insert(out.end(), src + anchor, src + anchor + literals);
        if (!matchLen)
            return;
        out.push_back(static_cast<uint8_t>(offset & 0xFF));
        out.push_back(static_cast<uint8_t>(offset >> 8));
        if (matToken == 15)
            lzPutLength(out, matchLen - lzMinMatch - 15);
    };

    while (pos <= matchLimit) {
        uint32_t h = lzHash(src + pos);
        size_t cand = head[h];
        head[h] = static_cast<uint32_t>(pos);
        if (cand != UINT32_MAX && pos - cand <= lzMaxOffset &&
            src[cand] == src[pos] && src[cand + 1] == src[pos + 1] &&
            src[cand + 2] == src[pos + 2] &&
            src[cand + 3] == src[pos + 3]) {
            size_t len = lzMinMatch;
            while (pos + len < n && src[cand + len] == src[pos + len])
                ++len;
            emit(pos - anchor, len, pos - cand);
            // Refresh a few anchors inside the match so the next
            // search can still find overlapping repeats.
            size_t stop = std::min(pos + len, matchLimit + 1);
            for (size_t q = pos + 1; q < stop; q += 7)
                head[lzHash(src + q)] = static_cast<uint32_t>(q);
            pos += len;
            anchor = pos;
        } else {
            ++pos;
        }
        if (out.size() - baseSize >= n) { // not shrinking; bail out
            out.resize(baseSize);
            return 0;
        }
    }
    // The decoder stops as soon as it has produced the full output, so
    // when the last match ends exactly at n there is no final literal
    // sequence to emit (an empty token would never be consumed).
    if (anchor < n)
        emit(n - anchor, 0, 0);
    size_t packed = out.size() - baseSize;
    if (packed >= n) {
        out.resize(baseSize);
        return 0;
    }
    return packed;
}

namespace {

/**
 * Walk the token stream of lzUnpack, with every bounds check. When
 * Write is false, `dst` is not touched: the walk only proves that the
 * stream unpacks to exactly `dst_bytes` bytes.
 */
template <bool Write>
bool
lzWalk(const uint8_t *src, size_t n, uint8_t *dst, size_t dst_bytes)
{
    const uint8_t *p = src;
    const uint8_t *end = src + n;
    size_t outPos = 0;
    while (outPos < dst_bytes) {
        if (p >= end)
            return false;
        uint8_t token = *p++;
        size_t literals = token >> 4;
        if (literals == 15 && !lzGetLength(p, end, literals))
            return false;
        if (literals > static_cast<size_t>(end - p) ||
            literals > dst_bytes - outPos)
            return false;
        if constexpr (Write)
            std::copy(p, p + literals, dst + outPos);
        p += literals;
        outPos += literals;
        if (outPos == dst_bytes)
            break; // final sequence carries no match
        if (end - p < 2)
            return false;
        size_t offset = static_cast<size_t>(p[0]) |
                        (static_cast<size_t>(p[1]) << 8);
        p += 2;
        if (offset == 0 || offset > outPos)
            return false;
        size_t matchLen = (token & 0xF);
        if (matchLen == 15 && !lzGetLength(p, end, matchLen))
            return false;
        matchLen += lzMinMatch;
        if (matchLen > dst_bytes - outPos)
            return false;
        if constexpr (Write) {
            // Byte-by-byte: overlapping matches (offset < length) are
            // the run-length case and must replicate forward.
            const uint8_t *from = dst + outPos - offset;
            for (size_t i = 0; i < matchLen; ++i)
                dst[outPos + i] = from[i];
        }
        outPos += matchLen;
    }
    return p == end && outPos == dst_bytes;
}

} // namespace

bool
lzUnpack(const uint8_t *src, size_t n, uint8_t *dst, size_t dst_bytes)
{
    return lzWalk<true>(src, n, dst, dst_bytes);
}

bool
lzCheck(const uint8_t *src, size_t n, size_t dst_bytes)
{
    return lzWalk<false>(src, n, nullptr, dst_bytes);
}

bool
FrameInfo::sectionSizesValid() const
{
    auto valid = [](uint64_t stored, uint64_t logical) {
        return stored == logical ||
               (stored < logical && logical <= lzMaxUnpackedBytes(stored));
    };
    return valid(storedEventBytes, eventBytes) &&
           valid(storedBitmapBytes, bitmapBytes) &&
           valid(storedResidueBytes, residueBytes);
}

bool
FrameInfo::packedSectionsValid(const uint8_t *payload) const
{
    if (!sectionSizesValid())
        return false;
    const uint64_t storedBytes[3] = {storedEventBytes, storedBitmapBytes,
                                     storedResidueBytes};
    const uint64_t logical[3] = {eventBytes, bitmapBytes, residueBytes};
    for (int s = 0; s < 3; ++s) {
        if (storedBytes[s] != logical[s] &&
            !lzCheck(payload, static_cast<size_t>(storedBytes[s]),
                     static_cast<size_t>(logical[s])))
            return false;
        payload += storedBytes[s];
    }
    return true;
}

bool
unpackFrame(const FrameInfo &info, const uint8_t *payload,
            FrameSections &out)
{
    return unpackFrame(info, payload,
                       payload + info.storedEventBytes,
                       payload + info.storedEventBytes +
                           info.storedBitmapBytes,
                       out);
}

bool
unpackFrame(const FrameInfo &info, const uint8_t *events,
            const uint8_t *bitmap, const uint8_t *residue,
            FrameSections &out)
{
    if (!info.sectionSizesValid())
        return false;
    const uint8_t *stored[3] = {events, bitmap, residue};
    const uint64_t storedBytes[3] = {info.storedEventBytes,
                                     info.storedBitmapBytes,
                                     info.storedResidueBytes};
    const uint64_t logical[3] = {info.eventBytes, info.bitmapBytes,
                                 info.residueBytes};
    const uint8_t *ptrs[3] = {nullptr, nullptr, nullptr};
    for (int s = 0; s < 3; ++s) {
        if (storedBytes[s] == logical[s]) {
            ptrs[s] = stored[s]; // raw: decode in place
        } else {
            std::vector<uint8_t> &buf = out.scratch[s];
            buf.resize(static_cast<size_t>(logical[s]));
            if (!lzUnpack(stored[s],
                          static_cast<size_t>(storedBytes[s]),
                          buf.data(), buf.size()))
                return false;
            ptrs[s] = buf.data();
        }
    }
    out.events = ptrs[0];
    out.bitmap = ptrs[1];
    out.residue = ptrs[2];
    return true;
}

// Predictive frame codec -------------------------------------------

bool
PredictorConfig::valid() const
{
    return tableBits >= 1 && tableBits <= 24 && laneBits <= 16 &&
           historyDepth >= 1 &&
           historyDepth <= AddressPredictor::maxHistoryDepth;
}

AddressPredictor::AddressPredictor(const PredictorConfig &cfg)
    : laneCap((1u << cfg.laneBits) - 1), depth(cfg.historyDepth),
      indexShift(64 - cfg.tableBits)
{
    LPP_REQUIRE(cfg.valid(),
                "invalid predictor config (%u table bits, %u lane "
                "bits, depth %u)",
                cfg.tableBits, cfg.laneBits, cfg.historyDepth);
    table.resize(size_t{1} << cfg.tableBits);
}

size_t
AddressPredictor::index() const
{
    uint64_t lane = std::min<uint64_t>(ctxLane, laneCap);
    uint64_t h = (ctxBlock + 1) * 0x9E3779B97F4A7C15ULL;
    h ^= (lane + 1) * 0xC2B2AE3D27D4EB4FULL;
    h ^= h >> 29;
    return static_cast<size_t>(h >> indexShift);
}

void
AddressPredictor::reset(const FrameSeeds &seeds)
{
    // Epoch stamping makes the table reset O(1); a wrapped epoch must
    // rewrite the stamps once so stale entries cannot alias as fresh.
    if (++epoch == 0) {
        for (Entry &e : table)
            e.epoch = 0;
        epoch = 1;
    }
    prevAddr = seeds.prevAddr;
    ctxBlock = seeds.ctxBlock;
    ctxLane = seeds.ctxLane;
}

Addr
AddressPredictor::predict() const
{
    const Entry &e = table[index()];
    if (e.epoch != epoch)
        return prevAddr; // cold entry: plain delta-chain fallback
    if (e.prevConf > e.conf) // cross-lane mode won the classification
        return prevAddr + static_cast<uint64_t>(e.prevDelta);
    if (e.conf == 0 || e.chosen >= e.filled)
        return e.last; // unclassified: last value
    return e.last + static_cast<uint64_t>(e.strides[e.chosen]);
}

void
AddressPredictor::update(Addr actual)
{
    Entry &e = table[index()];
    int64_t dPrev = static_cast<int64_t>(actual - prevAddr);
    if (e.epoch != epoch) {
        e = Entry{};
        e.epoch = epoch;
        e.last = actual;
        // Optimistically arm the cross-lane mode: a derived reference
        // (same delta from the preceding access every visit) then hits
        // from its second visit on.
        e.prevDelta = dPrev;
        e.prevConf = 1;
    } else {
        if (dPrev == e.prevDelta) {
            if (e.prevConf < 3)
                ++e.prevConf;
        } else if (e.prevConf > 0) {
            --e.prevConf;
        } else {
            e.prevDelta = dPrev;
        }
        int64_t d = static_cast<int64_t>(actual - e.last);
        int match = -1;
        for (uint32_t i = 0; i < e.filled; ++i) {
            if (e.strides[i] == d) {
                match = static_cast<int>(i);
                break;
            }
        }
        if (match >= 0) {
            // Front-pushing the stride below keeps slot `match`
            // holding the stride that follows d in any pattern of
            // period match+1, so `chosen` stays a valid oracle.
            e.chosen = static_cast<uint8_t>(match);
            if (e.conf < 3)
                ++e.conf;
        } else if (e.conf > 0) {
            --e.conf;
        }
        uint32_t top = std::min<uint32_t>(e.filled, depth - 1);
        for (uint32_t i = top; i > 0; --i)
            e.strides[i] = e.strides[i - 1];
        e.strides[0] = d;
        if (e.filled < depth)
            ++e.filled;
        e.last = actual;
    }
    prevAddr = actual;
    ++ctxLane;
}

FrameEncoder::FrameEncoder(const PredictorConfig &cfg) : predictor(cfg)
{
    predictor.reset(start);
}

void
FrameEncoder::putVarint(std::vector<uint8_t> &out, uint64_t v)
{
    writeVarint(out, v);
}

void
FrameEncoder::onBlock(BlockId block, uint32_t instructions)
{
    eventSec.push_back(static_cast<uint8_t>(TraceOp::Block));
    putVarint(eventSec, zigzag(block, prevBlock));
    prevBlock = block;
    putVarint(eventSec, instructions);
    predictor.observeBlock(block);
    ++eventCnt;
}

void
FrameEncoder::appendAccess(Addr addr)
{
    Addr pred = predictor.predict();
    bool hit = pred == addr;
    if ((bitCnt & 7) == 0)
        bitmapSec.push_back(0);
    if (hit)
        bitmapSec.back() |=
            static_cast<uint8_t>(1u << (bitCnt & 7));
    else
        putVarint(residueSec, zigzag(addr, pred));
    ++bitCnt;
    predictor.update(addr);
}

void
FrameEncoder::onAccess(Addr addr)
{
    eventSec.push_back(static_cast<uint8_t>(TraceOp::Access));
    appendAccess(addr);
    ++eventCnt;
    ++accessCnt;
}

void
FrameEncoder::onAccessBatch(const Addr *addrs, size_t n)
{
    eventSec.push_back(static_cast<uint8_t>(TraceOp::Batch));
    putVarint(eventSec, n);
    for (size_t i = 0; i < n; ++i)
        appendAccess(addrs[i]);
    ++eventCnt;
    accessCnt += n;
}

void
FrameEncoder::onManualMarker(uint32_t marker_id)
{
    eventSec.push_back(static_cast<uint8_t>(TraceOp::Manual));
    putVarint(eventSec, marker_id);
    ++eventCnt;
}

void
FrameEncoder::onPhaseMarker(PhaseId phase)
{
    eventSec.push_back(static_cast<uint8_t>(TraceOp::Phase));
    putVarint(eventSec, phase);
    ++eventCnt;
}

void
FrameEncoder::onEnd()
{
    eventSec.push_back(static_cast<uint8_t>(TraceOp::End));
    ++eventCnt;
}

void
FrameEncoder::fillInfo(FrameInfo &info) const
{
    info = FrameInfo{};
    info.events = eventCnt;
    info.accesses = accessCnt;
    info.eventBytes = eventSec.size();
    info.bitmapBytes = bitmapSec.size();
    info.residueBytes = residueSec.size();
    info.storedEventBytes = eventSec.size();
    info.storedBitmapBytes = bitmapSec.size();
    info.storedResidueBytes = residueSec.size();
    info.seeds = start;
}

void
FrameEncoder::materialize(FrameInfo &info,
                          std::vector<uint8_t> &payload) const
{
    fillInfo(info);
    payload.clear();
    payload.reserve(sectionBytes());
    const std::vector<uint8_t> *secs[3] = {&eventSec, &bitmapSec,
                                           &residueSec};
    uint64_t *storedSize[3] = {&info.storedEventBytes,
                               &info.storedBitmapBytes,
                               &info.storedResidueBytes};
    for (int s = 0; s < 3; ++s) {
        size_t packed =
            lzPack(secs[s]->data(), secs[s]->size(), payload);
        if (packed) {
            *storedSize[s] = packed;
        } else {
            payload.insert(payload.end(), secs[s]->begin(),
                           secs[s]->end());
            *storedSize[s] = secs[s]->size();
        }
    }
    info.payloadHash = contentHash64(payload.data(), payload.size());
}

void
FrameEncoder::seal(FrameInfo &info, std::vector<uint8_t> &payload)
{
    materialize(info, payload);
    eventSec.clear();
    eventSec.shrink_to_fit();
    bitmapSec.clear();
    bitmapSec.shrink_to_fit();
    residueSec.clear();
    residueSec.shrink_to_fit();
    eventCnt = 0;
    accessCnt = 0;
    bitCnt = 0;
    // The next frame inherits the current codec state as its seeds
    // and a cleared predictor table — the only state a frame needs
    // from its predecessors.
    start = predictor.seeds();
    start.prevBlock = prevBlock;
    predictor.reset(start);
}

void
FrameEncoder::restart()
{
    eventSec = {};
    bitmapSec = {};
    residueSec = {};
    eventCnt = 0;
    accessCnt = 0;
    bitCnt = 0;
    prevBlock = 0;
    start = FrameSeeds{};
    predictor.reset(start);
}

FrameDecoder::FrameDecoder(const PredictorConfig &cfg) : predictor(cfg)
{
}

void
FrameDecoder::begin(const FrameInfo &info, const uint8_t *events,
                    const uint8_t *bitmap, const uint8_t *residue)
{
    ev = events;
    evEnd = events + info.eventBytes;
    bm = bitmap;
    res = residue;
    resEnd = residue + info.residueBytes;
    bitAvail = info.bitmapBytes * 8;
    bitPos = 0;
    prevBlock = info.seeds.prevBlock;
    evTotal = info.events;
    accTotal = info.accesses;
    evDone = 0;
    accDone = 0;
    predictor.reset(info.seeds);
    // The bitmap must hold exactly one bit per access (plus padding
    // inside the last byte); anything else is a malformed frame.
    if (info.bitmapBytes != (info.accesses + 7) / 8) {
        evEnd = ev;
        evTotal = evDone + 1; // force the next pull into Error
    }
}

bool
FrameDecoder::readBit(bool &bit)
{
    if (bitPos >= bitAvail)
        return false;
    bit = ((bm[bitPos >> 3] >> (bitPos & 7)) & 1) != 0;
    ++bitPos;
    return true;
}

bool
FrameDecoder::decodeAddr(Addr &addr)
{
    bool hit = false;
    if (!readBit(hit))
        return false;
    Addr pred = predictor.predict();
    if (hit) {
        addr = pred;
    } else {
        uint64_t coded = 0;
        if (!readVarint(res, resEnd, coded))
            return false;
        addr = unzigzag(coded, pred);
    }
    predictor.update(addr);
    return true;
}

bool
FrameDecoder::decodeRun(Addr *dst, uint64_t n)
{
    uint64_t i = 0;
    while (i < n) {
        // 4-wide unrolled fast path: four consecutive hit bits inside
        // one bitmap byte decode as four predict/update steps with no
        // residue bytes and no per-bit cursor checks.
        if (i + 4 <= n && bitPos + 4 <= bitAvail &&
            (bitPos & 7) <= 4 &&
            ((bm[bitPos >> 3] >> (bitPos & 7)) & 0xFu) == 0xFu) {
            for (int k = 0; k < 4; ++k) {
                Addr a = predictor.predict();
                predictor.update(a);
                dst[i + static_cast<uint64_t>(k)] = a;
            }
            bitPos += 4;
            i += 4;
            continue;
        }
        if (!decodeAddr(dst[i]))
            return false;
        ++i;
    }
    return true;
}

FrameDecoder::Status
FrameDecoder::next(TraceSink *sink, std::vector<Addr> &scratch)
{
    if (evDone == evTotal) {
        // Every section must be fully consumed — leftover bytes mean
        // the frame directory and payload disagree.
        return (ev == evEnd && res == resEnd && accDone == accTotal)
                   ? Status::Done
                   : Status::Error;
    }
    if (ev >= evEnd)
        return Status::Error;
    uint8_t op = *ev++;
    switch (static_cast<TraceOp>(op)) {
      case TraceOp::Block: {
        uint64_t d = 0, instrs = 0;
        if (!readVarint(ev, evEnd, d) ||
            !readVarint(ev, evEnd, instrs))
            return Status::Error;
        prevBlock = unzigzag(d, prevBlock);
        predictor.observeBlock(static_cast<BlockId>(prevBlock));
        if (sink)
            sink->onBlock(static_cast<BlockId>(prevBlock),
                          static_cast<uint32_t>(instrs));
        break;
      }
      case TraceOp::Access: {
        Addr a = 0;
        if (accDone >= accTotal || !decodeAddr(a))
            return Status::Error;
        ++accDone;
        if (sink)
            sink->onAccess(a);
        break;
      }
      case TraceOp::Batch: {
        uint64_t n = 0;
        if (!readVarint(ev, evEnd, n))
            return Status::Error;
        // The frame directory bounds the batch: a corrupt length can
        // never allocate past the frame's declared access count.
        if (n > accTotal - accDone)
            return Status::Error;
        if (scratch.size() < n)
            scratch.resize(static_cast<size_t>(n));
        if (!decodeRun(scratch.data(), n))
            return Status::Error;
        accDone += n;
        if (sink)
            sink->onAccessBatch(scratch.data(),
                                static_cast<size_t>(n));
        break;
      }
      case TraceOp::Manual: {
        uint64_t id = 0;
        if (!readVarint(ev, evEnd, id))
            return Status::Error;
        if (sink)
            sink->onManualMarker(static_cast<uint32_t>(id));
        break;
      }
      case TraceOp::Phase: {
        uint64_t id = 0;
        if (!readVarint(ev, evEnd, id))
            return Status::Error;
        if (sink)
            sink->onPhaseMarker(static_cast<PhaseId>(id));
        break;
      }
      case TraceOp::End:
        if (sink)
            sink->onEnd();
        break;
      default:
        return Status::Error;
    }
    ++evDone;
    return Status::Event;
}

} // namespace lpp::trace
