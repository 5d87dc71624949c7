/**
 * @file
 * Frame-codec robustness: the predictor learns strided and periodic
 * reference patterns, the LZ section transform round-trips and rejects
 * malformed input at every truncation point, and frame decoding
 * survives arbitrary payload corruption without undefined behavior —
 * corruption surfaces as a clean unpack failure or decoder Error.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "support/random.hpp"
#include "trace/codec.hpp"
#include "trace/memory_trace.hpp"
#include "trace/sink.hpp"

namespace {

using lpp::trace::Addr;
using lpp::trace::FrameDecoder;
using lpp::trace::FrameEncoder;
using lpp::trace::FrameInfo;
using lpp::trace::FrameSections;
using lpp::trace::MemoryTrace;
using lpp::trace::PredictorConfig;

// Predictor learning ------------------------------------------------

TEST(FrameCodec, PredictorLearnsConstantStride)
{
    FrameEncoder enc{PredictorConfig{}};
    enc.onBlock(7, 10);
    for (int i = 0; i < 10000; ++i)
        enc.onAccess(0x1000 + 8 * static_cast<Addr>(i));
    // After the cold start (one misprediction per predictor lane, 64
    // lanes) the stride pattern predicts every access: the residue
    // stays a couple hundred bytes, not 10000 varints.
    EXPECT_LT(enc.residueSection().size(), 256u);
}

TEST(FrameCodec, PredictorLearnsPeriodicStridePattern)
{
    // Period-2 stride pattern (+8, +56, +8, +56, ...) per lane: the
    // stride-history ring keys slot 1 to it.
    FrameEncoder enc{PredictorConfig{}};
    enc.onBlock(3, 10);
    Addr a = 0x4000;
    for (int i = 0; i < 10000; ++i) {
        enc.onAccess(a);
        a += (i % 2) ? 56 : 8;
    }
    EXPECT_LT(enc.residueSection().size(), 256u);
}

TEST(FrameCodec, CrossLanePredictionCoversDerivedReferences)
{
    // Random base address per round, but the second access is always
    // base + 8 (a derived reference, like heap[key] then heap[key+1]).
    // The cross-lane mode predicts the second access from the first,
    // so the residue holds ~one varint per round, not two.
    lpp::Rng rng(11);
    FrameEncoder random{PredictorConfig{}};
    FrameEncoder derived{PredictorConfig{}};
    for (int i = 0; i < 8000; ++i) {
        Addr base = 8 * rng.below(1 << 24);
        Addr pair[2] = {base, base + 8};
        random.onBlock(5, 10);
        random.onAccess(base);
        random.onAccess(8 * rng.below(1 << 24));
        derived.onBlock(5, 10);
        derived.onAccessBatch(pair, 2);
    }
    EXPECT_LT(derived.residueSection().size() * 3,
              random.residueSection().size() * 2);
}

// LZ section transform ----------------------------------------------

std::vector<uint8_t>
lzRoundTrip(const std::vector<uint8_t> &src, bool *packed_out = nullptr)
{
    std::vector<uint8_t> packed;
    size_t n = lpp::trace::lzPack(src.data(), src.size(), packed);
    if (packed_out)
        *packed_out = n != 0;
    if (n == 0)
        return src; // stored raw
    EXPECT_EQ(n, packed.size());
    EXPECT_LT(n, src.size());
    std::vector<uint8_t> out(src.size());
    EXPECT_TRUE(lpp::trace::lzUnpack(packed.data(), packed.size(),
                                     out.data(), out.size()));
    return out;
}

TEST(FrameCodec, LzRoundTripsRepetitiveInput)
{
    std::vector<uint8_t> src;
    for (int i = 0; i < 5000; ++i) {
        src.push_back(static_cast<uint8_t>(2));
        src.push_back(static_cast<uint8_t>(i & 3));
        src.push_back(64);
    }
    bool packed = false;
    EXPECT_EQ(lzRoundTrip(src, &packed), src);
    EXPECT_TRUE(packed);
}

TEST(FrameCodec, LzRoundTripsRunLengthOverlaps)
{
    // All-equal bytes force offset-1 overlapping matches (the
    // byte-replication case a memcpy would get wrong).
    std::vector<uint8_t> src(4096, 0xFF);
    bool packed = false;
    EXPECT_EQ(lzRoundTrip(src, &packed), src);
    EXPECT_TRUE(packed);

    // Input ending exactly on a match (no trailing literals).
    std::vector<uint8_t> cut(src.begin(), src.begin() + 100);
    EXPECT_EQ(lzRoundTrip(cut), cut);
}

TEST(FrameCodec, LzStoresIncompressibleAndTinyInputRaw)
{
    lpp::Rng rng(3);
    std::vector<uint8_t> noise(4096);
    for (auto &b : noise)
        b = static_cast<uint8_t>(rng.below(256));
    std::vector<uint8_t> out;
    EXPECT_EQ(lpp::trace::lzPack(noise.data(), noise.size(), out), 0u);
    EXPECT_TRUE(out.empty());

    std::vector<uint8_t> tiny{1, 2, 3};
    EXPECT_EQ(lpp::trace::lzPack(tiny.data(), tiny.size(), out), 0u);
    std::vector<uint8_t> empty;
    EXPECT_EQ(lpp::trace::lzPack(empty.data(), 0, out), 0u);
}

TEST(FrameCodec, LzUnpackRejectsEveryTruncation)
{
    std::vector<uint8_t> src;
    for (int i = 0; i < 600; ++i)
        src.push_back(static_cast<uint8_t>(i % 7));
    std::vector<uint8_t> packed;
    ASSERT_GT(lpp::trace::lzPack(src.data(), src.size(), packed), 0u);

    std::vector<uint8_t> out(src.size());
    for (size_t cut = 0; cut < packed.size(); ++cut)
        EXPECT_FALSE(lpp::trace::lzUnpack(packed.data(), cut,
                                          out.data(), out.size()))
            << "truncated at " << cut;
    // Wrong declared output size is rejected too.
    EXPECT_FALSE(lpp::trace::lzUnpack(packed.data(), packed.size(),
                                      out.data(), out.size() - 1));
}

TEST(FrameCodec, LzUnpackSurvivesBitFlips)
{
    std::vector<uint8_t> src;
    for (int i = 0; i < 800; ++i)
        src.push_back(static_cast<uint8_t>((i * i) % 11));
    std::vector<uint8_t> packed;
    ASSERT_GT(lpp::trace::lzPack(src.data(), src.size(), packed), 0u);

    // Every single-bit corruption either fails cleanly or produces
    // some same-sized output — never reads or writes out of bounds
    // (the asan/ubsan preset turns any violation into a test failure).
    std::vector<uint8_t> out(src.size());
    for (size_t byte = 0; byte < packed.size(); ++byte) {
        std::vector<uint8_t> bad = packed;
        bad[byte] ^= 0x10;
        lpp::trace::lzUnpack(bad.data(), bad.size(), out.data(),
                             out.size());
    }
}

TEST(FrameCodec, LzCheckAgreesWithUnpack)
{
    std::vector<uint8_t> src;
    for (int i = 0; i < 800; ++i)
        src.push_back(static_cast<uint8_t>((i * i) % 11));
    std::vector<uint8_t> packed;
    ASSERT_GT(lpp::trace::lzPack(src.data(), src.size(), packed), 0u);
    EXPECT_TRUE(lpp::trace::lzCheck(packed.data(), packed.size(),
                                    src.size()));

    // Bit flips, truncations and wrong declared sizes: the walk that
    // writes nothing must accept exactly what unpacking accepts.
    std::vector<uint8_t> out(src.size() + 1);
    auto agree = [&](const std::vector<uint8_t> &in, size_t n,
                     size_t size) {
        EXPECT_EQ(lpp::trace::lzCheck(in.data(), n, size),
                  lpp::trace::lzUnpack(in.data(), n, out.data(), size))
            << n << " stored bytes, " << size << " declared";
    };
    for (size_t byte = 0; byte < packed.size(); ++byte) {
        std::vector<uint8_t> bad = packed;
        bad[byte] ^= 0x10;
        agree(bad, bad.size(), src.size());
        agree(packed, byte, src.size());
    }
    for (size_t size : {size_t{0}, src.size() - 1, src.size() + 1})
        agree(packed, packed.size(), size);
}

// Frame corruption --------------------------------------------------

/** One sealed multi-section frame from a mixed recorded stream. */
void
sampleFrame(FrameInfo &info, std::vector<uint8_t> &payload)
{
    MemoryTrace trace;
    lpp::Rng rng(5);
    for (int round = 0; round < 200; ++round) {
        trace.onBlock(static_cast<uint32_t>(round % 7), 12);
        std::vector<Addr> batch;
        Addr base = 8 * rng.below(1 << 20);
        for (size_t i = 0; i < 40; ++i)
            batch.push_back(base + 8 * static_cast<Addr>(i));
        trace.onAccessBatch(batch.data(), batch.size());
        trace.onAccess(8 * rng.below(1 << 20));
    }
    trace.onEnd();
    ASSERT_GE(trace.sealedFrameCount(), 1u);
    info = trace.sealedFrame(0).info;
    payload = trace.sealedFrame(0).payload;
}

/** Unpack + fully decode one frame; report the terminal status. */
FrameDecoder::Status
decodeFrame(const FrameInfo &info, const std::vector<uint8_t> &payload)
{
    FrameSections sections;
    if (!lpp::trace::unpackFrame(info, payload.data(), sections))
        return FrameDecoder::Status::Error;
    FrameDecoder dec{PredictorConfig{}};
    dec.begin(info, sections.events, sections.bitmap, sections.residue);
    std::vector<Addr> scratch;
    for (;;) {
        // Null sink: decode (and bounds-check) without delivering.
        FrameDecoder::Status st = dec.next(nullptr, scratch);
        if (st != FrameDecoder::Status::Event)
            return st;
    }
}

TEST(FrameCodec, IntactFrameDecodesToDone)
{
    FrameInfo info;
    std::vector<uint8_t> payload;
    sampleFrame(info, payload);
    EXPECT_GT(info.payloadBytes(), 0u);
    EXPECT_EQ(payload.size(), info.payloadBytes());
    EXPECT_EQ(decodeFrame(info, payload), FrameDecoder::Status::Done);
}

TEST(FrameCodec, CorruptPayloadNeverDecodesToDoneSilently)
{
    FrameInfo info;
    std::vector<uint8_t> payload;
    sampleFrame(info, payload);

    // Flip one bit at a spread of payload positions. Every corruption
    // must surface as a clean unpack failure or decoder Error, or (for
    // a flip that decodes to a different but well-formed stream) as a
    // payload-hash mismatch — never as out-of-bounds access.
    size_t stride = payload.size() / 97 + 1;
    for (size_t byte = 0; byte < payload.size(); byte += stride) {
        for (uint8_t bit : {0x01, 0x80}) {
            std::vector<uint8_t> bad = payload;
            bad[byte] ^= bit;
            FrameDecoder::Status st = decodeFrame(info, bad);
            if (st == FrameDecoder::Status::Done) {
                EXPECT_NE(lpp::trace::contentHash64(bad.data(),
                                                    bad.size()),
                          info.payloadHash)
                    << "undetectable corruption at byte " << byte;
            }
        }
    }
}

TEST(FrameCodec, TruncatedStoredSectionsFailCleanly)
{
    FrameInfo info;
    std::vector<uint8_t> payload;
    sampleFrame(info, payload);

    // Shrink the stored section sizes (as a corrupt frame directory
    // would): unpack must fail or the decoder must error, with every
    // read still inside the smaller buffer.
    for (uint64_t FrameInfo::*field :
         {&FrameInfo::storedEventBytes, &FrameInfo::storedBitmapBytes,
          &FrameInfo::storedResidueBytes}) {
        FrameInfo cut = info;
        if (cut.*field == 0)
            continue;
        cut.*field -= 1;
        std::vector<uint8_t> shorter(payload.begin(),
                                     payload.begin() +
                                         static_cast<long>(
                                             cut.payloadBytes()));
        FrameDecoder::Status st = decodeFrame(cut, shorter);
        EXPECT_NE(st, FrameDecoder::Status::Done);
    }
}

TEST(FrameCodec, InflatedStoredSectionSizeIsRejected)
{
    FrameInfo info;
    std::vector<uint8_t> payload;
    sampleFrame(info, payload);
    // A stored size above the logical size is structurally invalid
    // (packing never grows a section): unpackFrame rejects it without
    // looking at the bytes.
    FrameInfo bad = info;
    bad.storedEventBytes = bad.eventBytes + 1;
    std::vector<uint8_t> grown = payload;
    grown.resize(static_cast<size_t>(bad.payloadBytes()));
    FrameSections sections;
    EXPECT_FALSE(
        lpp::trace::unpackFrame(bad, grown.data(), sections));
}

TEST(FrameCodec, LogicalSizeBeyondLzExpansionIsRejected)
{
    FrameInfo info;
    std::vector<uint8_t> payload;
    sampleFrame(info, payload);
    ASSERT_TRUE(info.sectionSizesValid());
    // A forged directory declaring a 2^40-byte event section: no LZ
    // input of storedEventBytes bytes unpacks that far, so unpackFrame
    // must refuse before sizing a buffer from it.
    FrameInfo bad = info;
    bad.eventBytes = uint64_t{1} << 40;
    ASSERT_LT(lpp::trace::lzMaxUnpackedBytes(bad.storedEventBytes),
              bad.eventBytes);
    EXPECT_FALSE(bad.sectionSizesValid());
    FrameSections sections;
    EXPECT_NO_THROW(
        { EXPECT_FALSE(lpp::trace::unpackFrame(bad, payload.data(),
                                               sections)); });
    EXPECT_TRUE(sections.scratch[0].empty());

    // The bound is tight enough to be real and loose enough for
    // everything lzPack emits: a long run packs far below 1/255.
    std::vector<uint8_t> run(1 << 16, 0xAB), packed;
    size_t n = lpp::trace::lzPack(run.data(), run.size(), packed);
    ASSERT_GT(n, 0u);
    EXPECT_LE(run.size(), lpp::trace::lzMaxUnpackedBytes(n));
    EXPECT_EQ(lpp::trace::lzMaxUnpackedBytes(~uint64_t{0}), ~uint64_t{0});
}

} // namespace
