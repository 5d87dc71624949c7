/**
 * @file
 * Trace-store tests: atomic publication, header-verified lookup,
 * hash-verified load, and miss semantics on every kind of mismatch
 * (params hash, key, corruption, truncation, hostile header and
 * directory counts).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "delivery_log.hpp"
#include "trace/codec.hpp"
#include "trace/memory_trace.hpp"
#include "trace/trace_store.hpp"

namespace fs = std::filesystem;

namespace {

using lpp::test::DeliveryLog;
using lpp::trace::Addr;
using lpp::trace::MemoryTrace;
using lpp::trace::StoredTraceStats;
using lpp::trace::TraceStore;

class TraceStoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = fs::temp_directory_path() /
              ("lpp_store_test_" + std::to_string(::getpid()) + "_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name());
        fs::remove_all(dir);
    }

    void TearDown() override { fs::remove_all(dir); }

    MemoryTrace
    sampleTrace() const
    {
        MemoryTrace t;
        t.onBlock(1, 10);
        std::vector<Addr> batch{0x1000, 0x1008, 0x1010, 0x0FF8};
        t.onAccessBatch(batch.data(), batch.size());
        t.onAccess(0x2000);
        t.onManualMarker(3);
        t.onEnd();
        return t;
    }

    /** @return every delivery a replay of `t` makes, verbatim. */
    static std::vector<std::string>
    deliveries(const MemoryTrace &t)
    {
        DeliveryLog log;
        t.replay(log);
        return log.log;
    }

    /** Overwrite `bytes` of the file at `path` at offset `at`. */
    static void
    patch(const std::string &path, uint64_t at,
          const std::vector<uint8_t> &bytes)
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekp(static_cast<std::streamoff>(at));
        f.write(reinterpret_cast<const char *>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
        ASSERT_TRUE(f.good());
    }

    /** Overwrite one little-endian u64 of the file at `path`. */
    static void
    patch64(const std::string &path, uint64_t at, uint64_t v)
    {
        std::vector<uint8_t> bytes(8);
        for (size_t b = 0; b < 8; ++b)
            bytes[b] = static_cast<uint8_t>(v >> (8 * b));
        patch(path, at, bytes);
    }

    fs::path dir;
};

// LPT2 layout the hostile-entry tests forge against: the fixed
// header, then the key, then 15 u64 fields per directory entry.
constexpr uint64_t frameCountAt = 44;
constexpr uint64_t payloadBytesAt = 52;
constexpr uint64_t indexHashAt = 60;
constexpr uint64_t headerBytes = 72;
constexpr uint64_t indexEntryBytes = 15 * 8;
constexpr uint64_t eventBytesField = 4 * 8;
constexpr uint64_t storedEventBytesField = 7 * 8;

TEST_F(TraceStoreTest, StoreThenLoadRoundTrips)
{
    TraceStore store(dir.string());
    auto t = sampleTrace();
    StoredTraceStats stats{true, 6};
    auto bytes = store.store("fft@s1:x1", 0xABCDull, t, stats);
    ASSERT_GT(bytes, 0u);

    auto info = store.lookup("fft@s1:x1", 0xABCDull);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->events, t.eventCount());
    EXPECT_EQ(info->accesses, t.accessCount());
    EXPECT_TRUE(info->stats.valid);
    EXPECT_EQ(info->stats.distinctElements, 6u);
    EXPECT_EQ(info->fileBytes, bytes);
    EXPECT_GT(info->payloadBytes, 0u);
    EXPECT_TRUE(fs::exists(info->path));

    MemoryTrace loaded;
    ASSERT_TRUE(store.load("fft@s1:x1", 0xABCDull, loaded));
    EXPECT_EQ(loaded.eventCount(), t.eventCount());
    EXPECT_EQ(loaded.accessCount(), t.accessCount());

    // Replayed streams are bit-identical, batch boundaries included.
    EXPECT_EQ(deliveries(loaded), deliveries(t));
}

TEST_F(TraceStoreTest, MissOnAbsentEntryKeyOrParamsMismatch)
{
    TraceStore store(dir.string());
    auto t = sampleTrace();
    EXPECT_FALSE(store.lookup("fft@s1:x1", 1).has_value());

    store.store("fft@s1:x1", 1, t, {});
    EXPECT_TRUE(store.lookup("fft@s1:x1", 1).has_value());
    // Different generator parameters: invalidated.
    EXPECT_FALSE(store.lookup("fft@s1:x1", 2).has_value());
    // Different key: separate entry.
    EXPECT_FALSE(store.lookup("fft@s2:x1", 1).has_value());

    MemoryTrace out;
    EXPECT_FALSE(store.load("fft@s1:x1", 2, out));
    EXPECT_TRUE(out.empty());
}

TEST_F(TraceStoreTest, DistinctKeysAndParamsCoexist)
{
    TraceStore store(dir.string());
    auto t = sampleTrace();
    MemoryTrace t2;
    t2.onAccess(0xAAAA);
    t2.onEnd();

    store.store("w@s1:x1", 1, t, {});
    store.store("w@s1:x1", 2, t2, {});
    store.store("w@s2:x1", 1, t2, {});

    MemoryTrace a, b;
    ASSERT_TRUE(store.load("w@s1:x1", 1, a));
    ASSERT_TRUE(store.load("w@s1:x1", 2, b));
    EXPECT_EQ(a.eventCount(), t.eventCount());
    EXPECT_EQ(b.eventCount(), t2.eventCount());
}

TEST_F(TraceStoreTest, CorruptPayloadReadsAsMiss)
{
    TraceStore store(dir.string());
    auto t = sampleTrace();
    store.store("w@s1:x1", 7, t, {});
    auto info = store.lookup("w@s1:x1", 7);
    ASSERT_TRUE(info.has_value());

    // Flip one payload byte in place (header intact): lookup still
    // succeeds (header-only) but load fails on the payload hash.
    {
        std::fstream f(info->path,
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekp(static_cast<std::streamoff>(info->fileBytes - 1));
        char c = 0;
        f.seekg(static_cast<std::streamoff>(info->fileBytes - 1));
        f.read(&c, 1);
        c = static_cast<char>(c ^ 0x40);
        f.seekp(static_cast<std::streamoff>(info->fileBytes - 1));
        f.write(&c, 1);
    }
    EXPECT_TRUE(store.lookup("w@s1:x1", 7).has_value());
    MemoryTrace out;
    EXPECT_FALSE(store.load("w@s1:x1", 7, out));
    EXPECT_TRUE(out.empty());
}

TEST_F(TraceStoreTest, CorruptFrameDirectoryReadsAsMiss)
{
    TraceStore store(dir.string());
    store.store("w@s1:x1", 7, sampleTrace(), {});
    auto info = store.lookup("w@s1:x1", 7);
    ASSERT_TRUE(info.has_value());

    // Flip a byte in the frame directory (the region just before the
    // payloads): the header still parses, but the directory hash
    // mismatch turns load into a clean miss that adopts nothing.
    {
        std::fstream f(info->path,
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.good());
        auto at = static_cast<std::streamoff>(info->fileBytes -
                                              info->payloadBytes - 1);
        char c = 0;
        f.seekg(at);
        f.read(&c, 1);
        c = static_cast<char>(c ^ 0x04);
        f.seekp(at);
        f.write(&c, 1);
    }
    EXPECT_TRUE(store.lookup("w@s1:x1", 7).has_value());
    MemoryTrace out;
    EXPECT_FALSE(store.load("w@s1:x1", 7, out));
    EXPECT_TRUE(out.empty());
    EXPECT_TRUE(deliveries(out).empty());
}

TEST_F(TraceStoreTest, TruncatedEntryReadsAsMiss)
{
    TraceStore store(dir.string());
    store.store("w@s1:x1", 7, sampleTrace(), {});
    auto info = store.lookup("w@s1:x1", 7);
    ASSERT_TRUE(info.has_value());
    fs::resize_file(info->path, info->fileBytes - 3);
    EXPECT_FALSE(store.lookup("w@s1:x1", 7).has_value());
    MemoryTrace out;
    EXPECT_FALSE(store.load("w@s1:x1", 7, out));
}

TEST_F(TraceStoreTest, PublicationLeavesNoTemporaries)
{
    TraceStore store(dir.string());
    for (int i = 0; i < 4; ++i)
        store.store("w@s1:x1", static_cast<uint64_t>(i), sampleTrace(),
                    {});
    size_t files = 0;
    for (const auto &e : fs::directory_iterator(dir)) {
        EXPECT_EQ(e.path().extension(), ".lpt") << e.path();
        ++files;
    }
    EXPECT_EQ(files, 4u);
}

TEST_F(TraceStoreTest, OverwriteReplacesEntryAtomically)
{
    TraceStore store(dir.string());
    auto t = sampleTrace();
    store.store("w@s1:x1", 1, t, {});
    MemoryTrace t2;
    t2.onAccess(1);
    t2.onAccess(2);
    t2.onEnd();
    store.store("w@s1:x1", 1, t2, StoredTraceStats{true, 2});

    auto info = store.lookup("w@s1:x1", 1);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->events, t2.eventCount());
    EXPECT_TRUE(info->stats.valid);
    MemoryTrace out;
    ASSERT_TRUE(store.load("w@s1:x1", 1, out));
    EXPECT_EQ(deliveries(out), deliveries(t2));
}

TEST_F(TraceStoreTest, HostileHeaderCountsReadAsMiss)
{
    TraceStore store(dir.string());
    auto t = sampleTrace();
    store.store("w@s1:x1", 7, t, {});
    auto info = store.lookup("w@s1:x1", 7);
    ASSERT_TRUE(info.has_value());
    ASSERT_EQ(info->frames, 1u);
    // The forged payload count below only wraps for a short payload.
    ASSERT_LT(info->payloadBytes, indexEntryBytes);
    const std::string path = info->path;
    std::vector<uint8_t> pristine(info->fileBytes);
    {
        std::ifstream in(path, std::ios::binary);
        in.read(reinterpret_cast<char *>(pristine.data()),
                static_cast<std::streamsize>(pristine.size()));
        ASSERT_TRUE(in.good());
    }

    // Each forged header keeps header + key + 120 * frames + payload
    // equal to the file size modulo 2^64, so only bounding the counts
    // by the file size exposes it.
    struct Forged
    {
        const char *what;
        uint64_t frames;
        uint64_t payload;
    };
    const Forged forged[] = {
        // 2^61 * 120 wraps to zero: the directory "fits" in 120 bytes.
        {"frameCount + 2^61", info->frames + (1ull << 61),
         info->payloadBytes},
        // One extra directory entry paid for by a payload count that
        // wraps below zero.
        {"payloadBytes - 120", info->frames + 1,
         info->payloadBytes - indexEntryBytes},
    };
    for (const Forged &f : forged) {
        SCOPED_TRACE(f.what);
        patch(path, 0, pristine);
        patch64(path, frameCountAt, f.frames);
        patch64(path, payloadBytesAt, f.payload);
        EXPECT_NO_THROW({
            EXPECT_FALSE(store.lookup("w@s1:x1", 7).has_value());
        });
        MemoryTrace out;
        EXPECT_NO_THROW({ EXPECT_FALSE(store.load("w@s1:x1", 7, out)); });
        EXPECT_TRUE(out.empty());
    }
}

TEST_F(TraceStoreTest, HostileFrameSizesReadAsMiss)
{
    TraceStore store(dir.string());
    MemoryTrace t;
    t.setFrameTargetAccesses(4);
    std::vector<Addr> batch{0x1000, 0x1008, 0x1010, 0x1018};
    for (uint32_t b = 0; b < 3; ++b) {
        t.onBlock(b, 10);
        t.onAccessBatch(batch.data(), batch.size());
    }
    t.onEnd();
    store.store("w@s1:x1", 7, t, {});
    auto info = store.lookup("w@s1:x1", 7);
    ASSERT_TRUE(info.has_value());
    ASSERT_GE(info->frames, 2u);

    // Give the first two frames stored event sections of 2^63 more
    // bytes each (logical sizes too, so stored <= logical holds). The
    // per-frame sums wrap back to the header total, and the directory
    // hash is recomputed, so only the remaining-payload bound rejects
    // the entry.
    const uint64_t dirAt = headerBytes + std::string("w@s1:x1").size();
    std::vector<uint8_t> dirBytes(info->frames * indexEntryBytes);
    {
        std::ifstream in(info->path, std::ios::binary);
        in.seekg(static_cast<std::streamoff>(dirAt));
        in.read(reinterpret_cast<char *>(dirBytes.data()),
                static_cast<std::streamsize>(dirBytes.size()));
        ASSERT_TRUE(in.good());
    }
    for (uint64_t frame = 0; frame < 2; ++frame)
        for (uint64_t field : {eventBytesField, storedEventBytesField})
            dirBytes[frame * indexEntryBytes + field + 7] ^= 0x80;
    patch(info->path, dirAt, dirBytes);
    patch64(info->path, indexHashAt,
            lpp::trace::contentHash64(dirBytes.data(), dirBytes.size()));

    MemoryTrace out;
    EXPECT_NO_THROW({ EXPECT_FALSE(store.load("w@s1:x1", 7, out)); });
    EXPECT_TRUE(out.empty());
}

TEST_F(TraceStoreTest, HostileLogicalSectionSizeReadsAsMiss)
{
    TraceStore store(dir.string());
    store.store("w@s1:x1", 7, sampleTrace(), {});
    auto info = store.lookup("w@s1:x1", 7);
    ASSERT_TRUE(info.has_value());

    // Declare a 2^40-byte logical event section for the first frame
    // and recompute the directory hash: the payload and every count
    // still check out, so only bounding the logical size by what the
    // stored bytes can unpack to rejects the entry.
    const uint64_t dirAt = headerBytes + std::string("w@s1:x1").size();
    std::vector<uint8_t> dirBytes(info->frames * indexEntryBytes);
    {
        std::ifstream in(info->path, std::ios::binary);
        in.seekg(static_cast<std::streamoff>(dirAt));
        in.read(reinterpret_cast<char *>(dirBytes.data()),
                static_cast<std::streamsize>(dirBytes.size()));
        ASSERT_TRUE(in.good());
    }
    const uint64_t forged = uint64_t{1} << 40;
    for (size_t b = 0; b < 8; ++b)
        dirBytes[eventBytesField + b] =
            static_cast<uint8_t>(forged >> (8 * b));
    patch(info->path, dirAt, dirBytes);
    patch64(info->path, indexHashAt,
            lpp::trace::contentHash64(dirBytes.data(), dirBytes.size()));

    MemoryTrace out;
    EXPECT_NO_THROW({ EXPECT_FALSE(store.load("w@s1:x1", 7, out)); });
    EXPECT_TRUE(out.empty());
}

TEST_F(TraceStoreTest, PlausibleWrongLogicalSectionSizeReadsAsMiss)
{
    TraceStore store(dir.string());
    MemoryTrace t;
    t.onBlock(1, 10);
    std::vector<Addr> batch{0x1000, 0x1008, 0x1010, 0x0FF8};
    t.onAccessBatch(batch.data(), batch.size());
    t.onAccess(0x2000);
    t.onEnd();
    store.store("w@s1:x1", 7, t, {});
    auto info = store.lookup("w@s1:x1", 7);
    ASSERT_TRUE(info.has_value());

    // Frame 0's event section is stored raw in 7 bytes. Declare it 8
    // logical bytes and recompute the directory hash: the section now
    // reads as LZ-packed, its sizes stay within what 7 stored bytes
    // could unpack to, and the payload hash still holds, so only
    // walking the section's tokens tells the entry is bad. Without
    // that walk, the first replay would abort.
    const uint64_t dirAt = headerBytes + std::string("w@s1:x1").size();
    std::vector<uint8_t> dirBytes(info->frames * indexEntryBytes);
    {
        std::ifstream in(info->path, std::ios::binary);
        in.seekg(static_cast<std::streamoff>(dirAt));
        in.read(reinterpret_cast<char *>(dirBytes.data()),
                static_cast<std::streamsize>(dirBytes.size()));
        ASSERT_TRUE(in.good());
    }
    ASSERT_EQ(dirBytes[eventBytesField], 7u);
    ASSERT_EQ(dirBytes[storedEventBytesField], 7u);
    dirBytes[eventBytesField] = 8;
    patch(info->path, dirAt, dirBytes);
    patch64(info->path, indexHashAt,
            lpp::trace::contentHash64(dirBytes.data(), dirBytes.size()));

    MemoryTrace out;
    EXPECT_NO_THROW({ EXPECT_FALSE(store.load("w@s1:x1", 7, out)); });
    EXPECT_TRUE(out.empty());
}

} // namespace
