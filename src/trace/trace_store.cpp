#include "trace/trace_store.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "support/logging.hpp"
#include "trace/codec.hpp"
#include "trace/memory_trace.hpp"

namespace lpp::trace {

namespace {

constexpr uint32_t storeMagic = 0x3254504Cu; // "LPT2"
constexpr uint32_t storeVersion = 2;

/** Fixed-width little-endian header preceding key, directory, and
 *  frame payloads. */
struct EntryHeader
{
    uint32_t magic = storeMagic;
    uint32_t version = storeVersion;
    uint64_t paramsHash = 0;
    uint64_t eventCount = 0;
    uint64_t accessCount = 0;
    uint8_t hasStats = 0;
    uint64_t distinctElements = 0;
    uint8_t tableBits = 0; //!< predictor geometry the frames encode with
    uint8_t laneBits = 0;
    uint8_t historyDepth = 0;
    uint64_t frameCount = 0;
    uint64_t payloadBytes = 0; //!< concatenated frame payload bytes
    uint64_t indexHash = 0;    //!< contentHash64 of the directory bytes
    uint32_t keyBytes = 0;
};

constexpr size_t headerBytes =
    4 + 4 + 8 + 8 + 8 + 1 + 8 + 1 + 1 + 1 + 8 + 8 + 8 + 4;

/** One frame-directory entry: trace::FrameInfo, serialized flat. */
constexpr size_t indexEntryBytes = 15 * 8;

template <typename T>
void
put(std::vector<uint8_t> &out, T v)
{
    for (size_t b = 0; b < sizeof(T); ++b)
        out.push_back(static_cast<uint8_t>(
            static_cast<uint64_t>(v) >> (8 * b)));
}

template <typename T>
bool
get(const uint8_t *&p, const uint8_t *end, T &v)
{
    if (static_cast<size_t>(end - p) < sizeof(T))
        return false;
    uint64_t out = 0;
    for (size_t b = 0; b < sizeof(T); ++b)
        out |= static_cast<uint64_t>(p[b]) << (8 * b);
    v = static_cast<T>(out);
    p += sizeof(T);
    return true;
}

std::vector<uint8_t>
serializeHeader(const EntryHeader &h)
{
    std::vector<uint8_t> out;
    out.reserve(headerBytes);
    put(out, h.magic);
    put(out, h.version);
    put(out, h.paramsHash);
    put(out, h.eventCount);
    put(out, h.accessCount);
    put(out, h.hasStats);
    put(out, h.distinctElements);
    put(out, h.tableBits);
    put(out, h.laneBits);
    put(out, h.historyDepth);
    put(out, h.frameCount);
    put(out, h.payloadBytes);
    put(out, h.indexHash);
    put(out, h.keyBytes);
    return out;
}

bool
parseHeader(const uint8_t *data, size_t size, EntryHeader &h)
{
    const uint8_t *p = data;
    const uint8_t *end = data + size;
    return get(p, end, h.magic) && get(p, end, h.version) &&
           get(p, end, h.paramsHash) && get(p, end, h.eventCount) &&
           get(p, end, h.accessCount) && get(p, end, h.hasStats) &&
           get(p, end, h.distinctElements) &&
           get(p, end, h.tableBits) && get(p, end, h.laneBits) &&
           get(p, end, h.historyDepth) && get(p, end, h.frameCount) &&
           get(p, end, h.payloadBytes) && get(p, end, h.indexHash) &&
           get(p, end, h.keyBytes);
}

void
serializeIndexEntry(std::vector<uint8_t> &out, const FrameInfo &f)
{
    put(out, f.firstEvent);
    put(out, f.firstAccess);
    put(out, f.events);
    put(out, f.accesses);
    put(out, f.eventBytes);
    put(out, f.bitmapBytes);
    put(out, f.residueBytes);
    put(out, f.storedEventBytes);
    put(out, f.storedBitmapBytes);
    put(out, f.storedResidueBytes);
    put(out, f.payloadHash);
    put(out, f.seeds.prevAddr);
    put(out, f.seeds.prevBlock);
    put(out, f.seeds.ctxBlock);
    put(out, f.seeds.ctxLane);
}

bool
parseIndexEntry(const uint8_t *&p, const uint8_t *end, FrameInfo &f)
{
    return get(p, end, f.firstEvent) && get(p, end, f.firstAccess) &&
           get(p, end, f.events) && get(p, end, f.accesses) &&
           get(p, end, f.eventBytes) && get(p, end, f.bitmapBytes) &&
           get(p, end, f.residueBytes) &&
           get(p, end, f.storedEventBytes) &&
           get(p, end, f.storedBitmapBytes) &&
           get(p, end, f.storedResidueBytes) &&
           get(p, end, f.payloadHash) &&
           get(p, end, f.seeds.prevAddr) &&
           get(p, end, f.seeds.prevBlock) &&
           get(p, end, f.seeds.ctxBlock) &&
           get(p, end, f.seeds.ctxLane);
}

/** An open entry whose header, key, and size already verified. */
struct OpenEntry
{
    std::ifstream in;
    EntryHeader header;
    uint64_t fileBytes = 0;
};

/**
 * Open and header-verify one entry: magic, version, params hash, key,
 * geometry sanity, and exact on-disk size. The stream is left
 * positioned at the frame directory.
 */
bool
openEntry(const std::string &path, const std::string &key,
          uint64_t params_hash, OpenEntry &entry)
{
    entry.in.open(path, std::ios::binary);
    if (!entry.in)
        return false;

    std::vector<uint8_t> head(headerBytes);
    entry.in.read(reinterpret_cast<char *>(head.data()),
                  static_cast<std::streamsize>(head.size()));
    if (entry.in.gcount() != static_cast<std::streamsize>(head.size()))
        return false;
    EntryHeader &h = entry.header;
    if (!parseHeader(head.data(), head.size(), h))
        return false;
    if (h.magic != storeMagic || h.version != storeVersion ||
        h.paramsHash != params_hash || h.keyBytes != key.size() ||
        h.keyBytes > 4096)
        return false;
    PredictorConfig cfg{h.tableBits, h.laneBits, h.historyDepth};
    if (!cfg.valid())
        return false;

    std::string storedKey(h.keyBytes, '\0');
    entry.in.read(storedKey.data(),
                  static_cast<std::streamsize>(storedKey.size()));
    if (entry.in.gcount() !=
            static_cast<std::streamsize>(storedKey.size()) ||
        storedKey != key)
        return false;

    // Bound each header count by the file size before summing them:
    // a hostile frameCount or payloadBytes must not wrap the size
    // check into a match (and later into a huge allocation).
    std::error_code ec;
    auto onDisk = std::filesystem::file_size(path, ec);
    if (ec || h.frameCount > onDisk / indexEntryBytes ||
        h.payloadBytes > onDisk ||
        onDisk != headerBytes + h.keyBytes +
                      h.frameCount * indexEntryBytes + h.payloadBytes)
        return false;
    entry.fileBytes = onDisk;
    return true;
}

/**
 * Read and verify the frame directory of an open entry: the directory
 * hash must match the header and the entries must tile the stream —
 * monotone offsets starting at zero, counts and payload sizes summing
 * to the header totals. Every stored section must fit in the payload
 * bytes the earlier frames left over, so no frame can claim (or wrap
 * into) more bytes than the file holds.
 */
bool
readIndex(OpenEntry &entry, std::vector<FrameInfo> &index)
{
    const EntryHeader &h = entry.header;
    std::vector<uint8_t> raw(
        static_cast<size_t>(h.frameCount * indexEntryBytes));
    entry.in.read(reinterpret_cast<char *>(raw.data()),
                  static_cast<std::streamsize>(raw.size()));
    if (entry.in.gcount() != static_cast<std::streamsize>(raw.size()))
        return false;
    if (contentHash64(raw.data(), raw.size()) != h.indexHash)
        return false;

    index.resize(static_cast<size_t>(h.frameCount));
    const uint8_t *p = raw.data();
    const uint8_t *end = raw.data() + raw.size();
    uint64_t events = 0, accesses = 0, payloadLeft = h.payloadBytes;
    auto take = [&payloadLeft](uint64_t bytes) {
        if (bytes > payloadLeft)
            return false;
        payloadLeft -= bytes;
        return true;
    };
    for (FrameInfo &f : index) {
        if (!parseIndexEntry(p, end, f))
            return false;
        if (f.firstEvent != events || f.firstAccess != accesses ||
            f.events == 0)
            return false;
        // Nothing is sized from a logical size until it has been
        // bounded by the stored bytes that must unpack to it.
        if (!f.sectionSizesValid())
            return false;
        if (!take(f.storedEventBytes) || !take(f.storedBitmapBytes) ||
            !take(f.storedResidueBytes))
            return false;
        events += f.events;
        accesses += f.accesses;
    }
    return events == h.eventCount && accesses == h.accessCount &&
           payloadLeft == 0;
}

/** Filesystem-safe rendering of an execution key. */
std::string
sanitizeKey(const std::string &key)
{
    std::string out;
    out.reserve(key.size());
    for (char c : key) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '.' || c == '-' ||
                  c == '_';
        out.push_back(ok ? c : '_');
    }
    return out;
}

/** Read one frame's payload into `payload` and verify its hash. */
bool
readFramePayload(OpenEntry &entry, const FrameInfo &f,
                 std::vector<uint8_t> &payload)
{
    payload.resize(static_cast<size_t>(f.payloadBytes()));
    entry.in.read(reinterpret_cast<char *>(payload.data()),
                  static_cast<std::streamsize>(payload.size()));
    if (entry.in.gcount() !=
        static_cast<std::streamsize>(payload.size()))
        return false;
    return contentHash64(payload.data(), payload.size()) ==
           f.payloadHash;
}

} // namespace

TraceStore::TraceStore(std::string dir) : root(std::move(dir))
{
    LPP_REQUIRE(!root.empty(), "trace store directory must be set");
}

std::string
TraceStore::pathFor(const std::string &key, uint64_t params_hash) const
{
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), "-%016llx.lpt",
                  static_cast<unsigned long long>(params_hash));
    return root + "/" + sanitizeKey(key) + suffix;
}

std::optional<StoredTraceInfo>
TraceStore::lookup(const std::string &key, uint64_t params_hash) const
{
    OpenEntry entry;
    StoredTraceInfo info;
    info.path = pathFor(key, params_hash);
    if (!openEntry(info.path, key, params_hash, entry))
        return std::nullopt;
    info.events = entry.header.eventCount;
    info.accesses = entry.header.accessCount;
    info.stats.valid = entry.header.hasStats != 0;
    info.stats.distinctElements = entry.header.distinctElements;
    info.frames = entry.header.frameCount;
    info.payloadBytes = entry.header.payloadBytes;
    info.fileBytes = entry.fileBytes;
    return info;
}

bool
TraceStore::load(const std::string &key, uint64_t params_hash,
                 StreamingTrace &out) const
{
    OpenEntry entry;
    const std::string path = pathFor(key, params_hash);
    if (!openEntry(path, key, params_hash, entry))
        return false;

    // The entry's frames are adopted as-is; they must have been
    // encoded with the same predictor geometry the recording will
    // decode with. A geometry change simply invalidates the cache.
    PredictorConfig cfg{entry.header.tableBits, entry.header.laneBits,
                        entry.header.historyDepth};
    if (!(cfg == out.predictorConfig()))
        return false;

    std::vector<FrameInfo> index;
    if (!readIndex(entry, index))
        return false;

    // Replay treats a frame that fails to unpack as a broken
    // invariant, so every packed section is walked here, where a bad
    // one is still a clean miss.
    std::vector<StreamingTrace::Frame> frames(index.size());
    for (size_t i = 0; i < index.size(); ++i) {
        frames[i].info = index[i];
        if (!readFramePayload(entry, index[i], frames[i].payload) ||
            !index[i].packedSectionsValid(frames[i].payload.data()))
            return false;
    }
    out.adoptFrames(std::move(frames), entry.header.eventCount,
                    entry.header.accessCount);
    return true;
}

uint64_t
TraceStore::store(const std::string &key, uint64_t params_hash,
                  const StreamingTrace &trace,
                  const StoredTraceStats &stats) const
{
    std::error_code ec;
    std::filesystem::create_directories(root, ec);
    if (ec) {
        warn("trace store: cannot create '%s': %s", root.c_str(),
             ec.message().c_str());
        return 0;
    }

    // Assemble the frame directory: every sealed frame as-is, plus
    // the open frame materialized as the final one.
    std::vector<uint8_t> index;
    uint64_t frameCount = 0;
    uint64_t payloadBytes = 0;
    for (size_t i = 0; i < trace.sealedFrameCount(); ++i) {
        const StreamingTrace::Frame &f = trace.sealedFrame(i);
        serializeIndexEntry(index, f.info);
        ++frameCount;
        payloadBytes += f.payload.size();
    }
    FrameInfo openInfo;
    std::vector<uint8_t> openPayload;
    const bool hasOpen =
        trace.materializeOpenFrame(openInfo, openPayload);
    if (hasOpen) {
        serializeIndexEntry(index, openInfo);
        ++frameCount;
        payloadBytes += openPayload.size();
    }

    EntryHeader header;
    header.paramsHash = params_hash;
    header.eventCount = trace.eventCount();
    header.accessCount = trace.accessCount();
    header.hasStats = stats.valid ? 1 : 0;
    header.distinctElements = stats.valid ? stats.distinctElements : 0;
    const PredictorConfig &cfg = trace.predictorConfig();
    header.tableBits = static_cast<uint8_t>(cfg.tableBits);
    header.laneBits = static_cast<uint8_t>(cfg.laneBits);
    header.historyDepth = static_cast<uint8_t>(cfg.historyDepth);
    header.frameCount = frameCount;
    header.payloadBytes = payloadBytes;
    header.indexHash = contentHash64(index.data(), index.size());
    header.keyBytes = static_cast<uint32_t>(key.size());
    auto head = serializeHeader(header);

    // Unique temporary in the same directory so the final rename is
    // atomic; concurrent publishers of one key are both correct (they
    // write identical bytes) and last-rename-wins.
    static std::atomic<uint64_t> tmpCounter{0};
    const std::string path = pathFor(key, params_hash);
    char tmpSuffix[64];
    std::snprintf(tmpSuffix, sizeof(tmpSuffix), ".tmp.%ld.%llu",
                  static_cast<long>(::getpid()),
                  static_cast<unsigned long long>(
                      tmpCounter.fetch_add(1)));
    const std::string tmp = path + tmpSuffix;

    {
        std::ofstream outFile(tmp, std::ios::binary | std::ios::trunc);
        if (!outFile)
            return 0;
        outFile.write(reinterpret_cast<const char *>(head.data()),
                      static_cast<std::streamsize>(head.size()));
        outFile.write(key.data(),
                      static_cast<std::streamsize>(key.size()));
        outFile.write(reinterpret_cast<const char *>(index.data()),
                      static_cast<std::streamsize>(index.size()));
        for (size_t i = 0; i < trace.sealedFrameCount(); ++i) {
            const auto &payload = trace.sealedFrame(i).payload;
            outFile.write(
                reinterpret_cast<const char *>(payload.data()),
                static_cast<std::streamsize>(payload.size()));
        }
        if (hasOpen)
            outFile.write(
                reinterpret_cast<const char *>(openPayload.data()),
                static_cast<std::streamsize>(openPayload.size()));
        if (!outFile) {
            outFile.close();
            std::filesystem::remove(tmp, ec);
            return 0;
        }
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        warn("trace store: cannot publish '%s': %s", path.c_str(),
             ec.message().c_str());
        std::filesystem::remove(tmp, ec);
        return 0;
    }
    return head.size() + key.size() + index.size() + payloadBytes;
}

} // namespace lpp::trace
