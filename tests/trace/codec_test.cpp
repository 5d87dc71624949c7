/**
 * @file
 * Content-hash tests: contentHash64, which guards every stored frame
 * payload and directory, must change under any bit flip or truncation.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "trace/codec.hpp"

namespace {

TEST(TraceCodec, ContentHashDetectsBitFlips)
{
    std::vector<uint8_t> payload(203);
    for (size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<uint8_t>(i * 37 + 11);
    auto h = lpp::trace::contentHash64(payload.data(), payload.size());
    for (size_t i = 0; i < payload.size(); i += 7) {
        payload[i] ^= 0x10;
        EXPECT_NE(h, lpp::trace::contentHash64(payload.data(),
                                               payload.size()));
        payload[i] ^= 0x10;
    }
    EXPECT_EQ(h, lpp::trace::contentHash64(payload.data(),
                                           payload.size()));
    // Truncation changes the hash too (size is part of the seed).
    EXPECT_NE(h, lpp::trace::contentHash64(payload.data(),
                                           payload.size() - 1));
}

} // namespace
