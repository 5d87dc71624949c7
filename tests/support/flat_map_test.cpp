#include "support/flat_map.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "support/random.hpp"

namespace {

using lpp::support::FlatMap;

TEST(FlatMap, EmptyFindsNothing)
{
    FlatMap<uint64_t> map;
    EXPECT_EQ(map.size(), 0u);
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.find(0), nullptr);
    EXPECT_EQ(map.find(42), nullptr);
}

TEST(FlatMap, InsertFindRoundTrip)
{
    FlatMap<uint64_t> map;
    for (uint64_t k = 0; k < 1000; ++k)
        map.insert(k * 7, k);
    EXPECT_EQ(map.size(), 1000u);
    for (uint64_t k = 0; k < 1000; ++k) {
        auto *v = map.find(k * 7);
        ASSERT_NE(v, nullptr) << "key " << k * 7;
        EXPECT_EQ(*v, k);
    }
    EXPECT_EQ(map.find(3), nullptr);
}

TEST(FlatMap, InsertIsFirstWriterWins)
{
    FlatMap<uint64_t> map;
    EXPECT_EQ(*map.insert(5, 10), 10u);
    EXPECT_EQ(*map.insert(5, 99), 10u); // already present: kept
    EXPECT_EQ(map.size(), 1u);
    EXPECT_EQ(*map.find(5), 10u);
}

TEST(FlatMap, GrowthPreservesContents)
{
    FlatMap<uint64_t> map; // starts at minimal capacity, grows many times
    constexpr uint64_t n = 100000;
    for (uint64_t k = 0; k < n; ++k)
        map.insert(k * k + 1, k);
    EXPECT_EQ(map.size(), n);
    for (uint64_t k = 0; k < n; ++k) {
        auto *v = map.find(k * k + 1);
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, k);
    }
}

TEST(FlatMap, CollidingKeysAllSurvive)
{
    // Keys chosen so many share low hash bits after mixing is
    // irrelevant: use a tiny table (reserve forces capacity >= 16) and
    // enough keys that long displaced runs must form.
    FlatMap<uint64_t> map;
    std::vector<uint64_t> keys;
    for (uint64_t k = 0; k < 64; ++k)
        keys.push_back(k << 32); // sparse keys, dense table
    for (uint64_t k : keys)
        map.insert(k, ~k);
    for (uint64_t k : keys) {
        auto *v = map.find(k);
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, ~k);
    }
}

TEST(FlatMap, ClearForgetsEveryKey)
{
    FlatMap<uint64_t> map;
    for (uint64_t k = 0; k < 100; ++k)
        map.insert(k, k);
    map.clear();
    EXPECT_EQ(map.size(), 0u);
    EXPECT_TRUE(map.empty());
    for (uint64_t k = 0; k < 100; ++k)
        EXPECT_EQ(map.find(k), nullptr);
    map.insert(5, 50);
    EXPECT_EQ(*map.find(5), 50u);
    EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap, ForEachVisitsEveryEntryOnce)
{
    FlatMap<uint64_t> map;
    for (uint64_t k = 0; k < 200; ++k)
        map.insert(k + 1000, k);
    std::unordered_map<uint64_t, uint64_t> seen;
    map.forEach([&seen](uint64_t k, uint64_t v) { ++seen[k]; (void)v; });
    EXPECT_EQ(seen.size(), 200u);
    for (const auto &kv : seen)
        EXPECT_EQ(kv.second, 1u) << "key " << kv.first;
}

TEST(FlatMap, RandomizedAgainstUnorderedMap)
{
    FlatMap<uint64_t> map;
    std::unordered_map<uint64_t, uint64_t> ref;
    lpp::Rng rng(321);
    for (int op = 0; op < 200000; ++op) {
        uint64_t key = rng.below(20000);
        if (rng.below(2) == 0) {
            // Insert keeps the first value; writes go through the
            // returned pointer.
            uint64_t val = rng.below(1u << 30);
            uint64_t *v = map.insert(key, val);
            ref.emplace(key, val);
            ASSERT_EQ(*v, ref[key]);
            if (rng.below(4) == 0)
                *v = ref[key] = val + 1;
        } else {
            auto *v = map.find(key);
            auto it = ref.find(key);
            if (it == ref.end()) {
                EXPECT_EQ(v, nullptr);
            } else {
                ASSERT_NE(v, nullptr);
                EXPECT_EQ(*v, it->second);
            }
        }
        ASSERT_EQ(map.size(), ref.size());
    }
    // Final full cross-check.
    size_t visited = 0;
    map.forEach([&ref, &visited](uint64_t k, uint64_t v) {
        auto it = ref.find(k);
        ASSERT_NE(it, ref.end());
        EXPECT_EQ(v, it->second);
        ++visited;
    });
    EXPECT_EQ(visited, ref.size());
}

} // namespace
