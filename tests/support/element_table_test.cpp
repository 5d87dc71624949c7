#include "support/element_table.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "support/random.hpp"

namespace {

using lpp::support::ElementTable;
using Table = ElementTable<uint64_t>;

constexpr uint64_t kPage = Table::kPageSize;
constexpr uint64_t kTopKey = (uint64_t{1} << 61) - 1; // largest element id

/**
 * Insert every key of `keys` into a table and a std::unordered_map,
 * writing through some returned slots, and check that both agree on
 * every slot, the size, and what forEach visits.
 */
void
checkAgainstUnorderedMap(const std::vector<uint64_t> &keys, uint64_t seed)
{
    Table table;
    std::unordered_map<uint64_t, uint64_t> ref;
    lpp::Rng rng(seed);
    for (uint64_t key : keys) {
        uint64_t value = rng.below(1u << 30);
        auto [slot, fresh] = table.insert(key, value);
        auto [it, refFresh] = ref.emplace(key, value);
        ASSERT_EQ(fresh, refFresh) << "key " << key;
        ASSERT_EQ(*slot, it->second) << "key " << key;
        if (rng.below(4) == 0)
            *slot = it->second = value + 1;
        ASSERT_EQ(table.size(), ref.size());
    }
    std::unordered_map<uint64_t, int> visits;
    table.forEach([&](uint64_t key, uint64_t value) {
        ++visits[key];
        auto it = ref.find(key);
        ASSERT_NE(it, ref.end()) << "key " << key;
        EXPECT_EQ(value, it->second) << "key " << key;
    });
    EXPECT_EQ(visits.size(), ref.size());
    for (const auto &kv : visits)
        EXPECT_EQ(kv.second, 1) << "key " << kv.first;
}

TEST(ElementTable, EmptyTableVisitsNothing)
{
    Table table;
    EXPECT_EQ(table.size(), 0u);
    EXPECT_TRUE(table.empty());
    table.forEach([](uint64_t, uint64_t) { FAIL(); });
}

TEST(ElementTable, DenseKeysMatchUnorderedMap)
{
    // Sweeps with repeats over a few dense ranges, the shape of the
    // programs' array accesses.
    lpp::Rng rng(5);
    std::vector<uint64_t> keys;
    for (int range = 0; range < 4; ++range) {
        uint64_t base = 0x2000 + rng.below(1u << 20);
        uint64_t length = 1 + rng.below(3 * kPage);
        for (int pass = 0; pass < 2; ++pass)
            for (uint64_t i = 0; i < length; ++i)
                keys.push_back(base + (rng.below(5) == 0
                                           ? rng.below(length)
                                           : i));
    }
    checkAgainstUnorderedMap(keys, 6);
}

TEST(ElementTable, SparseKeysMatchUnorderedMap)
{
    // One key per page at a random offset, each touched twice, so
    // every page is created mid-run and revisited after many others.
    lpp::Rng rng(7);
    std::vector<uint64_t> keys;
    for (uint64_t p = 0; p < 300; ++p)
        keys.push_back(p * 7919 * kPage + rng.below(kPage));
    std::vector<uint64_t> again(keys.rbegin(), keys.rend());
    keys.insert(keys.end(), again.begin(), again.end());
    checkAgainstUnorderedMap(keys, 8);
}

TEST(ElementTable, ExtremeKeysMatchUnorderedMap)
{
    checkAgainstUnorderedMap({0, kTopKey, kPage - 1, kPage, kTopKey - 1,
                              kTopKey & ~(kPage - 1), 0, kTopKey},
                             9);
}

TEST(ElementTable, ClearForgetsEveryKey)
{
    Table table;
    for (uint64_t k = 0; k < 3 * kPage; k += 5)
        table.insert(k, k);
    table.insert(kTopKey, 1);
    table.clear();
    EXPECT_EQ(table.size(), 0u);
    EXPECT_TRUE(table.empty());
    table.forEach([](uint64_t, uint64_t) { FAIL(); });
    // Keys come back fresh, with their new values.
    auto [slot, fresh] = table.insert(5, 50);
    EXPECT_TRUE(fresh);
    EXPECT_EQ(*slot, 50u);
    EXPECT_TRUE(table.insert(kTopKey, 2).second);
    EXPECT_EQ(table.size(), 2u);
}

TEST(ElementTable, ReserveKeepsContents)
{
    Table table;
    table.insert(3, 30);
    table.reserve(10 * kPage);
    for (uint64_t k = 0; k < 10 * kPage; ++k)
        table.insert(k, k + 1);
    EXPECT_EQ(table.size(), 10 * kPage);
    EXPECT_EQ(*table.insert(3, 0).first, 30u);
    EXPECT_EQ(*table.insert(kPage, 0).first, kPage + 1);
}

TEST(ElementTable, ByteValuesServeAsASet)
{
    ElementTable<uint8_t> set;
    EXPECT_TRUE(set.insert(42, 0).second);
    EXPECT_FALSE(set.insert(42, 0).second);
    EXPECT_TRUE(set.insert(43, 0).second);
    EXPECT_EQ(set.size(), 2u);
}

} // namespace
