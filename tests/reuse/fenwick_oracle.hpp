/**
 * @file
 * Reference reuse-distance stack for differential tests: the
 * order-statistic Fenwick tree formulation.
 *
 * Every access updates a Fenwick tree over time slots and answers the
 * distance from a prefix sum, compacting by sorting the live marks.
 * It shares no code with reuse::ReuseStack beyond the flat map, so a
 * distance the two agree on is checked by two independent algorithms.
 */

#ifndef LPP_TESTS_REUSE_FENWICK_ORACLE_HPP
#define LPP_TESTS_REUSE_FENWICK_ORACLE_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "support/flat_map.hpp"

namespace lpp::reuse::oracle {

/**
 * Fenwick (binary indexed) tree over {0,1} slot occupancy supporting
 * point update and prefix-sum query in O(log n).
 */
class FenwickTree
{
  public:
    /** @param n number of slots. */
    explicit FenwickTree(size_t n) : tree(n + 1, 0) {}

    /** Add `delta` (+1/-1) at slot `i`. */
    void
    add(size_t i, int delta)
    {
        for (size_t k = i + 1; k < tree.size(); k += k & (~k + 1))
            tree[k] += static_cast<uint64_t>(static_cast<int64_t>(delta));
    }

    /** @return sum of slots [0, i]. */
    uint64_t
    prefix(size_t i) const
    {
        uint64_t s = 0;
        for (size_t k = i + 1; k > 0; k -= k & (~k + 1))
            s += tree[k];
        return s;
    }

    /** @return number of slots. */
    size_t size() const { return tree.size() - 1; }

  private:
    std::vector<uint64_t> tree;
};

/** Exact reuse distance of every access, one Fenwick query each. */
class FenwickReuseStack
{
  public:
    static constexpr uint64_t infinite = ~0ULL;

    /** @param capacity_hint initial number of time slots. */
    explicit FenwickReuseStack(size_t capacity_hint = 1u << 16)
        : tree(std::max<size_t>(capacity_hint, 64))
    {
    }

    /** @return the access's reuse distance, or `infinite` when cold. */
    uint64_t
    access(uint64_t element)
    {
        if (now >= tree.size())
            compact();
        uint64_t dist = infinite;
        uint64_t *slot = lastTime.find(element);
        if (slot) {
            // Distinct elements touched strictly after prev: marks in
            // (prev, now). The mark at prev is this element's own.
            dist = liveMarks - tree.prefix(*slot);
            tree.add(*slot, -1);
            --liveMarks;
            *slot = now;
        } else {
            lastTime.insert(element, now);
        }
        tree.add(now, +1);
        ++liveMarks;
        ++now;
        return dist;
    }

  private:
    void
    compact()
    {
        // Reassign times 0..D-1 in increasing last-access order.
        std::vector<std::pair<uint64_t, uint64_t>> order; // (time, element)
        lastTime.forEach([&order](uint64_t element, uint64_t time) {
            order.emplace_back(time, element);
        });
        std::sort(order.begin(), order.end());
        size_t want = std::max<size_t>(64, 2 * order.size() + 64);
        tree = FenwickTree(std::max(want, tree.size()));
        liveMarks = 0;
        now = 0;
        for (auto &te : order) {
            *lastTime.find(te.second) = now;
            tree.add(now, +1);
            ++liveMarks;
            ++now;
        }
    }

    FenwickTree tree;
    support::FlatMap<uint64_t> lastTime;
    uint64_t now = 0;
    uint64_t liveMarks = 0;
};

} // namespace lpp::reuse::oracle

#endif // LPP_TESTS_REUSE_FENWICK_ORACLE_HPP
