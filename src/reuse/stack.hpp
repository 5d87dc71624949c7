/**
 * @file
 * Exact LRU stack (reuse) distance, with marks kept apart from queries.
 *
 * The reuse distance of an access is the number of distinct data elements
 * touched since the previous access to the same element (Mattson et al.,
 * 1970). The classic near-linear algorithm keeps, for every element, the
 * time of its most recent access (its "mark"), and counts how many marks
 * fall after a given time. Here the marks live on a time axis that is an
 * occupancy bitmap with a small counted hierarchy (MarkAxis), and the
 * work is split in two:
 *
 *  - touch() moves an element's mark to the present. It runs on every
 *    access and costs one table probe plus O(1) bit and count updates.
 *  - distanceSince() counts the marks after the previous one. It runs
 *    only when a caller needs the exact distance; the variable-distance
 *    sampler asks for a few percent of accesses, the full-histogram
 *    analyzers for all of them.
 *
 * The axis is compacted when the clock reaches its end, so memory stays
 * proportional to the number of distinct elements rather than the trace
 * length.
 *
 * The last-access table is the per-access hot probe. It is paged by
 * element id (support/element_table.hpp), so an array sweep walks its
 * last-access times in order instead of probing a hash table at random,
 * and it can be reserved ahead from a workload's address-space size.
 */

#ifndef LPP_REUSE_STACK_HPP
#define LPP_REUSE_STACK_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/element_table.hpp"
#include "support/logging.hpp"

namespace lpp::reuse {

/**
 * Bits set in `x`. Plain SWAR arithmetic: std::popcount compiles to a
 * libgcc call on x86-64 targets without POPCNT (the default), which
 * costs the range counts below more than the counting itself.
 */
inline uint64_t
setBits(uint64_t x)
{
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
    return (x * 0x0101010101010101ULL) >> 56;
}

/**
 * Occupancy bitmap over time slots with per-512-slot block counts and
 * per-32768-slot superblock counts.
 *
 * set/clear update one word and two counters. count() over a range
 * reads at most 8 words and 64 block counts at each end, plus one
 * superblock count per 32768 slots in between. Block counts are 16-bit
 * (at most 512), superblock counts 32-bit (at most 32768).
 */
class MarkAxis
{
  public:
    /** @param slots number of slots; rounded up to a multiple of 64. */
    explicit MarkAxis(size_t slots = 0);

    /** @return number of slots. */
    size_t size() const { return words.size() * 64; }

    /** Mark slot `i`, which must be empty. */
    void
    set(size_t i)
    {
        LPP_DCHECK(i < size() && !(words[i / 64] >> (i % 64) & 1),
                   "slot %zu outside %zu slots or already set", i, size());
        words[i / 64] |= uint64_t{1} << (i % 64);
        ++blocks[i / kBlock];
        ++supers[i / kSuper];
    }

    /** Unmark slot `i`, which must be set. */
    void
    clear(size_t i)
    {
        LPP_DCHECK(i < size() && (words[i / 64] >> (i % 64) & 1),
                   "slot %zu outside %zu slots or not set", i, size());
        words[i / 64] &= ~(uint64_t{1} << (i % 64));
        --blocks[i / kBlock];
        --supers[i / kSuper];
    }

    /** @return marks in slots [lo, hi). */
    uint64_t count(size_t lo, size_t hi) const;

    /**
     * @return for each word w, the marks in slots [0, 64*w); the extra
     *         last entry is the total. With it, rank() maps a marked
     *         slot to its index among all marks in O(1).
     */
    std::vector<uint64_t> wordRanks() const;

    /** @return marks before slot `i`, given wordRanks(). */
    uint64_t
    rank(const std::vector<uint64_t> &word_ranks, size_t i) const
    {
        uint64_t below = words[i / 64] & ((uint64_t{1} << (i % 64)) - 1);
        return word_ranks[i / 64] + setBits(below);
    }

    /** Mark slots [0, n) and nothing else. */
    void fillPrefix(size_t n);

  private:
    static constexpr size_t kBlock = 512;
    static constexpr size_t kSuper = 32768;

    uint64_t countWords(size_t lo, size_t hi) const;
    uint64_t countBlocks(size_t lo, size_t hi) const;

    std::vector<uint64_t> words;
    std::vector<uint16_t> blocks;
    std::vector<uint32_t> supers;
};

/**
 * Exact reuse-distance tracker.
 *
 * access(e) returns the LRU stack distance of the access, or
 * ReuseStack::infinite for the first access to e; it is touch()
 * followed by distanceSince(). The tracker compacts its time axis
 * whenever the clock reaches the axis end; compaction is amortized
 * O(1) per access because the axis is kept at least twice the number
 * of live marks.
 */
class ReuseStack
{
  public:
    /** Distance reported for cold (first) accesses. */
    static constexpr uint64_t infinite = ~0ULL;

    /** What touch() learned about the element's previous access. */
    struct Touch
    {
        /** Axis slot of the previous mark; infinite when cold. */
        uint64_t prev;
        /**
         * Slots strictly between the previous mark and the new one: an
         * upper bound on the reuse distance, since a slot holds at most
         * one mark. infinite when cold.
         */
        uint64_t gap;
    };

    /** @param capacity_hint initial number of time slots. */
    explicit ReuseStack(size_t capacity_hint = 1u << 16);

    /**
     * Pre-size for a trace touching about `elements` distinct elements
     * (typically a workload's address-space size). Reserves the
     * last-access table and, while no history exists yet, widens the
     * time axis so the first compactions are pushed past the warm-up.
     */
    void reserveElements(size_t elements);

    /**
     * Record an access to `element`: move its mark to the present.
     * Computes no distance; ask distanceSince(result.prev) for that.
     */
    Touch
    touch(uint64_t element)
    {
        if (now >= axis.size())
            compact();
        ++accesses;
        auto [entry, fresh] = lastTime.insert(element, now);
        if (fresh) {
            axis.set(now++);
            return Touch{infinite, infinite};
        }
        uint64_t prev = *entry;
        LPP_DCHECK(prev < now, "last-access time %llu not before now %llu",
                   static_cast<unsigned long long>(prev),
                   static_cast<unsigned long long>(now));
        axis.clear(prev);
        axis.set(now);
        *entry = now;
        ++now;
        return Touch{prev, now - prev - 2};
    }

    /**
     * @return distinct elements whose marks lie strictly between slot
     *         `prev` and the newest mark — the reuse distance of the
     *         latest touch() when `prev` is what it returned. Call it
     *         before the next touch().
     */
    uint64_t
    distanceSince(uint64_t prev) const
    {
        LPP_DCHECK(prev + 1 < now, "query slot %llu not before the newest",
                   static_cast<unsigned long long>(prev));
        // Every mark but the newest lies in [0, prev) or (prev, now-1),
        // so count whichever side is shorter.
        uint64_t lo = prev + 1;
        uint64_t hi = now - 1;
        if (prev < hi - lo)
            return lastTime.size() - 1 - axis.count(0, prev);
        return axis.count(lo, hi);
    }

    /**
     * Record an access to `element`.
     * @return its reuse distance, or `infinite` if never seen before.
     */
    uint64_t
    access(uint64_t element)
    {
        Touch t = touch(element);
        return t.prev == infinite ? infinite : distanceSince(t.prev);
    }

    /** @return number of distinct elements seen. */
    uint64_t distinctCount() const { return lastTime.size(); }

    /**
     * Visit (element, last-access time) for every element seen, in
     * unspecified order. Times are on the stack's internal (compacted)
     * axis, so only their order is meaningful across a compaction.
     */
    template <typename Fn>
    void
    forEachLastAccess(Fn &&fn) const
    {
        lastTime.forEach(fn);
    }

    /** @return total accesses processed. */
    uint64_t accessCount() const { return accesses; }

    /** Forget all history. */
    void reset();

  private:
    void compact();

    MarkAxis axis;
    support::ElementTable<uint64_t> lastTime;
    uint64_t now = 0;
    uint64_t accesses = 0;
};

} // namespace lpp::reuse

#endif // LPP_REUSE_STACK_HPP
