#include "reuse/stack.hpp"

#include <algorithm>

namespace lpp::reuse {

MarkAxis::MarkAxis(size_t slots)
    : words((slots + 63) / 64), blocks((words.size() + 7) / 8),
      supers((words.size() + kSuper / 64 - 1) / (kSuper / 64))
{
}

uint64_t
MarkAxis::count(size_t lo, size_t hi) const
{
    if (lo >= hi)
        return 0;
    LPP_DCHECK(hi <= size(), "count range end %zu past %zu slots", hi,
               size());
    size_t wlo = lo / 64;
    size_t whi = hi / 64;
    uint64_t head = words[wlo] & (~uint64_t{0} << (lo % 64));
    uint64_t tail_mask = (uint64_t{1} << (hi % 64)) - 1;
    if (wlo == whi)
        return setBits(head & tail_mask);
    uint64_t n = setBits(head) + countWords(wlo + 1, whi);
    if (hi % 64)
        n += setBits(words[whi] & tail_mask);
    return n;
}

uint64_t
MarkAxis::countWords(size_t lo, size_t hi) const
{
    // Whole words [lo, hi): pop-count the ragged ends, and take the
    // blocks they enclose from the block counts.
    constexpr size_t per = kBlock / 64;
    size_t blo = (lo + per - 1) / per;
    size_t bhi = hi / per;
    uint64_t n = 0;
    if (blo >= bhi) {
        for (size_t w = lo; w < hi; ++w)
            n += setBits(words[w]);
        return n;
    }
    for (size_t w = lo; w < blo * per; ++w)
        n += setBits(words[w]);
    for (size_t w = bhi * per; w < hi; ++w)
        n += setBits(words[w]);
    return n + countBlocks(blo, bhi);
}

uint64_t
MarkAxis::countBlocks(size_t lo, size_t hi) const
{
    // Whole blocks [lo, hi), the same way one level up.
    constexpr size_t per = kSuper / kBlock;
    size_t slo = (lo + per - 1) / per;
    size_t shi = hi / per;
    uint64_t n = 0;
    if (slo >= shi) {
        for (size_t b = lo; b < hi; ++b)
            n += blocks[b];
        return n;
    }
    for (size_t b = lo; b < slo * per; ++b)
        n += blocks[b];
    for (size_t s = slo; s < shi; ++s)
        n += supers[s];
    for (size_t b = shi * per; b < hi; ++b)
        n += blocks[b];
    return n;
}

std::vector<uint64_t>
MarkAxis::wordRanks() const
{
    std::vector<uint64_t> ranks(words.size() + 1);
    for (size_t w = 0; w < words.size(); ++w)
        ranks[w + 1] = ranks[w] + setBits(words[w]);
    return ranks;
}

void
MarkAxis::fillPrefix(size_t n)
{
    LPP_DCHECK(n <= size(), "prefix of %zu slots past %zu", n, size());
    std::fill(words.begin(), words.end(), 0);
    std::fill(words.begin(), words.begin() + n / 64, ~uint64_t{0});
    if (n % 64)
        words[n / 64] = (uint64_t{1} << (n % 64)) - 1;
    for (size_t b = 0; b < blocks.size(); ++b)
        blocks[b] = static_cast<uint16_t>(
            std::clamp<size_t>(n, b * kBlock, (b + 1) * kBlock) -
            b * kBlock);
    for (size_t s = 0; s < supers.size(); ++s)
        supers[s] = static_cast<uint32_t>(
            std::clamp<size_t>(n, s * kSuper, (s + 1) * kSuper) -
            s * kSuper);
}

ReuseStack::ReuseStack(size_t capacity_hint)
    : axis(std::max<size_t>(capacity_hint, 64))
{
}

void
ReuseStack::reserveElements(size_t elements)
{
    lastTime.reserve(elements);
    size_t want = 2 * elements + 64;
    if (now == 0 && lastTime.empty() && want > axis.size())
        axis = MarkAxis(want);
}

void
ReuseStack::compact()
{
    // A live mark's new slot is its rank among the live marks, so the
    // order survives without a sort. The new axis holds >= 2D slots,
    // so the next compaction is at least D accesses away.
    std::vector<uint64_t> ranks = axis.wordRanks();
    lastTime.forEach([&](uint64_t, uint64_t &entry) {
        entry = axis.rank(ranks, entry);
    });
    size_t live = lastTime.size();
    size_t want = 2 * live + 64;
    if (want > axis.size())
        axis = MarkAxis(want);
    axis.fillPrefix(live);
    now = live;
}

void
ReuseStack::reset()
{
    axis.fillPrefix(0);
    lastTime.clear();
    now = 0;
    accesses = 0;
}

} // namespace lpp::reuse
