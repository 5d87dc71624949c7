/**
 * @file
 * Per-element value table for dense element ids, stored in pages.
 *
 * The reuse path keeps one value per data element (the last-access
 * time, or mere presence) and looks it up on every access. Element ids
 * are word addresses of the programs' arrays, so they come in long
 * dense ranges, and a sweep visits them in order. A hash table scatters
 * such neighbours over the whole table, so each access of a sweep
 * misses the cache. This table keeps the values of kPageSize
 * consecutive ids together in one page: neighbours share a cache line,
 * and only the page number goes through a hash directory.
 */

#ifndef LPP_SUPPORT_ELEMENT_TABLE_HPP
#define LPP_SUPPORT_ELEMENT_TABLE_HPP

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "support/flat_map.hpp"
#include "support/logging.hpp"

namespace lpp::support {

/**
 * Map from uint64_t element ids to `Value`, paged by id.
 *
 * Pages hold kPageSize consecutive ids and sit contiguously in one
 * vector, in the order they were first touched; a FlatMap directory
 * maps a page number to its page. A slot holding kAbsent marks an id
 * that was never inserted, so kAbsent itself cannot be stored. The
 * memory cost is one page per touched page number: dense ranges pay
 * about sizeof(Value) per element, while ids that each sit alone on
 * their page pay a whole page each.
 */
template <typename Value>
class ElementTable
{
  public:
    /** The reserved value of a slot no insert has filled. */
    static constexpr Value kAbsent = std::numeric_limits<Value>::max();
    static constexpr unsigned kPageBits = 9;
    /** Consecutive ids per page. */
    static constexpr size_t kPageSize = size_t{1} << kPageBits;

    /** @return number of stored ids. */
    size_t size() const { return count; }

    /** @return whether no id is stored. */
    bool empty() const { return count == 0; }

    /**
     * Pre-size for `elements` ids in one dense range, so that many
     * insert without reallocating the page store.
     */
    void
    reserve(size_t elements)
    {
        // Rounding up, plus one page when the range is not aligned.
        size_t pages = elements / kPageSize + 2;
        directory.reserve(pages);
        pageNumbers.reserve(pages);
        values.reserve(pages * kPageSize);
    }

    /** Remove every id; the storage is kept for reuse. */
    void
    clear()
    {
        directory.clear();
        pageNumbers.clear();
        values.clear();
        count = 0;
    }

    /**
     * Insert `(key, value)` if `key` is absent.
     * @return the slot of `key` and whether this call filled it. The
     *         pointer is valid until the next insert; a caller may
     *         write through it any value other than kAbsent.
     */
    std::pair<Value *, bool>
    insert(uint64_t key, Value value)
    {
        LPP_DCHECK(value != kAbsent, "the absent marker cannot be stored");
        Value *slot = page(key >> kPageBits) + (key & (kPageSize - 1));
        if (*slot != kAbsent)
            return {slot, false};
        *slot = value;
        ++count;
        return {slot, true};
    }

    /** Apply `f(key, value)` to every id, in unspecified order. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        visit(*this, f);
    }

    /** Apply `f(key, value&)` to every id; `f` may change values but
     *  must not store kAbsent. */
    template <typename F>
    void
    forEach(F &&f)
    {
        visit(*this, f);
    }

  private:
    /** @return the first slot of page `number`, creating the page. */
    Value *
    page(uint64_t number)
    {
        if (const uint32_t *index = directory.find(number))
            return values.data() + (size_t{*index} << kPageBits);
        LPP_REQUIRE(pageNumbers.size() <
                        std::numeric_limits<uint32_t>::max(),
                    "element table page count overflows its index");
        directory.insert(number, static_cast<uint32_t>(pageNumbers.size()));
        pageNumbers.push_back(number);
        values.resize(values.size() + kPageSize, kAbsent);
        return values.data() + values.size() - kPageSize;
    }

    template <typename Self, typename F>
    static void
    visit(Self &self, F &f)
    {
        for (size_t p = 0; p < self.pageNumbers.size(); ++p) {
            uint64_t first = self.pageNumbers[p] << kPageBits;
            auto *slots = self.values.data() + (p << kPageBits);
            for (size_t i = 0; i < kPageSize; ++i)
                if (slots[i] != kAbsent)
                    f(first + i, slots[i]);
        }
    }

    FlatMap<uint32_t> directory;       //!< page number -> page index
    std::vector<uint64_t> pageNumbers; //!< page index -> page number
    std::vector<Value> values;         //!< pages, in first-touch order
    size_t count = 0;
};

} // namespace lpp::support

#endif // LPP_SUPPORT_ELEMENT_TABLE_HPP
