/**
 * @file
 * Windows of one-cycle buckets: the occupancy bitmap of the event
 * queue's window, and the bit calendar in which the kernel files its
 * components' timed wakes.
 */
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace smarco {

/**
 * One bit per bucket of a window of Window one-cycle buckets. Cycle c
 * lies in bucket c % Window, so a bucket names one cycle while every
 * filed cycle lies within Window cycles of the others.
 */
template <Cycle Window>
class BucketOccupancy
{
    static_assert(Window >= 64 && std::has_single_bit(Window));
    static constexpr std::size_t kWords = Window / 64;

  public:
    static constexpr std::size_t bucketOf(Cycle c)
    { return static_cast<std::size_t>(c % Window); }

    bool test(std::size_t b) const { return words_[b / 64] >> (b % 64) & 1; }
    void set(std::size_t b) { words_[b / 64] |= std::uint64_t{1} << (b % 64); }
    void reset(std::size_t b)
    { words_[b / 64] &= ~(std::uint64_t{1} << (b % 64)); }

    /** Buckets from start to the first occupied one, wrapping once
     *  round the window; Window when none is occupied. */
    Cycle distanceFrom(std::size_t start) const
    {
        std::size_t w = start / 64;
        std::uint64_t bits = words_[w] & (~std::uint64_t{0} << (start % 64));
        // The start word is visited again at the end for its low bits.
        for (std::size_t k = 0; bits == 0 && k < kWords; ++k) {
            w = (w + 1) % kWords;
            bits = words_[w];
        }
        if (bits == 0)
            return Window;
        return (w * 64 + static_cast<std::size_t>(std::countr_zero(bits)) -
                start) % Window;
    }

  private:
    std::array<std::uint64_t, kWords> words_{};
};

/**
 * Indices (the kernel's components), 64 a word, filed under the cycle
 * they are due at. The calendar covers only its window: a caller
 * keeps farther cycles in a tier of its own, and files a cycle only
 * after the last drainThrough() cycle and within Window cycles of
 * every filed one.
 */
template <Cycle Window>
class BitCalendar
{
    using Occupancy = BucketOccupancy<Window>;

  public:
    /** Add a word of 64 indices; filings stay. */
    void grow() { bits_.resize(bits_.size() + Window, 0); }

    void file(std::uint32_t i, Cycle c)
    {
        const std::size_t b = Occupancy::bucketOf(c);
        bits_[i / 64 * Window + b] |= std::uint64_t{1} << (i % 64);
        occupied_.set(b);
        first_ = std::min(first_, c);
    }

    /** OR the indices filed at cycles up to now into bits (a word per
     *  grow()) and remove those filings. */
    void drainThrough(Cycle now, std::uint64_t *bits)
    {
        if (first_ > now)
            return;
        // Every filing lies in first_ .. first_ + Window - 1, so the
        // n buckets from first_'s on are due.
        const std::size_t from = Occupancy::bucketOf(first_);
        const Cycle n = std::min(now - first_ + 1, Window);
        const std::size_t words = bits_.size() / Window;
        Cycle d = occupied_.distanceFrom(from);
        for (; d < n; d = occupied_.distanceFrom(from)) {
            const std::size_t b = Occupancy::bucketOf(first_ + d);
            occupied_.reset(b);
            for (std::size_t w = 0; w < words; ++w) {
                bits[w] |= bits_[w * Window + b];
                bits_[w * Window + b] = 0;
            }
        }
        first_ = d == Window ? kNoCycle : first_ + d;
    }

    /** Earliest filed cycle; kNoCycle when nothing is filed. */
    Cycle first() const { return first_; }

  private:
    /** Word w's bucket b at w * Window + b, so grow() appends. */
    std::vector<std::uint64_t> bits_;
    Occupancy occupied_;
    Cycle first_ = kNoCycle;
};

} // namespace smarco
