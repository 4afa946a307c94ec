// Growable FIFO ring with random access.
//
// The sender's per-packet records (SACK scoreboard, ack tracker) are
// appended in sequence order and retired from the front. std::deque
// allocates and frees a chunk every few hundred bytes of such traffic;
// this ring allocates only when it outgrows its power-of-two capacity,
// so a flow in steady state appends and retires without heap work.
#pragma once

#include <cstddef>
#include <type_traits>
#include <vector>

namespace vtp::util {

template <typename T>
class ring {
    // Retired slots are overwritten, never destroyed: plain records only.
    static_assert(std::is_trivially_copyable_v<T>);

public:
    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

    /// i-th element from the front.
    T& operator[](std::size_t i) { return slots_[(head_ + i) & (slots_.size() - 1)]; }
    const T& operator[](std::size_t i) const {
        return slots_[(head_ + i) & (slots_.size() - 1)];
    }
    T& front() { return (*this)[0]; }

    void push_back(const T& v) {
        if (count_ == slots_.size()) grow();
        (*this)[count_++] = v;
    }

    void pop_front() {
        head_ = (head_ + 1) & (slots_.size() - 1);
        --count_;
    }

    /// Drop every element; the capacity stays.
    void clear() {
        head_ = 0;
        count_ = 0;
    }

private:
    void grow() {
        std::vector<T> bigger(slots_.empty() ? 16 : 2 * slots_.size());
        for (std::size_t i = 0; i < count_; ++i) bigger[i] = (*this)[i];
        slots_.swap(bigger);
        head_ = 0;
    }

    std::vector<T> slots_; ///< capacity: zero or a power of two
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

} // namespace vtp::util
