// Fixed-size datagram buffer pool: one contiguous slab carved into
// equal buffers with a freelist, so the per-packet transmit path of a
// shard (encode → sendmmsg → release) performs zero heap allocation
// after construction. Single-threaded — each shard owns its own pool.
//
// The slab is left uninitialised: every buffer is written by the
// encoder before send reads it, and buffers are reused LIFO, so only the
// few that one transmit batch holds at a time ever become resident.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace vtp::engine {

class buffer_pool {
public:
    buffer_pool(std::size_t count, std::size_t buf_size)
        : buf_size_(buf_size),
          count_(count),
          slab_(std::make_unique_for_overwrite<std::uint8_t[]>(count * buf_size)) {
        free_.reserve(count);
        for (std::size_t i = count; i > 0; --i)
            free_.push_back(slab_.get() + (i - 1) * buf_size);
    }

    buffer_pool(const buffer_pool&) = delete;
    buffer_pool& operator=(const buffer_pool&) = delete;

    /// nullptr when exhausted (caller flushes in-flight buffers and
    /// retries, or drops).
    std::uint8_t* acquire() {
        if (free_.empty()) return nullptr;
        std::uint8_t* buf = free_.back();
        free_.pop_back();
        return buf;
    }

    void release(std::uint8_t* buf) { free_.push_back(buf); }

    std::size_t buf_size() const { return buf_size_; }
    std::size_t available() const { return free_.size(); }
    std::size_t capacity() const { return count_; }

private:
    std::size_t buf_size_;
    std::size_t count_;
    std::unique_ptr<std::uint8_t[]> slab_;
    std::vector<std::uint8_t*> free_;
};

} // namespace vtp::engine
