// Hierarchical timer wheel: O(1) amortized schedule/cancel for the
// server engine's per-shard timer load (pacing, feedback, handshake and
// reap timers of thousands of connections on one thread).
//
// Four levels of 64 slots at a ~262 µs tick give exact O(1) placement
// for deadlines up to ~73 minutes; anything further parks in the top
// level and re-cascades. Deadlines are rounded *up* to the next tick so
// a timer never fires early (the qtp::environment contract); lateness is
// bounded by one tick plus the caller's advance() cadence.
//
// Single-threaded by design, like the agents it serves. Callbacks may
// freely schedule and cancel (including cancelling timers that are due
// in the same advance() call and have not fired yet).
//
// Entries live in a slab that only grows to the peak number of armed
// timers, and a timer id names its entry: the slab index in the low
// bits, the entry's arming generation above them. cancel() finds the
// entry without a lookup table, and an id whose timer fired or was
// cancelled no longer matches its entry's generation.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "trace/metrics.hpp"
#include "util/time.hpp"

namespace vtp::engine {

class timer_wheel {
public:
    using timer_id = std::uint64_t;

    static constexpr int tick_shift = 18; ///< 2^18 ns ≈ 262 µs per tick
    static constexpr util::sim_time tick_ns = util::sim_time{1} << tick_shift;
    static constexpr int level_bits = 6;
    static constexpr std::size_t slots_per_level = std::size_t{1} << level_bits;
    static constexpr int levels = 4;

    /// `now` anchors the wheel's current tick (same clock as advance()).
    explicit timer_wheel(util::sim_time now = 0);

    timer_wheel(const timer_wheel&) = delete;
    timer_wheel& operator=(const timer_wheel&) = delete;

    /// Slab index bits of a timer id; the generation takes the other 40,
    /// and an id is never 0 (qtp::no_timer).
    static constexpr int index_bits = 24;
    /// Cap on simultaneously armed timers (schedule_at throws
    /// std::length_error beyond it).
    static constexpr std::size_t max_timers = std::size_t{1} << index_bits;

    /// Arm a timer for absolute time `deadline`; never fires early.
    timer_id schedule_at(util::sim_time deadline, std::function<void()> fn);

    /// Disarm; returns false for unknown/already-fired ids (no-op).
    bool cancel(timer_id id);

    /// Fire everything due at or before `now`. `now` must not go
    /// backwards across calls.
    void advance(util::sim_time now);

    /// Earliest time advance() could fire something, or a safe
    /// intermediate wake-up (cascade boundary) when only far timers are
    /// armed; util::time_never when idle. Never later than the true next
    /// deadline, so it is a valid event-loop sleep bound.
    util::sim_time next_deadline_hint() const;

    std::size_t pending() const { return pending_; }

    /// Observe each fired timer's lateness — advance()'s `now` minus the
    /// timer's rounded-up deadline — into `h` (metrics hook; nullptr
    /// disables, the default). Entries store their true deadline tick, so
    /// this costs one subtraction per fire.
    void set_fire_latency_histogram(trace::histogram* h) { fire_latency_ = h; }

private:
    struct entry {
        entry* next = nullptr;
        entry** pprev = nullptr; ///< hlist back-link: unlink without list head
        std::uint64_t id = 0;   ///< id of the armed timer; 0 while free
        std::uint64_t generation = 0; ///< arming count (wraps within 40 bits)
        std::size_t index = 0;  ///< position in the slab
        std::uint64_t tick = 0; ///< true absolute deadline tick
        std::function<void()> fn;
    };

    static void unlink(entry* e) {
        *e->pprev = e->next;
        if (e->next != nullptr) e->next->pprev = e->pprev;
        e->next = nullptr;
        e->pprev = nullptr;
    }

    void link(entry* e, int level, std::size_t slot);
    void place(entry* e);
    void cascade(int level, std::uint64_t tick);
    void expire_current_tick();
    entry* alloc_entry();
    void recycle(entry* e);

    entry* slots_[levels][slots_per_level] = {};
    std::vector<std::unique_ptr<entry>> slab_; ///< every entry, by id index
    entry* free_list_ = nullptr;
    std::uint64_t current_tick_;
    std::size_t pending_ = 0;
    trace::histogram* fire_latency_ = nullptr;
    util::sim_time advance_now_ = 0; ///< `now` of the advance() in progress
};

} // namespace vtp::engine
