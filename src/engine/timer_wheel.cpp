#include "engine/timer_wheel.hpp"

#include <algorithm>
#include <stdexcept>

namespace vtp::engine {

namespace {

constexpr std::uint64_t level_mask = timer_wheel::slots_per_level - 1;

/// Ticks covered by one slot of `level` (level 0: 1 tick each).
constexpr std::uint64_t level_span(int level) {
    return std::uint64_t{1} << (timer_wheel::level_bits * level);
}

/// Ticks covered by the whole of `level` and everything below it.
constexpr std::uint64_t level_range(int level) {
    return std::uint64_t{1} << (timer_wheel::level_bits * (level + 1));
}

} // namespace

timer_wheel::timer_wheel(util::sim_time now)
    : current_tick_(static_cast<std::uint64_t>(std::max<util::sim_time>(now, 0)) >>
                    tick_shift) {}

timer_wheel::entry* timer_wheel::alloc_entry() {
    entry* e = free_list_;
    if (e != nullptr) {
        free_list_ = e->next;
        e->next = nullptr;
    } else {
        if (slab_.size() == max_timers) throw std::length_error("timer_wheel: too many timers");
        slab_.push_back(std::make_unique<entry>());
        e = slab_.back().get();
        e->index = slab_.size() - 1;
    }
    constexpr std::uint64_t generation_mask = (std::uint64_t{1} << (64 - index_bits)) - 1;
    e->generation = (e->generation + 1) & generation_mask;
    if (e->generation == 0) e->generation = 1; // keeps every id non-zero
    e->id = e->generation << index_bits | e->index;
    return e;
}

void timer_wheel::recycle(entry* e) {
    e->id = 0;
    e->fn = nullptr;
    e->pprev = nullptr;
    e->next = free_list_;
    free_list_ = e;
}

void timer_wheel::link(entry* e, int level, std::size_t slot) {
    entry*& head = slots_[level][slot];
    e->next = head;
    e->pprev = &head;
    if (head != nullptr) head->pprev = &e->next;
    head = e;
}

void timer_wheel::place(entry* e) {
    // Entries due now (or in the past) go one tick out: advance() has
    // already processed the current tick, and never-early beats
    // never-late here.
    const std::uint64_t tick = std::max(e->tick, current_tick_ + 1);
    const std::uint64_t delta = tick - current_tick_;
    for (int level = 0; level < levels; ++level) {
        if (delta < level_range(level) || level == levels - 1) {
            // Beyond the top level's range: clamp the *slot* (the true
            // tick stays in e->tick); expiry re-places until reachable.
            const std::uint64_t capped =
                delta < level_range(levels - 1)
                    ? tick
                    : current_tick_ + level_range(levels - 1) - 1;
            const std::size_t slot =
                (capped >> (level_bits * level)) & level_mask;
            link(e, level, slot);
            return;
        }
    }
}

timer_wheel::timer_id timer_wheel::schedule_at(util::sim_time deadline,
                                               std::function<void()> fn) {
    entry* e = alloc_entry();
    // Round up: the timer must not fire before its deadline.
    const std::uint64_t ns =
        static_cast<std::uint64_t>(std::max<util::sim_time>(deadline, 0));
    e->tick = (ns + (std::uint64_t{1} << tick_shift) - 1) >> tick_shift;
    e->fn = std::move(fn);
    ++pending_;
    place(e);
    return e->id;
}

bool timer_wheel::cancel(timer_id id) {
    const std::size_t index = id & (max_timers - 1);
    if (id == 0 || index >= slab_.size()) return false;
    entry* e = slab_[index].get();
    if (e->id != id) return false; // fired, cancelled or never armed
    unlink(e); // works even while e sits on a detached expiry chain
    recycle(e);
    --pending_;
    return true;
}

void timer_wheel::cascade(int level, std::uint64_t tick) {
    if (level >= levels) return;
    const std::size_t slot = (tick >> (level_bits * level)) & level_mask;
    // When this level's index also wrapped, pull from above first so its
    // entries land here before we redistribute.
    if (slot == 0) cascade(level + 1, tick);
    entry* chain = slots_[level][slot];
    slots_[level][slot] = nullptr;
    while (chain != nullptr) {
        entry* e = chain;
        chain = e->next;
        if (chain != nullptr) chain->pprev = nullptr;
        e->next = nullptr;
        e->pprev = nullptr;
        place(e); // re-place by remaining delta (lands at a lower level)
    }
}

void timer_wheel::expire_current_tick() {
    entry*& slot = slots_[0][current_tick_ & level_mask];
    // Detach, then pop one at a time: callbacks may cancel entries still
    // on the chain (unlink keeps the chain consistent) or schedule new
    // timers for this same tick (they clamp to the next tick).
    entry* chain = slot;
    slot = nullptr;
    if (chain != nullptr) chain->pprev = &chain;
    while (chain != nullptr) {
        entry* e = chain;
        unlink(e);
        if (chain != nullptr) chain->pprev = &chain;
        if (e->tick > current_tick_) {
            // Far-future entry whose slot was clamped: not due yet.
            place(e);
            continue;
        }
        --pending_;
        if (fire_latency_ != nullptr) {
            const util::sim_time deadline =
                static_cast<util::sim_time>(e->tick) << tick_shift;
            fire_latency_->observe(static_cast<std::uint64_t>(
                std::max<util::sim_time>(advance_now_ - deadline, 0)));
        }
        std::function<void()> fn = std::move(e->fn);
        recycle(e);
        fn();
    }
}

void timer_wheel::advance(util::sim_time now) {
    advance_now_ = now;
    const std::uint64_t target =
        static_cast<std::uint64_t>(std::max<util::sim_time>(now, 0)) >> tick_shift;
    while (current_tick_ < target) {
        if (pending_ == 0) {
            current_tick_ = target; // fast-forward across idle gaps
            break;
        }
        ++current_tick_;
        if ((current_tick_ & level_mask) == 0) cascade(1, current_tick_);
        expire_current_tick();
    }
}

util::sim_time timer_wheel::next_deadline_hint() const {
    if (pending_ == 0) return util::time_never;
    for (std::uint64_t dt = 1; dt < slots_per_level; ++dt) {
        const std::uint64_t tick = current_tick_ + dt;
        if (slots_[0][tick & level_mask] != nullptr)
            return static_cast<util::sim_time>(tick << tick_shift);
        if ((tick & level_mask) == 0) break; // cascade may refill level 0
    }
    // Wake at the next level-0 wrap: the cascade there may bring timers
    // down. Early wake-ups are cheap; oversleeping is a bug.
    const std::uint64_t wrap = (current_tick_ | level_mask) + 1;
    return static_cast<util::sim_time>(wrap << tick_shift);
}

} // namespace vtp::engine
