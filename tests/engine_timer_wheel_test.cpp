// Hierarchical timer wheel: placement/cascade correctness, the
// never-early contract, cancellation (including from inside same-tick
// callbacks), and a randomized cross-check against a reference
// deadline-map implementation.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "engine/timer_wheel.hpp"
#include "util/rng.hpp"

namespace {

using vtp::engine::timer_wheel;
using vtp::util::sim_time;

constexpr sim_time tick = timer_wheel::tick_ns;

TEST(timer_wheel_test, fires_in_deadline_order_never_early) {
    timer_wheel w(0);
    std::vector<int> order;
    std::vector<sim_time> fired_at;
    sim_time now = 0;

    w.schedule_at(tick * 30, [&] { order.push_back(3); fired_at.push_back(now); });
    w.schedule_at(tick * 10, [&] { order.push_back(1); fired_at.push_back(now); });
    w.schedule_at(tick * 20, [&] { order.push_back(2); fired_at.push_back(now); });
    EXPECT_EQ(w.pending(), 3u);

    for (now = 0; now <= tick * 40; now += tick) w.advance(now);

    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    ASSERT_EQ(fired_at.size(), 3u);
    EXPECT_GE(fired_at[0], tick * 10);
    EXPECT_GE(fired_at[1], tick * 20);
    EXPECT_GE(fired_at[2], tick * 30);
    EXPECT_EQ(w.pending(), 0u);
}

TEST(timer_wheel_test, cascades_across_levels) {
    timer_wheel w(0);
    // One deadline per wheel level: 5 ticks (level 0), 300 (level 1),
    // 10'000 (level 2), 300'000 (level 3). Each must fire exactly once,
    // at or after its deadline, in order.
    const std::vector<std::uint64_t> deadlines = {5, 300, 10'000, 300'000};
    std::vector<std::uint64_t> fired;
    std::uint64_t now_tick = 0;
    for (const std::uint64_t d : deadlines)
        w.schedule_at(static_cast<sim_time>(d) * tick, [&fired, &now_tick, d] {
            EXPECT_GE(now_tick, d) << "fired early";
            fired.push_back(d);
        });

    // Advance in coarse, uneven steps so several ticks expire per call.
    while (now_tick < 310'000) {
        now_tick += 37;
        w.advance(static_cast<sim_time>(now_tick) * tick);
    }
    EXPECT_EQ(fired, deadlines);
}

TEST(timer_wheel_test, cancel_prevents_firing) {
    timer_wheel w(0);
    bool fired = false;
    const auto id = w.schedule_at(tick * 5, [&] { fired = true; });
    EXPECT_TRUE(w.cancel(id));
    EXPECT_FALSE(w.cancel(id)); // double-cancel is a no-op
    w.advance(tick * 10);
    EXPECT_FALSE(fired);
    EXPECT_EQ(w.pending(), 0u);
}

TEST(timer_wheel_test, stale_ids_never_cancel_a_reused_entry) {
    // An id names its entry and that entry's arming: once the timer fired
    // or was cancelled, the id stays dead even after the entry is reused.
    timer_wheel w(0);
    int fired = 0;
    const auto a = w.schedule_at(tick * 2, [&] { ++fired; });
    EXPECT_NE(a, 0u);
    EXPECT_TRUE(w.cancel(a));
    EXPECT_FALSE(w.cancel(a));
    const auto b = w.schedule_at(tick * 2, [&] { ++fired; }); // reuses a's entry
    EXPECT_NE(b, a);
    EXPECT_FALSE(w.cancel(a));
    for (sim_time now = 0; now <= tick * 3; now += tick) w.advance(now);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(w.cancel(b)); // fired
    const auto c = w.schedule_at(tick * 5, [&] { ++fired; });
    EXPECT_FALSE(w.cancel(b));
    EXPECT_FALSE(w.cancel(0));
    EXPECT_FALSE(w.cancel(c + 1)); // another index, never armed
    EXPECT_EQ(w.pending(), 1u);
    EXPECT_TRUE(w.cancel(c));
    EXPECT_EQ(w.pending(), 0u);
}

TEST(timer_wheel_test, cancel_far_timer_in_clamped_slot) {
    timer_wheel w(0);
    // Beyond the top level's reach: parks in the clamped last slot.
    const auto id = w.schedule_at(
        static_cast<sim_time>(std::uint64_t{1} << 26) * tick, [] { FAIL(); });
    EXPECT_EQ(w.pending(), 1u);
    EXPECT_TRUE(w.cancel(id));
    EXPECT_EQ(w.pending(), 0u);
    w.advance(tick * 1000);
}

TEST(timer_wheel_test, callback_cancels_sibling_of_same_tick) {
    timer_wheel w(0);
    int fired = 0;
    timer_wheel::timer_id second = 0;
    // Both due at the same tick; whichever runs first cancels the other.
    timer_wheel::timer_id first = 0;
    first = w.schedule_at(tick * 3, [&] {
        ++fired;
        w.cancel(second);
        w.cancel(first); // cancelling the already-fired self is a no-op
    });
    second = w.schedule_at(tick * 3, [&] {
        ++fired;
        w.cancel(first);
    });
    w.advance(tick * 5);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(w.pending(), 0u);
}

TEST(timer_wheel_test, callback_schedules_followup) {
    timer_wheel w(0);
    int chain = 0;
    w.schedule_at(tick * 2, [&] {
        ++chain;
        w.schedule_at(tick * 4, [&] { ++chain; });
    });
    w.advance(tick * 3);
    EXPECT_EQ(chain, 1);
    w.advance(tick * 6);
    EXPECT_EQ(chain, 2);
}

TEST(timer_wheel_test, zero_and_past_deadlines_fire_on_next_advance) {
    timer_wheel w(tick * 100);
    int fired = 0;
    w.schedule_at(0, [&] { ++fired; });          // long past
    w.schedule_at(tick * 100, [&] { ++fired; }); // now
    w.advance(tick * 102);
    EXPECT_EQ(fired, 2);
}

TEST(timer_wheel_test, next_deadline_hint_bounds) {
    timer_wheel w(0);
    EXPECT_EQ(w.next_deadline_hint(), vtp::util::time_never);

    // Near timer: the hint is exact.
    const auto id = w.schedule_at(tick * 7, [] {});
    EXPECT_EQ(w.next_deadline_hint(), tick * 7);
    w.cancel(id);

    // Far timer: the hint may be an intermediate cascade boundary but
    // must never overshoot the true deadline.
    w.schedule_at(tick * 5000, [] {});
    EXPECT_LE(w.next_deadline_hint(), tick * 5000);
    EXPECT_GT(w.next_deadline_hint(), 0);
}

TEST(timer_wheel_test, hint_is_always_a_safe_sleep_bound) {
    // Sleeping to the hint and re-asking must reach any deadline without
    // ever passing it.
    timer_wheel w(0);
    bool fired = false;
    const std::uint64_t deadline = 4321;
    w.schedule_at(static_cast<sim_time>(deadline) * tick, [&] { fired = true; });
    sim_time now = 0;
    int hops = 0;
    while (!fired && hops < 1000) {
        const sim_time hint = w.next_deadline_hint();
        ASSERT_NE(hint, vtp::util::time_never);
        ASSERT_LE(hint, static_cast<sim_time>(deadline) * tick);
        ASSERT_GT(hint, now) << "hint must make progress";
        now = hint;
        w.advance(now);
        ++hops;
    }
    EXPECT_TRUE(fired);
}

TEST(timer_wheel_test, randomized_against_reference_map) {
    timer_wheel w(0);
    std::multimap<sim_time, int> reference; // deadline -> key
    std::map<int, timer_wheel::timer_id> live;
    std::map<int, sim_time> deadline_of;
    std::vector<std::pair<int, sim_time>> fired; // (key, fire time)
    vtp::util::rng rng(77);

    sim_time now = 0;
    int next_key = 0;
    for (int step = 0; step < 3000; ++step) {
        const double dice = rng.uniform();
        if (dice < 0.55) {
            const sim_time delay = rng.uniform_int(0, 50 * tick);
            const int key = next_key++;
            const sim_time dl = now + delay;
            live[key] = w.schedule_at(
                dl, [&fired, &live, &now, key] {
                    fired.emplace_back(key, now);
                    live.erase(key);
                });
            reference.emplace(dl, key);
            deadline_of[key] = dl;
        } else if (dice < 0.7 && !live.empty()) {
            auto it = live.begin();
            std::advance(it, rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
            EXPECT_TRUE(w.cancel(it->second));
            deadline_of.erase(it->first);
            live.erase(it);
        } else {
            now += rng.uniform_int(0, 8 * tick);
            w.advance(now);
        }
    }
    now += 100 * tick;
    w.advance(now);

    EXPECT_EQ(w.pending(), 0u);
    EXPECT_TRUE(live.empty());
    // Everything not cancelled fired exactly once, never early, and
    // within one tick + the advance stride of its deadline.
    EXPECT_EQ(fired.size(), deadline_of.size());
    for (const auto& [key, at] : fired) {
        ASSERT_TRUE(deadline_of.count(key));
        EXPECT_GE(at, deadline_of[key]) << "timer fired before its deadline";
    }
}

} // namespace
