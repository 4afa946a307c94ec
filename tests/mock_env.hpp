// Inert transport environment for unit-testing agents without a network:
// manual clock, counted sends, timers that fire only on demand.
#pragma once

#include <map>
#include <vector>

#include "core/environment.hpp"

namespace vtp::testing {

class mock_env : public qtp::environment {
public:
    // Agents go first: the environment outlives them (qtp::agent::start),
    // so an agent cancelling its timers on destruction finds them here.
    ~mock_env() override { attached.clear(); }

    util::sim_time now() const override { return now_; }

    qtp::timer_id schedule(util::sim_time delay, std::function<void()> fn) override {
        const qtp::timer_id id = ++next_timer_;
        timers_[id] = {now_ + delay, std::move(fn)};
        return id;
    }

    void cancel(qtp::timer_id id) override { timers_.erase(id); }

    void send(packet::packet pkt) override { sent.push_back(std::move(pkt)); }

    std::uint32_t local_addr() const override { return addr_; }
    util::rng& random() override { return rng_; }

    void attach_dynamic(std::uint32_t flow_id, std::unique_ptr<qtp::agent> a) override {
        attached[flow_id] = std::move(a);
        attached[flow_id]->start(*this);
    }

    void set_default_agent(qtp::agent* a) override { default_agent = a; }

    void detach_dynamic(std::uint32_t flow_id) override { attached.erase(flow_id); }

    std::map<std::uint32_t, std::unique_ptr<qtp::agent>> attached;
    qtp::agent* default_agent = nullptr;

    /// Advance the clock, firing due timers in deadline order.
    void advance(util::sim_time dt) {
        const util::sim_time target = now_ + dt;
        for (;;) {
            qtp::timer_id best = 0;
            util::sim_time best_at = target + 1;
            for (const auto& [id, entry] : timers_) {
                if (entry.deadline <= target && entry.deadline < best_at) {
                    best = id;
                    best_at = entry.deadline;
                }
            }
            if (best == 0) break;
            auto fn = std::move(timers_[best].fn);
            now_ = best_at;
            timers_.erase(best);
            fn();
        }
        now_ = target;
    }

    std::size_t pending_timers() const { return timers_.size(); }

    std::vector<packet::packet> sent;

private:
    struct timer_entry {
        util::sim_time deadline;
        std::function<void()> fn;
    };
    util::sim_time now_ = 0;
    qtp::timer_id next_timer_ = 0;
    std::uint32_t addr_ = 0;
    util::rng rng_{1};
    std::map<qtp::timer_id, timer_entry> timers_;
};

} // namespace vtp::testing
