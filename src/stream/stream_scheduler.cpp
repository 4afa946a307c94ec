#include "stream/stream_scheduler.hpp"

namespace vtp::stream {

std::uint32_t stream_scheduler::pick(const std::vector<candidate>& cands,
                                     util::sim_time now) {
    // Deadline-first promotion: the candidate with the earliest deadline
    // inside the promotion window jumps the round-robin order.
    const candidate* urgent = nullptr;
    for (const auto& c : cands) {
        if (c.deadline == util::time_never) continue;
        if (c.deadline - now > cfg_.deadline_promotion_window) continue;
        if (urgent == nullptr || c.deadline < urgent->deadline) urgent = &c;
    }
    if (urgent != nullptr) {
        ++promotions_;
        if (tracer_ != nullptr)
            tracer_->push(now, trace::record_type::stream_sched, 0,
                          static_cast<std::uint16_t>(urgent->id),
                          urgent->deadline > now
                              ? static_cast<std::uint64_t>(urgent->deadline - now)
                              : 0,
                          0);
        cursor_ = urgent->id;
        return urgent->id;
    }

    // Deficit round-robin: serve the first stream after the cursor with
    // positive credit; when a full round finds none, replenish every
    // candidate by weight * quantum and try again.
    const std::size_t n = cands.size();
    std::size_t start = 0;
    while (start < n && cands[start].id <= cursor_) ++start;
    // `start` is the first candidate strictly after the cursor (may be n:
    // wrap to 0).
    for (int round = 0; round < 64; ++round) {
        for (std::size_t k = 0; k < n; ++k) {
            const candidate& c = cands[(start + k) % n];
            if (deficit(c.id) > 0) {
                cursor_ = c.id;
                return c.id;
            }
        }
        for (const auto& c : cands) {
            const std::int64_t weight = c.weight == 0 ? 1 : c.weight;
            deficit(c.id) += weight * static_cast<std::int64_t>(cfg_.quantum_bytes);
        }
    }
    // Unreachable unless a stream amassed absurd debt; fail open.
    cursor_ = cands[start % n].id;
    return cursor_;
}

void stream_scheduler::charge(std::uint32_t id, std::uint64_t bytes) {
    deficit(id) -= static_cast<std::int64_t>(bytes);
}

void stream_scheduler::trim_idle(std::uint32_t id) {
    if (id < deficit_.size() && deficit_[id] > 0) deficit_[id] = 0;
}

} // namespace vtp::stream
