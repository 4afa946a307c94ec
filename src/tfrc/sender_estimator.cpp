#include "tfrc/sender_estimator.hpp"

#include <algorithm>

namespace vtp::tfrc {

sender_estimator::sender_estimator(sender_estimator_config cfg)
    : cfg_(cfg), history_(cfg.history) {}

void sender_estimator::on_send(std::uint64_t seq, sim_time at) {
    if (send_times_.empty()) send_base_ = seq;
    send_times_.push_back(at);
    while (send_times_.size() > cfg_.max_send_records) {
        send_times_.pop_front();
        ++send_base_;
    }
}

sim_time sender_estimator::send_time(std::uint64_t seq) const {
    if (seq < send_base_) return 0;
    const std::uint64_t idx = seq - send_base_;
    if (idx >= send_times_.size()) return 0;
    return send_times_[idx];
}

bool sender_estimator::on_feedback(const packet::sack_feedback_segment& fb, sim_time,
                                   sim_time rtt) {
    if (!any_feedback_) {
        any_feedback_ = true;
        // Nothing below the first reported range can ever be confirmed
        // received, so anchor the window at the first block (or cum_ack).
        base_ = fb.blocks.empty() ? fb.cum_ack : fb.blocks.front().begin;
    }

    // Never track below the oldest send record still held. When
    // estimation sits idle across a stretch of the connection (runtime
    // profile renegotiation parks it on the receiver and later brings it
    // back), feedback can describe a backlog whose send times are gone —
    // replaying it would produce bogus arrival timestamps and an
    // O(backlog) scan. Skipped sequences simply never reach the history.
    if (base_ < send_base_) {
        const std::uint64_t jump = send_base_ - base_;
        if (jump >= received_.size()) {
            received_.clear();
        } else {
            received_.erase(received_.begin(),
                            received_.begin() + static_cast<std::ptrdiff_t>(jump));
        }
        base_ = send_base_;
    }

    for (const auto& block : fb.blocks) {
        for (std::uint64_t seq = std::max(block.begin, base_); seq < block.end; ++seq) {
            const std::uint64_t idx = seq - base_;
            if (idx >= received_.size()) received_.resize(idx + 1, false);
            received_[idx] = true;
        }
        highest_reported_ = std::max(highest_reported_, block.end == 0 ? 0 : block.end - 1);
    }

    if (highest_reported_ < cfg_.finalize_horizon) return false;
    return finalize_up_to(highest_reported_ - cfg_.finalize_horizon, rtt);
}

bool sender_estimator::finalize_up_to(std::uint64_t limit, sim_time rtt) {
    bool new_event = false;
    while (base_ <= limit) {
        const bool got = !received_.empty() && received_.front();
        if (!received_.empty()) received_.pop_front();
        if (got) {
            // Replay the arrival into the shared loss history. Arrival is
            // estimated as send time + one-way delay (RTT/2); only the
            // *relative* spacing matters for loss-event grouping.
            const sim_time arrival = send_time(base_) + rtt / 2;
            if (history_.on_packet(base_, arrival, rtt)) new_event = true;
        }
        // Missing sequences simply never reach the history: the next
        // received one exposes the hole exactly as at a real receiver.
        ++base_;
    }
    // Send times are read only at base_, which never falls: drop the
    // finalised prefix instead of holding it until the cap evicts it.
    while (send_base_ < base_ && !send_times_.empty()) {
        send_times_.pop_front();
        ++send_base_;
    }
    return new_event;
}

std::size_t sender_estimator::state_bytes() const {
    return sizeof(*this) + received_.size() / 8 + send_times_.size() * sizeof(sim_time) +
           history_.state_bytes();
}

} // namespace vtp::tfrc
