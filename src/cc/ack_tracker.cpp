#include "cc/ack_tracker.hpp"

#include <algorithm>

namespace vtp::cc {

void ack_tracker::on_packet_sent(std::uint64_t seq, std::uint32_t bytes,
                                 util::sim_time now) {
    // Sends are consecutive; tolerate a replay/duplicate defensively.
    if (seq < next_seq_) return;
    // A gap can only appear if the tracker was attached mid-connection
    // (it never is today); fill it with settled zero-byte placeholders.
    while (next_seq_ < seq) {
        pkts_.push_back(entry{0, now, pkt_state::acked});
        ++next_seq_;
    }
    pkts_.push_back(entry{bytes, now, pkt_state::outstanding});
    next_seq_ = seq + 1;
    bytes_in_flight_ += bytes;
    ++outstanding_;
}

void ack_tracker::mark_acked(std::uint64_t begin, std::uint64_t end,
                             std::vector<packet_sample>& acked) {
    begin = std::max(begin, base_);
    end = std::min(end, next_seq_);
    for (std::uint64_t seq = begin; seq < end; ++seq) {
        entry& e = pkts_[static_cast<std::size_t>(seq - base_)];
        if (e.state != pkt_state::outstanding) continue;
        e.state = pkt_state::acked;
        bytes_in_flight_ -= e.bytes;
        --outstanding_;
        acked.push_back(packet_sample{seq, e.bytes, e.sent_at});
    }
    if (end > begin) {
        any_acked_ = true;
        highest_acked_ = std::max(highest_acked_, end - 1);
    }
}

void ack_tracker::on_feedback(const packet::sack_feedback_segment& fb,
                              congestion_event& ev) {
    ev.acked.clear();
    ev.lost.clear();
    ev.prior_bytes_in_flight = bytes_in_flight_;

    if (fb.cum_ack > 0) mark_acked(0, fb.cum_ack, ev.acked);
    for (const auto& b : fb.blocks) mark_acked(b.begin, b.end, ev.acked);

    // Reorder-window loss: anything still outstanding that the receiver
    // has acknowledged past is presumed lost. Samples only — the SACK
    // scoreboards own actual retransmission decisions.
    if (any_acked_ && highest_acked_ >= reorder_threshold_) {
        const std::uint64_t lost_below = highest_acked_ - reorder_threshold_ + 1;
        const std::uint64_t end = std::min(lost_below, next_seq_);
        for (std::uint64_t seq = base_; seq < end; ++seq) {
            entry& e = pkts_[static_cast<std::size_t>(seq - base_)];
            if (e.state != pkt_state::outstanding) continue;
            e.state = pkt_state::lost;
            bytes_in_flight_ -= e.bytes;
            --outstanding_;
            ev.lost.push_back(packet_sample{seq, e.bytes, e.sent_at});
        }
    }

    settle_front();
}

void ack_tracker::on_rto() {
    bytes_in_flight_ = 0;
    outstanding_ = 0;
    pkts_.clear();
    base_ = next_seq_;
}

void ack_tracker::settle_front() {
    while (!pkts_.empty() && pkts_.front().state != pkt_state::outstanding) {
        pkts_.pop_front();
        ++base_;
    }
}

} // namespace vtp::cc
