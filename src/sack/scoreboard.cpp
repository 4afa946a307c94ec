#include "sack/scoreboard.hpp"

#include <algorithm>

namespace vtp::sack {

scoreboard::scoreboard(scoreboard_config cfg) : cfg_(cfg) {}

void scoreboard::record(const transmission_record& rec) {
    records_.push_back(slot{rec, false});
    ++outstanding_;
}

std::size_t scoreboard::lower_bound(std::uint64_t seq) const {
    std::size_t lo = 0;
    std::size_t hi = records_.size();
    while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (records_[mid].rec.seq < seq) lo = mid + 1;
        else hi = mid;
    }
    return lo;
}

void scoreboard::on_sack(const packet::sack_feedback_segment& fb,
                         std::vector<transmission_record>& lost_out) {
    // Mark acked sequences delivered.
    for (const auto& block : fb.blocks) {
        if (block.begin >= block.end) continue;
        highest_reported_ = std::max(highest_reported_, block.end - 1);
        for (std::size_t i = lower_bound(block.begin);
             i < records_.size() && records_[i].rec.seq < block.end; ++i) {
            slot& s = records_[i];
            if (s.acked) continue;
            s.acked = true;
            --outstanding_;
            delivered_.add(s.rec.byte_offset, s.rec.byte_offset + s.rec.length);
            ++acked_sequences_;
        }
    }

    // Finalise sequences the receiver has definitively moved past, in
    // sequence order (it drives the retransmission order).
    if (highest_reported_ >= cfg_.finalize_horizon) {
        const std::uint64_t limit = highest_reported_ - cfg_.finalize_horizon;
        for (; !records_.empty() && records_.front().rec.seq <= limit; records_.pop_front()) {
            const slot& s = records_.front();
            if (s.acked) continue;
            --outstanding_;
            ++lost_sequences_;
            // Only report the loss if those bytes never made it another way.
            if (!delivered_.contains(s.rec.byte_offset, s.rec.byte_offset + s.rec.length))
                lost_out.push_back(s.rec);
        }
    }
    while (!records_.empty() && records_.front().acked) records_.pop_front();
}

std::uint64_t scoreboard::min_outstanding_offset() const {
    std::uint64_t lowest = UINT64_MAX;
    for (std::size_t i = 0; i < records_.size(); ++i)
        if (!records_[i].acked) lowest = std::min(lowest, records_[i].rec.byte_offset);
    return lowest;
}

} // namespace vtp::sack
