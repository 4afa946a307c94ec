// Sender-side flight bookkeeping for the congestion-control subsystem.
//
// Turns SACK feedback into the acked/lost deltas the send-algorithm
// interface consumes: which packets were newly acknowledged by this
// report, which are now presumed lost (SACKed more than `reorder
// threshold` packets ahead), and how many bytes remain in flight.
//
// Deliberately passive: no timers, no environment access — the tracker
// only mutates on the sender's own send/feedback/RTO calls. That keeps it
// invisible to the deterministic scheduler, which is what lets TFRC run
// through the cc interface with byte-identical traces (the tracker rides
// along, unused by TFRC's math, so a mid-flow swap to a window-based
// algorithm finds the flight state already warm).
#pragma once

#include <cstdint>
#include <vector>

#include "cc/send_algorithm.hpp"
#include "packet/segment.hpp"
#include "util/ring.hpp"
#include "util/time.hpp"

namespace vtp::cc {

class ack_tracker {
public:
    /// Record a transmission. Sequence numbers must be the sender's
    /// consecutive per-connection numbering (retransmissions travel under
    /// fresh sequence numbers in this protocol, so there is no ambiguity).
    void on_packet_sent(std::uint64_t seq, std::uint32_t bytes, util::sim_time now);

    /// Digest one SACK report into `ev`: its acked / lost vectors are
    /// refilled (their capacity reused, so a sender that keeps one event
    /// digests reports without allocating) and prior_bytes_in_flight is
    /// set. A packet is declared lost once the receiver has acknowledged
    /// a sequence number `reorder_threshold` or more beyond it.
    void on_feedback(const packet::sack_feedback_segment& fb, congestion_event& ev);

    /// Retransmission timeout: everything outstanding is presumed lost
    /// and forgotten; bytes_in_flight drops to zero.
    void on_rto();

    std::uint64_t bytes_in_flight() const { return bytes_in_flight_; }
    std::uint64_t packets_outstanding() const { return outstanding_; }
    std::uint64_t highest_sent() const { return next_seq_ == 0 ? 0 : next_seq_ - 1; }
    std::uint64_t highest_acked() const { return highest_acked_; }
    bool any_acked() const { return any_acked_; }

    static constexpr std::uint64_t reorder_threshold = 3;

    /// Widen the loss-declaration horizon (multipath striping reorders
    /// across paths far beyond the single-path tolerance; see
    /// path::manager_config::multipath_reorder_tolerance).
    void set_reorder_threshold(std::uint64_t pkts) {
        reorder_threshold_ = pkts < 1 ? 1 : pkts;
    }

private:
    enum class pkt_state : std::uint8_t { outstanding, acked, lost };
    struct entry {
        std::uint32_t bytes = 0;
        util::sim_time sent_at = 0;
        pkt_state state = pkt_state::outstanding;
    };

    void mark_acked(std::uint64_t begin, std::uint64_t end,
                    std::vector<packet_sample>& acked);
    void settle_front();

    util::ring<entry> pkts_; ///< pkts_[i] is sequence number base_ + i
    std::uint64_t base_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t bytes_in_flight_ = 0;
    std::uint64_t outstanding_ = 0;
    std::uint64_t highest_acked_ = 0;
    bool any_acked_ = false;
    std::uint64_t reorder_threshold_ = reorder_threshold;
};

} // namespace vtp::cc
