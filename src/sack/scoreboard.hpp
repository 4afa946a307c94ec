// Sender-side SACK scoreboard.
//
// QTP retransmissions carry *new* sequence numbers (TFRC needs every
// packet numbered once for loss estimation), so the scoreboard maps each
// transmitted sequence to the byte range it carried. SACK feedback marks
// sequences received; once the highest reported sequence is
// `finalize_horizon` past an outstanding one, its fate is final — if the
// byte range it carried has not been delivered by any other sequence, it
// is reported lost so the reliability policy can decide on
// retransmission.
#pragma once

#include <cstdint>
#include <vector>

#include "packet/segment.hpp"
#include "sack/reassembly.hpp"
#include "util/ring.hpp"
#include "util/time.hpp"

namespace vtp::sack {

/// One data transmission: which bytes went out under which sequence.
struct transmission_record {
    std::uint64_t seq = 0;
    std::uint64_t byte_offset = 0;
    std::uint32_t length = 0;
    std::uint32_t message_id = 0;
    util::sim_time deadline = util::time_never;
    util::sim_time sent_at = 0;
    std::uint32_t transmit_count = 1; ///< 1 = first transmission
};

struct scoreboard_config {
    /// A sequence is finalised once highest reported - seq >= horizon.
    std::uint64_t finalize_horizon = 16;
};

class scoreboard {
public:
    explicit scoreboard(scoreboard_config cfg = {});

    /// Register a data transmission (sequence numbers strictly increase).
    void record(const transmission_record& rec);

    /// Ingest SACK feedback. Byte ranges that are now finally lost (and
    /// not covered by another delivered transmission) are appended to
    /// `lost_out`.
    void on_sack(const packet::sack_feedback_segment& fb,
                 std::vector<transmission_record>& lost_out);

    /// Bytes acknowledged as delivered (union of acked transmissions).
    std::uint64_t delivered_bytes() const { return delivered_.total(); }
    const interval_set& delivered() const { return delivered_; }

    std::size_t outstanding() const { return outstanding_; }
    std::uint64_t acked_sequences() const { return acked_sequences_; }
    std::uint64_t lost_sequences() const { return lost_sequences_; }

    /// Lowest byte offset still referenced by an unfinalised
    /// transmission (UINT64_MAX when nothing is outstanding). Bytes below
    /// both this and every queued retransmission can never be sent again,
    /// so the payload send buffer may release them.
    std::uint64_t min_outstanding_offset() const;

private:
    /// A recorded transmission; an acked one stays behind as a tombstone
    /// until everything before it has settled.
    struct slot {
        transmission_record rec;
        bool acked = false;
    };

    /// Index of the first slot whose sequence is >= seq.
    std::size_t lower_bound(std::uint64_t seq) const;

    scoreboard_config cfg_;
    /// This stream's records in sequence order (sequences strictly
    /// increase per stream, so appending keeps them sorted). The front is
    /// always an outstanding record.
    util::ring<slot> records_;
    std::size_t outstanding_ = 0; ///< slots that are not tombstones
    interval_set delivered_;
    std::uint64_t highest_reported_ = 0;
    std::uint64_t acked_sequences_ = 0;
    std::uint64_t lost_sequences_ = 0;
};

} // namespace vtp::sack
