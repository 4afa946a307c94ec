// Multi-stream multiplexing: shared types.
//
// One QTP connection carries up to `max_streams` concurrent application
// streams. Each stream has its own byte space, reliability mode (fixed at
// open, or following the connection profile for stream 0), scheduler
// weight, and optional message framing with per-message delivery
// deadlines. Congestion control, loss estimation and SACK feedback stay
// per-connection — that is the point of multiplexing: mixed media and
// bulk share one gTFRC state instead of competing over N connections.
//
// Stream 0 is the legacy single stream: it exists on every connection,
// travels on the wire as a plain `data_segment` (streams >= 1 use the
// `data_stream` kind), and follows the negotiated/renegotiated profile,
// so every pre-mux caller keeps working unchanged.
#pragma once

#include <cstdint>
#include <vector>

#include "packet/segment.hpp"
#include "sack/retransmit.hpp"
#include "util/time.hpp"

namespace vtp::stream {

/// Hard cap on concurrent streams per connection — by definition the
/// wire limit (the decoder rejects stream ids at or above it).
inline constexpr std::uint32_t max_streams = packet::max_stream_id;

/// Returned by open_stream when the connection is out of stream ids.
inline constexpr std::uint32_t invalid_stream = UINT32_MAX;

/// Per-stream service profile, fixed when the stream is opened.
struct stream_options {
    /// Reliability of this stream (independent of the connection
    /// profile). Ignored when `follow_profile` is set.
    sack::reliability_mode reliability = sack::reliability_mode::full;

    /// Track the connection profile's reliability instead (including
    /// across renegotiations). Stream 0 is created this way.
    bool follow_profile = false;

    /// Weighted-round-robin share of the TFRC-paced send slots relative
    /// to the other streams (0 is clamped to 1).
    std::uint32_t weight = 1;

    /// Message framing: the stream is cut into `message_size`-byte
    /// messages; each expires `message_deadline` after its first
    /// transmission (partial reliability drops expired retransmissions).
    /// 0 disables framing.
    std::uint32_t message_size = 0;
    util::sim_time message_deadline = util::time_never;

    /// Retransmission cap per byte range (0 = unlimited).
    std::uint32_t max_transmissions = 0;
};

/// What the sender scheduler picked for one TFRC-paced send slot.
struct payload_pick {
    std::uint32_t stream_id = 0;
    std::uint64_t byte_offset = 0; ///< offset in the stream's byte space
    std::uint32_t payload_len = 0;
    std::uint32_t message_id = 0;
    util::sim_time deadline = util::time_never;
    sack::reliability_mode mode = sack::reliability_mode::none; ///< effective
    bool is_retransmission = false;
    bool end_of_stream = false;
};

/// Per-pick policy context the connection derives from its congestion
/// state (the partial-reliability margin tracks the current RTT).
struct send_policy {
    util::sim_time partial_margin = util::milliseconds(0);
    std::uint32_t packet_size = 1000;
};

/// One delivered-and-buffered payload chunk awaiting recv() on the
/// receive side. Chunk boundaries are exactly the reassembly's delivery
/// boundaries (one frame in immediate mode, the newly contiguous prefix
/// in ordered mode), and `at` is the substrate clock at delivery — so a
/// consumer that drains late still sees when each chunk was delivered.
struct ready_chunk {
    std::uint64_t offset = 0;
    util::sim_time at = 0;
    std::vector<std::uint8_t> bytes;
};

/// One-call snapshot of one stream's sender-side accounting.
struct stream_info {
    std::uint32_t id = 0;
    bool open = false; ///< still accepting offer()
    sack::reliability_mode reliability = sack::reliability_mode::none;
    std::uint32_t weight = 1;
    std::uint64_t bytes_offered = 0;
    std::uint64_t bytes_sent = 0;  ///< first transmissions
    std::uint64_t bytes_acked = 0; ///< confirmed delivered
    std::uint64_t rtx_bytes_sent = 0;
    std::uint64_t abandoned_bytes = 0; ///< expired under the partial policy
};

} // namespace vtp::stream
