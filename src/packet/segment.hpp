// Transport segment model.
//
// All transports in the library (QTP instances, the TCP baseline) exchange
// typed segments. In simulation the typed form travels directly inside
// `packet`; on the live UDP datapath the same segments are serialized with
// packet/wire.hpp. Keeping one segment model for both substrates is what
// makes the protocol components substrate-agnostic.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "util/time.hpp"

namespace vtp::packet {

using util::sim_time;

/// DiffServ codepoints used by the library. `af11` marks in-profile
/// (green) traffic of AF class 1, `af12` out-of-profile (yellow).
enum class dscp : std::uint8_t {
    best_effort = 0,
    af11 = 10,
    af12 = 12,
    af13 = 14,
    ef = 46,
};

std::string to_string(dscp d);

/// Contiguous range of received packet sequence numbers, [begin, end).
struct sack_block {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;

    bool operator==(const sack_block&) const = default;
};

/// QTP data segment. Sequence numbers are per-packet (TFRC style); the
/// byte offset locates the payload in the application stream for
/// reliability and reassembly.
struct data_segment {
    std::uint64_t seq = 0;
    std::uint64_t byte_offset = 0;
    std::uint32_t payload_len = 0;
    sim_time ts = 0;             ///< sender clock at transmission
    sim_time rtt_estimate = 0;   ///< sender's current RTT (drives receiver feedback timer)
    std::uint32_t message_id = 0;
    sim_time deadline = util::time_never; ///< partial reliability: drop after this
    bool is_retransmission = false;
    bool end_of_stream = false;
    /// Application bytes carried by this segment. Either empty (the
    /// length-only fast path: `payload_len` synthetic bytes, nothing
    /// allocated or copied — what the discrete-event benches run) or
    /// exactly `payload_len` bytes of real payload, which the wire
    /// encoding appends after the header.
    std::vector<std::uint8_t> payload;

    bool operator==(const data_segment&) const = default;
};

/// Highest stream id carried by the multiplexed `data_stream` segment
/// kind; the wire decoder rejects anything at or above it. Defined here
/// (like the profile bit layout below) so packet/ stays free of a
/// dependency on stream/.
inline constexpr std::uint32_t max_stream_id = 256;

/// Per-stream reliability announced in `data_stream` frames so the
/// receiver can pick the matching delivery order without negotiating
/// each stream. Values mirror sack::reliability_mode; 3 is unassigned
/// and rejected by the decoder.
inline constexpr std::uint8_t stream_reliability_mask = 0x3;

/// Multiplexed QTP data segment: one of up to `max_stream_id` concurrent
/// application streams on the same connection. `seq` stays in the
/// connection-wide TFRC sequence space (loss estimation and SACK
/// feedback are per connection); `stream_offset` locates the payload in
/// that stream's own byte space (reliability and reassembly are per
/// stream). Stream 0 is the legacy single stream and travels as a plain
/// `data_segment` for compatibility.
struct data_stream_segment {
    std::uint64_t seq = 0;           ///< connection-wide packet sequence
    std::uint32_t stream_id = 0;     ///< [1, max_stream_id) on the wire
    std::uint64_t stream_offset = 0; ///< byte offset within the stream
    std::uint32_t payload_len = 0;
    sim_time ts = 0;             ///< sender clock at transmission
    sim_time rtt_estimate = 0;   ///< sender's current RTT (drives receiver feedback timer)
    std::uint32_t message_id = 0;
    sim_time deadline = util::time_never; ///< partial reliability: drop after this
    std::uint8_t reliability = 0; ///< sack::reliability_mode of this stream
    bool is_retransmission = false;
    bool end_of_stream = false; ///< final byte of *this stream* (not the connection)
    /// Application bytes (empty = length-only; see data_segment::payload).
    std::vector<std::uint8_t> payload;

    bool operator==(const data_stream_segment&) const = default;
};

/// SACK feedback: a cumulative ack plus SACK blocks.
///
/// In QTPlight mode this is the entire receiver report — no loss rate is
/// carried; computing it is the sender's job (has_p = false). In QTPAF
/// mode (receiver-side estimation composed with reliability), the
/// receiver additionally reports its RFC 3448 loss event rate (has_p =
/// true), so one segment serves both the rate controller and the
/// retransmission scoreboard.
struct sack_feedback_segment {
    std::uint64_t cum_ack = 0; ///< all seq < cum_ack received
    std::vector<sack_block> blocks;
    sim_time ts_echo = 0;
    sim_time t_delay = 0;
    double x_recv = 0.0; ///< receive rate, bytes/s (cheap byte counter)
    bool has_p = false;  ///< receiver-side estimation: p is meaningful
    double p = 0.0;      ///< receiver-computed loss event rate

    bool operator==(const sack_feedback_segment&) const = default;
};

/// Profile feature bits carried in handshake segments. The semantics live
/// in core/profile.hpp; the layout is defined here so the wire decoder can
/// reject malformed encodings without depending on core/.
inline constexpr std::uint32_t profile_reliability_mask = 0x3; ///< bits 0-1 (value 3 invalid)
inline constexpr std::uint32_t profile_estimation_bit = 1u << 2; ///< 0 = receiver, 1 = sender
inline constexpr std::uint32_t profile_qos_bit = 1u << 3;
/// Congestion-control algorithm, bits 4-5 (0 = tfrc, 1 = newreno,
/// 2 = westwood, value 3 unassigned/invalid). Zero means TFRC so every
/// pre-cc encoding decodes — and re-encodes — unchanged.
inline constexpr std::uint32_t profile_cc_shift = 4;
inline constexpr std::uint32_t profile_cc_mask = 0x3u << profile_cc_shift;
inline constexpr std::uint32_t profile_bits_mask = 0x3F;

constexpr bool valid_profile_bits(std::uint32_t bits) {
    return (bits & ~profile_bits_mask) == 0 &&
           (bits & profile_reliability_mask) != profile_reliability_mask &&
           (bits & profile_cc_mask) != profile_cc_mask;
}

/// Connection management segments; carry the proposed/accepted profile in
/// encoded form (see core/profile.hpp for the bit layout).
///
/// `reneg`/`reneg_ack` renegotiate the profile mid-connection: either side
/// proposes a new profile (`reneg`, identified by `token`); the peer
/// answers with the accepted — possibly downgraded — profile and the data
/// sequence number from which it applies (`reneg_ack`).
///
/// `retry` is the listener's stateless address-validation round (QUIC
/// style): it carries a cookie in `boundary_seq` (a keyed hash of flow
/// id, source address and a coarse time bucket — see
/// core/syn_cookie.hpp) and costs the listener zero per-connection
/// state. The client echoes the cookie in a retried SYN (also in
/// `boundary_seq`, which a plain SYN leaves 0); only a SYN with a valid
/// cookie spawns an endpoint. The wire layout is unchanged — both fields
/// already travel in every handshake segment.
struct handshake_segment {
    enum class kind : std::uint8_t {
        syn = 0,
        syn_ack = 1,
        fin = 2,
        fin_ack = 3,
        reneg = 4,
        reneg_ack = 5,
        retry = 6,
    };
    kind type = kind::syn;
    std::uint32_t profile_bits = 0;
    double target_rate_bps = 0.0; ///< QoS reservation advertised to peer
    std::uint32_t token = 0;      ///< reneg exchange id (matches ack to proposal)
    /// reneg_ack: first seq under the new profile. retry: the stateless
    /// cookie; syn: the echoed cookie (0 = none).
    std::uint64_t boundary_seq = 0;

    bool operator==(const handshake_segment&) const = default;
};

/// Path validation probes (QUIC PATH_CHALLENGE/PATH_RESPONSE style).
///
/// A migrating endpoint — or one that observes a peer's datagrams
/// arriving from a new address — proves the new path forwards in both
/// directions before steering traffic onto it: it sends a challenge
/// carrying a random 8-byte token and only treats the path as validated
/// when a response echoes that exact token. Tokens are never reused and
/// 0 is reserved (rejected on the wire), so a response can only be
/// produced by something that saw the challenge on the path under test.
/// The wire form carries an XOR fold of the token bytes; the decoder
/// rejects frames whose fold does not match, so bit-flipped probes die
/// at the codec instead of reaching the path manager.
struct path_challenge_segment {
    std::uint64_t token = 0; ///< random, non-zero

    bool operator==(const path_challenge_segment&) const = default;
};

/// Echo of a path_challenge token, sent from the challenged endpoint.
struct path_response_segment {
    std::uint64_t token = 0; ///< the challenge token, verbatim

    bool operator==(const path_response_segment&) const = default;
};

/// XOR fold of a path token's bytes, carried on the wire as a cheap
/// integrity check (defined here so the decoder and fuzzers agree).
constexpr std::uint8_t path_token_check(std::uint64_t token) {
    std::uint8_t c = 0;
    for (int i = 0; i < 8; ++i) c ^= static_cast<std::uint8_t>(token >> (8 * i));
    return c;
}

/// Baseline TCP segment (byte sequence space, cumulative + SACK acks).
struct tcp_segment {
    std::uint64_t seq = 0;      ///< first byte carried
    std::uint32_t payload_len = 0;
    std::uint64_t ack = 0;      ///< next byte expected (valid when is_ack)
    bool is_ack = false;
    bool syn = false;
    bool fin = false;
    std::vector<sack_block> sack; ///< byte ranges received above ack
    sim_time ts = 0;
    sim_time ts_echo = 0;

    bool operator==(const tcp_segment&) const = default;
};

using segment = std::variant<data_segment, sack_feedback_segment, handshake_segment,
                             tcp_segment, data_stream_segment, path_challenge_segment,
                             path_response_segment>;

/// Wire header size in bytes for each segment kind (payload excluded).
/// Matches what packet/wire.hpp actually emits, so simulation sizes and
/// live datapath sizes agree.
std::uint32_t header_size(const segment& s);

/// Total wire size: header + payload.
std::uint32_t wire_size(const segment& s);

/// Short human-readable rendering for traces.
std::string describe(const segment& s);

/// A packet in flight. Cheap to copy: the segment body is shared.
struct packet {
    std::uint32_t flow_id = 0;
    std::uint32_t src = 0; ///< source node id
    std::uint32_t dst = 0; ///< destination node id
    std::uint32_t size_bytes = 0;
    dscp ds = dscp::best_effort;
    bool ecn_capable = false;
    bool ecn_ce = false;
    sim_time sent_at = 0;     ///< stamped by the host on transmit
    sim_time enqueued_at = 0; ///< stamped by queues for delay accounting
    std::shared_ptr<const segment> body;
};

/// Build a packet around a segment, computing its wire size.
packet make_packet(std::uint32_t flow_id, std::uint32_t src, std::uint32_t dst, segment body,
                   dscp ds = dscp::best_effort);
/// Same around a segment the caller keeps (the packet shares it).
packet make_packet(std::uint32_t flow_id, std::uint32_t src, std::uint32_t dst,
                   std::shared_ptr<const segment> body, dscp ds = dscp::best_effort);

/// `slot`'s segment, ready to be overwritten in place. A sender or
/// receive path keeps one segment per kind and reuses it whenever
/// nothing else references it: a substrate that encodes inside send()
/// (the engine shard, net::udp_host) or an agent that handles a packet
/// synchronously drops its copy, while one that queues packets (the
/// simulator) or keeps them (test fixtures) holds its own, and then
/// `slot` gets a fresh segment.
inline segment& own_segment(std::shared_ptr<segment>& slot) {
    if (slot == nullptr || slot.use_count() != 1) slot = std::make_shared<segment>();
    return *slot;
}

/// `s` as alternative T: the one it holds, or a default T replacing
/// another kind.
template <typename T>
T& hold(segment& s) {
    if (T* held = std::get_if<T>(&s)) return *held;
    return s.emplace<T>();
}

} // namespace vtp::packet
