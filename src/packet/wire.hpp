// Wire encoding of QTP segments (network byte order).
//
// The encoded form is what the live UDP datapath (src/net) puts on the
// wire; `header_size()` in segment.hpp is defined to be exactly the size
// this encoder produces, so simulated packet sizes match reality.
//
// Layout (all integers big-endian):
//   byte 0: segment kind tag
//   then kind-specific fields; see wire.cpp for the field order.
// Data and TCP payload bytes are not part of the header encoding; the
// datapath appends them after the header (payload_len gives the length).
#pragma once

#include <cstdint>
#include <vector>

#include "packet/segment.hpp"

namespace vtp::packet {

/// Kind tags on the wire.
enum class wire_kind : std::uint8_t {
    data = 1,
    // 2 is retired (the old standalone TFRC report) so no kind renumbers.
    sack_feedback = 3,
    handshake = 4,
    tcp = 5,
    data_stream = 6,
    path_challenge = 7,
    path_response = 8,
};

/// Encode a segment header to bytes. Never fails.
std::vector<std::uint8_t> encode_segment(const segment& s);

/// Encode a segment header into a caller-provided buffer, returning the
/// encoded size. Allocation-free — this is the server engine's hot
/// transmit path (buffers come from an engine::buffer_pool). Throws
/// std::length_error when `cap` is too small for the segment.
std::size_t encode_segment_into(const segment& s, std::uint8_t* out, std::size_t cap);

/// Decode a segment header. Throws util::decode_error on truncated or
/// malformed input (unknown kind tag, absurd block counts).
segment decode_segment(const std::uint8_t* data, std::size_t len);
/// Decode into an existing segment, writing every field of the decoded
/// kind: when `out` already holds that kind, its payload and SACK-block
/// vectors keep their capacity (the engine's receive path decodes every
/// datagram into one segment). A length-only frame leaves `payload`
/// empty. Throws like decode_segment, leaving `out` unspecified.
void decode_segment_into(segment& out, const std::uint8_t* data, std::size_t len);
segment decode_segment(const std::vector<std::uint8_t>& buf);

/// Maximum SACK blocks the wire format will carry in one segment.
inline constexpr std::size_t max_wire_sack_blocks = 16;

} // namespace vtp::packet
