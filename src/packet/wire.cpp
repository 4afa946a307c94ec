#include "packet/wire.hpp"

#include "util/bytes.hpp"

namespace vtp::packet {

using util::byte_reader;
using util::byte_writer;
using util::decode_error;

namespace {

constexpr std::uint8_t data_flag_rtx = 0x01;
constexpr std::uint8_t data_flag_eos = 0x02;
// Payload-present: `payload_len` application bytes follow the header.
// Absent on length-only frames (simulated synthetic sources), so the
// pre-payload wire format is a strict subset of this one.
constexpr std::uint8_t data_flag_payload = 0x04;
// data_stream frames keep the rtx/eos bits and add the stream's
// reliability mode in bits 2-3 (value 3 unassigned -> decode_error);
// their payload-present flag lives above the reliability bits.
constexpr int data_stream_reliability_shift = 2;
constexpr std::uint8_t data_stream_flag_payload = 0x10;

constexpr std::uint8_t tcp_flag_ack = 0x01;
constexpr std::uint8_t tcp_flag_syn = 0x02;
constexpr std::uint8_t tcp_flag_fin = 0x04;

template <typename writer>
struct encode_visitor {
    writer& out;

    void operator()(const data_segment& s) const {
        out.put_u8(static_cast<std::uint8_t>(wire_kind::data));
        std::uint8_t flags = 0;
        if (s.is_retransmission) flags |= data_flag_rtx;
        if (s.end_of_stream) flags |= data_flag_eos;
        if (!s.payload.empty()) flags |= data_flag_payload;
        out.put_u8(flags);
        out.put_u32(s.payload_len);
        out.put_u64(s.seq);
        out.put_u64(s.byte_offset);
        out.put_i64(s.ts);
        out.put_i64(s.rtt_estimate);
        out.put_u32(s.message_id);
        out.put_i64(s.deadline);
        if (!s.payload.empty()) out.put_bytes(s.payload.data(), s.payload.size());
    }

    void operator()(const data_stream_segment& s) const {
        out.put_u8(static_cast<std::uint8_t>(wire_kind::data_stream));
        std::uint8_t flags = 0;
        if (s.is_retransmission) flags |= data_flag_rtx;
        if (s.end_of_stream) flags |= data_flag_eos;
        flags |= static_cast<std::uint8_t>((s.reliability & stream_reliability_mask)
                                           << data_stream_reliability_shift);
        if (!s.payload.empty()) flags |= data_stream_flag_payload;
        out.put_u8(flags);
        out.put_u16(static_cast<std::uint16_t>(s.stream_id));
        out.put_u32(s.payload_len);
        out.put_u64(s.seq);
        out.put_u64(s.stream_offset);
        out.put_i64(s.ts);
        out.put_i64(s.rtt_estimate);
        out.put_u32(s.message_id);
        out.put_i64(s.deadline);
        if (!s.payload.empty()) out.put_bytes(s.payload.data(), s.payload.size());
    }

    void operator()(const sack_feedback_segment& s) const {
        out.put_u8(static_cast<std::uint8_t>(wire_kind::sack_feedback));
        out.put_u8(s.has_p ? 1 : 0);
        out.put_u64(s.cum_ack);
        out.put_i64(s.ts_echo);
        out.put_i64(s.t_delay);
        out.put_f64(s.x_recv);
        out.put_f64(s.p);
        const auto count = static_cast<std::uint16_t>(
            s.blocks.size() > max_wire_sack_blocks ? max_wire_sack_blocks : s.blocks.size());
        out.put_u16(count);
        for (std::uint16_t i = 0; i < count; ++i) {
            out.put_u64(s.blocks[i].begin);
            out.put_u64(s.blocks[i].end);
        }
    }

    void operator()(const handshake_segment& s) const {
        out.put_u8(static_cast<std::uint8_t>(wire_kind::handshake));
        out.put_u8(static_cast<std::uint8_t>(s.type));
        out.put_u32(s.profile_bits);
        out.put_f64(s.target_rate_bps);
        out.put_u32(s.token);
        out.put_u64(s.boundary_seq);
    }

    void operator()(const path_challenge_segment& s) const {
        out.put_u8(static_cast<std::uint8_t>(wire_kind::path_challenge));
        out.put_u64(s.token);
        out.put_u8(path_token_check(s.token));
    }

    void operator()(const path_response_segment& s) const {
        out.put_u8(static_cast<std::uint8_t>(wire_kind::path_response));
        out.put_u64(s.token);
        out.put_u8(path_token_check(s.token));
    }

    void operator()(const tcp_segment& s) const {
        out.put_u8(static_cast<std::uint8_t>(wire_kind::tcp));
        std::uint8_t flags = 0;
        if (s.is_ack) flags |= tcp_flag_ack;
        if (s.syn) flags |= tcp_flag_syn;
        if (s.fin) flags |= tcp_flag_fin;
        out.put_u8(flags);
        out.put_u64(s.seq);
        out.put_u32(s.payload_len);
        out.put_u64(s.ack);
        out.put_i64(s.ts);
        out.put_i64(s.ts_echo);
        const auto count = static_cast<std::uint8_t>(
            s.sack.size() > max_wire_sack_blocks ? max_wire_sack_blocks : s.sack.size());
        out.put_u8(count);
        for (std::uint8_t i = 0; i < count; ++i) {
            out.put_u64(s.sack[i].begin);
            out.put_u64(s.sack[i].end);
        }
    }
};

// Payload bytes follow the header when the payload flag is set; a
// payload_len exceeding what the datagram actually carries is truncation
// (or a corrupted length field) and throws through byte_reader::need.
void decode_payload(byte_reader& in, std::uint32_t payload_len,
                    std::vector<std::uint8_t>& out) {
    if (payload_len > in.remaining()) throw decode_error("truncated payload");
    out.resize(payload_len);
    if (payload_len > 0) in.get_bytes(out.data(), payload_len);
}

// The decoders below fill an existing segment and write every field, so
// a segment reused across datagrams never carries a previous one's
// values; payload and block vectors keep their capacity.

void decode_data(byte_reader& in, data_segment& s) {
    const std::uint8_t flags = in.get_u8();
    s.is_retransmission = (flags & data_flag_rtx) != 0;
    s.end_of_stream = (flags & data_flag_eos) != 0;
    s.payload_len = in.get_u32();
    if ((flags & data_flag_payload) != 0 && s.payload_len == 0)
        throw decode_error("payload flag on empty frame"); // non-canonical
    s.seq = in.get_u64();
    s.byte_offset = in.get_u64();
    s.ts = in.get_i64();
    s.rtt_estimate = in.get_i64();
    s.message_id = in.get_u32();
    s.deadline = in.get_i64();
    if ((flags & data_flag_payload) != 0) decode_payload(in, s.payload_len, s.payload);
    else s.payload.clear();
}

void decode_data_stream(byte_reader& in, data_stream_segment& s) {
    const std::uint8_t flags = in.get_u8();
    s.is_retransmission = (flags & data_flag_rtx) != 0;
    s.end_of_stream = (flags & data_flag_eos) != 0;
    s.reliability = (flags >> data_stream_reliability_shift) & stream_reliability_mask;
    if (s.reliability == stream_reliability_mask)
        throw decode_error("unassigned stream reliability mode");
    if ((flags & ~(data_flag_rtx | data_flag_eos | data_stream_flag_payload |
                   (stream_reliability_mask << data_stream_reliability_shift))) != 0)
        throw decode_error("undefined data_stream flag bits");
    s.stream_id = in.get_u16();
    if (s.stream_id >= max_stream_id) throw decode_error("stream id out of range");
    s.payload_len = in.get_u32();
    if ((flags & data_stream_flag_payload) != 0 && s.payload_len == 0)
        throw decode_error("payload flag on empty frame"); // non-canonical
    s.seq = in.get_u64();
    s.stream_offset = in.get_u64();
    s.ts = in.get_i64();
    s.rtt_estimate = in.get_i64();
    s.message_id = in.get_u32();
    s.deadline = in.get_i64();
    if ((flags & data_stream_flag_payload) != 0)
        decode_payload(in, s.payload_len, s.payload);
    else
        s.payload.clear();
}

void decode_sack_feedback(byte_reader& in, sack_feedback_segment& s) {
    s.has_p = in.get_u8() != 0;
    s.cum_ack = in.get_u64();
    s.ts_echo = in.get_i64();
    s.t_delay = in.get_i64();
    s.x_recv = in.get_f64();
    s.p = in.get_f64();
    const std::uint16_t count = in.get_u16();
    if (count > max_wire_sack_blocks) throw decode_error("sack block count out of range");
    s.blocks.clear();
    s.blocks.reserve(count);
    for (std::uint16_t i = 0; i < count; ++i) {
        sack_block b;
        b.begin = in.get_u64();
        b.end = in.get_u64();
        if (b.end < b.begin) throw decode_error("inverted sack block");
        s.blocks.push_back(b);
    }
}

void decode_handshake(byte_reader& in, handshake_segment& s) {
    const std::uint8_t type = in.get_u8();
    if (type > static_cast<std::uint8_t>(handshake_segment::kind::retry))
        throw decode_error("unknown handshake type");
    s.type = static_cast<handshake_segment::kind>(type);
    s.profile_bits = in.get_u32();
    if (!valid_profile_bits(s.profile_bits))
        throw decode_error("malformed profile bits");
    s.target_rate_bps = in.get_f64();
    s.token = in.get_u32();
    s.boundary_seq = in.get_u64();
}

// Shared by both probe kinds: a non-zero token whose XOR fold matches
// the trailing check byte. Anything else — zero token (reserved),
// bit-flipped token, truncated frame — is a decode_error, so a mutated
// probe can never present a "valid" token to the path manager.
std::uint64_t decode_path_token(byte_reader& in) {
    const std::uint64_t token = in.get_u64();
    const std::uint8_t check = in.get_u8();
    if (token == 0) throw decode_error("reserved zero path token");
    if (check != path_token_check(token)) throw decode_error("path token check mismatch");
    return token;
}

void decode_path_challenge(byte_reader& in, path_challenge_segment& s) {
    s.token = decode_path_token(in);
}

void decode_path_response(byte_reader& in, path_response_segment& s) {
    s.token = decode_path_token(in);
}

void decode_tcp(byte_reader& in, tcp_segment& s) {
    const std::uint8_t flags = in.get_u8();
    s.is_ack = (flags & tcp_flag_ack) != 0;
    s.syn = (flags & tcp_flag_syn) != 0;
    s.fin = (flags & tcp_flag_fin) != 0;
    s.seq = in.get_u64();
    s.payload_len = in.get_u32();
    s.ack = in.get_u64();
    s.ts = in.get_i64();
    s.ts_echo = in.get_i64();
    const std::uint8_t count = in.get_u8();
    if (count > max_wire_sack_blocks) throw decode_error("tcp sack count out of range");
    s.sack.clear();
    s.sack.reserve(count);
    for (std::uint8_t i = 0; i < count; ++i) {
        sack_block b;
        b.begin = in.get_u64();
        b.end = in.get_u64();
        if (b.end < b.begin) throw decode_error("inverted tcp sack block");
        s.sack.push_back(b);
    }
}

} // namespace

std::vector<std::uint8_t> encode_segment(const segment& s) {
    byte_writer out;
    std::visit(encode_visitor<byte_writer>{out}, s);
    return out.take();
}

std::size_t encode_segment_into(const segment& s, std::uint8_t* out, std::size_t cap) {
    util::fixed_writer w(out, cap);
    std::visit(encode_visitor<util::fixed_writer>{w}, s);
    return w.size();
}

void decode_segment_into(segment& out, const std::uint8_t* data, std::size_t len) {
    byte_reader in(data, len);
    const std::uint8_t kind = in.get_u8();
    switch (static_cast<wire_kind>(kind)) {
    case wire_kind::data: return decode_data(in, hold<data_segment>(out));
    case wire_kind::sack_feedback:
        return decode_sack_feedback(in, hold<sack_feedback_segment>(out));
    case wire_kind::handshake: return decode_handshake(in, hold<handshake_segment>(out));
    case wire_kind::tcp: return decode_tcp(in, hold<tcp_segment>(out));
    case wire_kind::data_stream:
        return decode_data_stream(in, hold<data_stream_segment>(out));
    case wire_kind::path_challenge:
        return decode_path_challenge(in, hold<path_challenge_segment>(out));
    case wire_kind::path_response:
        return decode_path_response(in, hold<path_response_segment>(out));
    }
    throw decode_error("unknown segment kind");
}

segment decode_segment(const std::uint8_t* data, std::size_t len) {
    segment s;
    decode_segment_into(s, data, len);
    return s;
}

segment decode_segment(const std::vector<std::uint8_t>& buf) {
    return decode_segment(buf.data(), buf.size());
}

} // namespace vtp::packet
