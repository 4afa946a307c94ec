#include "packet/segment.hpp"

#include <sstream>

namespace vtp::packet {

std::string to_string(dscp d) {
    switch (d) {
    case dscp::best_effort: return "BE";
    case dscp::af11: return "AF11";
    case dscp::af12: return "AF12";
    case dscp::af13: return "AF13";
    case dscp::ef: return "EF";
    }
    return "DSCP?";
}

namespace {

// Header sizes equal the exact byte counts wire.cpp emits (asserted by
// tests/packet_wire_test), so simulated sizes match the live datapath.
constexpr std::uint32_t data_header_bytes = 50;
constexpr std::uint32_t data_stream_header_bytes = 52;
constexpr std::uint32_t sack_feedback_fixed_bytes = 44;
constexpr std::uint32_t sack_block_bytes = 16;
constexpr std::uint32_t handshake_bytes = 26;
constexpr std::uint32_t tcp_fixed_bytes = 39;
constexpr std::uint32_t path_probe_bytes = 10; ///< kind + token + check fold

struct size_visitor {
    std::uint32_t operator()(const data_segment&) const { return data_header_bytes; }
    std::uint32_t operator()(const data_stream_segment&) const {
        return data_stream_header_bytes;
    }
    std::uint32_t operator()(const sack_feedback_segment& s) const {
        return sack_feedback_fixed_bytes +
               sack_block_bytes * static_cast<std::uint32_t>(s.blocks.size());
    }
    std::uint32_t operator()(const handshake_segment&) const { return handshake_bytes; }
    std::uint32_t operator()(const tcp_segment& s) const {
        return tcp_fixed_bytes + sack_block_bytes * static_cast<std::uint32_t>(s.sack.size());
    }
    std::uint32_t operator()(const path_challenge_segment&) const { return path_probe_bytes; }
    std::uint32_t operator()(const path_response_segment&) const { return path_probe_bytes; }
};

struct payload_visitor {
    std::uint32_t operator()(const data_segment& s) const { return s.payload_len; }
    std::uint32_t operator()(const data_stream_segment& s) const { return s.payload_len; }
    std::uint32_t operator()(const tcp_segment& s) const { return s.payload_len; }
    template <typename other>
    std::uint32_t operator()(const other&) const {
        return 0;
    }
};

struct describe_visitor {
    std::string operator()(const data_segment& s) const {
        std::ostringstream out;
        out << "DATA seq=" << s.seq << " off=" << s.byte_offset << " len=" << s.payload_len;
        if (s.is_retransmission) out << " rtx";
        if (s.end_of_stream) out << " eos";
        return out.str();
    }
    std::string operator()(const data_stream_segment& s) const {
        std::ostringstream out;
        out << "DATA-STREAM sid=" << s.stream_id << " seq=" << s.seq
            << " off=" << s.stream_offset << " len=" << s.payload_len;
        if (s.is_retransmission) out << " rtx";
        if (s.end_of_stream) out << " eos";
        return out.str();
    }
    std::string operator()(const sack_feedback_segment& s) const {
        std::ostringstream out;
        out << "SACK-FB cum=" << s.cum_ack << " blocks=[";
        for (std::size_t i = 0; i < s.blocks.size(); ++i) {
            if (i) out << ",";
            out << s.blocks[i].begin << "-" << s.blocks[i].end;
        }
        out << "] x_recv=" << s.x_recv;
        return out.str();
    }
    std::string operator()(const handshake_segment& s) const {
        static const char* names[] = {"SYN",   "SYN-ACK", "FIN",  "FIN-ACK",
                                      "RENEG", "RENEG-ACK", "RETRY"};
        std::ostringstream out;
        out << names[static_cast<int>(s.type)] << " profile=0x" << std::hex << s.profile_bits;
        if (s.type == handshake_segment::kind::reneg ||
            s.type == handshake_segment::kind::reneg_ack) {
            out << std::dec << " token=" << s.token;
            if (s.type == handshake_segment::kind::reneg_ack)
                out << " boundary=" << s.boundary_seq;
        }
        if (s.type == handshake_segment::kind::retry)
            out << std::dec << " cookie=0x" << std::hex << s.boundary_seq;
        return out.str();
    }
    std::string operator()(const path_challenge_segment& s) const {
        std::ostringstream out;
        out << "PATH-CHALLENGE token=0x" << std::hex << s.token;
        return out.str();
    }
    std::string operator()(const path_response_segment& s) const {
        std::ostringstream out;
        out << "PATH-RESPONSE token=0x" << std::hex << s.token;
        return out.str();
    }
    std::string operator()(const tcp_segment& s) const {
        std::ostringstream out;
        out << "TCP";
        if (s.syn) out << " SYN";
        if (s.fin) out << " FIN";
        if (s.is_ack) out << " ack=" << s.ack;
        if (s.payload_len) out << " seq=" << s.seq << " len=" << s.payload_len;
        for (const auto& b : s.sack) out << " sack=" << b.begin << "-" << b.end;
        return out.str();
    }
};

} // namespace

std::uint32_t header_size(const segment& s) { return std::visit(size_visitor{}, s); }

std::uint32_t wire_size(const segment& s) {
    return header_size(s) + std::visit(payload_visitor{}, s);
}

std::string describe(const segment& s) { return std::visit(describe_visitor{}, s); }

packet make_packet(std::uint32_t flow_id, std::uint32_t src, std::uint32_t dst, segment body,
                   dscp ds) {
    return make_packet(flow_id, src, dst, std::make_shared<const segment>(std::move(body)), ds);
}

packet make_packet(std::uint32_t flow_id, std::uint32_t src, std::uint32_t dst,
                   std::shared_ptr<const segment> body, dscp ds) {
    packet p;
    p.flow_id = flow_id;
    p.src = src;
    p.dst = dst;
    p.ds = ds;
    p.size_bytes = wire_size(*body);
    p.body = std::move(body);
    return p;
}

} // namespace vtp::packet
