// Wire-format tests: every segment round-trips, and the header sizes the
// simulator charges match the encoder's output exactly.
#include <gtest/gtest.h>

#include "packet/segment.hpp"
#include "packet/wire.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace {

using namespace vtp::packet;

data_segment sample_data() {
    data_segment d;
    d.seq = 42;
    d.byte_offset = 42000;
    d.payload_len = 1000;
    d.ts = vtp::util::milliseconds(123);
    d.rtt_estimate = vtp::util::milliseconds(80);
    d.message_id = 7;
    d.deadline = vtp::util::milliseconds(500);
    d.is_retransmission = true;
    d.end_of_stream = false;
    return d;
}

TEST(wire_test, data_roundtrip) {
    const segment original = sample_data();
    const auto bytes = encode_segment(original);
    const segment decoded = decode_segment(bytes);
    EXPECT_EQ(original, decoded);
}

data_stream_segment sample_data_stream() {
    data_stream_segment d;
    d.seq = 77;
    d.stream_id = 5;
    d.stream_offset = 123456;
    d.payload_len = 900;
    d.ts = vtp::util::milliseconds(321);
    d.rtt_estimate = vtp::util::milliseconds(60);
    d.message_id = 3;
    d.deadline = vtp::util::milliseconds(700);
    d.reliability = 2; // partial
    d.is_retransmission = false;
    d.end_of_stream = true;
    return d;
}

TEST(wire_test, data_stream_roundtrip) {
    const segment original = sample_data_stream();
    EXPECT_EQ(original, decode_segment(encode_segment(original)));
}

TEST(wire_test, header_size_matches_encoding_data_stream) {
    const segment s = sample_data_stream();
    EXPECT_EQ(header_size(s), encode_segment(s).size());
}

TEST(wire_test, sack_feedback_roundtrip_with_blocks) {
    sack_feedback_segment fb;
    fb.cum_ack = 100;
    fb.blocks = {{100, 110}, {115, 130}, {200, 201}};
    fb.ts_echo = 1;
    fb.t_delay = 2;
    fb.x_recv = 3.5;
    fb.has_p = true;
    fb.p = 0.002;
    const segment original = fb;
    EXPECT_EQ(original, decode_segment(encode_segment(original)));
}

TEST(wire_test, sack_feedback_roundtrip_empty_blocks) {
    sack_feedback_segment fb;
    fb.cum_ack = 5;
    const segment original = fb;
    EXPECT_EQ(original, decode_segment(encode_segment(original)));
}

TEST(wire_test, handshake_roundtrip_all_kinds) {
    for (auto kind : {handshake_segment::kind::syn, handshake_segment::kind::syn_ack,
                      handshake_segment::kind::fin, handshake_segment::kind::fin_ack,
                      handshake_segment::kind::reneg, handshake_segment::kind::reneg_ack}) {
        handshake_segment hs;
        hs.type = kind;
        hs.profile_bits = 0x9; // full reliability + qos-aware
        hs.target_rate_bps = 4e6;
        hs.token = 12;
        hs.boundary_seq = 98765;
        const segment original = hs;
        EXPECT_EQ(original, decode_segment(encode_segment(original)));
    }
}

TEST(wire_test, decode_rejects_malformed_profile_bits) {
    handshake_segment hs;
    hs.profile_bits = 0x1;
    auto bytes = encode_segment(segment{hs});
    // Patch the profile-bits field (offset: kind tag + handshake type).
    bytes[2 + 3] = 0x3; // reliability value 3 is unassigned
    EXPECT_THROW(decode_segment(bytes), vtp::util::decode_error);
    bytes[2 + 3] = 0x1;
    bytes[2] = 0xff; // bits above the defined feature lattice
    EXPECT_THROW(decode_segment(bytes), vtp::util::decode_error);
}

TEST(wire_test, tcp_roundtrip) {
    tcp_segment t;
    t.seq = 123456;
    t.payload_len = 1460;
    t.ack = 999;
    t.is_ack = true;
    t.syn = false;
    t.fin = true;
    t.sack = {{2000, 3000}, {4000, 4500}};
    t.ts = 77;
    t.ts_echo = 66;
    const segment original = t;
    EXPECT_EQ(original, decode_segment(encode_segment(original)));
}

// The header size the simulator charges must equal the encoder's output
// for every kind — otherwise simulated and live byte counts diverge.
TEST(wire_test, header_size_matches_encoding_data) {
    const segment s = sample_data();
    EXPECT_EQ(header_size(s), encode_segment(s).size());
}

TEST(wire_test, header_size_matches_encoding_handshake) {
    const segment s = handshake_segment{};
    EXPECT_EQ(header_size(s), encode_segment(s).size());
}

class sack_size_test : public ::testing::TestWithParam<std::size_t> {};

TEST_P(sack_size_test, header_size_matches_encoding_for_block_count) {
    sack_feedback_segment fb;
    for (std::size_t i = 0; i < GetParam(); ++i)
        fb.blocks.push_back({i * 10, i * 10 + 5});
    const segment s = fb;
    EXPECT_EQ(header_size(s), encode_segment(s).size());
}

INSTANTIATE_TEST_SUITE_P(block_counts, sack_size_test,
                         ::testing::Values(0u, 1u, 2u, 4u, 8u, 16u));

class tcp_size_test : public ::testing::TestWithParam<std::size_t> {};

TEST_P(tcp_size_test, header_size_matches_encoding_for_sack_count) {
    tcp_segment t;
    t.is_ack = true;
    for (std::size_t i = 0; i < GetParam(); ++i) t.sack.push_back({i * 10, i * 10 + 5});
    const segment s = t;
    EXPECT_EQ(header_size(s), encode_segment(s).size());
}

INSTANTIATE_TEST_SUITE_P(sack_counts, tcp_size_test, ::testing::Values(0u, 1u, 3u));

TEST(wire_test, wire_size_includes_payload) {
    data_segment d = sample_data();
    d.payload_len = 1200;
    EXPECT_EQ(wire_size(segment{d}), header_size(segment{d}) + 1200);
}

TEST(wire_test, path_probe_roundtrip) {
    const segment challenge{path_challenge_segment{0x1122334455667788ULL}};
    const segment response{path_response_segment{0x1122334455667788ULL}};
    EXPECT_EQ(decode_segment(encode_segment(challenge)), challenge);
    EXPECT_EQ(decode_segment(encode_segment(response)), response);
}

TEST(wire_test, path_probe_wire_size_is_ten_bytes) {
    // kind + 8-byte token + XOR-fold check byte; both frames must be the
    // same size so a challenge/response exchange is 1:1 amplification.
    const segment challenge{path_challenge_segment{0xdeadbeefULL}};
    const segment response{path_response_segment{0xdeadbeefULL}};
    EXPECT_EQ(encode_segment(challenge).size(), 10u);
    EXPECT_EQ(encode_segment(response).size(), 10u);
    EXPECT_EQ(wire_size(challenge), 10u);
    EXPECT_EQ(wire_size(response), 10u);
    EXPECT_EQ(header_size(challenge), 10u);
}

TEST(wire_test, path_probe_decode_rejects_bad_check_byte) {
    auto bytes = encode_segment(segment{path_challenge_segment{0xcafef00dULL}});
    bytes[3] ^= 0x40; // flip one token bit, leave the check byte stale
    EXPECT_THROW(decode_segment(bytes), vtp::util::decode_error);
    auto rbytes = encode_segment(segment{path_response_segment{0xcafef00dULL}});
    rbytes.back() ^= 0x01; // corrupt the check byte itself
    EXPECT_THROW(decode_segment(rbytes), vtp::util::decode_error);
}

TEST(wire_test, path_token_check_folds_all_bytes) {
    // Every byte of the token participates, so any single-byte change
    // breaks the fold.
    const std::uint64_t t = 0x0102030405060708ULL;
    for (int i = 0; i < 8; ++i)
        EXPECT_NE(path_token_check(t), path_token_check(t ^ (0xffULL << (8 * i))));
}

TEST(wire_test, decode_rejects_unknown_kind) {
    std::vector<std::uint8_t> bogus = {0x7f, 0, 0, 0};
    EXPECT_THROW(decode_segment(bogus), vtp::util::decode_error);
    // Kind 2 (the retired standalone TFRC report) is unknown too, even
    // with a full 41-byte body behind it.
    std::vector<std::uint8_t> retired(41, 0);
    retired[0] = 2;
    EXPECT_THROW(decode_segment(retired), vtp::util::decode_error);
}

TEST(wire_test, decode_rejects_truncation) {
    const auto bytes = encode_segment(segment{sample_data()});
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        EXPECT_THROW(decode_segment(bytes.data(), cut), vtp::util::decode_error)
            << "no error at cut=" << cut;
    }
}

TEST(wire_test, decode_rejects_inverted_sack_block) {
    sack_feedback_segment fb;
    fb.blocks = {{50, 40}}; // inverted on purpose
    auto bytes = encode_segment(segment{fb});
    EXPECT_THROW(decode_segment(bytes), vtp::util::decode_error);
}

TEST(wire_test, decode_rejects_absurd_block_count) {
    sack_feedback_segment fb;
    auto bytes = encode_segment(segment{fb});
    // Patch the block-count field
    // (offset: kind + has_p + cum_ack + ts_echo + t_delay + x_recv + p).
    const std::size_t count_offset = 1 + 1 + 8 + 8 + 8 + 8 + 8;
    bytes[count_offset] = 0xff;
    bytes[count_offset + 1] = 0xff;
    EXPECT_THROW(decode_segment(bytes), vtp::util::decode_error);
}

// Property: random segments of every kind round-trip.
TEST(wire_test, randomized_roundtrip_sweep) {
    vtp::util::rng rng(2024);
    for (int i = 0; i < 2000; ++i) {
        segment s;
        switch (rng.uniform_int(0, 4)) {
        case 0: {
            data_segment d;
            d.seq = rng.next_u64();
            d.byte_offset = rng.next_u64();
            d.payload_len = static_cast<std::uint32_t>(rng.uniform_int(0, 65535));
            d.ts = rng.uniform_int(0, INT64_MAX / 2);
            d.rtt_estimate = rng.uniform_int(0, INT64_MAX / 2);
            d.message_id = static_cast<std::uint32_t>(rng.next_u64());
            d.deadline = rng.uniform_int(0, INT64_MAX / 2);
            d.is_retransmission = rng.bernoulli(0.5);
            d.end_of_stream = rng.bernoulli(0.5);
            s = d;
            break;
        }
        case 1: {
            sack_feedback_segment fb;
            fb.cum_ack = rng.next_u64();
            const int blocks = static_cast<int>(rng.uniform_int(0, 16));
            std::uint64_t base = rng.uniform_int(0, 1 << 20);
            for (int b = 0; b < blocks; ++b) {
                const std::uint64_t len = rng.uniform_int(1, 100);
                fb.blocks.push_back({base, base + len});
                base += len + rng.uniform_int(1, 50);
            }
            fb.ts_echo = rng.uniform_int(0, INT64_MAX / 2);
            fb.t_delay = rng.uniform_int(0, INT64_MAX / 2);
            fb.x_recv = rng.uniform(0, 1e9);
            fb.has_p = rng.bernoulli(0.5);
            fb.p = rng.uniform();
            s = fb;
            break;
        }
        case 2: {
            handshake_segment hs;
            hs.type = static_cast<handshake_segment::kind>(rng.uniform_int(0, 5));
            // The wire rejects malformed profile bits, so generate only
            // points of the feature lattice.
            std::uint32_t bits = static_cast<std::uint32_t>(rng.uniform_int(0, 2));
            if (rng.bernoulli(0.5)) bits |= profile_estimation_bit;
            if (rng.bernoulli(0.5)) bits |= profile_qos_bit;
            hs.profile_bits = bits;
            hs.target_rate_bps = rng.uniform(0, 1e10);
            hs.token = static_cast<std::uint32_t>(rng.next_u64());
            hs.boundary_seq = rng.next_u64();
            s = hs;
            break;
        }
        case 3: {
            data_stream_segment d;
            d.seq = rng.next_u64();
            d.stream_id = static_cast<std::uint32_t>(rng.uniform_int(0, 255));
            d.stream_offset = rng.next_u64();
            d.payload_len = static_cast<std::uint32_t>(rng.uniform_int(0, 65535));
            d.ts = rng.uniform_int(0, INT64_MAX / 2);
            d.rtt_estimate = rng.uniform_int(0, INT64_MAX / 2);
            d.message_id = static_cast<std::uint32_t>(rng.next_u64());
            d.deadline = rng.uniform_int(0, INT64_MAX / 2);
            d.reliability = static_cast<std::uint8_t>(rng.uniform_int(0, 2));
            d.is_retransmission = rng.bernoulli(0.5);
            d.end_of_stream = rng.bernoulli(0.5);
            s = d;
            break;
        }
        default: {
            tcp_segment t;
            t.seq = rng.next_u64();
            t.payload_len = static_cast<std::uint32_t>(rng.uniform_int(0, 65535));
            t.ack = rng.next_u64();
            t.is_ack = rng.bernoulli(0.5);
            t.syn = rng.bernoulli(0.1);
            t.fin = rng.bernoulli(0.1);
            const int blocks = static_cast<int>(rng.uniform_int(0, 3));
            std::uint64_t base = rng.uniform_int(0, 1 << 20);
            for (int b = 0; b < blocks; ++b) {
                const std::uint64_t len = rng.uniform_int(1, 3000);
                t.sack.push_back({base, base + len});
                base += len + rng.uniform_int(1, 5000);
            }
            t.ts = rng.uniform_int(0, INT64_MAX / 2);
            t.ts_echo = rng.uniform_int(0, INT64_MAX / 2);
            s = t;
            break;
        }
        }
        const auto bytes = encode_segment(s);
        ASSERT_EQ(header_size(s), bytes.size());
        ASSERT_EQ(s, decode_segment(bytes));
    }
}

// The engine decodes every datagram into one reused segment: a frame
// must come out exactly as a fresh decode, whatever the segment held.
TEST(wire_test, decode_into_reused_segment_matches_fresh_decode) {
    data_segment with_payload = sample_data();
    with_payload.payload_len = 6;
    with_payload.payload = {1, 2, 3, 4, 5, 6};
    with_payload.end_of_stream = true;
    data_segment length_only = sample_data();
    length_only.seq = 43;
    length_only.is_retransmission = false;

    segment reused;
    const auto first = encode_segment(with_payload);
    decode_segment_into(reused, first.data(), first.size());
    EXPECT_EQ(reused, segment{with_payload});
    const auto second = encode_segment(length_only);
    decode_segment_into(reused, second.data(), second.size());
    EXPECT_EQ(reused, decode_segment(second));
    // The receiver trusts payload.size() == payload_len: a length-only
    // frame must not carry the previous frame's bytes.
    EXPECT_TRUE(std::get<data_segment>(reused).payload.empty());

    // Same for the multiplexed kind, and across kinds and block counts.
    data_stream_segment stream = sample_data_stream();
    stream.payload_len = 3;
    stream.payload = {9, 8, 7};
    sack_feedback_segment many;
    many.blocks = {{1, 5}, {7, 9}, {12, 20}};
    many.has_p = true;
    many.p = 0.25;
    sack_feedback_segment few;
    few.cum_ack = 3;
    few.blocks = {{4, 6}};
    for (const segment& next : {segment{stream}, segment{sample_data_stream()}, segment{many},
                                segment{few}, segment{with_payload}, segment{few}}) {
        const auto bytes = encode_segment(next);
        decode_segment_into(reused, bytes.data(), bytes.size());
        EXPECT_EQ(reused, decode_segment(bytes));
        EXPECT_EQ(reused, next);
    }
}

TEST(segment_test, make_packet_fills_wire_size) {
    data_segment d = sample_data();
    const packet p = make_packet(9, 1, 2, d, dscp::af11);
    EXPECT_EQ(p.flow_id, 9u);
    EXPECT_EQ(p.src, 1u);
    EXPECT_EQ(p.dst, 2u);
    EXPECT_EQ(p.ds, dscp::af11);
    EXPECT_EQ(p.size_bytes, wire_size(segment{d}));
}

TEST(segment_test, describe_is_informative) {
    EXPECT_NE(describe(segment{sample_data()}).find("DATA"), std::string::npos);
    EXPECT_NE(describe(segment{sack_feedback_segment{}}).find("SACK-FB"), std::string::npos);
    EXPECT_NE(describe(segment{handshake_segment{}}).find("SYN"), std::string::npos);
}

TEST(segment_test, dscp_names) {
    EXPECT_EQ(to_string(dscp::af11), "AF11");
    EXPECT_EQ(to_string(dscp::best_effort), "BE");
}

} // namespace
