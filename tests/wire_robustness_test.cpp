// Adversarial decode tests: the wire decoder must never crash, loop or
// accept garbage silently — it either returns a valid segment or throws
// decode_error. (The live UDP datapath feeds it raw datagrams.)
#include <gtest/gtest.h>

#include "packet/wire.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace {

using namespace vtp::packet;

TEST(wire_robustness_test, random_garbage_never_crashes) {
    vtp::util::rng rng(8675309);
    int decoded = 0, rejected = 0;
    for (int i = 0; i < 20000; ++i) {
        const auto len = static_cast<std::size_t>(rng.uniform_int(0, 300));
        std::vector<std::uint8_t> buf(len);
        for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        try {
            (void)decode_segment(buf);
            ++decoded;
        } catch (const vtp::util::decode_error&) {
            ++rejected;
        }
    }
    // Overwhelmingly rejected; the occasional accidental accept is fine
    // (a valid-looking header is a valid header).
    EXPECT_GT(rejected, 15000);
    EXPECT_EQ(decoded + rejected, 20000);
}

TEST(wire_robustness_test, bit_flips_in_valid_segments_never_crash) {
    vtp::util::rng rng(424242);
    sack_feedback_segment fb;
    fb.cum_ack = 1000;
    fb.blocks = {{1000, 1100}, {1200, 1300}};
    fb.has_p = true;
    fb.p = 0.01;
    const auto clean = encode_segment(segment{fb});
    for (int i = 0; i < 20000; ++i) {
        auto corrupted = clean;
        const int flips = static_cast<int>(rng.uniform_int(1, 8));
        for (int f = 0; f < flips; ++f) {
            const auto byte = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(corrupted.size()) - 1));
            corrupted[byte] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
        }
        try {
            (void)decode_segment(corrupted);
        } catch (const vtp::util::decode_error&) {
        }
    }
    SUCCEED();
}

TEST(wire_robustness_test, truncation_of_every_kind_throws) {
    std::vector<segment> segments;
    segments.emplace_back(data_segment{});
    sack_feedback_segment fb;
    fb.blocks = {{0, 5}};
    segments.emplace_back(fb);
    segments.emplace_back(handshake_segment{});
    tcp_segment t;
    t.sack = {{0, 5}};
    segments.emplace_back(t);
    data_stream_segment ds;
    ds.stream_id = 3;
    ds.stream_offset = 1000;
    ds.payload_len = 500;
    ds.reliability = 2; // partial
    segments.emplace_back(ds);
    segments.emplace_back(path_challenge_segment{0x1122334455667788ULL});
    segments.emplace_back(path_response_segment{0x8877665544332211ULL});

    for (const auto& seg : segments) {
        const auto bytes = encode_segment(seg);
        for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
            EXPECT_THROW((void)decode_segment(bytes.data(), cut),
                         vtp::util::decode_error);
        }
        // Full length decodes to the original.
        EXPECT_EQ(decode_segment(bytes), seg);
    }
}

TEST(wire_robustness_test, stream_frame_rejects_bad_stream_id) {
    data_stream_segment ds;
    ds.stream_id = 17;
    auto bytes = encode_segment(segment{ds});
    // Stream id travels as a u16 right after kind + flags.
    bytes[2] = 0x01;
    bytes[3] = 0x00; // 256: one past the last valid id
    EXPECT_THROW((void)decode_segment(bytes), vtp::util::decode_error);
    bytes[2] = 0xff;
    bytes[3] = 0xff;
    EXPECT_THROW((void)decode_segment(bytes), vtp::util::decode_error);
    bytes[2] = 0x00;
    bytes[3] = 0xff; // 255: last valid id
    EXPECT_NO_THROW((void)decode_segment(bytes));
}

TEST(wire_robustness_test, stream_frame_rejects_malformed_flags) {
    data_stream_segment ds;
    ds.stream_id = 1;
    auto bytes = encode_segment(segment{ds});
    // Reliability bits 2-3: value 3 is unassigned.
    bytes[1] = static_cast<std::uint8_t>(0x3 << 2);
    EXPECT_THROW((void)decode_segment(bytes), vtp::util::decode_error);
    // Flag bits above the defined set must be rejected (canonical form).
    bytes[1] = 0x20;
    EXPECT_THROW((void)decode_segment(bytes), vtp::util::decode_error);
    // Bit 4 is the payload-present flag; it is only well-formed when the
    // frame actually carries payload bytes (payload_len > 0 here is 0).
    bytes[1] = 0x10;
    EXPECT_THROW((void)decode_segment(bytes), vtp::util::decode_error);
    bytes[1] = (0x2 << 2) | 0x3; // partial + rtx + eos: well-formed
    EXPECT_NO_THROW((void)decode_segment(bytes));
}

TEST(wire_robustness_test, trailing_bytes_are_tolerated) {
    // A datagram may carry payload after the header; the decoder must
    // parse the header and ignore the rest.
    data_segment d;
    d.payload_len = 3;
    auto bytes = encode_segment(segment{d});
    bytes.push_back(0xAA);
    bytes.push_back(0xBB);
    bytes.push_back(0xCC);
    const segment decoded = decode_segment(bytes);
    EXPECT_EQ(decoded, segment{d});
}

TEST(wire_robustness_test, roundtrip_of_decoded_garbage_is_stable) {
    // If garbage happens to decode, re-encoding and re-decoding it must
    // be a fixed point (canonical form).
    vtp::util::rng rng(777);
    for (int i = 0; i < 20000; ++i) {
        const auto len = static_cast<std::size_t>(rng.uniform_int(1, 200));
        std::vector<std::uint8_t> buf(len);
        for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        try {
            const segment first = decode_segment(buf);
            const segment second = decode_segment(encode_segment(first));
            ASSERT_EQ(first, second);
        } catch (const vtp::util::decode_error&) {
        }
    }
}

} // namespace
