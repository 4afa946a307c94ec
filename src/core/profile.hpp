// Transport profiles: the negotiable composition the paper proposes.
//
// A profile picks, per connection: (1) reliability — none / full /
// partial (SACK micro-mechanism), (2) where TFRC loss estimation runs —
// receiver (classic RFC 3448) or sender (QTPlight), and (3) QoS
// awareness — whether the congestion controller honours a DiffServ/AF
// guaranteed rate (gTFRC). The two protocol instances published in the
// paper are just points in this space:
//
//   QTPAF    = { full reliability, receiver-side estimation, QoS-aware }
//   QTPlight = { none-or-partial reliability, sender-side estimation }
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "cc/algorithm_id.hpp"
#include "packet/segment.hpp"
#include "sack/retransmit.hpp"
#include "tfrc/rate_controller.hpp"

namespace vtp::qtp {

struct profile {
    sack::reliability_mode reliability = sack::reliability_mode::none;
    tfrc::estimation_mode estimation = tfrc::estimation_mode::receiver_side;
    bool qos_aware = false;
    double target_rate_bps = 0.0; ///< negotiated AF committed rate (gTFRC g)
    /// Congestion-control algorithm (fourth profile axis): which
    /// send-algorithm the sender paces with (src/cc/). Negotiated like
    /// every other feature; a reneg swap preserves congestion state via
    /// export/import (see cc/send_algorithm.hpp).
    cc::algorithm_id congestion = cc::algorithm_id::tfrc;

    bool operator==(const profile&) const = default;

    /// Pack the enumerable features into handshake bits (the target rate
    /// travels in its own handshake field). The bit layout is defined in
    /// packet/segment.hpp, next to the wire format that carries it.
    std::uint32_t encode() const;

    /// Lenient decode: malformed bits degrade to safe defaults. Use for
    /// already-validated input (the wire decoder rejects malformed bits
    /// before they get here).
    static profile decode(std::uint32_t bits, double target_rate_bps);

    /// Strict decode: nullopt unless `bits` is a point of the feature
    /// lattice (see packet::valid_profile_bits).
    static std::optional<profile> decode_checked(std::uint32_t bits,
                                                 double target_rate_bps);

    std::string describe() const;
};

/// The published instances and the best-effort default.
profile qtp_af_profile(double target_rate_bps);
profile qtp_light_profile(
    sack::reliability_mode reliability = sack::reliability_mode::none);
profile qtp_default_profile();

/// What a local endpoint is able/willing to run; used by the responder
/// to downgrade a proposal it cannot honour.
struct capabilities {
    bool allow_full_reliability = true;
    bool allow_partial_reliability = true;
    /// A resource-limited device refuses receiver-side estimation: it
    /// will not maintain the loss history (the QTPlight motivation).
    bool support_receiver_estimation = true;
    bool support_sender_estimation = true;
    bool qos_aware = true;
    double max_target_rate_bps = 1e12;
    /// Congestion controllers this endpoint can run; a proposal for an
    /// unsupported algorithm downgrades to TFRC (always available — it is
    /// the protocol's native controller).
    bool allow_cc_newreno = true;
    bool allow_cc_westwood = true;
};

/// Responder-side negotiation: the accepted profile is the proposal,
/// downgraded feature-by-feature to what `local` supports.
profile negotiate(const profile& proposed, const capabilities& local);

} // namespace vtp::qtp
