// Machine-checked protocol invariants for scenario conformance runs.
//
// A scenario run produces a `scenario_result`: the full delivery trace,
// per-flow endpoint observations and a deterministic trace hash. The
// invariant checkers walk that evidence:
//
//   delivery-integrity   full-reliability streams are byte-exact and
//                        strictly in-order at the application; partial
//                        streams are hole-bounded (delivered + abandoned
//                        covers everything offered); no stream ever hands
//                        the application the same byte twice, and no
//                        ordered stream delivers out of order
//   close-termination    close() always terminates: every flow reaches
//                        closed on both endpoints before the deadline
//   tfrc-equation-bound  after convergence the sender's allowed rate is
//                        within a factor of the RFC 3448 equation rate
//                        for its measured (p, RTT) — or the gTFRC floor
//   stats-consistency    counters cannot contradict each other or the
//                        observed trace (acked <= sent <= queued, the
//                        drained chunks sum to the delivered counter, no
//                        event lost to a full queue, …)
//
// Checkers are pluggable: `default_invariants()` is the standard set the
// runner applies; tests and tools can append their own.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "path/path.hpp"
#include "sack/reassembly.hpp"
#include "testing/scenario.hpp"

namespace vtp::testing {

struct invariant_violation {
    std::string invariant; ///< checker name
    std::string detail;    ///< human-readable evidence
};

/// One delivered chunk observed at a receiver (recv_chunk() metadata).
struct delivery_event {
    std::uint32_t flow = 0;
    std::uint32_t stream = 0;
    std::uint64_t offset = 0;
    std::uint32_t len = 0;
    util::sim_time at = 0;
};

/// Receive-side accounting for one stream of one flow, accumulated by
/// the runner as deliveries arrive.
struct stream_delivery {
    /// Strictest reliability check this stream must satisfy: the weakest
    /// reliability mode it ran under at any point (a follow-profile
    /// stream renegotiated full -> partial is checked as partial).
    sack::reliability_mode check_mode = sack::reliability_mode::full;
    bool opened_by_sender = false; ///< false: phantom (decoder-accepted garbage)
    std::uint64_t offered = 0;     ///< sender-side bytes offered
    std::uint64_t abandoned = 0;   ///< sender-side bytes expired under partial policy
    std::uint64_t delivered = 0;   ///< bytes handed to the application
    std::uint64_t next_expected = 0;
    std::uint64_t overlap_bytes = 0;  ///< bytes delivered more than once
    std::uint64_t ooo_deliveries = 0; ///< out-of-order deliveries on an ordered stream
    sack::interval_set ranges;        ///< delivered [begin,end) ranges
};

/// Everything observed about one flow by the end of the run.
struct flow_observation {
    std::uint32_t flow_id = 0;
    bool established = false;
    bool client_closed = false;
    bool server_closed = false;
    vtp::session_stats client_stats{};
    vtp::session_stats server_stats{};
    std::vector<stream::stream_info> sender_streams;
    std::map<std::uint32_t, stream_delivery> streams;
    std::uint32_t packet_size = 1000;
    double guaranteed_rate_bps = 0.0; ///< active gTFRC floor at run end
    /// End-of-run path tables (empty unless the spec arms mobility).
    std::vector<path::path_info> client_paths;
    std::vector<path::path_info> server_paths;
};

/// Mobility accounting observed during a path-enabled run
/// (scenario_spec::mobility). Like the flood block, deliberately outside
/// the trace hash: estimator-level fields (rates, srtt) may evolve
/// without invalidating the frozen delivery oracle.
struct mobility_observation {
    bool enabled = false;
    /// Sender allowed rate sampled just before the rebind/migrate event
    /// and again 1.5 s later — the CC-continuity evidence (a slow-start
    /// restart would crater the second sample).
    double rate_before_bps = 0.0;
    double rate_after_bps = 0.0;
    std::uint32_t cc_swaps_at_event = 0; ///< client cc_swaps_applied at sample time
    std::uint64_t spoofs_injected = 0;   ///< forged datagrams the runner injected
};

/// Accept-path guard accounting observed during a SYN-flooded run
/// (scenario_spec::synflood). Deliberately outside the trace hash.
struct flood_observation {
    bool enabled = false;
    std::uint64_t syns_injected = 0;   ///< spoofed SYNs the runner injected
    std::uint64_t retries_sent = 0;    ///< stateless cookies minted
    std::uint64_t cookies_validated = 0;
    std::uint64_t cookies_rejected = 0;
    std::uint64_t rate_limited = 0;    ///< SYN + stray bucket denials
    std::uint64_t amp_limited = 0;     ///< retries withheld by the 3x budget
    std::uint64_t shed = 0;            ///< admission refusals (caps)
    std::uint64_t total_accepted = 0;  ///< sessions spawned across all servers
    std::size_t max_half_open_seen = 0; ///< peak of the sampled gauge
    std::size_t half_open_cap = 0;      ///< configured max_half_open
};

struct scenario_result {
    std::string name;
    std::uint64_t seed = 0;
    bool passed = false;
    std::vector<invariant_violation> violations;
    std::vector<delivery_event> trace;
    /// FNV-1a over every delivery event and the final per-flow counters:
    /// two same-seed runs must agree bit-for-bit.
    std::uint64_t trace_hash = 0;
    std::uint64_t events = 0; ///< scheduler events executed
    util::sim_time finished_at = 0;
    bool hit_deadline = false; ///< the run was cut off before every flow closed
    std::vector<flow_observation> flows;

    /// Received payload bytes checked against the deterministic send
    /// pattern (util/pattern.hpp); check_delivery_integrity requires no
    /// mismatch and every delivered byte verified.
    std::uint64_t payload_bytes_verified = 0;
    std::uint64_t payload_bytes_mismatched = 0;

    /// SYN-flood accounting (all zeros unless the spec enables a flood).
    flood_observation flood{};

    /// Mobility accounting (inert unless the spec arms mobility).
    mobility_observation mobility{};
};

/// A checker appends violations to `result.violations`.
using invariant_checker = std::function<void(const scenario_spec&, scenario_result&)>;

struct named_invariant {
    std::string name;
    invariant_checker check;
};

/// The standard checker set, in evaluation order.
const std::vector<named_invariant>& default_invariants();

// Individual checkers (exposed for focused tests).
void check_delivery_integrity(const scenario_spec& spec, scenario_result& result);
void check_close_termination(const scenario_spec& spec, scenario_result& result);
void check_tfrc_equation_bound(const scenario_spec& spec, scenario_result& result);
void check_stats_consistency(const scenario_spec& spec, scenario_result& result);
void check_flood_containment(const scenario_spec& spec, scenario_result& result);
/// Migration happened, the CC controller survived it (no swap, no
/// slow-start crater) and every validation counter is coherent.
void check_migration_continuity(const scenario_spec& spec, scenario_result& result);
/// No spoofed (never-validated) path ever received more than
/// amplification_factor x the bytes heard from it, and no forged token
/// validated anything.
void check_path_containment(const scenario_spec& spec, scenario_result& result);
/// Dual-path: aggregate goodput >= min_goodput_factor x the best single
/// link, both paths actually carried data, and each path's delivered
/// rate stayed inside the TFRC-friendly band for its measured (p, rtt).
void check_dualpath_goodput(const scenario_spec& spec, scenario_result& result);

} // namespace vtp::testing
