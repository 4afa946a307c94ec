#include "testing/invariants.hpp"

#include <sstream>

#include "tfrc/equation.hpp"

namespace vtp::testing {

namespace {

void violate(scenario_result& result, const std::string& invariant, std::string detail) {
    result.violations.push_back({invariant, std::move(detail)});
}

std::string stream_label(const flow_observation& f, std::uint32_t stream) {
    std::ostringstream os;
    os << "flow " << f.flow_id << " stream " << stream;
    return os.str();
}

/// Decoder-accepted garbage can only reach the transport when a corrupt
/// impairment explicitly opts into mutant delivery; the default
/// (checksum-drop) mode gets no integrity exemptions.
bool scenario_delivers_mutants(const scenario_spec& spec) {
    for (const auto& imp : spec.impairments)
        if (imp.what == impairment_spec::kind::corrupt && imp.probability > 0 &&
            imp.deliver_mutants)
            return true;
    return false;
}

} // namespace

void check_delivery_integrity(const scenario_spec& spec, scenario_result& result) {
    const std::string inv = "delivery-integrity";
    const bool corrupting = scenario_delivers_mutants(spec);
    for (const auto& f : result.flows) {
        for (const auto& [id, s] : f.streams) {
            const std::string label = stream_label(f, id);
            if (!s.opened_by_sender) {
                // A stream the sender never opened can only come from
                // decoder-accepted garbage; without a corrupt impairment
                // its existence is itself a violation.
                if (!corrupting)
                    violate(result, inv, label + ": delivered on a stream the sender never opened");
                continue;
            }
            if (s.overlap_bytes > 0) {
                std::ostringstream os;
                os << label << ": " << s.overlap_bytes << " bytes delivered more than once";
                violate(result, inv, os.str());
            }
            if (s.check_mode == sack::reliability_mode::full && s.ooo_deliveries > 0) {
                std::ostringstream os;
                os << label << ": " << s.ooo_deliveries
                   << " out-of-order deliveries on a fully reliable stream";
                violate(result, inv, os.str());
            }
            switch (s.check_mode) {
            case sack::reliability_mode::full:
                // With mutants delivered into the transport, byte-
                // exactness is unachievable by design (mutated seq/offset
                // fields forge phantom acks — the wire format carries no
                // integrity protection); those scenarios assert liveness
                // and the ordering/duplication checks above instead.
                if (s.delivered != s.offered && !corrupting) {
                    std::ostringstream os;
                    os << label << ": fully reliable stream delivered " << s.delivered
                       << " of " << s.offered << " offered bytes";
                    violate(result, inv, os.str());
                }
                break;
            case sack::reliability_mode::partial:
                if (s.delivered > s.offered && !corrupting) {
                    std::ostringstream os;
                    os << label << ": delivered " << s.delivered << " > offered " << s.offered;
                    violate(result, inv, os.str());
                }
                // Hole bound: every byte is delivered, abandoned by the
                // partial policy, or part of the small unsettled tail —
                // ranges whose retransmission was itself in flight (loss
                // not yet finalised) when the sender declared completion.
                // That tail is bounded by a few packets; anything larger
                // is a real reliability hole.
                if (s.delivered + s.abandoned + 8ull * f.packet_size < s.offered) {
                    std::ostringstream os;
                    os << label << ": hole not bounded by the partial policy — delivered "
                       << s.delivered << " + abandoned " << s.abandoned
                       << " + unsettled-tail allowance < offered " << s.offered;
                    violate(result, inv, os.str());
                }
                break;
            case sack::reliability_mode::none:
                if (s.delivered > s.offered && !corrupting) {
                    std::ostringstream os;
                    os << label << ": delivered " << s.delivered << " > offered " << s.offered;
                    violate(result, inv, os.str());
                }
                break;
            }
        }
        // Total-blackhole detection: a stream that offered bytes must
        // have delivered *something* — even no-reliability streams under
        // heavy impairment get a nonzero fraction through. (Checked via
        // the delivered counter, not map membership: the runner creates
        // an accounting entry for every sender stream.)
        for (const auto& info : f.sender_streams) {
            if (info.bytes_offered == 0) continue;
            const auto it = f.streams.find(info.id);
            if (it == f.streams.end() || it->second.delivered == 0) {
                std::ostringstream os;
                os << "flow " << f.flow_id << " stream " << info.id << ": "
                   << info.bytes_offered << " bytes offered but nothing ever delivered";
                violate(result, inv, os.str());
            }
        }
    }
    // Payload integrity: every drained byte matches the send pattern,
    // and every byte the endpoints counted as delivered reached the
    // application (a chunk dropped at a full receive buffer shows here).
    // Delivered mutants carry flipped bytes and phantom streams by
    // design, so those scenarios are exempt, as above.
    if (corrupting) return;
    std::uint64_t delivered = 0;
    for (const auto& f : result.flows) delivered += f.server_stats.bytes_delivered;
    if (result.payload_bytes_mismatched > 0) {
        std::ostringstream os;
        os << result.payload_bytes_mismatched << " delivered bytes differ from the sent pattern";
        violate(result, inv, os.str());
    }
    if (result.payload_bytes_verified != delivered) {
        std::ostringstream os;
        os << result.payload_bytes_verified << " payload bytes verified but the endpoints "
           << "delivered " << delivered;
        violate(result, inv, os.str());
    }
}

void check_close_termination(const scenario_spec& spec, scenario_result& result) {
    const std::string inv = "close-termination";
    for (const auto& f : result.flows) {
        if (!f.established) {
            std::ostringstream os;
            os << "flow " << f.flow_id << ": never established";
            violate(result, inv, os.str());
            continue;
        }
        if (!f.client_closed) {
            std::ostringstream os;
            os << "flow " << f.flow_id << ": client close() did not terminate within "
               << util::to_seconds(spec.deadline()) << "s";
            violate(result, inv, os.str());
        }
        if (!f.server_closed) {
            std::ostringstream os;
            os << "flow " << f.flow_id << ": server never saw the peer's FIN";
            violate(result, inv, os.str());
        }
    }
}

void check_tfrc_equation_bound(const scenario_spec& spec, scenario_result& result) {
    if (spec.tfrc_bound_factor <= 0) return;
    const std::string inv = "tfrc-equation-bound";
    for (const auto& f : result.flows) {
        const auto& st = f.client_stats;
        // Window-based senders (NewReno/Westwood) are not bound by the
        // TFRC equation; the check only judges equation-controlled flows.
        if (st.cc_algorithm != cc::algorithm_id::tfrc) continue;
        const double p = st.loss_event_rate;
        const double rtt_s = util::to_seconds(st.rtt);
        if (p <= 0 || rtt_s <= 0 || st.allowed_rate_bps <= 0) continue;
        tfrc::equation_params eq;
        eq.packet_size_bytes = static_cast<double>(f.packet_size);
        const double x_bps = tfrc::throughput_bytes_per_second(eq, rtt_s, p) * 8.0;
        const double floor_bps = f.guaranteed_rate_bps;
        const double bound = spec.tfrc_bound_factor * std::max(x_bps, floor_bps);
        if (st.allowed_rate_bps > bound) {
            std::ostringstream os;
            os << "flow " << f.flow_id << ": allowed rate " << st.allowed_rate_bps
               << " b/s exceeds " << spec.tfrc_bound_factor << "x equation bound " << bound
               << " b/s (p=" << p << ", rtt=" << rtt_s << "s, gTFRC floor=" << floor_bps
               << ")";
            violate(result, inv, os.str());
        }
    }
}

void check_stats_consistency(const scenario_spec& spec, scenario_result& result) {
    (void)spec;
    const std::string inv = "stats-consistency";
    for (const auto& f : result.flows) {
        const auto& cs = f.client_stats;
        const auto& ss = f.server_stats;
        if (cs.stream_bytes_acked > cs.stream_bytes_sent) {
            std::ostringstream os;
            os << "flow " << f.flow_id << ": acked " << cs.stream_bytes_acked << " > sent "
               << cs.stream_bytes_sent;
            violate(result, inv, os.str());
        }
        if (cs.stream_bytes_sent > cs.stream_bytes_queued) {
            std::ostringstream os;
            os << "flow " << f.flow_id << ": sent " << cs.stream_bytes_sent << " > queued "
               << cs.stream_bytes_queued;
            violate(result, inv, os.str());
        }
        if (f.established && cs.packets_sent == 0) {
            std::ostringstream os;
            os << "flow " << f.flow_id << ": established but no packets sent";
            violate(result, inv, os.str());
        }
        for (const auto& info : f.sender_streams) {
            std::ostringstream os;
            if (info.bytes_acked > info.bytes_sent) {
                os << stream_label(f, info.id) << ": acked " << info.bytes_acked << " > sent "
                   << info.bytes_sent;
                violate(result, inv, os.str());
            } else if (info.bytes_sent > info.bytes_offered) {
                os << stream_label(f, info.id) << ": sent " << info.bytes_sent << " > offered "
                   << info.bytes_offered;
                violate(result, inv, os.str());
            } else if (info.abandoned_bytes > info.bytes_offered) {
                os << stream_label(f, info.id) << ": abandoned " << info.abandoned_bytes
                   << " > offered " << info.bytes_offered;
                violate(result, inv, os.str());
            }
        }
        if (ss.bytes_delivered > ss.bytes_received) {
            std::ostringstream os;
            os << "flow " << f.flow_id << ": delivered " << ss.bytes_delivered
               << " > received " << ss.bytes_received;
            violate(result, inv, os.str());
        }
        if (f.established && ss.packets_received == 0) {
            std::ostringstream os;
            os << "flow " << f.flow_id << ": established but server received no packets";
            violate(result, inv, os.str());
        }
        // The drained chunks and the stats counter must agree: what the
        // application was handed is what the endpoint accounted.
        std::uint64_t drained_bytes = 0;
        for (const auto& [id, s] : f.streams) drained_bytes += s.delivered;
        if (drained_bytes != ss.bytes_delivered) {
            std::ostringstream os;
            os << "flow " << f.flow_id << ": recv_chunk() handed " << drained_bytes
               << " bytes but the stats counter says " << ss.bytes_delivered;
            violate(result, inv, os.str());
        }
        // Events are edge-triggered: a dropped one can strand a consumer.
        if (cs.events_dropped > 0 || ss.events_dropped > 0) {
            std::ostringstream os;
            os << "flow " << f.flow_id << ": events lost to a full queue (client "
               << cs.events_dropped << ", server " << ss.events_dropped << ")";
            violate(result, inv, os.str());
        }
    }
}

void check_flood_containment(const scenario_spec& spec, scenario_result& result) {
    if (!spec.synflood.enabled() || !result.flood.enabled) return;
    const std::string inv = "flood-containment";
    const flood_observation& fl = result.flood;
    // Zero unvalidated-source sessions: every spoofed SYN must die at the
    // cookie gate, so the only sessions ever spawned are the legitimate
    // flows (each of which cleared a retry round-trip).
    if (fl.total_accepted != result.flows.size()) {
        std::ostringstream os;
        os << "servers accepted " << fl.total_accepted << " sessions but only "
           << result.flows.size() << " legitimate flows exist (" << fl.syns_injected
           << " spoofed SYNs injected)";
        violate(result, inv, os.str());
    }
    if (fl.retries_sent == 0) {
        std::ostringstream os;
        os << "no retry cookies were ever sent despite " << fl.syns_injected
           << " injected SYNs — the guard never engaged";
        violate(result, inv, os.str());
    }
    if (fl.cookies_validated < result.flows.size()) {
        std::ostringstream os;
        os << "only " << fl.cookies_validated << " cookies validated for "
           << result.flows.size() << " legitimate flows";
        violate(result, inv, os.str());
    }
    if (fl.half_open_cap > 0 && fl.max_half_open_seen > fl.half_open_cap) {
        std::ostringstream os;
        os << "half-open gauge peaked at " << fl.max_half_open_seen
           << " above the configured cap " << fl.half_open_cap;
        violate(result, inv, os.str());
    }
}

void check_migration_continuity(const scenario_spec& spec, scenario_result& result) {
    if (!spec.mobility.enabled || !spec.mobility.expect_migration()) return;
    if (result.flows.empty()) return;
    const std::string inv = "migration-continuity";
    const flow_observation& f = result.flows[0];
    const std::uint64_t migrations =
        f.client_stats.path.migrations + f.server_stats.path.migrations;
    if (migrations == 0) {
        violate(result, inv,
                "no endpoint ever switched its active path despite a scheduled "
                "rebind/migrate event");
    }
    // A passive rebind is detected and followed by the *server* (the
    // client's address changed under it); an explicit migrate() switches
    // the *client*. Check the side the event targets.
    if (spec.mobility.rebind_at > 0 && f.server_stats.path.migrations == 0)
        violate(result, inv, "server never followed the client's rebound address");
    if (spec.mobility.migrate_at > 0 && f.client_stats.path.migrations == 0)
        violate(result, inv, "client migrate() never switched the active path");
    // CC continuity: the same controller instance must keep pacing across
    // the switch — no mid-flow algorithm swap was applied by migration,
    // and the allowed rate did not crater to a slow-start restart.
    if (f.client_stats.cc_swaps_applied != result.mobility.cc_swaps_at_event) {
        std::ostringstream os;
        os << "cc controller was swapped across the migration (swaps "
           << result.mobility.cc_swaps_at_event << " -> "
           << f.client_stats.cc_swaps_applied << ")";
        violate(result, inv, os.str());
    }
    if (result.mobility.rate_before_bps > 0 &&
        result.mobility.rate_after_bps < 0.2 * result.mobility.rate_before_bps) {
        std::ostringstream os;
        os << "allowed rate cratered across the migration: "
           << result.mobility.rate_before_bps << " b/s before, "
           << result.mobility.rate_after_bps
           << " b/s 1.5s after (slow-start restart signature)";
        violate(result, inv, os.str());
    }
}

void check_path_containment(const scenario_spec& spec, scenario_result& result) {
    if (!spec.mobility.enabled || !spec.mobility.spoof_enabled()) return;
    if (result.flows.empty()) return;
    const std::string inv = "path-containment";
    const double factor = spec.flows[0].options.path.amplification_factor;
    auto audit = [&](const char* side, const std::vector<path::path_info>& paths) {
        for (const auto& p : paths) {
            const bool spoofed = p.remote >= 0xB0000000u;
            if (spoofed && p.state == path::path_state::validated) {
                std::ostringstream os;
                os << side << ": spoofed address " << p.remote
                   << " was validated — a forged token was accepted";
                violate(result, inv, os.str());
            }
            // The amplification bound applies to every path we did not
            // probe on our own initiative until it validates.
            if (!p.locally_initiated && p.state != path::path_state::validated &&
                static_cast<double>(p.bytes_sent) >
                    factor * static_cast<double>(p.bytes_received)) {
                std::ostringstream os;
                os << side << ": unvalidated path " << p.remote << " was sent "
                   << p.bytes_sent << " bytes against " << p.bytes_received
                   << " received (budget factor " << factor << ")";
                violate(result, inv, os.str());
            }
        }
    };
    for (const auto& f : result.flows) {
        audit("client", f.client_paths);
        audit("server", f.server_paths);
    }
    // The attack surface actually engaged: forged tokens were seen and
    // rejected, and no spoofed path ever carried steered data.
    const flow_observation& f0 = result.flows[0];
    if (result.mobility.spoofs_injected > 0 &&
        f0.server_stats.path.responses_rejected == 0) {
        violate(result, inv,
                "forged path_responses were injected but none was counted as "
                "rejected — the token check never ran");
    }
    for (const auto& p : f0.server_paths) {
        if (p.remote >= 0xB0000000u && p.packets_sent > 0) {
            std::ostringstream os;
            os << "server steered " << p.packets_sent
               << " data packets to spoofed address " << p.remote;
            violate(result, inv, os.str());
        }
    }
}

void check_dualpath_goodput(const scenario_spec& spec, scenario_result& result) {
    if (!spec.mobility.enabled || spec.mobility.min_goodput_factor <= 0) return;
    if (result.flows.empty()) return;
    const std::string inv = "dualpath-goodput";
    const flow_observation& f = result.flows[0];
    // Both legs must have validated and actually carried acked data.
    std::size_t carrying = 0;
    for (const auto& p : f.client_paths)
        if (p.state == path::path_state::validated && p.packets_acked > 0) ++carrying;
    if (carrying < 2) {
        std::ostringstream os;
        os << "only " << carrying
           << " validated path(s) carried acked data; dual-path striping never engaged";
        violate(result, inv, os.str());
        return;
    }
    const double seconds = util::to_seconds(result.finished_at);
    const double goodput_bps =
        seconds > 0 ? static_cast<double>(f.server_stats.bytes_delivered) * 8.0 / seconds
                    : 0.0;
    const double best_single =
        std::max(spec.bottleneck_rate_bps, spec.mobility.alt_rate_bps);
    const double bar = spec.mobility.min_goodput_factor * best_single;
    if (goodput_bps < bar) {
        std::ostringstream os;
        os << "aggregate goodput " << goodput_bps << " b/s below "
           << spec.mobility.min_goodput_factor << "x best single link (" << bar
           << " b/s)";
        violate(result, inv, os.str());
    }
    // Per-path friendliness: each leg's delivered rate must stay inside
    // the TFRC band for its own measured (p, rtt) — striping must not
    // turn one leg into an unresponsive firehose.
    for (const auto& p : f.client_paths) {
        if (p.state != path::path_state::validated) continue;
        if (p.loss_rate < 1e-3 || p.srtt == 0 || p.delivery_rate_bps <= 0) continue;
        tfrc::equation_params eq;
        eq.packet_size_bytes = static_cast<double>(f.packet_size);
        const double x_bps =
            tfrc::throughput_bytes_per_second(eq, util::to_seconds(p.srtt), p.loss_rate) *
            8.0;
        if (p.delivery_rate_bps > 3.0 * x_bps) {
            std::ostringstream os;
            os << "path " << p.remote << " delivered " << p.delivery_rate_bps
               << " b/s, above 3x its TFRC equation rate " << x_bps << " b/s (p="
               << p.loss_rate << ", srtt=" << util::to_seconds(p.srtt) << "s)";
            violate(result, inv, os.str());
        }
    }
}

const std::vector<named_invariant>& default_invariants() {
    static const std::vector<named_invariant> all = {
        {"delivery-integrity", check_delivery_integrity},
        {"close-termination", check_close_termination},
        {"tfrc-equation-bound", check_tfrc_equation_bound},
        {"stats-consistency", check_stats_consistency},
        {"flood-containment", check_flood_containment},
        {"migration-continuity", check_migration_continuity},
        {"path-containment", check_path_containment},
        {"dualpath-goodput", check_dualpath_goodput},
    };
    return all;
}

} // namespace vtp::testing
