#include "testing/scenario_runner.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <vector>

#include "api/server.hpp"
#include "api/session.hpp"
#include "diffserv/conditioner.hpp"
#include "diffserv/rio.hpp"
#include "sim/handover.hpp"
#include "sim/impairment.hpp"
#include "sim/nat.hpp"
#include "sim/topology.hpp"
#include "util/pattern.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace vtp::testing {

namespace {

constexpr std::size_t max_trace_events = 500'000;

/// Weakest-reliability ordering: none < partial < full.
int mode_rank(sack::reliability_mode m) {
    switch (m) {
    case sack::reliability_mode::none: return 0;
    case sack::reliability_mode::partial: return 1;
    case sack::reliability_mode::full: return 2;
    }
    return 0;
}

sack::reliability_mode weakest(sack::reliability_mode a, sack::reliability_mode b) {
    return mode_rank(a) <= mode_rank(b) ? a : b;
}

/// The weakest reliability a profile-following stream ran under at any
/// point of the flow's life: initial profile, every proposed profile,
/// and whatever was finally active (proposals may be downgraded).
sack::reliability_mode weakest_profile_mode(const flow_spec& flow,
                                            const qtp::profile& final_active) {
    sack::reliability_mode m = flow.options.profile.reliability;
    for (const auto& r : flow.renegs) m = weakest(m, r.profile.reliability);
    return weakest(m, final_active.reliability);
}

std::unique_ptr<sim::loss_model> make_loss(const impairment_spec& imp, std::uint64_t seed) {
    if (imp.what == impairment_spec::kind::burst)
        return std::make_unique<sim::gilbert_elliott_loss>(imp.burst, seed);
    return std::make_unique<sim::bernoulli_loss>(imp.probability, seed);
}

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
        hash ^= (value >> (8 * i)) & 0xFF;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}
constexpr std::uint64_t fnv_offset = 0xcbf29ce484222325ULL;

} // namespace

using util::pattern_buffer;
using util::pattern_byte;

scenario_result run_scenario(const scenario_spec& spec, std::uint64_t seed,
                             bool collect_trace) {
    scenario_run_options opts;
    opts.seed = seed;
    opts.collect_trace = collect_trace;
    return run_scenario(spec, opts);
}

scenario_result run_scenario(const scenario_spec& spec, const scenario_run_options& opts) {
    scenario_result result;
    result.name = spec.name;
    result.seed = opts.seed == 0 ? spec.seed : opts.seed;
    const bool collect_trace = opts.collect_trace;
    const std::uint64_t run_seed = result.seed;

    // Deterministic seed derivation chain: every random element gets its
    // own splitmix64-derived stream, so adding an impairment never
    // perturbs the seeds of the others.
    std::uint64_t mix = run_seed * 0x9e3779b97f4a7c15ULL + 0x1234567;
    auto next_seed = [&mix] { return util::splitmix64(mix); };

    sim::dumbbell_config cfg;
    cfg.pairs = spec.flows.size();
    cfg.access_rate_bps = 100e6;
    cfg.access_delay = util::milliseconds(1);
    cfg.bottleneck_rate_bps = spec.bottleneck_rate_bps;
    cfg.bottleneck_delay = spec.bottleneck_delay;
    cfg.bottleneck_queue_packets = spec.queue_packets;
    cfg.seed = run_seed;
    if (spec.rio_queue) {
        const std::uint64_t rio_seed = next_seed();
        cfg.bottleneck_queue = [rio_seed] {
            return std::make_unique<diffserv::rio_queue>(diffserv::default_rio_params(60, 1050),
                                                         rio_seed);
        };
    }
    sim::dumbbell net(cfg);

    // --- impairment chains, one per direction ---------------------------
    std::vector<std::unique_ptr<sim::impairment_node>> impairments;
    auto build_chain = [&](bool ack_path) {
        sim::impairment_node* head = nullptr;
        sim::impairment_node* tail = nullptr;
        for (const auto& imp : spec.impairments) {
            if (imp.on_ack_path != ack_path) continue;
            auto node = std::make_unique<sim::impairment_node>(
                static_cast<std::uint32_t>((ack_path ? 20000 : 10000) + impairments.size()),
                net.sched(), next_seed());
            switch (imp.what) {
            case impairment_spec::kind::bernoulli:
            case impairment_spec::kind::burst:
                node->set_loss_model(make_loss(imp, next_seed()));
                break;
            case impairment_spec::kind::reorder:
                node->set_reorder({imp.probability, imp.min_delay, imp.max_delay});
                break;
            case impairment_spec::kind::duplicate:
                node->set_duplicate({imp.probability, 0});
                break;
            case impairment_spec::kind::corrupt:
                node->set_corrupt({imp.probability, imp.max_bit_flips, imp.deliver_mutants});
                break;
            }
            node->set_active_window(imp.start, imp.stop);
            if (tail != nullptr) tail->set_downstream(node.get());
            if (head == nullptr) head = node.get();
            tail = node.get();
            impairments.push_back(std::move(node));
        }
        if (head == nullptr) return;
        if (!ack_path) {
            tail->set_downstream(&net.right_router());
            net.forward_bottleneck().set_destination(head);
        } else {
            tail->set_downstream(&net.left_router());
            net.reverse_bottleneck().set_destination(head);
        }
    };
    build_chain(false);
    build_chain(true);

    // --- handover schedule ---------------------------------------------
    sim::handover_link handover(net.sched(), net.forward_bottleneck(),
                                &net.reverse_bottleneck());
    for (const auto& h : spec.handovers) {
        sim::handover_phase phase;
        phase.at = h.at;
        phase.rate_bps = h.rate_bps;
        phase.delay = h.delay;
        phase.replace_loss = h.replace_loss;
        if (h.replace_loss && h.loss_probability > 0) {
            const double p = h.loss_probability;
            // Stateful factory: forward and reverse instances get
            // distinct (but seed-determined) streams.
            auto calls = std::make_shared<std::uint64_t>(0);
            const std::uint64_t base = next_seed();
            phase.loss = [p, base, calls]() -> std::unique_ptr<sim::loss_model> {
                return std::make_unique<sim::bernoulli_loss>(p, base + (*calls)++);
            };
        }
        handover.add_phase(std::move(phase));
    }
    handover.start();

    // --- mobility: NAT rebind + alternate link -------------------------
    // The NAT interposes on flow 0's access links (both directions) and
    // flips its mapping at rebind_at: the server suddenly sees the
    // client's packets from a new source address and must migrate. The
    // alternate link is a second, asymmetric route from the left router
    // straight to an alias of flow 0's server host — the explicit
    // migrate()/add_path() target.
    const std::uint32_t alias_addr = 900;
    std::unique_ptr<sim::nat_node> nat;
    std::unique_ptr<sim::node> alias;
    std::unique_ptr<sim::link> alt_link;
    if (spec.mobility.enabled && spec.mobility.rebind_at > 0 && !spec.flows.empty()) {
        const std::uint32_t internal = net.left_addr(0);
        const std::uint32_t external = internal + spec.mobility.rebind_shift;
        nat = std::make_unique<sim::nat_node>(30000, internal, external);
        nat->set_inside(&net.left_node(0));
        nat->set_outside(&net.left_router());
        net.left_uplink(0).set_destination(nat.get());
        net.left_downlink(0).set_destination(nat.get());
        net.left_router().add_route(external, &net.left_downlink(0));
        net.sched().at(spec.mobility.rebind_at, [&nat] { nat->activate(); });
    }
    if (spec.mobility.enabled && spec.mobility.alt_link && !spec.flows.empty()) {
        alias = std::make_unique<sim::node>(alias_addr);
        net.right_host(0).attach_alias(*alias);
        const sim::link::config alt_cfg{spec.mobility.alt_rate_bps,
                                        spec.mobility.alt_delay};
        alt_link = std::make_unique<sim::link>(
            net.sched(), alt_cfg, sim::make_drop_tail(spec.queue_packets, 1500));
        alt_link->set_destination(alias.get());
        net.left_router().add_route(alias_addr, alt_link.get());
    }

    // --- DiffServ edge (AF marking for flow 0) -------------------------
    diffserv::conditioner edge(net.sched());
    if (spec.af_commit_bps > 0) {
        edge.set_profile(1, spec.af_commit_bps,
                         static_cast<std::size_t>(spec.af_commit_bps / 8.0 * 0.03));
        edge.install_egress(net.left_node(0));
    }

    // --- flows ----------------------------------------------------------
    const std::size_t n = spec.flows.size();
    std::vector<std::unique_ptr<vtp::server>> servers;
    std::vector<vtp::session> clients(n);
    std::vector<vtp::session*> accepted(n, nullptr);
    result.flows.resize(n);

    std::uint64_t hash = fnv_offset;
    auto record = [&](std::size_t i, std::uint32_t stream, std::uint64_t offset,
                      std::uint32_t len, util::sim_time at) {
        if (len == 0) return;
        auto& obs = result.flows[i];
        auto& s = obs.streams[stream];
        s.overlap_bytes += s.ranges.covered_in(offset, offset + len);
        s.ranges.add(offset, offset + len);
        if (offset != s.next_expected) ++s.ooo_deliveries;
        s.next_expected = std::max(s.next_expected, offset + len);
        s.delivered += len;
        hash = fnv1a(hash, obs.flow_id);
        hash = fnv1a(hash, stream);
        hash = fnv1a(hash, offset);
        hash = fnv1a(hash, len);
        hash = fnv1a(hash, static_cast<std::uint64_t>(at));
        if (collect_trace && result.trace.size() < max_trace_events)
            result.trace.push_back({obs.flow_id, stream, offset, len, at});
    };

    // Flight recorder: both endpoints of every flow share one sink (the
    // simulator is single-threaded, so the interleaving — and therefore
    // the spilled byte stream — is seed-deterministic).
    std::size_t trace_ring = opts.trace_ring_records;
    if (opts.trace_sink != nullptr && trace_ring == 0) trace_ring = 4096;

    for (std::size_t i = 0; i < n; ++i) {
        server_options server_opts{};
        server_opts.trace_ring_records = trace_ring;
        server_opts.trace_sink = opts.trace_sink;
        if (spec.mobility.enabled) {
            // Accepted sessions need a live path manager to answer
            // challenges, detect the client's rebind passively and keep
            // spoofed sources inside the amplification budget.
            server_opts.path.enabled = true;
            // The receiver must know the peer may stripe: its loss
            // detector needs the multipath reorder tolerance.
            server_opts.path.multipath = spec.mobility.multipath;
        }
        if (spec.synflood.enabled()) {
            // Flooded runs arm the full accept-path guard: stateless
            // retry cookies (legitimate clients pay one extra RTT), a
            // half-open cap, and a short handshake deadline so any
            // half-open that does form is reaped quickly.
            server_opts.guard.retry_cookies = true;
            server_opts.max_half_open = spec.synflood.max_half_open;
            server_opts.handshake_deadline = util::seconds(2);
        }
        servers.push_back(
            std::make_unique<vtp::server>(net.right_host(i), server_opts));
        // First accept wins: under a flood a rogue session slipping the
        // gate must not clobber the legitimate flow's handle
        // (check_flood_containment counts it separately).
        servers.back()->set_on_session([&, i](vtp::session& s) {
            if (accepted[i] == nullptr) accepted[i] = &s;
        });
    }

    // Drain every delivered chunk of every accepted session, record it
    // and verify its bytes against the send pattern. Chunks carry their
    // delivery timestamp; recording them in timestamp order (stable, so
    // equal stamps keep drain order) makes the hash input the global
    // delivery order rather than the (flow, stream) drain order. Every
    // endpoint's event queue is drained too, so a long run never loses
    // events to a full ring (check_stats_consistency).
    struct drained {
        std::size_t flow;
        std::uint32_t stream;
        stream::ready_chunk chunk;
    };
    std::vector<drained> pending;
    auto drain = [&] {
        drained d{};
        for (std::size_t i = 0; i < n; ++i) {
            if (accepted[i] == nullptr) continue;
            d.flow = i;
            while (accepted[i]->recv_chunk(d.stream, d.chunk))
                pending.push_back(std::move(d));
        }
        std::stable_sort(pending.begin(), pending.end(),
                         [](const drained& a, const drained& b) {
                             return a.chunk.at < b.chunk.at;
                         });
        for (const drained& p : pending) {
            const auto& bytes = p.chunk.bytes;
            record(p.flow, p.stream, p.chunk.offset,
                   static_cast<std::uint32_t>(bytes.size()), p.chunk.at);
            const std::uint32_t flow_id = result.flows[p.flow].flow_id;
            for (std::size_t k = 0; k < bytes.size(); ++k) {
                if (bytes[k] == pattern_byte(flow_id, p.stream, p.chunk.offset + k))
                    ++result.payload_bytes_verified;
                else
                    ++result.payload_bytes_mismatched;
            }
        }
        pending.clear();
        vtp::event evs[64];
        for (std::size_t i = 0; i < n; ++i) {
            while (clients[i].poll(evs, 64) > 0) {}
            if (accepted[i] != nullptr)
                while (accepted[i]->poll(evs, 64) > 0) {}
        }
    };

    for (std::size_t i = 0; i < n; ++i) {
        const flow_spec& flow = spec.flows[i];
        session_options sopts = flow.options;
        if (spec.mobility.enabled) {
            sopts.path.enabled = true;
            sopts.path.multipath = spec.mobility.multipath;
        }
        if (opts.cc_override) sopts.profile.congestion = *opts.cc_override;
        sopts.trace_ring_records = trace_ring;
        sopts.trace_sink = opts.trace_sink;
        sopts.flow_id = static_cast<std::uint32_t>(i + 1);
        result.flows[i].flow_id = sopts.flow_id;
        result.flows[i].packet_size = sopts.packet_size;

        clients[i] = vtp::session::connect(net.left_host(i), net.right_addr(i), sopts);
        clients[i].send(0, pattern_buffer(sopts.flow_id, 0, flow.bytes));
        for (const auto& extra : flow.extra_streams) {
            const std::uint32_t sid = clients[i].open_stream(extra.options);
            if (sid == stream::invalid_stream) continue;
            clients[i].send(sid, pattern_buffer(sopts.flow_id, sid, extra.bytes));
        }
        for (reneg_spec reneg : flow.renegs) {
            // A forced-algorithm run must stay on that algorithm across
            // renegotiations, or the override would silently revert.
            if (opts.cc_override) reneg.profile.congestion = *opts.cc_override;
            net.sched().at(reneg.at, [&, i, reneg] {
                if (reneg.from_receiver) {
                    if (accepted[i] != nullptr) accepted[i]->renegotiate(reneg.profile);
                } else {
                    clients[i].renegotiate(reneg.profile);
                }
            });
        }
        if (flow.close_at > 0) {
            net.sched().at(flow.close_at, [&, i] { clients[i].close(); });
        } else {
            clients[i].close();
        }
    }

    // --- mobility events ------------------------------------------------
    result.mobility.enabled = spec.mobility.enabled;
    std::uint64_t spoofs_injected = 0;
    if (spec.mobility.enabled && n > 0) {
        if (spec.mobility.migrate_at > 0) {
            net.sched().at(spec.mobility.migrate_at,
                           [&clients, alias_addr] { clients[0].migrate(alias_addr); });
        }
        if (spec.mobility.add_path_at > 0) {
            net.sched().at(spec.mobility.add_path_at,
                           [&clients, alias_addr] { clients[0].add_path(alias_addr); });
        }
        // CC-continuity evidence: sample the sender's allowed rate just
        // before the mobility event and again 1.5 s later. A slow-start
        // restart would crater the second sample; a carried controller
        // keeps pacing through the switch.
        if (spec.mobility.expect_migration()) {
            const util::sim_time ev = spec.mobility.rebind_at > 0
                                          ? spec.mobility.rebind_at
                                          : spec.mobility.migrate_at;
            const util::sim_time before =
                ev > util::milliseconds(50) ? ev - util::milliseconds(50) : 0;
            net.sched().at(before, [&result, &clients] {
                const vtp::session_stats st = clients[0].stats();
                result.mobility.rate_before_bps = st.allowed_rate_bps;
                result.mobility.cc_swaps_at_event = st.cc_swaps_applied;
            });
            net.sched().at(ev + util::milliseconds(1500), [&result, &clients] {
                result.mobility.rate_after_bps = clients[0].stats().allowed_rate_bps;
            });
        }
        // Spoofed-migration attack: forged frames echoing flow 0's flow
        // id from spoofed sources, aimed at the server. Challenges force
        // the server to spend (budgeted) probe bytes; responses carry
        // tokens that match nothing and must all be rejected.
        if (spec.mobility.spoof_enabled()) {
            const auto interval =
                static_cast<util::sim_time>(1e9 / spec.mobility.spoof_rate_hz);
            auto tick = std::make_shared<std::function<void()>>();
            *tick = [&spec, &net, &spoofs_injected, &result,
                     weak = std::weak_ptr(tick), interval] {
                if (net.sched().now() >= spec.mobility.spoof_stop) return;
                const std::uint32_t k = static_cast<std::uint32_t>(spoofs_injected++);
                const std::uint32_t src = 0xB0000000u + k % spec.mobility.spoof_sources;
                packet::segment seg =
                    k % 2 == 0
                        ? packet::segment{packet::path_challenge_segment{0x5eed0000ULL + k}}
                        : packet::segment{packet::path_response_segment{0xF00D0000ULL + k}};
                net.left_node(0).inject(packet::make_packet(
                    result.flows[0].flow_id, src, net.right_addr(0), std::move(seg)));
                if (auto self = weak.lock())
                    net.sched().at(net.sched().now() + interval, [self] { (*self)(); });
            };
            net.sched().at(spec.mobility.spoof_start, [tick] { (*tick)(); });
        }
    }

    // --- SYN flood ------------------------------------------------------
    // Spoofed SYNs are injected at flow 0's client-side node (past the
    // host, so no sender state exists for them) with fresh flow ids and
    // unroutable source addresses: the servers' retry replies vanish,
    // exactly as they would toward a spoofed Internet source.
    std::uint64_t flood_injected = 0;
    if (spec.synflood.enabled()) {
        const auto interval = static_cast<util::sim_time>(
            1e9 / spec.synflood.syn_rate_hz);
        // The function object holds only a weak self-reference; each
        // pending scheduler event carries the strong one, so the chain
        // dies with its last event instead of leaking a ref cycle.
        auto tick = std::make_shared<std::function<void()>>();
        *tick = [&spec, &net, &flood_injected,
                 weak = std::weak_ptr(tick), interval] {
            if (net.sched().now() >= spec.synflood.stop) return;
            packet::handshake_segment syn;
            syn.type = packet::handshake_segment::kind::syn;
            const std::uint32_t k = static_cast<std::uint32_t>(flood_injected++);
            const std::uint32_t src = 0xA0000000u + k % spec.synflood.sources;
            const std::uint32_t flow = 0x7F000000u + k;
            net.left_node(0).inject(packet::make_packet(
                flow, src, net.right_addr(0), packet::segment{syn}));
            if (auto self = weak.lock())
                net.sched().at(net.sched().now() + interval,
                               [self] { (*self)(); });
        };
        net.sched().at(spec.synflood.start, [tick] { (*tick)(); });
    }

    // --- drive ----------------------------------------------------------
    auto all_closed = [&] {
        for (std::size_t i = 0; i < n; ++i) {
            if (!clients[i].closed()) return false;
            if (accepted[i] == nullptr || !accepted[i]->closed()) return false;
        }
        return true;
    };
    auto sample_flood = [&] {
        if (!spec.synflood.enabled()) return;
        std::size_t ho = 0;
        for (const auto& srv : servers) ho += srv->half_open();
        result.flood.max_half_open_seen =
            std::max(result.flood.max_half_open_seen, ho);
    };
    const util::sim_time step = util::milliseconds(250);
    util::sim_time t = 0;
    while (t < spec.deadline() && !all_closed()) {
        t += step;
        net.sched().run_until(t);
        drain();
        sample_flood();
    }
    drain(); // tail chunks delivered on the final step
    result.hit_deadline = !all_closed();
    result.finished_at = net.sched().now();
    result.events = net.sched().executed();

    // --- gather ---------------------------------------------------------
    for (std::size_t i = 0; i < n; ++i) {
        const flow_spec& flow = spec.flows[i];
        flow_observation& obs = result.flows[i];
        obs.established = clients[i].established();
        obs.client_closed = clients[i].closed();
        obs.server_closed = accepted[i] != nullptr && accepted[i]->closed();
        obs.client_stats = clients[i].stats();
        if (accepted[i] != nullptr) obs.server_stats = accepted[i]->stats();
        if (spec.mobility.enabled) {
            obs.client_paths = clients[i].snapshot().paths;
            if (accepted[i] != nullptr) obs.server_paths = accepted[i]->snapshot().paths;
        }
        obs.sender_streams = clients[i].stream_infos();
        const qtp::profile active = clients[i].valid() ? clients[i].active_profile()
                                                       : qtp::profile{};
        if (active.qos_aware) obs.guaranteed_rate_bps = active.target_rate_bps;

        const sack::reliability_mode profile_mode = weakest_profile_mode(flow, active);
        // Which extra-stream ids follow the profile (by open order: the
        // runner opens them in spec order right after stream 0).
        for (const auto& info : obs.sender_streams) {
            auto& s = obs.streams[info.id]; // creates entries for silent streams too
            s.opened_by_sender = true;
            s.offered = info.bytes_offered;
            s.abandoned = info.abandoned_bytes;
            bool follows = info.id == 0;
            if (info.id != 0) {
                const std::size_t idx = static_cast<std::size_t>(info.id) - 1;
                if (idx < flow.extra_streams.size())
                    follows = flow.extra_streams[idx].options.follow_profile;
            }
            s.check_mode = follows ? profile_mode : info.reliability;
        }
        // Fold the endgame counters into the hash so "identical trace"
        // really means identical protocol behaviour, not just identical
        // delivery order.
        hash = fnv1a(hash, obs.client_stats.packets_sent);
        hash = fnv1a(hash, obs.client_stats.rtx_bytes_sent);
        hash = fnv1a(hash, obs.server_stats.packets_received);
        hash = fnv1a(hash, obs.server_stats.bytes_delivered);
        hash = fnv1a(hash, obs.client_stats.renegotiations);
    }
    hash = fnv1a(hash, result.events);
    result.trace_hash = hash;
    // Mobility accounting stays OUT of the trace hash, like the flood
    // block: estimator-level fields may evolve without invalidating the
    // frozen delivery oracle. check_migration_continuity and friends
    // judge them instead.
    result.mobility.spoofs_injected = spoofs_injected;

    // Flood accounting stays OUT of the trace hash: guard counters may
    // evolve (new shed reasons, different retry pacing) without
    // invalidating the frozen delivery oracle. check_flood_containment
    // judges them instead.
    if (spec.synflood.enabled()) {
        flood_observation& fl = result.flood;
        fl.enabled = true;
        fl.syns_injected = flood_injected;
        fl.half_open_cap = spec.synflood.max_half_open;
        for (const auto& srv : servers) {
            const server_stats ss = srv->stats();
            fl.retries_sent += ss.retries_sent;
            fl.cookies_validated += ss.cookies_validated;
            fl.cookies_rejected += ss.cookies_rejected;
            fl.rate_limited += ss.syn_rate_limited + ss.stray_rate_limited;
            fl.amp_limited += ss.amplification_limited;
            fl.shed += ss.shed;
            fl.total_accepted += ss.accepted;
        }
    }

    for (const auto& inv : default_invariants()) inv.check(spec, result);
    result.passed = result.violations.empty();
    return result;
}

bool write_trace_csv(const scenario_result& result, const std::string& path) {
    util::csv_trace trace(path, {"t_s", "flow", "stream", "offset", "len"});
    if (!trace.ok()) return false;
    for (const auto& v : result.violations)
        trace.row_text({"violation", v.invariant, v.detail, "", ""});
    for (const auto& e : result.trace)
        trace.row({util::to_seconds(e.at), static_cast<double>(e.flow),
                   static_cast<double>(e.stream), static_cast<double>(e.offset),
                   static_cast<double>(e.len)});
    trace.flush();
    return trace.ok();
}

std::string summarize(const scenario_result& result) {
    std::ostringstream os;
    os << (result.passed ? "PASS " : "FAIL ") << result.name << " seed=" << result.seed
       << " events=" << result.events << " t=" << util::to_seconds(result.finished_at)
       << "s hash=" << std::hex << result.trace_hash << std::dec;
    if (!result.passed) os << " (" << result.violations.size() << " violations)";
    return os.str();
}

} // namespace vtp::testing
