#include "engine/server.hpp"

#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <string_view>

#include "core/connection.hpp"
#include "ops/admin.hpp"
#include "util/logging.hpp"

namespace vtp::engine {

server::server(engine_config cfg) : cfg_(cfg) {
    if (cfg_.shards == 0) cfg_.shards = 1;
    shards_.reserve(cfg_.shards);
    sinks_.resize(cfg_.shards); // fixed size: sink addresses stay stable
    for (std::size_t i = 0; i < cfg_.shards; ++i) {
        shard_config sc;
        sc.port = cfg_.port;
        sc.index = i;
        sc.shard_count = cfg_.shards;
        sc.rng_seed = cfg_.rng_seed;
        shards_.push_back(std::make_unique<shard>(sc));
        sinks_[i].owner = this;
        sinks_[i].index = i;
        events_.push_back(
            std::make_unique<spsc_queue<engine_event>>(cfg_.event_queue_capacity));
        commands_.push_back(
            std::make_unique<spsc_queue<command>>(command_queue_capacity));
        ring_occupancy_.push_back(&shards_.back()->metrics().get_histogram(
            "vtp_event_ring_occupancy",
            "Depth of the v2 event export ring, sampled once per shard turn."));
        rtt_ns_.push_back(&shards_.back()->metrics().get_histogram(
            "vtp_rtt_ns",
            "Smoothed RTT in ns, sampled per live session at each reap tick."));
        half_open_turns_.push_back(&shards_.back()->metrics().get_histogram(
            "vtp_half_open_sessions_turns",
            "Half-open sessions, sampled once per shard turn (catches "
            "spikes between reap ticks)."));
        windows_.push_back(std::make_unique<trace::window_ring>(
            static_cast<std::uint64_t>(cfg_.telemetry_window)));
        // Command mailbox drain + per-turn samples (export-ring depth,
        // half-open population): runs on the shard thread each turn.
        shards_.back()->set_turn_hook([this, i] {
            command cmd;
            while (commands_[i]->pop(cmd)) execute(i, cmd);
            ring_occupancy_[i]->observe(events_[i]->size());
            half_open_turns_[i]->observe(
                shards_[i]->counters().half_open.load(std::memory_order_relaxed));
        });
    }
    std::vector<shard*> raw;
    for (auto& s : shards_) raw.push_back(s.get());
    shard::interconnect(raw);
}

bool server::shard_sink::on_session_event(std::uint32_t flow, const qtp::event& ev,
                                          std::vector<std::uint8_t>& payload) {
    // Swap accounting happens even when the export ring is full: the
    // transport applied the swap whether or not the application saw the
    // profile_changed event.
    if (ev.type == qtp::event_type::established) {
        last_cc[flow] = ev.prof.congestion;
    } else if (ev.type == qtp::event_type::profile_changed) {
        auto [it, fresh] = last_cc.try_emplace(flow, ev.prof.congestion);
        if (!fresh && it->second != ev.prof.congestion) {
            it->second = ev.prof.congestion;
            owner->cc_swaps_.fetch_add(1, std::memory_order_relaxed);
        }
    } else if (ev.type == qtp::event_type::closed) {
        last_cc.erase(flow);
    }
    engine_event e;
    e.shard = index;
    e.flow = flow;
    e.ev = ev;
    e.payload = std::move(payload); // no copy on the shard delivery path
    if (!owner->events_[index]->push(std::move(e))) {
        payload = std::move(e.payload); // full ring: hand the bytes back
        auto& c = owner->shards_[index]->counters().events_dropped;
        c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
        return false;
    }
    return true;
}

std::size_t server::poll_events(engine_event* out, std::size_t max) {
    std::size_t n = 0;
    std::size_t idle = 0;
    while (n < max && idle < events_.size()) {
        if (events_[poll_cursor_]->pop(out[n])) {
            ++n;
            idle = 0;
        } else {
            ++idle;
        }
        poll_cursor_ = (poll_cursor_ + 1) % events_.size();
    }
    return n;
}

bool server::enqueue(std::size_t shard_idx, command&& cmd) {
    if (shard_idx >= shards_.size() ||
        !commands_[shard_idx]->push(std::move(cmd))) {
        commands_dropped_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    shards_[shard_idx]->wake();
    return true;
}

void server::execute(std::size_t shard_idx, command& cmd) {
    qtp::agent* a = shards_[shard_idx]->find_agent(cmd.flow);
    auto* tx = dynamic_cast<qtp::connection_sender*>(a);
    auto* rx = dynamic_cast<qtp::connection_receiver*>(a);
    if (tx == nullptr && rx == nullptr) {
        // Session already reaped (or never existed): observable, not silent.
        commands_dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    bool handled = false;
    switch (cmd.what) {
    case command::kind::send:
        if (tx != nullptr) {
            const std::uint64_t accepted =
                tx->offer_bytes(cmd.stream_id, cmd.bytes.data(), cmd.bytes.size());
            // A max_buffered_bytes clamp truncates the command: the
            // suffix is gone (the mailbox cannot hold residue), so make
            // it observable instead of silent. Engine-hosted senders
            // default to unlimited buffering, where this cannot happen.
            handled = accepted == cmd.bytes.size();
        }
        break;
    case command::kind::finish:
        if (tx != nullptr) {
            tx->finish_stream(cmd.stream_id);
            handled = true;
        }
        break;
    case command::kind::close:
        if (tx != nullptr) {
            tx->finish_stream();
            handled = true;
        }
        break;
    case command::kind::renegotiate:
        if (tx != nullptr) tx->request_renegotiate(cmd.prof);
        if (rx != nullptr) rx->request_renegotiate(cmd.prof);
        handled = tx != nullptr || rx != nullptr;
        break;
    }
    // A data-plane command aimed at a receiver-role session (or any other
    // mismatch) is observable, not silent.
    if (!handled) commands_dropped_.fetch_add(1, std::memory_order_relaxed);
}

bool server::send(std::size_t shard_idx, std::uint32_t flow, std::uint32_t stream_id,
                  const std::uint8_t* data, std::size_t len) {
    command cmd;
    cmd.what = command::kind::send;
    cmd.flow = flow;
    cmd.stream_id = stream_id;
    cmd.bytes.assign(data, data + len);
    return enqueue(shard_idx, std::move(cmd));
}

bool server::finish(std::size_t shard_idx, std::uint32_t flow, std::uint32_t stream_id) {
    command cmd;
    cmd.what = command::kind::finish;
    cmd.flow = flow;
    cmd.stream_id = stream_id;
    return enqueue(shard_idx, std::move(cmd));
}

bool server::close(std::size_t shard_idx, std::uint32_t flow) {
    command cmd;
    cmd.what = command::kind::close;
    cmd.flow = flow;
    return enqueue(shard_idx, std::move(cmd));
}

bool server::renegotiate(std::size_t shard_idx, std::uint32_t flow,
                         const qtp::profile& p) {
    command cmd;
    cmd.what = command::kind::renegotiate;
    cmd.flow = flow;
    cmd.prof = p;
    return enqueue(shard_idx, std::move(cmd));
}

server::~server() { stop(); }

void server::start() {
    if (started_) {
        // One-shot by design: shards' sockets and session tables are not
        // rebuilt after a stop(). Loud beats a silently dead server.
        if (stopped_)
            throw std::logic_error("engine::server: cannot restart after stop()");
        return;
    }
    started_ = true;
    // Flight-recorder spool: one writer thread per shard so sessions of
    // one shard share a sink without any cross-shard contention.
    if (!cfg_.trace_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(cfg_.trace_dir, ec);
        writers_.reserve(shards_.size());
        for (std::size_t i = 0; i < shards_.size(); ++i)
            writers_.push_back(std::make_unique<trace::async_writer>(
                cfg_.trace_dir + "/trace-shard" + std::to_string(i) + ".vtpt"));
        if (cfg_.accept.trace_ring_records == 0)
            cfg_.accept.trace_ring_records = 4096;
    }
    // Build each shard's vtp::server before its thread exists: the
    // listener registers as the shard's default agent, and from the first
    // loop turn on, everything runs on the shard thread.
    servers_.reserve(shards_.size());
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        shard& sh = *shards_[i];
        vtp::server_options accept = cfg_.accept;
        if (i < writers_.size() && writers_[i]->ok())
            accept.trace_sink = writers_[i].get();
        auto srv = std::make_unique<vtp::server>(sh, accept);
        srv->set_on_session([this, i, &sh](vtp::session& s) {
            auto& c = sh.counters();
            c.accepted.fetch_add(1, std::memory_order_relaxed);
            c.sessions.store(c.sessions.load(std::memory_order_relaxed) + 1,
                             std::memory_order_relaxed);
            // Fresh accepts are half-open until first data: the receiver
            // maintains the shard gauge incrementally so per-turn
            // sampling sees flood spikes, not just reap-tick recounts.
            if (s.receiver() != nullptr)
                s.receiver()->set_half_open_gauge(&c.half_open);
            // Bind the session to the export path (drains anything it
            // queued while being accepted).
            s.set_event_sink(&sinks_[i]);
        });
        vtp::server* raw = srv.get();
        servers_.push_back(std::move(srv));
        // Periodic reaper: reclaims sessions whose peer closed, keeping
        // the gauge honest. Scheduling before start() is safe (the wheel
        // is still untouched by any thread).
        arm_reaper(raw, sh);
    }
    for (auto& s : shards_) s->start();
    if (cfg_.admin_port != 0) {
        ops::admin_config ac;
        ac.port = cfg_.admin_port;
        ac.trace_tap_dir = cfg_.trace_dir.empty() ? std::string(".") : cfg_.trace_dir;
        ac.health_window_ns = static_cast<std::uint64_t>(cfg_.telemetry_window);
        try {
            admin_ = std::make_unique<ops::admin_server>(*this, ac);
        } catch (const std::exception& e) {
            // An unbindable admin port must not take the datapath down.
            util::log(util::log_level::warn, "engine",
                      std::string("admin plane disabled: ") + e.what());
        }
    }
}

void server::stop() {
    // Admin plane first: its destructor detaches live trace taps by
    // posting to shard threads, which must still be running to flush.
    admin_.reset();
    if (started_) stopped_ = true;
    for (auto& s : shards_) s->stop();
}

void server::arm_reaper(vtp::server* srv, shard& sh) {
    sh.schedule(cfg_.reap_interval, [this, srv, &sh] {
        // Sample every hosted connection's RTT into the shard's histogram
        // before reaping — a once-per-reap-tick cost that gives the
        // engine an RTT distribution without touching the datapath.
        // Senders report the cc's smoothed RTT; receivers the estimate
        // the sender announces in its data segments. The same pass finds
        // the closed outgoing sessions (connect()) to reclaim; accepted
        // ones go through the shard's vtp::server.
        trace::histogram* rtt = rtt_ns_[sh.index()];
        std::vector<std::uint32_t> closed_senders;
        sh.for_each_agent([rtt, &closed_senders](std::uint32_t flow, qtp::agent& a) {
            if (const auto* tx = dynamic_cast<const qtp::connection_sender*>(&a)) {
                if (tx->established() && tx->cc().has_rtt())
                    rtt->observe(
                        static_cast<std::uint64_t>(tx->cc().smoothed_rtt()));
                if (tx->closed()) closed_senders.push_back(flow);
            } else if (const auto* rx =
                           dynamic_cast<const qtp::connection_receiver*>(&a)) {
                if (rx->received_packets() > 0)
                    rtt->observe(static_cast<std::uint64_t>(rx->rtt_hint()));
            }
        });
        for (const std::uint32_t flow : closed_senders) sh.detach_dynamic(flow);
        const std::size_t reaped = srv->reap_closed();
        auto& c = sh.counters();
        if (reaped > 0) {
            const std::uint64_t cur = c.sessions.load(std::memory_order_relaxed);
            c.sessions.store(cur >= reaped ? cur - reaped : 0,
                             std::memory_order_relaxed);
        }
        // Mirror the accept-path guard counters into the shard's atomics
        // so any thread can read them. Absolute stores: the vtp::server
        // counters are the source of truth.
        const vtp::server_stats ss = srv->stats();
        c.syn_retries_sent.store(ss.retries_sent, std::memory_order_relaxed);
        c.syn_cookies_validated.store(ss.cookies_validated, std::memory_order_relaxed);
        c.syn_cookies_rejected.store(ss.cookies_rejected, std::memory_order_relaxed);
        c.syn_rate_limited.store(ss.syn_rate_limited + ss.stray_rate_limited,
                                 std::memory_order_relaxed);
        c.syn_sheds.store(ss.shed, std::memory_order_relaxed);
        c.amp_limited.store(ss.amplification_limited, std::memory_order_relaxed);
        c.reneg_rate_limited.store(ss.reneg_rate_limited, std::memory_order_relaxed);
        c.path_migrations.store(ss.path_migrations, std::memory_order_relaxed);
        c.path_validations.store(ss.path_validations, std::memory_order_relaxed);
        c.path_validation_failures.store(ss.path_validation_failures,
                                         std::memory_order_relaxed);
        c.path_responses_rejected.store(ss.path_responses_rejected,
                                        std::memory_order_relaxed);
        // (half_open is NOT mirrored here: the receivers maintain the
        // shard gauge incrementally — see set_half_open_gauge.)
        // Sliding-window telemetry snapshot: shard counters + every
        // histogram in the shard registry, captured on the shard thread
        // at reap cadence so /metrics can derive rates and windowed
        // percentiles and /healthz can judge recent behaviour.
        std::vector<std::pair<std::string, std::uint64_t>> vals;
        vals.reserve(12);
        const auto rd = [](const std::atomic<std::uint64_t>& a) {
            return a.load(std::memory_order_relaxed);
        };
        vals.emplace_back("vtp_datagrams_rx_total", rd(c.datagrams_rx));
        vals.emplace_back("vtp_datagrams_tx_total", rd(c.datagrams_tx));
        vals.emplace_back("vtp_tx_dropped_total", rd(c.tx_dropped));
        vals.emplace_back("vtp_handoff_dropped_total", rd(c.handoff_dropped));
        vals.emplace_back("vtp_decode_errors_total", rd(c.decode_errors));
        vals.emplace_back("vtp_events_dropped_total", rd(c.events_dropped));
        vals.emplace_back("vtp_accepted_total", rd(c.accepted));
        vals.emplace_back("vtp_synflood_retries_sent_total", ss.retries_sent);
        vals.emplace_back("vtp_synflood_sheds_total", ss.shed);
        vals.emplace_back("vtp_reneg_rate_limited_total", ss.reneg_rate_limited);
        vals.emplace_back("vtp_path_migrations_total", ss.path_migrations);
        if (sh.index() == 0)
            vals.emplace_back("vtp_commands_dropped_total",
                              commands_dropped_.load(std::memory_order_relaxed));
        windows_[sh.index()]->capture(static_cast<std::uint64_t>(sh.now()),
                                      sh.metrics(), std::move(vals));
        arm_reaper(srv, sh);
    });
}

void server::connect(std::uint32_t peer_addr, vtp::session_options opts,
                     std::function<void(std::size_t, vtp::session)> on_ready) {
    if (opts.flow_id == 0)
        opts.flow_id = next_flow_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t owner = owner_of(opts.flow_id);
    // Outgoing sessions inherit the engine's flight recorder: the owner
    // shard's spool, same default ring as accepted sessions.
    if (owner < writers_.size() && writers_[owner]->ok() &&
        opts.trace_sink == nullptr) {
        opts.trace_sink = writers_[owner].get();
        if (opts.trace_ring_records == 0)
            opts.trace_ring_records = cfg_.accept.trace_ring_records;
    }
    shard& sh = *shards_[owner];
    sh.post([this, &sh, owner, peer_addr, opts, cb = std::move(on_ready)]() mutable {
        vtp::session s = vtp::session::connect(sh, peer_addr, opts);
        s.set_event_sink(&sinks_[owner]);
        if (cb) cb(owner, std::move(s));
    });
}

void server::with_server(std::size_t i, std::function<void(vtp::server&)> fn) {
    vtp::server* raw = servers_.at(i).get();
    shards_[i]->post([raw, fn = std::move(fn)] { fn(*raw); });
}

std::vector<vtp::session_snapshot> server::snapshot_sessions(std::uint32_t only_flow) {
    if (servers_.empty()) return {};
    // Collectors run on the shard threads (posted closures), so every
    // snapshot is a consistent same-thread read; the caller blocks on a
    // counted rendezvous. The context outlives a timeout via shared_ptr
    // so a straggling shard writes into live memory, never freed stack.
    struct rendezvous {
        std::mutex mu;
        std::condition_variable cv;
        std::size_t pending = 0;
        bool done = false;
        std::vector<vtp::session_snapshot> out;
    };
    auto ctx = std::make_shared<rendezvous>();
    ctx->pending = shards_.size();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        with_server(i, [ctx, i, only_flow](vtp::server& srv) {
            std::vector<vtp::session_snapshot> local;
            srv.for_each_session([&](std::uint32_t flow, vtp::session& s) {
                if (only_flow != 0 && flow != only_flow) return;
                vtp::session_snapshot sn = s.snapshot();
                sn.shard = i;
                local.push_back(std::move(sn));
            });
            std::lock_guard<std::mutex> lock(ctx->mu);
            if (!ctx->done)
                ctx->out.insert(ctx->out.end(),
                                std::make_move_iterator(local.begin()),
                                std::make_move_iterator(local.end()));
            if (--ctx->pending == 0) ctx->cv.notify_all();
        });
    }
    std::unique_lock<std::mutex> lock(ctx->mu);
    ctx->cv.wait_for(lock, std::chrono::seconds(1),
                     [&] { return ctx->pending == 0; });
    ctx->done = true; // stragglers (stopped engine) stop appending
    return std::move(ctx->out);
}

trace::window_delta server::merged_window(std::uint64_t window_ns) const {
    std::vector<trace::window_delta> parts;
    parts.reserve(windows_.size());
    for (const auto& w : windows_) parts.push_back(w->window(window_ns));
    return trace::merge_window_deltas(parts);
}

engine_stats server::stats() const {
    engine_stats agg;
    for (const auto& s : shards_) {
        const shard_stats st = s->stats();
        agg.datagrams_rx += st.datagrams_rx;
        agg.datagrams_tx += st.datagrams_tx;
        agg.rx_batches += st.rx_batches;
        agg.tx_batches += st.tx_batches;
        agg.tx_dropped += st.tx_dropped;
        agg.handoff_out += st.handoff_out;
        agg.handoff_dropped += st.handoff_dropped;
        agg.decode_errors += st.decode_errors;
        agg.truncated_dropped += st.truncated_dropped;
        agg.pool_exhausted += st.pool_exhausted;
        agg.accepted += st.accepted;
        agg.sessions += st.sessions;
        agg.events_dropped += st.events_dropped;
        agg.syn_retries_sent += st.syn_retries_sent;
        agg.syn_cookies_validated += st.syn_cookies_validated;
        agg.syn_cookies_rejected += st.syn_cookies_rejected;
        agg.syn_rate_limited += st.syn_rate_limited;
        agg.syn_sheds += st.syn_sheds;
        agg.amp_limited += st.amp_limited;
        agg.reneg_rate_limited += st.reneg_rate_limited;
        agg.half_open += st.half_open;
        agg.path_migrations += st.path_migrations;
        agg.path_validations += st.path_validations;
        agg.path_validation_failures += st.path_validation_failures;
        agg.path_responses_rejected += st.path_responses_rejected;
    }
    agg.commands_dropped = commands_dropped_.load(std::memory_order_relaxed);
    agg.cc_swaps_applied = cc_swaps_.load(std::memory_order_relaxed);
    return agg;
}

std::vector<shard_stats> server::per_shard_stats() const {
    std::vector<shard_stats> out;
    out.reserve(shards_.size());
    for (const auto& s : shards_) out.push_back(s->stats());
    return out;
}

void server::collect_metrics(trace::registry& out) const {
    const engine_stats st = stats();
    out.get_counter("vtp_datagrams_rx_total",
                    "Datagrams received across all shard sockets.")
        .add(st.datagrams_rx);
    out.get_counter("vtp_datagrams_tx_total",
                    "Datagrams transmitted across all shard sockets.")
        .add(st.datagrams_tx);
    out.get_counter("vtp_tx_dropped_total",
                    "Transmissions dropped (kernel buffer full / oversized).")
        .add(st.tx_dropped);
    out.get_counter("vtp_handoff_out_total",
                    "Datagrams forwarded to their owner shard.")
        .add(st.handoff_out);
    out.get_counter("vtp_handoff_dropped_total",
                    "Cross-shard handoffs dropped on a full ring.")
        .add(st.handoff_dropped);
    out.get_counter("vtp_decode_errors_total",
                    "Inbound datagrams that failed segment decoding.")
        .add(st.decode_errors);
    out.get_counter("vtp_truncated_dropped_total",
                    "Oversized datagrams truncated by the kernel and dropped.")
        .add(st.truncated_dropped);
    out.get_counter("vtp_pool_exhausted_total",
                    "Sends dropped because the transmit buffer pool was empty.")
        .add(st.pool_exhausted);
    out.get_counter("vtp_accepted_total", "Connections accepted by the listeners.")
        .add(st.accepted);
    out.get_counter("vtp_events_dropped_total",
                    "Session events lost to a full v2 export ring.")
        .add(st.events_dropped);
    out.get_counter("vtp_commands_dropped_total",
                    "v2 commands rejected (full mailbox or unknown flow).")
        .add(st.commands_dropped);
    out.get_counter("vtp_cc_swaps_total",
                    "Mid-flow congestion-control swaps applied by renegotiation.")
        .add(st.cc_swaps_applied);
    out.get_gauge("vtp_sessions", "Live sessions across all shards.")
        .set(static_cast<std::int64_t>(st.sessions));
    out.get_counter("vtp_synflood_retries_sent_total",
                    "Stateless retry cookies sent to unvalidated SYN sources.")
        .add(st.syn_retries_sent);
    out.get_counter("vtp_synflood_cookies_validated_total",
                    "SYNs whose echoed retry cookie verified (session spawned).")
        .add(st.syn_cookies_validated);
    out.get_counter("vtp_synflood_cookies_rejected_total",
                    "SYNs carrying a stale or forged retry cookie.")
        .add(st.syn_cookies_rejected);
    out.get_counter("vtp_synflood_rate_limited_total",
                    "Packets dropped by the per-source SYN/stray token buckets.")
        .add(st.syn_rate_limited);
    out.get_counter("vtp_synflood_sheds_total",
                    "Validated SYNs refused by the session/half-open caps.")
        .add(st.syn_sheds);
    out.get_counter("vtp_synflood_amp_limited_total",
                    "Retries withheld by the anti-amplification byte budget.")
        .add(st.amp_limited);
    out.get_counter("vtp_reneg_rate_limited_total",
                    "Inbound reneg proposals dropped by the per-connection bucket.")
        .add(st.reneg_rate_limited);
    out.get_gauge("vtp_half_open_sessions",
                  "Accepted sessions that have not yet received data.")
        .set(static_cast<std::int64_t>(st.half_open));
    out.get_counter("vtp_path_migrations_total",
                    "Validated active-path switches (migrate/rebind) across "
                    "all hosted sessions.")
        .add(st.path_migrations);
    out.get_counter("vtp_path_validation_success_total",
                    "Paths proven two-way reachable by a challenge/response "
                    "round trip.")
        .add(st.path_validations);
    out.get_counter("vtp_path_validation_failure_total",
                    "Paths that exhausted every validation attempt.")
        .add(st.path_validation_failures);
    out.get_counter("vtp_path_responses_rejected_total",
                    "path_response frames whose token matched no pending "
                    "challenge (forged, mutated or stale).")
        .add(st.path_responses_rejected);
    if (!writers_.empty()) {
        std::uint64_t records = 0;
        std::uint64_t frames_dropped = 0;
        for (const auto& w : writers_) {
            records += w->records();
            frames_dropped += w->frames_dropped();
        }
        out.get_counter("vtp_trace_records_total",
                        "Flight-recorder records accepted by the shard spools.")
            .add(records);
        out.get_counter("vtp_trace_frames_dropped_total",
                        "Trace frames dropped by a backlogged spool queue.")
            .add(frames_dropped);
    }
    // Shard-local series (turn duration, timer fire latency, RTT samples,
    // event-ring occupancy, per-turn half-open population) merge in by
    // name, then the windowed derivations go on top.
    for (const auto& s : shards_) out.merge(s->metrics());
    collect_windowed(out);
}

void server::collect_windowed(trace::registry& out) const {
    const trace::window_delta d = merged_window();
    if (d.span_ns == 0) return;
    const double span_s = static_cast<double>(d.span_ns) / 1e9;
    for (const auto& [name, delta] : d.counters) {
        // vtp_foo_total -> vtp_foo_rate; non-_total names just append.
        std::string base = name;
        constexpr std::string_view suffix = "_total";
        if (base.size() > suffix.size() && base.ends_with(suffix))
            base.resize(base.size() - suffix.size());
        out.get_fgauge(base + "_rate",
                       "Per-second rate over the sliding telemetry window.")
            .set(static_cast<double>(delta) / span_s);
    }
    for (const auto& h : d.hists) {
        out.get_gauge(h.name + "_p50_60s",
                      "Median of observations inside the telemetry window.")
            .set(static_cast<std::int64_t>(h.percentile(0.50)));
        out.get_gauge(h.name + "_p99_60s",
                      "99th percentile of observations inside the telemetry window.")
            .set(static_cast<std::int64_t>(h.percentile(0.99)));
    }
}

} // namespace vtp::engine
