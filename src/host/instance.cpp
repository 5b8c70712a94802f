#include "host/instance.hpp"

#include <algorithm>
#include <cstring>

#include "aot/context.hpp"
#include "env/bindings.hpp"
#include "runtime/snapshot.hpp"

namespace ceu::host {

using rt::Engine;
using rt::Value;

namespace {
/// The process-wide immutable standard binding set. Engines only read
/// bindings (per-engine binding state lives on the engine), so every
/// instance without host extras shares this one copy — a fleet of 100k
/// instances builds the standard set once, not 100k times.
const rt::CBindings& shared_standard_bindings() {
    static const rt::CBindings standard = env::make_standard_bindings();
    return standard;
}
}  // namespace

Instance::Instance(const flat::CompiledProgram& cp, Config cfg) : cp_(&cp) {
    init(cfg);
}

Instance::Instance(const std::string& source, Config cfg)
    : owned_cp_(std::make_unique<flat::CompiledProgram>(flat::compile(source))),
      cp_(owned_cp_.get()) {
    init(cfg);
}

Instance::Instance(std::shared_ptr<const flat::CompiledProgram> cp, Config cfg)
    : shared_cp_(std::move(cp)), cp_(shared_cp_.get()) {
    init(cfg);
}

void Instance::init(Config& cfg) {
    collect_trace_ = cfg.collect_trace;
    if (cfg.aot) {
        if (cfg.bindings != nullptr) {
            throw std::invalid_argument(
                "compiled (AOT) instances cannot take extra C bindings");
        }
        backend_ = std::make_unique<aot::Context>(cfg.aot, *cp_);
    } else {
        const rt::CBindings* effective = &shared_standard_bindings();
        if (cfg.bindings != nullptr) {
            bindings_ = std::make_unique<rt::CBindings>(env::make_standard_bindings());
            bindings_->merge(*cfg.bindings);
            effective = bindings_.get();
        }
        auto engine = std::make_unique<Engine>(*cp_, *effective, cfg.engine);
        engine_ = engine.get();
        backend_ = std::move(engine);
    }
    // Collect, then stream: the sinks see the line after it is (optionally)
    // in the buffer, so a sink may inspect trace().
    backend_->on_trace = [this](const std::string& line) {
        if (collect_trace_) trace_.push_back(line);
        for (const OutputSink& sink : output_sinks_) sink(line);
    };
}

// -- lifecycle ----------------------------------------------------------------

void Instance::boot() {
    // If the host clock moved before boot (advance()/advance_to() on a
    // not-yet-booted instance — the fleet late-joiner path), the boot
    // reaction happens at that instant, not at the epoch.
    backend_->set_boot_clock(clock_);
    backend_->go_init();
    notify_status();
}

void Instance::reset() {
    backend_->reset();
    notify_status();
}

void Instance::power_cycle() {
    // Power-cycle: all program state is lost; the wall-clock persists
    // (reset keeps `now`, so the reboot reaction and any timers it arms
    // are stamped with the current instant).
    reset();
    note("[crash] engine power-cycled");
    backend_->go_init();
    notify_status();
}

// -- inputs -------------------------------------------------------------------

void Instance::inject(const std::string& event, Value v) {
    if (!try_inject(event, v)) {
        throw rt::RuntimeError({}, "unknown input event '" + event + "'");
    }
}

bool Instance::try_inject(const std::string& event, Value v) {
    EventId id = resolve_input(event);
    if (id == kNoEvent) return false;
    inject(static_cast<int>(id), v);
    return true;
}

void Instance::inject(int event_id, Value v) {
    backend_->go_event(event_id, v);
    notify_status();
}

EventId Instance::resolve_input(const std::string& event) const {
    return cp_->sema.input_id(event);
}

void Instance::advance(Micros delta) {
    // `delta` is measured from the engine's current instant, which may be
    // ahead of our accumulator when asyncs advanced time via `emit <time>`.
    // This matches the compiled harness (`ceu_go_time(ceu_now + v)`), so
    // interpreter and cgen traces stay byte-compatible.
    clock_ = std::max(clock_, now()) + delta;
    backend_->go_time(clock_);
    notify_status();
}

void Instance::advance_to(Micros abs_us) {
    clock_ = std::max(clock_, abs_us);
    backend_->go_time(clock_);
    notify_status();
}

bool Instance::step_async() {
    bool more = backend_->go_async();
    notify_status();
    return more;
}

bool Instance::run_async_slices(uint64_t n) {
    bool more = backend_->go_async_n(n);
    notify_status();
    return more;
}

void Instance::settle(uint64_t max_slices) {
    uint64_t n = 0;
    while (status() == Engine::Status::Running && has_async_work()) {
        if (!step_async()) break;
        if (++n >= max_slices) {
            throw rt::RuntimeError({}, "async work did not settle within the slice cap");
        }
    }
    // The virtual clock may have advanced via `emit <time>` inside asyncs.
    clock_ = std::max(clock_, now());
}

// -- scripts ------------------------------------------------------------------

void Instance::feed(const env::ScriptItem& item) {
    using Kind = env::ScriptItem::Kind;
    switch (item.kind) {
        case Kind::Event:
            // Pending input has priority over asyncs; deliver directly.
            if (!try_inject(item.event, item.value)) {
                throw rt::RuntimeError({}, "script refers to unknown input event '" +
                                               item.event + "'");
            }
            break;
        case Kind::Advance:
            advance(item.us);
            break;
        case Kind::AsyncIdle:
            settle();
            break;
        case Kind::Crash:
            power_cycle();
            break;
    }
}

Engine::Status Instance::run(const env::Script& script) {
    boot();
    return replay(script);
}

Engine::Status Instance::resume(const env::Script& script) { return replay(script); }

Engine::Status Instance::replay(const env::Script& script) {
    // Resolve event names to interned ids once, up front: replay then
    // delivers by dense EventId and the string spelling never reaches the
    // reaction path. Unknown names still only fault when (and if) their
    // item is actually reached, matching the per-item feed() semantics.
    const std::vector<env::ScriptItem>& items = script.items();
    std::vector<EventId> ids(items.size(), kNoEvent);
    for (size_t i = 0; i < items.size(); ++i) {
        if (items[i].kind == env::ScriptItem::Kind::Event) {
            ids[i] = resolve_input(items[i].event);
        }
    }
    for (size_t i = 0; i < items.size(); ++i) {
        const env::ScriptItem& item = items[i];
        if (status() != Engine::Status::Running &&
            item.kind != env::ScriptItem::Kind::Crash) {
            break;
        }
        if (item.kind == env::ScriptItem::Kind::Event) {
            if (ids[i] == kNoEvent) {
                throw rt::RuntimeError({}, "script refers to unknown input event '" +
                                               item.event + "'");
            }
            inject(static_cast<int>(ids[i]), item.value);
        } else {
            feed(item);
        }
    }
    if (status() == Engine::Status::Running) settle();
    return status();
}

Engine::Status Instance::run(const env::Script& script, Diagnostics& diags) {
    try {
        return run(script);
    } catch (const rt::RuntimeError& e) {
        diags.error(e.loc(), e.message());
        return status();
    }
}

Engine::Status Instance::resume(const env::Script& script, Diagnostics& diags) {
    try {
        return resume(script);
    } catch (const rt::RuntimeError& e) {
        diags.error(e.loc(), e.message());
        return status();
    }
}

// -- checkpoint / restore -----------------------------------------------------

namespace {
constexpr char kHostMagic[8] = {'C', 'E', 'U', 'H', 'S', 'T', '0', '1'};

void write_stats(rt::snap::ByteWriter& w, const obs::ProcessStats& s) {
    w.u64(s.reactions);
    for (uint64_t k : s.reactions_by_kind) w.u64(k);
    w.u64(s.wakes);
    w.u64(s.emits);
    w.u64(s.timer_fires);
    w.u64(s.instructions);
    w.u64(s.max_reaction_instructions);
    w.u64(s.allocations);
    w.i64(s.max_emit_depth);
    w.u64(s.wall_ns);
    w.u64(s.max_reaction_wall_ns);
    w.u64(s.queue_peak);
    w.u64(s.timers_peak);
    w.u64(s.faults);
    w.u64(s.fault_injections);
    w.u64(s.terminations);
    w.u64(s.checkpoints);
    w.u64(s.restores);
    w.u64(s.supervised_restarts);
    w.u64(s.quarantines);
    w.u64(s.sheds);
}

obs::ProcessStats read_stats(rt::snap::ByteReader& r) {
    obs::ProcessStats s;
    s.reactions = r.u64();
    for (uint64_t& k : s.reactions_by_kind) k = r.u64();
    s.wakes = r.u64();
    s.emits = r.u64();
    s.timer_fires = r.u64();
    s.instructions = r.u64();
    s.max_reaction_instructions = r.u64();
    s.allocations = r.u64();
    s.max_emit_depth = static_cast<int>(r.i64());
    s.wall_ns = r.u64();
    s.max_reaction_wall_ns = r.u64();
    s.queue_peak = static_cast<size_t>(r.u64());
    s.timers_peak = static_cast<size_t>(r.u64());
    s.faults = r.u64();
    s.fault_injections = r.u64();
    s.terminations = r.u64();
    s.checkpoints = r.u64();
    s.restores = r.u64();
    s.supervised_restarts = r.u64();
    s.quarantines = r.u64();
    s.sheds = r.u64();
    return s;
}
}  // namespace

std::vector<uint8_t> Instance::save() const {
    std::vector<uint8_t> out;
    rt::snap::ByteWriter w(out);
    w.bytes(reinterpret_cast<const uint8_t*>(kHostMagic), sizeof kHostMagic);
    w.i64(clock_);
    // Length-prefixed backend payload so the host layer can add fields
    // after it without version-coupling to either backend's format.
    std::vector<uint8_t> payload;
    backend_->save(payload);
    w.u32(static_cast<uint32_t>(payload.size()));
    w.bytes(payload.data(), payload.size());
    w.u64(recorder_.seq());
    write_stats(w, recorder_.stats());
    return out;
}

void Instance::load(const std::vector<uint8_t>& blob) {
    rt::snap::ByteReader r(blob.data(), blob.size());
    if (std::memcmp(r.bytes(sizeof kHostMagic), kHostMagic, sizeof kHostMagic) != 0) {
        throw rt::snap::SnapshotError("bad magic (not a CEUHST01 instance snapshot)");
    }
    Micros clock = r.i64();
    uint32_t payload_len = r.count(1);
    const uint8_t* payload = r.bytes(payload_len);
    // Parse the tail *before* mutating anything: Backend::load commits
    // atomically, and the recorder must only be touched if the whole blob
    // validates.
    uint64_t rec_seq = r.u64();
    obs::ProcessStats stats = read_stats(r);
    if (!r.done()) {
        throw rt::snap::SnapshotError("trailing bytes after instance state");
    }

    backend_->load(payload, payload_len);
    clock_ = clock;
    recorder_.restore(stats, rec_seq);
    notify_status();
}

// -- observability ------------------------------------------------------------

void Instance::add_sink(obs::Sink* sink) {
    recorder_.add_sink(sink);
    recorder_.set_spans_enabled(true);
    backend_->set_recorder(&recorder_);
}

void Instance::own_sink(std::unique_ptr<obs::Sink> sink) {
    add_sink(sink.get());
    owned_sinks_.push_back(std::move(sink));
}

void Instance::observe_stats() {
    if (backend_->recorder() == nullptr) {
        recorder_.set_spans_enabled(recorder_.has_sinks());
        backend_->set_recorder(&recorder_);
    }
}

obs::ProcessStats Instance::snapshot() const {
    obs::ProcessStats s = recorder_.stats();
    // Backend-lifetime gauges beat the recorder's (possibly late-armed)
    // window for the fields the backend tracks unconditionally. A compiled
    // context counts reactions only; its instruction/queue gauges read 0.
    s.reactions = std::max<uint64_t>(s.reactions, backend_->reactions());
    s.instructions = std::max<uint64_t>(s.instructions, backend_->instructions_executed());
    s.max_reaction_instructions = std::max<uint64_t>(s.max_reaction_instructions,
                                                     backend_->max_reaction_instructions());
    s.queue_peak = std::max(s.queue_peak, backend_->queue_peak());
    s.timers_peak = std::max(s.timers_peak, backend_->pending_timers());
    return s;
}

void Instance::finish_observation() { recorder_.finish(); }

// -- embedder sinks -----------------------------------------------------------

void Instance::add_output_sink(OutputSink sink) {
    output_sinks_.push_back(std::move(sink));
}

void Instance::add_span_sink(SpanSink sink) {
    own_sink(std::make_unique<obs::CallbackSink>(std::move(sink)));
}

void Instance::add_status_sink(StatusSink sink) {
    // Prime the subscriber with the current state, then record it as the
    // notified baseline so the next transition (and only a transition)
    // fires again.
    rt::Engine::Status st = status();
    sink(st);
    notified_status_ = st;
    status_sinks_.push_back(std::move(sink));
}

void Instance::notify_status() {
    if (status_sinks_.empty()) return;
    rt::Engine::Status st = status();
    if (st == notified_status_) return;
    notified_status_ = st;
    for (const StatusSink& sink : status_sinks_) sink(st);
}

// -- traces -------------------------------------------------------------------

void Instance::note(const std::string& line) { backend_->trace(line); }

std::string Instance::trace_text() const {
    std::string out;
    for (const auto& line : trace_) {
        out += line;
        out += '\n';
    }
    return out;
}

}  // namespace ceu::host
