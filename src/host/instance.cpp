#include "host/instance.hpp"

#include <algorithm>
#include <cstring>

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
        if (cfg.aot.desc->fingerprint != rt::program_fingerprint(*cp_)) {
            throw std::invalid_argument(
                "AOT handle was compiled from a different program "
                "(fingerprint mismatch)");
        }
        aot_ = cfg.aot;
        host_api_.user = this;
        host_api_.trace_line = &Instance::aot_trace_cb;
        host_api_.obs_begin = &Instance::aot_obs_begin_cb;
        host_api_.obs_wake = &Instance::aot_obs_wake_cb;
        host_api_.obs_emit = &Instance::aot_obs_emit_cb;
        host_api_.obs_timer = &Instance::aot_obs_timer_cb;
        host_api_.obs_end = &Instance::aot_obs_end_cb;
        host_api_.output = &Instance::aot_output_cb;
        ctx_ = aot_.desc->create(&host_api_);
        if (ctx_ == nullptr) {
            throw std::runtime_error("AOT context allocation failed");
        }
        return;
    }
    const rt::CBindings* effective = &shared_standard_bindings();
    if (cfg.bindings != nullptr) {
        bindings_ = std::make_unique<rt::CBindings>(env::make_standard_bindings());
        bindings_->merge(*cfg.bindings);
        effective = bindings_.get();
    }
    engine_ = std::make_unique<Engine>(*cp_, *effective, cfg.engine);
    // Both backends funnel through push_trace_line, so output sinks see an
    // identical stream regardless of backend.
    engine_->on_trace = [this](const std::string& line) { push_trace_line(line); };
}

Instance::~Instance() {
    if (ctx_ != nullptr) aot_.desc->destroy(ctx_);
}

// -- AOT host-api callbacks ---------------------------------------------------

void Instance::push_trace_line(std::string line) {
    // Collect, then stream: the sinks see the line after it is
    // (optionally) in the buffer, so a sink may inspect trace().
    if (collect_trace_) trace_.push_back(line);
    for (const OutputSink& sink : output_sinks_) sink(line);
}

void Instance::aot_trace_cb(void* user, const char* line, int32_t len) {
    static_cast<Instance*>(user)->push_trace_line(
        std::string(line, len > 0 ? static_cast<size_t>(len) : 0));
}

void Instance::aot_obs_begin_cb(void* user, int32_t kind, int32_t id,
                                const char* name, int64_t ts) {
    auto* self = static_cast<Instance*>(user);
    if (!self->obs_armed_) return;
    self->recorder_.begin(static_cast<obs::ReactionKind>(kind), id,
                          name != nullptr ? name : "", ts);
}

void Instance::aot_obs_wake_cb(void* user, int32_t gate) {
    auto* self = static_cast<Instance*>(user);
    if (self->obs_armed_) self->recorder_.wake(gate);
}

void Instance::aot_obs_emit_cb(void* user, int32_t event_id, int32_t depth) {
    auto* self = static_cast<Instance*>(user);
    if (self->obs_armed_) self->recorder_.emit(event_id, depth);
}

void Instance::aot_obs_timer_cb(void* user, int32_t gate, int64_t residual) {
    auto* self = static_cast<Instance*>(user);
    if (self->obs_armed_) self->recorder_.timer_fire(gate, residual);
}

void Instance::aot_obs_end_cb(void* user, int32_t status, int64_t result) {
    auto* self = static_cast<Instance*>(user);
    if (self->obs_armed_) self->recorder_.end(status, result, 0);
}

void Instance::aot_output_cb(void* user, int32_t output_id, const char* name,
                             int64_t value) {
    // Unhandled-output parity with the interpreter (EmitOutput): outputs
    // become trace lines. Custom OutputFn bindings are an interpreter-only
    // feature.
    (void)output_id;
    static_cast<Instance*>(user)->push_trace_line(
        "output " + std::string(name != nullptr ? name : "?") + " = " +
        std::to_string(value));
}

rt::Engine::Status Instance::aot_status() const {
    switch (aot_.desc->status(ctx_)) {
        case 0: return Engine::Status::Loaded;
        case 1: return Engine::Status::Running;
        case 2: return Engine::Status::Terminated;
        default: return Engine::Status::Faulted;
    }
}

// -- lifecycle ----------------------------------------------------------------

void Instance::boot() {
    // If the host clock moved before boot (advance()/advance_to() on a
    // not-yet-booted instance — the fleet late-joiner path), the boot
    // reaction happens at that instant, not at the epoch.
    if (is_compiled()) {
        aot_.desc->set_boot_clock(ctx_, clock_);
        aot_.desc->go_init(ctx_);
    } else {
        engine_->set_boot_clock(clock_);
        engine_->go_init();
    }
    notify_status();
}

void Instance::reset() {
    if (is_compiled()) {
        aot_.desc->reset(ctx_);
    } else {
        engine_->reset();
    }
    notify_status();
}

void Instance::power_cycle() {
    // Power-cycle: all program state is lost; the wall-clock persists
    // (reset keeps `now`, so the reboot reaction and any timers it arms
    // are stamped with the current instant).
    reset();
    note("[crash] engine power-cycled");
    if (is_compiled()) {
        aot_.desc->go_init(ctx_);
    } else {
        engine_->go_init();
    }
    notify_status();
}

// -- inputs -------------------------------------------------------------------

void Instance::inject(const std::string& event, Value v) {
    if (!try_inject(event, v)) {
        throw rt::RuntimeError({}, "unknown input event '" + event + "'");
    }
}

bool Instance::try_inject(const std::string& event, Value v) {
    if (is_compiled()) {
        EventId id = resolve_input(event);
        if (id == kNoEvent) return false;
        inject(static_cast<int>(id), v);
        return true;
    }
    bool known = engine_->go_event_by_name(event, v);
    if (known) notify_status();
    return known;
}

void Instance::inject(int event_id, Value v) {
    if (is_compiled()) {
        aot_.desc->go_event(ctx_, event_id, v.as_int());
    } else {
        engine_->go_event(event_id, v);
    }
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
    if (is_compiled()) {
        aot_.desc->go_time(ctx_, clock_);
    } else {
        engine_->go_time(clock_);
    }
    notify_status();
}

void Instance::advance_to(Micros abs_us) {
    clock_ = std::max(clock_, abs_us);
    if (is_compiled()) {
        aot_.desc->go_time(ctx_, clock_);
    } else {
        engine_->go_time(clock_);
    }
    notify_status();
}

bool Instance::step_async() {
    bool more = is_compiled() ? aot_.desc->go_async(ctx_) != 0 : engine_->go_async();
    notify_status();
    return more;
}

bool Instance::run_async_slices(uint64_t n) {
    bool more;
    if (is_compiled()) {
        more = aot_.desc->go_async_n(ctx_, static_cast<int64_t>(n)) != 0;
    } else {
        more = false;
        for (uint64_t k = 0; k < n; ++k) {
            more = engine_->go_async();
            if (!more) break;
        }
    }
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
// Compiled-backend snapshots: the engine blob is replaced by the raw
// ceu_ctx_t image plus the descriptor fingerprint that produced it. The
// image may hold .so-relative pointers (string literals), so the blob is
// same-process / same-image only — which restore enforces via fingerprint.
constexpr char kAotMagic[8] = {'C', 'E', 'U', 'A', 'O', 'T', '0', '1'};

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
    if (is_compiled()) {
        w.bytes(reinterpret_cast<const uint8_t*>(kAotMagic), sizeof kAotMagic);
        w.i64(clock_);
        w.u64(aot_.desc->fingerprint);
        std::vector<uint8_t> ctx(aot_.desc->ctx_size);
        aot_.desc->snapshot(ctx_, ctx.data());
        w.u32(static_cast<uint32_t>(ctx.size()));
        w.bytes(ctx.data(), ctx.size());
        w.u64(recorder_.seq());
        write_stats(w, recorder_.stats());
        return out;
    }
    w.bytes(reinterpret_cast<const uint8_t*>(kHostMagic), sizeof kHostMagic);
    w.i64(clock_);
    // Length-prefixed engine blob so the host layer can add fields after
    // it without version-coupling to the engine format.
    std::vector<uint8_t> eng;
    engine_->save(eng);
    w.u32(static_cast<uint32_t>(eng.size()));
    w.bytes(eng.data(), eng.size());
    w.u64(recorder_.seq());
    write_stats(w, recorder_.stats());
    return out;
}

void Instance::load(const std::vector<uint8_t>& blob) {
    rt::snap::ByteReader r(blob.data(), blob.size());
    uint8_t magic[sizeof kHostMagic];
    for (uint8_t& b : magic) b = r.u8();
    if (is_compiled()) {
        if (std::memcmp(magic, kHostMagic, sizeof kHostMagic) == 0) {
            throw rt::snap::SnapshotError(
                "interpreter (CEUHST01) snapshot cannot restore into a "
                "compiled (AOT) instance");
        }
        if (std::memcmp(magic, kAotMagic, sizeof kAotMagic) != 0) {
            throw rt::snap::SnapshotError(
                "bad magic (not a CEUAOT01 instance snapshot)");
        }
        Micros clock = r.i64();
        uint64_t fp = r.u64();
        if (fp != aot_.desc->fingerprint) {
            throw rt::snap::SnapshotError(
                "snapshot was taken by a different compiled program "
                "(fingerprint mismatch)");
        }
        uint32_t ctx_len = r.count(1);
        if (ctx_len != aot_.desc->ctx_size || r.remaining() < ctx_len) {
            throw rt::snap::SnapshotError("bad context image size");
        }
        std::vector<uint8_t> ctx(blob.end() - static_cast<std::ptrdiff_t>(r.remaining()),
                                 blob.end() - static_cast<std::ptrdiff_t>(r.remaining()) +
                                     static_cast<std::ptrdiff_t>(ctx_len));
        for (uint32_t i = 0; i < ctx_len; ++i) (void)r.u8();
        uint64_t rec_seq = r.u64();
        obs::ProcessStats stats = read_stats(r);
        if (!r.done()) {
            throw rt::snap::SnapshotError("trailing bytes after instance state");
        }
        if (aot_.desc->restore(ctx_, ctx.data(), ctx.size()) == 0) {
            throw rt::snap::SnapshotError("compiled context refused the image");
        }
        clock_ = clock;
        recorder_.restore(stats, rec_seq);
        notify_status();
        return;
    }
    if (std::memcmp(magic, kAotMagic, sizeof kAotMagic) == 0) {
        throw rt::snap::SnapshotError(
            "compiled (CEUAOT01) snapshot cannot restore into an "
            "interpreter instance");
    }
    if (std::memcmp(magic, kHostMagic, sizeof kHostMagic) != 0) {
        throw rt::snap::SnapshotError("bad magic (not a CEUHST01 instance snapshot)");
    }
    Micros clock = r.i64();
    uint32_t eng_len = r.count(1);
    if (r.remaining() < eng_len) {
        throw rt::snap::SnapshotError("truncated engine blob");
    }
    const std::ptrdiff_t off = static_cast<std::ptrdiff_t>(blob.size() - r.remaining());
    std::vector<uint8_t> eng(blob.begin() + off,
                             blob.begin() + off + static_cast<std::ptrdiff_t>(eng_len));
    // Skip over the engine bytes in the outer reader, then parse the tail
    // *before* mutating anything: Engine::load commits atomically, and the
    // recorder must only be touched if the whole blob validates.
    for (uint32_t i = 0; i < eng_len; ++i) (void)r.u8();
    uint64_t rec_seq = r.u64();
    obs::ProcessStats stats = read_stats(r);
    if (!r.done()) {
        throw rt::snap::SnapshotError("trailing bytes after instance state");
    }

    engine_->load(eng.data(), eng.size());
    clock_ = clock;
    recorder_.restore(stats, rec_seq);
    notify_status();
}

// -- observability ------------------------------------------------------------

void Instance::arm_recorder() {
    if (is_compiled()) {
        obs_armed_ = true;
        return;
    }
    engine_->set_recorder(&recorder_);
}

void Instance::add_sink(obs::Sink* sink) {
    recorder_.add_sink(sink);
    recorder_.set_spans_enabled(true);
    arm_recorder();
}

void Instance::own_sink(std::unique_ptr<obs::Sink> sink) {
    add_sink(sink.get());
    owned_sinks_.push_back(std::move(sink));
}

void Instance::observe_stats() {
    bool armed = is_compiled() ? obs_armed_ : engine_->recorder() != nullptr;
    if (!armed) {
        recorder_.set_spans_enabled(recorder_.has_sinks());
        arm_recorder();
    }
}

obs::ProcessStats Instance::snapshot() const {
    obs::ProcessStats s = recorder_.stats();
    // Backend-lifetime gauges beat the recorder's (possibly late-armed)
    // window for the fields the backend tracks unconditionally. The
    // compiled backend counts reactions only; instruction/queue gauges are
    // an interpreter-side feature.
    s.reactions = std::max<uint64_t>(s.reactions, reactions());
    if (is_compiled()) return s;
    s.instructions = std::max<uint64_t>(s.instructions, engine_->instructions_executed());
    s.max_reaction_instructions = std::max<uint64_t>(s.max_reaction_instructions,
                                                     engine_->max_reaction_instructions());
    s.queue_peak = std::max(s.queue_peak, engine_->queue_peak());
    s.timers_peak = std::max(s.timers_peak, engine_->pending_timers());
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

void Instance::note(const std::string& line) {
    // Through engine_->trace on the interpreter so engine-side trace
    // filtering (if any) stays authoritative; straight to the buffer on
    // the compiled backend.
    if (is_compiled()) {
        push_trace_line(line);
    } else {
        engine_->trace(line);
    }
}

// -- backend-neutral introspection --------------------------------------------

rt::Engine::Status Instance::status() const {
    return is_compiled() ? aot_status() : engine_->status();
}

rt::Value Instance::result() const {
    if (is_compiled()) return rt::Value::integer(aot_.desc->result(ctx_));
    return engine_->result();
}

size_t Instance::state_bytes() const {
    return is_compiled() ? aot_.desc->ctx_size : engine_->ram_model_bytes();
}

Micros Instance::now() const {
    return is_compiled() ? aot_.desc->now(ctx_) : engine_->now();
}

uint64_t Instance::reactions() const {
    return is_compiled() ? aot_.desc->reactions(ctx_) : engine_->reactions();
}

Micros Instance::next_timer_deadline() const {
    return is_compiled() ? aot_.desc->next_deadline(ctx_)
                         : engine_->next_timer_deadline();
}

bool Instance::has_async_work() const {
    return is_compiled() ? aot_.desc->has_async(ctx_) != 0
                         : engine_->has_async_work();
}

std::string Instance::trace_text() const {
    std::string out;
    for (const auto& line : trace_) {
        out += line;
        out += '\n';
    }
    return out;
}

}  // namespace ceu::host
