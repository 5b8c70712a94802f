// Engine checkpoint/restore: the versioned binary serialization behind
// host::Instance::save()/load() and the reactor's restart-from-checkpoint
// supervision policy.
//
// Scope. A snapshot captures the engine's complete *dynamic* state — the
// same set of members reset() clears, plus the clocks and lifetime counters
// reset() preserves. The *static* state (compiled program, bindings,
// options) is not serialized; instead the blob carries a structural
// fingerprint of the flat code and load() refuses blobs taken from a
// different program or under different scheduling options. A successful
// load therefore reproduces the saved engine exactly: every subsequent
// reaction — wakes, priorities, timer expiry order, async round-robin
// position — is byte-identical to the uninterrupted run.
//
// Values. Int is trivial. Str is serialized by content and rehydrated into
// an engine-owned string pool (AST literal addresses don't survive across
// processes; all consumers read content). Ptr is split three ways: null;
// *internal* (into the engine's own slot vector — the array-decay case) is
// rebased to a byte offset and relocated on load; *external* (host memory
// exposed by C bindings) is kept verbatim and documented as same-process
// only — a cross-process restore of a program holding live host pointers is
// the embedder's contract to avoid.
#include <algorithm>
#include <cstring>

#include "runtime/engine.hpp"
#include "runtime/snapshot.hpp"

namespace ceu::rt {

namespace {

constexpr char kMagic[8] = {'C', 'E', 'U', 'E', 'N', 'G', '0', '1'};

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

void fnv(uint64_t& h, uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= kFnvPrime;
    }
}

void fnv_str(uint64_t& h, const std::string& s) {
    fnv(h, s.size());
    for (char c : s) {
        h ^= static_cast<uint8_t>(c);
        h *= kFnvPrime;
    }
}

// Value kind tags in the snapshot stream (never reorder: format v1).
enum : uint8_t {
    kValInt = 0,
    kValPtrNull = 1,
    kValPtrInternal = 2,   // byte offset into the slot vector
    kValPtrExternal = 3,   // raw address; same-process restores only
    kValStrNull = 4,
    kValStr = 5,           // by content, into the engine's string pool
};

}  // namespace

uint64_t program_fingerprint(const flat::CompiledProgram& cp) {
    const flat::FlatProgram& fp_ = cp.flat;
    const auto& cp_ = cp;
    uint64_t h = kFnvOffset;
    fnv(h, fp_.code.size());
    for (const flat::Instr& I : fp_.code) {
        fnv(h, static_cast<uint64_t>(I.op));
        fnv(h, static_cast<uint64_t>(static_cast<int64_t>(I.a)));
        fnv(h, static_cast<uint64_t>(static_cast<int64_t>(I.b)));
        fnv(h, static_cast<uint64_t>(I.us));
        fnv(h, I.loc.line);
        fnv(h, I.loc.col);
    }
    fnv(h, fp_.gates.size());
    for (const flat::GateInfo& g : fp_.gates) {
        fnv(h, static_cast<uint64_t>(g.kind));
        fnv(h, static_cast<uint64_t>(static_cast<int64_t>(g.event)));
        fnv(h, static_cast<uint64_t>(static_cast<int64_t>(g.cont)));
        fnv(h, static_cast<uint64_t>(g.us));
    }
    fnv(h, static_cast<uint64_t>(fp_.data_size));
    fnv(h, fp_.regions.size());
    fnv(h, fp_.pars.size());
    fnv(h, fp_.escapes.size());
    fnv(h, fp_.asyncs.size());
    for (const EventInfo& e : cp_.sema.inputs) fnv_str(h, e.name);
    for (const EventInfo& e : cp_.sema.internals) fnv_str(h, e.name);
    for (const EventInfo& e : cp_.sema.outputs) fnv_str(h, e.name);
    return h;
}

uint64_t Engine::program_fingerprint() const { return rt::program_fingerprint(cp_); }

// ---------------------------------------------------------------------------
// save
// ---------------------------------------------------------------------------

namespace {

void write_value(snap::ByteWriter& w, const Value& v, const std::vector<Value>& data) {
    switch (v.kind) {
        case Value::Kind::Int:
            w.u8(kValInt);
            w.i64(v.i);
            return;
        case Value::Kind::Ptr: {
            if (v.p == nullptr) {
                w.u8(kValPtrNull);
                return;
            }
            const char* base = reinterpret_cast<const char*>(data.data());
            const char* addr = reinterpret_cast<const char*>(v.p);
            size_t span = data.size() * sizeof(Value);
            if (addr >= base && addr < base + span) {
                w.u8(kValPtrInternal);
                w.u64(static_cast<uint64_t>(addr - base));
            } else {
                w.u8(kValPtrExternal);
                w.u64(reinterpret_cast<uint64_t>(v.p));
            }
            return;
        }
        case Value::Kind::Str:
            if (v.s == nullptr) {
                w.u8(kValStrNull);
            } else {
                w.u8(kValStr);
                w.str(v.s);
            }
            return;
    }
}

}  // namespace

void Engine::save(std::vector<uint8_t>& out) const {
    check_not_reentrant("save");
    snap::ByteWriter w(out);
    w.bytes(reinterpret_cast<const uint8_t*>(kMagic), sizeof kMagic);
    w.u64(program_fingerprint());
    // Scheduling options are part of the determinism contract: a blob saved
    // under Lifo tie-break must not silently restore into a Fifo engine.
    w.u8(static_cast<uint8_t>(opt_.tie_break));
    w.u8(static_cast<uint8_t>(opt_.internal_events));

    w.u8(static_cast<uint8_t>(status_code()));
    w.u8(fault_.has_value() ? 1 : 0);
    if (fault_.has_value()) {
        w.str(fault_->message);
        w.u32(fault_->loc.line);
        w.u32(fault_->loc.col);
        w.u64(fault_->at_reaction);
    }
    write_value(w, result_, data_);

    w.i64(now_);
    w.i64(logical_now_);
    w.u64(seq_);
    w.u64(reactions_);
    w.u64(instructions_);
    w.u64(max_reaction_);
    w.u64(queue_peak_);
    w.u64(binding_prng);
    w.i64(cur_prio_);
    w.u64(async_rr_);

    w.u32(static_cast<uint32_t>(data_.size()));
    for (const Value& v : data_) write_value(w, v, data_);

    w.u32(static_cast<uint32_t>(gate_active_.size()));
    w.bytes(gate_active_.data(), gate_active_.size());

    w.u32(static_cast<uint32_t>(queue_.size()));
    for (const Track& t : queue_) {
        w.i64(t.pc);
        w.i64(t.prio);
        w.u64(t.seq);
        write_value(w, t.wake, data_);
    }

    w.u32(static_cast<uint32_t>(stack_.size()));
    for (const EmitFrame& f : stack_) {
        w.i64(f.resume);
        w.i64(f.prio);
        w.u8(f.dead ? 1 : 0);
    }

    const std::vector<TimerWheel::Entry>& timers = timers_.entries();
    w.u32(static_cast<uint32_t>(timers.size()));
    for (const TimerWheel::Entry& e : timers) {
        w.i64(e.gate);
        w.i64(e.deadline);
        w.u64(e.seq);
    }
    w.u64(timers_.next_seq());

    // The bounded table as it stands: at most fp_.async_capacity() entries,
    // dead ones included until a full spawn compacts them.
    w.u32(static_cast<uint32_t>(asyncs_.size()));
    for (const AsyncCtx& a : asyncs_) {
        w.i64(a.async_idx);
        w.i64(a.pc);
        w.u8(a.alive ? 1 : 0);
    }
}

// ---------------------------------------------------------------------------
// load
// ---------------------------------------------------------------------------

namespace {

/// Transient string storage while parsing: strings land in the pool first;
/// Values are only retargeted at it on commit (so a late parse error leaves
/// the engine untouched).
struct PendingValue {
    Value v;
    int64_t str_pool_idx = -1;   // >= 0: v.s comes from the pool
    int64_t ptr_offset = -1;     // >= 0: v.p is `offset` bytes into data_
};

PendingValue read_value(snap::ByteReader& r, size_t data_span,
                        std::deque<std::string>& pool) {
    PendingValue out;
    uint8_t tag = r.u8();
    switch (tag) {
        case kValInt:
            out.v = Value::integer(r.i64());
            return out;
        case kValPtrNull:
            out.v = Value::pointer(nullptr);
            return out;
        case kValPtrInternal: {
            uint64_t off = r.u64();
            if (off >= data_span) {
                throw snap::SnapshotError("internal pointer offset out of range");
            }
            out.v = Value::pointer(nullptr);
            out.ptr_offset = static_cast<int64_t>(off);
            return out;
        }
        case kValPtrExternal:
            out.v = Value::pointer(reinterpret_cast<int64_t*>(r.u64()));
            return out;
        case kValStrNull:
            out.v = Value::str(nullptr);
            return out;
        case kValStr:
            pool.push_back(r.str());
            out.v = Value::str(nullptr);
            out.str_pool_idx = static_cast<int64_t>(pool.size()) - 1;
            return out;
        default:
            throw snap::SnapshotError("unknown value tag " + std::to_string(tag));
    }
}

}  // namespace

void Engine::load(const uint8_t* data, size_t size) {
    check_not_reentrant("load");
    snap::ByteReader r(data, size);

    uint8_t magic[sizeof kMagic];
    for (uint8_t& b : magic) b = r.u8();
    if (std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
        throw snap::SnapshotError("bad magic (not a CEUENG01 engine snapshot)");
    }
    if (r.u64() != program_fingerprint()) {
        throw snap::SnapshotError("program fingerprint mismatch (snapshot was "
                                  "taken from a different program)");
    }
    if (r.u8() != static_cast<uint8_t>(opt_.tie_break) ||
        r.u8() != static_cast<uint8_t>(opt_.internal_events)) {
        throw snap::SnapshotError("scheduling options differ from the saving engine");
    }

    // Parse everything into temporaries first: the engine is only mutated
    // after the whole blob has validated.
    uint8_t status_byte = r.u8();
    if (status_byte > 3) throw snap::SnapshotError("bad status byte");
    std::optional<FaultInfo> fault;
    if (r.u8() != 0) {
        FaultInfo fi;
        fi.message = r.str();
        fi.loc.line = r.u32();
        fi.loc.col = r.u32();
        fi.at_reaction = r.u64();
        fault = std::move(fi);
    }

    const size_t data_span = data_.size() * sizeof(Value);
    std::deque<std::string> pool;
    PendingValue result = read_value(r, data_span, pool);

    Micros now = r.i64();
    Micros logical_now = r.i64();
    uint64_t seq = r.u64();
    uint64_t reactions = r.u64();
    uint64_t instructions = r.u64();
    uint64_t max_reaction = r.u64();
    uint64_t queue_peak = r.u64();
    uint64_t prng = r.u64();
    int64_t cur_prio = r.i64();
    uint64_t async_rr = r.u64();

    uint32_t n_data = r.count(1);
    if (n_data != data_.size()) {
        throw snap::SnapshotError("slot count mismatch");
    }
    std::vector<PendingValue> slots;
    slots.reserve(n_data);
    for (uint32_t i = 0; i < n_data; ++i) slots.push_back(read_value(r, data_span, pool));

    uint32_t n_gates = r.count(1);
    if (n_gates != gate_active_.size()) {
        throw snap::SnapshotError("gate count mismatch");
    }
    std::vector<uint8_t> gates(n_gates);
    for (uint32_t i = 0; i < n_gates; ++i) {
        uint8_t g = r.u8();
        if (g > 1) throw snap::SnapshotError("bad gate flag");
        gates[i] = g;
    }

    const int64_t code_size = static_cast<int64_t>(fp_.code.size());
    uint32_t n_queue = r.count(25);
    std::vector<Track> queue;
    std::vector<PendingValue> wakes;
    queue.reserve(n_queue);
    wakes.reserve(n_queue);
    for (uint32_t i = 0; i < n_queue; ++i) {
        Track t;
        int64_t pc = r.i64();
        if (pc < 0 || pc >= code_size) throw snap::SnapshotError("track pc out of range");
        t.pc = static_cast<flat::Pc>(pc);
        t.prio = static_cast<int>(r.i64());
        t.seq = r.u64();
        wakes.push_back(read_value(r, data_span, pool));
        queue.push_back(t);
    }

    uint32_t n_stack = r.count(17);
    std::vector<EmitFrame> stack;
    stack.reserve(n_stack);
    for (uint32_t i = 0; i < n_stack; ++i) {
        EmitFrame f;
        int64_t pc = r.i64();
        if (pc < 0 || pc >= code_size) {
            throw snap::SnapshotError("emit-frame pc out of range");
        }
        f.resume = static_cast<flat::Pc>(pc);
        f.prio = static_cast<int>(r.i64());
        f.dead = r.u8() != 0;
        stack.push_back(f);
    }

    uint32_t n_timers = r.count(24);
    std::vector<TimerWheel::Entry> timers;
    timers.reserve(n_timers);
    for (uint32_t i = 0; i < n_timers; ++i) {
        TimerWheel::Entry e;
        int64_t gate = r.i64();
        if (gate < 0 || static_cast<size_t>(gate) >= gate_active_.size()) {
            throw snap::SnapshotError("timer gate out of range");
        }
        e.gate = static_cast<TimerWheel::GateId>(gate);
        e.deadline = r.i64();
        e.seq = r.u64();
        timers.push_back(e);
    }
    uint64_t timer_seq = r.u64();

    uint32_t n_asyncs = r.count(17);
    std::vector<AsyncCtx> asyncs;
    asyncs.reserve(n_asyncs);
    for (uint32_t i = 0; i < n_asyncs; ++i) {
        AsyncCtx a;
        int64_t idx = r.i64();
        if (idx < 0 || static_cast<size_t>(idx) >= fp_.asyncs.size()) {
            throw snap::SnapshotError("async index out of range");
        }
        a.async_idx = static_cast<int>(idx);
        int64_t pc = r.i64();
        if (pc < 0 || pc >= code_size) throw snap::SnapshotError("async pc out of range");
        a.pc = static_cast<flat::Pc>(pc);
        a.alive = r.u8() != 0;
        asyncs.push_back(a);
    }
    if (async_rr > n_asyncs) {
        throw snap::SnapshotError("async round-robin cursor out of range");
    }
    // Older blobs carry every dead context their engine ever spawned: keep
    // only the live ones, as a full table's compaction would. What remains
    // must fit the one-live-context-per-block bound of the table.
    async_rr = compact_asyncs(asyncs, static_cast<size_t>(async_rr));
    for (size_t i = 0; i < asyncs.size(); ++i) {
        for (size_t j = 0; j < i; ++j) {
            if (asyncs[j].async_idx == asyncs[i].async_idx) {
                throw snap::SnapshotError("async block " +
                                          std::to_string(asyncs[i].async_idx) +
                                          " has more than one live context");
            }
        }
    }
    if (!r.done()) {
        throw snap::SnapshotError("trailing bytes after engine state");
    }

    // -- commit (nothing below throws) ---------------------------------------

    snapshot_strings_ = std::move(pool);
    char* base = reinterpret_cast<char*>(data_.data());
    auto finalize = [&](PendingValue& pv) -> Value {
        if (pv.str_pool_idx >= 0) {
            pv.v.s = snapshot_strings_[static_cast<size_t>(pv.str_pool_idx)].c_str();
        }
        if (pv.ptr_offset >= 0) {
            pv.v.p = reinterpret_cast<int64_t*>(base + pv.ptr_offset);
        }
        return pv.v;
    };

    switch (status_byte) {
        case 0: status_ = Status::Loaded; break;
        case 1: status_ = Status::Running; break;
        case 2: status_ = Status::Terminated; break;
        case 3: status_ = Status::Faulted; break;
    }
    fault_ = std::move(fault);
    result_ = finalize(result);
    for (size_t i = 0; i < slots.size(); ++i) data_[i] = finalize(slots[i]);
    gate_active_ = std::move(gates);
    for (size_t i = 0; i < queue.size(); ++i) queue[i].wake = finalize(wakes[i]);
    queue_ = std::move(queue);
    stack_ = std::move(stack);
    // Re-apply the constructor's storage pooling: a freshly parsed vector
    // sized to its contents would grow on the next enqueue, and that
    // growth is observable (the recorder counts allocation events — a
    // restored run must report the same stats as an uninterrupted one).
    queue_.reserve(std::max<size_t>(8, fp_.gates.size() + 1));
    stack_.reserve(8);
    timers_.restore(std::move(timers), timer_seq);
    asyncs_.assign(asyncs.begin(), asyncs.end());  // keeps the reserved table

    now_ = now;
    logical_now_ = logical_now;
    seq_ = seq;
    reactions_ = reactions;
    instructions_ = instructions;
    max_reaction_ = max_reaction;
    queue_peak_ = static_cast<size_t>(queue_peak);
    binding_prng = prng;
    cur_prio_ = static_cast<int>(cur_prio);
    async_rr_ = static_cast<size_t>(async_rr);
    in_reaction_ = false;
    reaction_instr_ = 0;
}

}  // namespace ceu::rt
