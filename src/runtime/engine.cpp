#include "runtime/engine.hpp"

#include <algorithm>
#include <cassert>

#include "obs/obs.hpp"

namespace ceu::rt {

using flat::GateInfo;
using flat::Instr;
using flat::IOp;
using flat::kNormalPrio;
using flat::Pc;

Engine::Engine(const flat::CompiledProgram& cp, const CBindings& bindings, Options opt)
    : cp_(cp), fp_(cp.flat), c_(bindings), opt_(opt) {
    data_.assign(static_cast<size_t>(fp_.data_size), Value::integer(0));
    gate_active_.assign(fp_.gates.size(), 0);
    // Pool the track/emit-frame storage up front: queue occupancy is
    // bounded by the program's static trail count (§4), so after this the
    // scheduler never allocates on a steady-state reaction path.
    queue_.reserve(std::max<size_t>(8, fp_.gates.size() + 1));
    stack_.reserve(8);
    firing_scratch_.reserve(std::max<size_t>(4, fp_.gates.size()));
    expired_scratch_.reserve(std::max<size_t>(4, fp_.gates.size()));
    // The async table is generated C's AS[CEU_ACAP]: reserved once, never
    // grown (AsyncRun compacts a full one).
    if (!fp_.asyncs.empty()) asyncs_.reserve(fp_.async_capacity());
}

// ---------------------------------------------------------------------------
// Scheduling
// ---------------------------------------------------------------------------

void Engine::enqueue(Pc pc, int prio, Value wake) {
    if (obs_ != nullptr && queue_.size() == queue_.capacity()) {
        obs_->count_allocation();
    }
    queue_.push_back({pc, prio, seq_++, wake});
    queue_peak_ = std::max(queue_peak_, queue_.size());
    if (obs_ != nullptr) obs_->gauge_queue_depth(queue_.size());
}

Engine::Track Engine::pop_track() {
    // Highest priority first; FIFO among equals. Queues are tiny (paper §4:
    // sizes are statically bounded), so a linear scan is appropriate.
    // Selection depends only on (prio, seq) — seqs are unique — so the
    // vector's element order is irrelevant and the winner can be removed
    // with an O(1) swap-pop instead of an erase shift.
    const bool lifo = opt_.tie_break == Options::TieBreak::Lifo;
    size_t best = 0;
    for (size_t i = 1; i < queue_.size(); ++i) {
        bool tie = queue_[i].prio == queue_[best].prio;
        bool newer = queue_[i].seq > queue_[best].seq;
        if (queue_[i].prio > queue_[best].prio || (tie && (lifo ? newer : !newer))) {
            best = i;
        }
    }
    Track t = queue_[best];
    queue_[best] = queue_.back();
    queue_.pop_back();
    return t;
}

void Engine::wake_gate(int gate, Value v) {
    gate_active_[static_cast<size_t>(gate)] = 0;
    enqueue(fp_.gates[static_cast<size_t>(gate)].cont, kNormalPrio, v);
}

int Engine::status_code() const {
    switch (status_) {
        case Status::Loaded: return 0;
        case Status::Running: return 1;
        case Status::Terminated: return 2;
        case Status::Faulted: return 3;
    }
    return 0;
}

void Engine::run_reaction() {
    if (!opt_.trap_faults) {
        run_reaction_impl();
    } else {
        try {
            run_reaction_impl();
        } catch (const RuntimeError& e) {
            enter_fault(e);
        }
    }
    if (obs_ != nullptr) obs_->end(status_code(), result_.as_int(), reaction_instr_);
    if (opt_.check_invariants) check_invariants();
}

void Engine::run_reaction_impl() {
    // Drain tracks; when the queue is empty, resume the most recent
    // suspended emitter (stack policy for internal events, §2.2).
    //
    // The flag must drop even when a RuntimeError unwinds with trap_faults
    // off — otherwise the engine looks permanently mid-reaction and a later
    // reset() is rejected as reentrant, leaving armed timers stranded.
    struct ReactionFlag {
        bool& flag;
        explicit ReactionFlag(bool& f) : flag(f) { flag = true; }
        ~ReactionFlag() { flag = false; }
    } guard(in_reaction_);
    reaction_instr_ = 0;
    for (;;) {
        if (!queue_.empty()) {
            exec(pop_track());
        } else if (!stack_.empty()) {
            EmitFrame f = stack_.back();
            stack_.pop_back();
            if (f.dead) continue;
            exec({f.resume, f.prio, seq_++, Value::integer(0)});
        } else {
            break;
        }
    }
    max_reaction_ = std::max(max_reaction_, reaction_instr_);
    ++reactions_;
    check_termination();
}

void Engine::enter_fault(const RuntimeError& e) {
    // The reaction is abandoned: queued tracks and suspended emitters
    // belong to the instant that just failed, so they are dropped (gates
    // and timers stay — reset() is the path back to a clean program).
    in_reaction_ = false;
    max_reaction_ = std::max(max_reaction_, reaction_instr_);
    ++reactions_;
    queue_.clear();
    stack_.clear();
    status_ = Status::Faulted;
    fault_ = FaultInfo{e.message(), e.loc(), reactions_};
    if (on_fault) on_fault(*fault_);
}

void Engine::reset() {
    check_not_reentrant("reset");
    // §4.3 generalized to the whole program: deactivate every gate, disarm
    // every timer, drop queued tracks, suspended emitters and asyncs, and
    // zero the data slots — a reboot must find no residue of the old run.
    std::fill(gate_active_.begin(), gate_active_.end(), uint8_t{0});
    timers_.clear();
    queue_.clear();
    stack_.clear();
    asyncs_.clear();
    async_rr_ = 0;
    data_.assign(data_.size(), Value::integer(0));
    snapshot_strings_.clear();  // no Value can reference the pool anymore
    result_ = Value::integer(0);
    fault_.reset();
    logical_now_ = now_;  // wall-clock persists: reboots don't rewind time
    status_ = Status::Loaded;
}

std::vector<std::string> Engine::verify_invariants() const {
    std::vector<std::string> v;
    if (!in_reaction_) {
        if (!queue_.empty()) {
            v.push_back("stuck tracks: " + std::to_string(queue_.size()) +
                        " queued outside a reaction");
        }
        for (const EmitFrame& f : stack_) {
            if (!f.dead) {
                v.push_back("suspended emitter (pc " + std::to_string(f.resume) +
                            ") survived the reaction");
            }
        }
    }
    for (TimerWheel::GateId g : timers_.armed_gates()) {
        if (g < 0 || static_cast<size_t>(g) >= gate_active_.size()) {
            v.push_back("timer armed on out-of-range gate " + std::to_string(g));
        } else if (!gate_active_[static_cast<size_t>(g)]) {
            v.push_back("timer armed on inactive gate " + std::to_string(g));
        }
    }
    if (status_ == Status::Running && active_gate_count() == 0 && alive_asyncs() == 0) {
        v.push_back("running with no awaiting trails (termination missed)");
    }
    if (status_ == Status::Loaded &&
        (active_gate_count() != 0 || !timers_.empty() || !queue_.empty())) {
        v.push_back("loaded engine carries residual state");
    }
    return v;
}

void Engine::check_invariants() const {
    std::vector<std::string> v = verify_invariants();
    if (v.empty()) return;
    std::string all = "engine invariant violated";
    for (const std::string& s : v) all += "; " + s;
    // An invariant breach is an engine bug, not a program error: it must
    // not be trappable as an environmental fault.
    throw std::logic_error(all);
}

void Engine::check_termination() {
    if (status_ != Status::Running) return;
    for (uint8_t g : gate_active_) {
        if (g) return;
    }
    // "If there are no remaining awaiting trails, the program terminates."
    status_ = Status::Terminated;
}

size_t Engine::alive_asyncs() const {
    size_t n = 0;
    for (const AsyncCtx& a : asyncs_) {
        if (a.alive) ++n;
    }
    return n;
}

size_t Engine::compact_asyncs(std::vector<AsyncCtx>& table, size_t rr) {
    size_t live = 0;
    size_t before = 0;
    for (size_t k = 0; k < table.size(); ++k) {
        if (!table[k].alive) continue;
        if (k < rr) ++before;
        table[live++] = table[k];
    }
    table.resize(live);
    return before;
}

void Engine::check_not_reentrant(const char* api) const {
    if (in_reaction_) {
        // Paper §5: "a binding must never interleave or run multiple of
        // these functions in parallel. This would break the sequential/
        // discrete semantics of time."
        throw RuntimeError({}, std::string(api) +
                                   " called while a reaction chain is running "
                                   "(reentrant API use breaks discrete time)");
    }
}

int Engine::active_gate_count() const {
    int n = 0;
    for (uint8_t g : gate_active_) n += g;
    return n;
}

std::optional<Value> Engine::var(const std::string& name) const {
    for (size_t d = 0; d < cp_.sema.vars.size(); ++d) {
        if (cp_.sema.vars[d].name == name) {
            int s = fp_.var_slot[d];
            if (s >= 0) return data_[static_cast<size_t>(s)];
        }
    }
    return std::nullopt;
}

size_t Engine::ram_model_bytes() const {
    // A 16/32-bit-MCU-flavored model: 4 bytes per slot, 2 per gate (active
    // flag + list link), 6 per armed timer, plus fixed queue headers.
    return static_cast<size_t>(fp_.data_size) * 4 + fp_.gates.size() * 2 +
           timers_.size() * 6 + 32;
}

// ---------------------------------------------------------------------------
// The four-entry API
// ---------------------------------------------------------------------------

void Engine::go_init() {
    assert(status_ == Status::Loaded);
    status_ = Status::Running;
    logical_now_ = now_;
    if (obs_ != nullptr) obs_->begin(obs::ReactionKind::Boot, 0, "", logical_now_);
    enqueue(0, kNormalPrio);
    run_reaction();
}

void Engine::go_event(int event_id, Value v) {
    if (status_ != Status::Running) return;
    if (event_id < 0 || static_cast<size_t>(event_id) >= fp_.ext_gates.size()) return;
    check_not_reentrant("go_event");
    logical_now_ = now_;
    if (obs_ != nullptr) {
        obs_->begin(obs::ReactionKind::Event, event_id,
                    cp_.sema.inputs[static_cast<size_t>(event_id)].name.c_str(),
                    logical_now_);
    }
    // Snapshot: trails that re-await the same event during this reaction
    // must not see this occurrence again. The snapshot buffer is pooled —
    // it is fully consumed before run_reaction() can reuse it for emits.
    firing_scratch_.clear();
    for (int g : fp_.ext_gates[static_cast<size_t>(event_id)]) {
        if (gate_active_[static_cast<size_t>(g)]) firing_scratch_.push_back(g);
    }
    for (int g : firing_scratch_) {
        if (obs_ != nullptr) obs_->wake(g);
        wake_gate(g, v);
    }
    // Even a discarded occurrence is a (trivial) reaction chain.
    run_reaction();
}

void Engine::go_time(Micros now) {
    if (status_ != Status::Running) return;
    check_not_reentrant("go_time");
    now_ = std::max(now_, now);
    for (;;) {
        Micros fired = 0;
        if (!timers_.pop_expired_into(now_, &fired, expired_scratch_)) break;
        const std::vector<int>& gates = expired_scratch_;
        // The reaction is attributed the *deadline*, not the (possibly
        // late) wall-clock instant: residual deltas carry into timers armed
        // by the awakened code (§2.3).
        logical_now_ = fired;
        Micros delta = now_ - fired;
        if (obs_ != nullptr) {
            obs_->begin(obs::ReactionKind::Timer, static_cast<int>(gates.size()),
                        "", logical_now_);
        }
        for (int g : gates) {
            if (gate_active_[static_cast<size_t>(g)]) {
                if (obs_ != nullptr) {
                    obs_->timer_fire(g, delta);
                    obs_->wake(g);
                }
                wake_gate(g, Value::integer(delta));
            }
        }
        run_reaction();
        if (status_ != Status::Running) break;
    }
}

bool Engine::go_async() {
    if (status_ != Status::Running) return false;
    size_t n = asyncs_.size();
    for (size_t k = 0; k < n; ++k) {
        size_t i = (async_rr_ + k) % n;
        if (asyncs_[i].alive) {
            async_rr_ = i + 1;
            if (!opt_.trap_faults) {
                exec_async(asyncs_[i]);
            } else {
                // Faults raised by the async's own expressions are trapped
                // here; faults inside a nested go_event/go_time reaction
                // are already trapped by run_reaction and never rethrow.
                try {
                    exec_async(asyncs_[i]);
                } catch (const RuntimeError& e) {
                    enter_fault(e);
                }
            }
            return alive_asyncs() > 0 && status_ == Status::Running;
        }
    }
    return false;
}

bool Engine::go_async_n(uint64_t n) {
    bool more = false;
    for (uint64_t k = 0; k < n; ++k) {
        more = go_async();
        if (!more) break;
    }
    return more;
}

// ---------------------------------------------------------------------------
// Trail destruction (paper §4.3)
// ---------------------------------------------------------------------------

void Engine::kill_region(int region_idx) {
    const flat::RegionInfo& r = fp_.regions[static_cast<size_t>(region_idx)];
    // Destroying a trail == deactivating its gates (a contiguous range).
    for (int g = r.gate_begin; g < r.gate_end; ++g) {
        gate_active_[static_cast<size_t>(g)] = 0;
    }
    timers_.disarm_range(r.gate_begin, r.gate_end);
    std::erase_if(queue_, [&](const Track& t) {
        return t.pc >= r.pc_begin && t.pc < r.pc_end;
    });
    for (EmitFrame& f : stack_) {
        if (f.resume >= r.pc_begin && f.resume < r.pc_end) f.dead = true;
    }
    for (AsyncCtx& a : asyncs_) {
        if (!a.alive) continue;
        int g = fp_.asyncs[static_cast<size_t>(a.async_idx)].gate;
        if (g >= r.gate_begin && g < r.gate_end) a.alive = false;
    }
}

// ---------------------------------------------------------------------------
// Track execution
// ---------------------------------------------------------------------------

void Engine::exec(Track t) {
    Pc pc = t.pc;
    cur_prio_ = t.prio;
    const Value wake = t.wake;
    for (;;) {
        const Instr& I = fp_.code[static_cast<size_t>(pc)];
        ++instructions_;
        if (++reaction_instr_ > opt_.reaction_budget) {
            throw RuntimeError(I.loc,
                               "reaction chain exceeded its instruction budget "
                               "(internal-event cycle under the Queue ablation, or "
                               "a looping C binding)");
        }
        switch (I.op) {
            case IOp::Nop:
                ++pc;
                break;
            case IOp::Eval:
                (void)eval(*I.e1);
                ++pc;
                break;
            case IOp::Assign:
                store(lvalue(*I.e1), eval(*I.e2));
                ++pc;
                break;
            case IOp::AssignWake:
                store(lvalue(*I.e1), wake);
                ++pc;
                break;
            case IOp::AssignSlot:
                store(lvalue(*I.e1), data_[static_cast<size_t>(I.b)]);
                ++pc;
                break;
            case IOp::IfNot:
                pc = eval(*I.e1).truthy() ? pc + 1 : I.a;
                break;
            case IOp::Jump:
                pc = I.a;
                break;

            case IOp::AwaitExt:
            case IOp::AwaitInt:
            case IOp::AwaitForever:
                gate_active_[static_cast<size_t>(I.b)] = 1;
                return;
            case IOp::AwaitTime: {
                gate_active_[static_cast<size_t>(I.b)] = 1;
                timers_.arm(I.b, logical_now_ + I.us);
                if (obs_ != nullptr) obs_->gauge_timer_count(timers_.size());
                return;
            }
            case IOp::AwaitDyn: {
                Micros dur = eval(*I.e1).as_int();
                gate_active_[static_cast<size_t>(I.b)] = 1;
                timers_.arm(I.b, logical_now_ + dur);
                if (obs_ != nullptr) obs_->gauge_timer_count(timers_.size());
                return;
            }

            case IOp::EmitInt: {
                Value v = I.e1 ? eval(*I.e1) : Value::integer(0);
                // Pooled snapshot buffer: consumed completely below, before
                // any other emit or event delivery can refill it.
                std::vector<int>& firing = firing_scratch_;
                firing.clear();
                for (int g : fp_.int_gates[static_cast<size_t>(I.a)]) {
                    if (gate_active_[static_cast<size_t>(g)]) firing.push_back(g);
                }
                if (firing.empty()) {
                    ++pc;  // no awaiting trails: the event is discarded
                    break;
                }
                if (opt_.internal_events == Options::InternalEvents::Queue) {
                    // Ablation: broadcast-and-continue. The emitter keeps
                    // running; awakened trails are merely enqueued.
                    if (obs_ != nullptr) {
                        obs_->emit(I.a, static_cast<int>(stack_.size()));
                    }
                    for (int g : firing) {
                        if (obs_ != nullptr) obs_->wake(g);
                        wake_gate(g, v);
                    }
                    ++pc;
                    break;
                }
                // Stack policy (§2.2): the emitter halts until every
                // awaiting trail completely reacts.
                stack_.push_back({pc + 1, cur_prio_, false});
                if (obs_ != nullptr) obs_->emit(I.a, static_cast<int>(stack_.size()));
                for (int g : firing) {
                    if (obs_ != nullptr) obs_->wake(g);
                    wake_gate(g, v);
                }
                return;
            }

            case IOp::ParSpawn: {
                const flat::ParInfo& par = fp_.pars[static_cast<size_t>(I.a)];
                if (par.counter_slot >= 0) {
                    data_[static_cast<size_t>(par.counter_slot)] =
                        Value::integer(static_cast<int64_t>(par.branches.size()));
                }
                data_[static_cast<size_t>(par.sched_slot)] = Value::integer(0);
                for (Pc b : par.branches) enqueue(b, kNormalPrio);
                return;
            }

            case IOp::BranchEnd: {
                const flat::ParInfo& par = fp_.pars[static_cast<size_t>(I.a)];
                switch (par.kind) {
                    case ast::ParKind::Par:
                        return;  // never rejoins; the trail halts forever
                    case ast::ParKind::ParAnd: {
                        Value& cnt = data_[static_cast<size_t>(par.counter_slot)];
                        cnt = Value::integer(cnt.i - 1);
                        if (cnt.i > 0) return;
                        break;  // all branches done: fall through to schedule
                    }
                    case ast::ParKind::ParOr:
                        break;
                }
                Value& sched = data_[static_cast<size_t>(par.sched_slot)];
                if (sched.truthy()) return;  // rejoin already scheduled
                sched = Value::integer(1);
                enqueue(par.cont, par.prio);
                return;
            }

            case IOp::KillRegion:
                kill_region(I.a);
                ++pc;
                break;

            case IOp::Escape: {
                const flat::EscapeInfo& esc = fp_.escapes[static_cast<size_t>(I.a)];
                Value& sched = data_[static_cast<size_t>(esc.sched_slot)];
                if (sched.truthy()) return;  // a sibling escaped first
                sched = Value::integer(1);
                if (esc.result_slot >= 0) {
                    data_[static_cast<size_t>(esc.result_slot)] =
                        I.e1 ? eval(*I.e1) : Value::integer(0);
                }
                enqueue(esc.cont, esc.prio);
                return;
            }

            case IOp::ClearSlot:
                data_[static_cast<size_t>(I.b)] = Value::integer(0);
                ++pc;
                break;
            case IOp::Once: {
                Value& flag = data_[static_cast<size_t>(I.b)];
                if (flag.truthy()) return;
                flag = Value::integer(1);
                ++pc;
                break;
            }

            case IOp::ProgReturn:
                result_ = I.e1 ? eval(*I.e1) : Value::integer(0);
                status_ = Status::Terminated;
                queue_.clear();
                stack_.clear();
                timers_.clear();
                return;

            case IOp::AsyncRun: {
                // Generated C's AsyncRun: a full table holds dead contexts
                // (each block has at most one live one), so compact them out
                // in spawn order; still full is a broken invariant and
                // faults, never grows the table or drops the spawn. An
                // exec_async frame below this reaction may now name another
                // context, but it returns without touching it.
                const flat::AsyncInfo& ai = fp_.asyncs[static_cast<size_t>(I.a)];
                gate_active_[static_cast<size_t>(I.b)] = 1;
                if (asyncs_.size() == fp_.async_capacity()) {
                    async_rr_ = compact_asyncs(asyncs_, async_rr_);
                    if (asyncs_.size() == fp_.async_capacity()) {
                        throw RuntimeError(I.loc, "async table full: an async block "
                                                  "has more than one live context");
                    }
                }
                asyncs_.push_back({I.a, ai.begin, true});
                return;
            }

            case IOp::EmitOutput: {
                // Extension: notify the environment through the registered
                // handler; unhandled outputs are traced and dropped.
                Value v = I.e1 ? eval(*I.e1) : Value::integer(0);
                const std::string& name =
                    cp_.sema.outputs[static_cast<size_t>(I.a)].name;
                if (const CBindings::OutputFn* f = c_.find_output(name)) {
                    (*f)(*this, v);
                } else {
                    trace("output " + name + " = " + v.str_repr());
                }
                ++pc;
                break;
            }

            case IOp::AsyncYield:
            case IOp::AsyncEnd:
            case IOp::EmitExtAsync:
            case IOp::EmitTimeAsync:
                throw RuntimeError(I.loc, "asynchronous instruction reached by a "
                                          "synchronous trail (compiler bug)");

            case IOp::Halt:
                return;
        }
    }
}

// ---------------------------------------------------------------------------
// Asynchronous execution (paper §2.7/§2.8)
// ---------------------------------------------------------------------------

void Engine::exec_async(AsyncCtx& ctx) {
    for (;;) {
        if (!ctx.alive || status_ != Status::Running) return;
        const Instr& I = fp_.code[static_cast<size_t>(ctx.pc)];
        ++instructions_;
        switch (I.op) {
            case IOp::Nop:
            case IOp::ClearSlot:
                if (I.op == IOp::ClearSlot) {
                    data_[static_cast<size_t>(I.b)] = Value::integer(0);
                }
                ++ctx.pc;
                break;
            case IOp::Eval:
                (void)eval(*I.e1);
                ++ctx.pc;
                break;
            case IOp::Assign:
                store(lvalue(*I.e1), eval(*I.e2));
                ++ctx.pc;
                break;
            case IOp::IfNot:
                ctx.pc = eval(*I.e1).truthy() ? ctx.pc + 1 : I.a;
                break;
            case IOp::Jump:
                ctx.pc = I.a;
                break;
            case IOp::AsyncYield:
                // End of one go_async slice ("a single loop iteration", §5).
                ++ctx.pc;
                return;
            case IOp::EmitExtAsync: {
                // Input events emitted by asyncs take the same path as real
                // ones; synchronous code has priority, so the reaction runs
                // now and the async yields (§2.8 walkthrough).
                Value v = I.e1 ? eval(*I.e1) : Value::integer(0);
                ++ctx.pc;
                go_event(I.a, v);
                return;
            }
            case IOp::EmitTimeAsync: {
                ++ctx.pc;
                go_time(now_ + I.us);
                return;
            }
            case IOp::AsyncEnd: {
                Value v = I.e1 ? eval(*I.e1) : Value::integer(0);
                ctx.alive = false;
                int g = fp_.asyncs[static_cast<size_t>(I.a)].gate;
                if (gate_active_[static_cast<size_t>(g)]) {
                    if (obs_ != nullptr) {
                        obs_->begin(obs::ReactionKind::Async, I.a, "", logical_now_);
                        obs_->wake(g);
                    }
                    wake_gate(g, v);
                    run_reaction();
                }
                return;
            }
            default:
                throw RuntimeError(I.loc,
                                   "synchronous instruction inside an async block "
                                   "(compiler bug)");
        }
    }
}

// ---------------------------------------------------------------------------
// Expression evaluation
// ---------------------------------------------------------------------------

namespace {
int64_t apply_binop(Tok op, int64_t a, int64_t b, SourceLoc loc) {
    switch (op) {
        case Tok::OrOr: return (a != 0 || b != 0) ? 1 : 0;
        case Tok::AndAnd: return (a != 0 && b != 0) ? 1 : 0;
        case Tok::Or: return a | b;
        case Tok::Xor: return a ^ b;
        case Tok::And: return a & b;
        case Tok::Ne: return a != b ? 1 : 0;
        case Tok::EqEq: return a == b ? 1 : 0;
        case Tok::Le: return a <= b ? 1 : 0;
        case Tok::Ge: return a >= b ? 1 : 0;
        case Tok::Lt: return a < b ? 1 : 0;
        case Tok::Gt: return a > b ? 1 : 0;
        case Tok::Shl: return a << b;
        case Tok::Shr: return a >> b;
        case Tok::Plus: return a + b;
        case Tok::Minus: return a - b;
        case Tok::Star: return a * b;
        case Tok::Slash:
            if (b == 0) throw RuntimeError(loc, "division by zero");
            return a / b;
        case Tok::Percent:
            if (b == 0) throw RuntimeError(loc, "modulo by zero");
            return a % b;
        default:
            throw RuntimeError(loc, "unsupported binary operator");
    }
}
}  // namespace

Value Engine::eval(const ast::Expr& e) {
    using ast::ExprKind;
    switch (e.kind) {
        case ExprKind::Num:
            return Value::integer(static_cast<const ast::NumExpr&>(e).value);
        case ExprKind::Str:
            return Value::str(static_cast<const ast::StrExpr&>(e).value.c_str());
        case ExprKind::Null:
            return Value::pointer(nullptr);

        case ExprKind::Var: {
            const auto& n = static_cast<const ast::VarExpr&>(e);
            if (n.decl_id < 0) throw RuntimeError(e.loc, "unresolved variable");
            int slot = fp_.var_slot[static_cast<size_t>(n.decl_id)];
            const VarInfo& vi = cp_.sema.vars[static_cast<size_t>(n.decl_id)];
            if (vi.array_size > 0) {
                // Arrays decay to a pointer to their first element.
                return Value::pointer(&data_[static_cast<size_t>(slot)].i);
            }
            return data_[static_cast<size_t>(slot)];
        }

        case ExprKind::CSym: {
            const auto& n = static_cast<const ast::CSymExpr&>(e);
            if (int64_t* g = c_.find_global(n.name)) return Value::integer(*g);
            Value v;
            if (c_.get_constant(n.name, &v)) return v;
            throw RuntimeError(e.loc, "unbound C symbol '_" + n.name + "'");
        }

        case ExprKind::Unop: {
            const auto& n = static_cast<const ast::UnopExpr&>(e);
            switch (n.op) {
                case Tok::Not: return Value::integer(eval(*n.sub).truthy() ? 0 : 1);
                case Tok::Tilde: return Value::integer(~eval(*n.sub).as_int());
                case Tok::Minus: return Value::integer(-eval(*n.sub).as_int());
                case Tok::Plus: return eval(*n.sub);
                case Tok::Star: {
                    Value v = eval(*n.sub);
                    if (!v.is_ptr() || v.p == nullptr) {
                        throw RuntimeError(e.loc, "dereference of a non-pointer");
                    }
                    return Value::integer(*v.p);
                }
                case Tok::And: {
                    LRef ref = lvalue(*n.sub);
                    switch (ref.kind) {
                        case LRef::Kind::Slot: return Value::pointer(&ref.slot->i);
                        case LRef::Kind::Raw:
                        case LRef::Kind::CGlobal: return Value::pointer(ref.raw);
                        case LRef::Kind::CArray:
                            throw RuntimeError(e.loc,
                                               "cannot take the address of a C array "
                                               "element binding");
                    }
                    return Value::pointer(nullptr);
                }
                default:
                    throw RuntimeError(e.loc, "unsupported unary operator");
            }
        }

        case ExprKind::Binop: {
            const auto& n = static_cast<const ast::BinopExpr&>(e);
            // Short-circuit like C.
            if (n.op == Tok::AndAnd) {
                if (!eval(*n.lhs).truthy()) return Value::integer(0);
                return Value::integer(eval(*n.rhs).truthy() ? 1 : 0);
            }
            if (n.op == Tok::OrOr) {
                if (eval(*n.lhs).truthy()) return Value::integer(1);
                return Value::integer(eval(*n.rhs).truthy() ? 1 : 0);
            }
            Value a = eval(*n.lhs);
            Value b = eval(*n.rhs);
            return Value::integer(apply_binop(n.op, a.as_int(), b.as_int(), e.loc));
        }

        case ExprKind::Index: {
            LRef ref = lvalue(e);
            switch (ref.kind) {
                case LRef::Kind::Slot: return *ref.slot;
                case LRef::Kind::Raw:
                case LRef::Kind::CGlobal: return Value::integer(*ref.raw);
                case LRef::Kind::CArray: return ref.arr->get(ref.indices);
            }
            return Value::integer(0);
        }

        case ExprKind::Call:
            return call_c(static_cast<const ast::CallExpr&>(e));

        case ExprKind::Cast:
            return eval(*static_cast<const ast::CastExpr&>(e).sub);

        case ExprKind::SizeOf: {
            const auto& n = static_cast<const ast::SizeOfExpr&>(e);
            return Value::integer(n.type.pointer_depth > 0 ? 8 : 4);
        }

        case ExprKind::Field: {
            const auto& n = static_cast<const ast::FieldExpr&>(e);
            Value self;
            bool has_self = false;
            std::string name = callee_name(e, &self, &has_self);
            if (const CBindings::Fn* f = c_.find_fn(name)) {
                if (has_self) {
                    Value args[1] = {self};
                    return (*f)(*this, std::span<const Value>(args, 1));
                }
                return (*f)(*this, {});
            }
            (void)n;
            throw RuntimeError(e.loc, "unbound C field accessor '" + name + "'");
        }
    }
    throw RuntimeError(e.loc, "unsupported expression");
}

std::string Engine::callee_name(const ast::Expr& fn, Value* self, bool* has_self) {
    *has_self = false;
    using ast::ExprKind;
    if (fn.kind == ExprKind::CSym) {
        return static_cast<const ast::CSymExpr&>(fn).name;
    }
    if (fn.kind == ExprKind::Field) {
        const auto& f = static_cast<const ast::FieldExpr&>(fn);
        if (f.base->kind == ExprKind::CSym) {
            // `_lcd.setCursor(...)` -> key "lcd.setCursor"
            return static_cast<const ast::CSymExpr&>(*f.base).name + "." + f.field;
        }
        if (f.base->kind == ExprKind::Var) {
            // `event.type` on a C-typed variable -> key "SDL_Event.type",
            // with a pointer to the variable's slot as implicit argument.
            const auto& v = static_cast<const ast::VarExpr&>(*f.base);
            if (v.decl_id >= 0) {
                const VarInfo& vi = cp_.sema.vars[static_cast<size_t>(v.decl_id)];
                int slot = fp_.var_slot[static_cast<size_t>(v.decl_id)];
                *self = Value::pointer(&data_[static_cast<size_t>(slot)].i);
                *has_self = true;
                return vi.type.name + "." + f.field;
            }
        }
    }
    throw RuntimeError(fn.loc, "uncallable expression");
}

Value Engine::call_c(const ast::CallExpr& call) {
    Value self;
    bool has_self = false;
    std::string name = callee_name(*call.fn, &self, &has_self);
    const CBindings::Fn* f = c_.find_fn(name);
    if (f == nullptr) throw RuntimeError(call.loc, "unbound C function '_" + name + "'");
    std::vector<Value> args;
    args.reserve(call.args.size() + 1);
    if (has_self) args.push_back(self);
    for (const auto& a : call.args) args.push_back(eval(*a));
    return (*f)(*this, args);
}

Engine::LRef Engine::lvalue(const ast::Expr& e) {
    using ast::ExprKind;
    LRef ref;
    ref.loc = e.loc;
    switch (e.kind) {
        case ExprKind::Var: {
            const auto& n = static_cast<const ast::VarExpr&>(e);
            if (n.decl_id < 0) throw RuntimeError(e.loc, "unresolved variable");
            ref.kind = LRef::Kind::Slot;
            ref.slot = &data_[static_cast<size_t>(fp_.var_slot[static_cast<size_t>(n.decl_id)])];
            return ref;
        }
        case ExprKind::CSym: {
            const auto& n = static_cast<const ast::CSymExpr&>(e);
            if (int64_t* g = c_.find_global(n.name)) {
                ref.kind = LRef::Kind::CGlobal;
                ref.raw = g;
                return ref;
            }
            throw RuntimeError(e.loc, "assignment to unbound C symbol '_" + n.name + "'");
        }
        case ExprKind::Unop: {
            const auto& n = static_cast<const ast::UnopExpr&>(e);
            if (n.op != Tok::Star) {
                throw RuntimeError(e.loc, "expression is not assignable");
            }
            Value v = eval(*n.sub);
            if (!v.is_ptr() || v.p == nullptr) {
                throw RuntimeError(e.loc, "dereference of a non-pointer");
            }
            ref.kind = LRef::Kind::Raw;
            ref.raw = v.p;
            return ref;
        }
        case ExprKind::Index: {
            // Collect the index chain; the root decides the addressing mode.
            const ast::Expr* root = &e;
            std::vector<const ast::Expr*> idx_exprs;
            while (root->kind == ExprKind::Index) {
                const auto& ix = static_cast<const ast::IndexExpr&>(*root);
                idx_exprs.push_back(ix.index.get());
                root = ix.base.get();
            }
            std::reverse(idx_exprs.begin(), idx_exprs.end());
            std::vector<int64_t> idx;
            idx.reserve(idx_exprs.size());
            for (const ast::Expr* ie : idx_exprs) idx.push_back(eval(*ie).as_int());

            if (root->kind == ExprKind::Var) {
                const auto& v = static_cast<const ast::VarExpr&>(*root);
                if (v.decl_id < 0) throw RuntimeError(e.loc, "unresolved variable");
                const VarInfo& vi = cp_.sema.vars[static_cast<size_t>(v.decl_id)];
                int slot = fp_.var_slot[static_cast<size_t>(v.decl_id)];
                if (vi.array_size > 0 && idx.size() == 1) {
                    if (idx[0] < 0 || idx[0] >= vi.array_size) {
                        throw RuntimeError(e.loc, "array index " + std::to_string(idx[0]) +
                                                      " out of bounds [0," +
                                                      std::to_string(vi.array_size) + ")");
                    }
                    ref.kind = LRef::Kind::Slot;
                    ref.slot = &data_[static_cast<size_t>(slot + idx[0])];
                    return ref;
                }
                // Pointer variable indexed like a C array.
                Value base = data_[static_cast<size_t>(slot)];
                if (base.is_ptr() && base.p != nullptr && idx.size() == 1) {
                    ref.kind = LRef::Kind::Raw;
                    ref.raw = base.p + idx[0];
                    return ref;
                }
                throw RuntimeError(e.loc, "invalid indexed access");
            }
            if (root->kind == ExprKind::CSym) {
                const auto& cs = static_cast<const ast::CSymExpr&>(*root);
                if (const CBindings::ArrayBinding* ab = c_.find_array(cs.name)) {
                    ref.kind = LRef::Kind::CArray;
                    ref.arr = ab;
                    ref.indices = std::move(idx);
                    return ref;
                }
                throw RuntimeError(e.loc, "unbound C array '_" + cs.name + "'");
            }
            // Arbitrary pointer expression indexed once.
            Value base = eval(*root);
            if (base.is_ptr() && base.p != nullptr && idx.size() == 1) {
                ref.kind = LRef::Kind::Raw;
                ref.raw = base.p + idx[0];
                return ref;
            }
            throw RuntimeError(e.loc, "invalid indexed access");
        }
        default:
            throw RuntimeError(e.loc, "expression is not assignable");
    }
}

void Engine::store(const LRef& ref, Value v) {
    switch (ref.kind) {
        case LRef::Kind::Slot:
            *ref.slot = v;
            return;
        case LRef::Kind::Raw:
        case LRef::Kind::CGlobal:
            *ref.raw = v.as_int();
            return;
        case LRef::Kind::CArray:
            if (!ref.arr->set) {
                throw RuntimeError(ref.loc, "C array binding is read-only");
            }
            ref.arr->set(ref.indices, v);
            return;
    }
}

}  // namespace ceu::rt
