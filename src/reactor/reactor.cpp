#include "reactor/reactor.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>

#if defined(__linux__)
#include <sched.h>
#endif

namespace ceu::reactor {

namespace {
uint64_t mono_ns() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// Pins the calling thread to the idx-th CPU the process is allowed on
/// (cpuset-aware: the allowed set, not the machine's raw CPU list). Best
/// effort — failure just leaves the thread floating.
void pin_self_to_allowed_cpu(size_t idx) {
#if defined(__linux__)
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
    if (cpus.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[idx % cpus.size()], &one);
    (void)sched_setaffinity(0, sizeof one, &one);
#else
    (void)idx;
#endif
}
}  // namespace

Reactor::Reactor(ReactorConfig cfg)
    : cfg_(cfg), shards_(std::max<size_t>(1, cfg.workers)) {
    for (Shard& sh : shards_) {
        sh.timers = FleetTimers([this](InstanceId id) { return !current(id); });
    }
    if (shards_.size() > 1) {
        threads_.reserve(shards_.size());
        for (size_t i = 0; i < shards_.size(); ++i) {
            threads_.emplace_back(&Reactor::worker_main, this, i);
        }
    }
}

Reactor::~Reactor() {
    if (!threads_.empty()) {
        {
            std::lock_guard<std::mutex> lk(pool_mu_);
            exit_ = true;
            ++generation_;
        }
        pool_cv_.notify_all();
        for (std::thread& t : threads_) t.join();
    }
    // Undelivered envelopes are pool cells, not heap nodes: return them to
    // their pool before the Mailbox destructor (which deletes whatever is
    // left — correct for standalone mailboxes, fatal for pooled cells).
    for (Shard& sh : shards_) {
        sh.drained.clear();
        sh.mailbox.drain_into(sh.drained);
        for (Envelope* e : sh.drained) sh.pool.free(e);
        sh.drained.clear();
    }
    for (std::atomic<Slot*>& c : chunks_) {
        delete[] c.load(std::memory_order_relaxed);
    }
}

// -- fleet construction -------------------------------------------------------

const Reactor::Slot& Reactor::table_slot(InstanceId id) const {
    if (instance_slot(id) >= published_.load(std::memory_order_acquire)) {
        throw std::out_of_range("reactor: unknown instance id");
    }
    return slot(id);
}

const Reactor::Slot& Reactor::live_slot(InstanceId id) const {
    const Slot& sl = table_slot(id);
    if (!current(id) || sl.inst == nullptr) {
        throw std::out_of_range("reactor: unknown or retired instance id");
    }
    return sl;
}

InstanceId Reactor::add_instance(std::shared_ptr<const flat::CompiledProgram> cp,
                                 host::Config hcfg) {
    uint32_t idx;
    bool grow = free_slots_.empty();
    if (grow) {
        size_t n = published_.load(std::memory_order_relaxed);
        if (n >= kMaxChunks * kChunkSize) {
            throw std::length_error("reactor: instance table full");
        }
        size_t c = n >> kChunkShift;
        if (chunks_[c].load(std::memory_order_relaxed) == nullptr) {
            chunks_[c].store(new Slot[kChunkSize], std::memory_order_release);
        }
        idx = static_cast<uint32_t>(n);
    } else {
        idx = free_slots_.back();
    }
    Slot& sl = slot(idx);
    InstanceId id = make_instance_id(idx, sl.generation.load(std::memory_order_relaxed));
    hcfg.engine = cfg_.engine;
    hcfg.collect_trace = cfg_.collect_traces;
    sl.inst = std::make_unique<host::Instance>(cp, hcfg);
    if (cfg_.observe_stats) sl.inst->observe_stats();
    // Per-reaction wall-clock sampling is two clock_gettime calls — ~10%
    // of a small interpreted reaction — for numbers no fleet reads.
    sl.inst->recorder().set_timing_enabled(false);
    sl.policy = cfg_.supervise;
    sl.indexed_deadline = -1;
    sl.timer_entries = 0;
    sl.async_listed = false;
    sl.booted = false;
    // Release: an injector that reads this program also reads the
    // generation bump of the retire that freed the slot.
    sl.program.store(programs_.insert(std::move(cp)).first->get(),
                     std::memory_order_release);
    shard_of(id).fresh.push_back(id);
    if (grow) {
        // Publish *after* the slot is fully constructed: a concurrent
        // injector that reads the new size (acquire) sees a complete slot.
        published_.store(idx + 1, std::memory_order_release);
    } else {
        free_slots_.pop_back();
    }
    return id;
}

obs::ProcessStats Reactor::member_stats(const Slot& sl) {
    obs::ProcessStats s = sl.inst->snapshot();
    // Supervision counters live on the reactor, not the engine; stamp
    // them onto the member's snapshot so one merge covers both.
    s.checkpoints += sl.sup.checkpoints;
    s.restores += sl.sup.restores;
    s.supervised_restarts += sl.sup.supervised_restarts;
    s.quarantines += sl.sup.quarantined ? 1 : 0;
    // Raw faults come from the supervisor's lifetime count, not the
    // recorder: restoring a checkpoint rewinds the recorder to the
    // pre-fault timeline, which would erase the fault it recovered
    // from. The supervisor never forgets one.
    s.faults = std::max(s.faults, sl.sup.faults);
    return s;
}

void Reactor::retire(InstanceId id) {
    if (retired(id)) return;
    Slot& sl = slot(id);
    retired_stats_.merge(member_stats(sl));
    // Stale from here on: injectors now get Retired, and the shard drops
    // the member's queue, timer, async and restart entries when reached.
    sl.generation.store(instance_generation(id) + 1, std::memory_order_release);
    shard_of(id).timers.forget(sl.timer_entries);
    sl.inst.reset();
    sl.sup = MemberState{};
    std::string().swap(sl.error);
    free_slots_.push_back(instance_slot(id));
}

bool Reactor::retired(InstanceId id) const {
    const Slot& sl = table_slot(id);
    uint32_t gen = sl.generation.load(std::memory_order_relaxed);
    uint32_t g = instance_generation(id);
    if (g > gen || (g == gen && sl.inst == nullptr)) {
        throw std::out_of_range("reactor: unknown instance id");  // never handed out
    }
    return g < gen;
}

void Reactor::set_policy(InstanceId id, const SupervisorPolicy& policy) {
    Slot& sl = live_slot(id);
    sl.policy = policy;
    // Cadence re-derives from the next reaction boundary (lazy init in
    // after_reaction); dropping the old threshold makes that happen.
    sl.sup.next_checkpoint_at = 0;
}

const MemberState& Reactor::supervision(InstanceId id) const {
    return live_slot(id).sup;
}

void Reactor::boot() {
    // The control thread owns every shard between rounds (restart() relies
    // on the same), so it boots the fresh members itself, shard by shard:
    // no pool wake-up and barrier for a few new members.
    for (Shard& sh : shards_) boot_shard(sh);
}

void Reactor::boot_shard(Shard& sh) {
    for (InstanceId id : sh.fresh) {
        Slot& sl = slot(id);
        // Retired before its boot, or already power-cycled by restart().
        if (!current(id) || sl.booted) continue;
        sl.booted = true;
        try {
            sl.inst->advance_to(now_);  // late joiners boot at the fleet instant
            sl.inst->boot();
            sh.local_ops.clear();
            after_reaction(id, sl, sh.local_ops);
            apply_ops(sh, id, sh.local_ops);
        } catch (const std::exception& ex) {
            sl.error = ex.what();
        }
    }
    sh.fresh.clear();
    sh.work_left = !sh.async_live.empty() || shard_has_due_restart(sh) ||
                   (sh.timers.next_deadline() >= 0 && sh.timers.next_deadline() <= now_);
}

// -- inputs -------------------------------------------------------------------

InjectResult Reactor::inject(InstanceId id, EventId event, rt::Value v) {
    Slot& sl = table_slot(id);
    // A retire racing this check leaves the envelope queued under a stale
    // id: it is dropped at delivery, like one queued before the retire.
    if (sl.generation.load(std::memory_order_acquire) != instance_generation(id)) {
        return {InjectResult::Status::Retired, 0};
    }
    // Reserve an inbox seat before allocating anything: capacity is
    // enforced at the producer, so a flooded member sheds here instead of
    // growing its mailbox without bound. The seat is released by the
    // draining executor, one per envelope.
    uint32_t prev = sl.inbox_depth.fetch_add(1, std::memory_order_acq_rel);
    if (cfg_.inbox_capacity > 0 && prev >= cfg_.inbox_capacity) {
        sl.inbox_depth.fetch_sub(1, std::memory_order_relaxed);
        sl.sheds.fetch_add(1, std::memory_order_relaxed);
        // The shed occurrence consumes a ticket: accepted tickets keep
        // their total order, and the rejected caller learns which ordinal
        // was dropped.
        uint64_t t = ticket_.fetch_add(1, std::memory_order_relaxed);
        return {InjectResult::Status::Shed, t};
    }
    Shard& sh = shard_of(id);
    // Pool cell, not a heap node: a warmed-up fleet injects and drains
    // without ever touching the global allocator.
    Envelope* e = sh.pool.alloc();
    e->instance = id;
    e->event = event;
    e->value = v;
    // push() transfers ownership: a worker draining mid-round may consume
    // and recycle the envelope immediately, so the ticket must be returned
    // from a local, never read back through e.
    uint64_t t = ticket_.fetch_add(1, std::memory_order_relaxed);
    e->ticket = t;
    sh.mailbox.push(e);
    return {InjectResult::Status::Accepted, t};
}

InjectResult Reactor::inject(InstanceId id, const std::string& event, rt::Value v) {
    const Slot& sl = table_slot(id);
    // The program before the generation: a program stored by a later
    // add_instance() comes with the bump of the retire before it, so if
    // the generation still matches, `cp` is this member's program. Either
    // way it stays alive (programs_), and it is immutable, so the name
    // path is as thread-safe as the id path.
    const flat::CompiledProgram* cp = sl.program.load(std::memory_order_acquire);
    if (sl.generation.load(std::memory_order_acquire) != instance_generation(id)) {
        return {InjectResult::Status::Retired, 0};
    }
    EventId ev = cp->sema.input_id(event);
    if (ev == kNoEvent) return {InjectResult::Status::UnknownEvent, 0};
    return inject(id, ev, v);
}

void Reactor::advance(Micros delta) {
    if (delta > 0) now_ += delta;
    run_round();
}

// -- rounds -------------------------------------------------------------------

void Reactor::run_round() {
    dispatch_round();
    if (on_round_end) on_round_end();
}

bool Reactor::work_pending() const {
    for (const Shard& sh : shards_) {
        if (sh.work_left || !sh.mailbox.empty()) return true;
    }
    return false;
}

size_t Reactor::drain(size_t max_rounds) {
    size_t rounds = 0;
    while (rounds < max_rounds && work_pending()) {
        run_round();
        ++rounds;
    }
    return rounds;
}

std::vector<Reactor::DrainedMember> Reactor::drain_and_checkpoint(size_t max_rounds) {
    drain(max_rounds);
    std::vector<DrainedMember> out;
    size_t n = published_.load(std::memory_order_acquire);
    for (size_t i = 0; i < n; ++i) {
        const Slot& sl = slot(i);
        if (sl.inst == nullptr || !sl.booted) continue;
        rt::Engine::Status st = sl.inst->status();
        if (st != rt::Engine::Status::Running && st != rt::Engine::Status::Faulted) {
            continue;  // Terminated (or never-ran) members have nothing to resume
        }
        auto idx = static_cast<uint32_t>(i);
        out.push_back({make_instance_id(idx, sl.generation.load(std::memory_order_relaxed)),
                       sl.inst->save()});
    }
    return out;
}

Micros Reactor::next_restart_due() const {
    Micros best = -1;
    for (const Shard& sh : shards_) {
        for (const RestartDue& d : sh.agenda) {
            if (current(d.instance) && (best < 0 || d.due < best)) best = d.due;
        }
    }
    return best;
}

void Reactor::sync_clock(Slot& sl) { sl.inst->advance_to(now_); }

// -- supervision --------------------------------------------------------------

void Reactor::on_member_fault(InstanceId id, Slot& sl, std::vector<DeferredOp>& ops) {
    sl.sup.fault_open = true;
    uint64_t tick = static_cast<uint64_t>(now_ / kTimerGranularity);
    size_t in_window = note_fault_tick(sl.sup, sl.policy, tick);
    if (sl.policy.quarantine_after > 0 &&
        in_window >= sl.policy.quarantine_after) {
        sl.sup.quarantined = true;
        sl.inst->note("[supervisor] quarantined after " +
                      std::to_string(sl.sup.faults) + " faults");
        return;
    }
    if (sl.policy.restart == SupervisorPolicy::Restart::Park) return;
    Micros delay =
        backoff_delay_us(sl.policy, cfg_.seed, id, sl.sup.faults, kTimerGranularity);
    ops.push_back({DeferredOp::Kind::Agenda, now_ + delay});
}

void Reactor::restart_member(InstanceId id, Shard& sh) {
    if (!current(id)) return;  // retired since the fault
    Slot& sl = slot(id);
    if (sl.sup.quarantined) return;
    if (sl.inst->status() != rt::Engine::Status::Faulted) return;
    host::Instance& inst = *sl.inst;
    if (sl.policy.restart == SupervisorPolicy::Restart::Restore &&
        !sl.sup.checkpoint.empty()) {
        inst.load(sl.sup.checkpoint);
        ++sl.sup.restores;
        inst.note("[supervisor] restored from checkpoint (fault " +
                  std::to_string(sl.sup.faults) + ")");
        // Catch the restored clock up to the fleet instant: timers that
        // came due between the checkpoint and now fire immediately, in
        // deadline order, exactly as for a late joiner.
        inst.advance_to(now_);
    } else {
        inst.reset();
        inst.advance_to(now_);  // reboot at the fleet instant, not the epoch
        inst.note("[supervisor] rebooted (fault " +
                  std::to_string(sl.sup.faults) + ")");
        inst.boot();
    }
    ++sl.sup.supervised_restarts;
    sl.sup.fault_open = false;
    sl.sup.next_checkpoint_at = 0;  // cadence restarts from the new state
    sl.indexed_deadline = -1;       // timer entries from the old life are stale
    sh.local_ops.clear();
    after_reaction(id, sl, sh.local_ops);
    apply_ops(sh, id, sh.local_ops);
}

void Reactor::restart(InstanceId id) {
    Slot& sl = live_slot(id);
    Shard& sh = shard_of(id);
    sl.inst->advance_to(now_);  // crash happens at the fleet instant
    sl.inst->power_cycle();
    sl.booted = true;
    sl.sup.fault_open = false;
    sl.sup.next_checkpoint_at = 0;
    sl.indexed_deadline = -1;  // timer entries from the old life are stale
    sh.local_ops.clear();
    after_reaction(id, sl, sh.local_ops);
    apply_ops(sh, id, sh.local_ops);
}

bool Reactor::shard_has_due_restart(const Shard& sh) const {
    for (const RestartDue& d : sh.agenda) {
        if (d.due <= now_) return true;
    }
    return false;
}

void Reactor::after_reaction(InstanceId id, Slot& sl, std::vector<DeferredOp>& ops) {
    // Backend-neutral gauges: interpreted and AOT-compiled members expose
    // the same status/reactions/deadline/async surface through Instance.
    const host::Instance& inst = *sl.inst;
    if (inst.status() == rt::Engine::Status::Faulted) {
        // Parked (or awaiting its scheduled restart): a Faulted engine
        // ignores go_time/go_event, so keeping its deadline indexed would
        // make the shard re-collect a dead entry every round.
        if (!sl.sup.fault_open) on_member_fault(id, sl, ops);
        return;
    }
    if (sl.policy.checkpoint_every > 0 &&
        inst.status() == rt::Engine::Status::Running) {
        if (sl.sup.next_checkpoint_at == 0) {
            sl.sup.next_checkpoint_at = inst.reactions() + sl.policy.checkpoint_every;
        } else if (inst.reactions() >= sl.sup.next_checkpoint_at) {
            sl.sup.checkpoint = sl.inst->save();
            ++sl.sup.checkpoints;
            sl.sup.next_checkpoint_at = inst.reactions() + sl.policy.checkpoint_every;
        }
    }
    Micros d = inst.next_timer_deadline();
    if (d >= 0 && d != sl.indexed_deadline) {
        ops.push_back({DeferredOp::Kind::Timer, d});
        sl.indexed_deadline = d;
        ++sl.timer_entries;  // the owner applies the op this round
    }
    if (!sl.async_listed && inst.status() == rt::Engine::Status::Running &&
        inst.has_async_work()) {
        ops.push_back({DeferredOp::Kind::AsyncList, 0});
        sl.async_listed = true;
    }
}

void Reactor::apply_ops(Shard& sh, InstanceId id, const std::vector<DeferredOp>& ops) {
    for (const DeferredOp& op : ops) {
        switch (op.kind) {
            case DeferredOp::Kind::Timer:
                sh.timers.schedule(id, op.at);
                break;
            case DeferredOp::Kind::AsyncList:
                sh.async_live.push_back(id);
                break;
            case DeferredOp::Kind::Agenda:
                sh.agenda.push_back({op.at, id});
                break;
        }
    }
}

// -- stealable work items -----------------------------------------------------

void Reactor::execute_item(Shard& sh, size_t idx) {
    const RoundItem& it = sh.items[idx];
    std::vector<DeferredOp>& ops = sh.ops[idx];
    ops.clear();
    Slot& sl = slot(it.id);
    if (it.phase == 1) {
        // All of one instance's envelopes this round, in ticket order. A
        // member retired since they were queued gets none; the slot's next
        // member may be running in another item, so only atomics are
        // touched for them.
        bool deliver = current(it.id) && sl.booted;
        for (uint32_t k = it.env_begin; k < it.env_end; ++k) {
            Envelope* e = sh.drained[k];
            sl.inbox_depth.fetch_sub(1, std::memory_order_relaxed);
            if (deliver) {
                try {
                    sync_clock(sl);
                    sl.inst->inject(static_cast<int>(e->event), e->value);
                    after_reaction(it.id, sl, ops);
                } catch (const std::exception& ex) {
                    if (sl.error.empty()) sl.error = ex.what();
                }
            }
            sh.pool.free(e);
        }
    } else {
        // One instance's async slice budget.
        sl.async_listed = false;
        try {
            if (cfg_.async_slices_per_round > 0) {
                // One batched call per member per round: a compiled
                // backend crosses the ABI once for the whole budget.
                // Both backends stop early on their own when the
                // program leaves Running or the async queue drains.
                sl.inst->run_async_slices(cfg_.async_slices_per_round);
            }
            after_reaction(it.id, sl, ops);
        } catch (const std::exception& ex) {
            if (sl.error.empty()) sl.error = ex.what();
        }
    }
    sh.done[idx].store(1, std::memory_order_release);
}

void Reactor::run_items(Shard& sh, size_t n) {
    if (sh.ops.size() < n) sh.ops.resize(n);
    if (sh.done_cap < n) {
        sh.done = std::make_unique<std::atomic<uint8_t>[]>(n);
        sh.done_cap = n;
    }
    if (shards_.size() == 1) {
        // Single worker: execute and apply per item, in order. Identical
        // op order to the stealing path below — that equivalence is the
        // determinism argument.
        for (size_t i = 0; i < n; ++i) {
            execute_item(sh, i);
            apply_ops(sh, sh.items[i].id, sh.ops[i]);
        }
        return;
    }
    for (size_t i = 0; i < n; ++i) {
        sh.done[i].store(0, std::memory_order_relaxed);
    }
    sh.deque.reserve(n);
    sh.deque.publish(static_cast<uint32_t>(n));
    // Owner works the front of the order; thieves take from the back.
    int64_t idx;
    while ((idx = sh.deque.take()) >= 0) {
        execute_item(sh, static_cast<size_t>(idx));
    }
    // Bookkeeping in item order, waiting on stolen items still in flight.
    // The acquire load pairs with the executor's release store, ordering
    // every engine/slot write before the owner's (and the next phase's)
    // reads.
    for (size_t i = 0; i < n; ++i) {
        while (sh.done[i].load(std::memory_order_acquire) == 0) {
            std::this_thread::yield();
        }
        apply_ops(sh, sh.items[i].id, sh.ops[i]);
    }
}

void Reactor::steal_loop(size_t self) {
    Shard& me = shards_[self];
    size_t empty_scans = 0;
    // Keep helping until every shard has finished its own round (stragglers
    // may still publish phase-3 work), with a bounded give-up so an idle
    // helper on an oversubscribed box parks at the barrier instead of
    // burning the victim's cycles.
    while (round_fini_.load(std::memory_order_acquire) < shards_.size() &&
           empty_scans < 64) {
        bool got = false;
        for (size_t off = 1; off < shards_.size(); ++off) {
            Shard& victim = shards_[(self + off) % shards_.size()];
            for (;;) {
                int64_t idx = victim.deque.steal();
                if (idx < 0) break;
                execute_item(victim, static_cast<size_t>(idx));
                me.steals.fetch_add(1, std::memory_order_relaxed);
                got = true;
            }
        }
        if (got) {
            empty_scans = 0;
        } else {
            me.steal_failures.fetch_add(1, std::memory_order_relaxed);
            ++empty_scans;
            std::this_thread::yield();
        }
    }
}

void Reactor::run_shard_round(Shard& sh) {
    // Per-phase round wall time, accumulated into fleet_stats().phase_ns.
    uint64_t t0 = mono_ns();
    auto lap = [&sh, &t0](size_t phase) {
        uint64_t t1 = mono_ns();
        sh.phase_ns[phase] += t1 - t0;
        t0 = t1;
    };

    // Phase 0: supervised restarts whose backoff expired by the fleet
    // instant, in (due, instance) order — a pure function of the fault
    // history, independent of worker layout. Shard-owned: restarts touch
    // the timers and agenda directly and are rare by construction.
    if (!sh.agenda.empty()) {
        sh.due_restarts.clear();
        for (size_t i = 0; i < sh.agenda.size();) {
            if (sh.agenda[i].due <= now_) {
                sh.due_restarts.push_back(sh.agenda[i]);
                sh.agenda[i] = sh.agenda.back();
                sh.agenda.pop_back();
            } else {
                ++i;
            }
        }
        std::sort(sh.due_restarts.begin(), sh.due_restarts.end(),
                  [](const RestartDue& a, const RestartDue& b) {
                      return a.due != b.due ? a.due < b.due : a.instance < b.instance;
                  });
        for (const RestartDue& d : sh.due_restarts) {
            try {
                restart_member(d.instance, sh);
            } catch (const std::exception& ex) {
                Slot& sl = slot(d.instance);
                if (sl.error.empty()) sl.error = ex.what();
            }
        }
    }
    lap(0);

    // Phase 1: events. One atomic exchange empties the mailbox; tickets
    // restore per-instance injection order. The batch is grouped into one
    // stealable item per target instance (groups ordered by their first
    // ticket), each delivering its envelopes in ticket order after lazily
    // syncing the target's clock to the fleet instant (due timers fire
    // first, as they would have under real time). Every envelope releases
    // its inbox seat, delivered or not.
    sh.drained.clear();
    sh.mailbox.drain_into(sh.drained);
    if (!sh.drained.empty()) {
        // Group by instance, keeping ticket order inside each group.
        std::sort(sh.drained.begin(), sh.drained.end(),
                  [](const Envelope* a, const Envelope* b) {
                      return a->instance != b->instance ? a->instance < b->instance
                                                        : a->ticket < b->ticket;
                  });
        sh.groups.clear();
        for (uint32_t k = 0; k < sh.drained.size();) {
            uint32_t begin = k;
            InstanceId id = sh.drained[k]->instance;
            while (k < sh.drained.size() && sh.drained[k]->instance == id) ++k;
            sh.groups.emplace_back(begin, k);
        }
        // Deliver groups in global-injection order of their first event —
        // the closest grouped equivalent of the old strict ticket replay
        // (cross-instance order only affects diagnostics; instances are
        // independent).
        std::sort(sh.groups.begin(), sh.groups.end(),
                  [&sh](const std::pair<uint32_t, uint32_t>& a,
                        const std::pair<uint32_t, uint32_t>& b) {
                      return sh.drained[a.first]->ticket < sh.drained[b.first]->ticket;
                  });
        sh.items.clear();
        for (const auto& [begin, end] : sh.groups) {
            sh.items.push_back({sh.drained[begin]->instance, begin, end, 1});
        }
        run_items(sh, sh.items.size());
    }
    lap(1);

    // Phase 2: timers. Candidates come out in (deadline, instance) order,
    // retired members' entries already dropped; stale ones (engine
    // re-armed or disarmed since indexing) reduce to a no-op sync plus a
    // re-index. Shard-owned: heap pops are not worth a claim protocol, and
    // the heap itself is owner-only state.
    sh.due.clear();
    sh.timers.collect_due(now_, sh.due);
    for (const FleetTimers::Due& d : sh.due) {
        Slot& sl = slot(d.instance);
        --sl.timer_entries;
        if (sl.indexed_deadline == d.deadline) sl.indexed_deadline = -1;
        if (!sl.booted) continue;
        try {
            sync_clock(sl);
            sh.local_ops.clear();
            after_reaction(d.instance, sl, sh.local_ops);
            apply_ops(sh, d.instance, sh.local_ops);
        } catch (const std::exception& ex) {
            if (sl.error.empty()) sl.error = ex.what();
        }
    }
    lap(2);

    // Phase 3: asyncs. Every async-live member gets a bounded slice
    // allowance; the per-instance allowance is fixed per round, so an
    // instance's async progress is a function of rounds elapsed — not of
    // which shard, worker, or thief it landed on. One stealable item per
    // member, in the listing order; retired members' listings drop here.
    sh.async_scratch.clear();
    sh.async_scratch.swap(sh.async_live);
    if (!sh.async_scratch.empty()) {
        sh.items.clear();
        for (InstanceId id : sh.async_scratch) {
            if (current(id)) sh.items.push_back({id, 0, 0, 3});
        }
        run_items(sh, sh.items.size());
    }
    lap(3);

    sh.work_left = !sh.async_live.empty() || shard_has_due_restart(sh) ||
                   (sh.timers.next_deadline() >= 0 && sh.timers.next_deadline() <= now_);
}

// -- worker pool --------------------------------------------------------------

void Reactor::dispatch_round() {
    if (threads_.empty()) {
        for (Shard& sh : shards_) run_shard_round(sh);
        return;
    }
    {
        std::lock_guard<std::mutex> lk(pool_mu_);
        done_count_ = 0;
        round_fini_.store(0, std::memory_order_relaxed);
        ++generation_;
    }
    pool_cv_.notify_all();
    std::unique_lock<std::mutex> lk(pool_mu_);
    done_cv_.wait(lk, [this] { return done_count_ == threads_.size(); });
}

void Reactor::worker_main(size_t shard_idx) {
    if (cfg_.pin_workers) pin_self_to_allowed_cpu(shard_idx);
    uint64_t seen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lk(pool_mu_);
            pool_cv_.wait(lk, [&] { return generation_ != seen; });
            seen = generation_;
            if (exit_) return;
        }
        run_shard_round(shards_[shard_idx]);
        round_fini_.fetch_add(1, std::memory_order_acq_rel);
        steal_loop(shard_idx);  // workers exist only with > 1 shard
        {
            std::lock_guard<std::mutex> lk(pool_mu_);
            if (++done_count_ == threads_.size()) done_cv_.notify_one();
        }
    }
}

// -- introspection ------------------------------------------------------------

host::Instance& Reactor::instance(InstanceId id) {
    return *live_slot(id).inst;
}

const host::Instance& Reactor::instance(InstanceId id) const {
    return *live_slot(id).inst;
}

obs::ProcessStats Reactor::fleet_stats() const {
    obs::ProcessStats total = retired_stats_;
    size_t n = published_.load(std::memory_order_acquire);
    for (size_t i = 0; i < n; ++i) {
        const Slot& sl = slot(i);
        total.sheds += sl.sheds.load(std::memory_order_relaxed);
        if (sl.inst != nullptr) total.merge(member_stats(sl));
    }
    // Scheduler diagnostics are per-shard, not per-instance: stamped once
    // here. clear_measured() drops all of them (they depend on worker
    // count and thread timing).
    for (const Shard& sh : shards_) {
        total.steals += sh.steals.load(std::memory_order_relaxed);
        total.steal_failures += sh.steal_failures.load(std::memory_order_relaxed);
        total.arena_bytes += sh.pool.reserved_bytes();
        for (size_t k = 0; k < sh.phase_ns.size(); ++k) {
            total.phase_ns[k] += sh.phase_ns[k];
        }
    }
    return total;
}

const std::string& Reactor::error(InstanceId id) const {
    return live_slot(id).error;
}

}  // namespace ceu::reactor
