// ceu::reactor::Reactor — a sharded multi-instance scheduler: one process
// runs a fleet of host::Instances (100k is the design point) on a small
// worker pool, deterministically, and keeps the fleet alive: faulted
// members are restarted under per-instance supervision policies instead of
// parking forever.
//
// Sharding. Instances are dealt round-robin to `workers` shards (shard =
// slot % workers). Each shard owns its members exclusively: a per-shard run
// queue (the drained mailbox batch), a per-shard FleetTimers heap indexing
// its members' earliest deadlines, a per-shard async-live list, and a
// per-shard restart agenda. Workers never touch another shard's instances,
// so rounds need no locking beyond the start/finish barrier.
//
// Rounds. All scheduling happens in discrete *rounds* (run_round), each of
// which runs the same four phases on every shard:
//   0. restarts — supervised restarts whose backoff expired by the fleet
//                instant execute, sorted by (due, instance): restore the
//                latest checkpoint or reboot from scratch per the member's
//                SupervisorPolicy;
//   1. events  — drain the shard mailbox (one atomic exchange), sort by
//                global injection ticket, and deliver each envelope after
//                lazily syncing the target's clock to the fleet instant
//                (due timers fire first, as they would have in real time);
//   2. timers  — pop due candidates off the shard's timer heap in
//                (deadline, instance) order; stale candidates (the engine
//                re- or dis-armed since indexing) are dropped by
//                re-checking the engine's actual next deadline;
//   3. asyncs  — give every async-live member a bounded number of slices,
//                in the order the members were listed.
//
// Membership. A member lives in a slot of a pointer-stable table. retire()
// folds the member's counters into fleet_stats(), destroys its Instance
// and frees the slot; the next add_instance() reuses the most recently
// freed slot under a new generation of the id (see InstanceId). Both cost
// O(1) amortized, boot() visits only the members added since the last
// boot, and fleet memory is O(live members), however many have come and
// gone. Queue, timer, async and restart entries that still name a retired
// member are dropped when reached.
//
// Determinism. Per-instance traces are a pure function of that instance's
// input sequence (instances are independent; the engine is sequential).
// The reactor preserves each instance's injection order exactly — tickets
// are a global atomic sequence and every drained batch is replayed in
// ticket order — and delivers timer/async/restart work at fleet instants
// that do not depend on shard layout. Slot reuse is a pure function of the
// add/retire sequence. Supervision decisions (backoff, jitter, quarantine)
// hash (seed, id, fault ordinal), never thread timing. Hence per-instance
// traces and the aggregated fleet stats (ProcessStats::merge is
// commutative) are byte-identical at any worker count; the determinism
// suites assert this at 1/2/8 workers.
//
// Work stealing. With more than one worker, a worker that finishes its own
// round helps by stealing whole-instance work items (an instance's event
// batch, an instance's async slices) from the back of a victim shard's
// order. Execution moves threads; the owner's bookkeeping is still applied
// in the shard's fixed order, so traces and merged stats stay
// byte-identical.
//
// Backpressure. ReactorConfig::inbox_capacity bounds each instance's
// in-flight envelope count. An inject() over the cap is *shed*: the
// envelope is dropped deterministically at the producer (never silently
// queued), the verdict and consumed ticket are returned in InjectResult,
// and the shed is counted in fleet_stats(). 0 = unbounded (historical
// behavior).
//
// Threading contract. inject() is safe from any thread, including
// mid-round and concurrently with add_instance()/retire(): it reads only
// the slot's atomics and its program (which the reactor keeps alive until
// it is destroyed), never the Instance that retire() frees. The table is
// chunked and pointer-stable, and its size is published with
// release/acquire ordering, so a concurrent injector either sees a fully
// constructed slot or an out-of-range id. add_instance/retire themselves,
// and everything else — boot, advance, run_round, drain, instance(),
// set_policy, fleet_stats — must still be called from the one control
// thread, between rounds.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "host/instance.hpp"
#include "reactor/arena.hpp"
#include "reactor/fleet_timers.hpp"
#include "reactor/mailbox.hpp"
#include "reactor/steal.hpp"
#include "reactor/supervise.hpp"
#include "reactor/verdict.hpp"

namespace ceu::reactor {

/// Width of one supervision tick in µs: backoff delays and fault windows
/// (SupervisorPolicy::*_ticks) are measured in it.
constexpr Micros kTimerGranularity = 1024;

struct ReactorConfig {
    /// Worker threads (== shards). 1 runs every round inline on the
    /// control thread — no pool, no synchronization, the baseline the
    /// determinism suite compares against.
    size_t workers = 1;
    /// Seeds the supervision backoff jitter: same seed => same restart
    /// instants, always.
    uint64_t seed = 0;
    /// Forwarded to every instance's host::Config. Fleets default traces
    /// off (100k instances of trace text is not a thing you want).
    bool collect_traces = false;
    /// Arm every instance's stats recorder so fleet_stats() covers the
    /// whole run.
    bool observe_stats = true;
    /// Async slices granted per async-live instance per round.
    uint64_t async_slices_per_round = 32;
    /// Per-instance inbox cap: an inject() that would push the in-flight
    /// envelope count past this is shed (InjectResult::Status::Shed).
    /// 0 = unbounded.
    uint32_t inbox_capacity = 0;
    /// Pin worker i to the i-th CPU the process is allowed on (cpuset-
    /// aware; Linux only, ignored elsewhere and at workers == 1).
    bool pin_workers = false;
    /// Default supervision policy for members added without set_policy().
    /// The default default is Park — identical to the pre-supervision
    /// reactor.
    SupervisorPolicy supervise;
    /// Engine options for every member (add_instance overrides the
    /// member's host::Config::engine with these). trap_faults defaults on:
    /// a fleet must contain a member's dynamic error (the engine parks
    /// Faulted), not unwind a worker thread.
    rt::EngineOptions engine = [] {
        rt::EngineOptions o;
        o.trap_faults = true;
        return o;
    }();
};

// InjectResult (and the Verdict enum it carries) lives in
// reactor/verdict.hpp: the wire protocol's reply codes are the same enum.

class Reactor {
  public:
    explicit Reactor(ReactorConfig cfg = ReactorConfig());
    ~Reactor();
    Reactor(const Reactor&) = delete;
    Reactor& operator=(const Reactor&) = delete;

    // -- fleet construction (control thread; injectors may stay live) --------

    /// Adds one instance of the shared program; returns its fleet id. The
    /// member takes the most recently freed slot, else a new one. The
    /// compiled program is co-owned, never copied: fleet memory scales
    /// with per-instance *state*, not code. Safe while other threads
    /// inject(): a new slot is published to them atomically.
    /// `hcfg` carries what is per member: extra bindings and the AOT
    /// handle. Engine options and trace collection are fleet-wide:
    /// ReactorConfig::engine and collect_traces replace hcfg.engine and
    /// hcfg.collect_trace.
    InstanceId add_instance(std::shared_ptr<const flat::CompiledProgram> cp,
                            host::Config hcfg = {});

    /// Boots the members added since the last boot, on the calling
    /// (control) thread, shard by shard and in add order within a shard.
    /// Costs O(new members), not O(fleet), and no worker wake-up.
    void boot();

    /// Removes `id` from the fleet: its counters fold into fleet_stats(),
    /// its Instance is destroyed and its slot is freed for a later
    /// add_instance(). From then on inject(id) returns Retired, envelopes
    /// already queued for it are dropped at delivery (each still releases
    /// its inbox seat), and instance(id) and the other id-taking accessors
    /// throw as for an unknown id. Retiring a stale id does nothing.
    /// Control thread, between rounds; safe while injector threads run.
    void retire(InstanceId id);
    /// True iff add_instance() returned `id` and it has since been retired
    /// (its slot may already hold a newer member). Throws on an id that
    /// add_instance() never returned.
    [[nodiscard]] bool retired(InstanceId id) const;

    /// Overrides the supervision policy for one member (control thread,
    /// between rounds). Checkpoint cadence changes take effect from the
    /// member's next reaction.
    void set_policy(InstanceId id, const SupervisorPolicy& policy);
    /// Supervision bookkeeping for one member (fault/restart/checkpoint
    /// counters, quarantine flag) — test and dashboard introspection.
    [[nodiscard]] const MemberState& supervision(InstanceId id) const;

    // -- inputs (inject: any thread; advance: control thread) ----------------

    /// Queues one occurrence of input `event` for `id`. Lock-free; safe
    /// from any thread, including mid-round and concurrently with
    /// add_instance/retire. Delivery happens in the next round, in global
    /// injection-ticket order. Backpressure: over-capacity occurrences are
    /// shed here, not queued (see InjectResult). A retired id gets
    /// Retired, even once its slot holds a newer member. Ids outside the
    /// table still throw: that is API misuse, not load.
    InjectResult inject(InstanceId id, EventId event,
                        rt::Value v = rt::Value::integer(0));
    /// Name-resolving variant (resolves against the slot's program — O(1)
    /// interned lookup — so it never touches an Instance that retire() may
    /// be freeing). Returns UnknownEvent if `event` is not an input of the
    /// program.
    InjectResult inject(InstanceId id, const std::string& event,
                        rt::Value v = rt::Value::integer(0));

    /// Advances the fleet clock by `delta` and runs one round (so due
    /// timers fire and due restarts execute fleet-wide).
    void advance(Micros delta);

    /// Runs one scheduling round at the current fleet instant.
    void run_round();

    /// Host-commanded power-cycle of one member at the fleet instant:
    /// advance to now, crash-reset + reboot (the script vocabulary's
    /// `crash` item — the "[crash] engine power-cycled" line is traced),
    /// and re-index the member's timer/async state. Unlike supervised
    /// restarts this is unconditional: it does not require a Faulted
    /// member and does not count toward the supervision counters. Throws
    /// on an unknown or retired id. Control thread only (like
    /// advance()/run_round()).
    void restart(InstanceId id);

    /// Retune the per-round async slice budget at run time (0 parks every
    /// async-live member until the budget is raised again). Hosts use this
    /// to hold background work during latency-sensitive bursts; the
    /// differential harness uses it to grant async progress only at the
    /// script's explicit idle points. Control thread only.
    void set_async_slices_per_round(uint64_t slices) {
        cfg_.async_slices_per_round = slices;
    }

    /// Rounds until quiescent: mailboxes empty, no timer or restart due at
    /// the current instant, no async work. Returns rounds run. Restarts
    /// whose backoff lies in the future do NOT hold drain() open — advance
    /// the clock (see next_restart_due) to reach them. `max_rounds` bounds
    /// runaway async programs.
    size_t drain(size_t max_rounds = 1'000'000);

    /// True while a round at the current instant would do work: queued
    /// envelopes, due timers or restarts, or async-live members. The
    /// serve front door polls this to decide whether to keep ticking or
    /// block on the network. Control thread, between rounds.
    [[nodiscard]] bool work_pending() const;

    /// Called on the control thread at the end of every run_round() (and
    /// thus once per drain() iteration). The serve layer uses it to flush
    /// per-session outbound frames between rounds, so a long drain streams
    /// its output instead of buffering it. May be empty.
    std::function<void()> on_round_end;

    /// One live member's checkpoint, as produced by graceful drain.
    struct DrainedMember {
        InstanceId id = 0;
        std::vector<uint8_t> snapshot;  ///< host::Instance::save() blob
    };

    /// Graceful drain: runs drain(max_rounds), then checkpoints every live
    /// member — booted, status Running or Faulted — in slot order.
    /// Terminated members have nothing to resume and are skipped.
    /// The reactor keeps running afterwards; stopping the process (and
    /// later restoring the blobs via Instance::load / session resume) is
    /// the caller's business. Control thread only.
    std::vector<DrainedMember> drain_and_checkpoint(size_t max_rounds = 1'000'000);

    // -- introspection (control thread) --------------------------------------

    [[nodiscard]] host::Instance& instance(InstanceId id);
    [[nodiscard]] const host::Instance& instance(InstanceId id) const;
    /// Slots in the instance table: the peak live member count, since a
    /// retired member's slot is reused before the table grows. Never-
    /// reused slots' ids are exactly 0..size()-1.
    [[nodiscard]] size_t size() const {
        return published_.load(std::memory_order_acquire);
    }
    [[nodiscard]] size_t workers() const { return shards_.size(); }
    [[nodiscard]] Micros now() const { return now_; }

    /// Earliest pending supervised-restart instant across all shards, or
    /// -1 when none is scheduled. Tests and drivers advance() past it to
    /// let backoffs expire deterministically.
    [[nodiscard]] Micros next_restart_due() const;

    /// Fleet-level counters: every live member's snapshot — stamped with
    /// its supervision counters (checkpoints, restores, supervised
    /// restarts, quarantines) — merged with the totals retire() folded in,
    /// plus every slot's sheds. Deterministic (after
    /// ProcessStats::clear_measured) for a given (seed, fleet, inputs),
    /// independent of worker count.
    [[nodiscard]] obs::ProcessStats fleet_stats() const;

    /// Last escaped error for `id` (empty if none). Only reachable when the
    /// fleet runs with trap_faults off (ReactorConfig::engine) and a
    /// dynamic error unwinds a delivery — the reactor catches it at the
    /// shard boundary (a fleet member's fault must never take down a
    /// worker thread), records it here, and carries on with the rest of
    /// the shard.
    [[nodiscard]] const std::string& error(InstanceId id) const;

  private:
    /// One table entry. The member fields are reset by add_instance();
    /// retire() frees what they hold. The atomics belong to the slot, not
    /// the member: an envelope queued before a retire still releases its
    /// inbox seat afterwards, and a racing stale injector may still shed.
    struct alignas(64) Slot {
        std::unique_ptr<host::Instance> inst;  // null while the slot is free
        Micros indexed_deadline = -1;  // deadline currently in the timer heap
        uint32_t timer_entries = 0;    // heap entries naming the member
        bool async_listed = false;     // member of its shard's async_live
        bool booted = false;
        std::string error;             // first escaped rt::RuntimeError

        // Supervision (owned by the member's shard / control thread).
        SupervisorPolicy policy;
        MemberState sup;

        // Any-thread state: producers race these against the owning shard
        // (and, with stealing, against an executing thief). They get their
        // own cache line — Slots are array elements, and producer traffic
        // on one member's inbox must not invalidate the scheduler-read
        // fields above or the neighboring Slot.
        alignas(64) std::atomic<uint32_t> inbox_depth{0};
        /// The member's id generation; retire() bumps it, so every id
        /// handed out for the slot so far turns stale at once.
        std::atomic<uint32_t> generation{0};
        std::atomic<uint64_t> sheds{0};
        /// The member's program, for inject-by-name (kept alive by
        /// Reactor::programs_).
        std::atomic<const flat::CompiledProgram*> program{nullptr};
    };

    /// Shard-structure mutation deferred out of a work item's execution:
    /// executing a stolen item may run on any worker, but the victim
    /// shard's timers/async-list/agenda are owner-only, so executors record
    /// intents and the owner applies them in the shard's fixed item order.
    /// That order equals the 1-worker order, which is what keeps stealing
    /// inside the determinism contract.
    struct DeferredOp {
        enum class Kind : uint8_t { Timer, AsyncList, Agenda };
        Kind kind;
        Micros at = 0;  // Timer: deadline; Agenda: due instant
    };

    /// One stealable unit of round work: all of one instance's envelopes
    /// for this round (phase 1) or one instance's async slice budget
    /// (phase 3). Instance-exclusive by construction, so whoever claims it
    /// owns the engine for the duration.
    struct RoundItem {
        InstanceId id = 0;
        uint32_t env_begin = 0;  // phase 1: span in Shard::drained
        uint32_t env_end = 0;
        uint8_t phase = 0;       // 1 = events, 3 = asyncs
    };

    struct alignas(64) Shard {
        Mailbox mailbox;
        FleetTimers timers;
        std::vector<InstanceId> fresh;        // added since the last boot
        std::vector<Envelope*> drained;       // round scratch
        std::vector<FleetTimers::Due> due;
        std::vector<InstanceId> async_live;
        std::vector<InstanceId> async_scratch;
        std::vector<RestartDue> agenda;       // pending supervised restarts
        std::vector<RestartDue> due_restarts; // round scratch
        bool work_left = false;               // set by the last round

        // Envelope memory: producers allocate here (inject), executors —
        // owner or thief — free here. Slab-backed, byte-exact accounting.
        ObjectPool<Envelope> pool;

        // Stealable-phase state. items/ops/done are indexed by the deque's
        // published indices; they are (re)sized only while the deque is
        // empty and no executor is in flight, and published to thieves by
        // the deque's release store.
        StealDeque deque;
        std::vector<RoundItem> items;
        std::vector<std::vector<DeferredOp>> ops;
        std::unique_ptr<std::atomic<uint8_t>[]> done;
        size_t done_cap = 0;
        std::vector<DeferredOp> local_ops;    // owner-context scratch
        std::vector<std::pair<uint32_t, uint32_t>> groups;  // phase-1 scratch

        // Scheduler diagnostics (fleet_stats stamps, clear_measured drops).
        std::atomic<uint64_t> steals{0};
        std::atomic<uint64_t> steal_failures{0};
        std::array<uint64_t, 4> phase_ns{};
    };

    // Pointer-stable instance table: a fixed array of lazily allocated
    // chunks. Slots never move (atomics and worker-owned state live in
    // them), and a slot is visible to injector threads only after
    // `published_` covers it (release store after full construction).
    static constexpr size_t kChunkShift = 12;
    static constexpr size_t kChunkSize = size_t{1} << kChunkShift;  // 4096
    static constexpr size_t kChunkMask = kChunkSize - 1;
    static constexpr size_t kMaxChunks = 4096;  // ~16.7M live instances

    [[nodiscard]] Slot& slot(InstanceId id) {
        uint32_t i = instance_slot(id);
        return chunks_[i >> kChunkShift].load(std::memory_order_relaxed)[i & kChunkMask];
    }
    [[nodiscard]] const Slot& slot(InstanceId id) const {
        uint32_t i = instance_slot(id);
        return chunks_[i >> kChunkShift].load(std::memory_order_relaxed)[i & kChunkMask];
    }
    [[nodiscard]] Shard& shard_of(InstanceId id) {
        return shards_[instance_slot(id) % shards_.size()];
    }
    /// The slot of an in-table id; throws std::out_of_range otherwise.
    [[nodiscard]] const Slot& table_slot(InstanceId id) const;
    [[nodiscard]] Slot& table_slot(InstanceId id) {
        return const_cast<Slot&>(std::as_const(*this).table_slot(id));
    }
    /// The slot of a live member; throws std::out_of_range for ids that
    /// are unknown or retired.
    [[nodiscard]] const Slot& live_slot(InstanceId id) const;
    [[nodiscard]] Slot& live_slot(InstanceId id) {
        return const_cast<Slot&>(std::as_const(*this).live_slot(id));
    }
    /// True iff `id` names its slot's current member. Every id the
    /// reactor queued or indexed came from add_instance(), so for those
    /// this is the whole liveness test.
    [[nodiscard]] bool current(InstanceId id) const {
        return slot(id).generation.load(std::memory_order_relaxed) ==
               instance_generation(id);
    }
    /// The member's counters as fleet_stats() merges them: its snapshot
    /// stamped with its supervision counters.
    [[nodiscard]] static obs::ProcessStats member_stats(const Slot& sl);

    /// Runs one round on every shard: inline with one shard, else on the
    /// pool, returning once every worker finished.
    void dispatch_round();
    void worker_main(size_t shard_idx);
    void boot_shard(Shard& sh);
    void run_shard_round(Shard& sh);
    /// Brings `id` to the fleet instant (due timers fire) — the lazy
    /// clock sync in front of every delivery.
    void sync_clock(Slot& sl);
    /// Post-reaction bookkeeping: detect fresh faults (and record their
    /// supervised restart), take due checkpoints, record the engine's next
    /// deadline for timer re-indexing, record async (re-)listing. The
    /// instance-local half runs inline (whoever executes the reaction owns
    /// the slot); the shard-structure half is returned in `ops` for the
    /// owner to apply in item order (apply_ops).
    void after_reaction(InstanceId id, Slot& sl, std::vector<DeferredOp>& ops);
    /// A fresh Faulted transition: quarantine or record a restart per the
    /// member's policy.
    void on_member_fault(InstanceId id, Slot& sl, std::vector<DeferredOp>& ops);
    /// Owner-only: applies a work item's deferred shard mutations.
    void apply_ops(Shard& sh, InstanceId id, const std::vector<DeferredOp>& ops);
    /// Runs sh.items[idx]'s engine work (any worker; instance-exclusive by
    /// deque claim) and publishes its done flag.
    void execute_item(Shard& sh, size_t idx);
    /// Runs the shard's published items: owner take()s from the front
    /// while thieves may steal from the back, then applies every item's
    /// ops in order (waiting on stolen items' done flags).
    void run_items(Shard& sh, size_t n);
    /// Help mode: a worker that finished its own round steals items from
    /// other shards until every shard's round work is done.
    void steal_loop(size_t self);
    /// Executes one due restart (phase 0): restore or reboot.
    void restart_member(InstanceId id, Shard& sh);
    [[nodiscard]] bool shard_has_due_restart(const Shard& sh) const;

    ReactorConfig cfg_;
    std::array<std::atomic<Slot*>, kMaxChunks> chunks_{};
    std::atomic<size_t> published_{0};
    std::vector<uint32_t> free_slots_;  // retired slots, reused last-in first-out
    /// Every program a slot has pointed at: inject-by-name may read a
    /// slot's program while its member is being retired and replaced.
    std::unordered_set<std::shared_ptr<const flat::CompiledProgram>> programs_;
    obs::ProcessStats retired_stats_;   // counters folded in by retire()
    std::vector<Shard> shards_;
    Micros now_ = 0;
    alignas(64) std::atomic<uint64_t> ticket_{0};

    // Workers that finished their own shard's round this generation;
    // thieves keep scanning until it covers every shard. Reset by the
    // control thread under pool_mu_ before each Round generation.
    alignas(64) std::atomic<size_t> round_fini_{0};

    // Worker pool (empty when workers == 1): generation-counter barrier.
    // The barrier state shares its line with nothing hot — ticket_ and
    // round_fini_ above are hammered by producers/workers mid-round.
    std::vector<std::thread> threads_;
    alignas(64) std::mutex pool_mu_;
    std::condition_variable pool_cv_;   // control -> workers: new generation
    std::condition_variable done_cv_;   // workers -> control: all finished
    uint64_t generation_ = 0;
    bool exit_ = false;  // workers return at the next generation
    size_t done_count_ = 0;
};

}  // namespace ceu::reactor
