// Fleet supervision and checkpoint/restore (src/reactor/supervise.*,
// Engine::save/load, host::Instance::save/load/resume): the headline
// contract is that a restored instance is indistinguishable from one that
// never stopped — byte-identical subsequent traces, identical stats — and
// that every supervision decision (backoff, jitter, quarantine) is a pure
// function of (policy, seed, id, fault ordinal, fleet instant), so
// supervised fleets stay deterministic at any worker count.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "aot/aot.hpp"
#include "codegen/flatten.hpp"
#include "host/instance.hpp"
#include "reactor/reactor.hpp"
#include "reactor/supervise.hpp"
#include "runtime/snapshot.hpp"
#include "testgen/generator.hpp"

namespace {

using namespace ceu;

std::shared_ptr<const flat::CompiledProgram> compile_shared(const char* src) {
    return std::make_shared<const flat::CompiledProgram>(flat::compile(src));
}

/// Accumulates injected values; ADD 0 divides by zero (a trapped dynamic
/// error under the fleet's default trap_faults) — the standard crash lever
/// for the supervision tests.
constexpr const char* kFragile = R"(
    input int ADD;
    input void STOP;
    int total = 0;
    int v = 0;
    par do
       loop do
          v = await ADD;
          total = total + 100 / v;
          _printf("total %d\n", total);
       end
    with
       await STOP;
       return total;
    end
)";

/// Timers + async in flight: the states a snapshot must carry.
constexpr const char* kBusy = R"(
    input void STOP;
    int n = 0;
    int r = 0;
    par do
       loop do
          await 10ms;
          n = n + 1;
          _printf("tick %d\n", n);
       end
    with
       r = async do
          int acc = 0;
          int i = 0;
          loop do
             i = i + 1;
             acc = acc + i;
             if i == 50 then break; end
          end
          return acc;
       end;
       _printf("sum %d\n", r);
    with
       await STOP;
       return n;
    end
)";

// -- supervise.hpp unit surface -----------------------------------------------

TEST(Backoff, DoublesPerFaultAndClampsAtMax) {
    reactor::SupervisorPolicy p;
    p.backoff_initial_ticks = 2;
    p.backoff_max_ticks = 16;
    const Micros tick = 1000;
    EXPECT_EQ(reactor::backoff_delay_us(p, 0, 7, 1, tick), 2000);
    EXPECT_EQ(reactor::backoff_delay_us(p, 0, 7, 2, tick), 4000);
    EXPECT_EQ(reactor::backoff_delay_us(p, 0, 7, 3, tick), 8000);
    EXPECT_EQ(reactor::backoff_delay_us(p, 0, 7, 4, tick), 16'000);
    EXPECT_EQ(reactor::backoff_delay_us(p, 0, 7, 5, tick), 16'000);  // clamped
    EXPECT_EQ(reactor::backoff_delay_us(p, 0, 7, 64, tick), 16'000);  // no wrap
}

TEST(Backoff, JitterIsBoundedAndSeedDeterministic) {
    reactor::SupervisorPolicy p;
    p.backoff_initial_ticks = 8;
    p.backoff_max_ticks = 8;
    p.backoff_jitter_permille = 250;
    const Micros base = 8 * 1024;
    for (reactor::InstanceId id = 0; id < 64; ++id) {
        Micros d = reactor::backoff_delay_us(p, 42, id, 1, 1024);
        EXPECT_GE(d, base - base / 4) << "instance " << id;
        EXPECT_LE(d, base + base / 4) << "instance " << id;
        // Pure function of (seed, id, ordinal): replays identically.
        EXPECT_EQ(d, reactor::backoff_delay_us(p, 42, id, 1, 1024));
    }
    // A different seed moves at least one member's delay (not a constant).
    bool moved = false;
    for (reactor::InstanceId id = 0; id < 64 && !moved; ++id) {
        moved = reactor::backoff_delay_us(p, 42, id, 1, 1024) !=
                reactor::backoff_delay_us(p, 43, id, 1, 1024);
    }
    EXPECT_TRUE(moved);
}

TEST(Backoff, NoteFaultTickPrunesTheRollingWindow) {
    reactor::MemberState m;
    reactor::SupervisorPolicy p;
    p.fault_window_ticks = 100;
    EXPECT_EQ(reactor::note_fault_tick(m, p, 10), 1u);
    EXPECT_EQ(reactor::note_fault_tick(m, p, 50), 2u);
    EXPECT_EQ(reactor::note_fault_tick(m, p, 120), 2u);  // 10 aged out, 50 inside
    EXPECT_EQ(reactor::note_fault_tick(m, p, 400), 1u);  // everything aged out
    EXPECT_EQ(m.faults, 4u);  // lifetime counter never prunes
}

// -- instance checkpoint / restore --------------------------------------------

/// Restores `blob` into an instance built from a *fresh compile* of `src`
/// — the fresh-process case: nothing shared with the saving instance but
/// the source text.
struct FreshProcess {
    flat::CompiledProgram cp;
    host::Instance inst;
    explicit FreshProcess(const char* src, host::Config cfg = host::Config())
        : cp(flat::compile(src)), inst(cp, cfg) {}
};

TEST(Checkpoint, RoundTripsIntoAFreshProcessByteIdentically) {
    host::Instance a((std::string(kFragile)));
    a.observe_stats();
    a.boot();
    a.inject("ADD", rt::Value::integer(4));   // total 25
    a.inject("ADD", rt::Value::integer(10));  // total 35
    std::vector<uint8_t> blob = a.save();

    FreshProcess b(kFragile);
    b.inst.observe_stats();
    b.inst.load(blob);

    // Same suffix of inputs -> byte-identical suffix of behavior.
    a.inject("ADD", rt::Value::integer(2));
    b.inst.inject("ADD", rt::Value::integer(2));
    a.inject("STOP");
    b.inst.inject("STOP");
    ASSERT_EQ(a.status(), rt::Engine::Status::Terminated);
    ASSERT_EQ(b.inst.status(), rt::Engine::Status::Terminated);
    EXPECT_EQ(a.result().as_int(), b.inst.result().as_int());
    EXPECT_EQ(a.result().as_int(), 85);

    // The restored trace is exactly the post-checkpoint lines.
    ASSERT_EQ(a.trace().size(), 3u);
    ASSERT_EQ(b.inst.trace().size(), 1u);
    EXPECT_EQ(b.inst.trace()[0], a.trace()[2]);

    // Recorder rollback: the restored run's counters match the
    // uninterrupted run's, as if the process never died.
    obs::ProcessStats sa = a.snapshot();
    obs::ProcessStats sb = b.inst.snapshot();
    sa.clear_measured();
    sb.clear_measured();
    EXPECT_EQ(sa.to_json(), sb.to_json());
}

TEST(Checkpoint, CarriesArmedTimersAndLiveAsyncs) {
    host::Instance a((std::string(kBusy)));
    a.boot();
    a.advance(25 * kMs);  // two ticks in; 5ms residual on the third
    a.step_async();       // async mid-computation
    a.step_async();
    std::vector<uint8_t> blob = a.save();

    FreshProcess b(kBusy);
    b.inst.load(blob);
    EXPECT_EQ(b.inst.clock(), a.clock());
    EXPECT_EQ(b.inst.engine().next_timer_deadline(),
              a.engine().next_timer_deadline());

    a.advance(20 * kMs);  // residual delta must match: ticks at 30,40ms
    b.inst.advance(20 * kMs);
    a.settle();
    b.inst.settle();
    a.inject("STOP");
    b.inst.inject("STOP");
    EXPECT_EQ(a.result().as_int(), b.inst.result().as_int());
    EXPECT_EQ(b.inst.trace(),
              std::vector<std::string>(a.trace().begin() + 2, a.trace().end()));
}

TEST(Checkpoint, RejectsBlobsFromAnotherProgram) {
    host::Instance a((std::string(kFragile)));
    a.boot();
    std::vector<uint8_t> blob = a.save();

    FreshProcess b(kBusy);
    b.inst.boot();
    b.inst.advance(10 * kMs);
    size_t traced = b.inst.trace().size();
    EXPECT_THROW(b.inst.load(blob), rt::snap::SnapshotError);
    // The failed load left the target untouched (parse-then-commit).
    EXPECT_EQ(b.inst.trace().size(), traced);
    EXPECT_EQ(b.inst.status(), rt::Engine::Status::Running);
    b.inst.advance(10 * kMs);
    EXPECT_EQ(b.inst.trace().size(), traced + 1);
}

TEST(Checkpoint, RejectsTruncatedAndCorruptedBlobs) {
    host::Instance a((std::string(kBusy)));
    a.boot();
    a.advance(15 * kMs);
    std::vector<uint8_t> blob = a.save();

    FreshProcess b(kBusy);
    for (size_t cut : {size_t{0}, size_t{4}, blob.size() / 2, blob.size() - 1}) {
        std::vector<uint8_t> trunc(blob.begin(),
                                   blob.begin() + static_cast<std::ptrdiff_t>(cut));
        EXPECT_THROW(b.inst.load(trunc), rt::snap::SnapshotError) << "cut " << cut;
    }
    std::vector<uint8_t> grown = blob;
    grown.push_back(0);  // trailing garbage is corruption, not slack
    EXPECT_THROW(b.inst.load(grown), rt::snap::SnapshotError);

    // A still-valid prefix with a flipped magic is rejected up front.
    std::vector<uint8_t> bad = blob;
    bad[0] ^= 0xff;
    EXPECT_THROW(b.inst.load(bad), rt::snap::SnapshotError);
}

/// Two async blocks whose round-robin interleaving shows in the trace, run
/// again on every GO.
constexpr const char* kTwoAsyncs = R"(
    input void GO, STOP;
    int rounds = 0;
    par do
       loop do
          await GO;
          par/and do
             async do
                int i = 0;
                loop do
                   i = i + 1;
                   _printf("a %d\n", i);
                   if i == 3 then break; end
                end
             end;
          with
             async do
                int j = 0;
                loop do
                   j = j + 1;
                   _printf("b %d\n", j);
                   if j == 3 then break; end
                end
             end;
          end
          rounds = rounds + 1;
          _printf("round %d\n", rounds);
       end
    with
       await STOP;
       return rounds;
    end
)";

/// Hand-edits the async section of an rt::Engine::save() blob. That section
/// is the blob's tail: a u32 count, then 17-byte contexts (i64 index, i64
/// pc, u8 alive). The round-robin cursor is a u64 at byte 101 while the
/// engine has no fault and an integer result (magic, fingerprint, two
/// option bytes, status, fault flag, tagged result, nine 8-byte clocks and
/// counters before it).
struct EngineBlob {
    static constexpr size_t kCtx = 17;
    static constexpr size_t kCursorAt = 101;
    std::vector<uint8_t> head;               // everything before the count
    std::vector<std::vector<uint8_t>> ctxs;  // the contexts, in table order

    EngineBlob(const std::vector<uint8_t>& blob, size_t n_ctxs) {
        size_t at = blob.size() - 4 - n_ctxs * kCtx;
        head.assign(blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(at));
        EXPECT_EQ(blob[at], n_ctxs);
        for (size_t i = 0; i < n_ctxs; ++i) {
            auto b = blob.begin() + static_cast<std::ptrdiff_t>(at + 4 + i * kCtx);
            ctxs.emplace_back(b, b + kCtx);
        }
    }
    [[nodiscard]] uint64_t cursor() const {
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(head[kCursorAt + i]) << (8 * i);
        return v;
    }
    [[nodiscard]] std::vector<uint8_t> with(uint64_t rr,
                                            const std::vector<std::vector<uint8_t>>& table) const {
        std::vector<uint8_t> out = head;
        for (int i = 0; i < 8; ++i) out[kCursorAt + i] = static_cast<uint8_t>(rr >> (8 * i));
        rt::snap::ByteWriter w(out);
        w.u32(static_cast<uint32_t>(table.size()));
        for (const auto& c : table) w.bytes(c.data(), c.size());
        return out;
    }
    static std::vector<uint8_t> dead(std::vector<uint8_t> ctx) {
        ctx.back() = 0;
        return ctx;
    }
};

TEST(Checkpoint, LoadDropsDeadAsyncContextsAndRefusesExtraLiveOnes) {
    // The uninterrupted run: one slice of `a`, then the cursor points at `b`.
    host::Instance ref((std::string(kTwoAsyncs)));
    ref.boot();
    ref.inject("GO");
    ref.step_async();
    std::vector<uint8_t> blob;
    ref.engine().save(blob);
    const size_t mark = ref.trace().size();
    ref.settle();
    for (int i = 0; i < 3; ++i) {
        ref.inject("GO");
        ref.settle();
    }
    ref.inject("STOP");
    const std::vector<std::string> suffix(
        ref.trace().begin() + static_cast<std::ptrdiff_t>(mark), ref.trace().end());
    ASSERT_EQ(ref.result().as_int(), 4);

    EngineBlob eb(blob, 2);
    ASSERT_EQ(eb.cursor(), 1u);
    const std::vector<uint8_t>& a = eb.ctxs[0];
    const std::vector<uint8_t>& b = eb.ctxs[1];
    const std::vector<uint8_t> dead = EngineBlob::dead(a);

    // Padded the way an engine that never compacted saved its table: dead
    // contexts before, between and after the live ones (a thousand at the
    // tail), the cursor still just past `a`. Load keeps only `a` and `b`,
    // remaps the cursor onto them, and the engine replays the same suffix.
    std::vector<std::vector<uint8_t>> padded = {dead, a, dead, dead, b};
    padded.insert(padded.end(), 1000, dead);
    FreshProcess p(kTwoAsyncs);
    p.inst.engine().load(eb.with(2, padded));
    std::vector<uint8_t> resaved;
    p.inst.engine().save(resaved);
    EXPECT_EQ(resaved, blob);  // the table is back to its two live contexts
    p.inst.settle();
    for (int i = 0; i < 3; ++i) {
        p.inst.inject("GO");
        p.inst.settle();
    }
    p.inst.inject("STOP");
    EXPECT_EQ(p.inst.trace(), suffix);
    EXPECT_EQ(p.inst.result().as_int(), 4);

    // More live contexts than the program has async blocks, two live ones
    // of one block, or a cursor past the table: refused, target untouched.
    FreshProcess q(kTwoAsyncs);
    q.inst.boot();
    q.inst.inject("GO");
    std::vector<uint8_t> before;
    q.inst.engine().save(before);
    for (const std::vector<uint8_t>& bad :
         {eb.with(1, {a, b, a}), eb.with(1, {a, dead, a}), eb.with(3, {a, b})}) {
        EXPECT_THROW(q.inst.engine().load(bad), rt::snap::SnapshotError);
        std::vector<uint8_t> after;
        q.inst.engine().save(after);
        EXPECT_EQ(after, before);
    }
    q.inst.settle();
    q.inst.inject("STOP");
    EXPECT_EQ(q.inst.result().as_int(), 1);
}

// Conformance-harness round trips: for seeded generated programs, snapshot
// at every k-th script item, restore into a fresh process, replay the
// remaining suffix, and require the remaining trace byte-identical to the
// uninterrupted run's.
TEST(Checkpoint, SeededProgramsRestoreAtEveryBoundary) {
    constexpr uint64_t kSeeds[] = {1, 2, 3, 5, 8, 13};
    constexpr size_t kEvery = 3;
    size_t boundaries = 0;
    for (uint64_t seed : kSeeds) {
        testgen::GenCase gc = testgen::generate(seed);
        const auto& items = gc.script.items();

        flat::CompiledProgram ref_cp = flat::compile(gc.source);
        host::Instance ref(ref_cp);
        ref.boot();
        for (const auto& it : items) ref.feed(it);
        ref.settle();

        for (size_t k = kEvery; k < items.size(); k += kEvery) {
            flat::CompiledProgram drv_cp = flat::compile(gc.source);
            host::Instance drv(drv_cp);
            drv.boot();
            for (size_t i = 0; i < k; ++i) drv.feed(items[i]);
            std::vector<uint8_t> blob = drv.save();

            FreshProcess rst(gc.source.c_str());
            rst.inst.load(blob);
            for (size_t i = k; i < items.size(); ++i) rst.inst.feed(items[i]);
            rst.inst.settle();

            ASSERT_LE(drv.trace().size(), ref.trace().size())
                << "seed " << seed << " k " << k;
            EXPECT_EQ(rst.inst.trace(),
                      std::vector<std::string>(
                          ref.trace().begin() +
                              static_cast<std::ptrdiff_t>(drv.trace().size()),
                          ref.trace().end()))
                << "seed " << seed << " k " << k;
            EXPECT_EQ(rst.inst.status(), ref.status()) << "seed " << seed;
            ++boundaries;
        }
    }
    EXPECT_GE(boundaries, 20u);  // the loop really exercised the matrix
}

// -- backpressure and retirement ----------------------------------------------

TEST(Backpressure, OverCapacityInjectsAreShedWithTickets) {
    reactor::ReactorConfig rc;
    rc.inbox_capacity = 2;
    reactor::Reactor r(rc);
    auto cp = compile_shared(kFragile);
    reactor::InstanceId id = r.add_instance(cp);
    r.boot();

    auto a1 = r.inject(id, "ADD", rt::Value::integer(1));
    auto a2 = r.inject(id, "ADD", rt::Value::integer(1));
    auto s1 = r.inject(id, "ADD", rt::Value::integer(1));
    auto s2 = r.inject(id, "ADD", rt::Value::integer(1));
    EXPECT_TRUE(a1.accepted());
    EXPECT_TRUE(a2.accepted());
    EXPECT_EQ(s1.status, reactor::InjectResult::Status::Shed);
    EXPECT_EQ(s2.status, reactor::InjectResult::Status::Shed);
    // Shed occurrences still consumed their ticket: the accepted sequence
    // stays totally ordered with no reuse.
    EXPECT_LT(a1.ticket, a2.ticket);
    EXPECT_LT(a2.ticket, s1.ticket);
    EXPECT_LT(s1.ticket, s2.ticket);

    r.run_round();  // delivers the two accepted envelopes, freeing the inbox
    EXPECT_TRUE(r.inject(id, "ADD", rt::Value::integer(1)).accepted());
    r.inject(id, "STOP");
    r.drain();
    EXPECT_EQ(r.instance(id).result().as_int(), 300);  // exactly 3 ADDs landed

    obs::ProcessStats st = r.fleet_stats();
    EXPECT_EQ(st.sheds, 2u);
    EXPECT_EQ(st.faults, 0u);
}

TEST(Backpressure, RetiredMembersRejectAndDropQueuedInput) {
    reactor::ReactorConfig rc;
    rc.collect_traces = true;
    reactor::Reactor r(rc);
    auto cp = compile_shared(kFragile);
    reactor::InstanceId a = r.add_instance(cp);
    reactor::InstanceId b = r.add_instance(cp);
    r.boot();

    EXPECT_TRUE(r.inject(a, "ADD", rt::Value::integer(1)).accepted());
    r.retire(a);  // the queued envelope is dropped at delivery time
    EXPECT_EQ(r.inject(a, "ADD", rt::Value::integer(1)).status,
              reactor::InjectResult::Status::Retired);
    EXPECT_TRUE(r.retired(a));
    EXPECT_THROW((void)r.instance(a), std::out_of_range);  // destroyed
    // a's counters stay in the fleet totals; from here only b reacts.
    uint64_t reactions = r.fleet_stats().reactions;
    EXPECT_TRUE(r.inject(b, "ADD", rt::Value::integer(2)).accepted());
    r.drain();

    EXPECT_EQ(r.fleet_stats().reactions, reactions + 1);  // a never saw its ADD
    r.inject(b, "STOP");
    r.drain();
    EXPECT_EQ(r.instance(b).result().as_int(), 50);
}

TEST(Backpressure, InjectRacesAddInstanceAndRetireSafely) {
    reactor::ReactorConfig rc;
    rc.workers = 2;
    rc.inbox_capacity = 64;
    rc.collect_traces = true;
    reactor::Reactor r(rc);
    auto cp = compile_shared(kFragile);
    constexpr size_t kInitial = 8;
    for (size_t i = 0; i < kInitial; ++i) r.add_instance(cp);
    r.boot();

    // Producers hammer the initial members while the control thread grows
    // the table past several chunk-internal publications, retires some
    // members and reuses their slots. Producers also inject through the
    // latest added id, by event id and by name, so some of their injects
    // race the retire that frees the member and the add that reuses its
    // slot: the pointer-stable table and the generation in the id make
    // this race well-defined.
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> accepted{0};
    std::atomic<reactor::InstanceId> latest{r.add_instance(cp)};
    std::vector<std::thread> producers;
    for (int t = 0; t < 4; ++t) {
        producers.emplace_back([&, t] {
            uint64_t n = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                auto res = r.inject(
                    static_cast<reactor::InstanceId>((t + n) % kInitial),
                    EventId{0}, rt::Value::integer(1));
                if (res.accepted()) ++n;
                reactor::InstanceId churn = latest.load(std::memory_order_relaxed);
                auto c = t % 2 == 0 ? r.inject(churn, EventId{0}, rt::Value::integer(1))
                                    : r.inject(churn, "ADD", rt::Value::integer(1));
                EXPECT_NE(c.status, reactor::InjectResult::Status::UnknownEvent);
            }
            accepted.fetch_add(n, std::memory_order_relaxed);
        });
    }
    for (int growth = 0; growth < 256; ++growth) {
        reactor::InstanceId id = r.add_instance(cp);
        latest.store(id, std::memory_order_relaxed);
        if (growth % 16 == 0) r.retire(id);  // the next add reuses its slot
    }
    stop.store(true, std::memory_order_relaxed);
    for (auto& p : producers) p.join();

    r.boot();
    r.drain();
    // Each of the 16 retired slots was reused by the next add: the table
    // holds the peak live count, kInitial + 1 + 256 - 16.
    EXPECT_EQ(r.size(), kInitial + 241);
    uint64_t landed = 0;
    for (size_t i = 0; i < kInitial; ++i) {
        landed += static_cast<uint64_t>(
            r.instance(static_cast<reactor::InstanceId>(i)).trace().size());
    }
    EXPECT_EQ(landed, accepted.load());
}

// -- supervision policies -----------------------------------------------------

TEST(Supervision, ParkedMembersStayDownLikeBefore) {
    reactor::Reactor r;  // default policy: Park
    auto cp = compile_shared(kFragile);
    reactor::InstanceId id = r.add_instance(cp);
    r.boot();
    r.inject(id, "ADD", rt::Value::integer(0));
    r.drain();
    EXPECT_EQ(r.instance(id).status(), rt::Engine::Status::Faulted);
    EXPECT_EQ(r.next_restart_due(), -1);
    r.advance(10 * kSec);
    r.drain();
    EXPECT_EQ(r.instance(id).status(), rt::Engine::Status::Faulted);
    obs::ProcessStats st = r.fleet_stats();
    EXPECT_EQ(st.faults, 1u);
    EXPECT_EQ(st.supervised_restarts, 0u);
}

TEST(Supervision, RebootRestartsAfterTheBackoffFromScratch) {
    reactor::ReactorConfig rc;
    rc.supervise.restart = reactor::SupervisorPolicy::Restart::Reboot;
    rc.supervise.backoff_initial_ticks = 4;
    reactor::Reactor r(rc);
    auto cp = compile_shared(kFragile);
    reactor::InstanceId id = r.add_instance(cp);
    r.boot();
    r.inject(id, "ADD", rt::Value::integer(5));  // total 20 (lost on reboot)
    r.inject(id, "ADD", rt::Value::integer(0));  // fault
    r.drain();
    EXPECT_EQ(r.instance(id).status(), rt::Engine::Status::Faulted);

    Micros due = r.next_restart_due();
    ASSERT_GE(due, 0);
    EXPECT_EQ(due, r.now() + 4 * reactor::kTimerGranularity);

    // The backoff has not expired: rounds at the current instant leave the
    // member down. drain() must not spin on the future restart.
    r.run_round();
    EXPECT_EQ(r.instance(id).status(), rt::Engine::Status::Faulted);

    r.advance(due - r.now());
    EXPECT_EQ(r.instance(id).status(), rt::Engine::Status::Running);
    EXPECT_EQ(r.next_restart_due(), -1);

    r.inject(id, "ADD", rt::Value::integer(4));
    r.inject(id, "STOP");
    r.drain();
    EXPECT_EQ(r.instance(id).result().as_int(), 25);  // rebooted: total reset

    const reactor::MemberState& m = r.supervision(id);
    EXPECT_EQ(m.faults, 1u);
    EXPECT_EQ(m.supervised_restarts, 1u);
    EXPECT_EQ(m.restores, 0u);
    obs::ProcessStats st = r.fleet_stats();
    EXPECT_EQ(st.faults, 1u);
    EXPECT_EQ(st.supervised_restarts, 1u);
    EXPECT_EQ(st.restores, 0u);
}

TEST(Supervision, RestoreResumesFromTheLatestCheckpoint) {
    reactor::ReactorConfig rc;
    rc.supervise.restart = reactor::SupervisorPolicy::Restart::Restore;
    rc.supervise.backoff_initial_ticks = 1;
    rc.supervise.checkpoint_every = 1;  // snapshot at every reaction boundary
    reactor::Reactor r(rc);
    auto cp = compile_shared(kFragile);
    reactor::InstanceId id = r.add_instance(cp);
    r.boot();
    r.inject(id, "ADD", rt::Value::integer(5));  // total 20, checkpointed
    r.drain();
    r.inject(id, "ADD", rt::Value::integer(0));  // fault
    r.drain();
    EXPECT_EQ(r.instance(id).status(), rt::Engine::Status::Faulted);

    r.advance(r.next_restart_due() - r.now());
    EXPECT_EQ(r.instance(id).status(), rt::Engine::Status::Running);

    r.inject(id, "ADD", rt::Value::integer(4));  // 20 survived: 20+25
    r.inject(id, "STOP");
    r.drain();
    EXPECT_EQ(r.instance(id).result().as_int(), 45);

    const reactor::MemberState& m = r.supervision(id);
    EXPECT_EQ(m.restores, 1u);
    EXPECT_EQ(m.supervised_restarts, 1u);
    EXPECT_GE(m.checkpoints, 1u);
    obs::ProcessStats st = r.fleet_stats();
    EXPECT_EQ(st.restores, 1u);
    EXPECT_GE(st.checkpoints, 1u);
}

TEST(Supervision, RestoreFallsBackToRebootBeforeAnyCheckpoint) {
    reactor::ReactorConfig rc;
    rc.supervise.restart = reactor::SupervisorPolicy::Restart::Restore;
    rc.supervise.backoff_initial_ticks = 1;
    rc.supervise.checkpoint_every = 0;  // never snapshots: nothing to restore
    reactor::Reactor r(rc);
    auto cp = compile_shared(kFragile);
    reactor::InstanceId id = r.add_instance(cp);
    r.boot();
    r.inject(id, "ADD", rt::Value::integer(5));
    r.inject(id, "ADD", rt::Value::integer(0));
    r.drain();
    r.advance(r.next_restart_due() - r.now());
    r.inject(id, "ADD", rt::Value::integer(4));
    r.inject(id, "STOP");
    r.drain();
    EXPECT_EQ(r.instance(id).result().as_int(), 25);  // fresh boot, state lost
    EXPECT_EQ(r.supervision(id).restores, 0u);
    EXPECT_EQ(r.supervision(id).supervised_restarts, 1u);
}

/// Faults deterministically on ADD 0: kFragile's division by zero is a
/// trapped interpreter error but UB in compiled C, so the compiled-member
/// supervision matrix trips the dedicated fault lever instead.
constexpr const char* kTripping = R"(
    input int ADD;
    input void STOP;
    int total = 0;
    int v = 0;
    par do
       loop do
          v = await ADD;
          if v == 0 then
             _ceu_trip();
          end;
          total = total + v;
          _printf("total %d\n", total);
       end
    with
       await STOP;
       return total;
    end
)";

aot::ProgramHandle build_aot(const std::shared_ptr<const flat::CompiledProgram>& cp) {
    std::string err;
    aot::ProgramHandle h = aot::FleetImage::build_one(cp, {}, &err);
    EXPECT_TRUE(h) << err;
    return h;
}

TEST(Supervision, RebootRestartsACompiledMemberFromScratch) {
    if (!aot::toolchain_available()) GTEST_SKIP() << "no host C compiler";
    reactor::ReactorConfig rc;
    rc.supervise.restart = reactor::SupervisorPolicy::Restart::Reboot;
    rc.supervise.backoff_initial_ticks = 4;
    reactor::Reactor r(rc);
    auto cp = compile_shared(kTripping);
    host::Config hc;
    hc.aot = build_aot(cp);
    reactor::InstanceId id = r.add_instance(cp, hc);
    r.boot();
    r.inject(id, "ADD", rt::Value::integer(5));  // total 5 (lost on reboot)
    r.inject(id, "ADD", rt::Value::integer(0));  // trip -> Faulted
    r.drain();
    EXPECT_EQ(r.instance(id).status(), rt::Engine::Status::Faulted);

    Micros due = r.next_restart_due();
    ASSERT_GE(due, 0);
    // The backoff has not expired: the compiled member stays down, exactly
    // like an interpreted one.
    r.run_round();
    EXPECT_EQ(r.instance(id).status(), rt::Engine::Status::Faulted);

    r.advance(due - r.now());
    EXPECT_EQ(r.instance(id).status(), rt::Engine::Status::Running);

    r.inject(id, "ADD", rt::Value::integer(4));
    r.inject(id, "STOP");
    r.drain();
    EXPECT_EQ(r.instance(id).result().as_int(), 4);  // fresh boot: total reset

    const reactor::MemberState& m = r.supervision(id);
    EXPECT_EQ(m.faults, 1u);
    EXPECT_EQ(m.supervised_restarts, 1u);
    EXPECT_EQ(m.restores, 0u);
}

TEST(Supervision, RestoreResumesACompiledMemberFromItsCheckpoint) {
    if (!aot::toolchain_available()) GTEST_SKIP() << "no host C compiler";
    // Compiled contexts snapshot as CEUHST01 blobs around a CEUAOT01
    // payload (a same-process context image):
    // the Restore policy round-trips them just like interpreter snapshots,
    // so the member resumes with its accumulated state.
    reactor::ReactorConfig rc;
    rc.supervise.restart = reactor::SupervisorPolicy::Restart::Restore;
    rc.supervise.backoff_initial_ticks = 1;
    rc.supervise.checkpoint_every = 1;
    reactor::Reactor r(rc);
    auto cp = compile_shared(kTripping);
    host::Config hc;
    hc.aot = build_aot(cp);
    reactor::InstanceId id = r.add_instance(cp, hc);
    r.boot();
    r.inject(id, "ADD", rt::Value::integer(5));  // total 5, checkpointed
    r.drain();
    r.inject(id, "ADD", rt::Value::integer(0));  // trip -> Faulted
    r.drain();
    EXPECT_EQ(r.instance(id).status(), rt::Engine::Status::Faulted);

    r.advance(r.next_restart_due() - r.now());
    EXPECT_EQ(r.instance(id).status(), rt::Engine::Status::Running);

    r.inject(id, "ADD", rt::Value::integer(4));  // 5 survived: 5+4
    r.inject(id, "STOP");
    r.drain();
    EXPECT_EQ(r.instance(id).result().as_int(), 9);

    const reactor::MemberState& m = r.supervision(id);
    EXPECT_EQ(m.restores, 1u);
    EXPECT_EQ(m.supervised_restarts, 1u);
    EXPECT_GE(m.checkpoints, 1u);
}

TEST(Supervision, QuarantinesAfterRepeatedFaultsInTheWindow) {
    reactor::ReactorConfig rc;
    rc.supervise.restart = reactor::SupervisorPolicy::Restart::Reboot;
    rc.supervise.backoff_initial_ticks = 1;
    rc.supervise.quarantine_after = 2;
    rc.supervise.fault_window_ticks = 1'000'000;
    reactor::Reactor r(rc);
    auto cp = compile_shared(kFragile);
    reactor::InstanceId id = r.add_instance(cp);
    r.boot();

    r.inject(id, "ADD", rt::Value::integer(0));  // fault 1: restarts
    r.drain();
    r.advance(r.next_restart_due() - r.now());
    ASSERT_EQ(r.instance(id).status(), rt::Engine::Status::Running);

    r.inject(id, "ADD", rt::Value::integer(0));  // fault 2: quarantined
    r.drain();
    EXPECT_EQ(r.instance(id).status(), rt::Engine::Status::Faulted);
    EXPECT_EQ(r.next_restart_due(), -1);  // no further restart scheduled
    r.advance(10 * kSec);
    r.drain();
    EXPECT_EQ(r.instance(id).status(), rt::Engine::Status::Faulted);

    const reactor::MemberState& m = r.supervision(id);
    EXPECT_TRUE(m.quarantined);
    EXPECT_EQ(m.faults, 2u);
    EXPECT_EQ(m.supervised_restarts, 1u);
    obs::ProcessStats st = r.fleet_stats();
    EXPECT_EQ(st.quarantines, 1u);
    EXPECT_EQ(st.faults, 2u);
    EXPECT_EQ(st.supervised_restarts, 1u);
}

// -- supervised-fleet determinism across worker counts ------------------------

struct SupervisedRun {
    std::vector<std::string> traces;
    std::string stats_json;
};

SupervisedRun run_supervised_fleet(size_t workers) {
    reactor::ReactorConfig rc;
    rc.workers = workers;
    rc.seed = 99;
    rc.collect_traces = true;
    rc.inbox_capacity = 8;
    rc.supervise.restart = reactor::SupervisorPolicy::Restart::Restore;
    rc.supervise.backoff_initial_ticks = 2;
    rc.supervise.backoff_jitter_permille = 250;
    rc.supervise.checkpoint_every = 2;
    rc.supervise.quarantine_after = 3;
    rc.supervise.fault_window_ticks = 64;
    reactor::Reactor r(rc);

    auto cp = compile_shared(kFragile);
    constexpr size_t kFleet = 24;
    for (size_t i = 0; i < kFleet; ++i) r.add_instance(cp);
    r.boot();

    for (int wave = 0; wave < 4; ++wave) {
        for (size_t i = 0; i < kFleet; ++i) {
            // Every third member faults on waves 1 and 3; member 0 faults
            // every wave and ends up quarantined.
            int64_t v = (i % 3 == 0 && wave % 2 == 1) || i == 0
                            ? 0
                            : static_cast<int64_t>(i + wave + 1);
            r.inject(static_cast<reactor::InstanceId>(i), "ADD",
                     rt::Value::integer(v));
        }
        r.drain();
        // Let every pending backoff expire — the restart instants are a
        // pure function of (seed, id, ordinal), so this advance sequence
        // is identical for every worker count.
        for (Micros due = r.next_restart_due(); due >= 0;
             due = r.next_restart_due()) {
            r.advance(due - r.now());
            r.drain();
        }
    }
    for (size_t i = 0; i < kFleet; ++i) {
        r.inject(static_cast<reactor::InstanceId>(i), "STOP");
    }
    r.drain();

    SupervisedRun out;
    out.traces.reserve(kFleet);
    for (size_t i = 0; i < kFleet; ++i) {
        out.traces.push_back(
            r.instance(static_cast<reactor::InstanceId>(i)).trace_text());
    }
    obs::ProcessStats st = r.fleet_stats();
    st.clear_measured();
    out.stats_json = st.to_json();
    return out;
}

TEST(Supervision, SupervisedFleetIsIdenticalAt1_2_8Workers) {
    SupervisedRun w1 = run_supervised_fleet(1);
    SupervisedRun w2 = run_supervised_fleet(2);
    SupervisedRun w8 = run_supervised_fleet(8);
    ASSERT_EQ(w1.traces.size(), w2.traces.size());
    ASSERT_EQ(w1.traces.size(), w8.traces.size());
    for (size_t i = 0; i < w1.traces.size(); ++i) {
        EXPECT_EQ(w1.traces[i], w2.traces[i]) << "instance " << i << " (2 workers)";
        EXPECT_EQ(w1.traces[i], w8.traces[i]) << "instance " << i << " (8 workers)";
    }
    EXPECT_EQ(w1.stats_json, w2.stats_json);
    EXPECT_EQ(w1.stats_json, w8.stats_json);
    // The run really exercised supervision: restarts and a quarantine are
    // visible in the merged stats (stable sorted JSON keys).
    EXPECT_NE(w1.stats_json.find("\"supervised_restarts\""), std::string::npos);
    EXPECT_NE(w1.stats_json.find("\"quarantines\":1"), std::string::npos);
    EXPECT_NE(w1.traces[0].find("[supervisor]"), std::string::npos);
}

}  // namespace
