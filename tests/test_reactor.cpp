// The sharded multi-instance reactor (src/reactor/): determinism across
// worker counts is the headline contract — per-instance traces must be
// byte-identical and the aggregated fleet stats identical whether the
// fleet runs inline (1 worker) or sharded over a pool (2, 8 workers).
// Also covers the fleet timer index, the lock-free mailbox under
// concurrent producers, fault containment, and the shared-program paths
// (host::Instance fleet ctor, CeuMoteConfig::program).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "aot/aot.hpp"
#include "codegen/flatten.hpp"
#include "reactor/fleet_timers.hpp"
#include "reactor/mailbox.hpp"
#include "reactor/reactor.hpp"
#include "reactor/steal.hpp"
#include "wsn/network.hpp"
#include "wsn/tinyos_binding.hpp"

// -- global-allocator meter ---------------------------------------------------
// Every form of ::operator new/delete is replaced, so a test can count the
// bytes any thread takes from the global allocator while g_alloc_armed is
// set. Replacing all of them (not just the plain pair) keeps sanitizer
// runtimes from freeing memory this meter handed out, or the reverse.
namespace {
std::atomic<bool> g_alloc_armed{false};
std::atomic<uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t n, std::size_t align) noexcept {
    if (g_alloc_armed.load(std::memory_order_relaxed)) {
        g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
    }
    if (n == 0) n = 1;
    if (align <= alignof(std::max_align_t)) return std::malloc(n);
    void* p = nullptr;
    return posix_memalign(&p, align, n) == 0 ? p : nullptr;
}

void* counted_new(std::size_t n, std::size_t align = 0) {
    void* p = counted_alloc(n, align);
    if (p == nullptr) throw std::bad_alloc();
    return p;
}

std::size_t al(std::align_val_t a) { return static_cast<std::size_t>(a); }
}  // namespace

void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void* operator new(std::size_t n, std::align_val_t a) { return counted_new(n, al(a)); }
void* operator new[](std::size_t n, std::align_val_t a) { return counted_new(n, al(a)); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n, 0); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
    return counted_alloc(n, al(a));
}
void* operator new[](std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
    return counted_alloc(n, al(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
    std::free(p);
}

namespace {

using namespace ceu;

std::shared_ptr<const flat::CompiledProgram> compile_shared(const char* src) {
    return std::make_shared<const flat::CompiledProgram>(flat::compile(src));
}

/// Accumulates injected values, tracing each delivery.
constexpr const char* kCounter = R"(
    input int ADD;
    input void STOP;
    int total = 0;
    int v = 0;
    par do
       loop do
          v = await ADD;
          total = total + v;
          _printf("add %d total %d\n", v, total);
       end
    with
       await STOP;
       return total;
    end
)";

/// Ticks every 10ms, tracing the count.
constexpr const char* kTicker = R"(
    input void STOP;
    int n = 0;
    par do
       loop do
          await 10ms;
          n = n + 1;
          _printf("tick %d\n", n);
       end
    with
       await STOP;
       return n;
    end
)";

/// Pure async computation: sums 1..100 in the background.
constexpr const char* kAsyncSum = R"(
    int r = 0;
    r = async do
       int acc = 0;
       int i = 0;
       loop do
          i = i + 1;
          acc = acc + i;
          if i == 100 then break; end
       end
       return acc;
    end;
    _printf("sum %d\n", r);
    return r;
)";

// -- FleetTimers --------------------------------------------------------------

TEST(FleetWheel, CollectsDueSortedByDeadlineThenInstance) {
    reactor::FleetTimers w;
    w.schedule(3, 5000);
    w.schedule(1, 5000);
    w.schedule(2, 200);
    w.schedule(9, 70'000'000);  // lands in a coarser level
    EXPECT_EQ(w.size(), 4u);
    EXPECT_EQ(w.next_deadline(), 200);

    std::vector<reactor::FleetTimers::Due> due;
    EXPECT_EQ(w.collect_due(100, due), 0u);  // before the minimum: O(1) no-op
    EXPECT_EQ(w.collect_due(5000, due), 3u);
    ASSERT_EQ(due.size(), 3u);
    EXPECT_EQ(due[0].instance, 2u);
    EXPECT_EQ(due[1].instance, 1u);  // equal deadlines tie-break by instance
    EXPECT_EQ(due[2].instance, 3u);
    EXPECT_EQ(w.size(), 1u);
    EXPECT_EQ(w.next_deadline(), 70'000'000);

    due.clear();
    EXPECT_EQ(w.collect_due(70'000'000, due), 1u);
    EXPECT_EQ(due[0].instance, 9u);
    EXPECT_TRUE(w.empty());
    EXPECT_EQ(w.next_deadline(), -1);
}

TEST(FleetWheel, SurvivesManyInstancesAndLargeJumps) {
    reactor::FleetTimers w;
    for (uint32_t i = 0; i < 10'000; ++i) {
        w.schedule(i, static_cast<Micros>(1 + (i % 97) * 1000));
    }
    std::vector<reactor::FleetTimers::Due> due;
    w.collect_due(1'000'000'000, due);  // one giant jump collects everything
    EXPECT_EQ(due.size(), 10'000u);
    EXPECT_TRUE(w.empty());
    for (size_t i = 1; i < due.size(); ++i) {
        bool ordered = due[i - 1].deadline < due[i].deadline ||
                       (due[i - 1].deadline == due[i].deadline &&
                        due[i - 1].instance < due[i].instance);
        ASSERT_TRUE(ordered) << "unsorted at " << i;
    }
}

TEST(FleetWheel, RebasesEpochSoLateDeadlinesStaySpread) {
    // A long-running fleet: the clock walks far past the 64^2-tick rebase
    // window many times over, scheduling as it goes. Expiry must stay
    // exact — every deadline collected at its own instant, never early,
    // never lost — across rebases.
    reactor::FleetTimers w;
    constexpr Micros kStep = 10 * kMs;
    Micros now = 0;
    std::vector<reactor::FleetTimers::Due> due;
    for (uint32_t round = 0; round < 2'000; ++round) {
        // Two fresh deadlines per round: one due next step, one far out.
        w.schedule(round, now + kStep);
        w.schedule(100'000 + round, now + 100 * kStep);
        now += kStep;
        due.clear();
        w.collect_due(now, due);
        for (const auto& d : due) ASSERT_LE(d.deadline, now);
        ASSERT_TRUE(w.next_deadline() < 0 || w.next_deadline() > now);
    }
    // Drain the tail: exactly the far-out stragglers remain, none dropped.
    due.clear();
    w.collect_due(now + 200 * kStep, due);
    EXPECT_TRUE(w.empty());
    EXPECT_EQ(due.size(), 99u);  // the last 99 far-out deadlines, still pending
}

TEST(FleetWheel, MatchesASortedVectorModel) {
    // A seeded mix of operations against the plainest correct index: a
    // vector sorted by (deadline, instance) on every collect. Instances
    // come from a small range and pairs are re-scheduled verbatim, so
    // duplicate (deadline, instance) pairs are common; deadlines include
    // negative ones (clamped to 0), already-due ones and far-future ones,
    // and the clock sometimes jumps by years. Instances also retire: the
    // model drops their entries, the heap must never return them, and it
    // may hold at most twice the model's entries.
    using Due = reactor::FleetTimers::Due;
    auto before = [](const Due& a, const Due& b) {
        return a.deadline != b.deadline ? a.deadline < b.deadline : a.instance < b.instance;
    };
    for (uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        std::mt19937_64 rng(seed);
        auto pick = [&rng](uint64_t n) { return static_cast<int64_t>(rng() % n); };
        std::vector<uint32_t> gen(64, 0);  // each slot's current generation
        auto id_of = [&gen](uint32_t slot) { return reactor::make_instance_id(slot, gen[slot]); };
        reactor::FleetTimers w([&gen](reactor::InstanceId id) {
            return reactor::instance_generation(id) != gen[reactor::instance_slot(id)];
        });
        std::vector<Due> model;
        std::vector<Due> scheduled;  // every pair ever scheduled, for repeats
        std::vector<Due> got;
        Micros now = 0;
        for (int op = 0; op < 20'000; ++op) {
            int64_t kind = pick(20);
            if (kind < 13) {
                Due d{0, id_of(static_cast<uint32_t>(pick(64)))};
                switch (pick(6)) {
                    case 0: d.deadline = -1 - pick(1'000'000); break;
                    case 1: d.deadline = now - pick(5 * kMs); break;
                    case 2: d.deadline = now + pick(1'000'000 * kSec); break;
                    case 3:
                        if (!scheduled.empty()) {
                            // A repeat, by the slot's current member.
                            d = scheduled[static_cast<size_t>(pick(scheduled.size()))];
                            d.instance = id_of(reactor::instance_slot(d.instance));
                            break;
                        }
                        [[fallthrough]];
                    default: d.deadline = now + pick(20 * kMs); break;
                }
                w.schedule(d.instance, d.deadline);
                scheduled.push_back(d);
                model.push_back({std::max<Micros>(d.deadline, 0), d.instance});
            } else if (kind < 15) {
                auto slot = static_cast<uint32_t>(pick(64));
                reactor::InstanceId id = id_of(slot);
                auto gone = std::remove_if(model.begin(), model.end(),
                                           [id](const Due& d) { return d.instance == id; });
                size_t n = static_cast<size_t>(model.end() - gone);
                model.erase(gone, model.end());
                ++gen[slot];
                w.forget(n);
            } else {
                switch (pick(8)) {
                    case 0: break;  // collect again at the same instant
                    case 1: now += 3600 * kSec + pick(365LL * 24 * 3600 * kSec); break;
                    default: now += pick(2 * kMs); break;
                }
                got.clear();
                size_t n = w.collect_due(now, got);
                std::sort(model.begin(), model.end(), before);
                auto split = std::find_if(model.begin(), model.end(),
                                          [now](const Due& d) { return d.deadline > now; });
                std::vector<Due> want(model.begin(), split);
                model.erase(model.begin(), split);
                ASSERT_EQ(n, want.size()) << "op " << op;
                ASSERT_EQ(got.size(), want.size()) << "op " << op;
                for (size_t i = 0; i < want.size(); ++i) {
                    ASSERT_EQ(got[i].deadline, want[i].deadline) << "op " << op << " #" << i;
                    ASSERT_EQ(got[i].instance, want[i].instance) << "op " << op << " #" << i;
                }
            }
            ASSERT_LE(w.size(), 2 * model.size()) << "op " << op;
            Micros want_next = -1;
            for (const Due& d : model) {
                if (want_next < 0 || d.deadline < want_next) want_next = d.deadline;
            }
            ASSERT_EQ(w.next_deadline(), want_next) << "op " << op;
        }
    }
}

// -- Mailbox ------------------------------------------------------------------

TEST(Mailbox, DrainRestoresTicketOrder) {
    reactor::Mailbox mb;
    for (uint64_t t = 0; t < 5; ++t) {
        auto* e = new reactor::Envelope;
        e->ticket = t;
        mb.push(e);
    }
    std::vector<reactor::Envelope*> out;
    EXPECT_EQ(mb.drain_into(out), 5u);
    EXPECT_TRUE(mb.empty());
    for (uint64_t t = 0; t < 5; ++t) EXPECT_EQ(out[t]->ticket, t);
    for (auto* e : out) delete e;
}

TEST(Mailbox, ConcurrentProducersLoseNothing) {
    reactor::Mailbox mb;
    constexpr int kThreads = 4;
    constexpr int kPerThread = 2000;
    std::atomic<uint64_t> ticket{0};
    std::vector<std::thread> producers;
    producers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        producers.emplace_back([&mb, &ticket, t] {
            for (int i = 0; i < kPerThread; ++i) {
                auto* e = new reactor::Envelope;
                e->instance = static_cast<reactor::InstanceId>(t);
                e->ticket = ticket.fetch_add(1);
                mb.push(e);
            }
        });
    }
    for (auto& p : producers) p.join();
    std::vector<reactor::Envelope*> out;
    EXPECT_EQ(mb.drain_into(out), static_cast<size_t>(kThreads * kPerThread));
    for (size_t i = 1; i < out.size(); ++i) {
        ASSERT_LT(out[i - 1]->ticket, out[i]->ticket);
    }
    for (auto* e : out) delete e;
}

// -- Reactor basics -----------------------------------------------------------

TEST(Reactor, SingleInstanceRunsToTermination) {
    reactor::ReactorConfig rc;
    rc.collect_traces = true;
    reactor::Reactor r(rc);
    auto cp = compile_shared(kCounter);
    reactor::InstanceId id = r.add_instance(cp);
    r.boot();
    EXPECT_TRUE(r.inject(id, "ADD", rt::Value::integer(4)).accepted());
    EXPECT_TRUE(r.inject(id, "ADD", rt::Value::integer(2)).accepted());
    EXPECT_EQ(r.inject(id, "NOT_AN_INPUT").status,
              reactor::InjectResult::Status::UnknownEvent);
    r.run_round();
    EXPECT_TRUE(r.inject(id, "STOP").accepted());
    r.run_round();
    r.drain();
    EXPECT_EQ(r.instance(id).status(), rt::Engine::Status::Terminated);
    EXPECT_EQ(r.instance(id).result().as_int(), 6);
    EXPECT_EQ(r.instance(id).trace(),
              (std::vector<std::string>{"add 4 total 4", "add 2 total 6"}));
}

TEST(Reactor, TimersFireAtFleetInstants) {
    reactor::Reactor r;
    auto cp = compile_shared(kTicker);
    reactor::InstanceId a = r.add_instance(cp);
    reactor::InstanceId b = r.add_instance(cp);
    r.boot();
    for (int i = 0; i < 5; ++i) r.advance(10 * kMs);
    r.inject(a, "STOP");
    r.run_round();
    EXPECT_EQ(r.instance(a).result().as_int(), 5);
    r.advance(20 * kMs);  // b keeps ticking after a terminated
    r.inject(b, "STOP");
    r.run_round();
    EXPECT_EQ(r.instance(b).result().as_int(), 7);
}

TEST(Reactor, AsyncWorkSettlesAcrossRounds) {
    reactor::Reactor r;
    auto cp = compile_shared(kAsyncSum);
    reactor::InstanceId id = r.add_instance(cp);
    r.boot();
    size_t rounds = r.drain();
    EXPECT_GT(rounds, 0u);
    EXPECT_EQ(r.instance(id).status(), rt::Engine::Status::Terminated);
    EXPECT_EQ(r.instance(id).result().as_int(), 5050);
}

TEST(Reactor, LateJoinersBootAtTheFleetInstant) {
    reactor::Reactor r;
    auto cp = compile_shared(kTicker);
    reactor::InstanceId a = r.add_instance(cp);
    r.boot();
    r.advance(30 * kMs);
    reactor::InstanceId b = r.add_instance(cp);
    r.boot();  // only b boots; its 10ms periods are relative to now
    r.advance(10 * kMs);
    r.inject(a, "STOP");
    r.inject(b, "STOP");
    r.run_round();
    EXPECT_EQ(r.instance(a).result().as_int(), 4);
    EXPECT_EQ(r.instance(b).result().as_int(), 1);
}

TEST(Reactor, FaultedMemberDoesNotStopTheFleet) {
    reactor::Reactor r;
    auto bad = compile_shared(R"(
        input void GO;
        await GO;
        _no_such_function();
    )");
    auto good = compile_shared(kCounter);
    reactor::InstanceId f = r.add_instance(bad);
    reactor::InstanceId g = r.add_instance(good);
    r.boot();
    r.inject(f, "GO");
    r.inject(g, "ADD", rt::Value::integer(1));
    r.run_round();
    // Default fleet policy traps the dynamic error: the member parks
    // Faulted, the shard (and the rest of the fleet) carries on.
    EXPECT_EQ(r.instance(f).status(), rt::Engine::Status::Faulted);
    EXPECT_TRUE(r.error(f).empty());
    r.inject(g, "STOP");
    r.run_round();
    EXPECT_EQ(r.instance(g).result().as_int(), 1);
}

TEST(Reactor, SharedProgramIsCoOwnedNotCopied) {
    auto cp = compile_shared(kCounter);
    reactor::Reactor r;
    for (int i = 0; i < 50; ++i) r.add_instance(cp);
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(&r.instance(static_cast<reactor::InstanceId>(i)).program(),
                  cp.get());
    }
}

// -- determinism across worker counts ----------------------------------------

struct FleetRun {
    std::vector<std::string> traces;
    std::string stats_json;
};

/// When `img` is non-null every odd member runs the AOT-compiled backend
/// (program i%3 from the image) interleaved with interpreted members of
/// the same three programs — the schedule below cannot tell them apart.
FleetRun run_mixed_fleet(size_t workers,
                         std::shared_ptr<const aot::FleetImage> img = nullptr) {
    reactor::ReactorConfig rc;
    rc.workers = workers;
    rc.seed = 42;
    rc.collect_traces = true;
    reactor::Reactor r(rc);

    auto counter = compile_shared(kCounter);
    auto ticker = compile_shared(kTicker);
    auto asum = compile_shared(kAsyncSum);
    constexpr size_t kFleet = 60;
    for (size_t i = 0; i < kFleet; ++i) {
        host::Config hc;
        if (img && i % 2 == 1) hc.aot = img->program(i % 3);
        auto cp = i % 3 == 0 ? counter : (i % 3 == 1 ? ticker : asum);
        r.add_instance(cp, hc);
    }
    r.boot();
    r.drain();

    for (int step = 0; step < 6; ++step) {
        for (size_t i = 0; i < kFleet; i += 3) {
            r.inject(static_cast<reactor::InstanceId>(i), "ADD",
                     rt::Value::integer(static_cast<int64_t>(step * 100 + i)));
        }
        r.advance(10 * kMs);
        r.drain();
    }
    for (size_t i = 0; i < kFleet; ++i) {
        r.inject(static_cast<reactor::InstanceId>(i), "STOP");
    }
    r.run_round();
    r.drain();

    FleetRun out;
    out.traces.reserve(kFleet);
    for (size_t i = 0; i < kFleet; ++i) {
        out.traces.push_back(r.instance(static_cast<reactor::InstanceId>(i)).trace_text());
    }
    obs::ProcessStats st = r.fleet_stats();
    st.clear_measured();  // wall-clock fields are the only nondeterminism
    out.stats_json = st.to_json();
    return out;
}

TEST(Reactor, TracesAndStatsAreIdenticalAt1_2_8Workers) {
    FleetRun w1 = run_mixed_fleet(1);
    FleetRun w2 = run_mixed_fleet(2);
    FleetRun w8 = run_mixed_fleet(8);
    ASSERT_EQ(w1.traces.size(), w2.traces.size());
    ASSERT_EQ(w1.traces.size(), w8.traces.size());
    for (size_t i = 0; i < w1.traces.size(); ++i) {
        EXPECT_EQ(w1.traces[i], w2.traces[i]) << "instance " << i << " (2 workers)";
        EXPECT_EQ(w1.traces[i], w8.traces[i]) << "instance " << i << " (8 workers)";
    }
    EXPECT_EQ(w1.stats_json, w2.stats_json);
    EXPECT_EQ(w1.stats_json, w8.stats_json);
    EXPECT_FALSE(w1.traces[0].empty());
}

std::shared_ptr<const aot::FleetImage> build_fleet_image() {
    std::vector<std::shared_ptr<const flat::CompiledProgram>> programs = {
        compile_shared(kCounter), compile_shared(kTicker), compile_shared(kAsyncSum)};
    std::string err;
    auto img = aot::FleetImage::build(programs, {}, &err);
    EXPECT_NE(img, nullptr) << err;
    return img;
}

TEST(Reactor, CompiledMembersAreTraceIdenticalToInterpretedOnes) {
    if (!aot::toolchain_available()) GTEST_SKIP() << "no host C compiler";
    // The strongest cross-backend claim: a fleet with every odd member
    // AOT-compiled produces, member for member, the same trace bytes and
    // results as the all-interpreted fleet under the same schedule.
    FleetRun interp = run_mixed_fleet(1);
    FleetRun mixed = run_mixed_fleet(1, build_fleet_image());
    ASSERT_EQ(interp.traces.size(), mixed.traces.size());
    for (size_t i = 0; i < interp.traces.size(); ++i) {
        EXPECT_EQ(interp.traces[i], mixed.traces[i]) << "instance " << i;
    }
}

TEST(Reactor, MixedBackendFleetIsIdenticalAt1_2_8Workers) {
    if (!aot::toolchain_available()) GTEST_SKIP() << "no host C compiler";
    std::shared_ptr<const aot::FleetImage> img = build_fleet_image();
    FleetRun w1 = run_mixed_fleet(1, img);
    FleetRun w2 = run_mixed_fleet(2, img);
    FleetRun w8 = run_mixed_fleet(8, img);
    ASSERT_EQ(w1.traces.size(), w2.traces.size());
    ASSERT_EQ(w1.traces.size(), w8.traces.size());
    for (size_t i = 0; i < w1.traces.size(); ++i) {
        EXPECT_EQ(w1.traces[i], w2.traces[i]) << "instance " << i << " (2 workers)";
        EXPECT_EQ(w1.traces[i], w8.traces[i]) << "instance " << i << " (8 workers)";
    }
    EXPECT_EQ(w1.stats_json, w2.stats_json);
    EXPECT_EQ(w1.stats_json, w8.stats_json);
    EXPECT_FALSE(w1.traces[1].empty());
}

/// Respawns one async block on every GO, so its bounded table compacts every
/// other spawn; ADD 0 trips a fault (the lever both backends share), so
/// Restore-policy members reload checkpoints taken between respawns.
constexpr const char* kRespawner = R"(
    input int ADD;
    input void GO, STOP;
    int done = 0;
    int v = 0;
    par do
       loop do
          await GO;
          int r = async do
             int i = 0;
             loop do
                i = i + 1;
                if i == 4 then break; end
             end
             return i;
          end;
          done = done + r;
          _printf("done %d\n", done);
       end
    with
       loop do
          v = await ADD;
          if v == 0 then
             _ceu_trip();
          end;
       end
    with
       await STOP;
       return done;
    end
)";

/// A supervised fleet of respawning members, every odd one compiled when
/// `h` is set. A step is three reactions (GO, ADD, the async's end) and a
/// checkpoint is taken every two, so checkpoints land, and restores load
/// tables, both with a live context and with only dead ones.
FleetRun run_respawning_fleet(size_t workers, const aot::ProgramHandle* h) {
    reactor::ReactorConfig rc;
    rc.workers = workers;
    rc.seed = 7;
    rc.collect_traces = true;
    rc.supervise.restart = reactor::SupervisorPolicy::Restart::Restore;
    rc.supervise.backoff_initial_ticks = 1;
    rc.supervise.checkpoint_every = 2;
    reactor::Reactor r(rc);

    auto cp = compile_shared(kRespawner);
    constexpr size_t kFleet = 24;
    for (size_t i = 0; i < kFleet; ++i) {
        host::Config hc;
        if (h != nullptr && i % 2 == 1) hc.aot = *h;
        r.add_instance(cp, hc);
    }
    r.boot();

    for (int step = 0; step < 12; ++step) {
        for (size_t i = 0; i < kFleet; ++i) {
            auto id = static_cast<reactor::InstanceId>(i);
            r.inject(id, "GO");
            bool trip = (i + static_cast<size_t>(step)) % 5 == 0;
            r.inject(id, "ADD", rt::Value::integer(trip ? 0 : step + 1));
        }
        r.drain();
        for (Micros due = r.next_restart_due(); due >= 0; due = r.next_restart_due()) {
            r.advance(due - r.now());
            r.drain();
        }
    }
    for (size_t i = 0; i < kFleet; ++i) {
        r.inject(static_cast<reactor::InstanceId>(i), "STOP");
    }
    r.drain();

    FleetRun out;
    for (size_t i = 0; i < kFleet; ++i) {
        out.traces.push_back(r.instance(static_cast<reactor::InstanceId>(i)).trace_text());
    }
    obs::ProcessStats st = r.fleet_stats();
    st.clear_measured();
    out.stats_json = st.to_json();
    return out;
}

TEST(Reactor, RespawningAsyncFleetIsIdenticalAt1_2_8WorkersUnderCheckpoints) {
    aot::ProgramHandle h;
    if (aot::toolchain_available()) {
        std::string err;
        h = aot::FleetImage::build_one(compile_shared(kRespawner), {}, &err);
        ASSERT_TRUE(h) << err;
    }
    // Interpreted only, then (with a C compiler) every odd member compiled.
    std::vector<const aot::ProgramHandle*> variants = {nullptr};
    if (h) variants.push_back(&h);
    for (const aot::ProgramHandle* img : variants) {
        SCOPED_TRACE(img == nullptr ? "interpreted" : "mixed backends");
        FleetRun w1 = run_respawning_fleet(1, img);
        FleetRun w2 = run_respawning_fleet(2, img);
        FleetRun w8 = run_respawning_fleet(8, img);
        for (size_t i = 0; i < w1.traces.size(); ++i) {
            EXPECT_EQ(w1.traces[i], w2.traces[i]) << "instance " << i << " (2 workers)";
            EXPECT_EQ(w1.traces[i], w8.traces[i]) << "instance " << i << " (8 workers)";
        }
        EXPECT_EQ(w1.stats_json, w2.stats_json);
        EXPECT_EQ(w1.stats_json, w8.stats_json);
        // Checkpoints were taken and restored from, and members respawned.
        EXPECT_EQ(w1.stats_json.find("\"restores\":0"), std::string::npos);
        EXPECT_EQ(w1.stats_json.find("\"checkpoints\":0"), std::string::npos);
        EXPECT_NE(w1.traces[0].find("done 4\n"), std::string::npos);
    }
}

// -- membership churn ---------------------------------------------------------

TEST(Reactor, RetiredSlotIsReusedUnderANewGeneration) {
    reactor::ReactorConfig rc;
    rc.collect_traces = true;
    reactor::Reactor r(rc);
    auto cp = compile_shared(kCounter);
    std::vector<reactor::InstanceId> ids;
    for (int i = 0; i < 4; ++i) ids.push_back(r.add_instance(cp));
    EXPECT_EQ(ids, (std::vector<reactor::InstanceId>{0, 1, 2, 3}));  // dense until reuse
    r.boot();
    for (reactor::InstanceId id : ids) {
        r.inject(id, "ADD", rt::Value::integer(static_cast<int64_t>(id) + 1));
    }
    r.drain();

    // Member 2 leaves with an ADD still queued; a new member takes its slot.
    reactor::InstanceId old = ids[2];
    EXPECT_TRUE(r.inject(old, "ADD", rt::Value::integer(100)).accepted());
    obs::ProcessStats before = r.fleet_stats();
    r.retire(old);
    reactor::InstanceId fresh = r.add_instance(cp);
    EXPECT_EQ(reactor::instance_slot(fresh), 2u);
    EXPECT_EQ(reactor::instance_generation(fresh), 1u);
    EXPECT_EQ(r.size(), 4u);
    r.boot();

    EXPECT_EQ(r.inject(old, "ADD", rt::Value::integer(1000)).status,
              reactor::InjectResult::Status::Retired);
    EXPECT_EQ(r.inject(old, EventId{0}, rt::Value::integer(1000)).status,
              reactor::InjectResult::Status::Retired);
    EXPECT_EQ(r.inject(old, "NOT_AN_INPUT").status,  // Retired, whatever the name
              reactor::InjectResult::Status::Retired);
    EXPECT_TRUE(r.retired(old));
    EXPECT_FALSE(r.retired(fresh));
    EXPECT_THROW((void)r.instance(old), std::out_of_range);
    EXPECT_THROW((void)r.error(old), std::out_of_range);
    EXPECT_THROW((void)r.supervision(old), std::out_of_range);
    EXPECT_THROW((void)r.retired(reactor::make_instance_id(2, 2)), std::out_of_range);
    EXPECT_THROW((void)r.retired(reactor::make_instance_id(4, 0)), std::out_of_range);
    r.retire(old);  // stale: the slot's new member is untouched
    r.drain();
    EXPECT_TRUE(r.instance(fresh).trace().empty());  // no ADD of the old member's

    // The retired member's counters stay in the totals.
    obs::ProcessStats want = before;
    want.merge(r.instance(fresh).snapshot());
    obs::ProcessStats got = r.fleet_stats();
    want.clear_measured();
    got.clear_measured();
    EXPECT_EQ(got.to_json(), want.to_json());

    EXPECT_TRUE(r.inject(fresh, "ADD", rt::Value::integer(5)).accepted());
    r.drain();
    EXPECT_EQ(r.instance(fresh).trace(), (std::vector<std::string>{"add 5 total 5"}));
    EXPECT_EQ(r.instance(ids[3]).trace(), (std::vector<std::string>{"add 4 total 4"}));
}

TEST(Reactor, RetiredMembersEntriesAreDroppedWhenReached) {
    // Four members retire, each with a different kind of entry in flight:
    // a queued envelope, an indexed timer, an async listing and a pending
    // restart. Their slots stay free, so an entry that reached its member
    // anyway would find no Instance there.
    reactor::ReactorConfig rc;
    rc.async_slices_per_round = 1;
    rc.supervise.restart = reactor::SupervisorPolicy::Restart::Reboot;
    reactor::Reactor r(rc);
    reactor::InstanceId counter = r.add_instance(compile_shared(kCounter));
    reactor::InstanceId ticker = r.add_instance(compile_shared(kTicker));
    auto respawner_cp = compile_shared(kRespawner);
    reactor::InstanceId respawner = r.add_instance(respawner_cp);
    reactor::InstanceId faulty = r.add_instance(respawner_cp);
    r.boot();
    r.inject(respawner, "GO");
    r.inject(faulty, "ADD", rt::Value::integer(0));
    r.run_round();
    ASSERT_TRUE(r.work_pending());        // the async is still listed
    ASSERT_GE(r.next_restart_due(), 0);  // the fault waits out its backoff
    r.inject(counter, "ADD", rt::Value::integer(1));
    uint64_t reactions = r.fleet_stats().reactions;
    for (reactor::InstanceId id : {counter, ticker, respawner, faulty}) r.retire(id);
    EXPECT_LT(r.next_restart_due(), 0);
    r.drain();
    r.advance(kSec);  // past the ticker's deadline and the backoff
    r.drain();
    EXPECT_FALSE(r.work_pending());
    EXPECT_EQ(r.fleet_stats().reactions, reactions);
}

struct ChurnRun {
    std::vector<std::string> logs;  // each member's output, by join order
    std::vector<bool> retired;      // by join order
    std::string stats_json;
};

/// A fleet whose membership churns every step. Members join in turn as
/// kRespawner (Restore policy, checkpoints, ADD 0 faults it), kTicker and
/// kCounter. Each step delivers one round of input, then retires a seeded
/// handful — with input still queued, asyncs mid-flight (one slice per
/// round), timers indexed and restarts pending — and new members take
/// their slots. Retired instances are gone, so output is collected
/// through output sinks. With `churn` false the same members join at the
/// same instants with the same input, and those picked to retire only
/// stop getting input. Every backoff is one tick and each step waits one
/// tick after its drain, so restarts run at the same instants either way.
ChurnRun run_churning_fleet(size_t workers, bool churn = true) {
    reactor::ReactorConfig rc;
    rc.workers = workers;
    rc.seed = 5;
    rc.async_slices_per_round = 1;
    rc.supervise.restart = reactor::SupervisorPolicy::Restart::Restore;
    rc.supervise.backoff_initial_ticks = 1;
    rc.supervise.backoff_max_ticks = 1;
    rc.supervise.checkpoint_every = 2;
    reactor::Reactor r(rc);
    const std::shared_ptr<const flat::CompiledProgram> programs[] = {
        compile_shared(kRespawner), compile_shared(kTicker), compile_shared(kCounter)};

    constexpr size_t kStart = 24;
    constexpr size_t kSteps = 16;
    ChurnRun out;
    out.logs.resize(kStart + kSteps * 6);  // room for every member that joins
    out.retired.resize(out.logs.size());
    std::vector<std::pair<reactor::InstanceId, size_t>> live;  // (id, join ordinal)
    size_t joined = 0;
    size_t peak = 0;
    auto join = [&] {
        size_t k = joined++;
        reactor::InstanceId id = r.add_instance(programs[k % 3]);
        std::string* log = &out.logs[k];
        r.instance(id).add_output_sink([log](const std::string& line) { *log += line + "\n"; });
        live.emplace_back(id, k);
        peak = std::max(peak, live.size());
        if (churn) {
            EXPECT_EQ(r.size(), peak) << "the table outgrew the peak live count";
        }
    };
    for (size_t i = 0; i < kStart; ++i) join();
    r.boot();

    for (size_t step = 0; step < kSteps; ++step) {
        for (const auto& [id, k] : live) {
            if (k % 3 == 0) {
                r.inject(id, "GO");
                r.inject(id, "ADD", rt::Value::integer((k + step) % 4 == 0 ? 0 : 1));
            } else if (k % 3 == 2) {
                r.inject(id, "ADD", rt::Value::integer(static_cast<int64_t>(step * 10 + k)));
            }
        }
        r.run_round();
        for (size_t c = 0, n = 2 + step % 4; c < n && !live.empty(); ++c) {
            size_t p = (step * 7 + c * 11) % live.size();
            if (churn) {
                // Input the member never sees, nor the slot's next member.
                r.inject(live[p].first, "ADD", rt::Value::integer(1'000'000));
                r.inject(live[p].first, "STOP");
                r.retire(live[p].first);
            }
            out.retired[live[p].second] = true;
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(p));
        }
        for (size_t c = 0, n = 2 + step * 3 % 5; c < n; ++c) join();
        r.boot();
        r.advance(10 * kMs);
        r.drain();
        r.advance(reactor::kTimerGranularity);  // every pending restart is due
        r.drain();
        EXPECT_LT(r.next_restart_due(), 0);
    }
    for (const auto& [id, k] : live) {
        EXPECT_EQ(r.instance(id).status(), rt::Engine::Status::Running) << "member " << k;
        r.inject(id, "STOP");
    }
    r.drain();
    out.logs.resize(joined);
    out.retired.resize(joined);
    obs::ProcessStats st = r.fleet_stats();
    st.clear_measured();
    out.stats_json = st.to_json();
    return out;
}

TEST(Reactor, ChurningFleetIsIdenticalAt1_2_8Workers) {
    ChurnRun w1 = run_churning_fleet(1);
    ChurnRun w2 = run_churning_fleet(2);
    ChurnRun w8 = run_churning_fleet(8);
    ASSERT_EQ(w1.logs.size(), w2.logs.size());
    ASSERT_EQ(w1.logs.size(), w8.logs.size());
    for (size_t k = 0; k < w1.logs.size(); ++k) {
        EXPECT_EQ(w1.logs[k], w2.logs[k]) << "member " << k << " (2 workers)";
        EXPECT_EQ(w1.logs[k], w8.logs[k]) << "member " << k << " (8 workers)";
    }
    EXPECT_EQ(w1.stats_json, w2.stats_json);
    EXPECT_EQ(w1.stats_json, w8.stats_json);
    // Churn around a member changes nothing in it: its output equals the
    // run where nobody retires, up to its own retirement.
    ChurnRun ref = run_churning_fleet(1, false);
    ASSERT_EQ(ref.logs.size(), w1.logs.size());
    for (size_t k = 0; k < w1.logs.size(); ++k) {
        if (w1.retired[k]) {
            EXPECT_EQ(ref.logs[k].compare(0, w1.logs[k].size(), w1.logs[k]), 0)
                << "member " << k << " (retired)";
        } else {
            EXPECT_EQ(w1.logs[k], ref.logs[k]) << "member " << k;
        }
    }
    // The churn reached every kind of entry: faults were restored from
    // checkpoints, asyncs finished, tickers ticked.
    EXPECT_EQ(w1.stats_json.find("\"restores\":0"), std::string::npos);
    EXPECT_EQ(w1.stats_json.find("\"checkpoints\":0"), std::string::npos);
    auto logged = [&w1](const char* text) {
        return std::any_of(w1.logs.begin(), w1.logs.end(), [text](const std::string& log) {
            return log.find(text) != std::string::npos;
        });
    };
    EXPECT_TRUE(logged("[supervisor] restored from checkpoint"));
    EXPECT_TRUE(logged("done "));
    EXPECT_TRUE(logged("tick "));
    EXPECT_TRUE(logged("add "));
}

TEST(Reactor, ConcurrentInjectAndRetireRaceCompiledMembersSafely) {
    if (!aot::toolchain_available()) GTEST_SKIP() << "no host C compiler";
    // The TSan gate for the compiled path: producer threads hammer inject
    // while the control thread runs rounds and retires a member mid-storm.
    auto cp = compile_shared(kCounter);
    std::string err;
    aot::ProgramHandle h = aot::FleetImage::build_one(cp, {}, &err);
    ASSERT_TRUE(h) << err;

    reactor::ReactorConfig rc;
    rc.workers = 2;
    reactor::Reactor r(rc);
    constexpr size_t kFleet = 8;
    host::Config hc;
    hc.aot = h;
    for (size_t i = 0; i < kFleet; ++i) r.add_instance(cp, hc);
    r.boot();

    constexpr int kThreads = 4;
    constexpr int kPerThread = 500;
    std::vector<std::thread> producers;
    producers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        producers.emplace_back([&r, t] {
            for (int i = 0; i < kPerThread; ++i) {
                // Member 7 is retired mid-storm; its inject results are
                // allowed to be Retired, never a torn delivery.
                r.inject(static_cast<reactor::InstanceId>((t * 31 + i) % kFleet),
                         EventId{0} /* ADD */, rt::Value::integer(1));
            }
        });
    }
    for (int round = 0; round < 50; ++round) r.run_round();
    r.retire(static_cast<reactor::InstanceId>(7));
    for (auto& p : producers) p.join();
    r.drain();
    for (size_t i = 0; i + 1 < kFleet; ++i) {
        r.inject(static_cast<reactor::InstanceId>(i), "STOP");
    }
    r.run_round();

    // Every delivered ADD summed exactly once across surviving members.
    int64_t total = 0;
    for (size_t i = 0; i + 1 < kFleet; ++i) {
        total += r.instance(static_cast<reactor::InstanceId>(i)).result().as_int();
    }
    EXPECT_GT(total, 0);
    EXPECT_LE(total, kThreads * kPerThread);
}

TEST(Reactor, RunsAreReproducibleForAFixedSeed) {
    FleetRun a = run_mixed_fleet(2);
    FleetRun b = run_mixed_fleet(2);
    EXPECT_EQ(a.traces, b.traces);
    EXPECT_EQ(a.stats_json, b.stats_json);
}

TEST(Reactor, ConcurrentInjectorsDeliverEverything) {
    reactor::ReactorConfig rc;
    rc.workers = 2;
    reactor::Reactor r(rc);
    auto cp = compile_shared(kCounter);
    constexpr size_t kFleet = 8;
    for (size_t i = 0; i < kFleet; ++i) r.add_instance(cp);
    r.boot();

    constexpr int kThreads = 4;
    constexpr int kPerThread = 500;
    std::vector<std::thread> producers;
    producers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        producers.emplace_back([&r, t] {
            for (int i = 0; i < kPerThread; ++i) {
                r.inject(static_cast<reactor::InstanceId>((t * 31 + i) % kFleet),
                         EventId{0} /* ADD */, rt::Value::integer(1));
            }
        });
    }
    for (auto& p : producers) p.join();
    r.drain();
    for (size_t i = 0; i < kFleet; ++i) {
        r.inject(static_cast<reactor::InstanceId>(i), "STOP");
    }
    r.run_round();

    int64_t total = 0;
    for (size_t i = 0; i < kFleet; ++i) {
        total += r.instance(static_cast<reactor::InstanceId>(i)).result().as_int();
    }
    EXPECT_EQ(total, kThreads * kPerThread);
}

// -- the WSN fleet path -------------------------------------------------------

TEST(Reactor, CeuMoteFleetsShareOneCompiledProgram) {
    auto firmware = compile_shared(R"(
        int n = 0;
        loop do
           await 100ms;
           n = n + 1;
           _Leds_set(n);
        end
    )");
    wsn::RadioModel radio;
    wsn::Network net(radio);
    std::vector<wsn::CeuMote*> motes;
    for (int i = 0; i < 4; ++i) {
        wsn::CeuMoteConfig cfg;
        cfg.program = firmware;  // no per-mote compile
        motes.push_back(static_cast<wsn::CeuMote*>(
            &net.add(std::make_unique<wsn::CeuMote>(i, cfg))));
    }
    net.start();
    net.run_until(550 * kMs);
    for (wsn::CeuMote* m : motes) {
        EXPECT_EQ(&m->instance().program(), firmware.get());
        EXPECT_EQ(m->leds(), 5);
    }
}

// -- work stealing ------------------------------------------------------------

TEST(StealDeque, ConcurrentTakeAndStealClaimEachItemExactlyOnce) {
    // The round protocol under real contention: the owner publishes a
    // batch and pops from the bottom while three thieves hammer the top.
    // Every published index must be claimed by exactly one thread. Batch
    // sizes vary to force ring growth mid-life (the retired-ring path),
    // and thieves keep probing across publishes so a stale ring pointer is
    // actually exercised. Runs under the reactor TSan job.
    reactor::StealDeque dq;
    constexpr int kRounds = 40;
    constexpr uint32_t kMaxItems = 300;
    std::vector<std::atomic<uint32_t>> claims(kMaxItems);
    std::atomic<int64_t> remaining{0};
    std::atomic<bool> stop{false};

    auto thief = [&] {
        while (!stop.load(std::memory_order_acquire)) {
            if (remaining.load(std::memory_order_acquire) <= 0) {
                std::this_thread::yield();
                continue;
            }
            int64_t it = dq.steal();
            if (it >= 0) {
                claims[static_cast<size_t>(it)].fetch_add(1,
                                                          std::memory_order_relaxed);
                remaining.fetch_sub(1, std::memory_order_acq_rel);
            }
        }
    };
    std::vector<std::thread> thieves;
    thieves.reserve(3);
    for (int i = 0; i < 3; ++i) thieves.emplace_back(thief);

    for (int round = 0; round < kRounds; ++round) {
        uint32_t n = 1 + static_cast<uint32_t>(round) * 37 % kMaxItems;
        for (uint32_t i = 0; i < n; ++i) {
            claims[i].store(0, std::memory_order_relaxed);
        }
        dq.reserve(n);
        remaining.store(n, std::memory_order_release);
        dq.publish(n);
        while (remaining.load(std::memory_order_acquire) > 0) {
            int64_t it = dq.take();
            if (it >= 0) {
                claims[static_cast<size_t>(it)].fetch_add(1,
                                                          std::memory_order_relaxed);
                remaining.fetch_sub(1, std::memory_order_acq_rel);
            } else {
                std::this_thread::yield();  // thieves hold the stragglers
            }
        }
        for (uint32_t i = 0; i < n; ++i) {
            ASSERT_EQ(claims[i].load(std::memory_order_relaxed), 1u)
                << "round " << round << " item " << i;
        }
    }
    stop.store(true, std::memory_order_release);
    for (std::thread& t : thieves) t.join();
}

/// 90%+ of the event load lands on members congruent 0 mod 8 — the same
/// shard at 1, 2, and 8 workers — so multi-worker runs are forced through
/// the steal path (idle shards poaching the loaded shard's round) while
/// the trace/stats contract must hold bit for bit.
FleetRun run_skewed_fleet(size_t workers) {
    reactor::ReactorConfig rc;
    rc.workers = workers;
    rc.seed = 7;
    rc.collect_traces = true;
    reactor::Reactor r(rc);

    auto counter = compile_shared(kCounter);
    constexpr size_t kFleet = 80;
    for (size_t i = 0; i < kFleet; ++i) r.add_instance(counter);
    r.boot();
    r.drain();

    for (int step = 0; step < 5; ++step) {
        for (size_t i = 0; i < kFleet; ++i) {
            int shots = i % 8 == 0 ? 9 : (i % 3 == 1 ? 1 : 0);
            for (int s = 0; s < shots; ++s) {
                r.inject(static_cast<reactor::InstanceId>(i), "ADD",
                         rt::Value::integer(static_cast<int64_t>(
                             step * 1000 + static_cast<int>(i) * 10 + s)));
            }
        }
        r.drain();
    }
    for (size_t i = 0; i < kFleet; ++i) {
        r.inject(static_cast<reactor::InstanceId>(i), "STOP");
    }
    r.drain();

    FleetRun out;
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

TEST(Reactor, SkewedFleetIsIdenticalAt1_2_8Workers) {
    FleetRun w1 = run_skewed_fleet(1);
    FleetRun w2 = run_skewed_fleet(2);
    FleetRun w8 = run_skewed_fleet(8);
    ASSERT_EQ(w1.traces.size(), w2.traces.size());
    ASSERT_EQ(w1.traces.size(), w8.traces.size());
    for (size_t i = 0; i < w1.traces.size(); ++i) {
        EXPECT_EQ(w1.traces[i], w2.traces[i]) << "instance " << i << " (2 workers)";
        EXPECT_EQ(w1.traces[i], w8.traces[i]) << "instance " << i << " (8 workers)";
    }
    EXPECT_EQ(w1.stats_json, w2.stats_json);
    EXPECT_EQ(w1.stats_json, w8.stats_json);
    EXPECT_FALSE(w1.traces[0].empty());
}

// -- per-shard arenas ---------------------------------------------------------

TEST(Reactor, ArenaReservationStabilizesAfterWarmup) {
    // A warmed fleet's steady state must stop demanding memory: envelope
    // cells recycle through the pool's free list, so the exact
    // reserved-bytes gauge goes flat while rounds keep running.
    auto counter = compile_shared(kCounter);
    auto ticker = compile_shared(kTicker);
    reactor::Reactor r;
    constexpr size_t kFleet = 300;
    for (size_t i = 0; i < kFleet; ++i) {
        r.add_instance(i % 2 == 0 ? counter : ticker);
    }
    r.boot();
    r.drain();

    auto one_round = [&] {
        for (size_t i = 0; i < kFleet; i += 2) {
            r.inject(static_cast<reactor::InstanceId>(i), "ADD",
                     rt::Value::integer(1));
        }
        r.advance(10 * kMs);
        r.drain();
    };
    for (int i = 0; i < 8; ++i) one_round();
    uint64_t warmed = r.fleet_stats().arena_bytes;
    EXPECT_GT(warmed, 0u);
    for (int i = 0; i < 40; ++i) one_round();
    EXPECT_EQ(r.fleet_stats().arena_bytes, warmed)
        << "steady-state rounds reserved new arena memory";
}

/// kTicker without its trace line: the interpreter still allocates an
/// argument vector per C call, and the fleet below measures timer rounds.
constexpr const char* kQuietTicker = R"(
    input void STOP;
    int n = 0;
    par do
       loop do
          await 10ms;
          n = n + 1;
       end
    with
       await STOP;
       return n;
    end
)";

/// Bytes the global allocator handed out, in each of `windows` windows of
/// `window` fleet time, to a warmed fleet of `kQuietTicker` members stepped
/// 1.25 ms at a time. The members join in 8 cohorts one step apart, as
/// in fleet-mix, so every step fires a different eighth of the fleet.
std::vector<uint64_t> warm_ticker_alloc_bytes(size_t workers, Micros window,
                                              int windows) {
    constexpr size_t kFleet = 1024;
    constexpr size_t kCohorts = 8;
    constexpr Micros kStep = 10 * kMs / kCohorts;
    reactor::ReactorConfig rc;
    rc.workers = workers;
    rc.engine.check_invariants = false;
    reactor::Reactor r(rc);
    auto ticker = compile_shared(kQuietTicker);
    for (size_t k = 0; k < kCohorts; ++k) {
        if (k > 0) r.advance(kStep);
        for (size_t i = k; i < kFleet; i += kCohorts) r.add_instance(ticker);
        r.boot();
    }
    while (r.now() < 2 * kSec) r.advance(kStep);  // warmup

    std::vector<uint64_t> bytes;
    for (int w = 0; w < windows; ++w) {
        Micros end = r.now() + window;
        g_alloc_bytes.store(0, std::memory_order_relaxed);
        g_alloc_armed.store(true, std::memory_order_relaxed);
        while (r.now() < end) r.advance(kStep);
        g_alloc_armed.store(false, std::memory_order_relaxed);
        bytes.push_back(g_alloc_bytes.load(std::memory_order_relaxed));
    }
    EXPECT_EQ(r.instance(0).status(), rt::Engine::Status::Running);
    EXPECT_GT(r.fleet_stats().reactions, kFleet * 1000);  // the tickers ticked
    return bytes;
}

TEST(Reactor, WarmTimerRoundsTakeNoGlobalAllocatorBytes) {
    // Steady timer rounds re-arm every member's deadline in the shard's
    // timer index; once warm, that must reuse memory the fleet already
    // holds. Three 4 s windows after a 2 s warmup span 2..14 s of fleet
    // time, so growth that only comes due after seconds of fleet time (an
    // index rebuilding itself, a late buffer doubling) still shows.
    for (size_t workers : {1u, 2u}) {
        std::vector<uint64_t> bytes = warm_ticker_alloc_bytes(workers, 4 * kSec, 3);
        for (size_t w = 0; w < bytes.size(); ++w) {
            EXPECT_EQ(bytes[w], 0u) << workers << " worker(s), window " << w;
        }
    }
}

TEST(Reactor, FleetStatsCarrySchedulerSeries) {
    auto counter = compile_shared(kCounter);
    reactor::Reactor r;
    r.add_instance(counter);
    r.boot();
    r.inject(0, "ADD", rt::Value::integer(1));
    r.drain();

    obs::ProcessStats st = r.fleet_stats();
    EXPECT_GT(st.arena_bytes, 0u);
    std::string js = st.to_json();
    for (const char* key : {"\"steals\":", "\"steal_failures\":",
                            "\"arena_bytes\":", "\"phase_ns\":"}) {
        EXPECT_NE(js.find(key), std::string::npos) << key;
    }
    // The scheduler series are measurement, not semantics: the determinism
    // contract compares stats after clear_measured(), so they must zero.
    st.clear_measured();
    std::string cleared = st.to_json();
    EXPECT_NE(cleared.find("\"steals\":0,"), std::string::npos);
    EXPECT_NE(cleared.find("\"steal_failures\":0,"), std::string::npos);
    EXPECT_NE(cleared.find("\"arena_bytes\":0,"), std::string::npos);
    EXPECT_NE(cleared.find("\"phase_ns\":{\"restarts\":0,\"events\":0,"
                           "\"timers\":0,\"asyncs\":0}"),
              std::string::npos);
}

}  // namespace
