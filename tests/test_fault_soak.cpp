// Fault-injection soak suite (labelled `soak` in ctest): replays the
// paper's WSN protocols under seeded fault plans and asserts protocol-level
// invariants. The two properties the layer exists for:
//
//   1. Recoverability — a mote crash mid-protocol, a power-cycle of the
//      engine, or a trapped dynamic error leaves the runtime in a bootable
//      state (verified by the §4.3 invariant checker, on every reaction).
//   2. Determinism — the same plan seed produces byte-identical traces;
//      a different seed produces a different fault realization.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "codegen/flatten.hpp"
#include "demos/demos.hpp"
#include "env/bindings.hpp"
#include "env/script.hpp"
#include "fault/plan.hpp"
#include "fault/prng.hpp"
#include "fault/session.hpp"
#include "host/instance.hpp"
#include "runtime/engine.hpp"
#include "wsn/nesc_runtime.hpp"
#include "wsn/tinyos_binding.hpp"

namespace ceu {
namespace {

using env::Script;
using host::Instance;
using rt::Engine;
using rt::EngineOptions;
using wsn::CeuMote;
using wsn::CeuMoteConfig;
using wsn::Mote;
using wsn::Network;
using wsn::Packet;
using wsn::RadioModel;

// A trivial recording mote (network-level scenarios).
class ProbeMote final : public Mote {
  public:
    explicit ProbeMote(int id) : Mote(id) {}
    void boot(Network&) override {}
    void deliver(Network& net, const Packet& p) override {
        received.push_back({net.now(), p});
        ++rx_count;
    }
    std::vector<std::pair<Micros, Packet>> received;
};

// ---------------------------------------------------------------------------
// PRNG: seed-purity and stream independence.
// ---------------------------------------------------------------------------

TEST(FaultPrng, SameSeedSameSequence) {
    fault::Prng a(42), b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(FaultPrng, DifferentSeedsDiverge) {
    fault::Prng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i) equal += a.next() == b.next();
    EXPECT_EQ(equal, 0);
}

TEST(FaultPrng, ForkedStreamsAreIndependentOfEachOther) {
    // Drawing from one forked stream must not perturb a sibling: that is
    // what lets a plan enable corruption without shifting drop decisions.
    fault::Prng base(7);
    fault::Prng s1 = base.fork(1);
    fault::Prng s2 = base.fork(2);
    std::vector<uint64_t> lone;
    {
        fault::Prng ref = fault::Prng(7).fork(2);
        for (int i = 0; i < 32; ++i) lone.push_back(ref.next());
    }
    for (int i = 0; i < 32; ++i) {
        (void)s1.next();  // interleave draws on the sibling stream
        EXPECT_EQ(s2.next(), lone[static_cast<size_t>(i)]);
    }
}

TEST(FaultPrng, UniformStaysInRange) {
    fault::Prng p(3);
    for (int i = 0; i < 1000; ++i) {
        double u = p.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
    for (int i = 0; i < 1000; ++i) EXPECT_LT(p.below(17), 17u);
}

// ---------------------------------------------------------------------------
// Plan DSL.
// ---------------------------------------------------------------------------

TEST(FaultPlanDsl, ParsesAFullPlan) {
    const char* kPlan = R"(
        # a representative plan exercising every command
        seed 99
        drop 0.1
        drop 1 2 0.5
        corrupt 0.05
        duplicate 0.02
        jitter 3ms
        link down 0 1 @ 100ms until 200ms
        radio down 2 @ 1s
        crash mote 1 @ 300ms reboot @ 400ms
        drift mote 0 ppm 50 jitter 10
        flap 0 2 @ 2s down 100ms period 500ms count 2
        partition 0 1 | 2 @ 5s until 6s
    )";
    fault::FaultPlan plan;
    Diagnostics diags;
    ASSERT_TRUE(fault::parse_plan(kPlan, &plan, diags)) << diags.str();
    EXPECT_EQ(plan.seed(), 99u);
    EXPECT_DOUBLE_EQ(plan.drop_for(0, 1), 0.1);   // global fallback
    EXPECT_DOUBLE_EQ(plan.drop_for(1, 2), 0.5);   // per-link override
    EXPECT_DOUBLE_EQ(plan.corrupt_prob(), 0.05);
    EXPECT_DOUBLE_EQ(plan.duplicate_prob(), 0.02);
    EXPECT_EQ(plan.jitter_max(), 3 * kMs);
    ASSERT_EQ(plan.clocks().size(), 1u);
    EXPECT_EQ(plan.clocks()[0].mote, 0);

    auto sched = plan.schedule();
    ASSERT_FALSE(sched.empty());
    for (size_t i = 1; i < sched.size(); ++i) {
        EXPECT_LE(sched[i - 1].at, sched[i].at) << "schedule must be time-sorted";
    }
    // crash@300ms / reboot@400ms / link window / flaps / partition all land.
    EXPECT_FALSE(plan.describe().empty());
}

TEST(FaultPlanDsl, RejectsMalformedLines) {
    struct Bad {
        const char* text;
    } cases[] = {
        {"drop"},                       // missing probability
        {"drop 1.5"},                   // out of range
        {"crash mote"},                 // missing id/time
        {"link down 0 @ 100ms"},        // missing endpoint
        {"frobnicate 1 2 3"},           // unknown command
        {"crash mote 1 @ notatime"},    // bad time literal
    };
    for (const Bad& c : cases) {
        fault::FaultPlan plan;
        Diagnostics diags;
        EXPECT_FALSE(fault::parse_plan(c.text, &plan, diags)) << c.text;
        EXPECT_FALSE(diags.ok()) << c.text;
    }
}

TEST(FaultPlanDsl, ScriptAccumulatesFaultLines) {
    const char* kScript =
        "fault seed 5\n"
        "fault drop 0.25\n"
        "T 100ms\n"
        "fault crash mote 1 @ 2s\n";
    Script script;
    Diagnostics diags;
    ASSERT_TRUE(Script::parse(kScript, &script, diags)) << diags.str();
    fault::FaultPlan plan;
    ASSERT_TRUE(fault::parse_plan(script.fault_plan_text(), &plan, diags))
        << diags.str();
    EXPECT_EQ(plan.seed(), 5u);
    EXPECT_DOUBLE_EQ(plan.drop_for(0, 1), 0.25);
    EXPECT_EQ(plan.schedule().size(), 1u);
}

// ---------------------------------------------------------------------------
// Engine hardening: trapped faults, reset, invariants.
// ---------------------------------------------------------------------------

const char* kBoomOnEvent = R"(
    input void Boom;
    _trace("up");
    await Boom;
    _undefined_symbol();
)";

TEST(EngineFaults, UnboundSymbolBecomesTrappableFault) {
    flat::CompiledProgram cp = flat::compile(kBoomOnEvent);
    rt::CBindings bindings = env::make_standard_bindings();
    EngineOptions opt;
    opt.trap_faults = true;
    opt.check_invariants = true;
    Engine eng(cp, bindings, opt);

    std::vector<std::string> hooks;
    eng.on_fault = [&hooks](const Engine::FaultInfo& f) { hooks.push_back(f.message); };

    eng.go_init();
    ASSERT_EQ(eng.status(), Engine::Status::Running);
    eng.go_event(cp.sema.input_id("Boom"), rt::Value::integer(0));
    ASSERT_EQ(eng.status(), Engine::Status::Faulted);
    ASSERT_TRUE(eng.fault().has_value());
    EXPECT_NE(eng.fault()->message.find("unbound C function"), std::string::npos);
    ASSERT_EQ(hooks.size(), 1u);
    EXPECT_EQ(hooks[0], eng.fault()->message);

    // The faulted engine satisfies the structural invariants and reboots.
    EXPECT_TRUE(eng.verify_invariants().empty());
    eng.reset();
    EXPECT_EQ(eng.status(), Engine::Status::Loaded);
    EXPECT_FALSE(eng.fault().has_value());
    eng.go_init();
    EXPECT_EQ(eng.status(), Engine::Status::Running);
    EXPECT_TRUE(eng.verify_invariants().empty());
}

TEST(EngineFaults, UntrappedFaultStillThrows) {
    flat::CompiledProgram cp = flat::compile(kBoomOnEvent);
    rt::CBindings bindings = env::make_standard_bindings();
    Engine eng(cp, bindings, EngineOptions{});  // trap_faults off (default)
    eng.go_init();
    EXPECT_THROW(eng.go_event(cp.sema.input_id("Boom"), rt::Value::integer(0)),
                 rt::RuntimeError);
}

// The Queue ablation's event ping-pong exhausts the reaction budget; with
// trapping on, the hang becomes a Faulted status instead of an exception.
const char* kMutualQueue = R"(
    int tc, tf;
    internal void tc_evt, tf_evt;
    par do
       loop do
          await tc_evt;
          tf = 9 * tc / 5 + 32;
          emit tf_evt;
       end
    with
       loop do
          await tf_evt;
          tc = 5 * (tf - 32) / 9;
          emit tc_evt;
       end
    with
       tc = 100;
       emit tc_evt;
       await forever;
    end
)";

TEST(EngineFaults, ReactionBudgetTrapsUnderQueueAblation) {
    flat::CompiledProgram cp = flat::compile(kMutualQueue);
    rt::CBindings bindings = env::make_standard_bindings();
    EngineOptions opt;
    opt.internal_events = EngineOptions::InternalEvents::Queue;
    opt.reaction_budget = 100'000;
    opt.trap_faults = true;
    Engine eng(cp, bindings, opt);
    eng.go_init();  // must NOT throw
    ASSERT_EQ(eng.status(), Engine::Status::Faulted);
    ASSERT_TRUE(eng.fault().has_value());
    EXPECT_NE(eng.fault()->message.find("budget"), std::string::npos);
    // Power-cycle back to a bootable state (it will fault again on boot —
    // the program is genuinely divergent — but each cycle is clean).
    eng.reset();
    EXPECT_EQ(eng.status(), Engine::Status::Loaded);
    EXPECT_TRUE(eng.verify_invariants().empty());
}

TEST(EngineFaults, InvariantCheckerStaysQuietOnHealthyPrograms) {
    flat::CompiledProgram cp = flat::compile(demos::kQuickstart);
    rt::CBindings bindings = env::make_standard_bindings();
    EngineOptions opt;
    opt.check_invariants = true;  // throw std::logic_error on violation
    Engine eng(cp, bindings, opt);
    eng.go_init();
    for (int i = 1; i <= 20 && eng.status() == Engine::Status::Running; ++i) {
        eng.go_time(i * 100 * kMs);
        EXPECT_TRUE(eng.verify_invariants().empty());
    }
    eng.reset();
    EXPECT_TRUE(eng.verify_invariants().empty());
}

// ---------------------------------------------------------------------------
// Scripts: script-level crash + structured diagnostics (the ceuc path).
// ---------------------------------------------------------------------------

TEST(DriverFaults, ScriptCrashPowerCyclesTheEngine) {
    const char* kProgram = R"(
        input void Tick;
        _trace("boot");
        loop do
           await Tick;
           _trace("tick");
        end
    )";
    flat::CompiledProgram cp = flat::compile(kProgram);
    Instance d(cp);
    Script script;
    script.event("Tick").crash().event("Tick");
    d.run(script);
    EXPECT_EQ(d.trace(),
              (std::vector<std::string>{"boot", "tick", "[crash] engine power-cycled",
                                        "boot", "tick"}));
}

TEST(DriverFaults, RuntimeErrorBecomesStructuredDiagnostic) {
    const char* kProgram = R"(
        _trace("pre");
        _missing_fn(1);
    )";
    flat::CompiledProgram cp = flat::compile(kProgram);
    Instance d(cp);
    Diagnostics diags;
    d.run(Script{}, diags);
    ASSERT_FALSE(diags.ok());
    EXPECT_NE(diags.str().find("unbound C function"), std::string::npos);
    // The diagnostic carries a source location, not just an exception blob.
    EXPECT_NE(diags.str().find(":"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Network-level injection: loss/corruption/duplication/jitter, scheduled
// faults, and the unroutable-vs-dropped accounting split.
// ---------------------------------------------------------------------------

// Sends `n` packets 0 -> 1 one per millisecond and returns the network.
struct ProbeRun {
    Network net;
    ProbeMote* rx = nullptr;
    explicit ProbeRun(fault::FaultPlan plan, int n = 200) : net(make_radio()) {
        net.add(std::make_unique<ProbeMote>(0));
        auto& probe = static_cast<ProbeMote&>(net.add(std::make_unique<ProbeMote>(1)));
        rx = &probe;
        net.inject(std::move(plan));
        net.start();
        for (int i = 0; i < n; ++i) {
            net.run_until(net.now() + kMs);
            Packet p;
            p.payload[0] = i;
            net.send(0, 1, p);
        }
        net.run_until(net.now() + kSec);
    }
    static RadioModel make_radio() {
        RadioModel radio;
        radio.bidi_link(0, 1, kMs);
        return radio;
    }
    // Everything observable, rendered to bytes.
    [[nodiscard]] std::string digest() const {
        std::ostringstream os;
        os << net.packets_sent << '/' << net.packets_dropped << '/'
           << net.packets_unroutable << '/' << net.packets_delivered << '/'
           << net.packets_corrupted << '/' << net.packets_duplicated << ';';
        for (const auto& [at, p] : rx->received) os << at << ':' << p.payload[0] << ',';
        return os.str();
    }
};

TEST(FaultInjection, SeededLossIsDeterministicAndSeedSensitive) {
    auto plan = [](uint64_t seed) {
        fault::FaultPlan p(seed);
        p.drop(0.3).corrupt(0.1).duplicate(0.05).jitter(2 * kMs);
        return p;
    };
    ProbeRun a(plan(1)), b(plan(1)), c(plan(2));
    // Loss actually happened, and nothing was a routing failure.
    EXPECT_GT(a.net.packets_dropped, 0u);
    EXPECT_GT(a.net.packets_corrupted, 0u);
    EXPECT_GT(a.net.packets_duplicated, 0u);
    EXPECT_EQ(a.net.packets_unroutable, 0u);
    EXPECT_LT(a.net.packets_dropped, 200u);  // bounded loss, not a blackout
    // Byte-identical under the same seed; different under a different one.
    EXPECT_EQ(a.digest(), b.digest());
    EXPECT_NE(a.digest(), c.digest());
}

TEST(FaultInjection, PerLinkDropOverridesGlobal) {
    fault::FaultPlan p(4);
    p.drop(0.0).drop(0, 1, 1.0);  // this link always loses
    ProbeRun r(std::move(p), 50);
    EXPECT_EQ(r.net.packets_dropped, 50u);
    EXPECT_EQ(r.net.packets_delivered, 0u);
}

TEST(FaultInjection, PartitionBlocksOnlyDuringTheWindow) {
    RadioModel radio;
    radio.bidi_link(0, 1, kMs);
    Network net(radio);
    net.add(std::make_unique<ProbeMote>(0));
    auto& probe = static_cast<ProbeMote&>(net.add(std::make_unique<ProbeMote>(1)));
    fault::FaultPlan plan(1);
    plan.partition({0}, {1}, 10 * kMs, 50 * kMs);
    net.inject(std::move(plan));
    net.start();

    net.run_until(20 * kMs);
    EXPECT_TRUE(net.send(0, 1, {}) == false);  // inside the window: blocked
    EXPECT_EQ(net.packets_dropped, 1u);
    EXPECT_EQ(net.packets_unroutable, 0u);  // the link exists — it is blocked

    net.run_until(60 * kMs);
    EXPECT_TRUE(net.send(0, 1, {}));  // window over: restored
    net.run_until(100 * kMs);
    ASSERT_EQ(probe.received.size(), 1u);
}

TEST(FaultInjection, LinkFlapTogglesDeterministically) {
    RadioModel radio;
    radio.bidi_link(0, 1, 100);
    Network net(radio);
    net.add(std::make_unique<ProbeMote>(0));
    net.add(std::make_unique<ProbeMote>(1));
    fault::FaultPlan plan(1);
    // Down during [10,15) and [30,35) ms.
    plan.flap(0, 1, 10 * kMs, 5 * kMs, 20 * kMs, 2);
    net.inject(std::move(plan));
    net.start();

    auto send_at = [&](Micros t) {
        net.run_until(t);
        return net.send(0, 1, {});
    };
    EXPECT_FALSE(send_at(12 * kMs));
    EXPECT_TRUE(send_at(16 * kMs));
    EXPECT_FALSE(send_at(31 * kMs));
    EXPECT_TRUE(send_at(36 * kMs));
    net.run_until(50 * kMs);  // let the last packet land
    EXPECT_EQ(net.packets_dropped, 2u);
    EXPECT_EQ(net.packets_delivered, 2u);
}

TEST(FaultInjection, CrashedMoteDropsInFlightDeliveries) {
    RadioModel radio;
    radio.bidi_link(0, 1, 5 * kMs);  // slow link: packet still in flight
    Network net(radio);
    net.add(std::make_unique<ProbeMote>(0));
    auto& probe = static_cast<ProbeMote&>(net.add(std::make_unique<ProbeMote>(1)));
    fault::FaultPlan plan(1);
    plan.crash(1, 2 * kMs);  // crash while the packet is airborne
    net.inject(std::move(plan));
    net.start();
    net.send(0, 1, {});
    net.run_until(kSec);
    EXPECT_EQ(probe.received.size(), 0u);
    EXPECT_EQ(net.packets_dropped, 1u);
    EXPECT_EQ(net.motes_crashed, 1u);
}

// ---------------------------------------------------------------------------
// Céu motes under faults: crash/reboot recovery and clock drift.
// ---------------------------------------------------------------------------

// The §3.1 ring on three Céu motes, with the engine invariant checker on.
struct RingRun {
    Network net;
    std::vector<CeuMote*> motes;
    explicit RingRun(fault::FaultPlan plan, Micros horizon = 30 * kSec)
        : net(make_radio()) {
        for (int id = 0; id < 3; ++id) {
            CeuMoteConfig cfg;
            cfg.source = demos::kRing;
            cfg.engine_options.trap_faults = true;
            cfg.engine_options.check_invariants = true;
            motes.push_back(
                &static_cast<CeuMote&>(net.add(std::make_unique<CeuMote>(id, cfg))));
        }
        net.inject(std::move(plan));
        net.start();
        net.run_until(horizon);
    }
    static RadioModel make_radio() {
        RadioModel radio;
        radio.bidi_link(0, 1, kMs);
        radio.bidi_link(1, 2, kMs);
        radio.bidi_link(2, 0, kMs);
        return radio;
    }
    [[nodiscard]] std::string digest() const {
        std::ostringstream os;
        os << net.packets_sent << '/' << net.packets_dropped << '/'
           << net.packets_delivered << '/' << net.motes_crashed << '/'
           << net.motes_rebooted << ';';
        for (const CeuMote* m : motes) {
            os << 'm' << m->boots() << '[';
            for (const auto& [at, v] : m->led_history()) os << at << ':' << v << ',';
            os << ']';
        }
        return os.str();
    }
};

TEST(CeuSoak, RingSurvivesACrashAndReboot) {
    fault::FaultPlan plan(11);
    plan.crash(1, 3 * kSec, 4 * kSec);  // power-cycle mote 1 mid-protocol
    RingRun run(std::move(plan));

    EXPECT_EQ(run.net.motes_crashed, 1u);
    EXPECT_EQ(run.net.motes_rebooted, 1u);
    EXPECT_EQ(run.motes[1]->boots(), 2u);

    // The rebooted engine is alive and structurally sound (the per-reaction
    // checker would have thrown already; assert the final state too).
    for (CeuMote* m : run.motes) {
        EXPECT_EQ(m->engine().status(), Engine::Status::Running);
        EXPECT_TRUE(m->engine().verify_invariants().empty());
    }

    // The ring recovered: mote 0's watchdog re-initiated, and mote 1 saw
    // token traffic after its reboot instant.
    bool mote1_active_after_reboot = false;
    for (const auto& [at, v] : run.motes[1]->led_history()) {
        if (at > 4 * kSec) mote1_active_after_reboot = true;
    }
    EXPECT_TRUE(mote1_active_after_reboot);
    EXPECT_GT(run.net.packets_delivered, 10u);
}

TEST(CeuSoak, RingCrashRunsAreSeedReproducible) {
    auto plan = [](uint64_t seed) {
        fault::FaultPlan p(seed);
        p.drop(0.1).jitter(kMs);
        p.crash(2, 7 * kSec, 9 * kSec);
        return p;
    };
    RingRun a(plan(21)), b(plan(21)), c(plan(22));
    EXPECT_EQ(a.digest(), b.digest());  // same seed: byte-identical
    EXPECT_NE(a.digest(), c.digest());  // different seed: different faults
}

TEST(CeuSoak, ClockDriftShiftsTimerRates) {
    auto count_blinks = [](double ppm) {
        RadioModel radio;
        Network net(radio);
        CeuMoteConfig cfg;
        cfg.source = R"(
            loop do
               await 100ms;
               _Leds_led0Toggle();
            end
        )";
        auto& m = static_cast<CeuMote&>(net.add(std::make_unique<CeuMote>(0, cfg)));
        fault::FaultPlan plan(5);
        plan.clock_drift(0, ppm);
        net.inject(std::move(plan));
        net.start();
        net.run_until(10 * kSec);
        return m.led_history().size();
    };
    size_t fast = count_blinks(100'000);   // +10%: local 100ms ≈ 91ms global
    size_t exact = count_blinks(0);
    size_t slow = count_blinks(-100'000);  // -10%: local 100ms ≈ 110ms global
    EXPECT_EQ(exact, 100u);
    EXPECT_GT(fast, exact);
    EXPECT_LT(slow, exact);
    EXPECT_GE(fast, 105u);
    EXPECT_LE(slow, 95u);
}

// ---------------------------------------------------------------------------
// Protocol invariant: eventual delivery under bounded loss. The nesC
// client retries unacked batches on a 1s watchdog, so a lossy-but-not-dead
// channel must still make progress.
// ---------------------------------------------------------------------------

TEST(ProtocolSoak, ClientServerMakesProgressUnderBoundedLoss) {
    RadioModel radio;
    radio.bidi_link(0, 1, kMs);
    Network net(radio);
    auto& server = static_cast<wsn::NescMote&>(net.add(
        std::make_unique<wsn::NescMote>(0, std::make_unique<wsn::NescServerApp>())));
    auto& client = static_cast<wsn::NescMote&>(net.add(
        std::make_unique<wsn::NescMote>(1, std::make_unique<wsn::NescClientApp>())));
    fault::FaultPlan plan(31);
    plan.drop(0.25);
    net.inject(std::move(plan));
    net.start();
    net.run_until(30 * kSec);

    // Loss really hit the channel...
    EXPECT_GT(net.packets_dropped, 0u);
    // ...yet the retry protocol kept both directions moving.
    EXPECT_GE(server.rx_count, 8u);
    EXPECT_GE(client.rx_count, 5u);
    EXPECT_GT(net.faults()->injected_drops, 0u);
}

TEST(ProtocolSoak, RunWhileStopsOnProtocolPredicates) {
    // run_while is the soak harness's wait-for-invariant primitive: stop as
    // soon as the server has acked three batches, or give up at the horizon.
    RadioModel radio;
    radio.bidi_link(0, 1, kMs);
    Network net(radio);
    auto& server = static_cast<wsn::NescMote&>(net.add(
        std::make_unique<wsn::NescMote>(0, std::make_unique<wsn::NescServerApp>())));
    net.add(std::make_unique<wsn::NescMote>(1, std::make_unique<wsn::NescClientApp>()));
    net.start();
    Micros stopped = net.run_while(60 * kSec, [&] { return server.rx_count < 3; });
    EXPECT_GE(server.rx_count, 3u);
    EXPECT_LT(stopped, 60 * kSec);  // reached the goal well before the horizon
}

}  // namespace
}  // namespace ceu
