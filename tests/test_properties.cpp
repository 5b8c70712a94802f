// Property tests tying the three pillars of the paper together:
//
//  1. *Soundness of the temporal analysis*: a program the DFA accepts must
//     produce the same observable trace under every legal scheduler
//     serialization (we check FIFO vs LIFO tie-breaking among
//     equal-priority tracks) and for every input script.
//  2. *Meaningfulness of the analysis*: programs the DFA refuses really do
//     diverge under different serializations.
//  3. *The stack policy for internal events* (§2.2) is load-bearing: the
//     queue-policy ablation loses updates (glitches) and re-introduces
//     dataflow cycles on mutual dependencies.
//  4. *Bounded reactions* (§2.5): every reaction chain executes a number of
//     instructions bounded by a static function of the program.
#include <gtest/gtest.h>

#include "demos/demos.hpp"
#include "dfa/dfa.hpp"
#include "env/bindings.hpp"
#include "env/script.hpp"

namespace ceu {
namespace {

using env::Script;
using env::ScriptItem;
using rt::Engine;
using rt::EngineOptions;
using rt::Value;

struct RunResult {
    std::vector<std::string> trace;
    Value result = Value::integer(0);
    Engine::Status status = Engine::Status::Loaded;
    uint64_t max_reaction = 0;
};

RunResult run_with(const flat::CompiledProgram& cp, const Script& script,
                   EngineOptions opt) {
    rt::CBindings bindings = env::make_standard_bindings();
    Engine eng(cp, bindings, opt);
    RunResult r;
    eng.on_trace = [&r](const std::string& line) { r.trace.push_back(line); };
    eng.go_init();
    Micros clock = 0;
    for (const ScriptItem& item : script.items()) {
        if (eng.status() != Engine::Status::Running) break;
        switch (item.kind) {
            case ScriptItem::Kind::Event:
                eng.go_event_by_name(item.event, item.value);
                break;
            case ScriptItem::Kind::Advance:
                clock += item.us;
                eng.go_time(clock);
                break;
            case ScriptItem::Kind::AsyncIdle:
                for (int i = 0; i < 10'000'000 && eng.go_async(); ++i) {}
                break;
            case ScriptItem::Kind::Crash:
                eng.reset();
                eng.go_init();
                break;
        }
    }
    while (eng.status() == Engine::Status::Running && eng.go_async()) {}
    r.result = eng.result();
    r.status = eng.status();
    r.max_reaction = eng.max_reaction_instructions();
    return r;
}

// ---------------------------------------------------------------------------
// 1. DFA-accepted programs are serialization-invariant.
// ---------------------------------------------------------------------------

struct Corpus {
    const char* name;
    const char* source;
    Script script;
};

std::vector<Corpus> corpus() {
    std::vector<Corpus> out;
    out.push_back({"quickstart", demos::kQuickstart,
                   Script().advance(kSec).event("Restart", 7).advance(2 * kSec)});
    out.push_back({"temperature", demos::kTemperature,
                   Script().event("SetCelsius", 100).event("SetFahrenheit", -40)});
    out.push_back({"fanin", R"(
        input void A;
        internal void e, e2;
        int v = 0;
        par do
           loop do await A; emit e; end
        with
           loop do await e; v = v + 1; emit e2; end
        with
           loop do await e2; _trace("obs", v); end
        end
    )",
                   Script().event("A").event("A").event("A")});
    out.push_back({"watchdog", R"(
        input void A, B;
        loop do
           par/or do
              await A; await B; _trace("done"); break;
           with
              await 100ms; _trace("timeout");
           end
        end
        return 0;
    )",
                   Script().advance(350 * kMs).event("A").event("B")});
    out.push_back({"same-event-disjoint", R"(
        input void A, Show;
        int v, w;
        par do
           loop do await A; v = v + 1; end
        with
           loop do await A; w = w + 2; end
        with
           loop do await Show; _trace("v", v, "w", w); end
        end
    )",
                   Script().event("A").event("A").event("Show")});
    out.push_back({"equal-timers-disjoint", R"(
        int v, w;
        par/and do
           await 100ms; v = 1;
        with
           await 100ms; w = 2;
        end
        _trace("v+w", v + w);
        return v + w;
    )",
                   Script().advance(kSec)});
    return out;
}

class SerializationInvariance : public ::testing::TestWithParam<size_t> {};

TEST_P(SerializationInvariance, FifoAndLifoTracesAgree) {
    Corpus c = corpus()[GetParam()];
    flat::CompiledProgram cp = flat::compile(c.source, c.name);

    // Precondition: the temporal analysis accepts the program.
    dfa::Dfa d = dfa::Dfa::build(cp);
    ASSERT_TRUE(d.deterministic()) << c.name << ":\n" << d.report();

    EngineOptions fifo;
    EngineOptions lifo;
    lifo.tie_break = EngineOptions::TieBreak::Lifo;
    RunResult a = run_with(cp, c.script, fifo);
    RunResult b = run_with(cp, c.script, lifo);
    EXPECT_EQ(a.trace, b.trace) << c.name;
    EXPECT_EQ(a.result.as_int(), b.result.as_int()) << c.name;
    EXPECT_EQ(a.status, b.status) << c.name;
}

INSTANTIATE_TEST_SUITE_P(Corpus, SerializationInvariance,
                         ::testing::Range<size_t>(0, corpus().size()),
                         [](const auto& info) {
                             std::string n = corpus()[info.param].name;
                             for (char& ch : n) {
                                 if (ch == '-') ch = '_';
                             }
                             return n;
                         });

// ---------------------------------------------------------------------------
// 2. Refused programs genuinely diverge.
// ---------------------------------------------------------------------------

TEST(Meaningfulness, RefusedProgramDivergesUnderTieBreak) {
    const char* kRace = R"(
        int v;
        par/and do
            v = 1;
        with
            v = 2;
        end
        return v;
    )";
    flat::CompiledProgram cp = flat::compile(kRace);
    ASSERT_FALSE(dfa::Dfa::build(cp).deterministic());

    EngineOptions fifo;
    EngineOptions lifo;
    lifo.tie_break = EngineOptions::TieBreak::Lifo;
    RunResult a = run_with(cp, {}, fifo);
    RunResult b = run_with(cp, {}, lifo);
    // FIFO runs branch 1 then branch 2 (v = 2); LIFO the other way round.
    EXPECT_EQ(a.result.as_int(), 2);
    EXPECT_EQ(b.result.as_int(), 1);
}

TEST(Meaningfulness, RefusedEmitRaceChangesObservations) {
    const char* kEmitRace = R"(
        input void A;
        internal void e;
        int seen = 0;
        par do
           loop do await A; emit e; end
        with
           loop do await A; await e; seen = seen + 1; end
        with
           loop do await e; _trace(seen); end
        end
    )";
    flat::CompiledProgram cp = flat::compile(kEmitRace);
    ASSERT_FALSE(dfa::Dfa::build(cp).deterministic());
    // Whether the second trail's `await e` catches the first trail's emit
    // depends on the serialization; under FIFO trail 1 emits before trail 2
    // reaches its await, so `seen` stays 0 on the first A.
    Script s = Script().event("A").event("A").event("A");
    EngineOptions fifo;
    EngineOptions lifo;
    lifo.tie_break = EngineOptions::TieBreak::Lifo;
    RunResult a = run_with(cp, s, fifo);
    RunResult b = run_with(cp, s, lifo);
    EXPECT_NE(a.trace, b.trace);
}

// ---------------------------------------------------------------------------
// 3. The stack policy is load-bearing (§2.2 ablation).
// ---------------------------------------------------------------------------

TEST(StackPolicyAblation, QueuePolicyLosesSequentialUpdates) {
    const char* kChain = R"(
        int v1, v2;
        internal void v1_evt;
        par do
           loop do
              await v1_evt;
              v2 = v1 + 1;
              _trace(v2);
           end
        with
           v1 = 10;
           emit v1_evt;
           v1 = 15;
           emit v1_evt;
           await forever;
        end
    )";
    flat::CompiledProgram cp = flat::compile(kChain);

    RunResult stack = run_with(cp, {}, EngineOptions{});
    // Paper semantics: each emit fully propagates -> 11 then 16.
    EXPECT_EQ(stack.trace, (std::vector<std::string>{"11", "16"}));

    EngineOptions q;
    q.internal_events = EngineOptions::InternalEvents::Queue;
    RunResult queued = run_with(cp, {}, q);
    // Broadcast-and-continue: the dependent runs after BOTH assignments;
    // the second emit finds the gate already consumed. One update is lost
    // and the intermediate value 11 is never observed — a glitch.
    EXPECT_EQ(queued.trace, (std::vector<std::string>{"16"}));
}

TEST(StackPolicyAblation, QueuePolicyReintroducesDataflowCycles) {
    const char* kMutual = R"(
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
    flat::CompiledProgram cp = flat::compile(kMutual);

    // Paper semantics: converges within one reaction (no cycle).
    RunResult stack = run_with(cp, {}, EngineOptions{});
    EXPECT_EQ(stack.status, Engine::Status::Running);

    // Queue ablation: tc_evt and tf_evt ping-pong forever inside the boot
    // reaction; the engine's budget turns the hang into an error.
    EngineOptions q;
    q.internal_events = EngineOptions::InternalEvents::Queue;
    q.reaction_budget = 100'000;
    rt::CBindings bindings = env::make_standard_bindings();
    Engine eng(cp, bindings, q);
    EXPECT_THROW(eng.go_init(), rt::RuntimeError);
}

// ---------------------------------------------------------------------------
// 4. Bounded reactions (§2.5), measured.
// ---------------------------------------------------------------------------

class BoundedReactions : public ::testing::TestWithParam<size_t> {};

TEST_P(BoundedReactions, ReactionInstructionsStayUnderStaticBound) {
    Corpus c = corpus()[GetParam()];
    flat::CompiledProgram cp = flat::compile(c.source, c.name);
    RunResult r = run_with(cp, c.script, EngineOptions{});
    // A reaction can execute each instruction at most once per trail
    // activation; gates+1 bounds simultaneous activations, and the emit
    // chain re-runs at most once per emit site. A loose static bound:
    uint64_t bound =
        cp.flat.code.size() * (cp.flat.gates.size() + 2) + cp.flat.code.size();
    EXPECT_LE(r.max_reaction, bound) << c.name;
    EXPECT_GT(r.max_reaction, 0u);
}

INSTANTIATE_TEST_SUITE_P(Corpus, BoundedReactions,
                         ::testing::Range<size_t>(0, corpus().size()));

// ---------------------------------------------------------------------------
// 5. Pseudo-random input scripts: determinism end to end.
// ---------------------------------------------------------------------------

class RandomScripts : public ::testing::TestWithParam<uint32_t> {};

TEST_P(RandomScripts, QuickstartIsAPureFunctionOfItsInputs) {
    uint32_t seed = GetParam();
    // xorshift-driven script over {advance, Restart} — the reactive premise
    // says the timings are irrelevant, only the order matters (§2.8).
    auto next = [state = seed]() mutable {
        state ^= state << 13;
        state ^= state >> 17;
        state ^= state << 5;
        return state;
    };
    Script s;
    for (int i = 0; i < 40; ++i) {
        uint32_t r = next();
        if (r % 3 == 0) {
            s.event("Restart", static_cast<int64_t>(r % 100));
        } else {
            s.advance((r % 2000) * kMs);
        }
    }
    flat::CompiledProgram cp = flat::compile(demos::kQuickstart);
    EngineOptions fifo;
    EngineOptions lifo;
    lifo.tie_break = EngineOptions::TieBreak::Lifo;
    RunResult a = run_with(cp, s, fifo);
    RunResult b = run_with(cp, s, fifo);
    RunResult c = run_with(cp, s, lifo);
    EXPECT_EQ(a.trace, b.trace);  // replay
    EXPECT_EQ(a.trace, c.trace);  // serialization invariance
    EXPECT_FALSE(a.trace.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomScripts,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99991u, 0xdeadbeefu));

}  // namespace
}  // namespace ceu
