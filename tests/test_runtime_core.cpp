// Runtime semantics tests: the execution model of §2, exercised through the
// paper's own example programs. Each test encodes the behavior the paper
// narrates (reaction boundaries, event discarding, the internal-event stack
// walkthrough, residual timer deltas, async scheduling, ...).
#include <gtest/gtest.h>

#include "codegen/flatten.hpp"
#include "host/instance.hpp"

namespace ceu {
namespace {

using env::Script;
using flat::CompiledProgram;
using host::Instance;
using rt::Engine;
using rt::Value;

TEST(Runtime, StraightLineProgramTerminatesWithResult) {
    CompiledProgram cp = flat::compile("int v = 40; v = v + 2; return v;");
    Instance d(cp);
    d.run({});
    EXPECT_EQ(d.engine().status(), Engine::Status::Terminated);
    EXPECT_EQ(d.engine().result().as_int(), 42);
}

TEST(Runtime, QuickstartCounterExample) {
    // The three-trail example from §2.
    CompiledProgram cp = flat::compile(R"(
        input int Restart;
        internal void changed;
        int v = 0;
        par do
           loop do
              await 1s;
              v = v + 1;
              emit changed;
           end
        with
           loop do
              v = await Restart;
              emit changed;
           end
        with
           loop do
              await changed;
              _printf("v = %d\n", v);
           end
        end
    )");
    Instance d(cp);
    d.run(Script().advance(kSec).advance(kSec).event("Restart", 10).advance(kSec));
    EXPECT_EQ(d.trace(), (std::vector<std::string>{"v = 1", "v = 2", "v = 10", "v = 11"}));
    EXPECT_EQ(d.engine().status(), Engine::Status::Running);
}

TEST(Runtime, AwaitInLoopNeverMissesAnOccurrence) {
    Instance d("input void A; loop do await A; _trace(1); end");
    d.run(Script().event("A").event("A").event("A"));
    EXPECT_EQ(d.trace().size(), 3u);
}

TEST(Runtime, InterveningTimeAwaitCanMissOccurrences) {
    // §2's two-variation example: with `await 1us` between awaits, an A
    // arriving during that microsecond is simply discarded.
    CompiledProgram cp = flat::compile(
        "input void A; loop do await A; await 1us; _trace(1); end");
    Instance d(cp);
    d.run(Script().event("A").event("A").advance(kMs));
    EXPECT_EQ(d.trace().size(), 1u);  // the 2nd A fell into the 1us window
    d.feed({env::ScriptItem::Kind::Event, "A", Value::integer(0), 0});
    d.feed({env::ScriptItem::Kind::Advance, "", Value::integer(0), kMs});
    EXPECT_EQ(d.trace().size(), 2u);
}

TEST(Runtime, Figure1ReactionChains) {
    // Figure 1: boot splits into three trails; A wakes trails 1 and 3; a
    // second A finds nobody awaiting (discarded); B wakes trail 2 and the
    // continuation of trail 3; then no trail awaits -> program over. The
    // enqueued C is never reacted to.
    CompiledProgram cp = flat::compile(R"(
        input void A, B, C;
        par do
           await A; _trace("t1");
        with
           await B; _trace("t2");
        with
           await A; _trace("t3a");
           await B; _trace("t3b");
        end
    )");
    Instance d(cp);
    d.boot();
    auto ev = [&](const char* name) {
        d.feed({env::ScriptItem::Kind::Event, name, Value::integer(0), 0});
    };
    ev("A");
    EXPECT_EQ(d.trace(), (std::vector<std::string>{"t1", "t3a"}));
    ev("A");  // discarded
    EXPECT_EQ(d.trace().size(), 2u);
    EXPECT_EQ(d.engine().status(), Engine::Status::Running);
    ev("B");
    EXPECT_EQ(d.trace(), (std::vector<std::string>{"t1", "t3a", "t2", "t3b"}));
    EXPECT_EQ(d.engine().status(), Engine::Status::Terminated);
    ev("C");  // no effect after termination
    EXPECT_EQ(d.trace().size(), 4u);
}

TEST(Runtime, InternalEventStackWalkthrough) {
    // §2.2's numbered step list, traced: v1=10 propagates v2=11, v3=22
    // within the same reaction; then v1=15 propagates v2=16, v3=32.
    CompiledProgram cp = flat::compile(R"(
        int v1, v2, v3;
        internal void v1_evt, v2_evt, v3_evt;
        par do
           loop do
              await v1_evt;
              v2 = v1 + 1;
              _trace("v2", v2);
              emit v2_evt;
           end
        with
           loop do
              await v2_evt;
              v3 = v2 * 2;
              _trace("v3", v3);
              emit v3_evt;
           end
        with
           v1 = 10;
           emit v1_evt;
           v1 = 15;
           emit v1_evt;
           await forever;
        end
    )");
    Instance d(cp);
    d.boot();
    EXPECT_EQ(d.trace(), (std::vector<std::string>{"v2 11", "v3 22", "v2 16", "v3 32"}));
    // All of it happened inside the single boot reaction chain.
    EXPECT_EQ(d.engine().reactions(), 1u);
}

TEST(Runtime, MutualDependencyHasNoRuntimeCycle) {
    // §2.2 Celsius/Fahrenheit: emitting tc_evt updates tf and emits tf_evt;
    // the first trail is halted (not yet re-awaiting), so no cycle occurs.
    CompiledProgram cp = flat::compile(R"(
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
           _trace("tc", tc, "tf", tf);
           tf = 32;
           emit tf_evt;
           _trace("tc", tc, "tf", tf);
           await forever;
        end
    )");
    Instance d(cp);
    d.boot();
    EXPECT_EQ(d.trace(),
              (std::vector<std::string>{"tc 100 tf 212", "tc 0 tf 32"}));
}

TEST(Runtime, ResidualDeltaCompensation) {
    // §2.3: a 10ms timer served 5ms late leaves delta=5ms; the following
    // 1ms await has already expired and fires in the same go_time call.
    CompiledProgram cp = flat::compile(R"(
        int v;
        await 10ms;
        v = 1;
        await 1ms;
        v = 2;
        return v;
    )");
    Instance d(cp);
    d.boot();
    d.engine().go_time(15 * kMs);
    EXPECT_EQ(d.engine().status(), Engine::Status::Terminated);
    EXPECT_EQ(d.engine().result().as_int(), 2);
    // boot + one reaction per deadline (10ms, 11ms)
    EXPECT_EQ(d.engine().reactions(), 3u);
}

TEST(Runtime, SequentialTimersDoNotAccumulateDrift) {
    // 10 iterations of `await 10ms` under a jittery clock still complete at
    // logical 100ms: deltas never accumulate.
    CompiledProgram cp = flat::compile(
        "int n = 0; loop do await 10ms; n = n + 1; if n == 10 then break; end end\n"
        "return n;");
    Instance d(cp);
    d.boot();
    // Serve the timers in two very late batches.
    d.engine().go_time(57 * kMs);   // fires 10..50ms deadlines
    EXPECT_EQ(d.engine().status(), Engine::Status::Running);
    d.engine().go_time(103 * kMs);  // fires 60..100ms deadlines
    EXPECT_EQ(d.engine().status(), Engine::Status::Terminated);
    EXPECT_EQ(d.engine().result().as_int(), 10);
}

TEST(Runtime, TimeIsAPhysicalQuantity5049Before100) {
    // §2.3: 50ms+49ms terminates strictly before 100ms.
    CompiledProgram cp = flat::compile(R"(
        int v;
        par/or do
            await 50ms;
            await 49ms;
            v = 1;
        with
            await 100ms;
            v = 2;
        end
        return v;
    )");
    Instance d(cp);
    d.run(Script().advance(200 * kMs));
    EXPECT_EQ(d.engine().result().as_int(), 1);
}

TEST(Runtime, EqualDeadlinesExpireInTheSameReaction) {
    CompiledProgram cp = flat::compile(R"(
        par/and do
            await 50ms;
            await 50ms;
            _trace("a");
        with
            await 100ms;
            _trace("b");
        end
        return 0;
    )");
    Instance d(cp);
    d.boot();
    uint64_t before = d.engine().reactions();
    d.engine().go_time(100 * kMs);
    // 50ms fires alone; 100ms group fires both trails together.
    EXPECT_EQ(d.engine().reactions() - before, 2u);
    EXPECT_EQ(d.trace(), (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(d.engine().status(), Engine::Status::Terminated);
}

TEST(Runtime, ParAndRejoinsAfterAllBranches) {
    CompiledProgram cp = flat::compile(R"(
        input void A, B;
        par/and do
            await A;
        with
            await B;
        end
        _trace("joined");
        return 1;
    )");
    Instance d(cp);
    d.boot();
    d.feed({env::ScriptItem::Kind::Event, "A", Value::integer(0), 0});
    EXPECT_TRUE(d.trace().empty());
    d.feed({env::ScriptItem::Kind::Event, "B", Value::integer(0), 0});
    EXPECT_EQ(d.trace(), (std::vector<std::string>{"joined"}));
    EXPECT_EQ(d.engine().status(), Engine::Status::Terminated);
}

TEST(Runtime, ParOrKillsSiblingTrails) {
    CompiledProgram cp = flat::compile(R"(
        input void A, B;
        par/or do
            await A; _trace("a");
        with
            await B; _trace("b");
        end
        _trace("after");
        return 0;
    )");
    Instance d(cp);
    d.boot();
    d.feed({env::ScriptItem::Kind::Event, "A", Value::integer(0), 0});
    EXPECT_EQ(d.trace(), (std::vector<std::string>{"a", "after"}));
    EXPECT_EQ(d.engine().status(), Engine::Status::Terminated);
}

TEST(Runtime, WatchdogArchetype) {
    // §2.1's watchdog: restart a computation that overruns 100ms.
    CompiledProgram cp = flat::compile(R"(
        input void A, B;
        loop do
           par/or do
              await A;
              await B;
              _trace("done");
              break;
           with
              await 100ms;
              _trace("timeout");
           end
        end
        return 0;
    )");
    Instance d(cp);
    d.boot();
    d.feed({env::ScriptItem::Kind::Advance, "", Value::integer(0), 150 * kMs});
    EXPECT_EQ(d.trace(), (std::vector<std::string>{"timeout"}));
    d.feed({env::ScriptItem::Kind::Event, "A", Value::integer(0), 0});
    d.feed({env::ScriptItem::Kind::Event, "B", Value::integer(0), 0});
    EXPECT_EQ(d.trace(), (std::vector<std::string>{"timeout", "done"}));
    EXPECT_EQ(d.engine().status(), Engine::Status::Terminated);
}

TEST(Runtime, SamplingArchetypeRunsAtMinimumPeriod) {
    CompiledProgram cp = flat::compile(R"(
        loop do
           par/and do
              _trace("sample");
           with
              await 100ms;
           end
        end
    )");
    Instance d(cp);
    d.boot();
    EXPECT_EQ(d.trace().size(), 1u);  // immediate first sample
    d.engine().go_time(350 * kMs);
    EXPECT_EQ(d.trace().size(), 4u);  // + samples at 100,200,300ms
}

TEST(Runtime, ValueParReturnsFromEitherTrail) {
    CompiledProgram cp = flat::compile(R"(
        input void Key;
        internal void collision;
        par do
           loop do
              int v =
                 par do
                    await Key;
                    return 1;
                 with
                    await collision;
                    return 0;
                 end;
              _trace("v", v);
           end
        with
           await Key;   // same occurrence also reaches the inner par
           await forever;
        end
    )");
    Instance d(cp);
    d.boot();
    d.feed({env::ScriptItem::Kind::Event, "Key", Value::integer(0), 0});
    EXPECT_EQ(d.trace(), (std::vector<std::string>{"v 1"}));
}

TEST(Runtime, BreakEscapesFromAParallelTrail) {
    // §2.1: loops with nested parallels may escape from different trails.
    CompiledProgram cp = flat::compile(R"(
        input void A, B;
        loop do
           par do
              await A; _trace("a"); break;
           with
              loop do await B; _trace("b"); end
           end
        end
        _trace("out");
        return 0;
    )");
    Instance d(cp);
    d.boot();
    auto ev = [&](const char* name) {
        d.feed({env::ScriptItem::Kind::Event, name, Value::integer(0), 0});
    };
    ev("B");
    ev("B");
    ev("A");
    EXPECT_EQ(d.trace(), (std::vector<std::string>{"b", "b", "a", "out"}));
    EXPECT_EQ(d.engine().status(), Engine::Status::Terminated);
    ev("B");
    EXPECT_EQ(d.trace().size(), 4u);
}

TEST(Runtime, GuidingExampleFromSection4) {
    CompiledProgram cp = flat::compile(R"(
        input int A, B, C;
        int ret;
        loop do
           par/or do
              int a = await A;
              int b = await B;
              ret = a + b;
              break;
           with
              par/and do
                 await C;
              with
                 await A;
              end
           end
        end
        return ret;
    )");
    Instance d(cp);
    d.boot();
    d.feed({env::ScriptItem::Kind::Event, "A", Value::integer(3), 0});
    EXPECT_EQ(d.engine().status(), Engine::Status::Running);
    d.feed({env::ScriptItem::Kind::Event, "B", Value::integer(4), 0});
    EXPECT_EQ(d.engine().status(), Engine::Status::Terminated);
    EXPECT_EQ(d.engine().result().as_int(), 7);
}

TEST(Runtime, AsyncArithmeticProgressionWithWatchdog) {
    const char* kSource = R"(
        int ret;
        par/or do
           ret = async do
              int sum = 0;
              int i = 1;
              loop do
                 sum = sum + i;
                 if i == 100 then
                    break;
                 else
                    i = i + 1;
                 end
              end
              return sum;
           end;
        with
           await 10ms;
           ret = 0;
        end
        return ret;
    )";
    {
        // Asyncs get to run: the sum completes.
        CompiledProgram cp = flat::compile(kSource);
        Instance d(cp);
        d.run({});
        EXPECT_EQ(d.engine().status(), Engine::Status::Terminated);
        EXPECT_EQ(d.engine().result().as_int(), 5050);
    }
    {
        // The watchdog fires before the async is ever scheduled.
        CompiledProgram cp = flat::compile(kSource);
        Instance d(cp);
        d.boot();
        d.engine().go_time(10 * kMs);
        EXPECT_EQ(d.engine().status(), Engine::Status::Terminated);
        EXPECT_EQ(d.engine().result().as_int(), 0);
    }
}

TEST(Runtime, AsyncsRunRoundRobin) {
    CompiledProgram cp = flat::compile(R"(
        int r1, r2;
        par/and do
           r1 = async do
              int i = 0;
              loop do
                 _trace("a");
                 i = i + 1;
                 if i == 3 then break; end
              end
              return i;
           end;
        with
           r2 = async do
              int j = 0;
              loop do
                 _trace("b");
                 j = j + 1;
                 if j == 3 then break; end
              end
              return j;
           end;
        end
        return r1 + r2;
    )");
    Instance d(cp);
    d.run({});
    EXPECT_EQ(d.engine().result().as_int(), 6);
    // Round-robin: slices alternate a/b deterministically.
    EXPECT_EQ(d.trace(), (std::vector<std::string>{"a", "b", "a", "b", "a", "b"}));
}

TEST(Runtime, SimulationExampleFromSection28) {
    // The paper's §2.8 walkthrough: Start=10, then 1h35min of virtual time;
    // the loop iterates 9 times (v: 10 -> 19); _assert(v==19) passes and
    // both par/ors terminate before the `_assert(0)` line is reached.
    CompiledProgram cp = flat::compile(R"(
        input int Start;
        par/or do
           do
              int v = await Start;
              par/or do
                 loop do
                    await 10min;
                    v = v + 1;
                 end
              with
                 await 1h35min;
                 _assert(v == 19);
                 _trace("ok");
              end
           end
        with
           async do
              emit Start = 10;
              emit 1h35min;
           end
           _assert(0);
        end
    )");
    Instance d(cp);
    EXPECT_NO_THROW(d.run({}));
    EXPECT_EQ(d.trace(), (std::vector<std::string>{"ok"}));
    EXPECT_EQ(d.engine().status(), Engine::Status::Terminated);
}

TEST(Runtime, ApplicationSwitchPattern) {
    // §3.1's app-switch composition: a Switch occurrence kills the running
    // application and restarts as the requested one.
    CompiledProgram cp = flat::compile(R"(
        input int Switch;
        int cur_app = 1;
        loop do
           par/or do
              cur_app = await Switch;
           with
              if cur_app == 1 then
                 _trace("app1");
              end
              if cur_app == 2 then
                 _trace("app2");
              end
              await forever;
           end
        end
    )");
    Instance d(cp);
    d.boot();
    EXPECT_EQ(d.trace(), (std::vector<std::string>{"app1"}));
    d.feed({env::ScriptItem::Kind::Event, "Switch", Value::integer(2), 0});
    EXPECT_EQ(d.trace(), (std::vector<std::string>{"app1", "app2"}));
    d.feed({env::ScriptItem::Kind::Event, "Switch", Value::integer(1), 0});
    EXPECT_EQ(d.trace(), (std::vector<std::string>{"app1", "app2", "app1"}));
}

TEST(Runtime, EmitWithNoAwaitersIsDiscardedInline) {
    CompiledProgram cp = flat::compile(R"(
        internal void e;
        emit e;
        _trace("still here");
        return 7;
    )");
    Instance d(cp);
    d.boot();
    EXPECT_EQ(d.trace(), (std::vector<std::string>{"still here"}));
    EXPECT_EQ(d.engine().result().as_int(), 7);
}

TEST(Runtime, UnboundCSymbolRaisesRuntimeError) {
    CompiledProgram cp = flat::compile("_no_such_function();");
    Instance d(cp);
    EXPECT_THROW(d.boot(), rt::RuntimeError);
}

TEST(Runtime, DivisionByZeroRaisesRuntimeError) {
    CompiledProgram cp = flat::compile("int v = 0; int w = 1 / v; return w;");
    Instance d(cp);
    EXPECT_THROW(d.boot(), rt::RuntimeError);
}

TEST(Runtime, ArrayIndexOutOfBoundsRaises) {
    CompiledProgram cp = flat::compile("int[4] a; a[4] = 1; return 0;");
    Instance d(cp);
    EXPECT_THROW(d.boot(), rt::RuntimeError);
}

TEST(Runtime, ArraysAndIndexing) {
    CompiledProgram cp = flat::compile(R"(
        int[5] a;
        int i = 0;
        loop do
           a[i] = i * i;
           i = i + 1;
           if i == 5 then break; else await 1ms; end
        end
        return a[0] + a[1] + a[2] + a[3] + a[4];
    )");
    Instance d(cp);
    d.run(Script().advance(10 * kMs));
    EXPECT_EQ(d.engine().result().as_int(), 0 + 1 + 4 + 9 + 16);
}

TEST(Runtime, PointersIntoSlots) {
    CompiledProgram cp = flat::compile(R"(
        int v = 5;
        int* p = &v;
        *p = *p + 10;
        return v;
    )");
    Instance d(cp);
    d.run({});
    EXPECT_EQ(d.engine().result().as_int(), 15);
}

TEST(Runtime, DeterministicReplay) {
    // The reactive premise (§2.8): identical input sequences produce
    // identical traces.
    const char* kSource = R"(
        input int Restart;
        internal void changed;
        int v = 0;
        par do
           loop do await 1s; v = v + 1; emit changed; end
        with
           loop do v = await Restart; emit changed; end
        with
           loop do await changed; _trace(v); end
        end
    )";
    Script script;
    script.advance(kSec).event("Restart", 5).advance(2 * kSec).event("Restart", 0);
    Instance a(kSource);
    Instance b(kSource);
    a.run(script);
    b.run(script);
    EXPECT_EQ(a.trace(), b.trace());
    EXPECT_FALSE(a.trace().empty());
}

TEST(Runtime, VarInspectionAndRamModel) {
    CompiledProgram cp = flat::compile("int v = 3; await forever;");
    Instance d(cp);
    d.boot();
    auto v = d.engine().var("v");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->as_int(), 3);
    EXPECT_GT(d.engine().ram_model_bytes(), 0u);
    EXPECT_EQ(d.engine().active_gate_count(), 1);
}

}  // namespace
}  // namespace ceu
