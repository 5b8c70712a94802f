// Deeper runtime-semantics tests: concurrent par/or terminations (the
// once-guard), kills reaching suspended emitters and running asyncs, value
// do-blocks, C bindings (globals, arrays, fields), and engine lifecycle
// edge cases.
#include <gtest/gtest.h>

#include "codegen/flatten.hpp"
#include "host/instance.hpp"

namespace ceu {
namespace {

using env::Script;
using env::ScriptItem;
using flat::CompiledProgram;
using host::Instance;
using rt::CBindings;
using rt::Engine;
using rt::Value;

void ev(Instance& d, const char* name, int64_t v = 0) {
    d.feed({ScriptItem::Kind::Event, name, Value::integer(v), 0});
}

TEST(RuntimeMore, BothParOrTrailsTerminatingSameReactionRunOnce) {
    // Both branches complete on the same A; the continuation must execute
    // exactly once (paper §2.1: "the program proceeds ... only after all of
    // them execute").
    CompiledProgram cp = flat::compile(R"(
        input void A;
        int n = 0;
        loop do
           par/or do
              await A;
              _trace("b1");
           with
              await A;
              _trace("b2");
           end
           n = n + 1;
           _trace("joined", n);
        end
    )");
    Instance d(cp);
    d.boot();
    ev(d, "A");
    EXPECT_EQ(d.trace(), (std::vector<std::string>{"b1", "b2", "joined 1"}));
    ev(d, "A");
    EXPECT_EQ(d.trace().back(), "joined 2");
}

TEST(RuntimeMore, ValueParWithConcurrentReturnAssignsOnce) {
    CompiledProgram cp = flat::compile(R"(
        input void A;
        int n = 0;
        loop do
           int v = par/or do
              await A;
              return 1;
           with
              await A;
              return 2;
           end;
           n = n + 1;
           _trace("v", v, "n", n);
        end
    )");
    Instance d(cp);
    d.boot();
    ev(d, "A");
    // First escape wins; the continuation (and assignment) runs once.
    EXPECT_EQ(d.trace(), (std::vector<std::string>{"v 1 n 1"}));
}

TEST(RuntimeMore, ParOrKillCancelsSuspendedEmitter) {
    // Trail B emits an internal event; the awakened trail terminates the
    // par/or, killing trail B while it is suspended on the emit stack — it
    // must never resume.
    CompiledProgram cp = flat::compile(R"(
        input void A;
        internal void e;
        par/or do
           await A;
           emit e;
           _trace("emitter resumed?");
        with
           await e;
           _trace("waiter");
        end
        _trace("after");
        return 0;
    )");
    Instance d(cp);
    d.boot();
    ev(d, "A");
    EXPECT_EQ(d.trace(), (std::vector<std::string>{"waiter", "after"}));
    EXPECT_EQ(d.engine().status(), Engine::Status::Terminated);
}

TEST(RuntimeMore, ParOrKillCancelsRunningAsync) {
    CompiledProgram cp = flat::compile(R"(
        int r = 0;
        par/or do
           r = async do
              int i = 0;
              loop do i = i + 1; if i == 1000000 then break; end end
              return i;
           end;
        with
           await 1ms;
           r = -1;
        end
        return r;
    )");
    Instance d(cp);
    d.boot();
    EXPECT_TRUE(d.engine().has_async_work());
    d.engine().go_time(kMs);  // watchdog fires first
    EXPECT_EQ(d.engine().status(), Engine::Status::Terminated);
    EXPECT_EQ(d.engine().result().as_int(), -1);
    // The async context died with its trail.
    EXPECT_FALSE(d.engine().has_async_work());
}

TEST(RuntimeMore, ValueDoBlockReturns) {
    CompiledProgram cp = flat::compile(R"(
        int v = do
           int a = 40;
           return a + 2;
        end;
        return v;
    )");
    Instance d(cp);
    d.run({});
    EXPECT_EQ(d.engine().result().as_int(), 42);
}

TEST(RuntimeMore, ValueDoBlockWithAwait) {
    CompiledProgram cp = flat::compile(R"(
        input int A;
        int v = do
           int a = await A;
           return a * 2;
        end;
        return v;
    )");
    Instance d(cp);
    d.boot();
    ev(d, "A", 21);
    EXPECT_EQ(d.engine().result().as_int(), 42);
}

TEST(RuntimeMore, NestedLoopsWithBreaks) {
    CompiledProgram cp = flat::compile(R"(
        input void A;
        int outer = 0, inner = 0;
        loop do
           loop do
              await A;
              inner = inner + 1;
              if inner % 3 == 0 then break; end
           end
           outer = outer + 1;
           _trace("outer", outer);
           if outer == 2 then break; end
        end
        return inner;
    )");
    Instance d(cp);
    d.boot();
    for (int i = 0; i < 6; ++i) ev(d, "A");
    EXPECT_EQ(d.engine().status(), Engine::Status::Terminated);
    EXPECT_EQ(d.engine().result().as_int(), 6);
    EXPECT_EQ(d.trace(), (std::vector<std::string>{"outer 1", "outer 2"}));
}

TEST(RuntimeMore, CGlobalsAreReadableAndWritable) {
    CompiledProgram cp = flat::compile(R"(
        _counter = _counter + 5;
        return _counter;
    )");
    int64_t counter = 10;
    CBindings extra;
    extra.global("counter", &counter);
    Instance d(cp, {.bindings = &extra});
    d.run({});
    EXPECT_EQ(d.engine().result().as_int(), 15);
    EXPECT_EQ(counter, 15);
}

TEST(RuntimeMore, CArraysReadAndWrite) {
    CompiledProgram cp = flat::compile(R"(
        _GRID[1][2] = 7;
        return _GRID[1][2] + _GRID[0][0];
    )");
    int64_t grid[2][3] = {{3, 0, 0}, {0, 0, 0}};
    CBindings extra;
    extra.array(
        "GRID",
        [&grid](std::span<const int64_t> idx) {
            return Value::integer(grid[idx[0]][idx[1]]);
        },
        [&grid](std::span<const int64_t> idx, Value v) {
            grid[idx[0]][idx[1]] = v.as_int();
        });
    Instance d(cp, {.bindings = &extra});
    d.run({});
    EXPECT_EQ(d.engine().result().as_int(), 10);
    EXPECT_EQ(grid[1][2], 7);
}

TEST(RuntimeMore, ReadOnlyCArrayRejectsWrites) {
    CompiledProgram cp = flat::compile("_RO[0] = 1;");
    CBindings extra;
    extra.array("RO", [](std::span<const int64_t>) { return Value::integer(0); });
    Instance d(cp, {.bindings = &extra});
    EXPECT_THROW(d.boot(), rt::RuntimeError);
}

TEST(RuntimeMore, FieldAccessorOnCTypedVariable) {
    CompiledProgram cp = flat::compile(R"(
        _SDL_Event event;
        _fill(&event);
        if event.type == 2 then
           _trace("keydown");
        end
        return event.type;
    )");
    CBindings extra;
    extra.fn("fill", [](Engine&, std::span<const Value> args) {
        *args[0].p = 2;
        return Value::integer(0);
    });
    extra.fn("SDL_Event.type", [](Engine&, std::span<const Value> args) {
        return Value::integer(*args[0].p);
    });
    Instance d(cp, {.bindings = &extra});
    d.run({});
    EXPECT_EQ(d.engine().result().as_int(), 2);
    EXPECT_EQ(d.trace(), (std::vector<std::string>{"keydown"}));
}

TEST(RuntimeMore, CastAndSizeof) {
    CompiledProgram cp = flat::compile(R"(
        int a = <int> 300;
        int b = sizeof<int>;
        int c = sizeof<int*>;
        return a + b + c;
    )");
    Instance d(cp);
    d.run({});
    EXPECT_EQ(d.engine().result().as_int(), 300 + 4 + 8);
}

TEST(RuntimeMore, ShortCircuitEvaluation) {
    CompiledProgram cp = flat::compile(R"(
        int calls = 0;
        int r1 = 0 && _bump();
        int r2 = 1 || _bump();
        int r3 = 1 && _bump();
        return calls * 100 + r1 * 10 + r2 + r3;
    )");
    CBindings extra;
    // `calls` is a Céu variable; expose a bump through a C global instead.
    int64_t bumps = 0;
    extra.fn("bump", [&bumps](Engine&, std::span<const Value>) {
        ++bumps;
        return Value::integer(1);
    });
    Instance d(cp, {.bindings = &extra});
    d.run({});
    EXPECT_EQ(bumps, 1);  // only the `1 && _bump()` evaluated the call
    EXPECT_EQ(d.engine().result().as_int(), 0 * 100 + 0 * 10 + 1 + 1);
}

TEST(RuntimeMore, EngineRefusesInputAfterTermination) {
    CompiledProgram cp = flat::compile("return 1;");
    Instance d(cp);
    d.boot();
    EXPECT_EQ(d.engine().status(), Engine::Status::Terminated);
    d.engine().go_event(0, Value::integer(0));
    d.engine().go_time(kSec);
    EXPECT_FALSE(d.engine().go_async());
    EXPECT_EQ(d.engine().result().as_int(), 1);
}

TEST(RuntimeMore, AwaitTimeAsValueYieldsResidualDelta) {
    // `v = await 10ms` wakes with the residual delta (how late the timer
    // was served) — the quantity §2.3 reasons about.
    CompiledProgram cp = flat::compile(R"(
        int delta = await 10ms;
        return delta;
    )");
    Instance d(cp);
    d.boot();
    d.engine().go_time(15 * kMs);
    EXPECT_EQ(d.engine().result().as_int(), 5 * kMs);
}

TEST(RuntimeMore, ThreeLevelEscapeKillsEverythingInBetween) {
    CompiledProgram cp = flat::compile(R"(
        input void A, B;
        loop do
           par do
              par do
                 await A;
                 _trace("breaking");
                 break;
              with
                 loop do await B; _trace("inner-b"); end
              end
           with
              loop do await B; _trace("outer-b"); end
           end
        end
        _trace("done");
        return 0;
    )");
    Instance d(cp);
    d.boot();
    ev(d, "B");
    EXPECT_EQ(d.trace(), (std::vector<std::string>{"inner-b", "outer-b"}));
    ev(d, "A");
    EXPECT_EQ(d.engine().status(), Engine::Status::Terminated);
    EXPECT_EQ(d.trace().back(), "done");
    ev(d, "B");  // everything is dead
    EXPECT_EQ(d.trace().back(), "done");
}

TEST(RuntimeMore, DynamicAwaitDurations) {
    CompiledProgram cp = flat::compile(R"(
        int dt = 500;
        int steps = 0;
        loop do
           await (dt * 1000);
           steps = steps + 1;
           dt = dt - 100;
           if dt == 0 then break; end
        end
        return steps;
    )");
    Instance d(cp);
    d.boot();
    // 500 + 400 + 300 + 200 + 100 ms = 1.5s total.
    d.engine().go_time(1499 * kMs);
    EXPECT_EQ(d.engine().status(), Engine::Status::Running);
    d.engine().go_time(1500 * kMs);
    EXPECT_EQ(d.engine().status(), Engine::Status::Terminated);
    EXPECT_EQ(d.engine().result().as_int(), 5);
}

TEST(RuntimeMore, EmitValueReachesAllAwaitingTrails) {
    CompiledProgram cp = flat::compile(R"(
        input void Go;
        internal int data;
        par do
           loop do
              int a = await data;
              _trace("t1", a);
           end
        with
           loop do
              int b = await data;
              _trace("t2", b);
           end
        with
           loop do
              await Go;
              emit data = 42;
           end
        end
    )");
    Instance d(cp);
    d.boot();
    ev(d, "Go");
    EXPECT_EQ(d.trace(), (std::vector<std::string>{"t1 42", "t2 42"}));
}

TEST(RuntimeMore, ReentrantApiUseIsRefused) {
    // Paper §5: bindings must never interleave the API entry points. A C
    // binding that calls back into go_event mid-reaction is an error.
    CompiledProgram cp = flat::compile(R"(
        input void A;
        par do
           loop do await A; _trace("a"); end
        with
           loop do await 1s; _reenter(); end
        end
    )");
    CBindings extra;
    extra.fn("reenter", [&cp](Engine& eng, std::span<const Value>) {
        eng.go_event(cp.sema.input_id("A"), Value::integer(0));
        return Value::integer(0);
    });
    Instance d(cp, {.bindings = &extra});
    d.boot();
    EXPECT_THROW(d.engine().go_time(kSec), rt::RuntimeError);
}

TEST(RuntimeMore, CBlocksDoNotAffectInterpretation) {
    CompiledProgram cp = flat::compile(R"(
        C do
        int this_is_only_for_the_c_backend = 1;
        end
        return 5;
    )");
    Instance d(cp);
    d.run({});
    EXPECT_EQ(d.engine().result().as_int(), 5);
    ASSERT_EQ(cp.sema.c_blocks.size(), 1u);
}

}  // namespace
}  // namespace ceu
