// Environment-module tests: printf formatting, standard bindings, binding
// composition, the driver's virtual clock, and the timer wheel.
#include <gtest/gtest.h>

#include "codegen/flatten.hpp"
#include "env/bindings.hpp"
#include "host/instance.hpp"
#include "runtime/timerwheel.hpp"

namespace ceu {
namespace {

using env::format_printf;
using rt::TimerWheel;
using rt::Value;

// ---------------------------------------------------------------------------
// format_printf
// ---------------------------------------------------------------------------

TEST(FormatPrintf, BasicDirectives) {
    Value args[] = {Value::integer(42)};
    EXPECT_EQ(format_printf("v = %d", args), "v = 42");
    EXPECT_EQ(format_printf("%d%%", args), "42%");
    Value c[] = {Value::integer('x')};
    EXPECT_EQ(format_printf("char %c", c), "char x");
    Value hex[] = {Value::integer(255)};
    EXPECT_EQ(format_printf("%x", hex), "ff");
}

TEST(FormatPrintf, LengthModifiersAreAccepted) {
    Value args[] = {Value::integer(-7)};
    EXPECT_EQ(format_printf("%ld %lld", std::span<const Value>(args, 1)), "-7 0");
}

TEST(FormatPrintf, StringArguments) {
    Value args[] = {Value::str("hello")};
    EXPECT_EQ(format_printf("say %s", args), "say hello");
}

TEST(FormatPrintf, MissingArgumentsBecomeZero) {
    EXPECT_EQ(format_printf("%d %d", {}), "0 0");
}

// ---------------------------------------------------------------------------
// Standard bindings
// ---------------------------------------------------------------------------

TEST(StandardBindings, PrngIsSeedPure) {
    // Two engines seeded identically must see identical _rand() streams —
    // the property the Mario replay relies on.
    auto run = [] {
        flat::CompiledProgram cp = flat::compile(R"(
            _srand(123);
            int i = 0;
            loop do
               _trace(_rand() % 1000);
               i = i + 1;
               if i == 5 then break; else await 1ms; end
            end
            return 0;
        )");
        host::Instance d(cp);
        d.run(env::Script().advance(10 * kMs));
        return d.trace();
    };
    auto a = run();
    auto b = run();
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.size(), 5u);
    // And not constant.
    EXPECT_NE(a[0], a[1]);
}

TEST(StandardBindings, AssertThrowsOnFailure) {
    flat::CompiledProgram cp = flat::compile("_assert(1 == 2);");
    host::Instance d(cp);
    EXPECT_THROW(d.boot(), rt::RuntimeError);
}

TEST(StandardBindings, AbsWorks) {
    flat::CompiledProgram cp = flat::compile("return _abs(0 - 17);");
    host::Instance d(cp);
    d.run({});
    EXPECT_EQ(d.engine().result().as_int(), 17);
}

TEST(Bindings, MergePrefersTheOverlay) {
    rt::CBindings base;
    base.constant("X", 1);
    base.fn("f", [](rt::Engine&, std::span<const Value>) { return Value::integer(1); });
    rt::CBindings overlay;
    overlay.constant("X", 2);
    base.merge(overlay);
    Value v;
    ASSERT_TRUE(base.get_constant("X", &v));
    EXPECT_EQ(v.as_int(), 2);
    EXPECT_NE(base.find_fn("f"), nullptr);
}

// ---------------------------------------------------------------------------
// Scripts driven through host::Instance
// ---------------------------------------------------------------------------

TEST(Driver, AdvanceAccumulatesTheVirtualClock) {
    flat::CompiledProgram cp = flat::compile("loop do await 1s; _trace(1); end");
    host::Instance d(cp);
    d.run(env::Script().advance(500 * kMs).advance(500 * kMs).advance(kSec));
    EXPECT_EQ(d.clock(), 2 * kSec);
    EXPECT_EQ(d.trace().size(), 2u);
}

TEST(Driver, UnknownScriptEventThrows) {
    flat::CompiledProgram cp = flat::compile("input void A; await A;");
    host::Instance d(cp);
    d.boot();
    EXPECT_THROW(
        d.feed({env::ScriptItem::Kind::Event, "Nope", Value::integer(0), 0}),
        rt::RuntimeError);
}

TEST(Driver, SettleCapThrowsOnRunawayAsync) {
    flat::CompiledProgram cp = flat::compile(R"(
        int r = 0;
        par/or do
           r = async do
              int i = 0;
              loop do i = i + 1; end   // never breaks
              return i;
           end;
        with
           await 1h;
        end
        return r;
    )");
    host::Instance d(cp);
    d.boot();
    EXPECT_THROW(d.settle(/*max_slices=*/100), rt::RuntimeError);
}

// ---------------------------------------------------------------------------
// TimerWheel
// ---------------------------------------------------------------------------

TEST(TimerWheelUnit, PopsEqualDeadlinesTogetherInGateOrder) {
    TimerWheel tw;
    tw.arm(5, 100);
    tw.arm(2, 100);
    tw.arm(7, 200);
    Micros fired = 0;
    auto gates = tw.pop_expired(150, &fired);
    EXPECT_EQ(fired, 100);
    EXPECT_EQ(gates, (std::vector<int>{2, 5}));
    EXPECT_EQ(tw.size(), 1u);
    EXPECT_TRUE(tw.pop_expired(150, &fired).empty());
    gates = tw.pop_expired(250, &fired);
    EXPECT_EQ(gates, (std::vector<int>{7}));
    EXPECT_TRUE(tw.empty());
}

TEST(TimerWheelUnit, NothingExpiresBeforeItsDeadline) {
    TimerWheel tw;
    tw.arm(1, 1000);
    Micros fired = 0;
    EXPECT_TRUE(tw.pop_expired(999, &fired).empty());
    EXPECT_EQ(tw.next_deadline(), 1000);
}

TEST(TimerWheelUnit, DisarmRangeRemovesOnlyThatRange) {
    TimerWheel tw;
    tw.arm(1, 10);
    tw.arm(5, 10);
    tw.arm(9, 10);
    tw.disarm_range(4, 8);  // removes gate 5 only
    Micros fired = 0;
    auto gates = tw.pop_expired(10, &fired);
    EXPECT_EQ(gates, (std::vector<int>{1, 9}));
}

TEST(TimerWheelUnit, ClearEmptiesEverything) {
    TimerWheel tw;
    tw.arm(1, 10);
    tw.clear();
    EXPECT_TRUE(tw.empty());
}

}  // namespace
}  // namespace ceu
