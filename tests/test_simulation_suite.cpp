// In-language simulation suite — the testing style the paper describes in
// §2.8: each case is a self-contained Céu program whose async trail feeds
// the synchronous side its inputs and whose assertions run *inside the
// program* (`_assert`). A case passes when the program terminates with
// `return 1` and no assertion fires. This mirrors how the real Céu
// implementation was tested ("hundreds of programs and test cases").
#include <gtest/gtest.h>

#include "codegen/flatten.hpp"
#include "host/instance.hpp"

namespace ceu {
namespace {

struct SimCase {
    const char* name;
    const char* source;
};

const SimCase kCases[] = {
    {"await_then_terminate", R"(
        input int Go;
        par/or do
           int v = await Go;
           _assert(v == 7);
           return 1;
        with
           async do
              emit Go = 7;
           end
           _assert(0);
        end
    )"},

    {"sequencing_of_emitted_time", R"(
        input void Go;
        par/or do
           await Go;
           int n = 0;
           par/or do
              loop do
                 await 10ms;
                 n = n + 1;
              end
           with
              await 95ms;
              _assert(n == 9);
           end
           return 1;
        with
           async do
              emit Go;
              emit 95ms;
           end
           _assert(0);
        end
    )"},

    {"queued_events_arrive_in_order", R"(
        input int E;
        par/or do
           int a = await E;
           int b = await E;
           int c = await E;
           _assert(a == 1 && b == 2 && c == 3);
           return 1;
        with
           async do
              emit E = 1;
              emit E = 2;
              emit E = 3;
           end
           _assert(0);
        end
    )"},

    {"paror_kills_the_slower_timer", R"(
        input void Go;
        par/or do
           await Go;
           int winner = 0;
           par/or do
              await 50ms;
              await 49ms;
              winner = 1;
           with
              await 100ms;
              winner = 2;
           end
           _assert(winner == 1);
           return 1;
        with
           async do
              emit Go;
              emit 1s;
           end
           _assert(0);
        end
    )"},

    {"parand_requires_both", R"(
        input int A, B;
        par/or do
           int got_a = 0, got_b = 0;
           par/and do
              got_a = await A;
           with
              got_b = await B;
           end
           _assert(got_a == 10 && got_b == 20);
           return 1;
        with
           async do
              emit A = 10;
              emit B = 20;
           end
           _assert(0);
        end
    )"},

    {"internal_chain_within_one_reaction", R"(
        input void Go;
        internal void e1, e2;
        int depth = 0;
        par/or do
           loop do
              await e1;
              depth = depth + 1;
              emit e2;
           end
        with
           loop do
              await e2;
              depth = depth + 1;
           end
        with
           await Go;
           emit e1;
           _assert(depth == 2);
           return 1;
        with
           async do
              emit Go;
           end
           _assert(0);
        end
    )"},

    {"watchdog_restarts_computation", R"(
        input int Data;
        par/or do
           int tries = 0;
           int got = 0;
           loop do
              par/or do
                 got = await Data;
                 break;
              with
                 await 100ms;
                 tries = tries + 1;
              end
           end
           _assert(tries == 3 && got == 5);
           return 1;
        with
           async do
              emit 350ms;
              emit Data = 5;
           end
           _assert(0);
        end
    )"},

    {"loop_break_from_parallel_trail", R"(
        input void Tick, Stop;
        par/or do
           int ticks = 0;
           loop do
              par do
                 await Stop;
                 break;
              with
                 loop do
                    await Tick;
                    ticks = ticks + 1;
                 end
              end
           end
           _assert(ticks == 2);
           return 1;
        with
           async do
              emit Tick;
              emit Tick;
              emit Stop;
           end
           _assert(0);
        end
    )"},

    {"value_par_first_return_wins", R"(
        input void X;
        par/or do
           int v = par do
              await X;
              return 1;
           with
              await 10ms;
              return 2;
           end;
           _assert(v == 2);
           return 1;
        with
           async do
              emit 10ms;   // the timer beats the never-emitted X
           end
           _assert(0);
        end
    )"},

    {"residual_delta_cascade", R"(
        input void Go;
        par/or do
           await Go;
           int order = 0;
           par/and do
              await 10ms;
              await 1ms;   // expired by the time the 10ms is served late
              order = order * 10 + 1;
           with
              await 12ms;
              order = order * 10 + 2;
           end
           _assert(order == 12);
           return 1;
        with
           async do
              emit Go;
              emit 20ms;   // serve everything in one late batch
           end
           _assert(0);
        end
    )"},

    {"async_computation_with_result", R"(
        int sum = async do
           int acc = 0;
           int i = 1;
           loop do
              acc = acc + i;
              if i == 10 then break; else i = i + 1; end
           end
           return acc;
        end;
        _assert(sum == 55);
        return 1;
    )"},

    {"application_switch", R"(
        input int Switch;
        par/or do
           int cur = 1;
           int boots1 = 0, boots2 = 0;
           loop do
              par/or do
                 cur = await Switch;
              with
                 if cur == 1 then
                    boots1 = boots1 + 1;
                 else
                    boots2 = boots2 + 1;
                 end
                 if boots1 == 2 && boots2 == 1 then
                    return 1;
                 end
                 await forever;
              end
           end
        with
           async do
              emit Switch = 2;
              emit Switch = 1;
           end
           _assert(0);
        end
    )"},

    {"event_discarded_when_nobody_awaits", R"(
        input void A;
        input int Check;
        par/or do
           int woke = 0;
           par do
              await A;
              woke = woke + 1;
              await forever;
           with
              loop do
                 int expect = await Check;
                 _assert(woke == expect);
              end
           with
              await 1h;   // keep the program alive
           end
        with
           async do
              emit A;          // wakes the trail (woke = 1)
              emit A;          // nobody awaits: discarded
              emit Check = 1;  // woke must still be 1
           end
           return 1;
        end
    )"},

    {"dataflow_constraint_network", R"(
        input int SetV1;
        int v1, v2, v3;
        internal void v1_evt, v2_evt;
        par/or do
           loop do
              await v1_evt;
              v2 = v1 + 1;
              emit v2_evt;
           end
        with
           loop do
              await v2_evt;
              v3 = v2 * 2;
           end
        with
           loop do
              v1 = await SetV1;
              emit v1_evt;
              _assert(v2 == v1 + 1 && v3 == v2 * 2);
              if v1 == 15 then
                 return 1;
              end
           end
        with
           async do
              emit SetV1 = 10;
              emit SetV1 = 15;
           end
           _assert(0);
        end
    )"},

    {"outputs_in_simulation", R"(
        output int Done;
        input void Go;
        par/or do
           await Go;
           emit Done = 42;   // handled (or traced) by the environment
           return 1;
        with
           async do
              emit Go;
           end
           _assert(0);
        end
    )"},
};

class SimulationSuite : public ::testing::TestWithParam<size_t> {};

TEST_P(SimulationSuite, ProgramValidatesItself) {
    const SimCase& c = kCases[GetParam()];
    flat::CompiledProgram cp = flat::compile(c.source, c.name);
    host::Instance d(cp);
    // The program is entirely self-driving: boot, then let the async
    // environment-generator run to completion.
    ASSERT_NO_THROW(d.run({})) << c.name;
    EXPECT_EQ(d.engine().status(), rt::Engine::Status::Terminated) << c.name;
    EXPECT_EQ(d.engine().result().as_int(), 1) << c.name;
}

INSTANTIATE_TEST_SUITE_P(InLanguage, SimulationSuite,
                         ::testing::Range<size_t>(0, std::size(kCases)),
                         [](const auto& info) {
                             return std::string(kCases[info.param].name);
                         });

TEST(SimulationSuite, ReplayingACaseIsIdempotent) {
    // §2.8: "simulation can be repeated many times, yielding the exact same
    // behavior."
    for (int round = 0; round < 3; ++round) {
        flat::CompiledProgram cp = flat::compile(kCases[1].source);
        host::Instance d(cp);
        d.run({});
        EXPECT_EQ(d.engine().result().as_int(), 1);
    }
}

}  // namespace
}  // namespace ceu
