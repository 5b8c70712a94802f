// Output events — the extension the paper sketches as future work
// ("Multiple processes", §7): `output int O` lets a program notify its
// environment with `emit O = v`, the dual of input events. Covers sema
// rules, runtime dispatch, temporal analysis, and the C backend hook.
#include <gtest/gtest.h>

#include "cgen/cgen.hpp"
#include "dfa/dfa.hpp"
#include "host/instance.hpp"

namespace ceu {
namespace {

using env::Script;
using host::Instance;
using rt::CBindings;
using rt::Engine;
using rt::Value;

TEST(Outputs, EmitInvokesTheRegisteredHandler) {
    flat::CompiledProgram cp = flat::compile(R"(
        output int Led;
        input void A;
        int n = 0;
        loop do
           await A;
           n = n + 1;
           emit Led = n;
        end
    )");
    std::vector<int64_t> led;
    CBindings extra;
    extra.output("Led", [&led](Engine&, Value v) { led.push_back(v.as_int()); });
    Instance d(cp, {.bindings = &extra});
    d.boot();
    d.feed({env::ScriptItem::Kind::Event, "A", Value::integer(0), 0});
    d.feed({env::ScriptItem::Kind::Event, "A", Value::integer(0), 0});
    EXPECT_EQ(led, (std::vector<int64_t>{1, 2}));
}

TEST(Outputs, UnhandledOutputIsTraced) {
    flat::CompiledProgram cp = flat::compile("output int O; emit O = 9; return 0;");
    Instance d(cp);
    d.run({});
    EXPECT_EQ(d.trace(), (std::vector<std::string>{"output O = 9"}));
}

TEST(Outputs, VoidOutputsCarryNoValue) {
    flat::CompiledProgram cp = flat::compile("output void Ping; emit Ping; return 0;");
    int pings = 0;
    CBindings extra;
    extra.output("Ping", [&pings](Engine&, Value) { ++pings; });
    Instance d(cp, {.bindings = &extra});
    d.run({});
    EXPECT_EQ(pings, 1);

    Diagnostics diags;
    flat::CompiledProgram bad;
    EXPECT_FALSE(flat::compile_checked("output void P; emit P = 1;", &bad, diags));
    EXPECT_TRUE(diags.contains("void but an emit value was given"));
}

TEST(Outputs, AsyncsCannotEmitOutputs) {
    Diagnostics diags;
    flat::CompiledProgram cp;
    EXPECT_FALSE(flat::compile_checked(
        "output int O; int r; r = async do emit O = 1; return 1; end;", &cp, diags));
    EXPECT_TRUE(diags.contains("async blocks cannot emit output events"));
}

TEST(Outputs, RedeclarationAgainstInputsIsRefused) {
    Diagnostics diags;
    flat::CompiledProgram cp;
    EXPECT_FALSE(flat::compile_checked("input int E; output int E;", &cp, diags));
    EXPECT_TRUE(diags.contains("redeclared"));
}

TEST(Outputs, SequentialEmitsAreDeterministic) {
    flat::CompiledProgram cp = flat::compile(R"(
        output int O;
        input void A, B;
        par do
           loop do await A; emit O = 1; end
        with
           loop do await B; emit O = 2; end
        end
    )");
    dfa::Dfa d = dfa::Dfa::build(cp);
    EXPECT_TRUE(d.deterministic()) << d.report();
}

TEST(Outputs, ConcurrentEmitsOfOneOutputAreRefused) {
    // Two trails awakened by the same event emit the same output: the order
    // seen by the environment is unspecified -> refused, like C calls.
    flat::CompiledProgram cp = flat::compile(R"(
        output int O;
        input void A;
        par do
           loop do await A; emit O = 1; end
        with
           loop do await A; emit O = 2; end
        end
    )");
    dfa::Dfa d = dfa::Dfa::build(cp);
    EXPECT_FALSE(d.deterministic());
    bool found = false;
    for (const auto& c : d.conflicts()) {
        if (c.kind == dfa::Conflict::Kind::CCall &&
            c.what.find("O") != std::string::npos) {
            found = true;
        }
    }
    EXPECT_TRUE(found) << d.report();
}

TEST(Outputs, DeterministicAnnotationAllowsConcurrentEmits) {
    // Outputs share the C-call annotation registry under the event's name:
    // declaring the emission order irrelevant admits the program.
    flat::CompiledProgram cp = flat::compile(R"(
        output int O;
        deterministic _O, _O;
        input void A;
        par do
           loop do await A; emit O = 1; end
        with
           loop do await A; emit O = 2; end
        end
    )");
    dfa::Dfa d = dfa::Dfa::build(cp);
    EXPECT_TRUE(d.deterministic()) << d.report();
}

TEST(Outputs, CgenEmitsTheHook) {
    flat::CompiledProgram cp = flat::compile("output int Led; emit Led = 3; return 0;");
    std::string c = cgen::emit_c(cp);
    EXPECT_NE(c.find("void ceu_output_Led(int64_t v)"), std::string::npos);
    EXPECT_NE(c.find("ceu_output_Led(INT64_C(3))"), std::string::npos);
}

TEST(Outputs, BlinkTwoLedsViaOutputs) {
    // The §6 blink experiment expressed with the extension: outputs instead
    // of raw C calls. Both outputs fire in the same reaction at the 2s
    // joints (emissions within one reaction are causally ordered by trail
    // structure, so no annotation is needed here — different outputs).
    flat::CompiledProgram cp = flat::compile(R"(
        output void Led0, Led1;
        par do
           loop do emit Led0; await 400ms; end
        with
           loop do emit Led1; await 1000ms; end
        end
    )");
    std::vector<std::pair<char, Micros>> toggles;
    CBindings extra;
    extra.output("Led0", [&toggles](Engine& e, Value) {
        toggles.emplace_back('0', e.logical_now());
    });
    extra.output("Led1", [&toggles](Engine& e, Value) {
        toggles.emplace_back('1', e.logical_now());
    });
    Instance d(cp, {.bindings = &extra});
    d.run(Script().advance(4 * kSec));
    // At t=2s and t=4s both leds toggle at the same logical instant.
    int joint = 0;
    for (size_t i = 0; i + 1 < toggles.size(); ++i) {
        if (toggles[i].second == toggles[i + 1].second &&
            toggles[i].first != toggles[i + 1].first) {
            ++joint;
        }
    }
    EXPECT_GE(joint, 3);  // t=0, 2s, 4s
}

}  // namespace
}  // namespace ceu
