// C-emitter integration tests: for a corpus of programs, emit C (paper
// §4.4), compile it with the host C compiler, run it against a script, and
// require the output to match the interpreter's trace line for line.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "cgen/cgen.hpp"
#include "host/instance.hpp"

namespace ceu {
namespace {

struct CRun {
    std::vector<std::string> lines;
    int exit_code = 0;
};

/// Compiles `c_source` and runs it with `script_text` on stdin.
CRun compile_and_run(const std::string& c_source, const std::string& script_text) {
    static int counter = 0;
    std::string base = ::testing::TempDir() + "ceu_cgen_" + std::to_string(getpid()) +
                       "_" + std::to_string(counter++);
    std::string c_path = base + ".c";
    std::string bin_path = base + ".bin";
    std::string in_path = base + ".in";
    std::string out_path = base + ".out";
    {
        std::ofstream f(c_path);
        f << c_source;
    }
    {
        std::ofstream f(in_path);
        f << script_text;
    }
    std::string cc = "cc -std=c11 -O1 -o " + bin_path + " " + c_path + " 2>" + base + ".cc.err";
    int rc = std::system(cc.c_str());
    EXPECT_EQ(rc, 0) << "C compilation failed; see " << base << ".cc.err";
    CRun out;
    if (rc != 0) return out;
    std::string run = bin_path + " < " + in_path + " > " + out_path;
    out.exit_code = std::system(run.c_str());
    std::ifstream f(out_path);
    std::string line;
    while (std::getline(f, line)) out.lines.push_back(line);
    return out;
}

/// Runs `source` through both backends with equivalent scripts and expects
/// identical observable output.
void expect_parity(const std::string& source, const env::Script& script) {
    // Interpreter side.
    flat::CompiledProgram cp = flat::compile(source);
    host::Instance d(cp);
    d.run(script);

    // C side: translate the script to the harness protocol.
    std::string text;
    for (const auto& item : script.items()) {
        switch (item.kind) {
            case env::ScriptItem::Kind::Event:
                text += "E " + item.event + " " + std::to_string(item.value.as_int()) + "\n";
                break;
            case env::ScriptItem::Kind::Advance:
                text += "T " + std::to_string(item.us) + "\n";
                break;
            case env::ScriptItem::Kind::AsyncIdle:
                text += "A\n";
                break;
            case env::ScriptItem::Kind::Crash:
                text += "C\n";
                break;
        }
    }
    cgen::CgenOptions opt;
    std::string c_source = cgen::emit_c(cp, opt);
    CRun c = compile_and_run(c_source, text);
    EXPECT_EQ(c.lines, d.trace()) << "C translation diverged from the interpreter";
}

TEST(Cgen, EmitsTheFourEntryApi) {
    flat::CompiledProgram cp = flat::compile("input void A; loop do await A; end");
    std::string c = cgen::emit_c(cp);
    EXPECT_NE(c.find("void ceu_go_init(void)"), std::string::npos);
    EXPECT_NE(c.find("void ceu_go_event(int evt, int64_t val)"), std::string::npos);
    EXPECT_NE(c.find("void ceu_go_time(int64_t now)"), std::string::npos);
    EXPECT_NE(c.find("int ceu_go_async(void)"), std::string::npos);
    // Gates + static data vector, as the paper's scheme prescribes.
    EXPECT_NE(c.find("static uint8_t GATES"), std::string::npos);
    EXPECT_NE(c.find("static int64_t DATA"), std::string::npos);
}

TEST(Cgen, UserCBlocksAreRepassedVerbatim) {
    flat::CompiledProgram cp = flat::compile(
        "C do\nstatic int my_global = 41;\nend\n"
        "_printf(\"%d\\n\", _my_global + 1);\nreturn 0;");
    std::string c = cgen::emit_c(cp);
    EXPECT_NE(c.find("static int my_global = 41;"), std::string::npos);
    CRun r = compile_and_run(c, "");
    EXPECT_EQ(r.lines, (std::vector<std::string>{"42"}));
}

TEST(CgenParity, QuickstartCounter) {
    expect_parity(R"(
        input int Restart;
        internal void changed;
        int v = 0;
        par do
           loop do await 1s; v = v + 1; emit changed; end
        with
           loop do v = await Restart; emit changed; end
        with
           loop do await changed; _printf("v = %d\n", v); end
        end
    )",
                  env::Script().advance(kSec).advance(kSec).event("Restart", 10).advance(kSec));
}

TEST(CgenParity, InternalEventStack) {
    expect_parity(R"(
        int v1, v2, v3;
        internal void v1_evt, v2_evt, v3_evt;
        par do
           loop do await v1_evt; v2 = v1 + 1; _printf("v2=%d\n", v2); emit v2_evt; end
        with
           loop do await v2_evt; v3 = v2 * 2; _printf("v3=%d\n", v3); emit v3_evt; end
        with
           v1 = 10; emit v1_evt;
           v1 = 15; emit v1_evt;
           await forever;
        end
    )",
                  env::Script());
}

TEST(CgenParity, ResidualDeltas) {
    expect_parity(R"(
        int v;
        await 10ms;
        v = 1;
        _printf("a %d\n", v);
        await 1ms;
        v = 2;
        _printf("b %d\n", v);
        return v;
    )",
                  env::Script().advance(15 * kMs));
}

TEST(CgenParity, WatchdogAndBreak) {
    expect_parity(R"(
        input void A, B;
        loop do
           par/or do
              await A;
              await B;
              _printf("done\n");
              break;
           with
              await 100ms;
              _printf("timeout\n");
           end
        end
        return 0;
    )",
                  env::Script().advance(250 * kMs).event("A").event("B"));
}

TEST(CgenParity, ValueParReturns) {
    expect_parity(R"(
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
              _printf("v=%d\n", v);
           end
        with
           await forever;
        end
    )",
                  env::Script().event("Key").event("Key"));
}

TEST(CgenParity, GuidingExample) {
    expect_parity(R"(
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
        _printf("ret=%d\n", ret);
        return ret;
    )",
                  env::Script().event("A", 3).event("B", 4));
}

TEST(CgenParity, AsyncSumWithWatchdog) {
    expect_parity(R"(
        int ret;
        par/or do
           ret = async do
              int sum = 0;
              int i = 1;
              loop do
                 sum = sum + i;
                 if i == 100 then break; else i = i + 1; end
              end
              return sum;
           end;
        with
           await 10ms;
           ret = 0;
        end
        _printf("ret=%d\n", ret);
        return ret;
    )",
                  env::Script().settle_asyncs());
}

TEST(CgenParity, SimulationInTheLanguage) {
    expect_parity(R"(
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
                 _printf("v=%d\n", v);
              end
           end
        with
           async do
              emit Start = 10;
              emit 1h35min;
           end
           _printf("unreachable\n");
        end
    )",
                  env::Script().settle_asyncs());
}

TEST(CgenParity, ArraysAndArithmetic) {
    expect_parity(R"(
        int[5] a;
        int i = 0;
        loop do
           a[i] = i * i;
           i = i + 1;
           if i == 5 then break; else await 1ms; end
        end
        _printf("sum=%d\n", a[0] + a[1] + a[2] + a[3] + a[4]);
        return 0;
    )",
                  env::Script().advance(10 * kMs));
}

TEST(CgenParity, ApplicationSwitch) {
    expect_parity(R"(
        input int Switch;
        int cur_app = 1;
        loop do
           par/or do
              cur_app = await Switch;
           with
              if cur_app == 1 then _printf("app1\n"); end
              if cur_app == 2 then _printf("app2\n"); end
              await forever;
           end
        end
    )",
                  env::Script().event("Switch", 2).event("Switch", 1));
}

TEST(CgenParity, DynamicTimers) {
    expect_parity(R"(
        int dt = 300;
        int steps = 0;
        loop do
           await (dt * 1000);
           steps = steps + 1;
           _printf("step %d\n", steps);
           dt = dt - 100;
           if dt == 0 then break; end
        end
        return steps;
    )",
                  env::Script().advance(kSec));
}

TEST(CgenParity, NestedParOrKills) {
    expect_parity(R"(
        input void A, B, C;
        loop do
           par/or do
              await A;
              _printf("a\n");
           with
              par/and do
                 await B;
                 _printf("b\n");
              with
                 await C;
                 _printf("c\n");
              end
              _printf("bc\n");
              break;
           end
        end
        _printf("out\n");
        return 0;
    )",
                  env::Script().event("B").event("A").event("C").event("B").event("C"));
}

TEST(Cgen, OutputEventsCallTheHook) {
    flat::CompiledProgram cp = flat::compile(R"(
        output int Led;
        int i = 0;
        loop do
           await 100ms;
           i = i + 1;
           emit Led = i;
           if i == 3 then break; end
        end
        return 0;
    )");
    std::string c = cgen::emit_c(cp);
    CRun r = compile_and_run(c, "T 1000000\n");
    // The weak default handler prints each emission.
    EXPECT_EQ(r.lines, (std::vector<std::string>{"output Led = 1", "output Led = 2",
                                                 "output Led = 3"}));
}

}  // namespace
}  // namespace ceu
