// E7 — runtime micro-benchmarks (google-benchmark) backing the paper's
// engineering claims:
//   * §2.1: "the runtime overhead for creating and destroying (rejoining)
//     trails is negligible, promoting a fine-grained use of trails";
//   * §2.2: internal events are handled in a stack within the reaction —
//     cost scales linearly with chain depth;
//   * §4.3: destroying trails is a gate-range clear (memset), so par/or
//     aborts cost O(range), independent of how much the trails "did";
//   * §5: a reaction chain (the API entry points) runs in bounded time.
#include <benchmark/benchmark.h>

#include <sstream>

#include "codegen/flatten.hpp"
#include "env/bindings.hpp"
#include "runtime/engine.hpp"

namespace {

using namespace ceu;

/// Program with `n` trails all awaiting the same event.
std::string fanout_program(int n) {
    std::ostringstream os;
    os << "input void A;\nint v;\n";
    if (n > 1) os << "par do\n";
    for (int i = 0; i < n; ++i) {
        if (i) os << "with\n";
        os << "  loop do await A; end\n";
    }
    if (n > 1) os << "end\n";
    return os.str();
}

void BM_ReactionDispatch(benchmark::State& state) {
    flat::CompiledProgram cp = flat::compile(fanout_program(static_cast<int>(state.range(0))));
    rt::CBindings c = env::make_standard_bindings();
    rt::Engine eng(cp, c);
    eng.go_init();
    int evt = cp.sema.input_id("A");
    for (auto _ : state) {
        eng.go_event(evt, rt::Value::integer(0));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
    state.counters["trails"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ReactionDispatch)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

/// One reaction spawns and rejoins a par/or of `n` trails (trail churn).
void BM_TrailSpawnAndKill(benchmark::State& state) {
    std::ostringstream os;
    os << "input void A;\nloop do\n  await A;\n  par/or do\n    nothing;\n";
    for (int i = 1; i < state.range(0); ++i) {
        os << "  with\n    await forever;\n";
    }
    os << "  end\nend\n";
    flat::CompiledProgram cp = flat::compile(os.str());
    rt::CBindings c = env::make_standard_bindings();
    rt::Engine eng(cp, c);
    eng.go_init();
    int evt = cp.sema.input_id("A");
    for (auto _ : state) {
        eng.go_event(evt, rt::Value::integer(0));
    }
    state.counters["trails"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_TrailSpawnAndKill)->Arg(2)->Arg(8)->Arg(32);

/// Internal-event chain of depth `n` within one reaction (dataflow cost).
void BM_EmitChainDepth(benchmark::State& state) {
    int n = static_cast<int>(state.range(0));
    std::ostringstream os;
    os << "input void A;\n";
    for (int i = 0; i <= n; ++i) os << "internal void e" << i << ";\n";
    os << "par do\n";
    for (int i = 0; i < n; ++i) {
        os << "  loop do await e" << i << "; emit e" << i + 1 << "; end\nwith\n";
    }
    os << "  loop do await A; emit e0; end\nend\n";
    flat::CompiledProgram cp = flat::compile(os.str());
    rt::CBindings c = env::make_standard_bindings();
    rt::Engine eng(cp, c);
    eng.go_init();
    int evt = cp.sema.input_id("A");
    for (auto _ : state) {
        eng.go_event(evt, rt::Value::integer(0));
    }
    state.counters["depth"] = static_cast<double>(n);
}
BENCHMARK(BM_EmitChainDepth)->Arg(1)->Arg(8)->Arg(32)->Arg(128);

/// Timer arm + expiry throughput (the §2.3 machinery).
void BM_TimerWheel(benchmark::State& state) {
    flat::CompiledProgram cp = flat::compile("loop do await 1ms; end");
    rt::CBindings c = env::make_standard_bindings();
    rt::Engine eng(cp, c);
    eng.go_init();
    Micros now = 0;
    for (auto _ : state) {
        now += kMs;
        eng.go_time(now);
    }
}
BENCHMARK(BM_TimerWheel);

/// Whole-pipeline compile cost (lex→parse→sema→flatten) on the ring demo
/// scale (~70 lines), backing "programs compile in a few seconds".
void BM_CompilePipeline(benchmark::State& state) {
    std::string src = fanout_program(8);
    for (auto _ : state) {
        flat::CompiledProgram cp = flat::compile(src);
        benchmark::DoNotOptimize(cp.flat.code.data());
    }
}
BENCHMARK(BM_CompilePipeline);

}  // namespace

BENCHMARK_MAIN();
