// fleet-mix: an in-process reactor::Reactor, closed loop, over 10k members —
// a third each counter, ticker and async-respawner — in three cells:
// interpreted at 1 worker, AOT at 1 worker, interpreted at min(allowed
// CPUs, 4) workers. Nothing crosses a socket or the wire: this isolates the
// reactor bookkeeping around each reaction, and 10k members' state
// outgrows L2.
//
// Members are dealt into kCohorts cohorts; cohort c's tickers boot c steps
// into the fleet's life, so their 10 ms periods are staggered. One step
// injects ADD (a seeded value) into the step's counter cohort and GO into
// its async cohort, advances the fleet clock one step width (one ticker
// cohort fires), and drains. Every round thus has event, timer and async
// work, and every step does the same amount of it. The 1-worker
// interpreted cell runs for its time budget; the other two replay exactly
// the same steps and must end with identical, closed-form results.
// Counters are windowed over the measured steps.
#include <algorithm>
#include <stdexcept>

#include "aot/aot.hpp"
#include "bench.hpp"
#include "host/instance.hpp"
#include "reactor/reactor.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace ceu;
using ProgramPtr = std::shared_ptr<const flat::CompiledProgram>;

namespace {

constexpr size_t kMembers = 10'000;
constexpr size_t kCohorts = 8;
constexpr Micros kPeriod = 10 * kMs;               // the ticker's period
constexpr Micros kStep = kPeriod / kCohorts;       // fleet clock per step
constexpr int kWarmupSteps = 2 * static_cast<int>(kCohorts);
constexpr int kSetups = 3;
// Steps per group of the bounded latency metrics (25 cohort cycles).
constexpr int kGroupSteps = 25 * static_cast<int>(kCohorts);

enum Kind : uint8_t { Counter = 0, Ticker = 1, Async = 2 };

Kind kind_of(size_t i) { return static_cast<Kind>(i % 3); }
size_t cohort_of(size_t i) { return (i / 3) % kCohorts; }

int64_t add_value(uint64_t seed, int step, size_t i) {
    Rng rng(seed * 1000003u + static_cast<uint64_t>(step) * 7919u + i);
    return 1 + static_cast<int64_t>(rng.below(9));
}

struct Programs {
    ProgramPtr counter, ticker, async_go;
    EventId add = kNoEvent, go = kNoEvent, stop = kNoEvent;
};

struct Cell {
    const char* name;
    size_t workers;
    std::unique_ptr<reactor::Reactor> fleet;
    std::vector<reactor::InstanceId> ids;  // member index -> fleet id
    int steps = 0;                         // steps delivered, warmup included
};

/// Builds and boots one fleet: cohort c is added and booted after the
/// fleet clock advanced c step widths.
Cell build_cell(const char* name, const Programs& p, size_t workers,
                const std::shared_ptr<const aot::FleetImage>& img, bool aot_async,
                uint64_t seed) {
    reactor::ReactorConfig rc;
    rc.workers = workers;
    rc.seed = seed;
    Cell c{name, workers, std::make_unique<reactor::Reactor>(rc), std::vector<reactor::InstanceId>(kMembers)};
    for (size_t k = 0; k < kCohorts; ++k) {
        if (k > 0) c.fleet->advance(kStep);
        for (size_t i = 0; i < kMembers; ++i) {
            if (cohort_of(i) != k) continue;
            host::Config hc;
            if (img && (kind_of(i) != Async || aot_async)) hc.aot = img->program(kind_of(i));
            const ProgramPtr& prog = kind_of(i) == Counter ? p.counter
                                     : kind_of(i) == Ticker ? p.ticker
                                                            : p.async_go;
            c.ids[i] = c.fleet->add_instance(prog, hc);
        }
        c.fleet->boot();
    }
    return c;
}

/// Ticks a cohort-`k` ticker has made once the fleet clock reads `now`.
int64_t ticks(size_t k, Micros now) {
    return (now - static_cast<Micros>(k) * kStep) / kPeriod;
}
Micros clock_after(int steps) { return static_cast<Micros>(kCohorts - 1 + steps) * kStep; }

struct Window {
    obs::ProcessStats before, after;
    uint64_t alloc_before = 0, alloc_after = 0;
    double wall_ms = 0;
    int first_step = 0, steps = 0;
    std::vector<double> step_us, round_us, chunk_ns;
    double inject_ns = 0;
    uint64_t injects = 0;
};

/// One closed-loop step; timings go to `w` when it is non-null.
void step(Cell& c, const Programs& p, uint64_t seed, Window* w) {
    reactor::Reactor& r = *c.fleet;
    const size_t k = static_cast<size_t>(c.steps) % kCohorts;
    Scope s("reactor.step", static_cast<uint64_t>(c.steps));
    uint64_t injects = 0;
    int64_t t0 = now_ns();
    {
        Scope si("reactor.inject", static_cast<uint64_t>(c.steps));
        for (size_t i = 3 * k; i < kMembers; i += 3 * kCohorts) {
            for (size_t j = i; j < std::min(i + 3, kMembers); ++j) {
                if (kind_of(j) == Counter) {
                    r.inject(c.ids[j], p.add, rt::Value::integer(add_value(seed, c.steps, j)));
                    ++injects;
                } else if (kind_of(j) == Async) {
                    r.inject(c.ids[j], p.go);
                    ++injects;
                }
            }
        }
    }
    int64_t t1 = now_ns();
    {
        Scope sr("reactor.rounds", static_cast<uint64_t>(c.steps));
        r.advance(kStep);
        r.drain();
    }
    int64_t t2 = now_ns();
    ++c.steps;
    if (w != nullptr) {
        w->step_us.push_back(static_cast<double>(t2 - t0) / 1e3);
        w->round_us.push_back(static_cast<double>(t2 - t1) / 1e3);
        w->inject_ns += static_cast<double>(t1 - t0);
        w->injects += injects;
        ++w->steps;
    }
}

void open_window(Cell& c, Window& w) {
    w.first_step = c.steps;
    w.before = c.fleet->fleet_stats();
    w.alloc_before = alloc_bytes();
}
void close_window(Cell& c, Window& w, int64_t t0) {
    w.wall_ms = ms_since(t0);
    w.alloc_after = alloc_bytes();
    w.after = c.fleet->fleet_stats();
}

uint64_t windowed(const Window& w, obs::ReactionKind k) {
    auto i = static_cast<size_t>(k);
    return w.after.reactions_by_kind[i] - w.before.reactions_by_kind[i];
}

/// Async reactions one GO causes: measured on a lone host::Instance fed
/// the same input, so the fleet's count can be checked against it.
uint64_t async_reactions_per_go(const Programs& p) {
    host::Instance inst(p.async_go);
    inst.observe_stats();
    inst.boot();
    uint64_t before = inst.snapshot().reactions_by_kind[3];
    inst.inject(p.go);
    inst.settle();
    return inst.snapshot().reactions_by_kind[3] - before;
}

/// The reactions the window's inputs imply, by kind.
struct Implied {
    uint64_t event = 0, timer = 0, async = 0;
};
Implied implied(const Window& w, uint64_t async_per_go) {
    Implied out;
    for (int s = w.first_step; s < w.first_step + w.steps; ++s) {
        size_t k = static_cast<size_t>(s) % kCohorts;
        for (size_t i = 0; i < kMembers; ++i) {
            if (cohort_of(i) != k || kind_of(i) == Ticker) continue;
            ++out.event;
            if (kind_of(i) == Async) out.async += async_per_go;
        }
    }
    for (size_t i = 0; i < kMembers; ++i) {
        if (kind_of(i) != Ticker) continue;
        size_t k = cohort_of(i);
        out.timer += static_cast<uint64_t>(ticks(k, clock_after(w.first_step + w.steps)) -
                                           ticks(k, clock_after(w.first_step)));
    }
    return out;
}

void check_window(Report& r, const Cell& c, const Window& w, const Implied& want,
                  bool by_kind) {
    std::string tag = std::string("fleet-mix ") + c.name + ": ";
    double phase_ms = 0;
    for (size_t k = 0; k < 4; ++k) {
        phase_ms += static_cast<double>(w.after.phase_ns[k] - w.before.phase_ns[k]) / 1e6;
    }
    r.op(phase_ms <= w.wall_ms * static_cast<double>(c.workers),
         tag + "windowed phase time " + std::to_string(phase_ms) + " ms exceeds wall x workers");
    uint64_t ev = windowed(w, obs::ReactionKind::Event);
    uint64_t tm = windowed(w, obs::ReactionKind::Timer);
    uint64_t as = windowed(w, obs::ReactionKind::Async);
    r.op(ev == want.event, tag + "event reactions " + std::to_string(ev) + " != implied " +
                               std::to_string(want.event));
    r.op(tm == want.timer, tag + "timer reactions " + std::to_string(tm) + " != implied " +
                               std::to_string(want.timer));
    if (!by_kind) return;
    r.op(ev > 0 && tm > 0 && as > 0, tag + "a reaction class went idle in the window");
    r.op(as == want.async, tag + "async reactions " + std::to_string(as) + " != implied " +
                               std::to_string(want.async));
}

/// STOPs every member and checks its result against the closed form of the
/// inputs the cell received. Returns the results for cross-cell comparison.
std::vector<int64_t> check_results(Report& r, Cell& c, const Programs& p, uint64_t seed) {
    for (size_t i = 0; i < kMembers; ++i) c.fleet->inject(c.ids[i], p.stop);
    c.fleet->drain();
    std::vector<int64_t> got(kMembers);
    const Micros now = clock_after(c.steps);
    for (size_t i = 0; i < kMembers; ++i) {
        const host::Instance& inst = c.fleet->instance(c.ids[i]);
        got[i] = inst.status() == rt::Engine::Status::Terminated ? inst.result().as_int() : -1;
        const size_t k = cohort_of(i);
        int64_t want = 0;
        if (kind_of(i) == Ticker) {
            want = ticks(k, now);
        } else {
            for (int s = static_cast<int>(k); s < c.steps; s += static_cast<int>(kCohorts)) {
                want += kind_of(i) == Counter ? add_value(seed, s, i) : kAsyncResult;
            }
        }
        r.op(got[i] == want, std::string("fleet-mix ") + c.name + ": member " + std::to_string(i) +
                                 " returned " + std::to_string(got[i]) + ", expected " +
                                 std::to_string(want));
    }
    return got;
}

/// Runs `c` from warmup through its measured window: until `budget_ms`
/// passes, or (budget_ms <= 0) until it has delivered `until_steps`.
Window measure(Cell& c, const Programs& p, uint64_t seed, double budget_ms, int until_steps) {
    for (int k = 0; k < kWarmupSteps; ++k) step(c, p, seed, nullptr);
    Window w;
    open_window(c, w);
    int64_t t0 = now_ns();
    int64_t chunk0 = t0;
    int chunk_steps = 0;
    while (budget_ms > 0 ? ms_since(t0) < budget_ms : c.steps < until_steps) {
        if (w.steps % kGroupSteps == 0) rotate_threads(static_cast<size_t>(w.steps / kGroupSteps));
        step(c, p, seed, &w);
        // Throughput is the median of per-chunk rates (one chunk = one full
        // cohort cycle), robust to a transient stall of the machine.
        if (++chunk_steps == static_cast<int>(kCohorts)) {
            int64_t now = now_ns();
            w.chunk_ns.push_back(static_cast<double>(now - chunk0));
            chunk0 = now;
            chunk_steps = 0;
        }
    }
    close_window(c, w, t0);
    return w;
}

}  // namespace

void run_fleet_mix(const Options& opt, Report& r) {
    const size_t nw = std::min<size_t>(opt.allowed_cpus, 4);
    require_cpus(opt, nw, "fleet-mix");

    // Set-up, repeated: compile, AOT build, build and boot the three fleets.
    std::vector<double> setups;
    Programs p;
    std::vector<Cell> cells;
    CompileTotals ct;
    bool aot_async = false;
    for (int k = 0; k < kSetups; ++k) {
        Scope s("setup", static_cast<uint64_t>(k));
        cells.clear();
        int64_t t0 = now_ns();
        ct = CompileTotals{};
        p.counter = setup_compile(kCounter, "counter", ct);
        p.ticker = setup_compile(kTicker, "ticker", ct);
        p.async_go = setup_compile(kAsyncGo, "async_go", ct);
        aot::BuildOptions bopt;
        bopt.work_dir = opt.work_dir;
        std::string err;
        std::shared_ptr<const aot::FleetImage> img;
        {
            Scope sa("aot.build");
            std::vector<ProgramPtr> progs = {p.counter, p.ticker, p.async_go};
            img = aot::FleetImage::build(progs, bopt, &err);
        }
        if (!img) throw std::runtime_error("AOT build failed: " + err);
        aot_async = aot_respawns_async(img->program(Async), p.async_go);
        cells.push_back(build_cell("interp-1w", p, 1, nullptr, false, opt.seed));
        cells.push_back(build_cell("aot-1w", p, 1, img, aot_async, opt.seed));
        cells.push_back(build_cell("interp-nw", p, nw, nullptr, false, opt.seed));
        setups.push_back(ms_since(t0) / 1e3);
    }
    r.metric("setup_s", median(setups), "s");
    ct.report(r);
    p.add = p.counter->sema.input_id("ADD");
    p.go = p.counter->sema.input_id("GO");
    p.stop = p.counter->sema.input_id("STOP");
    for (const ProgramPtr& prog : {p.ticker, p.async_go}) {
        if (prog->sema.input_id("ADD") != p.add || prog->sema.input_id("GO") != p.go ||
            prog->sema.input_id("STOP") != p.stop) {
            throw std::runtime_error("fleet programs must share input ids");
        }
    }
    const uint64_t async_per_go = async_reactions_per_go(p);

    double state = 0;
    for (reactor::InstanceId id : cells[0].ids) {
        state += static_cast<double>(cells[0].fleet->instance(id).state_bytes());
    }
    r.metric("state_bytes_per_instance", state / kMembers, "B");

    // Cell 1 runs for its share of the budget; a traced run measures an
    // untraced window first, then the traced one.
    const double budget_ms = opt.seconds * 1e3 * 0.45;
    Window untraced;
    if (opt.trace) {
        SpanLog::get().set_enabled(false);
        untraced = measure(cells[0], p, opt.seed, budget_ms / 2, 0);
        SpanLog::get().set_enabled(true);
    }
    Window windows[3];
    windows[0] = measure(cells[0], p, opt.seed, opt.trace ? budget_ms / 2 : budget_ms, 0);
    // Cells 2 and 3 replay exactly the same steps.
    for (size_t ci = 1; ci < 3; ++ci) windows[ci] = measure(cells[ci], p, opt.seed, 0, cells[0].steps);

    // The AOT cell's by-kind checks cover events and timers: its async
    // members may run interpreted (see aot_respawns_async).
    for (size_t ci = 0; ci < 3; ++ci) {
        check_window(r, cells[ci], windows[ci], implied(windows[ci], async_per_go), ci != 1);
    }
    std::vector<int64_t> interp = check_results(r, cells[0], p, opt.seed);
    r.op(check_results(r, cells[1], p, opt.seed) == interp,
         "fleet-mix: AOT results differ from interpreted");
    r.op(check_results(r, cells[2], p, opt.seed) == interp,
         "fleet-mix: interp-nw results differ from interp-1w");

    // All three cells react to identical inputs, so their reaction counts
    // are the interpreted cell's; rates are those per chunk wall time.
    const Window& w0 = windows[0];
    const double chunk_reactions =
        static_cast<double>(w0.after.reactions - w0.before.reactions) /
        (static_cast<double>(w0.steps) / kCohorts);
    auto rate = [&](const Window& w) {
        std::vector<double> per_s;
        for (double ns : w.chunk_ns) per_s.push_back(chunk_reactions / (ns / 1e9));
        return median(per_s);
    };
    r.metric("reactions_per_s_1w", rate(windows[0]), "1/s");
    r.metric("aot_reactions_per_s_1w", rate(windows[1]), "1/s");
    r.metric("reactions_per_s_nw", rate(windows[2]), "1/s");
    r.metric("throughput_per_s", rate(windows[0]), "1/s");

    // Step latency of the 1-worker interpreted cell (untraced steps only).
    std::vector<double> steps_us = opt.trace ? untraced.step_us : w0.step_us;
    std::vector<double> rounds_us = opt.trace ? untraced.round_us : w0.round_us;
    if (auto v = median_of_groups(steps_us, kGroupSteps, 0.5)) r.metric("latency_p50_us", *v, "us");
    if (auto v = median_of_groups(steps_us, kGroupSteps, 0.9)) r.metric("latency_p90_us", *v, "us");
    if (auto v = percentile(steps_us, 0.5)) r.metric("fleet.step_p50_us", *v, "us");
    if (auto v = percentile(steps_us, 0.99)) r.metric("fleet.step_p99_us", *v, "us");
    r.metric("fleet.steps", static_cast<double>(w0.steps), "count");
    if (auto v = percentile(rounds_us, 0.5)) r.metric("reactor.round_p50_us", *v, "us");
    if (auto v = percentile(rounds_us, 0.99)) r.metric("reactor.round_p99_us", *v, "us");
    if (opt.trace) {
        std::vector<double> traced = w0.step_us;
        auto a = percentile(untraced.step_us, 0.5);
        auto b = percentile(traced, 0.5);
        if (a && b) report_trace_overhead(r, *a, *b);
    }

    r.metric("reactor.inject_ns", w0.inject_ns / static_cast<double>(w0.injects), "ns");
    static const char* const kPhase[] = {"restarts", "events", "timers", "asyncs"};
    for (size_t k = 0; k < 4; ++k) {
        r.metric(std::string("reactor.phase.") + kPhase[k] + "_ms",
                 static_cast<double>(w0.after.phase_ns[k] - w0.before.phase_ns[k]) / 1e6, "ms");
    }
    r.metric("reactor.reactions.event", static_cast<double>(windowed(w0, obs::ReactionKind::Event)), "count");
    r.metric("reactor.reactions.timer", static_cast<double>(windowed(w0, obs::ReactionKind::Timer)), "count");
    r.metric("reactor.reactions.async", static_cast<double>(windowed(w0, obs::ReactionKind::Async)), "count");
    r.metric("aot.async_respawn_ok", aot_async ? 1 : 0, "bool");
    r.metric("aot.reactions.async", static_cast<double>(windowed(windows[1], obs::ReactionKind::Async)), "count");
    r.metric("reactor.steady_alloc_bytes", static_cast<double>(w0.alloc_after - w0.alloc_before), "B");
    const Window& wn = windows[2];
    double steals = static_cast<double>(wn.after.steals - wn.before.steals);
    double misses = static_cast<double>(wn.after.steal_failures - wn.before.steal_failures);
    r.metric("reactor.steals", steals, "count");
    r.metric("reactor.steal_success_ratio", steals + misses > 0 ? steals / (steals + misses) : 0, "ratio");
    r.metric("reactor.workers_nw", static_cast<double>(nw), "count");
}

}  // namespace perfbench
