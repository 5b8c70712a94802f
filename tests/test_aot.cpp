// The AOT backend (src/aot/ + host::Instance's compiled path): fleet images
// built from re-entrant cgen TUs and dlopen'd back into the process, every
// toolchain/loader failure path degrading with a structured "aot: ..."
// report, and the facade contract — byte-identical traces, snapshot
// round-trips gated to the same backend and fingerprint, host-commanded
// power-cycles at the fleet instant. Every test that actually compiles
// self-skips when the host has no working C compiler (CI images without
// one run the failure-path tests only).
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "aot/aot.hpp"
#include "codegen/flatten.hpp"
#include "host/instance.hpp"
#include "reactor/reactor.hpp"
#include "runtime/snapshot.hpp"

namespace {

using namespace ceu;

std::shared_ptr<const flat::CompiledProgram> compile_shared(const char* src) {
    return std::make_shared<const flat::CompiledProgram>(flat::compile(src));
}

#define SKIP_WITHOUT_CC()                                        \
    if (!aot::toolchain_available()) {                           \
        GTEST_SKIP() << "no host C compiler on this machine";    \
    }

/// Accumulates injected values, tracing each delivery.
constexpr const char* kCounter = R"(
    input int ADD;
    input void STOP;
    int total = 0;
    int v = 0;
    par do
       loop do
          v = await ADD;
          total = total + v;
          _printf("add %d total %d\n", v, total);
       end
    with
       await STOP;
       return total;
    end
)";

/// Timers + async in flight: the states a snapshot must carry.
constexpr const char* kBusy = R"(
    input void STOP;
    int n = 0;
    int r = 0;
    par do
       loop do
          await 10ms;
          n = n + 1;
          _printf("tick %d\n", n);
       end
    with
       r = async do
          int acc = 0;
          int i = 0;
          loop do
             i = i + 1;
             acc = acc + i;
             if i == 50 then break; end
          end
          return acc;
       end;
       _printf("sum %d\n", r);
    with
       await STOP;
       return n;
    end
)";

/// Faults deterministically on ADD 0 — the compiled-backend crash lever
/// (kFragile's division by zero is a trapped interpreter error but UB in
/// the compiled C, so supervision tests for compiled members trip instead).
constexpr const char* kTrip = R"(
    input int ADD;
    input void STOP;
    int total = 0;
    int v = 0;
    par do
       loop do
          v = await ADD;
          if v == 0 then
             _ceu_trip();
          end;
          total = total + v;
          _printf("total %d\n", total);
       end
    with
       await STOP;
       return total;
    end
)";

// -- toolchain + image failure paths (no compiler needed) ---------------------

TEST(AotToolchain, MissingCompilerIsDetected) {
    aot::BuildOptions opt;
    opt.cc = "/nonexistent/ceu-aot-cc";
    EXPECT_FALSE(aot::toolchain_available(opt));
}

TEST(AotToolchain, BrokenCompilerReportsAStructuredError) {
    aot::BuildOptions opt;
    opt.cc = "/nonexistent/ceu-aot-cc";
    std::string err;
    aot::ProgramHandle h =
        aot::FleetImage::build_one(compile_shared(kCounter), opt, &err);
    EXPECT_FALSE(h);
    EXPECT_EQ(err.rfind("aot: ", 0), 0u) << err;
}

TEST(AotToolchain, DlopenFailureReportsAStructuredError) {
    auto cp = compile_shared(kCounter);
    std::string err;
    std::shared_ptr<const aot::FleetImage> img =
        aot::FleetImage::load("/nonexistent/fleet.so", {&cp, 1}, &err);
    EXPECT_EQ(img, nullptr);
    EXPECT_NE(err.find("aot: dlopen failed"), std::string::npos) << err;
}

TEST(AotToolchain, FingerprintMismatchIsRejectedAtLoad) {
    SKIP_WITHOUT_CC();
    auto a = compile_shared(kCounter);
    auto b = compile_shared(kBusy);
    aot::BuildOptions opt;
    opt.keep_artifacts = true;  // keep the .so alive for the re-load
    std::string err;
    std::shared_ptr<const aot::FleetImage> img =
        aot::FleetImage::build({&a, 1}, opt, &err);
    ASSERT_NE(img, nullptr) << err;

    std::shared_ptr<const aot::FleetImage> wrong =
        aot::FleetImage::load(img->so_path(), {&b, 1}, &err);
    EXPECT_EQ(wrong, nullptr);
    EXPECT_NE(err.find("fingerprint mismatch"), std::string::npos) << err;

    // A program-count mismatch dies on the missing descriptor symbol.
    std::vector<std::shared_ptr<const flat::CompiledProgram>> two = {a, b};
    std::shared_ptr<const aot::FleetImage> overlong =
        aot::FleetImage::load(img->so_path(), two, &err);
    EXPECT_EQ(overlong, nullptr);
    EXPECT_NE(err.find("missing descriptor symbol"), std::string::npos) << err;
}

// -- image building -----------------------------------------------------------

TEST(AotImage, BatchesAFleetIntoOneSharedObject) {
    SKIP_WITHOUT_CC();
    std::vector<std::shared_ptr<const flat::CompiledProgram>> programs = {
        compile_shared(kCounter), compile_shared(kBusy), compile_shared(kTrip)};
    std::string err;
    std::shared_ptr<const aot::FleetImage> img =
        aot::FleetImage::build(programs, {}, &err);
    ASSERT_NE(img, nullptr) << err;
    ASSERT_EQ(img->size(), 3u);
    for (size_t i = 0; i < img->size(); ++i) {
        const ceu_aot_program_t* d = img->descriptor(i);
        ASSERT_NE(d, nullptr);
        EXPECT_EQ(d->abi_version, cgen::kAotAbiVersion);
        EXPECT_GT(d->ctx_size, 0u);
        EXPECT_TRUE(img->program(i));
    }
}

TEST(AotImage, SmallProgramsKeepSmallContexts) {
    SKIP_WITHOUT_CC();
    // The per-instance steady-state cost of a compiled member is one
    // calloc'd context whose queue capacities are derived from the program
    // (gates/pars/escapes), not fixed worst cases: a trivial program stays
    // under the 256 B fleet budget and a real two-trail member under 512 B
    // — code lives once in the shared .so either way.
    std::string err;
    aot::ProgramHandle tiny =
        aot::FleetImage::build_one(compile_shared("return 42;"), {}, &err);
    ASSERT_TRUE(tiny) << err;
    EXPECT_LT(tiny.desc->ctx_size, 256u);

    aot::ProgramHandle counter =
        aot::FleetImage::build_one(compile_shared(kCounter), {}, &err);
    ASSERT_TRUE(counter) << err;
    EXPECT_LT(counter.desc->ctx_size, 512u);
}

/// One async block respawned on every GO: the generated C must reuse the
/// dead slots of its async table, not drop the third spawn.
constexpr const char* kRespawn = R"(
    input void GO, STOP;
    int done = 0;
    par do
       loop do
          await GO;
          int r = async do return 10; end;
          done = done + r;
       end
    with
       await STOP;
       return done;
    end
)";

/// Respawns caused by a running async's emit, with that async behind a dead
/// slot: the table is compacted while the emitter's slice is on the stack.
constexpr const char* kEmitRespawn = R"(
    input void GO, START, STOP;
    int done = 0;
    par do
       loop do
          await GO;
          int r = async do return 10; end;
          done = done + r;
          _printf("done %d\n", done);
       end
    with
       await START;
       async do
          int i = 0;
          loop do
             i = i + 1;
             emit GO;
             if i == 6 then break; end
          end
       end;
       _printf("emitter finished\n");
    with
       await STOP;
       return done;
    end
)";

/// A running async whose own emit ends its par/or: the kill lands while its
/// slice is on the stack, and the loop respawns the block in that same
/// reaction — twice per GO, so full tables hold killed contexts, not only
/// finished ones.
constexpr const char* kKillRespawn = R"(
    input void GO, KILL, STOP;
    int done = 0;
    int kills = 0;
    int k = 0;
    par do
       loop do
          await GO;
          k = 0;
          loop do
             par/or do
                int r = async do
                   if k < 2 then
                      emit KILL;
                   end
                   return 10;
                end;
                done = done + r;
                _printf("done %d\n", done);
                break;
             with
                await KILL;
                k = k + 1;
                kills = kills + 1;
                _printf("killed %d\n", kills);
             end
          end
       end
    with
       await STOP;
       return done * 100 + kills;
    end
)";

std::string repeat(const std::string& s, int n) {
    std::string out;
    for (int i = 0; i < n; ++i) out += s;
    return out;
}

TEST(AsyncTable, RespawnsKeepTheEngineSnapshotBounded) {
    // Interpreter only (no C compiler): a member that respawns one async
    // block reuses its table slots, so its CEUENG01 blob does not grow with
    // the number of spawns.
    auto cp = compile_shared(kRespawn);
    auto blob_after = [&](int gos) {
        host::Instance inst(cp);
        inst.boot();
        for (int i = 0; i < gos; ++i) {
            inst.inject("GO");
            inst.settle();
        }
        std::vector<uint8_t> blob;
        inst.engine().save(blob);
        inst.inject("STOP");
        EXPECT_EQ(inst.result().as_int(), 10 * gos);
        return blob.size();
    };
    EXPECT_EQ(blob_after(10), blob_after(1000));
}

// -- the Instance facade over a compiled context ------------------------------

env::Script make_script(const std::string& text) {
    env::Script s;
    Diagnostics diags;
    EXPECT_TRUE(env::Script::parse(text, &s, diags)) << diags.str();
    return s;
}

TEST(AotInstance, TracesMatchTheInterpreterByteForByte) {
    SKIP_WITHOUT_CC();
    struct Case {
        const char* source;
        std::string script;
        int64_t result;
    };
    const Case cases[] = {
        {kBusy, "T 35000\nA\nT 10000\nE STOP 0\n", 4},
        {kRespawn,
         "E GO 0\nA\nE GO 0\nA\nE GO 0\nA\nE GO 0\nA\nE GO 0\nA\nE STOP 0\n", 50},
        {kRespawn, repeat("E GO 0\nA\n", 1000) + "E STOP 0\n", 10'000},
        {kEmitRespawn, "E GO 0\nA\nE START 0\nA\nE STOP 0\n", 70},
        {kKillRespawn, repeat("E GO 0\nA\n", 5) + "E STOP 0\n", 50 * 100 + 10},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.source);
        auto cp = compile_shared(c.source);
        std::string err;
        aot::ProgramHandle h = aot::FleetImage::build_one(cp, {}, &err);
        ASSERT_TRUE(h) << err;

        env::Script script = make_script(c.script);

        host::Instance interp(cp);
        Diagnostics d1;
        interp.run(script, d1);

        host::Config cfg;
        cfg.aot = h;
        host::Instance compiled(cp, cfg);
        Diagnostics d2;
        compiled.run(script, d2);

        EXPECT_TRUE(compiled.is_compiled());
        EXPECT_FALSE(interp.is_compiled());
        EXPECT_EQ(interp.trace(), compiled.trace());
        EXPECT_EQ(interp.status(), compiled.status());
        EXPECT_EQ(interp.result().as_int(), c.result);
        EXPECT_EQ(compiled.result().as_int(), c.result);
        EXPECT_EQ(interp.now(), compiled.now());
        EXPECT_EQ(interp.reactions(), compiled.reactions());
    }
}

TEST(AotInstance, RejectsBindingsAndForeignHandles) {
    SKIP_WITHOUT_CC();
    auto cp = compile_shared(kCounter);
    std::string err;
    aot::ProgramHandle h = aot::FleetImage::build_one(cp, {}, &err);
    ASSERT_TRUE(h) << err;

    rt::CBindings extras;
    host::Config with_bindings;
    with_bindings.aot = h;
    with_bindings.bindings = &extras;
    EXPECT_THROW(host::Instance(cp, with_bindings), std::invalid_argument);

    auto other = compile_shared(kBusy);
    host::Config wrong_program;
    wrong_program.aot = h;
    EXPECT_THROW(host::Instance(other, wrong_program), std::invalid_argument);
}

TEST(AotInstance, EngineIntrospectionThrowsOnCompiledBackend) {
    SKIP_WITHOUT_CC();
    auto cp = compile_shared(kCounter);
    std::string err;
    aot::ProgramHandle h = aot::FleetImage::build_one(cp, {}, &err);
    ASSERT_TRUE(h) << err;
    host::Config cfg;
    cfg.aot = h;
    host::Instance inst(cp, cfg);
    EXPECT_THROW(inst.engine(), std::logic_error);
}

TEST(AotInstance, TripFaultsTheCompiledContext) {
    SKIP_WITHOUT_CC();
    auto cp = compile_shared(kTrip);
    std::string err;
    aot::ProgramHandle h = aot::FleetImage::build_one(cp, {}, &err);
    ASSERT_TRUE(h) << err;
    host::Config cfg;
    cfg.aot = h;
    host::Instance inst(cp, cfg);
    inst.boot();
    inst.inject("ADD", rt::Value::integer(5));
    EXPECT_EQ(inst.status(), rt::Engine::Status::Running);
    inst.inject("ADD", rt::Value::integer(0));
    EXPECT_EQ(inst.status(), rt::Engine::Status::Faulted);
}

TEST(AotInstance, SnapshotRoundTripsWithinTheProcess) {
    SKIP_WITHOUT_CC();
    auto cp = compile_shared(kBusy);
    std::string err;
    aot::ProgramHandle h = aot::FleetImage::build_one(cp, {}, &err);
    ASSERT_TRUE(h) << err;
    host::Config cfg;
    cfg.aot = h;

    // Uninterrupted reference run.
    host::Instance ref(cp, cfg);
    ref.boot();
    ref.advance(35 * kMs);
    ref.settle();
    ref.advance(10 * kMs);
    ref.inject("STOP");

    // Same inputs with a save/load seam mid-run.
    host::Instance a(cp, cfg);
    a.boot();
    a.advance(35 * kMs);
    std::vector<uint8_t> blob = a.save();

    host::Instance b(cp, cfg);
    b.load(blob);
    b.settle();
    b.advance(10 * kMs);
    b.inject("STOP");

    EXPECT_EQ(b.status(), ref.status());
    EXPECT_EQ(b.result().as_int(), ref.result().as_int());
    EXPECT_EQ(b.now(), ref.now());
    // The resumed instance replays only the tail of the trace.
    ASSERT_LE(b.trace().size(), ref.trace().size());
    size_t skip = ref.trace().size() - b.trace().size();
    for (size_t i = 0; i < b.trace().size(); ++i) {
        EXPECT_EQ(b.trace()[i], ref.trace()[skip + i]);
    }
}

TEST(AotInstance, RejectsCrossBackendSnapshots) {
    SKIP_WITHOUT_CC();
    auto cp = compile_shared(kCounter);
    std::string err;
    aot::ProgramHandle h = aot::FleetImage::build_one(cp, {}, &err);
    ASSERT_TRUE(h) << err;

    host::Instance interp(cp);
    interp.boot();
    std::vector<uint8_t> interp_blob = interp.save();

    host::Config cfg;
    cfg.aot = h;
    host::Instance compiled(cp, cfg);
    compiled.boot();
    std::vector<uint8_t> aot_blob = compiled.save();

    EXPECT_THROW(compiled.load(interp_blob), rt::snap::SnapshotError);
    EXPECT_THROW(interp.load(aot_blob), rt::snap::SnapshotError);

    // Same backend, different program: the fingerprint gate.
    auto other = compile_shared(kBusy);
    aot::ProgramHandle oh = aot::FleetImage::build_one(other, {}, &err);
    ASSERT_TRUE(oh) << err;
    host::Config ocfg;
    ocfg.aot = oh;
    host::Instance compiled_other(other, ocfg);
    compiled_other.boot();
    EXPECT_THROW(compiled_other.load(aot_blob), rt::snap::SnapshotError);
}

// -- the backend contract: one table of steps, both backends -----------------

/// Inputs by id and by name, timers, an async, an output event and a fault
/// lever: everything rt::Backend carries.
constexpr const char* kContract = R"(
    input int ADD;
    input void GO, TRIP, STOP;
    output int Total;
    int total = 0;
    int n = 0;
    int v = 0;
    par do
       loop do
          v = await ADD;
          total = total + v;
          emit Total = total;
       end
    with
       loop do
          await 10ms;
          n = n + 1;
          _printf("tick %d\n", n);
       end
    with
       loop do
          await GO;
          int r = async do
             int acc = 0;
             int i = 0;
             loop do
                i = i + 1;
                acc = acc + i;
                if i == 20 then break; end
             end
             return acc;
          end;
          _printf("sum %d\n", r);
       end
    with
       await TRIP;
       _ceu_trip();
    with
       await STOP;
       return total;
    end
)";

/// One step of the table, and what the call itself returned, if anything.
struct Step {
    const char* what;
    std::function<std::string(host::Instance&)> run;
};

using Inst = host::Instance;

/// A step whose call returns nothing.
Step act(const char* what, std::function<void(Inst&)> call) {
    return {what, [call](Inst& i) {
        call(i);
        return std::string();
    }};
}

/// A step whose call answers yes or no.
Step ask(const char* what, std::function<bool(Inst&)> call) {
    return {what, [call](Inst& i) { return std::string(call(i) ? "true" : "false"); }};
}

std::vector<Step> contract_steps() {
    auto add_by_id = [](Inst& i, int64_t v) {
        i.inject(static_cast<int>(i.resolve_input("ADD")), rt::Value::integer(v));
    };
    return {
        act("boot", [](Inst& i) { i.boot(); }),
        act("inject by id", [add_by_id](Inst& i) { add_by_id(i, 5); }),
        act("inject by name", [](Inst& i) { i.inject("ADD", rt::Value::integer(7)); }),
        ask("unknown name", [](Inst& i) { return i.try_inject("NOPE"); }),
        act("advance across two deadlines", [](Inst& i) { i.advance(25 * kMs); }),
        act("spawn the async", [](Inst& i) { i.inject("GO"); }),
        ask("step_async", [](Inst& i) { return i.step_async(); }),
        ask("run_async_slices(3)", [](Inst& i) { return i.run_async_slices(3); }),
        act("advance_to a deadline", [](Inst& i) { i.advance_to(40 * kMs); }),
        ask("run_async_slices(100)", [](Inst& i) { return i.run_async_slices(100); }),
        act("note", [](Inst& i) { i.note("[host] checkpoint here"); }),
        act("power_cycle", [](Inst& i) { i.power_cycle(); }),
        act("inject after the reboot", [add_by_id](Inst& i) { add_by_id(i, 3); }),
        act("advance after the reboot", [](Inst& i) { i.advance(10 * kMs); }),
        act("reset", [](Inst& i) { i.reset(); }),
        act("boot after reset", [](Inst& i) { i.boot(); }),
        act("trip", [](Inst& i) { i.inject("TRIP"); }),
        act("inject while faulted", [add_by_id](Inst& i) { add_by_id(i, 1); }),
        act("advance while faulted", [](Inst& i) { i.advance(10 * kMs); }),
    };
}

/// An Instance with every sink attached; apply() reports what one step
/// left visible: the backend-neutral gauges, and the output lines, span
/// digests and status transitions it streamed.
struct Probe {
    Probe(std::shared_ptr<const flat::CompiledProgram> cp, const host::Config& cfg)
        : inst(std::move(cp), cfg) {
        inst.add_output_sink([this](const std::string& l) { log << "line " << l << "\n"; });
        inst.add_span_sink([this](const obs::ReactionSpan& s) {
            log << "span kind " << static_cast<int>(s.kind) << " id " << s.id << " seq "
                << s.seq << " ts " << s.ts << " wakes " << s.wakes() << " emits "
                << s.emits() << " timers " << s.timer_fires() << " end " << s.end_status
                << " result " << s.result << "\n";
        });
        inst.add_status_sink([this](rt::Engine::Status st) {
            log << "status -> " << static_cast<int>(st) << "\n";
        });
    }

    std::string apply(const Step& step) {
        log.str("");
        std::string ret = step.run(inst);
        log << "returned '" << ret << "' status " << static_cast<int>(inst.status())
            << " result " << inst.result().as_int() << " now " << inst.now()
            << " reactions " << inst.reactions() << " deadline "
            << inst.next_timer_deadline() << " async " << inst.has_async_work() << "\n";
        return log.str();
    }

    std::ostringstream log;  // before inst: the status sink writes on registration
    host::Instance inst;
};

TEST(AotInstance, BackendContractHoldsStepByStep) {
    SKIP_WITHOUT_CC();
    auto cp = compile_shared(kContract);
    std::string err;
    aot::ProgramHandle h = aot::FleetImage::build_one(cp, {}, &err);
    ASSERT_TRUE(h) << err;
    host::Config interp_cfg;
    interp_cfg.engine.trap_faults = true;  // _ceu_trip() faults, as in the C
    host::Config aot_cfg;
    aot_cfg.aot = h;
    const std::vector<Step> steps = contract_steps();

    auto run = [&](const host::Config& cfg) {
        Probe p(cp, cfg);
        std::vector<std::string> seen;
        for (const Step& s : steps) seen.push_back(p.apply(s));
        return seen;
    };
    const std::vector<std::string> interp = run(interp_cfg);
    const std::vector<std::string> compiled = run(aot_cfg);
    for (size_t i = 0; i < steps.size(); ++i) {
        EXPECT_EQ(interp[i], compiled[i]) << "step " << i << ": " << steps[i].what;
    }
    EXPECT_NE(interp.back().find("status 2"), std::string::npos) << "the trip must fault";

    // Saved at any step boundary and loaded into a fresh instance of the
    // same backend, a run continues exactly as the uninterrupted one.
    for (const host::Config* cfg : {&interp_cfg, &aot_cfg}) {
        const std::vector<std::string>& ref = cfg->aot ? compiled : interp;
        for (size_t k = 0; k <= steps.size(); ++k) {
            Probe saved(cp, *cfg);
            for (size_t i = 0; i < k; ++i) saved.apply(steps[i]);
            Probe restored(cp, *cfg);
            restored.inst.load(saved.inst.save());
            for (size_t i = k; i < steps.size(); ++i) {
                EXPECT_EQ(restored.apply(steps[i]), ref[i])
                    << (cfg->aot ? "compiled" : "interpreted") << ", saved before step " << k
                    << ", step " << i << ": " << steps[i].what;
            }
        }
    }

    // A payload never crosses backends.
    Probe a(cp, interp_cfg);
    Probe b(cp, aot_cfg);
    a.apply(steps[0]);
    b.apply(steps[0]);
    EXPECT_THROW(a.inst.load(b.inst.save()), rt::snap::SnapshotError);
    EXPECT_THROW(b.inst.load(a.inst.save()), rt::snap::SnapshotError);
}

// -- host-commanded restart at the fleet instant ------------------------------

TEST(AotReactor, RestartPowerCyclesACompiledMember) {
    SKIP_WITHOUT_CC();
    auto cp = compile_shared(kCounter);
    std::string err;
    aot::ProgramHandle h = aot::FleetImage::build_one(cp, {}, &err);
    ASSERT_TRUE(h) << err;

    reactor::ReactorConfig rc;
    rc.collect_traces = true;
    reactor::Reactor r(rc);
    host::Config cfg;
    cfg.aot = h;
    reactor::InstanceId id = r.add_instance(cp, cfg);
    r.boot();
    r.inject(id, "ADD", rt::Value::integer(7));
    r.drain();

    r.restart(id);  // state is lost, the crash is traced
    r.inject(id, "ADD", rt::Value::integer(2));
    r.inject(id, "STOP");
    r.drain();

    EXPECT_EQ(r.instance(id).result().as_int(), 2);
    std::string t = r.instance(id).trace_text();
    EXPECT_NE(t.find("[crash] engine power-cycled"), std::string::npos) << t;
    EXPECT_NE(t.find("add 7 total 7"), std::string::npos) << t;
    EXPECT_NE(t.find("add 2 total 2"), std::string::npos) << t;
}

}  // namespace
