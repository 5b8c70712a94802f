// The traced run's layer probes, identical for every workload:
//
//   ledger   — the same counter/ticker/async input sequence driven through
//              successively wider entry points: the raw engine
//              (Instance::engine() go_event/go_time/go_async), host::Instance,
//              the AOT-compiled host::Instance, and a 1-worker reactor.
//              Each reports ns per reaction; host.overhead_ns and
//              reactor.overhead_ns are the deltas to the layer below.
//   cgen/aot — emit + cc + dlopen of the ledger's three programs.
//   snapshot — Instance::save/load of echo-counter members fed session
//              inputs, checked to continue their count after the load.
//   wire     — generator-side encode_frame / FrameReader::next cost.
#include <algorithm>
#include <stdexcept>

#include "aot/aot.hpp"
#include "bench.hpp"
#include "cgen/cgen.hpp"
#include "host/instance.hpp"
#include "reactor/reactor.hpp"
#include "serve/wire.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace ceu;
using ProgramPtr = std::shared_ptr<const flat::CompiledProgram>;

namespace {

constexpr size_t kMembersPerProgram = 1000;
constexpr int kRounds = 30;
constexpr int kRepeats = 5;

/// Seeded ADD value for counter `i` in round `round`.
int64_t add_value(uint64_t seed, int round, size_t i) {
    uint64_t h = seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(round) * 1000003u + i;
    h ^= h >> 31;
    h *= 0xBF58476D1CE4E5B9ull;
    h ^= h >> 29;
    return 1 + static_cast<int64_t>(h % 9);
}

enum class Layer { Engine, Host, Aot, Reactor };

struct LedgerFleet {
    std::vector<std::unique_ptr<host::Instance>> members;  // counter, ticker, async, ...
    int round = 0;
};

void drive_instances(LedgerFleet& f, Layer layer, uint64_t seed, EventId add, EventId go) {
    for (int k = 0; k < kRounds; ++k, ++f.round) {
        for (size_t i = 0; i < f.members.size(); ++i) {
            host::Instance& inst = *f.members[i];
            if (layer == Layer::Engine) {
                rt::Engine& e = inst.engine();
                switch (i % 3) {
                    case 0:
                        e.go_event(add, rt::Value::integer(add_value(seed, f.round, i)));
                        break;
                    case 1: e.go_time(e.now() + 10 * kMs); break;
                    default:
                        e.go_event(go);
                        while (e.go_async()) {
                        }
                }
            } else {
                switch (i % 3) {
                    case 0:
                        inst.inject(add, rt::Value::integer(add_value(seed, f.round, i)));
                        break;
                    case 1: inst.advance(10 * kMs); break;
                    default:
                        inst.inject(go);
                        inst.run_async_slices(1000);
                }
            }
        }
    }
}

void drive_reactor(reactor::Reactor& r, int& round, uint64_t seed, EventId add, EventId go) {
    for (int k = 0; k < kRounds; ++k, ++round) {
        for (size_t i = 0; i < r.size(); i += 3) {
            auto id = static_cast<reactor::InstanceId>(i);
            r.inject(id, add, rt::Value::integer(add_value(seed, round, i)));
            r.inject(id + 2, go);
        }
        r.advance(10 * kMs);
        r.drain();
    }
}

uint64_t total_reactions(const LedgerFleet& f) {
    uint64_t n = 0;
    for (const auto& m : f.members) n += m->reactions();
    return n;
}
uint64_t total_reactions(const reactor::Reactor& r) {
    uint64_t n = 0;
    for (size_t i = 0; i < r.size(); ++i) {
        n += r.instance(static_cast<reactor::InstanceId>(i)).reactions();
    }
    return n;
}

/// Result values of a fleet after STOP, member by member.
std::vector<int64_t> results(LedgerFleet& f, EventId stop) {
    std::vector<int64_t> out;
    for (auto& m : f.members) {
        m->inject(stop);
        out.push_back(m->result().as_int());
    }
    return out;
}

void run_ledger(const Options& opt, Report& r, const std::vector<ProgramPtr>& progs,
                const std::shared_ptr<const aot::FleetImage>& img) {
    const EventId add = progs[0]->sema.input_id("ADD");
    const EventId go = progs[2]->sema.input_id("GO");
    const EventId stop = progs[0]->sema.input_id("STOP");
    if (add == kNoEvent || go == kNoEvent || stop == kNoEvent ||
        progs[1]->sema.input_id("STOP") != stop || progs[2]->sema.input_id("STOP") != stop) {
        throw std::runtime_error("ledger programs must share input ids (ADD/GO/STOP)");
    }

    const bool aot_async = aot_respawns_async(img->program(2), progs[2]);
    r.metric("aot.async_respawn_ok", aot_async ? 1 : 0, "bool");
    auto make_fleet = [&](bool compiled) {
        LedgerFleet f;
        for (size_t i = 0; i < 3 * kMembersPerProgram; ++i) {
            host::Config hc;
            hc.collect_trace = false;
            if (compiled && (i % 3 != 2 || aot_async)) hc.aot = img->program(i % 3);
            f.members.push_back(std::make_unique<host::Instance>(progs[i % 3], hc));
            f.members.back()->boot();
        }
        return f;
    };
    LedgerFleet engine_fleet = make_fleet(false);
    LedgerFleet host_fleet = make_fleet(false);
    LedgerFleet aot_fleet = make_fleet(true);
    reactor::ReactorConfig rc;
    rc.workers = 1;
    rc.seed = opt.seed;
    rc.observe_stats = false;  // the host layers run without a recorder too
    reactor::Reactor reactor(rc);
    for (size_t i = 0; i < 3 * kMembersPerProgram; ++i) reactor.add_instance(progs[i % 3]);
    reactor.boot();
    int reactor_round = 0;

    std::vector<double> ns[4];
    uint64_t counts[4] = {0, 0, 0, 0};
    for (int rep = 0; rep < kRepeats; ++rep) {
        for (int l = 0; l < 4; ++l) {
            auto layer = static_cast<Layer>(l);
            static const char* const kSpan[] = {"ledger.runtime", "ledger.host", "ledger.aot",
                                                "ledger.reactor_1w"};
            Scope s(kSpan[l], static_cast<uint64_t>(rep));
            uint64_t before = 0;
            uint64_t after = 0;
            int64_t t0 = 0;
            int64_t t1 = 0;
            if (layer == Layer::Reactor) {
                before = total_reactions(reactor);
                t0 = now_ns();
                drive_reactor(reactor, reactor_round, opt.seed, add, go);
                t1 = now_ns();
                after = total_reactions(reactor);
            } else {
                LedgerFleet& f = layer == Layer::Engine ? engine_fleet
                                 : layer == Layer::Host ? host_fleet
                                                        : aot_fleet;
                before = total_reactions(f);
                t0 = now_ns();
                drive_instances(f, layer, opt.seed, add, go);
                t1 = now_ns();
                after = total_reactions(f);
            }
            counts[l] += after - before;
            ns[l].push_back(static_cast<double>(t1 - t0) / static_cast<double>(after - before));
        }
    }

    // Every layer saw the same inputs: the same reactions and results.
    for (int l = 1; l < 4; ++l) {
        r.op(counts[l] == counts[0], "ledger: layer " + std::to_string(l) + " ran " +
                                         std::to_string(counts[l]) + " reactions, engine ran " +
                                         std::to_string(counts[0]));
    }
    std::vector<int64_t> want = results(engine_fleet, stop);
    r.op(results(host_fleet, stop) == want, "ledger: host results differ from engine");
    r.op(results(aot_fleet, stop) == want, "ledger: AOT results differ from engine");
    std::vector<int64_t> got;
    for (size_t i = 0; i < reactor.size(); ++i) {
        reactor.inject(static_cast<reactor::InstanceId>(i), stop);
    }
    reactor.drain();
    for (size_t i = 0; i < reactor.size(); ++i) {
        got.push_back(reactor.instance(static_cast<reactor::InstanceId>(i)).result().as_int());
    }
    r.op(got == want, "ledger: reactor results differ from engine");

    // The fastest of the alternating repeats: machine noise only ever adds
    // time, and the layers' differences are a few percent of a reaction.
    auto fastest = [](const std::vector<double>& v) { return *std::min_element(v.begin(), v.end()); };
    double runtime_ns = fastest(ns[0]);
    double host_ns = fastest(ns[1]);
    double aot_ns = fastest(ns[2]);
    double reactor_ns = fastest(ns[3]);
    r.metric("runtime.ns_per_reaction", runtime_ns, "ns");
    r.metric("host.ns_per_reaction", host_ns, "ns");
    r.metric("aot.ns_per_reaction", aot_ns, "ns");
    r.metric("reactor.ns_per_reaction_1w", reactor_ns, "ns");
    r.metric("host.overhead_ns", host_ns - runtime_ns, "ns");
    r.metric("reactor.overhead_ns", reactor_ns - host_ns, "ns");
    r.metric("ledger.ordered", runtime_ns <= host_ns && host_ns <= reactor_ns ? 1 : 0, "bool");
    double ctx = 0;
    size_t compiled = 0;
    for (const auto& m : aot_fleet.members) {
        if (!m->is_compiled()) continue;
        ctx += static_cast<double>(m->state_bytes());
        ++compiled;
    }
    r.metric("aot.ctx_bytes", ctx / static_cast<double>(compiled), "B");
}

void run_snapshot_probe(const Options& opt, Report& r) {
    constexpr size_t kInstances = 500;
    auto cp = std::make_shared<const flat::CompiledProgram>(flat::compile(kEchoCounter));
    const EventId add = cp->sema.input_id("ADD");
    Rng rng(opt.seed ^ 0x5A5A5A5Aull);
    std::vector<std::unique_ptr<host::Instance>> src;
    std::vector<int64_t> totals(kInstances, 0);
    for (size_t i = 0; i < kInstances; ++i) {
        host::Config hc;
        hc.collect_trace = false;
        src.push_back(std::make_unique<host::Instance>(cp, hc));
        src.back()->boot();
        int n = 1 + static_cast<int>(rng.below(3));
        for (int k = 0; k < n; ++k) {
            int64_t v = 1 + static_cast<int64_t>(rng.below(100));
            totals[i] += v;
            src.back()->inject(add, rt::Value::integer(v));
        }
        src.back()->advance(10 * kMs);
    }
    std::vector<std::vector<uint8_t>> blobs(kInstances);
    double bytes = 0;
    int64_t t0 = now_ns();
    {
        Scope s("snapshot.save");
        for (size_t i = 0; i < kInstances; ++i) blobs[i] = src[i]->save();
    }
    int64_t t1 = now_ns();
    for (const auto& b : blobs) bytes += static_cast<double>(b.size());
    std::vector<std::unique_ptr<host::Instance>> dst;
    for (size_t i = 0; i < kInstances; ++i) {
        host::Config hc;
        hc.collect_trace = false;
        dst.push_back(std::make_unique<host::Instance>(cp, hc));
    }
    int64_t t2 = now_ns();
    {
        Scope s("snapshot.load");
        for (size_t i = 0; i < kInstances; ++i) dst[i]->load(blobs[i]);
    }
    int64_t t3 = now_ns();
    for (size_t i = 0; i < kInstances; ++i) {
        std::string line;
        dst[i]->add_output_sink([&line](const std::string& l) { line = l; });
        dst[i]->inject(add, rt::Value::integer(1));
        r.op(line == std::to_string(totals[i] + 1),
             "snapshot: restored member printed '" + line + "', expected " +
                 std::to_string(totals[i] + 1));
    }
    double n = static_cast<double>(kInstances);
    r.metric("snapshot.save_us", static_cast<double>(t1 - t0) / 1e3 / n, "us");
    r.metric("snapshot.load_us", static_cast<double>(t3 - t2) / 1e3 / n, "us");
    r.metric("snapshot.blob_bytes", bytes / n, "B");
}

void run_wire_probe(const Options& opt, Report& r) {
    constexpr size_t kFrames = 100'000;
    Rng rng(opt.seed ^ 0x77697265ull);
    std::vector<serve::Frame> frames(kFrames);
    for (auto& f : frames) {
        f.type = serve::FrameType::Inject;
        f.session = 1 + rng.below(2000);
        f.text = "ADD";
        f.value = 1 + static_cast<int64_t>(rng.below(100));
    }
    std::vector<uint8_t> buf;
    buf.reserve(kFrames * 32);
    int64_t t0 = now_ns();
    {
        Scope s("wire.encode");
        for (const auto& f : frames) serve::encode_frame(f, buf);
    }
    int64_t t1 = now_ns();
    serve::FrameReader reader;
    serve::Frame out;
    size_t decoded = 0;
    uint64_t check = 0;
    int64_t t2 = now_ns();
    {
        Scope s("wire.decode");
        reader.feed(buf.data(), buf.size());
        while (reader.next(out)) {
            ++decoded;
            check += out.session + static_cast<uint64_t>(out.value);
        }
    }
    int64_t t3 = now_ns();
    uint64_t want = 0;
    for (const auto& f : frames) want += f.session + static_cast<uint64_t>(f.value);
    r.op(decoded == kFrames && check == want, "wire: decoded frames differ from encoded");

    // One inject's bytes on the wire, both ways: Inject, InjectReply, Output.
    std::vector<uint8_t> one;
    serve::encode_frame(frames[0], one);
    serve::Frame reply;
    reply.type = serve::FrameType::InjectReply;
    reply.session = frames[0].session;
    reply.ticket = 123456;
    serve::encode_frame(reply, one);
    serve::Frame output;
    output.type = serve::FrameType::Output;
    output.session = frames[0].session;
    output.text = "12345";
    serve::encode_frame(output, one);

    r.metric("wire.encode_ns", static_cast<double>(t1 - t0) / kFrames, "ns");
    r.metric("wire.decode_ns", static_cast<double>(t3 - t2) / kFrames, "ns");
    r.metric("wire.bytes_per_inject", static_cast<double>(one.size()), "B");
}

}  // namespace

void run_layer_probes(const Options& opt, Report& r) {
    Scope probes("probes");
    std::vector<ProgramPtr> progs = {
        std::make_shared<const flat::CompiledProgram>(flat::compile(kCounter)),
        std::make_shared<const flat::CompiledProgram>(flat::compile(kTicker)),
        std::make_shared<const flat::CompiledProgram>(flat::compile(kAsyncGo)),
    };

    // cgen alone, with the options the AOT build uses, then the full build.
    double c_bytes = 0;
    int64_t t0 = now_ns();
    {
        Scope s("cgen.emit");
        for (size_t i = 0; i < progs.size(); ++i) {
            cgen::CgenOptions copt;
            copt.with_main = false;
            copt.reentrant = true;
            copt.aot_symbol = std::string(cgen::kAotSymbolPrefix) + std::to_string(i);
            copt.program_name = "prog" + std::to_string(i);
            c_bytes += static_cast<double>(cgen::emit_c(*progs[i], copt).size());
        }
    }
    r.metric("cgen.emit_ms", ms_since(t0), "ms");
    r.metric("cgen.c_bytes", c_bytes, "B");
    aot::BuildOptions bopt;
    bopt.work_dir = opt.work_dir;
    std::string err;
    t0 = now_ns();
    std::shared_ptr<const aot::FleetImage> img;
    {
        Scope s("aot.build");
        img = aot::FleetImage::build(progs, bopt, &err);
    }
    r.metric("aot.build_ms", ms_since(t0), "ms");
    if (!img) throw std::runtime_error("AOT build failed: " + err);

    run_ledger(opt, r, progs, img);
    run_snapshot_probe(opt, r);
    run_wire_probe(opt, r);
}

}  // namespace perfbench
