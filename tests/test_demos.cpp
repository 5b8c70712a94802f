// End-to-end tests of the paper's three demo applications (§3), running on
// the simulated substrates, plus their temporal-analysis verdicts.
#include <gtest/gtest.h>

#include "demos/demos.hpp"
#include "dfa/dfa.hpp"
#include "host/instance.hpp"
#include "wsn/tinyos_binding.hpp"

namespace ceu {
namespace {

using env::Script;
using host::Instance;

// ---------------------------------------------------------------------------
// Ring (§3.1)
// ---------------------------------------------------------------------------

wsn::Network make_ring_network() {
    wsn::RadioModel radio;
    radio.link(0, 1, 2 * kMs);
    radio.link(1, 2, 2 * kMs);
    radio.link(2, 0, 2 * kMs);
    wsn::Network net(radio);
    for (int id = 0; id < 3; ++id) {
        wsn::CeuMoteConfig cfg;
        cfg.source = demos::kRing;
        net.add(std::make_unique<wsn::CeuMote>(id, cfg));
    }
    return net;
}

std::vector<int64_t> led_values(const wsn::CeuMote& m) {
    std::vector<int64_t> v;
    for (const auto& [at, val] : m.led_history()) v.push_back(val);
    return v;
}

TEST(RingDemo, CounterTraversesTheRingForever) {
    wsn::Network net = make_ring_network();
    net.start();
    net.run_until(10 * kSec);
    auto& m0 = static_cast<wsn::CeuMote&>(net.mote(0));
    auto& m1 = static_cast<wsn::CeuMote&>(net.mote(1));
    auto& m2 = static_cast<wsn::CeuMote&>(net.mote(2));
    // Each mote sees the counter grow by 3 per lap: 1,4,7,... on mote 1.
    auto v1 = led_values(m1);
    ASSERT_GE(v1.size(), 3u);
    EXPECT_EQ(v1[0], 1);
    EXPECT_EQ(v1[1], 4);
    EXPECT_EQ(v1[2], 7);
    auto v2 = led_values(m2);
    ASSERT_GE(v2.size(), 2u);
    EXPECT_EQ(v2[0], 2);
    EXPECT_EQ(v2[1], 5);
    auto v0 = led_values(m0);
    ASSERT_GE(v0.size(), 2u);
    EXPECT_EQ(v0[0], 3);
}

TEST(RingDemo, NetworkDownTriggersBlinkAndRetryRestoresIt) {
    wsn::Network net = make_ring_network();
    net.start();
    net.run_until(6 * kSec);  // healthy for a while
    auto& m1 = static_cast<wsn::CeuMote&>(net.mote(1));
    size_t healthy_events = m1.led_history().size();

    // Mote 2 dies: the ring is broken (messages into and out of it drop).
    net.radio().set_down(2, true);
    net.run_until(20 * kSec);
    // Mote 1 must have detected the silence (>5s) and blinked led0 at 2Hz.
    size_t down_events = m1.led_history().size();
    EXPECT_GT(down_events, healthy_events + 10u);

    // Mote 2 comes back; mote 0's 10s retry re-seeds the ring.
    net.radio().set_down(2, false);
    net.run_until(45 * kSec);
    auto& m2 = static_cast<wsn::CeuMote&>(net.mote(2));
    // Mote 2 received a fresh message after recovery.
    ASSERT_FALSE(m2.led_history().empty());
    EXPECT_GT(m2.led_history().back().first, 20 * kSec);
}

TEST(RingDemo, TemporalAnalysisAcceptsTheRing) {
    flat::CompiledProgram cp = flat::compile(demos::kRing);
    dfa::Dfa d = dfa::Dfa::build(cp);
    EXPECT_TRUE(d.deterministic()) << d.report();
    EXPECT_TRUE(d.complete());
}

TEST(MultihopDemo, ReadingsReachTheSinkWithHopCounts) {
    struct Reading {
        int64_t origin, value, hops;
    };
    std::vector<Reading> collected;
    constexpr int kMotes = 4;
    wsn::RadioModel radio;
    for (int id = 1; id < kMotes; ++id) radio.link(id, id - 1, 2 * kMs);
    wsn::Network net(radio);
    for (int id = 0; id < kMotes; ++id) {
        wsn::CeuMoteConfig cfg;
        cfg.source = demos::kMultihop;
        cfg.customize = [&collected](rt::CBindings& c, int mote_id) {
            c.fn("Read_sensor", [mote_id](rt::Engine&, std::span<const rt::Value>) {
                return rt::Value::integer(100 + mote_id);
            });
            c.fn("collect",
                 [&collected](rt::Engine&, std::span<const rt::Value> args) {
                     collected.push_back(
                         {args[0].as_int(), args[1].as_int(), args[2].as_int()});
                     return rt::Value::integer(0);
                 });
        };
        net.add(std::make_unique<wsn::CeuMote>(id, cfg));
    }
    net.start();
    net.run_until(10 * kSec);

    // Every source sampled at 2,4,6,8,10s => ~4-5 readings each in 10s.
    int per_origin[kMotes] = {};
    for (const Reading& r : collected) {
        ASSERT_GE(r.origin, 1);
        ASSERT_LT(r.origin, kMotes);
        EXPECT_EQ(r.hops, r.origin - 1);       // one hop per intermediate mote
        EXPECT_EQ(r.value, 100 + r.origin);    // payload intact end to end
        ++per_origin[r.origin];
    }
    for (int id = 1; id < kMotes; ++id) {
        EXPECT_GE(per_origin[id], 3) << "origin " << id;
    }
}

TEST(MultihopDemo, TemporalAnalysisAcceptsTheProtocol) {
    flat::CompiledProgram cp = flat::compile(demos::kMultihop);
    dfa::Dfa d = dfa::Dfa::build(cp);
    EXPECT_TRUE(d.deterministic()) << d.report();
    EXPECT_TRUE(d.complete());
}

// ---------------------------------------------------------------------------
// Ship (§3.2)
// ---------------------------------------------------------------------------

struct ShipRig {
    arduino::Board board;
    arduino::Lcd lcd;
    demos::ShipWorld world{lcd};
    rt::CBindings bindings = demos::make_ship_bindings(world, lcd, board);
};

/// The generator samples every 50ms and asyncs deliver the key events, so
/// the script interleaves time with async settling.
Script ship_script(int ticks) {
    Script s;
    for (int i = 0; i < ticks; ++i) {
        s.advance(50 * kMs);
        s.settle_asyncs();
    }
    return s;
}

TEST(ShipDemo, KeyStartsTheGameAndStepsAdvance) {
    ShipRig rig;
    // Hold KEY_UP during [120ms, 400ms]: two consistent reads 50ms apart.
    rig.board.set_analog_source(
        0, arduino::Board::keypad_press(arduino::kRawUp, 120 * kMs, 400 * kMs, 0));
    flat::CompiledProgram cp = flat::compile(demos::kShip);
    Instance d(cp, {.bindings = &rig.bindings});
    d.run(ship_script(100));  // 5 seconds
    // The game started (initial redraw + step redraws at 500ms/step).
    EXPECT_GE(rig.world.redraws(), 5u);
    EXPECT_FALSE(rig.lcd.frames().empty());
    // The ship is drawn in row 0, column 0.
    EXPECT_EQ(rig.lcd.frames().back().screen[0], '>');
}

TEST(ShipDemo, DeterministicReplayOfTheWholeGame) {
    auto run_once = [] {
        ShipRig rig;
        rig.board.set_analog_source(
            0, arduino::Board::combine(
                   {arduino::Board::keypad_press(arduino::kRawUp, 120 * kMs, 400 * kMs, 0),
                    arduino::Board::keypad_press(arduino::kRawDown, 900 * kMs,
                                                 1300 * kMs, 0)}));
        flat::CompiledProgram cp = flat::compile(demos::kShip);
        Instance d(cp, {.bindings = &rig.bindings});
        d.run(ship_script(200));
        std::vector<std::string> frames;
        for (const auto& f : rig.lcd.frames()) frames.push_back(f.screen);
        return frames;
    };
    auto a = run_once();
    auto b = run_once();
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(ShipDemo, KeyDownMovesTheShipToRowOne) {
    ShipRig rig;
    rig.board.set_analog_source(
        0, arduino::Board::combine(
               {arduino::Board::keypad_press(arduino::kRawUp, 120 * kMs, 400 * kMs, 0),
                arduino::Board::keypad_press(arduino::kRawDown, 900 * kMs, 1300 * kMs,
                                             0)}));
    flat::CompiledProgram cp = flat::compile(demos::kShip);
    Instance d(cp, {.bindings = &rig.bindings});
    d.run(ship_script(60));  // 3s: started at ~170ms, moved down at ~950ms
    bool ship_on_row1 = false;
    for (const auto& f : rig.lcd.frames()) {
        // Row 1 starts after the newline.
        size_t row1 = f.screen.find('\n') + 1;
        if (f.screen[row1] == '>') ship_on_row1 = true;
    }
    EXPECT_TRUE(ship_on_row1);
}

TEST(ShipDemo, TemporalAnalysisAcceptsWithAnnotations) {
    flat::CompiledProgram cp = flat::compile(demos::kShip);
    dfa::Dfa d = dfa::Dfa::build(cp);
    EXPECT_TRUE(d.deterministic()) << d.report();
}

TEST(ShipDemo, WithoutAnnotationsTheAnalysisRefusesTheGame) {
    // Strip the annotation lines: the concurrent C calls resurface — the
    // exact behavior §3.2 describes.
    std::string source = demos::kShip;
    size_t pos;
    while ((pos = source.find("pure _")) != std::string::npos ||
           (pos = source.find("deterministic _")) != std::string::npos) {
        source.erase(pos, source.find(';', pos) - pos + 1);
    }
    flat::CompiledProgram cp = flat::compile(source);
    dfa::Dfa d = dfa::Dfa::build(cp);
    EXPECT_FALSE(d.deterministic());
    bool ccall = false;
    for (const auto& c : d.conflicts()) {
        if (c.kind == dfa::Conflict::Kind::CCall) ccall = true;
    }
    EXPECT_TRUE(ccall) << d.report();
}

// ---------------------------------------------------------------------------
// Mario (§3.3)
// ---------------------------------------------------------------------------

TEST(MarioDemo, LiveSessionRunsTenSecondsOfSteps) {
    display::Display disp;
    disp.push_key();
    disp.push_key();
    rt::CBindings bindings = demos::make_mario_bindings(disp);
    flat::CompiledProgram cp = flat::compile(demos::kMarioLive);
    Instance d(cp, {.bindings = &bindings});
    d.run(Script().settle_asyncs());
    // Initial scene + one redraw per Step.
    EXPECT_GE(disp.frames().size(), 1000u);
    EXPECT_EQ(disp.pending(), 0u);  // keys were consumed
}

TEST(MarioDemo, ReplayReproducesTheRecordingExactly) {
    display::Display disp;
    disp.push_key();
    disp.push_key();
    disp.push_key();
    rt::CBindings bindings = demos::make_mario_bindings(disp);
    flat::CompiledProgram cp = flat::compile(demos::kMarioReplay);
    Instance d(cp, {.bindings = &bindings});
    d.run(Script().settle_asyncs());

    const auto& frames = disp.frames();
    // Record: initial + 1000 steps; each of 2 replays likewise.
    ASSERT_EQ(frames.size(), 3 * 1001u);
    std::vector<display::Display::Scene> rec(frames.begin(), frames.begin() + 1001);
    std::vector<display::Display::Scene> rep1(frames.begin() + 1001,
                                              frames.begin() + 2002);
    std::vector<display::Display::Scene> rep2(frames.begin() + 2002, frames.end());
    EXPECT_EQ(rec, rep1);  // same inputs => same behavior (paper §2.8)
    EXPECT_EQ(rec, rep2);
    // And something actually happened: Mario moved.
    EXPECT_NE(frames.front().mario_x, frames[1000].mario_x);
}

TEST(MarioDemo, BackwardsReplayShowsEarlierAndEarlierScenes) {
    display::Display disp;
    rt::CBindings bindings = demos::make_mario_bindings(disp);
    flat::CompiledProgram cp = flat::compile(demos::kMarioBackwards);
    Instance d(cp, {.bindings = &bindings});
    d.run(Script().settle_asyncs());

    // Record phase: initial + 200 live frames; backwards phase: exactly one
    // marked frame per step_ref in {200, 190, ..., 10}.
    const auto& frames = disp.frames();
    ASSERT_EQ(frames.size(), 201u + 20u);
    // The marked frames replay the recording backwards: frame for step_ref
    // s must equal the recorded frame at step s.
    for (int k = 0; k < 20; ++k) {
        int step_ref = 200 - 10 * k;
        const auto& marked = frames[201u + static_cast<size_t>(k)];
        const auto& recorded = frames[static_cast<size_t>(step_ref)];
        EXPECT_EQ(marked, recorded) << "step_ref=" << step_ref;
    }
}

TEST(MarioDemo, TemporalAnalysisAcceptsTheGame) {
    flat::CompiledProgram cp = flat::compile(demos::kMarioLive);
    dfa::Dfa d = dfa::Dfa::build(cp);
    EXPECT_TRUE(d.deterministic()) << d.report();
}

// ---------------------------------------------------------------------------
// Temperature dataflow (§2.2)
// ---------------------------------------------------------------------------

TEST(TemperatureDemo, BothDirectionsConvergeWithoutCycles) {
    flat::CompiledProgram cp = flat::compile(demos::kTemperature);
    Instance d(cp);
    d.run(Script().event("SetCelsius", 100).event("SetFahrenheit", 32));
    EXPECT_EQ(d.trace(), (std::vector<std::string>{"set tc: tc=100 tf=212",
                                                   "set tf: tc=0 tf=32"}));
}

}  // namespace
}  // namespace ceu
