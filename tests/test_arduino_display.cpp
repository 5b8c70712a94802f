// Arduino and display substrate tests: LCD geometry, keypad debouncing
// (the ship demo's 50ms double-read), analog source composition, and the
// SDL-ish display's poll/redraw/mark-frame machinery.
#include <gtest/gtest.h>

#include "arduino/binding.hpp"
#include "codegen/flatten.hpp"
#include "display/binding.hpp"
#include "host/instance.hpp"

namespace ceu {
namespace {

using arduino::Board;
using arduino::Lcd;

TEST(LcdUnit, WriteAdvancesAndWraps) {
    Lcd lcd;
    lcd.set_cursor(14, 0);
    lcd.print("abc");  // wraps from (0,14) to (1,0)
    EXPECT_EQ(lcd.at(0, 14), 'a');
    EXPECT_EQ(lcd.at(0, 15), 'b');
    EXPECT_EQ(lcd.at(1, 0), 'c');
    EXPECT_EQ(lcd.writes, 3u);
}

TEST(LcdUnit, ClearResetsEverything) {
    Lcd lcd;
    lcd.print("xyz");
    lcd.clear();
    EXPECT_EQ(lcd.render(), std::string(16, ' ') + "\n" + std::string(16, ' '));
}

TEST(LcdUnit, CursorClamping) {
    Lcd lcd;
    lcd.set_cursor(99, 99);
    lcd.write('z');
    EXPECT_EQ(lcd.at(1, 15), 'z');
}

TEST(BoardUnit, KeypadPressWindows) {
    auto src = Board::keypad_press(arduino::kRawUp, 100 * kMs, 200 * kMs, /*bounce=*/0);
    EXPECT_EQ(src(50 * kMs), 1023);
    EXPECT_EQ(src(150 * kMs), arduino::kRawUp);
    EXPECT_EQ(src(250 * kMs), 1023);
}

TEST(BoardUnit, BounceAlternatesNearEdges) {
    auto src = Board::keypad_press(arduino::kRawUp, 100 * kMs, 300 * kMs,
                                   /*bounce=*/5 * kMs);
    // Within the bounce window values flip between idle and the key level.
    bool saw_idle = false, saw_key = false;
    for (Micros t = 100 * kMs; t < 105 * kMs; t += 500) {
        int64_t v = src(t);
        saw_idle = saw_idle || v == 1023;
        saw_key = saw_key || v == arduino::kRawUp;
    }
    EXPECT_TRUE(saw_idle);
    EXPECT_TRUE(saw_key);
    // Mid-press is stable.
    EXPECT_EQ(src(200 * kMs), arduino::kRawUp);
}

TEST(BoardUnit, CombineLastNonIdleWins) {
    auto src = Board::combine({Board::keypad_press(arduino::kRawUp, 0, 100 * kMs, 0),
                               Board::keypad_press(arduino::kRawDown, 50 * kMs,
                                                   150 * kMs, 0)});
    EXPECT_EQ(src(25 * kMs), arduino::kRawUp);
    EXPECT_EQ(src(75 * kMs), arduino::kRawDown);  // overlap: later source wins
    EXPECT_EQ(src(125 * kMs), arduino::kRawDown);
    EXPECT_EQ(src(200 * kMs), 1023);
}

TEST(ArduinoBindings, AnalogToKeyMapping) {
    Board board;
    Lcd lcd;
    rt::CBindings c = arduino::make_arduino_bindings(board, lcd);
    flat::CompiledProgram cp = flat::compile(R"(
        int up = _analog2key(100);
        int down = _analog2key(300);
        int none = _analog2key(1023);
        return up * 100 + down * 10 + none;
    )");
    host::Instance d(cp, {.bindings = &c});
    d.run({});
    EXPECT_EQ(d.engine().result().as_int(),
              arduino::kKeyUp * 100 + arduino::kKeyDown * 10 + arduino::kKeyNone);
}

TEST(ArduinoBindings, DigitalWritesAreRecorded) {
    Board board;
    Lcd lcd;
    rt::CBindings c = arduino::make_arduino_bindings(board, lcd);
    flat::CompiledProgram cp = flat::compile(R"(
        _pinMode(13, 1);
        _digitalWrite(13, _HIGH);
        await 100ms;
        _digitalWrite(13, _LOW);
        return 0;
    )");
    host::Instance d(cp, {.bindings = &c});
    d.run(env::Script().advance(kSec));
    ASSERT_EQ(board.digital_history().size(), 2u);
    EXPECT_EQ(board.digital_history()[0].pin, 13);
    EXPECT_TRUE(board.digital_history()[0].level);
    EXPECT_EQ(board.digital_history()[1].at, 100 * kMs);
    EXPECT_FALSE(board.digital_read(13));
}

TEST(ArduinoBindings, DebouncePatternFiltersBounce) {
    // The ship demo's generator: two reads 50ms apart must agree. A bouncy
    // edge is filtered; a held key is reported once.
    Board board;
    Lcd lcd;
    rt::CBindings c = arduino::make_arduino_bindings(board, lcd);
    board.set_analog_source(0, Board::keypad_press(arduino::kRawUp, 100 * kMs,
                                                   400 * kMs, /*bounce=*/3 * kMs));
    flat::CompiledProgram cp = flat::compile(R"(
        int key = _KEY_NONE;
        int presses = 0;
        par/or do
           loop do
              int read1 = _analog2key(_analogRead(0));
              await 50ms;
              int read2 = _analog2key(_analogRead(0));
              if read1 == read2 && key != read1 then
                 key = read1;
                 if key != _KEY_NONE then
                    presses = presses + 1;
                 end
              end
           end
        with
           await 1s;
        end
        return presses;
    )");
    host::Instance d(cp, {.bindings = &c});
    d.boot();
    d.engine().go_time(kSec);
    EXPECT_EQ(d.engine().result().as_int(), 1);  // one press, despite bounce
}

// ---------------------------------------------------------------------------
// Display
// ---------------------------------------------------------------------------

TEST(DisplayUnit, PollDrainsKeysFifo) {
    display::Display disp;
    disp.push_key();
    disp.push_key();
    EXPECT_EQ(disp.pending(), 2u);
    EXPECT_EQ(disp.poll_event(), display::kEventKeyDown);
    EXPECT_EQ(disp.poll_event(), display::kEventKeyDown);
    EXPECT_EQ(disp.poll_event(), display::kEventNone);
}

TEST(DisplayUnit, RedrawToggleAndMarkFrame) {
    display::Display disp;
    disp.redraw({1, 0, 0, 0});
    disp.set_redraw(false);
    disp.redraw({2, 0, 0, 0});
    disp.redraw({3, 0, 0, 0});
    EXPECT_EQ(disp.frames().size(), 1u);
    EXPECT_EQ(disp.redraw_calls(), 3u);
    disp.mark_frame();  // surfaces the last hidden scene
    ASSERT_EQ(disp.frames().size(), 2u);
    EXPECT_EQ(disp.frames()[1].mario_x, 3);
}

TEST(SdlBindings, PollEventWritesThroughThePointer) {
    display::Display disp;
    disp.push_key();
    rt::CBindings c = display::make_sdl_bindings(disp);
    flat::CompiledProgram cp = flat::compile(R"(
        _SDL_Event event;
        int got = 0;
        if _SDL_PollEvent(&event) then
           if event.type == _SDL_KEYDOWN then
              got = 1;
           end
        end
        int empty = _SDL_PollEvent(&event);
        _SDL_Delay(10);
        return got * 10 + empty;
    )");
    host::Instance d(cp, {.bindings = &c});
    d.run({});
    EXPECT_EQ(d.engine().result().as_int(), 10);  // got=1, then queue empty
    EXPECT_EQ(disp.total_delay(), 10 * kMs);
}

}  // namespace
}  // namespace ceu
