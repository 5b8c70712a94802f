// Input scripts: a deterministic description of what the environment does
// to a program — occurrences of input events and the passage of wall-clock
// time. The paper's reactive premise (§2.8) is that a program execution is
// a function of its input sequence alone; scripts make that sequence a
// first-class, replayable artifact for tests and benches.
//
// The fault layer extends the vocabulary: a script can power-cycle the
// engine (`crash`) and carry a fault plan (`fault ...` lines, parsed by
// fault::parse_plan) for harnesses that drive a simulated network.
#pragma once

#include <string>
#include <vector>

#include "runtime/value.hpp"
#include "util/diag.hpp"
#include "util/timeval.hpp"

namespace ceu::env {

struct ScriptItem {
    enum class Kind {
        Event,      // deliver an input event (optionally valued)
        Advance,    // advance wall-clock time by `us`
        AsyncIdle,  // let asynchronous blocks run until they go idle
        Crash,      // power-cycle the engine: reset + go_init (time persists)
    };
    Kind kind = Kind::Event;
    std::string event;
    rt::Value value = rt::Value::integer(0);
    Micros us = 0;
};

class Script {
  public:
    Script& event(std::string name) {
        items_.push_back({ScriptItem::Kind::Event, std::move(name), rt::Value::integer(0), 0});
        return *this;
    }
    Script& event(std::string name, int64_t v) {
        items_.push_back(
            {ScriptItem::Kind::Event, std::move(name), rt::Value::integer(v), 0});
        return *this;
    }
    Script& advance(Micros us) {
        items_.push_back({ScriptItem::Kind::Advance, "", rt::Value::integer(0), us});
        return *this;
    }
    Script& settle_asyncs() {
        items_.push_back({ScriptItem::Kind::AsyncIdle, "", rt::Value::integer(0), 0});
        return *this;
    }
    Script& crash() {
        items_.push_back({ScriptItem::Kind::Crash, "", rt::Value::integer(0), 0});
        return *this;
    }

    [[nodiscard]] const std::vector<ScriptItem>& items() const { return items_; }

    /// Fault-plan lines accumulated from `fault ...` script commands, in
    /// the DSL of fault::parse_plan. Empty when the script injects no
    /// faults. Consumed by network-level harnesses; host::Instance
    /// ignores it.
    [[nodiscard]] const std::string& fault_plan_text() const { return fault_plan_text_; }

    /// Parses the textual script protocol (ceuc --run; docs/LANGUAGE.md):
    ///
    ///   E <event> [v]      | event <name> [v]     deliver an input event
    ///   T <micros|TIME>    | advance <time>       advance the clock
    ///   A                  | settle               drain async blocks
    ///   C                  | crash                power-cycle the engine
    ///   Q                  | quit                 stop reading the script
    ///   fault <plan-line>                         accumulate a fault plan
    ///
    /// One command per line; `#` starts a comment. Malformed lines are
    /// reported through `diags` and make the parse return false.
    static bool parse(const std::string& text, Script* out, Diagnostics& diags);

  private:
    std::vector<ScriptItem> items_;
    std::string fault_plan_text_;
};

}  // namespace ceu::env
