// E5 — Figure 1 reproduction: the four reaction chains of the §2 walkthrough
// (boot; A wakes trails 1 and 3; a second A is discarded; B wakes trail 2
// and trail 3's continuation, terminating the program; the enqueued C is
// never reacted to). Prints the reaction-by-reaction narrative from the
// actual engine.
#include <cstdio>

#include "codegen/flatten.hpp"
#include "host/instance.hpp"

int main() {
    using namespace ceu;

    const char* kFigure1 = R"(
        input void A, B, C;
        par do
           await A;
           _trace("trail 1 awakes and terminates");
        with
           await B;
           _trace("trail 2 awakes and terminates");
        with
           await A;
           _trace("trail 3 awakes, spawns its continuation");
           await B;
           _trace("trail 4 (continuation) awakes and terminates");
        end
    )";

    flat::CompiledProgram cp = flat::compile(kFigure1, "figure1.ceu");
    host::Instance d(cp);

    auto snapshot = [&](const char* what) {
        std::printf("  -> after %-24s reactions=%llu awaiting-trails=%d status=%s\n",
                    what, static_cast<unsigned long long>(d.engine().reactions()),
                    d.engine().active_gate_count(),
                    d.engine().status() == rt::Engine::Status::Terminated ? "TERMINATED"
                                                                          : "running");
    };

    std::printf("== Figure 1: reaction chains ==\n\n");
    d.boot();
    snapshot("boot");
    size_t printed = 0;
    auto flush = [&] {
        for (; printed < d.trace().size(); ++printed) {
            std::printf("     | %s\n", d.trace()[printed].c_str());
        }
    };
    flush();

    d.feed({env::ScriptItem::Kind::Event, "A", rt::Value::integer(0), 0});
    flush();
    snapshot("A (1st occurrence)");

    d.feed({env::ScriptItem::Kind::Event, "A", rt::Value::integer(0), 0});
    flush();
    snapshot("A (discarded: nobody awaits it)");

    d.feed({env::ScriptItem::Kind::Event, "B", rt::Value::integer(0), 0});
    flush();
    snapshot("B (program terminates)");

    d.feed({env::ScriptItem::Kind::Event, "C", rt::Value::integer(0), 0});
    flush();
    snapshot("C (no reaction: terminated)");

    bool ok = d.engine().status() == rt::Engine::Status::Terminated &&
              d.trace().size() == 4 && d.engine().reactions() == 4;
    std::printf("\npaper check (4 trace lines, 4 reaction chains, termination "
                "before C): %s\n",
                ok ? "OK" : "MISMATCH");
    return ok ? 0 : 1;
}
