#include <sstream>
#include <stdexcept>

#include "analysis/explore.hpp"
#include "bench.hpp"
#include "host/instance.hpp"
#include "lexer/lexer.hpp"
#include "parser/parser.hpp"
#include "sema/sema.hpp"

namespace perfbench {

using namespace ceu;

const char* const kEchoCounter = R"(
    input int ADD;
    input void STOP;
    int total = 0;
    int ticks = 0;
    int v = 0;
    par do
       loop do
          v = await ADD;
          total = total + v;
          _printf("%ld\n", total);
       end
    with
       loop do
          await 10ms;
          ticks = ticks + 1;
       end
    with
       await STOP;
       return total;
    end
)";

// The fleet programs declare the same inputs in the same order, so ADD, GO
// and STOP have one id across the fleet.
const char* const kCounter = R"(
    input int ADD;
    input void GO;
    input void STOP;
    int total = 0;
    int v = 0;
    par do
       loop do
          v = await ADD;
          total = total + v;
       end
    with
       await STOP;
       return total;
    end
)";

const char* const kTicker = R"(
    input int ADD;
    input void GO;
    input void STOP;
    int n = 0;
    par do
       loop do
          await 10ms;
          n = n + 1;
       end
    with
       await STOP;
       return n;
    end
)";

// The async block's loop runs kAsyncIterations (4) iterations, so it
// finishes inside the round whose GO spawned it, and the next GO respawns
// it: the asyncs phase has work in every round.
const char* const kAsyncGo = R"(
    input int ADD;
    input void GO;
    input void STOP;
    int done = 0;
    int r = 0;
    par do
       loop do
          await GO;
          r = async do
             int acc = 0;
             int i = 0;
             loop do
                i = i + 1;
                acc = acc + i;
                if i == 4 then break; end
             end
             return acc;
          end;
          done = done + r;
       end
    with
       await STOP;
       return done;
    end
)";

std::string par_explosion(int k) {
    std::ostringstream os;
    os << "input void";
    for (int i = 0; i < k; ++i) os << (i ? "," : "") << " E" << i;
    os << ";\npar do\n";
    for (int i = 0; i < k; ++i) {
        if (i) os << "with\n";
        os << "  loop do\n";
        for (int j = 0; j < 3 + i; ++j) os << "    await E" << i << ";\n";
        os << "  end\n";
    }
    os << "end\n";
    return os.str();
}

bool aot_respawns_async(const aot::ProgramHandle& compiled,
                        const std::shared_ptr<const flat::CompiledProgram>& async_go) {
    host::Config hc;
    hc.aot = compiled;
    host::Instance aot_inst(async_go, hc);
    host::Instance interp(async_go);
    const EventId go = async_go->sema.input_id("GO");
    const EventId stop = async_go->sema.input_id("STOP");
    for (host::Instance* inst : {&aot_inst, &interp}) {
        inst->boot();
        for (int k = 0; k < 8; ++k) {
            inst->inject(go);
            inst->settle();
        }
        inst->inject(stop);
    }
    return aot_inst.result().as_int() == interp.result().as_int();
}

const char* verdict_name(Verdict v) {
    switch (v) {
        case Verdict::Deterministic: return "deterministic";
        case Verdict::Nondeterministic: return "nondeterministic";
        case Verdict::Incomplete: return "incomplete";
        case Verdict::CompileError: return "compile-error";
    }
    return "?";
}

StagedCompile compile_staged(const std::string& source, const std::string& name,
                             bool analyze_it, uint64_t op, size_t max_states) {
    StagedCompile out;
    auto cp = std::make_shared<flat::CompiledProgram>();
    Diagnostics diags;
    SourceFile file(name, source);

    int64_t t = now_ns();
    std::vector<Token> tokens;
    {
        Scope s("lexer", op);
        tokens = lex(file, diags);
    }
    out.lex_ms = ms_since(t);
    out.tokens = tokens.size();
    if (diags.ok()) {
        t = now_ns();
        Scope s("parser", op);
        cp->ast = parse(std::move(tokens), diags);
        out.parse_ms = ms_since(t);
    }
    if (diags.ok()) {
        t = now_ns();
        Scope s("sema", op);
        cp->sema = analyze(cp->ast, diags);
        out.sema_ms = ms_since(t);
    }
    if (diags.ok()) {
        t = now_ns();
        Scope s("codegen.flatten", op);
        cp->flat = flat::flatten(cp->ast, cp->sema, diags);
        out.flatten_ms = ms_since(t);
    }
    if (!diags.ok()) {
        out.error = diags.str();
        return out;
    }
    out.instructions = cp->flat.code.size();
    out.verdict = Verdict::Deterministic;
    if (analyze_it) {
        t = now_ns();
        Scope s("analysis.explore", op);
        analysis::ExploreOptions eopt;
        eopt.max_states = max_states;
        dfa::Dfa d = analysis::explore(*cp, eopt);
        out.explore_ms = ms_since(t);
        out.states = d.state_count();
        if (!d.deterministic()) {
            out.verdict = Verdict::Nondeterministic;
        } else if (!d.complete()) {
            out.verdict = Verdict::Incomplete;
        }
    }
    out.cp = std::move(cp);
    return out;
}

void CompileTotals::add(const StagedCompile& c) {
    ++programs;
    tokens += static_cast<double>(c.tokens);
    instructions += static_cast<double>(c.instructions);
    states += static_cast<double>(c.states);
    lex_ms += c.lex_ms;
    parse_ms += c.parse_ms;
    sema_ms += c.sema_ms;
    flatten_ms += c.flatten_ms;
    explore_ms += c.explore_ms;
}

void CompileTotals::report(Report& r) const {
    double n = programs == 0 ? 1.0 : static_cast<double>(programs);
    r.metric("lexer.ms", lex_ms / n, "ms");
    r.metric("lexer.tokens", tokens / n, "count");
    r.metric("parser.ms", parse_ms / n, "ms");
    r.metric("sema.ms", sema_ms / n, "ms");
    r.metric("codegen.flatten_ms", flatten_ms / n, "ms");
    r.metric("codegen.instructions", instructions / n, "count");
    r.metric("analysis.explore_ms", explore_ms / n, "ms");
    r.metric("analysis.states", states / n, "count");
}

std::shared_ptr<const flat::CompiledProgram> setup_compile(const std::string& source,
                                                           const std::string& name,
                                                           CompileTotals& totals) {
    StagedCompile c = compile_staged(source, name, true);
    if (c.verdict != Verdict::Deterministic) {
        throw std::runtime_error("set-up program '" + name + "' is " +
                                 verdict_name(c.verdict) + ": " + c.error);
    }
    totals.add(c);
    return c.cp;
}

}  // namespace perfbench
