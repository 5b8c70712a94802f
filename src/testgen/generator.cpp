#include "testgen/generator.hpp"

#include <algorithm>

#include "ast/print.hpp"
#include "testgen/rng.hpp"

namespace ceu::testgen {

using namespace ast;

namespace {

const SourceLoc kLoc{};  // generated nodes carry no source position

// -- shape budgets (every seed draws within these) --------------------------

constexpr int kMaxWorkers = 3;     // parallel worker trails (plus the observer)
constexpr int kMaxVars = 5;
constexpr int kMaxInputs = 3;      // not counting the reserved Obs event
constexpr int kMaxInternals = 3;
constexpr int kMaxDepth = 3;       // loop/par/if nesting inside a worker
constexpr int kMaxSeqLen = 5;      // statements per generated sequence
constexpr int kScriptLen = 20;     // approximate input-script length
constexpr int kConflictPermille = 200;     // share resources across workers on purpose
constexpr int kAsyncPermille = 180;        // workers that spawn an async block
constexpr int kTerminatorPermille = 300;   // add a timed `return` branch
constexpr int kWorkerPrintPermille = 350;  // the chosen printer worker really prints

// -- AST builders ------------------------------------------------------------

ExprPtr num(int64_t v) { return std::make_unique<NumExpr>(v, kLoc); }
ExprPtr var(const std::string& n) { return std::make_unique<VarExpr>(n, kLoc); }
ExprPtr str(std::string s) { return std::make_unique<StrExpr>(std::move(s), kLoc); }
ExprPtr csym(const std::string& n) { return std::make_unique<CSymExpr>(n, kLoc); }
ExprPtr bin(Tok op, ExprPtr a, ExprPtr b) {
    return std::make_unique<BinopExpr>(op, std::move(a), std::move(b), kLoc);
}

StmtPtr assign(const std::string& name, ExprPtr rhs) {
    auto s = std::make_unique<AssignStmt>(kLoc);
    s->lhs = var(name);
    s->rhs_expr = std::move(rhs);
    return s;
}

StmtPtr assign_stmt_rhs(const std::string& name, StmtPtr rhs) {
    auto s = std::make_unique<AssignStmt>(kLoc);
    s->lhs = var(name);
    s->rhs_stmt = std::move(rhs);
    return s;
}

/// `_printf(fmt, args...)` — the harness's one observable channel. The
/// format must end in exactly one '\n' (one call = one trace line on both
/// the interpreter and the compiled-C side).
StmtPtr printf_stmt(const std::string& fmt, std::vector<ExprPtr> args) {
    std::vector<ExprPtr> all;
    all.push_back(str(fmt));
    for (auto& a : args) all.push_back(std::move(a));
    auto call = std::make_unique<CallExpr>(csym("printf"), std::move(all), kLoc);
    return std::make_unique<ExprStmtStmt>(std::move(call), kLoc);
}

StmtPtr decl_var(const std::string& name, int64_t init) {
    auto d = std::make_unique<DeclVarStmt>(kLoc);
    d->type = Type{"int", 0, false};
    DeclVarStmt::Var v;
    v.name = name;
    v.init = num(init);
    v.loc = kLoc;
    d->vars.push_back(std::move(v));
    return d;
}

// -- generation context ------------------------------------------------------

/// What one worker (or nested branch) is allowed to touch. Disjoint across
/// workers unless the generator is deliberately biasing toward conflicts.
struct Ctx {
    std::vector<std::string> inputs;      // int-valued input events to await
    std::vector<std::string> internals_v; // void internals this trail may await
    std::vector<std::string> internals_i; // int internals this trail may await
    std::vector<std::string> emit_v;      // void internals anyone may emit
    std::vector<std::string> emit_i;      // int internals anyone may emit
    std::vector<std::string> wvars;       // variables this trail may write
    std::vector<std::string> rvars;       // variables this trail may read
    int depth = 0;
    bool may_print = false;
    bool may_async = false;

    [[nodiscard]] bool has_event() const {
        return !inputs.empty() || !internals_v.empty() || !internals_i.empty();
    }
};

const std::vector<Micros> kAwaitPool = {
    1 * kMs, 5 * kMs, 10 * kMs, 49 * kMs, 50 * kMs, 100 * kMs, 250 * kMs,
    500 * kMs, kSec,
};
const std::vector<Micros> kAdvancePool = {
    1 * kMs,  10 * kMs,  49 * kMs,  50 * kMs,  51 * kMs, 99 * kMs,
    100 * kMs, 101 * kMs, 151 * kMs, 250 * kMs, 499 * kMs, kSec,
};

class Generator {
  public:
    explicit Generator(uint64_t seed) : rng_(seed), seed_(seed) {}

    GenCase run() {
        GenCase out;
        out.seed = seed_;
        plan();
        build_program(out.program);
        out.source = render(out.program);
        out.script = build_script();
        out.script_text = script_text(out.script);
        out.has_async = has_async_;
        out.biased_conflict = biased_;
        return out;
    }

  private:
    Rng rng_;
    uint64_t seed_;

    std::vector<std::string> inputs_;       // not counting Obs
    std::vector<std::string> internals_v_;
    std::vector<std::string> internals_i_;
    std::vector<std::string> vars_;
    int n_workers_ = 1;
    std::vector<Ctx> worker_ctx_;
    bool has_async_ = false;
    bool biased_ = false;
    bool terminator_ = false;
    int async_counter_ = 0;

    // -- planning: names and resource ownership ------------------------------

    void plan() {
        int n_inputs = rng_.range(1, kMaxInputs);
        int n_int_v = rng_.range(0, kMaxInternals);
        int n_int_i = rng_.range(0, std::max(0, kMaxInternals - n_int_v));
        int n_vars = rng_.range(1, kMaxVars);
        n_workers_ = rng_.range(1, kMaxWorkers);
        for (int i = 0; i < n_inputs; ++i) inputs_.push_back("I" + std::to_string(i));
        for (int i = 0; i < n_int_v; ++i) internals_v_.push_back("e" + std::to_string(i));
        for (int i = 0; i < n_int_i; ++i) internals_i_.push_back("x" + std::to_string(i));
        for (int i = 0; i < n_vars; ++i) vars_.push_back("v" + std::to_string(i));
        terminator_ = rng_.chance(kTerminatorPermille);

        worker_ctx_.assign(static_cast<size_t>(n_workers_), Ctx{});
        // Partition ownership: each resource goes to one worker; with
        // conflict bias a resource is duplicated into a second worker, which
        // is exactly what the temporal analysis exists to refuse.
        auto deal = [&](const std::string& name, auto member) {
            Ctx& owner = worker_ctx_[static_cast<size_t>(rng_.range(0, n_workers_ - 1))];
            (owner.*member).push_back(name);
            if (n_workers_ > 1 && rng_.chance(kConflictPermille)) {
                Ctx& other =
                    worker_ctx_[static_cast<size_t>(rng_.range(0, n_workers_ - 1))];
                if (&other != &owner) {
                    (other.*member).push_back(name);
                    biased_ = true;
                }
            }
        };
        for (const auto& n : inputs_) deal(n, &Ctx::inputs);
        for (const auto& n : internals_v_) deal(n, &Ctx::internals_v);
        for (const auto& n : internals_i_) deal(n, &Ctx::internals_i);
        for (const auto& n : vars_) deal(n, &Ctx::wvars);
        for (Ctx& c : worker_ctx_) {
            c.emit_v = internals_v_;
            c.emit_i = internals_i_;
            c.rvars = c.wvars;  // reads stay write-local: see generator.hpp
            c.may_async = rng_.chance(kAsyncPermille);
            has_async_ = has_async_ || c.may_async;
        }
        // Exactly one worker gets print rights (its prints can never run
        // concurrently with the observer's — different triggers).
        if (rng_.chance(kWorkerPrintPermille)) {
            worker_ctx_[static_cast<size_t>(rng_.range(0, n_workers_ - 1))].may_print =
                true;
        }
        if (biased_) {
            // Shared triggers are already in play; sharing reads/prints too
            // deepens the refusal surface.
            for (Ctx& c : worker_ctx_) {
                if (rng_.chance(300)) c.rvars = vars_;
                if (rng_.chance(300)) c.may_print = true;
            }
        }
    }

    // -- expressions ---------------------------------------------------------

    ExprPtr leaf(const std::vector<std::string>& rvars) {
        if (!rvars.empty() && rng_.chance(600)) return var(rng_.pick(rvars));
        return num(rng_.range(0, 99));
    }

    ExprPtr expr(const std::vector<std::string>& rvars, int depth) {
        if (depth <= 0 || rng_.chance(300)) return leaf(rvars);
        switch (rng_.range(0, 7)) {
            case 0: return bin(Tok::Plus, expr(rvars, depth - 1), expr(rvars, depth - 1));
            case 1: return bin(Tok::Minus, expr(rvars, depth - 1), expr(rvars, depth - 1));
            case 2: return bin(Tok::Star, leaf(rvars), leaf(rvars));  // leaves only
            case 3: return bin(Tok::Slash, expr(rvars, depth - 1), num(rng_.range(1, 97)));
            case 4: return bin(Tok::Percent, expr(rvars, depth - 1), num(rng_.range(2, 97)));
            case 5: return bin(Tok::Lt, leaf(rvars), leaf(rvars));
            case 6: return bin(Tok::EqEq, leaf(rvars), num(rng_.range(0, 9)));
            default: {
                std::vector<ExprPtr> args;
                args.push_back(expr(rvars, depth - 1));
                return std::make_unique<CallExpr>(csym("abs"), std::move(args), kLoc);
            }
        }
    }

    /// RHS of every variable write: bounded to (-9973, 9973) so that no
    /// expression over bounded leaves can overflow int64 (UB in C).
    ExprPtr bounded_expr(const std::vector<std::string>& rvars) {
        return bin(Tok::Percent, expr(rvars, 2), num(9973));
    }

    // -- statements ----------------------------------------------------------

    /// Always produces a statement that awaits (the loop/par safety anchor).
    StmtPtr gen_await(const Ctx& c) {
        enum { Ext, ExtVal, IntV, IntVal, Time, Dyn, Kinds };
        std::vector<int> options;
        if (!c.inputs.empty()) {
            options.push_back(Ext);
            if (!c.wvars.empty()) options.push_back(ExtVal);
        }
        if (!c.internals_v.empty()) options.push_back(IntV);
        if (!c.internals_i.empty() && !c.wvars.empty()) options.push_back(IntVal);
        options.push_back(Time);
        if (!c.rvars.empty()) options.push_back(Dyn);
        switch (rng_.pick(options)) {
            case Ext:
                return std::make_unique<AwaitExtStmt>(rng_.pick(c.inputs), kLoc);
            case ExtVal:
                return assign_stmt_rhs(
                    rng_.pick(c.wvars),
                    std::make_unique<AwaitExtStmt>(rng_.pick(c.inputs), kLoc));
            case IntV:
                return std::make_unique<AwaitIntStmt>(rng_.pick(c.internals_v), kLoc);
            case IntVal:
                return assign_stmt_rhs(
                    rng_.pick(c.wvars),
                    std::make_unique<AwaitIntStmt>(rng_.pick(c.internals_i), kLoc));
            case Dyn: {
                // ((read % 50) + 51) * 1000 — always in [1ms, 101ms].
                ExprPtr us = bin(
                    Tok::Star,
                    bin(Tok::Plus, bin(Tok::Percent, leaf(c.rvars), num(50)), num(51)),
                    num(1000));
                return std::make_unique<AwaitDynStmt>(std::move(us), kLoc);
            }
            case Time:
            default:
                return std::make_unique<AwaitTimeStmt>(rng_.pick(kAwaitPool), kLoc);
        }
    }

    StmtPtr gen_emit(const Ctx& c) {
        bool pick_int = !c.emit_i.empty() && (c.emit_v.empty() || rng_.chance(500));
        if (pick_int) {
            auto e = std::make_unique<EmitIntStmt>(rng_.pick(c.emit_i), kLoc);
            if (rng_.chance(800)) e->value = bounded_expr(c.rvars);
            return e;
        }
        return std::make_unique<EmitIntStmt>(rng_.pick(c.emit_v), kLoc);
    }

    StmtPtr gen_if(const Ctx& c) {
        auto s = std::make_unique<IfStmt>(kLoc);
        s->cond = expr(c.rvars, 2);
        gen_seq(s->then_body, c, rng_.range(1, 2), /*lead_await=*/false);
        if (rng_.chance(500)) {
            s->has_else = true;
            gen_seq(s->else_body, c, rng_.range(1, 2), /*lead_await=*/false);
        }
        return s;
    }

    StmtPtr gen_loop(const Ctx& c) {
        auto s = std::make_unique<LoopStmt>(kLoc);
        Ctx inner = c;
        inner.depth = c.depth + 1;
        // The body starts with an unconditional await, so every path through
        // it suspends — the §2.5 rule holds by construction and any `break`
        // after it is non-instantaneous.
        gen_seq(s->body, inner, rng_.range(1, kMaxSeqLen - 1), /*lead_await=*/true);
        if (rng_.chance(250)) {
            if (rng_.chance(500)) {
                auto g = std::make_unique<IfStmt>(kLoc);
                g->cond = expr(c.rvars, 1);
                g->then_body.stmts.push_back(std::make_unique<BreakStmt>(kLoc));
                s->body.stmts.push_back(std::move(g));
            } else {
                s->body.stmts.push_back(std::make_unique<BreakStmt>(kLoc));
            }
        }
        return s;
    }

    StmtPtr gen_par(const Ctx& c) {
        auto s = std::make_unique<ParStmt>(rng_.chance(500) ? ParKind::ParAnd
                                                            : ParKind::ParOr,
                                           kLoc);
        // Split the context's resources between the two branches; branches
        // of one par are genuinely concurrent, so in unbiased mode they must
        // not share events or variables.
        Ctx a = c, b = c;
        a.depth = b.depth = c.depth + 1;
        if (!biased_) {
            a.inputs.clear(); b.inputs.clear();
            a.internals_v.clear(); b.internals_v.clear();
            a.internals_i.clear(); b.internals_i.clear();
            a.wvars.clear(); b.wvars.clear();
            for (const auto& n : c.inputs) (rng_.chance(500) ? a : b).inputs.push_back(n);
            for (const auto& n : c.internals_v)
                (rng_.chance(500) ? a : b).internals_v.push_back(n);
            for (const auto& n : c.internals_i)
                (rng_.chance(500) ? a : b).internals_i.push_back(n);
            for (const auto& n : c.wvars) (rng_.chance(500) ? a : b).wvars.push_back(n);
            a.rvars = a.wvars;
            b.rvars = b.wvars;
            // Sibling branches are concurrent: only one may keep the print
            // right (concurrent `_printf`s are a §2.6 C-call conflict).
            bool give_a = rng_.chance(500);
            a.may_print = c.may_print && give_a;
            b.may_print = c.may_print && !give_a;
        }
        s->branches.emplace_back();
        gen_seq(s->branches.back(), a, rng_.range(1, 3), /*lead_await=*/true);
        s->branches.emplace_back();
        gen_seq(s->branches.back(), b, rng_.range(1, 3), /*lead_await=*/true);
        return s;
    }

    /// `v = par do await ...; return e; with await ...; return e; end`.
    StmtPtr gen_value_par(const Ctx& c) {
        auto p = std::make_unique<ParStmt>(ParKind::Par, kLoc);
        for (int i = 0; i < 2; ++i) {
            p->branches.emplace_back();
            BlockBody& b = p->branches.back();
            b.stmts.push_back(gen_await(c));
            auto r = std::make_unique<ReturnStmt>(kLoc);
            r->value = bounded_expr(c.rvars);
            b.stmts.push_back(std::move(r));
        }
        return assign_stmt_rhs(rng_.pick(c.wvars), std::move(p));
    }

    /// `v = async do int a = 0; loop do a = a + 1; if a == K then break; end
    /// end; [emit T;] return a * k; end` — always settles.
    StmtPtr gen_async(const Ctx& c) {
        auto a = std::make_unique<AsyncStmt>(kLoc);
        std::string local = "a" + std::to_string(async_counter_++);
        a->body.stmts.push_back(decl_var(local, 0));
        auto loop = std::make_unique<LoopStmt>(kLoc);
        loop->body.stmts.push_back(
            assign(local, bin(Tok::Plus, var(local), num(1))));
        auto guard = std::make_unique<IfStmt>(kLoc);
        guard->cond = bin(Tok::EqEq, var(local), num(rng_.range(2, 40)));
        guard->then_body.stmts.push_back(std::make_unique<BreakStmt>(kLoc));
        loop->body.stmts.push_back(std::move(guard));
        a->body.stmts.push_back(std::move(loop));
        if (rng_.chance(350)) {
            a->body.stmts.push_back(
                std::make_unique<EmitTimeStmt>(rng_.pick(kAwaitPool), kLoc));
        }
        if (!inputs_.empty() && rng_.chance(250)) {
            auto em = std::make_unique<EmitExtStmt>(rng_.pick(inputs_), kLoc);
            em->value = num(rng_.range(0, 99));
            a->body.stmts.push_back(std::move(em));
        }
        auto r = std::make_unique<ReturnStmt>(kLoc);
        r->value = bin(Tok::Star, var(local), num(rng_.range(0, 9)));
        a->body.stmts.push_back(std::move(r));
        return assign_stmt_rhs(rng_.pick(c.wvars), std::move(a));
    }

    StmtPtr gen_print(const Ctx& c, int tag) {
        std::string fmt = "w" + std::to_string(tag);
        std::vector<ExprPtr> args;
        if (!c.rvars.empty()) {
            const std::string& v = rng_.pick(c.rvars);
            fmt += " " + v + "=%ld";
            args.push_back(var(v));
        }
        fmt += "\n";
        return printf_stmt(fmt, std::move(args));
    }

    void gen_seq(BlockBody& out, const Ctx& c, int len, bool lead_await) {
        if (lead_await) out.stmts.push_back(gen_await(c));
        for (int i = 0; i < len; ++i) {
            out.stmts.push_back(gen_stmt(c));
        }
    }

    StmtPtr gen_stmt(const Ctx& c) {
        // Weighted statement choice, constrained by the context.
        struct Choice { int weight; int kind; };
        enum { Assign, Emit, Await, If, Loop, Par, ValuePar, Async, Print };
        std::vector<Choice> table;
        if (!c.wvars.empty()) table.push_back({28, Assign});
        if (!c.emit_v.empty() || !c.emit_i.empty()) table.push_back({18, Emit});
        table.push_back({24, Await});
        if (!c.rvars.empty()) table.push_back({10, If});
        if (c.depth < kMaxDepth) table.push_back({7, Loop});
        if (c.depth + 1 < kMaxDepth && c.has_event()) table.push_back({5, Par});
        if (!c.wvars.empty()) table.push_back({3, ValuePar});
        if (c.may_async && !c.wvars.empty()) table.push_back({3, Async});
        if (c.may_print) table.push_back({6, Print});
        int total = 0;
        for (const Choice& ch : table) total += ch.weight;
        int roll = rng_.range(0, total - 1);
        int kind = Await;
        for (const Choice& ch : table) {
            if (roll < ch.weight) { kind = ch.kind; break; }
            roll -= ch.weight;
        }
        switch (kind) {
            case Assign: return assign(rng_.pick(c.wvars), bounded_expr(c.rvars));
            case Emit: return gen_emit(c);
            case If: return gen_if(c);
            case Loop: return gen_loop(c);
            case Par: return gen_par(c);
            case ValuePar: return gen_value_par(c);
            case Async: return gen_async(c);
            case Print: return gen_print(c, c.depth);
            case Await:
            default: return gen_await(c);
        }
    }

    // -- program assembly ----------------------------------------------------

    void build_worker(BlockBody& out, Ctx& c, int index) {
        // Workers open with an await so their bodies never run in the boot
        // reaction (all workers boot concurrently).
        bool lead = !biased_ || rng_.chance(800);
        gen_seq(out, c, rng_.range(1, kMaxSeqLen), lead);
        // Keep the trail alive: most workers loop forever over their events.
        if (rng_.chance(700)) {
            auto loop = std::make_unique<LoopStmt>(kLoc);
            Ctx inner = c;
            inner.depth = c.depth + 1;
            gen_seq(loop->body, inner, rng_.range(1, 3), /*lead_await=*/true);
            out.stmts.push_back(std::move(loop));
        } else {
            out.stmts.push_back(std::make_unique<AwaitForeverStmt>(kLoc));
        }
        (void)index;
    }

    void build_observer(BlockBody& out) {
        auto loop = std::make_unique<LoopStmt>(kLoc);
        loop->body.stmts.push_back(std::make_unique<AwaitExtStmt>("Obs", kLoc));
        std::string fmt = "obs";
        std::vector<ExprPtr> args;
        for (const auto& v : vars_) {
            fmt += " " + v + "=%ld";
            args.push_back(var(v));
        }
        fmt += "\n";
        loop->body.stmts.push_back(printf_stmt(fmt, std::move(args)));
        out.stmts.push_back(std::move(loop));
    }

    void build_terminator(BlockBody& out) {
        out.stmts.push_back(
            std::make_unique<AwaitTimeStmt>(rng_.pick(kAdvancePool) * 2, kLoc));
        auto r = std::make_unique<ReturnStmt>(kLoc);
        r->value = bin(Tok::Percent, expr(vars_, 1), num(100));
        out.stmts.push_back(std::move(r));
    }

    void build_program(Program& prog) {
        prog.name = "fuzz" + std::to_string(seed_);
        // input int I0, ..., Obs;
        auto in = std::make_unique<DeclInputStmt>(kLoc);
        in->type = Type{"int", 0, false};
        in->names = inputs_;
        in->names.push_back("Obs");
        prog.body.stmts.push_back(std::move(in));
        if (!internals_v_.empty()) {
            auto d = std::make_unique<DeclInternalStmt>(kLoc);
            d->type = Type{"void", 0, false};
            d->names = internals_v_;
            prog.body.stmts.push_back(std::move(d));
        }
        if (!internals_i_.empty()) {
            auto d = std::make_unique<DeclInternalStmt>(kLoc);
            d->type = Type{"int", 0, false};
            d->names = internals_i_;
            prog.body.stmts.push_back(std::move(d));
        }
        // `_abs` appears inside expressions of concurrent trails; declaring
        // it pure keeps those calls out of the C-conflict check (§2.6).
        {
            auto p = std::make_unique<PureStmt>(kLoc);
            p->names.push_back("abs");
            prog.body.stmts.push_back(std::move(p));
        }
        for (const auto& v : vars_) {
            prog.body.stmts.push_back(decl_var(v, rng_.range(0, 99)));
        }
        auto par = std::make_unique<ParStmt>(ParKind::Par, kLoc);
        for (int w = 0; w < n_workers_; ++w) {
            par->branches.emplace_back();
            build_worker(par->branches.back(), worker_ctx_[static_cast<size_t>(w)], w);
        }
        par->branches.emplace_back();
        build_observer(par->branches.back());
        if (terminator_) {
            par->branches.emplace_back();
            build_terminator(par->branches.back());
        }
        prog.body.stmts.push_back(std::move(par));
    }

    // -- scripts -------------------------------------------------------------

    env::Script build_script() {
        env::Script s;
        std::vector<std::string> all_inputs = inputs_;
        all_inputs.push_back("Obs");
        int len = rng_.range(kScriptLen / 2, kScriptLen);
        for (int i = 0; i < len; ++i) {
            int roll = rng_.range(0, 99);
            if (roll < 40) {
                s.event(rng_.pick(all_inputs), rng_.range(0, 99));
            } else if (roll < 80) {
                s.advance(rng_.pick(kAdvancePool));
            } else if (roll < 88 && has_async_) {
                s.settle_asyncs();
            } else {
                s.event("Obs", 0);
            }
        }
        s.event("Obs", 0);
        if (has_async_) s.settle_asyncs();
        return s;
    }
};

}  // namespace

GenCase generate(uint64_t seed) { return Generator(seed).run(); }

TimingChain timing_chain(uint64_t seed, int max_segments) {
    Rng rng(seed * 0x51ed270b + 17);
    TimingChain out;
    int n = rng.range(2, std::max(2, max_segments));
    std::string src = "int s = 0;\n";
    for (int i = 0; i < n; ++i) {
        Micros d = rng.pick(kAwaitPool);
        out.durations.push_back(d);
        out.total += d;
        src += "await " + format_micros(d) + ";\n";
        src += "s = s + 1;\n";
        src += "_printf(\"seg %ld\\n\", s);\n";
    }
    src += "return s;\n";
    out.source = src;
    return out;
}

std::string render(const ast::Program& prog) { return ast::print_block(prog.body); }

std::string script_text(const env::Script& s) {
    std::string out;
    for (const auto& item : s.items()) {
        switch (item.kind) {
            case env::ScriptItem::Kind::Event:
                out += "E " + item.event + " " + std::to_string(item.value.as_int()) + "\n";
                break;
            case env::ScriptItem::Kind::Advance:
                out += "T " + std::to_string(item.us) + "\n";
                break;
            case env::ScriptItem::Kind::AsyncIdle:
                out += "A\n";
                break;
            case env::ScriptItem::Kind::Crash:
                out += "C\n";
                break;
        }
    }
    return out;
}

}  // namespace ceu::testgen
