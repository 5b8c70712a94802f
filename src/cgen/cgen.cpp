#include "cgen/cgen.hpp"

#include <sstream>

#include "cgen/aot_abi.hpp"
#include "obs/trace_format.hpp"
#include "runtime/engine.hpp"

namespace ceu::cgen {

using flat::FlatProgram;
using flat::Instr;
using flat::IOp;
using flat::Pc;

namespace {

class Emitter {
  public:
    Emitter(const flat::CompiledProgram& cp, const CgenOptions& opt)
        : cp_(cp), fp_(cp.flat), opt_(opt), re_(opt.reentrant) {}

    std::string run() {
        prelude();
        // In reentrant mode the weak ceu_obs_* file machinery only backs the
        // default host of the deprecated single-instance wrappers; a pure
        // shared-object TU routes observability through its host vtable.
        if (!re_ || opt_.with_main) obs_hooks();
        tables();
        runtime_core();
        track_dispatch();
        async_dispatch();
        api();
        if (re_) reentrant_epilogue();
        if (opt_.with_main) main_harness();
        return os_.str();
    }

  private:
    const flat::CompiledProgram& cp_;
    const FlatProgram& fp_;
    const CgenOptions& opt_;
    const bool re_;
    std::ostringstream os_;

    // -- expressions -----------------------------------------------------------

    std::string slot_ref(int slot) { return "DATA[" + std::to_string(slot) + "]"; }

    std::string var_slot_ref(int decl_id) {
        return slot_ref(fp_.var_slot[static_cast<size_t>(decl_id)]);
    }

    static std::string c_escape(const std::string& s) {
        std::string out;
        for (char c : s) {
            switch (c) {
                case '\n': out += "\\n"; break;
                case '\t': out += "\\t"; break;
                case '"': out += "\\\""; break;
                case '\\': out += "\\\\"; break;
                default: out += c; break;
            }
        }
        return out;
    }

    static const char* binop_c(Tok op) {
        switch (op) {
            case Tok::OrOr: return "||";
            case Tok::AndAnd: return "&&";
            case Tok::Or: return "|";
            case Tok::Xor: return "^";
            case Tok::And: return "&";
            case Tok::Ne: return "!=";
            case Tok::EqEq: return "==";
            case Tok::Le: return "<=";
            case Tok::Ge: return ">=";
            case Tok::Lt: return "<";
            case Tok::Gt: return ">";
            case Tok::Shl: return "<<";
            case Tok::Shr: return ">>";
            case Tok::Plus: return "+";
            case Tok::Minus: return "-";
            case Tok::Star: return "*";
            case Tok::Slash: return "/";
            case Tok::Percent: return "%";
            default: return "?";
        }
    }

    std::string expr(const ast::Expr& e) {
        using ast::ExprKind;
        switch (e.kind) {
            case ExprKind::Num:
                return "INT64_C(" +
                       std::to_string(static_cast<const ast::NumExpr&>(e).value) + ")";
            case ExprKind::Str:
                return "(int64_t)(intptr_t)\"" +
                       c_escape(static_cast<const ast::StrExpr&>(e).value) + "\"";
            case ExprKind::Null:
                return "INT64_C(0)";
            case ExprKind::Var: {
                const auto& n = static_cast<const ast::VarExpr&>(e);
                const VarInfo& vi = cp_.sema.vars[static_cast<size_t>(n.decl_id)];
                if (vi.array_size > 0) {
                    return "(int64_t)(intptr_t)&" + var_slot_ref(n.decl_id);
                }
                return var_slot_ref(n.decl_id);
            }
            case ExprKind::CSym: {
                // Repassed as-is with the underscore removed (paper §2.4).
                const auto& n = static_cast<const ast::CSymExpr&>(e);
                return "(int64_t)(" + n.name + ")";
            }
            case ExprKind::Unop: {
                const auto& n = static_cast<const ast::UnopExpr&>(e);
                switch (n.op) {
                    case Tok::Not: return "(!" + expr(*n.sub) + ")";
                    case Tok::Tilde: return "(~" + expr(*n.sub) + ")";
                    case Tok::Minus: return "(-" + expr(*n.sub) + ")";
                    case Tok::Plus: return "(+" + expr(*n.sub) + ")";
                    case Tok::Star:
                        return "(*(int64_t*)(intptr_t)" + expr(*n.sub) + ")";
                    case Tok::And: return addr_of(*n.sub);
                    default: return "0";
                }
            }
            case ExprKind::Binop: {
                const auto& n = static_cast<const ast::BinopExpr&>(e);
                return "(" + expr(*n.lhs) + " " + binop_c(n.op) + " " + expr(*n.rhs) + ")";
            }
            case ExprKind::Index: return lvalue(e);
            case ExprKind::Call: {
                const auto& n = static_cast<const ast::CallExpr&>(e);
                std::string out = "(int64_t)" + callee(*n.fn) + "(";
                for (size_t i = 0; i < n.args.size(); ++i) {
                    if (i) out += ", ";
                    out += expr(*n.args[i]);
                }
                return out + ")";
            }
            case ExprKind::Cast:
                return "(int64_t)(" + expr(*static_cast<const ast::CastExpr&>(e).sub) + ")";
            case ExprKind::SizeOf: {
                const auto& n = static_cast<const ast::SizeOfExpr&>(e);
                return "(int64_t)sizeof(" + ctype(n.type) + ")";
            }
            case ExprKind::Field: {
                const auto& n = static_cast<const ast::FieldExpr&>(e);
                return expr(*n.base) + (n.arrow ? "->" : ".") + n.field;
            }
        }
        return "0";
    }

    /// A call evaluated purely for effect: no int64_t cast (the callee may
    /// return void).
    std::string stmt_expr(const ast::Expr& e) {
        if (e.kind == ast::ExprKind::Call) {
            const auto& n = static_cast<const ast::CallExpr&>(e);
            std::string out = callee(*n.fn) + "(";
            for (size_t i = 0; i < n.args.size(); ++i) {
                if (i) out += ", ";
                out += expr(*n.args[i]);
            }
            return out + ")";
        }
        return "(void)(" + expr(e) + ")";
    }

    static std::string ctype(const ast::Type& t) {
        std::string s = t.name;
        for (int i = 0; i < t.pointer_depth; ++i) s += "*";
        return s;
    }

    std::string addr_of(const ast::Expr& e) {
        using ast::ExprKind;
        if (e.kind == ExprKind::Var) {
            const auto& n = static_cast<const ast::VarExpr&>(e);
            return "(int64_t)(intptr_t)&" + var_slot_ref(n.decl_id);
        }
        return "(int64_t)(intptr_t)&(" + lvalue(e) + ")";
    }

    std::string callee(const ast::Expr& fn) {
        using ast::ExprKind;
        if (fn.kind == ExprKind::CSym) {
            return static_cast<const ast::CSymExpr&>(fn).name;
        }
        if (fn.kind == ExprKind::Field) {
            const auto& f = static_cast<const ast::FieldExpr&>(fn);
            return expr(*f.base) + (f.arrow ? "->" : ".") + f.field;
        }
        return "/*uncallable*/0";
    }

    std::string lvalue(const ast::Expr& e) {
        using ast::ExprKind;
        switch (e.kind) {
            case ExprKind::Var:
                return var_slot_ref(static_cast<const ast::VarExpr&>(e).decl_id);
            case ExprKind::CSym:
                return static_cast<const ast::CSymExpr&>(e).name;
            case ExprKind::Unop: {
                const auto& n = static_cast<const ast::UnopExpr&>(e);
                return "(*(int64_t*)(intptr_t)" + expr(*n.sub) + ")";
            }
            case ExprKind::Index: {
                const auto& n = static_cast<const ast::IndexExpr&>(e);
                const ast::Expr* root = n.base.get();
                if (root->kind == ExprKind::Var) {
                    const auto& v = static_cast<const ast::VarExpr&>(*root);
                    const VarInfo& vi = cp_.sema.vars[static_cast<size_t>(v.decl_id)];
                    if (vi.array_size > 0) {
                        return "DATA[" +
                               std::to_string(fp_.var_slot[static_cast<size_t>(v.decl_id)]) +
                               " + (" + expr(*n.index) + ")]";
                    }
                    // pointer variable indexed
                    return "((int64_t*)(intptr_t)" + var_slot_ref(v.decl_id) + ")[" +
                           expr(*n.index) + "]";
                }
                if (root->kind == ExprKind::CSym) {
                    return static_cast<const ast::CSymExpr&>(*root).name + "[" +
                           expr(*n.index) + "]";
                }
                // nested index (e.g. _MAP[i][j]) or pointer expression
                return lvalue(*root) + "[" + expr(*n.index) + "]";
            }
            case ExprKind::Field: {
                const auto& n = static_cast<const ast::FieldExpr&>(e);
                return expr(*n.base) + (n.arrow ? "->" : ".") + n.field;
            }
            default:
                return "/*not-an-lvalue*/DATA[0]";
        }
    }

    // -- sections ----------------------------------------------------------------

    void prelude() {
        os_ << "/* Generated by ceu-cpp from '" << opt_.program_name
            << "'. Single-threaded C in the scheme of the paper, section 4. */\n"
            << "#include <stdint.h>\n#include <string.h>\n";
        if (opt_.with_libc) {
            os_ << "#include <stdio.h>\n#include <stdlib.h>\n#include <assert.h>\n"
                << "#include <time.h>\n";
        }
        if (re_) os_ << "#include <stdarg.h>\n#include <stddef.h>\n";
        // Output-event hooks: the environment implements these (weakly
        // defaulted to a stdout note when libc is available). A pure
        // shared-object TU skips them: output events route through the host
        // vtable, never through link-time hooks.
        if (!re_ || opt_.with_main) {
            for (const auto& o : cp_.sema.outputs) {
                os_ << "void ceu_output_" << o.name << "(int64_t v)";
                if (opt_.with_libc) {
                    os_ << " __attribute__((weak));\n"
                        << "void ceu_output_" << o.name
                        << "(int64_t v) { printf(\"output " << o.name
                        << " = %lld\\n\", (long long)v); }\n";
                } else {
                    os_ << ";\n";
                }
            }
        }
        os_ << "\n/* ---- user C blocks (repassed verbatim) ---- */\n";
        for (const std::string& blk : cp_.sema.c_blocks) os_ << blk << "\n";
        os_ << "\n";
        if (re_) os_ << kAotAbiC << "\n";
    }

    void obs_hooks() {
        os_ << "/* ---- reaction-trace hooks (ceu_obs_*, weak: the embedder may\n"
               " * relink them). The defaults are no-ops until ceu_obs_open()\n"
               " * arms a file; they then stream Chrome trace_event JSON with\n"
               " * the exact format strings of src/obs/trace_format.hpp, so a\n"
               " * traced run is byte-identical with the interpreter's\n"
               " * ChromeTraceSink on the same input script. ---- */\n";
        if (!opt_.with_libc) {
            // Freestanding target: keep the hook symbols (a platform layer
            // can relink them) but default them to empty stubs.
            os_ << "__attribute__((weak)) void ceu_obs_open(const char* path) { (void)path; }\n"
                << "__attribute__((weak)) void ceu_obs_close(void) {}\n"
                << "__attribute__((weak)) void ceu_obs_begin(int kind, int id, const char* name, int64_t ts) { (void)kind; (void)id; (void)name; (void)ts; }\n"
                << "__attribute__((weak)) void ceu_obs_wake(int gate) { (void)gate; }\n"
                << "__attribute__((weak)) void ceu_obs_emit(int evt, int depth) { (void)evt; (void)depth; }\n"
                << "__attribute__((weak)) void ceu_obs_timer(int gate, int64_t residual) { (void)gate; (void)residual; }\n"
                << "__attribute__((weak)) void ceu_obs_end(int status, int64_t result) { (void)status; (void)result; }\n\n";
            return;
        }
        os_ << "static FILE* ceu_obs_f;\n"
            << "static int ceu_obs_first, ceu_obs_span;\n"
            << "static unsigned long long ceu_obs_seq;\n"
            << "static long long ceu_obs_ts;\n"
            << "__attribute__((weak)) void ceu_obs_open(const char* path) {\n"
            << "    ceu_obs_f = fopen(path, \"w\");\n"
            << "    if (ceu_obs_f) { fputs(\"" << c_escape(obs::kTraceHeader)
            << "\", ceu_obs_f); ceu_obs_first = 1; }\n"
            << "}\n"
            << "static void ceu_obs_sep(void) {\n"
            << "    if (!ceu_obs_first) fputs(\"" << c_escape(obs::kTraceSep)
            << "\", ceu_obs_f);\n"
            << "    ceu_obs_first = 0;\n"
            << "}\n"
            << "__attribute__((weak)) void ceu_obs_begin(int kind, int id, const char* name, int64_t ts) {\n"
            << "    static const char* K[4] = {\"boot\", \"event\", \"timer\", \"async\"};\n"
            << "    if (!ceu_obs_f) return;\n"
            << "    ceu_obs_ts = (long long)ts; ceu_obs_span = 1;\n"
            << "    ceu_obs_sep();\n"
            << "    fprintf(ceu_obs_f, \"" << c_escape(obs::kFmtReactionBegin)
            << "\", ceu_obs_ts, K[kind], id, name, ceu_obs_seq++);\n"
            << "}\n"
            << "__attribute__((weak)) void ceu_obs_wake(int gate) {\n"
            << "    if (!ceu_obs_f || !ceu_obs_span) return;\n"
            << "    ceu_obs_sep();\n"
            << "    fprintf(ceu_obs_f, \"" << c_escape(obs::kFmtWake)
            << "\", ceu_obs_ts, gate);\n"
            << "}\n"
            << "__attribute__((weak)) void ceu_obs_emit(int evt, int depth) {\n"
            << "    if (!ceu_obs_f || !ceu_obs_span) return;\n"
            << "    ceu_obs_sep();\n"
            << "    fprintf(ceu_obs_f, \"" << c_escape(obs::kFmtEmit)
            << "\", ceu_obs_ts, evt, depth);\n"
            << "}\n"
            << "__attribute__((weak)) void ceu_obs_timer(int gate, int64_t residual) {\n"
            << "    if (!ceu_obs_f || !ceu_obs_span) return;\n"
            << "    ceu_obs_sep();\n"
            << "    fprintf(ceu_obs_f, \"" << c_escape(obs::kFmtTimerFire)
            << "\", ceu_obs_ts, gate, (long long)residual);\n"
            << "}\n"
            << "__attribute__((weak)) void ceu_obs_end(int status, int64_t result) {\n"
            << "    if (!ceu_obs_f || !ceu_obs_span) return;\n"
            << "    ceu_obs_span = 0;\n"
            << "    ceu_obs_sep();\n"
            << "    if (status == 2)\n"
            << "        fprintf(ceu_obs_f, \"" << c_escape(obs::kFmtReactionEndResult)
            << "\", ceu_obs_ts, status, (long long)result);\n"
            << "    else\n"
            << "        fprintf(ceu_obs_f, \"" << c_escape(obs::kFmtReactionEnd)
            << "\", ceu_obs_ts, status);\n"
            << "}\n"
            << "__attribute__((weak)) void ceu_obs_close(void) {\n"
            << "    if (!ceu_obs_f) return;\n"
            << "    fputs(\"" << c_escape(obs::kTraceFooter) << "\", ceu_obs_f);\n"
            << "    fclose(ceu_obs_f); ceu_obs_f = 0;\n"
            << "}\n\n";
    }

    void tables() {
        os_ << "/* ---- static memory layout (paper 4.2) ---- */\n"
            << "#define CEU_DATA_N " << (fp_.data_size > 0 ? fp_.data_size : 1) << "\n"
            << "#define CEU_GATES_N " << (fp_.gates.empty() ? 1 : fp_.gates.size())
            << "\n"
            << "#define CEU_NORMAL_PRIO 1000000000\n";
        if (!re_) {
            // Reentrant mode keeps DATA/GATES inside ceu_ctx_t instead.
            os_ << "static int64_t DATA[CEU_DATA_N];\n"
                << "static uint8_t GATES[CEU_GATES_N];\n";
        }
        os_ << "static const int GATE_CONT[CEU_GATES_N] = {";
        for (size_t g = 0; g < fp_.gates.size(); ++g) {
            if (g) os_ << ", ";
            os_ << fp_.gates[g].cont;
        }
        if (fp_.gates.empty()) os_ << "0";
        os_ << "};\n\n";
    }

    void runtime_core() {
        // Queue capacities are static bounds derived from the program, as
        // the paper's temporal analysis prescribes (§4.1): a track queue can
        // hold at most one continuation per gate plus the rejoin
        // continuations; each `emit` site occupies the stack at most once;
        // timers are bounded by the timed-await sites.
        size_t timer_gates = 0;
        for (const auto& g : fp_.gates) {
            if (g.kind == flat::GateInfo::Kind::Time ||
                g.kind == flat::GateInfo::Kind::Dyn) {
                ++timer_gates;
            }
        }
        size_t emit_sites = 0;
        for (const auto& i : fp_.code) {
            if (i.op == IOp::EmitInt) ++emit_sites;
        }
        os_ << "#define CEU_QCAP "
            << (fp_.gates.size() + fp_.pars.size() + fp_.escapes.size() + 4) << "\n"
            << "#define CEU_TCAP " << (timer_gates + 1) << "\n"
            << "#define CEU_SCAP " << (emit_sites + 1) << "\n"
            << "#define CEU_ACAP " << fp_.async_capacity() << "\n";
        os_ << R"(/* ---- runtime bookkeeping (statically bounded queues) ---- */
typedef struct { int pc; int prio; unsigned long seq; int64_t wake; } ceu_track_t;
typedef struct { int gate; int64_t deadline; } ceu_timer_t;
typedef struct { int resume; int prio; int dead; } ceu_frame_t;
typedef struct { int idx; int pc; int alive; } ceu_async_t;
)";
        if (re_) {
            reentrant_state();
        } else {
            os_ << R"(static ceu_track_t Q[CEU_QCAP]; static int qn;
static ceu_timer_t TM[CEU_TCAP]; static int tn;
static ceu_frame_t ST[CEU_SCAP]; static int sn;
static ceu_async_t AS[CEU_ACAP]; static int an; static int arr;
static unsigned long ceu_seq;
static int64_t ceu_now, ceu_logical;
static int ceu_status;           /* 0=loaded 1=running 2=terminated 3=faulted */
static int64_t ceu_result;
/* Deterministic fault lever (the interpreter's `_ceu_trip` binding throws a
 * recoverable RuntimeError): mark the instance faulted and drain the
 * scheduler. The current track still runs to its next await, so callers
 * place the trip immediately before one. */
__attribute__((unused)) static int64_t ceu_trip(void) {
    if (ceu_status == 1) { ceu_status = 3; qn = 0; sn = 0; }
    return 0;
}
)";
        }
        // The scheduler bodies below are shared between the two modes: in
        // reentrant mode every identifier they touch is a macro over `C`.
        if (re_) {
            os_ << "static void ceu_enqueue_fn(ceu_ctx_t* C, int pc, int prio, int64_t wake) {\n";
        } else {
            os_ << "static void ceu_enqueue(int pc, int prio, int64_t wake) {\n";
        }
        os_ << R"(    if (qn < CEU_QCAP) { Q[qn].pc = pc; Q[qn].prio = prio; Q[qn].seq = ceu_seq++; Q[qn].wake = wake; qn++; }
}
)";
        if (re_) {
            os_ << "static int ceu_pop_fn(ceu_ctx_t* C, ceu_track_t* out) {\n";
        } else {
            os_ << "static int ceu_pop(ceu_track_t* out) {\n";
        }
        os_ << R"(    int best = 0, i;
    if (qn == 0) return 0;
    for (i = 1; i < qn; i++)
        if (Q[i].prio > Q[best].prio || (Q[i].prio == Q[best].prio && Q[i].seq < Q[best].seq)) best = i;
    *out = Q[best];
    for (i = best; i + 1 < qn; i++) Q[i] = Q[i + 1];
    qn--;
    return 1;
}
)";
        if (re_) {
            os_ << "static void ceu_wake_fn(ceu_ctx_t* C, int gate, int64_t v) "
                   "{ GATES[gate] = 0; ceu_enqueue(GATE_CONT[gate], CEU_NORMAL_PRIO, v); }\n"
                << "static void ceu_arm_fn(ceu_ctx_t* C, int gate, int64_t deadline) {\n";
        } else {
            os_ << "static void ceu_wake(int gate, int64_t v) "
                   "{ GATES[gate] = 0; ceu_enqueue(GATE_CONT[gate], CEU_NORMAL_PRIO, v); }\n"
                << "static void ceu_arm(int gate, int64_t deadline) {\n";
        }
        os_ << R"(    if (tn < CEU_TCAP) { TM[tn].gate = gate; TM[tn].deadline = deadline; tn++; }
}
)";
        if (re_) {
            os_ << "static void ceu_reaction_fn(ceu_ctx_t* C) {\n"
                   "    C->ceu_reactions++;\n";
        } else {
            os_ << "static void exec_track(int pc, int prio, int64_t wake);\n"
                << "static void ceu_reaction(void) {\n";
        }
        os_ << R"(    for (;;) {
        ceu_track_t t;
        if (ceu_pop(&t)) { exec_track(t.pc, t.prio, t.wake); }
        else if (sn > 0) {
            ceu_frame_t f = ST[--sn];
            if (f.dead) continue;
            exec_track(f.resume, f.prio, 0);
        } else break;
    }
    if (ceu_status == 1) {
        int g, any = 0;
        for (g = 0; g < CEU_GATES_N; g++) any |= GATES[g];
        if (!any) ceu_status = 2;
    }
    ceu_obs_end(ceu_status, ceu_result);
}
)";
        if (re_) {
            os_ << "static void ceu_kill_fn(ceu_ctx_t* C, int pc0, int pc1, int g0, int g1) {\n";
        } else {
            os_ << "static void ceu_kill(int pc0, int pc1, int g0, int g1) {\n";
        }
        os_ << R"(    int i, j;
    memset(GATES + g0, 0, (size_t)(g1 - g0));   /* paper 4.3: range clear */
    for (i = 0; i < tn;) { if (TM[i].gate >= g0 && TM[i].gate < g1) { TM[i] = TM[--tn]; } else i++; }
    j = 0;
    for (i = 0; i < qn; i++) if (!(Q[i].pc >= pc0 && Q[i].pc < pc1)) Q[j++] = Q[i];
    qn = j;
    for (i = 0; i < sn; i++) if (ST[i].resume >= pc0 && ST[i].resume < pc1) ST[i].dead = 1;
    for (i = 0; i < an; i++) {
)";
        // async gate-range kill (needs the per-async gate table)
        os_ << "        static const int ASYNC_GATE[] = {";
        for (size_t a = 0; a < fp_.asyncs.size(); ++a) {
            if (a) os_ << ", ";
            os_ << fp_.asyncs[a].gate;
        }
        if (fp_.asyncs.empty()) os_ << "-1";
        os_ << "};\n"
            << "        if (AS[i].alive && ASYNC_GATE[AS[i].idx] >= g0 && "
               "ASYNC_GATE[AS[i].idx] < g1) AS[i].alive = 0;\n"
            << "    }\n}\n\n";
    }

    /// Reentrant mode: the per-instance context type, the thread-local
    /// current-instance pointer, host-vtable shims, the default host used by
    /// the deprecated wrappers, and the macro layer that retargets the shared
    /// scheduler text at `C`.
    void reentrant_state() {
        os_ << R"(/* ---- per-instance context: every mutable word of program state.
 * POD on purpose — a snapshot is a memcpy of this struct (the host
 * pointer is re-fixed on restore). ---- */
typedef struct ceu_ctx {
    const ceu_host_api_t* host;
    int64_t DATA[CEU_DATA_N];
    uint8_t GATES[CEU_GATES_N];
    ceu_track_t Q[CEU_QCAP]; int qn;
    ceu_timer_t TM[CEU_TCAP]; int tn;
    ceu_frame_t ST[CEU_SCAP]; int sn;
    ceu_async_t AS[CEU_ACAP]; int an; int arr;
    unsigned long ceu_seq;
    int64_t ceu_now, ceu_logical;
    int ceu_status;              /* 0=loaded 1=running 2=terminated 3=faulted */
    int64_t ceu_result;
    unsigned long long ceu_reactions;
} ceu_ctx_t;
/* The instance whose reaction is on this thread's stack: free-form user C
 * (`_printf`, `_ceu_trip`) reaches the right context through it without
 * threading a parameter through every generated expression. */
static _Thread_local ceu_ctx_t* ceu_cur;
/* `_printf` lands here: one call becomes one host trace line (a single
 * trailing newline is stripped) and the stripped length is returned,
 * matching the interpreter's `_printf` binding exactly. */
__attribute__((unused)) static int ceu_aot_printf(int64_t fmt_i, ...) {
    const char* fmt = (const char*)(intptr_t)fmt_i;
    char buf[1024];
    va_list ap; int n;
    va_start(ap, fmt_i);
    n = vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    if (n < 0) return n;
    if (n >= (int)sizeof buf) n = (int)sizeof buf - 1;
    if (n > 0 && buf[n - 1] == '\n') buf[--n] = 0;
    if (ceu_cur && ceu_cur->host && ceu_cur->host->trace_line)
        ceu_cur->host->trace_line(ceu_cur->host->user, buf, n);
    return n;
}
/* Deterministic fault lever (the interpreter's `_ceu_trip` binding throws a
 * recoverable RuntimeError): mark the instance faulted and drain the
 * scheduler. The current track still runs to its next await, so callers
 * place the trip immediately before one. */
__attribute__((unused)) static int64_t ceu_trip(void) {
    ceu_ctx_t* C = ceu_cur;
    if (C && C->ceu_status == 1) { C->ceu_status = 3; C->qn = 0; C->sn = 0; }
    return 0;
}
static void ceu_hobs_begin(ceu_ctx_t* C, int kind, int id, const char* name, int64_t ts) {
    if (C->host && C->host->obs_begin) C->host->obs_begin(C->host->user, kind, id, name, ts);
}
static void ceu_hobs_wake(ceu_ctx_t* C, int gate) {
    if (C->host && C->host->obs_wake) C->host->obs_wake(C->host->user, gate);
}
static void ceu_hobs_emit(ceu_ctx_t* C, int evt, int depth) {
    if (C->host && C->host->obs_emit) C->host->obs_emit(C->host->user, evt, depth);
}
static void ceu_hobs_timer(ceu_ctx_t* C, int gate, int64_t residual) {
    if (C->host && C->host->obs_timer) C->host->obs_timer(C->host->user, gate, residual);
}
static void ceu_hobs_end(ceu_ctx_t* C, int status, int64_t result) {
    if (C->host && C->host->obs_end) C->host->obs_end(C->host->user, status, result);
}
)";
        if (!cp_.sema.outputs.empty()) {
            os_ << "static void ceu_hout(ceu_ctx_t* C, int idx, const char* name, int64_t v) {\n"
                   "    if (C->host && C->host->output) C->host->output(C->host->user, idx, name, v);\n"
                   "}\n";
        }
        if (opt_.with_main) default_host();
        os_ << R"(static void ceu_enqueue_fn(ceu_ctx_t* C, int pc, int prio, int64_t wake);
static int ceu_pop_fn(ceu_ctx_t* C, ceu_track_t* out);
static void ceu_wake_fn(ceu_ctx_t* C, int gate, int64_t v);
static void ceu_arm_fn(ceu_ctx_t* C, int gate, int64_t deadline);
static void ceu_reaction_fn(ceu_ctx_t* C);
static void ceu_kill_fn(ceu_ctx_t* C, int pc0, int pc1, int g0, int g1);
static void exec_track_fn(ceu_ctx_t* C, int pc, int prio, int64_t wake);
static void ceu_async_done_fn(ceu_ctx_t* C, int idx, int64_t v);
static int exec_async_fn(ceu_ctx_t* C, ceu_async_t* a);
static void ceu_api_init(ceu_ctx_t* C);
static void ceu_api_event(ceu_ctx_t* C, int evt, int64_t val);
static void ceu_api_time(ceu_ctx_t* C, int64_t now);
static int ceu_api_async(ceu_ctx_t* C);
/* ---- instance-context redirection: everything from here to the #undef
 * block is the same emitter text as the process-global build, reading and
 * writing the context through these macros. ---- */
#define DATA (C->DATA)
#define GATES (C->GATES)
#define Q (C->Q)
#define qn (C->qn)
#define TM (C->TM)
#define tn (C->tn)
#define ST (C->ST)
#define sn (C->sn)
#define AS (C->AS)
#define an (C->an)
#define arr (C->arr)
#define ceu_seq (C->ceu_seq)
#define ceu_now (C->ceu_now)
#define ceu_logical (C->ceu_logical)
#define ceu_status (C->ceu_status)
#define ceu_result (C->ceu_result)
#define ceu_enqueue(p, r, w) ceu_enqueue_fn(C, (p), (r), (w))
#define ceu_pop(o) ceu_pop_fn(C, (o))
#define ceu_wake(g, v) ceu_wake_fn(C, (g), (v))
#define ceu_arm(g, d) ceu_arm_fn(C, (g), (d))
#define ceu_reaction() ceu_reaction_fn(C)
#define ceu_kill(a, b, c, d) ceu_kill_fn(C, (a), (b), (c), (d))
#define exec_track(p, r, w) exec_track_fn(C, (p), (r), (w))
#define ceu_async_done(i, v) ceu_async_done_fn(C, (i), (v))
#define exec_async(a) exec_async_fn(C, (a))
#define ceu_go_event(e, v) ceu_api_event(C, (e), (v))
#define ceu_go_time(t) ceu_api_time(C, (t))
#define ceu_obs_begin(k, i, n, t) ceu_hobs_begin(C, (k), (i), (n), (t))
#define ceu_obs_wake(g) ceu_hobs_wake(C, (g))
#define ceu_obs_emit(e, d) ceu_hobs_emit(C, (e), (d))
#define ceu_obs_timer(g, r) ceu_hobs_timer(C, (g), (r))
#define ceu_obs_end(s, r) ceu_hobs_end(C, (s), (r))
#define printf ceu_aot_printf
)";
        for (size_t i = 0; i < cp_.sema.outputs.size(); ++i) {
            const auto& o = cp_.sema.outputs[i];
            os_ << "#define ceu_output_" << o.name << "(v) ceu_hout(C, " << i
                << ", \"" << c_escape(o.name) << "\", (v))\n";
        }
        os_ << "\n";
    }

    /// Host vtable used by the deprecated wrappers and the scripted harness:
    /// trace lines to stdout, obs spans and outputs to the weak link-time
    /// hooks, so a reentrant binary's stdout and Chrome trace stay
    /// byte-identical with the process-global build.
    void default_host() {
        os_ << "static void ceu_def_trace(void* u, const char* line, int32_t n) {\n"
               "    (void)u; fwrite(line, 1, (size_t)n, stdout); fputc('\\n', stdout);\n"
               "}\n"
               "static void ceu_def_obs_begin(void* u, int32_t kind, int32_t id, const char* name, int64_t ts) { (void)u; ceu_obs_begin((int)kind, (int)id, name, ts); }\n"
               "static void ceu_def_obs_wake(void* u, int32_t gate) { (void)u; ceu_obs_wake((int)gate); }\n"
               "static void ceu_def_obs_emit(void* u, int32_t evt, int32_t depth) { (void)u; ceu_obs_emit((int)evt, (int)depth); }\n"
               "static void ceu_def_obs_timer(void* u, int32_t gate, int64_t residual) { (void)u; ceu_obs_timer((int)gate, residual); }\n"
               "static void ceu_def_obs_end(void* u, int32_t status, int64_t result) { (void)u; ceu_obs_end((int)status, result); }\n"
               "static void ceu_def_output(void* u, int32_t idx, const char* name, int64_t v) {\n"
               "    (void)u; (void)name;\n"
               "    switch (idx) {\n";
        for (size_t i = 0; i < cp_.sema.outputs.size(); ++i) {
            os_ << "    case " << i << ": ceu_output_" << cp_.sema.outputs[i].name
                << "(v); break;\n";
        }
        os_ << "    default: break;\n    }\n}\n"
               "static const ceu_host_api_t ceu_default_host = {\n"
               "    0, ceu_def_trace, ceu_def_obs_begin, ceu_def_obs_wake,\n"
               "    ceu_def_obs_emit, ceu_def_obs_timer, ceu_def_obs_end, ceu_def_output,\n"
               "};\n";
    }

    void emit_instr(Pc pc, const Instr& I) {
        os_ << "        case " << pc << ":\n";
        switch (I.op) {
            case IOp::Nop:
                break;
            case IOp::Eval:
                os_ << "            " << stmt_expr(*I.e1) << ";\n";
                break;
            case IOp::Assign:
                os_ << "            " << lvalue(*I.e1) << " = " << expr(*I.e2) << ";\n";
                break;
            case IOp::AssignWake:
                os_ << "            " << lvalue(*I.e1) << " = wake;\n";
                break;
            case IOp::AssignSlot:
                os_ << "            " << lvalue(*I.e1) << " = DATA[" << I.b << "];\n";
                break;
            case IOp::IfNot:
                os_ << "            if (!(" << expr(*I.e1) << ")) { pc = " << I.a
                    << "; continue; }\n";
                break;
            case IOp::Jump:
                os_ << "            pc = " << I.a << "; continue;\n";
                break;
            case IOp::AwaitExt:
            case IOp::AwaitInt:
            case IOp::AwaitForever:
                os_ << "            GATES[" << I.b << "] = 1; return;\n";
                break;
            case IOp::AwaitTime:
                os_ << "            GATES[" << I.b << "] = 1; ceu_arm(" << I.b
                    << ", ceu_logical + INT64_C(" << I.us << ")); return;\n";
                break;
            case IOp::AwaitDyn:
                os_ << "            GATES[" << I.b << "] = 1; ceu_arm(" << I.b
                    << ", ceu_logical + (" << expr(*I.e1) << ")); return;\n";
                break;
            case IOp::EmitInt: {
                // Fire currently-active gates of the internal event; stack
                // policy: push our continuation, then return to the scheduler.
                os_ << "            {\n                int64_t v = "
                    << (I.e1 ? expr(*I.e1) : std::string("0")) << ";\n"
                    << "                int fired = 0;\n";
                for (int g : fp_.int_gates[static_cast<size_t>(I.a)]) {
                    os_ << "                if (GATES[" << g
                        << "]) { fired = 1; }\n";
                }
                os_ << "                if (fired) {\n"
                    << "                    if (sn < CEU_SCAP) { ST[sn].resume = " << pc + 1
                    << "; ST[sn].prio = prio; ST[sn].dead = 0; sn++; }\n"
                    << "                    ceu_obs_emit(" << I.a << ", sn);\n";
                for (int g : fp_.int_gates[static_cast<size_t>(I.a)]) {
                    os_ << "                    if (GATES[" << g << "]) { ceu_obs_wake("
                        << g << "); ceu_wake(" << g << ", v); }\n";
                }
                os_ << "                    return;\n                }\n            }\n";
                break;
            }
            case IOp::ParSpawn: {
                const auto& par = fp_.pars[static_cast<size_t>(I.a)];
                if (par.counter_slot >= 0) {
                    os_ << "            " << slot_ref(par.counter_slot) << " = "
                        << par.branches.size() << ";\n";
                }
                os_ << "            " << slot_ref(par.sched_slot) << " = 0;\n";
                for (Pc b : par.branches) {
                    os_ << "            ceu_enqueue(" << b << ", CEU_NORMAL_PRIO, 0);\n";
                }
                os_ << "            return;\n";
                break;
            }
            case IOp::BranchEnd: {
                const auto& par = fp_.pars[static_cast<size_t>(I.a)];
                switch (par.kind) {
                    case ast::ParKind::Par:
                        os_ << "            return;\n";
                        break;
                    case ast::ParKind::ParAnd:
                        os_ << "            if (--" << slot_ref(par.counter_slot)
                            << " > 0) return;\n"
                            << "            if (" << slot_ref(par.sched_slot)
                            << ") return;\n"
                            << "            " << slot_ref(par.sched_slot) << " = 1;\n"
                            << "            ceu_enqueue(" << par.cont << ", " << par.prio
                            << ", 0); return;\n";
                        break;
                    case ast::ParKind::ParOr:
                        os_ << "            if (" << slot_ref(par.sched_slot)
                            << ") return;\n"
                            << "            " << slot_ref(par.sched_slot) << " = 1;\n"
                            << "            ceu_enqueue(" << par.cont << ", " << par.prio
                            << ", 0); return;\n";
                        break;
                }
                break;
            }
            case IOp::KillRegion: {
                const auto& r = fp_.regions[static_cast<size_t>(I.a)];
                os_ << "            ceu_kill(" << r.pc_begin << ", " << r.pc_end << ", "
                    << r.gate_begin << ", " << r.gate_end << ");\n";
                break;
            }
            case IOp::Escape: {
                const auto& esc = fp_.escapes[static_cast<size_t>(I.a)];
                os_ << "            if (" << slot_ref(esc.sched_slot) << ") return;\n"
                    << "            " << slot_ref(esc.sched_slot) << " = 1;\n";
                if (esc.result_slot >= 0) {
                    os_ << "            " << slot_ref(esc.result_slot) << " = "
                        << (I.e1 ? expr(*I.e1) : std::string("0")) << ";\n";
                }
                os_ << "            ceu_enqueue(" << esc.cont << ", " << esc.prio
                    << ", 0); return;\n";
                break;
            }
            case IOp::ClearSlot:
                os_ << "            DATA[" << I.b << "] = 0;\n";
                break;
            case IOp::Once:
                os_ << "            if (DATA[" << I.b << "]) return; DATA[" << I.b
                    << "] = 1;\n";
                break;
            case IOp::ProgReturn:
                os_ << "            ceu_result = "
                    << (I.e1 ? expr(*I.e1) : std::string("0")) << ";\n"
                    << "            ceu_status = 2; qn = 0; sn = 0; tn = 0;\n"
                    << "            memset(GATES, 0, sizeof GATES); return;\n";
                break;
            case IOp::AsyncRun: {
                // A full table holds dead contexts (each async block has at
                // most one live one): compact them out in spawn order and
                // remap the round-robin cursor, as the interpreter's
                // Engine::compact_asyncs does. Still full is a broken
                // invariant: fault, never drop the spawn.
                const auto& ai = fp_.asyncs[static_cast<size_t>(I.a)];
                os_ << "            GATES[" << I.b << "] = 1;\n"
                    << "            if (an == CEU_ACAP) {\n"
                    << "                int k, live = 0, before = 0;\n"
                    << "                for (k = 0; k < an; k++) if (AS[k].alive) "
                       "{ if (k < arr) before++; AS[live++] = AS[k]; }\n"
                    << "                an = live; arr = before;\n"
                    << "            }\n"
                    << "            if (an < CEU_ACAP) { AS[an].idx = " << I.a
                    << "; AS[an].pc = " << ai.begin << "; AS[an].alive = 1; an++; }\n"
                    << "            else { ceu_status = 3; qn = 0; sn = 0; }\n"
                    << "            return;\n";
                break;
            }
            case IOp::EmitOutput:
                os_ << "            ceu_output_"
                    << cp_.sema.outputs[static_cast<size_t>(I.a)].name << "("
                    << (I.e1 ? expr(*I.e1) : std::string("0")) << ");\n";
                break;
            case IOp::AsyncYield:
            case IOp::AsyncEnd:
            case IOp::EmitExtAsync:
            case IOp::EmitTimeAsync:
                // Only reachable from the async dispatcher.
                os_ << "            return;\n";
                break;
            case IOp::Halt:
                os_ << "            return;\n";
                break;
        }
    }

    void track_dispatch() {
        os_ << "/* ---- track dispatch (paper 4.4: labels become cases) ---- */\n";
        if (re_) {
            os_ << "static void exec_track_fn(ceu_ctx_t* C, int pc, int prio, int64_t wake) {\n"
                << "    (void)C; (void)prio; (void)wake;\n";
        } else {
            os_ << "static void exec_track(int pc, int prio, int64_t wake) {\n"
                << "    (void)prio; (void)wake;\n";
        }
        os_ << "    for (;;) switch (pc) {\n";
        for (size_t pc = 0; pc < fp_.code.size(); ++pc) {
            emit_instr(static_cast<Pc>(pc), fp_.code[pc]);
        }
        os_ << "        default: return;\n    }\n}\n\n";
    }

    void async_dispatch() {
        os_ << "/* ---- asynchronous blocks (round robin; one slice per call) ---- */\n";
        if (re_) {
            os_ << "static void ceu_async_done_fn(ceu_ctx_t* C, int idx, int64_t v) {\n";
        } else {
            os_ << "static void ceu_async_done(int idx, int64_t v) {\n";
        }
        os_ << "    static const int ASYNC_GATE[] = {";
        for (size_t a = 0; a < fp_.asyncs.size(); ++a) {
            if (a) os_ << ", ";
            os_ << fp_.asyncs[a].gate;
        }
        if (fp_.asyncs.empty()) os_ << "-1";
        os_ << "};\n"
            << "    int g = ASYNC_GATE[idx];\n"
            << "    if (g >= 0 && GATES[g]) {\n"
            << "        ceu_obs_begin(3, idx, \"\", ceu_logical);\n"
            << "        ceu_obs_wake(g);\n"
            << "        ceu_wake(g, v); ceu_reaction();\n"
            << "    }\n"
            << "}\n";
        if (re_) {
            os_ << "static int exec_async_fn(ceu_ctx_t* C, ceu_async_t* a) {\n"
                << "    (void)C;\n";
        } else {
            os_ << "void ceu_go_event(int evt, int64_t val);\n"
                << "void ceu_go_time(int64_t now);\n"
                << "static int exec_async(ceu_async_t* a) {\n";
        }
        os_ << "    int pc = a->pc;\n"
            << "    for (;;) switch (pc) {\n";
        // Emit only the async regions' instructions with async semantics.
        std::vector<uint8_t> in_async(fp_.code.size(), 0);
        for (const auto& ai : fp_.asyncs) {
            const auto& r = fp_.regions[static_cast<size_t>(ai.region)];
            for (Pc p = ai.begin; p < r.pc_end; ++p) in_async[static_cast<size_t>(p)] = 1;
        }
        for (size_t pc = 0; pc < fp_.code.size(); ++pc) {
            if (!in_async[pc]) continue;
            const Instr& I = fp_.code[pc];
            os_ << "        case " << pc << ":\n";
            switch (I.op) {
                case IOp::Nop:
                    break;
                case IOp::ClearSlot:
                    os_ << "            DATA[" << I.b << "] = 0;\n";
                    break;
                case IOp::Eval:
                    os_ << "            " << stmt_expr(*I.e1) << ";\n";
                    break;
                case IOp::Assign:
                    os_ << "            " << lvalue(*I.e1) << " = " << expr(*I.e2)
                        << ";\n";
                    break;
                case IOp::IfNot:
                    os_ << "            if (!(" << expr(*I.e1) << ")) { pc = " << I.a
                        << "; continue; }\n";
                    break;
                case IOp::Jump:
                    os_ << "            pc = " << I.a << "; continue;\n";
                    break;
                case IOp::AsyncYield:
                    os_ << "            a->pc = " << pc + 1 << "; return 1;\n";
                    break;
                case IOp::EmitExtAsync:
                    os_ << "            { int64_t v = "
                        << (I.e1 ? expr(*I.e1) : std::string("0")) << "; a->pc = "
                        << pc + 1 << "; ceu_go_event(" << I.a << ", v); return 1; }\n";
                    break;
                case IOp::EmitTimeAsync:
                    os_ << "            a->pc = " << pc + 1
                        << "; ceu_go_time(ceu_now + INT64_C(" << I.us
                        << ")); return 1;\n";
                    break;
                case IOp::AsyncEnd:
                    os_ << "            a->alive = 0; ceu_async_done(" << I.a << ", "
                        << (I.e1 ? expr(*I.e1) : std::string("0")) << "); return 0;\n";
                    break;
                default:
                    os_ << "            return 0; /* unsupported in async */\n";
                    break;
            }
        }
        os_ << "        default: a->alive = 0; return 0;\n    }\n}\n\n";
    }

    void api() {
        os_ << "/* ---- the four-entry reactive API (paper 5) ---- */\n"
            << "static const char* CEU_INPUT_NAME[] = {";
        for (size_t e = 0; e < cp_.sema.inputs.size(); ++e) {
            if (e) os_ << ", ";
            os_ << "\"" << c_escape(cp_.sema.inputs[e].name) << "\"";
        }
        if (cp_.sema.inputs.empty()) os_ << "\"\"";
        os_ << "};\n";
        if (re_) {
            os_ << "static void ceu_api_init(ceu_ctx_t* C) {\n"
                << "    ceu_cur = C;\n";
        } else {
            os_ << "void ceu_go_init(void) {\n";
        }
        os_ << "    ceu_status = 1; ceu_logical = ceu_now;\n"
            << "    ceu_obs_begin(0, 0, \"\", ceu_logical);\n"
            << "    ceu_enqueue(0, CEU_NORMAL_PRIO, 0);\n"
            << "    ceu_reaction();\n}\n\n";
        if (re_) {
            os_ << "static void ceu_api_event(ceu_ctx_t* C, int evt, int64_t val) {\n"
                << "    ceu_cur = C;\n";
        } else {
            os_ << "void ceu_go_event(int evt, int64_t val) {\n";
        }
        os_ << "    if (ceu_status != 1) return;\n"
            << "    ceu_logical = ceu_now;\n"
            << "    if (evt >= 0 && evt < " << fp_.ext_gates.size() << ")\n"
            << "        ceu_obs_begin(1, evt, CEU_INPUT_NAME[evt], ceu_logical);\n"
            << "    {\n        int fired[CEU_GATES_N]; int nf = 0, i;\n";
        os_ << "        switch (evt) {\n";
        for (size_t e = 0; e < fp_.ext_gates.size(); ++e) {
            os_ << "        case " << e << ":\n";
            for (int g : fp_.ext_gates[e]) {
                os_ << "            if (GATES[" << g << "]) fired[nf++] = " << g << ";\n";
            }
            os_ << "            break;\n";
        }
        os_ << "        default: break;\n        }\n"
            << "        for (i = 0; i < nf; i++) { ceu_obs_wake(fired[i]); "
               "ceu_wake(fired[i], val); }\n"
            << "    }\n    ceu_reaction();\n}\n\n";
        if (re_) {
            os_ << "static void ceu_api_time(ceu_ctx_t* C, int64_t now) {\n"
                << "    ceu_cur = C;\n";
        } else {
            os_ << "void ceu_go_time(int64_t now) {\n";
        }
        os_ << R"(    if (ceu_status != 1) return;
    if (now > ceu_now) ceu_now = now;
    for (;;) {
        int64_t min = 0; int any = 0, i;
        for (i = 0; i < tn; i++) if (!any || TM[i].deadline < min) { min = TM[i].deadline; any = 1; }
        if (!any || min > ceu_now) break;
        ceu_logical = min;
        {
            int fired[CEU_TCAP]; int nf = 0;
            for (i = 0; i < tn;) {
                if (TM[i].deadline == min) { fired[nf++] = TM[i].gate; TM[i] = TM[--tn]; }
                else i++;
            }
            /* wake in gate (program) order */
            for (i = 0; i < nf; i++) {
                int j, best = i;
                for (j = i + 1; j < nf; j++) if (fired[j] < fired[best]) best = j;
                j = fired[i]; fired[i] = fired[best]; fired[best] = j;
            }
            ceu_obs_begin(2, nf, "", ceu_logical);
            for (i = 0; i < nf; i++) if (GATES[fired[i]]) {
                ceu_obs_timer(fired[i], ceu_now - min);
                ceu_obs_wake(fired[i]);
                ceu_wake(fired[i], ceu_now - min);
            }
        }
        ceu_reaction();
        if (ceu_status != 1) break;
    }
}

)";
        if (re_) {
            os_ << "static int ceu_api_async(ceu_ctx_t* C) {\n"
                << "    ceu_cur = C;\n";
        } else {
            os_ << "int ceu_go_async(void) {\n";
        }
        os_ << R"(    int k;
    if (ceu_status != 1) return 0;
    for (k = 0; k < an; k++) {
        int i = (arr + k) % (an ? an : 1);
        if (AS[i].alive) {
            arr = i + 1;
            exec_async(&AS[i]);
            goto done;
        }
    }
    return 0;
done:
    for (k = 0; k < an; k++) if (AS[k].alive) return ceu_status == 1;
    return 0;
}
)";
        if (!re_) {
            os_ << "\nint ceu_status_get(void) { return ceu_status; }\n"
                << "int64_t ceu_result_get(void) { return ceu_result; }\n";
        }
    }

    /// After the shared scheduler text: drop the redirection macros, emit the
    /// exported descriptor, and (with_main) the deprecated process-global
    /// wrappers the scripted harness drives.
    void reentrant_epilogue() {
        os_ << "/* ---- end of context-redirected text ---- */\n"
               "#undef DATA\n#undef GATES\n#undef Q\n#undef qn\n#undef TM\n#undef tn\n"
               "#undef ST\n#undef sn\n#undef AS\n#undef an\n#undef arr\n#undef ceu_seq\n"
               "#undef ceu_now\n#undef ceu_logical\n#undef ceu_status\n#undef ceu_result\n"
               "#undef ceu_enqueue\n#undef ceu_pop\n#undef ceu_wake\n#undef ceu_arm\n"
               "#undef ceu_reaction\n#undef ceu_kill\n#undef exec_track\n"
               "#undef ceu_async_done\n#undef exec_async\n#undef ceu_go_event\n"
               "#undef ceu_go_time\n#undef ceu_obs_begin\n#undef ceu_obs_wake\n"
               "#undef ceu_obs_emit\n#undef ceu_obs_timer\n#undef ceu_obs_end\n"
               "#undef printf\n";
        for (const auto& o : cp_.sema.outputs) {
            os_ << "#undef ceu_output_" << o.name << "\n";
        }
        os_ << R"(
/* ---- exported AOT descriptor (the TU's only non-static symbol) ---- */
static void* ceu_aot_create(const ceu_host_api_t* host) {
    ceu_ctx_t* C = (ceu_ctx_t*)calloc(1, sizeof(ceu_ctx_t));
    if (C) C->host = host;
    return C;
}
static void ceu_aot_destroy(void* vc) {
    if (ceu_cur == (ceu_ctx_t*)vc) ceu_cur = 0;
    free(vc);
}
static void ceu_aot_reset(void* vc) {
    /* Engine::reset parity: drop all dynamic state, keep the clock and the
     * cumulative reaction count. */
    ceu_ctx_t* C = (ceu_ctx_t*)vc;
    const ceu_host_api_t* h = C->host;
    int64_t now = C->ceu_now;
    unsigned long long r = C->ceu_reactions;
    memset(C, 0, sizeof *C);
    C->host = h; C->ceu_now = now; C->ceu_reactions = r;
}
static void ceu_aot_set_boot_clock(void* vc, int64_t us) {
    ceu_ctx_t* C = (ceu_ctx_t*)vc;
    if (C->ceu_status == 0 && us > C->ceu_now) C->ceu_now = us;
}
static void ceu_aot_go_init(void* vc) { ceu_api_init((ceu_ctx_t*)vc); }
static void ceu_aot_go_event(void* vc, int32_t evt, int64_t val) { ceu_api_event((ceu_ctx_t*)vc, (int)evt, val); }
static void ceu_aot_go_time(void* vc, int64_t now) { ceu_api_time((ceu_ctx_t*)vc, now); }
static int32_t ceu_aot_go_async(void* vc) { return (int32_t)ceu_api_async((ceu_ctx_t*)vc); }
static int32_t ceu_aot_go_async_n(void* vc, int64_t n) {
    /* One ABI crossing for a whole per-round slice budget. */
    ceu_ctx_t* C = (ceu_ctx_t*)vc;
    int32_t more = 0;
    while (n-- > 0) {
        more = (int32_t)ceu_api_async(C);
        if (!more) break;
    }
    return more;
}
static int32_t ceu_aot_status(void* vc) { return (int32_t)((ceu_ctx_t*)vc)->ceu_status; }
static int64_t ceu_aot_result(void* vc) { return ((ceu_ctx_t*)vc)->ceu_result; }
static int64_t ceu_aot_now(void* vc) { return ((ceu_ctx_t*)vc)->ceu_now; }
static int64_t ceu_aot_next_deadline(void* vc) {
    ceu_ctx_t* C = (ceu_ctx_t*)vc;
    int64_t best = -1; int i;
    for (i = 0; i < C->tn; i++)
        if (best < 0 || C->TM[i].deadline < best) best = C->TM[i].deadline;
    return best;
}
static int32_t ceu_aot_has_async(void* vc) {
    ceu_ctx_t* C = (ceu_ctx_t*)vc; int i;
    for (i = 0; i < C->an; i++) if (C->AS[i].alive) return 1;
    return 0;
}
static uint64_t ceu_aot_reactions(void* vc) { return (uint64_t)((ceu_ctx_t*)vc)->ceu_reactions; }
static int32_t ceu_aot_resolve_input(const char* name) {
    int i;
    for (i = 0; i < (int)(sizeof CEU_INPUT_NAME / sizeof CEU_INPUT_NAME[0]); i++)
        if (!strcmp(name, CEU_INPUT_NAME[i])) return i;
    return -1;
}
static void ceu_aot_snapshot(void* vc, void* buf) { memcpy(buf, vc, sizeof(ceu_ctx_t)); }
static int32_t ceu_aot_restore(void* vc, const void* buf, size_t len) {
    ceu_ctx_t* C = (ceu_ctx_t*)vc;
    const ceu_host_api_t* h = C->host;
    if (len != sizeof(ceu_ctx_t)) return 0;
    memcpy(C, buf, sizeof(ceu_ctx_t));
    C->host = h;
    return 1;
}
)";
        os_ << "const ceu_aot_program_t " << opt_.aot_symbol << " = {\n"
            << "    " << kAotAbiVersion << "u,\n"
            << "    UINT64_C(" << rt::program_fingerprint(cp_) << "),\n"
            << "    \"" << c_escape(opt_.program_name) << "\",\n"
            << "    sizeof(ceu_ctx_t),\n"
            << "    ceu_aot_create, ceu_aot_destroy, ceu_aot_reset, ceu_aot_set_boot_clock,\n"
            << "    ceu_aot_go_init, ceu_aot_go_event, ceu_aot_go_time, ceu_aot_go_async,\n"
            << "    ceu_aot_go_async_n,\n"
            << "    ceu_aot_status, ceu_aot_result, ceu_aot_now, ceu_aot_next_deadline,\n"
            << "    ceu_aot_has_async, ceu_aot_reactions, ceu_aot_resolve_input,\n"
            << "    ceu_aot_snapshot, ceu_aot_restore,\n"
            << "};\n";
        if (opt_.with_main) {
            os_ << R"(
/* ---- deprecated process-global entry points ----
 * One implicit instance per process, kept so existing embedders and the
 * scripted harness keep linking. New code should bind the exported
 * ceu_aot_program_t descriptor and create explicit contexts. */
static ceu_ctx_t ceu_single;
void ceu_go_init(void) { ceu_single.host = &ceu_default_host; ceu_api_init(&ceu_single); }
void ceu_go_event(int evt, int64_t val) { ceu_single.host = &ceu_default_host; ceu_api_event(&ceu_single, evt, val); }
void ceu_go_time(int64_t now) { ceu_single.host = &ceu_default_host; ceu_api_time(&ceu_single, now); }
int ceu_go_async(void) { ceu_single.host = &ceu_default_host; return ceu_api_async(&ceu_single); }
int ceu_status_get(void) { return ceu_single.ceu_status; }
int64_t ceu_result_get(void) { return ceu_single.ceu_result; }
)";
        }
    }

    void main_harness() {
        os_ << "\n/* ---- scripted-input harness (integration tests) ---- */\n"
            << "int main(void) {\n"
            << "    char op; char name[128]; long long v;\n"
            << "    { const char* tp = getenv(\"CEU_TRACE\"); "
               "if (tp && *tp) ceu_obs_open(tp); }\n"
            << "    ceu_go_init();\n"
            << "    while (scanf(\" %c\", &op) == 1) {\n"
            << "        if (op == 'E') {\n"
            << "            if (scanf(\"%127s %lld\", name, &v) != 2) break;\n";
        for (size_t e = 0; e < cp_.sema.inputs.size(); ++e) {
            os_ << "            if (!strcmp(name, \"" << cp_.sema.inputs[e].name
                << "\")) ceu_go_event(" << e << ", v);\n";
        }
        os_ << "        } else if (op == 'T') {\n"
            << "            if (scanf(\"%lld\", &v) != 1) break;\n"
            << "            ceu_go_time(" << (re_ ? "ceu_single.ceu_now" : "ceu_now")
            << " + v);\n"
            << "        } else if (op == 'A') {\n"
            << "            while (ceu_go_async()) {}\n"
            << "        } else if (op == 'Q') break;\n"
            << "        if (ceu_status_get() != 1) break;\n"
            << "    }\n"
            << "    while (ceu_status_get() == 1 && ceu_go_async()) {}\n"
            << "    ceu_obs_close();\n"
            << "    fflush(stdout);\n"
            << "    return (int)ceu_result_get();\n"
            << "}\n";
    }
};

}  // namespace

std::string emit_c(const flat::CompiledProgram& cp, const CgenOptions& opt) {
    return Emitter(cp, opt).run();
}

}  // namespace ceu::cgen
