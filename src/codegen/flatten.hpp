// Flattening: AST -> FlatProgram, the executable form mirroring the paper's
// code generation (§4):
//
//  * code is a linear instruction array; `await` splits straight-line code
//    into *tracks* (instruction ranges entered at a continuation pc);
//  * every await owns a *gate* holding whether it is active; gates are
//    allocated in flattening order, so every syntactic region (par branch,
//    loop body) owns a contiguous gate range and can be destroyed with a
//    single range-clear — the paper's `memset` trick (§4.3);
//  * variables live in statically laid-out *memory slots*: slots of
//    parallel branches coexist, slots of sequential statements are reused
//    (§4.2); layout happens in layout.cpp during flattening;
//  * rejoin continuations (par/or, par/and, loop break, value-block return)
//    carry a *priority* = construct nesting depth: inner rejoins run before
//    outer ones, the glitch-avoidance scheme of §4.1.
//
// The FlatProgram is consumed by the interpreter (runtime/engine.cpp), the
// temporal analysis (dfa/), the flow-graph exporter (flow/) and the C
// emitter (cgen/).
#pragma once

#include <string>
#include <vector>

#include "ast/ast.hpp"
#include "sema/sema.hpp"
#include "util/diag.hpp"

namespace ceu::flat {

using Pc = int;      // index into FlatProgram::code
using GateId = int;  // index into FlatProgram::gates
using SlotId = int;  // index into the runtime data vector

/// Priority of freshly-awakened / spawned tracks (always runs before any
/// rejoin continuation).
constexpr int kNormalPrio = 1'000'000'000;

enum class IOp {
    Nop,
    Eval,          // e1: evaluate for side effects (C calls)
    Assign,        // e1 = lvalue, e2 = rvalue
    AssignWake,    // e1 = lvalue; assigns the value the track was woken with
    AssignSlot,    // e1 = lvalue; assigns data[b] (value-block results)
    IfNot,         // e1 = cond; jump to a when false
    Jump,          // jump to a
    AwaitExt,      // a = input event id, b = gate
    AwaitInt,      // a = internal event id, b = gate
    AwaitTime,     // us = duration, b = gate
    AwaitDyn,      // e1 = duration expr (microseconds), b = gate
    AwaitForever,  // b = gate (never fires)
    EmitInt,       // a = internal event id, e1 = value (optional)
    EmitExtAsync,  // a = input event id, e1 = value (optional); async only
    EmitOutput,    // a = output event id, e1 = value (optional); extension
    EmitTimeAsync, // us = duration; async only
    ParSpawn,      // a = par index: enqueue branch tracks, halt
    BranchEnd,     // a = par index: rejoin bookkeeping, halt
    KillRegion,    // a = region index: clear gates/timers/tracks of region
    Escape,        // a = escape index, e1 = optional value: break / block-return
    ClearSlot,     // b = slot: data[b] = 0 (resets hidden flags on re-entry)
    Once,          // b = slot: halt if data[b] already set, else set and continue
    ProgReturn,    // e1 = optional value: terminate the program
    AsyncRun,      // a = async index, b = completion gate: start + await
    AsyncYield,    // async loop back-edge: end of one go_async slice
    AsyncEnd,      // a = async index, e1 = optional value: async returns
    Halt,          // trail terminates (plain-par branch or root body end)
};

struct Instr {
    IOp op = IOp::Nop;
    int a = -1;
    int b = -1;
    const ast::Expr* e1 = nullptr;
    const ast::Expr* e2 = nullptr;
    Micros us = 0;
    SourceLoc loc;
};

struct GateInfo {
    enum class Kind { Ext, Int, Time, Dyn, Forever, Async };
    Kind kind = Kind::Ext;
    int event = -1;   // Ext/Int: event id
    Pc cont = -1;     // pc to enqueue when the gate fires
    Micros us = 0;    // Time: duration
    SourceLoc loc;
};

/// A contiguous syntactic region: the unit of destruction (§4.3).
struct RegionInfo {
    Pc pc_begin = 0, pc_end = 0;       // [begin, end)
    GateId gate_begin = 0, gate_end = 0;
};

struct ParInfo {
    ast::ParKind kind = ast::ParKind::Par;
    std::vector<Pc> branches;      // entry pc of each branch
    std::vector<std::pair<Pc, Pc>> branch_ranges;
    int region = -1;               // covering all branches
    Pc cont = -1;                  // pc after the par (-1: plain par, no value)
    int prio = 0;                  // rejoin priority (= nesting depth)
    SlotId counter_slot = -1;      // par/and: branches still running
    SlotId sched_slot = -1;        // rejoin-already-scheduled flag
    SourceLoc loc;
};

/// Target of a `break` (loops) or block `return` (value par/do blocks).
struct EscapeInfo {
    int region = -1;
    Pc cont = -1;
    int prio = 0;
    SlotId result_slot = -1;  // -1: no value (break)
    SlotId sched_slot = -1;
    SourceLoc loc;
};

struct AsyncInfo {
    Pc begin = 0;
    int region = -1;
    GateId gate = -1;  // completion gate awaited by the spawning trail
    SourceLoc loc;
};

struct FlatProgram {
    // The FlatProgram borrows expression nodes from the AST; both are kept
    // alive together by CompiledProgram (see below). Lvalues synthesized by
    // the flattener (declaration initializers) are owned here.
    std::vector<std::unique_ptr<ast::Expr>> owned_exprs;
    std::vector<Instr> code;
    std::vector<GateInfo> gates;
    std::vector<RegionInfo> regions;
    std::vector<ParInfo> pars;
    std::vector<EscapeInfo> escapes;
    std::vector<AsyncInfo> asyncs;

    std::vector<SlotId> var_slot;   // decl_id -> first slot
    int data_size = 0;              // total slots (the static RAM vector, §4.2)
    int max_depth = 0;              // deepest construct nesting

    std::vector<std::vector<GateId>> ext_gates;  // per input event
    std::vector<std::vector<GateId>> int_gates;  // per internal event

    [[nodiscard]] size_t rom_footprint() const { return code.size() * sizeof(Instr); }

    /// Slots in the async context table, shared by the interpreter and
    /// generated C (CEU_ACAP). An async block has at most one live context
    /// (its trail awaits it; killing the trail kills it), so one slot per
    /// block suffices; the extra one keeps the C array non-empty.
    [[nodiscard]] size_t async_capacity() const { return asyncs.size() + 1; }
};

/// A fully compiled program: source AST + sema results + flat code, with
/// lifetimes tied together.
struct CompiledProgram {
    ast::Program ast;
    SemaInfo sema;
    FlatProgram flat;
};

/// Flattens a sema-checked program. `diags` receives structural errors
/// (e.g. `emit TIME` outside async reaching this phase).
FlatProgram flatten(const ast::Program& prog, const SemaInfo& sema, Diagnostics& diags);

/// One-stop compilation: lex + parse + sema + bounded check + flatten.
/// Throws CompileError (with all diagnostics) if any phase fails.
CompiledProgram compile(const std::string& source, const std::string& name = "<memory>");

/// Like `compile` but reports problems through `diags` instead of throwing.
/// Returns true on success.
bool compile_checked(const std::string& source, CompiledProgram* out, Diagnostics& diags,
                     const std::string& name = "<memory>");

/// Human-readable disassembly of the flat code (tests, debugging).
std::string disassemble(const FlatProgram& fp);

}  // namespace ceu::flat
