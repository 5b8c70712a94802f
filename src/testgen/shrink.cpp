#include "testgen/shrink.hpp"

#include <utility>

#include "ast/ast.hpp"
#include "parser/parser.hpp"
#include "testgen/generator.hpp"
#include "util/diag.hpp"

namespace ceu::testgen {
namespace {

/// Upper bound on oracle invocations (each one may spawn the host C
/// compiler, so this is the shrink-time budget).
constexpr int kMaxAttempts = 400;

// Program mutations are addressed by a flat index assigned during a fixed
// pre-order traversal, so "try mutation k of the current best program" is
// well-defined without holding pointers across re-parses.
struct MutationCursor {
    int target = -1;   // which mutation to apply (-1: just count)
    int counter = 0;
    bool applied = false;

    /// True when the current slot is the target (and marks it applied).
    bool hit() {
        bool h = counter == target;
        ++counter;
        if (h) applied = true;
        return h;
    }
};

void mutate_block(ast::BlockBody& block, MutationCursor& cur);

void mutate_stmt_children(ast::Stmt& s, MutationCursor& cur) {
    switch (s.kind) {
        case ast::StmtKind::If: {
            auto& st = static_cast<ast::IfStmt&>(s);
            mutate_block(st.then_body, cur);
            mutate_block(st.else_body, cur);
            break;
        }
        case ast::StmtKind::Loop:
            mutate_block(static_cast<ast::LoopStmt&>(s).body, cur);
            break;
        case ast::StmtKind::Par:
            for (auto& b : static_cast<ast::ParStmt&>(s).branches) mutate_block(b, cur);
            break;
        case ast::StmtKind::Block:
            mutate_block(static_cast<ast::BlockStmt&>(s).body, cur);
            break;
        case ast::StmtKind::Async:
            mutate_block(static_cast<ast::AsyncStmt&>(s).body, cur);
            break;
        case ast::StmtKind::Assign: {
            auto& st = static_cast<ast::AssignStmt&>(s);
            if (st.rhs_stmt) mutate_stmt_children(*st.rhs_stmt, cur);
            break;
        }
        case ast::StmtKind::DeclVar:
            for (auto& v : static_cast<ast::DeclVarStmt&>(s).vars) {
                if (v.init_stmt) mutate_stmt_children(*v.init_stmt, cur);
            }
            break;
        default:
            break;
    }
}

/// Replaces block.stmts[i] by the statements of `body` (spliced in place).
void splice(ast::BlockBody& block, size_t i, ast::BlockBody&& body) {
    std::vector<ast::StmtPtr> moved = std::move(body.stmts);
    block.stmts.erase(block.stmts.begin() + static_cast<long>(i));
    block.stmts.insert(block.stmts.begin() + static_cast<long>(i),
                       std::make_move_iterator(moved.begin()),
                       std::make_move_iterator(moved.end()));
}

void mutate_block(ast::BlockBody& block, MutationCursor& cur) {
    for (size_t i = 0; i < block.stmts.size() && !cur.applied; ++i) {
        ast::Stmt& s = *block.stmts[i];
        // 1. Delete the statement outright.
        if (cur.hit()) {
            block.stmts.erase(block.stmts.begin() + static_cast<long>(i));
            return;
        }
        // 2. Structure-flattening replacements.
        switch (s.kind) {
            case ast::StmtKind::Par: {
                auto& st = static_cast<ast::ParStmt&>(s);
                for (size_t j = 0; j < st.branches.size(); ++j) {
                    if (cur.hit()) {
                        splice(block, i, std::move(st.branches[j]));
                        return;
                    }
                }
                break;
            }
            case ast::StmtKind::If: {
                auto& st = static_cast<ast::IfStmt&>(s);
                if (cur.hit()) {
                    splice(block, i, std::move(st.then_body));
                    return;
                }
                if (st.has_else && cur.hit()) {
                    splice(block, i, std::move(st.else_body));
                    return;
                }
                break;
            }
            case ast::StmtKind::Loop: {
                if (cur.hit()) {
                    splice(block, i, std::move(static_cast<ast::LoopStmt&>(s).body));
                    return;
                }
                break;
            }
            default:
                break;
        }
        // 3. Recurse for reductions inside the statement.
        mutate_stmt_children(s, cur);
    }
}

/// Applies mutation `target` to a fresh parse of `source`; returns the new
/// source, or "" when the program no longer parses or `target` is out of
/// range (the caller then stops enumerating).
std::string apply_mutation(const std::string& source, int target, bool* in_range) {
    Diagnostics diags;
    ast::Program prog = parse_source(source, diags, "<shrink>");
    *in_range = false;
    if (!diags.ok()) return "";
    MutationCursor cur;
    cur.target = target;
    mutate_block(prog.body, cur);
    if (!cur.applied) return "";
    *in_range = true;
    return render(prog);
}

env::Script script_from_items(const std::vector<env::ScriptItem>& items) {
    env::Script s;
    for (const auto& it : items) {
        switch (it.kind) {
            case env::ScriptItem::Kind::Event:
                s.event(it.event, it.value.as_int());
                break;
            case env::ScriptItem::Kind::Advance:
                s.advance(it.us);
                break;
            case env::ScriptItem::Kind::AsyncIdle:
                s.settle_asyncs();
                break;
            case env::ScriptItem::Kind::Crash:
                s.crash();
                break;
        }
    }
    return s;
}

}  // namespace

ShrinkResult shrink(const std::string& source, const env::Script& script,
                    DiffResult::Kind kind, const DiffOptions& opt) {
    ShrinkResult out;
    out.source = source;
    out.script = script;
    out.kind = kind;

    auto oracle = [&](const std::string& src, const env::Script& scr) {
        ++out.attempts;
        return run_differential(src, scr, opt).kind == kind;
    };

    // Sanity: the input must actually reproduce. (Also catches flaky
    // failures early instead of shrinking noise.)
    if (!oracle(source, script)) {
        out.script_text = script_text(script);
        return out;
    }

    bool progress = true;
    while (progress && out.attempts < kMaxAttempts) {
        progress = false;

        // Script ddmin: drop chunks, halving the chunk size down to 1.
        std::vector<env::ScriptItem> items = out.script.items();
        for (size_t chunk = std::max<size_t>(items.size() / 2, 1); chunk >= 1; chunk /= 2) {
            for (size_t at = 0; at + chunk <= items.size() && out.attempts < kMaxAttempts;) {
                std::vector<env::ScriptItem> cand(items.begin(),
                                                  items.begin() + static_cast<long>(at));
                cand.insert(cand.end(), items.begin() + static_cast<long>(at + chunk),
                            items.end());
                if (oracle(out.source, script_from_items(cand))) {
                    items = std::move(cand);
                    out.removed_items += static_cast<int>(chunk);
                    progress = true;
                    // keep `at`: the next chunk slid into place
                } else {
                    at += chunk;
                }
            }
            if (chunk == 1) break;
        }
        out.script = script_from_items(items);

        // Program mutations, first-to-last; restart from 0 after a hit so
        // indices stay aligned with the (new) current best.
        for (int k = 0; out.attempts < kMaxAttempts;) {
            bool in_range = false;
            std::string cand = apply_mutation(out.source, k, &in_range);
            if (!in_range) break;
            if (!cand.empty() && cand != out.source && oracle(cand, out.script)) {
                out.source = std::move(cand);
                ++out.removed_stmts;
                progress = true;
                k = 0;
            } else {
                ++k;
            }
        }
    }

    out.script_text = script_text(out.script);
    return out;
}

}  // namespace ceu::testgen
