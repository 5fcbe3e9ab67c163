//! Name resolution and typing: binds every variable reference to a
//! frame slot and records the static type of every expression.
//!
//! This pass runs once, between parsing and evaluation, and turns the
//! evaluator's name lookups into array indexing:
//!
//! - every parameter and declaration in a function is assigned a dense,
//!   frame-relative [`SlotId`] (shadowing declarations get distinct
//!   slots, so the same lexical name can refer to different slots at
//!   different program points), and its spelling and declared type are
//!   recorded in the function's slot table
//!   ([`crate::ast::Function::slots`]);
//! - every [`ExprKind::Ident`] that is visible from a declaration is
//!   rewritten to [`ExprKind::Slot`], keeping the original [`Symbol`] so
//!   diagnostics still print the identifier as it was spelled;
//! - identifiers with *no* visible declaration are left as `Ident` — the
//!   evaluator reports them only if they are actually reached, exactly as
//!   the pre-resolution engine did for dead code;
//! - every expression is typed bottom-up by `type_of`, C's one set of
//!   expression-typing rules, into the unit's type table
//!   ([`TranslationUnit::ty`]) that consteval, both engines, the
//!   compiler and the analyzer read;
//! - same-scope redeclarations are recorded on the [`Decl`] (reported
//!   when executed, preserving lazy semantics), and array-size
//!   constant-ness is decided by the one §6.6 predicate
//!   ([`crate::consteval::is_constant_expr`]) for the static-vs-VLA
//!   classification of non-positive sizes;
//! - a `symbol -> function` table is built so call-target lookup is O(1).
//!
//! Scoping follows C11 §6.2.1: a declaration's scope begins at the end of
//! its declarator — after its array size, before its initializer — so
//! `int x = x;` binds the initializer's `x` to the *new* declaration, and
//! a use of a name textually before its declaration in the same block
//! binds to an outer declaration (or stays unresolved).

use crate::ast::{
    Base, BinOp, CaseArm, Decl, ExprId, ExprKind, SlotId, SlotTy, Stmt, StmtId, SwitchTable,
    TranslationUnit, UnaryOp, ValTy,
};
use crate::consteval::{const_eval, is_constant_expr};
use crate::ctype::{IntTy, SIZE_T};
use crate::eval::stmt_loc;
use crate::intern::{kw, Symbol};
use cundef_ub::SourceLoc;
use std::num::NonZeroU32;

/// Resolve `unit` in place. Called by [`crate::parser::parse`]; a unit
/// that came out of `parse` is always resolved.
pub fn resolve(unit: &mut TranslationUnit) {
    let mut func_by_symbol = vec![None; unit.interner.len()];
    for (i, f) in unit.functions.iter().enumerate() {
        // First definition wins, matching lookup order before this table
        // existed.
        let entry = &mut func_by_symbol[f.name.index()];
        if entry.is_none() {
            *entry = Some(i as u32);
        }
    }
    unit.func_by_symbol = func_by_symbol;
    unit.types = vec![ValTy::Unknown; unit.exprs.len()];

    for i in 0..unit.functions.len() {
        let mut r = Resolver {
            scopes: Vec::with_capacity(8),
            slots: Vec::new(),
            labels: Vec::new(),
            gotos: Vec::new(),
        };
        // Parameters share the function body's outermost block scope
        // (C11 §6.2.1:4, §6.9.1:9), so a top-level body declaration of a
        // parameter's name is a redeclaration, not a shadow.
        r.scopes.push(Vec::new());
        for p in &unit.functions[i].params {
            r.bind(p.name, ValTy::of(&p.ty), false);
        }
        let body = std::mem::take(&mut unit.functions[i].body);
        for &s in &body {
            r.resolve_stmt(unit, s);
        }
        unit.functions[i].body = body;
        unit.functions[i].slots = r.slots;
        unit.functions[i].labels = r.labels;
        unit.functions[i].gotos = r.gotos;
    }
}

struct Resolver {
    /// Innermost scope last; each scope maps names to slots.
    scopes: Vec<Vec<(Symbol, SlotId)>>,
    /// Spelling and declared type of every slot bound so far, indexed by
    /// slot.
    slots: Vec<SlotTy>,
    /// Labels defined in the function, in source order — exported on the
    /// [`crate::ast::Function`] for the translation-phase analyzer
    /// (duplicate labels, goto targets, jumps into VLA scope).
    labels: Vec<(Symbol, SourceLoc)>,
    /// `goto` targets appearing in the function, in source order.
    gotos: Vec<(Symbol, SourceLoc)>,
}

impl Resolver {
    /// Give `name` a fresh slot of type `ty` in the innermost scope.
    fn bind(&mut self, name: Symbol, ty: ValTy, is_const: bool) -> SlotId {
        let slot = SlotId(u32::try_from(self.slots.len()).expect("fewer than 2^32 slots"));
        self.slots.push(SlotTy { name, ty, is_const });
        self.scopes
            .last_mut()
            .expect("active scope")
            .push((name, slot));
        slot
    }

    fn lookup(&self, name: Symbol) -> Option<SlotId> {
        self.scopes.iter().rev().find_map(|scope| {
            scope
                .iter()
                .rev()
                .find(|(n, _)| *n == name)
                .map(|(_, slot)| *slot)
        })
    }

    /// The slot `name` is already bound to in the innermost scope.
    fn in_current_scope(&self, name: Symbol) -> Option<SlotId> {
        self.scopes
            .last()
            .expect("active scope")
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, slot)| *slot)
    }

    fn resolve_stmt(&mut self, unit: &mut TranslationUnit, s: StmtId) {
        // Take the statement out of the arena so we can walk children
        // through `unit` without aliasing; every path below puts it back.
        let placeholder = Stmt::Empty(SourceLoc::default());
        let mut stmt = std::mem::replace(&mut unit.stmts[s.0 as usize], placeholder);
        match &mut stmt {
            Stmt::Decl(d) => self.resolve_decl(unit, d),
            Stmt::Expr(e) => self.resolve_expr(unit, *e),
            Stmt::If(cond, then, els) => {
                self.resolve_expr(unit, *cond);
                let (then, els) = (*then, *els);
                self.resolve_stmt(unit, then);
                if let Some(els) = els {
                    self.resolve_stmt(unit, els);
                }
            }
            Stmt::While(cond, body) => {
                self.resolve_expr(unit, *cond);
                let body = *body;
                self.resolve_stmt(unit, body);
            }
            Stmt::For(init, cond, step, body) => {
                // The init declaration's scope is the whole loop (§6.8.5:5).
                self.scopes.push(Vec::new());
                let (init, cond, step, body) = (*init, *cond, *step, *body);
                if let Some(init) = init {
                    self.resolve_stmt(unit, init);
                }
                if let Some(cond) = cond {
                    self.resolve_expr(unit, cond);
                }
                if let Some(step) = step {
                    self.resolve_expr(unit, step);
                }
                self.resolve_stmt(unit, body);
                self.scopes.pop();
            }
            Stmt::Return(e, _) => {
                if let Some(e) = *e {
                    self.resolve_expr(unit, e);
                }
            }
            Stmt::Block(body, _) => {
                self.scopes.push(Vec::new());
                for &child in body.iter() {
                    self.resolve_stmt(unit, child);
                }
                self.scopes.pop();
            }
            Stmt::Switch(cond, body, loc, table) => {
                self.resolve_expr(unit, *cond);
                let (body, loc, table) = (*body, *loc, *table);
                self.resolve_stmt(unit, body);
                unit.switches[table as usize] = switch_table(unit, body, loc);
            }
            Stmt::Case(e, inner, _) => {
                self.resolve_expr(unit, *e);
                let inner = *inner;
                self.resolve_stmt(unit, inner);
            }
            Stmt::Default(inner, _) => {
                let inner = *inner;
                self.resolve_stmt(unit, inner);
            }
            Stmt::Label(name, inner, loc) => {
                self.labels.push((*name, *loc));
                let inner = *inner;
                self.resolve_stmt(unit, inner);
            }
            Stmt::Goto(target, loc) => self.gotos.push((*target, *loc)),
            Stmt::Break(_) | Stmt::Continue(_) | Stmt::Empty(_) => {}
        }
        unit.stmts[s.0 as usize] = stmt;
    }

    fn resolve_decl(&mut self, unit: &mut TranslationUnit, d: &mut Decl) {
        // The declarator (including its array size) is resolved in the
        // scope *outside* the new binding: `int n = 2; { int n[n]; }`
        // sizes the array with the outer n (§6.2.1:7).
        let ty = match d.array_size {
            None => ValTy::of(&d.ty),
            Some(size) => {
                self.resolve_expr(unit, size);
                d.const_size = is_constant_expr(unit, size);
                // A constant length is known now; an invalid one (not
                // positive, or undefined) leaves the type unsized.
                let len = d
                    .const_size
                    .then(|| const_eval(unit, size).ok())
                    .flatten()
                    .and_then(|n| u32::try_from(n.math()).ok())
                    .and_then(NonZeroU32::new);
                ValTy::array(&d.ty, len)
            }
        };
        d.redeclares = self.in_current_scope(d.name);
        d.slot = self.bind(d.name, ty, d.quals.is_const);
        // The initializer sees the new binding: `int x = x;` reads the
        // fresh, indeterminate x.
        if let Some(init) = d.init {
            self.resolve_expr(unit, init);
        }
        // `d` lives outside the arena while its statement is detached, so
        // iterating it while resolving through `unit` does not alias.
        if let Some(items) = &d.array_init {
            for &item in items {
                self.resolve_expr(unit, item);
            }
        }
    }

    fn resolve_expr(&mut self, unit: &mut TranslationUnit, e: ExprId) {
        let kind = &unit.exprs[e.0 as usize].kind;
        match *kind {
            ExprKind::IntLit(_) => {}
            ExprKind::Ident(sym) => {
                if let Some(slot) = self.lookup(sym) {
                    unit.exprs[e.0 as usize].kind = ExprKind::Slot(slot, sym);
                }
            }
            // Already-resolved nodes only appear if resolve ran twice;
            // re-resolving is a no-op either way.
            ExprKind::Slot(_, _) => {}
            // `sizeof(type)` names no objects; a `sizeof expr` operand is
            // unevaluated but its names still resolve (§6.2.1 scope rules
            // apply to the program text, not to executions).
            ExprKind::SizeofType(_) => {}
            ExprKind::Unary(_, a)
            | ExprKind::Deref(a)
            | ExprKind::AddrOf(a)
            | ExprKind::PreIncDec(a, _)
            | ExprKind::PostIncDec(a, _)
            | ExprKind::SizeofExpr(a) => self.resolve_expr(unit, a),
            // A cast names no objects itself; its operand resolves.
            ExprKind::Cast(_, a) => self.resolve_expr(unit, a),
            ExprKind::Binary(_, a, b)
            | ExprKind::LogicalAnd(a, b)
            | ExprKind::LogicalOr(a, b)
            | ExprKind::Assign(a, _, b)
            | ExprKind::Index(a, b)
            | ExprKind::Comma(a, b) => {
                self.resolve_expr(unit, a);
                self.resolve_expr(unit, b);
            }
            ExprKind::Conditional(c, t, f) => {
                self.resolve_expr(unit, c);
                self.resolve_expr(unit, t);
                self.resolve_expr(unit, f);
            }
            ExprKind::Call(_, ref args) => {
                let n = args.len();
                for i in 0..n {
                    let ExprKind::Call(_, args) = &unit.exprs[e.0 as usize].kind else {
                        unreachable!("node kind cannot change under us");
                    };
                    let a = args[i];
                    self.resolve_expr(unit, a);
                }
            }
        }
        unit.types[e.0 as usize] = type_of(unit, &self.slots, e);
    }
}

/// The case table of a `switch` at `loc` whose resolved body is `body`
/// (§6.8.4.2): every `case`/`default` on the label chains heading the
/// body's top-level items, in scan order, each `case` constant folded
/// once.
fn switch_table(unit: &TranslationUnit, body: StmtId, loc: SourceLoc) -> SwitchTable {
    let (items, block) = match unit.stmt(body) {
        Stmt::Block(items, _) => (&items[..], true),
        _ => (std::slice::from_ref(&body), false),
    };
    let mut table = SwitchTable::default();
    for (i, &item) in items.iter().enumerate() {
        let mut cur = item;
        loop {
            match unit.stmt(cur) {
                Stmt::Case(e, inner, _) => {
                    table
                        .arms
                        .push((CaseArm::Case(const_eval(unit, *e)), i as u32));
                    cur = *inner;
                }
                Stmt::Default(inner, _) => {
                    table.arms.push((CaseArm::Default, i as u32));
                    cur = *inner;
                }
                Stmt::Label(_, inner, _) => cur = *inner,
                terminal => {
                    if table.nested_case.is_none() && stmt_contains_case(unit, terminal) {
                        table.nested_case =
                            Some(if block { loc } else { stmt_loc(unit, terminal) });
                    }
                    break;
                }
            }
        }
    }
    table
}

/// Whether `s` contains a `case` or `default` label belonging to the
/// *enclosing* switch (i.e. not descending into nested `switch` bodies,
/// whose labels are their own).
fn stmt_contains_case(unit: &TranslationUnit, s: &Stmt) -> bool {
    let at = |id: StmtId| stmt_contains_case(unit, unit.stmt(id));
    match s {
        Stmt::Case(_, _, _) | Stmt::Default(_, _) => true,
        Stmt::Label(_, inner, _) => at(*inner),
        Stmt::If(_, then, els) => at(*then) || els.is_some_and(at),
        Stmt::While(_, body) => at(*body),
        Stmt::For(init, _, _, body) => init.is_some_and(at) || at(*body),
        Stmt::Block(items, _) => items.iter().any(|&i| at(i)),
        // A nested switch owns its labels.
        Stmt::Switch(..) => false,
        Stmt::Decl(_)
        | Stmt::Expr(_)
        | Stmt::Return(_, _)
        | Stmt::Break(_)
        | Stmt::Continue(_)
        | Stmt::Goto(_, _)
        | Stmt::Empty(_) => false,
    }
}

/// C's expression-typing rules (§6.5), applied to `e` once its operands
/// are typed: the single source of every static type in the workspace.
/// `slots` holds the declared type of every slot bound so far.
fn type_of(unit: &TranslationUnit, slots: &[SlotTy], e: ExprId) -> ValTy {
    use ValTy::{Int, Ptr, Unknown};
    // Operand values: arrays decay everywhere but under `sizeof` and `&`.
    let ty = |x: ExprId| unit.ty(x).decay();
    let is_null = |x: ExprId| matches!(unit.expr(x).kind, ExprKind::IntLit(c) if c.is_zero());
    match &unit.expr(e).kind {
        ExprKind::IntLit(c) => Int(c.ty),
        ExprKind::Ident(_) => Unknown,
        ExprKind::Slot(slot, _) => slots.get(slot.index()).map_or(Unknown, |s| s.ty),
        // §6.5.3.3:5, §6.5.13:3, §6.5.14:3 — these yield int.
        ExprKind::Unary(UnaryOp::Not, _) | ExprKind::LogicalAnd(..) | ExprKind::LogicalOr(..) => {
            Int(IntTy::Int)
        }
        // §6.5.3.3:2/:4 — the promoted operand's type.
        ExprKind::Unary(_, a) => match ty(*a) {
            Int(t) => Int(t.promote()),
            _ => Unknown,
        },
        ExprKind::Binary(op, a, b) => binary(*op, ty(*a), ty(*b)),
        ExprKind::Conditional(_, t, f) => match (ty(*t), ty(*f)) {
            (x, y) if x == y => x,
            // §6.5.15:5 — both arithmetic: the usual arithmetic
            // conversions, whichever arm is chosen.
            (Int(x), Int(y)) => Int(IntTy::usual_arith(x, y)),
            // §6.5.15:6 — a null pointer constant takes the other arm's
            // pointer type.
            (p @ Ptr { .. }, Int(_)) if is_null(*f) => p,
            (Int(_), p @ Ptr { .. }) if is_null(*t) => p,
            (Ptr { .. }, Ptr { .. }) => Ptr {
                depth: 1,
                base: Base::Unknown,
            },
            _ => Unknown,
        },
        // §6.5.16:3, §6.5.2.4:2, §6.5.3.1:2 — the left operand's type.
        ExprKind::Assign(p, _, _) | ExprKind::PreIncDec(p, _) | ExprKind::PostIncDec(p, _) => {
            ty(*p)
        }
        // §6.5.3.2:4, §6.5.2.1:2 — the pointee; a `void` or unknown
        // pointee has no value type.
        ExprKind::Deref(a) | ExprKind::Index(a, _) => match ty(*a) {
            Ptr {
                depth: 1,
                base: Base::Int(t),
            } => Int(t),
            Ptr { depth, base } if depth > 1 => Ptr {
                depth: depth - 1,
                base,
            },
            _ => Unknown,
        },
        // §6.5.3.2:3 — the operand does not decay: `&a` of an array is a
        // pointer to the whole array, whose pointee the lattice cannot
        // name.
        ExprKind::AddrOf(a) => match unit.ty(*a) {
            Int(t) => Ptr {
                depth: 1,
                base: Base::Int(t),
            },
            Ptr { depth, base } => Ptr {
                depth: depth.saturating_add(1),
                base,
            },
            _ => Ptr {
                depth: 1,
                base: Base::Unknown,
            },
        },
        // §6.5.2.2:5 — the callee's return type; `malloc` returns
        // `void *` (§7.22.3.4) and `free` nothing (§7.22.3.3).
        ExprKind::Call(sym, _) => match unit.function(*sym) {
            Some(f) => f.ret_ty(),
            None if *sym == kw::MALLOC => Ptr {
                depth: 1,
                base: Base::Void,
            },
            None if *sym == kw::FREE => ValTy::Void,
            None => Unknown,
        },
        // §6.5.17:2 — the right operand's type.
        ExprKind::Comma(_, b) => ty(*b),
        // §6.5.3.4:5 — `size_t`, whatever the operand.
        ExprKind::SizeofType(_) | ExprKind::SizeofExpr(_) => Int(SIZE_T),
        // §6.5.4:5 — the named type.
        ExprKind::Cast(t, _) => ValTy::of(t),
    }
}

/// The type of `a <op> b` over decayed operand types.
fn binary(op: BinOp, a: ValTy, b: ValTy) -> ValTy {
    use BinOp::*;
    use ValTy::{Int, Ptr, Unknown};
    match (op, a, b) {
        // §6.5.8:6, §6.5.9:3 — comparisons yield int.
        (Lt | Le | Gt | Ge | Eq | Ne, _, _) => Int(IntTy::Int),
        // §6.5.7:3 — shifts take the promoted *left* operand's type.
        (Shl | Shr, Int(x), _) => Int(x.promote()),
        (Shl | Shr, _, _) => Unknown,
        // §6.5.5:3, §6.5.6:4, §6.5.10–12 — the usual arithmetic
        // conversions.
        (_, Int(x), Int(y)) => Int(IntTy::usual_arith(x, y)),
        // §6.5.6:8 — pointer ± integer keeps the pointer's type.
        (Add | Sub, p @ Ptr { .. }, Int(_)) | (Add, Int(_), p @ Ptr { .. }) => p,
        // §6.5.6:9 — a pointer difference is `ptrdiff_t`, `long` on LP64.
        (Sub, Ptr { .. }, Ptr { .. }) => Int(IntTy::Long),
        _ => Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    /// All `(slot, spelling)` pairs for resolved identifier references in
    /// `main`, in arena (roughly source) order.
    fn slots_of(src: &str) -> Vec<(u32, String)> {
        let unit = parse(src).unwrap();
        unit.exprs
            .iter()
            .filter_map(|e| match e.kind {
                ExprKind::Slot(slot, sym) => Some((slot.0, unit.interner.resolve(sym).to_string())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn params_and_locals_get_dense_slots() {
        let unit = parse("int f(int a, int b) { int c = a + b; return c; }").unwrap();
        assert_eq!(unit.functions[0].slots.len(), 3);
    }

    #[test]
    fn shadowing_gets_a_distinct_slot() {
        let refs = slots_of("int main(void) { int x = 1; { int x = 2; x; } x; return 0; }");
        // inner `x;` and outer `x;` reference different slots with the
        // same spelling.
        let inner = refs.iter().find(|(s, _)| *s == 1).expect("inner ref");
        let outer = refs.iter().find(|(s, _)| *s == 0).expect("outer ref");
        assert_eq!(inner.1, "x");
        assert_eq!(outer.1, "x");
    }

    #[test]
    fn use_before_declaration_binds_the_outer_name() {
        // The `x` in `int y = x;` appears before the block's own `int x`,
        // so it must bind to the outer declaration (slot 0), not the
        // later one.
        let unit =
            parse("int main(void) { int x = 1; { int y = x; int x = 2; return y + x; } }").unwrap();
        let refs: Vec<_> = unit
            .exprs
            .iter()
            .filter_map(|e| match e.kind {
                ExprKind::Slot(slot, sym) if unit.interner.resolve(sym) == "x" => Some(slot.0),
                _ => None,
            })
            .collect();
        // First x reference -> outer slot 0; the one in `return y + x`
        // -> the block's own x.
        assert_eq!(refs.first(), Some(&0));
        assert!(refs.iter().any(|&s| s != 0));
    }

    #[test]
    fn unresolved_identifiers_stay_ident() {
        let unit = parse("int main(void) { if (0) { ghost; } return 0; }").unwrap();
        assert!(unit
            .exprs
            .iter()
            .any(|e| matches!(e.kind, ExprKind::Ident(s) if unit.interner.resolve(s) == "ghost")));
    }

    #[test]
    fn same_scope_redeclaration_is_flagged_lazily() {
        let unit = parse("int main(void) { int x = 1; int x = 2; return x; }").unwrap();
        let redecls: Vec<_> = unit
            .stmts
            .iter()
            .filter_map(|s| match s {
                Stmt::Decl(d) => Some(d.redeclares),
                _ => None,
            })
            .collect();
        assert_eq!(redecls, vec![None, Some(SlotId(0))]);
    }

    #[test]
    fn array_size_constness_is_precomputed() {
        let unit =
            parse("int main(void) { int n = 3; int a[2 + 2]; int b[n]; return 0; }").unwrap();
        let consts: Vec<_> = unit
            .stmts
            .iter()
            .filter_map(|s| match s {
                Stmt::Decl(d) if d.array_size.is_some() => Some(d.const_size),
                _ => None,
            })
            .collect();
        assert_eq!(consts, vec![true, false]);
    }

    #[test]
    fn every_expression_is_typed_once() {
        use crate::ast::{Base, ValTy};
        // The operands of `return`'s comma chain, in source order.
        let unit = parse(
            "int main(void) { int x = 1; int *p = &x; int a[3]; \
             return (*p, p - p, x = 5, a, a + 1, &a, 1 ? p : 0, malloc(4), sizeof a); }",
        )
        .unwrap();
        let mut operands = Vec::new();
        let ret = unit
            .stmts
            .iter()
            .find_map(|s| match s {
                Stmt::Return(Some(e), _) => Some(*e),
                _ => None,
            })
            .unwrap();
        let mut e = ret;
        while let ExprKind::Comma(l, r) = unit.expr(e).kind {
            operands.push(r);
            e = l;
        }
        operands.push(e);
        operands.reverse();
        let int_ptr = ValTy::Ptr {
            depth: 1,
            base: Base::Int(IntTy::Int),
        };
        let types: Vec<ValTy> = operands.iter().map(|&e| unit.ty(e)).collect();
        assert_eq!(
            types,
            [
                ValTy::Int(IntTy::Int),
                ValTy::Int(IntTy::Long),
                ValTy::Int(IntTy::Int),
                ValTy::Array {
                    depth: 0,
                    base: Base::Int(IntTy::Int),
                    len: NonZeroU32::new(3),
                },
                int_ptr,
                ValTy::Ptr {
                    depth: 1,
                    base: Base::Unknown,
                },
                int_ptr,
                ValTy::Ptr {
                    depth: 1,
                    base: Base::Void,
                },
                ValTy::Int(SIZE_T),
            ]
        );
        // The whole comma expression decays its last operand's type.
        assert_eq!(unit.ty(ret), ValTy::Int(SIZE_T));
        // The slot table records what each slot was declared as.
        let slots = &unit.functions[0].slots;
        assert_eq!(slots[1].ty, int_ptr);
        assert!(matches!(slots[2].ty, ValTy::Array { .. }));
    }

    #[test]
    fn label_and_goto_tables_are_exported() {
        let unit = parse("int main(void) { goto done; here: ; done: return 0; }").unwrap();
        let main = unit.function_named("main").unwrap();
        let labels: Vec<&str> = main
            .labels
            .iter()
            .map(|(s, _)| unit.interner.resolve(*s))
            .collect();
        assert_eq!(labels, ["here", "done"]);
        let gotos: Vec<&str> = main
            .gotos
            .iter()
            .map(|(s, _)| unit.interner.resolve(*s))
            .collect();
        assert_eq!(gotos, ["done"]);
    }

    #[test]
    fn function_table_maps_names_to_first_definition() {
        let unit = parse(
            "int f(void) { return 1; } int g(void) { return 2; } int main(void) { return f(); }",
        )
        .unwrap();
        let f = unit.interner.resolve(unit.functions[0].name);
        assert_eq!(f, "f");
        let sym = unit.functions[0].name;
        assert_eq!(unit.func_by_symbol[sym.index()], Some(0));
        assert!(unit.function(sym).is_some());
    }
}
