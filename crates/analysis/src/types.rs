//! The type-checking pass: C's type constraints over the subset's
//! expression language.
//!
//! The types themselves are not computed here: the resolver recorded
//! the value type of every expression ([`TranslationUnit::ty`]) and the
//! declared type of every frame slot ([`Function::slots`]) with the
//! workspace's one set of typing rules. This pass walks each body once
//! and reports:
//!
//! - objects declared with an incomplete type (`void x;`, §6.7:7);
//! - `restrict` on non-pointer types (§6.7.3:2);
//! - same-scope redeclarations with incompatible types (§6.7:3);
//! - assignments and `++`/`--` on objects defined `const` (§6.7.3:6 —
//!   also caught dynamically, but here before any run);
//! - uses of the (nonexistent) value of a `void` expression (§6.3.2.2:1);
//! - dereferences of pointers to `void` (§6.3.2.1/6.5.3.2);
//! - function designators converted to object values (§6.3.2.3);
//! - calls whose arity or argument types contradict the visible
//!   definition (§6.5.2.2) — every definition is a prototype in this
//!   subset, so these are decidable at translation time;
//! - `return;` in `main`, whose value the host always uses (§6.9.1:12);
//! - constant array sizes that are not positive, or whose constant
//!   expressions are themselves undefined (§6.7.6.2:1, §6.6:4).

use cundef_semantics::ast::{
    Base, Decl, ExprId, ExprKind, Function, SlotId, SlotTy, Stmt, StmtId, TranslationUnit, Ty,
    ValTy,
};
use cundef_semantics::consteval::{const_eval, ConstStop};
use cundef_semantics::intern::Symbol;
use cundef_ub::{SourceLoc, UbError, UbKind};

/// Run the type pass over one function.
pub fn check(unit: &TranslationUnit, func: &Function, findings: &mut Vec<UbError>) {
    let mut w = TypeWalker {
        unit,
        func,
        fname: unit.name_of(func),
        is_main: unit.name_of(func) == "main" && !func.returns_void,
        findings,
    };
    for &s in &func.body {
        w.stmt(s);
    }
}

struct TypeWalker<'a> {
    unit: &'a TranslationUnit,
    func: &'a Function,
    fname: &'a str,
    is_main: bool,
    findings: &'a mut Vec<UbError>,
}

impl<'a> TypeWalker<'a> {
    fn report(&mut self, kind: UbKind, loc: SourceLoc, detail: String) {
        self.findings.push(
            UbError::new(kind)
                .at(loc)
                .in_function(self.fname)
                .with_detail(detail),
        );
    }

    fn name(&self, sym: Symbol) -> &'a str {
        self.unit.interner.resolve(sym)
    }

    fn slot(&self, slot: SlotId) -> SlotTy {
        self.func.slots[slot.index()]
    }

    // ----- statements -----

    fn stmt(&mut self, s: StmtId) {
        match self.unit.stmt(s) {
            Stmt::Decl(d) => self.decl(d),
            // A full expression's value is discarded; `void` is fine.
            Stmt::Expr(e) => self.expr(*e),
            Stmt::If(c, then, els) => {
                self.value(*c);
                self.stmt(*then);
                if let Some(els) = els {
                    self.stmt(*els);
                }
            }
            Stmt::While(c, body) => {
                self.value(*c);
                self.stmt(*body);
            }
            Stmt::For(init, cond, step, body) => {
                if let Some(init) = init {
                    self.stmt(*init);
                }
                if let Some(cond) = cond {
                    self.value(*cond);
                }
                if let Some(step) = step {
                    self.expr(*step);
                }
                self.stmt(*body);
            }
            Stmt::Return(Some(e), _) => {
                self.value(*e);
            }
            Stmt::Return(None, loc) => {
                if self.is_main {
                    // §6.9.1:12, static form: the host always uses
                    // `main`'s value as the termination status.
                    self.report(
                        UbKind::ReturnWithoutValue,
                        *loc,
                        "`return;` in `main`, whose value the host uses as the termination status"
                            .into(),
                    );
                }
            }
            Stmt::Block(items, _) => {
                for &item in items {
                    self.stmt(item);
                }
            }
            Stmt::Switch(c, body, ..) => {
                self.value(*c);
                self.stmt(*body);
            }
            // Case expressions are constant-checked by the labels pass.
            Stmt::Case(_, inner, _) | Stmt::Default(inner, _) | Stmt::Label(_, inner, _) => {
                self.stmt(*inner)
            }
            Stmt::Break(_) | Stmt::Continue(_) | Stmt::Goto(_, _) | Stmt::Empty(_) => {}
        }
    }

    fn decl(&mut self, d: &Decl) {
        let dname = self.name(d.name);

        // §6.7:7 — an object's type must be complete by the end of its
        // declarator; bare `void` never is.
        if d.ty.ptr_depth() == 0 && *d.ty.base() == Ty::Void {
            self.report(
                UbKind::IncompleteTypeObject,
                d.loc,
                format!("object `{dname}` declared with incomplete type `void`"),
            );
        }

        // §6.7.3:2 — restrict only qualifies pointer-to-object types.
        if d.base_restrict || (d.quals.is_restrict && d.ty.ptr_depth() == 0) {
            self.report(
                UbKind::RestrictNonPointer,
                d.loc,
                format!("`restrict` qualifies the non-pointer type of `{dname}`"),
            );
        }

        if let Some(size) = d.array_size {
            if d.const_size {
                match const_eval(self.unit, size) {
                    Ok(n) if n.math() <= 0 => self.report(
                        UbKind::ArraySizeNotPositive,
                        d.loc,
                        format!("array `{dname}` declared with size {n}"),
                    ),
                    Ok(_) => {}
                    Err(ConstStop::Ub { kind, detail, loc }) => {
                        // §6.6:4 — the constant expression itself is
                        // undefined; report the arithmetic defect.
                        self.report(
                            kind,
                            loc,
                            format!("in the size of array `{dname}`: {detail}"),
                        )
                    }
                    // `const_size` is the same §6.6 predicate.
                    Err(ConstStop::NotConst(_)) => {}
                }
            } else {
                // A VLA size is an ordinary runtime expression.
                self.value(size);
            }
        }

        // §6.7:3 — a same-scope redeclaration with a different type (or a
        // different array-ness; array lengths are not compared).
        if let Some(prev) = d.redeclares {
            let (old, new) = (self.slot(prev).ty, self.slot(d.slot).ty);
            let is_array = |t: ValTy| matches!(t, ValTy::Array { .. });
            if old.decay() != new.decay() || is_array(old) != is_array(new) {
                self.report(
                    UbKind::IncompatibleRedeclaration,
                    d.loc,
                    format!("`{dname}` redeclared with an incompatible type"),
                );
            }
        }

        if let Some(init) = d.init {
            self.value(init);
        }
        if let Some(items) = &d.array_init {
            for &item in items {
                self.value(item);
            }
        }
    }

    // ----- expressions -----

    /// Check an expression whose *value* is consumed: a `void` result is
    /// §6.3.2.2:1. Returns the value's (decayed) type, `Unknown` once a
    /// void use is reported, so one defect yields one finding.
    fn value(&mut self, e: ExprId) -> ValTy {
        self.expr(e);
        let t = self.unit.ty(e).decay();
        if t == ValTy::Void {
            let loc = self.unit.expr(e).loc;
            self.report(
                UbKind::VoidValueUsed,
                loc,
                "the value of a void expression is used".into(),
            );
            return ValTy::Unknown;
        }
        t
    }

    /// Check an expression and everything below it.
    fn expr(&mut self, e: ExprId) {
        let expr = self.unit.expr(e);
        let loc = expr.loc;
        match &expr.kind {
            ExprKind::IntLit(_) | ExprKind::Slot(_, _) => {}
            ExprKind::SizeofType(ty) => {
                // §6.5.3.4:1 — sizeof needs a complete object type; bare
                // `void` is not one.
                if ty.ptr_depth() == 0 && *ty.base() == Ty::Void {
                    self.report(
                        UbKind::SizeofInvalidOperand,
                        loc,
                        "`sizeof` applied to the incomplete type `void`".into(),
                    );
                }
            }
            ExprKind::SizeofExpr(a) => {
                // §6.5.3.4:1 — the operand shall not be a function
                // designator or have an incomplete (void) type. The
                // operand is unevaluated, but type constraints still
                // apply to the program text.
                if let Some(n) = self.function_designator(*a) {
                    self.report(
                        UbKind::SizeofInvalidOperand,
                        loc,
                        format!("`sizeof` applied to the function designator `{n}`"),
                    );
                    return;
                }
                self.expr(*a);
                if self.unit.ty(*a) == ValTy::Void {
                    self.report(
                        UbKind::SizeofInvalidOperand,
                        loc,
                        "`sizeof` applied to a void expression".into(),
                    );
                }
            }
            ExprKind::Ident(_) => {
                // The resolver left this unbound: either undeclared
                // (lazy, the evaluator's business) or a function
                // designator leaking into value position — the subset
                // has only object pointers for it to convert to.
                if let Some(n) = self.function_designator(e) {
                    self.report(
                        UbKind::FunctionObjectPointerCast,
                        loc,
                        format!("function designator `{n}` used as an object value"),
                    );
                }
            }
            ExprKind::Unary(_, a) => {
                self.value(*a);
            }
            ExprKind::Binary(_, a, b) | ExprKind::LogicalAnd(a, b) | ExprKind::LogicalOr(a, b) => {
                self.value(*a);
                self.value(*b);
            }
            ExprKind::Conditional(c, t, f) => {
                self.value(*c);
                self.expr(*t);
                self.expr(*f);
            }
            ExprKind::Assign(place, _, rhs) => {
                self.place(*place, loc);
                self.value(*rhs);
            }
            ExprKind::PreIncDec(p, _) | ExprKind::PostIncDec(p, _) => self.place(*p, loc),
            ExprKind::Deref(a) => {
                let t = self.value(*a);
                self.deref(t, loc);
            }
            ExprKind::AddrOf(a) => {
                if let Some(n) = self.function_designator(*a) {
                    self.report(
                        UbKind::FunctionObjectPointerCast,
                        loc,
                        format!("`&{n}` converts a function pointer to an object pointer"),
                    );
                    return;
                }
                self.expr(*a);
            }
            ExprKind::Index(base, idx) => {
                let t = self.value(*base);
                self.value(*idx);
                self.deref(t, loc);
            }
            ExprKind::Call(sym, args) => self.call(*sym, args, loc),
            ExprKind::Comma(a, b) => {
                self.expr(*a);
                self.expr(*b);
            }
            // §6.5.4 — `(void)e` discards any operand; a cast to a
            // non-void type needs an operand with a *value* (casting a
            // void expression is the §6.3.2.2:1 use of its nonexistent
            // value).
            ExprKind::Cast(Ty::Void, a) => self.expr(*a),
            ExprKind::Cast(_, a) => {
                self.value(*a);
            }
        }
    }

    /// An lvalue being stored to: flags writes to `const`-defined
    /// objects (§6.7.3:6).
    fn place(&mut self, e: ExprId, op_loc: SourceLoc) {
        let target = match self.unit.expr(e).kind {
            ExprKind::Slot(slot, sym) => Some((slot, sym)),
            // `a[i] = …` on an array defined const.
            ExprKind::Index(base, _) => match self.unit.expr(base).kind {
                ExprKind::Slot(slot, sym) if matches!(self.slot(slot).ty, ValTy::Array { .. }) => {
                    Some((slot, sym))
                }
                _ => None,
            },
            _ => None,
        };
        if let Some((slot, sym)) = target {
            if self.slot(slot).is_const {
                let n = self.name(sym);
                self.report(
                    UbKind::WriteToConst,
                    op_loc,
                    format!("`{n}` is defined with a const-qualified type"),
                );
            }
        }
        self.expr(e);
    }

    fn call(&mut self, sym: Symbol, args: &[ExprId], loc: SourceLoc) {
        let name = self.name(sym);
        let Some(func) = self.unit.function(sym) else {
            // `malloc`/`free` are modeled; anything else unknown is the
            // evaluator's lazy CallNonFunction.
            for &a in args {
                self.value(a);
            }
            return;
        };
        // §6.5.2.2:2/:6 — every definition is a visible prototype here,
        // so arity and argument types are translation-time questions.
        if func.params.len() != args.len() {
            self.report(
                UbKind::CallWrongArity,
                loc,
                format!(
                    "`{name}` takes {} argument(s), called with {}",
                    func.params.len(),
                    args.len()
                ),
            );
        }
        for (i, &a) in args.iter().enumerate() {
            let ta = self.value(a);
            let Some(param) = func.params.get(i) else {
                continue;
            };
            if !arg_compatible(ta, ValTy::of(&param.ty), &self.unit.expr(a).kind) {
                let pname = self.name(param.name);
                self.report(
                    UbKind::CallWrongType,
                    loc,
                    format!(
                        "argument {} of `{name}` is incompatible with parameter `{pname}`",
                        i + 1
                    ),
                );
            }
        }
    }

    /// §6.3.2.1 / catalog entry 45 — the pointed-to value of a `void *`
    /// cannot be used.
    fn deref(&mut self, t: ValTy, loc: SourceLoc) {
        if t == VOID_PTR {
            self.report(
                UbKind::VoidDereference,
                loc,
                "dereference of a pointer to void".into(),
            );
        }
    }

    /// The spelling of `e` when it names a function (the resolver left
    /// it an unbound identifier that the function table knows).
    fn function_designator(&self, e: ExprId) -> Option<&'a str> {
        match self.unit.expr(e).kind {
            ExprKind::Ident(sym) if self.unit.function(sym).is_some() => Some(self.name(sym)),
            _ => None,
        }
    }
}

const VOID_PTR: ValTy = ValTy::Ptr {
    depth: 1,
    base: Base::Void,
};

/// Whether an argument of type `ta` may initialize a parameter of type
/// `pt` (§6.5.2.2:2 via §6.5.16.1): any arithmetic type converts to any
/// other (implicitly, at worst implementation-defined — never a
/// constraint violation), `void *` accepts and provides any object
/// pointer, the null pointer constant `0` converts to any pointer, and
/// other pointers must match in depth *and* pointee base type — `long *`
/// does not initialize `int *`. Types the lattice cannot name stay
/// silent.
fn arg_compatible(ta: ValTy, pt: ValTy, arg: &ExprKind) -> bool {
    match (ta, pt) {
        (ValTy::Unknown, _) | (_, ValTy::Unknown) => true,
        (
            ValTy::Ptr {
                base: Base::Unknown,
                ..
            },
            _,
        ) => true,
        (a, b) if a == b => true,
        (ValTy::Int(_), ValTy::Int(_)) => true,
        (ValTy::Int(_), ValTy::Ptr { .. }) => {
            matches!(arg, ExprKind::IntLit(c) if c.is_zero())
        }
        (ValTy::Ptr { .. }, ValTy::Ptr { .. }) => ta == VOID_PTR || pt == VOID_PTR,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cundef_semantics::parser::parse;

    fn kinds_of(src: &str) -> Vec<UbKind> {
        let unit = parse(src).unwrap();
        let mut findings = Vec::new();
        for f in &unit.functions {
            check(&unit, f, &mut findings);
        }
        findings.iter().map(|e| e.kind()).collect()
    }

    #[test]
    fn void_objects_and_restrict_placement() {
        assert_eq!(
            kinds_of("int main(void) { void v; return 0; }"),
            vec![UbKind::IncompleteTypeObject]
        );
        assert_eq!(
            kinds_of("int main(void) { restrict int x; return 0; }"),
            vec![UbKind::RestrictNonPointer]
        );
        assert_eq!(
            kinds_of("int main(void) { restrict int *p; return 0; }"),
            vec![UbKind::RestrictNonPointer]
        );
        // …but restrict on the pointer itself is fine.
        assert_eq!(
            kinds_of("int main(void) { int * restrict p; return 0; }"),
            vec![]
        );
        // `void *p` is a fine declaration; dereferencing it is not.
        assert_eq!(kinds_of("int main(void) { void *p; return 0; }"), vec![]);
    }

    #[test]
    fn void_values_and_void_deref() {
        assert_eq!(
            kinds_of("void f(void) { return; } int main(void) { int x = f(); return x; }"),
            vec![UbKind::VoidValueUsed]
        );
        assert_eq!(
            kinds_of("int main(void) { void *p; int x = *p; return x; }"),
            vec![UbKind::VoidDereference]
        );
        // Discarding a void call is fine.
        assert_eq!(
            kinds_of("void f(void) { return; } int main(void) { f(); return 0; }"),
            vec![]
        );
    }

    #[test]
    fn incompatible_redeclarations_in_block_scope() {
        assert_eq!(
            kinds_of("int main(void) { int x = 0; int *x; return 0; }"),
            vec![UbKind::IncompatibleRedeclaration]
        );
        assert_eq!(
            kinds_of("int main(void) { int a[3]; int a; return 0; }"),
            vec![UbKind::IncompatibleRedeclaration]
        );
        // Same-type redeclaration stays the evaluator's lazy verdict.
        assert_eq!(
            kinds_of("int main(void) { int x = 0; int x; return 0; }"),
            vec![]
        );
        // Shadowing in an inner scope is not a redeclaration.
        assert_eq!(
            kinds_of("int main(void) { int x = 0; { int *x; } return 0; }"),
            vec![]
        );
    }

    #[test]
    fn const_writes_are_static_findings() {
        assert_eq!(
            kinds_of("int main(void) { const int x = 1; x = 2; return x; }"),
            vec![UbKind::WriteToConst]
        );
        assert_eq!(
            kinds_of("int main(void) { const int x = 1; x++; return x; }"),
            vec![UbKind::WriteToConst]
        );
        assert_eq!(
            kinds_of("int main(void) { const int a[2] = {1, 2}; a[0] = 3; return 0; }"),
            vec![UbKind::WriteToConst]
        );
        // const pointer to mutable data: writes through it are fine.
        assert_eq!(
            kinds_of("int main(void) { int x = 1; int * const p = &x; *p = 2; return x; }"),
            vec![]
        );
    }

    #[test]
    fn call_arity_and_argument_types_against_the_definition() {
        assert_eq!(
            kinds_of("int add(int a, int b) { return a + b; } int main(void) { return add(1); }"),
            vec![UbKind::CallWrongArity]
        );
        assert_eq!(
            kinds_of(
                "int deref(int *p) { return *p; } int main(void) { int x = 5; return deref(x); }"
            ),
            vec![UbKind::CallWrongType]
        );
        assert_eq!(
            kinds_of(
                "int f(int x) { return x; } int main(void) { int y = 0; int *p = &y; return f(p); }"
            ),
            vec![UbKind::CallWrongType]
        );
        // The null pointer constant converts to any pointer type.
        assert_eq!(
            kinds_of("int f(int *p) { return p == 0; } int main(void) { return f(0); }"),
            vec![]
        );
    }

    #[test]
    fn pointer_arguments_match_on_width_not_just_depth() {
        // `long *` does not initialize `int *` (§6.5.16.1:1) — the
        // lattice now sees the pointee width.
        assert_eq!(
            kinds_of(
                "int deref(int *p) { return *p; } \
                 int main(void) { long v = 1; return deref(&v); }"
            ),
            vec![UbKind::CallWrongType]
        );
        // Matching base types are fine at any width…
        assert_eq!(
            kinds_of(
                "long deref(long *p) { return *p; } \
                 int main(void) { long v = 1; return deref(&v) == 1; }"
            ),
            vec![]
        );
        // …and `void *` still accepts (and provides) any object pointer.
        assert_eq!(
            kinds_of(
                "int take(void *p) { return p != 0; } \
                 int main(void) { long v = 1; return take(&v); }"
            ),
            vec![]
        );
    }

    #[test]
    fn scalar_arguments_convert_implicitly_at_any_width() {
        // Arithmetic-to-arithmetic argument passing is never a
        // constraint violation: the conversion is implicit (at worst
        // implementation-defined).
        assert_eq!(
            kinds_of(
                "int f(char c) { return c; } int g(long l) { return l == 0; } \
                 int main(void) { return f(300) + g(7); }"
            ),
            vec![]
        );
    }

    #[test]
    fn sizeof_constraints_are_static_findings() {
        // §6.5.3.4:1 — no sizeof of void or of a function designator.
        assert_eq!(
            kinds_of("int main(void) { return sizeof(void); }"),
            vec![UbKind::SizeofInvalidOperand]
        );
        assert_eq!(
            kinds_of("int f(void) { return 1; } int main(void) { return sizeof f; }"),
            vec![UbKind::SizeofInvalidOperand]
        );
        assert_eq!(
            kinds_of("void q(void) { return; } int main(void) { return sizeof(q()); }"),
            vec![UbKind::SizeofInvalidOperand]
        );
        // Ordinary sizeof uses are clean, and type as size_t.
        assert_eq!(
            kinds_of("int main(void) { int x = 1; return sizeof x == sizeof(int); }"),
            vec![]
        );
    }

    #[test]
    fn function_designators_do_not_convert_to_object_values() {
        assert_eq!(
            kinds_of("int f(void) { return 1; } int main(void) { int *p; p = f; return 0; }"),
            vec![UbKind::FunctionObjectPointerCast]
        );
        assert_eq!(
            kinds_of("int f(void) { return 1; } int main(void) { int *p = &f; return 0; }"),
            vec![UbKind::FunctionObjectPointerCast]
        );
        // A local may shadow the function name.
        assert_eq!(
            kinds_of("int f(void) { return 1; } int main(void) { int f = 2; return f; }"),
            vec![]
        );
    }

    #[test]
    fn constant_array_sizes_fold_at_translation_time() {
        assert_eq!(
            kinds_of("int dead(void) { int a[1 - 4]; return 0; }"),
            vec![UbKind::ArraySizeNotPositive]
        );
        assert_eq!(
            kinds_of("int dead(void) { int a[1 << 40]; return 0; }"),
            vec![UbKind::ShiftTooFar]
        );
        assert_eq!(
            kinds_of("int dead(void) { int a[1 / 0]; return 0; }"),
            vec![UbKind::DivisionByZero]
        );
        // VLAs stay dynamic.
        assert_eq!(
            kinds_of("int main(void) { int n = 0; int a[n]; return 0; }"),
            vec![]
        );
    }

    #[test]
    fn sizeof_array_sizes_fold_from_the_type_table() {
        // `sizeof x - 4` is the constant 0: the static defect, as the
        // execution phase reports it.
        assert_eq!(
            kinds_of("int main(void) { int x = 1; int a[sizeof x - 4]; return x; }"),
            vec![UbKind::ArraySizeNotPositive]
        );
        assert_eq!(
            kinds_of("int main(void) { long a[3]; int b[sizeof a - 24]; return 0; }"),
            vec![UbKind::ArraySizeNotPositive]
        );
        // `sizeof(void)` has no size, so the array size is not a constant
        // expression: the operand is checked as an ordinary expression.
        assert_eq!(
            kinds_of("int main(void) { int a[sizeof(void)]; return 0; }"),
            vec![UbKind::SizeofInvalidOperand]
        );
    }

    #[test]
    fn bare_return_in_main_is_static() {
        assert_eq!(
            kinds_of("int main(void) { return; }"),
            vec![UbKind::ReturnWithoutValue]
        );
        // In other value-returning functions the caller may ignore the
        // value, so the verdict stays dynamic.
        assert_eq!(
            kinds_of("int f(void) { return; } int main(void) { f(); return 0; }"),
            vec![]
        );
    }
}
