//! Label, `goto`, and `switch` constraints — the statement-level half of
//! the translation phase.
//!
//! The pass consumes the label/goto tables the resolver exported on each
//! [`Function`] (duplicate labels §6.8.1:3, `goto` to nowhere
//! §6.8.6.1:1) and walks the body once for everything positional:
//!
//! - `case`/`default` labels: constant-expression checking via
//!   [`cundef_semantics::consteval`] (§6.8.4.2:3 — non-constant labels,
//!   and undefined operations *inside* constant labels), duplicate case
//!   values, and duplicate `default`s per `switch`;
//! - jumps into the scope of a variably modified declaration: a `goto`
//!   whose target label sits in the scope of a VLA the goto itself is
//!   not in (§6.8.6.1:1, catalog entry 75), and a `case`/`default`
//!   label in the scope of a VLA declared inside the `switch` body
//!   (§6.8.4.2:2, catalog entry 76).

use cundef_semantics::ast::{Function, Stmt, StmtId, TranslationUnit};
use cundef_semantics::consteval::{const_eval, ConstStop};
use cundef_semantics::intern::Symbol;
use cundef_ub::{SourceLoc, UbError, UbKind};

/// Run the label pass over one function.
pub fn check(unit: &TranslationUnit, func: &Function, findings: &mut Vec<UbError>) {
    let fname = unit.name_of(func);

    // §6.8.1:3 — label names are unique within a function.
    let mut seen: Vec<Symbol> = Vec::new();
    for (sym, loc) in &func.labels {
        if seen.contains(sym) {
            findings.push(
                UbError::new(UbKind::DuplicateLabel)
                    .at(*loc)
                    .in_function(fname)
                    .with_detail(format!(
                        "label `{}` is already defined in `{fname}`",
                        unit.interner.resolve(*sym)
                    )),
            );
        } else {
            seen.push(*sym);
        }
    }

    // §6.8.6.1:1 — a goto names a label of the enclosing function.
    for (sym, loc) in &func.gotos {
        if !func.labels.iter().any(|(l, _)| l == sym) {
            findings.push(
                UbError::new(UbKind::UndeclaredLabel)
                    .at(*loc)
                    .in_function(fname)
                    .with_detail(format!(
                        "`goto {}` names no label in `{fname}`",
                        unit.interner.resolve(*sym)
                    )),
            );
        }
    }

    let mut w = LabelWalker {
        unit,
        fname,
        findings,
        vlas: Vec::new(),
        switches: Vec::new(),
        label_scopes: Vec::new(),
        goto_scopes: Vec::new(),
    };
    for &s in &func.body {
        w.stmt(s);
    }

    // §6.8.6.1:1 — the VLAs in scope at the label must all be in scope
    // at the goto; anything extra means the jump *enters* a VLA scope.
    let LabelWalker {
        label_scopes,
        goto_scopes,
        ..
    } = w;
    for (gsym, gloc, gset) in &goto_scopes {
        let Some((_, _, lset)) = label_scopes.iter().find(|(l, _, _)| l == gsym) else {
            continue; // UndeclaredLabel already reported
        };
        if let Some((_, vname)) = lset
            .iter()
            .find(|(slot, _)| !gset.iter().any(|(g, _)| g == slot))
        {
            findings.push(
                UbError::new(UbKind::JumpIntoVlaScope)
                    .at(*gloc)
                    .in_function(fname)
                    .with_detail(format!(
                        "`goto {}` jumps into the scope of variably modified `{}`",
                        unit.interner.resolve(*gsym),
                        unit.interner.resolve(*vname)
                    )),
            );
        }
    }
}

/// A variably modified declaration in scope: `(slot, name)`.
type Vla = (u32, Symbol);

/// A jump point (label or `goto`) with the VLA set in scope there.
type JumpScope = (Symbol, SourceLoc, Vec<Vla>);

/// One enclosing `switch` during the walk.
struct SwitchFrame {
    /// Depth of the VLA stack when the switch was entered: labels that
    /// see more VLAs than this sit inside a VLA scope the dispatch jump
    /// would enter.
    vla_base: usize,
    /// Case values (mathematical values of the folded constants) seen so
    /// far in this switch.
    seen: Vec<i128>,
    saw_default: bool,
}

struct LabelWalker<'a> {
    unit: &'a TranslationUnit,
    fname: &'a str,
    findings: &'a mut Vec<UbError>,
    /// Variably modified declarations currently in scope.
    vlas: Vec<Vla>,
    switches: Vec<SwitchFrame>,
    /// Each ordinary label with the VLA set in scope at its position.
    label_scopes: Vec<JumpScope>,
    /// Each `goto` with the VLA set in scope at its position.
    goto_scopes: Vec<JumpScope>,
}

impl<'a> LabelWalker<'a> {
    fn report(&mut self, kind: UbKind, loc: SourceLoc, detail: String) {
        self.findings.push(
            UbError::new(kind)
                .at(loc)
                .in_function(self.fname)
                .with_detail(detail),
        );
    }

    fn stmt(&mut self, s: StmtId) {
        match self.unit.stmt(s) {
            Stmt::Decl(d) => {
                if d.array_size.is_some() && !d.const_size {
                    self.vlas.push((d.slot.index() as u32, d.name));
                }
            }
            Stmt::Block(items, _) => {
                let mark = self.vlas.len();
                for &item in items {
                    self.stmt(item);
                }
                self.vlas.truncate(mark);
            }
            Stmt::If(_, then, els) => {
                self.stmt(*then);
                if let Some(els) = els {
                    self.stmt(*els);
                }
            }
            Stmt::While(_, body) => self.stmt(*body),
            Stmt::For(init, _, _, body) => {
                let mark = self.vlas.len();
                if let Some(init) = init {
                    self.stmt(*init);
                }
                self.stmt(*body);
                self.vlas.truncate(mark);
            }
            Stmt::Switch(_, body, ..) => {
                self.switches.push(SwitchFrame {
                    vla_base: self.vlas.len(),
                    seen: Vec::new(),
                    saw_default: false,
                });
                let body = *body;
                self.stmt(body);
                self.switches.pop();
            }
            Stmt::Case(e, inner, loc) => {
                self.case_label(*e, *loc);
                self.check_label_vla(*loc, "case");
                self.stmt(*inner);
            }
            Stmt::Default(inner, loc) => {
                if let Some(frame) = self.switches.last_mut() {
                    if frame.saw_default {
                        let loc = *loc;
                        self.report(
                            UbKind::DuplicateCaseLabel,
                            loc,
                            "multiple `default` labels in one switch statement".into(),
                        );
                    } else {
                        frame.saw_default = true;
                    }
                }
                self.check_label_vla(*loc, "default");
                self.stmt(*inner);
            }
            Stmt::Label(sym, inner, loc) => {
                self.label_scopes.push((*sym, *loc, self.vlas.clone()));
                self.stmt(*inner);
            }
            Stmt::Goto(sym, loc) => self.goto_scopes.push((*sym, *loc, self.vlas.clone())),
            Stmt::Expr(_)
            | Stmt::Return(_, _)
            | Stmt::Break(_)
            | Stmt::Continue(_)
            | Stmt::Empty(_) => {}
        }
    }

    /// §6.8.4.2:3 — a case expression is an integer constant expression,
    /// distinct from every other case of the same switch. Duplicates are
    /// detected on the constants' mathematical values; the stricter
    /// "same value *after conversion* to the promoted controlling type"
    /// form (e.g. `case -1:` vs `case 4294967295u:` under an unsigned
    /// controlling expression) needs the controlling expression's static
    /// type, which this pass does not compute — such pairs are left to
    /// the evaluator, whose dispatch does convert (§6.8.4.2:5).
    fn case_label(&mut self, e: cundef_semantics::ast::ExprId, loc: SourceLoc) {
        match const_eval(self.unit, e) {
            Ok(v) => {
                let v = v.math();
                let dup = self
                    .switches
                    .last()
                    .is_some_and(|frame| frame.seen.contains(&v));
                if dup {
                    self.report(
                        UbKind::DuplicateCaseLabel,
                        loc,
                        format!("duplicate case label {v}"),
                    );
                } else if let Some(frame) = self.switches.last_mut() {
                    frame.seen.push(v);
                }
            }
            Err(ConstStop::NotConst(l)) => self.report(
                UbKind::NonConstantCaseLabel,
                l,
                "case label is not an integer constant expression".into(),
            ),
            Err(ConstStop::Ub {
                kind,
                detail,
                loc: l,
            }) => self.report(kind, l, format!("in a case label: {detail}")),
        }
    }

    /// §6.8.4.2:2 — a `case`/`default` label must not sit in the scope
    /// of a VLA declared inside the switch body: dispatching to it would
    /// jump into that scope.
    fn check_label_vla(&mut self, loc: SourceLoc, what: &str) {
        let Some(frame) = self.switches.last() else {
            return;
        };
        if self.vlas.len() > frame.vla_base {
            let (_, vname) = self.vlas[self.vlas.len() - 1];
            let name = self.unit.interner.resolve(vname).to_string();
            self.report(
                UbKind::JumpIntoVlaScope,
                loc,
                format!("`{what}` label lies in the scope of variably modified `{name}`"),
            );
        }
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
    fn duplicate_and_undeclared_labels() {
        assert_eq!(
            kinds_of("int main(void) { x: ; x: ; return 0; }"),
            vec![UbKind::DuplicateLabel]
        );
        assert_eq!(
            kinds_of("int main(void) { goto nowhere; return 0; }"),
            vec![UbKind::UndeclaredLabel]
        );
        assert_eq!(
            kinds_of("int main(void) { goto out; out: return 0; }"),
            vec![]
        );
    }

    #[test]
    fn duplicate_and_non_constant_case_labels() {
        assert_eq!(
            kinds_of("int main(void) { switch (1) { case 2: ; case 1 + 1: ; } return 0; }"),
            vec![UbKind::DuplicateCaseLabel]
        );
        assert_eq!(
            kinds_of("int main(void) { switch (1) { default: ; default: ; } return 0; }"),
            vec![UbKind::DuplicateCaseLabel]
        );
        assert_eq!(
            kinds_of("int main(void) { int k = 1; switch (1) { case k: ; } return 0; }"),
            vec![UbKind::NonConstantCaseLabel]
        );
        // An undefined constant operation inside a case label carries
        // the arithmetic kind.
        assert_eq!(
            kinds_of("int main(void) { switch (1) { case 1 / 0: ; } return 0; }"),
            vec![UbKind::DivisionByZero]
        );
        // Distinct cases across distinct switches are fine.
        assert_eq!(
            kinds_of(
                "int main(void) { switch (1) { case 1: ; } switch (2) { case 1: ; } return 0; }"
            ),
            vec![]
        );
    }

    #[test]
    fn case_labels_follow_the_one_constant_expression_predicate() {
        // `sizeof x` is a `size_t` constant (§6.5.3.4:2).
        assert_eq!(
            kinds_of("int main(void) { int x = 1; switch (4) { case sizeof x: ; } return x; }"),
            vec![]
        );
        // An identifier operand disqualifies the label even where it is
        // never evaluated (§6.6:6), whichever operator hides it.
        for label in ["1 ? 2 : !x", "0 && x", "1 ? 2 : -x", "1 || x"] {
            let src = format!(
                "int main(void) {{ int x = 1; switch (4) {{ case {label}: ; }} return x; }}"
            );
            assert_eq!(
                kinds_of(&src),
                vec![UbKind::NonConstantCaseLabel],
                "{label}"
            );
        }
        // `sizeof` of a VLA is not a constant.
        assert_eq!(
            kinds_of(
                "int main(void) { int n = 2; int v[n]; switch (4) { case sizeof v: ; } return 0; }"
            ),
            vec![UbKind::NonConstantCaseLabel]
        );
    }

    #[test]
    fn jumps_into_vla_scope() {
        // goto forward past a VLA declaration into its scope.
        assert_eq!(
            kinds_of(
                "int main(void) { int n = 2; goto in; { int a[n]; in: a[0] = 1; } return 0; }"
            ),
            vec![UbKind::JumpIntoVlaScope]
        );
        // switch dispatch over a VLA declared inside the body.
        assert_eq!(
            kinds_of(
                "int main(void) { int n = 2; switch (1) { int a[n]; case 1: return 0; } return 0; }"
            ),
            vec![UbKind::JumpIntoVlaScope]
        );
        // goto within the VLA's scope is fine.
        assert_eq!(
            kinds_of(
                "int main(void) { int n = 2; { int a[n]; goto in; in: a[0] = 1; } return 0; }"
            ),
            vec![]
        );
        // goto *out of* a VLA scope is fine too.
        assert_eq!(
            kinds_of("int main(void) { int n = 2; { int a[n]; goto out; } out: return 0; }"),
            vec![]
        );
    }
}
