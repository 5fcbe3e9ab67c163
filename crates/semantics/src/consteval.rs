//! Integer constant expressions (C11 §6.6), evaluated at translation
//! time.
//!
//! Two layers live here:
//!
//! - [`arith`] / [`neg`] / [`bit_not`] — the *shared arithmetic core*:
//!   typed integer semantics over the LP64 lattice in [`crate::ctype`],
//!   with the integer promotions and usual arithmetic conversions applied
//!   exactly once, unsigned wraparound evaluated as defined behavior, and
//!   every undefined case (signed overflow, division by zero, the
//!   per-width shift rules) reported as a `(UbKind, detail)` pair. The
//!   evaluator uses it at run time and [`const_eval`] uses it at
//!   translation time, so the two phases can never disagree about what
//!   `1 << 31` or `1u << 31` means.
//! - [`non_constant`] / [`is_constant_expr`] — the one §6.6 predicate:
//!   constants, `sizeof` of a constant-sized operand, integer casts, and
//!   arithmetic, `&&`/`||` and `?:` over those, in every operand.
//!   Anything else — identifiers, assignments, calls, the comma operator
//!   (§6.6:3) — makes the expression non-constant. The resolver uses it
//!   for the static-vs-VLA classification of array sizes.
//! - [`const_eval`] — the constant-expression engine:
//!   [`ConstStop::NotConst`] exactly when the predicate says so,
//!   otherwise the folded value, with `&&`/`||`/`?:` short-circuiting
//!   and the types of `sizeof` operands and `?:` read from the unit's
//!   type table ([`TranslationUnit::ty`]). An undefined operation
//!   *inside* a constant expression violates §6.6:4 ("each constant
//!   expression shall evaluate to a constant in the range of
//!   representable values") and comes back as [`ConstStop::Ub`]
//!   carrying the same [`UbKind`] the evaluator would have raised.
//!
//! This is what lets the translation-phase analyzer diagnose
//! `int a[1 << 40];` or a division by zero in a `case` label in code
//! that is never executed — at the right width: `long a = 1L << 40;` is
//! defined, `int a[1 << 40]` is not.

use crate::ast::{BinOp, ExprId, ExprKind, TranslationUnit, Ty, UnaryOp, ValTy};
use crate::ctype::{CInt, IntTy, SIZE_T};
use cundef_ub::{SourceLoc, UbKind};

/// Why an expression has no translation-time value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConstStop {
    /// The expression is not an integer constant expression (it contains
    /// an identifier, assignment, call, comma operator, …).
    NotConst(SourceLoc),
    /// The expression is constant but evaluating it is undefined
    /// (§6.6:4): the same defect the evaluator would raise at run time.
    Ub {
        /// The category of undefined behavior.
        kind: UbKind,
        /// Rendered description of the offending operation.
        detail: String,
        /// Position of the offending operator.
        loc: SourceLoc,
    },
}

/// `-e` after the integer promotions. Negating the most negative value
/// of a signed type overflows (§6.5:5); negating an unsigned value wraps
/// by definition (§6.2.5:9) and is defined.
pub fn neg(a: CInt) -> Result<CInt, (UbKind, String)> {
    if a.ty == IntTy::Int {
        // Fast lane, mirroring the general path at type `int`.
        let v = a.math_i32();
        if v == i32::MIN as i64 {
            return Err((
                UbKind::SignedOverflow,
                format!("-({v}) is not representable in int"),
            ));
        }
        return Ok(CInt::int(-v));
    }
    let a = a.promoted();
    let r = -a.math();
    if a.ty.is_signed() && !a.ty.contains(r) {
        return Err((
            UbKind::SignedOverflow,
            format!("-({a}) is not representable in {}", a.ty.name()),
        ));
    }
    Ok(CInt::new(r, a.ty))
}

/// `~e` after the integer promotions — always representable.
pub fn bit_not(a: CInt) -> Result<CInt, (UbKind, String)> {
    let a = a.promoted();
    Ok(CInt::new(!a.math(), a.ty))
}

/// `a <op> b` in typed integer arithmetic, with every undefined case
/// reported: §6.5:5 (signed overflow at the converted type), §6.5.5:5/:6
/// (division), §6.5.7:3/:4 (shifts, checked against the width of the
/// *promoted left operand*). Unsigned results wrap — defined behavior,
/// never a verdict.
///
/// # Examples
///
/// ```
/// use cundef_semantics::consteval::arith;
/// use cundef_semantics::ast::BinOp;
/// use cundef_semantics::ctype::{CInt, IntTy};
/// use cundef_ub::UbKind;
///
/// let i = |v| CInt::new(v, IntTy::Int);
/// assert_eq!(arith(BinOp::Add, i(2), i(2)).unwrap().math(), 4);
/// assert_eq!(arith(BinOp::Div, i(1), i(0)).unwrap_err().0, UbKind::DivisionByZero);
/// // `1 << 31` overflows int, but `1u << 31` is defined…
/// assert_eq!(arith(BinOp::Shl, i(1), i(31)).unwrap_err().0, UbKind::ShiftOverflow);
/// let u1 = CInt::new(1, IntTy::UInt);
/// assert_eq!(arith(BinOp::Shl, u1, i(31)).unwrap().math(), 2147483648);
/// // …and a long shift is checked at width 64.
/// let l1 = CInt::new(1, IntTy::Long);
/// assert_eq!(arith(BinOp::Shl, l1, i(40)).unwrap().math(), 1i128 << 40);
/// assert_eq!(arith(BinOp::Shl, l1, i(64)).unwrap_err().0, UbKind::ShiftTooFar);
/// ```
#[inline]
pub fn arith(op: BinOp, a: CInt, b: CInt) -> Result<CInt, (UbKind, String)> {
    // Fast lane for the overwhelmingly common `int <op> int` case: plain
    // i64 arithmetic with an i32 range check, no promotion or conversion
    // machinery. Semantically identical to the general path below (the
    // differential suite holds both to that).
    if a.ty == IntTy::Int && b.ty == IntTy::Int {
        return arith_int(op, a.math_i32(), b.math_i32());
    }
    arith_general(op, a, b)
}

/// The general, any-width path of [`arith`]: promotions, usual
/// arithmetic conversions, and per-width checks over `i128` math.
fn arith_general(op: BinOp, a: CInt, b: CInt) -> Result<CInt, (UbKind, String)> {
    use BinOp::*;
    match op {
        Shl | Shr => {
            // §6.5.7:3 — the integer promotions are performed on each
            // operand separately; the result has the type of the
            // promoted *left* operand, whose width bounds the count.
            let a = a.promoted();
            let s = b.promoted().math();
            let width = a.ty.width() as i128;
            if s < 0 {
                return Err((
                    UbKind::ShiftByNegative,
                    format!("shift amount {s} is negative"),
                ));
            }
            if s >= width {
                return Err((
                    UbKind::ShiftTooFar,
                    format!("shift amount {s} >= width {width}"),
                ));
            }
            let v = a.math();
            if op == Shl {
                if a.ty.is_signed() && v < 0 {
                    return Err((
                        UbKind::ShiftOfNegative,
                        format!("left shift of negative value {v}"),
                    ));
                }
                let r = v << s; // fits: |v| < 2^64 and s < 64, so r < 2^128
                if a.ty.is_signed() && !a.ty.contains(r) {
                    return Err((
                        UbKind::ShiftOverflow,
                        format!("{v} << {s} is not representable in {}", a.ty.name()),
                    ));
                }
                // Unsigned left shift wraps modulo 2^width (§6.5.7:4).
                Ok(CInt::new(r, a.ty))
            } else {
                // Right shift of a negative value is implementation-
                // defined, not undefined (§6.5.7:5); model arithmetic
                // shift like every mainstream implementation. Unsigned
                // right shift is logical by construction of `math`.
                Ok(CInt::new(v >> s, a.ty))
            }
        }
        Lt | Le | Gt | Ge | Eq | Ne => {
            // The usual arithmetic conversions apply (§6.5.8:3, §6.5.9:4)
            // — this is where `-1 < 1u` becomes 0: the -1 converts to
            // UINT_MAX first. The result type is `int`.
            let ct = IntTy::usual_arith(a.ty, b.ty);
            let x = a.convert(ct).0.math();
            let y = b.convert(ct).0.math();
            let t = match op {
                Lt => x < y,
                Le => x <= y,
                Gt => x > y,
                Ge => x >= y,
                Eq => x == y,
                _ => x != y,
            };
            Ok(CInt::int(t as i64))
        }
        Add | Sub | Mul | Div | Rem | BitAnd | BitXor | BitOr => {
            let ct = IntTy::usual_arith(a.ty, b.ty);
            let x = a.convert(ct).0.math();
            let y = b.convert(ct).0.math();
            let r = match op {
                Add => x + y,
                Sub => x - y,
                Mul => x * y,
                BitAnd => x & y,
                BitXor => x ^ y,
                BitOr => x | y,
                Div | Rem => {
                    if y == 0 {
                        let kind = if op == Div {
                            UbKind::DivisionByZero
                        } else {
                            UbKind::ModuloByZero
                        };
                        return Err((kind, format!("{x} {} 0", symbol(op))));
                    }
                    if ct.is_signed() && x == ct.min() && y == -1 {
                        return Err((
                            UbKind::DivisionOverflow,
                            format!("{x} {} -1 is not representable", symbol(op)),
                        ));
                    }
                    if op == Div {
                        x / y
                    } else {
                        x % y
                    }
                }
                Shl | Shr | Lt | Le | Gt | Ge | Eq | Ne => unreachable!("handled above"),
            };
            if ct.is_signed() && !ct.contains(r) {
                // §6.5:5 — an exceptional condition at the operands'
                // converted type. Unsigned arithmetic never gets here:
                // it wraps by definition (§6.2.5:9).
                return Err((
                    UbKind::SignedOverflow,
                    format!(
                        "{x} {} {y} is not representable in {}",
                        symbol(op),
                        ct.name()
                    ),
                ));
            }
            Ok(CInt::new(r, ct))
        }
    }
}

const INT_MIN: i64 = i32::MIN as i64;
const INT_MAX: i64 = i32::MAX as i64;

/// The `int <op> int` fast lane: i64 arithmetic with i32 range checks.
/// Every verdict and every detail string matches what the general path
/// would produce at type `int`.
#[inline(always)]
fn arith_int(op: BinOp, x: i64, y: i64) -> Result<CInt, (UbKind, String)> {
    use BinOp::*;
    let r = match op {
        Add => x + y,
        Sub => x - y,
        Mul => x * y,
        BitAnd => x & y,
        BitXor => x ^ y,
        BitOr => x | y,
        Div | Rem => {
            if y == 0 {
                let kind = if op == Div {
                    UbKind::DivisionByZero
                } else {
                    UbKind::ModuloByZero
                };
                return Err((kind, format!("{x} {} 0", symbol(op))));
            }
            if x == INT_MIN && y == -1 {
                return Err((
                    UbKind::DivisionOverflow,
                    format!("{x} {} -1 is not representable", symbol(op)),
                ));
            }
            if op == Div {
                x / y
            } else {
                x % y
            }
        }
        Shl | Shr => {
            if y < 0 {
                return Err((
                    UbKind::ShiftByNegative,
                    format!("shift amount {y} is negative"),
                ));
            }
            if y >= 32 {
                return Err((UbKind::ShiftTooFar, format!("shift amount {y} >= width 32")));
            }
            if op == Shl {
                if x < 0 {
                    return Err((
                        UbKind::ShiftOfNegative,
                        format!("left shift of negative value {x}"),
                    ));
                }
                let r = x << y;
                if r > INT_MAX {
                    return Err((
                        UbKind::ShiftOverflow,
                        format!("{x} << {y} is not representable in int"),
                    ));
                }
                r
            } else {
                x >> y
            }
        }
        Lt => (x < y) as i64,
        Le => (x <= y) as i64,
        Gt => (x > y) as i64,
        Ge => (x >= y) as i64,
        Eq => (x == y) as i64,
        Ne => (x != y) as i64,
    };
    if !(INT_MIN..=INT_MAX).contains(&r) {
        return Err((
            UbKind::SignedOverflow,
            format!("{x} {} {y} is not representable in int", symbol(op)),
        ));
    }
    Ok(CInt::int(r))
}

/// The spelling of a binary operator, for diagnostics.
pub fn symbol(op: BinOp) -> &'static str {
    use BinOp::*;
    match op {
        Add => "+",
        Sub => "-",
        Mul => "*",
        Div => "/",
        Rem => "%",
        Shl => "<<",
        Shr => ">>",
        Lt => "<",
        Le => "<=",
        Gt => ">",
        Ge => ">=",
        Eq => "==",
        Ne => "!=",
        BitAnd => "&",
        BitXor => "^",
        BitOr => "|",
    }
}

/// The §6.6 predicate: `None` when `e` is an integer constant
/// expression (§6.6:6), otherwise the position of the first operand
/// (left to right) that keeps it from being one.
///
/// Only integer constants, `sizeof` with a constant-sized operand,
/// casts to integer types, and the arithmetic, logical and conditional
/// operators over those qualify — in *every* operand, evaluated or not:
/// `0 && x` and `1 ? 2 : !x` are not constant expressions. `sizeof` is
/// constant unless its operand's type has no translation-time size: a
/// variable length array (§6.5.3.4:2), `void`, or an untyped operand.
pub fn non_constant(unit: &TranslationUnit, e: ExprId) -> Option<SourceLoc> {
    let expr = unit.expr(e);
    match &expr.kind {
        ExprKind::IntLit(_) => None,
        ExprKind::SizeofType(ty) => ValTy::of(ty).size_bytes().is_none().then_some(expr.loc),
        ExprKind::SizeofExpr(a) => unit
            .ty(*a)
            .size_bytes()
            .is_none()
            .then(|| unit.expr(*a).loc),
        ExprKind::Unary(_, a) | ExprKind::Cast(Ty::Int(_), a) => non_constant(unit, *a),
        ExprKind::Binary(_, a, b) | ExprKind::LogicalAnd(a, b) | ExprKind::LogicalOr(a, b) => {
            non_constant(unit, *a).or_else(|| non_constant(unit, *b))
        }
        ExprKind::Conditional(c, t, f) => non_constant(unit, *c)
            .or_else(|| non_constant(unit, *t))
            .or_else(|| non_constant(unit, *f)),
        // Identifiers, assignments, calls, pointer casts, the comma
        // operator (banned outright by §6.6:3), …
        _ => Some(expr.loc),
    }
}

/// Whether `e` is an integer constant expression (§6.6:6); see
/// [`non_constant`].
pub fn is_constant_expr(unit: &TranslationUnit, e: ExprId) -> bool {
    non_constant(unit, e).is_none()
}

/// Evaluate `e` as an integer constant expression (§6.6), yielding a
/// typed constant. It is [`ConstStop::NotConst`] exactly when the §6.6
/// predicate ([`non_constant`]) says so; the types of `sizeof` operands
/// and of `?:` come from the unit's type table.
///
/// # Examples
///
/// ```
/// use cundef_semantics::consteval::{const_eval, ConstStop};
/// use cundef_semantics::parser::parse;
/// use cundef_semantics::ast::{ExprKind, Stmt};
///
/// let unit = parse("int main(void) { int a[2 + 3]; return 0; }").unwrap();
/// let size = unit.stmts.iter().find_map(|s| match s {
///     Stmt::Decl(d) => d.array_size,
///     _ => None,
/// }).unwrap();
/// assert_eq!(const_eval(&unit, size).unwrap().math(), 5);
/// ```
pub fn const_eval(unit: &TranslationUnit, e: ExprId) -> Result<CInt, ConstStop> {
    match non_constant(unit, e) {
        Some(loc) => Err(ConstStop::NotConst(loc)),
        None => fold(unit, e),
    }
}

/// Fold an expression the §6.6 predicate accepted: only undefined
/// operations (§6.6:4) can stop it.
fn fold(unit: &TranslationUnit, e: ExprId) -> Result<CInt, ConstStop> {
    let expr = unit.expr(e);
    let loc = expr.loc;
    let ub = |(kind, detail): (UbKind, String)| ConstStop::Ub { kind, detail, loc };
    // The predicate admitted only `sizeof`s whose operand has a size.
    let size_t = |n: Option<u64>| {
        n.map(|n| CInt::new(n as i128, SIZE_T))
            .ok_or(ConstStop::NotConst(loc))
    };
    match &expr.kind {
        ExprKind::IntLit(v) => Ok(*v),
        ExprKind::SizeofType(ty) => size_t(ValTy::of(ty).size_bytes()),
        // `sizeof expr` does not evaluate its operand (§6.5.3.4:2) —
        // only its type matters, so even `sizeof(1 / 0)` is a defined
        // `size_t` constant.
        ExprKind::SizeofExpr(inner) => size_t(unit.ty(*inner).size_bytes()),
        // §6.6:6 admits casts to integer types in integer constant
        // expressions. The conversion itself is §6.3.1.3 — defined or
        // implementation-defined, never UB — so it folds silently; the
        // evaluator records the same wrap as a note at run time.
        ExprKind::Cast(Ty::Int(to), inner) => Ok(fold(unit, *inner)?.convert(*to).0),
        ExprKind::Unary(op, inner) => {
            let v = fold(unit, *inner)?;
            match op {
                UnaryOp::Neg => neg(v).map_err(ub),
                UnaryOp::Not => Ok(CInt::int(v.is_zero() as i64)),
                UnaryOp::BitNot => bit_not(v).map_err(ub),
            }
        }
        ExprKind::Binary(op, l, r) => {
            let a = fold(unit, *l)?;
            let b = fold(unit, *r)?;
            arith(*op, a, b).map_err(ub)
        }
        ExprKind::LogicalAnd(l, r) => {
            // The unevaluated operand of a short circuit is exempt from
            // §6.6:4, mirroring run-time semantics (§6.5.13:4).
            if fold(unit, *l)?.is_zero() {
                return Ok(CInt::int(0));
            }
            Ok(CInt::int(!fold(unit, *r)?.is_zero() as i64))
        }
        ExprKind::LogicalOr(l, r) => {
            if !fold(unit, *l)?.is_zero() {
                return Ok(CInt::int(1));
            }
            Ok(CInt::int(!fold(unit, *r)?.is_zero() as i64))
        }
        ExprKind::Conditional(c, t, f) => {
            let cv = fold(unit, *c)?;
            let chosen = fold(unit, if !cv.is_zero() { *t } else { *f })?;
            // §6.5.15:5 — the result has the *common* type of both
            // branches, even though only one is evaluated: `0 ? 0 :
            // (short)0` is an `int`, and `1 ? -1 : 0u` is UINT_MAX. The
            // conversion itself is §6.3.1.3 — never undefined.
            match unit.ty(e) {
                ValTy::Int(common) => Ok(chosen.convert(common).0),
                _ => Ok(chosen),
            }
        }
        _ => Err(ConstStop::NotConst(loc)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Stmt;
    use crate::parser::parse;

    /// Constant-evaluate the size expression of the first array
    /// declaration in `main`.
    fn eval_size(size_src: &str) -> Result<CInt, ConstStop> {
        let unit = parse(&format!(
            "int main(void) {{ int a[{size_src}]; return 0; }}"
        ))
        .unwrap();
        let size = unit
            .stmts
            .iter()
            .find_map(|s| match s {
                Stmt::Decl(d) => d.array_size,
                _ => None,
            })
            .expect("array decl");
        const_eval(&unit, size)
    }

    fn value(size_src: &str) -> i128 {
        eval_size(size_src).unwrap().math()
    }

    fn ub_kind(size_src: &str) -> UbKind {
        match eval_size(size_src) {
            Err(ConstStop::Ub { kind, .. }) => kind,
            other => panic!("expected UB for {size_src:?}, got {other:?}"),
        }
    }

    #[test]
    fn arithmetic_and_logic_fold() {
        assert_eq!(value("2 + 3 * 4"), 14);
        assert_eq!(value("1 ? 7 : 1 / 0"), 7);
        assert_eq!(value("0 && 1 / 0"), 0);
        assert_eq!(value("1 || 1 / 0"), 1);
        assert_eq!(value("~0 + 2"), 1);
    }

    #[test]
    fn undefined_constant_operations_carry_their_kind() {
        assert_eq!(ub_kind("1 / 0"), UbKind::DivisionByZero);
        assert_eq!(ub_kind("1 << 40"), UbKind::ShiftTooFar);
        assert_eq!(ub_kind("2147483647 + 1"), UbKind::SignedOverflow);
        assert_eq!(ub_kind("(-2147483647 - 1) - 1"), UbKind::SignedOverflow);
        assert_eq!(ub_kind("(-2147483647 - 1) % -1"), UbKind::DivisionOverflow);
    }

    #[test]
    fn widths_change_verdicts() {
        // Defined at width 64, undefined at width 32 (§6.5.7:3).
        assert_eq!(value("(1L << 40) > 0"), 1);
        assert_eq!(ub_kind("1 << 40"), UbKind::ShiftTooFar);
        // `1 << 31` overflows int; `1u << 31` is defined.
        assert_eq!(ub_kind("1 << 31"), UbKind::ShiftOverflow);
        assert_eq!(value("(1u << 31) != 0"), 1);
        // `int` overflow that is fine at `long`.
        assert_eq!(ub_kind("65536 * 65536"), UbKind::SignedOverflow);
        assert_eq!(value("65536L * 65536 == 4294967296"), 1);
        // Unsigned arithmetic wraps — defined (§6.2.5:9).
        assert_eq!(value("(4294967295u + 1u) == 0"), 1);
        assert_eq!(value("(0u - 1u) == 4294967295u"), 1);
        // Mixed signedness goes through the usual arithmetic
        // conversions: -1 becomes UINT_MAX before the compare.
        assert_eq!(value("(-1 < 1u) == 0"), 1);
    }

    #[test]
    fn sizeof_type_is_a_size_t_constant() {
        assert_eq!(value("sizeof(int)"), 4);
        assert_eq!(value("sizeof(long)"), 8);
        assert_eq!(value("sizeof(char)"), 1);
        assert_eq!(value("sizeof(_Bool)"), 1);
        assert_eq!(value("sizeof(int *)"), 8);
        assert_eq!(eval_size("sizeof(unsigned long)").unwrap().ty, SIZE_T);
    }

    #[test]
    fn non_constant_forms_are_not_const() {
        let unit = parse("int main(void) { int n = 3; int a[n]; return 0; }").unwrap();
        let size = unit
            .stmts
            .iter()
            .find_map(|s| match s {
                Stmt::Decl(d) => d.array_size,
                _ => None,
            })
            .unwrap();
        assert!(matches!(
            const_eval(&unit, size),
            Err(ConstStop::NotConst(_))
        ));
        // The comma operator is banned from constant expressions (§6.6:3).
        assert!(matches!(eval_size("(1, 2)"), Err(ConstStop::NotConst(_))));
    }
}
