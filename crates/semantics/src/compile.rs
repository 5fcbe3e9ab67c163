//! Lowering from the slot-resolved AST to the flat bytecode of
//! `crate::bytecode`.
//!
//! The compiler's contract is *diagnostic-exact lowering*: for every op
//! sequence it emits, executing those ops performs the same checks, in
//! the same order, at the same source positions, producing the same
//! [`cundef_ub::UbError`]s and notes as the tree-walker would for the
//! original node — or the construct is not lowered at all and becomes a
//! tree-fallback op. The load-bearing analyses are:
//!
//! - **Footprint elision** (`elidable`): a full expression whose only
//!   update (assignment, `++`/`--`) is at its root cannot trip a §6.5:2
//!   sequencing check — every other footprint entry is a read, and the
//!   checks only fire on read/write or write/write pairs involving a
//!   write below the root. For such expressions the compiler emits no
//!   footprint traffic at all. Anything else — two updates, an update
//!   under a call argument — falls back to `Op::EvalFull`, where the
//!   tree-walker's byte-range footprint does the § 6.5:2 bookkeeping
//!   exactly as before.
//! - **Slot types** (the resolver's slot table): a frame slot is bound
//!   1:1 to one declaration, so its object's element type is static. Scalar
//!   non-`_Bool` slots get single-word fused loads/stores whose guards
//!   (bound, alive, fully-initialized, in-range) fail over to the
//!   generic path *before* any observable action.
//! - **One expression lowering**: every full expression lowers through
//!   the value lowering (`full_value`). Statement and condition contexts
//!   only rewrite its tail — a root store or `++`/`--` of a slot
//!   discards its value inside its own op, a lone fused compare becomes
//!   a compare-and-branch — so the fused store and inc/dec paths exist
//!   once, whatever the context.
//! - **Static control flow**: labels and gotos compile to jump-patched
//!   scope transitions, and a `switch` to an `Op::Switch` jump table
//!   that selects through the resolver's case table — the selection the
//!   tree-walker runs — so every statement runs on the VM.

use crate::ast::{
    BinOp, Decl, ExprId, ExprKind, Function, Stmt, StmtId, TranslationUnit, Ty, UnaryOp, ValTy,
};
use crate::bytecode::{
    CodeUnit, FnCode, Fused2, FusedBin, FusedIncDec, FusedStore, FusedSweep, Op, Pc, SweepSrc,
    SwitchCode,
};
use crate::consteval;
use crate::ctype::{CInt, IntTy, SIZE_T};
use crate::eval::{pointee_of_ty, stmt_loc};
use crate::intern::{kw, Symbol};
use cundef_ub::{SourceLoc, UbError, UbKind};
use std::rc::Rc;

/// A compiled translation unit, produced by [`compile_unit`] and
/// executed by [`crate::eval::Interp::run_main_compiled`].
///
/// Owning one lets callers separate compile time from execution time
/// (the `exec/*` benchmark group); `Interp::run_main` under the
/// bytecode engine compiles on first use instead.
#[derive(Debug, Clone)]
pub struct CompiledUnit {
    pub(crate) code: Rc<CodeUnit>,
}

/// Lower `unit` to bytecode without executing anything.
pub fn compile_unit(unit: &TranslationUnit) -> CompiledUnit {
    CompiledUnit {
        code: Rc::new(compile(unit)),
    }
}

/// Lower every function of `unit`, back to back, into one [`CodeUnit`].
pub(crate) fn compile(unit: &TranslationUnit) -> CodeUnit {
    let mut code = CodeUnit {
        switches: vec![SwitchCode::default(); unit.switches.len()],
        ..CodeUnit::default()
    };
    for (idx, func) in unit.functions.iter().enumerate() {
        let fc = FnCompiler::lower(unit, func, idx as u32, &mut code);
        code.funcs.push(fc);
    }
    code
}

/// Shape of the value just compiled, for superinstruction fusion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// One `LoadSlotFast` op: a scalar slot of known type.
    SlotFast(u32, IntTy, SourceLoc),
    /// One `Const` op: pool index of a known constant.
    Const(u32),
    /// One `BinSS`/`BinSC` op: fused-table index plus whether the right
    /// operand is a constant — a candidate inner pair for second-level
    /// fusion.
    Fused(u32, bool),
    /// Anything else.
    Other,
}

/// The compiler could not prove an exact lowering; the caller falls
/// back to a tree op for the whole full expression.
struct Bail;

type CResult = Result<Shape, Bail>;

/// One enclosing loop's or `switch`'s pending `break`/`continue` jumps,
/// patched when its end and continue target (`while`: the condition;
/// `for`: the step) are known.
struct LoopCtx {
    /// `path` length a `break` unwinds to (just outside a loop; inside a
    /// `switch` body's scope, which its exit then closes).
    break_path_len: usize,
    /// `path` length a `continue` keeps (inside the `for`'s own scope);
    /// `None` for a `switch`, which `continue` passes through.
    cont_path_len: Option<usize>,
    /// `Jump` ops to patch to the continue target.
    conts: Vec<usize>,
    /// `Jump` ops to patch to the exit.
    breaks: Vec<usize>,
}

/// A `goto` site awaiting its patch.
struct GotoSite {
    /// Index of the first of its three reserved ops.
    at: usize,
    /// Target label name.
    sym: Symbol,
    /// Scope path at the site.
    path: Vec<u32>,
}

/// Per-function lowering state.
struct FnCompiler<'a> {
    unit: &'a TranslationUnit,
    func: &'a Function,
    code: &'a mut CodeUnit,
    /// Scope ids entered since the frame base, outermost first.
    path: Vec<u32>,
    next_scope: u32,
    loops: Vec<LoopCtx>,
    /// First definition of each label wins, in preorder — the same
    /// order the tree-walker's seek resolves duplicates.
    labels: Vec<(Symbol, Pc, Vec<u32>)>,
    gotos: Vec<GotoSite>,
    /// `Jump` ops to patch to the function's end (stray break/continue).
    fn_end_jumps: Vec<usize>,
    /// `Some(own index)` when `return f(args)` to this very function may
    /// compile to [`Op::TailSelf`]: calls to the name resolve here, every
    /// parameter is a non-`_Bool` scalar whose address the body never
    /// takes, and the return type is scalar. Under those conditions no
    /// pointer to a parameter or into a previous incarnation's locals
    /// can exist, so reusing the physical frame is unobservable.
    tail_self: Option<u32>,
}

impl<'a> FnCompiler<'a> {
    fn lower(
        unit: &'a TranslationUnit,
        func: &'a Function,
        idx: u32,
        code: &'a mut CodeUnit,
    ) -> FnCode {
        let tail_self = {
            let resolves_here = unit.function_index(func.name) == Some(idx);
            let scalar_params = func.slots[..func.params.len()]
                .iter()
                .all(|p| matches!(p.ty, ValTy::Int(t) if t != IntTy::Bool));
            let scalar_ret = matches!(func.ret_ty(), ValTy::Int(_));
            (resolves_here && scalar_params && scalar_ret && !body_addresses_param(unit, func))
                .then_some(idx)
        };
        let mut c = FnCompiler {
            unit,
            func,
            code,
            path: Vec::new(),
            next_scope: 0,
            loops: Vec::new(),
            labels: Vec::new(),
            gotos: Vec::new(),
            fn_end_jumps: Vec::new(),
            tail_self,
        };
        let start = c.pc();
        for &s in &func.body {
            c.stmt(s);
        }
        let end = c.pc();
        for &j in &c.fn_end_jumps {
            c.code.ops[j] = Op::Jump(end);
        }
        // Patch gotos: unwind to the common scope prefix, re-enter the
        // target's scopes, jump. Every target label was compiled.
        let gotos = std::mem::take(&mut c.gotos);
        for g in gotos {
            let (pc, lpath) = c
                .labels
                .iter()
                .find(|(s, _, _)| *s == g.sym)
                .map(|(_, pc, p)| (*pc, p.clone()))
                .expect("resolver guarantees the label exists");
            let common = g
                .path
                .iter()
                .zip(lpath.iter())
                .take_while(|(a, b)| a == b)
                .count();
            c.code.ops[g.at] = Op::ScopePopN((g.path.len() - common) as u32);
            c.code.ops[g.at + 1] = Op::ScopePushN((lpath.len() - common) as u32);
            c.code.ops[g.at + 2] = Op::Jump(pc);
        }
        FnCode { start, end }
    }

    fn pc(&self) -> Pc {
        self.code.ops.len() as Pc
    }

    /// Append `op` at `loc`; returns its index for patching.
    fn emit(&mut self, op: Op, loc: SourceLoc) -> usize {
        self.code.ops.push(op);
        self.code.locs.push(loc);
        self.code.ops.len() - 1
    }

    /// Roll the op stream back to `mark` (expression bail-out).
    fn rollback(&mut self, mark: usize) {
        self.code.ops.truncate(mark);
        self.code.locs.truncate(mark);
    }

    /// Emit an engine-limit stop with `msg` at `loc`. It terminates, so
    /// it stands for a pushed value.
    fn fail(&mut self, msg: String, loc: SourceLoc) -> CResult {
        let m = self.code.fails.add(msg);
        self.emit_value(Op::FailUnsupported(m), loc)
    }

    /// Emit a prebuilt undefined-behavior stop of `kind` at `loc`.
    fn fail_ub(&mut self, kind: UbKind, detail: String, loc: SourceLoc) -> CResult {
        let err = UbError::new(kind)
            .at(loc)
            .in_function(self.unit.interner.resolve(self.func.name))
            .with_detail(detail);
        let i = self.code.ubs.add(err);
        self.emit_value(Op::FailUb(i), loc)
    }

    /// What loads and stores can assume about a slot's object: its
    /// declared type from the slot table (a slot is bound 1:1 to one
    /// declaration, so its object's element type is static).
    fn slot_ty(&self, slot: u32) -> ValTy {
        self.func
            .slots
            .get(slot as usize)
            .map_or(ValTy::Unknown, |s| s.ty)
    }

    /// The identifier `slot` was declared with.
    fn slot_name(&self, slot: u32) -> &'a str {
        let unit = self.unit;
        unit.interner.resolve(self.func.slots[slot as usize].name)
    }

    fn expr_loc(&self, e: ExprId) -> SourceLoc {
        self.unit.expr(e).loc
    }
}

/// A side table of a [`CodeUnit`], indexed by op operands.
trait Table<T> {
    /// Append `x`; returns its index.
    fn add(&mut self, x: T) -> u32;
}

impl<T> Table<T> for Vec<T> {
    fn add(&mut self, x: T) -> u32 {
        self.push(x);
        u32::try_from(self.len() - 1).expect("side table fits u32")
    }
}

/// Whether `pred` holds for any statement of `func`'s body, nested
/// ones included.
fn any_stmt(unit: &TranslationUnit, func: &Function, mut pred: impl FnMut(&Stmt) -> bool) -> bool {
    let mut stmts: Vec<StmtId> = func.body.clone();
    while let Some(s) = stmts.pop() {
        let stmt = unit.stmt(s);
        if pred(stmt) {
            return true;
        }
        match stmt {
            Stmt::If(_, t, f) => {
                stmts.push(*t);
                stmts.extend(*f);
            }
            Stmt::For(init, _, _, body) => {
                stmts.extend(*init);
                stmts.push(*body);
            }
            Stmt::Block(body, _) => stmts.extend(body.iter().copied()),
            Stmt::While(_, s)
            | Stmt::Switch(_, s, ..)
            | Stmt::Case(_, s, _)
            | Stmt::Default(s, _)
            | Stmt::Label(_, s, _) => stmts.push(*s),
            Stmt::Decl(_)
            | Stmt::Expr(_)
            | Stmt::Return(..)
            | Stmt::Break(_)
            | Stmt::Continue(_)
            | Stmt::Goto(..)
            | Stmt::Empty(_) => {}
        }
    }
    false
}

/// Whether any `&` in `func`'s body could take a parameter's address.
/// `&param` (or `&` of an unresolved identifier, conservatively) means a
/// pointer to the parameter object may exist, making in-place frame
/// reuse for self-tail calls observable — the tombstone a fresh
/// allocation would leave, the object identity a comparison would see.
/// `&` of anything else (a local, an element, `&*p`) never yields a
/// pointer *to* a scalar parameter's own object.
fn body_addresses_param(unit: &TranslationUnit, func: &Function) -> bool {
    let nparams = func.params.len();
    any_stmt(unit, func, |stmt| {
        let mut exprs: Vec<ExprId> = Vec::new();
        match stmt {
            Stmt::Decl(d) => {
                exprs.extend(d.array_size);
                exprs.extend(d.init);
                if let Some(inits) = &d.array_init {
                    exprs.extend(inits.iter().copied());
                }
            }
            Stmt::Expr(e)
            | Stmt::If(e, ..)
            | Stmt::While(e, _)
            | Stmt::Switch(e, ..)
            | Stmt::Case(e, ..) => exprs.push(*e),
            Stmt::For(_, cond, step, _) => {
                exprs.extend(*cond);
                exprs.extend(*step);
            }
            Stmt::Return(e, _) => exprs.extend(*e),
            _ => {}
        }
        while let Some(e) = exprs.pop() {
            match &unit.expr(e).kind {
                ExprKind::AddrOf(x) => {
                    match &unit.expr(*x).kind {
                        // The address of a parameter, or of something the
                        // resolver couldn't bind (which might be one).
                        ExprKind::Slot(slot, _) if slot.index() < nparams => return true,
                        ExprKind::Ident(_) => return true,
                        _ => exprs.push(*x),
                    }
                }
                ExprKind::IntLit(_)
                | ExprKind::Ident(_)
                | ExprKind::Slot(..)
                | ExprKind::SizeofType(_) => {}
                ExprKind::Unary(_, a)
                | ExprKind::PreIncDec(a, _)
                | ExprKind::PostIncDec(a, _)
                | ExprKind::Deref(a)
                | ExprKind::SizeofExpr(a)
                | ExprKind::Cast(_, a) => exprs.push(*a),
                ExprKind::Binary(_, a, b)
                | ExprKind::LogicalAnd(a, b)
                | ExprKind::LogicalOr(a, b)
                | ExprKind::Assign(a, _, b)
                | ExprKind::Index(a, b)
                | ExprKind::Comma(a, b) => {
                    exprs.push(*a);
                    exprs.push(*b);
                }
                ExprKind::Conditional(a, b, c) => {
                    exprs.push(*a);
                    exprs.push(*b);
                    exprs.push(*c);
                }
                ExprKind::Call(_, args) => exprs.extend(args.iter().copied()),
            }
        }
        false
    })
}

/// Is `e` free of updates (assignment, `++`/`--`) anywhere in its
/// *evaluated* subtree? `sizeof` operands are unevaluated (§6.5.3.4:2)
/// and skipped; call arguments are evaluated and descended into.
fn no_updates(unit: &TranslationUnit, e: ExprId) -> bool {
    match &unit.expr(e).kind {
        ExprKind::Assign(..) | ExprKind::PreIncDec(..) | ExprKind::PostIncDec(..) => false,
        ExprKind::IntLit(_)
        | ExprKind::Ident(_)
        | ExprKind::Slot(..)
        | ExprKind::SizeofType(_)
        | ExprKind::SizeofExpr(_) => true,
        ExprKind::Unary(_, a) | ExprKind::Deref(a) | ExprKind::AddrOf(a) | ExprKind::Cast(_, a) => {
            no_updates(unit, *a)
        }
        ExprKind::Binary(_, a, b)
        | ExprKind::LogicalAnd(a, b)
        | ExprKind::LogicalOr(a, b)
        | ExprKind::Index(a, b)
        | ExprKind::Comma(a, b) => no_updates(unit, *a) && no_updates(unit, *b),
        ExprKind::Conditional(c, t, f) => {
            no_updates(unit, *c) && no_updates(unit, *t) && no_updates(unit, *f)
        }
        ExprKind::Call(_, args) => args.iter().all(|&a| no_updates(unit, a)),
    }
}

/// Can the §6.5:2 footprint be elided for the full expression `e`?
///
/// True iff the only update in `e` is at its root. Then every footprint
/// entry below the root is a read; `check_unsequenced` (needs a write on
/// one side) and the root's `check_update_conflict` (scans for writes)
/// are both vacuous, and eliding the footprint is unobservable.
pub(crate) fn elidable(unit: &TranslationUnit, e: ExprId) -> bool {
    match &unit.expr(e).kind {
        ExprKind::Assign(p, _, r) => no_updates(unit, *p) && no_updates(unit, *r),
        ExprKind::PreIncDec(p, _) | ExprKind::PostIncDec(p, _) => no_updates(unit, *p),
        _ => no_updates(unit, e),
    }
}

// ----- fused byte sweeps -----

/// An AST-matched byte-sweep candidate, pending op-range verification.
struct SweepCand {
    k_slot: u32,
    d_slot: u32,
    src: SweepSrc,
    bound: i64,
}

impl<'a> FnCompiler<'a> {
    /// Match the fusable loop shape:
    /// `for (int k = …; k < C; k++) d[k] = s[k];` (copy) or
    /// `… d[k] = c;` (fill), with `d`/`s` pointer slots, `k` a plain
    /// non-`const` `int`, and an `int`-typed literal bound (so the
    /// promoted compare is exactly `value(k) < C`, and `k++` can never
    /// overflow mid-loop). Matching is purely syntactic; every semantic
    /// question — live char pointers, bounds, initialization, aliasing
    /// with the loop's own state — is a runtime precheck of the op.
    fn sweep_candidate(
        &self,
        init: &Option<StmtId>,
        cond: &Option<ExprId>,
        step: &Option<ExprId>,
        body: StmtId,
    ) -> Option<SweepCand> {
        // init: `int k = <expr>;`
        let Stmt::Decl(d) = self.unit.stmt((*init)?) else {
            return None;
        };
        if d.ty != Ty::Int(IntTy::Int)
            || d.array_size.is_some()
            || d.array_init.is_some()
            || d.init.is_none()
            || d.quals.is_const
            || d.redeclares.is_some()
        {
            return None;
        }
        let k = d.slot.0;
        if self.slot_ty(k) != ValTy::Int(IntTy::Int) {
            return None;
        }
        // cond: `k < C`
        let ExprKind::Binary(BinOp::Lt, cl, cr) = &self.unit.expr((*cond)?).kind else {
            return None;
        };
        let ExprKind::Slot(cs, _) = &self.unit.expr(*cl).kind else {
            return None;
        };
        let ExprKind::IntLit(c1) = &self.unit.expr(*cr).kind else {
            return None;
        };
        if cs.0 != k || c1.ty != IntTy::Int {
            return None;
        }
        let bound = i64::try_from(c1.math()).ok()?;
        // step: `k++` (`++k` is the same statement).
        let (ExprKind::PostIncDec(sp, 1) | ExprKind::PreIncDec(sp, 1)) =
            &self.unit.expr((*step)?).kind
        else {
            return None;
        };
        let ExprKind::Slot(ss, _) = &self.unit.expr(*sp).kind else {
            return None;
        };
        if ss.0 != k {
            return None;
        }
        // body: a single `d[k] = …;` statement (simple assignment).
        let Stmt::Expr(e) = self.unit.stmt(body) else {
            return None;
        };
        let ExprKind::Assign(place, None, rhs) = &self.unit.expr(*e).kind else {
            return None;
        };
        let (d_slot, di) = self.ptr_slot_index(*place)?;
        if di != k || d_slot == k {
            return None;
        }
        let src = match &self.unit.expr(*rhs).kind {
            ExprKind::IntLit(c) => SweepSrc::Fill(*c),
            _ => {
                let (s_slot, si) = self.ptr_slot_index(*rhs)?;
                if si != k || s_slot == d_slot || s_slot == k {
                    return None;
                }
                SweepSrc::Slot(s_slot)
            }
        };
        Some(SweepCand {
            k_slot: k,
            d_slot,
            src,
            bound,
        })
    }

    /// `base[index]` where `base` is a pointer slot and `index` a slot:
    /// `(base_slot, index_slot)`.
    fn ptr_slot_index(&self, e: ExprId) -> Option<(u32, u32)> {
        let ExprKind::Index(b, i) = &self.unit.expr(e).kind else {
            return None;
        };
        let ExprKind::Slot(bs, _) = &self.unit.expr(*b).kind else {
            return None;
        };
        let ExprKind::Slot(is, _) = &self.unit.expr(*i).kind else {
            return None;
        };
        matches!(self.slot_ty(bs.0), ValTy::Ptr { .. }).then_some((bs.0, is.0))
    }

    /// Patch the placeholder at `at` into an [`Op::ByteSweep`] — but
    /// only if every op of the lowered loop `[cond_pc, normal_exit)`
    /// dispatches exactly once per iteration, so the bulk step charge
    /// `iterations × per_iter + tail` is precisely what the generic
    /// loop would have settled. Straight-line value/memory ops qualify;
    /// the single exit branch (at `exit_patch`, taken on the final
    /// test) and the back-edge jump anchor the range. Anything else — a
    /// tree fallback, a nested branch — leaves the `Nop` in place and
    /// the loop fully generic.
    fn fuse_sweep(
        &mut self,
        at: usize,
        cand: SweepCand,
        cond_pc: Pc,
        exit_patch: usize,
        normal_exit: Pc,
    ) {
        let jump_pc = normal_exit as usize - 1;
        for pc in cond_pc as usize..=jump_pc {
            let uniform = match self.code.ops[pc] {
                Op::Jump(t) => pc == jump_pc && t == cond_pc,
                Op::BrCmpSS(..) | Op::BrCmpSC(..) | Op::BranchFalse(_) | Op::BranchFalseSeq(_) => {
                    pc == exit_patch
                }
                Op::Const(_)
                | Op::LoadSlot(_)
                | Op::LoadSlotFast(..)
                | Op::Pop
                | Op::PopSeq
                | Op::Unary(_)
                | Op::Binary(_)
                | Op::BinaryC(..)
                | Op::BinSS(_)
                | Op::BinSC(_)
                | Op::BinVS(_)
                | Op::Bin2SF(_)
                | Op::Bin2VF(_)
                | Op::Bin2FC(_)
                | Op::ToBool01
                | Op::AsPtr
                | Op::ReadThru
                | Op::IndexPlace
                | Op::IndexRead
                | Op::SlotPlace(_)
                | Op::BindCheck(_)
                | Op::StoreSimple
                | Op::StoreCompound(_)
                | Op::AssignSlot(_)
                | Op::AssignSlotPop(_)
                | Op::IncDec(..)
                | Op::IncDecSlotStmt(_)
                | Op::CastInt(_) => true,
                _ => false,
            };
            if !uniform {
                return;
            }
        }
        let sweep = FusedSweep {
            k_slot: cand.k_slot,
            d_slot: cand.d_slot,
            src: cand.src,
            bound: cand.bound,
            per_iter_ops: (jump_pc - cond_pc as usize + 1) as u64,
            tail_ops: (exit_patch - cond_pc as usize + 1) as u64,
            exit: normal_exit,
        };
        let idx = self.code.sweeps.add(sweep);
        self.code.ops[at] = Op::ByteSweep(idx);
    }
}

// ----- statement lowering -----

impl<'a> FnCompiler<'a> {
    fn stmt(&mut self, s: StmtId) {
        match self.unit.stmt(s) {
            Stmt::Empty(_) => {}
            Stmt::Decl(d) => self.decl(s, d),
            Stmt::Expr(e) => self.full_stmt(*e),
            Stmt::If(cond, then, els) => {
                let patch = self.cond(*cond);
                self.stmt(*then);
                match els {
                    Some(els) => {
                        let skip = self.emit(Op::Jump(0), self.expr_loc(*cond));
                        let else_pc = self.pc();
                        self.patch_branch(patch, else_pc);
                        self.stmt(*els);
                        let end = self.pc();
                        self.code.ops[skip] = Op::Jump(end);
                    }
                    None => {
                        let end = self.pc();
                        self.patch_branch(patch, end);
                    }
                }
            }
            Stmt::While(cond, body) => {
                let cond_pc = self.pc();
                let exit_patch = self.cond(*cond);
                self.enter_loop(self.path.len(), Some(self.path.len()));
                self.stmt(*body);
                self.emit(Op::Jump(cond_pc), self.expr_loc(*cond));
                let end = self.pc();
                self.patch_branch(exit_patch, end);
                self.exit_loop(end, cond_pc);
            }
            Stmt::For(init, cond, step, body) => {
                let loc = stmt_loc(self.unit, self.unit.stmt(s));
                // The init declaration's scope is the whole loop
                // (§6.2.4:6); `break` unwinds it, `continue` keeps it.
                let break_path_len = self.path.len();
                self.emit(Op::EnterScope, loc);
                self.push_scope();
                if let Some(init) = init {
                    self.stmt(*init);
                }
                // Fused byte-sweep candidate: a placeholder op sits
                // between the init and the condition; if the lowered
                // loop verifies (see `fuse_sweep`) it becomes an
                // `Op::ByteSweep` whose runtime prechecks fall through
                // to these generic ops, otherwise it stays a `Nop`.
                let sweep = self
                    .sweep_candidate(init, cond, step, *body)
                    .map(|cand| (self.emit(Op::Nop, loc), cand));
                let cond_pc = self.pc();
                let exit_patch = cond.map(|c| self.cond(c));
                self.enter_loop(break_path_len, Some(self.path.len()));
                self.stmt(*body);
                let step_pc = self.pc();
                if let Some(step) = step {
                    self.full_stmt(*step);
                }
                self.emit(Op::Jump(cond_pc), loc);
                let normal_exit = self.pc();
                if let Some(p) = exit_patch {
                    self.patch_branch(p, normal_exit);
                }
                if let (Some((at, cand)), Some(exit_patch)) = (sweep, exit_patch) {
                    self.fuse_sweep(at, cand, cond_pc, exit_patch, normal_exit);
                }
                self.emit(Op::ExitScope, loc);
                self.pop_scope();
                let end = self.pc();
                self.exit_loop(end, step_pc);
            }
            Stmt::Return(e, loc) => match e {
                Some(e) => {
                    if !self.try_tail_self(*e, *loc) {
                        self.full_value(*e);
                        self.emit(Op::Ret, *loc);
                    }
                }
                None => {
                    self.emit(Op::RetNone, *loc);
                }
            },
            Stmt::Break(loc) | Stmt::Continue(loc) => {
                let is_break = matches!(self.unit.stmt(s), Stmt::Break(_));
                // `break` leaves the innermost loop or `switch`, `continue`
                // continues the innermost loop. A stray one bubbles to the
                // function's end like a fall-off (the tree-walker's blocks
                // pass the flow through to `call`, which treats it as
                // Normal).
                let target = self
                    .loops
                    .iter()
                    .rposition(|ctx| is_break || ctx.cont_path_len.is_some());
                let keep = match target.map(|t| &self.loops[t]) {
                    Some(ctx) if is_break => ctx.break_path_len,
                    Some(ctx) => ctx.cont_path_len.expect("a loop"),
                    None => 0,
                };
                let pops = (self.path.len() - keep) as u32;
                if pops > 0 {
                    self.emit(Op::ScopePopN(pops), *loc);
                }
                let j = self.emit(Op::Jump(0), *loc);
                match target.map(|t| &mut self.loops[t]) {
                    Some(ctx) if is_break => ctx.breaks.push(j),
                    Some(ctx) => ctx.conts.push(j),
                    None => self.fn_end_jumps.push(j),
                }
            }
            Stmt::Block(items, loc) => {
                self.emit(Op::EnterScope, *loc);
                self.push_scope();
                for &i in items {
                    self.stmt(i);
                }
                self.emit(Op::ExitScope, *loc);
                self.pop_scope();
            }
            Stmt::Switch(cond, body, _, table) => {
                // Dispatch jumps to the selected body item; a block body's
                // scope opens before it, so every entry and the exit share
                // one scope path.
                self.full_value(*cond);
                let block = match self.unit.stmt(*body) {
                    Stmt::Block(items, loc) => Some((&items[..], *loc)),
                    _ => None,
                };
                if let Some((_, loc)) = block {
                    self.emit(Op::EnterScope, loc);
                    self.push_scope();
                }
                self.emit(Op::Switch(*table), self.expr_loc(*cond));
                self.enter_loop(self.path.len(), None);
                let mut entries = Vec::new();
                for &item in block.map_or(std::slice::from_ref(body), |(items, _)| items) {
                    entries.push(self.pc());
                    self.stmt(item);
                }
                let skip = self.pc();
                if let Some((_, loc)) = block {
                    self.emit(Op::ExitScope, loc);
                    self.pop_scope();
                }
                // `continue` passed through: no continue target to patch.
                self.exit_loop(skip, 0);
                self.code.switches[*table as usize] = SwitchCode { entries, skip };
            }
            // Labels are transparent when reached sequentially (`case`
            // and `default` select only through their switch's table).
            Stmt::Case(_, inner, _) | Stmt::Default(inner, _) => self.stmt(*inner),
            Stmt::Label(sym, inner, _) => {
                if !self.labels.iter().any(|(s, _, _)| s == sym) {
                    let pc = self.pc();
                    self.labels.push((*sym, pc, self.path.clone()));
                }
                self.stmt(*inner);
            }
            Stmt::Goto(sym, loc) => {
                if !self.func.labels.iter().any(|(s, _)| s == sym) {
                    // The dynamic-semantics error for a label-less goto;
                    // the translation phase has its own verdict for it.
                    let msg = format!(
                        "`goto {}` targets no label in this function",
                        self.unit.interner.resolve(*sym)
                    );
                    let _ = self.fail(msg, *loc);
                    return;
                }
                let at = self.emit(Op::Nop, *loc);
                self.emit(Op::Nop, *loc);
                self.emit(Op::Nop, *loc);
                self.gotos.push(GotoSite {
                    at,
                    sym: *sym,
                    path: self.path.clone(),
                });
            }
        }
    }

    fn push_scope(&mut self) {
        self.path.push(self.next_scope);
        self.next_scope += 1;
    }

    fn pop_scope(&mut self) {
        self.path.pop();
    }

    fn enter_loop(&mut self, break_path_len: usize, cont_path_len: Option<usize>) {
        self.loops.push(LoopCtx {
            break_path_len,
            cont_path_len,
            conts: Vec::new(),
            breaks: Vec::new(),
        });
    }

    /// Patch the innermost loop's (or `switch`'s) jumps: `break` to
    /// `end`, `continue` to `cont`.
    fn exit_loop(&mut self, end: Pc, cont: Pc) {
        let ctx = self.loops.pop().expect("loop entered");
        for b in ctx.breaks {
            self.code.ops[b] = Op::Jump(end);
        }
        for c in ctx.conts {
            self.code.ops[c] = Op::Jump(cont);
        }
    }

    /// Compile a statement/loop condition: the full expression's value
    /// lowering, then a branch-if-false op whose target the caller
    /// patches. Returns the branch op's index.
    fn cond(&mut self, e: ExprId) -> usize {
        let mark = self.code.ops.len();
        self.full_value(e);
        // Whole-condition fusion: a lone fused compare collapses to one
        // compute-and-branch op.
        let branch = match self.code.ops[mark..] {
            [Op::BinSS(i)] => Op::BrCmpSS(i, 0),
            [Op::BinSC(i)] => Op::BrCmpSC(i, 0),
            _ => return self.emit(Op::BranchFalseSeq(0), self.expr_loc(e)),
        };
        self.code.ops[mark] = branch;
        mark
    }

    fn patch_branch(&mut self, at: usize, target: Pc) {
        match &mut self.code.ops[at] {
            Op::BranchFalseSeq(t)
            | Op::BranchFalse(t)
            | Op::BrCmpSS(_, t)
            | Op::BrCmpSC(_, t)
            | Op::AndFalse(t)
            | Op::OrTrue(t) => *t = target,
            other => unreachable!("patching a non-branch op {other:?}"),
        }
    }

    /// Compile a declaration statement.
    fn decl(&mut self, s: StmtId, d: &Decl) {
        let full = d.redeclares.is_some()
            || matches!(d.ty, Ty::Void)
            || d.array_size.is_some()
            || d.array_init.is_some();
        match d.init {
            _ if full => {}
            None => {
                self.emit(Op::DeclSimple(s), d.loc);
                return;
            }
            Some(init) if elidable(self.unit, init) => {
                let mark = self.code.ops.len();
                self.emit(Op::DeclAlloc(s), d.loc);
                if self.expr(init).is_ok() {
                    self.emit(Op::DeclInit(s), self.expr_loc(init));
                    return;
                }
                self.rollback(mark);
            }
            Some(_) => {}
        }
        self.emit(Op::DeclFull(s), d.loc);
    }

    /// Compile a full-expression statement (§6.8:4): the value lowering,
    /// whose tail then discards the value and ends the footprint. A
    /// tree fallback, a slot store and a slot `++`/`--` discard inside
    /// their own op; anything else gets `PopSeq`. Each rewrite is keyed
    /// on the root expression, whose op is always the last one emitted,
    /// so no jump inside the expression can target the rewritten tail.
    fn full_stmt(&mut self, e: ExprId) {
        let mark = self.code.ops.len();
        self.full_value(e);
        let last = self.code.ops.len() - 1;
        let loc = self.expr_loc(e);
        match (self.code.ops[last], &self.unit.expr(e).kind) {
            (Op::EvalFull(x), _) if last == mark => self.code.ops[last] = Op::EvalFullPop(x),
            (Op::AssignSlot(i), ExprKind::Assign(..)) => self.code.ops[last] = Op::AssignSlotPop(i),
            (
                Op::IncDec(delta, _),
                ExprKind::PreIncDec(place, _) | ExprKind::PostIncDec(place, _),
            ) => {
                if let ExprKind::Slot(slot, _) = self.unit.expr(*place).kind {
                    // `SlotPlace(slot), IncDec` fuses into one op.
                    let fast = match self.slot_ty(slot.0) {
                        ValTy::Int(t) if t != IntTy::Bool => Some(t),
                        _ => None,
                    };
                    debug_assert!(matches!(self.code.ops[last - 1], Op::SlotPlace(_)));
                    let place_loc = self.code.locs[last - 1];
                    self.pop_ops(2);
                    let i = self.code.incdecs.add(FusedIncDec {
                        slot: slot.0,
                        fast,
                        delta,
                        place_loc,
                    });
                    self.emit(Op::IncDecSlotStmt(i), loc);
                } else {
                    // The value is discarded, so both spellings are the
                    // prefix form.
                    self.code.ops[last] = Op::IncDec(delta, false);
                    self.emit(Op::PopSeq, loc);
                }
            }
            _ => {
                self.emit(Op::PopSeq, loc);
            }
        }
    }

    /// Leave the decayed base pointer of an indexing expression on the
    /// stack. An array-declared slot's designator *is* that pointer, so
    /// one `SlotPlace` (same unbound-slot diagnostic the tree gives for
    /// evaluating the name) replaces the load + `AsPtr` round trip;
    /// any other base evaluates and decays.
    fn index_base(&mut self, b: ExprId, as_ptr_loc: SourceLoc) -> Result<(), Bail> {
        if let ExprKind::Slot(slot, _) = &self.unit.expr(b).kind {
            if matches!(self.slot_ty(slot.0), ValTy::Array { .. }) {
                self.emit(Op::SlotPlace(slot.0), self.expr_loc(b));
                return Ok(());
            }
        }
        self.expr(b)?;
        self.emit(Op::AsPtr, as_ptr_loc);
        Ok(())
    }

    /// Compile a full expression whose value the next op consumes
    /// (return values, and the ops `cond` and `full_stmt` rewrite).
    fn full_value(&mut self, e: ExprId) {
        let mark = self.code.ops.len();
        if !(elidable(self.unit, e) && self.expr(e).is_ok()) {
            self.rollback(mark);
            self.emit(Op::EvalFull(e), self.expr_loc(e));
        }
    }

    /// Compile `return e` as a frame-reusing self-tail call when `e` is
    /// an eligible direct call to the enclosing function. The arguments
    /// compile straight onto the operand stack — no per-argument
    /// `ArgPush` — which is exact only because each argument's op span
    /// provably never produces a missing value (the one thing the
    /// elided `use_value` consumption would diagnose). A trailing `Ret`
    /// still follows the `TailSelf`: it is the fall-through continuation
    /// when the op degrades to a general call at runtime.
    fn try_tail_self(&mut self, e: ExprId, ret_loc: SourceLoc) -> bool {
        let Some(me) = self.tail_self else {
            return false;
        };
        let node = self.unit.expr(e);
        let ExprKind::Call(name, args) = &node.kind else {
            return false;
        };
        if self.unit.function_index(*name) != Some(me)
            || args.len() != self.func.params.len()
            || !elidable(self.unit, e)
        {
            return false;
        }
        let mark = self.code.ops.len();
        for &a in args {
            let amark = self.code.ops.len();
            let pure = self.expr(a).is_ok()
                && self.code.ops[amark..]
                    .iter()
                    .all(|op| !op_can_push_missing(op));
            if !pure {
                self.rollback(mark);
                return false;
            }
        }
        self.emit(Op::TailSelf(args.len() as u32), node.loc);
        self.emit(Op::Ret, ret_loc);
        true
    }
}

/// Whether executing `op` can leave a missing value (a void or absent
/// result, §6.3.2.2) on the operand stack. Everything else the
/// expression compiler emits pushes computed values, so eliding the
/// per-argument consumption check around such spans is unobservable.
fn op_can_push_missing(op: &Op) -> bool {
    matches!(
        op,
        Op::Call(..)
            | Op::TailSelf(_)
            | Op::Malloc
            | Op::Free
            | Op::CastVoid
            | Op::EvalFull(_)
            | Op::EvalFullPop(_)
            | Op::DeclFull(_)
    )
}

// ----- expression lowering -----

impl<'a> FnCompiler<'a> {
    /// Remove the last `n` emitted ops (fusion replaces them).
    fn pop_ops(&mut self, n: usize) {
        self.rollback(self.code.ops.len() - n);
    }

    /// Emit `op`, whose result is the value of an expression that did
    /// not fuse.
    fn emit_value(&mut self, op: Op, loc: SourceLoc) -> CResult {
        self.emit(op, loc);
        Ok(Shape::Other)
    }

    /// Emit the constant `c`.
    fn constant(&mut self, c: CInt, loc: SourceLoc) -> CResult {
        let i = self.code.pool.add(c);
        self.emit(Op::Const(i), loc);
        Ok(Shape::Const(i))
    }

    /// Compile `e` in value position. On success the emitted ops leave
    /// exactly one value on the operand stack, and a returned
    /// [`Shape::SlotFast`]/[`Shape::Const`] additionally guarantees the
    /// whole expression compiled to exactly one op — the invariant that
    /// lets a parent pop that op off the tail and fuse it.
    ///
    /// `Err(Bail)` means no diagnostic-exact lowering exists; the caller
    /// rolls back to its mark and emits a tree-fallback op. Ops that
    /// *terminate* (`FailUnsupported`, `FailUb`) count as pushing a
    /// value: nothing after them executes.
    fn expr(&mut self, e: ExprId) -> CResult {
        let node = self.unit.expr(e);
        let loc = node.loc;
        match &node.kind {
            ExprKind::IntLit(c) => self.constant(*c, loc),
            ExprKind::Ident(sym) => self.undeclared(*sym, loc),
            ExprKind::Slot(slot, _) => match self.slot_ty(slot.0) {
                // `_Bool` reads can trap (§6.2.6.1:5); they stay on the
                // generic path, which reports the representation.
                ValTy::Int(t) if t != IntTy::Bool => {
                    self.emit(Op::LoadSlotFast(slot.0, t), loc);
                    Ok(Shape::SlotFast(slot.0, t, loc))
                }
                _ => self.emit_value(Op::LoadSlot(slot.0), loc),
            },
            ExprKind::Unary(op, inner) => {
                let sh = self.expr(*inner)?;
                if let Shape::Const(i) = sh {
                    let c = self.code.pool[i as usize];
                    // Fold only when the tree-walker would neither stop
                    // (the consteval error becomes a runtime report at
                    // this loc) nor note anything.
                    let folded = match op {
                        UnaryOp::Neg => consteval::neg(c).ok(),
                        UnaryOp::BitNot => consteval::bit_not(c).ok(),
                        UnaryOp::Not => Some(CInt::int(if c.is_zero() { 1 } else { 0 })),
                    };
                    if let Some(f) = folded {
                        self.pop_ops(1);
                        return self.constant(f, loc);
                    }
                }
                self.emit_value(Op::Unary(*op), loc)
            }
            ExprKind::Binary(op, l, r) => {
                let sl = self.expr(*l)?;
                let sr = self.expr(*r)?;
                match (sl, sr) {
                    (
                        Shape::SlotFast(a_slot, a_ty, a_loc),
                        Shape::SlotFast(b_slot, b_ty, b_loc),
                    ) => {
                        self.pop_ops(2);
                        let i = self.code.fused.add(FusedBin {
                            a_slot,
                            a_ty,
                            a_loc,
                            b_slot,
                            b_ty,
                            b_loc,
                            op: *op,
                        });
                        self.emit(Op::BinSS(i), loc);
                        Ok(Shape::Fused(i, false))
                    }
                    (Shape::SlotFast(a_slot, a_ty, a_loc), Shape::Const(ci)) => {
                        self.pop_ops(2);
                        let b_ty = self.code.pool[ci as usize].ty;
                        let i = self.code.fused.add(FusedBin {
                            a_slot,
                            a_ty,
                            a_loc,
                            b_slot: ci,
                            b_ty,
                            b_loc: loc,
                            op: *op,
                        });
                        self.emit(Op::BinSC(i), loc);
                        Ok(Shape::Fused(i, true))
                    }
                    (Shape::Const(ci), Shape::Const(cj)) => {
                        let (a, b) = (self.code.pool[ci as usize], self.code.pool[cj as usize]);
                        match consteval::arith(*op, a, b) {
                            Ok(c) => {
                                self.pop_ops(2);
                                self.constant(c, loc)
                            }
                            // Constant UB (`1 / 0`) still reports at run
                            // time, at this node's loc.
                            Err(_) => self.emit_value(Op::Binary(*op), loc),
                        }
                    }
                    (Shape::SlotFast(a_slot, a_ty, a_loc), Shape::Fused(fi, fc)) => {
                        // Second-level fusion: `a ⊕ (b ⊕ c)` — the whole
                        // five-node tree in one dispatch, loads and
                        // operator applications in tree order.
                        let inner_loc = *self.code.locs.last().expect("inner op");
                        self.pop_ops(2);
                        let j = self.code.fused2.add(Fused2 {
                            op: *op,
                            a_slot,
                            a_ty,
                            a_loc,
                            inner: fi,
                            inner_loc,
                            inner_const: fc,
                        });
                        self.emit_value(Op::Bin2SF(j), loc)
                    }
                    (Shape::Fused(fi, fc), Shape::Const(ci)) => {
                        // Second-level fusion, constant on the right:
                        // `(b ⊕ c) ⊕ k` in one dispatch. The last two
                        // ops are the inner pair and the constant.
                        let inner_loc = self.code.locs[self.code.locs.len() - 2];
                        self.pop_ops(2);
                        let j = self.code.fused2.add(Fused2 {
                            op: *op,
                            a_slot: ci,
                            a_ty: IntTy::Int,
                            a_loc: loc,
                            inner: fi,
                            inner_loc,
                            inner_const: fc,
                        });
                        self.emit_value(Op::Bin2FC(j), loc)
                    }
                    (_, Shape::Const(ci)) => {
                        self.pop_ops(1);
                        self.emit_value(Op::BinaryC(*op, ci), loc)
                    }
                    (_, Shape::Fused(fi, fc)) => {
                        // Left operand stays on the stack; the fused
                        // right pair folds into this op.
                        let inner_loc = *self.code.locs.last().expect("inner op");
                        self.pop_ops(1);
                        let j = self.code.fused2.add(Fused2 {
                            op: *op,
                            a_slot: 0,
                            a_ty: IntTy::Int,
                            a_loc: loc,
                            inner: fi,
                            inner_loc,
                            inner_const: fc,
                        });
                        self.emit_value(Op::Bin2VF(j), loc)
                    }
                    (_, Shape::SlotFast(b_slot, b_ty, b_loc)) => {
                        // Left operand stays on the stack; the right
                        // slot load folds in (its descriptor reuses the
                        // `FusedBin` left-operand fields).
                        self.pop_ops(1);
                        let i = self.code.fused.add(FusedBin {
                            a_slot: b_slot,
                            a_ty: b_ty,
                            a_loc: b_loc,
                            b_slot: 0,
                            b_ty,
                            b_loc,
                            op: *op,
                        });
                        self.emit_value(Op::BinVS(i), loc)
                    }
                    _ => self.emit_value(Op::Binary(*op), loc),
                }
            }
            ExprKind::LogicalAnd(l, r) | ExprKind::LogicalOr(l, r) => {
                self.expr(*l)?;
                let short = match node.kind {
                    ExprKind::LogicalAnd(..) => Op::AndFalse(0),
                    _ => Op::OrTrue(0),
                };
                let at = self.emit(short, loc);
                self.expr(*r)?;
                self.emit(Op::ToBool01, loc);
                let end = self.pc();
                self.patch_branch(at, end);
                Ok(Shape::Other)
            }
            ExprKind::Conditional(c, t, f) => {
                self.expr(*c)?;
                let at = self.emit(Op::BranchFalse(0), loc);
                self.expr(*t)?;
                let jmp = self.emit(Op::Jump(0), loc);
                let else_pc = self.pc();
                self.patch_branch(at, else_pc);
                self.expr(*f)?;
                let end = self.pc();
                match &mut self.code.ops[jmp] {
                    Op::Jump(t) => *t = end,
                    other => unreachable!("patching a non-jump op {other:?}"),
                }
                // §6.5.15:5 common-type conversion of whichever branch ran.
                if let ValTy::Int(common) = self.unit.ty(e) {
                    self.emit(Op::CondCommon(common), loc);
                }
                Ok(Shape::Other)
            }
            ExprKind::Comma(l, r) => {
                let sl = self.expr(*l)?;
                if matches!(sl, Shape::Const(_)) {
                    // A constant left operand has no effect and no
                    // diagnostics; dropping its op keeps the single-op
                    // invariant for `r`'s shape.
                    self.pop_ops(1);
                    self.expr(*r)
                } else {
                    self.emit(Op::Pop, loc);
                    self.expr(*r)?;
                    Ok(Shape::Other)
                }
            }
            ExprKind::Assign(place, op, rhs) => self.assign_value(*place, *op, *rhs, loc),
            ExprKind::PreIncDec(place, delta) => self.incdec_value(*place, *delta, false, loc),
            ExprKind::PostIncDec(place, delta) => self.incdec_value(*place, *delta, true, loc),
            ExprKind::Deref(inner) => {
                self.expr(*inner)?;
                self.emit(Op::AsPtr, loc);
                self.emit_value(Op::ReadThru, loc)
            }
            ExprKind::AddrOf(inner) => self.addr_of(*inner, loc),
            ExprKind::Index(b, i) => {
                self.index_base(*b, loc)?;
                self.expr(*i)?;
                self.emit_value(Op::IndexRead, loc)
            }
            ExprKind::Call(name, args) => self.call_value(*name, args, loc),
            ExprKind::SizeofType(ty) => match ValTy::of(ty).size_bytes() {
                Some(n) => self.constant(CInt::new(n as i128, SIZE_T), loc),
                None => self.fail("`sizeof` applied to the incomplete type `void`".into(), loc),
            },
            // The type table sizes every operand but a VLA (whose length
            // is the live object's) and untyped ones (which stop).
            ExprKind::SizeofExpr(inner) => match self.unit.ty(*inner).size_bytes() {
                Some(n) => self.constant(CInt::new(n as i128, SIZE_T), loc),
                None => self.emit_value(Op::SizeofExpr(*inner), loc),
            },
            ExprKind::Cast(ty, inner) => match ty {
                Ty::Void => {
                    self.expr(*inner)?;
                    self.emit_value(Op::CastVoid, loc)
                }
                Ty::Int(t) => {
                    let sh = self.expr(*inner)?;
                    // Identity-conversion elision: a scalar slot's value
                    // always has its declared type, so when that is `t`
                    // `convert_int` is the identity and never notes —
                    // emit nothing.
                    if matches!(sh, Shape::SlotFast(_, st, _) if st == *t) {
                        return Ok(sh);
                    }
                    if let Shape::Const(i) = sh {
                        let (c, impl_defined) = self.code.pool[i as usize].convert(*t);
                        if !impl_defined {
                            self.pop_ops(1);
                            return self.constant(c, loc);
                        }
                        // An implementation-defined conversion emits a
                        // note at run time; keep the runtime op.
                    }
                    self.emit_value(Op::CastInt(*t), loc)
                }
                Ty::Ptr(p) => {
                    self.expr(*inner)?;
                    self.emit_value(Op::CastPtr(pointee_of_ty(p)), loc)
                }
            },
        }
    }

    /// `&inner` — mirrors `eval_place` + the array-decay rejection.
    fn addr_of(&mut self, inner: ExprId, loc: SourceLoc) -> CResult {
        let in_loc = self.expr_loc(inner);
        match &self.unit.expr(inner).kind {
            ExprKind::Slot(slot, _) => match self.slot_ty(slot.0) {
                ValTy::Int(_) | ValTy::Ptr { .. } => self.emit_value(Op::SlotPlace(slot.0), in_loc),
                ValTy::Array { .. } => {
                    // The unbound check fires first (as in `eval_place`),
                    // then the §6.3.2.1:3 no-decay rejection at this loc.
                    self.emit(Op::BindCheck(slot.0), in_loc);
                    let msg = format!(
                        "`&{}` has array-pointer type, which is outside the subset",
                        self.slot_name(slot.0)
                    );
                    self.fail(msg, loc)
                }
                ValTy::Void | ValTy::Unknown => Err(Bail),
            },
            ExprKind::Deref(_) | ExprKind::Index(..) => {
                self.mem_place(inner)?;
                Ok(Shape::Other)
            }
            ExprKind::Ident(sym) => self.undeclared(*sym, in_loc),
            _ => self.fail("expression is not an lvalue".into(), in_loc),
        }
    }

    /// Leave the pointer designated by the place `*x` or `b[i]` on the
    /// stack: the shared prefix of `&`, stores and `++`/`--` through
    /// memory.
    fn mem_place(&mut self, place: ExprId) -> Result<(), Bail> {
        let loc = self.expr_loc(place);
        match &self.unit.expr(place).kind {
            ExprKind::Deref(x) => {
                self.expr(*x)?;
                self.emit(Op::AsPtr, loc);
            }
            ExprKind::Index(b, i) => {
                self.index_base(*b, loc)?;
                self.expr(*i)?;
                self.emit(Op::IndexPlace, loc);
            }
            other => unreachable!("not a memory place: {other:?}"),
        }
        Ok(())
    }

    fn undeclared(&mut self, sym: Symbol, loc: SourceLoc) -> CResult {
        let msg = format!(
            "use of undeclared identifier `{}`",
            self.unit.interner.resolve(sym)
        );
        self.fail(msg, loc)
    }

    /// An update of the array slot `slot` (§6.3.2.1:1): rejected after
    /// the place evaluates, before anything else would.
    fn not_modifiable(&mut self, slot: u32, place_loc: SourceLoc, loc: SourceLoc) -> CResult {
        self.emit(Op::BindCheck(slot), place_loc);
        let msg = format!(
            "array `{}` is not a modifiable lvalue",
            self.slot_name(slot)
        );
        self.fail(msg, loc)
    }
}

// ----- updates and calls -----

impl<'a> FnCompiler<'a> {
    /// `place = rhs` / `place op= rhs`: the store op pushes the stored
    /// value (`full_stmt` turns a slot store into its discarding form).
    fn assign_value(
        &mut self,
        place: ExprId,
        op: Option<BinOp>,
        rhs: ExprId,
        loc: SourceLoc,
    ) -> CResult {
        let place_loc = self.expr_loc(place);
        match &self.unit.expr(place).kind {
            ExprKind::Slot(slot, _) => {
                let fast = match self.slot_ty(slot.0) {
                    // Compound assignment reads first; a `_Bool` read can
                    // trap (§6.2.6.1:5), so it stays on the generic path.
                    ValTy::Int(t) if op.is_none() || t != IntTy::Bool => Some(t),
                    ValTy::Int(_) | ValTy::Ptr { .. } => None,
                    ValTy::Array { .. } => return self.not_modifiable(slot.0, place_loc, loc),
                    ValTy::Void | ValTy::Unknown => return Err(Bail),
                };
                self.emit(Op::BindCheck(slot.0), place_loc);
                self.expr(rhs)?;
                let i = self.code.stores.add(FusedStore {
                    slot: slot.0,
                    fast,
                    op,
                });
                self.emit_value(Op::AssignSlot(i), loc)
            }
            ExprKind::Deref(_) | ExprKind::Index(..) => {
                self.mem_place(place)?;
                self.expr(rhs)?;
                self.emit_value(op.map_or(Op::StoreSimple, Op::StoreCompound), loc)
            }
            ExprKind::Ident(_) => Err(Bail),
            _ => self.fail("expression is not an lvalue".into(), place_loc),
        }
    }

    /// `++place`/`place++`: pushes the new or the old value.
    fn incdec_value(
        &mut self,
        place: ExprId,
        delta: i64,
        is_post: bool,
        loc: SourceLoc,
    ) -> CResult {
        let place_loc = self.expr_loc(place);
        match &self.unit.expr(place).kind {
            ExprKind::Slot(slot, _) => match self.slot_ty(slot.0) {
                ValTy::Int(_) | ValTy::Ptr { .. } => {
                    self.emit(Op::SlotPlace(slot.0), place_loc);
                    self.emit_value(Op::IncDec(delta, is_post), loc)
                }
                ValTy::Array { .. } => self.not_modifiable(slot.0, place_loc, loc),
                ValTy::Void | ValTy::Unknown => Err(Bail),
            },
            ExprKind::Deref(_) | ExprKind::Index(..) => {
                self.mem_place(place)?;
                self.emit_value(Op::IncDec(delta, is_post), loc)
            }
            ExprKind::Ident(_) => Err(Bail),
            _ => self.fail("expression is not an lvalue".into(), place_loc),
        }
    }

    /// A call: per-argument push ops, then either a direct `Call` (arity
    /// pre-checked at compile time into a `FailUb` when it can never
    /// match) or the non-function report — each after the arguments
    /// ran, exactly like the tree path. `malloc`/`free` keep their
    /// allocator semantics on the tree path.
    fn call_value(&mut self, name: Symbol, args: &[ExprId], loc: SourceLoc) -> CResult {
        for &a in args {
            self.expr(a)?;
            let al = self.expr_loc(a);
            self.emit(Op::ArgPush, al);
        }
        let unit = self.unit;
        let spelled = unit.interner.resolve(name);
        let n = args.len();
        match unit.function_index(name) {
            Some(f_idx) => {
                let want = unit.functions[f_idx as usize].params.len();
                if want != n {
                    let detail = format!("`{spelled}` takes {want} argument(s), called with {n}");
                    return self.fail_ub(UbKind::CallWrongArity, detail, loc);
                }
                self.emit(Op::Call(f_idx, n as u32), loc);
            }
            None if (name == kw::MALLOC || name == kw::FREE) && n != 1 => {
                let detail = format!("`{spelled}` takes 1 argument, called with {n}");
                return self.fail_ub(UbKind::CallWrongArity, detail, loc);
            }
            None if name == kw::MALLOC => {
                self.emit(Op::Malloc, loc);
            }
            None if name == kw::FREE => {
                self.emit(Op::Free, loc);
            }
            None => {
                let detail =
                    format!("`{spelled}` does not designate a function in this translation unit");
                return self.fail_ub(UbKind::CallNonFunction, detail, loc);
            }
        }
        Ok(Shape::Other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    /// `main`'s compiled code for the body `body`.
    fn main_code(body: &str) -> (CodeUnit, std::ops::Range<usize>) {
        let unit = parse(&format!(
            "int f(int a) {{ return a; }} int main(void) {{ {body} }}"
        ))
        .expect("test program parses");
        let code = compile(&unit);
        let f = &code.funcs[1];
        let range = f.start as usize..f.end as usize;
        (code, range)
    }

    /// The mnemonics `stmt` lowers to after the declarations `decls`.
    fn stmt_ops(decls: &str, stmt: &str) -> Vec<&'static str> {
        let (_, before) = main_code(decls);
        let (code, all) = main_code(&format!("{decls} {stmt}"));
        code.ops[all.start + before.len()..all.end]
            .iter()
            .map(Op::mnemonic)
            .collect()
    }

    const DECLS: &str = "int x = 0; int y = 1; int i = 0; int n = 3; \
                         int a[4]; int *p = &x; _Bool b = 0;";

    #[test]
    fn slot_stores_discard_inside_the_store_op() {
        for stmt in ["x = y;", "x += 2;", "p = p + 1;", "p += 1;", "b += 1;"] {
            let ops = stmt_ops(DECLS, stmt);
            assert_eq!(ops.first(), Some(&"BindCheck"), "{stmt}: {ops:?}");
            assert_eq!(ops.last(), Some(&"AssignSlotPop"), "{stmt}: {ops:?}");
            assert!(!ops.contains(&"PopSeq"), "{stmt}: {ops:?}");
        }
        assert_eq!(
            stmt_ops(DECLS, "x = y;"),
            ["BindCheck", "LoadSlotFast", "AssignSlotPop"]
        );
    }

    #[test]
    fn slot_incdec_statements_fuse_to_one_op() {
        for stmt in ["x++;", "++x;", "p--;", "--p;", "b++;"] {
            assert_eq!(stmt_ops(DECLS, stmt), ["IncDecSlotStmt"], "{stmt}");
        }
    }

    #[test]
    fn stores_through_memory_pop_the_stored_value() {
        assert_eq!(
            stmt_ops(DECLS, "*p = y;"),
            ["LoadSlot", "AsPtr", "LoadSlotFast", "StoreSimple", "PopSeq"]
        );
        assert_eq!(
            stmt_ops(DECLS, "a[i] += 2;"),
            [
                "SlotPlace",
                "LoadSlotFast",
                "IndexPlace",
                "Const",
                "StoreCompound",
                "PopSeq"
            ]
        );
        assert_eq!(
            stmt_ops(DECLS, "a[i]++;"),
            [
                "SlotPlace",
                "LoadSlotFast",
                "IndexPlace",
                "IncDec",
                "PopSeq"
            ]
        );
    }

    #[test]
    fn a_discarded_postfix_update_through_memory_uses_the_prefix_op() {
        let (_, before) = main_code(DECLS);
        let (code, all) = main_code(&format!("{DECLS} (*p)++;"));
        let tail = &code.ops[all.start + before.len()..all.end];
        assert!(
            matches!(
                tail,
                [Op::LoadSlot(_), Op::AsPtr, Op::IncDec(1, false), Op::PopSeq]
            ),
            "{tail:?}"
        );
    }

    #[test]
    fn an_update_below_the_root_falls_back_to_the_tree() {
        assert_eq!(stmt_ops(DECLS, "x = x++ + 1;"), ["EvalFullPop"]);
    }

    #[test]
    fn other_statements_pop_the_value() {
        assert_eq!(
            stmt_ops(DECLS, "f(x);"),
            ["LoadSlotFast", "ArgPush", "Call", "PopSeq"]
        );
        assert_eq!(stmt_ops(DECLS, "x + y;"), ["BinSS", "PopSeq"]);
    }

    #[test]
    fn a_fused_compare_condition_branches_in_one_op() {
        let ops = stmt_ops(DECLS, "while (i < n) i++;");
        assert_eq!(ops, ["BrCmpSS", "IncDecSlotStmt", "Jump"]);
        let ops = stmt_ops(DECLS, "while (i < 10) i++;");
        assert_eq!(ops, ["BrCmpSC", "IncDecSlotStmt", "Jump"]);
        let ops = stmt_ops(DECLS, "if (x) y = 1;");
        assert_eq!(
            ops,
            [
                "LoadSlotFast",
                "BranchFalseSeq",
                "BindCheck",
                "Const",
                "AssignSlotPop"
            ]
        );
    }

    #[test]
    fn an_array_update_stops_naming_the_array() {
        for stmt in ["a = 0;", "a++;", "--a;"] {
            let (code, _) = main_code(&format!("{DECLS} {stmt}"));
            assert_eq!(
                code.fails.last().map(String::as_str),
                Some("array `a` is not a modifiable lvalue"),
                "{stmt}"
            );
        }
    }

    #[test]
    fn switch_lowers_to_a_jump_table_even_with_goto() {
        let body =
            "int i = 0; goto l; l: switch (i) { case 0: i = 1; break; default: ; } return i;";
        let (code, range) = main_code(body);
        let ops = &code.ops[range];
        let names: Vec<_> = ops.iter().map(Op::mnemonic).collect();
        let at = names
            .iter()
            .position(|&m| m == "Switch")
            .expect("a Switch op");
        assert_eq!(names[at - 1], "EnterScope", "{names:?}");
        assert!(!names.iter().any(|m| m.starts_with("Eval")), "{names:?}");
        // One entry per body item; no match and `break` both leave
        // through the body's closing scope exit.
        let sw = &code.switches[0];
        assert_eq!(sw.entries.len(), 3);
        assert_eq!(code.ops[sw.skip as usize].mnemonic(), "ExitScope");
        assert!(ops
            .iter()
            .any(|op| matches!(op, Op::Jump(t) if *t == sw.skip)));
    }
}
