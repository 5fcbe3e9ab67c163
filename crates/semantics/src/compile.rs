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
//! - **Static goto**: labels and gotos compile to jump-patched scope
//!   transitions. A function whose gotos could interact with a
//!   tree-executed region (it contains both `goto` and `switch`) is
//!   marked `FnCode::tree_only` and executes entirely through the
//!   tree-walker under either engine.

use crate::ast::{
    BinOp, Decl, ExprId, ExprKind, Function, Stmt, StmtId, TranslationUnit, Ty, UnaryOp, ValTy,
};
use crate::bytecode::{
    CodeUnit, ExecInfo, FnCode, Fused2, FusedBin, FusedIncDec, FusedStore, FusedSweep, Op, Pc,
    SweepSrc,
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
    let mut code = CodeUnit::default();
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

/// One pending `break`/`continue`/loop context.
struct LoopCtx {
    /// `path` length just outside the loop statement (a `break` unwinds
    /// to here).
    break_path_len: usize,
    /// `path` length a `continue` keeps (inside the `for`'s own scope).
    cont_path_len: usize,
    /// Continue target when already known (`while`: the condition).
    cont_pc: Option<Pc>,
    /// `Jump` ops to patch to the continue target (`for`: the step).
    pending_cont: Vec<usize>,
    /// `Jump` ops to patch to just past the loop.
    breaks: Vec<usize>,
    /// `execs` entries whose `cont` pc awaits the continue target.
    pending_cont_execs: Vec<usize>,
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
    slot_syms: Vec<Symbol>,
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
        let mut slot_syms = vec![func.name; func.slots.len()];
        for (i, p) in func.params.iter().enumerate() {
            if i < slot_syms.len() {
                slot_syms[i] = p.name;
            }
        }
        let mut has_goto = false;
        let mut has_switch = false;
        for &s in &func.body {
            scan_stmt(unit, s, &mut slot_syms, &mut has_goto, &mut has_switch);
        }
        if has_goto && has_switch {
            // A goto could target a label under a switch (or originate
            // under one); the whole function stays on the tree-walker.
            return FnCode {
                start: 0,
                end: 0,
                slot_syms,
                tree_only: true,
            };
        }
        let tail_self = {
            let resolves_here = unit
                .func_by_symbol
                .get(func.name.index())
                .copied()
                .flatten()
                == Some(idx);
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
            slot_syms: slot_syms.clone(),
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
        // target's scopes, jump. Every target label was compiled (no
        // tree-executed regions coexist with gotos here).
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
        FnCode {
            start,
            end,
            slot_syms,
            tree_only: false,
        }
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

    fn pool(&mut self, c: CInt) -> u32 {
        self.code.pool.push(c);
        (self.code.pool.len() - 1) as u32
    }

    fn fail_msg(&mut self, msg: String) -> u32 {
        self.code.fails.push(msg);
        (self.code.fails.len() - 1) as u32
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

    fn expr_loc(&self, e: ExprId) -> SourceLoc {
        self.unit.expr(e).loc
    }
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
    let mut stmts: Vec<StmtId> = func.body.clone();
    let mut exprs: Vec<ExprId> = Vec::new();
    while let Some(s) = stmts.pop() {
        match unit.stmt(s) {
            Stmt::Decl(d) => {
                exprs.extend(d.array_size);
                exprs.extend(d.init);
                if let Some(inits) = &d.array_init {
                    exprs.extend(inits.iter().copied());
                }
            }
            Stmt::Expr(e) => exprs.push(*e),
            Stmt::If(c, t, f) => {
                exprs.push(*c);
                stmts.push(*t);
                stmts.extend(*f);
            }
            Stmt::While(c, b) => {
                exprs.push(*c);
                stmts.push(*b);
            }
            Stmt::For(init, cond, step, body) => {
                stmts.extend(*init);
                exprs.extend(*cond);
                exprs.extend(*step);
                stmts.push(*body);
            }
            Stmt::Return(e, _) => exprs.extend(*e),
            Stmt::Block(body, _) => stmts.extend(body.iter().copied()),
            Stmt::Switch(e, s, _) | Stmt::Case(e, s, _) => {
                exprs.push(*e);
                stmts.push(*s);
            }
            Stmt::Default(s, _) | Stmt::Label(_, s, _) => stmts.push(*s),
            Stmt::Break(_) | Stmt::Continue(_) | Stmt::Goto(..) | Stmt::Empty(_) => {}
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
    }
    false
}

/// Prepass: slot spellings from every declaration, plus the
/// goto/switch census that decides `tree_only`.
fn scan_stmt(
    unit: &TranslationUnit,
    s: StmtId,
    syms: &mut [Symbol],
    has_goto: &mut bool,
    has_switch: &mut bool,
) {
    match unit.stmt(s) {
        Stmt::Decl(d) => {
            if let Some(sym) = syms.get_mut(d.slot.index()) {
                *sym = d.name;
            }
        }
        Stmt::Goto(_, _) => *has_goto = true,
        Stmt::Switch(_, body, _) => {
            *has_switch = true;
            scan_stmt(unit, *body, syms, has_goto, has_switch);
        }
        Stmt::If(_, t, e) => {
            scan_stmt(unit, *t, syms, has_goto, has_switch);
            if let Some(e) = e {
                scan_stmt(unit, *e, syms, has_goto, has_switch);
            }
        }
        Stmt::While(_, body) => scan_stmt(unit, *body, syms, has_goto, has_switch),
        Stmt::For(init, _, _, body) => {
            if let Some(i) = init {
                scan_stmt(unit, *i, syms, has_goto, has_switch);
            }
            scan_stmt(unit, *body, syms, has_goto, has_switch);
        }
        Stmt::Block(items, _) => {
            for &i in items {
                scan_stmt(unit, i, syms, has_goto, has_switch);
            }
        }
        Stmt::Case(_, inner, _) | Stmt::Default(inner, _) | Stmt::Label(_, inner, _) => {
            scan_stmt(unit, *inner, syms, has_goto, has_switch)
        }
        Stmt::Expr(_)
        | Stmt::Return(_, _)
        | Stmt::Break(_)
        | Stmt::Continue(_)
        | Stmt::Empty(_) => {}
    }
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
        let idx = u32::try_from(self.code.sweeps.len()).expect("sweep table fits u32");
        self.code.sweeps.push(FusedSweep {
            k_slot: cand.k_slot,
            d_slot: cand.d_slot,
            src: cand.src,
            bound: cand.bound,
            per_iter_ops: (jump_pc - cond_pc as usize + 1) as u64,
            tail_ops: (exit_patch - cond_pc as usize + 1) as u64,
            exit: normal_exit,
        });
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
                self.loops.push(LoopCtx {
                    break_path_len: self.path.len(),
                    cont_path_len: self.path.len(),
                    cont_pc: Some(cond_pc),
                    pending_cont: Vec::new(),
                    breaks: Vec::new(),
                    pending_cont_execs: Vec::new(),
                });
                self.stmt(*body);
                self.emit(Op::Jump(cond_pc), self.expr_loc(*cond));
                let end = self.pc();
                self.patch_branch(exit_patch, end);
                let ctx = self.loops.pop().expect("pushed above");
                for b in ctx.breaks {
                    self.code.ops[b] = Op::Jump(end);
                }
                debug_assert!(ctx.pending_cont.is_empty() && ctx.pending_cont_execs.is_empty());
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
                self.loops.push(LoopCtx {
                    break_path_len,
                    cont_path_len: self.path.len(),
                    cont_pc: None,
                    pending_cont: Vec::new(),
                    breaks: Vec::new(),
                    pending_cont_execs: Vec::new(),
                });
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
                let ctx = self.loops.pop().expect("pushed above");
                for b in ctx.breaks {
                    self.code.ops[b] = Op::Jump(end);
                }
                for c in ctx.pending_cont {
                    self.code.ops[c] = Op::Jump(step_pc);
                }
                for e in ctx.pending_cont_execs {
                    if let Some((pops, _)) = self.code.execs[e].cont {
                        self.code.execs[e].cont = Some((pops, step_pc));
                    }
                }
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
            Stmt::Break(loc) => {
                let pops = match self.loops.last() {
                    Some(ctx) => (self.path.len() - ctx.break_path_len) as u32,
                    // A stray `break` bubbles to the function's end like
                    // a fall-off (the tree-walker's blocks pass the flow
                    // through to `call`, which treats it as Normal).
                    None => self.path.len() as u32,
                };
                if pops > 0 {
                    self.emit(Op::ScopePopN(pops), *loc);
                }
                let j = self.emit(Op::Jump(0), *loc);
                match self.loops.last_mut() {
                    Some(ctx) => ctx.breaks.push(j),
                    None => self.fn_end_jumps.push(j),
                }
            }
            Stmt::Continue(loc) => {
                let pops = match self.loops.last() {
                    Some(ctx) => (self.path.len() - ctx.cont_path_len) as u32,
                    None => self.path.len() as u32,
                };
                if pops > 0 {
                    self.emit(Op::ScopePopN(pops), *loc);
                }
                match self.loops.last() {
                    Some(ctx) => match ctx.cont_pc {
                        Some(pc) => {
                            self.emit(Op::Jump(pc), *loc);
                        }
                        None => {
                            let j = self.emit(Op::Jump(0), *loc);
                            self.loops
                                .last_mut()
                                .expect("checked above")
                                .pending_cont
                                .push(j);
                        }
                    },
                    None => {
                        let j = self.emit(Op::Jump(0), *loc);
                        self.fn_end_jumps.push(j);
                    }
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
            Stmt::Switch(_, _, loc) => {
                // `switch` dispatch stays on the tree-walker: its label
                // scan, promoted-type case matching, and partial-block
                // execution are exactly replicated by calling into it.
                let cont = self.loops.last().map(|ctx| {
                    let pops = (self.path.len() - ctx.cont_path_len) as u32;
                    (pops, ctx.cont_pc.unwrap_or(0))
                });
                let pending = self.loops.last().is_some_and(|ctx| ctx.cont_pc.is_none());
                let idx = self.code.execs.len();
                self.code.execs.push(ExecInfo {
                    stmt: s,
                    depth: self.path.len() as u32,
                    cont,
                });
                if pending {
                    self.loops
                        .last_mut()
                        .expect("checked above")
                        .pending_cont_execs
                        .push(idx);
                }
                self.emit(Op::ExecStmt(idx as u32), *loc);
            }
            // Labels are transparent when reached sequentially; `case`
            // and `default` outside a switch body execute their inner
            // statement like the tree-walker does.
            Stmt::Case(_, inner, _) | Stmt::Default(inner, _) => self.stmt(*inner),
            Stmt::Label(sym, inner, loc) => {
                let _ = loc;
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
                    let m = self.fail_msg(msg);
                    self.emit(Op::FailUnsupported(m), *loc);
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

    /// Compile a statement/loop condition: ops that evaluate the full
    /// expression, then a branch-if-false op whose target the caller
    /// patches. Returns the branch op's index.
    fn cond(&mut self, e: ExprId) -> usize {
        let loc = self.expr_loc(e);
        let mark = self.code.ops.len();
        if elidable(self.unit, e) && self.expr(e).is_ok() {
            // Whole-condition fusion: a single fused compare collapses
            // to one compute-and-branch op.
            if self.code.ops.len() == mark + 1 {
                match self.code.ops[mark] {
                    Op::BinSS(i) => {
                        self.code.ops[mark] = Op::BrCmpSS(i, 0);
                        return mark;
                    }
                    Op::BinSC(i) => {
                        self.code.ops[mark] = Op::BrCmpSC(i, 0);
                        return mark;
                    }
                    _ => {}
                }
            }
            return self.emit(Op::BranchFalseSeq(0), loc);
        }
        self.rollback(mark);
        self.emit(Op::EvalFull(e), loc);
        self.emit(Op::BranchFalseSeq(0), loc)
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
        if full {
            self.emit(Op::DeclFull(s), d.loc);
            return;
        }
        match d.init {
            None => {
                self.emit(Op::DeclSimple(s), d.loc);
            }
            Some(init) => {
                if !elidable(self.unit, init) {
                    self.emit(Op::DeclFull(s), d.loc);
                    return;
                }
                let mark = self.code.ops.len();
                self.emit(Op::DeclAlloc(s), d.loc);
                if self.expr(init).is_err() {
                    self.rollback(mark);
                    self.emit(Op::DeclFull(s), d.loc);
                    return;
                }
                self.emit(Op::DeclInit(s), self.expr_loc(init));
            }
        }
    }

    /// Compile a full-expression statement (§6.8:4): the value is
    /// discarded and the footprint dies at the statement's end.
    fn full_stmt(&mut self, e: ExprId) {
        let loc = self.expr_loc(e);
        if !elidable(self.unit, e) {
            self.emit(Op::EvalFullPop(e), loc);
            return;
        }
        let mark = self.code.ops.len();
        if self.full_stmt_fast(e).is_err() {
            self.rollback(mark);
            self.emit(Op::EvalFullPop(e), loc);
        }
    }

    /// Statement-position lowering of an elidable full expression, with
    /// store/inc-dec superinstructions that never materialize the value.
    fn full_stmt_fast(&mut self, e: ExprId) -> Result<(), Bail> {
        let node = self.unit.expr(e);
        let loc = node.loc;
        match &node.kind {
            ExprKind::Assign(place, op, rhs) => {
                match &self.unit.expr(*place).kind {
                    ExprKind::Slot(slot, _) => {
                        let place_loc = self.expr_loc(*place);
                        match self.slot_ty(slot.0) {
                            ValTy::Int(t) => {
                                self.emit(Op::BindCheck(slot.0), place_loc);
                                self.expr(*rhs)?;
                                let fast = match op {
                                    // Compound assignment reads first; a
                                    // `_Bool` read can trap (§6.2.6.1:5),
                                    // so it stays on the generic path.
                                    Some(_) if t == IntTy::Bool => None,
                                    _ => Some(t),
                                };
                                let i = self.code.stores.len() as u32;
                                self.code.stores.push(FusedStore {
                                    slot: slot.0,
                                    fast,
                                    op: *op,
                                });
                                self.emit(Op::AssignSlotPop(i), loc);
                            }
                            ValTy::Ptr { .. } => {
                                self.emit(Op::BindCheck(slot.0), place_loc);
                                self.expr(*rhs)?;
                                let i = self.code.stores.len() as u32;
                                self.code.stores.push(FusedStore {
                                    slot: slot.0,
                                    fast: None,
                                    op: *op,
                                });
                                self.emit(Op::AssignSlotPop(i), loc);
                            }
                            ValTy::Array { .. } => {
                                // §6.3.2.1:1 — rejected after the place
                                // evaluates, before the rhs would.
                                self.emit(Op::BindCheck(slot.0), place_loc);
                                let msg = format!(
                                    "array `{}` is not a modifiable lvalue",
                                    self.unit.interner.resolve(self.slot_syms[slot.0 as usize])
                                );
                                let m = self.fail_msg(msg);
                                self.emit(Op::FailUnsupported(m), loc);
                            }
                            ValTy::Void | ValTy::Unknown => return Err(Bail),
                        }
                    }
                    ExprKind::Deref(x) => {
                        let deref_loc = self.expr_loc(*place);
                        self.expr(*x)?;
                        self.emit(Op::AsPtr, deref_loc);
                        self.expr(*rhs)?;
                        self.emit(self.store_op(*op), loc);
                        self.emit(Op::PopSeq, loc);
                    }
                    ExprKind::Index(b, i) => {
                        let index_loc = self.expr_loc(*place);
                        self.index_base(*b, index_loc)?;
                        self.expr(*i)?;
                        self.emit(Op::IndexPlace, index_loc);
                        self.expr(*rhs)?;
                        self.emit(self.store_op(*op), loc);
                        self.emit(Op::PopSeq, loc);
                    }
                    ExprKind::Ident(_) => return Err(Bail),
                    _ => {
                        let place_loc = self.expr_loc(*place);
                        let m = self.fail_msg("expression is not an lvalue".into());
                        self.emit(Op::FailUnsupported(m), place_loc);
                    }
                }
                Ok(())
            }
            ExprKind::PreIncDec(place, delta) | ExprKind::PostIncDec(place, delta) => {
                match &self.unit.expr(*place).kind {
                    ExprKind::Slot(slot, _) => {
                        let place_loc = self.expr_loc(*place);
                        match self.slot_ty(slot.0) {
                            ValTy::Int(t) => {
                                let i = self.code.incdecs.len() as u32;
                                self.code.incdecs.push(FusedIncDec {
                                    slot: slot.0,
                                    fast: (t != IntTy::Bool).then_some(t),
                                    delta: *delta,
                                    place_loc,
                                });
                                self.emit(Op::IncDecSlotStmt(i), loc);
                            }
                            ValTy::Ptr { .. } => {
                                let i = self.code.incdecs.len() as u32;
                                self.code.incdecs.push(FusedIncDec {
                                    slot: slot.0,
                                    fast: None,
                                    delta: *delta,
                                    place_loc,
                                });
                                self.emit(Op::IncDecSlotStmt(i), loc);
                            }
                            ValTy::Array { .. } => {
                                self.emit(Op::BindCheck(slot.0), place_loc);
                                let msg = format!(
                                    "array `{}` is not a modifiable lvalue",
                                    self.unit.interner.resolve(self.slot_syms[slot.0 as usize])
                                );
                                let m = self.fail_msg(msg);
                                self.emit(Op::FailUnsupported(m), loc);
                            }
                            ValTy::Void | ValTy::Unknown => return Err(Bail),
                        }
                    }
                    ExprKind::Deref(x) => {
                        let deref_loc = self.expr_loc(*place);
                        self.expr(*x)?;
                        self.emit(Op::AsPtr, deref_loc);
                        self.emit(Op::IncDec(*delta, false), loc);
                        self.emit(Op::PopSeq, loc);
                    }
                    ExprKind::Index(b, i) => {
                        let index_loc = self.expr_loc(*place);
                        self.index_base(*b, index_loc)?;
                        self.expr(*i)?;
                        self.emit(Op::IndexPlace, index_loc);
                        self.emit(Op::IncDec(*delta, false), loc);
                        self.emit(Op::PopSeq, loc);
                    }
                    ExprKind::Ident(_) => return Err(Bail),
                    _ => {
                        let place_loc = self.expr_loc(*place);
                        let m = self.fail_msg("expression is not an lvalue".into());
                        self.emit(Op::FailUnsupported(m), place_loc);
                    }
                }
                Ok(())
            }
            _ => {
                self.expr(e)?;
                self.emit(Op::PopSeq, loc);
                Ok(())
            }
        }
    }

    fn store_op(&self, op: Option<BinOp>) -> Op {
        match op {
            None => Op::StoreSimple,
            Some(op) => Op::StoreCompound(op),
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
    /// (conditions, return values, initializers).
    fn full_value(&mut self, e: ExprId) {
        let loc = self.expr_loc(e);
        if !elidable(self.unit, e) {
            self.emit(Op::EvalFull(e), loc);
            return;
        }
        let mark = self.code.ops.len();
        if self.expr(e).is_err() {
            self.rollback(mark);
            self.emit(Op::EvalFull(e), loc);
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
        let target = self
            .unit
            .func_by_symbol
            .get(name.index())
            .copied()
            .flatten();
        if target != Some(me) || args.len() != self.func.params.len() || !elidable(self.unit, e) {
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
            | Op::ExecStmt(_)
            | Op::DeclFull(_)
    )
}

// ----- expression lowering -----

impl<'a> FnCompiler<'a> {
    /// Remove the last `n` emitted ops (fusion replaces them).
    fn pop_ops(&mut self, n: usize) {
        let len = self.code.ops.len() - n;
        self.code.ops.truncate(len);
        self.code.locs.truncate(len);
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
            ExprKind::IntLit(c) => {
                let i = self.pool(*c);
                self.emit(Op::Const(i), loc);
                Ok(Shape::Const(i))
            }
            ExprKind::Ident(sym) => {
                let msg = format!(
                    "use of undeclared identifier `{}`",
                    self.unit.interner.resolve(*sym)
                );
                let m = self.fail_msg(msg);
                self.emit(Op::FailUnsupported(m), loc);
                Ok(Shape::Other)
            }
            ExprKind::Slot(slot, _) => match self.slot_ty(slot.0) {
                // `_Bool` reads can trap (§6.2.6.1:5); they stay on the
                // generic path, which reports the representation.
                ValTy::Int(t) if t != IntTy::Bool => {
                    self.emit(Op::LoadSlotFast(slot.0, t), loc);
                    Ok(Shape::SlotFast(slot.0, t, loc))
                }
                _ => {
                    self.emit(Op::LoadSlot(slot.0), loc);
                    Ok(Shape::Other)
                }
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
                        let j = self.pool(f);
                        self.emit(Op::Const(j), loc);
                        return Ok(Shape::Const(j));
                    }
                }
                self.emit(Op::Unary(*op), loc);
                Ok(Shape::Other)
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
                        let i = self.code.fused.len() as u32;
                        self.code.fused.push(FusedBin {
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
                        let i = self.code.fused.len() as u32;
                        self.code.fused.push(FusedBin {
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
                                let j = self.pool(c);
                                self.emit(Op::Const(j), loc);
                                Ok(Shape::Const(j))
                            }
                            // Constant UB (`1 / 0`) still reports at run
                            // time, at this node's loc.
                            Err(_) => {
                                self.emit(Op::Binary(*op), loc);
                                Ok(Shape::Other)
                            }
                        }
                    }
                    (Shape::SlotFast(a_slot, a_ty, a_loc), Shape::Fused(fi, fc)) => {
                        // Second-level fusion: `a ⊕ (b ⊕ c)` — the whole
                        // five-node tree in one dispatch, loads and
                        // operator applications in tree order.
                        let inner_loc = *self.code.locs.last().expect("inner op");
                        self.pop_ops(2);
                        let j = self.code.fused2.len() as u32;
                        self.code.fused2.push(Fused2 {
                            op: *op,
                            a_slot,
                            a_ty,
                            a_loc,
                            inner: fi,
                            inner_loc,
                            inner_const: fc,
                        });
                        self.emit(Op::Bin2SF(j), loc);
                        Ok(Shape::Other)
                    }
                    (Shape::Fused(fi, fc), Shape::Const(ci)) => {
                        // Second-level fusion, constant on the right:
                        // `(b ⊕ c) ⊕ k` in one dispatch. The last two
                        // ops are the inner pair and the constant.
                        let inner_loc = self.code.locs[self.code.locs.len() - 2];
                        self.pop_ops(2);
                        let j = self.code.fused2.len() as u32;
                        self.code.fused2.push(Fused2 {
                            op: *op,
                            a_slot: ci,
                            a_ty: IntTy::Int,
                            a_loc: loc,
                            inner: fi,
                            inner_loc,
                            inner_const: fc,
                        });
                        self.emit(Op::Bin2FC(j), loc);
                        Ok(Shape::Other)
                    }
                    (_, Shape::Const(ci)) => {
                        self.pop_ops(1);
                        self.emit(Op::BinaryC(*op, ci), loc);
                        Ok(Shape::Other)
                    }
                    (_, Shape::Fused(fi, fc)) => {
                        // Left operand stays on the stack; the fused
                        // right pair folds into this op.
                        let inner_loc = *self.code.locs.last().expect("inner op");
                        self.pop_ops(1);
                        let j = self.code.fused2.len() as u32;
                        self.code.fused2.push(Fused2 {
                            op: *op,
                            a_slot: 0,
                            a_ty: IntTy::Int,
                            a_loc: loc,
                            inner: fi,
                            inner_loc,
                            inner_const: fc,
                        });
                        self.emit(Op::Bin2VF(j), loc);
                        Ok(Shape::Other)
                    }
                    (_, Shape::SlotFast(b_slot, b_ty, b_loc)) => {
                        // Left operand stays on the stack; the right
                        // slot load folds in (its descriptor reuses the
                        // `FusedBin` left-operand fields).
                        self.pop_ops(1);
                        let i = self.code.fused.len() as u32;
                        self.code.fused.push(FusedBin {
                            a_slot: b_slot,
                            a_ty: b_ty,
                            a_loc: b_loc,
                            b_slot: 0,
                            b_ty,
                            b_loc,
                            op: *op,
                        });
                        self.emit(Op::BinVS(i), loc);
                        Ok(Shape::Other)
                    }
                    _ => {
                        self.emit(Op::Binary(*op), loc);
                        Ok(Shape::Other)
                    }
                }
            }
            ExprKind::LogicalAnd(l, r) => {
                self.expr(*l)?;
                let at = self.emit(Op::AndFalse(0), loc);
                self.expr(*r)?;
                self.emit(Op::ToBool01, loc);
                let end = self.pc();
                self.patch_branch(at, end);
                Ok(Shape::Other)
            }
            ExprKind::LogicalOr(l, r) => {
                self.expr(*l)?;
                let at = self.emit(Op::OrTrue(0), loc);
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
                self.emit(Op::ReadThru, loc);
                Ok(Shape::Other)
            }
            ExprKind::AddrOf(inner) => self.addr_of(*inner, loc),
            ExprKind::Index(b, i) => {
                self.index_base(*b, loc)?;
                self.expr(*i)?;
                self.emit(Op::IndexRead, loc);
                Ok(Shape::Other)
            }
            ExprKind::Call(name, args) => self.call_value(*name, args, loc),
            ExprKind::SizeofType(ty) => match ValTy::of(ty).size_bytes() {
                Some(n) => {
                    let i = self.pool(CInt::new(n as i128, SIZE_T));
                    self.emit(Op::Const(i), loc);
                    Ok(Shape::Const(i))
                }
                None => {
                    let m = self.fail_msg("`sizeof` applied to the incomplete type `void`".into());
                    self.emit(Op::FailUnsupported(m), loc);
                    Ok(Shape::Other)
                }
            },
            // The type table sizes every operand but a VLA (whose length
            // is the live object's) and untyped ones (which stop).
            ExprKind::SizeofExpr(inner) => match self.unit.ty(*inner).size_bytes() {
                Some(n) => {
                    let i = self.pool(CInt::new(n as i128, SIZE_T));
                    self.emit(Op::Const(i), loc);
                    Ok(Shape::Const(i))
                }
                None => {
                    self.emit(Op::SizeofExpr(*inner), loc);
                    Ok(Shape::Other)
                }
            },
            ExprKind::Cast(ty, inner) => match ty {
                Ty::Void => {
                    self.expr(*inner)?;
                    self.emit(Op::CastVoid, loc);
                    Ok(Shape::Other)
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
                            let j = self.pool(c);
                            self.emit(Op::Const(j), loc);
                            return Ok(Shape::Const(j));
                        }
                        // An implementation-defined conversion emits a
                        // note at run time; keep the runtime op.
                    }
                    self.emit(Op::CastInt(*t), loc);
                    Ok(Shape::Other)
                }
                Ty::Ptr(p) => {
                    self.expr(*inner)?;
                    self.emit(Op::CastPtr(pointee_of_ty(p)), loc);
                    Ok(Shape::Other)
                }
            },
        }
    }

    /// `&inner` — mirrors `eval_place` + the array-decay rejection.
    fn addr_of(&mut self, inner: ExprId, loc: SourceLoc) -> CResult {
        let in_loc = self.expr_loc(inner);
        match &self.unit.expr(inner).kind {
            ExprKind::Slot(slot, _) => match self.slot_ty(slot.0) {
                ValTy::Int(_) | ValTy::Ptr { .. } => {
                    self.emit(Op::SlotPlace(slot.0), in_loc);
                    Ok(Shape::Other)
                }
                ValTy::Array { .. } => {
                    // The unbound check fires first (as in `eval_place`),
                    // then the §6.3.2.1:3 no-decay rejection at this loc.
                    self.emit(Op::BindCheck(slot.0), in_loc);
                    let msg = format!(
                        "`&{}` has array-pointer type, which is outside the subset",
                        self.unit.interner.resolve(self.slot_syms[slot.0 as usize])
                    );
                    let m = self.fail_msg(msg);
                    self.emit(Op::FailUnsupported(m), loc);
                    Ok(Shape::Other)
                }
                ValTy::Void | ValTy::Unknown => Err(Bail),
            },
            ExprKind::Deref(x) => {
                self.expr(*x)?;
                self.emit(Op::AsPtr, in_loc);
                Ok(Shape::Other)
            }
            ExprKind::Index(b, i) => {
                self.index_base(*b, in_loc)?;
                self.expr(*i)?;
                self.emit(Op::IndexPlace, in_loc);
                Ok(Shape::Other)
            }
            ExprKind::Ident(sym) => {
                let msg = format!(
                    "use of undeclared identifier `{}`",
                    self.unit.interner.resolve(*sym)
                );
                let m = self.fail_msg(msg);
                self.emit(Op::FailUnsupported(m), in_loc);
                Ok(Shape::Other)
            }
            _ => {
                let m = self.fail_msg("expression is not an lvalue".into());
                self.emit(Op::FailUnsupported(m), in_loc);
                Ok(Shape::Other)
            }
        }
    }
}

// ----- value-position updates and calls -----

impl<'a> FnCompiler<'a> {
    /// `place = rhs` / `place op= rhs` in value position: same lowering
    /// as the statement form, but the store op pushes the stored value.
    fn assign_value(
        &mut self,
        place: ExprId,
        op: Option<BinOp>,
        rhs: ExprId,
        loc: SourceLoc,
    ) -> CResult {
        match &self.unit.expr(place).kind {
            ExprKind::Slot(slot, _) => {
                let place_loc = self.expr_loc(place);
                match self.slot_ty(slot.0) {
                    ValTy::Int(t) => {
                        self.emit(Op::BindCheck(slot.0), place_loc);
                        self.expr(rhs)?;
                        let fast = match op {
                            Some(_) if t == IntTy::Bool => None,
                            _ => Some(t),
                        };
                        let i = self.code.stores.len() as u32;
                        self.code.stores.push(FusedStore {
                            slot: slot.0,
                            fast,
                            op,
                        });
                        self.emit(Op::AssignSlot(i), loc);
                        Ok(Shape::Other)
                    }
                    ValTy::Ptr { .. } => {
                        self.emit(Op::BindCheck(slot.0), place_loc);
                        self.expr(rhs)?;
                        let i = self.code.stores.len() as u32;
                        self.code.stores.push(FusedStore {
                            slot: slot.0,
                            fast: None,
                            op,
                        });
                        self.emit(Op::AssignSlot(i), loc);
                        Ok(Shape::Other)
                    }
                    ValTy::Array { .. } => {
                        self.emit(Op::BindCheck(slot.0), place_loc);
                        let msg = format!(
                            "array `{}` is not a modifiable lvalue",
                            self.unit.interner.resolve(self.slot_syms[slot.0 as usize])
                        );
                        let m = self.fail_msg(msg);
                        self.emit(Op::FailUnsupported(m), loc);
                        Ok(Shape::Other)
                    }
                    ValTy::Void | ValTy::Unknown => Err(Bail),
                }
            }
            ExprKind::Deref(x) => {
                let deref_loc = self.expr_loc(place);
                self.expr(*x)?;
                self.emit(Op::AsPtr, deref_loc);
                self.expr(rhs)?;
                self.emit(self.store_op(op), loc);
                Ok(Shape::Other)
            }
            ExprKind::Index(b, i) => {
                let index_loc = self.expr_loc(place);
                self.index_base(*b, index_loc)?;
                self.expr(*i)?;
                self.emit(Op::IndexPlace, index_loc);
                self.expr(rhs)?;
                self.emit(self.store_op(op), loc);
                Ok(Shape::Other)
            }
            ExprKind::Ident(_) => Err(Bail),
            _ => {
                let place_loc = self.expr_loc(place);
                let m = self.fail_msg("expression is not an lvalue".into());
                self.emit(Op::FailUnsupported(m), place_loc);
                Ok(Shape::Other)
            }
        }
    }

    /// `++place`/`place++` in value position.
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
                    self.emit(Op::IncDec(delta, is_post), loc);
                    Ok(Shape::Other)
                }
                ValTy::Array { .. } => {
                    self.emit(Op::BindCheck(slot.0), place_loc);
                    let msg = format!(
                        "array `{}` is not a modifiable lvalue",
                        self.unit.interner.resolve(self.slot_syms[slot.0 as usize])
                    );
                    let m = self.fail_msg(msg);
                    self.emit(Op::FailUnsupported(m), loc);
                    Ok(Shape::Other)
                }
                ValTy::Void | ValTy::Unknown => Err(Bail),
            },
            ExprKind::Deref(x) => {
                self.expr(*x)?;
                self.emit(Op::AsPtr, place_loc);
                self.emit(Op::IncDec(delta, is_post), loc);
                Ok(Shape::Other)
            }
            ExprKind::Index(b, i) => {
                self.index_base(*b, place_loc)?;
                self.expr(*i)?;
                self.emit(Op::IndexPlace, place_loc);
                self.emit(Op::IncDec(delta, is_post), loc);
                Ok(Shape::Other)
            }
            ExprKind::Ident(_) => Err(Bail),
            _ => {
                let m = self.fail_msg("expression is not an lvalue".into());
                self.emit(Op::FailUnsupported(m), place_loc);
                Ok(Shape::Other)
            }
        }
    }

    /// A call: per-argument push ops, then either a direct `Call` (arity
    /// pre-checked at compile time into a `FailUb` when it can never
    /// match) or the non-function report. `malloc`/`free` keep their
    /// allocator semantics on the tree path.
    fn call_value(&mut self, name: Symbol, args: &[ExprId], loc: SourceLoc) -> CResult {
        let target = self
            .unit
            .func_by_symbol
            .get(name.index())
            .copied()
            .flatten();
        let Some(f_idx) = target else {
            if name == kw::MALLOC || name == kw::FREE {
                for &a in args {
                    self.expr(a)?;
                    let al = self.expr_loc(a);
                    self.emit(Op::ArgPush, al);
                }
                if args.len() != 1 {
                    // Arity mismatch diagnoses after the arguments ran,
                    // exactly like the tree path.
                    let err = UbError::new(UbKind::CallWrongArity)
                        .at(loc)
                        .in_function(self.unit.interner.resolve(self.func.name))
                        .with_detail(format!(
                            "`{}` takes 1 argument, called with {}",
                            self.unit.interner.resolve(name),
                            args.len()
                        ));
                    let i = self.code.ubs.len() as u32;
                    self.code.ubs.push(err);
                    self.emit(Op::FailUb(i), loc);
                } else if name == kw::MALLOC {
                    self.emit(Op::Malloc, loc);
                } else {
                    self.emit(Op::Free, loc);
                }
                return Ok(Shape::Other);
            }
            for &a in args {
                self.expr(a)?;
                let al = self.expr_loc(a);
                self.emit(Op::ArgPush, al);
            }
            let err = UbError::new(UbKind::CallNonFunction)
                .at(loc)
                .in_function(self.unit.interner.resolve(self.func.name))
                .with_detail(format!(
                    "`{}` does not designate a function in this translation unit",
                    self.unit.interner.resolve(name)
                ));
            let i = self.code.ubs.len() as u32;
            self.code.ubs.push(err);
            self.emit(Op::FailUb(i), loc);
            return Ok(Shape::Other);
        };
        for &a in args {
            self.expr(a)?;
            let al = self.expr_loc(a);
            self.emit(Op::ArgPush, al);
        }
        let callee = &self.unit.functions[f_idx as usize];
        if callee.params.len() != args.len() {
            let err = UbError::new(UbKind::CallWrongArity)
                .at(loc)
                .in_function(self.unit.interner.resolve(self.func.name))
                .with_detail(format!(
                    "`{}` takes {} argument(s), called with {}",
                    self.unit.interner.resolve(name),
                    callee.params.len(),
                    args.len()
                ));
            let i = self.code.ubs.len() as u32;
            self.code.ubs.push(err);
            self.emit(Op::FailUb(i), loc);
        } else {
            self.emit(Op::Call(f_idx, args.len() as u32), loc);
        }
        Ok(Shape::Other)
    }
}
