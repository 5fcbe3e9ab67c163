//! Flat bytecode for the compiled execution engine.
//!
//! [`crate::compile`] lowers the slot-resolved AST into one contiguous
//! [`Op`] stream per translation unit ([`CodeUnit`]), with u32 operands,
//! jump-patched control flow, and per-function code ranges. The virtual
//! machine in [`crate::eval`] dispatches over this stream; the
//! tree-walker remains the reference semantics, and every op here is
//! defined *in terms of* the tree-walker's helpers so diagnostics stay
//! byte-identical.
//!
//! Two design rules keep parity cheap to argue:
//!
//! - **Honest fallbacks.** Any construct the compiler cannot prove it
//!   lowers faithfully becomes a fallback op ([`Op::EvalFull`],
//!   [`Op::DeclFull`]) that calls straight into the tree-walker for that
//!   full expression / declaration. Every statement is lowered.
//!   The fast path only ever covers code where the lowering is exact.
//! - **Footprint elision.** §6.5:2 sequencing checks are *provably
//!   vacuous* for full expressions with at most one update (the root
//!   store) — see `compile::elidable` — so the compiler simply does not
//!   emit footprint/sequence-point traffic for them; anything else
//!   falls back to the tree-walker, which keeps its byte-range
//!   precision.
//!
//! Ops are slim (operands are u32 indices); anything larger — fused
//! superinstruction descriptors, prebuilt error reports, `switch` jump
//! tables — lives in side tables indexed by those operands, with a
//! parallel per-op [`SourceLoc`] table for diagnostics.

use crate::ast::{BinOp, ExprId, StmtId, UnaryOp};
use crate::ctype::{CInt, IntTy};
use crate::eval::PointeeTy;
use cundef_ub::{SourceLoc, UbError};

// `goto` is compiled to a statically patched jump, so the virtual
// machine never needs a runtime label search.

/// Program counter: an index into [`CodeUnit::ops`].
pub(crate) type Pc = u32;

/// One bytecode instruction. The per-op source position lives in the
/// parallel [`CodeUnit::locs`] table.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    // ----- values -----
    /// Push constant `pool[i]` as an integer value.
    Const(u32),
    /// Read slot `s` as a designator: array decay, unbound check, then a
    /// typed load — the exact `ExprKind::Slot` semantics.
    LoadSlot(u32),
    /// Read slot `s`, statically known to be a scalar object of the
    /// given non-`_Bool` integer type: single-word fast path when the
    /// object is bound, alive, and fully initialized; the generic
    /// [`Op::LoadSlot`] path otherwise.
    LoadSlotFast(u32, IntTy),
    /// Discard the top of the value stack (comma left operand).
    Pop,
    /// End of an expression statement: discard the top of the stack and
    /// truncate the footprint arena to the frame's base (§6.8:4).
    PopSeq,

    // ----- arithmetic -----
    /// Pop `v`; apply a unary operator per the tree-walker.
    Unary(UnaryOp),
    /// Pop `r`, pop `l`; consume both and apply a binary operator.
    Binary(BinOp),
    /// Pop `l`; apply a binary operator with constant `pool[i]` as the
    /// right operand.
    BinaryC(BinOp, u32),
    /// Fused slot ⊗ slot binary op, descriptor in `fused[i]`.
    BinSS(u32),
    /// Fused slot ⊗ constant binary op, descriptor in `fused[i]`.
    BinSC(u32),
    /// Pop `l`; fused stack ⊗ slot binary op — the right operand is the
    /// slot described by `fused[i]`'s *left*-operand fields (the `b_*`
    /// fields are unused). Evaluation order matches the tree: the left
    /// operand's ops already ran.
    BinVS(u32),
    /// Fused second-level tree `slotA ⊕ (inner)`, descriptor in
    /// `fused2[i]`: load `a`, compute the inner fused pair, apply both
    /// operators — five tree nodes in one dispatch, with the loads and
    /// operator applications in exactly the tree-walker's order.
    Bin2SF(u32),
    /// [`Op::Bin2SF`] with the left operand taken from the stack (its
    /// ops already ran); `fused2[i]`'s `a_*` fields are unused.
    Bin2VF(u32),
    /// `(b ⊕ c) ⊕ k` — an inner [`FusedBin`] pair on the *left*, a pool
    /// constant on the right: the inner loads and both operator
    /// applications in one dispatch, in tree order. `fused2[i].a_slot`
    /// holds the pool index of the right constant; the other `a_*`
    /// fields are unused.
    Bin2FC(u32),

    // ----- control flow -----
    /// Unconditional jump.
    Jump(Pc),
    /// `switch` dispatch: pop the controlling value, end its full
    /// expression, and jump to the body item that the unit's case table
    /// `switches[i]` selects (entry pcs in [`CodeUnit::switches`]).
    Switch(u32),
    /// Pop; if not truthy, jump (conditional operator — no sequence
    /// boundary).
    BranchFalse(Pc),
    /// Truncate the footprint arena to the frame base (the controlling
    /// full expression ends, §6.8:4), pop; if not truthy, jump.
    BranchFalseSeq(Pc),
    /// `&&` left operand: pop; if not truthy, push `0` and jump past the
    /// right operand (§6.5.13:4).
    AndFalse(Pc),
    /// `||` left operand: pop; if truthy, push `1` and jump (§6.5.14:4).
    OrTrue(Pc),
    /// Pop; push `1` if truthy else `0` (`&&`/`||` right operand).
    ToBool01,
    /// Conditional-operator merge: convert an integer branch value to
    /// the common type of both arms (§6.5.15:5), precomputed from the
    /// type table. Emitted only when that type is an integer type.
    CondCommon(IntTy),
    /// Fused promoted-compare-and-branch, slot ⊗ slot (loop condition):
    /// sequence boundary, compare via `fused[i]`, jump if false.
    BrCmpSS(u32, Pc),
    /// Fused promoted-compare-and-branch, slot ⊗ constant.
    BrCmpSC(u32, Pc),

    // ----- memory -----
    /// Pop a value that must be a usable pointer (`eval_pointer`): a
    /// pointer passes, null/integers report [`cundef_ub::UbKind::NullDereference`].
    AsPtr,
    /// Pop a place pointer; typed load through it.
    ReadThru,
    /// Pop index, pop base pointer; `pointer_add` and push the element
    /// place (§6.5.2.1:2).
    IndexPlace,
    /// [`Op::IndexPlace`] immediately followed by a typed load.
    IndexRead,
    /// Push the place designated by slot `s` (unbound check; no byte is
    /// accessed).
    SlotPlace(u32),
    /// Check that slot `s` is bound (the place-before-rhs evaluation
    /// order of assignment) without pushing anything.
    BindCheck(u32),
    /// Pop the stored value, pop the place pointer; typed store, push
    /// the converted result (§6.5.16:3).
    StoreSimple,
    /// Compound assignment through an arbitrary place: pop value, pop
    /// place; read-modify-write with the operator.
    StoreCompound(BinOp),
    /// Pop the stored value; fused (compound) assignment to a scalar
    /// slot, descriptor in `stores[i]`; push the converted result.
    AssignSlot(u32),
    /// Statement form of [`Op::AssignSlot`]: no push, and the statement's
    /// sequence boundary (footprint truncation) is folded in.
    AssignSlotPop(u32),
    /// Pop a place pointer; `++`/`--` through it; push the old value
    /// (postfix, `delta.1`) or the new one.
    IncDec(i64, bool),
    /// Whole `i++;` / `i--;` statement on an int slot, descriptor in
    /// `incdecs[i]`, sequence boundary folded in.
    IncDecSlotStmt(u32),

    // ----- casts and sizeof -----
    /// Pop; integer conversion (§6.3.1.3) with its note machinery.
    CastInt(IntTy),
    /// Pop; pointer conversion (§6.3.2.3:7) to the given pointee.
    CastPtr(PointeeTy),
    /// Pop; `(void)e` yields a value that must not be used (§6.3.2.2:2).
    CastVoid,
    /// `sizeof e` whose operand the type table cannot size at
    /// translation time: a variable length array (its live object's
    /// length), or an operand outside the modeled semantics.
    SizeofExpr(ExprId),

    // ----- calls -----
    /// Pop a value, consume it (`use_value` at the argument's position),
    /// push it onto the shared argument stack.
    ArgPush,
    /// Call `functions[f]` with the top `argc` values of the argument
    /// stack; push the returned value.
    Call(u32, u32),
    /// `malloc(n)`: pop the size from the argument stack, allocate a
    /// fresh heap object (recycling a retired slab slot when one is
    /// free), push the pointer. Shares the tree-walker's allocator
    /// helper, so sizes, serial naming, and diagnostics are identical.
    Malloc,
    /// `free(p)`: pop the pointer from the argument stack, end the heap
    /// object's lifetime (retiring its slot for recycling), push the
    /// void poison. Shares the tree-walker's helper verbatim.
    Free,
    /// `return f(args)` where `f` is the enclosing function itself:
    /// rebind the parameter objects in place from the top `argc` operand
    /// stack values and jump back to the function's entry, reusing the
    /// physical frame. Compiled only when the reuse is unobservable —
    /// every parameter is a non-`_Bool` scalar whose address the body
    /// never takes, the return type is scalar, and every argument
    /// expression compiles to ops that can never produce a missing
    /// value (so skipping the per-argument `ArgPush` consumption loses
    /// no diagnostic) — so no pointer to a parameter or to a prior
    /// incarnation's locals can exist. When a runtime argument is not a
    /// plain integer the op degrades to the exact call-and-return it
    /// replaced.
    TailSelf(u32),
    /// Return: pop the value, end the full expression, consume the value
    /// at the `return`'s position, and leave the frame.
    Ret,
    /// `return;` — leave the frame with the missing-value poison the
    /// tree-walker builds (§6.9.1:12 / §6.3.2.2:1).
    RetNone,

    // ----- scopes and declarations -----
    /// Enter a block scope: remember the automatic-object mark.
    EnterScope,
    /// Leave a block scope: end the lifetimes created inside (§6.2.4:6).
    ExitScope,
    /// Leave `n` scopes (break/continue/goto unwinding).
    ScopePopN(u32),
    /// Enter `n` scopes (goto into nested scopes).
    ScopePushN(u32),
    /// Allocate and bind the object of a simple scalar declaration (the
    /// operand statement is its `Stmt::Decl`); the initializer ops
    /// follow.
    DeclAlloc(StmtId),
    /// Pop the initializer value and finish the declaration started by
    /// [`Op::DeclAlloc`]: typed store at offset 0, const flag, sequence
    /// boundary.
    DeclInit(StmtId),
    /// A simple scalar declaration with no initializer: allocate, bind,
    /// set the const flag.
    DeclSimple(StmtId),
    /// Fallback: run the whole declaration through the tree-walker
    /// (arrays, VLAs, redeclarations, initializers the compiler cannot
    /// lower).
    DeclFull(StmtId),

    /// Fused byte sweep, descriptor in `sweeps[i]`: a whole
    /// `for (int k = …; k < C; k++) d[k] = …;` loop over character
    /// pointers as one bulk move. The op validates once that *no*
    /// iteration of the generic loop could report a diagnostic (or
    /// observe different state), performs the copy/fill, charges
    /// exactly the steps the generic loop would have settled, and jumps
    /// past it; any precheck failure falls through to the generic loop
    /// ops emitted right after, which replay every per-byte check.
    ByteSweep(u32),

    // ----- fallbacks and failures -----
    /// Fallback: evaluate a full expression through the tree-walker and
    /// push its value.
    EvalFull(ExprId),
    /// Statement fallback: evaluate a full expression through the
    /// tree-walker and discard the value.
    EvalFullPop(ExprId),
    /// Unconditional engine-limit stop; message in `fails[i]`.
    FailUnsupported(u32),
    /// Unconditional undefined-behavior stop; prebuilt report in
    /// `ubs[i]` (e.g. a call-arity mismatch, which the tree-walker
    /// reports only after evaluating the arguments).
    FailUb(u32),
    /// Placeholder (unresolved patch target); never executed.
    Nop,
}

impl Op {
    /// The opcode's mnemonic, keying the `--profile` dispatch
    /// histogram (and the derived superinstruction / footprint-elision
    /// rates in [`crate::profile::ExecProfile`]).
    pub(crate) fn mnemonic(&self) -> &'static str {
        match self {
            Op::Const(_) => "Const",
            Op::LoadSlot(_) => "LoadSlot",
            Op::LoadSlotFast(..) => "LoadSlotFast",
            Op::Pop => "Pop",
            Op::PopSeq => "PopSeq",
            Op::Unary(_) => "Unary",
            Op::Binary(_) => "Binary",
            Op::BinaryC(..) => "BinaryC",
            Op::BinSS(_) => "BinSS",
            Op::BinSC(_) => "BinSC",
            Op::BinVS(_) => "BinVS",
            Op::Bin2SF(_) => "Bin2SF",
            Op::Bin2VF(_) => "Bin2VF",
            Op::Bin2FC(_) => "Bin2FC",
            Op::Jump(_) => "Jump",
            Op::Switch(_) => "Switch",
            Op::BranchFalse(_) => "BranchFalse",
            Op::BranchFalseSeq(_) => "BranchFalseSeq",
            Op::AndFalse(_) => "AndFalse",
            Op::OrTrue(_) => "OrTrue",
            Op::ToBool01 => "ToBool01",
            Op::CondCommon(_) => "CondCommon",
            Op::BrCmpSS(..) => "BrCmpSS",
            Op::BrCmpSC(..) => "BrCmpSC",
            Op::AsPtr => "AsPtr",
            Op::ReadThru => "ReadThru",
            Op::IndexPlace => "IndexPlace",
            Op::IndexRead => "IndexRead",
            Op::SlotPlace(_) => "SlotPlace",
            Op::BindCheck(_) => "BindCheck",
            Op::StoreSimple => "StoreSimple",
            Op::StoreCompound(_) => "StoreCompound",
            Op::AssignSlot(_) => "AssignSlot",
            Op::AssignSlotPop(_) => "AssignSlotPop",
            Op::IncDec(..) => "IncDec",
            Op::IncDecSlotStmt(_) => "IncDecSlotStmt",
            Op::CastInt(_) => "CastInt",
            Op::CastPtr(_) => "CastPtr",
            Op::CastVoid => "CastVoid",
            Op::SizeofExpr(_) => "SizeofExpr",
            Op::ArgPush => "ArgPush",
            Op::Call(..) => "Call",
            Op::Malloc => "Malloc",
            Op::Free => "Free",
            Op::TailSelf(..) => "TailSelf",
            Op::Ret => "Ret",
            Op::RetNone => "RetNone",
            Op::EnterScope => "EnterScope",
            Op::ExitScope => "ExitScope",
            Op::ScopePopN(_) => "ScopePopN",
            Op::ScopePushN(_) => "ScopePushN",
            Op::DeclAlloc(_) => "DeclAlloc",
            Op::DeclInit(_) => "DeclInit",
            Op::DeclSimple(_) => "DeclSimple",
            Op::DeclFull(_) => "DeclFull",
            Op::ByteSweep(_) => "ByteSweep",
            Op::EvalFull(_) => "EvalFull",
            Op::EvalFullPop(_) => "EvalFullPop",
            Op::FailUnsupported(_) => "FailUnsupported",
            Op::FailUb(_) => "FailUb",
            Op::Nop => "Nop",
        }
    }
}

/// Descriptor of a fused binary superinstruction: both operand loads
/// plus the operator in one dispatch. `b_slot` doubles as a constant
/// pool index for the `*SC` forms.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FusedBin {
    /// Left operand slot.
    pub a_slot: u32,
    /// Its statically known scalar type.
    pub a_ty: IntTy,
    /// Source position of the left operand (slot-load errors point here).
    pub a_loc: SourceLoc,
    /// Right operand slot (`BinSS`) or constant pool index (`BinSC`).
    pub b_slot: u32,
    /// Right operand's scalar type (slot forms).
    pub b_ty: IntTy,
    /// Source position of the right operand.
    pub b_loc: SourceLoc,
    /// The operator.
    pub op: BinOp,
}

/// Descriptor of a second-level fused binary tree
/// `a ⊕ (b ⊕ c)` ([`Op::Bin2SF`] / [`Op::Bin2VF`]): the outer
/// operator plus an inner [`FusedBin`] pair.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fused2 {
    /// The outer operator.
    pub op: BinOp,
    /// Outer left operand slot ([`Op::Bin2SF`] only).
    pub a_slot: u32,
    /// Its statically known scalar type.
    pub a_ty: IntTy,
    /// Source position of the outer left operand.
    pub a_loc: SourceLoc,
    /// Index of the inner pair in [`CodeUnit::fused`].
    pub inner: u32,
    /// Source position of the inner operator node (its arithmetic
    /// diagnostics report here, as the tree-walker's would).
    pub inner_loc: SourceLoc,
    /// Whether the inner pair's right operand is a pool constant
    /// (`BinSC` form) rather than a slot.
    pub inner_const: bool,
}

/// Descriptor of a fused slot store ([`Op::AssignSlot`] /
/// [`Op::AssignSlotPop`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FusedStore {
    /// Target slot.
    pub slot: u32,
    /// The slot's statically known scalar type, when the single-word
    /// fast path applies (the store converts to it, §6.5.16.1:2);
    /// `None` always takes the generic typed-store path (pointer slots).
    pub fast: Option<IntTy>,
    /// `None` for simple assignment, the operator for compound.
    pub op: Option<BinOp>,
}

/// Descriptor of a fused `i++;` / `i--;` statement.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FusedIncDec {
    /// Target slot.
    pub slot: u32,
    /// Statically known scalar type for the read-modify-write fast path;
    /// `None` (pointer slots, `_Bool`) takes the generic path.
    pub fast: Option<IntTy>,
    /// +1 or -1.
    pub delta: i64,
    /// Source position of the place expression (unbound-slot reports
    /// point here, like the tree-walker's `eval_place`).
    pub place_loc: SourceLoc,
}

/// What a fused byte sweep stores each iteration.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SweepSrc {
    /// Copy form `d[k] = s[k]`: the source pointer's frame slot.
    Slot(u32),
    /// Fill form `d[k] = c`: the constant stored each iteration, before
    /// the store's §6.3.1.3 conversion — which happens (and must be
    /// exact, or the op falls back for the conversion note) at runtime.
    Fill(CInt),
}

/// Descriptor of a fused byte sweep ([`Op::ByteSweep`]): the loop
/// `for (int k = …; k < bound; k++) d[k] = …;` lowered to one bulk
/// move. The counter's start value is read from the `k` object at
/// runtime, so the op also fuses loops entered with `k` already
/// partway along (a `continue`-free shape guarantees it).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FusedSweep {
    /// Frame slot of the loop counter `k` (a plain `int`).
    pub k_slot: u32,
    /// Frame slot of the destination pointer `d`.
    pub d_slot: u32,
    /// What each iteration stores: a source byte or a constant.
    pub src: SweepSrc,
    /// Exclusive upper bound: the loop runs while `k < bound`.
    pub bound: i64,
    /// Ops the generic loop dispatches per iteration (the condition
    /// through the back-edge jump) — the bulk step charge is
    /// `iterations × per_iter_ops + tail_ops`, making the op invisible
    /// to step accounting.
    pub per_iter_ops: u64,
    /// Ops of the final, failing condition test.
    pub tail_ops: u64,
    /// Pc of the loop's normal exit; a completed sweep jumps here.
    pub exit: Pc,
}

/// Where a compiled `switch` can send control.
#[derive(Debug, Clone, Default)]
pub(crate) struct SwitchCode {
    /// Entry pc of each body item (the whole statement for a non-block
    /// body), indexed like the case table's item numbers.
    pub entries: Vec<Pc>,
    /// Where no selection lands: the body's closing `ExitScope`, or just
    /// past a non-block body. `break` leaves through here too.
    pub skip: Pc,
}

/// Per-function compiled code.
#[derive(Debug, Clone)]
pub(crate) struct FnCode {
    /// `[start, end)` range of this function's ops.
    pub start: Pc,
    /// One past the last op (falling off it is reaching the `}`).
    pub end: Pc,
}

/// A compiled translation unit: the flat op stream plus its side tables.
#[derive(Debug, Clone, Default)]
pub(crate) struct CodeUnit {
    /// The instruction stream, all functions back to back.
    pub ops: Vec<Op>,
    /// Parallel per-op source positions.
    pub locs: Vec<SourceLoc>,
    /// Integer constant pool.
    pub pool: Vec<CInt>,
    /// Fused binary-op descriptors.
    pub fused: Vec<FusedBin>,
    /// Second-level fused binary-tree descriptors.
    pub fused2: Vec<Fused2>,
    /// Fused store descriptors.
    pub stores: Vec<FusedStore>,
    /// Fused `++`/`--` statement descriptors.
    pub incdecs: Vec<FusedIncDec>,
    /// Fused byte-sweep descriptors.
    pub sweeps: Vec<FusedSweep>,
    /// Jump tables, indexed like
    /// [`crate::ast::TranslationUnit::switches`].
    pub switches: Vec<SwitchCode>,
    /// Engine-limit messages for [`Op::FailUnsupported`].
    pub fails: Vec<String>,
    /// Prebuilt undefined-behavior reports for [`Op::FailUb`].
    pub ubs: Vec<UbError>,
    /// Per-function code ranges, indexed like
    /// [`crate::ast::TranslationUnit::functions`].
    pub funcs: Vec<FnCode>,
}
