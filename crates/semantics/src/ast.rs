//! Abstract syntax for the supported C subset, arena-allocated.
//!
//! The AST is deliberately close to the grammar of C11 §6.5–§6.8 for the
//! constructs it covers; every expression node carries the [`SourceLoc`]
//! of its principal operator so diagnostics can point at the exact
//! undefined operation.
//!
//! Nodes live in two flat arenas owned by the [`TranslationUnit`]
//! (`exprs: Vec<Expr>`, `stmts: Vec<Stmt>`) and refer to each other by
//! index ([`ExprId`], [`StmtId`]) instead of `Box` pointers, and
//! identifiers are interned [`Symbol`]s instead of `String`s. Parsing a
//! unit therefore performs O(1) large allocations instead of one per
//! node, and walking the tree touches contiguous memory.

use crate::consteval::ConstStop;
use crate::ctype::{CInt, IntTy, PTR_BYTES};
use crate::intern::{Interner, Symbol};
use cundef_ub::SourceLoc;
use std::num::NonZeroU32;

/// Index of an [`Expr`] in its unit's expression arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExprId(pub(crate) u32);

/// Index of a [`Stmt`] in its unit's statement arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StmtId(pub(crate) u32);

/// A type in the subset: an integer type of the LP64 lattice, `void`, or
/// finitely-nested pointers.
///
/// Arrays are not first-class types here; they exist only in declarations
/// (see [`Decl::array_size`]) and decay to pointers everywhere else,
/// mirroring C's usage (the value-type lattice [`ValTy`] keeps the
/// undecayed array that `sizeof` observes). `void` is an incomplete
/// type: it is legal behind a pointer (`void *p`) and as a
/// return/parameter-list marker, and the translation-phase analyzer
/// rejects objects declared with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ty {
    /// An integer type of the [`IntTy`] lattice (`_Bool`, `char`,
    /// signed/unsigned `short`/`int`/`long`/`long long`).
    Int(IntTy),
    /// The incomplete `void` type.
    Void,
    /// A pointer to another type in the subset.
    Ptr(Box<Ty>),
}

impl Ty {
    /// The plain `int` type, the subset's historic default.
    pub const INT: Ty = Ty::Int(IntTy::Int);

    /// Pointer depth: 0 for `int`/`void`, 1 for `int *`, 2 for `int **`, …
    pub fn ptr_depth(&self) -> u8 {
        match self {
            Ty::Int(_) | Ty::Void => 0,
            Ty::Ptr(inner) => 1 + inner.ptr_depth(),
        }
    }

    /// The non-pointer type at the bottom of the pointer chain.
    pub fn base(&self) -> &Ty {
        match self {
            Ty::Ptr(inner) => inner.base(),
            other => other,
        }
    }

    /// The scalar type at the bottom of the pointer chain, if it is an
    /// integer type (`None` for a `void` base).
    pub fn base_scalar(&self) -> Option<IntTy> {
        match self.base() {
            Ty::Int(it) => Some(*it),
            _ => None,
        }
    }
}

/// What sits at the bottom of a pointer chain in a [`ValTy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Base {
    /// `void` under the stars (`void *` is `Ptr { depth: 1, base: Void }`).
    Void,
    /// An integer type of the LP64 lattice.
    Int(IntTy),
    /// A pointee the lattice cannot name: `&a` of an array `a` (a
    /// pointer to an array), `&` of an untyped operand, or the merge of
    /// two different pointer types. Such a pointer still has a size, but
    /// nothing is known about what it points to.
    Unknown,
}

/// The static type of an expression's value, recorded once per
/// expression by the resolver and read through [`TranslationUnit::ty`].
///
/// A term's type is fixed by its syntax even when evaluating it would be
/// undefined or it is never evaluated (the operand of `sizeof`,
/// §6.5.3.4:2, or the unchosen arm of `?:`, §6.5.15:5), so every phase —
/// constant folding, both execution engines, the compiler and the
/// translation-phase analyzer — reads the same answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValTy {
    /// An integer type of the LP64 lattice.
    Int(IntTy),
    /// A pointer of the given depth over the given base.
    Ptr {
        /// Number of `*`s (at least 1).
        depth: u8,
        /// The type at the bottom of the chain.
        base: Base,
    },
    /// An array designator before its decay (§6.3.2.1:3), which only the
    /// operand of `sizeof` observes. The element type is `depth` pointers
    /// over `base` (depth 0: the base itself).
    Array {
        /// Pointer depth of the element type.
        depth: u8,
        /// The element type's base.
        base: Base,
        /// Element count when the size is an integer constant expression
        /// with a positive value below 2^32; `None` for a variable length
        /// array, whose length only the live object knows, and for an
        /// invalid or oversized constant (no such object is ever created:
        /// it stops at its declaration).
        len: Option<NonZeroU32>,
    },
    /// The (nonexistent) value of a `void` expression.
    Void,
    /// Outside the typed fragment: undeclared names, constraint
    /// violations, operands the lattice cannot express.
    Unknown,
}

impl ValTy {
    /// The value type of a declared type.
    pub fn of(ty: &Ty) -> ValTy {
        match ty {
            Ty::Int(t) => ValTy::Int(*t),
            Ty::Void => ValTy::Void,
            Ty::Ptr(_) => ValTy::Ptr {
                depth: ty.ptr_depth(),
                base: match ty.base() {
                    Ty::Int(t) => Base::Int(*t),
                    _ => Base::Void,
                },
            },
        }
    }

    /// An array of `elem` with `len` elements (see [`ValTy::Array`]).
    pub fn array(elem: &Ty, len: Option<NonZeroU32>) -> ValTy {
        let (depth, base) = match ValTy::of(elem) {
            ValTy::Ptr { depth, base } => (depth, base),
            ValTy::Int(t) => (0, Base::Int(t)),
            _ => (0, Base::Void),
        };
        ValTy::Array { depth, base, len }
    }

    /// Array-to-pointer decay (§6.3.2.1:3): what the value is in every
    /// context except as the operand of `sizeof` or `&`.
    pub fn decay(self) -> ValTy {
        match self {
            ValTy::Array { depth, base, .. } => ValTy::Ptr {
                depth: depth.saturating_add(1),
                base,
            },
            other => other,
        }
    }

    /// `sizeof` of this type in bytes on the LP64 target; `None` when it
    /// is not a translation-time constant: `void`, an unknown type, or an
    /// array without a constant length.
    pub fn size_bytes(self) -> Option<u64> {
        match self {
            ValTy::Int(t) => Some(t.size_bytes()),
            ValTy::Ptr { .. } => Some(PTR_BYTES),
            ValTy::Array { depth, base, len } => {
                let elem = match (depth, base) {
                    (0, Base::Int(t)) => t.size_bytes(),
                    (0, _) => return None,
                    _ => PTR_BYTES,
                };
                Some(u64::from(len?.get()) * elem)
            }
            ValTy::Void | ValTy::Unknown => None,
        }
    }
}

/// Type qualifiers attached to a declaration (C11 §6.7.3).
///
/// The evaluator is dynamically typed and ignores `volatile`; `const`
/// participates in both the static checker (assignment to a
/// `const`-qualified object) and the evaluator (writes through any lvalue
/// to an object *defined* const, §6.7.3:6), and `restrict` is only
/// meaningful on pointer types (§6.7.3:2 — the analyzer rejects the rest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Quals {
    /// `const` appeared among the qualifiers.
    pub is_const: bool,
    /// `volatile` appeared among the qualifiers.
    pub is_volatile: bool,
    /// `restrict` appeared among the qualifiers.
    pub is_restrict: bool,
}

impl Quals {
    /// Whether any qualifier is present.
    pub fn any(self) -> bool {
        self.is_const || self.is_volatile || self.is_restrict
    }

    /// Union of two qualifier sets.
    pub fn merge(self, other: Quals) -> Quals {
        Quals {
            is_const: self.is_const || other.is_const,
            is_volatile: self.is_volatile || other.is_volatile,
            is_restrict: self.is_restrict || other.is_restrict,
        }
    }
}

/// A unary operator (C11 §6.5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Arithmetic negation `-e`.
    Neg,
    /// Logical negation `!e`.
    Not,
    /// Bitwise complement `~e`.
    BitNot,
}

/// A binary arithmetic, shift, relational, or bitwise operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&`
    BitAnd,
    /// `^`
    BitXor,
    /// `|`
    BitOr,
}

/// An expression together with the source position of its operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expr {
    /// What the expression is.
    pub kind: ExprKind,
    /// Position of the principal token, for diagnostics.
    pub loc: SourceLoc,
}

/// The shape of an expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExprKind {
    /// Integer or character constant, typed by the lexer (§6.4.4.1).
    IntLit(CInt),
    /// Identifier reference that the resolution pass could not bind to a
    /// declaration. Evaluating it reports an undeclared identifier — at
    /// runtime, so unreached dead code stays unreported, exactly as
    /// before slot resolution.
    Ident(Symbol),
    /// Identifier reference bound to a frame-relative slot by the
    /// resolution pass. The [`Symbol`] keeps the original spelling for
    /// diagnostics.
    Slot(SlotId, Symbol),
    /// Unary operator application.
    Unary(UnaryOp, ExprId),
    /// Binary operator application; both operands are unsequenced (§6.5:2).
    Binary(BinOp, ExprId, ExprId),
    /// Short-circuit `&&` with its sequence point (§6.5.13:4).
    LogicalAnd(ExprId, ExprId),
    /// Short-circuit `||` with its sequence point (§6.5.14:4).
    LogicalOr(ExprId, ExprId),
    /// `c ? t : f` with a sequence point after `c` (§6.5.15:4).
    Conditional(ExprId, ExprId, ExprId),
    /// Simple (`None`) or compound (`Some(op)`) assignment.
    Assign(ExprId, Option<BinOp>, ExprId),
    /// Prefix `++`/`--`; the `i64` is +1 or -1.
    PreIncDec(ExprId, i64),
    /// Postfix `++`/`--`; the `i64` is +1 or -1.
    PostIncDec(ExprId, i64),
    /// Pointer dereference `*e`.
    Deref(ExprId),
    /// Address-of `&e`.
    AddrOf(ExprId),
    /// Array subscript `a[i]`, identical to `*(a + i)` (§6.5.2.1:2).
    Index(ExprId, ExprId),
    /// Function call; argument evaluations are unsequenced (§6.5.2.2:10).
    Call(Symbol, Vec<ExprId>),
    /// Comma operator with its sequence point (§6.5.17:2).
    Comma(ExprId, ExprId),
    /// `sizeof ( type-name )` (§6.5.3.4) — a constant of type `size_t`
    /// (`unsigned long` on LP64).
    SizeofType(Ty),
    /// `sizeof unary-expression` (§6.5.3.4). The operand is *not*
    /// evaluated: its size comes from the operand's [`ValTy`], except
    /// that a variable length array's length is read off the live
    /// object (evaluating a bare designator has no effect).
    SizeofExpr(ExprId),
    /// A cast `( type-name ) expr` (§6.5.4): conversion to an integer
    /// type, reinterpretation of a pointer's pointee type (the
    /// byte-addressable memory model's entry point for §6.5:7 effective
    /// types and §6.3.2.3:7 alignment), or a value-discarding `(void)`.
    Cast(Ty, ExprId),
}

/// A frame-relative variable slot assigned by the resolution pass.
///
/// At runtime each call frame owns a dense array of objects indexed by
/// slot, so a variable reference is a single array load instead of a
/// scan of scope name lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotId(pub(crate) u32);

impl SlotId {
    /// The slot index within its function's frame.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One declaration: `int x;`, `int x = e;`, `int a[N];`, `int *p;`, …
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decl {
    /// Declared identifier.
    pub name: Symbol,
    /// Element (or scalar) type.
    pub ty: Ty,
    /// For arrays, the size expression (possibly a VLA size).
    pub array_size: Option<ExprId>,
    /// Scalar initializer, if any.
    pub init: Option<ExprId>,
    /// Brace-enclosed array initializer, if any.
    pub array_init: Option<Vec<ExprId>>,
    /// Qualifiers on the declared object's (outermost) type: the last
    /// `*`'s qualifiers for a pointer declarator, the base specifier's
    /// otherwise. `int * const p` has a const *pointer*; `const int x`
    /// has a const `int`.
    pub quals: Quals,
    /// `restrict` appeared qualifying the non-pointer base type of a
    /// pointer declarator (`restrict int *p`) — always a violation of
    /// §6.7.3:2, which only admits restrict on pointer-to-object types.
    pub base_restrict: bool,
    /// Position of the declared identifier.
    pub loc: SourceLoc,
    /// Frame slot assigned by the resolution pass.
    pub slot: SlotId,
    /// Whether the size expression is an integer constant expression
    /// (§6.6:6), precomputed by the resolver: selects the static
    /// (`ArraySizeNotPositive`) vs. VLA (`VlaSizeNotPositive`) form of
    /// the non-positive-size defect without re-walking the tree.
    pub const_size: bool,
    /// Set by the resolver when this declaration redeclares a name
    /// already declared in the same scope: the slot of the previous
    /// declaration. Executing it is reported as a checker limitation
    /// (the subset has no linkage rules to make redeclaration
    /// meaningful).
    pub redeclares: Option<SlotId>,
}

/// What a frame slot was declared as, recorded by the resolver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotTy {
    /// The identifier the slot was declared with, for diagnostics that
    /// name the object.
    pub name: Symbol,
    /// The declared type: a scalar, pointer or `void` object, or an
    /// undecayed [`ValTy::Array`].
    pub ty: ValTy,
    /// Declared with a `const`-qualified type (§6.7.3:6).
    pub is_const: bool,
}

/// A statement in the subset of C11 §6.8.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// Local declaration.
    Decl(Decl),
    /// Expression statement; its end is a full-expression boundary.
    Expr(ExprId),
    /// `if`/`else`.
    If(ExprId, StmtId, Option<StmtId>),
    /// `while` loop.
    While(ExprId, StmtId),
    /// `for` loop; all three header slots are optional.
    For(Option<StmtId>, Option<ExprId>, Option<ExprId>, StmtId),
    /// `return` with optional value; the location is the keyword's.
    Return(Option<ExprId>, SourceLoc),
    /// `break;`
    Break(SourceLoc),
    /// `continue;`
    Continue(SourceLoc),
    /// Compound statement; entering opens a scope, leaving ends the
    /// lifetimes of the objects declared inside (§6.2.4:6). The location
    /// is the opening brace's.
    Block(Vec<StmtId>, SourceLoc),
    /// `switch` statement (§6.8.4.2); the location is the keyword's, and
    /// the index selects its case table in [`TranslationUnit::switches`].
    Switch(ExprId, StmtId, SourceLoc, u32),
    /// `case e: stmt` label inside a `switch`; the expression must be an
    /// integer constant expression (§6.8.4.2:3). The location is the
    /// keyword's.
    Case(ExprId, StmtId, SourceLoc),
    /// `default: stmt` label inside a `switch`; the location is the
    /// keyword's.
    Default(StmtId, SourceLoc),
    /// `name: stmt` — an ordinary label (§6.8.1); the location is the
    /// label identifier's.
    Label(Symbol, StmtId, SourceLoc),
    /// `goto name;` (§6.8.6.1). Parsed and statically checked (label
    /// existence, duplicate labels, jumps into variably-modified scope);
    /// *executing* one is outside the modeled semantics.
    Goto(Symbol, SourceLoc),
    /// The empty statement `;`; the location is the semicolon's.
    Empty(SourceLoc),
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Parameter name.
    pub name: Symbol,
    /// Parameter type.
    pub ty: Ty,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Function name.
    pub name: Symbol,
    /// Parameters in declaration order (empty for `(void)`).
    pub params: Vec<Param>,
    /// Whether the return type is `void`.
    pub returns_void: bool,
    /// Pointer depth of the return type (`int *f(void)` has 1). Zero for
    /// plain `int` and for `void`.
    pub ret_ptr: u8,
    /// Scalar base of the return type (`long f(void)` has [`IntTy::Long`];
    /// also the pointee base for pointer returns). [`IntTy::Int`] for
    /// `void` functions, where it is meaningless.
    pub ret_scalar: IntTy,
    /// Whether the definition carries the `static` storage-class
    /// specifier (internal linkage, §6.2.2:3).
    pub is_static: bool,
    /// Qualifiers written *after* the parameter list (`int f(void)
    /// const`). C's grammar has no place for them; accepting them lets
    /// the analyzer diagnose the qualified function type (§6.7.3:9)
    /// instead of bailing with a parse error.
    pub fn_quals: Quals,
    /// Body statements.
    pub body: Vec<StmtId>,
    /// Position of the function name in its definition.
    pub loc: SourceLoc,
    /// The spelling and declared type of every frame slot (parameters
    /// first, then declarations), filled by the resolution pass; its
    /// length is the frame size.
    pub slots: Vec<SlotTy>,
    /// Labels defined in the body (`name: …`), in source order, collected
    /// by the resolution pass for the translation-phase analyzer.
    pub labels: Vec<(Symbol, SourceLoc)>,
    /// `goto` targets appearing in the body, in source order, collected
    /// by the resolution pass for the translation-phase analyzer and the
    /// compiler.
    pub gotos: Vec<(Symbol, SourceLoc)>,
}

/// A parsed translation unit: a sequence of function definitions plus
/// the arenas and symbol table all of its nodes live in.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TranslationUnit {
    /// The functions, in source order.
    pub functions: Vec<Function>,
    /// Expression arena; [`ExprId`]s index into it.
    pub exprs: Vec<Expr>,
    /// Statement arena; [`StmtId`]s index into it.
    pub stmts: Vec<Stmt>,
    /// Identifier table for the whole unit.
    pub interner: Interner,
    /// `symbol index -> function index`, built by the resolution pass;
    /// makes call-target lookup O(1) instead of a name scan per call.
    pub func_by_symbol: Vec<Option<u32>>,
    /// The value type of every expression, parallel to `exprs`; filled
    /// by the resolution pass and read through [`TranslationUnit::ty`].
    pub types: Vec<ValTy>,
    /// One case table per `switch`, indexed by [`Stmt::Switch`]'s last
    /// field; allocated by the parser, filled by the resolution pass.
    pub switches: Vec<SwitchTable>,
}

/// What a `case`/`default` label on a switch body's top-level label
/// chains selects on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaseArm {
    /// `case e:` with `e` folded once (§6.8.4.2:3): its constant, or why
    /// it has none — reported only if a dispatch reaches the label.
    Case(Result<CInt, ConstStop>),
    /// `default:`.
    Default,
}

/// The dispatch table of one `switch` (§6.8.4.2), shared by both
/// engines: the labels a controlling value can select, in scan order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SwitchTable {
    /// Each `case`/`default` on the top-level label chains, with the
    /// body item it enters (always 0 for a non-block body).
    pub arms: Vec<(CaseArm, u32)>,
    /// Where dispatch stops when no top-level `case` matches but a label
    /// hides deeper in the body (Duff-style), which the engines do not
    /// model: the `switch` keyword for a block body, the chain's
    /// terminal statement otherwise.
    pub nested_case: Option<SourceLoc>,
}

impl Function {
    /// The value type of a call to this function (§6.5.2.2:5).
    pub fn ret_ty(&self) -> ValTy {
        let base = if self.returns_void {
            Base::Void
        } else {
            Base::Int(self.ret_scalar)
        };
        match (self.ret_ptr, base) {
            (0, Base::Int(t)) => ValTy::Int(t),
            (0, _) => ValTy::Void,
            (depth, base) => ValTy::Ptr { depth, base },
        }
    }
}

impl TranslationUnit {
    /// The static type of an expression's value, as the resolver recorded
    /// it; [`ValTy::Unknown`] for a unit that was never resolved.
    #[inline]
    pub fn ty(&self, id: ExprId) -> ValTy {
        self.types
            .get(id.0 as usize)
            .copied()
            .unwrap_or(ValTy::Unknown)
    }

    /// The expression behind an id.
    #[inline]
    pub fn expr(&self, id: ExprId) -> &Expr {
        &self.exprs[id.0 as usize]
    }

    /// The statement behind an id.
    #[inline]
    pub fn stmt(&self, id: StmtId) -> &Stmt {
        &self.stmts[id.0 as usize]
    }

    /// Append an expression to the arena.
    pub fn push_expr(&mut self, e: Expr) -> ExprId {
        let id = u32::try_from(self.exprs.len()).expect("fewer than 2^32 expressions");
        self.exprs.push(e);
        ExprId(id)
    }

    /// Append a statement to the arena.
    pub fn push_stmt(&mut self, s: Stmt) -> StmtId {
        let id = u32::try_from(self.stmts.len()).expect("fewer than 2^32 statements");
        self.stmts.push(s);
        StmtId(id)
    }

    /// Look up a function by interned name.
    pub fn function(&self, name: Symbol) -> Option<&Function> {
        self.function_index(name)
            .map(|i| &self.functions[i as usize])
    }

    /// The index in [`TranslationUnit::functions`] that a call to `name`
    /// reaches.
    pub(crate) fn function_index(&self, name: Symbol) -> Option<u32> {
        self.func_by_symbol.get(name.index()).copied().flatten()
    }

    /// Look up a function by spelling (convenience for tests and tools).
    pub fn function_named(&self, name: &str) -> Option<&Function> {
        self.functions
            .iter()
            .find(|f| self.interner.resolve(f.name) == name)
    }

    /// The spelling of a function's name.
    pub fn name_of(&self, f: &Function) -> &str {
        self.interner.resolve(f.name)
    }
}
