//! The evaluation engine: runs the AST and detects undefined behavior.
//!
//! The interpreter executes a translation unit starting from `main`,
//! maintaining exactly the state the paper's negative semantics needs to
//! get *stuck* on undefined programs:
//!
//! - **sequencing footprints** (§6.5:2) — every expression evaluation
//!   records the scalar reads and writes it performs into a shared
//!   footprint arena; at each unsequenced combination point (binary
//!   operands, call arguments) the two operand ranges are checked for
//!   conflicts, raising [`UbKind::UnsequencedSideEffect`];
//! - **object lifetimes** (§6.2.4) — block exit and `free` end lifetimes,
//!   so later uses of dangling pointers raise
//!   [`UbKind::DeadObjectAccess`], and bad `free`s raise the
//!   [`UbKind::FreeNonHeapPointer`] family;
//! - **initialization state** (§6.2.4:6) — every byte starts
//!   indeterminate, and a read touching one raises
//!   [`UbKind::ReadIndeterminate`];
//! - **value ranges** (§6.5:5) — every scalar is a typed [`CInt`] of the
//!   LP64 lattice in [`crate::ctype`]; arithmetic promotes and converts
//!   per §6.3.1 and is range-checked *at the operands' converted type*,
//!   raising [`UbKind::SignedOverflow`], [`UbKind::DivisionByZero`], and
//!   the per-width shift family — while unsigned wraparound evaluates as
//!   the defined behavior it is, and implementation-defined narrowing
//!   conversions are recorded as notes ([`Interp::notes`]), never
//!   verdicts;
//! - **bounds** (§6.5.6:8) — pointers carry their provenance (object and
//!   offset), so out-of-bounds arithmetic and accesses are caught exactly.
//!
//! Memory is **byte-addressable**, as in the paper's model: an object is
//! a byte array with a per-byte initialization bitmap and a
//! declared/effective element type; a [`Pointer`] is `(object, byte
//! offset, pointee type)`. A typed load or store moves `sizeof(T)`
//! little-endian bytes, pointer arithmetic scales by the pointee size
//! (§6.5.6:8 at byte granularity, one past the end preserved), and
//! `malloc(n)` allocates `n` **bytes** — `sizeof` and the allocator
//! finally agree. This makes the representation-level defects decidable:
//! a pointer conversion that misaligns its pointee raises
//! [`UbKind::MisalignedAccess`] (§6.3.2.3:7), a non-character access
//! through an lvalue incompatible with the object's declared (or, for
//! heap memory, store-imprinted effective) type raises
//! [`UbKind::AccessWrongEffectiveType`] (§6.5:7) — while `char`/`unsigned
//! char` lvalues may sweep any object's representation — and a read
//! touching *any* indeterminate byte raises
//! [`UbKind::ReadIndeterminate`], byte-precise for partially-initialized
//! wide objects. Stored pointers keep their provenance: they live in
//! per-object pointer slots rather than as numeric bytes, so examining a
//! pointer's representation bytewise is an engine limit, not a guess.
//! Effects inside a called function are treated as indeterminately
//! sequenced with respect to the caller's expression (C11 §6.5.2.2:10),
//! so they are not added to the caller's footprint.
//!
//! # Execution-core layout
//!
//! The engine is slot-resolved and allocation-free on its hot paths:
//!
//! - variable references were bound to frame-relative slots by
//!   [`crate::resolve`], so a lookup is `slots[frame.slot_base + slot]` —
//!   one array load, no name scan;
//! - frames share one `slots` stack and one `created`-objects stack
//!   (marks delimit each frame/block), so calls and blocks push no
//!   per-entry vectors;
//! - sequencing footprints live in one shared arena; full expressions
//!   truncate back to their mark at each sequence point;
//! - diagnostics borrow identifier spellings from the unit's interner and
//!   only allocate when an error report is actually built (the cold
//!   path).

use crate::ast::{
    BinOp, CaseArm, Decl, ExprId, ExprKind, Stmt, StmtId, SwitchTable, TranslationUnit, Ty,
    UnaryOp, ValTy,
};
use crate::bytecode::CodeUnit;
use crate::compile::{compile, CompiledUnit};
use crate::consteval::{self, ConstStop};
use crate::ctype::{CInt, IntTy, PTR_BYTES, SIZE_T};
use crate::intern::{kw, Symbol};
use crate::profile::ExecProfile;
use cundef_ub::{SourceLoc, UbError, UbKind};
use std::borrow::Cow;
use std::rc::Rc;

mod vm;

/// Every [`UbKind`] this evaluator can raise, in code order.
///
/// This is the evaluator's side of the workspace's detector registry: the
/// catalog's `detected_by` links are checked (by the analysis crate's
/// invariant tests) against this list and the static analyzer's, so a
/// link can never point at a detector that does not exist. A unit test
/// greps this file to keep the list honest in both directions.
pub fn detected_kinds() -> &'static [UbKind] {
    use UbKind::*;
    &[
        DivisionByZero,
        ModuloByZero,
        SignedOverflow,
        DivisionOverflow,
        ShiftByNegative,
        ShiftTooFar,
        ShiftOfNegative,
        ShiftOverflow,
        UnsequencedSideEffect,
        NullDereference,
        DeadObjectAccess,
        OutOfBoundsRead,
        OutOfBoundsWrite,
        PointerArithmeticOutOfBounds,
        PointerSubtractionDifferentObjects,
        PointerCompareDifferentObjects,
        ReadIndeterminate,
        MisalignedAccess,
        WriteToConst,
        AccessWrongEffectiveType,
        FreeNonHeapPointer,
        FreeInteriorPointer,
        DoubleFree,
        CallWrongArity,
        MissingReturnValueUsed,
        CallNonFunction,
        InvalidLibraryArgument,
        ArraySizeNotPositive,
        VlaSizeNotPositive,
        VoidValueUsed,
        ReturnWithoutValue,
        NonConstantCaseLabel,
        IncompleteTypeObject,
    ]
}

/// Resource bounds for one execution, so that the checker terminates on
/// looping inputs without claiming anything about them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum number of evaluation steps (statements + expression nodes).
    pub max_steps: u64,
    /// Maximum call depth.
    pub max_call_depth: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_steps: 2_000_000,
            max_call_depth: 256,
        }
    }
}

/// Which execution engine [`Interp::run_main`] drives.
///
/// Both engines share the memory/object core (typed loads and stores,
/// lifetimes, footprints, conversions), so every diagnostic — kind,
/// position, detail text, notes — is identical between them; the
/// tree-walker is the reference semantics and the bytecode engine is the
/// fast path, checked against it by the engine-parity suite and the
/// differential fuzzer's fourth oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Walk the AST directly — the reference interpreter.
    Tree,
    /// Lower each function to flat bytecode once, then dispatch over the
    /// instruction stream (with tree fallback ops for constructs whose
    /// diagnostics need the full footprint machinery).
    #[default]
    Bytecode,
}

/// The type a pointer accesses memory through — its pointee.
///
/// This is what gives an access its *size* and *alignment* in the
/// byte-addressable model, and what the §6.5:7 effective-type check
/// compares against the accessed object's element type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointeeTy {
    /// Pointer to an integer object: accesses move `sizeof(T)` bytes.
    Scalar(IntTy),
    /// Pointer to a pointer object: accesses move 8-byte pointer values.
    Ptr,
    /// `void *`: address-only; sizeless, so access and arithmetic
    /// through it are rejected.
    Void,
}

impl PointeeTy {
    /// Access size in bytes; `None` for the sizeless `void`.
    #[inline]
    fn size(self) -> Option<u64> {
        match self {
            PointeeTy::Scalar(t) => Some(t.size_bytes()),
            PointeeTy::Ptr => Some(PTR_BYTES),
            PointeeTy::Void => None,
        }
    }

    /// Alignment the pointee requires (§6.3.2.3:7). `void *` (like the
    /// character pointers) is 1: any address converts to it.
    #[inline]
    fn align(self) -> i64 {
        match self {
            PointeeTy::Scalar(t) => t.align_of() as i64,
            PointeeTy::Ptr => crate::ctype::PTR_ALIGN as i64,
            PointeeTy::Void => 1,
        }
    }

    /// Whether this is a character type — the §6.5:7 escape hatch that
    /// may alias any object's representation.
    #[inline]
    fn is_char(self) -> bool {
        matches!(self, PointeeTy::Scalar(IntTy::Char | IntTy::UChar))
    }

    /// Spelling for diagnostics.
    fn name(self) -> &'static str {
        match self {
            PointeeTy::Scalar(t) => t.name(),
            PointeeTy::Ptr => "pointer",
            PointeeTy::Void => "void",
        }
    }
}

/// A pointer value: an object identity, a **byte** offset, and the
/// pointee type the pointer accesses memory through.
///
/// Pointers carry provenance, never raw addresses, which is what lets the
/// engine decide §6.5.6:8 (bounds), §6.5.6:9 (same-object subtraction),
/// and §6.2.4 (lifetime) questions exactly; the pointee type is what
/// makes §6.3.2.3:7 (alignment) and §6.5:7 (effective types) decidable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pointer {
    /// Index of the pointed-to object in the interpreter's object table.
    pub obj: usize,
    /// Byte offset within (or one past the end of) the object.
    pub off: i64,
    /// The type this pointer reads and writes through.
    pub ty: PointeeTy,
}

impl Pointer {
    /// Whether two pointer values compare equal (§6.5.9:6): same object,
    /// same byte address — the pointee type does not participate
    /// (`(char *)&x == (void *)&x`).
    #[inline]
    fn same_address(self, other: Pointer) -> bool {
        self.obj == other.obj && self.off == other.off
    }
}

/// A runtime value in the subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value {
    /// A typed integer value of the LP64 lattice ([`CInt`] carries both
    /// the two's-complement bits and the C type, so every arithmetic
    /// operation promotes and converts at the right width).
    Int(CInt),
    /// A pointer with provenance.
    Ptr(Pointer),
    /// A value that does not exist: the result of a function that fell
    /// off its end (§6.9.1:12) or of a `void` function. Consuming it
    /// reports the carried [`UbKind`].
    Missing(UbKind),
}

/// The result of one checked execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The program ran to completion and returned this exit value.
    Completed(i64),
    /// Execution ran into undefined behavior.
    Undefined(UbError),
    /// The checker gave up (resource limit or construct outside the
    /// modeled semantics). This says nothing about the program.
    Unsupported {
        /// What the engine could not handle.
        message: String,
        /// Where it stopped.
        loc: SourceLoc,
    },
}

impl Outcome {
    /// The undefined-behavior report, if this outcome is one.
    pub fn ub(&self) -> Option<&UbError> {
        match self {
            Outcome::Undefined(e) => Some(e),
            _ => None,
        }
    }

    /// The exit value, if the program completed.
    pub fn exit_code(&self) -> Option<i64> {
        match self {
            Outcome::Completed(v) => Some(*v),
            _ => None,
        }
    }
}

/// Sentinel in the slot stack for "declaration not yet executed".
const SLOT_NONE: usize = usize::MAX;

// ----- epoch-tagged object references -----
//
// An object reference packs a slab slot index (low 32 bits) with the
// slot's generation (high 32 bits). Retired objects stay in place —
// diagnostics about the common un-recycled dangling pointer read the
// dead object directly — until `alloc` recycles their slot for a new
// object, bumping the slot's epoch. A stale reference then misses on
// the epoch compare (O(1) "this object is dead") and resolves through
// the tombstone record of its original occupant, so dangling-pointer
// reports keep the original name even after the storage was reused.
// The packing assumes 64-bit `usize`, like the LP64 target the engine
// models.

/// Slab slot index of a packed object reference.
#[inline]
fn obj_slot(r: usize) -> usize {
    r & 0xFFFF_FFFF
}

/// Generation tag of a packed object reference.
#[inline]
fn obj_epoch(r: usize) -> u32 {
    (r >> 32) as u32
}

/// Pack a slab slot and its current epoch into an object reference.
#[inline]
fn obj_ref(slot: usize, epoch: u32) -> usize {
    slot | ((epoch as usize) << 32)
}

/// The previous occupant of a recycled slab slot: everything a stale
/// reference can still legitimately ask about. Accesses are dead on
/// arrival (epoch mismatch), but the *diagnostic* must name the
/// original object, an array designator must still decay, and `sizeof`
/// must still see the original extent.
struct Tombstone {
    slot: u32,
    epoch: u32,
    name: ObjName,
    heap: bool,
    is_array: bool,
    elem: Elem,
    size: u32,
}

/// Memory budget for one object, in bytes. With 64-bit sizes a program
/// can ask for absurd allocations (`long n = 1L << 40; int a[n];`); the
/// checker gives up rather than trying to model them.
const MAX_BYTES: i128 = 1 << 26;

/// Memory budget for all live objects together, heap and automatic, in
/// bytes: leaked allocations, or arrays in a deep recursion, under
/// [`MAX_BYTES`] each must not add up to exhausting the host. A
/// constant, not a [`Limits`] field — no configuration should let a
/// checked program take the process down.
const MAX_HEAP_BYTES: i128 = 4 * MAX_BYTES;

/// Why evaluation stopped early (internal control flow).
enum Stop {
    Ub(UbError),
    Unsupported(String, SourceLoc),
}

/// Errors travel boxed: `Stop` is ~10 words of report text, and an
/// unboxed error variant would widen every `Result` the evaluator
/// returns — a memcpy per expression node on the hot path.
type EResult<T> = Result<T, Box<Stop>>;

/// Cold-path constructor for engine-limitation stops.
#[cold]
fn stop_unsupported(message: impl Into<String>, loc: SourceLoc) -> Box<Stop> {
    Box::new(Stop::Unsupported(message.into(), loc))
}

/// Statement-level control flow.
enum Flow {
    Normal,
    Break,
    Continue,
    /// A `return`, carrying the value and the statement's position so
    /// reports about the returned value can point at the `return` itself.
    Return(Value, SourceLoc),
    /// A `goto` in flight: it unwinds enclosing statements (ending block
    /// lifetimes on the way out, §6.2.4:6) until it reaches a block that
    /// contains the target label, which re-enters at the label.
    Goto(Symbol, SourceLoc),
}

/// One byte-range access performed during an expression evaluation,
/// recorded in the shared footprint arena — packed into one word so
/// footprint pushes are a single store: the write flag in bit 0, the
/// log2 of the access size (1/2/4/8 bytes) in bits 1..=2, the byte
/// offset in bits 3..=30 (offsets are bounded by [`MAX_BYTES`]), and the
/// object index in the high bits. The §6.5:2 conflict test is a
/// same-object check plus a byte-range overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Access(u64);

impl Access {
    /// `obj` is the *slab slot* of the accessed object, not a packed
    /// epoch reference: footprints live only within one full
    /// expression, and `alloc` refuses to recycle any slot present in
    /// the live footprint, so a slot identifies its object unambiguously
    /// for the lifetime of every entry.
    #[inline]
    fn new(obj: usize, off: i64, size: u64, write: bool) -> Access {
        debug_assert!(size.is_power_of_two() && size <= 8);
        Access(
            ((obj as u64) << 31)
                | ((off as u64) << 3)
                | ((size.trailing_zeros() as u64) << 1)
                | write as u64,
        )
    }

    /// The accessed object, for diagnostics.
    #[inline]
    fn obj(self) -> usize {
        (self.0 >> 31) as usize
    }

    /// Byte offset of the access within its object.
    #[inline]
    fn off(self) -> u64 {
        (self.0 >> 3) & 0x0FFF_FFFF
    }

    /// Access size in bytes.
    #[inline]
    fn size(self) -> u64 {
        1 << ((self.0 >> 1) & 3)
    }

    #[inline]
    fn is_write(self) -> bool {
        self.0 & 1 != 0
    }

    /// Whether two accesses touch overlapping bytes of the same object —
    /// the byte-granular "same scalar object" test of §6.5:2 (a `char`
    /// store into one byte of an `int` conflicts with the `int` access).
    #[inline]
    fn overlaps(self, other: Access) -> bool {
        (self.0 ^ other.0) >> 31 == 0
            && self.off() < other.off() + other.size()
            && other.off() < self.off() + self.size()
    }
}

/// The byte storage of one object: data plus a per-byte initialization
/// bitmap. A dedicated inline variant for objects of at most 8 bytes
/// (every scalar) avoids a heap allocation per declaration and lets
/// whole-object loads/stores run on a single word.
enum Bytes {
    /// Objects of at most 8 bytes: one little-endian data word and a
    /// byte of per-byte init bits.
    Small { data: [u8; 8], init: u8, len: u8 },
    /// Larger objects: heap storage with a u64-chunked init bitmap.
    Big { data: Vec<u8>, init: Vec<u64> },
}

impl Bytes {
    fn new(len: usize) -> Bytes {
        if len <= 8 {
            Bytes::Small {
                data: [0; 8],
                init: 0,
                len: len as u8,
            }
        } else {
            Bytes::Big {
                data: vec![0; len],
                init: vec![0; len.div_ceil(64)],
            }
        }
    }

    /// Object size in bytes.
    #[inline]
    fn len(&self) -> usize {
        match self {
            Bytes::Small { len, .. } => *len as usize,
            Bytes::Big { data, .. } => data.len(),
        }
    }

    /// Reinitialize this storage for a recycled object of `len` bytes:
    /// all bytes zero, all init bits clear. A `Big` reused as `Big`
    /// keeps both vector allocations — the point of slab recycling.
    fn reset(&mut self, len: usize) {
        match self {
            Bytes::Big { data, init } if len > 8 => {
                data.clear();
                data.resize(len, 0);
                init.clear();
                init.resize(len.div_ceil(64), 0);
            }
            _ => *self = Bytes::new(len),
        }
    }

    /// Whether every byte of `[off, off + n)` is initialized (n ≤ 8).
    #[inline]
    fn all_init(&self, off: usize, n: usize) -> bool {
        match self {
            Bytes::Small { init, .. } => {
                let m = (((1u16 << n) - 1) as u8) << off;
                init & m == m
            }
            Bytes::Big { init, .. } => (off..off + n).all(|i| init[i / 64] >> (i % 64) & 1 == 1),
        }
    }

    /// Whether any byte of `[off, off + n)` is initialized — used to
    /// keep the wholly-indeterminate diagnostic distinct from the
    /// byte-precise partial one.
    fn any_init(&self, off: usize, n: usize) -> bool {
        (off..off + n).any(|i| self.all_init(i, 1))
    }

    /// First uninitialized byte offset in `[off, off + n)`.
    fn first_uninit(&self, off: usize, n: usize) -> Option<usize> {
        (off..off + n).find(|&i| !self.all_init(i, 1))
    }

    /// Mark `[off, off + n)` initialized. `Small` objects are at most 8
    /// bytes, so the mask arm never sees `n > 8`; `Big` runs may be any
    /// length (array zero-fill).
    #[inline]
    fn mark_init(&mut self, off: usize, n: usize) {
        if n == 0 {
            return;
        }
        match self {
            Bytes::Small { init, .. } => *init |= (((1u16 << n) - 1) as u8) << off,
            Bytes::Big { init, .. } => {
                for i in off..off + n {
                    init[i / 64] |= 1 << (i % 64);
                }
            }
        }
    }

    /// Mark `[off, off + n)` indeterminate again (a partially
    /// overwritten pointer slot loses its remaining bytes).
    fn mark_uninit(&mut self, off: usize, n: usize) {
        match self {
            Bytes::Small { init, .. } => *init &= !((((1u16 << n) - 1) as u8) << off),
            Bytes::Big { init, .. } => {
                for i in off..off + n {
                    init[i / 64] &= !(1 << (i % 64));
                }
            }
        }
    }

    /// One-shot whole-object scalar read: `Some(bits)` iff the object
    /// is exactly `n` bytes, small, and fully initialized — the three
    /// checks a slot load performs, in one discriminant test.
    #[inline]
    fn word_init(&self, n: usize) -> Option<u64> {
        if let Bytes::Small { data, init, len } = self {
            let m = ((1u16 << n) - 1) as u8;
            if *len as usize == n && init & m == m {
                let word = u64::from_le_bytes(*data);
                return Some(if n == 8 {
                    word
                } else {
                    word & ((1u64 << (n * 8)) - 1)
                });
            }
        }
        None
    }

    /// One raw data byte (fused byte sweep); bounds and initialization
    /// were checked by the caller.
    #[inline]
    fn get_byte(&self, i: usize) -> u8 {
        match self {
            Bytes::Small { data, .. } => data[i],
            Bytes::Big { data, .. } => data[i],
        }
    }

    /// Set one raw data byte without touching init bits — the fused
    /// byte sweep marks its whole range initialized at the end.
    #[inline]
    fn set_byte(&mut self, i: usize, b: u8) {
        match self {
            Bytes::Small { data, .. } => data[i] = b,
            Bytes::Big { data, .. } => data[i] = b,
        }
    }

    /// Load `n` (≤ 8) bytes at `off`, little-endian, into the low bits.
    /// Bounds and initialization were checked by the caller.
    #[inline]
    fn load(&self, off: usize, n: usize) -> u64 {
        match self {
            Bytes::Small { data, .. } => {
                let word = u64::from_le_bytes(*data) >> (off * 8);
                if n == 8 {
                    word
                } else {
                    word & ((1u64 << (n * 8)) - 1)
                }
            }
            Bytes::Big { data, .. } => {
                let mut buf = [0u8; 8];
                buf[..n].copy_from_slice(&data[off..off + n]);
                u64::from_le_bytes(buf)
            }
        }
    }

    /// Store the low `n` (≤ 8) bytes of `bits` at `off`, little-endian,
    /// marking them initialized.
    #[inline]
    fn store(&mut self, off: usize, n: usize, bits: u64) {
        match self {
            Bytes::Small { data, .. } => {
                let mask = if n == 8 {
                    u64::MAX
                } else {
                    ((1u64 << (n * 8)) - 1) << (off * 8)
                };
                let word = u64::from_le_bytes(*data);
                *data = ((word & !mask) | ((bits << (off * 8)) & mask)).to_le_bytes();
            }
            Bytes::Big { data, .. } => {
                data[off..off + n].copy_from_slice(&bits.to_le_bytes()[..n]);
            }
        }
        self.mark_init(off, n);
    }
}

/// How an object is named in diagnostics; rendered lazily so the hot
/// path never formats or clones a string.
#[derive(Clone, Copy)]
enum ObjName {
    /// A declared identifier, spelled via the unit's interner.
    Sym(Symbol),
    /// An anonymous heap allocation, shown as `heap object #<serial>`.
    /// The serial is the object's allocation-order number, assigned by
    /// [`Interp::alloc`] — identical to the slab index it would have
    /// had without recycling, so recycling never renumbers reports.
    Heap(u64),
}

/// The declared (or, for heap memory, *effective*) element type of an
/// object — the type the §6.5:7 aliasing check compares every
/// non-character access against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Elem {
    /// Elements of this integer type.
    Scalar(IntTy),
    /// Pointer elements; carries the declared pointee so pointer values
    /// stored here adopt it (the implicit conversion of assignment,
    /// §6.5.16.1 — and §6.3.2.3:7 checks alignment at that adoption).
    Ptr(PointeeTy),
    /// Heap memory with no effective type yet (§6.5:6): the next
    /// non-character store imprints its type.
    Untyped,
}

impl Elem {
    /// Element size in bytes (`Untyped` heap memory is byte-granular).
    fn size(&self) -> u64 {
        match self {
            Elem::Scalar(t) => t.size_bytes(),
            Elem::Ptr(_) => PTR_BYTES,
            Elem::Untyped => 1,
        }
    }

    /// The pointee type a designator (or decayed array) of this object
    /// accesses through.
    fn pointee(&self) -> PointeeTy {
        match self {
            Elem::Scalar(t) => PointeeTy::Scalar(*t),
            Elem::Ptr(_) => PointeeTy::Ptr,
            // Heap objects have no designators; unreachable in practice.
            Elem::Untyped => PointeeTy::Scalar(IntTy::UChar),
        }
    }

    /// Spelling for diagnostics.
    fn name(&self) -> &'static str {
        match self {
            Elem::Scalar(t) => t.name(),
            Elem::Ptr(_) => "pointer",
            Elem::Untyped => "untyped",
        }
    }
}

/// §6.5:7 — may an lvalue of type `access` touch an object whose
/// declared/effective element type is `elem`? Character-typed lvalues
/// may alias anything; otherwise the access type must be the element
/// type or its signed/unsigned counterpart, and pointer lvalues only
/// touch pointer elements.
fn access_allowed(access: PointeeTy, elem: &Elem) -> bool {
    match access {
        PointeeTy::Scalar(IntTy::Char | IntTy::UChar) => true,
        PointeeTy::Scalar(t) => match elem {
            Elem::Scalar(u) => t == *u || t.to_unsigned() == u.to_unsigned(),
            Elem::Ptr(_) => false,
            Elem::Untyped => true,
        },
        PointeeTy::Ptr => matches!(elem, Elem::Ptr(_) | Elem::Untyped),
        PointeeTy::Void => false,
    }
}

/// One memory object: a byte array with a per-byte init bitmap, a
/// lifetime, and a declared (or effective) element type.
struct Object {
    bytes: Bytes,
    /// Pointer values stored into this object through pointer lvalues,
    /// keyed by byte offset. Provenance pointers have no numeric
    /// representation, so their 8 bytes live out-of-band here; loads
    /// through pointer lvalues return them verbatim, and any scalar
    /// store overlapping a slot destroys it (the bytes outside the new
    /// store go indeterminate). Almost always empty.
    ptr_slots: Vec<(u32, Value)>,
    alive: bool,
    heap: bool,
    /// Declared element type — or, for heap objects, the effective type
    /// imprinted by the last non-character store (§6.5:6).
    elem: Elem,
    /// Whether this is an array object (its designator decays, §6.3.2.1:3).
    is_array: bool,
    /// Whether the object was *defined* with a const-qualified type:
    /// modifying it through any lvalue is UB (§6.7.3:6), not just through
    /// the declared name.
    is_const: bool,
    /// Display name for diagnostics.
    name: ObjName,
    /// Generation of this slab slot. A packed reference resolves to
    /// this object only while the epochs agree; after the slot is
    /// recycled, stale references fall through to the tombstone record.
    epoch: u32,
}

struct Frame {
    /// Index of the executing function in the unit.
    func: u32,
    /// Whether the executing function returns `void`, cached at call time
    /// so `return;` can classify itself without rescanning the unit.
    returns_void: bool,
    /// Base of this frame's region of the shared slot stack.
    slot_base: usize,
    /// Logical calls this physical frame absorbed via in-place self-tail
    /// calls; subtracted from `Interp::tail_depth` when the frame pops.
    tail_calls: u32,
}

/// One parameter's precomputed binding recipe.
#[derive(Clone, Copy)]
struct ParamPlan {
    /// The parameter's identifier, for the object's diagnostic name.
    sym: Symbol,
    /// Declared element type, derived from the AST once per function.
    elem: Elem,
    /// Object size in bytes.
    size: u32,
    /// `Some(t)` when a `Value::Int` argument can take the one-word
    /// converted store (scalar, non-`_Bool`) instead of the typed core.
    scalar_fast: Option<IntTy>,
}

/// Precomputed frame descriptor for one function: slot count and the
/// parameter recipes, so a call binds its frame with stack-pointer
/// bumps and recycled objects instead of re-deriving element types and
/// sizes from the AST on every invocation. Built once per interpreter,
/// serving both engines identically.
struct FramePlan {
    n_slots: u32,
    params: Vec<ParamPlan>,
}

/// The interpreter for one translation unit.
///
/// # Examples
///
/// ```
/// use cundef_semantics::{parser, Interp, Limits};
///
/// let unit = parser::parse("int main(void) { return 2 + 2; }").unwrap();
/// let outcome = Interp::new(&unit, Limits::default()).run_main();
/// assert_eq!(outcome.exit_code(), Some(4));
/// ```
pub struct Interp<'a> {
    unit: &'a TranslationUnit,
    limits: Limits,
    /// The object slab: live and retired objects, indexed by slot.
    /// Retired objects stay in place (their slot queued on
    /// `free_slots`) so stale pointers keep reading exact diagnostics;
    /// `alloc` recycles queued slots, bumping the epoch and recording a
    /// tombstone for the previous occupant.
    objects: Vec<Object>,
    /// Slots of retired objects available for recycling.
    free_slots: Vec<u32>,
    /// Previous occupants of recycled slots, looked up (cold, terminal
    /// diagnostics only) when a stale reference misses its epoch.
    tombstones: Vec<Tombstone>,
    /// Total `alloc` calls — the allocation-order serial for heap
    /// object names (equal to the slab index recycling would have used).
    alloc_count: u64,
    /// Bytes of every live object: `alloc` adds, the end of a lifetime
    /// (`free`, leaving a block or frame) subtracts. Checked against
    /// [`MAX_HEAP_BYTES`] wherever a program chooses a size (`malloc`,
    /// array declarations).
    live_bytes: i128,
    /// Per-function frame descriptors, indexed like `unit.functions`.
    frame_plans: Vec<FramePlan>,
    /// High-water mark of the slot stack, for the frame-pool telemetry:
    /// a call at or under the mark reuses pooled frame storage.
    slots_high_water: usize,
    frames: Vec<Frame>,
    /// Logical call depth carried by in-place self-tail calls
    /// ([`crate::bytecode::Op::TailSelf`]): each reuse deepens the
    /// logical chain without pushing a [`Frame`], so the depth limit
    /// compares `frames.len() + tail_depth`. Unwound per frame via
    /// [`Frame::tail_calls`].
    tail_depth: usize,
    /// Shared slot stack: each frame owns `slots[frame.slot_base..]` up
    /// to its function's `n_slots`. Entries are object indices or
    /// [`SLOT_NONE`].
    slots: Vec<usize>,
    /// Shared stack of automatic (non-heap) objects, for lifetime
    /// termination; frames and blocks remember their base and kill the
    /// suffix on exit.
    created: Vec<usize>,
    /// Shared footprint arena; full expressions truncate to their mark at
    /// each sequence point.
    fp: Vec<Access>,
    /// Shared argument-passing stack, so calls don't allocate a `Vec`.
    args: Vec<Value>,
    /// Implementation-defined conversion notes (§6.3.1.3:3): a narrowing
    /// conversion to a signed type that cannot represent the value is
    /// not undefined — the engine wraps two's-complement and records
    /// what it did, once per source position.
    notes: Vec<(SourceLoc, String)>,
    steps: u64,
    /// Which driver executes function bodies.
    engine: Engine,
    /// The lowered program, compiled on first use (or adopted from a
    /// caller-provided [`CompiledUnit`]).
    code: Option<Rc<CodeUnit>>,
    /// The bytecode engine's operand stack, allocated once and reused
    /// across calls (frames remember their base).
    vstack: Vec<Value>,
    /// `created`-stack marks for the bytecode engine's scope ops.
    scope_marks: Vec<usize>,
    /// Execution telemetry, collected only when enabled: the dispatch
    /// loop is monomorphized over it, so the disabled path carries no
    /// counter code.
    prof: ExecProfile,
    /// Whether [`Interp::enable_profiling`] was called.
    profile_enabled: bool,
}

impl<'a> Interp<'a> {
    /// Create an interpreter for `unit` with the given resource limits
    /// and the default engine.
    pub fn new(unit: &'a TranslationUnit, limits: Limits) -> Interp<'a> {
        Interp::with_engine(unit, limits, Engine::default())
    }

    /// Create an interpreter driving the given [`Engine`].
    pub fn with_engine(unit: &'a TranslationUnit, limits: Limits, engine: Engine) -> Interp<'a> {
        // Frame descriptors, one per function: everything `call` needs
        // that depends only on the declaration, computed once instead of
        // per call. `scalar_fast` pre-answers "can an integer argument
        // skip the typed store?" (fresh object, non-`_Bool` scalar).
        let frame_plans = unit
            .functions
            .iter()
            .map(|func| FramePlan {
                n_slots: func.slots.len() as u32,
                params: func
                    .params
                    .iter()
                    .map(|param| {
                        let elem = elem_of_ty(&param.ty);
                        let scalar_fast = match elem {
                            Elem::Scalar(t) if t != IntTy::Bool => Some(t),
                            _ => None,
                        };
                        ParamPlan {
                            sym: param.name,
                            elem,
                            size: elem.size() as u32,
                            scalar_fast,
                        }
                    })
                    .collect(),
            })
            .collect();
        Interp {
            unit,
            limits,
            objects: Vec::new(),
            free_slots: Vec::new(),
            tombstones: Vec::new(),
            alloc_count: 0,
            live_bytes: 0,
            frame_plans,
            slots_high_water: 0,
            frames: Vec::new(),
            tail_depth: 0,
            slots: Vec::new(),
            created: Vec::new(),
            fp: Vec::new(),
            args: Vec::new(),
            notes: Vec::new(),
            steps: 0,
            engine,
            code: None,
            vstack: Vec::with_capacity(64),
            scope_marks: Vec::with_capacity(16),
            prof: ExecProfile::default(),
            profile_enabled: false,
        }
    }

    /// Turn on execution telemetry for this interpreter (`--profile`).
    /// Counters accumulate across the whole run and are read back with
    /// [`Interp::profile`].
    pub fn enable_profiling(&mut self) {
        self.profile_enabled = true;
    }

    /// The collected [`ExecProfile`], if profiling was enabled (with
    /// the final step count folded in); `None` otherwise.
    pub fn profile(&self) -> Option<ExecProfile> {
        self.profile_enabled.then(|| {
            let mut p = self.prof.clone();
            p.steps = self.steps;
            p
        })
    }

    /// The implementation-defined conversion notes collected so far, in
    /// execution order: `(position, rendered description)` pairs. These
    /// are diagnostics about *defined* behavior (this implementation's
    /// §6.3.1.3:3 choice), so they ride alongside the [`Outcome`] rather
    /// than inside it.
    pub fn notes(&self) -> &[(SourceLoc, String)] {
        &self.notes
    }

    /// Execute the program from `main` and report what happened.
    /// Implementation-defined conversion notes accumulate on the
    /// interpreter and can be read through [`Interp::notes`] afterwards.
    ///
    /// Under [`Engine::Bytecode`] the unit is lowered on first use; use
    /// [`Interp::run_main_compiled`] to reuse an existing lowering.
    pub fn run_main(&mut self) -> Outcome {
        if self.engine == Engine::Bytecode && self.code.is_none() {
            self.code = Some(Rc::new(compile(self.unit)));
        }
        let Some(main_idx) = self.unit.function_index(kw::MAIN) else {
            return Outcome::Unsupported {
                message: "translation unit defines no `main` function".into(),
                loc: SourceLoc::default(),
            };
        };
        let main = &self.unit.functions[main_idx as usize];
        if !main.params.is_empty() {
            return Outcome::Unsupported {
                message: "only `int main(void)` is supported as the entry point".into(),
                loc: main.loc,
            };
        }
        let loc = main.loc;
        match self.call(main_idx, self.args.len(), loc) {
            // An explicit `return;` leaves `main` without a value, and the
            // host environment uses that value as the termination status
            // (§5.1.2.2.3:1 covers only reaching the closing `}`).
            Ok((Value::Missing(UbKind::ReturnWithoutValue), loc)) => Outcome::Undefined(
                UbError::new(UbKind::ReturnWithoutValue)
                    .at(loc)
                    .in_function("main")
                    .with_detail(
                        "`return;` in `main`, whose value the host uses as the termination status",
                    ),
            ),
            // Reaching the `}` of `main` returns 0 (C11 §5.1.2.2.3:1).
            Ok((Value::Missing(_), _)) => Outcome::Completed(0),
            // `main` returns `int`, so the math value fits an i64.
            Ok((Value::Int(v), _)) => Outcome::Completed(v.math() as i64),
            // `main` returns `int`; a pointer coming back is an ill-typed
            // program outside the modeled semantics, not an exit code.
            Ok((Value::Ptr(_), loc)) => Outcome::Unsupported {
                message: "`main` returned a pointer, but is declared to return `int`".into(),
                loc,
            },
            Err(stop) => match *stop {
                Stop::Ub(e) => Outcome::Undefined(e),
                Stop::Unsupported(message, loc) => Outcome::Unsupported { message, loc },
            },
        }
    }

    /// Execute the program from `main` through a pre-lowered
    /// [`CompiledUnit`] (which must have been produced from this
    /// interpreter's translation unit). This is the compile-vs-execute
    /// split the `exec/*` benchmarks measure; the engine is forced to
    /// [`Engine::Bytecode`].
    pub fn run_main_compiled(&mut self, compiled: &CompiledUnit) -> Outcome {
        self.engine = Engine::Bytecode;
        self.code = Some(Rc::clone(&compiled.code));
        self.run_main()
    }

    // ----- plumbing -----

    fn tick(&mut self, loc: SourceLoc) -> EResult<()> {
        self.steps += 1;
        if self.steps > self.limits.max_steps {
            return Err(stop_unsupported("evaluation step limit exceeded", loc));
        }
        Ok(())
    }

    /// Spelling of an interned identifier.
    #[inline]
    fn name(&self, sym: Symbol) -> &str {
        self.unit.interner.resolve(sym)
    }

    /// Name of the executing function, borrowed from the interner.
    fn func_name(&self) -> &str {
        self.frames
            .last()
            .map(|f| self.name(self.unit.functions[f.func as usize].name))
            .unwrap_or("")
    }

    /// Build an undefined-behavior stop. This is the cold path: only here
    /// are the function name and object names rendered into owned
    /// strings for the report.
    #[cold]
    fn ub(&self, kind: UbKind, loc: SourceLoc, detail: impl Into<String>) -> Box<Stop> {
        Box::new(Stop::Ub(
            UbError::new(kind)
                .at(loc)
                .in_function(self.func_name())
                .with_detail(detail.into()),
        ))
    }

    /// Display name of an object, borrowed for declared identifiers and
    /// formatted only for anonymous heap blocks. Stale references
    /// (recycled slot) resolve through the tombstone, so a dangling
    /// diagnostic always names the *original* object.
    fn object_name(&self, obj: usize) -> Cow<'_, str> {
        let name = match self.resolved(obj) {
            Some(o) => o.name,
            None => self.tombstone(obj).name,
        };
        match name {
            ObjName::Sym(sym) => Cow::Borrowed(self.name(sym)),
            ObjName::Heap(serial) => Cow::Owned(format!("heap object #{serial}")),
        }
    }

    /// Object bound to a resolved slot in the current frame, if its
    /// declaration has executed.
    #[inline]
    fn slot_object(&self, slot: crate::ast::SlotId) -> Option<usize> {
        let frame = self.frames.last().expect("active frame");
        match self.slots[frame.slot_base + slot.index()] {
            SLOT_NONE => None,
            obj => Some(obj),
        }
    }

    /// Allocate an object of `size` bytes, returning a packed reference
    /// (slot + current epoch). Retired slots are recycled in preference
    /// to growing the slab: the outgoing occupant leaves a [`Tombstone`]
    /// and the slot's epoch advances, so every stale reference still
    /// resolves to exact diagnostics while the byte storage is reused.
    ///
    /// A queued slot is skipped (fresh push instead) while it appears in
    /// the live footprint arena: `fp` entries carry bare slots, so
    /// recycling one mid-full-expression would both alias the epoch
    /// packing in [`Access`] and misname the access in an unsequenced
    /// diagnostic. The skipped slot stays queued for the next sequence
    /// point.
    fn alloc(
        &mut self,
        name: ObjName,
        size: usize,
        heap: bool,
        is_array: bool,
        elem: Elem,
    ) -> usize {
        // Heap blocks are named by allocation order — identical to the
        // slab index they carried before recycling existed, so the
        // rendered `heap object #N` text is unchanged.
        let name = if heap {
            ObjName::Heap(self.alloc_count)
        } else {
            name
        };
        self.alloc_count += 1;
        let recycle = match self.free_slots.last() {
            Some(&s) if !self.fp.iter().any(|a| a.obj() == s as usize) => {
                Some(self.free_slots.pop().expect("checked above") as usize)
            }
            _ => None,
        };
        let r = if let Some(slot) = recycle {
            let o = &mut self.objects[slot];
            debug_assert!(!o.alive, "recycling a live slot");
            self.tombstones.push(Tombstone {
                slot: slot as u32,
                epoch: o.epoch,
                name: o.name,
                heap: o.heap,
                is_array: o.is_array,
                elem: o.elem,
                size: o.bytes.len() as u32,
            });
            o.epoch += 1;
            o.bytes.reset(size);
            o.ptr_slots.clear();
            o.alive = true;
            o.heap = heap;
            o.is_array = is_array;
            o.is_const = false;
            o.elem = elem;
            o.name = name;
            if self.profile_enabled {
                self.prof.arena_recycles += 1;
            }
            obj_ref(slot, o.epoch)
        } else {
            let slot = self.objects.len();
            self.objects.push(Object {
                bytes: Bytes::new(size),
                ptr_slots: Vec::new(),
                alive: true,
                heap,
                is_array,
                is_const: false,
                elem,
                name,
                epoch: 0,
            });
            if self.profile_enabled {
                self.prof.arena_misses += 1;
            }
            obj_ref(slot, 0)
        };
        if !heap {
            self.created.push(r);
        }
        self.live_bytes += size as i128;
        if self.profile_enabled {
            self.prof.note_alloc(size, heap);
        }
        r
    }

    /// Queue a retired slot for recycling. Epoch saturation (a slot
    /// recycled `u32::MAX` times) silently leaks the slot instead of
    /// letting its next incarnation alias older stale references.
    #[inline]
    fn retire_slot(&mut self, slot: usize) {
        debug_assert!(!self.objects[slot].alive, "retiring a live slot");
        debug_assert!(
            !self.free_slots.contains(&(slot as u32)),
            "double-retire of slot {slot}"
        );
        if self.objects[slot].epoch != u32::MAX {
            self.free_slots.push(slot as u32);
        }
    }

    /// The object a packed reference denotes, if the reference is
    /// current (its epoch matches the slot's). `None` means the slot was
    /// recycled since the reference was formed — the cold diagnostic
    /// paths then consult the tombstone record instead.
    #[inline]
    fn resolved(&self, r: usize) -> Option<&Object> {
        let o = &self.objects[obj_slot(r)];
        (o.epoch == obj_epoch(r)).then_some(o)
    }

    /// Tombstone for a stale reference. Every epoch bump records one, so
    /// a reference that fails [`Interp::resolved`] always finds its
    /// original object's facts here.
    #[cold]
    fn tombstone(&self, r: usize) -> &Tombstone {
        self.tombstones
            .iter()
            .find(|t| t.slot as usize == obj_slot(r) && t.epoch == obj_epoch(r))
            .expect("stale reference has a tombstone")
    }

    /// Is the referenced object within its lifetime? Stale references
    /// (recycled slot) are dead by definition — the O(1) epoch mismatch
    /// replaces keeping the object around forever.
    #[inline]
    fn obj_is_alive(&self, r: usize) -> bool {
        self.resolved(r).is_some_and(|o| o.alive)
    }

    /// Array-ness of the referenced object, stale-safe: decay of a
    /// designator whose object has been recycled still answers from the
    /// tombstone (decay itself is not an access, so it must not change
    /// behavior when the slot is reused).
    #[inline]
    fn obj_is_array(&self, r: usize) -> bool {
        match self.resolved(r) {
            Some(o) => o.is_array,
            None => self.tombstone(r).is_array,
        }
    }

    /// Element type of the referenced object, stale-safe.
    #[inline]
    fn obj_elem(&self, r: usize) -> Elem {
        match self.resolved(r) {
            Some(o) => o.elem,
            None => self.tombstone(r).elem,
        }
    }

    /// Byte size of the referenced object, stale-safe (`sizeof` of a
    /// dead array designator is still defined).
    #[inline]
    fn obj_len(&self, r: usize) -> usize {
        match self.resolved(r) {
            Some(o) => o.bytes.len(),
            None => self.tombstone(r).size as usize,
        }
    }

    /// Re-pack a bare footprint slot into a current reference. Sound
    /// because `alloc` refuses to recycle slots present in the live
    /// footprint arena: an `fp` slot's epoch is always current.
    #[inline]
    fn current_ref(&self, slot: usize) -> usize {
        obj_ref(slot, self.objects[slot].epoch)
    }

    /// The pointer a designator of `obj` denotes: offset 0, accessed
    /// through the object's own element type.
    #[inline]
    fn designator_pointer(&self, obj: usize) -> Pointer {
        Pointer {
            obj,
            off: 0,
            ty: self.obj_elem(obj).pointee(),
        }
    }

    /// Record an implementation-defined conversion note, once per source
    /// position (a conversion inside a loop would otherwise flood the
    /// report).
    #[cold]
    fn note(&mut self, loc: SourceLoc, message: String) {
        if !self.notes.iter().any(|(l, _)| *l == loc) {
            self.notes.push((loc, message));
        }
    }

    /// Convert an integer value to `ty` (§6.3.1.3), recording a note when
    /// the conversion is implementation-defined (§6.3.1.3:3).
    #[inline]
    fn convert_int(&mut self, c: CInt, ty: IntTy, loc: SourceLoc) -> CInt {
        if c.ty == ty {
            // Same type: the representation invariant (bits already
            // truncated to the width) makes conversion the identity,
            // and an in-range value is never implementation-defined.
            return c;
        }
        let (out, impl_defined) = c.convert(ty);
        if impl_defined {
            self.note(
                loc,
                format!(
                    "implementation-defined: {} converted to `{}` yields {} \
                     (value does not fit; two's-complement wrap)",
                    c.math(),
                    ty.name(),
                    out.math()
                ),
            );
        }
        out
    }

    /// Convert a pointer to pointee type `to` (§6.3.2.3:7): undefined at
    /// the conversion itself when the pointer is not suitably aligned
    /// for the new pointee. Casts, assignment adoption, argument
    /// passing, and returns all funnel through here.
    fn convert_pointer(&self, p: Pointer, to: PointeeTy, loc: SourceLoc) -> EResult<Pointer> {
        let align = to.align();
        if align > 1 && p.off % align != 0 {
            return Err(self.ub(
                UbKind::MisalignedAccess,
                loc,
                format!(
                    "pointer to byte offset {} of `{}` converted to `{} *`, \
                     which requires {}-byte alignment",
                    p.off,
                    self.object_name(p.obj),
                    to.name(),
                    align
                ),
            ));
        }
        Ok(Pointer {
            obj: p.obj,
            off: p.off,
            ty: to,
        })
    }

    /// End the lifetime of every automatic object created at or after
    /// `base` (block or frame exit, §6.2.4:2/:6).
    fn kill_created_from(&mut self, base: usize) {
        for i in base..self.created.len() {
            let slot = obj_slot(self.created[i]);
            self.objects[slot].alive = false;
            self.live_bytes -= self.objects[slot].bytes.len() as i128;
            if self.profile_enabled {
                self.prof
                    .note_dealloc(self.objects[slot].bytes.len(), false);
            }
            // The slot is immediately recyclable: `created` refs are
            // current by construction (an automatic object's slot cannot
            // be recycled while it is alive).
            self.retire_slot(slot);
        }
        self.created.truncate(base);
    }

    // ----- checked memory access -----

    fn check_live(&self, p: Pointer, loc: SourceLoc) -> EResult<()> {
        if !self.obj_is_alive(p.obj) {
            return Err(self.ub(
                UbKind::DeadObjectAccess,
                loc,
                format!(
                    "object `{}` is outside its lifetime",
                    self.object_name(p.obj)
                ),
            ));
        }
        Ok(())
    }

    /// Shared validity checks for a typed access of `size` bytes through
    /// `p`: lifetime, alignment (§6.3.2.3:7, belt and braces — the
    /// conversion that misaligned the pointer already reported), bounds
    /// (§6.5.6:8), and the §6.5:7 effective-type rule. Returns the byte
    /// offset, validated.
    fn check_access(&self, p: Pointer, size: u64, write: bool, loc: SourceLoc) -> EResult<usize> {
        self.check_live(p, loc)?;
        let align = p.ty.align();
        if align > 1 && p.off % align != 0 {
            return Err(self.ub(
                UbKind::MisalignedAccess,
                loc,
                format!(
                    "`{}` access at byte offset {} of `{}`, which requires \
                     {}-byte alignment",
                    p.ty.name(),
                    p.off,
                    self.object_name(p.obj),
                    align
                ),
            ));
        }
        // `check_live` passed, so the reference is current: bare-slot
        // indexing is sound from here on.
        let obj = &self.objects[obj_slot(p.obj)];
        let len = obj.bytes.len() as i64;
        if p.off < 0 || p.off + size as i64 > len {
            let kind = if write {
                UbKind::OutOfBoundsWrite
            } else {
                UbKind::OutOfBoundsRead
            };
            return Err(self.ub(
                kind,
                loc,
                format!(
                    "{} of {} byte(s) at byte offset {} of `{}` ({} bytes)",
                    if write { "write" } else { "read" },
                    size,
                    p.off,
                    self.object_name(p.obj),
                    len
                ),
            ));
        }
        // §6.5:7 — non-character lvalues must agree with the object's
        // declared (or heap-effective) type. Writes to heap memory
        // *imprint* instead (handled by the caller).
        if !(access_allowed(p.ty, &obj.elem) || (write && obj.heap)) {
            return Err(self.ub(
                UbKind::AccessWrongEffectiveType,
                loc,
                format!(
                    "`{}` lvalue accesses `{}`, whose {} type is `{}`",
                    p.ty.name(),
                    self.object_name(p.obj),
                    if obj.heap { "effective" } else { "declared" },
                    obj.elem.name()
                ),
            ));
        }
        Ok(p.off as usize)
    }

    /// A typed load: read `sizeof(T)` little-endian bytes through `p`.
    /// Reads touching any indeterminate byte raise
    /// [`UbKind::ReadIndeterminate`] — byte-precise for
    /// partially-initialized wide objects.
    fn read_typed(&mut self, p: Pointer, loc: SourceLoc) -> EResult<Value> {
        let Some(size) = p.ty.size() else {
            return Err(stop_unsupported("dereference of a `void *`", loc));
        };
        let off = self.check_access(p, size, false, loc)?;
        let n = size as usize;
        let slot = obj_slot(p.obj);
        let obj = &self.objects[slot];
        if p.ty == PointeeTy::Ptr {
            // A stored pointer's bytes live out-of-band in its slot.
            if let Some(&(_, v)) = obj.ptr_slots.iter().find(|(o, _)| *o as i64 == p.off) {
                self.fp.push(Access::new(slot, p.off, size, false));
                return Ok(v);
            }
            if obj.ptr_slots.iter().any(|(o, _)| {
                let s = *o as i64;
                s < p.off + 8 && p.off < s + 8
            }) {
                return Err(stop_unsupported(
                    "reading a pointer that straddles another stored pointer's \
                     representation is outside the modeled semantics",
                    loc,
                ));
            }
            if !obj.bytes.all_init(off, n) {
                return Err(self.uninit_read(p, n, loc));
            }
            // All-zero bytes are the null pointer (array zero-fill);
            // anything else would need a numeric pointer representation.
            return if obj.bytes.load(off, n) == 0 {
                self.fp.push(Access::new(slot, p.off, size, false));
                Ok(Value::Int(CInt::int(0)))
            } else {
                Err(stop_unsupported(
                    "reassembling a pointer from integer bytes is outside the \
                     modeled semantics",
                    loc,
                ))
            };
        }
        // Scalar load. Bytes belonging to a stored pointer have no
        // numeric value to hand out — not even to a char sweep.
        if !obj.ptr_slots.is_empty()
            && obj.ptr_slots.iter().any(|(o, _)| {
                let s = *o as i64;
                s < p.off + size as i64 && p.off < s + 8
            })
        {
            return Err(stop_unsupported(
                "reading the byte representation of a stored pointer is outside \
                 the modeled semantics (pointers have no numeric address here)",
                loc,
            ));
        }
        if !obj.bytes.all_init(off, n) {
            return Err(self.uninit_read(p, n, loc));
        }
        let bits = obj.bytes.load(off, n);
        let PointeeTy::Scalar(t) = p.ty else {
            unreachable!("Ptr and Void handled above")
        };
        if t == IntTy::Bool && bits > 1 {
            // §6.2.6.1:5 — a `_Bool` object whose byte is neither 0 nor
            // 1 (planted through a char-lvalue write) is a trap
            // representation: padding bits are set, and reading it
            // through a `_Bool` lvalue is undefined. Native compilers
            // hand the raw byte back, so masking to the value bit here
            // would silently diverge from real executions.
            return Err(self.ub(
                UbKind::ReadIndeterminate,
                loc,
                format!(
                    "`{}` read as `_Bool` holds the trap representation {:#04x} \
                     (only 0 and 1 represent values)",
                    self.object_name(p.obj),
                    bits
                ),
            ));
        }
        self.fp.push(Access::new(slot, p.off, size, false));
        Ok(Value::Int(CInt::from_bits(bits, t)))
    }

    /// Build the [`UbKind::ReadIndeterminate`] report for a read of `n`
    /// bytes through `p`: the classic wording when the object's bytes are
    /// wholly indeterminate, a byte-precise one when only part of a wide
    /// object was initialized.
    #[cold]
    fn uninit_read(&self, p: Pointer, n: usize, loc: SourceLoc) -> Box<Stop> {
        let obj = &self.objects[obj_slot(p.obj)];
        let off = p.off as usize;
        let detail = if obj.bytes.any_init(off, n) {
            // Read-relative index: byte 0 is the first byte the read
            // touches, wherever in the object it starts.
            let first = obj.bytes.first_uninit(off, n).unwrap_or(off) - off;
            format!(
                "`{}` is only partly initialized: byte {} of the {}-byte read \
                 at byte offset {} is indeterminate",
                self.object_name(p.obj),
                first,
                n,
                p.off
            )
        } else {
            format!("`{}` holds an indeterminate value", self.object_name(p.obj))
        };
        self.ub(UbKind::ReadIndeterminate, loc, detail)
    }

    /// A typed store: write `sizeof(T)` little-endian bytes through `p`,
    /// converting the value to the lvalue's type first (§6.5.16.1:2).
    /// Returns the converted value — which is also the value of an
    /// assignment expression (§6.5.16:3).
    fn write_typed(&mut self, p: Pointer, v: Value, loc: SourceLoc) -> EResult<Value> {
        let Some(size) = p.ty.size() else {
            return Err(stop_unsupported("store through a `void *`", loc));
        };
        let off = self.check_access(p, size, true, loc)?;
        let slot = obj_slot(p.obj);
        if self.objects[slot].is_const {
            // §6.7.3:6 — the object was *defined* const; the lvalue used
            // for the store does not matter.
            return Err(self.ub(
                UbKind::WriteToConst,
                loc,
                format!(
                    "write to `{}`, which is defined with a const-qualified type",
                    self.object_name(p.obj)
                ),
            ));
        }
        let n = size as usize;
        match p.ty {
            PointeeTy::Scalar(t) => {
                let stored = match v {
                    Value::Int(c) => self.convert_int(c, t, loc),
                    Value::Ptr(_) => {
                        return Err(stop_unsupported(
                            "storing a pointer through a non-pointer lvalue is \
                             outside the modeled semantics",
                            loc,
                        ))
                    }
                    Value::Missing(_) => unreachable!("callers filter Missing"),
                };
                // A non-character store imprints heap memory's effective
                // type (§6.5:6); character stores leave it alone.
                if self.objects[slot].heap && !p.ty.is_char() {
                    self.objects[slot].elem = Elem::Scalar(t);
                }
                self.clear_ptr_slots(slot, p.off, size);
                self.objects[slot].bytes.store(off, n, stored.bits());
                self.fp.push(Access::new(slot, p.off, size, true));
                Ok(Value::Int(stored))
            }
            PointeeTy::Ptr => {
                let stored = match v {
                    // Storing into *declared* pointer cells adopts the
                    // declared pointee (the implicit conversion of
                    // §6.5.16.1, alignment-checked per §6.3.2.3:7); heap
                    // cells keep the stored pointer's own type.
                    Value::Ptr(q) => match self.objects[slot].elem {
                        Elem::Ptr(pt) if !self.objects[slot].heap => {
                            Value::Ptr(self.convert_pointer(q, pt, loc)?)
                        }
                        _ => Value::Ptr(q),
                    },
                    // The null pointer constant — or an integer in a
                    // pointer cell, reported if ever used as a pointer.
                    other => other,
                };
                if self.objects[slot].heap {
                    self.objects[slot].elem = Elem::Ptr(PointeeTy::Void);
                }
                self.clear_ptr_slots(slot, p.off, size);
                self.objects[slot].bytes.store(off, n, 0);
                if !matches!(stored, Value::Int(c) if c.is_zero()) {
                    self.objects[slot].ptr_slots.push((p.off as u32, stored));
                }
                self.fp.push(Access::new(slot, p.off, size, true));
                Ok(stored)
            }
            PointeeTy::Void => unreachable!("sizeless access rejected above"),
        }
    }

    /// Destroy any stored-pointer slot whose 8-byte range overlaps the
    /// store `[off, off + size)`: the overwritten pointer cannot be
    /// reconstructed, so its bytes outside the new store go
    /// indeterminate. `obj` is a bare slab slot (callers have already
    /// validated the access).
    fn clear_ptr_slots(&mut self, obj: usize, off: i64, size: u64) {
        if self.objects[obj].ptr_slots.is_empty() {
            return;
        }
        let (start, end) = (off, off + size as i64);
        let mut dead = Vec::new();
        self.objects[obj].ptr_slots.retain(|(o, _)| {
            let s = *o as i64;
            let overlaps = s < end && start < s + 8;
            if overlaps {
                dead.push(s);
            }
            !overlaps
        });
        for s in dead {
            self.objects[obj].bytes.mark_uninit(s as usize, 8);
        }
    }

    // ----- sequencing -----

    /// §6.5:2 at an unsequenced combination point: the accesses in
    /// `fp[a_start..mid]` (first operand) and `fp[mid..]` (second
    /// operand) conflict if a write on one side pairs with any access of
    /// the same scalar on the other. The merged footprint is simply the
    /// whole range — the arena already holds both sides back to back.
    fn check_unsequenced(&self, a_start: usize, mid: usize, loc: SourceLoc) -> EResult<()> {
        let (a, b) = self.fp[a_start..].split_at(mid - a_start);
        for &x in a {
            for &y in b {
                if x.overlaps(y) && (x.is_write() || y.is_write()) {
                    return Err(self.ub(
                        UbKind::UnsequencedSideEffect,
                        loc,
                        format!(
                            "unsequenced accesses to `{}`",
                            // fp slots are bare and current (alloc skips
                            // slots in the live footprint), so re-pack.
                            self.object_name(self.current_ref(x.obj()))
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    /// §6.5:2 — the update side effect of an assignment or `++`/`--` is
    /// unsequenced with the value computations around it, so it conflicts
    /// with any other write to the same scalar in the operand footprint
    /// (`x = x++`, `a[(a[0]=0)]++`).
    fn check_update_conflict(
        &self,
        fp_start: usize,
        p: Pointer,
        loc: SourceLoc,
        action: &str,
    ) -> EResult<()> {
        let probe = Access::new(obj_slot(p.obj), p.off, p.ty.size().unwrap_or(1), true);
        if self.fp[fp_start..]
            .iter()
            .any(|&a| a.is_write() && a.overlaps(probe))
        {
            return Err(self.ub(
                UbKind::UnsequencedSideEffect,
                loc,
                format!(
                    "{action} `{}` unsequenced with another side effect on it",
                    self.object_name(p.obj)
                ),
            ));
        }
        Ok(())
    }

    // ----- values -----

    /// Consume a value: `Missing` poison reports its deferred kind here.
    fn use_value(&self, v: Value, loc: SourceLoc) -> EResult<Value> {
        match v {
            Value::Missing(kind) => Err(self.ub(kind, loc, "use of a value that does not exist")),
            v => Ok(v),
        }
    }

    fn as_int(&self, v: Value, loc: SourceLoc) -> EResult<CInt> {
        match self.use_value(v, loc)? {
            Value::Int(c) => Ok(c),
            Value::Ptr(_) => Err(stop_unsupported(
                "expected an integer, found a pointer",
                loc,
            )),
            Value::Missing(_) => unreachable!("use_value filters Missing"),
        }
    }

    fn truthy(&self, v: Value, loc: SourceLoc) -> EResult<bool> {
        match self.use_value(v, loc)? {
            Value::Int(c) => Ok(!c.is_zero()),
            Value::Ptr(p) => {
                // Using a dangling pointer value, even just for its truth
                // value, is UB (§6.2.4:2).
                self.check_live(p, loc)?;
                Ok(true)
            }
            Value::Missing(_) => unreachable!(),
        }
    }

    // ----- expression evaluation -----

    /// Evaluate a *full expression* (§6.8:4): its footprint dies at the
    /// sequence point that ends it.
    fn eval_full(&mut self, e: ExprId) -> EResult<Value> {
        let mark = self.fp.len();
        let v = self.eval(e)?;
        self.fp.truncate(mark);
        Ok(v)
    }

    fn eval(&mut self, e: ExprId) -> EResult<Value> {
        let unit = self.unit;
        let expr = unit.expr(e);
        let loc = expr.loc;
        self.tick(loc)?;
        match &expr.kind {
            ExprKind::IntLit(v) => Ok(Value::Int(*v)),
            ExprKind::Ident(sym) => Err(stop_unsupported(
                format!("use of undeclared identifier `{}`", self.name(*sym)),
                loc,
            )),
            ExprKind::Slot(slot, sym) => {
                let Some(obj) = self.slot_object(*slot) else {
                    return Err(stop_unsupported(
                        format!(
                            "use of `{}` before its declaration executed",
                            self.name(*sym)
                        ),
                        loc,
                    ));
                };
                if self.obj_is_array(obj) {
                    // Array designators decay to a pointer to the first
                    // element (§6.3.2.1:3); no byte is read.
                    return Ok(Value::Ptr(self.designator_pointer(obj)));
                }
                let p = self.designator_pointer(obj);
                self.read_typed(p, loc)
            }
            ExprKind::Unary(op, inner) => {
                let v = self.eval(*inner)?;
                let v = self.use_value(v, loc)?;
                let out = match (op, v) {
                    (UnaryOp::Neg, Value::Int(n)) => match consteval::neg(n) {
                        Ok(r) => Value::Int(r),
                        Err((kind, detail)) => return Err(self.ub(kind, loc, detail)),
                    },
                    (UnaryOp::Not, v) => {
                        let t = self.truthy(v, loc)?;
                        Value::Int(CInt::int(if t { 0 } else { 1 }))
                    }
                    (UnaryOp::BitNot, Value::Int(n)) => match consteval::bit_not(n) {
                        Ok(r) => Value::Int(r),
                        Err((kind, detail)) => return Err(self.ub(kind, loc, detail)),
                    },
                    (UnaryOp::Neg | UnaryOp::BitNot, Value::Ptr(_)) => {
                        return Err(stop_unsupported(
                            "arithmetic unary operator applied to a pointer",
                            loc,
                        ))
                    }
                    (_, Value::Missing(_)) => unreachable!(),
                };
                Ok(out)
            }
            ExprKind::SizeofType(ty) => match ValTy::of(ty).size_bytes() {
                Some(n) => Ok(Value::Int(CInt::new(n as i128, SIZE_T))),
                None => Err(stop_unsupported(
                    "`sizeof` applied to the incomplete type `void`",
                    loc,
                )),
            },
            ExprKind::SizeofExpr(inner) => self.sizeof_expr(*inner, loc),
            ExprKind::Binary(op, l, r) => {
                let start = self.fp.len();
                let lv = self.eval(*l)?;
                let mid = self.fp.len();
                let rv = self.eval(*r)?;
                self.check_unsequenced(start, mid, loc)?;
                let lv = self.use_value(lv, loc)?;
                let rv = self.use_value(rv, loc)?;
                self.apply_binop(*op, lv, rv, loc)
            }
            ExprKind::LogicalAnd(l, r) => {
                let lv = self.eval(*l)?;
                // Sequence point after the first operand (§6.5.13:4).
                if !self.truthy(lv, loc)? {
                    return Ok(Value::Int(CInt::int(0)));
                }
                let rv = self.eval(*r)?;
                let t = self.truthy(rv, loc)?;
                Ok(Value::Int(CInt::int(t as i64)))
            }
            ExprKind::LogicalOr(l, r) => {
                let lv = self.eval(*l)?;
                if self.truthy(lv, loc)? {
                    return Ok(Value::Int(CInt::int(1)));
                }
                let rv = self.eval(*r)?;
                let t = self.truthy(rv, loc)?;
                Ok(Value::Int(CInt::int(t as i64)))
            }
            ExprKind::Conditional(c, t, f) => {
                let cv = self.eval(*c)?;
                let branch = if self.truthy(cv, loc)? { *t } else { *f };
                let v = self.eval(branch)?;
                // §6.5.15:5 — with arithmetic operands the result has
                // the *common* type of both branches, even though only
                // one is evaluated: `1 ? -1 : 0u` is UINT_MAX, and
                // `0 ? 0 : (short)0` is an `int`. The type comes from the
                // unit's type table, so the value and `sizeof(e ? a : b)`
                // can never disagree.
                match (v, unit.ty(e)) {
                    (Value::Int(n), ValTy::Int(common)) => {
                        Ok(Value::Int(self.convert_int(n, common, loc)))
                    }
                    _ => Ok(v),
                }
            }
            ExprKind::Comma(l, r) => {
                self.eval(*l)?;
                self.eval(*r)
            }
            ExprKind::Assign(place, op, rhs) => self.eval_assign(*place, *op, *rhs, loc),
            ExprKind::PreIncDec(place, delta) => {
                let (_, new) = self.eval_incdec(*place, *delta, loc)?;
                Ok(new) // prefix yields the new value
            }
            ExprKind::PostIncDec(place, delta) => {
                let (old, _) = self.eval_incdec(*place, *delta, loc)?;
                Ok(old) // postfix yields the old value
            }
            ExprKind::Deref(inner) => {
                let p = self.eval_pointer(*inner, loc)?;
                self.read_typed(p, loc)
            }
            ExprKind::AddrOf(inner) => {
                let p = self.eval_place(*inner)?;
                // `&a` on an array designator is the one place an array
                // does not decay (§6.3.2.1:3); its result would have
                // array-pointer type, which the subset cannot express.
                // Reject it rather than silently meaning `&a[0]` — that
                // reinterpretation is what lets `*&a = 5` or `(&a)[0]`
                // dodge the modifiable-lvalue rule.
                if self.is_designator(*inner) && self.obj_is_array(p.obj) {
                    return Err(stop_unsupported(
                        format!(
                            "`&{}` has array-pointer type, which is outside the subset",
                            self.object_name(p.obj)
                        ),
                        loc,
                    ));
                }
                Ok(Value::Ptr(p))
            }
            ExprKind::Index(base, idx) => {
                let p = self.eval_index_place(*base, *idx, loc)?;
                self.read_typed(p, loc)
            }
            ExprKind::Call(name, args) => self.eval_call(*name, args, loc),
            ExprKind::Cast(ty, inner) => self.eval_cast(ty, *inner, loc),
        }
    }

    /// A cast `( type-name ) expr` (§6.5.4): integer conversion
    /// (§6.3.1.3, with a note when implementation-defined), pointer
    /// reinterpretation (§6.3.2.3:7 — misalignment is undefined *at the
    /// conversion*), or a value-discarding `(void)`.
    fn eval_cast(&mut self, ty: &Ty, inner: ExprId, loc: SourceLoc) -> EResult<Value> {
        let v = self.eval(inner)?;
        match ty {
            // `(void)e` discards the value (§6.3.2.2:2); the result is a
            // void expression whose (nonexistent) value must not be used.
            Ty::Void => Ok(Value::Missing(UbKind::VoidValueUsed)),
            Ty::Int(t) => match self.use_value(v, loc)? {
                Value::Int(c) => Ok(Value::Int(self.convert_int(c, *t, loc))),
                Value::Ptr(_) => Err(stop_unsupported(
                    "pointer-to-integer casts are outside the modeled semantics \
                     (pointers have no numeric address here)",
                    loc,
                )),
                Value::Missing(_) => unreachable!(),
            },
            Ty::Ptr(pointee) => match self.use_value(v, loc)? {
                // The null pointer constant converts to any pointer type
                // (§6.3.2.3:3).
                Value::Int(c) if c.is_zero() => Ok(Value::Int(CInt::int(0))),
                Value::Int(_) => Err(stop_unsupported(
                    "integer-to-pointer casts are outside the modeled semantics",
                    loc,
                )),
                Value::Ptr(p) => Ok(Value::Ptr(self.convert_pointer(
                    p,
                    pointee_of_ty(pointee),
                    loc,
                )?)),
                Value::Missing(_) => unreachable!(),
            },
        }
    }

    /// Whether `e` is a bare identifier reference (resolved or not) — the
    /// designator cases for the array-decay and modifiable-lvalue rules.
    fn is_designator(&self, e: ExprId) -> bool {
        matches!(
            self.unit.expr(e).kind,
            ExprKind::Ident(_) | ExprKind::Slot(_, _)
        )
    }

    /// `sizeof operand` (§6.5.3.4:2): the size of the operand's type from
    /// the unit's type table. Only a variable length array's length is a
    /// property of the live object — read here without evaluating
    /// anything (stale-safe: a recycled slot answers from its tombstone).
    /// An operand the table cannot size stops as a checker limitation.
    fn sizeof_expr(&self, operand: ExprId, loc: SourceLoc) -> EResult<Value> {
        let n = match (self.unit.ty(operand), &self.unit.expr(operand).kind) {
            (ValTy::Array { len: None, .. }, ExprKind::Slot(slot, _)) => {
                self.slot_object(*slot).map(|obj| self.obj_len(obj) as u64)
            }
            (ty, _) => ty.size_bytes(),
        };
        match n {
            Some(n) => Ok(Value::Int(CInt::new(n as i128, SIZE_T))),
            None => Err(stop_unsupported(
                "the type of this `sizeof` operand is outside the modeled semantics",
                loc,
            )),
        }
    }

    /// Evaluate an expression that must produce a usable pointer.
    fn eval_pointer(&mut self, e: ExprId, loc: SourceLoc) -> EResult<Pointer> {
        let v = self.eval(e)?;
        match self.use_value(v, loc)? {
            Value::Ptr(p) => Ok(p),
            Value::Int(c) if c.is_zero() => Err(self.ub(
                UbKind::NullDereference,
                loc,
                "dereference of a null pointer",
            )),
            Value::Int(c) => Err(self.ub(
                UbKind::NullDereference,
                loc,
                format!("dereference of invalid pointer value {c}"),
            )),
            Value::Missing(_) => unreachable!(),
        }
    }

    /// Evaluate an lvalue to the place it designates. No byte is
    /// accessed; accesses happen in `read_typed`/`write_typed`.
    fn eval_place(&mut self, e: ExprId) -> EResult<Pointer> {
        let unit = self.unit;
        let expr = unit.expr(e);
        let loc = expr.loc;
        self.tick(loc)?;
        match &expr.kind {
            ExprKind::Ident(sym) => Err(stop_unsupported(
                format!("use of undeclared identifier `{}`", self.name(*sym)),
                loc,
            )),
            ExprKind::Slot(slot, sym) => match self.slot_object(*slot) {
                Some(obj) => Ok(self.designator_pointer(obj)),
                None => Err(stop_unsupported(
                    format!(
                        "use of `{}` before its declaration executed",
                        self.name(*sym)
                    ),
                    loc,
                )),
            },
            ExprKind::Deref(inner) => self.eval_pointer(*inner, loc),
            ExprKind::Index(base, idx) => self.eval_index_place(*base, *idx, loc),
            _ => Err(stop_unsupported("expression is not an lvalue", loc)),
        }
    }

    fn eval_index_place(&mut self, base: ExprId, idx: ExprId, loc: SourceLoc) -> EResult<Pointer> {
        let start = self.fp.len();
        let bp = self.eval_pointer(base, loc)?;
        let mid = self.fp.len();
        let iv = self.eval(idx)?;
        self.check_unsequenced(start, mid, loc)?;
        let i = self.as_int(iv, loc)?.math();
        self.pointer_add(bp, i, loc)
    }

    /// `p + delta` with the §6.5.6:8 in-bounds-or-one-past rule, at byte
    /// granularity: the delta counts *elements* and scales by the
    /// pointee size, and the resulting byte offset must stay within
    /// `[0, len]` (one past the end preserved). The delta is a
    /// mathematical value (any integer type may subscript); an offset
    /// outside the object is reported before it could wrap.
    fn pointer_add(&mut self, p: Pointer, delta: i128, loc: SourceLoc) -> EResult<Pointer> {
        self.check_live(p, loc)?;
        let Some(esize) = p.ty.size() else {
            return Err(stop_unsupported("arithmetic on a `void *`", loc));
        };
        // `check_live` passed above, so bare-slot indexing is sound.
        let len = self.objects[obj_slot(p.obj)].bytes.len() as i128;
        let off = p.off as i128 + delta * esize as i128;
        if off < 0 || off > len {
            return Err(self.ub(
                UbKind::PointerArithmeticOutOfBounds,
                loc,
                format!(
                    "byte offset {} of `{}` ({} bytes; one-past-the-end allowed)",
                    off,
                    self.object_name(p.obj),
                    len
                ),
            ));
        }
        Ok(Pointer {
            obj: p.obj,
            off: off as i64,
            ty: p.ty,
        })
    }

    fn apply_binop(&mut self, op: BinOp, l: Value, r: Value, loc: SourceLoc) -> EResult<Value> {
        use BinOp::*;
        match (l, r) {
            (Value::Int(a), Value::Int(b)) => self.int_binop(op, a, b, loc),
            // Pointer arithmetic and comparison.
            (Value::Ptr(p), Value::Int(n)) if op == Add => {
                Ok(Value::Ptr(self.pointer_add(p, n.math(), loc)?))
            }
            (Value::Int(n), Value::Ptr(p)) if op == Add => {
                Ok(Value::Ptr(self.pointer_add(p, n.math(), loc)?))
            }
            (Value::Ptr(p), Value::Int(n)) if op == Sub => {
                Ok(Value::Ptr(self.pointer_add(p, -n.math(), loc)?))
            }
            (Value::Ptr(a), Value::Ptr(b)) if op == Sub => {
                self.check_live(a, loc)?;
                self.check_live(b, loc)?;
                if a.obj != b.obj {
                    return Err(self.ub(
                        UbKind::PointerSubtractionDifferentObjects,
                        loc,
                        format!(
                            "pointers into `{}` and `{}`",
                            self.object_name(a.obj),
                            self.object_name(b.obj)
                        ),
                    ));
                }
                // The byte distance divides by the element size
                // (§6.5.6:9 subtracts element indices, not addresses).
                let (Some(sa), Some(sb)) = (a.ty.size(), b.ty.size()) else {
                    return Err(stop_unsupported("subtraction of `void *` pointers", loc));
                };
                if sa != sb {
                    return Err(stop_unsupported(
                        "subtraction of pointers with different pointee sizes",
                        loc,
                    ));
                }
                let d = (a.off - b.off) as i128;
                if d % sa as i128 != 0 {
                    return Err(stop_unsupported(
                        "subtraction of pointers that are not a whole number of \
                         elements apart",
                        loc,
                    ));
                }
                // The difference has type ptrdiff_t — `long` on LP64.
                Ok(Value::Int(CInt::new(d / sa as i128, IntTy::Long)))
            }
            (Value::Ptr(a), Value::Ptr(b)) if matches!(op, Lt | Le | Gt | Ge) => {
                self.check_live(a, loc)?;
                self.check_live(b, loc)?;
                if a.obj != b.obj {
                    return Err(self.ub(
                        UbKind::PointerCompareDifferentObjects,
                        loc,
                        format!(
                            "pointers into `{}` and `{}`",
                            self.object_name(a.obj),
                            self.object_name(b.obj)
                        ),
                    ));
                }
                let t = match op {
                    Lt => a.off < b.off,
                    Le => a.off <= b.off,
                    Gt => a.off > b.off,
                    _ => a.off >= b.off,
                };
                Ok(Value::Int(CInt::int(t as i64)))
            }
            (Value::Ptr(a), Value::Ptr(b)) if matches!(op, Eq | Ne) => {
                self.check_live(a, loc)?;
                self.check_live(b, loc)?;
                // Equality is by address (§6.5.9:6): the pointee type a
                // cast attached does not change where a pointer points.
                let same = a.same_address(b);
                Ok(Value::Int(CInt::int(
                    (if op == Eq { same } else { !same }) as i64,
                )))
            }
            (Value::Ptr(p), Value::Int(n)) | (Value::Int(n), Value::Ptr(p))
                if matches!(op, Eq | Ne) =>
            {
                self.check_live(p, loc)?;
                // A valid pointer never equals the null constant; comparing
                // with a nonzero integer is outside the subset's types.
                if !n.is_zero() {
                    return Err(stop_unsupported(
                        "comparison of a pointer with a nonzero integer",
                        loc,
                    ));
                }
                Ok(Value::Int(CInt::int((op == Ne) as i64)))
            }
            _ => Err(stop_unsupported(
                "operator applied to incompatible operand types",
                loc,
            )),
        }
    }

    /// Integer arithmetic, delegated to the shared typed core in
    /// [`crate::consteval`] so the run-time and translation-time phases
    /// agree on every undefined case — at the right width.
    fn int_binop(&self, op: BinOp, a: CInt, b: CInt, loc: SourceLoc) -> EResult<Value> {
        match consteval::arith(op, a, b) {
            Ok(v) => Ok(Value::Int(v)),
            Err((kind, detail)) => Err(self.ub(kind, loc, detail)),
        }
    }

    /// An array designator is not a modifiable lvalue (§6.3.2.1:1);
    /// `a = …` and `a++` on an array name are rejected rather than
    /// silently treated as element-0 stores. Spellings through `&a`
    /// (`*&a`, `(&a)[0]`) are already rejected when `&a` is evaluated.
    fn check_modifiable(&self, place: ExprId, p: Pointer, loc: SourceLoc) -> EResult<()> {
        if self.is_designator(place) && self.obj_is_array(p.obj) {
            return Err(stop_unsupported(
                format!(
                    "array `{}` is not a modifiable lvalue",
                    self.object_name(p.obj)
                ),
                loc,
            ));
        }
        Ok(())
    }

    fn eval_assign(
        &mut self,
        place: ExprId,
        op: Option<BinOp>,
        rhs: ExprId,
        loc: SourceLoc,
    ) -> EResult<Value> {
        let start = self.fp.len();
        let p = self.eval_place(place)?;
        self.check_modifiable(place, p, loc)?;
        let mid = self.fp.len();
        let rv = self.eval(rhs)?;
        // Value computations of the two operands are unsequenced with each
        // other (§6.5.16:3)…
        self.check_unsequenced(start, mid, loc)?;
        let rv = self.use_value(rv, loc)?;
        let stored = match op {
            None => rv,
            Some(op) => {
                // Compound assignment reads the place once; that read is a
                // value computation sequenced before the update.
                let old = self.read_typed(p, loc)?;
                let old = self.use_value(old, loc)?;
                self.apply_binop(op, old, rv, loc)?
            }
        };
        // …while the update's side effect is sequenced only after those
        // value computations: it still conflicts with any *other* write to
        // the same scalar in either operand (`x = x++`). The store
        // converts the value to the lvalue's type (§6.5.16.1:2) and that
        // converted value is the expression's result (§6.5.16:3).
        self.check_update_conflict(start, p, loc, "assignment to")?;
        let stored = self.write_typed(p, stored, loc)?;
        Ok(stored)
    }

    /// Shared engine for `++`/`--`; returns (old, new).
    fn eval_incdec(
        &mut self,
        place: ExprId,
        delta: i64,
        loc: SourceLoc,
    ) -> EResult<(Value, Value)> {
        let start = self.fp.len();
        let p = self.eval_place(place)?;
        self.check_modifiable(place, p, loc)?;
        let old = self.read_typed(p, loc)?;
        let old = self.use_value(old, loc)?;
        let new = match old {
            Value::Int(n) => {
                // `x++` is `x += 1` (§6.5.2.4:2): the addition happens at
                // the promoted type through the shared core, then the
                // result converts back to the object's type on store.
                let one = CInt::int(delta);
                match consteval::arith(BinOp::Add, n, one) {
                    Ok(r) => Value::Int(r),
                    Err((kind, detail)) => return Err(self.ub(kind, loc, detail)),
                }
            }
            Value::Ptr(ptr) => Value::Ptr(self.pointer_add(ptr, delta as i128, loc)?),
            Value::Missing(_) => unreachable!(),
        };
        self.check_update_conflict(
            start,
            p,
            loc,
            if delta > 0 {
                "increment of"
            } else {
                "decrement of"
            },
        )?;
        // The store converts to the lvalue's type (`unsigned char c =
        // 255; c++` wraps to 0, defined); prefix ++ yields that
        // converted value.
        let new = self.write_typed(p, new, loc)?;
        Ok((old, new))
    }

    fn eval_call(&mut self, name: Symbol, args: &'a [ExprId], loc: SourceLoc) -> EResult<Value> {
        // Argument evaluations are unsequenced with each other
        // (§6.5.2.2:10), so each new argument's footprint is checked
        // against everything the previous arguments did.
        let unit = self.unit;
        let fp_start = self.fp.len();
        let argv_base = self.args.len();
        for &a in args {
            let mid = self.fp.len();
            let v = self.eval(a)?;
            self.check_unsequenced(fp_start, mid, loc)?;
            let v = self.use_value(v, unit.expr(a).loc)?;
            self.args.push(v);
        }
        let nargs = self.args.len() - argv_base;
        if let Some(func_idx) = unit.function_index(name) {
            let func = &unit.functions[func_idx as usize];
            if func.params.len() != nargs {
                return Err(self.ub(
                    UbKind::CallWrongArity,
                    loc,
                    format!(
                        "`{}` takes {} argument(s), called with {}",
                        self.name(name),
                        func.params.len(),
                        nargs
                    ),
                ));
            }
            // The callee's effects are indeterminately sequenced with the
            // rest of the caller's expression, not unsequenced: they do
            // not join the caller's footprint (`call` truncates to its
            // mark).
            let (ret, _) = self.call(func_idx, argv_base, loc)?;
            return Ok(ret);
        }
        if name == kw::MALLOC {
            if nargs != 1 {
                return Err(self.ub(
                    UbKind::CallWrongArity,
                    loc,
                    format!("`malloc` takes 1 argument, called with {nargs}"),
                ));
            }
            let v = self.args[argv_base];
            self.args.truncate(argv_base);
            return self.builtin_malloc(v, loc);
        }
        if name == kw::FREE {
            if nargs != 1 {
                return Err(self.ub(
                    UbKind::CallWrongArity,
                    loc,
                    format!("`free` takes 1 argument, called with {nargs}"),
                ));
            }
            let v = self.args[argv_base];
            self.args.truncate(argv_base);
            return self.builtin_free(v, loc);
        }
        Err(self.ub(
            UbKind::CallNonFunction,
            loc,
            format!(
                "`{}` does not designate a function in this translation unit",
                self.name(name)
            ),
        ))
    }

    /// `malloc(n)` over an already-evaluated argument value — shared
    /// verbatim by the tree-walker and the VM's `Malloc` op so the
    /// diagnostics cannot drift between engines.
    fn builtin_malloc(&mut self, v: Value, loc: SourceLoc) -> EResult<Value> {
        let n = self.as_int(v, loc)?.math();
        if n < 0 {
            return Err(self.ub(
                UbKind::InvalidLibraryArgument,
                loc,
                format!("malloc({n}) with a negative size"),
            ));
        }
        if n > MAX_BYTES || self.live_bytes + n > MAX_HEAP_BYTES {
            return Err(stop_unsupported(
                format!("malloc({n}) exceeds the engine's memory budget"),
                loc,
            ));
        }
        // `malloc(n)` allocates `n` *bytes* — the model finally
        // agrees with `sizeof`. `malloc(0)` yields a distinct
        // zero-size allocation: legal to `free`, undefined to
        // dereference (any access overruns its zero bytes).
        // The serial in the name is assigned by `alloc` itself
        // (allocation order), so the placeholder here is never shown.
        let obj = self.alloc(ObjName::Heap(0), n as usize, true, true, Elem::Untyped);
        Ok(Value::Ptr(Pointer {
            obj,
            off: 0,
            ty: PointeeTy::Void,
        }))
    }

    /// `free(p)` over an already-evaluated argument value — shared
    /// verbatim by the tree-walker and the VM's `Free` op.
    fn builtin_free(&mut self, v: Value, loc: SourceLoc) -> EResult<Value> {
        match v {
            // free(NULL) is a no-op (§7.22.3.3:2).
            Value::Int(c) if c.is_zero() => Ok(Value::Missing(UbKind::VoidValueUsed)),
            Value::Int(c) => Err(self.ub(
                UbKind::FreeNonHeapPointer,
                loc,
                format!("free() of integer value {c}"),
            )),
            Value::Ptr(p) => {
                // Stale references (the slot was recycled since `p`
                // was formed) answer from the tombstone: the original
                // heap-ness drives the cascade, and stale ⇒ the
                // original lifetime already ended.
                let (heap, alive) = match self.resolved(p.obj) {
                    Some(o) => (o.heap, o.alive),
                    None => (self.tombstone(p.obj).heap, false),
                };
                if !heap {
                    return Err(self.ub(
                        UbKind::FreeNonHeapPointer,
                        loc,
                        format!(
                            "free() of `{}`, which is not heap-allocated",
                            self.object_name(p.obj)
                        ),
                    ));
                }
                if !alive {
                    return Err(self.ub(
                        UbKind::DoubleFree,
                        loc,
                        format!("`{}` was already freed", self.object_name(p.obj)),
                    ));
                }
                if p.off != 0 {
                    return Err(self.ub(
                        UbKind::FreeInteriorPointer,
                        loc,
                        format!(
                            "free() of `{}` at interior offset {}",
                            self.object_name(p.obj),
                            p.off
                        ),
                    ));
                }
                // Current and alive: bare-slot access is sound.
                let slot = obj_slot(p.obj);
                self.objects[slot].alive = false;
                self.live_bytes -= self.objects[slot].bytes.len() as i128;
                if self.profile_enabled {
                    self.prof.note_dealloc(self.objects[slot].bytes.len(), true);
                }
                // Freed heap slots recycle through the same queue as
                // automatic objects — steady-state malloc/free loops
                // reuse one slot's storage.
                self.retire_slot(slot);
                Ok(Value::Missing(UbKind::VoidValueUsed))
            }
            Value::Missing(_) => unreachable!(),
        }
    }

    // ----- statements -----

    /// Execute a call to `functions[func_idx]` whose argument values sit
    /// at `args[argv_base..]` on the shared argument stack.
    fn call(
        &mut self,
        func_idx: u32,
        argv_base: usize,
        loc: SourceLoc,
    ) -> EResult<(Value, SourceLoc)> {
        let unit = self.unit;
        let func = &unit.functions[func_idx as usize];
        if self.frames.len() + self.tail_depth >= self.limits.max_call_depth {
            return Err(stop_unsupported("call depth limit exceeded", loc));
        }
        // The frame is bound from its precomputed [`FramePlan`]: the slot
        // region is a stack-pointer bump over the shared (pooled) stack,
        // and each parameter's element type/size/fast-store eligibility
        // was derived from the AST once at construction, not per call.
        let plan = &self.frame_plans[func_idx as usize];
        let (n_slots, nparams) = (plan.n_slots, plan.params.len());
        let slot_base = self.slots.len();
        let slot_top = slot_base + n_slots as usize;
        if self.profile_enabled {
            // A call at or under the high-water mark re-binds storage an
            // earlier frame already paid for.
            if slot_top <= self.slots_high_water {
                self.prof.frame_pool_hits += 1;
            } else {
                self.prof.frame_pool_misses += 1;
            }
        }
        if slot_top > self.slots_high_water {
            self.slots_high_water = slot_top;
        }
        self.slots.resize(slot_top, SLOT_NONE);
        let created_base = self.created.len();
        let fp_mark = self.fp.len();
        self.frames.push(Frame {
            func: func_idx,
            returns_void: func.returns_void,
            slot_base,
            tail_calls: 0,
        });
        for i in 0..nparams {
            let pp = self.frame_plans[func_idx as usize].params[i];
            let arg = self.args[argv_base + i];
            // Argument passing is assignment to the parameter
            // (§6.5.2.2:7): the value converts to the declared type — the
            // same typed store every assignment performs.
            let obj = self.alloc(
                ObjName::Sym(pp.sym),
                pp.size as usize,
                false,
                false,
                pp.elem,
            );
            self.slots[slot_base + i] = obj;
            // A scalar argument takes a one-word converted store: the
            // object is fresh, so every check the typed store would run
            // is vacuously true, and the store's footprint entry would
            // sit below every mark the callee can consult.
            if let (Some(t), Value::Int(c)) = (pp.scalar_fast, arg) {
                let stored = self.convert_int(c, t, loc);
                self.objects[obj_slot(obj)]
                    .bytes
                    .store(0, pp.size as usize, stored.bits());
                continue;
            }
            let place = self.designator_pointer(obj);
            self.write_typed(place, arg, loc)?;
        }
        self.args.truncate(argv_base);
        let mut result = (
            Value::Missing(if func.returns_void {
                UbKind::VoidValueUsed
            } else {
                UbKind::MissingReturnValueUsed
            }),
            func.loc,
        );
        let mut stopped = None;
        match self.run_body(func_idx) {
            Ok(Some((v, l))) => {
                // The returned value converts to the function's return
                // type (§6.8.6.4:3): integer conversion for scalar
                // returns, pointee adoption (alignment-checked,
                // §6.3.2.3:7) for pointer returns.
                let v = match v {
                    Value::Int(c) if !func.returns_void && func.ret_ptr == 0 => {
                        Value::Int(self.convert_int(c, func.ret_scalar, l))
                    }
                    Value::Ptr(ptr) if func.ret_ptr > 0 => {
                        let pointee = if func.ret_ptr > 1 {
                            PointeeTy::Ptr
                        } else if func.returns_void {
                            PointeeTy::Void
                        } else {
                            PointeeTy::Scalar(func.ret_scalar)
                        };
                        Value::Ptr(self.convert_pointer(ptr, pointee, l)?)
                    }
                    v => v,
                };
                result = (v, l);
            }
            Ok(None) => {}
            Err(stop) => stopped = Some(stop),
        }
        // Lifetimes of the frame's automatic objects end now (§6.2.4:2),
        // even when unwinding on an error, so diagnostics stay accurate.
        self.kill_created_from(created_base);
        self.slots.truncate(slot_base);
        // The callee's accesses are indeterminately sequenced with the
        // caller's expression: drop them from the shared arena.
        self.fp.truncate(fp_mark);
        let popped = self.frames.pop().expect("frame pushed above");
        self.tail_depth -= popped.tail_calls as usize;
        match stopped {
            Some(stop) => Err(stop),
            None => Ok(result),
        }
    }

    /// Run a function body through the selected engine, between the
    /// shared prologue and epilogue in [`Interp::call`]. `Ok(Some)` is an
    /// executed `return` (value and its position); `Ok(None)` is falling
    /// off the closing `}`.
    fn run_body(&mut self, func_idx: u32) -> EResult<Option<(Value, SourceLoc)>> {
        let func = &self.unit.functions[func_idx as usize];
        if self.engine == Engine::Bytecode {
            if let Some(code) = &self.code {
                let code = Rc::clone(code);
                return self.run_ops(&code, func_idx);
            }
        }
        match self.exec_block_entry(&func.body, 0, None)? {
            Flow::Return(v, l) => Ok(Some((v, l))),
            // A `goto` no enclosing block caught: its label is nowhere in
            // this function. The resolver rejects this at translation
            // time; an engine-level stop keeps the eval layer honest.
            Flow::Goto(sym, loc) => Err(stop_unsupported(
                format!(
                    "`goto {}` targets no label in this function",
                    self.name(sym)
                ),
                loc,
            )),
            // A stray `break`/`continue` (or plain fall-through) reaches
            // the closing brace.
            Flow::Normal | Flow::Break | Flow::Continue => Ok(None),
        }
    }

    fn exec_block(&mut self, body: &'a [StmtId]) -> EResult<Flow> {
        self.exec_block_entry(body, 0, None)
    }

    /// Execute a block from its item `start` (a `switch` dispatch), or
    /// entering at a label (`entry`) instead. A `goto` coming out of a
    /// statement whose target is anywhere in this block re-seeks within
    /// the block *without* ending its lifetimes — a jump within a block
    /// does not leave it (§6.2.4:6) — while a foreign target unwinds
    /// like `break`, killing this block's objects on the way out.
    fn exec_block_entry(
        &mut self,
        body: &'a [StmtId],
        mut start: usize,
        entry: Option<Symbol>,
    ) -> EResult<Flow> {
        let created_base = self.created.len();
        let mut entry = entry;
        let mut flow = Flow::Normal;
        let mut stopped = None;
        'restart: loop {
            let mut skipping = entry.take();
            for &s in &body[start..] {
                let r = match skipping {
                    Some(target) => {
                        if !stmt_has_label(self.unit, s, target) {
                            continue;
                        }
                        skipping = None;
                        self.seek_stmt(s, target)
                    }
                    None => self.exec_stmt(s),
                };
                match r {
                    Ok(Flow::Normal) => {}
                    Ok(Flow::Goto(sym, loc)) => {
                        if body.iter().any(|&t| stmt_has_label(self.unit, t, sym)) {
                            entry = Some(sym);
                            start = 0;
                            continue 'restart;
                        }
                        flow = Flow::Goto(sym, loc);
                        break;
                    }
                    Ok(other) => {
                        flow = other;
                        break;
                    }
                    Err(stop) => {
                        stopped = Some(stop);
                        break;
                    }
                }
            }
            break;
        }
        // Leaving the block ends the lifetime of everything declared in it
        // (§6.2.4:6): pointers that escaped the block are now dangling.
        self.kill_created_from(created_base);
        match stopped {
            Some(stop) => Err(stop),
            None => Ok(flow),
        }
    }

    /// Execute statement `s` by jumping to the label `target` known to be
    /// inside it: nothing on the way in is evaluated (§6.8.6.1 — a jump
    /// transfers control directly, so loop conditions and `switch`
    /// dispatch are skipped; declarations jumped over leave their slots
    /// unbound).
    fn seek_stmt(&mut self, s: StmtId, target: Symbol) -> EResult<Flow> {
        let unit = self.unit;
        let stmt = unit.stmt(s);
        self.tick(stmt_loc(unit, stmt))?;
        match stmt {
            Stmt::Label(name, inner, _) if *name == target => self.exec_stmt(*inner),
            Stmt::Label(_, inner, _) | Stmt::Case(_, inner, _) | Stmt::Default(inner, _) => {
                self.seek_stmt(*inner, target)
            }
            Stmt::If(_, then, els) => {
                if stmt_has_label(unit, *then, target) {
                    self.seek_stmt(*then, target)
                } else {
                    let els = els.expect("seek target is under this `if`");
                    self.seek_stmt(els, target)
                }
            }
            Stmt::Block(body, _) => self.exec_block_entry(body, 0, Some(target)),
            Stmt::While(cond, body) => self.run_while(*cond, *body, Some(target)),
            Stmt::For(_, cond, step, body) => {
                // The init clause is jumped over; the loop's scope still
                // opens (and closes when the loop is left).
                let created_base = self.created.len();
                let result = self.run_for(*cond, *step, *body, Some(target));
                self.kill_created_from(created_base);
                result
            }
            Stmt::Switch(_, body, _, _) => {
                // Jumping to a label inside a `switch` body enters it
                // without dispatching on the controlling expression.
                match self.seek_stmt(*body, target)? {
                    Flow::Break => Ok(Flow::Normal),
                    flow => Ok(flow),
                }
            }
            _ => unreachable!("seek target label is not under this statement"),
        }
    }

    /// The `while` loop engine; `entry` jumps into the body at a label
    /// for the first iteration (skipping the condition, §6.8.6.1).
    fn run_while(
        &mut self,
        cond: ExprId,
        body: StmtId,
        mut entry: Option<Symbol>,
    ) -> EResult<Flow> {
        let unit = self.unit;
        loop {
            let r = match entry.take() {
                Some(target) => self.seek_stmt(body, target)?,
                None => {
                    let v = self.eval_full(cond)?;
                    if !self.truthy(v, unit.expr(cond).loc)? {
                        return Ok(Flow::Normal);
                    }
                    self.exec_stmt(body)?
                }
            };
            match r {
                Flow::Break => return Ok(Flow::Normal),
                Flow::Return(v, l) => return Ok(Flow::Return(v, l)),
                Flow::Goto(sym, loc) => {
                    if stmt_has_label(unit, body, sym) {
                        // A jump back into this loop's body transfers
                        // control directly: no condition re-evaluation.
                        entry = Some(sym);
                    } else {
                        return Ok(Flow::Goto(sym, loc));
                    }
                }
                Flow::Normal | Flow::Continue => {}
            }
        }
    }

    fn exec_stmt(&mut self, s: StmtId) -> EResult<Flow> {
        let unit = self.unit;
        let stmt = unit.stmt(s);
        // Statements count toward the step limit too, so that loops whose
        // iterations evaluate no expressions (`for (;;) ;`) still hit
        // `max_steps` instead of spinning forever.
        self.tick(stmt_loc(unit, stmt))?;
        match stmt {
            Stmt::Empty(_) => Ok(Flow::Normal),
            Stmt::Decl(d) => {
                self.exec_decl(d)?;
                Ok(Flow::Normal)
            }
            Stmt::Expr(e) => {
                // A full expression: its footprint dies at the sequence
                // point that ends the statement (§6.8:4).
                self.eval_full(*e)?;
                Ok(Flow::Normal)
            }
            Stmt::If(cond, then, els) => {
                let v = self.eval_full(*cond)?;
                if self.truthy(v, unit.expr(*cond).loc)? {
                    self.exec_stmt(*then)
                } else if let Some(els) = els {
                    self.exec_stmt(*els)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::While(cond, body) => self.run_while(*cond, *body, None),
            Stmt::For(init, cond, step, body) => {
                // The init declaration's scope is the whole loop; its
                // object dies when the loop is left.
                let created_base = self.created.len();
                let result = self.exec_for(*init, *cond, *step, *body);
                self.kill_created_from(created_base);
                result
            }
            Stmt::Return(e, loc) => {
                let v = match e {
                    Some(e) => {
                        let v = self.eval_full(*e)?;
                        self.use_value(v, *loc)?
                    }
                    // An explicit `return;` in a value-returning function
                    // carries §6.9.1:12's explicit-return form (catalog
                    // entry 78), distinct from reaching the closing brace;
                    // in a `void` function its (nonexistent) value is a
                    // void expression's (§6.3.2.2:1).
                    None => {
                        let void = self.frames.last().is_some_and(|f| f.returns_void);
                        Value::Missing(if void {
                            UbKind::VoidValueUsed
                        } else {
                            UbKind::ReturnWithoutValue
                        })
                    }
                };
                Ok(Flow::Return(v, *loc))
            }
            Stmt::Break(_) => Ok(Flow::Break),
            Stmt::Continue(_) => Ok(Flow::Continue),
            Stmt::Block(body, _) => self.exec_block(body),
            Stmt::Switch(cond, body, _, table) => self.exec_switch(*cond, *body, *table),
            // Labels are transparent when reached sequentially; `switch`
            // dispatch is the only place they select anything.
            Stmt::Case(_, inner, _) | Stmt::Default(inner, _) | Stmt::Label(_, inner, _) => {
                self.exec_stmt(*inner)
            }
            // The goto unwinds through `Flow` until a block containing
            // the label catches it; translation-phase checks (labels.rs)
            // already rejected jumps into variably-modified scopes.
            Stmt::Goto(target, loc) => Ok(Flow::Goto(*target, *loc)),
        }
    }

    /// Execute a `switch` statement (§6.8.4.2): evaluate the controlling
    /// expression, select the matching `case` (or `default`) through the
    /// statement's case table, and run from there with ordinary
    /// fallthrough; `break` leaves the switch.
    fn exec_switch(&mut self, cond: ExprId, body: StmtId, table: u32) -> EResult<Flow> {
        let unit = self.unit;
        let v = self.eval_full(cond)?;
        let ctrl = self.as_int(v, unit.expr(cond).loc)?.promoted();
        let Some(start) = self.switch_target(&unit.switches[table as usize], ctrl)? else {
            // Control jumps past the body (§6.8.4.2:7).
            return Ok(Flow::Normal);
        };
        // A block body runs from the selected item: declarations jumped
        // over never execute (their slots stay unbound), and the block's
        // lifetimes end on exit as usual.
        let flow = match unit.stmt(body) {
            Stmt::Block(items, _) => self.exec_block_entry(items, start, None)?,
            _ => self.exec_stmt(label_chain_end(unit, body))?,
        };
        match flow {
            Flow::Break => Ok(Flow::Normal),
            flow => Ok(flow),
        }
    }

    /// The body item a `switch` with case table `table` enters for the
    /// promoted controlling value `ctrl`, or `None` to skip the body —
    /// the one selection both engines run. §6.8.4.2:5: the controlling
    /// expression undergoes the integer promotions, and each case
    /// constant is *converted to the promoted controlling type* before
    /// the comparison (so `switch (u) case -1:` matches UINT_MAX for an
    /// unsigned `u`, exactly as in real C). Labels are scanned in source
    /// order, so a label without a value stops dispatch only when the
    /// scan reaches it.
    fn switch_target(&self, table: &SwitchTable, ctrl: CInt) -> EResult<Option<usize>> {
        let mut default = None;
        for (arm, item) in &table.arms {
            match arm {
                CaseArm::Case(Ok(c)) => {
                    if c.convert(ctrl.ty).0.math() == ctrl.math() {
                        return Ok(Some(*item as usize));
                    }
                }
                CaseArm::Case(Err(ConstStop::NotConst(loc))) => {
                    return Err(self.ub(
                        UbKind::NonConstantCaseLabel,
                        *loc,
                        "case label is not an integer constant expression",
                    ))
                }
                CaseArm::Case(Err(ConstStop::Ub { kind, detail, loc })) => {
                    return Err(self.ub(*kind, *loc, format!("in a case label: {detail}")))
                }
                CaseArm::Default => {
                    default.get_or_insert(*item as usize);
                }
            }
        }
        // No case matched. A case hiding below the top level (Duff-style)
        // could still match — falling back to `default:` or skipping the
        // body would be a *wrong verdict*, so the engine stops instead.
        if let Some(loc) = table.nested_case {
            return Err(stop_unsupported(
                "case labels below the top level of a switch body are \
                 outside the modeled semantics",
                loc,
            ));
        }
        Ok(default)
    }

    fn exec_for(
        &mut self,
        init: Option<StmtId>,
        cond: Option<ExprId>,
        step: Option<ExprId>,
        body: StmtId,
    ) -> EResult<Flow> {
        if let Some(init) = init {
            self.exec_stmt(init)?;
        }
        self.run_for(cond, step, body, None)
    }

    /// The `for` loop engine past its init clause; `entry` jumps into
    /// the body at a label for the first iteration (skipping the
    /// condition — the step and condition still run from then on).
    fn run_for(
        &mut self,
        cond: Option<ExprId>,
        step: Option<ExprId>,
        body: StmtId,
        mut entry: Option<Symbol>,
    ) -> EResult<Flow> {
        let unit = self.unit;
        loop {
            let r = match entry.take() {
                Some(target) => self.seek_stmt(body, target)?,
                None => {
                    if let Some(cond) = cond {
                        let v = self.eval_full(cond)?;
                        if !self.truthy(v, unit.expr(cond).loc)? {
                            return Ok(Flow::Normal);
                        }
                    }
                    self.exec_stmt(body)?
                }
            };
            match r {
                Flow::Break => return Ok(Flow::Normal),
                Flow::Return(v, l) => return Ok(Flow::Return(v, l)),
                Flow::Goto(sym, loc) => {
                    if stmt_has_label(unit, body, sym) {
                        // Direct transfer back into the body: neither the
                        // step nor the condition runs on the way.
                        entry = Some(sym);
                        continue;
                    }
                    return Ok(Flow::Goto(sym, loc));
                }
                Flow::Normal | Flow::Continue => {}
            }
            if let Some(step) = step {
                self.eval_full(step)?;
            }
        }
    }

    fn exec_decl(&mut self, d: &'a Decl) -> EResult<()> {
        if d.redeclares.is_some() {
            return Err(stop_unsupported(
                format!("redeclaration of `{}` in the same scope", self.name(d.name)),
                d.loc,
            ));
        }
        // An object declared with an incomplete type has no size to
        // allocate (§6.7:7) — the translation phase flags this, and the
        // dynamic semantics must get stuck on it too, not conjure a
        // placeholder object and run to a clean exit.
        if matches!(d.ty, Ty::Void) {
            return Err(self.ub(
                UbKind::IncompleteTypeObject,
                d.loc,
                format!(
                    "`{}` declared with incomplete type `void`",
                    self.name(d.name)
                ),
            ));
        }
        let unit = self.unit;
        let fp_mark = self.fp.len();
        let elem = elem_of_ty(&d.ty);
        let esize = elem.size() as usize;
        let count = match d.array_size {
            None => 1,
            Some(size) => {
                // A constant non-positive size is the *static* form of the
                // defect (§6.7.6.2:1); a computed one is the VLA form
                // (§6.7.6.2:5). `-1` or `1-2` are integer constant
                // expressions even though they are not literal tokens;
                // the resolver precomputed which applies.
                let v = self.eval_full(size)?;
                let n = self.as_int(v, unit.expr(size).loc)?.math();
                if n <= 0 {
                    let kind = if d.const_size {
                        UbKind::ArraySizeNotPositive
                    } else {
                        UbKind::VlaSizeNotPositive
                    };
                    return Err(self.ub(
                        kind,
                        d.loc,
                        format!("array `{}` declared with size {n}", self.name(d.name)),
                    ));
                }
                let bytes = n * esize as i128;
                if bytes > MAX_BYTES || self.live_bytes + bytes > MAX_HEAP_BYTES {
                    return Err(stop_unsupported(
                        format!(
                            "array `{}` of size {n} exceeds the engine's memory budget",
                            self.name(d.name)
                        ),
                        d.loc,
                    ));
                }
                n as usize
            }
        };
        let obj = self.alloc(
            ObjName::Sym(d.name),
            count * esize,
            false,
            d.array_size.is_some(),
            elem,
        );
        // The declared identifier's scope begins at the end of its
        // declarator (§6.2.1:7) — *before* the initializer, so that
        // `int x = x;` reads the new, indeterminate x, not an outer one.
        // The resolver mirrored this ordering; binding the slot here
        // makes it true dynamically.
        let slot_base = self.frames.last().expect("active frame").slot_base;
        self.slots[slot_base + d.slot.index()] = obj;
        let pointee = elem.pointee();
        if let Some(init) = d.init {
            let v = self.eval_full(init)?;
            let init_loc = unit.expr(init).loc;
            let v = self.use_value(v, init_loc)?;
            // Initialization converts like simple assignment (§6.7.9:11):
            // the same typed store, at byte offset 0.
            let place = Pointer {
                obj,
                off: 0,
                ty: pointee,
            };
            self.write_typed(place, v, init_loc)?;
        }
        if let Some(items) = &d.array_init {
            if items.len() > count {
                return Err(stop_unsupported(
                    format!(
                        "excess initializers for `{}` (array size {}, {} initializers)",
                        self.name(d.name),
                        count,
                        items.len()
                    ),
                    d.loc,
                ));
            }
            for (i, &item) in items.iter().enumerate() {
                let v = self.eval_full(item)?;
                let item_loc = unit.expr(item).loc;
                let v = self.use_value(v, item_loc)?;
                let place = Pointer {
                    obj,
                    off: (i * esize) as i64,
                    ty: pointee,
                };
                self.write_typed(place, v, item_loc)?;
            }
            // Remaining elements are initialized to zero (§6.7.9:21): the
            // fresh object's bytes are already zero (and all-zero pointer
            // elements read back as null), so the tail just becomes
            // initialized.
            let done = items.len() * esize;
            self.objects[obj_slot(obj)]
                .bytes
                .mark_init(done, count * esize - done);
        }
        // Initialization is not modification: the const flag guards the
        // object only once its declaration completes (§6.7.3:6 vs §6.7.9).
        self.objects[obj_slot(obj)].is_const = d.quals.is_const;
        // The initializer stores were part of the declaration's full
        // expressions; they do not persist into later footprints.
        self.fp.truncate(fp_mark);
        Ok(())
    }
}

/// The pointee type a pointer *to* `ty` accesses through.
pub(crate) fn pointee_of_ty(ty: &Ty) -> PointeeTy {
    match ty {
        Ty::Int(it) => PointeeTy::Scalar(*it),
        Ty::Void => PointeeTy::Void,
        Ty::Ptr(_) => PointeeTy::Ptr,
    }
}

/// Source position of a statement, for step-limit and engine-failure
/// reports (and statement-op locations in the bytecode compiler).
pub(crate) fn stmt_loc(unit: &TranslationUnit, s: &Stmt) -> SourceLoc {
    match s {
        Stmt::Decl(d) => d.loc,
        Stmt::Expr(e) | Stmt::If(e, _, _) | Stmt::While(e, _) => unit.expr(*e).loc,
        Stmt::For(init, cond, step, body) => init
            .map(|s| stmt_loc(unit, unit.stmt(s)))
            .or_else(|| cond.map(|e| unit.expr(e).loc))
            .or_else(|| step.map(|e| unit.expr(e).loc))
            .unwrap_or_else(|| stmt_loc(unit, unit.stmt(*body))),
        Stmt::Return(_, loc)
        | Stmt::Break(loc)
        | Stmt::Continue(loc)
        | Stmt::Block(_, loc)
        | Stmt::Switch(_, _, loc, _)
        | Stmt::Case(_, _, loc)
        | Stmt::Default(_, loc)
        | Stmt::Label(_, _, loc)
        | Stmt::Goto(_, loc)
        | Stmt::Empty(loc) => *loc,
    }
}

/// Whether `target` labels a statement anywhere inside `s` — the test
/// that decides where an in-flight [`Flow::Goto`] lands. Descends into
/// every substatement (labels under nested loops, switches, and `if`
/// arms are all reachable by a jump, §6.8.6.1).
fn stmt_has_label(unit: &TranslationUnit, s: StmtId, target: Symbol) -> bool {
    match unit.stmt(s) {
        Stmt::Label(name, inner, _) => *name == target || stmt_has_label(unit, *inner, target),
        Stmt::Case(_, inner, _) | Stmt::Default(inner, _) => stmt_has_label(unit, *inner, target),
        Stmt::If(_, then, els) => {
            stmt_has_label(unit, *then, target)
                || els.is_some_and(|e| stmt_has_label(unit, e, target))
        }
        Stmt::While(_, body) | Stmt::Switch(_, body, ..) => stmt_has_label(unit, *body, target),
        Stmt::For(init, _, _, body) => {
            init.is_some_and(|i| stmt_has_label(unit, i, target))
                || stmt_has_label(unit, *body, target)
        }
        Stmt::Block(items, _) => items.iter().any(|&t| stmt_has_label(unit, t, target)),
        Stmt::Decl(_)
        | Stmt::Expr(_)
        | Stmt::Return(_, _)
        | Stmt::Break(_)
        | Stmt::Continue(_)
        | Stmt::Goto(_, _)
        | Stmt::Empty(_) => false,
    }
}

/// The statement a chain of labels (`case 1: default: l: stmt`) labels.
fn label_chain_end(unit: &TranslationUnit, mut s: StmtId) -> StmtId {
    while let Stmt::Case(_, inner, _) | Stmt::Default(inner, _) | Stmt::Label(_, inner, _) =
        unit.stmt(s)
    {
        s = *inner;
    }
    s
}

/// The runtime element type of an object declared with `ty`. (`void`
/// local declarations raise [`UbKind::IncompleteTypeObject`] before an
/// object is ever built; for the remaining `void` spellings — parameter
/// lists, which the translation phase rejects — `int` is a harmless
/// placeholder.)
fn elem_of_ty(ty: &Ty) -> Elem {
    match ty {
        Ty::Ptr(inner) => Elem::Ptr(pointee_of_ty(inner)),
        Ty::Int(it) => Elem::Scalar(*it),
        Ty::Void => Elem::Scalar(IntTy::Int),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn run(src: &str) -> Outcome {
        let unit = parse(src).unwrap();
        Interp::new(&unit, Limits::default()).run_main()
    }

    fn ub_kind(src: &str) -> UbKind {
        match run(src) {
            Outcome::Undefined(e) => e.kind(),
            other => panic!("expected UB for {src:?}, got {other:?}"),
        }
    }

    #[test]
    fn defined_programs_complete() {
        assert_eq!(
            run("int main(void) { return 41 + 1; }").exit_code(),
            Some(42)
        );
        assert_eq!(
            run("int sq(int x) { return x * x; } int main(void) { return sq(7); }").exit_code(),
            Some(49)
        );
        assert_eq!(
            run("int main(void) { int s = 0; for (int i = 1; i <= 4; i++) s += i; return s; }")
                .exit_code(),
            Some(10)
        );
    }

    #[test]
    fn falling_off_main_returns_zero() {
        assert_eq!(run("int main(void) { 1 + 1; }").exit_code(), Some(0));
    }

    #[test]
    fn unsequenced_writes() {
        assert_eq!(
            ub_kind("int main(void) { int x = 0; x = x++ + 1; return x; }"),
            UbKind::UnsequencedSideEffect
        );
        assert_eq!(
            ub_kind("int main(void) { int x = 0; return x + (x = 1); }"),
            UbKind::UnsequencedSideEffect
        );
        assert_eq!(
            ub_kind("int main(void) { int i = 0; int a[3] = {0, 0, 0}; a[i++] = i; return 0; }"),
            UbKind::UnsequencedSideEffect
        );
    }

    #[test]
    fn sequenced_siblings_are_fine() {
        assert_eq!(
            run("int main(void) { int x = 1; x = x + 1; return x; }").exit_code(),
            Some(2)
        );
        assert_eq!(
            run("int main(void) { int x = 1; x += x; return x; }").exit_code(),
            Some(2)
        );
        assert_eq!(
            run("int main(void) { int x = 0; return (x = 1, x + 1); }").exit_code(),
            Some(2)
        );
        assert_eq!(
            run("int main(void) { int x = 0; return (x = 1) && (x = 2); }").exit_code(),
            Some(1)
        );
    }

    #[test]
    fn arithmetic_family() {
        assert_eq!(
            ub_kind("int main(void) { return 1 / 0; }"),
            UbKind::DivisionByZero
        );
        assert_eq!(
            ub_kind("int main(void) { return 1 % 0; }"),
            UbKind::ModuloByZero
        );
        assert_eq!(
            ub_kind("int main(void) { int x = 2147483647; return x + 1; }"),
            UbKind::SignedOverflow
        );
        assert_eq!(
            ub_kind("int main(void) { int x = 0 - 2147483647 - 1; return x / -1; }"),
            UbKind::DivisionOverflow
        );
        assert_eq!(
            ub_kind("int main(void) { return 1 << 32; }"),
            UbKind::ShiftTooFar
        );
        assert_eq!(
            ub_kind("int main(void) { return 1 << -1; }"),
            UbKind::ShiftByNegative
        );
        assert_eq!(
            ub_kind("int main(void) { return -1 << 1; }"),
            UbKind::ShiftOfNegative
        );
        assert_eq!(
            ub_kind("int main(void) { return 1 << 31; }"),
            UbKind::ShiftOverflow
        );
    }

    #[test]
    fn memory_family() {
        assert_eq!(
            ub_kind("int main(void) { int a[3] = {1, 2, 3}; return a[3]; }"),
            UbKind::OutOfBoundsRead
        );
        assert_eq!(
            ub_kind("int main(void) { int a[2]; a[5] = 1; return 0; }"),
            UbKind::PointerArithmeticOutOfBounds
        );
        assert_eq!(
            ub_kind("int main(void) { int x; return x; }"),
            UbKind::ReadIndeterminate
        );
        assert_eq!(
            ub_kind("int main(void) { int *p = 0; return *p; }"),
            UbKind::NullDereference
        );
    }

    #[test]
    fn lifetime_family() {
        assert_eq!(
            ub_kind(
                "int *escape(void) { int local = 5; return &local; }\n\
                 int main(void) { int *p = escape(); return *p; }"
            ),
            UbKind::DeadObjectAccess
        );
        assert_eq!(
            ub_kind("int main(void) { int *p = malloc(sizeof(int)); free(p); return *p; }"),
            UbKind::DeadObjectAccess
        );
    }

    #[test]
    fn allocation_family() {
        assert_eq!(
            ub_kind("int main(void) { int *p = malloc(1); free(p); free(p); return 0; }"),
            UbKind::DoubleFree
        );
        assert_eq!(
            ub_kind("int main(void) { int x = 0; free(&x); return 0; }"),
            UbKind::FreeNonHeapPointer
        );
        assert_eq!(
            ub_kind("int main(void) { int *p = malloc(2 * sizeof(int)); free(p + 1); return 0; }"),
            UbKind::FreeInteriorPointer
        );
        assert_eq!(
            run(
                "int main(void) { int *p = malloc(2 * sizeof(int)); p[0] = 7; int v = p[0]; free(p); \
                 return v; }"
            )
            .exit_code(),
            Some(7)
        );
        assert_eq!(
            ub_kind("int main(void) { int *p = malloc(sizeof(int)); return p[0]; }"),
            UbKind::ReadIndeterminate
        );
    }

    #[test]
    fn call_family() {
        assert_eq!(
            ub_kind("int f(int a) { return a; } int main(void) { return f(1, 2); }"),
            UbKind::CallWrongArity
        );
        assert_eq!(
            ub_kind("int f(void) { return 0; } int main(void) { int x = g(); return x; }"),
            UbKind::CallNonFunction
        );
        assert_eq!(
            ub_kind("int f(int a) { if (a) return 1; } int main(void) { return f(0) + 1; }"),
            UbKind::MissingReturnValueUsed
        );
    }

    #[test]
    fn vla_family() {
        assert_eq!(
            ub_kind("int main(void) { int n = 0; int a[n]; return 0; }"),
            UbKind::VlaSizeNotPositive
        );
        assert_eq!(
            ub_kind("int main(void) { int a[0]; return 0; }"),
            UbKind::ArraySizeNotPositive
        );
    }

    #[test]
    fn pointer_relations() {
        assert_eq!(
            ub_kind("int main(void) { int a; int b; return &a < &b; }"),
            UbKind::PointerCompareDifferentObjects
        );
        assert_eq!(
            ub_kind("int main(void) { int a; int b; return &a - &b; }"),
            UbKind::PointerSubtractionDifferentObjects
        );
        assert_eq!(
            run("int main(void) { int a[4]; int *p = &a[1]; int *q = &a[3]; return q - p; }")
                .exit_code(),
            Some(2)
        );
    }

    #[test]
    fn loops_hit_the_step_limit_not_the_stack() {
        // Including loops whose iterations evaluate no expressions at all:
        // every statement and every `for` iteration must tick.
        for src in [
            "int main(void) { while (1) { } return 0; }",
            "int main(void) { for (;;) { } return 0; }",
            "int main(void) { for (;;) ; return 0; }",
            "int main(void) { for (;;) { ; } return 0; }",
        ] {
            let unit = parse(src).unwrap();
            let outcome = Interp::new(
                &unit,
                Limits {
                    max_steps: 10_000,
                    max_call_depth: 16,
                },
            )
            .run_main();
            assert!(
                matches!(outcome, Outcome::Unsupported { .. }),
                "{src}: {outcome:?}"
            );
        }
    }

    #[test]
    fn incdec_update_conflicts_with_writes_in_its_operand() {
        // The ++ side effect and the subscript's assignment are two
        // unsequenced side effects on a[0], exactly like `a[(a[0]=0)] = 7`.
        assert_eq!(
            ub_kind("int main(void) { int a[1]; a[(a[0]=0)]++; return a[0]; }"),
            UbKind::UnsequencedSideEffect
        );
    }

    #[test]
    fn negative_constant_array_size_is_the_static_form() {
        // Any integer constant expression selects the static form, not
        // just a literal token.
        assert_eq!(
            ub_kind("int main(void) { int a[-1]; return 0; }"),
            UbKind::ArraySizeNotPositive
        );
        assert_eq!(
            ub_kind("int main(void) { int a[1-2]; return 0; }"),
            UbKind::ArraySizeNotPositive
        );
        assert_eq!(
            ub_kind("int main(void) { int n = -1; int a[n]; return 0; }"),
            UbKind::VlaSizeNotPositive
        );
    }

    #[test]
    fn address_of_array_designator_is_outside_the_semantics() {
        // `&a` is the non-decay case of §6.3.2.1:3; its array-pointer type
        // is outside the subset, so every spelling of a store through it
        // (`*&a`, `(&a)[0]`, `*(&a + 0)`) is rejected, not reinterpreted
        // as an element-0 store.
        for src in [
            "int main(void) { int a[2]; *&a = 5; return 0; }",
            "int main(void) { int a[2]; (&a)[0] = 5; return 0; }",
            "int main(void) { int a[2]; *(&a + 0) = 5; return 0; }",
        ] {
            let unit = parse(src).unwrap();
            let outcome = Interp::new(&unit, Limits::default()).run_main();
            assert!(
                matches!(outcome, Outcome::Unsupported { .. }),
                "{src}: {outcome:?}"
            );
        }
        // But `*&x` on a scalar stays a plain store.
        assert_eq!(
            run("int main(void) { int x; *&x = 5; return x; }").exit_code(),
            Some(5)
        );
    }

    #[test]
    fn plain_return_in_main_is_not_a_silent_exit_zero() {
        let outcome = run("int main(void) {\n  int x = 0;\n  return;\n}");
        let err = outcome.ub().expect("should be UB").clone();
        assert_eq!(err.kind(), UbKind::ReturnWithoutValue);
        // The report points at the `return;`, not at main's header.
        assert_eq!(err.loc().map(|l| l.line), Some(3));
        // Reaching the `}` still gets the implicit 0 (§5.1.2.2.3:1).
        assert_eq!(run("int main(void) { int x = 1; }").exit_code(), Some(0));
    }

    #[test]
    fn main_returning_a_pointer_is_outside_the_semantics() {
        let outcome = run("int main(void) { int x = 0; return &x; }");
        assert!(
            matches!(outcome, Outcome::Unsupported { .. }),
            "{outcome:?}"
        );
    }

    #[test]
    fn size_one_arrays_decay_like_any_array() {
        assert_eq!(
            run("int main(void) { int a[1]; a[0] = 5; return a[0]; }").exit_code(),
            Some(5)
        );
        assert_eq!(
            run("int main(void) { int n = 1; int a[n]; a[0] = 3; return *a; }").exit_code(),
            Some(3)
        );
    }

    #[test]
    fn shadowing_declaration_is_in_scope_in_its_own_initializer() {
        // §6.2.1:7: the inner x's scope starts before its initializer, so
        // `int x = x;` reads the new, indeterminate x.
        assert_eq!(
            ub_kind("int main(void) { int x = 1; { int x = x; return x; } }"),
            UbKind::ReadIndeterminate
        );
        // But an array *size* is part of the declarator: it still sees the
        // outer binding.
        assert_eq!(
            run("int main(void) { int n = 2; { int n[n]; n[1] = 9; return n[1]; } }").exit_code(),
            Some(9)
        );
    }

    #[test]
    fn array_designators_are_not_modifiable_lvalues() {
        let unit = parse("int main(void) { int a[2]; a = 5; return 0; }").unwrap();
        let outcome = Interp::new(&unit, Limits::default()).run_main();
        assert!(
            matches!(outcome, Outcome::Unsupported { .. }),
            "{outcome:?}"
        );
    }

    #[test]
    fn diagnostics_carry_function_and_line() {
        let outcome = run("int main(void) {\n  int x = 1;\n  return x / 0;\n}");
        let err = outcome.ub().expect("should be UB").clone();
        assert_eq!(err.function(), Some("main"));
        assert_eq!(err.loc().map(|l| l.line), Some(3));
    }

    #[test]
    fn undeclared_identifiers_in_dead_code_stay_unreported() {
        // Resolution leaves unbound names as lazy runtime errors, so a
        // never-executed reference does not change the verdict — exactly
        // the pre-slot-resolution behavior.
        assert_eq!(
            run("int main(void) { if (0) { ghost; } return 0; }").exit_code(),
            Some(0)
        );
        let outcome = run("int main(void) { ghost; return 0; }");
        assert!(
            matches!(outcome, Outcome::Unsupported { ref message, .. }
                if message.contains("ghost")),
            "{outcome:?}"
        );
    }

    #[test]
    fn redeclaration_is_reported_only_when_executed() {
        let outcome = run("int main(void) { int x = 1; int x = 2; return x; }");
        assert!(
            matches!(outcome, Outcome::Unsupported { ref message, .. }
                if message.contains("redeclaration of `x`")),
            "{outcome:?}"
        );
        // A redeclaration in never-reached code is not reported.
        assert_eq!(
            run("int main(void) { if (0) { int y = 1; int y = 2; y; } return 0; }").exit_code(),
            Some(0)
        );
    }

    #[test]
    fn slot_resolved_diagnostics_print_the_original_spelling() {
        // Two distinct slots share the spelling `x`; the report must name
        // `x`, not a slot number, and point at the inner use.
        let outcome = run("int main(void) {\n  int x = 1;\n  {\n    int x;\n    return x;\n  }\n}");
        let err = outcome.ub().expect("should be UB").clone();
        assert_eq!(err.kind(), UbKind::ReadIndeterminate);
        assert_eq!(err.detail(), Some("`x` holds an indeterminate value"));
        assert_eq!(err.loc().map(|l| l.line), Some(5));
    }

    #[test]
    fn redeclaring_a_parameter_at_body_top_level_is_rejected() {
        // Parameters share the body's outermost block scope (§6.2.1:4),
        // so this is a redeclaration — every C compiler rejects it, and
        // the checker must not hand down a clean verdict.
        let outcome = run("int f(int a) { int a = 2; return a; } int main(void) { return f(1); }");
        assert!(
            matches!(outcome, Outcome::Unsupported { ref message, .. }
                if message.contains("redeclaration of `a`")),
            "{outcome:?}"
        );
        // A *nested* block may still shadow a parameter.
        assert_eq!(
            run("int f(int a) { { int a = 2; return a; } } int main(void) { return f(1); }")
                .exit_code(),
            Some(2)
        );
    }

    #[test]
    fn use_before_declaration_in_same_block_sees_the_outer_object() {
        // §6.2.1:7: before the block's own `int x` is reached, `x` still
        // means the outer declaration — slot resolution must not bind the
        // earlier use to the later declaration.
        assert_eq!(
            run("int main(void) { int x = 7; { int y = x; int x = 1; return y * 10 + x; } }")
                .exit_code(),
            Some(71)
        );
    }

    #[test]
    fn recursion_works_on_the_shared_stacks() {
        assert_eq!(
            run(
                "int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }\n\
                 int main(void) { return fib(10); }"
            )
            .exit_code(),
            Some(55)
        );
    }

    #[test]
    fn switch_selects_matches_and_falls_through() {
        assert_eq!(
            run("int main(void) { int x = 2; int r = 0; \
                 switch (x) { case 1: r = 1; break; case 2: r = 2; break; default: r = 9; } \
                 return r; }")
            .exit_code(),
            Some(2)
        );
        // Fallthrough: case 1 runs into case 2's statements.
        assert_eq!(
            run("int main(void) { int r = 0; \
                 switch (1) { case 1: r += 1; case 2: r += 10; break; default: r += 100; } \
                 return r; }")
            .exit_code(),
            Some(11)
        );
        // No match and no default skips the body entirely.
        assert_eq!(
            run("int main(void) { int r = 5; switch (7) { case 1: r = 1; } return r; }")
                .exit_code(),
            Some(5)
        );
        // Default is selected regardless of its position.
        assert_eq!(
            run("int main(void) { int r = 0; \
                 switch (3) { default: r = 9; break; case 1: r = 1; } return r; }")
            .exit_code(),
            Some(9)
        );
        // Chained labels select the shared statement.
        assert_eq!(
            run("int main(void) { int r = 0; switch (2) { case 1: case 2: r = 4; } return r; }")
                .exit_code(),
            Some(4)
        );
        // Single-statement body.
        assert_eq!(
            run("int main(void) { int r = 0; switch (1) case 1: r = 3; return r; }").exit_code(),
            Some(3)
        );
    }

    #[test]
    fn switch_case_labels_must_be_constant_when_dispatched() {
        assert_eq!(
            ub_kind("int main(void) { int k = 1; switch (1) { case k: return 1; } return 0; }"),
            UbKind::NonConstantCaseLabel
        );
        // An undefined operation inside a case's constant expression is
        // the corresponding arithmetic defect.
        assert_eq!(
            ub_kind("int main(void) { switch (1) { case 1 / 0: return 1; } return 0; }"),
            UbKind::DivisionByZero
        );
    }

    #[test]
    fn switch_with_nested_cases_is_unsupported_not_misjudged() {
        let outcome = run("int main(void) { switch (9) { case 1: ; { case 2: ; } } return 0; }");
        assert!(
            matches!(outcome, Outcome::Unsupported { ref message, .. }
                if message.contains("top level of a switch")),
            "{outcome:?}"
        );
        // A nested case outranks the top-level `default:` in real C
        // (here it would execute `case 2` and return 5) — the engine
        // must stop rather than dispatch to default and misjudge.
        let outcome = run("int main(void) { int r = 0; \
             switch (2) { case 1: r = 1; break; { case 2: r = 5; break; } default: r = 9; } \
             return r; }");
        assert!(
            matches!(outcome, Outcome::Unsupported { ref message, .. }
                if message.contains("top level of a switch")),
            "{outcome:?}"
        );
        // Same for a single-statement body whose chain `default:` wraps
        // nested cases.
        let outcome =
            run("int main(void) { int r = 0; switch (2) default: { case 2: r = 5; } return r; }");
        assert!(
            matches!(outcome, Outcome::Unsupported { ref message, .. }
                if message.contains("top level of a switch")),
            "{outcome:?}"
        );
        // But a *matching* top-level case still dispatches even with
        // nested labels elsewhere (a valid program cannot duplicate the
        // matched value).
        assert_eq!(
            run("int main(void) { int r = 0; \
                 switch (1) { case 1: r = 7; break; { case 2: r = 5; } } return r; }")
            .exit_code(),
            Some(7)
        );
    }

    #[test]
    fn goto_back_into_an_earlier_case_keeps_the_body_alive() {
        // A jump within the switch body does not leave it (§6.2.4:6):
        // `y` is still alive when control lands on the earlier label.
        let src = "int main(void) { int *p = 0; int r = 0; switch (1) { \
                   case 0: l: r = *p; break; case 1: ; int y = 7; p = &y; goto l; } \
                   return r; }";
        for engine in [Engine::Tree, Engine::Bytecode] {
            let unit = parse(src).unwrap();
            let outcome = Interp::with_engine(&unit, Limits::default(), engine).run_main();
            assert_eq!(outcome.exit_code(), Some(7), "{engine:?}: {outcome:?}");
        }
    }

    #[test]
    fn break_leaves_the_switch_but_return_propagates() {
        assert_eq!(
            run("int main(void) { switch (1) { case 1: return 42; } return 0; }").exit_code(),
            Some(42)
        );
        // `continue` inside a switch belongs to the enclosing loop.
        assert_eq!(
            run("int main(void) { int s = 0; \
                 for (int i = 0; i < 3; i++) { switch (i) { case 1: continue; } s += 1; } \
                 return s; }")
            .exit_code(),
            Some(2)
        );
    }

    #[test]
    fn labels_are_transparent_and_goto_executes() {
        assert_eq!(
            run("int main(void) { int r = 0; here: r = 6; return r; }").exit_code(),
            Some(6)
        );
        // Forward jump: the skipped statement never executes.
        assert_eq!(
            run("int main(void) { int r = 7; goto out; r = 0; out: return r; }").exit_code(),
            Some(7)
        );
        // Backward jump forms a loop.
        assert_eq!(
            run("int main(void) { int i = 0; again: i++; if (i < 5) goto again; return i; }")
                .exit_code(),
            Some(5)
        );
        // A goto whose label was never defined is a lazy stop when (and
        // only when) it executes.
        let outcome = run("int main(void) { goto nowhere; return 0; }");
        assert!(
            matches!(outcome, Outcome::Unsupported { ref message, .. } if message.contains("goto")),
            "{outcome:?}"
        );
        assert_eq!(
            run("int main(void) { if (0) goto nowhere; return 1; }").exit_code(),
            Some(1)
        );
    }

    #[test]
    fn goto_interacts_with_scopes_and_lifetimes() {
        // Jumping out of a block ends the lifetimes it owns; re-entering
        // creates fresh (uninitialized) objects.
        assert_eq!(
            run("int main(void) { int n = 0; \
                 { int x = 1; n += x; if (n < 3) goto back; } return n; \
                 back: { int y = 2; n += y; } goto fwd; fwd: return n; }")
            .exit_code(),
            Some(3)
        );
        // A jump within one block does not leave it (§6.2.4:6): the
        // block's objects keep their values across the internal goto.
        assert_eq!(
            run("int main(void) { int i = 0; int s = 0; top: s += i; i++; \
                 if (i < 4) goto top; return s; }")
            .exit_code(),
            Some(6)
        );
        // Jumping over a declaration: the declaration never executes, so
        // using the name afterwards is an honest engine stop (the
        // dynamic model binds slots only when declarations run) — in
        // both engines identically.
        let outcome = run("int main(void) { goto skip; int x = 1; skip: x; return x; }");
        assert!(
            matches!(outcome, Outcome::Unsupported { ref message, .. }
                if message.contains("before its declaration executed")),
            "{outcome:?}"
        );
    }

    #[test]
    fn goto_executes_under_the_tree_engine_too() {
        let unit = crate::parser::parse(
            "int main(void) { int i = 0; again: i++; if (i < 5) goto again; return i; }",
        )
        .unwrap();
        let outcome = Interp::with_engine(&unit, Limits::default(), Engine::Tree).run_main();
        assert_eq!(outcome.exit_code(), Some(5));
        let unit =
            crate::parser::parse("int main(void) { goto skip; int x = 1; skip: x; return x; }")
                .unwrap();
        let outcome = Interp::with_engine(&unit, Limits::default(), Engine::Tree).run_main();
        assert!(
            matches!(outcome, Outcome::Unsupported { ref message, .. }
                if message.contains("before its declaration executed")),
            "{outcome:?}"
        );
    }

    #[test]
    fn writes_to_const_defined_objects_are_ub() {
        assert_eq!(
            ub_kind("int main(void) { const int x = 1; x = 2; return x; }"),
            UbKind::WriteToConst
        );
        // …even through a pointer (§6.7.3:6 is about the definition).
        assert_eq!(
            ub_kind("int main(void) { const int x = 1; int *p = &x; *p = 2; return x; }"),
            UbKind::WriteToConst
        );
        // A const pointer to mutable data: the pointee stays writable.
        assert_eq!(
            run("int main(void) { int x = 1; int * const p = &x; *p = 5; return x; }").exit_code(),
            Some(5)
        );
    }

    #[test]
    fn unsigned_arithmetic_wraps_as_defined_behavior() {
        // §6.2.5:9 — no false SignedOverflow on any of these.
        assert_eq!(
            run("int main(void) { unsigned int u = 4294967295u; u = u + 1u; return u == 0u; }")
                .exit_code(),
            Some(1)
        );
        assert_eq!(
            run("int main(void) { unsigned int u = 0u; u = u - 1u; return u == 4294967295u; }")
                .exit_code(),
            Some(1)
        );
        assert_eq!(
            run("int main(void) { unsigned int s = 1u << 31; return s == 2147483648u; }")
                .exit_code(),
            Some(1)
        );
        // …while the same shapes at signed int stay UB.
        assert_eq!(
            ub_kind("int main(void) { int x = 2147483647; return x + 1; }"),
            UbKind::SignedOverflow
        );
        assert_eq!(
            ub_kind("int main(void) { return 1 << 31; }"),
            UbKind::ShiftOverflow
        );
    }

    #[test]
    fn shifts_are_checked_at_the_promoted_left_operands_width() {
        // long shifts by 32..62 are defined at width 64…
        assert_eq!(
            run("int main(void) { long one = 1; return (one << 40) > 0 && (one << 62) > 0; }")
                .exit_code(),
            Some(1)
        );
        // …shifting the 1 into the sign bit overflows long (§6.5.7:4)…
        assert_eq!(
            ub_kind("int main(void) { long one = 1; return (one << 63) < 0; }"),
            UbKind::ShiftOverflow
        );
        // …and 64 is the first undefined count.
        assert_eq!(
            ub_kind(
                "int main(void) { long one = 1; int k = 64; long b = one << k; return b == 0; }"
            ),
            UbKind::ShiftTooFar
        );
        // The *promoted* left operand: a char shifts at width 32, not 8.
        assert_eq!(
            run("int main(void) { char c = 1; return (c << 20) == 1048576; }").exit_code(),
            Some(1)
        );
    }

    #[test]
    fn division_overflow_is_per_width() {
        assert_eq!(
            ub_kind("int main(void) { int m = -2147483647 - 1; return m % -1; }"),
            UbKind::DivisionOverflow
        );
        // The same numerator is fine at long width.
        assert_eq!(
            run("int main(void) { long m = -2147483647 - 1; return (m / -1) > 0; }").exit_code(),
            Some(1)
        );
        // Unsigned division has no overflow case.
        assert_eq!(
            run("int main(void) { unsigned int u = 2147483648u; return (u / 1u) != 0u; }")
                .exit_code(),
            Some(1)
        );
    }

    #[test]
    fn narrowing_stores_wrap_with_a_note_not_a_verdict() {
        let unit = parse(
            "int main(void) { char c = 300; short s = 70000; _Bool b = 42; \
             return c == 44 && s == 4464 && b == 1; }",
        )
        .unwrap();
        let mut interp = Interp::new(&unit, Limits::default());
        let outcome = interp.run_main();
        assert_eq!(outcome.exit_code(), Some(1), "{outcome:?}");
        // Two implementation-defined notes: the char and short stores.
        // Conversion to _Bool is defined (§6.3.1.2) and gets none.
        assert_eq!(interp.notes().len(), 2, "{:?}", interp.notes());
        assert!(interp.notes()[0].1.contains("`char`"));
        assert!(interp.notes()[1].1.contains("`short`"));
    }

    #[test]
    fn mixed_width_expressions_promote_and_convert() {
        // char operands promote to int, so the multiply overflows int…
        assert_eq!(
            ub_kind(
                "int main(void) { short a = 32767; short b = 32767; int p = a * b; \
                     int q = p * 4; return q; }"
            ),
            UbKind::SignedOverflow
        );
        // …but the promoted arithmetic itself is fine (no char-width wrap).
        assert_eq!(
            run("int main(void) { char a = 100; char b = 100; return (a + b) == 200; }")
                .exit_code(),
            Some(1)
        );
        // Usual arithmetic conversions: -1 meets unsigned as UINT_MAX.
        assert_eq!(
            run("int main(void) { unsigned int u = 1u; return (-1 < u) == 0; }").exit_code(),
            Some(1)
        );
        // long absorbs unsigned int on LP64 (no wrap at 2^32).
        assert_eq!(
            run(
                "int main(void) { unsigned int u = 4294967295u; long l = u + 1L; \
                 return l == 4294967296; }"
            )
            .exit_code(),
            Some(1)
        );
    }

    #[test]
    fn sizeof_evaluates_without_evaluating_its_operand() {
        assert_eq!(
            run(
                "int main(void) { return sizeof(int) == 4u && sizeof(long) == 8u \
                 && sizeof(char) == 1u && sizeof(int *) == 8u; }"
            )
            .exit_code(),
            Some(1)
        );
        // `sizeof x` uses the declared type; `sizeof (x + 1L)` the
        // converted one.
        assert_eq!(
            run("int main(void) { short x = 1; return sizeof x == 2u \
                 && sizeof(x + 1) == 4u && sizeof(x + 1L) == 8u; }")
            .exit_code(),
            Some(1)
        );
        // An array designator under sizeof does not decay.
        assert_eq!(
            run("int main(void) { long a[3]; return sizeof a == 24u && sizeof(a + 0) == 8u; }")
                .exit_code(),
            Some(1)
        );
        // The operand is not evaluated: no division by zero here
        // (§6.5.3.4:2).
        assert_eq!(
            run("int main(void) { int x = 0; return sizeof(1 / x) == 4u; }").exit_code(),
            Some(1)
        );
    }

    #[test]
    fn typed_parameters_and_returns_convert_like_assignment() {
        // The argument converts to the parameter's type (note-worthy but
        // defined), and the return value to the return type.
        assert_eq!(
            run("char trunc(char c) { return c; } \
                 int main(void) { return trunc(300) == 44; }")
            .exit_code(),
            Some(1)
        );
        assert_eq!(
            run("unsigned int wrap(void) { return -1; } \
                 int main(void) { return wrap() == 4294967295u; }")
            .exit_code(),
            Some(1)
        );
        // A long parameter keeps 64-bit values intact.
        assert_eq!(
            run("long pass(long v) { return v; } \
                 int main(void) { return pass(1L << 40) == (1L << 40); }")
            .exit_code(),
            Some(1)
        );
    }

    #[test]
    fn incdec_respects_the_object_type() {
        // unsigned char wraps 255 -> 0: defined.
        assert_eq!(
            run("int main(void) { unsigned char c = 255; c++; return c == 0; }").exit_code(),
            Some(1)
        );
        // int at INT_MAX overflows: UB.
        assert_eq!(
            ub_kind("int main(void) { int x = 2147483647; x++; return x; }"),
            UbKind::SignedOverflow
        );
        // unsigned int at UINT_MAX wraps: defined.
        assert_eq!(
            run("int main(void) { unsigned int u = 4294967295u; u++; return u == 0u; }")
                .exit_code(),
            Some(1)
        );
    }

    #[test]
    fn switch_dispatches_on_converted_values() {
        // The controlling expression is promoted; a char selects its
        // promoted value's case.
        assert_eq!(
            run("int main(void) { char c = 65; switch (c) { case 'A': return 7; } return 0; }")
                .exit_code(),
            Some(7)
        );
        // long-valued cases work at full width.
        assert_eq!(
            run("int main(void) { long v = 1L << 40; \
                 switch (v == (1L << 40)) { case 1: return 3; } return 0; }")
            .exit_code(),
            Some(3)
        );
    }

    #[test]
    fn case_constants_convert_to_the_controlling_type() {
        // §6.8.4.2:5 — `case -1:` converts to UINT_MAX for an unsigned
        // controlling expression, exactly as in real C.
        assert_eq!(
            run("int main(void) { unsigned int u = 0u - 1u; \
                 switch (u) { case -1: return 1; } return 0; }")
            .exit_code(),
            Some(1)
        );
        // …and a case constant the controlling type cannot represent
        // wraps on conversion before comparing.
        assert_eq!(
            run("int main(void) { int x = 0; \
                 switch (x) { case 4294967296L: return 1; } return 0; }")
            .exit_code(),
            Some(1)
        );
    }

    #[test]
    fn heap_cells_are_untyped_so_wide_stores_survive() {
        // malloc'd memory has no declared type (§6.5:6): a long stored
        // through a long* must read back intact, not truncate to int.
        assert_eq!(
            run(
                "int main(void) { long *p = malloc(2 * sizeof(long)); p[0] = 4294967296L; \
                 return p[0] == 4294967296L; }"
            )
            .exit_code(),
            Some(1)
        );
    }

    /// Programs whose `sizeof` operands the type table types: each
    /// returns 1 when every size matches LP64.
    const SIZEOF_TABLE_PROGRAMS: &[&str] = &[
        // A dereference or subscript has the pointee's size.
        "int main(void) { int v = 3; int *p = &v; long *l = malloc(16); \
         return sizeof *p == 4u && sizeof p[0] == 4u && sizeof *l == 8u \
         && sizeof l[1] == 8u; }",
        // A pointer difference is a `ptrdiff_t`, `long` on LP64.
        "int main(void) { int a[2]; int *q = a; return sizeof(q - q) == 8u; }",
        // An assignment has its left operand's type and is not evaluated.
        "int main(void) { int x = 1; char c = 2; \
         return sizeof(x = 5) == 4u && sizeof(c += 1) == 1u && x == 1 && c == 2; }",
        // A VLA's size is its live object's length; an element's is not.
        "int main(void) { int n = 3; long v[n]; return sizeof v == 24u && sizeof v[0] == 8u; }",
        // `?:` converts to the common type of both arms (§6.5.15:5), even
        // when an arm is a dereference.
        "int main(void) { int v = -1; int *p = &v; \
         return ((1 ? *p : 0u) >> 31) == 1 && sizeof(1 ? *p : 0L) == 8u; }",
    ];

    #[test]
    fn sizeof_reads_the_type_table() {
        for src in SIZEOF_TABLE_PROGRAMS {
            assert_eq!(run(src).exit_code(), Some(1), "{src}");
        }
        // Only an operand the table cannot type stays a checker
        // limitation.
        assert!(matches!(
            run("int main(void) { return sizeof ghost; }"),
            Outcome::Unsupported { message, .. }
                if message.contains("outside the modeled semantics")
        ));
    }

    #[test]
    fn sizeof_of_a_non_vla_is_a_constant_array_size() {
        // `int a[sizeof x]` is an ordinary (non-VLA) array, so jumping
        // over its declaration is legal — no JumpIntoVlaScope and no
        // VLA-form verdicts.
        assert_eq!(
            ub_kind("int main(void) { int x; int a[sizeof x - 4]; return 0; }"),
            // sizeof x - 4 == 0: the *static* array-size form, proving
            // const_size was set.
            UbKind::ArraySizeNotPositive
        );
        // sizeof of a VLA stays non-constant (§6.5.3.4:2): the VLA form.
        assert_eq!(
            ub_kind("int main(void) { int n = 4; int v[n]; int a[sizeof v - 16]; return 0; }"),
            UbKind::VlaSizeNotPositive
        );
    }

    #[test]
    fn oversized_objects_are_an_engine_limit_not_a_crash() {
        for src in [
            "int main(void) { long n = 1; n = n << 40; int a[n]; return 0; }",
            "int main(void) { int *p = malloc(1 << 30); return 0; }",
        ] {
            let unit = parse(src).unwrap();
            let outcome = Interp::new(&unit, Limits::default()).run_main();
            assert!(
                matches!(outcome, Outcome::Unsupported { .. }),
                "{src}: {outcome:?}"
            );
        }
    }

    #[test]
    fn malloc_counts_bytes_not_cells() {
        // The documented cell-model divergence is closed: malloc(2) is
        // two *bytes*, not enough for an int.
        assert_eq!(
            ub_kind("int main(void) { int *p = malloc(2); p[0] = 1; return 0; }"),
            UbKind::OutOfBoundsWrite
        );
        assert_eq!(
            run(
                "int main(void) { long *p = malloc(sizeof(long)); p[0] = 9; int v = p[0]; \
                 free(p); return v; }"
            )
            .exit_code(),
            Some(9)
        );
    }

    #[test]
    fn live_heap_bytes_are_budgeted_under_both_engines() {
        // Each 40 MB allocation is under the one-object budget; the
        // seventh live one would take the total past `MAX_HEAP_BYTES`.
        let leak = "int main(void) {\n  int i = 0;\n  while (i < 3000) {\n    \
                    malloc(40000000);\n    i++;\n  }\n  return 0;\n}";
        // Freed bytes leave the total, however often the loop repeats.
        let churn = "int main(void) { int i = 0; \
                     while (i < 8) { free(malloc(40000000)); i++; } return 0; }";
        for engine in [Engine::Tree, Engine::Bytecode] {
            let unit = parse(leak).unwrap();
            let outcome = Interp::with_engine(&unit, Limits::default(), engine).run_main();
            assert!(
                matches!(&outcome, Outcome::Unsupported { message, loc }
                    if message == "malloc(40000000) exceeds the engine's memory budget"
                        && loc.line == 4),
                "{engine:?}: {outcome:?}"
            );
            let unit = parse(churn).unwrap();
            let outcome = Interp::with_engine(&unit, Limits::default(), engine).run_main();
            assert_eq!(outcome.exit_code(), Some(0), "{engine:?}: {outcome:?}");
        }
    }

    #[test]
    fn live_automatic_bytes_are_budgeted_under_both_engines() {
        // Each frame's 40 MB array is under the one-object budget; the
        // seventh live one would take the total past `MAX_HEAP_BYTES`.
        let deep = "int f(int d) {\n  char a[40000000];\n  a[0] = 1;\n  \
                    if (d > 0) { int r = f(d - 1); return r + a[0]; }\n  return a[0];\n}\n\
                    int main(void) { return f(30); }";
        // Bytes leave the total when a block's lifetime ends.
        let churn = "int main(void) { for (int i = 0; i < 8; i++) { char a[40000000]; \
                     a[0] = 1; } return 0; }";
        for engine in [Engine::Tree, Engine::Bytecode] {
            let unit = parse(deep).unwrap();
            let outcome = Interp::with_engine(&unit, Limits::default(), engine).run_main();
            assert!(
                matches!(&outcome, Outcome::Unsupported { message, loc }
                    if message == "array `a` of size 40000000 exceeds the engine's memory budget"
                        && loc.line == 2),
                "{engine:?}: {outcome:?}"
            );
            let unit = parse(churn).unwrap();
            let outcome = Interp::with_engine(&unit, Limits::default(), engine).run_main();
            assert_eq!(outcome.exit_code(), Some(0), "{engine:?}: {outcome:?}");
        }
    }

    #[test]
    fn malloc_zero_is_legal_to_free_but_ub_to_dereference() {
        // §7.22.3:1 — a zero-size allocation behaves like any other
        // object pointer except that it must not be used to access one.
        assert_eq!(
            run("int main(void) { int *p = malloc(0); free(p); return 0; }").exit_code(),
            Some(0)
        );
        assert_eq!(
            ub_kind("int main(void) { int *p = malloc(0); return p[0]; }"),
            UbKind::OutOfBoundsRead
        );
        assert_eq!(
            ub_kind("int main(void) { int *p = malloc(0); p[0] = 1; return 0; }"),
            UbKind::OutOfBoundsWrite
        );
        // Distinct zero-size allocations are distinct objects.
        assert_eq!(
            run("int main(void) { int *p = malloc(0); int *q = malloc(0); \
                 int r = p == q; free(p); free(q); return r; }")
            .exit_code(),
            Some(0)
        );
    }

    #[test]
    fn one_past_the_end_at_byte_granularity() {
        // The one-past pointer exists at both element and byte stride…
        assert_eq!(
            run(
                "int main(void) { int a[2]; a[0] = 1; a[1] = 2; int *p = a + 2; \
                 return (int)(p - a); }"
            )
            .exit_code(),
            Some(2)
        );
        assert_eq!(
            run("int main(void) { int a[2]; char *c = (char *)a + 8; \
                 return c == (char *)(a + 2); }")
            .exit_code(),
            Some(1)
        );
        // …but one element past one-past is out, as is byte 9 of 8.
        assert_eq!(
            ub_kind("int main(void) { int a[2]; int *p = a + 3; return 0; }"),
            UbKind::PointerArithmeticOutOfBounds
        );
        assert_eq!(
            ub_kind("int main(void) { int a[2]; char *c = (char *)a + 9; return 0; }"),
            UbKind::PointerArithmeticOutOfBounds
        );
        // Dereferencing the one-past pointer overruns the object.
        assert_eq!(
            ub_kind("int main(void) { int a[2] = {1, 2}; return *(a + 2); }"),
            UbKind::OutOfBoundsRead
        );
    }

    #[test]
    fn per_byte_init_tracking_across_partial_stores() {
        // One byte of a long initialized: the 8-byte read is UB,
        // byte-precise.
        assert_eq!(
            ub_kind(
                "int main(void) { long l; char *p = (char *)&l; p[0] = 1; \
                     return l == 1; }"
            ),
            UbKind::ReadIndeterminate
        );
        // Writing every byte completes the object.
        assert_eq!(
            run("int main(void) { long l; char *p = (char *)&l; \
                 for (int i = 0; i < 8; i++) p[i] = 0; return l == 0; }")
            .exit_code(),
            Some(1)
        );
        // The partial-init report names the first indeterminate byte.
        let outcome = run("int main(void) { long l; char *p = (char *)&l; p[0] = 1; \
                           return l == 1; }");
        let err = outcome.ub().expect("should be UB");
        assert!(
            err.detail().is_some_and(|d| d.contains("byte 1")),
            "{err:?}"
        );
        // At a nonzero offset the byte index is *read-relative*: a[1]'s
        // read covers object bytes 8..16, and byte 9 of the object is
        // byte 1 of that read.
        let outcome = run("int main(void) { long a[2]; \
             unsigned char *c = (unsigned char *)a; \
             for (int i = 0; i < 16; i++) if (i != 9) c[i] = 0; \
             return a[1] == 0; }");
        let err = outcome.ub().expect("should be UB");
        assert!(
            err.detail()
                .is_some_and(|d| d.contains("byte 1 of the 8-byte read at byte offset 8")),
            "{err:?}"
        );
    }

    #[test]
    fn char_sweep_reassembles_the_representation() {
        // §6.5:7 — character lvalues may read any object's bytes, and
        // the little-endian reassembly equals the stored value.
        assert_eq!(
            run(
                "int main(void) { long l = 258; unsigned char *p = (unsigned char *)&l; \
                 long r = 0; for (int i = 7; i >= 0; i--) r = (r << 8) + p[i]; \
                 return r == 258; }"
            )
            .exit_code(),
            Some(1)
        );
        // A negative int's bytes reassemble bit-for-bit too.
        assert_eq!(
            run(
                "int main(void) { int x = 0 - 2; unsigned char *p = (unsigned char *)&x; \
                 unsigned int r = 0u; for (int i = 3; i >= 0; i--) r = (r << 8) + p[i]; \
                 return r == 4294967294u; }"
            )
            .exit_code(),
            Some(1)
        );
    }

    #[test]
    fn misaligned_pointer_conversions_are_ub_at_the_cast() {
        // §6.3.2.3:7 — byte offset 1 of a long can never hold an int.
        assert_eq!(
            ub_kind(
                "int main(void) { long l = 0; char *c = (char *)&l; \
                     int *p = (int *)(c + 1); return 0; }"
            ),
            UbKind::MisalignedAccess
        );
        // Character casts never misalign (alignment 1).
        assert_eq!(
            run("int main(void) { long l = 7; char *c = (char *)&l + 3; return c != 0; }")
                .exit_code(),
            Some(1)
        );
    }

    #[test]
    fn effective_type_violations_raise_kind_33() {
        // An aligned, in-bounds int access to a long object is still
        // §6.5:7 — for writes…
        assert_eq!(
            ub_kind("int main(void) { long l = 42; int *p = (int *)&l; *p = 7; return 0; }"),
            UbKind::AccessWrongEffectiveType
        );
        // …and for reads (offset 4 is int-aligned, so the cast is fine
        // and the *access* is the defect).
        assert_eq!(
            ub_kind(
                "int main(void) { long l = 0; char *c = (char *)&l; \
                     int *p = (int *)(c + 4); return *p; }"
            ),
            UbKind::AccessWrongEffectiveType
        );
        // Same-rank signed/unsigned lvalues are compatible (§6.5:7).
        assert_eq!(
            run("int main(void) { int x = 0 - 1; \
                 unsigned int *p = (unsigned int *)&x; return *p == 4294967295u; }")
            .exit_code(),
            Some(1)
        );
        // Heap memory takes the effective type of what was stored.
        assert_eq!(
            ub_kind(
                "int main(void) { int *p = malloc(2 * sizeof(int)); \
                     p[0] = 1; p[1] = 2; long *q = (long *)p; return *q == 1; }"
            ),
            UbKind::AccessWrongEffectiveType
        );
    }

    #[test]
    fn stored_pointers_keep_provenance() {
        // Pointers stored through pointer lvalues read back intact…
        assert_eq!(
            run("int main(void) { int x = 5; int *p = &x; int **q = &p; return **q; }").exit_code(),
            Some(5)
        );
        // …their representation has no numeric bytes to sweep…
        let outcome = run("int main(void) { int x = 5; int *p = &x; \
             unsigned char *c = (unsigned char *)&p; return c[0]; }");
        assert!(
            matches!(outcome, Outcome::Unsupported { .. }),
            "{outcome:?}"
        );
        // …and a byte store into one destroys it: the other seven bytes
        // go indeterminate, so reading the pointer is UB.
        assert_eq!(
            ub_kind(
                "int main(void) { int x = 5; int *p = &x; \
                     unsigned char *c = (unsigned char *)&p; c[0] = 0; return *p; }"
            ),
            UbKind::ReadIndeterminate
        );
    }

    #[test]
    fn casts_convert_values_and_types() {
        // Integer casts convert with the usual §6.3.1.3 semantics.
        assert_eq!(
            run(
                "int main(void) { return (char)300 == 44 && (unsigned char)300 == 44 \
                 && (long)2147483647 + 1 == 2147483648L && (_Bool)42 == 1; }"
            )
            .exit_code(),
            Some(1)
        );
        // `(void)e` discards the value; using it is the void-value defect.
        assert_eq!(
            run("int main(void) { int x = 1; (void)(x = 2); return x; }").exit_code(),
            Some(2)
        );
        // The null pointer constant casts to any pointer type.
        assert_eq!(
            run("int main(void) { char *p = (char *)0; return p == 0; }").exit_code(),
            Some(1)
        );
        // Casting does not move the pointer: equality is by address.
        assert_eq!(
            run("int main(void) { long l = 1; return (char *)&l == (char *)(void *)&l; }")
                .exit_code(),
            Some(1)
        );
    }

    #[test]
    fn detected_kinds_registry_matches_this_file() {
        let src = include_str!("eval.rs");
        // Every listed kind is actually referenced by the engine…
        for k in detected_kinds() {
            assert!(
                src.contains(&format!("UbKind::{k:?}")),
                "{k:?} is listed in detected_kinds() but never raised here"
            );
        }
        // …and every kind the engine references is listed, so the
        // registry cannot rot in either direction.
        let listed: std::collections::BTreeSet<String> =
            detected_kinds().iter().map(|k| format!("{k:?}")).collect();
        for (idx, _) in src.match_indices("UbKind::") {
            let name: String = src[idx + "UbKind::".len()..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric())
                .collect();
            // Skip this test's own quoted `UbKind::` fragments, which are
            // followed by punctuation rather than a variant name.
            if name.is_empty() {
                continue;
            }
            assert!(
                listed.contains(&name),
                "UbKind::{name} appears in eval.rs but is missing from detected_kinds()"
            );
        }
    }
}
