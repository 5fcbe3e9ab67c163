//! Execution telemetry: what the engines actually did, counted.
//!
//! [`ExecProfile`] collects the counters behind `cundef --profile`: the
//! opcode dispatch histogram, superinstruction and word-fast-path hit
//! rates versus typed-core fallbacks, footprint-elision rate, and the
//! memory story (objects allocated, peak live bytes, heap churn). The
//! ROADMAP's residual-overhead claims — per-declaration allocation,
//! frame setup, `mem/*` byte sweeps — become first-class numbers here
//! instead of ad-hoc measurements.
//!
//! Cost discipline: profiling is opt-in per [`crate::eval::Interp`],
//! and the bytecode dispatch loop is monomorphized over a
//! `const PROFILE: bool`, so the disabled path contains **no** counter
//! code at all — the `--min-check-geomean` CI guard keeps that honest.
//! The shared allocation paths (used by both engines) guard their
//! counters behind one predictable branch, which is noise next to the
//! allocation itself.

use std::collections::BTreeMap;

/// Fused superinstructions: one dispatch covering several tree nodes.
const SUPERINSTRUCTIONS: &[&str] = &[
    "BinSS",
    "BinSC",
    "BinVS",
    "Bin2SF",
    "Bin2VF",
    "BrCmpSS",
    "BrCmpSC",
    "AssignSlot",
    "AssignSlotPop",
    "IncDecSlotStmt",
    "IndexRead",
    "ByteSweep",
    "Bin2FC",
    "TailSelf",
];

/// Honest tree-walker fallbacks: whole constructs handed back to the
/// reference semantics (and therefore to full footprint tracking).
const TREE_FALLBACKS: &[&str] = &["EvalFull", "EvalFullPop", "DeclFull"];

/// Ops that terminate a *compiled* full expression: each one executed
/// is a full expression whose §6.5:2 footprint traffic the compiler
/// proved vacuous and elided (`compile::elidable`).
const ELIDED_BOUNDARIES: &[&str] = &[
    "PopSeq",
    "AssignSlotPop",
    "IncDecSlotStmt",
    "BrCmpSS",
    "BrCmpSC",
    "BranchFalseSeq",
    "Switch",
    "DeclInit",
    "Ret",
];

/// Counters describing one execution, collected when profiling is
/// enabled on the interpreter.
///
/// The bytecode engine fills everything; the tree-walker (reference
/// semantics) has no opcodes or fast paths, so under `--engine tree`
/// only the step and memory counters are meaningful.
///
/// # Examples
///
/// ```
/// use cundef_semantics::{parser, Interp, Limits};
///
/// let unit = parser::parse(
///     "int main(void) { int s = 0; for (int i = 0; i < 10; i++) s += i; return s; }",
/// ).unwrap();
/// let mut interp = Interp::new(&unit, Limits::default());
/// interp.enable_profiling();
/// interp.run_main();
/// let p = interp.profile().expect("profiling was enabled");
/// assert!(p.ops_executed > 0);
/// assert!(p.objects_allocated >= 2); // s and i
/// assert!(p.superinstruction_hits() > 0); // the loop compare/step fuse
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecProfile {
    /// Semantic steps charged against [`crate::Limits::max_steps`]
    /// (tree-walker work units; the VM batches and settles them).
    pub steps: u64,
    /// Total bytecode ops dispatched (0 under the tree engine).
    pub ops_executed: u64,
    /// Dispatch histogram: executions per opcode mnemonic.
    pub op_counts: BTreeMap<&'static str, u64>,
    /// Single-word fast-path completions (slot loads, fused stores,
    /// `++`/`--`, reads/writes through pointers) that skipped the typed
    /// core.
    pub word_fast_hits: u64,
    /// Times a fast-path guard failed and the generic typed core ran
    /// instead (interesting object state: uninitialized bytes, `_Bool`,
    /// `const`, dead objects, misalignment…).
    pub word_fast_fallbacks: u64,
    /// Objects allocated (both engines: declarations, parameters,
    /// `malloc`).
    pub objects_allocated: u64,
    /// High-water mark of live object bytes.
    pub peak_live_bytes: u64,
    /// Bytes of object storage currently live (ends at the leak
    /// residue: objects still alive when execution stopped).
    pub live_bytes: u64,
    /// `malloc` calls.
    pub heap_allocs: u64,
    /// `free` calls that ended a heap object's lifetime.
    pub heap_frees: u64,
    /// Total bytes ever obtained from `malloc` (churn, not residency).
    pub heap_bytes_allocated: u64,
    /// Allocations served by recycling a retired slab slot (epoch bump +
    /// storage reuse) instead of growing the object slab.
    pub arena_recycles: u64,
    /// Allocations that grew the slab — no retired slot was available
    /// (or the only candidate was pinned by the live footprint arena).
    pub arena_misses: u64,
    /// Calls whose slot region fit under the slot stack's high-water
    /// mark: the frame re-bound storage an earlier call already paid
    /// for.
    pub frame_pool_hits: u64,
    /// Calls that pushed the slot stack past its high-water mark
    /// (first-time-deep call chains).
    pub frame_pool_misses: u64,
    /// Fused byte-sweep superinstructions that ran to completion: one
    /// validation + bulk move instead of a per-byte interpreted loop.
    pub sweep_hits: u64,
    /// Byte-sweep prechecks that failed, falling back to the general
    /// per-byte loop (which reports any diagnostic exactly).
    pub sweep_fallbacks: u64,
}

impl ExecProfile {
    /// Record one dispatched op by mnemonic.
    #[inline]
    pub(crate) fn note_op(&mut self, mnemonic: &'static str) {
        self.ops_executed += 1;
        *self.op_counts.entry(mnemonic).or_insert(0) += 1;
    }

    /// Record an object allocation (shared by both engines).
    #[inline]
    pub(crate) fn note_alloc(&mut self, bytes: usize, heap: bool) {
        self.objects_allocated += 1;
        self.live_bytes += bytes as u64;
        self.peak_live_bytes = self.peak_live_bytes.max(self.live_bytes);
        if heap {
            self.heap_allocs += 1;
            self.heap_bytes_allocated += bytes as u64;
        }
    }

    /// Record the end of an object's lifetime.
    #[inline]
    pub(crate) fn note_dealloc(&mut self, bytes: usize, heap: bool) {
        self.live_bytes = self.live_bytes.saturating_sub(bytes as u64);
        if heap {
            self.heap_frees += 1;
        }
    }

    /// Sum of the histogram over a mnemonic list.
    fn count(&self, mnemonics: &[&str]) -> u64 {
        mnemonics.iter().filter_map(|m| self.op_counts.get(m)).sum()
    }

    /// Executions of fused superinstructions (one dispatch covering
    /// several tree nodes: `BinSS`, `BrCmpSC`, `AssignSlotPop`, …).
    pub fn superinstruction_hits(&self) -> u64 {
        self.count(SUPERINSTRUCTIONS)
    }

    /// Executions of honest tree-walker fallback ops (`EvalFull`,
    /// `EvalFullPop`, `DeclFull`): constructs the compiler handed back
    /// to the reference semantics.
    pub fn tree_fallback_ops(&self) -> u64 {
        self.count(TREE_FALLBACKS)
    }

    /// Compiled full expressions executed with their §6.5:2 footprint
    /// traffic elided (each is one boundary op: `PopSeq`,
    /// `AssignSlotPop`, `BrCmp*`, `Switch`, `DeclInit`, `Ret`, …).
    pub fn elided_boundaries(&self) -> u64 {
        self.count(ELIDED_BOUNDARIES)
    }

    /// Fraction of executed full expressions whose sequencing footprint
    /// was elided: elided boundaries over elided-plus-tree-fallbacks.
    /// (A tree fallback executes at least one footprint-tracked full
    /// expression, so this slightly *understates* elision when a single
    /// `DeclFull` covers several.) `None` when nothing executed.
    pub fn footprint_elision_rate(&self) -> Option<f64> {
        let elided = self.elided_boundaries();
        let tracked = self.tree_fallback_ops();
        let total = elided + tracked;
        (total > 0).then(|| elided as f64 / total as f64)
    }

    /// Fraction of guarded single-word accesses that completed on the
    /// fast path. `None` when no guarded access ran.
    pub fn word_fast_hit_rate(&self) -> Option<f64> {
        let total = self.word_fast_hits + self.word_fast_fallbacks;
        (total > 0).then(|| self.word_fast_hits as f64 / total as f64)
    }

    /// Fraction of object allocations served by recycling a retired
    /// slab slot. `None` when nothing was allocated.
    pub fn arena_recycle_rate(&self) -> Option<f64> {
        let total = self.arena_recycles + self.arena_misses;
        (total > 0).then(|| self.arena_recycles as f64 / total as f64)
    }

    /// Fraction of calls that re-bound pooled frame storage. `None`
    /// when no call ran.
    pub fn frame_pool_hit_rate(&self) -> Option<f64> {
        let total = self.frame_pool_hits + self.frame_pool_misses;
        (total > 0).then(|| self.frame_pool_hits as f64 / total as f64)
    }

    /// Fraction of fused byte-sweep attempts that completed as bulk
    /// moves. `None` when no sweep op ran.
    pub fn sweep_hit_rate(&self) -> Option<f64> {
        let total = self.sweep_hits + self.sweep_fallbacks;
        (total > 0).then(|| self.sweep_hits as f64 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates_come_from_the_histogram() {
        let mut p = ExecProfile::default();
        for _ in 0..3 {
            p.note_op("BrCmpSC");
        }
        p.note_op("EvalFullPop");
        p.note_op("Const");
        assert_eq!(p.ops_executed, 5);
        assert_eq!(p.superinstruction_hits(), 3);
        assert_eq!(p.tree_fallback_ops(), 1);
        assert_eq!(p.elided_boundaries(), 3);
        assert_eq!(p.footprint_elision_rate(), Some(0.75));
    }

    #[test]
    fn memory_counters_track_peak_and_churn() {
        let mut p = ExecProfile::default();
        p.note_alloc(16, false);
        p.note_alloc(32, true);
        p.note_dealloc(32, true);
        p.note_alloc(8, false);
        assert_eq!(p.objects_allocated, 3);
        assert_eq!(p.peak_live_bytes, 48);
        assert_eq!(p.live_bytes, 24);
        assert_eq!(p.heap_allocs, 1);
        assert_eq!(p.heap_frees, 1);
        assert_eq!(p.heap_bytes_allocated, 32);
    }

    #[test]
    fn empty_profile_has_no_rates() {
        let p = ExecProfile::default();
        assert_eq!(p.footprint_elision_rate(), None);
        assert_eq!(p.word_fast_hit_rate(), None);
    }
}
