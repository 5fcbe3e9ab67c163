//! Seeded inputs for every workload, each with its known answer.
//!
//! The known answer of an input comes from how it was built — a
//! program defined by construction, the fuzz generator's `injected`
//! kind at the line the defect was written to, or the table of
//! `examples/` witnesses below — never from `cundef`'s own output.

use crate::trace::Phase;
use cundef_bench::corpus as bench;
use cundef_fuzz::decision::DecisionSource;
use cundef_fuzz::gen::{generate, Class};
use cundef_fuzz::rng::{case_seed, SplitMix64};
use cundef_ub::UbKind;

/// What a correct check of one input reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expect {
    /// Every finding, as (kind, line), sorted. Empty means the input is
    /// defined under the phases the workload runs.
    pub findings: Vec<(UbKind, u32)>,
    /// The program runs to completion, so the verdict carries an exit
    /// value (false for translation-only checks and for UB).
    pub completes: bool,
}

impl Expect {
    /// A program that runs to completion without undefined behavior.
    pub fn runs_clean() -> Expect {
        Expect {
            findings: Vec::new(),
            completes: true,
        }
    }

    /// A unit the translation phase passes and nothing executes.
    pub fn translates_clean() -> Expect {
        Expect {
            findings: Vec::new(),
            completes: false,
        }
    }

    /// A unit with the given findings.
    pub fn undefined(mut findings: Vec<(UbKind, u32)>) -> Expect {
        findings.sort_by_key(|&(kind, line)| (line, kind.code()));
        Expect {
            findings,
            completes: false,
        }
    }
}

/// One generated translation unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unit {
    /// File name inside the corpus directory.
    pub name: String,
    /// The C source.
    pub source: String,
    /// The answer under the workload's phases.
    pub expect: Expect,
}

/// The `examples/` witnesses of dynamic undefined behavior: each runs,
/// then gets stuck at the marked line. Lines are those the files'
/// comments mark as the defect.
pub const DYNAMIC_EXAMPLES: &[(&str, UbKind, u32)] = &[
    ("alias_write", UbKind::AccessWrongEffectiveType, 7),
    ("bad_free", UbKind::FreeNonHeapPointer, 6),
    ("dangling", UbKind::DeadObjectAccess, 10),
    ("division_by_zero", UbKind::DivisionByZero, 6),
    ("double_free", UbKind::DoubleFree, 8),
    ("misaligned", UbKind::MisalignedAccess, 8),
    ("null_deref", UbKind::NullDereference, 4),
    ("out_of_bounds", UbKind::OutOfBoundsRead, 7),
    ("shift_long", UbKind::ShiftTooFar, 10),
    ("shift_width", UbKind::ShiftTooFar, 4),
    ("signed_overflow", UbKind::SignedOverflow, 6),
    ("uninit_byte", UbKind::ReadIndeterminate, 10),
    ("uninitialized", UbKind::ReadIndeterminate, 9),
    ("unsequenced", UbKind::UnsequencedSideEffect, 5),
    ("vla_size", UbKind::VlaSizeNotPositive, 7),
];

/// Read one `examples/` witness from the checkout.
fn example_source(name: &str) -> Result<String, String> {
    let path = format!("examples/{name}.c");
    std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// A seeded stream of draws.
pub struct Rng(SplitMix64);

impl Rng {
    /// The stream for `seed`, separated per `stream` so workloads and
    /// connections never share draws.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(SplitMix64::new(case_seed(seed, stream)))
    }

    /// A draw in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.0.next_u64() % n
    }

    /// `base` scaled by a factor in [0.9, 1.1): the spread of sizes,
    /// kept narrow so every seed's corpus costs about the same.
    pub fn jitter(&mut self, base: u32) -> u32 {
        let permille = 900 + self.below(200) as u32;
        (base * permille / 1000).max(1)
    }

    /// Shuffle in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// A fuzz case of `class`, number `index` of the stream for `seed`.
fn fuzz_case(seed: u64, index: u64, class: Class) -> cundef_fuzz::gen::GenCase {
    generate(
        class,
        &mut DecisionSource::from_seed(case_seed(seed, index)),
    )
}

/// The execution-heavy families of `cundef_bench::corpus`, each with
/// the scale that makes one check cost a few milliseconds.
const EXEC_FAMILIES: &[(&str, u32)] = &[
    ("arith", 8000),
    ("scopes", 8000),
    ("arrays", 8000),
    ("calls", 8000),
    ("promos", 8000),
    ("mixed", 8000),
    ("sweep", 400),
    ("heap", 1600),
    ("typedmix", 400),
    ("churn", 6000),
    ("strcopy", 400),
    ("recurse", 160),
];

/// The source of family `name` at scale `n`.
fn exec_family(name: &str, n: u32) -> String {
    match name {
        "arith" => bench::arith_loop(n),
        "scopes" => bench::scope_loop(n),
        "arrays" => bench::array_loop(n),
        "calls" => bench::call_loop(n),
        "promos" => bench::promotion_loop(n),
        "mixed" => bench::mixed_width_loop(n),
        "sweep" => bench::mem_sweep_loop(n),
        "heap" => bench::mem_heap_loop(n),
        "typedmix" => bench::mem_typedmix_loop(n),
        "churn" => bench::mem_churn_loop(n),
        "strcopy" => bench::mem_strcopy_loop(n),
        "recurse" => bench::recurse_loop(200, n),
        other => unreachable!("unknown family {other}"),
    }
}

/// Units per execution family in `batch-exec`.
const EXEC_PER_FAMILY: usize = 14;
/// Fuzz `Class::Defined` programs in `batch-exec`.
const EXEC_FUZZ: u64 = 120;

/// The `batch-exec` corpus: a few hundred small units that spend their
/// time executing. Defined corpus programs and fuzz programs run to
/// completion; the dynamic-UB examples stop mid-run.
pub fn batch_exec(seed: u64) -> Result<Vec<Unit>, String> {
    let mut rng = Rng::new(seed, 1);
    let mut units = Vec::new();
    for &(family, base) in EXEC_FAMILIES {
        for _ in 0..EXEC_PER_FAMILY {
            let n = rng.jitter(base);
            units.push(Unit {
                name: format!("{family}-n{n}.c"),
                source: exec_family(family, n),
                expect: Expect::runs_clean(),
            });
        }
    }
    for i in 0..EXEC_FUZZ {
        units.push(Unit {
            name: format!("fuzz-defined-{i}.c"),
            source: fuzz_case(seed, i, Class::Defined).source,
            expect: Expect::runs_clean(),
        });
    }
    for &(name, kind, line) in DYNAMIC_EXAMPLES {
        units.push(Unit {
            name: format!("{name}.c"),
            source: example_source(name)?,
            expect: Expect::undefined(vec![(kind, line)]),
        });
    }
    Ok(finish(&mut rng, units))
}

/// Shuffle, then prefix names with their position so every name is
/// unique and the directory lists in corpus order.
fn finish(rng: &mut Rng, mut units: Vec<Unit>) -> Vec<Unit> {
    rng.shuffle(&mut units);
    for (i, u) in units.iter_mut().enumerate() {
        u.name = format!("{i:03}-{}", u.name);
    }
    units
}

/// A bundle of `count` fuzz `Class::Doomed` programs in one unit: each
/// program's `main` becomes `doomed_<k>`, and the unit's answer is
/// every injected defect at the line it was written to. Returns the
/// text (with no `main`) and the findings.
fn doomed_bundle(seed: u64, first: u64, count: u64) -> (String, Vec<(UbKind, u32)>) {
    // Programs that call a helper share this one prelude.
    let prelude = "int one(int x) { return x & 1023; }\n";
    let mut text = String::from(prelude);
    let mut findings = Vec::new();
    for k in 0..count {
        let case = fuzz_case(seed, first + k, Class::Doomed);
        let kind = case.injected.expect("doomed cases declare their defect");
        let (_, body) = case
            .source
            .split_once("int main(void) {\n")
            .expect("doomed programs define main");
        text.push_str(&format!("int doomed_{k}(void) {{\n"));
        let header_line = text.lines().count() as u32;
        // The body opens with two prologue lines; the defect is the
        // next line, except a write to const, which declares the
        // object first and writes it on the line after.
        let offset = if kind == UbKind::WriteToConst { 4 } else { 3 };
        findings.push((kind, header_line + offset));
        text.push_str(body);
    }
    (text, findings)
}

/// Units of each kind in `batch-frontend`.
const FRONTEND_PER_KIND: usize = 12;

/// The `batch-frontend` corpus: large units, tens to hundreds of KB,
/// checked by the translation phase only. Four kinds, mixed:
/// `call_types` and `switch_heavy` programs (clean), `static_violations`
/// blocks and bundles of fuzz `Class::Doomed` programs (dozens of
/// findings each, followed by a `call_types` body for bulk).
pub fn batch_frontend(seed: u64) -> Vec<Unit> {
    let mut rng = Rng::new(seed, 2);
    let mut units = Vec::new();
    for i in 0..FRONTEND_PER_KIND {
        let n = rng.jitter(2400);
        units.push(Unit {
            name: format!("calltypes-n{n}.c"),
            source: bench::call_types(n),
            expect: Expect::translates_clean(),
        });
        let n = rng.jitter(2400);
        units.push(Unit {
            name: format!("switch-n{n}.c"),
            source: bench::switch_heavy(n),
            expect: Expect::translates_clean(),
        });
        let blocks = rng.jitter(60);
        let bulk = rng.jitter(1200);
        let violations = bench::static_violations(blocks);
        // Each block redeclares `x<k>` with an incompatible type on a
        // line of its own.
        let findings = (0..blocks)
            .map(|k| {
                let decl = format!("int *x{k};");
                let line = violations
                    .lines()
                    .position(|l| l.trim() == decl)
                    .expect("every block redeclares its x");
                (UbKind::IncompatibleRedeclaration, line as u32 + 1)
            })
            .collect();
        units.push(Unit {
            name: format!("violations-b{blocks}.c"),
            source: violations + &bench::call_types(bulk),
            expect: Expect::undefined(findings),
        });
        let count = u64::from(rng.jitter(48));
        let bulk = rng.jitter(1200);
        let (text, findings) = doomed_bundle(seed, (i as u64) * 1000, count);
        units.push(Unit {
            name: format!("doomed-x{count}.c"),
            source: text + &bench::call_types(bulk),
            expect: Expect::undefined(findings),
        });
    }
    finish(&mut rng, units)
}

/// A `serve-mixed` source, with its answer per phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSource {
    /// Request path label.
    pub name: String,
    /// The C source.
    pub source: String,
    /// Findings of the translation phase.
    pub static_findings: Vec<(UbKind, u32)>,
    /// Findings of executing it (when it is statically clean).
    pub dynamic_findings: Vec<(UbKind, u32)>,
    /// It defines `main`.
    pub has_main: bool,
}

impl ServeSource {
    /// The answer under `phase`; `None` where construction does not
    /// fix one (executing a statically doomed unit).
    pub fn expect(&self, phase: Phase) -> Option<Expect> {
        let clean_run = if self.has_main {
            Expect::runs_clean()
        } else {
            Expect::translates_clean()
        };
        match (phase, self.static_findings.is_empty()) {
            (Phase::Translation, true) => Some(Expect::translates_clean()),
            (Phase::Translation | Phase::All, false) => {
                Some(Expect::undefined(self.static_findings.clone()))
            }
            (Phase::Execution, false) => None,
            (_, true) if self.dynamic_findings.is_empty() => Some(clean_run),
            (_, true) => Some(Expect::undefined(self.dynamic_findings.clone())),
        }
    }
}

/// The `serve-mixed` hot set: small units of every kind — execution
/// families at an eighth of their `batch-exec` scale, dynamic-UB
/// examples, fuzz `Defined` programs and single fuzz `Doomed` programs.
pub fn hot_set(seed: u64) -> Result<Vec<ServeSource>, String> {
    let mut rng = Rng::new(seed, 3);
    let mut hot = Vec::new();
    for &(family, base) in EXEC_FAMILIES.iter().chain(EXEC_FAMILIES.iter().take(4)) {
        let n = rng.jitter(base / 8);
        hot.push(ServeSource {
            name: format!("{family}-n{n}.c"),
            source: exec_family(family, n),
            static_findings: Vec::new(),
            dynamic_findings: Vec::new(),
            has_main: true,
        });
    }
    let mut examples: Vec<_> = DYNAMIC_EXAMPLES.to_vec();
    rng.shuffle(&mut examples);
    for &(name, kind, line) in &examples[..8] {
        hot.push(ServeSource {
            name: format!("{name}.c"),
            source: example_source(name)?,
            static_findings: Vec::new(),
            dynamic_findings: vec![(kind, line)],
            has_main: true,
        });
    }
    for i in 0..16 {
        hot.push(ServeSource {
            name: format!("fuzz-defined-{i}.c"),
            source: fuzz_case(seed, 5000 + i, Class::Defined).source,
            static_findings: Vec::new(),
            dynamic_findings: Vec::new(),
            has_main: true,
        });
    }
    for i in 0..8 {
        let (source, findings) = doomed_bundle(seed, 6000 + i, 1);
        hot.push(ServeSource {
            name: format!("fuzz-doomed-{i}.c"),
            source,
            static_findings: findings,
            dynamic_findings: Vec::new(),
            has_main: false,
        });
    }
    rng.shuffle(&mut hot);
    Ok(hot)
}

/// A trivial defined file, for timing process start-up.
pub const TRIVIAL: &str = "int main(void) { return 0; }\n";

#[cfg(test)]
mod tests {
    use super::*;

    fn in_repo_root() {
        // Unit tests run from the package directory; the examples live
        // one level up.
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
        std::env::set_current_dir(root).expect("repository root exists");
    }

    #[test]
    fn same_seed_same_corpus_other_seed_other_corpus() {
        in_repo_root();
        assert_eq!(batch_exec(7).unwrap(), batch_exec(7).unwrap());
        assert_ne!(batch_exec(7).unwrap(), batch_exec(8).unwrap());
        assert_eq!(batch_frontend(7), batch_frontend(7));
        assert_ne!(batch_frontend(7), batch_frontend(8));
    }

    #[test]
    fn frontend_units_are_large() {
        for u in batch_frontend(3) {
            assert!(
                u.source.len() > 20_000,
                "{} is {} bytes",
                u.name,
                u.source.len()
            );
        }
    }
}
