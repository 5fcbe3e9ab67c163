//! Engine parity: the bytecode VM must be observationally identical to
//! the tree-walking reference interpreter. Same [`Outcome`] variant,
//! same UB kind, same source location, same detail string, same
//! implementation-defined conversion notes — for every entry of the
//! shared differential table and for every example program in the
//! repository. The tree-walker is the reference semantics; any
//! divergence here is a bytecode compiler or VM bug by definition.

use std::fs;
use std::path::PathBuf;

use cundef_semantics::eval::{Engine, Interp, Limits, Outcome};
use cundef_semantics::parser::parse;

include!("shared/table.rs");

/// Run `src` under the given engine and return the outcome plus the
/// rendered note stream. Notes are compared through their `Debug`
/// rendering so the location and the exact message text both count.
fn run(src: &str, engine: Engine, what: &str) -> (Outcome, String) {
    let unit = parse(src).unwrap_or_else(|e| panic!("{what}: failed to parse: {e}"));
    let mut interp = Interp::with_engine(&unit, Limits::default(), engine);
    let outcome = interp.run_main();
    let notes = format!("{:?}", interp.notes());
    (outcome, notes)
}

/// Assert that both engines agree on `src`, byte for byte.
fn assert_parity(src: &str, what: &str) {
    let (tree_out, tree_notes) = run(src, Engine::Tree, what);
    let (vm_out, vm_notes) = run(src, Engine::Bytecode, what);
    assert_eq!(
        tree_out, vm_out,
        "{what}: engines disagree on the outcome\n--- source ---\n{src}"
    );
    assert_eq!(
        tree_notes, vm_notes,
        "{what}: engines disagree on implementation-defined notes\n--- source ---\n{src}"
    );
}

#[test]
fn every_table_entry_runs_identically_under_both_engines() {
    for expr in TABLE {
        // The same wrapping `differential.rs` uses: the expression as a
        // full expression statement of `main`.
        let src = format!("int main(void) {{ {expr}; return 0; }}");
        assert_parity(&src, &format!("table entry {expr:?}"));
    }
    assert!(TABLE.len() >= 58, "shared table shrank to {}", TABLE.len());
}

#[test]
fn every_example_program_runs_identically_under_both_engines() {
    let examples = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root")
        .join("examples");
    let mut paths: Vec<PathBuf> = fs::read_dir(&examples)
        .expect("examples directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 20,
        "only {} example programs found in {}",
        paths.len(),
        examples.display()
    );
    for path in &paths {
        let src = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_parity(&src, &path.display().to_string());
    }
}

#[test]
fn ub_diagnostics_match_across_engines_in_detail() {
    // A handful of programs whose diagnostics exercise detail strings,
    // notes, and locations beyond what the constant table reaches:
    // each must produce the identical UbError through both engines.
    const PROGRAMS: &[&str] = &[
        // flagship unsequenced side effect (Error 00016)
        "int main(void) { int x = 0; return x + (x = 1); }",
        // uninitialized read through a pointer
        "int main(void) { int x; int *p = &x; return *p; }",
        // out-of-bounds index on a fixed array
        "int main(void) { int a[3]; a[0] = 1; return a[3]; }",
        // use after lifetime end
        "int f(int *p) { return *p; }\n\
         int main(void) { int *q; { int x = 5; q = &x; } return f(q); }",
        // signed overflow in a compound assignment
        "int main(void) { int x = 2147483647; x += 1; return 0; }",
        // division by a variable zero (defeats constant folding)
        "int main(void) { int z = 0; return 1 / z; }",
        // dangling heap pointer
        "int main(void) { int *p = malloc(4); *p = 3; free(p); return *p; }",
        // conversion notes accumulate identically (implementation-defined
        // narrowing emits a note, not a UB stop)
        "int main(void) { int big = 70000; short s = big; return s == 4464 ? 0 : 1; }",
        // goto across iterations keeps locals' init state honest
        "int main(void) { int i = 0; int s = 0;\n\
         again: s = s + i; i = i + 1; if (i < 5) goto again;\n\
         return s == 10 ? 0 : 1; }",
    ];
    for src in PROGRAMS {
        assert_parity(src, "diagnostic program");
    }
}

#[test]
fn sizeof_and_conditional_types_agree_across_engines() {
    // Both engines read `sizeof` and `?:` types from the one type table;
    // each program returns 1 when every size and value matches LP64.
    const PROGRAMS: &[&str] = &[
        "int main(void) { int v = 3; int *p = &v; long *l = malloc(16); \
         return sizeof *p == 4u && sizeof p[0] == 4u && sizeof *l == 8u \
         && sizeof l[1] == 8u; }",
        "int main(void) { int a[2]; int *q = a; return sizeof(q - q) == 8u; }",
        "int main(void) { int x = 1; char c = 2; \
         return sizeof(x = 5) == 4u && sizeof(c += 1) == 1u && x == 1 && c == 2; }",
        "int main(void) { int n = 3; long v[n]; return sizeof v == 24u && sizeof v[0] == 8u; }",
        "int main(void) { int v = -1; int *p = &v; \
         return ((1 ? *p : 0u) >> 31) == 1 && sizeof(1 ? *p : 0L) == 8u; }",
    ];
    for src in PROGRAMS {
        let (outcome, _) = run(src, Engine::Tree, "sizeof program");
        assert_eq!(outcome.exit_code(), Some(1), "{src}");
        assert_parity(src, "sizeof program");
    }
    // The checker limitation for an untyped operand is identical too.
    assert_parity("int main(void) { return sizeof ghost; }", "untyped sizeof");
}
