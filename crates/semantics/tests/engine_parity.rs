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

#[test]
fn switch_programs_run_identically_under_both_engines() {
    // Selection, fallthrough, and every way control enters or leaves a
    // `switch` body: each program's outcome and notes must agree.
    const PROGRAMS: &[&str] = &[
        // fallthrough into the next case, `break` out
        "int main(void) { int r = 0; switch (1) { case 1: r += 1; case 2: r += 10; break; \
         default: r += 100; } return r; }",
        // `default` first, selected when no case matches
        "int main(void) { int r = 0; int x = 3; switch (x) { default: r = 9; break; case 1: r \
         = 1; } return r; }",
        // no match and no `default`: the body is skipped
        "int main(void) { int r = 5; switch (7) { case 1: r = 1; case 2: r = 2; } return r; }",
        // empty bodies
        "int main(void) { int x = 2; switch (x) {} switch (x) ; switch (x) { int y; } return \
         x; }",
        // stacked labels and duplicate values: the first match wins
        "int main(void) { int r = 0; switch (2) { case 1: case 2: r += 4; case 2 + 0: r += 1; \
         } return r; }",
        // `continue` passes through the switch to the `for`
        "int main(void) { int s = 0; for (int i = 0; i < 6; i++) { switch (i % 3) { case 1: \
         continue; case 2: s += 10; break; } s += 1; } return s; }",
        // `continue` from a block inside a case, to a `while`
        "int main(void) { int i = 0; int s = 0; while (i < 5) { i++; switch (i) { default: { \
         int t = i; s += t; continue; } case 2: break; } s += 100; } return s; }",
        // stray `continue` in a switch outside any loop
        "int main(void) { int r = 3; switch (r) { case 3: { int y = 1; r += y; continue; } } \
         return r; }",
        // `break` inside a loop inside a case leaves only the loop
        "int main(void) { int r = 0; switch (1) { case 1: for (;;) { r++; if (r == 3) break; } \
         r += 10; break; case 2: r = 99; } return r; }",
        // a loop inside a case
        "int main(void) { int s = 0; int k = 1; switch (k) { case 1: for (int i = 0; i < 100; \
         i++) s = (s + i) % 1000; break; default: s = -1; } return s; }",
        // `case -1` matches an unsigned controlling value
        "int main(void) { unsigned u = 4294967295u; switch (u) { case -1: return 1; } return \
         0; }",
        // a `char` controlling expression is promoted
        "int main(void) { char c = 65; switch (c) { case 321: return 8; case 'A': return 7; } \
         return 0; }",
        // a `long` controlling expression keeps its width
        "int main(void) { long v = 1L << 40; switch (v) { case 0: return 1; case 1L << 40: \
         return 3; } return 0; }",
        // case constants are converted to the promoted type
        "int main(void) { int x = 0; switch (x) { case 4294967296L: return 1; } unsigned char \
         b = 200; switch (b) { case 200: return 2; } return 0; }",
        // a non-constant label the scan reaches
        "int main(void) { int k = 1; switch (2) { case 1: return 1; case k: return 2; } return \
         0; }",
        // a non-constant label after the match is never reached
        "int main(void) { int k = 1; switch (1) { case 1: return 5; case k: return 2; } return \
         0; }",
        // `case 1/0:` reached by the scan
        "int main(void) { switch (1) { case 1 / 0: return 1; } return 0; }",
        // an undefined label after the match is never reached
        "int main(void) { switch (1) { case 1: return 4; case 2147483647 + 1: return 1; } \
         return 0; }",
        // Duff-style: a top-level case matches, nested labels are transparent
        "int main(void) { int n = 4; int r = 0; switch (n % 2) { case 0: while (n > 0) { r++; \
         case 1: r += 10; n -= 2; } } return r; }",
        // Duff-style: no top-level match stops at the switch
        "int main(void) { int n = 3; int r = 0; switch (n % 2) { case 0: while (n > 0) { r++; \
         case 1: r += 10; n -= 2; } } return r; }",
        // non-block bodies: match, `default`, no match, a labelled chain
        "int main(void) { int r = 0; int x = 1; switch (x) case 1: r += 3; switch (x) default: \
         r += 4; switch (2) case 1: r += 100; switch (1) case 2: l: case 1: r += 20; return r; \
         }",
        // non-block body hiding a case below its chain
        "int main(void) { int r = 0; switch (2) default: { case 2: r = 5; } return r; }",
        // a skipped declaration leaves its slot unbound
        "int main(void) { switch (2) { case 1: ; int x = 5; case 2: x = 3; return x; } return \
         0; }",
        // reading a skipped declaration's slot
        "int main(void) { switch (2) { case 1: ; int x = 5; case 2: return x; } return 0; }",
        // a skipped declaration's stale slot on the next iteration
        "int main(void) { int r = 0; for (int i = 0; i < 2; i++) { switch (i) { case 0: ; int \
         x = 5; r += x; break; case 1: r += x; } } return r; }",
        // `goto` into a case skips the dispatch
        "int main(void) { int r = 0; goto in; switch (5) { case 1: in: r = 4; break; default: \
         r = 9; } return r; }",
        // `goto` out of a case
        "int main(void) { int r = 0; switch (1) { case 1: { int t = 2; r = t; goto out; } case \
         2: r = 3; } r = 9; out: return r; }",
        // `goto` around a switch
        "int main(void) { int r = 0; goto skip; switch (1) { case 1: r = 1; } skip: return r; \
         }",
        // `goto` back into an earlier case keeps the body's objects alive
        "int main(void) { int *p = 0; int r = 0; switch (1) { case 0: l: r = *p; break; case \
         1: ; int y = 7; p = &y; goto l; } return r; }",
        // a backward `goto` re-runs the dispatch
        "int main(void) { int i = 0; again: switch (i) { case 0: case 1: i++; goto again; case \
         2: break; } return i; }",
        // `goto` into a nested block of a case
        "int main(void) { int r = 1; goto deep; switch (r) { case 1: { int z = 3; deep: r += \
         2; } break; } return r; }",
        // nested switches
        "int main(void) { int r = 0; int a = 1; int b = 2; switch (a) { case 1: switch (b) { \
         case 2: r = 12; break; default: r = 10; } r += 100; break; case 2: r = 2; } return r; \
         }",
        // `return` inside a case of a called function
        "int f(int x) { switch (x) { case 3: return 42; default: return -1; } } int main(void) \
         { return f(3) + f(0); }",
        // a pointer controlling expression
        "int main(void) { int x = 0; int *p = &x; switch (p) { case 0: return 1; } return 0; }",
        // an uninitialized controlling expression
        "int main(void) { int x; switch (x) { case 0: return 1; } return 0; }",
        // an unsequenced controlling expression
        "int main(void) { int x = 0; switch (x++ + x) { default: return 1; } return 0; }",
        // a dead block object as the controlling expression
        "int main(void) { int *p; { int y = 2; p = &y; } switch (*p) { case 2: return 1; } \
         return 0; }",
        // a void call as the controlling expression
        "void g(void) { } int main(void) { switch (g()) { default: return 1; } return 0; }",
        // a pointer into the body dies when the switch is left
        "int main(void) { int *p = 0; switch (1) { case 1: ; int y = 4; p = &y; break; } \
         return *p; }",
        // implementation-defined notes inside a case
        "int main(void) { int big = 70000; switch (1) { case 1: ; short s = big; return s == \
         4464 ? 0 : 1; } return 2; }",
    ];
    for src in PROGRAMS {
        assert_parity(src, "switch program");
    }
}
