//! The per-file checking pipeline, factored out of `main` so every
//! driver — the one-shot CLI, the `--batch` worker pool, and the
//! `cundef serve` daemon — runs the *same* code path and produces the
//! same [`FileResult`] for the same bytes and options.
//!
//! The pipeline is split at the two seams the serve cache needs:
//!
//! - [`check_file`] — [`read_source`] from disk, then [`check_source`];
//! - [`check_source`] — [`parse_source`] (lex/parse/resolve), then
//!   [`check_parsed`];
//! - [`check_parsed`] — translation-phase analysis and (when selected)
//!   execution over an already-parsed translation unit. A warm cache
//!   hit on the parsed artifact enters here directly, skipping the
//!   whole frontend.

use cundef_analysis::analyze;
use cundef_semantics::ast::TranslationUnit;
use cundef_semantics::eval::{Engine, Interp, Limits, Outcome};
use cundef_semantics::intern::kw;
use cundef_semantics::{compile_unit, parser, ExecProfile};
use cundef_ub::render::{
    FileResult, HumanRenderer, JsonRenderer, Renderer, SarifRenderer, Verdict,
};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Which checking phases to run on each file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Static analysis only; nothing is executed.
    Translation,
    /// Execution only (the pre-analysis behavior).
    Execution,
    /// Translation first; execution only for files that pass it.
    All,
}

/// Output format behind `--format`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// kcc-style terminal reports.
    Human,
    /// JSON Lines.
    Json,
    /// One SARIF 2.1.0 document per run.
    Sarif,
}

/// The `--fail-on` severity threshold gating the exit code (the
/// verdicts and reports themselves are never affected).
///
/// - [`FailOn::Ub`] (default) — the historical contract: exit 1 on any
///   undefined file, else 2 on any engine failure, else 0.
/// - [`FailOn::Error`] — CI mode for advisory sweeps: undefined
///   verdicts report but exit 0; only engine failures (the tool could
///   not finish) exit 2.
/// - [`FailOn::Never`] — always exit 0 once the run completes (usage
///   errors still exit 2 before any checking starts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailOn {
    /// Fail only on engine failures.
    Error,
    /// Fail on undefined behavior (and engine failures) — the default.
    Ub,
    /// Never fail.
    Never,
}

impl FailOn {
    /// The exit code for a run that saw the given verdict mix, under
    /// this threshold. Shared by the one-shot CLI, `--batch`, and every
    /// `serve` response so the contract cannot drift between drivers.
    pub fn exit_code(self, any_undefined: bool, any_engine_failure: bool) -> u8 {
        match self {
            FailOn::Never => 0,
            FailOn::Error => {
                if any_engine_failure {
                    2
                } else {
                    0
                }
            }
            FailOn::Ub => {
                if any_undefined {
                    1
                } else if any_engine_failure {
                    2
                } else {
                    0
                }
            }
        }
    }
}

/// Per-file checking knobs (everything except rendering).
#[derive(Debug, Clone, Copy)]
pub struct CheckOptions {
    /// Which phases run.
    pub phase: Phase,
    /// Which execution engine runs the program.
    pub engine: Engine,
    /// Collect execution telemetry.
    pub profile: bool,
}

impl CheckOptions {
    /// The options fingerprint for cache keying: every knob that can
    /// change a [`FileResult`] (or its telemetry side channel) for the
    /// same source bytes must land in here.
    pub fn fingerprint(&self) -> u64 {
        let phase = match self.phase {
            Phase::Translation => 0u64,
            Phase::Execution => 1,
            Phase::All => 2,
        };
        let engine = match self.engine {
            Engine::Tree => 0u64,
            Engine::Bytecode => 1,
        };
        phase | (engine << 2) | ((self.profile as u64) << 3)
    }
}

/// Everything that shapes one file's answer: the checking options plus
/// how the result renders and which exit code it maps to.
///
/// The one-shot flags, `cundef serve`'s flags (the daemon's defaults)
/// and each serve request's JSON fields all fill this in through
/// [`Settings::set`], so every front end spells the settings the same.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Checking options.
    pub opts: CheckOptions,
    /// Output format.
    pub format: Format,
    /// Human-format quiet flag.
    pub quiet: bool,
    /// Exit-code threshold.
    pub fail_on: FailOn,
}

impl Default for Settings {
    fn default() -> Settings {
        Settings {
            opts: CheckOptions {
                phase: Phase::All,
                engine: Engine::default(),
                profile: false,
            },
            format: Format::Human,
            quiet: false,
            fail_on: FailOn::Ub,
        }
    }
}

impl Settings {
    /// Set the named setting (`phase`, `engine`, `format`, or
    /// `fail-on`, which requests spell `fail_on`) from its spelling.
    /// The error names the accepted spellings.
    pub fn set(&mut self, name: &str, value: &str) -> Result<(), String> {
        let unknown = |expected: &str| format!("`{name}` needs {expected}, not `{value}`");
        match name {
            "phase" => {
                self.opts.phase = match value {
                    "translation" => Phase::Translation,
                    "execution" => Phase::Execution,
                    "all" => Phase::All,
                    _ => return Err(unknown("`translation`, `execution`, or `all`")),
                }
            }
            "engine" => {
                self.opts.engine = match value {
                    "tree" => Engine::Tree,
                    "bytecode" => Engine::Bytecode,
                    _ => return Err(unknown("`tree` or `bytecode`")),
                }
            }
            "format" => {
                self.format = match value {
                    "human" => Format::Human,
                    "json" => Format::Json,
                    "sarif" => Format::Sarif,
                    _ => return Err(unknown("`human`, `json`, or `sarif`")),
                }
            }
            "fail-on" | "fail_on" => {
                self.fail_on = match value {
                    "error" => FailOn::Error,
                    "ub" => FailOn::Ub,
                    "never" => FailOn::Never,
                    _ => return Err(unknown("`error`, `ub`, or `never`")),
                }
            }
            _ => return Err(format!("unknown setting `{name}`")),
        }
        Ok(())
    }

    /// A fresh renderer for this format (one per run or per request).
    pub fn renderer(&self) -> Box<dyn Renderer> {
        match self.format {
            Format::Human => Box::new(HumanRenderer::new(self.quiet)),
            Format::Json => Box::new(JsonRenderer::new()),
            Format::Sarif => Box::new(SarifRenderer::new(env!("CARGO_PKG_VERSION"))),
        }
    }
}

/// Wall-clock spans around each pipeline phase of one file's check
/// (zero for phases that did not run).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseStats {
    /// Reading the file from disk.
    pub read: Duration,
    /// Lexing.
    pub lex: Duration,
    /// Parsing.
    pub parse: Duration,
    /// Name resolution.
    pub resolve: Duration,
    /// Translation-phase analysis.
    pub analyze: Duration,
    /// Bytecode lowering.
    pub compile: Duration,
    /// Execution.
    pub execute: Duration,
}

impl PhaseStats {
    /// Sum of all phase spans.
    pub fn total(&self) -> Duration {
        self.read
            + self.lex
            + self.parse
            + self.resolve
            + self.analyze
            + self.compile
            + self.execute
    }

    /// Accumulate another file's spans into this aggregate.
    pub fn add(&mut self, other: &PhaseStats) {
        self.read += other.read;
        self.lex += other.lex;
        self.parse += other.parse;
        self.resolve += other.resolve;
        self.analyze += other.analyze;
        self.compile += other.compile;
        self.execute += other.execute;
    }

    /// The human `--stats` line.
    pub fn render_human(&self, label: &str) -> String {
        format!(
            "{label}: stats: read {:?}, lex {:?}, parse {:?}, resolve {:?}, analyze {:?}, \
             compile {:?}, execute {:?}, total {:?}",
            self.read,
            self.lex,
            self.parse,
            self.resolve,
            self.analyze,
            self.compile,
            self.execute,
            self.total()
        )
    }

    /// One JSON object (`"file": null` marks the per-run aggregate).
    pub fn render_json(&self, file: Option<&str>, files: usize) -> String {
        let mut out = String::from("{\"type\": \"stats\", \"file\": ");
        match file {
            Some(f) => out.push_str(&cundef_ub::json::escaped(f)),
            None => out.push_str("null"),
        }
        let _ = write!(
            out,
            ", \"files\": {files}, \"read_ns\": {}, \"lex_ns\": {}, \"parse_ns\": {}, \
             \"resolve_ns\": {}, \"analyze_ns\": {}, \"compile_ns\": {}, \"execute_ns\": {}, \
             \"total_ns\": {}}}",
            self.read.as_nanos(),
            self.lex.as_nanos(),
            self.parse.as_nanos(),
            self.resolve.as_nanos(),
            self.analyze.as_nanos(),
            self.compile.as_nanos(),
            self.execute.as_nanos(),
            self.total().as_nanos(),
        );
        out
    }
}

/// Everything one file's check produced: the structured result for the
/// renderer, phase times for `--stats`, telemetry for `--profile`.
///
/// `Clone` exists so batch-mode duplicate paths and serve cache hits
/// can replay a result without re-checking.
#[derive(Debug, Clone)]
pub struct Checked {
    /// The structured verdict + findings for the render seam.
    pub result: FileResult,
    /// Per-phase wall times.
    pub stats: PhaseStats,
    /// Execution telemetry, when profiling was on.
    pub profile: Option<ExecProfile>,
}

impl Checked {
    /// An engine-failure result (unreadable file, parse error, …).
    pub fn failed(path: &str, stats: PhaseStats, error: String) -> Checked {
        Checked {
            result: FileResult {
                path: path.to_string(),
                verdict: Verdict::EngineFailure,
                findings: Vec::new(),
                notes: Vec::new(),
                success: None,
                exit: None,
                errors: vec![error],
            },
            stats,
            profile: None,
        }
    }
}

/// Check one file from disk: read, then [`check_source`].
pub fn check_file(path: &str, opts: &CheckOptions) -> Checked {
    let mut stats = PhaseStats::default();
    match read_source(path, &mut stats) {
        Ok(source) => check_source(path, &source, stats, opts),
        Err(e) => Checked::failed(path, stats, e),
    }
}

/// Read `path` from disk, timing the read into `stats`.
pub fn read_source(path: &str, stats: &mut PhaseStats) -> Result<String, String> {
    let t = Instant::now();
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read file: {e}"));
    stats.read = t.elapsed();
    source
}

/// The frontend: lex, parse and resolve `source`, timing each step
/// into `stats`.
pub fn parse_source(source: &str, stats: &mut PhaseStats) -> Result<TranslationUnit, String> {
    let (unit, timing) = parser::parse_timed(source).map_err(|e| e.to_string())?;
    stats.lex = timing.lex;
    stats.parse = timing.parse;
    stats.resolve = timing.resolve;
    Ok(unit)
}

/// Check already-loaded source text: [`parse_source`], then
/// [`check_parsed`]. `path` is the label used in every diagnostic.
pub fn check_source(
    path: &str,
    source: &str,
    mut stats: PhaseStats,
    opts: &CheckOptions,
) -> Checked {
    match parse_source(source, &mut stats) {
        Ok(unit) => check_parsed(path, &unit, stats, opts),
        Err(e) => Checked::failed(path, stats, e),
    }
}

/// Check an already-parsed translation unit: translation-phase
/// analysis, then (when selected) execution. This is the warm-cache
/// entry point — a serve request whose source bytes are known but
/// whose options fingerprint is new starts here.
pub fn check_parsed(
    path: &str,
    unit: &TranslationUnit,
    mut stats: PhaseStats,
    opts: &CheckOptions,
) -> Checked {
    let mut result = FileResult {
        path: path.to_string(),
        verdict: Verdict::Defined,
        findings: Vec::new(),
        notes: Vec::new(),
        success: None,
        exit: None,
        errors: Vec::new(),
    };

    // Translation phase: static checks over the resolved AST. A file
    // that fails here is statically doomed — running it would duplicate
    // (or shadow) the report, so execution is skipped.
    if opts.phase != Phase::Execution {
        let t = Instant::now();
        let findings = analyze(unit);
        stats.analyze = t.elapsed();
        if !findings.is_empty() {
            result.verdict = Verdict::Undefined;
            result.findings = findings.iter().map(|f| f.to_diagnostic()).collect();
            return Checked {
                result,
                stats,
                profile: None,
            };
        }
        if opts.phase == Phase::Translation {
            result.success = Some("translation phase found no undefined behavior".to_string());
            return Checked {
                result,
                stats,
                profile: None,
            };
        }
    }

    // Execution phase. A unit with no `main` has nothing to execute —
    // that is a note, not an error, so translation-only inputs (headers,
    // libraries) pass through the default pipeline cleanly.
    if unit.function(kw::MAIN).is_none() {
        let note = if opts.phase == Phase::All {
            "nothing to execute (no `main`); translation phase found no undefined behavior"
        } else {
            "nothing to execute (translation unit defines no `main`)"
        };
        result.success = Some(note.to_string());
        return Checked {
            result,
            stats,
            profile: None,
        };
    }
    let mut interp = Interp::with_engine(unit, Limits::default(), opts.engine);
    if opts.profile {
        interp.enable_profiling();
    }
    let outcome = if opts.engine == Engine::Bytecode {
        let t = Instant::now();
        let compiled = compile_unit(unit);
        stats.compile = t.elapsed();
        let t = Instant::now();
        let outcome = interp.run_main_compiled(&compiled);
        stats.execute = t.elapsed();
        outcome
    } else {
        let t = Instant::now();
        let outcome = interp.run_main();
        stats.execute = t.elapsed();
        outcome
    };
    // Implementation-defined conversion notes (§6.3.1.3:3 — narrowing
    // conversions this implementation resolves by two's-complement wrap)
    // print before the verdict: they describe defined behavior the
    // program relied on, whatever the verdict turns out to be.
    result.notes = interp.notes().to_vec();
    match outcome {
        Outcome::Completed(exit) => {
            result.success = Some(format!(
                "no undefined behavior detected (program returned {exit})"
            ));
            result.exit = Some(exit);
        }
        Outcome::Undefined(report) => {
            result.verdict = Verdict::Undefined;
            result.findings = vec![report.to_diagnostic()];
        }
        Outcome::Unsupported { message, loc } => {
            result.verdict = Verdict::EngineFailure;
            result
                .errors
                .push(format!("checker limitation at {loc}: {message}"));
        }
    }
    Checked {
        result,
        stats,
        profile: interp.profile(),
    }
}

/// Render one file's `--profile` telemetry (stderr, human-oriented but
/// stable enough to grep).
pub fn render_profile(path: &str, p: &ExecProfile) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{path}: profile: steps {}, ops {}, superinstruction hits {}",
        p.steps,
        p.ops_executed,
        p.superinstruction_hits()
    );
    let _ = writeln!(
        out,
        "{path}: profile: word fast-path {} hit / {} fallback{}",
        p.word_fast_hits,
        p.word_fast_fallbacks,
        match p.word_fast_hit_rate() {
            Some(r) => format!(" ({:.1}% hit)", r * 100.0),
            None => String::new(),
        }
    );
    let _ = writeln!(
        out,
        "{path}: profile: footprint elision {} elided / {} tree-fallback{}",
        p.elided_boundaries(),
        p.tree_fallback_ops(),
        match p.footprint_elision_rate() {
            Some(r) => format!(" ({:.1}% elided)", r * 100.0),
            None => String::new(),
        }
    );
    let _ = writeln!(
        out,
        "{path}: profile: objects {}, peak live bytes {}, heap allocs {} / frees {} / bytes {}",
        p.objects_allocated, p.peak_live_bytes, p.heap_allocs, p.heap_frees, p.heap_bytes_allocated
    );
    let _ = writeln!(
        out,
        "{path}: profile: arena {} recycled / {} grown{}, frame pool {} hit / {} miss{}",
        p.arena_recycles,
        p.arena_misses,
        match p.arena_recycle_rate() {
            Some(r) => format!(" ({:.1}% recycled)", r * 100.0),
            None => String::new(),
        },
        p.frame_pool_hits,
        p.frame_pool_misses,
        match p.frame_pool_hit_rate() {
            Some(r) => format!(" ({:.1}% hit)", r * 100.0),
            None => String::new(),
        }
    );
    if p.sweep_hits + p.sweep_fallbacks > 0 {
        let _ = writeln!(
            out,
            "{path}: profile: byte sweeps {} fused / {} fallback{}",
            p.sweep_hits,
            p.sweep_fallbacks,
            match p.sweep_hit_rate() {
                Some(r) => format!(" ({:.1}% fused)", r * 100.0),
                None => String::new(),
            }
        );
    }
    let mut ops: Vec<(&str, u64)> = p.op_counts.iter().map(|(m, n)| (*m, *n)).collect();
    ops.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    if !ops.is_empty() {
        // The whole histogram, most-dispatched first, so two builds'
        // op mixes can be compared from the CLI.
        let all: Vec<String> = ops.iter().map(|(m, n)| format!("{m}×{n}")).collect();
        let _ = writeln!(out, "{path}: profile: top ops: {}", all.join(" "));
    }
    out
}
