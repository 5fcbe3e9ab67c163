//! The traced pipeline: the product's checking path rebuilt from the
//! layers' public entry points, with a span around each call.
//!
//! The pipeline mirrors the CLI's `check_parsed` (analysis, then
//! compile and execute when the unit is clean and has a `main`) and
//! the daemon's two-level cache. Its rendered bytes are compared with
//! the product's, so the per-layer times describe the same work.

use cundef_analysis::analyze;
use cundef_cache::{content_hash, CacheKey, LruCache};
use cundef_semantics::ast::TranslationUnit;
use cundef_semantics::eval::{Engine, Interp, Limits, Outcome};
use cundef_semantics::intern::kw;
use cundef_semantics::{compile_unit, parser};
use cundef_ub::render::{
    FileResult, HumanRenderer, JsonRenderer, Rendered, Renderer, SarifRenderer, Verdict,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A layer of the checking path, named after its module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `cundef_cache::content_hash`.
    Hash,
    /// `LruCache::get` / `insert` on both cache levels.
    Lookup,
    /// `semantics::lexer::lex` (inside the parser span).
    Lexer,
    /// `parser::parse`, lexing and `resolve` included.
    Parser,
    /// `cundef_analysis::analyze`.
    Analysis,
    /// `compile_unit`.
    Compile,
    /// `Interp::run_main_compiled` (`run_main` on the tree engine).
    Vm,
    /// `Renderer::render_file` and `finish`.
    Render,
}

impl Layer {
    /// Every layer, in pipeline order.
    pub const ALL: [Layer; 8] = [
        Layer::Hash,
        Layer::Lookup,
        Layer::Lexer,
        Layer::Parser,
        Layer::Analysis,
        Layer::Compile,
        Layer::Vm,
        Layer::Render,
    ];

    /// The span name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Hash => "cache.hash",
            Layer::Lookup => "cache.lookup",
            Layer::Lexer => "lexer",
            Layer::Parser => "parser",
            Layer::Analysis => "analysis",
            Layer::Compile => "compile",
            Layer::Vm => "vm",
            Layer::Render => "render",
        }
    }
}

/// One span: a call into a layer on behalf of one check.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The check the call served (its parent).
    pub check: u32,
    /// The layer called.
    pub layer: Layer,
    /// Start, since the tracer was created.
    pub start: Duration,
    /// End, since the tracer was created.
    pub end: Duration,
}

/// Collects spans in memory; they are written out when the run ends.
pub struct Tracer {
    base: Instant,
    /// The check spans are charged to.
    pub check: u32,
    /// Every span so far.
    pub spans: Vec<Span>,
    /// Source bytes the lexer read.
    pub lexed: u64,
    /// Findings the analysis reported.
    pub findings: u64,
}

impl Tracer {
    /// An empty tracer.
    pub fn new() -> Tracer {
        Tracer {
            base: Instant::now(),
            check: 0,
            spans: Vec::new(),
            lexed: 0,
            findings: 0,
        }
    }

    fn push(&mut self, layer: Layer, start: Instant, end: Instant) {
        self.spans.push(Span {
            check: self.check,
            layer,
            start: start - self.base,
            end: end - self.base,
        });
    }

    /// Run `f` inside a span for `layer`.
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.push(layer, start, Instant::now());
        out
    }

    /// Self time per layer over every span, in [`Layer::ALL`] order:
    /// the parser's own time excludes its lexer child.
    pub fn totals(&self) -> [Duration; 8] {
        let mut out = [Duration::ZERO; 8];
        for s in &self.spans {
            let i = Layer::ALL
                .iter()
                .position(|&l| l == s.layer)
                .expect("known layer");
            out[i] += s.end - s.start;
        }
        let (lexer, parser) = (2, 3);
        out[parser] = out[parser].saturating_sub(out[lexer]);
        out
    }

    /// Self time of every layer charged to `check`, summed.
    pub fn check_sum(&self, check: u32) -> Duration {
        // The lexer span lies inside the parser span, so summing whole
        // spans of the other layers counts lexing exactly once.
        self.spans
            .iter()
            .filter(|s| s.check == check && s.layer != Layer::Lexer)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Spans as JSON Lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 64);
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"check\": {}, \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}\n",
                s.check,
                s.layer.name(),
                s.start.as_nanos(),
                s.end.as_nanos()
            ));
        }
        out
    }
}

/// Which checking phases run (the CLI's `--phase`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Static analysis only.
    Translation,
    /// Execution only.
    Execution,
    /// Translation, then execution of clean units.
    All,
}

impl Phase {
    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Translation => "translation",
            Phase::Execution => "execution",
            Phase::All => "all",
        }
    }
}

/// Checking options (the CLI's `--phase` and `--engine`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Opts {
    /// Phases.
    pub phase: Phase,
    /// Execution engine.
    pub engine: Engine,
}

impl Opts {
    /// The product's defaults.
    pub const DEFAULT: Opts = Opts {
        phase: Phase::All,
        engine: Engine::Bytecode,
    };

    /// The daemon's options fingerprint for these options (profiling
    /// off), which keys its result cache.
    pub fn fingerprint(self) -> u64 {
        let phase = match self.phase {
            Phase::Translation => 0u64,
            Phase::Execution => 1,
            Phase::All => 2,
        };
        let engine = match self.engine {
            Engine::Tree => 0u64,
            Engine::Bytecode => 1,
        };
        phase | (engine << 2)
    }

    /// The engine's CLI spelling.
    pub fn engine_name(self) -> &'static str {
        match self.engine {
            Engine::Tree => "tree",
            Engine::Bytecode => "bytecode",
        }
    }
}

/// Output format (the CLI's `--format`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// kcc-style text.
    Human,
    /// JSON Lines.
    Json,
    /// SARIF 2.1.0.
    Sarif,
}

impl Format {
    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Format::Human => "human",
            Format::Json => "json",
            Format::Sarif => "sarif",
        }
    }

    /// A fresh renderer for this format.
    pub fn renderer(self, version: &str) -> Box<dyn Renderer> {
        match self {
            Format::Human => Box::new(HumanRenderer::new(false)),
            Format::Json => Box::new(JsonRenderer::new()),
            Format::Sarif => Box::new(SarifRenderer::new(version)),
        }
    }
}

fn failed(path: &str, error: String) -> FileResult {
    FileResult {
        path: path.to_string(),
        verdict: Verdict::EngineFailure,
        findings: Vec::new(),
        notes: Vec::new(),
        success: None,
        exit: None,
        errors: vec![error],
    }
}

/// Parse `source`: the parser span, with the lexer's share as a child
/// span at its start (lexing is the parser's first step).
pub fn parse(t: &mut Tracer, source: &str) -> Result<TranslationUnit, String> {
    let start = Instant::now();
    let parsed = parser::parse_timed(source);
    let end = Instant::now();
    t.push(Layer::Parser, start, end);
    match parsed {
        Ok((unit, timing)) => {
            t.push(Layer::Lexer, start, start + timing.lex);
            t.lexed += source.len() as u64;
            Ok(unit)
        }
        Err(e) => Err(e.to_string()),
    }
}

/// Check an already-parsed unit, as the CLI's `check_parsed` does.
pub fn check_parsed(t: &mut Tracer, path: &str, unit: &TranslationUnit, opts: Opts) -> FileResult {
    let mut result = FileResult {
        path: path.to_string(),
        verdict: Verdict::Defined,
        findings: Vec::new(),
        notes: Vec::new(),
        success: None,
        exit: None,
        errors: Vec::new(),
    };
    if opts.phase != Phase::Execution {
        let findings = t.time(Layer::Analysis, || analyze(unit));
        t.findings += findings.len() as u64;
        if !findings.is_empty() {
            result.verdict = Verdict::Undefined;
            result.findings = findings.iter().map(|f| f.to_diagnostic()).collect();
            return result;
        }
        if opts.phase == Phase::Translation {
            result.success = Some("translation phase found no undefined behavior".to_string());
            return result;
        }
    }
    if unit.function(kw::MAIN).is_none() {
        let note = if opts.phase == Phase::All {
            "nothing to execute (no `main`); translation phase found no undefined behavior"
        } else {
            "nothing to execute (translation unit defines no `main`)"
        };
        result.success = Some(note.to_string());
        return result;
    }
    let mut interp = Interp::with_engine(unit, Limits::default(), opts.engine);
    let outcome = if opts.engine == Engine::Bytecode {
        let compiled = t.time(Layer::Compile, || compile_unit(unit));
        t.time(Layer::Vm, || interp.run_main_compiled(&compiled))
    } else {
        t.time(Layer::Vm, || interp.run_main())
    };
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
    result
}

/// Check source text: parse, then [`check_parsed`].
pub fn check_source(t: &mut Tracer, path: &str, source: &str, opts: Opts) -> FileResult {
    match parse(t, source) {
        Ok(unit) => check_parsed(t, path, &unit, opts),
        Err(e) => failed(path, e),
    }
}

/// Render one file's result through `renderer`, inside a render span.
pub fn render(t: &mut Tracer, renderer: &mut dyn Renderer, result: &FileResult) -> Rendered {
    t.time(Layer::Render, || renderer.render_file(result))
}

/// The daemon's cache outcome for a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Full result reused.
    Hit,
    /// Parsed unit reused, checked under new options.
    Warm,
    /// Checked from source.
    Miss,
}

impl CacheOutcome {
    /// The `X-Cundef-Cache` spelling.
    pub fn name(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Warm => "warm",
            CacheOutcome::Miss => "miss",
        }
    }
}

/// The daemon's default entries per cache level.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// The daemon's request path — content hash, result cache, unit cache,
/// check on a miss, render — over the same cache types and capacity.
pub struct ServeModel {
    results: LruCache<FileResult>,
    units: LruCache<Arc<TranslationUnit>>,
    version: String,
}

impl ServeModel {
    /// Empty caches of `capacity` entries each.
    pub fn new(capacity: usize, version: &str) -> ServeModel {
        ServeModel {
            results: LruCache::new(capacity),
            units: LruCache::new(capacity),
            version: version.to_string(),
        }
    }

    /// Serve one request; returns the response body and cache outcome.
    pub fn handle(
        &mut self,
        t: &mut Tracer,
        path: &str,
        source: &str,
        opts: Opts,
        format: Format,
    ) -> (String, CacheOutcome) {
        let content = t.time(Layer::Hash, || content_hash(source.as_bytes()));
        let result_key = CacheKey {
            content,
            fingerprint: opts.fingerprint(),
        };
        let unit_key = CacheKey {
            content,
            fingerprint: 0,
        };
        let hit = t.time(Layer::Lookup, || self.results.get(&result_key).cloned());
        let (result, outcome) = match hit {
            Some(mut result) => {
                result.path = path.to_string();
                (result, CacheOutcome::Hit)
            }
            None => {
                let unit = t.time(Layer::Lookup, || self.units.get(&unit_key).cloned());
                let (result, outcome) = match unit {
                    Some(unit) => (check_parsed(t, path, &unit, opts), CacheOutcome::Warm),
                    None => match parse(t, source) {
                        Ok(unit) => {
                            let unit = Arc::new(unit);
                            t.time(Layer::Lookup, || {
                                self.units.insert(unit_key, Arc::clone(&unit))
                            });
                            (check_parsed(t, path, &unit, opts), CacheOutcome::Miss)
                        }
                        Err(e) => (failed(path, e), CacheOutcome::Miss),
                    },
                };
                let mut stored = result.clone();
                stored.path = String::new();
                t.time(Layer::Lookup, || self.results.insert(result_key, stored));
                (result, outcome)
            }
        };
        let mut renderer = format.renderer(&self.version);
        let body = t.time(Layer::Render, || {
            let mut out = renderer.render_file(&result).stdout;
            out.push_str(&renderer.finish());
            out
        });
        (body, outcome)
    }
}
