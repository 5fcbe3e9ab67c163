//! The rendering seam: one structured checking result per file, many
//! output formats.
//!
//! Every frontend (the `cundef` CLI's sequential and `--batch` drivers,
//! the fuzzer's round-trip oracle, eventually `cundef serve`) reduces
//! the checking of one file to a [`FileResult`]: a verdict, the
//! [`Diagnostic`] findings, the implementation-defined conversion
//! notes, and any engine-failure messages. A [`Renderer`] turns that
//! structure into bytes:
//!
//! - [`HumanRenderer`] — the kcc-style terminal format, byte-identical
//!   to the output `cundef` has always produced;
//! - [`JsonRenderer`] — JSON Lines, one self-contained object per
//!   event (`finding`, `note`, `verdict`, `error`), safe to stream and
//!   to concatenate across files and parallel batches;
//! - [`SarifRenderer`] — a single SARIF 2.1.0 document per invocation,
//!   with one reporting rule per detectable [`UbKind`] whose metadata
//!   is drawn from the paper's 221-entry §5.2.1 catalog.
//!
//! The seam is also where the location contract is enforced: every
//! emitted diagnostic must carry a real source position (line and
//! column ≥ 1). [`FileResult::assert_real_locs`] checks it in debug
//! builds, so a detector that forgets `.at(loc)` fails its tests
//! instead of shipping a `0:0` placeholder.

use crate::json::escape_into;
use crate::{catalog, Diagnostic, SourceLoc, UbKind};
use std::fmt::Write as _;

/// The per-file verdict, shared by every renderer and the CLI's exit
/// code (0 — all [`Verdict::Defined`]; 1 — any [`Verdict::Undefined`];
/// 2 — any [`Verdict::EngineFailure`] without undefinedness).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every selected phase found no undefined behavior.
    Defined,
    /// Undefined behavior was detected (the findings say where).
    Undefined,
    /// The checker could not finish: unreadable file, input outside the
    /// supported subset, or an engine limit. Says nothing about the
    /// program.
    EngineFailure,
}

impl Verdict {
    /// Stable lower-case spelling used by the structured formats.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Defined => "defined",
            Verdict::Undefined => "undefined",
            Verdict::EngineFailure => "error",
        }
    }
}

/// Everything the checker concluded about one file, structured.
///
/// # Examples
///
/// ```
/// use cundef_ub::render::{FileResult, HumanRenderer, Renderer, Verdict};
/// use cundef_ub::{SourceLoc, UbError, UbKind};
///
/// let r = FileResult {
///     path: "t.c".into(),
///     verdict: Verdict::Undefined,
///     findings: vec![UbError::new(UbKind::DivisionByZero)
///         .at(SourceLoc::new(3, 10))
///         .in_function("main")
///         .to_diagnostic()],
///     notes: vec![],
///     success: None,
///     exit: None,
///     errors: vec![],
/// };
/// let out = HumanRenderer::new(false).render_file(&r);
/// assert!(out.stdout.starts_with("t.c:\nERROR! KCC encountered an error."));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FileResult {
    /// The file as named on the command line (used verbatim in output).
    pub path: String,
    /// The verdict.
    pub verdict: Verdict,
    /// Diagnostics, in report order.
    pub findings: Vec<Diagnostic>,
    /// Implementation-defined conversion notes (§6.3.1.3:3), in
    /// execution order: they describe defined behavior the program
    /// relied on, whatever the verdict.
    pub notes: Vec<(SourceLoc, String)>,
    /// Human status text for a clean file (everything after `"path: "`
    /// — e.g. `"no undefined behavior detected (program returned 0)"`),
    /// when there is one. Quiet mode suppresses it in human output;
    /// structured formats carry it in the verdict record.
    pub success: Option<String>,
    /// The program's exit value, when it executed to completion.
    pub exit: Option<i64>,
    /// Engine-failure messages (everything after `"path: "`), rendered
    /// to stderr in every format.
    pub errors: Vec<String>,
}

impl FileResult {
    /// Debug-assert the location contract: every finding carries a real
    /// source position (no `0:0` placeholders). Renderers call this on
    /// entry, so any detector that drops a location fails loudly in
    /// debug/test builds while release output is unaffected.
    pub fn assert_real_locs(&self) {
        if cfg!(debug_assertions) {
            for d in &self.findings {
                let loc = d.loc.unwrap_or_else(|| {
                    panic!(
                        "{}: diagnostic {:05} ({}) emitted without a source location",
                        self.path, d.code, d.description
                    )
                });
                assert!(
                    loc.line >= 1 && loc.col >= 1,
                    "{}: diagnostic {:05} ({}) carries placeholder location {}:{}",
                    self.path,
                    d.code,
                    d.description,
                    loc.line,
                    loc.col
                );
            }
        }
    }
}

/// One file's rendered output, split by stream so parallel drivers can
/// buffer and re-emit it in input order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Rendered {
    /// Bytes for standard output.
    pub stdout: String,
    /// Bytes for standard error.
    pub stderr: String,
}

/// A diagnostic output format.
///
/// Renderers are driven once per file, in input order, and once at the
/// end; formats that aggregate (SARIF) buffer in between.
pub trait Renderer {
    /// Render one file's result.
    fn render_file(&mut self, r: &FileResult) -> Rendered;

    /// Trailing output after the last file (e.g. the SARIF document).
    fn finish(&mut self) -> String {
        String::new()
    }
}

// --------------------------------------------------------------------
// Human format
// --------------------------------------------------------------------

/// The kcc-style terminal format `cundef` has always produced,
/// byte-identical to the pre-seam output (the goldens pin it).
#[derive(Debug, Clone)]
pub struct HumanRenderer {
    /// Suppress per-file success lines (`-q`).
    pub quiet: bool,
}

impl HumanRenderer {
    /// A human renderer; `quiet` suppresses success lines.
    pub fn new(quiet: bool) -> HumanRenderer {
        HumanRenderer { quiet }
    }
}

impl Renderer for HumanRenderer {
    fn render_file(&mut self, r: &FileResult) -> Rendered {
        r.assert_real_locs();
        let mut out = String::new();
        let mut err = String::new();
        for (loc, msg) in &r.notes {
            let _ = writeln!(out, "{}:{}: note: {}", r.path, loc, msg);
        }
        if !r.findings.is_empty() {
            let _ = writeln!(out, "{}:", r.path);
            for d in &r.findings {
                let _ = write!(out, "{d}");
            }
        }
        if !self.quiet {
            if let Some(msg) = &r.success {
                let _ = writeln!(out, "{}: {}", r.path, msg);
            }
        }
        for e in &r.errors {
            let _ = writeln!(err, "{}: {}", r.path, e);
        }
        Rendered {
            stdout: out,
            stderr: err,
        }
    }
}

// --------------------------------------------------------------------
// JSON Lines format
// --------------------------------------------------------------------

/// JSON Lines: one object per event, one event per line.
///
/// Event shapes (`type` discriminates):
///
/// - `finding` — `file`, `kind` (the [`UbKind`] variant name), `code`,
///   `severity`, `description`, `std_ref`, `function`, `line`,
///   `column`, `detail`;
/// - `note` — `file`, `line`, `column`, `message`;
/// - `verdict` — `file`, `verdict` (`defined`/`undefined`/`error`),
///   optional `exit` and `message`; exactly one per file;
/// - `error` — `file`, `message` (engine failures; also mirrored to
///   stderr as in the human format, so piped stdout stays pure JSONL
///   without hiding failures).
///
/// Lines from different files never interleave, and `--batch` output
/// is byte-identical to sequential output, so concatenated JSONL from
/// any driver parses the same way.
#[derive(Debug, Clone, Default)]
pub struct JsonRenderer;

impl JsonRenderer {
    /// A JSONL renderer.
    pub fn new() -> JsonRenderer {
        JsonRenderer
    }
}

/// Append `"key": "<escaped value>"` (with a leading comma) to a JSON
/// object under construction.
fn push_str_field(out: &mut String, key: &str, value: &str) {
    let _ = write!(out, ", \"{key}\": \"");
    escape_into(out, value);
    out.push('"');
}

impl Renderer for JsonRenderer {
    fn render_file(&mut self, r: &FileResult) -> Rendered {
        r.assert_real_locs();
        let mut out = String::new();
        let mut err = String::new();
        for (loc, msg) in &r.notes {
            out.push_str("{\"type\": \"note\"");
            push_str_field(&mut out, "file", &r.path);
            let _ = write!(out, ", \"line\": {}, \"column\": {}", loc.line, loc.col);
            push_str_field(&mut out, "message", msg);
            out.push_str("}\n");
        }
        for d in &r.findings {
            out.push_str("{\"type\": \"finding\"");
            push_str_field(&mut out, "file", &r.path);
            if let Some(kind) = d.kind {
                push_str_field(&mut out, "kind", &format!("{kind:?}"));
            }
            let _ = write!(out, ", \"code\": {}", d.code);
            push_str_field(&mut out, "severity", &d.severity.to_string());
            push_str_field(&mut out, "description", &d.description);
            if let Some(std_ref) = &d.std_ref {
                push_str_field(&mut out, "std_ref", std_ref);
            }
            if let Some(function) = &d.function {
                push_str_field(&mut out, "function", function);
            }
            if let Some(loc) = d.loc {
                let _ = write!(out, ", \"line\": {}, \"column\": {}", loc.line, loc.col);
            }
            if let Some(detail) = &d.detail {
                push_str_field(&mut out, "detail", detail);
            }
            out.push_str("}\n");
        }
        out.push_str("{\"type\": \"verdict\"");
        push_str_field(&mut out, "file", &r.path);
        push_str_field(&mut out, "verdict", r.verdict.as_str());
        if let Some(exit) = r.exit {
            let _ = write!(out, ", \"exit\": {exit}");
        }
        if let Some(msg) = &r.success {
            push_str_field(&mut out, "message", msg);
        }
        out.push_str("}\n");
        for e in &r.errors {
            out.push_str("{\"type\": \"error\"");
            push_str_field(&mut out, "file", &r.path);
            push_str_field(&mut out, "message", e);
            out.push_str("}\n");
            let _ = writeln!(err, "{}: {}", r.path, e);
        }
        Rendered {
            stdout: out,
            stderr: err,
        }
    }
}

// --------------------------------------------------------------------
// SARIF 2.1.0
// --------------------------------------------------------------------

/// SARIF 2.1.0: one `sarifLog` document per invocation, buffered until
/// [`Renderer::finish`].
///
/// The driver's reporting rules are the workspace's detectable
/// [`UbKind`]s — rule `UB00016` is the paper's flagship `Error: 00016`
/// — and each rule's metadata names the §5.2.1 catalog entries it
/// covers, linking tool output back to the paper's 221-entry
/// enumeration. Findings become `results` at level `error`;
/// implementation-defined conversion notes become `results` at level
/// `note`; engine failures become `toolExecutionNotifications` on the
/// invocation (and stderr lines, as in the human format).
#[derive(Debug, Clone)]
pub struct SarifRenderer {
    tool_version: String,
    results: Vec<String>,
    notifications: Vec<String>,
    any_failure: bool,
}

/// The published SARIF 2.1.0 schema URI (also what CI validates
/// against).
pub const SARIF_SCHEMA_URI: &str =
    "https://docs.oasis-open.org/sarif/sarif/v2.1.0/errata01/os/schemas/sarif-schema-2.1.0.json";

/// The stable SARIF rule id for a kind (`UB00016` for code 16).
pub fn sarif_rule_id(kind: UbKind) -> String {
    format!("UB{:05}", kind.code())
}

impl SarifRenderer {
    /// A SARIF renderer; `tool_version` lands in
    /// `tool.driver.version`.
    pub fn new(tool_version: &str) -> SarifRenderer {
        SarifRenderer {
            tool_version: tool_version.to_string(),
            results: Vec::new(),
            notifications: Vec::new(),
            any_failure: false,
        }
    }

    /// The `region` object for a location, 1-based as SARIF requires.
    fn region(loc: SourceLoc) -> String {
        format!(
            "{{\"startLine\": {}, \"startColumn\": {}}}",
            loc.line, loc.col
        )
    }

    /// A `location` object: physical (uri + region) plus the logical
    /// function, when known.
    fn location(path: &str, loc: Option<SourceLoc>, function: Option<&str>) -> String {
        let mut out = String::from("{\"physicalLocation\": {\"artifactLocation\": {\"uri\": ");
        out.push_str(&crate::json::escaped(path));
        out.push('}');
        if let Some(loc) = loc {
            let _ = write!(out, ", \"region\": {}", Self::region(loc));
        }
        out.push('}');
        if let Some(function) = function {
            out.push_str(", \"logicalLocations\": [{\"name\": ");
            out.push_str(&crate::json::escaped(function));
            out.push_str(", \"kind\": \"function\"}]");
        }
        out.push('}');
        out
    }

    /// The `rules` array: one `reportingDescriptor` per detectable
    /// kind, metadata drawn from the §5.2.1 catalog.
    fn rules_json() -> String {
        let mut out = String::from("[");
        for (i, kind) in UbKind::ALL.iter().enumerate() {
            let info = kind.info();
            let covered: Vec<u16> = catalog()
                .iter()
                .filter(|e| e.detected_by == Some(*kind))
                .map(|e| e.id)
                .collect();
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{{\"id\": \"{}\"", sarif_rule_id(*kind));
            push_str_field(&mut out, "name", &format!("{kind:?}"));
            out.push_str(", \"shortDescription\": {\"text\": ");
            out.push_str(&crate::json::escaped(info.title));
            out.push('}');
            let mut full = format!("{}. C11 (N1570) {}.", info.title, info.std_ref);
            if !covered.is_empty() {
                let ids: Vec<String> = covered.iter().map(u16::to_string).collect();
                let _ = write!(
                    full,
                    " Covers catalog entr{} {} of the paper's 221-entry §5.2.1 enumeration.",
                    if ids.len() == 1 { "y" } else { "ies" },
                    ids.join(", ")
                );
            }
            out.push_str(", \"fullDescription\": {\"text\": ");
            out.push_str(&crate::json::escaped(&full));
            out.push('}');
            out.push_str(", \"defaultConfiguration\": {\"level\": \"error\"}");
            let _ = write!(
                out,
                ", \"properties\": {{\"detectability\": \"{:?}\", \"std_ref\": {}, \
                 \"catalogIds\": [{}]}}",
                info.detect,
                crate::json::escaped(info.std_ref),
                covered
                    .iter()
                    .map(u16::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            out.push('}');
        }
        out.push(']');
        out
    }
}

impl Renderer for SarifRenderer {
    fn render_file(&mut self, r: &FileResult) -> Rendered {
        r.assert_real_locs();
        let mut err = String::new();
        for d in &r.findings {
            let mut res = String::from("{");
            match d.kind {
                Some(kind) => {
                    let index = UbKind::ALL.iter().position(|k| *k == kind).unwrap_or(0);
                    let _ = write!(
                        res,
                        "\"ruleId\": \"{}\", \"ruleIndex\": {index}, ",
                        sarif_rule_id(kind)
                    );
                }
                None => {
                    let _ = write!(res, "\"ruleId\": \"UB{:05}\", ", d.code);
                }
            }
            res.push_str("\"level\": \"error\", \"message\": {\"text\": ");
            res.push_str(&crate::json::escaped(&format!("{}.", d.description)));
            res.push_str("}, \"locations\": [");
            res.push_str(&Self::location(&r.path, d.loc, d.function.as_deref()));
            res.push(']');
            res.push_str(", \"properties\": {");
            let mut first = true;
            let mut prop = |key: &str, value: &str, out: &mut String| {
                if !first {
                    out.push_str(", ");
                }
                first = false;
                let _ = write!(out, "\"{key}\": {}", crate::json::escaped(value));
            };
            if let Some(detail) = &d.detail {
                prop("detail", detail, &mut res);
            }
            if let Some(std_ref) = &d.std_ref {
                prop("std_ref", std_ref, &mut res);
            }
            res.push_str("}}");
            self.results.push(res);
        }
        for (loc, msg) in &r.notes {
            let mut res = String::from("{\"level\": \"note\", \"message\": {\"text\": ");
            res.push_str(&crate::json::escaped(msg));
            res.push_str("}, \"locations\": [");
            res.push_str(&Self::location(&r.path, Some(*loc), None));
            res.push_str("]}");
            self.results.push(res);
        }
        for e in &r.errors {
            self.any_failure = true;
            let mut n = String::from("{\"level\": \"error\", \"message\": {\"text\": ");
            n.push_str(&crate::json::escaped(&format!("{}: {}", r.path, e)));
            n.push_str("}}");
            self.notifications.push(n);
            let _ = writeln!(err, "{}: {}", r.path, e);
        }
        Rendered {
            stdout: String::new(),
            stderr: err,
        }
    }

    fn finish(&mut self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"$schema\": \"{SARIF_SCHEMA_URI}\", \"version\": \"2.1.0\", \"runs\": [{{\
             \"tool\": {{\"driver\": {{\"name\": \"cundef\", \"version\": {}, \
             \"informationUri\": \"https://example.invalid/cundef\", \"rules\": {}}}}}, \
             \"invocations\": [{{\"executionSuccessful\": {}",
            crate::json::escaped(&self.tool_version),
            Self::rules_json(),
            !self.any_failure,
        );
        if !self.notifications.is_empty() {
            let _ = write!(
                out,
                ", \"toolExecutionNotifications\": [{}]",
                self.notifications.join(", ")
            );
        }
        let _ = write!(out, "}}], \"results\": [{}]}}]}}", self.results.join(", "));
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::UbError;

    fn sample() -> FileResult {
        FileResult {
            path: "examples/unsequenced.c".into(),
            verdict: Verdict::Undefined,
            findings: vec![UbError::new(UbKind::UnsequencedSideEffect)
                .at(SourceLoc::new(3, 5))
                .in_function("main")
                .with_detail("assignment to `x` unsequenced with another side effect on it")
                .to_diagnostic()],
            notes: vec![(SourceLoc::new(2, 7), "implementation-defined: wrap".into())],
            success: None,
            exit: None,
            errors: vec![],
        }
    }

    #[test]
    fn human_format_matches_the_historical_shape() {
        let out = HumanRenderer::new(false).render_file(&sample());
        assert!(out
            .stdout
            .starts_with("examples/unsequenced.c:2:7: note: implementation-defined: wrap\n"));
        assert!(out.stdout.contains("examples/unsequenced.c:\n"));
        assert!(out.stdout.contains("Error: 00016\n"));
        assert!(out.stdout.contains("Line: 3\n"));
        assert!(out.stderr.is_empty());
    }

    #[test]
    fn quiet_suppresses_only_success_lines() {
        let clean = FileResult {
            path: "ok.c".into(),
            verdict: Verdict::Defined,
            findings: vec![],
            notes: vec![],
            success: Some("no undefined behavior detected (program returned 0)".into()),
            exit: Some(0),
            errors: vec![],
        };
        let loud = HumanRenderer::new(false).render_file(&clean);
        assert_eq!(
            loud.stdout,
            "ok.c: no undefined behavior detected (program returned 0)\n"
        );
        let quiet = HumanRenderer::new(true).render_file(&clean);
        assert!(quiet.stdout.is_empty());
        // The undefined report itself is never suppressed.
        let quiet_ub = HumanRenderer::new(true).render_file(&sample());
        assert!(quiet_ub.stdout.contains("Error: 00016"));
    }

    #[test]
    fn jsonl_events_parse_and_carry_the_finding() {
        let out = JsonRenderer::new().render_file(&sample());
        let lines: Vec<&str> = out.stdout.lines().collect();
        assert_eq!(lines.len(), 3); // note, finding, verdict
        let note = Json::parse(lines[0]).expect("note parses");
        assert_eq!(note.get("type").and_then(Json::as_str), Some("note"));
        assert_eq!(note.get("line").and_then(Json::as_u32), Some(2));
        let finding = Json::parse(lines[1]).expect("finding parses");
        assert_eq!(
            finding.get("kind").and_then(Json::as_str),
            Some("UnsequencedSideEffect")
        );
        assert_eq!(finding.get("code").and_then(Json::as_u32), Some(16));
        assert_eq!(finding.get("line").and_then(Json::as_u32), Some(3));
        assert_eq!(finding.get("column").and_then(Json::as_u32), Some(5));
        let verdict = Json::parse(lines[2]).expect("verdict parses");
        assert_eq!(
            verdict.get("verdict").and_then(Json::as_str),
            Some("undefined")
        );
    }

    #[test]
    fn sarif_document_is_valid_json_with_rules_and_results() {
        let mut r = SarifRenderer::new("0.1.0");
        let per_file = r.render_file(&sample());
        assert!(per_file.stdout.is_empty(), "SARIF aggregates until finish");
        let doc = r.finish();
        let v = Json::parse(&doc).expect("SARIF must be valid JSON");
        assert_eq!(v.get("version").and_then(Json::as_str), Some("2.1.0"));
        let run = &v.get("runs").and_then(Json::as_arr).unwrap()[0];
        let rules = run
            .get("tool")
            .and_then(|t| t.get("driver"))
            .and_then(|d| d.get("rules"))
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(rules.len(), UbKind::ALL.len());
        assert!(rules
            .iter()
            .any(|r| r.get("id").and_then(Json::as_str) == Some("UB00016")));
        let results = run.get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(results.len(), 2); // finding + note
        assert_eq!(
            results[0].get("ruleId").and_then(Json::as_str),
            Some("UB00016")
        );
        let region = results[0]
            .get("locations")
            .and_then(Json::as_arr)
            .and_then(|l| l[0].get("physicalLocation"))
            .and_then(|p| p.get("region"))
            .unwrap();
        assert_eq!(region.get("startLine").and_then(Json::as_u32), Some(3));
    }

    #[test]
    fn sarif_rule_metadata_names_catalog_entries() {
        let doc = {
            let mut r = SarifRenderer::new("0.1.0");
            r.finish()
        };
        let v = Json::parse(&doc).unwrap();
        let rules = v.get("runs").and_then(Json::as_arr).unwrap()[0]
            .get("tool")
            .and_then(|t| t.get("driver"))
            .and_then(|d| d.get("rules"))
            .and_then(Json::as_arr)
            .unwrap()
            .to_vec();
        // Every rule with coverage must list at least one catalog id,
        // and the flagship unsequenced rule must cite §6.5:2.
        let unseq = rules
            .iter()
            .find(|r| r.get("id").and_then(Json::as_str) == Some("UB00016"))
            .unwrap();
        let props = unseq.get("properties").unwrap();
        assert_eq!(props.get("std_ref").and_then(Json::as_str), Some("6.5:2"),);
        assert!(!props
            .get("catalogIds")
            .and_then(Json::as_arr)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn engine_failures_reach_stderr_and_sarif_notifications() {
        let failed = FileResult {
            path: "gone.c".into(),
            verdict: Verdict::EngineFailure,
            findings: vec![],
            notes: vec![],
            success: None,
            exit: None,
            errors: vec!["cannot read file: No such file or directory (os error 2)".into()],
        };
        let human = HumanRenderer::new(false).render_file(&failed);
        assert!(human.stderr.starts_with("gone.c: cannot read file"));
        let mut sarif = SarifRenderer::new("0.1.0");
        let per_file = sarif.render_file(&failed);
        assert_eq!(per_file.stderr, human.stderr);
        let doc = Json::parse(&sarif.finish()).unwrap();
        let inv = &doc.get("runs").and_then(Json::as_arr).unwrap()[0]
            .get("invocations")
            .and_then(Json::as_arr)
            .unwrap()[0];
        assert_eq!(inv.get("executionSuccessful"), Some(&Json::Bool(false)));
        assert!(!inv
            .get("toolExecutionNotifications")
            .and_then(Json::as_arr)
            .unwrap()
            .is_empty());
    }

    // The check is a `debug_assert!`, which release builds compile out.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "placeholder location")]
    fn placeholder_locations_fail_the_debug_assertion() {
        let mut bad = sample();
        bad.findings[0].loc = Some(SourceLoc::new(0, 0));
        HumanRenderer::new(false).render_file(&bad);
    }
}
