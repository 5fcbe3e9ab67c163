//! Known-answer checking: read what the product reported for each file
//! and compare it with the answer the input was built with.

use crate::corpus::{Expect, Unit};
use cundef_ub::json::Json;
use cundef_ub::render::sarif_rule_id;
use cundef_ub::UbKind;
use std::collections::BTreeMap;

/// What the product said about one file.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Observed {
    /// Findings as (kind, line), sorted.
    pub findings: Vec<(UbKind, u32)>,
    /// Verdict records seen (JSON output only).
    pub verdicts: Vec<String>,
    /// The verdict carried an exit value.
    pub exit: bool,
    /// Engine-failure records.
    pub errors: usize,
}

/// Every kind, by its `Debug` spelling and by its SARIF rule id.
fn kind_tables() -> (BTreeMap<String, UbKind>, BTreeMap<String, UbKind>) {
    let mut by_name = BTreeMap::new();
    let mut by_rule = BTreeMap::new();
    for &kind in UbKind::ALL {
        by_name.insert(format!("{kind:?}"), kind);
        by_rule.insert(sarif_rule_id(kind), kind);
    }
    (by_name, by_rule)
}

/// Per-file observations from `--format json` (JSON Lines) output.
pub fn parse_json_lines(stdout: &str) -> Result<BTreeMap<String, Observed>, String> {
    let (by_name, _) = kind_tables();
    let mut files: BTreeMap<String, Observed> = BTreeMap::new();
    for line in stdout.lines() {
        let v = Json::parse(line).ok_or_else(|| format!("not JSON: {line}"))?;
        let file = v
            .get("file")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("record without a file: {line}"))?;
        let obs = files.entry(file.to_string()).or_default();
        match v.get("type").and_then(Json::as_str) {
            Some("finding") => {
                let kind = v
                    .get("kind")
                    .and_then(Json::as_str)
                    .and_then(|k| by_name.get(k))
                    .ok_or_else(|| format!("finding without a known kind: {line}"))?;
                let at = v.get("line").and_then(Json::as_u32).unwrap_or(0);
                obs.findings.push((*kind, at));
            }
            Some("verdict") => {
                let verdict = v.get("verdict").and_then(Json::as_str).unwrap_or("");
                obs.verdicts.push(verdict.to_string());
                obs.exit = v.get("exit").is_some();
            }
            Some("error") => obs.errors += 1,
            _ => {}
        }
    }
    for obs in files.values_mut() {
        obs.findings
            .sort_by_key(|&(kind, line)| (line, kind.code()));
    }
    Ok(files)
}

/// The text after `key` in `s`, up to `end`.
fn field<'a>(s: &'a str, key: &str, end: char) -> Option<&'a str> {
    let rest = &s[s.find(key)? + key.len()..];
    Some(&rest[..rest.find(end)?])
}

/// Per-file observations from `--format sarif` output. Files without
/// results do not appear.
///
/// The document is scanned, not parsed: the workspace's JSON reader
/// re-validates the rest of its input at every string character, which
/// is quadratic in the size of a whole-batch SARIF log. The renderer
/// writes each result as `{"ruleId": "UB…", …, "level": …,
/// "locations": [… "uri": …, "startLine": …]}` with escaped strings, so
/// splitting at `{"ruleId": "` yields one result per piece.
pub fn parse_sarif(stdout: &str) -> Result<BTreeMap<String, Observed>, String> {
    let (_, by_rule) = kind_tables();
    if !stdout.starts_with('{') || !stdout.trim_end().ends_with('}') {
        return Err("SARIF output is not one JSON object".into());
    }
    let mut files: BTreeMap<String, Observed> = BTreeMap::new();
    for result in stdout.split("{\"ruleId\": \"").skip(1) {
        if field(result, "\"level\": \"", '"') != Some("error") {
            continue; // implementation-defined notes
        }
        let kind = result
            .split('"')
            .next()
            .and_then(|r| by_rule.get(r))
            .ok_or("SARIF result without a known rule")?;
        let uri = field(result, "\"uri\": \"", '"').ok_or("SARIF result without a file")?;
        let line = field(result, "\"startLine\": ", ',')
            .and_then(|l| l.parse().ok())
            .unwrap_or(0);
        files
            .entry(uri.to_string())
            .or_default()
            .findings
            .push((*kind, line));
    }
    if stdout.contains("\"executionSuccessful\": false") {
        // Engine failures: charged to no file in particular; the caller
        // counts them as failed checks.
        files.entry(String::new()).or_default().errors += 1;
    }
    for obs in files.values_mut() {
        obs.findings
            .sort_by_key(|&(kind, line)| (line, kind.code()));
    }
    Ok(files)
}

/// Does one file's observation match its known answer?
fn matches(expect: &Expect, obs: &Observed, json: bool) -> bool {
    if obs.errors > 0 || obs.findings != expect.findings {
        return false;
    }
    if !json {
        return true;
    }
    let verdict = if expect.findings.is_empty() {
        "defined"
    } else {
        "undefined"
    };
    obs.verdicts == [verdict] && obs.exit == expect.completes
}

/// The number of units whose reported answer differs from the known
/// one, given per-file observations keyed by `label(unit)`. Engine
/// failures not tied to a file count once each.
pub fn count_failures(
    units: &[Unit],
    observed: &BTreeMap<String, Observed>,
    label: impl Fn(&Unit) -> String,
    json: bool,
) -> u64 {
    let empty = Observed::default();
    let mut failed = 0;
    for u in units {
        let obs = observed.get(&label(u)).unwrap_or(&empty);
        if !matches(&u.expect, obs, json) {
            eprintln!(
                "perfbench: wrong answer for {}: expected {:?}, got {:?}",
                u.name, u.expect, obs
            );
            failed += 1;
        }
    }
    failed + observed.get("").map_or(0, |o| o.errors as u64)
}

/// The exit status a run over `units` must end with.
pub fn expected_exit(units: &[Unit]) -> i32 {
    if units.iter().any(|u| !u.expect.findings.is_empty()) {
        1
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{batch_exec, batch_frontend};
    use crate::trace::{check_source, render, Format, Opts, Phase, Tracer};

    /// Render `units` in process, as one batch run would print them.
    fn output(units: &[Unit], phase: Phase, format: Format) -> String {
        let mut t = Tracer::new();
        let mut renderer = format.renderer("0.0.0");
        let opts = Opts {
            phase,
            ..Opts::DEFAULT
        };
        let mut out = String::new();
        for u in units {
            let result = check_source(&mut t, &u.name, &u.source, opts);
            out.push_str(&render(&mut t, renderer.as_mut(), &result).stdout);
        }
        out + &renderer.finish()
    }

    fn sample(units: Vec<Unit>) -> Vec<Unit> {
        // A clean unit and an undefined one of each corpus.
        let clean = units.iter().find(|u| u.expect.findings.is_empty());
        let undefined = units.iter().find(|u| !u.expect.findings.is_empty());
        vec![clean.unwrap().clone(), undefined.unwrap().clone()]
    }

    #[test]
    fn a_wrong_expected_answer_is_a_failure() {
        std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/..")).unwrap();
        let label = |u: &Unit| u.name.clone();
        let cases = [
            (sample(batch_exec(4).unwrap()), Phase::All, Format::Json),
            (sample(batch_frontend(4)), Phase::Translation, Format::Sarif),
        ];
        for (mut units, phase, format) in cases {
            let out = output(&units, phase, format);
            let observed = match format {
                Format::Json => parse_json_lines(&out).unwrap(),
                _ => parse_sarif(&out).unwrap(),
            };
            let json = format == Format::Json;
            assert_eq!(count_failures(&units, &observed, label, json), 0);
            // A finding one line off.
            units[1].expect.findings[0].1 += 1;
            assert_eq!(count_failures(&units, &observed, label, json), 1);
            // A defined unit expected to be undefined, and back.
            units[1].expect.findings[0].1 -= 1;
            units[0].expect = units[1].expect.clone();
            assert_eq!(count_failures(&units, &observed, label, json), 1);
        }
    }
}
