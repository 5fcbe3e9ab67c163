//! End-to-end tests of `cundef serve` over both transports:
//! stdin-JSONL and HTTP (`--listen`).
//!
//! The daemon's contract: a serve response's rendered bytes are
//! **byte-identical** to what a one-shot `cundef` run prints for the
//! same file and options — in every format, for both engines, whether
//! the answer came from a cold check, a warm unit reuse, or a full
//! cache hit. These tests pin that contract over the whole example
//! corpus, plus the cache semantics themselves: repeats hit, one-byte
//! mutations invalidate, option fingerprints never cross-contaminate,
//! and eviction under a tiny capacity changes performance, not answers.
//!
//! Cache-outcome assertions run the daemon with `--jobs 1`: with
//! parallel workers two identical in-flight requests can race to a
//! double miss (benign — both compute the same bytes), so outcome
//! labels are only deterministic single-threaded.

use cundef_ub::json::{escaped, Json};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, ChildStderr, ChildStdin, ChildStdout, Command, Output, Stdio};
use std::time::{Duration, Instant};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap()
        .to_path_buf()
}

fn cundef(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cundef"))
        .current_dir(workspace_root())
        .args(args)
        .output()
        .expect("binary should run")
}

/// Run `cundef serve` with `args`, feed `input` JSONL on stdin, and
/// return the response lines (the trailing shutdown line included).
fn serve(args: &[&str], input: &str) -> Vec<Json> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cundef"))
        .current_dir(workspace_root())
        .arg("serve")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon should spawn");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input.as_bytes())
        .expect("write requests");
    let out = child.wait_with_output().expect("daemon should exit");
    assert_eq!(out.status.code(), Some(0), "daemon exit: {out:?}");
    String::from_utf8(out.stdout)
        .expect("stdout is UTF-8")
        .lines()
        .map(|l| Json::parse(l).unwrap_or_else(|| panic!("response line is JSON: {l}")))
        .collect()
}

fn field<'a>(v: &'a Json, key: &str) -> &'a Json {
    v.get(key)
        .unwrap_or_else(|| panic!("field `{key}` in {v:?}"))
}

fn str_field<'a>(v: &'a Json, key: &str) -> &'a str {
    field(v, key).as_str().expect("string field")
}

fn num_field(v: &Json, key: &str) -> u64 {
    field(v, key).as_f64().expect("number field") as u64
}

/// Every `examples/*.c`, workspace-relative, sorted.
fn all_examples() -> Vec<String> {
    let mut files: Vec<String> = std::fs::read_dir(workspace_root().join("examples"))
        .expect("examples/ exists")
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            name.ends_with(".c").then(|| format!("examples/{name}"))
        })
        .collect();
    files.sort();
    assert!(files.len() > 20, "expected the full example corpus");
    files
}

// --------------------------------------------------------------------
// Parity: serve responses == one-shot output, everywhere
// --------------------------------------------------------------------

/// Over every example and every format, a serve response carries
/// exactly the stdout, stderr, and exit code of a one-shot run — both
/// cold and as a cache hit.
#[test]
fn serve_parity_all_examples_all_formats() {
    let examples = all_examples();
    let mut input = String::new();
    let mut expected = Vec::new();
    for format in ["human", "json", "sarif"] {
        for file in &examples {
            // Two passes per (file, format): the second must answer
            // from the cache with the same bytes.
            for _ in 0..2 {
                input.push_str(&format!(
                    "{{\"path\": \"{file}\", \"format\": \"{format}\"}}\n"
                ));
            }
            expected.push((file.clone(), format, cundef(&["--format", format, file])));
        }
    }
    input.push_str("{\"cmd\": \"shutdown\"}\n");
    let responses = serve(&["--jobs", "1"], &input);
    assert_eq!(responses.len(), examples.len() * 3 * 2 + 1);
    for (i, (file, format, one_shot)) in expected.iter().enumerate() {
        let cold = &responses[i * 2];
        let warm = &responses[i * 2 + 1];
        let want_stdout = String::from_utf8(one_shot.stdout.clone()).unwrap();
        let want_stderr = String::from_utf8(one_shot.stderr.clone()).unwrap();
        let want_exit = one_shot.status.code().expect("one-shot exit") as u64;
        for (pass, resp) in [("cold", cold), ("warm", warm)] {
            assert_eq!(
                str_field(resp, "stdout"),
                want_stdout,
                "{file} ({format}, {pass}) stdout diverges from one-shot"
            );
            assert_eq!(
                str_field(resp, "stderr"),
                want_stderr,
                "{file} ({format}, {pass}) stderr diverges from one-shot"
            );
            assert_eq!(
                num_field(resp, "exit"),
                want_exit,
                "{file} ({format}, {pass})"
            );
        }
        assert_eq!(
            str_field(warm, "cache"),
            "hit",
            "{file} ({format}) warm pass"
        );
    }
}

/// Engine choice is part of the cache fingerprint: the same file under
/// `tree` after `bytecode` is a warm unit reuse (never a cross-engine
/// result hit), and both render the engine-parity bytes.
#[test]
fn serve_engine_fingerprint_isolation() {
    let input = "\
        {\"path\": \"examples/unsequenced.c\", \"engine\": \"bytecode\"}\n\
        {\"path\": \"examples/unsequenced.c\", \"engine\": \"tree\"}\n\
        {\"cmd\": \"shutdown\"}\n";
    let responses = serve(&["--jobs", "1"], input);
    assert_eq!(str_field(&responses[0], "cache"), "miss");
    assert_eq!(
        str_field(&responses[1], "cache"),
        "warm",
        "same content, new options: frontend skipped, check re-run"
    );
    assert_eq!(
        str_field(&responses[0], "stdout"),
        str_field(&responses[1], "stdout"),
        "engine parity holds through the service path"
    );
}

/// `--phase` is fingerprinted too, and each response matches the
/// corresponding one-shot phase run byte for byte.
#[test]
fn serve_phase_fingerprint_isolation() {
    let file = "examples/unsequenced.c";
    let input = format!(
        "{{\"path\": \"{file}\", \"phase\": \"translation\"}}\n\
         {{\"path\": \"{file}\"}}\n\
         {{\"path\": \"{file}\", \"phase\": \"translation\"}}\n\
         {{\"cmd\": \"shutdown\"}}\n"
    );
    let responses = serve(&["--jobs", "1"], &input);
    let translation = cundef(&["--phase", "translation", file]);
    let full = cundef(&[file]);
    assert_eq!(
        str_field(&responses[0], "stdout"),
        String::from_utf8(translation.stdout).unwrap()
    );
    assert_eq!(
        str_field(&responses[1], "stdout"),
        String::from_utf8(full.stdout).unwrap()
    );
    // Different fingerprints never cross-contaminate: the translation
    // result was cached under its own key and replays as a hit, while
    // the default-phase request in between was a separate entry.
    assert_eq!(str_field(&responses[0], "cache"), "miss");
    assert_eq!(str_field(&responses[1], "cache"), "warm");
    assert_eq!(str_field(&responses[2], "cache"), "hit");
    assert_eq!(
        str_field(&responses[0], "stdout"),
        str_field(&responses[2], "stdout")
    );
}

// --------------------------------------------------------------------
// Cache semantics
// --------------------------------------------------------------------

/// A one-byte mutation of inline source invalidates: the mutated
/// request misses and reports its own (different) verdict.
#[test]
fn serve_mutation_invalidates() {
    let input = "\
        {\"source\": \"int main(void) { return 0; }\", \"path\": \"a.c\"}\n\
        {\"source\": \"int main(void) { return 1; }\", \"path\": \"a.c\"}\n\
        {\"source\": \"int main(void) { return 0; }\", \"path\": \"a.c\"}\n\
        {\"cmd\": \"shutdown\"}\n";
    let responses = serve(&["--jobs", "1"], input);
    assert_eq!(str_field(&responses[0], "cache"), "miss");
    assert_eq!(
        str_field(&responses[1], "cache"),
        "miss",
        "one changed byte must flip the content hash"
    );
    assert_eq!(str_field(&responses[2], "cache"), "hit");
    assert!(str_field(&responses[0], "stdout").contains("program returned 0"));
    assert!(str_field(&responses[1], "stdout").contains("program returned 1"));
    assert_eq!(
        str_field(&responses[0], "stdout"),
        str_field(&responses[2], "stdout")
    );
}

/// The same bytes under a different label replay from the cache, with
/// the response rendered under the *request's* path.
#[test]
fn serve_hit_rewrites_path() {
    let input = "\
        {\"source\": \"int main(void) { return 7; }\", \"path\": \"first.c\"}\n\
        {\"source\": \"int main(void) { return 7; }\", \"path\": \"second.c\"}\n\
        {\"cmd\": \"shutdown\"}\n";
    let responses = serve(&["--jobs", "1"], input);
    assert_eq!(str_field(&responses[1], "cache"), "hit");
    assert!(str_field(&responses[0], "stdout").starts_with("first.c:"));
    assert!(str_field(&responses[1], "stdout").starts_with("second.c:"));
}

/// Under `--cache-capacity 1`, alternating files evict each other —
/// every request misses, and the answers stay byte-identical.
#[test]
fn serve_eviction_stays_correct() {
    let a = "examples/defined.c";
    let b = "examples/unsequenced.c";
    let input = format!(
        "{{\"path\": \"{a}\"}}\n{{\"path\": \"{b}\"}}\n{{\"path\": \"{a}\"}}\n\
         {{\"path\": \"{b}\"}}\n{{\"cmd\": \"stats\"}}\n{{\"cmd\": \"shutdown\"}}\n"
    );
    let responses = serve(&["--jobs", "1", "--cache-capacity", "1"], &input);
    for (i, want) in ["miss", "miss", "miss", "miss"].iter().enumerate() {
        assert_eq!(str_field(&responses[i], "cache"), *want, "request {i}");
    }
    assert_eq!(
        str_field(&responses[0], "stdout"),
        str_field(&responses[2], "stdout"),
        "evicted-and-recomputed result is byte-identical"
    );
    assert_eq!(
        str_field(&responses[1], "stdout"),
        str_field(&responses[3], "stdout")
    );
    let stats = &responses[4];
    let results = field(stats, "results");
    assert_eq!(num_field(results, "entries"), 1);
    assert_eq!(num_field(results, "capacity"), 1);
    assert!(
        num_field(results, "evictions") >= 2,
        "tiny cache must evict"
    );
}

/// `{"cmd": "stats"}` is a barrier: it reflects exactly the requests
/// that preceded it on stdin, so counters are deterministic.
#[test]
fn serve_stats_deterministic() {
    let input = "\
        {\"path\": \"examples/defined.c\"}\n\
        {\"path\": \"examples/defined.c\"}\n\
        {\"path\": \"examples/unsequenced.c\"}\n\
        {\"cmd\": \"stats\"}\n\
        {\"cmd\": \"shutdown\"}\n";
    let responses = serve(&["--jobs", "1"], input);
    let stats = &responses[3];
    assert_eq!(str_field(stats, "type"), "stats");
    assert_eq!(num_field(stats, "requests"), 3);
    assert_eq!(num_field(stats, "full_hits"), 1);
    assert_eq!(num_field(stats, "cold_misses"), 2);
    assert_eq!(num_field(stats, "uncached"), 0);
}

/// Requests after a `stats` line wait for its snapshot, so with parallel
/// workers it still counts only the requests before it.
#[test]
fn serve_stats_excludes_later_requests() {
    let mut input = String::from("{\"path\": \"examples/defined.c\"}\n{\"cmd\": \"stats\"}\n");
    for i in 0..20 {
        input.push_str(&format!(
            "{{\"source\": \"int main(void) {{ return {i}; }}\"}}\n"
        ));
    }
    input.push_str("{\"cmd\": \"stats\"}\n{\"cmd\": \"shutdown\"}\n");
    let responses = serve(&["--jobs", "2"], &input);
    assert_eq!(num_field(&responses[1], "requests"), 1);
    assert_eq!(num_field(&responses[22], "requests"), 21);
}

// --------------------------------------------------------------------
// Per-request fail_on, error envelopes
// --------------------------------------------------------------------

/// `fail_on` maps the same verdict to different exit codes without
/// touching the rendered report.
#[test]
fn serve_fail_on_thresholds() {
    let file = "examples/unsequenced.c"; // undefined
    let input = format!(
        "{{\"path\": \"{file}\"}}\n\
         {{\"path\": \"{file}\", \"fail_on\": \"error\"}}\n\
         {{\"path\": \"{file}\", \"fail_on\": \"never\"}}\n\
         {{\"path\": \"no/such/file.c\"}}\n\
         {{\"path\": \"no/such/file.c\", \"fail_on\": \"never\"}}\n\
         {{\"cmd\": \"shutdown\"}}\n"
    );
    let responses = serve(&["--jobs", "1"], &input);
    assert_eq!(str_field(&responses[0], "verdict"), "undefined");
    assert_eq!(num_field(&responses[0], "exit"), 1);
    assert_eq!(
        num_field(&responses[1], "exit"),
        0,
        "fail_on=error demotes UB"
    );
    assert_eq!(num_field(&responses[2], "exit"), 0);
    assert_eq!(
        str_field(&responses[0], "stdout"),
        str_field(&responses[1], "stdout"),
        "fail_on changes the exit code, never the report"
    );
    assert_eq!(str_field(&responses[3], "verdict"), "error");
    assert_eq!(num_field(&responses[3], "exit"), 2);
    assert_eq!(str_field(&responses[3], "cache"), "uncached");
    assert_eq!(num_field(&responses[4], "exit"), 0);
}

/// Malformed lines and unknown commands get error envelopes; the
/// daemon keeps serving afterwards.
#[test]
fn serve_error_envelopes() {
    let input = "\
        this is not json\n\
        {\"cmd\": \"frobnicate\"}\n\
        {\"id\": 9}\n\
        {\"path\": \"examples/defined.c\", \"id\": 10}\n\
        {\"cmd\": \"shutdown\"}\n";
    let responses = serve(&["--jobs", "1"], input);
    assert_eq!(str_field(&responses[0], "type"), "error");
    assert_eq!(str_field(&responses[1], "type"), "error");
    assert_eq!(str_field(&responses[2], "type"), "error");
    assert_eq!(num_field(&responses[2], "id"), 9, "id echoes on errors");
    assert_eq!(str_field(&responses[3], "type"), "response");
    assert_eq!(num_field(&responses[3], "id"), 10);
    assert_eq!(str_field(&responses[3], "verdict"), "defined");
}

/// A program that leaks past the engine's total heap budget stops with
/// a located checker limitation, and the daemon answers the next
/// request. `stats` reports no contained panic.
#[test]
fn serve_survives_a_heap_exhausting_program() {
    let leak = "int main(void) {\\n  int i = 0;\\n  while (i < 3000) {\\n    \
                malloc(1000000);\\n    i++;\\n  }\\n  return 0;\\n}\\n";
    let input = format!(
        "{{\"source\": \"{leak}\", \"id\": 1}}\n\
         {{\"path\": \"examples/defined.c\", \"id\": 2}}\n\
         {{\"cmd\": \"stats\"}}\n\
         {{\"cmd\": \"shutdown\"}}\n"
    );
    let responses = serve(&["--jobs", "1"], &input);
    assert_eq!(str_field(&responses[0], "verdict"), "error");
    assert_eq!(num_field(&responses[0], "exit"), 2);
    assert_eq!(
        str_field(&responses[0], "stderr"),
        "<request>.c: checker limitation at 4:5: \
         malloc(1000000) exceeds the engine's memory budget\n"
    );
    assert_eq!(num_field(&responses[1], "id"), 2);
    assert_eq!(str_field(&responses[1], "verdict"), "defined");
    assert_eq!(str_field(&responses[2], "type"), "stats");
    assert_eq!(num_field(&responses[2], "panics"), 0);
}

/// A deeply parenthesised expression gets the one-shot verdict under
/// `--batch --jobs 2` and through `serve`, whose pool workers run with the
/// main thread's stack; the request queued behind it is answered too.
#[test]
fn deep_nesting_gets_the_one_shot_verdict_on_pool_workers() {
    // Deep enough to overflow a default 2 MiB thread stack, shallow
    // enough for the 8 MiB main thread — unoptimized frames are larger.
    let depth = if cfg!(debug_assertions) { 400 } else { 1000 };
    let src = format!(
        "int main(void) {{ return {}0{}; }}\n",
        "(".repeat(depth),
        ")".repeat(depth)
    );
    let path = std::env::temp_dir().join(format!("cundef_deep_{}.c", std::process::id()));
    std::fs::write(&path, &src).unwrap();
    let file = path.to_str().unwrap();
    let one_shot = cundef(&[file]);
    assert_eq!(one_shot.status.code(), Some(0), "{one_shot:?}");
    let want = String::from_utf8(one_shot.stdout).unwrap();
    let batch = cundef(&["--batch", "--jobs", "2", file, file]);
    assert_eq!(batch.status.code(), Some(0), "{batch:?}");
    assert_eq!(String::from_utf8(batch.stdout).unwrap(), want.repeat(2));
    let input = format!(
        "{{\"path\": {}, \"id\": 1}}\n\
         {{\"path\": \"examples/defined.c\", \"id\": 2}}\n\
         {{\"cmd\": \"shutdown\"}}\n",
        escaped(file)
    );
    let responses = serve(&["--jobs", "2"], &input);
    std::fs::remove_file(&path).unwrap();
    assert_eq!(str_field(&responses[0], "stdout"), want);
    assert_eq!(num_field(&responses[1], "id"), 2);
    assert_eq!(str_field(&responses[1], "verdict"), "defined");
}

/// A stdin line longer than the 64 MiB request cap gets an in-order
/// error envelope; the daemon discards it through its newline and
/// answers the next request.
#[test]
fn serve_discards_overlong_lines_and_keeps_serving() {
    const MAX_BODY: usize = 64 << 20;
    let mut input = String::with_capacity(MAX_BODY + 256);
    input.push_str("{\"path\": \"");
    input.extend(std::iter::repeat_n('x', MAX_BODY));
    input.push_str("\", \"id\": 1}\n");
    input.push_str("{\"path\": \"examples/defined.c\", \"id\": 2}\n{\"cmd\": \"shutdown\"}\n");
    let responses = serve(&["--jobs", "1"], &input);
    assert_eq!(responses.len(), 3);
    assert_eq!(str_field(&responses[0], "type"), "error");
    assert!(str_field(&responses[0], "message").contains("longer than"));
    assert_eq!(str_field(&responses[1], "type"), "response");
    assert_eq!(num_field(&responses[1], "id"), 2);
    assert_eq!(str_field(&responses[2], "type"), "shutdown");
}

/// Responses come back in request order even when many requests are in
/// flight across parallel workers.
#[test]
fn serve_responses_in_request_order() {
    let mut input = String::new();
    for i in 0..40 {
        let file = if i % 2 == 0 {
            "examples/defined.c"
        } else {
            "examples/unsequenced.c"
        };
        input.push_str(&format!("{{\"path\": \"{file}\", \"id\": {i}}}\n"));
    }
    input.push_str("{\"cmd\": \"shutdown\"}\n");
    let responses = serve(&["--jobs", "4"], &input);
    assert_eq!(responses.len(), 41);
    for (i, resp) in responses[..40].iter().enumerate() {
        assert_eq!(num_field(resp, "id"), i as u64, "response {i} out of order");
        let want = if i % 2 == 0 { "defined" } else { "undefined" };
        assert_eq!(str_field(resp, "verdict"), want);
    }
}

// --------------------------------------------------------------------
// HTTP transport
// --------------------------------------------------------------------

/// A `cundef serve --listen 127.0.0.1:0` daemon. Its stdin stays open
/// until the daemon is dropped; dropping it also kills the process.
struct Daemon {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    stderr: BufReader<ChildStderr>,
    /// The bound address the daemon announced on stderr.
    addr: String,
}

impl Daemon {
    fn spawn(args: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_cundef"))
            .current_dir(workspace_root())
            .args(["serve", "--listen", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("daemon should spawn");
        let stdin = child.stdin.take().expect("stdin piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
        let mut line = String::new();
        stderr.read_line(&mut line).expect("read the listen line");
        let addr = line
            .trim_end()
            .strip_prefix("cundef serve: listening on http://")
            .unwrap_or_else(|| panic!("unexpected first stderr line: {line:?}"))
            .to_string();
        Daemon {
            child,
            stdin,
            stdout,
            stderr,
            addr,
        }
    }

    /// One request on a fresh connection (`Connection: close`).
    fn http(&self, method: &str, target: &str, body: &str) -> HttpResponse {
        self.raw(&format!(
            "{method} {target} HTTP/1.1\r\nHost: cundef\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{body}",
            body.len()
        ))
    }

    /// Send `request` verbatim on a fresh connection and read the
    /// response until the daemon closes it.
    fn raw(&self, request: &str) -> HttpResponse {
        let mut conn = TcpStream::connect(&self.addr).expect("connect to the daemon");
        conn.set_read_timeout(Some(Duration::from_secs(20)))
            .expect("set a read timeout");
        conn.write_all(request.as_bytes()).expect("send request");
        let mut raw = String::new();
        conn.read_to_string(&mut raw).expect("read response");
        let (head, body) = raw.split_once("\r\n\r\n").expect("header terminator");
        let mut lines = head.split("\r\n");
        let status = lines.next().expect("status line");
        let status = status.split(' ').nth(1).expect("status code");
        let headers = lines
            .map(|h| {
                let (name, value) = h.split_once(": ").expect("header line");
                (name.to_ascii_lowercase(), value.to_string())
            })
            .collect();
        HttpResponse {
            status: status.parse().expect("numeric status"),
            headers,
            body: body.to_string(),
        }
    }

    /// Wait (at most 20 s) for the daemon to exit; its exit code and
    /// the rest of its stderr.
    fn wait(&mut self) -> (Option<i32>, String) {
        let deadline = Instant::now() + Duration::from_secs(20);
        let status = loop {
            if let Some(status) = self.child.try_wait().expect("poll daemon") {
                break status;
            }
            assert!(Instant::now() < deadline, "daemon did not exit");
            std::thread::sleep(Duration::from_millis(10));
        };
        let mut rest = String::new();
        self.stderr.read_to_string(&mut rest).expect("read stderr");
        (status.code(), rest)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct HttpResponse {
    status: u16,
    /// Lower-cased names, in order.
    headers: Vec<(String, String)>,
    body: String,
}

impl HttpResponse {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// `POST /check` answers with exactly a one-shot run's bytes: the body
/// is its stdout and the `X-Cundef-*` headers its verdict, exit code,
/// stderr and the cache outcome (a repeat hits). The other routes, the
/// stats counters, the error statuses and `POST /shutdown` follow.
#[test]
fn http_matches_one_shot_and_shuts_down() {
    let mut daemon = Daemon::spawn(&["--jobs", "1"]);
    let cases = [
        ("human", "examples/unsequenced.c"),
        ("json", "examples/defined.c"),
        ("sarif", "examples/division_by_zero.c"),
    ];
    for (format, file) in cases {
        let one_shot = cundef(&["--format", format, file]);
        let exit = one_shot.status.code().expect("one-shot exit");
        let verdict = ["defined", "undefined", "error"][exit as usize];
        let stderr = String::from_utf8(one_shot.stderr).unwrap();
        for cache in ["miss", "hit"] {
            let request = format!("{{\"path\": \"{file}\", \"format\": \"{format}\"}}");
            let resp = daemon.http("POST", "/check", &request);
            assert_eq!(resp.status, 200, "{file} ({format})");
            assert_eq!(resp.body.as_bytes(), one_shot.stdout, "{file} ({format})");
            assert_eq!(resp.header("x-cundef-verdict"), Some(verdict));
            assert_eq!(
                resp.header("x-cundef-exit"),
                Some(exit.to_string().as_str())
            );
            assert_eq!(
                resp.header("x-cundef-cache"),
                Some(cache),
                "{file} ({format})"
            );
            let want_stderr = (!stderr.is_empty()).then(|| escaped(&stderr));
            assert_eq!(resp.header("x-cundef-stderr"), want_stderr.as_deref());
        }
    }

    let stats = daemon.http("GET", "/stats", "");
    assert_eq!(stats.status, 200);
    let stats = Json::parse(&stats.body).expect("stats body is JSON");
    assert_eq!(num_field(&stats, "requests"), 6);
    assert_eq!(num_field(&stats, "full_hits"), 3);
    assert_eq!(num_field(&stats, "cold_misses"), 3);
    assert_eq!(num_field(&stats, "panics"), 0);

    let health = daemon.http("GET", "/health", "");
    assert_eq!((health.status, health.body.as_str()), (200, "ok\n"));
    assert_eq!(daemon.http("GET", "/nowhere", "").status, 404);
    let bad = daemon.http("POST", "/check", "this is not json");
    assert_eq!(bad.status, 400);
    let bad = Json::parse(bad.body.trim_end()).expect("error body is JSON");
    assert_eq!(str_field(&bad, "type"), "error");
    let bad = daemon.http("POST", "/check", r#"{"path": "a.c", "format": "yaml"}"#);
    assert_eq!(bad.status, 400);
    assert!(
        bad.body.contains("`human`, `json`, or `sarif`"),
        "{}",
        bad.body
    );

    let bye = daemon.http("POST", "/shutdown", "");
    assert_eq!(bye.status, 200);
    let (code, stderr) = daemon.wait();
    assert_eq!(code, Some(0));
    assert!(
        stderr.contains("cundef serve: 6 requests served (3 hits, 0 warm, 3 misses, 0 uncached)"),
        "{stderr}"
    );
}

/// A `Content-Length` above the body cap gets 413 before anything is
/// allocated, an unparsable one gets 400, and the daemon keeps serving.
#[test]
fn http_refuses_oversized_and_malformed_bodies() {
    let mut daemon = Daemon::spawn(&["--jobs", "1"]);
    let huge = daemon.raw("POST /check HTTP/1.1\r\nContent-Length: 100000000000000\r\n\r\n");
    assert_eq!(huge.status, 413);
    assert_eq!(huge.header("connection"), Some("close"));
    let garbled = daemon.raw("POST /check HTTP/1.1\r\nContent-Length: lots\r\n\r\n{}");
    assert_eq!(garbled.status, 400);
    let health = daemon.http("GET", "/health", "");
    assert_eq!((health.status, health.body.as_str()), (200, "ok\n"));
    assert_eq!(daemon.http("POST", "/shutdown", "").status, 200);
    assert_eq!(daemon.wait().0, Some(0));
}

/// With both transports on, `POST /shutdown` ends the whole daemon even
/// while stdin stays open.
#[test]
fn http_refuses_overlong_request_and_header_lines() {
    let mut daemon = Daemon::spawn(&["--jobs", "1"]);
    let long = "a".repeat(9 << 10);
    let uri = daemon.raw(&format!("GET /{long} HTTP/1.1\r\n\r\n"));
    assert_eq!(uri.status, 414);
    assert_eq!(uri.header("connection"), Some("close"));
    // A request line that never ends is refused just the same.
    let endless = daemon.raw(&format!("GET /{}", "a".repeat(100_000)));
    assert_eq!(endless.status, 414);
    let header = daemon.raw(&format!("GET /health HTTP/1.1\r\nX-Big: {long}\r\n\r\n"));
    assert_eq!(header.status, 431);
    assert_eq!(header.header("connection"), Some("close"));
    // Lines just under the cap are served.
    let fits = daemon.raw(&format!(
        "GET /health HTTP/1.1\r\nX-Big: {}\r\nConnection: close\r\n\r\n",
        "b".repeat((8 << 10) - 16)
    ));
    assert_eq!(fits.status, 200);
    assert_eq!(daemon.http("POST", "/shutdown", "").status, 200);
    assert_eq!(daemon.wait().0, Some(0));
}

#[test]
fn http_shutdown_ends_stdin_mode_too() {
    let mut daemon = Daemon::spawn(&["--stdin", "--jobs", "1"]);
    daemon
        .stdin
        .write_all(b"{\"path\": \"examples/defined.c\", \"id\": 1}\n")
        .expect("write a stdin request");
    daemon.stdin.flush().expect("flush stdin");
    let mut line = String::new();
    daemon
        .stdout
        .read_line(&mut line)
        .expect("read the stdin reply");
    let reply = Json::parse(&line).expect("reply is JSON");
    assert_eq!(str_field(&reply, "verdict"), "defined");
    assert_eq!(daemon.http("POST", "/shutdown", "").status, 200);
    assert_eq!(daemon.wait().0, Some(0));
}
