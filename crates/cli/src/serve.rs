//! `cundef serve` — checking as a service.
//!
//! A long-running daemon that accepts translation units as requests,
//! shards them across the same [`WorkerPool`] that powers `--batch`,
//! and answers through the existing `FileResult` → `Renderer` seam, so
//! a serve response's rendered bytes are **identical** to what a
//! one-shot `cundef` run prints for the same file and options, in every
//! `--format`.
//!
//! Two transports share one core:
//!
//! - **stdin-JSONL** — one JSON request object per line on stdin, one
//!   JSON response object per line on stdout, *in request order* (the
//!   printer drains one FIFO of pending replies). In-band commands:
//!   `{"cmd": "stats"}` and `{"cmd": "shutdown"}`. EOF also shuts down.
//! - **HTTP** (`--listen ADDR`) — `POST /check` with the same request
//!   object as the body returns the rendered report verbatim as the
//!   response body (verdict/exit/cache outcome in `X-Cundef-*`
//!   headers), plus `GET /stats`, `GET /health`, and `POST /shutdown`.
//!   Connections are keep-alive; each parsed request is dispatched to
//!   the worker pool. Bodies above [`MAX_BODY`] get `413`; request and
//!   header lines above [`MAX_LINE`] get `414` and `431`.
//!
//! No read grows without bound: a stdin line longer than [`MAX_BODY`]
//! gets an in-order error envelope and is discarded through its newline.
//!
//! Both parse a request with [`ServeCore::parse_request`] and hand it to
//! [`ServeCore::submit`]; either transport's shutdown ends the daemon.
//!
//! In front of the workers sits the content-hash incremental cache
//! (`cundef-cache`): a *result* cache keyed by (source-bytes hash,
//! options fingerprint) memoizing the full [`FileResult`], and a
//! *unit* cache keyed by content hash alone memoizing the parsed +
//! resolved translation unit — so a repeat file is a hash lookup and a
//! re-render, and a known file under new options skips the whole
//! frontend. Both caches are bounded LRU; hit/miss/eviction counters
//! surface through `{"cmd": "stats"}` / `GET /stats`.

use crate::check::{
    check_parsed, check_source, parse_source, read_source, render_profile, Checked, Format,
    PhaseStats, Settings,
};
use crate::pool::WorkerPool;
use cundef_cache::{content_hash, CacheKey, CacheStats, LruCache};
use cundef_semantics::ast::TranslationUnit;
use cundef_ub::json::{escaped, Json};
use cundef_ub::render::{FileResult, Rendered, Verdict};
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Default bound on each cache (entries, not bytes): generous for a
/// sweep over a large tree, small enough that a long-lived daemon
/// cannot grow without bound.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// The largest HTTP request body the daemon reads (64 MiB, far above
/// any real translation unit). A larger `Content-Length` gets `413`
/// before anything is allocated for it.
pub const MAX_BODY: usize = 64 << 20;

/// The longest HTTP request line or header line the daemon reads
/// (8 KiB). A longer request line gets `414`, a longer header `431`.
pub const MAX_LINE: usize = 8 << 10;

/// Per-daemon configuration (from `cundef serve` flags).
pub struct ServeConfig {
    /// Defaults for requests that don't override them.
    pub settings: Settings,
    /// Worker threads (0 = available parallelism).
    pub jobs: usize,
    /// Capacity of each cache, in entries.
    pub cache_capacity: usize,
    /// HTTP listen address (e.g. `127.0.0.1:0`), when HTTP is wanted.
    pub listen: Option<String>,
    /// Service stdin-JSONL requests. Defaults on when `listen` is off.
    pub stdin: bool,
}

/// One parsed check request (transport-independent).
#[derive(Debug, Clone)]
pub struct CheckRequest {
    /// Pass-through correlation id, echoed in the JSONL envelope.
    pub id: Option<u64>,
    /// The label used in diagnostics; also the file to read when no
    /// inline `source` is given.
    pub path: String,
    /// Inline source bytes (a translation unit shipped in-band).
    pub source: Option<String>,
    /// The daemon defaults with this request's overrides applied.
    pub settings: Settings,
}

/// One served response: the rendered bytes plus the structured outcome.
#[derive(Debug, Clone)]
pub struct ServeResponse {
    /// Echoed request id.
    pub id: Option<u64>,
    /// Echoed request path.
    pub path: String,
    /// Verdict spelling (`defined`/`undefined`/`error`).
    pub verdict: &'static str,
    /// The exit code a one-shot `cundef` run on this file would return
    /// under the request's `fail_on` threshold.
    pub exit: u8,
    /// Cache outcome: `hit` (full result), `warm` (parsed unit reused),
    /// `miss` (cold check, now cached), `uncached` (not cacheable —
    /// read failure or profiling request).
    pub cache: &'static str,
    /// Exactly the bytes a one-shot run would print to stdout.
    pub stdout: String,
    /// Exactly the bytes a one-shot run would print to stderr.
    pub stderr: String,
}

impl ServeResponse {
    /// The stdin-JSONL envelope (one line, no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::from("{\"type\": \"response\"");
        if let Some(id) = self.id {
            let _ = write!(out, ", \"id\": {id}");
        }
        let _ = write!(out, ", \"path\": {}", escaped(&self.path));
        let _ = write!(out, ", \"verdict\": \"{}\"", self.verdict);
        let _ = write!(out, ", \"exit\": {}", self.exit);
        let _ = write!(out, ", \"cache\": \"{}\"", self.cache);
        let _ = write!(out, ", \"stdout\": {}", escaped(&self.stdout));
        let _ = write!(out, ", \"stderr\": {}", escaped(&self.stderr));
        out.push('}');
        out
    }
}

/// The daemon's shared state: caches, counters, defaults.
pub struct ServeCore {
    defaults: Settings,
    /// Full-result cache: (content hash, options fingerprint) →
    /// path-normalized [`FileResult`].
    results: Mutex<LruCache<FileResult>>,
    /// Artifact cache: content hash → parsed + resolved unit, shared
    /// across options fingerprints.
    units: Mutex<LruCache<Arc<TranslationUnit>>>,
    requests: AtomicU64,
    full_hits: AtomicU64,
    warm_hits: AtomicU64,
    cold_misses: AtomicU64,
    uncached: AtomicU64,
    workers: usize,
    started: Instant,
}

impl ServeCore {
    /// A fresh core with empty caches.
    pub fn new(defaults: Settings, cache_capacity: usize, workers: usize) -> ServeCore {
        ServeCore {
            defaults,
            results: Mutex::new(LruCache::new(cache_capacity)),
            units: Mutex::new(LruCache::new(cache_capacity)),
            requests: AtomicU64::new(0),
            full_hits: AtomicU64::new(0),
            warm_hits: AtomicU64::new(0),
            cold_misses: AtomicU64::new(0),
            uncached: AtomicU64::new(0),
            workers,
            started: Instant::now(),
        }
    }

    /// Parse one JSON request object against the daemon defaults.
    ///
    /// Recognized fields: `path` (string), `source` (string, inline
    /// translation unit), `id` (number), `phase`, `engine`, `format`,
    /// `fail_on` (strings, spelled as [`Settings::set`] takes them),
    /// `quiet` and `profile` (bools).
    pub fn parse_request(&self, v: &Json) -> Result<CheckRequest, String> {
        let path = v.get("path").and_then(Json::as_str).map(str::to_string);
        let source = v.get("source").and_then(Json::as_str).map(str::to_string);
        let path = match (path, &source) {
            (Some(p), _) => p,
            (None, Some(_)) => "<request>.c".to_string(),
            (None, None) => return Err("request needs a `path` or inline `source`".into()),
        };
        let mut settings = self.defaults;
        for name in ["phase", "engine", "format", "fail_on"] {
            if let Some(value) = v.get(name).and_then(Json::as_str) {
                settings.set(name, value)?;
            }
        }
        if let Some(Json::Bool(b)) = v.get("profile") {
            settings.opts.profile = *b;
        }
        if let Some(Json::Bool(b)) = v.get("quiet") {
            settings.quiet = *b;
        }
        Ok(CheckRequest {
            id: request_id(v),
            path,
            source,
            settings,
        })
    }

    /// Queue `req` on `pool`; the receiver yields its response. Both
    /// transports answer checks through this one path.
    pub fn submit(
        self: &Arc<ServeCore>,
        pool: &WorkerPool,
        req: CheckRequest,
    ) -> mpsc::Receiver<ServeResponse> {
        let (tx, rx) = mpsc::channel();
        let core = Arc::clone(self);
        pool.submit(move || {
            let _ = tx.send(core.handle(&req));
        });
        rx
    }

    /// Serve one request end to end: resolve the source bytes, consult
    /// the caches, check on a miss, and render through the seam.
    pub fn handle(&self, req: &CheckRequest) -> ServeResponse {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let (checked, cache) = self.check_cached(req);
        let Rendered { stdout, stderr } = render_one(&checked.result, &req.settings);
        let mut stderr = stderr;
        if let Some(p) = &checked.profile {
            stderr.push_str(&render_profile(&checked.result.path, p));
        }
        let (verdict, any_ub, any_fail) = match checked.result.verdict {
            Verdict::Defined => ("defined", false, false),
            Verdict::Undefined => ("undefined", true, false),
            Verdict::EngineFailure => ("error", false, true),
        };
        ServeResponse {
            id: req.id,
            path: req.path.clone(),
            verdict,
            exit: req.settings.fail_on.exit_code(any_ub, any_fail),
            cache,
            stdout,
            stderr,
        }
    }

    /// The caching check: full-result hit, warm unit hit, or cold miss.
    fn check_cached(&self, req: &CheckRequest) -> (Checked, &'static str) {
        let opts = &req.settings.opts;
        let mut stats = PhaseStats::default();
        let read;
        let source = match &req.source {
            Some(s) => s.as_str(),
            None => match read_source(&req.path, &mut stats) {
                Ok(s) => {
                    read = s;
                    read.as_str()
                }
                Err(e) => {
                    // Not content-addressable: never cached.
                    self.uncached.fetch_add(1, Ordering::Relaxed);
                    return (Checked::failed(&req.path, stats, e), "uncached");
                }
            },
        };
        if opts.profile {
            // Profiling wants fresh telemetry, and cached results carry
            // none — bypass the cache entirely.
            self.uncached.fetch_add(1, Ordering::Relaxed);
            return (check_source(&req.path, source, stats, opts), "uncached");
        }
        let content = content_hash(source.as_bytes());
        let result_key = CacheKey {
            content,
            fingerprint: opts.fingerprint(),
        };
        if let Some(cached) = self
            .results
            .lock()
            .expect("result cache poisoned")
            .get(&result_key)
        {
            self.full_hits.fetch_add(1, Ordering::Relaxed);
            let mut result = cached.clone();
            result.path = req.path.clone();
            return (
                Checked {
                    result,
                    stats,
                    profile: None,
                },
                "hit",
            );
        }
        let unit_key = CacheKey {
            content,
            fingerprint: 0,
        };
        let cached_unit = self
            .units
            .lock()
            .expect("unit cache poisoned")
            .get(&unit_key)
            .cloned();
        let (checked, cache) = match cached_unit {
            Some(unit) => {
                self.warm_hits.fetch_add(1, Ordering::Relaxed);
                (check_parsed(&req.path, &unit, stats, opts), "warm")
            }
            None => {
                self.cold_misses.fetch_add(1, Ordering::Relaxed);
                let checked = match parse_source(source, &mut stats) {
                    Err(e) => Checked::failed(&req.path, stats, e),
                    Ok(unit) => {
                        let unit = Arc::new(unit);
                        self.units
                            .lock()
                            .expect("unit cache poisoned")
                            .insert(unit_key, Arc::clone(&unit));
                        check_parsed(&req.path, &unit, stats, opts)
                    }
                };
                (checked, "miss")
            }
        };
        // Memoize the full result, path-normalized so the same bytes
        // under another name replay with that name.
        let mut stored = checked.result.clone();
        stored.path = String::new();
        self.results
            .lock()
            .expect("result cache poisoned")
            .insert(result_key, stored);
        (checked, cache)
    }

    /// The `{"cmd": "stats"}` / `GET /stats` body (one JSON object);
    /// `panics` is the worker pool's count of contained panics.
    pub fn stats_json(&self, panics: u64) -> String {
        let (results_len, results_cap, results_stats) = {
            let c = self.results.lock().expect("result cache poisoned");
            (c.len(), c.capacity(), c.stats())
        };
        let (units_len, units_cap, units_stats) = {
            let c = self.units.lock().expect("unit cache poisoned");
            (c.len(), c.capacity(), c.stats())
        };
        let cache_obj = |len: usize, cap: usize, s: CacheStats| {
            format!(
                "{{\"entries\": {len}, \"capacity\": {cap}, \"hits\": {}, \"misses\": {}, \
                 \"insertions\": {}, \"evictions\": {}, \"replacements\": {}}}",
                s.hits, s.misses, s.insertions, s.evictions, s.replacements
            )
        };
        format!(
            "{{\"type\": \"stats\", \"requests\": {}, \"full_hits\": {}, \"warm_hits\": {}, \
             \"cold_misses\": {}, \"uncached\": {}, \"panics\": {panics}, \"workers\": {}, \
             \"uptime_ms\": {}, \"results\": {}, \"units\": {}}}",
            self.requests.load(Ordering::Relaxed),
            self.full_hits.load(Ordering::Relaxed),
            self.warm_hits.load(Ordering::Relaxed),
            self.cold_misses.load(Ordering::Relaxed),
            self.uncached.load(Ordering::Relaxed),
            self.workers,
            self.started.elapsed().as_millis(),
            cache_obj(results_len, results_cap, results_stats),
            cache_obj(units_len, units_cap, units_stats),
        )
    }

    /// The shutdown summary printed to the daemon's stderr.
    fn summary(&self) -> String {
        format!(
            "cundef serve: {} requests served ({} hits, {} warm, {} misses, {} uncached)",
            self.requests.load(Ordering::Relaxed),
            self.full_hits.load(Ordering::Relaxed),
            self.warm_hits.load(Ordering::Relaxed),
            self.cold_misses.load(Ordering::Relaxed),
            self.uncached.load(Ordering::Relaxed),
        )
    }
}

/// Render one result exactly as a one-shot run would: per-file render
/// plus the format's trailing output (the SARIF document).
pub fn render_one(result: &FileResult, settings: &Settings) -> Rendered {
    let mut renderer = settings.renderer();
    let mut rendered = renderer.render_file(result);
    rendered.stdout.push_str(&renderer.finish());
    rendered
}

/// The request's pass-through `id`, when it has one.
fn request_id(v: &Json) -> Option<u64> {
    v.get("id").and_then(Json::as_f64).map(|f| f as u64)
}

/// A `{"type": "error"}` line for a malformed request.
fn error_jsonl(id: Option<u64>, message: &str) -> String {
    let mut out = String::from("{\"type\": \"error\"");
    if let Some(id) = id {
        let _ = write!(out, ", \"id\": {id}");
    }
    let _ = write!(out, ", \"message\": {}", escaped(message));
    out.push('}');
    out
}

/// Run the daemon until either transport shuts it down. Returns the
/// process exit code.
pub fn run_serve(cfg: ServeConfig) -> u8 {
    let workers = if cfg.jobs == 0 {
        WorkerPool::default_workers()
    } else {
        cfg.jobs
    };
    let core = Arc::new(ServeCore::new(cfg.settings, cfg.cache_capacity, workers));
    let pool = Arc::new(WorkerPool::new(workers));
    // Every shutdown path sends here: `POST /shutdown`, and the stdin
    // loop once it has printed its last reply.
    let (shutdown, shutdown_requested) = mpsc::channel::<()>();

    if let Some(addr) = &cfg.listen {
        let listener = match TcpListener::bind(addr) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("cundef serve: cannot listen on {addr}: {e}");
                return 2;
            }
        };
        let local = listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| addr.clone());
        eprintln!("cundef serve: listening on http://{local}");
        let (core, pool, shutdown) = (Arc::clone(&core), Arc::clone(&pool), shutdown.clone());
        std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                let (core, pool, shutdown) =
                    (Arc::clone(&core), Arc::clone(&pool), shutdown.clone());
                std::thread::spawn(move || {
                    let _ = handle_connection(stream, &core, &pool, &shutdown);
                });
            }
        });
    }
    if cfg.stdin {
        let (core, pool, shutdown) = (Arc::clone(&core), Arc::clone(&pool), shutdown.clone());
        std::thread::spawn(move || {
            stdin_loop(&core, &pool);
            let _ = shutdown.send(());
        });
    }
    drop(shutdown);
    let _ = shutdown_requested.recv();
    eprintln!("{}", core.summary());
    0
}

/// One stdin-JSONL reply, queued in request order.
enum Reply {
    /// A line that is ready now (an error envelope, the shutdown ack).
    Line(String),
    /// A check in flight on the pool.
    Check(mpsc::Receiver<ServeResponse>),
    /// A stats snapshot, taken when the printer reaches it: every check
    /// queued before it has answered by then. The reader submits no
    /// later request until the sender reports the snapshot taken, so it
    /// counts exactly the requests that preceded it on stdin.
    Stats(mpsc::Sender<()>),
}

/// The stdin-JSONL request loop. Replies print in request order: the
/// printer thread drains one FIFO of [`Reply`]s, waiting on each check
/// in turn. Returns once every queued reply has printed.
fn stdin_loop(core: &Arc<ServeCore>, pool: &Arc<WorkerPool>) {
    let (tx, rx) = mpsc::channel::<Reply>();
    let printer = {
        let (core, pool) = (Arc::clone(core), Arc::clone(pool));
        std::thread::spawn(move || {
            let stdout = std::io::stdout();
            for reply in rx {
                let line = match reply {
                    Reply::Line(line) => line,
                    Reply::Check(resp) => match resp.recv() {
                        Ok(resp) => resp.to_jsonl(),
                        Err(_) => error_jsonl(None, "check failed: worker stopped"),
                    },
                    Reply::Stats(taken) => {
                        let line = core.stats_json(pool.panics());
                        let _ = taken.send(());
                        line
                    }
                };
                let mut out = stdout.lock();
                let _ = writeln!(out, "{line}");
                let _ = out.flush();
            }
        })
    };
    let mut stdin = std::io::stdin().lock();
    let mut line = Vec::new();
    loop {
        let text = match read_line_capped(&mut stdin, &mut line, MAX_BODY) {
            Err(_) | Ok(LineRead::Eof) => break,
            Ok(LineRead::TooLong) => {
                if skip_line(&mut stdin).is_err() {
                    break;
                }
                let msg = format!("request line longer than {MAX_BODY} bytes");
                let _ = tx.send(Reply::Line(error_jsonl(None, &msg)));
                continue;
            }
            Ok(LineRead::Line) => std::str::from_utf8(&line).map(str::trim),
        };
        if text == Ok("") {
            continue;
        }
        let reply = match text.ok().and_then(Json::parse) {
            None => Reply::Line(error_jsonl(None, "request line is not valid JSON")),
            Some(v) => match v.get("cmd").and_then(Json::as_str) {
                Some("stats") => {
                    let (taken, snapshot) = mpsc::channel();
                    let _ = tx.send(Reply::Stats(taken));
                    let _ = snapshot.recv();
                    continue;
                }
                Some("shutdown") => {
                    let _ = tx.send(Reply::Line("{\"type\": \"shutdown\"}".to_string()));
                    break;
                }
                Some(other) => Reply::Line(error_jsonl(
                    request_id(&v),
                    &format!("unknown cmd `{other}`"),
                )),
                None => match core.parse_request(&v) {
                    Ok(req) => Reply::Check(core.submit(pool, req)),
                    Err(msg) => Reply::Line(error_jsonl(request_id(&v), &msg)),
                },
            },
        };
        let _ = tx.send(reply);
    }
    drop(tx);
    let _ = printer.join();
}

// --------------------------------------------------------------------
// HTTP transport
// --------------------------------------------------------------------

/// Serve HTTP/1.1 requests on one connection (keep-alive) until the
/// peer closes or asks to, or a request is malformed.
fn handle_connection(
    stream: TcpStream,
    core: &Arc<ServeCore>,
    pool: &WorkerPool,
    shutdown: &mpsc::Sender<()>,
) -> std::io::Result<()> {
    let _ = stream.set_nodelay(true);
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        match read_line_capped(&mut reader, &mut line, MAX_LINE)? {
            LineRead::Eof => break, // peer closed
            LineRead::TooLong => {
                return refuse(&mut writer, &mut reader, 414, "request line too long\n")
            }
            LineRead::Line => {}
        }
        let request_line = String::from_utf8_lossy(&line);
        let mut parts = request_line.split_whitespace();
        let (method, target) = match (parts.next(), parts.next()) {
            (Some(m), Some(t)) => (m.to_string(), t.to_string()),
            _ => {
                write_http(&mut writer, 400, "text/plain", &[], b"bad request\n")?;
                break;
            }
        };
        // `Err` holds the status and message that refuse the body.
        let mut content_length: Result<usize, (u16, &str)> = Ok(0);
        let mut close = false;
        loop {
            match read_line_capped(&mut reader, &mut line, MAX_LINE)? {
                LineRead::Eof => return Ok(()),
                LineRead::TooLong => {
                    return refuse(&mut writer, &mut reader, 431, "header line too long\n")
                }
                LineRead::Line => {}
            }
            let header = String::from_utf8_lossy(&line);
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let name = name.trim().to_ascii_lowercase();
                let value = value.trim();
                if name == "content-length" {
                    content_length = match value.parse::<usize>() {
                        Ok(n) if n <= MAX_BODY => Ok(n),
                        Ok(_) => Err((413, "request body too large\n")),
                        Err(_) => Err((400, "bad Content-Length\n")),
                    };
                } else if name == "connection" && value.eq_ignore_ascii_case("close") {
                    close = true;
                }
            }
        }
        let content_length = match content_length {
            Ok(n) => n,
            // The body is never read, so the stream cannot be
            // resynchronized: answer and close.
            Err((status, message)) => return refuse(&mut writer, &mut reader, status, message),
        };
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body)?;

        match (method.as_str(), target.as_str()) {
            ("POST", "/check") => {
                let parsed = std::str::from_utf8(&body)
                    .ok()
                    .and_then(Json::parse)
                    .ok_or_else(|| "request body is not valid JSON".to_string())
                    .and_then(|v| core.parse_request(&v));
                match parsed {
                    Err(msg) => {
                        let body = format!("{}\n", error_jsonl(None, &msg));
                        write_http(&mut writer, 400, "application/json", &[], body.as_bytes())?;
                    }
                    Ok(req) => {
                        let content_type = match req.settings.format {
                            Format::Human => "text/plain; charset=utf-8",
                            Format::Json => "application/x-ndjson",
                            Format::Sarif => "application/json",
                        };
                        let Ok(resp) = core.submit(pool, req).recv() else {
                            write_http(&mut writer, 500, "text/plain", &[], b"check failed\n")?;
                            break;
                        };
                        let mut extra = vec![
                            format!("X-Cundef-Verdict: {}", resp.verdict),
                            format!("X-Cundef-Exit: {}", resp.exit),
                            format!("X-Cundef-Cache: {}", resp.cache),
                        ];
                        if !resp.stderr.is_empty() {
                            extra.push(format!("X-Cundef-Stderr: {}", escaped(&resp.stderr)));
                        }
                        write_http(
                            &mut writer,
                            200,
                            content_type,
                            &extra,
                            resp.stdout.as_bytes(),
                        )?;
                    }
                }
            }
            ("GET", "/stats") => {
                let body = format!("{}\n", core.stats_json(pool.panics()));
                write_http(&mut writer, 200, "application/json", &[], body.as_bytes())?;
            }
            ("GET", "/health") => {
                write_http(&mut writer, 200, "text/plain", &[], b"ok\n")?;
            }
            ("POST", "/shutdown") => {
                write_http(&mut writer, 200, "text/plain", &[], b"shutting down\n")?;
                let _ = shutdown.send(());
                break;
            }
            _ => {
                write_http(&mut writer, 404, "text/plain", &[], b"not found\n")?;
            }
        }
        if close {
            break;
        }
    }
    Ok(())
}

// --------------------------------------------------------------------
// `cundef fuzz --serve-replay`
// --------------------------------------------------------------------

/// Replay the fuzz-generated corpus through the serve pipeline and
/// assert every response is byte-identical to one-shot output — a
/// service-path oracle on top of the sweep's five.
///
/// Each generated program is checked twice (a cold pass and a warm
/// pass that must be a full-result cache hit) in a rotating format
/// (`human`/`json`/`sarif` by case index), and both passes' rendered
/// stdout/stderr and exit code are compared against a direct
/// `check_source` + render of the same bytes. Returns `true` when no
/// response diverged and every warm pass hit the cache.
pub fn serve_replay(seed: u64, count: u64) -> bool {
    use cundef_fuzz::decision::DecisionSource;
    use cundef_fuzz::gen::{generate, Class};
    use cundef_fuzz::rng::case_seed;

    let defaults = Settings::default();
    let core = ServeCore::new(defaults, DEFAULT_CACHE_CAPACITY, 1);
    let formats = [Format::Human, Format::Json, Format::Sarif];
    let mut divergences = 0u64;
    for i in 0..count {
        let class = Class::of_case(i);
        let mut d = DecisionSource::from_seed(case_seed(seed, i));
        let case = generate(class, &mut d);
        let settings = Settings {
            format: formats[(i % 3) as usize],
            ..defaults
        };
        let path = format!("fuzz-{i}.c");

        // The ground truth: what a one-shot run prints for these bytes.
        let checked = check_source(&path, &case.source, PhaseStats::default(), &defaults.opts);
        let expected = render_one(&checked.result, &settings);
        let (any_ub, any_fail) = match checked.result.verdict {
            Verdict::Defined => (false, false),
            Verdict::Undefined => (true, false),
            Verdict::EngineFailure => (false, true),
        };
        let expected_exit = settings.fail_on.exit_code(any_ub, any_fail);

        let req = CheckRequest {
            id: Some(i),
            path: path.clone(),
            source: Some(case.source.clone()),
            settings,
        };
        for pass in ["cold", "warm"] {
            let resp = core.handle(&req);
            if resp.stdout != expected.stdout
                || resp.stderr != expected.stderr
                || resp.exit != expected_exit
            {
                divergences += 1;
                eprintln!(
                    "serve-replay: DIVERGENCE case {i} ({}, {:?}, {pass} pass): \
                     serve exit {} vs one-shot {expected_exit}",
                    class.name(),
                    settings.format,
                    resp.exit,
                );
                eprintln!("  serve stdout:    {}", escaped(&resp.stdout));
                eprintln!("  one-shot stdout: {}", escaped(&expected.stdout));
                eprintln!("  serve stderr:    {}", escaped(&resp.stderr));
                eprintln!("  one-shot stderr: {}", escaped(&expected.stderr));
            }
            // The warm pass of the same (bytes, options) must be a
            // full-result hit; the cold pass may itself hit when two
            // cases generate identical source, so it is not asserted.
            if pass == "warm" && resp.cache != "hit" {
                divergences += 1;
                eprintln!(
                    "serve-replay: case {i}: warm pass was `{}`, expected a cache hit",
                    resp.cache
                );
            }
        }
    }
    println!(
        "serve-replay: seed {seed}, {count} cases x (cold + warm), formats rotated human/json/sarif"
    );
    println!(
        "serve-replay: {} requests, {} full hits, {} misses, {} warm",
        core.requests.load(Ordering::Relaxed),
        core.full_hits.load(Ordering::Relaxed),
        core.cold_misses.load(Ordering::Relaxed),
        core.warm_hits.load(Ordering::Relaxed),
    );
    if divergences == 0 {
        println!("serve-replay: every response byte-identical to one-shot output");
        true
    } else {
        println!("serve-replay: {divergences} divergences");
        false
    }
}

/// What [`read_line_capped`] found.
enum LineRead {
    /// End of input before any byte of a line.
    Eof,
    /// A line (its `\n` included, unless input ended first).
    Line,
    /// The line is longer than the cap; the rest of it is still unread.
    TooLong,
}

/// Read one `\n`-terminated line into `buf`, storing at most `max`
/// bytes before the newline: a line that never ends costs `max` bytes,
/// not unbounded memory.
fn read_line_capped(r: &mut impl BufRead, buf: &mut Vec<u8>, max: usize) -> io::Result<LineRead> {
    buf.clear();
    loop {
        let chunk = r.fill_buf()?;
        if chunk.is_empty() {
            return Ok(if buf.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line
            });
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        if buf.len() + newline.unwrap_or(chunk.len()) > max {
            return Ok(LineRead::TooLong);
        }
        let take = newline.map_or(chunk.len(), |i| i + 1);
        buf.extend_from_slice(&chunk[..take]);
        r.consume(take);
        if newline.is_some() {
            return Ok(LineRead::Line);
        }
    }
}

/// Discard input through the next `\n` (or to end of input) without
/// storing any of it.
fn skip_line(r: &mut impl BufRead) -> io::Result<()> {
    loop {
        let chunk = r.fill_buf()?;
        if chunk.is_empty() {
            return Ok(());
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => {
                r.consume(i + 1);
                return Ok(());
            }
            None => {
                let n = chunk.len();
                r.consume(n);
            }
        }
    }
}

/// Refuse a request whose remaining bytes will not be read: answer
/// `status` with `Connection: close`, shut the write side, and discard a
/// bounded amount of pending input (into a stack buffer) before the
/// connection drops, so the peer reads the reply instead of a reset.
fn refuse(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    status: u16,
    message: &str,
) -> io::Result<()> {
    let headers = ["Connection: close".to_string()];
    write_http(writer, status, "text/plain", &headers, message.as_bytes())?;
    writer.shutdown(Shutdown::Write)?;
    reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_millis(200)))?;
    let mut sink = [0u8; 4096];
    let mut budget = 16 * MAX_LINE;
    while budget > 0 {
        match reader.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => budget = budget.saturating_sub(n),
        }
    }
    Ok(())
}

/// Write one HTTP response.
fn write_http(
    w: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra_headers: &[String],
    body: &[u8],
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        413 => "Payload Too Large",
        414 => "URI Too Long",
        431 => "Request Header Fields Too Large",
        _ => "Internal Server Error",
    };
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        body.len()
    );
    for h in extra_headers {
        head.push_str(h);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    w.write_all(head.as_bytes())?;
    w.write_all(body)?;
    w.flush()
}
