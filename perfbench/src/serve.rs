//! The `serve-mixed` workload: `cundef serve` over keep-alive HTTP,
//! driven in a closed loop by one client thread per connection.
//!
//! Each connection sends its own seeded sequence, so every response's
//! cache outcome is known in advance:
//!
//! - ~70% repeat a hot-set source under the default options: a full
//!   hit (the hot set is sent once before the window and is far below
//!   the cache's capacity);
//! - ~20% send a hot-set source with a one-line edit never sent before:
//!   a cold miss;
//! - ~10% re-send this connection's latest edit under another phase or
//!   engine: a warm hit on its parsed unit. The edit's miss completed
//!   earlier on the same connection, so no other request races it.

use crate::batch::{layer_metrics, write_spans, LayerFigures};
use crate::corpus::{Expect, Rng, ServeSource};
use crate::product::{proc_cpu, proc_peak_rss_kib, Product};
use crate::stats::{median, quantile, tail, Report};
use crate::trace::{CacheOutcome, Format, Opts, Phase, ServeModel, Tracer, DEFAULT_CACHE_CAPACITY};
use cundef_semantics::eval::Engine;
use cundef_ub::json::{escaped, Json};
use cundef_ub::render::sarif_rule_id;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon start-ups timed for `setup_s`; the last one serves the window.
const SETUP_SPAWNS: usize = 31;

/// One request of a connection's sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Index into the hot set.
    pub hot: usize,
    /// The one-line edit appended to the source, if any.
    pub edit: Option<String>,
    /// Checking options.
    pub opts: Opts,
    /// Output format.
    pub format: Format,
    /// The cache outcome the daemon must report.
    pub cache: CacheOutcome,
}

impl Request {
    /// The source bytes sent.
    pub fn source(&self, hot: &[ServeSource]) -> String {
        let mut s = hot[self.hot].source.clone();
        if let Some(edit) = &self.edit {
            s.push_str(edit);
        }
        s
    }

    /// The answer the response must carry.
    pub fn expect(&self, hot: &[ServeSource]) -> Expect {
        hot[self.hot]
            .expect(self.opts.phase)
            .expect("sequences only pick options with a known answer")
    }

    /// The `POST /check` body.
    fn body(&self, hot: &[ServeSource]) -> String {
        format!(
            "{{\"path\": {}, \"source\": {}, \"phase\": \"{}\", \"engine\": \"{}\", \"format\": \"{}\"}}",
            escaped(&hot[self.hot].name),
            escaped(&self.source(hot)),
            self.opts.phase.name(),
            self.opts.engine_name(),
            self.format.name()
        )
    }
}

/// Options a warm request may use instead of the defaults.
const ALTERNATIVES: [Opts; 5] = [
    Opts {
        phase: Phase::Translation,
        engine: Engine::Bytecode,
    },
    Opts {
        phase: Phase::Translation,
        engine: Engine::Tree,
    },
    Opts {
        phase: Phase::Execution,
        engine: Engine::Bytecode,
    },
    Opts {
        phase: Phase::Execution,
        engine: Engine::Tree,
    },
    Opts {
        phase: Phase::All,
        engine: Engine::Tree,
    },
];

/// The seeded request sequence of connection `conn`.
pub struct Sequence<'a> {
    hot: &'a [ServeSource],
    rng: Rng,
    conn: u64,
    sent: u64,
    /// Edits not yet re-sent warm, newest last.
    pending: Vec<(usize, String)>,
}

impl<'a> Sequence<'a> {
    /// The sequence for `seed` and connection `conn`.
    pub fn new(hot: &'a [ServeSource], seed: u64, conn: u64) -> Sequence<'a> {
        Sequence {
            hot,
            rng: Rng::new(seed, 100 + conn),
            conn,
            sent: 0,
            pending: Vec::new(),
        }
    }
}

impl Iterator for Sequence<'_> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let format = [Format::Human, Format::Json, Format::Sarif][self.rng.below(3) as usize];
        let roll = self.rng.below(100);
        let pick = self.rng.below(self.hot.len() as u64) as usize;
        let alt = self.rng.below(ALTERNATIVES.len() as u64) as usize;
        let k = self.sent;
        self.sent += 1;
        if roll < 20 {
            let edit = format!("// edit {}.{k}\n", self.conn);
            self.pending.push((pick, edit.clone()));
            return Some(Request {
                hot: pick,
                edit: Some(edit),
                opts: Opts::DEFAULT,
                format,
                cache: CacheOutcome::Miss,
            });
        }
        if roll < 30 {
            if let Some((hot, edit)) = self.pending.pop() {
                let usable: Vec<Opts> = ALTERNATIVES
                    .iter()
                    .copied()
                    .filter(|o| self.hot[hot].expect(o.phase).is_some())
                    .collect();
                return Some(Request {
                    hot,
                    edit: Some(edit),
                    opts: usable[alt % usable.len()],
                    format,
                    cache: CacheOutcome::Warm,
                });
            }
        }
        Some(Request {
            hot: pick,
            edit: None,
            opts: Opts::DEFAULT,
            format,
            cache: CacheOutcome::Hit,
        })
    }
}

/// Does a response body carry exactly the expected answer?
pub fn body_matches(format: Format, body: &str, expect: &Expect) -> bool {
    let markers = |kind: cundef_ub::UbKind, line: u32| match format {
        Format::Human => (
            format!("Error: {:05}\n", kind.code()),
            format!("Line: {line}\n"),
        ),
        Format::Json => (
            format!("\"kind\": \"{kind:?}\""),
            format!("\"line\": {line},"),
        ),
        Format::Sarif => (
            format!("\"ruleId\": \"{}\"", sarif_rule_id(kind)),
            format!("\"startLine\": {line},"),
        ),
    };
    let finding_marker = match format {
        Format::Human => "Error: ",
        Format::Json => "\"type\": \"finding\"",
        Format::Sarif => "\"ruleId\": \"UB",
    };
    if body.matches(finding_marker).count() != expect.findings.len() {
        return false;
    }
    expect.findings.iter().all(|&(kind, line)| {
        let (k, l) = markers(kind, line);
        body.contains(&k) && body.contains(&l)
    })
}

/// One HTTP response.
struct Reply {
    status: u16,
    cache: String,
    verdict: String,
    exit: String,
    body: String,
}

/// One keep-alive HTTP/1.1 connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
        let msg = format!(
            "{method} {path} HTTP/1.1\r\nHost: cundef\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer.write_all(msg.as_bytes())?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let mut reply = Reply {
            status,
            cache: String::new(),
            verdict: String::new(),
            exit: String::new(),
            body: String::new(),
        };
        let mut length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim().to_string();
                match name.to_ascii_lowercase().as_str() {
                    "content-length" => length = value.parse().unwrap_or(0),
                    "x-cundef-cache" => reply.cache = value,
                    "x-cundef-verdict" => reply.verdict = value,
                    "x-cundef-exit" => reply.exit = value,
                    _ => {}
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        reply.body = String::from_utf8(body).map_err(|_| std::io::ErrorKind::InvalidData)?;
        Ok(reply)
    }
}

/// A running daemon; killed if dropped before [`Daemon::shutdown`].
struct Daemon {
    child: Child,
    addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawn `cundef serve` and wait for its first healthy answer;
    /// returns the daemon and the seconds that took.
    fn start(product: &Product, jobs: usize) -> Result<(Daemon, f64), String> {
        let t0 = Instant::now();
        let mut child = Command::new(&product.bin)
            .args([
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--jobs",
                &jobs.to_string(),
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn cundef serve: {e}"))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let _ = stderr.read_line(&mut line);
        // Keep the pipe drained so the daemon never blocks on it.
        let drain = std::thread::spawn(move || {
            let _ = std::io::copy(&mut stderr, &mut std::io::sink());
        });
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            drain: Some(drain),
        };
        daemon.addr = line
            .trim()
            .strip_prefix("cundef serve: listening on http://")
            .ok_or_else(|| format!("daemon did not report an address: {line:?}"))?
            .to_string();
        loop {
            let healthy = Conn::open(&daemon.addr)
                .and_then(|mut c| c.request("GET", "/health", ""))
                .is_ok_and(|r| r.status == 200);
            if healthy {
                break;
            }
            if t0.elapsed() > Duration::from_secs(30) {
                return Err("daemon never became healthy".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok((daemon, t0.elapsed().as_secs_f64()))
    }

    fn shutdown(mut self) -> Result<(), String> {
        let _ = Conn::open(&self.addr).and_then(|mut c| c.request("POST", "/shutdown", ""));
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for the daemon: {e}"))?;
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

/// The daemon's cache counters from `GET /stats`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Counters {
    requests: u64,
    hits: u64,
    warm: u64,
    cold: u64,
    uncached: u64,
}

impl Counters {
    fn fetch(conn: &mut Conn) -> Result<Counters, String> {
        let reply = conn
            .request("GET", "/stats", "")
            .map_err(|e| format!("GET /stats: {e}"))?;
        let v = Json::parse(reply.body.trim()).ok_or("GET /stats is not JSON")?;
        let n = |k: &str| {
            v.get(k)
                .and_then(Json::as_f64)
                .map(|f| f as u64)
                .ok_or_else(|| format!("GET /stats lacks {k}"))
        };
        Ok(Counters {
            requests: n("requests")?,
            hits: n("full_hits")?,
            warm: n("warm_hits")?,
            cold: n("cold_misses")?,
            uncached: n("uncached")?,
        })
    }

    fn minus(self, o: Counters) -> Counters {
        Counters {
            requests: self.requests - o.requests,
            hits: self.hits - o.hits,
            warm: self.warm - o.warm,
            cold: self.cold - o.cold,
            uncached: self.uncached - o.uncached,
        }
    }
}

/// What one connection saw in the window.
#[derive(Default)]
struct ConnLog {
    sent: u64,
    failed: u64,
    /// (outcome, latency in ms) per completed request.
    latencies: Vec<(CacheOutcome, f64)>,
}

fn client(
    hot: &[ServeSource],
    seed: u64,
    conn: u64,
    addr: &str,
    deadline: Instant,
    completed: &AtomicU64,
) -> ConnLog {
    let mut log = ConnLog::default();
    let Ok(mut c) = Conn::open(addr) else {
        log.failed = 1;
        return log;
    };
    for req in Sequence::new(hot, seed, conn) {
        if Instant::now() >= deadline {
            break;
        }
        let body = req.body(hot);
        log.sent += 1;
        let t = Instant::now();
        let reply = c.request("POST", "/check", &body);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let Ok(reply) = reply else {
            log.failed += 1;
            break;
        };
        let expect = req.expect(hot);
        let (verdict, exit) = if expect.findings.is_empty() {
            ("defined", "0")
        } else {
            ("undefined", "1")
        };
        let ok = reply.status == 200
            && reply.cache == req.cache.name()
            && reply.verdict == verdict
            && reply.exit == exit
            && body_matches(req.format, &reply.body, &expect);
        if !ok {
            log.failed += 1;
            eprintln!(
                "perfbench: wrong response on connection {conn}: {} {:?} expected {:?}, got {} {} {}",
                hot[req.hot].name, req.cache, expect, reply.cache, reply.verdict, reply.exit
            );
        }
        log.latencies.push((req.cache, ms));
        completed.fetch_add(1, Ordering::Relaxed);
    }
    log
}

/// Run `serve-mixed`.
pub fn run(
    product: &Product,
    hot: &[ServeSource],
    seed: u64,
    jobs: usize,
    seconds: u64,
    trace: bool,
    work: &std::path::Path,
) -> Result<Report, String> {
    let conns = 4 * jobs as u64;
    println!(
        "perfbench: hot set of {} sources; cundef serve --jobs {jobs}, {conns} closed-loop keep-alive connections",
        hot.len()
    );
    let mut setups = Vec::new();
    let mut daemon = None;
    for i in 0..SETUP_SPAWNS {
        let (d, secs) = Daemon::start(product, jobs)?;
        setups.push(secs);
        if i + 1 < SETUP_SPAWNS {
            d.shutdown()?;
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("at least one spawn");
    let pid = daemon.child.id();
    let mut report = Report::default();

    // Send the hot set once, so every later plain repeat is a full hit.
    let mut control = Conn::open(&daemon.addr).map_err(|e| format!("connect: {e}"))?;
    for i in 0..hot.len() {
        let req = Request {
            hot: i,
            edit: None,
            opts: Opts::DEFAULT,
            format: Format::Json,
            cache: CacheOutcome::Miss,
        };
        let reply = control
            .request("POST", "/check", &req.body(hot))
            .map_err(|e| format!("warming the hot set: {e}"))?;
        report.attempted += 1;
        if reply.status != 200 || !body_matches(Format::Json, &reply.body, &req.expect(hot)) {
            report.failed += 1;
        }
    }

    let before = Counters::fetch(&mut control)?;
    let cpu0 = proc_cpu(pid)?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    let completed = AtomicU64::new(0);
    // Per-second samples of checks completed and daemon CPU: the
    // medians over seconds shrug off a burst of host noise.
    let (mut slice_cps, mut slice_cpu_ms) = (Vec::new(), Vec::new());
    let logs: Vec<ConnLog> = std::thread::scope(|s| -> Result<Vec<ConnLog>, String> {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let addr = daemon.addr.as_str();
                let completed = &completed;
                s.spawn(move || client(hot, seed, c, addr, deadline, completed))
            })
            .collect();
        let (mut done, mut cpu, mut at) = (0, cpu0, start);
        for i in 1..=seconds {
            let t = start + Duration::from_secs(i);
            std::thread::sleep(t.saturating_duration_since(Instant::now()));
            let now = Instant::now();
            let (now_done, now_cpu) = (completed.load(Ordering::Relaxed), proc_cpu(pid)?);
            let n = (now_done - done) as f64;
            slice_cps.push(n / (now - at).as_secs_f64());
            slice_cpu_ms.push((now_cpu - cpu).as_secs_f64() * 1e3 / n.max(1.0));
            (done, cpu, at) = (now_done, now_cpu, now);
        }
        Ok(handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect())
    })?;
    let elapsed = start.elapsed().as_secs_f64();
    let cpu = (proc_cpu(pid)? - cpu0).as_secs_f64();
    let after = Counters::fetch(&mut control)?;
    let rss_mb = proc_peak_rss_kib(pid)? as f64 / 1024.0;
    drop(control);
    daemon.shutdown()?;

    // Cross-check the daemon's cache counters against the sequence.
    let mut predicted = Counters::default();
    let mut all = Vec::new();
    let (mut hits, mut misses) = (Vec::new(), Vec::new());
    for log in &logs {
        report.attempted += log.sent;
        report.failed += log.failed;
        predicted.requests += log.sent;
        for &(outcome, ms) in &log.latencies {
            all.push(ms);
            match outcome {
                CacheOutcome::Hit => {
                    predicted.hits += 1;
                    hits.push(ms);
                }
                CacheOutcome::Warm => predicted.warm += 1,
                CacheOutcome::Miss => {
                    predicted.cold += 1;
                    misses.push(ms);
                }
            }
        }
    }
    let window = after.minus(before);
    // `GET /stats` itself is not a check; `before` was read after the
    // warm-up and `after` counts only the window's checks.
    if window != predicted {
        report.broken.push(format!(
            "daemon cache counters {window:?} differ from the sequence's {predicted:?}"
        ));
    }
    all.sort_by(f64::total_cmp);
    hits.sort_by(f64::total_cmp);
    misses.sort_by(f64::total_cmp);
    let checks = all.len() as f64;
    let (tail_name, tail_ms) = tail(&all);
    println!(
        "perfbench: {} requests in {elapsed:.3} s: {} hits, {} warm, {} misses; daemon cache counters agree: {}",
        all.len(),
        predicted.hits,
        predicted.warm,
        predicted.cold,
        window == predicted
    );
    println!(
        "perfbench: latency p50 {:.4} ms, {tail_name} {tail_ms:.4} ms over {} samples; hit p50 {:.4} ms over {}; miss p50 {:.4} ms over {}",
        quantile(&all, 0.5),
        all.len(),
        quantile(&hits, 0.5),
        hits.len(),
        quantile(&misses, 0.5),
        misses.len()
    );
    let cpu_ms = cpu * 1e3 / checks;
    if !trace {
        report.metric("throughput_cps", "1/s", median(&mut slice_cps));
        report.metric("cpu_ms_per_check", "ms", median(&mut slice_cpu_ms));
        report.metric("peak_rss_mb", "MB", rss_mb);
        report.metric("latency_p50_ms", "ms", quantile(&all, 0.5));
        report.metric("setup_s", "s", median(&mut setups));
        return Ok(report);
    }

    // Traced replay of the window's requests, in process.
    let sent: Vec<u64> = logs.iter().map(|l| l.sent).collect();
    let mut seqs: Vec<Sequence> = (0..conns).map(|c| Sequence::new(hot, seed, c)).collect();
    let mut model = ServeModel::new(DEFAULT_CACHE_CAPACITY, &product.version);
    for src in hot {
        model.handle(
            &mut Tracer::new(),
            &src.name,
            &src.source,
            Opts::DEFAULT,
            Format::Json,
        );
    }
    let mut t = Tracer::new();
    let replay_deadline = Instant::now() + Duration::from_secs(seconds);
    let (mut hit_sums, mut miss_sums) = (Vec::new(), Vec::new());
    let mut replayed = 0u32;
    let mut rendered = 0usize;
    'replay: for k in 0..sent.iter().copied().max().unwrap_or(0) {
        for (c, seq) in seqs.iter_mut().enumerate() {
            if k >= sent[c] {
                continue;
            }
            if Instant::now() >= replay_deadline {
                break 'replay;
            }
            let req = seq.next().expect("sequences are endless");
            t.check = replayed;
            let (body, outcome) = model.handle(
                &mut t,
                &hot[req.hot].name,
                &req.source(hot),
                req.opts,
                req.format,
            );
            report.attempted += 1;
            rendered += body.len();
            if outcome != req.cache || !body_matches(req.format, &body, &req.expect(hot)) {
                report.failed += 1;
            }
            let sum = t.check_sum(replayed).as_secs_f64() * 1e3;
            match outcome {
                CacheOutcome::Hit => hit_sums.push(sum),
                CacheOutcome::Miss => miss_sums.push(sum),
                CacheOutcome::Warm => {}
            }
            replayed += 1;
        }
    }
    write_spans(work, &t)?;
    let n = f64::from(replayed.max(1));
    let ms: Vec<f64> = t
        .totals()
        .iter()
        .map(|d| d.as_secs_f64() * 1e3 / n)
        .collect();
    let [hash, lookup, lexer, parser, analysis, compile, vm, render] = ms[..] else {
        unreachable!("eight layers")
    };
    println!(
        "perfbench: replayed {replayed} requests in process; daemon {cpu_ms:.4} CPU ms per check"
    );
    let hit_p50 = quantile(&hits, 0.5);
    let miss_p50 = quantile(&misses, 0.5);
    layer_metrics(
        &mut report,
        LayerFigures {
            lexer,
            lexer_mb_per_s: t.lexed as f64 / 1e6 / (lexer * n / 1e3),
            parser,
            analysis,
            findings: t.findings as f64 / n,
            compile,
            vm,
            render,
            render_kb: rendered as f64 / 1024.0 / n,
            hash_us: hash * 1e3,
            lookup_us: lookup * 1e3,
            hit_ratio: window.hits as f64 / window.requests.max(1) as f64,
            unit_hit_ratio: window.warm as f64 / (window.warm + window.cold).max(1) as f64,
            hit_overhead_ms: hit_p50 - median(&mut hit_sums),
            miss_overhead_ms: miss_p50 - median(&mut miss_sums),
            latency_tail_ms: tail_ms,
            hit_latency_p50_ms: hit_p50,
            miss_latency_p50_ms: miss_p50,
        },
    );
    let layer_sum = hash + lookup + lexer + parser + analysis + compile + vm + render;
    report.metric("trace.coverage", "ratio", layer_sum / cpu_ms);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hot() -> Vec<ServeSource> {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
        std::env::set_current_dir(root).expect("repository root exists");
        crate::corpus::hot_set(11).unwrap()
    }

    #[test]
    fn same_seed_same_requests_other_seed_other_requests() {
        let hot = hot();
        let take = |seed, conn| -> Vec<String> {
            Sequence::new(&hot, seed, conn)
                .take(500)
                .map(|r| r.body(&hot))
                .collect()
        };
        assert_eq!(take(11, 0), take(11, 0));
        assert_ne!(take(11, 0), take(12, 0));
        assert_ne!(take(11, 0), take(11, 1));
        assert_eq!(crate::corpus::hot_set(11).unwrap(), hot);
        assert_ne!(crate::corpus::hot_set(12).unwrap(), hot);
    }

    #[test]
    fn warm_requests_resend_a_missed_edit_under_new_options() {
        let hot = hot();
        let mut missed = std::collections::BTreeSet::new();
        let mut kinds = [0u32; 3];
        for r in Sequence::new(&hot, 5, 0).take(2000) {
            match r.cache {
                CacheOutcome::Miss => {
                    assert!(missed.insert(r.source(&hot)), "edits are never repeated");
                    kinds[2] += 1;
                }
                CacheOutcome::Warm => {
                    assert!(missed.contains(&r.source(&hot)));
                    assert_ne!(r.opts, Opts::DEFAULT);
                    kinds[1] += 1;
                }
                CacheOutcome::Hit => {
                    assert!(r.edit.is_none());
                    kinds[0] += 1;
                }
            }
        }
        // Roughly 70/10/20.
        assert!(
            kinds[0] > 1200 && kinds[1] > 120 && kinds[2] > 300,
            "{kinds:?}"
        );
    }

    #[test]
    fn the_model_predicts_each_outcome_and_answer() {
        let hot = hot();
        let mut model = ServeModel::new(DEFAULT_CACHE_CAPACITY, "0.0.0");
        let mut t = Tracer::new();
        for s in &hot {
            model.handle(&mut t, &s.name, &s.source, Opts::DEFAULT, Format::Json);
        }
        for r in Sequence::new(&hot, 9, 1).take(300) {
            let (body, outcome) =
                model.handle(&mut t, &hot[r.hot].name, &r.source(&hot), r.opts, r.format);
            assert_eq!(outcome, r.cache);
            assert!(body_matches(r.format, &body, &r.expect(&hot)), "{body}");
        }
    }

    #[test]
    fn a_wrong_expected_answer_is_a_failure() {
        let hot = hot();
        let mut model = ServeModel::new(DEFAULT_CACHE_CAPACITY, "0.0.0");
        let mut t = Tracer::new();
        let undefined = hot
            .iter()
            .find(|s| !s.dynamic_findings.is_empty())
            .expect("the hot set holds dynamic-UB examples");
        for format in [Format::Human, Format::Json, Format::Sarif] {
            let (body, _) = model.handle(
                &mut t,
                &undefined.name,
                &undefined.source,
                Opts::DEFAULT,
                format,
            );
            let right = undefined.expect(Phase::All).unwrap();
            assert!(body_matches(format, &body, &right));
            let mut wrong = right.clone();
            wrong.findings[0].1 += 1;
            assert!(!body_matches(format, &body, &wrong));
            assert!(!body_matches(format, &body, &Expect::runs_clean()));
        }
    }
}
