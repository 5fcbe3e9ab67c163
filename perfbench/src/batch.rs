//! The two `cundef --batch` workloads.

use crate::answer::{count_failures, expected_exit, parse_json_lines, parse_sarif};
use crate::corpus::{Unit, TRIVIAL};
use crate::product::{run, startup_seconds, Product, Run};
use crate::stats::{median, Report};
use crate::trace::{
    check_source, render, Format, Layer, Opts, Phase, Tracer, DEFAULT_CACHE_CAPACITY,
};
use cundef_cache::{content_hash, CacheKey, LruCache};
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

/// One batch workload: its corpus and the product options it runs.
pub struct Batch {
    /// The seeded corpus.
    pub units: Vec<Unit>,
    /// `--phase`.
    pub phase: Phase,
    /// `--format`.
    pub format: Format,
}

/// One-shot start-up runs after each timed batch run; the median of all
/// of them is `setup_s`. Spreading them through the window lets them
/// see the same host as the batch runs do.
const STARTUPS_PER_RUN: usize = 3;

impl Batch {
    fn label(u: &Unit) -> String {
        format!("corpus/{}", u.name)
    }

    fn command(&self, product: &Product, work: &Path, jobs: usize) -> Command {
        let mut cmd = Command::new(&product.bin);
        cmd.current_dir(work).args([
            "--batch",
            "--jobs",
            &jobs.to_string(),
            "--phase",
            self.phase.name(),
            "--format",
            self.format.name(),
        ]);
        cmd.args(self.units.iter().map(Batch::label));
        cmd
    }

    /// Wrong answers in one run's output, exit status included.
    fn failures(&self, run: &Run) -> u64 {
        let observed = match self.format {
            Format::Json => parse_json_lines(&run.stdout),
            _ => parse_sarif(&run.stdout),
        };
        let observed = match observed {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: unreadable product output: {e}");
                return self.units.len() as u64;
            }
        };
        let wrong = count_failures(
            &self.units,
            &observed,
            Batch::label,
            self.format == Format::Json,
        );
        let exit_wrong = u64::from(run.code != expected_exit(&self.units));
        if exit_wrong > 0 {
            eprintln!("perfbench: batch exited {}", run.code);
        }
        wrong + exit_wrong
    }

    fn write_corpus(&self, work: &Path) -> Result<(), String> {
        let io = |e: std::io::Error| format!("writing corpus: {e}");
        let dir = work.join("corpus");
        std::fs::create_dir_all(&dir).map_err(io)?;
        for u in &self.units {
            std::fs::write(dir.join(&u.name), &u.source).map_err(io)?;
        }
        std::fs::write(work.join("trivial.c"), TRIVIAL).map_err(io)
    }

    /// Run the workload: product runs until `seconds` have passed, or,
    /// with `trace`, the traced in-process pipeline.
    pub fn run(
        &self,
        product: &Product,
        work: &Path,
        jobs: usize,
        seconds: u64,
        trace: bool,
    ) -> Result<Report, String> {
        self.write_corpus(work)?;
        let files = self.units.len() as u64;
        let bytes: usize = self.units.iter().map(|u| u.source.len()).sum();
        println!(
            "perfbench: corpus of {files} units, {:.2} MB; cundef --batch --jobs {jobs} --phase {} --format {}",
            bytes as f64 / 1e6,
            self.phase.name(),
            self.format.name()
        );
        let mut report = Report::default();
        // The first run warms caches and is checked in full; later runs
        // must reproduce its bytes.
        let reference = run(&mut self.command(product, work, jobs))?;
        report.attempted += files;
        report.failed += self.failures(&reference);
        if trace {
            self.traced(product, work, jobs, seconds, &reference, report)
        } else {
            self.timed(product, work, jobs, seconds, &reference, report)
        }
    }

    fn timed(
        &self,
        product: &Product,
        work: &Path,
        jobs: usize,
        seconds: u64,
        reference: &Run,
        mut report: Report,
    ) -> Result<Report, String> {
        let files = self.units.len() as f64;
        let (mut cps, mut cpu, mut rss, mut wall) = (vec![], vec![], vec![], vec![]);
        let mut setup = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(seconds);
        while Instant::now() < deadline || cps.len() < 3 {
            let r = run(&mut self.command(product, work, jobs))?;
            report.attempted += self.units.len() as u64;
            if r.stdout != reference.stdout || r.code != reference.code {
                report.failed += self.failures(&r).max(1);
            }
            cps.push(files / r.wall.as_secs_f64());
            cpu.push(r.cpu.as_secs_f64() * 1e3 / files);
            rss.push(r.maxrss_kib as f64 / 1024.0);
            wall.push(r.wall.as_secs_f64() * 1e3);
            for _ in 0..STARTUPS_PER_RUN {
                setup.push(startup_seconds(&product.bin, work, "trivial.c")?);
            }
        }
        println!("perfbench: {} timed batch runs", cps.len());
        report.metric("throughput_cps", "1/s", median(&mut cps));
        report.metric("cpu_ms_per_check", "ms", median(&mut cpu));
        report.metric("peak_rss_mb", "MB", median(&mut rss));
        report.metric("latency_p50_ms", "ms", median(&mut wall));
        report.metric("setup_s", "s", median(&mut setup));
        Ok(report)
    }

    /// One traced pass over the corpus; returns the rendered stdout.
    fn traced_pass(&self, t: &mut Tracer, version: &str) -> String {
        let opts = Opts {
            phase: self.phase,
            ..Opts::DEFAULT
        };
        let mut renderer = self.format.renderer(version);
        // The batch path keeps no cache; replaying its key sequence
        // through one shows what hashing and lookups would cost.
        let mut cache = LruCache::new(DEFAULT_CACHE_CAPACITY);
        let mut out = String::new();
        for (i, u) in self.units.iter().enumerate() {
            t.check = i as u32;
            let key = CacheKey {
                content: t.time(Layer::Hash, || content_hash(u.source.as_bytes())),
                fingerprint: opts.fingerprint(),
            };
            t.time(Layer::Lookup, || {
                if cache.get(&key).is_none() {
                    cache.insert(key, ());
                }
            });
            let result = check_source(t, &Batch::label(u), &u.source, opts);
            out.push_str(&render(t, renderer.as_mut(), &result).stdout);
        }
        out.push_str(&t.time(Layer::Render, || renderer.finish()));
        out
    }

    fn traced(
        &self,
        product: &Product,
        work: &Path,
        jobs: usize,
        seconds: u64,
        reference: &Run,
        mut report: Report,
    ) -> Result<Report, String> {
        let files = self.units.len() as f64;
        // Product runs alternate with traced passes, so host speed
        // drifts alike under both sides of `trace.coverage`.
        let mut product_cpu = vec![reference.cpu.as_secs_f64() * 1e3 / files];
        let mut per_layer: Vec<Vec<f64>> = vec![Vec::new(); Layer::ALL.len()];
        let mut lexer_mb_per_s = Vec::new();
        let mut render_kb = 0.0;
        let deadline = Instant::now() + Duration::from_secs(seconds);
        let mut last = Tracer::new();
        let mut passes = 0;
        while passes == 0 || Instant::now() < deadline {
            if passes > 0 {
                let r = run(&mut self.command(product, work, jobs))?;
                product_cpu.push(r.cpu.as_secs_f64() * 1e3 / files);
            }
            let mut t = Tracer::new();
            let out = self.traced_pass(&mut t, &product.version);
            report.attempted += self.units.len() as u64;
            if out != reference.stdout {
                let at = out
                    .bytes()
                    .zip(reference.stdout.bytes())
                    .position(|(a, b)| a != b)
                    .unwrap_or(out.len().min(reference.stdout.len()));
                report.failed += 1;
                report.broken.push(format!(
                    "traced pipeline output differs from the product's at byte {at}"
                ));
            }
            let totals = t.totals();
            for (i, total) in totals.iter().enumerate() {
                per_layer[i].push(total.as_secs_f64() * 1e3 / files);
            }
            lexer_mb_per_s.push(t.lexed as f64 / 1e6 / totals[2].as_secs_f64());
            render_kb = out.len() as f64 / 1024.0 / files;
            last = t;
            passes += 1;
        }
        let product_cpu = median(&mut product_cpu);
        write_spans(work, &last)?;
        let ms: Vec<f64> = per_layer.iter_mut().map(|v| median(v)).collect();
        let [hash, lookup, lexer, parser, analysis, compile, vm, render] = ms[..] else {
            unreachable!("eight layers")
        };
        println!("perfbench: {passes} traced passes; product {product_cpu:.4} CPU ms per check");
        layer_metrics(
            &mut report,
            LayerFigures {
                lexer,
                lexer_mb_per_s: median(&mut lexer_mb_per_s),
                parser,
                analysis,
                findings: last.findings as f64 / files,
                compile,
                vm,
                render,
                render_kb,
                hash_us: hash * 1e3,
                lookup_us: lookup * 1e3,
                ..LayerFigures::default()
            },
        );
        // The batch path does no hashing or cache lookups, so only the
        // checking layers count towards what the product spends.
        let sum = lexer + parser + analysis + compile + vm + render;
        report.metric("trace.coverage", "ratio", sum / product_cpu);
        Ok(report)
    }
}

/// Write the last traced pass's spans next to the corpus.
pub fn write_spans(work: &Path, t: &Tracer) -> Result<(), String> {
    std::fs::write(work.join("spans.jsonl"), t.to_jsonl())
        .map_err(|e| format!("writing spans: {e}"))
}

/// Per-layer figures of one traced run; zero where a layer does no
/// work on the workload.
#[derive(Default)]
pub struct LayerFigures {
    pub lexer: f64,
    pub lexer_mb_per_s: f64,
    pub parser: f64,
    pub analysis: f64,
    pub findings: f64,
    pub compile: f64,
    pub vm: f64,
    pub render: f64,
    pub render_kb: f64,
    pub hash_us: f64,
    pub lookup_us: f64,
    pub hit_ratio: f64,
    pub unit_hit_ratio: f64,
    pub hit_overhead_ms: f64,
    pub miss_overhead_ms: f64,
    pub latency_tail_ms: f64,
    pub hit_latency_p50_ms: f64,
    pub miss_latency_p50_ms: f64,
}

/// Record every per-layer metric but `trace.coverage`.
pub fn layer_metrics(report: &mut Report, f: LayerFigures) {
    report.metric("lexer.ms_per_check", "ms", f.lexer);
    report.metric("lexer.mb_per_s", "MB/s", f.lexer_mb_per_s);
    report.metric("parser.ms_per_check", "ms", f.parser);
    report.metric("analysis.ms_per_check", "ms", f.analysis);
    report.metric("analysis.findings_per_check", "count", f.findings);
    report.metric("compile.ms_per_check", "ms", f.compile);
    report.metric("vm.ms_per_check", "ms", f.vm);
    report.metric("render.ms_per_check", "ms", f.render);
    report.metric("render.kb_per_check", "KiB", f.render_kb);
    report.metric("cache.hash_us_per_check", "us", f.hash_us);
    report.metric("cache.lookup_us_per_check", "us", f.lookup_us);
    report.metric("cache.hit_ratio", "ratio", f.hit_ratio);
    report.metric("cache.unit_hit_ratio", "ratio", f.unit_hit_ratio);
    report.metric("serve.hit_overhead_ms", "ms", f.hit_overhead_ms);
    report.metric("serve.miss_overhead_ms", "ms", f.miss_overhead_ms);
    report.metric("serve.latency_tail_ms", "ms", f.latency_tail_ms);
    report.metric("serve.hit_latency_p50_ms", "ms", f.hit_latency_p50_ms);
    report.metric("serve.miss_latency_p50_ms", "ms", f.miss_latency_p50_ms);
}
