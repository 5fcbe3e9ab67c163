//! Building and running the product: the release `cundef` binary.

use std::io::Read;
use std::os::raw::{c_int, c_long};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The built product.
pub struct Product {
    /// Absolute path of the release `cundef` binary.
    pub bin: PathBuf,
    /// Its version, as `cundef --version` prints it (the SARIF tool
    /// version).
    pub version: String,
}

/// The cargo target directory builds go to (`CARGO_TARGET_DIR`, else
/// `target`), relative to the checkout root.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
}

/// Build the release `cundef` from the checkout in the current
/// directory (a no-op when it is up to date).
pub fn build() -> Result<Product, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--bin", "cundef"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building cundef failed: {status}"));
    }
    let bin = target_dir().join("release").join("cundef");
    let bin = bin
        .canonicalize()
        .map_err(|e| format!("no product binary at {}: {e}", bin.display()))?;
    let out = Command::new(&bin)
        .arg("--version")
        .output()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    let version = String::from_utf8_lossy(&out.stdout)
        .trim()
        .strip_prefix("cundef ")
        .ok_or("unexpected `cundef --version` output")?
        .to_string();
    Ok(Product { bin, version })
}

/// One finished product run.
pub struct Run {
    /// Exit code (`-1` when killed by a signal).
    pub code: i32,
    /// Everything it wrote to stdout.
    pub stdout: String,
    /// Spawn to exit, stdout drained.
    pub wall: Duration,
    /// User + system CPU time.
    pub cpu: Duration,
    /// Peak resident set size, KiB.
    pub maxrss_kib: u64,
}

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// Linux `struct rusage`: two timevals, then fourteen longs of which
/// only the first (`ru_maxrss`) is read.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
    fn sysconf(name: c_int) -> c_long;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: c_int = 2;

fn timeval(t: &Timeval) -> Duration {
    Duration::from_secs(t.sec as u64) + Duration::from_micros(t.usec as u64)
}

/// Run `cmd` to completion with stdout captured and stderr discarded,
/// measuring wall time, CPU time and peak RSS of that one process.
pub fn run(cmd: &mut Command) -> Result<Run, String> {
    let start = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot spawn cundef: {e}"))?;
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout);
    let pid = child.id() as c_int;
    let mut status: c_int = 0;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `pid` is our own unreaped child, and both out-pointers
        // refer to live, writable values of the C layout wait4 expects.
        let ret = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if ret == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4 failed: {err}"));
        }
    }
    let wall = start.elapsed();
    // The child is reaped; dropping `child` neither waits nor kills.
    drop(child);
    read.map_err(|e| format!("reading cundef output: {e}"))?;
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        -1
    };
    Ok(Run {
        code,
        stdout,
        wall,
        cpu: timeval(&usage.utime) + timeval(&usage.stime),
        maxrss_kib: usage.maxrss as u64,
    })
}

/// User + system CPU time so far of a live process, from
/// `/proc/<pid>/stat`.
pub fn proc_cpu(pid: u32) -> Result<Duration, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("cannot read /proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3.
    let rest = &stat[stat.rfind(')').ok_or("malformed stat")? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| "malformed stat".to_string())
    };
    // utime and stime are fields 14 and 15.
    let total = ticks(11)? + ticks(12)?;
    // SAFETY: sysconf only reads a configuration value.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as u64;
    Ok(Duration::from_secs_f64(total as f64 / hz as f64))
}

/// Peak resident set size of a live process, KiB (`VmHWM`).
pub fn proc_peak_rss_kib(pid: u32) -> Result<u64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM".to_string())
}

/// Wall time of one one-shot run of `cundef <file>`: process start-up
/// plus a trivial check.
pub fn startup_seconds(bin: &Path, dir: &Path, file: &str) -> Result<f64, String> {
    let run = run(Command::new(bin).arg(file).current_dir(dir))?;
    if run.code != 0 {
        return Err(format!("trivial check exited {}", run.code));
    }
    Ok(run.wall.as_secs_f64())
}
