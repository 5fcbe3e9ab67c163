//! A persistent worker pool — the `--batch`/`--jobs` machinery,
//! generalized so one scheduler serves both the one-shot batch driver
//! and the long-running `cundef serve` daemon.
//!
//! The pool is a shared FIFO of boxed jobs drained by `workers` OS
//! threads. Submission is lock + push + notify; workers park on a
//! condvar when the queue is dry. There is no per-job allocation
//! beyond the closure box, and no result plumbing — jobs communicate
//! through whatever channel or slot their submitter chose, which keeps
//! the pool reusable for batch slots (index-addressed `Mutex<Option>`)
//! and serve responses (per-request `mpsc` channels) alike.

use crate::check::{check_file, CheckOptions, Checked, PhaseStats};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Stack size of every worker: the main thread's usual 8 MiB, so a
/// check that one-shot `cundef` completes on the main thread completes
/// on `--batch` and `serve` workers too (the default 2 MiB thread stack
/// overflows on deeply nested input the main thread takes in stride).
const WORKER_STACK_BYTES: usize = 8 << 20;

/// A queued unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Queue state shared between submitters and workers.
struct Shared {
    queue: Mutex<QueueState>,
    available: Condvar,
    /// Jobs whose closure panicked (and whose worker carried on).
    panics: AtomicU64,
}

struct QueueState {
    jobs: VecDeque<Job>,
    /// No further jobs will be submitted; workers drain and exit.
    closed: bool,
}

/// A fixed-size pool of worker threads draining a shared job queue.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `workers` threads (minimum 1).
    pub fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            panics: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let worker = move || loop {
                    let job = {
                        let mut q = shared.queue.lock().expect("pool queue poisoned");
                        loop {
                            if let Some(job) = q.jobs.pop_front() {
                                break job;
                            }
                            if q.closed {
                                return;
                            }
                            q = shared.available.wait(q).expect("pool queue poisoned");
                        }
                    };
                    // A panicking job must not take its worker down: its
                    // captured reply channels drop (the submitter sees a
                    // disconnect) and the worker serves the next job.
                    if panic::catch_unwind(AssertUnwindSafe(job)).is_err() {
                        shared.panics.fetch_add(1, Ordering::Relaxed);
                    }
                };
                std::thread::Builder::new()
                    .stack_size(WORKER_STACK_BYTES)
                    .spawn(worker)
                    .expect("spawn a pool worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// The machine's available parallelism (the `--jobs` default).
    pub fn default_workers() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Jobs that panicked so far. A job counts once its worker has
    /// unwound it, which is just after its captured channels dropped.
    pub fn panics(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// Enqueue a job. Panics if called after [`WorkerPool::join`].
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        let mut q = self.shared.queue.lock().expect("pool queue poisoned");
        assert!(!q.closed, "submit to a closed pool");
        q.jobs.push_back(Box::new(job));
        drop(q);
        self.shared.available.notify_one();
    }

    /// Close the queue, run every remaining job, and join the workers.
    pub fn join(mut self) {
        {
            let mut q = self.shared.queue.lock().expect("pool queue poisoned");
            q.closed = true;
        }
        self.shared.available.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // A dropped (not joined) pool still shuts its workers down.
        {
            if let Ok(mut q) = self.shared.queue.lock() {
                q.closed = true;
            }
        }
        self.shared.available.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Check `files` across the pool's workers. Every worker runs its own
/// parser + analyzer + evaluator (translation units share nothing), so
/// nothing is shared but the result slots. Results come back in input
/// order for the main thread to render, keeping every format's output
/// byte-identical to a sequential run.
///
/// Duplicate paths are checked **once**: each repeated occurrence
/// replays a clone of the first occurrence's result. Checking is
/// deterministic for fixed bytes + options, so the replay is
/// byte-identical to what a redundant re-check would have printed —
/// the run is just `O(unique)` instead of `O(inputs)`.
pub fn check_batch(files: &[String], jobs: Option<usize>, opts: &CheckOptions) -> Vec<Checked> {
    // Unique paths in first-occurrence order; map every input index to
    // its unique slot.
    let mut slot_of_path: HashMap<&str, usize> = HashMap::with_capacity(files.len());
    let mut unique: Vec<&String> = Vec::with_capacity(files.len());
    let slot_of_input: Vec<usize> = files
        .iter()
        .map(|f| {
            *slot_of_path.entry(f.as_str()).or_insert_with(|| {
                unique.push(f);
                unique.len() - 1
            })
        })
        .collect();

    let workers = jobs
        .unwrap_or_else(WorkerPool::default_workers)
        .min(unique.len().max(1));
    let slots: Arc<Vec<Mutex<Option<Checked>>>> =
        Arc::new(unique.iter().map(|_| Mutex::new(None)).collect());
    let pool = WorkerPool::new(workers);
    for (i, path) in unique.iter().enumerate() {
        let slots = Arc::clone(&slots);
        let path = (*path).clone();
        let opts = *opts;
        pool.submit(move || {
            let checked = check_file(&path, &opts);
            *slots[i].lock().expect("result slot poisoned") = Some(checked);
        });
    }
    pool.join();
    // An empty slot means the check panicked (the pool contained it).
    let results: Vec<Checked> = slots
        .iter()
        .zip(&unique)
        .map(|(slot, path)| {
            slot.lock()
                .expect("result slot poisoned")
                .clone()
                .unwrap_or_else(|| {
                    Checked::failed(
                        path,
                        PhaseStats::default(),
                        "internal error: the check panicked".into(),
                    )
                })
        })
        .collect();
    slot_of_input
        .into_iter()
        .map(|i| results[i].clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn a_panicking_job_leaves_its_worker_serving() {
        let pool = WorkerPool::new(1);
        let (tx, rx) = mpsc::channel::<u32>();
        pool.submit(move || {
            let _reply = tx;
            panic!("a check panicked");
        });
        // The job's sender dropped while unwinding: a disconnect, not a
        // hang.
        assert!(rx.recv().is_err());
        // The only worker survived and runs the next job.
        let (tx, rx) = mpsc::channel();
        pool.submit(move || tx.send(7).expect("receiver alive"));
        assert_eq!(rx.recv(), Ok(7));
        // The worker counted the panic before it took the next job.
        assert_eq!(pool.panics(), 1);
        pool.join();
    }
}
