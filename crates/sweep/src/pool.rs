//! A std-only work-stealing pool for chunked sweeps, with worker
//! supervision.
//!
//! The pool is deliberately small: each worker owns a deque of chunks,
//! pops its own work from the front, and steals from a sibling's back
//! when it runs dry. The calling thread is worker 0 and `jobs - 1`
//! scoped helper threads join it, so a one-job pool starts no thread and
//! sends nothing across threads. Completed chunks reach the caller
//! tagged with their chunk index — its own directly, the helpers' over a
//! channel it drains between its own chunks — and the final result
//! vector is assembled *by index*, so the merged output is independent
//! of scheduling order and worker count by construction.
//!
//! Supervision ([`map_chunks_supervised`]) catches panics *per chunk*
//! rather than letting them kill the worker: a panicking chunk is
//! retried under the caller's [`RetryPolicy`] (the evaluation kernel is
//! deterministic, but the failure may be environmental — an injected
//! chaos kill, a transient resource fault), and a chunk that fails every
//! attempt is *quarantined* — reported, with its panic message and the
//! modeled backoff it consumed, instead of aborting the sweep. A
//! quarantine-free run evaluates every item exactly once, so its output
//! is byte-identical to the sequential oracle.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Mutex;

pub use ena_hsa::runtime::RetryPolicy;

/// Per-worker execution counters, the raw material of the utilization
/// telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Chunks this worker executed.
    pub chunks: u64,
    /// Items this worker evaluated.
    pub points: u64,
    /// Chunks this worker stole from a sibling's queue.
    pub steals: u64,
    /// Chunk attempts re-run after a caught panic.
    pub retries: u64,
}

/// A chunk that failed every attempt its [`RetryPolicy`] allowed and was
/// pulled out of the sweep instead of aborting it.
#[derive(Clone, Debug, PartialEq)]
pub struct QuarantinedChunk {
    /// Index of the chunk in submission order.
    pub index: usize,
    /// Attempts made (1 + retries).
    pub attempts: u32,
    /// Panic message of the final attempt.
    pub message: String,
    /// Modeled backoff consumed across retries (µs). Modeled, not
    /// slept: the pool stays wall-clock-free so supervised runs remain
    /// deterministic.
    pub backoff_us: f64,
}

/// What one chunk came to: its results, or its quarantine.
type Verdict<R> = Result<Vec<R>, QuarantinedChunk>;

/// One worker's pending `(chunk index, chunk)` pairs.
type Queue<T> = VecDeque<(usize, Vec<T>)>;

enum Message<R> {
    Verdict { index: usize, verdict: Verdict<R> },
    Done { worker: usize, stats: WorkerStats },
}

/// A pool run that could not deliver every chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum PoolError {
    /// One or more workers disappeared before delivering their chunks;
    /// `missing` chunks never completed.
    WorkerLost {
        /// Number of chunks that never completed.
        missing: usize,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            PoolError::WorkerLost { missing } => {
                write!(f, "worker pool lost {missing} chunk(s) before completion")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// Locks a queue, recovering the guard from a poisoned sibling: the data
/// is a plain deque of pending chunks, valid regardless of where another
/// worker died.
fn lock_queue<T>(q: &Mutex<VecDeque<T>>) -> std::sync::MutexGuard<'_, VecDeque<T>> {
    q.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Renders a caught panic payload (the `&str`/`String` payloads `panic!`
/// and `panic_any` produce) into a stable message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs chunk `index` under supervision: 1 + `retry.max_retries`
/// attempts, each over the whole chunk (the kernel is deterministic, so
/// a partial result has no value). Each caught panic but the last counts
/// in `retries` and charges `retry`'s modeled backoff; the last
/// quarantines the chunk.
fn supervise<T, R, F>(
    index: usize,
    chunk: &[T],
    retry: &RetryPolicy,
    f: &F,
    retries: &mut u64,
) -> Verdict<R>
where
    F: Fn(&T) -> R,
{
    let attempts = retry.max_retries.saturating_add(1);
    let attempt = || catch_unwind(AssertUnwindSafe(|| chunk.iter().map(f).collect()));
    let mut backoff_us = 0.0;
    for failed in 1..attempts {
        if let Ok(results) = attempt() {
            return Ok(results);
        }
        *retries += 1;
        backoff_us += retry.backoff_for(failed);
    }
    attempt().map_err(|payload| QuarantinedChunk {
        index,
        attempts,
        message: panic_message(payload.as_ref()),
        backoff_us,
    })
}

/// Worker `w`'s loop, the same for the caller and every helper: pop its
/// own deque's front, else steal a sibling's back (so a victim's
/// locality-ordered head stays with it), supervise the chunk and hand
/// the verdict to `deliver`, until no work is left.
fn work<T, R, F>(
    w: usize,
    queues: &[Mutex<Queue<T>>],
    retry: &RetryPolicy,
    f: &F,
    mut deliver: impl FnMut(usize, Verdict<R>),
) -> WorkerStats
where
    F: Fn(&T) -> R,
{
    let jobs = queues.len();
    let mut stats = WorkerStats::default();
    loop {
        let mut job = lock_queue(&queues[w]).pop_front();
        if job.is_none() {
            job = (1..jobs).find_map(|offset| lock_queue(&queues[(w + offset) % jobs]).pop_back());
            if job.is_some() {
                stats.steals += 1;
            }
        }
        let Some((index, chunk)) = job else {
            return stats;
        };
        stats.chunks += 1;
        stats.points += chunk.len() as u64;
        let verdict = supervise(index, &chunk, retry, f, &mut stats.retries);
        deliver(index, verdict);
    }
}

/// Maps `f` over every item of every chunk on `jobs` workers — the
/// calling thread plus `jobs - 1` helper threads, so `jobs = 1` starts
/// none — supervising each chunk: a panic is caught, the chunk is
/// retried up to `retry.max_retries` times (charging `retry`'s modeled
/// backoff), and a chunk that fails every attempt comes back as
/// `Err(`[`QuarantinedChunk`]`)` in its result slot while the rest of
/// the sweep completes normally.
///
/// The returned verdicts are ordered by chunk index regardless of which
/// worker computed them or when, and the returned stats hold one entry
/// per worker, the caller's first.
///
/// # Errors
///
/// Returns [`PoolError::WorkerLost`] only if a helper vanished without
/// delivering a verdict for its chunks (a bug, not a caught panic —
/// caught panics become quarantines, not errors).
pub fn map_chunks_supervised<T, R, F>(
    jobs: usize,
    chunks: Vec<Vec<T>>,
    retry: &RetryPolicy,
    f: F,
) -> Result<(Vec<Result<Vec<R>, QuarantinedChunk>>, Vec<WorkerStats>), PoolError>
where
    T: Send,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = jobs.max(1);
    let n_chunks = chunks.len();

    // Round-robin initial distribution across per-worker deques.
    let queues: Vec<Mutex<Queue<T>>> = (0..jobs).map(|_| Mutex::new(VecDeque::new())).collect();
    for (index, chunk) in chunks.into_iter().enumerate() {
        lock_queue(&queues[index % jobs]).push_back((index, chunk));
    }

    let mut results: Vec<Option<Verdict<R>>> = (0..n_chunks).map(|_| None).collect();
    let mut worker_stats = vec![WorkerStats::default(); jobs];
    // Every verdict and every worker's stats pass through here, on the
    // caller's thread.
    let mut accept = |message: Message<R>| match message {
        Message::Verdict { index, verdict } => results[index] = Some(verdict),
        Message::Done { worker, stats } => worker_stats[worker] = stats,
    };

    let (tx, rx) = mpsc::channel::<Message<R>>();
    std::thread::scope(|scope| {
        for w in 1..jobs {
            let tx = tx.clone();
            let queues = &queues;
            let f = &f;
            scope.spawn(move || {
                // `rx` outlives the scope, so a send cannot fail while
                // a helper runs.
                let stats = work(w, queues, retry, f, |index, verdict| {
                    let _ = tx.send(Message::Verdict { index, verdict });
                });
                let _ = tx.send(Message::Done { worker: w, stats });
            });
        }
        drop(tx);

        // The caller works as worker 0, taking in what the helpers have
        // finished after each of its own chunks, then waits for the
        // helpers' last verdicts. The channel disconnects once every
        // helper has gone, with or without its `Done`; chunks a vanished
        // helper never delivered stay `None` and surface below.
        let stats = work(0, &queues, retry, &f, |index, verdict| {
            accept(Message::Verdict { index, verdict });
            while let Ok(message) = rx.try_recv() {
                accept(message);
            }
        });
        accept(Message::Done { worker: 0, stats });
        while let Ok(message) = rx.recv() {
            accept(message);
        }
    });

    let mut merged = Vec::with_capacity(n_chunks);
    let mut missing = 0usize;
    for slot in results {
        match slot {
            Some(verdict) => merged.push(verdict),
            None => missing += 1,
        }
    }
    if missing > 0 {
        return Err(PoolError::WorkerLost { missing });
    }
    Ok((merged, worker_stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunks() -> Vec<Vec<u64>> {
        (0..13u64)
            .map(|c| (0..5).map(|i| c * 10 + i).collect())
            .collect()
    }

    /// Runs the supervised pool with no panics expected, unwrapping
    /// every verdict.
    fn map_all(
        jobs: usize,
        chunks: Vec<Vec<u64>>,
        f: impl Fn(&u64) -> u64 + Sync,
    ) -> (Vec<Vec<u64>>, Vec<WorkerStats>) {
        let (verdicts, stats) =
            map_chunks_supervised(jobs, chunks, &RetryPolicy::default(), f).unwrap();
        (verdicts.into_iter().map(Result::unwrap).collect(), stats)
    }

    #[test]
    fn merge_is_index_ordered_for_any_job_count() {
        let input = chunks();
        let expect: Vec<Vec<u64>> = input
            .iter()
            .map(|c| c.iter().map(|x| x * 3).collect())
            .collect();
        for jobs in [1, 2, 7, 32] {
            let (got, stats) = map_all(jobs, input.clone(), |x| x * 3);
            assert_eq!(got, expect, "jobs = {jobs}");
            assert_eq!(stats.len(), jobs);
            assert_eq!(stats.iter().map(|s| s.points).sum::<u64>(), 65);
            assert_eq!(stats.iter().map(|s| s.chunks).sum::<u64>(), 13);
            assert_eq!(stats.iter().map(|s| s.retries).sum::<u64>(), 0);
        }
    }

    #[test]
    fn one_job_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let (verdicts, stats) = map_chunks_supervised(1, chunks(), &RetryPolicy::default(), |x| {
            assert_eq!(std::thread::current().id(), caller, "f left the caller");
            *x
        })
        .unwrap();
        assert!(verdicts.iter().all(Result::is_ok), "{verdicts:?}");
        assert_eq!(stats.len(), 1);
        assert_eq!((stats[0].chunks, stats[0].steals), (13, 0));
    }

    #[test]
    fn zero_jobs_clamps_to_one_and_empty_input_is_fine() {
        let (got, stats) = map_all(0, Vec::new(), |x| *x);
        assert!(got.is_empty());
        assert_eq!(stats.len(), 1);
    }

    #[test]
    fn a_persistent_panic_is_quarantined_not_fatal() {
        let (results, stats) = map_chunks_supervised(2, chunks(), &RetryPolicy::default(), |x| {
            assert!(*x != 62, "injected failure on item 62");
            *x * 3
        })
        .unwrap();
        assert_eq!(results.len(), 13);
        for (i, slot) in results.iter().enumerate() {
            if i == 6 {
                let q = slot.as_ref().unwrap_err();
                assert_eq!(q.index, 6);
                assert_eq!(q.attempts, 4, "1 + default max_retries");
                assert!(q.message.contains("62"), "{}", q.message);
                assert!(q.backoff_us > 0.0);
            } else {
                let ok = slot.as_ref().unwrap();
                assert_eq!(ok.len(), 5);
            }
        }
        assert_eq!(stats.iter().map(|s| s.retries).sum::<u64>(), 3);
    }
}
