//! A std-only work-stealing thread pool for chunked sweeps, with worker
//! supervision.
//!
//! The pool is deliberately small: each worker owns a deque of chunks,
//! pops its own work from the front, and steals from a sibling's back
//! when it runs dry. Completed chunks stream back to the caller's thread
//! (for checkpointing) tagged with their chunk index, and the final
//! result vector is assembled *by index* — so the merged output is
//! independent of scheduling order and worker count by construction.
//!
//! Supervision ([`map_chunks_supervised`]) catches panics *per chunk*
//! rather than letting them kill the worker thread: a panicking chunk is
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

enum Message<R> {
    Chunk { index: usize, results: Vec<R> },
    Quarantined(QuarantinedChunk),
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

/// Maps `f` over every item of every chunk on `jobs` worker threads,
/// supervising each chunk: a panic is caught, the chunk is retried up to
/// `retry.max_retries` times (charging `retry`'s modeled backoff), and a
/// chunk that fails every attempt comes back as
/// `Err(`[`QuarantinedChunk`]`)` in its result slot while the rest of
/// the sweep completes normally.
///
/// `on_chunk` runs on the calling thread, once per *completed* chunk in
/// completion order (suitable for streaming checkpoints) — quarantined
/// chunks are never checkpointed. The returned verdicts are ordered by
/// chunk index regardless of which worker computed them or when.
///
/// # Errors
///
/// Returns [`PoolError::WorkerLost`] only if a worker vanished without
/// delivering a verdict for its chunks (a bug, not a caught panic —
/// caught panics become quarantines, not errors).
pub fn map_chunks_supervised<T, R, F, C>(
    jobs: usize,
    chunks: Vec<Vec<T>>,
    retry: &RetryPolicy,
    f: F,
    mut on_chunk: C,
) -> Result<(Vec<Result<Vec<R>, QuarantinedChunk>>, Vec<WorkerStats>), PoolError>
where
    T: Send,
    R: Send,
    F: Fn(&T) -> R + Sync,
    C: FnMut(usize, &[R]),
{
    let jobs = jobs.max(1);
    let n_chunks = chunks.len();

    // Round-robin initial distribution across per-worker deques.
    let queues: Vec<Mutex<VecDeque<(usize, Vec<T>)>>> =
        (0..jobs).map(|_| Mutex::new(VecDeque::new())).collect();
    for (index, chunk) in chunks.into_iter().enumerate() {
        lock_queue(&queues[index % jobs]).push_back((index, chunk));
    }

    let (tx, rx) = mpsc::channel::<Message<R>>();
    let mut results: Vec<Option<Result<Vec<R>, QuarantinedChunk>>> =
        (0..n_chunks).map(|_| None).collect();
    let mut worker_stats = vec![WorkerStats::default(); jobs];

    std::thread::scope(|scope| {
        for w in 0..jobs {
            let tx = tx.clone();
            let queues = &queues;
            let f = &f;
            scope.spawn(move || {
                let mut stats = WorkerStats::default();
                loop {
                    // Own queue first (front), then steal (back) so a
                    // victim's locality-ordered head stays with it.
                    let mut job = lock_queue(&queues[w]).pop_front();
                    let mut stolen = false;
                    if job.is_none() {
                        for offset in 1..jobs {
                            let victim = (w + offset) % jobs;
                            job = lock_queue(&queues[victim]).pop_back();
                            if job.is_some() {
                                stolen = true;
                                break;
                            }
                        }
                    }
                    let Some((index, chunk)) = job else { break };
                    if stolen {
                        stats.steals += 1;
                    }
                    stats.chunks += 1;
                    stats.points += chunk.len() as u64;

                    // Supervised execution: 1 + max_retries attempts,
                    // each over the whole chunk (the kernel is
                    // deterministic, so a partial result has no value).
                    let attempts = retry.max_retries.saturating_add(1);
                    let mut backoff_us = 0.0;
                    let mut verdict = None;
                    for attempt in 1..=attempts {
                        match catch_unwind(AssertUnwindSafe(|| {
                            chunk.iter().map(f).collect::<Vec<R>>()
                        })) {
                            Ok(chunk_results) => {
                                verdict = Some(Ok(chunk_results));
                                break;
                            }
                            Err(payload) => {
                                let message = panic_message(payload.as_ref());
                                if attempt < attempts {
                                    stats.retries += 1;
                                    backoff_us += retry.backoff_for(attempt);
                                } else {
                                    verdict = Some(Err(QuarantinedChunk {
                                        index,
                                        attempts,
                                        message,
                                        backoff_us,
                                    }));
                                }
                            }
                        }
                    }
                    let message = match verdict {
                        Some(Ok(results)) => Message::Chunk { index, results },
                        Some(Err(q)) => Message::Quarantined(q),
                        // attempts >= 1, so a verdict always exists; keep
                        // the worker alive regardless.
                        None => Message::Quarantined(QuarantinedChunk {
                            index,
                            attempts,
                            message: "<no attempt executed>".to_string(),
                            backoff_us,
                        }),
                    };
                    if tx.send(message).is_err() {
                        break;
                    }
                }
                let _ = tx.send(Message::Done { worker: w, stats });
            });
        }
        drop(tx);

        // Drain on the caller's thread: checkpoint callbacks happen here,
        // so `on_chunk` needs no synchronization.
        let mut done = 0;
        while done < jobs {
            match rx.recv() {
                Ok(Message::Chunk {
                    index,
                    results: chunk_results,
                }) => {
                    on_chunk(index, &chunk_results);
                    results[index] = Some(Ok(chunk_results));
                }
                Ok(Message::Quarantined(q)) => {
                    let index = q.index;
                    results[index] = Some(Err(q));
                }
                Ok(Message::Done { worker, stats }) => {
                    worker_stats[worker] = stats;
                    done += 1;
                }
                // Every sender dropped without its Done: workers are gone;
                // whatever chunks are missing stay None and surface below.
                Err(_) => break,
            }
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
        on_chunk: impl FnMut(usize, &[u64]),
    ) -> (Vec<Vec<u64>>, Vec<WorkerStats>) {
        let (verdicts, stats) =
            map_chunks_supervised(jobs, chunks, &RetryPolicy::default(), f, on_chunk).unwrap();
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
            let (got, stats) = map_all(jobs, input.clone(), |x| x * 3, |_, _| {});
            assert_eq!(got, expect, "jobs = {jobs}");
            assert_eq!(stats.len(), jobs);
            assert_eq!(stats.iter().map(|s| s.points).sum::<u64>(), 65);
            assert_eq!(stats.iter().map(|s| s.chunks).sum::<u64>(), 13);
            assert_eq!(stats.iter().map(|s| s.retries).sum::<u64>(), 0);
        }
    }

    #[test]
    fn on_chunk_streams_every_chunk_exactly_once() {
        let mut seen = vec![0u32; 13];
        map_all(
            3,
            chunks(),
            |x| *x,
            |index, results| {
                assert_eq!(results.len(), 5);
                seen[index] += 1;
            },
        );
        assert!(seen.iter().all(|&n| n == 1));
    }

    #[test]
    fn zero_jobs_clamps_to_one_and_empty_input_is_fine() {
        let (got, stats) = map_all(0, Vec::new(), |x| *x, |_, _| {});
        assert!(got.is_empty());
        assert_eq!(stats.len(), 1);
    }

    #[test]
    fn a_persistent_panic_is_quarantined_not_fatal() {
        let (results, stats) = map_chunks_supervised(
            2,
            chunks(),
            &RetryPolicy::default(),
            |x| {
                assert!(*x != 62, "injected failure on item 62");
                *x * 3
            },
            |index, _| assert_ne!(index, 6, "quarantined chunk must not checkpoint"),
        )
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
