//! Supervised parallel execution: panic isolation, retries, deadlines.
//!
//! [`parallel_map`](crate::parallel_map) is the zero-overhead fast path —
//! a panicking item aborts the whole sweep (now at least naming the item).
//! The [`Supervisor`] here is the slow-but-safe path for long provisioning
//! sweeps: every work item runs inside `catch_unwind`, a failed attempt is
//! retried under a [`RetryPolicy`] with capped exponential backoff, an
//! optional per-item deadline is enforced by a watchdog thread, and the
//! caller gets a [`SweepReport`] naming every item that ultimately failed
//! (with its panic payload) instead of a blanket abort.
//!
//! Determinism: a perturbed attempt's output is discarded before retrying,
//! and the work closures in this crate are pure functions of their input,
//! so a supervised sweep that recovers from chaos returns results
//! bit-identical to a clean run. The chaos suite asserts this.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use dcs_faults::{ChaosKind, ChaosSchedule};

use crate::error::SimError;
use crate::sweep::{panic_payload_message, BudgetGuard};

/// Sentinel for "worker is idle" in the watchdog's per-worker item slots.
const IDLE: usize = usize::MAX;

/// Per-item retry policy for supervised execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per item (first try included); at least 1.
    pub max_attempts: u32,
    /// Backoff before the first retry, in milliseconds (doubled per retry).
    pub initial_backoff_ms: u64,
    /// Cap on the exponential backoff, in milliseconds.
    pub max_backoff_ms: u64,
    /// Per-item deadline in milliseconds. An attempt that overruns it is
    /// discarded and counted as a failure (and retried if attempts
    /// remain). `None` disables the watchdog.
    pub deadline_ms: Option<u64>,
}

impl Default for RetryPolicy {
    /// One attempt, no backoff, no deadline — pure panic isolation.
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            initial_backoff_ms: 0,
            max_backoff_ms: 0,
            deadline_ms: None,
        }
    }
}

impl RetryPolicy {
    /// A policy with `max_attempts` total attempts and a short capped
    /// backoff (1 ms doubling to at most 16 ms) — the house default for
    /// resumable searches.
    #[must_use]
    pub fn attempts(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            initial_backoff_ms: 1,
            max_backoff_ms: 16,
            ..RetryPolicy::default()
        }
    }

    /// Sets the per-item deadline.
    #[must_use]
    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> RetryPolicy {
        self.deadline_ms = Some(deadline_ms);
        self
    }

    /// Backoff before retry number `retry` (zero-based), capped.
    #[must_use]
    pub fn backoff_ms(&self, retry: u32) -> u64 {
        if self.initial_backoff_ms == 0 {
            return 0;
        }
        let factor = 1_u64 << retry.min(16);
        (self.initial_backoff_ms.saturating_mul(factor)).min(self.max_backoff_ms)
    }
}

/// Why a supervised item's final attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureCause {
    /// The work closure panicked; the payload is rendered into a string.
    Panic {
        /// The rendered panic payload.
        payload: String,
    },
    /// The attempt overran the per-item deadline.
    DeadlineExceeded {
        /// Observed attempt duration in milliseconds.
        elapsed_ms: u64,
        /// The configured deadline in milliseconds.
        deadline_ms: u64,
    },
}

impl std::fmt::Display for FailureCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureCause::Panic { payload } => write!(f, "panicked: {payload}"),
            FailureCause::DeadlineExceeded {
                elapsed_ms,
                deadline_ms,
            } => write!(f, "deadline exceeded: {elapsed_ms} ms > {deadline_ms} ms"),
        }
    }
}

/// One item that failed on every attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepFailure {
    /// Index of the failing item in the input slice.
    pub item: usize,
    /// How many attempts were made.
    pub attempts: u32,
    /// The last attempt's failure.
    pub cause: FailureCause,
}

/// One item that failed at least once but eventually succeeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepRecovery {
    /// Index of the recovered item.
    pub item: usize,
    /// Total attempts including the successful one (always ≥ 2).
    pub attempts: u32,
}

/// Outcome of a supervised sweep: per-item results (in input order, `None`
/// where the item ultimately failed) plus structured failure/recovery
/// records.
#[derive(Debug)]
pub struct SweepReport<U> {
    /// Per-item results in input order; `None` marks a failed item.
    pub results: Vec<Option<U>>,
    /// Items that failed on every attempt, ascending by item index.
    pub failures: Vec<SweepFailure>,
    /// Items that needed retries but succeeded, ascending by item index.
    pub recovered: Vec<SweepRecovery>,
}

impl<U> SweepReport<U> {
    /// `true` if every item produced a result.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// Unwraps the per-item results, or returns a [`SimError::Sweep`] for
    /// the first (lowest-index) failed item.
    pub fn into_results(self) -> Result<Vec<U>, SimError> {
        if let Some(first) = self.failures.first() {
            return Err(SimError::Sweep {
                item: first.item,
                attempts: first.attempts,
                message: first.cause.to_string(),
            });
        }
        Ok(self
            .results
            .into_iter()
            .map(|r| r.expect("no failures recorded, so every slot is Some"))
            .collect())
    }
}

/// The supervised executor: a retry policy plus an optional harness-level
/// chaos schedule (used by the soak suite to inject panics and stalls).
#[derive(Debug, Clone, Default)]
pub struct Supervisor {
    retry: RetryPolicy,
    chaos: ChaosSchedule,
}

impl Supervisor {
    /// A supervisor with the default policy (one attempt, no deadline) and
    /// no chaos.
    #[must_use]
    pub fn new() -> Supervisor {
        Supervisor::default()
    }

    /// Replaces the retry policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Supervisor {
        self.retry = retry;
        self
    }

    /// Installs a chaos schedule; attempts it names are perturbed.
    #[must_use]
    pub fn with_chaos(mut self, chaos: ChaosSchedule) -> Supervisor {
        self.chaos = chaos;
        self
    }

    /// The active retry policy.
    #[must_use]
    pub fn retry(&self) -> &RetryPolicy {
        &self.retry
    }

    /// Runs one nominal work item (index `item`, for chaos lookup and
    /// error attribution) under the retry policy, inline on the calling
    /// thread. The deadline, if any, is checked after each attempt — an
    /// overrunning attempt's result is discarded and retried.
    pub fn call<U>(&self, item: usize, f: impl Fn() -> U) -> Result<U, SimError> {
        let mut last_cause = None;
        for attempt in 0..self.retry.max_attempts {
            if attempt > 0 {
                let backoff = self.retry.backoff_ms(attempt - 1);
                if backoff > 0 {
                    std::thread::sleep(Duration::from_millis(backoff));
                }
            }
            let started = Instant::now();
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let _budget = BudgetGuard::set(BudgetGuard::current());
                self.apply_chaos(item, attempt);
                f()
            }));
            let elapsed_ms = started.elapsed().as_millis() as u64;
            match outcome {
                Ok(value) => match self.retry.deadline_ms {
                    Some(deadline_ms) if elapsed_ms > deadline_ms => {
                        last_cause = Some(FailureCause::DeadlineExceeded {
                            elapsed_ms,
                            deadline_ms,
                        });
                    }
                    _ => return Ok(value),
                },
                Err(payload) => {
                    last_cause = Some(FailureCause::Panic {
                        payload: panic_payload_message(payload.as_ref()),
                    });
                }
            }
        }
        let cause = last_cause.expect("max_attempts >= 1 ran at least one attempt");
        Err(SimError::Sweep {
            item,
            attempts: self.retry.max_attempts,
            message: cause.to_string(),
        })
    }

    /// Maps `f` over `inputs` in parallel with per-item supervision:
    /// panic isolation, retries with capped backoff, and (when the policy
    /// sets a deadline) a watchdog thread that flags overrunning attempts.
    ///
    /// Results preserve input order. Unlike
    /// [`parallel_map`](crate::parallel_map), a failing item never aborts
    /// the sweep — it is reported in [`SweepReport::failures`] and its
    /// result slot is `None`.
    pub fn map<T, U, F>(&self, inputs: &[T], f: F) -> SweepReport<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        let len = inputs.len();
        if len == 0 {
            return SweepReport {
                results: Vec::new(),
                failures: Vec::new(),
                recovered: Vec::new(),
            };
        }
        let budget = BudgetGuard::current();
        let cap = budget.unwrap_or_else(crate::machine_parallelism);
        let workers = cap.min(len).max(1);
        let child_budget = (cap / workers).max(1);

        struct ItemOutcome<U> {
            item: usize,
            attempts: u32,
            result: Result<U, FailureCause>,
        }

        // Watchdog state: one (start-ms, item, tripped) triple per worker.
        let epoch = Instant::now();
        let starts: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
        let items: Vec<AtomicUsize> = (0..workers).map(|_| AtomicUsize::new(IDLE)).collect();
        let tripped: Vec<AtomicBool> = (0..workers).map(|_| AtomicBool::new(false)).collect();
        let done = AtomicBool::new(false);
        let next = AtomicUsize::new(0);

        let f = &f;
        let starts = &starts;
        let items = &items;
        let tripped = &tripped;
        let done = &done;
        let next = &next;

        let mut outcomes: Vec<ItemOutcome<U>> = std::thread::scope(|scope| {
            if let Some(deadline_ms) = self.retry.deadline_ms {
                let poll = Duration::from_millis((deadline_ms / 4).clamp(1, 5));
                scope.spawn(move || {
                    while !done.load(Ordering::Acquire) {
                        let now_ms = epoch.elapsed().as_millis() as u64;
                        for w in 0..workers {
                            if items[w].load(Ordering::Acquire) == IDLE {
                                continue;
                            }
                            let start = starts[w].load(Ordering::Acquire);
                            if now_ms.saturating_sub(start) > deadline_ms {
                                tripped[w].store(true, Ordering::Release);
                            }
                        }
                        std::thread::sleep(poll);
                    }
                });
            }
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || {
                        let _budget = BudgetGuard::set(Some(child_budget));
                        let mut produced: Vec<ItemOutcome<U>> = Vec::new();
                        loop {
                            let item = next.fetch_add(1, Ordering::Relaxed);
                            if item >= len {
                                break;
                            }
                            let outcome = self.supervise_item(
                                item,
                                &inputs[item],
                                f,
                                epoch,
                                &starts[w],
                                &items[w],
                                &tripped[w],
                            );
                            produced.push(ItemOutcome {
                                item,
                                attempts: outcome.1,
                                result: outcome.0,
                            });
                        }
                        produced
                    })
                })
                .collect();
            let mut outcomes = Vec::with_capacity(len);
            for handle in handles {
                // Workers catch item panics internally; a join error here
                // would mean the supervisor itself is broken.
                outcomes.extend(handle.join().expect("supervised worker must not panic"));
            }
            done.store(true, Ordering::Release);
            outcomes
        });

        outcomes.sort_by_key(|o| o.item);
        let mut results: Vec<Option<U>> = (0..len).map(|_| None).collect();
        let mut failures = Vec::new();
        let mut recovered = Vec::new();
        for outcome in outcomes {
            match outcome.result {
                Ok(value) => {
                    if outcome.attempts > 1 {
                        recovered.push(SweepRecovery {
                            item: outcome.item,
                            attempts: outcome.attempts,
                        });
                    }
                    results[outcome.item] = Some(value);
                }
                Err(cause) => failures.push(SweepFailure {
                    item: outcome.item,
                    attempts: outcome.attempts,
                    cause,
                }),
            }
        }
        SweepReport {
            results,
            failures,
            recovered,
        }
    }

    /// Runs every attempt of one item on the current worker thread,
    /// publishing progress to the watchdog slots.
    #[allow(clippy::too_many_arguments)]
    fn supervise_item<T, U, F>(
        &self,
        item: usize,
        input: &T,
        f: &F,
        epoch: Instant,
        start_slot: &AtomicU64,
        item_slot: &AtomicUsize,
        tripped: &AtomicBool,
    ) -> (Result<U, FailureCause>, u32)
    where
        F: Fn(&T) -> U,
    {
        let mut last_cause = None;
        for attempt in 0..self.retry.max_attempts {
            if attempt > 0 {
                let backoff = self.retry.backoff_ms(attempt - 1);
                if backoff > 0 {
                    std::thread::sleep(Duration::from_millis(backoff));
                }
            }
            tripped.store(false, Ordering::Release);
            start_slot.store(epoch.elapsed().as_millis() as u64, Ordering::Release);
            item_slot.store(item, Ordering::Release);
            let started = Instant::now();
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let _budget = BudgetGuard::set(BudgetGuard::current());
                self.apply_chaos(item, attempt);
                f(input)
            }));
            item_slot.store(IDLE, Ordering::Release);
            let elapsed_ms = started.elapsed().as_millis() as u64;
            match outcome {
                Ok(value) => {
                    let overran = match self.retry.deadline_ms {
                        Some(deadline_ms) => {
                            tripped.load(Ordering::Acquire) || elapsed_ms > deadline_ms
                        }
                        None => false,
                    };
                    if overran {
                        last_cause = Some(FailureCause::DeadlineExceeded {
                            elapsed_ms,
                            deadline_ms: self.retry.deadline_ms.unwrap_or(0),
                        });
                    } else {
                        return (Ok(value), attempt + 1);
                    }
                }
                Err(payload) => {
                    last_cause = Some(FailureCause::Panic {
                        payload: panic_payload_message(payload.as_ref()),
                    });
                }
            }
        }
        let cause = last_cause.expect("max_attempts >= 1 ran at least one attempt");
        (Err(cause), self.retry.max_attempts)
    }

    /// Applies any chaos scheduled for this (item, attempt): a stall
    /// sleeps, an injected panic unwinds (inside the isolation boundary).
    fn apply_chaos(&self, item: usize, attempt: u32) {
        match self.chaos.lookup(item, attempt) {
            Some(ChaosKind::Delay { millis }) => {
                std::thread::sleep(Duration::from_millis(*millis));
            }
            Some(ChaosKind::Panic) => {
                panic!("injected chaos panic on item {item} attempt {attempt}");
            }
            None => {}
        }
    }
}

/// Maps `f` over `inputs` with per-item panic isolation, retries, and an
/// optional watchdog-enforced deadline — the supervised counterpart of
/// [`parallel_map`](crate::parallel_map).
///
/// # Examples
///
/// ```
/// use dcs_sim::{parallel_map_supervised, RetryPolicy};
///
/// let report = parallel_map_supervised(
///     &[1, 2, 3, 4],
///     |&x| x * x,
///     RetryPolicy::default(),
/// );
/// assert!(report.is_complete());
/// assert_eq!(report.into_results().unwrap(), vec![1, 4, 9, 16]);
/// ```
pub fn parallel_map_supervised<T, U, F>(inputs: &[T], f: F, retry: RetryPolicy) -> SweepReport<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    Supervisor::new().with_retry(retry).map(inputs, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_faults::ChaosEvent;

    #[test]
    fn clean_map_matches_parallel_map() {
        let inputs: Vec<usize> = (0..50).collect();
        let plain = crate::parallel_map(&inputs, |&x| x * 3 + 1);
        let report = parallel_map_supervised(&inputs, |&x| x * 3 + 1, RetryPolicy::default());
        assert!(report.is_complete());
        assert!(report.recovered.is_empty());
        assert_eq!(report.into_results().unwrap(), plain);
    }

    #[test]
    fn panic_is_isolated_and_reported() {
        let inputs: Vec<usize> = (0..10).collect();
        let report = parallel_map_supervised(
            &inputs,
            |&x| {
                if x == 7 {
                    panic!("item seven is cursed");
                }
                x * 2
            },
            RetryPolicy::default(),
        );
        assert_eq!(report.failures.len(), 1);
        let failure = &report.failures[0];
        assert_eq!(failure.item, 7);
        assert_eq!(failure.attempts, 1);
        match &failure.cause {
            FailureCause::Panic { payload } => {
                assert!(payload.contains("item seven is cursed"), "{payload}");
            }
            other => panic!("expected a panic cause, got {other:?}"),
        }
        // Every other item still produced its result.
        for (i, slot) in report.results.iter().enumerate() {
            if i == 7 {
                assert!(slot.is_none());
            } else {
                assert_eq!(*slot, Some(i * 2));
            }
        }
        let err = report.into_results().expect_err("failure must surface");
        assert_eq!(err.exit_code(), 6);
        assert!(err.to_string().contains("item 7"), "{err}");
    }

    #[test]
    fn injected_chaos_recovers_with_retries() {
        let inputs: Vec<usize> = (0..20).collect();
        let chaos = ChaosSchedule::panic_on(5, 0).with(ChaosEvent {
            item: 11,
            attempt: 0,
            kind: ChaosKind::Panic,
        });
        let sup = Supervisor::new()
            .with_retry(RetryPolicy::attempts(3))
            .with_chaos(chaos);
        let report = sup.map(&inputs, |&x| x + 100);
        assert!(report.is_complete(), "failures: {:?}", report.failures);
        let recovered: Vec<usize> = report.recovered.iter().map(|r| r.item).collect();
        assert_eq!(recovered, vec![5, 11]);
        assert_eq!(
            report.into_results().unwrap(),
            (0..20).map(|x| x + 100).collect::<Vec<_>>()
        );
    }

    #[test]
    fn deadline_trips_slow_attempt_then_recovers() {
        let inputs: Vec<usize> = (0..4).collect();
        // Item 2 stalls 80 ms on its first attempt; the 25 ms deadline
        // trips it, and the clean retry succeeds.
        let sup = Supervisor::new()
            .with_retry(RetryPolicy::attempts(2).with_deadline_ms(25))
            .with_chaos(ChaosSchedule::delay_on(2, 0, 80));
        let report = sup.map(&inputs, |&x| x * 10);
        assert!(report.is_complete(), "failures: {:?}", report.failures);
        assert_eq!(report.recovered.len(), 1);
        assert_eq!(report.recovered[0].item, 2);
        assert_eq!(report.into_results().unwrap(), vec![0, 10, 20, 30]);
    }

    #[test]
    fn deadline_failure_is_typed_when_retries_run_out() {
        let sup = Supervisor::new()
            .with_retry(RetryPolicy {
                max_attempts: 1,
                deadline_ms: Some(10),
                ..RetryPolicy::default()
            })
            .with_chaos(ChaosSchedule::delay_on(0, 0, 60));
        let report = sup.map(&[1_usize], |&x| x);
        assert_eq!(report.failures.len(), 1);
        match &report.failures[0].cause {
            FailureCause::DeadlineExceeded {
                elapsed_ms,
                deadline_ms,
            } => {
                assert_eq!(*deadline_ms, 10);
                assert!(*elapsed_ms >= 60, "stall must dominate: {elapsed_ms}");
            }
            other => panic!("expected deadline cause, got {other:?}"),
        }
    }

    #[test]
    fn call_retries_and_reports_like_map() {
        let sup = Supervisor::new()
            .with_retry(RetryPolicy::attempts(2))
            .with_chaos(ChaosSchedule::panic_on(3, 0));
        assert_eq!(sup.call(3, || 42).unwrap(), 42);
        let fatal = Supervisor::new().with_chaos(ChaosSchedule::panic_on(0, 0));
        let err = fatal.call(0, || 1).expect_err("no retries left");
        assert_eq!(err.exit_code(), 6);
        assert!(err.to_string().contains("injected chaos panic"), "{err}");
    }

    #[test]
    fn zero_duration_deadline_fails_fast() {
        // A 0 ms deadline is degenerate but must not hang the watchdog
        // (its poll interval clamps to ≥ 1 ms) or spin forever: any
        // attempt that takes measurable time fails with a typed deadline
        // cause after the configured attempts, promptly.
        let started = Instant::now();
        let sup = Supervisor::new().with_retry(RetryPolicy {
            max_attempts: 2,
            initial_backoff_ms: 1,
            max_backoff_ms: 1,
            deadline_ms: Some(0),
        });
        let report = sup.map(&[1_usize, 2, 3], |&x| {
            std::thread::sleep(Duration::from_millis(5));
            x
        });
        assert_eq!(report.failures.len(), 3, "every slow item must fail");
        for failure in &report.failures {
            assert_eq!(failure.attempts, 2);
            assert!(
                matches!(
                    failure.cause,
                    FailureCause::DeadlineExceeded { deadline_ms: 0, .. }
                ),
                "expected deadline cause, got {:?}",
                failure.cause
            );
        }
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "zero deadline must fail fast, took {:?}",
            started.elapsed()
        );
        // The inline `call` path hits the same edge.
        let err = sup
            .call(0, || std::thread::sleep(Duration::from_millis(5)))
            .expect_err("zero deadline must reject a measurable attempt");
        assert!(err.to_string().contains("deadline exceeded"), "{err}");
    }

    #[test]
    fn no_backoff_sleep_after_final_retry() {
        // Backoff runs *before* each retry, never after the last failed
        // attempt: with one attempt and a huge configured backoff, a
        // failing item must return without sleeping at all.
        let policy = RetryPolicy {
            max_attempts: 1,
            initial_backoff_ms: 120_000,
            max_backoff_ms: 120_000,
            deadline_ms: None,
        };
        let sup =
            Supervisor::new()
                .with_retry(policy)
                .with_chaos(ChaosSchedule::panic_on(0, 0).with(ChaosEvent {
                    item: 0,
                    attempt: 1,
                    kind: ChaosKind::Panic,
                }));
        let started = Instant::now();
        let report = sup.map(&[1_usize], |&x| x);
        assert_eq!(report.failures.len(), 1);
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "no sleep may follow the final attempt, took {:?}",
            started.elapsed()
        );
        // Same contract on the inline path, with retries in play: two
        // attempts separated by one short backoff, and nothing after the
        // second failure.
        let retrying = Supervisor::new()
            .with_retry(RetryPolicy {
                max_attempts: 2,
                initial_backoff_ms: 10,
                max_backoff_ms: 10,
                deadline_ms: None,
            })
            .with_chaos(ChaosSchedule::panic_on(0, 0).with(ChaosEvent {
                item: 0,
                attempt: 1,
                kind: ChaosKind::Panic,
            }));
        let started = Instant::now();
        let err = retrying.call(0, || 1).expect_err("both attempts panic");
        let elapsed = started.elapsed();
        assert!(err.to_string().contains("panic"), "{err}");
        assert!(
            elapsed >= Duration::from_millis(10),
            "one backoff must separate the attempts, took {elapsed:?}"
        );
        assert!(
            elapsed < Duration::from_secs(30),
            "no second backoff may follow the final attempt, took {elapsed:?}"
        );
    }

    #[test]
    fn backoff_is_capped() {
        let policy = RetryPolicy {
            max_attempts: 10,
            initial_backoff_ms: 3,
            max_backoff_ms: 20,
            deadline_ms: None,
        };
        assert_eq!(policy.backoff_ms(0), 3);
        assert_eq!(policy.backoff_ms(1), 6);
        assert_eq!(policy.backoff_ms(2), 12);
        assert_eq!(policy.backoff_ms(3), 20);
        assert_eq!(policy.backoff_ms(9), 20);
    }
}
