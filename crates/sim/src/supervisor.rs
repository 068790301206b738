//! Supervised parallel execution: panic isolation, retries, deadlines.
//!
//! [`parallel_map`](crate::parallel_map) propagates a panicking item as a
//! panic of the whole sweep (naming the item). The [`Supervisor`] runs on
//! the same scheduler but wraps every work item in `catch_unwind`: a
//! failed attempt is retried under a [`RetryPolicy`] with capped
//! exponential backoff, an optional per-item deadline is checked after
//! each attempt, and the caller gets a [`SweepReport`] naming every item
//! that ultimately failed (with its panic payload) instead of an abort.
//! The Oracle search and the table builder run every evaluation under a
//! supervisor; their plain forms pass [`Supervisor::new`].
//!
//! Determinism: a perturbed attempt's output is discarded before retrying,
//! and the work closures in this crate are pure functions of their input,
//! so a supervised sweep that recovers from chaos returns results
//! bit-identical to a clean run. The chaos suite asserts this.

use std::panic::AssertUnwindSafe;
use std::time::{Duration, Instant};

use dcs_faults::{ChaosKind, ChaosSchedule};

use crate::error::SimError;
use crate::sweep::{panic_payload_message, BudgetGuard};

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
    /// remain). The check runs after the attempt returns: a running
    /// attempt is never pre-empted. `None` disables the check.
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
    /// thread.
    pub fn call<U>(&self, item: usize, f: impl Fn() -> U) -> Result<U, SimError> {
        let (result, attempts) = self.supervise(item, f);
        result.map_err(|cause| SimError::Sweep {
            item,
            attempts,
            message: cause.to_string(),
        })
    }

    /// Maps `f` over `inputs` through [`parallel_map`](crate::parallel_map)
    /// with per-item supervision: panic isolation and retries with capped
    /// backoff. Scheduling, worker budgets and inline runs under a budget
    /// of one are exactly `parallel_map`'s.
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
        let items: Vec<usize> = (0..inputs.len()).collect();
        // Every item catches its own panics, so parallel_map never sees one.
        let outcomes =
            crate::parallel_map(&items, |&item| self.supervise(item, || f(&inputs[item])));
        let mut report = SweepReport {
            results: Vec::with_capacity(outcomes.len()),
            failures: Vec::new(),
            recovered: Vec::new(),
        };
        for (item, (result, attempts)) in outcomes.into_iter().enumerate() {
            match result {
                Ok(value) => {
                    if attempts > 1 {
                        report.recovered.push(SweepRecovery { item, attempts });
                    }
                    report.results.push(Some(value));
                }
                Err(cause) => {
                    report.failures.push(SweepFailure {
                        item,
                        attempts,
                        cause,
                    });
                    report.results.push(None);
                }
            }
        }
        report
    }

    /// The retry loop: runs attempts of one item until one succeeds inside
    /// the deadline or the attempts run out, returning the outcome and the
    /// number of attempts made. The deadline is checked after each attempt
    /// — an overrunning attempt's result is discarded and retried.
    fn supervise<U>(&self, item: usize, f: impl Fn() -> U) -> (Result<U, FailureCause>, u32) {
        let mut attempt = 0;
        loop {
            let started = Instant::now();
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let _budget = BudgetGuard::set(BudgetGuard::current());
                self.apply_chaos(item, attempt);
                f()
            }));
            let elapsed_ms = started.elapsed().as_millis() as u64;
            let cause = match outcome {
                Ok(value) => match self.retry.deadline_ms {
                    Some(deadline_ms) if elapsed_ms > deadline_ms => {
                        FailureCause::DeadlineExceeded {
                            elapsed_ms,
                            deadline_ms,
                        }
                    }
                    _ => return (Ok(value), attempt + 1),
                },
                Err(payload) => FailureCause::Panic {
                    payload: panic_payload_message(payload.as_ref()),
                },
            };
            attempt += 1;
            if attempt >= self.retry.max_attempts {
                return (Err(cause), attempt);
            }
            let backoff = self.retry.backoff_ms(attempt - 1);
            if backoff > 0 {
                std::thread::sleep(Duration::from_millis(backoff));
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_faults::ChaosEvent;

    #[test]
    fn clean_map_matches_parallel_map() {
        let inputs: Vec<usize> = (0..50).collect();
        let plain = crate::parallel_map(&inputs, |&x| x * 3 + 1);
        let report = Supervisor::new().map(&inputs, |&x| x * 3 + 1);
        assert!(report.is_complete());
        assert!(report.recovered.is_empty());
        assert_eq!(report.into_results().unwrap(), plain);
    }

    #[test]
    fn map_under_a_budget_of_one_runs_inline() {
        // As with parallel_map, a budget of one spawns no thread: every
        // item runs on the caller, so its CPU time is the caller's.
        let here = std::thread::current().id();
        let report = crate::with_worker_budget(1, || {
            Supervisor::new().map(&[1, 2, 3], |_| std::thread::current().id())
        });
        let ids = report.into_results().unwrap();
        assert!(ids.iter().all(|&id| id == here), "an item left the caller");
    }

    #[test]
    fn panic_is_isolated_and_reported() {
        let inputs: Vec<usize> = (0..10).collect();
        let report = Supervisor::new().map(&inputs, |&x| {
            if x == 7 {
                panic!("item seven is cursed");
            }
            x * 2
        });
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
        // A 0 ms deadline is degenerate but must not spin forever: any
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
