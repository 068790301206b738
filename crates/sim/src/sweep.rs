//! Parallel sweep helper.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

thread_local! {
    /// How many workers a nested [`parallel_map`] on this thread may use.
    /// `None` on threads that are not sweep workers (the top level), where
    /// the hardware parallelism applies.
    pub(crate) static WORKER_BUDGET: Cell<Option<usize>> = const { Cell::new(None) };
}

/// RAII guard for [`WORKER_BUDGET`]: sets the thread's budget on
/// construction and restores the previous value on drop — including drops
/// during unwinding, so a panic caught above the guard (by a supervisor's
/// `catch_unwind` or a scoped-thread join) cannot leave a stale nested
/// budget behind to throttle later sweeps on the same thread.
pub(crate) struct BudgetGuard {
    previous: Option<usize>,
}

impl BudgetGuard {
    /// Sets the calling thread's worker budget, remembering the old value.
    pub(crate) fn set(budget: Option<usize>) -> BudgetGuard {
        let previous = WORKER_BUDGET.with(|b| b.replace(budget));
        BudgetGuard { previous }
    }

    /// The calling thread's current budget (what a nested sweep would see).
    pub(crate) fn current() -> Option<usize> {
        WORKER_BUDGET.with(Cell::get)
    }
}

impl Drop for BudgetGuard {
    fn drop(&mut self) {
        WORKER_BUDGET.with(|b| b.set(self.previous));
    }
}

/// The machine's worker parallelism, resolved once per process.
///
/// The `DCS_THREADS` environment variable (a positive integer) overrides
/// the hardware count — the knob the thread-scaling benches and operators
/// pinning a sweep to a core budget use. The value is cached in a
/// `OnceLock` on first use: `available_parallelism` is a syscall, and the
/// sweep helper may be called once per lane block in a hot loop, so the
/// lookup must not be. Consequently, changing `DCS_THREADS` after the
/// first sweep of the process has no effect; use
/// [`with_worker_budget`] for scoped, programmatic control.
pub fn machine_parallelism() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        if let Some(n) = std::env::var("DCS_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
        {
            return n;
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Runs `f` with the calling thread's worker budget pinned to `workers`
/// (at least 1): every [`parallel_map`] reached from `f` — including the
/// batch engine's lane-block shards — spawns at most that many workers,
/// and a budget of one runs inline with no spawn at all.
///
/// This is the programmatic counterpart to the `DCS_THREADS` environment
/// override, scoped instead of process-global; the thread-scaling section
/// of the `bench` binary and the shard-invariance equivalence tests sweep
/// thread counts through it. The previous budget is restored when `f`
/// returns (or unwinds).
pub fn with_worker_budget<R>(workers: usize, f: impl FnOnce() -> R) -> R {
    let _guard = BudgetGuard::set(Some(workers.max(1)));
    f()
}

/// Renders a caught panic payload for error messages: the common `String`
/// and `&str` payloads verbatim, anything else a placeholder.
pub(crate) fn panic_payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Maps `f` over `inputs` in parallel using scoped std threads, preserving
/// input order in the output.
///
/// Used by the Oracle search, the upper-bound-table builder, and the
/// benches to parallelize independent simulation runs. The worker count is
/// the available parallelism, capped by the input length.
///
/// Work is handed out in contiguous chunks (a few per worker, for load
/// balance) and each worker accumulates results into its own private
/// buffer — no shared lock is touched while `f` runs, so cheap per-item
/// closures don't serialize on a mutex.
///
/// Nested calls — `f` itself calling `parallel_map`, as the batched table
/// builder does around per-column scans — do not oversubscribe the
/// machine: each worker thread carries a worker budget (its share of the
/// machine), nested calls spawn at most that many threads, and a budget of
/// one runs the nested map inline on the calling worker with no spawn at
/// all.
///
/// # Panics
///
/// If `f` panics on any item, re-panics with the index of the failing item
/// and the original payload rendered into the message, e.g.
/// `"sweep worker panicked on item 17: boom"`. When several workers panic
/// in the same sweep, the lowest failing item index is reported. Callers
/// that need per-item isolation instead of propagation should use
/// [`Supervisor::map`](crate::Supervisor::map).
///
/// # Examples
///
/// ```
/// use dcs_sim::parallel_map;
///
/// let squares = parallel_map(&[1, 2, 3, 4], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn parallel_map<T, U, F>(inputs: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    if inputs.is_empty() {
        return Vec::new();
    }
    let len = inputs.len();
    let budget = WORKER_BUDGET.with(Cell::get);
    let cap = budget.unwrap_or_else(machine_parallelism);
    if budget.is_some() && cap <= 1 {
        // A nested sweep with no spare workers: run on the calling worker.
        return inputs.iter().map(&f).collect();
    }
    let workers = cap.min(len);
    // Workers of a nested sweep split the caller's budget; top-level
    // workers split the machine.
    let child_budget = (cap / workers).max(1);
    // A few chunks per worker balances uneven item costs without paying
    // one atomic fetch per item.
    let chunk_count = (workers * 4).min(len);
    let chunk_len = len.div_ceil(chunk_count);
    let next_chunk = AtomicUsize::new(0);
    let mut slots: Vec<Option<U>> = (0..len).map(|_| None).collect();
    // Each worker publishes the item it is currently evaluating so a panic
    // can be attributed to a concrete input index (usize::MAX = idle).
    let progress: Vec<AtomicUsize> = (0..workers).map(|_| AtomicUsize::new(usize::MAX)).collect();
    let f = &f;
    let next_chunk = &next_chunk;
    let finished: Vec<(usize, Vec<U>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = progress
            .iter()
            .map(|current| {
                scope.spawn(move || {
                    let _budget = BudgetGuard::set(Some(child_budget));
                    let mut produced: Vec<(usize, Vec<U>)> = Vec::new();
                    loop {
                        let chunk = next_chunk.fetch_add(1, Ordering::Relaxed);
                        let start = chunk * chunk_len;
                        if start >= len {
                            break;
                        }
                        let end = (start + chunk_len).min(len);
                        let values: Vec<U> = inputs[start..end]
                            .iter()
                            .enumerate()
                            .map(|(offset, input)| {
                                current.store(start + offset, Ordering::Relaxed);
                                f(input)
                            })
                            .collect();
                        produced.push((start, values));
                    }
                    current.store(usize::MAX, Ordering::Relaxed);
                    produced
                })
            })
            .collect();
        let mut finished = Vec::with_capacity(chunk_count);
        let mut first_failure: Option<(usize, String)> = None;
        for (worker, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(produced) => finished.extend(produced),
                Err(payload) => {
                    let item = progress[worker].load(Ordering::Relaxed);
                    let message = panic_payload_message(payload.as_ref());
                    if first_failure.as_ref().is_none_or(|(i, _)| item < *i) {
                        first_failure = Some((item, message));
                    }
                }
            }
        }
        if let Some((item, message)) = first_failure {
            panic!("sweep worker panicked on item {item}: {message}");
        }
        finished
    });
    for (start, values) in finished {
        for (offset, value) in values.into_iter().enumerate() {
            slots[start + offset] = Some(value);
        }
    }
    slots
        .into_iter()
        .map(|v| v.expect("every input is processed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let inputs: Vec<usize> = (0..100).collect();
        let doubled = parallel_map(&inputs, |&x| x * 2);
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = parallel_map(&[] as &[i32], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_input() {
        assert_eq!(parallel_map(&[7], |&x| x + 1), vec![8]);
    }

    #[test]
    fn worker_panic_propagates() {
        // A panic in one item must surface with the failing item's index
        // and the original payload, not a blanket abort message.
        let inputs: Vec<usize> = (0..32).collect();
        let result = std::panic::catch_unwind(|| {
            parallel_map(&inputs, |&x| -> usize {
                if x == 17 {
                    panic!("boom at {x}");
                }
                x
            });
        });
        let err = result.expect_err("panic must propagate");
        let msg = panic_payload_message(err.as_ref());
        assert!(
            msg.contains("sweep worker panicked on item 17"),
            "index must survive, got: {msg}"
        );
        assert!(
            msg.contains("boom at 17"),
            "payload must survive, got: {msg}"
        );
    }

    #[test]
    fn panic_reports_lowest_failing_item() {
        // With several failing items the reported index is deterministic:
        // the lowest one, regardless of which worker dies first.
        let inputs: Vec<usize> = (0..16).collect();
        let result = std::panic::catch_unwind(|| {
            parallel_map(&inputs, |&x| -> usize {
                if x >= 5 {
                    panic!("bad item");
                }
                x
            });
        });
        let msg = panic_payload_message(result.expect_err("must panic").as_ref());
        assert!(
            msg.contains("on item 5:"),
            "expected the first failing item, got: {msg}"
        );
    }

    #[test]
    fn budget_guard_restores_on_panic() {
        // A caught panic must not leave a stale budget on the thread: the
        // guard's Drop runs during unwinding and restores the old value.
        WORKER_BUDGET.with(|b| b.set(None));
        let result = std::panic::catch_unwind(|| {
            let _guard = BudgetGuard::set(Some(2));
            assert_eq!(BudgetGuard::current(), Some(2));
            panic!("inner sweep died");
        });
        assert!(result.is_err());
        assert_eq!(
            BudgetGuard::current(),
            None,
            "caught panic poisoned the thread's worker budget"
        );
    }

    #[test]
    fn nested_panic_does_not_poison_later_sweeps() {
        // A sweep whose closure panics mid-item must not throttle the
        // *next* sweep issued from the same (calling) thread.
        let inputs: Vec<usize> = (0..8).collect();
        let _ = std::panic::catch_unwind(|| {
            parallel_map(&inputs, |&x| -> usize {
                if x == 3 {
                    panic!("die");
                }
                x
            });
        });
        assert_eq!(
            BudgetGuard::current(),
            None,
            "top-level thread budget must stay unset after a caught panic"
        );
        let out = parallel_map(&inputs, |&x| x * 2);
        assert_eq!(out, (0..8).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn uneven_chunks_cover_all_inputs() {
        // Lengths around chunk boundaries: primes, one-short, one-over.
        for len in [1usize, 2, 3, 5, 7, 8, 9, 13, 31, 32, 33, 97] {
            let inputs: Vec<usize> = (0..len).collect();
            let out = parallel_map(&inputs, |&x| x + 1);
            assert_eq!(out, (1..=len).collect::<Vec<_>>(), "len {len}");
        }
    }

    #[test]
    fn nested_sweeps_produce_correct_output() {
        let outer: Vec<usize> = (0..8).collect();
        let out = parallel_map(&outer, |&x| {
            let inner: Vec<usize> = (0..8).collect();
            parallel_map(&inner, move |&y| x * 10 + y)
        });
        for (x, row) in out.iter().enumerate() {
            assert_eq!(
                *row,
                (0..8).map(|y| x * 10 + y).collect::<Vec<_>>(),
                "row {x}"
            );
        }
    }

    #[test]
    fn machine_parallelism_is_positive_and_stable() {
        let first = machine_parallelism();
        assert!(first >= 1);
        // OnceLock semantics: repeated calls return the cached value.
        assert_eq!(machine_parallelism(), first);
    }

    #[test]
    fn with_worker_budget_pins_and_restores() {
        let before = BudgetGuard::current();
        let (inside, here) = with_worker_budget(1, || {
            let here = std::thread::current().id();
            let ids = parallel_map(&[1, 2], |_| std::thread::current().id());
            (ids, here)
        });
        assert!(
            inside.iter().all(|&id| id == here),
            "budget of one must run inline"
        );
        assert_eq!(BudgetGuard::current(), before, "budget must be restored");
    }

    #[test]
    fn exhausted_budget_runs_inline() {
        // A worker whose budget is down to one thread must not spawn: its
        // nested sweeps run on the worker itself.
        let _guard = BudgetGuard::set(Some(1));
        let here = std::thread::current().id();
        let out = parallel_map(&[1, 2, 3], |&x| (x, std::thread::current().id()));
        assert_eq!(
            out.iter().map(|&(x, _)| x).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert!(
            out.iter().all(|&(_, id)| id == here),
            "budget of one must run inline"
        );
    }

    #[test]
    fn workers_inherit_a_budget_share() {
        // Every spawned worker sees Some(share) with the shares covering
        // the parent cap at minimum one each.
        let budgets = parallel_map(&[1, 2, 3, 4], |_| WORKER_BUDGET.with(Cell::get));
        for b in budgets {
            let share = b.expect("workers must carry a budget");
            assert!(share >= 1);
        }
    }
}
