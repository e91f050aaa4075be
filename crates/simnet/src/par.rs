//! A tiny deterministic fork-join helper for embarrassingly parallel
//! sweeps.
//!
//! Every grid point of a parameter sweep is an independent, fully
//! deterministic DES run, so the only thing a parallel sweep must
//! guarantee is *stable output ordering*: [`parallel_map`] returns
//! results in input order no matter how the work was scheduled, which is
//! what keeps the `repro` golden snapshot byte-identical between the
//! serial and parallel paths.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default sweep worker count: the machine's available parallelism
/// (1 if unknown).
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Maps `f` over `items` on up to `workers` threads, returning results
/// in input order.
///
/// Work is claimed through an atomic cursor (cheap work stealing, so a
/// slow grid point never idles the other workers), and each result lands
/// in its input slot — scheduling cannot reorder the output. `workers`
/// is clamped to `1..=items.len()`; one worker degenerates to a plain
/// serial map with no threads spawned.
///
/// # Panics
///
/// Propagates a panicking `f` (the scope join rethrows it).
#[expect(
    clippy::expect_used,
    reason = "every claimed slot is filled by the join"
)]
pub fn parallel_map<I, T, F>(items: &[I], workers: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    let workers = workers.clamp(1, items.len().max(1));
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = f(item);
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every slot is filled once the scope joins")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_input_order() {
        let items: Vec<u64> = (0..100).collect();
        for workers in [1, 2, 4, 7] {
            let out = parallel_map(&items, workers, |&x| x * x);
            let expected: Vec<u64> = items.iter().map(|&x| x * x).collect();
            assert_eq!(out, expected, "{workers} workers");
        }
    }

    #[test]
    fn empty_and_tiny_inputs_are_fine() {
        let none: Vec<u32> = Vec::new();
        assert!(parallel_map(&none, 8, |&x| x).is_empty());
        assert_eq!(parallel_map(&[41u32], 8, |&x| x + 1), vec![42]);
    }

    #[test]
    fn worker_count_exceeding_items_is_clamped() {
        let items: Vec<usize> = (0..3).collect();
        assert_eq!(parallel_map(&items, 64, |&x| x), items);
    }

    #[test]
    fn two_workers_run_two_items_at_once() {
        // Item 0 waits for item 1's message, so only a pool that really
        // runs both at once answers `true`; a map collapsed to serial
        // runs item 0 alone, times out, and fails here instead of hanging.
        let (tx, rx) = std::sync::mpsc::channel();
        let rx = Mutex::new(rx);
        let met = parallel_map(&[0, 1], 2, |&i| {
            if i == 1 {
                tx.send(()).unwrap();
                return true;
            }
            let rx = rx.lock().unwrap();
            rx.recv_timeout(std::time::Duration::from_secs(10)).is_ok()
        });
        assert_eq!(
            met,
            [true, true],
            "parallel_map with 2 workers ran its items one at a time"
        );
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }
}
