//! Column-parallel map for the per-column stages of a segment build (fit,
//! encode, decode, codec selection).
//!
//! Every column of those stages is independent of the others, so a large
//! input fans its columns out over scoped worker threads. Results are
//! assembled in column order, so the output is identical to a serial map;
//! only wall time changes. Small inputs — a plain ingest batch of a few
//! hundred rows — stay on the calling thread, where a thread spawn would cost
//! more than the work.

use std::sync::OnceLock;

/// Rows at or above which a per-column stage runs column-parallel. A seal
/// slice (50 000 rows by default), a registration and a refit rebuild cross
/// it; ingest batches and tiny tables do not.
pub const PARALLEL_MIN_ROWS: usize = 16_384;

/// Hardware threads, read once: `available_parallelism` consults cgroup files
/// on Linux, which is too slow to repeat per stage.
fn hardware_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// Maps `f` over `items` (one per column of a `rows`-row table), returning
/// the results in input order. With `rows >= PARALLEL_MIN_ROWS`, at least two
/// items and more than one hardware thread, the items are split into
/// `min(threads, items)` contiguous chunks, each mapped on its own scoped
/// thread; otherwise the map runs serially on the caller.
pub fn map_columns<I, T, F>(rows: usize, items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let workers = hardware_threads().min(items.len());
    if rows < PARALLEL_MIN_ROWS || workers < 2 {
        return items.into_iter().map(f).collect();
    }
    let per_chunk = items.len().div_ceil(workers);
    let mut items = items.into_iter();
    let chunks: Vec<Vec<I>> =
        (0..workers).map(|_| items.by_ref().take(per_chunk).collect()).collect();
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| scope.spawn(move || chunk.into_iter().map(f).collect::<Vec<T>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_and_serial_maps_agree_in_order() {
        let items: Vec<u64> = (0..37).collect();
        let square = |x: u64| x * x;
        let serial = map_columns(1, items.clone(), square);
        let parallel = map_columns(PARALLEL_MIN_ROWS, items.clone(), square);
        assert_eq!(serial, parallel);
        assert_eq!(serial, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs_map() {
        assert!(map_columns(PARALLEL_MIN_ROWS, Vec::<u8>::new(), |x| x).is_empty());
        assert_eq!(map_columns(PARALLEL_MIN_ROWS, vec![7u8], |x| x + 1), vec![8]);
    }
}
