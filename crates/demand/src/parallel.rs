//! Scoped-thread partial sums over demand-space cells.
//!
//! The skeleton of `divrel_protection`'s
//! `ProtectionSystem::true_pfd_parallel`: split the cells into
//! contiguous ranges, sum a per-cell quantity on `std::thread::scope`
//! threads, and combine the partial sums **in range order** so the
//! result is deterministic for a fixed thread count. The profitability
//! threshold lives here with it.

/// Smallest cell count worth spawning threads for: below this, the
/// per-thread spawn/join overhead exceeds the scan itself.
pub const MIN_PARALLEL_CELLS: usize = 1 << 14;

/// Whether a `cells`-sized scan should be parallelised at all.
pub fn worth_parallelising(cells: usize, threads: usize) -> bool {
    threads > 1 && cells >= MIN_PARALLEL_CELLS
}

/// Sums `per_range` over `cells` split into at most `threads` contiguous
/// ranges, each evaluated on its own scoped thread; partial sums combine
/// in range order (deterministic per thread count, equal to the serial
/// sum up to floating-point re-association).
///
/// Callers are expected to gate on [`worth_parallelising`] and fall back
/// to their serial implementation otherwise.
pub fn chunked_sum<F>(cells: usize, threads: usize, per_range: F) -> f64
where
    F: Fn(std::ops::Range<usize>) -> f64 + Sync,
{
    let chunk = cells.div_ceil(threads.max(1));
    let mut partials = vec![0.0f64; cells.div_ceil(chunk.max(1))];
    std::thread::scope(|scope| {
        for (t, out) in partials.iter_mut().enumerate() {
            let lo = t * chunk;
            let hi = ((t + 1) * chunk).min(cells);
            let per_range = &per_range;
            scope.spawn(move || *out = per_range(lo..hi));
        }
    });
    partials.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_sum_partitions_exactly() {
        // Sum of cell indices: must equal the closed form for every
        // thread count (no cell dropped or double-counted).
        let cells = 100_000usize;
        let want = (cells * (cells - 1) / 2) as f64;
        for threads in [1, 2, 3, 7, 16] {
            let got = chunked_sum(cells, threads, |range| range.map(|c| c as f64).sum());
            assert!((got - want).abs() < 1e-3, "{threads} threads: {got}");
        }
    }

    #[test]
    fn worth_parallelising_thresholds() {
        assert!(!worth_parallelising(1 << 20, 1));
        assert!(!worth_parallelising(100, 8));
        assert!(worth_parallelising(MIN_PARALLEL_CELLS, 2));
    }
}
