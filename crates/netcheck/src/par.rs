//! Order-preserving split of an all-pairs source loop across cores.
//!
//! The CDG and the routing lints both walk every ordered `(src, dst)`
//! pair.  Each source's walks are independent, so `0..n` is cut into
//! contiguous source ranges, one `std::thread::scope` worker per range,
//! and the per-range results come back in source order.  Callers merge
//! them in that order, which keeps every count and every "first" finding
//! identical to a single sequential pass.

use std::ops::Range;

/// Worker count for the all-pairs passes: one per available core.
pub(crate) fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Run `work` over `0..n` cut into `chunks` contiguous, near-equal source
/// ranges and return the results in range order.  One chunk is a direct
/// call on the current thread.  A worker panic is re-raised with its
/// original payload.
pub(crate) fn by_source<T: Send>(
    n: usize,
    chunks: usize,
    work: impl Fn(Range<u32>) -> T + Sync,
) -> Vec<T> {
    let chunks = chunks.clamp(1, n.max(1));
    if chunks == 1 {
        return vec![work(0..n as u32)];
    }
    let bound = |i: usize| (i * n / chunks) as u32;
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = (0..chunks)
            .map(|i| scope.spawn(move || work(bound(i)..bound(i + 1))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_cover_the_sources_in_order() {
        for n in [0usize, 1, 5, 15, 16] {
            for chunks in [1usize, 2, 3, 7, 64] {
                let ranges = by_source(n, chunks, |r| r);
                let flat: Vec<u32> = ranges.into_iter().flatten().collect();
                assert_eq!(
                    flat,
                    (0..n as u32).collect::<Vec<_>>(),
                    "n={n} chunks={chunks}"
                );
            }
        }
    }

    #[test]
    fn worker_panic_keeps_its_message() {
        let caught = std::panic::catch_unwind(|| {
            by_source(8, 4, |r| {
                if r.contains(&5) {
                    panic!("source range {r:?} failed");
                }
            })
        })
        .expect_err("the worker panic must propagate");
        let msg = caught
            .downcast_ref::<String>()
            .expect("formatted panic payload");
        assert_eq!(msg, "source range 4..6 failed");
    }
}
