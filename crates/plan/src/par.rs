//! The workspace's one scoped fan-out and its one read of the host's core
//! count. Engine operators, the split driver's parts and the forest's trees
//! all tile a slice with [`par_chunks`], and each keeps its output
//! invariant to the tiling, so the worker count changes wall time, never
//! bytes. No worker outlives the call: `std::thread::scope` joins them all.

/// Split `items` into up to `w` contiguous chunks and run `f(offset,
/// chunk)` on each — on its own scoped thread when there are several, inline
/// when there is one — returning the results in chunk order. An empty
/// slice runs `f` zero times.
pub fn par_chunks<T: Send, R: Default + Send>(
    w: usize,
    items: &mut [T],
    f: impl Fn(usize, &mut [T]) -> R + Sync,
) -> Vec<R> {
    let per = items.len().div_ceil(w.max(1)).max(1);
    let mut results = Vec::new();
    results.resize_with(items.len().div_ceil(per), R::default);
    if let [only] = results.as_mut_slice() {
        *only = f(0, items);
        return results;
    }
    std::thread::scope(|s| {
        for ((c, chunk), result) in items.chunks_mut(per).enumerate().zip(&mut results) {
            let f = &f;
            s.spawn(move || *result = f(c * per, chunk));
        }
    });
    results
}

/// The host's hardware threads (at least 1). Sizes worker pools only:
/// every caller's output is identical for every worker count.
#[expect(
    clippy::disallowed_methods,
    reason = "the count only sizes par_chunks tilings, and every caller's output is invariant to the tiling (the forest and the split driver each assert it across worker counts)"
)]
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_chunks_tile_the_slice_in_order() {
        for w in [1usize, 2, 3, 4, 7] {
            for len in [0, 1, w - 1, w, w + 1, 50] {
                let mut items = vec![0usize; len];
                let spans = par_chunks(w, &mut items, |at, chunk| {
                    for (i, item) in chunk.iter_mut().enumerate() {
                        *item = at + i;
                    }
                    (at, chunk.len())
                });
                assert!(spans.len() <= w, "w={w} len={len}");
                let mut next = 0;
                for (at, n) in spans {
                    assert_eq!(at, next, "w={w} len={len}");
                    next += n;
                }
                assert_eq!(next, len, "w={w} len={len}");
                assert_eq!(items, (0..len).collect::<Vec<_>>());
            }
        }
    }
}
