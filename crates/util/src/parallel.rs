//! Order-preserving parallel map on scoped threads.

/// Maps every item through `f(i, item)` on up to `threads` scoped threads
/// and returns the results in input order.
///
/// The items are split into contiguous chunks, one per thread, and each
/// thread's results are joined back in chunk order, so result `i` is always
/// `f(i, item_i)` — bit-for-bit independent of the thread count and
/// schedule, provided `f` itself only depends on `(i, item)` (e.g. seeds
/// every RNG from `i`). Items are taken by value: pass `&vec` to map
/// borrowed jobs, or a `Vec` to move owned state (a shard's scheduler, say)
/// into the thread that runs it.
///
/// `threads: None` uses the machine's available parallelism; `Some(t)` pins
/// the thread count. One thread, a single item, or no items degrade to a
/// plain serial map on the caller's thread.
///
/// # Panics
///
/// Re-raises the panic of any `f` call.
pub fn parallel_map<I, R, F>(items: I, threads: Option<usize>, f: F) -> Vec<R>
where
    I: IntoIterator,
    I::Item: Send,
    R: Send,
    F: Fn(usize, I::Item) -> R + Sync,
{
    let items: Vec<I::Item> = items.into_iter().collect();
    let n = items.len();
    let threads = threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|t| t.get())
                .unwrap_or(1)
        })
        .clamp(1, n.max(1));
    if threads <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let chunk_len = n.div_ceil(threads);
    let f = &f;
    let mut items = items.into_iter();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n.div_ceil(chunk_len))
            .map(|c| {
                let chunk: Vec<I::Item> = items.by_ref().take(chunk_len).collect();
                scope.spawn(move || {
                    chunk
                        .into_iter()
                        .enumerate()
                        .map(|(off, item)| f(c * chunk_len + off, item))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_is_in_input_order_at_every_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [None, Some(0), Some(1), Some(2), Some(5), Some(64)] {
            let got = parallel_map(&items, threads, |i, &x| {
                assert_eq!(i as u64, x, "index matches position");
                x * x + 1
            });
            assert_eq!(got, serial, "threads = {threads:?}");
        }
    }

    #[test]
    fn owned_items_move_into_their_thread() {
        let owned: Vec<Vec<u32>> = (0..5).map(|i| vec![i; i as usize]).collect();
        let lens = parallel_map(owned, Some(3), |_, v| v.len());
        assert_eq!(lens, vec![0, 1, 2, 3, 4]);
        assert!(parallel_map(Vec::<u8>::new(), Some(4), |_, x| x).is_empty());
    }

    #[test]
    #[should_panic(expected = "boom at 3")]
    fn worker_panics_propagate() {
        parallel_map(0..8, Some(2), |i, _| {
            if i == 3 {
                panic!("boom at 3");
            }
        });
    }
}
