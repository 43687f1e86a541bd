//! The tasks of a `par::join_map` borrow scratch from arenas that travel
//! with the task index, so a warm join never grows the heap, whichever
//! thread takes which task. The growth counter is process-wide, so this file
//! holds exactly one test.

use revbifpn_tensor::{par, scratch};

#[test]
fn warm_joins_never_grow_the_heap_whichever_thread_takes_a_task() {
    par::set_max_threads(4);
    // Each task needs a different size, nested two deep as a kernel inside a
    // stream task would borrow them.
    let sizes = [300usize, 20_000, 1_000, 5_000];
    let run = || {
        par::join_map(sizes, |n| {
            let outer = scratch::take(n);
            let inner = scratch::take(n / 2);
            outer.len() + inner.len()
        })
    };
    let want: Vec<usize> = sizes.iter().map(|n| n + n / 2).collect();
    assert_eq!(run(), want);
    let before = scratch::stats().heap_growths;
    for _ in 0..200 {
        assert_eq!(run(), want);
    }
    let grown = scratch::stats().heap_growths - before;
    par::set_max_threads(0);
    assert_eq!(grown, 0, "a warm join grew a scratch arena");
}
