//! Exact allocation proxy for the training loop: heap allocations per
//! warm epoch of `AmsModel::fit` at the fold-0 shape (4 training
//! quarters × 71 companies × 48 features, 40 slave columns, default
//! widths and dropout). Two fits that differ only in their epoch budget
//! pay the same one-off costs (phase 1, the first epoch's warm-up of
//! the tape's arena, Adam's moments), so the difference between fits of
//! `N` and `2N` epochs, divided by `N`, is the cost of one warm epoch.
//!
//! Allocations are counted per thread, so other tests running in this
//! binary cannot disturb the count; the default backend runs the fit on
//! the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ams_core::{AmsConfig, AmsModel, QuarterBatch};
use ams_graph::CompanyGraph;
use ams_tensor::init::xavier_uniform;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap allocations (fresh or grown) made by this thread inside `f`.
fn allocs_during(f: impl FnOnce()) -> usize {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Heap allocations of one `epochs`-epoch fit at the fold-0 shape.
fn fit_allocs(epochs: usize) -> usize {
    let n = 71;
    let mut rng = StdRng::seed_from_u64(5);
    let train: Vec<QuarterBatch> = (0..4)
        .map(|_| QuarterBatch {
            x: xavier_uniform(n, 48, &mut rng),
            y: xavier_uniform(n, 1, &mut rng),
        })
        .collect();
    let graph = CompanyGraph::complete(n);
    let config = AmsConfig { epochs, slave_cols: Some((0..40).collect()), ..Default::default() };
    let mut model = AmsModel::new(config);
    allocs_during(|| model.fit(&graph, &train))
}

/// Epochs in the shorter fit.
const N: usize = 4;

#[test]
fn warm_epoch_allocations_at_the_fold_0_shape() {
    let (short, long, longer) = (fit_allocs(N), fit_allocs(2 * N), fit_allocs(3 * N));
    assert_eq!(long - short, longer - long, "warm epochs allocate a varying amount");
    let per_epoch = (long - short) / N;
    assert_eq!(per_epoch * N, long - short, "{} allocations over {N} epochs", long - short);
    assert_eq!(per_epoch, 632, "heap allocations per warm epoch");
}
