//! Exact allocation proxy for the request path: after one warm-up, the
//! server's `LineHandler::handle` answers a `predict` and a
//! `batch_predict` line with zero heap allocations on the f64 path.
//! Parsing writes the features into the worker's scratch, the engine
//! runs on the worker's arena, and the reply is written into the
//! caller's reused buffer.
//!
//! Allocations are counted per thread, so other tests running in this
//! binary cannot disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use ams_serve::net::{LineHandler, Reply};
use ams_serve::{Registry, Server, ServerConfig};

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
fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

fn row(x: &ams_tensor::Matrix, i: usize) -> String {
    let parts: Vec<String> = x.row(i).iter().map(|v| format!("{v}")).collect();
    format!("[{}]", parts.join(","))
}

#[test]
fn warm_predict_and_batch_predict_allocate_nothing() {
    let bundle = ams_serve::demo::train_demo(5);
    let x = bundle.artifact.reference_features.clone();
    let registry = Arc::new(Registry::new());
    registry.publish(bundle.artifact).unwrap();
    let server = Server::start(
        ServerConfig { addr: "127.0.0.1:0".into(), workers: 1, ..Default::default() },
        registry,
    )
    .unwrap();
    let handler = server.handler();

    let predict = format!(r#"{{"type":"predict","company":3,"features":{}}}"#, row(&x, 3));
    let rows: Vec<String> = (0..x.rows()).map(|i| row(&x, i)).collect();
    let batch = format!(r#"{{"type":"batch_predict","features":[{}]}}"#, rows.join(","));
    // The same request with raw (unstandardized) features exercises the
    // standardizer on both paths.
    let predict_raw = predict.replace('}', r#","raw":true}"#);
    let batch_raw = batch.replacen("\"batch_predict\"", "\"batch_predict\",\"raw\":true", 1);

    let mut scratch = Default::default();
    let mut out = String::new();
    for line in [&predict, &batch, &predict_raw, &batch_raw] {
        // Warm-up: grows the scratch buffers, the arena and `out`.
        out.clear();
        assert_eq!(handler.handle(&mut scratch, line, &mut out), Reply::Line);
        assert!(out.starts_with("{\"ok\":true,\"model\""), "{out}");
        let warm = out.clone();
        let (reply, allocs) = allocs_during(|| {
            out.clear();
            handler.handle(&mut scratch, line, &mut out)
        });
        assert_eq!(reply, Reply::Line);
        assert_eq!(out, warm, "a warm reply is the same bytes");
        assert_eq!(allocs, 0, "warm {} made {allocs} heap allocations", &line[..30]);
    }
    server.shutdown();
}
