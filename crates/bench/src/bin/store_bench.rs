//! Feature-store benchmark: CSV vs `ams-store` at scale.
//!
//! For universes of 10k and 100k companies (streamed — neither the
//! panel nor the CSV text ever exists whole in memory during writing):
//!
//! 1. **Full scan** — parse the entire CSV back into a panel
//!    (`read_csv`) vs draining a [`StoreReader`] batch by batch.
//! 2. **Point lookup** — open the store and fetch one company's
//!    history via the block directory, timed against the only CSV
//!    equivalent (a full scan: CSV has no index).
//! 3. **Size** — on-disk bytes of the CSV vs the columnar store, and
//!    the compression ratio.
//!
//! Writes `results/BENCH_store.json` (override the directory with
//! `AMS_RESULTS_DIR`). Build with `--release`; parse-bound timings are
//! meaningless in debug.

use ams_bench::exp::{write_bench, DATA_SEED};
use ams_data::io::{read_csv, write_csv_source};
use ams_data::{PanelSource, SynthConfig, SynthStream};
use ams_store::{write_source, StoreReader};
use std::path::PathBuf;
use std::time::Instant;

const SIZES: [usize; 2] = [10_000, 100_000];
const BLOCK_SIZE: usize = 64;
const LOOKUPS: usize = 50;

struct SizeReport {
    n_companies: usize,
    csv_bytes: u64,
    store_bytes: u64,
    csv_scan_ms: f64,
    store_scan_ms: f64,
    open_ms: f64,
    lookup_us: f64,
    lookup_bytes: u64,
}

fn temp_path(tag: &str, n: usize) -> PathBuf {
    std::env::temp_dir().join(format!("ams-store-bench-{tag}-{n}-{}.tmp", std::process::id()))
}

fn bench_size(n_companies: usize) -> SizeReport {
    let cfg = SynthConfig { n_companies, ..SynthConfig::tiny(DATA_SEED) };
    let csv_path = temp_path("csv", n_companies);
    let store_path = temp_path("store", n_companies);

    eprintln!("[{n_companies}] streaming universe to CSV and store ...");
    let t = Instant::now();
    write_csv_source(&mut SynthStream::new(&cfg).as_source(), &csv_path).expect("write csv");
    eprintln!("[{n_companies}] csv written in {:.1}s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let summary = write_source(&store_path, &mut SynthStream::new(&cfg).as_source(), BLOCK_SIZE)
        .expect("write store");
    eprintln!("[{n_companies}] store written in {:.1}s", t.elapsed().as_secs_f64());
    assert_eq!(summary.n_companies, n_companies as u64);

    let csv_bytes = std::fs::metadata(&csv_path).expect("csv meta").len();
    let store_bytes = std::fs::metadata(&store_path).expect("store meta").len();

    // Full scan: CSV parse vs store drain. Both yield every
    // observation of every company.
    let t = Instant::now();
    let panel = read_csv(&csv_path).expect("read csv");
    let csv_scan_ms = t.elapsed().as_secs_f64() * 1e3;
    eprintln!("[{n_companies}] csv scanned in {csv_scan_ms:.0}ms");
    assert_eq!(panel.num_companies(), n_companies);
    drop(panel);

    let t = Instant::now();
    let mut reader = StoreReader::open(&store_path).expect("open store");
    let mut seen = 0usize;
    loop {
        let batch = reader.next_batch(256).expect("batch");
        if batch.is_empty() {
            break;
        }
        seen += batch.len();
    }
    let store_scan_ms = t.elapsed().as_secs_f64() * 1e3;
    eprintln!("[{n_companies}] store scanned in {store_scan_ms:.0}ms");
    assert_eq!(seen, n_companies);
    drop(reader);

    // Point lookup: one open (skeleton load — reported separately),
    // then single-company fetches at ids spread across the block
    // directory, each reading only that company's block.
    let t = Instant::now();
    let mut reader = StoreReader::open(&store_path).expect("open store");
    let open_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let mut lookup_bytes = 0u64;
    for i in 0..LOOKUPS {
        let id = i * (n_companies / LOOKUPS) + LOOKUPS / 2;
        let before = reader.bytes_read();
        let h = reader.company_history(id as u64).expect("lookup");
        assert_eq!(h.company.id, id);
        lookup_bytes += reader.bytes_read() - before;
    }
    let lookup_us = t.elapsed().as_secs_f64() * 1e6 / LOOKUPS as f64;
    let lookup_bytes = lookup_bytes / LOOKUPS as u64;

    std::fs::remove_file(&csv_path).ok();
    std::fs::remove_file(&store_path).ok();
    SizeReport {
        n_companies,
        csv_bytes,
        store_bytes,
        csv_scan_ms,
        store_scan_ms,
        open_ms,
        lookup_us,
        lookup_bytes,
    }
}

fn main() {
    let reports: Vec<SizeReport> = SIZES.iter().map(|&n| bench_size(n)).collect();

    let mut entries = Vec::new();
    for r in &reports {
        let size_ratio = r.csv_bytes as f64 / r.store_bytes as f64;
        let scan_speedup = r.csv_scan_ms / r.store_scan_ms;
        let lookup_speedup = r.csv_scan_ms * 1e3 / r.lookup_us;
        println!(
            "n={}: csv {:.1} MiB vs store {:.1} MiB ({size_ratio:.2}x smaller) · \
             scan csv {:.0} ms vs store {:.0} ms ({scan_speedup:.1}x) · \
             open {:.1} ms, lookup {:.0} us reading {} bytes \
             ({lookup_speedup:.0}x vs csv scan)",
            r.n_companies,
            r.csv_bytes as f64 / (1024.0 * 1024.0),
            r.store_bytes as f64 / (1024.0 * 1024.0),
            r.csv_scan_ms,
            r.store_scan_ms,
            r.open_ms,
            r.lookup_us,
            r.lookup_bytes,
        );
        entries.push(format!(
            "    {{\"n_companies\": {}, \"block_size\": {BLOCK_SIZE}, \
             \"csv_bytes\": {}, \"store_bytes\": {}, \"size_ratio\": {size_ratio:.3}, \
             \"csv_scan_ms\": {:.2}, \"store_scan_ms\": {:.2}, \
             \"scan_speedup\": {scan_speedup:.2}, \"open_ms\": {:.2}, \
             \"point_lookup_us\": {:.2}, \
             \"point_lookup_bytes\": {}, \"lookup_speedup_vs_csv_scan\": {lookup_speedup:.1}}}",
            r.n_companies,
            r.csv_bytes,
            r.store_bytes,
            r.csv_scan_ms,
            r.store_scan_ms,
            r.open_ms,
            r.lookup_us,
            r.lookup_bytes,
        ));
    }

    // Acceptance: at the largest size, an indexed point lookup must
    // beat the only CSV alternative (a full scan) by >= 100x.
    let last = reports.last().expect("at least one size");
    let lookup_speedup = last.csv_scan_ms * 1e3 / last.lookup_us;
    assert!(
        lookup_speedup >= 100.0,
        "point lookup must be >= 100x faster than a CSV scan at {} companies (got {lookup_speedup:.0}x)",
        last.n_companies,
    );

    let json = format!(
        "{{\n  \"seed\": {DATA_SEED}, \"lookups_averaged\": {LOOKUPS},\n  \"sizes\": [\n{}\n  ]\n}}\n",
        entries.join(",\n"),
    );
    write_bench("BENCH_store.json", &json);
}
