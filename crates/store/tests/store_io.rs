//! End-to-end store tests: bit-exact round trips, byte-counted random
//! access, and corruption containment — the acceptance criteria of the
//! feature-store subsystem.

use std::fs;
use std::path::PathBuf;

use ams_data::{generate, materialize, PanelSource, SynthConfig, SynthStream};
use ams_store::{write_panel, write_source, StoreError, StoreReader};

fn temp_store(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ams-store-{tag}-{}.store", std::process::id()))
}

fn assert_obs_bits_eq(a: &ams_data::Observation, b: &ams_data::Observation, ctx: &str) {
    assert_eq!(a.revenue.to_bits(), b.revenue.to_bits(), "revenue {ctx}");
    assert_eq!(a.consensus.to_bits(), b.consensus.to_bits(), "consensus {ctx}");
    assert_eq!(a.low_est.to_bits(), b.low_est.to_bits(), "low {ctx}");
    assert_eq!(a.high_est.to_bits(), b.high_est.to_bits(), "high {ctx}");
    assert_eq!(a.alt.len(), b.alt.len(), "alt width {ctx}");
    for (x, y) in a.alt.iter().zip(&b.alt) {
        assert_eq!(x.to_bits(), y.to_bits(), "alt {ctx}");
    }
}

#[test]
fn paper_panels_round_trip_bit_exact() {
    for (name, cfg) in
        [("tx", SynthConfig::transaction_paper(41)), ("mq", SynthConfig::map_query_paper(41))]
    {
        let panel = generate(&cfg).panel;
        let path = temp_store(&format!("roundtrip-{name}"));
        write_panel(&path, &panel, 16).expect("write");
        let mut reader = StoreReader::open(&path).expect("open");
        let back = reader.read_panel().expect("read");
        assert_eq!(back.quarters, panel.quarters);
        assert_eq!(back.alt_names, panel.alt_names);
        assert_eq!(back.num_companies(), panel.num_companies());
        for c in 0..panel.num_companies() {
            let (x, y) = (&back.companies[c], &panel.companies[c]);
            assert_eq!(x.id, y.id);
            assert_eq!(x.name, y.name);
            assert_eq!(x.sector, y.sector);
            assert_eq!(x.market_cap.to_bits(), y.market_cap.to_bits());
            assert_eq!(x.fiscal_offset, y.fiscal_offset);
            for t in 0..panel.num_quarters() {
                assert_obs_bits_eq(back.get(c, t), panel.get(c, t), &format!("c{c} t{t}"));
            }
        }
        fs::remove_file(&path).ok();
    }
}

#[test]
fn point_lookup_reads_only_that_companys_block() {
    let cfg = SynthConfig { n_companies: 200, ..SynthConfig::tiny(42) };
    let path = temp_store("pointlookup");
    let summary = write_source(&path, &mut SynthStream::new(&cfg).as_source(), 16).expect("write");
    assert_eq!(summary.n_companies, 200);
    assert_eq!(summary.n_blocks, 13); // 12 × 16 + 1 × 8

    let file_len = fs::metadata(&path).expect("metadata").len();
    let mut reader = StoreReader::open(&path).expect("open");
    let open_bytes = reader.bytes_read();
    assert_eq!(open_bytes, reader.data_start(), "open reads header + skeleton only");

    // Look up a company in the middle of the file.
    let id = 100u64;
    let block = reader.block_for_company(id).expect("block");
    let block_bytes = reader.skeleton().blocks[block].encoded_len();
    let h = reader.company_history(id).expect("history");
    assert_eq!(h.company.id, 100);
    assert_eq!(h.obs.len(), cfg.n_quarters);

    let lookup_bytes = reader.bytes_read() - open_bytes;
    assert_eq!(
        lookup_bytes, block_bytes,
        "lookup must read exactly the one block holding the company"
    );
    assert!(
        reader.bytes_read() * 4 < file_len,
        "point lookup ({} B) should touch a small fraction of the file ({file_len} B)",
        reader.bytes_read()
    );
    fs::remove_file(&path).ok();
}

/// Exact byte proxy for the store read a paper fold starts with: the
/// transaction panel, 16 companies per block, read whole. A change to
/// the encoding or to what `read_panel` touches moves this number.
#[test]
fn paper_panel_read_costs_exactly_its_bytes() {
    let panel = generate(&SynthConfig::transaction_paper(3)).panel;
    let path = temp_store("paperbytes");
    write_panel(&path, &panel, 16).expect("write");
    let mut reader = StoreReader::open(&path).expect("open");
    reader.read_panel().expect("read");
    assert_eq!(reader.bytes_read(), 52_981, "store bytes read by read_panel");
    fs::remove_file(&path).ok();
}

#[test]
fn streamed_write_equals_panel_write() {
    // The bounded-memory streaming path and the in-memory panel path
    // must produce byte-identical files for the same data.
    let cfg = SynthConfig { n_companies: 37, ..SynthConfig::tiny(43) };
    let via_stream = temp_store("stream");
    write_source(&via_stream, &mut SynthStream::new(&cfg).as_source(), 8).expect("write stream");
    let panel = materialize(&mut SynthStream::new(&cfg).as_source()).expect("materialize");
    let via_panel = temp_store("panel");
    write_panel(&via_panel, &panel, 8).expect("write panel");
    assert_eq!(
        fs::read(&via_stream).expect("read stream file"),
        fs::read(&via_panel).expect("read panel file"),
        "stream-written and panel-written stores must be byte-identical"
    );
    fs::remove_file(&via_stream).ok();
    fs::remove_file(&via_panel).ok();
}

#[test]
fn reader_is_a_panel_source() {
    let panel = generate(&SynthConfig::tiny(44)).panel;
    let path = temp_store("source");
    write_panel(&path, &panel, 5).expect("write");
    let mut reader = StoreReader::open(&path).expect("open");
    // Batch boundaries cut across block boundaries (batch 3, block 5).
    let mut seen = 0usize;
    loop {
        let batch = reader.next_batch(3).expect("batch");
        if batch.is_empty() {
            break;
        }
        for h in &batch {
            assert_eq!(h.company.id, seen);
            for (t, o) in h.obs.iter().enumerate() {
                assert_obs_bits_eq(o, panel.get(seen, t), &format!("c{seen} t{t}"));
            }
            seen += 1;
        }
    }
    assert_eq!(seen, panel.num_companies());
    // And materialize() over the reader rebuilds the panel.
    reader.reset();
    let back = materialize(&mut reader).expect("materialize");
    assert_eq!(back.num_companies(), panel.num_companies());
    fs::remove_file(&path).ok();
}

#[test]
fn no_temp_files_survive_a_finished_write() {
    let panel = generate(&SynthConfig::tiny(45)).panel;
    let path = temp_store("cleanup");
    write_panel(&path, &panel, 4).expect("write");
    for suffix in [".tmp", ".data.tmp"] {
        let mut p = path.as_os_str().to_os_string();
        p.push(suffix);
        assert!(!PathBuf::from(&p).exists(), "stray {suffix} file after finish");
    }
    fs::remove_file(&path).ok();
}

#[test]
fn single_bit_flip_is_detected_and_contained() {
    let cfg = SynthConfig { n_companies: 60, ..SynthConfig::tiny(46) };
    let path = temp_store("corrupt");
    write_source(&path, &mut SynthStream::new(&cfg).as_source(), 10).expect("write");

    // Locate a byte in the middle of block 2's first segment and flip
    // one bit there.
    let (data_start, seg_offset, seg_len, n_blocks) = {
        let reader = StoreReader::open(&path).expect("open");
        let seg = &reader.skeleton().blocks[2].obs_segs[1];
        (reader.data_start(), seg.offset, seg.len, reader.skeleton().blocks.len())
    };
    assert_eq!(n_blocks, 6);
    let flip_byte = data_start + seg_offset + seg_len / 2;
    ams_fault::bit_flip_file(&path, flip_byte * 8 + 3).expect("flip");

    // The skeleton is intact, so the store still opens...
    let mut reader = StoreReader::open(&path).expect("reopen");
    // ...every other block still reads cleanly...
    for idx in [0usize, 1, 3, 4, 5] {
        reader.read_block(idx).unwrap_or_else(|e| panic!("block {idx} should be clean: {e}"));
    }
    // ...and exactly the corrupted block is rejected, naming itself.
    match reader.read_block(2) {
        Err(StoreError::Corrupt { block: 2, .. }) => {}
        other => panic!("expected Corrupt{{block: 2}}, got {other:?}"),
    }
    // A company inside the bad block fails; neighbours are fine.
    assert!(reader.company_history(25).is_err());
    assert!(reader.company_history(15).is_ok());
    assert!(reader.company_history(35).is_ok());

    // A flip in the skeleton region is caught at open.
    ams_fault::bit_flip_file(&path, (data_start / 2) * 8).expect("flip skeleton");
    assert!(StoreReader::open(&path).is_err(), "skeleton corruption must fail open()");
    fs::remove_file(&path).ok();
}
