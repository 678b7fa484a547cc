//! Request-parsing totality under adversarial input: the JSONL parser
//! must return a value (never panic, never overflow the worker stack)
//! on arbitrary byte soup, and the server must answer every framed
//! hostile line with a typed refusal — depth bombs inside the line
//! budget included — while staying inside a small allocation envelope.
//! This is the serve-side counterpart of the store's decoder
//! properties: everything a socket can deliver is untrusted until the
//! parser said otherwise.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ams_serve::net::MAX_LINE_BYTES;
use ams_serve::protocol::{self, FeatureBuf};
use ams_serve::{Registry, Server, ServerConfig};
use proptest::prelude::*;
use serde_json::Value;

struct CountingAlloc;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let now = CURRENT.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(now, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                let grow = new_size - layout.size();
                let now = CURRENT.fetch_add(grow, Ordering::Relaxed) + grow;
                PEAK.fetch_max(now, Ordering::Relaxed);
            } else {
                CURRENT.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap growth (bytes above the level at call time) while running `f`.
fn peak_heap_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = CURRENT.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed).saturating_sub(base))
}

/// Structural JSON tokens plus a few valid scalars: concatenations hit
/// the parser's recursion, escape and number paths far more often than
/// raw byte soup would.
const TOKENS: [&str; 14] = [
    "[",
    "]",
    "{",
    "}",
    ":",
    ",",
    "\"a\"",
    "\"k\"",
    "1e9",
    "-0.5",
    "true",
    "null",
    "\"\\u0041\"",
    "\\",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Raw byte soup: parsing returns, never panics, and a successful
    /// parse survives a re-encode/re-parse round trip. Allocation
    /// stays proportional to the input, whatever the bytes claim.
    #[test]
    fn parsing_is_total_on_byte_soup(
        byte_codes in prop::collection::vec(0usize..256, 0..2048),
    ) {
        let bytes: Vec<u8> = byte_codes.iter().map(|&b| b as u8).collect();
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let (res, peak) = peak_heap_during(|| serde_json::from_str::<Value>(&text));
        prop_assert!(peak <= (1 << 20) + 64 * text.len(), "peak {peak} for {} bytes", text.len());
        if let Ok(v) = res {
            let encoded = serde_json::to_string(&v).expect("re-encode parsed value");
            prop_assert!(serde_json::from_str::<Value>(&encoded).is_ok(), "{encoded}");
        }
    }

    /// Token soup: structurally dense near-JSON, including arbitrarily
    /// deep bracket runs — deep nesting must come back as the depth
    /// error, not as a stack overflow.
    #[test]
    fn parsing_is_total_on_token_soup(
        token_codes in prop::collection::vec(0usize..TOKENS.len(), 0..4096),
    ) {
        let text: String = token_codes.iter().map(|&t| TOKENS[t]).collect();
        let (res, peak) = peak_heap_during(|| serde_json::from_str::<Value>(&text));
        prop_assert!(peak <= (1 << 20) + 64 * text.len(), "peak {peak} for {} bytes", text.len());
        let depth = token_codes.iter().take_while(|&&t| TOKENS[t] == "[").count();
        if depth > serde_json::MAX_PARSE_DEPTH {
            let err = res.expect_err("a bracket bomb must be refused");
            prop_assert!(format!("{err}").contains("nesting deeper"), "{err}");
        } else if let Ok(v) = res {
            let encoded = serde_json::to_string(&v).expect("re-encode parsed value");
            prop_assert!(serde_json::from_str::<Value>(&encoded).is_ok(), "{encoded}");
        }
    }
}

/// Characters a JSON number token may span, plus the separators and
/// literals around it: concatenations probe the float grammar's edges
/// (`1.`, `-.5`, `1e+`, `--1`, `01`) inside a feature array.
const NUMBER_TOKENS: [&str; 14] =
    ["0", "7", "-", "+", ".", "e", "E", "1e5", "-0", ",", ",", "null", " ", "\"\""];

/// The vendored parser's verdict on `text`: its error message, or the
/// document.
fn vendored(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Value>(text).map_err(|e| e.to_string())
}

/// The protocol's verdict on `text` must be the vendored parser's, in
/// both modes: the same acceptance and the same error message. For a
/// collecting parse of an object, `features` must read exactly as the
/// vendored deserializer reads it, as one row and as rows, bit for bit.
fn assert_agrees(text: &str) -> Result<(), String> {
    let want = vendored(text);
    let mut buf = FeatureBuf::default();
    let (got, peak) = peak_heap_during(|| protocol::parse_request(text, Some(&mut buf)));
    prop_assert!(peak <= (1 << 20) + 64 * text.len(), "peak {peak} for {} bytes", text.len());
    let validated = protocol::parse_request(text, None);
    match (&want, &got) {
        (Err(w), Err(g)) => {
            prop_assert_eq!(w, &g.to_string(), "{:?}", text);
            prop_assert_eq!(w, &validated.unwrap_err().to_string(), "{:?}", text);
        }
        (Ok(doc), Ok(req)) => {
            prop_assert!(validated.is_ok(), "{:?}", text);
            let field = doc.get("features");
            prop_assert_eq!(field.is_some(), req.features().is_some(), "{:?}", text);
            if let (Some(field), Some(features)) = (field, req.features()) {
                let flat: Result<Vec<f64>, String> =
                    serde::Deserialize::from_value(field).map_err(|e: serde::Error| e.to_string());
                match (flat, features.flat()) {
                    (Ok(w), Ok(range)) => prop_assert_eq!(bits(&w), bits(&buf.values[range])),
                    (Err(w), Err(g)) => prop_assert_eq!(w, g.to_string()),
                    (w, g) => prop_assert!(false, "{text:?}: one row {w:?} vs {g:?}"),
                }
                let rows: Result<Vec<Vec<f64>>, String> =
                    serde::Deserialize::from_value(field).map_err(|e: serde::Error| e.to_string());
                match (rows, features.rows()) {
                    (Ok(w), Ok((values, ends))) => {
                        let ends = &buf.rows[ends];
                        prop_assert_eq!(w.iter().map(Vec::len).collect::<Vec<_>>(), widths(ends));
                        prop_assert_eq!(bits(&w.concat()), bits(&buf.values[values]));
                    }
                    (Err(w), Err(g)) => prop_assert_eq!(w, g.to_string()),
                    (w, g) => prop_assert!(false, "{text:?}: rows {w:?} vs {g:?}"),
                }
            }
        }
        (w, g) => prop_assert!(false, "{text:?}: vendored {w:?}, protocol {g:?}"),
    }
    Ok(())
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Row widths from cumulative row ends.
fn widths(ends: &[usize]) -> Vec<usize> {
    ends.iter().scan(0, |start, &end| Some(end - std::mem::replace(start, end))).collect()
}

/// A feature value as a client might write it: shortest, exponent or
/// padded form, or `null` for a non-finite value.
fn render(v: f64, style: usize) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    match style % 4 {
        0 => format!("{v}"),
        1 => format!("{v:e}"),
        2 => format!("{v:E}"),
        _ => format!("{v}{}", if v.fract() == 0.0 { "" } else { "000" }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Byte soup, bare and inside a request prefix: the protocol
    /// accepts and rejects exactly what the vendored parser does.
    #[test]
    fn protocol_agrees_with_vendored_on_byte_soup(
        byte_codes in prop::collection::vec(0usize..256, 0..2048),
        prefixed in 0u8..2,
    ) {
        let bytes: Vec<u8> = byte_codes.iter().map(|&b| b as u8).collect();
        let soup = String::from_utf8_lossy(&bytes).into_owned();
        let text = if prefixed == 1 { format!("{{\"type\":\"predict\",\"features\":{soup}") } else { soup };
        assert_agrees(&text)?;
    }

    /// Token soup, bare and as the `features` value of a predict line:
    /// the same verdicts, and the depth refusal past the ceiling.
    #[test]
    fn protocol_agrees_with_vendored_on_token_soup(
        token_codes in prop::collection::vec(0usize..TOKENS.len(), 0..4096),
        prefixed in 0u8..2,
    ) {
        let soup: String = token_codes.iter().map(|&t| TOKENS[t]).collect();
        let depth = token_codes.iter().take_while(|&&t| TOKENS[t] == "[").count();
        if prefixed == 1 {
            assert_agrees(&format!("{{\"type\":\"predict\",\"features\":{soup}}}"))?;
        } else {
            assert_agrees(&soup)?;
            if depth > serde_json::MAX_PARSE_DEPTH {
                let err = protocol::parse_request(&soup, None).expect_err("a bracket bomb");
                prop_assert!(err.is_too_deep(), "{err}");
            }
        }
    }

    /// Number-token soup inside a feature array and inside rows: the
    /// float grammar and the one-row / rows readings agree.
    #[test]
    fn protocol_agrees_with_vendored_on_number_soup(
        token_codes in prop::collection::vec(0usize..NUMBER_TOKENS.len(), 0..64),
        as_rows in 0u8..2,
    ) {
        let soup: String = token_codes.iter().map(|&t| NUMBER_TOKENS[t]).collect();
        let text = if as_rows == 1 {
            format!("{{\"features\":[[{soup}],[{soup}]]}}")
        } else {
            format!("{{\"features\":[{soup}]}}")
        };
        assert_agrees(&text)?;
    }

    /// Nesting around the ceiling, open and closed, in arrays and in
    /// objects: the depth refusal comes at the same depth and byte.
    #[test]
    fn depth_ceiling_matches_vendored(
        depth in 100usize..160,
        objects in 0u8..2,
        closed in 0u8..2,
    ) {
        let (open, close) = if objects == 1 { ("{\"k\":", "}") } else { ("[", "]") };
        let tail = if closed == 1 { close.repeat(depth) } else { String::new() };
        let text = format!("{{\"features\":{}1{tail}", open.repeat(depth));
        assert_agrees(&text)?;
        let too_deep = protocol::parse_request(&text, None).err().is_some_and(|e| e.is_too_deep());
        prop_assert_eq!(too_deep, depth + 1 > serde_json::MAX_PARSE_DEPTH);
    }

    /// Accepted predict and batch lines: every feature, NaN from `null`
    /// included, lands with the vendored deserializer's bits.
    #[test]
    fn predict_and_batch_features_keep_every_bit(
        raw_bits in prop::collection::vec(0u64..u64::MAX, 1..48),
        styles in prop::collection::vec(0usize..4, 48),
        rows in 1usize..5,
    ) {
        let row: Vec<String> = raw_bits
            .iter()
            .zip(&styles)
            .map(|(&b, &style)| render(f64::from_bits(b), style))
            .collect();
        let row = format!("[{}]", row.join(","));
        assert_agrees(&format!("{{\"type\":\"predict\",\"company\":3,\"features\":{row}}}"))?;
        let batch = vec![row; rows].join(" , ");
        assert_agrees(&format!("{{\"features\":[{batch}],\"type\":\"batch_predict\"}}"))?;
    }
}

fn recv_line(reader: &mut BufReader<TcpStream>) -> Option<Value> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => None,
        Ok(_) => Some(serde_json::from_str(&line).expect("server lines are JSON")),
        Err(e) => panic!("read response: {e}"),
    }
}

fn is_ok(v: &Value) -> Option<bool> {
    v.get("ok").and_then(Value::as_bool)
}

/// The live server under a hostile barrage: a depth bomb inside the
/// line budget gets a typed parse refusal (the worker thread would
/// stack-overflow without the parser's depth ceiling), non-UTF-8
/// closes the connection without a crash, an oversized line gets the
/// documented refusal-then-close — and through all of it the server
/// keeps serving fresh connections with bounded heap.
#[test]
fn server_refuses_hostile_lines_and_keeps_serving() {
    let bundle = ams_serve::demo::train_demo(11);
    let registry = Arc::new(Registry::new());
    registry.publish(bundle.artifact).unwrap();
    let server = Server::start(
        ServerConfig { addr: "127.0.0.1:0".into(), workers: 2, ..Default::default() },
        Arc::clone(&registry),
    )
    .unwrap();
    let addr = server.local_addr();

    // Depth bomb: 60 KiB of '[' fits the line budget, so it reaches
    // the parser. The refusal must come back on the same connection.
    let mut conn = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let bomb = "[".repeat(60 * 1024 - 1);
    let ((), peak) = peak_heap_during(|| {
        conn.write_all(bomb.as_bytes()).unwrap();
        conn.write_all(b"\n").unwrap();
        let resp = recv_line(&mut reader).expect("refusal for the depth bomb");
        assert_eq!(is_ok(&resp), Some(false), "{resp:?}");
        let err = resp.get("error").and_then(Value::as_str).unwrap_or("");
        assert!(err.contains("invalid JSON"), "{err}");
    });
    assert!(peak <= 32 << 20, "depth bomb peaked at {peak} bytes");

    // The connection survived the bomb.
    conn.write_all(b"{\"type\":\"health\"}\n").unwrap();
    let resp = recv_line(&mut reader).expect("health after the bomb");
    assert_eq!(is_ok(&resp), Some(true), "{resp:?}");

    // Non-UTF-8 bytes cannot become a request line: the server drops
    // the connection (no response) rather than crashing or echoing.
    conn.write_all(&[0xff, 0xfe, 0x80, b'\n']).unwrap();
    assert!(recv_line(&mut reader).is_none(), "non-UTF-8 must close the connection");

    // An endless line is cut at MAX_LINE_BYTES with a typed refusal,
    // then the connection closes — the stream cannot re-synchronize.
    let mut conn = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    // Exactly MAX_LINE_BYTES with no newline trips the cap while
    // leaving no unread bytes behind, so the refusal is not raced by a
    // connection reset.
    let ((), peak) = peak_heap_during(|| {
        conn.write_all(&vec![b'a'; MAX_LINE_BYTES]).unwrap();
        let mut raw = String::new();
        reader.read_to_string(&mut raw).unwrap();
        // The refusal is pinned byte for byte: one line, then EOF.
        assert_eq!(raw, "{\"ok\":false,\"error\":\"request line exceeded 65536 bytes\"}\n");
    });
    assert!(peak <= (MAX_LINE_BYTES * 4) + (1 << 20), "oversized line peaked at {peak} bytes");

    // After every refusal above, a fresh connection still gets real
    // service.
    let mut conn = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    conn.write_all(b"{\"type\":\"health\"}\n").unwrap();
    let resp = recv_line(&mut reader).expect("health on a fresh connection");
    assert_eq!(is_ok(&resp), Some(true), "{resp:?}");

    server.shutdown();
}
