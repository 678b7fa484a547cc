//! Golden wire transcript: every request line in
//! `tests/fixtures/wire_transcript.jsonl` goes through a live `Server`
//! and, for the `solo` target, through a 2-shard `Router`; each
//! response must match the recorded bytes exactly.
//!
//! Targets:
//! - `solo`: one published model (`ams-demo`, with a standardizer);
//!   the router runs over two shards that each publish the same model.
//! - `pair`: two models, `ams-demo` and `ams-bad` (NaN generator
//!   weights, no standardizer), for the engine-error, model-required
//!   and no-standardizer paths. Server only.
//!
//! Only two kinds of bytes are masked before comparing, because they
//! are not functions of the request stream: the `*_latency_us` numbers
//! in `stats` and the ephemeral `"addr"` ports in the router's
//! `health`/`stats`.
//!
//! Re-record with `AMS_RECORD_WIRE=1 cargo test --test wire_transcript`
//! (the requests come from [`cases`]); a replay also checks that the
//! fixture's requests are exactly the generated ones.

use ams::cluster::{Router, RouterConfig};
use ams::serve::demo::train_demo;
use ams::serve::{BreakerConfig, ModelArtifact, Registry, Server, ServerConfig};
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const FIXTURE: &str = "tests/fixtures/wire_transcript.jsonl";

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Target {
    Solo,
    Pair,
}

impl Target {
    fn name(self) -> &'static str {
        match self {
            Target::Solo => "solo",
            Target::Pair => "pair",
        }
    }
}

fn row_text(artifact: &ModelArtifact, c: usize) -> String {
    let row: Vec<String> =
        artifact.reference_features.row(c).iter().map(|v| format!("{v}")).collect();
    row.join(",")
}

/// Row `c` with each value rendered by `f(index, value)`.
fn row_map(artifact: &ModelArtifact, c: usize, f: impl Fn(usize, f64) -> String) -> String {
    let row: Vec<String> =
        artifact.reference_features.row(c).iter().enumerate().map(|(i, &v)| f(i, v)).collect();
    row.join(",")
}

fn rows_text(artifact: &ModelArtifact, edit: impl Fn(usize, String) -> String) -> String {
    let rows: Vec<String> = (0..artifact.num_companies())
        .map(|c| edit(c, format!("[{}]", row_text(artifact, c))))
        .collect();
    rows.join(",")
}

/// The request lines, in replay order (the order matters for `stats`
/// counters and breaker streaks).
fn cases(artifact: &ModelArtifact) -> Vec<(Target, String)> {
    use Target::{Pair, Solo};
    let row3 = row_text(artifact, 3);
    let row5 = row_text(artifact, 5);
    let batch = rows_text(artifact, |_, r| r);
    let width = artifact.feature_width();
    let mut out: Vec<(Target, String)> = Vec::new();
    let mut solo = |s: String| out.push((Solo, s));

    // All six request types, raw on and off.
    solo(r#"{"type":"health"}"#.into());
    solo(format!(r#"{{"type":"predict","company":3,"features":[{row3}]}}"#));
    solo(format!(r#"{{"type":"predict","model":"ams-demo","company":3,"features":[{row3}]}}"#));
    solo(format!(
        r#"{{"type":"predict","model":"ams-demo","version":1,"company":5,"features":[{row5}]}}"#
    ));
    solo(format!(r#"{{"type":"predict","company":3,"features":[{row3}],"raw":true}}"#));
    solo(format!(r#"{{"type":"predict","company":3,"features":[{row3}],"raw":false}}"#));
    solo(format!(r#"{{"type":"predict","company":3,"features":[{row3}],"raw":1}}"#));
    solo(format!(r#"{{"type":"batch_predict","features":[{batch}]}}"#));
    solo(format!(r#"{{"type":"batch_predict","features":[{batch}],"raw":true}}"#));
    solo(format!(
        r#"{{"type":"batch_predict","model":"ams-demo","version":1,"features":[{batch}]}}"#
    ));
    solo(r#"{"type":"slave_weights","company":3}"#.into());
    solo(r#"{"type":"slave_weights","model":"ams-demo","company":0}"#.into());
    solo(format!(
        r#"{{"type":"multi_predict","requests":[{{"company":3,"features":[{row3}]}},{{"company":5,"features":[{row5}],"raw":true}},{{"company":99,"features":[{row3}]}},{{"company":3,"features":"x"}},{{"company":-1}},7,{{"company":3,"features":[1]}}]}}"#
    ));
    solo(r#"{"type":"multi_predict","requests":[]}"#.into());
    solo(r#"{"type":"multi_predict"}"#.into());
    solo(r#"{"type":"multi_predict","requests":{"company":3}}"#.into());

    // The degraded ladder: unknown company, null and overflowing
    // features (the engine-error rung is on the `pair` target below).
    solo(format!(r#"{{"type":"predict","company":99,"features":[{row3}]}}"#));
    solo(r#"{"type":"predict","company":99,"features":[1,2]}"#.into());
    let with_first = |first: &'static str| {
        row_map(artifact, 3, move |i, v| if i == 0 { first.to_string() } else { format!("{v}") })
    };
    solo(format!(r#"{{"type":"predict","company":3,"features":[{}]}}"#, with_first("null")));
    solo(format!(r#"{{"type":"predict","company":3,"features":[{}]}}"#, with_first("1e999")));
    solo(format!(
        r#"{{"type":"batch_predict","features":[{}]}}"#,
        rows_text(artifact, |c, r| if c == 2 { format!("[{}]", with_first("null")) } else { r })
    ));
    solo(r#"{"type":"slave_weights","company":99}"#.into());

    // Every semantic error.
    solo(r#"{"type":"predict","company":3}"#.into());
    solo(r#"{"type":"predict","company":3,"features":"x"}"#.into());
    solo(r#"{"type":"predict","company":3,"features":null}"#.into());
    solo(r#"{"type":"predict","company":3,"features":{"a":1}}"#.into());
    solo(r#"{"type":"predict","company":3,"features":[1,"a",true]}"#.into());
    solo(r#"{"type":"predict","company":3,"features":[[1,2]]}"#.into());
    solo(r#"{"type":"predict","company":3,"features":[1,2]}"#.into());
    solo(r#"{"type":"predict","company":3,"features":[]}"#.into());
    solo(r#"{"type":"predict","company":3,"features":[1,2],"raw":true}"#.into());
    solo(r#"{"type":"batch_predict"}"#.into());
    solo(r#"{"type":"batch_predict","features":[1,2]}"#.into());
    solo(r#"{"type":"batch_predict","features":[[1],"a"]}"#.into());
    solo(r#"{"type":"batch_predict","features":[[1,"a"],[2]]}"#.into());
    solo(r#"{"type":"batch_predict","features":[[1,2],[3]]}"#.into());
    solo(r#"{"type":"batch_predict","features":[]}"#.into());
    solo(format!(
        r#"{{"type":"batch_predict","features":[{}]}}"#,
        rows_text(artifact, |c, r| if c == 5 { "[1,2]".to_string() } else { r })
    ));
    solo(format!(
        r#"{{"type":"batch_predict","features":[{}],"raw":true}}"#,
        rows_text(artifact, |c, r| if c == 7 {
            format!("[{}]", vec!["0"; width + 1].join(","))
        } else {
            r
        })
    ));
    for company in ["-1", "1.5", "\"3\"", "null", "1e20", "-0", "3e0", "3.0"] {
        solo(format!(r#"{{"type":"predict","company":{company},"features":[{row3}]}}"#));
    }
    for company in ["-1", "1.5", "\"3\"", "1e3", "3.0"] {
        solo(format!(r#"{{"type":"slave_weights","company":{company}}}"#));
    }
    solo(r#"{"type":"slave_weights"}"#.into());
    solo(format!(r#"{{"type":"predict","model":"nope","company":3,"features":[{row3}]}}"#));
    solo(format!(
        r#"{{"type":"predict","model":"ams-demo","version":7,"company":3,"features":[{row3}]}}"#
    ));
    solo(format!(
        r#"{{"type":"predict","model":"ams-demo","version":1.5,"company":3,"features":[{row3}]}}"#
    ));
    solo(r#"{"type":"bogus"}"#.into());
    solo(r#"{"type":"missing"}"#.into());
    solo(r#"{"company":3}"#.into());
    solo(r#"{"type":5}"#.into());
    solo(r#"{}"#.into());
    solo(format!(r#"{{"type":"predict","company":3,"features":[{row3}],"deadline_ms":0.5}}"#));
    solo(format!(r#"{{"type":"batch_predict","features":[{batch}],"deadline_ms":0.5}}"#));
    solo(format!(r#"{{"type":"predict","company":3,"features":[{row3}],"deadline_ms":60000}}"#));
    solo(format!(r#"{{"type":"predict","company":3,"features":[{row3}],"deadline_ms":-5}}"#));

    // Error precedence.
    solo(r#"{"type":"predict","model":"nope","company":3,"features":"x"}"#.into());
    solo(r#"{"type":"predict","model":"nope","company":-1}"#.into());
    solo(r#"{"type":"predict","company":-1,"features":"x"}"#.into());
    solo(r#"{"type":"predict","company":99,"features":"x"}"#.into());
    solo(r#"{"type":"predict","company":99}"#.into());
    solo(r#"{"type":"predict","company":99,"features":[1,2],"raw":true}"#.into());
    solo(format!(r#"{{"type":"predict","company":99,"features":[{row3}],"deadline_ms":0.5}}"#));
    solo(r#"{"type":"predict","company":3,"features":[null,1],"deadline_ms":0.5}"#.into());
    solo(r#"{"type":"batch_predict","model":"nope","features":[1]}"#.into());
    solo(r#"{"type":"batch_predict","features":[[1],[2]],"deadline_ms":0.5}"#.into());
    solo(r#"{"type":"batch_predict","features":[[1,"a"],"b"]}"#.into());
    solo(r#"{"type":"slave_weights","model":"nope","company":-1}"#.into());

    // Lexical variants.
    solo(format!(
        " {{ \"type\" : \"predict\" ,\t\"company\" : 3 , \"features\" : [ {} ] }} ",
        row3.replace(',', " , ")
    ));
    solo(format!(r#"{{"features":[{row3}],"company":3,"type":"predict"}}"#));
    solo(format!(
        r#"{{"meta":{{"a":[1,{{"b":null,"c":[[],{{}}]}}],"s":"x\"}}","t":true}},"type":"predict","company":3,"features":[{row3}],"tail":[-1.5e-3,"\\"]}}"#
    ));
    solo(format!(r#"{{"type":"predict","company":3,"company":5,"features":[{row3}]}}"#));
    solo(format!(r#"{{"type":"predict","company":3,"features":[{row3}],"features":"x"}}"#));
    solo(format!(r#"{{"type":"predict","company":3,"features":"x","features":[{row3}]}}"#));
    solo(r#"{"type":"health","type":"predict"}"#.into());
    solo(r#"{"type":1,"type":"health"}"#.into());
    solo(format!(
        r#"{{"type":"predict","model":5,"model":"nope","company":3,"features":[{row3}]}}"#
    ));
    solo(format!(r#"{{"type":"predict","company":3,"features":[{row3}],"raw":true,"raw":false}}"#));
    solo(format!(r#"{{"type":"pr\u0065dict","comp\u0061ny":3,"features":[{row3}]}}"#));
    solo(format!(
        r#"{{"type":"predict","model":"ams\u002ddemo","company":3,"features":[{row3}]}}"#
    ));
    solo(r#"{"type":"bo\"gus\u00e9\ud83d\ude00\n"}"#.into());
    let lexical = row_map(artifact, 3, |i, v| match i {
        0 => format!("{v:e}"),
        1 => format!("{v:E}"),
        2 => "-0".to_string(),
        3 => "0.0".to_string(),
        4 => "-0.0e0".to_string(),
        5 => format!("{v}0000"),
        _ => format!("{v}"),
    });
    solo(format!(r#"{{"type":"predict","company":3,"features":[{lexical}]}}"#));

    // Malformed JSON and depth bombs.
    for bad in [
        "{",
        "}",
        "{\"type\":\"predict\"",
        "{\"type\":\"predict\",}",
        "{\"type\" \"predict\"}",
        "{\"type\":\"health\"} x",
        "{\"type\":\"health\"}{}",
        "[1,]",
        "nul",
        "tru",
        "{\"type\":nulx}",
        "{type:\"health\"}",
        "{\"type\":\"he\\xlth\"}",
        "{\"type\":\"health\\u12\"}",
        "{\"type\":\"\\ud800\"}",
        "{\"type\":\"\\udc00\"}",
        "{\"type\":\"health",
        "{\"type\":\"predict\",\"company\":-}",
        "{\"type\":\"predict\",\"company\":3,\"features\":[1.2.3]}",
        "{\"type\":\"predict\",\"company\":3,\"features\":[1,,2]}",
        "{\"type\":\"predict\",\"company\":3,\"features\":[1 2]}",
        "{\"type\":\"predict\",\"company\":3,\"features\":[01,1.,-.5,+1]}",
        "{\"type\":\"batch_predict\",\"features\":[[1],[2]}",
        "{\"type\":\"batch_predict\",\"features\":[[1],[2],]}",
        "{\"type\":\"slave_weights\",\"company\":3,}",
        "{\"type\":\"slave_weights\",\"company\":3",
        "{\"type\":\"predict\",\"company\":3 ,\"features\":[1e]}",
        "[1,2]",
        "5",
        "\"predict\"",
        "null",
        "[{\"type\":\"predict\",\"company\":3,\"features\":[1]}]",
    ] {
        solo(bad.to_string());
    }
    solo("[".repeat(129));
    solo(format!("{}1{}", "[".repeat(128), "]".repeat(128)));
    solo("{\"k\":".repeat(200));
    solo(format!("{{\"type\":\"predict\",\"company\":3,\"features\":{}", "[".repeat(127)));
    solo(format!("{{\"type\":\"health\",\"x\":{}", "[".repeat(200)));

    // Two models: engine errors, model-required, no standardizer.
    let mut pair = |s: String| out.push((Pair, s));
    pair(r#"{"type":"health"}"#.into());
    pair(format!(r#"{{"type":"predict","company":3,"features":[{row3}]}}"#));
    pair(format!(r#"{{"type":"batch_predict","features":[{batch}]}}"#));
    pair(r#"{"type":"slave_weights","company":3}"#.into());
    pair(format!(r#"{{"type":"predict","model":"ams-bad","company":3,"features":[{row3}]}}"#));
    pair(format!(r#"{{"type":"batch_predict","model":"ams-bad","features":[{batch}]}}"#));
    pair(format!(
        r#"{{"type":"multi_predict","model":"ams-bad","requests":[{{"company":3,"features":[{row3}]}},{{"company":99,"features":[{row3}]}}]}}"#
    ));
    pair(format!(
        r#"{{"type":"predict","model":"ams-bad","company":3,"features":[{row3}],"raw":true}}"#
    ));
    pair(format!(
        r#"{{"type":"batch_predict","model":"ams-bad","features":[{batch}],"raw":true}}"#
    ));
    pair(format!(
        r#"{{"type":"predict","model":"ams-demo","company":3,"features":[{row3}],"raw":true}}"#
    ));
    pair(r#"{"type":"slave_weights","model":"ams-bad","company":3}"#.into());
    pair(r#"{"type":"health"}"#.into());
    pair(r#"{"type":"stats"}"#.into());
    out.push((Solo, r#"{"type":"stats"}"#.into()));
    out
}

/// Masks the bytes that are not functions of the request stream.
fn normalize(resp: &str) -> String {
    let mut out = String::with_capacity(resp.len());
    let mut rest = resp;
    loop {
        let latency = rest.find("_latency_us\":");
        let addr = rest.find("\"addr\":\"");
        match (latency, addr) {
            (Some(l), a) if a.is_none_or(|a| l < a) => {
                let head = l + "_latency_us\":".len();
                out.push_str(&rest[..head]);
                out.push('*');
                let tail = &rest[head..];
                let end = tail.find([',', '}']).unwrap_or(tail.len());
                rest = &tail[end..];
            }
            (_, Some(a)) => {
                let head = a + "\"addr\":\"".len();
                out.push_str(&rest[..head]);
                out.push('*');
                let tail = &rest[head..];
                let end = tail.find('"').unwrap_or(tail.len());
                rest = &tail[end..];
            }
            _ => {
                out.push_str(rest);
                return out;
            }
        }
    }
}

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Self {
        let writer = TcpStream::connect(addr).expect("connect");
        writer.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        let reader = BufReader::new(writer.try_clone().unwrap());
        Self { writer, reader }
    }

    fn round_trip(&mut self, request: &str) -> String {
        self.writer.write_all(format!("{request}\n").as_bytes()).expect("send");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read");
        assert!(line.ends_with('\n'), "connection closed on {request:?}: {line:?}");
        line.pop();
        normalize(&line)
    }
}

fn start_server(registry: Registry) -> Server {
    Server::start(
        ServerConfig { addr: "127.0.0.1:0".into(), workers: 1, ..Default::default() },
        Arc::new(registry),
    )
    .expect("server binds")
}

fn solo_registry(artifact: &ModelArtifact) -> Registry {
    let registry = Registry::new();
    registry.publish(artifact.clone()).expect("publish ams-demo");
    registry
}

fn pair_registry(artifact: &ModelArtifact) -> Registry {
    // A breaker that never opens in this transcript: the engine-error
    // rung must stay the engine-error rung.
    let registry = Registry::with_breaker_config(BreakerConfig {
        failure_threshold: 1_000,
        cooldown: Duration::from_secs(3_600),
    });
    registry.publish(artifact.clone()).expect("publish ams-demo");
    let mut bad = artifact.clone();
    bad.name = "ams-bad".into();
    bad.standardizer = None;
    bad.snapshot.gen.last_mut().unwrap().w[(0, 0)] = f64::NAN;
    registry.publish(bad).expect("publish ams-bad");
    registry
}

struct Record {
    target: Target,
    request: String,
    server: String,
    router: Option<String>,
}

fn record_line(r: &Record) -> String {
    let router = match &r.router {
        Some(s) => Value::String(s.clone()),
        None => Value::Null,
    };
    let v = Value::Object(vec![
        ("target".into(), Value::String(r.target.name().into())),
        ("request".into(), Value::String(r.request.clone())),
        ("server".into(), Value::String(r.server.clone())),
        ("router".into(), router),
    ]);
    serde_json::to_string(&v).unwrap()
}

fn parse_record(line: &str) -> Record {
    let v: Value = serde_json::from_str(line).expect("fixture line is JSON");
    let text = |k: &str| v.get(k).and_then(Value::as_str).map(str::to_string);
    let target = match text("target").as_deref() {
        Some("solo") => Target::Solo,
        Some("pair") => Target::Pair,
        other => panic!("bad target {other:?}"),
    };
    Record {
        target,
        request: text("request").expect("request"),
        server: text("server").expect("server"),
        router: text("router"),
    }
}

#[test]
fn wire_transcript_matches_byte_for_byte() {
    let artifact = train_demo(41).artifact;
    let cases = cases(&artifact);

    let solo = start_server(solo_registry(&artifact));
    let pair = start_server(pair_registry(&artifact));
    let shard_a = start_server(solo_registry(&artifact));
    let shard_b = start_server(solo_registry(&artifact));
    let router = Router::start(RouterConfig {
        shards: vec![vec![shard_a.local_addr()], vec![shard_b.local_addr()]],
        artifact: Some(artifact.clone()),
        workers: 1,
        probe_interval_ms: 0,
        hedge_after_ms: 0,
        ..Default::default()
    })
    .expect("router starts");

    let mut solo_conn = Conn::open(solo.local_addr());
    let mut pair_conn = Conn::open(pair.local_addr());
    let mut router_conn = Conn::open(router.local_addr());
    let got: Vec<Record> = cases
        .iter()
        .map(|(target, request)| match target {
            Target::Solo => Record {
                target: *target,
                request: request.clone(),
                server: solo_conn.round_trip(request),
                router: Some(router_conn.round_trip(request)),
            },
            Target::Pair => Record {
                target: *target,
                request: request.clone(),
                server: pair_conn.round_trip(request),
                router: None,
            },
        })
        .collect();
    drop((solo_conn, pair_conn, router_conn));
    router.shutdown();
    for s in [solo, pair, shard_a, shard_b] {
        s.shutdown();
    }

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE);
    if std::env::var_os("AMS_RECORD_WIRE").is_some() {
        let text: String = got.iter().map(|r| record_line(r) + "\n").collect();
        std::fs::write(&path, text).expect("write fixture");
        return;
    }
    let fixture = std::fs::read_to_string(&path).expect("read fixture");
    let want: Vec<Record> = fixture.lines().map(parse_record).collect();
    assert_eq!(want.len(), got.len(), "fixture has {} lines, cases {}", want.len(), got.len());
    let mut mismatches = Vec::new();
    for (i, (w, g)) in want.iter().zip(&got).enumerate() {
        assert_eq!((w.target, &w.request), (g.target, &g.request), "line {}: stale fixture", i + 1);
        if w.server != g.server {
            mismatches.push(format!(
                "line {} server\n  request {:?}\n  want    {}\n  got     {}",
                i + 1,
                w.request,
                w.server,
                g.server
            ));
        }
        if w.router != g.router {
            mismatches.push(format!(
                "line {} router\n  request {:?}\n  want    {:?}\n  got     {:?}",
                i + 1,
                w.request,
                w.router,
                g.router
            ));
        }
    }
    assert!(mismatches.is_empty(), "{} mismatches:\n{}", mismatches.len(), mismatches.join("\n"));
}
