//! The serving cold-start path end to end: load a routed `u8` snapshot
//! into the [`QseApi`] facade, start the HTTP/1.1 front end with
//! admission batching, then drive it with concurrent in-process clients —
//! well-formed queries checked bit-identical against direct retrieval
//! *and* a malformed-request fuzz loop (bad `k`/`p`, wrong
//! dimensionality, broken JSON, raw garbage) that must come back as
//! typed errors with the process still serving. This is the CI
//! integration leg:
//!
//! ```sh
//! cargo run --release --example snapshot_roundtrip -- save /tmp/qse.snap
//! cargo run --release --example serve_snapshot -- /tmp/qse.snap
//! ```
//!
//! With no arguments a smaller index is built, snapshotted and served in
//! one process. Either way the run prints measured p50/p99 latency and
//! QPS for the served endpoint.

use query_sensitive_embeddings::core::json::JsonValue;
use query_sensitive_embeddings::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const K: usize = 10;
const P: usize = 100;
const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 64;

/// The CI snapshot's deterministic workload — must match the
/// `snapshot_roundtrip` example that wrote the file.
fn ci_workload() -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let mix = GaussianMixture::generate(GaussianMixtureConfig {
        rows: 100_000,
        dim: 64,
        clusters: 32,
        center_box: 10.0,
        spread: 0.5,
        seed: 0x5EED_CAFE,
    });
    let queries = mix.queries(256, 0xBEEF);
    (mix.points, queries)
}

/// The self-contained workload for argument-less runs.
fn local_workload() -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let mix = GaussianMixture::generate(GaussianMixtureConfig {
        rows: 20_000,
        dim: 32,
        clusters: 16,
        center_box: 10.0,
        spread: 0.5,
        seed: 0x5EED_F00D,
    });
    let queries = mix.queries(256, 0xBEEF);
    (mix.points, queries)
}

fn train_model(database: &[Vec<f64>], distance: &LpDistance) -> QseModel<Vec<f64>> {
    let pool: Vec<Vec<f64>> = database.iter().take(80).cloned().collect();
    let data = TrainingData::precompute(pool.clone(), pool, distance, 6);
    let mut rng = StdRng::seed_from_u64(1717);
    let triples = TripleSampler::selective(4).sample(&data.train_to_train, 600, &mut rng);
    BoostMapTrainer::new(TrainerConfig::quick()).train(&data, &triples, &mut rng)
}

fn post(stream: &mut TcpStream, body: &str) -> (u16, String) {
    stream
        .write_all(
            format!(
                "POST /query HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("request write");
    read_response(stream)
}

/// Read one keep-alive response off the stream: head, then
/// `Content-Length` body bytes.
fn read_response(stream: &mut TcpStream) -> (u16, String) {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).expect("response head");
        head.push(byte[0]);
    }
    let head = String::from_utf8_lossy(&head).to_string();
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .expect("Content-Length header");
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).expect("response body");
    (status, String::from_utf8(body).expect("UTF-8 body"))
}

fn query_body(query: &[f64], k: usize, p: usize) -> String {
    let coords: Vec<String> = query.iter().map(|x| format!("{x:?}")).collect();
    format!(r#"{{"query":[{}],"k":{k},"p":{p}}}"#, coords.join(","))
}

fn neighbors_of(body: &str) -> Vec<usize> {
    JsonValue::parse(body)
        .expect("response JSON")
        .get("neighbors")
        .expect("neighbors field")
        .as_array()
        .expect("neighbors array")
        .iter()
        .map(|v| v.as_f64().expect("neighbor id") as usize)
        .collect()
}

fn percentile(sorted: &[Duration], q: f64) -> Duration {
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx]
}

/// Fire the well-formed load: `CLIENTS` threads, each with its own
/// keep-alive connection, replaying its share of `queries` and checking
/// every answer against `expected`. Returns per-request latencies.
fn drive_load(addr: SocketAddr, queries: &[Vec<f64>], expected: &[QueryResult]) -> Vec<Duration> {
    let mut latencies = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    stream
                        .set_read_timeout(Some(Duration::from_secs(30)))
                        .unwrap();
                    let mut local = Vec::with_capacity(REQUESTS_PER_CLIENT);
                    for i in 0..REQUESTS_PER_CLIENT {
                        let qi = (c * REQUESTS_PER_CLIENT + i) % queries.len();
                        let body = query_body(&queries[qi], K, P);
                        let start = Instant::now();
                        let (status, response) = post(&mut stream, &body);
                        local.push(start.elapsed());
                        assert_eq!(status, 200, "client {c} request {i}: {response}");
                        assert_eq!(
                            neighbors_of(&response),
                            expected[qi].neighbors,
                            "client {c} request {i} diverged from direct retrieval"
                        );
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            latencies.extend(handle.join().expect("client thread"));
        }
    });
    latencies
}

/// The malformed barrage: every case must answer a typed error (4xx, a
/// JSON `error.kind`) and leave the server serving.
fn fuzz_malformed(addr: SocketAddr, dim: usize) {
    let good = vec![0.0; dim];
    let cases = [
        query_body(&good, 0, 10),
        query_body(&good, 5, 2),
        query_body(&good, 1, usize::MAX / 2),
        query_body(&[1.0, 2.0, 3.0], K, P),
        r#"{"query":"x","k":1,"p":10}"#.to_string(),
        r#"{"k":1,"p":10}"#.to_string(),
        "not json".to_string(),
        String::new(),
    ];
    for body in &cases {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let (status, response) = post(&mut stream, body);
        assert!(
            (400..500).contains(&status),
            "malformed request must be a typed 4xx, got {status}: {response}"
        );
        JsonValue::parse(&response)
            .expect("error body must be JSON")
            .get("error")
            .expect("error body must carry `error`");
    }
    // Raw garbage that is not HTTP at all. Half-closing the write side
    // lets the server see end-of-input mid-line and answer at once, rather
    // than wait out its read timeout for a newline that never comes.
    for garbage in ["\0\0\0\0", "GARBAGE\r\n\r\n", "POST /query HTTP/2\r\n\r\n"] {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(garbage.as_bytes()).expect("write");
        stream.shutdown(Shutdown::Write).expect("half-close");
        let mut response = Vec::new();
        let _ = stream.read_to_end(&mut response);
        let text = String::from_utf8_lossy(&response);
        assert!(
            text.starts_with("HTTP/1.1 400"),
            "garbage must answer 400, got: {text:?}"
        );
    }
    println!(
        "fuzz: {} malformed + 3 garbage requests all answered typed errors, server alive ✓",
        cases.len()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let distance = LpDistance::l2();

    let (api, database, queries) = match args.as_slice() {
        [snapshot] => {
            let (database, queries) = ci_workload();
            let start = Instant::now();
            let options =
                LoadOptions::new(Box::new(LpDistance::l2())).with_database(database.clone());
            let api = QseApi::load(SnapshotSource::File(snapshot.as_ref()), options)
                .unwrap_or_else(|e| {
                    eprintln!("failed to load snapshot {snapshot}: {e}");
                    std::process::exit(1);
                });
            println!(
                "loaded {} snapshot ({} rows, dim {}) into the serving facade in {:.2?}",
                api.backend(),
                api.len(),
                api.dim(),
                start.elapsed()
            );
            (api, database, queries)
        }
        [] => {
            let (database, queries) = local_workload();
            let model = train_model(&database, &distance);
            let index = RoutedIndex::<_, u8>::build_query_sensitive_with_store(
                model,
                &database,
                &distance,
                RoutedConfig {
                    cells: 32,
                    n_probe: 6,
                    ..RoutedConfig::default()
                },
            );
            // Round-trip through snapshot bytes even locally — the point
            // is the deployment path, not the in-process object.
            let bytes = index.to_snapshot_bytes().expect("snapshot bytes");
            let options =
                LoadOptions::new(Box::new(LpDistance::l2())).with_database(database.clone());
            let api =
                QseApi::load(SnapshotSource::Bytes(&bytes), options).expect("facade from bytes");
            println!(
                "built + byte-round-tripped a {} backend ({} rows, dim {})",
                api.backend(),
                api.len(),
                api.dim()
            );
            (api, database, queries)
        }
        _ => {
            eprintln!("usage: serve_snapshot [snapshot-file]");
            std::process::exit(2);
        }
    };
    drop(database);

    // Ground truth before the server takes ownership of the facade.
    let expected: Vec<QueryResult> = api
        .try_query_batch(&queries, K, P)
        .expect("ground-truth batch");

    let mut server = QseServer::start(api, ServeConfig::default()).expect("server start");
    let addr = server.addr();
    println!("serving on {addr} ({CLIENTS} clients × {REQUESTS_PER_CLIENT} requests)");

    let wall = Instant::now();
    let mut latencies = drive_load(addr, &queries, &expected);
    let wall = wall.elapsed();
    latencies.sort();
    let total = latencies.len();
    let stats = server.batcher_stats();
    println!("{total} well-formed requests, every answer bit-identical to direct retrieval ✓");
    println!(
        "latency p50 {:.2?}  p99 {:.2?}  |  {:.0} req/s",
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.99),
        total as f64 / wall.as_secs_f64()
    );
    println!(
        "admission batching: {} batches over {} queries (mean batch {:.1}), {} deduped",
        stats.batches,
        stats.queries,
        stats.queries as f64 / stats.batches.max(1) as f64,
        stats.deduped
    );

    fuzz_malformed(addr, queries[0].len());

    // And one more well-formed query after the fuzz: the process serves on.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let (status, response) = post(&mut stream, &query_body(&queries[0], K, P));
    assert_eq!(status, 200);
    assert_eq!(neighbors_of(&response), expected[0].neighbors);
    println!("post-fuzz query still bit-identical ✓");

    server.shutdown();
}
