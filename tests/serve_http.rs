//! HTTP front-end hardening: a served index must answer concurrent
//! well-formed queries bit-identically to direct retrieval, answer every
//! malformed request (bad `k`/`p`, wrong dimensionality, garbage bytes,
//! broken JSON, unknown routes, oversized bodies) with a **typed** error
//! response, and keep serving afterwards — no request may take down a
//! connection thread, the batcher, or the process.
//!
//! The server here is loaded from a snapshot (bytes, not a live index),
//! exercising the full cold-start path the CI integration leg and the
//! `serve_snapshot` example run end to end.

use query_sensitive_embeddings::core::json::JsonValue;
use query_sensitive_embeddings::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn clustered(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let c = rng.gen_range(0..9);
            vec![
                (c % 3) as f64 * 14.0 + rng.gen_range(-1.0..1.0),
                (c / 3) as f64 * 14.0 + rng.gen_range(-1.0..1.0),
            ]
        })
        .collect()
}

fn train_model(db: &[Vec<f64>]) -> QseModel<Vec<f64>> {
    let d = LpDistance::l2();
    let pools: Vec<Vec<f64>> = db.iter().take(60).cloned().collect();
    let data = TrainingData::precompute(pools.clone(), pools, &d, 6);
    let mut rng = StdRng::seed_from_u64(1717);
    let triples = TripleSampler::selective(4).sample(&data.train_to_train, 600, &mut rng);
    BoostMapTrainer::new(TrainerConfig::quick()).train(&data, &triples, &mut rng)
}

/// A server over a routed `u8` index that went through snapshot bytes —
/// the deployment path — plus the database for ground-truth queries.
fn snapshot_loaded_server() -> (QseServer, Vec<Vec<f64>>) {
    let db = clustered(300, 0xD0);
    let d = LpDistance::l2();
    let model = train_model(&db);
    let index = RoutedIndex::<_, u8>::build_query_sensitive_with_store(
        model,
        &db,
        &d,
        RoutedConfig {
            cells: 8,
            n_probe: 3,
            ..RoutedConfig::default()
        },
    );
    let bytes = index.to_snapshot_bytes().unwrap();
    let options = LoadOptions::new(Box::new(LpDistance::l2())).with_database(db.clone());
    let api = QseApi::load(SnapshotSource::Bytes(&bytes), options).unwrap();
    assert_eq!(api.backend(), "routed");
    let server = QseServer::start(
        api,
        ServeConfig {
            batcher: BatcherConfig {
                latency_budget: Duration::from_millis(1),
                max_batch: 16,
                workers: 2,
            },
            // Well under the 10 s client read timeout: a stalled-garbage
            // connection must be the server's timeout to win, not a
            // dead-heat race against the client's.
            read_timeout: Duration::from_secs(2),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    (server, db)
}

/// A minimal blocking HTTP/1.1 client: one request per connection.
fn http(addr: std::net::SocketAddr, request: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).unwrap();
    parse_response(&response)
}

fn parse_response(raw: &[u8]) -> (u16, String) {
    let text = String::from_utf8_lossy(raw);
    let status: u16 = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {text:?}"));
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn post_query(addr: std::net::SocketAddr, body: &str) -> (u16, String) {
    http(
        addr,
        &format!(
            "POST /query HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn query_body(query: &[f64], k: usize, p: usize) -> String {
    let coords: Vec<String> = query.iter().map(|x| format!("{x:?}")).collect();
    format!(r#"{{"query":[{}],"k":{k},"p":{p}}}"#, coords.join(","))
}

fn error_kind(body: &str) -> String {
    JsonValue::parse(body)
        .unwrap_or_else(|e| panic!("error body must be JSON ({e}): {body:?}"))
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(|k| k.as_str().map(str::to_owned))
        .unwrap_or_else(|e| panic!("error body must carry error.kind ({e}): {body:?}"))
}

#[test]
fn concurrent_queries_match_direct_retrieval() {
    let (server, db) = snapshot_loaded_server();
    let addr = server.addr();
    let api = server.api();
    let (k, p) = (3, 25);
    let queries = clustered(24, 0xD1);

    std::thread::scope(|scope| {
        for q in &queries {
            let expected = api.try_query(q, k, p).unwrap();
            scope.spawn(move || {
                let (status, body) = post_query(addr, &query_body(q, k, p));
                assert_eq!(status, 200, "body: {body}");
                let parsed = JsonValue::parse(&body).unwrap();
                let neighbors: Vec<usize> = parsed
                    .get("neighbors")
                    .unwrap()
                    .as_array()
                    .unwrap()
                    .iter()
                    .map(|v| v.as_f64().unwrap() as usize)
                    .collect();
                let distances: Vec<f64> = parsed
                    .get("distances")
                    .unwrap()
                    .as_array()
                    .unwrap()
                    .iter()
                    .map(|v| v.as_f64().unwrap())
                    .collect();
                assert_eq!(neighbors, expected.neighbors);
                // The wire format prints shortest-round-trip f64, so the
                // distances survive the JSON trip bit-exactly.
                assert_eq!(distances, expected.distances);
            });
        }
    });
    drop(db);
}

#[test]
fn malformed_requests_get_typed_errors_and_the_server_survives() {
    let (server, db) = snapshot_loaded_server();
    let addr = server.addr();
    let good = query_body(&db[0], 3, 25);

    // A fuzz loop of hostile requests, each tagged with the error kind it
    // must come back with (None = any non-200 with a JSON error shape,
    // for the raw-garbage cases that may not even reach dispatch).
    let cases: Vec<(String, Option<&str>)> = vec![
        (query_body(&db[0], 0, 10), Some("bad_k")),
        (query_body(&db[0], 5, 2), Some("bad_p")),
        (query_body(&db[0], 1, 100_000), Some("bad_p")),
        (query_body(&[1.0, 2.0, 3.0], 3, 25), Some("dim_mismatch")),
        (query_body(&[], 3, 25), Some("dim_mismatch")),
        (
            r#"{"query":"nope","k":3,"p":25}"#.into(),
            Some("bad_request"),
        ),
        (r#"{"k":3,"p":25}"#.into(), Some("bad_request")),
        (
            r#"{"query":[1.0,2.0],"k":1.5,"p":25}"#.into(),
            Some("bad_request"),
        ),
        ("not json at all".into(), Some("bad_request")),
        (String::new(), Some("bad_request")),
    ];
    for (i, (body, kind)) in cases.iter().enumerate() {
        let (status, response) = post_query(addr, body);
        assert_ne!(status, 200, "case {i} must be rejected: {body:?}");
        assert_ne!(status, 500, "case {i} must be typed, not a crash: {body:?}");
        if let Some(kind) = kind {
            assert_eq!(error_kind(&response), *kind, "case {i}: {body:?}");
        }
    }

    // Raw garbage that is not even HTTP.
    for garbage in [
        "\0\0\0\0\0\0\0\0",
        "GARBAGE\r\n\r\n",
        "GET\r\n\r\n",
        "POST /query HTTP/9.9\r\n\r\n",
        "POST /query HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
    ] {
        let (status, _) = http(addr, garbage);
        assert_eq!(status, 400, "garbage: {garbage:?}");
    }

    // Unknown routes and an oversized body.
    let (status, response) = http(
        addr,
        "GET /nope HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 404);
    assert_eq!(error_kind(&response), "not_found");
    let (status, _) = http(
        addr,
        "POST /query HTTP/1.1\r\nContent-Length: 99999999\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 413);

    // After the whole fuzz barrage the same process still answers.
    let (status, _) = post_query(addr, &good);
    assert_eq!(
        status, 200,
        "the server must still serve after the fuzz loop"
    );
    let (status, body) = http(
        addr,
        "GET /healthz HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 200);
    let health = JsonValue::parse(&body).unwrap();
    assert_eq!(health.get("status").unwrap().as_str().unwrap(), "ok");
    assert_eq!(health.get("backend").unwrap().as_str().unwrap(), "routed");
}

#[test]
fn keep_alive_carries_sequential_requests() {
    let (server, db) = snapshot_loaded_server();
    let addr = server.addr();
    let api = server.api();
    let (k, p) = (3, 25);

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for q in db.iter().take(4) {
        let body = query_body(q, k, p);
        stream
            .write_all(
                format!(
                    "POST /query HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            )
            .unwrap();
        // Read exactly one response: headers, then Content-Length bytes.
        let mut raw = Vec::new();
        let mut byte = [0u8; 1];
        while !raw.ends_with(b"\r\n\r\n") {
            stream.read_exact(&mut byte).unwrap();
            raw.push(byte[0]);
        }
        let head = String::from_utf8_lossy(&raw).to_string();
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        let mut body_buf = vec![0u8; len];
        stream.read_exact(&mut body_buf).unwrap();
        let (status, _) = parse_response(&[raw.clone(), body_buf.clone()].concat());
        assert_eq!(status, 200);
        let parsed = JsonValue::parse(&String::from_utf8(body_buf).unwrap()).unwrap();
        let expected = api.try_query(q, k, p).unwrap();
        let neighbors: Vec<usize> = parsed
            .get("neighbors")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap() as usize)
            .collect();
        assert_eq!(neighbors, expected.neighbors);
    }
}

#[test]
fn snapshot_facade_rejects_wrong_setups() {
    let db = clustered(120, 0xD2);
    let d = LpDistance::l2();
    let model = train_model(&db);
    let index = FilterRefineIndex::<_, u8>::build_query_sensitive_with_store(model, &db, &d);
    let bytes = index.to_snapshot_bytes().unwrap();

    // A static snapshot without its database cannot serve.
    assert!(matches!(
        QseApi::load(
            SnapshotSource::Bytes(&bytes),
            LoadOptions::new(Box::new(LpDistance::l2()))
        ),
        Err(ServeError::DatabaseRequired)
    ));
    // Corrupt bytes surface the snapshot error, typed.
    assert!(matches!(
        QseApi::load(
            SnapshotSource::Bytes(&bytes[..10]),
            LoadOptions::new(Box::new(LpDistance::l2())).with_database(db.clone())
        ),
        Err(ServeError::Snapshot(_))
    ));
    // A database of the wrong length is refused at construction.
    assert!(matches!(
        QseApi::load(
            SnapshotSource::Bytes(&bytes),
            LoadOptions::new(Box::new(LpDistance::l2())).with_database(db[..50].to_vec())
        ),
        Err(ServeError::BadDatabase(_))
    ));
    // The right setup loads and serves.
    let options = LoadOptions::new(Box::new(LpDistance::l2())).with_database(db.clone());
    let api = QseApi::load(SnapshotSource::Bytes(&bytes), options).unwrap();
    assert_eq!(api.backend(), "static");
    assert_eq!(api.len(), 120);
    assert_eq!(api.dim(), 2);
    assert!(api.try_query(&db[3], 3, 20).is_ok());
}

/// A server over a live concurrent index — the mutable deployment path:
/// the facade claims the write handle, HTTP gets `/insert` + `/remove`.
fn concurrent_server() -> (QseServer, Vec<Vec<f64>>) {
    let db = clustered(200, 0xE0);
    let d = LpDistance::l2();
    let model = train_model(&db);
    let index = ConcurrentIndex::from_dynamic(DynamicIndex::new(model, db.clone(), &d));
    let api = QseApi::from_concurrent(index, Box::new(LpDistance::l2())).unwrap();
    assert_eq!(api.backend(), "concurrent");
    let server = QseServer::start(
        api,
        ServeConfig {
            batcher: BatcherConfig {
                latency_budget: Duration::from_millis(1),
                max_batch: 16,
                workers: 2,
            },
            // Well under the 10 s client read timeout: a stalled-garbage
            // connection must be the server's timeout to win, not a
            // dead-heat race against the client's.
            read_timeout: Duration::from_secs(2),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    (server, db)
}

fn get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    http(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"),
    )
}

fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> (u16, String) {
    http(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

#[test]
fn info_reports_the_identity_card_and_immutable_backends_reject_mutation() {
    let (server, _db) = snapshot_loaded_server();
    let addr = server.addr();

    let (status, body) = get(addr, "/info");
    assert_eq!(status, 200, "body: {body}");
    let info = JsonValue::parse(&body).unwrap();
    assert_eq!(info.get("backend").unwrap().as_str().unwrap(), "routed");
    assert_eq!(info.get("len").unwrap().as_f64().unwrap() as usize, 300);
    assert_eq!(info.get("dim").unwrap().as_f64().unwrap() as usize, 2);
    assert!(matches!(
        info.get("mutable").unwrap(),
        JsonValue::Bool(false)
    ));
    assert!(
        matches!(info.get("epoch").unwrap(), JsonValue::Null),
        "a snapshot-loaded routed index has no epochs: {body}"
    );

    // The mutation routes exist but the backend refuses, typed.
    let (status, body) = post(addr, "/insert", r#"{"object":[1.0,2.0]}"#);
    assert_eq!(status, 400, "body: {body}");
    assert_eq!(error_kind(&body), "mutation_unsupported");
    let (status, body) = post(addr, "/remove", r#"{"id":0}"#);
    assert_eq!(status, 400, "body: {body}");
    assert_eq!(error_kind(&body), "mutation_unsupported");
}

#[test]
fn live_mutation_over_http_round_trips() {
    let (server, db) = concurrent_server();
    let addr = server.addr();
    let n = db.len();

    // The identity card of a mutable backend: epoch 0 before any write.
    let (status, body) = get(addr, "/info");
    assert_eq!(status, 200, "body: {body}");
    let info = JsonValue::parse(&body).unwrap();
    assert_eq!(info.get("backend").unwrap().as_str().unwrap(), "concurrent");
    assert!(matches!(
        info.get("mutable").unwrap(),
        JsonValue::Bool(true)
    ));
    assert_eq!(info.get("epoch").unwrap().as_f64().unwrap() as u64, 0);

    // Insert a far-away landmark; the response names its id and the new
    // epoch, and an immediate query finds it as its own 1-NN.
    let landmark = [97.5, -44.25];
    let (status, body) = post(addr, "/insert", r#"{"object":[97.5,-44.25]}"#);
    assert_eq!(status, 200, "body: {body}");
    let report = JsonValue::parse(&body).unwrap();
    let id = report.get("id").unwrap().as_f64().unwrap() as usize;
    assert_eq!(id, n);
    assert_eq!(report.get("len").unwrap().as_f64().unwrap() as usize, n + 1);
    assert_eq!(report.get("epoch").unwrap().as_f64().unwrap() as u64, 1);
    let (status, body) = post_query(addr, &query_body(&landmark, 1, 10));
    assert_eq!(status, 200, "body: {body}");
    let hit = JsonValue::parse(&body).unwrap();
    assert_eq!(
        hit.get("neighbors").unwrap().as_array().unwrap()[0]
            .as_f64()
            .unwrap() as usize,
        id
    );

    // Remove it again (swap-remove semantics; it is the last id, so the
    // length just shrinks back) and the epoch advances once more.
    let (status, body) = post(addr, "/remove", &format!(r#"{{"id":{id}}}"#));
    assert_eq!(status, 200, "body: {body}");
    let report = JsonValue::parse(&body).unwrap();
    assert_eq!(report.get("len").unwrap().as_f64().unwrap() as usize, n);
    assert_eq!(report.get("epoch").unwrap().as_f64().unwrap() as u64, 2);

    // Typed rejections: stale id, wrong dimensionality, malformed JSON,
    // missing body — and the server keeps serving after all of them.
    let (status, body) = post(addr, "/remove", &format!(r#"{{"id":{}}}"#, 10 * n));
    assert_eq!(status, 400, "body: {body}");
    assert_eq!(error_kind(&body), "bad_id");
    let (status, body) = post(addr, "/insert", r#"{"object":[1.0,2.0,3.0]}"#);
    assert_eq!(status, 400, "body: {body}");
    assert_eq!(error_kind(&body), "dim_mismatch");
    let (status, body) = post(addr, "/insert", r#"{"object":"nope"}"#);
    assert_eq!(status, 400, "body: {body}");
    assert_eq!(error_kind(&body), "bad_request");
    let (status, body) = http(
        addr,
        "POST /insert HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 411, "body: {body}");
    let (status, body) = post_query(addr, &query_body(&db[0], 3, 20));
    assert_eq!(
        status, 200,
        "the server must survive rejected mutations: {body}"
    );
}

#[test]
fn queries_keep_draining_while_writes_land() {
    let (server, db) = concurrent_server();
    let addr = server.addr();
    let api = server.api();
    let writes = 12;

    std::thread::scope(|scope| {
        // A writer hammers insert/remove pairs over HTTP...
        scope.spawn(move || {
            for i in 0..writes {
                let x = 200.0 + i as f64;
                let (status, body) =
                    post(addr, "/insert", &format!(r#"{{"object":[{x:?},{x:?}]}}"#));
                assert_eq!(status, 200, "write {i}: {body}");
                let id = JsonValue::parse(&body)
                    .unwrap()
                    .get("id")
                    .unwrap()
                    .as_f64()
                    .unwrap() as usize;
                let (status, body) = post(addr, "/remove", &format!(r#"{{"id":{id}}}"#));
                assert_eq!(status, 200, "unwrite {i}: {body}");
            }
        });
        // ...while readers keep getting well-formed answers. (The index
        // length oscillates, so neighbor sets are epoch-dependent; the
        // invariant here is liveness plus well-formedness — the
        // bit-identity contract is pinned by tests/concurrent_index.rs.)
        for q in db.iter().take(16) {
            let (status, body) = post_query(addr, &query_body(q, 3, 20));
            assert_eq!(status, 200, "read under write: {body}");
            let parsed = JsonValue::parse(&body).unwrap();
            assert_eq!(
                parsed.get("neighbors").unwrap().as_array().unwrap().len(),
                3
            );
        }
    });

    // Afterwards the facade agrees with the final state: every write was
    // undone, so direct retrieval matches a fresh HTTP query.
    assert_eq!(api.len(), db.len());
    assert_eq!(api.info().epoch, Some(2 * writes as u64));
    let expected = api.try_query(&db[1], 3, 20).unwrap();
    let (status, body) = post_query(addr, &query_body(&db[1], 3, 20));
    assert_eq!(status, 200);
    let parsed = JsonValue::parse(&body).unwrap();
    let neighbors: Vec<usize> = parsed
        .get("neighbors")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|v| v.as_f64().unwrap() as usize)
        .collect();
    assert_eq!(neighbors, expected.neighbors);
}

#[test]
fn shutdown_returns_promptly_without_a_final_client() {
    let (mut server, _db) = snapshot_loaded_server();
    // Nobody connects after startup: the accept thread is parked inside
    // `accept()`. Shutdown must unblock it directly rather than waiting
    // for a next connection (or a timeout) to arrive.
    let start = std::time::Instant::now();
    server.shutdown();
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "shutdown took {elapsed:?}; the accept thread was not unblocked"
    );
    // Idempotent: a second call is a no-op.
    server.shutdown();
}
