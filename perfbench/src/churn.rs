//! `gauss-churn`: reads beside writes. A flat-u8 `ConcurrentIndex` over
//! the gauss mixture, served over HTTP with the shipped defaults. One
//! connection sends open-loop reads at a fixed rate; the other sends
//! open-loop writes at a fixed rate, alternating `POST /insert` of a fresh
//! mixture point with `POST /remove` of a seeded-random live id.
//!
//! Each write clones the O(n) id map and leaves a tombstone that later
//! reads still scan, so a change that speeds reads by slowing publish (or
//! the reverse) shows up here.

use std::sync::Arc;
use std::time::{Duration, Instant};

use qse_core::json::JsonValue;
use qse_core::QseModel;
use qse_distance::{CountingDistance, DistanceMeasure, LpDistance};
use qse_retrieval::{ground_truth, ConcurrentIndex, DynamicIndex, FilterRefineIndex};
use qse_serve::{wire, Batcher, BatcherConfig, QseApi, QseServer, ServeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::client::{drive_all, Completion, Conn, Request};
use crate::common::{self, ns_to_ms, ns_to_us, query_body, secs, Size, K, P};
use crate::gauss_serve::{evaluation_queries, mixture, report_split};
use crate::report::Outcome;
use crate::schedule::{derive, poisson};
use crate::stats::{median, p99_or_supported, percentile, sorted};
use crate::trace::Trace;
use crate::Args;

/// Offered read rate on the read connection, low enough that queueing
/// behind the previous read barely amplifies the machine's own noise.
const READ_RATE: f64 = 150.0;
/// Offered write rate on the write connection (inserts and removes).
const WRITE_RATE: f64 = 250.0;
/// Distinct read queries the schedule cycles through.
const QUERY_POOL: usize = 2048;
/// Load windows; the headline read latencies are medians over them, so
/// one stall of the shared machine moves one window, not the result.
const WINDOWS: usize = 4;
/// Insert/remove pairs timed in process in the traced run.
const WRITE_REPLAYS: usize = 50;

struct Deployment {
    server: QseServer,
    index: ConcurrentIndex<Vec<f64>, u8>,
    model: QseModel<Vec<f64>>,
    train_s: f64,
    build_s: f64,
    setup_s: f64,
}

/// Train, build the concurrent index and serve it. All of it is
/// `setup_s`. (The concurrent index has no snapshot format of its own.)
fn deploy(points: Vec<Vec<f64>>) -> Deployment {
    let l2 = LpDistance::l2();
    let t = Instant::now();
    let model = common::train_model(&points, &l2);
    let train_s = secs(t);
    let tb = Instant::now();
    let index = ConcurrentIndex::from_dynamic(DynamicIndex::<_, u8>::with_store(
        model.clone(),
        points,
        &l2,
    ));
    let build_s = secs(tb);
    let api = QseApi::from_concurrent(index.clone(), Box::new(LpDistance::l2()))
        .expect("serve the concurrent index");
    let server = QseServer::start(api, ServeConfig::default()).expect("start the server");
    Deployment {
        server,
        index,
        model,
        train_s,
        build_s,
        setup_s: secs(t),
    }
}

/// A write the schedule sends and the answer it must get back.
struct Write {
    insert: bool,
    /// The id the response must name.
    id: usize,
    /// The live count the response must report.
    len: usize,
}

/// The read and write schedules of load window `window`, each of
/// `duration`.
fn schedules(
    seed: u64,
    window: usize,
    duration: Duration,
    n: usize,
    bodies: &[String],
    fresh: &[Vec<f64>],
) -> (Vec<Request>, Vec<Request>, Vec<Write>) {
    let seed = derive(seed, 100 + window as u64);
    let reads: Vec<Request> = poisson(derive(seed, 20), READ_RATE, duration)
        .into_iter()
        .enumerate()
        .map(|(i, at)| Request {
            at,
            path: "/query",
            body: bodies[(i + window * 997) % bodies.len()].clone(),
            keep: false,
        })
        .collect();
    // Inserts take fresh points in order; about half of a window's writes
    // are inserts.
    let first_fresh = window * (WRITE_RATE * duration.as_secs_f64() * 0.6) as usize;
    let mut ids = StdRng::seed_from_u64(derive(seed, 21));
    let mut writes = Vec::new();
    let mut expect = Vec::new();
    let mut arrivals = poisson(derive(seed, 22), WRITE_RATE, duration);
    // Whole insert/remove pairs, so the live count ends where it began.
    arrivals.truncate(arrivals.len() / 2 * 2);
    for (j, at) in arrivals.into_iter().enumerate() {
        // The writer is the only mutator and alternates, so the live
        // count is n before each insert and n + 1 before each remove.
        let insert = j % 2 == 0;
        let (body, id, len) = if insert {
            let coords: Vec<String> = fresh[(first_fresh + j / 2) % fresh.len()]
                .iter()
                .map(|x| format!("{x:?}"))
                .collect();
            (format!(r#"{{"object":[{}]}}"#, coords.join(",")), n, n + 1)
        } else {
            let id = ids.gen_range(0..n + 1);
            (format!(r#"{{"id":{id}}}"#), id, n)
        };
        writes.push(Request {
            at,
            path: if insert { "/insert" } else { "/remove" },
            body,
            keep: true,
        });
        expect.push(Write { insert, id, len });
    }
    (reads, writes, expect)
}

/// Account for a phase's reads and writes; a write whose response names
/// the wrong id or live count, or skips an epoch, is a failure.
fn account(
    phase: &str,
    reads: &[Completion],
    writes: &[Completion],
    expect: &[Write],
    out: &mut Outcome,
) {
    for c in reads {
        out.ledger.record(phase, "read", c.ok);
    }
    let mut last_epoch: Option<f64> = None;
    let mut wrong = 0;
    for (c, w) in writes.iter().zip(expect) {
        let op = if w.insert { "insert" } else { "remove" };
        let ok = c.ok
            && c.body.as_deref().is_some_and(|body| {
                let Ok(v) = JsonValue::parse(body) else {
                    return false;
                };
                let field = |k: &str| v.get(k).and_then(|x| x.as_f64()).ok();
                let epoch = field("epoch");
                let consecutive = match (last_epoch, epoch) {
                    (Some(prev), Some(e)) => e == prev + 1.0,
                    _ => true,
                };
                last_epoch = epoch;
                consecutive
                    && field("id") == Some(w.id as f64)
                    && field("len") == Some(w.len as f64)
            });
        if c.ok && !ok {
            wrong += 1;
        }
        out.ledger.record(phase, op, ok);
    }
    if wrong > 0 {
        out.fail(&format!("{wrong} write responses were wrong"));
    }
}

fn ms(completions: &[Completion]) -> Vec<f64> {
    sorted(
        completions
            .iter()
            .map(|c| c.latency.as_secs_f64() * 1e3)
            .collect(),
    )
}

pub fn run(args: &Args, size: &Size, recall_floor: f64, out: &mut Outcome) {
    let mix = mixture(size);
    let n = mix.points.len();
    let queries = mix.queries(QUERY_POOL, derive(args.seed, 3));
    let fresh = mix.queries((WRITE_RATE * args.seconds) as usize, derive(args.seed, 5));
    let bodies: Vec<String> = queries.iter().map(|q| query_body(q)).collect();

    let reps = if args.trace { 1 } else { size.setup_reps };
    let mut setup_s = Vec::new();
    let mut deployment = None;
    for _ in 0..reps {
        drop(deployment.take());
        let points = mix.points.clone();
        let d = deploy(points);
        setup_s.push(d.setup_s);
        deployment = Some(d);
    }
    let d = deployment.expect("at least one set-up");
    let addr = d.server.addr();

    let window = Duration::from_secs_f64(args.seconds / WINDOWS as f64);
    let warmup: Vec<Request> = poisson(
        derive(args.seed, 23),
        READ_RATE,
        Duration::from_secs_f64(0.5f64.min(args.seconds / 4.0)),
    )
    .into_iter()
    .enumerate()
    .map(|(i, at)| Request {
        at,
        path: "/query",
        body: bodies[(i + 1000) % bodies.len()].clone(),
        keep: false,
    })
    .collect();
    let (_, warm) = drive_all(addr, &[warmup]);
    account("warmup", &warm[0], &[], &[], out);
    let (mut p50s, mut p99s, mut read_ms, mut write_ms, mut late_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut busy_s = 0.0;
    for w in 0..WINDOWS {
        let (reads, writes, expect) = schedules(args.seed, w, window, n, &bodies, &fresh);
        let (_, done) = drive_all(addr, &[reads, writes]);
        account(&format!("window{w}"), &done[0], &done[1], &expect, out);
        let reads_ms = ms(&done[0]);
        let (p99, q) = p99_or_supported(&reads_ms);
        println!(
            "window {w} reads n={} p50={:.4}ms p{}={p99:.4}ms writes n={} p50={:.4}ms",
            reads_ms.len(),
            median(&reads_ms),
            q * 100.0,
            done[1].len(),
            median(&ms(&done[1])),
        );
        p50s.push(median(&reads_ms));
        p99s.push(p99);
        let last = done[0].iter().map(|c| c.done).max().unwrap_or_default();
        busy_s += last.max(window).as_secs_f64();
        read_ms.extend(reads_ms);
        write_ms.extend(ms(&done[1]));
        late_ms.extend(done[0].iter().map(|c| c.late.as_secs_f64() * 1e3));
    }
    let (read_ms, write_ms, late_ms) = (sorted(read_ms), sorted(write_ms), sorted(late_ms));
    let read_qps = read_ms.len() as f64 / busy_s;

    // Evaluation set at the final epoch: served answers must equal the
    // in-process facade's, and recall is against brute force over the
    // final live set.
    let reader = d.index.reader();
    let snapshot = reader.snapshot();
    if snapshot.len() != n {
        out.fail(&format!(
            "{} live objects after churn, expected {n}",
            snapshot.len()
        ));
    }
    let live: Vec<Vec<f64>> = (0..snapshot.len())
        .map(|g| snapshot.object(g).clone())
        .collect();
    let eval = evaluation_queries(&mix, size);
    let api = d.server.api();
    let mut conn = Conn::new(addr);
    let counting = CountingDistance::new(LpDistance::l2());
    let (mut answers, mut counted, mut wrong) = (Vec::new(), 0u64, 0usize);
    for q in &eval {
        let served = conn.post("/query", &query_body(q));
        let expected = api.try_query(q, K, P);
        let same = match (&served, &expected) {
            (Ok(r), Ok(e)) if r.status == 200 => {
                common::parse_result(&r.body).is_some_and(|got| common::same_answer(&got, e))
            }
            _ => false,
        };
        wrong += usize::from(served.is_ok() && !same);
        out.ledger.record("check", "read", same);
        counting.reset();
        let ids = snapshot
            .try_retrieve(q, &counting, K, P)
            .unwrap_or_default();
        counted += counting.count();
        answers.push(ids);
    }
    if wrong > 0 {
        out.fail(&format!(
            "{wrong} served answers differ from the in-process facade"
        ));
    }
    let truth: Vec<Vec<usize>> = ground_truth(&eval, &live, &LpDistance::l2(), K, 2)
        .into_iter()
        .map(|t| t.neighbors)
        .collect();
    let recall = common::recall(&answers, &truth);
    if recall < recall_floor {
        out.fail(&format!(
            "recall@10 {recall:.4} is below the floor {recall_floor}"
        ));
    }
    let dist_per_query = counted as f64 / eval.len() as f64;
    drop(snapshot);

    let (nr, nw) = (read_ms.len(), write_ms.len());
    let (write_p99, _) = p99_or_supported(&write_ms);
    if args.trace {
        traced(
            args, size, &d, &bodies, &queries, &fresh, &live, &read_ms, out,
        );
        out.metric("write_p50_ms", "ms", median(&write_ms), nw);
        out.metric("write_p99_ms", "ms", write_p99, nw);
        out.metric("gen.late_ms", "ms", percentile(&late_ms, 0.99), nr);
        out.metric("train.s", "s", d.train_s, 1);
        out.metric("build.s", "s", d.build_s, 1);
    } else {
        let setup_sorted = sorted(setup_s);
        out.metric("setup_s", "s", median(&setup_sorted), setup_sorted.len());
        out.metric("query_p50_ms", "ms", median(&sorted(p50s)), nr);
        out.metric("query_p99_ms", "ms", median(&sorted(p99s)), nr);
        out.metric("query_qps", "queries/s", read_qps, nr);
        out.metric("recall_at_10", "fraction", recall, eval.len());
        out.metric("dist_per_query", "count", dist_per_query, eval.len());
        println!(
            "info pooled_read_p99={:.4} ms write_p50={:.4} ms write_p99={write_p99:.4} ms (n={nw}) gen.late_p99={:.4} ms",
            p99_or_supported(&read_ms).0,
            median(&write_ms),
            percentile(&late_ms, 0.99)
        );
    }
    out.meta("read_rate", format!("{READ_RATE}"));
    out.meta("write_rate", format!("{WRITE_RATE}"));
}

/// The traced run: the first load window again with a span per HTTP
/// request, then a sample of reads
/// replayed through each layer's entry point and a few writes timed in
/// process.
#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    size: &Size,
    d: &Deployment,
    bodies: &[String],
    queries: &[Vec<f64>],
    fresh: &[Vec<f64>],
    live: &[Vec<f64>],
    untraced_ms: &[f64],
    out: &mut Outcome,
) {
    let l2 = LpDistance::l2();
    let mut trace = Trace::new();
    let n = live.len();
    let (reads, writes, expect) = schedules(
        args.seed,
        0,
        Duration::from_secs_f64(args.seconds / WINDOWS as f64),
        n,
        bodies,
        fresh,
    );
    let before = d.server.batcher_stats();
    let (start, done) = drive_all(d.server.addr(), &[reads, writes]);
    let after = d.server.batcher_stats();
    account("traced", &done[0], &done[1], &expect, out);
    let span_of = |trace: &mut Trace, name, req, c: &Completion| {
        let end = start + c.done;
        trace.record(name, req, None, end - c.rtt, end)
    };
    let mut http = Vec::new();
    for (i, c) in done[0].iter().enumerate() {
        http.push((
            span_of(&mut trace, "http.request", i as u64, c),
            i % queries.len(),
        ));
    }
    for (j, c) in done[1].iter().enumerate() {
        let name = if expect[j].insert {
            "http.insert"
        } else {
            "http.remove"
        };
        span_of(&mut trace, name, (done[0].len() + j) as u64, c);
    }

    let reader = d.index.reader();
    let snapshot = reader.snapshot();
    let flat =
        FilterRefineIndex::<_, u8>::build_query_sensitive_with_store(d.model.clone(), live, &l2);
    let p_eff = ((P as f64 * snapshot.p_scale()).ceil() as usize).min(live.len());
    let api: Arc<QseApi> = Arc::clone(d.server.api());
    let batcher = Batcher::start(Arc::clone(&api), BatcherConfig::default());
    let stride = (http.len() / size.traced_requests).max(1);
    let mut batcher_failed = 0usize;
    let (mut embedding_cost, mut refine_cost) = (Vec::new(), Vec::new());
    for &(root, q) in http.iter().step_by(stride) {
        let req = trace.spans()[root].request;
        let query = &queries[q];
        let body = query_body(query);
        let _ = trace.time("wire.parse", req, None, || wire::parse_query_request(&body));
        let (b, answer) = trace.time("batcher.query", req, Some(root), || {
            batcher.query(query.clone(), K, P)
        });
        let Ok(answer) = answer else {
            batcher_failed += 1;
            continue;
        };
        trace.time("wire.serialize", req, None, || wire::result_json(&answer));
        let batch = [query.clone()];
        let (a, _) = trace.time("api.execute", req, Some(b), || {
            api.try_query_batch(&batch, K, P)
        });
        let (ix, _) = trace.time("index.retrieve", req, Some(a), || {
            reader.try_retrieve(query, &l2, K, P)
        });
        trace.time("read.pin", req, Some(ix), || reader.snapshot());
        let (top, (candidates, cost)) = trace.time("filter.top_p", req, Some(ix), || {
            flat.filter_top_p(query, &l2, p_eff)
        });
        embedding_cost.push(cost as f64);
        refine_cost.push(candidates.len() as f64);
        let (_, eq) = trace.time("model.embed", req, Some(top), || {
            d.model.embed_query(query, &l2)
        });
        let mut scores = vec![0.0; flat.len()];
        trace.time("filter.scan", req, Some(top), || {
            eq.score_filter(flat.vectors(), &mut scores)
        });
        trace.time("exact.refine", req, Some(ix), || {
            candidates
                .iter()
                .map(|&i| l2.distance(query, &live[i]))
                .sum::<f64>()
        });
    }
    drop(batcher);
    let segments = reader.snapshot().segments();
    let garbage = reader.snapshot().garbage_rows();

    // Insert/remove pairs straight through the facade's write handle; the
    // remove takes back the id the insert just assigned.
    let base = (done[0].len() + done[1].len()) as u64;
    for (j, object) in fresh.iter().take(WRITE_REPLAYS).enumerate() {
        let req = base + j as u64;
        let (_, r) = trace.time("writer.insert", req, None, || {
            api.try_insert(object.clone())
        });
        let ok = r.as_ref().is_ok_and(|r| r.id == n && r.len == n + 1);
        out.ledger.record("traced-replay", "insert", ok);
        let (_, r) = trace.time("writer.remove", req, None, || api.try_remove(n));
        out.ledger
            .record("traced-replay", "remove", r.is_ok_and(|r| r.len == n));
    }

    let med = |v: Vec<f64>| {
        if v.is_empty() {
            0.0
        } else {
            median(&sorted(v))
        }
    };
    let nrep = trace.ids("batcher.query").len();
    let refine_ns = med(trace.durations_ns("exact.refine"));
    let traced_ms = ms(&done[0]);
    let dim = live[0].len() as f64;
    let rows = flat.len() as f64;
    out.metric(
        "http.rtt_ms",
        "ms",
        ns_to_ms(med(trace.durations_ns("http.request"))),
        http.len(),
    );
    out.metric(
        "http.self_ms",
        "ms",
        ns_to_ms(med(trace.replayed_self_times_ns("http.request"))),
        nrep,
    );
    out.metric(
        "wire.parse_us",
        "us",
        ns_to_us(med(trace.durations_ns("wire.parse"))),
        nrep,
    );
    out.metric(
        "wire.serialize_us",
        "us",
        ns_to_us(med(trace.durations_ns("wire.serialize"))),
        nrep,
    );
    out.metric(
        "batcher.wait_ms",
        "ms",
        ns_to_ms(med(trace.self_times_ns("batcher.query"))),
        nrep,
    );
    let batches = (after.batches - before.batches).max(1) as f64;
    let admitted = (after.queries - before.queries) as f64;
    out.metric(
        "batcher.mean_batch",
        "requests",
        admitted / batches,
        batches as usize,
    );
    out.metric(
        "batcher.dedupe_ratio",
        "fraction",
        (after.deduped - before.deduped) as f64 / admitted.max(1.0),
        admitted as usize,
    );
    out.metric("batcher.failed", "count", batcher_failed as f64, nrep);
    out.metric(
        "api.execute_ms",
        "ms",
        ns_to_ms(med(trace.durations_ns("api.execute"))),
        nrep,
    );
    out.metric(
        "index.retrieve_ms",
        "ms",
        ns_to_ms(med(trace.durations_ns("index.retrieve"))),
        nrep,
    );
    out.metric(
        "read.pin_us",
        "us",
        ns_to_us(med(trace.durations_ns("read.pin"))),
        nrep,
    );
    out.metric(
        "select.top_p_us",
        "us",
        ns_to_us(med(trace.self_times_ns("filter.top_p"))),
        nrep,
    );
    out.metric(
        "model.embed_us",
        "us",
        ns_to_us(med(trace.durations_ns("model.embed"))),
        nrep,
    );
    out.metric(
        "filter.scan_us",
        "us",
        ns_to_us(med(trace.durations_ns("filter.scan"))),
        nrep,
    );
    out.metric("filter.rows", "rows", rows, nrep);
    out.metric("filter.bytes", "bytes", rows * dim, nrep);
    out.metric("index.embedding_cost", "count", med(embedding_cost), nrep);
    out.metric("index.refine_cost", "count", med(refine_cost), nrep);
    out.metric("exact.refine_ms", "ms", ns_to_ms(refine_ns), nrep);
    out.metric(
        "exact.distance_us",
        "us",
        ns_to_us(refine_ns / p_eff as f64),
        nrep,
    );
    out.metric(
        "writer.insert_us",
        "us",
        ns_to_us(med(trace.durations_ns("writer.insert"))),
        WRITE_REPLAYS,
    );
    out.metric(
        "writer.remove_us",
        "us",
        ns_to_us(med(trace.durations_ns("writer.remove"))),
        WRITE_REPLAYS,
    );
    out.metric("concurrent.segments", "count", segments as f64, 1);
    out.metric("concurrent.garbage_rows", "rows", garbage as f64, 1);
    out.metric(
        "http.failed",
        "count",
        (out.ledger.total().failed) as f64,
        out.ledger.total().sent as usize,
    );
    out.metric(
        "trace.overhead_ms",
        "ms",
        median(&traced_ms) - median(untraced_ms),
        traced_ms.len(),
    );
    report_split(
        &trace,
        out,
        &["batcher.query", "http.request", "filter.scan"],
    );
    let path = common::out_dir().join(format!("trace-gauss-churn-{}.jsonl", args.seed));
    if let Err(e) = trace.write_jsonl(&path) {
        eprintln!("could not write {}: {e}", path.display());
    }
}
