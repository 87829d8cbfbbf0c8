//! `gauss-serve`: the deployment shape. A routed-u8 index over a
//! Gaussian mixture is saved as a snapshot, mmap-loaded through
//! `QseApi::load` and served by `QseServer` on loopback with the shipped
//! defaults; two connections replay an open-loop Poisson schedule over a
//! fixed ladder of offered rates.
//!
//! Distances are cheap (L2), so serving overhead, the admission wait and
//! the filter scan carry the query time and refine carries almost none.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qse_core::QseModel;
use qse_dataset::{GaussianMixture, GaussianMixtureConfig};
use qse_distance::{CountingDistance, DistanceMeasure, LpDistance};
use qse_retrieval::{ground_truth, FilterRefineIndex, RoutedConfig, RoutedIndex};
use qse_serve::{
    wire, Batcher, BatcherConfig, LoadOptions, QseApi, QseServer, ServeConfig, SnapshotSource,
};

use crate::client::{drive_all, Completion, Request};
use crate::common::{self, ns_to_ms, ns_to_us, query_body, secs, Size, K, P};
use crate::report::Outcome;
use crate::schedule::{derive, poisson, sample_indices};
use crate::stats::{median, p99_or_supported, percentile, sorted};
use crate::trace::Trace;
use crate::Args;

/// The rate the headline latencies are measured at, well under capacity:
/// each connection is busy about a sixth of the time, so queueing behind
/// the previous request barely amplifies the machine's own noise.
const REFERENCE_RATE: f64 = 300.0;
/// Rates between the reference rate and capacity, for the SLO search.
const LADDER_RATES: [f64; 2] = [1000.0, 1500.0];
/// An offered rate above what two connections can carry.
const SATURATION_RATE: f64 = 2500.0;
/// Windows at the reference rate; the headline p50 and p99 are medians
/// of the per-window values, so one stall of the shared machine moves one
/// window, not the result. Each window holds enough requests for a p99
/// with ten samples beyond it.
const REFERENCE_WINDOWS: usize = 5;
/// Windows above capacity; their median achieved rate is the saturation
/// throughput.
const SATURATION_WINDOWS: usize = 3;
/// The latency limit a rate's p99 must meet.
const SLO_P99_MS: f64 = 2.0;
/// Distinct queries the schedule cycles through.
const QUERY_POOL: usize = 2048;
/// Served answers compared with the in-process index.
const CHECKED_ANSWERS: usize = 64;
/// Open-loop client connections (and threads).
const CONNECTIONS: usize = 2;
/// Seed of the indexed mixture.
const DATA_SEED: u64 = 0x5EED_CAFE;
/// Seed of the evaluation queries.
const EVAL_SEED: u64 = 0xE7A1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Reference,
    Ladder,
    Saturate,
}

/// The measured phases in order, as `(kind, offered rate, share of
/// --seconds)`: the reference windows, the ladder rungs, then the
/// saturating windows (which run past their share while their backlog
/// drains).
fn plan() -> Vec<(Phase, f64, f64)> {
    let reference = (
        Phase::Reference,
        REFERENCE_RATE,
        0.633 / REFERENCE_WINDOWS as f64,
    );
    let mut phases = vec![reference; REFERENCE_WINDOWS];
    phases.extend(LADDER_RATES.map(|rate| (Phase::Ladder, rate, 0.05)));
    phases.extend([(Phase::Saturate, SATURATION_RATE, 0.03); SATURATION_WINDOWS]);
    phases
}

/// The mixture both gauss workloads index. It does not depend on the run
/// seed: the seed picks the traffic (queries, arrivals, writes, checked
/// samples), so runs with different seeds measure the same index.
pub fn mixture(size: &Size) -> GaussianMixture {
    GaussianMixture::generate(GaussianMixtureConfig {
        rows: size.gauss_rows,
        dim: size.gauss_dim,
        clusters: size.gauss_clusters,
        center_box: 10.0,
        spread: 0.5,
        seed: DATA_SEED,
    })
}

struct SetupTimes {
    total_s: f64,
    train_s: f64,
    build_s: f64,
    save_ms: f64,
    load_ms: f64,
    file_mb: f64,
}

struct Deployment {
    server: QseServer,
    /// The same index, built in process and never saved or served: the
    /// reference the served answers must equal bit for bit.
    reference: Arc<QseApi>,
    counter: CountingDistance<Vec<f64>, LpDistance>,
    model: QseModel<Vec<f64>>,
    snapshot: PathBuf,
    times: SetupTimes,
}

impl Drop for Deployment {
    fn drop(&mut self) {
        // Unlinking a mapped file is fine: the mapping lives until unmapped.
        let _ = std::fs::remove_file(&self.snapshot);
    }
}

/// The fixed evaluation set recall and cost are measured on: like the
/// index, it does not depend on the run seed, so both metrics change only
/// when the system does.
pub fn evaluation_queries(mix: &GaussianMixture, size: &Size) -> Vec<Vec<f64>> {
    mix.queries(size.gauss_checks, EVAL_SEED)
}

/// Train, build, save, mmap-load and serve. Everything up to the started
/// server is `setup_s`; the in-process reference facade is built after.
fn deploy(points: &[Vec<f64>], snapshot: PathBuf) -> Deployment {
    let l2 = LpDistance::l2();
    let t = Instant::now();
    let model = common::train_model(points, &l2);
    let train_s = secs(t);
    let tb = Instant::now();
    let index = RoutedIndex::<_, u8>::build_query_sensitive_with_store(
        model.clone(),
        points,
        &l2,
        RoutedConfig::default(),
    );
    let build_s = secs(tb);
    let ts = Instant::now();
    index.save(&snapshot).expect("save the routed snapshot");
    let save_ms = secs(ts) * 1e3;
    // The raw objects static snapshots refine against; a deployment would
    // read them from its own store.
    let database = points.to_vec();
    let tl = Instant::now();
    let api = QseApi::load(
        SnapshotSource::Mmap(&snapshot),
        LoadOptions::new(Box::new(LpDistance::l2())).with_database(database),
    )
    .expect("mmap-load the routed snapshot");
    let load_ms = secs(tl) * 1e3;
    let server = QseServer::start(api, ServeConfig::default()).expect("start the server");
    let total_s = secs(t);
    let file_mb = std::fs::metadata(&snapshot).map_or(0.0, |m| m.len() as f64 / 1e6);

    let counter = CountingDistance::new(LpDistance::l2());
    let reference = QseApi::from_routed(index, points.to_vec(), Box::new(counter.clone()))
        .expect("in-process reference facade");
    Deployment {
        server,
        reference: Arc::new(reference),
        counter,
        model,
        snapshot,
        times: SetupTimes {
            total_s,
            train_s,
            build_s,
            save_ms,
            load_ms,
            file_mb,
        },
    }
}

/// One rung's requests, dealt round-robin to the connections.
struct Rung {
    rate: f64,
    duration: Duration,
    schedules: Vec<Vec<Request>>,
    /// `(connection, position) -> query index` for every request.
    query_of: Vec<Vec<usize>>,
}

fn rung(
    seed: u64,
    stream: u64,
    rate: f64,
    duration: Duration,
    next_query: &mut usize,
    bodies: &[String],
    keep: &[usize],
) -> Rung {
    let arrivals = poisson(derive(seed, stream), rate, duration);
    let mut schedules: Vec<Vec<Request>> = (0..CONNECTIONS).map(|_| Vec::new()).collect();
    let mut query_of: Vec<Vec<usize>> = (0..CONNECTIONS).map(|_| Vec::new()).collect();
    for (i, at) in arrivals.into_iter().enumerate() {
        let q = *next_query % bodies.len();
        let seq = *next_query;
        *next_query += 1;
        schedules[i % CONNECTIONS].push(Request {
            at,
            path: "/query",
            body: bodies[q].clone(),
            keep: keep.binary_search(&seq).is_ok(),
        });
        query_of[i % CONNECTIONS].push(q);
    }
    Rung {
        rate,
        duration,
        schedules,
        query_of,
    }
}

/// What one rung measured.
#[derive(Default)]
struct RungStats {
    offered: f64,
    achieved: f64,
    latencies_ms: Vec<f64>,
    late_ms: Vec<f64>,
    failed: usize,
    p99_ms: f64,
    tail_q: f64,
    /// The window's length, or longer when its backlog drained late.
    busy_s: f64,
}

impl RungStats {
    fn meets_slo(&self) -> bool {
        self.tail_q >= 0.99
            && self.p99_ms <= SLO_P99_MS
            && self.achieved >= 0.95 * self.offered
            && self.failed == 0
    }
}

fn rung_stats(rung: &Rung, done: &[Vec<Completion>]) -> RungStats {
    let all: Vec<&Completion> = done.iter().flatten().collect();
    let last = all.iter().map(|c| c.done).max().unwrap_or_default();
    let latencies_ms = sorted(all.iter().map(|c| c.latency.as_secs_f64() * 1e3).collect());
    let (p99_ms, tail_q) = p99_or_supported(&latencies_ms);
    let busy_s = last.max(rung.duration).as_secs_f64();
    RungStats {
        offered: rung.rate,
        achieved: all.len() as f64 / busy_s,
        busy_s,
        late_ms: sorted(all.iter().map(|c| c.late.as_secs_f64() * 1e3).collect()),
        failed: all.iter().filter(|c| !c.ok).count(),
        latencies_ms,
        p99_ms,
        tail_q,
    }
}

/// Several windows at one rate as one sample: latencies pooled, achieved
/// rate over their summed busy time.
fn pooled<'a>(windows: impl Iterator<Item = &'a RungStats>) -> RungStats {
    let mut all = RungStats::default();
    for w in windows {
        all.offered = w.offered;
        all.latencies_ms.extend(&w.latencies_ms);
        all.late_ms.extend(&w.late_ms);
        all.failed += w.failed;
        all.busy_s += w.busy_s;
    }
    all.latencies_ms = sorted(all.latencies_ms);
    all.late_ms = sorted(all.late_ms);
    all.achieved = all.latencies_ms.len() as f64 / all.busy_s.max(f64::MIN_POSITIVE);
    (all.p99_ms, all.tail_q) = p99_or_supported(&all.latencies_ms);
    all
}

/// Replay a rung and account for every request; wrong answers among the
/// kept bodies are demoted to failures.
fn play(
    addr: SocketAddr,
    rung: &Rung,
    phase: &str,
    queries: &[Vec<f64>],
    reference: &QseApi,
    out: &mut Outcome,
) -> (Instant, Vec<Vec<Completion>>) {
    let (start, done) = drive_all(addr, &rung.schedules);
    let mut wrong = 0;
    for (conn, completions) in done.iter().enumerate() {
        for (pos, c) in completions.iter().enumerate() {
            out.ledger.record(phase, "read", c.ok);
            let Some(body) = &c.body else { continue };
            let expected = reference
                .try_query(&queries[rung.query_of[conn][pos]], K, P)
                .expect("in-process reference query");
            if !common::parse_result(body).is_some_and(|got| common::same_answer(&got, &expected)) {
                wrong += 1;
            }
        }
    }
    if wrong > 0 {
        out.ledger.demote(phase, "read", wrong);
        out.fail(&format!(
            "{wrong} served answers differ from the in-process index"
        ));
    }
    (start, done)
}

pub fn run(args: &Args, size: &Size, recall_floor: f64, out: &mut Outcome) {
    let mix = mixture(size);
    let points = &mix.points;
    let queries = mix.queries(QUERY_POOL, derive(args.seed, 3));
    let bodies: Vec<String> = queries.iter().map(|q| query_body(q)).collect();

    // Set up several times; keep the last deployment.
    let reps = if args.trace { 1 } else { size.setup_reps };
    let mut setup_s = Vec::new();
    let mut deployment = None;
    for rep in 0..reps {
        drop(deployment.take());
        let path = common::scratch_path(&format!("gauss-serve-{rep}.snap"));
        let d = deploy(points, path);
        setup_s.push(d.times.total_s);
        deployment = Some(d);
    }
    let d = deployment.expect("at least one set-up");
    let addr = d.server.addr();

    // Every phase's schedule, generated up front.
    let mut next_query = 0;
    let warmup = rung(
        args.seed,
        99,
        REFERENCE_RATE,
        Duration::from_secs_f64(0.5f64.min(args.seconds / 4.0)),
        &mut next_query,
        &bodies,
        &[],
    );
    let plan = plan();
    let planned = plan
        .iter()
        .map(|&(_, rate, share)| rate * share * args.seconds)
        .sum::<f64>() as usize;
    let keep: Vec<usize> = sample_indices(derive(args.seed, 4), planned, CHECKED_ANSWERS)
        .into_iter()
        .map(|i| i + next_query)
        .collect();
    let phases: Vec<Rung> = plan
        .iter()
        .enumerate()
        .map(|(i, &(_, rate, share))| {
            rung(
                args.seed,
                100 + i as u64,
                rate,
                Duration::from_secs_f64(share * args.seconds),
                &mut next_query,
                &bodies,
                &keep,
            )
        })
        .collect();

    play(addr, &warmup, "warmup", &queries, &d.reference, out);
    let mut windows: Vec<(Phase, RungStats)> = Vec::new();
    for (i, r) in phases.iter().enumerate() {
        let (_, done) = play(addr, r, &format!("phase{i}"), &queries, &d.reference, out);
        let s = rung_stats(r, &done);
        println!(
            "phase {:?} offered={:.0}/s achieved={:.1}/s n={} p50={:.4}ms p{}={:.4}ms late_p99={:.4}ms failed={}",
            plan[i].0,
            s.offered,
            s.achieved,
            s.latencies_ms.len(),
            median(&s.latencies_ms),
            s.tail_q * 100.0,
            s.p99_ms,
            percentile(&s.late_ms, 0.99),
            s.failed,
        );
        windows.push((plan[i].0, s));
    }
    let of = |phase: Phase| {
        windows
            .iter()
            .filter(move |(p, _)| *p == phase)
            .map(|(_, s)| s)
    };
    let window_median =
        |phase: Phase, f: &dyn Fn(&RungStats) -> f64| median(&sorted(of(phase).map(f).collect()));
    let query_p50 = window_median(Phase::Reference, &|s| median(&s.latencies_ms));
    let query_p99 = window_median(Phase::Reference, &|s| s.p99_ms);
    let saturation_qps = window_median(Phase::Saturate, &|s| s.achieved);
    let reference = pooled(of(Phase::Reference));
    let mut max_qps_at_slo = 0.0f64;
    let mut rates: Vec<f64> = plan.iter().map(|&(_, rate, _)| rate).collect();
    rates.dedup();
    for rate in rates {
        let at_rate = pooled(windows.iter().map(|(_, s)| s).filter(|s| s.offered == rate));
        let met = at_rate.meets_slo();
        println!(
            "slo offered={rate:.0}/s achieved={:.1}/s p{}={:.4}ms n={} {}",
            at_rate.achieved,
            at_rate.tail_q * 100.0,
            at_rate.p99_ms,
            at_rate.latencies_ms.len(),
            if met { "met" } else { "missed" }
        );
        if met {
            max_qps_at_slo = max_qps_at_slo.max(rate);
        }
    }

    // Recall and the paper's cost on the evaluation set, in process.
    let eval = evaluation_queries(&mix, size);
    let truth = ground_truth(&eval, points, &LpDistance::l2(), K, 2);
    d.counter.reset();
    let mut answers = Vec::new();
    for q in &eval {
        let r = d.reference.try_query(q, K, P);
        out.ledger.record("check", "read", r.is_ok());
        answers.push(r.map(|r| r.neighbors).unwrap_or_default());
    }
    let dist_per_query = d.counter.reset() as f64 / eval.len() as f64;
    let truth_ids: Vec<Vec<usize>> = truth.into_iter().map(|t| t.neighbors).collect();
    let recall = common::recall(&answers, &truth_ids);
    if recall < recall_floor {
        out.fail(&format!(
            "recall@10 {recall:.4} is below the floor {recall_floor}"
        ));
    }

    let n_ref = reference.latencies_ms.len();
    let late = percentile(&reference.late_ms, 0.99);
    if args.trace {
        traced(
            args,
            size,
            &d,
            &phases[0],
            &queries,
            points,
            &windows[0].1,
            out,
        );
        out.metric("max_qps_at_slo", "req/s", max_qps_at_slo, windows.len());
        out.metric("gen.late_ms", "ms", late, n_ref);
        out.metric("train.s", "s", d.times.train_s, 1);
        out.metric("build.s", "s", d.times.build_s, 1);
        out.metric("snapshot.save_ms", "ms", d.times.save_ms, 1);
        out.metric("snapshot.load_ms", "ms", d.times.load_ms, 1);
        out.metric("snapshot.file_mb", "MB", d.times.file_mb, 1);
    } else {
        let setup_sorted = sorted(setup_s);
        out.metric("setup_s", "s", median(&setup_sorted), setup_sorted.len());
        out.metric("query_p50_ms", "ms", query_p50, n_ref);
        out.metric("query_p99_ms", "ms", query_p99, n_ref);
        out.metric(
            "query_qps",
            "queries/s",
            saturation_qps,
            of(Phase::Saturate).count(),
        );
        out.metric("recall_at_10", "fraction", recall, eval.len());
        out.metric("dist_per_query", "count", dist_per_query, eval.len());
        println!("info max_qps_at_slo={max_qps_at_slo:.0} req/s gen.late_p99={late:.4} ms");
    }
    out.meta("reference_rate", format!("{REFERENCE_RATE}"));
}

/// The traced run: replay the reference rung with spans on every HTTP
/// request, then replay a sample of those requests through each layer's
/// public entry point in process.
#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    size: &Size,
    d: &Deployment,
    reference_rung: &Rung,
    queries: &[Vec<f64>],
    points: &[Vec<f64>],
    untraced: &RungStats,
    out: &mut Outcome,
) {
    let l2 = LpDistance::l2();
    let mut trace = Trace::new();
    let before = d.server.batcher_stats();
    let (start, done) = play(
        d.server.addr(),
        reference_rung,
        "traced",
        queries,
        &d.reference,
        out,
    );
    let after = d.server.batcher_stats();
    let traced_stats = rung_stats(reference_rung, &done);

    // Every HTTP request becomes a root span; a sample is replayed.
    let mut http = Vec::new();
    for (conn, completions) in done.iter().enumerate() {
        for (pos, c) in completions.iter().enumerate() {
            let end = start + c.done;
            let id = trace.record("http.request", http.len() as u64, None, end - c.rtt, end);
            http.push((id, reference_rung.query_of[conn][pos], c.ok));
        }
    }

    let index = RoutedIndex::<Vec<f64>, u8>::load_mmap(&d.snapshot).expect("map the snapshot");
    let flat =
        FilterRefineIndex::<_, u8>::build_query_sensitive_with_store(d.model.clone(), points, &l2);
    let p_eff = ((P as f64 * index.p_scale()).ceil() as usize).min(points.len());
    let cell_sizes = index.cell_sizes();
    let batcher = Batcher::start(Arc::clone(&d.reference), BatcherConfig::default());
    let stride = (http.len() / size.traced_requests).max(1);
    let mut batcher_failed = 0usize;
    let (mut embedding_cost, mut refine_cost, mut rows) = (Vec::new(), Vec::new(), Vec::new());
    for &(root, q, _) in http.iter().step_by(stride) {
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
        let batch = [query.clone()];
        let (a, _) = trace.time("api.execute", req, Some(b), || {
            d.reference.try_query_batch(&batch, K, P)
        });
        let (ix, outcome) = trace.time("index.retrieve", req, Some(a), || {
            index.try_retrieve(query, points, &l2, K, P)
        });
        let outcome = outcome.expect("in-process retrieval");
        embedding_cost.push(outcome.embedding_cost as f64);
        refine_cost.push(outcome.refine_cost as f64);
        let (probe, cells) = trace.time("routed.probe", req, Some(ix), || {
            index.probe_cells(query, &l2)
        });
        rows.push(cells.iter().map(|&c| cell_sizes[c]).sum::<usize>() as f64);
        trace.time("model.embed", req, Some(probe), || {
            d.model.embed_query(query, &l2)
        });
        let (candidates, _) = flat.filter_top_p(query, &l2, p_eff);
        trace.time("exact.refine", req, Some(ix), || {
            candidates
                .iter()
                .map(|&i| l2.distance(query, &points[i]))
                .sum::<f64>()
        });
        trace.time("wire.serialize", req, None, || wire::result_json(&answer));
    }
    drop(batcher);

    let med = |v: Vec<f64>| {
        if v.is_empty() {
            0.0
        } else {
            median(&sorted(v))
        }
    };
    let n = trace.ids("batcher.query").len();
    let refine_ns = med(trace.durations_ns("exact.refine"));
    let dim = points[0].len() as f64;
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
        n,
    );
    out.metric(
        "wire.parse_us",
        "us",
        ns_to_us(med(trace.durations_ns("wire.parse"))),
        n,
    );
    out.metric(
        "wire.serialize_us",
        "us",
        ns_to_us(med(trace.durations_ns("wire.serialize"))),
        n,
    );
    out.metric(
        "batcher.wait_ms",
        "ms",
        ns_to_ms(med(trace.self_times_ns("batcher.query"))),
        n,
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
    out.metric("batcher.failed", "count", batcher_failed as f64, n);
    out.metric(
        "api.execute_ms",
        "ms",
        ns_to_ms(med(trace.durations_ns("api.execute"))),
        n,
    );
    out.metric(
        "index.retrieve_ms",
        "ms",
        ns_to_ms(med(trace.durations_ns("index.retrieve"))),
        n,
    );
    out.metric(
        "routed.probe_us",
        "us",
        ns_to_us(med(trace.self_times_ns("routed.probe"))),
        n,
    );
    out.metric(
        "model.embed_us",
        "us",
        ns_to_us(med(trace.durations_ns("model.embed"))),
        n,
    );
    out.metric(
        "filter.scan_us",
        "us",
        ns_to_us(med(trace.self_times_ns("index.retrieve"))),
        n,
    );
    out.metric("filter.rows", "rows", med(rows.clone()), n);
    out.metric("filter.bytes", "bytes", med(rows) * dim, n);
    out.metric("index.embedding_cost", "count", med(embedding_cost), n);
    out.metric("index.refine_cost", "count", med(refine_cost), n);
    out.metric("exact.refine_ms", "ms", ns_to_ms(refine_ns), n);
    out.metric(
        "exact.distance_us",
        "us",
        ns_to_us(refine_ns / p_eff as f64),
        n,
    );
    out.metric(
        "http.failed",
        "count",
        out.ledger.op_total("read").failed as f64,
        out.ledger.op_total("read").sent as usize,
    );
    out.metric(
        "trace.overhead_ms",
        "ms",
        median(&traced_stats.latencies_ms) - median(&untraced.latencies_ms),
        traced_stats.latencies_ms.len(),
    );
    report_split(
        &trace,
        out,
        &["batcher.query", "http.request", "index.retrieve"],
    );
    let path = common::out_dir().join(format!("trace-gauss-serve-{}.jsonl", args.seed));
    if let Err(e) = trace.write_jsonl(&path) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

/// Report how the replayed requests' self time splits: the share in the
/// exact-distance refine, and the share in the `serving` spans' self time
/// (admission wait, HTTP self time, filter scan).
pub fn report_split(trace: &Trace, out: &mut Outcome, serving: &[&str]) {
    let (refine, serve, requests) = trace.split(&["exact.refine"], serving);
    out.metric("split.refine_share", "fraction", refine, requests);
    out.metric("split.serve_share", "fraction", serve, requests);
}
