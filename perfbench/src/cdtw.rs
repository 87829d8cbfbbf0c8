//! `cdtw-search`: the paper's own regime. A flat u8
//! `FilterRefineIndex<TimeSeries, _>` under `ConstrainedDtw::paper()`,
//! queried in process by two caller threads in a closed loop (`QseApi`
//! serves only `Vec<f64>` objects).
//!
//! Exact distances cost about 13 µs each, so refine carries most of the
//! query time and the embedding most of the rest, while the filter scan
//! over a few thousand short rows is negligible: the opposite split from
//! `gauss-serve`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use qse_core::QseModel;
use qse_distance::{ConstrainedDtw, CountingDistance, DistanceMeasure, TimeSeries};
use qse_retrieval::{ground_truth, FilterRefineIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{self, ns_to_ms, ns_to_us, secs, Size, K, P};
use crate::report::Outcome;
use crate::schedule::derive;
use crate::stats::{median, p99_or_supported, sorted};
use crate::trace::Trace;
use crate::Args;

/// Caller threads of the closed loop.
const CALLERS: usize = 2;
/// Distinct queries the callers cycle through.
const QUERY_POOL: usize = 512;
/// Seed of the indexed series.
const DATA_SEED: u64 = 0xD7A_5EED;
/// Seed of the evaluation queries.
const EVAL_SEED: u64 = 0xE7A1;

type Index = FilterRefineIndex<TimeSeries, u8>;

/// One closed-loop call.
struct Call {
    start: Instant,
    end: Instant,
    query: usize,
    ok: bool,
}

/// Run the closed loop for `seconds`: each caller issues its next query
/// as soon as the last one returns. Returns every call and the wall time.
fn closed_loop(
    index: &Index,
    database: &[TimeSeries],
    queries: &[TimeSeries],
    seconds: f64,
) -> (Vec<Call>, f64) {
    let dtw = ConstrainedDtw::paper();
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let calls = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|c| {
                let (stop, dtw) = (&stop, &dtw);
                scope.spawn(move || {
                    let mut calls = Vec::new();
                    let mut q = c;
                    while !stop.load(Ordering::Relaxed) {
                        let query = q % queries.len();
                        let start = Instant::now();
                        let r = index.try_retrieve(&queries[query], database, dtw, K, P);
                        let ok = std::hint::black_box(r).is_ok();
                        calls.push(Call {
                            start,
                            end: Instant::now(),
                            query,
                            ok,
                        });
                        q += CALLERS;
                    }
                    calls
                })
            })
            .collect();
        std::thread::sleep(Duration::from_secs_f64(seconds));
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("caller thread panicked"))
            .collect()
    });
    (calls, secs(started))
}

pub fn run(args: &Args, size: &Size, recall_floor: f64, out: &mut Outcome) {
    let dtw = ConstrainedDtw::paper();
    // The indexed series do not depend on the run seed; the seed picks the
    // queries.
    let mut rng = StdRng::seed_from_u64(DATA_SEED);
    let generator = qse_dataset::TimeSeriesGenerator::with_default_config(&mut rng);
    let database = generator.generate_unlabeled(size.series, &mut rng);
    let patterns = generator.seeds().len();
    let draw = |count: usize, seed: u64| -> Vec<TimeSeries> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| generator.variation(rng.gen_range(0..patterns), &mut rng))
            .collect()
    };
    let queries = draw(QUERY_POOL, derive(args.seed, 3));
    // Recall and cost are measured on a fixed evaluation set: like the
    // index, it does not depend on the run seed.
    let eval = draw(size.cdtw_checks, EVAL_SEED);

    // Set up several times; keep the last index.
    let reps = if args.trace { 1 } else { size.setup_reps };
    let (mut setup_s, mut train_s, mut build_s) = (Vec::new(), 0.0, 0.0);
    let mut built = None;
    for _ in 0..reps {
        drop(built.take());
        let t = Instant::now();
        let model = common::train_model(&database, &dtw);
        train_s = secs(t);
        let tb = Instant::now();
        let index = Index::build_query_sensitive_with_store(model.clone(), &database, &dtw);
        build_s = secs(tb);
        setup_s.push(secs(t));
        built = Some((index, model));
    }
    let (index, model) = built.expect("at least one set-up");

    let (calls, wall) = closed_loop(&index, &database, &queries, args.seconds);
    let mut latencies = Vec::new();
    for c in &calls {
        out.ledger.record("load", "read", c.ok);
        if c.ok {
            latencies.push((c.end - c.start).as_secs_f64() * 1e3);
        }
    }
    let latencies = sorted(latencies);
    let completed = latencies.len();

    // Evaluation set: the cost the outcome reports must equal the
    // distances actually computed, and recall must clear the floor.
    let counting = CountingDistance::new(ConstrainedDtw::paper());
    let (mut answers, mut counted) = (Vec::new(), 0u64);
    for q in &eval {
        counting.reset();
        let r = index.try_retrieve(q, &database, &counting, K, P);
        let count = counting.count();
        match r {
            Ok(o) if o.total_cost() as u64 == count => {
                out.ledger.record("check", "read", true);
                answers.push(o.neighbors);
            }
            Ok(o) => {
                out.ledger.record("check", "read", false);
                out.fail(&format!(
                    "outcome reports {} exact distances but {count} were computed",
                    o.total_cost()
                ));
                answers.push(o.neighbors);
            }
            Err(e) => {
                out.ledger.record("check", "read", false);
                out.fail(&format!("evaluation query failed: {e}"));
                answers.push(Vec::new());
            }
        }
        counted += count;
    }
    let truth: Vec<Vec<usize>> = ground_truth(&eval, &database, &dtw, K, 2)
        .into_iter()
        .map(|t| t.neighbors)
        .collect();
    let recall = common::recall(&answers, &truth);
    if recall < recall_floor {
        out.fail(&format!(
            "recall@10 {recall:.4} is below the floor {recall_floor}"
        ));
    }

    if args.trace {
        traced(
            args, size, &index, &model, &database, &queries, &latencies, out,
        );
        out.metric("train.s", "s", train_s, 1);
        out.metric("build.s", "s", build_s, 1);
    } else {
        let setup_sorted = sorted(setup_s);
        out.metric("setup_s", "s", median(&setup_sorted), setup_sorted.len());
        out.metric("query_p50_ms", "ms", median(&latencies), completed);
        out.metric(
            "query_p99_ms",
            "ms",
            p99_or_supported(&latencies).0,
            completed,
        );
        out.metric("query_qps", "queries/s", completed as f64 / wall, completed);
        out.metric("recall_at_10", "fraction", recall, eval.len());
        out.metric(
            "dist_per_query",
            "count",
            counted as f64 / eval.len() as f64,
            eval.len(),
        );
    }
    out.meta("callers", CALLERS.to_string());
}

/// The traced run: the closed loop again for a short while with a span
/// per query, then a sample of those queries replayed through the
/// filter, embedding and refine entry points.
#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    size: &Size,
    index: &Index,
    model: &QseModel<TimeSeries>,
    database: &[TimeSeries],
    queries: &[TimeSeries],
    untraced_ms: &[f64],
    out: &mut Outcome,
) {
    let dtw = ConstrainedDtw::paper();
    let mut trace = Trace::new();
    let (calls, _) = closed_loop(index, database, queries, args.seconds / 4.0);
    let mut roots = Vec::new();
    for (i, c) in calls.iter().enumerate() {
        out.ledger.record("traced", "read", c.ok);
        let id = trace.record("index.retrieve", i as u64, None, c.start, c.end);
        roots.push((id, c.query));
    }
    let traced_ms = sorted(
        roots
            .iter()
            .map(|&(id, _)| trace.spans()[id].duration_ns() as f64 / 1e6)
            .collect(),
    );

    let p_eff = ((P as f64 * index.p_scale()).ceil() as usize).min(database.len());
    let stride = (roots.len() / size.traced_requests).max(1);
    let (mut embedding_cost, mut refine_cost) = (Vec::new(), Vec::new());
    for &(root, qi) in roots.iter().step_by(stride) {
        let req = trace.spans()[root].request;
        let query = &queries[qi];
        let (top, (candidates, cost)) = trace.time("filter.top_p", req, Some(root), || {
            index.filter_top_p(query, &dtw, p_eff)
        });
        embedding_cost.push(cost as f64);
        refine_cost.push(candidates.len() as f64);
        let (_, eq) = trace.time("model.embed", req, Some(top), || {
            model.embed_query(query, &dtw)
        });
        let mut scores = vec![0.0; index.len()];
        trace.time("filter.scan", req, Some(top), || {
            eq.score_filter(index.vectors(), &mut scores)
        });
        trace.time("exact.refine", req, Some(root), || {
            candidates
                .iter()
                .map(|&i| dtw.distance(query, &database[i]))
                .sum::<f64>()
        });
    }

    let med = |v: Vec<f64>| {
        if v.is_empty() {
            0.0
        } else {
            median(&sorted(v))
        }
    };
    let n = trace.ids("filter.top_p").len();
    let refine_ns = med(trace.durations_ns("exact.refine"));
    let rows = index.len() as f64;
    out.metric(
        "index.retrieve_ms",
        "ms",
        ns_to_ms(med(trace.durations_ns("index.retrieve"))),
        roots.len(),
    );
    out.metric(
        "select.top_p_us",
        "us",
        ns_to_us(med(trace.self_times_ns("filter.top_p"))),
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
        ns_to_us(med(trace.durations_ns("filter.scan"))),
        n,
    );
    out.metric("filter.rows", "rows", rows, n);
    out.metric("filter.bytes", "bytes", rows * index.dim() as f64, n);
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
        "trace.overhead_ms",
        "ms",
        median(&traced_ms) - median(untraced_ms),
        traced_ms.len(),
    );
    crate::gauss_serve::report_split(&trace, out, &["filter.scan"]);
    let path = common::out_dir().join(format!("trace-cdtw-search-{}.jsonl", args.seed));
    if let Err(e) = trace.write_jsonl(&path) {
        eprintln!("could not write {}: {e}", path.display());
    }
}
