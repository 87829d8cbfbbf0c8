//! Admission-batch equivalence: whatever the arrival interleaving, the
//! worker count (1 / 2 / 8) or the scatter of duplicate queries, every
//! request answered through the [`Batcher`] must be **bit-identical** to
//! a sequential `retrieve` of the same query — the batch-equals-
//! sequential guarantee of `parallel_equivalence`, extended through the
//! admission layer that coalesces concurrent singles into micro-batches.
//!
//! Also pinned: the batch-global equal-query dedupe actually fires (the
//! stats counter moves) without changing any answer, the shipped
//! work-conserving default (no batch window) and an explicit zero latency
//! budget answer correctly, and every facade backend (static /
//! routed / dynamic) serves the same results through the batcher as
//! directly.

mod common;

use common::with_thread_count;
use query_sensitive_embeddings::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
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

fn static_api(db: &[Vec<f64>]) -> QseApi {
    let d = LpDistance::l2();
    let model = train_model(db);
    let index = FilterRefineIndex::<_, u8>::build_query_sensitive_with_store(model, db, &d);
    QseApi::from_static(index, db.to_vec(), Box::new(LpDistance::l2())).unwrap()
}

fn routed_api(db: &[Vec<f64>]) -> QseApi {
    let d = LpDistance::l2();
    let model = train_model(db);
    let index = RoutedIndex::<_, u8>::build_query_sensitive_with_store(
        model,
        db,
        &d,
        RoutedConfig {
            cells: 8,
            n_probe: 3,
            ..RoutedConfig::default()
        },
    );
    QseApi::from_routed(index, db.to_vec(), Box::new(LpDistance::l2())).unwrap()
}

fn dynamic_api(db: &[Vec<f64>]) -> QseApi {
    let d = LpDistance::l2();
    let model = train_model(db);
    let index = DynamicIndex::<_, u8>::with_store(model, db.to_vec(), &d);
    QseApi::from_dynamic(index, Box::new(LpDistance::l2())).unwrap()
}

/// A request mix with duplicates scattered through it: every third
/// request repeats an earlier query verbatim.
fn request_mix(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let fresh = clustered(n, seed);
    let mut mix: Vec<Vec<f64>> = Vec::with_capacity(n);
    for (i, q) in fresh.into_iter().enumerate() {
        if i % 3 == 2 {
            mix.push(mix[i / 2].clone());
        } else {
            mix.push(q);
        }
    }
    mix
}

/// A 2 ms admission window over 16-request batches: wide enough that
/// concurrent clients' requests share batches.
fn windowed(workers: usize) -> BatcherConfig {
    BatcherConfig {
        latency_budget: Duration::from_millis(2),
        max_batch: 16,
        workers,
    }
}

/// Fire `requests` at a batcher started with `config` from `clients` OS
/// threads concurrently and assert each answer equals the sequential
/// per-query ground truth.
fn assert_batched_equals_sequential(api: QseApi, clients: usize, config: BatcherConfig) {
    let (k, p) = (3, 25);
    let requests = request_mix(48, 0xA11CE);
    let expected: Vec<QueryResult> = requests
        .iter()
        .map(|q| api.try_query(q, k, p).unwrap())
        .collect();

    let api = Arc::new(api);
    let batcher = Arc::new(Batcher::start(Arc::clone(&api), config));

    let chunk = requests.len().div_ceil(clients);
    std::thread::scope(|scope| {
        for (c, slice) in requests.chunks(chunk).enumerate() {
            let batcher = Arc::clone(&batcher);
            let expected = &expected;
            let offset = c * chunk;
            scope.spawn(move || {
                for (i, query) in slice.iter().enumerate() {
                    let result = batcher.query(query.clone(), k, p).unwrap();
                    assert_eq!(
                        result,
                        expected[offset + i],
                        "request {} diverged from sequential retrieval",
                        offset + i
                    );
                }
            });
        }
    });

    let stats = batcher.stats();
    assert_eq!(
        stats.queries,
        requests.len() as u64,
        "every request must be admitted exactly once"
    );
    assert!(stats.batches >= 1);
}

#[test]
fn batched_equals_sequential_across_worker_counts_static() {
    let db = clustered(300, 11);
    for workers in [1, 2, 8] {
        assert_batched_equals_sequential(static_api(&db), 6, windowed(workers));
    }
}

#[test]
fn batched_equals_sequential_across_worker_counts_routed() {
    let db = clustered(300, 12);
    for workers in [1, 2, 8] {
        assert_batched_equals_sequential(routed_api(&db), 6, windowed(workers));
    }
}

#[test]
fn batched_equals_sequential_across_worker_counts_dynamic() {
    let db = clustered(300, 13);
    for workers in [1, 2, 8] {
        assert_batched_equals_sequential(dynamic_api(&db), 6, windowed(workers));
    }
}

#[test]
fn batched_equals_sequential_at_the_shipped_default() {
    // The work-conserving default (no window): batches form only from
    // requests that queue while every worker is busy.
    assert!(BatcherConfig::default().latency_budget.is_zero());
    let db = clustered(300, 21);
    for workers in [1, 2, 8] {
        let config = BatcherConfig {
            workers,
            ..BatcherConfig::default()
        };
        assert_batched_equals_sequential(static_api(&db), 6, config);
        assert_batched_equals_sequential(routed_api(&db), 6, config);
        assert_batched_equals_sequential(dynamic_api(&db), 6, config);
    }
}

#[test]
fn batched_equals_sequential_under_substrate_thread_matrix() {
    // The admission layer on top of the rayon-pool thread counts the
    // parallel_equivalence suite pins: client threads and kernel threads
    // vary independently.
    let db = clustered(300, 14);
    for threads in [1, 2, 8] {
        with_thread_count(threads, || {
            assert_batched_equals_sequential(static_api(&db), 4, windowed(2));
        });
    }
}

#[test]
fn dedupe_fires_and_changes_nothing() {
    let db = clustered(300, 15);
    let api = Arc::new(static_api(&db));
    let (k, p) = (3, 25);
    let query = db[7].clone();
    let expected = api.try_query(&query, k, p).unwrap();

    // One batch window wide enough to hold every clone of the query:
    // all but the first must be answered by the dedupe slot.
    let batcher = Arc::new(Batcher::start(
        Arc::clone(&api),
        BatcherConfig {
            latency_budget: Duration::from_millis(200),
            max_batch: 64,
            workers: 1,
        },
    ));
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let batcher = Arc::clone(&batcher);
            let query = query.clone();
            let expected = expected.clone();
            scope.spawn(move || {
                assert_eq!(batcher.query(query, k, p).unwrap(), expected);
            });
        }
    });
    let stats = batcher.stats();
    assert_eq!(stats.queries, 8);
    assert!(
        stats.deduped > 0,
        "equal queries in one window must share a result (stats: {stats:?})"
    );
}

#[test]
fn zero_latency_budget_still_answers_correctly() {
    let db = clustered(300, 16);
    let api = Arc::new(static_api(&db));
    let (k, p) = (3, 25);
    let batcher = Batcher::start(
        Arc::clone(&api),
        BatcherConfig {
            latency_budget: Duration::ZERO,
            max_batch: 8,
            workers: 2,
        },
    );
    for q in clustered(12, 17) {
        let expected = api.try_query(&q, k, p).unwrap();
        assert_eq!(batcher.query(q, k, p).unwrap(), expected);
    }
}

#[test]
fn mixed_k_p_requests_group_correctly() {
    let db = clustered(300, 18);
    let api = Arc::new(static_api(&db));
    let batcher = Arc::new(Batcher::start(
        Arc::clone(&api),
        BatcherConfig {
            latency_budget: Duration::from_millis(2),
            max_batch: 32,
            workers: 2,
        },
    ));
    let queries = clustered(24, 19);
    std::thread::scope(|scope| {
        for (i, q) in queries.iter().enumerate() {
            let batcher = Arc::clone(&batcher);
            let api = Arc::clone(&api);
            scope.spawn(move || {
                // Three different (k, p) shapes interleaved in one wave.
                let (k, p) = [(1, 10), (3, 25), (5, 40)][i % 3];
                let expected = api.try_query(q, k, p).unwrap();
                assert_eq!(batcher.query(q.clone(), k, p).unwrap(), expected);
            });
        }
    });
}

#[test]
fn malformed_requests_are_rejected_at_admission() {
    let db = clustered(300, 20);
    let api = Arc::new(static_api(&db));
    let batcher = Batcher::start(Arc::clone(&api), BatcherConfig::default());

    let q = db[0].clone();
    assert_eq!(
        batcher.query(q.clone(), 0, 10),
        Err(RequestError::Query(QueryError::BadK { k: 0 }))
    );
    assert_eq!(
        batcher.query(q.clone(), 5, 2),
        Err(RequestError::Query(QueryError::BadP {
            k: 5,
            p: 2,
            max: 300
        }))
    );
    assert_eq!(
        batcher.query(q.clone(), 1, 10_000),
        Err(RequestError::Query(QueryError::BadP {
            k: 1,
            p: 10_000,
            max: 300
        }))
    );
    assert_eq!(
        batcher.query(vec![1.0, 2.0, 3.0], 1, 10),
        Err(RequestError::Query(QueryError::DimMismatch {
            expected: 2,
            got: 3
        }))
    );
    // The batcher still serves after every rejection.
    assert!(batcher.query(q, 3, 25).is_ok());
}
