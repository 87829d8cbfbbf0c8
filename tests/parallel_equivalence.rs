//! Guarantees of the parallel query engine: every parallel code path must
//! produce results **bit-identical** to its sequential counterpart, at any
//! thread count — training, distance matrices, ground truth, batch
//! embedding (`embed_queries` for every embedding family and for the
//! query-sensitive model), and the Q×N tiled batch retrieval pipelines
//! (`FilterRefineIndex::retrieve_batch`, `DynamicIndex::retrieve_batch`
//! including after online edits, and `knn_flat_batch`). The
//! early-abandoning cDTW refine is pinned here too: it must equal a refine
//! that measures every candidate to the end, on every index kind.
//!
//! The rayon substrate re-reads `RAYON_NUM_THREADS` on every parallel call,
//! so these tests flip the variable at run time. They set it explicitly
//! around each comparison; the variable is process-global, which is safe
//! here precisely because thread count is not allowed to affect any result
//! (the property under test).

use query_sensitive_embeddings::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::with_thread_count;

fn clustered(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let c = rng.gen_range(0..6);
            vec![
                (c % 3) as f64 * 15.0 + rng.gen_range(-1.0..1.0),
                (c / 3) as f64 * 15.0 + rng.gen_range(-1.0..1.0),
            ]
        })
        .collect()
}

fn train_model(threads: usize, db: &[Vec<f64>]) -> QseModel<Vec<f64>> {
    with_thread_count(threads, || {
        let d = LpDistance::l2();
        let pools: Vec<Vec<f64>> = db.iter().take(50).cloned().collect();
        let data = TrainingData::precompute(pools.clone(), pools, &d, 4);
        let mut rng = StdRng::seed_from_u64(4242);
        let triples = TripleSampler::selective(4).sample(&data.train_to_train, 400, &mut rng);
        BoostMapTrainer::new(TrainerConfig::quick()).train(&data, &triples, &mut rng)
    })
}

#[test]
fn trained_models_are_identical_across_thread_counts() {
    // The tentpole guarantee: pre-drawn randomness + (Z, slot) min-reduce
    // make the trained model independent of worker scheduling.
    let db = clustered(120, 7);
    let single = train_model(1, &db);
    for threads in [2, 8] {
        let multi = train_model(threads, &db);
        assert_eq!(single, multi, "model diverged at {threads} threads");
        assert_eq!(
            single.to_json(),
            multi.to_json(),
            "serialized bytes diverged"
        );
    }
}

#[test]
fn distance_matrices_are_identical_across_thread_counts() {
    let db = clustered(60, 11);
    let d = LpDistance::l2();
    let seq = with_thread_count(1, || DistanceMatrix::all_pairs(&db, &d, 1));
    for threads in [2, 8] {
        let par = with_thread_count(threads, || DistanceMatrix::all_pairs(&db, &d, 8));
        assert_eq!(seq, par, "matrix diverged at {threads} threads");
    }
}

#[test]
fn ground_truth_is_identical_across_thread_counts() {
    let db = clustered(90, 13);
    let queries = clustered(17, 14);
    let d = LpDistance::l2();
    let seq = ground_truth(&queries, &db, &d, 5, 1);
    for threads in [2, 8] {
        let par = with_thread_count(threads, || ground_truth(&queries, &db, &d, 5, 8));
        assert_eq!(seq, par, "ground truth diverged at {threads} threads");
    }
}

#[test]
fn batched_retrieval_is_identical_across_thread_counts() {
    let db = clustered(150, 17);
    let d = LpDistance::l2();
    let model = train_model(1, &db);
    let index = FilterRefineIndex::build_query_sensitive(model, &db, &d);
    let queries = clustered(23, 19);
    let sequential: Vec<RetrievalOutcome> = queries
        .iter()
        .map(|q| index.retrieve(q, &db, &d, 3, 20))
        .collect();
    for threads in [1, 2, 8] {
        let batch = with_thread_count(threads, || index.retrieve_batch(&queries, &db, &d, 3, 20));
        assert_eq!(sequential, batch, "batch diverged at {threads} threads");
    }
}

#[test]
fn retrieve_batch_is_identical_across_repeated_calls_on_the_persistent_pool() {
    // The rayon substrate now keeps one process-global worker pool alive
    // between calls. Re-running the same batch — and interleaving different
    // thread counts, which grows the pool but never tears it down — must
    // keep returning bit-identical results: no state may leak from one
    // batch into the next.
    let db = clustered(140, 29);
    let d = LpDistance::l2();
    let model = train_model(1, &db);
    let index = FilterRefineIndex::build_query_sensitive(model, &db, &d);
    let queries = clustered(31, 37);
    let reference: Vec<RetrievalOutcome> = queries
        .iter()
        .map(|q| index.retrieve(q, &db, &d, 4, 25))
        .collect();
    // Interleave thread counts so the pool is created, reused, grown and
    // reused again within one process.
    for (round, threads) in [2, 2, 8, 1, 8, 2].into_iter().enumerate() {
        let batch = with_thread_count(threads, || index.retrieve_batch(&queries, &db, &d, 4, 25));
        assert_eq!(
            reference, batch,
            "round {round} at {threads} threads diverged"
        );
    }
}

#[test]
fn parallel_embed_all_matches_sequential_embedding() {
    use query_sensitive_embeddings::embedding::Embedding;
    let db = clustered(80, 23);
    let d = LpDistance::l2();
    let model = train_model(1, &db);
    let embedding = model.embedding();
    let sequential: Vec<Vec<f64>> = db.iter().map(|o| embedding.embed(o, &d)).collect();
    for threads in [1, 2, 8] {
        let parallel = with_thread_count(threads, || embedding.embed_all(&db, &d));
        assert_eq!(
            sequential, parallel,
            "embed_all diverged at {threads} threads"
        );
    }
}

#[test]
fn dynamic_index_batch_matches_sequential_including_after_edits() {
    // The tiled batch pipeline over a *mutable* index: identity must hold on
    // the freshly built index and survive online inserts and swap-removes,
    // at any thread count.
    let db = clustered(130, 41);
    let d = LpDistance::l2();
    let model = train_model(1, &db);
    let mut index = DynamicIndex::new(model, db, &d);
    let queries = clustered(27, 43);
    let check = |index: &DynamicIndex<Vec<f64>>, label: &str| {
        let sequential: Vec<Vec<usize>> = queries
            .iter()
            .map(|q| index.retrieve(q, &d, 3, 15))
            .collect();
        for threads in [1, 2, 8] {
            let batch = with_thread_count(threads, || index.retrieve_batch(&queries, &d, 3, 15));
            assert_eq!(
                sequential, batch,
                "{label}: batch diverged at {threads} threads"
            );
        }
    };
    check(&index, "freshly built");
    for (i, q) in clustered(9, 47).into_iter().enumerate() {
        index.insert(q, &d);
        if i % 3 == 2 {
            index.remove(i * 5);
        }
    }
    check(&index, "after inserts and removes");
}

#[test]
fn knn_flat_batch_matches_sequential_knn_flat_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(53);
    let dim = 6;
    let store = FlatVectors::from_rows(
        (0..400)
            .map(|_| (0..dim).map(|_| rng.gen_range(-50.0..50.0)).collect())
            .collect(),
    );
    let queries = FlatVectors::from_rows(
        (0..37)
            .map(|_| (0..dim).map(|_| rng.gen_range(-50.0..50.0)).collect())
            .collect(),
    );
    let weights: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..3.0)).collect();
    let d = WeightedL1::new(weights);
    let sequential: Vec<_> = (0..queries.len())
        .map(|q| knn_flat(&d, queries.row(q), &store, 7))
        .collect();
    for threads in [1, 2, 8] {
        let batch = with_thread_count(threads, || knn_flat_batch(&d, &queries, &store, 7));
        assert_eq!(
            sequential, batch,
            "knn_flat_batch diverged at {threads} threads"
        );
    }
}

#[test]
fn embed_queries_matches_per_query_embed_for_every_embedding_family() {
    use query_sensitive_embeddings::embedding::{
        Embedding, FastMap, FastMapConfig, LipschitzEmbedding,
    };
    let db = clustered(90, 59);
    let d = LpDistance::l2();
    let queries = clustered(21, 61);

    // FastMap (pivot embeddings), Lipschitz (reference-set embeddings) and
    // the composite embedding of a trained query-sensitive model must all
    // batch-embed bit-identically to their per-query `embed`, at any thread
    // count.
    let mut rng = StdRng::seed_from_u64(67);
    let fastmap = FastMap::train(
        &db,
        &d,
        FastMapConfig {
            dimensions: 4,
            pivot_iterations: 3,
        },
        &mut rng,
    );
    let lipschitz = LipschitzEmbedding::new(vec![
        vec![db[0].clone()],
        vec![db[1].clone(), db[2].clone()],
        vec![db[3].clone(), db[4].clone(), db[5].clone()],
    ]);
    let composite = train_model(1, &db).embedding();

    fn check<E: Embedding<Vec<f64>>>(
        name: &str,
        embedding: &E,
        queries: &[Vec<f64>],
        d: &LpDistance,
    ) {
        let sequential: Vec<Vec<f64>> = queries.iter().map(|q| embedding.embed(q, d)).collect();
        for threads in [1, 2, 8] {
            let batch = with_thread_count(threads, || embedding.embed_queries(queries, d));
            assert_eq!(batch.len(), queries.len(), "{name} at {threads} threads");
            assert_eq!(batch.dim(), embedding.dim(), "{name} at {threads} threads");
            for (q, row) in sequential.iter().enumerate() {
                assert_eq!(
                    batch.row(q),
                    row.as_slice(),
                    "{name}: query {q} diverged at {threads} threads"
                );
            }
        }
        // The empty batch keeps the embedding's dimensionality.
        let empty = embedding.embed_queries(&[], d);
        assert!(empty.is_empty());
        assert_eq!(empty.dim(), embedding.dim(), "{name}: empty-batch dim");
    }
    check("fastmap", &fastmap, &queries, &d);
    check("lipschitz", &lipschitz, &queries, &d);
    check("composite", &composite, &queries, &d);
}

#[test]
fn model_embed_queries_matches_per_query_embed_query() {
    // The query-sensitive batch (coordinates + per-query weights) must agree
    // with `embed_query` row for row, at any thread count.
    let db = clustered(110, 71);
    let d = LpDistance::l2();
    let model = train_model(1, &db);
    let queries = clustered(19, 73);
    let sequential: Vec<EmbeddedQuery> = queries.iter().map(|q| model.embed_query(q, &d)).collect();
    for threads in [1, 2, 8] {
        let batch = with_thread_count(threads, || model.embed_queries(&queries, &d));
        assert_eq!(batch.len(), queries.len());
        for (q, single) in sequential.iter().enumerate() {
            assert_eq!(
                batch.query(q),
                *single,
                "query {q} diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn duplicate_queries_in_a_tile_share_refine_work_without_changing_results() {
    // The per-tile duplicate-query memo: a query equal to an earlier query
    // of the same tile must reuse that query's finished result — identical
    // outcomes at any thread count, with the duplicate's exact-distance
    // refine step genuinely skipped (pinned by distance accounting).
    let db = clustered(150, 91);
    let d = LpDistance::l2();
    let model = train_model(1, &db);
    let index = FilterRefineIndex::build_query_sensitive(model.clone(), &db, &d);
    let (k, p) = (3, 20);
    // 12 queries — one pipeline tile — three of them duplicates.
    let mut queries = clustered(9, 93);
    queries.push(queries[0].clone());
    queries.push(queries[4].clone());
    queries.push(queries[0].clone());
    let uniques = 9;
    let sequential: Vec<RetrievalOutcome> = queries
        .iter()
        .map(|q| index.retrieve(q, &db, &d, k, p))
        .collect();
    for threads in [1, 2, 8] {
        let batch = with_thread_count(threads, || index.retrieve_batch(&queries, &db, &d, k, p));
        assert_eq!(batch, sequential, "memo diverged at {threads} threads");
    }
    // Accounting: the batch embeds every query (the memo sits behind the
    // embedding step) but refines only the unique ones...
    let counting = CountingDistance::new(LpDistance::l2());
    let _ = index.retrieve_batch(&queries, &db, &counting, k, p);
    assert_eq!(
        counting.count() as usize,
        queries.len() * index.embedding_cost() + uniques * p
    );
    // ...whereas the sequential loop pays the full budget per duplicate.
    let counting = CountingDistance::new(LpDistance::l2());
    for q in &queries {
        let _ = index.retrieve(q, &db, &counting, k, p);
    }
    assert_eq!(
        counting.count() as usize,
        queries.len() * (index.embedding_cost() + p)
    );

    // The dynamic index shares the same pipeline and memo.
    let dynamic = DynamicIndex::new(model, db.clone(), &d);
    let sequential: Vec<Vec<usize>> = queries
        .iter()
        .map(|q| dynamic.retrieve(q, &d, k, p))
        .collect();
    for threads in [1, 2, 8] {
        let batch = with_thread_count(threads, || dynamic.retrieve_batch(&queries, &d, k, p));
        assert_eq!(
            batch, sequential,
            "dynamic memo diverged at {threads} threads"
        );
    }
}

/// Constrained DTW with the trait's default `distance_within`: every
/// refine evaluation runs to the end. The reference for the
/// early-abandoning refine.
struct FullDtw(ConstrainedDtw);

impl DistanceMeasure<TimeSeries> for FullDtw {
    fn distance(&self, a: &TimeSeries, b: &TimeSeries) -> f64 {
        self.0.eval(a, b)
    }
}

/// Constrained DTW that counts the `distance_within` calls whose bound
/// the exact distance exceeded: the evaluations the refine step was
/// allowed to abandon.
struct AbandonProbe(ConstrainedDtw, std::sync::atomic::AtomicUsize);

impl DistanceMeasure<TimeSeries> for AbandonProbe {
    fn distance(&self, a: &TimeSeries, b: &TimeSeries) -> f64 {
        self.0.eval(a, b)
    }
    fn distance_within(&self, a: &TimeSeries, b: &TimeSeries, bound: f64) -> f64 {
        let d = self.0.eval_within(a, b, bound);
        if d > bound {
            self.1.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        d
    }
}

fn train_series_model(pool: &[TimeSeries], d: &ConstrainedDtw) -> QseModel<TimeSeries> {
    let data = TrainingData::precompute(pool.to_vec(), pool.to_vec(), d, 1);
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let triples = TripleSampler::selective(4).sample(&data.train_to_train, 300, &mut rng);
    BoostMapTrainer::new(TrainerConfig::quick()).train(&data, &triples, &mut rng)
}

/// Neighbors, distance bits and both costs.
fn assert_same_outcome(fast: &RetrievalOutcome, full: &RetrievalOutcome, label: &str) {
    assert_eq!(fast.neighbors, full.neighbors, "{label}: neighbors");
    let bits = |o: &RetrievalOutcome| o.distances.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(fast), bits(full), "{label}: distance bits");
    assert_eq!(
        fast.embedding_cost, full.embedding_cost,
        "{label}: embedding cost"
    );
    assert_eq!(fast.refine_cost, full.refine_cost, "{label}: refine cost");
}

#[test]
fn early_abandoning_cdtw_refine_equals_the_full_refine_on_every_index_kind() {
    let dtw = ConstrainedDtw::paper();
    let full = FullDtw(dtw);
    let mut rng = StdRng::seed_from_u64(0xD7A);
    // Shorter than the default series keep the debug-build test quick.
    let config = query_sensitive_embeddings::dataset::TimeSeriesGeneratorConfig {
        base_length: 40,
        ..Default::default()
    };
    let generator = TimeSeriesGenerator::new(config, &mut rng);
    let db = generator.generate_unlabeled(140, &mut rng);
    let mut queries: Vec<TimeSeries> = (0..13)
        .map(|i| generator.variation(i % generator.seeds().len(), &mut rng))
        .collect();
    // A repeat inside one batch tile exercises the duplicate-query memo.
    queries.push(queries[2].clone());
    let model = train_series_model(&db[..40], &dtw);
    let (k, p) = (5, 30);

    let index = FilterRefineIndex::<TimeSeries, u8>::build_query_sensitive_with_store(
        model.clone(),
        &db,
        &dtw,
    );
    let probe = AbandonProbe(dtw, Default::default());
    for threads in [1, 2, 8] {
        with_thread_count(threads, || {
            for (i, q) in queries.iter().enumerate() {
                let fast = index.try_retrieve(q, &db, &probe, k, p).unwrap();
                let slow = index.try_retrieve(q, &db, &full, k, p).unwrap();
                assert_same_outcome(&fast, &slow, &format!("query {i} at {threads} threads"));
            }
            let fast = index.try_retrieve_batch(&queries, &db, &dtw, k, p).unwrap();
            let slow = index
                .try_retrieve_batch(&queries, &db, &full, k, p)
                .unwrap();
            for (i, (f, s)) in fast.iter().zip(&slow).enumerate() {
                assert_same_outcome(f, s, &format!("batch query {i} at {threads} threads"));
            }
        });
    }
    assert!(
        probe.1.load(std::sync::atomic::Ordering::Relaxed) > 0,
        "the refine step never handed a bound the distance exceeded"
    );

    // Every refine evaluation still counts as one exact distance.
    for q in &queries {
        let counting = CountingDistance::new(dtw);
        let outcome = index.try_retrieve(q, &db, &counting, k, p).unwrap();
        assert_eq!(counting.count() as usize, outcome.total_cost());
        let counting_full = CountingDistance::new(FullDtw(dtw));
        let _ = index.try_retrieve(q, &db, &counting_full, k, p).unwrap();
        assert_eq!(counting_full.count(), counting.count());
    }

    // The mutable indexes read candidates in place through the same
    // selection; check them fresh and after online edits.
    let mut dynamic = DynamicIndex::new(model.clone(), db.clone(), &dtw);
    let concurrent = ConcurrentIndex::from_dynamic(DynamicIndex::new(model, db.clone(), &dtw));
    let reader = concurrent.reader();
    let check = |dynamic: &DynamicIndex<TimeSeries>, label: &str| {
        let fast = dynamic.try_retrieve_batch(&queries, &dtw, k, p).unwrap();
        let slow = dynamic.try_retrieve_batch(&queries, &full, k, p).unwrap();
        assert_eq!(fast, slow, "{label}: dynamic batch");
        let fast = reader.try_retrieve_batch(&queries, &dtw, k, p).unwrap();
        let slow = reader.try_retrieve_batch(&queries, &full, k, p).unwrap();
        assert_eq!(fast, slow, "{label}: concurrent batch");
        for (i, q) in queries.iter().enumerate() {
            let fast = dynamic.try_retrieve(q, &dtw, k, p).unwrap();
            assert_eq!(
                fast,
                dynamic.try_retrieve(q, &full, k, p).unwrap(),
                "{label}: dynamic {i}"
            );
            let read = reader.try_retrieve(q, &dtw, k, p).unwrap();
            assert_eq!(
                read,
                reader.try_retrieve(q, &full, k, p).unwrap(),
                "{label}: concurrent {i}"
            );
            assert_eq!(read, fast, "{label}: concurrent vs dynamic {i}");
        }
    };
    check(&dynamic, "freshly built");
    let mut writer = concurrent.writer();
    for (i, s) in generator
        .generate_unlabeled(6, &mut rng)
        .into_iter()
        .enumerate()
    {
        dynamic.insert(s.clone(), &dtw);
        writer.insert(s, &dtw);
        if i % 2 == 1 {
            dynamic.remove(i * 11);
            writer.remove(i * 11);
        }
    }
    check(&dynamic, "after inserts and removes");
}

#[test]
fn early_abandoning_knn_keeps_nan_and_infinite_distances_where_the_full_sort_puts_them() {
    // Finite series come first, so the running k-th distance is finite by
    // the time the non-finite ones arrive. A NaN sample makes NaN costs
    // (with either sign bit), an infinite one infinite costs; `total_cmp`
    // ranks a negative NaN below every number, so dropping it would change
    // the result.
    use query_sensitive_embeddings::retrieval::knn::knn;
    let (inf, nan) = (f64::INFINITY, f64::NAN);
    let query = TimeSeries::univariate([0.0, 1.0, 0.5, -1.0, 0.0, 2.0]);
    let db: Vec<TimeSeries> = [
        vec![0.0, 1.0, 0.5, -1.0, 0.0, 1.5],
        vec![3.0, 1.0, 0.0, 0.0, 2.0, 2.0],
        vec![5.0, 5.0, 4.0, 3.0, 5.0, 5.0],
        vec![-nan; 6],
        vec![nan; 6],
        vec![0.0, -nan, 0.5, -1.0, 0.0, 2.0],
        vec![inf, 1.0, 0.5, -1.0, 0.0, 2.0],
        vec![9.0, 9.0, 9.0, 9.0, 9.0, -nan],
        vec![0.0, 1.0, 0.5, -1.0, 0.0, 1.9],
    ]
    .into_iter()
    .map(TimeSeries::univariate)
    .collect();
    for dtw in [
        ConstrainedDtw::paper(),
        ConstrainedDtw::with_absolute_band(1),
        ConstrainedDtw::unconstrained(),
    ] {
        let full = FullDtw(dtw);
        for k in 1..=db.len() {
            let fast = knn(&query, &db, &dtw, k);
            let slow = knn(&query, &db, &full, k);
            assert_eq!(fast.neighbors, slow.neighbors, "{dtw:?} k {k}");
            let bits = |d: &[f64]| d.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&fast.distances),
                bits(&slow.distances),
                "{dtw:?} k {k}"
            );
        }
    }
}

#[test]
fn a_tie_at_the_kth_distance_goes_to_the_lower_index_even_when_it_is_refined_later() {
    // Constant series at levels +c and -c are exactly equally far from the
    // all-zero query under cDTW (8 · |c|), but embed differently, so the
    // filter can hand the refine step the higher index of a tied pair
    // first. The early-abandoning refine must still keep the lower index.
    let dtw = ConstrainedDtw::paper();
    let constant = |level: f64| TimeSeries::univariate(std::iter::repeat_n(level, 8));
    let pool: Vec<TimeSeries> = (0..24)
        .map(|i| constant((i as f64 - 11.5) * 0.37))
        .collect();
    let model = train_series_model(&pool, &dtw);
    let query = constant(0.0);
    let levels = [0.5, 3.0, -3.0, 2.0, 1.0, -2.0, -1.0, 4.0];
    let k = 2; // best: 0.5; second: one of the ±1 pair.
    let mut higher_first = 0;
    for swap in [false, true] {
        let mut db: Vec<TimeSeries> = levels.iter().map(|&l| constant(l)).collect();
        if swap {
            db.swap(4, 6);
        }
        let index = FilterRefineIndex::build_query_sensitive(model.clone(), &db, &dtw);
        let (order, _) = index.filter_top_p(&query, &dtw, db.len());
        if order.iter().position(|&i| i == 6) < order.iter().position(|&i| i == 4) {
            higher_first += 1;
        }
        let outcome = index.try_retrieve(&query, &db, &dtw, k, db.len()).unwrap();
        assert_eq!(
            outcome.neighbors,
            vec![0, 4],
            "swap {swap}: filter order {order:?}"
        );
        assert_eq!(outcome.distances, vec![4.0, 8.0]);
        let dynamic = DynamicIndex::new(model.clone(), db.clone(), &dtw);
        let full = FullDtw(dtw);
        assert_eq!(
            dynamic.try_retrieve(&query, &dtw, k, db.len()).unwrap(),
            dynamic.try_retrieve(&query, &full, k, db.len()).unwrap()
        );
    }
    assert_eq!(
        higher_first, 1,
        "the tied pair never arrived higher index first"
    );
}
