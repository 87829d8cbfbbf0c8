//! Query-engine throughput benchmarks: single-query latency and batched
//! queries/second for the Se-QS (query-sensitive weighted L1) and FastMap
//! (global L1) filter steps, at database sizes 1k and 10k — plus two
//! substrate microbenchmarks:
//!
//! * `filter_kernel/*` — a one-query `FlatStore::scan` (the blocked
//!   decode tile) against the row-by-row scalar `eval` loop over the same
//!   flat store; and the filter step's top-p selection (`TopP`, p = 200
//!   over 4k / 37.7k / 100k tied scores) against the indirect-comparator
//!   `select_nth_unstable_by` over an index permutation that it replaced;
//! * `batch_kernel/*` — a 256-query batch scanned in
//!   `QUERY_TILE`-query `FlatStore::scan` tiles (database rows amortized
//!   across a tile of query rows) against the one-query-per-scan loop it
//!   batches, both on the calling thread;
//! * `fanout_substrate/*` — a 256-chunk `par_map` on the persistent worker
//!   pool against the same fan-out on freshly spawned `std::thread::scope`
//!   threads (the substrate the pool replaced);
//! * `store_backend/*` — `FlatStore::scan`, tiled batch and single query,
//!   over every filter-store precision (`f64` / `f32` / `u8`-quantized flat
//!   stores) at dims 8 and 32, database sizes 1k and 10k: the
//!   memory-bandwidth axis of the filter scan. The `f64` and `f32` cells
//!   run the decode tile; the `u8` cells run the in-domain integer SAD
//!   tile (`qse_distance::sad`) — no per-value dequantization. Outputs
//!   differ only by the backends' documented error bounds, pinned by the
//!   workspace store-backend tests.
//! * `routed/*` — the cluster-routed candidate-generation layer
//!   (`qse_retrieval::routed`) head-to-head against the unrouted full-scan
//!   pipeline it wraps, on deterministic mixture-of-Gaussians workloads
//!   (dim 64, 10k and 100k rows, 32 well-separated components): one
//!   `fullscan` cell and one `np{n}of{C}` cell per probe width, single
//!   query and 256-query batch, both sides on the `u8` store. The two
//!   database sizes bracket the routing **crossover**: at 10k rows the
//!   per-query routing overhead (centroid ranking + per-cell dispatch)
//!   still eats much of the saved scan work, at 100k rows the sublinear
//!   scan dominates. Setup prints the measured recall@10-vs-n_probe curve
//!   to stderr so the routed bench log records the recall each latency
//!   was bought at.
//! * `startup/*` — build-from-raw vs snapshot restore
//!   (`qse_retrieval::snapshot`) for the routed `u8` index on the 100k-row
//!   dim-64 Gaussian workload: the full pipeline (embed + grid fit +
//!   k-means) against `from_snapshot_bytes` and file-level `load`, the
//!   cold-start path a deployment actually runs.
//!
//! These benchmarks exercise the filter-and-refine hot path end to end —
//! embed the query, O(n) top-p selection over the flat vector store, refine
//! the p survivors — and the batched variants additionally exercise the
//! rayon fan-out of `retrieve_batch`. Run with
//!
//! ```text
//! cargo bench --bench bench_query_throughput
//! RAYON_NUM_THREADS=1 cargo bench --bench bench_query_throughput
//! ```
//!
//! and compare the `batch*` lines to see the scaling with cores — or set
//! `QSE_BENCH_THREAD_SWEEP` to measure the whole scaling curve in **one**
//! invocation: the batched `query_throughput` benchmarks then repeat per
//! thread count (ids gain a `/t{n}` suffix), flipping the substrate's
//! `RAYON_NUM_THREADS` between groups (the persistent pool re-reads it on
//! every parallel call). `QSE_BENCH_THREAD_SWEEP=1,2,4,8` (or any comma
//! list) picks the counts; any other non-empty value means the default
//! `1,2,4,8`:
//!
//! ```text
//! QSE_BENCH_THREAD_SWEEP=1 cargo bench --bench bench_query_throughput query_throughput
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qse_core::{BoostMapTrainer, TrainerConfig, TrainingData, TripleSampler};
use qse_distance::traits::{FnDistance, MetricProperties};
use qse_distance::vector::QUERY_TILE;
use qse_distance::{FilterElem, FlatStore, FlatVectors, WeightedL1};
use qse_retrieval::{FilterRefineIndex, TopP};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::hint::black_box;

const BATCH: usize = 256;
const K: usize = 10;
const P: usize = 50;

fn euclid() -> FnDistance<impl Fn(&Vec<f64>, &Vec<f64>) -> f64 + Send + Sync> {
    FnDistance::new(
        "euclid",
        MetricProperties::Metric,
        |a: &Vec<f64>, b: &Vec<f64>| {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt()
        },
    )
}

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

fn queries(n: usize, seed: u64) -> Vec<Vec<f64>> {
    clustered(n, seed ^ 0x0005_1EED)
}

fn seqs_index(db: &[Vec<f64>]) -> FilterRefineIndex<Vec<f64>> {
    let d = euclid();
    let mut rng = StdRng::seed_from_u64(71);
    let pools: Vec<Vec<f64>> = db.iter().take(80).cloned().collect();
    let data = TrainingData::precompute(pools.clone(), pools, &d, 8);
    let triples = TripleSampler::selective(4).sample(&data.train_to_train, 800, &mut rng);
    let model = BoostMapTrainer::new(TrainerConfig::quick()).train(&data, &triples, &mut rng);
    FilterRefineIndex::build_query_sensitive(model, db, &d)
}

fn fastmap_index(db: &[Vec<f64>]) -> FilterRefineIndex<Vec<f64>> {
    use qse_embedding::{FastMap, FastMapConfig};
    let d = euclid();
    let mut rng = StdRng::seed_from_u64(72);
    let sample: Vec<Vec<f64>> = db.iter().take(80).cloned().collect();
    let fm = FastMap::train(
        &sample,
        &d,
        FastMapConfig {
            dimensions: 8,
            pivot_iterations: 4,
        },
        &mut rng,
    );
    FilterRefineIndex::build_global(fm, db, &d)
}

/// Thread counts for the one-invocation scaling sweep, or `None` when the
/// sweep is disabled: parse `QSE_BENCH_THREAD_SWEEP` as a comma list of
/// positive integers (a single count like `16` is honoured as-is); a bare
/// `1` — the documented "just enable it" sentinel — or any non-numeric
/// value means the default `1,2,4,8`.
fn thread_sweep_counts() -> Option<Vec<usize>> {
    let raw = std::env::var("QSE_BENCH_THREAD_SWEEP").ok()?;
    if raw.trim().is_empty() {
        return None;
    }
    let parsed: Vec<usize> = raw
        .split(',')
        .filter_map(|t| t.trim().parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .collect();
    Some(if parsed.is_empty() || parsed == [1] {
        vec![1, 2, 4, 8]
    } else {
        parsed
    })
}

/// Run `body` with the rayon substrate pinned to `threads` workers,
/// restoring the ambient `RAYON_NUM_THREADS` afterwards (the persistent
/// pool re-reads the variable on every parallel call, which is what makes
/// an in-process sweep possible at all).
fn with_threads(threads: usize, body: impl FnOnce()) {
    let previous = std::env::var("RAYON_NUM_THREADS").ok();
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    body();
    match previous {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
}

fn bench_query_throughput(c: &mut Criterion) {
    let d = euclid();
    let sweep = thread_sweep_counts();
    for &db_size in &[1_000usize, 10_000] {
        let db = clustered(db_size, 1);
        let batch = queries(BATCH, 2);
        let single = batch[0].clone();
        for (method, index) in [("seqs", seqs_index(&db)), ("fastmap", fastmap_index(&db))] {
            let mut group = c.benchmark_group(format!("query_throughput/{method}"));
            group.bench_with_input(
                BenchmarkId::new("single_query_latency", db_size),
                &db_size,
                |b, _| b.iter(|| black_box(index.retrieve(black_box(&single), &db, &d, K, P))),
            );
            match &sweep {
                None => {
                    group.bench_with_input(
                        BenchmarkId::new(format!("batch{BATCH}_queries"), db_size),
                        &db_size,
                        |b, _| {
                            b.iter(|| {
                                black_box(index.retrieve_batch(black_box(&batch), &db, &d, K, P))
                            })
                        },
                    );
                }
                Some(counts) => {
                    // One invocation, whole scaling curve: repeat the batched
                    // benchmark per worker count (the fan-out substrate
                    // re-reads RAYON_NUM_THREADS on every call).
                    for &threads in counts {
                        with_threads(threads, || {
                            group.bench_with_input(
                                BenchmarkId::new(
                                    format!("batch{BATCH}_queries/t{threads}"),
                                    db_size,
                                ),
                                &db_size,
                                |b, _| {
                                    b.iter(|| {
                                        black_box(index.retrieve_batch(
                                            black_box(&batch),
                                            &db,
                                            &d,
                                            K,
                                            P,
                                        ))
                                    })
                                },
                            );
                        });
                    }
                }
            }
            group.finish();
        }
    }
}

/// Scan vs scalar: score one query against every row of a flat store.
/// `scan` is the blocked decode tile the filter step runs; the scalar
/// baseline is the row-by-row `eval` loop it replaced (results are
/// bit-identical — asserted by the workspace property tests — so this
/// measures pure kernel speedup).
fn bench_filter_kernel(c: &mut Criterion) {
    const DIM: usize = 8;
    let mut rng = StdRng::seed_from_u64(11);
    let weights: Vec<f64> = (0..DIM).map(|_| rng.gen_range(0.1..2.0)).collect();
    let query: Vec<f64> = (0..DIM).map(|_| rng.gen_range(-10.0..10.0)).collect();
    let d = WeightedL1::new(weights.clone());
    for &db_size in &[1_000usize, 10_000] {
        let rows: Vec<Vec<f64>> = (0..db_size)
            .map(|_| (0..DIM).map(|_| rng.gen_range(-10.0..10.0)).collect())
            .collect();
        let store = FlatVectors::from_rows_with_dim(DIM, rows);
        let mut out = vec![0.0; store.len()];
        let mut group = c.benchmark_group("filter_kernel");
        group.bench_with_input(BenchmarkId::new("scan", db_size), &db_size, |b, _| {
            b.iter(|| {
                store.scan(black_box(&query), &weights, &mut out);
                black_box(out[db_size - 1])
            })
        });
        group.bench_with_input(
            BenchmarkId::new("scalar_rows", db_size),
            &db_size,
            |b, _| {
                b.iter(|| {
                    for (i, slot) in out.iter_mut().enumerate() {
                        *slot = d.eval(black_box(&query), store.row(i));
                    }
                    black_box(out[db_size - 1])
                })
            },
        );
        group.finish();
    }
}

/// Top-p selection over one query's filter scores: the single-pass packed
/// `TopP` the filter step runs against the indirect selection it replaced
/// (`select_nth_unstable_by` over an index permutation with a `total_cmp`
/// comparator, then a sort of the best p). Both return the same ids — the
/// workspace tests pin `TopP` to a full sort — so this measures selection
/// cost alone. Scores sit on a coarse grid, as quantized filter scores do,
/// so ties are common. The row counts are a small index, a routed
/// `gauss-serve` query's visited rows and a 100k-row flat scan.
fn bench_select(c: &mut Criterion) {
    const P: usize = 200;
    let mut rng = StdRng::seed_from_u64(13);
    let mut group = c.benchmark_group("filter_kernel");
    for &n in &[4_000usize, 37_700, 100_000] {
        let scores: Vec<f64> = (0..n)
            .map(|_| f64::from(rng.gen_range(0u32..4096)) * 0.25)
            .collect();
        let mut top = TopP::new(P);
        group.bench_with_input(BenchmarkId::new("select", n), &n, |b, _| {
            b.iter(|| {
                top.push(black_box(&scores), 0..n);
                black_box(top.finish())
            })
        });
        group.bench_with_input(BenchmarkId::new("select_indirect", n), &n, |b, _| {
            b.iter(|| {
                let scores = black_box(&scores);
                let cmp = |a: &usize, b: &usize| scores[*a].total_cmp(&scores[*b]).then(a.cmp(b));
                let mut order: Vec<usize> = (0..n).collect();
                order.select_nth_unstable_by(P - 1, cmp);
                order.truncate(P);
                order.sort_unstable_by(cmp);
                black_box(order)
            })
        });
    }
    group.finish();
}

/// Score every query row of `queries` against `store` the way the batched
/// pipelines do, one `QUERY_TILE`-query `scan` per tile — here on the
/// calling thread, so the cell measures tiling alone.
fn scan_in_tiles<E: FilterElem>(
    store: &FlatStore<E>,
    queries: &FlatVectors,
    weights: &[f64],
    out: &mut [f64],
) {
    let dim = queries.dim();
    for (coords, tile_out) in queries
        .as_slice()
        .chunks(QUERY_TILE * dim)
        .zip(out.chunks_mut(QUERY_TILE * store.len()))
    {
        store.scan(coords, weights, tile_out);
    }
}

/// Tiled scans vs per-query scans: score a 256-query batch against every
/// row of a flat store. The tiled side streams the database once per
/// [`QUERY_TILE`]-query tile; the baseline scans one query at a time,
/// re-streaming the whole store for every query (outputs are bit-identical
/// — asserted by the workspace property tests — so this measures pure
/// tiling speedup).
fn bench_batch_kernel(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(12);
    // dim 8 matches the filter_kernel group; dim 32 is a realistic trained
    // embedding width, where the 10k-row store outgrows the L2 cache and
    // the tile's row-load amortization pays off.
    for &dim in &[8usize, 32] {
        let weights: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.1..2.0)).collect();
        let queries = FlatVectors::from_rows_with_dim(
            dim,
            (0..BATCH)
                .map(|_| (0..dim).map(|_| rng.gen_range(-10.0..10.0)).collect())
                .collect(),
        );
        for &db_size in &[1_000usize, 10_000] {
            let rows: Vec<Vec<f64>> = (0..db_size)
                .map(|_| (0..dim).map(|_| rng.gen_range(-10.0..10.0)).collect())
                .collect();
            let store = FlatVectors::from_rows_with_dim(dim, rows);
            let mut out = vec![0.0; BATCH * store.len()];
            let mut group = c.benchmark_group("batch_kernel");
            group.bench_with_input(
                BenchmarkId::new(format!("scan_tiles/{BATCH}q/dim{dim}"), db_size),
                &db_size,
                |b, _| {
                    b.iter(|| {
                        scan_in_tiles(black_box(&store), black_box(&queries), &weights, &mut out);
                        black_box(out[out.len() - 1])
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("per_query_scan/{BATCH}q/dim{dim}"), db_size),
                &db_size,
                |b, _| {
                    b.iter(|| {
                        for (q, slot) in out.chunks_mut(db_size).enumerate() {
                            store.scan(black_box(queries.row(q)), &weights, slot);
                        }
                        black_box(out[out.len() - 1])
                    })
                },
            );
            group.finish();
        }
    }
}

/// One `store_backend` cell: the tiled-batch and single-query scans over a
/// `FlatStore<E>` built from the same full-precision rows as every other
/// backend, so the only variables are the bytes the scan streams per
/// coordinate and the backend's scan arithmetic (decode tile for `f64` /
/// `f32`, integer SAD tile for `u8`). Comparing `u8` to `f64` shows
/// whether the compact store is the fastest one outright.
fn bench_store_backend_cell<E: FilterElem>(
    c: &mut Criterion,
    weights: &[f64],
    queries: &FlatVectors,
    rows: &[Vec<f64>],
    dim: usize,
    db_size: usize,
) {
    let label = E::NAME;
    let store = FlatStore::<E>::from_rows_with_dim(dim, rows.to_vec());
    let mut out = vec![0.0; queries.len() * store.len()];
    let mut group = c.benchmark_group("store_backend");
    group.bench_with_input(
        BenchmarkId::new(format!("scan_tiles/{label}/{BATCH}q/dim{dim}"), db_size),
        &db_size,
        |b, _| {
            b.iter(|| {
                scan_in_tiles(black_box(&store), black_box(queries), weights, &mut out);
                black_box(out[out.len() - 1])
            })
        },
    );
    // The single-query scan streams the whole store once per query (no
    // cross-query amortization), so it is the most bandwidth-sensitive
    // shape — the one a compact backend helps first.
    let mut single_out = vec![0.0; store.len()];
    group.bench_with_input(
        BenchmarkId::new(format!("scan/{label}/dim{dim}"), db_size),
        &db_size,
        |b, _| {
            b.iter(|| {
                store.scan(black_box(queries.row(0)), weights, &mut single_out);
                black_box(single_out[single_out.len() - 1])
            })
        },
    );
    group.finish();
}

/// Filter-store precision axis: the same scans over `f64`, `f32` and
/// `u8`-quantized storage. At dim 8 a 10k-row `f64` store (640 KB)
/// already fits in L2, which the ROADMAP flagged as the reason the tiling
/// win did not show there — the compact backends shrink the resident set
/// (320 KB / 80 KB) and the streamed traffic with it. At dim 32 the `f64`
/// store (2.6 MB) outgrows L2 and the bandwidth effect is direct.
fn bench_store_backends(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(13);
    for &dim in &[8usize, 32] {
        let weights: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.1..2.0)).collect();
        let queries = FlatVectors::from_rows_with_dim(
            dim,
            (0..BATCH)
                .map(|_| (0..dim).map(|_| rng.gen_range(-10.0..10.0)).collect())
                .collect(),
        );
        for &db_size in &[1_000usize, 10_000] {
            let rows: Vec<Vec<f64>> = (0..db_size)
                .map(|_| (0..dim).map(|_| rng.gen_range(-10.0..10.0)).collect())
                .collect();
            bench_store_backend_cell::<f64>(c, &weights, &queries, &rows, dim, db_size);
            bench_store_backend_cell::<f32>(c, &weights, &queries, &rows, dim, db_size);
            bench_store_backend_cell::<u8>(c, &weights, &queries, &rows, dim, db_size);
        }
    }
}

/// Routed vs full scan, head to head in one session (same build, same
/// machine, same workload — wall-clock comparisons across sessions drift):
/// the `u8` global-L1 pipeline over clustered dim-64 Gaussian collections,
/// unrouted and routed at a sweep of probe widths. The 10k/100k size pair
/// brackets the crossover row count; the recall each routed latency buys
/// is measured during setup and printed to stderr (it lands in the CI
/// bench artifact next to the timings).
fn bench_routed(c: &mut Criterion) {
    use qse_dataset::{GaussianMixture, GaussianMixtureConfig};
    use qse_embedding::{FastMap, FastMapConfig};
    use qse_retrieval::{recall_vs_n_probe, RoutedConfig, RoutedIndex};
    const CELLS: usize = 64;
    let d = euclid();
    for &db_size in &[10_000usize, 100_000] {
        let mix = GaussianMixture::generate(GaussianMixtureConfig {
            rows: db_size,
            dim: 64,
            clusters: 32,
            center_box: 10.0,
            spread: 0.5,
            seed: 0xB0B ^ db_size as u64,
        });
        let batch = mix.queries(BATCH, 99);
        let db = mix.points;
        let single = batch[0].clone();
        let fm = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let sample: Vec<Vec<f64>> = db.iter().take(100).cloned().collect();
            FastMap::train(
                &sample,
                &d,
                FastMapConfig {
                    dimensions: 16,
                    pivot_iterations: 3,
                },
                &mut rng,
            )
        };
        let flat = FilterRefineIndex::<_, u8>::build_global_with_store(fm(171), &db, &d);
        let mut routed = RoutedIndex::<_, u8>::build_global_with_store(
            fm(171),
            &db,
            &d,
            RoutedConfig {
                cells: CELLS,
                n_probe: 8,
                ..RoutedConfig::default()
            },
        );
        // The recall context for the latency numbers below, into the
        // bench log (32 queries keep the setup cost negligible).
        let curve = recall_vs_n_probe(&mut routed, &batch[..32], &db, &d, K, P, &[4, 8, 16]);
        eprintln!("routed/recall@{K}/n={db_size}: {curve:?}");

        let mut group = c.benchmark_group("routed");
        group.bench_with_input(
            BenchmarkId::new("single/fullscan/u8", db_size),
            &db_size,
            |b, _| b.iter(|| black_box(flat.retrieve(black_box(&single), &db, &d, K, P))),
        );
        group.bench_with_input(
            BenchmarkId::new(format!("batch{BATCH}/fullscan/u8"), db_size),
            &db_size,
            |b, _| b.iter(|| black_box(flat.retrieve_batch(black_box(&batch), &db, &d, K, P))),
        );
        for &n_probe in &[4usize, 8, 16] {
            routed.set_n_probe(n_probe);
            group.bench_with_input(
                BenchmarkId::new(format!("single/np{n_probe}of{CELLS}/u8"), db_size),
                &db_size,
                |b, _| b.iter(|| black_box(routed.retrieve(black_box(&single), &db, &d, K, P))),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("batch{BATCH}/np{n_probe}of{CELLS}/u8"), db_size),
                &db_size,
                |b, _| {
                    b.iter(|| black_box(routed.retrieve_batch(black_box(&batch), &db, &d, K, P)))
                },
            );
        }
        group.finish();
    }
}

/// Startup axis: build-from-raw vs snapshot restore for the served index
/// (`RoutedIndex<_, u8>` over the 100k-row dim-64 Gaussian workload of
/// the `routed` group — the configuration the snapshot CI step pins).
/// `build_from_raw` pays the full pipeline (embed 100k objects, fit the
/// `u8` grid, k-means the embedded rows, split the cells);
/// `load_from_bytes` deserializes a snapshot already in memory — the
/// format-decode floor; `load_from_file` adds the filesystem read, i.e.
/// the cold-start path a deployment actually runs. Restores are
/// bit-identical to the build by construction (pinned by
/// `tests/snapshot_roundtrip.rs` and the cross-process CI step), so this
/// measures pure startup cost.
fn bench_startup(c: &mut Criterion) {
    use qse_dataset::{GaussianMixture, GaussianMixtureConfig};
    use qse_retrieval::{RoutedConfig, RoutedIndex};
    const DB_SIZE: usize = 100_000;
    let d = euclid();
    let mix = GaussianMixture::generate(GaussianMixtureConfig {
        rows: DB_SIZE,
        dim: 64,
        clusters: 32,
        center_box: 10.0,
        spread: 0.5,
        seed: 0xB0B ^ DB_SIZE as u64,
    });
    let db = mix.points;
    let model = {
        let mut rng = StdRng::seed_from_u64(71);
        let pools: Vec<Vec<f64>> = db.iter().take(80).cloned().collect();
        let data = TrainingData::precompute(pools.clone(), pools, &d, 8);
        let triples = TripleSampler::selective(4).sample(&data.train_to_train, 800, &mut rng);
        BoostMapTrainer::new(TrainerConfig::quick()).train(&data, &triples, &mut rng)
    };
    let config = RoutedConfig {
        cells: 64,
        n_probe: 8,
        ..RoutedConfig::default()
    };
    let index =
        RoutedIndex::<_, u8>::build_query_sensitive_with_store(model.clone(), &db, &d, config);
    let bytes = index
        .to_snapshot_bytes()
        .expect("query-sensitive indexes always snapshot");
    let path = std::env::temp_dir().join(format!("qse-bench-startup-{}", std::process::id()));
    std::fs::write(&path, &bytes).expect("bench snapshot write");
    eprintln!(
        "startup/snapshot: {} rows, {} cells, {} bytes on disk",
        index.len(),
        index.cells(),
        bytes.len()
    );

    let mut group = c.benchmark_group("startup");
    // The raw build costs seconds; a reduced sample count keeps the cell
    // affordable while the loads keep the group's default.
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::new("build_from_raw/u8/dim64", DB_SIZE),
        &DB_SIZE,
        |b, _| {
            b.iter(|| {
                black_box(RoutedIndex::<_, u8>::build_query_sensitive_with_store(
                    black_box(model.clone()),
                    black_box(&db),
                    &d,
                    config,
                ))
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("load_from_bytes/u8/dim64", DB_SIZE),
        &DB_SIZE,
        |b, _| {
            b.iter(|| {
                black_box(
                    RoutedIndex::<Vec<f64>, u8>::from_snapshot_bytes(black_box(&bytes))
                        .expect("bench snapshot bytes are valid"),
                )
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("load_from_file/u8/dim64", DB_SIZE),
        &DB_SIZE,
        |b, _| {
            b.iter(|| {
                black_box(
                    RoutedIndex::<Vec<f64>, u8>::load(black_box(&path))
                        .expect("bench snapshot file is valid"),
                )
            })
        },
    );
    // Zero-copy startup: map the file, verify checksums, point every
    // cell at its slice of the one shared mapping — no element copies.
    // This is the O(1)-in-store-size path; the gap to `load_from_file`
    // is the copy the mapped loader no longer pays.
    group.bench_with_input(
        BenchmarkId::new("load_mmap/u8/dim64", DB_SIZE),
        &DB_SIZE,
        |b, _| {
            b.iter(|| {
                let loaded = RoutedIndex::<Vec<f64>, u8>::load_mmap(black_box(&path))
                    .expect("bench snapshot file is valid");
                debug_assert!(loaded.store_is_mapped());
                black_box(loaded)
            })
        },
    );
    group.finish();
    let _ = std::fs::remove_file(&path);
}

/// Persistent pool vs per-call scoped spawning: fan 256 small work items out
/// across `RAYON_NUM_THREADS` workers. The `scoped_spawn` baseline is
/// exactly what the rayon shim did before the persistent pool: partition
/// into contiguous chunks and `std::thread::scope`-spawn one thread per
/// chunk, per call.
fn bench_fanout_substrate(c: &mut Criterion) {
    const ITEMS: usize = 256;
    let inputs: Vec<u64> = (0..ITEMS as u64).collect();
    let work = |x: &u64| -> u64 {
        // A few hundred ns of arithmetic, standing in for one small query.
        let mut acc = *x;
        for i in 0..200u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        acc
    };
    let mut group = c.benchmark_group("fanout_substrate");
    group.bench_function(format!("pool_par_map/{ITEMS}"), |b| {
        b.iter(|| {
            let out: Vec<u64> = inputs.par_iter().map(work).collect();
            black_box(out)
        })
    });
    group.bench_function(format!("scoped_spawn/{ITEMS}"), |b| {
        b.iter(|| {
            let threads = rayon::current_num_threads();
            if threads <= 1 {
                let out: Vec<u64> = inputs.iter().map(work).collect();
                return black_box(out);
            }
            let chunk = ITEMS.div_ceil(threads);
            let mut out: Vec<u64> = Vec::with_capacity(ITEMS);
            std::thread::scope(|scope| {
                let handles: Vec<_> = inputs
                    .chunks(chunk)
                    .map(|batch| scope.spawn(move || batch.iter().map(work).collect::<Vec<u64>>()))
                    .collect();
                for handle in handles {
                    out.extend(handle.join().expect("scoped worker panicked"));
                }
            });
            black_box(out)
        })
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_query_throughput, bench_filter_kernel, bench_select, bench_batch_kernel, bench_store_backends, bench_routed, bench_startup, bench_fanout_substrate
);
criterion_main!(benches);
