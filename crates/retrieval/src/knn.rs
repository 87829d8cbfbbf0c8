//! Brute-force exact k-nearest-neighbor search.
//!
//! Every accuracy number in the paper is measured against the *true* k
//! nearest neighbors under the exact distance `DX`, and the cost baseline is
//! brute force: *"brute force search would require 60000 exact distance
//! computations in the MNIST dataset and 31818 ... in the time series
//! dataset"* (Table 1 caption). This module provides that ground truth,
//! computed in parallel across queries on the rayon substrate. The per-query
//! top-k step keeps a running k-best heap under the NaN-safe
//! `(distance, index)` order (O(n log k)) and hands its current k-th
//! distance to [`DistanceMeasure::distance_within`], so an expensive
//! measure can abandon candidates that cannot make the top k.

use crate::filter_refine::top_p;
use qse_distance::{DistanceMeasure, FilterElem, FlatStore, FlatVectors, WeightedL1};
use rayon::prelude::*;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The result of an exact k-NN query.
#[derive(Debug, Clone, PartialEq)]
pub struct KnnResult {
    /// Indices of the k nearest database objects, closest first.
    pub neighbors: Vec<usize>,
    /// The corresponding exact distances.
    pub distances: Vec<f64>,
}

/// Exact k nearest neighbors of `query` within `database` (ties broken by
/// index for determinism).
///
/// # Panics
/// Panics if `k` is zero or exceeds the database size.
pub fn knn<O, D>(query: &O, database: &[O], distance: &D, k: usize) -> KnnResult
where
    D: DistanceMeasure<O> + ?Sized,
{
    assert!(k >= 1, "k must be at least 1");
    assert!(
        k <= database.len(),
        "k = {k} exceeds the database size {}",
        database.len()
    );
    let best = bounded_top_k(k, 0..database.len(), |i, bound| {
        distance.distance_within(query, &database[i], bound)
    });
    KnnResult {
        neighbors: best.iter().map(|(i, _)| *i).collect(),
        distances: best.iter().map(|(_, d)| *d).collect(),
    }
}

/// One `(distance, key)` entry of [`bounded_top_k`]'s running selection,
/// ordered by the strict total order `(distance.total_cmp, key)`.
struct Ranked(f64, usize);

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

/// The exact-distance selection behind every refine step and [`knn`]: the
/// `k` best `(key, distance)` pairs over `keys`, best first, under the
/// strict total order `(distance, key)` — ties break by the smaller key.
///
/// `distance_within(key, bound)` must follow the
/// [`DistanceMeasure::distance_within`] contract. It is called once per key,
/// with `bound` the current k-th best distance (`+inf` until `k` keys have
/// been seen, or while that distance is NaN). A key is dropped only when its
/// value is strictly greater than `bound`, and then its true distance is
/// too (a NaN distance is never replaced, since it is not greater than any
/// bound), so it could not have made the top `k`. A key exactly at the bound
/// gets its exact distance and competes on the key. The result is therefore
/// the same as measuring every key exactly and sorting.
pub(crate) fn bounded_top_k(
    k: usize,
    keys: impl IntoIterator<Item = usize>,
    mut distance_within: impl FnMut(usize, f64) -> f64,
) -> Vec<(usize, f64)> {
    if k == 0 {
        return Vec::new();
    }
    // Max-heap: the root is the current k-th best.
    let mut best: BinaryHeap<Ranked> = BinaryHeap::with_capacity(k + 1);
    for key in keys {
        let bound = match best.peek() {
            Some(worst) if best.len() == k && !worst.0.is_nan() => worst.0,
            _ => f64::INFINITY,
        };
        let candidate = Ranked(distance_within(key, bound), key);
        if best.len() < k {
            best.push(candidate);
        } else if best.peek().is_some_and(|worst| candidate < *worst) {
            best.pop();
            best.push(candidate);
        }
    }
    best.into_sorted_vec()
        .into_iter()
        .map(|Ranked(d, key)| (key, d))
        .collect()
}

/// The k nearest neighbors of an embedded `query` within a flat row-major
/// vector store under a (weighted) L1 distance — exact on the `f64` store,
/// approximate on the compact ones — computed with one allocation-free
/// [`FlatStore::scan`] over the contiguous buffer followed by the same O(n)
/// `(score, index)` selection as [`knn`].
///
/// This is the brute-force path for databases that *are* vectors (or whose
/// exact distance is the embedded one): `WeightedL1::uniform(dim)` gives
/// plain L1, per-query weights give the query-sensitive `D_out`. On the
/// default `f64` store the reported neighbors are identical to calling
/// `distance.eval` row by row (the scan is bit-identical to the scalar
/// path); on `f32` the ranking and distances are computed over the decoded
/// rows; on `u8` the scan runs the in-domain integer SAD tile
/// (`qse_distance::sad`) — the query is quantized onto the store's grid,
/// so both ranking and reported distances additionally carry the
/// documented bounded query-side quantization error (appropriate only
/// when a cheap approximate ranking is acceptable or the caller refines
/// afterwards).
///
/// # Panics
/// Panics if `k` is zero or exceeds the store size, or on dimensionality
/// mismatch between `distance`, `query` and `vectors`.
pub fn knn_flat<E: FilterElem>(
    distance: &WeightedL1,
    query: &[f64],
    vectors: &FlatStore<E>,
    k: usize,
) -> KnnResult {
    assert!(k >= 1, "k must be at least 1");
    assert!(
        k <= vectors.len(),
        "k = {k} exceeds the database size {}",
        vectors.len()
    );
    let mut scores = vec![0.0; vectors.len()];
    vectors.scan(query, distance.weights(), &mut scores);
    let neighbors = top_p(&scores, k);
    let distances = neighbors.iter().map(|&i| scores[i]).collect();
    KnnResult {
        neighbors,
        distances,
    }
}

/// The k nearest neighbors of every row of an embedded query batch within
/// a flat vector store, under a (weighted) L1 distance (exact on `f64`, as
/// [`knn_flat`]).
///
/// The batched counterpart of [`knn_flat`], running the same tiled pipeline
/// as the retrieval indexes (`filter_refine::tiled_query_pipeline`): the
/// batch is cut into query tiles fanned out across the persistent worker
/// pool, each tile scored by one [`FlatStore::scan`] (the tile's query rows stay
/// cache-resident while the store streams once per tile; no batch-sized
/// score matrix is ever materialized), followed by the O(n)
/// `(score, index)` selection per query on the tile's still-hot rows.
/// Results are in query order and identical to calling [`knn_flat`] per
/// query, at any thread count; query rows repeated within one tile reuse
/// the first occurrence's result through the pipeline's duplicate-query
/// memo (sound here because the result is a pure function of the row
/// values). An empty query batch returns an empty vector.
///
/// # Panics
/// As [`knn_flat`] (when the batch is non-empty), plus on dimensionality
/// mismatch between `queries` and `vectors`.
pub fn knn_flat_batch<E: FilterElem>(
    distance: &WeightedL1,
    queries: &FlatVectors,
    vectors: &FlatStore<E>,
    k: usize,
) -> Vec<KnnResult> {
    if queries.is_empty() {
        return Vec::new();
    }
    assert!(k >= 1, "k must be at least 1");
    assert!(
        k <= vectors.len(),
        "k = {k} exceeds the database size {}",
        vectors.len()
    );
    crate::filter_refine::tiled_query_pipeline(
        queries.len(),
        vectors.len(),
        k,
        |a, b| queries.row(a) == queries.row(b),
        |q0, q1, scores| {
            let dim = queries.dim();
            vectors.scan(
                &queries.as_slice()[q0 * dim..q1 * dim],
                distance.weights(),
                scores,
            )
        },
        |_q, row, order| KnnResult {
            neighbors: order.to_vec(),
            distances: order.iter().map(|&i| row[i]).collect(),
        },
    )
}

/// Exact `kmax` nearest neighbors for every query, computed across rayon
/// worker threads (`threads <= 1` forces the sequential path; larger values
/// enable the parallel path, whose width follows `RAYON_NUM_THREADS`).
///
/// This is the (expensive) ground-truth step of the evaluation harness; its
/// cost is `|queries| · |database|` exact distance computations.
pub fn ground_truth<O, D>(
    queries: &[O],
    database: &[O],
    distance: &D,
    kmax: usize,
    threads: usize,
) -> Vec<KnnResult>
where
    O: Sync,
    D: DistanceMeasure<O> + Sync + ?Sized,
{
    assert!(!queries.is_empty(), "need at least one query");
    if threads <= 1 || queries.len() < 2 {
        return queries
            .iter()
            .map(|q| knn(q, database, distance, kmax))
            .collect();
    }
    queries
        .par_iter()
        .map(|q| knn(q, database, distance, kmax))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qse_distance::traits::{FnDistance, MetricProperties};
    use qse_distance::CountingDistance;

    fn abs() -> FnDistance<impl Fn(&f64, &f64) -> f64 + Send + Sync> {
        FnDistance::new("abs", MetricProperties::Metric, |a: &f64, b: &f64| {
            (a - b).abs()
        })
    }

    #[test]
    fn finds_the_true_nearest_neighbors_in_order() {
        let db = vec![10.0, 0.0, 5.0, 2.0, 8.0];
        let res = knn(&1.0, &db, &abs(), 3);
        assert_eq!(res.neighbors, vec![1, 3, 2]);
        assert_eq!(res.distances, vec![1.0, 1.0, 4.0]);
    }

    #[test]
    fn ties_break_by_index() {
        let db = vec![2.0, 0.0, 2.0];
        let res = knn(&1.0, &db, &abs(), 3);
        assert_eq!(res.neighbors, vec![0, 1, 2]);
    }

    #[test]
    fn brute_force_cost_is_database_size() {
        let db: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let counting = CountingDistance::new(abs());
        let _ = knn(&7.3, &db, &counting, 5);
        assert_eq!(counting.count(), 50);
    }

    #[test]
    fn parallel_ground_truth_matches_sequential() {
        let db: Vec<f64> = (0..40).map(|i| (i as f64) * 1.7).collect();
        let queries: Vec<f64> = (0..9).map(|i| i as f64 * 3.1 + 0.4).collect();
        let seq = ground_truth(&queries, &db, &abs(), 5, 1);
        let par = ground_truth(&queries, &db, &abs(), 5, 4);
        assert_eq!(seq, par);
    }

    /// Runs [`bounded_top_k`] over `(key, exact distance)` pairs in the given
    /// arrival order with a measure that honours the `distance_within`
    /// contract as loosely as allowed: past the bound it returns
    /// `bound + 1`. Returns the selection and the bounds it was handed.
    fn select(k: usize, arrivals: &[(usize, f64)]) -> (Vec<(usize, f64)>, Vec<f64>) {
        let exact: std::collections::HashMap<usize, f64> = arrivals.iter().copied().collect();
        let mut bounds = Vec::new();
        let best = bounded_top_k(k, arrivals.iter().map(|a| a.0), |key, bound| {
            bounds.push(bound);
            let d = exact[&key];
            if d > bound {
                bound + 1.0
            } else {
                d
            }
        });
        (best, bounds)
    }

    /// The reference: every exact distance, sorted by `(distance, key)`.
    fn sorted_top(k: usize, arrivals: &[(usize, f64)]) -> Vec<(usize, f64)> {
        let mut all = arrivals.to_vec();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    #[test]
    fn bounded_top_k_admits_a_lower_key_exactly_at_the_kth_distance() {
        // Key 9 holds the k-th place at distance 2; key 4 arrives later at
        // exactly that distance and must displace it on the key.
        let arrivals = [(7, 1.0), (9, 2.0), (8, 5.0), (4, 2.0), (6, 2.0)];
        let (best, bounds) = select(2, &arrivals);
        assert_eq!(best, vec![(7, 1.0), (4, 2.0)]);
        assert_eq!(best, sorted_top(2, &arrivals));
        // Unbounded until k keys are in, then the running k-th distance.
        assert_eq!(bounds, vec![f64::INFINITY, f64::INFINITY, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn bounded_top_k_matches_a_full_sort() {
        let mut state = 0x9E3779B97F4A7C15u64;
        for round in 0..200 {
            let n = 1 + round % 37;
            let arrivals: Vec<(usize, f64)> = (0..n)
                .map(|i| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    // Few distinct values, so ties are everywhere.
                    ((i * 7919) % 1000, ((state >> 33) % 6) as f64)
                })
                .collect();
            for k in 1..=n + 1 {
                assert_eq!(
                    select(k, &arrivals).0,
                    sorted_top(k, &arrivals),
                    "n {n} k {k}"
                );
            }
        }
    }

    #[test]
    fn bounded_top_k_handles_nan_and_empty_selections() {
        // A NaN k-th distance is no bound: later keys are measured exactly.
        let arrivals = [(0, f64::NAN), (1, 3.0), (2, f64::INFINITY)];
        let (best, bounds) = select(1, &arrivals);
        assert_eq!(best, vec![(1, 3.0)]);
        assert_eq!(bounds, vec![f64::INFINITY, f64::INFINITY, 3.0]);
        assert!(select(0, &arrivals).0.is_empty());
        assert!(select(3, &[]).0.is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds the database size")]
    fn rejects_oversized_k() {
        let _ = knn(&0.0, &[1.0, 2.0], &abs(), 3);
    }

    #[test]
    fn knn_flat_matches_generic_knn_under_l1() {
        use qse_distance::{FlatVectors, LpDistance, WeightedL1};
        let rows: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![(i % 7) as f64, (i % 5) as f64 * 1.3, i as f64 * 0.11])
            .collect();
        let query = vec![2.5, 1.9, 1.0];
        let truth = knn(&query, &rows, &LpDistance::l1(), 6);
        let flat = FlatVectors::from_rows(rows);
        let result = super::knn_flat(&WeightedL1::uniform(3), &query, &flat, 6);
        assert_eq!(result.neighbors, truth.neighbors);
        for (a, b) in result.distances.iter().zip(&truth.distances) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn knn_flat_batch_matches_per_query_knn_flat() {
        use qse_distance::{FlatVectors, WeightedL1};
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i % 9) as f64 * 0.7, (i % 4) as f64, i as f64 * 0.05])
            .collect();
        let store = FlatVectors::from_rows(rows);
        // More queries than one kernel tile, to cross the tile boundary.
        let queries = FlatVectors::from_rows(
            (0..21)
                .map(|q| vec![q as f64 * 0.31, (q % 5) as f64, 1.0])
                .collect(),
        );
        let d = WeightedL1::new(vec![1.0, 0.5, 2.0]);
        let batch = super::knn_flat_batch(&d, &queries, &store, 6);
        assert_eq!(batch.len(), queries.len());
        for (q, result) in batch.iter().enumerate() {
            assert_eq!(
                *result,
                super::knn_flat(&d, queries.row(q), &store, 6),
                "query {q}"
            );
        }
    }

    #[test]
    fn knn_flat_batch_on_empty_query_batch_returns_empty() {
        use qse_distance::{FlatVectors, WeightedL1};
        let store = FlatVectors::from_rows(vec![vec![1.0], vec![2.0]]);
        let queries = FlatVectors::with_dim(1);
        assert!(super::knn_flat_batch(&WeightedL1::uniform(1), &queries, &store, 1).is_empty());
        // Zero sequential calls panic on nothing, even with oversized k.
        assert!(super::knn_flat_batch(&WeightedL1::uniform(1), &queries, &store, 9).is_empty());
    }

    #[test]
    fn knn_flat_batch_handles_zero_dimensional_queries() {
        use qse_distance::{FlatVectors, WeightedL1};
        // dim = 0: every distance is the empty sum, ties break by index.
        let mut store = FlatVectors::with_dim(0);
        let mut queries = FlatVectors::with_dim(0);
        for _ in 0..4 {
            store.push(&[]);
        }
        for _ in 0..3 {
            queries.push(&[]);
        }
        let batch = super::knn_flat_batch(&WeightedL1::new(Vec::new()), &queries, &store, 2);
        for result in &batch {
            assert_eq!(result.neighbors, vec![0, 1]);
            assert_eq!(result.distances, vec![0.0, 0.0]);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the database size")]
    fn knn_flat_batch_rejects_oversized_k() {
        use qse_distance::{FlatVectors, WeightedL1};
        let store = FlatVectors::from_rows(vec![vec![1.0]]);
        let queries = FlatVectors::from_rows(vec![vec![0.0]]);
        let _ = super::knn_flat_batch(&WeightedL1::uniform(1), &queries, &store, 2);
    }

    #[test]
    fn knn_flat_respects_weights_and_tie_breaks_by_index() {
        use qse_distance::{FlatVectors, WeightedL1};
        // Two rows at equal weighted distance from the query -> lower index
        // first; a third row is pushed away by the weights.
        let flat = FlatVectors::from_rows(vec![vec![1.0, 0.0], vec![0.0, 0.5], vec![0.0, 10.0]]);
        let d = WeightedL1::new(vec![1.0, 2.0]);
        let result = super::knn_flat(&d, &[0.0, 0.0], &flat, 3);
        assert_eq!(result.neighbors, vec![0, 1, 2]);
        assert_eq!(result.distances, vec![1.0, 1.0, 20.0]);
    }
}
