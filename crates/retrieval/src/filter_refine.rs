//! Filter-and-refine retrieval (Section 8 of the paper).
//!
//! Given an embedding `F` (and, for query-sensitive models, the distance
//! `D_out`), retrieval of the k nearest neighbors of a query `q` proceeds in
//! three steps:
//!
//! 1. **Embedding step** — compute `F(q)` by measuring the exact distances
//!    between `q` and the embedding's reference / pivot objects.
//! 2. **Filter step** — score the (pre-embedded) database by the cheap
//!    vector distance and keep the best `p` candidates.
//! 3. **Refine step** — measure the exact distance from `q` to each of the
//!    `p` candidates and return the best `k`.
//!
//! The per-query budget the paper reports is the number of exact distance
//! computations spent in steps 1 and 3; the filter step touches only
//! vectors. [`FilterRefineIndex`] supports both a *global* L1 filter distance
//! (FastMap, Lipschitz, original BoostMap) and the *query-sensitive*
//! weighted L1 of a trained [`QseModel`].
//!
//! ## The filter step as a hot path
//!
//! At production database sizes the filter scan dominates wall-clock time
//! (the exact distances are few but the scan touches every vector), so it is
//! engineered accordingly:
//!
//! * embedded database vectors are stored in one flat row-major
//!   [`FlatStore<E>`](qse_distance::FlatStore) (of which [`FlatVectors`]
//!   is the exact-`f64` alias, both re-exported from `qse-distance`) so
//!   the scan walks memory linearly with stride `dim` instead of chasing
//!   one heap allocation per vector. The elements behind the store are a
//!   `Storage<E>` — either a heap-owned buffer (anything built in
//!   process) or a zero-copy borrow out of an `mmap`ed snapshot (the
//!   `load_mmap` loaders); the scan kernels read both through the same
//!   slice and are bit-identical across them;
//! * the scan itself is [`FlatStore::scan`](qse_distance::FlatStore::scan)
//!   — one batch of query rows against every stored row, no per-row
//!   allocation. On the exact backends it runs the blocked decode tile
//!   (fixed-width lanes, independent accumulators), whose outputs are
//!   bit-identical to the row-by-row scalar path; on `u8` it runs the
//!   integer weighted-SAD tile (see *Filter-store precision* below);
//! * [`FilterRefineIndex::retrieve`] keeps the best `p` candidates with
//!   [`TopP`], a single pass over packed `(score key, id)` pairs behind a
//!   running threshold — O(n), with no indirect comparator — and only
//!   sorts those `p`, instead of sorting the whole database (O(n log n));
//! * [`FilterRefineIndex::retrieve_batch`] runs the batched pipeline:
//!   batch-embed every query into flat storage (`embed_queries`), cut the
//!   batch into query tiles fanned out across the persistent rayon worker
//!   pool, and score each tile with one `FlatStore::scan` — the tile's
//!   query rows stay cache-resident while the database streams once per
//!   tile — then select top-p and refine per query on the tile's hot
//!   scores. Every outcome is identical to calling
//!   [`FilterRefineIndex::retrieve`] query by query.
//!
//! Selection uses the strict total order `(score, index)` (NaN-safe via
//! `f64::total_cmp`), so its result is **identical** to taking the first `p`
//! entries of the fully sorted ranking — asserted for every `(k, p)` by the
//! workspace tests.
//!
//! ## Filter-store precision
//!
//! Because the refine step recomputes **exact** distances for every
//! candidate, the filter store only has to be good enough to put the true
//! neighbors among the `p` survivors — it does not need `f64` precision.
//! [`FilterRefineIndex`] is therefore generic over the store's
//! [`FilterElem`] backend (`f64` exact default, `f32`, or `u8` scalar
//! quantization; see `qse_distance::vector`): the historical constructors
//! keep building exact `f64` indexes bit-identical to before, while
//! [`FilterRefineIndex::build_global_with_store`] /
//! [`FilterRefineIndex::build_query_sensitive_with_store`] select a compact
//! backend that halves (f32) or eighth-sizes (u8) the memory the filter
//! scan streams. For quantized stores, the
//! [`FilterRefineIndex::with_p_scale`] oversampling knob widens the filter
//! candidate set (`p → ⌈p · p_scale⌉`, capped at the database size) to
//! absorb quantization error before the exact refine step reorders it.
//!
//! The filter scan dispatches through the backend's `FilterElem::scan`
//! hook: the exact backends run the decode tile bit-identically to the
//! historical scan, while `u8` stores are scanned **in the integer
//! domain** (`qse_distance::sad`) — the query is
//! quantized onto the store's grid at scoring time and the weighted
//! sum-of-absolute-differences accumulates in widened integer arithmetic
//! over the raw bytes, with one per-query rescale back to score units. The
//! second (query-side) quantization error this adds is bounded and
//! rank-safe enough for a filter whose survivors are exactly re-ranked;
//! to compensate for the widened two-sided error bound, `u8` indexes
//! default to `FilterElem::DEFAULT_P_SCALE = 2.0` (override with
//! [`FilterRefineIndex::with_p_scale`]).

use crate::error::{check_query_params, QueryError};
use crate::knn::bounded_top_k;
use qse_core::QseModel;
use qse_distance::{DistanceMeasure, WeightedL1};
use qse_embedding::Embedding;
use rayon::prelude::*;
use std::ops::Range;

pub use qse_distance::{FilterElem, FlatStore, FlatVectors};

/// How the filter step scores database vectors against the query. Shared
/// with the cluster-routed index (`crate::routed`), whose per-cell scans
/// reuse the exact same two filter modes.
pub(crate) enum FilterKind<O> {
    /// Plain (unweighted) L1 distance between embedded vectors, evaluated by
    /// the flat kernel with uniform weights (1.0 · |a − b| is exact, so this
    /// equals the unweighted scan bit for bit).
    GlobalL1 {
        embedding: Box<dyn Embedding<O>>,
        filter: WeightedL1,
    },
    /// The query-sensitive weighted L1 distance `D_out` of a trained model.
    QuerySensitive { model: QseModel<O> },
}

impl<O: Clone + Send + Sync> FilterKind<O> {
    /// Dimensionality of the embedded vectors.
    pub(crate) fn dim(&self) -> usize {
        match self {
            FilterKind::GlobalL1 { embedding, .. } => embedding.dim(),
            FilterKind::QuerySensitive { model } => model.dim(),
        }
    }

    /// Exact distance computations needed to embed one query.
    pub(crate) fn embedding_cost(&self) -> usize {
        match self {
            FilterKind::GlobalL1 { embedding, .. } => embedding.embedding_cost(),
            FilterKind::QuerySensitive { model } => model.embedding_cost(),
        }
    }

    /// Embed one query into the form `FlatStore::scan` takes: its
    /// coordinates and its weight row — the shared L1 weights, or the
    /// query-sensitive `A_i(q)`.
    pub(crate) fn embed(
        &self,
        query: &O,
        distance: &dyn DistanceMeasure<O>,
    ) -> (Vec<f64>, Vec<f64>) {
        match self {
            FilterKind::GlobalL1 { embedding, filter } => {
                (embedding.embed(query, distance), filter.weights().to_vec())
            }
            FilterKind::QuerySensitive { model } => {
                let eq = model.embed_query(query, distance);
                (eq.coordinates, eq.weights)
            }
        }
    }

    /// Embed a whole query batch into the form `FlatStore::scan` takes
    /// (see [`FilterBatch`]).
    pub(crate) fn embed_batch(
        &self,
        queries: &[O],
        distance: &dyn DistanceMeasure<O>,
    ) -> FilterBatch {
        match self {
            FilterKind::GlobalL1 { embedding, filter } => FilterBatch {
                coords: embedding.embed_queries(queries, distance),
                weights: FlatVectors::from_rows(vec![filter.weights().to_vec()]),
            },
            FilterKind::QuerySensitive { model } => {
                let batch = model.embed_queries(queries, distance);
                FilterBatch {
                    coords: batch.coordinates,
                    weights: batch.weights,
                }
            }
        }
    }
}

/// An embedded query batch in filter form: one coordinate row per query,
/// plus one shared weight row (global L1) or one weight row per query
/// (query-sensitive) — the two weight layouts `FlatStore::scan` accepts.
pub(crate) struct FilterBatch {
    coords: FlatVectors,
    weights: FlatVectors,
}

impl FilterBatch {
    /// The coordinate and weight rows of `queries`, ready for
    /// `FlatStore::scan`.
    pub(crate) fn rows(&self, queries: Range<usize>) -> (&[f64], &[f64]) {
        let dim = self.coords.dim();
        let rows = queries.start * dim..queries.end * dim;
        let weights = if self.weights.len() == 1 {
            self.weights.as_slice()
        } else {
            &self.weights.as_slice()[rows.clone()]
        };
        (&self.coords.as_slice()[rows], weights)
    }
}

/// Indices of the `p` smallest scores, in increasing order under the strict
/// total order `(score, index)` — exactly the first `p` entries of a full
/// `(score, index)` sort. `p == 0` and `p >= scores.len()` return the full
/// sorted ranking.
///
/// Shared by the static index, the dynamic and concurrent indexes, the
/// router and the evaluation harness, so every filter path is *provably*
/// the same selection ([`TopP`] over ids `0..n`).
pub(crate) fn top_p(scores: &[f64], p: usize) -> Vec<usize> {
    let mut top = TopP::new(p);
    top.push(scores, 0..scores.len());
    top.finish()
}

/// Single-pass top-p selection under the strict total order
/// `(score, id)`, the selection of every filter path.
///
/// Each candidate is packed into one `u128`: the high word is a `u64` key
/// whose unsigned order equals [`f64::total_cmp`] (so NaN-safe, with
/// `-0.0 < +0.0`), the low word is the id. Unsigned `u128` order is then
/// exactly `(score, id)`, and selection needs no indirect comparator.
/// Candidates stream through [`Self::push`] behind a running threshold —
/// the `p`-th best packed value seen so far — so most rows cost one key
/// computation and one compare. Survivors collect in a buffer of `4p`
/// pairs; when it fills, `select_nth_unstable` compacts it back to the best
/// `p` and tightens the threshold. [`Self::finish`] sorts the final `p`.
///
/// The result depends only on the *set* of `(score, id)` pairs offered, not
/// on the order they arrive in — which is what lets the routed paths feed
/// each visited cell's scores and ids straight in and still match the full
/// scan's selection bit for bit. Ids must be distinct within one selection.
#[derive(Debug, Clone, Default)]
pub struct TopP {
    /// Candidates kept (`0`: keep every candidate).
    p: usize,
    /// Buffer length that triggers a compaction: `4p`, or never for `p == 0`.
    cap: usize,
    /// Largest packed value that can still enter the best `p`.
    threshold: u128,
    buf: Vec<u128>,
}

impl TopP {
    /// An empty selection of the best `p` candidates (`p == 0`: all of
    /// them, fully ranked).
    pub fn new(p: usize) -> Self {
        let mut top = Self::default();
        top.reset(p);
        top
    }

    /// Start a new selection of the best `p`, keeping the buffer's
    /// allocation.
    pub fn reset(&mut self, p: usize) {
        self.p = p;
        self.cap = if p == 0 {
            usize::MAX
        } else {
            p.saturating_mul(4)
        };
        self.threshold = u128::MAX;
        self.buf.clear();
    }

    /// Offer candidates: `scores[i]` is the score of the `i`-th id `ids`
    /// yields.
    #[inline]
    pub fn push(&mut self, scores: &[f64], ids: impl IntoIterator<Item = usize>) {
        for (&score, id) in scores.iter().zip(ids) {
            let packed = (u128::from(total_order_key(score)) << 64) | id as u128;
            if packed <= self.threshold {
                self.buf.push(packed);
                if self.buf.len() >= self.cap {
                    self.compact();
                }
            }
        }
    }

    /// The ids of the best `p` candidates offered since the last reset,
    /// best first (all of them when fewer than `p` were offered or
    /// `p == 0`). The selection is left empty, ready for the next
    /// candidates under the same `p`.
    pub fn finish(&mut self) -> Vec<usize> {
        if self.buf.len() > self.p && self.p > 0 {
            self.compact();
        }
        self.buf.sort_unstable();
        let ids = self
            .buf
            .iter()
            .map(|&packed| packed as u64 as usize)
            .collect();
        self.reset(self.p);
        ids
    }

    /// Keep only the best `p` buffered candidates; the worst of them
    /// becomes the threshold.
    fn compact(&mut self) {
        let (_, &mut worst, _) = self.buf.select_nth_unstable(self.p - 1);
        self.buf.truncate(self.p);
        self.threshold = worst;
    }
}

/// A `u64` whose unsigned order equals [`f64::total_cmp`]: flip every bit
/// of a negative float, only the sign bit of a non-negative one.
#[inline]
fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ ((((bits as i64) >> 63) as u64) | (1 << 63))
}

/// The shared per-tile driver of every batched retrieval pipeline
/// ([`FilterRefineIndex::retrieve_batch`], `DynamicIndex::retrieve_batch`,
/// `knn_flat_batch`): cut `count` queries into
/// [`QUERY_TILE`](qse_distance::vector::QUERY_TILE)-row tiles fanned out
/// across the persistent worker pool; for each tile, `score_tile(q0, q1,
/// scores)` fills a tile-local `(q1 − q0) · n` score buffer (row-major, one
/// row per query of the tile), then for every query `q` of the tile the
/// driver selects the best `p` indices — one [`TopP`] whose buffer is
/// reused across the tile — and hands `finish` the query
/// index, its score row and the selection. Results come back in query
/// order.
///
/// ## The per-tile duplicate-query memo
///
/// Production batches (and the clustered workloads the paper evaluates)
/// routinely repeat popular queries. Exact distances cannot be shared
/// *across distinct queries* — `d(q, x)` depends on the query argument — so
/// the only sound reuse is between **equal** queries, and that is what the
/// memo exploits: before selecting/refining query `q`, the driver asks
/// `same_query(r, q)` for every earlier query `r` of the same tile, and on
/// a match clones `r`'s finished result instead of re-running top-p
/// selection and (crucially) the exact-distance refine step. `same_query`
/// must be an equivalence compatible with the whole per-query pipeline —
/// i.e. `same_query(r, q)` implies the sequential path would produce
/// identical results for `r` and `q` — which the callers guarantee by
/// comparing the original query *objects* (`O: PartialEq`, assuming the
/// exact distance is a deterministic function of its arguments' values) or
/// the raw embedded rows. Reuse never crosses a tile boundary, so the memo
/// cannot change tile fan-out behaviour or peak memory.
///
/// Keeping the tiling, buffer reuse, selection and memo in one routine is
/// what makes the three batch paths *provably* the same pipeline — and no
/// `count × n` score matrix is ever materialized: peak memory per worker is
/// one tile's scores.
pub(crate) fn tiled_query_pipeline<T, S, Q, F>(
    count: usize,
    n: usize,
    p: usize,
    same_query: Q,
    score_tile: S,
    finish: F,
) -> Vec<T>
where
    T: Clone + Send,
    S: Fn(usize, usize, &mut [f64]) + Sync,
    Q: Fn(usize, usize) -> bool + Sync,
    F: Fn(usize, &[f64], &[usize]) -> T + Sync,
{
    use qse_distance::vector::QUERY_TILE;
    let tiles = count.div_ceil(QUERY_TILE);
    let per_tile: Vec<Vec<T>> = (0..tiles)
        .into_par_iter()
        .map(|tile| {
            let q0 = tile * QUERY_TILE;
            let q1 = (q0 + QUERY_TILE).min(count);
            let mut scores = vec![0.0; (q1 - q0) * n];
            score_tile(q0, q1, &mut scores);
            // One selection buffer serves every query of the tile.
            let mut top = TopP::new(p);
            let mut results: Vec<T> = Vec::with_capacity(q1 - q0);
            for q in q0..q1 {
                if let Some(r) = (q0..q).find(|&r| same_query(r, q)) {
                    // Duplicate of an earlier query of this tile: reuse its
                    // finished result (identical by construction), skipping
                    // selection and the exact-distance refine step.
                    results.push(results[r - q0].clone());
                    continue;
                }
                let row = &scores[(q - q0) * n..(q - q0 + 1) * n];
                top.push(row, 0..n);
                results.push(finish(q, row, &top.finish()));
            }
            results
        })
        .collect();
    per_tile.into_iter().flatten().collect()
}

/// `⌈p · p_scale⌉` capped at the database size `n`: the number of filter
/// candidates the retrieve paths actually keep. With the default
/// `p_scale = 1.0`, `⌈p · 1.0⌉ = p` exactly, so behaviour is untouched.
pub(crate) fn effective_p(p: usize, p_scale: f64, n: usize) -> usize {
    (((p as f64) * p_scale).ceil() as usize).min(n)
}

/// The refine step shared by every retrieval pipeline in this crate (the
/// static index's sequential and batched paths and the routed index):
/// measure the exact distance from `query` to every filter candidate,
/// keep the best `k` under the strict total order `(distance, index)`.
/// One routine everywhere is what makes the pipelines *provably*
/// identical: a candidate **set** determines the outcome regardless of
/// the order candidates arrive in.
///
/// The selection is [`bounded_top_k`], so each candidate is measured with
/// [`DistanceMeasure::distance_within`] against the running k-th distance
/// and may be abandoned early. It still counts as one exact distance:
/// `refine_cost` is the number of candidates.
pub(crate) fn refine_candidates<O>(
    query: &O,
    database: &[O],
    distance: &dyn DistanceMeasure<O>,
    k: usize,
    candidates: &[usize],
    embedding_cost: usize,
) -> RetrievalOutcome {
    let refine_cost = candidates.len();
    let refined = bounded_top_k(k, candidates.iter().copied(), |i, bound| {
        distance.distance_within(query, &database[i], bound)
    });
    RetrievalOutcome {
        neighbors: refined.iter().map(|(i, _)| *i).collect(),
        distances: refined.iter().map(|(_, d)| *d).collect(),
        embedding_cost,
        refine_cost,
    }
}

/// The refine step of the mutable indexes (`DynamicIndex`,
/// `ConcurrentIndex`): the same bounded selection as
/// [`refine_candidates`], reading each candidate id in `order` through
/// `object` instead of copying the candidates out. Ties break by filter
/// rank (position in `order`), not by id as in [`refine_candidates`].
/// Returns the `k` best ids, best first.
pub(crate) fn refine_ranked<'a, O: 'a>(
    query: &O,
    distance: &dyn DistanceMeasure<O>,
    k: usize,
    order: &[usize],
    object: impl Fn(usize) -> &'a O,
) -> Vec<usize> {
    bounded_top_k(k, 0..order.len(), |rank, bound| {
        distance.distance_within(query, object(order[rank]), bound)
    })
    .into_iter()
    .map(|(rank, _)| order[rank])
    .collect()
}

/// A database indexed for filter-and-refine retrieval under one embedding.
///
/// Generic over the filter-store precision `E` ([`FilterElem`]; `f64` by
/// default — the historical exact store). The refine step always recomputes
/// exact distances, so a compact backend trades filter selectivity (not
/// final correctness) for memory bandwidth; see the module docs.
pub struct FilterRefineIndex<O, E: FilterElem = f64> {
    pub(crate) kind: FilterKind<O>,
    pub(crate) vectors: FlatStore<E>,
    /// Oversampling factor applied to `p` in the retrieve paths (≥ 1.0;
    /// exactly 1.0 by default, where `⌈p · 1.0⌉ = p` leaves behaviour
    /// untouched).
    pub(crate) p_scale: f64,
}

/// The outcome of one filter-and-refine retrieval.
#[derive(Debug, Clone, PartialEq)]
pub struct RetrievalOutcome {
    /// Indices of the k reported neighbors, best first (by exact distance).
    pub neighbors: Vec<usize>,
    /// Exact distances of the reported neighbors.
    pub distances: Vec<f64>,
    /// Exact distance computations spent embedding the query.
    pub embedding_cost: usize,
    /// Exact distance computations spent in the refine step (= p).
    pub refine_cost: usize,
}

impl RetrievalOutcome {
    /// Total exact distance computations for this query (the paper's cost
    /// metric).
    pub fn total_cost(&self) -> usize {
        self.embedding_cost + self.refine_cost
    }
}

impl<O: Clone + Send + Sync> FilterRefineIndex<O> {
    /// Index `database` under a global-L1 embedding (FastMap, Lipschitz,
    /// query-insensitive BoostMap, ...) with the exact `f64` filter store.
    /// The indexing cost is `|database| · embedding_cost` exact distances,
    /// paid offline (the embedding pass runs in parallel).
    pub fn build_global<E>(embedding: E, database: &[O], distance: &dyn DistanceMeasure<O>) -> Self
    where
        E: Embedding<O> + 'static,
    {
        Self::build_global_with_store(embedding, database, distance)
    }

    /// Index `database` under a trained (query-sensitive or insensitive)
    /// [`QseModel`] with the exact `f64` filter store. Database objects are
    /// embedded with `F_out`; at query time the filter step uses `D_out`.
    pub fn build_query_sensitive(
        model: QseModel<O>,
        database: &[O],
        distance: &dyn DistanceMeasure<O>,
    ) -> Self {
        Self::build_query_sensitive_with_store(model, database, distance)
    }

    /// Index a database whose vectors under this embedding have already been
    /// computed elsewhere (e.g. once at the maximum dimensionality, then
    /// truncated for each prefix during a parameter sweep).
    ///
    /// # Panics
    /// Panics if the vectors are empty or their dimensionality does not match
    /// the embedding.
    pub fn from_vectors_global<E>(embedding: E, vectors: Vec<Vec<f64>>) -> Self
    where
        E: Embedding<O> + 'static,
    {
        assert!(!vectors.is_empty(), "cannot index an empty database");
        assert!(
            vectors.iter().all(|v| v.len() == embedding.dim()),
            "vector dimensionality does not match the embedding"
        );
        Self {
            kind: FilterKind::GlobalL1 {
                filter: WeightedL1::uniform(embedding.dim()),
                embedding: Box::new(embedding),
            },
            vectors: FlatVectors::from_rows(vectors),
            p_scale: 1.0,
        }
    }

    /// Like [`Self::from_vectors_global`] but for a trained [`QseModel`].
    ///
    /// # Panics
    /// Panics if the vectors are empty or their dimensionality does not match
    /// the model.
    pub fn from_vectors_query_sensitive(model: QseModel<O>, vectors: Vec<Vec<f64>>) -> Self {
        assert!(!vectors.is_empty(), "cannot index an empty database");
        assert!(
            vectors.iter().all(|v| v.len() == model.dim()),
            "vector dimensionality does not match the model"
        );
        Self {
            kind: FilterKind::QuerySensitive { model },
            vectors: FlatVectors::from_rows(vectors),
            p_scale: 1.0,
        }
    }
}

impl<O: Clone + Send + Sync, E: FilterElem> FilterRefineIndex<O, E> {
    /// Index `database` under a global-L1 embedding with an explicit
    /// filter-store precision `E` — e.g.
    /// `FilterRefineIndex::<_, f32>::build_global_with_store(...)`. The
    /// `f64` instantiation is what [`Self::build_global`] delegates to and
    /// is bit-identical to the historical index; compact backends encode
    /// the embedded database rows at indexing time (the `u8` grid is fitted
    /// over the whole collection here).
    pub fn build_global_with_store<Emb>(
        embedding: Emb,
        database: &[O],
        distance: &dyn DistanceMeasure<O>,
    ) -> Self
    where
        Emb: Embedding<O> + 'static,
    {
        assert!(!database.is_empty(), "cannot index an empty database");
        let vectors = embedding.embed_store(database, distance);
        Self {
            kind: FilterKind::GlobalL1 {
                filter: WeightedL1::uniform(embedding.dim()),
                embedding: Box::new(embedding),
            },
            vectors,
            p_scale: E::DEFAULT_P_SCALE,
        }
    }

    /// Index `database` under a trained [`QseModel`] with an explicit
    /// filter-store precision `E` (see
    /// [`Self::build_global_with_store`]).
    pub fn build_query_sensitive_with_store(
        model: QseModel<O>,
        database: &[O],
        distance: &dyn DistanceMeasure<O>,
    ) -> Self {
        assert!(!database.is_empty(), "cannot index an empty database");
        let embedding = model.embedding();
        let vectors = embedding.embed_store(database, distance);
        Self {
            kind: FilterKind::QuerySensitive { model },
            vectors,
            p_scale: E::DEFAULT_P_SCALE,
        }
    }

    /// Index **pre-embedded** rows under a trained [`QseModel`] with an
    /// explicit filter-store precision `E`: the rows are encoded once
    /// into the chosen store (the `u8` grid is fitted over them here).
    /// This is how a large database embedded once is indexed under every
    /// backend without re-running the embedding per precision — the rows
    /// must be what `model.embedding()` produced over the collection.
    ///
    /// # Panics
    /// Panics if the rows are empty or their dimensionality does not
    /// match the model.
    pub fn from_vectors_query_sensitive_with_store(
        model: QseModel<O>,
        vectors: Vec<Vec<f64>>,
    ) -> Self {
        assert!(!vectors.is_empty(), "cannot index an empty database");
        assert!(
            vectors.iter().all(|v| v.len() == model.dim()),
            "vector dimensionality does not match the model"
        );
        let dim = model.dim();
        Self {
            kind: FilterKind::QuerySensitive { model },
            vectors: FlatStore::from_rows_with_dim(dim, vectors),
            p_scale: E::DEFAULT_P_SCALE,
        }
    }

    /// Set the filter oversampling factor: the retrieve paths keep
    /// `⌈p · p_scale⌉` filter candidates (capped at the database size)
    /// while still *validating* against the caller's `p`; the outcome's
    /// `refine_cost` reports the scaled candidate count actually refined.
    /// Useful with quantized stores, whose coarser filter scores may rank a
    /// true neighbor just past position `p`; the refine step's exact
    /// distances then restore the final order. The starting value is the
    /// backend's [`FilterElem::DEFAULT_P_SCALE`] — `1.0` for `f64`/`f32`
    /// (where `⌈p · 1.0⌉ = p` leaves every path untouched) and `2.0` for
    /// `u8`, whose in-domain filter path carries the widened two-sided
    /// quantization error bound.
    ///
    /// # Panics
    /// Panics if `p_scale` is not finite or is below `1.0` (the fallible
    /// form is [`Self::try_with_p_scale`]).
    pub fn with_p_scale(self, p_scale: f64) -> Self {
        self.try_with_p_scale(p_scale)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::with_p_scale`]: the index back unchanged-but-moved
    /// with the factor applied, or [`QueryError::BadPScale`] — the form a
    /// server's config/reload path uses, where a bad knob must be an
    /// error, not a process death.
    pub fn try_with_p_scale(mut self, p_scale: f64) -> Result<Self, QueryError> {
        crate::error::check_p_scale(p_scale)?;
        self.p_scale = p_scale;
        Ok(self)
    }

    /// The current filter oversampling factor (see [`Self::with_p_scale`]).
    pub fn p_scale(&self) -> f64 {
        self.p_scale
    }

    /// The shared [`effective_p`] under this index's oversampling factor.
    fn effective_p(&self, p: usize) -> usize {
        effective_p(p, self.p_scale, self.vectors.len())
    }

    /// Dimensionality of the indexed vectors.
    pub fn dim(&self) -> usize {
        self.kind.dim()
    }

    /// Number of database objects indexed.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// `true` if the index is empty (never after construction).
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Exact distance computations needed to embed one query.
    pub fn embedding_cost(&self) -> usize {
        self.kind.embedding_cost()
    }

    /// The embedded database vectors (flat row-major storage in the
    /// index's filter precision).
    pub fn vectors(&self) -> &FlatStore<E> {
        &self.vectors
    }

    /// The filter score of every database vector against `query`, plus the
    /// embedding-step cost. This is the O(n · dim) linear scan at the heart
    /// of the filter step — one `FlatStore::scan` over the contiguous flat
    /// storage (bit-identical to scoring row by row on the exact backends).
    fn filter_scores(&self, query: &O, distance: &dyn DistanceMeasure<O>) -> (Vec<f64>, usize) {
        let (coords, weights) = self.kind.embed(query, distance);
        let mut scores = vec![0.0; self.vectors.len()];
        self.vectors.scan(&coords, &weights, &mut scores);
        (scores, self.embedding_cost())
    }

    /// The full filter ranking for `query`: database indices sorted by
    /// increasing filter (embedded-space) distance, together with the number
    /// of exact distance computations spent on the embedding step.
    ///
    /// The evaluation harness needs the complete order (it derives, from one
    /// ranking, the minimum `p` for every `k`); retrieval itself uses the
    /// cheaper [`Self::filter_top_p`].
    pub fn filter_ranking(
        &self,
        query: &O,
        distance: &dyn DistanceMeasure<O>,
    ) -> (Vec<usize>, usize) {
        let (scores, cost) = self.filter_scores(query, distance);
        (top_p(&scores, 0), cost)
    }

    /// The best `p` filter candidates for `query`, in increasing filter
    /// distance, plus the embedding-step cost.
    ///
    /// Runs in one O(n) [`TopP`] pass + O(p log p) sort instead of the
    /// O(n log n) full sort, and returns exactly the first `p` entries
    /// [`Self::filter_ranking`] would produce (ties broken by index).
    ///
    /// # Panics
    /// Panics if `p` is zero or exceeds the database size.
    pub fn filter_top_p(
        &self,
        query: &O,
        distance: &dyn DistanceMeasure<O>,
        p: usize,
    ) -> (Vec<usize>, usize) {
        assert!(p >= 1, "p must be at least 1");
        assert!(
            p <= self.vectors.len(),
            "p = {p} exceeds the database size {}",
            self.vectors.len()
        );
        let (scores, cost) = self.filter_scores(query, distance);
        (top_p(&scores, p), cost)
    }

    /// Full filter-and-refine retrieval of the `k` (approximate) nearest
    /// neighbors of `query`, keeping `p` candidates after the filter step
    /// (`⌈p · p_scale⌉` under an oversampling factor, see
    /// [`Self::with_p_scale`]).
    ///
    /// # Panics
    /// Panics if `k` is zero, `p < k`, or `p` exceeds the database size
    /// (the fallible form is [`Self::try_retrieve`]).
    pub fn retrieve(
        &self,
        query: &O,
        database: &[O],
        distance: &dyn DistanceMeasure<O>,
        k: usize,
        p: usize,
    ) -> RetrievalOutcome {
        self.try_retrieve(query, database, distance, k, p)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::retrieve`]: the retrieval outcome, or a typed
    /// [`QueryError`] for any parameter the asserting form would panic on
    /// — the entry point a serving layer calls so a malformed request is
    /// an error response, never an unwinding thread.
    ///
    /// # Errors
    /// [`QueryError::BadK`] when `k` is zero, [`QueryError::BadP`] when
    /// `p` is outside `k..=database.len()`, and
    /// [`QueryError::DatabaseMismatch`] when `database` does not match
    /// the indexed collection.
    pub fn try_retrieve(
        &self,
        query: &O,
        database: &[O],
        distance: &dyn DistanceMeasure<O>,
        k: usize,
        p: usize,
    ) -> Result<RetrievalOutcome, QueryError> {
        self.validate(database, k, p)?;
        let (candidates, embedding_cost) = self.filter_top_p(query, distance, self.effective_p(p));
        Ok(self.refine(query, database, distance, k, &candidates, embedding_cost))
    }

    /// The shared request validation of the retrieve paths: `k`/`p`
    /// against the database size, then the database argument against the
    /// indexed collection.
    fn validate(&self, database: &[O], k: usize, p: usize) -> Result<(), QueryError> {
        check_query_params(k, p, database.len())?;
        if database.len() != self.vectors.len() {
            return Err(QueryError::DatabaseMismatch {
                expected: self.vectors.len(),
                got: database.len(),
            });
        }
        Ok(())
    }

    /// The refine step shared by [`Self::retrieve`] and
    /// [`Self::retrieve_batch`]: measure the exact distance from `query` to
    /// every filter candidate, keep the best `k` under the strict total
    /// order `(distance, index)`. Using one routine on both paths is what
    /// makes the batched pipeline *provably* identical to the sequential
    /// one.
    fn refine(
        &self,
        query: &O,
        database: &[O],
        distance: &dyn DistanceMeasure<O>,
        k: usize,
        candidates: &[usize],
        embedding_cost: usize,
    ) -> RetrievalOutcome {
        refine_candidates(query, database, distance, k, candidates, embedding_cost)
    }

    /// Retrieve a whole batch of queries through the tiled batch pipeline:
    ///
    /// 1. **Batch embedding** — every query is embedded into one flat
    ///    row-major buffer (`embed_queries`), fanned out across the
    ///    persistent rayon worker pool.
    /// 2. **Per-tile filter + top-p + refine** — the batch is cut into
    ///    [`QUERY_TILE`](qse_distance::vector::QUERY_TILE)-query tiles that
    ///    run in parallel on the pool. Each tile scores its queries with one
    ///    `FlatStore::scan` (the tile's query rows stay cache-resident
    ///    while the database streams once per tile instead of once per
    ///    query), then runs the O(n) top-p selection and the exact-distance
    ///    refine step per query — on the tile's still-hot score rows, so no
    ///    `Q × N` score matrix is ever materialized in cold memory.
    ///
    /// Results are returned in query order and are identical to calling
    /// [`Self::retrieve`] per query — bit for bit, at any thread count
    /// (every filter score comes from the same canonical reduction, and the
    /// selection/refine code is shared). Queries that repeat within one
    /// [`QUERY_TILE`](qse_distance::vector::QUERY_TILE)-query tile reuse
    /// the first occurrence's finished result through the pipeline's
    /// duplicate-query memo (see [`tiled_query_pipeline`]), skipping their
    /// redundant exact-distance refine step — which assumes `distance` is a
    /// deterministic function of its arguments' values under `O`'s
    /// `PartialEq`. An empty query batch returns an empty vector; `k`/`p`
    /// are validated up front exactly like [`Self::retrieve`] otherwise.
    ///
    /// # Panics
    /// As [`Self::retrieve`] (when the batch is non-empty; the fallible
    /// form is [`Self::try_retrieve_batch`]).
    pub fn retrieve_batch(
        &self,
        queries: &[O],
        database: &[O],
        distance: &dyn DistanceMeasure<O>,
        k: usize,
        p: usize,
    ) -> Vec<RetrievalOutcome>
    where
        O: PartialEq,
    {
        if queries.is_empty() {
            return Vec::new();
        }
        self.try_retrieve_batch(queries, database, distance, k, p)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::retrieve_batch`]: one outcome per query in query
    /// order, or a typed [`QueryError`] — including
    /// [`QueryError::EmptyBatch`] for a zero-query batch, which the
    /// asserting form instead maps to an empty result vector (a server
    /// rejects the request explicitly; a library caller iterating
    /// nothing gets nothing).
    ///
    /// # Errors
    /// As [`Self::try_retrieve`], plus [`QueryError::EmptyBatch`].
    pub fn try_retrieve_batch(
        &self,
        queries: &[O],
        database: &[O],
        distance: &dyn DistanceMeasure<O>,
        k: usize,
        p: usize,
    ) -> Result<Vec<RetrievalOutcome>, QueryError>
    where
        O: PartialEq,
    {
        if queries.is_empty() {
            return Err(QueryError::EmptyBatch);
        }
        self.validate(database, k, p)?;
        let embedded = self.kind.embed_batch(queries, distance);
        let embedding_cost = self.embedding_cost();
        Ok(tiled_query_pipeline(
            queries.len(),
            self.vectors.len(),
            self.effective_p(p),
            |a, b| queries[a] == queries[b],
            |q0, q1, scores| {
                let (coords, weights) = embedded.rows(q0..q1);
                self.vectors.scan(coords, weights, scores);
            },
            |q, _row, order| self.refine(&queries[q], database, distance, k, order, embedding_cost),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::knn;
    use qse_core::{BoostMapTrainer, TrainerConfig, TrainingData, TripleSampler};
    use qse_distance::traits::{FnDistance, MetricProperties};
    use qse_distance::CountingDistance;
    use qse_embedding::{FastMap, FastMapConfig};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

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

    fn grid_database() -> Vec<Vec<f64>> {
        let mut db = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                db.push(vec![i as f64, j as f64]);
            }
        }
        db
    }

    #[test]
    fn flat_vectors_store_rows_in_order() {
        let fv = FlatVectors::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        assert_eq!(fv.len(), 3);
        assert_eq!(fv.dim(), 2);
        assert_eq!(fv.row(1), &[3.0, 4.0]);
        let rows: Vec<&[f64]> = fv.iter_rows().collect();
        assert_eq!(
            rows,
            vec![&[1.0, 2.0][..], &[3.0, 4.0][..], &[5.0, 6.0][..]]
        );
    }

    #[test]
    fn flat_vectors_push_and_swap_remove() {
        let mut fv = FlatVectors::from_rows(vec![vec![1.0], vec![2.0], vec![3.0]]);
        fv.push(&[4.0]);
        assert_eq!(fv.len(), 4);
        fv.swap_remove(0);
        assert_eq!(fv.len(), 3);
        assert_eq!(fv.row(0), &[4.0]);
        assert_eq!(fv.row(1), &[2.0]);
    }

    #[test]
    #[should_panic(expected = "must have dimensionality")]
    fn flat_vectors_reject_ragged_rows() {
        let _ = FlatVectors::from_rows(vec![vec![1.0, 2.0], vec![3.0]]);
    }

    #[test]
    fn full_p_retrieval_is_exact() {
        // With p = |database| the refine step sees everything, so the result
        // must equal brute-force k-NN regardless of the embedding quality.
        let db = grid_database();
        let d = euclid();
        let mut rng = StdRng::seed_from_u64(1);
        let fm = FastMap::train(
            &db,
            &d,
            FastMapConfig {
                dimensions: 2,
                pivot_iterations: 3,
            },
            &mut rng,
        );
        let index = FilterRefineIndex::build_global(fm, &db, &d);
        let q = vec![3.2, 7.1];
        let out = index.retrieve(&q, &db, &d, 5, db.len());
        let truth = knn(&q, &db, &d, 5);
        assert_eq!(out.neighbors, truth.neighbors);
    }

    #[test]
    fn cost_accounting_matches_measured_distances() {
        let db = grid_database();
        let d = euclid();
        let mut rng = StdRng::seed_from_u64(2);
        let fm = FastMap::train(
            &db,
            &d,
            FastMapConfig {
                dimensions: 3,
                pivot_iterations: 3,
            },
            &mut rng,
        );
        let index = FilterRefineIndex::build_global(fm, &db, &d);
        let counting = CountingDistance::new(euclid());
        let out = index.retrieve(&vec![5.5, 5.5], &db, &counting, 3, 20);
        assert_eq!(out.embedding_cost, 6);
        assert_eq!(out.refine_cost, 20);
        assert_eq!(counting.count() as usize, out.total_cost());
    }

    #[test]
    fn filter_ranking_contains_every_database_index_once() {
        let db = grid_database();
        let d = euclid();
        let mut rng = StdRng::seed_from_u64(3);
        let fm = FastMap::train(
            &db,
            &d,
            FastMapConfig {
                dimensions: 2,
                pivot_iterations: 3,
            },
            &mut rng,
        );
        let index = FilterRefineIndex::build_global(fm, &db, &d);
        let (ranking, cost) = index.filter_ranking(&vec![0.0, 0.0], &d);
        assert_eq!(cost, 4);
        let mut sorted = ranking.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..db.len()).collect::<Vec<_>>());
    }

    /// The `TopP` reference: a plain full sort of the `(score, id)` pairs
    /// by `(total_cmp, id)`, then the first `p` ids (all for `p == 0`).
    fn reference_top_p(scores: &[f64], ids: &[usize], p: usize) -> Vec<usize> {
        let mut pairs: Vec<(f64, usize)> =
            scores.iter().copied().zip(ids.iter().copied()).collect();
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let take = if p == 0 {
            pairs.len()
        } else {
            p.min(pairs.len())
        };
        pairs[..take].iter().map(|&(_, id)| id).collect()
    }

    /// Scores with heavy ties, both zeros, both infinities and NaNs of
    /// both signs.
    fn adversarial_scores(n: usize, rng: &mut StdRng) -> Vec<f64> {
        let specials = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        (0..n)
            .map(|_| match rng.gen_range(0..4) {
                0 => specials[rng.gen_range(0..specials.len())],
                1 => rng.gen_range(0..4) as f64,
                _ => rng.gen_range(-100.0..100.0),
            })
            .collect()
    }

    #[test]
    fn top_p_matches_an_independent_full_sort() {
        let mut rng = StdRng::seed_from_u64(0x7095);
        let bases = [0usize, 1, 2, 7, 200];
        // Sizes on both sides of every buffer-compaction point (4p).
        let mut sizes = vec![0usize, 1, 10_000];
        for &p in &bases[1..] {
            sizes.extend([4 * p - 1, 4 * p, 4 * p + 1]);
        }
        let mut top = TopP::default();
        for &n in &sizes {
            let mut ps = bases.to_vec();
            ps.extend([n.saturating_sub(1), n, n + 3]);
            for p in ps {
                let mut scores = adversarial_scores(n, &mut rng);
                let index_ids: Vec<usize> = (0..n).collect();
                assert_eq!(
                    top_p(&scores, p),
                    reference_top_p(&scores, &index_ids, p),
                    "n = {n}, p = {p}"
                );

                // The routed form: shuffled sparse ids, fed in uneven
                // chunks through one reused selection.
                let mut ids: Vec<usize> = (0..n).map(|i| 3 * i + 1).collect();
                ids.shuffle(&mut rng);
                top.reset(p);
                let mut start = 0;
                while start < n {
                    let end = (start + rng.gen_range(1..=600)).min(n);
                    top.push(&scores[start..end], ids[start..end].iter().copied());
                    start = end;
                }
                assert_eq!(
                    top.finish(),
                    reference_top_p(&scores, &ids, p),
                    "routed n = {n}, p = {p}"
                );

                // Worst case for the threshold: scores arriving best last,
                // so every candidate enters the buffer.
                scores.sort_by(|a, b| b.total_cmp(a));
                assert_eq!(
                    top_p(&scores, p),
                    reference_top_p(&scores, &index_ids, p),
                    "descending n = {n}, p = {p}"
                );
            }
        }
    }

    #[test]
    fn top_p_selection_matches_full_sort_prefix_for_every_p() {
        let db = grid_database();
        let d = euclid();
        let mut rng = StdRng::seed_from_u64(4);
        let fm = FastMap::train(
            &db,
            &d,
            FastMapConfig {
                dimensions: 2,
                pivot_iterations: 3,
            },
            &mut rng,
        );
        let index = FilterRefineIndex::build_global(fm, &db, &d);
        let query = vec![4.4, 4.6];
        let (full, _) = index.filter_ranking(&query, &d);
        for p in [1, 2, 3, 7, 50, 99, 100] {
            let (top, _) = index.filter_top_p(&query, &d, p);
            assert_eq!(top, full[..p], "p = {p}");
        }
    }

    #[test]
    fn retrieve_batch_matches_individual_retrievals() {
        let db = grid_database();
        let d = euclid();
        let mut rng = StdRng::seed_from_u64(5);
        let fm = FastMap::train(
            &db,
            &d,
            FastMapConfig {
                dimensions: 2,
                pivot_iterations: 3,
            },
            &mut rng,
        );
        let index = FilterRefineIndex::build_global(fm, &db, &d);
        let queries: Vec<Vec<f64>> = (0..17)
            .map(|i| vec![i as f64 * 0.55, (17 - i) as f64 * 0.5])
            .collect();
        let batch = index.retrieve_batch(&queries, &db, &d, 3, 12);
        assert_eq!(batch.len(), queries.len());
        for (q, out) in queries.iter().zip(&batch) {
            assert_eq!(*out, index.retrieve(q, &db, &d, 3, 12));
        }
    }

    #[test]
    fn retrieve_batch_on_empty_query_batch_returns_empty() {
        let db = grid_database();
        let d = euclid();
        let mut rng = StdRng::seed_from_u64(6);
        let fm = FastMap::train(
            &db,
            &d,
            FastMapConfig {
                dimensions: 2,
                pivot_iterations: 2,
            },
            &mut rng,
        );
        let index = FilterRefineIndex::build_global(fm, &db, &d);
        let empty: Vec<Vec<f64>> = Vec::new();
        assert!(index.retrieve_batch(&empty, &db, &d, 3, 12).is_empty());
        // Zero sequential calls panic on nothing, so neither does the batch —
        // even with out-of-range k/p.
        assert!(index
            .retrieve_batch(&empty, &db, &d, 5, db.len() + 10)
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds the database size")]
    fn retrieve_batch_rejects_p_exceeding_database() {
        let db = grid_database();
        let d = euclid();
        let mut rng = StdRng::seed_from_u64(7);
        let fm = FastMap::train(
            &db,
            &d,
            FastMapConfig {
                dimensions: 2,
                pivot_iterations: 2,
            },
            &mut rng,
        );
        let index = FilterRefineIndex::build_global(fm, &db, &d);
        let _ = index.retrieve_batch(&[vec![0.0, 0.0]], &db, &d, 3, db.len() + 1);
    }

    #[test]
    #[should_panic(expected = "must be at least k")]
    fn retrieve_batch_rejects_k_exceeding_p() {
        let db = grid_database();
        let d = euclid();
        let mut rng = StdRng::seed_from_u64(8);
        let fm = FastMap::train(
            &db,
            &d,
            FastMapConfig {
                dimensions: 2,
                pivot_iterations: 2,
            },
            &mut rng,
        );
        let index = FilterRefineIndex::build_global(fm, &db, &d);
        let _ = index.retrieve_batch(&[vec![0.0, 0.0]], &db, &d, 7, 3);
    }

    #[test]
    fn retrieve_batch_with_full_p_is_exact_for_every_query() {
        // p = |database| forces perfect recall on the batched path too.
        let db = grid_database();
        let d = euclid();
        let mut rng = StdRng::seed_from_u64(9);
        let fm = FastMap::train(
            &db,
            &d,
            FastMapConfig {
                dimensions: 2,
                pivot_iterations: 3,
            },
            &mut rng,
        );
        let index = FilterRefineIndex::build_global(fm, &db, &d);
        let queries: Vec<Vec<f64>> = (0..5)
            .map(|i| vec![i as f64 + 0.3, 9.0 - i as f64])
            .collect();
        for (q, out) in queries
            .iter()
            .zip(index.retrieve_batch(&queries, &db, &d, 4, db.len()))
        {
            assert_eq!(out.neighbors, knn(q, &db, &d, 4).neighbors);
        }
    }

    #[test]
    fn query_sensitive_index_retrieves_true_neighbors_with_small_p() {
        // Train a tiny Se-QS model on 1-D clustered data and check the filter
        // step puts the true nearest neighbor in front.
        let db: Vec<Vec<f64>> = (0..60)
            .map(|i| {
                if i % 2 == 0 {
                    vec![i as f64 * 0.05]
                } else {
                    vec![50.0 + i as f64 * 0.05]
                }
            })
            .collect();
        let d = euclid();
        let data = TrainingData::precompute(db.clone(), db.clone(), &d, 1);
        let mut rng = StdRng::seed_from_u64(4);
        let triples = TripleSampler::selective(4).sample(&data.train_to_train, 300, &mut rng);
        let model = BoostMapTrainer::new(TrainerConfig::quick()).train(&data, &triples, &mut rng);
        let index = FilterRefineIndex::build_query_sensitive(model, &db, &d);
        let q = vec![1.07];
        let truth = knn(&q, &db, &d, 1);
        let out = index.retrieve(&q, &db, &d, 1, 10);
        assert_eq!(out.neighbors[0], truth.neighbors[0]);
        assert!(out.total_cost() < db.len(), "should beat brute force");
    }

    #[test]
    #[should_panic(expected = "must be at least k")]
    fn rejects_p_smaller_than_k() {
        let db = grid_database();
        let d = euclid();
        let mut rng = StdRng::seed_from_u64(5);
        let fm = FastMap::train(
            &db,
            &d,
            FastMapConfig {
                dimensions: 2,
                pivot_iterations: 2,
            },
            &mut rng,
        );
        let index = FilterRefineIndex::build_global(fm, &db, &d);
        let _ = index.retrieve(&vec![0.0, 0.0], &db, &d, 5, 3);
    }
}
