//! Dynamic datasets (Section 7.1).
//!
//! The paper notes that adding or removing database objects online is
//! straightforward as long as the underlying distribution does not change:
//! inserting an object only requires embedding it (at most `2d` exact
//! distances); removing one only drops its vector. If the distribution *does*
//! drift, the recommended check is to re-measure the classification error of
//! `F̃_out` on freshly drawn triples and retrain once it exceeds a threshold.
//! [`DynamicIndex`] implements exactly that protocol on top of a trained
//! [`QseModel`].

use crate::error::{check_query_params, QueryError};
use crate::filter_refine::{
    refine_ranked, tiled_query_pipeline, top_p, FilterElem, FlatStore, TopP,
};
use crate::routed::{probe_prefix, RoutedConfig};
use qse_core::{QseModel, TripleSampler};
use qse_distance::{DistanceMatrix, DistanceMeasure};
use qse_embedding::{CompositeEmbedding, Embedding, KMeans, KMeansConfig};
use rand::Rng;
use rayon::prelude::*;

/// A dynamically maintained, query-sensitive filter-and-refine index.
///
/// Generic over the filter-store precision `E` ([`FilterElem`]; exact
/// `f64` by default — see `crate::filter_refine`). With a lossy backend,
/// online [`DynamicIndex::insert`]s encode under the grid fitted over the
/// *initial* database (values outside it saturate), which is exactly the
/// paper's dynamic-dataset assumption: online updates are sound while the
/// distribution does not drift. When [`DynamicIndex::check_drift`] *does*
/// flag drift, the index recovers **in place**: [`DynamicIndex::retrain`]
/// swaps in a freshly trained model and re-embeds, and
/// [`DynamicIndex::refit_store`] re-fits the quantization grid over the
/// *current* database and re-encodes every row — no manual rebuild, no
/// index identity change. Filter scans run `FlatStore::scan` (the decode
/// tile for the exact backends, the in-domain integer SAD tile for `u8`;
/// see `qse_distance::sad`).
pub struct DynamicIndex<O, E: FilterElem = f64> {
    pub(crate) model: QseModel<O>,
    pub(crate) embedding: CompositeEmbedding<O>,
    pub(crate) objects: Vec<O>,
    pub(crate) vectors: FlatStore<E>,
    pub(crate) p_scale: f64,
    pub(crate) routing: Option<RoutingState<E>>,
}

/// The cluster-routing metadata of a [`DynamicIndex`] with routing
/// enabled (see [`DynamicIndex::enable_routing`]): the fitted coarse
/// quantizer plus per-cell stores mirroring the main store — every cell
/// encodes under the **main store's** fitted parameters, so per-cell
/// filter scores stay bit-identical to the full scan's.
///
/// Online edits keep this consistent incrementally: inserts land in the
/// nearest cell, removes repair both the cell-local and the global
/// swap-remove relabelings. [`DynamicIndex::refit_store`] /
/// [`DynamicIndex::retrain`] re-run the seeded k-means from scratch —
/// the natural compaction point after drift.
pub(crate) struct RoutingState<E: FilterElem> {
    pub(crate) router: KMeans,
    pub(crate) cells: Vec<FlatStore<E>>,
    /// `ids[c][j]` is the global id of row `j` of cell `c`.
    pub(crate) ids: Vec<Vec<usize>>,
    /// `locs[g]` is `(cell, row-within-cell)` of global id `g` — the
    /// inverse of `ids`, kept exact through every edit.
    pub(crate) locs: Vec<(usize, usize)>,
    pub(crate) config: RoutedConfig,
}

/// The result of an embedding-drift check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftReport {
    /// Fraction of freshly sampled triples the current model misclassifies.
    pub triple_error: f64,
    /// Whether the error exceeded the caller's threshold (i.e. the embedding
    /// should be retrained).
    pub needs_retraining: bool,
}

impl<O: Clone + Send + Sync> DynamicIndex<O> {
    /// Build the index from a trained model and an initial database, with
    /// the exact `f64` filter store.
    pub fn new(model: QseModel<O>, database: Vec<O>, distance: &dyn DistanceMeasure<O>) -> Self {
        Self::with_store(model, database, distance)
    }
}

impl<O: Clone + Send + Sync, E: FilterElem> DynamicIndex<O, E> {
    /// Build the index with an explicit filter-store precision `E` — e.g.
    /// `DynamicIndex::<_, u8>::with_store(...)`. Lossy backends fit their
    /// encode parameters over the initial database (a database that starts
    /// empty gets the backend's default grid; prefer seeding with
    /// representative data when quantizing).
    pub fn with_store(
        model: QseModel<O>,
        database: Vec<O>,
        distance: &dyn DistanceMeasure<O>,
    ) -> Self {
        let embedding = model.embedding();
        // The explicit dimensionality matters when `database` is empty: the
        // store must still accept `model.dim()`-wide rows from `insert`
        // (embed_store carries the embedding's dim through).
        let vectors = embedding.embed_store(&database, distance);
        Self {
            model,
            embedding,
            objects: database,
            vectors,
            p_scale: E::DEFAULT_P_SCALE,
            routing: None,
        }
    }

    /// Enable cluster routing (see `crate::routed`): fit the seeded
    /// k-means of `config` over the current embedded database and build
    /// the per-cell stores. Subsequent [`Self::retrieve`] /
    /// [`Self::retrieve_batch`] calls scan only each query's nearest
    /// `n_probe` cells; at `n_probe == cells` they stay bit-identical to
    /// the unrouted full scan. Costs `len() ·`
    /// [`QseModel::embedding_cost`] exact distances (one re-embedding
    /// pass), and the cell stores mirror the main store's rows (the
    /// memory price of routing; the main store remains the source of
    /// truth for the unrouted paths and future refits).
    ///
    /// Online [`Self::insert`]s land in the nearest cell and
    /// [`Self::remove`]s repair the metadata in place;
    /// [`Self::refit_store`] and [`Self::retrain`] re-run the k-means
    /// under the same config — the natural compaction point once
    /// [`Self::check_drift`] flags drift.
    ///
    /// # Panics
    /// Panics if the index is empty or `config` is degenerate
    /// (`cells == 0`, `n_probe == 0`).
    pub fn enable_routing(&mut self, config: RoutedConfig, distance: &dyn DistanceMeasure<O>) {
        assert!(!self.objects.is_empty(), "cannot route an empty index");
        assert!(config.cells >= 1, "cells must be at least 1");
        assert!(config.n_probe >= 1, "n_probe must be at least 1");
        self.routing = Some(Self::fit_routing(
            &self.embedding,
            &self.objects,
            self.vectors.params().clone(),
            config,
            distance,
        ));
    }

    /// Drop the routing layer; retrieval reverts to the full scan.
    pub fn disable_routing(&mut self) {
        self.routing = None;
    }

    /// `(cells, n_probe)` of the routing layer, if enabled.
    pub fn routing(&self) -> Option<(usize, usize)> {
        self.routing
            .as_ref()
            .map(|r| (r.cells.len(), r.config.n_probe.min(r.cells.len())))
    }

    /// Change how many cells each routed query visits.
    ///
    /// # Panics
    /// Panics if routing is not enabled or `n_probe` is outside
    /// `1..=cells` (the fallible form is
    /// [`Self::try_set_routing_n_probe`]).
    pub fn set_routing_n_probe(&mut self, n_probe: usize) {
        self.try_set_routing_n_probe(n_probe)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible [`Self::set_routing_n_probe`]:
    /// [`QueryError::RoutingDisabled`] when routing is not enabled,
    /// [`QueryError::BadNProbe`] when `n_probe` is outside `1..=cells` —
    /// in both cases the knob is left untouched.
    pub fn try_set_routing_n_probe(&mut self, n_probe: usize) -> Result<(), QueryError> {
        let routing = self.routing.as_mut().ok_or(QueryError::RoutingDisabled)?;
        if n_probe < 1 || n_probe > routing.cells.len() {
            return Err(QueryError::BadNProbe {
                n_probe,
                cells: routing.cells.len(),
            });
        }
        routing.config.n_probe = n_probe;
        Ok(())
    }

    /// Fit a fresh routing state over the current database: re-embed
    /// (parallel), k-means with the stored seed, partition — with every
    /// cell store encoding under `params` (the main store's grid, for
    /// bit-compatibility with the full scan).
    fn fit_routing(
        embedding: &CompositeEmbedding<O>,
        objects: &[O],
        params: E::Params,
        config: RoutedConfig,
        distance: &dyn DistanceMeasure<O>,
    ) -> RoutingState<E> {
        let dim = embedding.dim();
        let rows = embedding.embed_all(objects, distance);
        let flat = crate::filter_refine::FlatVectors::from_rows_with_dim(dim, rows.clone());
        let router = KMeans::fit(
            &flat,
            KMeansConfig {
                cells: config.cells,
                seed: config.seed,
                max_iters: config.max_iters,
            },
        );
        let assignment = router.assign_all(&flat);
        let c = router.cells();
        let mut cell_rows: Vec<Vec<Vec<f64>>> = vec![Vec::new(); c];
        let mut ids: Vec<Vec<usize>> = vec![Vec::new(); c];
        let mut locs = vec![(0usize, 0usize); objects.len()];
        for (g, row) in rows.into_iter().enumerate() {
            let cell = assignment[g];
            locs[g] = (cell, ids[cell].len());
            cell_rows[cell].push(row);
            ids[cell].push(g);
        }
        let cells = cell_rows
            .into_iter()
            .map(|r| FlatStore::from_rows_with_params(dim, r, params.clone()))
            .collect();
        RoutingState {
            router,
            cells,
            ids,
            locs,
            config,
        }
    }

    /// Set the filter oversampling factor: the retrieve paths keep
    /// `⌈p · p_scale⌉` filter candidates (capped at the current database
    /// size) while still validating against the caller's `p`. Useful with
    /// quantized stores; the starting value is the backend's
    /// [`FilterElem::DEFAULT_P_SCALE`] (`1.0` for `f64`/`f32`, `2.0` for
    /// `u8` — see `crate::filter_refine`), and `1.0` leaves every path
    /// untouched.
    ///
    /// # Panics
    /// Panics if `p_scale` is not finite or is below `1.0` (the fallible
    /// form is [`Self::try_with_p_scale`]).
    pub fn with_p_scale(self, p_scale: f64) -> Self {
        self.try_with_p_scale(p_scale)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::with_p_scale`]: the index back with the factor
    /// applied, or [`QueryError::BadPScale`] — for server config/reload
    /// paths, where a bad knob must be an error, not a process death.
    pub fn try_with_p_scale(mut self, p_scale: f64) -> Result<Self, QueryError> {
        crate::error::check_p_scale(p_scale)?;
        self.p_scale = p_scale;
        Ok(self)
    }

    /// The current filter oversampling factor (see [`Self::with_p_scale`]).
    pub fn p_scale(&self) -> f64 {
        self.p_scale
    }

    /// The shared `filter_refine::effective_p` under this index's
    /// oversampling factor, against the *current* database size.
    fn effective_p(&self, p: usize) -> usize {
        crate::filter_refine::effective_p(p, self.p_scale, self.objects.len())
    }

    /// Number of objects currently indexed.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// `true` if the index holds no objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// The underlying model.
    pub fn model(&self) -> &QseModel<O> {
        &self.model
    }

    /// The objects currently indexed, in global-id order ([`Self::retrieve`]
    /// returns indices into this slice). A dynamic index owns its
    /// collection, so callers serving it (which must report exact
    /// distances alongside neighbor ids) read the objects from here
    /// instead of carrying a parallel copy.
    pub fn objects(&self) -> &[O] {
        &self.objects
    }

    /// The embedded database vectors (flat row-major storage in the
    /// index's filter precision, encoded under the currently fitted
    /// parameters — see [`Self::refit_store`]).
    pub fn vectors(&self) -> &FlatStore<E> {
        &self.vectors
    }

    /// Insert an object online. Costs [`QseModel::embedding_cost`] exact
    /// distance computations (at most `2d`, as stated in Section 7.1).
    /// Returns the index assigned to the object.
    pub fn insert(&mut self, object: O, distance: &dyn DistanceMeasure<O>) -> usize {
        let vector = self.embedding.embed(&object, distance);
        self.objects.push(object);
        self.vectors.push(&vector);
        let gid = self.objects.len() - 1;
        if let Some(r) = &mut self.routing {
            // Routing stays consistent online: the new object lands in the
            // cell of its nearest centroid (centroids are not moved — the
            // coarse quantizer is only refreshed by refit_store/retrain).
            let cell = r.router.assign(&vector);
            r.locs.push((cell, r.ids[cell].len()));
            r.cells[cell].push(&vector);
            r.ids[cell].push(gid);
        }
        gid
    }

    /// Remove the object at `index` (swap-remove; the last object takes its
    /// slot). Returns the removed object.
    ///
    /// # Panics
    /// Panics if `index` is out of bounds.
    pub fn remove(&mut self, index: usize) -> O {
        assert!(index < self.objects.len(), "index {index} out of bounds");
        self.vectors.swap_remove(index);
        if let Some(r) = &mut self.routing {
            // Two swap-removes to repair: the removed row's cell compacts
            // (its last row moves into `pos`), and the *global* id space
            // compacts (the last object takes id `index`).
            let (cell, pos) = r.locs[index];
            r.cells[cell].swap_remove(pos);
            r.ids[cell].swap_remove(pos);
            if pos < r.ids[cell].len() {
                r.locs[r.ids[cell][pos]] = (cell, pos);
            }
            r.locs.swap_remove(index);
            if index < r.locs.len() {
                let (c2, p2) = r.locs[index];
                r.ids[c2][p2] = index;
            }
        }
        self.objects.swap_remove(index)
    }

    /// Re-fit the filter store over the **current** database: re-embed
    /// every object under the index's model and rebuild the store —
    /// which, for a lossy backend, refits the encode parameters (the `u8`
    /// quantization grid) to the data actually indexed *now* and
    /// re-encodes every row under them.
    ///
    /// This is the recovery half of the drift protocol for quantized
    /// stores: online [`Self::insert`]s encode under the grid fitted at
    /// construction and **saturate** outside it, so after sustained
    /// distribution drift the filter can no longer separate the drifted
    /// region (many objects collapse onto the grid edge). One
    /// `refit_store` restores full filter resolution without touching the
    /// model or the index identity. Costs `len() ·`
    /// [`QseModel::embedding_cost`] exact distance computations; object
    /// indices are unchanged.
    ///
    /// On the exact backends this recomputes the same store (no fit
    /// parameters to move) and is a no-op in effect.
    ///
    /// With routing enabled this is also the routing **compaction point**:
    /// the seeded k-means re-runs under the stored [`RoutedConfig`] over
    /// the current database, so cells drifted out of shape by online edits
    /// snap back to the data actually indexed now. (If every object has
    /// been removed, routing is dropped — re-enable it after re-seeding.)
    pub fn refit_store(&mut self, distance: &dyn DistanceMeasure<O>) {
        self.vectors = self.embedding.embed_store(&self.objects, distance);
        if let Some(r) = self.routing.take() {
            if !self.objects.is_empty() {
                self.routing = Some(Self::fit_routing(
                    &self.embedding,
                    &self.objects,
                    self.vectors.params().clone(),
                    r.config,
                    distance,
                ));
            }
        }
    }

    /// Swap in a newly trained model and rebuild the index state under it:
    /// re-embed the **current** database with the new model's `F_out` and
    /// refit the filter store (including, for lossy backends, the
    /// quantization grid — see [`Self::refit_store`]).
    ///
    /// This completes the drift protocol of Section 7.1 **in place**:
    /// [`Self::check_drift`] flags that the embedding no longer models the
    /// current distribution, the caller trains a replacement model on
    /// fresh data (training needs a trainer, a triple sampler and exact
    /// distances, so it stays outside the index), and `retrain` installs
    /// it — objects, indices and the `p_scale` knob all survive. Costs
    /// `len() ·` [`QseModel::embedding_cost`] exact distance computations
    /// (under the *new* model's cost).
    pub fn retrain(&mut self, model: QseModel<O>, distance: &dyn DistanceMeasure<O>) {
        self.embedding = model.embedding();
        self.model = model;
        self.refit_store(distance);
    }

    /// Filter-and-refine retrieval of the `k` approximate nearest neighbors,
    /// keeping `p` filter candidates.
    ///
    /// With routing enabled (see [`Self::enable_routing`]) the filter scan
    /// covers only the `n_probe` cells whose centroids are nearest to the
    /// query under its own query-sensitive filter distance; at
    /// `n_probe == cells` the candidate set — and hence the result — is
    /// bit-identical to the unrouted scan.
    ///
    /// # Panics
    /// Panics if the index is empty or `p < k` or `p > len()` (the
    /// fallible form is [`Self::try_retrieve`]).
    pub fn retrieve(
        &self,
        query: &O,
        distance: &dyn DistanceMeasure<O>,
        k: usize,
        p: usize,
    ) -> Vec<usize> {
        self.try_retrieve(query, distance, k, p)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::retrieve`]: the neighbor ids, or a typed
    /// [`QueryError`] for any parameter the asserting form would panic
    /// on — the entry point a serving layer calls so a malformed request
    /// is an error response, never an unwinding thread.
    ///
    /// # Errors
    /// [`QueryError::EmptyIndex`] when every object has been removed,
    /// [`QueryError::BadK`] when `k` is zero, and [`QueryError::BadP`]
    /// when `p` is outside `k..=len()`.
    pub fn try_retrieve(
        &self,
        query: &O,
        distance: &dyn DistanceMeasure<O>,
        k: usize,
        p: usize,
    ) -> Result<Vec<usize>, QueryError> {
        self.validate(k, p)?;
        let eq = self.model.embed_query(query, distance);
        if let Some(r) = &self.routing {
            // Routed path: rank centroids by the query's filter distance,
            // scan only the nearest n_probe cells (each a FlatStore in the
            // index's precision, scored by the same backend-dispatched
            // kernel), select under the global-id total order.
            let c = r.cells.len();
            let n_probe = r.config.n_probe.min(c);
            let mut cell_scores = vec![0.0; c];
            for (i, s) in cell_scores.iter_mut().enumerate() {
                *s = eq.distance_to(r.router.centroids().row(i));
            }
            // Rank all cells and extend past n_probe while the visited
            // pool holds fewer than k rows: online removes can empty a
            // cell, and a query routed only into emptied cells must not
            // starve the refine step (see `routed::probe_prefix`).
            let ranked = top_p(&cell_scores, 0);
            let visited = probe_prefix(&ranked, &r.cells, n_probe, k);
            let mut top = TopP::new(self.effective_p(p));
            let mut scores = Vec::new();
            for &v in &visited {
                scores.resize(r.cells[v].len(), 0.0);
                eq.score_filter(&r.cells[v], &mut scores);
                top.push(&scores, r.ids[v].iter().copied());
            }
            let order = top.finish();
            return Ok(self.refine(query, distance, k, &order));
        }
        // Filter step: one `FlatStore::scan` over the flat storage (the
        // decode tile for the exact backends, the integer SAD tile for
        // u8) + O(n) selection of the best p
        // (NaN-safe, ties broken by index) — exactly the static index's
        // hot path.
        let mut scores = vec![0.0; self.vectors.len()];
        eq.score_filter(&self.vectors, &mut scores);
        let order = top_p(&scores, self.effective_p(p));
        Ok(self.refine(query, distance, k, &order))
    }

    /// The shared request validation of the retrieve paths: a non-empty
    /// index, then `k`/`p` against the current database size.
    fn validate(&self, k: usize, p: usize) -> Result<(), QueryError> {
        if self.objects.is_empty() {
            return Err(QueryError::EmptyIndex);
        }
        check_query_params(k, p, self.objects.len())
    }

    /// The refine step shared by [`Self::retrieve`] and
    /// [`Self::retrieve_batch`]: exact k-NN over the filter candidates.
    /// One routine on both paths keeps the batched pipeline *provably*
    /// identical to the sequential one.
    fn refine(
        &self,
        query: &O,
        distance: &dyn DistanceMeasure<O>,
        k: usize,
        order: &[usize],
    ) -> Vec<usize> {
        refine_ranked(query, distance, k, order, |i| &self.objects[i])
    }

    /// Batched filter-and-refine retrieval through the Q×N tiled pipeline:
    /// batch-embed every query (coordinates + per-query weights in flat
    /// storage), then cut the batch into
    /// [`QUERY_TILE`](qse_distance::vector::QUERY_TILE)-query tiles that run
    /// in parallel on the persistent worker pool — each tile scores its
    /// queries with one tiled pass over the flat store and immediately runs
    /// top-p selection and the exact refine step on its still-hot score
    /// rows.
    ///
    /// Results are in query order and identical to calling
    /// [`Self::retrieve`] per query, at any thread count — including after
    /// online [`Self::insert`]s and [`Self::remove`]s, which the flat store
    /// absorbs by push/swap-remove. Queries repeated within one pipeline
    /// tile reuse the first occurrence's result through the duplicate-query
    /// memo (see `filter_refine::tiled_query_pipeline`), skipping their
    /// redundant exact-distance refine step. An empty query batch returns
    /// an empty vector.
    ///
    /// # Panics
    /// As [`Self::retrieve`] (when the batch is non-empty; the fallible
    /// form is [`Self::try_retrieve_batch`]).
    pub fn retrieve_batch(
        &self,
        queries: &[O],
        distance: &dyn DistanceMeasure<O>,
        k: usize,
        p: usize,
    ) -> Vec<Vec<usize>>
    where
        O: PartialEq,
    {
        if queries.is_empty() {
            return Vec::new();
        }
        self.try_retrieve_batch(queries, distance, k, p)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::retrieve_batch`]: one neighbor list per query in
    /// query order, or a typed [`QueryError`] — including
    /// [`QueryError::EmptyBatch`] for a zero-query batch, which the
    /// asserting form instead maps to an empty result vector.
    ///
    /// # Errors
    /// As [`Self::try_retrieve`], plus [`QueryError::EmptyBatch`].
    pub fn try_retrieve_batch(
        &self,
        queries: &[O],
        distance: &dyn DistanceMeasure<O>,
        k: usize,
        p: usize,
    ) -> Result<Vec<Vec<usize>>, QueryError>
    where
        O: PartialEq,
    {
        if queries.is_empty() {
            return Err(QueryError::EmptyBatch);
        }
        self.validate(k, p)?;
        if self.routing.is_some() {
            // Routed path: per-query routed retrieval, parallel over the
            // batch. Each query touches only its n_probe cells, so the
            // dense Q×N tiling of the unrouted path (whose tiles want every
            // query to scan the same rows) buys nothing here; the static
            // `RoutedIndex` owns the grouped-by-cell batched kernel.
            return Ok(queries
                .par_iter()
                .map(|q| self.retrieve(q, distance, k, p))
                .collect());
        }
        let batch = self.model.embed_queries(queries, distance);
        Ok(tiled_query_pipeline(
            queries.len(),
            self.vectors.len(),
            self.effective_p(p),
            |a, b| queries[a] == queries[b],
            |q0, q1, scores| batch.score_filter_batch_range(q0, q1, &self.vectors, scores),
            |q, _row, order| self.refine(&queries[q], distance, k, order),
        ))
    }

    /// The drift check of Section 7.1: sample `triple_count` triples from the
    /// *current* database with the selective sampler (parameter `k1`),
    /// measure the fraction the model's classifier gets wrong, and compare it
    /// against `error_threshold`.
    ///
    /// The check spends `sample_size²` exact distance computations (on the
    /// sampled subset), which is what makes it suitable for periodic,
    /// amortised execution.
    pub fn check_drift<R: Rng>(
        &self,
        distance: &dyn DistanceMeasure<O>,
        sample_size: usize,
        triple_count: usize,
        k1: usize,
        error_threshold: f64,
        rng: &mut R,
    ) -> DriftReport {
        assert!(
            sample_size >= 3,
            "need at least 3 objects to sample triples"
        );
        assert!(
            !self.objects.is_empty(),
            "cannot check drift of an empty index"
        );
        let sample_size = sample_size.min(self.objects.len());
        // Sample a subset of the current database.
        let mut indices: Vec<usize> = (0..self.objects.len()).collect();
        for i in 0..sample_size {
            let j = rng.gen_range(i..indices.len());
            indices.swap(i, j);
        }
        indices.truncate(sample_size);
        let sample: Vec<O> = indices.iter().map(|&i| self.objects[i].clone()).collect();
        let matrix = DistanceMatrix::all_pairs(&sample, &distance, 1);
        let k1 = k1.min(sample_size.saturating_sub(2)).max(1);
        let triples = TripleSampler::selective(k1).sample(&matrix, triple_count, rng);

        let embedded: Vec<Vec<f64>> = self.embedding.embed_all(&sample, distance);
        let mut errors = 0.0;
        for t in &triples {
            let h = self
                .model
                .classify_embedded(&embedded[t.q], &embedded[t.a], &embedded[t.b]);
            if h == 0.0 {
                errors += 0.5;
            } else if (h > 0.0) != (t.label == 1) {
                errors += 1.0;
            }
        }
        let triple_error = errors / triples.len() as f64;
        DriftReport {
            triple_error,
            needs_retraining: triple_error > error_threshold,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qse_core::{BoostMapTrainer, TrainerConfig, TrainingData};
    use qse_distance::traits::{FnDistance, MetricProperties};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    fn two_cluster_db(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    vec![i as f64 * 0.01, 0.0]
                } else {
                    vec![20.0 + i as f64 * 0.01, 5.0]
                }
            })
            .collect()
    }

    fn trained_index(seed: u64) -> (DynamicIndex<Vec<f64>>, Vec<Vec<f64>>) {
        let db = two_cluster_db(60);
        let d = euclid();
        let data = TrainingData::precompute(db.clone(), db.clone(), &d, 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let triples = TripleSampler::selective(4).sample(&data.train_to_train, 250, &mut rng);
        let model = BoostMapTrainer::new(TrainerConfig::quick()).train(&data, &triples, &mut rng);
        (DynamicIndex::new(model, db.clone(), &d), db)
    }

    #[test]
    fn insert_and_remove_maintain_consistency() {
        let (mut index, _) = trained_index(1);
        let d = euclid();
        let before = index.len();
        let id = index.insert(vec![0.05, 0.0], &d);
        assert_eq!(index.len(), before + 1);
        assert_eq!(id, before);
        let removed = index.remove(0);
        assert_eq!(index.len(), before);
        assert_eq!(removed, vec![0.0, 0.0]);
    }

    #[test]
    fn retrieval_finds_an_inserted_duplicate() {
        let (mut index, _) = trained_index(2);
        let d = euclid();
        let query = vec![0.123, 0.0];
        let inserted = index.insert(query.clone(), &d);
        let result = index.retrieve(&query, &d, 1, 10);
        assert_eq!(result[0], inserted, "the exact duplicate must be the 1-NN");
    }

    #[test]
    fn drift_is_low_on_the_training_distribution() {
        let (index, _) = trained_index(3);
        let d = euclid();
        let mut rng = StdRng::seed_from_u64(4);
        let report = index.check_drift(&d, 40, 200, 4, 0.4, &mut rng);
        assert!(
            report.triple_error < 0.4,
            "unexpected drift {}",
            report.triple_error
        );
        assert!(!report.needs_retraining);
    }

    #[test]
    fn drift_is_detected_after_the_distribution_shifts() {
        let (mut index, _) = trained_index(5);
        let d = euclid();
        // Replace the database with objects from a region the model never
        // saw; its reference objects carry little information there.
        for _ in 0..index.len() {
            index.remove(0);
        }
        let mut rng = StdRng::seed_from_u64(6);
        for i in 0..60 {
            index.insert(
                vec![500.0 + (i % 7) as f64 * 0.3, 400.0 + (i % 5) as f64 * 0.2],
                &d,
            );
        }
        let shifted = index.check_drift(&d, 40, 300, 4, 0.0, &mut rng);
        // With threshold 0 any nonzero error flags retraining; the point is
        // that the error is substantially worse than on the original data.
        let (fresh_index, _) = trained_index(5);
        let baseline = fresh_index.check_drift(&d, 40, 300, 4, 0.0, &mut StdRng::seed_from_u64(7));
        assert!(
            shifted.triple_error >= baseline.triple_error,
            "shifted error {} should be at least baseline {}",
            shifted.triple_error,
            baseline.triple_error
        );
    }

    #[test]
    fn retrieve_batch_matches_sequential_retrieval_including_after_edits() {
        let (mut index, _) = trained_index(10);
        let d = euclid();
        let queries: Vec<Vec<f64>> = (0..9)
            .map(|i| vec![i as f64 * 2.5, (i % 3) as f64])
            .collect();
        let check = |index: &DynamicIndex<Vec<f64>>, label: &str| {
            let sequential: Vec<Vec<usize>> = queries
                .iter()
                .map(|q| index.retrieve(q, &d, 2, 8))
                .collect();
            assert_eq!(
                index.retrieve_batch(&queries, &d, 2, 8),
                sequential,
                "{label}"
            );
        };
        check(&index, "freshly built");
        for i in 0..4 {
            index.insert(vec![0.5 + i as f64 * 0.01, 0.2], &d);
        }
        check(&index, "after inserts");
        index.remove(0);
        index.remove(index.len() - 1);
        index.remove(7);
        check(&index, "after removes");
    }

    #[test]
    fn retrieve_batch_on_empty_query_batch_returns_empty() {
        let (index, _) = trained_index(11);
        let d = euclid();
        let empty: Vec<Vec<f64>> = Vec::new();
        assert!(index.retrieve_batch(&empty, &d, 1, 5).is_empty());
        // Zero sequential calls panic on nothing, even with invalid k/p.
        assert!(index.retrieve_batch(&empty, &d, 9, 2).is_empty());
    }

    #[test]
    #[should_panic(expected = "p = 2 must be at least k = 5")]
    fn retrieve_batch_rejects_invalid_parameters() {
        let (index, _) = trained_index(12);
        let d = euclid();
        let _ = index.retrieve_batch(&[vec![0.0, 0.0]], &d, 5, 2);
    }

    #[test]
    fn try_api_returns_typed_errors_instead_of_panicking() {
        let (mut index, _) = trained_index(13);
        let d = euclid();
        let q = vec![0.0, 0.0];
        let n = index.len();
        assert_eq!(
            index.try_retrieve(&q, &d, 0, 5),
            Err(QueryError::BadK { k: 0 })
        );
        assert_eq!(
            index.try_retrieve(&q, &d, 5, 2),
            Err(QueryError::BadP { k: 5, p: 2, max: n })
        );
        assert_eq!(
            index.try_retrieve(&q, &d, 1, n + 1),
            Err(QueryError::BadP {
                k: 1,
                p: n + 1,
                max: n
            })
        );
        assert_eq!(
            index.try_retrieve_batch(&[], &d, 1, 5),
            Err(QueryError::EmptyBatch)
        );
        assert_eq!(
            index.try_set_routing_n_probe(1),
            Err(QueryError::RoutingDisabled)
        );
        index.enable_routing(
            RoutedConfig {
                cells: 4,
                n_probe: 2,
                ..RoutedConfig::default()
            },
            &d,
        );
        assert_eq!(
            index.try_set_routing_n_probe(9),
            Err(QueryError::BadNProbe {
                n_probe: 9,
                cells: 4
            })
        );
        assert_eq!(index.routing(), Some((4, 2)), "failed sets leave the knob");
        assert!(index.try_set_routing_n_probe(4).is_ok());
        // The happy path matches the asserting API exactly.
        assert_eq!(
            index.try_retrieve(&q, &d, 2, 8).unwrap(),
            index.retrieve(&q, &d, 2, 8)
        );
        assert_eq!(
            index
                .try_retrieve_batch(std::slice::from_ref(&q), &d, 2, 8)
                .unwrap(),
            index.retrieve_batch(std::slice::from_ref(&q), &d, 2, 8)
        );
        // A churned-empty index reports EmptyIndex rather than panicking.
        for _ in 0..index.len() {
            index.remove(0);
        }
        assert_eq!(
            index.try_retrieve(&q, &d, 1, 1),
            Err(QueryError::EmptyIndex)
        );
        // p_scale setters reject bad factors with the typed error.
        assert!(matches!(
            index.try_with_p_scale(f64::NAN),
            Err(QueryError::BadPScale { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn remove_checks_bounds() {
        let (mut index, _) = trained_index(8);
        let n = index.len();
        let _ = index.remove(n);
    }

    /// Exhaustively check the routing metadata invariants: `locs` is the
    /// exact inverse of `ids`, every cell's store row mirrors the main
    /// store's row for the same global id, and the partition covers the
    /// database exactly once.
    fn assert_routing_consistent(index: &DynamicIndex<Vec<f64>>) {
        let r = index.routing.as_ref().expect("routing enabled");
        assert_eq!(r.locs.len(), index.len());
        assert_eq!(r.cells.len(), r.ids.len());
        let total: usize = r.ids.iter().map(Vec::len).sum();
        assert_eq!(total, index.len());
        for (cell, store) in r.cells.iter().enumerate() {
            assert_eq!(store.len(), r.ids[cell].len());
        }
        for (g, &(cell, pos)) in r.locs.iter().enumerate() {
            assert_eq!(r.ids[cell][pos], g, "ids/locs out of sync at gid {g}");
            assert_eq!(
                r.cells[cell].row(pos),
                index.vectors.row(g),
                "cell row diverged from the main store at gid {g}"
            );
        }
    }

    #[test]
    fn routed_full_probe_matches_full_scan_through_churn() {
        let d = euclid();
        let (mut routed, _) = trained_index(20);
        let (mut plain, _) = trained_index(20);
        routed.enable_routing(
            RoutedConfig {
                cells: 5,
                n_probe: 5,
                ..RoutedConfig::default()
            },
            &d,
        );
        assert_eq!(routed.routing(), Some((5, 5)));
        let queries: Vec<Vec<f64>> = (0..8)
            .map(|i| vec![i as f64 * 3.0, (i % 2) as f64])
            .collect();
        let check =
            |routed: &DynamicIndex<Vec<f64>>, plain: &DynamicIndex<Vec<f64>>, label: &str| {
                for q in &queries {
                    assert_eq!(
                        routed.retrieve(q, &d, 2, 8),
                        plain.retrieve(q, &d, 2, 8),
                        "{label}"
                    );
                }
                assert_eq!(
                    routed.retrieve_batch(&queries, &d, 2, 8),
                    plain.retrieve_batch(&queries, &d, 2, 8),
                    "{label} (batch)"
                );
            };
        assert_routing_consistent(&routed);
        check(&routed, &plain, "freshly routed");
        // Churn: interleaved inserts and removes applied identically to both
        // indexes; the routed metadata must track every swap-remove.
        for i in 0..6 {
            routed.insert(vec![1.0 + i as f64 * 0.4, 0.3], &d);
            plain.insert(vec![1.0 + i as f64 * 0.4, 0.3], &d);
        }
        assert_routing_consistent(&routed);
        for index in [0usize, 17, 40] {
            assert_eq!(routed.remove(index), plain.remove(index));
            assert_routing_consistent(&routed);
        }
        let last = routed.len() - 1;
        assert_eq!(routed.remove(last), plain.remove(last));
        assert_routing_consistent(&routed);
        check(&routed, &plain, "after churn");
    }

    #[test]
    fn routed_insert_lands_in_its_nearest_cell() {
        // Two well-separated clusters, two cells: the coarse partition
        // recovers the clusters, and a single probe suffices to find an
        // inserted duplicate because it was routed to the query's own cell.
        let d = euclid();
        let (mut index, _) = trained_index(21);
        index.enable_routing(
            RoutedConfig {
                cells: 2,
                n_probe: 1,
                ..RoutedConfig::default()
            },
            &d,
        );
        let query = vec![20.3, 5.0];
        let inserted = index.insert(query.clone(), &d);
        assert_routing_consistent(&index);
        let hit = index.retrieve(&query, &d, 1, 5);
        assert_eq!(hit[0], inserted, "duplicate must be found at n_probe = 1");
        // The knob moves and reports correctly.
        index.set_routing_n_probe(2);
        assert_eq!(index.routing(), Some((2, 2)));
        assert_eq!(index.retrieve(&query, &d, 1, 5)[0], inserted);
        index.disable_routing();
        assert_eq!(index.routing(), None);
        assert_eq!(index.retrieve(&query, &d, 1, 5)[0], inserted);
    }

    #[test]
    fn drift_then_refit_rebuilds_routing_consistently() {
        // Regression for the drift protocol with routing enabled: after the
        // database drifts far from the cells fitted at enable time,
        // refit_store must re-run the seeded k-means over the *current*
        // database and leave the metadata exactly consistent.
        let d = euclid();
        let (mut index, _) = trained_index(22);
        index.enable_routing(
            RoutedConfig {
                cells: 4,
                n_probe: 4,
                ..RoutedConfig::default()
            },
            &d,
        );
        // Drift: replace most of the database with a far-away region.
        for _ in 0..40 {
            index.remove(0);
            assert_routing_consistent(&index);
        }
        for i in 0..30 {
            index.insert(vec![300.0 + (i % 6) as f64, 250.0 + (i % 4) as f64], &d);
        }
        assert_routing_consistent(&index);
        index.refit_store(&d);
        assert_eq!(index.routing(), Some((4, 4)), "refit keeps the config");
        assert_routing_consistent(&index);
        // Full-probe retrieval after the refit still matches an identically
        // churned unrouted index.
        let (mut plain, _) = trained_index(22);
        for _ in 0..40 {
            plain.remove(0);
        }
        for i in 0..30 {
            plain.insert(vec![300.0 + (i % 6) as f64, 250.0 + (i % 4) as f64], &d);
        }
        plain.refit_store(&d);
        for i in 0..6 {
            let q = vec![299.0 + i as f64, 251.0];
            assert_eq!(index.retrieve(&q, &d, 2, 10), plain.retrieve(&q, &d, 2, 10));
        }
    }

    #[test]
    #[should_panic(expected = "routing is not enabled")]
    fn set_routing_n_probe_requires_routing() {
        let (mut index, _) = trained_index(23);
        index.set_routing_n_probe(1);
    }

    #[test]
    fn index_built_over_empty_database_accepts_inserts() {
        // Regression: the flat store must carry the model's dimensionality
        // even when the initial database is empty, otherwise the first
        // insert hits a dim-0 store and panics.
        let (trained, _) = trained_index(9);
        let d = euclid();
        let model = trained.model().clone();
        let mut index = DynamicIndex::new(model, Vec::new(), &d);
        assert!(index.is_empty());
        let a = index.insert(vec![0.1, 0.0], &d);
        let b = index.insert(vec![20.5, 5.0], &d);
        assert_eq!((a, b), (0, 1));
        let hit = index.retrieve(&vec![0.0, 0.0], &d, 1, 2);
        assert_eq!(hit[0], 0);
        index.remove(0);
        assert_eq!(index.len(), 1);
    }
}
