//! Concurrent dynamic index: epoch-snapshot reads over an LSM-flavored
//! segment layout (ROADMAP direction 4).
//!
//! [`DynamicIndex`](crate::DynamicIndex) implements the paper's Section
//! 7.1 protocol faithfully, but every mutation takes `&mut self` — a
//! serving process stalls all readers for the duration of an insert,
//! remove, or (worst) a full retrain. [`ConcurrentIndex`] restructures
//! the same state so reads never stop for writes:
//!
//! * The embedded database lives in **immutable sealed segments** — each
//!   a [`FlatStore`] slab plus its objects — and a small **mutable
//!   tail** the writer appends into. Every segment encodes under the
//!   *same* fitted parameters (the shared-grid trick of the routed
//!   cells, `FlatStore::from_rows_with_params`), so per-row filter
//!   scores are bit-identical to one monolithic store's.
//! * Readers see the index through **epoch snapshots**: an immutable
//!   [`Snapshot`] holding `Arc`s of the segments plus an id map from
//!   live global ids to `(segment, row)`. Publishing a new epoch is an
//!   `Arc` pointer swap behind a mutex held for the duration of one
//!   pointer clone — a retrieve pins its snapshot once and then runs
//!   with no locks at all, while the writer rebuilds the next epoch off
//!   to the side.
//! * The public surface is a **handle pair**: [`ConcurrentIndex::reader`]
//!   yields cheap cloneable [`ReadHandle`]s; [`ConcurrentIndex::writer`]
//!   claims the single [`WriteHandle`] whose `insert`/`remove` batch
//!   into the tail (sealing it into a segment at a size threshold) and
//!   whose `refit_store`/`retrain`/`compact` are the segment-compaction
//!   points.
//!
//! ## The consistency guarantee
//!
//! A retrieve against a snapshot at epoch `e` returns **bit-identical**
//! results to a plain [`DynamicIndex`](crate::DynamicIndex) that applied
//! exactly the first `e` mutations sequentially — at any reader / writer
//! / substrate thread count. The mechanics mirror the routed-cell proof:
//! segment rows carry the exact bytes the monolithic store would hold
//! (shared encode grid; compaction copies stored elements verbatim,
//! never re-encoding), the id map replicates `DynamicIndex`'s
//! append/swap-remove id discipline, scores are gathered into global-id
//! order before the shared [`TopP`](crate::filter_refine::TopP) selection
//! (strict `(score, index)` total order), and the refine step is the same exact
//! k-NN over the same candidate set. `tests/concurrent_index.rs` pins
//! this the way `parallel_equivalence` pins the batched pipeline.
//!
//! Removed rows stay behind as **tombstones** in their segment (they are
//! scored and then skipped by the id-map gather — dead weight, not a
//! correctness issue) until a compaction point reclaims them.

use crate::dynamic::DynamicIndex;
use crate::error::{check_p_scale, check_query_params, QueryError};
use crate::filter_refine::{
    effective_p, refine_ranked, tiled_query_pipeline, top_p, FilterElem, FlatStore,
};
use qse_core::QseModel;
use qse_distance::DistanceMeasure;
use qse_embedding::{CompositeEmbedding, Embedding};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Tail rows accumulated before the writer seals them into an immutable
/// segment (see [`WriteHandle::set_tail_limit`]). Publishing an epoch
/// copies the live tail, so the threshold bounds the per-mutation
/// publish cost; sealing itself moves the tail without copying.
pub const DEFAULT_TAIL_LIMIT: usize = 1024;

/// One immutable slab of the index: a contiguous run of objects and
/// their embedded rows. Sealed segments are shared between the writer
/// and every snapshot by `Arc` and never change after construction;
/// the tail segment of a snapshot is a private copy.
struct Segment<O, E: FilterElem> {
    objects: Vec<O>,
    store: FlatStore<E>,
}

/// An immutable view of the index at one write epoch.
///
/// Holds the model, the segment list and the live-id map by `Arc`/value,
/// so it stays valid — and keeps returning the same results — no matter
/// what the writer does after it was pinned. Obtained from
/// [`ReadHandle::snapshot`]; the per-call retrieve methods on
/// [`ReadHandle`] pin one internally.
pub struct Snapshot<O, E: FilterElem = f64> {
    model: Arc<QseModel<O>>,
    segments: Vec<Arc<Segment<O, E>>>,
    /// `idmap[g]` is `(segment, row)` of live global id `g` — the same
    /// id space a sequentially-churned `DynamicIndex` would expose
    /// (append assigns `len`, remove swap-removes).
    idmap: Vec<(u32, u32)>,
    p_scale: f64,
    epoch: u64,
}

/// The writer's private state: sealed segments, the mutable tail, and
/// the live-id map the next publish will snapshot.
struct WriterState<O, E: FilterElem> {
    model: Arc<QseModel<O>>,
    embedding: Arc<CompositeEmbedding<O>>,
    sealed: Vec<Arc<Segment<O, E>>>,
    tail_objects: Vec<O>,
    tail_store: FlatStore<E>,
    idmap: Vec<(u32, u32)>,
    p_scale: f64,
    epoch: u64,
    tail_limit: usize,
}

struct Core<O, E: FilterElem> {
    /// The current snapshot. Swapped wholesale under this mutex — held
    /// only for the duration of one `Arc` clone/store, never across any
    /// scoring, embedding or allocation work.
    published: Mutex<Arc<Snapshot<O, E>>>,
    writer: Mutex<WriterState<O, E>>,
    /// Whether the single [`WriteHandle`] is currently outstanding.
    writer_claimed: AtomicBool,
}

/// A concurrently readable, single-writer dynamic filter-and-refine
/// index — the serving form of [`DynamicIndex`].
///
/// Build one with [`ConcurrentIndex::from_dynamic`], then hand
/// [`ReadHandle`]s to reader threads and claim the [`WriteHandle`] on
/// the mutation path. The index itself is a cheap cloneable handle
/// factory; dropping it does not invalidate outstanding handles.
///
/// See the [module docs](self) for the layout and the bit-identity
/// guarantee.
pub struct ConcurrentIndex<O, E: FilterElem = f64> {
    core: Arc<Core<O, E>>,
}

/// A cheap cloneable read handle: every retrieve pins the current
/// [`Snapshot`] (one `Arc` clone under a pointer-swap mutex) and then
/// runs entirely lock-free against it. Clone one per reader thread.
pub struct ReadHandle<O, E: FilterElem = f64> {
    core: Arc<Core<O, E>>,
}

/// The single mutation handle (claim it with
/// [`ConcurrentIndex::writer`] / [`ConcurrentIndex::try_writer`]).
///
/// Every mutation applies to the writer's private state and then
/// publishes a fresh epoch snapshot; readers switch to it on their next
/// retrieve, never mid-query. Dropping the handle releases the claim.
pub struct WriteHandle<O, E: FilterElem = f64> {
    core: Arc<Core<O, E>>,
}

impl<O, E: FilterElem> Clone for ConcurrentIndex<O, E> {
    fn clone(&self) -> Self {
        Self {
            core: self.core.clone(),
        }
    }
}

impl<O, E: FilterElem> Clone for ReadHandle<O, E> {
    fn clone(&self) -> Self {
        Self {
            core: self.core.clone(),
        }
    }
}

impl<O, E: FilterElem> Drop for WriteHandle<O, E> {
    fn drop(&mut self) {
        self.core.writer_claimed.store(false, Ordering::Release);
    }
}

/// An empty store on `template`'s dimensionality and fitted parameters —
/// the shared-grid invariant every tail starts from.
fn empty_like<E: FilterElem>(dim: usize, params: &<E as FilterElem>::Params) -> FlatStore<E> {
    FlatStore::from_rows_with_params(dim, Vec::new(), params.clone())
}

impl<O: Clone + Send + Sync, E: FilterElem> ConcurrentIndex<O, E> {
    /// Wrap a (possibly pre-populated) [`DynamicIndex`] for concurrent
    /// serving. The existing store becomes the base sealed segment; the
    /// model, embedding, `p_scale` knob and the id space all carry over
    /// unchanged, so epoch 0 answers exactly as `index` would have.
    ///
    /// The routing layer, if enabled, is dropped: the concurrent layout
    /// owns the partitioning (segments), and its retrieval paths are the
    /// full-scan ones. An empty index is fine — it starts answering
    /// [`QueryError::EmptyIndex`] and accepts inserts.
    pub fn from_dynamic(index: DynamicIndex<O, E>) -> Self {
        let DynamicIndex {
            model,
            embedding,
            objects,
            vectors,
            p_scale,
            routing: _,
        } = index;
        let dim = vectors.dim();
        let params = vectors.params().clone();
        let mut sealed = Vec::new();
        let mut idmap = Vec::with_capacity(objects.len());
        if !objects.is_empty() {
            idmap.extend((0..objects.len()).map(|r| (0u32, r as u32)));
            sealed.push(Arc::new(Segment {
                objects,
                store: vectors,
            }));
        }
        let state = WriterState {
            model: Arc::new(model),
            embedding: Arc::new(embedding),
            sealed,
            tail_objects: Vec::new(),
            tail_store: empty_like::<E>(dim, &params),
            idmap,
            p_scale,
            epoch: 0,
            tail_limit: DEFAULT_TAIL_LIMIT,
        };
        let snapshot = Arc::new(snapshot_of(&state));
        Self {
            core: Arc::new(Core {
                published: Mutex::new(snapshot),
                writer: Mutex::new(state),
                writer_claimed: AtomicBool::new(false),
            }),
        }
    }

    /// A new read handle (clone it freely; one per reader thread is the
    /// intended shape).
    pub fn reader(&self) -> ReadHandle<O, E> {
        ReadHandle {
            core: self.core.clone(),
        }
    }

    /// Claim the single write handle, or `None` if it is already
    /// outstanding. The claim is released when the handle drops.
    pub fn try_writer(&self) -> Option<WriteHandle<O, E>> {
        if self
            .core
            .writer_claimed
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            Some(WriteHandle {
                core: self.core.clone(),
            })
        } else {
            None
        }
    }

    /// Claim the single write handle.
    ///
    /// # Panics
    /// Panics if the write handle is already claimed (the fallible form
    /// is [`Self::try_writer`]).
    pub fn writer(&self) -> WriteHandle<O, E> {
        self.try_writer()
            .expect("the write handle is already claimed")
    }

    /// Pin the current snapshot (equivalent to `reader().snapshot()`).
    pub fn snapshot(&self) -> Arc<Snapshot<O, E>> {
        pin(&self.core)
    }

    /// Number of live objects in the current snapshot.
    pub fn len(&self) -> usize {
        pin(&self.core).len()
    }

    /// `true` if the current snapshot holds no live objects.
    pub fn is_empty(&self) -> bool {
        pin(&self.core).is_empty()
    }

    /// The current publish epoch (0 at construction; +1 per mutation
    /// call that publishes).
    pub fn epoch(&self) -> u64 {
        pin(&self.core).epoch()
    }
}

/// Pin the published snapshot: one `Arc` clone under the swap mutex.
fn pin<O, E: FilterElem>(core: &Core<O, E>) -> Arc<Snapshot<O, E>> {
    core.published
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
}

/// Build the snapshot the current writer state publishes: sealed
/// segments by `Arc` clone, the live tail by copy, the id map by clone.
fn snapshot_of<O: Clone, E: FilterElem>(w: &WriterState<O, E>) -> Snapshot<O, E> {
    let mut segments = w.sealed.clone();
    if !w.tail_objects.is_empty() {
        segments.push(Arc::new(Segment {
            objects: w.tail_objects.clone(),
            store: w.tail_store.clone(),
        }));
    }
    Snapshot {
        model: w.model.clone(),
        segments,
        idmap: w.idmap.clone(),
        p_scale: w.p_scale,
        epoch: w.epoch,
    }
}

impl<O: Clone + Send + Sync, E: FilterElem> WriteHandle<O, E> {
    /// Run `mutate` on the locked writer state, then publish the next
    /// epoch. The publish lock is taken only for the pointer store.
    fn mutate<R>(&mut self, mutate: impl FnOnce(&mut WriterState<O, E>) -> R) -> R {
        let mut w = self.core.writer.lock().unwrap_or_else(|e| e.into_inner());
        let out = mutate(&mut w);
        w.epoch += 1;
        // Seal the tail once it crosses the threshold: a move, not a
        // copy — its rows were assigned segment id `sealed.len()` at
        // insert time, which is exactly the slot it lands in.
        if w.tail_objects.len() >= w.tail_limit {
            let objects = std::mem::take(&mut w.tail_objects);
            let dim = w.tail_store.dim();
            let params = w.tail_store.params().clone();
            let store = std::mem::replace(&mut w.tail_store, empty_like::<E>(dim, &params));
            w.sealed.push(Arc::new(Segment { objects, store }));
        }
        let snapshot = Arc::new(snapshot_of(&w));
        *self
            .core
            .published
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = snapshot;
        out
    }

    /// Insert an object online: embed it (at most `2d` exact distances,
    /// as in Section 7.1), append to the tail under the shared encode
    /// grid, publish. Returns the assigned global id (`len - 1`, exactly
    /// as [`DynamicIndex::insert`] would).
    pub fn insert(&mut self, object: O, distance: &dyn DistanceMeasure<O>) -> usize {
        self.mutate(|w| insert_locked(w, object, distance))
    }

    /// Insert a batch of objects under **one** published epoch (one
    /// snapshot build instead of one per row). Returns the assigned
    /// global-id range.
    pub fn insert_batch(
        &mut self,
        objects: Vec<O>,
        distance: &dyn DistanceMeasure<O>,
    ) -> Range<usize> {
        self.mutate(|w| {
            let start = w.idmap.len();
            for object in objects {
                insert_locked(w, object, distance);
            }
            start..w.idmap.len()
        })
    }

    /// Remove the live object with global id `id` (swap-remove: the
    /// last id takes its slot, exactly as [`DynamicIndex::remove`]).
    /// The physical row stays behind as a tombstone until a compaction
    /// point. Returns the removed object.
    ///
    /// # Panics
    /// Panics if `id` is out of bounds (the fallible form is
    /// [`Self::try_remove`]).
    pub fn remove(&mut self, id: usize) -> O {
        self.try_remove(id)
            .unwrap_or_else(|_| panic!("index {id} out of bounds"))
    }

    /// Fallible [`Self::remove`]: [`QueryError::BadId`] when `id` is
    /// not a live global id — the entry point the serving layer calls
    /// so a stale client id is an error response, not a dead process.
    pub fn try_remove(&mut self, id: usize) -> Result<O, QueryError> {
        self.mutate(|w| {
            if id >= w.idmap.len() {
                return Err(QueryError::BadId {
                    id,
                    len: w.idmap.len(),
                });
            }
            let (seg, row) = w.idmap.swap_remove(id);
            Ok(segment_object(w, seg, row).clone())
        })
    }

    /// Reclaim tombstones without touching the embedding: copy the live
    /// rows' **stored elements verbatim** (no re-encoding — scores are
    /// bit-preserved) into one fresh sealed segment in global-id order.
    /// Result-invariant; spends no exact distances.
    pub fn compact(&mut self) {
        self.mutate(|w| {
            let n = w.idmap.len();
            let dim = w.tail_store.dim();
            let params = w.tail_store.params().clone();
            let mut objects = Vec::with_capacity(n);
            let mut data: Vec<E> = Vec::with_capacity(n * dim);
            for &(seg, row) in &w.idmap {
                objects.push(segment_object(w, seg, row).clone());
                data.extend_from_slice(segment_row(w, seg, row));
            }
            let store = FlatStore::from_stored_parts(dim, n, params.clone(), data)
                .expect("compaction copies exactly dim * rows elements");
            rebase(w, objects, store);
        });
    }

    /// The drift-recovery compaction point (see
    /// [`DynamicIndex::refit_store`]): re-embed every live object under
    /// the current model, re-fit the encode grid over the data actually
    /// indexed now, and rebuild as one sealed segment. Costs `len()`
    /// re-embeddings; global ids are unchanged. The next snapshot is
    /// built entirely off to the side — readers keep answering from the
    /// previous epoch until the one-pointer swap.
    pub fn refit_store(&mut self, distance: &dyn DistanceMeasure<O>) {
        self.mutate(|w| refit_locked(w, distance));
    }

    /// Swap in a newly trained model and rebuild under it — the in-place
    /// drift recovery of [`DynamicIndex::retrain`], as a compaction
    /// point. Readers never block while the rebuild runs.
    pub fn retrain(&mut self, model: QseModel<O>, distance: &dyn DistanceMeasure<O>) {
        self.mutate(|w| {
            let model = Arc::new(model);
            w.embedding = Arc::new(model.embedding());
            w.model = model;
            refit_locked(w, distance);
        });
    }

    /// Set the filter oversampling factor for subsequent epochs (see
    /// [`DynamicIndex::with_p_scale`]).
    ///
    /// # Errors
    /// [`QueryError::BadPScale`] when the factor is non-finite or below
    /// `1.0`; the knob (and the epoch) are left untouched.
    pub fn try_set_p_scale(&mut self, p_scale: f64) -> Result<(), QueryError> {
        check_p_scale(p_scale)?;
        self.mutate(|w| w.p_scale = p_scale);
        Ok(())
    }

    /// Change the tail-seal threshold (min 1; the default is
    /// [`DEFAULT_TAIL_LIMIT`]). Smaller tails cheapen each publish,
    /// more segments lengthen the per-query gather — takes effect at
    /// the next mutation, with no epoch of its own.
    pub fn set_tail_limit(&mut self, limit: usize) {
        let mut w = self.core.writer.lock().unwrap_or_else(|e| e.into_inner());
        w.tail_limit = limit.max(1);
    }

    /// Number of live objects in the writer's (most recent) state.
    pub fn len(&self) -> usize {
        self.core
            .writer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .idmap
            .len()
    }

    /// `true` if the writer's state holds no live objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The epoch of the most recently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.core
            .writer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .epoch
    }
}

fn insert_locked<O: Clone + Send + Sync, E: FilterElem>(
    w: &mut WriterState<O, E>,
    object: O,
    distance: &dyn DistanceMeasure<O>,
) -> usize {
    assert!(
        w.idmap.len() < u32::MAX as usize,
        "concurrent index id space exhausted"
    );
    let vector = w.embedding.embed(&object, distance);
    let seg = w.sealed.len() as u32;
    let row = w.tail_objects.len() as u32;
    w.tail_store.push(&vector);
    w.tail_objects.push(object);
    w.idmap.push((seg, row));
    w.idmap.len() - 1
}

fn segment_object<O, E: FilterElem>(w: &WriterState<O, E>, seg: u32, row: u32) -> &O {
    let (seg, row) = (seg as usize, row as usize);
    if seg < w.sealed.len() {
        &w.sealed[seg].objects[row]
    } else {
        &w.tail_objects[row]
    }
}

fn segment_row<O, E: FilterElem>(w: &WriterState<O, E>, seg: u32, row: u32) -> &[E] {
    let (seg, row) = (seg as usize, row as usize);
    if seg < w.sealed.len() {
        w.sealed[seg].store.row(row)
    } else {
        w.tail_store.row(row)
    }
}

/// Install `objects`/`store` (in global-id order) as the single sealed
/// segment, resetting the tail to the store's grid and the id map to
/// the identity.
fn rebase<O, E: FilterElem>(w: &mut WriterState<O, E>, objects: Vec<O>, store: FlatStore<E>) {
    let n = objects.len();
    debug_assert_eq!(store.len(), n);
    w.tail_objects.clear();
    w.tail_store = empty_like::<E>(store.dim(), store.params());
    w.sealed.clear();
    if n > 0 {
        w.sealed.push(Arc::new(Segment { objects, store }));
    }
    w.idmap = (0..n).map(|g| (0u32, g as u32)).collect();
}

fn refit_locked<O: Clone + Send + Sync, E: FilterElem>(
    w: &mut WriterState<O, E>,
    distance: &dyn DistanceMeasure<O>,
) {
    let objects: Vec<O> = w
        .idmap
        .iter()
        .map(|&(seg, row)| segment_object(w, seg, row).clone())
        .collect();
    let store = w.embedding.embed_store(&objects, distance);
    rebase(w, objects, store);
}

impl<O: Clone + Send + Sync, E: FilterElem> ReadHandle<O, E> {
    /// Pin the current snapshot: one `Arc` clone under the swap mutex,
    /// then the snapshot is yours lock-free for as long as you hold it.
    pub fn snapshot(&self) -> Arc<Snapshot<O, E>> {
        pin(&self.core)
    }

    /// Filter-and-refine retrieval against the **current** snapshot —
    /// see [`Snapshot::try_retrieve`] for the semantics (and pin a
    /// snapshot yourself to issue several queries against one epoch).
    pub fn try_retrieve(
        &self,
        query: &O,
        distance: &dyn DistanceMeasure<O>,
        k: usize,
        p: usize,
    ) -> Result<Vec<usize>, QueryError> {
        self.snapshot().try_retrieve(query, distance, k, p)
    }

    /// Batched retrieval against the **current** snapshot (one snapshot
    /// for the whole batch) — see [`Snapshot::try_retrieve_batch`].
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
        self.snapshot().try_retrieve_batch(queries, distance, k, p)
    }

    /// Asserting [`Self::try_retrieve`] (panics with the same messages
    /// as [`DynamicIndex::retrieve`](crate::DynamicIndex::retrieve)).
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

    /// Asserting [`Self::try_retrieve_batch`]; an empty batch returns an
    /// empty vector, mirroring zero sequential calls.
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

    /// Number of live objects in the current snapshot.
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// `true` if the current snapshot holds no live objects.
    pub fn is_empty(&self) -> bool {
        self.snapshot().is_empty()
    }

    /// The current snapshot's epoch.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch()
    }
}

impl<O: Clone + Send + Sync, E: FilterElem> Snapshot<O, E> {
    /// Number of live objects at this epoch.
    pub fn len(&self) -> usize {
        self.idmap.len()
    }

    /// `true` if this epoch holds no live objects.
    pub fn is_empty(&self) -> bool {
        self.idmap.is_empty()
    }

    /// The write epoch this snapshot was published at (0 = as built).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The filter oversampling factor in force at this epoch.
    pub fn p_scale(&self) -> f64 {
        self.p_scale
    }

    /// Number of segments (sealed + the tail copy, if non-empty).
    pub fn segments(&self) -> usize {
        self.segments.len()
    }

    /// Physical rows retained for already-removed objects (reclaimed at
    /// the next compaction point).
    pub fn garbage_rows(&self) -> usize {
        let physical: usize = self.segments.iter().map(|s| s.store.len()).sum();
        physical - self.idmap.len()
    }

    /// The live object with global id `g` — what retrieval ids index.
    ///
    /// # Panics
    /// Panics if `g >= len()`.
    pub fn object(&self, g: usize) -> &O {
        let (seg, row) = self.idmap[g];
        &self.segments[seg as usize].objects[row as usize]
    }

    fn validate(&self, k: usize, p: usize) -> Result<(), QueryError> {
        if self.idmap.is_empty() {
            return Err(QueryError::EmptyIndex);
        }
        check_query_params(k, p, self.idmap.len())
    }

    /// Score every segment with the backend-dispatched filter kernel,
    /// then gather into global-id order through the id map — after
    /// which the scores vector is exactly what the monolithic
    /// `DynamicIndex` scan would have produced (shared encode grid;
    /// tombstone scores are computed and dropped).
    fn gather_scores(&self, scores: &mut [f64], score_segment: impl Fn(usize, &mut [f64])) {
        let mut seg_scores: Vec<Vec<f64>> = Vec::with_capacity(self.segments.len());
        for (s, seg) in self.segments.iter().enumerate() {
            let mut buf = vec![0.0; seg.store.len()];
            score_segment(s, &mut buf);
            seg_scores.push(buf);
        }
        for (g, &(seg, row)) in self.idmap.iter().enumerate() {
            scores[g] = seg_scores[seg as usize][row as usize];
        }
    }

    /// Filter-and-refine retrieval of the `k` approximate nearest
    /// neighbors at this epoch, keeping `p` filter candidates —
    /// bit-identical to [`DynamicIndex::try_retrieve`] on a plain index
    /// that applied this epoch's prefix of mutations.
    ///
    /// # Errors
    /// As [`DynamicIndex::try_retrieve`].
    pub fn try_retrieve(
        &self,
        query: &O,
        distance: &dyn DistanceMeasure<O>,
        k: usize,
        p: usize,
    ) -> Result<Vec<usize>, QueryError> {
        self.validate(k, p)?;
        let eq = self.model.embed_query(query, distance);
        let n = self.idmap.len();
        let mut scores = vec![0.0; n];
        self.gather_scores(&mut scores, |s, buf| {
            eq.score_filter(&self.segments[s].store, buf)
        });
        let order = top_p(&scores, effective_p(p, self.p_scale, n));
        Ok(self.refine(query, distance, k, &order))
    }

    /// Batched retrieval at this epoch through the shared Q×N tiled
    /// pipeline (every query of the batch sees the same epoch). Results
    /// are in query order and identical to calling
    /// [`Self::try_retrieve`] per query, at any thread count.
    ///
    /// # Errors
    /// As [`DynamicIndex::try_retrieve_batch`].
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
        let batch = self.model.embed_queries(queries, distance);
        let n = self.idmap.len();
        Ok(tiled_query_pipeline(
            queries.len(),
            n,
            effective_p(p, self.p_scale, n),
            |a, b| queries[a] == queries[b],
            |q0, q1, scores| {
                // Per-segment tiled scoring, scattered into global-id
                // order per query row of the tile.
                let tile = q1 - q0;
                let mut seg_scores: Vec<Vec<f64>> = Vec::with_capacity(self.segments.len());
                for seg in &self.segments {
                    let mut buf = vec![0.0; tile * seg.store.len()];
                    batch.score_filter_batch_range(q0, q1, &seg.store, &mut buf);
                    seg_scores.push(buf);
                }
                for (g, &(seg, row)) in self.idmap.iter().enumerate() {
                    let (seg, row) = (seg as usize, row as usize);
                    let seg_len = self.segments[seg].store.len();
                    for t in 0..tile {
                        scores[t * n + g] = seg_scores[seg][t * seg_len + row];
                    }
                }
            },
            |q, _row, order| self.refine(&queries[q], distance, k, order),
        ))
    }

    /// The exact refine step over the filter candidates — the same
    /// routine (shape and total order) as `DynamicIndex::refine`.
    fn refine(
        &self,
        query: &O,
        distance: &dyn DistanceMeasure<O>,
        k: usize,
        order: &[usize],
    ) -> Vec<usize> {
        refine_ranked(query, distance, k, order, |g| self.object(g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qse_core::{BoostMapTrainer, TrainerConfig, TrainingData, TripleSampler};
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

    fn trained_index(seed: u64) -> DynamicIndex<Vec<f64>> {
        let db = two_cluster_db(60);
        let d = euclid();
        let data = TrainingData::precompute(db.clone(), db.clone(), &d, 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let triples = TripleSampler::selective(4).sample(&data.train_to_train, 250, &mut rng);
        let model = BoostMapTrainer::new(TrainerConfig::quick()).train(&data, &triples, &mut rng);
        DynamicIndex::new(model, db, &d)
    }

    #[test]
    fn epoch_zero_matches_the_wrapped_index() {
        let d = euclid();
        let plain = trained_index(1);
        let queries: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64 * 3.1, 0.4]).collect();
        let expected: Vec<Vec<usize>> = queries
            .iter()
            .map(|q| plain.retrieve(q, &d, 2, 8))
            .collect();
        let conc = ConcurrentIndex::from_dynamic(plain);
        let reader = conc.reader();
        assert_eq!(conc.epoch(), 0);
        assert_eq!(conc.len(), 60);
        for (q, want) in queries.iter().zip(&expected) {
            assert_eq!(&reader.retrieve(q, &d, 2, 8), want);
        }
        assert_eq!(reader.retrieve_batch(&queries, &d, 2, 8), expected);
    }

    #[test]
    fn mutations_match_a_sequentially_churned_plain_index() {
        let d = euclid();
        let mut plain = trained_index(2);
        let conc = ConcurrentIndex::from_dynamic(trained_index(2));
        let reader = conc.reader();
        let mut writer = conc.writer();
        writer.set_tail_limit(4); // force sealing mid-churn
        let queries: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64 * 4.0, 1.0]).collect();
        let check = |plain: &DynamicIndex<Vec<f64>>, label: &str| {
            let snap = reader.snapshot();
            for q in &queries {
                assert_eq!(
                    snap.try_retrieve(q, &d, 2, 8).unwrap(),
                    plain.retrieve(q, &d, 2, 8),
                    "{label}"
                );
            }
            assert_eq!(
                snap.try_retrieve_batch(&queries, &d, 2, 8).unwrap(),
                plain.retrieve_batch(&queries, &d, 2, 8),
                "{label} (batch)"
            );
        };
        for i in 0..9 {
            let obj = vec![0.4 + i as f64 * 0.07, 0.1];
            assert_eq!(writer.insert(obj.clone(), &d), plain.insert(obj, &d));
        }
        check(&plain, "after inserts (sealed tail)");
        for id in [0usize, 31, 62] {
            assert_eq!(writer.remove(id), plain.remove(id));
        }
        check(&plain, "after removes (tombstones)");
        assert!(reader.snapshot().garbage_rows() >= 3);
        writer.compact();
        assert_eq!(reader.snapshot().garbage_rows(), 0);
        check(&plain, "after compact (result-invariant)");
        writer.refit_store(&d);
        plain.refit_store(&d);
        check(&plain, "after refit_store");
        let retrained = trained_index(7).model().clone();
        writer.retrain(retrained.clone(), &d);
        plain.retrain(retrained, &d);
        check(&plain, "after retrain");
    }

    #[test]
    fn old_snapshots_keep_answering_after_writes() {
        let d = euclid();
        let conc = ConcurrentIndex::from_dynamic(trained_index(3));
        let reader = conc.reader();
        let pinned = reader.snapshot();
        let q = vec![0.2, 0.1];
        let before = pinned.try_retrieve(&q, &d, 1, 6).unwrap();
        let mut writer = conc.writer();
        for _ in 0..5 {
            writer.remove(0);
        }
        writer.insert(q.clone(), &d);
        // The pinned epoch is immutable: identical answer, stale len.
        assert_eq!(pinned.try_retrieve(&q, &d, 1, 6).unwrap(), before);
        assert_eq!(pinned.len(), 60);
        assert_eq!(reader.len(), 56);
        assert_eq!(reader.epoch(), 6);
        // A fresh snapshot sees the inserted duplicate as its 1-NN.
        let hit = reader.retrieve(&q, &d, 1, 6);
        assert_eq!(reader.snapshot().object(hit[0]), &q);
    }

    #[test]
    fn single_writer_claim_is_enforced_and_released() {
        let conc = ConcurrentIndex::from_dynamic(trained_index(4));
        let w = conc.writer();
        assert!(conc.try_writer().is_none());
        drop(w);
        assert!(conc.try_writer().is_some());
    }

    #[test]
    fn typed_errors_cover_mutation_and_churned_empty() {
        let d = euclid();
        let conc = ConcurrentIndex::from_dynamic(trained_index(5));
        let reader = conc.reader();
        let mut writer = conc.writer();
        let n = reader.len();
        assert_eq!(
            writer.try_remove(n),
            Err(QueryError::BadId { id: n, len: n })
        );
        assert_eq!(
            reader.try_retrieve(&vec![0.0, 0.0], &d, 0, 5),
            Err(QueryError::BadK { k: 0 })
        );
        assert_eq!(
            reader.try_retrieve_batch(&[], &d, 1, 5),
            Err(QueryError::EmptyBatch)
        );
        assert!(matches!(
            writer.try_set_p_scale(0.2),
            Err(QueryError::BadPScale { .. })
        ));
        for _ in 0..n {
            writer.remove(0);
        }
        assert_eq!(
            reader.try_retrieve(&vec![0.0, 0.0], &d, 1, 1),
            Err(QueryError::EmptyIndex)
        );
        // An emptied index accepts inserts again (fresh ids from 0).
        assert_eq!(writer.insert(vec![1.0, 1.0], &d), 0);
        assert_eq!(reader.retrieve(&vec![1.0, 1.0], &d, 1, 1), vec![0]);
    }

    #[test]
    fn u8_backend_stays_bit_identical_through_churn() {
        let d = euclid();
        let db = two_cluster_db(60);
        let data = TrainingData::precompute(db.clone(), db.clone(), &d, 1);
        let mut rng = StdRng::seed_from_u64(6);
        let triples = TripleSampler::selective(4).sample(&data.train_to_train, 250, &mut rng);
        let model = BoostMapTrainer::new(TrainerConfig::quick()).train(&data, &triples, &mut rng);
        let mut plain = DynamicIndex::<_, u8>::with_store(model.clone(), db.clone(), &d);
        let conc = ConcurrentIndex::from_dynamic(DynamicIndex::<_, u8>::with_store(model, db, &d));
        let reader = conc.reader();
        let mut writer = conc.writer();
        writer.set_tail_limit(3);
        for i in 0..7 {
            let obj = vec![19.0 + i as f64 * 0.2, 4.8];
            assert_eq!(writer.insert(obj.clone(), &d), plain.insert(obj, &d));
        }
        for id in [2usize, 40] {
            assert_eq!(writer.remove(id), plain.remove(id));
        }
        writer.compact();
        let queries: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64 * 3.3, 0.7]).collect();
        for q in &queries {
            assert_eq!(
                reader.retrieve(q, &d, 2, 10),
                plain.retrieve(q, &d, 2, 10),
                "u8 churn divergence"
            );
        }
        assert_eq!(
            reader.retrieve_batch(&queries, &d, 2, 10),
            plain.retrieve_batch(&queries, &d, 2, 10)
        );
    }

    #[test]
    fn from_dynamic_over_empty_database_accepts_inserts() {
        let d = euclid();
        let model = trained_index(8).model().clone();
        let conc = ConcurrentIndex::from_dynamic(DynamicIndex::new(model, Vec::new(), &d));
        assert!(conc.is_empty());
        let reader = conc.reader();
        let mut writer = conc.writer();
        assert_eq!(writer.insert(vec![0.1, 0.0], &d), 0);
        assert_eq!(writer.insert(vec![20.5, 5.0], &d), 1);
        assert_eq!(reader.retrieve(&vec![0.0, 0.0], &d, 1, 2), vec![0]);
    }

    #[test]
    fn insert_batch_publishes_one_epoch() {
        let d = euclid();
        let conc = ConcurrentIndex::from_dynamic(trained_index(9));
        let mut writer = conc.writer();
        let range = writer.insert_batch(
            (0..10).map(|i| vec![0.3 + i as f64 * 0.05, 0.2]).collect(),
            &d,
        );
        assert_eq!(range, 60..70);
        assert_eq!(conc.epoch(), 1);
        assert_eq!(conc.len(), 70);
    }
}
