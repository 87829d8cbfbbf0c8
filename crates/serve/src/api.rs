//! The transport-neutral serving facade.
//!
//! [`QseApi`] wraps any of the retrieval index types — static
//! [`FilterRefineIndex`], cluster-routed [`RoutedIndex`], online
//! [`DynamicIndex`], concurrent [`ConcurrentIndex`] — over any
//! filter-store precision (`f64`/`f32`/`u8`) behind one monomorphic query
//! surface: raw `Vec<f64>` objects in, typed results or [`QueryError`]s
//! out, never a panic. A facade can be built from a live index or loaded
//! straight from a snapshot through the one [`QseApi::load`] entry point
//! ([`SnapshotSource`] names the byte source, [`LoadOptions`] carries the
//! distance and the optional raw database), sniffing the index kind and
//! element type from the header bytes — the cold-start path a deployment
//! actually runs.
//!
//! A facade over a [`ConcurrentIndex`] is additionally **mutable**:
//! [`QseApi::try_insert`] / [`QseApi::try_remove`] apply through the
//! index's single write handle while reads keep draining against their
//! pinned epoch snapshots. [`QseApi::info`] reports which capabilities
//! the wrapped backend has.

use std::path::Path;
use std::sync::{Arc, Mutex};

use qse_distance::{DistanceMeasure, FilterElem, MapRegion};
use qse_retrieval::{
    ConcurrentIndex, DynamicIndex, FilterRefineIndex, QueryError, ReadHandle, RoutedIndex,
    SnapshotError, WriteHandle,
};

/// What the serving layer answers a query with: the `k` nearest neighbor
/// ids (indexes into the served database) and their exact distances, both
/// in ascending-distance order under the strict `(distance, index)` total
/// order of the retrieval pipelines.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Database ids of the `k` nearest neighbors.
    pub neighbors: Vec<usize>,
    /// The exact distance to each neighbor, parallel to `neighbors`.
    pub distances: Vec<f64>,
}

/// What the serving layer answers a successful mutation with: the id the
/// mutation touched and the index state it left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutationReport {
    /// The global id the mutation applied to (the assigned id for an
    /// insert, the removed id for a remove — whose slot the last id
    /// takes, swap-remove style).
    pub id: usize,
    /// Live objects after the mutation.
    pub len: usize,
    /// The epoch the mutation published; reads pinned at or after it see
    /// the change.
    pub epoch: u64,
}

/// The identity card of a served index, returned by [`QseApi::info`] and
/// exposed over HTTP as `GET /info` — one struct instead of a growing
/// pile of ad-hoc getters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexInfo {
    /// The backend kind: `"static"`, `"routed"`, `"dynamic"` or
    /// `"concurrent"`.
    pub backend: &'static str,
    /// Number of served objects.
    pub len: usize,
    /// Dimensionality every query (and inserted object) must match.
    pub dim: usize,
    /// Whether [`QseApi::try_insert`] / [`QseApi::try_remove`] are
    /// supported (`true` only for the concurrent backend).
    pub mutable: bool,
    /// The current publish epoch, for backends with epoch snapshots
    /// (`None` elsewhere).
    pub epoch: Option<u64>,
}

/// Why a [`QseApi`] could not be constructed or loaded. Request-time
/// failures are [`QueryError`]s instead — this type covers setup only.
#[derive(Debug)]
pub enum ServeError {
    /// The snapshot bytes failed to load as any known index kind /
    /// element type.
    Snapshot(SnapshotError),
    /// A static or routed snapshot was loaded without the database of raw
    /// objects its refine step needs (dynamic snapshots carry their own).
    DatabaseRequired,
    /// The database of raw objects is unusable: empty, ragged, or the
    /// wrong length for the index it accompanies.
    BadDatabase(String),
    /// The concurrent index's single write handle is already claimed, so
    /// the facade cannot own the mutation path.
    WriterClaimed,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Snapshot(e) => write!(f, "snapshot load failed: {e}"),
            Self::DatabaseRequired => write!(
                f,
                "static and routed snapshots need the database of raw objects to refine against"
            ),
            Self::BadDatabase(reason) => write!(f, "unusable database: {reason}"),
            Self::WriterClaimed => write!(
                f,
                "the concurrent index's write handle is already claimed elsewhere"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SnapshotError> for ServeError {
    fn from(e: SnapshotError) -> Self {
        Self::Snapshot(e)
    }
}

/// The object-safe engine behind [`QseApi`]: one implementation per
/// (index kind × store precision) pair, erased so the serving layer is
/// monomorphic whatever backend the snapshot held.
trait Engine: Send + Sync {
    fn len(&self) -> usize;
    fn kind(&self) -> &'static str;
    fn epoch(&self) -> Option<u64> {
        None
    }
    fn mutable(&self) -> bool {
        false
    }
    fn try_query_batch(
        &self,
        queries: &[Vec<f64>],
        distance: &dyn DistanceMeasure<Vec<f64>>,
        k: usize,
        p: usize,
    ) -> Result<Vec<QueryResult>, QueryError>;
    fn try_insert(
        &self,
        _object: Vec<f64>,
        _distance: &dyn DistanceMeasure<Vec<f64>>,
    ) -> Result<MutationReport, QueryError> {
        Err(QueryError::MutationUnsupported)
    }
    fn try_remove(&self, _id: usize) -> Result<MutationReport, QueryError> {
        Err(QueryError::MutationUnsupported)
    }
}

struct StaticEngine<E: FilterElem> {
    index: FilterRefineIndex<Vec<f64>, E>,
    database: Vec<Vec<f64>>,
}

impl<E: FilterElem> Engine for StaticEngine<E> {
    fn len(&self) -> usize {
        self.database.len()
    }
    fn kind(&self) -> &'static str {
        "static"
    }
    fn try_query_batch(
        &self,
        queries: &[Vec<f64>],
        distance: &dyn DistanceMeasure<Vec<f64>>,
        k: usize,
        p: usize,
    ) -> Result<Vec<QueryResult>, QueryError> {
        let outcomes = self
            .index
            .try_retrieve_batch(queries, &self.database, distance, k, p)?;
        Ok(outcomes
            .into_iter()
            .map(|o| QueryResult {
                neighbors: o.neighbors,
                distances: o.distances,
            })
            .collect())
    }
}

struct RoutedEngine<E: FilterElem> {
    index: RoutedIndex<Vec<f64>, E>,
    database: Vec<Vec<f64>>,
}

impl<E: FilterElem> Engine for RoutedEngine<E> {
    fn len(&self) -> usize {
        self.database.len()
    }
    fn kind(&self) -> &'static str {
        "routed"
    }
    fn try_query_batch(
        &self,
        queries: &[Vec<f64>],
        distance: &dyn DistanceMeasure<Vec<f64>>,
        k: usize,
        p: usize,
    ) -> Result<Vec<QueryResult>, QueryError> {
        let outcomes = self
            .index
            .try_retrieve_batch(queries, &self.database, distance, k, p)?;
        Ok(outcomes
            .into_iter()
            .map(|o| QueryResult {
                neighbors: o.neighbors,
                distances: o.distances,
            })
            .collect())
    }
}

struct DynamicEngine<E: FilterElem> {
    index: DynamicIndex<Vec<f64>, E>,
}

impl<E: FilterElem> Engine for DynamicEngine<E> {
    fn len(&self) -> usize {
        self.index.len()
    }
    fn kind(&self) -> &'static str {
        "dynamic"
    }
    fn try_query_batch(
        &self,
        queries: &[Vec<f64>],
        distance: &dyn DistanceMeasure<Vec<f64>>,
        k: usize,
        p: usize,
    ) -> Result<Vec<QueryResult>, QueryError> {
        let ids = self.index.try_retrieve_batch(queries, distance, k, p)?;
        let objects = self.index.objects();
        Ok(ids
            .into_iter()
            .zip(queries)
            .map(|(neighbors, query)| {
                // The dynamic index returns ids only; the response's exact
                // distances are recomputed against the live objects — the
                // same measure the refine step just ranked them by.
                let distances = neighbors
                    .iter()
                    .map(|&id| distance.distance(query, &objects[id]))
                    .collect();
                QueryResult {
                    neighbors,
                    distances,
                }
            })
            .collect())
    }
}

/// The concurrent engine: reads pin epoch snapshots through the cheap
/// read handle; mutations serialize on the facade-owned write handle.
/// Readers and the writer never contend — an in-flight query keeps its
/// pinned snapshot whatever the writer publishes meanwhile.
struct ConcurrentEngine<E: FilterElem> {
    reader: ReadHandle<Vec<f64>, E>,
    writer: Mutex<WriteHandle<Vec<f64>, E>>,
}

impl<E: FilterElem> Engine for ConcurrentEngine<E> {
    fn len(&self) -> usize {
        self.reader.len()
    }
    fn kind(&self) -> &'static str {
        "concurrent"
    }
    fn epoch(&self) -> Option<u64> {
        Some(self.reader.epoch())
    }
    fn mutable(&self) -> bool {
        true
    }
    fn try_query_batch(
        &self,
        queries: &[Vec<f64>],
        distance: &dyn DistanceMeasure<Vec<f64>>,
        k: usize,
        p: usize,
    ) -> Result<Vec<QueryResult>, QueryError> {
        // One snapshot for the whole batch: ids, the re-validation of
        // k/p against the epoch's true length (admission validated
        // against a possibly newer one — a lost race is a typed error,
        // never a panic), and the response's exact distances all come
        // from the same pinned epoch.
        let snapshot = self.reader.snapshot();
        let ids = snapshot.try_retrieve_batch(queries, distance, k, p)?;
        Ok(ids
            .into_iter()
            .zip(queries)
            .map(|(neighbors, query)| {
                let distances = neighbors
                    .iter()
                    .map(|&id| distance.distance(query, snapshot.object(id)))
                    .collect();
                QueryResult {
                    neighbors,
                    distances,
                }
            })
            .collect())
    }
    fn try_insert(
        &self,
        object: Vec<f64>,
        distance: &dyn DistanceMeasure<Vec<f64>>,
    ) -> Result<MutationReport, QueryError> {
        let mut writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let id = writer.insert(object, distance);
        Ok(MutationReport {
            id,
            len: writer.len(),
            epoch: writer.epoch(),
        })
    }
    fn try_remove(&self, id: usize) -> Result<MutationReport, QueryError> {
        let mut writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        writer.try_remove(id)?;
        Ok(MutationReport {
            id,
            len: writer.len(),
            epoch: writer.epoch(),
        })
    }
}

/// The transport-neutral query facade: one of the index types (any
/// store precision) plus the exact distance measure and, for the static
/// kinds, the database of raw objects the refine step re-ranks against.
///
/// Every entry point is fallible — malformed requests come back as typed
/// [`QueryError`]s, so a serving thread never unwinds on user input.
pub struct QseApi {
    engine: Box<dyn Engine>,
    distance: Box<dyn DistanceMeasure<Vec<f64>>>,
    dim: usize,
}

/// Reject databases the refine step cannot serve: empty, ragged, or (when
/// an index is attached) the wrong length.
fn database_dim(database: &[Vec<f64>], index_len: Option<usize>) -> Result<usize, ServeError> {
    let first = match database.first() {
        Some(row) => row.len(),
        None => return Err(ServeError::BadDatabase("the database is empty".into())),
    };
    if let Some(row) = database.iter().find(|row| row.len() != first) {
        return Err(ServeError::BadDatabase(format!(
            "ragged database: found rows of dimensionality {first} and {}",
            row.len()
        )));
    }
    if let Some(expected) = index_len {
        if database.len() != expected {
            return Err(ServeError::BadDatabase(format!(
                "index holds {expected} rows but the database has {} objects",
                database.len()
            )));
        }
    }
    Ok(first)
}

/// Where [`QseApi::load`] reads snapshot bytes from.
#[derive(Debug, Clone, Copy)]
pub enum SnapshotSource<'a> {
    /// Bytes already in memory (a network fetch, an embedded asset).
    Bytes(&'a [u8]),
    /// Read the whole file into memory, then decode.
    File(&'a Path),
    /// Map the file and let the matching typed loader borrow its element
    /// bytes **zero-copy** out of the mapping — checksum-verification
    /// startup time instead of copy time, element memory left with the
    /// OS page cache. Files that cannot be mapped fall back to the
    /// copying [`SnapshotSource::File`] path with identical results, so
    /// callers never branch on mapping support.
    Mmap(&'a Path),
}

/// Everything [`QseApi::load`] needs besides the bytes: the exact
/// distance measure (always), and the database of raw objects that
/// static and routed snapshots refine against (dynamic snapshots carry
/// their own objects and ignore it).
pub struct LoadOptions {
    /// Raw objects for static/routed snapshots; `None` is fine for
    /// dynamic ones.
    pub database: Option<Vec<Vec<f64>>>,
    /// The exact distance the refine step re-ranks with.
    pub distance: Box<dyn DistanceMeasure<Vec<f64>>>,
}

impl LoadOptions {
    /// Options with no database attached.
    pub fn new(distance: Box<dyn DistanceMeasure<Vec<f64>>>) -> Self {
        Self {
            database: None,
            distance,
        }
    }

    /// Attach the database of raw objects (required for static and
    /// routed snapshots).
    #[must_use]
    pub fn with_database(mut self, database: Vec<Vec<f64>>) -> Self {
        self.database = Some(database);
        self
    }
}

/// `Ok(None)` when the snapshot header names a different kind or element
/// type (so the caller tries the next loader), `Err` on real corruption.
fn shape_or_fail<T>(result: Result<T, SnapshotError>) -> Result<Option<T>, SnapshotError> {
    match result {
        Ok(index) => Ok(Some(index)),
        Err(SnapshotError::KindMismatch { .. } | SnapshotError::BackendMismatch { .. }) => Ok(None),
        Err(e) => Err(e),
    }
}

impl QseApi {
    /// Serve a static [`FilterRefineIndex`] over `database`.
    ///
    /// # Errors
    /// [`ServeError::BadDatabase`] when `database` is empty, ragged, or
    /// not the collection the index was built over (length check).
    pub fn from_static<E: FilterElem>(
        index: FilterRefineIndex<Vec<f64>, E>,
        database: Vec<Vec<f64>>,
        distance: Box<dyn DistanceMeasure<Vec<f64>>>,
    ) -> Result<Self, ServeError> {
        let dim = database_dim(&database, Some(index.len()))?;
        Ok(Self {
            engine: Box::new(StaticEngine { index, database }),
            distance,
            dim,
        })
    }

    /// Serve a cluster-routed [`RoutedIndex`] over `database`.
    ///
    /// # Errors
    /// As [`Self::from_static`].
    pub fn from_routed<E: FilterElem>(
        index: RoutedIndex<Vec<f64>, E>,
        database: Vec<Vec<f64>>,
        distance: Box<dyn DistanceMeasure<Vec<f64>>>,
    ) -> Result<Self, ServeError> {
        let dim = database_dim(&database, Some(index.len()))?;
        Ok(Self {
            engine: Box::new(RoutedEngine { index, database }),
            distance,
            dim,
        })
    }

    /// Serve an online [`DynamicIndex`], which carries its own objects.
    ///
    /// # Errors
    /// [`ServeError::BadDatabase`] when the index is empty or its objects
    /// are ragged.
    pub fn from_dynamic<E: FilterElem>(
        index: DynamicIndex<Vec<f64>, E>,
        distance: Box<dyn DistanceMeasure<Vec<f64>>>,
    ) -> Result<Self, ServeError> {
        let dim = database_dim(index.objects(), None)?;
        Ok(Self {
            engine: Box::new(DynamicEngine { index }),
            distance,
            dim,
        })
    }

    /// Serve a [`ConcurrentIndex`], claiming its single write handle —
    /// the facade becomes the mutation path ([`Self::try_insert`] /
    /// [`Self::try_remove`]) while queries keep draining against epoch
    /// snapshots through a read handle. Reads never block on writes; a
    /// query admitted just before a remove shrank the index resolves as
    /// a typed [`QueryError`] against its own snapshot, never a panic.
    ///
    /// # Errors
    /// [`ServeError::BadDatabase`] when the index is empty (the query
    /// dimensionality would be unknowable) or its objects are ragged;
    /// [`ServeError::WriterClaimed`] when some other holder already owns
    /// the write handle.
    pub fn from_concurrent<E: FilterElem>(
        index: ConcurrentIndex<Vec<f64>, E>,
        distance: Box<dyn DistanceMeasure<Vec<f64>>>,
    ) -> Result<Self, ServeError> {
        let snapshot = index.snapshot();
        if snapshot.is_empty() {
            return Err(ServeError::BadDatabase("the database is empty".into()));
        }
        let dim = snapshot.object(0).len();
        for g in 1..snapshot.len() {
            let got = snapshot.object(g).len();
            if got != dim {
                return Err(ServeError::BadDatabase(format!(
                    "ragged database: found rows of dimensionality {dim} and {got}"
                )));
            }
        }
        let writer = index.try_writer().ok_or(ServeError::WriterClaimed)?;
        Ok(Self {
            engine: Box::new(ConcurrentEngine {
                reader: index.reader(),
                writer: Mutex::new(writer),
            }),
            distance,
            dim,
        })
    }

    /// **The** snapshot entry point: load a facade from any
    /// [`SnapshotSource`], sniffing the index kind (static / routed /
    /// dynamic) and store precision (`f64`/`f32`/`u8`) by attempting
    /// each typed loader — the header check rejects wrong shapes
    /// cheaply, so only the matching decoder runs.
    ///
    /// # Errors
    /// [`ServeError::Snapshot`] on corrupt or unknown bytes (plus
    /// [`SnapshotError::Io`] for an unreadable [`SnapshotSource::File`]),
    /// [`ServeError::DatabaseRequired`] for a static/routed snapshot
    /// without [`LoadOptions::database`], [`ServeError::BadDatabase`] as
    /// the constructors.
    pub fn load(source: SnapshotSource<'_>, options: LoadOptions) -> Result<Self, ServeError> {
        let LoadOptions { database, distance } = options;
        match source {
            SnapshotSource::Bytes(bytes) => Self::sniff_bytes(bytes, database, distance),
            SnapshotSource::File(path) => {
                let bytes = std::fs::read(path).map_err(SnapshotError::Io)?;
                Self::sniff_bytes(&bytes, database, distance)
            }
            SnapshotSource::Mmap(path) => Self::sniff_mapped(path, database, distance),
        }
    }

    fn sniff_bytes(
        bytes: &[u8],
        database: Option<Vec<Vec<f64>>>,
        distance: Box<dyn DistanceMeasure<Vec<f64>>>,
    ) -> Result<Self, ServeError> {
        fn need(db: Option<Vec<Vec<f64>>>) -> Result<Vec<Vec<f64>>, ServeError> {
            db.ok_or(ServeError::DatabaseRequired)
        }
        macro_rules! sniff {
            ($elem:ty) => {
                if let Some(ix) = shape_or_fail(
                    FilterRefineIndex::<Vec<f64>, $elem>::from_snapshot_bytes(bytes),
                )? {
                    return Self::from_static(ix, need(database)?, distance);
                }
                if let Some(ix) =
                    shape_or_fail(RoutedIndex::<Vec<f64>, $elem>::from_snapshot_bytes(bytes))?
                {
                    return Self::from_routed(ix, need(database)?, distance);
                }
                if let Some(ix) =
                    shape_or_fail(DynamicIndex::<Vec<f64>, $elem>::from_snapshot_bytes(bytes))?
                {
                    return Self::from_dynamic(ix, distance);
                }
            };
        }
        sniff!(u8);
        sniff!(f32);
        sniff!(f64);
        // Every kind × element attempt reported a shape mismatch — the
        // header is self-inconsistent (each tag individually valid but no
        // loader accepts the pair, which a well-formed snapshot cannot
        // produce). Surface the kind mismatch of the last attempt.
        match FilterRefineIndex::<Vec<f64>, f64>::from_snapshot_bytes(bytes) {
            Err(e) => Err(ServeError::Snapshot(e)),
            Ok(_) => unreachable!("loader succeeded on a retry of rejected bytes"),
        }
    }

    fn sniff_mapped(
        path: &Path,
        database: Option<Vec<Vec<f64>>>,
        distance: Box<dyn DistanceMeasure<Vec<f64>>>,
    ) -> Result<Self, ServeError> {
        let region = match MapRegion::map_path(path) {
            Ok(region) => region,
            // Unmappable (e.g. an unsupported target): read it instead.
            Err(_) => {
                let options = LoadOptions { database, distance };
                return Self::load(SnapshotSource::File(path), options);
            }
        };
        fn need(db: Option<Vec<Vec<f64>>>) -> Result<Vec<Vec<f64>>, ServeError> {
            db.ok_or(ServeError::DatabaseRequired)
        }
        macro_rules! sniff {
            ($elem:ty) => {
                if let Some(ix) = shape_or_fail(FilterRefineIndex::<Vec<f64>, $elem>::from_mapped(
                    Arc::clone(&region),
                ))? {
                    return Self::from_static(ix, need(database)?, distance);
                }
                if let Some(ix) = shape_or_fail(RoutedIndex::<Vec<f64>, $elem>::from_mapped(
                    Arc::clone(&region),
                ))? {
                    return Self::from_routed(ix, need(database)?, distance);
                }
                if let Some(ix) = shape_or_fail(DynamicIndex::<Vec<f64>, $elem>::from_mapped(
                    Arc::clone(&region),
                ))? {
                    return Self::from_dynamic(ix, distance);
                }
            };
        }
        sniff!(u8);
        sniff!(f32);
        sniff!(f64);
        // Same self-inconsistent-header situation as the owned sniffing
        // path: surface the typed error of a final attempt.
        match FilterRefineIndex::<Vec<f64>, f64>::from_mapped(region) {
            Err(e) => Err(ServeError::Snapshot(e)),
            Ok(_) => unreachable!("loader succeeded on a retry of rejected bytes"),
        }
    }

    /// The served index's identity card: backend kind, size,
    /// dimensionality, mutability, epoch — one struct for health
    /// reporting and the `GET /info` route, instead of a getter per
    /// field. ([`Self::len`] / [`Self::dim`] / [`Self::backend`] remain
    /// as shorthands for the hot fields.)
    pub fn info(&self) -> IndexInfo {
        IndexInfo {
            backend: self.engine.kind(),
            len: self.engine.len(),
            dim: self.dim,
            mutable: self.engine.mutable(),
            epoch: self.engine.epoch(),
        }
    }

    /// Number of served objects (`info().len`).
    pub fn len(&self) -> usize {
        self.engine.len()
    }

    /// Whether the facade serves zero objects — possible only for a
    /// churned-empty concurrent backend (construction rejects empty
    /// databases, but removes can drain one).
    pub fn is_empty(&self) -> bool {
        self.engine.len() == 0
    }

    /// Dimensionality every query must match (`info().dim`).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The backend kind (`info().backend`): `"static"`, `"routed"`,
    /// `"dynamic"` or `"concurrent"`.
    pub fn backend(&self) -> &'static str {
        self.engine.kind()
    }

    /// Insert one object online (concurrent backend only): embed, append
    /// under the shared encode grid, publish a new epoch — queries in
    /// flight keep their pinned snapshots.
    ///
    /// # Errors
    /// [`QueryError::DimMismatch`] when the object's dimensionality is
    /// wrong, [`QueryError::MutationUnsupported`] on immutable backends.
    pub fn try_insert(&self, object: Vec<f64>) -> Result<MutationReport, QueryError> {
        if object.len() != self.dim {
            return Err(QueryError::DimMismatch {
                expected: self.dim,
                got: object.len(),
            });
        }
        self.engine.try_insert(object, self.distance.as_ref())
    }

    /// Remove the object with global id `id` (concurrent backend only;
    /// swap-remove — the last id takes the removed slot, exactly as
    /// [`DynamicIndex::remove`]).
    ///
    /// # Errors
    /// [`QueryError::BadId`] when `id` is not live,
    /// [`QueryError::MutationUnsupported`] on immutable backends.
    pub fn try_remove(&self, id: usize) -> Result<MutationReport, QueryError> {
        self.engine.try_remove(id)
    }

    /// The request validation the admission layer runs before enqueueing:
    /// dimensionality, then `k`/`p` against the served collection — the
    /// same checks the index would make, surfaced early so a malformed
    /// request never occupies a batch slot.
    ///
    /// # Errors
    /// [`QueryError::DimMismatch`], [`QueryError::BadK`],
    /// [`QueryError::BadP`].
    pub fn validate(&self, query: &[f64], k: usize, p: usize) -> Result<(), QueryError> {
        if query.len() != self.dim {
            return Err(QueryError::DimMismatch {
                expected: self.dim,
                got: query.len(),
            });
        }
        if k < 1 {
            return Err(QueryError::BadK { k });
        }
        let max = self.engine.len();
        if p < k || p > max {
            return Err(QueryError::BadP { k, p, max });
        }
        Ok(())
    }

    /// Answer one query: the `k` nearest neighbors after refining the
    /// best `p` filter candidates, exactly as the wrapped index's
    /// `retrieve` would.
    ///
    /// # Errors
    /// As [`Self::validate`].
    pub fn try_query(&self, query: &[f64], k: usize, p: usize) -> Result<QueryResult, QueryError> {
        let batch = [query.to_vec()];
        let results = self.try_query_batch(&batch, k, p)?;
        Ok(results.into_iter().next().expect("one query, one result"))
    }

    /// Answer a batch of queries through the wrapped index's batched
    /// pipeline — per-query results are bit-identical to [`Self::try_query`]
    /// (the pipelines pin this at any thread count), which is what lets
    /// the admission batcher coalesce concurrent singles freely.
    ///
    /// # Errors
    /// As [`Self::validate`], plus [`QueryError::EmptyBatch`].
    pub fn try_query_batch(
        &self,
        queries: &[Vec<f64>],
        k: usize,
        p: usize,
    ) -> Result<Vec<QueryResult>, QueryError> {
        if queries.is_empty() {
            return Err(QueryError::EmptyBatch);
        }
        for query in queries {
            self.validate(query, k, p)?;
        }
        self.engine
            .try_query_batch(queries, self.distance.as_ref(), k, p)
    }
}
