//! Multi-model routing: one set of shard workers, many named models.
//!
//! The [`Router`] owns the serving machinery — per-shard bounded queues
//! and worker threads — while a registry maps model names to
//! [`ShardedStore`] snapshots. Registering a model costs nothing at the
//! worker level: every request captures an `Arc` of its model's current
//! store at enqueue time, so workers are stateless dispatchers and a
//! [`swap`](Router::swap) is a single atomic `Arc` flip. In-flight
//! requests finish against the snapshot they were routed to; the next
//! request sees the new table — online refresh without stopping traffic.
//!
//! Two request shapes flow through the queues:
//!
//! * **One** — a single id answered with an owned row through a
//!   [`ResponseSlot`] (the legacy [`crate::ServeHandle::get`] path).
//! * **Slab** — a per-shard id list answered by writing rows into a
//!   caller-provided flat buffer that round-trips through a
//!   [`SlabSlot`], so the batch path ([`RouterHandle::get_batch_into`])
//!   performs no per-row heap allocation.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use memcom_ondevice::engine::RunStats;
use parking_lot::{MutexGuard, RwLock};

use crate::batcher::{FlushReason, PushError, ResponseSlot, ShardQueue, SlabOutcome, SlabSlot};
use crate::config::AdmissionPolicy;
use crate::infer::{BackendRegistry, InferBackend, InferScratch, ScoreBatch, LOOKUP_BACKEND};
use crate::store::{CacheStats, ShardCacheStats, ShardedStore};
use crate::telemetry::{
    dtype_idx, MetricsRegistry, MetricsSnapshot, ModelMetrics, PendingSpan, Span, SpanOutcome,
    SpanSeed, StageSet, Stamp, SIZE_SCALE,
};
use crate::{EmbedBatch, LatencyHistogram, Result, ServeConfig, ServeError, StoreDelta};

/// The model name [`crate::EmbedServer`] registers its single model
/// under.
pub const DEFAULT_MODEL: &str = "default";

/// Per-model row counters (issued at handle entry; served, shed at
/// admission, expired at dequeue — all in rows, like `requests`).
///
/// # Consistency contract
///
/// The counters are updated from many threads with atomic adds and read
/// individually at snapshot time, so a snapshot is *eventually exact*
/// but not linearizable: it can lag in-flight increments, and the three
/// outcome counters need not yet account for every issued row. One
/// inequality is guaranteed in **every** snapshot:
///
/// ```text
/// issued >= requests + shed + expired
/// ```
///
/// because `issued` is incremented before any outcome can be recorded,
/// outcome increments use `Release`, and snapshots read the outcomes
/// with `Acquire` *before* reading `issued` — so an observed outcome
/// implies its issue is observed too. The inequality is strict while
/// rows are in flight, and stays strict for rows that terminate without
/// an outcome counter: rows rejected at shutdown
/// ([`ServeError::ShuttingDown`]) and rows whose store read failed.
#[derive(Debug, Default)]
pub(crate) struct ModelCounters {
    pub(crate) issued: AtomicU64,
    pub(crate) requests: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) expired: AtomicU64,
}

/// Admission metadata every request carries: under
/// [`AdmissionPolicy::Shed`] with a `request_deadline`, when the
/// request was issued (stamped once per logical request, *before* any
/// admission wait — the deadline is end to end, so admission waits and
/// earlier shards of a fan-out consume it) and when it stops being
/// worth serving. Workers evaluate `expires_at` at dequeue, *before*
/// touching the store, so an expired request costs a timestamp
/// comparison instead of a store read. Policies without a deadline
/// ([`AdmissionPolicy::Block`], or `Shed` with `request_deadline:
/// None`) carry `None` — the stamp is lazy, so the default hot path
/// pays no clock read. Full telemetry separately stamps the issue on
/// the stage clock, for the queue-wait and admission stages.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Admission {
    /// The issue instant — present when a deadline is in force.
    issued_at: Option<Instant>,
    /// When the request stops being worth serving; `None` when no
    /// deadline is in force (or the deadline overflows `Instant`).
    expires_at: Option<Instant>,
    /// The issue on the stage clock — present under full telemetry.
    issued: Option<Stamp>,
}

impl Admission {
    /// Stamps the issue instant when a deadline is in force and the
    /// stage clock when the caller tracks the issue (full telemetry's
    /// queue-wait timing); otherwise every field stays `None` and the
    /// default hot path pays no clock read.
    ///
    /// `override_deadline` is the per-request deadline: under
    /// [`AdmissionPolicy::Shed`] the tightest of the policy deadline
    /// and the override wins; under [`AdmissionPolicy::Block`] the
    /// override is ignored — a blocking router never expires requests,
    /// so `expired` stays 0 regardless of per-request hints.
    // memcom-lint: hot-path
    fn stamp_with(
        policy: AdmissionPolicy,
        track_issue: bool,
        override_deadline: Option<std::time::Duration>,
    ) -> Self {
        let deadline = match policy {
            AdmissionPolicy::Shed {
                request_deadline, ..
            } => match (request_deadline, override_deadline) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
            AdmissionPolicy::Block => None,
        };
        let issued = track_issue.then(Stamp::now);
        let Some(deadline) = deadline else {
            return Admission {
                issued_at: None,
                expires_at: None,
                issued,
            };
        };
        // memcom-lint: allow(L002) -- reached only past the early return above, i.e. when a deadline is in force
        let issued_at = Instant::now();
        Admission {
            issued_at: Some(issued_at),
            // A deadline too far out to represent as a point in time
            // (e.g. `Duration::MAX`) never expires.
            expires_at: issued_at.checked_add(deadline),
            issued,
        }
    }
    // memcom-lint: end-hot-path

    /// When the request was issued on the stage clock, if tracked.
    fn issued(&self) -> Option<Stamp> {
        self.issued
    }

    /// The expiry instant, when a deadline is in force.
    fn expires_at(&self) -> Option<Instant> {
        self.expires_at
    }

    /// The deadline error for a request found expired at `now`.
    ///
    /// # Panics
    ///
    /// Panics when no deadline is in force — unreachable, since only
    /// requests with an expiry can be found expired.
    fn deadline_error(&self, now: Instant) -> ServeError {
        let issued_at = self.issued_at.expect("expired without a deadline");
        let expires_at = self.expires_at.expect("expired without a deadline");
        ServeError::DeadlineExceeded {
            queued: now - issued_at,
            deadline: expires_at - issued_at,
        }
    }
}

/// Router-global batching counters.
#[derive(Debug, Default)]
struct BatchCounters {
    requests: AtomicU64,
    batches: AtomicU64,
    flushes_full: AtomicU64,
    flushes_idle: AtomicU64,
    flushes_drain: AtomicU64,
    max_batch_observed: AtomicU64,
}

/// Aggregated serving statistics for one model (see [`Router::stats`]).
///
/// `issued`, `requests`, `shed`, and `expired` count rows for *this*
/// model; the batching counters (`batches`, `flushes_*`,
/// `max_batch_observed`) are router-wide since shard workers batch
/// across models; `cache`/`cache_shards`/`run_stats` describe the
/// model's *current* store snapshot (they restart from zero after a
/// [`Router::swap`]).
///
/// # Consistency
///
/// The row counters are maintained with relaxed-order atomic adds from
/// many threads and read individually per snapshot, so a snapshot taken
/// mid-traffic is *eventually exact*, not linearizable: it may lag
/// in-flight increments. Every snapshot does guarantee
/// `issued >= requests + shed + expired` — an outcome is never visible
/// before the issue that produced it (outcome increments are
/// `Release`, snapshots read outcomes with `Acquire` before `issued`).
/// The inequality is strict while rows are in flight, and permanently
/// strict for rows that end without an outcome: rows rejected at
/// shutdown and rows whose store read failed.
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// Rows that entered this model's serving path, counted at handle
    /// entry after id validation, before admission.
    pub issued: u64,
    /// Rows served for this model through batches.
    pub requests: u64,
    /// Rows shed at admission for this model: the shard queue stayed
    /// full past the enqueue budget of [`AdmissionPolicy::Shed`], so the
    /// producer got [`ServeError::Overloaded`] instead of blocking.
    /// Always `0` under [`AdmissionPolicy::Block`].
    ///
    /// For a multi-shard fan-out (`get_many`/`get_batch_into`) that
    /// sheds partway through admission, rows on the shed shard *and*
    /// on shards never attempted count as shed, while sub-requests
    /// already admitted still run and count as served — so
    /// `requests + shed + expired` always equals the rows issued.
    pub shed: u64,
    /// Rows dropped at dequeue for this model: accepted, but older than
    /// their end-to-end `request_deadline` by the time a worker picked
    /// them up, so it answered [`ServeError::DeadlineExceeded`] without
    /// reading the store.
    pub expired: u64,
    /// Batches executed across the router; always
    /// `flushes_full + flushes_idle + flushes_drain`.
    pub batches: u64,
    /// Batches flushed because they reached `max_batch`.
    pub flushes_full: u64,
    /// Batches flushed below `max_batch` because they took every
    /// request waiting in the queue (the idle flush; see
    /// [`crate::batcher`]).
    pub flushes_idle: u64,
    /// Always `0`: workers no longer hold a batch open waiting for it to
    /// fill, so no batch is ever flushed by a timer. Kept so existing
    /// readers of the field still compile.
    pub flushes_timeout: u64,
    /// Batches flushed while draining at shutdown.
    pub flushes_drain: u64,
    /// Largest batch observed, in rows.
    pub max_batch_observed: usize,
    /// Hot-row cache effectiveness of the current store snapshot.
    pub cache: CacheStats,
    /// Per-shard hot-row cache state of the current store snapshot,
    /// indexed by shard. Each entry is read in one consistent pass over
    /// that shard's cache (a single lock acquisition), so its
    /// `evictions`/`resident_bytes`/`cached_rows` agree with each other.
    pub cache_shards: Vec<ShardCacheStats>,
    /// Counted work + resident footprint of the current store snapshot,
    /// in the on-device cost model's terms.
    pub run_stats: RunStats,
}

impl ServeStats {
    /// Mean rows per batch (`0` before any traffic).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }
}

/// Always-on control-plane counters for one model: snapshot updates are
/// operator-rare, so these cost nothing on the serving path and survive
/// snapshot swaps (unlike the per-snapshot cache/run stats).
#[derive(Debug, Default)]
struct ControlStats {
    /// Full store swaps ([`Router::swap`]).
    snapshot_swaps: AtomicU64,
    /// Incremental refreshes ([`Router::apply_delta`]).
    delta_applies: AtomicU64,
    /// Bytes physically copied by CoW page updates across delta applies.
    delta_cow_bytes: AtomicU64,
    /// Pages copied before first write across delta applies.
    delta_pages_touched: AtomicU64,
    /// Hot-row cache entries dropped by delta applies (changed ids
    /// invalidated out of the carried-over LRUs).
    lru_invalidations: AtomicU64,
}

/// One registered model: a swappable store snapshot plus counters that
/// survive snapshot swaps.
#[derive(Debug)]
struct ModelEntry {
    name: String,
    store: RwLock<Arc<ShardedStore>>,
    /// The inference backend score requests for this model execute
    /// (resolved from the [`BackendRegistry`] once, at registration).
    backend: Arc<dyn InferBackend>,
    counters: Arc<ModelCounters>,
    control: ControlStats,
    /// Serializes snapshot updaters ([`Router::swap`] /
    /// [`Router::apply_delta`]) so a delta is always built against the
    /// snapshot it replaces, while readers only ever block on the `store`
    /// write lock for the duration of the `Arc` flip itself.
    update_lock: parking_lot::Mutex<()>,
    /// Set by [`Router::deregister`]; handles then fail fast instead of
    /// serving a model the operator retired.
    retired: AtomicBool,
}

impl ModelEntry {
    fn snapshot(&self) -> Arc<ShardedStore> {
        Arc::clone(&self.store.read())
    }
}

/// A single-id request: one row back through a [`ResponseSlot`].
#[derive(Debug)]
pub(crate) struct OneRequest {
    pub(crate) id: usize,
    pub(crate) store: Arc<ShardedStore>,
    pub(crate) counters: Arc<ModelCounters>,
    pub(crate) slot: Arc<ResponseSlot>,
    pub(crate) admission: Admission,
    /// Sampled-tracing stamp (full telemetry only).
    pub(crate) span: Option<PendingSpan>,
}

/// A slab request: `ids` all route to one shard, rows land in `out`
/// (`ids.len() * dim` values), and both buffers round-trip through the
/// [`SlabSlot`] for reuse.
#[derive(Debug)]
pub(crate) struct SlabRequest {
    pub(crate) ids: Vec<usize>,
    pub(crate) out: Vec<f32>,
    pub(crate) store: Arc<ShardedStore>,
    pub(crate) counters: Arc<ModelCounters>,
    pub(crate) slot: Arc<SlabSlot>,
    pub(crate) admission: Admission,
    /// Sampled-tracing stamp (full telemetry only).
    pub(crate) span: Option<PendingSpan>,
}

/// A score request: the whole id list rides one shard queue (routed by
/// its first id), the captured [`InferBackend`] turns N ids into
/// `out.len()` scores, and the buffers round-trip through the
/// [`SlabSlot`] for reuse — same micro-batching, admission, and counter
/// contract as lookups.
#[derive(Debug)]
pub(crate) struct ScoreRequest {
    pub(crate) ids: Vec<usize>,
    pub(crate) out: Vec<f32>,
    pub(crate) store: Arc<ShardedStore>,
    pub(crate) backend: Arc<dyn InferBackend>,
    pub(crate) counters: Arc<ModelCounters>,
    pub(crate) slot: Arc<SlabSlot>,
    pub(crate) admission: Admission,
    /// Sampled-tracing stamp (full telemetry only).
    pub(crate) span: Option<PendingSpan>,
}

/// What shard queues carry.
#[derive(Debug)]
pub(crate) enum Request {
    One(OneRequest),
    Slab(SlabRequest),
    Score(ScoreRequest),
}

impl Request {
    fn rows(&self) -> usize {
        match self {
            Request::One(_) => 1,
            Request::Slab(s) => s.ids.len(),
            Request::Score(s) => s.ids.len(),
        }
    }

    fn counters(&self) -> &ModelCounters {
        match self {
            Request::One(r) => &r.counters,
            Request::Slab(s) => &s.counters,
            Request::Score(s) => &s.counters,
        }
    }

    fn admission(&self) -> &Admission {
        match self {
            Request::One(r) => &r.admission,
            Request::Slab(s) => &s.admission,
            Request::Score(s) => &s.admission,
        }
    }

    fn span(&self) -> Option<PendingSpan> {
        match self {
            Request::One(r) => r.span,
            Request::Slab(s) => s.span,
            Request::Score(s) => s.span,
        }
    }

    fn slot_ref(&self) -> SlotRef {
        match self {
            Request::One(r) => SlotRef::One(Arc::clone(&r.slot)),
            Request::Slab(s) => SlotRef::Slab(Arc::clone(&s.slot)),
            Request::Score(s) => SlotRef::Slab(Arc::clone(&s.slot)),
        }
    }

    /// Fails the request at dequeue because its deadline passed while it
    /// was queued, counting the drop and — for slab/score requests —
    /// handing the caller's buffers back (the worker still owns them
    /// here). The request's `Arc`s are released before the reply (see
    /// [`worker_loop`]).
    fn expire(self, now: Instant) {
        self.counters()
            .expired
            .fetch_add(self.rows() as u64, Ordering::Release);
        match self {
            Request::One(r) => {
                let OneRequest {
                    store,
                    counters,
                    slot,
                    admission,
                    ..
                } = r;
                drop((store, counters));
                slot.fill(Err(admission.deadline_error(now)));
            }
            Request::Slab(s) => {
                let SlabRequest {
                    ids,
                    out,
                    store,
                    counters,
                    slot,
                    admission,
                    ..
                } = s;
                drop((store, counters));
                slot.fail_with_buffers(ids, out, admission.deadline_error(now));
            }
            Request::Score(s) => {
                let ScoreRequest {
                    ids,
                    out,
                    store,
                    backend,
                    counters,
                    slot,
                    admission,
                    ..
                } = s;
                drop((store, backend, counters));
                slot.fail_with_buffers(ids, out, admission.deadline_error(now));
            }
        }
    }
}

/// A cheap handle to either slot kind, kept aside so a panicking batch
/// can be blanketed with errors without keeping the requests alive.
enum SlotRef {
    One(Arc<ResponseSlot>),
    Slab(Arc<SlabSlot>),
}

impl SlotRef {
    fn fail(&self, error: ServeError) {
        match self {
            SlotRef::One(slot) => slot.fill(Err(error)),
            SlotRef::Slab(slot) => slot.fail(error),
        }
    }
}

#[derive(Debug)]
struct RouterInner {
    queues: Vec<ShardQueue<Request>>,
    batch: BatchCounters,
    models: RwLock<HashMap<String, Arc<ModelEntry>>>,
    backends: BackendRegistry,
    config: ServeConfig,
    telemetry: MetricsRegistry,
}

impl RouterInner {
    fn entry(&self, model: &str) -> Result<Arc<ModelEntry>> {
        self.models
            .read()
            .get(model)
            .map(Arc::clone)
            .ok_or_else(|| ServeError::ModelNotFound {
                name: model.to_string(),
            })
    }

    fn stats_for(&self, entry: &ModelEntry) -> ServeStats {
        let b = &self.batch;
        let store = entry.snapshot();
        // Outcomes first with `Acquire`, then `issued`: an observed
        // outcome increment implies its issue increment is observed,
        // so `issued >= requests + shed + expired` holds in every
        // snapshot (see [`ModelCounters`]).
        let requests = entry.counters.requests.load(Ordering::Acquire);
        let shed = entry.counters.shed.load(Ordering::Acquire);
        let expired = entry.counters.expired.load(Ordering::Acquire);
        // ORDERING: Relaxed is sufficient for `issued` *after* the
        // Acquire loads above — every outcome increment was published
        // with Release after its issue increment, so this load already
        // observes at least the issues behind the outcomes read above.
        let issued = entry.counters.issued.load(Ordering::Relaxed);
        debug_assert!(
            issued >= requests + shed + expired,
            "counter contract violated: issued={issued} < requests={requests} + shed={shed} + expired={expired}"
        );
        ServeStats {
            issued,
            requests,
            shed,
            expired,
            batches: b.batches.load(Ordering::Relaxed),
            flushes_full: b.flushes_full.load(Ordering::Relaxed),
            flushes_idle: b.flushes_idle.load(Ordering::Relaxed),
            flushes_timeout: 0,
            flushes_drain: b.flushes_drain.load(Ordering::Relaxed),
            max_batch_observed: b.max_batch_observed.load(Ordering::Relaxed) as usize,
            cache: store.cache_stats(),
            cache_shards: store.per_shard_cache_stats(),
            run_stats: store.run_stats(),
        }
    }

    /// Enqueues `request` on `shard` under the configured admission
    /// policy: [`AdmissionPolicy::Block`] waits for queue space,
    /// [`AdmissionPolicy::Shed`] waits at most `enqueue_timeout` and
    /// then sheds. A rejected request is handed back alongside the
    /// error so the caller can salvage the buffers it owns — that
    /// hand-back (not an oversight) is what makes the Err variant
    /// large, and it only travels one internal frame.
    ///
    /// `clock` chains the admission timing of one caller's sub-requests
    /// on the stage clock (full telemetry only; `None` times nothing):
    /// it holds when this admission started — the issue stamp for the
    /// first shard, the previous shard's admission end for later ones —
    /// and is advanced to this admission's end. Each sub-request so
    /// costs one clock read, and no shard is charged another shard's
    /// wait.
    #[allow(clippy::result_large_err)]
    fn admit(
        &self,
        shard: usize,
        request: Request,
        clock: &mut Option<Stamp>,
    ) -> std::result::Result<(), (ServeError, Request)> {
        // memcom-lint: hot-path
        let admit_t0 = *clock;
        let outcome = match self.config.admission {
            AdmissionPolicy::Block => self.queues[shard].push(request),
            AdmissionPolicy::Shed {
                enqueue_timeout, ..
            } => {
                if enqueue_timeout.is_zero() {
                    self.queues[shard].try_push(request)
                } else {
                    self.queues[shard].push_until(request, enqueue_timeout)
                }
            }
        };
        *clock = admit_t0.map(|_| Stamp::now());
        if let (Some(t0), Some(t1)) = (admit_t0, *clock) {
            self.telemetry
                .shard(shard)
                .record_admission_wait(t1.nanos_since(t0));
        }
        match outcome {
            Ok(()) => Ok(()),
            Err(PushError::Closed(request)) => Err((ServeError::ShuttingDown, request)),
            Err(PushError::Full(request)) => {
                request
                    .counters()
                    .shed
                    .fetch_add(request.rows() as u64, Ordering::Release);
                // A sampled shed completes its span client-side: it
                // never reaches a worker. `queue_wait` is the time
                // spent failing admission; there is no service time.
                if let (Some(t0), Some(t1), Some(pending)) = (admit_t0, *clock, request.span()) {
                    let issued = request.admission().issued().unwrap_or(t0);
                    self.telemetry.complete(Span {
                        seq: pending.seq,
                        shard,
                        rows: request.rows(),
                        queue_wait_nanos: t1.nanos_since(t0),
                        service_nanos: 0,
                        total_nanos: t1.nanos_since(issued),
                        outcome: SpanOutcome::Shed,
                    });
                }
                let waited = match self.config.admission {
                    AdmissionPolicy::Shed {
                        enqueue_timeout, ..
                    } => enqueue_timeout,
                    // `push` never reports Full.
                    AdmissionPolicy::Block => Duration::ZERO,
                };
                // Queue depth ÷ calibrated shard capacity: how long the
                // backlog ahead of a retry needs to drain.
                let retry_after = self.config.suggested_backoff(self.queues[shard].depth());
                Err((
                    ServeError::Overloaded {
                        waited,
                        retry_after,
                    },
                    request,
                ))
            }
        }
    }
    // memcom-lint: end-hot-path

    fn check_store(&self, store: &ShardedStore) -> Result<()> {
        if store.n_shards() != self.config.n_shards {
            return Err(ServeError::BadConfig {
                context: format!(
                    "store has {} shards but router runs {}",
                    store.n_shards(),
                    self.config.n_shards
                ),
            });
        }
        Ok(())
    }
}

/// A multi-model embedding router: shared shard workers serving any
/// number of named, atomically swappable model snapshots.
///
/// ```
/// use memcom_core::{MemCom, MemComConfig};
/// use memcom_serve::{Router, ServeConfig, ShardedStore};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = StdRng::seed_from_u64(0);
/// let us = MemCom::new(MemComConfig::new(10_000, 32, 1_000), &mut rng)?;
/// let de = MemCom::new(MemComConfig::new(5_000, 32, 500), &mut rng)?;
///
/// let router = Router::start(ServeConfig::with_shards(2))?;
/// router.register("country/us", &us)?;
/// router.register("country/de", &de)?;
///
/// let row = router.handle("country/us")?.get(123)?;
/// assert_eq!(row.len(), 32);
///
/// // Online table refresh: an atomic snapshot swap, no restart.
/// let retrained = MemCom::new(MemComConfig::new(5_000, 32, 500), &mut rng)?;
/// let store = ShardedStore::build(&retrained, 2, 1024, 16 * 1024)?;
/// let _old = router.swap("country/de", store)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Router {
    inner: Arc<RouterInner>,
    workers: Vec<JoinHandle<()>>,
}

impl Router {
    /// Validates `config` and starts the shard workers (no models yet).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] for invalid configs — this is
    /// unconditional, callers cannot skip validation.
    pub fn start(config: ServeConfig) -> Result<Self> {
        config.validate()?;
        let queues = (0..config.n_shards)
            .map(|_| ShardQueue::new(config.queue_depth))
            .collect();
        let telemetry = MetricsRegistry::new(&config.telemetry, config.n_shards);
        let inner = Arc::new(RouterInner {
            queues,
            batch: BatchCounters::default(),
            models: RwLock::new(HashMap::new()),
            backends: BackendRegistry::new(),
            config,
            telemetry,
        });
        let workers = (0..inner.config.n_shards)
            .map(|shard_idx| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("memcom-serve-{shard_idx}"))
                    .spawn(move || worker_loop(&inner, shard_idx))
                    .expect("spawn serving worker")
            })
            .collect();
        Ok(Router { inner, workers })
    }

    /// The active configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.inner.config
    }

    /// Builds a store from `emb` (using the router's config for shard
    /// count, cache capacity, page size, and storage dtype) and registers
    /// it as `name`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ModelExists`] for duplicate names and
    /// propagates store-construction failures.
    pub fn register(&self, name: &str, emb: &dyn memcom_core::EmbeddingCompressor) -> Result<()> {
        self.register_with_dtype(name, emb, self.inner.config.dtype)
    }

    /// Like [`register`](Self::register), but stores `name`'s rows as
    /// `dtype` regardless of the config default — so fp32 and int8
    /// variants of the *same* model can coexist under one worker set for
    /// an A/B:
    ///
    /// ```
    /// # use memcom_core::{MemCom, MemComConfig};
    /// # use memcom_serve::{Dtype, Router, ServeConfig};
    /// # use rand::{rngs::StdRng, SeedableRng};
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// # let mut rng = StdRng::seed_from_u64(0);
    /// # let emb = MemCom::new(MemComConfig::new(1_000, 16, 100), &mut rng)?;
    /// # let router = Router::start(ServeConfig::with_shards(2))?;
    /// router.register("emb/fp32", &emb)?;
    /// router.register_with_dtype("emb/int8", &emb, Dtype::Int8)?;
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Same conditions as [`register`](Self::register).
    pub fn register_with_dtype(
        &self,
        name: &str,
        emb: &dyn memcom_core::EmbeddingCompressor,
        dtype: memcom_ondevice::Dtype,
    ) -> Result<()> {
        let config = &self.inner.config;
        let store = ShardedStore::build_quantized(
            emb,
            config.n_shards,
            config.cache_capacity,
            config.page_size,
            dtype,
        )?;
        self.register_store(name, store)
    }

    /// Registers an already-built store as `name`, serving through the
    /// default [`crate::infer::LookupBackend`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ModelExists`] for duplicate names and
    /// [`ServeError::BadConfig`] when the store's shard count disagrees
    /// with the router's.
    pub fn register_store(&self, name: &str, store: ShardedStore) -> Result<()> {
        self.register_store_with_backend(name, store, LOOKUP_BACKEND)
    }

    /// The router's [`BackendRegistry`]: register named
    /// [`InferBackend`]s here, then bind models to them with
    /// [`register_with_backend`](Self::register_with_backend) /
    /// [`register_store_with_backend`](Self::register_store_with_backend).
    pub fn backends(&self) -> &BackendRegistry {
        &self.inner.backends
    }

    /// Builds a `dtype`-quantized store from `emb` and registers it as
    /// `name`, serving score requests through the backend registered
    /// under `backend` — the full-model counterpart of
    /// [`register_with_dtype`](Self::register_with_dtype).
    ///
    /// # Errors
    ///
    /// Same conditions as
    /// [`register_store_with_backend`](Self::register_store_with_backend),
    /// plus propagated store-construction failures.
    pub fn register_with_backend(
        &self,
        name: &str,
        emb: &dyn memcom_core::EmbeddingCompressor,
        dtype: memcom_ondevice::Dtype,
        backend: &str,
    ) -> Result<()> {
        let config = &self.inner.config;
        let store = ShardedStore::build_quantized(
            emb,
            config.n_shards,
            config.cache_capacity,
            config.page_size,
            dtype,
        )?;
        self.register_store_with_backend(name, store, backend)
    }

    /// Registers an already-built store as `name`, bound to the
    /// [`InferBackend`] registered under `backend`. The name is
    /// resolved (and the backend's
    /// [`check_store`](InferBackend::check_store) validated) once,
    /// here — serving never touches the registry again.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ModelExists`] for duplicate model names
    /// and [`ServeError::BadConfig`] for unknown backend names, a
    /// store/backend incompatibility, or a shard-count mismatch.
    pub fn register_store_with_backend(
        &self,
        name: &str,
        store: ShardedStore,
        backend: &str,
    ) -> Result<()> {
        self.inner.check_store(&store)?;
        let backend = self.inner.backends.get(backend)?;
        backend.check_store(&store)?;
        let mut models = self.inner.models.write();
        if models.contains_key(name) {
            return Err(ServeError::ModelExists {
                name: name.to_string(),
            });
        }
        models.insert(
            name.to_string(),
            Arc::new(ModelEntry {
                name: name.to_string(),
                store: RwLock::new(Arc::new(store)),
                backend,
                counters: Arc::new(ModelCounters::default()),
                control: ControlStats::default(),
                update_lock: parking_lot::Mutex::new(()),
                retired: AtomicBool::new(false),
            }),
        );
        Ok(())
    }

    /// Atomically swaps `name`'s store snapshot (`Arc` flip), returning
    /// the previous snapshot. Requests already enqueued finish against
    /// the old snapshot — which stays fully readable through the returned
    /// `Arc` — while every subsequent request reads the new one; traffic
    /// never stops.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ModelNotFound`] for unknown names and
    /// [`ServeError::BadConfig`] on a shard-count mismatch.
    pub fn swap(&self, name: &str, new_store: ShardedStore) -> Result<Arc<ShardedStore>> {
        self.inner.check_store(&new_store)?;
        let entry = self.inner.entry(name)?;
        let _updating = entry.update_lock.lock();
        entry.control.snapshot_swaps.fetch_add(1, Ordering::Relaxed);
        let mut slot = entry.store.write();
        Ok(std::mem::replace(&mut *slot, Arc::new(new_store)))
    }

    /// Applies a row-level [`StoreDelta`] to `name`'s current snapshot
    /// and atomically flips the result in, returning the superseded
    /// snapshot — the incremental counterpart of [`swap`](Self::swap).
    ///
    /// The new snapshot is built by [`ShardedStore::apply_delta`]:
    /// untouched pages stay physically shared with the old snapshot
    /// (`Arc`s, not copies), each shard's hot-row LRU carries over with
    /// only the changed ids invalidated, and the certified error bound
    /// is re-certified over the re-encoded rows — so refreshing 0.1% of
    /// a table costs ~0.1% of a rebuild in bytes and time instead of
    /// O(table) work and 2× peak memory.
    ///
    /// The flip preserves the same guarantee as `swap`: requests already
    /// enqueued finish against the old snapshot (fully readable through
    /// the returned `Arc` until the last in-flight request drops it),
    /// every subsequent request reads the new one, and traffic never
    /// stops. Concurrent updaters for the same model are serialized, so
    /// a delta is always applied to the snapshot it was built against.
    ///
    /// ```
    /// # use memcom_core::{FullEmbedding, EmbeddingCompressor};
    /// # use memcom_serve::{Router, ServeConfig, StoreDelta, DEFAULT_MODEL};
    /// # use rand::{rngs::StdRng, SeedableRng};
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// # let mut rng = StdRng::seed_from_u64(0);
    /// # let emb = FullEmbedding::new(1_000, 16, &mut rng)?;
    /// # let router = Router::start(ServeConfig::with_shards(2))?;
    /// # router.register(DEFAULT_MODEL, &emb)?;
    /// let mut delta = StoreDelta::new(16);
    /// delta.upsert_row(42, &[0.5; 16])?;            // refreshed entity
    /// delta.upsert_row(1_000, &[0.25; 16])?;        // brand-new entity
    /// let old = router.apply_delta(DEFAULT_MODEL, &delta)?;
    /// assert_eq!(router.snapshot(DEFAULT_MODEL)?.vocab(), 1_001);
    /// assert_eq!(old.vocab(), 1_000); // superseded snapshot intact
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ModelNotFound`] for unknown names and
    /// propagates [`ShardedStore::apply_delta`] failures (row-width
    /// mismatch, removal past the vocabulary).
    pub fn apply_delta(&self, name: &str, delta: &StoreDelta) -> Result<Arc<ShardedStore>> {
        let entry = self.inner.entry(name)?;
        let _updating = entry.update_lock.lock();
        let old_store = entry.snapshot();
        let new_store = old_store.apply_delta(delta)?;
        // The fresh snapshot's CoW counters start at zero on the shared
        // clone, so after the apply they describe exactly this delta.
        let control = &entry.control;
        control.delta_applies.fetch_add(1, Ordering::Relaxed);
        control
            .delta_cow_bytes
            .fetch_add(new_store.cow_copied_bytes(), Ordering::Relaxed);
        control
            .delta_pages_touched
            .fetch_add(new_store.cow_touched_pages(), Ordering::Relaxed);
        // Rows the carried-over LRUs dropped: changed ids that were hot.
        let cached = |store: &ShardedStore| -> u64 {
            store
                .per_shard_cache_stats()
                .iter()
                .map(|s| s.cached_rows as u64)
                .sum()
        };
        control.lru_invalidations.fetch_add(
            cached(&old_store).saturating_sub(cached(&new_store)),
            Ordering::Relaxed,
        );
        let mut slot = entry.store.write();
        Ok(std::mem::replace(&mut *slot, Arc::new(new_store)))
    }

    /// Removes `name` from the registry. Existing handles fail fast with
    /// [`ServeError::ModelNotFound`]; requests already in flight still
    /// complete against their captured snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ModelNotFound`] for unknown names.
    pub fn deregister(&self, name: &str) -> Result<()> {
        let entry =
            self.inner
                .models
                .write()
                .remove(name)
                .ok_or_else(|| ServeError::ModelNotFound {
                    name: name.to_string(),
                })?;
        entry.retired.store(true, Ordering::Release);
        Ok(())
    }

    /// Registered model names, sorted.
    pub fn model_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.models.read().keys().cloned().collect();
        names.sort_unstable();
        names
    }

    /// A cloneable client handle bound to `name`. Handles stay valid
    /// across shutdown and swaps; after [`deregister`](Self::deregister)
    /// lookups fail with [`ServeError::ModelNotFound`], while the
    /// metadata accessors ([`RouterHandle::vocab`]/[`RouterHandle::dim`]/
    /// [`RouterHandle::snapshot`]/[`RouterHandle::stats`]) keep
    /// reporting the final snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ModelNotFound`] for unknown names.
    pub fn handle(&self, name: &str) -> Result<RouterHandle> {
        let model = self.inner.entry(name)?;
        Ok(RouterHandle {
            inner: Arc::clone(&self.inner),
            model,
        })
    }

    /// The current store snapshot of `name` (footprint/cost inspection).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ModelNotFound`] for unknown names.
    pub fn snapshot(&self, name: &str) -> Result<Arc<ShardedStore>> {
        Ok(self.inner.entry(name)?.snapshot())
    }

    /// Current statistics for `name` (see [`ServeStats`] for which
    /// fields are per-model vs router-wide).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ModelNotFound`] for unknown names.
    pub fn stats(&self, name: &str) -> Result<ServeStats> {
        let entry = self.inner.entry(name)?;
        Ok(self.inner.stats_for(&entry))
    }

    /// A point-in-time [`MetricsSnapshot`] across every registered
    /// model: always-on row and control-plane counters at any
    /// [`crate::TelemetryLevel`], plus per-stage histograms and sampled
    /// traces at [`crate::TelemetryLevel::Full`]. Render it with
    /// [`MetricsSnapshot::to_prometheus`] or
    /// [`MetricsSnapshot::to_json`].
    pub fn metrics(&self) -> MetricsSnapshot {
        let entries: Vec<Arc<ModelEntry>> = self.inner.models.read().values().cloned().collect();
        let mut models: Vec<ModelMetrics> = entries
            .iter()
            .map(|entry| {
                let c = &entry.counters;
                // Same read discipline as `stats_for`: outcomes first
                // with `Acquire`, then `issued`.
                let requests = c.requests.load(Ordering::Acquire);
                let shed = c.shed.load(Ordering::Acquire);
                let expired = c.expired.load(Ordering::Acquire);
                // ORDERING: Relaxed after the Acquire outcome loads —
                // every outcome was Release-published after its issue,
                // so this load covers the outcomes above (contract
                // `issued >= requests + shed + expired`).
                let issued = c.issued.load(Ordering::Relaxed);
                debug_assert!(
                    issued >= requests + shed + expired,
                    "counter contract violated for {}: issued={issued} < requests={requests} + shed={shed} + expired={expired}",
                    entry.name
                );
                let control = &entry.control;
                ModelMetrics {
                    name: entry.name.clone(),
                    issued,
                    requests,
                    shed,
                    expired,
                    snapshot_swaps: control.snapshot_swaps.load(Ordering::Relaxed),
                    delta_applies: control.delta_applies.load(Ordering::Relaxed),
                    delta_cow_bytes: control.delta_cow_bytes.load(Ordering::Relaxed),
                    delta_pages_touched: control.delta_pages_touched.load(Ordering::Relaxed),
                    lru_invalidations: control.lru_invalidations.load(Ordering::Relaxed),
                    cache_shards: entry.snapshot().per_shard_cache_stats(),
                }
            })
            .collect();
        models.sort_by(|a, b| a.name.cmp(&b.name));
        let telemetry = &self.inner.telemetry;
        let (traced_spans, recent_traces, slowest_traces) = telemetry.traces_snapshot();
        MetricsSnapshot {
            level: telemetry.level(),
            uptime: telemetry.uptime(),
            traced_spans,
            models,
            stages: telemetry.stage_metrics(),
            recent_traces,
            slowest_traces,
        }
    }

    /// Stops accepting requests, drains every queue (in-flight requests
    /// of **all** models are answered, none dropped or misrouted), joins
    /// the workers, and returns final per-model statistics sorted by
    /// name.
    pub fn shutdown(mut self) -> Vec<(String, ServeStats)> {
        self.shutdown_in_place();
        let entries: Vec<Arc<ModelEntry>> = self.inner.models.read().values().cloned().collect();
        let mut stats: Vec<(String, ServeStats)> = entries
            .iter()
            .map(|e| (e.name.clone(), self.inner.stats_for(e)))
            .collect();
        stats.sort_by(|a, b| a.0.cmp(&b.0));
        stats
    }

    fn shutdown_in_place(&mut self) {
        for queue in &self.inner.queues {
            queue.close();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// A cheap, cloneable, thread-safe client bound to one model of a
/// [`Router`].
#[derive(Debug, Clone)]
pub struct RouterHandle {
    inner: Arc<RouterInner>,
    model: Arc<ModelEntry>,
}

impl RouterHandle {
    /// The model this handle routes to.
    pub fn model_name(&self) -> &str {
        &self.model.name
    }

    /// The model's current store snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ModelNotFound`] once the model is
    /// deregistered.
    pub fn store(&self) -> Result<Arc<ShardedStore>> {
        if self.model.retired.load(Ordering::Acquire) {
            return Err(ServeError::ModelNotFound {
                name: self.model.name.clone(),
            });
        }
        Ok(self.model.snapshot())
    }

    /// The model's current store snapshot regardless of registration
    /// state — deregistration fails *lookups*, but footprint and cost
    /// inspection stay available on the final snapshot.
    pub fn snapshot(&self) -> Arc<ShardedStore> {
        self.model.snapshot()
    }

    /// Current statistics for this handle's model (available even after
    /// deregistration; see [`ServeStats`] for per-model vs router-wide
    /// fields).
    pub fn stats(&self) -> ServeStats {
        self.inner.stats_for(&self.model)
    }

    /// Served vocabulary size of the current snapshot (still answers
    /// after deregistration, from the final snapshot).
    pub fn vocab(&self) -> usize {
        self.model.snapshot().vocab()
    }

    /// Embedding dimensionality of the current snapshot (still answers
    /// after deregistration, from the final snapshot).
    pub fn dim(&self) -> usize {
        self.model.snapshot().dim()
    }

    /// Looks up one embedding row, blocking until the answer arrives.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::IdOutOfVocab`] for bad ids,
    /// [`ServeError::ModelNotFound`] after deregistration, and
    /// [`ServeError::ShuttingDown`] after shutdown. Under
    /// [`AdmissionPolicy::Shed`] a full queue sheds the request with
    /// [`ServeError::Overloaded`] after at most `enqueue_timeout`, and a
    /// request whose `request_deadline` passes while queued is answered
    /// with [`ServeError::DeadlineExceeded`] instead of a row.
    pub fn get(&self, id: usize) -> Result<Vec<f32>> {
        self.get_with_deadline(id, None)
    }

    /// [`get`](Self::get) with a per-request deadline override.
    ///
    /// Under [`AdmissionPolicy::Shed`] the effective deadline is the
    /// tightest of the policy's `request_deadline` and `deadline`;
    /// under [`AdmissionPolicy::Block`] the override is ignored, so a
    /// blocking router still never expires requests. Remote callers
    /// (the `memcom-net` tier) use this to map wire-level deadlines
    /// onto admission control without reconfiguring the router.
    pub fn get_with_deadline(
        &self,
        id: usize,
        deadline: Option<std::time::Duration>,
    ) -> Result<Vec<f32>> {
        let store = self.store()?;
        store.check_id(id)?;
        // ORDERING: issue increments stay Relaxed; the matching outcome
        // (request/shed/expired) is Release-published after this, and
        // snapshot readers load outcomes with Acquire before `issued`,
        // which keeps `issued >= requests + shed + expired` observable.
        self.model.counters.issued.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::new(ResponseSlot::new());
        let shard = store.shard_of(id);
        let admission = Admission::stamp_with(
            self.inner.config.admission,
            self.inner.telemetry.stages_on(),
            deadline,
        );
        let mut clock = admission.issued();
        let request = Request::One(OneRequest {
            id,
            store,
            counters: Arc::clone(&self.model.counters),
            slot: Arc::clone(&slot),
            admission,
            span: self.inner.telemetry.sample(),
        });
        self.inner
            .admit(shard, request, &mut clock)
            .map_err(|(e, _)| e)?;
        slot.wait()
    }

    /// Counts rows on shards never attempted because an earlier shard
    /// shed the fanned-out request: they were refused admission along
    /// with it, so `requests + shed + expired` stays equal to the rows
    /// issued even for partially-admitted multi-shard requests
    /// (already-admitted sub-requests still run and count as served).
    fn count_skipped_as_shed(&self, rows: usize) {
        if rows > 0 {
            self.model
                .counters
                .shed
                .fetch_add(rows as u64, Ordering::Release);
        }
    }

    /// Looks up many ids, pipelining one slab request per shard before
    /// blocking, and returns owned per-row vectors.
    ///
    /// For the allocation-free variant feed a reusable [`EmbedBatch`] to
    /// [`get_batch_into`](Self::get_batch_into).
    ///
    /// # Errors
    ///
    /// Same conditions as [`get`](Self::get); the first failure wins.
    pub fn get_many(&self, ids: &[usize]) -> Result<Vec<Vec<f32>>> {
        self.get_many_with_deadline(ids, None)
    }

    /// [`get_many`](Self::get_many) with a per-request deadline
    /// override; see [`get_with_deadline`](Self::get_with_deadline)
    /// for the override semantics.
    pub fn get_many_with_deadline(
        &self,
        ids: &[usize],
        deadline: Option<std::time::Duration>,
    ) -> Result<Vec<Vec<f32>>> {
        let store = self.store()?;
        for &id in ids {
            store.check_id(id)?;
        }
        // ORDERING: issue increments stay Relaxed; outcomes are
        // Release-published after them and snapshots read outcomes
        // Acquire-first (see `stats_for`).
        self.model
            .counters
            .issued
            .fetch_add(ids.len() as u64, Ordering::Relaxed);
        let dim = store.dim();
        let n_shards = store.n_shards();
        let mut shard_ids: Vec<Vec<usize>> = vec![Vec::new(); n_shards];
        let mut shard_pos: Vec<Vec<usize>> = vec![Vec::new(); n_shards];
        for (pos, &id) in ids.iter().enumerate() {
            let s = store.shard_of(id);
            shard_ids[s].push(id);
            shard_pos[s].push(pos);
        }
        let admission = Admission::stamp_with(
            self.inner.config.admission,
            self.inner.telemetry.stages_on(),
            deadline,
        );
        let mut clock = admission.issued();
        let mut pending: Vec<(usize, Arc<SlabSlot>)> = Vec::new();
        let mut first_err = None;
        let mut failed_at = None;
        for (s, slab_ids) in shard_ids.iter_mut().enumerate() {
            if slab_ids.is_empty() {
                continue;
            }
            let out = vec![0f32; slab_ids.len() * dim];
            let slot = Arc::new(SlabSlot::new());
            let request = Request::Slab(SlabRequest {
                ids: std::mem::take(slab_ids),
                out,
                store: Arc::clone(&store),
                counters: Arc::clone(&self.model.counters),
                slot: Arc::clone(&slot),
                admission,
                span: self.inner.telemetry.sample(),
            });
            if let Err((e, _)) = self.inner.admit(s, request, &mut clock) {
                first_err = Some(e);
                failed_at = Some(s);
                break;
            }
            pending.push((s, slot));
        }
        if let (Some(ServeError::Overloaded { .. }), Some(s)) = (&first_err, failed_at) {
            self.count_skipped_as_shed(shard_ids[s + 1..].iter().map(Vec::len).sum());
        }
        let mut rows: Vec<Vec<f32>> = vec![Vec::new(); ids.len()];
        for (s, slot) in pending {
            let outcome = slot.wait();
            match outcome.result {
                Ok(()) => {
                    for (j, &pos) in shard_pos[s].iter().enumerate() {
                        rows[pos] = outcome.out[j * dim..(j + 1) * dim].to_vec();
                    }
                }
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(rows),
        }
    }

    /// Looks up many ids into the caller-owned, reusable `batch` slab —
    /// the zero-copy batch path. On success `batch` holds the rows in
    /// request order; at a steady batch shape the call performs **no
    /// per-row heap allocation** end to end (one response-slot `Arc` per
    /// shard touched is the only steady-state allocation).
    ///
    /// # Errors
    ///
    /// Same conditions as [`get`](Self::get); on error the batch's
    /// contents are unspecified but the buffer stays reusable.
    pub fn get_batch_into(&self, ids: &[usize], batch: &mut EmbedBatch) -> Result<()> {
        self.get_batch_into_with_deadline(ids, batch, None)
    }

    /// [`get_batch_into`](Self::get_batch_into) with a per-request
    /// deadline override; see
    /// [`get_with_deadline`](Self::get_with_deadline) for the override
    /// semantics.
    pub fn get_batch_into_with_deadline(
        &self,
        ids: &[usize],
        batch: &mut EmbedBatch,
        deadline: Option<std::time::Duration>,
    ) -> Result<()> {
        let store = self.store()?;
        for &id in ids {
            store.check_id(id)?;
        }
        // ORDERING: issue increments stay Relaxed; outcomes are
        // Release-published after them and snapshots read outcomes
        // Acquire-first (see `stats_for`).
        self.model
            .counters
            .issued
            .fetch_add(ids.len() as u64, Ordering::Relaxed);
        let dim = store.dim();
        let n_shards = store.n_shards();
        batch.begin(ids, dim, n_shards);
        for (pos, &id) in ids.iter().enumerate() {
            batch.shard_pos[store.shard_of(id)].push(pos);
        }
        let admission = Admission::stamp_with(
            self.inner.config.admission,
            self.inner.telemetry.stages_on(),
            deadline,
        );
        let mut clock = admission.issued();
        let mut first_err = None;
        let mut failed_at = None;
        for s in 0..n_shards {
            if batch.shard_pos[s].is_empty() {
                continue;
            }
            let (mut slab_ids, mut out) = batch.take_buffers();
            slab_ids.clear();
            slab_ids.extend(batch.shard_pos[s].iter().map(|&pos| ids[pos]));
            out.clear();
            out.resize(slab_ids.len() * dim, 0.0);
            let slot = Arc::new(SlabSlot::new());
            let request = Request::Slab(SlabRequest {
                ids: slab_ids,
                out,
                store: Arc::clone(&store),
                counters: Arc::clone(&self.model.counters),
                slot: Arc::clone(&slot),
                admission,
                span: self.inner.telemetry.sample(),
            });
            match self.inner.admit(s, request, &mut clock) {
                Ok(()) => batch.pending.push((s, slot)),
                Err((e, rejected)) => {
                    // A shed (or shutdown-rejected) slab comes back whole
                    // — recycle its buffers so the shedding hot path
                    // allocates nothing.
                    if let Request::Slab(s) = rejected {
                        batch.recycle_buffers(s.ids, s.out);
                    }
                    first_err = Some(e);
                    failed_at = Some(s);
                    break;
                }
            }
        }
        if let (Some(ServeError::Overloaded { .. }), Some(s)) = (&first_err, failed_at) {
            self.count_skipped_as_shed(batch.shard_pos[s + 1..].iter().map(Vec::len).sum());
        }
        while let Some((s, slot)) = batch.pending.pop() {
            let outcome = slot.wait();
            match outcome.result {
                Ok(()) => {
                    for (j, &pos) in batch.shard_pos[s].iter().enumerate() {
                        batch.data[pos * dim..(pos + 1) * dim]
                            .copy_from_slice(&outcome.out[j * dim..(j + 1) * dim]);
                    }
                }
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
            // A worker-lost blanket returns capacity-less placeholders
            // (the real buffers died with the panicking batch) — keep
            // those out of the pool so it only ever holds warm buffers.
            if outcome.out.capacity() > 0 || outcome.ids.capacity() > 0 {
                batch.recycle_buffers(outcome.ids, outcome.out);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Scores `ids` through the model's [`InferBackend`] — N item ids
    /// in, K values out (K = the backend's
    /// [`out_len`](InferBackend::out_len); for the default lookup
    /// backend this is the flattened rows, for a ranking backend the
    /// head's scores). The request rides the same shard queues,
    /// admission policy, and counters as lookups.
    ///
    /// # Errors
    ///
    /// Same conditions as [`get`](Self::get), plus
    /// [`ServeError::BadConfig`] for an empty id list.
    pub fn score(&self, ids: &[usize]) -> Result<Vec<f32>> {
        self.score_with_deadline(ids, None)
    }

    /// [`score`](Self::score) with a per-request deadline override; see
    /// [`get_with_deadline`](Self::get_with_deadline) for the override
    /// semantics.
    pub fn score_with_deadline(
        &self,
        ids: &[usize],
        deadline: Option<std::time::Duration>,
    ) -> Result<Vec<f32>> {
        let mut batch = ScoreBatch::new();
        self.score_batch_into_with_deadline(ids, &mut batch, deadline)?;
        Ok(batch.take_scores())
    }

    /// Scores `ids` into the caller-owned, reusable `batch` — the
    /// allocation-free score path. On success [`ScoreBatch::scores`]
    /// holds the backend's output; at a steady request shape the call
    /// performs **no per-id heap allocation** end to end (the response
    /// slot `Arc` is the only steady-state allocation, as on the lookup
    /// batch path).
    ///
    /// # Errors
    ///
    /// Same conditions as [`score`](Self::score); on error the batch's
    /// contents are unspecified but its buffers stay reusable.
    pub fn score_batch_into(&self, ids: &[usize], batch: &mut ScoreBatch) -> Result<()> {
        self.score_batch_into_with_deadline(ids, batch, None)
    }

    /// [`score_batch_into`](Self::score_batch_into) with a per-request
    /// deadline override; see
    /// [`get_with_deadline`](Self::get_with_deadline) for the override
    /// semantics.
    pub fn score_batch_into_with_deadline(
        &self,
        ids: &[usize],
        batch: &mut ScoreBatch,
        deadline: Option<std::time::Duration>,
    ) -> Result<()> {
        let store = self.store()?;
        if ids.is_empty() {
            return Err(ServeError::BadConfig {
                context: "a score request needs at least one id".to_string(),
            });
        }
        for &id in ids {
            store.check_id(id)?;
        }
        // ORDERING: issue increments stay Relaxed; outcomes are
        // Release-published after them and snapshots read outcomes
        // Acquire-first (see `stats_for`).
        self.model
            .counters
            .issued
            .fetch_add(ids.len() as u64, Ordering::Relaxed);
        let backend = Arc::clone(&self.model.backend);
        let out_len = backend.out_len(ids.len(), &store);
        // The whole request rides one shard queue — its first id's —
        // for admission/batching; the executing worker gathers rows
        // across shards (the store is thread-safe).
        let shard = store.shard_of(ids[0]);
        let (mut req_ids, mut out) = batch.take_buffers();
        req_ids.clear();
        req_ids.extend_from_slice(ids);
        out.clear();
        out.resize(out_len, 0.0);
        let slot = Arc::new(SlabSlot::new());
        let admission = Admission::stamp_with(
            self.inner.config.admission,
            self.inner.telemetry.stages_on(),
            deadline,
        );
        let mut clock = admission.issued();
        let request = Request::Score(ScoreRequest {
            ids: req_ids,
            out,
            store,
            backend,
            counters: Arc::clone(&self.model.counters),
            slot: Arc::clone(&slot),
            admission,
            span: self.inner.telemetry.sample(),
        });
        match self.inner.admit(shard, request, &mut clock) {
            Ok(()) => {}
            Err((e, rejected)) => {
                // A shed (or shutdown-rejected) request comes back whole
                // — recycle its buffers so the shedding path allocates
                // nothing.
                if let Request::Score(s) = rejected {
                    batch.recycle_buffers(s.ids, s.out);
                }
                return Err(e);
            }
        }
        let outcome = slot.wait();
        // A worker-lost blanket returns capacity-less placeholders —
        // keep those out of the batch so it only holds warm buffers.
        if outcome.out.capacity() > 0 || outcome.ids.capacity() > 0 {
            batch.accept_outcome(outcome.ids, outcome.out);
        }
        outcome.result
    }
}

/// One shard's worker: pops idle-flushed micro-batches and serves them
/// until the queue closes and drains.
///
/// Invariant — a reply happens after the request's resources are
/// released: before a worker fills a requester's slot it drops every
/// `Arc` the request pinned (store snapshot, backend, model counters),
/// capturing first whatever telemetry still needs. A woken caller that
/// drops its own handle therefore finds a superseded or deregistered
/// snapshot already freed, never kept alive by a batch it has left.
/// `tests/delta.rs` stresses this.
fn worker_loop(inner: &RouterInner, shard_idx: usize) {
    let queue = &inner.queues[shard_idx];
    let max_batch = inner.config.max_batch;
    let timed = inner.telemetry.stages_on();
    // The popped batch and its panic-blanket slot list are refilled per
    // flush; with `scratch` the worker allocates nothing per batch at a
    // steady shape.
    let mut batch: Vec<Request> = Vec::new();
    let mut slots: Vec<SlotRef> = Vec::new();
    let mut scratch = WorkerScratch::default();
    while let Some((reason, opened)) = queue.pop_batch_into_timed(&mut batch, max_batch, timed) {
        // A panic while serving must not strand blocked requesters: keep
        // the slots, answer `WorkerLost` to any left unfilled (fill is
        // first-write-wins), and keep the worker alive for later batches.
        slots.clear();
        slots.extend(batch.iter().map(Request::slot_ref));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve_batch(inner, shard_idx, &mut batch, reason, opened, &mut scratch);
        }));
        if outcome.is_err() {
            for slot in &slots {
                slot.fail(ServeError::WorkerLost);
            }
            batch.clear();
            scratch.clear();
        }
    }
}

/// A worker's reusable per-batch state: the run of single-id requests
/// being coalesced and the inference-backend scratch.
#[derive(Default)]
struct WorkerScratch {
    one_ids: Vec<usize>,
    one_slots: Vec<Arc<ResponseSlot>>,
    one_spans: Vec<SpanSeed>,
    infer: InferScratch,
}

impl WorkerScratch {
    fn clear(&mut self) {
        self.one_ids.clear();
        self.one_slots.clear();
        self.one_spans.clear();
    }
}

/// Full telemetry's state for one batch: the shard's stage set, locked
/// for the whole batch so all of its samples land under one lock, and
/// the worker's stage-clock chain.
struct BatchTiming<'a> {
    stages: MutexGuard<'a, StageSet>,
    /// The latest stage-clock read. Each served unit (a coalesced
    /// single-id run, a slab, a score) starts here, so a unit costs two
    /// reads — work done, reply out — not three.
    mark: Stamp,
}

// memcom-lint: hot-path
impl BatchTiming<'_> {
    /// Closes the unit that started at `self.mark`: its work ended at
    /// `worked` and lands in the `work` histogram (decode or forward),
    /// and its reply is out now. Returns the unit's end.
    fn unit_done(
        &mut self,
        worked: Stamp,
        work: impl FnOnce(&mut StageSet) -> &mut LatencyHistogram,
    ) -> Stamp {
        // memcom-lint: allow(L002) -- a `BatchTiming` exists only when stages are on
        let finished = Stamp::now();
        work(&mut self.stages).record(worked.nanos_since(self.mark));
        self.stages.slab_write.record(finished.nanos_since(worked));
        self.mark = finished;
        finished
    }

    /// Restarts the chain after work that is no unit's stage.
    fn restart(&mut self) {
        // memcom-lint: allow(L002) -- a `BatchTiming` exists only when stages are on
        self.mark = Stamp::now();
    }

    /// Counts one decode's hit/miss rows from the shard's cache counters
    /// read before and after it. The worker owns its shard, so the
    /// delta is exactly that decode's rows.
    fn add_rows(&mut self, (hit0, miss0): (u64, u64), (hit1, miss1): (u64, u64)) {
        self.stages.decode_rows_hit += hit1 - hit0;
        self.stages.decode_rows_miss += miss1 - miss0;
    }
}

fn serve_batch(
    inner: &RouterInner,
    shard_idx: usize,
    batch: &mut Vec<Request>,
    reason: FlushReason,
    opened: Option<Stamp>,
    scratch: &mut WorkerScratch,
) {
    let c = &inner.batch;
    let rows: usize = batch.iter().map(Request::rows).sum();
    // ORDERING: this is the batcher-wide rows tally (BatchCounters),
    // not the per-model contract counter of the same name; worker
    // threads only race on the total, which needs no ordering.
    c.requests.fetch_add(rows as u64, Ordering::Relaxed);
    c.batches.fetch_add(1, Ordering::Relaxed);
    match reason {
        FlushReason::Full => c.flushes_full.fetch_add(1, Ordering::Relaxed),
        FlushReason::Idle => c.flushes_idle.fetch_add(1, Ordering::Relaxed),
        FlushReason::Drain => c.flushes_drain.fetch_add(1, Ordering::Relaxed),
    };
    c.max_batch_observed
        .fetch_max(rows as u64, Ordering::Relaxed);

    // Deadlines are evaluated once, at dequeue time — a request that
    // expired while queued is answered `DeadlineExceeded` below without
    // costing a store read (or the simulated store latency). Only a
    // batch carrying a deadline reads the clock for it.
    let now = batch
        .iter()
        .any(|request| request.admission().expires_at().is_some())
        .then(Instant::now);
    let expired = |request: &Request| match (request.admission().expires_at(), now) {
        (Some(expires_at), Some(now)) => now >= expires_at,
        _ => false,
    };

    // The stage clock's dequeue stamp closes batch assembly and every
    // request's queue wait.
    let telemetry = &inner.telemetry;
    let dequeued = opened.map(|_| Stamp::now());

    // Simulated backing-store service time, charged once per flushed
    // batch that actually reaches the store (see
    // [`ServeConfig::store_latency`]).
    let store_latency = inner.config.store_latency;
    if !store_latency.is_zero() && !batch.iter().all(expired) {
        std::thread::sleep(store_latency);
    }

    let mut timing = None;
    if let (Some(opened), Some(dequeued)) = (opened, dequeued) {
        // The shard's dequeue story — assembly, batch size, every
        // request's queue wait — lands before any reply, so a snapshot
        // taken after a reply covers that request's wait.
        let mut stages = telemetry.shard(shard_idx).stages();
        stages.batch_assembly.record(dequeued.nanos_since(opened));
        stages.batch_size.record(rows as u64 * SIZE_SCALE);
        for request in batch.iter() {
            if let Some(issued) = request.admission().issued() {
                stages.queue_wait.record(dequeued.nanos_since(issued));
            }
        }
        let mut batch_timing = BatchTiming {
            stages,
            mark: dequeued,
        };
        // The simulated store read is no stage of its own.
        if !store_latency.is_zero() {
            batch_timing.restart();
        }
        timing = Some(batch_timing);
    }

    // Serve in arrival order, coalescing runs of single-id requests that
    // target the same store snapshot (the common single-model case) into
    // one store batch, so the legacy path keeps its lock amortization.
    let mut run: Option<(Arc<ShardedStore>, Arc<ModelCounters>)> = None;
    for request in batch.drain(..) {
        if let Some(now) = now.filter(|_| expired(&request)) {
            // A sampled expired request's span ends here: queued its
            // whole life, no service.
            if let (Some(pending), Some(issued), Some(dequeued)) =
                (request.span(), request.admission().issued(), dequeued)
            {
                let waited = dequeued.nanos_since(issued);
                telemetry.complete(Span {
                    seq: pending.seq,
                    shard: shard_idx,
                    rows: request.rows(),
                    queue_wait_nanos: waited,
                    service_nanos: 0,
                    total_nanos: waited,
                    outcome: SpanOutcome::Expired,
                });
            }
            request.expire(now);
            // Answering the dead request is no served unit's stage.
            if let Some(timing) = timing.as_mut() {
                timing.restart();
            }
            continue;
        }
        match request {
            Request::One(r) => {
                let same_run = matches!(&run, Some((s, _)) if Arc::ptr_eq(s, &r.store));
                if !same_run {
                    flush_one_run(inner, shard_idx, run.take(), scratch, &mut timing);
                    run = Some((r.store, r.counters));
                }
                if let (Some(pending), Some(issued), Some(dequeued)) =
                    (r.span, r.admission.issued(), dequeued)
                {
                    scratch.one_spans.push(SpanSeed {
                        seq: pending.seq,
                        issued,
                        queue_wait_nanos: dequeued.nanos_since(issued),
                        rows: 1,
                    });
                }
                scratch.one_ids.push(r.id);
                scratch.one_slots.push(r.slot);
            }
            Request::Slab(s) => {
                flush_one_run(inner, shard_idx, run.take(), scratch, &mut timing);
                let SlabRequest {
                    ids,
                    mut out,
                    store,
                    counters,
                    slot,
                    admission,
                    span,
                } = s;
                let started = timing.as_ref().map(|timing| timing.mark);
                let decode_before = started.map(|_| store.shard_hit_miss(shard_idx));
                let result = store.lookup_batch(shard_idx, &ids, &mut out);
                if result.is_ok() {
                    counters
                        .requests
                        .fetch_add(ids.len() as u64, Ordering::Release);
                }
                // Capture telemetry inputs, then release the request's
                // resources before the reply (see `worker_loop`).
                let slab_rows = ids.len();
                let dtype = dtype_idx(store.dtype());
                let decode_after = decode_before.map(|_| store.shard_hit_miss(shard_idx));
                let decoded = started.map(|_| Stamp::now());
                drop((store, counters));
                slot.fill(SlabOutcome { ids, out, result });
                if let (Some(timing), Some(started), Some(decoded)) =
                    (timing.as_mut(), started, decoded)
                {
                    let finished = timing.unit_done(decoded, |stages| &mut stages.decode[dtype]);
                    if let (Some(before), Some(after)) = (decode_before, decode_after) {
                        timing.add_rows(before, after);
                    }
                    if let (Some(pending), Some(issued)) = (span, admission.issued()) {
                        telemetry.complete(Span {
                            seq: pending.seq,
                            shard: shard_idx,
                            rows: slab_rows,
                            queue_wait_nanos: started.nanos_since(issued),
                            service_nanos: finished.nanos_since(started),
                            total_nanos: finished.nanos_since(issued),
                            outcome: SpanOutcome::Served,
                        });
                    }
                }
            }
            Request::Score(s) => {
                flush_one_run(inner, shard_idx, run.take(), scratch, &mut timing);
                let ScoreRequest {
                    ids,
                    mut out,
                    store,
                    backend,
                    counters,
                    slot,
                    admission,
                    span,
                } = s;
                let started = timing.as_ref().map(|timing| timing.mark);
                let result = backend.score_into(&store, &ids, &mut scratch.infer, &mut out);
                if result.is_ok() {
                    counters
                        .requests
                        .fetch_add(ids.len() as u64, Ordering::Release);
                }
                // Capture telemetry inputs, then release the request's
                // resources before the reply (see `worker_loop`).
                let score_rows = ids.len();
                let scored = started.map(|_| Stamp::now());
                drop((store, backend, counters));
                slot.fill(SlabOutcome { ids, out, result });
                if let (Some(timing), Some(started), Some(scored)) =
                    (timing.as_mut(), started, scored)
                {
                    // The whole backend execution — gather + NN forward
                    // — lands in the `forward` stage; the reply
                    // hand-back stays in `slab_write` like every other
                    // response.
                    let finished = timing.unit_done(scored, |stages| &mut stages.forward);
                    if let (Some(pending), Some(issued)) = (span, admission.issued()) {
                        telemetry.complete(Span {
                            seq: pending.seq,
                            shard: shard_idx,
                            rows: score_rows,
                            queue_wait_nanos: started.nanos_since(issued),
                            service_nanos: finished.nanos_since(started),
                            total_nanos: finished.nanos_since(issued),
                            outcome: SpanOutcome::Served,
                        });
                    }
                }
            }
        }
    }
    flush_one_run(inner, shard_idx, run.take(), scratch, &mut timing);
}

fn flush_one_run(
    inner: &RouterInner,
    shard_idx: usize,
    run: Option<(Arc<ShardedStore>, Arc<ModelCounters>)>,
    scratch: &mut WorkerScratch,
    timing: &mut Option<BatchTiming<'_>>,
) {
    let Some((store, counters)) = run else {
        debug_assert!(scratch.one_ids.is_empty());
        return;
    };
    let telemetry = &inner.telemetry;
    let ids = &scratch.one_ids;
    let started = timing.as_ref().map(|timing| timing.mark);
    let decode_before = started.map(|_| store.shard_hit_miss(shard_idx));
    match store.get_shard_batch(shard_idx, ids) {
        Ok(rows) => {
            counters
                .requests
                .fetch_add(ids.len() as u64, Ordering::Release);
            // Capture telemetry inputs, then release the run's resources
            // before the replies (see `worker_loop`).
            let dtype = dtype_idx(store.dtype());
            let decode_after = decode_before.map(|_| store.shard_hit_miss(shard_idx));
            let decoded = started.map(|_| Stamp::now());
            drop((store, counters));
            for (slot, row) in scratch.one_slots.drain(..).zip(rows) {
                slot.fill(Ok(row));
            }
            if let (Some(timing), Some(started), Some(decoded)) =
                (timing.as_mut(), started, decoded)
            {
                let finished = timing.unit_done(decoded, |stages| &mut stages.decode[dtype]);
                if let (Some(before), Some(after)) = (decode_before, decode_after) {
                    timing.add_rows(before, after);
                }
                // Service time is the whole coalesced run — the latency
                // each sampled request actually experienced, not its
                // pro-rata share.
                let service = finished.nanos_since(started);
                for seed in scratch.one_spans.drain(..) {
                    telemetry.complete(Span {
                        seq: seed.seq,
                        shard: shard_idx,
                        rows: seed.rows,
                        queue_wait_nanos: seed.queue_wait_nanos,
                        service_nanos: service,
                        total_nanos: finished.nanos_since(seed.issued),
                        outcome: SpanOutcome::Served,
                    });
                }
            }
        }
        Err(_) => {
            // A bad id poisons only its own batch; answer every
            // requester individually so none hangs — and only the rows
            // actually served count as served. Sampled spans are dropped
            // on this rare path: tracing is best-effort. The outcomes are
            // collected first so the replies still follow the release.
            let outcomes: Vec<Result<Vec<f32>>> = ids.iter().map(|&id| store.get(id)).collect();
            let served = outcomes.iter().filter(|outcome| outcome.is_ok()).count();
            counters
                .requests
                .fetch_add(served as u64, Ordering::Release);
            drop((store, counters));
            for (slot, outcome) in scratch.one_slots.drain(..).zip(outcomes) {
                slot.fill(outcome);
            }
            // The failed run records no stage.
            if let Some(timing) = timing.as_mut() {
                timing.restart();
            }
        }
    }
    scratch.one_ids.clear();
    scratch.one_spans.clear();
}
// memcom-lint: end-hot-path

#[cfg(test)]
mod tests {
    use super::*;
    use memcom_core::{EmbeddingCompressor, MemCom, MemComConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::Duration;

    fn memcom(seed: u64) -> MemCom {
        let mut rng = StdRng::seed_from_u64(seed);
        MemCom::new(MemComConfig::new(100, 4, 10), &mut rng).unwrap()
    }

    /// A slab whose `out` buffer violates the sizing contract panics the
    /// worker mid-batch; the panic blanket must answer every slot in the
    /// batch with `WorkerLost` and keep the worker serving afterwards.
    #[test]
    fn poisoned_slab_slot_fails_batch_but_not_worker() {
        let emb = memcom(3);
        let router = Router::start(ServeConfig {
            n_shards: 1,
            max_batch: 4,
            max_wait: Duration::from_millis(10),
            ..ServeConfig::default()
        })
        .unwrap();
        router.register(DEFAULT_MODEL, &emb).unwrap();
        let handle = router.handle(DEFAULT_MODEL).unwrap();
        let store = handle.store().unwrap();

        // Hand-craft a poisoned request: 2 ids but a 1-value slab.
        let slot = Arc::new(SlabSlot::new());
        router.inner.queues[0]
            .push(Request::Slab(SlabRequest {
                ids: vec![0, 1],
                out: vec![0f32; 1],
                store: Arc::clone(&store),
                counters: Arc::new(ModelCounters::default()),
                slot: Arc::clone(&slot),
                admission: Admission::stamp_with(AdmissionPolicy::Block, false, None),
                span: None,
            }))
            .unwrap();
        let outcome = slot.wait();
        assert!(matches!(outcome.result, Err(ServeError::WorkerLost)));

        // The worker survived the panic and keeps serving.
        let row = handle.get(7).unwrap();
        assert_eq!(row.as_slice(), emb.lookup(&[7]).unwrap().as_slice());
    }

    #[test]
    fn model_lifecycle_and_errors() {
        let emb = memcom(1);
        let router = Router::start(ServeConfig::with_shards(2)).unwrap();
        assert!(matches!(
            router.handle("missing"),
            Err(ServeError::ModelNotFound { .. })
        ));
        router.register("a", &emb).unwrap();
        assert!(matches!(
            router.register("a", &emb),
            Err(ServeError::ModelExists { .. })
        ));
        assert_eq!(router.model_names(), vec!["a".to_string()]);

        let handle = router.handle("a").unwrap();
        assert_eq!(handle.model_name(), "a");
        handle.get(5).unwrap();
        router.deregister("a").unwrap();
        assert!(matches!(
            handle.get(5),
            Err(ServeError::ModelNotFound { .. })
        ));
        assert!(matches!(
            router.deregister("a"),
            Err(ServeError::ModelNotFound { .. })
        ));
        assert!(router.model_names().is_empty());
    }

    #[test]
    fn register_store_checks_shard_count() {
        let emb = memcom(2);
        let router = Router::start(ServeConfig::with_shards(4)).unwrap();
        let store = ShardedStore::build(&emb, 2, 8, 4096).unwrap();
        assert!(matches!(
            router.register_store("a", store),
            Err(ServeError::BadConfig { .. })
        ));
        let store = ShardedStore::build(&emb, 2, 8, 4096).unwrap();
        router.register("ok", &emb).unwrap();
        assert!(matches!(
            router.swap("ok", store),
            Err(ServeError::BadConfig { .. })
        ));
    }
}
