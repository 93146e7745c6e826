//! The job store and scheduler: states, per-tile progress, monotonic
//! event sequences, incremental results, checkpoint/resume, and
//! supervised retry/quarantine.
//!
//! One [`SignoffService`] owns one persistent [`WorkerPool`]. A
//! submitted job decomposes into `tile_count` independent attempts;
//! each attempt computes its [`TilePartial`] (pure), checkpoints it
//! (when a checkpoint root is configured), and hands the outcome to
//! the supervisor. A failed attempt (panic, injected fault, virtual
//! watchdog timeout) is retried up to [`SupervisionPolicy::max_attempts`]
//! times with deterministic virtual-clock backoff; a tile that
//! exhausts its budget is **quarantined** and the job still settles —
//! as [`JobState::Partial`] with an explicit quarantined-tile manifest
//! in the report, never a bare `Failed`.
//!
//! ## Determinism under faults
//!
//! Fault decisions are pure functions of `(plan seed, site, tile,
//! attempt)` (see `dfm-fault`), so *which* attempts fail never depends
//! on scheduling. Event emission is **committed in tile order**: each
//! tile's outcome (its retries, then its `TileDone` or
//! `TileQuarantined`) is buffered until every lower-indexed dispatched
//! tile has resolved, so the full event stream — not just the report
//! bytes — is identical at any worker count. Backoff is virtual
//! milliseconds (bookkeeping the events record), not wall time, so
//! retries cost nothing and reproduce exactly.
//!
//! ## Result cache
//!
//! When [`ServiceConfig::cache`] holds a [`TileCache`], dispatch
//! consults it **before** submitting anything to the pool: a tile whose
//! content-addressed key (see [`JobContext::cache_key`]) already maps
//! to a stored partial is committed straight from the cache — emitting
//! [`JobEventKind::TileCacheHit`] ahead of its `TileDone` — and never
//! reaches a worker. Misses compute as usual and, on a clean first
//! attempt, store their encoded partial back
//! ([`JobEventKind::TileCacheStore`]). Retried or quarantined tiles are
//! never cached, and cache reads/writes are fault-injectable
//! ([`SITE_CACHE_READ`]/[`SITE_CACHE_WRITE`]); every cache failure mode
//! degrades to a recompute, never to wrong bytes.

use crate::checkpoint::{decode_tile_partial, encode_tile_partial, list_job_dirs, JobDir};
use crate::job::{JobContext, TilePartial};
use crate::report::{QuarantinedTile, SignoffReport};
use crate::sched::{Grant, GrantOut, RejectCode, Rejection, SchedConfig, Scheduler};
use crate::shard::{
    self, ShardGrant, ShardSet, ShardStats, TileCacheMark, TileOutcome, TileOutcomeKind,
};
use crate::spec::JobSpec;
use dfm_cache::{StoreStage, TileCache};
use dfm_fault::FaultPlane;
use dfm_par::{CancelToken, PoolStats, TaskOutcome, WorkerPool};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::Duration;

/// Environment variable (milliseconds) that slows every tile task
/// down. A test/CI hook: it widens the window in which a kill or
/// cancel lands mid-job, without touching any result bytes.
pub const TILE_DELAY_ENV: &str = "DFM_SIGNOFF_TILE_DELAY_MS";

/// Fault site: panic inside a tile attempt's containment boundary.
/// Keyed by tile index; `attempt` is the attempt number.
pub const SITE_TILE_COMPUTE: &str = "signoff.tile.compute";

/// Fault site: virtual delay of a tile attempt. Keyed by tile index.
/// A delay at or past [`SupervisionPolicy::watchdog_vms`] fails the
/// attempt as a watchdog timeout (cancel + requeue).
pub const SITE_TILE_DELAY: &str = "signoff.tile.delay";

/// Fault site: checkpoint tile write, keyed by tile index; `attempt`
/// is the write-retry number.
pub const SITE_CKPT_WRITE: &str = "signoff.ckpt.write";

/// Fault site: checkpoint tile read at load time, keyed by tile index.
/// An injected error skips the tile, which is then recomputed.
pub const SITE_CKPT_READ: &str = "signoff.ckpt.read";

/// Fault site: result-cache lookup at dispatch, keyed by tile index.
/// An injected error turns the probe into a miss — the tile is
/// recomputed, bytes unchanged.
pub const SITE_CACHE_READ: &str = "signoff.cache.read";

/// Fault site: result-cache store after a clean first attempt, keyed
/// by tile index. An injected error skips the store silently (the next
/// identical submission recomputes the tile). An `err_nospace` rule
/// here models a full disk: the store is refused without retry and the
/// job continues unharmed.
pub const SITE_CACHE_WRITE: &str = "signoff.cache.write";

/// Crash site: cache-store tmp file durable, rename not yet done.
/// Keyed by tile index.
pub const SITE_CACHE_STORE_TMP: &str = "signoff.cache.store.tmp";

/// Crash site: cache entry renamed into place, store never
/// acknowledged. Keyed by tile index.
pub const SITE_CACHE_STORE_RENAME: &str = "signoff.cache.store.rename";

/// Lifecycle of a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, tasks not yet dispatched.
    Queued,
    /// Tile tasks are dispatched to the pool.
    Running,
    /// Holds a subset of tiles and is not running: loaded from a
    /// checkpoint after a restart (awaiting `resume`), or **settled**
    /// with quarantined tiles excluded — in the settled case the
    /// report (with its quarantine manifest) is available, and the job
    /// can still be resumed to retry the quarantined tiles.
    Partial,
    /// All tiles merged; final report available.
    Done,
    /// The merge itself failed; diagnostic recorded. Tile failures
    /// never produce this state — they retry and then quarantine.
    Failed,
    /// Cancelled by request; completed tiles are kept for `resume`.
    Cancelled,
}

impl JobState {
    /// True for states no event can follow (except via `resume`).
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::Cancelled)
    }

    /// True once the job has stopped making progress on its own —
    /// every state except `Queued`/`Running`. This is what `wait`
    /// blocks on: a `Partial`-settled job (quarantined tiles) is a
    /// finished job with a report, not one worth waiting longer for.
    pub fn is_settled(self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }

    /// Stable lower-case name used on the wire.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Partial => "partial",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Parses [`JobState::name`] back.
    pub fn from_name(s: &str) -> Option<JobState> {
        Some(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "partial" => JobState::Partial,
            "done" => JobState::Done,
            "failed" => JobState::Failed,
            "cancelled" => JobState::Cancelled,
            _ => return None,
        })
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What an event records.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobEventKind {
    /// The job entered a new state.
    State(JobState),
    /// A tile completed.
    TileDone {
        /// The completed tile's index.
        tile: usize,
        /// Tiles completed so far (including this one).
        completed: usize,
        /// Total tiles in the job.
        total: usize,
    },
    /// A tile attempt failed and will be retried.
    TileRetry {
        /// The tile being retried.
        tile: usize,
        /// The failed attempt (0-based).
        attempt: u64,
        /// Deterministic virtual-clock backoff before the next
        /// attempt, virtual milliseconds.
        backoff_vms: u64,
        /// The failure's diagnostic.
        reason: String,
    },
    /// A tile exhausted its attempt budget and was quarantined; its
    /// results are excluded from the job's report.
    TileQuarantined {
        /// The quarantined tile.
        tile: usize,
        /// Failed attempts consumed.
        attempts: u64,
        /// The last failure's diagnostic.
        reason: String,
    },
    /// Every checkpoint-write attempt for this tile failed; the result
    /// is kept in memory (the job continues degraded — a restart would
    /// recompute this tile).
    CkptDegraded {
        /// The tile whose checkpoint write failed.
        tile: usize,
    },
    /// The tile's result was served from the content-addressed cache —
    /// it was never submitted to the pool. Always immediately followed
    /// by the tile's `TileDone`.
    TileCacheHit {
        /// The tile served from cache.
        tile: usize,
    },
    /// The tile's freshly computed result was stored into the cache
    /// (clean first attempt only). Always immediately followed by the
    /// tile's `TileDone`.
    TileCacheStore {
        /// The tile whose result was stored.
        tile: usize,
    },
    /// The job's manufacturability score was computed (emitted between
    /// the last tile commit and the final state event, only for jobs
    /// whose spec enables scoring).
    Score {
        /// IEEE-754 bit pattern of the aggregate score (bits, so the
        /// event stream stays `Eq`-comparable and byte-exact).
        bits: u64,
        /// The pass verdict (threshold and floors).
        pass: bool,
    },
}

/// One entry in a job's event log. Sequence numbers are per-job,
/// start at 0, and increase by exactly 1 per event, so a client
/// polling `events(since)` can prove it has seen everything.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobEvent {
    /// Monotonic per-job sequence number.
    pub seq: u64,
    /// What happened.
    pub kind: JobEventKind,
}

/// A point-in-time summary of a job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobStatus {
    /// Job id (service-wide, monotonically assigned).
    pub id: u64,
    /// The spec's client-chosen name.
    pub name: String,
    /// Current lifecycle state.
    pub state: JobState,
    /// Total tiles (0 until the layout is parsed).
    pub tiles_total: usize,
    /// Completed tiles.
    pub tiles_done: usize,
    /// Quarantined tiles (excluded from the report).
    pub tiles_quarantined: usize,
    /// Tiles served from the result cache (subset of `tiles_done`).
    pub tiles_cached: usize,
    /// Next event sequence number (== number of events so far).
    pub next_seq: u64,
    /// Tenant the job is billed to (from the spec; `"default"` when
    /// the client named none).
    pub tenant: String,
    /// Scheduling priority (0 = lowest).
    pub priority: u8,
    /// IEEE-754 bits of the manufacturability score, once computed
    /// (`None` until the job settles, or when scoring is off).
    pub score_bits: Option<u64>,
    /// The score's pass verdict, with the same lifetime as
    /// `score_bits`.
    pub score_pass: Option<bool>,
    /// Failure diagnostic, when `state == Failed`.
    pub error: Option<String>,
}

impl JobStatus {
    /// The manufacturability score as an `f64`, when computed.
    pub fn score(&self) -> Option<f64> {
        self.score_bits.map(f64::from_bits)
    }
}

/// Retry/quarantine/watchdog knobs of the supervisor.
#[derive(Clone, Copy, Debug)]
pub struct SupervisionPolicy {
    /// Per-tile attempt budget; a tile failing this many times is
    /// quarantined (clamped to at least 1).
    pub max_attempts: u64,
    /// Backoff before retrying attempt `k` is `backoff_base_vms << k`
    /// virtual milliseconds (bookkeeping recorded in the retry event,
    /// not wall time — see `real_ms_per_vms`).
    pub backoff_base_vms: u64,
    /// Write attempts per tile checkpoint before degrading to
    /// in-memory-only (clamped to at least 1).
    pub ckpt_write_attempts: u64,
    /// Virtual watchdog budget: an injected tile delay of at least
    /// this many virtual milliseconds fails the attempt as a timeout
    /// (the stuck attempt is abandoned and the tile requeued). `None`
    /// disables the watchdog.
    pub watchdog_vms: Option<u64>,
    /// Real milliseconds actually slept per virtual millisecond of
    /// backoff/delay (capped at 1 s per sleep). 0 — the default —
    /// keeps the virtual clock purely bookkeeping, so fault runs are
    /// fast and exactly reproducible.
    pub real_ms_per_vms: u64,
}

impl Default for SupervisionPolicy {
    fn default() -> SupervisionPolicy {
        SupervisionPolicy {
            max_attempts: 3,
            backoff_base_vms: 8,
            ckpt_write_attempts: 3,
            watchdog_vms: Some(10_000),
            real_ms_per_vms: 0,
        }
    }
}

impl SupervisionPolicy {
    /// Sleeps the real-time equivalent of `vms` virtual milliseconds
    /// (no-op at the default scale of 0).
    fn real_sleep(&self, vms: u64) {
        if self.real_ms_per_vms > 0 {
            let ms = vms.saturating_mul(self.real_ms_per_vms).min(1000);
            std::thread::sleep(Duration::from_millis(ms));
        }
    }
}

/// Full construction-time configuration of a [`SignoffService`].
/// Build one with [`ServiceConfig::builder`]; the builder's methods
/// document each knob.
pub struct ServiceConfig {
    threads: usize,
    ckpt_root: Option<PathBuf>,
    tile_delay: Duration,
    fault_plane: Option<Arc<FaultPlane>>,
    policy: SupervisionPolicy,
    cache: Option<Arc<TileCache>>,
    sched: Option<SchedConfig>,
    shard_of: Option<(u64, u64)>,
    shards: Vec<String>,
}

impl ServiceConfig {
    /// The only way to configure a service. Every knob defaults to off:
    /// one worker, no checkpointing, no delay, no faults, default
    /// policy, no cache, open scheduler, no shard role.
    pub fn builder() -> ServiceConfigBuilder {
        ServiceConfigBuilder {
            cfg: ServiceConfig {
                threads: 1,
                ckpt_root: None,
                tile_delay: Duration::ZERO,
                fault_plane: None,
                policy: SupervisionPolicy::default(),
                cache: None,
                sched: None,
                shard_of: None,
                shards: Vec::new(),
            },
        }
    }
}

/// Builder for [`ServiceConfig`] (see [`ServiceConfig::builder`]).
pub struct ServiceConfigBuilder {
    cfg: ServiceConfig,
}

impl ServiceConfigBuilder {
    /// Worker-pool threads.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.threads = threads;
        self
    }

    /// Checkpoint root directory (enables persistence). Job
    /// directories an earlier process left there load back as
    /// [`JobState::Partial`], ready for [`SignoffService::resume`].
    #[must_use]
    pub fn ckpt_root(mut self, root: impl Into<PathBuf>) -> Self {
        self.cfg.ckpt_root = Some(root.into());
        self
    }

    /// Artificial per-tile delay (test/CI hook).
    #[must_use]
    pub fn tile_delay(mut self, delay: Duration) -> Self {
        self.cfg.tile_delay = delay;
        self
    }

    /// Arm a fault-injection plane (without one every fault probe is
    /// a no-op).
    #[must_use]
    pub fn fault_plane(mut self, plane: impl Into<Option<Arc<FaultPlane>>>) -> Self {
        self.cfg.fault_plane = plane.into();
        self
    }

    /// Retry/quarantine/watchdog policy.
    #[must_use]
    pub fn policy(mut self, policy: SupervisionPolicy) -> Self {
        self.cfg.policy = policy;
        self
    }

    /// Arm a content-addressed tile-result cache (without one nothing
    /// is cached).
    #[must_use]
    pub fn cache(mut self, cache: impl Into<Option<Arc<TileCache>>>) -> Self {
        self.cfg.cache = cache.into();
        self
    }

    /// Tenant plan: fair-share weights, quotas, grant window. Without
    /// one the scheduler is [`SchedConfig::open`]: every tenant
    /// admitted at weight 1, no quotas, unbounded grant window.
    #[must_use]
    pub fn sched(mut self, sched: SchedConfig) -> Self {
        self.cfg.sched = Some(sched);
        self
    }

    /// Shard role: own partition `k` of `n` for dispatched jobs — a
    /// `shard.dispatch` frame without explicit ranges runs only
    /// [`crate::shard::partition_range`]`(t, n, k)` of the job. Without
    /// it, shard frames are still accepted but must name the ranges.
    #[must_use]
    pub fn shard_of(mut self, k: u64, n: u64) -> Self {
        self.cfg.shard_of = Some((k, n));
        self
    }

    /// Coordinator role: fan submitted jobs out to these shards
    /// (`host:port`). Without them jobs run locally.
    #[must_use]
    pub fn shards(mut self, addrs: Vec<String>) -> Self {
        self.cfg.shards = addrs;
        self
    }

    /// Finish the configuration.
    #[must_use]
    pub fn build(self) -> ServiceConfig {
        self.cfg
    }
}

/// One recorded (not yet committed) retry of a tile.
#[derive(Clone, Debug)]
struct RetryRecord {
    attempt: u64,
    backoff_vms: u64,
    reason: String,
}

/// How a tile's result interacted with the cache (recorded so the
/// commit path can emit the matching event in order).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CacheOutcome {
    /// Served from the cache, never computed.
    Hit,
    /// Computed and stored back into the cache.
    Stored,
    /// Computed; not cached (cache off, store faulted, or retried).
    None,
}

/// A tile's final outcome, buffered until its commit-order turn.
enum TileResolution {
    Done { partial: TilePartial, ckpt_degraded: bool, cache: CacheOutcome },
    Quarantined { attempts: u64, reason: String },
}

struct JobMut {
    spec: JobSpec,
    /// The submitted GDS, the tiled context built from it, and the
    /// committed per-tile partials: everything a job needs to compute,
    /// resume and merge. A job that settles Done or Failed releases all
    /// three ([`JobMut::release_settled`]); Partial and Cancelled jobs
    /// keep them for `resume`.
    gds: Vec<u8>,
    ctx: Option<Arc<JobContext>>,
    partials: BTreeMap<usize, TilePartial>,
    /// The context's tile count and the committed-tile count, kept so
    /// a released job's status reads as before.
    tiles_total: usize,
    tiles_done: usize,
    state: JobState,
    cancel: CancelToken,
    events: Vec<JobEvent>,
    error: Option<String>,
    report: Option<SignoffReport>,
    score: Option<dfm_score::ScoreReport>,
    /// Attempt currently in flight per dispatched tile.
    attempts: BTreeMap<usize, u64>,
    /// Failed attempts awaiting commit, per tile, in attempt order.
    retry_log: BTreeMap<usize, Vec<RetryRecord>>,
    /// Resolved tiles whose events have not been committed yet.
    pending_commit: BTreeMap<usize, TileResolution>,
    /// Dispatched tiles in commit (ascending index) order; the head
    /// commits as soon as it resolves.
    commit_queue: VecDeque<usize>,
    /// Quarantined tiles: tile → (attempts, last reason).
    quarantined: BTreeMap<usize, (u64, String)>,
    /// Tiles whose committed result came from the cache.
    cached: BTreeSet<usize>,
    /// Monotonic per-tile outcome log, recorded only for
    /// shard-dispatched jobs (`Some` from `shard_dispatch` on): the
    /// stream a coordinator pulls to replay this job's commits.
    outcomes: Option<Vec<TileOutcome>>,
    /// The current shard-dispatch epoch on a coordinating service;
    /// replaced wholesale by each dispatch, so stale pullers detect
    /// supersession by pointer identity.
    shard_run: Option<Arc<crate::shard::ShardRun>>,
}

impl JobMut {
    fn fresh(spec: JobSpec, gds: Vec<u8>, ctx: Option<Arc<JobContext>>, state: JobState) -> JobMut {
        JobMut {
            spec,
            gds,
            tiles_total: ctx.as_ref().map_or(0, |c| c.tile_count()),
            ctx,
            partials: BTreeMap::new(),
            tiles_done: 0,
            state,
            cancel: CancelToken::new(),
            events: Vec::new(),
            error: None,
            report: None,
            score: None,
            attempts: BTreeMap::new(),
            retry_log: BTreeMap::new(),
            pending_commit: BTreeMap::new(),
            commit_queue: VecDeque::new(),
            quarantined: BTreeMap::new(),
            cached: BTreeSet::new(),
            outcomes: None,
            shard_run: None,
        }
    }

    fn emit(&mut self, kind: JobEventKind) {
        let seq = self.events.len() as u64;
        self.events.push(JobEvent { seq, kind });
    }

    fn set_state(&mut self, state: JobState) {
        self.state = state;
        self.emit(JobEventKind::State(state));
    }

    /// Drops the context, the GDS and the partials of a job that
    /// settled Done or Failed: its report, score, events and counters
    /// are all its readers need from here on. Late writers never touch
    /// the released state, because they return on `state != Running`.
    fn release_settled(&mut self) {
        self.ctx = None;
        self.gds = Vec::new();
        self.partials = BTreeMap::new();
    }
}

/// Commits resolved tiles strictly along the commit queue: the head
/// tile's buffered retries, then its terminal event. Every event a
/// fixed fault plan produces is therefore emitted in tile order — the
/// same order at any worker count.
fn advance_commits(m: &mut JobMut, total: usize) {
    while let Some(&tile) = m.commit_queue.front() {
        let Some(res) = m.pending_commit.remove(&tile) else { break };
        m.commit_queue.pop_front();
        let retries = m.retry_log.remove(&tile).unwrap_or_default();
        for r in &retries {
            m.emit(JobEventKind::TileRetry {
                tile,
                attempt: r.attempt,
                backoff_vms: r.backoff_vms,
                reason: r.reason.clone(),
            });
        }
        // Shard-dispatched jobs append every commit — retries and all —
        // to the outcome log a coordinator replays byte-identically.
        let outcome_retries: Vec<crate::shard::TileRetry> = retries
            .into_iter()
            .map(|r| crate::shard::TileRetry {
                attempt: r.attempt,
                backoff_vms: r.backoff_vms,
                reason: r.reason,
            })
            .collect();
        match res {
            TileResolution::Done { partial, ckpt_degraded, cache } => {
                if ckpt_degraded {
                    m.emit(JobEventKind::CkptDegraded { tile });
                }
                match cache {
                    CacheOutcome::Hit => {
                        m.cached.insert(tile);
                        m.emit(JobEventKind::TileCacheHit { tile });
                    }
                    CacheOutcome::Stored => m.emit(JobEventKind::TileCacheStore { tile }),
                    CacheOutcome::None => {}
                }
                if let Some(outcomes) = &mut m.outcomes {
                    outcomes.push(TileOutcome {
                        tile,
                        retries: outcome_retries,
                        kind: TileOutcomeKind::Done {
                            data: encode_tile_partial(&partial),
                            ckpt_degraded,
                            cache: match cache {
                                CacheOutcome::Hit => TileCacheMark::Hit,
                                CacheOutcome::Stored => TileCacheMark::Stored,
                                CacheOutcome::None => TileCacheMark::None,
                            },
                        },
                    });
                }
                m.partials.insert(tile, partial);
                m.tiles_done = m.partials.len();
                let completed = m.tiles_done;
                m.emit(JobEventKind::TileDone { tile, completed, total });
            }
            TileResolution::Quarantined { attempts, reason } => {
                if let Some(outcomes) = &mut m.outcomes {
                    outcomes.push(TileOutcome {
                        tile,
                        retries: outcome_retries,
                        kind: TileOutcomeKind::Quarantined { attempts, reason: reason.clone() },
                    });
                }
                m.quarantined.insert(tile, (attempts, reason.clone()));
                m.emit(JobEventKind::TileQuarantined { tile, attempts, reason });
            }
        }
    }
}

pub(crate) struct Job {
    pub(crate) id: u64,
    dir: Option<JobDir>,
    m: Mutex<JobMut>,
    cv: Condvar,
}

impl Job {
    fn status(&self) -> JobStatus {
        let m = self.m.lock().expect("job lock");
        status_of(self, &m)
    }
}

/// Everything a grant needs to become a pool task: cloned into the
/// scheduler per job at enqueue time.
#[derive(Clone)]
struct TileHandle {
    job: Arc<Job>,
    ctx: Arc<JobContext>,
    token: CancelToken,
}

/// The state tile tasks share: a weak pool handle for resubmission
/// (weak, so queued retry closures never keep the pool — and thus
/// themselves — alive), the fault plane, the policy, and the
/// fair-share scheduler (its lock is always taken *after* any job
/// lock is released, never while one is held).
pub(crate) struct RunShared {
    pool: Weak<WorkerPool>,
    pub(crate) plane: Option<Arc<FaultPlane>>,
    pub(crate) policy: SupervisionPolicy,
    tile_delay: Duration,
    cache: Option<Arc<TileCache>>,
    sched: Mutex<Scheduler<TileHandle>>,
}

/// Why [`SignoffService::submit_job`] refused a submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The spec or GDS bytes failed validation.
    Invalid(String),
    /// Admission control refused the job (quota, backpressure, or
    /// unknown tenant); nothing was enqueued. Retry after the hint.
    Rejected(Rejection),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Invalid(msg) => write!(f, "{msg}"),
            SubmitError::Rejected(r) => write!(f, "{r}"),
        }
    }
}

/// The signoff job service. See the module docs.
pub struct SignoffService {
    pool: Arc<WorkerPool>,
    shared: Arc<RunShared>,
    jobs: Mutex<BTreeMap<u64, Arc<Job>>>,
    ckpt_root: Option<PathBuf>,
    /// Next job id — atomic so two racing submissions can never mint
    /// the same id.
    next_id: AtomicU64,
    /// Shard role: this service's `(k, n)` partition assignment.
    shard_of: Option<(u64, u64)>,
    /// Coordinator role: the shard roster jobs fan out to (`None`
    /// runs jobs locally, the single-process behaviour).
    shards: Option<Arc<ShardSet>>,
    /// Shard-side idempotency map: `(coord, origin, gen)` → the grant
    /// already minted for that dispatch, so a reconnecting or restarted
    /// coordinator re-attaches instead of recomputing. The coordinator
    /// identity in the key keeps two coordinator instances that mint
    /// the same job id from ever colliding on this shard.
    origin_map: Mutex<BTreeMap<(u64, u64, u64), ShardGrant>>,
    /// Set by [`SignoffService::begin_drain`]: the service stops
    /// admitting new submissions and dispatches, parks in-flight jobs,
    /// and advertises the flag on shard pulls so coordinators hand off
    /// instead of adjudicating a loss.
    draining: AtomicBool,
    /// Client idempotency keys (`submit --idem KEY`) → the job id the
    /// key first minted. A resubmission after an ambiguous connection
    /// drop answers with the existing id instead of double-running.
    idem_map: Mutex<BTreeMap<String, u64>>,
}

impl SignoffService {
    /// Creates a service from a [`ServiceConfig`] — the only
    /// constructor. Build the config with [`ServiceConfig::builder`].
    /// When its checkpoint root already holds job directories from an
    /// earlier process, they are loaded back in state
    /// [`JobState::Partial`] with their surviving tile set, ready for
    /// [`SignoffService::resume`].
    pub fn with_config(cfg: ServiceConfig) -> SignoffService {
        let pool = Arc::new(WorkerPool::with_fault_plane(cfg.threads, cfg.fault_plane.clone()));
        let sched_cfg = cfg.sched.unwrap_or_else(SchedConfig::open);
        // The coordinator identity on shard frames. A checkpointed
        // coordinator derives it from the checkpoint root, so a restart
        // over the same root re-attaches to its shard jobs; an
        // in-memory coordinator (which cannot restart) gets a
        // per-instance id, so its jobs can never collide with another
        // coordinator's on a shared shard.
        // Masked to 53 bits: coordinator ids ride JSON numbers, which
        // are f64 on the wire and must round-trip exactly.
        let coord_id = match &cfg.ckpt_root {
            Some(root) => crate::codec::signoff_digest_64(root.to_string_lossy().as_bytes()),
            None => {
                let nanos = std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map_or(0, |d| d.as_nanos() as u64);
                let mut seed = Vec::with_capacity(16);
                seed.extend_from_slice(&u64::from(std::process::id()).to_le_bytes());
                seed.extend_from_slice(&nanos.to_le_bytes());
                crate::codec::signoff_digest_64(&seed)
            }
        } & ((1u64 << 53) - 1);
        let shared = Arc::new(RunShared {
            pool: Arc::downgrade(&pool),
            plane: cfg.fault_plane,
            policy: cfg.policy,
            tile_delay: cfg.tile_delay,
            cache: cfg.cache,
            sched: Mutex::new(Scheduler::new(sched_cfg)),
        });
        let service = SignoffService {
            pool,
            shared,
            jobs: Mutex::new(BTreeMap::new()),
            ckpt_root: cfg.ckpt_root,
            next_id: AtomicU64::new(1),
            shard_of: cfg.shard_of,
            shards: if cfg.shards.is_empty() {
                None
            } else {
                Some(Arc::new(ShardSet::new(cfg.shards, coord_id)))
            },
            origin_map: Mutex::new(BTreeMap::new()),
            draining: AtomicBool::new(false),
            idem_map: Mutex::new(BTreeMap::new()),
        };
        service.load_persisted_jobs();
        let last = service.jobs.lock().expect("jobs lock").keys().next_back().copied();
        service.next_id.store(last.map_or(1, |id| id + 1), Ordering::SeqCst);
        service
    }

    /// The fault plane this service consults, if any.
    pub fn fault_plane(&self) -> Option<&Arc<FaultPlane>> {
        self.shared.plane.as_ref()
    }

    /// The result cache this service consults, if any.
    pub fn cache(&self) -> Option<&Arc<TileCache>> {
        self.shared.cache.as_ref()
    }

    fn load_persisted_jobs(&self) {
        let Some(root) = &self.ckpt_root else { return };
        let mut jobs = self.jobs.lock().expect("jobs lock");
        for id in list_job_dirs(root) {
            let dir = JobDir::new(root, id);
            let Ok((spec_json, gds)) = dir.load_submission() else { continue };
            let Ok(spec) = JobSpec::from_json_text(&spec_json) else { continue };
            // The tile set is loaded lazily at resume/results time
            // (it needs the context for the tile count); record the
            // job as Partial so it is visible and resumable.
            let mut m = JobMut::fresh(spec, gds, None, JobState::Partial);
            m.emit(JobEventKind::State(JobState::Partial));
            jobs.insert(id, Arc::new(Job { id, dir: Some(dir), m: Mutex::new(m), cv: Condvar::new() }));
        }
    }

    /// Worker-pool load counters (queue depth, in-flight, peaks).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Submits a job: validates the spec, parses the GDS (malformed
    /// bytes are rejected here with a diagnostic), persists the
    /// submission when checkpointing is on, and dispatches every tile.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] rendered to its message — use
    /// [`SignoffService::submit_job`] when the structured rejection
    /// (code + retry-after hint) matters. Nothing is enqueued on error.
    pub fn submit(&self, spec: JobSpec, gds: Vec<u8>) -> Result<u64, String> {
        self.submit_job(spec, gds).map_err(|e| e.to_string())
    }

    /// Like [`SignoffService::submit`], but admission-control refusals
    /// come back as a structured [`Rejection`] instead of a string.
    ///
    /// The job is admitted against the tenant plan **before** anything
    /// is persisted or enqueued: the tenant must be known (or covered
    /// by a wildcard policy), its `max_jobs`/`max_tiles` quotas must
    /// have room for this job's tile count, and the global
    /// `max_pending_tiles` ceiling must hold. Admitted cache-miss
    /// tiles then flow through the fair-share grant loop rather than
    /// straight into the pool.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Invalid`] for spec/GDS diagnostics,
    /// [`SubmitError::Rejected`] from admission control. Nothing is
    /// enqueued on error.
    pub fn submit_job(&self, spec: JobSpec, gds: Vec<u8>) -> Result<u64, SubmitError> {
        if self.draining() {
            return Err(SubmitError::Rejected(drain_rejection()));
        }
        let ctx =
            Arc::new(JobContext::build(&spec, &gds).map_err(SubmitError::Invalid)?);
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        self.shared
            .sched
            .lock()
            .expect("sched lock")
            .admit(id, &spec.tenant, spec.priority, ctx.tile_count() as u64)
            .map_err(SubmitError::Rejected)?;
        let dir = match &self.ckpt_root {
            None => None,
            Some(root) => {
                let dir = JobDir::new(root, id);
                if let Err(e) = dir.persist_submission_probed(
                    &spec.to_json().render(),
                    &gds,
                    self.shared.plane.as_deref(),
                    id,
                ) {
                    // Release the admission reservation: the job never
                    // existed as far as quotas are concerned.
                    let grants =
                        self.shared.sched.lock().expect("sched lock").remove_job(id);
                    dispatch_grants(&self.shared, grants);
                    return Err(SubmitError::Invalid(e));
                }
                Some(dir)
            }
        };
        let mut m = JobMut::fresh(spec, gds, Some(Arc::clone(&ctx)), JobState::Queued);
        m.emit(JobEventKind::State(JobState::Queued));
        let job = Arc::new(Job { id, dir, m: Mutex::new(m), cv: Condvar::new() });
        self.jobs.lock().expect("jobs lock").insert(id, Arc::clone(&job));
        self.dispatch(&job, &ctx, (0..ctx.tile_count()).collect());
        Ok(id)
    }

    /// Like [`SignoffService::submit_job`], with an optional client
    /// idempotency key. The first submission under a key mints a job
    /// and records the mapping; every later submission under the same
    /// key answers with the recorded id without touching admission
    /// control — the dedupe a client needs after an ambiguous
    /// connection drop ("did my submit land?"). The map is held locked
    /// across the underlying submit so two racing resubmissions of the
    /// same key mint exactly one job. A submission that fails is not
    /// recorded; the key stays free for the retry.
    ///
    /// # Errors
    ///
    /// As [`SignoffService::submit_job`].
    pub fn submit_job_idem(
        &self,
        spec: JobSpec,
        gds: Vec<u8>,
        idem: Option<&str>,
    ) -> Result<u64, SubmitError> {
        let Some(key) = idem else { return self.submit_job(spec, gds) };
        let mut map = self.idem_map.lock().expect("idem lock");
        if let Some(&id) = map.get(key) {
            return Ok(id);
        }
        let id = self.submit_job(spec, gds)?;
        map.insert(key.to_string(), id);
        Ok(id)
    }

    /// Whether [`SignoffService::begin_drain`] has run.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Graceful drain (`shutdown --drain`): stop admitting new work,
    /// then park every unsettled job — in-flight tiles finish and
    /// checkpoint (the cancel token skips only tiles still queued),
    /// the job settles `Cancelled`, and the pool runs idle. Every
    /// computed tile is durable, so a restart over the same checkpoint
    /// root resumes to a byte-identical report. Shard pulls observe
    /// the flag ([`SignoffService::shard_outcomes`]) so a coordinator
    /// treats this shard as a planned handoff rather than a loss.
    /// Returns the number of jobs parked.
    pub fn begin_drain(&self) -> usize {
        self.draining.store(true, Ordering::SeqCst);
        let jobs: Vec<Arc<Job>> =
            self.jobs.lock().expect("jobs lock").values().cloned().collect();
        let mut parked = 0;
        for job in jobs {
            {
                let mut m = job.m.lock().expect("job lock");
                if m.state.is_settled() {
                    continue;
                }
                m.cancel.cancel();
                m.set_state(JobState::Cancelled);
            }
            sched_remove_job(&self.shared, job.id);
            job.cv.notify_all();
            parked += 1;
        }
        // Wait for in-flight tiles to finish computing and checkpoint;
        // after this the durable state is complete and the process can
        // exit.
        self.pool.wait_idle();
        parked
    }

    /// Dispatches the given tiles, moving the job to Running (or
    /// straight to the merge when nothing is missing). Dispatched
    /// tiles get a fresh attempt budget; any quarantine verdict on
    /// them is cleared.
    fn dispatch(&self, job: &Arc<Job>, ctx: &Arc<JobContext>, mut tiles: Vec<usize>) {
        tiles.sort_unstable();
        let token = {
            let mut m = job.m.lock().expect("job lock");
            m.report = None;
            m.score = None;
            m.error = None;
            m.attempts.clear();
            m.retry_log.clear();
            m.pending_commit.clear();
            for &t in &tiles {
                m.attempts.insert(t, 0);
            }
            m.quarantined.retain(|t, _| tiles.binary_search(t).is_err());
            m.cached.retain(|t| tiles.binary_search(t).is_err());
            m.commit_queue = tiles.iter().copied().collect();
            m.set_state(JobState::Running);
            job.cv.notify_all();
            m.cancel.clone()
        };
        // A coordinating service never computes locally: the tiles fan
        // out across the shard roster, and puller threads feed the same
        // commit machinery shard outcomes instead of pool results. The
        // coordinator's own cache is bypassed — cache events replay
        // from the shards' outcome marks, so cold/warm event streams
        // match a single process at the shards' cache temperature.
        if let Some(set) = &self.shards {
            if tiles.is_empty() {
                try_finalize(&self.shared, job, ctx);
                return;
            }
            shard::dispatch_to_shards(&self.shared, set, job, ctx, &tiles);
            return;
        }
        // Consult the result cache before the pool sees anything: a hit
        // commits straight from the store (in ascending order, so the
        // commit queue drains as we go) and only the misses reach the
        // scheduler. A fully warm job computes zero tiles and leaves no
        // trace in the grant log.
        let misses: Vec<usize> = tiles
            .iter()
            .copied()
            .filter(|&tile| !cache_serve(&self.shared, job, ctx, tile))
            .collect();
        if misses.is_empty() {
            // Nothing dispatched (all hits already finalized via their
            // commits, or `tiles` was empty) — run the merge directly;
            // try_finalize is a no-op when a hit already settled it.
            try_finalize(&self.shared, job, ctx);
            return;
        }
        // Queue the misses under the job's fair-share lanes. Whatever
        // fits the in-flight window is granted now; the rest is granted
        // as earlier tiles resolve. The job lock is NOT held here.
        let handle = TileHandle {
            job: Arc::clone(job),
            ctx: Arc::clone(ctx),
            token,
        };
        let grants = self
            .shared
            .sched
            .lock()
            .expect("sched lock")
            .enqueue(job.id, handle, misses);
        dispatch_grants(&self.shared, grants);
    }

    fn job(&self, id: u64) -> Result<Arc<Job>, String> {
        self.jobs
            .lock()
            .expect("jobs lock")
            .get(&id)
            .cloned()
            .ok_or_else(|| format!("no such job: {id}"))
    }

    /// A job's current status.
    ///
    /// # Errors
    ///
    /// Unknown job id.
    pub fn status(&self, id: u64) -> Result<JobStatus, String> {
        Ok(self.job(id)?.status())
    }

    /// The scheduler's grant log so far: one entry per tile granted to
    /// the pool, in issue order. With a fixed submission order the log
    /// is byte-identical (via [`crate::sched::render_grant_log`])
    /// across worker counts — the observable artifact of the
    /// determinism guarantee. Cache hits never appear here.
    pub fn grant_log(&self) -> Vec<Grant> {
        self.shared.sched.lock().expect("sched lock").grant_log().to_vec()
    }

    /// Statuses of every job, by id.
    pub fn list(&self) -> Vec<JobStatus> {
        let jobs: Vec<Arc<Job>> =
            self.jobs.lock().expect("jobs lock").values().cloned().collect();
        jobs.iter().map(|j| j.status()).collect()
    }

    /// The job's events with `seq >= since` — the incremental
    /// delta-stream a client polls.
    ///
    /// # Errors
    ///
    /// Unknown job id.
    pub fn events(&self, id: u64, since: u64) -> Result<Vec<JobEvent>, String> {
        let job = self.job(id)?;
        let m = job.m.lock().expect("job lock");
        let start = (since as usize).min(m.events.len());
        Ok(m.events[start..].to_vec())
    }

    /// The job's merged report.
    ///
    /// For a Done job this is the cached final report; for a settled
    /// Partial job it is the merge of the surviving tiles plus the
    /// quarantine manifest. With `partial = true` a non-settled job
    /// answers with the ordered merge of its **contiguous completed
    /// prefix** `[0..k)` — an exact signoff of the region covered so
    /// far.
    ///
    /// # Errors
    ///
    /// Unknown id, failed job, or (without `partial`) a job that has
    /// not finished.
    pub fn results(&self, id: u64, partial: bool) -> Result<(JobStatus, SignoffReport), String> {
        let job = self.job(id)?;
        self.ensure_loaded(&job)?;
        let m = job.m.lock().expect("job lock");
        if let Some(report) = &m.report {
            let status = status_of(&job, &m);
            return Ok((status, report.clone()));
        }
        if let Some(err) = &m.error {
            return Err(format!("job {id} failed: {err}"));
        }
        if !partial {
            return Err(format!("job {id} is {}; pass partial=true for a prefix merge", m.state));
        }
        let ctx = m.ctx.clone().ok_or("job context missing")?;
        let prefix: Vec<TilePartial> = m
            .partials
            .values()
            .enumerate()
            .take_while(|(i, p)| p.tile == *i)
            .map(|(_, p)| p.clone())
            .collect();
        let report = ctx.merge(&prefix)?;
        let status = status_of(&job, &m);
        drop(m);
        Ok((status, report))
    }

    /// Like [`SignoffService::results`], but rendered to the canonical
    /// report text with the job's own spec — the form that travels
    /// over the wire and is byte-compared in tests.
    ///
    /// # Errors
    ///
    /// Same as [`SignoffService::results`].
    pub fn report_text(&self, id: u64, partial: bool) -> Result<(JobStatus, String), String> {
        let (status, report) = self.results(id, partial)?;
        let job = self.job(id)?;
        let spec = job.m.lock().expect("job lock").spec.clone();
        Ok((status, report.render_text(&spec)))
    }

    /// The job's manufacturability score as its deterministic JSON
    /// line, with the status alongside (for tile/cache counters and
    /// the partial verdict).
    ///
    /// # Errors
    ///
    /// Unknown id, a job that has not settled with a report yet, or a
    /// job whose spec does not enable scoring.
    pub fn score_json(&self, id: u64) -> Result<(JobStatus, String), String> {
        let job = self.job(id)?;
        let m = job.m.lock().expect("job lock");
        if let Some(score) = &m.score {
            return Ok((status_of(&job, &m), score.render()));
        }
        if let Some(err) = &m.error {
            return Err(format!("job {id} failed: {err}"));
        }
        if m.report.is_some() || m.state.is_terminal() {
            return Err(format!("job {id} was submitted without scoring (no `score` in spec)"));
        }
        Err(format!("job {id} is {}; the score is computed when the job settles", m.state))
    }

    /// Cancels a running/queued job. Completed tiles are kept (and
    /// remain checkpointed) so the job can be resumed.
    ///
    /// # Errors
    ///
    /// Unknown id or a Done/Failed job.
    pub fn cancel(&self, id: u64) -> Result<JobStatus, String> {
        let job = self.job(id)?;
        {
            let mut m = job.m.lock().expect("job lock");
            match m.state {
                JobState::Done | JobState::Failed => {
                    return Err(format!("job {id} is already {}", m.state))
                }
                JobState::Cancelled => {}
                _ => {
                    m.cancel.cancel();
                    m.set_state(JobState::Cancelled);
                }
            }
        }
        // Release every scheduler reservation the job still held —
        // queued tiles, in-flight slots, and its active-job count —
        // after the job lock is dropped (lock order: job before sched),
        // and only then wake waiters, so an observed Cancelled state
        // implies the quota is already free.
        sched_remove_job(&self.shared, id);
        job.cv.notify_all();
        Ok(job.status())
    }

    /// Resumes a Partial or Cancelled job: re-reads any checkpointed
    /// tiles, mints a fresh cancel token, and dispatches exactly the
    /// missing tiles — including quarantined ones, which get a fresh
    /// attempt budget. The eventual report is bit-identical to an
    /// uninterrupted run (given the tiles now succeed).
    ///
    /// # Errors
    ///
    /// Unknown id, a job in a non-resumable state, or context-rebuild
    /// diagnostics.
    pub fn resume(&self, id: u64) -> Result<JobStatus, String> {
        if self.draining() {
            return Err(drain_rejection().to_string());
        }
        let job = self.job(id)?;
        self.ensure_loaded(&job)?;
        let (ctx, missing, tenant, priority) = {
            let mut m = job.m.lock().expect("job lock");
            match m.state {
                JobState::Partial | JobState::Cancelled => {}
                s => return Err(format!("job {id} is {s}; only partial/cancelled jobs resume")),
            }
            m.cancel = CancelToken::new();
            let ctx = m.ctx.clone().ok_or("job context missing")?;
            let missing: Vec<usize> =
                (0..ctx.tile_count()).filter(|t| !m.partials.contains_key(t)).collect();
            (ctx, missing, m.spec.tenant.clone(), m.spec.priority)
        };
        // A resumed job re-enters admission control: the settle (or
        // cancel) released its reservations, so it competes for quota
        // again — with only the missing tiles counted against it.
        self.shared
            .sched
            .lock()
            .expect("sched lock")
            .admit(id, &tenant, priority, missing.len() as u64)
            .map_err(|e| e.to_string())?;
        self.dispatch(&job, &ctx, missing);
        Ok(job.status())
    }

    /// Blocks until the job settles (Done, Partial-settled, Failed, or
    /// Cancelled), then returns its status.
    ///
    /// # Errors
    ///
    /// Unknown job id.
    pub fn wait(&self, id: u64) -> Result<JobStatus, String> {
        let job = self.job(id)?;
        let mut m = job.m.lock().expect("job lock");
        while !m.state.is_settled() {
            m = job.cv.wait(m).expect("job wait");
        }
        Ok(status_of(&job, &m))
    }

    /// Rebuilds the job context and reloads checkpointed tiles for a
    /// job that was constructed from disk (ctx == None). A tile whose
    /// checkpoint read faults (injected) is skipped — it is simply
    /// recomputed on resume. A Done or Failed job released its context
    /// on purpose and is left as it is: `results` answers from its held
    /// report, and `resume` refuses it.
    fn ensure_loaded(&self, job: &Arc<Job>) -> Result<(), String> {
        let mut m = job.m.lock().expect("job lock");
        if m.ctx.is_some() || matches!(m.state, JobState::Done | JobState::Failed) {
            return Ok(());
        }
        let ctx = Arc::new(JobContext::build(&m.spec, &m.gds)?);
        if let Some(dir) = &job.dir {
            // A crash between tmp-write and rename leaves orphaned
            // `*.tmp` files; sweep them before reading so a
            // crash-littered directory resumes identically to a clean
            // one.
            dir.sweep_tmp();
            for p in dir.load_tiles(ctx.tile_count()) {
                if let Some(plane) = &self.shared.plane {
                    if plane.maybe_error(SITE_CKPT_READ, p.tile as u64, 0).is_err() {
                        continue;
                    }
                }
                m.partials.insert(p.tile, p);
            }
        }
        m.tiles_total = ctx.tile_count();
        m.tiles_done = m.partials.len();
        m.ctx = Some(ctx);
        Ok(())
    }

    /// Shard-side entry point for a coordinator's `shard.dispatch`
    /// frame: runs tile range(s) of the job as a local shard job whose
    /// per-tile outcomes are recorded for [`SignoffService::shard_outcomes`]
    /// to stream back.
    ///
    /// `(coord, origin, gen)` — the coordinator's identity, its job
    /// id, and the dispatch generation — is the idempotency key: a
    /// re-dispatch of a known key (coordinator restart, reconnect)
    /// answers with the existing grant (`attached = true`) instead of
    /// recomputing. With `ranges = None` the service must have been
    /// configured as shard `k` of `n` ([`ServiceConfig::shard_of`])
    /// and runs its deterministic partition; a coordinator always
    /// names ranges explicitly.
    ///
    /// Admission runs against this service's scheduler with the
    /// *dispatched* tile count. Shards are expected to run the open
    /// scheduler and trust the coordinator's grants — admission control
    /// for the whole job already happened at the coordinator.
    ///
    /// # Errors
    ///
    /// Spec/GDS diagnostics, malformed ranges, a missing `shard_of`
    /// assignment when `ranges` is `None`, or local admission refusal.
    pub fn shard_dispatch(
        &self,
        coord: u64,
        origin: u64,
        gen: u64,
        spec: JobSpec,
        gds: Vec<u8>,
        ranges: Option<Vec<(usize, usize)>>,
    ) -> Result<ShardGrant, String> {
        if self.draining() {
            return Err(drain_rejection().to_string());
        }
        let ctx = Arc::new(JobContext::build(&spec, &gds)?);
        let total = ctx.tile_count();
        let ranges = match ranges {
            Some(r) => r,
            None => {
                let (k, n) = self.shard_of.ok_or(
                    "shard.dispatch without ranges requires a server started with --shard-of K/N",
                )?;
                vec![shard::partition_range(total, n, k)]
            }
        };
        let tiles = shard::expand_ranges(&ranges, total)?;
        // The idempotency map stays locked across job creation so two
        // racing dispatches of the same (coord, origin, gen) mint one
        // job.
        let mut map = self.origin_map.lock().expect("origin map lock");
        if let Some(grant) = map.get(&(coord, origin, gen)) {
            let mut g = grant.clone();
            g.attached = true;
            return Ok(g);
        }
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        self.shared
            .sched
            .lock()
            .expect("sched lock")
            .admit(id, &spec.tenant, spec.priority, tiles.len() as u64)
            .map_err(|e| e.to_string())?;
        let dir = match &self.ckpt_root {
            None => None,
            Some(root) => {
                let dir = JobDir::new(root, id);
                if let Err(e) = dir.persist_submission_probed(
                    &spec.to_json().render(),
                    &gds,
                    self.shared.plane.as_deref(),
                    id,
                ) {
                    let grants =
                        self.shared.sched.lock().expect("sched lock").remove_job(id);
                    dispatch_grants(&self.shared, grants);
                    return Err(e);
                }
                Some(dir)
            }
        };
        let mut m = JobMut::fresh(spec, gds, Some(Arc::clone(&ctx)), JobState::Queued);
        m.outcomes = Some(Vec::new());
        m.emit(JobEventKind::State(JobState::Queued));
        let job = Arc::new(Job { id, dir, m: Mutex::new(m), cv: Condvar::new() });
        self.jobs.lock().expect("jobs lock").insert(id, Arc::clone(&job));
        let grant = ShardGrant { job: id, total, ranges, attached: false };
        map.insert((coord, origin, gen), grant.clone());
        drop(map);
        self.dispatch(&job, &ctx, tiles);
        Ok(grant)
    }

    /// Shard-side entry point for `shard.attach`: answers the grant a
    /// prior [`SignoffService::shard_dispatch`] minted for `(coord,
    /// origin, gen)` — how a restarted (or reconnecting) coordinator
    /// finds its shard jobs and replays their outcome logs without
    /// recomputing.
    ///
    /// # Errors
    ///
    /// An unknown `(coord, origin, gen)` (mapped to `not_found` on the
    /// wire).
    pub fn shard_attach(&self, coord: u64, origin: u64, gen: u64) -> Result<ShardGrant, String> {
        let map = self.origin_map.lock().expect("origin map lock");
        match map.get(&(coord, origin, gen)) {
            Some(grant) => {
                let mut g = grant.clone();
                g.attached = true;
                Ok(g)
            }
            None => Err(format!(
                "no such job: coordinator {coord:#x} origin {origin} gen {gen} is not dispatched here"
            )),
        }
    }

    /// The monotonic outcome log of a shard job from entry `since` on,
    /// with the next cursor, whether the job has settled, and whether
    /// this service is draining — the stream a coordinator polls
    /// (`shard.pull`). A settled shard job with no further outcomes is
    /// the puller's signal that nothing more will ever arrive; a raised
    /// drain flag tells the coordinator the settle was a planned
    /// handoff, not a failure.
    ///
    /// # Errors
    ///
    /// Unknown id, or a job that was not dispatched via
    /// [`SignoffService::shard_dispatch`].
    pub fn shard_outcomes(
        &self,
        id: u64,
        since: u64,
    ) -> Result<(Vec<TileOutcome>, u64, bool, bool), String> {
        let job = self.job(id)?;
        let m = job.m.lock().expect("job lock");
        let Some(outcomes) = &m.outcomes else {
            return Err(format!("job {id} is not a shard-dispatched job"));
        };
        let start = (since as usize).min(outcomes.len());
        Ok((
            outcomes[start..].to_vec(),
            outcomes.len() as u64,
            m.state.is_settled(),
            self.draining(),
        ))
    }

    /// Shard-side entry point for `shard.heartbeat`: a cheap liveness
    /// probe the coordinator sends on idle polls. Answers whether the
    /// shard job has settled and whether this service is draining —
    /// and, by answering at all, renews the coordinator's lease on
    /// this shard (a heartbeat ack resets the idle clock that would
    /// otherwise expire the shard).
    ///
    /// # Errors
    ///
    /// Unknown id, or a job that was not dispatched via
    /// [`SignoffService::shard_dispatch`].
    pub fn shard_heartbeat(&self, id: u64) -> Result<(bool, bool), String> {
        let job = self.job(id)?;
        let m = job.m.lock().expect("job lock");
        if m.outcomes.is_none() {
            return Err(format!("job {id} is not a shard-dispatched job"));
        }
        Ok((m.state.is_settled(), self.draining()))
    }

    /// Coordinator counters (`None` on a non-coordinating service):
    /// shard-roster size, tiles re-dispatched after shard losses, and
    /// tiles handed off from draining shards.
    pub fn shard_stats(&self) -> Option<ShardStats> {
        self.shards.as_ref().map(|s| ShardStats {
            shards: s.addrs.len(),
            tiles_redispatched: s.redispatched.load(Ordering::SeqCst),
            tiles_drained: s.drained.load(Ordering::SeqCst),
        })
    }
}

impl Drop for SignoffService {
    fn drop(&mut self) {
        // Cancel every job so queued tasks are skipped at dequeue, then
        // wait the pool idle: no worker may still hold an upgraded Arc
        // to the pool (for a retry resubmission) when we drop ours —
        // the pool must be torn down from this thread, never from one
        // of its own workers.
        let jobs: Vec<Arc<Job>> =
            self.jobs.lock().expect("jobs lock").values().cloned().collect();
        for job in jobs {
            let m = job.m.lock().expect("job lock");
            m.cancel.cancel();
        }
        self.pool.wait_idle();
    }
}

/// The structured refusal a draining service answers submissions with.
fn drain_rejection() -> Rejection {
    Rejection {
        code: RejectCode::Draining,
        message: "service is draining; no new work is admitted".to_string(),
        retry_after_vms: None,
    }
}

fn status_of(job: &Job, m: &JobMut) -> JobStatus {
    JobStatus {
        id: job.id,
        name: m.spec.name.clone(),
        tenant: m.spec.tenant.clone(),
        priority: m.spec.priority,
        state: m.state,
        tiles_total: m.tiles_total,
        tiles_done: m.tiles_done,
        tiles_quarantined: m.quarantined.len(),
        tiles_cached: m.cached.len(),
        next_seq: m.events.len() as u64,
        score_bits: m.score.as_ref().map(|s| s.score.to_bits()),
        score_pass: m.score.as_ref().map(|s| s.pass),
        error: m.error.clone(),
    }
}

/// Hands a batch of scheduler grants to the pool, in grant order.
///
/// Each grant carries a sequence number; `submit_sequenced` uses it to
/// reorder racing callers so tasks enter the pool queue in exactly the
/// order the grant log records — the property the cross-thread-count
/// determinism guarantee rests on.
fn dispatch_grants(shared: &Arc<RunShared>, grants: Vec<GrantOut<TileHandle>>) {
    for g in grants {
        let h = g.handle;
        submit_tile(shared, &h.job, &h.ctx, &h.token, g.tile, 0, Some(g.seq));
    }
}

/// Reports one tile as resolved to the scheduler (releasing its
/// in-flight slot or queued reservation) and dispatches whatever the
/// freed window now grants. Must be called with no job lock held.
fn sched_resolved(shared: &Arc<RunShared>, job_id: u64, tile: usize) {
    let grants = shared.sched.lock().expect("sched lock").resolved(job_id, tile);
    dispatch_grants(shared, grants);
}

/// Drops every scheduler reservation a job still holds (on settle,
/// cancel, or failed persist) and dispatches the grants the freed
/// capacity allows. Must be called with no job lock held.
fn sched_remove_job(shared: &Arc<RunShared>, job_id: u64) {
    let grants = shared.sched.lock().expect("sched lock").remove_job(job_id);
    dispatch_grants(shared, grants);
}

/// Enqueues one attempt of one tile. The pool-level supervision hook
/// is the safety net: a panic that escapes the attempt body's own
/// containment (e.g. injected at the pool site) still reaches
/// [`attempt_failed`].
///
/// `seq` is `Some` for the first attempt of a scheduler-granted tile —
/// the grant sequence number, which pins the pool-queue entry order.
/// Retries pass `None`: their slot is already held, and they must not
/// wait behind grants that have not been issued yet.
fn submit_tile(
    shared: &Arc<RunShared>,
    job: &Arc<Job>,
    ctx: &Arc<JobContext>,
    token: &CancelToken,
    tile: usize,
    attempt: u64,
    seq: Option<u64>,
) {
    let Some(pool) = shared.pool.upgrade() else { return };
    let task = {
        let (shared, job, ctx) = (Arc::clone(shared), Arc::clone(job), Arc::clone(ctx));
        move || run_tile_attempt(&shared, &job, &ctx, tile, attempt)
    };
    let hook = {
        let (shared, job, ctx) = (Arc::clone(shared), Arc::clone(job), Arc::clone(ctx));
        move |outcome: TaskOutcome| {
            if let TaskOutcome::Panicked(msg) = outcome {
                attempt_failed(&shared, &job, &ctx, tile, attempt, format!("tile {tile} task panicked: {msg}"));
            }
        }
    };
    match seq {
        Some(seq) => pool.submit_sequenced(seq, token, task, hook),
        None => pool.submit_supervised(token, task, hook),
    }
}

/// The body of one tile attempt: guard, (virtual) delay/watchdog,
/// compute inside containment, checkpoint with retry, hand the outcome
/// to the supervisor.
fn run_tile_attempt(
    shared: &Arc<RunShared>,
    job: &Arc<Job>,
    ctx: &Arc<JobContext>,
    tile: usize,
    attempt: u64,
) {
    {
        let m = job.m.lock().expect("job lock");
        if m.cancel.is_cancelled() || m.state != JobState::Running {
            return;
        }
        if m.partials.contains_key(&tile) || m.pending_commit.contains_key(&tile) {
            return; // already resolved (e.g. overlapping resume)
        }
        if m.attempts.get(&tile).copied() != Some(attempt) {
            return; // stale attempt; a newer one owns this tile
        }
    }
    if !shared.tile_delay.is_zero() {
        std::thread::sleep(shared.tile_delay);
    }
    if let Some(plane) = &shared.plane {
        if let Some(vms) = plane.delay_vms(SITE_TILE_DELAY, tile as u64, attempt) {
            shared.policy.real_sleep(vms);
            if let Some(budget) = shared.policy.watchdog_vms {
                if vms >= budget {
                    let reason =
                        format!("watchdog: tile {tile} stuck {vms} vms (budget {budget} vms)");
                    attempt_failed(shared, job, ctx, tile, attempt, reason);
                    return;
                }
            }
        }
    }
    let plane = shared.plane.clone();
    let computed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Some(plane) = &plane {
            plane.maybe_panic(SITE_TILE_COMPUTE, tile as u64, attempt);
        }
        ctx.compute_tile(tile)
    }));
    let partial = match computed {
        Ok(p) => p,
        Err(panic) => {
            let msg = panic_message(panic.as_ref());
            attempt_failed(shared, job, ctx, tile, attempt, format!("tile {tile} panicked: {msg}"));
            return;
        }
    };
    // Checkpoint BEFORE recording completion: a crash after the write
    // re-loads the tile; a crash before it recomputes it. Either way
    // the partial's value is identical (purity), so resume converges.
    // A write that fails every retry degrades to in-memory-only — the
    // computed result is NEVER discarded over a checkpoint error.
    let ckpt_degraded = match &job.dir {
        None => false,
        Some(dir) => !write_checkpoint_with_retry(shared, dir, &partial, tile),
    };
    let cache = cache_store(shared, ctx, tile, attempt, &partial);
    attempt_succeeded(shared, job, ctx, tile, partial, ckpt_degraded, cache);
}

/// Probes the result cache for one freshly dispatched tile. On a valid
/// hit the partial is checkpointed (when persistence is on) and
/// committed exactly like a computed result; returns `true` and the
/// tile never reaches the pool. Anything else — cache off, injected
/// read fault, missing entry, or an entry that fails to decode — is a
/// miss: returns `false` and the caller submits the tile normally.
fn cache_serve(
    shared: &Arc<RunShared>,
    job: &Arc<Job>,
    ctx: &Arc<JobContext>,
    tile: usize,
) -> bool {
    let Some(cache) = &shared.cache else { return false };
    if let Some(plane) = &shared.plane {
        if plane.maybe_error(SITE_CACHE_READ, tile as u64, 0).is_err() {
            return false;
        }
    }
    let Some(bytes) = cache.lookup(ctx.cache_key(tile)) else { return false };
    let Some(partial) = decode_tile_partial(&bytes, tile) else { return false };
    let ckpt_degraded = match &job.dir {
        None => false,
        Some(dir) => !write_checkpoint_with_retry(shared, dir, &partial, tile),
    };
    attempt_succeeded(shared, job, ctx, tile, partial, ckpt_degraded, CacheOutcome::Hit);
    true
}

/// Stores a freshly computed partial into the result cache. Only a
/// clean **first** attempt qualifies — a result that needed retries is
/// never cached, so a faulting or quarantine-bound plan can never
/// poison the store. A store that fails (injected fault or I/O) is
/// silently skipped: the next identical submission just recomputes.
fn cache_store(
    shared: &Arc<RunShared>,
    ctx: &Arc<JobContext>,
    tile: usize,
    attempt: u64,
    partial: &TilePartial,
) -> CacheOutcome {
    let Some(cache) = &shared.cache else { return CacheOutcome::None };
    if attempt != 0 {
        return CacheOutcome::None;
    }
    if let Some(plane) = &shared.plane {
        if plane.maybe_error(SITE_CACHE_WRITE, tile as u64, 0).is_err() {
            return CacheOutcome::None;
        }
        // ENOSPC degradation: a full disk refuses the store outright —
        // no retries, no partial entry, job unharmed.
        if plane.maybe_nospace(SITE_CACHE_WRITE, tile as u64, 0) {
            return CacheOutcome::None;
        }
    }
    let crash = |stage| {
        let site = match stage {
            StoreStage::Tmp => SITE_CACHE_STORE_TMP,
            StoreStage::Rename => SITE_CACHE_STORE_RENAME,
        };
        shared.plane.as_ref().is_some_and(|plane| plane.crash_point(site, tile as u64, 0))
    };
    if cache.store_staged(ctx.cache_key(tile), &encode_tile_partial(partial), crash) {
        CacheOutcome::Stored
    } else {
        CacheOutcome::None
    }
}

/// Writes one tile checkpoint with bounded retries (each attempt is
/// already atomic: tmp + rename). Returns false when every attempt
/// failed.
fn write_checkpoint_with_retry(
    shared: &RunShared,
    dir: &JobDir,
    partial: &TilePartial,
    tile: usize,
) -> bool {
    if let Some(plane) = &shared.plane {
        // ENOSPC degradation: a full disk fails every retry the same
        // way, so degrade immediately (`CkptDegraded`) instead of
        // burning the write budget.
        if plane.maybe_nospace(SITE_CKPT_WRITE, tile as u64, 0) {
            return false;
        }
    }
    for write_attempt in 0..shared.policy.ckpt_write_attempts.max(1) {
        let injected = match &shared.plane {
            Some(plane) => plane.maybe_error(SITE_CKPT_WRITE, tile as u64, write_attempt),
            None => Ok(()),
        };
        if injected.is_ok()
            && dir
                .write_tile_probed(partial, shared.plane.as_deref(), write_attempt)
                .is_ok()
        {
            return true;
        }
    }
    false
}

/// Supervisor path for a failed attempt: retry with deterministic
/// virtual-clock backoff while budget remains, else quarantine the
/// tile and let the job settle without it.
fn attempt_failed(
    shared: &Arc<RunShared>,
    job: &Arc<Job>,
    ctx: &Arc<JobContext>,
    tile: usize,
    attempt: u64,
    reason: String,
) {
    let retry = {
        let mut m = job.m.lock().expect("job lock");
        if m.cancel.is_cancelled() || m.state != JobState::Running {
            return;
        }
        if m.partials.contains_key(&tile) || m.pending_commit.contains_key(&tile) {
            return;
        }
        if m.attempts.get(&tile).copied() != Some(attempt) {
            return; // stale: this attempt was already adjudicated
        }
        let failed = attempt + 1;
        m.attempts.insert(tile, failed);
        if failed >= shared.policy.max_attempts.max(1) {
            m.pending_commit.insert(tile, TileResolution::Quarantined { attempts: failed, reason });
            advance_commits(&mut m, ctx.tile_count());
            job.cv.notify_all();
            None
        } else {
            let backoff_vms = shared.policy.backoff_base_vms << attempt;
            m.retry_log
                .entry(tile)
                .or_default()
                .push(RetryRecord { attempt, backoff_vms, reason });
            Some((m.cancel.clone(), backoff_vms))
        }
    };
    match retry {
        Some((token, backoff_vms)) => {
            // The scheduler slot stays held across retries: the tile is
            // still occupying real capacity, and a retry must never
            // queue behind grants that were issued after it.
            shared.policy.real_sleep(backoff_vms);
            submit_tile(shared, job, ctx, &token, tile, attempt + 1, None);
        }
        None => {
            sched_resolved(shared, job.id, tile);
            try_finalize(shared, job, ctx);
        }
    }
}

/// Supervisor path for a successful attempt: buffer the result for
/// commit-ordered emission, release the tile's scheduler capacity,
/// then finalize if it was the last one.
fn attempt_succeeded(
    shared: &Arc<RunShared>,
    job: &Arc<Job>,
    ctx: &Arc<JobContext>,
    tile: usize,
    partial: TilePartial,
    ckpt_degraded: bool,
    cache: CacheOutcome,
) {
    {
        let mut m = job.m.lock().expect("job lock");
        if m.state != JobState::Running {
            // Cancelled (or failed) while we computed: keep the
            // checkpoint on disk but do not mutate a settled job. The
            // scheduler reservation was (or will be) torn down by the
            // remove_job on that settle path, not here.
            return;
        }
        if m.partials.contains_key(&tile) || m.pending_commit.contains_key(&tile) {
            return;
        }
        m.pending_commit.insert(tile, TileResolution::Done { partial, ckpt_degraded, cache });
        advance_commits(&mut m, ctx.tile_count());
        job.cv.notify_all();
    }
    // The guards above make this the tile's single resolution, so the
    // scheduler release runs exactly once per tile. For a cache hit the
    // tile never entered a lane; `resolved` then credits the job's
    // unassigned admission budget instead of an in-flight slot.
    sched_resolved(shared, job.id, tile);
    try_finalize(shared, job, ctx);
}

/// Runs the ordered merge once every dispatched tile has committed.
/// Clean run → Done; quarantined tiles → settled Partial with the
/// manifest in the report; only a merge error produces Failed. On any
/// settle the job's scheduler reservations are released.
fn try_finalize(shared: &Arc<RunShared>, job: &Arc<Job>, ctx: &Arc<JobContext>) {
    let surviving: Vec<TilePartial> = {
        let m = job.m.lock().expect("job lock");
        if m.state != JobState::Running || !m.commit_queue.is_empty() {
            return;
        }
        m.partials.values().cloned().collect()
    };
    let merged = ctx.merge(&surviving);
    let mut m = job.m.lock().expect("job lock");
    if m.state != JobState::Running || !m.commit_queue.is_empty() {
        return;
    }
    match merged {
        Ok(mut report) => {
            report.quarantined = m
                .quarantined
                .iter()
                .map(|(&tile, (attempts, reason))| QuarantinedTile {
                    tile,
                    attempts: *attempts,
                    reason: reason.clone(),
                })
                .collect();
            let clean = report.quarantined.is_empty();
            // Score before the final state event: a client that saw
            // `State(Done)` can rely on the score being present.
            if let Some(score) = ctx.score(&report) {
                m.emit(JobEventKind::Score {
                    bits: score.score.to_bits(),
                    pass: score.pass,
                });
                m.score = Some(score);
            }
            m.report = Some(report);
            m.set_state(if clean { JobState::Done } else { JobState::Partial });
        }
        Err(e) => {
            m.error = Some(format!("merge failed: {e}"));
            m.set_state(JobState::Failed);
        }
    }
    if m.state != JobState::Partial {
        m.release_settled();
    }
    drop(m);
    // The job settled on this call (the re-check above means exactly
    // one caller gets here): stop counting it against its tenant's
    // max_jobs and release any stragglers (lock order: job then sched).
    // Waiters are woken only AFTER the release, so a `wait()` that
    // observes the settled state can immediately resubmit against the
    // freed quota. (Late checkers see the state under the lock anyway,
    // so notifying outside it cannot lose a wakeup.)
    sched_remove_job(shared, job.id);
    job.cv.notify_all();
}

/// The spec + GDS bytes a puller re-dispatches to a shard.
pub(crate) fn shard_payload(job: &Arc<Job>) -> (JobSpec, Vec<u8>) {
    let m = job.m.lock().expect("job lock");
    (m.spec.clone(), m.gds.clone())
}

/// Installs the current shard-dispatch epoch on a coordinated job.
pub(crate) fn set_shard_run(job: &Arc<Job>, run: Arc<shard::ShardRun>) {
    job.m.lock().expect("job lock").shard_run = Some(run);
}

/// True while `run` is still the job's current epoch and the job is
/// still running — the staleness guard puller threads re-check every
/// cycle, so a cancel or resume retires them within one poll.
pub(crate) fn shard_run_live(job: &Arc<Job>, run: &Arc<shard::ShardRun>) -> bool {
    let m = job.m.lock().expect("job lock");
    m.state == JobState::Running && m.shard_run.as_ref().is_some_and(|r| Arc::ptr_eq(r, run))
}

/// Feeds one shard-reported tile outcome into the coordinator job's
/// commit machinery — the exact path local attempts use, so event
/// order, report bytes, and digests cannot tell the difference.
pub(crate) fn ingest_shard_outcome(
    shared: &Arc<RunShared>,
    job: &Arc<Job>,
    ctx: &Arc<JobContext>,
    outcome: &TileOutcome,
) {
    let tile = outcome.tile;
    // Decode and (best-effort) persist outside the job lock. The
    // `signoff.ckpt.write` error site does NOT fire here: the shard
    // already ran the tile's checkpoint faults (replayed via
    // `ckpt_degraded`), and a shared plan probed again at the
    // coordinator would fire twice and skew the bytes. The staged
    // crash sites inside `write_tile_probed` are coordinator-side
    // durable transitions, though — a crash there loses only this
    // best-effort persist, which resume recomputes.
    let resolution = match &outcome.kind {
        TileOutcomeKind::Done { data, ckpt_degraded, cache } => {
            match decode_tile_partial(data, tile) {
                Some(partial) => {
                    if let Some(dir) = &job.dir {
                        let _ = dir.write_tile_probed(&partial, shared.plane.as_deref(), 0);
                    }
                    TileResolution::Done {
                        partial,
                        ckpt_degraded: *ckpt_degraded,
                        cache: match cache {
                            TileCacheMark::Hit => CacheOutcome::Hit,
                            TileCacheMark::Stored => CacheOutcome::Stored,
                            TileCacheMark::None => CacheOutcome::None,
                        },
                    }
                }
                None => TileResolution::Quarantined {
                    attempts: 0,
                    reason: format!("tile {tile}: undecodable shard result"),
                },
            }
        }
        TileOutcomeKind::Quarantined { attempts, reason } => {
            TileResolution::Quarantined { attempts: *attempts, reason: reason.clone() }
        }
    };
    {
        let mut m = job.m.lock().expect("job lock");
        if m.state != JobState::Running {
            return;
        }
        if m.partials.contains_key(&tile)
            || m.pending_commit.contains_key(&tile)
            || m.quarantined.contains_key(&tile)
        {
            return; // already adjudicated (duplicate pull or overlap)
        }
        if !outcome.retries.is_empty() {
            m.retry_log.insert(
                tile,
                outcome
                    .retries
                    .iter()
                    .map(|r| RetryRecord {
                        attempt: r.attempt,
                        backoff_vms: r.backoff_vms,
                        reason: r.reason.clone(),
                    })
                    .collect(),
            );
        }
        m.pending_commit.insert(tile, resolution);
        advance_commits(&mut m, ctx.tile_count());
        job.cv.notify_all();
    }
    // A shard tile never entered a local lane; `resolved` credits the
    // job's unassigned admission budget, like the cache-hit path.
    sched_resolved(shared, job.id, tile);
    try_finalize(shared, job, ctx);
}

/// Quarantines a lost shard's unrecoverable tiles (`shard {k} lost:
/// …`) so the coordinated job settles as a deterministic `Partial`
/// with a per-shard manifest instead of hanging.
pub(crate) fn quarantine_lost_tiles(
    shared: &Arc<RunShared>,
    job: &Arc<Job>,
    ctx: &Arc<JobContext>,
    shard_idx: usize,
    err: &str,
    lost: &BTreeSet<usize>,
) {
    {
        let mut m = job.m.lock().expect("job lock");
        if m.state != JobState::Running {
            return;
        }
        for &tile in lost {
            if m.partials.contains_key(&tile)
                || m.pending_commit.contains_key(&tile)
                || m.quarantined.contains_key(&tile)
            {
                continue;
            }
            m.pending_commit.insert(
                tile,
                TileResolution::Quarantined {
                    attempts: 0,
                    reason: format!("shard {shard_idx} lost: {err}"),
                },
            );
        }
        advance_commits(&mut m, ctx.tile_count());
        job.cv.notify_all();
    }
    for &tile in lost {
        sched_resolved(shared, job.id, tile);
    }
    try_finalize(shared, job, ctx);
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::flat_report;
    use dfm_fault::{FaultAction, FaultPlan, FaultPlane, FaultRule};
    use dfm_layout::{gds, generate, layers, Technology};

    fn small_gds(seed: u64) -> Vec<u8> {
        let tech = Technology::n65();
        let params = generate::RoutedBlockParams {
            width: 6_000,
            height: 6_000,
            ..Default::default()
        };
        gds::to_bytes(&generate::routed_block(&tech, params, seed)).expect("gds")
    }

    fn spec() -> JobSpec {
        JobSpec {
            tile: 1700,
            halo: 64,
            litho_layer: Some(layers::METAL1),
            ..JobSpec::default()
        }
    }

    fn faulty_service(threads: usize, plan: FaultPlan) -> SignoffService {
        SignoffService::with_config(
            ServiceConfig::builder()
                .threads(threads)
                .fault_plane(Arc::new(FaultPlane::new(plan)))
                .build(),
        )
    }

    #[test]
    fn submitted_job_finishes_with_flat_bytes_at_several_worker_counts() {
        let gds = small_gds(31);
        let spec = spec();
        let flat =
            flat_report(&spec, &gds::from_bytes(&gds).expect("lib")).expect("flat").render_text(&spec);
        for threads in [1usize, 2, 8] {
            let service = SignoffService::with_config(
                ServiceConfig::builder().threads(threads).build(),
            );
            let id = service.submit(spec.clone(), gds.clone()).expect("submit");
            let status = service.wait(id).expect("wait");
            assert_eq!(status.state, JobState::Done, "threads={threads}: {:?}", status.error);
            assert_eq!(status.tiles_done, status.tiles_total);
            let (_, report) = service.results(id, false).expect("results");
            assert_eq!(report.render_text(&spec), flat, "threads={threads}");
        }
    }

    #[test]
    fn a_done_job_releases_its_tile_state_and_still_answers_like_flat() {
        let gds = small_gds(43);
        let spec = JobSpec { score: Some("default".to_string()), ..spec() };
        let lib = gds::from_bytes(&gds).expect("lib");
        let flat = flat_report(&spec, &lib).expect("flat").render_text(&spec);
        let (_, flat_score) = crate::scoring::flat_score(&spec, &lib).expect("flat score");
        let service = SignoffService::with_config(ServiceConfig::builder().threads(2).build());
        let id = service.submit(spec.clone(), gds).expect("submit");
        let status = service.wait(id).expect("wait");
        assert_eq!(status.state, JobState::Done, "{:?}", status.error);
        let job = service.job(id).expect("job");
        {
            let m = job.m.lock().expect("lock");
            assert!(m.ctx.is_none(), "context released");
            assert!(m.gds.is_empty(), "GDS released");
            assert!(m.partials.is_empty(), "partials released");
        }
        // Every reader answers as before the release, and none of them
        // rebuilds what was released.
        assert!(status.tiles_total > 1);
        assert_eq!(status.tiles_done, status.tiles_total);
        assert_eq!(service.status(id).expect("status"), status);
        let events = service.events(id, 0).expect("events");
        assert_eq!(events.len() as u64, status.next_seq);
        let done = events
            .iter()
            .filter(|e| matches!(e.kind, JobEventKind::TileDone { .. }))
            .count();
        assert_eq!(done, status.tiles_total);
        assert_eq!(service.report_text(id, false).expect("report").1, flat);
        assert_eq!(service.report_text(id, true).expect("report").1, flat);
        assert_eq!(service.score_json(id).expect("score").1, flat_score.render());
        assert!(service.resume(id).is_err(), "a done job does not resume");
        assert!(job.m.lock().expect("lock").ctx.is_none());
        assert_eq!(service.status(id).expect("status"), status);
        // A job whose merge fails (seed 33 is refused at halo 64)
        // releases the same state and keeps its diagnostic.
        let id = service.submit(spec, small_gds(33)).expect("submit");
        let status = service.wait(id).expect("wait");
        assert_eq!(status.state, JobState::Failed);
        assert!(service.job(id).expect("job").m.lock().expect("lock").ctx.is_none());
        let err = service.results(id, true).expect_err("failed job has no report");
        assert!(err.contains("merge failed"), "{err}");
        assert_eq!(service.status(id).expect("status"), status);
    }

    #[test]
    fn events_are_gapless_and_monotonic() {
        let service = SignoffService::with_config(ServiceConfig::builder().threads(4).build());
        let id = service.submit(spec(), small_gds(32)).expect("submit");
        service.wait(id).expect("wait");
        let events = service.events(id, 0).expect("events");
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64, "gapless sequence");
        }
        assert!(matches!(events.first().map(|e| &e.kind), Some(JobEventKind::State(JobState::Queued))));
        assert!(matches!(events.last().map(|e| &e.kind), Some(JobEventKind::State(JobState::Done))));
        // Delta poll: everything from the midpoint on, nothing more.
        let mid = events.len() as u64 / 2;
        let tail = service.events(id, mid).expect("tail");
        assert_eq!(tail, events[mid as usize..]);
    }

    #[test]
    fn bad_submissions_are_rejected_with_diagnostics() {
        let service = SignoffService::with_config(ServiceConfig::builder().threads(1).build());
        let err = service.submit(spec(), b"garbage".to_vec()).expect_err("bad gds");
        assert!(err.contains("layout rejected"), "{err}");
        let err = service
            .submit(JobSpec { tech: "n3".into(), ..spec() }, small_gds(33))
            .expect_err("bad tech");
        assert!(err.contains("unknown technology"), "{err}");
        assert!(service.status(99).is_err());
    }

    #[test]
    fn cancel_keeps_partials_and_resume_completes_identically() {
        let gds = small_gds(34);
        let spec = spec();
        let flat =
            flat_report(&spec, &gds::from_bytes(&gds).expect("lib")).expect("flat").render_text(&spec);
        let service = SignoffService::with_config(
            ServiceConfig::builder().threads(2).tile_delay(Duration::from_millis(30)).build(),
        );
        let id = service.submit(spec.clone(), gds).expect("submit");
        let status = service.cancel(id).expect("cancel");
        assert_eq!(status.state, JobState::Cancelled);
        assert!(status.tiles_done < status.tiles_total, "cancel landed mid-run");
        assert!(service.results(id, false).is_err(), "no final results while cancelled");
        let status = service.resume(id).expect("resume");
        assert_eq!(status.state, JobState::Running);
        let status = service.wait(id).expect("wait");
        assert_eq!(status.state, JobState::Done, "{:?}", status.error);
        let (_, report) = service.results(id, false).expect("results");
        assert_eq!(report.render_text(&spec), flat);
    }

    #[test]
    fn partial_results_cover_the_completed_prefix() {
        let service = SignoffService::with_config(ServiceConfig::builder().threads(2).build());
        let id = service.submit(spec(), small_gds(35)).expect("submit");
        service.wait(id).expect("wait");
        // Done job: partial=true must agree with the final report.
        let (_, full) = service.results(id, false).expect("full");
        let (_, partial) = service.results(id, true).expect("partial");
        assert_eq!(full, partial);
    }

    #[test]
    fn retries_below_threshold_finish_done_with_clean_bytes() {
        let gds = small_gds(36);
        let spec = spec();
        let flat =
            flat_report(&spec, &gds::from_bytes(&gds).expect("lib")).expect("flat").render_text(&spec);
        // Tile 1 panics on its first two attempts; budget is 3, so the
        // third succeeds and the job must be byte-identical to clean.
        let plan = FaultPlan::seeded(5).with_rule(
            FaultRule::new(SITE_TILE_COMPUTE, FaultAction::Panic).key(1).first_attempts(2),
        );
        let service = faulty_service(4, plan);
        let id = service.submit(spec.clone(), gds).expect("submit");
        let status = service.wait(id).expect("wait");
        assert_eq!(status.state, JobState::Done, "{:?}", status.error);
        assert_eq!(status.tiles_quarantined, 0);
        let (_, report) = service.results(id, false).expect("results");
        assert_eq!(report.render_text(&spec), flat);
        let events = service.events(id, 0).expect("events");
        let retries: Vec<u64> = events
            .iter()
            .filter_map(|e| match &e.kind {
                JobEventKind::TileRetry { tile: 1, attempt, .. } => Some(*attempt),
                _ => None,
            })
            .collect();
        assert_eq!(retries, vec![0, 1], "both failed attempts recorded in order");
        assert!(
            events.iter().all(|e| !matches!(e.kind, JobEventKind::TileQuarantined { .. })),
            "nothing quarantined below threshold"
        );
    }

    #[test]
    fn quarantine_above_threshold_settles_partial_with_manifest() {
        let gds = small_gds(37);
        let spec = spec();
        // Tile 0 panics on every attempt: quarantined after the full
        // budget; job settles Partial, never Failed.
        let plan = FaultPlan::seeded(9)
            .with_rule(FaultRule::new(SITE_TILE_COMPUTE, FaultAction::Panic).key(0));
        let service = faulty_service(2, plan);
        let id = service.submit(spec.clone(), gds.clone()).expect("submit");
        let status = service.wait(id).expect("wait");
        assert_eq!(status.state, JobState::Partial, "{:?}", status.error);
        assert_eq!(status.tiles_quarantined, 1);
        assert!(status.error.is_none(), "quarantine is not a failure");
        let (_, report) = service.results(id, false).expect("settled partial has results");
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].tile, 0);
        assert_eq!(report.quarantined[0].attempts, SupervisionPolicy::default().max_attempts);
        // The report equals the offline merge of the surviving tiles.
        let ctx = JobContext::build(&spec, &gds).expect("ctx");
        let surviving: Vec<TilePartial> =
            (1..ctx.tile_count()).map(|t| ctx.compute_tile(t)).collect();
        let mut expect = ctx.merge(&surviving).expect("merge");
        expect.quarantined = report.quarantined.clone();
        assert_eq!(report, expect);
        let text = report.render_text(&spec);
        assert!(text.contains("quarantine: 1 tiles excluded"), "{text}");
        // Resume retries the quarantined tile; faults still fire, so it
        // settles Partial again with the same manifest.
        service.resume(id).expect("resume");
        let status = service.wait(id).expect("wait again");
        assert_eq!(status.state, JobState::Partial);
        assert_eq!(status.tiles_quarantined, 1);
    }

    #[test]
    fn ckpt_write_faults_degrade_without_discarding_results() {
        let gds = small_gds(38);
        let spec = spec();
        let flat =
            flat_report(&spec, &gds::from_bytes(&gds).expect("lib")).expect("flat").render_text(&spec);
        let root = std::env::temp_dir().join(format!("dfm-signoff-ckpt-fault-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        // Every checkpoint write for tile 2 fails on every retry — the
        // tile must still complete from memory and the job finish Done.
        let plan = FaultPlan::seeded(3)
            .with_rule(FaultRule::new(SITE_CKPT_WRITE, FaultAction::Error).key(2));
        let service = SignoffService::with_config(
            ServiceConfig::builder()
                .threads(2)
                .ckpt_root(root.clone())
                .fault_plane(Arc::new(FaultPlane::new(plan)))
                .build(),
        );
        let id = service.submit(spec.clone(), gds).expect("submit");
        let status = service.wait(id).expect("wait");
        assert_eq!(status.state, JobState::Done, "{:?}", status.error);
        let (_, report) = service.results(id, false).expect("results");
        assert_eq!(report.render_text(&spec), flat);
        let degraded: Vec<usize> = service
            .events(id, 0)
            .expect("events")
            .iter()
            .filter_map(|e| match e.kind {
                JobEventKind::CkptDegraded { tile } => Some(tile),
                _ => None,
            })
            .collect();
        assert_eq!(degraded, vec![2]);
        drop(service);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn warm_cache_serves_every_tile_without_computing() {
        let gds = small_gds(40);
        let spec = spec();
        let flat =
            flat_report(&spec, &gds::from_bytes(&gds).expect("lib")).expect("flat").render_text(&spec);
        let root = std::env::temp_dir().join(format!("dfm-signoff-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = Arc::new(TileCache::open(&root, None).expect("cache"));
        let with_cache = |threads| {
            SignoffService::with_config(
                ServiceConfig::builder().threads(threads).cache(Arc::clone(&cache)).build(),
            )
        };
        // Cold: every tile computes and stores; nothing hits.
        let cold = with_cache(2);
        let id = cold.submit(spec.clone(), gds.clone()).expect("submit");
        let status = cold.wait(id).expect("wait");
        assert_eq!(status.state, JobState::Done, "{:?}", status.error);
        assert_eq!(status.tiles_cached, 0, "cold run hits nothing");
        let stores = cold
            .events(id, 0)
            .expect("events")
            .iter()
            .filter(|e| matches!(e.kind, JobEventKind::TileCacheStore { .. }))
            .count();
        assert_eq!(stores, status.tiles_total, "every clean tile stored");
        assert_eq!(cache.len(), status.tiles_total);
        drop(cold);
        // Warm: every tile hits; the pool never runs a task; the report
        // is byte-identical to the flat run.
        let warm = with_cache(2);
        let id = warm.submit(spec.clone(), gds).expect("submit");
        let status = warm.wait(id).expect("wait");
        assert_eq!(status.state, JobState::Done, "{:?}", status.error);
        assert_eq!(status.tiles_cached, status.tiles_total, "fully warm");
        assert_eq!(warm.pool_stats().completed, 0, "no tile ever reached the pool");
        let events = warm.events(id, 0).expect("events");
        let hits = events
            .iter()
            .filter(|e| matches!(e.kind, JobEventKind::TileCacheHit { .. }))
            .count();
        assert_eq!(hits, status.tiles_total);
        assert!(
            events.iter().all(|e| !matches!(e.kind, JobEventKind::TileCacheStore { .. })),
            "a hit is never re-stored"
        );
        let (_, report) = warm.results(id, false).expect("results");
        assert_eq!(report.render_text(&spec), flat);
        drop(warm);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn cache_read_faults_degrade_to_recompute_with_identical_bytes() {
        let gds = small_gds(41);
        let spec = spec();
        let flat =
            flat_report(&spec, &gds::from_bytes(&gds).expect("lib")).expect("flat").render_text(&spec);
        let root = std::env::temp_dir()
            .join(format!("dfm-signoff-cache-fault-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = Arc::new(TileCache::open(&root, None).expect("cache"));
        // Prime the cache cleanly.
        let cold = SignoffService::with_config(
            ServiceConfig::builder().threads(2).cache(Arc::clone(&cache)).build(),
        );
        let id = cold.submit(spec.clone(), gds.clone()).expect("submit");
        cold.wait(id).expect("wait");
        drop(cold);
        // Warm, but tile 1's cache read faults: it recomputes (and
        // re-stores), everything else hits, bytes unchanged.
        let plan = FaultPlan::seeded(6)
            .with_rule(FaultRule::new(SITE_CACHE_READ, FaultAction::Error).key(1));
        let warm = SignoffService::with_config(
            ServiceConfig::builder()
                .threads(2)
                .cache(Arc::clone(&cache))
                .fault_plane(Arc::new(FaultPlane::new(plan)))
                .build(),
        );
        let id = warm.submit(spec.clone(), gds).expect("submit");
        let status = warm.wait(id).expect("wait");
        assert_eq!(status.state, JobState::Done, "{:?}", status.error);
        assert_eq!(status.tiles_cached, status.tiles_total - 1);
        let events = warm.events(id, 0).expect("events");
        let stored: Vec<usize> = events
            .iter()
            .filter_map(|e| match e.kind {
                JobEventKind::TileCacheStore { tile } => Some(tile),
                _ => None,
            })
            .collect();
        assert_eq!(stored, vec![1], "only the faulted read recomputes and re-stores");
        let (_, report) = warm.results(id, false).expect("results");
        assert_eq!(report.render_text(&spec), flat);
        drop(warm);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn retried_tiles_are_never_cached() {
        let gds = small_gds(42);
        let spec = spec();
        let root = std::env::temp_dir()
            .join(format!("dfm-signoff-cache-retry-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = Arc::new(TileCache::open(&root, None).expect("cache"));
        // Tile 2 panics once, then succeeds on attempt 1 — which must
        // NOT be stored; every other tile stores normally.
        let plan = FaultPlan::seeded(7).with_rule(
            FaultRule::new(SITE_TILE_COMPUTE, FaultAction::Panic).key(2).first_attempts(1),
        );
        let service = SignoffService::with_config(
            ServiceConfig::builder()
                .threads(2)
                .cache(Arc::clone(&cache))
                .fault_plane(Arc::new(FaultPlane::new(plan)))
                .build(),
        );
        let id = service.submit(spec.clone(), gds.clone()).expect("submit");
        let status = service.wait(id).expect("wait");
        assert_eq!(status.state, JobState::Done, "{:?}", status.error);
        assert_eq!(cache.len(), status.tiles_total - 1, "the retried tile is absent");
        let ctx = JobContext::build(&spec, &gds).expect("ctx");
        assert!(!cache.contains(ctx.cache_key(2)), "retried tile never cached");
        drop(service);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn scored_job_reports_the_flat_score_with_event_before_done() {
        let gds = small_gds(43);
        let spec = JobSpec { score: Some("default".to_string()), ..spec() };
        let (_, flat) =
            crate::scoring::flat_score(&spec, &gds::from_bytes(&gds).expect("lib")).expect("flat");
        let service = SignoffService::with_config(ServiceConfig::builder().threads(2).build());
        let id = service.submit(spec.clone(), gds).expect("submit");
        let status = service.wait(id).expect("wait");
        assert_eq!(status.state, JobState::Done, "{:?}", status.error);
        assert_eq!(status.score(), Some(flat.score));
        assert_eq!(status.score_pass, Some(flat.pass));
        let (_, json) = service.score_json(id).expect("score json");
        assert_eq!(json, flat.render(), "service score == flat score, byte for byte");
        // The score event lands between the last commit and Done.
        let events = service.events(id, 0).expect("events");
        let score_pos = events
            .iter()
            .position(|e| matches!(e.kind, JobEventKind::Score { .. }))
            .expect("score event");
        assert!(matches!(
            events.last().map(|e| &e.kind),
            Some(JobEventKind::State(JobState::Done))
        ));
        assert_eq!(score_pos, events.len() - 2, "score immediately precedes Done");
        match events[score_pos].kind {
            JobEventKind::Score { bits, pass } => {
                assert_eq!(f64::from_bits(bits), flat.score);
                assert_eq!(pass, flat.pass);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn unscored_job_has_no_score() {
        let service = SignoffService::with_config(ServiceConfig::builder().threads(2).build());
        let id = service.submit(spec(), small_gds(35)).expect("submit");
        let status = service.wait(id).expect("wait");
        assert_eq!(status.state, JobState::Done, "{:?}", status.error);
        assert_eq!(status.score_bits, None);
        let err = service.score_json(id).expect_err("no score");
        assert!(err.contains("without scoring"), "{err}");
        let events = service.events(id, 0).expect("events");
        assert!(
            events.iter().all(|e| !matches!(e.kind, JobEventKind::Score { .. })),
            "no score event without a score spec"
        );
    }

    #[test]
    fn watchdog_timeout_retries_and_completes() {
        let gds = small_gds(39);
        let spec = spec();
        let flat =
            flat_report(&spec, &gds::from_bytes(&gds).expect("lib")).expect("flat").render_text(&spec);
        // Tile 1's first attempt is stuck past the watchdog budget; the
        // retry is clean (attempt filter) and the job finishes Done.
        let plan = FaultPlan::seeded(4).with_rule(
            FaultRule::new(SITE_TILE_DELAY, FaultAction::Delay { vms: 60_000 })
                .key(1)
                .first_attempts(1),
        );
        let service = faulty_service(2, plan);
        let id = service.submit(spec.clone(), gds).expect("submit");
        let status = service.wait(id).expect("wait");
        assert_eq!(status.state, JobState::Done, "{:?}", status.error);
        let events = service.events(id, 0).expect("events");
        let retried = events.iter().any(|e| {
            matches!(&e.kind, JobEventKind::TileRetry { tile: 1, reason, .. }
                if reason.contains("watchdog"))
        });
        assert!(retried, "expected a watchdog retry event: {events:?}");
        let (_, report) = service.results(id, false).expect("results");
        assert_eq!(report.render_text(&spec), flat);
    }
}
