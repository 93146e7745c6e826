//! The load generators: closed loops, where each caller sends its next
//! job when the previous report is in hand — one caller, or on
//! `farm-litho` one caller per tenant on its own connection.

use crate::inputs::{self, JobInput};
use crate::rig::Rig;
use crate::trace::Tracer;
use crate::Workload;
use dfm_signoff::{Client, JobState, JobStatus, SignoffService};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Pause between two in-process settle probes of the traced run.
const OBSERVE_PAUSE: Duration = Duration::from_millis(1);

/// How a job ended, before its bytes are checked.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// Still in flight.
    Pending,
    /// The report (and score) arrived; not yet compared.
    Received,
    /// The service refused the submission.
    Refused(String),
    /// The job settled other than `Done`, or a request failed.
    Failed(String),
}

/// One job of a phase.
#[derive(Clone, Debug)]
pub struct Record {
    /// Reference key of the input (see [`Feed::next`]).
    pub key: usize,
    /// Layout area, µm².
    pub area_um2: f64,
    /// When `submit` was sent.
    pub sent: Instant,
    /// When the job id came back.
    pub acked: Option<Instant>,
    /// When the driver learned the job settled.
    pub settled_seen: Option<Instant>,
    /// When the report (and score) was in hand.
    pub done: Option<Instant>,
    /// Service job id (0 when refused).
    pub job: u64,
    /// How the job ended.
    pub outcome: Outcome,
    /// Report text received.
    pub text: String,
    /// Score line received (scored workloads).
    pub score: Option<String>,
    /// Tiles of the job.
    pub tiles_total: usize,
    /// Tiles the service computed rather than served from its cache.
    pub tiles_computed: usize,
}

impl Record {
    fn new(key: usize, area_um2: f64, sent: Instant) -> Record {
        Record {
            key,
            area_um2,
            sent,
            acked: None,
            settled_seen: None,
            done: None,
            job: 0,
            outcome: Outcome::Pending,
            text: String::new(),
            score: None,
            tiles_total: 0,
            tiles_computed: 0,
        }
    }

    fn settled(&mut self, status: &JobStatus) {
        self.settled_seen = Some(Instant::now());
        self.tiles_total = status.tiles_total;
        self.tiles_computed = status.tiles_done.saturating_sub(status.tiles_cached);
        if status.state != JobState::Done {
            self.outcome = Outcome::Failed(format!(
                "settled {}{}",
                status.state,
                status
                    .error
                    .as_ref()
                    .map_or(String::new(), |e| format!(": {e}"))
            ));
        }
    }
}

/// What one timed phase produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Every job attempted, in send order.
    pub records: Vec<Record>,
    /// Wall time of the timed phase (pauses for input generation and
    /// lap resets excluded).
    pub wall: Duration,
    /// In-process settle instants by job id (traced phases only).
    pub settles: BTreeMap<u64, Instant>,
}

/// Where a workload's jobs come from.
pub enum Source {
    /// `bulk-24um`: a fresh block per job, keyed by its index.
    Bulk {
        /// Workload seed.
        seed: u64,
    },
    /// `farm-litho` / `shard-2x`: seeded picks from a pool; on
    /// `farm-litho` each tenant's caller picks its own half.
    Pool {
        /// Workload seed.
        seed: u64,
        /// The pool.
        pool: Vec<JobInput>,
    },
    /// `edit-loop`: the edit chain, walked in laps.
    Edit {
        /// The chain.
        chain: Vec<JobInput>,
    },
}

/// The seeded stream of a workload's jobs.
pub struct Feed {
    /// Where the jobs come from.
    pub source: Source,
    /// Index of the next job.
    pub next: usize,
}

impl Feed {
    /// The next job: its reference key, its input, and whether it
    /// starts a new lap of the edit chain.
    pub fn next(&mut self) -> (usize, JobInput, bool) {
        let n = self.next;
        self.next += 1;
        let (key, lap) = match &self.source {
            Source::Bulk { .. } => (n, false),
            Source::Pool { seed, pool } => (inputs::pool_pick(*seed, 0, 1, n, pool.len()), false),
            Source::Edit { chain } => (n % chain.len(), n > 0 && n.is_multiple_of(chain.len())),
        };
        (key, self.input(key), lap)
    }

    /// The input behind a reference key.
    pub fn input(&self, key: usize) -> JobInput {
        match &self.source {
            Source::Bulk { seed } => inputs::bulk_job(*seed, key as u64),
            Source::Pool { pool, .. } => pool[key].clone(),
            Source::Edit { chain } => chain[key].clone(),
        }
    }
}

/// Probes job states in-process to stamp the instant each settles, so
/// the traced run can tell the client's `wait` overshoot from the
/// service's own settle time.
struct Observer {
    ids: Arc<Mutex<Vec<u64>>>,
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<BTreeMap<u64, Instant>>,
}

impl Observer {
    fn start(service: Arc<SignoffService>) -> Observer {
        let ids: Arc<Mutex<Vec<u64>>> = Arc::default();
        let stop = Arc::new(AtomicBool::new(false));
        let (ids2, stop2) = (Arc::clone(&ids), Arc::clone(&stop));
        let thread = std::thread::spawn(move || {
            let mut settled = BTreeMap::new();
            while !stop2.load(Ordering::SeqCst) {
                let watch: Vec<u64> = ids2.lock().expect("observer lock").clone();
                for id in watch {
                    if let Ok(s) = service.status(id) {
                        if s.state.is_settled() {
                            settled.insert(id, Instant::now());
                            ids2.lock().expect("observer lock").retain(|&x| x != id);
                        }
                    }
                }
                std::thread::sleep(OBSERVE_PAUSE);
            }
            settled
        });
        Observer { ids, stop, thread }
    }

    fn watch(&self, id: u64) {
        self.ids.lock().expect("observer lock").push(id);
    }

    fn finish(self) -> BTreeMap<u64, Instant> {
        self.stop.store(true, Ordering::SeqCst);
        self.thread.join().expect("observer thread")
    }
}

/// Runs one timed phase of `seconds` against the rig.
pub fn phase(
    rig: &mut Rig,
    feed: &mut Feed,
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<Phase, String> {
    let observer = tracer
        .enabled()
        .then(|| Observer::start(Arc::clone(&rig.front)));
    let mut out = if rig.workload == Workload::Farm {
        tenant_callers(rig, feed, seconds, tracer, observer.as_ref())?
    } else {
        closed_loop(rig, feed, seconds, tracer, observer.as_ref())?
    };
    if let Some(o) = observer {
        out.settles = o.finish();
    }
    Ok(out)
}

fn closed_loop(
    rig: &mut Rig,
    feed: &mut Feed,
    seconds: f64,
    tracer: &mut Tracer,
    observer: Option<&Observer>,
) -> Result<Phase, String> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut paused = Duration::ZERO;
    let mut records = Vec::new();
    let mut last = start;
    while Instant::now() < deadline {
        let p0 = Instant::now();
        let (key, input, new_lap) = feed.next();
        if new_lap {
            rig.next_lap()?;
        }
        if !records.is_empty() && matches!(feed.source, Source::Edit { .. }) {
            std::thread::sleep(inputs::EDIT_THINK);
        }
        paused += p0.elapsed();
        let n = records.len() as u64 + 1;
        let root = tracer.open("job", None, n);
        let mut rec = Record::new(key, input.area_um2, Instant::now());
        let scored = input.spec.score.is_some();
        match rig.clients.first_mut() {
            Some(client) => wire_job(client, input, scored, &mut rec, tracer, root, n, observer),
            None => local_job(
                &rig.front, input, scored, &mut rec, tracer, root, n, observer,
            ),
        }
        tracer.close(root);
        last = rec.done.or(rec.settled_seen).unwrap_or_else(Instant::now);
        records.push(rec);
    }
    Ok(Phase {
        records,
        wall: (last - start).saturating_sub(paused),
        ..Phase::default()
    })
}

#[allow(clippy::too_many_arguments)]
fn wire_job(
    client: &mut Client,
    input: JobInput,
    scored: bool,
    rec: &mut Record,
    tracer: &mut Tracer,
    root: crate::trace::SpanId,
    n: u64,
    observer: Option<&Observer>,
) {
    let submitted = tracer.time("client.submit", Some(root), n, || {
        client.submit(input.spec, input.gds)
    });
    rec.acked = Some(Instant::now());
    let id = match submitted {
        Ok(id) => id,
        Err(e) => return rec.outcome = Outcome::Refused(e),
    };
    rec.job = id;
    if let Some(o) = observer {
        o.watch(id);
    }
    match tracer.time("client.wait", Some(root), n, || client.wait(id)) {
        Ok(status) => rec.settled(&status),
        Err(e) => return rec.outcome = Outcome::Failed(e),
    }
    if rec.outcome != Outcome::Pending {
        return;
    }
    match tracer.time("client.results", Some(root), n, || {
        client.results(id, false)
    }) {
        Ok((_, text)) => rec.text = text,
        Err(e) => return rec.outcome = Outcome::Failed(e),
    }
    if scored {
        match tracer.time("client.score", Some(root), n, || client.score(id)) {
            Ok((_, line)) => rec.score = Some(line),
            Err(e) => return rec.outcome = Outcome::Failed(e),
        }
    }
    rec.done = Some(Instant::now());
    rec.outcome = Outcome::Received;
}

#[allow(clippy::too_many_arguments)]
fn local_job(
    service: &SignoffService,
    input: JobInput,
    scored: bool,
    rec: &mut Record,
    tracer: &mut Tracer,
    root: crate::trace::SpanId,
    n: u64,
    observer: Option<&Observer>,
) {
    let submitted = tracer.time("service.submit_job", Some(root), n, || {
        service.submit_job(input.spec, input.gds)
    });
    rec.acked = Some(Instant::now());
    let id = match submitted {
        Ok(id) => id,
        Err(e) => return rec.outcome = Outcome::Refused(e.to_string()),
    };
    rec.job = id;
    if let Some(o) = observer {
        o.watch(id);
    }
    match tracer.time("service.wait", Some(root), n, || service.wait(id)) {
        Ok(status) => rec.settled(&status),
        Err(e) => return rec.outcome = Outcome::Failed(e),
    }
    if rec.outcome != Outcome::Pending {
        return;
    }
    match tracer.time("service.report_text", Some(root), n, || {
        service.report_text(id, false)
    }) {
        Ok((_, text)) => rec.text = text,
        Err(e) => return rec.outcome = Outcome::Failed(e),
    }
    if scored {
        match tracer.time("service.score_json", Some(root), n, || {
            service.score_json(id)
        }) {
            Ok((_, line)) => rec.score = Some(line),
            Err(e) => return rec.outcome = Outcome::Failed(e),
        }
    }
    rec.done = Some(Instant::now());
    rec.outcome = Outcome::Received;
}

/// `farm-litho`: one closed-loop caller per tenant, each on its own
/// connection and thread, each submitting the pool entries billed to
/// its tenant, so both tenants stay queued and the fair-share grant
/// loop decides every grant.
fn tenant_callers(
    rig: &mut Rig,
    feed: &Feed,
    seconds: f64,
    tracer: &mut Tracer,
    observer: Option<&Observer>,
) -> Result<Phase, String> {
    let Source::Pool { seed, pool } = &feed.source else {
        return Err("tenant callers draw from a pool".to_string());
    };
    let lanes = rig.clients.len();
    let enabled = tracer.enabled();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut clients = std::mem::take(&mut rig.clients);
    let lanes_out: Vec<(Vec<Record>, Tracer)> = std::thread::scope(|scope| {
        let callers: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(lane, client)| {
                scope.spawn(move || {
                    let mut t = Tracer::new(enabled);
                    let mut records = Vec::new();
                    while Instant::now() < deadline {
                        let i = records.len();
                        let key = inputs::pool_pick(*seed, lane, lanes, i, pool.len());
                        let input = pool[key].clone();
                        // Span job ids: lane in the high bits, sequence below.
                        let n = ((lane as u64) << 32) | (i as u64 + 1);
                        let root = t.open("job", None, n);
                        let mut rec = Record::new(key, input.area_um2, Instant::now());
                        wire_job(client, input, false, &mut rec, &mut t, root, n, observer);
                        t.close(root);
                        records.push(rec);
                    }
                    (records, t)
                })
            })
            .collect();
        callers
            .into_iter()
            .map(|c| c.join().expect("caller thread"))
            .collect()
    });
    rig.clients = clients;
    let mut records = Vec::new();
    for (lane_records, t) in lanes_out {
        records.extend(lane_records);
        tracer.absorb(t);
    }
    records.sort_by_key(|r| r.sent);
    let last = records
        .iter()
        .filter_map(|r| r.done.or(r.settled_seen))
        .max()
        .unwrap_or(start);
    Ok(Phase {
        records,
        wall: last - start,
        ..Phase::default()
    })
}
