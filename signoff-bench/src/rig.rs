//! Service rigs: the services, servers and connections one workload
//! runs against, built (and timed) as the benchmark's set-up.
//!
//! Every rig hosts its services in this process — loopback servers for
//! the wire workloads, a bare `SignoffService` for `edit-loop` — with
//! two pool workers in total.

use crate::inputs::{self, JobInput, TENANTS};
use crate::Workload;
use dfm_cache::{CacheStats, TileCache};
use dfm_signoff::{Client, SchedConfig, Server, ServiceConfig, SignoffService};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Pool workers per rig.
pub const WORKERS: usize = 2;
/// Grant window of the `farm-litho` tenant plan: enough in flight to
/// keep both workers busy, small enough that tenants queue behind it.
pub const FARM_MAX_INFLIGHT: u64 = 4;

/// A loopback server running on its own accept thread.
pub struct ServerHandle {
    /// `host:port` the server listens on.
    pub addr: String,
    thread: JoinHandle<()>,
}

impl ServerHandle {
    fn start(service: Arc<SignoffService>) -> Result<ServerHandle, String> {
        let server = Server::bind(service, 0)?;
        let addr = server.local_addr().to_string();
        let thread = std::thread::spawn(move || {
            let _ = server.serve();
        });
        Ok(ServerHandle { addr, thread })
    }

    /// Asks the server to stop and waits for its accept loop to end.
    fn stop(self) {
        if let Ok(mut client) = Client::connect(&self.addr) {
            let _ = client.shutdown();
        }
        let _ = self.thread.join();
    }
}

/// Counters of services a rig has retired (the `edit-loop` laps).
#[derive(Clone, Copy, Debug, Default)]
pub struct Retired {
    /// Cache counters of retired caches, summed.
    pub cache: CacheStats,
    /// Grants issued by retired services.
    pub grants: u64,
    /// Largest pool queue depth any retired service saw.
    pub queue_depth_peak: usize,
    /// Largest pool in-flight count any retired service saw.
    pub in_flight_peak: usize,
}

/// Everything one workload runs against.
pub struct Rig {
    /// Which workload the rig serves.
    pub workload: Workload,
    dir: PathBuf,
    /// The service jobs are submitted to (the coordinator on `shard-2x`).
    pub front: Arc<SignoffService>,
    /// Shard services behind the coordinator (`shard-2x` only).
    pub shards: Vec<Arc<SignoffService>>,
    /// Loopback servers, the front's first.
    servers: Vec<ServerHandle>,
    /// Driver connections to the front server (none in-process).
    pub clients: Vec<Client>,
    /// The front's tile cache, when armed.
    pub cache: Option<Arc<TileCache>>,
    /// `edit-loop`: the primed cache every lap starts from.
    template: Option<PathBuf>,
    /// `edit-loop`: the base layout that warms each lap's service.
    edit_base: Option<JobInput>,
    lap: u64,
    /// Counters of retired lap services.
    pub retired: Retired,
}

fn service(cfg: ServiceConfig) -> Arc<SignoffService> {
    Arc::new(SignoffService::with_config(cfg))
}

fn open_cache(dir: &Path) -> Result<Arc<TileCache>, String> {
    TileCache::open(dir, None)
        .map(Arc::new)
        .map_err(|e| format!("open cache {}: {e}", dir.display()))
}

/// The `farm-litho` tenant plan. The `default` tenant only carries the
/// canonical priming job, which must keep its pinned spec.
pub fn farm_plan() -> SchedConfig {
    let mut text = String::from("tenant default weight 1\n");
    for (name, weight) in TENANTS {
        text.push_str(&format!("tenant {name} weight {weight}\n"));
    }
    text.push_str(&format!("global max_inflight {FARM_MAX_INFLIGHT}\n"));
    SchedConfig::parse(&text).expect("the farm tenant plan parses")
}

impl Rig {
    /// Builds the rig for `workload` under `dir` (which must not exist)
    /// and primes it: the canonical job runs through the rig's front
    /// door, and `edit-loop` also runs its base layout cold into the
    /// cache template. Returns the rig and the canonical report text it
    /// produced, for the preflight check.
    pub fn setup(
        workload: Workload,
        dir: &Path,
        edit_base: Option<&JobInput>,
    ) -> Result<(Rig, String), String> {
        fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let mut shards = Vec::new();
        let mut servers = Vec::new();
        let mut cache = None;
        let mut template = None;
        let (front, connections) = match workload {
            Workload::Bulk => {
                let c = open_cache(&dir.join("cache"))?;
                cache = Some(Arc::clone(&c));
                let cfg = ServiceConfig::builder()
                    .threads(WORKERS)
                    .cache(c)
                    .ckpt_root(dir.join("ckpt"));
                (service(cfg.build()), 1)
            }
            Workload::Farm => (
                service(
                    ServiceConfig::builder()
                        .threads(WORKERS)
                        .sched(farm_plan())
                        .build(),
                ),
                2,
            ),
            Workload::Edit => {
                let t = dir.join("template");
                let c = open_cache(&t)?;
                cache = Some(Arc::clone(&c));
                template = Some(t);
                // Cache only, no checkpoint root: the service the
                // `score --cache` and `fix` commands build.
                (
                    service(ServiceConfig::builder().threads(WORKERS).cache(c).build()),
                    0,
                )
            }
            Workload::Shard => {
                let mut addrs = Vec::new();
                for k in 0..2 {
                    let shard = service(
                        ServiceConfig::builder()
                            .threads(WORKERS / 2)
                            .shard_of(k, 2)
                            .build(),
                    );
                    let handle = ServerHandle::start(Arc::clone(&shard))?;
                    addrs.push(handle.addr.clone());
                    servers.push(handle);
                    shards.push(shard);
                }
                // The coordinator computes nothing; its single worker
                // only runs the commit path.
                (
                    service(ServiceConfig::builder().threads(1).shards(addrs).build()),
                    1,
                )
            }
        };
        let mut clients = Vec::new();
        if connections > 0 {
            let handle = ServerHandle::start(Arc::clone(&front))?;
            for _ in 0..connections {
                clients.push(Client::connect(&handle.addr)?);
            }
            servers.insert(0, handle);
        }
        let mut rig = Rig {
            workload,
            dir: dir.to_path_buf(),
            front,
            shards,
            servers,
            clients,
            cache,
            template,
            edit_base: edit_base.cloned(),
            lap: 0,
            retired: Retired::default(),
        };
        let canonical = inputs::canonical();
        let text = rig.run_one(&canonical)?.0;
        if let Some(base) = edit_base {
            rig.run_one(base)?;
            rig.next_lap()?;
        }
        Ok((rig, text))
    }

    /// Runs one job to completion through the front door, returning
    /// its report text and score line (when scored).
    pub fn run_one(&mut self, input: &JobInput) -> Result<(String, Option<String>), String> {
        let scored = input.spec.score.is_some();
        if let Some(client) = self.clients.first_mut() {
            let id = client.submit(input.spec.clone(), input.gds.clone())?;
            settled_done(&client.wait(id)?)?;
            let text = client.results(id, false)?.1;
            let score = if scored {
                Some(client.score(id)?.1)
            } else {
                None
            };
            Ok((text, score))
        } else {
            let id = self.front.submit(input.spec.clone(), input.gds.clone())?;
            settled_done(&self.front.wait(id)?)?;
            let text = self.front.report_text(id, false)?.1;
            let score = if scored {
                Some(self.front.score_json(id)?.1)
            } else {
                None
            };
            Ok((text, score))
        }
    }

    /// `edit-loop`: retires the current service and starts a fresh one
    /// whose cache is a copy of the primed template, so every lap over
    /// the edit chain sees the same cache state, and warms it.
    pub fn next_lap(&mut self) -> Result<(), String> {
        let template = self.template.clone().ok_or("only edit-loop runs laps")?;
        self.retire_front();
        self.lap += 1;
        let lap = self.dir.join(format!("lap-{}", self.lap));
        let _ = fs::remove_dir_all(self.dir.join(format!("lap-{}", self.lap - 1)));
        let cache_dir = lap.join("cache");
        fs::create_dir_all(&cache_dir)
            .map_err(|e| format!("create {}: {e}", cache_dir.display()))?;
        for entry in fs::read_dir(&template)
            .map_err(|e| format!("read template: {e}"))?
            .flatten()
        {
            let to = cache_dir.join(entry.file_name());
            fs::copy(entry.path(), &to).map_err(|e| format!("copy template entry: {e}"))?;
            sync(&to)?;
        }
        // Flush the copies and the removal now, outside the timed
        // jobs: otherwise the first cache store of the lap waits for
        // the journal to commit them.
        sync(&cache_dir)?;
        sync(&self.dir)?;
        let cache = open_cache(&cache_dir)?;
        self.front = service(
            ServiceConfig::builder()
                .threads(WORKERS)
                .cache(Arc::clone(&cache))
                .build(),
        );
        self.cache = Some(cache);
        // Warm the fresh service with the base layout (every tile a
        // hit, nothing stored), so no lap's first timed job pays for
        // pool start-up.
        if let Some(base) = self.edit_base.clone() {
            self.run_one(&base)?;
        }
        Ok(())
    }

    /// Folds the front service's counters into [`Rig::retired`].
    fn retire_front(&mut self) {
        if let Some(cache) = &self.cache {
            let s = cache.stats();
            let r = &mut self.retired.cache;
            r.stores += s.stores;
            r.corrupt_dropped += s.corrupt_dropped;
        }
        self.retired.grants += self.front.grant_log().len() as u64;
        let pool = self.front.pool_stats();
        self.retired.queue_depth_peak = self.retired.queue_depth_peak.max(pool.queue_depth_peak);
        self.retired.in_flight_peak = self.retired.in_flight_peak.max(pool.in_flight_peak);
    }

    /// `edit-loop`: the primed cache directory laps start from.
    pub fn template_dir(&self) -> Option<PathBuf> {
        self.template.clone()
    }

    /// Every live service of the rig.
    pub fn services(&self) -> Vec<&Arc<SignoffService>> {
        std::iter::once(&self.front).chain(&self.shards).collect()
    }

    /// Stops servers, drops services and connections, and removes the
    /// rig's directory.
    pub fn teardown(mut self) {
        self.clients.clear();
        for server in self.servers.drain(..) {
            server.stop();
        }
        let dir = self.dir.clone();
        drop(self);
        let _ = fs::remove_dir_all(dir);
    }
}

/// `fsync` of a file or directory.
fn sync(path: &Path) -> Result<(), String> {
    fs::File::open(path)
        .and_then(|f| f.sync_all())
        .map_err(|e| format!("sync {}: {e}", path.display()))
}

/// Maps a settled status to `Ok` only when the job is `Done`.
pub fn settled_done(status: &dfm_signoff::JobStatus) -> Result<(), String> {
    if status.state == dfm_signoff::JobState::Done {
        Ok(())
    } else {
        Err(format!(
            "job {} settled {}{}",
            status.id,
            status.state,
            status
                .error
                .as_ref()
                .map_or(String::new(), |e| format!(": {e}"))
        ))
    }
}
