//! The four workloads, their trial seeds, and the bench-driven
//! campaign loop every measurement runs through.
//!
//! A workload run is a sequence of *batches*. Each batch is one
//! [`Campaign`] over a fresh seed list derived from the benchmark
//! seed and the batch index, so the same benchmark seed always yields
//! the same trials. A batch is driven through the runner's public
//! split API — [`Campaign::prepare`], [`PreparedRun::run_pending`],
//! [`PreparedRun::commit`], [`PreparedRun::finish`] — exactly as
//! [`Campaign::try_run_with_stats`] drives it, with the benchmark's
//! clocks around each call. Every batch is then re-run through a
//! plain [`Campaign::run_with_stats`] and must produce the same
//! report byte for byte.
//!
//! A resumed workload's batch holds two blocks of seeds: the block the
//! previous batch computed, already in the store, and a fresh block
//! the timed run computes. Its starting store is written from the
//! previous batch's verified records (the first batch's, by an
//! untimed plain run), so every batch resumes from the same kind of
//! half-full store without computing its stored half again.

use bichrome_runner::{
    registry, CacheStats, Campaign, CampaignReport, ExecStats, GraphSpec, Instance, InstanceCache,
    Outcome, PreparedRun, Protocol, TrialRecord,
};
use bichrome_store::{Entry, Store, TrialKey};
use rayon::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `vertex/theorem1` on a fresh `gnp(n=20000,p=0.001)` per trial.
    Thm1Gnp,
    /// Five protocols × two small families, resumed from a half-full store.
    GridResume,
}

/// Instance sizes: the measured ones, or tiny ones for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark reports on.
    Full,
    /// Small instances with the same protocols, executor and store use.
    Tiny,
}

/// What one batch of a workload runs.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Registry keys on the protocol axis.
    pub protocols: &'static [&'static str],
    /// Graph families on the graph axis.
    pub graphs: Vec<GraphSpec>,
    /// Seeds per batch (trials = protocols × graphs × seeds).
    pub seeds_per_batch: usize,
    /// Whether half of each batch's seeds are already stored when the
    /// timed run starts, which then resumes from the store.
    pub resume: bool,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Thm1Gnp, Workload::GridResume];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Thm1Gnp => "thm1-gnp",
            Workload::GridResume => "grid-resume",
        }
    }

    /// The workload with the given name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one batch of the workload runs at `scale`. Both run on the
    /// runner's default parallel executor.
    pub fn shape(self, scale: Scale) -> Shape {
        let tiny = scale == Scale::Tiny;
        match self {
            Workload::Thm1Gnp => Shape {
                protocols: &["vertex/theorem1"],
                graphs: vec![if tiny {
                    GraphSpec::Gnp { n: 300, p: 0.02 }
                } else {
                    GraphSpec::Gnp { n: 20000, p: 0.001 }
                }],
                seeds_per_batch: if tiny { 4 } else { 8 },
                resume: false,
            },
            Workload::GridResume => Shape {
                protocols: &[
                    "vertex/theorem1",
                    "edge/theorem2",
                    "edge/theorem3-zero-comm",
                    "baseline/greedy-binary-search",
                    "baseline/send-everything",
                ],
                graphs: if tiny {
                    vec![
                        GraphSpec::NearRegular { n: 60, d: 6 },
                        GraphSpec::Gnp { n: 60, p: 0.1 },
                    ]
                } else {
                    vec![
                        GraphSpec::NearRegular { n: 2000, d: 12 },
                        GraphSpec::Gnp { n: 2000, p: 0.006 },
                    ]
                },
                seeds_per_batch: if tiny { 4 } else { 40 },
                resume: true,
            },
        }
    }
}

/// SplitMix64's finalizer: a bijective 64-bit mix.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Block `block` of `count` trial seeds of a run with benchmark seed
/// `bench_seed`: a pure function of the three arguments.
fn seed_block(bench_seed: u64, block: u64, count: usize) -> Vec<u64> {
    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
    let base =
        mix(mix(bench_seed ^ 0xB1C4_0BE7_C4A1_9A00).wrapping_add(block.wrapping_mul(GOLDEN)));
    (0..count as u64)
        .map(|j| mix(base.wrapping_add(j.wrapping_mul(GOLDEN))))
        .collect()
}

/// The trial seeds of batch `batch`: block `batch` alone, or for a
/// resumed workload blocks `batch` (stored) and `batch + 1` (computed).
pub fn batch_seeds(shape: &Shape, bench_seed: u64, batch: u64) -> Vec<u64> {
    if shape.resume {
        let half = shape.seeds_per_batch / 2;
        let mut seeds = seed_block(bench_seed, batch, half);
        seeds.extend(seed_block(bench_seed, batch + 1, half));
        seeds
    } else {
        seed_block(bench_seed, batch, shape.seeds_per_batch)
    }
}

/// A registry protocol behind a stopwatch: the wall time of every
/// [`Protocol::run`] lands in a shared sample list. Name and
/// description are the inner protocol's, so campaigns, store keys and
/// reports are exactly those of the bare protocol.
struct Timed {
    inner: Arc<dyn Protocol>,
    samples: Arc<Mutex<Vec<u64>>>,
}

impl Protocol for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn describe(&self) -> &str {
        self.inner.describe()
    }

    fn run(&self, inst: &Instance) -> Outcome {
        let started = Instant::now();
        let outcome = self.inner.run(inst);
        let nanos = started.elapsed().as_nanos() as u64;
        self.samples
            .lock()
            .expect("sample list poisoned")
            .push(nanos);
        outcome
    }
}

fn registered(key: &str) -> Arc<dyn Protocol> {
    registry()
        .get(key)
        .unwrap_or_else(|| panic!("workload protocol {key:?} is not registered"))
}

/// The batch's campaign over bare registry protocols.
fn campaign(shape: &Shape, seeds: &[u64]) -> Campaign {
    Campaign::new()
        .protocols(shape.protocols.iter().map(|k| registered(k)))
        .graphs(shape.graphs.iter().copied())
        .seeds(seeds.iter().copied())
}

/// Every trial key of a batch, in the runner's queue order.
#[cfg(test)]
pub fn trial_keys(shape: &Shape, seeds: &[u64]) -> Vec<TrialKey> {
    let prepared = campaign(shape, seeds)
        .prepare()
        .expect("a campaign without a store cannot fail to prepare");
    (0..prepared.pending())
        .map(|i| prepared.pending_key(i).clone())
        .collect()
}

/// One bench-driven campaign run and the clocks read around it.
pub struct Pass {
    /// The report `finish` aggregated.
    pub report: CampaignReport,
    /// Executor statistics, with the cache counters filled in as
    /// [`Campaign::try_run_with_stats`] fills them.
    pub stats: ExecStats,
    /// Wall time from before `prepare` to after `finish`.
    pub wall: Duration,
    /// Wall time of `prepare` (grid enumeration, store open and scan).
    pub prepare: Duration,
    /// Process CPU time (user + system) over the same interval.
    pub cpu: Duration,
    /// Peak RSS over the same interval, from a trimmed heap, in MiB.
    pub peak_rss_mb: f64,
    /// Wall nanoseconds of each `Protocol::run`, in completion order.
    pub run_nanos: Vec<u64>,
    /// Wall nanoseconds of each `PreparedRun::commit`.
    pub commit_nanos: Vec<u64>,
    /// Each computed trial's key and record, in queue order.
    pub computed: Vec<(TrialKey, TrialRecord)>,
}

impl Pass {
    /// The run's set-up time: `prepare` plus the graph and partition
    /// builds of the instance cache.
    pub fn setup(&self) -> Duration {
        self.prepare + Duration::from_nanos(self.stats.setup_nanos)
    }

    /// Computed trials whose record did not validate.
    pub fn invalid(&self) -> usize {
        self.computed.iter().filter(|(_, r)| !r.valid).count()
    }
}

/// Runs one batch through the runner's split API, with `store` (if
/// any) attached.
pub fn run_pass(shape: &Shape, seeds: &[u64], store: Option<&Path>) -> Result<Pass, String> {
    let samples = Arc::new(Mutex::new(Vec::new()));
    let timed = shape.protocols.iter().map(|k| {
        Arc::new(Timed {
            inner: registered(k),
            samples: Arc::clone(&samples),
        }) as Arc<dyn Protocol>
    });
    let mut campaign = Campaign::new()
        .protocols(timed)
        .graphs(shape.graphs.iter().copied())
        .seeds(seeds.iter().copied());
    if let Some(dir) = store {
        campaign = campaign.with_store(dir);
    }

    crate::stats::reset_peak_rss();
    let cpu_before = crate::stats::cpu_time();
    let started = Instant::now();
    let prepared = campaign
        .prepare()
        .map_err(|e| format!("prepare failed: {e}"))?;
    let prepare = started.elapsed();
    let cache = InstanceCache::new();
    let work = |&i: &usize| {
        let record = prepared.run_pending(i, &cache);
        let kept = record.clone();
        let commit_started = Instant::now();
        let committed = prepared.commit(i, record);
        (kept, commit_started.elapsed().as_nanos() as u64, committed)
    };
    let indices: Vec<usize> = (0..prepared.pending()).collect();
    let results: Vec<_> = if prepared.parallel() {
        indices.par_iter().map(work).collect()
    } else {
        indices.iter().map(work).collect()
    };
    let (report, stats) = finish(&prepared, cache.stats());
    let wall = started.elapsed();
    let cpu = crate::stats::cpu_time().saturating_sub(cpu_before);
    let peak_rss_mb = crate::stats::peak_rss_mb();

    let mut computed = Vec::with_capacity(results.len());
    let mut commit_nanos = Vec::with_capacity(results.len());
    for (i, (record, nanos, committed)) in results.into_iter().enumerate() {
        committed.map_err(|e| format!("store append failed: {e}"))?;
        computed.push((prepared.pending_key(i).clone(), record));
        commit_nanos.push(nanos);
    }
    let run_nanos = std::mem::take(&mut *samples.lock().expect("sample list poisoned"));
    Ok(Pass {
        report,
        stats,
        wall,
        prepare,
        cpu,
        peak_rss_mb,
        run_nanos,
        commit_nanos,
        computed,
    })
}

fn finish(prepared: &PreparedRun, cs: CacheStats) -> (CampaignReport, ExecStats) {
    let (report, mut stats) = prepared.finish();
    stats.graphs_requested = cs.graphs_requested;
    stats.graphs_built = cs.graphs_built;
    stats.partitions_requested = cs.partitions_requested;
    stats.partitions_built = cs.partitions_built;
    stats.setup_nanos = cs.setup_nanos;
    (report, stats)
}

/// The plain `Campaign::run_with_stats` of the same batch over the
/// bare registry protocols, with `store` (if any) attached.
pub fn reference(
    shape: &Shape,
    seeds: &[u64],
    store: Option<&Path>,
) -> (CampaignReport, ExecStats) {
    let mut campaign = campaign(shape, seeds);
    if let Some(dir) = store {
        campaign = campaign.with_store(dir);
    }
    campaign.run_with_stats()
}

/// The correctness gate between a measured pass and the plain run:
/// the CSV (and the full JSON, which carries every trial record) must
/// be byte-identical, and both runs must have skipped and computed
/// the same trials.
pub fn check_same_as_reference(
    pass: &Pass,
    reference: &(CampaignReport, ExecStats),
) -> Result<(), String> {
    let (report, stats) = reference;
    if pass.report.to_csv() != report.to_csv() {
        return Err(format!(
            "measured report CSV differs from plain Campaign::run_with_stats:\n{}\nvs\n{}",
            pass.report.to_csv(),
            report.to_csv()
        ));
    }
    if pass.report.to_json() != report.to_json() {
        return Err("measured trial records differ from plain Campaign::run_with_stats".into());
    }
    if (pass.stats.trials_computed, pass.stats.trials_skipped)
        != (stats.trials_computed, stats.trials_skipped)
    {
        return Err(format!(
            "measured run computed/skipped {}/{} trials, plain run {}/{}",
            pass.stats.trials_computed,
            pass.stats.trials_skipped,
            stats.trials_computed,
            stats.trials_skipped
        ));
    }
    Ok(())
}

/// One batch's inputs: its trial seeds and, for resumed workloads,
/// the records its store starts with.
pub struct BatchInput {
    /// The batch's trial seeds.
    pub seeds: Vec<u64>,
    stored: Option<Vec<Entry>>,
}

impl BatchInput {
    /// Batch `batch` of a run with benchmark seed `bench_seed`. A
    /// resumed workload's store starts with the records `previous`
    /// (the pass of batch `batch − 1`) computed; without one, an
    /// untimed plain run computes them.
    pub fn new(
        shape: &Shape,
        bench_seed: u64,
        batch: u64,
        previous: Option<&Pass>,
        work: &WorkDir,
    ) -> Result<BatchInput, String> {
        let seeds = batch_seeds(shape, bench_seed, batch);
        let stored = match (shape.resume, previous) {
            (false, _) => None,
            (true, Some(pass)) => Some(
                pass.computed
                    .iter()
                    .map(|(key, record)| Entry {
                        key: key.clone(),
                        record_json: record.to_json(),
                    })
                    .collect(),
            ),
            (true, None) => {
                let dir = work.fresh();
                campaign(shape, &seeds[..shape.seeds_per_batch / 2])
                    .with_store(&dir)
                    .try_run_with_stats()
                    .map_err(|e| format!("populating the store failed: {e}"))?;
                let store =
                    Store::open_existing(&dir).map_err(|e| format!("reopen failed: {e}"))?;
                Some(store.iter().cloned().collect())
            }
        };
        Ok(BatchInput { seeds, stored })
    }

    /// A fresh store holding the batch's starting records, if it has
    /// any.
    pub fn store(&self, work: &WorkDir) -> Result<Option<PathBuf>, String> {
        let Some(entries) = &self.stored else {
            return Ok(None);
        };
        let dir = work.fresh();
        let mut store =
            Store::open_or_create(&dir).map_err(|e| format!("cannot create a store: {e}"))?;
        for e in entries {
            store
                .append(e.key.clone(), e.record_json.clone())
                .map_err(|e| format!("cannot seed the store: {e}"))?;
        }
        store
            .flush()
            .map_err(|e| format!("cannot seed the store: {e}"))?;
        Ok(Some(dir))
    }

    /// One measured pass over the batch, from its starting state.
    pub fn pass(&self, shape: &Shape, work: &WorkDir) -> Result<Pass, String> {
        let store = self.store(work)?;
        run_pass(shape, &self.seeds, store.as_deref())
    }

    /// Runs the plain `Campaign::run_with_stats` of the batch from the
    /// same starting state and gates every pass against it.
    pub fn check(&self, shape: &Shape, work: &WorkDir, passes: &[&Pass]) -> Result<(), String> {
        let store = self.store(work)?;
        let plain = reference(shape, &self.seeds, store.as_deref());
        passes
            .iter()
            .try_for_each(|pass| check_same_as_reference(pass, &plain))
    }
}

/// Scratch directories for the persistent stores of one benchmark
/// process, removed when dropped.
pub struct WorkDir {
    root: PathBuf,
    next: AtomicU64,
}

impl WorkDir {
    /// A fresh scratch root under `parent`.
    pub fn new(parent: &Path) -> Result<WorkDir, String> {
        static ROOTS: AtomicU64 = AtomicU64::new(0);
        let root = parent.join(format!(
            "campaign-bench-{}-{}",
            std::process::id(),
            ROOTS.fetch_add(1, Ordering::Relaxed)
        ));
        if root.exists() {
            std::fs::remove_dir_all(&root)
                .map_err(|e| format!("cannot clear {}: {e}", root.display()))?;
        }
        std::fs::create_dir_all(&root)
            .map_err(|e| format!("cannot create {}: {e}", root.display()))?;
        Ok(WorkDir {
            root,
            next: AtomicU64::new(0),
        })
    }

    /// A path for a new store directory (not yet created).
    pub fn fresh(&self) -> PathBuf {
        let next = self.next.fetch_add(1, Ordering::Relaxed);
        self.root.join(format!("store-{next}"))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        // Best effort: a leftover scratch directory is harmless.
        let _ = std::fs::remove_dir_all(&self.root);
    }
}
