//! The traced run: per-layer numbers for the same trials the
//! untraced run measures.
//!
//! Each batch runs three times from the same starting state —
//! untraced, traced, and as a plain `Campaign::run_with_stats` that
//! both must match. The traced pass yields the runner's spans and the
//! obs histograms and counters. Every trial it computed is then
//! *recomposed* from public calls — `GraphSpec::build` →
//! `Partitioner::split` → `PartyInput` → `run_two_party_ctx` with the
//! registry's party functions → the validators — with the
//! benchmark's clock around each call. A recomposed trial must
//! reproduce the runner's record exactly; if it does not, the run
//! fails instead of reporting layers of a different computation.

use crate::report::Values;
use crate::stats::{mean, median};
use crate::workload::{run_pass, BatchInput, Pass, Shape, WorkDir};
use bichrome_comm::session::{run_two_party_ctx, PartyCtx};
use bichrome_comm::{BitWriter, CommStats};
use bichrome_core::baselines::{greedy_binary_search, send_everything};
use bichrome_core::edge::{theorem2_party, two_delta::two_delta_party};
use bichrome_core::input::PartyInput;
use bichrome_core::rct::RctConfig;
use bichrome_core::vertex::vertex_coloring_party;
use bichrome_graph::coloring::{EdgeColoring, VertexColoring};
use bichrome_graph::partition::Partitioner;
use bichrome_runner::campaign::DEFAULT_PARTITIONER_LABEL;
use bichrome_runner::{seeds, GraphSpec, Instance, Outcome, TrialRecord};
use bichrome_store::{Store, TrialKey};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Capacity of the obs span ring: a drain that returns this many
/// spans may have lost older ones to eviction.
const RING_CAPACITY: usize = 65_536;

/// What a traced run measured.
pub struct Layers {
    /// Every per-layer metric.
    pub values: Values,
    /// Trials computed by the untraced and traced passes.
    pub attempted: u64,
    /// Of those, trials whose record did not validate.
    pub failed: u64,
    /// Trials recomposed from public calls (all matched the runner).
    pub recomposed: usize,
    /// Batches run.
    pub batches: usize,
}

/// One batch of the traced run.
struct Batch {
    untraced: Pass,
    traced: Pass,
    /// Busy microseconds per worker thread (from `trial/run` spans).
    busy_us: Vec<u64>,
    spans_dropped: u64,
    /// Deltas of the obs store instruments over the traced pass.
    flushes: u64,
    flush_nanos: u64,
    /// `Store::open_existing` on the batch's starting store.
    open: Option<Duration>,
}

/// Runs traced batches of `shape` until the untraced plus traced
/// passes reach `seconds` (at least one batch).
///
/// # Errors
///
/// A store failure, a report that differs from the plain run, a
/// recomposed trial that differs from the runner's record, or a span
/// the trace ring dropped.
pub fn run(shape: &Shape, seed: u64, seconds: f64, work: &WorkDir) -> Result<Layers, String> {
    let budget = Duration::from_secs_f64(seconds);
    let mut batches = Vec::new();
    let mut ledgers = Vec::new();
    let mut measured = Duration::ZERO;
    for index in 0.. {
        if index > 0 && measured >= budget {
            break;
        }
        let previous = batches.last().map(|b: &Batch| &b.traced);
        let input = BatchInput::new(shape, seed, index, previous, work)?;
        let batch = traced_batch(shape, &input, work)?;
        let mut scratch = match shape.resume {
            true => Some(
                Store::open_or_create(work.fresh())
                    .map_err(|e| format!("cannot open a scratch store: {e}"))?,
            ),
            false => None,
        };
        let threads = batch.traced.stats.intra_threads.max(1) as usize;
        for (key, record) in &batch.traced.computed {
            ledgers.push(recompose(key, record, threads, scratch.as_mut())?);
        }
        measured += batch.untraced.wall + batch.traced.wall;
        batches.push(batch);
    }
    let dropped: u64 = batches.iter().map(|b| b.spans_dropped).sum();
    if dropped > 0 {
        return Err(format!(
            "the trace ring dropped {dropped} spans; the traced numbers are incomplete"
        ));
    }
    Ok(summarize(shape, &batches, &ledgers))
}

fn traced_batch(shape: &Shape, input: &BatchInput, work: &WorkDir) -> Result<Batch, String> {
    let untraced = input.pass(shape, work)?;

    // The starting store is written before the store counters are
    // read, so they count the traced run's own appends only.
    let store = input.store(work)?;
    let flushes = bichrome_obs::counter("bichrome_store_flushes_total");
    let flush_time = bichrome_obs::histogram("bichrome_store_flush_nanos");
    let before = (flushes.get(), flush_time.sum());
    bichrome_obs::clear_spans();
    bichrome_obs::set_tracing(true);
    let traced = run_pass(shape, &input.seeds, store.as_deref());
    bichrome_obs::set_tracing(false);
    let spans = bichrome_obs::span_events();
    bichrome_obs::clear_spans();
    let traced = traced?;
    let after = (flushes.get(), flush_time.sum());

    input.check(shape, work, &[&untraced, &traced])?;

    // Busy time per worker thread. The executor's threads are fresh
    // per pass, so every span tid of this drain is one of its workers.
    let mut busy: BTreeMap<u64, u64> = BTreeMap::new();
    let mut runs = 0u64;
    for s in spans.iter().filter(|s| s.name == "trial/run") {
        *busy.entry(s.tid).or_default() += s.dur_us;
        runs += 1;
    }
    let mut busy_us: Vec<u64> = busy.into_values().collect();
    let workers = rayon::current_num_threads().min(traced.stats.trials_computed as usize);
    busy_us.resize(busy_us.len().max(workers), 0);
    let spans_dropped =
        traced.stats.trials_computed.saturating_sub(runs) + u64::from(spans.len() >= RING_CAPACITY);

    let open = match input.store(work)? {
        Some(dir) => {
            let started = Instant::now();
            let store = Store::open_existing(&dir).map_err(|e| format!("reopen failed: {e}"))?;
            let open = started.elapsed();
            if store.len() as u64 != traced.stats.trials_skipped {
                return Err(format!(
                    "the starting store holds {} records, the run skipped {}",
                    store.len(),
                    traced.stats.trials_skipped
                ));
            }
            Some(open)
        }
        None => None,
    };

    Ok(Batch {
        untraced,
        traced,
        busy_us,
        spans_dropped,
        flushes: after.0 - before.0,
        flush_nanos: after.1 - before.1,
        open,
    })
}

/// The benchmark's clocks around one recomposed trial.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    gen: Duration,
    partition: Duration,
    input: Duration,
    /// `run_two_party_ctx` wall time; `None` for the zero-communication
    /// protocol, whose parties compute locally without a session.
    session: Option<Duration>,
    alice: Duration,
    bob: Duration,
    validate: Duration,
    append: Duration,
    /// The whole recomposed trial, glue included.
    wall: Duration,
    m: usize,
    rounds: u64,
    bits: u64,
}

impl Ledger {
    /// The parties' compute, through the session when there is one.
    fn compute(&self) -> Duration {
        self.session.unwrap_or(self.alice + self.bob)
    }

    /// The time the named layers account for.
    fn attributed(&self) -> Duration {
        self.gen + self.partition + self.input + self.compute() + self.validate + self.append
    }
}

/// Runs `f` and returns its result with its wall time.
fn clock<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let started = Instant::now();
    let r = f();
    (r, started.elapsed())
}

/// A party closure that also reports its own wall time.
fn stopwatch<R>(f: impl FnOnce(PartyCtx) -> R) -> impl FnOnce(PartyCtx) -> (R, Duration) {
    move |ctx| clock(|| f(ctx))
}

/// Runs both parties through `run_two_party_ctx`, recording the
/// session's and each party's wall time in `ledger`.
fn session<A: Send, B: Send>(
    seed: u64,
    alice: impl FnOnce(PartyCtx) -> A + Send,
    bob: impl FnOnce(PartyCtx) -> B + Send,
    ledger: &mut Ledger,
) -> (A, B, CommStats) {
    let (((a, alice_time), (b, bob_time), stats), wall) =
        clock(|| run_two_party_ctx(seed, stopwatch(alice), stopwatch(bob)));
    ledger.session = Some(wall);
    ledger.alice = alice_time;
    ledger.bob = bob_time;
    (a, b, stats)
}

/// A vertex protocol's outcome, as the registry assembles it.
fn vertex_outcome(
    inst: &Instance,
    (alice, bob, stats): (VertexColoring, VertexColoring, CommStats),
    disagree: &str,
    ledger: &mut Ledger,
) -> Outcome {
    if alice != bob {
        return Outcome::failed(disagree, stats);
    }
    let (outcome, validate) =
        clock(|| Outcome::vertex(inst.graph(), alice, stats, inst.delta() + 1));
    ledger.validate = validate;
    outcome
}

/// An edge protocol's outcome, as the registry assembles it: both
/// sides merged densely over the whole graph, then validated.
fn edge_outcome(
    inst: &Instance,
    (alice, bob, stats): (EdgeColoring, EdgeColoring, CommStats),
    budget: usize,
    ledger: &mut Ledger,
) -> Outcome {
    let (outcome, validate) = clock(|| {
        let mut merged = EdgeColoring::dense_for(inst.graph());
        for side in [&alice, &bob] {
            if let Err(e) = merged.merge(side) {
                return Outcome::failed(format!("parties both colored {e}"), stats.clone());
            }
        }
        Outcome::edge(inst.graph(), merged, stats.clone(), Some(budget))
    });
    ledger.validate = validate;
    outcome
}

/// Rebuilds the trial `key` names from public calls under the
/// executor's intra-trial budget `threads`, appending its record to
/// `store` if given, and checks the result against the runner's
/// `record`.
pub(crate) fn recompose(
    key: &TrialKey,
    record: &TrialRecord,
    threads: usize,
    store: Option<&mut Store>,
) -> Result<Ledger, String> {
    let spec: GraphSpec = key
        .graph
        .parse()
        .map_err(|e| format!("unparsable graph {:?}: {e}", key.graph))?;
    if key.partitioner != DEFAULT_PARTITIONER_LABEL {
        return Err(format!("unexpected partitioner {:?}", key.partitioner));
    }
    let mut ledger = Ledger::default();
    let started = Instant::now();

    let (graph, gen) = clock(|| spec.build(seeds::graph_seed(key.seed)));
    let (partition, split) =
        clock(|| Partitioner::Random(seeds::partition_seed(key.seed)).split(&graph));
    drop(graph);
    ledger.gen = gen;
    ledger.partition = split;
    let inst = Instance {
        label: spec.to_string(),
        partition: Arc::new(partition),
        trial_seed: key.seed,
        seed: seeds::protocol_seed(key.seed),
    };
    let ((a, b), input) = clock(|| {
        (
            PartyInput::alice(&inst.partition),
            PartyInput::bob(&inst.partition),
        )
    });
    ledger.input = input;

    let outcome = bichrome_comm::with_intra_budget(threads, || match key.protocol.as_str() {
        "vertex/theorem1" => {
            let cfg = RctConfig::default();
            let ((ca, rct), (cb, _), stats) = session(
                inst.seed,
                move |ctx| vertex_coloring_party(&a, &ctx, &cfg),
                move |ctx| vertex_coloring_party(&b, &ctx, &cfg),
                &mut ledger,
            );
            let disagree = "parties disagree on the vertex coloring";
            Ok(
                vertex_outcome(&inst, (ca, cb, stats), disagree, &mut ledger)
                    .with_metric("rct_remaining", rct.remaining as f64)
                    .with_metric("rct_iterations", rct.iterations_run as f64),
            )
        }
        "edge/theorem2" => {
            let parties = session(
                inst.seed,
                move |ctx| theorem2_party(&a, &ctx),
                move |ctx| theorem2_party(&b, &ctx),
                &mut ledger,
            );
            let budget = (2 * inst.delta()).saturating_sub(1).max(1);
            Ok(edge_outcome(&inst, parties, budget, &mut ledger))
        }
        "edge/theorem3-zero-comm" => {
            let (alice, alice_time) = clock(|| two_delta_party(&a));
            let (bob, bob_time) = clock(|| two_delta_party(&b));
            ledger.alice = alice_time;
            ledger.bob = bob_time;
            let budget = (2 * inst.delta()).max(1);
            let parties = (alice, bob, CommStats::default());
            Ok(edge_outcome(&inst, parties, budget, &mut ledger))
        }
        "baseline/greedy-binary-search" => {
            Ok(baseline(&inst, a, b, greedy_binary_search, &mut ledger))
        }
        "baseline/send-everything" => Ok(baseline(&inst, a, b, send_everything, &mut ledger)),
        other => Err(format!("no recomposition recipe for protocol {other:?}")),
    })?;
    let rebuilt = TrialRecord::from_outcome(&inst, outcome);
    if let Some(store) = store {
        let json = rebuilt.to_json();
        let (appended, append) = clock(|| store.append(key.clone(), json));
        appended.map_err(|e| format!("scratch store append failed: {e}"))?;
        ledger.append = append;
    }
    ledger.wall = started.elapsed();

    if &rebuilt != record {
        return Err(format!(
            "recomposed trial {key:?} differs from the runner's record:\n{rebuilt:?}\nvs\n{record:?}"
        ));
    }
    ledger.m = rebuilt.m;
    ledger.rounds = rebuilt.rounds;
    ledger.bits = rebuilt.total_bits();
    Ok(ledger)
}

fn baseline(
    inst: &Instance,
    a: PartyInput,
    b: PartyInput,
    party: fn(&PartyInput, &PartyCtx) -> VertexColoring,
    ledger: &mut Ledger,
) -> Outcome {
    let parties = session(
        inst.seed,
        move |ctx| party(&a, &ctx),
        move |ctx| party(&b, &ctx),
        ledger,
    );
    vertex_outcome(inst, parties, "baseline parties disagree", ledger)
}

/// Median wall time of a session whose parties do nothing.
fn empty_session_us() -> f64 {
    const SESSIONS: u64 = 300;
    let times: Vec<f64> = (0..SESSIONS)
        .map(|seed| {
            let ((), t) = clock(|| {
                let ((), (), _) = run_two_party_ctx(seed, |_| (), |_| ());
            });
            t.as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

/// Per-round time of an in-process `Endpoint::exchange` ping-pong
/// with a `bits`-bit message each way (median of a few repetitions).
fn exchange_us(bits: usize) -> f64 {
    const ROUNDS: usize = 5_000;
    let ping = move |ctx: PartyCtx| {
        let started = Instant::now();
        for _ in 0..ROUNDS {
            let mut w = BitWriter::new();
            for i in 0..bits {
                w.write_bit(i % 3 == 0);
            }
            let reply = ctx.endpoint.exchange(w.finish());
            assert_eq!(reply.len_bits(), bits, "peer message has the sent size");
        }
        started.elapsed()
    };
    let reps: Vec<f64> = (0..5)
        .map(|_| {
            let (alice, _, stats) = run_two_party_ctx(0, ping, ping);
            assert_eq!(stats.rounds, ROUNDS as u64);
            alice.as_secs_f64() * 1e6 / ROUNDS as f64
        })
        .collect();
    median(&reps)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn summarize(shape: &Shape, batches: &[Batch], ledgers: &[Ledger]) -> Layers {
    let traced: Vec<&Pass> = batches.iter().map(|b| &b.traced).collect();
    let trials: u64 = traced.iter().map(|p| p.stats.trials_computed).sum();
    let per_trial = |x: f64| x / trials as f64;
    let nb = batches.len();
    let nl = ledgers.len();
    let mut v = Values::default();

    // runner
    v.set(
        "runner.prepare_ms",
        mean(&traced.iter().map(|p| ms(p.prepare)).collect::<Vec<_>>()),
        format!("mean of {nb} prepares"),
    );
    let busy: f64 = batches.iter().flat_map(|b| &b.busy_us).sum::<u64>() as f64;
    let capacity: f64 = batches
        .iter()
        .map(|b| b.busy_us.len() as f64 * b.traced.wall.as_secs_f64() * 1e6)
        .sum();
    v.set(
        "runner.worker_util",
        busy / capacity,
        "trial/run span time / (workers × wall)",
    );
    let imbalance: Vec<f64> = batches
        .iter()
        .map(|b| {
            let max = b.busy_us.iter().copied().max().unwrap_or(0);
            let min = b.busy_us.iter().copied().min().unwrap_or(0);
            if max == 0 {
                0.0
            } else {
                (max - min) as f64 / max as f64
            }
        })
        .collect();
    v.set(
        "runner.worker_imbalance",
        mean(&imbalance),
        format!("mean over {nb} batches of (max − min) / max busy"),
    );
    let requested: u64 = traced.iter().map(|p| p.stats.graphs_requested).sum();
    let built: u64 = traced.iter().map(|p| p.stats.graphs_built).sum();
    v.set(
        "runner.cache_hit_ratio",
        1.0 - built as f64 / requested.max(1) as f64,
        format!("{built} graphs built for {requested} requests"),
    );
    let setup: u64 = traced.iter().map(|p| p.stats.setup_nanos).sum();
    let execute: u64 = traced.iter().map(|p| p.stats.run_nanos).sum();
    v.set(
        "runner.setup_ms_per_trial",
        per_trial(setup as f64 / 1e6),
        "ExecStats::setup_nanos / trials",
    );
    v.set(
        "runner.execute_ms_per_trial",
        per_trial(execute as f64 / 1e6),
        "ExecStats::run_nanos / trials",
    );
    let intra = traced
        .iter()
        .map(|p| p.stats.intra_threads)
        .max()
        .unwrap_or(1);
    v.set(
        "runner.party_threads",
        (intra / 2).max(1) as f64,
        format!("ExecStats::intra_threads = {intra}, halved per party"),
    );

    // graph
    let total = |f: &dyn Fn(&Ledger) -> Duration| ledgers.iter().map(f).sum::<Duration>();
    let avg_ms = |f: &dyn Fn(&Ledger) -> Duration| ms(total(f)) / nl as f64;
    let medges: f64 = ledgers.iter().map(|l| l.m as f64).sum::<f64>() / 1e6;
    let lnote = format!("mean over {nl} recomposed trials");
    v.set("graph.gen_ms", avg_ms(&|l| l.gen), lnote.clone());
    v.set(
        "graph.gen_medges_per_s",
        medges / total(&|l| l.gen).as_secs_f64(),
        "GraphSpec::build",
    );
    v.set(
        "graph.partition_ms",
        avg_ms(&|l| l.partition),
        lnote.clone(),
    );
    v.set("graph.validate_ms", avg_ms(&|l| l.validate), lnote.clone());
    v.set(
        "graph.validate_medges_per_s",
        medges / total(&|l| l.validate).as_secs_f64(),
        "merge + validator",
    );

    // core
    v.set("core.input_ms", avg_ms(&|l| l.input), lnote.clone());
    v.set(
        "core.party_ms",
        ms(total(&|l| l.alice + l.bob)) / (2 * nl) as f64,
        format!("mean over {} party runs", 2 * nl),
    );
    let sessions: Vec<&Ledger> = ledgers.iter().filter(|l| l.session.is_some()).collect();
    let ns = sessions.len().max(1) as f64;
    v.set(
        "core.party_skew_ms",
        sessions
            .iter()
            .map(|l| ms(l.alice.abs_diff(l.bob)))
            .sum::<f64>()
            / ns,
        format!("mean |alice − bob| over {} sessions", sessions.len()),
    );
    let rct: Vec<f64> = traced
        .iter()
        .flat_map(|p| &p.computed)
        .filter_map(|(_, r)| r.metrics.get("rct_remaining").map(|x| x / r.n as f64))
        .collect();
    v.set(
        "core.rct_remaining_ratio",
        mean(&rct),
        format!("mean over {} Theorem 1 trials", rct.len()),
    );

    // comm
    v.set(
        "comm.session_ms",
        sessions.iter().map(|l| ms(l.compute())).sum::<f64>() / ns,
        format!("mean over {} sessions", sessions.len()),
    );
    v.set(
        "comm.session_overhead_us",
        sessions
            .iter()
            .map(|l| l.compute().saturating_sub(l.alice.max(l.bob)).as_secs_f64() * 1e6)
            .sum::<f64>()
            / ns,
        "session wall − slower party",
    );
    v.set(
        "comm.empty_session_us",
        empty_session_us(),
        "median of 300 sessions with idle parties",
    );
    let rounds: u64 = ledgers.iter().map(|l| l.rounds).sum();
    let bits: u64 = ledgers.iter().map(|l| l.bits).sum();
    v.set(
        "comm.rounds",
        rounds as f64 / nl as f64,
        "CommStats::rounds, mean per trial",
    );
    v.set(
        "comm.bits",
        bits as f64 / nl as f64,
        "CommStats total bits, mean per trial",
    );
    let talking: Vec<&Ledger> = sessions.iter().copied().filter(|l| l.rounds > 0).collect();
    let round_total: u64 = talking.iter().map(|l| l.rounds).sum();
    let us_per_round = if round_total == 0 {
        0.0
    } else {
        talking
            .iter()
            .map(|l| (l.alice + l.bob).as_secs_f64() * 1e6 / 2.0)
            .sum::<f64>()
            / round_total as f64
    };
    v.set(
        "comm.us_per_round",
        us_per_round,
        format!("mean party time / rounds over {round_total} rounds"),
    );
    let message_bits = if round_total == 0 {
        1
    } else {
        let talking_bits: u64 = talking.iter().map(|l| l.bits).sum();
        ((talking_bits as f64 / round_total as f64 / 2.0).round() as usize).max(1)
    };
    let exchange = exchange_us(message_bits);
    v.set(
        "comm.exchange_us",
        exchange,
        format!("inproc ping-pong, {message_bits}-bit messages"),
    );
    v.set(
        "comm.round_overhead_us",
        if round_total == 0 {
            0.0
        } else {
            us_per_round - exchange
        },
        "us_per_round − exchange_us",
    );

    // store
    if shape.resume {
        let opens: Vec<f64> = batches.iter().filter_map(|b| b.open.map(ms)).collect();
        v.set(
            "store.open_ms",
            mean(&opens),
            format!("Store::open_existing, mean of {}", opens.len()),
        );
        let appends: Vec<f64> = traced
            .iter()
            .flat_map(|p| p.commit_nanos.iter().map(|&ns| ns as f64 / 1e3))
            .collect();
        v.set(
            "store.append_us",
            median(&appends),
            format!("PreparedRun::commit, p50 of {}", appends.len()),
        );
        let flushes: u64 = batches.iter().map(|b| b.flushes).sum();
        let flush_nanos: u64 = batches.iter().map(|b| b.flush_nanos).sum();
        v.set(
            "store.flushes",
            per_trial(flushes as f64),
            format!("{flushes} flushes"),
        );
        v.set(
            "store.flush_ms",
            per_trial(flush_nanos as f64 / 1e6),
            "bichrome_store_flush_nanos sum per trial",
        );
    } else {
        for name in [
            "store.open_ms",
            "store.append_us",
            "store.flushes",
            "store.flush_ms",
        ] {
            v.set(name, 0.0, "no store in this workload");
        }
    }
    let skipped: u64 = traced.iter().map(|p| p.stats.trials_skipped).sum();
    v.set(
        "store.skipped_ratio",
        skipped as f64 / (skipped + trials) as f64,
        format!("{skipped} of {} trials", skipped + trials),
    );

    // obs and the ledger
    let wall_traced: Duration = traced.iter().map(|p| p.wall).sum();
    let wall_untraced: Duration = batches.iter().map(|b| b.untraced.wall).sum();
    v.set(
        "obs.trace_overhead_ratio",
        wall_traced.as_secs_f64() / wall_untraced.as_secs_f64() - 1.0,
        format!(
            "{:.3} s traced vs {:.3} s untraced",
            wall_traced.as_secs_f64(),
            wall_untraced.as_secs_f64()
        ),
    );
    v.set(
        "obs.spans_dropped",
        batches.iter().map(|b| b.spans_dropped).sum::<u64>() as f64,
        "trial/run spans missing from the drained ring",
    );
    let attributed = total(&|l| l.attributed());
    let wall = total(&|l| l.wall);
    v.set(
        "ledger.unattributed_ratio",
        1.0 - attributed.as_secs_f64() / wall.as_secs_f64(),
        "1 − (gen + partition + input + session + validate + append) / wall",
    );

    let untraced_trials: u64 = batches
        .iter()
        .map(|b| b.untraced.stats.trials_computed)
        .sum();
    let failed: u64 = batches
        .iter()
        .map(|b| (b.untraced.invalid() + b.traced.invalid()) as u64)
        .sum();
    Layers {
        values: v,
        attempted: trials + untraced_trials,
        failed,
        recomposed: nl,
        batches: nb,
    }
}
