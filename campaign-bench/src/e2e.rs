//! The untraced run: batches of the workload, timed from outside the
//! runner, until the measured time reaches the run length.

use crate::report::Values;
use crate::stats::{self, median, tail};
use crate::workload::{BatchInput, Pass, Shape, WorkDir};
use std::time::Duration;

/// What an untraced run measured.
pub struct EndToEnd {
    /// Every end-to-end metric.
    pub values: Values,
    /// Trials computed by the measured passes.
    pub attempted: u64,
    /// Of those, trials whose record did not validate.
    pub failed: u64,
    /// Trials served from the store instead.
    pub skipped: u64,
    /// Batches run.
    pub batches: usize,
}

/// Runs batches of `shape` until their measured wall time reaches
/// `seconds` (at least one batch), gating each against the plain run.
///
/// # Errors
///
/// A store failure, or a measured report that differs from the plain
/// `Campaign::run_with_stats` of the same batch.
pub fn run(shape: &Shape, seed: u64, seconds: f64, work: &WorkDir) -> Result<EndToEnd, String> {
    let budget = Duration::from_secs_f64(seconds);
    let mut passes: Vec<Pass> = Vec::new();
    let mut measured = Duration::ZERO;
    for batch in 0.. {
        if batch > 0 && measured >= budget {
            break;
        }
        let input = BatchInput::new(shape, seed, batch, passes.last(), work)?;
        let pass = input.pass(shape, work)?;
        input.check(shape, work, &[&pass])?;
        measured += pass.wall;
        passes.push(pass);
    }
    Ok(summarize(&passes))
}

fn summarize(passes: &[Pass]) -> EndToEnd {
    let computed: u64 = passes.iter().map(|p| p.stats.trials_computed).sum();
    let skipped: u64 = passes.iter().map(|p| p.stats.trials_skipped).sum();
    let failed: u64 = passes.iter().map(|p| p.invalid() as u64).sum();
    let wall: Duration = passes.iter().map(|p| p.wall).sum();
    let cpu: Duration = passes.iter().map(|p| p.cpu).sum();
    let latencies: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.run_nanos.iter().map(|&ns| ns as f64 / 1e6))
        .collect();
    let setups: Vec<f64> = passes.iter().map(|p| p.setup().as_secs_f64()).collect();
    let records: Vec<_> = passes
        .iter()
        .flat_map(|p| p.computed.iter().map(|(_, r)| r))
        .collect();
    let per_record = |f: &dyn Fn(&bichrome_runner::TrialRecord) -> f64| {
        stats::mean(&records.iter().map(|r| f(r)).collect::<Vec<_>>())
    };

    let mut v = Values::default();
    let n = latencies.len();
    v.set(
        "trials_per_s",
        computed as f64 / wall.as_secs_f64(),
        format!("{computed} trials in {:.3} s wall", wall.as_secs_f64()),
    );
    v.set("trial_ms_p50", median(&latencies), format!("p50, n={n}"));
    let t = tail(&latencies);
    let which = if t.beyond == 0 {
        format!("max: n={n} leaves no ladder percentile with ten samples beyond it")
    } else {
        format!("p{}, n={n}, {} beyond", t.percentile, t.beyond)
    };
    v.set("trial_ms_tail", t.value, which);
    v.set(
        "cpu_ms_per_trial",
        cpu.as_secs_f64() * 1e3 / computed as f64,
        format!("{:.3} s user+sys over {computed} trials", cpu.as_secs_f64()),
    );
    v.set(
        "setup_s",
        median(&setups),
        format!(
            "median of {} set-ups (prepare + instance builds)",
            setups.len()
        ),
    );
    let peaks: Vec<f64> = passes.iter().map(|p| p.peak_rss_mb).collect();
    v.set(
        "peak_rss_mb",
        median(&peaks),
        format!(
            "median over {} runs of the peak RSS during the run",
            peaks.len()
        ),
    );
    v.set(
        "bits_per_vertex",
        per_record(&|r| r.total_bits() as f64 / r.n as f64),
        format!("mean over {} trials", records.len()),
    );
    v.set(
        "rounds_per_trial",
        per_record(&|r| r.rounds as f64),
        format!("mean over {} trials", records.len()),
    );
    EndToEnd {
        values: v,
        attempted: computed,
        failed,
        skipped,
        batches: passes.len(),
    }
}
