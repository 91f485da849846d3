//! The bichrome campaign benchmark.
//!
//! ```text
//! cargo run --release --manifest-path campaign-bench/Cargo.toml -- \
//!     --workload <thm1-gnp|grid-resume> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics with tracing off; `--trace 1` runs the same trials traced
//! and reports the per-layer metrics. Either way the last line of
//! standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`, and the process exits non-zero
//! if any trial is invalid or any check fails. Store scratch space
//! lives under `.bench_build/` in the working directory and is
//! removed on exit. See `README.md` next to this file.

mod e2e;
mod layers;
mod report;
mod stats;
mod workload;

use report::{END_TO_END, PER_LAYER};
use std::path::Path;
use std::process::ExitCode;
use workload::{Scale, WorkDir, Workload};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Always [`Scale::Full`] from the command line; tests run tiny.
    scale: Scale,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad seconds {value:?}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: Scale::Full,
    })
}

/// The human lines and the result line of one run.
struct Printed {
    text: String,
    json: String,
    ok: bool,
}

fn execute(args: &Args, work: &WorkDir) -> Result<Printed, String> {
    let shape = args.workload.shape(args.scale);
    let header = format!(
        "# host: {}\n# run: workload={} seed={} seconds={} trace={} scale={:?}\n",
        stats::provenance(),
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.scale,
    );
    if args.trace {
        let l = layers::run(&shape, args.seed, args.seconds, work)?;
        let text = format!(
            "{header}# trials: {} computed over {} batches (untraced + traced), {} recomposed from public calls and matched\n{}",
            l.attempted,
            l.batches,
            l.recomposed,
            report::render_lines(&PER_LAYER, &l.values)
        );
        let ok = l.failed == 0;
        let json = report::render_json(&PER_LAYER, &l.values, ok, l.attempted, l.failed)?;
        Ok(Printed { text, json, ok })
    } else {
        let e = e2e::run(&shape, args.seed, args.seconds, work)?;
        let text = format!(
            "{header}# trials: {} computed, {} skipped via store, over {} batches\n{}{:<30} = {} ratio  ({} invalid of {} attempted)\n",
            e.attempted,
            e.skipped,
            e.batches,
            report::render_lines(&END_TO_END, &e.values),
            "failed_ratio",
            e.failed as f64 / e.attempted as f64,
            e.failed,
            e.attempted,
        );
        let ok = e.failed == 0;
        let json = report::render_json(&END_TO_END, &e.values, ok, e.attempted, e.failed)?;
        Ok(Printed { text, json, ok })
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("campaign-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = match WorkDir::new(Path::new(".bench_build")) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("campaign-bench: {e}");
            return ExitCode::from(2);
        }
    };
    match execute(&args, &work) {
        Ok(p) => {
            print!("{}", p.text);
            println!("{}", p.json);
            if p.ok {
                ExitCode::SUCCESS
            } else {
                eprintln!("campaign-bench: some trials were invalid");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("campaign-bench: check failed: {e}");
            println!("{}", report::render_failure(1, 1));
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests;
