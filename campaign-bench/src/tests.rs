//! The benchmark's own tests: determinism of the trial list, metric
//! names in step with `BENCHMARK.json`, and a tiny smoke of every
//! workload through the correctness gate, the traced mode and the
//! recomposition check.

use super::*;
use crate::workload::{batch_seeds, run_pass, trial_keys, BatchInput};
use bichrome_runner::json::Value;
use std::path::PathBuf;

fn test_work() -> WorkDir {
    let parent = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/test-work");
    WorkDir::new(&parent).expect("test scratch directory")
}

fn keys_for(w: Workload, seed: u64) -> Vec<bichrome_store::TrialKey> {
    let shape = w.shape(Scale::Full);
    (0..2)
        .flat_map(|batch| trial_keys(&shape, &batch_seeds(&shape, seed, batch)))
        .collect()
}

#[test]
fn same_seed_gives_the_same_trial_keys_and_another_seed_other_keys() {
    for w in Workload::ALL {
        let a = keys_for(w, 7);
        assert!(!a.is_empty());
        assert_eq!(a, keys_for(w, 7), "{}: same seed, same trials", w.name());
        assert_ne!(a, keys_for(w, 8), "{}: new seed, new trials", w.name());
    }
    // Batches of one run never repeat a trial.
    let shape = Workload::Thm1Gnp.shape(Scale::Full);
    let seeds: Vec<u64> = (0..50).flat_map(|b| batch_seeds(&shape, 1, b)).collect();
    let mut unique = seeds.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), seeds.len());
}

fn declared(doc: &Value, section: &str) -> Vec<(String, String, String)> {
    let Some(Value::Array(items)) = doc.as_object().and_then(|o| o.get(section)) else {
        panic!("BENCHMARK.json has no {section} list");
    };
    items
        .iter()
        .map(|m| {
            let o = m.as_object().expect("metric entry is an object");
            let field = |k: &str| o[k].as_str().expect("string field").to_string();
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn metric_names_match_benchmark_json() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let doc = Value::parse(&text).expect("BENCHMARK.json parses");
    for (section, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let ours: Vec<(String, String, String)> = defs
            .iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.as_str().into()))
            .collect();
        assert_eq!(ours, declared(&doc, section), "{section} differs");
        for d in defs {
            assert!(valid_name(d.name), "bad metric name {:?}", d.name);
        }
    }
    let Some(Value::Array(workloads)) = doc.as_object().and_then(|o| o.get("workloads")) else {
        panic!("BENCHMARK.json has no workloads list");
    };
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| {
            w.as_object().expect("workload entry")["name"]
                .as_str()
                .expect("name")
        })
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn arguments_parse_and_reject() {
    let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let a = parse_args(argv(
        "--workload grid-resume --seed 3 --seconds 10 --trace 1",
    ))
    .expect("ok");
    assert_eq!(a.workload, Workload::GridResume);
    assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, true));
    for bad in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload thm1-gnp --seed x --seconds 1 --trace 0",
        "--workload thm1-gnp --seed 1 --seconds 1 --trace 2",
        "--workload thm1-gnp --seed 1 --trace 0",
        "--workload thm1-gnp --seed 1 --seconds 1 --trace",
    ] {
        assert!(parse_args(argv(bad)).is_err(), "{bad}");
    }
}

#[test]
fn the_gate_rejects_a_report_of_other_trials() {
    let work = test_work();
    let shape = Workload::GridResume.shape(Scale::Tiny);
    let input = BatchInput::new(&shape, 1, 0, None, &work).expect("batch");
    let other = BatchInput::new(&shape, 2, 0, None, &work).expect("batch");
    let pass = input.pass(&shape, &work).expect("pass");
    input
        .check(&shape, &work, &[&pass])
        .expect("same trials pass");
    assert!(other.check(&shape, &work, &[&pass]).is_err());
}

#[test]
fn a_resumed_batch_starts_from_what_the_previous_batch_computed() {
    let work = test_work();
    let shape = Workload::GridResume.shape(Scale::Tiny);
    let first = BatchInput::new(&shape, 3, 0, None, &work).expect("batch");
    let pass = first.pass(&shape, &work).expect("pass");
    first
        .check(&shape, &work, &[&pass])
        .expect("first batch matches");
    let second = BatchInput::new(&shape, 3, 1, Some(&pass), &work).expect("batch");
    assert_eq!(
        second.seeds[..shape.seeds_per_batch / 2],
        first.seeds[shape.seeds_per_batch / 2..]
    );
    let resumed = second.pass(&shape, &work).expect("pass");
    second
        .check(&shape, &work, &[&resumed])
        .expect("second batch matches");
    assert_eq!(resumed.stats.trials_skipped, pass.stats.trials_computed);
    assert_eq!(resumed.stats.trials_computed, pass.stats.trials_computed);
}

#[test]
fn recomposition_rejects_a_record_it_does_not_reproduce() {
    let shape = Workload::Thm1Gnp.shape(Scale::Tiny);
    let pass = run_pass(&shape, &batch_seeds(&shape, 5, 0)[..1], None).expect("pass");
    let (key, record) = &pass.computed[0];
    layers::recompose(key, record, 1, None).expect("the runner's own record matches");
    let mut tampered = record.clone();
    tampered.bits_alice_to_bob += 1;
    assert!(layers::recompose(key, &tampered, 1, None).is_err());
}

/// Every workload at tiny size, untraced and traced, in one test:
/// the traced run owns the process-wide span ring while it runs.
#[test]
fn every_workload_passes_both_modes_at_tiny_size() {
    let work = test_work();
    for w in Workload::ALL {
        let args = |trace| Args {
            workload: w,
            seed: 11,
            seconds: 0.0,
            trace,
            scale: Scale::Tiny,
        };
        for (trace, defs) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let printed = execute(&args(trace), &work)
                .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", w.name()));
            assert!(printed.ok, "{} trace={trace}", w.name());
            assert!(printed.text.contains("# host: nproc="));
            let doc = Value::parse(&printed.json).expect("result line is JSON");
            let o = doc.as_object().expect("object");
            let keys: Vec<&str> = o.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(o["correct"], Value::Bool(true));
            assert!(o["attempted"].as_u64().expect("count") >= 1);
            assert_eq!(o["failed"].as_u64(), Some(0));
            let metrics = o["metrics"].as_object().expect("metrics");
            let mut expected: Vec<&str> = defs.iter().map(|d| d.name).collect();
            expected.sort_unstable();
            assert_eq!(
                metrics.keys().map(String::as_str).collect::<Vec<_>>(),
                expected
            );
            if trace {
                assert_eq!(
                    metrics["obs.spans_dropped"].as_object().expect("m")["value"].as_f64(),
                    Some(0.0)
                );
            }
        }
    }
}
