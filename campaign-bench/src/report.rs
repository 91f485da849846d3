//! Metric definitions and the result line.
//!
//! The names, units and directions here are the ones `BENCHMARK.json`
//! declares; a test keeps the two in step.

use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's declared identity.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name in the result line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// Metrics of the untraced run (`--trace 0`), in print order.
pub const END_TO_END: [MetricDef; 8] = [
    def("trials_per_s", "1/s", Higher),
    def("trial_ms_p50", "ms", Lower),
    def("trial_ms_tail", "ms", Lower),
    def("cpu_ms_per_trial", "ms", Lower),
    def("setup_s", "s", Lower),
    def("peak_rss_mb", "MiB", Lower),
    def("bits_per_vertex", "bits", Lower),
    def("rounds_per_trial", "rounds", Lower),
];

/// Metrics of the traced run (`--trace 1`), in print order.
pub const PER_LAYER: [MetricDef; 32] = [
    def("runner.prepare_ms", "ms", Lower),
    def("runner.worker_util", "ratio", Higher),
    def("runner.worker_imbalance", "ratio", Lower),
    def("runner.cache_hit_ratio", "ratio", Higher),
    def("runner.setup_ms_per_trial", "ms", Lower),
    def("runner.execute_ms_per_trial", "ms", Lower),
    def("runner.party_threads", "count", Higher),
    def("graph.gen_ms", "ms", Lower),
    def("graph.gen_medges_per_s", "Medges/s", Higher),
    def("graph.partition_ms", "ms", Lower),
    def("graph.validate_ms", "ms", Lower),
    def("graph.validate_medges_per_s", "Medges/s", Higher),
    def("core.input_ms", "ms", Lower),
    def("core.party_ms", "ms", Lower),
    def("core.party_skew_ms", "ms", Lower),
    def("core.rct_remaining_ratio", "ratio", Lower),
    def("comm.session_ms", "ms", Lower),
    def("comm.session_overhead_us", "us", Lower),
    def("comm.empty_session_us", "us", Lower),
    def("comm.rounds", "rounds", Lower),
    def("comm.bits", "bits", Lower),
    def("comm.us_per_round", "us", Lower),
    def("comm.exchange_us", "us", Lower),
    def("comm.round_overhead_us", "us", Lower),
    def("store.open_ms", "ms", Lower),
    def("store.append_us", "us", Lower),
    def("store.flushes", "1/trial", Lower),
    def("store.flush_ms", "ms", Lower),
    def("store.skipped_ratio", "ratio", Higher),
    def("obs.trace_overhead_ratio", "ratio", Lower),
    def("obs.spans_dropped", "count", Lower),
    def("ledger.unattributed_ratio", "ratio", Lower),
];

/// One measured value with a human note (sample counts, percentile).
#[derive(Debug, Clone)]
pub struct Value {
    /// The number as measured.
    pub value: f64,
    /// What the number rests on, printed next to it.
    pub note: String,
}

/// The measured values of one run, keyed by metric name.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, Value)>);

impl Values {
    /// Records `name`, a metric of [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        self.0.push((
            name,
            Value {
                value,
                note: note.into(),
            },
        ));
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }
}

/// Human-readable lines: one metric a line, with unit and note.
pub fn render_lines(defs: &[MetricDef], values: &Values) -> String {
    let mut out = String::new();
    for d in defs {
        if let Some(v) = values.get(d.name) {
            let _ = write!(
                out,
                "{:<30} = {} {} [{} is better]",
                d.name,
                v.value,
                d.unit,
                d.better.as_str()
            );
            if !v.note.is_empty() {
                let _ = write!(out, "  ({})", v.note);
            }
            out.push('\n');
        }
    }
    out
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding every metric of `defs` in order.
///
/// # Errors
///
/// Names a metric of `defs` that was not measured or is not finite.
pub fn render_json(
    defs: &[MetricDef],
    values: &Values,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(defs.len());
    for d in defs {
        let v = values
            .get(d.name)
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        if !v.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", d.name, v.value));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name, v.value, d.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    ))
}

/// The result line of a run that failed before measuring anything.
pub fn render_failure(attempted: u64, failed: u64) -> String {
    format!("{{\"correct\": false, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{}}}}")
}
