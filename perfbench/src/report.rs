//! The metric catalog and the result printer.
//!
//! The catalog mirrors `BENCHMARK.json` (a test keeps the two equal). A run
//! prints one human-readable line per metric, then, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics for an untraced run, the
//! per-layer metrics for a traced one.

use std::collections::BTreeMap;

use graphalytics_core::json::Json;

use crate::layers::{COUNTER_METRICS, SPAN_METRICS};

/// End-to-end metrics: `(name, unit)`. Times are CPU seconds of this
/// process and its reaped children (see `cpu.rs` for why).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_cpu_s", "s"),
    ("processing_cpu_s", "s"),
    ("evps_cpu_geomean", "1/s"),
    ("success_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Engines measured per layer, by the name the metrics use.
pub const ENGINES: &[&str] = &[
    "pregel",
    "dataflow",
    "mapreduce",
    "graphdb",
    "columnar",
    "distrib",
];

/// Kernels each engine is timed on (the columnar engine runs only the
/// traversal kernels; the others are unsupported there).
pub fn engine_kernels(engine: &str) -> &'static [&'static str] {
    match engine {
        "columnar" => &["bfs", "sssp"],
        _ => &["bfs", "conn", "sssp", "pr", "cd"],
    }
}

/// Kernels the reference platform is timed on.
pub const REFERENCE_KERNELS: &[&str] = &["stats", "bfs", "conn", "cd", "evo", "sssp", "lcc"];

/// Kernels the sequential oracle (the validator's expected output) is
/// timed on.
pub const ORACLE_KERNELS: &[&str] = &["stats", "bfs", "conn", "cd", "evo", "sssp", "lcc", "pr"];

/// Every per-layer metric `(name, unit)`, in catalog order. A layer the
/// workload does not exercise reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = vec![
        ("datagen.edge_list_s".into(), "s"),
        ("graph.csr_build_s".into(), "s"),
    ];
    out.extend(
        REFERENCE_KERNELS
            .iter()
            .map(|k| (format!("reference.{k}_s"), "s")),
    );
    out.extend(
        ORACLE_KERNELS
            .iter()
            .map(|k| (format!("algos.oracle.{k}_s"), "s")),
    );
    for engine in ENGINES {
        out.push((format!("{engine}.load_s"), "s"));
        out.extend(
            engine_kernels(engine)
                .iter()
                .map(|k| (format!("{engine}.{k}_s"), "s")),
        );
    }
    out.extend(
        SPAN_METRICS
            .iter()
            .chain(COUNTER_METRICS)
            .map(|(n, u, _)| (n.to_string(), *u)),
    );
    out.push(("trace.overhead_ratio".into(), "ratio"));
    out
}

/// Metric values and notes collected during a run.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    notes: BTreeMap<String, String>,
    /// Cells attempted.
    pub attempted: usize,
    /// Cells that failed, timed out or produced an invalid output.
    pub failed: usize,
    /// False when an engine delivered a wrong output.
    pub correct: bool,
}

impl Report {
    /// An empty report that is correct until shown otherwise.
    pub fn new() -> Self {
        Self {
            correct: true,
            ..Self::default()
        }
    }

    /// Sets a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Sets a metric value with a note printed beside it (sample counts,
    /// how the value was taken).
    pub fn set_noted(&mut self, name: &str, value: f64, note: String) {
        self.set(name, value);
        self.notes.insert(name.to_string(), note);
    }

    /// Adds `value` to a metric (starting from 0).
    pub fn add(&mut self, name: &str, value: f64) {
        *self.values.entry(name.to_string()).or_default() += value;
    }

    /// A metric's value, if set.
    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Prints every metric of the run's kind and then the result line.
    /// Fails when an end-to-end metric was never set, which is a bug in
    /// the workload, not a measurement.
    pub fn emit(&self, traced: bool) -> Result<(), String> {
        let catalog: Vec<(String, &str)> = if traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|(n, u)| (n.to_string(), *u))
                .collect()
        };
        let mut metrics = BTreeMap::new();
        for (name, unit) in &catalog {
            let value = match self.values.get(name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            let note = self.notes.get(name).map(String::as_str).unwrap_or("");
            println!("metric {name:<28} {value:>16.6} {unit:<6} {note}");
            metrics.insert(
                name.clone(),
                Json::obj([("value", Json::Num(value)), ("unit", Json::from(*unit))]),
            );
        }
        let result = Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ]);
        println!("{}", result.to_string_compact());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(list: &Json, key: &str) -> Vec<(String, String)> {
        match list.get(key) {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect(),
            _ => panic!("BENCHMARK.json has no {key} list"),
        }
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = graphalytics_core::json::parse(&text).expect("BENCHMARK.json parses");
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names(&doc, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names(&doc, "per_layer"), layers);
    }

    #[test]
    fn missing_end_to_end_metric_is_an_error() {
        let report = Report::new();
        assert!(report.emit(false).is_err());
    }
}
