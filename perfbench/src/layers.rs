//! Per-layer names and the span and counter totals the engines already
//! record. Nothing here instruments the program itself.

use std::collections::BTreeMap;

use graphalytics_algos::Algorithm;
use graphalytics_core::Tracer;

use crate::report::Report;

/// The layer name per-layer metrics use for a platform.
pub fn engine_of(platform: &str) -> &'static str {
    match platform {
        "Reference" => "reference",
        "Giraph" => "pregel",
        "GraphX" => "dataflow",
        "MapReduce" => "mapreduce",
        "Neo4j" => "graphdb",
        "Virtuoso" => "columnar",
        "Distributed" => "distrib",
        _ => "other",
    }
}

/// The kernel name per-layer metrics use for an algorithm.
pub fn kernel_of(algorithm: &Algorithm) -> String {
    algorithm.name().to_lowercase()
}

/// Per-layer metrics totalled from the engines' spans:
/// `(metric, unit, span name)`. A `count` metric counts the spans; an `s`
/// metric sums their wall-clock durations.
pub const SPAN_METRICS: &[(&str, &str, &str)] = &[
    ("pregel.supersteps", "count", "pregel.superstep"),
    ("pregel.superstep_s", "s", "pregel.superstep"),
    ("dataflow.iterations", "count", "graphx.iteration"),
    ("dataflow.iteration_s", "s", "graphx.iteration"),
    ("mapreduce.jobs", "count", "mapreduce.job"),
    ("mapreduce.map_s", "s", "mapreduce.map"),
    ("mapreduce.reduce_s", "s", "mapreduce.reduce"),
    ("columnar.rounds", "count", "virtuoso.round"),
    ("columnar.round_s", "s", "virtuoso.round"),
    ("distrib.supersteps", "count", "distrib.superstep"),
    ("distrib.compute_s", "s", "distrib.worker.compute"),
    ("distrib.shuffle_s", "s", "distrib.worker.shuffle"),
    ("distrib.barrier_wait_s", "s", "distrib.worker.barrier"),
    ("distrib.checkpoint_s", "s", "distrib.worker.checkpoint"),
];

/// Per-layer metrics read from the distributed engine's counters:
/// `(metric, unit, counter)`.
pub const COUNTER_METRICS: &[(&str, &str, &str)] = &[
    (
        "distrib.network_bytes",
        "bytes",
        "graphalytics_network_bytes_total",
    ),
    (
        "distrib.network_messages",
        "count",
        "graphalytics_network_messages_total",
    ),
];

/// Sets every span and counter metric from `tracer`'s finished spans and
/// metrics registry.
pub fn report_spans(tracer: &Tracer, report: &mut Report) {
    let mut totals = BTreeMap::<String, (f64, f64)>::new();
    for span in tracer.finished_spans() {
        let entry = totals.entry(span.name.clone()).or_default();
        entry.0 += 1.0;
        entry.1 += span.duration_seconds();
    }
    for (metric, unit, span) in SPAN_METRICS {
        let (count, seconds) = totals.get(*span).copied().unwrap_or_default();
        report.set(metric, if *unit == "count" { count } else { seconds });
    }
    let label = [graphalytics_distrib::master::PLATFORM_LABEL];
    for (metric, _, counter) in COUNTER_METRICS {
        report.set(
            metric,
            tracer.metrics().counter_value(counter, &label) as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_and_network_counters_are_totalled() {
        let tracer = Tracer::new();
        tracer.record_span("pregel.superstep", None, 0.0, 0.5, Vec::new());
        tracer.record_span("pregel.superstep", None, 1.0, 1.25, Vec::new());
        tracer.record_span("distrib.worker.barrier", None, 0.0, 2.0, Vec::new());
        let label = [graphalytics_distrib::master::PLATFORM_LABEL];
        tracer
            .metrics()
            .inc_counter("graphalytics_network_bytes_total", &label, 300);
        let mut report = Report::new();
        report_spans(&tracer, &mut report);
        assert_eq!(report.get("pregel.supersteps"), Some(2.0));
        assert!((report.get("pregel.superstep_s").unwrap() - 0.75).abs() < 1e-9);
        assert_eq!(report.get("distrib.barrier_wait_s"), Some(2.0));
        assert_eq!(report.get("distrib.network_bytes"), Some(300.0));
        assert_eq!(report.get("distrib.network_messages"), Some(0.0));
        assert_eq!(report.get("mapreduce.jobs"), Some(0.0));
    }
}
