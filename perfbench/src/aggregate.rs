//! Per-cell samples collected over the timed passes of a run, and their
//! reduction to the end-to-end metrics.
//!
//! A cell is one (engine, kernel) pair. Every attempted cell is counted; a
//! failed, timed-out or invalid one is a result, not a reason to stop.

use std::collections::BTreeMap;

use crate::cpu::Sample;
use crate::report::Report;
use crate::stats::{geomean, median, quantile};

/// How one attempted cell ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Output produced and validated.
    Valid,
    /// Output produced but wrong.
    Invalid(String),
    /// The platform reported an error.
    Failed(String),
    /// The cooperative deadline expired.
    TimedOut,
}

/// Outcome counts over a run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Cells attempted.
    pub attempted: usize,
    /// Attempts that ended [`Outcome::Valid`].
    pub validated: usize,
    /// Attempts that ended [`Outcome::Invalid`].
    pub invalid: usize,
    /// Attempts that ended [`Outcome::TimedOut`].
    pub timed_out: usize,
    /// Distinct failure reasons with their counts.
    pub reasons: BTreeMap<String, usize>,
}

impl Tally {
    /// Counts one attempt.
    pub fn record(&mut self, what: &str, outcome: &Outcome) {
        self.attempted += 1;
        let reason = match outcome {
            Outcome::Valid => {
                self.validated += 1;
                return;
            }
            Outcome::Invalid(diag) => {
                self.invalid += 1;
                format!("{what}: invalid output: {diag}")
            }
            Outcome::Failed(error) => format!("{what}: {error}"),
            Outcome::TimedOut => {
                self.timed_out += 1;
                format!("{what}: timed out")
            }
        };
        *self.reasons.entry(reason).or_default() += 1;
    }

    /// Attempts that did not end valid.
    pub fn failed(&self) -> usize {
        self.attempted - self.validated
    }

    /// Prints the counts and one line per distinct failure reason.
    pub fn print(&self) {
        println!(
            "outcomes: attempted={} validated={} failed={} (invalid={} timed_out={}) \
             fail_ratio={:.4}",
            self.attempted,
            self.validated,
            self.failed(),
            self.invalid,
            self.timed_out,
            self.failed() as f64 / self.attempted.max(1) as f64,
        );
        for (reason, n) in &self.reasons {
            println!("failure x{n}: {reason}");
        }
    }
}

type Cell = (String, String);

/// Samples of every timed pass of a run.
#[derive(Debug, Default)]
pub struct Aggregate {
    /// Per cell: `(|V| + |E|, each successful Platform::run)`.
    runs: BTreeMap<Cell, (f64, Vec<Sample>)>,
    /// Per cell: wall-clock latency (run plus validation) of each attempt.
    latencies: BTreeMap<Cell, Vec<f64>>,
    /// Per pass: its time and the cells it validated.
    passes: Vec<(Sample, usize)>,
    /// Outcome counts.
    pub tally: Tally,
}

impl Aggregate {
    /// Records one attempted cell; `elements` is |V| + |E| of its graph.
    pub fn cell(
        &mut self,
        engine: &str,
        kernel: &str,
        elements: f64,
        run: Option<Sample>,
        validation: Option<Sample>,
    ) {
        let key = (engine.to_string(), kernel.to_string());
        let mut latency = 0.0;
        if let Some(run) = run {
            latency += run.wall;
            self.runs
                .entry(key.clone())
                .or_insert((elements, Vec::new()))
                .1
                .push(run);
        }
        if let Some(validation) = validation {
            latency += validation.wall;
        }
        self.latencies.entry(key).or_default().push(latency);
    }

    /// Records one finished pass.
    pub fn pass(&mut self, sample: Sample, validated: usize) {
        self.passes.push((sample, validated));
    }

    /// Number of passes recorded.
    pub fn passes(&self) -> usize {
        self.passes.len()
    }

    /// Median wall-clock seconds of a pass.
    pub fn pass_wall(&self) -> f64 {
        median(&self.passes.iter().map(|(s, _)| s.wall).collect::<Vec<_>>())
    }

    /// Median CPU seconds of a pass.
    pub fn pass_cpu(&self) -> f64 {
        median(&self.passes.iter().map(|(s, _)| s.cpu).collect::<Vec<_>>())
    }

    /// Sets every end-to-end metric except `setup_s` and prints the
    /// wall-clock view of the same passes.
    pub fn end_to_end(&self, report: &mut Report) {
        let cpu_median = |xs: &[Sample]| median(&xs.iter().map(|s| s.cpu).collect::<Vec<_>>());
        let each: Vec<String> = self
            .passes
            .iter()
            .map(|(s, _)| format!("{:.3}", s.cpu))
            .collect();
        report.set_noted(
            "pass_cpu_s",
            self.pass_cpu(),
            format!("median of {} passes: {}", self.passes(), each.join(" ")),
        );
        report.set_noted(
            "processing_cpu_s",
            self.runs.values().map(|(_, xs)| cpu_median(xs)).sum(),
            format!("sum over {} cells of the median run", self.runs.len()),
        );
        // Each engine counts once: geometric mean over engines of the
        // geometric mean over that engine's cells.
        let mut per_engine: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for ((engine, _), (elements, xs)) in &self.runs {
            per_engine
                .entry(engine)
                .or_default()
                .push(elements / cpu_median(xs));
        }
        let engine_means: Vec<f64> = per_engine.values().map(|v| geomean(v)).collect();
        report.set_noted(
            "evps_cpu_geomean",
            geomean(&engine_means),
            format!(
                "{} engines over {} cells",
                engine_means.len(),
                self.runs.len()
            ),
        );
        let t = &self.tally;
        report.set_noted(
            "success_ratio",
            t.validated as f64 / t.attempted.max(1) as f64,
            format!("{} of {} validated", t.validated, t.attempted),
        );
        report.set_noted(
            "peak_rss_mb",
            peak_rss_mb(),
            "VmHWM of this process after the timed passes".to_string(),
        );
        self.print_wall_clock();
    }

    /// Prints the wall-clock view of the timed passes. It is what a user
    /// waits for, but on a shared machine it drifts with the CPU share
    /// other guests take, so it is printed, not bounded.
    fn print_wall_clock(&self) {
        let walls: Vec<f64> = self.passes.iter().map(|(s, _)| s.wall).collect();
        let goodputs: Vec<f64> = self
            .passes
            .iter()
            .map(|(s, validated)| *validated as f64 / s.wall)
            .collect();
        // Percentiles over the cells' median latencies: raw attempts cluster
        // by kernel, and the rank a percentile falls on would move between
        // clusters as the number of passes changes.
        let cells: Vec<f64> = self.latencies.values().map(|xs| median(xs)).collect();
        let attempts: usize = self.latencies.values().map(Vec::len).sum();
        println!(
            "wall clock: makespan_s={:.4} (median of {} passes) goodput_cells_per_s={:.4} \
             job_p50_s={:.4} job_p90_s={:.4} (exact, over n={} cell medians of {attempts} \
             attempts)",
            median(&walls),
            walls.len(),
            median(&goodputs),
            quantile(&cells, 0.5).unwrap_or(0.0),
            quantile(&cells, 0.9).unwrap_or(0.0),
            cells.len(),
        );
    }
}

/// The kernel's exact peak resident set of this process (`VmHWM`), in
/// MiB; 0 where `/proc` is unavailable. The run monitor's sampled peak
/// misses short spikes, so its run-to-run spread is far wider.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(cpu: f64) -> Sample {
        Sample { wall: cpu, cpu }
    }

    #[test]
    fn tally_counts_every_outcome() {
        let mut t = Tally::default();
        t.record("a", &Outcome::Valid);
        t.record("b", &Outcome::Invalid("wrong".into()));
        t.record("c", &Outcome::Failed("boom".into()));
        t.record("d", &Outcome::TimedOut);
        t.record("c", &Outcome::Failed("boom".into()));
        assert_eq!(t.attempted, 5);
        assert_eq!(t.validated, 1);
        assert_eq!(t.failed(), 4);
        assert_eq!((t.invalid, t.timed_out), (1, 1));
        assert_eq!(t.reasons.get("c: boom"), Some(&2));
    }

    #[test]
    fn end_to_end_reduces_cells_by_median() {
        let mut a = Aggregate::default();
        for cpu in [1.0, 3.0, 2.0] {
            a.cell("pregel", "bfs", 100.0, Some(s(cpu)), Some(s(0.25)));
        }
        a.cell("dataflow", "bfs", 100.0, Some(s(4.0)), None);
        a.cell("dataflow", "pr", 100.0, None, None);
        a.pass(s(10.0), 2);
        a.pass(s(12.0), 2);
        let mut r = Report::new();
        a.end_to_end(&mut r);
        assert_eq!(r.get("pass_cpu_s"), Some(11.0));
        assert_eq!(r.get("processing_cpu_s"), Some(6.0));
        // Engine means 50 and 25 EVPS: geometric mean sqrt(1250).
        assert!((r.get("evps_cpu_geomean").unwrap() - 1250f64.sqrt()).abs() < 1e-9);
        assert!(r.get("peak_rss_mb").unwrap() > 0.0);
    }
}
