//! The repository benchmark. One process runs one workload:
//!
//! ```text
//! perfbench --workload <ref-g500|engines-snb> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It sets the workload up several times (reporting the median), then
//! repeats untraced passes for up to `--seconds` and reports the
//! end-to-end metrics. With `--trace 1` it adds one traced pass and reports the
//! per-layer metrics instead. Every output is validated. The last line of
//! standard output is the JSON result; see `README.md` beside this crate.

mod aggregate;
mod cpu;
mod layers;
mod report;
mod stats;
mod workload;

use report::Report;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds of untraced passes.
    pub seconds: u64,
    /// Whether to add the traced pass and report per-layer metrics.
    pub trace: bool,
}

const WORKLOADS: &[&str] = &["ref-g500", "engines-snb"];

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut values = std::collections::BTreeMap::new();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .filter(|k| ["workload", "seed", "seconds", "trace"].contains(k))
            .ok_or_else(|| format!("unknown argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        values.insert(key, value.as_str());
    }
    let get = |k: &str| values.get(k).copied().ok_or(format!("missing --{k}"));
    let workload = get("workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    let number = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k} must be a whole number"))
    };
    let seconds = number("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed: number("seed")?,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> Result<Report, String> {
    // Every engine is sized to the machine's cores so the numbers measure
    // the program, not an oversubscribed scheduler.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload: {} seed={} seconds={} trace={} nproc={nproc}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut report = Report::new();
    let before = cpu_ticks();
    workload::run(args, nproc, &mut report)?;
    // Time the hypervisor gave to other guests slows every wall-clock
    // metric; printed so a reader can tell a noisy machine from a slow
    // program.
    if let (Some((total0, steal0)), Some((total1, steal1))) = (before, cpu_ticks()) {
        let share = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
        println!(
            "cpu steal during the run: {:.1}% of machine CPU time",
            100.0 * share
        );
    }
    Ok(report)
}

/// `(total, steal)` jiffies of the machine from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((ticks.iter().sum(), *ticks.get(7)?))
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome =
        parse_args(&raw).and_then(|args| run(&args).and_then(|report| report.emit(args.trace)));
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload engines-snb --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("engines-snb", 7, 10, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload ref-g500 --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload ref-g500 --seed 1 --trace 0").is_err());
        assert!(args("--workload ref-g500 --seed x --seconds 1 --trace 0").is_err());
    }
}
