//! The shared observability CLI surface of the experiment drivers.
//!
//! Every driver binary (`benchmark`, `fig4`, `fig5`, `robustness`)
//! accepts the same three flags, parsed by [`ObsArgs`]:
//!
//! * `--trace-out <trace.jsonl>` — export spans + metrics as JSONL and a
//!   Prometheus text rendering to `<path>.prom`;
//! * `--profile-out <base>` — attach the sampling profiler and write
//!   `<base>.folded` (folded stacks), `<base>.svg` (flamegraph),
//!   `<base>.trace.json` (Chrome `trace_event`), and
//!   `<base>.chokepoints.jsonl` (per-run choke-point attribution);
//! * `--threads <n>` — reference-platform worker count (honored by the
//!   drivers whose fleet builds the reference platform).
//!
//! Both `--flag value` and `--flag=value` spellings work. [`ObsSession`]
//! owns the tracer + sampler lifecycle so the drivers stay one-screen:
//! observability is paid for only when a flag asks for it — with no flag
//! the tracer is disabled, no sampler thread starts, and every span and
//! metric call is a no-op, keeping driver outputs byte-identical.

use std::sync::Arc;

use graphalytics_core::Tracer;
use graphalytics_obs::chokepoints::{self, RunChokePoints};
use graphalytics_obs::{chrome_trace, flamegraph_svg, Profile, SamplingProfiler};

/// The flag synopsis shared by every driver's usage line.
pub const OBS_USAGE: &str = "[--trace-out <trace.jsonl>] [--profile-out <base>] [--threads <n>]";

/// The observability flags plus whatever positional arguments remain.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsArgs {
    /// Span/metric JSONL export path.
    pub trace_out: Option<String>,
    /// Profiling artifact base path.
    pub profile_out: Option<String>,
    /// Reference-platform worker count (`0` = machine default).
    pub threads: Option<usize>,
    /// Non-flag arguments, in order.
    pub positional: Vec<String>,
}

/// Matches `--flag value` and `--flag=value`; `Ok(None)` means `arg` is
/// not this flag at all.
fn flag_value(
    arg: &str,
    flag: &str,
    rest: &mut impl Iterator<Item = String>,
) -> Result<Option<String>, String> {
    if arg == flag {
        match rest.next() {
            Some(v) => Ok(Some(v)),
            None => Err(format!("{flag} requires a value")),
        }
    } else if let Some(v) = arg.strip_prefix(flag).and_then(|v| v.strip_prefix('=')) {
        Ok(Some(v.to_string()))
    } else {
        Ok(None)
    }
}

impl ObsArgs {
    /// Parses an argument list (without the program name).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = Self::default();
        let mut rest = args.into_iter();
        while let Some(arg) = rest.next() {
            if let Some(v) = flag_value(&arg, "--trace-out", &mut rest)? {
                out.trace_out = Some(v);
            } else if let Some(v) = flag_value(&arg, "--profile-out", &mut rest)? {
                out.profile_out = Some(v);
            } else if let Some(v) = flag_value(&arg, "--threads", &mut rest)? {
                out.threads = Some(v.parse().map_err(|_| {
                    format!("--threads requires a non-negative integer, got {v:?}")
                })?);
            } else if arg.starts_with("--") {
                return Err(format!("unknown flag {arg:?}"));
            } else {
                out.positional.push(arg);
            }
        }
        Ok(out)
    }

    /// Parses the process arguments; on error prints the message plus a
    /// usage line built from `driver` and `positional_usage`, and exits 2.
    pub fn parse_env_or_exit(driver: &str, positional_usage: &str) -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(e) => {
                eprintln!("{e}");
                eprintln!("usage: {driver} {OBS_USAGE} {positional_usage}");
                std::process::exit(2);
            }
        }
    }

    /// True when any observability output was requested.
    pub fn observability_enabled(&self) -> bool {
        self.trace_out.is_some() || self.profile_out.is_some()
    }

    /// Tells the user that `--threads` was accepted but this driver's
    /// fleet builds no reference platform, so it configures nothing.
    pub fn warn_unused_threads(&self, driver: &str) {
        if self.threads.is_some() {
            eprintln!(
                "note: --threads only configures the reference platform; \
                 the {driver} fleet has none, so the flag has no effect"
            );
        }
    }
}

/// A live observability session: the tracer every suite run should be
/// handed, plus the sampler when profiling was requested.
pub struct ObsSession {
    /// Enabled iff any observability flag was set; pass to `run_traced`.
    pub tracer: Arc<Tracer>,
    profiler: Option<SamplingProfiler>,
    trace_out: Option<String>,
    profile_out: Option<String>,
}

/// What [`ObsSession::finish`] hands back for callers that embed the
/// results elsewhere (results DB, HTML report).
#[derive(Default)]
pub struct ObsArtifacts {
    /// The aggregated profile (profiling runs only).
    pub profile: Option<Profile>,
    /// Per-run choke-point attribution (profiling runs only).
    pub chokepoints: Vec<RunChokePoints>,
}

impl ObsSession {
    /// Builds the tracer and, with `--profile-out`, starts the sampler.
    pub fn start(args: &ObsArgs) -> Self {
        let tracer = Arc::new(if args.observability_enabled() {
            Tracer::new()
        } else {
            Tracer::disabled()
        });
        // Every observability export identifies the binary that produced
        // it (satisfies scrapes and JSONL consumers alike); no-op when
        // observability is off, keeping default outputs byte-identical.
        tracer.metrics().register_build_info();
        let profiler = args
            .profile_out
            .as_ref()
            .map(|_| SamplingProfiler::start(Arc::clone(&tracer)));
        Self {
            tracer,
            profiler,
            trace_out: args.trace_out.clone(),
            profile_out: args.profile_out.clone(),
        }
    }

    /// Stops the sampler and writes every requested artifact. `title`
    /// labels the flamegraph. Returns the profile and choke-point reports
    /// so drivers can splice them into their own outputs.
    pub fn finish(mut self, title: &str) -> ObsArtifacts {
        let mut artifacts = ObsArtifacts {
            profile: self.profiler.take().map(SamplingProfiler::stop),
            chokepoints: Vec::new(),
        };
        if let Some(path) = &self.trace_out {
            write_or_warn(path, &self.tracer.export_jsonl(), "trace");
            write_or_warn(
                &format!("{path}.prom"),
                &self.tracer.metrics().render_prometheus(),
                "metrics",
            );
        }
        if let Some(base) = &self.profile_out {
            let profile = artifacts.profile.as_ref().expect("profiler was started");
            let spans = self.tracer.finished_spans();
            write_or_warn(
                &format!("{base}.folded"),
                &profile.folded_text(),
                "folded stacks",
            );
            write_or_warn(
                &format!("{base}.svg"),
                &flamegraph_svg(profile, title),
                "flamegraph",
            );
            write_or_warn(
                &format!("{base}.trace.json"),
                &chrome_trace(&spans),
                "chrome trace",
            );
            artifacts.chokepoints = chokepoints::attribute(&spans);
            let mut jsonl = String::new();
            for report in &artifacts.chokepoints {
                jsonl.push_str(&report.to_json().to_string_compact());
                jsonl.push('\n');
            }
            write_or_warn(
                &format!("{base}.chokepoints.jsonl"),
                &jsonl,
                "choke-point report",
            );
            eprint!("{}", chokepoints::render_text(&artifacts.chokepoints));
        }
        artifacts
    }
}

fn write_or_warn(path: &str, content: &str, what: &str) {
    match std::fs::write(path, content) {
        Ok(()) => eprintln!("{what} written to {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_graph::io::ScratchDir;

    fn parse(args: &[&str]) -> Result<ObsArgs, String> {
        ObsArgs::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn both_flag_spellings_parse() {
        let a = parse(&["--trace-out", "t.jsonl", "--threads=4", "run.properties"]).unwrap();
        assert_eq!(a.trace_out.as_deref(), Some("t.jsonl"));
        assert_eq!(a.threads, Some(4));
        assert_eq!(a.positional, vec!["run.properties".to_string()]);
        let b = parse(&["--profile-out=prof", "--threads", "0"]).unwrap();
        assert_eq!(b.profile_out.as_deref(), Some("prof"));
        assert_eq!(b.threads, Some(0));
        assert!(b.positional.is_empty());
    }

    #[test]
    fn errors_are_reported_not_swallowed() {
        assert!(parse(&["--trace-out"]).is_err());
        assert!(parse(&["--threads", "many"]).is_err());
        assert!(parse(&["--no-such-flag"]).is_err());
        // A flag-like prefix with different spelling is not the flag.
        assert!(parse(&["--threadsx=3"]).is_err());
    }

    #[test]
    fn observability_is_off_by_default() {
        let a = parse(&["run.properties"]).unwrap();
        assert!(!a.observability_enabled());
        let session = ObsSession::start(&a);
        // A disabled tracer records nothing, so default-run outputs stay
        // byte-identical to an untraced run.
        {
            let _span = session.tracer.span("run");
        }
        assert!(session.tracer.finished_spans().is_empty());
        let artifacts = session.finish("test");
        assert!(artifacts.profile.is_none());
        assert!(artifacts.chokepoints.is_empty());
    }

    #[test]
    fn profiling_session_yields_profile_and_chokepoints() {
        let dir = ScratchDir::new("obs-session").unwrap();
        let base = dir.path().join("prof").to_string_lossy().to_string();
        let args = parse(&["--profile-out", &base]).unwrap();
        let session = ObsSession::start(&args);
        {
            let mut run = session.tracer.span("run");
            run.field("platform", "Reference");
            run.field("dataset", "Graph500 8");
            run.field("algorithm", "BFS");
            let _exec = session.tracer.span("run.execute");
            std::thread::sleep(std::time::Duration::from_millis(15));
        }
        let artifacts = session.finish("session test");
        assert!(artifacts.profile.is_some());
        assert_eq!(artifacts.chokepoints.len(), 1);
        for ext in ["folded", "svg", "trace.json", "chokepoints.jsonl"] {
            let path = format!("{base}.{ext}");
            assert!(
                std::fs::metadata(&path)
                    .map(|m| m.len() > 0)
                    .unwrap_or(false),
                "missing artifact {path}"
            );
        }
    }
}
