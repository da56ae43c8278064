//! The regression observatory round-trips: a freshly recorded baseline
//! passes an immediate check on the same machine, and a synthetically
//! slowed measurement fails the gate.

use graphalytics_bench::regress::{check, measure, record, RegressConfig, SERVE_KEY};
use graphalytics_graph::io::ScratchDir;
use graphalytics_obs::regress::Thresholds;

fn small() -> RegressConfig {
    RegressConfig {
        scale: 10,
        runs: 2,
        handicap: 1.0,
        serve: false,
        serve_scale: 8,
    }
}

#[test]
fn record_then_check_passes_and_synthetic_slowdown_fails() {
    let cfg = small();
    let baseline = record(&cfg).expect("record baseline");
    // One entry per kernel plus the load phase.
    assert!(
        baseline.entries.len() >= 6,
        "entries: {:?}",
        baseline.entries
    );
    assert!(baseline.entries.iter().any(|e| e.key.ends_with("/load")));
    assert!(baseline.entries.iter().any(|e| e.key.ends_with("/BFS")));
    assert!(baseline.entries.iter().all(|e| e.median_seconds > 0.0));
    assert!(baseline.entries.iter().all(|e| e.evps > 0.0));
    assert!(baseline.calibration_seconds > 0.0);

    // Same machine, same workload: the default thresholds must pass.
    let report = check(&cfg, &baseline, Thresholds::default()).expect("check");
    assert!(!report.failed(), "{}", report.render_text());
    assert_eq!(report.verdicts.len(), baseline.entries.len());
    assert!(report.missing.is_empty());

    // A 40× slowdown must trip the gate even with the relative factor;
    // the floor is zeroed so sub-floor kernels participate too.
    let slowed = RegressConfig {
        handicap: 40.0,
        ..cfg
    };
    let report = check(
        &slowed,
        &baseline,
        Thresholds {
            rel_factor: 1.6,
            abs_floor_seconds: 0.0,
        },
    )
    .expect("slowed check");
    assert!(report.failed(), "{}", report.render_text());
    assert!(report.verdicts.iter().any(|v| v.regressed));
}

#[test]
fn baseline_file_round_trips_through_disk() {
    let cfg = RegressConfig {
        scale: 8,
        runs: 1,
        handicap: 1.0,
        serve: false,
        serve_scale: 8,
    };
    let baseline = record(&cfg).expect("record");
    let dir = ScratchDir::new("regress-roundtrip").unwrap();
    let path = dir.path().join("baseline.json");
    std::fs::write(&path, baseline.to_json_string()).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let parsed = graphalytics_obs::regress::Baseline::parse(&text).expect("parses");
    assert_eq!(parsed, baseline);
}

#[test]
fn measure_keys_are_stable_across_rounds() {
    let cfg = RegressConfig {
        scale: 8,
        runs: 1,
        handicap: 1.0,
        serve: false,
        serve_scale: 8,
    };
    let a: Vec<String> = measure(&cfg).unwrap().into_iter().map(|e| e.key).collect();
    let b: Vec<String> = measure(&cfg).unwrap().into_iter().map(|e| e.key).collect();
    assert_eq!(a, b, "kernel keys must be deterministic");
}

#[test]
fn serve_measurement_contributes_a_p99_entry() {
    let cfg = RegressConfig {
        scale: 8,
        runs: 1,
        handicap: 1.0,
        serve: true,
        serve_scale: 8,
    };
    let entries = measure(&cfg).unwrap();
    // Kernel entries first (sorted), the serving-plane entry last.
    assert_eq!(entries.last().unwrap().key, SERVE_KEY);
    let serve = entries.iter().find(|e| e.key == SERVE_KEY).unwrap();
    assert!(serve.median_seconds > 0.0, "p99 must be positive");
    assert!(serve.evps > 0.0, "serve entry must carry throughput");
    // The handicap scales the serving-plane number like any kernel, so
    // the synthetic-slowdown gate test covers this entry too.
    assert_eq!(
        entries.iter().filter(|e| e.key == SERVE_KEY).count(),
        1,
        "exactly one serving-plane entry"
    );
}
