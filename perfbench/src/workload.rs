//! The workloads, `ref-g500` and `engines-snb`: platforms load one
//! generated graph, run kernels on it, and every output is checked by the
//! harness's `OutputValidator`, as in the harness runner. The benchmark
//! drives the cells itself so that it can time each call into
//! `Platform::load_graph`, `Platform::run` and `OutputValidator::validate`.
//!
//! The system under test is the engine, so an invalid output makes the run
//! incorrect as well as failed.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphalytics_algos::{reference, Algorithm};
use graphalytics_columnar::{VirtuosoConfig, VirtuosoPlatform};
use graphalytics_core::{
    Dataset, OutputValidator, Platform, PlatformError, ReferencePlatform, RunContext, Tracer,
    Validation,
};
use graphalytics_dataflow::{GraphXConfig, GraphXPlatform};
use graphalytics_distrib::DistributedPlatform;
use graphalytics_graph::CsrGraph;
use graphalytics_graphdb::{Neo4jConfig, Neo4jPlatform};
use graphalytics_mapreduce::{MapReduceConfig, MapReducePlatform};
use graphalytics_pregel::{GiraphPlatform, PregelConfig};

use crate::aggregate::{Aggregate, Outcome};
use crate::cpu::{measure, Sample};
use crate::layers::{engine_of, kernel_of, report_spans};
use crate::report::Report;
use crate::stats::median;
use crate::{Args, SETUP_REPS};

/// Graph500 scale of `ref-g500`.
const REF_SCALE: u32 = 14;
/// SNB person count of `engines-snb`.
const SNB_PERSONS: usize = 6_000;
/// CD propagation rounds on `engines-snb`, with the default δ = 0.05 and
/// m = 0.1. CD stops early once no label changes; at 6000 persons about
/// one seed in five converged before the default 10 rounds, so the CD work
/// depended on the seed. No seed of 40 converged before round 6, so 5
/// rounds give every seed the same work.
const SNB_CD_ROUNDS: usize = 5;
/// Cooperative deadline per cell, far above any cell's run time, so a hung
/// engine becomes a counted timeout instead of a hung benchmark.
const CELL_TIMEOUT: Duration = Duration::from_secs(60);

/// Platforms that run the same kernels. `make` builds fresh instances for
/// every pass, so no pass reuses another's loaded state.
pub struct Group {
    make: Box<dyn Fn() -> Vec<Box<dyn Platform>>>,
    algorithms: Vec<Algorithm>,
}

impl Group {
    /// A group of platforms built by `make`, each running `algorithms`.
    pub fn new(
        make: impl Fn() -> Vec<Box<dyn Platform>> + 'static,
        algorithms: Vec<Algorithm>,
    ) -> Self {
        Self {
            make: Box::new(make),
            algorithms,
        }
    }
}

/// The dataset of a workload, generated from `seed`.
pub fn dataset(workload: &str, seed: u64) -> Option<Dataset> {
    let mut dataset = match workload {
        "ref-g500" => Dataset::graph500(REF_SCALE),
        "engines-snb" => Dataset::snb(SNB_PERSONS),
        _ => return None,
    };
    dataset.seed = seed;
    Some(dataset)
}

/// The platform groups of a workload; `par` is the parallelism
/// every engine is sized to and `source` the BFS/SSSP source vertex.
pub fn groups(workload: &str, par: usize, source: u64) -> Vec<Group> {
    let traversals = [Algorithm::Bfs { source }, Algorithm::Sssp { source }];
    match workload {
        "ref-g500" => {
            let mut algorithms = Algorithm::ldbc_workload();
            for alg in &mut algorithms {
                match alg {
                    Algorithm::Bfs { source: s } | Algorithm::Sssp { source: s } => *s = source,
                    _ => {}
                }
            }
            vec![Group::new(
                move || vec![Box::new(ReferencePlatform::with_threads(par)) as Box<dyn Platform>],
                algorithms,
            )]
        }
        _ => vec![
            Group::new(
                move || {
                    vec![
                        Box::new(GiraphPlatform::new(PregelConfig {
                            workers: par,
                            ..Default::default()
                        })) as Box<dyn Platform>,
                        Box::new(GraphXPlatform::new(GraphXConfig {
                            partitions: par,
                            memory_budget: None,
                        })),
                        Box::new(MapReducePlatform::new(MapReduceConfig {
                            map_tasks: par,
                            reduce_tasks: par,
                            ..Default::default()
                        })),
                        Box::new(Neo4jPlatform::new(Neo4jConfig::default())),
                        Box::new(DistributedPlatform::with_workers(par as u32)),
                    ]
                },
                vec![
                    traversals[0].clone(),
                    Algorithm::Conn,
                    traversals[1].clone(),
                    Algorithm::default_pagerank(),
                    Algorithm::Cd {
                        iterations: SNB_CD_ROUNDS,
                        hop_attenuation: 0.05,
                        degree_exponent: 0.1,
                    },
                ],
            ),
            Group::new(
                move || {
                    vec![
                        Box::new(VirtuosoPlatform::new(VirtuosoConfig { threads: par }))
                            as Box<dyn Platform>,
                    ]
                },
                traversals.to_vec(),
            ),
        ],
    }
}

/// The parallelism line printed for a workload.
pub fn describe_parallelism(workload: &str, par: usize) -> String {
    match workload {
        "ref-g500" => format!("reference.threads={par}"),
        _ => format!(
            "pregel.workers={par} dataflow.partitions={par} mapreduce.map_tasks={par} \
             mapreduce.reduce_tasks={par} columnar.threads={par} distrib.worker_processes={par} \
             graphdb=single-threaded"
        ),
    }
}

/// The traversal source rule: the vertex of highest degree, the lowest
/// internal id among ties. A hub lies in the giant component, so BFS and
/// SSSP traverse most of the graph whatever the seed. Returns the
/// external id and the degree.
pub fn traversal_source(graph: &CsrGraph) -> (u64, usize) {
    let best = graph
        .vertex_ids()
        .max_by_key(|&v| (graph.degree(v), std::cmp::Reverse(v)))
        .expect("workload graphs are non-empty");
    (graph.external_id(best), graph.degree(best))
}

/// A generated graph with the time of each set-up step.
pub struct Built {
    /// The canonical graph.
    pub graph: Arc<CsrGraph>,
    /// `Dataset::edge_list`.
    pub edge_list: Sample,
    /// `CsrGraph::from_edge_list`.
    pub csr_build: Sample,
}

/// Generates `dataset` and builds its CSR graph, timing both steps.
pub fn build(dataset: &Dataset) -> Result<Built, String> {
    let (edges, edge_list) = measure(|| dataset.edge_list());
    let edges = edges.map_err(|e| format!("generating {}: {e}", dataset.name))?;
    let (graph, csr_build) = measure(|| CsrGraph::from_edge_list(&edges));
    Ok(Built {
        graph: Arc::new(graph),
        edge_list,
        csr_build,
    })
}

/// One attempted cell of a pass.
#[derive(Debug)]
pub struct CellResult {
    /// Layer name of the platform.
    pub engine: &'static str,
    /// Kernel name.
    pub kernel: String,
    /// How it ended.
    pub outcome: Outcome,
    /// The `Platform::run` call, when it returned an output.
    pub run: Option<Sample>,
    /// The `OutputValidator::validate` call, when there was an output.
    pub validation: Option<Sample>,
}

/// Everything one pass measured.
#[derive(Debug)]
pub struct Pass {
    /// The whole pass.
    pub sample: Sample,
    /// Every attempted cell, in run order.
    pub cells: Vec<CellResult>,
    /// Each successful `Platform::load_graph`, by engine.
    pub loads: Vec<(&'static str, Sample)>,
}

/// Runs every group once on `graph`: each platform loads the graph, runs
/// its kernels, has every output validated, and unloads. A failed cell is
/// recorded and the pass goes on.
pub fn run_pass(graph: &Arc<CsrGraph>, groups: &[Group], tracer: &Arc<Tracer>) -> Pass {
    // One validator per pass, so the oracle runs once per kernel per pass
    // and is shared by every platform, as in the harness runner.
    let validator = OutputValidator::new();
    let mut cells = Vec::new();
    let mut loads = Vec::new();
    let ((), sample) = measure(|| {
        for group in groups {
            for mut platform in (group.make)() {
                let engine = engine_of(platform.name());
                let (handle, load) = measure(|| platform.load_graph(graph));
                let handle = match handle {
                    Ok(handle) => handle,
                    Err(e) => {
                        cells.extend(group.algorithms.iter().map(|alg| CellResult {
                            engine,
                            kernel: kernel_of(alg),
                            outcome: Outcome::Failed(format!("load failed: {e}")),
                            run: None,
                            validation: None,
                        }));
                        continue;
                    }
                };
                loads.push((engine, load));
                for alg in &group.algorithms {
                    let ctx =
                        RunContext::with_timeout(CELL_TIMEOUT).with_tracer(Arc::clone(tracer));
                    let (output, run) = measure(|| platform.run(handle, alg, &ctx));
                    let mut cell = CellResult {
                        engine,
                        kernel: kernel_of(alg),
                        outcome: Outcome::TimedOut,
                        run: None,
                        validation: None,
                    };
                    match output {
                        Ok(output) => {
                            let (verdict, validation) =
                                measure(|| validator.validate(graph, alg, &output));
                            cell.outcome = match verdict {
                                Validation::Valid => Outcome::Valid,
                                Validation::Invalid(diag) => Outcome::Invalid(diag),
                                Validation::Skipped => Outcome::Invalid("not validated".into()),
                            };
                            cell.run = Some(run);
                            cell.validation = Some(validation);
                        }
                        Err(PlatformError::Timeout) => {}
                        Err(e) => cell.outcome = Outcome::Failed(e.to_string()),
                    }
                    cells.push(cell);
                }
                platform.unload(handle);
            }
        }
    });
    Pass {
        sample,
        cells,
        loads,
    }
}

/// Adds a pass's outcomes to `agg`, and its timings when `timed`.
pub fn absorb(agg: &mut Aggregate, graph: &CsrGraph, pass: &Pass, timed: bool) {
    let elements = (graph.num_vertices() + graph.num_edges()) as f64;
    for c in &pass.cells {
        agg.tally
            .record(&format!("{}/{}", c.engine, c.kernel), &c.outcome);
        if timed {
            agg.cell(c.engine, &c.kernel, elements, c.run, c.validation);
        }
    }
    if timed {
        let validated = pass
            .cells
            .iter()
            .filter(|c| c.outcome == Outcome::Valid)
            .count();
        agg.pass(pass.sample, validated);
    }
}

/// Runs a workload and fills `report`.
pub fn run(args: &Args, par: usize, report: &mut Report) -> Result<(), String> {
    let dataset = dataset(&args.workload, args.seed).ok_or("unknown workload")?;
    let mut steps = Vec::new();
    let mut graph = None;
    for _ in 0..SETUP_REPS {
        // Free the previous copy first, so set-up does not set the
        // process's peak memory.
        drop(graph.take());
        let built = build(&dataset)?;
        steps.push((built.edge_list, built.csr_build));
        graph = Some(built.graph);
    }
    let graph = graph.expect("at least one set-up");
    let median_of =
        |f: fn(&(Sample, Sample)) -> f64| median(&steps.iter().map(f).collect::<Vec<_>>());
    report.set_noted(
        "setup_s",
        median_of(|(e, c)| e.cpu + c.cpu),
        format!(
            "CPU, median of {SETUP_REPS} set-ups; wall median {:.4} s",
            median_of(|(e, c)| e.wall + c.wall)
        ),
    );
    report.set("datagen.edge_list_s", median_of(|(e, _)| e.wall));
    report.set("graph.csr_build_s", median_of(|(_, c)| c.wall));
    let (source, degree) = traversal_source(&graph);
    println!(
        "dataset: {} seed={} vertices={} edges={}; bfs/sssp source: vertex {source} \
         (highest degree {degree}, lowest id on ties)",
        dataset.name,
        dataset.seed,
        graph.num_vertices(),
        graph.num_edges()
    );
    println!("parallelism: {}", describe_parallelism(&args.workload, par));
    let groups = groups(&args.workload, par, source);

    // Passes run while another one is expected to end within `--seconds`,
    // so a run's length stays predictable however slow the machine is.
    let mut agg = Aggregate::default();
    let started = Instant::now();
    let untraced = Arc::new(Tracer::disabled());
    loop {
        absorb(
            &mut agg,
            &graph,
            &run_pass(&graph, &groups, &untraced),
            true,
        );
        if started.elapsed().as_secs_f64() + agg.pass_wall() > args.seconds as f64 {
            break;
        }
    }
    agg.end_to_end(report);

    if args.trace {
        let tracer = Arc::new(Tracer::new());
        let pass = run_pass(&graph, &groups, &tracer);
        absorb(&mut agg, &graph, &pass, false);
        for c in &pass.cells {
            if let Some(run) = c.run {
                report.add(&format!("{}.{}_s", c.engine, c.kernel), run.wall);
            }
        }
        for (engine, load) in &pass.loads {
            report.add(&format!("{engine}.load_s"), load.wall);
        }
        report_spans(&tracer, report);
        report.set_noted(
            "trace.overhead_ratio",
            pass.sample.cpu / agg.pass_cpu(),
            format!(
                "CPU of the traced pass {:.4} s / untraced median",
                pass.sample.cpu
            ),
        );
        // The validator's oracle, timed by calling it directly once per
        // kernel outside the timed passes.
        let kernels: BTreeMap<&str, &Algorithm> = groups
            .iter()
            .flat_map(|g| &g.algorithms)
            .map(|a| (a.name(), a))
            .collect();
        for alg in kernels.into_values() {
            let ((), oracle) = measure(|| {
                black_box(reference(&graph, alg));
            });
            report.set(&format!("algos.oracle.{}_s", kernel_of(alg)), oracle.wall);
        }
    }
    agg.tally.print();
    report.attempted = agg.tally.attempted;
    report.failed = agg.tally.failed();
    report.correct = agg.tally.invalid == 0;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_algos::Output;
    use graphalytics_core::GraphHandle;
    use graphalytics_graph::EdgeListGraph;

    /// A reference platform that answers BFS wrongly, fails CONN, times
    /// out on PageRank and gets every other kernel right.
    struct Wrong(ReferencePlatform);

    impl Platform for Wrong {
        fn name(&self) -> &'static str {
            "Giraph"
        }
        fn load_graph(&mut self, graph: &CsrGraph) -> Result<GraphHandle, PlatformError> {
            self.0.load_graph(graph)
        }
        fn run(
            &mut self,
            handle: GraphHandle,
            algorithm: &Algorithm,
            ctx: &RunContext,
        ) -> Result<Output, PlatformError> {
            match algorithm {
                Algorithm::Bfs { .. } => match self.0.run(handle, algorithm, ctx)? {
                    Output::Depths(d) => Ok(Output::Depths(vec![0; d.len()])),
                    other => Ok(other),
                },
                Algorithm::Conn => Err(PlatformError::Internal("deliberate failure".into())),
                Algorithm::PageRank { .. } => Err(PlatformError::Timeout),
                _ => self.0.run(handle, algorithm, ctx),
            }
        }
        fn unload(&mut self, handle: GraphHandle) {
            self.0.unload(handle)
        }
    }

    fn triangle_and_tail() -> Arc<CsrGraph> {
        Arc::new(CsrGraph::from_edge_list(
            &EdgeListGraph::undirected_from_edges(vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]),
        ))
    }

    #[test]
    fn failed_cells_are_counted_and_the_pass_goes_on() {
        let graph = triangle_and_tail();
        let groups = vec![Group::new(
            || {
                vec![
                    Box::new(Wrong(ReferencePlatform::new())) as Box<dyn Platform>,
                    Box::new(ReferencePlatform::new()),
                ]
            },
            vec![
                Algorithm::Bfs { source: 0 },
                Algorithm::Conn,
                Algorithm::default_pagerank(),
                Algorithm::Lcc,
            ],
        )];
        let pass = run_pass(&graph, &groups, &Arc::new(Tracer::disabled()));
        let mut agg = Aggregate::default();
        absorb(&mut agg, &graph, &pass, true);
        let t = &agg.tally;
        assert_eq!(t.attempted, 8, "every cell of both platforms ran");
        assert_eq!(t.validated, 5);
        assert_eq!((t.failed(), t.invalid, t.timed_out), (3, 1, 1));
        assert!(t
            .reasons
            .contains_key("pregel/conn: internal platform error: deliberate failure"));
        assert_eq!(pass.loads.len(), 2);
        let mut report = Report::new();
        agg.end_to_end(&mut report);
        assert!((report.get("success_ratio").unwrap() - 5.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn source_is_the_highest_degree_vertex() {
        assert_eq!(traversal_source(&triangle_and_tail()), (2, 3));
    }

    #[test]
    fn seed_reaches_the_generator() {
        assert_eq!(dataset("ref-g500", 7).unwrap().seed, 7);
        assert_eq!(dataset("engines-snb", 7).unwrap().seed, 7);
        let at_seed = |seed| {
            let mut d = Dataset::graph500(8);
            d.seed = seed;
            build(&d).unwrap().graph.degrees()
        };
        assert_eq!(at_seed(1), at_seed(1));
        assert_ne!(at_seed(1), at_seed(2));
    }
}
