//! The distributed-Pregel worker process, built beside `perfbench` so the
//! `distrib` engine finds it next to the running executable.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = graphalytics_distrib::worker::worker_main(&args) {
        eprintln!("gx-distrib-worker: {e}");
        std::process::exit(1);
    }
}
