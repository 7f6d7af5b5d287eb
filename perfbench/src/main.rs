//! pinot-rs benchmark: one run of one workload, end to end or traced.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload wvmp --seed 1 --seconds 28 --trace 0
//! ```
//!
//! Workloads: `wvmp` and `adhoc_scan`, listed in `BENCHMARK.json` with
//! why each exists, and `hybrid_ingest`, which runs the same way but is
//! not listed: the program answers some of its queries wrongly (the hybrid
//! merge of finalized values), and the run reports those answers as
//! failures. With `--trace 0` the run prints the
//! end-to-end metrics; with `--trace 1` it records spans around its calls
//! into each layer and prints the per-layer metrics. Both check answers
//! against an oracle. The last line of standard output is the result as
//! one JSON object.

mod hybrid;
mod layers;
mod loadgen;
mod offline;
mod oracle;
mod report;
mod stats;
mod sys;
mod trace;
mod workloads;

use offline::OfflineWorkload;
use report::Report;
use workloads::Sizes;

pub const WORKLOADS: [&str; 3] = ["wvmp", "adhoc_scan", "hybrid_ingest"];

/// One benchmark run.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: usize,
    pub trace: bool,
    pub sizes: Sizes,
}

fn parse_args(args: &[String]) -> Result<Run, String> {
    let mut run = Run {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        sizes: Sizes::full(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => run.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&run.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            run.workload
        ));
    }
    if run.seconds < 2 {
        return Err("--seconds must be at least 2".into());
    }
    Ok(run)
}

/// Run one workload and return its report.
pub fn execute(run: &Run) -> Report {
    let mut report = Report::default();
    report.meta("workload", run.workload.as_str());
    report.meta("seed", run.seed);
    report.meta("seconds", run.seconds);
    report.meta("trace", run.trace);
    report.meta("host_cores", sys::host_cores());
    report.meta("commit", sys::code_version());
    let sizes = &run.sizes;
    match run.workload.as_str() {
        "wvmp" => {
            let w = OfflineWorkload {
                dataset: workloads::wvmp_dataset(sizes, sizes.wvmp_rows, sizes.wvmp_segments),
                queries: workloads::wvmp_queries(sizes, run.seed, 20_000),
                checked: workloads::wvmp_checked(sizes, run.seed),
                open_loop_qps: Some(sizes.wvmp_rate_qps),
                closed_clients: offline::LOAD_THREADS.min(sys::host_cores()),
            };
            offline::run(&w, run, &mut report);
        }
        "adhoc_scan" => {
            let w = OfflineWorkload {
                dataset: workloads::adhoc_dataset(sizes),
                queries: workloads::adhoc_queries(sizes, run.seed, 2_000),
                checked: workloads::adhoc_checked(sizes, run.seed),
                open_loop_qps: None,
                closed_clients: 1,
            };
            offline::run(&w, run, &mut report);
        }
        _ => hybrid::run(run, &mut report),
    }
    if !run.trace {
        // Failures are end-to-end facts, but a rate that is 0 on most
        // workloads cannot carry a relative bound; it is reported here and
        // as a per-layer metric of the traced run.
        report.meta("error_rate", report.error_rate());
    } else {
        report.metric("error_rate", report.error_rate(), "ratio");
    }
    report
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match parse_args(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let overrides = sys::pinot_overrides();
    if !overrides.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {overrides:?} set; the benchmark measures the \
             shipped defaults"
        );
        std::process::exit(2);
    }
    let report = execute(&run);
    if let Some(bad) = report
        .metric_names()
        .into_iter()
        .find(|m| !report.value(m).is_some_and(f64::is_finite))
    {
        eprintln!("perfbench: metric {bad} is not a finite number");
        std::process::exit(3);
    }
    report.print();
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinot::common::json::Json;

    /// A seed the benchmark was never tuned on.
    const HELD_OUT_SEED: u64 = 0x00c0_ffee_d00d;

    /// The `name` of every entry of one list in `BENCHMARK.json`, sorted.
    fn declared(section: &str) -> Vec<String> {
        let text = std::fs::read_to_string(sys::repo_root().join("BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let mut names: Vec<String> = json
            .get(section)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn a_held_out_seed_produces_the_full_metric_set() {
        let listed = declared("workloads");
        for workload in WORKLOADS {
            let is_listed = listed.iter().any(|w| w == workload);
            for trace in [false, true] {
                let run = Run {
                    workload: workload.to_string(),
                    seed: HELD_OUT_SEED,
                    seconds: 2,
                    trace,
                    sizes: Sizes::tiny(),
                };
                let report = execute(&run);
                let section = if trace { "per_layer" } else { "end_to_end" };
                let mut names: Vec<String> = report
                    .metric_names()
                    .iter()
                    .map(|s| s.to_string())
                    .collect();
                names.sort();
                if is_listed {
                    assert_eq!(names, declared(section), "{workload} trace={trace}");
                } else {
                    // An unlisted workload may print more (hybrid_ingest's
                    // stream freshness), but never less.
                    for name in declared(section) {
                        assert!(names.contains(&name), "{workload}: {name} missing");
                    }
                }
                for name in report.metric_names() {
                    let v = report.value(name).unwrap();
                    assert!(v.is_finite(), "{workload}: {name} = {v}");
                }
                assert!(report.attempted > 0);
                if is_listed {
                    // A listed workload must answer correctly. The hybrid
                    // table's merge of finalized values is a known defect:
                    // hybrid_ingest's wrong answers are counted, which is
                    // why it is not listed.
                    assert_eq!(report.failed, 0, "{workload}: {:?}", report.mismatches);
                }
                if !trace {
                    for m in ["setup_s", "latency_p50_ms", "qps", "rss_mb"] {
                        assert!(report.value(m).unwrap() > 0.0, "{workload}: {m}");
                    }
                }
            }
        }
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let run = parse_args(&args("--workload wvmp --seed 7 --seconds 16 --trace 1")).unwrap();
        assert_eq!((run.seed, run.seconds, run.trace), (7, 16, true));
        assert!(parse_args(&args("--workload nope --seed 1")).is_err());
        assert!(parse_args(&args("--workload wvmp --trace 2")).is_err());
        assert!(parse_args(&args("--workload wvmp --seed")).is_err());
    }
}
