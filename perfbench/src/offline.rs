//! The offline workloads, `wvmp` and `adhoc_scan`: one table pushed as
//! segments, queried through the broker, answers checked against the
//! pinot-baseline engine.

use crate::layers::{self, ProfileSums};
use crate::loadgen::{self, BlockStats, LoopResult};
use crate::report::Report;
use crate::stats::{median, percentile, samples_beyond, Summary};
use crate::sys::rss_bytes;
use crate::trace::Tracer;
use crate::workloads::Dataset;
use crate::{oracle, Run};
use pinot::baseline::DruidEngine;
use pinot::common::query::{QueryRequest, QueryResponse, QueryResult};
use pinot::obs::MetricsSnapshot;
use pinot::{ClusterConfig, PinotCluster};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Load threads: pushers, open-loop senders and closed-loop clients. The
/// hosts this benchmark targets have two cores.
pub const LOAD_THREADS: usize = 2;

pub struct OfflineWorkload {
    pub dataset: Dataset,
    /// Query pool the measured phase cycles through.
    pub queries: Vec<String>,
    /// Queries whose answers are checked (and, traced, replayed).
    pub checked: Vec<String>,
    /// `Some(rate)`: open-loop blocks at this rate alternate with the
    /// closed-loop blocks (see [`measure`]).
    pub open_loop_qps: Option<f64>,
    pub closed_clients: usize,
}

/// A booted cluster holding the dataset, and what setting it up cost.
pub struct SetUp {
    pub cluster: PinotCluster,
    /// Time spent in program calls: start, table creation, pushes.
    pub secs: f64,
    /// Per segment: push start until a query counts its rows.
    pub freshness_ms: Vec<f64>,
    pub rows: usize,
}

/// Whether a query succeeded. The first few failures are printed with
/// their query, on standard error.
pub fn response_ok(pql: &str, r: &QueryResponse) -> bool {
    static PRINTED: AtomicUsize = AtomicUsize::new(0);
    let ok = !r.partial && r.exceptions.is_empty();
    if !ok && PRINTED.fetch_add(1, Ordering::Relaxed) < 20 {
        eprintln!("# FAILED {pql} :: partial={} {:?}", r.partial, r.exceptions);
    }
    ok
}

fn count(cluster: &PinotCluster, pql: &str) -> Option<i64> {
    let r = cluster.query(pql);
    if !response_ok(pql, &r) {
        return None;
    }
    r.result.single_aggregate().and_then(|v| v.as_i64())
}

/// Poll `pql` (a COUNT(*)) until it reaches `expected`; returns when the
/// first query that saw it returned, or `None` after ten seconds or on a
/// failed query.
pub fn wait_visible(cluster: &PinotCluster, pql: &str, expected: i64) -> Option<Instant> {
    let give_up = Instant::now() + Duration::from_secs(10);
    loop {
        let n = count(cluster, pql)?;
        if n >= expected {
            return Some(Instant::now());
        }
        if Instant::now() > give_up {
            return None;
        }
        std::thread::yield_now();
    }
}

/// What pushing a dataset cost.
pub struct Pushed {
    /// Wall time spent in push calls.
    pub program: Duration,
    /// Per segment: push start until a query counts its rows.
    pub freshness_ms: Vec<f64>,
}

/// Push every segment of `ds`, like a batch push job that builds and
/// uploads up to [`LOAD_THREADS`] segments at a time. Rows are generated
/// before each round and that is not timed. With `count_pql`, a query
/// after each round waits until it counts every row pushed so far.
pub fn push_segments(
    cluster: &PinotCluster,
    ds: &Dataset,
    seed: u64,
    count_pql: Option<&str>,
    report: &mut Report,
) -> Pushed {
    let threads = LOAD_THREADS.min(crate::sys::host_cores()).max(1);
    let mut pushed = Pushed {
        program: Duration::ZERO,
        freshness_ms: Vec::new(),
    };
    let mut rows = 0;
    let ks: Vec<usize> = (0..ds.segments).collect();
    for round in ks.chunks(threads) {
        let segments: Vec<_> = round.iter().map(|&k| ds.segment_rows(seed, k)).collect();
        rows += segments.iter().map(Vec::len).sum::<usize>();
        let started = Instant::now();
        std::thread::scope(|s| {
            let handles: Vec<_> = segments
                .into_iter()
                .map(|rows| s.spawn(move || cluster.upload_rows(ds.table, rows).is_ok()))
                .collect();
            for h in handles {
                report.op(h.join().expect("no push panicked"));
            }
        });
        pushed.program += started.elapsed();
        if let Some(pql) = count_pql {
            let seen = wait_visible(cluster, pql, rows as i64);
            report.op(seen.is_some());
            if let Some(seen) = seen {
                let ms = loadgen::ms(seen - started);
                pushed.freshness_ms.extend(round.iter().map(|_| ms));
            }
        }
    }
    pushed
}

/// Start a default cluster, create the table and push every segment.
pub fn set_up(ds: &Dataset, seed: u64, report: &mut Report) -> SetUp {
    let t = Instant::now();
    let cluster = PinotCluster::start(ClusterConfig::default()).expect("cluster starts");
    cluster
        .create_table(ds.config.clone(), ds.schema.clone())
        .expect("table is created");
    let started = t.elapsed();
    let count_pql = format!("SELECT COUNT(*) FROM {}", ds.table);
    let pushed = push_segments(&cluster, ds, seed, Some(&count_pql), report);
    SetUp {
        cluster,
        secs: (started + pushed.program).as_secs_f64(),
        freshness_ms: pushed.freshness_ms,
        rows: ds.segments * ds.rows_per_segment,
    }
}

/// Load the oracle with exactly the rows pushed to the cluster and compare
/// each checked query's answer with it.
pub fn check_answers(
    ds: &Dataset,
    rows: Vec<pinot::common::Record>,
    answers: &[(String, QueryResult)],
    report: &mut Report,
) {
    // Two historicals: the baseline's broker runs one thread per
    // historical, one per core of the hosts this benchmark targets.
    let mut oracle_engine = DruidEngine::new(2);
    oracle_engine
        .load_table(
            ds.table,
            ds.schema.clone(),
            rows,
            ds.rows_per_segment.max(1),
        )
        .expect("oracle loads the rows");
    for (pql, actual) in answers {
        let outcome = match oracle_engine.execute(&QueryRequest::new(pql.as_str())) {
            Ok(expected) => oracle::compare(&expected.result, actual),
            Err(e) => Err(format!("oracle failed: {e}")),
        };
        report.check(pql, outcome);
    }
}

pub fn run(w: &OfflineWorkload, run: &Run, report: &mut Report) {
    let ds = &w.dataset;
    let rss_before = rss_bytes();
    let first = set_up(ds, run.seed, report);
    let mut setup_secs = vec![first.secs];
    let mut freshness = first.freshness_ms;
    let cluster = first.cluster;
    report.meta("servers", cluster.servers().len());
    report.meta(
        "server_pool_threads",
        pinot::common::json::Json::Arr(
            cluster
                .servers()
                .iter()
                .map(|s| s.task_pool().threads().into())
                .collect(),
        ),
    );

    let answers = if run.trace {
        traced(w, &cluster, run, report)
    } else {
        measure(w, &cluster, run, report);
        report.metric(
            "rss_mb",
            rss_bytes().saturating_sub(rss_before) as f64 / (1 << 20) as f64,
            "MiB",
        );
        report.metric(
            "stored_bytes_per_row",
            cluster.objstore().size_under("") as f64 / first.rows as f64,
            "B/row",
        );
        w.checked
            .iter()
            .map(|pql| {
                let r = cluster.query(pql);
                report.op(response_ok(pql, &r));
                (pql.clone(), r.result)
            })
            .collect()
    };
    drop(cluster);

    if !run.trace {
        for _ in 1..run.sizes.setups {
            let again = set_up(ds, run.seed, report);
            setup_secs.push(again.secs);
            freshness.extend(again.freshness_ms);
        }
        report.metric("setup_s", median(&setup_secs).unwrap_or(0.0), "s");
        report.meta("setups", setup_secs.len());
    }
    // Segments are equal-sized, so percentiles over segments are
    // percentiles over rows. On an offline table the median is the push
    // time that `setup_s` already covers, so it is printed with the run
    // rather than bounded as an end-to-end metric.
    if run.trace {
        freshness_metric(&freshness, true, "freshness_samples_segments", report);
    } else if let Some(f) = Summary::of(&freshness) {
        report.meta("freshness_p50_ms", f.p50);
        report.meta("freshness_samples_segments", f.n);
    }
    check_answers(ds, ds.all_rows(run.seed), &answers, report);
}

fn query_op<'a>(
    cluster: &'a PinotCluster,
    pool: &'a [String],
) -> impl Fn(usize) -> bool + Sync + 'a {
    move |i| {
        let pql = pool[i % pool.len()].as_str();
        response_ok(pql, &cluster.execute(&QueryRequest::new(pql)))
    }
}

/// The untraced measured phase, in blocks of [`loadgen::BLOCK`] after one
/// block of warm-up. Latency and throughput come from closed-loop blocks.
/// With an open-loop rate, open-loop blocks alternate with them and their
/// latency, timed from each scheduled send, is printed with the run: on a
/// two-vCPU virtual machine it is dominated by waking idle vCPUs and
/// spreads too widely between runs to carry a bound.
fn measure(w: &OfflineWorkload, cluster: &PinotCluster, run: &Run, report: &mut Report) {
    let op = query_op(cluster, &w.queries);
    let closed_op = |client: usize, i: usize| op(client * w.queries.len() / 2 + i);
    // Warm-up block, not measured, on queries the blocks below start after.
    let warm = loadgen::closed_loop(w.closed_clients, loadgen::BLOCK, closed_op);
    report.ops(warm.attempted, warm.failed);
    let mut open = LoopResult::default();
    let mut closed = Vec::new();
    let mut sent = warm.attempted;
    for b in 0..run.seconds {
        match w.open_loop_qps {
            Some(rate) if b % 2 == 0 => {
                let block =
                    loadgen::open_loop(w.closed_clients, rate, loadgen::BLOCK, |i, _| op(sent + i));
                sent += block.attempted;
                open.absorb(block);
            }
            _ => {
                let block = loadgen::closed_loop(w.closed_clients, loadgen::BLOCK, |c, i| {
                    closed_op(c, sent + i)
                });
                sent += block.attempted;
                closed.push(block);
            }
        }
    }
    for c in &closed {
        report.ops(c.attempted, c.failed);
    }
    report.ops(open.attempted, open.failed);
    let stats = BlockStats::of(&closed).expect("closed-loop blocks ran");
    report_blocks(
        &stats,
        &format!("closed, {} clients", w.closed_clients),
        report,
    );
    if let (Some(rate), Some(o)) = (w.open_loop_qps, Summary::of(&open.latencies_ms)) {
        report.meta(
            "open_loop",
            format!("{rate} qps, {} senders", w.closed_clients),
        );
        report.meta("open_loop_latency_p50_ms", o.p50);
        report.meta("open_loop_latency_p99_ms", o.p99);
        report.meta("open_loop_samples", o.n);
        report.meta(
            "loadgen_late_p99_ms",
            percentile(&open.late_ms, 0.99).unwrap_or(0.0),
        );
    }
}

/// Freshness: the median is an end-to-end metric; the p99 swings with
/// rare stalls and seal spikes far more between runs than a bound allows,
/// so it is reported by the traced run, unbounded.
pub fn freshness_metric(samples: &[f64], trace: bool, samples_key: &str, report: &mut Report) {
    let f = Summary::of(samples).expect("freshness was measured");
    if trace {
        report.metric("freshness_p99_ms", f.p99, "ms");
    } else {
        report.metric("freshness_p50_ms", f.p50, "ms");
    }
    report.meta(samples_key, f.n);
    report.meta("freshness_p99_supported", f.p99_supported());
}

/// Report the end-to-end query metrics of closed-loop blocks.
pub fn report_blocks(stats: &BlockStats, lp: &str, report: &mut Report) {
    report.metric("latency_p50_ms", stats.p50_ms, "ms");
    report.metric("latency_p99_ms", stats.p99_ms, "ms");
    report.metric("qps", stats.qps, "1/s");
    report.meta("latency_loop", lp);
    report.meta("latency_blocks", stats.blocks);
    report.meta("latency_samples", stats.samples);
    report.meta(
        "latency_p99_supported",
        samples_beyond(stats.samples, 0.99) >= 10,
    );
}

/// Delta of a counter between two snapshots.
pub fn delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> f64 {
    after.counter(name).saturating_sub(before.counter(name)) as f64
}

/// Mean of the observations a histogram gained between two snapshots.
pub fn hist_mean_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> f64 {
    let (n0, s0) = before
        .histogram(name)
        .map_or((0, 0.0), |h| (h.count(), h.sum()));
    let (n1, s1) = after
        .histogram(name)
        .map_or((0, 0.0), |h| (h.count(), h.sum()));
    ratio(s1 - s0, n1.saturating_sub(n0) as f64)
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Program-reported counters shared by every workload's traced run.
pub fn counter_metrics(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    executions: f64,
    report: &mut Report,
) {
    let plans: f64 = ["exec.plan_scan", "exec.plan_inverted", "exec.plan_sorted"]
        .iter()
        .map(|n| delta(before, after, n))
        .sum();
    report.metric(
        "exec.plan_scan_share",
        ratio(delta(before, after, "exec.plan_scan"), plans),
        "ratio",
    );
    report.metric(
        "exec.morsels_split_per_query",
        ratio(delta(before, after, "exec.morsels_split"), executions),
        "count",
    );
    report.metric(
        "taskpool.steal_ratio",
        ratio(
            delta(before, after, "taskpool.tasks_stolen"),
            delta(before, after, "taskpool.tasks_run"),
        ),
        "ratio",
    );
    report.metric(
        "realtime.cut_rows_per_query",
        ratio(delta(before, after, "realtime.query_cut_rows"), executions),
        "rows",
    );
}

/// Per-query statistics the broker reports in `ExecutionStats`.
#[derive(Default)]
pub struct StatSums {
    pub queries: f64,
    pub servers: f64,
    pub segments_queried: f64,
    pub segments_pruned: f64,
    pub filter_entries: f64,
    pub docs_scanned: f64,
}

impl StatSums {
    pub fn add(&mut self, r: &QueryResponse) {
        let s = &r.stats;
        self.queries += 1.0;
        self.servers += s.num_servers_queried as f64;
        self.segments_queried += s.num_segments_queried as f64;
        self.segments_pruned += s.num_segments_pruned as f64;
        self.filter_entries += s.num_entries_scanned_in_filter as f64;
        self.docs_scanned += s.num_docs_scanned as f64;
    }

    pub fn report(&self, report: &mut Report) {
        report.metric(
            "broker.servers_per_query",
            ratio(self.servers, self.queries),
            "count",
        );
        report.metric(
            "prune.segments_pruned_ratio",
            ratio(self.segments_pruned, self.segments_queried),
            "ratio",
        );
        report.metric(
            "exec.filter_entries_per_doc",
            ratio(self.filter_entries, self.docs_scanned),
            "ratio",
        );
    }
}

/// Profile-tree splits: medians per query of filter and aggregate time,
/// and over all queries the segment busy time per server wall time.
pub fn profile_metrics(per_query: &[ProfileSums], report: &mut Report) {
    let med = |f: fn(&ProfileSums) -> u64| {
        let v: Vec<f64> = per_query.iter().map(|p| f(p) as f64 / 1e3).collect();
        median(&v).unwrap_or(0.0)
    };
    report.metric("exec.filter_us", med(|p| p.filter_ns), "us");
    report.metric("exec.aggregate_us", med(|p| p.aggregate_ns), "us");
    let mut total = ProfileSums::default();
    for p in per_query {
        total.absorb(p);
    }
    report.metric(
        "server.parallelism",
        ratio(total.segment_busy_ns as f64, total.server_wall_ns as f64),
        "ratio",
    );
    report.metric(
        "exec.row_segment_share",
        ratio(total.row_scan_nodes as f64, total.scan_nodes as f64),
        "ratio",
    );
}

/// The traced run: a short open-loop phase for queueing and generator
/// lateness, then every checked query end to end (untraced and traced, in
/// alternating order) and replayed through the layers.
fn traced(
    w: &OfflineWorkload,
    cluster: &PinotCluster,
    run: &Run,
    report: &mut Report,
) -> Vec<(String, QueryResult)> {
    let before = cluster.metrics_snapshot();
    let op = query_op(cluster, &w.queries);
    let late_p99 = match w.open_loop_qps {
        Some(rate) => {
            let open = loadgen::open_loop(
                w.closed_clients,
                rate,
                Duration::from_secs_f64(run.seconds as f64 / 2.0),
                |i, _| op(i),
            );
            report.ops(open.attempted, open.failed);
            report.meta("open_loop_samples", open.attempted);
            percentile(&open.late_ms, 0.99).unwrap_or(0.0)
        }
        None => 0.0,
    };
    let after_open = cluster.metrics_snapshot();
    report.metric("loadgen.late_ms", late_p99, "ms");

    let tracer = Tracer::default();
    let physical = w.dataset.physical_table();
    let mut untraced_ms = Vec::new();
    let mut stat_sums = StatSums::default();
    let mut profiles = Vec::new();
    let mut answers = Vec::new();
    for (i, pql) in w.checked.iter().enumerate() {
        // The untraced and the traced run of a query go back to back, in
        // alternating order, so neither is always the warm one.
        let qid = i as u64;
        let mut plain = || {
            let t = Instant::now();
            let r = cluster.execute(&QueryRequest::new(pql.as_str()));
            untraced_ms.push(loadgen::ms(t.elapsed()));
            response_ok(pql, &r)
        };
        let traced = || {
            tracer.span(layers::E2E, None, qid, |_| {
                cluster.execute(&QueryRequest::new(pql.as_str()))
            })
        };
        let (ok_plain, e2e) = if i % 2 == 0 {
            (plain(), traced())
        } else {
            let e2e = traced();
            (plain(), e2e)
        };
        report.op(ok_plain);
        report.op(response_ok(pql, &e2e));
        stat_sums.add(&e2e);
        let (replayed, profile) = layers::replay(cluster, &physical, pql, qid, &tracer);
        profiles.push(profile);
        let replay_outcome = replayed.and_then(|r| oracle::compare(&e2e.result, &r));
        report.check(&format!("[replay vs end to end] {pql}"), replay_outcome);
        answers.push((pql.clone(), e2e.result));
    }
    let after = cluster.metrics_snapshot();
    report.metric(
        "server.queue_us",
        hist_mean_delta(&before, &after, "server.exec.queue_ms") * 1e3,
        "us",
    );
    crate::hybrid::ingest_metrics(&Default::default(), &before, &after, report);
    // Each checked query ran three times: untraced, traced, replayed.
    counter_metrics(&after_open, &after, 3.0 * w.checked.len() as f64, report);
    stat_sums.report(report);
    profile_metrics(&profiles, report);
    span_metrics(&tracer, &untraced_ms, report);
    report.meta("program_reported", program_reported(&[]));
    write_spans(&tracer, run);
    answers
}

/// Layer self times from the replay spans, medians over queries.
fn span_metrics(tracer: &Tracer, untraced_ms: &[f64], report: &mut Report) {
    let by_query = layers::layers_by_query(&tracer.spans());
    let med = |f: &dyn Fn(&layers::QueryLayers) -> f64| {
        let v: Vec<f64> = by_query.values().map(f).collect();
        median(&v).unwrap_or(0.0)
    };
    report.metric("pql.parse_us", med(&|q| q.parse_ns as f64 / 1e3), "us");
    report.metric(
        "broker.overhead_us",
        med(&|q| q.broker_overhead_ns() as f64 / 1e3),
        "us",
    );
    report.metric(
        "server.execute_us",
        med(&|q| q.server_ns.iter().sum::<u64>() as f64 / 1e3),
        "us",
    );
    report.metric(
        "server.execute_max_us",
        med(&|q| q.server_ns.iter().copied().max().unwrap_or(0) as f64 / 1e3),
        "us",
    );
    report.metric(
        "server.skew",
        med(&|q| {
            let n = q.server_ns.len() as f64;
            let sum = q.server_ns.iter().sum::<u64>() as f64;
            ratio(
                q.server_ns.iter().copied().max().unwrap_or(0) as f64 * n,
                sum,
            )
        }),
        "ratio",
    );
    report.metric("exec.merge_us", med(&|q| q.merge_ns as f64 / 1e3), "us");
    report.metric(
        "exec.finalize_us",
        med(&|q| q.finalize_ns as f64 / 1e3),
        "us",
    );
    let traced_p50 = med(&|q| q.e2e_ns as f64 / 1e6);
    overhead_metric(traced_p50, untraced_ms, report);
}

pub fn overhead_metric(traced_p50_ms: f64, untraced_ms: &[f64], report: &mut Report) {
    let untraced_p50 = median(untraced_ms).unwrap_or(0.0);
    report.metric(
        "trace.overhead_pct",
        ratio(traced_p50_ms, untraced_p50).mul_add(100.0, -100.0),
        "%",
    );
    report.meta("trace_samples", untraced_ms.len());
}

/// Per-layer metrics taken from the program's own reports (profile trees,
/// `ExecutionStats`, metric counters) rather than from the benchmark's
/// spans, plus `extra` ones for the workload at hand.
pub fn program_reported(extra: &[&str]) -> pinot::common::json::Json {
    const ALWAYS: [&str; 14] = [
        "broker.servers_per_query",
        "prune.segments_pruned_ratio",
        "server.queue_us",
        "exec.filter_us",
        "exec.aggregate_us",
        "exec.filter_entries_per_doc",
        "exec.row_segment_share",
        "exec.plan_scan_share",
        "exec.morsels_split_per_query",
        "taskpool.steal_ratio",
        "server.parallelism",
        "realtime.cut_rows_per_query",
        "ingest.seals",
        "ingest.backpressure_stalls",
    ];
    pinot::common::json::Json::Arr(ALWAYS.iter().chain(extra).map(|&m| m.into()).collect())
}

pub fn write_spans(tracer: &Tracer, run: &Run) {
    let path = crate::sys::repo_root().join(format!(
        ".bench_out/spans-{}-{}.jsonl",
        run.workload, run.seed
    ));
    match tracer.write_jsonl(&path) {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => println!("# spans not written: {e}"),
    }
}
