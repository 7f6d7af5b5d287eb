//! The `hybrid_ingest` workload: WVMP history in an offline table, fresh
//! rows arriving on a stream into the realtime table of the same logical
//! table, and WVMP queries served across the time boundary while a
//! producer writes.
//!
//! `BENCHMARK.json` does not list this workload: the broker merges the two
//! tables' finalized values, so DISTINCTCOUNT and AVG across the boundary
//! come out wrong, and a listed workload must answer correctly. Run by
//! hand, it still checks every answer and counts each wrong one.

use crate::layers::ProfileSums;
use crate::loadgen::{self, BlockStats, LoopResult};
use crate::offline::{
    self, check_answers, counter_metrics, delta, freshness_metric, hist_mean_delta,
    overhead_metric, push_segments, ratio, report_blocks, response_ok, wait_visible, StatSums,
};
use crate::report::Report;
use crate::stats::{median, percentile, Summary};
use crate::sys::rss_bytes;
use crate::trace::Tracer;
use crate::workloads::{self, Dataset, Sizes, STREAM_PARTITIONS, TOPIC};
use crate::Run;
use pinot::common::query::{QueryRequest, QueryResponse, QueryResult};
use pinot::common::{Record, Value};
use pinot::workloads::wvmp;
use pinot::{ClusterConfig, PinotCluster};
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The time boundary: the latest day in the history. The broker serves
/// earlier days from the offline table and this day onwards from the
/// realtime table.
pub const BOUNDARY_DAY: i64 = workloads::BASE_DAY + wvmp::DAYS - 1;

const SPAN_QUERY: &str = "hybrid.query";
const SPAN_PARSE: &str = "pql.parse";
const SPAN_EXECUTE: &str = "cluster.execute_profiled";
const SPAN_PRODUCE: &str = "stream.produce";
const SPAN_TICK: &str = "ingest.tick";
const SPAN_SERVER_TICK: &str = "server.consume_tick";

fn visible_pql() -> String {
    format!(
        "SELECT COUNT(*) FROM {} WHERE day >= {BOUNDARY_DAY}",
        wvmp::TABLE
    )
}

struct SetUp {
    cluster: PinotCluster,
    secs: f64,
}

/// Boot, create both halves of the table, push the history and pre-fill
/// the stream. Generating rows is not timed.
fn set_up(
    ds: &Dataset,
    sizes: &Sizes,
    seed: u64,
    prefill: &[Record],
    report: &mut Report,
) -> SetUp {
    let t = Instant::now();
    let cluster = PinotCluster::start(ClusterConfig::default()).expect("cluster starts");
    cluster
        .streams()
        .create_topic(TOPIC, STREAM_PARTITIONS)
        .expect("topic is created");
    cluster
        .create_table(ds.config.clone(), ds.schema.clone())
        .expect("offline table is created");
    cluster
        .create_table(workloads::hybrid_realtime_config(sizes), ds.schema.clone())
        .expect("realtime table is created");
    let mut program = t.elapsed();
    program += push_segments(&cluster, ds, seed, None, report).program;
    let t = Instant::now();
    let prefilled = prefill.iter().enumerate().all(|(i, r)| {
        cluster
            .produce(TOPIC, &Value::Long(i as i64), r.clone())
            .is_ok()
    });
    report.op(prefilled);
    report.op(cluster.consume_until_idle().is_ok());
    program += t.elapsed();
    report.op(wait_visible(&cluster, &visible_pql(), prefill.len() as i64).is_some());
    SetUp {
        cluster,
        secs: program.as_secs_f64(),
    }
}

fn day(r: &Record) -> Option<i64> {
    r.values().last().and_then(Value::as_i64)
}

/// What the producer saw during the measured phase.
#[derive(Default)]
pub struct Ingest {
    freshness_ms: Vec<f64>,
    tick_us: Vec<f64>,
    seal_tick_us: Vec<f64>,
    seals: f64,
    produce_ns: u64,
    rows: usize,
}

/// A produced batch no probe has counted yet.
struct Pending {
    /// Stream rows up to and including this batch.
    end: usize,
    due: Instant,
}

/// The producer's open loop: every batch is due at a fixed time; it is
/// produced, one consume tick runs, and a probe query counts the stream
/// rows it can see. A batch is fresh once a probe counts it.
struct Producer<'a> {
    cluster: &'a PinotCluster,
    stream: &'a [Record],
    prefill: usize,
    batch: usize,
    tracer: Option<&'a Tracer>,
    state: Mutex<(Ingest, VecDeque<Pending>)>,
}

impl Producer<'_> {
    fn send(&self, i: usize, due: Instant) -> bool {
        let lo = self.prefill + i * self.batch;
        let hi = (lo + self.batch).min(self.stream.len());
        let produce = || {
            let t = Instant::now();
            let ok = self.stream[lo..hi].iter().enumerate().all(|(k, r)| {
                self.cluster
                    .produce(TOPIC, &Value::Long((lo + k) as i64), r.clone())
                    .is_ok()
            });
            (ok, t.elapsed())
        };
        let seals_before = self.tracer.map(|_| {
            self.cluster
                .metrics_snapshot()
                .counter("controller.commit.ok")
        });
        let tick = || {
            let t = Instant::now();
            let ok = match self.tracer {
                Some(tracer) => tracer.span(SPAN_TICK, None, i as u64, |root| {
                    self.cluster.servers().iter().all(|s| {
                        tracer.span(SPAN_SERVER_TICK, Some(root), i as u64, |_| {
                            s.consume_tick().is_ok()
                        })
                    })
                }),
                None => self.cluster.consume_tick().is_ok(),
            };
            (ok, t.elapsed())
        };
        let (produced, produce_time) = match self.tracer {
            Some(tracer) => tracer.span(SPAN_PRODUCE, None, i as u64, |_| produce()),
            None => produce(),
        };
        let (ticked, tick_time) = tick();
        let seen = visible_count(self.cluster);
        let probed = Instant::now();

        let mut guard = self.state.lock().expect("no producer panicked");
        let (ingest, pending) = &mut *guard;
        ingest.produce_ns += produce_time.as_nanos() as u64;
        ingest.rows += hi - lo;
        ingest.tick_us.push(tick_time.as_secs_f64() * 1e6);
        if let Some(before) = seals_before {
            let sealed = self
                .cluster
                .metrics_snapshot()
                .counter("controller.commit.ok")
                - before;
            ingest.seals += sealed as f64;
            if sealed > 0 {
                ingest.seal_tick_us.push(tick_time.as_secs_f64() * 1e6);
            }
        }
        pending.push_back(Pending { end: hi, due });
        if let Some(seen) = seen {
            mark_fresh(ingest, pending, seen, probed);
        }
        produced && ticked && seen.is_some()
    }
}

fn visible_count(cluster: &PinotCluster) -> Option<usize> {
    let pql = visible_pql();
    let r = cluster.query(&pql);
    if !response_ok(&pql, &r) {
        return None;
    }
    r.result
        .single_aggregate()
        .and_then(Value::as_i64)
        .map(|n| n as usize)
}

/// Every pending batch whose last row is within the `seen` count became
/// visible to a query that returned at `now`.
fn mark_fresh(ingest: &mut Ingest, pending: &mut VecDeque<Pending>, seen: usize, now: Instant) {
    while let Some(p) = pending.front() {
        if p.end > seen {
            break;
        }
        ingest
            .freshness_ms
            .push(loadgen::ms(now.saturating_duration_since(p.due)));
        pending.pop_front();
    }
}

/// What the query client saw during the measured phase.
#[derive(Default)]
struct Queries {
    untraced_ms: Vec<f64>,
    traced: Vec<TracedQuery>,
    stats: StatSums,
}

struct TracedQuery {
    e2e_ms: f64,
    parse_us: f64,
    profile: ProfileSums,
    servers_us: Vec<f64>,
    broker_merge_us: f64,
}

pub fn run(run: &Run, report: &mut Report) {
    let sizes = &run.sizes;
    let ds = workloads::wvmp_dataset(sizes, sizes.hybrid_offline_rows, sizes.hybrid_segments);
    let batches = sizes.stream_batches_per_s * run.seconds;
    let batch = sizes.stream_rows_per_s / sizes.stream_batches_per_s;
    let stream = workloads::stream_rows(
        sizes,
        run.seed,
        BOUNDARY_DAY,
        sizes.stream_prefill_rows + batches * batch,
    );
    let prefill = &stream[..sizes.stream_prefill_rows];
    let queries = workloads::wvmp_queries(sizes, run.seed, 20_000);
    let checked = workloads::wvmp_checked(sizes, run.seed);

    let rss_before = rss_bytes();
    let first = set_up(&ds, sizes, run.seed, prefill, report);
    let mut setup_secs = vec![first.secs];
    let cluster = first.cluster;
    report.meta("servers", cluster.servers().len());

    let tracer = Tracer::default();
    let producer = Producer {
        cluster: &cluster,
        stream: &stream,
        prefill: prefill.len(),
        batch,
        tracer: run.trace.then_some(&tracer),
        state: Mutex::new(Default::default()),
    };
    let client_state = Mutex::new(Queries::default());
    let before = cluster.metrics_snapshot();
    let (produced, queried) = std::thread::scope(|s| {
        let producer = &producer;
        let send = s.spawn(move || {
            loadgen::open_loop(
                1,
                sizes.stream_batches_per_s as f64,
                Duration::from_secs(run.seconds as u64),
                |i, due| producer.send(i, due),
            )
        });
        let queried = loadgen::closed_loop_blocks(1, run.seconds, |_, i| {
            let pql = queries[i % queries.len()].as_str();
            query(
                &cluster,
                pql,
                i,
                run.trace.then_some(&tracer),
                &client_state,
            )
        });
        (send.join().expect("producer did not panic"), queried)
    });
    let after = cluster.metrics_snapshot();
    report.ops(produced.attempted, produced.failed);
    for q in &queried {
        report.ops(q.attempted, q.failed);
    }

    // Drain the stream; batches not yet seen become fresh when they are.
    report.op(cluster.consume_until_idle().is_ok());
    let total = stream.len();
    let seen = wait_visible(&cluster, &visible_pql(), total as i64);
    report.op(seen.is_some());
    let (mut ingest, mut pending) = producer.state.into_inner().expect("no producer panicked");
    if let Some(now) = seen {
        mark_fresh(&mut ingest, &mut pending, total, now);
    }
    let client = client_state.into_inner().expect("no client panicked");
    freshness_metric(
        &ingest.freshness_ms,
        run.trace,
        "freshness_samples_batches",
        report,
    );

    if run.trace {
        traced_metrics(&produced, &ingest, &client, &before, &after, report);
        offline::write_spans(&tracer, run);
    } else {
        let stats = BlockStats::of(&queried).expect("queries ran");
        report_blocks(&stats, "closed, 1 client, beside 1 producer", report);
        report.meta(
            "loadgen_late_p99_ms",
            percentile(&produced.late_ms, 0.99).unwrap_or(0.0),
        );
        report.meta("stream_rows_per_s", sizes.stream_rows_per_s);
        report.metric(
            "rss_mb",
            rss_bytes().saturating_sub(rss_before) as f64 / (1 << 20) as f64,
            "MiB",
        );
        report.metric(
            "stored_bytes_per_row",
            cluster.objstore().size_under("") as f64
                / (ds.segments * ds.rows_per_segment + total) as f64,
            "B/row",
        );
    }

    let answers: Vec<(String, QueryResult)> = checked
        .iter()
        .map(|pql| {
            let r = cluster.query(pql);
            report.op(response_ok(pql, &r));
            (pql.clone(), r.result)
        })
        .collect();
    drop(cluster);

    if !run.trace {
        for _ in 1..sizes.setups {
            let again = set_up(&ds, sizes, run.seed, prefill, report);
            setup_secs.push(again.secs);
        }
        report.metric("setup_s", median(&setup_secs).unwrap_or(0.0), "s");
        report.meta("setups", setup_secs.len());
    }

    // The oracle holds exactly the rows the time boundary keeps: history
    // before the boundary day, and everything the stream carried.
    let history = ds.all_rows(run.seed);
    let last_day = history.iter().filter_map(day).max();
    assert_eq!(
        last_day,
        Some(BOUNDARY_DAY),
        "history must end on the boundary day"
    );
    let mut rows: Vec<Record> = history
        .into_iter()
        .filter(|r| day(r).is_some_and(|d| d < BOUNDARY_DAY))
        .collect();
    rows.extend(stream);
    check_answers(&ds, rows, &answers, report);
}

/// One query of the client's closed loop. Traced runs alternate: even
/// queries run plain, odd ones profiled inside spans, so the two sets see
/// the same ingest state and their medians give the tracing overhead.
fn query(
    cluster: &PinotCluster,
    pql: &str,
    i: usize,
    tracer: Option<&Tracer>,
    state: &Mutex<Queries>,
) -> bool {
    let Some(tracer) = tracer.filter(|_| i % 2 == 1) else {
        let t = Instant::now();
        let r = cluster.execute(&QueryRequest::new(pql));
        let ms = loadgen::ms(t.elapsed());
        let mut st = state.lock().expect("no client panicked");
        st.untraced_ms.push(ms);
        if tracer.is_some() {
            st.stats.add(&r);
        }
        return response_ok(pql, &r);
    };
    let qid = i as u64;
    let mut parse_us = 0.0;
    let mut e2e_ms = 0.0;
    let r: QueryResponse = tracer.span(SPAN_QUERY, None, qid, |root| {
        let parsed = tracer.span(SPAN_PARSE, Some(root), qid, |_| {
            let t = Instant::now();
            let parsed = pinot::pql::parse(pql);
            parse_us = t.elapsed().as_secs_f64() * 1e6;
            parsed
        });
        let t = Instant::now();
        let r = tracer.span(SPAN_EXECUTE, Some(root), qid, |_| {
            cluster.execute_profiled(&QueryRequest::new(pql))
        });
        e2e_ms = loadgen::ms(t.elapsed());
        if parsed.is_err() {
            return QueryResponse {
                exceptions: vec!["the benchmark could not parse the query".into()],
                ..r
            };
        }
        r
    });
    let mut traced = TracedQuery {
        e2e_ms,
        parse_us,
        profile: ProfileSums::default(),
        servers_us: Vec::new(),
        broker_merge_us: 0.0,
    };
    if let Some(p) = &r.profile {
        for node in &p.root.children {
            match node.operator {
                "server" => {
                    traced.profile.add_server(node);
                    traced.servers_us.push(node.elapsed_ns as f64 / 1e3);
                }
                "merge" => traced.broker_merge_us += node.elapsed_ns as f64 / 1e3,
                _ => {}
            }
        }
    }
    let mut st = state.lock().expect("no client panicked");
    st.stats.add(&r);
    st.traced.push(traced);
    response_ok(pql, &r)
}

fn traced_metrics(
    produced: &LoopResult,
    ingest: &Ingest,
    client: &Queries,
    before: &pinot::obs::MetricsSnapshot,
    after: &pinot::obs::MetricsSnapshot,
    report: &mut Report,
) {
    let executions = client.stats.queries;
    counter_metrics(before, after, executions, report);
    report.meta(
        "program_reported",
        offline::program_reported(&[
            "server.execute_us",
            "server.execute_max_us",
            "server.skew",
            "exec.merge_us",
            "broker.overhead_us (end to end minus program-reported server and merge times)",
        ]),
    );
    client.stats.report(report);
    let profiles: Vec<ProfileSums> = client.traced.iter().map(|q| q.profile).collect();
    offline::profile_metrics(&profiles, report);
    report.metric(
        "server.queue_us",
        hist_mean_delta(before, after, "server.exec.queue_ms") * 1e3,
        "us",
    );

    let med = |f: &dyn Fn(&TracedQuery) -> f64| {
        median(&client.traced.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let max_server = |q: &TracedQuery| q.servers_us.iter().copied().fold(0.0, f64::max);
    report.metric("pql.parse_us", med(&|q| q.parse_us), "us");
    // The broker's merge and finalize are not public for hybrid tables:
    // overhead here subtracts the program-reported merge phase, and
    // finalize time is not measured (reported as 0).
    report.metric(
        "broker.overhead_us",
        med(&|q| q.e2e_ms * 1e3 - q.parse_us - max_server(q) - q.broker_merge_us),
        "us",
    );
    report.metric(
        "server.execute_us",
        med(&|q| q.servers_us.iter().sum()),
        "us",
    );
    report.metric("server.execute_max_us", med(&max_server), "us");
    report.metric(
        "server.skew",
        med(&|q| {
            ratio(
                max_server(q) * q.servers_us.len() as f64,
                q.servers_us.iter().sum(),
            )
        }),
        "ratio",
    );
    report.metric("exec.merge_us", med(&|q| q.broker_merge_us), "us");
    report.metric("exec.finalize_us", 0.0, "us");
    report.meta(
        "not_measured",
        "exec.finalize_us (hybrid finalize is inside the broker)",
    );
    overhead_metric(med(&|q| q.e2e_ms), &client.untraced_ms, report);

    ingest_metrics(ingest, before, after, report);
    report.metric(
        "loadgen.late_ms",
        percentile(&produced.late_ms, 0.99).unwrap_or(0.0),
        "ms",
    );
}

/// Ingest-layer metrics; an offline workload reports them from an empty
/// [`Ingest`], as zero work.
pub fn ingest_metrics(
    ingest: &Ingest,
    before: &pinot::obs::MetricsSnapshot,
    after: &pinot::obs::MetricsSnapshot,
    report: &mut Report,
) {
    let tick = Summary::of(&ingest.tick_us);
    report.metric("ingest.tick_us_p50", tick.map_or(0.0, |s| s.p50), "us");
    report.metric("ingest.tick_us_p99", tick.map_or(0.0, |s| s.p99), "us");
    report.meta("ingest_tick_samples", ingest.tick_us.len());
    report.metric(
        "ingest.tick_us_per_krow",
        ratio(ingest.tick_us.iter().sum(), ingest.rows as f64 / 1e3),
        "us",
    );
    report.metric(
        "ingest.seal_tick_us",
        median(&ingest.seal_tick_us).unwrap_or(0.0),
        "us",
    );
    report.metric("ingest.seals", ingest.seals, "count");
    report.metric(
        "ingest.backpressure_stalls",
        delta(before, after, "ingest.backpressure_stalls"),
        "count",
    );
    report.metric(
        "stream.produce_us_per_krow",
        ratio(ingest.produce_ns as f64 / 1e3, ingest.rows as f64 / 1e3),
        "us",
    );
}
