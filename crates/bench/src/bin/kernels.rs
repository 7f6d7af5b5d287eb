//! Kernel microbench: batched dict-id execution vs the legacy row path.
//! Five axes over a 1M-doc segment:
//!
//! 1. **bit-unpack throughput** — `PackedIntVec::unpack_block` vs
//!    per-element `get`, across representative bit widths;
//! 2. **filter-scan ns/doc** — the planner's scan-fallback leaf with the
//!    batched id-space matcher vs doc-at-a-time `matches_doc`: a range on
//!    a 50-value column, an equality on a 40-value (6-bit) column (the
//!    anomaly workload's `metric_name` leaf), and that equality `AND` a
//!    range on a 30-value `day` column, whose second leaf runs within the
//!    first one's bitmap;
//! 3. **ungrouped SUM** — block accumulate from the typed dictionary vs
//!    per-doc dictionary lookups;
//! 4. **group-by rows/s** — packed composite u64 dict-id keys vs owned
//!    `GroupKey` materialization per doc;
//! 5. **selective queries, µs/query** — SUM over ≈1% and DISTINCTCOUNT
//!    over ≈0.1% of the docs of `price`, a near-unique Double metric
//!    (≈1M distinct values), plus a grouped DISTINCTCOUNT and a
//!    small-key group-by. A kernel whose per-query set-up follows the
//!    dictionary instead of the selection shows up here, and only here.
//!
//! Results print as TSV and persist to `BENCH_kernels.json` at the repo
//! root, with the host's cores, the threads the kernels ran on, the
//! commit and the runs per figure (best of `RUNS`); the same figures
//! rewrite the kernels table in EXPERIMENTS.md.

use pinot_bench::doc_table;
use pinot_common::{DataType, FieldSpec, Record, Schema, Value};
use pinot_exec::segment_exec::{execute_on_segment_with, SegmentHandle};
use pinot_exec::{evaluate_filter_mode, ExecOptions};
use pinot_pql::parse;
use pinot_segment::bitpack::{PackedIntVec, BLOCK};
use pinot_segment::builder::{BuilderConfig, SegmentBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

const NUM_DOCS: usize = 1_000_000;
/// Each figure is the best of this many runs.
const RUNS: usize = 5;
const COUNTRIES: &[&str] = &["us", "de", "in", "br", "jp", "fr", "cn", "gb"];
const DEVICES: &[&str] = &["ios", "android", "web", "tv"];

fn build_segment() -> SegmentHandle {
    let schema = Schema::new(
        "t",
        vec![
            FieldSpec::dimension("country", DataType::String),
            FieldSpec::dimension("device", DataType::String),
            FieldSpec::metric("clicks", DataType::Long),
            FieldSpec::metric("cost", DataType::Long),
            FieldSpec::metric("price", DataType::Double),
            FieldSpec::dimension("metric", DataType::String),
            FieldSpec::dimension("day", DataType::Long),
        ],
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    // The filter columns draw from their own stream, so the other
    // columns' data does not depend on them.
    let mut filter_rng = StdRng::seed_from_u64(5);
    // `cost` is inverted so the selective queries' filters cost little
    // next to the aggregation they feed.
    let cfg = BuilderConfig::new("s", "t").with_inverted_columns(&["cost"]);
    let mut b = SegmentBuilder::new(schema, cfg).unwrap();
    for _ in 0..NUM_DOCS {
        b.add(Record::new(vec![
            Value::from(COUNTRIES[rng.gen_range(0..COUNTRIES.len())]),
            Value::from(DEVICES[rng.gen_range(0..DEVICES.len())]),
            Value::Long(rng.gen_range(0..50i64)),
            Value::Long(rng.gen_range(1..1000i64)),
            Value::Double(rng.gen_range(0..100_000_000i64) as f64 / 100.0),
            Value::String(format!("metric_{:02}", filter_rng.gen_range(0..40))),
            Value::Long(filter_rng.gen_range(0..30i64)),
        ]))
        .unwrap();
    }
    SegmentHandle::new(Arc::new(b.build().unwrap()))
}

/// Best-of-N wall time for `f`, in nanoseconds.
fn best_ns(reps: usize, mut f: impl FnMut()) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_nanos() as u64);
    }
    best
}

/// One kernel figure: batch and row path, and how much faster batch is.
struct Measure {
    /// Key in `BENCH_kernels.json`.
    key: String,
    /// Row label in the EXPERIMENTS.md table.
    label: String,
    batch: f64,
    row: f64,
    speedup: f64,
    unit: &'static str,
}

fn bench_unpack(results: &mut Vec<Measure>) {
    println!("kernel\tbatch\trow\tspeedup\tunit");
    for bits in [2u8, 8, 13, 16] {
        let max = (1u64 << bits) as u32 - 1;
        let mut rng = StdRng::seed_from_u64(bits as u64);
        let mut pv = PackedIntVec::with_capacity(bits, NUM_DOCS);
        for _ in 0..NUM_DOCS {
            pv.push(rng.gen_range(0..=max));
        }
        let mut out = vec![0u32; BLOCK];
        let mut sink = 0u64;
        let block_ns = best_ns(RUNS, || {
            let mut doc = 0;
            while doc < NUM_DOCS {
                let n = BLOCK.min(NUM_DOCS - doc);
                pv.unpack_block(doc, &mut out[..n]);
                sink = sink.wrapping_add(out[n - 1] as u64);
                doc += n;
            }
        });
        let get_ns = best_ns(RUNS, || {
            for doc in 0..NUM_DOCS {
                sink = sink.wrapping_add(pv.get(doc) as u64);
            }
        });
        std::hint::black_box(sink);
        let to_mps = |ns: u64| NUM_DOCS as f64 / ns as f64 * 1e3; // M ids/s
        let (b, r) = (to_mps(block_ns), to_mps(get_ns));
        println!("unpack-{bits}bit\t{b:.0}\t{r:.0}\t{:.2}x\tM ids/s", b / r);
        results.push(Measure {
            key: format!("unpack_{bits}bit_m_ids_per_s"),
            label: format!("unpack {bits}-bit"),
            batch: b,
            row: r,
            speedup: b / r,
            unit: "M ids/s",
        });
    }
}

/// One filter over the whole segment, in ns per doc, batched vs row.
/// `floor` is the speedup the batched leaf must reach.
fn bench_filter(
    handle: &SegmentHandle,
    name: &str,
    filter: &str,
    floor: Option<f64>,
    results: &mut Vec<Measure>,
) {
    let pred = parse(&format!("SELECT COUNT(*) FROM t WHERE {filter}"))
        .unwrap()
        .filter
        .unwrap();
    let mut count = [0u64; 2];
    let mut run = |batch: bool| {
        best_ns(RUNS, || {
            let mut stats = Default::default();
            let sel =
                evaluate_filter_mode(&handle.segment, Some(&pred), &mut stats, batch).unwrap();
            count[usize::from(batch)] = sel.count();
        })
    };
    let (batch_ns, row_ns) = (run(true), run(false));
    assert!(count[1] > 0 && count[0] == count[1], "{name}: {count:?}");
    let per_doc = |ns: u64| ns as f64 / NUM_DOCS as f64;
    let (b, r) = (per_doc(batch_ns), per_doc(row_ns));
    println!("{name}\t{b:.2}\t{r:.2}\t{:.2}x\tns/doc", r / b);
    results.push(Measure {
        key: format!("{}_ns_per_doc", name.replace('-', "_")),
        label: format!("{name} (`{filter}`)"),
        batch: b,
        row: r,
        speedup: r / b,
        unit: "ns/doc",
    });
    if let Some(f) = floor {
        assert!(
            r / b >= f,
            "acceptance: batched {name} must be ≥{f}× faster (got {:.2}x)",
            r / b
        );
    }
}

fn bench_query(
    handle: &SegmentHandle,
    name: &str,
    label: &str,
    pql: &str,
    floor: Option<f64>,
    results: &mut Vec<Measure>,
) {
    let (batch_ns, row_ns) = time_batch_and_row(handle, pql);
    let rows_per_s = |ns: u64| NUM_DOCS as f64 / (ns as f64 / 1e9) / 1e6; // M rows/s
    let (b, r) = (rows_per_s(batch_ns), rows_per_s(row_ns));
    println!("{name}\t{b:.1}\t{r:.1}\t{:.2}x\tM rows/s", b / r);
    results.push(Measure {
        key: format!("{name}_m_rows_per_s"),
        label: label.into(),
        batch: b,
        row: r,
        speedup: b / r,
        unit: "M rows/s",
    });
    if let Some(f) = floor {
        assert!(
            b / r >= f,
            "acceptance: batched {name} must be ≥{f}× faster (got {:.2}x)",
            b / r
        );
    }
}

/// A selective query, timed per query: its cost should follow the docs
/// it selects, so the segment's row count is no yardstick for it.
fn bench_selective(
    handle: &SegmentHandle,
    name: &str,
    label: &str,
    pql: &str,
    results: &mut Vec<Measure>,
) {
    let (batch_ns, row_ns) = time_batch_and_row(handle, pql);
    let (b, r) = (batch_ns as f64 / 1e3, row_ns as f64 / 1e3);
    println!("{name}\t{b:.1}\t{r:.1}\t{:.2}x\tus/query", r / b);
    results.push(Measure {
        key: format!("{name}_us_per_query"),
        label: label.into(),
        batch: b,
        row: r,
        speedup: r / b,
        unit: "us/query",
    });
}

/// Best-of-`RUNS` nanoseconds for one query on the batch and row paths.
fn time_batch_and_row(handle: &SegmentHandle, pql: &str) -> (u64, u64) {
    let query = parse(pql).unwrap();
    let run = |batch: bool| {
        let opts = ExecOptions {
            batch: Some(batch),
            ..ExecOptions::default()
        };
        best_ns(RUNS, || {
            std::hint::black_box(execute_on_segment_with(handle, &query, &opts).unwrap());
        })
    };
    (run(true), run(false))
}

/// `HEAD`, marked `-dirty` when tracked files differ from it.
fn commit() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match git(&["rev-parse", "HEAD"]) {
        Some(head)
            if git(&["status", "--porcelain", "--untracked-files=no"])
                .is_some_and(|s| !s.is_empty()) =>
        {
            format!("{head}-dirty")
        }
        Some(head) => head,
        None => "unknown".into(),
    }
}

fn write_json(results: &[Measure]) {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut body = String::from("{\n");
    body.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    // Every kernel runs inline on the calling thread.
    body.push_str("  \"threads\": 1,\n");
    body.push_str(&format!("  \"commit\": \"{}\",\n", commit()));
    body.push_str(&format!("  \"runs\": {RUNS},\n"));
    body.push_str(&format!("  \"num_docs\": {NUM_DOCS},\n"));
    body.push_str("  \"kernels\": {\n");
    for (i, m) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        body.push_str(&format!(
            "    \"{}\": {{\"batch\": {:.3}, \"row\": {:.3}, \"speedup\": {:.3}, \"unit\": \"{}\"}}{comma}\n",
            m.key, m.batch, m.row, m.speedup, m.unit
        ));
    }
    body.push_str("  }\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    std::fs::write(path, body).expect("write BENCH_kernels.json");
    println!("# wrote {path}");

    let mut table =
        String::from("| kernel | batch | row | speedup | unit |\n|---|---|---|---|---|\n");
    for m in results {
        table.push_str(&format!(
            "| {} | {} | {} | {:.1}× | {} |\n",
            m.label,
            doc_table::figure(m.batch),
            doc_table::figure(m.row),
            m.speedup,
            m.unit
        ));
    }
    doc_table::write("kernels", &table);
}

fn main() {
    println!("# Kernel bench — batched dict-id execution vs row path");
    println!("# docs={NUM_DOCS} block={BLOCK}");
    let handle = build_segment();

    let mut results = Vec::new();
    bench_unpack(&mut results);
    bench_filter(
        &handle,
        "filter-scan",
        "clicks < 25",
        Some(2.0),
        &mut results,
    );
    bench_filter(
        &handle,
        "filter-eq-6bit",
        "metric = 'metric_07'",
        None,
        &mut results,
    );
    bench_filter(
        &handle,
        "filter-conjunction",
        "metric = 'metric_07' AND day >= 15",
        None,
        &mut results,
    );
    // SUM is not metadata-answerable, so even unfiltered it runs the raw
    // aggregation kernel over every doc.
    bench_query(
        &handle,
        "sum-ungrouped",
        "ungrouped SUM",
        "SELECT SUM(clicks) FROM t",
        Some(2.0),
        &mut results,
    );
    bench_query(
        &handle,
        "group-by",
        "group-by (2 cols, 32 groups)",
        "SELECT SUM(clicks), COUNT(*) FROM t GROUP BY country, device",
        None,
        &mut results,
    );
    bench_query(
        &handle,
        "filtered-group-by",
        "filtered group-by",
        "SELECT SUM(cost) FROM t WHERE clicks < 25 GROUP BY country",
        None,
        &mut results,
    );
    bench_query(
        &handle,
        "grouped-distinctcount",
        "grouped DISTINCTCOUNT (`cost` by `country`)",
        "SELECT DISTINCTCOUNT(cost) FROM t GROUP BY country",
        None,
        &mut results,
    );
    println!("kernel\tbatch\trow\tspeedup\tunit");
    bench_selective(
        &handle,
        "sum-1pct",
        "SUM(`price`), ≈1% selected",
        "SELECT SUM(price) FROM t WHERE cost < 11",
        &mut results,
    );
    bench_selective(
        &handle,
        "distinctcount-0.1pct",
        "DISTINCTCOUNT(`price`), ≈0.1% selected",
        "SELECT DISTINCTCOUNT(price) FROM t WHERE cost = 7",
        &mut results,
    );
    bench_selective(
        &handle,
        "grouped-distinctcount-1pct",
        "DISTINCTCOUNT(`price`) by `device`, ≈1%",
        "SELECT DISTINCTCOUNT(price) FROM t WHERE cost < 11 GROUP BY device",
        &mut results,
    );
    bench_selective(
        &handle,
        "small-key-group-by-10pct",
        "SUM/COUNT by `device` (2 key bits), ≈10%",
        "SELECT SUM(price), COUNT(*) FROM t WHERE cost < 101 GROUP BY device",
        &mut results,
    );
    write_json(&results);
}
