//! Inputs of the three workloads, all derived from the run's seed.

use pinot::common::config::{StreamConfig, TableConfig};
use pinot::common::{Record, Schema};
use pinot::workloads::{anomaly, wvmp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub const BASE_DAY: i64 = 17_000;
/// Stream topic of the hybrid table.
pub const TOPIC: &str = "wvmp-events";
pub const STREAM_PARTITIONS: u32 = 2;

/// How big each workload is. `full` is what the benchmark runs; `tiny`
/// exercises the same code paths in the benchmark's own tests.
#[derive(Debug, Clone)]
pub struct Sizes {
    pub wvmp_rows: usize,
    pub wvmp_segments: usize,
    pub wvmp_members: usize,
    /// Open-loop send rate of the `wvmp` latency phase.
    pub wvmp_rate_qps: f64,
    pub adhoc_rows: usize,
    pub adhoc_segments: usize,
    /// Every this many `adhoc_scan` queries, one is a bench-generated
    /// DISTINCTCOUNT ... GROUP BY drill-down.
    pub adhoc_drill_every: usize,
    pub hybrid_offline_rows: usize,
    pub hybrid_segments: usize,
    /// Rows produced and consumed before measuring.
    pub stream_prefill_rows: usize,
    /// Open-loop produce rate during the measured phase.
    pub stream_rows_per_s: usize,
    /// Produce batches per second (each batch is one scheduled send).
    pub stream_batches_per_s: usize,
    /// Consuming segments seal after this many rows.
    pub flush_rows: usize,
    /// Queries whose answers are checked against the oracle (and, in a
    /// traced run, replayed layer by layer).
    pub checked_queries: usize,
    /// The same for `adhoc_scan`, whose queries each scan every row.
    pub adhoc_checked_queries: usize,
    /// Set-ups per measured run; `setup_s` is their median.
    pub setups: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            wvmp_rows: 1_000_000,
            wvmp_segments: 16,
            wvmp_members: 100_000,
            wvmp_rate_qps: 300.0,
            adhoc_rows: 2_000_000,
            adhoc_segments: 2,
            adhoc_drill_every: 5,
            hybrid_offline_rows: 1_000_000,
            hybrid_segments: 16,
            stream_prefill_rows: 50_000,
            stream_rows_per_s: 5_000,
            stream_batches_per_s: 100,
            flush_rows: 10_000,
            checked_queries: 200,
            adhoc_checked_queries: 40,
            setups: 3,
        }
    }

    pub fn tiny() -> Sizes {
        Sizes {
            wvmp_rows: 20_000,
            wvmp_segments: 4,
            wvmp_members: 2_000,
            wvmp_rate_qps: 200.0,
            adhoc_rows: 20_000,
            adhoc_segments: 2,
            adhoc_drill_every: 5,
            hybrid_offline_rows: 20_000,
            hybrid_segments: 4,
            stream_prefill_rows: 1_000,
            stream_rows_per_s: 5_000,
            stream_batches_per_s: 50,
            flush_rows: 1_500,
            checked_queries: 20,
            adhoc_checked_queries: 10,
            setups: 2,
        }
    }
}

/// A seed for one purpose (`tag`) within a run, so that inputs do not
/// depend on the order in which they are generated.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    // splitmix64 finalizer
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub fn rng(seed: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(sub_seed(seed, tag))
}

const TAG_ROWS: u64 = 1 << 32;
const TAG_QUERIES: u64 = 1;
const TAG_CHECKED: u64 = 2;
const TAG_STREAM: u64 = 3;

/// An offline table pushed as equal-sized segments. Each segment's rows
/// are generated from the seed on demand, so no copy of the whole input
/// stays resident while the cluster is measured.
pub struct Dataset {
    pub table: &'static str,
    pub config: TableConfig,
    pub schema: Schema,
    pub segments: usize,
    pub rows_per_segment: usize,
    gen: RowGen,
}

/// Generates `n` rows of a dataset from a seeded generator.
type RowGen = Box<dyn Fn(&mut StdRng, usize) -> Vec<Record> + Sync>;

impl Dataset {
    pub fn segment_rows(&self, seed: u64, segment: usize) -> Vec<Record> {
        (self.gen)(
            &mut rng(seed, TAG_ROWS + segment as u64),
            self.rows_per_segment,
        )
    }

    pub fn all_rows(&self, seed: u64) -> Vec<Record> {
        (0..self.segments)
            .flat_map(|k| self.segment_rows(seed, k))
            .collect()
    }

    pub fn physical_table(&self) -> String {
        format!("{}_OFFLINE", self.table)
    }
}

pub fn wvmp_gen(sizes: &Sizes, base_day: i64) -> wvmp::WvmpGen {
    wvmp::WvmpGen::new(sizes.wvmp_members, base_day)
}

/// WVMP history: sorted on `viewee_id`, so a query reads one contiguous
/// range of each segment.
pub fn wvmp_dataset(sizes: &Sizes, rows: usize, segments: usize) -> Dataset {
    let gen = wvmp_gen(sizes, BASE_DAY);
    Dataset {
        table: wvmp::TABLE,
        config: TableConfig::offline(wvmp::TABLE).with_sorted_column("viewee_id"),
        schema: wvmp::schema(),
        segments,
        rows_per_segment: rows / segments,
        gen: Box::new(move |rng, n| gen.rows(n, rng)),
    }
}

/// Business metrics with no inverted index, sorted column or star-tree:
/// every query scans.
pub fn adhoc_dataset(sizes: &Sizes) -> Dataset {
    Dataset {
        table: anomaly::TABLE,
        config: TableConfig::offline(anomaly::TABLE),
        schema: anomaly::schema(),
        segments: sizes.adhoc_segments,
        rows_per_segment: sizes.adhoc_rows / sizes.adhoc_segments,
        gen: Box::new(|rng, n| anomaly::rows(n, BASE_DAY, rng)),
    }
}

/// The realtime half of the hybrid WVMP table. Sealed segments are sorted
/// on `viewee_id` like the history.
pub fn hybrid_realtime_config(sizes: &Sizes) -> TableConfig {
    TableConfig::realtime(
        wvmp::TABLE,
        StreamConfig {
            topic: TOPIC.into(),
            flush_threshold_rows: sizes.flush_rows,
            flush_threshold_millis: i64::MAX / 4,
        },
    )
    .with_sorted_column("viewee_id")
}

/// Stream rows of the hybrid workload. They come from the same WVMP
/// generator as the history, starting at `first_day`, which is the time
/// boundary, so all of them are served by the realtime table.
pub fn stream_rows(sizes: &Sizes, seed: u64, first_day: i64, n: usize) -> Vec<Record> {
    wvmp_gen(sizes, first_day).rows(n, &mut rng(seed, TAG_STREAM))
}

pub fn wvmp_queries(sizes: &Sizes, seed: u64, n: usize) -> Vec<String> {
    wvmp_gen(sizes, BASE_DAY).queries(n, &mut rng(seed, TAG_QUERIES))
}

pub fn wvmp_checked(sizes: &Sizes, seed: u64) -> Vec<String> {
    wvmp_gen(sizes, BASE_DAY).queries(sizes.checked_queries, &mut rng(seed, TAG_CHECKED))
}

/// The anomaly query mix with one DISTINCTCOUNT ... GROUP BY drill-down
/// every `adhoc_drill_every` queries. Group-by DISTINCTCOUNT runs on the
/// row-at-a-time path today, so the mix measures that path too.
pub fn adhoc_queries(sizes: &Sizes, seed: u64, n: usize) -> Vec<String> {
    adhoc_mix(sizes, &mut rng(seed, TAG_QUERIES), n)
}

pub fn adhoc_checked(sizes: &Sizes, seed: u64) -> Vec<String> {
    adhoc_mix(
        sizes,
        &mut rng(seed, TAG_CHECKED),
        sizes.adhoc_checked_queries,
    )
}

fn adhoc_mix(sizes: &Sizes, rng: &mut StdRng, n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            if i % sizes.adhoc_drill_every == sizes.adhoc_drill_every - 1 {
                drill_down(rng)
            } else {
                anomaly::query(BASE_DAY, rng)
            }
        })
        .collect()
}

fn drill_down(rng: &mut StdRng) -> String {
    const DIMS: [&str; 4] = ["datacenter", "fabric", "country", "platform"];
    let counted = rng.gen_range(0..DIMS.len());
    let grouped = (counted + rng.gen_range(1..DIMS.len())) % DIMS.len();
    format!(
        "SELECT DISTINCTCOUNT({}) FROM {} WHERE metric_name = 'metric_{:02}' \
         AND day >= {} GROUP BY {} TOP 10",
        DIMS[counted],
        anomaly::TABLE,
        rng.gen_range(0..40),
        BASE_DAY + rng.gen_range(0..anomaly::DAYS / 2),
        DIMS[grouped]
    )
}
