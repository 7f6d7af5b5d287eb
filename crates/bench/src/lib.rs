//! Benchmark harness for the paper's evaluation (§6).
//!
//! One binary per table/figure regenerates the corresponding result:
//!
//! | target  | paper content |
//! |---------|---------------|
//! | `table1`| qualitative technique comparison, with measured proxies |
//! | `fig7`  | 1-thread vs N-thread per-segment execution (WVMP) |
//! | `fig11` | latency vs QPS by indexing technique (anomaly detection) |
//! | `fig12` | sequential-latency distribution (anomaly detection) |
//! | `fig13` | star-tree preaggregated/raw scan-ratio distribution |
//! | `fig14` | Druid vs Pinot on share analytics (sorted column) |
//! | `fig15` | sorted column vs inverted index on WVMP |
//! | `fig16` | routing strategies on impression discounting |
//!
//! Run with `cargo run -p pinot-bench --release --bin figNN`. The `SCALE`
//! environment variable multiplies dataset sizes (default 1 ≈ laptop-scale;
//! the paper's absolute numbers came from a 9-node cluster, so shapes, not
//! absolute latencies, are the reproduction target — see EXPERIMENTS.md).

pub mod doc_table;
pub mod harness;
pub mod setup;

pub use harness::{
    latency_histogram, percentile, run_open_loop, run_sequential, LoadResult, QueryEngine,
};
