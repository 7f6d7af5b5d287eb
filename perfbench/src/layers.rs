//! Per-layer numbers from the traced replay of a query: the benchmark's
//! own spans around each layer's public functions, the profile tree that
//! `Server::execute` returns, and the counters in `ExecutionStats`.

use crate::trace::{self_times, Span, Tracer};
use pinot::common::profile::ProfileNode;
use pinot::common::query::QueryResult;
use pinot::exec::segment_exec::IntermediateResult;
use pinot::exec::{collected_profiles, finalize, merge_intermediate};
use pinot::server::ServerRequest;
use pinot::PinotCluster;
use std::collections::HashMap;
use std::sync::Arc;

/// The tenant a request without one runs as.
const DEFAULT_TENANT: &str = "DefaultTenant";

/// Span names: the end-to-end call, and one per layer boundary the replay
/// crosses.
pub const E2E: &str = "cluster.execute";
pub const REPLAY: &str = "replay";
pub const PARSE: &str = "pql.parse";
pub const SERVER_EXECUTE: &str = "server.execute";
pub const MERGE: &str = "exec.merge";
pub const FINALIZE: &str = "exec.finalize";

/// What the profile trees of one query's server partials say.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProfileSums {
    pub filter_ns: u64,
    pub aggregate_ns: u64,
    /// Busy time of all segment executions (they may overlap in time).
    pub segment_busy_ns: u64,
    /// Wall time of the server executions.
    pub server_wall_ns: u64,
    pub scan_nodes: u64,
    pub row_scan_nodes: u64,
}

impl ProfileSums {
    pub fn add_server(&mut self, server: &ProfileNode) {
        self.server_wall_ns += server.elapsed_ns;
        for child in &server.children {
            if matches!(child.operator, "segment" | "segments_summary") {
                self.segment_busy_ns += child.elapsed_ns;
            }
        }
        self.walk(server);
    }

    fn walk(&mut self, node: &ProfileNode) {
        match node.operator {
            "filter" => self.filter_ns += node.elapsed_ns,
            "aggregate" | "group_by" | "select" => {
                self.aggregate_ns += node.elapsed_ns;
                let n = node.segments.max(1);
                self.scan_nodes += n;
                if node.kernel == Some("row") {
                    self.row_scan_nodes += n;
                }
            }
            _ => {}
        }
        for c in &node.children {
            self.walk(c);
        }
    }

    pub fn absorb(&mut self, o: &ProfileSums) {
        self.filter_ns += o.filter_ns;
        self.aggregate_ns += o.aggregate_ns;
        self.segment_busy_ns += o.segment_busy_ns;
        self.server_wall_ns += o.server_wall_ns;
        self.scan_nodes += o.scan_nodes;
        self.row_scan_nodes += o.row_scan_nodes;
    }
}

/// Replay `pql` through the layers: parse, `Server::execute` on every
/// server over the segments it hosts (with profiling), `merge_intermediate`
/// and `finalize`, each inside its own span under one `REPLAY` root.
/// Returns the replayed answer and what the servers' profiles say.
pub fn replay(
    cluster: &PinotCluster,
    physical_table: &str,
    pql: &str,
    query_id: u64,
    tracer: &Tracer,
) -> (Result<QueryResult, String>, ProfileSums) {
    let mut sums = ProfileSums::default();
    let replayed = tracer.span(REPLAY, None, query_id, |root| {
        let query = tracer
            .span(PARSE, Some(root), query_id, |_| pinot::pql::parse(pql))
            .map_err(|e| format!("parse: {e}"))?;
        let query = Arc::new(query);
        let mut partials = Vec::new();
        for server in cluster.servers() {
            let segments = server.hosted_segments(physical_table);
            if segments.is_empty() {
                continue;
            }
            let req = ServerRequest {
                table: physical_table.to_string(),
                query: Arc::clone(&query),
                segments,
                tenant: DEFAULT_TENANT.into(),
                deadline: None,
                query_id,
                profile: true,
                analyze: false,
            };
            let partial = tracer
                .span(SERVER_EXECUTE, Some(root), query_id, |_| {
                    server.execute(&req)
                })
                .map_err(|e| format!("{}: {e}", server.id()))?;
            partials.push(partial);
        }
        let mut acc = IntermediateResult::empty_for(&query);
        tracer
            .span(MERGE, Some(root), query_id, |_| {
                partials
                    .into_iter()
                    .try_for_each(|p| merge_intermediate(&mut acc, p))
            })
            .map_err(|e| format!("merge: {e}"))?;
        for server in collected_profiles(acc.profile.take()) {
            sums.add_server(&server);
        }
        tracer
            .span(FINALIZE, Some(root), query_id, |_| finalize(acc, &query))
            .map_err(|e| format!("finalize: {e}"))
    });
    (replayed, sums)
}

/// Self time of each layer span of one query, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct QueryLayers {
    pub e2e_ns: u64,
    pub parse_ns: u64,
    pub server_ns: Vec<u64>,
    pub merge_ns: u64,
    pub finalize_ns: u64,
}

impl QueryLayers {
    /// End to end minus the layers the broker waits on: what remains is
    /// routing, scatter, gather and dispatch.
    pub fn broker_overhead_ns(&self) -> i64 {
        let slowest = self.server_ns.iter().copied().max().unwrap_or(0);
        self.e2e_ns as i64 - (self.parse_ns + slowest + self.merge_ns + self.finalize_ns) as i64
    }
}

/// Group replay spans by query id and take each layer's self time.
pub fn layers_by_query(spans: &[Span]) -> HashMap<u64, QueryLayers> {
    let self_ns = self_times(spans);
    let mut out: HashMap<u64, QueryLayers> = HashMap::new();
    for s in spans {
        let q = out.entry(s.query_id).or_default();
        let own = self_ns[&s.id];
        match s.name {
            E2E => q.e2e_ns += own,
            PARSE => q.parse_ns += own,
            SERVER_EXECUTE => q.server_ns.push(own),
            MERGE => q.merge_ns += own,
            FINALIZE => q.finalize_ns += own,
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            query_id: 3,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn broker_overhead_is_e2e_minus_the_blocking_layers() {
        let spans = [
            span(1, None, E2E, 0, 1_000),
            span(2, None, REPLAY, 2_000, 2_900),
            span(3, Some(2), PARSE, 2_000, 2_050),
            span(4, Some(2), SERVER_EXECUTE, 2_100, 2_400),
            span(5, Some(2), SERVER_EXECUTE, 2_400, 2_600),
            span(6, Some(2), MERGE, 2_600, 2_620),
            span(7, Some(2), FINALIZE, 2_620, 2_650),
        ];
        let layers = &layers_by_query(&spans)[&3];
        assert_eq!(layers.server_ns, vec![300, 200]);
        // 1000 - (50 + slowest 300 + 20 + 30)
        assert_eq!(layers.broker_overhead_ns(), 600);
    }
}
