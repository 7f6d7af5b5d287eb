//! Whole-system scenarios that cut across many crates at once: replica
//! convergence under the completion protocol, divergence repair, the
//! maintenance lifecycle (reindex + purge + retention on one table), and
//! large-cluster routing end to end.

use pinot::common::config::{RoutingStrategy, StreamConfig, TableConfig};
use pinot::common::query::QueryRequest;
use pinot::common::time::Clock;
use pinot::common::{DataType, FieldSpec, Record, Schema, TimeUnit, Value};
use pinot::minion::PurgeSpec;
use pinot::{ClusterConfig, PinotCluster};

fn schema() -> Schema {
    Schema::new(
        "events",
        vec![
            FieldSpec::dimension("user", DataType::Long),
            FieldSpec::dimension("kind", DataType::String),
            FieldSpec::metric("n", DataType::Long),
            FieldSpec::time("day", DataType::Long, TimeUnit::Days),
        ],
    )
    .unwrap()
}

fn row(user: i64, kind: &str, n: i64, day: i64) -> Record {
    Record::new(vec![
        Value::Long(user),
        Value::String(kind.into()),
        Value::Long(n),
        Value::Long(day),
    ])
}

fn count(cluster: &PinotCluster, pql: &str) -> i64 {
    let resp = cluster.query(pql);
    assert!(!resp.partial, "{pql}: {:?}", resp.exceptions);
    match &resp.result {
        pinot::common::query::QueryResult::Aggregation(rows) => {
            rows[0].value.as_i64().unwrap_or(-1)
        }
        other => panic!("{other:?}"),
    }
}

/// Replicas that consume at different paces (we tick servers unevenly)
/// must still converge to byte-identical committed segments — the whole
/// point of §3.3.6.
#[test]
fn replicas_converge_despite_uneven_consumption() {
    let clock = Clock::manual(1_700_000_000_000);
    let cluster = PinotCluster::start(
        ClusterConfig::default()
            .with_servers(2)
            .with_clock(clock.clone()),
    )
    .unwrap();
    cluster.streams().create_topic("ev", 1).unwrap();
    cluster
        .create_table(
            TableConfig::realtime(
                "events",
                StreamConfig {
                    topic: "ev".into(),
                    flush_threshold_rows: 1_000_000, // force time-based flush
                    flush_threshold_millis: 60_000,
                },
            )
            .with_replication(2),
            schema(),
        )
        .unwrap();

    // Publish in two waves with uneven server ticks in between, so the two
    // replicas sit at different offsets when the flush deadline hits.
    for i in 0..300i64 {
        cluster
            .produce("ev", &Value::Long(i), row(i, "a", 1, 100))
            .unwrap();
    }
    // Only server 1 consumes the first wave.
    cluster.servers()[0].consume_tick().unwrap();
    for i in 300..500i64 {
        cluster
            .produce("ev", &Value::Long(i), row(i, "a", 1, 100))
            .unwrap();
    }
    // Now the flush deadline passes; both servers start polling from
    // different offsets (server 1: 300 consumed; server 2: 0).
    clock.advance(120_000);
    cluster.consume_until_idle().unwrap();

    // All 500 rows queryable, exactly once.
    assert_eq!(count(&cluster, "SELECT COUNT(*) FROM events"), 500);

    // The committed segment is identical on the object store and loaded on
    // both replicas.
    let leader = cluster.leader_controller().unwrap();
    let committed: Vec<String> = leader
        .list_segments("events_REALTIME")
        .into_iter()
        .filter(|s| leader.download_segment("events_REALTIME", s).is_ok())
        .collect();
    assert!(!committed.is_empty());
    for seg in &committed {
        let view = cluster.cluster_manager().external_view("events_REALTIME");
        let replicas = &view[seg];
        assert_eq!(replicas.len(), 2, "{seg} should be on both replicas");
        assert!(replicas
            .values()
            .all(|s| *s == pinot::cluster::SegmentState::Online));
    }
}

/// One table's full maintenance lifecycle: reindex after a config change,
/// purge a member, then age the data past retention.
#[test]
fn maintenance_lifecycle() {
    let clock = Clock::manual(1_700_000_000_000);
    let cluster = PinotCluster::start(ClusterConfig::default().with_clock(clock.clone())).unwrap();
    cluster
        .create_table(
            TableConfig::offline("events").with_retention(TimeUnit::Days, 30),
            schema(),
        )
        .unwrap();
    let today = clock.now_millis() / TimeUnit::Days.millis();
    cluster
        .upload_rows(
            "events",
            (0..200).map(|i| row(i % 20, "view", 1, today)).collect(),
        )
        .unwrap();

    // 1. Operator adds an inverted index to the config; the minion
    //    reindexes existing segments (§4.1's "reindex on the fly").
    let leader = cluster.leader_controller().unwrap();
    leader
        .update_table_config(
            TableConfig::offline("events")
                .with_retention(TimeUnit::Days, 30)
                .with_inverted_indexes(&["kind"]),
        )
        .unwrap();
    let report = cluster.run_reindex("events_OFFLINE").unwrap();
    assert_eq!(report.segments_rewritten, 1);
    assert_eq!(count(&cluster, "SELECT COUNT(*) FROM events"), 200);

    // 2. Purge user 7 (10 rows).
    let report = cluster
        .run_purge(&PurgeSpec {
            table: "events_OFFLINE".into(),
            column: "user".into(),
            values: vec![Value::Long(7)],
        })
        .unwrap();
    assert_eq!(report.records_removed, 10);
    assert_eq!(count(&cluster, "SELECT COUNT(*) FROM events"), 190);

    // 3. Time passes beyond retention; the GC removes the segment.
    clock.advance(40 * TimeUnit::Days.millis());
    let removed = cluster.run_retention().unwrap();
    assert_eq!(removed.len(), 1);
    assert_eq!(count(&cluster, "SELECT COUNT(*) FROM events"), 0);
}

/// Large-cluster routing (Algorithms 1–2) end to end: queries touch a
/// bounded number of servers, and answers stay correct.
#[test]
fn large_cluster_routing_bounds_fanout() {
    let cluster = PinotCluster::start(ClusterConfig::default().with_servers(12)).unwrap();
    cluster
        .create_table(
            TableConfig::offline("events")
                .with_replication(3)
                .with_routing(RoutingStrategy::LargeCluster {
                    target_servers: 4,
                    routing_table_count: 5,
                    generation_count: 40,
                }),
            schema(),
        )
        .unwrap();
    // 24 segments of 50 rows.
    for s in 0..24i64 {
        cluster
            .upload_rows(
                "events",
                (0..50).map(|i| row(s * 50 + i, "view", 1, 10)).collect(),
            )
            .unwrap();
    }

    let mut max_servers = 0;
    for _ in 0..20 {
        let resp = cluster.execute(&QueryRequest::new("SELECT COUNT(*) FROM events"));
        assert!(!resp.partial, "{:?}", resp.exceptions);
        assert_eq!(resp.result.single_aggregate(), Some(&Value::Long(24 * 50)));
        assert_eq!(resp.stats.num_segments_queried, 24);
        max_servers = max_servers.max(resp.stats.num_servers_queried);
    }
    // Far fewer than all 12 servers per query (target 4 + covering slack).
    assert!(
        (1..=8).contains(&max_servers),
        "queries touched up to {max_servers} servers"
    );
    // Several distinct routing tables are in rotation.
    assert_eq!(cluster.brokers()[0].num_routing_tables("events_OFFLINE"), 5);
}

/// Brokers keep answering while servers churn (kill + restart loop).
#[test]
fn query_availability_through_server_churn() {
    let cluster = PinotCluster::start(ClusterConfig::default().with_servers(3)).unwrap();
    cluster
        .create_table(TableConfig::offline("events").with_replication(2), schema())
        .unwrap();
    for s in 0..6i64 {
        cluster
            .upload_rows(
                "events",
                (0..50).map(|i| row(s * 50 + i, "view", 1, 10)).collect(),
            )
            .unwrap();
    }

    for victim in [1usize, 2, 3, 1, 2] {
        cluster.kill_server(victim).unwrap();
        // With replication 2 and one dead server, full coverage remains.
        assert_eq!(count(&cluster, "SELECT COUNT(*) FROM events"), 300);
        cluster.restart_server(victim).unwrap();
        assert_eq!(count(&cluster, "SELECT COUNT(*) FROM events"), 300);
    }
}

/// Segment pushes running at the same time must all become queryable.
/// Each push edits the table's ideal state; an edit made from a stale
/// copy would drop another push's segment from routing while its blob
/// stays stored.
#[test]
fn concurrent_pushes_all_become_queryable() {
    const THREADS: i64 = 8;
    const PUSHES: i64 = 8;
    const ROWS: i64 = 5;
    let cluster = PinotCluster::start(ClusterConfig::default().with_servers(3)).unwrap();
    cluster
        .create_table(TableConfig::offline("events"), schema())
        .unwrap();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let cluster = &cluster;
            s.spawn(move || {
                for p in 0..PUSHES {
                    let rows = (0..ROWS)
                        .map(|i| row((t * PUSHES + p) * ROWS + i, "view", 1, 17_000))
                        .collect();
                    cluster.upload_rows("events", rows).unwrap();
                }
            });
        }
    });
    assert_eq!(
        count(&cluster, "SELECT COUNT(*) FROM events"),
        THREADS * PUSHES * ROWS
    );
}
