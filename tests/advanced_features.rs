//! Feature-depth integration tests: multi-value columns end to end, exact
//! distinct counts, directory-backed object storage, the background
//! realtime pump, broker pooling, and query deadline behaviour.

use pinot::common::config::{StreamConfig, TableConfig};
use pinot::common::query::{QueryRequest, QueryResult};
use pinot::common::{DataType, FieldSpec, Record, Schema, TimeUnit, Value};
use pinot::pump::RealtimePump;
use pinot::{ClusterConfig, PinotCluster};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn multi_value_columns_end_to_end() {
    let cluster = PinotCluster::start(ClusterConfig::default()).unwrap();
    let schema = Schema::new(
        "posts",
        vec![
            FieldSpec::dimension("author", DataType::Long),
            FieldSpec::multi_value_dimension("tags", DataType::String),
            FieldSpec::metric("likes", DataType::Long),
        ],
    )
    .unwrap();
    cluster
        .create_table(
            TableConfig::offline("posts").with_inverted_indexes(&["tags"]),
            schema,
        )
        .unwrap();

    let rows = vec![
        Record::new(vec![
            Value::Long(1),
            Value::StringArray(vec!["rust".into(), "db".into()]),
            Value::Long(10),
        ]),
        Record::new(vec![
            Value::Long(2),
            Value::StringArray(vec!["db".into()]),
            Value::Long(20),
        ]),
        Record::new(vec![
            Value::Long(3),
            Value::StringArray(vec!["rust".into(), "olap".into(), "db".into()]),
            Value::Long(30),
        ]),
    ];
    cluster.upload_rows("posts", rows).unwrap();

    // MV equality matches any element (served by the inverted index).
    let resp = cluster.query("SELECT SUM(likes) FROM posts WHERE tags = 'rust'");
    assert_eq!(resp.result.single_aggregate(), Some(&Value::Double(40.0)));

    // MV group-by contributes one group per element.
    let resp = cluster.query("SELECT SUM(likes) FROM posts GROUP BY tags TOP 10");
    match &resp.result {
        QueryResult::GroupBy(tables) => {
            let rows = &tables[0].rows;
            let get = |tag: &str| {
                rows.iter()
                    .find(|(k, _)| k[0] == Value::from(tag))
                    .map(|(_, v)| v.clone())
            };
            assert_eq!(get("db"), Some(Value::Double(60.0)));
            assert_eq!(get("rust"), Some(Value::Double(40.0)));
            assert_eq!(get("olap"), Some(Value::Double(30.0)));
        }
        other => panic!("{other:?}"),
    }

    // NOT IN over a multi-value column: posts with no matching element.
    let resp = cluster.query("SELECT COUNT(*) FROM posts WHERE tags NOT IN ('rust')");
    assert_eq!(resp.result.single_aggregate(), Some(&Value::Long(1)));
}

/// Aggregating a multi-value column is rejected before any segment is
/// touched, with an error that names the column, instead of panicking a
/// server task — whether or not the filter leaves a segment to scan.
#[test]
fn aggregating_a_multi_value_column_is_a_clean_error() {
    let cluster = PinotCluster::start(ClusterConfig::default().with_servers(2)).unwrap();
    let schema = |name: &str| {
        Schema::new(
            name,
            vec![
                FieldSpec::dimension("author", DataType::Long),
                FieldSpec::multi_value_dimension("tags", DataType::String),
            ],
        )
        .unwrap()
    };
    cluster
        .create_table(TableConfig::offline("posts"), schema("posts"))
        .unwrap();
    // A table with no segments at all.
    cluster
        .create_table(TableConfig::offline("drafts"), schema("drafts"))
        .unwrap();
    let rows = (0..4)
        .map(|i| {
            Record::new(vec![
                Value::Long(i),
                Value::StringArray(vec!["rust".into(), format!("t{i}")]),
            ])
        })
        .collect();
    cluster.upload_rows("posts", rows).unwrap();

    for pql in [
        "SELECT DISTINCTCOUNT(tags) FROM posts",
        "SELECT DISTINCTCOUNT(tags) FROM posts GROUP BY author TOP 10",
        "SELECT SUM(tags) FROM posts WHERE author > 0",
        // Every segment pruned: still rejected, not an empty answer.
        "SELECT SUM(tags) FROM posts WHERE author > 100",
        "SELECT DISTINCTCOUNT(tags) FROM drafts",
    ] {
        let resp = cluster.query(pql);
        assert!(!resp.exceptions.is_empty(), "{pql}: expected an error");
        for e in &resp.exceptions {
            assert!(!e.contains("panicked"), "{pql}: {e}");
            assert!(e.contains("multi-value column 'tags'"), "{pql}: {e}");
        }
    }
    // A multi-value column added by schema evolution is rejected too.
    cluster
        .leader_controller()
        .unwrap()
        .add_column(
            "posts",
            FieldSpec::multi_value_dimension("labels", DataType::String),
        )
        .unwrap();
    let resp = cluster.query("SELECT DISTINCTCOUNT(labels) FROM posts WHERE author > 100");
    assert!(
        resp.exceptions
            .iter()
            .any(|e| e.contains("multi-value column 'labels'")),
        "{:?}",
        resp.exceptions
    );
    // EXPLAIN tells the same story as execution.
    let err = cluster
        .explain("EXPLAIN PLAN FOR SELECT SUM(tags) FROM posts")
        .unwrap_err();
    assert!(
        err.to_string().contains("multi-value column 'tags'"),
        "{err}"
    );
    // Grouping by the multi-value column still works.
    let resp = cluster.query("SELECT COUNT(*) FROM posts GROUP BY tags TOP 10");
    assert!(resp.exceptions.is_empty(), "{:?}", resp.exceptions);
}

#[test]
fn distinct_count_is_exact_across_segments_and_servers() {
    let cluster = PinotCluster::start(ClusterConfig::default().with_servers(3)).unwrap();
    let schema = Schema::new(
        "visits",
        vec![
            FieldSpec::dimension("page", DataType::String),
            FieldSpec::dimension("visitor", DataType::Long),
        ],
    )
    .unwrap();
    cluster
        .create_table(TableConfig::offline("visits"), schema)
        .unwrap();

    // 600 rows over 3 segments; visitors overlap across segments, so a
    // naive per-segment sum would overcount. 120 distinct visitors total.
    for seg in 0..3i64 {
        let rows: Vec<Record> = (0..200)
            .map(|i| {
                Record::new(vec![
                    Value::String(format!("p{}", i % 4)),
                    Value::Long((seg * 17 + i) % 120),
                ])
            })
            .collect();
        cluster.upload_rows("visits", rows).unwrap();
    }
    let resp = cluster.query("SELECT DISTINCTCOUNT(visitor) FROM visits");
    assert_eq!(resp.result.single_aggregate(), Some(&Value::Long(120)));

    // Per-page distinct counts also merge exactly.
    let resp = cluster.query("SELECT DISTINCTCOUNT(visitor) FROM visits GROUP BY page TOP 10");
    match &resp.result {
        QueryResult::GroupBy(tables) => {
            let total: i64 = tables[0]
                .rows
                .iter()
                .map(|(_, v)| v.as_i64().unwrap())
                .sum();
            assert!(total >= 120, "per-page distincts can overlap: {total}");
            assert_eq!(tables[0].rows.len(), 4);
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn directory_backed_object_store() {
    let dir = std::env::temp_dir().join(format!("pinot-objstore-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let objstore = pinot_objstore::DirObjectStore::shared(&dir).unwrap();
    let cfg = ClusterConfig {
        objstore: Some(objstore),
        ..ClusterConfig::default()
    };
    let cluster = PinotCluster::start(cfg).unwrap();

    let schema = Schema::new(
        "t",
        vec![
            FieldSpec::dimension("k", DataType::Long),
            FieldSpec::metric("m", DataType::Long),
        ],
    )
    .unwrap();
    cluster
        .create_table(TableConfig::offline("t"), schema)
        .unwrap();
    cluster
        .upload_rows(
            "t",
            (0..100)
                .map(|i| Record::new(vec![Value::Long(i), Value::Long(1)]))
                .collect(),
        )
        .unwrap();

    // The blob physically exists on disk.
    let files: Vec<_> = walk(&dir);
    assert!(
        files.iter().any(|f| f.contains("t_OFFLINE")),
        "no segment file under {dir:?}: {files:?}"
    );
    let resp = cluster.query("SELECT COUNT(*) FROM t");
    assert_eq!(resp.result.single_aggregate(), Some(&Value::Long(100)));
    std::fs::remove_dir_all(&dir).unwrap();
}

fn walk(dir: &std::path::Path) -> Vec<String> {
    let mut out = Vec::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                out.extend(walk(&p));
            } else {
                out.push(p.to_string_lossy().into_owned());
            }
        }
    }
    out
}

#[test]
fn realtime_pump_ingests_in_background() {
    let cluster = Arc::new(PinotCluster::start(ClusterConfig::default().with_servers(1)).unwrap());
    cluster.streams().create_topic("clicks", 1).unwrap();
    let schema = Schema::new(
        "clicks",
        vec![
            FieldSpec::dimension("user", DataType::Long),
            FieldSpec::time("ts", DataType::Long, TimeUnit::Seconds),
        ],
    )
    .unwrap();
    cluster
        .create_table(
            TableConfig::realtime(
                "clicks",
                StreamConfig {
                    topic: "clicks".into(),
                    flush_threshold_rows: 10_000,
                    flush_threshold_millis: i64::MAX / 4,
                },
            ),
            schema,
        )
        .unwrap();

    let pump = RealtimePump::start(&cluster, Duration::from_millis(2));
    for i in 0..500i64 {
        cluster
            .produce(
                "clicks",
                &Value::Long(i),
                Record::new(vec![Value::Long(i), Value::Long(1_000 + i)]),
            )
            .unwrap();
    }
    // Wait (bounded) for the pump to drain the stream.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let resp = cluster.query("SELECT COUNT(*) FROM clicks");
        if resp.result.single_aggregate() == Some(&Value::Long(500)) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "pump did not ingest in time: {:?}",
            resp.result
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    pump.stop();
}

#[test]
fn broker_pool_round_robins() {
    let cluster = PinotCluster::start(ClusterConfig::default().with_brokers(3)).unwrap();
    let schema = Schema::new("t", vec![FieldSpec::dimension("k", DataType::Long)]).unwrap();
    cluster
        .create_table(TableConfig::offline("t"), schema)
        .unwrap();
    cluster
        .upload_rows(
            "t",
            (0..10).map(|i| Record::new(vec![Value::Long(i)])).collect(),
        )
        .unwrap();
    // All brokers answer identically.
    let mut ids = std::collections::HashSet::new();
    for _ in 0..6 {
        let b = cluster.broker();
        ids.insert(b.id().clone());
        let resp = b.execute(&QueryRequest::new("SELECT COUNT(*) FROM t"));
        assert_eq!(resp.result.single_aggregate(), Some(&Value::Long(10)));
    }
    assert_eq!(ids.len(), 3, "round-robin should touch every broker");
}

#[test]
fn zero_timeout_yields_partial_not_panic() {
    let cluster = PinotCluster::start(ClusterConfig::default()).unwrap();
    let schema = Schema::new("t", vec![FieldSpec::dimension("k", DataType::Long)]).unwrap();
    cluster
        .create_table(TableConfig::offline("t"), schema)
        .unwrap();
    cluster
        .upload_rows(
            "t",
            (0..5000)
                .map(|i| Record::new(vec![Value::Long(i)]))
                .collect(),
        )
        .unwrap();
    // An unmeetable deadline must degrade to a partial response.
    let resp = cluster.execute(&QueryRequest::new("SELECT COUNT(*) FROM t").with_timeout_ms(0));
    // Either the query squeaked through (fast machine) or it's partial;
    // both are acceptable, panicking/erroring is not.
    if resp.partial {
        assert!(!resp.exceptions.is_empty());
    }
}
