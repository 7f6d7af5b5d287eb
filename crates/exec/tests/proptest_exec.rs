//! End-to-end per-segment execution properties: results must be identical
//! regardless of which indexes the segment has (no index / inverted /
//! sorted / star-tree), and must match a brute-force evaluator.
//!
//! Besides the low-cardinality columns (k, c, m) the rows carry `d`, a
//! Double metric with nearly one distinct value per row, so the
//! aggregation kernels see dictionaries as large as the segment. The
//! generated filters select nothing, a few docs, or most of the segment
//! relative to that dictionary — both sides of a group's DISTINCTCOUNT
//! list/bitset switch — and the group keys span from a few bits (a
//! key-indexed table) to more than 12 bits (hashed).

use pinot_common::config::StarTreeConfig;
use pinot_common::{DataType, FieldSpec, Record, Schema, Value};
use pinot_exec::segment_exec::{execute_on_segment, ResultPayload, SegmentHandle};
use pinot_pql::{parse, AggFunction};
use pinot_segment::builder::{BuilderConfig, SegmentBuilder};
use pinot_segment::ImmutableSegment;
use pinot_startree::build_star_tree;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

#[derive(Debug, Clone)]
struct Row {
    k: i64,
    c: &'static str,
    m: i64,
    d: f64,
}

fn rows_strategy() -> impl Strategy<Value = Vec<Row>> {
    let row = (
        0i64..8,
        prop::sample::select(vec!["us", "de", "fr", "jp"]),
        -50i64..50,
        // Multiples of 1/8 well inside f64's exact range: sums are exact
        // in any order, so star-tree and brute force agree bit for bit.
        -4_000_000i64..4_000_000,
    )
        .prop_map(|(k, c, m, d)| Row {
            k,
            c,
            m,
            d: d as f64 / 8.0,
        });
    // Small segments, and segments whose `d` dictionary is large enough
    // for a few-doc selection to stay a sorted id list.
    prop_oneof![
        prop::collection::vec(row.clone(), 1..150),
        prop::collection::vec(row, 1500..3000),
    ]
}

fn build(rows: &[Row], variant: u8) -> SegmentHandle {
    let schema = Schema::new(
        "t",
        vec![
            FieldSpec::dimension("k", DataType::Long),
            FieldSpec::dimension("c", DataType::String),
            FieldSpec::metric("m", DataType::Long),
            FieldSpec::metric("d", DataType::Double),
        ],
    )
    .unwrap();
    let mut cfg = BuilderConfig::new("s", "t");
    match variant {
        1 => cfg = cfg.with_inverted_columns(&["k", "c"]),
        2 => cfg = cfg.with_sort_columns(&["k"]).with_inverted_columns(&["c"]),
        _ => {}
    }
    let mut b = SegmentBuilder::new(schema, cfg).unwrap();
    for r in rows {
        b.add(Record::new(vec![
            Value::Long(r.k),
            Value::from(r.c),
            Value::Long(r.m),
            Value::Double(r.d),
        ]))
        .unwrap();
    }
    let seg: Arc<ImmutableSegment> = Arc::new(b.build().unwrap());
    let mut handle = SegmentHandle::new(Arc::clone(&seg));
    if variant == 3 {
        let tree = build_star_tree(
            &seg,
            &StarTreeConfig {
                dimensions: vec!["k".into(), "c".into()],
                metrics: vec!["m".into(), "d".into()],
                max_leaf_records: 2,
                skip_star_dimensions: vec![],
            },
        )
        .unwrap();
        handle = handle.with_star_tree(Arc::new(tree));
    }
    handle
}

/// A filter selecting nothing, a few docs next to `d`'s dictionary, a
/// slice, or everything.
fn filter_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        Just(" WHERE k > 100".to_string()),
        (0i64..10).prop_map(|k| format!(" WHERE k = {k}")),
        (-500_000i64..500_000, 0i64..2_000)
            .prop_map(|(lo, w)| format!(" WHERE d BETWEEN {lo} AND {}", lo + w)),
        (-500_000i64..500_000).prop_map(|lo| format!(" WHERE d BETWEEN {lo} AND {}", lo + 200_000)),
        (0i64..8, -50i64..50).prop_map(|(k, m)| format!(" WHERE k = {k} AND m = {m}")),
    ]
}

/// Queries whose filters/groups are on (k, c) with aggregations on m and
/// d — the shapes all four variants including star-tree can run — plus
/// DISTINCTCOUNT and `d` filters/groups, which take the raw path.
fn query_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        1 => Just("SELECT COUNT(*), SUM(m), MIN(m), MAX(m), AVG(m) FROM t".to_string()),
        1 => (0i64..8).prop_map(|k| format!("SELECT SUM(m), COUNT(*) FROM t WHERE k = {k}")),
        1 => (0i64..8, 0i64..8)
            .prop_map(|(a, b)| format!("SELECT SUM(m) FROM t WHERE k = {a} OR k = {b}")),
        1 => (0i64..8)
            .prop_map(|k| format!("SELECT SUM(m), COUNT(*) FROM t WHERE k >= {k} AND c = 'us'")),
        1 => Just("SELECT SUM(m) FROM t WHERE c IN ('us', 'de') GROUP BY k TOP 100".to_string()),
        1 => Just("SELECT COUNT(*) FROM t GROUP BY c TOP 100".to_string()),
        1 => (0i64..8).prop_map(|k| format!(
            "SELECT COUNT(*), SUM(m) FROM t WHERE k BETWEEN 2 AND {k} GROUP BY c TOP 100"
        )),
        1 => (0i64..8).prop_map(|k| format!(
            "SELECT SUM(d), MIN(d), MAX(d), AVG(d) FROM t WHERE k <= {k} GROUP BY c TOP 100"
        )),
        3 => filter_strategy().prop_map(|f| format!(
            "SELECT DISTINCTCOUNT(d), DISTINCTCOUNT(c), SUM(d), COUNT(*) FROM t{f}"
        )),
        3 => filter_strategy().prop_map(|f| format!(
            "SELECT DISTINCTCOUNT(m), DISTINCTCOUNT(k), MAX(d) FROM t{f}"
        )),
        // Key-indexed: 2 to 5 key bits.
        3 => filter_strategy().prop_map(|f| format!(
            "SELECT DISTINCTCOUNT(d), AVG(d), COUNT(*) FROM t{f} GROUP BY c TOP 100"
        )),
        3 => filter_strategy().prop_map(|f| format!(
            "SELECT DISTINCTCOUNT(m), SUM(d), DISTINCTCOUNT(d) FROM t{f} GROUP BY k, c TOP 100"
        )),
        // Hashed: `d` alone needs 8-12 key bits, so (d, m, k) needs more
        // than 12.
        3 => filter_strategy().prop_map(|f| format!(
            "SELECT COUNT(*), SUM(m), DISTINCTCOUNT(c) FROM t{f} GROUP BY d, m, k TOP 10000"
        )),
    ]
}

fn brute_force(rows: &[Row], pql: &str) -> (HashMap<String, Vec<f64>>, Vec<String>) {
    let q = parse(pql).unwrap();
    let matches = |r: &Row| -> bool {
        match &q.filter {
            None => true,
            Some(p) => eval_pred(p, r),
        }
    };
    fn eval_pred(p: &pinot_pql::Predicate, r: &Row) -> bool {
        use pinot_pql::{CmpOp, Predicate};
        let field = |name: &str| field_of(r, name);
        match p {
            Predicate::And(ps) => ps.iter().all(|p| eval_pred(p, r)),
            Predicate::Or(ps) => ps.iter().any(|p| eval_pred(p, r)),
            Predicate::Not(p) => !eval_pred(p, r),
            Predicate::Cmp { column, op, value } => {
                let ord = field(column).total_cmp(value);
                match op {
                    CmpOp::Eq => ord.is_eq(),
                    CmpOp::Ne => ord.is_ne(),
                    CmpOp::Lt => ord.is_lt(),
                    CmpOp::Le => ord.is_le(),
                    CmpOp::Gt => ord.is_gt(),
                    CmpOp::Ge => ord.is_ge(),
                }
            }
            Predicate::In {
                column,
                values,
                negated,
            } => {
                let hit = values.iter().any(|v| field(column).total_cmp(v).is_eq());
                hit != *negated
            }
            Predicate::Between { column, low, high } => {
                let f = field(column);
                f.total_cmp(low).is_ge() && f.total_cmp(high).is_le()
            }
        }
    }

    // Aggregate per group (empty key when no GROUP BY).
    #[derive(Default)]
    struct Acc {
        count: f64,
        sum: f64,
        min: Option<f64>,
        max: Option<f64>,
        distinct: HashSet<String>,
    }
    let aggs = q.aggregations().to_vec();
    let mut groups: HashMap<String, Vec<Acc>> = HashMap::new();
    for r in rows.iter().filter(|r| matches(r)) {
        let key = q
            .group_by
            .iter()
            .map(|g| field_of(r, g).to_string())
            .collect::<Vec<_>>()
            .join("|");
        let accs = groups
            .entry(key)
            .or_insert_with(|| aggs.iter().map(|_| Acc::default()).collect());
        for (acc, a) in accs.iter_mut().zip(&aggs) {
            let v = a.column.as_deref().map(|c| field_of(r, c));
            let x = v.as_ref().and_then(Value::as_f64).unwrap_or(0.0);
            acc.count += 1.0;
            acc.sum += x;
            acc.min = Some(acc.min.map_or(x, |m| m.min(x)));
            acc.max = Some(acc.max.map_or(x, |m| m.max(x)));
            acc.distinct
                .insert(v.map_or_else(String::new, |v| v.to_string()));
        }
    }
    let out = groups
        .into_iter()
        .map(|(key, accs)| {
            let vals = accs
                .iter()
                .zip(&aggs)
                .map(|(acc, a)| match a.function {
                    AggFunction::Count => acc.count,
                    AggFunction::Sum => acc.sum,
                    AggFunction::Min => acc.min.unwrap(),
                    AggFunction::Max => acc.max.unwrap(),
                    AggFunction::Avg => acc.sum / acc.count,
                    AggFunction::DistinctCount => acc.distinct.len() as f64,
                })
                .collect();
            (key, vals)
        })
        .collect();
    (out, q.group_by.clone())
}

fn field_of(r: &Row, name: &str) -> Value {
    match name {
        "k" => Value::Long(r.k),
        "c" => Value::from(r.c),
        "m" => Value::Long(r.m),
        "d" => Value::Double(r.d),
        other => panic!("unknown column {other}"),
    }
}

fn result_to_map(handle: &SegmentHandle, pql: &str) -> HashMap<String, Vec<f64>> {
    let q = parse(pql).unwrap();
    let r = execute_on_segment(handle, &q).unwrap();
    match r.payload {
        ResultPayload::Aggregation(states) => {
            let vals: Vec<f64> = states.iter().map(|s| s.finalize_f64()).collect();
            // An all-empty aggregation over zero matching rows is equivalent
            // to brute force's "no groups at all".
            let count_like = states.iter().any(|s| match s {
                pinot_exec::AggState::Count(n) => *n > 0,
                pinot_exec::AggState::Sum(_) => true,
                pinot_exec::AggState::Avg { count, .. } => *count > 0,
                pinot_exec::AggState::Min(m) => m.is_finite(),
                pinot_exec::AggState::Max(m) => m.is_finite(),
                pinot_exec::AggState::Distinct(s) => !s.is_empty(),
            });
            let mut out = HashMap::new();
            if count_like {
                out.insert(String::new(), vals);
            }
            out
        }
        ResultPayload::GroupBy(groups) => groups
            .into_iter()
            .map(|(key, states)| {
                let k = key
                    .iter()
                    .map(|g| match g.to_value() {
                        Value::Long(x) => x.to_string(),
                        Value::String(s) => s,
                        other => other.to_string(),
                    })
                    .collect::<Vec<_>>()
                    .join("|");
                (k, states.iter().map(|s| s.finalize_f64()).collect())
            })
            .collect(),
        other => panic!("unexpected payload {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn all_variants_agree_with_brute_force(rows in rows_strategy(), pql in query_strategy()) {
        let (expected, group_by) = brute_force(&rows, &pql);
        for variant in 0..4u8 {
            let handle = build(&rows, variant);
            let got = result_to_map(&handle, &pql);
            // For ungrouped queries over an empty match set, engines report
            // identity aggregates; brute force reports nothing. Normalize:
            let effectively_empty = expected.is_empty() && group_by.is_empty();
            if effectively_empty {
                if let Some(vals) = got.get("") {
                    // COUNT-like zero / identity results only.
                    let q = parse(&pql).unwrap();
                    for (i, a) in q.aggregations().iter().enumerate() {
                        match a.function {
                            AggFunction::Count => prop_assert_eq!(vals[i], 0.0),
                            AggFunction::Sum => prop_assert_eq!(vals[i], 0.0),
                            AggFunction::DistinctCount => prop_assert_eq!(vals[i], 0.0),
                            _ => {}
                        }
                    }
                }
                continue;
            }
            prop_assert_eq!(got.len(), expected.len(), "variant {} pql {} got {:?} expected {:?}", variant, &pql, &got, &expected);
            for (k, vals) in &expected {
                let g = got.get(k).ok_or_else(|| TestCaseError::fail(
                    format!("variant {variant}: missing group {k:?} for {pql}")
                ))?;
                for (i, v) in vals.iter().enumerate() {
                    prop_assert!((g[i] - v).abs() < 1e-6,
                        "variant {} pql {} group {:?} agg {}: {} vs {}", variant, &pql, k, i, g[i], v);
                }
            }
        }
    }
}
