//! Cost-based planner properties (ISSUE 9): the selectivity estimator
//! always answers a probability, And/Or estimates are monotone against
//! their children, and every access-path strategy — including the bulk
//! IndexAnd/IndexOr operators, the batched scan kernels and the
//! same-column OR → IN fold — selects exactly the docs a brute-force
//! evaluation of the filter over the generated rows selects.
//!
//! Segments hold either a few rows (1..120, inside one 1024-doc block)
//! or 1000..2600 (two to three blocks, the last one partial). Column `w`
//! draws from a value range of 2^1..2^21, so its dictionary ids are
//! packed from 1 bit up to the widest the row count allows (12 bits).

use pinot_common::query::ExecutionStats;
use pinot_common::{DataType, FieldSpec, Record, Schema, Value};
use pinot_exec::planner::normalize_predicate;
use pinot_exec::selection::DocSelection;
use pinot_exec::{estimate_leaf, estimate_predicate, evaluate_filter_planned, PlannerMode};
use pinot_pql::{parse, CmpOp, Predicate};
use pinot_segment::builder::{BuilderConfig, SegmentBuilder};
use pinot_segment::ImmutableSegment;
use proptest::prelude::*;
use std::cmp::Ordering;
use std::sync::Arc;

#[derive(Debug, Clone)]
struct Row {
    k: i64,
    c: &'static str,
    m: i64,
    w: i64,
}

/// Rows whose `w` values lie in `[0, 2^wbits)`.
fn rows_strategy(wbits: u32) -> impl Strategy<Value = Vec<Row>> {
    let row = (
        0i64..8,
        prop::sample::select(vec!["us", "de", "fr", "jp"]),
        -50i64..50,
        0i64..1 << wbits,
    )
        .prop_map(|(k, c, m, w)| Row { k, c, m, w });
    prop_oneof![
        prop::collection::vec(row.clone(), 1..120),
        prop::collection::vec(row, 1000..2600),
    ]
}

/// Segment variants: 0 = no indexes, 1 = inverted on k and c (the
/// IndexAnd/IndexOr sweet spot), 2 = sorted on k + inverted on c.
fn build(rows: &[Row], variant: u8) -> Arc<ImmutableSegment> {
    let schema = Schema::new(
        "t",
        vec![
            FieldSpec::dimension("k", DataType::Long),
            FieldSpec::dimension("c", DataType::String),
            FieldSpec::metric("m", DataType::Long),
            FieldSpec::dimension("w", DataType::Long),
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
            Value::Long(r.w),
        ]))
        .unwrap();
    }
    Arc::new(b.build().unwrap())
}

fn in_list(vs: Vec<i64>) -> String {
    vs.iter().map(i64::to_string).collect::<Vec<_>>().join(", ")
}

fn leaf_strategy(wbits: u32) -> impl Strategy<Value = String> {
    let wmax = 1i64 << wbits;
    prop_oneof![
        (0i64..9).prop_map(|v| format!("k = {v}")),
        (0i64..9).prop_map(|v| format!("k > {v}")),
        (0i64..9).prop_map(|v| format!("k != {v}")),
        (0i64..5, 4i64..9).prop_map(|(a, b)| format!("k BETWEEN {a} AND {b}")),
        prop::collection::vec(0i64..9, 1..4).prop_map(|vs| format!("k IN ({})", in_list(vs))),
        // Contiguous ids: a run of adjacent values.
        (0i64..8, 1i64..4).prop_map(|(a, n)| format!("k IN ({})", in_list((a..a + n).collect()))),
        prop::sample::select(vec!["us", "de", "fr", "jp", "zz"]).prop_map(|c| format!("c = '{c}'")),
        prop::collection::vec(prop::sample::select(vec!["'us'", "'fr'", "'zz'"]), 1..3)
            .prop_map(|vs| format!("c IN ({})", vs.join(", "))),
        (-60i64..60).prop_map(|v| format!("m < {v}")),
        (-60i64..0, 0i64..60).prop_map(|(a, b)| format!("m BETWEEN {a} AND {b}")),
        (0..wmax).prop_map(|v| format!("w = {v}")),
        (0..wmax).prop_map(|v| format!("w >= {v}")),
        (0..wmax, 0..wmax).prop_map(|(a, b)| format!("w BETWEEN {} AND {}", a.min(b), a.max(b))),
        // Scattered ids over the whole range: the IN set spans up to
        // the whole dictionary.
        prop::collection::vec(0..wmax, 1..6).prop_map(|vs| format!("w IN ({})", in_list(vs))),
        (0..wmax, 1i64..70).prop_map(|(a, n)| format!("w IN ({})", in_list((a..a + n).collect()))),
    ]
}

/// A filter with enough structure to hit IndexAnd (multiple indexed
/// conjuncts), IndexOr (all-inverted disjunctions), same-column ORs of
/// `=`/`IN` (folded into one IN leaf), NOT, and scan mixes.
fn filter_strategy(wbits: u32) -> impl Strategy<Value = String> {
    let same_column_or = prop_oneof![
        prop::collection::vec(0i64..9, 2..4).prop_map(|vs| {
            vs.iter()
                .map(|v| format!("k = {v}"))
                .collect::<Vec<_>>()
                .join(" OR ")
        }),
        (0i64..9, prop::collection::vec(0i64..9, 1..3))
            .prop_map(|(v, vs)| format!("k = {v} OR k IN ({})", in_list(vs))),
        prop::collection::vec(
            prop::sample::select(vec!["us", "de", "fr", "jp", "zz"]),
            2..4
        )
        .prop_map(|cs| {
            cs.iter()
                .map(|c| format!("c = '{c}'"))
                .collect::<Vec<_>>()
                .join(" OR ")
        }),
        prop::collection::vec(0i64..1 << wbits, 2..5).prop_map(|vs| {
            vs.iter()
                .map(|v| format!("w = {v}"))
                .collect::<Vec<_>>()
                .join(" OR ")
        }),
    ];
    let clause = prop_oneof![
        leaf_strategy(wbits),
        prop::collection::vec(leaf_strategy(wbits), 2..4).prop_map(|ls| ls.join(" OR ")),
        same_column_or,
    ];
    prop::collection::vec(
        (clause, any::<bool>()).prop_map(|(c, neg)| {
            if neg {
                format!("NOT ({c})")
            } else {
                format!("({c})")
            }
        }),
        1..4,
    )
    .prop_map(|cs| cs.join(" AND "))
}

/// Rows and filters over one `w` value range.
fn case_strategy() -> impl Strategy<Value = (Vec<Row>, String)> {
    (1u32..=21).prop_flat_map(|wbits| (rows_strategy(wbits), filter_strategy(wbits)))
}

fn filter_of(f: &str) -> Predicate {
    parse(&format!("SELECT COUNT(*) FROM t WHERE {f}"))
        .unwrap()
        .filter
        .unwrap()
}

fn docs(sel: &DocSelection) -> Vec<u32> {
    let mut v = Vec::new();
    sel.for_each(|d| v.push(d));
    v
}

/// The row's value of `column`, typed as the PQL literals are.
fn row_value(r: &Row, column: &str) -> Value {
    match column {
        "k" => Value::Long(r.k),
        "c" => Value::from(r.c),
        "m" => Value::Long(r.m),
        "w" => Value::Long(r.w),
        other => panic!("no column {other}"),
    }
}

fn compare(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Long(x), Value::Long(y)) => x.cmp(y),
        (Value::String(x), Value::String(y)) => x.cmp(y),
        _ => panic!("the generator compares {a:?} with {b:?}"),
    }
}

/// Brute-force filter semantics over one row, straight from the parsed
/// PQL — no dictionary, index, normalization or kernel involved.
fn row_matches(r: &Row, p: &Predicate) -> bool {
    match p {
        Predicate::And(ps) => ps.iter().all(|p| row_matches(r, p)),
        Predicate::Or(ps) => ps.iter().any(|p| row_matches(r, p)),
        Predicate::Not(inner) => !row_matches(r, inner),
        Predicate::Cmp { column, op, value } => {
            let ord = compare(&row_value(r, column), value);
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
            let v = row_value(r, column);
            values.iter().any(|x| compare(&v, x).is_eq()) != *negated
        }
        Predicate::Between { column, low, high } => {
            let v = row_value(r, column);
            compare(&v, low).is_ge() && compare(&v, high).is_le()
        }
    }
}

/// The matching doc ids of `variant`'s segment, by brute force. Variant
/// 2 stores rows stably sorted on `k`, so doc `d` is the `d`-th row of
/// that order.
fn oracle_docs(rows: &[Row], variant: u8, pred: &Predicate) -> Vec<u32> {
    let mut stored: Vec<&Row> = rows.iter().collect();
    if variant == 2 {
        stored.sort_by_key(|r| r.k);
    }
    (0u32..)
        .zip(stored)
        .filter(|(_, r)| row_matches(r, pred))
        .map(|(d, _)| d)
        .collect()
}

fn assert_leaf_probabilities(
    segment: &ImmutableSegment,
    pred: &Predicate,
) -> Result<(), TestCaseError> {
    match pred {
        Predicate::And(ps) | Predicate::Or(ps) => {
            for p in ps {
                assert_leaf_probabilities(segment, p)?;
            }
        }
        Predicate::Not(inner) => assert_leaf_probabilities(segment, inner)?,
        leaf => {
            let e = estimate_leaf(segment, leaf);
            prop_assert!(
                (0.0..=1.0).contains(&e.selectivity),
                "leaf {leaf:?} estimated {}",
                e.selectivity
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every estimate — per leaf and for the whole tree — is in [0, 1],
    /// on every index layout.
    #[test]
    fn estimates_are_probabilities((rows, f) in case_strategy()) {
        for variant in 0..3u8 {
            let seg = build(&rows, variant);
            let norm = normalize_predicate(&filter_of(&f));
            let s = estimate_predicate(&seg, &norm);
            prop_assert!((0.0..=1.0).contains(&s), "tree estimated {s}");
            assert_leaf_probabilities(&seg, &norm)?;
        }
    }

    /// And never estimates above its smallest child; Or never below its
    /// largest.
    #[test]
    fn and_or_estimates_are_monotone(
        (rows, fa) in case_strategy(),
        fb in filter_strategy(8),
    ) {
        for variant in 0..3u8 {
            let seg = build(&rows, variant);
            let pa = normalize_predicate(&filter_of(&fa));
            let pb = normalize_predicate(&filter_of(&fb));
            let a = estimate_predicate(&seg, &pa);
            let b = estimate_predicate(&seg, &pb);
            let and = estimate_predicate(&seg, &Predicate::And(vec![pa.clone(), pb.clone()]));
            let or = estimate_predicate(&seg, &Predicate::Or(vec![pa, pb]));
            prop_assert!(and <= a.min(b) + 1e-9, "And {and} above min({a}, {b})");
            prop_assert!(or >= a.max(b) - 1e-9, "Or {or} below max({a}, {b})");
        }
    }

    /// Every access-path strategy (auto with its IndexAnd/IndexOr bulk
    /// operators, and each forced path) under both scan kernels selects
    /// exactly the docs the brute-force oracle selects.
    #[test]
    fn strategies_match_brute_force_oracle((rows, f) in case_strategy()) {
        let pred = filter_of(&f);
        for variant in 0..3u8 {
            let seg = build(&rows, variant);
            let oracle = oracle_docs(&rows, variant, &pred);
            for mode in [
                PlannerMode::Auto,
                PlannerMode::Scan,
                PlannerMode::Inverted,
                PlannerMode::Sorted,
            ] {
                for batch in [false, true] {
                    let mut s = ExecutionStats::default();
                    let sel =
                        evaluate_filter_planned(&seg, Some(&pred), &mut s, mode, batch).unwrap();
                    prop_assert_eq!(
                        docs(&sel),
                        oracle.clone(),
                        "variant={} mode={:?} batch={} rows={} filter={}",
                        variant,
                        mode,
                        batch,
                        rows.len(),
                        f
                    );
                }
            }
        }
    }
}
