//! Answer comparison against an oracle that does not share the path under
//! test.
//!
//! Group-by rows compare as sets keyed by their group values, so an engine
//! may return them in any order. Numbers compare with a relative tolerance,
//! because the two engines may add floating-point partials in different
//! orders; everything else compares exactly.

use pinot::common::query::{GroupByRows, QueryResult};
use pinot::common::Value;

/// Relative tolerance for numeric aggregates.
pub const REL_TOL: f64 = 1e-9;

/// `Ok` when `actual` answers the query the way `expected` does, otherwise
/// a description of the first difference.
pub fn compare(expected: &QueryResult, actual: &QueryResult) -> Result<(), String> {
    match (expected, actual) {
        (QueryResult::Aggregation(e), QueryResult::Aggregation(a)) => {
            if e.len() != a.len() {
                return Err(format!("{} aggregates, expected {}", a.len(), e.len()));
            }
            for (e, a) in e.iter().zip(a) {
                if e.function != a.function || !same_value(&e.value, &a.value) {
                    return Err(format!(
                        "{} = {:?}, expected {} = {:?}",
                        a.function, a.value, e.function, e.value
                    ));
                }
            }
            Ok(())
        }
        (QueryResult::GroupBy(e), QueryResult::GroupBy(a)) => {
            if e.len() != a.len() {
                return Err(format!("{} group tables, expected {}", a.len(), e.len()));
            }
            e.iter().zip(a).try_for_each(|(e, a)| compare_groups(e, a))
        }
        _ => Err(format!(
            "result shape differs: {actual:?}, expected {expected:?}"
        )),
    }
}

fn compare_groups(e: &GroupByRows, a: &GroupByRows) -> Result<(), String> {
    if e.function != a.function || e.group_columns != a.group_columns {
        return Err(format!(
            "group table {}/{:?}, expected {}/{:?}",
            a.function, a.group_columns, e.function, e.group_columns
        ));
    }
    if e.rows.len() != a.rows.len() {
        return Err(format!(
            "{}: {} groups, expected {}",
            a.function,
            a.rows.len(),
            e.rows.len()
        ));
    }
    let sorted = |rows: &[(Vec<Value>, Value)]| {
        let mut rows = rows.to_vec();
        rows.sort_by(|x, y| {
            x.0.iter()
                .zip(&y.0)
                .map(|(p, q)| p.total_cmp(q))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        rows
    };
    for ((ek, ev), (ak, av)) in sorted(&e.rows).iter().zip(&sorted(&a.rows)) {
        if ek != ak || !same_value(ev, av) {
            return Err(format!(
                "{}: group {ak:?} = {av:?}, expected group {ek:?} = {ev:?}",
                a.function
            ));
        }
    }
    Ok(())
}

fn same_value(e: &Value, a: &Value) -> bool {
    match (e.as_f64(), a.as_f64()) {
        (Some(x), Some(y)) => x == y || (x - y).abs() <= REL_TOL * x.abs().max(y.abs()),
        _ => e == a,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinot::common::query::AggregationRow;

    fn agg(v: f64) -> QueryResult {
        QueryResult::Aggregation(vec![AggregationRow {
            function: "sum(views)".into(),
            value: Value::Double(v),
        }])
    }

    fn groups(rows: &[(&str, f64)]) -> QueryResult {
        QueryResult::GroupBy(vec![GroupByRows {
            function: "sum(views)".into(),
            group_columns: vec!["viewer_country".into()],
            rows: rows
                .iter()
                .map(|(k, v)| (vec![Value::from(*k)], Value::Double(*v)))
                .collect(),
        }])
    }

    #[test]
    fn equal_answers_match() {
        assert_eq!(compare(&agg(12.0), &agg(12.0)), Ok(()));
    }

    #[test]
    fn float_sums_match_within_the_relative_tolerance() {
        let x = 0.1 + 0.2 + 0.3;
        let y = 0.3 + 0.2 + 0.1;
        assert_ne!(x, y);
        assert_eq!(compare(&agg(x), &agg(y)), Ok(()));
        assert!(compare(&agg(1.0), &agg(1.0 + 1e-6)).is_err());
    }

    #[test]
    fn group_rows_compare_in_any_order() {
        let e = groups(&[("us", 5.0), ("de", 3.0), ("in", 3.0)]);
        let a = groups(&[("in", 3.0), ("us", 5.0), ("de", 3.0)]);
        assert_eq!(compare(&e, &a), Ok(()));
    }

    #[test]
    fn a_wrong_answer_is_a_failure() {
        // The kind of answer a merge of finalized values gives: the right
        // groups with one count too high.
        let e = groups(&[("us", 5.0), ("de", 3.0)]);
        let wrong_value = groups(&[("us", 6.0), ("de", 3.0)]);
        let missing_group = groups(&[("us", 5.0)]);
        let other_group = groups(&[("us", 5.0), ("fr", 3.0)]);
        for a in [&wrong_value, &missing_group, &other_group] {
            assert!(compare(&e, a).is_err(), "{a:?} accepted");
        }
        assert!(compare(&agg(5.0), &e).is_err());
    }
}
