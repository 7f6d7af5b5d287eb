//! Executing one query against one segment.

use crate::aggstate::AggState;
use crate::batch::{self, ExecOptions, KernelStats};
use crate::key::{GroupKey, GroupValue};
use crate::morsel;
use crate::planner;
use crate::selection::DocSelection;
use pinot_common::profile::ProfileNode;
use pinot_common::query::ExecutionStats;
use pinot_common::{PinotError, Result, Schema, Value};
use pinot_pql::{AggregateExpr, Query, SelectList};
use pinot_segment::column::ColumnData;
use pinot_segment::ImmutableSegment;
use pinot_startree::StarTree;
use std::collections::HashMap;
use std::sync::Arc;

/// A query-ready segment: the immutable data plus its optional star-tree.
#[derive(Clone)]
pub struct SegmentHandle {
    pub segment: Arc<ImmutableSegment>,
    pub star_tree: Option<Arc<StarTree>>,
    /// Segment name shared as `Arc<str>` so profiled executions label
    /// their nodes without allocating per query.
    pub name: Arc<str>,
}

impl SegmentHandle {
    pub fn new(segment: Arc<ImmutableSegment>) -> SegmentHandle {
        SegmentHandle {
            name: segment.name().into(),
            segment,
            star_tree: None,
        }
    }

    pub fn with_star_tree(mut self, tree: Arc<StarTree>) -> SegmentHandle {
        self.star_tree = Some(tree);
        self
    }
}

/// Partial result produced by a segment (and merged across segments and
/// servers). The same shape flows server → broker.
#[derive(Debug, Clone, PartialEq)]
pub enum ResultPayload {
    /// Ungrouped aggregation states, one per aggregation expression.
    Aggregation(Vec<AggState>),
    /// Grouped aggregation states.
    GroupBy(HashMap<GroupKey, Vec<AggState>>),
    /// Projected rows.
    Selection {
        columns: Vec<String>,
        rows: Vec<Vec<Value>>,
    },
}

/// A partial result plus its execution statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct IntermediateResult {
    pub payload: ResultPayload,
    pub stats: ExecutionStats,
    /// Per-operator profile tree, present only when
    /// [`ExecOptions::profile`] was set. Never affects `payload`/`stats`.
    pub profile: Option<ProfileNode>,
}

impl IntermediateResult {
    /// Identity element matching the query shape.
    pub fn empty_for(query: &Query) -> IntermediateResult {
        let payload = match &query.select {
            SelectList::Aggregations(aggs) if query.group_by.is_empty() => {
                ResultPayload::Aggregation(aggs.iter().map(|a| AggState::new(a.function)).collect())
            }
            SelectList::Aggregations(_) => ResultPayload::GroupBy(HashMap::new()),
            SelectList::Projections(cols) => ResultPayload::Selection {
                columns: cols.clone(),
                rows: Vec::new(),
            },
            SelectList::Star => ResultPayload::Selection {
                columns: Vec::new(),
                rows: Vec::new(),
            },
        };
        IntermediateResult {
            payload,
            stats: ExecutionStats::default(),
            profile: None,
        }
    }
}

/// Execute a query on one segment with default options (the
/// `PINOT_EXEC_BATCH` env decides between the batched and row paths).
pub fn execute_on_segment(handle: &SegmentHandle, query: &Query) -> Result<IntermediateResult> {
    execute_on_segment_with(handle, query, &ExecOptions::default())
}

/// Execute a query on one segment, producing a partial result.
pub fn execute_on_segment_with(
    handle: &SegmentHandle,
    query: &Query,
    opts: &ExecOptions,
) -> Result<IntermediateResult> {
    let segment = &handle.segment;
    let mut stats = ExecutionStats {
        num_segments_queried: 1,
        num_segments_processed: 1,
        total_docs: segment.num_docs() as u64,
        ..Default::default()
    };

    // Profiling clock: `None` on the unprofiled path, which therefore
    // takes no extra timestamps and returns byte-identical results.
    let seg_start = opts.profile.then(std::time::Instant::now);

    // Validate referenced columns up front for a clean error.
    for c in query.referenced_columns() {
        segment.column(c)?;
    }

    // 1. Metadata-only plan.
    if let Some(values) = planner::metadata_only_plan(segment, query) {
        record_plan(&mut stats, segment.name(), planner::PlanKind::MetadataOnly);
        let aggs = query.aggregations();
        let mut states = Vec::with_capacity(aggs.len());
        for (a, v) in aggs.iter().zip(values) {
            let mut s = AggState::new(a.function);
            match (&mut s, v) {
                (AggState::Count(n), Value::Long(x)) => *n = x as u64,
                (AggState::Min(m), Value::Double(x)) => *m = x,
                (AggState::Max(m), Value::Double(x)) => *m = x,
                _ => {
                    return Err(PinotError::Internal(
                        "metadata plan produced unexpected value shape".into(),
                    ))
                }
            }
            states.push(s);
        }
        let profile = seg_start.map(|t| {
            let ns = t.elapsed().as_nanos() as u64;
            let mut child = ProfileNode::new("metadata_only");
            child.elapsed_ns = ns;
            let mut seg =
                segment_profile_node(Arc::clone(&handle.name), planner::PlanKind::MetadataOnly);
            seg.docs_in = stats.total_docs;
            seg.elapsed_ns = ns;
            seg.children.push(child);
            seg
        });
        return Ok(IntermediateResult {
            payload: ResultPayload::Aggregation(states),
            stats,
            profile,
        });
    }

    // 2. Star-tree plan.
    if let Some((filters, group_dims)) = planner::try_star_tree(handle, query) {
        let tree = handle.star_tree.as_ref().expect("checked by try_star_tree");
        record_plan(&mut stats, segment.name(), planner::PlanKind::StarTree);
        let mut result = execute_star_tree(segment, tree, query, &filters, &group_dims, stats)?;
        result.profile = seg_start.map(|t| {
            let ns = t.elapsed().as_nanos() as u64;
            let mut child = ProfileNode::new("star_tree");
            // The star-tree scans preaggregated records standing in for
            // `raw_docs_equivalent` raw documents.
            child.docs_in = result.stats.raw_docs_equivalent;
            child.docs_out = result.stats.num_docs_scanned;
            child.elapsed_ns = ns;
            let mut seg =
                segment_profile_node(Arc::clone(&handle.name), planner::PlanKind::StarTree);
            seg.docs_in = result.stats.total_docs;
            seg.docs_out = result.stats.num_docs_scanned;
            seg.elapsed_ns = ns;
            seg.children.push(child);
            seg
        });
        return Ok(result);
    }

    // 3. Raw plan: filter then aggregate / group / select. The batched
    // kernels handle what they can; anything else (multi-value columns,
    // over-wide group keys) falls back to the row path per operator.
    record_plan(&mut stats, segment.name(), planner::PlanKind::Raw);
    let batch = opts.batch_enabled();
    let filter_start = opts.profile.then(std::time::Instant::now);
    // Per-conjunct measurements (chosen path, estimated vs actual docs)
    // are collected only for EXPLAIN ANALYZE; plain profiled execution
    // skips the report to stay within its overhead budget.
    let conjuncts = (opts.profile && opts.analyze).then(|| std::cell::RefCell::new(Vec::new()));
    let fctx = planner::FilterCtx {
        batch,
        mode: opts.planner_mode(),
        cost_ordered: true,
        obs: opts.obs.as_deref(),
        report: conjuncts.as_ref(),
    };
    let selection =
        planner::evaluate_filter_ctx(segment, query.filter.as_ref(), &mut stats, &fctx)?;
    stats.num_docs_scanned = selection.count();

    let mut kstats = KernelStats::default();
    // `scan_start` doubles as the filter phase's end boundary, so the
    // profiled path takes no extra timestamp between filter and scan.
    let scan_start = std::time::Instant::now();
    let filter_ns = filter_start.map(|t| scan_start.duration_since(t).as_nanos() as u64);
    // Resolve columns and choose the kernel once; morsels reuse the plan.
    let plan = ScanPlan::resolve(segment, query, batch)?;
    let batch_kernel = plan.batch_kernel();
    // Morsel-driven scan (ISSUE 8): the partition depends only on the
    // selection and the morsel size, and partials merge in ascending
    // morsel order — so whether the morsels run inline or as pool tasks
    // (the cost gate's call), the bytes are identical. Selections of one
    // morsel or fewer take the direct path below, unchanged.
    let morsels = morsel::split_selection(&selection, opts.morsel_docs());
    let payload = if morsels.len() > 1 {
        let part = morsel::execute_morsels(
            &morsels,
            stats.num_docs_scanned,
            plan.cols_touched(),
            |m| {
                let mut mstats = ExecutionStats::default();
                let mut mk = KernelStats::default();
                let payload = plan.run(m, &mut mstats, &mut mk);
                morsel::MorselPartial {
                    payload,
                    entries: mstats.num_entries_scanned_post_filter,
                    blocks: mk.blocks,
                    docs: mk.docs,
                }
            },
            crate::merge::merge_payload,
            opts,
            opts.obs.as_deref(),
        )?;
        stats.num_entries_scanned_post_filter += part.entries;
        kstats.blocks += part.blocks;
        kstats.docs += part.docs;
        let mut payload = part.payload;
        if let ScanPlan::Select { limit, .. } = &plan {
            // Each morsel stops at the limit on its own; the ordered
            // concatenation re-applies it once globally.
            if let ResultPayload::Selection { rows, .. } = &mut payload {
                rows.truncate(*limit);
            }
        }
        payload
    } else {
        plan.run(&selection, &mut stats, &mut kstats)
    };
    let scan_ns = scan_start.elapsed().as_nanos() as u64;
    if let Some(obs) = &opts.obs {
        kstats.flush(obs, batch, scan_ns);
    }
    let profile = seg_start.map(|t| {
        let (scan_op, docs_produced) = match &payload {
            ResultPayload::Aggregation(states) => ("aggregate", states.len() as u64),
            ResultPayload::GroupBy(groups) => ("group_by", groups.len() as u64),
            ResultPayload::Selection { rows, .. } => ("select", rows.len() as u64),
        };
        let mut filter = ProfileNode::new("filter");
        filter.docs_in = stats.total_docs;
        filter.docs_out = stats.num_docs_scanned;
        filter.elapsed_ns = filter_ns.unwrap_or(0);
        // One child per evaluated conjunct leaf: docs_in is the cost
        // model's estimate, docs_out the measured match count, so the
        // rendered `docs=est→actual` reads as estimated vs measured.
        if let Some(report) = &conjuncts {
            for m in report.take() {
                let mut c = ProfileNode::named("conjunct", m.label);
                c.docs_in = m.est_docs;
                c.docs_out = m.actual_docs;
                filter.children.push(c);
            }
        }
        let mut scan = ProfileNode::new(scan_op);
        scan.kernel = Some(if batch_kernel { "batch" } else { "row" });
        scan.docs_in = stats.num_docs_scanned;
        scan.docs_out = docs_produced;
        scan.blocks_decoded = kstats.blocks;
        scan.elapsed_ns = scan_ns;
        let mut seg = segment_profile_node(Arc::clone(&handle.name), planner::PlanKind::Raw);
        seg.docs_in = stats.total_docs;
        seg.docs_out = stats.num_docs_scanned;
        seg.elapsed_ns = t.elapsed().as_nanos() as u64;
        seg.children = vec![filter, scan];
        seg
    });
    Ok(IntermediateResult {
        payload,
        stats,
        profile,
    })
}

/// A resolved raw-scan plan: columns looked up and the kernel chosen
/// once per segment, then reused for every morsel of the selection. All
/// kernels take a `&DocSelection`, which is what lets morsel splitting
/// happen *above* the kernel choice — batch and row paths morselize
/// identically.
enum ScanPlan<'a> {
    Aggregate {
        aggs: &'a [AggregateExpr],
        cols: Vec<Option<&'a ColumnData>>,
        batch: bool,
    },
    GroupBy {
        aggs: &'a [AggregateExpr],
        group_cols: Vec<&'a ColumnData>,
        agg_cols: Vec<Option<&'a ColumnData>>,
        layout: Option<batch::PackedKeyLayout>,
    },
    Select {
        columns: Vec<String>,
        cols: Vec<&'a ColumnData>,
        limit: usize,
        batch: bool,
    },
}

impl<'a> ScanPlan<'a> {
    fn resolve(
        segment: &'a ImmutableSegment,
        query: &'a Query,
        batch: bool,
    ) -> Result<ScanPlan<'a>> {
        Ok(match &query.select {
            SelectList::Aggregations(aggs) if query.group_by.is_empty() => {
                let cols = aggregation_columns(segment, aggs)?;
                ScanPlan::Aggregate { aggs, cols, batch }
            }
            SelectList::Aggregations(aggs) => {
                let group_cols: Vec<&ColumnData> = query
                    .group_by
                    .iter()
                    .map(|c| segment.column(c))
                    .collect::<Result<_>>()?;
                let agg_cols = aggregation_columns(segment, aggs)?;
                let layout = batch.then(|| batch::group_by_layout(&group_cols)).flatten();
                ScanPlan::GroupBy {
                    aggs,
                    group_cols,
                    agg_cols,
                    layout,
                }
            }
            SelectList::Projections(_) | SelectList::Star => {
                let columns: Vec<String> = match &query.select {
                    SelectList::Projections(cols) => cols.clone(),
                    _ => segment
                        .schema()
                        .fields()
                        .iter()
                        .map(|f| f.name.clone())
                        .collect(),
                };
                let cols: Vec<&ColumnData> = columns
                    .iter()
                    .map(|c| segment.column(c))
                    .collect::<Result<_>>()?;
                let limit = query.effective_limit();
                let batch = batch && batch::select_eligible(&cols);
                ScanPlan::Select {
                    columns,
                    cols,
                    limit,
                    batch,
                }
            }
        })
    }

    fn batch_kernel(&self) -> bool {
        match self {
            ScanPlan::Aggregate { batch, .. } => *batch,
            ScanPlan::GroupBy { layout, .. } => layout.is_some(),
            ScanPlan::Select { batch, .. } => *batch,
        }
    }

    /// Columns the scan reads per matching doc — the cost model's second
    /// factor.
    fn cols_touched(&self) -> u64 {
        let n = match self {
            ScanPlan::Aggregate { cols, .. } => cols.iter().flatten().count(),
            ScanPlan::GroupBy {
                group_cols,
                agg_cols,
                ..
            } => group_cols.len() + agg_cols.iter().flatten().count(),
            ScanPlan::Select { cols, .. } => cols.len(),
        };
        n.max(1) as u64
    }

    /// Run the scan over one (sub-)selection. Whole-selection execution
    /// and per-morsel execution both come through here.
    fn run(
        &self,
        selection: &DocSelection,
        stats: &mut ExecutionStats,
        kstats: &mut KernelStats,
    ) -> ResultPayload {
        match self {
            ScanPlan::Aggregate { aggs, cols, batch } => {
                let states = if *batch {
                    batch::aggregate_selection_batch(aggs, cols, selection, stats, kstats)
                } else {
                    aggregate_selection(aggs, cols, selection, stats)
                };
                ResultPayload::Aggregation(states)
            }
            ScanPlan::GroupBy {
                aggs,
                group_cols,
                agg_cols,
                layout,
            } => {
                let groups = match layout {
                    Some(layout) => batch::group_by_selection_batch(
                        aggs, group_cols, agg_cols, layout, selection, stats, kstats,
                    ),
                    None => group_by_selection(aggs, group_cols, agg_cols, selection, stats),
                };
                ResultPayload::GroupBy(groups)
            }
            ScanPlan::Select {
                columns,
                cols,
                limit,
                batch,
            } => {
                let rows = if *batch {
                    batch::select_rows_batch(cols, selection, *limit, stats, kstats)
                } else {
                    select_rows(cols, selection, *limit, stats)
                };
                ResultPayload::Selection {
                    columns: columns.clone(),
                    rows,
                }
            }
        }
    }
}

/// Reject a query that aggregates a multi-value column of `schema`:
/// neither kernel defines what SUM or DISTINCTCOUNT of an array means
/// (grouping by one is fine). Brokers run it once per query, before any
/// pruning, so the error does not depend on which segments match;
/// [`ScanPlan`] resolution repeats it per segment as the backstop.
pub fn check_aggregation_columns(query: &Query, schema: &Schema) -> Result<()> {
    let SelectList::Aggregations(aggs) = &query.select else {
        return Ok(());
    };
    match aggs
        .iter()
        .filter_map(|a| a.column.as_deref())
        .find(|&name| schema.field(name).is_some_and(|f| !f.single_value))
    {
        Some(name) => Err(multi_value_aggregation(name)),
        None => Ok(()),
    }
}

fn multi_value_aggregation(column: &str) -> PinotError {
    PinotError::InvalidQuery(format!(
        "aggregation over multi-value column '{column}' is not supported"
    ))
}

/// Resolve each aggregation's input column, rejecting a multi-value one
/// (see [`check_aggregation_columns`]).
pub(crate) fn aggregation_columns<'a>(
    segment: &'a ImmutableSegment,
    aggs: &[AggregateExpr],
) -> Result<Vec<Option<&'a ColumnData>>> {
    aggs.iter()
        .map(|a| {
            let Some(name) = a.column.as_deref() else {
                return Ok(None);
            };
            let col = segment.column(name)?;
            if !col.forward.is_single_value() {
                return Err(multi_value_aggregation(name));
            }
            Ok(Some(col))
        })
        .collect()
}

/// Root profile node for one segment execution.
fn segment_profile_node(name: Arc<str>, kind: planner::PlanKind) -> ProfileNode {
    let mut seg = ProfileNode::named("segment", name);
    seg.plan_kind = Some(kind.as_str());
    seg.segments = 1;
    seg
}

fn record_plan(stats: &mut ExecutionStats, segment_name: &str, kind: planner::PlanKind) {
    match kind {
        planner::PlanKind::MetadataOnly => stats.num_segments_metadata_only += 1,
        planner::PlanKind::StarTree => stats.num_segments_star_tree += 1,
        planner::PlanKind::Raw => stats.num_segments_raw += 1,
    }
    stats
        .segment_plans
        .push((segment_name.to_string(), kind.as_str().to_string()));
}

fn execute_star_tree(
    segment: &ImmutableSegment,
    tree: &StarTree,
    query: &Query,
    filters: &[pinot_startree::DimFilter],
    group_dims: &[usize],
    mut stats: ExecutionStats,
) -> Result<IntermediateResult> {
    let result = tree.execute(filters, group_dims);
    stats.num_docs_scanned = result.preagg_docs_scanned;
    stats.raw_docs_equivalent = result.raw_docs_matched;

    let aggs = query.aggregations();
    // Map each aggregation to its tree-metric index (None for COUNT(*)).
    let metric_idx: Vec<Option<usize>> = aggs
        .iter()
        .map(|a| a.column.as_deref().and_then(|c| tree.metric_index(c)))
        .collect();

    let make_states = |agg_values: &pinot_startree::AggValues| -> Result<Vec<AggState>> {
        aggs.iter()
            .zip(&metric_idx)
            .map(|(a, mi)| {
                let mut s = AggState::new(a.function);
                match mi {
                    Some(i) => s.accept_preaggregated(
                        agg_values.count,
                        agg_values.sums[*i],
                        agg_values.mins[*i],
                        agg_values.maxs[*i],
                    )?,
                    None => s.accept_preaggregated(agg_values.count, 0.0, 0.0, 0.0)?,
                }
                Ok(s)
            })
            .collect()
    };

    if group_dims.is_empty() {
        let total = result
            .groups
            .first()
            .map(|(_, a)| a.clone())
            .unwrap_or_else(|| pinot_startree::AggValues::empty(tree.metrics().len()));
        let states = make_states(&total)?;
        return Ok(IntermediateResult {
            payload: ResultPayload::Aggregation(states),
            stats,
            profile: None,
        });
    }

    // Translate group keys from dict-id space to values.
    let dim_cols: Vec<&ColumnData> = group_dims
        .iter()
        .map(|&d| segment.column(&tree.dimensions()[d]))
        .collect::<Result<_>>()?;
    let mut out: HashMap<GroupKey, Vec<AggState>> = HashMap::with_capacity(result.groups.len());
    for (ids, agg_values) in &result.groups {
        if agg_values.is_empty() {
            continue;
        }
        let key: GroupKey = ids
            .iter()
            .zip(&dim_cols)
            .map(|(id, col)| GroupValue::from_value(&col.dictionary.value_of(*id)))
            .collect();
        out.insert(key, make_states(agg_values)?);
    }
    Ok(IntermediateResult {
        payload: ResultPayload::GroupBy(out),
        stats,
        profile: None,
    })
}

fn aggregate_selection(
    aggs: &[AggregateExpr],
    cols: &[Option<&ColumnData>],
    selection: &DocSelection,
    stats: &mut ExecutionStats,
) -> Vec<AggState> {
    let mut states: Vec<AggState> = aggs.iter().map(|a| AggState::new(a.function)).collect();
    let mut entries = 0u64;
    selection.for_each(|doc| {
        for (state, col) in states.iter_mut().zip(cols) {
            match col {
                Some(col) => {
                    entries += 1;
                    if matches!(state, AggState::Distinct(_)) {
                        state.accept_value(&col.dictionary.value_of(col.dict_id(doc)));
                    } else if let Some(x) = col.numeric(doc) {
                        state.accept_numeric(x);
                    }
                }
                None => state.accept_numeric(0.0), // COUNT(*)
            }
        }
    });
    stats.num_entries_scanned_post_filter += entries;
    states
}

fn group_by_selection(
    aggs: &[AggregateExpr],
    group_cols: &[&ColumnData],
    agg_cols: &[Option<&ColumnData>],
    selection: &DocSelection,
    stats: &mut ExecutionStats,
) -> HashMap<GroupKey, Vec<AggState>> {
    // Each (doc, column) read counts once into the scan stat — key
    // expansion re-uses the same read, so multi-value cartesian blowup
    // must not inflate it.
    let entries_per_doc =
        (group_cols.len() + agg_cols.iter().filter(|c| c.is_some()).count()) as u64;
    let mut groups: HashMap<GroupKey, Vec<AggState>> = HashMap::new();
    let mut entries = 0u64;
    let mut scratch_ids: Vec<pinot_segment::DictId> = Vec::new();
    // Scratch reused across docs: candidate keys, the expansion buffer,
    // and the per-element group values of the current MV column.
    let mut keys: Vec<GroupKey> = Vec::new();
    let mut expanded: Vec<GroupKey> = Vec::new();
    let mut elem_values: Vec<GroupValue> = Vec::new();
    selection.for_each(|doc| {
        entries += entries_per_doc;
        // Multi-value group columns contribute one key per element
        // (cartesian across multiple MV columns).
        keys.clear();
        keys.push(GroupKey::new());
        for col in group_cols {
            if col.forward.is_single_value() {
                let v = col.dictionary.value_of(col.dict_id(doc));
                let gv = GroupValue::from_value(&v);
                for k in &mut keys {
                    k.push(gv.clone());
                }
            } else {
                col.forward.get_multi(doc, &mut scratch_ids);
                elem_values.clear();
                elem_values.extend(
                    scratch_ids
                        .iter()
                        .map(|&id| GroupValue::from_value(&col.dictionary.value_of(id))),
                );
                expanded.clear();
                expanded.reserve(keys.len() * elem_values.len());
                for k in keys.drain(..) {
                    if let Some((last, rest)) = elem_values.split_last() {
                        for gv in rest {
                            let mut nk = k.clone();
                            nk.push(gv.clone());
                            expanded.push(nk);
                        }
                        // The final element takes ownership of the key.
                        let mut nk = k;
                        nk.push(last.clone());
                        expanded.push(nk);
                    }
                }
                std::mem::swap(&mut keys, &mut expanded);
            }
        }
        for key in keys.drain(..) {
            let states = groups
                .entry(key)
                .or_insert_with(|| aggs.iter().map(|a| AggState::new(a.function)).collect());
            for (state, col) in states.iter_mut().zip(agg_cols) {
                match col {
                    Some(col) => {
                        if matches!(state, AggState::Distinct(_)) {
                            state.accept_value(&col.dictionary.value_of(col.dict_id(doc)));
                        } else if let Some(x) = col.numeric(doc) {
                            state.accept_numeric(x);
                        }
                    }
                    None => state.accept_numeric(0.0),
                }
            }
        }
    });
    stats.num_entries_scanned_post_filter += entries;
    groups
}

fn select_rows(
    cols: &[&ColumnData],
    selection: &DocSelection,
    limit: usize,
    stats: &mut ExecutionStats,
) -> Vec<Vec<Value>> {
    let mut rows = Vec::new();
    selection.for_each(|doc| {
        if rows.len() >= limit {
            return;
        }
        rows.push(cols.iter().map(|c| c.value(doc)).collect());
    });
    stats.num_entries_scanned_post_filter += (rows.len() * cols.len()) as u64;
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinot_common::{DataType, FieldSpec, Record, Schema, Value};
    use pinot_pql::parse;
    use pinot_segment::builder::{BuilderConfig, SegmentBuilder};
    use std::sync::Arc;

    fn mv_handle() -> SegmentHandle {
        let schema = Schema::new(
            "t",
            vec![
                FieldSpec::dimension("country", DataType::String),
                FieldSpec::multi_value_dimension("tags", DataType::String),
                FieldSpec::metric("m", DataType::Long),
            ],
        )
        .unwrap();
        let mut b = SegmentBuilder::new(schema, BuilderConfig::new("s", "t")).unwrap();
        let tag_sets: &[&[&str]] = &[&["a", "b", "c"], &["a"], &["b", "c"], &["a", "c"], &["b"]];
        for (i, tags) in tag_sets.iter().enumerate() {
            b.add(Record::new(vec![
                Value::from(if i % 2 == 0 { "us" } else { "de" }),
                Value::StringArray(tags.iter().map(|t| t.to_string()).collect()),
                Value::Long(i as i64),
            ]))
            .unwrap();
        }
        SegmentHandle::new(Arc::new(b.build().unwrap()))
    }

    fn run(handle: &SegmentHandle, pql: &str, batch: bool) -> IntermediateResult {
        let opts = ExecOptions {
            batch: Some(batch),
            ..ExecOptions::default()
        };
        execute_on_segment_with(handle, &parse(pql).unwrap(), &opts).unwrap()
    }

    /// Regression (ISSUE 4 satellite): `num_entries_scanned_post_filter`
    /// counts each (doc, column) read once. The old row path counted an
    /// entry per *expanded group key*, inflating MV group-bys by the
    /// per-doc key fan-out.
    #[test]
    fn mv_group_by_counts_entries_per_doc_not_per_expanded_key() {
        let handle = mv_handle();
        // 5 docs × (1 group column + 1 agg column) = 10 entries; the key
        // expansion (3+1+2+2+1 = 9 keys) must not leak into the count.
        for batch in [false, true] {
            let r = run(&handle, "SELECT SUM(m) FROM t GROUP BY tags", batch);
            assert_eq!(r.stats.num_entries_scanned_post_filter, 10, "batch={batch}");
        }
        // Two MV group columns fan out multiplicatively in keys but still
        // count one entry per (doc, column): 5 × (2 + 1) = 15.
        for batch in [false, true] {
            let r = run(
                &handle,
                "SELECT SUM(m) FROM t GROUP BY tags, country",
                batch,
            );
            assert_eq!(r.stats.num_entries_scanned_post_filter, 15, "batch={batch}");
        }
    }

    /// The batch kernels and the row path agree on results and stats for
    /// SV aggregations (where the batch kernels actually engage),
    /// DISTINCTCOUNT and string-column inputs (which contribute nothing
    /// to numeric aggregates) included.
    #[test]
    fn sv_aggregations_batch_matches_row_path() {
        let handle = mv_handle();
        for pql in [
            "SELECT SUM(m), COUNT(*), DISTINCTCOUNT(m) FROM t GROUP BY country",
            "SELECT COUNT(country), SUM(country), MAX(m), DISTINCTCOUNT(country) FROM t \
             GROUP BY m",
            "SELECT COUNT(country), SUM(country), AVG(m), DISTINCTCOUNT(country) FROM t",
        ] {
            let b = run(&handle, pql, true);
            let r = run(&handle, pql, false);
            assert_eq!(b.payload, r.payload, "{pql}");
            assert_eq!(
                b.stats.num_entries_scanned_post_filter, r.stats.num_entries_scanned_post_filter,
                "{pql}"
            );
        }
    }
}
