//! Batched (vectorized) execution kernels.
//!
//! The row path materializes an owned `Value` per doc per column; these
//! kernels instead decode [`BLOCK_SIZE`]-doc blocks of dictionary ids
//! ([`DocBlock::decode`]) and stay in id space until
//! finalization, paying one dictionary lookup per *distinct id* instead
//! of one per doc. Their cost follows the selected docs, not the
//! dictionaries: the only per-query tables sized by a column's
//! cardinality are DISTINCTCOUNT bitsets, one bit per id.
//!
//! * aggregations read each block's values straight from the typed
//!   dictionary (one type dispatch per block);
//! * DISTINCTCOUNT dedups ids in a bitset — per group, in a list until
//!   the list would outgrow the bitset — and materializes values once
//!   per distinct id;
//! * single-value group-bys pack the per-column dict ids into one u64
//!   key, find the group through a key-indexed table when the key is
//!   at most 12 bits wide (a hash map otherwise), and
//!   materialize group values only when converting to [`GroupKey`]s for
//!   merging;
//! * projections decode id blocks and translate ids per row.
//!
//! Every kernel replicates the row path's observable semantics exactly:
//! string columns contribute nothing to numeric aggregates (mirroring
//! `numeric() == None`), accumulation happens in ascending doc order so
//! float sums are bit-identical, and the stats count the same entries.
//! Multi-value group columns and composite keys wider than 64 bits fall
//! back to the row path, and `PINOT_EXEC_BATCH=0` forces it globally —
//! the differential suite asserts the two engines are byte-identical.

use crate::aggstate::AggState;
use crate::key::{GroupKey, GroupValue};
use crate::selection::{DocBlock, DocSelection};
use pinot_common::query::ExecutionStats;
use pinot_common::Value;
use pinot_obs::Obs;
use pinot_pql::{AggFunction, AggregateExpr};
use pinot_segment::bitpack::bits_needed;
use pinot_segment::column::ColumnData;
use pinot_segment::dictionary::Dictionary;
use pinot_segment::DictId;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Runtime switches for per-segment execution, threaded from the server
/// (or cluster config) down to the kernels.
#[derive(Clone, Default)]
pub struct ExecOptions {
    /// Use the batched kernels where they apply. `None` defers to the
    /// `PINOT_EXEC_BATCH` env default (on unless set to `0`).
    pub batch: Option<bool>,
    /// Evaluate segment statistics (zone maps + blooms) before planning.
    /// `None` defers to the `PINOT_EXEC_PRUNE` env default (on unless
    /// set to `0`).
    pub prune: Option<bool>,
    /// Metrics sink for kernel counters; optional so tests and the
    /// baseline engine can run without one.
    pub obs: Option<Arc<Obs>>,
    /// Collect a per-operator [`pinot_common::profile::ProfileNode`] tree
    /// alongside the result. Off by default so the unprofiled path stays
    /// untimed; profiling never changes the result payload or stats.
    pub profile: bool,
    /// With `profile`, also collect the per-conjunct access-path report
    /// (chosen path, estimated vs actual docs) rendered by `EXPLAIN
    /// ANALYZE`. Off for plain profiled execution: the report costs an
    /// allocation per filter leaf per segment, which would eat the
    /// profiling plane's overhead budget on hot queries.
    pub analyze: bool,
    /// Morsel size in documents for intra-segment splitting. `None`
    /// defers to the `PINOT_EXEC_MORSEL_DOCS` env default. The split is
    /// a pure function of (selection, morsel size) — see
    /// [`crate::morsel`] — so this knob changes bytes only through the
    /// deterministic partition, never through scheduling.
    pub morsel_docs: Option<usize>,
    /// Pool + deadline + cost gate for morsel fan-out. `None` (the
    /// default) executes morsels inline on the caller thread; results
    /// are byte-identical either way.
    pub parallel: Option<crate::morsel::ParallelExec>,
    /// Access-path strategy for filter leaves. `None` defers to the
    /// `PINOT_EXEC_PLANNER` env default (auto). Every mode yields
    /// byte-identical results; the forced modes exist so tests and the
    /// planner bench can pin a single strategy.
    pub planner: Option<crate::cost::PlannerMode>,
}

impl ExecOptions {
    pub fn batch_enabled(&self) -> bool {
        self.batch.unwrap_or_else(batch_default)
    }

    pub fn planner_mode(&self) -> crate::cost::PlannerMode {
        self.planner.unwrap_or_else(crate::cost::planner_default)
    }

    pub fn prune_enabled(&self) -> bool {
        self.prune.unwrap_or_else(crate::prune::prune_default)
    }

    pub fn morsel_docs(&self) -> usize {
        self.morsel_docs
            .map(crate::morsel::clamp_morsel_docs)
            .unwrap_or_else(crate::morsel::morsel_docs_default)
    }
}

/// Process-wide default for the batch path, read once from
/// `PINOT_EXEC_BATCH` (`0` forces the legacy row path).
pub fn batch_default() -> bool {
    static DEFAULT: OnceLock<bool> = OnceLock::new();
    *DEFAULT.get_or_init(|| std::env::var("PINOT_EXEC_BATCH").map_or(true, |v| v != "0"))
}

/// Kernel counters for one segment execution, flushed to obs afterwards.
#[derive(Default)]
pub(crate) struct KernelStats {
    pub blocks: u64,
    pub docs: u64,
}

impl KernelStats {
    pub fn observe(&mut self, block: &DocBlock<'_>) {
        self.blocks += 1;
        self.docs += block.len() as u64;
    }

    /// Record this execution's kernel counters: blocks decoded, docs per
    /// block (fill), and scan cost per doc.
    pub fn flush(&self, obs: &Obs, batch: bool, elapsed_ns: u64) {
        obs.metrics.counter_add(
            if batch {
                "exec.batch_segments"
            } else {
                "exec.row_segments"
            },
            1,
        );
        if self.blocks == 0 {
            return;
        }
        obs.metrics.counter_add("exec.blocks_decoded", self.blocks);
        obs.metrics.counter_add("exec.block_docs", self.docs);
        obs.metrics
            .gauge_set("exec.block_fill_avg", (self.docs / self.blocks) as i64);
        // Calibration sample for the fan-out cost gate. Tiny scans are
        // dominated by fixed per-scan setup, so (elapsed / docs) at small
        // doc counts wildly overstates the *marginal* cost a fan-out
        // decision cares about; only scans spanning several full blocks
        // contribute.
        if self.docs >= 8 * crate::selection::BLOCK_SIZE as u64 {
            obs.metrics.observe_ms(
                "exec.scan_ns_per_doc",
                elapsed_ns as f64 / self.docs.max(1) as f64,
            );
        }
    }
}

/// Evaluate `$body` with `$values` bound to an iterator over the f64
/// values of `$ids`, read straight from the typed dictionary; skip it for
/// string dictionaries — the ids the row path's `numeric()` skips. The
/// type dispatch is paid once per block, and each value converts exactly
/// as [`Dictionary::numeric_of`] does, so float sums stay bit-identical
/// to the row path.
macro_rules! with_numeric_values {
    ($dict:expr, $ids:expr, |$values:ident| $body:expr) => {
        match $dict {
            Dictionary::Int(v) => {
                let $values = $ids.iter().map(|&id| v[id as usize] as f64);
                $body
            }
            Dictionary::Long(v) => {
                let $values = $ids.iter().map(|&id| v[id as usize] as f64);
                $body
            }
            Dictionary::Float(v) => {
                let $values = $ids.iter().map(|&id| v[id as usize] as f64);
                $body
            }
            Dictionary::Double(v) => {
                let $values = $ids.iter().map(|&id| v[id as usize]);
                $body
            }
            Dictionary::Boolean(v) => {
                let $values = $ids.iter().map(|&id| v[id as usize] as u8 as f64);
                $body
            }
            Dictionary::String(_) => {}
        }
    };
}

/// One block's values, for kernels that read them row by row.
fn numeric_block(dict: &Dictionary, ids: &[DictId], out: &mut Vec<f64>) {
    out.clear();
    with_numeric_values!(dict, ids, |values| out.extend(values));
}

/// The dictionary ids one DISTINCTCOUNT state has seen. Ids biject with
/// values, so id-dedup ≡ value-dedup.
enum IdSet {
    /// Ids as seen, duplicates included; sorted and deduped at the end.
    Sparse(Vec<DictId>),
    /// One bit per dictionary id.
    Dense(Vec<u64>),
}

impl IdSet {
    /// The set of a whole selection: one bit per dictionary id.
    fn dense(card: usize) -> IdSet {
        IdSet::Dense(vec![0; card.div_ceil(64)])
    }

    /// The set of one group, which may see only a few of the selected
    /// docs: a list while it takes less memory than the bitset would (the
    /// Roaring papers' container rule), so many groups over a large
    /// dictionary cost memory in proportion to their docs rather than
    /// groups × cardinality.
    fn sparse() -> IdSet {
        IdSet::Sparse(Vec::new())
    }

    fn extend(&mut self, ids: &[DictId], card: usize) {
        if let IdSet::Sparse(list) = self {
            // 32 bits per listed id against one bit per dictionary id.
            if (list.len() + ids.len()) * DictId::BITS as usize <= card {
                list.extend_from_slice(ids);
                return;
            }
            let mut bits = vec![0; card.div_ceil(64)];
            set_bits(&mut bits, list);
            *self = IdSet::Dense(bits);
        }
        if let IdSet::Dense(bits) = self {
            set_bits(bits, ids);
        }
    }

    /// The distinct ids, ascending.
    fn into_sorted_ids(self) -> Vec<DictId> {
        match self {
            IdSet::Sparse(mut ids) => {
                ids.sort_unstable();
                ids.dedup();
                ids
            }
            IdSet::Dense(bits) => {
                let mut ids =
                    Vec::with_capacity(bits.iter().map(|w| w.count_ones() as usize).sum());
                for (w, &word) in bits.iter().enumerate() {
                    let mut x = word;
                    while x != 0 {
                        ids.push((w * 64) as DictId + x.trailing_zeros());
                        x &= x - 1;
                    }
                }
                ids
            }
        }
    }

    /// Late materialization into a DISTINCTCOUNT state: one dictionary
    /// lookup per distinct id, in ascending id order.
    fn drain_into(self, state: &mut AggState, dict: &Dictionary) {
        let AggState::Distinct(set) = state else {
            unreachable!("id sets feed DISTINCTCOUNT only")
        };
        let ids = self.into_sorted_ids();
        set.reserve(ids.len());
        set.extend(
            ids.into_iter()
                .map(|id| GroupValue::from_value(&dict.value_of(id))),
        );
    }
}

#[inline]
fn set_bits(bits: &mut [u64], ids: &[DictId]) {
    for &id in ids {
        bits[id as usize >> 6] |= 1 << (id & 63);
    }
}

/// `accept_numeric(0.0)` repeated `n` times, collapsed. Only ever fed
/// zeros (column-less aggregations), so the float results are exact.
fn accept_zero_repeated(state: &mut AggState, n: u64) {
    if n == 0 {
        return;
    }
    match state {
        AggState::Count(c) => *c += n,
        AggState::Sum(_) => {} // += 0.0, n times
        AggState::Min(m) => *m = m.min(0.0),
        AggState::Max(m) => *m = m.max(0.0),
        AggState::Avg { count, .. } => *count += n, // sum += 0.0
        AggState::Distinct(set) => {
            set.insert(GroupValue::from_value(&Value::Double(0.0)));
        }
    }
}

/// Accumulate one decoded id block into a state, straight from the
/// column's dictionary. Additions run in ascending doc order, so float
/// results match the row path bit for bit.
fn accumulate_block(state: &mut AggState, dict: &Dictionary, ids: &[DictId]) {
    with_numeric_values!(dict, ids, |values| accumulate(state, values));
}

#[inline]
fn accumulate(state: &mut AggState, values: impl ExactSizeIterator<Item = f64>) {
    match state {
        AggState::Count(n) => *n += values.len() as u64,
        AggState::Sum(s) => values.for_each(|x| *s += x),
        AggState::Min(m) => values.for_each(|x| *m = m.min(x)),
        AggState::Max(m) => values.for_each(|x| *m = m.max(x)),
        AggState::Avg { sum, count } => {
            *count += values.len() as u64;
            values.for_each(|x| *sum += x);
        }
        AggState::Distinct(_) => unreachable!("DISTINCTCOUNT accumulates in id space"),
    }
}

/// One distinct aggregation column: decode scratch shared by every
/// aggregation over it, so two aggregations over one column decode it
/// once per block.
struct UniqCol<'a> {
    col: &'a ColumnData,
    /// Decode scratch ([`DocSelection::block_scratch`] ids); the current
    /// block's ids are its first `block.len()`.
    ids: Vec<DictId>,
    /// The block's values for grouped numeric aggregates; `None` when no
    /// numeric aggregate reads the column or it holds strings.
    values: Option<Vec<f64>>,
}

/// Where one aggregation reads its input.
#[derive(Clone, Copy)]
enum AggSource {
    /// COUNT(*)-style: no column, the row path feeds it 0.0 per doc.
    NoColumn,
    /// SUM/MIN/MAX/COUNT/AVG over unique column `slot`.
    Numeric(usize),
    /// DISTINCTCOUNT over unique column `slot`, into each group's id set
    /// number `set`.
    Distinct { slot: usize, set: usize },
}

/// The unique columns, each aggregation's source, and for each id set
/// its (aggregation, unique column) pair.
type Sources<'a> = (Vec<UniqCol<'a>>, Vec<AggSource>, Vec<(usize, usize)>);

/// `scratch` is the decode scratch per column, in ids.
fn resolve_sources<'a>(
    aggs: &[AggregateExpr],
    cols: &[Option<&'a ColumnData>],
    scratch: usize,
) -> Sources<'a> {
    let mut uniq: Vec<UniqCol<'a>> = Vec::new();
    let mut sources = Vec::with_capacity(cols.len());
    let mut sets = Vec::new();
    for (a, (agg, col)) in aggs.iter().zip(cols).enumerate() {
        let Some(col) = col else {
            sources.push(AggSource::NoColumn);
            continue;
        };
        let slot = uniq
            .iter()
            .position(|u| u.col.spec.name == col.spec.name)
            .unwrap_or_else(|| {
                uniq.push(UniqCol {
                    col,
                    ids: vec![0; scratch],
                    values: None,
                });
                uniq.len() - 1
            });
        if agg.function == AggFunction::DistinctCount {
            sources.push(AggSource::Distinct {
                slot,
                set: sets.len(),
            });
            sets.push((a, slot));
        } else {
            if !matches!(*col.dictionary, Dictionary::String(_)) {
                uniq[slot].values.get_or_insert_with(Vec::new);
            }
            sources.push(AggSource::Numeric(slot));
        }
    }
    (uniq, sources, sets)
}

/// Packed keys of up to this many bits index a table directly (4096
/// slots, 16 KiB); wider keys are hashed. Every group-by of the benchmark
/// workloads fits under it.
const DIRECT_KEY_BITS: u32 = 12;

/// Packed group key → group number.
enum GroupIndex {
    /// Indexed by the packed key itself; `u32::MAX` marks an unseen key.
    Direct(Vec<u32>),
    Hashed(HashMap<u64, u32>),
}

impl GroupIndex {
    fn new(key_bits: u32) -> GroupIndex {
        if key_bits <= DIRECT_KEY_BITS {
            GroupIndex::Direct(vec![u32::MAX; 1 << key_bits])
        } else {
            GroupIndex::Hashed(HashMap::new())
        }
    }

    #[inline]
    fn group_of(&mut self, key: u64, new_group: impl FnOnce() -> u32) -> u32 {
        match self {
            GroupIndex::Direct(slots) => {
                let slot = &mut slots[key as usize];
                if *slot == u32::MAX {
                    *slot = new_group();
                }
                *slot
            }
            GroupIndex::Hashed(map) => *map.entry(key).or_insert_with(new_group),
        }
    }
}

/// Per-group accumulators in first-seen order, group-major: group `g`
/// owns `states[g * aggs ..][.. aggs]` and `sets[g * nsets ..][.. nsets]`.
struct Groups {
    keys: Vec<u64>,
    states: Vec<AggState>,
    sets: Vec<IdSet>,
}

impl Groups {
    fn push(
        &mut self,
        key: u64,
        aggs: &[AggregateExpr],
        sets: impl IntoIterator<Item = IdSet>,
    ) -> u32 {
        self.keys.push(key);
        self.states
            .extend(aggs.iter().map(|a| AggState::new(a.function)));
        self.sets.extend(sets);
        (self.keys.len() - 1) as u32
    }
}

/// The id-space aggregation kernel behind both the ungrouped and the
/// grouped entry points. Each doc's group-column ids pack into one u64
/// key (`layout`); with no group columns every doc is in group 0 and
/// whole blocks accumulate at once. Work follows the selection; the only
/// tables sized by a dictionary are DISTINCTCOUNT bitsets, one bit per id:
/// one per ungrouped state, and per group only once its id list would
/// take more memory than the bitset.
fn aggregate_blocks(
    aggs: &[AggregateExpr],
    group_cols: &[&ColumnData],
    agg_cols: &[Option<&ColumnData>],
    layout: &PackedKeyLayout,
    selection: &DocSelection,
    stats: &mut ExecutionStats,
    kstats: &mut KernelStats,
) -> Groups {
    let scratch = selection.block_scratch();
    let (mut uniq, sources, set_specs) = resolve_sources(aggs, agg_cols, scratch);
    let set_cards: Vec<usize> = set_specs
        .iter()
        .map(|&(_, slot)| uniq[slot].col.dictionary.cardinality())
        .collect();
    let (naggs, nsets) = (aggs.len(), set_specs.len());
    let mut groups = Groups {
        keys: Vec::new(),
        states: Vec::new(),
        sets: Vec::new(),
    };
    let mut index = GroupIndex::new(layout.bits);
    if group_cols.is_empty() {
        // Ungrouped: the one group exists even when nothing matches, and
        // its id sets may see every selected doc.
        groups.push(0, aggs, set_cards.iter().map(|&card| IdSet::dense(card)));
    }
    let mut group_ids: Vec<Vec<DictId>> = vec![vec![0; scratch]; group_cols.len()];
    let mut keys: Vec<u64> = Vec::new();
    let mut rows: Vec<u32> = Vec::new();
    let mut docs = 0u64;
    selection.for_each_block(|block| {
        kstats.observe(&block);
        let len = block.len();
        docs += len as u64;
        for u in &mut uniq {
            block.decode(&u.col.forward, &mut u.ids);
        }
        if group_cols.is_empty() {
            for (a, source) in sources.iter().enumerate() {
                let state = &mut groups.states[a];
                match *source {
                    AggSource::NoColumn => accept_zero_repeated(state, len as u64),
                    AggSource::Numeric(slot) => {
                        accumulate_block(state, &uniq[slot].col.dictionary, &uniq[slot].ids[..len])
                    }
                    AggSource::Distinct { slot, set } => {
                        groups.sets[set].extend(&uniq[slot].ids[..len], set_cards[set])
                    }
                }
            }
            return;
        }
        for u in &mut uniq {
            if let Some(values) = &mut u.values {
                numeric_block(&u.col.dictionary, &u.ids[..len], values);
            }
        }
        for (col, ids) in group_cols.iter().zip(&mut group_ids) {
            block.decode(&col.forward, ids);
        }
        keys.clear();
        keys.resize(len, 0);
        for (ids, &shift) in group_ids.iter().zip(&layout.shifts) {
            for (key, &id) in keys.iter_mut().zip(ids) {
                *key |= (id as u64) << shift;
            }
        }
        rows.clear();
        rows.extend(keys.iter().map(|&key| {
            index.group_of(key, || {
                groups.push(key, aggs, set_cards.iter().map(|_| IdSet::sparse()))
            })
        }));
        // Aggregation-major, rows ascending within: each group still sees
        // its docs in ascending order.
        for (a, source) in sources.iter().enumerate() {
            match *source {
                AggSource::NoColumn => {
                    for &g in &rows {
                        groups.states[g as usize * naggs + a].accept_numeric(0.0);
                    }
                }
                AggSource::Numeric(slot) => {
                    for (&g, &x) in rows.iter().zip(uniq[slot].values.iter().flatten()) {
                        groups.states[g as usize * naggs + a].accept_numeric(x);
                    }
                }
                AggSource::Distinct { slot, set } => {
                    for (&g, id) in rows.iter().zip(&uniq[slot].ids) {
                        groups.sets[g as usize * nsets + set]
                            .extend(std::slice::from_ref(id), set_cards[set]);
                    }
                }
            }
        }
    });
    // Each (doc, column) read counts once — same rule as the row path.
    let per_doc = (group_cols.len() + agg_cols.iter().filter(|c| c.is_some()).count()) as u64;
    stats.num_entries_scanned_post_filter += docs * per_doc;

    for (i, ids) in std::mem::take(&mut groups.sets).into_iter().enumerate() {
        let (a, slot) = set_specs[i % nsets];
        ids.drain_into(
            &mut groups.states[i / nsets * naggs + a],
            &uniq[slot].col.dictionary,
        );
    }
    groups
}

/// Batched ungrouped aggregation: SUM/MIN/MAX/COUNT/AVG accumulate
/// decoded id blocks through the typed dictionary; DISTINCTCOUNT gathers
/// ids and materializes values once per distinct id at the end.
pub(crate) fn aggregate_selection_batch(
    aggs: &[AggregateExpr],
    cols: &[Option<&ColumnData>],
    selection: &DocSelection,
    stats: &mut ExecutionStats,
    kstats: &mut KernelStats,
) -> Vec<AggState> {
    let ungrouped = PackedKeyLayout {
        shifts: Vec::new(),
        masks: Vec::new(),
        bits: 0,
    };
    aggregate_blocks(aggs, &[], cols, &ungrouped, selection, stats, kstats).states
}

/// Layout of the packed composite group key: per-column bit offsets and
/// masks inside one u64, and the bits used in total.
pub(crate) struct PackedKeyLayout {
    shifts: Vec<u32>,
    masks: Vec<u64>,
    bits: u32,
}

/// Decide whether the packed-key group-by kernel can serve this query:
/// single-value group columns whose id widths fit one u64. `None` falls
/// back to the `GroupKey` path.
pub(crate) fn group_by_layout(group_cols: &[&ColumnData]) -> Option<PackedKeyLayout> {
    let mut shifts = Vec::with_capacity(group_cols.len());
    let mut masks = Vec::with_capacity(group_cols.len());
    let mut used = 0u32;
    for col in group_cols {
        if !col.forward.is_single_value() {
            return None;
        }
        let max_id = col.dictionary.cardinality().saturating_sub(1) as u32;
        let bits = u32::from(bits_needed(max_id));
        if used + bits > 64 {
            return None; // cardinalities too wide for one u64
        }
        shifts.push(used);
        masks.push(if bits == 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        });
        used += bits;
    }
    Some(PackedKeyLayout {
        shifts,
        masks,
        bits: used,
    })
}

/// Batched single-value group-by: map each doc's packed key to a group
/// (key-indexed or hashed, see [`GroupIndex`]), accumulate per group, and
/// translate keys to `GroupKey`s only once per group at the end.
pub(crate) fn group_by_selection_batch(
    aggs: &[AggregateExpr],
    group_cols: &[&ColumnData],
    agg_cols: &[Option<&ColumnData>],
    layout: &PackedKeyLayout,
    selection: &DocSelection,
    stats: &mut ExecutionStats,
    kstats: &mut KernelStats,
) -> HashMap<GroupKey, Vec<AggState>> {
    let groups = aggregate_blocks(aggs, group_cols, agg_cols, layout, selection, stats, kstats);
    // Late materialization: unpack ids from each composite key and look
    // the group values up once per *group*, not once per doc.
    let mut states = groups.states.into_iter();
    let mut out: HashMap<GroupKey, Vec<AggState>> = HashMap::with_capacity(groups.keys.len());
    for key in groups.keys {
        let group_key: GroupKey = group_cols
            .iter()
            .enumerate()
            .map(|(ci, col)| {
                let id = ((key >> layout.shifts[ci]) & layout.masks[ci]) as DictId;
                GroupValue::from_value(&col.dictionary.value_of(id))
            })
            .collect();
        out.insert(group_key, states.by_ref().take(aggs.len()).collect());
    }
    out
}

/// Can the batched projection kernel serve these columns?
pub(crate) fn select_eligible(cols: &[&ColumnData]) -> bool {
    cols.iter().all(|c| c.forward.is_single_value())
}

/// Batched projection: decode id blocks per column, then translate ids
/// row by row up to the limit.
pub(crate) fn select_rows_batch(
    cols: &[&ColumnData],
    selection: &DocSelection,
    limit: usize,
    stats: &mut ExecutionStats,
    kstats: &mut KernelStats,
) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = Vec::new();
    let mut scratch: Vec<Vec<DictId>> = vec![vec![0; selection.block_scratch()]; cols.len()];
    selection.for_each_block(|block| {
        if rows.len() >= limit {
            return;
        }
        kstats.observe(&block);
        for (col, ids) in cols.iter().zip(&mut scratch) {
            block.decode(&col.forward, ids);
        }
        let take = (limit - rows.len()).min(block.len());
        for row in 0..take {
            rows.push(
                cols.iter()
                    .zip(&scratch)
                    .map(|(col, ids)| col.dictionary.value_of(ids[row]))
                    .collect(),
            );
        }
    });
    stats.num_entries_scanned_post_filter += (rows.len() * cols.len()) as u64;
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_block_converts_like_numeric_of() {
        let dicts = [
            Dictionary::Int(vec![-3, 7, i32::MAX]),
            Dictionary::Long(vec![-(1 << 60) - 1, 0, (1 << 53) + 1]),
            Dictionary::Float(vec![-0.1, 0.3, f32::MAX]),
            Dictionary::Double(vec![-0.0, 0.1, 1e300]),
            Dictionary::Boolean(vec![false, true]),
        ];
        let mut out = Vec::new();
        for dict in &dicts {
            let ids: Vec<DictId> = (0..dict.cardinality() as DictId).rev().collect();
            numeric_block(dict, &ids, &mut out);
            let expected: Vec<u64> = ids
                .iter()
                .map(|&id| dict.numeric_of(id).unwrap().to_bits())
                .collect();
            let got: Vec<u64> = out.iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, expected, "{dict:?}");
        }
        let strings = Dictionary::String(vec!["a".into()]);
        numeric_block(&strings, &[0], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn group_id_set_is_a_list_until_it_outgrows_the_bitset() {
        let card = 64 * 32;
        let mut set = IdSet::sparse();
        set.extend(&[900, 5, 900, 77], card);
        assert!(matches!(set, IdSet::Sparse(_)));
        set.extend(&[1; 60], card); // 64 ids: 2048 bits, the bitset's size
        assert!(matches!(set, IdSet::Sparse(_)));
        let full: Vec<DictId> = (0..card as DictId).step_by(3).collect();
        set.extend(&full, card);
        assert!(matches!(set, IdSet::Dense(_)));
        let mut expected = full.clone();
        expected.extend([1, 5, 77, 900]);
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(set.into_sorted_ids(), expected);

        // A dictionary smaller than one id's bits has no list at all.
        let mut tiny = IdSet::sparse();
        tiny.extend(&[3, 1, 3], 4);
        assert!(matches!(tiny, IdSet::Dense(_)));
        assert_eq!(tiny.into_sorted_ids(), vec![1, 3]);
        let mut whole = IdSet::dense(4);
        whole.extend(&[2, 2], 4);
        assert_eq!(whole.into_sorted_ids(), vec![2]);
    }

    #[test]
    fn group_index_is_key_indexed_only_for_small_key_spaces() {
        let direct = |bits| matches!(GroupIndex::new(bits), GroupIndex::Direct(_));
        assert!(direct(0));
        assert!(direct(DIRECT_KEY_BITS));
        assert!(!direct(DIRECT_KEY_BITS + 1));
        assert!(!direct(64));
    }
}
