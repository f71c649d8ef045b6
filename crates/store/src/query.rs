//! The query engine: projection + predicates + group-by over segments.
//!
//! Queries are compiled from the `hetsched query` flag surface:
//!
//! * `--select campaign,metric,value` — column projection;
//! * `--where "kind=report,metric=makespan,beta>=0"` — conjunctive
//!   predicates (`= != < <= > >=`; strings take `=`/`!=` only); numeric
//!   columns also take range literals, `value=2..5` (half-open) and
//!   `value=2..=5` (inclusive), which desugar to a `>=`/`<`(`<=`) pair;
//! * `--group-by strategy` + `--agg count,mean(value),p95(value)` —
//!   grouped aggregates (`count`, `mean`, `min`, `max`, `sum`, and
//!   nearest-rank `pNN` percentiles, 0 ≤ NN ≤ 100);
//! * `--limit N` — output row cap.
//!
//! A query is planned, then executed. Planning opens every segment once
//! (footers from the store handle's cache) and prunes chunks against the
//! footer zone maps before a single row byte is read; the open handles
//! are held until the query ends, so a compaction that unlinks a segment
//! mid-query cannot hide any of its rows. Open files are bounded by the
//! process's descriptor budget: a segment planned past it has the columns
//! its surviving chunks need read at plan time and its file closed.
//! Execution reads (`pread`) only the column ranges a surviving chunk
//! needs: its *filter* columns first, and the projected/aggregated
//! columns only if some row matched — a chunk that zone-passes but
//! row-fails costs its filter columns, not all.
//!
//! Scans work on the encoded columns. A string predicate becomes a set of
//! the chunk's dictionary ids (`=` finds no id → the chunk is skipped);
//! numeric predicates and aggregates read typed cells; group keys are
//! dictionary ids and raw bits within a chunk, turned into [`Value`]-like
//! keys once per group per chunk.
//!
//! Chunks scan in parallel ([`run_query_with`] takes a thread count;
//! `None` means all cores). Each chunk produces a partial result —
//! per-group `(count, sum, min, max, value-buffer)` states — and partials
//! merge in (segment-name, chunk) order, so output is **byte-identical at
//! any thread count**: sums associate per chunk then across chunks in one
//! fixed order, percentile buffers concatenate in chunk order before the
//! final sort. NaN cells match no predicate and are skipped by every
//! aggregate except `count`, mirroring SQL NULL. Group keys sort with a
//! total order (NaN groups last), and ungrouped scans emit rows in
//! segment-name/chunk/row order, so output is deterministic — the golden
//! byte-stability tests in the CLI and `tests/store_parallel.rs` pin this.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};

use hetsched_util::parallel_map;

use crate::column::ColumnData;
use crate::schema::{column_index, ColumnType, Value, COLUMNS};
use crate::segment::{ChunkMeta, FdBudget, Segment, SegmentMeta, DESCRIPTORS};
use crate::store::Store;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

#[derive(Clone, Debug)]
pub enum Literal {
    Str(String),
    Num(f64),
}

#[derive(Clone, Debug)]
pub struct Filter {
    pub col: usize,
    pub op: CmpOp,
    pub literal: Literal,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AggFn {
    Count,
    Mean,
    Min,
    Max,
    Sum,
    /// Nearest-rank percentile, 0 ≤ p ≤ 100 (`p0` = min, `p100` = max).
    Percentile(f64),
}

#[derive(Clone, Debug)]
pub struct Agg {
    pub func: AggFn,
    /// Aggregated column; `None` only for `count`.
    pub col: Option<usize>,
    /// Output header label, e.g. `mean(value)`.
    pub label: String,
}

#[derive(Clone, Debug, Default)]
pub struct Query {
    /// Projected columns (ignored when aggregating).
    pub select: Vec<usize>,
    pub filters: Vec<Filter>,
    pub group_by: Vec<usize>,
    pub aggs: Vec<Agg>,
    pub limit: Option<usize>,
}

/// Compiles the CLI flag surface into a [`Query`].
pub fn build_query(
    select: Option<&str>,
    where_: Option<&str>,
    group_by: Option<&str>,
    agg: Option<&str>,
    limit: Option<usize>,
) -> Result<Query, String> {
    let mut q = Query {
        limit,
        ..Default::default()
    };
    if let Some(s) = select {
        for name in s.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            q.select.push(column_index(name)?);
        }
    }
    if let Some(s) = where_ {
        q.filters = parse_filters(s)?;
    }
    if let Some(s) = group_by {
        for name in s.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            q.group_by.push(column_index(name)?);
        }
    }
    if let Some(s) = agg {
        q.aggs = parse_aggs(s)?;
    }
    if !q.group_by.is_empty() && q.aggs.is_empty() {
        q.aggs = vec![Agg {
            func: AggFn::Count,
            col: None,
            label: "count".to_string(),
        }];
    }
    Ok(q)
}

/// Parses a comma-separated predicate list: `col op literal`, where a
/// numeric literal may be a range `lo..hi` / `lo..=hi` (with `=` only).
pub fn parse_filters(spec: &str) -> Result<Vec<Filter>, String> {
    let mut filters = Vec::new();
    for clause in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let (op, op_text, split_at) = ["<=", ">=", "!=", "=", "<", ">"]
            .iter()
            .filter_map(|t| clause.find(t).map(|i| (*t, i)))
            .min_by_key(|&(t, i)| (i, std::cmp::Reverse(t.len())))
            .map(|(t, i)| {
                let op = match t {
                    "<=" => CmpOp::Le,
                    ">=" => CmpOp::Ge,
                    "!=" => CmpOp::Ne,
                    "=" => CmpOp::Eq,
                    "<" => CmpOp::Lt,
                    _ => CmpOp::Gt,
                };
                (op, t, i)
            })
            .ok_or_else(|| {
                format!(
                    "malformed predicate {clause:?}: expected <column><op><literal> with op one \
                     of = != < <= > >="
                )
            })?;
        let col_name = clause[..split_at].trim();
        let lit_text = clause[split_at + op_text.len()..].trim();
        let col = column_index(col_name)?;
        if lit_text.is_empty() {
            return Err(format!("malformed predicate {clause:?}: missing literal"));
        }
        if let Some(dots) = lit_text.find("..") {
            // Range literal: `lo..hi` selects lo ≤ x < hi, `lo..=hi`
            // selects lo ≤ x ≤ hi; desugars to two conjunctive filters so
            // zone pruning applies to both bounds.
            if COLUMNS[col].1 == ColumnType::Str {
                return Err(format!(
                    "predicate {clause:?}: range literals apply to numeric columns only \
                     ({col_name:?} is a string column)"
                ));
            }
            if op != CmpOp::Eq {
                return Err(format!(
                    "predicate {clause:?}: range literals take the form {col_name}=lo..hi or \
                     {col_name}=lo..=hi"
                ));
            }
            let lo_text = lit_text[..dots].trim();
            let rest = &lit_text[dots + 2..];
            let (hi_op, hi_text) = match rest.strip_prefix('=') {
                Some(hi) => (CmpOp::Le, hi.trim()),
                None => (CmpOp::Lt, rest.trim()),
            };
            let bound = |text: &str, side: &str| -> Result<f64, String> {
                if text.is_empty() {
                    return Err(format!(
                        "predicate {clause:?}: range literal is missing its {side} bound \
                         (expected lo..hi or lo..=hi)"
                    ));
                }
                text.parse().map_err(|_| {
                    format!("predicate {clause:?}: range {side} bound {text:?} is not a number")
                })
            };
            let lo = bound(lo_text, "lower")?;
            let hi = bound(hi_text, "upper")?;
            filters.push(Filter {
                col,
                op: CmpOp::Ge,
                literal: Literal::Num(lo),
            });
            filters.push(Filter {
                col,
                op: hi_op,
                literal: Literal::Num(hi),
            });
            continue;
        }
        let literal = match COLUMNS[col].1 {
            ColumnType::Str => {
                if !matches!(op, CmpOp::Eq | CmpOp::Ne) {
                    return Err(format!(
                        "predicate {clause:?}: string column {col_name:?} supports only = and !="
                    ));
                }
                Literal::Str(lit_text.trim_matches('"').to_string())
            }
            _ => Literal::Num(lit_text.parse().map_err(|_| {
                format!(
                    "predicate {clause:?}: {lit_text:?} is not a number (column {col_name:?} \
                     is numeric)"
                )
            })?),
        };
        filters.push(Filter { col, op, literal });
    }
    Ok(filters)
}

/// Parses the aggregate list: `count`, `fn(col)` or `fn:col` where fn is
/// `mean|min|max|sum|pNN`.
pub fn parse_aggs(spec: &str) -> Result<Vec<Agg>, String> {
    let mut aggs = Vec::new();
    for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let (fn_name, col_name) = if let Some(open) = item.find('(') {
            let close = item
                .rfind(')')
                .ok_or_else(|| format!("malformed aggregate {item:?}: missing ')'"))?;
            (&item[..open], item[open + 1..close].trim())
        } else if let Some(colon) = item.find(':') {
            (&item[..colon], item[colon + 1..].trim())
        } else {
            (item, "")
        };
        let func = match fn_name {
            "count" => AggFn::Count,
            "mean" => AggFn::Mean,
            "min" => AggFn::Min,
            "max" => AggFn::Max,
            "sum" => AggFn::Sum,
            p if p.starts_with('p') => {
                let pct: f64 = p[1..].parse().map_err(|_| {
                    format!(
                        "unknown aggregate {fn_name:?} (expected count, mean, min, max, sum, \
                         or pNN)"
                    )
                })?;
                // NaN must fail too, so the contains form (never true for
                // NaN) is exactly right.
                if !(0.0..=100.0).contains(&pct) {
                    return Err(format!(
                        "percentile {fn_name:?} outside [0, 100] (p0 is the minimum, p100 the \
                         maximum)"
                    ));
                }
                AggFn::Percentile(pct)
            }
            other => {
                return Err(format!(
                    "unknown aggregate {other:?} (expected count, mean, min, max, sum, or pNN)"
                ))
            }
        };
        let col = if func == AggFn::Count && col_name.is_empty() {
            None
        } else {
            if col_name.is_empty() {
                return Err(format!(
                    "aggregate {item:?} needs a column, e.g. {fn_name}(value)"
                ));
            }
            let idx = column_index(col_name)?;
            if COLUMNS[idx].1 == ColumnType::Str && func != AggFn::Count {
                return Err(format!(
                    "aggregate {item:?}: cannot aggregate string column {col_name:?}"
                ));
            }
            Some(idx)
        };
        let label = match col {
            Some(idx) => format!("{fn_name}({})", COLUMNS[idx].0),
            None => "count".to_string(),
        };
        aggs.push(Agg { func, col, label });
    }
    Ok(aggs)
}

/// A totally ordered group-key cell: NaN sorts after every number.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Key {
    Str(String),
    U64(u64),
    I64(i64),
    F64(TotalF64),
}

#[derive(Clone, Copy, Debug)]
struct TotalF64(f64);

impl PartialEq for TotalF64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == std::cmp::Ordering::Equal
    }
}
impl Eq for TotalF64 {}
impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The group key of cell `i`.
fn key_at(col: &ColumnData, i: usize) -> Key {
    match col {
        ColumnData::Str(s) => Key::Str(s.get(i).to_string()),
        ColumnData::U64(v) => Key::U64(v[i]),
        ColumnData::I64(v) => Key::I64(v[i]),
        ColumnData::F64(v) => Key::F64(TotalF64(v[i])),
    }
}

/// Cell `i` as a chunk-local key code: equal codes in one chunk mean
/// equal [`Key`]s. Strings code as dictionary ids (entries are distinct
/// within a chunk), floats as bits (the [`TotalF64`] equality).
fn code_at(col: &ColumnData, i: usize) -> u64 {
    match col {
        ColumnData::Str(s) => u64::from(s.ids[i]),
        ColumnData::U64(v) => v[i],
        ColumnData::I64(v) => v[i] as u64,
        ColumnData::F64(v) => v[i].to_bits(),
    }
}

fn key_value(k: &Key) -> Value {
    match k {
        Key::Str(s) => Value::Str(s.clone()),
        Key::U64(x) => Value::U64(*x),
        Key::I64(x) => Value::I64(*x),
        Key::F64(x) => Value::F64(x.0),
    }
}

/// Materialized query output.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryResult {
    pub header: Vec<String>,
    pub rows: Vec<Vec<Value>>,
}

impl QueryResult {
    pub fn to_csv(&self) -> String {
        let mut out = self.header.join(",");
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(Value::render_csv).collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            out.push('{');
            for (i, (name, v)) in self.header.iter().zip(row).enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\"{}\":{}",
                    hetsched_util::json::json_escape(name),
                    v.render_json()
                ));
            }
            out.push_str("}\n");
        }
        out
    }
}

/// True when the number `x` satisfies `op lit`. NaN matches nothing.
fn num_matches(x: f64, op: CmpOp, lit: f64) -> bool {
    if x.is_nan() {
        return false;
    }
    match op {
        CmpOp::Eq => x == lit,
        CmpOp::Ne => x != lit,
        CmpOp::Lt => x < lit,
        CmpOp::Le => x <= lit,
        CmpOp::Gt => x > lit,
        CmpOp::Ge => x >= lit,
    }
}

/// Keeps the rows of `sel` whose cell in `col` satisfies `op literal`.
/// A string literal turns into the set of dictionary ids it admits.
fn retain_matching(col: &ColumnData, op: CmpOp, literal: &Literal, sel: &mut Vec<u32>) {
    match (col, literal) {
        (ColumnData::Str(s), Literal::Str(lit)) => {
            let admits: Vec<bool> = s
                .dict
                .iter()
                .map(|e| match op {
                    CmpOp::Eq => e == lit,
                    CmpOp::Ne => e != lit,
                    _ => false,
                })
                .collect();
            if !admits.contains(&true) {
                sel.clear();
            }
            sel.retain(|&i| admits[s.ids[i as usize] as usize]);
        }
        (ColumnData::U64(v), Literal::Num(lit)) => {
            sel.retain(|&i| num_matches(v[i as usize] as f64, op, *lit))
        }
        (ColumnData::I64(v), Literal::Num(lit)) => {
            sel.retain(|&i| num_matches(v[i as usize] as f64, op, *lit))
        }
        (ColumnData::F64(v), Literal::Num(lit)) => {
            sel.retain(|&i| num_matches(v[i as usize], op, *lit))
        }
        _ => sel.clear(),
    }
}

/// Can any row in a chunk with numeric zone `(lo, hi)` satisfy the
/// predicate? Conservative: NaN rows (excluded from the zone) never
/// match, so zone-only reasoning is sound.
fn zone_admits(zone: (f64, f64), op: CmpOp, lit: f64) -> bool {
    let (lo, hi) = zone;
    match op {
        CmpOp::Eq => lo <= lit && lit <= hi,
        CmpOp::Ne => !(lo == lit && hi == lit),
        CmpOp::Lt => lo < lit,
        CmpOp::Le => lo <= lit,
        CmpOp::Gt => hi > lit,
        CmpOp::Ge => hi >= lit,
    }
}

/// One aggregate's mergeable partial state. Every scan — single- or
/// multi-threaded — goes through these states per chunk, then merges
/// chunk partials in (segment, chunk) order, so float associativity is
/// fixed by the data layout, never by the thread count.
#[derive(Clone, Debug)]
enum AggState {
    /// `count`: matching cells (rows, for the bare `count`).
    Count(u64),
    /// `mean` and `sum`: running sum plus the non-NaN cell count.
    Sum { sum: f64, n: u64 },
    /// `min`: NaN while empty.
    Min(f64),
    /// `max`: NaN while empty.
    Max(f64),
    /// `pNN`: the cells themselves, in scan order.
    Values(Vec<f64>),
}

impl AggState {
    fn new(func: AggFn) -> AggState {
        match func {
            AggFn::Count => AggState::Count(0),
            AggFn::Mean | AggFn::Sum => AggState::Sum { sum: 0.0, n: 0 },
            AggFn::Min => AggState::Min(f64::NAN),
            AggFn::Max => AggState::Max(f64::NAN),
            AggFn::Percentile(_) => AggState::Values(Vec::new()),
        }
    }

    /// Adds `xs`, in order.
    fn extend(&mut self, xs: impl Iterator<Item = f64>) {
        match self {
            AggState::Count(n) => *n += xs.count() as u64,
            AggState::Sum { sum, n } => {
                for x in xs {
                    *sum += x;
                    *n += 1;
                }
            }
            AggState::Min(m) => {
                for x in xs {
                    *m = if m.is_nan() { x } else { m.min(x) };
                }
            }
            AggState::Max(m) => {
                for x in xs {
                    *m = if m.is_nan() { x } else { m.max(x) };
                }
            }
            AggState::Values(v) => v.extend(xs),
        }
    }

    /// Folds `other` (a later chunk's partial) into `self`. Callers merge
    /// in chunk order, which [`AggState::Values`] relies on.
    fn merge(&mut self, other: AggState) {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::Sum { sum, n }, AggState::Sum { sum: s2, n: n2 }) => {
                *sum += s2;
                *n += n2;
            }
            (AggState::Min(a), AggState::Min(b)) => {
                if !b.is_nan() {
                    *a = if a.is_nan() { b } else { a.min(b) };
                }
            }
            (AggState::Max(a), AggState::Max(b)) => {
                if !b.is_nan() {
                    *a = if a.is_nan() { b } else { a.max(b) };
                }
            }
            (AggState::Values(a), AggState::Values(b)) => a.extend(b),
            _ => unreachable!("merging partials of different aggregate kinds"),
        }
    }

    fn finish(self, func: AggFn) -> f64 {
        match (func, self) {
            (_, AggState::Count(n)) => n as f64,
            (AggFn::Mean, AggState::Sum { sum, n }) => {
                if n == 0 {
                    f64::NAN
                } else {
                    sum / n as f64
                }
            }
            (_, AggState::Sum { sum, .. }) => sum,
            (_, AggState::Min(m)) | (_, AggState::Max(m)) => m,
            (AggFn::Percentile(p), AggState::Values(mut values)) => {
                if values.is_empty() {
                    return f64::NAN;
                }
                values.sort_by(f64::total_cmp);
                let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
                values[rank.max(1) - 1]
            }
            _ => unreachable!("aggregate state does not match its function"),
        }
    }
}

/// One chunk's scan output: group partials (in order of each group's
/// first row) when aggregating, projected rows otherwise. `None` from
/// [`Plan::scan_chunk`] means no row of the chunk matched.
struct ChunkScan {
    groups: Vec<(Vec<Key>, Vec<AggState>)>,
    rows: Vec<Vec<Value>>,
}

/// Adds `cell(i)` of each selected row `i` to aggregate `a` of the row's
/// group, in row order. `runs` holds `(first position in sel, group)` of
/// each run of adjacent rows in one group. NaN cells reach only `count`.
fn fold(
    groups: &mut [(Vec<Key>, Vec<AggState>)],
    a: usize,
    func: AggFn,
    sel: &[u32],
    runs: &[(usize, usize)],
    cell: impl Fn(usize) -> f64,
) {
    for (r, &(start, slot)) in runs.iter().enumerate() {
        let end = runs.get(r + 1).map_or(sel.len(), |next| next.0);
        let cells = sel[start..end].iter().map(|&i| cell(i as usize));
        let state = &mut groups[slot].1[a];
        if func == AggFn::Count {
            state.extend(cells);
        } else {
            state.extend(cells.filter(|x| !x.is_nan()));
        }
    }
}

/// A query bound to the segments it will read: the open handles (held
/// until the plan is dropped) and the chunks that survived zone pruning.
pub(crate) struct Plan<'q> {
    q: &'q Query,
    grouped: bool,
    /// Projected columns of an ungrouped query.
    select: Vec<usize>,
    /// Read first; they decide which rows survive.
    filter_cols: Vec<usize>,
    /// Read only for chunks where some row survived.
    body_cols: Vec<usize>,
    segments: Vec<Segment>,
    /// `(segment, chunk)` in segment-name/chunk order — the merge order.
    work: Vec<(usize, usize)>,
}

/// Plans `q` over the current segments of `store`. Numeric predicates
/// prune chunks against the footer zone maps here, before any row data
/// is read.
pub(crate) fn plan<'q>(store: &Store, q: &'q Query) -> Result<Plan<'q>, String> {
    plan_with(store, q, &DESCRIPTORS)
}

/// [`plan`], holding open only the segment files `budget` allows. A
/// segment past it has the columns its surviving chunks need read now.
pub(crate) fn plan_with<'q>(
    store: &Store,
    q: &'q Query,
    budget: &'static FdBudget,
) -> Result<Plan<'q>, String> {
    let grouped = !q.aggs.is_empty();
    let select: Vec<usize> = if grouped {
        Vec::new()
    } else if q.select.is_empty() {
        (0..COLUMNS.len()).collect()
    } else {
        q.select.clone()
    };
    let mut filter_cols: Vec<usize> = Vec::new();
    for f in &q.filters {
        if !filter_cols.contains(&f.col) {
            filter_cols.push(f.col);
        }
    }
    let mut body_cols: Vec<usize> = Vec::new();
    let agg_cols = q.aggs.iter().filter_map(|a| a.col);
    for c in q.group_by.iter().chain(&select).copied().chain(agg_cols) {
        if !filter_cols.contains(&c) && !body_cols.contains(&c) {
            body_cols.push(c);
        }
    }

    let admitted = |chunk: &ChunkMeta| {
        q.filters
            .iter()
            .all(|f| match (&f.literal, chunk.cols[f.col].zone) {
                (Literal::Num(lit), Some(zone)) => zone_admits(zone, f.op, *lit),
                _ => true,
            })
    };
    let needed = |meta: &SegmentMeta| -> Vec<(usize, usize)> {
        let cols = filter_cols.iter().chain(&body_cols);
        meta.chunks
            .iter()
            .filter(|chunk| admitted(chunk))
            .flat_map(|chunk| {
                cols.clone()
                    .map(|&c| (chunk.cols[c].offset, chunk.cols[c].len))
            })
            .collect()
    };
    let paths = store
        .segment_paths()
        .map_err(|e| format!("cannot list store {}: {e}", store.dir().display()))?;
    let mut segments = Vec::new();
    let mut work = Vec::new();
    // Paths sort by name, so the work list — the merge order — is a pure
    // function of the store contents. A segment that vanished since the
    // listing was compacted away; its rows are in the merged segment.
    for path in &paths {
        let Some(seg) = store.open_segment_with(path, budget, needed)? else {
            continue;
        };
        let before = work.len();
        for (c, chunk) in seg.meta.chunks.iter().enumerate() {
            if admitted(chunk) {
                work.push((segments.len(), c));
            }
        }
        // A fully pruned segment's handle is not needed.
        if work.len() > before {
            segments.push(seg);
        }
    }
    Ok(Plan {
        q,
        grouped,
        select,
        filter_cols,
        body_cols,
        segments,
        work,
    })
}

impl Plan<'_> {
    fn scan_chunk(&self, (s, c): (usize, usize)) -> Result<Option<ChunkScan>, String> {
        let (q, seg) = (self.q, &self.segments[s]);
        let mut cols: Vec<Option<ColumnData>> = (0..COLUMNS.len()).map(|_| None).collect();
        let mut sel: Vec<u32> = (0..seg.meta.chunks[c].rows as u32).collect();
        for &idx in &self.filter_cols {
            let col = seg.read_chunk_column(c, idx)?;
            for f in q.filters.iter().filter(|f| f.col == idx) {
                retain_matching(&col, f.op, &f.literal, &mut sel);
            }
            if sel.is_empty() {
                return Ok(None);
            }
            cols[idx] = Some(col);
        }
        for &idx in &self.body_cols {
            cols[idx] = Some(seg.read_chunk_column(c, idx)?);
        }
        let col = |idx: usize| cols[idx].as_ref().expect("column read above");

        if !self.grouped {
            let rows = sel
                .iter()
                .map(|&i| {
                    self.select
                        .iter()
                        .map(|&c| col(c).value(i as usize))
                        .collect()
                })
                .collect();
            return Ok(Some(ChunkScan {
                groups: Vec::new(),
                rows,
            }));
        }

        // Split the selected rows into runs of adjacent rows with equal
        // keys (rows of one group tend to be adjacent), and find each
        // run's group slot.
        let key_cols: Vec<&ColumnData> = q.group_by.iter().map(|&c| col(c)).collect();
        let same_key = |a: u32, b: u32| {
            let (a, b) = (a as usize, b as usize);
            key_cols.iter().all(|c| code_at(c, a) == code_at(c, b))
        };
        let mut slot_of: HashMap<Vec<u64>, usize> = HashMap::new();
        let mut groups: Vec<(Vec<Key>, Vec<AggState>)> = Vec::new();
        let (mut runs, mut code) = (Vec::new(), Vec::new());
        for (k, &i) in sel.iter().enumerate() {
            if k > 0 && same_key(sel[k - 1], i) {
                continue;
            }
            let i = i as usize;
            code.clear();
            code.extend(key_cols.iter().map(|c| code_at(c, i)));
            let slot = match slot_of.get(&code) {
                Some(&slot) => slot,
                None => {
                    let key = key_cols.iter().map(|c| key_at(c, i)).collect();
                    let states = q.aggs.iter().map(|a| AggState::new(a.func)).collect();
                    groups.push((key, states));
                    slot_of.insert(code.clone(), groups.len() - 1);
                    groups.len() - 1
                }
            };
            runs.push((k, slot));
        }

        // Aggregates fold one typed column at a time, rows in order.
        for (a, agg) in q.aggs.iter().enumerate() {
            let (f, groups) = (agg.func, &mut groups);
            match agg.col.map(col) {
                None => fold(groups, a, f, &sel, &runs, |_| 1.0),
                // A string column has no numeric view: `count(col)` over
                // one counts no cells.
                Some(ColumnData::Str(_)) => {}
                Some(ColumnData::U64(v)) => fold(groups, a, f, &sel, &runs, |i| v[i] as f64),
                Some(ColumnData::I64(v)) => fold(groups, a, f, &sel, &runs, |i| v[i] as f64),
                Some(ColumnData::F64(v)) => fold(groups, a, f, &sel, &runs, |i| v[i]),
            }
        }
        Ok(Some(ChunkScan {
            groups,
            rows: Vec::new(),
        }))
    }

    /// Scans the planned chunks on `threads` threads (`None` = all cores)
    /// and merges their partials in work-list order.
    pub(crate) fn execute(&self, threads: Option<usize>) -> Result<QueryResult, String> {
        let q = self.q;
        if !self.grouped {
            let header: Vec<String> = self
                .select
                .iter()
                .map(|&c| COLUMNS[c].0.to_string())
                .collect();
            let mut rows: Vec<Vec<Value>> = Vec::new();
            if let Some(limit) = q.limit {
                // Serial with early exit: the parallel scan would decode
                // every chunk to keep the first `limit` rows of the full
                // result — same bytes, wasted work.
                for &item in &self.work {
                    if rows.len() >= limit {
                        break;
                    }
                    if let Some(chunk) = self.scan_chunk(item)? {
                        rows.extend(chunk.rows);
                    }
                }
                rows.truncate(limit);
            } else {
                for partial in parallel_map(&self.work, threads, |_, &item| self.scan_chunk(item)) {
                    if let Some(chunk) = partial? {
                        rows.extend(chunk.rows);
                    }
                }
            }
            return Ok(QueryResult { header, rows });
        }

        let mut groups: BTreeMap<Vec<Key>, Vec<AggState>> = BTreeMap::new();
        // Deterministic merge: partials come back in work-list order
        // whatever the thread count (parallel_map preserves slot order).
        for partial in parallel_map(&self.work, threads, |_, &item| self.scan_chunk(item)) {
            let Some(chunk) = partial? else { continue };
            for (key, states) in chunk.groups {
                match groups.entry(key) {
                    Entry::Vacant(e) => {
                        e.insert(states);
                    }
                    Entry::Occupied(mut e) => {
                        for (acc, state) in e.get_mut().iter_mut().zip(states) {
                            acc.merge(state);
                        }
                    }
                }
            }
        }

        let mut header: Vec<String> = q
            .group_by
            .iter()
            .map(|&c| COLUMNS[c].0.to_string())
            .collect();
        header.extend(q.aggs.iter().map(|a| a.label.clone()));
        // A global aggregate over zero matching rows still reports one row.
        if q.group_by.is_empty() && groups.is_empty() {
            groups.insert(
                Vec::new(),
                q.aggs.iter().map(|a| AggState::new(a.func)).collect(),
            );
        }
        let mut rows = Vec::with_capacity(groups.len());
        for (key, states) in groups {
            let mut row: Vec<Value> = key.iter().map(key_value).collect();
            for (agg, state) in q.aggs.iter().zip(states) {
                row.push(Value::F64(state.finish(agg.func)));
            }
            rows.push(row);
        }
        if let Some(limit) = q.limit {
            rows.truncate(limit);
        }
        Ok(QueryResult { header, rows })
    }
}

/// Runs `q` over every segment of `store`, scanning chunks on all cores.
pub fn run_query(store: &Store, q: &Query) -> Result<QueryResult, String> {
    run_query_with(store, q, None)
}

/// Runs `q` with an explicit scan-thread count (`None` = all cores,
/// `Some(1)` = serial). Output is byte-identical at any thread count.
pub fn run_query_with(
    store: &Store,
    q: &Query,
    threads: Option<usize>,
) -> Result<QueryResult, String> {
    plan(store, q)?.execute(threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Row;
    use crate::segment::CHUNK_ROWS;

    fn test_store(tag: &str, rows: Vec<Row>) -> (Store, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("hsc-query-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = Store::open(&dir).unwrap();
        let mut b = store.batch();
        b.push_all(rows);
        b.commit().unwrap();
        (store, dir)
    }

    fn report(strategy: &str, metric: &str, value: f64, beta: f64) -> Row {
        let mut r = Row::new("c", "r", "report", "cfg0");
        r.strategy = strategy.to_string();
        r.metric = metric.to_string();
        r.value = value;
        r.beta = beta;
        r
    }

    #[test]
    fn filter_parse_errors_are_contextful() {
        assert!(parse_filters("kind=report").is_ok());
        let err = parse_filters("bogus=1").unwrap_err();
        assert!(err.contains("unknown column"), "{err}");
        let err = parse_filters("value~1").unwrap_err();
        assert!(err.contains("malformed predicate"), "{err}");
        let err = parse_filters("value=abc").unwrap_err();
        assert!(err.contains("not a number"), "{err}");
        let err = parse_filters("kind<x").unwrap_err();
        assert!(err.contains("supports only"), "{err}");
    }

    #[test]
    fn range_literals_desugar_to_bound_pairs() {
        let f = parse_filters("value=2..5").unwrap();
        assert_eq!(f.len(), 2);
        assert_eq!((f[0].col, f[0].op), (15, CmpOp::Ge));
        assert_eq!((f[1].col, f[1].op), (15, CmpOp::Lt));
        assert!(matches!(f[0].literal, Literal::Num(lo) if lo == 2.0));
        assert!(matches!(f[1].literal, Literal::Num(hi) if hi == 5.0));

        let f = parse_filters("value=-2.5..=5").unwrap();
        assert_eq!(f[1].op, CmpOp::Le);
        assert!(matches!(f[0].literal, Literal::Num(lo) if lo == -2.5));

        let err = parse_filters("kind=a..b").unwrap_err();
        assert!(err.contains("numeric columns only"), "{err}");
        let err = parse_filters("value>=1..5").unwrap_err();
        assert!(err.contains("lo..hi"), "{err}");
        let err = parse_filters("value=1..").unwrap_err();
        assert!(err.contains("upper bound"), "{err}");
        let err = parse_filters("value=..5").unwrap_err();
        assert!(err.contains("lower bound"), "{err}");
        let err = parse_filters("value=x..5").unwrap_err();
        assert!(err.contains("not a number"), "{err}");
    }

    #[test]
    fn range_predicates_evaluate_half_open_and_inclusive() {
        let rows = (1..=6)
            .map(|i| report("D", "m", i as f64, f64::NAN))
            .collect();
        let (store, dir) = test_store("range", rows);
        let q = build_query(Some("value"), Some("value=2..5"), None, None, None).unwrap();
        let res = run_query(&store, &q).unwrap();
        assert_eq!(res.to_csv(), "value\n2\n3\n4\n");
        let q = build_query(Some("value"), Some("value=2..=5"), None, None, None).unwrap();
        let res = run_query(&store, &q).unwrap();
        assert_eq!(res.to_csv(), "value\n2\n3\n4\n5\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zone_admits_each_operator() {
        let zone = (2.0, 5.0);
        assert!(zone_admits(zone, CmpOp::Eq, 2.0));
        assert!(zone_admits(zone, CmpOp::Eq, 5.0));
        assert!(!zone_admits(zone, CmpOp::Eq, 1.0));
        assert!(!zone_admits(zone, CmpOp::Eq, 6.0));
        assert!(zone_admits(zone, CmpOp::Ne, 3.0));
        assert!(!zone_admits((4.0, 4.0), CmpOp::Ne, 4.0));
        assert!(zone_admits(zone, CmpOp::Lt, 2.5));
        assert!(!zone_admits(zone, CmpOp::Lt, 2.0));
        assert!(zone_admits(zone, CmpOp::Le, 2.0));
        assert!(!zone_admits(zone, CmpOp::Le, 1.9));
        assert!(zone_admits(zone, CmpOp::Gt, 4.5));
        assert!(!zone_admits(zone, CmpOp::Gt, 5.0));
        assert!(zone_admits(zone, CmpOp::Ge, 5.0));
        assert!(!zone_admits(zone, CmpOp::Ge, 5.1));
    }

    #[test]
    fn agg_parse_both_syntaxes() {
        let aggs = parse_aggs("count,mean(value),p95:t,max(beta)").unwrap();
        assert_eq!(aggs.len(), 4);
        assert_eq!(aggs[0].label, "count");
        assert_eq!(aggs[1].label, "mean(value)");
        assert_eq!(aggs[2].func, AggFn::Percentile(95.0));
        assert_eq!(aggs[2].label, "p95(t)");
        assert!(parse_aggs("median(value)").is_err());
        assert!(parse_aggs("mean(kind)").is_err());
        assert!(parse_aggs("p200(value)").is_err());
    }

    #[test]
    fn percentile_bounds_are_validated() {
        // Endpoints are legal: p0 = min, p100 = max.
        let (store, dir) = test_store(
            "pbounds",
            (1..=10)
                .map(|i| report("D", "m", i as f64, f64::NAN))
                .collect(),
        );
        let q = build_query(None, None, None, Some("p0(value),p100(value)"), None).unwrap();
        let res = run_query(&store, &q).unwrap();
        assert_eq!(res.rows[0][0], Value::F64(1.0));
        assert_eq!(res.rows[0][1], Value::F64(10.0));
        std::fs::remove_dir_all(&dir).ok();

        for bad in ["p101(value)", "p-0.5(value)", "pNaN(value)"] {
            let err = parse_aggs(bad).unwrap_err();
            assert!(err.contains("[0, 100]"), "{bad}: {err}");
        }
    }

    #[test]
    fn projection_and_predicates() {
        let rows = vec![
            report("Dynamic", "makespan", 10.0, f64::NAN),
            report("Dynamic", "makespan", 12.0, f64::NAN),
            report("Random", "makespan", 20.0, f64::NAN),
            report("Random", "blocks", 99.0, f64::NAN),
        ];
        let (store, dir) = test_store("proj", rows);
        let q = build_query(
            Some("strategy,value"),
            Some("metric=makespan,value>=12"),
            None,
            None,
            None,
        )
        .unwrap();
        let res = run_query(&store, &q).unwrap();
        assert_eq!(res.header, vec!["strategy", "value"]);
        assert_eq!(res.rows.len(), 2);
        assert_eq!(res.to_csv(), "strategy,value\nDynamic,12\nRandom,20\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_by_aggregates_and_percentiles() {
        let mut rows = Vec::new();
        for i in 1..=100 {
            rows.push(report("Dynamic", "makespan", i as f64, f64::NAN));
        }
        rows.push(report("Random", "makespan", 1000.0, f64::NAN));
        let (store, dir) = test_store("group", rows);
        let q = build_query(
            None,
            Some("metric=makespan"),
            Some("strategy"),
            Some("count,mean(value),p50(value),p95(value),min(value),max(value)"),
            None,
        )
        .unwrap();
        let res = run_query(&store, &q).unwrap();
        assert_eq!(res.rows.len(), 2);
        // BTreeMap ordering: "Dynamic" < "Random".
        assert_eq!(res.rows[0][0], Value::Str("Dynamic".into()));
        assert_eq!(res.rows[0][1], Value::F64(100.0)); // count
        assert_eq!(res.rows[0][2], Value::F64(50.5)); // mean
        assert_eq!(res.rows[0][3], Value::F64(50.0)); // p50 nearest-rank
        assert_eq!(res.rows[0][4], Value::F64(95.0)); // p95
        assert_eq!(res.rows[0][5], Value::F64(1.0));
        assert_eq!(res.rows[0][6], Value::F64(100.0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn thread_count_does_not_change_output_bytes() {
        // Several segments (one per batch) so the work list has real
        // parallel structure, with group keys interleaved across them.
        let dir = std::env::temp_dir().join(format!("hsc-query-mt-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = Store::open(&dir).unwrap();
        for s in 0..6 {
            let mut b = store.batch();
            for i in 0..40 {
                let strat = if (s + i) % 2 == 0 {
                    "Dynamic"
                } else {
                    "Random"
                };
                let mut r = report(strat, "makespan", (s * 40 + i) as f64 * 0.1, f64::NAN);
                r.run = format!("r{s}");
                b.push(r);
            }
            b.commit().unwrap();
        }
        let grouped = build_query(
            None,
            Some("metric=makespan"),
            Some("strategy"),
            Some("count,mean(value),sum(value),p50(value),min(value),max(value)"),
            None,
        )
        .unwrap();
        let plain = build_query(Some("run,value"), Some("value>=2"), None, None, None).unwrap();
        for q in [&grouped, &plain] {
            let base = run_query_with(&store, q, Some(1)).unwrap();
            for threads in [2, 3, 8] {
                let res = run_query_with(&store, q, Some(threads)).unwrap();
                assert_eq!(
                    res.to_csv(),
                    base.to_csv(),
                    "CSV must be byte-identical at {threads} threads"
                );
                assert_eq!(res.to_jsonl(), base.to_jsonl());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn nan_matches_no_predicate_and_skips_means() {
        let rows = vec![
            report("D", "m", f64::NAN, f64::NAN),
            report("D", "m", 4.0, f64::NAN),
        ];
        let (store, dir) = test_store("nan", rows);
        let q = build_query(None, Some("value>=0"), None, None, None).unwrap();
        assert_eq!(run_query(&store, &q).unwrap().rows.len(), 1);
        let q = build_query(
            None,
            None,
            Some("strategy"),
            Some("count,mean(value)"),
            None,
        )
        .unwrap();
        let res = run_query(&store, &q).unwrap();
        assert_eq!(res.rows[0][1], Value::F64(2.0), "count includes NaN rows");
        assert_eq!(res.rows[0][2], Value::F64(4.0), "mean skips NaN");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn global_aggregate_and_empty_store() {
        let (store, dir) = test_store("glob", vec![report("D", "m", 2.0, f64::NAN)]);
        let q = build_query(None, None, None, Some("count,sum(value)"), None).unwrap();
        let res = run_query(&store, &q).unwrap();
        assert_eq!(res.rows, vec![vec![Value::F64(1.0), Value::F64(2.0)]]);
        std::fs::remove_dir_all(&dir).ok();

        let empty_dir = std::env::temp_dir().join(format!("hsc-query-none-{}", std::process::id()));
        std::fs::remove_dir_all(&empty_dir).ok();
        let empty = Store::open(&empty_dir).unwrap();
        let res = run_query(&empty, &q).unwrap();
        assert_eq!(res.rows[0][0], Value::F64(0.0));
        assert_eq!(res.rows[0][1], Value::F64(0.0), "sum over nothing is 0");
        let plain = build_query(None, None, None, None, None).unwrap();
        assert!(run_query(&empty, &plain).unwrap().rows.is_empty());
        std::fs::remove_dir_all(&empty_dir).ok();
    }

    #[test]
    fn limit_and_jsonl_rendering() {
        let rows = vec![
            report("D", "m", 1.0, f64::NAN),
            report("D", "m", 2.0, f64::NAN),
            report("D", "m", 3.0, f64::NAN),
        ];
        let (store, dir) = test_store("limit", rows);
        let q = build_query(Some("metric,value,beta"), None, None, None, Some(2)).unwrap();
        let res = run_query(&store, &q).unwrap();
        assert_eq!(res.rows.len(), 2);
        assert_eq!(
            res.to_jsonl(),
            "{\"metric\":\"m\",\"value\":1,\"beta\":null}\n{\"metric\":\"m\",\"value\":2,\"beta\":null}\n"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_planned_query_reads_a_segment_unlinked_before_the_scan() {
        // A multi-chunk segment plus a small one.
        let rows = (0..CHUNK_ROWS + 100)
            .map(|i| report(["D", "R"][i % 2], "m", (i % 10) as f64, f64::NAN))
            .collect();
        let (store, dir) = test_store("snapshot", rows);
        let mut b = store.batch();
        b.push(report("S", "m", 1.0, f64::NAN));
        b.commit().unwrap();
        let big = store
            .segment_paths()
            .unwrap()
            .into_iter()
            .find(|p| Segment::open(p).unwrap().meta.chunks.len() == 2)
            .unwrap();

        let q = build_query(None, None, Some("strategy"), Some("count,sum(value)"), None).unwrap();
        let planned = plan(&store, &q).unwrap();
        std::fs::remove_file(&big).unwrap();
        let csv = planned.execute(Some(2)).unwrap().to_csv();
        let half = (CHUNK_ROWS + 100) / 2;
        assert_eq!(
            csv,
            format!(
                "strategy,count,sum(value)\nD,{half},{}\nR,{half},{}\nS,1,1\n",
                (0..CHUNK_ROWS + 100)
                    .step_by(2)
                    .map(|i| (i % 10) as f64)
                    .sum::<f64>(),
                (1..CHUNK_ROWS + 100)
                    .step_by(2)
                    .map(|i| (i % 10) as f64)
                    .sum::<f64>()
            )
        );
        // A query planned after the unlink no longer sees those rows.
        let after = run_query(&store, &q).unwrap().to_csv();
        assert_eq!(after, "strategy,count,sum(value)\nS,1,1\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_plan_past_the_descriptor_budget_reads_its_chunks_ahead() {
        static NONE: FdBudget = FdBudget::new(|| 0);
        static TWO: FdBudget = FdBudget::new(|| 2);
        let queries = [
            build_query(
                None,
                Some("value>=3"),
                Some("strategy"),
                Some("count,sum(value)"),
                None,
            ),
            build_query(
                Some("strategy,value"),
                Some("value=8..9,kind=report"),
                None,
                None,
                None,
            ),
        ]
        .map(Result::unwrap);
        for (cap, budget) in [(0, &NONE), (2, &TWO)] {
            // A 2-chunk segment plus four small ones. The first query
            // keeps two segments, the second one, so both caps are
            // exceeded and the 2-chunk segment is read ahead under each.
            let rows = (0..CHUNK_ROWS + 100)
                .map(|i| report(["D", "R"][i % 2], "m", (i % 10) as f64, f64::NAN))
                .collect();
            let (store, dir) = test_store(&format!("budget-{cap}"), rows);
            for v in 0..4 {
                let mut b = store.batch();
                b.push(report("S", "m", f64::from(v), f64::NAN));
                b.commit().unwrap();
            }
            let want: Vec<String> = queries
                .iter()
                .map(|q| run_query(&store, q).unwrap().to_csv())
                .collect();

            let planned: Vec<Plan> = queries
                .iter()
                .map(|q| plan_with(&store, q, budget).unwrap())
                .collect();
            let segments: Vec<&Segment> = planned.iter().flat_map(|p| &p.segments).collect();
            let held = segments.iter().filter(|s| s.holds_file()).count();
            assert_eq!((segments.len(), held, budget.held()), (3, cap, cap));
            for seg in store.segment_paths().unwrap() {
                std::fs::remove_file(seg).unwrap();
            }
            for (planned, want) in planned.iter().zip(&want) {
                assert_eq!(&planned.execute(Some(2)).unwrap().to_csv(), want);
            }
            drop(planned);
            assert_eq!(budget.held(), 0, "a finished plan returns its descriptors");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn zone_and_dictionary_pruning_skip_chunks() {
        // Two separate segments with disjoint value ranges and kinds; a
        // predicate selecting one must not decode the other (verified
        // indirectly: results stay correct under pruning).
        let (store, dir) = test_store("prune1", vec![report("D", "m", 5.0, f64::NAN)]);
        let mut b = store.batch();
        let mut other = Row::new("c2", "r2", "figure", "cfgX");
        other.metric = "fig2".to_string();
        other.value = 500.0;
        b.push(other);
        b.commit().unwrap();
        let q = build_query(None, Some("kind=figure,value>100"), None, None, None).unwrap();
        let res = run_query(&store, &q).unwrap();
        assert_eq!(res.rows.len(), 1);
        let q = build_query(None, Some("value<1"), None, None, None).unwrap();
        assert!(run_query(&store, &q).unwrap().rows.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
