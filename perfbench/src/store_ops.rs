//! Store operations every workload ends with — commit, scan, lookup,
//! compact — timed from outside (in reference seconds when untraced, see
//! `host`), and the reference aggregator their answers are checked
//! against.
//!
//! Every query uses integer-valued aggregates only (`count`, `min`, `max`
//! and `sum` over the `blocks`/`tasks` counters), so the answers are
//! exact at any chunk layout: the reference computed from the rows the
//! benchmark itself committed must match them exactly, and compaction
//! must leave them byte-identical.

use crate::report::Checks;
use crate::trace::{Open, Tracer};
use hetsched_store::{build_query, run_query_with, Query, QueryResult, Row, Segment, Store};
use std::collections::BTreeMap;

/// The aggregates of every benchmark query.
pub const AGGS: &str = "count,min(blocks),max(blocks),sum(blocks),sum(tasks)";

/// Reference answer of one group: count, min/max/sum of `blocks`, sum of
/// `tasks`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Agg {
    pub count: u64,
    pub min_blocks: u64,
    pub max_blocks: u64,
    pub sum_blocks: u64,
    pub sum_tasks: u64,
}

impl Agg {
    fn push(&mut self, r: &Row) {
        if self.count == 0 {
            self.min_blocks = r.blocks;
            self.max_blocks = r.blocks;
        } else {
            self.min_blocks = self.min_blocks.min(r.blocks);
            self.max_blocks = self.max_blocks.max(r.blocks);
        }
        self.count += 1;
        self.sum_blocks += r.blocks;
        self.sum_tasks += r.tasks;
    }

    fn values(&self) -> [f64; 5] {
        let nan_if_empty = |v: u64| if self.count == 0 { f64::NAN } else { v as f64 };
        [
            self.count as f64,
            nan_if_empty(self.min_blocks),
            nan_if_empty(self.max_blocks),
            self.sum_blocks as f64,
            self.sum_tasks as f64,
        ]
    }
}

const EMPTY: Agg = Agg {
    count: 0,
    min_blocks: 0,
    max_blocks: 0,
    sum_blocks: 0,
    sum_tasks: 0,
};

/// A query with the predicate the reference applies to rows.
pub struct Probe {
    pub query: Query,
    /// Scan threads of `run_query_with`.
    pub threads: usize,
    /// Group rows by `run` (a full group-by scan) or aggregate them all.
    pub by_run: bool,
    pub matches: Box<dyn Fn(&Row) -> bool + Sync>,
}

/// A full group-by-run scan over every row.
pub fn scan(threads: usize) -> Probe {
    Probe {
        query: build_query(None, None, Some("run"), Some(AGGS), None).expect("scan query"),
        threads,
        by_run: true,
        matches: Box::new(|_| true),
    }
}

/// A pruned lookup: `where_` in query syntax and the same predicate as a
/// closure.
pub fn lookup(
    where_: &str,
    threads: usize,
    matches: impl Fn(&Row) -> bool + Sync + 'static,
) -> Probe {
    Probe {
        query: build_query(None, Some(where_), None, Some(AGGS), None).expect("lookup query"),
        threads,
        by_run: false,
        matches: Box::new(matches),
    }
}

/// The reference answer of `probe` over `rows`, keyed by group.
pub fn reference(rows: &[Row], probe: &Probe) -> BTreeMap<String, Agg> {
    let mut out: BTreeMap<String, Agg> = BTreeMap::new();
    if !probe.by_run {
        out.insert(String::new(), EMPTY);
    }
    for r in rows.iter().filter(|r| (probe.matches)(r)) {
        let key = if probe.by_run {
            r.run.clone()
        } else {
            String::new()
        };
        out.entry(key).or_insert(EMPTY).push(r);
    }
    out
}

/// True when `res` equals the reference exactly (NaN equals NaN for the
/// min/max of an empty global aggregate).
pub fn matches_reference(res: &QueryResult, want: &BTreeMap<String, Agg>, by_run: bool) -> bool {
    if res.rows.len() != want.len() {
        return false;
    }
    res.rows.iter().zip(want).all(|(row, (key, agg))| {
        let (keys, vals) = row.split_at(usize::from(by_run));
        let key_ok = keys
            .first()
            .map_or(key.is_empty(), |k| k.render_csv() == *key);
        key_ok
            && vals.len() == 5
            && vals
                .iter()
                .zip(agg.values())
                .all(|(v, w)| v.as_f64().is_some_and(|x| x.to_bits() == w.to_bits()))
    })
}

/// Runs `probe` on `store`, checks it against `rows`, returns seconds.
pub fn timed_query(
    store: &Store,
    probe: &Probe,
    rows: &[Row],
    checks: &mut Checks,
    tracer: Option<(&Tracer, &Open, u64)>,
    name: &'static str,
) -> f64 {
    let want = match tracer {
        Some((t, parent, id)) => {
            t.span("bench.check", Some(parent), id, |_| reference(rows, probe))
        }
        None => reference(rows, probe),
    };
    if let Some((t, parent, id)) = tracer {
        // The footer reads every query starts with, timed on their own.
        let open = t.open("store.footer_read", Some(parent), id);
        let paths = store.segment_paths().expect("list segments");
        for p in &paths {
            let _ = Segment::read_meta(p);
        }
        t.close(open, vec![("segments", paths.len() as f64)]);
    }
    let open = tracer.map(|(t, parent, id)| t.open(name, Some(parent), id));
    let (res, secs) = crate::host::timed(tracer.is_none(), probe.threads, || {
        run_query_with(store, &probe.query, Some(probe.threads))
    });
    if let (Some((t, _, _)), Some(open)) = (tracer, open) {
        t.close(open, Vec::new());
    }
    checks.check(
        res.as_ref()
            .is_ok_and(|r| matches_reference(r, &want, probe.by_run)),
        || format!("{name} answer differs from the reference: {res:?} vs {want:?}"),
    );
    secs
}

/// Commits `rows` as one segment; returns seconds.
pub fn timed_commit(
    store: &Store,
    rows: Vec<Row>,
    checks: &mut Checks,
    tracer: Option<(&Tracer, &Open, u64)>,
) -> f64 {
    let n = rows.len();
    let open = tracer.map(|(t, parent, id)| t.open("store.commit", Some(parent), id));
    let (res, secs) = crate::host::timed(tracer.is_none(), 1, || {
        let mut batch = store.batch();
        batch.push_all(rows);
        batch.commit()
    });
    if let (Some((t, _, _)), Some(open)) = (tracer, open) {
        t.close(open, vec![("rows", n as f64)]);
    }
    checks.check(res.is_ok(), || format!("commit failed: {res:?}"));
    secs
}

/// What one compaction did.
pub struct Compacted {
    pub secs: f64,
    pub rows: usize,
    pub disk_bytes: u64,
}

/// Compacts the store, checking that the exact aggregates of `probe`
/// read byte-identical before and after.
pub fn timed_compact(
    store: &Store,
    probe: &Probe,
    checks: &mut Checks,
    tracer: Option<(&Tracer, &Open, u64)>,
) -> Compacted {
    let csv = |s: &Store| {
        run_query_with(s, &probe.query, Some(probe.threads))
            .map(|r| r.to_csv())
            .unwrap_or_default()
    };
    let before = csv(store);
    let open = tracer.map(|(t, parent, id)| t.open("store.compact", Some(parent), id));
    let (res, secs) = crate::host::timed(tracer.is_none(), 1, || {
        store.compact(hetsched_store::CHUNK_ROWS)
    });
    let end = tracer.map(|(t, _, _)| t.now());
    let report = res.unwrap_or_else(|e| {
        checks.check(false, || format!("compaction failed: {e}"));
        Default::default()
    });
    let disk = disk_bytes(store);
    if let (Some((t, _, _)), Some(open), Some(end)) = (tracer, open, end) {
        t.close_at(
            open,
            end,
            vec![
                ("rows", report.rows as f64),
                ("segments_before", report.segments_before as f64),
                ("segments_after", report.segments_after as f64),
                ("disk_bytes", disk as f64),
            ],
        );
    }
    checks.check(report.merged >= 2, || {
        format!("compaction merged {} segments", report.merged)
    });
    let after = csv(store);
    checks.check(!before.is_empty() && before == after, || {
        "exact aggregates changed across compaction".to_string()
    });
    Compacted {
        secs,
        rows: report.rows,
        disk_bytes: disk,
    }
}

/// Bytes of every segment file.
pub fn disk_bytes(store: &Store) -> u64 {
    store
        .segment_paths()
        .expect("list segments")
        .iter()
        .map(|p| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsched_store::run_query;

    fn rows() -> Vec<Row> {
        let mut out = Vec::new();
        for run in 0..4u64 {
            for i in 0..50u64 {
                let mut r = Row::new("unit", &format!("run-{run}"), "probe", "cfg");
                r.seed = 100 + run;
                r.worker = (i % 5) as i64;
                r.blocks = (i * 7 + run * 3) % 23;
                r.tasks = i + run;
                out.push(r);
            }
        }
        out
    }

    #[test]
    fn reference_aggregator_agrees_with_run_query() {
        let dir = std::env::temp_dir().join(format!("perfbench-ref-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        let all = rows();
        // Two segments with interleaved runs, so groups span segments.
        for part in [&all[..120], &all[120..]] {
            let mut b = store.batch();
            b.push_all(part.to_vec());
            b.commit().unwrap();
        }
        let probes = [
            scan(2),
            lookup("seed=102", 1, |r| r.seed == 102),
            lookup("seed=101..103", 2, |r| (101..103).contains(&r.seed)),
            lookup("seed=101,worker=1..=3", 1, |r| {
                r.seed == 101 && (1..=3).contains(&r.worker)
            }),
            lookup("seed=999", 1, |r| r.seed == 999),
        ];
        for p in &probes {
            let res = run_query(&store, &p.query).unwrap();
            let want = reference(&all, p);
            assert!(
                matches_reference(&res, &want, p.by_run),
                "{res:?} vs {want:?}"
            );
        }
        // A wrong reference is caught.
        let mut want = reference(&all, &probes[0]);
        want.values_mut().next().unwrap().sum_tasks += 1;
        let res = run_query(&store, &probes[0].query).unwrap();
        assert!(!matches_reference(&res, &want, true));

        let mut checks = Checks::default();
        let c = timed_compact(&store, &probes[0], &mut checks, None);
        assert_eq!(c.rows, 200);
        assert_eq!(store.segment_paths().unwrap().len(), 1);
        assert_eq!(checks.failed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
