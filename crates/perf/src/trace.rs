//! In-memory spans around the calls into each layer.
//!
//! Spans are recorded by the benchmark, from outside the program: `{name,
//! start_ns, end_ns, parent, op_id}`, spans of one operation sharing its
//! `op_id`. They are kept in a `Vec` and written once when the run ends.
//! A span's self time is its duration minus the part its children cover.

use crate::json::Json;
use crate::stats;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = u32;
/// Index of an interned span name.
pub type NameId = u32;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: NameId,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub op_id: u64,
}

/// One row of the per-name table.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub name: String,
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Median duration; plain median (every span is a full measurement of
    /// its stage, and a 10 s traced run yields ~100 per stage).
    pub p50_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    names: Vec<String>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            names: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Interns `name`; do it once outside the timed loop.
    pub fn name(&mut self, name: &str) -> NameId {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return i as NameId;
        }
        self.names.push(name.to_string());
        (self.names.len() - 1) as NameId
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now.
    pub fn begin(&mut self, name: NameId, parent: Option<SpanId>, op_id: u64) -> SpanId {
        let now = self.now_ns();
        self.record(name, parent, op_id, now, now)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, span: SpanId) {
        self.spans[span as usize].end_ns = self.now_ns();
    }

    /// Records a span whose endpoints were timed elsewhere (another thread).
    pub fn record(
        &mut self,
        name: NameId,
        parent: Option<SpanId>,
        op_id: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: duration minus the union of its children's
    /// intervals (clipped to the span, so overlapping or overhanging
    /// children are never subtracted twice).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p as usize];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                if hi > lo {
                    children[p as usize].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(lo, hi) in kids.iter() {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Per-name aggregate, in first-seen order.
    pub fn table(&self) -> Vec<Row> {
        let selfs = self.self_times();
        let mut durs: Vec<Vec<u64>> = vec![Vec::new(); self.names.len()];
        let mut self_ns = vec![0u64; self.names.len()];
        for (s, own) in self.spans.iter().zip(&selfs) {
            durs[s.name as usize].push(s.end_ns - s.start_ns);
            self_ns[s.name as usize] += own;
        }
        self.names
            .iter()
            .zip(durs)
            .zip(self_ns)
            .filter(|((_, d), _)| !d.is_empty())
            .map(|((name, d), self_ns)| Row {
                name: name.clone(),
                count: d.len(),
                total_ns: d.iter().sum(),
                self_ns,
                p50_ns: stats::median_u64(&d).unwrap_or(0),
            })
            .collect()
    }

    /// Median duration of the spans called `name` (0 when none).
    pub fn p50_ns(&self, name: &str) -> u64 {
        let Some(id) = self.names.iter().position(|n| n == name) else {
            return 0;
        };
        let d: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name as usize == id)
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        stats::median_u64(&d).unwrap_or(0)
    }

    /// `{names, spans: [[name, start_ns, end_ns, parent|-1, op_id], ..]}` —
    /// rows, not objects: a serve trace holds tens of thousands of spans.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    Json::Int(u64::from(s.name)),
                    Json::Int(s.start_ns),
                    Json::Int(s.end_ns),
                    s.parent
                        .map_or(Json::Num(-1.0), |p| Json::Int(u64::from(p))),
                    Json::Int(s.op_id),
                ])
            })
            .collect();
        Json::obj(vec![
            (
                "columns",
                Json::Arr(
                    ["name", "start_ns", "end_ns", "parent", "op_id"]
                        .map(Json::str)
                        .to_vec(),
                ),
            ),
            (
                "names",
                Json::Arr(self.names.iter().map(Json::str).collect()),
            ),
            ("spans", Json::Arr(spans)),
        ])
    }
}

pub fn table_json(rows: &[Row]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj(vec![
                    ("name", Json::str(&r.name)),
                    ("count", Json::Int(r.count as u64)),
                    ("p50_ns", Json::Int(r.p50_ns)),
                    ("total_ns", Json::Int(r.total_ns)),
                    ("self_ns", Json::Int(r.self_ns)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(Instant::now());
        let (op, a, b) = (t.name("op"), t.name("a"), t.name("b"));
        let root = t.record(op, None, 7, 100, 1100);
        // Two children overlapping on [400, 500): covered = [200, 700) = 500.
        let c1 = t.record(a, Some(root), 7, 200, 500);
        t.record(a, Some(root), 7, 400, 700);
        // A grandchild reduces only its own parent's self time.
        t.record(b, Some(c1), 7, 250, 300);
        // A child overhanging the parent is clipped to it: covers [1000, 1100).
        t.record(b, Some(root), 7, 1000, 1500);
        let s = t.self_times();
        assert_eq!(s[0], 1000 - 500 - 100);
        assert_eq!(s[1], 300 - 50);
        assert_eq!(s[2], 300);
        assert_eq!(s[3], 50);

        let rows = t.table();
        assert_eq!(
            rows.iter().map(|r| r.name.as_str()).collect::<Vec<_>>(),
            ["op", "a", "b"]
        );
        assert_eq!(rows[1].count, 2);
        assert_eq!(rows[1].total_ns, 600);
        assert_eq!(rows[1].self_ns, 550);
        assert_eq!(t.p50_ns("a"), 300);
        assert_eq!(t.p50_ns("missing"), 0);
    }

    #[test]
    fn begin_end_nest_and_share_the_op_id() {
        let mut t = Tracer::new(Instant::now());
        let n = t.name("x");
        assert_eq!(t.name("x"), n, "names are interned");
        let outer = t.begin(n, None, 3);
        let inner = t.begin(n, Some(outer), 3);
        t.end(inner);
        t.end(outer);
        let s = t.spans();
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!((s[0].op_id, s[1].op_id, s[1].parent), (3, 3, Some(outer)));
    }
}
