//! In-memory spans for the traced run.
//!
//! Each span records a name, start, end, parent and operation id. Spans are
//! kept in memory and written out as JSON when the run ends. Nothing here
//! reaches into the program: spans wrap the benchmark's own calls into
//! each layer's public functions.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// No parent.
pub const ROOT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u32,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

pub struct Tracer {
    base: Instant,
    pub spans: Vec<Span>,
    /// Named counts, summed over operations.
    pub counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { base: Instant::now(), spans: Vec::new(), counts: BTreeMap::new() }
    }

    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, op: u32) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        let end = self.now();
        self.spans[id as usize].end_ns = end;
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, op);
        let out = f();
        self.close(id);
        out
    }

    pub fn count(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_insert(0.0) += n;
    }

    /// Total microseconds per span name.
    pub fn totals_us(&self) -> BTreeMap<&'static str, f64> {
        let mut t = BTreeMap::new();
        for s in &self.spans {
            *t.entry(s.name).or_insert(0.0) += s.us();
        }
        t
    }

    /// Self time per span name: duration minus the part covered by its
    /// direct children (children of one parent never overlap here).
    pub fn self_us(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child[s.parent as usize] += s.us();
            }
        }
        let mut t = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *t.entry(s.name).or_insert(0.0) += (s.us() - child[i]).max(0.0);
        }
        t
    }

    /// Share of the `root` spans' time that their direct children cover.
    pub fn coverage(&self, root: &str) -> f64 {
        let mut total = 0.0;
        let mut covered = 0.0;
        let ids: Vec<usize> =
            (0..self.spans.len()).filter(|&i| self.spans[i].name == root).collect();
        let mut is_root = vec![false; self.spans.len()];
        for &i in &ids {
            is_root[i] = true;
            total += self.spans[i].us();
        }
        for s in &self.spans {
            if s.parent != ROOT && is_root[s.parent as usize] {
                covered += s.us();
            }
        }
        if total > 0.0 {
            covered / total
        } else {
            0.0
        }
    }

    /// The first `limit` spans as a JSON array.
    pub fn spans_json(&self, limit: usize) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().take(limit).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if s.parent == ROOT { -1 } else { s.parent as i64 };
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out.push_str("\n]");
        out
    }
}
