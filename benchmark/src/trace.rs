//! The outside-in layer trace: a span around every call the benchmark's own
//! code makes into a layer. Spans are kept in memory and written out when
//! the run ends; nothing here touches the program under test.
//!
//! Only the single driver thread records spans, so the spans of one
//! operation nest strictly and a stack is enough to find each span's parent.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json::Value;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    /// The operation this span belongs to; spans of one op share it.
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Handle returned by [`Tracer::open`]; `None` when tracing is off.
#[must_use = "pass the token back to Tracer::close"]
pub struct Token(Option<u32>);

/// Span recorder. When disabled, `open`/`close` are a branch and nothing
/// else, so the untraced run pays no clock reads for tracing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Switch recording on or off between operations (the traced run times
    /// an untraced pass first, to price the tracing itself).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "tracing toggled inside an open span");
        self.enabled = enabled;
    }

    /// Start the next operation: spans opened from now on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn open(&mut self, name: &'static str) -> Token {
        if !self.enabled {
            return Token(None);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            op: self.op,
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(id);
        Token(Some(id))
    }

    pub fn close(&mut self, token: Token) {
        let Some(id) = token.0 else { return };
        let now = self.epoch.elapsed().as_nanos() as u64;
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id as usize].end_ns = now;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span called `name`.
    pub fn seconds_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// One JSON object per line: `{id, parent, op, name, start_ns, end_ns}`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = Value::obj([
                ("id", Value::Num(s.id as f64)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                ),
                ("op", Value::Num(s.op as f64)),
                ("name", Value::str(s.name)),
                ("start_ns", Value::Num(s.start_ns as f64)),
                ("end_ns", Value::Num(s.end_ns as f64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// Self time of each span, in nanoseconds, indexed like `spans`: the span's
/// duration minus the part of it that its direct children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for child in spans {
        if let Some(parent) = child.parent {
            let p = &spans[parent as usize];
            let covered = child
                .end_ns
                .min(p.end_ns)
                .saturating_sub(child.start_ns.max(p.start_ns));
            own[parent as usize] = own[parent as usize].saturating_sub(covered);
        }
    }
    own
}

/// Per span name: `(calls, total seconds, self seconds)`, for the layer table.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let own = self_times_ns(spans);
    let mut table = BTreeMap::new();
    for (s, own_ns) in spans.iter().zip(own) {
        let row = table.entry(s.name).or_insert((0usize, 0.0f64, 0.0f64));
        row.0 += 1;
        row.1 += s.seconds();
        row.2 += own_ns as f64 / 1e9;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span(0, None, "op", 0, 100),
            span(1, Some(0), "core.compress", 10, 40), // sibling A
            span(2, Some(1), "eblc", 15, 25),          // nested in A
            span(3, Some(0), "core.decompress", 50, 90), // sibling B
        ];
        // op: 100 − 30 − 40; compress: 30 − 10; leaves keep their duration.
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["op"], (1, 100e-9, 30e-9));
        assert_eq!(totals["core.compress"], (1, 30e-9, 20e-9));
    }

    #[test]
    fn grandchildren_are_not_subtracted_twice() {
        let spans = vec![
            span(0, None, "a", 0, 10),
            span(1, Some(0), "b", 0, 10),
            span(2, Some(1), "c", 0, 10),
        ];
        assert_eq!(self_times_ns(&spans), vec![0, 0, 10]);
    }

    #[test]
    fn tracer_links_parents_and_ops() {
        let mut t = Tracer::new(true);
        t.next_op();
        let outer = t.open("op");
        let inner = t.open("core.compress");
        t.close(inner);
        let second = t.open("core.decompress");
        t.close(second);
        t.close(outer);
        t.next_op();
        let lone = t.open("op");
        t.close(lone);
        let parents: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            parents,
            vec![
                ("op", None, 1),
                ("core.compress", Some(0), 1),
                ("core.decompress", Some(0), 1),
                ("op", None, 2),
            ]
        );
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(t.seconds_of("op").len(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let token = t.open("op");
        t.close(token);
        assert!(t.spans().is_empty());
    }
}
