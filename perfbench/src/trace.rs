//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is (name, start, end, parent, op): the op id is shared by every
//! span of one op, the parent is the span that was open when it began.
//! Spans are kept in memory and written out once, when the run ends. A
//! layer's self time is its duration minus the time its child spans
//! cover. A disabled tracer records nothing and costs one branch.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(id) = open.0 {
            self.spans[id].end_ns = self.now_ns();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, op);
        let out = f();
        self.end(open);
        out
    }

    /// Moves another tracer's spans (e.g. a worker's) into this one,
    /// re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self seconds per span: duration minus the children's durations.
    fn self_secs(&self) -> Vec<f64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c) as f64 * 1e-9)
            .collect()
    }

    /// Per span name: (calls, total self seconds, total seconds).
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_secs()) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += own;
            e.2 += (s.end_ns - s.start_ns) as f64 * 1e-9;
        }
        out
    }

    /// `(span, self seconds)` of every span with this name, in record
    /// order.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (&'a Span, f64)> + 'a {
        self.spans
            .iter()
            .zip(self.self_secs())
            .filter(move |(s, _)| s.name == name)
    }

    /// Writes the spans to `.bench_build/perfbench/trace-<workload>-<seed>.jsonl`
    /// under the working directory; a write failure is reported, not fatal.
    pub fn write_for(&self, workload: &str, seed: u64) {
        let path = std::path::PathBuf::from(format!(
            ".bench_build/perfbench/trace-{workload}-{seed}.jsonl"
        ));
        if let Err(e) = self.write(&path, &crate::util::host_json()) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }

    /// Writes every span as one JSON line (name, start, end, parent,
    /// op, self time) followed by a `host` line.
    pub fn write(&self, path: &std::path::Path, host: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, own)) in self.spans.iter().zip(self.self_secs()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}, \"self_s\": {own:?}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        writeln!(out, "{{\"host\": {host}}}")?;
        out.flush()
    }
}
