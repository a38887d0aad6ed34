//! Calls into the toolchain's layers, each wrapped in a span, plus the
//! fixed per-layer metric list every traced run reports.

use std::collections::BTreeMap;

use pl_flow::{CircuitSource, EarlyEvaled, Mapped, Pipeline};

use crate::trace::Tracer;
use crate::util::{ratio, Outcome};

/// Per-layer work counts: name → (sum, samples).
#[derive(Debug, Default)]
pub struct Counts(BTreeMap<&'static str, (f64, u64)>);

impl Counts {
    pub fn add(&mut self, name: &'static str, value: f64) {
        let e = self.0.entry(name).or_default();
        e.0 += value;
        e.1 += 1;
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |e| e.0)
    }

    pub fn mean(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |e| ratio(e.0, e.1 as f64))
    }

    pub fn merge(&mut self, other: Counts) {
        for (k, (s, n)) in other.0 {
            let e = self.0.entry(k).or_default();
            e.0 += s;
            e.1 += n;
        }
    }
}

/// A design compiled up to (not including) simulation.
pub struct Compiled {
    pub mapped: Mapped,
    pub early: EarlyEvaled,
}

/// Runs the compile stages `ingest → lint → optimize → techmap → phased
/// → lint → early_eval` one call at a time, each inside its layer's span,
/// and records the stages' work counts.
pub fn compile(
    p: &Pipeline,
    src: &CircuitSource,
    tr: &mut Tracer,
    op: u64,
    counts: &mut Counts,
) -> Result<Compiled, String> {
    let err = |stage: &str, e: pl_flow::FlowError| format!("{} {stage}: {e}", src.name());
    let ingested = tr
        .span("ingest", op, || p.ingest(src))
        .map_err(|e| err("ingest", e))?;
    counts.add("ingest.nodes", ingested.netlist.len() as f64);
    let lint = tr
        .span("lint", op, || p.lint(&ingested))
        .map_err(|e| err("lint", e))?;
    let optimized = tr
        .span("optimize", op, || p.optimize(ingested))
        .map_err(|e| err("optimize", e))?;
    let mapped = tr
        .span("techmap", op, || p.techmap(optimized))
        .map_err(|e| err("techmap", e))?;
    counts.add("techmap.luts", mapped.report.luts_after as f64);
    let phased = tr
        .span("phased", op, || p.phased(&mapped))
        .map_err(|e| err("phased", e))?;
    counts.add("phased.gates", phased.report.logic_gates as f64);
    counts.add("phased.arcs", phased.report.arcs as f64);
    let lint_pl = tr
        .span("lint", op, || p.lint_phased(&phased))
        .map_err(|e| err("lint", e))?;
    counts.add(
        "lint.findings",
        (lint.report.len() + lint_pl.report.len()) as f64,
    );
    let early = tr.span("ee", op, || p.early_eval(phased));
    counts.add("ee.pairs", early.report.pairs as f64);
    counts.add("ee.trigger_hits", early.report.cache_hits as f64);
    counts.add(
        "ee.trigger_lookups",
        (early.report.cache_hits + early.report.cache_misses) as f64,
    );
    Ok(Compiled { mapped, early })
}

/// Every per-layer metric, in report order, with its unit. Every traced
/// run prints all of them; a layer a workload never calls reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("ingest.s", "s"),
    ("ingest.nodes", "count"),
    ("lint.s", "s"),
    ("lint.findings", "count"),
    ("techmap.s", "s"),
    ("techmap.luts", "count"),
    ("phased.s", "s"),
    ("phased.gates", "count"),
    ("phased.arcs", "count"),
    ("ee.s", "s"),
    ("ee.pairs", "count"),
    ("ee.trigger_hit_ratio", "ratio"),
    ("sim.s", "s"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.share", "ratio"),
    ("verify.s", "s"),
    ("verify.vectors", "count"),
    ("eco.s", "s"),
    ("eco.dirty_nodes", "count"),
    ("eco.cut_reuse_ratio", "ratio"),
    ("eco.skip_ratio", "ratio"),
    ("eco.stage_s.techmap", "s"),
    ("eco.stage_s.phased", "s"),
    ("eco.stage_s.ee", "s"),
    ("eco.stage_s.sim", "s"),
    ("serve.hit_ratio", "ratio"),
    ("serve.evictions", "count"),
    ("serve.compile_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.eco_p50_ms", "ms"),
    ("serve.eco_p90_ms", "ms"),
    ("fail_share", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Collects per-layer values and emits the full [`LAYER_METRICS`] list.
#[derive(Debug, Default)]
pub struct LayerReport(BTreeMap<&'static str, f64>);

impl LayerReport {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            LAYER_METRICS.iter().any(|(n, _)| *n == name),
            "{name} is not a listed layer metric"
        );
        self.0.insert(name, value);
    }

    /// Mean self seconds per call of each compile/sim/verify span, and
    /// the compile stages' mean work counts.
    pub fn stages(&mut self, tr: &Tracer, counts: &Counts) {
        let spans = tr.by_name();
        for (span, metric) in [
            ("ingest", "ingest.s"),
            ("lint", "lint.s"),
            ("techmap", "techmap.s"),
            ("phased", "phased.s"),
            ("ee", "ee.s"),
            ("sim", "sim.s"),
            ("verify", "verify.s"),
        ] {
            if let Some((calls, own, _)) = spans.get(span) {
                self.set(metric, ratio(*own, *calls as f64));
            }
        }
        for name in [
            "ingest.nodes",
            "lint.findings",
            "techmap.luts",
            "phased.gates",
            "phased.arcs",
            "ee.pairs",
            "verify.vectors",
        ] {
            self.set(name, counts.mean(name));
        }
        self.set(
            "ee.trigger_hit_ratio",
            ratio(
                counts.sum("ee.trigger_hits"),
                counts.sum("ee.trigger_lookups"),
            ),
        );
    }

    pub fn emit(&self, out: &mut Outcome) {
        for (name, unit) in LAYER_METRICS {
            out.metric(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}
