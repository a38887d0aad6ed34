//! `stream`: long vector streams through the 64-lane batch protocol.
//!
//! Set-up compiles b14 and b15 once and, for each, draws a vector seed
//! and computes the scalar in-process reference of one seed-chosen lane:
//! its 128 vectors run one by one on a `PlSimulator`, plain and EE. One
//! op is then 8192 vectors through `Pipeline::simulate` with 64 lanes,
//! EE and `verify` on, on one worker. Ops cycle b14, b14, b15, so the
//! median and the 90th percentile each fall inside one design's mode.

use std::time::Instant;

use pl_flow::{CircuitSource, FlowOptions, Pipeline};
use pl_serve::outputs_digest;

use crate::layers::{compile, Compiled, Counts, LayerReport};
use crate::trace::Tracer;
use crate::util::{geomean, mean, median, quantile, ratio, repeated_setup, secs, Outcome, Rng};
use crate::Args;

const VECTORS: usize = 8192;
const LANES: usize = 64;
const DESIGNS: [&str; 2] = ["b14", "b15"];
/// Op order over `DESIGNS`.
const CYCLE: [usize; 3] = [0, 0, 1];

fn options(seed: u64) -> FlowOptions {
    FlowOptions {
        vectors: VECTORS,
        seed,
        ee_enabled: true,
        verify: true,
        jobs: 1,
        lanes: Some(LANES),
        ..FlowOptions::default()
    }
}

/// One compiled design with its scalar reference lane.
struct Prepared {
    pipeline: Pipeline,
    compiled: Compiled,
    /// The lane whose outputs the scalar reference covers.
    lane: usize,
    /// Outputs digest of that lane on the scalar engine (EE netlist).
    lane_digest: u64,
    /// Mean scalar latency of that lane's vectors, plain and EE (ns).
    latency: (f64, f64),
    /// Whole-stream outputs digest of the first op, for later ops.
    digest: Option<u64>,
}

/// The lane-`lane` substream of the op's vectors: the lane protocol
/// stripes vector `i` to lane `i % 64`.
fn lane_vectors(pl: &pl_core::PlNetlist, seed: u64, lane: usize) -> Vec<Vec<bool>> {
    pl_sim::random_vectors(pl.input_gates().len(), VECTORS, seed)
        .into_iter()
        .skip(lane)
        .step_by(LANES)
        .collect()
}

fn prepare(
    design: &str,
    rng: &mut Rng,
    tr: &mut Tracer,
    op: u64,
    counts: &mut Counts,
) -> Result<Prepared, String> {
    let seed = rng.next_u64();
    let lane = rng.below(LANES);
    let pipeline = Pipeline::new(options(seed));
    let src = CircuitSource::catalog(design).ok_or("unknown design")?;
    let compiled = compile(&pipeline, &src, tr, op, counts)?;
    let ee = compiled.early.ee.as_ref().ok_or("EE variant missing")?;
    let vectors = lane_vectors(&compiled.early.plain, seed, lane);
    let delays = &pipeline.opts().delays;
    let mut digests = Vec::new();
    let mut latency = Vec::new();
    for pl in [&compiled.early.plain, ee] {
        let (outs, stats) =
            pl_sim::measure_latency_on(pl, delays, &vectors).map_err(|e| e.to_string())?;
        digests.push(outputs_digest(&outs));
        latency.push(stats.mean());
    }
    if digests[0] != digests[1] {
        return Err(format!("{design}: scalar EE lane differs from plain"));
    }
    Ok(Prepared {
        pipeline,
        compiled,
        lane,
        lane_digest: digests[1],
        latency: (latency[0], latency[1]),
        digest: None,
    })
}

/// One op: simulate the stream, verify it, and check the reference lane.
fn run_op(p: &mut Prepared, tr: &mut Tracer, op: u64, counts: &mut Counts) -> Result<(), String> {
    let name = &p.compiled.early.name;
    let open = tr.begin("op", op);
    let result = (|| {
        let sim = tr
            .span("sim", op, || p.pipeline.simulate(&p.compiled.early))
            .map_err(|e| format!("{name} simulate: {e}"))?;
        let ver = tr
            .span("verify", op, || {
                p.pipeline.verify(&p.compiled.mapped.netlist, &sim)
            })
            .map_err(|e| format!("{name} verify: {e}"))?;
        counts.add("verify.vectors", ver.vectors as f64);
        let lane: Vec<Vec<bool>> = sim
            .outputs
            .iter()
            .skip(p.lane)
            .step_by(LANES)
            .cloned()
            .collect();
        if outputs_digest(&lane) != p.lane_digest {
            return Err(format!(
                "{name}: lane {} differs from the scalar run",
                p.lane
            ));
        }
        let digest = outputs_digest(&sim.outputs);
        if *p.digest.get_or_insert(digest) != digest {
            return Err(format!("{name}: outputs differ from the first op's"));
        }
        Ok(())
    })();
    tr.end(open);
    result
}

/// Batch-engine events of one op (plain and EE, all 64 lanes), counted
/// on fresh `BatchSimulator`s outside the timed spans.
fn count_events(p: &Prepared) -> Result<u64, String> {
    let e = &p.compiled.early;
    let seed = p.pipeline.opts().seed;
    let vectors = pl_sim::random_vectors(e.plain.input_gates().len(), VECTORS, seed);
    let subs: Vec<Vec<Vec<bool>>> = (0..LANES)
        .map(|l| vectors.iter().skip(l).step_by(LANES).cloned().collect())
        .collect();
    let streams: Vec<&[Vec<bool>]> = subs.iter().map(Vec::as_slice).collect();
    let mut events = 0;
    for pl in std::iter::once(&e.plain).chain(e.ee.as_ref()) {
        let mut sim = pl_sim::BatchSimulator::new(pl, p.pipeline.opts().delays.clone())
            .map_err(|e| e.to_string())?;
        sim.run_lanes(&streams).map_err(|e| e.to_string())?;
        events += sim.events_processed();
    }
    Ok(events)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let mut tracer = Tracer::new(args.trace, epoch);
    let mut counts = Counts::default();
    let (prepared, setup_s) = repeated_setup(3, || {
        let mut rng = Rng::fork(args.seed, 0x57AE);
        DESIGNS
            .iter()
            .enumerate()
            .map(|(i, d)| prepare(d, &mut rng, &mut tracer, i as u64, &mut counts))
            .collect::<Vec<_>>()
    });
    let mut prepared: Vec<Prepared> = match prepared.into_iter().collect() {
        Ok(p) => p,
        Err(e) => {
            out.check(Err(e));
            return out;
        }
    };

    let mut op_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut plain_ms = Vec::new();
    let mut traced_sim = Vec::new();
    let t_run = Instant::now();
    let mut k = 0usize;
    while secs(t_run) < args.seconds || k < CYCLE.len() {
        let d = CYCLE[k % CYCLE.len()];
        // The traced run traces every other cycle, so each design has
        // traced and untraced ops to compare.
        let traced = args.trace && (k / CYCLE.len()) % 2 == 1;
        let mut tr = Tracer::new(traced, epoch);
        let t0 = Instant::now();
        // Op ids below 100 belong to the set-up compiles.
        let r = run_op(&mut prepared[d], &mut tr, 100 + k as u64, &mut counts);
        let ms = secs(t0) * 1e3;
        out.check(r);
        op_ms.push(ms);
        if traced {
            traced_ms.push((d, ms));
            traced_sim.push((d, tr.by_name().get("sim").map_or(0.0, |s| s.1)));
            tracer.absorb(tr);
        } else {
            plain_ms.push((d, ms));
        }
        k += 1;
    }
    let timed_s = secs(t_run);

    let speedups: Vec<f64> = prepared.iter().map(|p| p.latency.0 / p.latency.1).collect();
    let area: Vec<f64> = prepared
        .iter()
        .map(|p| {
            100.0 * p.compiled.early.pairs.len() as f64
                / p.compiled.early.plain.num_logic_gates() as f64
        })
        .collect();
    if args.trace {
        let mut layers = LayerReport::default();
        layers.stages(&tracer, &counts);
        let spans = tracer.by_name();
        let op_total = spans.get("op").map_or(0.0, |s| s.2);
        let sim_s = spans.get("sim").map_or(0.0, |s| s.1);
        layers.set("sim.share", ratio(sim_s, op_total));
        // Events of one op per design, over those designs' mean sim time.
        let mut events = 0u64;
        for p in &prepared {
            match count_events(p) {
                Ok(e) => events += e,
                Err(e) => out.fail(e),
            }
        }
        let sim_per_design: f64 = (0..DESIGNS.len())
            .map(|d| mean(&of_design(&traced_sim, d)))
            .sum();
        layers.set("sim.events", events as f64);
        layers.set("sim.events_per_s", ratio(events as f64, sim_per_design));
        layers.set("fail_share", ratio(out.failed as f64, out.attempted as f64));
        let overhead: Vec<f64> = (0..DESIGNS.len())
            .map(|d| median(&of_design(&traced_ms, d)) / median(&of_design(&plain_ms, d)) - 1.0)
            .collect();
        layers.set("trace.overhead_pct", 100.0 * mean(&overhead));
        layers.emit(&mut out);
        tracer.write_for("stream", args.seed);
    } else {
        out.metric("setup_s", setup_s, "s");
        out.metric("ops_per_s", k as f64 / timed_s, "1/s");
        out.metric("wait_p50_ms", quantile(&op_ms, 0.5), "ms");
        out.metric("wait_p90_ms", quantile(&op_ms, 0.9), "ms");
        out.metric("peak_rss_mb", crate::util::peak_rss_mb(), "MB");
        out.metric("ee_speedup_geomean", geomean(&speedups), "ratio");
        out.metric("ee_area_pct", mean(&area), "%");
    }
    out
}

/// The values recorded for design `d`.
fn of_design(v: &[(usize, f64)], d: usize) -> Vec<f64> {
    v.iter().filter(|x| x.0 == d).map(|x| x.1).collect()
}
