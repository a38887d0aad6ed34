//! `table3`: the paper's protocol on all 15 catalog designs.
//!
//! One op is one design compiled from source, then simulated at 100
//! vectors plain and EE in the scalar latency protocol, then verified
//! against the synchronous reference. A pass runs the whole suite on
//! `min(2, nproc)` workers, like `table3 --jobs 2`. Passes cycle through
//! a pool of vector seeds drawn from `--seed`, so every pass after the
//! first round repeats an earlier one and must reproduce its rows.

use std::collections::BTreeMap;
use std::time::Instant;

use pl_flow::{CircuitSource, FlowOptions, Pipeline};
use pl_itc99::Benchmark;
use pl_serve::outputs_digest;

use crate::layers::{compile, Counts, LayerReport};
use crate::trace::Tracer;
use crate::util::{geomean, mean, median, quantile, ratio, repeated_setup, secs, Outcome, Rng};
use crate::Args;

/// Vector seeds per run; pass `k` uses seed `k % SEED_POOL`.
const SEED_POOL: usize = 4;
const VECTORS: usize = 100;

/// Per-design values of the paper's protocol at the canonical Table 3
/// seed, checked exactly once per run.
const PINNED: &str = include_str!("../pinned/table3.tsv");

/// One Table 3 row plus the op's output digest.
#[derive(Debug, Clone)]
pub struct Row {
    pub id: &'static str,
    pub pl_gates: usize,
    pub ee_gates: usize,
    pub delay_no_ee: f64,
    pub delay_ee: f64,
    pub digest: u64,
}

impl Row {
    fn same_result(&self, other: &Row) -> bool {
        self.id == other.id
            && self.pl_gates == other.pl_gates
            && self.ee_gates == other.ee_gates
            && self.delay_no_ee.to_bits() == other.delay_no_ee.to_bits()
            && self.delay_ee.to_bits() == other.delay_ee.to_bits()
            && self.digest == other.digest
    }

    /// The pinned-file line for this row.
    pub fn pinned_line(&self) -> String {
        format!(
            "{}\t{}\t{}\t{:?}\t{:?}",
            self.id, self.pl_gates, self.ee_gates, self.delay_no_ee, self.delay_ee
        )
    }
}

fn options(seed: u64) -> FlowOptions {
    FlowOptions {
        vectors: VECTORS,
        seed,
        ee_enabled: true,
        verify: true,
        jobs: 1,
        ..FlowOptions::default()
    }
}

/// One op: compile, simulate, verify.
fn run_design(
    bench: &Benchmark,
    seed: u64,
    tr: &mut Tracer,
    op: u64,
    counts: &mut Counts,
) -> Result<Row, String> {
    let p = Pipeline::new(options(seed));
    let src = CircuitSource::Catalog(*bench);
    let open = tr.begin("op", op);
    let result = (|| {
        let c = compile(&p, &src, tr, op, counts)?;
        let sim = tr
            .span("sim", op, || p.simulate(&c.early))
            .map_err(|e| format!("{} simulate: {e}", bench.id))?;
        let ver = tr
            .span("verify", op, || p.verify(&c.mapped.netlist, &sim))
            .map_err(|e| format!("{} verify: {e}", bench.id))?;
        counts.add("verify.vectors", ver.vectors as f64);
        let stats_ee = sim.stats_ee.as_ref().ok_or("EE variant missing")?;
        Ok(Row {
            id: bench.id,
            pl_gates: c.early.plain.num_logic_gates(),
            ee_gates: c.early.pairs.len(),
            delay_no_ee: sim.stats_plain.mean(),
            delay_ee: stats_ee.mean(),
            digest: outputs_digest(&sim.outputs),
        })
    })();
    tr.end(open);
    result
}

/// Scalar events of one design's plain and EE runs on the op's vectors,
/// counted on a fresh `PlSimulator` outside the timed spans.
fn count_events(bench: &Benchmark, seed: u64) -> Result<u64, String> {
    let p = Pipeline::new(options(seed));
    let c = compile(
        &p,
        &CircuitSource::Catalog(*bench),
        &mut Tracer::new(false, Instant::now()),
        0,
        &mut Counts::default(),
    )?;
    let delays = &p.opts().delays;
    let vectors = pl_sim::random_vectors(c.early.plain.input_gates().len(), VECTORS, seed);
    let mut events = 0;
    for pl in std::iter::once(&c.early.plain).chain(c.early.ee.as_ref()) {
        let mut sim = pl_sim::PlSimulator::new(pl, delays.clone()).map_err(|e| e.to_string())?;
        for v in &vectors {
            sim.run_vector(v).map_err(|e| e.to_string())?;
        }
        events += sim.events_processed();
    }
    Ok(events)
}

struct Pass {
    rows: Vec<Result<Row, String>>,
    secs: f64,
    tracer: Tracer,
    counts: Counts,
}

fn run_pass(
    catalog: &[Benchmark],
    workers: usize,
    seed: u64,
    traced: bool,
    epoch: Instant,
    first_op: u64,
) -> Pass {
    let t0 = Instant::now();
    let results = pl_sim::parallel::scatter_gather(workers, catalog, |i, b| {
        let mut tr = Tracer::new(traced, epoch);
        let mut counts = Counts::default();
        let row = run_design(b, seed, &mut tr, first_op + i as u64, &mut counts);
        (row, tr, counts)
    });
    let secs = secs(t0);
    let mut tracer = Tracer::new(traced, epoch);
    let mut counts = Counts::default();
    let mut rows = Vec::with_capacity(results.len());
    for (row, tr, c) in results {
        rows.push(row);
        tracer.absorb(tr);
        counts.merge(c);
    }
    Pass {
        rows,
        secs,
        tracer,
        counts,
    }
}

/// Pinned per-design values: PL gates, EE gates, plain and EE delay.
type Pins = BTreeMap<String, (usize, usize, f64, f64)>;

fn pinned() -> Pins {
    PINNED
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            assert_eq!(f.len(), 5, "pinned line '{l}'");
            let num = |s: &str| s.parse::<f64>().expect("pinned delay");
            let int = |s: &str| s.parse::<usize>().expect("pinned gate count");
            (
                f[0].to_string(),
                (int(f[1]), int(f[2]), num(f[3]), num(f[4])),
            )
        })
        .collect()
}

/// Prints the pinned file for the canonical seed (used to regenerate
/// `pinned/table3.tsv` after an intended change of the delay model).
pub fn write_pinned() -> Result<(), String> {
    let catalog = pl_itc99::catalog();
    println!("# id\tpl_gates\tee_gates\tdelay_no_ee_ns\tdelay_ee_ns");
    println!(
        "# paper protocol: 100 vectors, seed {:#x}",
        FlowOptions::default().seed
    );
    let pass = run_pass(
        &catalog,
        2,
        FlowOptions::default().seed,
        false,
        Instant::now(),
        0,
    );
    for row in pass.rows {
        println!("{}", row?.pinned_line());
    }
    Ok(())
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = nproc.min(2);
    // Set-up: draw the vector seeds and run the canonical pass (the
    // paper's seed), which warms every code path and is checked against
    // the pinned rows.
    let catalog = pl_itc99::catalog();
    let pins = pinned();
    let ((seeds, canon), setup_s) = repeated_setup(3, || {
        let mut rng = Rng::fork(args.seed, 0x7AB1E3);
        let seeds: Vec<u64> = (0..SEED_POOL).map(|_| rng.next_u64()).collect();
        let canon = run_pass(
            &catalog,
            workers,
            FlowOptions::default().seed,
            false,
            epoch,
            0,
        );
        (seeds, canon.rows)
    });
    for row in canon {
        out.check(row.and_then(|r| check_pinned(&r, &pins)));
    }

    let mut passes: Vec<Vec<Row>> = Vec::new();
    let mut timed_secs = 0.0;
    let mut timed_ops = 0usize;
    let mut traced_pass_s = Vec::new();
    let mut plain_pass_s = Vec::new();
    let mut tracer = Tracer::new(args.trace, epoch);
    let mut counts = Counts::default();
    let t_run = Instant::now();
    let mut k = 0usize;
    while secs(t_run) < args.seconds || k < SEED_POOL {
        // The traced run alternates traced and untraced passes, so the
        // tracing overhead is measured within one process.
        let traced = args.trace && k % 2 == 1;
        let pass = run_pass(
            &catalog,
            workers,
            seeds[k % SEED_POOL],
            traced,
            epoch,
            (k * catalog.len()) as u64,
        );
        if traced {
            traced_pass_s.push(pass.secs);
            tracer.absorb(pass.tracer);
            counts.merge(pass.counts);
        } else {
            plain_pass_s.push(pass.secs);
        }
        timed_secs += pass.secs;
        timed_ops += pass.rows.len();
        let mut rows = Vec::with_capacity(pass.rows.len());
        for (i, row) in pass.rows.into_iter().enumerate() {
            let check = match &row {
                Err(e) => Err(e.clone()),
                Ok(r) => check_row(r, &pins, k.checked_sub(SEED_POOL).map(|j| &passes[j][i])),
            };
            out.check(check);
            if let Ok(r) = row {
                rows.push(r);
            } else {
                rows.push(Row {
                    id: catalog[i].id,
                    pl_gates: 0,
                    ee_gates: 0,
                    delay_no_ee: f64::NAN,
                    delay_ee: f64::NAN,
                    digest: 0,
                });
            }
        }
        passes.push(rows);
        k += 1;
    }

    let first = &passes[0];
    let speedups: Vec<f64> = first.iter().map(|r| r.delay_no_ee / r.delay_ee).collect();
    let area: Vec<f64> = first
        .iter()
        .map(|r| 100.0 * r.ee_gates as f64 / r.pl_gates as f64)
        .collect();
    if args.trace {
        let mut layers = LayerReport::default();
        layers.stages(&tracer, &counts);
        let spans = tracer.by_name();
        let op_total = spans.get("op").map_or(0.0, |s| s.2);
        let sim_s = spans.get("sim").map_or(0.0, |s| s.1);
        layers.set("sim.share", ratio(sim_s, op_total));
        // Exact scalar event count of the first traced pass's designs,
        // over that pass's sim self time.
        let mut events = 0u64;
        for b in &catalog {
            match count_events(b, seeds[1]) {
                Ok(e) => events += e,
                Err(e) => out.fail(e),
            }
        }
        let first_traced_sim: f64 = tracer
            .spans_named("sim")
            .take(catalog.len())
            .map(|s| s.1)
            .sum();
        layers.set("sim.events", events as f64);
        layers.set("sim.events_per_s", ratio(events as f64, first_traced_sim));
        layers.set("fail_share", ratio(out.failed as f64, out.attempted as f64));
        layers.set(
            "trace.overhead_pct",
            100.0 * (median(&traced_pass_s) / median(&plain_pass_s) - 1.0),
        );
        layers.emit(&mut out);
        tracer.write_for("table3", args.seed);
    } else {
        out.metric("setup_s", setup_s, "s");
        out.metric("ops_per_s", timed_ops as f64 / timed_secs, "1/s");
        let pass_ms: Vec<f64> = plain_pass_s.iter().map(|s| s * 1e3).collect();
        out.metric("wait_p50_ms", quantile(&pass_ms, 0.5), "ms");
        out.metric("wait_p90_ms", quantile(&pass_ms, 0.9), "ms");
        out.metric("peak_rss_mb", crate::util::peak_rss_mb(), "MB");
        out.metric("ee_speedup_geomean", geomean(&speedups), "ratio");
        out.metric("ee_area_pct", mean(&area), "%");
    }
    out
}

/// A canonical-seed row must equal its pinned row exactly.
fn check_pinned(r: &Row, pins: &Pins) -> Result<(), String> {
    check_row(r, pins, None)?;
    let pin = pins[r.id];
    if r.delay_no_ee.to_bits() == pin.2.to_bits() && r.delay_ee.to_bits() == pin.3.to_bits() {
        Ok(())
    } else {
        Err(format!(
            "{} delays {:?}/{:?} differ from pinned {:?}/{:?}",
            r.id, r.delay_no_ee, r.delay_ee, pin.2, pin.3
        ))
    }
}

/// A timed row must match the pinned structure of its design and, when
/// its pass repeats an earlier seed, reproduce that pass's row exactly.
fn check_row(r: &Row, pins: &Pins, earlier: Option<&Row>) -> Result<(), String> {
    let pin = pins
        .get(r.id)
        .ok_or_else(|| format!("{} not pinned", r.id))?;
    if (r.pl_gates, r.ee_gates) != (pin.0, pin.1) {
        return Err(format!(
            "{} gates {}/{} differ from pinned {}/{}",
            r.id, r.pl_gates, r.ee_gates, pin.0, pin.1
        ));
    }
    if let Some(e) = earlier {
        if !r.same_result(e) {
            return Err(format!(
                "{} differs from the earlier pass on the same vectors",
                r.id
            ));
        }
    }
    Ok(())
}
