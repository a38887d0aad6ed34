//! `serve`: an in-process `pld` daemon on loopback, one closed-loop
//! client.
//!
//! The client sends a request, waits for the reply, then sends the next.
//! Reads (75%) are `--ee --verify --vectors 10` compiles: 40% of them on
//! b14, 40% on b15 and 20% over b01..b13 by Zipf rank, so 15 designs
//! share the default 8-entry cache and hits, misses and evictions all
//! happen. Writes (25%) are one seeded same-arity LUT-table edit on b14
//! or b15 (3:1); every fourth write re-writes a node's existing table,
//! which takes the downstream-skip path. The shares hold exactly in every
//! window of 160 requests, in a seeded order. Set-up reads every design
//! once to warm the cache. After the timed loop every response is checked
//! against an in-process replay: `Pipeline::run` for a read, a clone of
//! an in-process `EcoSession` plus `apply_eco` for a write.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use pl_flow::{CircuitSource, EarlyEvaled, EcoEdit, EcoSession, FlowArtifacts, Pipeline};
use pl_serve::{
    outputs_digest, Client, DesignSpec, DigestTriple, PldServer, Request, RequestOptions, Response,
    ServerConfig, ServerStats,
};

use crate::layers::{Counts, LayerReport};
use crate::trace::Tracer;
use crate::util::{mean, median, quantile, ratio, secs, Outcome, Rng};
use crate::Args;

/// One traffic window of 160 requests holds exactly these shares, in a
/// seeded order, so a run's mix does not drift with the seed: 120 reads
/// (48 b14, 48 b15, 24 over b01..b13 by Zipf rank) and 40 writes (30 on
/// b14, 10 on b15; every fourth one re-writes an existing table). Sorted
/// by latency, reads fall into small designs (20%), b14 hits (40%) and
/// b15 hits (40%), so the read median and p90 each sit three quarters of
/// the way into one design's mode, where the host's fast/slow phases
/// least often flip them.
const WINDOW_READS: [(&str, usize); 2] = [("b14", 48), ("b15", 48)];
const SMALL_READS: usize = 24;
const SMALL: [&str; 13] = [
    "b01", "b02", "b03", "b04", "b05", "b06", "b07", "b08", "b09", "b10", "b11", "b12", "b13",
];
const WINDOW_WRITES: [(&str, usize); 2] = [("b14", 30), ("b15", 10)];
/// Every `SKIP_EVERY`-th write of a window re-writes an existing table.
const SKIP_EVERY: usize = 4;
/// Distinct edits per write design and kind (changed / existing table).
const EDITS_CHANGED: usize = 12;
const EDITS_SAME: usize = 4;
/// Set-up reads every design once, coldest first, so the cache starts
/// with b14, b15 and the six most-read small designs.
const WARMUP: [&str; 15] = [
    "b13", "b12", "b11", "b10", "b09", "b08", "b07", "b06", "b05", "b04", "b03", "b02", "b01",
    "b15", "b14",
];
const SETUP_REPS: usize = 3;

#[derive(Debug, Clone, PartialEq)]
enum Req {
    Read(&'static str),
    Write(&'static str, String),
}

/// The seeded request generator: fixed per-window shares, shuffled.
struct Traffic {
    rng: Rng,
    /// Per write design: (changed-table edits, existing-table edits).
    edits: BTreeMap<&'static str, (Vec<String>, Vec<String>)>,
    window: Vec<Req>,
}

/// Largest-remainder split of `total` reads over the small designs by
/// Zipf rank (weight `1 / rank`).
fn small_quotas(total: usize) -> Vec<usize> {
    let w: Vec<f64> = (1..=SMALL.len()).map(|r| 1.0 / r as f64).collect();
    let sum: f64 = w.iter().sum();
    let exact: Vec<f64> = w.iter().map(|x| x / sum * total as f64).collect();
    let mut q: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut order: Vec<usize> = (0..SMALL.len()).collect();
    order.sort_by(|&a, &b| (exact[b] - q[b] as f64).total_cmp(&(exact[a] - q[a] as f64)));
    let short = total - q.iter().sum::<usize>();
    for &i in order.iter().take(short) {
        q[i] += 1;
    }
    q
}

impl Traffic {
    fn new(seed: u64) -> Result<Self, String> {
        let mut edits = BTreeMap::new();
        for (i, d) in ["b14", "b15"].into_iter().enumerate() {
            edits.insert(d, edit_pool(d, &mut Rng::fork(seed, 0xED17 + i as u64))?);
        }
        Ok(Traffic {
            rng: Rng::fork(seed, 0x5E7E),
            edits,
            window: Vec::new(),
        })
    }

    fn refill(&mut self) {
        let mut w = Vec::new();
        for (d, n) in WINDOW_READS {
            w.extend(std::iter::repeat_n(Req::Read(d), n));
        }
        for (d, n) in SMALL.iter().zip(small_quotas(SMALL_READS)) {
            w.extend(std::iter::repeat_n(Req::Read(d), n));
        }
        let mut i = 0;
        for (d, n) in WINDOW_WRITES {
            let (changed, same) = &self.edits[d];
            for _ in 0..n {
                i += 1;
                let pool = if i % SKIP_EVERY == 0 { same } else { changed };
                w.push(Req::Write(d, pool[self.rng.below(pool.len())].clone()));
            }
        }
        // Fisher-Yates; `next` pops from the back.
        for j in (1..w.len()).rev() {
            w.swap(j, self.rng.below(j + 1));
        }
        self.window = w;
    }

    fn next(&mut self) -> Req {
        if self.window.is_empty() {
            self.refill();
        }
        self.window.pop().expect("refilled")
    }
}

/// Seeded same-arity table edits on LUT nodes of the design's own
/// netlist. A changed table depends on every input and is not constant,
/// so the lint gate never rejects it; an existing-table edit writes the
/// node's current table back.
fn edit_pool(design: &str, rng: &mut Rng) -> Result<(Vec<String>, Vec<String>), String> {
    let src = CircuitSource::catalog(design).ok_or("unknown design")?;
    let netlist = src.ingest_netlist().map_err(|e| e.to_string())?;
    let luts: Vec<(usize, usize, u64)> = netlist
        .iter()
        .filter_map(|(id, node)| {
            let t = node.lut_table()?;
            (t.num_vars() >= 2).then(|| (id.index(), t.num_vars(), t.bits()))
        })
        .collect();
    if luts.is_empty() {
        return Err(format!("{design} has no LUT to edit"));
    }
    let mut changed = Vec::new();
    while changed.len() < EDITS_CHANGED {
        let (id, arity, old) = luts[rng.below(luts.len())];
        let rows = 1u32 << arity;
        let mask = if rows == 64 {
            u64::MAX
        } else {
            (1u64 << rows) - 1
        };
        let bits = rng.next_u64() & mask;
        let t = pl_boolfn::TruthTable::from_bits(arity, bits);
        if bits != old && !t.is_constant() && (0..arity).all(|v| t.depends_on(v)) {
            changed.push(format!("table:n{id}:{bits:x}"));
        }
    }
    let same = (0..EDITS_SAME)
        .map(|_| {
            let (id, _, old) = luts[rng.below(luts.len())];
            format!("table:n{id}:{old:x}")
        })
        .collect();
    Ok((changed, same))
}

fn request_options(seed: u64) -> RequestOptions {
    RequestOptions {
        vectors: 10,
        seed,
        ee: true,
        verify: true,
        ..RequestOptions::default()
    }
}

fn to_request(req: &Req, options: &RequestOptions) -> Request {
    match req {
        Req::Read(d) => Request::Compile {
            design: DesignSpec::Spec((*d).to_string()),
            options: options.clone(),
        },
        Req::Write(d, spec) => Request::Eco {
            design: DesignSpec::Spec((*d).to_string()),
            options: options.clone(),
            edits: vec![spec.clone()],
        },
    }
}

/// What one response said, reduced to what the checks compare.
#[derive(Debug, Clone, PartialEq)]
enum Answer {
    Read {
        hit: bool,
        gates: u64,
        pairs: u64,
        digest: DigestTriple,
    },
    Write {
        hit: bool,
        initial: DigestTriple,
        edited: DigestTriple,
        dirty: u64,
    },
}

fn answer(resp: Response) -> Result<Answer, String> {
    match resp {
        Response::CompileOk {
            cache_hit,
            gates,
            pairs,
            digest,
            ..
        } => Ok(Answer::Read {
            hit: cache_hit,
            gates,
            pairs,
            digest,
        }),
        Response::EcoOk {
            cache_hit,
            initial,
            edits,
            ..
        } => match edits.as_slice() {
            [one] => Ok(Answer::Write {
                hit: cache_hit,
                initial,
                edited: one.digest,
                dirty: one.dirty_nodes,
            }),
            _ => Err(format!("{} edit results for one edit", edits.len())),
        },
        Response::Error { code, message } => Err(format!("server error {code}: {message}")),
        other => Err(format!("unexpected response {other:?}")),
    }
}

struct Daemon {
    server: Arc<PldServer>,
    thread: std::thread::JoinHandle<Result<(), pl_serve::ServeError>>,
    client: Client,
}

impl Daemon {
    fn start() -> Result<Self, String> {
        let server = Arc::new(
            PldServer::bind("127.0.0.1:0", &ServerConfig::default()).map_err(|e| e.to_string())?,
        );
        let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
        let s = Arc::clone(&server);
        let thread = std::thread::spawn(move || s.serve());
        let client = Client::connect(&addr).map_err(|e| e.to_string())?;
        Ok(Daemon {
            server,
            thread,
            client,
        })
    }

    fn stats(&mut self) -> Result<ServerStats, String> {
        match self.client.request(&Request::Stats) {
            Ok(Response::StatsOk(s)) => Ok(s),
            other => Err(format!("stats: {other:?}")),
        }
    }

    /// Sends `Shutdown` and joins the accept loop.
    fn stop(mut self) -> Result<(), String> {
        let ack = self.client.request(&Request::Shutdown);
        drop(self.client);
        let joined = self.thread.join();
        drop(self.server);
        match (ack, joined) {
            (Ok(Response::ShutdownOk), Ok(Ok(()))) => Ok(()),
            (ack, joined) => Err(format!("shutdown: {ack:?} / {joined:?}")),
        }
    }
}

fn digest_of(art: &FlowArtifacts) -> DigestTriple {
    DigestTriple {
        mapped_fp: art.mapped.fingerprint(),
        phased_fp: art.plain.fingerprint(),
        outputs_digest: outputs_digest(&art.outputs),
    }
}

/// In-process replays: `Pipeline::run` per read design, an `EcoSession`
/// per write design, and each distinct write applied to a clone of it.
struct Replay {
    pipeline: Pipeline,
    reads: BTreeMap<&'static str, FlowArtifacts>,
    sessions: BTreeMap<&'static str, EcoSession>,
    writes: BTreeMap<(&'static str, String), (DigestTriple, u64)>,
}

impl Replay {
    fn new(options: &RequestOptions) -> Self {
        Replay {
            pipeline: Pipeline::new(options.to_flow_options()),
            reads: BTreeMap::new(),
            sessions: BTreeMap::new(),
            writes: BTreeMap::new(),
        }
    }

    fn read(&mut self, d: &'static str) -> Result<&FlowArtifacts, String> {
        if !self.reads.contains_key(d) {
            let src = CircuitSource::catalog(d).ok_or("unknown design")?;
            let art = self.pipeline.run(&src).map_err(|e| format!("{d}: {e}"))?;
            self.reads.insert(d, art);
        }
        Ok(&self.reads[d])
    }

    fn session(&mut self, d: &'static str) -> Result<&EcoSession, String> {
        if !self.sessions.contains_key(d) {
            let src = CircuitSource::catalog(d).ok_or("unknown design")?;
            let s = self
                .pipeline
                .eco_session(&src)
                .map_err(|e| format!("{d}: {e}"))?;
            self.sessions.insert(d, s);
        }
        Ok(&self.sessions[d])
    }

    /// The in-process answer to one request.
    fn expected(&mut self, req: &Req) -> Result<Answer, String> {
        match req {
            Req::Read(d) => {
                let art = self.read(d)?;
                Ok(Answer::Read {
                    hit: false,
                    gates: art.report.phased.logic_gates as u64,
                    pairs: art.pairs.len() as u64,
                    digest: digest_of(art),
                })
            }
            Req::Write(d, spec) => {
                let initial = digest_of(self.session(d)?.artifacts());
                let key = (*d, spec.clone());
                if !self.writes.contains_key(&key) {
                    let mut s = self.session(d)?.clone();
                    let edit = EcoEdit::parse(spec).map_err(|e| e.to_string())?;
                    let out = s
                        .apply_eco(&[edit])
                        .map_err(|e| format!("{d} {spec}: {e}"))?;
                    let digest = DigestTriple {
                        mapped_fp: out.eco.mapped_fingerprint,
                        phased_fp: out.eco.phased_fingerprint,
                        outputs_digest: outputs_digest(&s.artifacts().outputs),
                    };
                    self.writes
                        .insert(key.clone(), (digest, out.eco.dirty_nodes as u64));
                }
                let (edited, dirty) = self.writes[&key];
                Ok(Answer::Write {
                    hit: false,
                    initial,
                    edited,
                    dirty,
                })
            }
        }
    }
}

/// Compares a response with its replay, ignoring the cache-hit flag.
fn check_answer(got: &Answer, want: &Answer) -> Result<(), String> {
    let unhit = |a: &Answer| match a.clone() {
        Answer::Read {
            hit: _,
            gates,
            pairs,
            digest,
        } => Answer::Read {
            hit: false,
            gates,
            pairs,
            digest,
        },
        Answer::Write {
            hit: _,
            initial,
            edited,
            dirty,
        } => Answer::Write {
            hit: false,
            initial,
            edited,
            dirty,
        },
    };
    if unhit(got) == unhit(want) {
        Ok(())
    } else {
        Err(format!(
            "response {got:?} differs from in-process replay {want:?}"
        ))
    }
}

/// Timing layer spans of one traced request's in-process replay, which
/// repeats the daemon's calls: `eco_session` on a miss, `simulate` plus
/// `verify` on a hit, clone plus `apply_eco` on a write.
struct Traced {
    tracer: Tracer,
    counts: Counts,
    sessions: BTreeMap<&'static str, EcoSession>,
    compile_ms: Vec<f64>,
    overhead_ms: Vec<f64>,
    request_s: f64,
    events: u64,
    eco_stage: BTreeMap<&'static str, Vec<f64>>,
    writes: u64,
    skipped: u64,
}

impl Traced {
    fn compile(&mut self, p: &Pipeline, d: &'static str, op: u64) -> Result<f64, String> {
        let src = CircuitSource::catalog(d).ok_or("unknown design")?;
        let t0 = Instant::now();
        let s = self
            .tracer
            .span("compile", op, || p.eco_session(&src))
            .map_err(|e| e.to_string())?;
        let took = secs(t0);
        self.compile_ms.push(took * 1e3);
        let r = &s.artifacts().report;
        // Per call, like the spans: the netlist and phased lint passes
        // are two calls.
        for l in r.lint.iter().chain(&r.lint_pl) {
            self.counts.add("lint.s", l.secs);
        }
        for (name, v) in [
            ("ingest.s", r.ingest.secs),
            ("techmap.s", r.techmap.secs),
            ("phased.s", r.phased.secs),
            ("ee.s", r.early_eval.secs),
        ] {
            self.counts.add(name, v);
        }
        self.counts.add("ingest.nodes", s.netlist().len() as f64);
        self.counts.add(
            "lint.findings",
            (r.lint.as_ref().map_or(0, |l| l.report.len())
                + r.lint_pl.as_ref().map_or(0, |l| l.report.len())) as f64,
        );
        self.counts.add("techmap.luts", r.techmap.luts_after as f64);
        self.counts.add("phased.gates", r.phased.logic_gates as f64);
        self.counts.add("phased.arcs", r.phased.arcs as f64);
        self.counts.add("ee.pairs", r.early_eval.pairs as f64);
        self.counts
            .add("ee.trigger_hits", r.early_eval.cache_hits as f64);
        self.counts.add(
            "ee.trigger_lookups",
            (r.early_eval.cache_hits + r.early_eval.cache_misses) as f64,
        );
        self.sessions.insert(d, s);
        Ok(took)
    }

    /// Replays one request; returns the replay's seconds.
    fn replay(&mut self, p: &Pipeline, req: &Req, got: &Answer, op: u64) -> Result<f64, String> {
        let d = match req {
            Req::Read(d) | Req::Write(d, _) => *d,
        };
        let hit = match got {
            Answer::Read { hit, .. } | Answer::Write { hit, .. } => *hit,
        };
        let mut took = 0.0;
        if !hit || !self.sessions.contains_key(d) {
            // A miss compiles; a hit on an entry warmed before tracing
            // began is compiled here untimed.
            let t = self.compile(p, d, op)?;
            if !hit {
                took += t;
            }
        }
        match req {
            Req::Read(_) if hit => {
                let art = self.sessions[d].artifacts();
                let early = EarlyEvaled {
                    name: art.name.clone(),
                    plain: art.plain.clone(),
                    ee: art.ee.clone(),
                    pairs: art.pairs.clone(),
                    report: art.report.early_eval.clone(),
                };
                let t0 = Instant::now();
                let sim = self
                    .tracer
                    .span("sim", op, || p.simulate(&early))
                    .map_err(|e| e.to_string())?;
                let ver = self
                    .tracer
                    .span("verify", op, || p.verify(&art.mapped, &sim))
                    .map_err(|e| e.to_string())?;
                took += secs(t0);
                self.counts.add("verify.vectors", ver.vectors as f64);
                self.events += scalar_events(p, &early, &sim.inputs)?;
            }
            Req::Read(_) => {}
            Req::Write(_, spec) => {
                let edit = EcoEdit::parse(spec).map_err(|e| e.to_string())?;
                let t0 = Instant::now();
                let out = self.tracer.span("eco", op, || {
                    let mut s = self.sessions[d].clone();
                    s.apply_eco(&[edit])
                });
                took += secs(t0);
                let out = out.map_err(|e| e.to_string())?;
                self.writes += 1;
                self.counts
                    .add("eco.dirty_nodes", out.eco.dirty_nodes as f64);
                self.counts
                    .add("eco.cuts_reused", out.eco.cuts_reused as f64);
                self.counts.add("eco.two_nodes", out.eco.two_nodes as f64);
                if out.eco.downstream_skipped {
                    self.skipped += 1;
                } else {
                    // Skipped stages carry the previous compile's timings,
                    // so only recompiles contribute to the breakdown.
                    let f = &out.flow;
                    for (k, v) in [
                        ("techmap", f.techmap.secs),
                        ("phased", f.phased.secs),
                        ("ee", f.early_eval.secs),
                        ("sim", f.simulate.secs),
                    ] {
                        self.eco_stage.entry(k).or_default().push(v);
                    }
                }
            }
        }
        Ok(took)
    }
}

/// Scalar events of a hit's replayed sweep (plain and EE), counted on
/// fresh `PlSimulator`s outside the timed spans.
fn scalar_events(p: &Pipeline, e: &EarlyEvaled, vectors: &[Vec<bool>]) -> Result<u64, String> {
    let mut events = 0;
    for pl in std::iter::once(&e.plain).chain(e.ee.as_ref()) {
        let mut sim =
            pl_sim::PlSimulator::new(pl, p.opts().delays.clone()).map_err(|e| e.to_string())?;
        for v in vectors {
            sim.run_vector(v).map_err(|e| e.to_string())?;
        }
        events += sim.events_processed();
    }
    Ok(events)
}

pub fn run(args: &Args) -> Outcome {
    match run_inner(args) {
        Ok(out) => out,
        Err(e) => {
            let mut out = Outcome::default();
            out.check(Err(e));
            out
        }
    }
}

fn run_inner(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let options = request_options(Rng::fork(args.seed, 0x0975).next_u64());

    // Set-up, repeated: start the daemon, generate the traffic, warm the
    // cache with the first requests. Earlier repetitions shut down.
    let mut setup_times = Vec::new();
    let mut state = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let mut daemon = Daemon::start()?;
        let traffic = Traffic::new(args.seed)?;
        let mut warm = Vec::new();
        for d in WARMUP {
            let req = Req::Read(d);
            let resp = daemon
                .client
                .request(&to_request(&req, &options))
                .map_err(|e| e.to_string())?;
            warm.push((req, answer(resp)));
        }
        setup_times.push(secs(t0));
        if rep + 1 == SETUP_REPS {
            state = Some((daemon, traffic, warm));
        } else {
            daemon.stop()?;
        }
    }
    let setup_s = median(&setup_times);
    let (mut daemon, mut traffic, warm) = state.expect("set-up ran");
    let base = daemon.stats()?;

    let p = Pipeline::new(options.to_flow_options());
    let mut traced = Traced {
        tracer: Tracer::new(args.trace, epoch),
        counts: Counts::default(),
        sessions: BTreeMap::new(),
        compile_ms: Vec::new(),
        overhead_ms: Vec::new(),
        request_s: 0.0,
        events: 0,
        eco_stage: BTreeMap::new(),
        writes: 0,
        skipped: 0,
    };
    let mut log: Vec<(Req, Result<Answer, String>, f64, bool)> = Vec::new();
    let t_run = Instant::now();
    let mut k = 0u64;
    while secs(t_run) < args.seconds {
        let req = traffic.next();
        let request = to_request(&req, &options);
        // The traced run spans every other request and replays every
        // one, so spanned and unspanned requests follow the same history.
        let on = args.trace && k % 2 == 1;
        let mut tr = Tracer::new(on, epoch);
        let t0 = Instant::now();
        let open = tr.begin("request", k);
        let resp = daemon.client.request(&request);
        tr.end(open);
        let took = secs(t0);
        traced.tracer.absorb(tr);
        let ans = resp.map_err(|e| e.to_string()).and_then(answer);
        if let (true, Ok(a)) = (args.trace, &ans) {
            match traced.replay(&p, &req, a, k) {
                Ok(replay) => {
                    traced.overhead_ms.push((took - replay) * 1e3);
                    traced.request_s += took;
                }
                Err(e) => out.fail(format!("replay of {req:?}: {e}")),
            }
        }
        log.push((req, ans, took * 1e3, on));
        k += 1;
    }
    let timed_s = secs(t_run);
    // Peak memory of set-up and the timed loop, before the check phase.
    let peak_rss = crate::util::peak_rss_mb();
    let end = daemon.stats()?;
    daemon.stop()?;

    // Check phase (untimed): every response against its replay.
    let mut replay = Replay::new(&options);
    let responses = warm.iter().map(|(r, a)| (r, a));
    for (req, ans) in responses.chain(log.iter().map(|(r, a, _, _)| (r, a))) {
        out.check(
            ans.clone()
                .and_then(|a| check_answer(&a, &replay.expected(req)?)),
        );
    }

    let kind_ms = |write: bool| -> Vec<f64> {
        log.iter()
            .filter(|(r, a, _, _)| matches!(r, Req::Write(..)) == write && a.is_ok())
            .map(|(_, _, ms, _)| *ms)
            .collect()
    };
    // EE figures of the designs this run read, from the replays.
    let mut speedups = Vec::new();
    let mut area = Vec::new();
    for a in replay.reads.values() {
        if let Some(ee) = &a.stats_ee {
            speedups.push(a.stats_plain.mean() / ee.mean());
        }
        area.push(100.0 * a.pairs.len() as f64 / a.report.phased.logic_gates as f64);
    }
    if args.trace {
        let mut layers = LayerReport::default();
        layers.stages(&traced.tracer, &traced.counts);
        // Compile stages run inside `eco_session`; their times are the
        // replayed compiles' own stage reports.
        for name in ["ingest.s", "lint.s", "techmap.s", "phased.s", "ee.s"] {
            layers.set(name, traced.counts.mean(name));
        }
        let spans = traced.tracer.by_name();
        let sim_s = spans.get("sim").map_or(0.0, |s| s.1);
        layers.set("sim.share", ratio(sim_s, traced.request_s));
        layers.set("sim.events", traced.events as f64);
        layers.set("sim.events_per_s", ratio(traced.events as f64, sim_s));
        if let Some((calls, _, total)) = spans.get("eco") {
            layers.set("eco.s", total / *calls as f64);
        }
        layers.set("eco.dirty_nodes", traced.counts.mean("eco.dirty_nodes"));
        layers.set(
            "eco.cut_reuse_ratio",
            ratio(
                traced.counts.sum("eco.cuts_reused"),
                traced.counts.sum("eco.two_nodes"),
            ),
        );
        layers.set(
            "eco.skip_ratio",
            ratio(traced.skipped as f64, traced.writes as f64),
        );
        for (k, name) in [
            ("techmap", "eco.stage_s.techmap"),
            ("phased", "eco.stage_s.phased"),
            ("ee", "eco.stage_s.ee"),
            ("sim", "eco.stage_s.sim"),
        ] {
            layers.set(name, traced.eco_stage.get(k).map_or(0.0, |v| mean(v)));
        }
        let hits = (end.hits - base.hits) as f64;
        let misses = (end.misses - base.misses) as f64;
        layers.set("serve.hit_ratio", ratio(hits, hits + misses));
        layers.set("serve.evictions", (end.evictions - base.evictions) as f64);
        layers.set("serve.compile_ms", mean(&traced.compile_ms));
        layers.set("serve.overhead_ms", mean(&traced.overhead_ms));
        let writes = kind_ms(true);
        layers.set("serve.eco_p50_ms", quantile(&writes, 0.5));
        layers.set("serve.eco_p90_ms", quantile(&writes, 0.9));
        layers.set("fail_share", ratio(out.failed as f64, out.attempted as f64));
        // Spanned against unspanned reads of the same design, so the
        // comparison does not depend on which designs fell on which side.
        let overhead: Vec<f64> = ["b14", "b15"]
            .into_iter()
            .map(|d| {
                let of = |spanned: bool| {
                    let ms: Vec<f64> = log
                        .iter()
                        .filter(|(r, a, _, on)| *r == Req::Read(d) && a.is_ok() && *on == spanned)
                        .map(|(_, _, ms, _)| *ms)
                        .collect();
                    median(&ms)
                };
                of(true) / of(false) - 1.0
            })
            .collect();
        layers.set("trace.overhead_pct", 100.0 * mean(&overhead));
        layers.emit(&mut out);
        traced.tracer.write_for("serve", args.seed);
    } else {
        let reads = kind_ms(false);
        out.metric("setup_s", setup_s, "s");
        out.metric("ops_per_s", k as f64 / timed_s, "1/s");
        out.metric("wait_p50_ms", quantile(&reads, 0.5), "ms");
        out.metric("wait_p90_ms", quantile(&reads, 0.9), "ms");
        out.metric("peak_rss_mb", peak_rss, "MB");
        out.metric(
            "ee_speedup_geomean",
            crate::util::geomean(&speedups),
            "ratio",
        );
        out.metric("ee_area_pct", mean(&area), "%");
        let writes = kind_ms(true);
        eprintln!(
            "serve: {k} requests, {} writes: write p50 {:.1} ms, p90 {:.1} ms",
            writes.len(),
            quantile(&writes, 0.5),
            quantile(&writes, 0.9)
        );
    }
    Ok(out)
}
