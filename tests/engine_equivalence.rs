//! Differential equivalence suite for the integer-tick engine rewrite.
//!
//! The rewritten simulator (`pl_sim::PlSimulator`) must be
//! semantics-preserving against the retained pre-refactor engine
//! (`pl_sim::reference::ReferenceSimulator`):
//!
//! * output streams **bit-identical**, per-vector and pipelined,
//! * per-vector latencies equal up to the femtosecond quantization of the
//!   integer clock (tolerance 1e-6 ns = 1 tick),
//!
//! across the ITC'99 suite (with and without early evaluation) and across
//! randomized netlists. The static latency schedule
//! (`pl_sim::LatencySchedule`, the engine behind `measure_latency_on`) is
//! a third engine for the per-vector and streamed protocols and must
//! match the event engine **exactly**: the same output words and
//! bit-identical latencies and completion times, and for streams the same
//! makespan and throughput at one lane and at 64, at several delay
//! models. The memoized
//! word-parallel trigger search is also pinned candidate-for-candidate to
//! the pre-refactor per-assignment search on every compute gate of real
//! designs.

use pl_bench::{lcg_vectors as vectors, prepared_netlists as itc99_netlists, Lcg};
use pl_core::ee::EeOptions;
use pl_core::trigger::{search_triggers_baseline, TriggerCache};
use pl_core::{PlGateId, PlGateKind, PlNetlist};
use pl_netlist::Netlist;
use pl_sim::{
    DelayModel, FaultPlan, LaneSimulator, LaneWord, LatencySchedule, PlSimulator,
    ReferenceSimulator, ResumableOptions, SimCheckpoint, SimError,
};
use pl_techmap::{map_to_lut4, MapOptions};

const LATENCY_TOL_NS: f64 = 1e-6; // one femtosecond tick

/// Distinct deterministic seed per benchmark id (the ids share a length,
/// so hashing the bytes — not the length — is what varies the streams).
fn seed_for(id: &str, salt: u64) -> u64 {
    id.bytes().fold(salt, |h, b| {
        h.wrapping_mul(0x100000001B3).wrapping_add(u64::from(b))
    })
}

/// The 64-lane word stream built from `vecs`: two rounds in three carry
/// the same vector in every lane (so EE masters can take the all-lanes
/// early path), the third a different vector per lane.
fn lane_words(vecs: &[Vec<bool>]) -> Vec<Vec<u64>> {
    (0..vecs.len())
        .map(|r| {
            let lane_vec = |l: usize| &vecs[if r % 3 == 2 { (r + l) % vecs.len() } else { r }];
            (0..vecs[r].len())
                .map(|p| (0..64).fold(0u64, |w, l| w | u64::from(lane_vec(l)[p]) << l))
                .collect()
        })
        .collect()
}

/// Asserts the streamed schedule reproduces the event engine's
/// `run_stream` exactly at width `L`: output words, makespan and
/// throughput bits.
fn assert_stream_exact<L: LaneWord>(
    pl: &PlNetlist,
    vecs: &[Vec<L>],
    delays: &DelayModel,
    context: &str,
) {
    let want = LaneSimulator::<L>::new(pl, delays.clone())
        .expect("event engine builds")
        .run_stream(vecs)
        .unwrap_or_else(|e| panic!("{context}: event engine failed: {e}"));
    let got = LatencySchedule::<L>::new(pl, delays.clone())
        .expect("schedule builds")
        .run_stream(vecs)
        .unwrap_or_else(|e| panic!("{context}: schedule failed: {e}"));
    assert_eq!(got.outputs, want.outputs, "{context}: streamed words");
    assert_eq!(
        (got.makespan.to_bits(), got.throughput.to_bits()),
        (want.makespan.to_bits(), want.throughput.to_bits()),
        "{context}: streamed timing diverged: {} vs {} ns",
        got.makespan,
        want.makespan
    );
}

/// Asserts the event engine and the static schedule agree exactly on
/// `pl` for `vecs` under `delays`: the same output words and
/// bit-identical latencies and completion times, vector for vector —
/// directly and through `measure_latency_on` — and under the streamed
/// protocol the same words, makespan and throughput, at one lane and at
/// 64.
fn assert_schedule_exact(pl: &PlNetlist, vecs: &[Vec<bool>], delays: &DelayModel, context: &str) {
    assert_stream_exact(pl, vecs, delays, &format!("{context}, streamed"));
    let lanes = lane_words(vecs);
    assert_stream_exact(pl, &lanes, delays, &format!("{context}, 64 lanes"));
    let mut sim = PlSimulator::new(pl, delays.clone()).expect("event engine builds");
    let scheduled = LatencySchedule::new(pl, delays.clone())
        .expect("schedule builds")
        .run(vecs)
        .unwrap_or_else(|e| panic!("{context}: schedule failed: {e}"));
    assert_eq!(scheduled.len(), vecs.len(), "{context}: outcome count");
    for (i, (v, s)) in vecs.iter().zip(&scheduled).enumerate() {
        let r = sim.run_vector(v).expect("event engine simulates");
        assert_eq!(
            s.outputs, r.outputs,
            "{context}: schedule outputs diverged at vector {i}"
        );
        assert_eq!(
            (s.latency.to_bits(), s.completed_at.to_bits()),
            (r.latency.to_bits(), r.completed_at.to_bits()),
            "{context}: schedule timing diverged at vector {i}: {} vs {} ns",
            s.latency,
            r.latency
        );
    }
    let (outputs, stats) = pl_sim::measure_latency_on(pl, delays, vecs).expect("measures");
    assert!(outputs.iter().zip(&scheduled).all(|(o, s)| *o == s.outputs));
    assert!(stats
        .per_vector
        .iter()
        .zip(&scheduled)
        .all(|(l, s)| l.to_bits() == s.latency.to_bits()));
}

/// Asserts all three engines agree on `pl` for `vecs` under `delays`:
/// the reference engine within one tick, per-vector and streamed, and the
/// static schedule exactly.
fn assert_engines_agree(pl: &PlNetlist, vecs: &[Vec<bool>], delays: &DelayModel, context: &str) {
    let mut new_sim = PlSimulator::new(pl, delays.clone()).expect("new engine builds");
    let mut ref_sim = ReferenceSimulator::new(pl, delays.clone()).expect("reference builds");
    for (i, v) in vecs.iter().enumerate() {
        let rn = new_sim.run_vector(v).expect("new engine simulates");
        let rr = ref_sim.run_vector(v).expect("reference simulates");
        assert_eq!(
            rn.outputs, rr.outputs,
            "{context}: outputs diverged at vector {i}"
        );
        assert!(
            (rn.latency - rr.latency).abs() < LATENCY_TOL_NS,
            "{context}: latency diverged at vector {i}: {} vs {}",
            rn.latency,
            rr.latency
        );
    }
    assert_schedule_exact(pl, vecs, delays, context);
    // Pipelined stream from a fresh state.
    let mut new_sim = PlSimulator::new(pl, delays.clone()).expect("new engine builds");
    let mut ref_sim = ReferenceSimulator::new(pl, delays.clone()).expect("reference builds");
    let sn = new_sim.run_stream(vecs).expect("new engine streams");
    let sr = ref_sim.run_stream(vecs).expect("reference streams");
    assert_eq!(
        sn.outputs, sr.outputs,
        "{context}: streamed outputs diverged"
    );
    assert!(
        (sn.makespan - sr.makespan).abs() < LATENCY_TOL_NS,
        "{context}: makespan diverged: {} vs {}",
        sn.makespan,
        sr.makespan
    );
}

#[test]
fn itc99_small_benchmarks_bit_identical() {
    for id in ["b01", "b02", "b03", "b06", "b09", "b10"] {
        let (plain, ee) = itc99_netlists(id);
        let vecs = vectors(plain.input_gates().len(), 16, seed_for(id, 0xA5A5));
        let delays = DelayModel::default();
        assert_engines_agree(&plain, &vecs, &delays, &format!("{id} plain"));
        assert_engines_agree(&ee, &vecs, &delays, &format!("{id} ee"));
    }
}

#[test]
fn itc99_medium_benchmarks_bit_identical() {
    for id in ["b04", "b05", "b11", "b12"] {
        let (plain, ee) = itc99_netlists(id);
        let vecs = vectors(plain.input_gates().len(), 6, seed_for(id, 0xB0B0));
        let delays = DelayModel::default();
        assert_engines_agree(&plain, &vecs, &delays, &format!("{id} plain"));
        assert_engines_agree(&ee, &vecs, &delays, &format!("{id} ee"));
    }
}

/// The two largest designs through all three engines at a few vectors.
#[test]
fn itc99_large_benchmarks_bit_identical() {
    for id in ["b14", "b15"] {
        let (plain, ee) = itc99_netlists(id);
        let vecs = vectors(plain.input_gates().len(), 3, seed_for(id, 0xB1B1));
        let delays = DelayModel::default();
        assert_engines_agree(&plain, &vecs, &delays, &format!("{id} plain"));
        assert_engines_agree(&ee, &vecs, &delays, &format!("{id} ee"));
    }
}

/// The exactness gate of the static schedule on the whole ITC'99 suite:
/// b01 through b15, plain and with EE, tick for tick against the event
/// engine under every delay model.
#[test]
fn schedule_bit_identical_on_itc99_suite() {
    for bench in pl_itc99::catalog() {
        let (plain, ee) = itc99_netlists(bench.id);
        let vecs = vectors(plain.input_gates().len(), 12, seed_for(bench.id, 0x5C4E));
        for (delays, name) in delay_models() {
            let context = |variant| format!("{} {variant}, {name}", bench.id);
            assert_schedule_exact(&plain, &vecs, &delays, &context("plain"));
            assert_schedule_exact(&ee, &vecs, &delays, &context("ee"));
        }
    }
}

/// The delay models the randomized suites run under: the default, the
/// all-zero model (every event ties on one tick) and an odd scaling.
fn delay_models() -> [(DelayModel, &'static str); 3] {
    [
        (DelayModel::default(), "default"),
        (DelayModel::zero(), "zero"),
        (DelayModel::default().scaled(0.37), "scaled 0.37"),
    ]
}

/// One random mapped netlist from the LCG stream — the exact generator
/// behind `pl_flow::CircuitSource::Random` (one definition, so this
/// suite's workload can never desynchronize from the flow's), LUT4-mapped
/// — or `None` when the draw fails validation.
fn random_mapped_netlist(rng: &mut Lcg) -> Option<Netlist> {
    let n = pl_flow::random_netlist_draw(rng)?;
    Some(map_to_lut4(&n, &MapOptions::default()).expect("maps"))
}

/// Random synchronous circuits (the `prop_flow` recipe generator, driven
/// by a plain LCG so the whole suite stays deterministic without dev-deps)
/// through all three engines under every delay model.
#[test]
fn randomized_netlists_bit_identical() {
    let mut rng = Lcg::new(0xF00D_FACE_CAFE_0001);
    let mut tested = 0;
    while tested < 25 {
        let Some(mapped) = random_mapped_netlist(&mut rng) else {
            continue;
        };
        let plain = PlNetlist::from_sync(&mapped).expect("PL maps");
        let ee = PlNetlist::from_sync(&mapped)
            .expect("PL maps")
            .with_early_evaluation(&EeOptions::default())
            .into_netlist();
        let vecs = vectors(mapped.inputs().len(), 12, rng.next_u64());
        for (delays, name) in delay_models() {
            assert_engines_agree(&plain, &vecs, &delays, &format!("random plain, {name}"));
            assert_engines_agree(&ee, &vecs, &delays, &format!("random ee, {name}"));
        }
        tested += 1;
    }
}

/// The memoized word-parallel search must return candidate lists identical
/// to the pre-refactor per-assignment search on every compute gate of a
/// real design (the exact stream `with_early_evaluation` issues).
#[test]
fn memoized_search_identical_on_itc99_gates() {
    for id in ["b05", "b11"] {
        let (plain, _) = itc99_netlists(id);
        let levels = plain.arrival_levels();
        let mut cache = TriggerCache::new();
        let mut gates_checked = 0;
        for (idx, gate) in plain.gates().iter().enumerate() {
            if let PlGateKind::Compute { table } = gate.kind() {
                let arr = plain.pin_arrivals(PlGateId::from_index(idx), &levels);
                let memoized = cache.search(table, &arr).to_vec();
                let direct = search_triggers_baseline(table, &arr);
                assert_eq!(memoized, direct, "{id}: gate {idx} candidates diverged");
                gates_checked += 1;
            }
        }
        assert!(gates_checked > 0, "{id}: no compute gates checked");
        assert!(
            cache.hits() > 0,
            "{id}: netlist workload should repeat LUT classes"
        );
    }
}

/// Memoized search equals direct search on random LUT4 masters (the
/// acceptance wording: identical candidates for random LUT4s).
#[test]
fn memoized_search_identical_on_random_lut4s() {
    let mut rng = Lcg::new(0x7121_66E2);
    let mut cache = TriggerCache::new();
    for _ in 0..300 {
        let master = pl_boolfn::TruthTable::from_bits(4, rng.next_u64() & 0xFFFF);
        let arrivals: Vec<u32> = (0..4).map(|_| rng.below(6) as u32).collect();
        assert_eq!(
            cache.search(&master, &arrivals).to_vec(),
            search_triggers_baseline(&master, &arrivals),
            "candidates diverged for {master:?} arrivals {arrivals:?}"
        );
    }
}

// ---- parallel-vs-sequential determinism -------------------------------
//
// The parallel sweep subsystem (`pl_sim::parallel`) must be a pure
// wall-clock optimization: for every worker count its merged results are
// bit-identical — outputs AND f64 latencies/makespans compared exactly,
// no tolerance — to the sequential single-simulator run of the same
// schedule.

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Sequential baseline for [`pl_sim::sweep_streams`]: one private
/// simulator per stream, run in stream order on the calling thread.
fn sequential_streams(pl: &PlNetlist, streams: &[Vec<Vec<bool>>]) -> Vec<pl_sim::StreamOutcome> {
    streams
        .iter()
        .map(|s| {
            PlSimulator::new(pl, DelayModel::default())
                .expect("builds")
                .run_stream(s)
                .expect("streams")
        })
        .collect()
}

/// Asserts the parallel sweep is bit-identical to the sequential engine
/// on `pl` at every worker count, for both sweep shapes.
fn assert_parallel_matches_sequential(pl: &PlNetlist, streams: &[Vec<Vec<bool>>], context: &str) {
    let delays = DelayModel::default();
    let sequential = sequential_streams(pl, streams);
    for jobs in WORKER_COUNTS {
        let par = pl_sim::sweep_streams(pl, &delays, streams, jobs)
            .unwrap_or_else(|e| panic!("{context}: sweep failed at jobs={jobs}: {e}"));
        // StreamOutcome derives PartialEq over outputs, makespan and
        // throughput — this is an exact (bitwise f64) comparison.
        assert_eq!(par, sequential, "{context}: jobs={jobs} diverged");
    }
    // Sharded single-stream sweep: shard boundaries are jobs-independent,
    // so every worker count must reproduce the jobs=1 merge exactly.
    let flat: Vec<Vec<bool>> = streams.iter().flatten().cloned().collect();
    if !flat.is_empty() {
        let shard_len = (flat.len() / 3).max(1);
        let baseline = pl_sim::sweep_sharded(pl, &delays, &flat, shard_len, 1).expect("shards");
        for jobs in WORKER_COUNTS {
            let par = pl_sim::sweep_sharded(pl, &delays, &flat, shard_len, jobs)
                .unwrap_or_else(|e| panic!("{context}: sharded sweep failed at jobs={jobs}: {e}"));
            assert_eq!(par, baseline, "{context}: sharded jobs={jobs} diverged");
        }
    }
}

/// Per-benchmark deterministic stream set (a few independent streams of
/// varying length, like a multi-seed sweep would issue).
fn sweep_streams_for(pl: &PlNetlist, id: &str) -> Vec<Vec<Vec<bool>>> {
    (0..3)
        .map(|k| {
            vectors(
                pl.input_gates().len(),
                4 + 2 * k,
                seed_for(id, 0xC0DE + k as u64),
            )
        })
        .collect()
}

/// The full ITC'99 suite — b01 through b15, plain and with EE — swept in
/// parallel at 1/2/4/8 workers must be bit-identical to the sequential
/// engine.
#[test]
fn parallel_sweep_bit_identical_on_itc99_suite() {
    for bench in pl_itc99::catalog() {
        let (plain, ee) = itc99_netlists(bench.id);
        let streams = sweep_streams_for(&plain, bench.id);
        assert_parallel_matches_sequential(&plain, &streams, &format!("{} plain", bench.id));
        assert_parallel_matches_sequential(&ee, &streams, &format!("{} ee", bench.id));
    }
}

/// Randomized netlists through the same parallel-vs-sequential harness.
#[test]
fn parallel_sweep_bit_identical_on_random_netlists() {
    let mut rng = Lcg::new(0x5CA7_7E86_A7DE_0002);
    let mut tested = 0;
    while tested < 12 {
        let Some(mapped) = random_mapped_netlist(&mut rng) else {
            continue;
        };
        let plain = PlNetlist::from_sync(&mapped).expect("PL maps");
        let ee = PlNetlist::from_sync(&mapped)
            .expect("PL maps")
            .with_early_evaluation(&EeOptions::default())
            .into_netlist();
        let streams: Vec<Vec<Vec<bool>>> = (0..4)
            .map(|k| vectors(mapped.inputs().len(), 3 + k, rng.next_u64()))
            .collect();
        assert_parallel_matches_sequential(&plain, &streams, "random plain");
        assert_parallel_matches_sequential(&ee, &streams, "random ee");
        tested += 1;
    }
}

// ---- checkpoint/resume + resumable streamed-run determinism ------------
//
// A checkpoint (`pl_sim::SimCheckpoint`, the schedule's state between two
// feeds) must be invisible to the simulation: a stream split at any
// vector, encoded, decoded and restored into a fresh schedule returns
// exactly the unsplit `run_stream` result, and the crash-resumable
// streamed run built on it (`pl_sim::sweep_resumable` — the cursor fed
// window by window with a checkpoint at every boundary) must reproduce
// the event engine's `run_stream` exactly — outputs AND f64
// makespans/throughputs compared bitwise — at every window size,
// uninterrupted or killed after any journal append and resumed.

/// Asserts that splitting the schedule's stream of `vecs` after every
/// vector — snapshot, wire encode, decode, restore into a fresh schedule,
/// feed the rest — reproduces the unsplit `run_stream` exactly (words,
/// makespan and throughput bits) under every delay model, and that the
/// snapshots never perturb the split stream.
fn assert_checkpoint_resume_identical(pl: &PlNetlist, vecs: &[Vec<bool>], context: &str) {
    let bits = |o: pl_sim::StreamOutcome| (o.outputs, o.makespan.to_bits(), o.throughput.to_bits());
    for (delays, name) in delay_models() {
        let context = format!("{context}, {name}");
        let want = LatencySchedule::<bool>::new(pl, delays.clone())
            .expect("builds")
            .run_stream(vecs)
            .map(bits)
            .unwrap_or_else(|e| panic!("{context}: streams: {e}"));
        let mut live = LatencySchedule::<bool>::new(pl, delays.clone()).expect("builds");
        live.start_stream();
        let mut words = Vec::new();
        for split in 0..=vecs.len() {
            if split > 0 {
                words.extend(live.feed(&vecs[split - 1..split]).expect("feeds"));
            }
            let bytes = live.snapshot().to_bytes(&delays);
            let ck = SimCheckpoint::from_bytes(&bytes, pl, &delays)
                .unwrap_or_else(|e| panic!("{context}: split at {split}: decode: {e}"));
            assert_eq!(ck.rounds(), split as u64, "{context}: rounds miscounted");
            let mut resumed = LatencySchedule::<bool>::new(pl, delays.clone()).expect("builds");
            resumed.restore(&ck).expect("checkpoint restores");
            let mut all = words.clone();
            all.extend(resumed.feed(&vecs[split..]).expect("feeds"));
            let got = resumed.finish(all).map(bits);
            assert_eq!(
                got.as_ref(),
                Ok(&want),
                "{context}: resumed after {split} vectors"
            );
        }
        let got = live.finish(words).map(bits);
        assert_eq!(
            got.as_ref(),
            Ok(&want),
            "{context}: snapshots perturbed the stream"
        );
    }
}

/// A unique per-test scratch directory, removed on drop.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("pl_eq_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Asserts the resumable sweep reproduces a fresh `run_stream` bitwise on
/// `pl` at every window size given: for each possible journal-append
/// count `k`, a run halted after `k` appends (or, at `k` = the window
/// count, one that completes) and then resumed must equal the baseline —
/// and so must the completing run itself. The sweep runs on the static
/// schedule and the baseline on the event engine, so this is a
/// cross-engine check.
fn assert_resumable_matches_run_stream(
    pl: &PlNetlist,
    vecs: &[Vec<bool>],
    windows: &[usize],
    context: &str,
) {
    let delays = DelayModel::default();
    let baseline = PlSimulator::new(pl, delays.clone())
        .expect("builds")
        .run_stream(vecs)
        .expect("streams");
    let same = |got: &pl_sim::StreamOutcome, what: &str| {
        assert_eq!(got.outputs, baseline.outputs, "{context}: {what}: outputs");
        assert_eq!(
            (got.makespan.to_bits(), got.throughput.to_bits()),
            (baseline.makespan.to_bits(), baseline.throughput.to_bits()),
            "{context}: {what}: makespan/throughput"
        );
    };
    for &window in windows {
        let n_windows = vecs.len().div_ceil(window);
        for halt in 0..=n_windows {
            let what = format!("window={window} halt after {halt} appends");
            let dir = TempDir::new(&format!("{}_{window}_{halt}", context.replace(' ', "_")));
            let opts = ResumableOptions {
                window,
                resume: false,
            };
            let faults = FaultPlan::new();
            faults.halt_after_journal_appends(halt as u64);
            match pl_sim::sweep_resumable_with_faults(pl, &delays, vecs, &dir.0, &opts, &faults) {
                Ok(done) if halt == n_windows => same(&done.outcome, &what),
                Err(SimError::CheckpointIo { ref path, .. })
                    if halt < n_windows && path == "<fault-injection>" => {}
                other => panic!("{context}: {what}: unexpected first run {other:?}"),
            }
            let resumed = pl_sim::sweep_resumable(
                pl,
                &delays,
                vecs,
                &dir.0,
                &ResumableOptions {
                    resume: true,
                    ..opts
                },
            )
            .unwrap_or_else(|e| panic!("{context}: {what}: resume failed: {e}"));
            assert_eq!(
                resumed.recovery.replayed_from_journal, halt,
                "{context}: {what}: journal prefix"
            );
            assert!(
                resumed.recovery.corrupt_files.is_empty(),
                "{context}: {what}: {}",
                resumed.recovery
            );
            same(&resumed.outcome, &what);
        }
    }
}

/// Checkpoint/resume across the full ITC'99 suite, plain and with EE, at
/// three delay models.
#[test]
fn checkpoint_resume_bit_identical_on_itc99_suite() {
    for bench in pl_itc99::catalog() {
        let (plain, ee) = itc99_netlists(bench.id);
        let vecs = vectors(plain.input_gates().len(), 6, seed_for(bench.id, 0xCEC4));
        assert_checkpoint_resume_identical(&plain, &vecs, &format!("{} plain", bench.id));
        assert_checkpoint_resume_identical(&ee, &vecs, &format!("{} ee", bench.id));
    }
}

/// Resumable-vs-sequential across the full ITC'99 suite (plain + EE):
/// the single-vector window, two interior sizes, and a window larger than
/// the whole stream, each killed after every possible journal append.
/// The benchmarks are scattered across the host's cores.
#[test]
fn resumable_sweep_bit_identical_on_itc99_suite() {
    let catalog = pl_itc99::catalog();
    pl_sim::scatter_gather(0, &catalog, |_, bench| {
        let (plain, ee) = itc99_netlists(bench.id);
        let vecs = vectors(plain.input_gates().len(), 9, seed_for(bench.id, 0x9199));
        let windows = [1, 2, 5, vecs.len() + 5];
        assert_resumable_matches_run_stream(
            &plain,
            &vecs,
            &windows,
            &format!("{} plain", bench.id),
        );
        assert_resumable_matches_run_stream(&ee, &vecs, &windows, &format!("{} ee", bench.id));
    });
}

/// A resumable run's checkpoints hold the schedule's state between two
/// rounds, which depends on the netlist only: on a long b14 stream every
/// `window-k.ck` has exactly the size of `window-1.ck`, however many words
/// were recorded before it.
#[test]
fn resumable_checkpoints_stay_bounded_on_b14() {
    let (plain, ee) = itc99_netlists("b14");
    let window = 4;
    let vecs = vectors(
        plain.input_gates().len(),
        32 * window,
        seed_for("b14", 0xB0DD),
    );
    for (pl, variant) in [(&plain, "plain"), (&ee, "ee")] {
        let dir = TempDir::new(&format!("bounded_{variant}"));
        let opts = ResumableOptions {
            window,
            resume: false,
        };
        let out = pl_sim::sweep_resumable(pl, &DelayModel::default(), &vecs, &dir.0, &opts)
            .expect("sweeps");
        assert_eq!(out.recovery.windows, 32);
        let size = |k: usize| {
            std::fs::metadata(dir.0.join(format!("window-{k:08}.ck")))
                .unwrap_or_else(|e| panic!("{variant}: window-{k}.ck: {e}"))
                .len()
        };
        for k in 2..32 {
            assert_eq!(
                size(k),
                size(1),
                "{variant}: window-{k}.ck differs in size from window-1.ck"
            );
        }
    }
}

/// Randomized netlists through the checkpoint harness and the resumable
/// streamed run, killed after every possible journal append.
#[test]
fn checkpoint_and_pipelined_bit_identical_on_random_netlists() {
    let mut rng = Lcg::new(0xC4EC_4501_21D0_0003);
    let mut tested = 0;
    while tested < 8 {
        let Some(mapped) = random_mapped_netlist(&mut rng) else {
            continue;
        };
        let plain = PlNetlist::from_sync(&mapped).expect("PL maps");
        let ee = PlNetlist::from_sync(&mapped)
            .expect("PL maps")
            .with_early_evaluation(&EeOptions::default())
            .into_netlist();
        let vecs = vectors(mapped.inputs().len(), 8, rng.next_u64());
        assert_checkpoint_resume_identical(&plain, &vecs, "random plain");
        assert_checkpoint_resume_identical(&ee, &vecs, "random ee");
        let windows = [1, 2, 5, vecs.len() + 5];
        assert_resumable_matches_run_stream(&plain, &vecs, &windows, "random plain");
        assert_resumable_matches_run_stream(&ee, &vecs, &windows, "random ee");
        tested += 1;
    }
}

// ---- word-parallel batch-engine determinism ----------------------------
//
// The 64-lane batch engine (`pl_sim::BatchSimulator`) must be a pure
// throughput optimization: `run_lanes` over up to 64 substreams is
// bit-identical, output word for output word, to running each substream
// on its own scalar simulator from the initial marking. (The contract
// covers values only — the wide EE trigger fires only when *all* lanes
// agree, so per-lane timing may differ from a scalar run.)

use pl_sim::BatchSimulator;
use proptest::prelude::*;

/// Per-benchmark deterministic substream set: `lanes` substreams with
/// ragged lengths (so short lanes exercise the all-false padding).
fn lane_streams_for(pl: &PlNetlist, id: &str, lanes: usize) -> Vec<Vec<Vec<bool>>> {
    (0..lanes)
        .map(|k| {
            vectors(
                pl.input_gates().len(),
                1 + k % 2,
                seed_for(id, 0xBA7C_4000 + k as u64),
            )
        })
        .collect()
}

/// Asserts one `run_lanes` call over `streams` reproduces, lane for lane,
/// the per-substream scalar runs exactly.
fn assert_batch_matches_scalar(pl: &PlNetlist, streams: &[Vec<Vec<bool>>], context: &str) {
    let delays = DelayModel::default();
    let lanes: Vec<&[Vec<bool>]> = streams.iter().map(Vec::as_slice).collect();
    let batch = BatchSimulator::new(pl, delays.clone())
        .expect("batch engine builds")
        .run_lanes(&lanes)
        .unwrap_or_else(|e| panic!("{context}: batch run failed: {e}"));
    assert_eq!(batch.len(), streams.len(), "{context}: outcome count");
    for (lane, (b, s)) in batch.iter().zip(streams).enumerate() {
        let scalar = PlSimulator::new(pl, delays.clone())
            .expect("builds")
            .run_stream(s)
            .expect("streams");
        assert_eq!(
            b.outputs, scalar.outputs,
            "{context}: lane {lane} diverged from its scalar run"
        );
    }
}

/// Full 64-lane blocks across the whole ITC'99 suite — b01 through b15,
/// plain and with EE — must match 64 sequential scalar runs bit for bit.
#[test]
fn batch_engine_bit_identical_on_itc99_suite() {
    for bench in pl_itc99::catalog() {
        let (plain, ee) = itc99_netlists(bench.id);
        let streams = lane_streams_for(&plain, bench.id, 64);
        assert_batch_matches_scalar(&plain, &streams, &format!("{} plain", bench.id));
        assert_batch_matches_scalar(&ee, &streams, &format!("{} ee", bench.id));
    }
}

/// Randomized netlists through the batch-vs-scalar harness, at partial
/// lane occupancy (including empty substreams).
#[test]
fn batch_engine_bit_identical_on_random_netlists() {
    let mut rng = Lcg::new(0xBA7C_4AE5_0000_0007);
    let mut tested = 0;
    while tested < 10 {
        let Some(mapped) = random_mapped_netlist(&mut rng) else {
            continue;
        };
        let plain = PlNetlist::from_sync(&mapped).expect("PL maps");
        let ee = PlNetlist::from_sync(&mapped)
            .expect("PL maps")
            .with_early_evaluation(&EeOptions::default())
            .into_netlist();
        let lanes = 1 + (rng.next_u64() % 64) as usize;
        let streams: Vec<Vec<Vec<bool>>> = (0..lanes)
            .map(|k| vectors(mapped.inputs().len(), k % 5, rng.next_u64()))
            .collect();
        assert_batch_matches_scalar(&plain, &streams, "random plain");
        assert_batch_matches_scalar(&ee, &streams, "random ee");
        tested += 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A batch sweep over a vector count NOT divisible by 64 never
    /// panics: the final ragged block (and ragged substream lengths
    /// inside it) must still match the scalar sweep exactly.
    #[test]
    fn ragged_batch_sweep_matches_scalar(
        seed in any::<u64>(),
        total in 1usize..200,
        jobs in 1usize..5,
    ) {
        prop_assume!(total % 64 != 0);
        let mut rng = Lcg::new(seed);
        let mapped = random_mapped_netlist(&mut rng);
        prop_assume!(mapped.is_some());
        let mapped = mapped.unwrap();
        let pl = PlNetlist::from_sync(&mapped).expect("PL maps");
        let delays = DelayModel::default();
        // Stripe `total` vectors 64 ways like the flow's lane protocol
        // does — the last block is ragged by construction.
        let all = vectors(mapped.inputs().len(), total, rng.next_u64());
        let mut subs: Vec<Vec<Vec<bool>>> = vec![Vec::new(); 64];
        for (i, v) in all.iter().enumerate() {
            subs[i % 64].push(v.clone());
        }
        let batch = pl_sim::sweep_streams_batch(&pl, &delays, &subs, jobs)
            .expect("batch sweep runs");
        let scalar = pl_sim::sweep_streams(&pl, &delays, &subs, jobs)
            .expect("scalar sweep runs");
        prop_assert_eq!(batch.len(), scalar.len());
        for (b, s) in batch.iter().zip(&scalar) {
            prop_assert_eq!(&b.outputs, &s.outputs);
        }
    }
}

/// Golden tripwire: fixed vectors through b01 and b06 (plain + EE) must
/// keep producing exactly these output/latency fingerprints. Guards future
/// engine changes against silent semantic drift even if both engines are
/// touched in lockstep.
#[test]
fn golden_fingerprints_hold() {
    fn fingerprint(pl: &PlNetlist, vecs: &[Vec<bool>]) -> u64 {
        let mut sim = PlSimulator::new(pl, DelayModel::default()).expect("builds");
        let mut h = pl_sim::Fnv64::new();
        for v in vecs {
            let r = sim.run_vector(v).expect("simulates");
            for &b in &r.outputs {
                h.mix(u64::from(b));
            }
            h.mix(pl_sim::ns_to_ticks(r.latency));
        }
        h.finish()
    }
    let mut prints = Vec::new();
    for id in ["b01", "b06"] {
        let (plain, ee) = itc99_netlists(id);
        let vecs = vectors(plain.input_gates().len(), 20, 0x601D);
        prints.push(fingerprint(&plain, &vecs));
        prints.push(fingerprint(&ee, &vecs));
    }
    assert_eq!(
        prints,
        vec![
            0x4768_6560_de16_a7ca,
            0x6553_292b_f2aa_bcea,
            0xb4f7_1eb7_c316_7941,
            0x0511_7133_0a02_e981,
        ],
        "golden fingerprints drifted: {prints:#018x?}"
    );
}
