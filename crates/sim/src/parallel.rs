//! Parallel multi-vector sweeps: deterministic scatter/gather across
//! worker threads.
//!
//! The paper's headline numbers come from sweeping many input vectors over
//! each benchmark; independent sweeps are the classic embarrassingly
//! parallel discrete-event speedup. This module vendors a small
//! work-queue pool built from `std::thread::scope` plus an `mpsc` gather
//! channel — no external dependencies — and exposes these sweep shapes on
//! top of it:
//!
//! * [`sweep_streams`] — N independent vector streams, each run from the
//!   initial marking on a **private** [`LatencySchedule`] over a shared
//!   `&`[`PlNetlist`] (the streamed protocol's static schedule, pinned to
//!   [`PlSimulator::run_stream`] bit for bit). Results come back in
//!   stream order.
//! * [`sweep_sharded`] — ONE long vector stream split into fixed-size
//!   shards. Shard boundaries depend only on the stream length and
//!   `shard_len` — never on the worker count — so the merged
//!   [`StreamOutcome`] is **bit-identical for every `jobs` value**,
//!   including the `jobs = 1` sequential run. With `shard_len >=
//!   vectors.len()` there is exactly one shard and the result equals one
//!   [`LatencySchedule::run_stream`] (and so [`PlSimulator::run_stream`]). Each shard restarts from the
//!   initial marking, so for stateful designs a shard boundary is a reset
//!   (independent experiments, not one long run).
//! * [`sweep_resumable`] ([`resume`]) — ONE long vector stream as one
//!   continuous run, made crash-resumable: the event engine's sequential
//!   [`PlSimulator::run_stream`] fed one window at a time, with a
//!   checkpoint at every window boundary and a journal of completed
//!   windows on disk (atomic write-tmp-then-rename). A killed run resumes
//!   from the newest usable checkpoint; corrupt checkpoint files are
//!   detected (typed [`SimError`]) and routed around. The outcome is
//!   bit-identical to [`PlSimulator::run_stream`]. A continuous stream is
//!   not split across threads: callers parallelize *across* streams (the
//!   flow runs its plain and EE variants concurrently).
//!
//! The independent-stream shape also comes in a **batch** variant
//! ([`sweep_streams_batch`]) that scatters whole 64-stream blocks, each
//! block packed into `u64` lane words and run through one 64-lane
//! [`LatencySchedule`] (pinned to the event engine's
//! [`BatchSimulator::run_lanes`](crate::BatchSimulator::run_lanes)) —
//! the unit of parallel work becomes 64 vectors instead of one,
//! multiplying the throughput of both levels (threads × lanes) while
//! staying bit-identical to the scalar sweep.
//!
//! Determinism is structural, not incidental: workers only *pull* work
//! (item indices from an atomic counter); every result is sent back
//! tagged with its index and the gather side reorders into index order.
//! The engine itself is single-threaded and deterministic, so identical
//! (netlist, delays, vectors, shard_len) inputs give identical outputs
//! regardless of scheduling. `tests/engine_equivalence.rs` pins these
//! shapes at 1/2/4/8 workers across the ITC'99 suite and randomized
//! netlists.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use pl_core::PlNetlist;

use crate::delay::DelayModel;
#[cfg(any(doc, test))]
use crate::engine::PlSimulator;
use crate::engine::{pack_streams, unpack_streams, StreamOutcome};
use crate::error::SimError;
use crate::schedule::LatencySchedule;

pub mod resume;

pub use resume::{
    sweep_resumable, sweep_resumable_with_faults, FaultPlan, ResumableOptions, ResumableOutcome,
    SweepRecovery,
};

/// Resolves a `--jobs`-style request into a concrete worker count:
/// `0` means "ask the OS" ([`std::thread::available_parallelism`]), and
/// the result is clamped to `[1, items]` so no thread is ever spawned
/// without work.
#[must_use]
pub fn effective_jobs(requested: usize, items: usize) -> usize {
    let jobs = if requested == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        requested
    };
    jobs.clamp(1, items.max(1))
}

/// Applies `work` to every item on up to `jobs` worker threads and
/// returns the results **in item order**, regardless of which worker ran
/// what when.
///
/// Scatter is a shared atomic cursor (each worker pulls the next
/// unclaimed index — no pre-partitioning, so an expensive item cannot
/// strand a worker's whole static share); gather is an `mpsc` channel of
/// `(index, result)` pairs reordered into a dense `Vec`. With `jobs <= 1`
/// the items run inline on the caller's thread.
///
/// # Panics
///
/// A panic in `work` is re-raised on the calling thread with its original
/// payload; when several items panic, the lowest item index wins, so the
/// surfaced failure is deterministic across worker counts.
pub fn scatter_gather<T, R, F>(jobs: usize, items: &[T], work: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = effective_jobs(jobs, items.len());
    if jobs <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| work(i, t)).collect();
    }
    // Worker panics are caught and shipped through the gather channel so
    // the caller sees the `work` payload itself (e.g. "flow failed for
    // b14"), not a gather-side unwind about a missing slot. Rethrowing
    // makes AssertUnwindSafe sound here: no caller observes any state the
    // panic may have left half-updated.
    type Caught<R> = std::thread::Result<R>;
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Caught<R>)>();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let cursor = &cursor;
            let work = &work;
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(i, item)));
                if tx.send((i, result)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut slots: Vec<Option<Caught<R>>> = (0..items.len()).map(|_| None).collect();
        for (i, r) in rx {
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|s| {
                s.expect("every index was claimed exactly once")
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    })
}

/// Simulates each independent vector stream on a private
/// [`LatencySchedule`] (fresh initial marking) over the shared netlist,
/// using up to `jobs` workers (`0` = auto). Outcomes are returned in
/// stream order and are bit-identical to running the same streams
/// sequentially through [`PlSimulator::run_stream`], for any worker
/// count.
///
/// # Errors
///
/// Propagates the first failing stream's error, by stream index (so the
/// reported error is deterministic even when several streams fail).
pub fn sweep_streams<S>(
    pl: &PlNetlist,
    delays: &DelayModel,
    streams: &[S],
    jobs: usize,
) -> Result<Vec<StreamOutcome>, SimError>
where
    S: AsRef<[Vec<bool>]> + Sync,
{
    scatter_gather(jobs, streams, |_, stream| {
        LatencySchedule::<bool>::new(pl, delays.clone())?.run_stream(stream.as_ref())
    })
    .into_iter()
    .collect()
}

/// Splits one vector stream into `shard_len`-sized shards (the last may
/// be short), sweeps them with [`sweep_streams`], and merges the shard
/// outcomes vector-index-ordered into one [`StreamOutcome`].
///
/// Each shard starts from the netlist's initial marking, so for stateful
/// designs a shard boundary is a reset — this is the *sweep* semantics
/// (independent experiments), not one long pipelined run. The merged
/// outcome is a pure function of the per-shard outcomes: `outputs` are
/// concatenated in vector order, `makespan` is the slowest shard (the
/// critical path of a fully parallel schedule), and `throughput` counts
/// all vectors against that makespan. `jobs` therefore never changes the
/// result, only the wall-clock time.
///
/// # Errors
///
/// Propagates the first failing shard's error, by shard index.
///
/// # Panics
///
/// Panics if `shard_len` is zero.
pub fn sweep_sharded(
    pl: &PlNetlist,
    delays: &DelayModel,
    vectors: &[Vec<bool>],
    shard_len: usize,
    jobs: usize,
) -> Result<StreamOutcome, SimError> {
    assert!(shard_len > 0, "shard_len must be at least 1");
    let shards: Vec<&[Vec<bool>]> = vectors.chunks(shard_len).collect();
    let outcomes = sweep_streams(pl, delays, &shards, jobs)?;
    let mut merged = StreamOutcome {
        outputs: Vec::with_capacity(vectors.len()),
        makespan: 0.0,
        throughput: f64::INFINITY,
    };
    for o in outcomes {
        merged.outputs.extend(o.outputs);
        merged.makespan = merged.makespan.max(o.makespan);
    }
    if merged.makespan > 0.0 {
        merged.throughput = merged.outputs.len() as f64 / merged.makespan;
    }
    Ok(merged)
}

/// [`sweep_streams`] 64 lanes wide: streams are packed into blocks of up
/// to 64 (exhausted lanes padded with all-false vectors), each block run
/// as one `u64` [`LatencySchedule::run_stream`], and the blocks scattered
/// across up to `jobs` workers. Per-stream outcomes come back in stream
/// order and equal [`BatchSimulator::run_lanes`](crate::BatchSimulator::run_lanes)
/// over each block — outputs bit-identical, vector for vector, to
/// [`sweep_streams`] over the same streams (the lane dimension never
/// changes values — see [`crate::lane`]), timing that of the shared
/// block schedule.
///
/// # Errors
///
/// Propagates the first failing block's error, by block index.
pub fn sweep_streams_batch<S>(
    pl: &PlNetlist,
    delays: &DelayModel,
    streams: &[S],
    jobs: usize,
) -> Result<Vec<StreamOutcome>, SimError>
where
    S: AsRef<[Vec<bool>]> + Sync,
{
    let blocks: Vec<&[S]> = streams.chunks(64).collect();
    let per_block = scatter_gather(jobs, &blocks, |_, block| {
        let lanes: Vec<&[Vec<bool>]> = block.iter().map(AsRef::as_ref).collect();
        let mut schedule = LatencySchedule::<u64>::new(pl, delays.clone())?;
        let wide = schedule.run_stream(&pack_streams(&lanes, pl.input_gates().len())?)?;
        Ok::<_, SimError>(unpack_streams(&wide, &lanes))
    });
    let mut outcomes = Vec::with_capacity(streams.len());
    for block in per_block {
        outcomes.extend(block?);
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::resume::tests::TempDir;
    use super::*;
    use pl_netlist::Netlist;

    fn xor_netlist() -> PlNetlist {
        let mut n = Netlist::new("xor");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_xor2(a, b).unwrap();
        n.set_output("y", g);
        PlNetlist::from_sync(&n).unwrap()
    }

    fn vectors(count: usize, seed: u64) -> Vec<Vec<bool>> {
        let mut x = seed;
        (0..count)
            .map(|_| {
                (0..2)
                    .map(|_| {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        x >> 63 == 1
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn shared_sweep_types_cross_threads() {
        fn ok<T: Send + Sync>() {}
        ok::<PlNetlist>();
        ok::<pl_core::PlAdjacency>();
        ok::<DelayModel>();
        ok::<StreamOutcome>();
        ok::<SimError>();
        fn ok_send<T: Send>() {}
        ok_send::<PlSimulator<'_>>();
    }

    #[test]
    fn scatter_gather_orders_results_by_index() {
        let items: Vec<usize> = (0..100).collect();
        for jobs in [1, 2, 4, 8] {
            let out = scatter_gather(jobs, &items, |i, &x| {
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn worker_panic_payload_reaches_caller_with_lowest_index() {
        let items: Vec<usize> = (0..16).collect();
        let caught = std::panic::catch_unwind(|| {
            scatter_gather(4, &items, |i, &x| {
                if x % 5 == 3 {
                    panic!("item {x} exploded");
                }
                i
            })
        })
        .expect_err("a worker panicked");
        // The original payload — not a gather-side slot invariant — and
        // deterministically the lowest panicking index (3, not 8 or 13).
        let msg = caught
            .downcast_ref::<String>()
            .expect("panic! with format produces a String payload");
        assert_eq!(msg, "item 3 exploded");
    }

    #[test]
    fn effective_jobs_clamps_and_resolves_auto() {
        assert_eq!(effective_jobs(4, 2), 2);
        assert_eq!(effective_jobs(4, 100), 4);
        assert_eq!(effective_jobs(1, 0), 1);
        assert!(effective_jobs(0, 64) >= 1);
    }

    /// Degenerate inputs: no items, one item, and far more workers than
    /// items must all resolve without spawning useless threads and without
    /// changing results.
    #[test]
    fn effective_jobs_degenerate_inputs() {
        // 0 items: still 1 (a worker count of 0 is never returned)...
        assert_eq!(effective_jobs(8, 0), 1);
        assert_eq!(effective_jobs(0, 0), 1);
        // 1 item: exactly one worker regardless of the request.
        assert_eq!(effective_jobs(8, 1), 1);
        assert_eq!(effective_jobs(0, 1), 1);
        // jobs ≫ items: clamped to the item count.
        assert_eq!(effective_jobs(1024, 3), 3);
    }

    #[test]
    fn scatter_gather_degenerate_inputs() {
        // 0 items: no work, no threads, empty result for any jobs value.
        let empty: [usize; 0] = [];
        for jobs in [0, 1, 8] {
            assert!(scatter_gather(jobs, &empty, |_, &x| x).is_empty());
        }
        // 1 item: runs inline on the caller's thread.
        assert_eq!(
            scatter_gather(8, &[41usize], |i, &x| (i, x + 1)),
            vec![(0, 42)]
        );
        // jobs ≫ items: every item claimed exactly once, in order.
        let items: Vec<usize> = (0..3).collect();
        assert_eq!(scatter_gather(64, &items, |_, &x| x * 2), vec![0, 2, 4]);
    }

    /// The streamed (pipelined) sweep over one continuous stream:
    /// [`sweep_resumable`] in `window`-vector windows.
    fn pipelined_sweep(
        pl: &PlNetlist,
        vecs: &[Vec<bool>],
        window: usize,
        tag: &str,
    ) -> Result<StreamOutcome, SimError> {
        let dir = TempDir::new(tag);
        let opts = ResumableOptions {
            window,
            ..ResumableOptions::default()
        };
        sweep_resumable(pl, &DelayModel::default(), vecs, dir.path(), &opts).map(|o| o.outcome)
    }

    /// Unlike the sharded sweep, window boundaries are NOT resets: state
    /// carries across them, so a stateful design (free-running counter)
    /// must behave as one continuous stream.
    #[test]
    fn pipelined_sweep_carries_state_across_windows() {
        let mut n = Netlist::new("cnt");
        let q0 = n.add_dff(false);
        let q1 = n.add_dff(false);
        let n0 = n.add_not(q0).unwrap();
        let t1 = n.add_xor2(q1, q0).unwrap();
        n.set_dff_input(q0, n0).unwrap();
        n.set_dff_input(q1, t1).unwrap();
        n.set_output("q0", q0);
        n.set_output("q1", q1);
        let pl = PlNetlist::from_sync(&n).unwrap();
        let vecs: Vec<Vec<bool>> = (0..8).map(|_| Vec::new()).collect();
        let out = pipelined_sweep(&pl, &vecs, 2, "carry_state").unwrap();
        let counts: Vec<u8> = out
            .outputs
            .iter()
            .map(|w| (u8::from(w[1]) << 1) | u8::from(w[0]))
            .collect();
        assert_eq!(
            counts,
            vec![0, 1, 2, 3, 0, 1, 2, 3],
            "window boundary reset the counter"
        );
    }

    #[test]
    fn pipelined_sweep_empty_stream_matches_run_stream() {
        let pl = xor_netlist();
        let direct = PlSimulator::new(&pl, DelayModel::default())
            .unwrap()
            .run_stream(&[])
            .unwrap();
        let piped = pipelined_sweep(&pl, &[], 4, "empty").unwrap();
        assert_eq!(piped, direct);
        assert!(piped.outputs.is_empty());
    }

    #[test]
    fn pipelined_sweep_errors_deterministically_by_window() {
        let pl = xor_netlist();
        // Vector 5 (window 2 at window-size 2) is malformed; its arity
        // error must win at every window size, as in `run_stream`.
        let mut vecs = vectors(9, 0xEBB);
        vecs[5] = vec![true];
        for window in [1, 2, 4, 9] {
            match pipelined_sweep(&pl, &vecs, window, &format!("arity_{window}")) {
                Err(SimError::InputArityMismatch {
                    got: 1,
                    expected: 2,
                }) => {}
                other => panic!("window={window}: expected the arity error, got {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "window must be at least 1")]
    fn pipelined_sweep_rejects_zero_window() {
        let _ = pipelined_sweep(&xor_netlist(), &vectors(4, 1), 0, "zero_window");
    }

    #[test]
    fn sweep_streams_matches_sequential_for_all_worker_counts() {
        let pl = xor_netlist();
        let delays = DelayModel::default();
        let streams: Vec<Vec<Vec<bool>>> =
            (0..6).map(|k| vectors(5 + k, 0xA11CE + k as u64)).collect();
        let sequential: Vec<StreamOutcome> = streams
            .iter()
            .map(|s| {
                PlSimulator::new(&pl, delays.clone())
                    .unwrap()
                    .run_stream(s)
                    .unwrap()
            })
            .collect();
        for jobs in [1, 2, 4, 8] {
            let par = sweep_streams(&pl, &delays, &streams, jobs).unwrap();
            assert_eq!(par, sequential, "jobs={jobs} diverged");
        }
    }

    #[test]
    fn sharded_sweep_is_jobs_invariant_and_single_shard_equals_run_stream() {
        let pl = xor_netlist();
        let delays = DelayModel::default();
        let vecs = vectors(23, 0xBEEF);
        let baseline = sweep_sharded(&pl, &delays, &vecs, 5, 1).unwrap();
        for jobs in [2, 4, 8] {
            let par = sweep_sharded(&pl, &delays, &vecs, 5, jobs).unwrap();
            assert_eq!(par, baseline, "jobs={jobs} diverged");
        }
        let single = sweep_sharded(&pl, &delays, &vecs, vecs.len(), 4).unwrap();
        let direct = PlSimulator::new(&pl, delays.clone())
            .unwrap()
            .run_stream(&vecs)
            .unwrap();
        assert_eq!(single, direct);
    }

    /// The batch sweep must reproduce the scalar sweep bit for bit — for
    /// any worker count, and across a 64-stream block boundary (65
    /// streams → two blocks, the second holding a single lane) with
    /// ragged stream lengths.
    #[test]
    fn batch_sweep_matches_scalar_sweep_across_block_boundary() {
        let pl = xor_netlist();
        let delays = DelayModel::default();
        let streams: Vec<Vec<Vec<bool>>> = (0..65)
            .map(|k| vectors(1 + k % 5, 0x1A4E + k as u64))
            .collect();
        let scalar = sweep_streams(&pl, &delays, &streams, 1).unwrap();
        for jobs in [1, 2, 4] {
            let batch = sweep_streams_batch(&pl, &delays, &streams, jobs).unwrap();
            assert_eq!(batch.len(), scalar.len());
            for (i, (b, s)) in batch.iter().zip(&scalar).enumerate() {
                assert_eq!(b.outputs, s.outputs, "stream {i} diverged at jobs={jobs}");
            }
        }
    }

    #[test]
    fn batch_sweep_empty_and_single_stream() {
        let pl = xor_netlist();
        let delays = DelayModel::default();
        let empty: Vec<Vec<Vec<bool>>> = Vec::new();
        assert!(sweep_streams_batch(&pl, &delays, &empty, 4)
            .unwrap()
            .is_empty());
        let one = vec![vectors(7, 0xF00)];
        let batch = sweep_streams_batch(&pl, &delays, &one, 4).unwrap();
        let scalar = sweep_streams(&pl, &delays, &one, 1).unwrap();
        assert_eq!(batch[0].outputs, scalar[0].outputs);
    }

    /// A toggle register: `q` flips whenever `t` is set, so every lane's
    /// outputs depend on its whole history.
    fn toggle_netlist() -> PlNetlist {
        let mut n = Netlist::new("toggle");
        let t = n.add_input("t");
        let x = n.add_input("x");
        let q = n.add_dff(false);
        let d = n.add_xor2(q, t).unwrap();
        n.set_dff_input(q, d).unwrap();
        let y = n.add_and2(q, x).unwrap();
        n.set_output("q", q);
        n.set_output("y", y);
        PlNetlist::from_sync(&n).unwrap()
    }

    /// The batch sweep equals `BatchSimulator::run_lanes` over each block
    /// — outputs, makespan and throughput bits — with ragged substreams,
    /// empty substreams, and a block of only empty ones.
    #[test]
    fn batch_sweep_matches_run_lanes_on_ragged_and_empty_streams() {
        let delays = DelayModel::default();
        for pl in [xor_netlist(), toggle_netlist()] {
            let ragged: Vec<Vec<Vec<bool>>> =
                (0..70).map(|k| vectors(k % 7, 0x4A66 + k as u64)).collect();
            let empty: Vec<Vec<Vec<bool>>> = vec![Vec::new(); 3];
            for streams in [&ragged, &empty] {
                let want: Vec<StreamOutcome> = streams
                    .chunks(64)
                    .flat_map(|block| {
                        let lanes: Vec<&[Vec<bool>]> = block.iter().map(Vec::as_slice).collect();
                        crate::BatchSimulator::new(&pl, delays.clone())
                            .unwrap()
                            .run_lanes(&lanes)
                            .unwrap()
                    })
                    .collect();
                let got = sweep_streams_batch(&pl, &delays, streams, 2).unwrap();
                let bits = |o: &[StreamOutcome]| -> Vec<(Vec<Vec<bool>>, u64, u64)> {
                    o.iter()
                        .map(|o| {
                            (
                                o.outputs.clone(),
                                o.makespan.to_bits(),
                                o.throughput.to_bits(),
                            )
                        })
                        .collect()
                };
                assert_eq!(bits(&got), bits(&want));
            }
        }
    }

    #[test]
    fn batch_errors_propagate_deterministically_by_block() {
        let pl = xor_netlist();
        let delays = DelayModel::default();
        // Lane 1 of the first block is malformed; its arity error must
        // win for every worker count.
        let streams: Vec<Vec<Vec<bool>>> = vec![
            vectors(3, 1),
            vec![vec![true]],
            vectors(3, 2),
            vec![vec![false; 5]],
        ];
        for jobs in [1, 2, 4] {
            match sweep_streams_batch(&pl, &delays, &streams, jobs) {
                Err(SimError::InputArityMismatch {
                    got: 1,
                    expected: 2,
                }) => {}
                other => panic!("jobs={jobs}: expected the arity error, got {other:?}"),
            }
        }
    }

    #[test]
    fn errors_propagate_deterministically_by_index() {
        let pl = xor_netlist();
        let delays = DelayModel::default();
        // Streams 1 and 3 are malformed (wrong arity); stream 1's error
        // must win for every worker count.
        let streams: Vec<Vec<Vec<bool>>> = vec![
            vectors(3, 1),
            vec![vec![true]],
            vectors(3, 2),
            vec![vec![false; 5]],
        ];
        for jobs in [1, 2, 4, 8] {
            match sweep_streams(&pl, &delays, &streams, jobs) {
                Err(SimError::InputArityMismatch {
                    got: 1,
                    expected: 2,
                }) => {}
                other => panic!("jobs={jobs}: expected stream 1's arity error, got {other:?}"),
            }
        }
    }
}
