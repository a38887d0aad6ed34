//! Discrete-event simulation of phased-logic netlists.
//!
//! This crate measures what the paper's Table 3 reports: "the average delay
//! time between the presence of a stable input vector and a stable output
//! word" (§4), for phased-logic netlists with and without early evaluation.
//!
//! * [`LatencySchedule`] runs the per-vector latency protocol — each
//!   vector applied once the previous output word is complete, as Table 3
//!   measures it — without an event queue. In that protocol every firing
//!   node fires once per vector, so round `k`'s firing ticks follow a
//!   max-plus recurrence over round `k − 1`'s (a min-max one at
//!   early-evaluation masters: `Produce = min(normal, early)`), evaluated
//!   as one pass per vector over a topological order of the token-free
//!   arcs. [`measure_latency_on`] and [`verify_equivalence`] run on it;
//!   its outputs, latencies and typed errors match consecutive
//!   [`PlSimulator::run_vector`] calls tick for tick, and where the event
//!   engine's outcome would hinge on a same-tick ordering it reports the
//!   error (see [`schedule`] for the recurrence and the tie rules). Its
//!   [`LatencySchedule::run_stream`] runs the streamed protocol the same
//!   way, at one lane or 64, and matches [`PlSimulator::run_stream`] and
//!   [`BatchSimulator::run_lanes`] in words, makespan and throughput.
//! * [`PlSimulator`] plays the marked-graph token game event-by-event under
//!   a configurable [`DelayModel`] (Muller C-element, LUT4, latches, wires,
//!   and the EE overhead C-element). Early-evaluation masters follow the
//!   paper's Figure 2 semantics: when the paired trigger fires with value 1
//!   the master produces its output before its slow inputs arrive, then
//!   performs the token cleanup when they do. Safety (an arc never holds
//!   two tokens) is asserted dynamically on every delivery.
//!
//!   The engine core is integer-timed: events are keyed on `u64`
//!   femtosecond ticks ([`TICKS_PER_NS`], quantized once via
//!   [`DelayModel::to_ticks`]) in one binary min-heap
//!   ([`queue::EventQueue`]) ordered by `(tick, seq)` (steady-state
//!   allocation-free: capacity is retained across rounds);
//!   topology queries go through the frozen CSR adjacency
//!   ([`pl_core::PlAdjacency`]: pin-indexed data-in arcs, ack in-arcs,
//!   out-arcs pre-split into value/ack lists); and firing readiness is
//!   tracked incrementally in per-gate pin bitsets plus an ack counter, so
//!   no arc list is ever re-scanned. One firing's simultaneous token
//!   deliveries dispatch as a single batched queue event. See
//!   [`reference`] for the retained pre-refactor engine that pins these
//!   semantics differentially (`tests/engine_equivalence.rs`) and anchors
//!   the speedup numbers in `BENCH_sim.json`. In production the event
//!   engine runs only traced (VCD) runs; with [`crate::reference`] it is
//!   the differential oracle for [`LatencySchedule`].
//! * The streamed protocol is one sequential run per stream: vectors are
//!   fed without waiting for output words, which measures sustained
//!   throughput. It runs on [`LatencySchedule::run_stream`], the stream
//!   cursor ([`LatencySchedule::start_stream`], [`LatencySchedule::feed`],
//!   [`LatencySchedule::finish`]) run once over every vector.
//!   [`sweep_resumable`] feeds the same cursor one window at a time,
//!   journals every completed window, and writes a checkpoint
//!   ([`checkpoint::wire`]) at each window boundary, so a killed run
//!   resumes from the newest one — bit-identical to `run_stream`.
//! * [`parallel`] scatter/gathers independent work across worker threads
//!   — independent streams ([`sweep_streams`]), reset-per-shard single
//!   streams ([`sweep_sharded`]), or any item list
//!   ([`scatter_gather`], which the flow uses to run its plain and EE
//!   variants concurrently). Outcomes merge deterministically in item
//!   order (bit-identical to the sequential run for any worker count).
//! * [`SimCheckpoint`] captures a stream between two feeds
//!   ([`LatencySchedule::snapshot`]): per-gate firing ticks and output
//!   values, per-master `Produce` ticks and the cursor, with no queue and
//!   nothing in flight. A stream restored from it
//!   ([`LatencySchedule::restore`]) finishes exactly as the unsplit run —
//!   the restart point behind the resumable sweep.
//! * [`SyncSimulator`] is the cycle-accurate synchronous reference; the
//!   [`verify_equivalence`] helper proves that PL mapping and early
//!   evaluation change *timing only*, never values.
//! * [`LatencyStats`] aggregates per-vector latencies into the numbers the
//!   benchmark harness prints.
//!
//! # Word-parallel batch simulation
//!
//! The engine is generic over a [`LaneWord`] payload: [`PlSimulator`] is
//! the 1-lane (`bool`) instantiation, [`BatchSimulator`] the 64-lane
//! (`u64`) one, which marches 64 independent input vectors through a
//! *single* event flow — one schedule, one queue, with every gate
//! evaluation computing all 64 lanes at once by bitwise cofactor
//! reduction over the packed LUT truth table. This works because the
//! token game (which gate fires when) is value-independent in a marked
//! graph, so all lanes share the schedule and only the values are
//! per-lane; see [`lane`] and the engine module docs for the invariants.
//! [`BatchSimulator::run_lanes`] packs up to 64 scalar streams, runs them
//! in lockstep, and unpacks per-lane outcomes that are bit-identical,
//! vector for vector, to 64 sequential scalar runs. The batch sweep
//! ([`sweep_streams_batch`]) scatters whole 64-stream blocks across
//! workers, each block one `u64` [`LatencySchedule::run_stream`] equal to
//! `run_lanes`, which stays its oracle.
//!
//! # Example
//!
//! ```
//! use pl_core::PlNetlist;
//! use pl_netlist::Netlist;
//! use pl_sim::{DelayModel, PlSimulator};
//!
//! let mut n = Netlist::new("andgate");
//! let a = n.add_input("a");
//! let b = n.add_input("b");
//! let g = n.add_and2(a, b)?;
//! n.set_output("y", g);
//! let pl = PlNetlist::from_sync(&n)?;
//! let mut sim = PlSimulator::new(&pl, DelayModel::default())?;
//! let out = sim.run_vector(&[true, true])?;
//! assert_eq!(out.outputs, vec![true]);
//! assert!(out.latency > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
mod delay;
mod engine;
mod error;
pub mod lane;
pub mod parallel;
pub mod queue;
pub mod reference;
pub mod schedule;
mod stats;
mod sync;
pub mod trace;

pub use checkpoint::SimCheckpoint;
pub use delay::{ns_to_ticks, ticks_to_ns, DelayModel, TickDelays, TICKS_PER_NS};
pub use engine::{BatchSimulator, LaneSimulator, PlSimulator, StreamOutcome, VectorOutcome};
pub use error::SimError;
pub use lane::{pack_lanes, LaneWord};
pub use parallel::{
    scatter_gather, sweep_resumable, sweep_resumable_with_faults, sweep_sharded, sweep_streams,
    sweep_streams_batch, FaultPlan, ResumableOptions, ResumableOutcome, SweepRecovery,
};
pub use pl_netlist::Fnv64;
pub use queue::EventQueue;
pub use reference::ReferenceSimulator;
pub use schedule::LatencySchedule;
pub use stats::{measure_latency, measure_latency_on, random_vectors, LatencyStats};
pub use sync::{verify_equivalence, Mismatch, SyncSimulator};
