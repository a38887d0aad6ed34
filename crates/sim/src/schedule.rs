//! Static min-max schedule for the per-vector and streamed protocols.
//!
//! [`measure_latency_on`](crate::measure_latency_on) applies one vector,
//! waits for the whole output word, then applies the next — the paper's
//! Table 3 protocol. In that protocol every firing node fires exactly
//! once per vector, component delays are per-class constants
//! ([`DelayModel`]), and the token-free arcs of a live marked graph form a
//! DAG. So the firing ticks of round `k` are a fixed function of round
//! `k − 1`'s ticks — a **max-plus** recurrence for ordinary gates and a
//! **min-max** recurrence for early-evaluation masters (Baccelli, Cohen,
//! Olsder & Quadrat, *Synchronization and Linearity*, 1992; Gunawardena,
//! "Min-max functions", 1994). [`LatencySchedule`] evaluates it with one
//! levelized pass per vector over a topological order fixed at
//! construction, with no event queue. The streamed protocol runs the same
//! pass; only the round boundary differs (see
//! [below](self#the-streamed-protocol)).
//!
//! # Firing nodes and the recurrence
//!
//! One `Fire` node stands for each input, output and ordinary gate; each
//! EE master splits into a `Produce` node and a `Cleanup` node (the extra
//! Muller C-elements of the paper's Figure 2). With `max` over the round's
//! token arrival ticks (an arc's arrival is its producer's tick plus the
//! wire delay; initially marked arcs carry the previous round's token):
//!
//! * input: `max(start_k, acks, previous fire)`;
//! * ordinary gate: `max(pins, acks, previous fire) + gate`;
//! * output: `max(pins, previous fire) + c_element` — no wait for acks;
//! * EE `Produce`: normal path `N = max(all pins, acks, previous Cleanup)
//!   + ee_master`; when the round's efire value is 1 the early path is
//!   `E = max(efire, subset pins, acks, previous Cleanup) + ee_early`, and
//!   `Produce = min(N, E)`;
//! * EE `Cleanup`: `max(Produce, all pins, efire) + c_element`;
//! * round boundary: `completed_k = max(start_k, output ticks)` and
//!   `start_{k+1} = max(completed_k, input ticks)` — exactly
//!   [`PlSimulator::run_vector`](crate::PlSimulator::run_vector)'s drain
//!   and completion rules.
//!
//! Latencies and output words equal the event engine's tick for tick
//! (`tests/engine_equivalence.rs` pins this bit-exactly).
//!
//! # The streamed protocol
//!
//! [`LatencySchedule::run_stream`] follows
//! [`LaneSimulator::run_stream`](crate::LaneSimulator::run_stream): each
//! feed drains only the previous vector's pending inputs, so the next
//! round starts at `start_{k+1} = max(start_k, input ticks of round k)`
//! instead of after the output word. The makespan is the latest output
//! tick minus the first start (0).
//!
//! `run_stream` is a cursor run once over every vector:
//! [`LatencySchedule::start_stream`], [`LatencySchedule::feed`] (any
//! number of times, returning each vector's word at once) and
//! [`LatencySchedule::finish`]. Between two feeds nothing is in flight:
//! the state is the per-gate and per-master ticks above, the marked arcs'
//! tokens and the cursor's scalars, which [`LatencySchedule::snapshot`]
//! captures in a [`SimCheckpoint`] of fixed size and
//! [`LatencySchedule::restore`] rebuilds. Every rule runs per vector, so a
//! stream split at any vector returns exactly the unsplit `Result`.
//!
//! # Lanes
//!
//! The schedule is generic over the [`LaneWord`] its token values carry.
//! Timing is shared by every lane and only values are per lane, as in
//! the event engine ([`crate::lane`]): a gate evaluates
//! [`LaneWord::eval`], the early-path forced check is
//! [`LaneWord::forced`], and an EE master takes the early path only when
//! its efire word is [`LaneWord::all`] — true in every lane. So a `u64`
//! run equals [`BatchSimulator::run_stream`](crate::BatchSimulator) word
//! for word and in its makespan bits.
//!
//! # Errors and same-tick ties
//!
//! The event engine breaks same-tick ties by posting order, which a static
//! pass reconstructs only in part. Where a tie could decide an error, the
//! schedule takes the stricter reading, so its typed errors are never
//! looser than the engine's:
//!
//! * **[`SimError::UnsoundTrigger`]** — when the early path wins
//!   (`E ≤ N`) at tick `P`, the subset pins count as known and any other
//!   pin arriving at a tick `≥ P` as missing; the master's output must be
//!   forced by the known pins.
//! * **[`SimError::SafetyViolation`]** — a token delivered strictly before
//!   the arc's previous token was consumed is a violation. On a same-tick
//!   tie the event that was posted first is dispatched first: the
//!   delivery is posted at its producer's firing tick, the consumption at
//!   the consumer's firing tick less its component delay (on an EE
//!   master's `N = E` tie, the earlier of the two paths). If the posting
//!   ticks tie too, the delivery is safe only if it is causally after the
//!   consumption: a path from the consuming node to the producing node
//!   whose arcs carry at most `1 − m` initial tokens (`m` = the arc's
//!   marking). This is `pl_core::marked::check_safety`'s path search, run
//!   once per tied arc over firing nodes rather than gates — an EE master
//!   consumes data at `Cleanup` but produces data at `Produce`, so a
//!   circuit that enters a master on a data pin and leaves on its output
//!   proves nothing. A direct reverse arc of complementary marking is the
//!   common one-step case.
//! * The engine stops at its first error and at the end of the run, so
//!   the reported error is the earliest one by tick, and only if it falls
//!   at or before the run's **horizon**, the last tick the engine reaches.
//!   Per vector that is the last completion tick. Streamed, it is the
//!   later of the last word's completion and the drain point of the last
//!   feed (round `n − 2`'s input ticks); a malformed vector `k` is
//!   rejected as it is fed, so the horizon is then the drain point of
//!   feed `k − 1`. A feed returns a noted error as soon as it falls at or
//!   before the feed's drain point, where the engine's feed stops on it.
//! * [`SimError::Deadlock`] and structural errors stay typed, a deadlock
//!   in the engine's two forms: `<pending input never consumed>` when a
//!   feed cannot drain the previous vector's inputs, else the names of
//!   the outputs missing from the first incomplete word. A deadlock
//!   drains every finite event first, so an earlier error wins at any
//!   tick; its `at_time` is the latest token delivery.

use pl_core::adjacency::{GateClass, NO_ARC};
use pl_core::{PlAdjacency, PlArcId, PlArcKind, PlError, PlGateId, PlNetlist};

use crate::checkpoint::{netlist_fingerprint, MasterState, SimCheckpoint};
use crate::delay::{ticks_to_ns, DelayModel, TickDelays};
use crate::engine::{StreamOutcome, VectorOutcome};
use crate::error::SimError;
use crate::lane::LaneWord;

/// Tick of an event that never happens (a token never delivered, a node
/// that never fires); absorbing under `max` and saturating addition.
const NEVER: u64 = u64::MAX;
/// "No node" in the per-gate and per-arc node maps.
const NO_NODE: u32 = u32::MAX;
/// The event engine's `missing_outputs` when a vector's inputs are never
/// consumed.
const PENDING_INPUT: &str = "<pending input never consumed>";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Input,
    Output,
    Gate,
    Produce,
    Cleanup,
}

/// One firing node, compiled: where its gate's token slots lie, where it
/// writes, and the gate's LUT data.
///
/// Every arc has one slot, and the slots a gate consumes are contiguous —
/// data pins `lo..pin_end` (in pin order), then a master's efire slot at
/// `pin_end`, then acknowledges `ack_lo..end` — laid out in firing order,
/// so a pass streams through them.
#[derive(Debug, Clone, Copy)]
struct Step {
    kind: Kind,
    gate: u32,
    lo: u32,
    pin_end: u32,
    ack_lo: u32,
    end: u32,
    /// This node's write positions are `outs[out_lo..out_hi]`.
    out_lo: u32,
    out_hi: u32,
    /// Input port, or output port slot.
    port: u32,
    bits: u64,
    full: u8,
    subset: u8,
    const_mask: u8,
    const_bits: u8,
}

/// The static-schedule evaluator of the per-vector and streamed protocols
/// (see the [module docs](self)), generic over the [`LaneWord`] its token
/// values carry: `bool` for one vector per round, `u64` for 64 lanes.
#[derive(Debug, Clone)]
pub struct LatencySchedule<'a, L: LaneWord = bool> {
    pl: &'a PlNetlist,
    adj: PlAdjacency,
    ticks: TickDelays,
    /// Firing nodes in topological order over the token-free arcs.
    steps: Vec<Step>,
    /// Write positions: an arc's slot, or (initially marked arcs) a
    /// next-round buffer past the slots.
    outs: Vec<u32>,
    /// Per-slot arc id and destination pin (`u8::MAX` off data pins).
    arc_of: Vec<u32>,
    pin_of: Vec<u8>,
    /// `(slot, buffer)` of every initially marked arc, copied into the
    /// slot at each round boundary.
    marked: Vec<(u32, u32)>,
    /// `(port slot, value)` of every constant-driven output.
    const_outputs: Vec<(usize, bool)>,
    /// First firing node of each gate (`Produce` for masters, whose
    /// `Cleanup` is the next id), `NO_NODE` for gates that never fire.
    node_of: Vec<u32>,
    state: State<L>,
    /// Per-arc memo of the same-tick tie check: 0 unknown, 1 safe, 2 not.
    tie_memo: Vec<u8>,
    causal: Option<CausalGraph>,
}

/// The dynamic state of a run.
#[derive(Debug, Clone, PartialEq)]
struct State<L: LaneWord> {
    /// Per-slot (and per-buffer) token arrival tick and value.
    tick: Vec<u64>,
    value: Vec<L>,
    /// Per-slot consumption tick of the previous token, plus one (0: none).
    consumed: Vec<u64>,
    /// Per-slot component delay of the consuming event: the event engine
    /// posts it at its tick less this. Fixed per slot, except a master's
    /// acknowledges, which its `Produce` consumes on either path.
    consumer_delay: Vec<u64>,
    /// Per-gate tick of the last `Fire` (or master `Cleanup`).
    last: Vec<u64>,
    /// Per-master tick of this round's `Produce`.
    produced: Vec<u64>,
    /// Latest finite token-delivery tick so far — a deadlock's `at_time`.
    latest: u64,
    /// Deliveries that landed before (`true`) or on the tick of (`false`)
    /// the previous token's consumption, with the slot and tick.
    suspects: Vec<(u32, u64, bool)>,
    cursor: Cursor,
}

/// The scalars a streamed run carries from one vector to the next (see
/// [`LatencySchedule::feed`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Cursor {
    /// Vectors fed since the stream started.
    pub(crate) fed: u64,
    /// Start tick of the next round: the tick by which every input of the
    /// last fed vector fired (`NEVER` if one never does).
    pub(crate) start: u64,
    /// How far the event engine has run: the drain point of the latest
    /// feed (`None` before the second feed, or without inputs).
    pub(crate) drained_to: Option<u64>,
    /// Completion tick of the last fed vector's word.
    pub(crate) completed_last: Option<u64>,
    /// Latest output tick so far.
    pub(crate) last: u64,
    /// The output slots missing from the first word that never completes.
    pub(crate) missing: Option<Vec<u32>>,
    /// The earliest error noted so far, with its tick.
    pub(crate) first: Option<(u64, SimError)>,
}

impl Cursor {
    /// No error is pending and every word so far completed.
    pub(crate) fn is_clean(&self) -> bool {
        self.first.is_none() && self.missing.is_none()
    }
}

impl<'a, L: LaneWord> LatencySchedule<'a, L> {
    /// Checks the netlist exactly as [`PlSimulator::new`](crate::PlSimulator::new)
    /// does and fixes the firing order.
    ///
    /// # Errors
    ///
    /// [`SimError::Structural`] if the netlist fails `check_pins` or is
    /// not live.
    pub fn new(pl: &'a PlNetlist, delays: DelayModel) -> Result<Self, SimError> {
        pl.check_pins()?;
        pl_core::marked::check_liveness(pl)?;
        let adj = pl.adjacency();
        let n_gates = pl.gates().len();
        let n_arcs = pl.arcs().len();

        // Firing nodes. Input gates fire only through their port.
        let mut port_of = vec![NO_NODE; n_gates];
        for (port, g) in pl.input_gates().iter().enumerate() {
            port_of[g.index()] = port as u32;
        }
        let mut nodes: Vec<(Kind, u32)> = Vec::with_capacity(n_gates);
        let mut node_of = vec![NO_NODE; n_gates];
        for g in 0..n_gates {
            let kind = match adj.gate_class(g) {
                GateClass::Constant => continue,
                GateClass::Input if port_of[g] == NO_NODE => continue,
                GateClass::Input => Kind::Input,
                // Constant-driven outputs have no token traffic.
                GateClass::Output if adj.data_full_mask(g) == 0 => continue,
                GateClass::Output => Kind::Output,
                GateClass::Logic if is_master(&adj, g) => Kind::Produce,
                GateClass::Logic => Kind::Gate,
            };
            node_of[g] = nodes.len() as u32;
            nodes.push((kind, g as u32));
            if kind == Kind::Produce {
                nodes.push((Kind::Cleanup, g as u32));
            }
        }

        // Token-free arcs order producer before reader; a master's
        // Produce reads every in-arc and precedes its Cleanup.
        let mut succ: Vec<Vec<u32>> = vec![Vec::new(); nodes.len()];
        for (i, &(kind, _)) in nodes.iter().enumerate() {
            if kind == Kind::Produce {
                succ[i].push(i as u32 + 1);
            }
        }
        for (a, arc) in pl.arcs().iter().enumerate() {
            let (from, to) = (producer(&adj, &node_of, a), reader(&adj, &node_of, a));
            if arc.init_tokens() == 0 && from != NO_NODE && to != NO_NODE {
                succ[from as usize].push(to);
            }
        }
        let mut indeg = vec![0u32; nodes.len()];
        for s in succ.iter().flatten() {
            indeg[*s as usize] += 1;
        }
        let mut queue: std::collections::VecDeque<u32> = (0..nodes.len() as u32)
            .filter(|&i| indeg[i as usize] == 0)
            .collect();
        let mut order = Vec::with_capacity(nodes.len());
        while let Some(i) = queue.pop_front() {
            order.push(nodes[i as usize]);
            for &s in &succ[i as usize] {
                indeg[s as usize] -= 1;
                if indeg[s as usize] == 0 {
                    queue.push_back(s);
                }
            }
        }
        if order.len() != nodes.len() {
            // Unreachable after `check_liveness`: a cycle here collapses
            // to a token-free gate cycle. Stay typed regardless.
            let stuck = indeg.iter().position(|&d| d > 0).unwrap_or(0);
            let gate = PlGateId::from_index(nodes[stuck].1 as usize);
            return Err(PlError::ZeroTokenCycle(gate).into());
        }

        // Slots: each gate's consumed arcs, contiguous, in firing order;
        // then the arcs nobody consumes.
        let mut slot_of = vec![NO_NODE; n_arcs];
        let mut arc_of = Vec::with_capacity(n_arcs);
        let mut pin_of = Vec::with_capacity(n_arcs);
        let mut ranges = vec![[0u32; 4]; n_gates];
        let ticks = delays.to_ticks();
        let mut consumer_delay = Vec::with_capacity(n_arcs);
        for &(kind, g) in &order {
            if kind == Kind::Cleanup {
                continue;
            }
            let g = g as usize;
            let pins = adj
                .pin_arcs(g)
                .iter()
                .enumerate()
                .filter(|(_, &a)| a != NO_ARC);
            let efire = (kind == Kind::Produce).then(|| adj.efire_arc(g));
            let acks: &[u32] = match kind {
                Kind::Output => &[],
                _ => adj.ack_in_arcs(g),
            };
            let lo = arc_of.len() as u32;
            let pin_end = lo + pins.clone().count() as u32;
            let ack_lo = pin_end + u32::from(efire.is_some());
            ranges[g] = [lo, pin_end, ack_lo, ack_lo + acks.len() as u32];
            // Who consumes each slot: an input its acks, an output its
            // pins (a C-element), a gate everything, a master its pins and
            // efire at `Cleanup` and its acks at `Produce`.
            let (pin_delay, ack_delay) = match kind {
                Kind::Input => (0, 0),
                Kind::Output => (ticks.c_element, 0),
                Kind::Gate => (ticks.gate, ticks.gate),
                _ => (ticks.c_element, ticks.ee_master),
            };
            consumer_delay.resize(ack_lo as usize, pin_delay);
            consumer_delay.resize(ack_lo as usize + acks.len(), ack_delay);
            let pins = pins.map(|(pin, &a)| (a, pin as u8));
            let rest = efire.iter().chain(acks).map(|&a| (a, u8::MAX));
            for (a, pin) in pins.chain(rest) {
                slot_of[a as usize] = arc_of.len() as u32;
                arc_of.push(a);
                pin_of.push(pin);
            }
        }
        consumer_delay.resize(n_arcs, 0);
        // Netlists built by `from_sync` and the EE transform have none;
        // their tokens are written but never read.
        for (a, slot) in slot_of.iter_mut().enumerate() {
            if *slot == NO_NODE {
                *slot = arc_of.len() as u32;
                arc_of.push(a as u32);
                pin_of.push(u8::MAX);
            }
        }
        let mut write_of = slot_of.clone();
        let mut marked = Vec::new();
        for (a, arc) in pl.arcs().iter().enumerate() {
            if arc.init_tokens() > 0 {
                write_of[a] = (n_arcs + marked.len()) as u32;
                marked.push((slot_of[a], write_of[a]));
            }
        }

        let mut outs = Vec::new();
        let steps = order
            .iter()
            .map(|&(kind, gate)| {
                let g = gate as usize;
                let [lo, pin_end, ack_lo, end] = ranges[g];
                let out_lo = outs.len() as u32;
                if kind != Kind::Cleanup {
                    outs.extend(adj.out_value_arcs(g).iter().map(|&a| write_of[a as usize]));
                }
                if kind != Kind::Produce {
                    outs.extend(adj.out_ack_arcs(g).iter().map(|&a| write_of[a as usize]));
                }
                Step {
                    kind,
                    gate,
                    lo,
                    pin_end,
                    ack_lo,
                    end,
                    out_lo,
                    out_hi: outs.len() as u32,
                    port: match kind {
                        Kind::Input => port_of[g],
                        Kind::Output => adj.output_slot(g),
                        _ => 0,
                    },
                    bits: adj.eval_bits(g),
                    full: adj.data_full_mask(g),
                    subset: adj.subset_mask(g),
                    const_mask: adj.const_pin_mask(g),
                    const_bits: adj.const_value_bits(g),
                }
            })
            .collect();

        let const_outputs = pl
            .output_gates()
            .iter()
            .enumerate()
            .filter_map(|(slot, (_, og))| {
                let gate = &pl.gates()[og.index()];
                let v = gate.const_pin(0).filter(|_| gate.data_in().is_empty())?;
                Some((slot, v))
            })
            .collect();
        let n_slots = n_arcs + marked.len();
        let mut schedule = Self {
            pl,
            ticks,
            steps,
            outs,
            arc_of,
            pin_of,
            marked,
            const_outputs,
            node_of,
            state: State {
                tick: vec![NEVER; n_slots],
                value: vec![L::splat(false); n_slots],
                consumed: vec![0; n_arcs],
                consumer_delay,
                last: vec![0; n_gates],
                produced: vec![0; n_gates],
                latest: 0,
                suspects: Vec::new(),
                cursor: Cursor::default(),
            },
            tie_memo: vec![0; n_arcs],
            causal: None,
            adj,
        };
        schedule.reset();
        Ok(schedule)
    }

    /// Runs `vectors` from the initial marking, one round per vector,
    /// exactly as consecutive [`PlSimulator::run_vector`](crate::PlSimulator::run_vector)
    /// calls on a fresh simulator would: the same output words, and the
    /// same latencies and completion times to the tick.
    ///
    /// # Errors
    ///
    /// [`SimError::InputArityMismatch`] for a wrong-size vector,
    /// [`SimError::Deadlock`], [`SimError::SafetyViolation`] and
    /// [`SimError::UnsoundTrigger`] as the event engine reports them (see
    /// the [module docs](self#errors-and-same-tick-ties)).
    pub fn run(&mut self, vectors: &[Vec<L>]) -> Result<Vec<VectorOutcome<L>>, SimError> {
        match self.run_prefix(vectors) {
            (outcomes, None) => Ok(outcomes),
            (_, Some(e)) => Err(e),
        }
    }

    /// [`LatencySchedule::run`] that also returns the vectors the event
    /// engine would have completed before it met the error: the words of
    /// every round whose completion precedes the error's tick.
    pub(crate) fn run_prefix(
        &mut self,
        vectors: &[Vec<L>],
    ) -> (Vec<VectorOutcome<L>>, Option<SimError>) {
        self.reset();
        let mut first: Option<(u64, SimError)> = None;
        let mut outcomes = Vec::with_capacity(vectors.len());
        let mut completions = Vec::with_capacity(vectors.len());
        let mut start = 0u64;
        // Why the run stopped early, and whether the engine would have
        // drained every finite event before reporting it (a deadlock) or
        // stopped where the last completed vector left it (bad arity).
        let mut stop: Option<(SimError, bool)> = None;
        for v in vectors {
            if let Err(e) = self.check_arity(v) {
                stop = Some((e, false));
                break;
            }
            if start == NEVER {
                stop = Some((self.deadlock(vec![PENDING_INPUT.into()]), true));
                break;
            }
            let (outputs, completed, inputs_done) = self.round(v, start, &mut first);
            if completed == NEVER {
                stop = Some((
                    self.deadlock(self.output_names(&missing_slots(&outputs))),
                    true,
                ));
                break;
            }
            outcomes.push(VectorOutcome {
                outputs: outputs.into_iter().map(|(_, v)| v).collect(),
                latency: ticks_to_ns(completed - start),
                completed_at: ticks_to_ns(completed),
            });
            completions.push(completed);
            // `run_vector` drains the pending inputs, then waits for the
            // whole word.
            start = completed.max(inputs_done);
        }
        if let Some((t, e)) = first {
            let drained = matches!(stop, Some((_, true)));
            if drained || completions.last().is_some_and(|&end| t <= end) {
                let done = completions.iter().take_while(|&&c| c < t).count();
                outcomes.truncate(done);
                return (outcomes, Some(e));
            }
        }
        (outcomes, stop.map(|(e, _)| e))
    }

    /// Streams `vectors` from the initial marking exactly as
    /// [`LaneSimulator::run_stream`](crate::LaneSimulator::run_stream) on a
    /// fresh simulator does: each vector is injected as soon as the
    /// previous one's inputs are consumed, without waiting for output
    /// words. Returns the same output words and the same makespan and
    /// throughput bits (see the [module docs](self#the-streamed-protocol)).
    /// This is the stream cursor run once over every vector:
    /// [`LatencySchedule::start_stream`], [`LatencySchedule::feed`],
    /// [`LatencySchedule::finish`].
    ///
    /// # Errors
    ///
    /// The conditions of [`LatencySchedule::run`], as
    /// [`LaneSimulator::run_stream`](crate::LaneSimulator::run_stream)
    /// reports them: the first error by tick at or before the run's
    /// horizon, and a deadlock in either of the engine's two forms.
    pub fn run_stream(&mut self, vectors: &[Vec<L>]) -> Result<StreamOutcome<L>, SimError> {
        self.start_stream();
        let outputs = self.feed(vectors)?;
        self.finish(outputs)
    }

    /// Starts a streamed run from the initial marking. Feed it with
    /// [`LatencySchedule::feed`] and end it with
    /// [`LatencySchedule::finish`]; between two feeds its whole state is
    /// what [`LatencySchedule::snapshot`] captures.
    pub fn start_stream(&mut self) {
        self.reset();
    }

    /// Feeds `vectors` into the stream started by
    /// [`LatencySchedule::start_stream`] and returns their output words.
    /// Splitting a stream into several feeds, at any vectors, changes
    /// nothing: every rule runs per vector.
    ///
    /// # Errors
    ///
    /// The stream's error at the vector where the event engine's feed
    /// would stop: a malformed vector, inputs that are never consumed, or
    /// a noted error at or before the drain point. The stream is over
    /// after an error.
    pub fn feed(&mut self, vectors: &[Vec<L>]) -> Result<Vec<Vec<L>>, SimError> {
        let has_inputs = !self.pl.input_gates().is_empty();
        let mut words = Vec::with_capacity(vectors.len());
        for v in vectors {
            if let Err(e) = self.check_arity(v) {
                return Err(self.stop(e, false));
            }
            let c = &mut self.state.cursor;
            if c.fed > 0 {
                // Feeding a vector drains the previous one's inputs.
                if c.start == NEVER {
                    let e = self.deadlock(vec![PENDING_INPUT.into()]);
                    return Err(self.stop(e, true));
                }
                if has_inputs {
                    c.drained_to = Some(c.start);
                }
                // The engine's feed stops on an error it drains past.
                if let Some((t, e)) = &c.first {
                    if c.drained_to.is_some_and(|h| *t <= h) {
                        return Err(e.clone());
                    }
                }
            }
            let mut first = self.state.cursor.first.take();
            let (word, completed, inputs_done) = self.round(v, self.state.cursor.start, &mut first);
            let missing = (completed == NEVER).then(|| missing_slots(&word));
            let c = &mut self.state.cursor;
            c.first = first;
            if c.missing.is_none() {
                c.missing = missing;
            }
            c.completed_last = Some(completed);
            c.last = word.iter().fold(c.last, |m, &(t, _)| m.max(t));
            c.start = inputs_done;
            c.fed += 1;
            words.push(word.into_iter().map(|(_, v)| v).collect());
        }
        Ok(words)
    }

    /// Ends the stream: `outputs` are the words [`LatencySchedule::feed`]
    /// returned, in order.
    ///
    /// # Errors
    ///
    /// The earliest noted error if the engine meets it — a word never
    /// completes (a deadlock drains every finite event first), or the
    /// error falls at or before the last word's completion — else the
    /// deadlock of the first word that never completed.
    pub fn finish(&self, outputs: Vec<Vec<L>>) -> Result<StreamOutcome<L>, SimError> {
        let c = &self.state.cursor;
        // The last completion is at or after every drain point; a
        // deadlock drains every finite event first.
        if let Some((t, e)) = &c.first {
            if c.missing.is_some() || c.completed_last.is_some_and(|h| *t <= h) {
                return Err(e.clone());
            }
        }
        if let Some(slots) = &c.missing {
            return Err(self.deadlock(self.output_names(slots)));
        }
        let makespan = ticks_to_ns(c.last);
        Ok(StreamOutcome {
            outputs,
            makespan,
            throughput: if makespan > 0.0 {
                c.fed as f64 / makespan
            } else {
                f64::INFINITY
            },
        })
    }

    /// The stream's scalars between feeds.
    pub(crate) fn cursor(&self) -> &Cursor {
        &self.state.cursor
    }

    /// The error a stream stopping at a feed reports: the earliest noted
    /// one if the engine would have met it — every finite event drained
    /// (`drained`), or it falls at or before the drain point — else `e`.
    fn stop(&self, e: SimError, drained: bool) -> SimError {
        let c = &self.state.cursor;
        match &c.first {
            Some((t, first)) if drained || c.drained_to.is_some_and(|h| *t <= h) => first.clone(),
            _ => e,
        }
    }

    fn check_arity(&self, v: &[L]) -> Result<(), SimError> {
        let expected = self.pl.input_gates().len();
        if v.len() == expected {
            Ok(())
        } else {
            Err(SimError::InputArityMismatch {
                got: v.len(),
                expected,
            })
        }
    }

    /// The names of the outputs in `slots`.
    fn output_names(&self, slots: &[u32]) -> Vec<String> {
        let outputs = self.pl.output_gates();
        slots
            .iter()
            .map(|&s| outputs[s as usize].0.clone())
            .collect()
    }

    /// Back to the initial marking.
    fn reset(&mut self) {
        let st = &mut self.state;
        st.tick.fill(NEVER);
        st.value.fill(L::splat(false));
        for &(slot, _) in &self.marked {
            let arc = &self.pl.arcs()[self.arc_of[slot as usize] as usize];
            st.tick[slot as usize] = 0;
            st.value[slot as usize] = L::splat(arc.init_value());
        }
        st.consumed.fill(0);
        st.last.fill(0);
        st.produced.fill(0);
        st.latest = 0;
        st.cursor = Cursor::default();
    }

    /// One levelized pass: the round with `inputs` applied at `start`.
    /// Returns each output's `(tick, value)`, the completion tick and the
    /// tick by which every input has fired (at least `start`).
    fn round(
        &mut self,
        inputs: &[L],
        start: u64,
        first: &mut Option<(u64, SimError)>,
    ) -> (Vec<(u64, L)>, u64, u64) {
        let t = self.ticks;
        let n_slots = self.arc_of.len();
        let (pin_of, outs) = (&self.pin_of, &self.outs);
        let st = &mut self.state;
        let mut outputs = vec![(NEVER, L::splat(false)); self.pl.output_gates().len()];
        for &(slot, v) in &self.const_outputs {
            outputs[slot] = (start, L::splat(v));
        }
        let mut inputs_done = start;
        for step in &self.steps {
            let g = step.gate as usize;
            let (lo, pin_end) = (step.lo as usize, step.pin_end as usize);
            let (ack_lo, end) = (step.ack_lo as usize, step.end as usize);
            let acks = st.ready(ack_lo..end);
            let (fire, v) = match step.kind {
                Kind::Input => {
                    let fire = acks.max(start).max(st.last[g]);
                    consume(&mut st.consumed[ack_lo..end], fire);
                    st.last[g] = fire;
                    inputs_done = inputs_done.max(fire);
                    (fire, inputs[step.port as usize])
                }
                Kind::Output => {
                    let fire = st.ready(lo..pin_end).max(st.last[g]);
                    let fire = fire.saturating_add(t.c_element);
                    consume(&mut st.consumed[lo..pin_end], fire);
                    st.last[g] = fire;
                    // A token-driven output has one data pin, pin 0.
                    let v = st.value[lo];
                    outputs[step.port as usize] = (fire, v);
                    (fire, v)
                }
                Kind::Gate => {
                    let (ready, pv) = st.pins(lo..pin_end, pin_of);
                    let fire = ready.max(acks).max(st.last[g]).saturating_add(t.gate);
                    consume(&mut st.consumed[lo..end], fire);
                    st.last[g] = fire;
                    (fire, step.eval::<L>(&pv))
                }
                Kind::Produce => {
                    let (ready, pv) = st.pins(lo..pin_end, pin_of);
                    let base = acks.max(st.last[g]);
                    let normal = ready.max(base).saturating_add(t.ee_master);
                    let (mut fire, mut delay) = (normal, t.ee_master);
                    // The early path needs the trigger true in every lane.
                    if st.tick[pin_end] != NEVER && st.value[pin_end].all() {
                        let mut subset = st.tick[pin_end];
                        for (&tick, &pin) in st.tick[lo..pin_end].iter().zip(&pin_of[lo..pin_end]) {
                            if step.subset & (1 << pin) != 0 {
                                subset = subset.max(tick);
                            }
                        }
                        let early = subset.max(base).saturating_add(t.ee_early);
                        if early <= normal {
                            fire = early;
                            // On a tie the earlier-posted event fires.
                            delay = if early == normal {
                                t.ee_early.max(t.ee_master)
                            } else {
                                t.ee_early
                            };
                            if !st.forced_at(step, &pv, early, pin_of) {
                                let master = PlGateId::from_index(g);
                                note(first, early, SimError::UnsoundTrigger { master });
                            }
                        }
                    }
                    consume(&mut st.consumed[ack_lo..end], fire);
                    st.consumer_delay[ack_lo..end].fill(delay);
                    st.produced[g] = fire;
                    (fire, step.eval::<L>(&pv))
                }
                Kind::Cleanup => {
                    // Pins and the efire slot: `lo..=pin_end`.
                    let fire = st.ready(lo..ack_lo).max(st.produced[g]);
                    let fire = fire.saturating_add(t.c_element);
                    consume(&mut st.consumed[lo..ack_lo], fire);
                    st.last[g] = fire;
                    (fire, L::splat(false))
                }
            };
            let at = fire.saturating_add(t.wire);
            if at != NEVER {
                st.latest = st.latest.max(at);
            }
            for &w in &outs[step.out_lo as usize..step.out_hi as usize] {
                let w = w as usize;
                if w < n_slots {
                    // Token-free arc: its consumer runs later in this
                    // pass, so `consumed` still holds the previous
                    // token's consumption.
                    st.check_delivery(w, at, fire);
                }
                st.tick[w] = at;
                st.value[w] = v;
            }
        }
        // Round boundary: marked arcs take the token produced this round.
        for &(slot, buffer) in &self.marked {
            let (slot, buffer) = (slot as usize, buffer as usize);
            let at = st.tick[buffer];
            st.check_delivery(slot, at, at.saturating_sub(t.wire));
            st.tick[slot] = at;
            st.value[slot] = st.value[buffer];
            st.tick[buffer] = NEVER;
        }
        for (slot, at, strict) in std::mem::take(&mut self.state.suspects) {
            let arc = self.arc_of[slot as usize] as usize;
            if strict || !self.tie_is_safe(arc) {
                let producer = self.pl.arcs()[arc].src();
                let e = SimError::SafetyViolation {
                    arc: PlArcId::from_index(arc),
                    producer,
                };
                note(first, at, e);
            }
        }
        let completed = outputs.iter().fold(start, |c, &(t, _)| c.max(t));
        (outputs, completed, inputs_done)
    }

    /// Whether a same-tick tie between the delivery of `a`'s next token
    /// and the consumption of its current one is resolved safely for every
    /// posting order (memoized per arc).
    fn tie_is_safe(&mut self, a: usize) -> bool {
        if self.tie_memo[a] == 0 {
            let n = self.steps.len();
            let causal = self
                .causal
                .get_or_insert_with(|| CausalGraph::new(self.pl, &self.adj, &self.node_of, n));
            let budget = 1 - self.pl.arcs()[a].init_tokens().min(1);
            let safe = causal.path_within(
                consumer(&self.adj, &self.node_of, a),
                producer(&self.adj, &self.node_of, a),
                budget,
            );
            self.tie_memo[a] = if safe { 1 } else { 2 };
        }
        self.tie_memo[a] == 1
    }

    fn deadlock(&self, missing_outputs: Vec<String>) -> SimError {
        SimError::Deadlock {
            at_time: ticks_to_ns(self.state.latest),
            missing_outputs,
        }
    }
}

impl LatencySchedule<'_, bool> {
    /// Captures the streamed run between two feeds (see
    /// [`crate::checkpoint`]). The run itself is untouched.
    #[must_use]
    pub fn snapshot(&self) -> SimCheckpoint {
        let st = &self.state;
        let mut values = vec![false; st.last.len()];
        let mut masters = Vec::new();
        for step in &self.steps {
            let g = step.gate as usize;
            match step.kind {
                Kind::Cleanup => continue,
                Kind::Produce => masters.push(MasterState {
                    gate: step.gate,
                    produced: st.produced[g],
                    ack_delay: if step.ack_lo < step.end {
                        st.consumer_delay[step.ack_lo as usize]
                    } else {
                        self.ticks.ee_master
                    },
                }),
                _ => {}
            }
            if let Some(&w) = self.outs[step.out_lo as usize..step.out_hi as usize].first() {
                values[g] = st.value[w as usize];
            }
        }
        masters.sort_unstable_by_key(|m| m.gate);
        SimCheckpoint {
            fingerprint: netlist_fingerprint(self.pl),
            last: st.last.clone(),
            values,
            masters,
            latest: st.latest,
            cursor: st.cursor.clone(),
        }
    }

    /// Overwrites this schedule's state with a checkpoint's, so the next
    /// [`LatencySchedule::feed`] continues the captured stream. Every
    /// token slot is rebuilt by replaying the last round's writes and
    /// consumptions from the per-gate ticks and values.
    ///
    /// # Errors
    ///
    /// [`SimError::CheckpointDigestMismatch`] if the checkpoint was taken
    /// on another netlist.
    pub fn restore(&mut self, ck: &SimCheckpoint) -> Result<(), SimError> {
        let expected = netlist_fingerprint(self.pl);
        if ck.fingerprint != expected {
            return Err(SimError::CheckpointDigestMismatch {
                what: "netlist fingerprint",
                stored: ck.fingerprint,
                expected,
            });
        }
        self.reset();
        let wire = self.ticks.wire;
        let replay = ck.cursor.fed > 0;
        let st = &mut self.state;
        st.last.clone_from(&ck.last);
        st.latest = ck.latest;
        st.cursor = ck.cursor.clone();
        for step in &self.steps {
            let g = step.gate as usize;
            let (lo, pin_end) = (step.lo as usize, step.pin_end as usize);
            let (ack_lo, end) = (step.ack_lo as usize, step.end as usize);
            let (fire, v, consumed) = match step.kind {
                Kind::Produce => {
                    let m = ck.masters[ck
                        .masters
                        .binary_search_by_key(&step.gate, |m| m.gate)
                        .expect("a checkpoint of this netlist has every master")];
                    st.produced[g] = m.produced;
                    st.consumer_delay[ack_lo..end].fill(m.ack_delay);
                    (m.produced, ck.values[g], ack_lo..end)
                }
                Kind::Cleanup => (st.last[g], false, lo..ack_lo),
                Kind::Input => (st.last[g], ck.values[g], ack_lo..end),
                Kind::Output => (st.last[g], ck.values[g], lo..pin_end),
                Kind::Gate => (st.last[g], ck.values[g], lo..end),
            };
            if replay {
                consume(&mut st.consumed[consumed], fire);
                let at = fire.saturating_add(wire);
                for &w in &self.outs[step.out_lo as usize..step.out_hi as usize] {
                    st.tick[w as usize] = at;
                    st.value[w as usize] = v;
                }
            }
        }
        if replay {
            for &(slot, buffer) in &self.marked {
                let (slot, buffer) = (slot as usize, buffer as usize);
                st.tick[slot] = st.tick[buffer];
                st.value[slot] = st.value[buffer];
                st.tick[buffer] = NEVER;
            }
        }
        Ok(())
    }
}

impl Step {
    fn eval<L: LaneWord>(&self, pv: &L::PinVals) -> L {
        L::eval(self.bits, pv, self.full, self.const_mask, self.const_bits)
    }
}

impl<L: LaneWord> State<L> {
    /// Latest arrival over `slots`.
    fn ready(&self, slots: std::ops::Range<usize>) -> u64 {
        self.tick[slots].iter().fold(0, |r, &x| r.max(x))
    }

    /// Latest arrival over the pin slots `slots`, and their values.
    fn pins(&self, slots: std::ops::Range<usize>, pin_of: &[u8]) -> (u64, L::PinVals) {
        let mut ready = 0;
        let mut pv = L::pv_empty();
        let (ticks, values) = (&self.tick[slots.clone()], &self.value[slots.clone()]);
        for ((&tick, &value), &pin) in ticks.iter().zip(values).zip(&pin_of[slots]) {
            ready = ready.max(tick);
            if pin < 8 {
                L::pv_set(&mut pv, pin, value);
            }
        }
        (ready, pv)
    }

    /// Whether a master's output is forced at an early production at tick
    /// `at`: subset pins known, other pins known only if they arrived
    /// strictly before `at`.
    fn forced_at(&self, step: &Step, pv: &L::PinVals, at: u64, pin_of: &[u8]) -> bool {
        let pins = step.lo as usize..step.pin_end as usize;
        let mut known = step.subset;
        for (&tick, &pin) in self.tick[pins.clone()].iter().zip(&pin_of[pins]) {
            if tick < at {
                known |= 1 << pin;
            }
        }
        known & step.full == step.full
            || L::forced(
                step.bits,
                pv,
                known & step.full,
                step.full,
                step.const_mask,
                step.const_bits,
            )
            .is_some()
    }

    /// Records a suspect if a token arriving in `slot` at tick `at` lands
    /// on or before the consumption of the token it follows.
    fn check_delivery(&mut self, slot: usize, at: u64, posted: u64) {
        let consumed = self.consumed[slot];
        if at != NEVER && at < consumed {
            // Same-tick events dispatch in posting order; only a tie in
            // posting ticks too is left to the causal check.
            let consumer_posted = (consumed - 1).saturating_sub(self.consumer_delay[slot]);
            let tie = at + 1 == consumed && consumer_posted <= posted;
            if !tie || consumer_posted == posted {
                self.suspects.push((slot as u32, at, !tie));
            }
        }
    }
}

/// The output slots that never fire in a round.
fn missing_slots<L>(word: &[(u64, L)]) -> Vec<u32> {
    (0..word.len() as u32)
        .filter(|&s| word[s as usize].0 == NEVER)
        .collect()
}

/// Keeps the earliest error by tick (the first one noted on a tie).
fn note(first: &mut Option<(u64, SimError)>, at: u64, e: SimError) {
    if first.as_ref().is_none_or(|(t, _)| at < *t) {
        *first = Some((at, e));
    }
}

/// Marks the current tokens of `slots` consumed at tick `at`.
fn consume(slots: &mut [u64], at: u64) {
    slots.fill(at.saturating_add(1));
}

fn is_master(adj: &PlAdjacency, g: usize) -> bool {
    adj.gate_class(g) == GateClass::Logic && adj.efire_arc(g) != NO_ARC
}

/// The firing node that produces arc `a`'s tokens: a master makes data
/// and efire tokens at `Produce` and acknowledges at `Cleanup`.
fn producer(adj: &PlAdjacency, node_of: &[u32], a: usize) -> u32 {
    let g = adj.arc_src(a) as usize;
    match node_of[g] {
        NO_NODE => NO_NODE,
        n if is_master(adj, g) && adj.arc_kind(a) == PlArcKind::Ack => n + 1,
        n => n,
    }
}

/// The firing node that consumes arc `a`'s tokens, `NO_NODE` if none
/// does: a master consumes acknowledges at `Produce` and data and efire
/// at `Cleanup`; an output consumes only data, an input only acks.
fn consumer(adj: &PlAdjacency, node_of: &[u32], a: usize) -> u32 {
    let g = adj.arc_dst(a) as usize;
    let n = node_of[g];
    if n == NO_NODE {
        return NO_NODE;
    }
    match (adj.gate_class(g), adj.arc_kind(a)) {
        (GateClass::Input, PlArcKind::Ack) | (GateClass::Output, PlArcKind::Data) => n,
        (GateClass::Logic, PlArcKind::Ack) => n,
        (GateClass::Logic, PlArcKind::Data) if is_master(adj, g) => n + 1,
        (GateClass::Logic, PlArcKind::Data) => n,
        (GateClass::Logic, PlArcKind::Efire) if adj.efire_arc(g) as usize == a => n + 1,
        _ => NO_NODE,
    }
}

/// The first firing node that reads arc `a`'s arrival tick within a
/// round: a master's `Produce` reads every in-arc it consumes.
fn reader(adj: &PlAdjacency, node_of: &[u32], a: usize) -> u32 {
    let g = adj.arc_dst(a) as usize;
    match consumer(adj, node_of, a) {
        n if n != NO_NODE && is_master(adj, g) => node_of[g],
        n => n,
    }
}

/// "Must wait for" edges between firing nodes, weighted by initial
/// tokens: a consumer waits for the producer's token; a master's
/// `Cleanup` waits for its `Produce`, and its next `Produce` for the
/// previous `Cleanup` (weight 1).
#[derive(Debug, Clone)]
struct CausalGraph {
    off: Vec<u32>,
    edges: Vec<(u32, u8)>,
    /// Generation-stamped visited set over `(node, tokens used)`.
    seen: Vec<u32>,
    generation: u32,
}

impl CausalGraph {
    fn new(pl: &PlNetlist, adj: &PlAdjacency, node_of: &[u32], n: usize) -> Self {
        let mut pairs: Vec<(u32, u32, u8)> = Vec::new();
        for (a, arc) in pl.arcs().iter().enumerate() {
            let (from, to) = (producer(adj, node_of, a), consumer(adj, node_of, a));
            if from != NO_NODE && to != NO_NODE {
                pairs.push((from, to, arc.init_tokens().min(1)));
            }
        }
        for (g, &id) in node_of.iter().enumerate() {
            if id != NO_NODE && is_master(adj, g) {
                pairs.push((id, id + 1, 0));
                pairs.push((id + 1, id, 1));
            }
        }
        pairs.sort_unstable();
        let mut off = vec![0u32; n + 1];
        for &(from, _, _) in &pairs {
            off[from as usize + 1] += 1;
        }
        for i in 0..n {
            off[i + 1] += off[i];
        }
        Self {
            off,
            edges: pairs.iter().map(|&(_, to, w)| (to, w)).collect(),
            seen: vec![0; 2 * n],
            generation: 0,
        }
    }

    /// Breadth-first search for a path `from ⇝ to` whose edges carry at
    /// most `budget` (0 or 1) tokens; a zero-length path qualifies.
    fn path_within(&mut self, from: u32, to: u32, budget: u8) -> bool {
        if from == NO_NODE || to == NO_NODE {
            return false;
        }
        if from == to {
            return true;
        }
        self.generation += 1;
        let stamp = self.generation;
        let mut queue = std::collections::VecDeque::from([(from, 0u8)]);
        self.seen[2 * from as usize] = stamp;
        while let Some((node, used)) = queue.pop_front() {
            let range = self.off[node as usize] as usize..self.off[node as usize + 1] as usize;
            for &(next, w) in &self.edges[range] {
                let used = used + w;
                if used > budget {
                    continue;
                }
                if next == to {
                    return true;
                }
                let key = 2 * next as usize + used as usize;
                if self.seen[key] != stamp {
                    self.seen[key] = stamp;
                    queue.push_back((next, used));
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PlSimulator;
    use pl_boolfn::TruthTable;
    use pl_core::ee::EeOptions;
    use pl_netlist::Netlist;

    fn ripple(bits: usize) -> Netlist {
        let mut n = Netlist::new("rca");
        let a: Vec<_> = (0..bits).map(|i| n.add_input(format!("a{i}"))).collect();
        let b: Vec<_> = (0..bits).map(|i| n.add_input(format!("b{i}"))).collect();
        let mut carry = n.add_const(false);
        for i in 0..bits {
            let sum_t = TruthTable::from_fn(3, |m| m.count_ones() % 2 == 1);
            let cry_t = TruthTable::from_fn(3, |m| m.count_ones() >= 2);
            let s = n.add_lut(sum_t, vec![a[i], b[i], carry]).unwrap();
            let c = n.add_lut(cry_t, vec![a[i], b[i], carry]).unwrap();
            n.set_output(format!("s{i}"), s);
            carry = c;
        }
        n.set_output("cout", carry);
        n
    }

    /// An accumulator: registers in a loop with an input-driven update.
    fn accumulator() -> Netlist {
        let mut n = Netlist::new("acc");
        let x = n.add_input("x");
        let en = n.add_input("en");
        let q0 = n.add_dff(false);
        let q1 = n.add_dff(true);
        let s0 = n.add_xor2(q0, x).unwrap();
        let c0 = n.add_and2(q0, x).unwrap();
        let s1 = n.add_xor2(q1, c0).unwrap();
        let d0 = n.add_mux2(en, q0, s0).unwrap();
        let d1 = n.add_mux2(en, q1, s1).unwrap();
        n.set_dff_input(q0, d0).unwrap();
        n.set_dff_input(q1, d1).unwrap();
        n.set_output("q0", q0);
        n.set_output("q1", q1);
        n
    }

    fn vectors(n_inputs: usize, count: usize) -> Vec<Vec<bool>> {
        crate::random_vectors(n_inputs, count, 0x5C4E_D01E)
    }

    /// What the event engine reports for consecutive `run_vector` calls:
    /// the completed vectors, then the error that stopped it.
    fn engine_run(
        pl: &PlNetlist,
        delays: &DelayModel,
        vecs: &[Vec<bool>],
    ) -> (Vec<VectorOutcome>, Option<SimError>) {
        let mut sim = match PlSimulator::new(pl, delays.clone()) {
            Ok(sim) => sim,
            Err(e) => return (Vec::new(), Some(e)),
        };
        let mut done = Vec::new();
        for v in vecs {
            match sim.run_vector(v) {
                Ok(o) => done.push(o),
                Err(e) => return (done, Some(e)),
            }
        }
        (done, None)
    }

    fn schedule_run(
        pl: &PlNetlist,
        delays: &DelayModel,
        vecs: &[Vec<bool>],
    ) -> (Vec<VectorOutcome>, Option<SimError>) {
        match LatencySchedule::new(pl, delays.clone()) {
            Ok(mut s) => s.run_prefix(vecs),
            Err(e) => (Vec::new(), Some(e)),
        }
    }

    /// Same completed prefix (words and timing bits) and the same typed
    /// error, a deadlock's `at_time` included.
    fn assert_same_run(pl: &PlNetlist, delays: &DelayModel, vecs: &[Vec<bool>], context: &str) {
        let (want, want_err) = engine_run(pl, delays, vecs);
        let (got, got_err) = schedule_run(pl, delays, vecs);
        let bits = |o: &[VectorOutcome]| -> Vec<(Vec<bool>, u64, u64)> {
            o.iter()
                .map(|o| {
                    (
                        o.outputs.clone(),
                        o.latency.to_bits(),
                        o.completed_at.to_bits(),
                    )
                })
                .collect()
        };
        assert_eq!(
            bits(&got),
            bits(&want),
            "{context}: completed prefix (errors {got_err:?} vs {want_err:?})"
        );
        assert_eq!(got_err, want_err, "{context}");
    }

    /// Every single-arc deletion of several small nets — most break
    /// liveness, some only safety, a few nothing — must be reported by
    /// the schedule exactly as by the event engine.
    #[test]
    fn arc_removal_faults_match_event_engine() {
        let nets = fault_nets();
        let mut survived = 0;
        for (name, pl) in &nets {
            let vecs = vectors(pl.input_gates().len(), 12);
            for victim in 0..pl.arcs().len() {
                let mut broken = pl.clone();
                broken.inject_remove_arc(PlArcId::from_index(victim));
                for delays in [DelayModel::default(), DelayModel::default().scaled(0.37)] {
                    let context = format!("{name} without arc {victim}");
                    assert_same_run(&broken, &delays, &vecs, &context);
                }
                survived += usize::from(
                    LatencySchedule::<bool>::new(&broken, DelayModel::default()).is_ok(),
                );
            }
        }
        assert!(
            survived > 0,
            "some deletions must pass the structural checks"
        );
    }

    /// An always-firing trigger on each master in turn is caught as the
    /// same `UnsoundTrigger`, after the same completed vectors — for every
    /// stream length, so an early firing after the last output word (which
    /// the event engine never dispatches) is not reported either.
    #[test]
    fn unsound_triggers_match_event_engine() {
        for sync in [ripple(4), accumulator()] {
            let report = PlNetlist::from_sync(&sync)
                .unwrap()
                .with_early_evaluation(&EeOptions::default());
            let pairs: Vec<_> = report
                .pairs()
                .iter()
                .map(|p| (p.master, p.candidate.table.num_vars()))
                .collect();
            let pl = report.into_netlist();
            let vecs = vectors(pl.input_gates().len(), 24);
            for (master, arity) in pairs {
                let mut broken = pl.clone();
                broken.inject_trigger_table(master, TruthTable::ones(arity));
                for delays in [DelayModel::default(), DelayModel::default().scaled(0.37)] {
                    for n in 1..=vecs.len() {
                        let context = format!("{} trigger on {master:?}, {n} vectors", sync.name());
                        assert_same_run(&broken, &delays, &vecs[..n], &context);
                    }
                }
            }
        }
    }

    /// The same-tick tie check against `check_safety`'s gate-level path
    /// search: on plain nets firing nodes are gates, so a tie is provably
    /// safe exactly where the arc lies on a one-token circuit; through EE
    /// masters the firing-node search may only be stricter.
    #[test]
    fn tie_check_agrees_with_structural_safety() {
        let ee = |n: &Netlist| {
            PlNetlist::from_sync(n)
                .unwrap()
                .with_early_evaluation(&EeOptions::default())
                .into_netlist()
        };
        let nets = [
            (PlNetlist::from_sync(&ripple(3)).unwrap(), true),
            (ee(&ripple(3)), false),
            (PlNetlist::from_sync(&accumulator()).unwrap(), true),
            (ee(&accumulator()), false),
        ];
        let mut unsafe_seen = 0;
        for (pl, plain) in &nets {
            for victim in 0..=pl.arcs().len() {
                let mut net = pl.clone();
                if victim < pl.arcs().len() {
                    net.inject_remove_arc(PlArcId::from_index(victim));
                }
                let Ok(mut s) = LatencySchedule::<bool>::new(&net, DelayModel::default()) else {
                    continue;
                };
                let safe: Vec<bool> = (0..net.arcs().len()).map(|a| s.tie_is_safe(a)).collect();
                match pl_core::marked::check_safety(&net) {
                    Ok(()) if *plain => assert!(safe.iter().all(|&x| x), "arc {victim} removed"),
                    Ok(()) => {}
                    Err(PlError::UnsafeArc(a)) => {
                        assert!(!safe[a.index()], "arc {victim} removed: {a:?} passed");
                        unsafe_seen += 1;
                    }
                    Err(e) => panic!("unexpected {e}"),
                }
                if safe.iter().all(|&x| x) {
                    assert!(pl_core::marked::check_safety(&net).is_ok());
                }
            }
        }
        assert!(unsafe_seen > 0, "some deletions must break safety only");
    }

    #[test]
    fn wrong_arity_stops_after_the_completed_prefix() {
        let pl = PlNetlist::from_sync(&ripple(2)).unwrap();
        let mut vecs = vectors(4, 3);
        vecs.insert(2, vec![true]);
        assert_same_run(&pl, &DelayModel::default(), &vecs, "bad arity");
        let (done, err) = schedule_run(&pl, &DelayModel::default(), &vecs);
        assert_eq!(done.len(), 2);
        assert_eq!(
            err,
            Some(SimError::InputArityMismatch {
                got: 1,
                expected: 4
            })
        );
    }

    #[test]
    fn runs_restart_from_the_initial_marking() {
        let pl = PlNetlist::from_sync(&accumulator()).unwrap();
        let vecs = vectors(2, 10);
        let mut s = LatencySchedule::new(&pl, DelayModel::default()).unwrap();
        let first = s.run(&vecs).unwrap();
        assert_eq!(s.run(&vecs).unwrap(), first);
        assert_eq!(s.run(&[]).unwrap(), Vec::new());
    }

    // ---- the streamed protocol, at both widths ---------------------------

    /// The 64-lane stream the `lanes_*` tests feed: every lane carries the
    /// scalar vector in two rounds of three, so EE masters meet all-lanes
    /// triggers and take the early path; the third round scrambles the
    /// lanes.
    fn lane_words(vecs: &[Vec<bool>]) -> Vec<Vec<u64>> {
        let mut x = 0x1A4E_5EEDu64;
        vecs.iter()
            .enumerate()
            .map(|(r, v)| {
                v.iter()
                    .map(|&b| {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        u64::splat(b) ^ if r % 3 == 2 { x } else { 0 }
                    })
                    .collect()
            })
            .collect()
    }

    /// The schedule's `run_stream` reports exactly what the event engine's
    /// does on a fresh simulator: the same words and makespan/throughput
    /// bits, or the same typed error (a deadlock's `at_time` included).
    fn assert_same_stream<L: LaneWord>(
        pl: &PlNetlist,
        delays: &DelayModel,
        vecs: &[Vec<L>],
        context: &str,
    ) {
        let want = crate::LaneSimulator::<L>::new(pl, delays.clone())
            .and_then(|mut sim| sim.run_stream(vecs));
        let got =
            LatencySchedule::<L>::new(pl, delays.clone()).and_then(|mut s| s.run_stream(vecs));
        let bits = |o: &StreamOutcome<L>| {
            (
                o.outputs.clone(),
                o.makespan.to_bits(),
                o.throughput.to_bits(),
            )
        };
        match (&got, &want) {
            (Ok(g), Ok(w)) => assert_eq!(bits(g), bits(w), "{context}"),
            _ => assert_eq!(got, want, "{context}"),
        }
    }

    /// The nets whose every single-arc deletion the fault tests try.
    fn fault_nets() -> [(&'static str, PlNetlist); 4] {
        let ee = |n: &Netlist| {
            PlNetlist::from_sync(n)
                .unwrap()
                .with_early_evaluation(&EeOptions::default())
                .into_netlist()
        };
        [
            ("ripple", PlNetlist::from_sync(&ripple(3)).unwrap()),
            ("ripple ee", ee(&ripple(3))),
            ("acc", PlNetlist::from_sync(&accumulator()).unwrap()),
            ("acc ee", ee(&accumulator())),
        ]
    }

    fn stream_arc_removal(widen: impl Fn(&[Vec<bool>]) -> StreamCase) {
        for (name, pl) in &fault_nets() {
            let vecs = vectors(pl.input_gates().len(), 12);
            let case = widen(&vecs);
            for victim in 0..pl.arcs().len() {
                let mut broken = pl.clone();
                broken.inject_remove_arc(PlArcId::from_index(victim));
                for delays in [DelayModel::default(), DelayModel::default().scaled(0.37)] {
                    case.assert_same(&broken, &delays, &format!("{name} without arc {victim}"));
                }
            }
        }
    }

    fn stream_unsound_triggers(widen: impl Fn(&[Vec<bool>]) -> StreamCase) {
        for sync in [ripple(4), accumulator()] {
            let report = PlNetlist::from_sync(&sync)
                .unwrap()
                .with_early_evaluation(&EeOptions::default());
            let pairs: Vec<_> = report
                .pairs()
                .iter()
                .map(|p| (p.master, p.candidate.table.num_vars()))
                .collect();
            let pl = report.into_netlist();
            let vecs = vectors(pl.input_gates().len(), 24);
            for (master, arity) in pairs {
                let mut broken = pl.clone();
                broken.inject_trigger_table(master, TruthTable::ones(arity));
                for delays in [DelayModel::default(), DelayModel::default().scaled(0.37)] {
                    for n in 0..=vecs.len() {
                        let context = format!("{} trigger on {master:?}, {n} vectors", sync.name());
                        widen(&vecs[..n]).assert_same(&broken, &delays, &context);
                        // A malformed vector after them: only errors the
                        // engine met while draining earlier feeds count.
                        let mut bad = vecs[..n].to_vec();
                        bad.push(vec![true]);
                        widen(&bad).assert_same(&broken, &delays, &format!("{context}, then bad"));
                    }
                }
            }
        }
    }

    fn stream_wrong_arity(widen: impl Fn(&[Vec<bool>]) -> StreamCase) {
        let pl = PlNetlist::from_sync(&ripple(2)).unwrap();
        for at in 0..4 {
            let mut vecs = vectors(4, 3);
            vecs.insert(at, vec![true]);
            widen(&vecs).assert_same(&pl, &DelayModel::default(), &format!("bad arity at {at}"));
        }
    }

    /// A stream at either width.
    enum StreamCase {
        Scalar(Vec<Vec<bool>>),
        Lanes(Vec<Vec<u64>>),
    }

    impl StreamCase {
        fn scalar(vecs: &[Vec<bool>]) -> Self {
            Self::Scalar(vecs.to_vec())
        }

        fn lanes(vecs: &[Vec<bool>]) -> Self {
            Self::Lanes(lane_words(vecs))
        }

        fn assert_same(&self, pl: &PlNetlist, delays: &DelayModel, context: &str) {
            match self {
                Self::Scalar(v) => assert_same_stream(pl, delays, v, context),
                Self::Lanes(v) => assert_same_stream(pl, delays, v, context),
            }
        }
    }

    /// Every single-arc deletion is reported by the streamed schedule
    /// exactly as by the event engine's `run_stream`.
    #[test]
    fn stream_arc_removal_faults_match_event_engine() {
        stream_arc_removal(StreamCase::scalar);
    }

    #[test]
    fn lanes_arc_removal_faults_match_event_engine() {
        stream_arc_removal(StreamCase::lanes);
    }

    /// Always-firing triggers, at every stream length, with and without a
    /// malformed vector after the stream: an early firing past the run's
    /// horizon is not reported, one inside it is.
    #[test]
    fn stream_unsound_triggers_match_event_engine() {
        stream_unsound_triggers(StreamCase::scalar);
    }

    #[test]
    fn lanes_unsound_triggers_match_event_engine() {
        stream_unsound_triggers(StreamCase::lanes);
    }

    /// A malformed vector at every position: the engine rejects it when
    /// feeding it, after draining the previous feeds only.
    #[test]
    fn stream_wrong_arity_stops_at_the_feed() {
        stream_wrong_arity(StreamCase::scalar);
    }

    #[test]
    fn lanes_wrong_arity_stops_at_the_feed() {
        stream_wrong_arity(StreamCase::lanes);
    }

    // ---- split streams: the cursor checkpointed at every vector ------------

    /// A stream's `Result` with its timing as bits.
    fn outcome_bits(
        r: &Result<StreamOutcome, SimError>,
    ) -> Result<(Vec<Vec<bool>>, u64, u64), SimError> {
        r.clone()
            .map(|o| (o.outputs, o.makespan.to_bits(), o.throughput.to_bits()))
    }

    /// Splits the stream after every vector: the live cursor is
    /// snapshotted, encoded, decoded and restored into a fresh schedule,
    /// whose state must equal the live one field for field, and which
    /// feeds the rest. Every split returns exactly the unsplit `Result`.
    fn assert_split_anywhere(
        pl: &PlNetlist,
        delays: &DelayModel,
        vecs: &[Vec<bool>],
        context: &str,
    ) {
        let Ok(mut whole) = LatencySchedule::<bool>::new(pl, delays.clone()) else {
            return;
        };
        let want = outcome_bits(&whole.run_stream(vecs));
        let mut live = LatencySchedule::<bool>::new(pl, delays.clone()).unwrap();
        live.start_stream();
        let mut words = Vec::new();
        for split in 0..=vecs.len() {
            let context = format!("{context}, split at {split}");
            if split > 0 {
                match live.feed(&vecs[split - 1..split]) {
                    Ok(w) => words.extend(w),
                    Err(e) => {
                        assert_eq!(Err(e), want, "{context}: the feed's error");
                        return;
                    }
                }
            }
            let bytes = live.snapshot().to_bytes(delays);
            let ck = SimCheckpoint::from_bytes(&bytes, pl, delays)
                .unwrap_or_else(|e| panic!("{context}: decode: {e}"));
            let mut resumed = LatencySchedule::<bool>::new(pl, delays.clone()).unwrap();
            resumed.restore(&ck).unwrap();
            assert_eq!(resumed.state, live.state, "{context}: restored state");
            let got = resumed.feed(&vecs[split..]).and_then(|rest| {
                let mut all = words.clone();
                all.extend(rest);
                resumed.finish(all)
            });
            assert_eq!(outcome_bits(&got), want, "{context}");
        }
        assert_eq!(outcome_bits(&live.finish(words)), want, "{context}: live");
    }

    #[test]
    fn split_stream_arc_removal_faults_match_unsplit() {
        for (name, pl) in &fault_nets() {
            let vecs = vectors(pl.input_gates().len(), 12);
            for victim in 0..pl.arcs().len() {
                let mut broken = pl.clone();
                broken.inject_remove_arc(PlArcId::from_index(victim));
                for delays in [DelayModel::default(), DelayModel::default().scaled(0.37)] {
                    let context = format!("{name} without arc {victim}");
                    assert_split_anywhere(&broken, &delays, &vecs, &context);
                }
            }
        }
    }

    /// Always-firing triggers, with and without a malformed vector after
    /// the stream: the pending error crosses every split.
    #[test]
    fn split_stream_unsound_triggers_match_unsplit() {
        for sync in [ripple(4), accumulator()] {
            let report = PlNetlist::from_sync(&sync)
                .unwrap()
                .with_early_evaluation(&EeOptions::default());
            let pairs: Vec<_> = report
                .pairs()
                .iter()
                .map(|p| (p.master, p.candidate.table.num_vars()))
                .collect();
            let pl = report.into_netlist();
            let vecs = vectors(pl.input_gates().len(), 24);
            let mut bad = vecs.clone();
            bad.push(vec![true]);
            for (master, arity) in pairs {
                let mut broken = pl.clone();
                broken.inject_trigger_table(master, TruthTable::ones(arity));
                for delays in [DelayModel::default(), DelayModel::default().scaled(0.37)] {
                    let context = format!("{} trigger on {master:?}", sync.name());
                    assert_split_anywhere(&broken, &delays, &vecs, &context);
                    assert_split_anywhere(&broken, &delays, &bad, &format!("{context}, then bad"));
                }
            }
        }
    }

    #[test]
    fn split_stream_wrong_arity_matches_unsplit() {
        let pl = PlNetlist::from_sync(&ripple(2)).unwrap();
        for at in 0..4 {
            let mut vecs = vectors(4, 3);
            vecs.insert(at, vec![true]);
            let context = format!("bad arity at {at}");
            assert_split_anywhere(&pl, &DelayModel::default(), &vecs, &context);
        }
    }

    #[test]
    fn stream_runs_restart_from_the_initial_marking() {
        let pl = PlNetlist::from_sync(&accumulator()).unwrap();
        let vecs = vectors(2, 10);
        let mut s = LatencySchedule::new(&pl, DelayModel::default()).unwrap();
        let first = s.run_stream(&vecs).unwrap();
        assert_eq!(s.run(&vecs).unwrap().len(), vecs.len());
        assert_eq!(s.run_stream(&vecs).unwrap(), first);
        let empty = s.run_stream(&[]).unwrap();
        assert!(empty.outputs.is_empty() && empty.makespan == 0.0);
        assert_same_stream::<bool>(&pl, &DelayModel::default(), &[], "empty");
        assert_same_stream::<u64>(&pl, &DelayModel::default(), &[], "empty lanes");
    }
}
