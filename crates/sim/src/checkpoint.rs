//! Checkpoints of a streamed run on the static schedule: the state a
//! [`LatencySchedule`] stream carries between two feeds, detached from the
//! netlist borrow so it can cross threads or, encoded by [`wire`], a
//! process boundary.
//!
//! Between two rounds the schedule holds no queue and nothing in flight
//! (see [`crate::schedule`]). A [`SimCheckpoint`] stores what is live at
//! that boundary:
//!
//! * per gate, the tick of its last firing (a master's `Cleanup`) and the
//!   value of its last output token;
//! * per early-evaluation master, the tick of its last `Produce` and the
//!   component delay its acknowledges were consumed with (the early or
//!   the normal path);
//! * the latest token delivery so far (a deadlock's `at_time`) and the
//!   stream cursor: vectors fed, the next round's start, the drain point,
//!   the last completion, the latest output tick, the first incomplete
//!   word's missing outputs, and the earliest noted error with its tick.
//!
//! Every token slot's tick, value and consumption follow from these:
//! [`LatencySchedule::restore`] replays the last round's writes from the
//! per-gate ticks and values, so the restored state equals the live one
//! field for field and its size does not grow with the stream. A stream
//! restored from a checkpoint and fed the remaining vectors returns
//! exactly the `Result` of the unsplit run. This is the restart point
//! behind [`crate::parallel::sweep_resumable`].
//!
//! A checkpoint is bound to its netlist by a fingerprint of the arc
//! topology and gate functions: restoring it onto another design fails
//! with [`SimError::CheckpointDigestMismatch`]. The delay model is bound
//! by the wire encoding's digest; an in-memory restore under a different
//! delay model is the caller's responsibility.
//!
//! [`LatencySchedule`]: crate::LatencySchedule
//! [`LatencySchedule::restore`]: crate::LatencySchedule::restore
//! [`SimError::CheckpointDigestMismatch`]: crate::SimError::CheckpointDigestMismatch

pub mod wire;

use pl_core::{PlArcKind, PlNetlist};
use pl_netlist::Fnv64;

use crate::schedule::Cursor;

/// FNV-1a over the netlist's arc topology (per arc: source gate,
/// destination gate, kind, destination pin), per-gate logic functions,
/// and the input-port / output-slot gate orders — the design identity a
/// checkpoint is bound to. Two different designs that merely share
/// gate/arc/output *counts* hash differently, so a checkpoint cannot be
/// replayed onto them; covering the port/slot orders explicitly keeps
/// the slot-indexed state (missing outputs) bound to the right gates.
pub(crate) fn netlist_fingerprint(pl: &PlNetlist) -> u64 {
    let mut h = Fnv64::new();
    h.mix(pl.gates().len() as u64);
    for gate in pl.gates() {
        h.mix(gate.table().map_or(u64::MAX, |t| t.bits()));
    }
    for arc in pl.arcs() {
        h.mix(arc.src().index() as u64);
        h.mix(arc.dst().index() as u64);
        h.mix(match arc.kind() {
            PlArcKind::Data => 0,
            PlArcKind::Ack => 1,
            PlArcKind::Efire => 2,
        });
        h.mix(arc.dst_pin().map_or(u64::MAX, u64::from));
    }
    for g in pl.input_gates() {
        h.mix(g.index() as u64);
    }
    for (_, g) in pl.output_gates() {
        h.mix(g.index() as u64);
    }
    h.finish()
}

/// One early-evaluation master between two rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MasterState {
    pub(crate) gate: u32,
    /// Tick of its last `Produce`.
    pub(crate) produced: u64,
    /// Component delay of that `Produce` as its acknowledges' consumer.
    pub(crate) ack_delay: u64,
}

/// The state of a streamed [`LatencySchedule`](crate::LatencySchedule) run
/// between two feeds (see the [module docs](self)). Take one with
/// [`LatencySchedule::snapshot`](crate::LatencySchedule::snapshot), resume
/// from it with [`LatencySchedule::restore`](crate::LatencySchedule::restore),
/// and move it across processes with [`SimCheckpoint::to_bytes`] /
/// [`SimCheckpoint::from_bytes`] ([`wire`]). `PartialEq` compares the whole
/// state — the encode→decode identity the wire format's tests pin.
#[derive(Debug, Clone, PartialEq)]
pub struct SimCheckpoint {
    pub(crate) fingerprint: u64,
    /// Per gate: tick of its last firing (0 for gates that never fire).
    pub(crate) last: Vec<u64>,
    /// Per gate: value of its last output token.
    pub(crate) values: Vec<bool>,
    /// Every master, in ascending gate order.
    pub(crate) masters: Vec<MasterState>,
    pub(crate) latest: u64,
    pub(crate) cursor: Cursor,
}

impl SimCheckpoint {
    /// Vectors fed before the snapshot.
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.cursor.fed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::DelayModel;
    use crate::error::SimError;
    use crate::schedule::LatencySchedule;
    use pl_netlist::Netlist;

    fn counter() -> PlNetlist {
        let mut n = Netlist::new("cnt");
        let q0 = n.add_dff(false);
        let q1 = n.add_dff(false);
        let n0 = n.add_not(q0).unwrap();
        let t1 = n.add_xor2(q1, q0).unwrap();
        n.set_dff_input(q0, n0).unwrap();
        n.set_dff_input(q1, t1).unwrap();
        n.set_output("q0", q0);
        n.set_output("q1", q1);
        PlNetlist::from_sync(&n).unwrap()
    }

    fn xor_gate() -> PlNetlist {
        let mut n = Netlist::new("xor");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_xor2(a, b).unwrap();
        n.set_output("y", g);
        PlNetlist::from_sync(&n).unwrap()
    }

    /// A stream resumed from a checkpoint finishes exactly as the
    /// uninterrupted one — on a free-running circuit, whose marked arcs
    /// carry state across every boundary — and taking the snapshot never
    /// perturbs the snapshotted stream.
    #[test]
    fn resume_is_bit_identical_on_stateful_circuit() {
        let pl = counter();
        let delays = DelayModel::default();
        let vecs = vec![Vec::<bool>::new(); 8];
        let want = LatencySchedule::new(&pl, delays.clone())
            .unwrap()
            .run_stream(&vecs)
            .unwrap();

        let mut first = LatencySchedule::new(&pl, delays.clone()).unwrap();
        first.start_stream();
        let mut words = first.feed(&vecs[..3]).unwrap();
        let ck = first.snapshot();
        assert_eq!(ck.rounds(), 3);

        let mut resumed = LatencySchedule::new(&pl, delays).unwrap();
        resumed.restore(&ck).unwrap();
        let mut rest = words.clone();
        rest.extend(resumed.feed(&vecs[3..]).unwrap());
        assert_eq!(resumed.finish(rest).unwrap(), want);

        words.extend(first.feed(&vecs[3..]).unwrap());
        assert_eq!(first.finish(words).unwrap(), want);
    }

    #[test]
    fn restore_reuses_one_simulator_across_checkpoints() {
        let pl = xor_gate();
        let delays = DelayModel::default();
        let mut a = LatencySchedule::new(&pl, delays.clone()).unwrap();
        a.start_stream();
        let ck0 = a.snapshot();
        let r1 = a.feed(&[vec![true, false]]).unwrap();
        let ck1 = a.snapshot();
        let r2 = a.feed(&[vec![true, true]]).unwrap();

        let mut b = LatencySchedule::new(&pl, delays).unwrap();
        b.restore(&ck1).unwrap();
        assert_eq!(b.feed(&[vec![true, true]]).unwrap(), r2);
        b.restore(&ck0).unwrap();
        assert_eq!(b.feed(&[vec![true, false]]).unwrap(), r1);
        assert_eq!(b.snapshot(), ck1);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let ck = LatencySchedule::new(&xor_gate(), DelayModel::default())
            .unwrap()
            .snapshot();
        let big = counter();
        let mut s = LatencySchedule::new(&big, DelayModel::default()).unwrap();
        match s.restore(&ck) {
            Err(SimError::CheckpointDigestMismatch {
                what: "netlist fingerprint",
                ..
            }) => {}
            other => panic!("expected a fingerprint mismatch, got {other:?}"),
        }
    }

    /// Counts are not identity: a different design with the SAME
    /// gate/arc/output counts must still be rejected (the fingerprint
    /// covers arc topology and gate functions, not just sizes).
    #[test]
    fn same_counts_different_design_is_rejected() {
        fn two_input(
            table_of: fn(
                &mut Netlist,
                pl_netlist::NodeId,
                pl_netlist::NodeId,
            ) -> pl_netlist::NodeId,
        ) -> PlNetlist {
            let mut n = Netlist::new("g");
            let a = n.add_input("a");
            let b = n.add_input("b");
            let g = table_of(&mut n, a, b);
            n.set_output("y", g);
            PlNetlist::from_sync(&n).unwrap()
        }
        let xor = two_input(|n, a, b| n.add_xor2(a, b).unwrap());
        let and = two_input(|n, a, b| n.add_and2(a, b).unwrap());
        assert_eq!(xor.gates().len(), and.gates().len());
        assert_eq!(xor.arcs().len(), and.arcs().len());
        let ck = LatencySchedule::new(&xor, DelayModel::default())
            .unwrap()
            .snapshot();
        let mut s = LatencySchedule::new(&and, DelayModel::default()).unwrap();
        assert!(matches!(
            s.restore(&ck),
            Err(SimError::CheckpointDigestMismatch { .. })
        ));
        // The genuinely same design (a separate but identical build) is
        // accepted: the fingerprint identifies the design, not the object.
        let xor_again = two_input(|n, a, b| n.add_xor2(a, b).unwrap());
        let mut s = LatencySchedule::new(&xor_again, DelayModel::default()).unwrap();
        assert!(s.restore(&ck).is_ok());
    }

    #[test]
    fn checkpoint_crosses_threads() {
        fn ok<T: Send + Sync + Clone + std::fmt::Debug>() {}
        ok::<SimCheckpoint>();
    }
}
