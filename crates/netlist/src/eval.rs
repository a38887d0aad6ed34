//! Cycle-accurate reference evaluator for synchronous netlists.
//!
//! [`Evaluator`] simulates a [`Netlist`] exactly as a clocked circuit: each
//! [`Evaluator::step`] presents one primary-input vector, evaluates the
//! combinational logic, samples the primary outputs, and then clocks every
//! flip-flop. The phased-logic simulator in `pl-sim` is verified against
//! this evaluator — PL mapping and early evaluation must never change the
//! produced output stream, only its timing.
//!
//! [`Evaluator::step_lanes`] clocks 64 independent copies of the circuit
//! at once, one per bit of a `u64` lane word, sharing the topological
//! order; the scalar [`Evaluator::step`] stays its oracle.

use crate::analyze::comb_topo_order;
use crate::error::NetlistError;
use crate::graph::{Netlist, NodeId};
use crate::node::NodeKind;
use pl_boolfn::MAX_VARS;

/// Cycle-based simulator of a [`Netlist`].
///
/// # Example
///
/// ```
/// use pl_netlist::{eval::Evaluator, Netlist};
///
/// let mut n = Netlist::new("andgate");
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let g = n.add_and2(a, b)?;
/// n.set_output("y", g);
/// let mut sim = Evaluator::new(&n)?;
/// assert_eq!(sim.step(&[true, true])?, vec![true]);
/// assert_eq!(sim.step(&[true, false])?, vec![false]);
/// # Ok::<(), pl_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Evaluator<'a> {
    netlist: &'a Netlist,
    order: Vec<NodeId>,
    /// Current value of every node's output.
    values: Vec<bool>,
    /// Current flip-flop contents, parallel to `netlist.dffs()`.
    state: Vec<bool>,
    /// The 64-lane machines of [`Evaluator::step_lanes`]: node values and
    /// flip-flop contents, one bit per lane.
    lane_values: Vec<u64>,
    lane_state: Vec<u64>,
    /// The LUTs in topological order, flattened for
    /// [`Evaluator::step_lanes`].
    lane_luts: Vec<LaneLut>,
    cycles: u64,
}

impl<'a> Evaluator<'a> {
    /// Prepares an evaluator; flip-flops take their declared initial values.
    ///
    /// # Errors
    ///
    /// Fails if the netlist does not validate.
    pub fn new(netlist: &'a Netlist) -> Result<Self, NetlistError> {
        netlist.validate()?;
        let order = comb_topo_order(netlist)?;
        let state: Vec<bool> = netlist
            .dffs()
            .iter()
            .map(|&d| match netlist.node(d).kind() {
                NodeKind::Dff { init, .. } => *init,
                _ => unreachable!("dffs() only lists flip-flops"),
            })
            .collect();
        let mut lane_values = vec![0; netlist.len()];
        let mut lane_luts = Vec::new();
        for &id in &order {
            match netlist.node(id).kind() {
                NodeKind::Const { value } => lane_values[id.index()] = splat(*value),
                NodeKind::Lut { table, inputs } => {
                    let mut fanins = [0u32; MAX_VARS];
                    for (f, src) in fanins.iter_mut().zip(inputs) {
                        *f = src.index() as u32;
                    }
                    lane_luts.push(LaneLut {
                        node: id.index() as u32,
                        vars: inputs.len() as u32,
                        bits: table.bits(),
                        fanins,
                    });
                }
                NodeKind::Input { .. } | NodeKind::Dff { .. } => {}
            }
        }
        Ok(Self {
            netlist,
            order,
            values: vec![false; netlist.len()],
            lane_values,
            lane_state: state.iter().map(|&init| splat(init)).collect(),
            lane_luts,
            state,
            cycles: 0,
        })
    }

    /// Number of clock cycles executed so far ([`Evaluator::step`] and
    /// [`Evaluator::step_lanes`] calls).
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Current flip-flop contents (parallel to `netlist.dffs()`).
    #[must_use]
    pub fn state(&self) -> &[bool] {
        &self.state
    }

    /// Overwrites the flip-flop contents (for checkpoint/rollback tests).
    ///
    /// # Panics
    ///
    /// Panics if `state.len()` differs from the flip-flop count.
    pub fn set_state(&mut self, state: &[bool]) {
        assert_eq!(state.len(), self.state.len(), "state width mismatch");
        self.state.copy_from_slice(state);
    }

    /// Runs one clock cycle: applies `inputs` (in primary-input declaration
    /// order), returns the primary outputs (in output declaration order),
    /// then updates every flip-flop.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputArityMismatch`] for a wrong-size vector.
    pub fn step(&mut self, inputs: &[bool]) -> Result<Vec<bool>, NetlistError> {
        let outputs = self.eval_outputs(inputs)?;
        // Clock edge: sample D pins computed by eval_outputs.
        let next: Vec<bool> = self
            .netlist
            .dffs()
            .iter()
            .map(|&d| match self.netlist.node(d).kind() {
                NodeKind::Dff { d: Some(src), .. } => self.values[src.index()],
                _ => unreachable!("validated netlist has driven flip-flops"),
            })
            .collect();
        self.state = next;
        self.cycles += 1;
        Ok(outputs)
    }

    /// [`Evaluator::step`] for 64 independent machines at once: bit `l` of
    /// every input word is machine `l`'s input, bit `l` of every returned
    /// output word its output. The machines share nothing but the netlist;
    /// each flip-flop starts at its declared initial value in every lane.
    /// They are separate from the scalar machine of [`Evaluator::step`]
    /// and [`Evaluator::state`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputArityMismatch`] for a wrong-size vector.
    pub fn step_lanes(&mut self, inputs: &[u64]) -> Result<Vec<u64>, NetlistError> {
        let pis = self.netlist.inputs();
        if inputs.len() != pis.len() {
            return Err(NetlistError::InputArityMismatch {
                got: inputs.len(),
                expected: pis.len(),
            });
        }
        let values = &mut self.lane_values;
        for (&pi, &w) in pis.iter().zip(inputs) {
            values[pi.index()] = w;
        }
        for (&dff, &w) in self.netlist.dffs().iter().zip(&self.lane_state) {
            values[dff.index()] = w;
        }
        for lut in &self.lane_luts {
            let vars = lut.vars as usize;
            let mut words = [0u64; MAX_VARS];
            for (w, &f) in words.iter_mut().zip(&lut.fanins[..vars]) {
                *w = values[f as usize];
            }
            values[lut.node as usize] = eval_lanes(lut.bits, vars, &words);
        }
        for (k, &dff) in self.netlist.dffs().iter().enumerate() {
            match self.netlist.node(dff).kind() {
                NodeKind::Dff { d: Some(src), .. } => self.lane_state[k] = values[src.index()],
                _ => unreachable!("validated netlist has driven flip-flops"),
            }
        }
        self.cycles += 1;
        Ok(self
            .netlist
            .outputs()
            .iter()
            .map(|(_, id)| values[id.index()])
            .collect())
    }

    /// Evaluates the combinational logic for `inputs` *without* clocking the
    /// flip-flops (Mealy-style output inspection).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputArityMismatch`] for a wrong-size vector.
    pub fn eval_outputs(&mut self, inputs: &[bool]) -> Result<Vec<bool>, NetlistError> {
        let pis = self.netlist.inputs();
        if inputs.len() != pis.len() {
            return Err(NetlistError::InputArityMismatch {
                got: inputs.len(),
                expected: pis.len(),
            });
        }
        for (&pi, &v) in pis.iter().zip(inputs) {
            self.values[pi.index()] = v;
        }
        for (k, &dff) in self.netlist.dffs().iter().enumerate() {
            self.values[dff.index()] = self.state[k];
        }
        for &id in &self.order {
            match self.netlist.node(id).kind() {
                NodeKind::Const { value } => self.values[id.index()] = *value,
                NodeKind::Lut { table, inputs } => {
                    let mut m = 0u32;
                    for (i, src) in inputs.iter().enumerate() {
                        if self.values[src.index()] {
                            m |= 1 << i;
                        }
                    }
                    self.values[id.index()] = table.eval(m);
                }
                NodeKind::Input { .. } | NodeKind::Dff { .. } => {}
            }
        }
        Ok(self
            .netlist
            .outputs()
            .iter()
            .map(|(_, id)| self.values[id.index()])
            .collect())
    }

    /// The most recently computed value of an arbitrary node.
    #[must_use]
    pub fn value(&self, id: NodeId) -> bool {
        self.values[id.index()]
    }
}

/// One LUT of [`Evaluator::step_lanes`]'s flattened order (constants are
/// set once, at construction).
#[derive(Debug, Clone)]
struct LaneLut {
    node: u32,
    vars: u32,
    bits: u64,
    fanins: [u32; MAX_VARS],
}

/// The lane word with every lane set to `v`.
fn splat(v: bool) -> u64 {
    if v {
        !0
    } else {
        0
    }
}

/// Evaluates a `vars`-input truth table (minterm bit `i` = input `i`) for
/// 64 lanes at once. Each pair of minterms that differ in input 0 selects
/// one of `0`, `!x0`, `x0`, `!0`; each further input in turn muxes pairs
/// of those words, `2^(vars − 1) − 1` muxes in all.
fn eval_lanes(bits: u64, vars: usize, inputs: &[u64; MAX_VARS]) -> u64 {
    if vars == 0 {
        return splat(bits & 1 == 1);
    }
    let x0 = inputs[0];
    let pair = [0, !x0, x0, !0];
    let mut words = [0u64; 1 << (MAX_VARS - 1)];
    let mut n = 1 << (vars - 1);
    for (j, w) in words[..n].iter_mut().enumerate() {
        *w = pair[(bits >> (2 * j) & 3) as usize];
    }
    for &x in &inputs[1..vars] {
        n /= 2;
        for j in 0..n {
            words[j] = (x & words[2 * j + 1]) | (!x & words[2 * j]);
        }
    }
    words[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_bit_counter_counts() {
        // q0 toggles every cycle; q1 toggles when q0 was 1.
        let mut n = Netlist::new("count2");
        let q0 = n.add_dff(false);
        let q1 = n.add_dff(false);
        let n0 = n.add_not(q0).unwrap();
        let t1 = n.add_xor2(q1, q0).unwrap();
        n.set_dff_input(q0, n0).unwrap();
        n.set_dff_input(q1, t1).unwrap();
        n.set_output("q0", q0);
        n.set_output("q1", q1);
        let mut sim = Evaluator::new(&n).unwrap();
        let mut seq = Vec::new();
        for _ in 0..5 {
            let o = sim.step(&[]).unwrap();
            seq.push((u8::from(o[1]) << 1) | u8::from(o[0]));
        }
        assert_eq!(seq, vec![0, 1, 2, 3, 0]);
        assert_eq!(sim.cycles(), 5);
    }

    #[test]
    fn wrong_input_arity_is_reported() {
        let mut n = Netlist::new("pi");
        let _ = n.add_input("a");
        let mut sim = Evaluator::new(&n).unwrap();
        assert!(matches!(
            sim.step(&[]),
            Err(NetlistError::InputArityMismatch {
                got: 0,
                expected: 1
            })
        ));
    }

    #[test]
    fn constants_drive_logic() {
        let mut n = Netlist::new("const");
        let one = n.add_const(true);
        let a = n.add_input("a");
        let g = n.add_and2(one, a).unwrap();
        n.set_output("y", g);
        let mut sim = Evaluator::new(&n).unwrap();
        assert_eq!(sim.step(&[true]).unwrap(), vec![true]);
        assert_eq!(sim.step(&[false]).unwrap(), vec![false]);
    }

    #[test]
    fn eval_outputs_does_not_clock() {
        let mut n = Netlist::new("hold");
        let a = n.add_input("a");
        let d = n.add_dff(false);
        n.set_dff_input(d, a).unwrap();
        n.set_output("q", d);
        let mut sim = Evaluator::new(&n).unwrap();
        assert_eq!(sim.eval_outputs(&[true]).unwrap(), vec![false]);
        assert_eq!(sim.eval_outputs(&[true]).unwrap(), vec![false]); // unchanged
        assert_eq!(sim.step(&[true]).unwrap(), vec![false]);
        assert_eq!(sim.eval_outputs(&[false]).unwrap(), vec![true]); // clocked once
    }

    /// Every lane of a word step is the scalar machine fed that lane's
    /// bits; lanes fed the same bits agree.
    #[test]
    fn step_lanes_runs_64_independent_counters() {
        let mut n = Netlist::new("count2en");
        let en = n.add_input("en");
        let q0 = n.add_dff(false);
        let q1 = n.add_dff(true);
        let t0 = n.add_xor2(q0, en).unwrap();
        let c = n.add_and2(q0, en).unwrap();
        let t1 = n.add_xor2(q1, c).unwrap();
        n.set_dff_input(q0, t0).unwrap();
        n.set_dff_input(q1, t1).unwrap();
        n.set_output("q0", q0);
        n.set_output("q1", q1);
        let mut wide = Evaluator::new(&n).unwrap();
        let mut lanes: Vec<Evaluator> = (0..64).map(|_| Evaluator::new(&n).unwrap()).collect();
        let mut x = 0x5EED_u64;
        for _ in 0..12 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let out = wide.step_lanes(&[x]).unwrap();
            for (l, sim) in lanes.iter_mut().enumerate() {
                let want = sim.step(&[x >> l & 1 == 1]).unwrap();
                let got: Vec<bool> = out.iter().map(|w| w >> l & 1 == 1).collect();
                assert_eq!(got, want, "lane {l}");
            }
        }
        assert!(matches!(
            wide.step_lanes(&[]),
            Err(NetlistError::InputArityMismatch {
                got: 0,
                expected: 1
            })
        ));
    }

    #[test]
    fn set_state_overrides() {
        let mut n = Netlist::new("s");
        let d = n.add_dff(false);
        let i = n.add_not(d).unwrap();
        n.set_dff_input(d, i).unwrap();
        n.set_output("q", d);
        let mut sim = Evaluator::new(&n).unwrap();
        sim.set_state(&[true]);
        assert_eq!(sim.step(&[]).unwrap(), vec![true]);
    }
}
