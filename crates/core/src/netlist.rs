//! The phased-logic netlist and the synchronous→PL direct mapping.
//!
//! [`PlNetlist::from_sync`] implements the Linder/Harden direct mapping the
//! paper builds on (§1–2): every LUT and flip-flop of a synchronous netlist
//! becomes one PL gate; every wire becomes a *data arc* of a marked graph;
//! flip-flop output arcs carry an initial token holding the reset value.
//! Acknowledge (feedback) arcs are inserted so that every data arc lies on a
//! directed circuit carrying exactly one token — the structural condition
//! for the net to be **live** and **safe** (paper §2). Following the
//! paper's observation that "some output signals need no feedback signal if
//! they are already part of a loop", an ack arc is omitted whenever an
//! existing data path already closes a one-token circuit.

use std::collections::HashMap;

use pl_netlist::{Netlist, NodeId, NodeKind};

use crate::error::PlError;
use crate::gate::{PlArc, PlArcId, PlArcKind, PlGate, PlGateId, PlGateKind};

/// A phased-logic netlist: gates (marked-graph transitions) connected by
/// data/ack arcs (places holding at most one token).
///
/// Build one with [`PlNetlist::from_sync`]; add early evaluation with
/// [`PlNetlist::with_early_evaluation`](crate::ee).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlNetlist {
    pub(crate) name: String,
    pub(crate) gates: Vec<PlGate>,
    pub(crate) arcs: Vec<PlArc>,
    pub(crate) inputs: Vec<PlGateId>,
    pub(crate) outputs: Vec<(String, PlGateId)>,
}

impl PlNetlist {
    /// Maps a synchronous LUT netlist onto phased logic.
    ///
    /// Requirements on `sync`: validated, LUT arity ≤ 4 (the PL gate is a
    /// LUT4 cell — run `pl-techmap` first).
    ///
    /// # Errors
    ///
    /// Returns [`PlError::LutTooWideForPl`] for wider LUTs, or wraps netlist
    /// validation failures.
    pub fn from_sync(sync: &Netlist) -> Result<Self, PlError> {
        sync.validate().map_err(PlError::Netlist)?;
        for (_, node) in sync.iter() {
            if let NodeKind::Lut { inputs, .. } = node.kind() {
                if inputs.len() > 4 {
                    return Err(PlError::LutTooWideForPl {
                        arity: inputs.len(),
                    });
                }
            }
        }

        let mut pl = PlNetlist {
            name: sync.name().to_string(),
            gates: Vec::new(),
            arcs: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
        };

        // 1. Gates.
        let mut map: Vec<Option<PlGateId>> = vec![None; sync.len()];
        for (id, node) in sync.iter() {
            let kind = match node.kind() {
                NodeKind::Input { name } => PlGateKind::Input { name: name.clone() },
                NodeKind::Const { value } => PlGateKind::Constant { value: *value },
                NodeKind::Lut { table, .. } => PlGateKind::Compute { table: *table },
                NodeKind::Dff { init, .. } => PlGateKind::Register { init: *init },
            };
            let g = pl.push_gate(kind, node.name().map(str::to_string));
            map[id.index()] = Some(g);
            if node.is_input() {
                pl.inputs.push(g);
            }
        }
        let gate_of = |id: NodeId| map[id.index()].expect("every sync node mapped");

        // Rings of *directly connected* registers (DFF→DFF with no logic in
        // between) would make every data arc on the ring carry an initial
        // token; the matching acknowledge arcs would then form a token-free
        // cycle — instant deadlock. Hardware PL flows splice slack there;
        // we do the same with an identity buffer gate per ring edge.
        let ring_edges = register_ring_edges(sync);

        // 2. Data arcs (constants tie pins off instead of making arcs).
        for (id, node) in sync.iter() {
            match node.kind() {
                NodeKind::Lut { inputs, .. } => {
                    let dst = gate_of(id);
                    pl.gates[dst.index()].const_pins = vec![None; inputs.len()];
                    for (pin, &src) in inputs.iter().enumerate() {
                        pl.connect_data(sync, gate_of(src), src, dst, pin as u8);
                    }
                }
                NodeKind::Dff { d: Some(src), .. } => {
                    let dst = gate_of(id);
                    pl.gates[dst.index()].const_pins = vec![None];
                    if ring_edges.contains(&(*src, id)) {
                        // Splice a slack buffer: src ─(token)─► buf ─► dst.
                        let init = match sync.node(*src).kind() {
                            NodeKind::Dff { init, .. } => *init,
                            _ => unreachable!("ring edges connect registers"),
                        };
                        let buf = pl.push_gate(
                            PlGateKind::Compute {
                                table: pl_boolfn::TruthTable::from_bits(1, 0b10),
                            },
                            Some(format!("ring_buf_{}", id.index())),
                        );
                        pl.gates[buf.index()].const_pins = vec![None];
                        pl.add_data_arc(gate_of(*src), buf, 0, 1, init);
                        pl.add_data_arc(buf, dst, 0, 0, false);
                    } else {
                        pl.connect_data(sync, gate_of(*src), *src, dst, 0);
                    }
                }
                _ => {}
            }
        }
        // Output sink gates.
        for (name, driver) in sync.outputs() {
            let g = pl.push_gate(PlGateKind::Output { name: name.clone() }, None);
            pl.gates[g.index()].const_pins = vec![None];
            pl.connect_data(sync, gate_of(*driver), *driver, g, 0);
            pl.outputs.push((name.clone(), g));
        }

        // 3. Acknowledge arcs for every data arc not already on a one-token
        //    data circuit.
        pl.insert_feedback_arcs(&[]);
        Ok(pl)
    }

    /// The design name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All gates, indexed by [`PlGateId::index`].
    #[must_use]
    pub fn gates(&self) -> &[PlGate] {
        &self.gates
    }

    /// All arcs, indexed by [`PlArcId::index`].
    #[must_use]
    pub fn arcs(&self) -> &[PlArc] {
        &self.arcs
    }

    /// Looks up one gate.
    #[must_use]
    pub fn gate(&self, id: PlGateId) -> &PlGate {
        &self.gates[id.index()]
    }

    /// Looks up one arc.
    #[must_use]
    pub fn arc(&self, id: PlArcId) -> &PlArc {
        &self.arcs[id.index()]
    }

    /// Environment input gates in port order.
    #[must_use]
    pub fn input_gates(&self) -> &[PlGateId] {
        &self.inputs
    }

    /// Environment output gates in port order.
    #[must_use]
    pub fn output_gates(&self) -> &[(String, PlGateId)] {
        &self.outputs
    }

    /// Number of logic (compute + register) gates — the paper's "PL Gates"
    /// column in Table 3.
    #[must_use]
    pub fn num_logic_gates(&self) -> usize {
        self.gates.iter().filter(|g| g.is_logic()).count()
    }

    /// Number of compute gates (early-evaluation candidates).
    #[must_use]
    pub fn num_compute_gates(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| matches!(g.kind, PlGateKind::Compute { .. }))
            .count()
    }

    /// Number of EE master/trigger pairs present.
    #[must_use]
    pub fn num_ee_pairs(&self) -> usize {
        self.gates.iter().filter(|g| g.ee.is_some()).count()
    }

    /// Number of acknowledge arcs (feedback signals).
    #[must_use]
    pub fn num_ack_arcs(&self) -> usize {
        self.arcs
            .iter()
            .filter(|a| a.kind == PlArcKind::Ack)
            .count()
    }

    /// A 64-bit FNV-1a fingerprint of the full phased-graph content: every
    /// gate (kind, name, tied-off pins, EE pairing) and every arc (endpoints,
    /// kind, marking, pin). Equal content ⇒ equal fingerprint, so the flow
    /// uses it to decide when a retained phased artifact can be reused
    /// verbatim after an incremental recompile.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        const PRIME: u64 = 0x100_0000_01b3;
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let word = |h: &mut u64, w: u64| {
            for b in w.to_le_bytes() {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(PRIME);
            }
        };
        let bytes = |h: &mut u64, s: &[u8]| {
            for &b in s {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(PRIME);
            }
            word(h, s.len() as u64);
        };
        bytes(&mut h, self.name.as_bytes());
        word(&mut h, self.gates.len() as u64);
        for g in &self.gates {
            match &g.kind {
                PlGateKind::Input { name } => {
                    word(&mut h, 1);
                    bytes(&mut h, name.as_bytes());
                }
                PlGateKind::Constant { value } => {
                    word(&mut h, 2);
                    word(&mut h, u64::from(*value));
                }
                PlGateKind::Compute { table } => {
                    word(&mut h, 3);
                    word(&mut h, table.num_vars() as u64);
                    word(&mut h, table.bits());
                }
                PlGateKind::Register { init } => {
                    word(&mut h, 4);
                    word(&mut h, u64::from(*init));
                }
                PlGateKind::Output { name } => {
                    word(&mut h, 5);
                    bytes(&mut h, name.as_bytes());
                }
            }
            match &g.name {
                Some(n) => {
                    word(&mut h, 6);
                    bytes(&mut h, n.as_bytes());
                }
                None => word(&mut h, 7),
            }
            word(&mut h, g.const_pins.len() as u64);
            for cp in &g.const_pins {
                word(&mut h, cp.map_or(2, u64::from));
            }
            match &g.ee {
                Some(ee) => {
                    word(&mut h, 8);
                    word(&mut h, u64::from(ee.trigger.0));
                    word(&mut h, u64::from(ee.efire_arc.0));
                    word(&mut h, ee.subset_pins.len() as u64);
                    for &p in &ee.subset_pins {
                        word(&mut h, u64::from(p));
                    }
                    word(&mut h, ee.trigger_table.num_vars() as u64);
                    word(&mut h, ee.trigger_table.bits());
                }
                None => word(&mut h, 9),
            }
        }
        word(&mut h, self.arcs.len() as u64);
        for a in &self.arcs {
            word(&mut h, u64::from(a.src.0));
            word(&mut h, u64::from(a.dst.0));
            word(
                &mut h,
                match a.kind {
                    PlArcKind::Data => 0,
                    PlArcKind::Ack => 1,
                    PlArcKind::Efire => 2,
                },
            );
            word(&mut h, u64::from(a.init_tokens));
            word(&mut h, u64::from(a.init_value));
            word(&mut h, a.dst_pin.map_or(u64::MAX, u64::from));
        }
        for &i in &self.inputs {
            word(&mut h, u64::from(i.0));
        }
        word(&mut h, self.outputs.len() as u64);
        for (name, g) in &self.outputs {
            bytes(&mut h, name.as_bytes());
            word(&mut h, u64::from(g.0));
        }
        h
    }

    /// Checks that every logic/output gate pin is either tied to a constant
    /// or driven by exactly one data arc, and that every early-evaluation
    /// master's efire reference is an efire arc into that master.
    ///
    /// # Errors
    ///
    /// Returns [`PlError::MissingPinDriver`] for the first floating pin,
    /// [`PlError::DanglingEfire`] for the first miswired master.
    pub fn check_pins(&self) -> Result<(), PlError> {
        for (i, gate) in self.gates.iter().enumerate() {
            if let Some(ee) = &gate.ee {
                let own = self.arcs.get(ee.efire_arc.index()).is_some_and(|a| {
                    a.kind == PlArcKind::Efire && a.dst == PlGateId::from_index(i)
                });
                if !own {
                    return Err(PlError::DanglingEfire(PlGateId::from_index(i)));
                }
            }
            for (pin, cv) in gate.const_pins.iter().enumerate() {
                if cv.is_some() {
                    continue;
                }
                let driven = gate
                    .data_in
                    .iter()
                    .any(|a| self.arcs[a.index()].dst_pin == Some(pin as u8));
                if !driven {
                    return Err(PlError::MissingPinDriver {
                        gate: PlGateId::from_index(i),
                        pin: pin as u8,
                    });
                }
            }
        }
        Ok(())
    }

    /// Arrival level of every gate: the "maximum path length in terms of PL
    /// gates from the primary circuit inputs" used by the paper's cost
    /// function (§3). Inputs, constants and registers are level 0 (their
    /// tokens are available at the start of a round); a compute gate is one
    /// more than its slowest data fanin.
    #[must_use]
    pub fn arrival_levels(&self) -> Vec<u32> {
        let n = self.gates.len();
        let mut level = vec![0u32; n];
        // The 0-token data subgraph (combinational arcs) is acyclic; walk it
        // in topological order via Kahn's algorithm.
        let mut indeg = vec![0usize; n];
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
        for arc in &self.arcs {
            if arc.kind == PlArcKind::Data && arc.init_tokens == 0 {
                succ[arc.src.index()].push(arc.dst.index());
                indeg[arc.dst.index()] += 1;
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        while let Some(i) = queue.pop() {
            let is_compute = matches!(self.gates[i].kind, PlGateKind::Compute { .. });
            let fanin_max = self.gates[i]
                .data_in
                .iter()
                .filter(|a| self.arcs[a.index()].init_tokens == 0)
                .map(|a| level[self.arcs[a.index()].src.index()])
                .max()
                .unwrap_or(0);
            level[i] = if is_compute {
                1 + fanin_max
            } else if matches!(self.gates[i].kind, PlGateKind::Output { .. }) {
                fanin_max
            } else {
                0
            };
            for &s in &succ[i] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    queue.push(s);
                }
            }
        }
        level
    }

    /// Per-pin arrival levels of a gate's data inputs (constant pins are 0).
    #[must_use]
    pub fn pin_arrivals(&self, gate: PlGateId, levels: &[u32]) -> Vec<u32> {
        let g = &self.gates[gate.index()];
        let mut arr = vec![0u32; g.const_pins.len()];
        for &aid in &g.data_in {
            let arc = &self.arcs[aid.index()];
            if let Some(pin) = arc.dst_pin {
                // Register-sourced tokens are available immediately.
                arr[pin as usize] = if arc.init_tokens > 0 {
                    0
                } else {
                    levels[arc.src.index()]
                };
            }
        }
        arr
    }

    // ---- fault injection (testing the defensive checks) -----------------

    /// Deletes one arc, rebuilding indices — **fault injection only**: the
    /// result generally violates liveness/safety, which is exactly what the
    /// failure-injection tests use to prove the checkers and the simulator
    /// catch broken marked graphs.
    #[doc(hidden)]
    pub fn inject_remove_arc(&mut self, victim: PlArcId) {
        let old = std::mem::take(&mut self.arcs);
        for g in &mut self.gates {
            g.data_in.clear();
            g.control_in.clear();
            g.out.clear();
        }
        let mut efire_remap: Vec<(PlGateId, PlArcId)> = Vec::new();
        for (i, arc) in old.into_iter().enumerate() {
            if i == victim.index() {
                continue;
            }
            let new_id = match arc.kind {
                PlArcKind::Data => self.add_data_arc(
                    arc.src,
                    arc.dst,
                    arc.dst_pin.expect("data arcs carry pins"),
                    arc.init_tokens,
                    arc.init_value,
                ),
                k => self.add_control_arc(arc.src, arc.dst, k, arc.init_tokens),
            };
            if arc.kind == PlArcKind::Efire {
                efire_remap.push((arc.dst, new_id));
            }
        }
        for (master, new_efire) in efire_remap {
            if let Some(ee) = &mut self.gates[master.index()].ee {
                ee.efire_arc = new_efire;
            }
        }
    }

    /// Overwrites an EE pair's trigger function — **fault injection only**:
    /// an unsound trigger must be caught by the simulator's forced-value
    /// check ([`pl-sim`'s `UnsoundTrigger`] error).
    ///
    /// # Panics
    ///
    /// Panics if `master` is not an EE master or the table arity differs
    /// from the trigger's.
    #[doc(hidden)]
    pub fn inject_trigger_table(&mut self, master: PlGateId, table: pl_boolfn::TruthTable) {
        let ee = self.gates[master.index()]
            .ee
            .as_mut()
            .expect("fault target must be an EE master");
        assert_eq!(
            table.num_vars(),
            ee.trigger_table.num_vars(),
            "trigger arity"
        );
        ee.trigger_table = table;
        let trigger = ee.trigger;
        match &mut self.gates[trigger.index()].kind {
            PlGateKind::Compute { table: t } => *t = table,
            _ => unreachable!("triggers are compute gates"),
        }
    }

    // ---- construction internals ----------------------------------------

    pub(crate) fn push_gate(&mut self, kind: PlGateKind, name: Option<String>) -> PlGateId {
        let id = PlGateId::from_index(self.gates.len());
        self.gates.push(PlGate {
            kind,
            name,
            data_in: Vec::new(),
            control_in: Vec::new(),
            out: Vec::new(),
            const_pins: Vec::new(),
            ee: None,
        });
        id
    }

    /// Connects a data pin, tying it off if the source is a constant.
    fn connect_data(
        &mut self,
        sync: &Netlist,
        src_gate: PlGateId,
        src_node: NodeId,
        dst: PlGateId,
        pin: u8,
    ) {
        match sync.node(src_node).kind() {
            NodeKind::Const { value } => {
                self.gates[dst.index()].const_pins[pin as usize] = Some(*value);
            }
            NodeKind::Dff { init, .. } => {
                self.add_data_arc(src_gate, dst, pin, 1, *init);
            }
            _ => {
                self.add_data_arc(src_gate, dst, pin, 0, false);
            }
        }
    }

    pub(crate) fn add_data_arc(
        &mut self,
        src: PlGateId,
        dst: PlGateId,
        pin: u8,
        init_tokens: u8,
        init_value: bool,
    ) -> PlArcId {
        let id = PlArcId::from_index(self.arcs.len());
        self.arcs.push(PlArc {
            src,
            dst,
            kind: PlArcKind::Data,
            init_tokens,
            init_value,
            dst_pin: Some(pin),
        });
        self.gates[src.index()].out.push(id);
        self.gates[dst.index()].data_in.push(id);
        id
    }

    /// Removes every control (ack/efire) arc, keeping data arcs only and
    /// re-indexing them. Used by the EE transformation to re-plan feedback
    /// around the chosen masters.
    ///
    /// # Panics
    ///
    /// Panics (debug) if any gate already carries EE control state, since
    /// its efire arc id would be invalidated.
    pub(crate) fn strip_control_arcs(&mut self) {
        debug_assert!(
            self.gates.iter().all(|g| g.ee.is_none()),
            "strip_control_arcs would orphan efire references"
        );
        let old = std::mem::take(&mut self.arcs);
        for g in &mut self.gates {
            g.data_in.clear();
            g.control_in.clear();
            g.out.clear();
        }
        for arc in old {
            if arc.kind == PlArcKind::Data {
                self.add_data_arc(
                    arc.src,
                    arc.dst,
                    arc.dst_pin.expect("data arcs carry a pin"),
                    arc.init_tokens,
                    arc.init_value,
                );
            }
        }
    }

    pub(crate) fn add_control_arc(
        &mut self,
        src: PlGateId,
        dst: PlGateId,
        kind: PlArcKind,
        init_tokens: u8,
    ) -> PlArcId {
        debug_assert_ne!(kind, PlArcKind::Data);
        let id = PlArcId::from_index(self.arcs.len());
        self.arcs.push(PlArc {
            src,
            dst,
            kind,
            init_tokens,
            init_value: false,
            dst_pin: None,
        });
        self.gates[src.index()].out.push(id);
        self.gates[dst.index()].control_in.push(id);
        id
    }

    /// Inserts acknowledge arcs: for each data arc `A→B` carrying `m` tokens,
    /// adds `B→A` with `1−m` tokens unless a data-only path `B ⇝ A` with
    /// exactly `1−m` tokens already closes a one-token circuit.
    ///
    /// Ack arcs between the same gate pair are shared (the paper: multiple
    /// output signals covered by one feedback signal).
    ///
    /// `forbidden[g]` marks gates whose firing is *not atomic* — EE masters
    /// produce early and consume late (Figure 2), so a circuit through them
    /// no longer bounds token counts. Arcs adjacent to forbidden gates must
    /// be given explicit acks by the caller beforehand; covering paths here
    /// never transit a forbidden gate. An empty slice forbids nothing.
    pub(crate) fn insert_feedback_arcs(&mut self, forbidden: &[bool]) {
        let (reach0, reach1) = self.data_reachability(forbidden);
        let is_forbidden = |g: PlGateId| forbidden.get(g.index()).copied().unwrap_or(false);
        // Share feedback arcs that already exist (including the explicit
        // master/trigger feedbacks added by the EE transformation).
        let mut existing: HashMap<(PlGateId, PlGateId, u8), ()> = self
            .arcs
            .iter()
            .filter(|a| a.kind == PlArcKind::Ack)
            .map(|a| ((a.src, a.dst, a.init_tokens), ()))
            .collect();
        let data_arcs: Vec<(PlGateId, PlGateId, u8)> = self
            .arcs
            .iter()
            .filter(|a| a.kind == PlArcKind::Data)
            .map(|a| (a.src, a.dst, a.init_tokens))
            .collect();
        for (src, dst, m) in data_arcs {
            if is_forbidden(src) || is_forbidden(dst) {
                // Master-adjacent arcs carry explicit feedback (Figure 2).
                continue;
            }
            let need = 1 - m; // tokens the return path must carry
            let covered = if need == 0 {
                reach0[dst.index()].contains(src.index())
            } else {
                reach1[dst.index()].contains(src.index())
            };
            if covered {
                continue;
            }
            if existing.contains_key(&(dst, src, need)) {
                continue;
            }
            self.add_control_arc(dst, src, PlArcKind::Ack, need);
            existing.insert((dst, src, need), ());
        }
    }

    /// Computes, for every gate `g`, the sets of gates reachable from `g`
    /// along data arcs using exactly 0 tokens (`reach0`, includes `g`
    /// itself) and exactly 1 token (`reach1`). Paths never visit gates
    /// marked `forbidden` (non-atomic EE masters).
    fn data_reachability(&self, forbidden: &[bool]) -> (Vec<BitSet>, Vec<BitSet>) {
        let n = self.gates.len();
        let blocked = |i: usize| forbidden.get(i).copied().unwrap_or(false);
        // 0-token data arcs form a DAG (combinational edges); 1-token data
        // arcs are register/initialized edges.
        let mut succ0: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut succ1: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut indeg = vec![0usize; n];
        for a in &self.arcs {
            if a.kind != PlArcKind::Data || blocked(a.src.index()) || blocked(a.dst.index()) {
                continue;
            }
            if a.init_tokens == 0 {
                succ0[a.src.index()].push(a.dst.index());
                indeg[a.dst.index()] += 1;
            } else {
                succ1[a.src.index()].push(a.dst.index());
            }
        }
        // Reverse-topological order of the 0-token DAG.
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut topo: Vec<usize> = Vec::with_capacity(n);
        while let Some(i) = queue.pop() {
            topo.push(i);
            for &s in &succ0[i] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    queue.push(s);
                }
            }
        }
        debug_assert_eq!(topo.len(), n, "0-token data subgraph must be acyclic");
        // DP over reverse topological order of the combinational DAG.
        let mut reach0: Vec<BitSet> = (0..n).map(|_| BitSet::new(n)).collect();
        for &i in topo.iter().rev() {
            let mut set = BitSet::new(n);
            set.insert(i);
            for &s in &succ0[i] {
                set.union_with(&reach0[s]);
            }
            reach0[i] = set;
        }
        let mut reach1: Vec<BitSet> = (0..n).map(|_| BitSet::new(n)).collect();
        for &i in topo.iter().rev() {
            let mut set = BitSet::new(n);
            for &s in &succ0[i] {
                set.union_with(&reach1[s]);
            }
            for &w in &succ1[i] {
                set.union_with(&reach0[w]);
            }
            reach1[i] = set;
        }
        (reach0, reach1)
    }
}

/// Finds the direct register→register feed edges that lie on all-register
/// cycles of a synchronous netlist.
///
/// Each flip-flop has exactly one data driver, so the "driver is also a
/// flip-flop" relation is a functional graph whose cycles are simple rings;
/// a pointer walk with visit colouring finds them in linear time.
fn register_ring_edges(sync: &Netlist) -> std::collections::HashSet<(NodeId, NodeId)> {
    use pl_netlist::NodeKind;
    let mut parent: HashMap<NodeId, NodeId> = HashMap::new();
    for &ff in sync.dffs() {
        if let NodeKind::Dff { d: Some(src), .. } = sync.node(ff).kind() {
            if sync.node(*src).is_dff() {
                parent.insert(ff, *src);
            }
        }
    }
    // colour: 0 unvisited, 1 on current walk, 2 finished
    let mut colour: HashMap<NodeId, u8> = HashMap::new();
    let mut edges = std::collections::HashSet::new();
    for &start in sync.dffs() {
        if colour.get(&start).copied().unwrap_or(0) != 0 {
            continue;
        }
        // Walk the driver chain, recording the path.
        let mut path = Vec::new();
        let mut cur = start;
        loop {
            match colour.get(&cur).copied().unwrap_or(0) {
                1 => {
                    // Found a new ring: everything from `cur`'s position on.
                    let pos = path
                        .iter()
                        .position(|&n| n == cur)
                        .expect("colour-1 nodes are on the current path");
                    let ring: &[NodeId] = &path[pos..];
                    for (i, &n) in ring.iter().enumerate() {
                        let next = ring[(i + 1) % ring.len()];
                        // n drives next? parent[next] == n ... but our walk
                        // follows parents, so n's parent is the next entry.
                        let _ = next;
                        let p = parent[&n];
                        edges.insert((p, n));
                    }
                    break;
                }
                2 => break,
                _ => {}
            }
            colour.insert(cur, 1);
            path.push(cur);
            match parent.get(&cur) {
                Some(&p) => cur = p,
                None => break,
            }
        }
        for n in path {
            colour.insert(n, 2);
        }
    }
    edges
}

/// A simple fixed-size bit set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            words: vec![0; n.div_ceil(64)],
        }
    }

    pub(crate) fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    pub(crate) fn contains(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    pub(crate) fn union_with(&mut self, other: &BitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }
}
