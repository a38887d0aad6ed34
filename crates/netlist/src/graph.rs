//! The [`Netlist`] container.

use std::fmt;

use pl_boolfn::TruthTable;

use crate::eco::DirtySet;
use crate::error::NetlistError;
use crate::fnv::Fnv64;
use crate::node::{Node, NodeKind, MAX_LUT_ARITY};

/// Identifier of a node inside one [`Netlist`].
///
/// Ids are dense indices assigned in creation order; they are only meaningful
/// relative to the netlist that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// Builds an id from a raw index (intended for iteration helpers).
    #[must_use]
    pub fn from_index(i: usize) -> Self {
        NodeId(i as u32)
    }

    /// The raw index of this id.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A gate-level netlist: primary inputs, constants, LUTs and flip-flops,
/// with named primary outputs.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Netlist {
    name: String,
    nodes: Vec<Node>,
    inputs: Vec<NodeId>,
    dffs: Vec<NodeId>,
    outputs: Vec<(String, NodeId)>,
}

impl Netlist {
    /// Creates an empty netlist with the given design name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            nodes: Vec::new(),
            inputs: Vec::new(),
            dffs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// The design name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a primary input and returns its node id.
    pub fn add_input(&mut self, name: impl Into<String>) -> NodeId {
        let name = name.into();
        let id = self.push(Node {
            kind: NodeKind::Input { name: name.clone() },
            name: Some(name),
        });
        self.inputs.push(id);
        id
    }

    /// Adds a constant driver.
    pub fn add_const(&mut self, value: bool) -> NodeId {
        self.push(Node {
            kind: NodeKind::Const { value },
            name: None,
        })
    }

    /// Adds a LUT computing `table` over `inputs` (variable `i` ⇔
    /// `inputs[i]`).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::ArityMismatch`] if the table arity differs
    /// from the fanin count, [`NetlistError::LutTooWide`] beyond
    /// [`MAX_LUT_ARITY`], or [`NetlistError::UnknownNode`] for a bad fanin.
    pub fn add_lut(
        &mut self,
        table: TruthTable,
        inputs: Vec<NodeId>,
    ) -> Result<NodeId, NetlistError> {
        if table.num_vars() != inputs.len() {
            return Err(NetlistError::ArityMismatch {
                table_vars: table.num_vars(),
                fanins: inputs.len(),
            });
        }
        if inputs.len() > MAX_LUT_ARITY {
            return Err(NetlistError::LutTooWide {
                arity: inputs.len(),
                max: MAX_LUT_ARITY,
            });
        }
        for &i in &inputs {
            self.check(i)?;
        }
        Ok(self.push(Node {
            kind: NodeKind::Lut { table, inputs },
            name: None,
        }))
    }

    /// Adds a flip-flop with the given initial value; its data input starts
    /// unconnected (see [`Netlist::set_dff_input`]).
    pub fn add_dff(&mut self, init: bool) -> NodeId {
        let id = self.push(Node {
            kind: NodeKind::Dff { d: None, init },
            name: None,
        });
        self.dffs.push(id);
        id
    }

    /// Connects (or reconnects) the data input of flip-flop `dff` to `d`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::NotADff`] or [`NetlistError::UnknownNode`].
    pub fn set_dff_input(&mut self, dff: NodeId, d: NodeId) -> Result<(), NetlistError> {
        self.check(d)?;
        self.check(dff)?;
        match &mut self.nodes[dff.index()].kind {
            NodeKind::Dff { d: slot, .. } => {
                *slot = Some(d);
                Ok(())
            }
            _ => Err(NetlistError::NotADff(dff)),
        }
    }

    /// Declares a named primary output driven by `node`.
    pub fn set_output(&mut self, name: impl Into<String>, node: NodeId) {
        self.outputs.push((name.into(), node));
    }

    /// Rewires one fanin pin of an existing LUT to a different source node
    /// (an ECO edit). Unlike the creation-order construction API this
    /// **can introduce a combinational cycle** — [`Netlist::validate`] and
    /// the `pl-lint` pass report such a cycle with its concrete path, which
    /// is exactly what their regression tests use this method for.
    ///
    /// Returns the [`DirtySet`] of the edit: the LUT's output cone (through
    /// registers) as the value cone, with the old and new source on the
    /// frontier.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownNode`] for a missing id,
    /// [`NetlistError::NotALut`] if `lut` is not a LUT, or
    /// [`NetlistError::LutPinOutOfRange`] for a pin beyond its arity.
    pub fn rewire_lut_input(
        &mut self,
        lut: NodeId,
        pin: usize,
        src: NodeId,
    ) -> Result<DirtySet, NetlistError> {
        self.check(src)?;
        self.check(lut)?;
        let old = match &mut self.nodes[lut.index()].kind {
            NodeKind::Lut { inputs, .. } => match inputs.get_mut(pin) {
                Some(slot) => {
                    let old = *slot;
                    *slot = src;
                    old
                }
                None => {
                    return Err(NetlistError::LutPinOutOfRange {
                        node: lut,
                        pin,
                        arity: inputs.len(),
                    })
                }
            },
            _ => return Err(NetlistError::NotALut(lut)),
        };
        Ok(DirtySet::compute(self, &[lut], &[old, src]))
    }

    /// Replaces the truth table of an existing LUT (an ECO edit). The new
    /// table must have the same arity as the LUT's fanin count.
    ///
    /// Returns the [`DirtySet`] of the edit: the LUT's output cone as the
    /// value cone, with its (unchanged) fanins on the frontier.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownNode`] for a missing id,
    /// [`NetlistError::NotALut`] if `lut` is not a LUT, or
    /// [`NetlistError::ArityMismatch`] if the table arity differs from the
    /// fanin count.
    pub fn replace_lut_table(
        &mut self,
        lut: NodeId,
        table: TruthTable,
    ) -> Result<DirtySet, NetlistError> {
        self.check(lut)?;
        let frontier = match &mut self.nodes[lut.index()].kind {
            NodeKind::Lut {
                table: slot,
                inputs,
            } => {
                if table.num_vars() != inputs.len() {
                    return Err(NetlistError::ArityMismatch {
                        table_vars: table.num_vars(),
                        fanins: inputs.len(),
                    });
                }
                *slot = table;
                inputs.clone()
            }
            _ => return Err(NetlistError::NotALut(lut)),
        };
        Ok(DirtySet::compute(self, &[lut], &frontier))
    }

    /// Adds a new LUT as an ECO edit, returning its id and the edit's
    /// [`DirtySet`]. The fresh node has no readers yet, so the value cone is
    /// just the node itself; its fanins land on the frontier (their fanout
    /// counts grew). Follow up with [`Netlist::rewire_lut_input`] /
    /// [`Netlist::set_dff_input`] / [`Netlist::set_output`] to splice it in.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Netlist::add_lut`].
    pub fn insert_lut(
        &mut self,
        table: TruthTable,
        inputs: Vec<NodeId>,
    ) -> Result<(NodeId, DirtySet), NetlistError> {
        let frontier = inputs.clone();
        let id = self.add_lut(table, inputs)?;
        let dirty = DirtySet::compute(self, &[id], &frontier);
        Ok((id, dirty))
    }

    /// Removes an *unreferenced* gate (LUT, constant or flip-flop) from the
    /// netlist (an ECO edit). Node ids above the removed node shift down by
    /// one — the caller owns translating any ids it retains (the shift is
    /// `id > removed ⇒ id - 1`).
    ///
    /// Removing dead logic changes no values, so the returned [`DirtySet`]
    /// has an empty value cone; the removed node's old fanins are on the
    /// frontier (their fanout counts shrank), already expressed in the
    /// *post-removal* id space.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownNode`] for a missing id,
    /// [`NetlistError::RemoveInput`] for a primary input (ports are part of
    /// the interface), or [`NetlistError::RemoveInUse`] if the node still
    /// drives a primary output, a LUT pin or a flip-flop — the error names
    /// one concrete user.
    pub fn remove_gate(&mut self, node: NodeId) -> Result<DirtySet, NetlistError> {
        self.check(node)?;
        if self.nodes[node.index()].is_input() {
            return Err(NetlistError::RemoveInput(node));
        }
        if let Some((name, _)) = self.outputs.iter().find(|(_, n)| *n == node) {
            return Err(NetlistError::RemoveInUse {
                node,
                user: format!("primary output '{name}'"),
            });
        }
        for (id, n) in self.iter() {
            if id != node && n.fanins().contains(&node) {
                let what = if n.is_dff() { "flip-flop" } else { "LUT" };
                return Err(NetlistError::RemoveInUse {
                    node,
                    user: format!("{what} {id}"),
                });
            }
        }
        let frontier: Vec<NodeId> = self.nodes[node.index()].fanins();
        self.nodes.remove(node.index());
        let shift = |id: NodeId| {
            if id > node {
                NodeId::from_index(id.index() - 1)
            } else {
                id
            }
        };
        for n in &mut self.nodes {
            match &mut n.kind {
                NodeKind::Lut { inputs, .. } => {
                    for slot in inputs {
                        *slot = shift(*slot);
                    }
                }
                NodeKind::Dff { d, .. } => {
                    if let Some(d) = d {
                        *d = shift(*d);
                    }
                }
                NodeKind::Input { .. } | NodeKind::Const { .. } => {}
            }
        }
        self.inputs = self.inputs.iter().map(|&i| shift(i)).collect();
        self.dffs = self
            .dffs
            .iter()
            .filter(|&&f| f != node)
            .map(|&f| shift(f))
            .collect();
        for (_, n) in &mut self.outputs {
            *n = shift(*n);
        }
        let frontier: Vec<NodeId> = frontier.into_iter().map(shift).collect();
        Ok(DirtySet::compute(self, &[], &frontier))
    }

    /// A 64-bit FNV-1a fingerprint of the netlist's full content: name,
    /// every node (kind, table bits, fanins, debug name), the input/dff
    /// declaration order and the named outputs. Two netlists compare equal
    /// iff their construction histories produce identical content, so equal
    /// fingerprints are a reliable cheap proxy for [`PartialEq`] (modulo
    /// 64-bit collisions) — the flow uses them to decide whether a stage
    /// artifact can be reused verbatim.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.bytes(self.name.as_bytes());
        h.word(self.nodes.len() as u64);
        for n in &self.nodes {
            match &n.kind {
                NodeKind::Input { name } => {
                    h.word(1);
                    h.bytes(name.as_bytes());
                }
                NodeKind::Const { value } => {
                    h.word(2);
                    h.word(u64::from(*value));
                }
                NodeKind::Lut { table, inputs } => {
                    h.word(3);
                    h.word(table.num_vars() as u64);
                    h.word(table.bits());
                    h.word(inputs.len() as u64);
                    for i in inputs {
                        h.word(i.index() as u64);
                    }
                }
                NodeKind::Dff { d, init } => {
                    h.word(4);
                    h.word(d.map_or(u64::MAX, |d| d.index() as u64));
                    h.word(u64::from(*init));
                }
            }
            match &n.name {
                Some(name) => {
                    h.word(5);
                    h.bytes(name.as_bytes());
                }
                None => h.word(6),
            }
        }
        for &i in &self.inputs {
            h.word(i.index() as u64);
        }
        for &f in &self.dffs {
            h.word(f.index() as u64);
        }
        h.word(self.outputs.len() as u64);
        for (name, n) in &self.outputs {
            h.bytes(name.as_bytes());
            h.word(n.index() as u64);
        }
        h.finish()
    }

    /// Swaps a LUT's truth table **without** the arity check — fault
    /// injection only: the arity-vs-table mismatch this can create is
    /// unconstructible through [`Netlist::add_lut`], and the lint pass's
    /// defensive mismatch diagnostic needs a way to be exercised.
    ///
    /// # Panics
    ///
    /// Panics if `lut` does not exist or is not a LUT.
    #[doc(hidden)]
    pub fn inject_lut_table(&mut self, lut: NodeId, table: TruthTable) {
        match &mut self.nodes[lut.index()].kind {
            NodeKind::Lut { table: slot, .. } => *slot = table,
            other => panic!("inject_lut_table on non-LUT node {lut}: {other:?}"),
        }
    }

    /// Attaches a debug name to a node (overwriting any previous name).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownNode`] if the node does not exist.
    pub fn set_name(&mut self, node: NodeId, name: impl Into<String>) -> Result<(), NetlistError> {
        self.check(node)?;
        self.nodes[node.index()].name = Some(name.into());
        Ok(())
    }

    /// Looks up a node.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range; use [`Netlist::get`] for a checked
    /// variant.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Checked node lookup.
    #[must_use]
    pub fn get(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.index())
    }

    /// Number of nodes of any kind.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the netlist has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates over `(id, node)` pairs in creation order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId::from_index(i), n))
    }

    /// Primary inputs in declaration order.
    #[must_use]
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Flip-flops in declaration order.
    #[must_use]
    pub fn dffs(&self) -> &[NodeId] {
        &self.dffs
    }

    /// Named primary outputs in declaration order.
    #[must_use]
    pub fn outputs(&self) -> &[(String, NodeId)] {
        &self.outputs
    }

    /// Number of LUT nodes.
    #[must_use]
    pub fn num_luts(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_lut()).count()
    }

    /// Validates the netlist: every DFF driven, every output present, and no
    /// combinational cycles.
    ///
    /// # Errors
    ///
    /// Returns the first problem found.
    pub fn validate(&self) -> Result<(), NetlistError> {
        for &d in &self.dffs {
            if let NodeKind::Dff { d: None, .. } = self.node(d).kind() {
                return Err(NetlistError::UndrivenDff(d));
            }
        }
        for (name, id) in &self.outputs {
            if self.get(*id).is_none() {
                return Err(NetlistError::DanglingOutput {
                    name: name.clone(),
                    node: *id,
                });
            }
        }
        crate::analyze::comb_topo_order(self).map(|_| ())
    }

    pub(crate) fn check(&self, id: NodeId) -> Result<(), NetlistError> {
        if id.index() < self.nodes.len() {
            Ok(())
        } else {
            Err(NetlistError::UnknownNode(id))
        }
    }

    fn push(&mut self, node: Node) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(node);
        id
    }

    // ---- convenience constructors for common gates -------------------------

    /// Adds an inverter.
    ///
    /// # Errors
    ///
    /// Propagates [`Netlist::add_lut`] errors.
    pub fn add_not(&mut self, a: NodeId) -> Result<NodeId, NetlistError> {
        self.add_lut(TruthTable::from_bits(1, 0b01), vec![a])
    }

    /// Adds a 2-input AND gate.
    ///
    /// # Errors
    ///
    /// Propagates [`Netlist::add_lut`] errors.
    pub fn add_and2(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, NetlistError> {
        self.add_lut(TruthTable::from_bits(2, 0b1000), vec![a, b])
    }

    /// Adds a 2-input OR gate.
    ///
    /// # Errors
    ///
    /// Propagates [`Netlist::add_lut`] errors.
    pub fn add_or2(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, NetlistError> {
        self.add_lut(TruthTable::from_bits(2, 0b1110), vec![a, b])
    }

    /// Adds a 2-input XOR gate.
    ///
    /// # Errors
    ///
    /// Propagates [`Netlist::add_lut`] errors.
    pub fn add_xor2(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, NetlistError> {
        self.add_lut(TruthTable::from_bits(2, 0b0110), vec![a, b])
    }

    /// Adds a 2:1 multiplexer returning `if s { b } else { a }`.
    ///
    /// Variable order: `(a, b, s)` — minterm bit 0 is `a`.
    ///
    /// # Errors
    ///
    /// Propagates [`Netlist::add_lut`] errors.
    pub fn add_mux2(&mut self, s: NodeId, a: NodeId, b: NodeId) -> Result<NodeId, NetlistError> {
        let table = TruthTable::from_fn(3, |m| {
            let (a, b, s) = (m & 1 != 0, m & 2 != 0, m & 4 != 0);
            if s {
                b
            } else {
                a
            }
        });
        self.add_lut(table, vec![a, b, s])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_simple_comb_netlist() {
        let mut n = Netlist::new("and_or");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let ab = n.add_and2(a, b).unwrap();
        let f = n.add_or2(ab, c).unwrap();
        n.set_output("f", f);
        assert_eq!(n.inputs().len(), 3);
        assert_eq!(n.num_luts(), 2);
        n.validate().unwrap();
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut n = Netlist::new("bad");
        let a = n.add_input("a");
        let t3 = TruthTable::ones(3);
        assert_eq!(
            n.add_lut(t3, vec![a]),
            Err(NetlistError::ArityMismatch {
                table_vars: 3,
                fanins: 1
            })
        );
    }

    #[test]
    fn unknown_fanin_rejected() {
        let mut n = Netlist::new("bad");
        let bogus = NodeId::from_index(42);
        assert_eq!(
            n.add_lut(TruthTable::ones(1), vec![bogus]),
            Err(NetlistError::UnknownNode(bogus))
        );
    }

    #[test]
    fn undriven_dff_fails_validation() {
        let mut n = Netlist::new("seq");
        let d = n.add_dff(true);
        assert_eq!(n.validate(), Err(NetlistError::UndrivenDff(d)));
    }

    #[test]
    fn sequential_loop_is_legal() {
        let mut n = Netlist::new("counter_bit");
        let d = n.add_dff(false);
        let inv = n.add_not(d).unwrap();
        n.set_dff_input(d, inv).unwrap();
        n.set_output("q", d);
        n.validate().unwrap();
    }

    #[test]
    fn combinational_loop_is_rejected_with_its_path() {
        // The creation-order API cannot express a combinational cycle
        // (forward references are impossible), so seed one with the ECO
        // rewire: a -> b -> c, then patch b's input from a to c.
        let mut n = Netlist::new("looped");
        let a = n.add_input("a");
        let b = n.add_not(a).unwrap();
        let c = n.add_not(b).unwrap();
        n.set_output("c", c);
        n.validate().unwrap();
        n.rewire_lut_input(b, 0, c).unwrap();
        match n.validate() {
            Err(NetlistError::CombinationalLoop { path }) => {
                assert_eq!(path, vec![b, c], "smallest cycle member first");
            }
            other => panic!("expected a combinational loop, got {other:?}"),
        }
    }

    #[test]
    fn rewire_rejects_bad_targets() {
        let mut n = Netlist::new("rw");
        let a = n.add_input("a");
        let g = n.add_not(a).unwrap();
        let missing = NodeId::from_index(99);
        assert_eq!(
            n.rewire_lut_input(g, 0, missing),
            Err(NetlistError::UnknownNode(missing))
        );
        assert_eq!(n.rewire_lut_input(a, 0, g), Err(NetlistError::NotALut(a)));
        assert_eq!(
            n.rewire_lut_input(g, 5, a),
            Err(NetlistError::LutPinOutOfRange {
                node: g,
                pin: 5,
                arity: 1
            })
        );
    }

    #[test]
    fn mux2_semantics() {
        let mut n = Netlist::new("mux");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let s = n.add_input("s");
        let m = n.add_mux2(s, a, b).unwrap();
        n.set_output("m", m);
        let mut sim = crate::eval::Evaluator::new(&n).unwrap();
        // inputs in declaration order: a, b, s
        assert_eq!(sim.step(&[true, false, false]).unwrap(), vec![true]);
        assert_eq!(sim.step(&[true, false, true]).unwrap(), vec![false]);
        assert_eq!(sim.step(&[false, true, true]).unwrap(), vec![true]);
    }

    #[test]
    fn node_names() {
        let mut n = Netlist::new("named");
        let a = n.add_input("a");
        n.set_name(a, "port_a").unwrap();
        assert_eq!(n.node(a).name(), Some("port_a"));
    }

    #[test]
    fn display_node_id() {
        assert_eq!(NodeId::from_index(7).to_string(), "n7");
    }

    #[test]
    fn replace_lut_table_checks_arity_and_returns_cone() {
        let mut n = Netlist::new("eco");
        let a = n.add_input("a");
        let g = n.add_not(a).unwrap();
        let h = n.add_not(g).unwrap();
        n.set_output("f", h);
        assert_eq!(
            n.replace_lut_table(g, TruthTable::from_bits(2, 0b1000)),
            Err(NetlistError::ArityMismatch {
                table_vars: 2,
                fanins: 1
            })
        );
        let d = n.replace_lut_table(g, TruthTable::var(1, 0)).unwrap();
        assert!(d.nodes().contains(&g) && d.nodes().contains(&h));
        assert!(d.frontier().contains(&a));
        assert_eq!(d.outputs().iter().cloned().collect::<Vec<_>>(), vec!["f"]);
        assert_eq!(n.node(g).lut_table().unwrap().bits(), 0b10);
    }

    #[test]
    fn insert_lut_starts_unreferenced() {
        let mut n = Netlist::new("eco");
        let a = n.add_input("a");
        let (id, d) = n
            .insert_lut(TruthTable::from_bits(1, 0b01), vec![a])
            .unwrap();
        assert_eq!(d.nodes().iter().copied().collect::<Vec<_>>(), vec![id]);
        assert!(d.frontier().contains(&a));
        assert!(d.outputs().is_empty());
    }

    #[test]
    fn remove_gate_shifts_ids_and_rejects_referenced_nodes() {
        let mut n = Netlist::new("eco");
        let a = n.add_input("a");
        let dead = n.add_not(a).unwrap();
        let live = n.add_not(a).unwrap();
        n.set_output("f", live);
        // The output driver and the input are not removable.
        assert!(matches!(
            n.remove_gate(live),
            Err(NetlistError::RemoveInUse { node, .. }) if node == live
        ));
        assert_eq!(n.remove_gate(a), Err(NetlistError::RemoveInput(a)));
        // Removing the dead LUT shifts `live` down by one and rewrites the
        // output reference.
        let d = n.remove_gate(dead).unwrap();
        assert!(d.nodes().is_empty());
        assert!(d.frontier().contains(&a));
        assert_eq!(n.len(), 2);
        let new_live = n.outputs()[0].1;
        assert_eq!(new_live, NodeId::from_index(1));
        assert_eq!(n.node(new_live).fanins(), vec![a]);
        n.validate().unwrap();
        // A flip-flop reading the victim also blocks removal.
        let g = n.add_not(a).unwrap();
        let dff = n.add_dff(false);
        n.set_dff_input(dff, g).unwrap();
        assert!(matches!(
            n.remove_gate(g),
            Err(NetlistError::RemoveInUse { .. })
        ));
    }

    #[test]
    fn fingerprint_tracks_content() {
        let mut n = Netlist::new("fp");
        let a = n.add_input("a");
        let g = n.add_not(a).unwrap();
        n.set_output("f", g);
        let before = n.fingerprint();
        assert_eq!(before, n.clone().fingerprint());
        n.replace_lut_table(g, TruthTable::var(1, 0)).unwrap();
        assert_ne!(before, n.fingerprint());
    }
}
