//! Gate-level netlist intermediate representation for the phased-logic flow.
//!
//! A [`Netlist`] is a directed graph of [`Node`]s: primary inputs, constants,
//! LUTs (combinational nodes carrying a [`pl_boolfn::TruthTable`]), and D
//! flip-flops with initial values. Primary outputs are named references to
//! nodes. Combinational cycles are rejected; sequential loops must pass
//! through a flip-flop, exactly as in the synchronous netlists the DATE 2002
//! paper's flow consumes from Synopsys Design Compiler.
//!
//! The crate also provides:
//!
//! * topological ordering, logic levels and fanout computation
//!   ([`analyze`]) — levels are the arrival-time estimate used by the
//!   paper's cost function (Equation 1);
//! * cleanup passes: dead-node elimination, constant propagation and
//!   structural hashing ([`opt`]);
//! * a cycle-accurate reference evaluator ([`eval`]) used to verify that the
//!   phased-logic mapping and early evaluation never change functionality;
//! * a BLIF-style text format ([`blif`]) for inspection and round-tripping.
//!
//! # Example
//!
//! ```
//! use pl_boolfn::TruthTable;
//! use pl_netlist::Netlist;
//!
//! let mut n = Netlist::new("toggle");
//! let d = n.add_dff(false);
//! let not = TruthTable::from_bits(1, 0b01);
//! let inv = n.add_lut(not, vec![d]).unwrap();
//! n.set_dff_input(d, inv).unwrap();
//! n.set_output("q", d);
//! n.validate().unwrap();
//!
//! let mut sim = pl_netlist::eval::Evaluator::new(&n).unwrap();
//! let o1 = sim.step(&[]).unwrap();
//! let o2 = sim.step(&[]).unwrap();
//! assert_ne!(o1, o2); // the register toggles every cycle
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod blif;
pub mod eco;
mod error;
pub mod eval;
mod fnv;
mod graph;
mod node;
pub mod opt;
pub mod scc;
pub mod verilog;

pub use eco::DirtySet;
pub use error::NetlistError;
pub use fnv::Fnv64;
pub use graph::{Netlist, NodeId};
pub use node::{Node, NodeKind, MAX_LUT_ARITY};
