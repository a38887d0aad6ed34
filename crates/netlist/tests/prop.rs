//! Property-based tests for the netlist IR: cleanup passes and the BLIF
//! round-trip must preserve sequential behaviour on arbitrary circuits.

use pl_boolfn::TruthTable;
use pl_netlist::{blif, eval::Evaluator, opt, Netlist, NodeId};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Recipe {
    num_inputs: usize,
    num_dffs: usize,
    luts: Vec<(u64, Vec<usize>)>,
    consts: Vec<bool>,
    num_outputs: usize,
}

fn arb_recipe() -> impl Strategy<Value = Recipe> {
    (
        1usize..5,
        0usize..4,
        proptest::collection::vec(
            (
                any::<u64>(),
                proptest::collection::vec(any::<usize>(), 1..5),
            ),
            1..20,
        ),
        proptest::collection::vec(any::<bool>(), 0..3),
        1usize..5,
    )
        .prop_map(|(num_inputs, num_dffs, luts, consts, num_outputs)| Recipe {
            num_inputs,
            num_dffs,
            luts,
            consts,
            num_outputs,
        })
}

fn build(r: &Recipe) -> Netlist {
    let mut n = Netlist::new("prop");
    let mut pool: Vec<NodeId> = Vec::new();
    for i in 0..r.num_inputs {
        pool.push(n.add_input(format!("i{i}")));
    }
    for &v in &r.consts {
        pool.push(n.add_const(v));
    }
    let dffs: Vec<NodeId> = (0..r.num_dffs).map(|k| n.add_dff(k % 3 == 0)).collect();
    pool.extend(&dffs);
    for (bits, fanins) in &r.luts {
        let srcs: Vec<NodeId> = fanins.iter().map(|&f| pool[f % pool.len()]).collect();
        let t = TruthTable::from_bits(srcs.len(), *bits);
        pool.push(n.add_lut(t, srcs).expect("arity matches"));
    }
    for (k, &d) in dffs.iter().enumerate() {
        n.set_dff_input(d, pool[(k * 5 + 1) % pool.len()])
            .expect("valid");
    }
    for k in 0..r.num_outputs {
        n.set_output(
            format!("o{k}"),
            pool[pool.len() - 1 - (k % pool.len().min(3))],
        );
    }
    n
}

fn behaviour(n: &Netlist, cycles: usize, seed: u64) -> Vec<Vec<bool>> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut sim = Evaluator::new(n).expect("validates");
    (0..cycles)
        .map(|_| {
            let ins: Vec<bool> = (0..n.inputs().len()).map(|_| rng.gen()).collect();
            sim.step(&ins).expect("in range")
        })
        .collect()
}

/// Rewrites serialized BLIF into the SIS/ABC dialect the parser must also
/// accept: every `.latch` is cycled through one of the four legal arities
/// (behaviour-preserving — the bare and `<type> <control>` forms are only
/// used when the init value is the default 0), and every line with at
/// least three tokens is alternately wrapped with a `\` continuation.
fn sisify(text: &str) -> String {
    let mut out = String::new();
    let mut latch_no = 0usize;
    for (i, line) in text.lines().enumerate() {
        let mut toks: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        if toks.first().map(String::as_str) == Some(".latch") && toks.len() == 4 {
            let init = toks[3].clone();
            if init == "0" {
                // Default init: the 3-token and 5-token forms may omit it.
                toks.truncate(3);
                if latch_no % 2 == 1 {
                    toks.extend(["re".to_string(), "clk".to_string()]);
                }
            } else if latch_no % 2 == 1 {
                // Non-default init: 4-token form (unchanged) or 6-token.
                toks.truncate(3);
                toks.extend(["re".to_string(), "clk".to_string(), init]);
            }
            latch_no += 1;
        }
        if toks.len() >= 3 && i % 2 == 0 {
            out.push_str(&toks[0]);
            out.push_str(" \\\n    ");
            out.push_str(&toks[1..].join(" "));
        } else {
            out.push_str(&toks.join(" "));
        }
        out.push('\n');
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// cleanup() (const-prop + strash + DCE to fixpoint) is behaviour-
    /// preserving and never grows the netlist.
    #[test]
    fn cleanup_preserves_behaviour(recipe in arb_recipe()) {
        let n = build(&recipe);
        prop_assume!(n.validate().is_ok());
        let cleaned = opt::cleanup(&n).expect("cleanup succeeds");
        prop_assert!(cleaned.len() <= n.len());
        prop_assert_eq!(behaviour(&n, 24, 5), behaviour(&cleaned, 24, 5));
    }

    /// BLIF serialization round-trips behaviour exactly.
    #[test]
    fn blif_roundtrip(recipe in arb_recipe()) {
        let n = build(&recipe);
        prop_assume!(n.validate().is_ok());
        let text = blif::to_blif(&n).expect("serializes");
        let back = blif::from_blif(&text)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
        prop_assert_eq!(behaviour(&n, 24, 9), behaviour(&back, 24, 9));
    }

    /// The SIS/ABC dialect — `\` continuation lines plus all four `.latch`
    /// arities — parses back to the same behaviour as the pristine text.
    /// (Both halves of this regressed before the ingestion fixes: wrapped
    /// lines died with "pattern width mismatch" and the 5-token latch with
    /// "unsupported latch form".)
    #[test]
    fn blif_roundtrip_survives_continuations_and_latch_arities(recipe in arb_recipe()) {
        let n = build(&recipe);
        prop_assume!(n.validate().is_ok());
        let text = sisify(&blif::to_blif(&n).expect("serializes"));
        let back = blif::from_blif(&text)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
        prop_assert_eq!(behaviour(&n, 24, 11), behaviour(&back, 24, 11));
    }

    /// Verilog export always produces a module with balanced structure.
    #[test]
    fn verilog_always_emits_well_formed_text(recipe in arb_recipe()) {
        let n = build(&recipe);
        prop_assume!(n.validate().is_ok());
        let v = pl_netlist::verilog::to_verilog(&n).expect("emits");
        prop_assert!(v.starts_with("module "));
        prop_assert!(v.trim_end().ends_with("endmodule"));
        // every declared wire/reg is assigned or driven
        let decls = v.lines().filter(|l| l.trim_start().starts_with("wire ")).count();
        let assigns = v.lines().filter(|l| l.contains("assign ")).count();
        prop_assert!(assigns >= decls, "wires without drivers:\n{v}");
    }

    /// The 64-lane word step: every lane equals a scalar evaluator that
    /// steps that lane's own substream, cycle for cycle.
    #[test]
    fn step_lanes_matches_scalar_per_lane(recipe in arb_recipe(), seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let n = build(&recipe);
        prop_assume!(n.validate().is_ok());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut wide = Evaluator::new(&n).expect("validates");
        let mut scalar: Vec<Evaluator> =
            (0..64).map(|_| Evaluator::new(&n).expect("validates")).collect();
        for cycle in 0..12 {
            let words: Vec<u64> = (0..n.inputs().len()).map(|_| rng.gen()).collect();
            let out = wide.step_lanes(&words).expect("in range");
            for (l, sim) in scalar.iter_mut().enumerate() {
                let ins: Vec<bool> = words.iter().map(|w| w >> l & 1 == 1).collect();
                let lane: Vec<bool> = out.iter().map(|w| w >> l & 1 == 1).collect();
                prop_assert_eq!(lane, sim.step(&ins).expect("in range"), "cycle {} lane {}", cycle, l);
            }
        }
    }

    /// Dead-node elimination keeps exactly the output cones.
    #[test]
    fn dce_result_is_closed(recipe in arb_recipe()) {
        let n = build(&recipe);
        prop_assume!(n.validate().is_ok());
        let r = opt::dead_node_elimination(&n).expect("dce");
        // All fanins of kept nodes are kept (the rebuild would have failed
        // otherwise); behaviour is intact.
        prop_assert_eq!(behaviour(&n, 16, 3), behaviour(&r.netlist, 16, 3));
    }
}
