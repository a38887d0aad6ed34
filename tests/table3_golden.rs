//! Table 3 golden: the paper's protocol on the whole ITC'99 suite.
//!
//! b01–b15 compiled from source at the paper seed, 100 random vectors,
//! early evaluation on, plain and EE latencies measured by
//! `measure_latency_on` and verified against the synchronous reference.
//! PL gates, EE gates and both mean delays are pinned bit for bit (the
//! delays in their `{:?}` form, which round-trips every `f64` bit), so a
//! latency drift anywhere in the compile or simulation stages fails
//! `cargo test`, not only the benchmark.

use pl_bench::{table3_parallel, FlowOptions};

const GOLDEN: &str = include_str!("golden/table3.tsv");

#[test]
fn table3_golden_matches_paper_protocol() {
    let opts = FlowOptions::default();
    assert_eq!(opts.vectors, 100, "the paper's protocol runs 100 vectors");
    assert!(opts.ee_enabled && opts.verify);
    let rows = table3_parallel(&opts, 2).expect("the suite compiles, simulates and verifies");
    let got: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{}\t{}\t{}\t{:?}\t{:?}",
                r.id, r.pl_gates, r.ee_gates, r.delay_no_ee, r.delay_ee
            )
        })
        .collect();
    let want: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .collect();
    assert_eq!(got, want, "Table 3 drifted from tests/golden/table3.tsv");
}
