//! `plc` — the phased-logic compiler.
//!
//! The command-line face of the `pl-flow` pipeline: point it at any BLIF
//! netlist (SIS/ABC dialect) or an ITC'99 catalog id and it runs
//!
//! ```text
//! ingest → lint → optimize → techmap → phased → lint → early_eval → simulate → verify
//! ```
//!
//! printing a per-stage report with timings, early-evaluation statistics
//! (`--ee`), a latency report, and a synchronous cross-check (`--verify`).
//! `--stage` stops the pipeline at any layer; `--emit-blif`, `--verilog`
//! and `--vcd` export artifacts. The lint stages (stable `PL####` codes,
//! see the `pl-lint` crate docs for the catalog) print warnings inline and
//! abort on deny-level findings; tune per code with `--lint-level
//! CODE=allow|warn|deny` or skip them with `--no-lint`. Examples:
//!
//! ```text
//! plc assets/blif/b09.blif --ee --verify --vectors 100
//! plc lint b14                      # diagnostics only, exit 1 on deny
//! plc lint design.blif --json       # machine-readable JSON lines
//! plc eco b04 --ee --edit table:n30:0x6  # incremental recompile
//! ```

use std::process::ExitCode;

use pl_flow::cli::{CliError, CliSpec, OptSpec, PositionalSpec};
use pl_flow::{CircuitSource, EcoEdit, FlowOptions, Pipeline};
use pl_lint::{Code, Severity};

const SPEC: CliSpec = CliSpec {
    bin: "plc",
    about: "compile a BLIF netlist or ITC'99 circuit to phased logic and run it",
    positional: Some(PositionalSpec {
        name: "<file.blif|bXX>",
        help: "BLIF file path, or an ITC'99 catalog id (b01..b15)",
        many: false,
        required: true,
    }),
    options: &[
        OptSpec {
            long: "--ee",
            value: None,
            help: "add early evaluation and compare latency against plain PL",
        },
        OptSpec {
            long: "--verify",
            value: None,
            help: "cross-check outputs against the synchronous reference",
        },
        OptSpec {
            long: "--vectors",
            value: Some("N"),
            help: "random vectors to simulate (default 100)",
        },
        OptSpec {
            long: "--seed",
            value: Some("S"),
            help: "vector-generation seed",
        },
        OptSpec {
            long: "--jobs",
            value: Some("J"),
            help: "worker threads for the simulate stage: the plain and EE variants run concurrently, and under --lanes each variant's lane blocks too (0 = one per core)",
        },
        OptSpec {
            long: "--window",
            value: Some("N"),
            help: "stream the vectors (fed without waiting for outputs) through one sequential run per variant, reporting makespan/throughput; with --checkpoint-dir, checkpoint every N vectors",
        },
        OptSpec {
            long: "--lanes",
            value: Some("N"),
            help: "stripe the vectors across 64 substreams and run them at lane width N: 1 = 64 one-lane runs, 64 = one run of 64-lane words (outputs are bit-identical either way; prints a lane digest)",
        },
        OptSpec {
            long: "--checkpoint-dir",
            value: Some("DIR"),
            help: "make the streamed run crash-resumable: checkpoint it every --window vectors and journal completed windows under DIR (plain/ and ee/ subtrees; requires --window)",
        },
        OptSpec {
            long: "--resume",
            value: None,
            help: "resume an interrupted sweep from --checkpoint-dir (a fresh run refuses a directory that already holds one)",
        },
        OptSpec {
            long: "--threshold",
            value: Some("T"),
            help: "EE cost threshold (Equation 1; default 0 = all speedups)",
        },
        OptSpec {
            long: "--optimize",
            value: None,
            help: "run netlist cleanup passes before mapping",
        },
        OptSpec {
            long: "--lut-size",
            value: Some("K"),
            help: "target LUT arity for technology mapping (2..=6, default 4)",
        },
        OptSpec {
            long: "--lint-level",
            value: Some("CODE=SEV"),
            help: "override a lint code's severity (allow|warn|deny), e.g. PL0006=allow; repeatable",
        },
        OptSpec {
            long: "--no-lint",
            value: None,
            help: "skip both lint passes (static diagnostics run by default)",
        },
        OptSpec {
            long: "--stage",
            value: Some("NAME"),
            help: "stop after ingest|lint|optimize|techmap|phased|early-eval|simulate",
        },
        OptSpec {
            long: "--emit-blif",
            value: Some("PATH"),
            help: "write the ingested (pre-map) netlist as BLIF",
        },
        OptSpec {
            long: "--verilog",
            value: None,
            help: "print the LUT-mapped netlist as structural Verilog",
        },
        OptSpec {
            long: "--vcd",
            value: Some("PATH"),
            help: "write an 8-vector token waveform VCD of the plain PL netlist",
        },
    ],
};

/// The `plc lint` subcommand: both lint passes over one design, rendered
/// as text or JSON lines, exit 1 on any deny-level finding.
const LINT_SPEC: CliSpec = CliSpec {
    bin: "plc lint",
    about: "run the static netlist diagnostics (both passes) and report every finding",
    positional: Some(PositionalSpec {
        name: "<file.blif|bXX>",
        help: "BLIF file path, or an ITC'99 catalog id (b01..b15)",
        many: false,
        required: true,
    }),
    options: &[
        OptSpec {
            long: "--json",
            value: None,
            help: "print findings as JSON lines instead of text",
        },
        OptSpec {
            long: "--lint-level",
            value: Some("CODE=SEV"),
            help:
                "override a lint code's severity (allow|warn|deny), e.g. PL0006=allow; repeatable",
        },
        OptSpec {
            long: "--max-fanout",
            value: Some("N"),
            help: "fanout envelope for PL0101/PL0204 (default 64)",
        },
        OptSpec {
            long: "--max-depth",
            value: Some("N"),
            help: "combinational-depth envelope for PL0102 (default 128)",
        },
        OptSpec {
            long: "--optimize",
            value: None,
            help: "run netlist cleanup passes before the phased-logic pass",
        },
        OptSpec {
            long: "--lut-size",
            value: Some("K"),
            help: "target LUT arity for the phased-logic pass (2..=6, default 4)",
        },
    ],
};

/// The `plc eco` subcommand: compile once, hold the session, then apply
/// each `--edit` as its own incremental recompile with deterministic
/// digest lines (the CI ECO smoke diffs the `outputs digest` line against
/// a from-scratch compile of the edited netlist).
const ECO_SPEC: CliSpec = CliSpec {
    bin: "plc eco",
    about: "compile once, then apply ECO edits with incremental recompilation",
    positional: Some(PositionalSpec {
        name: "<file.blif|bXX>",
        help: "BLIF file path, or an ITC'99 catalog id (b01..b15)",
        many: false,
        required: true,
    }),
    options: &[
        OptSpec {
            long: "--edit",
            value: Some("SPEC"),
            help: "one ECO edit, applied in order and incrementally recompiled: table:<node>:<hexbits> | rewire:<node>:<pin>:<src> | insert:<name>:<hexbits>:<src>[,<src>...] | remove:<node>; repeatable",
        },
        OptSpec {
            long: "--ee",
            value: None,
            help: "run the early-evaluation stage (trigger cache persists across edits)",
        },
        OptSpec {
            long: "--verify",
            value: None,
            help: "cross-check outputs against the synchronous reference",
        },
        OptSpec {
            long: "--vectors",
            value: Some("N"),
            help: "random vectors to simulate (default 100)",
        },
        OptSpec {
            long: "--seed",
            value: Some("S"),
            help: "vector-generation seed",
        },
        OptSpec {
            long: "--optimize",
            value: None,
            help: "run netlist cleanup passes before mapping (disables cut reuse: cleanup renumbers globally)",
        },
        OptSpec {
            long: "--lut-size",
            value: Some("K"),
            help: "target LUT arity for technology mapping (2..=6, default 4)",
        },
        OptSpec {
            long: "--lint-level",
            value: Some("CODE=SEV"),
            help:
                "override a lint code's severity (allow|warn|deny), e.g. PL0006=allow; repeatable",
        },
        OptSpec {
            long: "--no-lint",
            value: None,
            help: "skip both lint passes (static diagnostics run by default)",
        },
        OptSpec {
            long: "--emit-blif",
            value: Some("PATH"),
            help: "write the final edited (pre-map) netlist as BLIF",
        },
    ],
};

/// The `plc serve` subcommand: run the `pld` daemon (see the `pl-serve`
/// crate) — compile once, answer many concurrent sessions from an LRU
/// cache of warm compiled netlists.
const SERVE_SPEC: CliSpec = CliSpec {
    bin: "plc serve",
    about: "run the pld simulation daemon (compiled-netlist LRU cache over TCP)",
    positional: None,
    options: &[
        OptSpec {
            long: "--addr",
            value: Some("HOST"),
            help: "address to bind (default 127.0.0.1)",
        },
        OptSpec {
            long: "--port",
            value: Some("P"),
            help: "port to bind (default 0 = ephemeral; the bound address is printed as 'pld: listening on ...')",
        },
        OptSpec {
            long: "--cache-entries",
            value: Some("N"),
            help: "LRU capacity of the compiled-netlist cache (default 8)",
        },
    ],
};

/// The `plc client` subcommand: one request against a running `pld`
/// daemon, printing the same deterministic digest lines as an
/// in-process run.
const CLIENT_SPEC: CliSpec = CliSpec {
    bin: "plc client",
    about: "send one request to a running pld daemon and print its digest lines",
    positional: Some(PositionalSpec {
        name: "<host:port> [file.blif|bXX]",
        help: "daemon address, then (unless --stats/--shutdown) the design: a local BLIF file (shipped inline) or a server-side spec",
        many: true,
        required: true,
    }),
    options: &[
        OptSpec {
            long: "--edit",
            value: Some("SPEC"),
            help: "apply ECO edits against the warm cache entry instead of a plain compile; same grammar as plc eco, repeatable",
        },
        OptSpec {
            long: "--ee",
            value: None,
            help: "add early evaluation",
        },
        OptSpec {
            long: "--verify",
            value: None,
            help: "cross-check outputs against the synchronous reference",
        },
        OptSpec {
            long: "--vectors",
            value: Some("N"),
            help: "random vectors to simulate (default 100)",
        },
        OptSpec {
            long: "--seed",
            value: Some("S"),
            help: "vector-generation seed",
        },
        OptSpec {
            long: "--jobs",
            value: Some("J"),
            help: "worker threads for the sweep",
        },
        OptSpec {
            long: "--window",
            value: Some("N"),
            help: "streamed protocol with N-vector windows",
        },
        OptSpec {
            long: "--lanes",
            value: Some("N"),
            help: "lane protocol at width N (1 or 64)",
        },
        OptSpec {
            long: "--threshold",
            value: Some("T"),
            help: "EE cost threshold (requires --ee)",
        },
        OptSpec {
            long: "--optimize",
            value: None,
            help: "run netlist cleanup passes before mapping",
        },
        OptSpec {
            long: "--lut-size",
            value: Some("K"),
            help: "target LUT arity for technology mapping (2..=6, default 4)",
        },
        OptSpec {
            long: "--no-lint",
            value: None,
            help: "skip both lint passes",
        },
        OptSpec {
            long: "--stats",
            value: None,
            help: "print the daemon's cache/error counters and exit",
        },
        OptSpec {
            long: "--shutdown",
            value: None,
            help: "ask the daemon to shut down and exit",
        },
    ],
};

/// How far down the pipeline to go.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Stage {
    Ingest,
    Lint,
    Optimize,
    Techmap,
    Phased,
    EarlyEval,
    Simulate,
}

fn parse_stage(name: &str) -> Option<Stage> {
    match name {
        "ingest" => Some(Stage::Ingest),
        "lint" => Some(Stage::Lint),
        "optimize" => Some(Stage::Optimize),
        "techmap" | "map" => Some(Stage::Techmap),
        "phased" => Some(Stage::Phased),
        "early-eval" | "early_eval" | "ee" => Some(Stage::EarlyEval),
        "simulate" | "sim" => Some(Stage::Simulate),
        _ => None,
    }
}

/// Parses repeated `--lint-level CODE=SEVERITY` values.
fn parse_lint_levels(specs: &[&str]) -> Result<Vec<(Code, Severity)>, String> {
    specs
        .iter()
        .map(|s| {
            let (code, sev) = s
                .split_once('=')
                .ok_or_else(|| format!("--lint-level expects CODE=SEVERITY, got '{s}'"))?;
            Ok((
                code.parse::<Code>()
                    .map_err(|e| format!("--lint-level: {e}"))?,
                sev.parse::<Severity>()
                    .map_err(|e| format!("--lint-level: {e}"))?,
            ))
        })
        .collect()
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("lint") {
        let argv: Vec<String> = std::env::args().skip(2).collect();
        return lint_main(&argv);
    }
    if std::env::args().nth(1).as_deref() == Some("eco") {
        let argv: Vec<String> = std::env::args().skip(2).collect();
        return eco_main(&argv);
    }
    if std::env::args().nth(1).as_deref() == Some("serve") {
        let argv: Vec<String> = std::env::args().skip(2).collect();
        return serve_main(&argv);
    }
    if std::env::args().nth(1).as_deref() == Some("client") {
        let argv: Vec<String> = std::env::args().skip(2).collect();
        return client_main(&argv);
    }
    let args = SPEC.parse_env();
    let spec = args.positionals[0].clone();
    let stop_after = match args.get("--stage") {
        None => Stage::Simulate,
        Some(name) => match parse_stage(name) {
            Some(s) => s,
            None => {
                eprintln!("error: unknown stage '{name}'\n");
                eprintln!("{}", SPEC.help());
                return ExitCode::from(2);
            }
        },
    };

    let mut opts = FlowOptions::default();
    opts.vectors = args.value_or("--vectors", opts.vectors);
    opts.seed = args.value_or("--seed", opts.seed);
    opts.jobs = args.value_or("--jobs", opts.jobs);
    opts.ee_enabled = args.flag("--ee");
    opts.verify = args.flag("--verify");
    opts.optimize = args.flag("--optimize");
    opts.map.lut_size = args.value_or("--lut-size", opts.map.lut_size);
    if let Some(t) = args.value_opt::<f64>("--threshold") {
        opts.ee.cost_threshold = t;
    }
    opts.window = args.value_opt::<usize>("--window");
    opts.lanes = args.value_opt::<usize>("--lanes");
    opts.checkpoint_dir = args.get("--checkpoint-dir").map(std::path::PathBuf::from);
    opts.resume = args.flag("--resume");
    opts.lint.enabled = !args.flag("--no-lint");
    match parse_lint_levels(&args.get_all("--lint-level")) {
        Ok(levels) => opts.lint.overrides = levels,
        Err(msg) => {
            eprintln!("error: {msg}\n");
            eprintln!("{}", SPEC.help());
            return ExitCode::from(2);
        }
    }
    if let Err(msg) = check_flag_consistency(&args, stop_after, &opts) {
        eprintln!("error: {msg}\n");
        eprintln!("{}", SPEC.help());
        return ExitCode::from(2);
    }

    match drive(&spec, &args, stop_after, opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("plc: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `plc lint` subcommand: run [`Pipeline::lint_session`] (never aborts
/// on findings), print the rendered report, exit 1 when anything denied.
fn lint_main(argv: &[String]) -> ExitCode {
    let args = match LINT_SPEC.parse(argv) {
        Ok(parsed) => parsed,
        Err(CliError::Help(text)) => {
            println!("{text}");
            return ExitCode::SUCCESS;
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}\n");
            eprintln!("{}", LINT_SPEC.help());
            return ExitCode::from(2);
        }
    };
    let mut opts = FlowOptions {
        optimize: args.flag("--optimize"),
        ..FlowOptions::default()
    };
    opts.map.lut_size = args.value_or("--lut-size", opts.map.lut_size);
    opts.lint.max_fanout = args.value_or("--max-fanout", opts.lint.max_fanout);
    opts.lint.max_depth = args.value_or("--max-depth", opts.lint.max_depth);
    let usage_error = |msg: &str| {
        eprintln!("error: {msg}\n");
        eprintln!("{}", LINT_SPEC.help());
        ExitCode::from(2)
    };
    match parse_lint_levels(&args.get_all("--lint-level")) {
        Ok(levels) => opts.lint.overrides = levels,
        Err(msg) => return usage_error(&msg),
    }
    if let Err(pl_flow::FlowError::Options { message }) = opts.validate() {
        return usage_error(&message);
    }
    let source = CircuitSource::from_spec(&args.positionals[0]);
    let pipeline = Pipeline::new(opts);
    match pipeline.lint_session(&source) {
        Ok(session) => {
            if args.flag("--json") {
                print!("{}", session.render_json_lines());
            } else {
                print!("{}", session.render_text());
            }
            if session.has_deny() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("plc: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `plc eco` subcommand: open an [`pl_flow::EcoSession`], apply each
/// `--edit` as its own incremental recompile, and print per-edit reuse
/// accounting plus deterministic digest lines.
fn eco_main(argv: &[String]) -> ExitCode {
    let args = match ECO_SPEC.parse(argv) {
        Ok(parsed) => parsed,
        Err(CliError::Help(text)) => {
            println!("{text}");
            return ExitCode::SUCCESS;
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}\n");
            eprintln!("{}", ECO_SPEC.help());
            return ExitCode::from(2);
        }
    };
    let usage_error = |msg: &str| {
        eprintln!("error: {msg}\n");
        eprintln!("{}", ECO_SPEC.help());
        ExitCode::from(2)
    };
    let mut opts = FlowOptions::default();
    opts.vectors = args.value_or("--vectors", opts.vectors);
    opts.seed = args.value_or("--seed", opts.seed);
    opts.ee_enabled = args.flag("--ee");
    opts.verify = args.flag("--verify");
    opts.optimize = args.flag("--optimize");
    opts.map.lut_size = args.value_or("--lut-size", opts.map.lut_size);
    opts.lint.enabled = !args.flag("--no-lint");
    match parse_lint_levels(&args.get_all("--lint-level")) {
        Ok(levels) => opts.lint.overrides = levels,
        Err(msg) => return usage_error(&msg),
    }
    if let Err(pl_flow::FlowError::Options { message }) = opts.validate() {
        return usage_error(&message);
    }
    let mut edits: Vec<(String, EcoEdit)> = Vec::new();
    for spec in args.get_all("--edit") {
        match EcoEdit::parse(spec) {
            Ok(edit) => edits.push((spec.to_string(), edit)),
            Err(e) => return usage_error(&e.to_string()),
        }
    }

    match run_eco(&args.positionals[0], &edits, args.get("--emit-blif"), opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("plc: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Drives one ECO session: initial compile, then one incremental
/// recompile per edit, digest lines after each.
fn run_eco(
    spec: &str,
    edits: &[(String, EcoEdit)],
    emit_blif: Option<&str>,
    opts: FlowOptions,
) -> Result<(), Box<dyn std::error::Error>> {
    let source = CircuitSource::from_spec(spec);
    let pipeline = Pipeline::new(opts);
    let mut session = pipeline.eco_session(&source)?;
    {
        let art = session.artifacts();
        println!(
            "[compile]   {}: {} LUTs, {} PL gates, {} EE pairs  ({:.3}s)",
            session.name(),
            art.report.techmap.luts_after,
            art.report.phased.logic_gates,
            art.pairs.len(),
            art.report.total_secs(),
        );
        print_eco_digest(
            art.mapped.fingerprint(),
            art.plain.fingerprint(),
            &art.outputs,
        );
    }
    for (i, (text, edit)) in edits.iter().enumerate() {
        let out = session.apply_eco(std::slice::from_ref(edit))?;
        let e = &out.eco;
        let downstream = if e.downstream_skipped {
            "downstream reused".to_string()
        } else if pipeline.opts().ee_enabled {
            format!("cache {}h/{}m", e.trigger_hits, e.trigger_misses)
        } else {
            "downstream recomputed".to_string()
        };
        println!(
            "[eco {}]     {}: {} dirty node(s) ({} output(s), {} boundary DFF(s)), cuts reused {}/{}, {}  ({:.3}s)",
            i + 1,
            text,
            e.dirty_nodes,
            e.dirty_outputs.len(),
            e.boundary_dffs,
            e.cuts_reused,
            e.two_nodes,
            downstream,
            e.secs,
        );
        if let Some(lint) = &out.flow.lint {
            let (warns, _) = lint.report.counts();
            if warns > 0 {
                print_lint_stage("[lint]     ", lint);
            }
        }
        print_eco_digest(
            e.mapped_fingerprint,
            e.phased_fingerprint,
            &session.artifacts().outputs,
        );
    }
    if let Some(path) = emit_blif {
        let blif = pl_netlist::blif::to_blif(session.netlist())?;
        std::fs::write(path, &blif)?;
        println!("[eco]       wrote {path} ({} bytes)", blif.len());
    }
    Ok(())
}

/// Prints one compile's deterministic digest block. The `outputs digest`
/// line is the cross-compile comparison point: an incremental recompile
/// and a from-scratch compile of the same edited netlist print identical
/// lines (the mapped/phased fingerprints additionally pin the netlist
/// bits, but survive BLIF round-trips only if node ids do). The format
/// lives in `pl_serve::render_digest_block`, shared with the `pld`
/// daemon's client so server responses diff cleanly against in-process
/// runs.
fn print_eco_digest(mapped_fp: u64, phased_fp: u64, outputs: &[Vec<bool>]) {
    print!(
        "{}",
        pl_serve::render_digest_block(mapped_fp, phased_fp, pl_serve::outputs_digest(outputs))
    );
}

/// The `plc serve` subcommand: bind, announce, and serve until a client
/// sends `--shutdown`.
fn serve_main(argv: &[String]) -> ExitCode {
    let args = match SERVE_SPEC.parse(argv) {
        Ok(parsed) => parsed,
        Err(CliError::Help(text)) => {
            println!("{text}");
            return ExitCode::SUCCESS;
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}\n");
            eprintln!("{}", SERVE_SPEC.help());
            return ExitCode::from(2);
        }
    };
    let host = args.get("--addr").unwrap_or("127.0.0.1").to_string();
    let port: u16 = args.value_or("--port", 0);
    let config = pl_serve::ServerConfig {
        cache_entries: args.value_or("--cache-entries", 8),
        ..pl_serve::ServerConfig::default()
    };
    let run = || -> Result<(), pl_serve::ServeError> {
        let server = pl_serve::PldServer::bind(&format!("{host}:{port}"), &config)?;
        // The parseable handshake line: smoke tests and wrapper scripts
        // read the bound (possibly ephemeral) address from it.
        println!("pld: listening on {}", server.local_addr()?);
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        server.serve()?;
        println!("pld: shut down");
        Ok(())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("plc: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `plc client` subcommand: one request, digest lines rendered with
/// the same shared helper `plc eco` prints through.
fn client_main(argv: &[String]) -> ExitCode {
    let args = match CLIENT_SPEC.parse(argv) {
        Ok(parsed) => parsed,
        Err(CliError::Help(text)) => {
            println!("{text}");
            return ExitCode::SUCCESS;
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}\n");
            eprintln!("{}", CLIENT_SPEC.help());
            return ExitCode::from(2);
        }
    };
    let usage_error = |msg: &str| {
        eprintln!("error: {msg}\n");
        eprintln!("{}", CLIENT_SPEC.help());
        ExitCode::from(2)
    };
    let request = match build_client_request(&args) {
        Ok(r) => r,
        Err(msg) => return usage_error(&msg),
    };
    match run_client(&args.positionals[0], &request) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("plc: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Maps the `plc client` flags onto a protocol request — the same
/// wiring as the in-process subcommands, so equal flags mean equal
/// digests.
fn build_client_request(args: &pl_flow::cli::ParsedArgs) -> Result<pl_serve::Request, String> {
    use pl_serve::{DesignSpec, Request, RequestOptions};
    if args.flag("--shutdown") {
        return Ok(Request::Shutdown);
    }
    if args.flag("--stats") {
        return Ok(Request::Stats);
    }
    let Some(design) = args.positionals.get(1) else {
        return Err("a design is required unless --stats or --shutdown is given".to_string());
    };
    let mut options = RequestOptions::default();
    options.vectors = args.value_or("--vectors", options.vectors);
    options.seed = args.value_or("--seed", options.seed);
    options.jobs = args.value_or("--jobs", options.jobs);
    options.lut_size = args.value_or("--lut-size", options.lut_size);
    if let Some(t) = args.value_opt::<f64>("--threshold") {
        options.threshold = t;
    }
    options.ee = args.flag("--ee");
    options.verify = args.flag("--verify");
    options.optimize = args.flag("--optimize");
    options.no_lint = args.flag("--no-lint");
    options.window = args.value_opt::<usize>("--window");
    options.lanes = args.value_opt::<usize>("--lanes");
    // A locally readable BLIF file is shipped inline (the daemon need
    // not share a filesystem); anything else is a server-side spec
    // (catalog id, `rand:` spec, or a path on the daemon's host).
    let path = std::path::Path::new(design);
    let design = if path.extension().is_some_and(|e| e == "blif") && path.is_file() {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read '{design}': {e}"))?;
        let name = path
            .file_stem()
            .map_or_else(|| design.to_string(), |s| s.to_string_lossy().into_owned());
        DesignSpec::BlifText { name, text }
    } else {
        DesignSpec::Spec(design.to_string())
    };
    let edits: Vec<String> = args
        .get_all("--edit")
        .iter()
        .map(|s| s.to_string())
        .collect();
    Ok(if edits.is_empty() {
        Request::Compile { design, options }
    } else {
        Request::Eco {
            design,
            options,
            edits,
        }
    })
}

/// Sends one request and renders the response.
fn run_client(addr: &str, request: &pl_serve::Request) -> Result<(), Box<dyn std::error::Error>> {
    use pl_serve::{render_digest_block, Response};
    let mut client = pl_serve::Client::connect(addr)?;
    match client.expect_ok(request)? {
        Response::CompileOk {
            name,
            cache_hit,
            luts,
            gates,
            pairs,
            digest,
        } => {
            println!(
                "[compile]   {name}: {luts} LUTs, {gates} PL gates, {pairs} EE pairs  (cache {})",
                if cache_hit { "hit" } else { "miss" },
            );
            print!(
                "{}",
                render_digest_block(digest.mapped_fp, digest.phased_fp, digest.outputs_digest)
            );
        }
        Response::EcoOk {
            name,
            cache_hit,
            initial,
            edits,
        } => {
            println!(
                "[compile]   {name}  (cache {})",
                if cache_hit { "hit" } else { "miss" },
            );
            print!(
                "{}",
                render_digest_block(initial.mapped_fp, initial.phased_fp, initial.outputs_digest)
            );
            for (i, e) in edits.iter().enumerate() {
                println!(
                    "[eco {}]     {}: {} dirty node(s)",
                    i + 1,
                    e.spec,
                    e.dirty_nodes
                );
                print!(
                    "{}",
                    render_digest_block(
                        e.digest.mapped_fp,
                        e.digest.phased_fp,
                        e.digest.outputs_digest
                    )
                );
            }
        }
        Response::StatsOk(s) => {
            println!(
                "pld stats: entries {}/{} | hits {} | misses {} | evictions {} | eco edits {} | malformed {}",
                s.entries, s.capacity, s.hits, s.misses, s.evictions, s.eco_edits, s.malformed,
            );
        }
        Response::ShutdownOk => println!("pld: shutdown acknowledged"),
        Response::Error { .. } => unreachable!("expect_ok maps error frames"),
    }
    Ok(())
}

/// Rejects flag combinations that would otherwise be silently ignored:
/// an export/check flag whose stage is cut off by `--stage`, a
/// `--threshold` without the EE stage it configures, or a LUT arity the
/// mapper would reject with a panic instead of a usage error.
///
/// Option-level combinations (lane widths, checkpoint/resume wiring,
/// LUT arity, window bounds) are delegated to
/// [`FlowOptions::validate`], which phrases its messages with these
/// flag names — the CLI and programmatic paths reject identically.
/// Only the checks that need the raw argv (stage gating, flags with a
/// CLI-only meaning) stay here.
fn check_flag_consistency(
    args: &pl_flow::cli::ParsedArgs,
    stop_after: Stage,
    opts: &FlowOptions,
) -> Result<(), String> {
    opts.validate().map_err(|e| match e {
        pl_flow::FlowError::Options { message } => message,
        other => other.to_string(),
    })?;
    // `--seed` feeds the simulate stage, except that a `--vcd` export
    // already consumes it at the phased stage.
    let (seed_stage, seed_stage_name) = if args.get("--vcd").is_some() {
        (Stage::Phased, "phased")
    } else {
        (Stage::Simulate, "simulate")
    };
    let needs: [(&str, bool, Stage, &str); 15] = [
        (
            "--lanes",
            args.get("--lanes").is_some(),
            Stage::Simulate,
            "simulate",
        ),
        ("--no-lint", args.flag("--no-lint"), Stage::Lint, "lint"),
        (
            "--lint-level",
            !args.get_all("--lint-level").is_empty(),
            Stage::Lint,
            "lint",
        ),
        (
            "--window",
            args.get("--window").is_some(),
            Stage::Simulate,
            "simulate",
        ),
        (
            "--optimize",
            args.flag("--optimize"),
            Stage::Optimize,
            "optimize",
        ),
        (
            "--lut-size",
            args.get("--lut-size").is_some(),
            Stage::Techmap,
            "techmap",
        ),
        (
            "--verilog",
            args.flag("--verilog"),
            Stage::Techmap,
            "techmap",
        ),
        (
            "--vcd",
            args.get("--vcd").is_some(),
            Stage::Phased,
            "phased",
        ),
        ("--ee", args.flag("--ee"), Stage::EarlyEval, "early-eval"),
        (
            "--verify",
            args.flag("--verify"),
            Stage::Simulate,
            "simulate",
        ),
        (
            "--vectors",
            args.get("--vectors").is_some(),
            Stage::Simulate,
            "simulate",
        ),
        (
            "--jobs",
            args.get("--jobs").is_some(),
            Stage::Simulate,
            "simulate",
        ),
        (
            "--seed",
            args.get("--seed").is_some(),
            seed_stage,
            seed_stage_name,
        ),
        (
            "--checkpoint-dir",
            args.get("--checkpoint-dir").is_some(),
            Stage::Simulate,
            "simulate",
        ),
        (
            "--resume",
            args.flag("--resume"),
            Stage::Simulate,
            "simulate",
        ),
    ];
    for (flag, given, stage, stage_name) in needs {
        if given && stop_after < stage {
            return Err(format!(
                "{flag} has no effect when --stage stops before {stage_name}"
            ));
        }
    }
    if args.get("--threshold").is_some() && !args.flag("--ee") {
        return Err("--threshold requires --ee (it configures the EE stage)".to_string());
    }
    if !args.get_all("--lint-level").is_empty() && args.flag("--no-lint") {
        return Err("--lint-level has no effect with --no-lint (the lint stage is skipped)".into());
    }
    if args.flag("--no-lint") && stop_after == Stage::Lint {
        return Err("--no-lint contradicts --stage lint (stopping after a skipped stage)".into());
    }
    Ok(())
}

/// Runs the pipeline stage by stage, printing each report as it lands.
fn drive(
    spec: &str,
    args: &pl_flow::cli::ParsedArgs,
    stop_after: Stage,
    opts: FlowOptions,
) -> Result<(), Box<dyn std::error::Error>> {
    let source = CircuitSource::from_spec(spec);
    let pipeline = Pipeline::new(opts);
    let opts = pipeline.opts().clone();

    let ingested = pipeline.ingest(&source)?;
    println!(
        "[ingest]    {} ({}): {} inputs, {} outputs, {} LUTs, {} DFFs  ({:.3}s)",
        ingested.name,
        ingested.report.source,
        ingested.report.inputs,
        ingested.report.outputs,
        ingested.report.luts,
        ingested.report.dffs,
        ingested.report.secs,
    );
    if let Some(path) = args.get("--emit-blif") {
        let blif = pl_netlist::blif::to_blif(&ingested.netlist)?;
        std::fs::write(path, &blif)?;
        println!("[ingest]    wrote {path} ({} bytes)", blif.len());
    }
    if stop_after == Stage::Ingest {
        return Ok(());
    }

    if opts.lint.enabled {
        let lint = pipeline.lint(&ingested)?;
        print_lint_stage("[lint]     ", &lint);
    } else {
        println!("[lint]      skipped (--no-lint)");
    }
    if stop_after == Stage::Lint {
        return Ok(());
    }

    let optimized = pipeline.optimize(ingested)?;
    println!(
        "[optimize]  {} ({} -> {} nodes)  ({:.3}s)",
        if optimized.report.ran {
            "cleanup"
        } else {
            "skipped (pass --optimize to enable)"
        },
        optimized.report.nodes_before,
        optimized.report.nodes_after,
        optimized.report.secs,
    );
    if stop_after == Stage::Optimize {
        return Ok(());
    }

    let mapped = pipeline.techmap(optimized)?;
    println!(
        "[techmap]   LUT{}: {} -> {} LUTs, depth {}  ({:.3}s)",
        mapped.report.lut_size,
        mapped.report.luts_before,
        mapped.report.luts_after,
        mapped.report.depth,
        mapped.report.secs,
    );
    if args.flag("--verilog") {
        print!("{}", pl_netlist::verilog::to_verilog(&mapped.netlist)?);
    }
    if stop_after == Stage::Techmap {
        return Ok(());
    }

    let phased = pipeline.phased(&mapped)?;
    println!(
        "[phased]    {} gates, {} arcs ({} feedbacks) — live  ({:.3}s)",
        phased.report.logic_gates, phased.report.arcs, phased.report.ack_arcs, phased.report.secs,
    );
    if opts.lint.enabled {
        let lint = pipeline.lint_phased(&phased)?;
        print_lint_stage("[pl-lint]  ", &lint);
    }
    if let Some(path) = args.get("--vcd") {
        write_vcd(&phased.netlist, &mapped.netlist, &opts, path)?;
    }
    if stop_after == Stage::Phased {
        return Ok(());
    }

    let early = pipeline.early_eval(phased);
    if early.report.enabled {
        println!(
            "[early-eval] {} pairs / {} compute gates (+{:.0}% area, cache {}h/{}m)  ({:.3}s)",
            early.report.pairs,
            early.report.examined,
            early.report.area_increase * 100.0,
            early.report.cache_hits,
            early.report.cache_misses,
            early.report.secs,
        );
        print_pairs(&early);
    } else {
        println!("[early-eval] skipped (pass --ee to enable)");
    }
    if stop_after == Stage::EarlyEval {
        return Ok(());
    }

    let sim = pipeline.simulate(&early)?;
    if sim.report.vectors == 0 {
        // An empty run is reported explicitly rather than printing
        // vacuous aggregates (`min inf`) and a hollow `0 vectors match`.
        println!(
            "[simulate]  0 vectors — nothing simulated  ({:.3}s)",
            sim.report.secs
        );
        if opts.verify {
            println!("[verify]    0 vectors — nothing simulated, nothing verified");
        }
        return Ok(());
    }
    println!(
        "[simulate]  {} vectors, {} job(s)  ({:.3}s)",
        sim.report.vectors, sim.report.jobs, sim.report.secs,
    );
    if let Some(lanes) = sim.report.lanes {
        // Lane protocol: the output words were reassembled from the 64
        // striped substreams in vector order. The digest line is width-
        // invariant by the lane-equivalence contract — the CI batch
        // determinism smoke diffs it between --lanes 1 and --lanes 64.
        println!(
            "  lane protocol: {lanes}-lane engine{}",
            if sim.stats_ee.is_some() {
                "  (EE outputs bit-identical to plain)"
            } else {
                ""
            }
        );
        print_lane_digest(&sim.outputs);
    } else if let (Some(window), Some(stream_plain)) = (sim.report.window, &sim.stream_plain) {
        // Streamed protocol: one sequential run per variant — makespan and
        // throughput are the metrics, plus a digest of the output words
        // (the CI determinism smoke diffs these lines across --jobs).
        print_streamed("without EE", window, stream_plain, &sim.outputs);
        if let Some(stream_ee) = &sim.stream_ee {
            print_streamed("with EE   ", window, stream_ee, &sim.outputs);
            if stream_plain.makespan > 0.0 {
                println!(
                    "  makespan decrease: {:.1}%  (EE outputs bit-identical to plain)",
                    100.0 * (stream_plain.makespan - stream_ee.makespan) / stream_plain.makespan
                );
            }
        }
        // Resumable-sweep audit trail. Kept off the `streamed ... digest`
        // lines above, which the CI determinism smoke diffs verbatim.
        if let Some(rec) = &sim.report.recovery_plain {
            println!("  recovery without EE: {rec}");
        }
        if let Some(rec) = &sim.report.recovery_ee {
            println!("  recovery with EE:    {rec}");
        }
    } else {
        println!("  latency without EE: {}", sim.stats_plain);
        if let Some(stats_ee) = &sim.stats_ee {
            println!("  latency with EE:    {stats_ee}");
            if sim.stats_plain.mean() > 0.0 {
                println!(
                    "  delay decrease: {:.1}%  (EE outputs bit-identical to plain)",
                    100.0 * (sim.stats_plain.mean() - stats_ee.mean()) / sim.stats_plain.mean()
                );
            }
        }
    }

    if opts.verify {
        let report = pipeline.verify(&mapped.netlist, &sim)?;
        println!(
            "[verify]    {} vectors match the synchronous reference  ({:.3}s)",
            report.vectors, report.secs,
        );
    }
    Ok(())
}

/// Prints a lint stage's outcome line plus one indented line per warning
/// (a deny never reaches here: the stage methods abort with
/// [`pl_flow::FlowError::Lint`] first).
fn print_lint_stage(label: &str, stage: &pl_flow::LintStageReport) {
    let (warns, _) = stage.report.counts();
    if warns == 0 {
        println!("{label} clean  ({:.3}s)", stage.secs);
        return;
    }
    println!("{label} {warns} warning(s)  ({:.3}s)", stage.secs);
    for line in stage.report.to_text().lines() {
        println!("  {line}");
    }
}

/// Prints the lane protocol's deterministic FNV-1a digest over the
/// reassembled output words, in vector order. The line carries no lane
/// width on purpose: `--lanes 1` (64 one-lane substream runs) and
/// `--lanes 64` (one run of 64-lane words) must print the identical
/// digest — the CI batch determinism smoke diffs exactly this line.
fn print_lane_digest(words: &[Vec<bool>]) {
    let mut digest = pl_sim::Fnv64::new();
    for word in words {
        for &b in word {
            digest.mix(u64::from(b));
        }
    }
    println!(
        "  lane digest (64 substreams, vector order): {:#018x}",
        digest.finish()
    );
}

/// Prints one variant's streamed outcome with a deterministic FNV-1a
/// digest of the output words — `--jobs`/`--window` must never change
/// this line (each variant is one sequential stream whatever the worker
/// count or window), which the CI smoke step asserts by diffing it
/// across runs.
/// The words are passed separately because the flow's stream outcomes
/// carry metrics only (both variants' words are identical and live in
/// `Simulated::outputs` once).
fn print_streamed(label: &str, window: usize, stream: &pl_sim::StreamOutcome, words: &[Vec<bool>]) {
    // Words only — the makespan is printed (and CI-diffed) on its own, and
    // the plain/EE lines sharing one digest is exactly the "EE outputs
    // bit-identical to plain" claim made visible.
    let mut digest = pl_sim::Fnv64::new();
    for word in words {
        for &b in word {
            digest.mix(u64::from(b));
        }
    }
    // An all-constant-output netlist completes in 0 ns; its throughput is
    // reported as instantaneous rather than printing `inf vectors/ns`.
    let throughput = if stream.throughput.is_finite() {
        format!("{:.4} vectors/ns", stream.throughput)
    } else {
        "instantaneous".to_string()
    };
    println!(
        "  streamed {label} (window {window}): makespan {:.2} ns, {throughput}, digest {:#018x}",
        stream.makespan,
        digest.finish(),
    );
}

/// Prints the implemented master/trigger pairs with their Equation-1
/// ingredients.
fn print_pairs(early: &pl_flow::EarlyEvaled) {
    if early.pairs.is_empty() {
        return;
    }
    println!(
        "  {:>8} {:>8} {:>8} {:>9} {:>5} {:>5} {:>7}",
        "master", "trigger", "pins", "coverage", "Mmax", "Tmax", "cost"
    );
    for p in &early.pairs {
        println!(
            "  {:>8} {:>8} {:>8} {:>8.0}% {:>5} {:>5} {:>7.2}",
            p.master.to_string(),
            p.trigger.to_string(),
            format!("{:#06b}", p.candidate.support),
            p.candidate.coverage * 100.0,
            p.candidate.m_max,
            p.candidate.t_max,
            p.cost()
        );
    }
}

/// Simulates 8 random vectors with tracing and writes a VCD waveform.
fn write_vcd(
    pl: &pl_core::PlNetlist,
    mapped: &pl_netlist::Netlist,
    opts: &FlowOptions,
    out_path: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    let mut sim = pl_sim::PlSimulator::new(pl, opts.delays.clone())?;
    sim.enable_tracing();
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(opts.seed);
    for _ in 0..8 {
        let v: Vec<bool> = (0..pl.input_gates().len()).map(|_| rng.gen()).collect();
        sim.run_vector(&v)?;
    }
    let vcd = pl_sim::trace::to_vcd(pl, sim.trace(), mapped.name());
    std::fs::write(out_path, &vcd)?;
    println!(
        "[phased]    wrote {out_path}: {} signal changes over {:.1} ns",
        sim.trace().len(),
        sim.time()
    );
    Ok(())
}
