//! `canon-audit` — the workspace's static-analysis entry point.
//!
//! ```text
//! cargo run -p canon-audit -- [lint|loom|verify|protocol|all] [--ci]
//!                             [--json] [--root <path>] [--nodes <n>]
//!                             [--seed <s>]
//! ```
//!
//! * `lint` — run the four repo-specific source rules over `crates/*/src`
//!   and `src/` (the generic policies — panic sites, wall clock, `unsafe`,
//!   hash-order walks — are clippy's, see `clippy.toml`);
//! * `loom` — exhaustively explore `par_map` interleavings at width ≤ 4;
//! * `verify` — build the figure-experiment graph families at smoke size
//!   and check Canon conditions (a)/(b), ring completeness, and level
//!   accounting on each; then run the storage probes (replica sets vs.
//!   replication policy across store, sim and node);
//! * `protocol` — exhaustively explore the message-delivery interleavings
//!   of the six scripted churn scenarios (join/leave/handover and cache
//!   invalidation under crashes and partitions), checking the ring invariant, acked-write
//!   durability, pin conservation and RPC-id sanity after every delivery;
//! * `all` (default) — everything above.
//!
//! Findings print as `file:line: [rule] message`; `--json` switches to a
//! machine-readable array. The exit code is non-zero iff anything was
//! found, so `--ci` is just the explicit spelling of "run everything, fail
//! loudly" for pipeline use.

#![forbid(unsafe_code)]

use canon_audit::graphs::verify_figure_graphs;
use canon_audit::lint::{findings_to_json, lint_workspace, Finding};
use canon_audit::loom::run_suite;
use canon_audit::protocol::{reports_to_json, run_protocol_suite, ExploreConfig};
use canon_audit::storage::verify_storage;
use canon_id::rng::Seed;
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    command: String,
    json: bool,
    root: PathBuf,
    nodes: usize,
    seed: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: canon-audit [lint|loom|verify|protocol|all] [--ci] [--json] \
         [--root <path>] [--nodes <n>] [--seed <s>]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        command: "all".to_owned(),
        json: false,
        // The workspace root relative to this crate's manifest, so
        // `cargo run -p canon-audit` works from anywhere in the tree.
        root: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")),
        nodes: 160,
        seed: 42,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "lint" | "loom" | "verify" | "protocol" | "all" => opts.command = a,
            "--ci" => opts.command = "all".to_owned(),
            "--json" => opts.json = true,
            "--root" => opts.root = PathBuf::from(args.next().unwrap_or_else(|| usage())),
            "--nodes" => {
                opts.nodes = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--seed" => {
                opts.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
    }
    opts
}

fn main() -> ExitCode {
    let opts = parse_args();
    let mut failed = false;

    if opts.command == "lint" || opts.command == "all" {
        match lint_workspace(&opts.root) {
            Ok(findings) => {
                report_findings(&findings, opts.json);
                if !findings.is_empty() {
                    failed = true;
                }
                if !opts.json {
                    println!("lint: {} finding(s)", findings.len());
                }
            }
            Err(e) => {
                eprintln!(
                    "lint: cannot read workspace at {}: {e}",
                    opts.root.display()
                );
                failed = true;
            }
        }
    }

    if opts.command == "loom" || opts.command == "all" {
        // Width ≤ 4 exhaustively, lengths through 8 (up to 2520 schedules
        // per configuration).
        match run_suite(8, 4) {
            Ok(reports) => {
                let schedules: usize = reports.iter().map(|r| r.schedules).sum();
                if !opts.json {
                    println!(
                        "loom: {} configurations, {} schedules explored, all deterministic",
                        reports.len(),
                        schedules
                    );
                }
            }
            Err((len, threads, v)) => {
                eprintln!("loom: len={len} threads={threads}: {v}");
                failed = true;
            }
        }
    }

    if opts.command == "verify" || opts.command == "all" {
        match verify_figure_graphs(opts.nodes, Seed(opts.seed)) {
            Ok(reports) => {
                if !opts.json {
                    let merged: usize = reports.iter().map(|r| r.report.merged_links_checked).sum();
                    let links: usize = reports.iter().map(|r| r.report.links).sum();
                    println!(
                        "verify: {} graphs clean ({} links, {} merged links checked \
                         against conditions (a)/(b))",
                        reports.len(),
                        links,
                        merged
                    );
                }
            }
            Err(f) => {
                eprintln!("verify: {} FAILED:", f.label);
                for v in &f.violations {
                    eprintln!("  {v}");
                }
                failed = true;
            }
        }

        match verify_storage(opts.nodes, Seed(opts.seed)) {
            Ok(reports) => {
                if !opts.json {
                    let keys: usize = reports.iter().map(|r| r.keys_checked).sum();
                    let repaired: usize = reports.iter().map(|r| r.repaired).sum();
                    println!(
                        "storage: {} probes clean ({} keys checked against their \
                         replication policy, {} replicas repaired)",
                        reports.len(),
                        keys,
                        repaired
                    );
                }
            }
            Err(f) => {
                eprintln!("storage: {} FAILED:", f.label);
                for v in &f.violations {
                    eprintln!("  {v}");
                }
                failed = true;
            }
        }
    }

    if opts.command == "protocol" || opts.command == "all" {
        match run_protocol_suite(&ExploreConfig::default()) {
            Ok(reports) => {
                if opts.json {
                    println!("{}", reports_to_json(&reports));
                } else {
                    for r in &reports {
                        println!(
                            "protocol: {}: {} states explored ({} terminal, \
                             {} deduped, {} sleep-pruned, depth {}), invariants hold",
                            r.scenario,
                            r.explored,
                            r.terminals,
                            r.deduped,
                            r.sleep_pruned,
                            r.max_depth_seen
                        );
                    }
                }
            }
            Err(r) => {
                match &r.violation {
                    Some(cx) => {
                        eprintln!(
                            "protocol: {} FAILED after {} states \
                             (counterexample minimized {} -> {} deliveries, \
                             fingerprint {:#018x}):",
                            r.scenario,
                            r.explored,
                            cx.discovered_len,
                            cx.steps.len(),
                            cx.fingerprint
                        );
                        for (step, label) in cx.steps.iter().zip(&cx.labels) {
                            eprintln!(
                                "  deliver slot={} from={} seq={}  ({label})",
                                step.slot, step.from, step.seq
                            );
                        }
                        for v in &cx.violations {
                            eprintln!("  violation: {v}");
                        }
                    }
                    None => eprintln!(
                        "protocol: {} INCOMPLETE: bounds hit after {} states \
                         (depth {}); raise max_states/max_depth",
                        r.scenario, r.explored, r.max_depth_seen
                    ),
                }
                failed = true;
            }
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn report_findings(findings: &[Finding], json: bool) {
    if json {
        println!("{}", findings_to_json(findings));
    } else {
        for f in findings {
            println!("{f}");
        }
    }
}
