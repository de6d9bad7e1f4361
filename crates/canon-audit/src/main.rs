//! `canon-audit` — the workspace's static-analysis entry point.
//!
//! ```text
//! cargo run -p canon-audit -- [lint|protocol|all] [--json] [--root <path>]
//! ```
//!
//! * `lint` — run the four repo-specific source rules over `crates/*/src`
//!   and `src/` (the generic policies — panic sites, wall clock, `unsafe`,
//!   hash-order walks — are clippy's, see `clippy.toml`);
//! * `protocol` — exhaustively explore the message-delivery interleavings
//!   of the six scripted churn scenarios (join/leave/handover and cache
//!   invalidation under crashes and partitions), checking the ring invariant, acked-write
//!   durability, pin conservation and RPC-id sanity after every delivery;
//! * `all` (default) — both.
//!
//! Findings print as `file:line: [rule] message`; `--json` switches one
//! stage to a machine-readable array (`--json` with `all` is a usage
//! error: two stages would print two documents). The exit code is 1 iff
//! anything was found, 2 on a usage error.

#![forbid(unsafe_code)]

use canon_audit::lint::{findings_to_json, lint_workspace};
use canon_audit::protocol::{reports_to_json, run_protocol_suite, ExploreConfig};
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    command: String,
    json: bool,
    root: PathBuf,
}

fn usage() -> ! {
    eprintln!("usage: canon-audit [lint|protocol|all] [--json] [--root <path>]");
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        command: "all".to_owned(),
        json: false,
        // The workspace root relative to this crate's manifest, so
        // `cargo run -p canon-audit` works from anywhere in the tree.
        root: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "lint" | "protocol" | "all" => opts.command = a,
            "--json" => opts.json = true,
            "--root" => opts.root = PathBuf::from(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    if opts.json && opts.command == "all" {
        usage();
    }
    opts
}

fn main() -> ExitCode {
    let opts = parse_args();
    let mut failed = false;

    if opts.command == "lint" || opts.command == "all" {
        match lint_workspace(&opts.root) {
            Ok(findings) => {
                if opts.json {
                    println!("{}", findings_to_json(&findings));
                } else {
                    for f in &findings {
                        println!("{f}");
                    }
                    println!("lint: {} finding(s)", findings.len());
                }
                failed |= !findings.is_empty();
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
