//! The canon-node serving benchmark: one workload per run, cycles of
//! set-up → lo → hi → burst on a fresh 1,024-node Crescendo cluster,
//! driven from one thread through `canon-node`'s public API.
//!
//! ```text
//! canon-serving-bench --workload <name> [--seed N] [--seconds S]
//!                     [--trace 0|1] [--smoke]
//! ```
//!
//! An untraced run prints the end-to-end metrics; a traced run alternates
//! untraced and traced cycles, runs the layer probes after each traced
//! cycle, prints the per-layer metrics and writes
//! `bench/out/trace_<workload>.json`. The last line of standard output is
//! the result as one JSON object. See `bench/README.md`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod clock;
mod count;
mod cycle;
mod host;
mod metrics;
mod oracle;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use canon_id::rng::Seed;
use metrics::Values;
use oracle::Failures;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Shape, Spec, SEG_NAMES, SPECS};

/// Traced cycles whose spans are kept and written to the trace file.
const TRACE_FILE_CYCLES: usize = 3;

/// Where a traced run writes its spans, relative to the working directory
/// (the repository root).
const OUT_DIR: &str = "bench/out";

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn usage() -> String {
    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    format!(
        "usage: canon-serving-bench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--smoke]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        spec: &SPECS[0],
        seed: 1,
        seconds: 25.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    args.spec = SPECS
        .iter()
        .find(|s| s.name == name)
        .ok_or(format!("unknown workload {name}"))?;
    Ok(args)
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // One worker: `par_map` then runs each round inline on this thread.
    canon_par::set_global_threads(1);
    let epoch = Instant::now();
    let spec = args.spec;
    let shape = if args.smoke {
        Shape::SMOKE
    } else {
        Shape::FULL
    };
    let seed = Seed(args.seed);

    // Count pass: the reference schedule under the virtual clock.
    let counts = count::count_pass(
        spec,
        &shape,
        &workloads::draw(spec, &shape, workloads::COUNT_SEED),
    );
    let digest = workloads::draw(spec, &shape, seed.derive_index(0)).digest();
    println!(
        "workload {} seed {} digest {:016x} nodes {} window_ms {} burst {} rate_lo {} rate_hi {} \
         framed {} cache {} trace {} workers {}",
        spec.name,
        args.seed,
        digest,
        shape.n,
        shape.window_ns / 1_000_000,
        shape.burst,
        spec.rate_lo,
        spec.rate_hi,
        spec.framed,
        spec.cache,
        args.trace,
        canon_par::current_threads(),
    );
    println!(
        "count pass: {} commands, {} messages, {} bytes, {} failed, {:.2} s; per command: \
         {:.3} hops, {:.3} served, {:.3} cache lookups, {:.3} fills, {:.3} invalidations",
        counts.cmds,
        counts.msgs,
        counts.bytes,
        counts.failed,
        epoch.elapsed().as_secs_f64(),
        counts.per_req(counts.hops),
        counts.per_req(counts.served),
        counts.per_req(counts.cache.hits + counts.cache.misses),
        counts.per_req(counts.cache.fills),
        counts.per_req(counts.cache.invalidations),
    );

    // Cycles until the time is used. A traced run alternates untraced and
    // traced cycles, so both kinds see the same machine.
    let mut tracer = trace::Tracer::new(false);
    let mut e2e: Vec<Values> = Vec::new();
    let mut layer: Vec<Values> = Vec::new();
    let mut traced_capacity = Vec::new();
    let mut untraced_capacity = Vec::new();
    let mut failures = Failures {
        count_pass: counts.failed,
        ..Failures::default()
    };
    let mut backlog = [Vec::new(), Vec::new()];
    let mut attempted = 0u64;
    let mut yard_us = Vec::new();
    // Smoke: two cycles (two of each kind when tracing), whatever the time.
    let min_cycles = if args.trace { 2 } else { 1 } * if args.smoke { 2 } else { 1 };
    let started = Instant::now();
    let mut cycle = 0u32;
    loop {
        let cycle_started = Instant::now();
        let traced = args.trace && cycle % 2 == 1;
        let keep_spans = traced && layer.len() < TRACE_FILE_CYCLES;
        let first_span = tracer.spans().len();
        tracer.start_cycle(cycle, traced);
        let out = cycle::run_cycle(
            spec,
            &shape,
            seed.derive_index(u64::from(cycle)),
            epoch,
            &mut tracer,
        );
        let ev = metrics::evaluate(spec, shape.window_ns, &out, &counts);
        failures.add(&ev.failures);
        backlog[0].push(ev.backlog_growth[0]);
        backlog[1].push(ev.backlog_growth[1]);
        attempted += ev.attempted;
        yard_us.push(ev.layer["host.probe_us"]);
        let capacity = ev.e2e["capacity_rps"];
        if traced {
            let probes = probes::run(spec, &out, epoch, &mut tracer);
            let mut values = ev.layer;
            values.extend(metrics::attribute(spec, &probes, &counts, capacity));
            values.insert(
                "trace.span_coverage",
                metrics::span_coverage(tracer.spans(), cycle),
            );
            layer.push(values);
            traced_capacity.push(capacity);
            if !keep_spans {
                tracer.truncate(first_span);
            }
        } else {
            untraced_capacity.push(capacity);
            e2e.push(ev.e2e);
        }
        cycle += 1;
        let used = started.elapsed().as_secs_f64();
        let last = cycle_started.elapsed().as_secs_f64();
        if cycle >= min_cycles && (args.smoke || used + last > args.seconds) {
            break;
        }
    }

    // A paced segment is saturated when its backlog kept growing in the
    // typical cycle (one stall of the host in one cycle is not
    // saturation); its latencies are then those of overload, and the run
    // is incorrect.
    let growth = [stats::median(&backlog[0]), stats::median(&backlog[1])];
    for (s, g) in growth.iter().enumerate() {
        if *g > metrics::BACKLOG_LIMIT {
            println!(
                "\nthe {} segment is saturated: backlog growth {g:.2}",
                SEG_NAMES[s]
            );
            failures.saturated += 1;
        }
    }

    // Run-level values, repeated into every cycle's map so that the same
    // aggregation prints them.
    let rss = peak_rss_mb();
    for values in &mut e2e {
        values.insert("peak_rss_mb", rss);
    }
    let overhead = 1.0 - stats::median(&traced_capacity) / stats::median(&untraced_capacity);
    for values in &mut layer {
        values.insert("trace.overhead_share", overhead);
        values.insert("par.workers", canon_par::current_threads() as f64);
    }

    let e2e_rows = report::rows(&report::END_TO_END, &e2e);
    report::print_table(
        &format!("end-to-end ({} untraced cycles)", e2e.len()),
        &e2e_rows,
    );
    println!(
        "  setup_s, capacity_rps and lat_* are scaled to the reference host: the yardstick \
         took {:.2} ms here (median), {:.0} ms there",
        stats::median(&yard_us) / 1e3,
        host::REFERENCE_NS / 1e6
    );
    let layer_rows = report::rows(&report::PER_LAYER, &layer);
    let mut trace_written = true;
    if args.trace {
        report::print_table(
            &format!("per-layer ({} traced cycles)", layer.len()),
            &layer_rows,
        );
        let path = format!("{OUT_DIR}/trace_{}.json", spec.name);
        let written = std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| {
                let mut w = std::io::BufWriter::new(f);
                tracer.write_json(spec.name, &mut w)?;
                std::io::Write::flush(&mut w)
            });
        match written {
            Ok(()) => println!("\ntrace: {} spans written to {path}", tracer.spans().len()),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                trace_written = false;
            }
        }
    }

    let failed = failures.total();
    report::print_ops(attempted, &failures);
    let correct = failed == 0 && trace_written;
    println!("correct {correct}");
    let rows = if args.trace { &layer_rows } else { &e2e_rows };
    println!("{}", report::result_line(correct, attempted, failed, rows));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
