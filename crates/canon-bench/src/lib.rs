//! Shared machinery for the figure/table experiment binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure from the
//! paper's evaluation (§5). All experiments are seeded and print their
//! configuration first, so results are exactly reproducible. Binaries
//! accept:
//!
//! * `--quick` — cap the network size for a fast smoke run;
//! * `--max-n <N>` — explicit size cap;
//! * `--seeds <S>` — number of trials averaged per cell;
//! * `--seed <BASE>` — base seed (default 42);
//! * `--threads <T>` — worker threads for parallel construction and the
//!   trial matrix (default: all cores; `0` also means all cores);
//! * `--json` — JSON Lines (one object per record) instead of aligned
//!   text, for committed baselines: read by `construction` (its rows) and
//!   accepted by `wire_sizes` (which prints JSON Lines either way). A
//!   figure binary prints text tables only, and `--json` makes its
//!   [`banner`] fail with the usage message.
//!
//! `--threads` is wired straight into [`canon_par::set_global_threads`],
//! which both the construction pipeline (`canon::engine::build_canonical`,
//! the flat whole-network constructors) and the trial runner
//! ([`run_matrix`]) consult. Every experiment is deterministic for a fixed
//! seed *regardless* of the thread count: per-node randomness is derived
//! from `(seed, node)` and per-trial randomness from `(seed, label,
//! trial)`, never from scheduling.
//!
//! # The trial runner
//!
//! [`run_matrix`] executes one closure per `(size, trial)` cell of the
//! experiment matrix, in parallel. Results come back grouped by size, in
//! deterministic (size-major, trial-minor) order. No figure reads a
//! clock: the one timing binary is `construction`.

#![forbid(unsafe_code)]

use canon_hierarchy::{DomainId, Hierarchy, Placement};
use canon_id::rng::Seed;
use canon_overlay::{NodeIndex, OverlayGraph};
use std::collections::BTreeMap;

/// Command-line configuration shared by the experiment binaries.
#[derive(Clone, Copy, Debug)]
pub struct BenchConfig {
    /// Largest network size to run.
    pub max_n: usize,
    /// Trials averaged per table cell.
    pub seeds: u64,
    /// Base seed.
    pub base_seed: u64,
    /// Worker threads (0 = all cores).
    pub threads: usize,
    /// Emit JSON Lines instead of aligned text (`construction` only).
    pub json: bool,
}

impl BenchConfig {
    /// Parses `std::env::args`, with experiment-specific defaults, and
    /// applies `--threads` to the global [`canon_par`] thread pool.
    ///
    /// # Panics
    ///
    /// Panics (with a usage message) on malformed arguments.
    pub fn from_args(default_max_n: usize, default_seeds: u64) -> BenchConfig {
        let mut cfg = BenchConfig {
            max_n: default_max_n,
            seeds: default_seeds,
            base_seed: 42,
            threads: 0,
            json: false,
        };
        let args: Vec<String> = std::env::args().skip(1).collect();
        fn value<T: std::str::FromStr>(args: &[String], i: usize, flag: &str) -> T {
            args.get(i)
                .unwrap_or_else(|| panic!("{flag} takes an integer value"))
                .parse()
                .unwrap_or_else(|_| panic!("{flag} takes an integer value"))
        }
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--quick" => cfg.max_n = cfg.max_n.min(4096),
                "--max-n" => {
                    i += 1;
                    cfg.max_n = value(&args, i, "--max-n");
                }
                "--seeds" => {
                    i += 1;
                    cfg.seeds = value(&args, i, "--seeds");
                }
                "--seed" => {
                    i += 1;
                    cfg.base_seed = value(&args, i, "--seed");
                }
                "--threads" => {
                    i += 1;
                    cfg.threads = value(&args, i, "--threads");
                }
                "--json" => cfg.json = true,
                other => {
                    panic!(
                        "unknown argument {other}; try \
                         --quick/--max-n/--seeds/--seed/--threads/--json"
                    )
                }
            }
            i += 1;
        }
        canon_par::set_global_threads(cfg.threads);
        cfg
    }

    /// The doubling size sweep `from..=max_n`.
    pub fn sizes(&self, from: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut n = from;
        while n <= self.max_n {
            out.push(n);
            n *= 2;
        }
        out
    }

    /// The seed for trial `t` of experiment `label`.
    pub fn trial_seed(&self, label: &str, t: u64) -> Seed {
        Seed(self.base_seed).derive(label).derive_index(t)
    }
}

/// One cell of the `(size, trial)` experiment matrix.
#[derive(Clone, Copy, Debug)]
pub struct Trial {
    /// Network size of this cell.
    pub n: usize,
    /// Trial number within the size, `0..cfg.seeds`.
    pub index: u64,
    /// The trial's seed (shared across sizes so curves over `n` use common
    /// random numbers, as the pre-existing binaries did).
    pub seed: Seed,
}

/// One completed trial: its cell and result.
#[derive(Clone, Debug)]
pub struct TrialOutcome<T> {
    /// The matrix cell that produced this outcome.
    pub trial: Trial,
    /// The closure's result.
    pub result: T,
}

/// All trials of one network size, in trial order.
#[derive(Clone, Debug)]
pub struct SizeRow<T> {
    /// The network size.
    pub n: usize,
    /// One outcome per trial, `0..cfg.seeds`.
    pub outcomes: Vec<TrialOutcome<T>>,
}

impl<T> SizeRow<T> {
    /// Averages a per-trial metric over the row.
    pub fn mean_of(&self, metric: impl Fn(&TrialOutcome<T>) -> f64) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().map(metric).sum::<f64>() / self.outcomes.len() as f64
    }
}

/// Runs `run` for every `(size, trial)` cell of the experiment matrix in
/// parallel (thread count from [`canon_par`]; `--threads` via
/// [`BenchConfig::from_args`]), returning rows grouped by size.
///
/// Cells execute independently — `run` must derive all randomness from the
/// trial's seed — so the outcome is deterministic and identical for every
/// thread count. Construction inside a cell (e.g. `build_crescendo`) runs
/// serially within that cell's worker; the matrix itself provides the
/// parallelism. Single-size experiments get the degenerate one-row matrix
/// by passing `from == cfg.max_n`.
pub fn run_matrix<T: Send>(
    cfg: &BenchConfig,
    label: &str,
    from: usize,
    run: impl Fn(&Trial) -> T + Sync,
) -> Vec<SizeRow<T>> {
    let mut cells = Vec::new();
    for &n in &cfg.sizes(from) {
        for t in 0..cfg.seeds {
            cells.push(Trial {
                n,
                index: t,
                seed: cfg.trial_seed(label, t),
            });
        }
    }
    let mut outcomes = canon_par::par_map(&cells, |_, trial| TrialOutcome {
        trial: *trial,
        result: run(trial),
    })
    .into_iter();
    // par_map preserves input order, so outcomes arrive size-major,
    // trial-minor; regroup them by size.
    let mut rows: Vec<SizeRow<T>> = Vec::new();
    for n in cfg.sizes(from) {
        let outcomes: Vec<TrialOutcome<T>> = outcomes.by_ref().take(cfg.seeds as usize).collect();
        rows.push(SizeRow { n, outcomes });
    }
    rows
}

/// Prints a header banner with the experiment id and configuration as `#`
/// comment lines.
///
/// # Panics
///
/// Panics with the usage message in `--json` mode: the tables below a
/// banner are text.
pub fn banner(id: &str, what: &str, cfg: &BenchConfig) {
    assert!(
        !cfg.json,
        "{id} prints text tables only; try --quick/--max-n/--seeds/--seed/--threads"
    );
    let threads = if cfg.threads == 0 {
        canon_par::available_cores()
    } else {
        cfg.threads
    };
    println!("# {id}: {what}");
    println!(
        "# config: max_n={} seeds={} base_seed={} threads={}",
        cfg.max_n, cfg.seeds, cfg.base_seed, threads
    );
}

/// Prints one aligned table row from string cells.
pub fn row(cells: &[String]) {
    let line: Vec<String> = cells.iter().map(|c| format!("{c:>14}")).collect();
    println!("{}", line.join(" "));
}

/// Prints one result record as key/value pairs: a JSON object line in
/// `--json` mode, an aligned table row of the values otherwise (keys are
/// the column names the binary already printed as its header).
pub fn emit_row(cfg: &BenchConfig, pairs: &[(&str, String)]) {
    if cfg.json {
        println!("{}", json_object(pairs));
    } else {
        let cells: Vec<String> = pairs.iter().map(|(_, v)| v.clone()).collect();
        row(&cells);
    }
}

/// Escapes `s` for a JSON string literal (quotes, backslashes, control
/// characters).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats key/value pairs as one JSON object. Values that are finite JSON
/// numbers are emitted bare; everything else becomes an escaped string.
pub fn json_object(pairs: &[(&str, String)]) -> String {
    let is_number = |s: &str| {
        s.parse::<f64>().map(|v| v.is_finite()).unwrap_or(false)
            && s.chars()
                .all(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
    };
    let fields: Vec<String> = pairs
        .iter()
        .map(|(k, v)| {
            if is_number(v) {
                format!("\"{}\": {v}", json_escape(k))
            } else {
                format!("\"{}\": \"{}\"", json_escape(k), json_escape(v))
            }
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Formats a float cell.
pub fn f(v: f64) -> String {
    format!("{v:.3}")
}

/// Groups graph node indices by their ancestor domain at `depth`.
///
/// Nodes whose leaf is shallower than `depth` are grouped under the leaf
/// itself. The map is ordered (`BTreeMap`) so callers that iterate groups
/// — fig7/fig8 sample query pools by group position — are deterministic.
pub fn members_by_domain_at_depth(
    hierarchy: &Hierarchy,
    placement: &Placement,
    graph: &OverlayGraph,
    depth: u32,
) -> BTreeMap<DomainId, Vec<NodeIndex>> {
    let mut map: BTreeMap<DomainId, Vec<NodeIndex>> = BTreeMap::new();
    for (id, leaf) in placement.iter() {
        let d = hierarchy.ancestor_at_depth(leaf, depth.min(hierarchy.depth(leaf)));
        let idx = graph.index_of(id).expect("placed node in graph");
        map.entry(d).or_default().push(idx);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(max_n: usize, seeds: u64) -> BenchConfig {
        BenchConfig {
            max_n,
            seeds,
            base_seed: 7,
            threads: 0,
            json: false,
        }
    }

    #[test]
    fn sizes_double_up_to_cap() {
        let cfg = cfg(8192, 1);
        assert_eq!(cfg.sizes(1024), vec![1024, 2048, 4096, 8192]);
        assert_eq!(cfg.sizes(10000), Vec::<usize>::new());
    }

    #[test]
    fn trial_seeds_differ() {
        let cfg = cfg(0, 2);
        assert_ne!(cfg.trial_seed("a", 0), cfg.trial_seed("a", 1));
        assert_ne!(cfg.trial_seed("a", 0), cfg.trial_seed("b", 0));
        assert_eq!(cfg.trial_seed("a", 1), cfg.trial_seed("a", 1));
    }

    #[test]
    fn member_grouping_covers_all_nodes() {
        use canon_id::rng::Seed;
        let h = Hierarchy::balanced(3, 3);
        let p = Placement::uniform(&h, 90, Seed(1));
        let net = canon::crescendo::build_crescendo(&h, &p);
        let by1 = members_by_domain_at_depth(&h, &p, net.graph(), 1);
        let total: usize = by1.values().map(Vec::len).sum();
        assert_eq!(total, 90);
        assert_eq!(by1.len(), 3);
    }

    #[test]
    fn run_matrix_covers_every_cell_in_order() {
        let cfg = cfg(4096, 3);
        let rows = run_matrix(&cfg, "t", 1024, |trial| (trial.n, trial.index));
        assert_eq!(rows.len(), 3);
        for (row, expect_n) in rows.iter().zip([1024, 2048, 4096]) {
            assert_eq!(row.n, expect_n);
            let got: Vec<(usize, u64)> = row.outcomes.iter().map(|o| o.result).collect();
            assert_eq!(got, vec![(expect_n, 0), (expect_n, 1), (expect_n, 2)]);
        }
    }

    #[test]
    fn run_matrix_is_thread_count_independent() {
        let cfg = cfg(2048, 2);
        let work = |trial: &Trial| {
            let ids = canon_id::rng::random_ids(trial.seed, trial.n.min(64));
            ids.iter().map(|i| i.raw() as u128).sum::<u128>()
        };
        let serial = canon_par::with_threads(1, || run_matrix(&cfg, "t", 1024, work));
        let parallel = canon_par::with_threads(4, || run_matrix(&cfg, "t", 1024, work));
        let flat = |rows: &[SizeRow<u128>]| -> Vec<u128> {
            rows.iter()
                .flat_map(|r| r.outcomes.iter().map(|o| o.result))
                .collect()
        };
        assert_eq!(flat(&serial), flat(&parallel));
    }

    #[test]
    fn json_object_types_numbers_and_strings() {
        let line = json_object(&[
            ("n", "1024".to_string()),
            ("p50_us", "13.25".to_string()),
            ("mode", "channel".to_string()),
            ("note", "a \"quoted\" value".to_string()),
            ("nan", "NaN".to_string()),
        ]);
        assert_eq!(
            line,
            "{\"n\": 1024, \"p50_us\": 13.25, \"mode\": \"channel\", \
             \"note\": \"a \\\"quoted\\\" value\", \"nan\": \"NaN\"}"
        );
    }

    #[test]
    fn size_row_mean_averages_results() {
        let row = SizeRow {
            n: 8,
            outcomes: vec![
                TrialOutcome {
                    trial: Trial {
                        n: 8,
                        index: 0,
                        seed: Seed(0),
                    },
                    result: 1.0,
                },
                TrialOutcome {
                    trial: Trial {
                        n: 8,
                        index: 1,
                        seed: Seed(0),
                    },
                    result: 3.0,
                },
            ],
        };
        assert_eq!(row.mean_of(|o| o.result), 2.0);
    }
}
