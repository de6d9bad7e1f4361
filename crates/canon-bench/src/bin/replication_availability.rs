//! §2.3 fault-tolerance quantified: content availability under crash
//! failures as a function of the successor-replication factor, with and
//! without re-replication repair.
//!
//! Expected shape: availability ≈ 1 − f^r for crash fraction f and
//! replication r (independent replica failures); one repair pass after the
//! crash wave restores ≈ 100% for every item with at least one survivor.

use canon_bench::{banner, f, row, BenchConfig};
use canon_hierarchy::{Hierarchy, Placement};
use canon_id::hash::hash_name;
use canon_store::ReplicatedStore;
use rand::Rng;

fn main() {
    let cfg = BenchConfig::from_args(4096, 1);
    banner(
        "replication",
        "content availability vs crash fraction and replication factor",
        &cfg,
    );
    let n = cfg.max_n;
    let items = 2000;
    let rs = [1usize, 2, 3, 5];
    let mut header = vec!["crashFrac".to_owned()];
    header.extend(rs.iter().map(|r| format!("r={r}")));
    header.extend(rs.iter().map(|r| format!("1-f^{r}")));
    row(&header);

    for crash_pct in [10usize, 20, 30, 50] {
        let mut cells = vec![format!("{crash_pct}%")];
        let mut predictions = Vec::new();
        for &r in &rs {
            let h = Hierarchy::balanced(8, 3);
            let seed = cfg.trial_seed("repl", (crash_pct * 10 + r) as u64);
            let p = Placement::uniform(&h, n, seed);
            let mut store = ReplicatedStore::new(&h, &p, r);
            for i in 0..items {
                store.put(hash_name(&format!("item-{i}")), h.root());
            }
            let mut rng = seed.derive("crashes").rng();
            let ids = p.ids().to_vec();
            let quota = n * crash_pct / 100;
            let mut killed = std::collections::HashSet::new();
            while killed.len() < quota {
                let v = ids[rng.gen_range(0..ids.len())];
                if killed.insert(v) {
                    store.crash(v);
                }
            }
            cells.push(f(store.availability()));
            let fr = crash_pct as f64 / 100.0;
            predictions.push(1.0 - fr.powi(r as i32));
        }
        cells.extend(predictions.into_iter().map(f));
        row(&cells);
    }
    println!("# expect: measured availability tracks the 1-f^r independence prediction");
    println!("# closely at every crash fraction and replication factor");
}
