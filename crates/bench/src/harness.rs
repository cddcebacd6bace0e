//! Shared experiment machinery.

use cgraph_gen::{dataset_by_name, Dataset};
use cgraph_graph::{Csr, EdgeList, VertexId};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;

/// Directory where experiment CSVs land.
pub fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    std::fs::create_dir_all(&dir).expect("create experiments dir");
    dir
}

/// Directory where generated datasets are cached.
pub fn datasets_dir() -> PathBuf {
    let dir = PathBuf::from("target/datasets");
    std::fs::create_dir_all(&dir).expect("create datasets dir");
    dir
}

/// Loads a named dataset, generating and caching it (binary format)
/// on first use so repeated experiment runs are fast. The cache name
/// carries [`cgraph_gen::RNG_STREAM_VERSION`], so datasets generated
/// by a different (e.g. upstream-`rand_chacha`) stream are never
/// silently mixed with this build's.
pub fn load_dataset(ds: Dataset) -> EdgeList {
    let spec = ds.spec();
    let path = datasets_dir().join(format!("{}.{}.cg", spec.name, cgraph_gen::RNG_STREAM_VERSION));
    if path.exists() {
        if let Ok(list) = cgraph_gen::io::read_binary(&path) {
            return list;
        }
    }
    eprintln!("[harness] generating dataset {} (~{})", spec.name, spec.paper_name);
    let list = ds.generate();
    cgraph_gen::io::write_binary(&path, &list).expect("cache dataset");
    list
}

/// Loads a dataset by CLI name, exiting with a usage hint on error.
pub fn load_dataset_by_name(name: &str) -> EdgeList {
    match dataset_by_name(name) {
        Some(ds) => load_dataset(ds),
        None => {
            eprintln!("unknown dataset {name:?}; use OR, FR, FRS-A, FRS-B or TINY");
            std::process::exit(2);
        }
    }
}

/// Samples `count` distinct source vertices with out-degree ≥ 1,
/// uniformly, deterministically under `seed` — the paper's "source
/// vertices are randomly chosen".
pub fn random_sources(edges: &EdgeList, count: usize, seed: u64) -> Vec<VertexId> {
    let csr = Csr::from_edges(edges.num_vertices(), edges.edges());
    let mut candidates: Vec<VertexId> =
        (0..edges.num_vertices()).filter(|&v| csr.degree(v) > 0).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    candidates.shuffle(&mut rng);
    candidates.truncate(count);
    assert!(candidates.len() == count, "graph has too few non-isolated vertices");
    candidates
}

/// Formats a duration compactly (µs/ms/s).
pub fn fmt_dur(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.2}ms", us as f64 / 1e3)
    } else {
        format!("{:.3}s", us as f64 / 1e6)
    }
}

/// Prints a fixed-width table to stdout.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>width$}  ", c, width = widths[i]));
        }
        s
    };
    println!("{}", line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>()));
    for row in rows {
        println!("{}", line(row));
    }
}

/// Writes a CSV file under `target/experiments/`.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) {
    let path = experiments_dir().join(name);
    let mut f = std::fs::File::create(&path).expect("create csv");
    writeln!(f, "{}", header.join(",")).unwrap();
    for row in rows {
        writeln!(f, "{}", row.join(",")).unwrap();
    }
    println!("[csv] {}", path.display());
}

/// Parses `--key value` style CLI overrides: `arg_usize(&args, "--queries", 100)`.
pub fn arg_usize(args: &[String], key: &str, default: usize) -> usize {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Parses a `--key value` string override.
pub fn arg_string(args: &[String], key: &str, default: &str) -> String {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| default.to_string())
}

/// Standard experiment banner explaining the scaled-down setting.
pub fn banner(fig: &str, paper_setting: &str, our_setting: &str) {
    println!("--------------------------------------------------------------");
    println!("{fig}");
    println!("  paper : {paper_setting}");
    println!("  here  : {our_setting}");
    println!("--------------------------------------------------------------");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_sources_are_distinct_and_seeded() {
        let g = cgraph_gen::erdos_renyi(200, 1000, 1);
        let a = random_sources(&g, 50, 9);
        let b = random_sources(&g, 50, 9);
        assert_eq!(a, b);
        let mut s = a.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 50);
    }

    #[test]
    fn fmt_dur_ranges() {
        assert_eq!(fmt_dur(Duration::from_micros(500)), "500µs");
        assert_eq!(fmt_dur(Duration::from_millis(12)), "12.00ms");
        assert_eq!(fmt_dur(Duration::from_secs(2)), "2.000s");
    }

    #[test]
    fn arg_parsing() {
        let args: Vec<String> =
            ["--queries", "42", "--dataset", "FR"].iter().map(|s| s.to_string()).collect();
        assert_eq!(arg_usize(&args, "--queries", 7), 42);
        assert_eq!(arg_usize(&args, "--missing", 7), 7);
        assert_eq!(arg_string(&args, "--dataset", "OR"), "FR");
    }
}
