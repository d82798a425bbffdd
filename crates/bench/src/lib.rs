//! Shared helpers for the binaries that regenerate the tables and
//! figures of the paper's evaluation (see EXPERIMENTS.md for the
//! experiment index and DESIGN.md for the substitutions). Timing lives
//! in `benchmark/`, a package of its own.

use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir` (build output skipped) with its text.
pub fn rust_sources(dir: &Path) -> Vec<(PathBuf, String)> {
    let mut found = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "rs") {
                if let Ok(text) = std::fs::read_to_string(&p) {
                    found.push((p, text));
                }
            }
        }
    }
    found
}

/// Counts non-empty, non-comment lines of Rust source under `dir`
/// (the Fig. 7 metric applied to this reproduction).
pub fn count_loc(dir: &Path) -> usize {
    rust_sources(dir)
        .iter()
        .flat_map(|(_, text)| text.lines())
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .count()
}

/// The workspace root (assumes the harness runs inside the repository).
pub fn workspace_root() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop(); // crates/
    p.pop(); // workspace root
    p
}

/// Prints an aligned two-column table.
pub fn print_table(title: &str, rows: &[(String, String)]) {
    println!("{title}");
    let w = rows.iter().map(|(a, _)| a.len()).max().unwrap_or(0);
    for (a, b) in rows {
        println!("  {a:<w$}  {b}");
    }
    println!();
}
