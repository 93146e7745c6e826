//! Workspace lines of code per crate, reported next to the numbers as
//! information (never gated).

use std::fs;
use std::path::Path;

/// Non-blank, non-comment lines of every `.rs` file under `dir`.
pub fn rust_lines(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    let mut total = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            total += rust_lines(&path);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = fs::read_to_string(&path).unwrap_or_default();
            total += text
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with("//"))
                .count() as u64;
        }
    }
    total
}

/// `(metric name, lines)` for every directory of `crates/` under
/// `repo`, the root package (`src`, `tests`, `examples`) as `loc.root`,
/// and their sum as `loc.total`, in name order.
pub fn per_crate(repo: &Path) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    if let Ok(entries) = fs::read_dir(repo.join("crates")) {
        for entry in entries.flatten() {
            if entry.path().join("Cargo.toml").is_file() {
                let name = entry.file_name().to_string_lossy().into_owned();
                out.push((format!("loc.{name}"), rust_lines(&entry.path())));
            }
        }
    }
    out.sort();
    let root = ["src", "tests", "examples"]
        .iter()
        .map(|d| rust_lines(&repo.join(d)))
        .sum();
    out.push(("loc.root".to_string(), root));
    let total = out.iter().map(|(_, n)| n).sum();
    out.push(("loc.total".to_string(), total));
    out
}
