//! The provenance stamp printed with every result: code revision,
//! compiler, cores, threads, seed and run length. A result without
//! these is not a data point.

use std::path::Path;
use std::process::Command;

/// `git rev-parse HEAD` of the repository in the working directory, if
/// it is a git checkout.
fn git_rev() -> String {
    Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable".to_string())
}

/// FNV-1a digest over the program's sources (path and contents of every
/// file under `crates/`, plus the workspace manifest and lock file), in
/// path order: identifies the code measured even where there is no git
/// history.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            match e.file_type() {
                Ok(t) if t.is_dir() => walk(&p, out),
                Ok(t) if t.is_file() => out.push(p),
                _ => {}
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        if let Ok(data) = std::fs::read(f) {
            eat(f
                .strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes());
            eat(&data);
        }
    }
    format!("{h:016x}")
}

/// The stamp as one JSON object.
pub fn line(
    workload: &str,
    seed: u64,
    seconds: f64,
    measured_s: f64,
    trace: bool,
    cores: usize,
    threads: usize,
) -> String {
    format!(
        "{{\"git_rev\": \"{}\", \"source_digest\": \"{}\", \"rustc\": \"{}\", \"cores\": {cores}, \
         \"threads\": {threads}, \"workload\": \"{workload}\", \"seed\": {seed}, \
         \"run_seconds\": {seconds}, \"measured_s\": {measured_s:.3}, \"trace\": {trace}}}",
        git_rev(),
        source_digest(Path::new(".")),
        env!("PERFBENCH_RUSTC"),
    )
}
