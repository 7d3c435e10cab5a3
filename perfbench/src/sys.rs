//! Host and build provenance, plus the process's peak resident set.

use std::path::{Path, PathBuf};

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn sysconf(name: i32) -> i64;
}

const RUSAGE_SELF: i32 = 0;
const SC_LEVEL2_CACHE_SIZE: i32 = 191;
const SC_LEVEL3_CACHE_SIZE: i32 = 194;

/// The process's peak resident set size in MiB.
pub fn peak_rss_mb() -> f64 {
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a writable struct with the C `rusage` layout.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc == 0 {
        usage.maxrss_kb as f64 / 1024.0
    } else {
        0.0
    }
}

/// The L2 and L3 cache sizes in bytes as the C library reports them
/// (0 when unknown).
pub fn cache_bytes() -> (u64, u64) {
    // SAFETY: `sysconf` only reads its integer argument.
    let (l2, l3) = unsafe { (sysconf(SC_LEVEL2_CACHE_SIZE), sysconf(SC_LEVEL3_CACHE_SIZE)) };
    (l2.max(0) as u64, l3.max(0) as u64)
}

/// Logical cores available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The compiler that built the benchmark.
pub fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC")
}

/// The repository root: the parent of this package's directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package lives inside the repository")
        .to_path_buf()
}

/// The commit checked out, read from `.git` when the checkout has one.
pub fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unavailable".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|line| line.ends_with(reference))
                .and_then(|line| line.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unavailable".to_string())
}

/// FNV-1a over the path and bytes of every source file the benchmark
/// builds from (`crates/` and this package), in sorted path order — a
/// revision stamp that also works in checkouts without `.git`.
pub fn source_hash(root: &Path) -> String {
    fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            if path.is_dir() {
                if name != "out" && name != "target" {
                    collect(&path, out);
                }
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("rs" | "toml" | "lock")
            ) {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    collect(&root.join("crates"), &mut files);
    collect(&root.join("perfbench"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in &files {
        let rel = file.strip_prefix(root).unwrap_or(file);
        let bytes = std::fs::read(file).unwrap_or_default();
        for &b in rel.to_string_lossy().as_bytes().iter().chain(&bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x} ({} files)", files.len())
}
