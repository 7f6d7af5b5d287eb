//! Host facts recorded with every result, and process memory.

use std::path::{Path, PathBuf};

/// The repository checkout the benchmark was built from.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `PINOT_*` variables in the environment. Any of them changes a shipped
/// default, so a run with one set would not measure the defaults.
pub fn pinot_overrides() -> Vec<String> {
    std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("PINOT_"))
        .collect()
}

/// Resident set size of this process, in bytes, after handing freed heap
/// pages back to the kernel so that only live memory is counted.
pub fn rss_bytes() -> u64 {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim only releases free heap memory; it
        // takes a plain integer and touches no memory the caller owns.
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// The commit under test: `HEAD` when the checkout is itself a git
/// repository, otherwise an FNV-1a digest of the sources, so two results
/// still say whether they measured the same code.
pub fn code_version() -> String {
    let root = repo_root();
    let git = std::process::Command::new("git")
        .args(["rev-parse", "--show-toplevel", "HEAD"])
        .current_dir(&root)
        .stderr(std::process::Stdio::null())
        .output();
    if let Ok(out) = git {
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines = text.lines();
        if let (true, Some(top), Some(head)) = (out.status.success(), lines.next(), lines.next()) {
            if Path::new(top).canonicalize().ok() == root.canonicalize().ok() {
                return head.to_string();
            }
        }
    }
    let mut files = Vec::new();
    for dir in ["crates", "src", "shims", "perfbench/src"] {
        collect_files(&root.join(dir), &mut files);
    }
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in std::fs::read(&f).unwrap_or_default() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("source-fnv64:{h:016x}")
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let path = e.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(path);
        }
    }
}
