//! Process memory and directory sizes, read without touching any setting.

use std::path::Path;

/// Peak resident set (`VmHWM`) of a live process, in KiB.
pub fn peak_rss_kb_of(pid: u32) -> Option<u64> {
    hwm(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

/// Peak resident set of this process, in KiB.
pub fn own_peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| hwm(&s))
        .unwrap_or(0)
}

fn hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// A fresh, empty directory.
pub fn fresh_dir(dir: &Path) -> std::path::PathBuf {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("benchmark scratch directory is writable");
    dir.to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_peak_rss_from_status_text() {
        assert_eq!(
            hwm("Name:\tx\nVmHWM:\t  12345 kB\nVmRSS: 1 kB\n"),
            Some(12345)
        );
        assert_eq!(hwm("Name:\tx\n"), None);
        assert!(own_peak_rss_kb() > 0);
    }
}
