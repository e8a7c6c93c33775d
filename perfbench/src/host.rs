//! Host and commit stamp, and peak resident memory.

use std::path::Path;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Where a result was measured: a comparison refuses to mix hosts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostStamp {
    /// Threads available to the process.
    pub nproc: usize,
    /// CPU model string from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version`.
    pub rustc: String,
    /// Commit of the checkout, or `unknown` outside a git checkout.
    pub commit: String,
    /// Whether the checkout had uncommitted changes (`None` if unknown).
    pub dirty: Option<bool>,
}

/// Threads the benchmark may use: the available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

impl HostStamp {
    /// Stamps the current host and the checkout in the working
    /// directory.
    pub fn current() -> HostStamp {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
        let (commit, dirty) = if Path::new(".git").exists() {
            (
                command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
                command_line("git", &["status", "--porcelain"]).map(|s| !s.is_empty()),
            )
        } else {
            ("unknown".into(), None)
        };
        HostStamp {
            nproc: nproc(),
            cpu_model,
            rustc,
            commit,
            dirty,
        }
    }

    /// Whether results from `self` and `other` may be compared: same
    /// machine shape and toolchain (the commits may differ).
    pub fn same_host(&self, other: &HostStamp) -> bool {
        self.nproc == other.nproc && self.cpu_model == other.cpu_model && self.rustc == other.rustc
    }
}

/// Runs a command to completion and returns its trimmed stdout.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this
/// one), in KiB.
pub fn peak_rss_kib(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Polls the peak resident set of child processes until stopped; the
/// last reading before a child exits is its peak, since `VmHWM` only
/// grows.
pub struct RssWatch {
    stop: Arc<AtomicBool>,
    peaks: Arc<Mutex<Vec<u64>>>,
    handle: JoinHandle<()>,
}

impl RssWatch {
    /// Starts watching `pids`.
    pub fn start(pids: Vec<u32>) -> RssWatch {
        let stop = Arc::new(AtomicBool::new(false));
        let peaks = Arc::new(Mutex::new(vec![0u64; pids.len()]));
        let handle = {
            let stop = Arc::clone(&stop);
            let peaks = Arc::clone(&peaks);
            std::thread::spawn(move || loop {
                let done = stop.load(Ordering::Relaxed);
                let mut p = peaks.lock().expect("rss watch lock");
                for (slot, pid) in p.iter_mut().zip(&pids) {
                    if let Some(kib) = peak_rss_kib(&pid.to_string()) {
                        *slot = (*slot).max(kib);
                    }
                }
                drop(p);
                if done {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            })
        };
        RssWatch {
            stop,
            peaks,
            handle,
        }
    }

    /// Stops watching and returns the summed peaks, in KiB.
    pub fn finish(self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("rss watch thread panicked");
        let total = self.peaks.lock().expect("rss watch lock").iter().sum();
        total
    }
}
