//! Where a number came from: the machine, the toolchain, the commit and
//! the thread counts it was measured with.

use std::process::Command;

/// Hardware and toolchain facts printed with every result.
pub struct Provenance {
    pub nproc: usize,
    pub cpu_model: String,
    pub l2: String,
    pub l3: String,
    pub rustc: String,
    pub commit: String,
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

fn command_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Provenance {
    pub fn collect() -> Self {
        let unknown = || "unknown".to_string();
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(unknown);
        Provenance {
            nproc: nproc(),
            cpu_model,
            l2: read_trimmed("/sys/devices/system/cpu/cpu0/cache/index2/size")
                .unwrap_or_else(unknown),
            l3: read_trimmed("/sys/devices/system/cpu/cpu0/cache/index3/size")
                .unwrap_or_else(unknown),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(unknown),
            // A checkout without git history (an exported tree) has none.
            commit: command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kib(&status).map_or(f64::NAN, |kib| kib as f64 / 1024.0)
}

fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_line_parses() {
        let status = "Name:\tx\nVmPeak:\t  100 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20480));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }
}
