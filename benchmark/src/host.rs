//! What the host reports about this process and itself.

use std::process::Command;

/// Hardware threads the process may use.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process (VmHWM), in MiB. Each workload
/// runs in a process of its own, so the peak is the workload's.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// CPU seconds (user + system) of this process so far, all threads,
/// exited ones included. Read from `/proc/self/stat`, whose tick is
/// 10 ms on Linux (USER_HZ = 100): use it over seconds, not over a call.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may hold spaces; fields are counted after it.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn rustc_version() -> String {
    first_line_of("rustc", &["--version"])
}

/// The commit of the checkout the benchmark runs in, or `unknown`
/// outside a git repository.
pub fn git_commit() -> String {
    first_line_of("git", &["rev-parse", "HEAD"])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_give_plausible_numbers() {
        assert!(hardware_threads() >= 1);
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().expect("VmHWM present") > 0.5);
            assert!(cpu_seconds().expect("stat present") >= 0.0);
        }
    }
}
