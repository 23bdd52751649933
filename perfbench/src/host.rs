//! Host context read from `/proc`: what else the machine was doing while a
//! run measured, so a slow run can be explained.  Every reading is
//! best-effort — a missing file reads as zero, never as a failed run.

use std::time::Instant;

fn status_kb(key: &str) -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Current resident set size (`VmRSS`), in MB.
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:") / 1024.0
}

/// Host cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The 1/5/15-minute load averages.
pub fn loadavg() -> [f64; 3] {
    let text = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let mut out = [0.0; 3];
    for (slot, field) in out.iter_mut().zip(text.split_whitespace()) {
        *slot = field.parse().unwrap_or(0.0);
    }
    out
}

/// Whole-host CPU tick counters: `(total, steal + iowait)`.
fn cpu_ticks() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = text.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse().unwrap_or(0))
        .collect();
    let get = |i: usize| f.get(i).copied().unwrap_or(0);
    // user nice system idle iowait irq softirq steal
    let total = (0..8).map(get).sum();
    (total, get(4) + get(7))
}

/// This process's user + system CPU time, in clock ticks (`/proc/self/stat`).
fn process_ticks() -> u64 {
    let text = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<u64> = rest
        .split_whitespace()
        .map(|v| v.parse().unwrap_or(0))
        .collect();
    f.get(11).copied().unwrap_or(0) + f.get(12).copied().unwrap_or(0)
}

/// Counters taken at the start of a measured region.
#[derive(Debug, Clone, Copy)]
pub struct HostMark {
    at: Instant,
    cpu: (u64, u64),
    proc_ticks: u64,
    load: [f64; 3],
}

impl HostMark {
    /// Reads the counters now.
    pub fn now() -> Self {
        HostMark {
            at: Instant::now(),
            cpu: cpu_ticks(),
            proc_ticks: process_ticks(),
            load: loadavg(),
        }
    }

    /// The host context of the region since this mark, as one JSON object.
    /// `threads` is the worker count the workload asked for; the observed
    /// parallelism is this process's CPU time over the region's wall time
    /// (clock ticks assumed at the usual 100 Hz).
    pub fn context_json(&self, threads: usize) -> String {
        let wall = self.at.elapsed().as_secs_f64();
        let (total, stall) = cpu_ticks();
        let dt = total.saturating_sub(self.cpu.0);
        let ds = stall.saturating_sub(self.cpu.1);
        let cpu_s = process_ticks().saturating_sub(self.proc_ticks) as f64 / 100.0;
        let end = loadavg();
        format!(
            "{{\"nproc\":{},\"threads_requested\":{},\"parallelism_observed\":{:.3},\
             \"loadavg_start\":[{},{},{}],\"loadavg_end\":[{},{},{}],\
             \"steal_iowait_share\":{:.5},\"wall_s\":{:.3}}}",
            nproc(),
            threads,
            if wall > 0.0 { cpu_s / wall } else { 0.0 },
            self.load[0],
            self.load[1],
            self.load[2],
            end[0],
            end[1],
            end[2],
            if dt == 0 { 0.0 } else { ds as f64 / dt as f64 },
            wall,
        )
    }
}
