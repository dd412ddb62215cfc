//! Host time net of hypervisor steal.
//!
//! On a shared virtual machine the hypervisor takes vCPUs away from the
//! guest ("steal"), and how much it takes depends on the neighbours,
//! not on the simulator. Measured on a 2-vCPU VM, steal swung between
//! 1% and 30% within minutes and moved wall-clock rates by up to 40%.
//! The benchmark therefore times a region by what the guest actually
//! ran:
//!
//! * a region on one thread: that thread's on-CPU time
//!   (`/proc/thread-self/schedstat`, which excludes stolen time);
//! * a region on `t` threads that wait for each other (the epoch
//!   executor's barrier): wall time × (1 − s)^t, where `s` is the mean
//!   steal share of the vCPUs in `/proc/stat`: the time during which
//!   all `t` threads' vCPUs were running, if steal hits vCPUs
//!   independently. On the VM above this removed the steal dependence
//!   of the two-thread rate; a linear correction left half of it.
//!   `t` must count the threads that actually ran, not the threads
//!   asked for: every extra thread shrinks the time by another (1 − s).
//!
//! A one-thread region is also checked against the whole process's CPU
//! time (`utime + stime` in `/proc/self/stat`). If other threads of the
//! process worked during it, the calling thread's time would miss their
//! work, so the region is timed as a `t`-thread region instead, with `t`
//! the process's mean busy threads (process CPU time / wall time), and
//! [`Elapsed::shared`] is set.
//!
//! Without steal both equal wall-clock time for a busy region. When the
//! proc files are missing, the clock falls back to wall-clock time.

use std::time::Instant;

/// A point in time from which a region's host time is measured.
#[derive(Debug, Clone)]
pub struct Stamp {
    wall: Instant,
    thread_ns: Option<u64>,
    process_ticks: Option<u64>,
    cpus: Vec<CpuTicks>,
}

/// Clock ticks per second of `/proc/self/stat` (`USER_HZ`, which Linux
/// fixes at 100 for user space).
const USER_HZ: f64 = 100.0;
/// Process CPU time beyond the calling thread's that still counts as
/// the calling thread alone: two ticks of rounding plus 5%.
const SHARED_SLACK_S: f64 = 2.0 / USER_HZ;
const SHARED_SLACK_SHARE: f64 = 0.05;

/// One vCPU's stolen and total ticks from `/proc/stat`.
#[derive(Debug, Clone, Copy)]
struct CpuTicks {
    steal: u64,
    total: u64,
}

/// The region's host time, split for reporting.
#[derive(Debug, Clone, Copy)]
pub struct Elapsed {
    /// Host seconds net of steal (see the module docs).
    pub secs: f64,
    /// Wall-clock seconds.
    pub wall: f64,
    /// Mean steal share of the vCPUs over the region.
    pub steal: f64,
    /// A region timed as one thread's in which other threads of the
    /// process worked too, so it was timed by the `t`-thread model.
    pub shared: bool,
}

impl Stamp {
    /// The current instant, with the calling thread's CPU time and
    /// every vCPU's tick counters.
    pub fn now() -> Self {
        Stamp {
            thread_ns: thread_cpu_ns(),
            process_ticks: process_cpu_ticks(),
            cpus: cpu_ticks(),
            wall: Instant::now(),
        }
    }

    /// Host time since `self` of a region that ran on `threads` threads
    /// (the calling thread alone when `threads` is 1).
    pub fn elapsed(&self, threads: usize) -> Elapsed {
        let wall = self.wall.elapsed().as_secs_f64();
        let now = cpu_ticks();
        let shares: Vec<f64> = self
            .cpus
            .iter()
            .zip(&now)
            .filter(|(a, b)| b.total > a.total)
            .map(|(a, b)| (b.steal - a.steal) as f64 / (b.total - a.total) as f64)
            .collect();
        let steal = shares.iter().sum::<f64>() / shares.len().max(1) as f64;
        let net = |t: usize| wall * (1.0 - steal).powi(t as i32);
        if threads > 1 {
            let secs = net(threads);
            return Elapsed {
                secs,
                wall,
                steal,
                shared: false,
            };
        }
        let own = match (self.thread_ns, thread_cpu_ns()) {
            (Some(a), Some(b)) => (b - a) as f64 / 1e9,
            _ => wall,
        };
        let process = match (self.process_ticks, process_cpu_ticks()) {
            (Some(a), Some(b)) => (b - a) as f64 / USER_HZ,
            _ => own,
        };
        let shared = process > own * (1.0 + SHARED_SLACK_SHARE) + SHARED_SLACK_S;
        let secs = if shared {
            net((process / wall.max(1e-9)).round().max(1.0) as usize)
        } else {
            own
        };
        Elapsed {
            secs,
            wall,
            steal,
            shared,
        }
    }
}

/// On-CPU nanoseconds of the calling thread.
fn thread_cpu_ns() -> Option<u64> {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// CPU ticks of the whole process, every thread it has had included
/// (`utime + stime`, fields 14 and 15 of `/proc/self/stat`).
fn process_cpu_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name, which may hold spaces;
    // `state` (field 3) comes first.
    let mut rest = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
    let utime: u64 = rest.next()?.parse().ok()?;
    let stime: u64 = rest.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Stolen and total ticks of every vCPU (`cpuN` lines of `/proc/stat`;
/// steal is the eighth value).
fn cpu_ticks() -> Vec<CpuTicks> {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return Vec::new();
    };
    stat.lines()
        .filter(|l| l.starts_with("cpu") && !l.starts_with("cpu "))
        .filter_map(|l| {
            let v: Vec<u64> = l
                .split_whitespace()
                .skip(1)
                .map(|x| x.parse().ok())
                .collect::<Option<_>>()?;
            Some(CpuTicks {
                steal: *v.get(7)?,
                total: v.iter().sum(),
            })
        })
        .collect()
}
