//! What the benchmark reads from `/proc`: the process's memory high-water
//! mark, per-thread CPU and run-queue time of the server's workers, and
//! the host description stored with every result.
//!
//! Each reader is a pure parser over the file's text plus a thin function
//! that reads the file, so the parsers are tested on fixture strings.

use std::fs;

/// `VmHWM` (peak resident set, kB) from `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// `(run_ns, wait_ns, timeslices)` from `/proc/<pid>/task/<tid>/schedstat`.
pub fn parse_schedstat(text: &str) -> Option<(u64, u64, u64)> {
    let mut it = text.split_whitespace().map(|f| f.parse::<u64>());
    Some((it.next()?.ok()?, it.next()?.ok()?, it.next()?.ok()?))
}

/// `(utime, stime)` in clock ticks from `/proc/<pid>/task/<tid>/stat`.
/// The command name (field 2) may hold spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn parse_stat_times(text: &str) -> Option<(u64, u64)> {
    let after = &text[text.rfind(')')? + 1..];
    // After the comm: state is field 3, utime field 14, stime field 15.
    let mut it = after.split_whitespace().skip(11);
    Some((it.next()?.parse().ok()?, it.next()?.parse().ok()?))
}

/// Peak resident set of this process, MB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// CPU accounting summed over a set of threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadCpu {
    /// Time on a CPU, ns (`schedstat` field 1).
    pub run_ns: u64,
    /// Time runnable but waiting for a CPU, ns (`schedstat` field 2).
    pub wait_ns: u64,
    /// User-mode clock ticks.
    pub utime: u64,
    /// Kernel-mode clock ticks.
    pub stime: u64,
}

impl ThreadCpu {
    /// The accounting accrued since `earlier`.
    pub fn since(&self, earlier: &ThreadCpu) -> ThreadCpu {
        ThreadCpu {
            run_ns: self.run_ns.saturating_sub(earlier.run_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
            utime: self.utime.saturating_sub(earlier.utime),
            stime: self.stime.saturating_sub(earlier.stime),
        }
    }

    /// The two accountings added up.
    pub fn plus(&self, other: &ThreadCpu) -> ThreadCpu {
        ThreadCpu {
            run_ns: self.run_ns + other.run_ns,
            wait_ns: self.wait_ns + other.wait_ns,
            utime: self.utime + other.utime,
            stime: self.stime + other.stime,
        }
    }

    /// Share of CPU time spent in the kernel, 0 when idle.
    pub fn sys_share(&self) -> f64 {
        let total = self.utime + self.stime;
        if total == 0 {
            0.0
        } else {
            self.stime as f64 / total as f64
        }
    }
}

/// Ids of this process's threads whose name starts with `prefix`.
pub fn thread_ids_named(prefix: &str) -> Vec<u32> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut tids: Vec<u32> = dir
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|tid| {
            fs::read_to_string(format!("/proc/self/task/{tid}/comm"))
                .is_ok_and(|name| name.trim_end().starts_with(prefix))
        })
        .collect();
    tids.sort_unstable();
    tids
}

/// Current CPU accounting summed over `tids`; a thread that has exited
/// contributes nothing.
pub fn thread_cpu(tids: &[u32]) -> ThreadCpu {
    let mut sum = ThreadCpu::default();
    for tid in tids {
        let base = format!("/proc/self/task/{tid}");
        if let Some((run, wait, _)) = fs::read_to_string(format!("{base}/schedstat"))
            .ok()
            .and_then(|s| parse_schedstat(&s))
        {
            sum.run_ns += run;
            sum.wait_ns += wait;
        }
        if let Some((u, s)) = fs::read_to_string(format!("{base}/stat"))
            .ok()
            .and_then(|s| parse_stat_times(&s))
        {
            sum.utime += u;
            sum.stime += s;
        }
    }
    sum
}

/// The host a result was measured on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Kernel release.
    pub kernel: String,
}

/// First `model name` value of `/proc/cpuinfo` text.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Describes this host.
pub fn host() -> Host {
    let unknown = || "unknown".to_string();
    Host {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_model: fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| parse_cpu_model(&s))
            .unwrap_or_else(unknown),
        kernel: fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| unknown()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_from_status_text() {
        let status = "Name:\tbench\nVmPeak:\t  901234 kB\nVmHWM:\t  593704 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(593_704));
        assert_eq!(parse_vm_hwm_kb("Name:\tbench\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tmany kB\n"), None);
    }

    #[test]
    fn schedstat_has_three_counters() {
        assert_eq!(
            parse_schedstat("7312345678 45678901 1234\n"),
            Some((7_312_345_678, 45_678_901, 1234))
        );
        assert_eq!(parse_schedstat("1 2\n"), None);
        assert_eq!(parse_schedstat("a b c\n"), None);
    }

    #[test]
    fn stat_times_survive_a_hostile_thread_name() {
        // comm holds a space and a ')' — fields must count from the last ')'.
        let stat = "4242 (serve wk) 0) S 1 4242 4242 0 -1 4194368 10 0 0 0 \
                    731 268 0 0 20 0 5 0 12345 1000000 100 18446744073709551615";
        assert_eq!(parse_stat_times(stat), Some((731, 268)));
        assert_eq!(parse_stat_times("4242 serve-wk-0 S 1"), None);
        assert_eq!(parse_stat_times("1 (x) S 1 2"), None);
    }

    #[test]
    fn thread_cpu_differences_and_kernel_share() {
        let a = ThreadCpu {
            run_ns: 100,
            wait_ns: 10,
            utime: 4,
            stime: 6,
        };
        let b = ThreadCpu {
            run_ns: 400,
            wait_ns: 30,
            utime: 10,
            stime: 30,
        };
        let d = b.since(&a);
        assert_eq!((d.run_ns, d.wait_ns, d.utime, d.stime), (300, 20, 6, 24));
        assert_eq!(d.sys_share(), 0.8);
        assert_eq!(a.plus(&d), b);
        assert_eq!(ThreadCpu::default().sys_share(), 0.0);
    }

    #[test]
    fn cpu_model_is_the_first_model_name() {
        let info = "processor\t: 0\nmodel name\t: Intel(R) Xeon(R) Processor @ 2.10GHz\n\
                    processor\t: 1\nmodel name\t: other\n";
        assert_eq!(
            parse_cpu_model(info).as_deref(),
            Some("Intel(R) Xeon(R) Processor @ 2.10GHz")
        );
        assert_eq!(parse_cpu_model("processor: 0\n"), None);
    }

    #[test]
    fn this_process_has_a_memory_high_water_mark_and_a_main_thread() {
        assert!(peak_rss_mb() > 0.0);
        assert!(host().nproc >= 1);
        let named = std::thread::Builder::new()
            .name("procfs-probe".into())
            .spawn(|| thread_ids_named("procfs-pro").len())
            .expect("spawn")
            .join()
            .expect("join");
        assert_eq!(named, 1);
    }
}
