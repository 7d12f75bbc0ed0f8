//! `/proc/<pid>/{stat,io,status}` readers: CPU time, syscall counts and
//! peak resident memory of a replica-hosting process, measured from
//! outside it. The parsers work on strings so they can be tested on
//! fixtures.

use std::path::Path;

/// Kernel clock ticks per second (`USER_HZ`). Fixed at 100 on every Linux
/// ABI this benchmark targets; `/proc/<pid>/stat` reports CPU time in it.
pub const CLK_TCK: u64 = 100;

/// User and system CPU time of a process, in microseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuTime {
    /// Time in user mode.
    pub user_us: u64,
    /// Time in kernel mode.
    pub sys_us: u64,
}

impl CpuTime {
    /// User + system.
    pub fn total_us(&self) -> u64 {
        self.user_us + self.sys_us
    }

    /// Component-wise sum.
    pub fn plus(self, o: CpuTime) -> CpuTime {
        CpuTime {
            user_us: self.user_us + o.user_us,
            sys_us: self.sys_us + o.sys_us,
        }
    }

    /// Component-wise difference (saturating: a respawned process starts
    /// again from zero).
    pub fn minus(self, o: CpuTime) -> CpuTime {
        CpuTime {
            user_us: self.user_us.saturating_sub(o.user_us),
            sys_us: self.sys_us.saturating_sub(o.sys_us),
        }
    }
}

/// Parse `utime`/`stime` (fields 14 and 15) out of a `/proc/<pid>/stat`
/// line. The command name (field 2) is parenthesised and may itself
/// contain spaces and parentheses, so fields are counted from the *last*
/// closing parenthesis.
pub fn parse_stat(line: &str) -> Option<CpuTime> {
    let rest = &line[line.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime is field 14.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    let to_us = |ticks: u64| ticks * (1_000_000 / CLK_TCK);
    Some(CpuTime {
        user_us: to_us(utime),
        sys_us: to_us(stime),
    })
}

/// Read and write system calls issued by a process (`syscr` + `syscw` of
/// `/proc/<pid>/io`).
pub fn parse_io(text: &str) -> Option<u64> {
    let field = |name: &str| -> Option<u64> {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.trim().parse().ok())
    };
    Some(field("syscr:")? + field("syscw:")?)
}

/// Peak resident set size in KiB (`VmHWM` of `/proc/<pid>/status`).
pub fn parse_status_hwm_kib(text: &str) -> Option<u64> {
    text.lines().find_map(|l| {
        l.strip_prefix("VmHWM:")?
            .trim()
            .strip_suffix("kB")?
            .trim()
            .parse()
            .ok()
    })
}

fn read(pid: u32, file: &str) -> Option<String> {
    std::fs::read_to_string(Path::new("/proc").join(pid.to_string()).join(file)).ok()
}

/// CPU time of `pid` so far (`None` once the process is gone).
pub fn cpu_time(pid: u32) -> Option<CpuTime> {
    parse_stat(&read(pid, "stat")?)
}

/// CPU time of the calling thread so far (`/proc/thread-self/stat`).
pub fn thread_cpu_time() -> Option<CpuTime> {
    parse_stat(&std::fs::read_to_string("/proc/thread-self/stat").ok()?)
}

/// Read+write syscalls of `pid` so far.
pub fn io_syscalls(pid: u32) -> Option<u64> {
    parse_io(&read(pid, "io")?)
}

/// Peak RSS of `pid` in MiB.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    Some(parse_status_hwm_kib(&read(pid, "status")?)? as f64 / 1024.0)
}

/// Sum of [`cpu_time`] over `pids` (processes that vanished count zero).
pub fn cpu_time_sum(pids: &[u32]) -> CpuTime {
    pids.iter()
        .filter_map(|p| cpu_time(*p))
        .fold(CpuTime::default(), CpuTime::plus)
}

/// Maximum of [`peak_rss_mib`] over `pids`.
pub fn peak_rss_mib_max(pids: &[u32]) -> Option<f64> {
    pids.iter()
        .filter_map(|p| peak_rss_mib(*p))
        .reduce(f64::max)
}

/// Bytes under `dir`, recursively (0 for a missing directory).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    rd.flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (node (v2) x) S 1 4242 4242 0 -1 4194304 1234 0 0 0 \
                        731 269 0 0 20 0 9 0 123456 104857600 2560 18446744073709551615 \
                        1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";

    #[test]
    fn stat_fields_counted_after_last_paren() {
        let t = parse_stat(STAT).expect("parses");
        assert_eq!(
            t,
            CpuTime {
                user_us: 7_310_000,
                sys_us: 2_690_000
            }
        );
        assert_eq!(t.total_us(), 10_000_000);
        assert_eq!(parse_stat("1 (x) S 1 2"), None, "truncated line");
        assert_eq!(parse_stat("no parens at all"), None);
    }

    #[test]
    fn cpu_time_arithmetic_saturates() {
        let a = CpuTime {
            user_us: 5,
            sys_us: 7,
        };
        let b = CpuTime {
            user_us: 9,
            sys_us: 1,
        };
        assert_eq!(
            a.plus(b),
            CpuTime {
                user_us: 14,
                sys_us: 8
            }
        );
        assert_eq!(
            a.minus(b),
            CpuTime {
                user_us: 0,
                sys_us: 6
            }
        );
    }

    #[test]
    fn io_sums_read_and_write_syscalls() {
        let io = "rchar: 100\nwchar: 200\nsyscr: 31\nsyscw: 11\nread_bytes: 0\nwrite_bytes: 4096\n";
        assert_eq!(parse_io(io), Some(42));
        assert_eq!(parse_io("rchar: 1\nsyscr: 3\n"), None, "missing syscw");
    }

    #[test]
    fn status_hwm_in_kib() {
        let st = "Name:\tnode\nVmPeak:\t  204800 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40000 kB\n";
        assert_eq!(parse_status_hwm_kib(st), Some(51200));
        assert_eq!(parse_status_hwm_kib("Name:\tnode\n"), None);
    }

    #[test]
    fn own_process_is_readable() {
        let me = std::process::id();
        assert!(cpu_time(me).is_some());
        assert!(peak_rss_mib(me).is_some_and(|m| m > 0.0));
        assert!(thread_cpu_time().is_some());
    }
}
