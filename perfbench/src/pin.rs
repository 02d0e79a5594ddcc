//! Pins the benchmark process to one CPU before it starts any thread.
//!
//! On a VM with few vCPUs, a request that hands work from one thread to
//! another (client → connection thread → worker → client) waits for an
//! idle vCPU to be woken whenever the threads sit on different CPUs, and
//! that wake-up takes as long as the host's other tenants make it. On one
//! CPU every hand-off is a local context switch, so the figures follow the
//! program rather than the host. Threads inherit the affinity of the
//! thread that creates them, so pinning the main thread first pins all.

use std::process::{Command, Stdio};

/// The CPUs in a Linux CPU list such as `0-3,6,8-9`, in list order.
pub fn parse_cpu_list(list: &str) -> Result<Vec<usize>, String> {
    let number = |s: &str| {
        s.trim()
            .parse::<usize>()
            .map_err(|_| format!("bad CPU list {list:?}"))
    };
    let mut cpus = Vec::new();
    for part in list.split(',').filter(|p| !p.trim().is_empty()) {
        match part.split_once('-') {
            Some((lo, hi)) => cpus.extend(number(lo)?..=number(hi)?),
            None => cpus.push(number(part)?),
        }
    }
    Ok(cpus)
}

/// Pins every thread of this process to the last CPU it may run on (the
/// first is the likelier to take device interrupts) with `taskset`, and
/// returns that CPU.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .ok_or("no Cpus_allowed_list in /proc/self/status")?;
    let cpu = *parse_cpu_list(list)?.last().ok_or("no CPU allowed")?;
    let done = Command::new("taskset")
        .args(["-a", "-p", "-c", &cpu.to_string()])
        .arg(std::process::id().to_string())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running taskset: {e}"))?;
    if !done.success() {
        return Err(format!("taskset exited with {done}"));
    }
    Ok(cpu)
}
