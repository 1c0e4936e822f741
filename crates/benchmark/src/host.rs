//! What the harness reads from the host: process CPU and memory from
//! `/proc`, a fingerprint for `results.json`, and an engine-free
//! calibration loop that makes host drift visible next to the numbers.

use crate::fixtures::Rng;
use std::time::Instant;

/// Linux reports process times in ticks of 1/100 s on every platform
/// this repository builds for; a run spans thousands of them.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU of the whole process (exited threads included),
/// in microseconds.
pub fn process_cpu_us() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // the command name may hold spaces; fields are counted after its ')'
    let after = &stat[stat.rfind(')').expect("comm field") + 1..];
    let mut fields = after.split_ascii_whitespace().skip(11);
    let mut tick = || -> f64 {
        fields
            .next()
            .and_then(|t| t.parse().ok())
            .expect("cpu ticks")
    };
    (tick() + tick()) / TICKS_PER_SECOND * 1e6
}

/// The value of one `Key:` line of `/proc/self/status`.
fn status_field(key: &str) -> String {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .map(|rest| rest.trim().to_string())
        .unwrap_or_else(|| panic!("no {key} line in /proc/self/status"))
}

/// High-water mark of resident memory, MiB.
pub fn peak_rss_mb() -> f64 {
    let kb: f64 = status_field("VmHWM:")
        .trim_end_matches("kB")
        .trim()
        .parse()
        .expect("VmHWM in kB");
    kb / 1024.0
}

/// The processors this process may run on, as the kernel lists them
/// (`0-1`, `3`, `0,2`).
pub fn cpus_allowed() -> String {
    status_field("Cpus_allowed_list:")
}

/// Is this process running with address-space randomization off
/// (`ADDR_NO_RANDOMIZE`, what `setarch -R` sets)?
pub fn aslr_disabled() -> bool {
    const ADDR_NO_RANDOMIZE: u32 = 0x0004_0000;
    std::fs::read_to_string("/proc/self/personality")
        .ok()
        .and_then(|p| u32::from_str_radix(p.trim(), 16).ok())
        .is_some_and(|p| p & ADDR_NO_RANDOMIZE != 0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Sort one million seeded `u64`s; milliseconds. Touches no engine
/// code, so a change in it is the host's, not the repository's.
pub fn calibrate_ms() -> f64 {
    let mut rng = Rng::new(0xCA11_B8A7E);
    let mut v: Vec<u64> = (0..1_000_000).map(|_| rng.next_u64()).collect();
    let t0 = Instant::now();
    v.sort_unstable();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(v);
    ms
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// `"key": "value"` pairs identifying the machine and the build.
pub fn fingerprint() -> Vec<(&'static str, String)> {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("commit", command_line("git", &["rev-parse", "HEAD"])),
        ("rustc", command_line("rustc", &["-V"])),
        ("nproc", nproc().to_string()),
        ("cpu_model", cpu_model),
    ]
}
