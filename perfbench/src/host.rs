//! What the host tells us: process CPU time, peak resident memory, and
//! the environment a result was measured in. Linux only (`/proc`,
//! `clock_gettime`), like the container the benchmark runs in.

use std::process::Command;

use crate::stats::Json;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU seconds (user + system, all threads) this process has consumed.
/// Unlike `/proc/self/stat` it has nanosecond resolution, so it can
/// bracket a single op; a value above the op's wall time means the
/// codec pool's second core was busy.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the 64-bit Linux
    // layout (two `long`s); the libc Rust's std already links provides
    // the symbol, and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// when `/proc` does not say.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The widest SIMD path the library's runtime dispatch can take here.
pub fn simd_dispatch() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            return "avx512";
        }
        if is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "scalar"
}

/// The environment block of the results file.
pub fn environment() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("nproc", Json::Int(nproc as u64)),
        ("cpu_model", Json::Str(cpu_model)),
        ("simd_dispatch", Json::str(simd_dispatch())),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        (
            "git_revision",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}
