//! `aldsp-benchmark`: see `README.md`.
//!
//! * `--workload W --seed N --seconds S --trace 0|1` runs one workload
//!   once and prints its result as the last line of standard output
//!   (the form `BENCHMARK.json`'s driver uses);
//! * without `--workload`, runs all five, each mode in a process of its
//!   own so memory and CPU accounting stay per workload, and writes
//!   `results.json` and the trace files under `--out`;
//! * `--bless` rewrites the golden answers from the reference server.

use aldsp_benchmark::harness::{run, RunConfig, CLIENTS};
use aldsp_benchmark::workloads::{Kind, ALL};
use aldsp_benchmark::{bless, host};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Set for the process `rerun_steadied` starts, so it does not start
/// another.
const STEADIED: &str = "ALDSP_BENCHMARK_STEADIED";

/// Exit codes. Wrong answers do not share 1 with `setarch` and
/// `taskset`, whose own failures must not read as the benchmark's.
const EXIT_OK: i32 = 0;
const EXIT_REFUSED: i32 = 2;
const EXIT_WRONG: i32 = 3;

const DEFAULT_SEED: u64 = 1;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 10;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    bless: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        bless: false,
        out: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value("a directory")?)),
            "--smoke" => args.smoke = true,
            "--bless" => args.bless = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// Two things move a run's timings without any change to the code,
/// and both are taken out by starting the process again under a
/// wrapper (util-linux's `setarch` and `taskset`):
///
/// * address-space randomization: where heap and stack land decides
///   cache and TLB aliasing for the whole run, and `report_scan` comes
///   out in one of two modes 7% apart. `setarch -R` fixes the layout.
/// * processor placement: with one request in flight `wire_point`'s
///   client and session threads never run at once, yet whether the
///   kernel keeps the pair on one processor or spreads it over two
///   moves every latency 2x (and single-threaded workloads by several
///   percent), and which it does depends on what the host ran seconds
///   earlier. Workloads that overlap nothing are confined to the last
///   allowed processor (the first also serves the VM's interrupts).
///
/// `None` means the run did not happen under the wrappers — already
/// steadied, tools missing, or not permitted (a container's seccomp
/// filter may refuse `setarch -R`) — and the caller carries on in this
/// process.
fn rerun_steadied(kind: Kind) -> Result<Option<bool>, String> {
    if std::env::var_os(STEADIED).is_some() {
        return Ok(None);
    }
    let mut command: Vec<String> = Vec::new();
    if !host::aslr_disabled() {
        command.extend(["setarch", std::env::consts::ARCH, "-R"].map(String::from));
    }
    let allowed = host::cpus_allowed();
    if let Some(last) = allowed.rsplit([',', '-']).next().filter(|l| *l != allowed) {
        if kind.confined() {
            command.extend(["taskset", "-c", last].map(String::from));
        }
    }
    let Some((wrapper, rest)) = command.split_first() else {
        return Ok(None);
    };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(wrapper)
        .args(rest)
        .arg(exe)
        .args(std::env::args_os().skip(1))
        .env(STEADIED, "1")
        .status();
    match status.ok().and_then(|s| s.code()) {
        Some(EXIT_OK) => Ok(Some(true)),
        Some(EXIT_WRONG) => Ok(Some(false)),
        Some(EXIT_REFUSED) => Err("the steadied run refused to start".into()),
        // any other ending is a wrapper's, not the benchmark's
        _ => {
            eprintln!(
                "{}: `{}` failed; timings will carry layout and placement noise",
                kind.name(),
                command.join(" ")
            );
            Ok(None)
        }
    }
}

fn one(kind: Kind, args: &Args) -> Result<bool, String> {
    if CLIENTS > host::nproc() {
        return Err(format!(
            "{CLIENTS} client threads and {} processors: the run would measure the scheduler",
            host::nproc()
        ));
    }
    if !args.smoke {
        if let Some(correct) = rerun_steadied(kind)? {
            return Ok(correct);
        }
    }
    let report = run(&RunConfig {
        kind,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        out: args.out.clone(),
    })?;
    println!(
        "{} seed {} trace {}: attempted {} failed {}",
        report.workload, args.seed, args.trace as u8, report.attempted, report.failed
    );
    report.print();
    let line = report.json_line();
    if let Some(dir) = &args.out {
        let path = dir.join(format!(
            "{}.trace{}.json",
            report.workload, args.trace as u8
        ));
        std::fs::write(&path, &line).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{line}");
    Ok(report.correct())
}

/// All five workloads, both modes, one child process each.
fn suite(args: &Args) -> Result<bool, String> {
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("bench_out"));
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let calib_start = host::calibrate_ms();
    let mut all_correct = true;
    let mut fragments = Vec::new();
    for kind in ALL {
        let mut modes = Vec::new();
        for trace in ["0", "1"] {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", kind.name(), "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .arg("--out")
                .arg(&out);
            if args.smoke {
                child.arg("--smoke");
            }
            let status = child
                .status()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            all_correct &= status.success();
            let fragment = out.join(format!("{}.trace{trace}.json", kind.name()));
            let result = std::fs::read_to_string(&fragment).unwrap_or_else(|_| "null".into());
            std::fs::remove_file(&fragment).ok();
            modes.push(result);
        }
        fragments.push(format!(
            "    \"{}\": {{\"end_to_end\": {}, \"per_layer\": {}}}",
            kind.name(),
            modes[0],
            modes[1]
        ));
    }
    let calib_end = host::calibrate_ms();
    let host_fields: Vec<String> = host::fingerprint()
        .into_iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace(['"', '\\'], "'")))
        .chain([
            format!("\"calib_ms_start\": {calib_start}"),
            format!("\"calib_ms_end\": {calib_end}"),
        ])
        .collect();
    let results = format!(
        "{{\n  \"seed\": {},\n  \"seconds\": {},\n  \"host\": {{{}}},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        args.seed,
        args.seconds,
        host_fields.join(", "),
        fragments.join(",\n")
    );
    let path = out.join("results.json");
    std::fs::write(&path, results).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "host calibration {calib_start:.1} ms before, {calib_end:.1} ms after; results in {}",
        path.display()
    );
    Ok(all_correct)
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    let only = match &args.workload {
        Some(name) => Some(Kind::from_name(name).ok_or(format!("unknown workload {name}"))?),
        None => None,
    };
    if args.bless {
        for kind in ALL.into_iter().filter(|k| only.is_none_or(|o| o == *k)) {
            let t0 = std::time::Instant::now();
            let n = bless::bless(kind)?;
            println!(
                "{}: blessed {n} answers in {:.1} s on the reference server",
                kind.name(),
                t0.elapsed().as_secs_f64()
            );
        }
        return Ok(true);
    }
    if cfg!(debug_assertions) && !args.smoke {
        return Err("this is a debug build: measure with --release (or pass --smoke)".into());
    }
    match only {
        Some(kind) => one(kind, &args),
        None => suite(&args),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::from(EXIT_OK as u8),
        Ok(false) => {
            eprintln!("aldsp-benchmark: failed ops or wrong answers");
            ExitCode::from(EXIT_WRONG as u8)
        }
        Err(e) => {
            eprintln!("aldsp-benchmark: {e}");
            ExitCode::from(EXIT_REFUSED as u8)
        }
    }
}
