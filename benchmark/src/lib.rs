//! The benchmark behind `BENCHMARK.json`: one process, one thread, closed
//! loop, fixed work per rep. See `benchmark/README.md` for what every
//! workload and metric means and why it is there.

pub mod client;
pub mod kv;
pub mod lanes;
pub mod measure;
pub mod report;
pub mod script;
pub mod simrig;
pub mod stats;
pub mod timed;
pub mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use measure::RunOpts;
use report::RunResult;
use timed::SpanSink;
use workload::WORKLOADS;

const USAGE: &str =
    "usage: bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--check]
       bench --quick [--seed <n>]
       bench --print-contract
  --check           panic on the first response the oracle rejects
  --quick           every workload at 1/20 of its op count, traced and
                    untraced, and BENCHMARK.json held against this binary's
                    workload and metric tables
  --print-contract  write the BENCHMARK.json those tables stand for";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
    quick: bool,
    print_contract: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        check: false,
        quick: false,
        print_contract: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let bad = |v: &str| format!("{flag}: cannot read {v:?}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.to_string()),
            "--seed" => args.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                args.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--check" => args.check = true,
            "--quick" => args.quick = true,
            "--print-contract" => args.print_contract = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// The benchmark's own directory: where `out/` goes and, one level up,
/// where `BENCHMARK.json` lives. `run.sh` exports it; a bare `cargo run`
/// falls back to the manifest directory baked in at build time.
fn bench_dir() -> PathBuf {
    std::env::var_os("COWBIRD_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

fn write_trace(workload: &str, spans: &SpanSink) -> std::io::Result<PathBuf> {
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}.trace.json"));
    std::fs::write(&path, spans.to_chrome_json())?;
    Ok(path)
}

fn run_one(
    name: &str,
    opts: &RunOpts,
    trace: bool,
    counting_allocator: bool,
) -> Result<RunResult, String> {
    let w = workload::find(name).ok_or_else(|| {
        let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    if !trace {
        return Ok(measure::run(w, opts, None));
    }
    let spans = SpanSink::default();
    let mut result = measure::run(w, opts, Some(&spans));
    if !counting_allocator {
        result.notes.push(
            "allocs_* read 0: this binary does not count allocations (run bench-traced)".into(),
        );
    }
    match write_trace(w.name, &spans) {
        Ok(path) => result.notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => return Err(format!("cannot write the trace file: {e}")),
    }
    Ok(result)
}

/// `--quick`: the whole set, small, plus the contract check.
fn quick(seed: u64, counting_allocator: bool) -> ExitCode {
    let opts = RunOpts {
        seed,
        seconds: 0.0,
        check: true,
        shrink: 20,
        min_reps: 1,
    };
    let mut bad = 0;
    for w in WORKLOADS {
        for trace in [false, true] {
            match run_one(w.name, &opts, trace, counting_allocator) {
                Ok(r) => {
                    print!("{}", r.to_text());
                    if r.failed > 0 {
                        eprintln!("quick: {} failed {} ops", w.name, r.failed);
                        bad += 1;
                    }
                }
                Err(e) => {
                    eprintln!("quick: {}: {e}", w.name);
                    bad += 1;
                }
            }
        }
    }
    // The contract file is generated from the tables this binary prints
    // from; any difference is a missing, extra or respelled name.
    let contract_path = bench_dir().join("..").join("BENCHMARK.json");
    let want = report::contract_json(WORKLOADS);
    match std::fs::read_to_string(&contract_path) {
        Ok(have) if have == want => {}
        Ok(have) => {
            let line = have
                .lines()
                .zip(want.lines())
                .position(|(h, w)| h != w)
                .unwrap_or(have.lines().count().min(want.lines().count()));
            eprintln!(
                "quick: {} differs from this binary's tables at line {}:\n  file:   {}\n  binary: {}\n\
                 regenerate it with `bash benchmark/run.sh --print-contract > BENCHMARK.json`",
                contract_path.display(),
                line + 1,
                have.lines().nth(line).unwrap_or("<end of file>"),
                want.lines().nth(line).unwrap_or("<end of file>"),
            );
            bad += 1;
        }
        Err(e) => {
            eprintln!("quick: cannot read {}: {e}", contract_path.display());
            bad += 1;
        }
    }
    if bad == 0 {
        println!("quick: all workloads correct; BENCHMARK.json matches the binary's tables");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Entry point shared by the two binaries. `counting_allocator` says
/// whether the caller installed `telemetry::profile::TallyAlloc`.
pub fn main_with(counting_allocator: bool) -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_contract {
        print!("{}", report::contract_json(WORKLOADS));
        return ExitCode::SUCCESS;
    }
    if args.quick {
        return quick(args.seed, counting_allocator);
    }
    let Some(name) = args.workload else {
        eprintln!("--workload is required\n{USAGE}");
        return ExitCode::from(2);
    };
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds,
        check: args.check,
        shrink: 1,
        min_reps: 3,
    };
    match run_one(&name, &opts, args.trace, counting_allocator) {
        Ok(r) => {
            print!("{}", r.to_text());
            println!("{}", r.to_json());
            if r.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
