//! The repository's benchmark: runs one named workload from a seed,
//! checks every output, and prints its metrics as one JSON line.
//!
//! ```text
//! bil-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` wraps the
//! library's layer boundaries in stage clocks and prints the per-layer
//! metrics, after a line with the end-to-end figures measured under
//! tracing (so the tracing overhead can be read off). See README.md.

mod check;
mod metrics;
mod oneshot;
mod probe;
mod service;

use std::process::ExitCode;

use metrics::{json_metrics, result_line, RunResult, END_TO_END};

/// Every workload's name; `BENCHMARK.json` and README.md say why each
/// is in the benchmark.
pub const WORKLOADS: &[&str] = &[
    "oneshot-ff",
    "oneshot-crash",
    "oneshot-wire",
    "service-churn",
];

const USAGE: &str = "usage: bil-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let slot = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            _ => return Err(format!("unknown flag {flag}")),
        };
        *slot = Some(value);
    }
    let number = |v: Option<String>, flag: &str| -> Result<u64, String> {
        v.ok_or_else(|| format!("{flag} is required"))?
            .parse()
            .map_err(|_| format!("{flag} takes a whole number"))
    };
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = number(seconds, "--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload,
        seed: number(seed, "--seed")?,
        seconds,
        traced: match number(trace, "--trace")? {
            0 => false,
            1 => true,
            _ => return Err("--trace takes 0 or 1".to_string()),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}\nworkloads: {}", WORKLOADS.join(", "));
            return ExitCode::from(2);
        }
    };
    let mut result: RunResult = match args.workload.as_str() {
        "oneshot-ff" => oneshot::run(
            oneshot::Kind::FailureFree,
            args.seed,
            args.seconds,
            args.traced,
        ),
        "oneshot-crash" => oneshot::run(oneshot::Kind::Crash, args.seed, args.seconds, args.traced),
        "oneshot-wire" => oneshot::run(oneshot::Kind::Wire, args.seed, args.seconds, args.traced),
        _ => service::run(args.seed, args.seconds, args.traced),
    };
    if args.traced {
        // The median job time sits between the reference machine's fast
        // and slow phases, so it is too unsteady to carry a bound; the
        // traced run reports it (see README.md).
        let p50 = result.end_to_end.get("job_ms.p50").copied();
        result.per_layer.insert("job_ms.p50", p50.unwrap_or(0.0));
        println!(
            "{{\"traced_end_to_end\": {}}}",
            json_metrics(END_TO_END, &result.end_to_end)
        );
    }
    println!("{}", result_line(&result, args.traced));
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
