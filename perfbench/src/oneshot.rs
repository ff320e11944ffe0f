//! One-shot workloads: renaming jobs, each a fresh label set renamed by
//! one `RoundPipeline::run` over an executor's own transport.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use bil_core::BallsIntoLeaves;
use bil_runtime::adversary::{Adversary, NoFailures, RandomCrash};
use bil_runtime::pipeline::{LocalTransport, RoundPipeline, Transport};
use bil_runtime::rng::split_mix64;
use bil_runtime::socket::{SocketOptions, SocketTransport};
use bil_runtime::threaded::ChannelTransport;
use bil_runtime::view::{NoObserver, Observer};
use bil_runtime::{Label, RunError, RunReport, SeedTree, ViewProtocol};

use crate::check;
use crate::metrics::{interquartile_mean, peak_rss_mb, quantile, ratio, RunResult};
use crate::probe::{CountViews, Layer, Timed, TimedAdversary, Trace};

/// Which one-shot workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Failure-free, n = 2^14, clustered executor.
    FailureFree,
    /// n = 2^12 against `RandomCrash` (budget 16, rate 0.1).
    Crash,
    /// Failure-free, n = 2^12, over the channel executor, then over
    /// loopback TCP.
    Wire,
}

impl Kind {
    fn n(self) -> usize {
        match self {
            Kind::FailureFree => 1 << 14,
            Kind::Crash | Kind::Wire => 1 << 12,
        }
    }
}

/// `RandomCrash` crash budget of the crash workload.
const CRASH_BUDGET: usize = 16;
/// `RandomCrash` per-round firing probability per budget unit.
const CRASH_RATE: f64 = 0.1;

/// The engine's default round limit (`EngineOptions::max_rounds: None`).
fn round_limit(n: usize) -> u64 {
    8 * n as u64 + 64
}

/// Job `job`'s label set: `n` distinct 64-bit labels. `split_mix64` is a
/// bijection, so consecutive inputs give distinct labels in an order
/// unrelated to slot order.
pub fn labels(seed: u64, job: u64, n: usize) -> Vec<Label> {
    let base = split_mix64(split_mix64(seed) ^ split_mix64(job));
    (0..n as u64)
        .map(|i| Label(split_mix64(base.wrapping_add(i))))
        .collect()
}

/// Job `job`'s seed tree (process and adversary RNG streams).
fn seeds(seed: u64, job: u64) -> SeedTree {
    SeedTree::new(split_mix64(
        seed.wrapping_mul(0x9E37_79B9).wrapping_add(job),
    ))
}

/// One timed pipeline run.
struct Run {
    report: RunReport,
    /// Construction of the pipeline and the transport, before round 0.
    setup: Duration,
    /// Setup, every round and the transport's shutdown.
    total: Duration,
}

/// Builds the pipeline and the transport, then runs the rounds — the
/// same calls `SyncEngine`, `run_threaded` and `run_socket_with` make.
fn run_pipeline<P, T, A>(
    labels: &[Label],
    adversary: A,
    seeds: SeedTree,
    spawn: impl FnOnce() -> Result<T, RunError>,
    observer: &mut dyn Observer<P>,
) -> Result<Run, RunError>
where
    P: ViewProtocol,
    T: Transport<P>,
    A: Adversary<P::Msg>,
{
    let start = Instant::now();
    let pipeline =
        RoundPipeline::new(labels.to_vec(), adversary, seeds, round_limit(labels.len()))?;
    let mut transport = spawn()?;
    let setup = start.elapsed();
    let report = pipeline.run(&mut transport, observer)?;
    Ok(Run {
        report,
        setup,
        total: start.elapsed(),
    })
}

/// [`run_pipeline`], with the transport and adversary wrapped in stage
/// clocks when `trace` is given.
fn run_on<P, T, A>(
    layer: Layer,
    labels: &[Label],
    adversary: A,
    seeds: SeedTree,
    spawn: impl FnOnce() -> Result<T, RunError>,
    trace: Option<&RefCell<Trace>>,
) -> Result<Run, RunError>
where
    P: ViewProtocol,
    T: Transport<P>,
    A: Adversary<P::Msg>,
{
    let Some(trace) = trace else {
        return run_pipeline(labels, adversary, seeds, spawn, &mut NoObserver);
    };
    let run = run_pipeline(
        labels,
        TimedAdversary::new(adversary, trace),
        seeds,
        || Ok(Timed::new(spawn()?, layer, trace)),
        &mut CountViews(trace),
    )?;
    let mut t = trace.borrow_mut();
    t.stages(layer).setup += run.setup;
    t.pipeline += run.total - run.setup;
    Ok(run)
}

/// Running totals over a run's jobs.
#[derive(Default)]
struct Totals {
    job_ms: Vec<f64>,
    /// Each job's names decided by correct processes ÷ its wall time.
    job_names_per_s: Vec<f64>,
    setup_s: Vec<f64>,
    job_time: Duration,
    names: u64,
    pipeline_runs: u64,
    rounds: u64,
    wire_bytes: u64,
    messages: u64,
    delivered: u64,
    crashes: u64,
}

impl Totals {
    fn add(&mut self, run: &Run) {
        let r = &run.report;
        self.names += r.correct_names().len() as u64;
        self.pipeline_runs += 1;
        self.rounds += r.rounds;
        self.wire_bytes += r.wire_bytes_sent;
        self.messages += r.messages_sent;
        self.delivered += r.messages_delivered;
        self.crashes += r.crashes.len() as u64;
    }
}

/// Runs `kind` for `seconds`, one job after another, checking every
/// report.
pub fn run(kind: Kind, seed: u64, seconds: u64, traced: bool) -> RunResult {
    let n = kind.n();
    let protocol = BallsIntoLeaves::base();
    let trace = traced.then(|| RefCell::new(Trace::default()));
    let trace = trace.as_ref();
    let window = Duration::from_secs(seconds);
    let began = Instant::now();
    let mut totals = Totals::default();
    let mut result = RunResult {
        correct: true,
        ..RunResult::default()
    };
    let mut job = 0u64;
    while job == 0 || began.elapsed() < window {
        let labels = labels(seed, job, n);
        let seeds = seeds(seed, job);
        job += 1;
        result.attempted += 1;
        let runs = match kind {
            Kind::FailureFree => run_on(
                Layer::Local,
                &labels,
                NoFailures,
                seeds,
                || Ok(LocalTransport::clustered(protocol, &labels, &seeds)),
                trace,
            )
            .map(|r| vec![r]),
            Kind::Crash => run_on(
                Layer::Local,
                &labels,
                RandomCrash::new(CRASH_BUDGET, CRASH_RATE, seeds.adversary_rng()),
                seeds,
                || Ok(LocalTransport::clustered(protocol, &labels, &seeds)),
                trace,
            )
            .map(|r| vec![r]),
            Kind::Wire => wire_job(protocol, &labels, seeds, trace),
        };
        let runs = match runs {
            Ok(runs) => runs,
            Err(e) => {
                eprintln!("job {}: {e}", job - 1);
                result.failed += 1;
                continue;
            }
        };
        let job_time: Duration = runs.iter().map(|r| r.total).sum();
        let setup: Duration = runs.iter().map(|r| r.setup).sum();
        let names: usize = runs.iter().map(|r| r.report.correct_names().len()).sum();
        totals.job_ms.push(job_time.as_secs_f64() * 1e3);
        totals
            .job_names_per_s
            .push(ratio(names as f64, job_time.as_secs_f64()));
        totals.setup_s.push(setup.as_secs_f64());
        totals.job_time += job_time;
        for r in &runs {
            totals.add(r);
        }
        if let Err(v) = check_job(kind, protocol, &labels, seeds, &runs) {
            eprintln!("job {}: {v}", job - 1);
            result.correct = false;
            break;
        }
    }

    let e2e = &mut result.end_to_end;
    e2e.insert("setup_s", interquartile_mean(&totals.setup_s));
    e2e.insert("job_ms.p50", quantile(&totals.job_ms, 0.5));
    e2e.insert("job_ms.p90", quantile(&totals.job_ms, 0.9));
    // Failure-free jobs all cost about the same, so the run's throughput
    // is total names over total time. Crash jobs cost 40-800 ms with how
    // the crashes fall, and the few dearest jobs of a run would set that
    // ratio; the median job's throughput repeats across seeds.
    let names_per_s = match kind {
        Kind::Crash => quantile(&totals.job_names_per_s, 0.5),
        Kind::FailureFree | Kind::Wire => ratio(totals.names as f64, totals.job_time.as_secs_f64()),
    };
    e2e.insert("names_per_s", names_per_s);
    e2e.insert(
        "rounds.mean",
        ratio(totals.rounds as f64, totals.pipeline_runs as f64),
    );
    e2e.insert(
        "wire_bytes_per_name",
        ratio(totals.wire_bytes as f64, totals.names as f64),
    );
    if let Some(trace) = trace {
        result.per_layer = per_layer(&trace.borrow(), &totals);
    }
    result
}

/// One wire job: the label set renamed over the channel executor, then
/// over loopback TCP, each with its default worker count.
fn wire_job(
    protocol: BallsIntoLeaves,
    labels: &[Label],
    seeds: SeedTree,
    trace: Option<&RefCell<Trace>>,
) -> Result<Vec<Run>, RunError> {
    let channel = run_on(
        Layer::Threaded,
        labels,
        NoFailures,
        seeds,
        || Ok(ChannelTransport::spawn(&protocol, labels, &seeds)),
        trace,
    )?;
    let socket = run_on(
        Layer::Socket,
        labels,
        NoFailures,
        seeds,
        || SocketTransport::spawn(&protocol, labels, &seeds, SocketOptions::default()),
        trace,
    )?;
    Ok(vec![channel, socket])
}

/// Checks every report of a job. Wire reports must also equal each
/// other and an untimed clustered run of the same inputs: every executor
/// promises bit-identical reports.
fn check_job(
    kind: Kind,
    protocol: BallsIntoLeaves,
    labels: &[Label],
    seeds: SeedTree,
    runs: &[Run],
) -> Result<(), check::Violation> {
    for r in runs {
        check::oneshot(&r.report)?;
    }
    if kind == Kind::Wire {
        let reference = run_pipeline(
            labels,
            NoFailures,
            seeds,
            || Ok(LocalTransport::clustered(protocol, labels, &seeds)),
            &mut NoObserver,
        )
        .map_err(|e| format!("clustered reference run failed: {e}"))?;
        if runs[0].report != runs[1].report {
            return Err("channel and TCP reports differ".to_string());
        }
        if runs[0].report != reference.report {
            return Err("wire reports differ from the clustered report".to_string());
        }
    }
    Ok(())
}

/// The traced run's per-layer figures, per job unless named otherwise.
fn per_layer(trace: &Trace, totals: &Totals) -> BTreeMap<&'static str, f64> {
    let jobs = totals.job_ms.len() as f64;
    let ms = |d: Duration| ratio(d.as_secs_f64() * 1e3, jobs);
    let count = |c: u64| ratio(c as f64, jobs);
    let round_ms = |round: u64| {
        ms(trace
            .rounds
            .iter()
            .filter(|r| r.round == round)
            .map(|r| r.wall)
            .sum())
    };
    let steady: Vec<_> = trace.rounds.iter().filter(|r| r.round >= 2).collect();
    let steady_ns: f64 = steady.iter().map(|r| r.wall.as_secs_f64() * 1e9).sum();
    let steady_balls: usize = steady.iter().map(|r| r.balls).sum();
    let setup = trace.local.setup + trace.threaded.setup + trace.socket.setup;

    let mut m = BTreeMap::new();
    m.insert("process.peak_rss_mb", peak_rss_mb());
    m.insert("pipeline.setup_ms", ms(setup));
    m.insert("threaded.setup_ms", ms(trace.threaded.setup));
    m.insert("socket.setup_ms", ms(trace.socket.setup));
    m.insert("local.compose_ms", ms(trace.local.compose));
    m.insert("local.apply_ms", ms(trace.local.apply));
    m.insert("local.sweep_ms", ms(trace.local.sweep));
    m.insert("round.r0_ms", round_ms(0));
    m.insert("round.r1_ms", round_ms(1));
    m.insert(
        "round.steady_ns_per_ball",
        ratio(steady_ns, steady_balls as f64),
    );
    m.insert("pipeline.deliver_ms", ms(trace.deliver()));
    m.insert("adversary.plan_ms", ms(trace.plan));
    m.insert(
        "local.views_per_round.mean",
        ratio(trace.views as f64, trace.view_rounds as f64),
    );
    m.insert("local.views_per_round.max", trace.views_max as f64);
    m.insert("pipeline.messages_per_job", count(totals.messages));
    m.insert("pipeline.delivered_per_job", count(totals.delivered));
    m.insert("adversary.crashes_per_job", count(totals.crashes));
    m.insert(
        "wire.bytes_per_round",
        ratio(totals.wire_bytes as f64, totals.rounds as f64),
    );
    let wire_stages = [
        (
            &trace.threaded,
            [
                "threaded.compose_ms",
                "threaded.apply_ms",
                "threaded.sweep_ms",
                "threaded.shutdown_ms",
            ],
        ),
        (
            &trace.socket,
            [
                "socket.compose_ms",
                "socket.apply_ms",
                "socket.sweep_ms",
                "socket.shutdown_ms",
            ],
        ),
    ];
    for (s, names) in wire_stages {
        for (name, d) in names
            .into_iter()
            .zip([s.compose, s.apply, s.sweep, s.shutdown])
        {
            m.insert(name, ms(d));
        }
    }
    m
}
