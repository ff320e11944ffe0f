//! The service workload: a `ShardedService` driven stage by stage
//! (`submit`, `begin`, `EpochRun::execute` per shard, `complete`) from
//! the benchmark thread, with its shard epochs run one after another.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use bil_runtime::adversary::NoFailures;
use bil_runtime::rng::split_mix64;
use bil_runtime::{Label, SeedTree};
use bil_service::{NamePartition, Request, ShardedEpochReport, ShardedOptions, ShardedService};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::check::{self, Ledger};
use crate::metrics::{interquartile_mean, peak_rss_mb, ratio, weighted_quantile, RunResult};

/// Global names.
const CAPACITY: usize = 1 << 16;
/// Shards, each holding `CAPACITY / SHARDS` names.
const SHARDS: usize = 16;
/// Probability that a holder releases its name in a churn epoch.
const RELEASE_RATE: f64 = 0.1;
/// Services built and filled per run; `setup_s` is the interquartile
/// mean of their times.
const SETUPS: usize = 10;

/// Stage times and counts of one front-end epoch.
#[derive(Default)]
struct EpochTimes {
    submit: Duration,
    begin: Duration,
    execute: Duration,
    execute_max: Duration,
    complete: Duration,
}

impl EpochTimes {
    fn total(&self) -> Duration {
        self.submit + self.begin + self.execute + self.complete
    }
}

/// Fresh client labels: `split_mix64` of a counter, so they never repeat.
struct Clients {
    base: u64,
    next: u64,
}

impl Clients {
    fn fresh(&mut self) -> Label {
        self.next += 1;
        Label(split_mix64(self.base.wrapping_add(self.next)))
    }
}

/// One front-end epoch, stage by stage, shard epochs in shard order.
fn epoch(
    svc: &mut ShardedService,
    batch: &[Request],
) -> Result<(ShardedEpochReport, EpochTimes), String> {
    let mut times = EpochTimes::default();
    let start = Instant::now();
    svc.submit(batch).map_err(|e| format!("submit: {e}"))?;
    times.submit = start.elapsed();

    let start = Instant::now();
    let runs = svc.begin().map_err(|e| format!("begin: {e}"))?;
    times.begin = start.elapsed();

    let mut outcomes = Vec::with_capacity(runs.len());
    for run in runs {
        let start = Instant::now();
        outcomes.push(run.execute(NoFailures));
        let spent = start.elapsed();
        times.execute += spent;
        times.execute_max = times.execute_max.max(spent);
    }

    let start = Instant::now();
    let report = svc
        .complete(outcomes)
        .map_err(|e| format!("complete: {e}"))?;
    times.complete = start.elapsed();
    Ok((report, times))
}

/// Builds the service and fills every name in one saturating epoch.
fn setup(seed: u64, clients: &mut Clients) -> Result<(ShardedService, Ledger, Duration), String> {
    let start = Instant::now();
    let options = ShardedOptions {
        concurrent: false,
        ..ShardedOptions::default()
    };
    let mut svc =
        ShardedService::new(CAPACITY, SHARDS, seed, options).map_err(|e| e.to_string())?;
    let batch: Vec<Request> = (0..CAPACITY)
        .map(|_| Request::Acquire(clients.fresh()))
        .collect();
    let (report, _) = epoch(&mut svc, &batch)?;
    let spent = start.elapsed();
    let mut ledger = Ledger::new();
    check::service_epoch(
        &mut ledger,
        &batch,
        &report,
        svc.partition(),
        svc.holders(),
        svc.held(),
    )?;
    Ok((svc, ledger, spent))
}

/// A churn batch: every holder releases with probability
/// [`RELEASE_RATE`], then one fresh client contends for each freed name.
/// Releases come first so the acquires can claim their bookings.
fn churn_batch(ledger: &Ledger, rng: &mut SmallRng, clients: &mut Clients) -> Vec<Request> {
    let mut batch: Vec<Request> = ledger
        .keys()
        .filter(|_| rng.random_bool(RELEASE_RATE))
        .map(|&l| Request::Release(l))
        .collect();
    let freed = batch.len();
    batch.extend((0..freed).map(|_| Request::Acquire(clients.fresh())));
    batch
}

/// Runs the service workload: [`SETUPS`] identical set-ups, then churn
/// epochs on the last one for `seconds`.
pub fn run(seed: u64, seconds: u64, traced: bool) -> RunResult {
    let mut result = RunResult {
        correct: true,
        ..RunResult::default()
    };
    let service_seed = split_mix64(seed ^ 0x5E41_1CE5);
    let client_base = split_mix64(seed ^ 0xC11E_4750);
    let mut rng = SeedTree::new(seed).workload_rng();

    let mut setups = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        let mut clients = Clients {
            base: client_base,
            next: 0,
        };
        result.attempted += CAPACITY as u64;
        match setup(service_seed, &mut clients) {
            Ok((svc, ledger, spent)) => {
                setups.push(spent.as_secs_f64());
                state = Some((svc, ledger, clients));
            }
            Err(v) => {
                eprintln!("set-up: {v}");
                result.correct = false;
                return result;
            }
        }
    }
    let (mut svc, mut ledger, mut clients) = state.expect("SETUPS is at least 1");

    // Every acquire waits exactly its epoch, from `submit` to `complete`,
    // so an epoch's time counts once per grant it made.
    let mut acquire_ms: Vec<(f64, u64)> = Vec::new();
    let mut job_time = Duration::ZERO;
    let mut grants = 0u64;
    let mut shard_runs = 0u64;
    let mut rounds = 0u64;
    let mut wire_bytes = 0u64;
    let mut layer = LayerTotals::default();
    let window = Duration::from_secs(seconds);
    let began = Instant::now();
    while acquire_ms.is_empty() || began.elapsed() < window {
        let batch = churn_batch(&ledger, &mut rng, &mut clients);
        result.attempted += batch.len() as u64;
        let (report, times) = match epoch(&mut svc, &batch) {
            Ok(done) => done,
            Err(e) => {
                eprintln!("epoch {}: {e}", svc.epoch());
                result.failed += batch.len() as u64;
                break;
            }
        };
        acquire_ms.push((
            times.total().as_secs_f64() * 1e3,
            report.granted.len() as u64,
        ));
        job_time += times.total();
        grants += report.granted.len() as u64;
        for shard in report.shards.iter().flatten() {
            if let Some(run) = &shard.run {
                shard_runs += 1;
                rounds += run.rounds;
                wire_bytes += run.wire_bytes_sent;
            }
        }
        if traced {
            layer.add(svc.partition(), &report, &times);
        }
        if let Err(v) = check::service_epoch(
            &mut ledger,
            &batch,
            &report,
            svc.partition(),
            svc.holders(),
            svc.held(),
        ) {
            eprintln!("epoch {}: {v}", report.epoch);
            result.correct = false;
            break;
        }
    }

    let e2e = &mut result.end_to_end;
    e2e.insert("setup_s", interquartile_mean(&setups));
    e2e.insert("job_ms.p50", weighted_quantile(&acquire_ms, 0.5));
    e2e.insert("job_ms.p90", weighted_quantile(&acquire_ms, 0.9));
    e2e.insert("names_per_s", ratio(grants as f64, job_time.as_secs_f64()));
    e2e.insert("rounds.mean", ratio(rounds as f64, shard_runs as f64));
    e2e.insert(
        "wire_bytes_per_name",
        ratio(wire_bytes as f64, grants as f64),
    );
    if traced {
        result.per_layer = layer.metrics(acquire_ms.len() as f64);
    }
    result
}

/// Per-layer sums over the churn epochs of a traced run.
#[derive(Default)]
struct LayerTotals {
    times: EpochTimes,
    admitted: u64,
    released: u64,
    recycled: u64,
    spilled: u64,
    rounds_max: u64,
}

impl LayerTotals {
    fn add(&mut self, partition: &NamePartition, report: &ShardedEpochReport, times: &EpochTimes) {
        self.times.submit += times.submit;
        self.times.begin += times.begin;
        self.times.execute += times.execute;
        self.times.execute_max += times.execute_max;
        self.times.complete += times.complete;
        let shards = report.shards.iter().flatten();
        self.admitted += shards.clone().map(|s| s.admitted.len() as u64).sum::<u64>();
        self.released += shards.clone().map(|s| s.released.len() as u64).sum::<u64>();
        self.recycled += shards.clone().map(|s| s.recycled.len() as u64).sum::<u64>();
        self.rounds_max += shards.map(|s| s.rounds).max().unwrap_or(0);
        // An acquire spills when routing placed it off its home shard.
        self.spilled += report
            .granted
            .iter()
            .filter(|(l, n)| partition.shard_of(n.0 as usize) != partition.home_shard(*l))
            .count() as u64;
    }

    fn metrics(&self, epochs: f64) -> BTreeMap<&'static str, f64> {
        let ms = |d: Duration| ratio(d.as_secs_f64() * 1e3, epochs);
        let per = |c: u64| ratio(c as f64, epochs);
        BTreeMap::from([
            ("sharded.submit_ms", ms(self.times.submit)),
            ("sharded.begin_ms", ms(self.times.begin)),
            ("sharded.complete_ms", ms(self.times.complete)),
            ("epoch.execute_ms", ms(self.times.execute)),
            ("epoch.execute_max_ms", ms(self.times.execute_max)),
            ("shard.admitted", per(self.admitted)),
            ("shard.released", per(self.released)),
            ("shard.recycled", per(self.recycled)),
            ("sharded.spilled", per(self.spilled)),
            ("epoch.rounds_max", per(self.rounds_max)),
            ("process.peak_rss_mb", peak_rss_mb()),
        ])
    }
}
