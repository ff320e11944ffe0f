//! Stage clocks around the library's public layer boundaries.
//!
//! A traced run wraps each executor's own transport in [`Timed`] and the
//! adversary in [`TimedAdversary`], then hands both to
//! `RoundPipeline::run` — the call `SyncEngine`, `run_threaded` and
//! `run_socket_with` make.
//! Every call the pipeline makes into a wrapped layer is timed and added
//! to a shared [`Trace`]; what remains of the pipeline's wall time is its
//! own work (liveness bookkeeping, `RoundMessages::new`/`prepare`,
//! message accounting), reported as delivery. Untraced runs use the
//! transports and adversaries unwrapped.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use bil_runtime::adversary::{Adversary, AdversaryView, CrashPlan};
use bil_runtime::pipeline::{RoundMessages, Transport};
use bil_runtime::view::{Cluster, Observer, ObserverCtx};
use bil_runtime::{Label, ProcId, Round, RunError, Status, ViewProtocol};

/// Which executor transport a [`Timed`] wrapper times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `LocalTransport`: the bil-core kernel over bil-tree, in memory.
    Local,
    /// `ChannelTransport`: slot-range workers over channels.
    Threaded,
    /// `SocketTransport`: slot-range workers over loopback TCP.
    Socket,
}

/// Time spent in one transport's calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct Stages {
    /// Transport construction plus `RoundPipeline::new`.
    pub setup: Duration,
    /// `Transport::compose`.
    pub compose: Duration,
    /// `Transport::crashed` and `Transport::apply`.
    pub apply: Duration,
    /// `Transport::sweep`.
    pub sweep: Duration,
    /// `Transport::shutdown`.
    pub shutdown: Duration,
}

/// One executed round: its index, its wall time from the start of
/// compose to the end of the status sweep, and how many balls composed.
#[derive(Debug, Clone, Copy)]
pub struct RoundSample {
    /// The round index.
    pub round: u64,
    /// Compose start to sweep end, including the pipeline's own work.
    pub wall: Duration,
    /// Participants (alive, undecided balls) this round.
    pub balls: usize,
}

/// Everything the wrappers measured, summed over a run's jobs.
#[derive(Debug, Default)]
pub struct Trace {
    /// Per-transport stage times.
    pub local: Stages,
    /// See [`Trace::local`].
    pub threaded: Stages,
    /// See [`Trace::local`].
    pub socket: Stages,
    /// `Adversary::plan`.
    pub plan: Duration,
    /// Wall time of `RoundPipeline::run` calls.
    pub pipeline: Duration,
    /// Time inside every wrapped call those `run` calls made.
    pub children: Duration,
    /// Every round of every traced pipeline run.
    pub rounds: Vec<RoundSample>,
    /// Clusters (distinct shared views) seen by the observer, summed over
    /// observed rounds.
    pub views: u64,
    /// Rounds the observer saw.
    pub view_rounds: u64,
    /// The most clusters seen in one round.
    pub views_max: u64,
    open_round: Option<(Instant, usize)>,
}

impl Trace {
    /// The stage times of `layer`.
    pub fn stages(&mut self, layer: Layer) -> &mut Stages {
        match layer {
            Layer::Local => &mut self.local,
            Layer::Threaded => &mut self.threaded,
            Layer::Socket => &mut self.socket,
        }
    }

    /// Self time of the pipeline: its wall time minus the wrapped calls.
    pub fn deliver(&self) -> Duration {
        self.pipeline.saturating_sub(self.children)
    }
}

/// A transport whose every call is timed into a [`Trace`].
pub struct Timed<'a, T> {
    inner: T,
    layer: Layer,
    trace: &'a RefCell<Trace>,
}

impl<'a, T> Timed<'a, T> {
    /// Wraps `inner`, attributing its time to `layer`.
    pub fn new(inner: T, layer: Layer, trace: &'a RefCell<Trace>) -> Self {
        Timed {
            inner,
            layer,
            trace,
        }
    }

    /// Runs `call`, then adds its wall time to the trace's child time
    /// and to whichever counter `record` picks.
    fn time<R>(
        &mut self,
        call: impl FnOnce(&mut T) -> R,
        record: fn(&mut Stages) -> &mut Duration,
    ) -> R {
        let start = Instant::now();
        let out = call(&mut self.inner);
        let spent = start.elapsed();
        let mut trace = self.trace.borrow_mut();
        trace.children += spent;
        *record(trace.stages(self.layer)) += spent;
        out
    }
}

impl<P: ViewProtocol, T: Transport<P>> Transport<P> for Timed<'_, T> {
    fn compose(
        &mut self,
        round: Round,
        participants: &[ProcId],
    ) -> Result<Vec<(ProcId, Label, P::Msg)>, RunError> {
        let start = Instant::now();
        let out = self.time(|t| t.compose(round, participants), |s| &mut s.compose);
        self.trace.borrow_mut().open_round = Some((start, participants.len()));
        out
    }

    fn crashed(&mut self, pid: ProcId) -> Result<(), RunError> {
        self.time(|t| t.crashed(pid), |s| &mut s.apply)
    }

    fn apply(
        &mut self,
        round: Round,
        alive: &[bool],
        survivors: &[ProcId],
        msgs: &RoundMessages<P::Msg>,
    ) -> Result<(), RunError> {
        self.time(|t| t.apply(round, alive, survivors, msgs), |s| &mut s.apply)
    }

    fn observe(&mut self, ctx: ObserverCtx<'_>, observer: &mut dyn Observer<P>) {
        // The observer is the benchmark's own hook: child time, not a
        // stage of the layer.
        let start = Instant::now();
        self.inner.observe(ctx, observer);
        self.trace.borrow_mut().children += start.elapsed();
    }

    fn sweep(&mut self, round: Round) -> Result<Vec<(ProcId, Status)>, RunError> {
        let out = self.time(|t| t.sweep(round), |s| &mut s.sweep);
        let mut trace = self.trace.borrow_mut();
        if let Some((start, balls)) = trace.open_round.take() {
            trace.rounds.push(RoundSample {
                round: round.0,
                wall: start.elapsed(),
                balls,
            });
        }
        out
    }

    fn shutdown(&mut self) {
        self.time(|t| t.shutdown(), |s| &mut s.shutdown);
    }
}

/// An adversary whose planning is timed into a [`Trace`].
pub struct TimedAdversary<'a, A> {
    inner: A,
    trace: &'a RefCell<Trace>,
}

impl<'a, A> TimedAdversary<'a, A> {
    /// Wraps `inner`.
    pub fn new(inner: A, trace: &'a RefCell<Trace>) -> Self {
        TimedAdversary { inner, trace }
    }
}

impl<M, A: Adversary<M>> Adversary<M> for TimedAdversary<'_, A> {
    fn plan(&mut self, view: &AdversaryView<'_, M>) -> CrashPlan {
        let start = Instant::now();
        let plan = self.inner.plan(view);
        let spent = start.elapsed();
        let mut trace = self.trace.borrow_mut();
        trace.plan += spent;
        trace.children += spent;
        plan
    }

    fn budget(&self) -> usize {
        self.inner.budget()
    }
}

/// Counts the clusters (distinct shared views) of every observed round.
pub struct CountViews<'a>(pub &'a RefCell<Trace>);

impl<P: ViewProtocol> Observer<P> for CountViews<'_> {
    fn after_round(&mut self, _ctx: ObserverCtx<'_>, clusters: &[Cluster<P::View>]) {
        let mut trace = self.0.borrow_mut();
        let views = clusters.len() as u64;
        trace.views += views;
        trace.view_rounds += 1;
        trace.views_max = trace.views_max.max(views);
    }
}
