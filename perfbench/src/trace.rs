//! Instrumentation of the traced run.
//!
//! Decorators over the `Workload` and `TieringPolicy` traits time the calls
//! the driver makes into each layer, and a [`BarrierProbe`] times a fleet's
//! barrier windows. Everything stays in memory until the run ends. The
//! simulator itself carries no instrumentation: a decorator forwards every
//! call unchanged, which the traced-vs-untraced digest check proves.
//!
//! A timer pair costs tens of nanoseconds, as much as the per-access hooks
//! themselves, so `next_access` and `on_access` are timed on a fixed sample
//! of calls (every [`SAMPLE_EVERY`]th) while every call is counted. The
//! per-event hooks are timed on every call.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tiered_mem::{AccessResult, ProcessId, TieredSystem, Vpn};
use tiering_policies::{NullPolicy, TenantShard, TieringPolicy};
use workloads::{AccessReq, Workload};

use crate::scenario::{BarrierProbe, Built};

/// One in this many per-access hook calls is timed.
pub const SAMPLE_EVERY: u64 = 64;

/// A counter written by one thread at a time. A shard's workload and policy
/// run on whichever worker steps the shard, and the sharded runner joins its
/// workers at every barrier, so plain load/store (no read-modify-write) is
/// enough and keeps the cost of counting every access low.
#[derive(Default)]
struct Counter(AtomicU64);

impl Counter {
    fn add(&self, v: u64) -> u64 {
        let n = self.0.load(Ordering::Relaxed) + v;
        self.0.store(n, Ordering::Relaxed);
        n
    }

    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Calls into one hook, and the time spent in those that were timed.
#[derive(Default)]
struct HookCells {
    calls: Counter,
    timed: Counter,
    ns: Counter,
    empty_ns: Counter,
}

impl HookCells {
    /// Counts a call; times it when `always_time` is set or when it is
    /// every [`SAMPLE_EVERY`]th call.
    #[inline]
    fn call<R>(&self, always_time: bool, f: impl FnOnce() -> R) -> R {
        let n = self.calls.add(1);
        if always_time || n.is_multiple_of(SAMPLE_EVERY) {
            // An empty span read right before the real one, in the same
            // cache and pipeline state, measures what the timer itself adds.
            let t0 = Instant::now();
            let t1 = Instant::now();
            let r = f();
            let t2 = Instant::now();
            self.empty_ns.add(nanos(t1 - t0));
            self.ns.add(nanos(t2 - t1));
            self.timed.add(1);
            r
        } else {
            f()
        }
    }
}

/// One tenant's hook counters.
#[derive(Default)]
pub struct Cells {
    next_access: HookCells,
    on_access: HookCells,
    on_event: HookCells,
    on_hint_fault: HookCells,
}

/// Hook totals, summed over tenants.
#[derive(Debug, Clone, Copy, Default)]
pub struct HookTotals {
    /// Calls made.
    pub calls: u64,
    /// Calls timed.
    pub timed: u64,
    /// Host nanoseconds in the timed calls, timer cost included.
    pub ns: u64,
    /// Host nanoseconds of the empty span read beside each timed call.
    pub empty_ns: u64,
}

impl HookTotals {
    /// Mean host nanoseconds per call, less the timer's own cost. It is the
    /// difference of two noisy means, so for a near-empty hook it can come
    /// out slightly below zero; it is reported as measured.
    pub fn ns_per_call(&self) -> f64 {
        (self.ns as f64 - self.empty_ns as f64) / self.timed.max(1) as f64
    }

    /// Estimated host seconds in all calls.
    pub fn total_s(&self) -> f64 {
        self.ns_per_call() * self.calls as f64 / 1e9
    }

    /// Mean host nanoseconds of an empty span.
    pub fn empty_span_ns(&self) -> f64 {
        self.empty_ns as f64 / self.timed.max(1) as f64
    }
}

/// Per-hook totals of a traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Hooks {
    /// `Workload::next_access` (the `workloads` layer).
    pub next_access: HookTotals,
    /// `TieringPolicy::on_access`.
    pub on_access: HookTotals,
    /// `TieringPolicy::on_event` (daemon wake-ups).
    pub on_event: HookTotals,
    /// `TieringPolicy::on_hint_fault`.
    pub on_hint_fault: HookTotals,
}

impl Hooks {
    /// Sums the cells of every tenant.
    pub fn sum(cells: &[Arc<Cells>]) -> Hooks {
        let total = |pick: fn(&Cells) -> &HookCells| {
            let mut t = HookTotals::default();
            for c in cells {
                let h = pick(c);
                t.calls += h.calls.get();
                t.timed += h.timed.get();
                t.ns += h.ns.get();
                t.empty_ns += h.empty_ns.get();
            }
            t
        };
        Hooks {
            next_access: total(|c| &c.next_access),
            on_access: total(|c| &c.on_access),
            on_event: total(|c| &c.on_event),
            on_hint_fault: total(|c| &c.on_hint_fault),
        }
    }

    /// Estimated host seconds inside policy hooks.
    pub fn policy_s(&self) -> f64 {
        self.on_event.total_s() + self.on_hint_fault.total_s() + self.on_access.total_s()
    }
}

/// A workload that counts and samples its `next_access` calls.
struct TracedWorkload {
    inner: Box<dyn Workload>,
    cells: Arc<Cells>,
}

impl Workload for TracedWorkload {
    fn next_access(&mut self) -> Option<AccessReq> {
        let inner = &mut self.inner;
        self.cells.next_access.call(false, || inner.next_access())
    }

    fn address_space_pages(&self) -> u32 {
        self.inner.address_space_pages()
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

/// A policy whose hooks are counted and timed.
struct TracedPolicy {
    inner: Box<dyn TieringPolicy>,
    cells: Arc<Cells>,
}

impl TieringPolicy for TracedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn init(&mut self, sys: &mut TieredSystem) {
        self.inner.init(sys);
    }

    fn on_event(&mut self, sys: &mut TieredSystem, token: u64) {
        let inner = &mut self.inner;
        self.cells
            .on_event
            .call(true, || inner.on_event(sys, token));
    }

    fn on_hint_fault(
        &mut self,
        sys: &mut TieredSystem,
        pid: ProcessId,
        vpn: Vpn,
        write: bool,
        res: &AccessResult,
    ) {
        let inner = &mut self.inner;
        self.cells
            .on_hint_fault
            .call(true, || inner.on_hint_fault(sys, pid, vpn, write, res));
    }

    fn on_access(&mut self, sys: &mut TieredSystem, pid: ProcessId, vpn: Vpn, write: bool) {
        let inner = &mut self.inner;
        self.cells
            .on_access
            .call(false, || inner.on_access(sys, pid, vpn, write));
    }
}

/// Wraps one tenant's workloads and policy in the decorators.
fn wrap(wls: &mut Vec<Box<dyn Workload>>, policy: &mut Box<dyn TieringPolicy>, cells: &Arc<Cells>) {
    *wls = std::mem::take(wls)
        .into_iter()
        .map(|inner| {
            Box::new(TracedWorkload {
                inner,
                cells: Arc::clone(cells),
            }) as Box<dyn Workload>
        })
        .collect();
    let inner = std::mem::replace(policy, Box::new(NullPolicy));
    *policy = Box::new(TracedPolicy {
        inner,
        cells: Arc::clone(cells),
    });
}

/// Wraps every tenant of a built workload; returns one cell set per tenant.
pub fn instrument(built: &mut Built) -> Vec<Arc<Cells>> {
    match built {
        Built::Single { wls, policy, .. } => {
            let cells = Arc::new(Cells::default());
            wrap(wls, policy, &cells);
            vec![cells]
        }
        Built::Fleet { shards, .. } => shards
            .iter_mut()
            .map(|s| {
                let cells = Arc::new(Cells::default());
                wrap(&mut s.workloads, &mut s.policy, &cells);
                cells
            })
            .collect(),
    }
}

/// Times a fleet's barrier windows: a window runs from the end of one
/// barrier's shard hooks to the first shard hook of the next, and so covers
/// stepping every shard plus the barrier's admission decision. The finish
/// span runs from the last barrier to the end of the sharded run.
pub struct WindowProbe {
    mark: Instant,
    /// Host seconds of each window, in order.
    pub windows: Vec<f64>,
    /// Host seconds from the last barrier to the run's end.
    pub finish_s: f64,
}

impl WindowProbe {
    /// A probe whose first window starts now.
    pub fn start() -> WindowProbe {
        WindowProbe {
            mark: Instant::now(),
            windows: Vec::new(),
            finish_s: 0.0,
        }
    }
}

impl BarrierProbe for WindowProbe {
    fn shard(&mut self, shard: &TenantShard) {
        let now = Instant::now();
        if shard.id == 0 {
            self.windows.push((now - self.mark).as_secs_f64());
        }
        self.mark = now;
    }

    fn finish(&mut self) {
        self.finish_s = self.mark.elapsed().as_secs_f64();
    }
}

/// A duration in whole nanoseconds.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
