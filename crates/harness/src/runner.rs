//! Shared experiment plumbing: simulation scale, policy factory, run helper.

use sim_clock::Nanos;
use tiered_mem::{FaultPlan, MigrationSpec, PageSize, SystemConfig, TierId, TieredSystem};
use tiering_policies::{DriverConfig, RunResult, SimulationDriver, TieringPolicy};
use tiering_verify::PolicyUnderTest;
use workloads::Workload;

/// Mean accesses per PEBS sample for Memtis at the harness scale (models
/// the hardware cap relative to the compressed access rate).
pub const MEMTIS_SAMPLE_PERIOD: u64 = 8192;

/// Simulation time scale shared by all experiments.
///
/// The paper's wall-clock parameters (60 s scan period, 1500 s runs) are
/// compressed so a figure regenerates in seconds-to-minutes of host time
/// while preserving the ratios that drive behaviour: accesses per page per
/// scan period, scan periods per run, and promotion-rate fractions of the
/// fast tier (DESIGN.md §1).
#[derive(Debug, Clone)]
pub struct Scale {
    /// Ticking-scan / NUMA-scan full-pass period.
    pub scan_period: Nanos,
    /// Pages per scan chunk.
    pub scan_step: u32,
    /// Simulated run length.
    pub run_for: Nanos,
    /// Migration-engine admission bounds override (the CLI
    /// `--inflight-slots` / `--migration-backlog-cap` knobs); `None` keeps
    /// the library defaults.
    pub migration: Option<MigrationSpec>,
    /// Fault-plan selection (the CLI `--fault-plan` knob); `None` runs
    /// fault-free. Materialized per run because the canonical plan schedules
    /// its capacity shrink relative to the run length.
    pub fault: Option<FaultPlanKind>,
    /// Seed for the fault plan's private RNG (the CLI `--fault-seed` knob).
    pub fault_seed: u64,
    /// Tier-chain shape (the CLI `--topology` knob). The default,
    /// [`Topology::DramPmem`], reproduces every pre-existing run bit for bit.
    pub topology: Topology,
}

/// The named tier-chain shapes the CLI can run experiments on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// The paper's testbed: DRAM on top, Optane PMem below (25 % fast).
    DramPmem,
    /// DRAM over CXL memory — same shape, cheaper, symmetric bottom tier.
    DramCxl,
    /// Hot/warm/cold chain: DRAM, CXL, PMem (1/8 : 1/4 : 5/8 of the total).
    ThreeTier,
}

impl Topology {
    /// Parses the CLI spelling.
    pub fn parse(name: &str) -> Option<Topology> {
        match name {
            "dram-pmem" => Some(Topology::DramPmem),
            "dram-cxl" => Some(Topology::DramCxl),
            "three-tier" => Some(Topology::ThreeTier),
            _ => None,
        }
    }

    /// Stable display name (the CLI spelling).
    pub fn name(&self) -> &'static str {
        match self {
            Topology::DramPmem => "dram-pmem",
            Topology::DramCxl => "dram-cxl",
            Topology::ThreeTier => "three-tier",
        }
    }

    /// Managed tiers in this shape's chain.
    pub fn num_tiers(&self) -> usize {
        match self {
            Topology::DramPmem | Topology::DramCxl => 2,
            Topology::ThreeTier => 3,
        }
    }

    /// Builds the system configuration over `total_frames` of capacity. The
    /// two-tier shapes keep the paper's 25 % fast share; the three-tier
    /// chain splits 1/8 DRAM : 1/4 CXL : 5/8 PMem.
    pub fn system_config(&self, total_frames: u32) -> SystemConfig {
        match self {
            Topology::DramPmem => SystemConfig::quarter_fast(total_frames),
            Topology::DramCxl => {
                let fast = total_frames / 4;
                SystemConfig::dram_cxl(fast, total_frames - fast)
            }
            Topology::ThreeTier => {
                let fast = total_frames / 8;
                let mid = total_frames / 4;
                SystemConfig::three_tier(fast, mid, total_frames - fast - mid)
            }
        }
    }

    /// Builds the system configuration over an exact per-tier frame split —
    /// the form a tenant's slice of a [`tiered_mem::PartitionPlan`] comes
    /// in. Unlike [`Self::system_config`] no share heuristic is applied; the
    /// partition already decided the split.
    pub fn partition_config(&self, part: &tiered_mem::FramePartition) -> SystemConfig {
        match self {
            Topology::DramPmem => {
                SystemConfig::dram_pmem(part.frames(TierId(0)), part.frames(TierId(1)))
            }
            Topology::DramCxl => {
                SystemConfig::dram_cxl(part.frames(TierId(0)), part.frames(TierId(1)))
            }
            Topology::ThreeTier => SystemConfig::three_tier(
                part.frames(TierId(0)),
                part.frames(TierId(1)),
                part.frames(TierId(2)),
            ),
        }
    }
}

/// The named fault plans the CLI can attach to every experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPlanKind {
    /// The acceptance-bar chaos plan: 1 % transient copy failure, 0.01 %
    /// poison, one 25 % fast-tier shrink at the middle of the run.
    Canonical,
    /// High-rate storm (fuzz-grade probabilities, no capacity events).
    Storm,
    /// Plan attached but inert: no probabilistic faults, no events. Useful
    /// to confirm the fault plumbing itself does not perturb digests.
    Inert,
    /// The three-tier failure arc: mid-run degrade, offline (live
    /// evacuation + splice), and rejoin of the CXL mid tier, plus the
    /// canonical probabilistic faults. Requires `--topology three-tier`.
    Canonical3,
    /// High-rate storm plus rapid offline/online flapping across the
    /// lower tiers of a three-tier chain. Requires `--topology three-tier`.
    Storm3,
}

impl FaultPlanKind {
    /// Parses the CLI spelling.
    pub fn parse(name: &str) -> Option<FaultPlanKind> {
        match name {
            "canonical" => Some(FaultPlanKind::Canonical),
            "storm" => Some(FaultPlanKind::Storm),
            "inert" => Some(FaultPlanKind::Inert),
            "canonical3" => Some(FaultPlanKind::Canonical3),
            "storm3" => Some(FaultPlanKind::Storm3),
            _ => None,
        }
    }

    /// Stable display name (the CLI spelling).
    pub fn name(&self) -> &'static str {
        match self {
            FaultPlanKind::Canonical => "canonical",
            FaultPlanKind::Storm => "storm",
            FaultPlanKind::Inert => "inert",
            FaultPlanKind::Canonical3 => "canonical3",
            FaultPlanKind::Storm3 => "storm3",
        }
    }

    /// Materializes the plan for a run of length `run_for`.
    pub fn materialize(&self, seed: u64, run_for: Nanos) -> FaultPlan {
        match self {
            FaultPlanKind::Canonical => FaultPlan::canonical(seed, run_for),
            FaultPlanKind::Storm => FaultPlan::storm(seed),
            FaultPlanKind::Inert => FaultPlan::inert(seed),
            FaultPlanKind::Canonical3 => FaultPlan::canonical3(seed, run_for),
            FaultPlanKind::Storm3 => FaultPlan::storm3(seed, run_for),
        }
    }

    /// Checks the plan against a chain of `num_tiers` managed tiers: every
    /// tier event must name a tier the topology actually has (and never
    /// the top tier). `Err` carries the offending event's description.
    pub fn validate_for_topology(&self, num_tiers: usize) -> Result<(), String> {
        // The events are deterministic in the plan kind alone, so a probe
        // materialization with fixed seed/length sees every scheduled tier.
        self.materialize(0, Nanos::from_millis(1000))
            .validate_for(num_tiers)
    }
}

impl Scale {
    /// The default compressed scale: 100 ms scan periods, 1.5 s runs
    /// (15 scan periods, matching the paper's 1500 s / 60 s ≈ 25 in order of
    /// magnitude).
    pub fn default_scale() -> Scale {
        Scale {
            scan_period: Nanos::from_millis(100),
            scan_step: 1024,
            run_for: Nanos::from_millis(1500),
            migration: None,
            fault: None,
            fault_seed: 0xFA17,
            topology: Topology::DramPmem,
        }
    }

    /// Multiplies the run length (the CLI `--scale` knob).
    pub fn with_run_multiplier(mut self, k: u64) -> Scale {
        self.run_for = self.run_for * k;
        self
    }
}

/// The policies of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// First-touch placement, no migration (control).
    Static,
    /// Linux NUMA balancing in tiering mode.
    LinuxNb,
    /// Auto-Tiering (OPM-BD).
    AutoTiering,
    /// Multi-Clock.
    MultiClock,
    /// TPP.
    Tpp,
    /// Memtis (PEBS + histogram). Page size is chosen by the experiment.
    Memtis,
    /// Chrono, full configuration (2-round filtering + DCSC).
    Chrono,
    /// Chrono ablations (Fig 13).
    ChronoBasic,
    /// Two-round filtering, semi-auto tuning.
    ChronoTwice,
    /// Three-round filtering, semi-auto tuning.
    ChronoThrice,
    /// Manual tuning: an expert-provided rate limit and a fixed CIT
    /// threshold.
    ChronoManual,
}

impl PolicyKind {
    /// The six policies of the main evaluation figures.
    pub const MAIN: [PolicyKind; 6] = [
        PolicyKind::LinuxNb,
        PolicyKind::AutoTiering,
        PolicyKind::MultiClock,
        PolicyKind::Tpp,
        PolicyKind::Memtis,
        PolicyKind::Chrono,
    ];

    /// The Fig 13 design-choice variants.
    pub const ABLATION: [PolicyKind; 6] = [
        PolicyKind::LinuxNb,
        PolicyKind::ChronoBasic,
        PolicyKind::ChronoTwice,
        PolicyKind::ChronoThrice,
        PolicyKind::Chrono,
        PolicyKind::ChronoManual,
    ];

    /// Display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::Static => "Static",
            PolicyKind::LinuxNb => "Linux-NB",
            PolicyKind::AutoTiering => "AutoTiering",
            PolicyKind::MultiClock => "MultiClock",
            PolicyKind::Tpp => "TPP",
            PolicyKind::Memtis => "Memtis",
            PolicyKind::Chrono => "Chrono",
            PolicyKind::ChronoBasic => "Chrono-basic",
            PolicyKind::ChronoTwice => "Chrono-twice",
            PolicyKind::ChronoThrice => "Chrono-thrice",
            PolicyKind::ChronoManual => "Chrono-manual",
        }
    }

    /// Builds the policy at the given scale and topology from the one
    /// policy catalogue, [`PolicyUnderTest::build`], with the harness-scale
    /// Memtis sample period ([`MEMTIS_SAMPLE_PERIOD`]).
    pub fn build(&self, scale: &Scale) -> Box<dyn TieringPolicy> {
        let entry = match self {
            PolicyKind::Static => PolicyUnderTest::Static,
            PolicyKind::LinuxNb => PolicyUnderTest::LinuxNb,
            PolicyKind::AutoTiering => PolicyUnderTest::AutoTiering,
            PolicyKind::MultiClock => PolicyUnderTest::MultiClock,
            PolicyKind::Tpp => PolicyUnderTest::Tpp,
            PolicyKind::Memtis => PolicyUnderTest::Memtis,
            PolicyKind::Chrono => PolicyUnderTest::ChronoDcsc,
            PolicyKind::ChronoBasic => PolicyUnderTest::ChronoBasic,
            PolicyKind::ChronoTwice => PolicyUnderTest::ChronoSemiAuto,
            PolicyKind::ChronoThrice => PolicyUnderTest::ChronoThrice,
            PolicyKind::ChronoManual => PolicyUnderTest::ChronoManual,
        };
        entry
            .build(
                scale.scan_period,
                scale.scan_step,
                scale.topology.num_tiers(),
                MEMTIS_SAMPLE_PERIOD,
            )
            .into_dyn()
    }
}

/// A standard experiment run: one system, N processes, one policy.
pub struct StandardRun {
    /// The system after the run (placement, stats, watermarks).
    pub sys: TieredSystem,
    /// The driver-side results (throughput, latency, series).
    pub result: RunResult,
    /// Name of the policy that ran.
    pub policy_name: &'static str,
}

impl StandardRun {
    /// Throughput in accesses per simulated second.
    pub fn throughput(&self) -> f64 {
        self.result.throughput()
    }
}

/// Builds a system sized `total_frames` on the scale's topology. On the
/// default `dram-pmem` chain this is the paper's 25 % fast share.
pub fn quarter_system(scale: &Scale, total_frames: u32) -> TieredSystem {
    TieredSystem::new(scale.topology.system_config(total_frames))
}

/// Runs `make_workloads()` under `kind` at `scale` and returns the outcome.
/// The workload factory receives nothing and must be deterministic; each
/// produced workload becomes one process (created at `page_size`).
pub fn run_policy<F>(
    kind: PolicyKind,
    scale: &Scale,
    total_frames: u32,
    page_size: PageSize,
    driver_cfg: Option<DriverConfig>,
    make_workloads: F,
) -> StandardRun
where
    F: FnOnce() -> Vec<Box<dyn Workload>>,
{
    let cfg = driver_cfg.unwrap_or(DriverConfig {
        run_for: scale.run_for,
        ..Default::default()
    });
    let mut sys_cfg = scale.topology.system_config(total_frames);
    if let Some(m) = &scale.migration {
        sys_cfg.migration = m.clone();
    }
    if let Some(fault) = &scale.fault {
        let plan = fault.materialize(scale.fault_seed, cfg.run_for);
        if let Err(e) = plan.validate_for(sys_cfg.num_tiers()) {
            panic!(
                "fault plan '{}' does not fit the {} topology: {e}",
                fault.name(),
                scale.topology.name()
            );
        }
        sys_cfg.fault_plan = Some(plan);
    }
    let mut sys = TieredSystem::new(sys_cfg);
    crate::sink::arm(&mut sys);
    let mut wls = make_workloads();
    for w in &wls {
        sys.add_process(w.address_space_pages(), page_size);
    }
    let mut policy = kind.build(scale);
    let result = SimulationDriver::new(cfg).run(&mut sys, &mut wls, &mut *policy);
    crate::sink::finish_run(kind.name(), &sys);
    StandardRun {
        sys,
        result,
        policy_name: kind.name(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{PmbenchConfig, PmbenchWorkload};

    #[test]
    fn all_policies_build_and_run() {
        let scale = Scale {
            run_for: Nanos::from_millis(30),
            ..Scale::default_scale()
        };
        for kind in PolicyKind::MAIN {
            let run = run_policy(kind, &scale, 2048, PageSize::Base, None, || {
                vec![Box::new(PmbenchWorkload::new(PmbenchConfig::paper_skewed(
                    1024, 0.7, 1,
                )))]
            });
            assert!(run.result.accesses > 0, "{} did nothing", kind.name());
        }
    }

    #[test]
    fn ablation_variants_build() {
        let scale = Scale {
            run_for: Nanos::from_millis(20),
            ..Scale::default_scale()
        };
        for kind in PolicyKind::ABLATION {
            let p = kind.build(&scale);
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn topology_parses_and_shapes_systems() {
        assert_eq!(Topology::parse("dram-pmem"), Some(Topology::DramPmem));
        assert_eq!(Topology::parse("dram-cxl"), Some(Topology::DramCxl));
        assert_eq!(Topology::parse("three-tier"), Some(Topology::ThreeTier));
        assert_eq!(Topology::parse("four-tier"), None);
        let cfg = Topology::ThreeTier.system_config(4096);
        assert_eq!(cfg.num_tiers(), 3);
        assert_eq!(cfg.total_frames(), 4096);
        // The default shape is bit-for-bit the classic quarter split.
        let a = Topology::DramPmem.system_config(2048);
        assert_eq!(a.fast().frames, 512);
        assert_eq!(a.slow().frames, 1536);
    }

    #[test]
    fn three_tier_topology_runs_chrono_and_tpp() {
        let scale = Scale {
            scan_period: Nanos::from_millis(20),
            scan_step: 512,
            run_for: Nanos::from_millis(200),
            topology: Topology::ThreeTier,
            ..Scale::default_scale()
        };
        for kind in [PolicyKind::Chrono, PolicyKind::Tpp] {
            let run = run_policy(kind, &scale, 4096, PageSize::Base, None, || {
                vec![Box::new(PmbenchWorkload::new(PmbenchConfig::paper_skewed(
                    2048, 0.7, 1,
                )))]
            });
            assert!(run.result.accesses > 0, "{} did nothing", kind.name());
            for t in 0..3u8 {
                assert!(
                    run.sys.used_frames(tiered_mem::TierId(t)) > 0,
                    "{}: tier {t} empty",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn scale_multiplier_extends_runs() {
        let s = Scale::default_scale().with_run_multiplier(3);
        assert_eq!(s.run_for, Nanos::from_millis(4500));
    }

    #[test]
    fn fault_plan_kinds_parse_and_materialize() {
        assert_eq!(
            FaultPlanKind::parse("canonical"),
            Some(FaultPlanKind::Canonical)
        );
        assert_eq!(FaultPlanKind::parse("storm"), Some(FaultPlanKind::Storm));
        assert_eq!(FaultPlanKind::parse("inert"), Some(FaultPlanKind::Inert));
        assert_eq!(FaultPlanKind::parse("chaos"), None);
        let p = FaultPlanKind::Canonical.materialize(9, Nanos::from_millis(100));
        assert_eq!(p.capacity_events.len(), 1);
        assert_eq!(p.capacity_events[0].at, Nanos::from_millis(50));
        assert!(
            FaultPlanKind::Inert
                .materialize(9, Nanos::ZERO)
                .copy_transient
                == 0.0
        );
    }

    #[test]
    fn fault_plan_knob_attaches_to_runs() {
        // Compress the scan period so the short run spans many scan rounds —
        // the storm plan can only fire on migrations the policy issues.
        let scale = Scale {
            scan_period: Nanos::from_millis(5),
            run_for: Nanos::from_millis(40),
            fault: Some(FaultPlanKind::Storm),
            ..Scale::default_scale()
        };
        let run = run_policy(
            PolicyKind::Chrono,
            &scale,
            2048,
            PageSize::Base,
            None,
            || {
                vec![Box::new(PmbenchWorkload::new(PmbenchConfig::paper_skewed(
                    1024, 0.7, 1,
                )))]
            },
        );
        assert!(run.result.accesses > 0);
        let s = &run.sys.stats;
        assert!(
            s.transient_copy_faults + s.poisoned_copy_faults > 0,
            "storm plan never fired a copy fault"
        );
    }
}
