//! The harness regenerates each artifact and the outputs contain the rows
//! the paper reports. Cheap experiments run at full default scale; the
//! expensive simulation figures are exercised through their public cells at
//! reduced scale (the full sweeps run via `harness all`).

use chrono_repro::harness::experiments::{fig12, fig13, fig6};
use chrono_repro::harness::experiments::{figb, tables};
use chrono_repro::harness::runner::{PolicyKind, Scale};
use chrono_repro::sim_clock::Nanos;
use chrono_repro::workloads::KvFlavor;

fn tiny_scale() -> Scale {
    Scale {
        run_for: Nanos::from_millis(300),
        ..Scale::default_scale()
    }
}

#[test]
fn tables_render_paper_content() {
    let t1 = tables::table1();
    assert!(t1.contains("Dynamic CIT stats"));
    assert!(t1.contains("0~1000 access/sec"));
    let t2 = tables::table2();
    assert!(t2.contains("auto-tuned"));
}

#[test]
fn appendix_figures_are_exact() {
    let b1 = figb::run_b1();
    assert!(b1.lines().count() >= 23, "B1 table too short");
    let b2 = figb::run_b2();
    assert!(b2.contains("n=2"));
}

#[test]
fn fig6_cell_produces_throughput_and_chrono_wins() {
    let scale = tiny_scale();
    let (_, procs, pages, frames) = ("test", 4, 2048u32, 13_000u32);
    let nb = fig6::run_cell(PolicyKind::LinuxNb, &scale, procs, pages, frames, 0.7);
    let ch = fig6::run_cell(PolicyKind::Chrono, &scale, procs, pages, frames, 0.7);
    assert!(nb > 0.0 && ch > 0.0);
    assert!(ch > nb, "Chrono {:.0} must beat NB {:.0}", ch, nb);
}

#[test]
fn fig12_cell_runs_both_flavors() {
    let scale = tiny_scale();
    for flavor in [KvFlavor::Memcached, KvFlavor::Redis] {
        let v = fig12::run_cell(PolicyKind::Chrono, &scale, flavor, 0.5);
        assert!(v > 0.0, "{:?} produced no throughput", flavor);
    }
}

#[test]
fn fig13_cell_covers_ablations() {
    let scale = tiny_scale();
    for kind in [PolicyKind::ChronoBasic, PolicyKind::ChronoManual] {
        let v = fig13::run_cell(kind, &scale, 0.7);
        assert!(v > 0.0, "{} produced no throughput", kind.name());
    }
    // Chrono-manual is its own tuning mode, not a copy of Chrono-twice.
    assert_eq!(
        PolicyKind::ChronoManual.build(&scale).name(),
        "Chrono-manual"
    );
}

#[test]
fn experiment_registry_is_complete() {
    use chrono_repro::harness::experiments::EXPERIMENTS;
    // Every paper artifact has an entry: 2 tables, figures 1-2 (a/b), 6-13,
    // and the two appendix figures.
    assert!(EXPERIMENTS.len() >= 19);
    for id in [
        "table1", "table2", "fig1", "fig2a", "fig2b", "fig6", "fig7", "fig8", "fig9", "fig10a",
        "fig10b", "fig10c", "fig10d", "fig11a", "fig11b", "fig12", "fig13", "figb1", "figb2",
    ] {
        assert!(
            EXPERIMENTS.iter().any(|(e, _)| *e == id),
            "missing experiment {}",
            id
        );
    }
}
