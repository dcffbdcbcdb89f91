//! Ablation studies of the design choices the paper motivates in prose:
//! metadata-cache sizing (Section 6.3: "< 2 % gain when increasing cache
//! size"), intra-line bit shifting (Section 4.1), the FNW constraint
//! (Section 3.3: "< 4 % of flipping operations are canceled"), the
//! low-precision row count (Section 4.2), the 8×8×8 timing-table
//! quantization (Section 5: "< 3 % impact"), and line- vs segment-based
//! vertical wear-leveling (Section 6.4).
//!
//! Every sweep point is an independent simulation, so each study fans its
//! runs out on the caller's [`Runner`].

use crate::config::{builder_for, SimConfig};
use crate::experiments::{ExperimentConfig, Workload};
use crate::runner::Runner;
use crate::scheme::Scheme;
use crate::shard::run_sim;
use crate::streams::StreamPool;
use crate::system::RunResult;
use ladder_core::{FnwPolicy, LadderConfig, LadderVariant, MetadataCacheConfig};
use ladder_memctrl::{MemCtrlConfig, Tables};
use ladder_reram::Geometry;
use ladder_wear::StartGap;
use ladder_xbar::TableConfig;

/// One measured ablation point.
#[derive(Debug, Clone)]
pub struct AblationPoint {
    /// What was varied (human-readable).
    pub label: String,
    /// Speedup over the pessimistic baseline under the same conditions.
    pub speedup: f64,
    /// Metadata-cache hit ratio, when applicable.
    pub cache_hit: Option<f64>,
    /// Additional reads fraction.
    pub extra_reads: f64,
    /// Additional writes fraction.
    pub extra_writes: f64,
}

fn point(label: impl Into<String>, r: &RunResult, base: &RunResult) -> AblationPoint {
    AblationPoint {
        label: label.into(),
        speedup: r.ipc0() / base.ipc0(),
        cache_hit: r.cache_hit,
        extra_reads: r.mem.additional_read_fraction(),
        extra_writes: r.mem.additional_write_fraction(),
    }
}

fn run_with_ladder_cfg(
    cfg: &ExperimentConfig,
    workload: Workload,
    tables: &Tables,
    lcfg: LadderConfig,
    scheme: Scheme,
) -> RunResult {
    let mut b = builder_for(
        &SimConfig::new(scheme, workload),
        cfg,
        tables,
        Geometry::default(),
        None,
        &StreamPool::default(),
    );
    b.ladder_config(lcfg);
    b.run()
}

/// Runs the shared pessimistic baseline plus one LADDER run per sweep
/// value, all in one parallel batch; job 0 is the baseline.
fn sweep_with_base<V: Copy + Sync>(
    cfg: &ExperimentConfig,
    workload: Workload,
    runner: &Runner,
    values: &[V],
    run_value: impl Fn(&Tables, V) -> RunResult + Sync,
) -> (RunResult, Vec<RunResult>) {
    let tables = cfg.tables();
    let (mut results, _) = runner.run_jobs(values.len() + 1, |i| {
        if i == 0 {
            run_sim(&SimConfig::new(Scheme::Baseline, workload), cfg, &tables)
        } else {
            run_value(&tables, values[i - 1])
        }
    });
    let rest = results.split_off(1);
    // lint: allow(panic-policy) — invariant: split_off(1) leaves exactly the baseline run in results
    (results.pop().expect("baseline run"), rest)
}

/// Metadata-cache capacity sweep (LADDER-Est).
pub fn cache_size_sweep(
    cfg: &ExperimentConfig,
    workload: Workload,
    runner: &Runner,
) -> Vec<AblationPoint> {
    let sizes = [16usize, 32, 64, 128, 256];
    let (base, runs) = sweep_with_base(cfg, workload, runner, &sizes, |tables, kb| {
        let mut lcfg = LadderConfig::for_variant(LadderVariant::Est);
        lcfg.cache = MetadataCacheConfig {
            capacity_bytes: kb * 1024,
            ..MetadataCacheConfig::default()
        };
        run_with_ladder_cfg(cfg, workload, tables, lcfg, Scheme::LadderEst)
    });
    sizes
        .iter()
        .zip(&runs)
        .map(|(kb, r)| point(format!("{kb} KB cache"), r, &base))
        .collect()
}

/// Intra-line bit shifting on/off (LADDER-Est).
pub fn shifting_ablation(
    cfg: &ExperimentConfig,
    workload: Workload,
    runner: &Runner,
) -> Vec<AblationPoint> {
    let modes = [false, true];
    let (base, runs) = sweep_with_base(cfg, workload, runner, &modes, |tables, shifting| {
        let mut lcfg = LadderConfig::for_variant(LadderVariant::Est);
        lcfg.shifting = shifting;
        run_with_ladder_cfg(cfg, workload, tables, lcfg, Scheme::LadderEst)
    });
    modes
        .iter()
        .zip(&runs)
        .map(|(&shifting, r)| {
            point(
                if shifting {
                    "shifting on"
                } else {
                    "shifting off"
                },
                r,
                &base,
            )
        })
        .collect()
}

/// FNW policy comparison (LADDER-Est): returns the ablation points plus the
/// fraction of flips the counting constraint cancelled.
pub fn fnw_ablation(
    cfg: &ExperimentConfig,
    workload: Workload,
    runner: &Runner,
) -> (Vec<AblationPoint>, Option<f64>) {
    let policies = [FnwPolicy::Disabled, FnwPolicy::Constrained];
    let (base, runs) = sweep_with_base(cfg, workload, runner, &policies, |tables, fnw| {
        let mut lcfg = LadderConfig::for_variant(LadderVariant::Est);
        lcfg.fnw = fnw;
        run_with_ladder_cfg(cfg, workload, tables, lcfg, Scheme::LadderEst)
    });
    let mut cancelled_fraction = None;
    let points = policies
        .iter()
        .zip(&runs)
        .map(|(&fnw, r)| {
            if fnw == FnwPolicy::Constrained {
                if let Some((cancelled, opportunities)) = r.fnw {
                    if opportunities > 0 {
                        cancelled_fraction = Some(cancelled as f64 / opportunities as f64);
                    }
                }
            }
            let mut p = point(format!("{fnw:?}"), r, &base);
            p.label = format!(
                "FNW {fnw:?} (bits switched: {})",
                r.mem.bits_set + r.mem.bits_reset
            );
            p
        })
        .collect();
    (points, cancelled_fraction)
}

/// Low-precision row-count sweep (LADDER-Hybrid).
pub fn low_rows_sweep(
    cfg: &ExperimentConfig,
    workload: Workload,
    runner: &Runner,
) -> Vec<AblationPoint> {
    let row_counts = [0usize, 64, 128, 256];
    let (base, runs) = sweep_with_base(cfg, workload, runner, &row_counts, |tables, rows| {
        let mut lcfg = LadderConfig::for_variant(LadderVariant::Hybrid);
        lcfg.low_precision_rows = rows;
        run_with_ladder_cfg(cfg, workload, tables, lcfg, Scheme::LadderHybrid)
    });
    row_counts
        .iter()
        .zip(&runs)
        .map(|(rows, r)| point(format!("{rows} low-precision rows"), r, &base))
        .collect()
}

/// Timing-table quantization sweep: 4, 8 and 16 bands per dimension.
///
/// Each band count regenerates its own tables, so a sweep point is a
/// `(baseline, LADDER-Est)` pair sharing those tables; the pairs run in
/// parallel.
pub fn table_granularity_sweep(
    cfg: &ExperimentConfig,
    workload: Workload,
    runner: &Runner,
) -> Vec<AblationPoint> {
    let band_counts = [4usize, 8, 16];
    let (results, _) = runner.run_jobs(band_counts.len(), |i| {
        let bands = band_counts[i];
        let mut tc = TableConfig::ladder_default();
        tc.bands = bands;
        let mut c = cfg.clone();
        c.table_cfg = tc;
        let tables = c.tables();
        let base = run_sim(&SimConfig::new(Scheme::Baseline, workload), &c, &tables);
        let r = run_sim(&SimConfig::new(Scheme::LadderEst, workload), &c, &tables);
        let rom_bytes = tables.ladder.to_rom_bytes().len();
        (base, r, rom_bytes)
    });
    band_counts
        .iter()
        .zip(&results)
        .map(|(bands, (base, r, rom_bytes))| {
            let mut p = point(format!("{bands}x{bands}x{bands} table"), r, base);
            p.label = format!("{bands}x{bands}x{bands} table ({rom_bytes} B ROM)");
            p
        })
        .collect()
}

/// Write-drain watermark sweep (baseline vs LADDER-Est sensitivity).
pub fn drain_watermark_sweep(
    cfg: &ExperimentConfig,
    workload: Workload,
    runner: &Runner,
) -> Vec<AblationPoint> {
    let tables = cfg.tables();
    let watermarks = [(40usize, 16usize), (55, 32), (60, 48)];
    let schemes = [Scheme::Baseline, Scheme::LadderEst];
    // One job per (watermark, scheme) cell, watermark-major.
    let (results, _) = runner.run_jobs(watermarks.len() * schemes.len(), |i| {
        let (high, low) = watermarks[i / schemes.len()];
        let scheme = schemes[i % schemes.len()];
        let mut b = builder_for(
            &SimConfig::new(scheme, workload),
            cfg,
            &tables,
            Geometry::default(),
            None,
            &StreamPool::default(),
        );
        b.mem_config(MemCtrlConfig {
            drain_high: high,
            drain_low: low,
            ..MemCtrlConfig::default()
        });
        b.run()
    });
    watermarks
        .iter()
        .zip(results.chunks_exact(schemes.len()))
        .map(|(&(high, low), pair)| point(format!("drain at {high}/{low}"), &pair[1], &pair[0]))
        .collect()
}

/// Line-based (start-gap) vs segment-based vertical wear-leveling under
/// LADDER-Est: line-granularity remapping scatters a page's lines across
/// wordline groups and deteriorates metadata locality (paper Section 6.4).
pub fn vwl_comparison(
    cfg: &ExperimentConfig,
    workload: Workload,
    runner: &Runner,
) -> Vec<AblationPoint> {
    let tables = cfg.tables();
    let (results, _) = runner.run_jobs(4, |i| match i {
        0 => run_sim(&SimConfig::new(Scheme::Baseline, workload), cfg, &tables),
        // No wear-leveling.
        1 => run_sim(&SimConfig::new(Scheme::LadderEst, workload), cfg, &tables),
        // Segment-based VWL (the LADDER-friendly kind).
        2 => run_sim(
            &SimConfig::builder()
                .scheme(Scheme::LadderEst)
                .workload(workload)
                .wear_leveling(true)
                .build(),
            cfg,
            &tables,
        ),
        // Line-based start-gap over the data region.
        _ => {
            let total_lines = Geometry::default().lines();
            let base_line = (Geometry::default().pages() as u64 / 16) * 64;
            let mut b = builder_for(
                &SimConfig::new(Scheme::LadderEst, workload),
                cfg,
                &tables,
                Geometry::default(),
                None,
                &StreamPool::default(),
            );
            b.leveler(Box::new(StartGap::new(
                base_line,
                total_lines - base_line - 1,
                100,
            )));
            b.run()
        }
    });
    let base = &results[0];
    vec![
        point("no wear-leveling", &results[1], base),
        point("segment VWL + HWL", &results[2], base),
        point("line-based start-gap VWL", &results[3], base),
    ]
}

/// Renders ablation points as an aligned table.
pub fn render(points: &[AblationPoint]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<42}{:>9}{:>10}{:>10}{:>10}\n",
        "configuration", "speedup", "hit", "extra rd", "extra wr"
    ));
    for p in points {
        out.push_str(&format!(
            "{:<42}{:>9.3}{:>10}{:>9.1}%{:>9.1}%\n",
            p.label,
            p.speedup,
            p.cache_hit
                .map(|h| format!("{h:.3}"))
                .unwrap_or_else(|| "-".into()),
            p.extra_reads * 100.0,
            p.extra_writes * 100.0,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            instructions_per_core: 30_000,
            ..ExperimentConfig::default()
        }
    }

    fn runner() -> Runner {
        Runner::with_jobs(2)
    }

    #[test]
    fn cache_sweep_hit_ratio_grows_with_capacity() {
        let pts = cache_size_sweep(&tiny(), Workload::Single("cannl"), &runner());
        assert_eq!(pts.len(), 5);
        let first = pts.first().expect("points").cache_hit.expect("ladder");
        let last = pts.last().expect("points").cache_hit.expect("ladder");
        assert!(
            last >= first,
            "bigger cache cannot hit less ({first} vs {last})"
        );
    }

    #[test]
    fn shifting_does_not_break_the_system() {
        let pts = shifting_ablation(&tiny(), Workload::Single("astar"), &runner());
        assert_eq!(pts.len(), 2);
        for p in &pts {
            assert!(p.speedup > 1.0, "{}: LADDER must beat baseline", p.label);
        }
    }

    #[test]
    fn fnw_constraint_cancels_only_a_small_fraction() {
        let (pts, cancelled) = fnw_ablation(&tiny(), Workload::Single("lbm"), &runner());
        assert_eq!(pts.len(), 2);
        if let Some(frac) = cancelled {
            // Paper Section 6.1: < 4 % of flips cancelled.
            assert!(frac < 0.25, "cancelled fraction {frac} out of range");
        }
    }

    #[test]
    fn table_granularity_has_modest_impact() {
        let pts = table_granularity_sweep(&tiny(), Workload::Single("fsim"), &runner());
        assert_eq!(pts.len(), 3);
        let speedups: Vec<f64> = pts.iter().map(|p| p.speedup).collect();
        let max = speedups.iter().cloned().fold(f64::MIN, f64::max);
        let min = speedups.iter().cloned().fold(f64::MAX, f64::min);
        // Paper Section 5: reduced granularity costs < 3 %; allow slack for
        // the tiny test run.
        assert!(
            (max - min) / max < 0.15,
            "granularity swing too large: {speedups:?}"
        );
    }

    #[test]
    fn render_formats_every_point() {
        let pts = vec![AblationPoint {
            label: "x".into(),
            speedup: 1.5,
            cache_hit: None,
            extra_reads: 0.1,
            extra_writes: 0.05,
        }];
        let s = render(&pts);
        assert!(s.contains("1.500"));
        assert!(s.contains('x'));
    }
}
