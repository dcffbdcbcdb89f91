//! Benchmark profiles: the calibrated knobs that make a synthetic trace
//! behave like its SPEC2006/PARSEC namesake at the memory controller.
//!
//! We cannot ship SPEC binaries, so each benchmark is modelled by the
//! properties that actually drive the paper's results (DESIGN.md §2):
//! memory intensity (RPKI/WPKI), access locality (metadata cache hits),
//! latency sensitivity (dependent-load fraction, MLP), data-pattern shape
//! (`1`-bit density and clustering → LRS counters and shifting benefit) and
//! FPC compressibility (Split-reset's lever). Values are drawn from
//! published SPEC characterization studies and tuned so the relative
//! scheme ordering matches the paper's figures.

/// Tunable characteristics of one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkProfile {
    /// Short name used in the paper's figures (e.g. `"astar"`).
    pub name: &'static str,
    /// LLC-miss demand reads per kilo-instruction.
    pub rpki: f64,
    /// LLC write-backs per kilo-instruction.
    pub wpki: f64,
    /// Fraction of reads the core blocks on (dependent loads).
    pub dependency_fraction: f64,
    /// Maximum outstanding misses the core sustains.
    pub mlp: usize,
    /// Working-set size in 4 KB pages.
    pub working_set_pages: u64,
    /// Probability the next access stays in the current page.
    pub page_locality: f64,
    /// When leaving the current page, probability of jumping to a
    /// recently used page instead of a fresh one (temporal reuse; drives
    /// the metadata cache hit ratio).
    pub page_reuse: f64,
    /// Whether in-page accesses walk sequentially (streaming) or jump.
    pub sequential: bool,
    /// Mean fraction of `1` bits in written data.
    pub bit_density: f64,
    /// Fraction of a line's `1`s packed into per-page hot bytes
    /// (repetitive clustered patterns; what bit shifting untangles).
    pub clustering: f64,
    /// Fraction of written lines that FPC-compress to half size.
    pub compressible_fraction: f64,
}

/// The eight single-programmed benchmarks of Table 3, in figure order.
pub const SINGLE_BENCHMARKS: [&str; 8] = [
    "astar", "bwavs", "cannl", "fsim", "lbm", "libq", "mcf", "perlb",
];

/// The eight multi-programmed mixes of Table 3.
pub const MIXES: [(&str, [&str; 4]); 8] = [
    ("mix-1", ["astar", "lbm", "mcf", "cactus"]),
    ("mix-2", ["cactus", "bwavs", "perlb", "zeusmp"]),
    ("mix-3", ["bwavs", "zeusmp", "astar", "mcf"]),
    ("mix-4", ["zeusmp", "perlb", "lbm", "cactus"]),
    ("mix-5", ["cactus", "astar", "lbm", "perlb"]),
    ("mix-6", ["zeusmp", "cactus", "bwavs", "mcf"]),
    ("mix-7", ["astar", "lbm", "bwavs", "mcf"]),
    ("mix-8", ["mcf", "cactus", "zeusmp", "perlb"]),
];

/// Looks up a benchmark profile by its short name.
///
/// # Panics
///
/// Panics on an unknown name; use [`SINGLE_BENCHMARKS`]/[`MIXES`] to
/// enumerate valid ones.
///
/// # Examples
///
/// ```
/// use ladder_workloads::profile_of;
/// let mcf = profile_of("mcf");
/// assert!(mcf.dependency_fraction >= 0.15, "mcf is pointer-chasing");
/// ```
pub fn profile_of(name: &str) -> BenchmarkProfile {
    #[expect(
        clippy::too_many_arguments,
        reason = "one positional row per benchmark reads as a table"
    )]
    fn p(
        name: &'static str,
        rpki: f64,
        wpki: f64,
        dependency_fraction: f64,
        mlp: usize,
        working_set_pages: u64,
        page_locality: f64,
        page_reuse: f64,
        sequential: bool,
        bit_density: f64,
        clustering: f64,
        compressible_fraction: f64,
    ) -> BenchmarkProfile {
        BenchmarkProfile {
            name,
            rpki,
            wpki,
            dependency_fraction,
            mlp,
            working_set_pages,
            page_locality,
            page_reuse,
            sequential,
            bit_density,
            clustering,
            compressible_fraction,
        }
    }
    match name {
        // Pathfinding: pointer-heavy, moderate intensity, sparse clustered
        // integer data.
        "astar" => p(
            "astar", 12.0, 2.2, 0.14, 12, 20_000, 0.70, 0.80, false, 0.12, 0.60, 0.35,
        ),
        // Streaming FP solver: high bandwidth, dense FP mantissas.
        "bwavs" => p(
            "bwavs", 16.0, 4.2, 0.05, 16, 60_000, 0.85, 0.80, true, 0.35, 0.20, 0.30,
        ),
        // Simulated annealing over a netlist: random access, highly
        // compressible element data (paper Section 6.3 singles it out).
        "cannl" => p(
            "cannl", 14.0, 3.2, 0.12, 12, 50_000, 0.50, 0.75, false, 0.10, 0.50, 0.75,
        ),
        // Physics simulation: streaming FP with moderate reuse.
        "fsim" => p(
            "fsim", 9.0, 2.8, 0.07, 12, 30_000, 0.80, 0.80, true, 0.30, 0.30, 0.45,
        ),
        // Lattice-Boltzmann: the heaviest write stream, dense FP data.
        "lbm" => p(
            "lbm", 14.0, 6.5, 0.04, 16, 70_000, 0.90, 0.85, true, 0.38, 0.25, 0.30,
        ),
        // Quantum simulation: streaming over a large sparse amplitude
        // array; mostly-zero, very compressible.
        "libq" => p(
            "libq", 22.0, 3.2, 0.06, 14, 40_000, 0.90, 0.85, true, 0.08, 0.40, 0.80,
        ),
        // Sparse network simplex: the classic latency-bound pointer chaser.
        "mcf" => p(
            "mcf", 28.0, 4.2, 0.18, 14, 90_000, 0.55, 0.72, false, 0.10, 0.55, 0.55,
        ),
        // Interpreter: modest intensity, compressible heap data (paper
        // Section 6.3 singles it out).
        "perlb" => p(
            "perlb", 5.0, 1.4, 0.10, 10, 10_000, 0.75, 0.85, false, 0.15, 0.50, 0.75,
        ),
        // FP grid solvers used in the mixes.
        "cactus" => p(
            "cactus", 9.0, 3.2, 0.07, 12, 40_000, 0.80, 0.80, true, 0.33, 0.30, 0.40,
        ),
        "zeusmp" => p(
            "zeusmp", 8.0, 2.3, 0.07, 12, 35_000, 0.80, 0.80, true, 0.30, 0.30, 0.45,
        ),
        #[expect(
            clippy::panic,
            reason = "workload parsing checks names against the catalog"
        )]
        other => panic!("unknown benchmark {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_named_benchmarks_resolve() {
        for b in SINGLE_BENCHMARKS {
            let p = profile_of(b);
            assert_eq!(p.name, b);
            assert!(p.rpki > 0.0 && p.wpki > 0.0);
            assert!((0.0..=1.0).contains(&p.dependency_fraction));
            assert!((0.0..=1.0).contains(&p.page_locality));
            assert!((0.0..=1.0).contains(&p.page_reuse));
            assert!((0.0..=1.0).contains(&p.bit_density));
            assert!((0.0..=1.0).contains(&p.clustering));
            assert!((0.0..=1.0).contains(&p.compressible_fraction));
            assert!(p.mlp >= 1);
        }
    }

    #[test]
    fn all_mix_members_resolve() {
        for (mix, members) in MIXES {
            assert!(mix.starts_with("mix-"));
            for m in members {
                let _ = profile_of(m);
            }
        }
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn unknown_benchmark_panics() {
        let _ = profile_of("doom");
    }

    #[test]
    fn intensity_ordering_is_sane() {
        // mcf and libq are the most read-intensive; lbm writes the most.
        let rpki_max = SINGLE_BENCHMARKS
            .iter()
            .map(|b| (profile_of(b).rpki, *b))
            .fold((0.0, ""), |a, b| if b.0 > a.0 { b } else { a });
        assert_eq!(rpki_max.1, "mcf");
        let wpki_max = SINGLE_BENCHMARKS
            .iter()
            .map(|b| (profile_of(b).wpki, *b))
            .fold((0.0, ""), |a, b| if b.0 > a.0 { b } else { a });
        assert_eq!(wpki_max.1, "lbm");
    }
}
