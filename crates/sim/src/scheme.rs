//! The write schemes under comparison and their construction.

use ladder_baselines::SplitReset;
use ladder_core::{LadderConfig, LadderVariant};
use ladder_memctrl::{
    BlpPolicy, FixedWorstPolicy, LadderPolicy, LocationAwarePolicy, OraclePolicy, SplitResetPolicy,
    WritePolicy,
};
use ladder_reram::AddressMap;
use ladder_xbar::{CrossbarParams, TimingTable};

/// Every scheme evaluated in the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Fixed worst-case `tWR` (the paper's baseline).
    Baseline,
    /// Location-dependent `tWR`, worst-case content assumed (Fig. 2).
    LocationAware,
    /// Split-reset (Xu et al., HPCA'15).
    SplitReset,
    /// Bitline-pattern profiling (Wen et al., TCAD'19).
    Blp,
    /// LADDER with exact counters.
    LadderBasic,
    /// LADDER with partial-counter estimation and bit shifting.
    LadderEst,
    /// LADDER-Est with multi-granularity counters.
    LadderHybrid,
    /// Exact counters known for free (upper bound).
    Oracle,
}

impl Scheme {
    /// The seven schemes of the main evaluation, in the paper's bar order.
    pub const MAIN_EVAL: [Scheme; 7] = [
        Scheme::Baseline,
        Scheme::SplitReset,
        Scheme::Blp,
        Scheme::LadderBasic,
        Scheme::LadderEst,
        Scheme::LadderHybrid,
        Scheme::Oracle,
    ];

    /// Display name matching the paper's legends.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Baseline => "baseline",
            Scheme::LocationAware => "Location-aware",
            Scheme::SplitReset => "Split-reset",
            Scheme::Blp => "BLP",
            Scheme::LadderBasic => "LADDER-Basic",
            Scheme::LadderEst => "LADDER-Est",
            Scheme::LadderHybrid => "LADDER-Hybrid",
            Scheme::Oracle => "Oracle",
        }
    }

    /// Builds the policy object for this scheme.
    ///
    /// `ladder_table` must use the wordline content axis and `blp_table`
    /// the bitline axis; both must share one device latency law.
    /// `ladder_override` replaces the LADDER configuration (ablation
    /// studies: cache size, shifting, FNW variant, low-precision rows);
    /// its `variant` field is replaced by this scheme's variant.
    pub fn build_policy(
        self,
        params: &CrossbarParams,
        ladder_table: &TimingTable,
        blp_table: &TimingTable,
        map: &AddressMap,
        ladder_override: Option<LadderConfig>,
    ) -> Box<dyn WritePolicy> {
        let ladder = |variant: LadderVariant| -> Box<dyn WritePolicy> {
            let cfg = match &ladder_override {
                Some(c) => LadderConfig {
                    variant,
                    ..c.clone()
                },
                None => LadderConfig::for_variant(variant),
            };
            Box::new(LadderPolicy::new(cfg, ladder_table.clone(), map.clone()))
        };
        match self {
            Scheme::Baseline => Box::new(FixedWorstPolicy::new(ladder_table)),
            Scheme::LocationAware => {
                Box::new(LocationAwarePolicy::new(ladder_table.clone(), map.clone()))
            }
            Scheme::SplitReset => Box::new(SplitResetPolicy::new(SplitReset::new(
                params,
                ladder_table.law(),
            ))),
            Scheme::Blp => Box::new(BlpPolicy::new(blp_table.clone(), map.clone())),
            Scheme::LadderBasic => ladder(LadderVariant::Basic),
            Scheme::LadderEst => ladder(LadderVariant::Est),
            Scheme::LadderHybrid => ladder(LadderVariant::Hybrid),
            Scheme::Oracle => Box::new(OraclePolicy::new(ladder_table.clone(), map.clone())),
        }
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ladder_memctrl::standard_tables;
    use ladder_reram::Geometry;
    use ladder_xbar::TableConfig;

    #[test]
    fn every_scheme_constructs() {
        let cfg = TableConfig::ladder_default();
        let t = standard_tables(&cfg);
        let (ladder, blp) = (t.ladder, t.blp);
        let map = AddressMap::new(Geometry::default());
        for s in [
            Scheme::Baseline,
            Scheme::LocationAware,
            Scheme::SplitReset,
            Scheme::Blp,
            Scheme::LadderBasic,
            Scheme::LadderEst,
            Scheme::LadderHybrid,
            Scheme::Oracle,
        ] {
            let p = s.build_policy(&cfg.params, &ladder, &blp, &map, None);
            assert_eq!(p.name().to_lowercase(), s.name().to_lowercase());
        }
    }

    #[test]
    fn main_eval_order_matches_paper_legend() {
        let names: Vec<_> = Scheme::MAIN_EVAL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "baseline",
                "Split-reset",
                "BLP",
                "LADDER-Basic",
                "LADDER-Est",
                "LADDER-Hybrid",
                "Oracle"
            ]
        );
    }
}
