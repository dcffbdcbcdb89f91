//! Property tests of the memory controller: every accepted request is
//! eventually serviced exactly once, under every scheme and arbitrary
//! interleavings.

use ladder_baselines::SplitReset;
use ladder_core::LadderVariant;
use ladder_memctrl::{
    standard_tables, FixedWorstPolicy, LadderPolicy, MemCtrlConfig, MemoryController,
    SplitResetPolicy, Tables, WritePolicy,
};
use ladder_reram::{AddressMap, Geometry, Instant, LineAddr};
use ladder_xbar::TableConfig;
use proptest::prelude::*;
use std::sync::OnceLock;

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| standard_tables(&TableConfig::ladder_default()))
}

#[derive(Debug, Clone)]
enum Req {
    Read(u64),
    Write(u64, u8),
    Advance,
}

fn arb_req() -> impl Strategy<Value = Req> {
    prop_oneof![
        (0u64..40_000).prop_map(Req::Read),
        ((0u64..40_000), any::<u8>()).prop_map(|(a, v)| Req::Write(a, v)),
        Just(Req::Advance),
    ]
}

fn policy_for(kind: u8) -> Box<dyn WritePolicy> {
    let lt = &tables().ladder;
    let map = AddressMap::new(Geometry::default());
    match kind % 3 {
        0 => Box::new(FixedWorstPolicy::new(lt)),
        1 => Box::new(SplitResetPolicy::new(SplitReset::new(
            &TableConfig::ladder_default().params,
            lt.law(),
        ))),
        _ => Box::new(LadderPolicy::for_variant(
            LadderVariant::Hybrid,
            lt.clone(),
            map,
        )),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn accepted_requests_are_serviced_exactly_once(
        reqs in prop::collection::vec(arb_req(), 1..250),
        policy_kind in 0u8..3,
    ) {
        let map = AddressMap::new(Geometry::default());
        let mut mc = MemoryController::new(
            MemCtrlConfig::default(),
            map,
            policy_for(policy_kind),
        );
        // Workload addresses sit above every scheme's metadata region.
        let base = 40_000u64 * 64;
        let mut now = Instant::ZERO;
        let mut accepted_reads = 0u64;
        let mut accepted_write_addrs: Vec<u64> = Vec::new();
        let mut completion_ids = std::collections::BTreeSet::new();
        for r in reqs {
            match r {
                Req::Read(a) => {
                    if let Some(id) = mc.enqueue_read(LineAddr::new(base + a), now) {
                        accepted_reads += 1;
                        prop_assert!(completion_ids.insert(id), "duplicate request id");
                    }
                }
                Req::Write(a, v) => {
                    if mc.enqueue_write(LineAddr::new(base + a), [v; 64], now) {
                        accepted_write_addrs.push(base + a);
                    }
                }
                Req::Advance => {
                    if let Some(t) = mc.next_wake(now) {
                        now = t;
                    }
                }
            }
            mc.process(now);
        }
        mc.finish(now);
        prop_assert!(mc.is_idle());
        let stats = mc.stats();
        prop_assert_eq!(stats.demand_reads, accepted_reads);
        // Coalescing merges re-writes of a line that is still queued, so
        // serviced writes are bounded by accepted and at least the number
        // of distinct addresses accepted.
        accepted_write_addrs.sort_unstable();
        accepted_write_addrs.dedup();
        prop_assert!(stats.data_writes >= accepted_write_addrs.len() as u64);
        // Every completion surfaced exactly once.
        let mut seen = 0u64;
        for (id, _) in mc.drain_completed_reads() {
            prop_assert!(completion_ids.contains(&id));
            seen += 1;
        }
        prop_assert!(seen <= accepted_reads);
    }
}
