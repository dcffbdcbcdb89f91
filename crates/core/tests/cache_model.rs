//! Model-based property test of the LRS-metadata cache: a shadow model
//! tracks sharer counts and residency, and every observable behaviour of
//! the real cache must agree with it.

use ladder_core::{InsertOutcome, MetadataCache, MetadataCacheConfig};
use ladder_reram::LineAddr;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

#[derive(Debug, Clone)]
enum Op {
    Lookup(u64),
    Insert(u64),
    AddSharer(u64),
    ReleaseSharer(u64),
    MarkDirty(u64),
    Flush,
}

fn arb_op() -> impl Strategy<Value = Op> {
    let addr = 0u64..24;
    prop_oneof![
        addr.clone().prop_map(Op::Lookup),
        addr.clone().prop_map(Op::Insert),
        addr.clone().prop_map(Op::AddSharer),
        addr.clone().prop_map(Op::ReleaseSharer),
        addr.prop_map(Op::MarkDirty),
        Just(Op::Flush),
    ]
}

/// Resident set reconstructed from the cache's own `contains`.
fn resident(cache: &MetadataCache, universe: u64) -> BTreeSet<u64> {
    (0..universe)
        .filter(|&a| cache.contains(LineAddr::new(a)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cache_agrees_with_the_shadow_model(ops in prop::collection::vec(arb_op(), 1..120)) {
        // 8 lines, 2 ways → 4 sets; addresses 0..24 → 6 per set.
        let cfg = MetadataCacheConfig {
            capacity_bytes: 8 * 64,
            ways: 2,
            access_cycles: 2,
            spill_entries: 4,
        };
        let universe = 24u64;
        let mut cache = MetadataCache::new(cfg);
        let mut sharers: BTreeMap<u64, u32> = BTreeMap::new();
        let mut dirty: BTreeSet<u64> = BTreeSet::new();

        for op in ops {
            let res = resident(&cache, universe);
            match op {
                Op::Lookup(a) => {
                    let hit = cache.lookup(LineAddr::new(a));
                    prop_assert_eq!(hit, res.contains(&a), "lookup/contains disagree");
                }
                Op::Insert(a) => {
                    if res.contains(&a) {
                        continue; // inserting a resident line is a caller bug
                    }
                    match cache.insert(LineAddr::new(a)) {
                        InsertOutcome::Installed { writeback } => {
                            prop_assert!(cache.contains(LineAddr::new(a)));
                            if let Some(victim) = writeback {
                                prop_assert!(dirty.remove(&victim.raw()),
                                    "writeback of a clean line");
                                prop_assert_eq!(
                                    sharers.get(&victim.raw()).copied().unwrap_or(0), 0,
                                    "evicted a pinned line");
                                prop_assert!(!cache.contains(victim));
                            }
                            // Any line that silently left must have been
                            // clean and unpinned.
                            let now = resident(&cache, universe);
                            for gone in res.difference(&now) {
                                prop_assert_eq!(
                                    sharers.get(gone).copied().unwrap_or(0), 0,
                                    "evicted a pinned line silently");
                                dirty.remove(gone);
                            }
                        }
                        InsertOutcome::Blocked => {
                            // Every way of a's set must be pinned: at least
                            // `ways` resident same-set lines with sharers.
                            let set = a % 4;
                            let pinned = res.iter()
                                .filter(|r| *r % 4 == set)
                                .filter(|r| sharers.get(r).copied().unwrap_or(0) > 0)
                                .count();
                            prop_assert!(pinned >= 2, "blocked without a full pinned set");
                            prop_assert!(!cache.contains(LineAddr::new(a)));
                        }
                    }
                }
                Op::AddSharer(a) => {
                    if res.contains(&a) {
                        cache.add_sharer(LineAddr::new(a));
                        *sharers.entry(a).or_insert(0) += 1;
                    }
                }
                Op::ReleaseSharer(a) => {
                    if res.contains(&a) && sharers.get(&a).copied().unwrap_or(0) > 0 {
                        cache.release_sharer(LineAddr::new(a));
                        *sharers.get_mut(&a).expect("tracked") -= 1;
                    }
                }
                Op::MarkDirty(a) => {
                    if res.contains(&a) {
                        cache.mark_dirty(LineAddr::new(a));
                        dirty.insert(a);
                    }
                }
                Op::Flush => {
                    let flushed: BTreeSet<u64> =
                        cache.flush_dirty().into_iter().map(|l| l.raw()).collect();
                    prop_assert_eq!(&flushed, &dirty, "flush set mismatch");
                    dirty.clear();
                }
            }
        }
    }
}
