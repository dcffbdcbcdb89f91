//! Criterion bench for end-to-end controller throughput: how many memory
//! operations per second the simulator sustains under the heaviest scheme.

use criterion::{criterion_group, criterion_main, Criterion};
use ladder_core::LadderVariant;
use ladder_memctrl::{standard_tables, LadderPolicy, MemCtrlConfig, MemoryController};
use ladder_reram::{AddressMap, Geometry, Instant, LineAddr};
use ladder_xbar::TableConfig;
use std::hint::black_box;

#[expect(
    clippy::expect_used,
    reason = "a controller with queued work always has a next wake"
)]
fn bench_controller(c: &mut Criterion) {
    let ladder_table = standard_tables(&TableConfig::ladder_default()).ladder;
    c.bench_function("controller_1k_mixed_ops_hybrid", |b| {
        b.iter(|| {
            let map = AddressMap::new(Geometry::default());
            let policy = Box::new(LadderPolicy::for_variant(
                LadderVariant::Hybrid,
                ladder_table.clone(),
                map.clone(),
            ));
            let mut mc = MemoryController::new(MemCtrlConfig::default(), map, policy);
            let mut now = Instant::ZERO;
            for i in 0..1000u64 {
                let addr = LineAddr::new(40_000 * 64 + (i * 17) % 8192);
                if i % 3 == 0 {
                    while !mc.enqueue_write(addr, [i as u8; 64], now) {
                        now = mc.next_wake(now).expect("progress");
                        mc.process(now);
                    }
                } else {
                    while mc.enqueue_read(addr, now).is_none() {
                        now = mc.next_wake(now).expect("progress");
                        mc.process(now);
                    }
                }
                mc.process(now);
            }
            black_box(mc.finish(now))
        })
    });
}

criterion_group!(benches, bench_controller);
criterion_main!(benches);
