//! Per-tenant latency groups and the SLO report open-loop service runs
//! produce.
//!
//! The service model tags every request with its tenant; the kernel
//! records each read's arrival→completion latency into that tenant's
//! group here. Groups fold through [`Mergeable`] (keyed by tenant name,
//! in [`BTreeMap`] order), so a sharded run's per-tenant tails merge
//! bit-reproducibly at any `--jobs`, exactly like every other statistic.
//!
//! [`SloReport`] is the presentation layer: per-tenant p50/p99/p999 read
//! latency, achieved throughput, and Jain's fairness index over
//! weight-normalized throughput.

use crate::histogram::LatencyHistogram;
use crate::metrics::Mergeable;
use ladder_reram::Picos;
use std::collections::BTreeMap;

/// Tenant QoS class codes, as carried through the trace layer (which
/// cannot depend on the workload crate's `QosClass` enum): `1` premium,
/// `2` standard, `3` best-effort, `0` unset.
pub fn qos_name(code: u64) -> &'static str {
    match code {
        1 => "premium",
        2 => "standard",
        3 => "best-effort",
        _ => "unset",
    }
}

/// One tenant's latency group: identity metadata plus the read-latency
/// histogram and write counter the kernel maintains.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantGroup {
    /// The tenant's mix weight in parts-per-million (identity metadata:
    /// merges by `max`, so folding shards that agree is a no-op).
    pub weight_ppm: u64,
    /// QoS class code (see [`qos_name`]; identity metadata, merges by
    /// `max`).
    pub qos_code: u64,
    /// Arrival→completion latency of every completed read.
    pub reads: LatencyHistogram,
    /// Writes accepted into the controller on this tenant's behalf.
    pub writes: u64,
}

impl Mergeable for TenantGroup {
    fn merge_from(&mut self, other: &Self) {
        let TenantGroup {
            weight_ppm,
            qos_code,
            reads,
            writes,
        } = other;
        // Identity fields agree across shards of one run; `max` keeps the
        // merge associative/commutative with the all-zero identity.
        self.weight_ppm = self.weight_ppm.max(*weight_ppm);
        self.qos_code = self.qos_code.max(*qos_code);
        self.reads.merge_from(reads);
        self.writes.merge_from(writes);
    }
}

/// Name-keyed per-tenant latency groups — the mergeable aggregate a
/// service-mode kernel maintains.
///
/// # Examples
///
/// ```
/// use ladder_reram::Picos;
/// use ladder_trace::{Mergeable, TenantLatencies};
///
/// let mut a = TenantLatencies::default();
/// a.ensure("t0", 500_000, 1);
/// a.record_read("t0", Picos::from_ns(40.0));
/// let mut b = TenantLatencies::default();
/// b.ensure("t0", 500_000, 1);
/// b.record_read("t0", Picos::from_ns(900.0));
/// a.merge_from(&b);
/// assert_eq!(a.group("t0").unwrap().reads.count(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantLatencies {
    groups: BTreeMap<String, TenantGroup>,
}

impl TenantLatencies {
    /// Creates (or re-stamps) a tenant's group with its identity
    /// metadata. Call once per tenant before recording, so every tenant
    /// appears in the report even when it completed no reads.
    pub fn ensure(&mut self, tenant: &str, weight_ppm: u64, qos_code: u64) {
        let g = self.groups.entry(tenant.to_string()).or_default();
        g.weight_ppm = g.weight_ppm.max(weight_ppm);
        g.qos_code = g.qos_code.max(qos_code);
    }

    /// Records one completed read's arrival→completion latency.
    pub fn record_read(&mut self, tenant: &str, latency: Picos) {
        self.update(tenant, |g| g.reads.record(latency));
    }

    /// Counts one accepted write.
    pub fn note_write(&mut self, tenant: &str) {
        self.update(tenant, |g| g.writes += 1);
    }

    /// Folds `group` into `tenant`'s group (creating it when absent).
    pub fn merge_group(&mut self, tenant: &str, group: &TenantGroup) {
        self.update(tenant, |g| g.merge_from(group));
    }

    /// Applies `f` to `tenant`'s group, creating it when absent. A
    /// registered tenant costs a lookup, never a key allocation.
    fn update(&mut self, tenant: &str, f: impl FnOnce(&mut TenantGroup)) {
        match self.groups.get_mut(tenant) {
            Some(g) => f(g),
            None => f(self.groups.entry(tenant.to_string()).or_default()),
        }
    }

    /// One tenant's group, when present.
    pub fn group(&self, tenant: &str) -> Option<&TenantGroup> {
        self.groups.get(tenant)
    }

    /// Iterates groups in tenant-name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &TenantGroup)> {
        self.groups.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Whether no tenant was ever registered or recorded.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Reads completed across every tenant.
    pub fn total_reads(&self) -> u64 {
        self.groups.values().map(|g| g.reads.count()).sum()
    }

    /// Writes accepted across every tenant.
    pub fn total_writes(&self) -> u64 {
        self.groups.values().map(|g| g.writes).sum()
    }
}

impl Mergeable for TenantLatencies {
    fn merge_from(&mut self, other: &Self) {
        let TenantLatencies { groups } = other;
        for (k, g) in groups {
            self.merge_group(k, g);
        }
    }
}

/// One tenant's row of an [`SloReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct SloRow {
    /// Tenant name.
    pub tenant: String,
    /// QoS class name (see [`qos_name`]).
    pub qos: &'static str,
    /// Reads completed.
    pub reads: u64,
    /// Writes accepted.
    pub writes: u64,
    /// Median read latency.
    pub p50: Picos,
    /// 99th-percentile read latency.
    pub p99: Picos,
    /// 99.9th-percentile read latency.
    pub p999: Picos,
    /// Mean read latency.
    pub mean: Picos,
    /// Worst read latency.
    pub max: Picos,
    /// Achieved request throughput, requests per microsecond.
    pub throughput: f64,
}

/// The per-tenant tail-latency report of one open-loop service run.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// Per-tenant rows, in tenant-name order.
    pub rows: Vec<SloRow>,
    /// Achieved request throughput across all tenants, requests per
    /// microsecond (reads completed + writes accepted over the run's
    /// simulated span) — the saturation throughput when offered load
    /// exceeds capacity.
    pub throughput: f64,
    /// Jain's fairness index over weight-normalized per-tenant
    /// throughput: `(Σx)² / (n·Σx²)`, `x_i = requests_i / weight_i`.
    /// `1.0` means perfectly weight-proportional service.
    pub fairness: f64,
}

impl SloReport {
    /// Builds the report from folded per-tenant groups and the run's
    /// simulated span.
    pub fn build(tenants: &TenantLatencies, elapsed: Picos) -> Self {
        let us = (elapsed.as_ps() as f64 / 1e6).max(1e-12);
        let rows: Vec<SloRow> = tenants
            .iter()
            .map(|(name, g)| SloRow {
                tenant: name.to_string(),
                qos: qos_name(g.qos_code),
                reads: g.reads.count(),
                writes: g.writes,
                p50: g.reads.percentile(0.50),
                p99: g.reads.percentile(0.99),
                p999: g.reads.percentile(0.999),
                mean: g.reads.mean(),
                max: g.reads.max(),
                throughput: (g.reads.count() + g.writes) as f64 / us,
            })
            .collect();
        let throughput = (tenants.total_reads() + tenants.total_writes()) as f64 / us;
        let normalized: Vec<f64> = tenants
            .iter()
            .filter(|(_, g)| g.weight_ppm > 0)
            .map(|(_, g)| (g.reads.count() + g.writes) as f64 / g.weight_ppm as f64)
            .collect();
        let fairness = jain_index(&normalized);
        Self {
            rows,
            throughput,
            fairness,
        }
    }

    /// Renders the report as an aligned text table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "    {:<8} {:<12} {:>7} {:>7} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "tenant", "qos", "reads", "writes", "p50/ns", "p99/ns", "p999/ns", "mean/ns", "req/us"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "    {:<8} {:<12} {:>7} {:>7} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.3}",
                r.tenant,
                r.qos,
                r.reads,
                r.writes,
                r.p50.as_ns(),
                r.p99.as_ns(),
                r.p999.as_ns(),
                r.mean.as_ns(),
                r.throughput
            );
        }
        let _ = writeln!(
            out,
            "    total {:.3} req/us, fairness {:.4}",
            self.throughput, self.fairness
        );
        out
    }
}

/// Jain's fairness index `(Σx)² / (n·Σx²)` — `1.0` when all shares are
/// equal, `1/n` when one tenant takes everything.
fn jain_index(shares: &[f64]) -> f64 {
    if shares.is_empty() {
        return 1.0;
    }
    let sum: f64 = shares.iter().sum();
    let sum_sq: f64 = shares.iter().map(|x| x * x).sum();
    if sum_sq <= 0.0 {
        return 1.0;
    }
    (sum * sum) / (shares.len() as f64 * sum_sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TenantLatencies {
        let mut t = TenantLatencies::default();
        t.ensure("t0", 545_454, 1);
        t.ensure("t1", 272_727, 2);
        for i in 0..100u64 {
            t.record_read("t0", Picos::from_ns(30.0 + i as f64));
            if i % 2 == 0 {
                t.record_read("t1", Picos::from_ns(40.0 + i as f64));
            }
        }
        t.record_read("t0", Picos::from_ns(900.0));
        t.note_write("t0");
        t.note_write("t1");
        t
    }

    #[test]
    fn groups_fold_like_concatenation() {
        let mut half_a = TenantLatencies::default();
        let mut half_b = TenantLatencies::default();
        let mut whole = TenantLatencies::default();
        half_a.ensure("t0", 10, 1);
        half_b.ensure("t0", 10, 1);
        whole.ensure("t0", 10, 1);
        for i in 0..200u64 {
            let lat = Picos::from_ps(1000 + i * 7919);
            whole.record_read("t0", lat);
            if i % 2 == 0 {
                half_a.record_read("t0", lat);
            } else {
                half_b.record_read("t0", lat);
            }
        }
        half_a.merge_from(&half_b);
        assert_eq!(half_a, whole);
    }

    #[test]
    fn ensure_registers_idle_tenants() {
        let mut t = TenantLatencies::default();
        t.ensure("idle", 100, 3);
        let report = SloReport::build(&t, Picos::from_ns(1000.0));
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.rows[0].reads, 0);
        assert_eq!(report.rows[0].qos, "best-effort");
    }

    #[test]
    fn report_orders_rows_and_computes_tails() {
        let t = sample();
        let report = SloReport::build(&t, Picos::from_ps(101 * 1_000_000));
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.rows[0].tenant, "t0");
        assert_eq!(report.rows[0].qos, "premium");
        assert_eq!(report.rows[1].qos, "standard");
        let r0 = &report.rows[0];
        assert_eq!(r0.reads, 101);
        assert_eq!(r0.writes, 1);
        assert!(r0.p50 <= r0.p99 && r0.p99 <= r0.p999);
        assert!(r0.p999.as_ns() >= 500.0, "tail must see the 900 ns read");
        // 153 requests over 101 us.
        assert!((report.throughput - 153.0 / 101.0).abs() < 1e-9);
    }

    #[test]
    fn fairness_is_one_when_weight_proportional_and_low_when_starved() {
        let mut fair = TenantLatencies::default();
        fair.ensure("a", 500_000, 1);
        fair.ensure("b", 250_000, 2);
        for _ in 0..100 {
            fair.record_read("a", Picos::from_ns(30.0));
        }
        for _ in 0..50 {
            fair.record_read("b", Picos::from_ns(30.0));
        }
        let f = SloReport::build(&fair, Picos::from_ns(1000.0)).fairness;
        assert!((f - 1.0).abs() < 1e-9, "proportional service: {f}");

        let mut starved = TenantLatencies::default();
        starved.ensure("a", 500_000, 1);
        starved.ensure("b", 500_000, 2);
        for _ in 0..100 {
            starved.record_read("a", Picos::from_ns(30.0));
        }
        let s = SloReport::build(&starved, Picos::from_ns(1000.0)).fairness;
        assert!((s - 0.5).abs() < 1e-9, "one of two starved: {s}");
    }

    #[test]
    fn render_lists_every_tenant() {
        let report = SloReport::build(&sample(), Picos::from_ps(1_000_000));
        let text = report.render();
        assert!(text.contains("t0"), "{text}");
        assert!(text.contains("t1"), "{text}");
        assert!(text.contains("fairness"), "{text}");
        assert!(text.contains("p999/ns"), "{text}");
    }

    #[test]
    fn qos_names_cover_codes() {
        assert_eq!(qos_name(0), "unset");
        assert_eq!(qos_name(1), "premium");
        assert_eq!(qos_name(2), "standard");
        assert_eq!(qos_name(3), "best-effort");
        assert_eq!(qos_name(99), "unset");
    }
}
