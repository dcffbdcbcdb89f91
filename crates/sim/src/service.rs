//! Open-loop service mode: configuration, per-run statistics, and the
//! wiring that feeds a [`ServiceGen`] request stream into the event
//! kernel.
//!
//! A [`ServiceConfig`] describes the offered traffic — arrival process,
//! load, tenant count, key skew — and rides on
//! [`SimConfig`](crate::config::SimConfig) via its
//! [`service`](crate::config::SimConfigBuilder::service) builder method.
//! When present, the kernel pumps timestamped `RequestArrival` events
//! from the arrival process instead of driving closed-loop cores:
//! requests queue at the controller even while every bank is busy, so
//! read latency is measured arrival→completion, the quantity a
//! tail-latency SLO is written against.

use crate::experiments::ExperimentConfig;
use ladder_reram::Geometry;
use ladder_trace::{Mergeable, TenantLatencies};
use ladder_workloads::service::{
    ArrivalProcess, BurstyArrivals, PoissonArrivals, ServiceGen, TenantMix,
};
use std::fmt;
use std::str::FromStr;

/// Which open-loop arrival process drives the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalKind {
    /// Independent exponential inter-arrivals at the offered load.
    Poisson,
    /// On/off bursts: 2× the offered rate inside bursts, silence between.
    Bursty,
}

impl ArrivalKind {
    /// Every kind, in sweep order.
    pub const ALL: [ArrivalKind; 2] = [ArrivalKind::Poisson, ArrivalKind::Bursty];

    /// Display name (also the `--arrival` spelling).
    pub fn name(self) -> &'static str {
        match self {
            ArrivalKind::Poisson => "poisson",
            ArrivalKind::Bursty => "bursty",
        }
    }
}

impl fmt::Display for ArrivalKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for ArrivalKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "poisson" => Ok(ArrivalKind::Poisson),
            "bursty" => Ok(ArrivalKind::Bursty),
            other => Err(format!(
                "unknown arrival process `{other}` (poisson|bursty)"
            )),
        }
    }
}

/// Offered-traffic description of one open-loop service run.
///
/// Construct via [`ServiceConfig::builder`]; a private unit field makes
/// the compiler reject struct literals and `..base` updates outside this
/// module, so new knobs can ride along without breaking callers (same
/// contract as `SimConfig`):
///
/// ```compile_fail
/// use ladder_sim::{ArrivalKind, ServiceConfig};
///
/// let cfg = ServiceConfig {
///     arrival: ArrivalKind::Poisson,
///     load: 4.0,
///     tenants: 3,
///     zipf_theta: 0.99,
///     read_fraction: 0.9,
///     requests: 50_000,
/// };
/// ```
///
/// ```compile_fail,E0451
/// use ladder_sim::ServiceConfig;
///
/// let base = ServiceConfig::builder().build();
/// let cfg = ServiceConfig { load: 8.0, ..base };
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[expect(
    clippy::manual_non_exhaustive,
    reason = "`#[non_exhaustive]` binds only other crates; the private field also rejects literals in ladder-sim's other modules"
)]
pub struct ServiceConfig {
    /// Arrival process shape.
    pub arrival: ArrivalKind,
    /// Offered load, requests per microsecond (per shard on a sharded
    /// topology — each channel serves its own stream).
    pub load: f64,
    /// Number of weighted tenants in the mix.
    pub tenants: usize,
    /// Zipfian key skew in `(0, 1)`, or `0` for uniform keys.
    pub zipf_theta: f64,
    /// Fraction of requests that are reads.
    pub read_fraction: f64,
    /// Requests per run (per shard when sharded).
    pub requests: u64,
    /// Keeps construction in this module (see the type docs).
    _seal: (),
}

impl ServiceConfig {
    /// Starts a builder with the default traffic shape: Poisson arrivals,
    /// 4 req/µs, 3 tenants, Zipf 0.99, 90 % reads, 50 000 requests.
    pub fn builder() -> ServiceConfigBuilder {
        ServiceConfigBuilder {
            inner: ServiceConfig {
                arrival: ArrivalKind::Poisson,
                load: 4.0,
                tenants: 3,
                zipf_theta: 0.99,
                read_fraction: 0.9,
                requests: 50_000,
                _seal: (),
            },
        }
    }
}

/// Consuming builder for [`ServiceConfig`].
#[derive(Debug, Clone)]
pub struct ServiceConfigBuilder {
    inner: ServiceConfig,
}

impl ServiceConfigBuilder {
    /// Sets the arrival process.
    pub fn arrival(mut self, kind: ArrivalKind) -> Self {
        self.inner.arrival = kind;
        self
    }

    /// Sets the offered load in requests per microsecond.
    pub fn load(mut self, requests_per_us: f64) -> Self {
        self.inner.load = requests_per_us;
        self
    }

    /// Sets the tenant count.
    pub fn tenants(mut self, n: usize) -> Self {
        self.inner.tenants = n;
        self
    }

    /// Sets the Zipfian key skew (`0` selects uniform keys).
    pub fn zipf_theta(mut self, theta: f64) -> Self {
        self.inner.zipf_theta = theta;
        self
    }

    /// Sets the read fraction.
    pub fn read_fraction(mut self, f: f64) -> Self {
        self.inner.read_fraction = f;
        self
    }

    /// Sets the request count.
    pub fn requests(mut self, n: u64) -> Self {
        self.inner.requests = n;
        self
    }

    /// Finalizes the config.
    pub fn build(self) -> ServiceConfig {
        self.inner
    }
}

/// Statistics of one service-mode run — folded across shards through
/// [`Mergeable`] like every other aggregate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Per-tenant read-latency groups and write counters.
    pub tenants: TenantLatencies,
    /// Requests that arrived (dispatched `RequestArrival` events).
    pub arrivals: u64,
    /// Reads completed (arrival→completion latency recorded).
    pub reads_completed: u64,
    /// Writes accepted into the controller.
    pub writes_accepted: u64,
    /// Arrivals that found the controller saturated and left requests
    /// queued kernel-side — the open-loop back-pressure signal.
    pub deferred: u64,
}

#[deny(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
impl Mergeable for ServiceStats {
    fn merge_from(&mut self, other: &Self) {
        let ServiceStats {
            tenants,
            arrivals,
            reads_completed,
            writes_accepted,
            deferred,
        } = other;
        self.tenants.merge_from(tenants);
        self.arrivals.merge_from(arrivals);
        self.reads_completed.merge_from(reads_completed);
        self.writes_accepted.merge_from(writes_accepted);
        self.deferred.merge_from(deferred);
    }
}

/// Mixing constant of the experiment seed schedule (same schedule the
/// closed-loop per-core streams use).
const SEED_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// Shard-salt constant (matches the closed-loop shard salting).
const SHARD_SALT: u64 = 0x517c_c1b7_2722_0a95;

/// Service streams occupy their own lane of the seed schedule so a
/// service run never replays a core stream's draws.
const SERVICE_LANE: u64 = 0xA5;

/// The page window `(first page, page count)` a service run over
/// `geometry` partitions among its tenants: every page above the
/// reserved low-page region (the first sixteenth), like the closed-loop
/// windows. A run needs at least one page per tenant.
pub fn tenant_window(geometry: &Geometry) -> (u64, u64) {
    let pages = geometry.pages() as u64;
    let base = pages / 16;
    (base, pages - base)
}

/// Builds the shard-salted request stream for one kernel: the standard
/// tenant mix over the geometry's workload window ([`tenant_window`]),
/// driven by the configured arrival process.
pub(crate) fn feed_for(
    scfg: &ServiceConfig,
    ecfg: &ExperimentConfig,
    geometry: &Geometry,
    shard: Option<u32>,
) -> ServiceGen {
    let mut seed = ecfg.seed.wrapping_mul(SEED_MIX).wrapping_add(SERVICE_LANE);
    if let Some(s) = shard {
        seed = seed.wrapping_add((s as u64 + 1).wrapping_mul(SHARD_SALT));
    }
    let (base, span) = tenant_window(geometry);
    let mix = TenantMix::standard(
        scfg.tenants,
        base,
        span,
        scfg.zipf_theta,
        scfg.read_fraction,
    );
    let arrivals: Box<dyn ArrivalProcess> = match scfg.arrival {
        ArrivalKind::Poisson => Box::new(PoissonArrivals::with_load(scfg.load)),
        ArrivalKind::Bursty => Box::new(BurstyArrivals::with_load(scfg.load)),
    };
    ServiceGen::new(arrivals, mix, seed, scfg.requests)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ladder_trace::fold;

    #[test]
    fn arrival_kind_round_trips_and_rejects_garbage() {
        for k in ArrivalKind::ALL {
            assert_eq!(k.name().parse::<ArrivalKind>().unwrap(), k);
            assert_eq!(format!("{k}"), k.name());
        }
        assert!("uniform".parse::<ArrivalKind>().is_err());
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let d = ServiceConfig::builder().build();
        assert_eq!(d.arrival, ArrivalKind::Poisson);
        assert_eq!(d.tenants, 3);
        assert_eq!(d.requests, 50_000);
        let c = ServiceConfig::builder()
            .arrival(ArrivalKind::Bursty)
            .load(8.0)
            .tenants(5)
            .zipf_theta(0.0)
            .read_fraction(0.5)
            .requests(1_234)
            .build();
        assert_eq!(c.arrival, ArrivalKind::Bursty);
        assert_eq!(c.load, 8.0);
        assert_eq!(c.tenants, 5);
        assert_eq!(c.zipf_theta, 0.0);
        assert_eq!(c.read_fraction, 0.5);
        assert_eq!(c.requests, 1_234);
    }

    #[test]
    fn service_stats_fold_adds_counters() {
        let mut a = ServiceStats {
            arrivals: 10,
            reads_completed: 8,
            ..ServiceStats::default()
        };
        a.tenants.ensure("t0", 100, 1);
        let mut b = ServiceStats {
            arrivals: 5,
            writes_accepted: 2,
            deferred: 1,
            ..ServiceStats::default()
        };
        b.tenants.ensure("t0", 100, 1);
        let total: ServiceStats = fold([a, b]);
        assert_eq!(total.arrivals, 15);
        assert_eq!(total.reads_completed, 8);
        assert_eq!(total.writes_accepted, 2);
        assert_eq!(total.deferred, 1);
        assert!(total.tenants.group("t0").is_some());
    }

    #[test]
    fn feeds_differ_per_shard_and_per_lane() {
        let ecfg = ExperimentConfig::default();
        let g = Geometry::default();
        let cfg = ServiceConfig::builder().requests(50).build();
        let mut mono = feed_for(&cfg, &ecfg, &g, None);
        let mut s0 = feed_for(&cfg, &ecfg, &g, Some(0));
        let mut s1 = feed_for(&cfg, &ecfg, &g, Some(1));
        let a: Vec<_> = std::iter::from_fn(|| mono.next_request()).collect();
        let b: Vec<_> = std::iter::from_fn(|| s0.next_request()).collect();
        let c: Vec<_> = std::iter::from_fn(|| s1.next_request()).collect();
        assert_eq!(a.len(), 50);
        assert_ne!(a, b);
        assert_ne!(b, c);
    }
}
