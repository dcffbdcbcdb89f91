//! The layered open-loop service model: arrival processes, key
//! popularity, and weighted multi-tenant request streams.
//!
//! The closed-loop generators ([`crate::WorkloadGen`]) model SPEC-like
//! LLC-miss streams: a core computes for a gap, then issues its next miss,
//! so the request rate falls whenever the memory system backs up. A ReRAM
//! module serving a key-value cache sees the opposite regime — open-loop,
//! Zipf-skewed, multi-tenant traffic that keeps arriving at wall-clock
//! rate no matter how busy the banks are. This module decomposes request
//! generation into the three layers that regime needs:
//!
//! 1. [`ArrivalProcess`] — *when* requests happen: the closed-loop
//!    compute-gap pacing the legacy generator uses, or open-loop Poisson /
//!    bursty on-off arrivals in picoseconds.
//! 2. [`KeyPopularity`] — *which key* a request touches: uniform or
//!    Zipfian (YCSB-style, Gray et al.), mapped onto a tenant's page
//!    window and then through the module's `AddressMap` like every other
//!    access.
//! 3. [`TenantMix`] — *who* is asking: weighted per-tenant streams, each
//!    carrying a [`QosClass`], so per-tenant tail latency and fairness are
//!    measurable.
//!
//! [`ServiceGen`] composes the three into a deterministic stream of
//! timestamped [`ServiceRequest`]s from a single seeded [`SplitMix64`].

use crate::data::{generate_line, DataSpec, PagePattern};
use crate::rng::SplitMix64;
use ladder_cpu::TraceOp;
use ladder_reram::{LineAddr, LINES_PER_WLG};

/// How the next request is paced relative to the previous one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pacing {
    /// Closed-loop: the issuing core computes this many instructions
    /// first (back-pressure applies — a stalled core stops the stream).
    Compute(u64),
    /// Open-loop: the request arrives this many picoseconds after the
    /// previous arrival, regardless of service-side back-pressure.
    Delay(u64),
}

/// A deterministic arrival process: the *when* layer of the service
/// model. Implementations draw exclusively from the caller's RNG so the
/// composed stream stays bit-reproducible. They are `Send` so a composed
/// stream can be generated on another thread than the one consuming it.
pub trait ArrivalProcess: std::fmt::Debug + Send {
    /// Draws the pacing of the next request.
    fn next_pacing(&mut self, rng: &mut SplitMix64) -> Pacing;

    /// Whether this process yields open-loop [`Pacing::Delay`] values.
    fn is_open_loop(&self) -> bool;

    /// Display name.
    fn name(&self) -> &'static str;
}

/// The closed-loop compute-gap process: exponential instruction gaps with
/// a fixed mean — exactly the pacing the legacy [`crate::WorkloadGen`]
/// always used (it is now implemented in terms of this type, preserving
/// its RNG draw order bit-for-bit).
#[derive(Debug, Clone, Copy)]
pub struct ClosedLoop {
    /// Mean compute gap in instructions between memory events.
    pub mean_gap_instructions: f64,
}

impl ClosedLoop {
    /// A closed-loop process with the given mean instruction gap.
    pub fn new(mean_gap_instructions: f64) -> Self {
        Self {
            mean_gap_instructions,
        }
    }
}

impl ArrivalProcess for ClosedLoop {
    fn next_pacing(&mut self, rng: &mut SplitMix64) -> Pacing {
        Pacing::Compute(rng.next_gap(self.mean_gap_instructions))
    }

    fn is_open_loop(&self) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "closed-loop"
    }
}

/// Open-loop Poisson arrivals: independent exponential inter-arrival
/// times with a fixed offered load.
#[derive(Debug, Clone, Copy)]
pub struct PoissonArrivals {
    /// Mean inter-arrival time in picoseconds.
    pub mean_gap_ps: f64,
}

impl PoissonArrivals {
    /// A Poisson process with mean inter-arrival `mean_gap_ps`.
    pub fn new(mean_gap_ps: f64) -> Self {
        Self { mean_gap_ps }
    }

    /// A Poisson process offering `load` requests per microsecond.
    pub fn with_load(load_requests_per_us: f64) -> Self {
        Self::new(1e6 / load_requests_per_us.max(1e-9))
    }
}

impl ArrivalProcess for PoissonArrivals {
    fn next_pacing(&mut self, rng: &mut SplitMix64) -> Pacing {
        Pacing::Delay(rng.next_gap(self.mean_gap_ps))
    }

    fn is_open_loop(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "poisson"
    }
}

/// Open-loop bursty on/off arrivals: geometric-length bursts of fast
/// Poisson arrivals separated by long exponential silences. With the
/// default shape (burst rate 2× the offered load, off-gap sized to one
/// mean burst), the long-run rate matches [`PoissonArrivals::with_load`]
/// at the same load while the instantaneous rate alternates between 2×
/// and 0 — the regime where open-loop queueing hurts tails most.
#[derive(Debug, Clone, Copy)]
pub struct BurstyArrivals {
    /// Mean inter-arrival time inside a burst, picoseconds.
    pub on_gap_ps: f64,
    /// Mean silent gap separating bursts, picoseconds.
    pub off_gap_ps: f64,
    /// Mean number of requests per burst.
    pub burst_len: u64,
    /// Requests left in the current burst.
    remaining: u64,
}

impl BurstyArrivals {
    /// A bursty process offering `load` requests per microsecond long-run.
    pub fn with_load(load_requests_per_us: f64) -> Self {
        let base_gap = 1e6 / load_requests_per_us.max(1e-9);
        let burst_len = 32u64;
        Self {
            // Bursts run at twice the offered rate...
            on_gap_ps: base_gap / 2.0,
            // ...and the silence between bursts averages out the excess:
            // burst_len · on_gap of quiet per burst_len requests.
            off_gap_ps: burst_len as f64 * base_gap / 2.0,
            burst_len,
            remaining: 0,
        }
    }
}

impl ArrivalProcess for BurstyArrivals {
    fn next_pacing(&mut self, rng: &mut SplitMix64) -> Pacing {
        if self.remaining == 0 {
            // Start a new burst: uniform length with the configured mean,
            // preceded by the inter-burst silence.
            self.remaining = 1 + rng.next_below(2 * self.burst_len.max(1));
            let silence = rng.next_gap(self.off_gap_ps);
            let first = rng.next_gap(self.on_gap_ps);
            return Pacing::Delay(silence + first);
        }
        self.remaining -= 1;
        Pacing::Delay(rng.next_gap(self.on_gap_ps))
    }

    fn is_open_loop(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "bursty"
    }
}

/// A key-popularity distribution: the *which key* layer of the service
/// model. Keys are dense indices in `[0, keys)`; [`ServiceGen`] scatters
/// them over a tenant's page window before they reach the `AddressMap`.
/// `Send` for the same reason as [`ArrivalProcess`].
pub trait KeyPopularity: std::fmt::Debug + Send {
    /// Draws the next key index.
    fn next_key(&mut self, rng: &mut SplitMix64) -> u64;

    /// Size of the key space.
    fn keys(&self) -> u64;

    /// Display name.
    fn name(&self) -> &'static str;
}

/// Uniform key popularity: every key equally likely.
#[derive(Debug, Clone, Copy)]
pub struct UniformKeys {
    keys: u64,
}

impl UniformKeys {
    /// A uniform distribution over `keys` keys.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is zero.
    pub fn new(keys: u64) -> Self {
        assert!(keys > 0, "key space must be nonempty");
        Self { keys }
    }
}

impl KeyPopularity for UniformKeys {
    fn next_key(&mut self, rng: &mut SplitMix64) -> u64 {
        rng.next_below(self.keys)
    }

    fn keys(&self) -> u64 {
        self.keys
    }

    fn name(&self) -> &'static str {
        "uniform"
    }
}

/// Zipfian key popularity with skew `theta` (YCSB's generator, after
/// Gray et al., "Quickly Generating Billion-Record Synthetic Databases"):
/// key `k` is drawn with probability proportional to `1 / (k+1)^theta`.
/// The harmonic normalizer is precomputed once at construction, so draws
/// are O(1).
#[derive(Debug, Clone, Copy)]
pub struct ZipfianKeys {
    keys: u64,
    theta: f64,
    zetan: f64,
    alpha: f64,
    eta: f64,
    half_pow_theta: f64,
}

impl ZipfianKeys {
    /// A Zipfian distribution over `keys` keys with skew `theta`
    /// (`0 < theta < 1`; YCSB's default is `0.99`).
    ///
    /// # Panics
    ///
    /// Panics if `keys` is zero or `theta` is outside `(0, 1)`.
    pub fn new(keys: u64, theta: f64) -> Self {
        assert!(keys > 0, "key space must be nonempty");
        assert!(
            theta > 0.0 && theta < 1.0,
            "zipfian skew must be in (0, 1), got {theta}"
        );
        let zetan = Self::zeta(keys, theta);
        let zeta2 = Self::zeta(keys.min(2), theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = if keys < 2 {
            0.0
        } else {
            (1.0 - (2.0 / keys as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan)
        };
        Self {
            keys,
            theta,
            zetan,
            alpha,
            eta,
            half_pow_theta: 0.5f64.powf(theta),
        }
    }

    /// The generalized harmonic number `Σ_{i=1..n} 1 / i^theta`.
    fn zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// The skew parameter this distribution was built with.
    pub fn theta(&self) -> f64 {
        self.theta
    }
}

impl KeyPopularity for ZipfianKeys {
    fn next_key(&mut self, rng: &mut SplitMix64) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + self.half_pow_theta {
            return 1.min(self.keys - 1);
        }
        let k = (self.keys as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        k.min(self.keys - 1)
    }

    fn keys(&self) -> u64 {
        self.keys
    }

    fn name(&self) -> &'static str {
        "zipfian"
    }
}

/// A tenant's quality-of-service class, carried through to the per-tenant
/// SLO report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum QosClass {
    /// Latency-SLO tenant (interactive traffic).
    Premium,
    /// Throughput-oriented tenant.
    Standard,
    /// Scavenger-class tenant (batch traffic).
    BestEffort,
}

impl QosClass {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            QosClass::Premium => "premium",
            QosClass::Standard => "standard",
            QosClass::BestEffort => "best-effort",
        }
    }

    /// Stable small-integer code (used by the trace layer, which cannot
    /// depend on this crate).
    pub fn code(self) -> u64 {
        match self {
            QosClass::Premium => 1,
            QosClass::Standard => 2,
            QosClass::BestEffort => 3,
        }
    }
}

/// One weighted per-tenant request stream: who is asking, how often
/// relative to the mix, which keys, over which page window, and with what
/// data shape when writing.
#[derive(Debug)]
pub struct Tenant {
    /// Tenant label (the SLO report's row key).
    pub name: String,
    /// Relative arrival weight within the mix.
    pub weight: f64,
    /// Quality-of-service class.
    pub qos: QosClass,
    /// Fraction of the tenant's requests that are reads (GETs).
    pub read_fraction: f64,
    /// Key-popularity distribution over the tenant's key space.
    pub popularity: Box<dyn KeyPopularity>,
    /// First page of the tenant's window.
    pub page_base: u64,
    /// Pages in the tenant's window.
    pub page_count: u64,
    /// Shape of written values.
    pub data: DataSpec,
}

/// A weighted mix of tenants: the *who* layer of the service model.
#[derive(Debug)]
pub struct TenantMix {
    tenants: Vec<Tenant>,
    cumulative: Vec<f64>,
    total_weight: f64,
}

impl TenantMix {
    /// Builds a mix from explicit tenants.
    ///
    /// # Panics
    ///
    /// Panics if `tenants` is empty or any weight is non-positive.
    pub fn new(tenants: Vec<Tenant>) -> Self {
        assert!(
            !tenants.is_empty(),
            "a tenant mix needs at least one tenant"
        );
        let mut cumulative = Vec::with_capacity(tenants.len());
        let mut total_weight = 0.0;
        for t in &tenants {
            assert!(t.weight > 0.0, "tenant {} weight must be positive", t.name);
            total_weight += t.weight;
            cumulative.push(total_weight);
        }
        Self {
            tenants,
            cumulative,
            total_weight,
        }
    }

    /// The tenants, in index order.
    pub fn tenants(&self) -> &[Tenant] {
        &self.tenants
    }

    /// Draws a tenant index proportionally to the weights.
    pub fn pick(&self, rng: &mut SplitMix64) -> usize {
        let x = rng.next_f64() * self.total_weight;
        self.cumulative
            .iter()
            .position(|&c| x < c)
            .unwrap_or(self.tenants.len() - 1)
    }

    /// The standard n-tenant mix over the page window
    /// `[page_base, page_base + page_span)`: harmonic weights
    /// (tenant `i` weighted `1/(i+1)`), QoS classes rotating
    /// premium → standard → best-effort, the window partitioned evenly,
    /// and Zipfian keys with skew `zipf_theta` (uniform when `0`).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or the window cannot give every tenant at
    /// least one page.
    pub fn standard(
        n: usize,
        page_base: u64,
        page_span: u64,
        zipf_theta: f64,
        read_fraction: f64,
    ) -> Self {
        assert!(
            n > 0 && page_span >= n as u64,
            "window of {page_span} pages cannot host {n} tenants"
        );
        let per_tenant = page_span / n as u64;
        const QOS_ROTATION: [QosClass; 3] =
            [QosClass::Premium, QosClass::Standard, QosClass::BestEffort];
        let tenants = (0..n)
            .map(|i| {
                // Bound the key space so the Zipfian normalizer stays
                // cheap to precompute and the hot set is meaningful.
                let keys = per_tenant.clamp(1, 16_384);
                let popularity: Box<dyn KeyPopularity> = if zipf_theta > 0.0 {
                    Box::new(ZipfianKeys::new(keys, zipf_theta))
                } else {
                    Box::new(UniformKeys::new(keys))
                };
                Tenant {
                    name: format!("t{i}"),
                    weight: 1.0 / (i as f64 + 1.0),
                    qos: QOS_ROTATION[i % QOS_ROTATION.len()],
                    read_fraction,
                    popularity,
                    page_base: page_base + i as u64 * per_tenant,
                    page_count: per_tenant,
                    data: DataSpec {
                        bit_density: 0.35,
                        clustering: 0.55,
                        compressible_fraction: 0.3,
                    },
                }
            })
            .collect();
        Self::new(tenants)
    }
}

/// One timestamped open-loop request.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceRequest {
    /// Arrival time, picoseconds of simulated time.
    pub at_ps: u64,
    /// Index of the issuing tenant within the mix.
    pub tenant: usize,
    /// The memory operation (read or write with generated contents).
    pub op: TraceOp,
}

/// The composed open-loop request stream:
/// arrival process × tenant mix × key popularity, all drawn from one
/// seeded [`SplitMix64`] so the stream is bit-reproducible.
#[derive(Debug)]
pub struct ServiceGen {
    arrivals: Box<dyn ArrivalProcess>,
    mix: TenantMix,
    rng: SplitMix64,
    seed: u64,
    clock_ps: u64,
    requests_left: u64,
}

impl ServiceGen {
    /// Composes an open-loop stream of `requests` requests.
    ///
    /// # Panics
    ///
    /// Panics if `arrivals` is a closed-loop process — closed-loop pacing
    /// is instruction-relative and belongs to a core-driven generator.
    pub fn new(
        arrivals: Box<dyn ArrivalProcess>,
        mix: TenantMix,
        seed: u64,
        requests: u64,
    ) -> Self {
        assert!(
            arrivals.is_open_loop(),
            "{} is closed-loop; ServiceGen needs an open-loop arrival process",
            arrivals.name()
        );
        Self {
            arrivals,
            mix,
            rng: SplitMix64::new(seed),
            seed,
            clock_ps: 0,
            requests_left: requests,
        }
    }

    /// The tenant mix (for seeding per-tenant reports).
    pub fn mix(&self) -> &TenantMix {
        &self.mix
    }

    /// Scatters a dense key index over a tenant's page window: a
    /// SplitMix64-style hash keyed by the tenant index, so hot keys land
    /// on unrelated pages (and therefore unrelated banks after address
    /// interleaving) instead of clustering at the window base.
    fn key_page(&self, tenant: usize, key: u64) -> u64 {
        let t = &self.mix.tenants()[tenant];
        let mut h = SplitMix64::new(
            self.seed
                .wrapping_add((tenant as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .wrapping_add(key.wrapping_mul(0x517c_c1b7_2722_0a95)),
        );
        t.page_base + h.next_below(t.page_count)
    }

    /// Draws the next request, or `None` when the stream is exhausted.
    ///
    /// Draw order per request (fixed — the stream's digest depends on
    /// it): arrival gap, tenant pick, key, line slot, read/write
    /// decision, then write data when writing.
    pub fn next_request(&mut self) -> Option<ServiceRequest> {
        if self.requests_left == 0 {
            return None;
        }
        self.requests_left -= 1;
        match self.arrivals.next_pacing(&mut self.rng) {
            Pacing::Delay(gap) => self.clock_ps += gap,
            // Unreachable: the constructor rejects closed-loop processes.
            Pacing::Compute(_) => return None,
        }
        let tenant = self.mix.pick(&mut self.rng);
        let key = self.mix.tenants[tenant].popularity.next_key(&mut self.rng);
        let page = self.key_page(tenant, key);
        let slot = self.rng.next_below(LINES_PER_WLG as u64);
        let addr = LineAddr::new(page * LINES_PER_WLG as u64 + slot);
        let t = &self.mix.tenants[tenant];
        let op = if self.rng.next_f64() < t.read_fraction {
            // Open-loop requests have no issuing core to stall, so the
            // criticality flag is irrelevant; mark them non-critical.
            TraceOp::Read {
                addr,
                critical: false,
            }
        } else {
            let pattern = PagePattern::for_page(page, self.seed);
            let data = generate_line(&t.data, &pattern, &mut self.rng);
            TraceOp::Write {
                addr,
                data: Box::new(data),
            }
        };
        Some(ServiceRequest {
            at_ps: self.clock_ps,
            tenant,
            op,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(g: &mut ServiceGen) -> Vec<ServiceRequest> {
        let mut out = Vec::new();
        while let Some(r) = g.next_request() {
            out.push(r);
        }
        out
    }

    fn mix3() -> TenantMix {
        TenantMix::standard(3, 1_000, 30_000, 0.99, 0.9)
    }

    #[test]
    fn closed_loop_matches_raw_gap_draws() {
        // The trait implementation must consume the RNG exactly like the
        // legacy inline draw (golden digests depend on it).
        let mut a = SplitMix64::new(99);
        let mut b = SplitMix64::new(99);
        let mut p = ClosedLoop::new(40.0);
        for _ in 0..100 {
            assert_eq!(p.next_pacing(&mut a), Pacing::Compute(b.next_gap(40.0)));
        }
        assert!(!p.is_open_loop());
    }

    #[test]
    fn poisson_hits_its_offered_load() {
        let mut rng = SplitMix64::new(7);
        let mut p = PoissonArrivals::with_load(4.0); // 4 req/us => 250 000 ps mean
        let n = 20_000;
        let total: u64 = (0..n)
            .map(|_| match p.next_pacing(&mut rng) {
                Pacing::Delay(d) => d,
                Pacing::Compute(_) => 0,
            })
            .sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 250_000.0).abs() < 10_000.0, "mean gap {mean}");
        assert!(p.is_open_loop());
    }

    #[test]
    fn bursty_long_run_rate_tracks_load_but_gaps_are_bimodal() {
        let mut rng = SplitMix64::new(11);
        let mut p = BurstyArrivals::with_load(4.0);
        let n = 50_000;
        let gaps: Vec<u64> = (0..n)
            .map(|_| match p.next_pacing(&mut rng) {
                Pacing::Delay(d) => d,
                Pacing::Compute(_) => 0,
            })
            .collect();
        let mean = gaps.iter().sum::<u64>() as f64 / n as f64;
        // Long-run mean gap matches the Poisson process at the same load
        // (within sampling noise).
        assert!((mean - 250_000.0).abs() < 25_000.0, "mean gap {mean}");
        // But the distribution is bimodal: most gaps are burst-fast.
        let fast = gaps.iter().filter(|&&g| g < 250_000).count();
        assert!(fast as f64 > 0.7 * n as f64, "only {fast}/{n} burst gaps");
    }

    #[test]
    fn zipfian_is_skewed_and_uniform_is_not() {
        let mut rng = SplitMix64::new(3);
        let mut zipf = ZipfianKeys::new(1000, 0.99);
        let mut uni = UniformKeys::new(1000);
        let n = 40_000;
        let mut zipf_hot = 0u64;
        let mut uni_hot = 0u64;
        for _ in 0..n {
            if zipf.next_key(&mut rng) < 10 {
                zipf_hot += 1;
            }
            if uni.next_key(&mut rng) < 10 {
                uni_hot += 1;
            }
        }
        // The 1 % hottest keys take a large share under Zipf 0.99 …
        assert!(zipf_hot as f64 / n as f64 > 0.25, "zipf hot {zipf_hot}");
        // … and ~1 % under uniform.
        assert!(
            (uni_hot as f64) / (n as f64) < 0.03,
            "uniform hot {uni_hot}"
        );
        for _ in 0..1000 {
            assert!(zipf.next_key(&mut rng) < 1000);
        }
    }

    #[test]
    fn tenant_mix_picks_follow_weights() {
        let mix = mix3();
        let mut rng = SplitMix64::new(5);
        let mut counts = [0u64; 3];
        let n = 30_000;
        for _ in 0..n {
            counts[mix.pick(&mut rng)] += 1;
        }
        // Harmonic weights 1, 1/2, 1/3 => shares 6/11, 3/11, 2/11.
        let share0 = counts[0] as f64 / n as f64;
        let share2 = counts[2] as f64 / n as f64;
        assert!((share0 - 6.0 / 11.0).abs() < 0.02, "t0 share {share0}");
        assert!((share2 - 2.0 / 11.0).abs() < 0.02, "t2 share {share2}");
        // QoS classes rotate.
        assert_eq!(mix.tenants()[0].qos, QosClass::Premium);
        assert_eq!(mix.tenants()[1].qos, QosClass::Standard);
        assert_eq!(mix.tenants()[2].qos, QosClass::BestEffort);
    }

    #[test]
    fn service_stream_is_deterministic_and_monotone() {
        let make = || ServiceGen::new(Box::new(PoissonArrivals::with_load(4.0)), mix3(), 42, 2_000);
        let a = drain(&mut make());
        let b = drain(&mut make());
        assert_eq!(a.len(), 2_000);
        assert_eq!(a, b);
        // Arrival timestamps never go backwards.
        for w in a.windows(2) {
            assert!(w[0].at_ps <= w[1].at_ps);
        }
    }

    #[test]
    fn requests_stay_in_their_tenants_window() {
        let mut g = ServiceGen::new(Box::new(PoissonArrivals::with_load(8.0)), mix3(), 17, 3_000);
        for r in drain(&mut g) {
            let page = match &r.op {
                TraceOp::Read { addr, .. } => addr.page(),
                TraceOp::Write { addr, .. } => addr.page(),
            };
            let t = r.tenant;
            let base = 1_000 + t as u64 * 10_000;
            assert!(
                (base..base + 10_000).contains(&page),
                "tenant {t} page {page} outside its window"
            );
        }
    }

    #[test]
    fn read_fraction_is_respected() {
        let mut g = ServiceGen::new(
            Box::new(PoissonArrivals::with_load(8.0)),
            mix3(),
            23,
            20_000,
        );
        let reqs = drain(&mut g);
        let reads = reqs
            .iter()
            .filter(|r| matches!(r.op, TraceOp::Read { .. }))
            .count() as f64;
        let frac = reads / reqs.len() as f64;
        assert!((frac - 0.9).abs() < 0.01, "read fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "closed-loop")]
    fn service_gen_rejects_closed_loop_pacing() {
        let _ = ServiceGen::new(Box::new(ClosedLoop::new(50.0)), mix3(), 1, 10);
    }
}
