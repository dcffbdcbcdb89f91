//! The [`Mergeable`] trait and the [`TraceTotals`] aggregate a recorder
//! maintains alongside its ring.

use crate::record::{DispatchKind, PulseKind, ReadClass, TraceRecord};
use ladder_reram::Picos;

/// A value that folds with other values of its type.
///
/// The contract (checked by property tests at the workspace root):
///
/// * **associative** — `(a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)`
/// * **commutative** — `a ⊕ b == b ⊕ a`
/// * **identity** — `a ⊕ Default::default() == a`
///
/// Together these make per-worker statistics fold deterministically at any
/// `--jobs`: a sharded fold over any partition equals the sequential fold.
pub trait Mergeable: Default {
    /// Folds `other` into `self`.
    fn merge_from(&mut self, other: &Self);
}

/// Folds an iterator of mergeable parts into one value.
///
/// # Examples
///
/// ```
/// let total: u64 = ladder_trace::fold([1u64, 2, 3]);
/// assert_eq!(total, 6);
/// ```
pub fn fold<M: Mergeable>(parts: impl IntoIterator<Item = M>) -> M {
    let mut acc = M::default();
    for p in parts {
        acc.merge_from(&p);
    }
    acc
}

/// Plain counters merge by saturating addition — the one overflow
/// policy of every fold: a counter that would wrap pins at `u64::MAX`.
impl Mergeable for u64 {
    fn merge_from(&mut self, other: &Self) {
        *self = self.saturating_add(*other);
    }
}

impl Mergeable for Picos {
    fn merge_from(&mut self, other: &Self) {
        *self += *other;
    }
}

/// Exact aggregates over *every* record a recorder ever saw — maintained
/// at record time, so a bounded ring (which keeps only the most recent
/// events for export) never loses accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceTotals {
    /// Kernel dispatches per [`DispatchKind`] (indexed by
    /// [`DispatchKind::index`]).
    pub dispatches: [u64; 9],
    /// Data-write RESET pulses.
    pub data_pulses: u64,
    /// Metadata write-back pulses.
    pub metadata_pulses: u64,
    /// Demand reads completed.
    pub demand_reads: u64,
    /// Stale-memory-block dependency reads completed.
    pub smb_reads: u64,
    /// Metadata fill reads completed.
    pub metadata_reads: u64,
    /// Σ demand-read latency.
    pub demand_read_latency: Picos,
    /// Metadata-cache hits.
    pub cache_hits: u64,
    /// Metadata-cache misses.
    pub cache_misses: u64,
    /// Dirty metadata write-backs enqueued by policy calls.
    pub cache_writebacks: u64,
    /// Failed verifies (== escalated retry pulses issued).
    pub failed_verifies: u64,
    /// Residual failed bits absorbed by correction budgets.
    pub ecc_corrected_bits: u64,
    /// Writes whose residue exceeded the correction budget.
    pub uncorrectable: u64,
    /// Σ write-queue wait across data writes.
    pub queue_wait: Picos,
    /// Σ chosen pulse width (`tWR`) across data writes.
    pub pulse_time: Picos,
    /// Σ verify/retry time across data writes.
    pub retry_time: Picos,
    /// Σ service window (dispatch → completion) across data writes.
    pub service_time: Picos,
    /// Σ worst-case pulse width across data writes.
    pub worst_pulse_time: Picos,
    /// Σ location-aware-bound pulse width across data writes.
    pub location_pulse_time: Picos,
    /// Σ pulse width (`tWR`) across metadata write-backs.
    pub metadata_pulse_time: Picos,
    /// Shard identity stamps seen (one per shard of a sharded run; zero
    /// on the monolithic path).
    pub shard_tags: u64,
    /// Tiered-ECC resolves seen (zero outside tiered coding modes).
    pub tier_ecc: u64,
    /// Residual bits handled by tiered resolves.
    pub tier_ecc_bits: u64,
    /// Remap-backend page moves traced at resolve time (zero outside
    /// non-default remap modes).
    pub pad_remaps: u64,
}

impl TraceTotals {
    /// Dispatch count for one kind.
    pub fn dispatch(&self, kind: DispatchKind) -> u64 {
        self.dispatches[kind.index()]
    }

    /// Total kernel dispatches.
    pub fn dispatch_total(&self) -> u64 {
        self.dispatches.iter().sum()
    }

    /// Controller overhead inside data-write service windows: everything
    /// that is neither the pulse nor verify/retry (tRCD, burst, bus
    /// serialization).
    pub fn overhead_time(&self) -> Picos {
        self.service_time
            .saturating_sub(self.pulse_time)
            .saturating_sub(self.retry_time)
    }

    /// Pulse time saved by knowing the write's location
    /// (`Σ t_worst − Σ t_loc`).
    pub fn location_saving(&self) -> Picos {
        self.worst_pulse_time
            .saturating_sub(self.location_pulse_time)
    }

    /// Pulse time saved by knowing the write's content on top of its
    /// location (`Σ t_loc − Σ t_wr`).
    pub fn content_saving(&self) -> Picos {
        self.location_pulse_time.saturating_sub(self.pulse_time)
    }

    /// Metadata-cache hit ratio over the traced run.
    pub fn cache_hit_ratio(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }

    /// Folds one record into the totals.
    pub(crate) fn apply(&mut self, record: &TraceRecord) {
        match *record {
            TraceRecord::KernelDispatch { kind } => self.dispatches[kind.index()] += 1,
            TraceRecord::ResetPulse {
                kind,
                t_wr,
                queue_wait,
                retry_time,
                service,
                t_worst,
                t_loc,
                ..
            } => match kind {
                PulseKind::Data => {
                    self.data_pulses += 1;
                    self.queue_wait += queue_wait;
                    self.pulse_time += t_wr;
                    self.retry_time += retry_time;
                    self.service_time += service;
                    self.worst_pulse_time += t_worst;
                    self.location_pulse_time += t_loc;
                }
                PulseKind::Metadata => {
                    self.metadata_pulses += 1;
                    self.metadata_pulse_time += t_wr;
                }
            },
            TraceRecord::ReadComplete { class, latency } => match class {
                ReadClass::Demand => {
                    self.demand_reads += 1;
                    self.demand_read_latency += latency;
                }
                ReadClass::Smb => self.smb_reads += 1,
                ReadClass::Metadata => self.metadata_reads += 1,
            },
            TraceRecord::CacheAccess {
                hits,
                misses,
                writebacks,
            } => {
                self.cache_hits += hits as u64;
                self.cache_misses += misses as u64;
                self.cache_writebacks += writebacks as u64;
            }
            TraceRecord::VerifyRetry { .. } => self.failed_verifies += 1,
            TraceRecord::EccCorrection { bits } => self.ecc_corrected_bits += bits as u64,
            TraceRecord::Uncorrectable => self.uncorrectable += 1,
            TraceRecord::ShardTag { .. } => self.shard_tags += 1,
            TraceRecord::TierEcc { bits, .. } => {
                self.tier_ecc += 1;
                self.tier_ecc_bits += bits as u64;
            }
            TraceRecord::PadRemap { .. } => self.pad_remaps += 1,
        }
    }

    /// The exporters' counter section: `(name, value)` pairs in name
    /// order.
    pub(crate) fn counters(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = DispatchKind::ALL
            .into_iter()
            .map(|k| (format!("dispatch.{}", k.name()), self.dispatch(k)))
            .filter(|&(_, n)| n > 0)
            .collect();
        for (name, value) in [
            ("pulses.data", self.data_pulses),
            ("pulses.metadata", self.metadata_pulses),
            ("reads.demand", self.demand_reads),
            ("reads.smb", self.smb_reads),
            ("reads.metadata", self.metadata_reads),
            ("cache.hits", self.cache_hits),
            ("cache.misses", self.cache_misses),
            ("cache.writebacks", self.cache_writebacks),
            ("pv.failed_verifies", self.failed_verifies),
            ("pv.ecc_corrected_bits", self.ecc_corrected_bits),
            ("pv.uncorrectable", self.uncorrectable),
            ("time.queue_wait_ps", self.queue_wait.as_ps()),
            ("time.pulse_ps", self.pulse_time.as_ps()),
            ("time.retry_ps", self.retry_time.as_ps()),
            ("time.service_ps", self.service_time.as_ps()),
            ("time.metadata_pulse_ps", self.metadata_pulse_time.as_ps()),
        ] {
            out.push((name.to_string(), value));
        }
        // Shard stamps and coding/remap detail records exist only in
        // sharded runs and non-default coding modes, so their counters
        // appear only once such a record was seen (pinned in `export.rs`).
        let tiered = self.tier_ecc > 0;
        for (name, value, emit) in [
            ("shard.tags", self.shard_tags, self.shard_tags > 0),
            ("coding.tier_resolves", self.tier_ecc, tiered),
            ("coding.tier_bits", self.tier_ecc_bits, tiered),
            ("coding.remaps", self.pad_remaps, self.pad_remaps > 0),
        ] {
            if emit {
                out.push((name.to_string(), value));
            }
        }
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

impl Mergeable for TraceTotals {
    fn merge_from(&mut self, other: &Self) {
        // No `..`: a new field fails to compile until it is folded here.
        let TraceTotals {
            dispatches,
            data_pulses,
            metadata_pulses,
            demand_reads,
            smb_reads,
            metadata_reads,
            demand_read_latency,
            cache_hits,
            cache_misses,
            cache_writebacks,
            failed_verifies,
            ecc_corrected_bits,
            uncorrectable,
            queue_wait,
            pulse_time,
            retry_time,
            service_time,
            worst_pulse_time,
            location_pulse_time,
            metadata_pulse_time,
            shard_tags,
            tier_ecc,
            tier_ecc_bits,
            pad_remaps,
        } = other;
        for (a, b) in self.dispatches.iter_mut().zip(dispatches) {
            a.merge_from(b);
        }
        self.data_pulses.merge_from(data_pulses);
        self.metadata_pulses.merge_from(metadata_pulses);
        self.demand_reads.merge_from(demand_reads);
        self.smb_reads.merge_from(smb_reads);
        self.metadata_reads.merge_from(metadata_reads);
        self.demand_read_latency.merge_from(demand_read_latency);
        self.cache_hits.merge_from(cache_hits);
        self.cache_misses.merge_from(cache_misses);
        self.cache_writebacks.merge_from(cache_writebacks);
        self.failed_verifies.merge_from(failed_verifies);
        self.ecc_corrected_bits.merge_from(ecc_corrected_bits);
        self.uncorrectable.merge_from(uncorrectable);
        self.queue_wait.merge_from(queue_wait);
        self.pulse_time.merge_from(pulse_time);
        self.retry_time.merge_from(retry_time);
        self.service_time.merge_from(service_time);
        self.worst_pulse_time.merge_from(worst_pulse_time);
        self.location_pulse_time.merge_from(location_pulse_time);
        self.metadata_pulse_time.merge_from(metadata_pulse_time);
        self.shard_tags.merge_from(shard_tags);
        self.tier_ecc.merge_from(tier_ecc);
        self.tier_ecc_bits.merge_from(tier_ecc_bits);
        self.pad_remaps.merge_from(pad_remaps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_merge_saturates_instead_of_overflowing() {
        let mut n = u64::MAX;
        n.merge_from(&1);
        assert_eq!(n, u64::MAX);
        // Every counter fold routes through that impl, arrays included.
        let mut t = TraceTotals {
            data_pulses: u64::MAX - 1,
            ..Default::default()
        };
        t.dispatches[0] = u64::MAX;
        let mut o = TraceTotals {
            data_pulses: 5,
            ..Default::default()
        };
        o.dispatches[0] = 2;
        t.merge_from(&o);
        assert_eq!((t.data_pulses, t.dispatches[0]), (u64::MAX, u64::MAX));
    }

    #[test]
    fn fold_helper_equals_manual_accumulation() {
        let parts = vec![
            TraceTotals {
                data_pulses: 2,
                ..Default::default()
            },
            TraceTotals {
                data_pulses: 3,
                cache_hits: 1,
                ..Default::default()
            },
        ];
        let total: TraceTotals = fold(parts);
        assert_eq!(total.data_pulses, 5);
        assert_eq!(total.cache_hits, 1);
    }

    #[test]
    fn totals_apply_routes_every_record() {
        let mut t = TraceTotals::default();
        t.apply(&TraceRecord::KernelDispatch {
            kind: DispatchKind::CtrlBankFree,
        });
        t.apply(&TraceRecord::ReadComplete {
            class: ReadClass::Demand,
            latency: Picos::from_ps(10),
        });
        t.apply(&TraceRecord::EccCorrection { bits: 4 });
        assert_eq!(t.dispatch(DispatchKind::CtrlBankFree), 1);
        assert_eq!(t.dispatch_total(), 1);
        assert_eq!(t.demand_reads, 1);
        assert_eq!(t.demand_read_latency, Picos::from_ps(10));
        assert_eq!(t.ecc_corrected_bits, 4);
    }

    #[test]
    fn attribution_splits_are_consistent() {
        let mut t = TraceTotals::default();
        t.apply(&TraceRecord::ResetPulse {
            kind: PulseKind::Data,
            wl: 1,
            bl: 2,
            c_lrs: 3,
            t_wr: Picos::from_ps(100),
            queue_wait: Picos::from_ps(50),
            retry_time: Picos::from_ps(20),
            service: Picos::from_ps(200),
            t_worst: Picos::from_ps(400),
            t_loc: Picos::from_ps(250),
        });
        assert_eq!(t.overhead_time(), Picos::from_ps(80));
        assert_eq!(t.location_saving(), Picos::from_ps(150));
        assert_eq!(t.content_saving(), Picos::from_ps(150));
    }
}
