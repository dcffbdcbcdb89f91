//! Closed-loop workload streams shared across one batch of simulations.
//!
//! Every cell of an evaluation matrix row drives its cores with the same
//! closed-loop streams: a stream depends only on what [`StreamKey`] holds,
//! never on the scheme. [`crate::Runner::run_configs`] therefore counts
//! the consumers of each key over its batch ([`StreamPool::for_batch`]):
//!
//! * a key consumed by a run of two or more consecutive jobs (a matrix
//!   row) is generated once, by whichever of them asks first, into a
//!   compact exact-size [`RecordedStream`] that all of them replay; the
//!   pool drops its reference when the run's last consumer takes the
//!   stream;
//! * a key with one consumer is generated live, exactly as outside a
//!   batch, and costs no buffer.
//!
//! The memory rule is why sharing stops at a run's end: a key that comes
//! back later in the batch (a single-programmed benchmark's stream
//! reappearing as core 0 of a mix) is generated again rather than held
//! across the rows in between, so at most one row's streams per worker
//! are buffered.
//!
//! Replay yields the very events live generation does, so results do not
//! depend on which consumer (or `--jobs` worker) recorded a stream.

use std::sync::{Arc, Mutex, PoisonError};

use ladder_cpu::{MemEvent, TraceOp, TraceSource};
use ladder_reram::{Geometry, LineAddr, LineData, LINE_BYTES};
use ladder_workloads::{profile_of, WorkloadGen};

use crate::config::SimConfig;
use crate::experiments::{core_window, ExperimentConfig};
use crate::shard::shard_runs;

/// Everything one closed-loop core stream depends on: two equal keys
/// generate identical streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct StreamKey {
    bench: &'static str,
    core: usize,
    seed: u64,
    shard: Option<u32>,
    geometry: Geometry,
    instructions: u64,
}

impl StreamKey {
    /// The stream of `bench` on core `core` of a run over `geometry`
    /// (shard `shard` of a sharded run).
    pub(crate) fn new(
        bench: &'static str,
        core: usize,
        cfg: &ExperimentConfig,
        geometry: &Geometry,
        shard: Option<u32>,
    ) -> Self {
        StreamKey {
            bench,
            core,
            seed: cfg.seed,
            shard,
            geometry: geometry.clone(),
            instructions: cfg.instructions_per_core,
        }
    }

    /// The benchmark's memory-level parallelism (its core's MSHRs).
    pub(crate) fn mlp(&self) -> usize {
        profile_of(self.bench).mlp
    }

    /// A live generator of the stream. Each shard of a sharded run salts
    /// the workload seed with its index, so shards simulate distinct (but
    /// per-shard deterministic) request streams over their own slice.
    pub(crate) fn generator(&self) -> WorkloadGen {
        let (base, limit) = core_window(self.core, &self.geometry);
        let mut seed = self
            .seed
            .wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add(self.core as u64 + 1);
        if let Some(s) = self.shard {
            seed = seed.wrapping_add(((s as u64) + 1).wrapping_mul(0x517cc1b727220a95));
        }
        WorkloadGen::for_instructions(profile_of(self.bench), seed, base, limit, self.instructions)
    }
}

/// The closed-loop stream keys of every simulation `cfg` describes, in
/// the order the simulate step asks for them (an open-loop service run
/// has none).
fn stream_keys(cfg: &SimConfig, ecfg: &ExperimentConfig) -> Vec<StreamKey> {
    if cfg.service.is_some() {
        return Vec::new();
    }
    let members = cfg.workload.members();
    shard_runs(cfg)
        .iter()
        .flat_map(|(geometry, shard)| {
            members
                .iter()
                .enumerate()
                .map(move |(core, &bench)| StreamKey::new(bench, core, ecfg, geometry, *shard))
        })
        .collect()
}

/// Bits of an event's kind byte: the op, and how a write's line is
/// packed ([`put_line`]).
const WRITE: u8 = 1;
const CRITICAL: u8 = 2;
const LINE_UNIFORM: u8 = 4;
const LINE_SMALL_WORDS: u8 = 8;

/// Appends `v` as a LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads the LEB128 varint at `bytes[*at..]`, advancing `at`.
fn get_varint(bytes: &[u8], at: &mut usize) -> u64 {
    let (mut v, mut shift) = (0u64, 0);
    loop {
        let b = bytes[*at];
        *at += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// Appends `line` in its smallest exact form and returns the form's kind
/// bits: one byte for a repeated byte, the low bytes of its sixteen
/// 32-bit words when every word is below 256, else all 64 bytes.
fn put_line(out: &mut Vec<u8>, line: &LineData) -> u8 {
    if line.iter().all(|&b| b == line[0]) {
        out.push(line[0]);
        LINE_UNIFORM
    } else if line.chunks_exact(4).all(|w| w[1..] == [0, 0, 0]) {
        out.extend(line.iter().step_by(4));
        LINE_SMALL_WORDS
    } else {
        out.extend_from_slice(line);
        0
    }
}

/// Reads the line [`put_line`] packed with `kind` at `bytes[*at..]`,
/// advancing `at`.
fn get_line(bytes: &[u8], at: &mut usize, kind: u8) -> LineData {
    let mut line = [0u8; LINE_BYTES];
    if kind & LINE_UNIFORM != 0 {
        line = [bytes[*at]; LINE_BYTES];
        *at += 1;
    } else if kind & LINE_SMALL_WORDS != 0 {
        for (word, &b) in line
            .chunks_exact_mut(4)
            .zip(&bytes[*at..*at + LINE_BYTES / 4])
        {
            word[0] = b;
        }
        *at += LINE_BYTES / 4;
    } else {
        line.copy_from_slice(&bytes[*at..*at + LINE_BYTES]);
        *at += LINE_BYTES;
    }
    line
}

/// A whole stream in one exact-size buffer: per event the gap and the
/// zigzagged delta from the previous address as varints, a kind byte
/// and, for a write, its packed line — about 5 B per read and 20–70 B
/// per write.
#[derive(Debug)]
pub(crate) struct RecordedStream {
    label: &'static str,
    bytes: Box<[u8]>,
}

impl RecordedStream {
    /// Drains `gen`.
    fn record(mut gen: WorkloadGen) -> Self {
        let label = gen.profile().name;
        let mut bytes = Vec::new();
        let mut prev = 0u64;
        let mut line = Vec::with_capacity(LINE_BYTES);
        while let Some(ev) = gen.next_event() {
            line.clear();
            let (addr, kind) = match ev.op {
                TraceOp::Read { addr, critical } => (addr, if critical { CRITICAL } else { 0 }),
                TraceOp::Write { addr, data } => (addr, WRITE | put_line(&mut line, &data)),
            };
            let delta = addr.raw().wrapping_sub(prev) as i64;
            prev = addr.raw();
            put_varint(&mut bytes, ev.gap_instructions);
            put_varint(&mut bytes, ((delta << 1) ^ (delta >> 63)) as u64);
            bytes.push(kind);
            bytes.extend_from_slice(&line);
        }
        RecordedStream {
            label,
            bytes: bytes.into_boxed_slice(),
        }
    }
}

/// A [`TraceSource`] replaying a [`RecordedStream`] from its start.
#[derive(Debug)]
struct Replay {
    stream: Arc<RecordedStream>,
    at: usize,
    prev: u64,
}

impl TraceSource for Replay {
    fn next_event(&mut self) -> Option<MemEvent> {
        let bytes = &self.stream.bytes;
        if self.at == bytes.len() {
            return None;
        }
        let gap_instructions = get_varint(bytes, &mut self.at);
        let zigzag = get_varint(bytes, &mut self.at);
        let kind = bytes[self.at];
        self.at += 1;
        let delta = (zigzag >> 1) as i64 ^ -((zigzag & 1) as i64);
        self.prev = self.prev.wrapping_add(delta as u64);
        let addr = LineAddr::new(self.prev);
        let op = if kind & WRITE != 0 {
            let data = Box::new(get_line(bytes, &mut self.at, kind));
            TraceOp::Write { addr, data }
        } else {
            TraceOp::Read {
                addr,
                critical: kind & CRITICAL != 0,
            }
        };
        Some(MemEvent {
            gap_instructions,
            op,
        })
    }

    fn label(&self) -> &str {
        self.stream.label
    }
}

/// One run of a key's consecutive consumers: how many have yet to take
/// the stream and, between the first and the last take, the recording.
#[derive(Debug)]
struct Shared {
    takers_left: usize,
    stream: Option<Arc<RecordedStream>>,
}

/// The core streams of one job of a batch: the runs of consumers it
/// belongs to (see the module docs). Any other key, and every key of the
/// default pool, is generated live.
#[derive(Debug, Default)]
pub(crate) struct StreamPool {
    shared: Vec<(StreamKey, Arc<Mutex<Shared>>)>,
}

impl StreamPool {
    /// One pool per job of the batch `configs`, in job order.
    pub(crate) fn for_batch(configs: &[SimConfig], ecfg: &ExperimentConfig) -> Vec<StreamPool> {
        // Every run of consecutive consumers: its key, last job and size;
        // each key's latest run; each job's runs.
        let mut runs: Vec<(StreamKey, usize, usize)> = Vec::new();
        let mut latest: Vec<(StreamKey, usize)> = Vec::new();
        let mut job_runs: Vec<Vec<usize>> = Vec::with_capacity(configs.len());
        for (job, cfg) in configs.iter().enumerate() {
            let mut mine = Vec::new();
            for key in stream_keys(cfg, ecfg) {
                let run = match latest.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, run)) if runs[*run].1 + 1 == job => *run,
                    found => {
                        runs.push((key.clone(), job, 0));
                        let run = runs.len() - 1;
                        match found {
                            Some((_, latest)) => *latest = run,
                            None => latest.push((key, run)),
                        }
                        run
                    }
                };
                runs[run].1 = job;
                runs[run].2 += 1;
                mine.push(run);
            }
            job_runs.push(mine);
        }
        let shared: Vec<Option<Arc<Mutex<Shared>>>> = runs
            .iter()
            .map(|&(_, _, takers)| {
                (takers >= 2).then(|| {
                    Arc::new(Mutex::new(Shared {
                        takers_left: takers,
                        stream: None,
                    }))
                })
            })
            .collect();
        job_runs
            .into_iter()
            .map(|mine| StreamPool {
                shared: mine
                    .into_iter()
                    .filter_map(|run| {
                        Some((runs[run].0.clone(), Arc::clone(shared[run].as_ref()?)))
                    })
                    .collect(),
            })
            .collect()
    }

    /// The stream of `key`: a replay of its run's recording (made now if
    /// this is the run's first consumer to ask) or, for a key this job
    /// does not share, a live generator.
    pub(crate) fn take(&self, key: &StreamKey) -> Box<dyn TraceSource> {
        let Some((_, run)) = self.shared.iter().find(|(k, _)| k == key) else {
            return Box::new(key.generator());
        };
        let mut run = run.lock().unwrap_or_else(PoisonError::into_inner);
        let stream = match &run.stream {
            Some(stream) => Arc::clone(stream),
            None => Arc::new(RecordedStream::record(key.generator())),
        };
        run.takers_left = run.takers_left.saturating_sub(1);
        run.stream = (run.takers_left > 0).then(|| Arc::clone(&stream));
        Box::new(Replay {
            stream,
            at: 0,
            prev: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{matrix_batch, Workload};
    use crate::Scheme;
    use ladder_reram::Topology;

    fn drain(mut t: Box<dyn TraceSource>) -> (String, Vec<MemEvent>) {
        let label = t.label().to_string();
        (label, std::iter::from_fn(|| t.next_event()).collect())
    }

    fn held(pools: &[StreamPool]) -> usize {
        pools
            .iter()
            .flat_map(|p| &p.shared)
            .filter(|(_, run)| run.lock().expect("unpoisoned").stream.is_some())
            .count()
    }

    #[test]
    fn every_default_matrix_cell_replays_its_live_streams() {
        let ecfg = ExperimentConfig {
            instructions_per_core: 40_000,
            ..ExperimentConfig::default()
        };
        let (configs, extra) = matrix_batch(&Workload::all(), &Scheme::MAIN_EVAL);
        assert_eq!(configs.len(), 16 * Scheme::MAIN_EVAL.len() + extra.len());
        let pools = StreamPool::for_batch(&configs, &ecfg);
        let mut replayed = 0;
        for (cfg, pool) in configs.iter().zip(&pools) {
            for key in stream_keys(cfg, &ecfg) {
                replayed += usize::from(pool.shared.iter().any(|(k, _)| *k == key));
                assert_eq!(
                    drain(pool.take(&key)),
                    drain(Box::new(key.generator())),
                    "{} core {} of {:?}",
                    key.bench,
                    key.core,
                    cfg.workload
                );
            }
        }
        // Every matrix cell shares its row's streams; the extras (one
        // consumer each) run live.
        let matrix_streams: usize = Workload::all().iter().map(|w| w.members().len()).sum();
        assert_eq!(replayed, matrix_streams * Scheme::MAIN_EVAL.len());
        // Each row recorded once, and the last consumer released it.
        assert_eq!(held(&pools), 0);
    }

    #[test]
    fn a_stream_is_held_only_between_its_first_and_last_consumer() {
        let ecfg = ExperimentConfig {
            instructions_per_core: 5_000,
            ..ExperimentConfig::default()
        };
        let astar = Workload::Single("astar");
        let configs =
            [Scheme::Baseline, Scheme::Oracle, Scheme::LadderEst].map(|s| SimConfig::new(s, astar));
        let pools = StreamPool::for_batch(&configs, &ecfg);
        let key = StreamKey::new("astar", 0, &ecfg, &Geometry::default(), None);
        let first = pools[0].take(&key);
        assert_eq!(held(&pools[..1]), 1);
        let second = pools[2].take(&key);
        assert_eq!(held(&pools[..1]), 1, "one consumer to go");
        let _ = pools[1].take(&key);
        assert_eq!(held(&pools), 0);
        assert_eq!(drain(first), drain(second));
    }

    #[test]
    fn a_batch_of_single_consumer_keys_buffers_nothing() {
        let ecfg = ExperimentConfig {
            instructions_per_core: 5_000,
            ..ExperimentConfig::default()
        };
        let sharded = SimConfig::builder()
            .scheme(Scheme::LadderEst)
            .workload(Workload::Mix("mix-1"))
            .topology(Topology::new(4, 2).expect("valid topology"))
            .build();
        // A repeated key that is not consumed by consecutive jobs is not
        // shared either: it would be held across the job in between.
        let configs = [
            SimConfig::new(Scheme::LadderHybrid, Workload::Mix("mix-1")),
            sharded,
            SimConfig::new(Scheme::Baseline, Workload::Single("mcf")),
            SimConfig::new(Scheme::Baseline, Workload::Single("lbm")),
            SimConfig::new(Scheme::Oracle, Workload::Single("mcf")),
        ];
        let pools = StreamPool::for_batch(&configs, &ecfg);
        assert_eq!(pools.len(), configs.len());
        assert!(pools.iter().all(|p| p.shared.is_empty()));
    }

    #[test]
    fn recorded_lines_and_addresses_round_trip_in_every_packing() {
        let mut small = [0u8; LINE_BYTES];
        for (i, word) in small.chunks_exact_mut(4).enumerate() {
            word[0] = i as u8 * 13;
        }
        let mut dense = small;
        dense[5] = 1;
        for line in [[0u8; LINE_BYTES], [0xA5; LINE_BYTES], small, dense] {
            let mut out = Vec::new();
            let kind = put_line(&mut out, &line);
            let mut at = 0;
            assert_eq!(get_line(&out, &mut at, kind), line);
            assert_eq!(at, out.len());
        }
        for v in [0, 1, 127, 128, 300, u64::MAX >> 1, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let mut at = 0;
            assert_eq!(get_varint(&out, &mut at), v);
            assert_eq!(at, out.len());
        }
    }
}
