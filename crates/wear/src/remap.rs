//! Hot-page remapping to low-latency rows — the extension the paper's
//! related-work section sketches (Section 8: Leader [62], Aliens [51]):
//! "LADDER can potentially incorporate these techniques to further improve
//! its performance".
//!
//! Pages close to the bitline drivers (low wordlines) RESET faster at every
//! content level. The remapper tracks per-page write counts and
//! periodically swaps the hottest unmapped page into a pool of low-row
//! *frames*, so the write-dominant pages enjoy the fastest locations while
//! LADDER continues to supply the content dimension. Swap migrations are
//! surfaced as amortized extra writes, like the other levelers.

use crate::leveling::WearLeveler;
use ladder_reram::{LineAddr, LINES_PER_WLG};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::str::FromStr;
use std::sync::PoisonError;

/// Adaptive write-hot page remapper.
///
/// # Examples
///
/// ```
/// use ladder_wear::{HotPageRemapper, WearLeveler};
/// use ladder_reram::LineAddr;
///
/// // Frames at pages 100..110; promote after every 8 writes.
/// let mut r = HotPageRemapper::new((100..110).collect(), 8);
/// let hot = LineAddr::new(5000 * 64);
/// for _ in 0..16 {
///     r.note_write(hot);
/// }
/// // The hot page now lives in a low-row frame (frames hand out from the
/// // back of the pool).
/// assert_eq!(r.map(hot).page(), 109);
/// // And the frame's original page took the hot page's slot.
/// assert_eq!(r.map(LineAddr::new(109 * 64)).page(), 5000);
/// ```
#[derive(Debug)]
pub struct HotPageRemapper {
    /// Low-row frame pages not yet holding a promoted page.
    free_frames: Vec<u64>,
    /// Symmetric page swap table.
    swaps: BTreeMap<u64, u64>,
    /// Per-page write counts since the last promotion.
    counts: BTreeMap<u64, u64>,
    writes: u64,
    promote_interval: u64,
    /// Migration writes still to surface (a swap copies two pages).
    pending_migrations: u64,
    /// Promotions performed (for reporting).
    promotions: u64,
}

impl HotPageRemapper {
    /// Creates a remapper with the given low-row frame pages, promoting the
    /// hottest page every `promote_interval` writes.
    ///
    /// # Panics
    ///
    /// Panics if `promote_interval` is zero.
    pub fn new(frames: Vec<u64>, promote_interval: u64) -> Self {
        assert!(promote_interval > 0, "promotion interval must be nonzero");
        Self {
            free_frames: frames,
            swaps: BTreeMap::new(),
            counts: BTreeMap::new(),
            writes: 0,
            promote_interval,
            pending_migrations: 0,
            promotions: 0,
        }
    }

    /// Number of promotions performed so far.
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    fn mapped_page(&self, page: u64) -> u64 {
        self.swaps.get(&page).copied().unwrap_or(page)
    }

    fn promote_hottest(&mut self) {
        let Some(frame) = self.free_frames.pop() else {
            return;
        };
        // Hottest page that is not already promoted and not a frame itself.
        let hottest = self
            .counts
            .iter()
            .filter(|(p, _)| !self.swaps.contains_key(*p) && **p != frame)
            .max_by_key(|(_, c)| **c)
            .map(|(p, _)| *p);
        match hottest {
            Some(page) => {
                self.swaps.insert(page, frame);
                self.swaps.insert(frame, page);
                // Two pages migrate: 2 × 64 lines.
                self.pending_migrations += 2 * LINES_PER_WLG as u64;
                self.promotions += 1;
                // Decay history so the remapper stays adaptive without
                // forgetting sustained heat entirely.
                for c in self.counts.values_mut() {
                    *c /= 2;
                }
            }
            None => self.free_frames.push(frame),
        }
    }
}

impl WearLeveler for HotPageRemapper {
    fn map(&self, logical: LineAddr) -> LineAddr {
        let page = self.mapped_page(logical.page());
        LineAddr::new(page * LINES_PER_WLG as u64 + logical.block_slot() as u64)
    }

    fn note_write(&mut self, logical: LineAddr) -> Vec<LineAddr> {
        self.writes += 1;
        *self.counts.entry(logical.page()).or_insert(0) += 1;
        if self.writes.is_multiple_of(self.promote_interval) {
            self.promote_hottest();
        }
        if self.pending_migrations > 0 {
            self.pending_migrations -= 1;
            return vec![self.map(logical)];
        }
        Vec::new()
    }

    fn name(&self) -> &'static str {
        "hot-page-remap"
    }
}

/// Fault-driven page retirement: a one-way map from worn-out pages to spare
/// frames.
///
/// Unlike [`HotPageRemapper`]'s symmetric swaps, retirement never reuses the
/// retired page — its cells are stuck. The pool hands out spare frames (from
/// the back of the list, like the remapper), and each retirement surfaces a
/// page copy (64 lines) as amortized migration writes.
///
/// # Examples
///
/// ```
/// use ladder_wear::{RetirePool, WearLeveler};
/// use ladder_reram::LineAddr;
///
/// let mut pool = RetirePool::with_spares(vec![200, 201]);
/// assert_eq!(pool.retire(50), Some(true));
/// assert_eq!(pool.retire(50), None, "already retired");
/// // Lines of page 50 now live in spare frame 201.
/// assert_eq!(pool.map(LineAddr::new(50 * 64 + 7)), LineAddr::new(201 * 64 + 7));
/// ```
#[derive(Debug, Default)]
pub struct RetirePool {
    spares: Vec<u64>,
    retired: BTreeMap<u64, u64>,
    /// Copy-out writes still to surface (one page copy per retirement).
    pending_migrations: u64,
    retirements: u64,
    exhausted: u64,
}

impl RetirePool {
    /// Creates a pool handing out the given spare frame pages (from the
    /// back of the list).
    pub fn with_spares(spares: Vec<u64>) -> Self {
        Self {
            spares,
            ..Self::default()
        }
    }

    /// Retires `page` into a spare frame. Returns `Some(true)` on success,
    /// `Some(false)` when no spare is left, and `None` if the page is
    /// already retired (a no-op).
    pub fn retire(&mut self, page: u64) -> Option<bool> {
        if self.retired.contains_key(&page) {
            return None;
        }
        // A still-pooled spare can itself go bad: drop it so it is never
        // handed out as a redirect target — handing it out later would let
        // a chain loop back through it (`p → f`, then `f → p`).
        self.spares.retain(|s| *s != page);
        match self.spares.pop() {
            Some(frame) => {
                self.retired.insert(page, frame);
                self.pending_migrations += LINES_PER_WLG as u64;
                self.retirements += 1;
                Some(true)
            }
            None => {
                self.exhausted += 1;
                Some(false)
            }
        }
    }

    /// Pages retired so far.
    pub fn retirements(&self) -> u64 {
        self.retirements
    }

    /// Retire attempts that found the pool empty.
    pub fn exhausted(&self) -> u64 {
        self.exhausted
    }

    /// Spare frames still available.
    pub fn spares_left(&self) -> usize {
        self.spares.len()
    }

    fn mapped_page(&self, page: u64) -> u64 {
        let mut p = page;
        // A spare frame can itself wear out and retire; follow the chain.
        // Each hop consumes a distinct spare, so the chain is finite.
        while let Some(&next) = self.retired.get(&p) {
            p = next;
        }
        p
    }
}

impl WearLeveler for RetirePool {
    fn map(&self, logical: LineAddr) -> LineAddr {
        let page = self.mapped_page(logical.page());
        LineAddr::new(page * LINES_PER_WLG as u64 + logical.block_slot() as u64)
    }

    fn note_write(&mut self, logical: LineAddr) -> Vec<LineAddr> {
        if self.pending_migrations > 0 {
            self.pending_migrations -= 1;
            return vec![self.map(logical)];
        }
        Vec::new()
    }

    fn name(&self) -> &'static str {
        "retire-remap"
    }
}

/// Shared wrapper so the fault model (inside the controller) and the
/// simulator's address path can drive one [`RetirePool`] — the
/// [`crate::SharedWearMap`] idiom.
#[derive(Debug, Clone, Default)]
pub struct SharedRetirePool(std::sync::Arc<std::sync::Mutex<RetirePool>>);

impl SharedRetirePool {
    /// Creates a shared pool with the given spare frame pages.
    pub fn with_spares(spares: Vec<u64>) -> Self {
        Self(std::sync::Arc::new(std::sync::Mutex::new(
            RetirePool::with_spares(spares),
        )))
    }

    /// Runs `f` over the underlying pool.
    pub fn with<R>(&self, f: impl FnOnce(&RetirePool) -> R) -> R {
        // Poison recovery: a panic elsewhere is already propagating and
        // per-call mutation keeps the pool consistent.
        f(&self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// See [`RetirePool::retire`].
    pub fn retire(&self, page: u64) -> Option<bool> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retire(page)
    }

    /// See [`RetirePool::map`] (via [`WearLeveler`]).
    pub fn map(&self, logical: LineAddr) -> LineAddr {
        self.with(|p| p.map(logical))
    }
}

impl WearLeveler for SharedRetirePool {
    fn map(&self, logical: LineAddr) -> LineAddr {
        self.with(|p| WearLeveler::map(p, logical))
    }

    fn note_write(&mut self, logical: LineAddr) -> Vec<LineAddr> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .note_write(logical)
    }

    fn name(&self) -> &'static str {
        "retire-remap"
    }
}

/// Programmable-address-decoder (PAD) swap remapping, after WoLFRaM.
///
/// Where [`RetirePool`] builds one-way redirect chains, the PAD model keeps
/// a true decoder *permutation*: remapping a faulty physical page swaps its
/// logical occupant with the occupant of a spare frame, so every lookup is
/// a single table consult — no chain walking, the hardware analogue of
/// reprogramming address-decoder match entries. Faulty pages stay in the
/// permutation (their reserved occupants point at them) but are never
/// handed out as targets again.
///
/// The same swap primitive doubles as proactive wear leveling: every
/// `swap_interval` writes the hottest still-home page is rotated into a
/// frame and its vacated home page *returns to the pool*, so periodic
/// leveling conserves spare capacity instead of consuming it.
///
/// # Examples
///
/// ```
/// use ladder_wear::{PadRemapper, WearLeveler};
/// use ladder_reram::LineAddr;
///
/// let mut pad = PadRemapper::new(vec![200, 201], 1_000_000);
/// assert_eq!(pad.remap_faulty(50), Some(true));
/// // Traffic to page 50 now lands in frame 201; the decoder swap is
/// // symmetric, so the frame's old slot points back at the dead page.
/// assert_eq!(pad.map(LineAddr::new(50 * 64 + 7)).page(), 201);
/// assert_eq!(pad.remap_faulty(50), None, "already remapped");
/// ```
#[derive(Debug)]
pub struct PadRemapper {
    /// Spare frame pages whose decoder entries are free to swap into.
    free_frames: Vec<u64>,
    /// Decoder permutation, logical page → physical page (identity when
    /// absent) and its inverse. Kept minimal: identity pairs are erased.
    to_phys: BTreeMap<u64, u64>,
    to_logical: BTreeMap<u64, u64>,
    /// Physical pages marked bad; never handed out as swap targets.
    faulty: BTreeSet<u64>,
    /// Per-page write counts driving the periodic wear swap.
    counts: BTreeMap<u64, u64>,
    writes: u64,
    swap_interval: u64,
    /// Migration writes still to surface (swaps copy pages).
    pending_migrations: u64,
    fault_swaps: u64,
    wear_swaps: u64,
    exhausted: u64,
}

impl PadRemapper {
    /// Creates a PAD remapper over the given spare frame pages, rotating
    /// the hottest page into a frame every `swap_interval` writes.
    ///
    /// # Panics
    ///
    /// Panics if `swap_interval` is zero.
    pub fn new(frames: Vec<u64>, swap_interval: u64) -> Self {
        assert!(swap_interval > 0, "swap interval must be nonzero");
        Self {
            free_frames: frames,
            to_phys: BTreeMap::new(),
            to_logical: BTreeMap::new(),
            faulty: BTreeSet::new(),
            counts: BTreeMap::new(),
            writes: 0,
            swap_interval,
            pending_migrations: 0,
            fault_swaps: 0,
            wear_swaps: 0,
            exhausted: 0,
        }
    }

    /// Fault-driven decoder swaps performed.
    pub fn fault_swaps(&self) -> u64 {
        self.fault_swaps
    }

    /// Periodic wear-leveling swaps performed.
    pub fn wear_swaps(&self) -> u64 {
        self.wear_swaps
    }

    /// Remap attempts that found the frame pool empty.
    pub fn exhausted(&self) -> u64 {
        self.exhausted
    }

    /// Spare frames still available.
    pub fn frames_left(&self) -> usize {
        self.free_frames.len()
    }

    /// Whether `page` has been marked faulty.
    pub fn is_faulty(&self, page: u64) -> bool {
        self.faulty.contains(&page)
    }

    /// The physical page currently serving logical page `page`.
    pub fn frame_of(&self, page: u64) -> u64 {
        self.mapped_page(page)
    }

    fn mapped_page(&self, page: u64) -> u64 {
        self.to_phys.get(&page).copied().unwrap_or(page)
    }

    /// Records `logical → phys` in both directions, erasing identity pairs
    /// so the permutation tables stay minimal.
    fn link(&mut self, logical: u64, phys: u64) {
        if logical == phys {
            self.to_phys.remove(&logical);
            self.to_logical.remove(&phys);
        } else {
            self.to_phys.insert(logical, phys);
            self.to_logical.insert(phys, logical);
        }
    }

    /// Swaps the logical occupants of physical pages `a` and `b` — the PAD
    /// primitive: two decoder entries exchange their match addresses.
    fn swap_physical(&mut self, a: u64, b: u64) {
        if a == b {
            return;
        }
        let la = self.to_logical.get(&a).copied().unwrap_or(a);
        let lb = self.to_logical.get(&b).copied().unwrap_or(b);
        self.link(la, b);
        self.link(lb, a);
    }

    /// Swaps the faulty physical page `phys` out for a spare frame.
    /// Returns `Some(true)` on success, `Some(false)` when no frame is
    /// left, and `None` if the page is already marked faulty (a no-op) —
    /// the same contract as [`RetirePool::retire`].
    pub fn remap_faulty(&mut self, phys: u64) -> Option<bool> {
        if self.faulty.contains(&phys) {
            return None;
        }
        // A never-used frame can itself go bad; drop it from the pool so
        // it is never handed out as a target.
        self.free_frames.retain(|f| *f != phys);
        match self.free_frames.pop() {
            Some(frame) => {
                self.faulty.insert(phys);
                self.swap_physical(phys, frame);
                // One page of live data copies out of the dying page.
                self.pending_migrations += LINES_PER_WLG as u64;
                self.fault_swaps += 1;
                Some(true)
            }
            None => {
                self.exhausted += 1;
                Some(false)
            }
        }
    }

    /// Rotates the hottest still-home page into a frame. The vacated home
    /// page returns to the pool, so wear swaps conserve spare capacity.
    fn swap_hottest(&mut self) {
        let Some(frame) = self.free_frames.pop() else {
            return;
        };
        let hottest = self
            .counts
            .iter()
            .filter(|(p, _)| {
                !self.to_phys.contains_key(*p) && !self.faulty.contains(*p) && **p != frame
            })
            .max_by_key(|(_, c)| **c)
            .map(|(p, _)| *p);
        match hottest {
            Some(page) => {
                // `page` is still at home, so its home slot is what the
                // swap vacates; only reserved frame occupants ever sit in
                // pool pages, so returning it keeps the pool safe to hand
                // out for later fault swaps.
                self.swap_physical(page, frame);
                self.free_frames.push(page);
                self.pending_migrations += 2 * LINES_PER_WLG as u64;
                self.wear_swaps += 1;
                for c in self.counts.values_mut() {
                    *c /= 2;
                }
            }
            None => self.free_frames.push(frame),
        }
    }
}

impl WearLeveler for PadRemapper {
    fn map(&self, logical: LineAddr) -> LineAddr {
        let page = self.mapped_page(logical.page());
        LineAddr::new(page * LINES_PER_WLG as u64 + logical.block_slot() as u64)
    }

    fn note_write(&mut self, logical: LineAddr) -> Vec<LineAddr> {
        self.writes += 1;
        *self.counts.entry(logical.page()).or_insert(0) += 1;
        if self.writes.is_multiple_of(self.swap_interval) {
            self.swap_hottest();
        }
        if self.pending_migrations > 0 {
            self.pending_migrations -= 1;
            return vec![self.map(logical)];
        }
        Vec::new()
    }

    fn name(&self) -> &'static str {
        "pad-remap"
    }
}

/// Shared wrapper so the fault model and the simulator's address path can
/// drive one [`PadRemapper`] — the [`SharedRetirePool`] idiom.
#[derive(Debug, Clone)]
pub struct SharedPadRemapper(std::sync::Arc<std::sync::Mutex<PadRemapper>>);

impl SharedPadRemapper {
    /// Creates a shared PAD remapper; see [`PadRemapper::new`].
    pub fn new(frames: Vec<u64>, swap_interval: u64) -> Self {
        Self(std::sync::Arc::new(std::sync::Mutex::new(
            PadRemapper::new(frames, swap_interval),
        )))
    }

    /// Runs `f` over the underlying remapper.
    pub fn with<R>(&self, f: impl FnOnce(&PadRemapper) -> R) -> R {
        // Poison recovery: a panic elsewhere is already propagating and
        // per-call mutation keeps the permutation consistent.
        f(&self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// See [`PadRemapper::remap_faulty`].
    pub fn remap_faulty(&self, phys: u64) -> Option<bool> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remap_faulty(phys)
    }

    /// See [`PadRemapper::map`] (via [`WearLeveler`]).
    pub fn map(&self, logical: LineAddr) -> LineAddr {
        self.with(|p| WearLeveler::map(p, logical))
    }

    /// See [`PadRemapper::frame_of`].
    pub fn frame_of(&self, page: u64) -> u64 {
        self.with(|p| p.frame_of(page))
    }
}

impl WearLeveler for SharedPadRemapper {
    fn map(&self, logical: LineAddr) -> LineAddr {
        self.with(|p| WearLeveler::map(p, logical))
    }

    fn note_write(&mut self, logical: LineAddr) -> Vec<LineAddr> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .note_write(logical)
    }

    fn name(&self) -> &'static str {
        "pad-remap"
    }
}

/// The fault-remapping backend a simulated module runs: chained retirement
/// or PAD decoder swaps. Both sides of the kernel (the address path and the
/// fault model inside the controller) hold clones of the same backend.
#[derive(Debug, Clone)]
pub enum RemapBackend {
    /// One-way retirement chains ([`RetirePool`]).
    Retire(SharedRetirePool),
    /// WoLFRaM-style decoder-permutation swaps ([`PadRemapper`]).
    Pad(SharedPadRemapper),
}

impl RemapBackend {
    /// Resolves `logical` through the backend's current mapping.
    pub fn map(&self, logical: LineAddr) -> LineAddr {
        match self {
            Self::Retire(pool) => pool.map(logical),
            Self::Pad(pad) => pad.map(logical),
        }
    }

    /// Surfaces amortized migration writes; see [`WearLeveler::note_write`].
    pub fn note_write(&mut self, logical: LineAddr) -> Vec<LineAddr> {
        match self {
            Self::Retire(pool) => pool.note_write(logical),
            Self::Pad(pad) => pad.note_write(logical),
        }
    }

    /// Moves the faulty physical page `page` out of service. Same contract
    /// as [`RetirePool::retire`] / [`PadRemapper::remap_faulty`].
    pub fn on_fault(&self, page: u64) -> Option<bool> {
        match self {
            Self::Retire(pool) => pool.retire(page),
            Self::Pad(pad) => pad.remap_faulty(page),
        }
    }

    /// The physical page currently serving `page`'s traffic (for trace
    /// records after an [`Self::on_fault`]).
    pub fn frame_of(&self, page: u64) -> u64 {
        match self {
            Self::Retire(pool) => pool.map(LineAddr::new(page * LINES_PER_WLG as u64)).page(),
            Self::Pad(pad) => pad.frame_of(page),
        }
    }

    /// Backend name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Retire(_) => "retire-remap",
            Self::Pad(_) => "pad-remap",
        }
    }
}

/// Which remap backend a run builds — the config-level selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemapKind {
    /// One-way retirement chains into a spare pool (the legacy default).
    Retire,
    /// PAD decoder-swap remapping with periodic wear rotation.
    Pad,
}

impl RemapKind {
    /// Every backend, in sweep order.
    pub const ALL: [RemapKind; 2] = [RemapKind::Retire, RemapKind::Pad];

    /// Stable name used in configs, CSV columns, and reports.
    pub fn name(self) -> &'static str {
        match self {
            Self::Retire => "retire",
            Self::Pad => "pad",
        }
    }
}

impl fmt::Display for RemapKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for RemapKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "retire" | "retire-remap" => Ok(Self::Retire),
            "pad" | "pad-remap" => Ok(Self::Pad),
            other => Err(format!("unknown remap backend `{other}` (retire|pad)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mapping_is_identity_until_promotion() {
        let r = HotPageRemapper::new(vec![10], 100);
        assert_eq!(
            r.map(LineAddr::new(999 * 64 + 3)),
            LineAddr::new(999 * 64 + 3)
        );
    }

    #[test]
    fn hottest_page_wins_the_frame() {
        let mut r = HotPageRemapper::new(vec![10], 10);
        for i in 0..9u64 {
            r.note_write(LineAddr::new(500 * 64 + i)); // 9 writes to page 500
        }
        r.note_write(LineAddr::new(600 * 64)); // 1 write to page 600
        assert_eq!(r.promotions(), 1);
        assert_eq!(r.map(LineAddr::new(500 * 64)).page(), 10);
        assert_eq!(r.map(LineAddr::new(10 * 64)).page(), 500);
        // Unrelated pages untouched.
        assert_eq!(r.map(LineAddr::new(600 * 64)).page(), 600);
    }

    #[test]
    fn swaps_remain_a_bijection() {
        let mut r = HotPageRemapper::new(vec![10, 11, 12], 5);
        let mut x = 7u64;
        for _ in 0..200 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let page = 100 + x % 50;
            r.note_write(LineAddr::new(page * 64 + x % 64));
        }
        let mut seen = BTreeSet::new();
        for page in (100..150).chain([10u64, 11, 12]) {
            assert!(seen.insert(r.map(LineAddr::new(page * 64)).page()));
        }
    }

    #[test]
    fn migrations_amortize_after_each_swap() {
        let mut r = HotPageRemapper::new(vec![10], 4);
        let mut migrations = 0;
        for i in 0..300u64 {
            migrations += r.note_write(LineAddr::new(900 * 64 + i % 64)).len();
        }
        // One swap = 128 migration lines surfaced one per write.
        assert_eq!(migrations, 128);
    }

    #[test]
    fn frames_are_finite() {
        let mut r = HotPageRemapper::new(vec![10], 2);
        for i in 0..100u64 {
            r.note_write(LineAddr::new((200 + i % 3) * 64));
        }
        assert_eq!(r.promotions(), 1, "only one frame to hand out");
    }

    #[test]
    fn retirement_is_one_way_and_bounded() {
        let mut pool = RetirePool::with_spares(vec![300, 301]);
        assert_eq!(pool.retire(10), Some(true));
        assert_eq!(pool.retire(11), Some(true));
        assert_eq!(pool.retire(12), Some(false), "pool exhausted");
        assert_eq!(pool.retire(10), None, "idempotent");
        assert_eq!(pool.retirements(), 2);
        assert_eq!(pool.exhausted(), 1);
        assert_eq!(pool.spares_left(), 0);
        assert_eq!(pool.map(LineAddr::new(10 * 64)).page(), 301);
        assert_eq!(pool.map(LineAddr::new(11 * 64)).page(), 300);
        // Un-retired pages map to themselves, including the failed one.
        assert_eq!(pool.map(LineAddr::new(12 * 64)).page(), 12);
    }

    #[test]
    fn retired_spare_chains_to_its_replacement() {
        let mut pool = RetirePool::with_spares(vec![300, 301]);
        assert_eq!(pool.retire(10), Some(true)); // 10 → 301
        assert_eq!(pool.retire(301), Some(true)); // 301 → 300
        assert_eq!(pool.map(LineAddr::new(10 * 64)).page(), 300);
    }

    #[test]
    fn retirement_surfaces_one_page_of_migrations() {
        let mut pool = RetirePool::with_spares(vec![300]);
        pool.retire(10);
        let mut migrations = 0;
        for i in 0..200u64 {
            migrations += pool.note_write(LineAddr::new(10 * 64 + i % 64)).len();
        }
        assert_eq!(migrations, LINES_PER_WLG);
    }

    #[test]
    fn shared_pool_is_seen_by_all_clones() {
        let pool = SharedRetirePool::with_spares(vec![400]);
        let clone = pool.clone();
        assert_eq!(pool.retire(77), Some(true));
        assert_eq!(clone.map(LineAddr::new(77 * 64)).page(), 400);
        assert_eq!(clone.with(|p| p.retirements()), 1);
    }

    #[test]
    fn resolve_follows_multi_hop_chains() {
        let mut pool = RetirePool::with_spares(vec![300, 301, 302]);
        assert_eq!(pool.retire(10), Some(true)); // 10 → 302
        assert_eq!(pool.retire(302), Some(true)); // 302 → 301
        assert_eq!(pool.retire(301), Some(true)); // 301 → 300
        assert_eq!(pool.map(LineAddr::new(10 * 64 + 5)).page(), 300);
        // Intermediate hops resolve to the same terminus.
        assert_eq!(pool.map(LineAddr::new(302 * 64)).page(), 300);
        assert_eq!(pool.map(LineAddr::new(301 * 64)).page(), 300);
    }

    #[test]
    fn exhausted_pool_keeps_serving_existing_chains() {
        let mut pool = RetirePool::with_spares(vec![300]);
        assert_eq!(pool.retire(10), Some(true)); // 10 → 300
                                                 // The spare itself dies with the pool empty: the retire fails but
                                                 // the existing redirect must keep working.
        assert_eq!(pool.retire(300), Some(false));
        assert_eq!(pool.retire(300), Some(false), "still not retired");
        assert_eq!(pool.exhausted(), 2);
        assert_eq!(pool.map(LineAddr::new(10 * 64)).page(), 300);
    }

    #[test]
    fn double_retire_leaves_state_untouched() {
        let mut pool = RetirePool::with_spares(vec![300, 301]);
        assert_eq!(pool.retire(10), Some(true));
        let before = (pool.retirements(), pool.exhausted(), pool.spares_left());
        assert_eq!(pool.retire(10), None);
        assert_eq!(
            (pool.retirements(), pool.exhausted(), pool.spares_left()),
            before
        );
        assert_eq!(pool.map(LineAddr::new(10 * 64)).page(), 301);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `resolve` (chain-following `map`) always terminates at a
        /// fixpoint: the retirement map stays acyclic for arbitrary retire
        /// sequences, including retiring handed-out spares.
        #[test]
        fn retire_resolve_is_acyclic(pages in proptest::collection::vec(0u64..120, 1..48)) {
            let mut pool = RetirePool::with_spares((100u64..116).collect());
            // Mirror of the documented semantics: spares hand out from the
            // back, one per successful retire, idempotent per page.
            let mut spares: Vec<u64> = (100u64..116).collect();
            let mut mirror = BTreeMap::new();
            for &p in &pages {
                if mirror.contains_key(&p) {
                    prop_assert_eq!(pool.retire(p), None);
                    continue;
                }
                spares.retain(|s| *s != p);
                if let Some(frame) = spares.pop() {
                    prop_assert_eq!(pool.retire(p), Some(true));
                    mirror.insert(p, frame);
                } else {
                    prop_assert_eq!(pool.retire(p), Some(false));
                }
            }
            for p in 0..130u64 {
                // Bounded walk of the mirror: a cycle would exceed the
                // spare count, failing instead of hanging.
                let mut cur = p;
                let mut hops = 0;
                while let Some(&next) = mirror.get(&cur) {
                    cur = next;
                    hops += 1;
                    prop_assert!(hops <= 16, "cycle reached from page {}", p);
                }
                prop_assert_eq!(pool.map(LineAddr::new(p * 64)).page(), cur);
            }
        }
    }

    #[test]
    fn pad_is_identity_until_a_fault() {
        let pad = PadRemapper::new(vec![200, 201], 1_000);
        assert_eq!(
            pad.map(LineAddr::new(50 * 64 + 3)),
            LineAddr::new(50 * 64 + 3)
        );
        assert_eq!(pad.frame_of(50), 50);
    }

    #[test]
    fn pad_fault_swap_is_a_decoder_permutation() {
        let mut pad = PadRemapper::new(vec![200, 201], 1_000);
        assert_eq!(pad.remap_faulty(50), Some(true));
        // Logical 50 now decodes to frame 201; the displaced reserved
        // entry points back at the dead page — a swap, not a chain.
        assert_eq!(pad.map(LineAddr::new(50 * 64 + 9)).page(), 201);
        assert_eq!(pad.map(LineAddr::new(201 * 64)).page(), 50);
        assert_eq!(pad.remap_faulty(50), None, "idempotent");
        assert!(pad.is_faulty(50));
        assert_eq!(pad.fault_swaps(), 1);
        assert_eq!(pad.frames_left(), 1);
    }

    #[test]
    fn pad_chained_faults_stay_single_lookup() {
        let mut pad = PadRemapper::new(vec![200, 201], 1_000);
        assert_eq!(pad.remap_faulty(50), Some(true)); // 50 → 201
                                                      // The replacement frame dies too; the permutation re-points
                                                      // logical 50 directly at the next frame.
        assert_eq!(pad.remap_faulty(201), Some(true));
        assert_eq!(pad.frame_of(50), 200);
        assert_eq!(pad.map(LineAddr::new(50 * 64 + 1)).page(), 200);
    }

    #[test]
    fn pad_exhaustion_mirrors_retire_pool() {
        let mut pad = PadRemapper::new(vec![200], 1_000);
        assert_eq!(pad.remap_faulty(10), Some(true));
        assert_eq!(pad.remap_faulty(11), Some(false), "pool exhausted");
        assert_eq!(pad.remap_faulty(11), Some(false), "still not remapped");
        assert_eq!(pad.exhausted(), 2);
        assert!(!pad.is_faulty(11));
        assert_eq!(pad.map(LineAddr::new(11 * 64)).page(), 11);
    }

    #[test]
    fn pad_never_hands_out_a_dead_idle_frame() {
        let mut pad = PadRemapper::new(vec![200, 201], 1_000);
        // An idle frame goes bad before ever being used: it must leave the
        // pool, not be handed to the next fault.
        assert_eq!(pad.remap_faulty(201), Some(true));
        assert_eq!(pad.frames_left(), 0, "201 dropped, 200 consumed");
        assert_eq!(pad.frame_of(201), 200);
    }

    #[test]
    fn pad_fault_swap_surfaces_one_page_of_migrations() {
        let mut pad = PadRemapper::new(vec![200], 1_000_000);
        pad.remap_faulty(10);
        let mut migrations = 0;
        for i in 0..200u64 {
            migrations += pad.note_write(LineAddr::new(10 * 64 + i % 64)).len();
        }
        assert_eq!(migrations, LINES_PER_WLG);
    }

    #[test]
    fn pad_wear_swap_conserves_the_pool() {
        let mut pad = PadRemapper::new(vec![200, 201], 8);
        for i in 0..8u64 {
            pad.note_write(LineAddr::new(5 * 64 + i));
        }
        assert_eq!(pad.wear_swaps(), 1);
        // Hot page 5 rotated into frame 201; its vacated home page
        // returned to the pool, so spare capacity is conserved.
        assert_eq!(pad.map(LineAddr::new(5 * 64)).page(), 201);
        assert_eq!(pad.frames_left(), 2);
        // The returned page is safe to hand to a later fault: only the
        // reserved frame occupant sits there.
        assert_eq!(pad.remap_faulty(40), Some(true));
        assert_eq!(pad.frame_of(40), 5);
        assert_eq!(pad.map(LineAddr::new(40 * 64)).page(), 5);
        // Hot traffic still lands in its frame.
        assert_eq!(pad.map(LineAddr::new(5 * 64)).page(), 201);
    }

    #[test]
    fn pad_permutation_stays_a_bijection() {
        let mut pad = PadRemapper::new(vec![200, 201, 202], 5);
        let mut x = 7u64;
        for i in 0..400u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let page = 100 + x % 50;
            pad.note_write(LineAddr::new(page * 64 + x % 64));
            if i % 97 == 0 {
                pad.remap_faulty(page);
            }
        }
        let mut seen = BTreeSet::new();
        for page in (100..150).chain([200u64, 201, 202]) {
            assert!(seen.insert(pad.map(LineAddr::new(page * 64)).page()));
        }
    }

    #[test]
    fn shared_pad_is_seen_by_all_clones() {
        let pad = SharedPadRemapper::new(vec![400], 1_000);
        let clone = pad.clone();
        assert_eq!(pad.remap_faulty(77), Some(true));
        assert_eq!(clone.map(LineAddr::new(77 * 64)).page(), 400);
        assert_eq!(clone.with(|p| p.fault_swaps()), 1);
    }

    #[test]
    fn backend_dispatch_covers_both_kinds() {
        let mut retire = RemapBackend::Retire(SharedRetirePool::with_spares(vec![300]));
        let mut pad = RemapBackend::Pad(SharedPadRemapper::new(vec![300], 1_000));
        for backend in [&mut retire, &mut pad] {
            assert_eq!(backend.on_fault(10), Some(true));
            assert_eq!(backend.frame_of(10), 300);
            assert_eq!(backend.map(LineAddr::new(10 * 64 + 2)).page(), 300);
            assert_eq!(backend.note_write(LineAddr::new(10 * 64)).len(), 1);
        }
        assert_eq!(retire.name(), "retire-remap");
        assert_eq!(pad.name(), "pad-remap");
    }

    #[test]
    fn remap_kind_round_trips_names() {
        for kind in RemapKind::ALL {
            assert_eq!(kind.name().parse::<RemapKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!("pad-remap".parse::<RemapKind>().unwrap(), RemapKind::Pad);
        assert!("bogus".parse::<RemapKind>().is_err());
    }
}
