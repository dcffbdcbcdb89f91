//! ReRAM main-memory organization: geometry, physical address mapping,
//! timing parameters, content store and the simulator's time base.
//!
//! This crate holds everything about the memory *module* that is
//! independent of any write-optimization scheme: how 64 B lines stripe over
//! mats and chips (paper Fig. 3), how pages group into wordline groups, and
//! the fixed access timings from Table 2. The scheme-dependent part — how
//! long the variable `tWR` is — lives in `ladder-xbar` (the physics) and
//! `ladder-core`/`ladder-baselines` (the policies).
//!
//! # Examples
//!
//! ```
//! use ladder_reram::{AddressMap, Geometry, LineAddr};
//!
//! let map = AddressMap::new(Geometry::default());
//! let (wordline, worst_col) = map.write_location(LineAddr::new(130));
//! // Line 130 is slot 2 of its page: bits 16..24 of each mat wordline.
//! assert_eq!(worst_col, 23);
//! assert!(wordline < 512);
//! ```

mod address;
pub mod bits;
mod geometry;
mod store;
mod time;
mod timing;
mod topology;

pub use address::{AddressMap, Decoded, Interleave, LineAddr, WlgId};
pub use geometry::{Geometry, LINES_PER_WLG, LINE_BYTES, MAX_BANKS_PER_CHANNEL, PAGE_BYTES};
pub use store::{line_ones, FaultMask, LineData, LineHasher, LineMap, LineStore};
pub use time::{EventQueue, Instant, Picos};
pub use timing::DeviceTiming;
pub use topology::Topology;
