//! # simcov-gpu — the multinode, multi-device SIMCoV-GPU implementation
//!
//! The paper's primary contribution (§3), built on the `gpusim` simulated
//! device substrate and the `pgas` runtime:
//!
//! * **Bid-based T-cell algorithm** (§3.1, Fig. 2): every T cell chooses a
//!   target and a 64-bit random bid; bids are stored at the target voxel,
//!   one halo wave max-merges the contributions of all devices holding the
//!   voxel, and every device independently resolves the same winner — no
//!   second communication wave.
//! * **Memory tiling** (§3.2, Fig. 3): a tiling of the device's row-major
//!   halo box with active-tile tracking, a periodic sweep (period ≤ tile
//!   side) and a one-tile activation buffer; tiles holding in-grid ghost
//!   voxels, and the buffer around them, are always active.
//! * **Fast reduction** (§3.3): per-step statistics via a shared-memory
//!   tree reduction with one global atomic per block per lane, replacing
//!   per-element atomics.
//!
//! The four §3.4 profiling variants ([`GpuVariant`]) toggle the two
//! optimizations independently; all four produce **bitwise identical**
//! simulation trajectories (only the metered cost differs), and all match
//! the serial reference and the CPU baseline exactly.

pub mod device;
pub mod msg;
pub mod sim;
pub mod tiles;
pub mod variants;

pub use device::GpuDevice;
pub use msg::{BidCell, GpuMsg, HaloCell};
pub use sim::{max_device_link, GpuKnobs, GpuSim, GpuSimConfig};
pub use tiles::{TileLayout, TileTracker};
pub use variants::GpuVariant;
