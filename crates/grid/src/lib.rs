//! # sj-grid
//!
//! The Simple Grid spatial index in both of the paper's incarnations:
//!
//! - the **original** implementation from the PVLDB'13 framework
//!   (Figure 3a): 16-byte directory cells, bucket lists of 24-byte
//!   doubly-linked entry nodes, and a query algorithm that scans the whole
//!   directory (Algorithm 1);
//! - the **refactored** implementation of the paper (Figure 3b):
//!   pointer-only 8-byte cells, entries inline in buckets, overlap-range
//!   queries (Algorithm 2), re-tuned to bs = 20 / cps = 64.
//!
//! The five cumulative improvement [`Stage`]s reproduce Table 2's lower
//! half and Figure 4. Arenas are flat `u64` pools with slot-index handles,
//! giving the same hop counts and byte footprints as the C++ originals
//! without `unsafe` (see DESIGN.md §4). Every refactored layout runs on one
//! bucket arena, [`InlineStore`]: one slot per entry for Figure 3b, two
//! for the coordinate-inlining extension ([`Layout::InlineCoords`]).
//!
//! The paper's Figure 3, in bytes:
//!
//! ```text
//!  (a) Original                           (b) Refactored
//!  directory cell (16 B)                  directory cell (8 B)
//!  ┌─────────┬─────────┐                  ┌─────────┐
//!  │ count   │ bucket* │                  │ bucket* │
//!  └─────────┴────┬────┘                  └────┬────┘
//!                 ▼                            ▼
//!  bucket (32 B)                          bucket (16 B + bs×8 B)
//!  ┌──────┬──────┬──────┬─────┐           ┌──────┬─────┬────┬────┬────┐
//!  │ next*│ head*│ tail*│ len │           │ next*│ len │ e0 │ e1 │ …  │
//!  └──┬───┴──┬───┴──────┴─────┘           └──┬───┴─────┴────┴────┴────┘
//!     ▼      ▼                               ▼ (next bucket)
//!   next   node (24 B, one per point!)
//!  bucket  ┌──────┬──────┬───────┐
//!          │ prev*│ next*│ entry │ → base table
//!          └──────┴──────┴───────┘
//!
//!  per point at bs=4:  24 + 32/4 = 32 B              8 + 16/4 = 12 B
//! ```
//!
//! [`IncrementalGrid`] is the update-in-place u-Grid of the paper's
//! reference \[8\], as an extension: the tuned grid, whose build diffs the
//! table against the last one into the same arena instead of rebuilding
//! it, and whose queries are the tuned grid's.

mod addr;
mod config;
mod grid;
mod incremental;
mod layout_inline;
mod layout_original;

pub use config::{GridConfig, Layout, QueryAlgo, Stage};
pub use grid::SimpleGrid;
pub use incremental::IncrementalGrid;
pub use layout_inline::InlineStore;
pub use layout_original::{OriginalStore, NULL};
