//! # tioga2-viewer
//!
//! The viewer runtime of Tioga-2 (paper §2, §3, §6, §7).
//!
//! A viewer translates a displayable into screen output.  For an
//! n-dimensional input it holds an (n+1)-dimensional position: pan in the
//! two screen dimensions, a slider range per remaining dimension, and an
//! **elevation** controlled by zooming.  This crate implements:
//!
//! * [`render_pass`] — lowering a composite to a render `Scene` with
//!   elevation-range culling, visible-region culling and slider
//!   filtering (the invariance rule for layers lacking a dimension,
//!   §6.1), and [`render_view`], the one traced compose + draw pass
//!   every viewer kind renders through: canvases, magnifying glasses,
//!   group members and rear view mirrors (§6.3),
//! * [`Viewer`] — one canvas window with pan/zoom/slider state,
//! * [`slaving`] — §7.1: viewers constrained to move together,
//! * [`magnifier`] — §7.2: viewers within viewers,
//! * [`group`] — rendering stitched/replicated groups with per-member
//!   focus and window-operation propagation (§7.3),
//! * [`index`] — a uniform-grid spatial index accelerating the visible-
//!   region browsing query (the paper's \\[Che95\\] pointer).

pub mod error;
pub mod group;
pub mod index;
pub mod magnifier;
pub mod render_pass;
pub mod slaving;
pub mod viewer;
pub mod widgets;
pub mod window;

pub use error::ViewError;
pub use index::{compose_scene_indexed, SpatialIndex};
pub use render_pass::{compose_scene, data_bounds, render_view, CullOptions, Slider};
pub use viewer::{Viewer, ViewerPosition};
pub use window::window_predicate;
