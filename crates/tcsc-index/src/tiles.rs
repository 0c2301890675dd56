//! The spatial tile grid over a domain: its layout ([`ShardGridConfig`]) and
//! the one rule that maps a location to its tile ([`TileRouter`]), shared by
//! [`crate::ShardedWorkerIndex`] and the simulated cluster's dispatcher.

use tcsc_core::{Domain, Location};

/// Shard-grid layout: how many spatial tiles per axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardGridConfig {
    /// Number of tiles along the x axis (min 1).
    pub tiles_x: usize,
    /// Number of tiles along the y axis (min 1).
    pub tiles_y: usize,
    /// Ignored: tiles span every slot.  The field remains so that existing
    /// struct literals still compile.
    pub time_splits: usize,
}

impl ShardGridConfig {
    /// A `tiles_x x tiles_y` spatial grid.
    pub fn new(tiles_x: usize, tiles_y: usize) -> Self {
        Self {
            tiles_x: tiles_x.max(1),
            tiles_y: tiles_y.max(1),
            time_splits: 1,
        }
    }

    /// Number of spatial tiles.
    pub fn num_tiles(&self) -> usize {
        self.tiles_x * self.tiles_y
    }
}

impl Default for ShardGridConfig {
    /// An 8×8 spatial grid.
    fn default() -> Self {
        Self::new(8, 8)
    }
}

/// Maps locations to the tiles of a [`ShardGridConfig`] laid over a
/// [`Domain`].
///
/// Both tile counts are clamped to at least 1, so a struct literal with zero
/// tiles routes like the 1×1 grid.  Out-of-domain locations route to the
/// nearest border tile (the **border-clamp invariant**): negative offsets to
/// tile 0, offsets at or beyond the domain edge to the last tile.  Border
/// tiles are therefore unbounded on their grid-edge sides.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileRouter {
    pub(crate) grid: ShardGridConfig,
    /// Where tile `(0, 0)` starts: the domain's minimum corner.
    origin: Location,
    /// Tile extents, positive even over a degenerate domain.
    tile_w: f64,
    tile_h: f64,
}

impl TileRouter {
    /// The router of `grid` over `domain`.
    pub fn new(domain: &Domain, grid: ShardGridConfig) -> Self {
        let grid = ShardGridConfig::new(grid.tiles_x, grid.tiles_y);
        Self {
            grid,
            origin: domain.min,
            tile_w: (domain.width() / grid.tiles_x as f64).max(f64::MIN_POSITIVE),
            tile_h: (domain.height() / grid.tiles_y as f64).max(f64::MIN_POSITIVE),
        }
    }

    /// The tile coordinates `(tx, ty)` of a location.
    pub fn tile_of(&self, loc: &Location) -> (usize, usize) {
        let axis = |offset: f64, extent: f64, tiles: usize| {
            ((offset / extent).floor().max(0.0) as usize).min(tiles - 1)
        };
        (
            axis(loc.x - self.origin.x, self.tile_w, self.grid.tiles_x),
            axis(loc.y - self.origin.y, self.tile_h, self.grid.tiles_y),
        )
    }

    /// The row-major tile id of a location, in `0..tiles_x * tiles_y`.
    pub fn tile_id(&self, loc: &Location) -> usize {
        let (tx, ty) = self.tile_of(loc);
        ty * self.grid.tiles_x + tx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_clamp_to_one_and_locations_clamp_to_border_tiles() {
        let domain = Domain::new(Location::new(0.0, 0.0), Location::new(10.0, 10.0));
        let zero = ShardGridConfig {
            tiles_x: 0,
            tiles_y: 0,
            time_splits: 0,
        };
        let router = TileRouter::new(&domain, zero);
        assert_eq!(router.grid, ShardGridConfig::new(1, 1));
        assert_eq!(router.tile_id(&Location::new(7.0, 3.0)), 0);
        let router = TileRouter::new(&domain, ShardGridConfig::new(4, 2));
        assert_eq!(router.tile_of(&Location::new(-3.0, 4.0)), (0, 0));
        assert_eq!(router.tile_of(&Location::new(10.0, 10.0)), (3, 1));
        assert_eq!(router.tile_id(&Location::new(6.0, 7.0)), 4 + 2);
    }
}
