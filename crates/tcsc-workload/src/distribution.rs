//! Spatial distributions used to place TCSC tasks (Section V-A of the paper).
//!
//! The paper generates synthetic task locations with a public spatial data
//! generator following **uniform**, **Gaussian** and **Zipfian**
//! distributions, with the Gaussian mean at the domain centre and sigma set to
//! one sixth of the domain side length, and the Zipf exponent set to 1.  A
//! **clustered** distribution is also provided as the substitute for the
//! Beijing-POI "real" dataset (hot spots of points around a few centres).

use rand::Rng;
use tcsc_core::{Domain, Location};

/// A spatial distribution over a rectangular domain.
#[derive(Debug, Clone, PartialEq)]
pub enum SpatialDistribution {
    /// Uniform over the whole domain.
    Uniform,
    /// Gaussian around the domain centre with `sigma = side / 6` (points are
    /// re-sampled until they fall inside the domain, as the generator used in
    /// the paper keeps most samples within the domain).
    Gaussian,
    /// Zipfian: the domain is divided into a `grid x grid` lattice of cells
    /// whose popularity follows a Zipf law with the given exponent; a cell is
    /// drawn by popularity and the point is uniform within the cell.
    Zipf {
        /// Zipf exponent (the paper uses 1.0).
        exponent: f64,
        /// Lattice resolution per axis.
        grid: usize,
    },
    /// Clustered hot spots: `clusters` Gaussian blobs with the given relative
    /// spread, mimicking a POI dataset.
    Clustered {
        /// Number of hot spots.
        clusters: usize,
        /// Standard deviation of each blob as a fraction of the domain side.
        spread: f64,
    },
    /// Region-partitioned: the domain is divided into a `cols x rows` lattice
    /// of regions; a region is drawn uniformly and the point falls uniformly
    /// within the region's *interior*, shrunk by `margin` (a fraction of the
    /// region size per side).  Tasks therefore cluster strictly inside
    /// region cells and never sit on a region boundary — the workload shape
    /// the sharded index and the sharded engine are built for.
    RegionGrid {
        /// Regions along the x axis.
        cols: usize,
        /// Regions along the y axis.
        rows: usize,
        /// Interior margin per side as a fraction of the region size
        /// (clamped to `[0, 0.45]`).
        margin: f64,
    },
}

impl SpatialDistribution {
    /// The paper's default Zipf parameterisation (exponent 1).
    pub fn zipf_default() -> Self {
        Self::Zipf {
            exponent: 1.0,
            grid: 16,
        }
    }

    /// A `regions x regions` region-partitioned lattice with the default
    /// 15% interior margin.
    pub fn region_grid(regions: usize) -> Self {
        Self::RegionGrid {
            cols: regions.max(1),
            rows: regions.max(1),
            margin: 0.15,
        }
    }

    /// Human-readable label used by the benchmark harness output.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Uniform => "Uniform",
            Self::Gaussian => "Gaussian",
            Self::Zipf { .. } => "Zipfian",
            Self::Clustered { .. } => "Real(POI)",
            Self::RegionGrid { .. } => "Regions",
        }
    }

    /// Samples one location within `domain`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, domain: &Domain) -> Location {
        match self {
            Self::Uniform => Location::new(
                rng.gen_range(domain.min.x..=domain.max.x),
                rng.gen_range(domain.min.y..=domain.max.y),
            ),
            Self::Gaussian => {
                let center = domain.center();
                let sigma_x = domain.width() / 6.0;
                let sigma_y = domain.height() / 6.0;
                // Rejection sampling keeps the point inside the domain.
                for _ in 0..64 {
                    let (gx, gy) = gaussian_pair(rng);
                    let loc = Location::new(center.x + gx * sigma_x, center.y + gy * sigma_y);
                    if domain.contains(&loc) {
                        return loc;
                    }
                }
                domain.clamp(Location::new(center.x, center.y))
            }
            Self::Zipf { exponent, grid } => {
                let grid = (*grid).max(1);
                let rank = zipf_rank(rng, grid * grid, *exponent);
                // Map the rank to a cell via a fixed pseudo-random permutation
                // so that popular cells are scattered over the domain rather
                // than packed into a corner.
                let cell = permute(rank, grid * grid);
                let cx = cell % grid;
                let cy = cell / grid;
                let w = domain.width() / grid as f64;
                let h = domain.height() / grid as f64;
                Location::new(
                    domain.min.x + cx as f64 * w + rng.gen_range(0.0..w),
                    domain.min.y + cy as f64 * h + rng.gen_range(0.0..h),
                )
            }
            Self::Clustered { clusters, spread } => {
                let clusters = (*clusters).max(1);
                let c = rng.gen_range(0..clusters);
                let center = cluster_center(c, clusters, domain);
                let sigma = spread * domain.width().max(domain.height());
                let (gx, gy) = gaussian_pair(rng);
                domain.clamp(Location::new(center.x + gx * sigma, center.y + gy * sigma))
            }
            Self::RegionGrid { cols, rows, margin } => {
                let cols = (*cols).max(1);
                let rows = (*rows).max(1);
                let margin = margin.clamp(0.0, 0.45);
                let region = rng.gen_range(0..cols * rows);
                let (cx, cy) = (region % cols, region / cols);
                let w = domain.width() / cols as f64;
                let h = domain.height() / rows as f64;
                let x_lo = domain.min.x + (cx as f64 + margin) * w;
                let x_hi = domain.min.x + (cx as f64 + 1.0 - margin) * w;
                let y_lo = domain.min.y + (cy as f64 + margin) * h;
                let y_hi = domain.min.y + (cy as f64 + 1.0 - margin) * h;
                Location::new(rng.gen_range(x_lo..x_hi), rng.gen_range(y_lo..y_hi))
            }
        }
    }

    /// Samples `count` locations.
    pub fn sample_many<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        domain: &Domain,
        count: usize,
    ) -> Vec<Location> {
        (0..count).map(|_| self.sample(rng, domain)).collect()
    }
}

/// A standard normal pair via the Box–Muller transform.
fn gaussian_pair<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    (r * theta.cos(), r * theta.sin())
}

/// Draws a 0-based rank from a Zipf distribution over `n` items.
fn zipf_rank<R: Rng + ?Sized>(rng: &mut R, n: usize, exponent: f64) -> usize {
    debug_assert!(n > 0);
    // Inverse-CDF sampling over the (small) discrete support.
    let weights: Vec<f64> = (1..=n).map(|i| 1.0 / (i as f64).powf(exponent)).collect();
    let total: f64 = weights.iter().sum();
    let mut target = rng.gen_range(0.0..total);
    for (i, w) in weights.iter().enumerate() {
        if target < *w {
            return i;
        }
        target -= w;
    }
    n - 1
}

/// A fixed pseudo-random permutation of `0..n` (splitmix-style hashing with
/// retry), so that Zipf-popular cells are spread over the lattice.
fn permute(index: usize, n: usize) -> usize {
    let mut x = index as u64 ^ 0x9E3779B97F4A7C15;
    for _ in 0..3 {
        x = x.wrapping_mul(0xBF58476D1CE4E5B9);
        x ^= x >> 27;
    }
    (x % n as u64) as usize
}

/// Deterministic, well-spread cluster centres for the POI-like distribution.
fn cluster_center(index: usize, clusters: usize, domain: &Domain) -> Location {
    // Place the centres on a sunflower-like spiral so that any number of
    // clusters is spread over the domain.
    let golden = std::f64::consts::PI * (3.0 - 5f64.sqrt());
    let t = (index as f64 + 0.5) / clusters as f64;
    let r = 0.42 * t.sqrt();
    let theta = golden * index as f64;
    let c = domain.center();
    domain.clamp(Location::new(
        c.x + r * theta.cos() * domain.width(),
        c.y + r * theta.sin() * domain.height(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The POI-like clustered substitute for the "real dataset" series.
    fn poi_like() -> SpatialDistribution {
        SpatialDistribution::Clustered {
            clusters: 8,
            spread: 0.04,
        }
    }

    fn domain() -> Domain {
        Domain::square(100.0)
    }

    #[test]
    fn all_distributions_stay_inside_the_domain() {
        let mut rng = StdRng::seed_from_u64(7);
        let d = domain();
        for dist in [
            SpatialDistribution::Uniform,
            SpatialDistribution::Gaussian,
            SpatialDistribution::zipf_default(),
            poi_like(),
        ] {
            for loc in dist.sample_many(&mut rng, &d, 500) {
                assert!(d.contains(&loc), "{} produced {loc}", dist.label());
            }
        }
    }

    #[test]
    fn uniform_covers_all_quadrants() {
        let mut rng = StdRng::seed_from_u64(11);
        let d = domain();
        let pts = SpatialDistribution::Uniform.sample_many(&mut rng, &d, 2000);
        let mut quadrants = [0usize; 4];
        for p in pts {
            let q = (p.x > 50.0) as usize + 2 * (p.y > 50.0) as usize;
            quadrants[q] += 1;
        }
        for (i, count) in quadrants.iter().enumerate() {
            assert!(*count > 300, "quadrant {i} only got {count} points");
        }
    }

    #[test]
    fn gaussian_concentrates_around_the_center() {
        let mut rng = StdRng::seed_from_u64(13);
        let d = domain();
        let pts = SpatialDistribution::Gaussian.sample_many(&mut rng, &d, 2000);
        let center = d.center();
        let close = pts.iter().filter(|p| p.distance(&center) < 35.0).count();
        // With sigma ≈ 16.7, the vast majority falls within ~2 sigma.
        assert!(close > 1700, "only {close} of 2000 near the center");
    }

    #[test]
    fn zipf_is_more_skewed_than_uniform() {
        let mut rng = StdRng::seed_from_u64(17);
        let d = domain();
        let cell_of = |p: &Location| {
            let cx = (p.x / 25.0).floor().min(3.0) as usize;
            let cy = (p.y / 25.0).floor().min(3.0) as usize;
            cy * 4 + cx
        };
        let count_max = |pts: &[Location]| {
            let mut counts = [0usize; 16];
            for p in pts {
                counts[cell_of(p)] += 1;
            }
            *counts.iter().max().unwrap()
        };
        let uniform = SpatialDistribution::Uniform.sample_many(&mut rng, &d, 3000);
        let zipf = SpatialDistribution::zipf_default().sample_many(&mut rng, &d, 3000);
        assert!(
            count_max(&zipf) > count_max(&uniform) * 2,
            "zipf max bucket {} not clearly above uniform max bucket {}",
            count_max(&zipf),
            count_max(&uniform)
        );
    }

    #[test]
    fn clustered_points_form_hot_spots() {
        let mut rng = StdRng::seed_from_u64(19);
        let d = domain();
        let pts = poi_like().sample_many(&mut rng, &d, 1000);
        // Count points within 10 units of each cluster centre.
        let mut near_any = 0usize;
        for p in &pts {
            for c in 0..8 {
                if p.distance(&cluster_center(c, 8, &d)) < 12.0 {
                    near_any += 1;
                    break;
                }
            }
        }
        assert!(near_any > 900, "only {near_any} of 1000 near a hot spot");
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let d = domain();
        let a = SpatialDistribution::Gaussian.sample_many(&mut StdRng::seed_from_u64(5), &d, 10);
        let b = SpatialDistribution::Gaussian.sample_many(&mut StdRng::seed_from_u64(5), &d, 10);
        assert_eq!(a, b);
    }

    #[test]
    fn region_grid_points_avoid_region_boundaries() {
        let mut rng = StdRng::seed_from_u64(31);
        let d = domain();
        let dist = SpatialDistribution::region_grid(4);
        for p in dist.sample_many(&mut rng, &d, 2000) {
            assert!(d.contains(&p));
            // 4x4 regions of a 100-unit domain: region size 25, margin 15%
            // => every coordinate stays >= 3.75 away from any multiple of 25.
            for c in [p.x, p.y] {
                let offset = c.rem_euclid(25.0);
                let to_boundary = offset.min(25.0 - offset);
                assert!(
                    to_boundary >= 3.75 - 1e-9,
                    "{p} lies within the margin of a region boundary"
                );
            }
        }
    }

    #[test]
    fn region_grid_covers_every_region() {
        let mut rng = StdRng::seed_from_u64(37);
        let d = domain();
        let dist = SpatialDistribution::region_grid(3);
        let mut seen = [false; 9];
        for p in dist.sample_many(&mut rng, &d, 500) {
            let cx = (p.x / (100.0 / 3.0)).floor().min(2.0) as usize;
            let cy = (p.y / (100.0 / 3.0)).floor().min(2.0) as usize;
            seen[cy * 3 + cx] = true;
        }
        assert!(seen.iter().all(|&s| s), "some region received no tasks");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(SpatialDistribution::Uniform.label(), "Uniform");
        assert_eq!(SpatialDistribution::Gaussian.label(), "Gaussian");
        assert_eq!(SpatialDistribution::zipf_default().label(), "Zipfian");
        assert_eq!(poi_like().label(), "Real(POI)");
        assert_eq!(SpatialDistribution::region_grid(4).label(), "Regions");
    }
}
