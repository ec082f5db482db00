//! Write-endurance tracking and lifetime projection.
//!
//! MLC PCM's write endurance is one of its headline weaknesses (§1: MLC
//! "has shorter write endurance" than SLC). The budgeting schemes do not
//! change how *many* cells are written, but the cell-mapping optimizations
//! and wear leveling change *where* — so an adopter evaluating FPB needs
//! per-chip and per-region wear accounting and a lifetime projection. This
//! module provides both, at a configurable coarse granularity so tracking
//! a 4 GB part stays cheap.

use fpb_types::LineAddr;

/// Tracks cell-write volume per chip and per coarse line region, and
/// projects device lifetime against a per-cell endurance budget.
///
/// # Examples
///
/// ```
/// use fpb_pcm::endurance::EnduranceTracker;
/// use fpb_types::LineAddr;
///
/// // 1024 lines tracked in 16 regions, 8 chips, 10^6 writes/cell.
/// let mut t = EnduranceTracker::new(1024, 16, 8, 1_000_000);
/// t.record_write(LineAddr::new(3), &[10, 0, 0, 0, 0, 0, 0, 2]);
/// assert_eq!(t.chip_cells_written(0), 10);
/// assert_eq!(t.total_cells_written(), 12);
/// assert!(t.hottest_region().1 > 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnduranceTracker {
    lines_per_region: u64,
    per_region: Vec<u64>,
    per_chip: Vec<u64>,
    cells_per_line_per_chip: u64,
    endurance: u64,
}

impl EnduranceTracker {
    /// Creates a tracker for `total_lines` lines grouped into `regions`
    /// regions, over `chips` chips, with a per-cell `endurance` budget
    /// (typically 10^6–10^8 for PCM).
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero or `regions > total_lines`.
    pub fn new(total_lines: u64, regions: usize, chips: u8, endurance: u64) -> Self {
        assert!(total_lines > 0 && regions > 0 && chips > 0 && endurance > 0);
        assert!(regions as u64 <= total_lines, "more regions than lines");
        EnduranceTracker {
            lines_per_region: total_lines.div_ceil(regions as u64),
            per_region: vec![0; regions],
            per_chip: vec![0; chips as usize],
            cells_per_line_per_chip: 128,
            endurance,
        }
    }

    /// Like [`EnduranceTracker::new`], with the cells per line per chip
    /// used for wear-density math given explicitly (`new` assumes the
    /// baseline's 128: 1024 cells over 8 chips), and `None` wherever
    /// `new` would panic or `cells_per_chip` is zero — for geometry that
    /// arrives as data (a recorded run's header) rather than from a
    /// validated config.
    pub fn try_new(
        total_lines: u64,
        regions: usize,
        chips: u8,
        endurance: u64,
        cells_per_chip: u64,
    ) -> Option<Self> {
        if regions == 0 || regions as u64 > total_lines {
            return None;
        }
        EnduranceTracker::from_parts(
            total_lines.div_ceil(regions as u64),
            vec![0; regions],
            vec![0; usize::from(chips)],
            cells_per_chip,
            endurance,
        )
    }

    /// Records one completed line write's per-chip changed-cell counts.
    ///
    /// # Panics
    ///
    /// Panics if `per_chip_cells` length differs from the chip count.
    pub fn record_write(&mut self, line: LineAddr, per_chip_cells: &[u32]) {
        assert_eq!(per_chip_cells.len(), self.per_chip.len(), "chip count");
        let total: u64 = per_chip_cells.iter().map(|&c| c as u64).sum();
        let region = (line.get() / self.lines_per_region) as usize % self.per_region.len();
        self.per_region[region] += total;
        for (acc, &c) in self.per_chip.iter_mut().zip(per_chip_cells) {
            *acc += c as u64;
        }
    }

    /// Total cells written on chip `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn chip_cells_written(&self, i: usize) -> u64 {
        self.per_chip[i]
    }

    /// Total cells written across the device.
    pub fn total_cells_written(&self) -> u64 {
        self.per_chip.iter().sum()
    }

    /// Cells written so far in the wear region containing `line` (the wear
    /// signal endurance-triggered fault models key off).
    pub fn region_cells_written(&self, line: LineAddr) -> u64 {
        let region = (line.get() / self.lines_per_region) as usize % self.per_region.len();
        self.per_region[region]
    }

    /// `(region index, cells written)` of the most-worn region, or
    /// `(0, 0)` for a zero-region device.
    pub fn hottest_region(&self) -> (usize, u64) {
        self.per_region
            .iter()
            .copied()
            .enumerate()
            .max_by_key(|&(_, v)| v)
            .unwrap_or((0, 0))
    }

    /// Max-over-mean chip wear (1.0 = perfectly even; what VIM/BIM and
    /// wear leveling improve).
    pub fn chip_imbalance(&self) -> f64 {
        if self.per_chip.is_empty() {
            return 1.0;
        }
        let max = self.per_chip.iter().copied().max().unwrap_or(0) as f64;
        let mean = self.total_cells_written() as f64 / self.per_chip.len() as f64;
        // `mean` is an integer sum over a nonzero count: it is exactly 0.0
        // iff no cells were written, so exact equality is the right guard.
        // fpb-lint: allow(float_eq)
        if mean == 0.0 {
            0.0
        } else {
            max / mean
        }
    }

    /// Decomposes the tracker into its raw accumulator state, in the
    /// order [`EnduranceTracker::from_parts`] consumes:
    /// `(lines_per_region, per_region, per_chip, cells_per_line_per_chip,
    /// endurance)`. Exists for exact persistence (the sweep result cache
    /// stores trackers as flat integers and must round-trip them
    /// bit-for-bit).
    pub fn to_parts(&self) -> (u64, Vec<u64>, Vec<u64>, u64, u64) {
        (
            self.lines_per_region,
            self.per_region.clone(),
            self.per_chip.clone(),
            self.cells_per_line_per_chip,
            self.endurance,
        )
    }

    /// Rebuilds a tracker from [`EnduranceTracker::to_parts`] output.
    /// Returns `None` instead of panicking when the parts violate the
    /// constructor invariants (zero sizes, empty vectors) — callers are
    /// deserializing untrusted bytes and must treat a bad record as a
    /// cache miss, not a crash.
    pub fn from_parts(
        lines_per_region: u64,
        per_region: Vec<u64>,
        per_chip: Vec<u64>,
        cells_per_line_per_chip: u64,
        endurance: u64,
    ) -> Option<Self> {
        if lines_per_region == 0
            || per_region.is_empty()
            || per_chip.is_empty()
            || cells_per_line_per_chip == 0
            || endurance == 0
        {
            return None;
        }
        Some(EnduranceTracker {
            lines_per_region,
            per_region,
            per_chip,
            cells_per_line_per_chip,
            endurance,
        })
    }

    /// Projects device lifetime as a multiple of the observation window:
    /// how many times the observed write volume could repeat before the
    /// hottest region's *average cell* exhausts its endurance. Returns
    /// `f64::INFINITY` when nothing was written.
    ///
    /// This is an average-wear projection (it assumes intra-region
    /// leveling); hot single cells die earlier without it.
    pub fn lifetime_multiple(&self) -> f64 {
        let (_, hottest) = self.hottest_region();
        if hottest == 0 {
            return f64::INFINITY;
        }
        let region_cells =
            self.lines_per_region * self.cells_per_line_per_chip * self.per_chip.len() as u64;
        let writes_per_cell = hottest as f64 / region_cells as f64;
        self.endurance as f64 / writes_per_cell
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker() -> EnduranceTracker {
        EnduranceTracker::new(1024, 16, 8, 1_000_000)
    }

    #[test]
    fn accumulates_per_chip_and_region() {
        let mut t = tracker();
        t.record_write(LineAddr::new(0), &[1, 2, 3, 4, 0, 0, 0, 0]);
        t.record_write(LineAddr::new(1), &[1, 0, 0, 0, 0, 0, 0, 9]);
        assert_eq!(t.chip_cells_written(0), 2);
        assert_eq!(t.chip_cells_written(7), 9);
        assert_eq!(t.total_cells_written(), 20);
        // Lines 0 and 1 are in region 0 (64 lines per region).
        assert_eq!(t.hottest_region(), (0, 20));
    }

    #[test]
    fn imbalance_reflects_distribution() {
        let mut even = tracker();
        even.record_write(LineAddr::new(0), &[10; 8]);
        assert!((even.chip_imbalance() - 1.0).abs() < 1e-12);

        let mut skew = tracker();
        skew.record_write(LineAddr::new(0), &[80, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(skew.chip_imbalance(), 8.0);
    }

    #[test]
    fn lifetime_scales_inversely_with_wear() {
        let mut t = tracker();
        t.record_write(LineAddr::new(0), &[100; 8]);
        let l1 = t.lifetime_multiple();
        t.record_write(LineAddr::new(0), &[100; 8]);
        let l2 = t.lifetime_multiple();
        assert!(l1.is_finite() && l2.is_finite());
        assert!((l1 / l2 - 2.0).abs() < 1e-9, "double wear halves lifetime");
        assert_eq!(tracker().lifetime_multiple(), f64::INFINITY);
    }

    #[test]
    fn hot_region_dominates_lifetime() {
        // Same total volume, concentrated vs spread: concentration must
        // shorten the projection.
        let mut spread = tracker();
        for r in 0..16u64 {
            spread.record_write(LineAddr::new(r * 64), &[10; 8]);
        }
        let mut hot = tracker();
        for _ in 0..16 {
            hot.record_write(LineAddr::new(0), &[10; 8]);
        }
        assert!(hot.lifetime_multiple() < spread.lifetime_multiple());
    }

    #[test]
    #[should_panic(expected = "chip count")]
    fn wrong_chip_count_panics() {
        let mut t = tracker();
        t.record_write(LineAddr::new(0), &[1, 2]);
    }

    #[test]
    fn try_new_matches_new_and_refuses_what_new_rejects() {
        assert_eq!(EnduranceTracker::try_new(1024, 16, 8, 1_000_000, 128), Some(tracker()));
        assert_eq!(
            EnduranceTracker::try_new(1000, 16, 8, 1_000_000, 64).map(|t| t.to_parts()),
            Some((63, vec![0; 16], vec![0; 8], 64, 1_000_000))
        );
        for (lines, regions, chips, endurance, cells) in [
            (0, 16, 8, 1_000_000, 64),
            (1024, 0, 8, 1_000_000, 64),
            (1024, 16, 0, 1_000_000, 64),
            (1024, 16, 8, 0, 64),
            (1024, 16, 8, 1_000_000, 0),
            (15, 16, 8, 1_000_000, 64),
        ] {
            assert_eq!(EnduranceTracker::try_new(lines, regions, chips, endurance, cells), None);
        }
    }

    #[test]
    fn region_mapping_wraps_safely() {
        let mut t = EnduranceTracker::new(100, 16, 8, 1_000_000);
        // Line addresses beyond total_lines still land in a valid region.
        t.record_write(LineAddr::new(1_000_000), &[1; 8]);
        assert_eq!(t.total_cells_written(), 8);
    }
}
