//! The Fig-5 plan-vector layout, parameterized by platform count and
//! operator-kind count.
//!
//! Cell blocks (all additive under subplan merge unless noted):
//!
//! | block | cells | content |
//! |---|---|---|
//! | global | 4 | op count, juncture count, max output cardinality (**max**), max tuple width (**max**) |
//! | per kind | 3·K | instance count, sum of input tuples, sum of output tuples |
//! | per kind × platform | K·k | instance count on that platform |
//! | per platform conversion | 2·k | conversion count into platform, converted tuples |
//! | per platform input | k | effective input tuples processed on platform |
//!
//! The two **max** cells are the merge kernel's exception cells (DESIGN §5).

/// Layout of one plan-vector row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureLayout {
    pub n_platforms: usize,
    pub n_kinds: usize,
    pub width: usize,
}

impl FeatureLayout {
    /// Cell 0: number of operators in the subplan.
    pub const OP_COUNT: usize = 0;
    /// Cell 1: number of juncture operators (fan-in/out > 1).
    pub const JUNCTURE_COUNT: usize = 1;
    /// Cell 2: maximum output cardinality over the subplan (**max** cell).
    pub const MAX_OUT_CARD: usize = 2;
    /// Cell 3: maximum tuple width over the subplan (**max** cell).
    pub const MAX_TUPLE_WIDTH: usize = 3;
    const GLOBAL_CELLS: usize = 4;

    pub fn new(n_platforms: usize, n_kinds: usize) -> Self {
        assert!((1..=8).contains(&n_platforms));
        let width = Self::GLOBAL_CELLS + 3 * n_kinds + n_kinds * n_platforms + 3 * n_platforms;
        FeatureLayout {
            n_platforms,
            n_kinds,
            width,
        }
    }

    /// Instance count of operator kind `kind`.
    #[inline]
    pub fn kind_count(&self, kind: usize) -> usize {
        Self::GLOBAL_CELLS + kind * 3
    }

    /// Sum of input tuples over operators of `kind`.
    #[inline]
    pub fn kind_in_tuples(&self, kind: usize) -> usize {
        Self::GLOBAL_CELLS + kind * 3 + 1
    }

    /// Sum of output tuples over operators of `kind`.
    #[inline]
    pub fn kind_out_tuples(&self, kind: usize) -> usize {
        Self::GLOBAL_CELLS + kind * 3 + 2
    }

    /// Instance count of `kind` assigned to `platform`.
    #[inline]
    pub fn kind_platform_count(&self, kind: usize, platform: usize) -> usize {
        Self::GLOBAL_CELLS + 3 * self.n_kinds + kind * self.n_platforms + platform
    }

    /// Number of data-movement conversions *into* `platform`.
    #[inline]
    pub fn conversion_count(&self, platform: usize) -> usize {
        Self::GLOBAL_CELLS + 3 * self.n_kinds + self.n_kinds * self.n_platforms + 2 * platform
    }

    /// Tuples moved by conversions *into* `platform`.
    #[inline]
    pub fn conversion_tuples(&self, platform: usize) -> usize {
        self.conversion_count(platform) + 1
    }

    /// Effective input tuples processed on `platform`.
    #[inline]
    pub fn platform_input_tuples(&self, platform: usize) -> usize {
        Self::GLOBAL_CELLS
            + 3 * self.n_kinds
            + self.n_kinds * self.n_platforms
            + 2 * self.n_platforms
            + platform
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_are_disjoint_and_cover_width() {
        let l = FeatureLayout::new(3, 24);
        let mut seen = vec![false; l.width];
        let mut mark = |i: usize| {
            assert!(!seen[i], "cell {i} assigned twice");
            seen[i] = true;
        };
        for c in 0..4 {
            mark(c);
        }
        for kind in 0..24 {
            mark(l.kind_count(kind));
            mark(l.kind_in_tuples(kind));
            mark(l.kind_out_tuples(kind));
            for p in 0..3 {
                mark(l.kind_platform_count(kind, p));
            }
        }
        for p in 0..3 {
            mark(l.conversion_count(p));
            mark(l.conversion_tuples(p));
            mark(l.platform_input_tuples(p));
        }
        assert!(seen.iter().all(|&s| s), "layout leaves unused cells");
    }
}
