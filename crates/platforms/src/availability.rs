//! The execution-operator **availability matrix**: operator kind × platform.
//!
//! RHEEMix (Kruse et al.) models which execution operators each platform
//! provides for every logical operator; enumeration must never place an
//! operator on a platform with no implementation. The matrix is a compact
//! `u8` bitmask per operator kind (one bit per platform, so
//! [`crate::registry::MAX_PLATFORMS`] = 8 bounds the registry size), read
//! on the enumeration hot path when singleton rows are seeded.

use robopt_plan::{OperatorKind, N_OPERATOR_KINDS};

use crate::registry::{PlatformId, MAX_PLATFORMS};

/// Bitmask availability matrix: `mask[kind]` has bit `p` set iff `kind`
/// can execute on platform index `p`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AvailabilityMatrix {
    n_platforms: usize,
    masks: [u8; N_OPERATOR_KINDS],
}

impl AvailabilityMatrix {
    /// Every kind available on every one of the `n_platforms` platforms.
    pub fn all_available(n_platforms: usize) -> Self {
        assert!(
            (1..=MAX_PLATFORMS).contains(&n_platforms),
            "availability matrix supports 1..={MAX_PLATFORMS} platforms"
        );
        let full = if n_platforms == 8 {
            u8::MAX
        } else {
            (1u8 << n_platforms) - 1
        };
        AvailabilityMatrix {
            n_platforms,
            masks: [full; N_OPERATOR_KINDS],
        }
    }

    /// Number of platform columns.
    #[inline]
    pub fn n_platforms(&self) -> usize {
        self.n_platforms
    }

    /// Set one (kind, platform) cell.
    pub fn set(&mut self, kind: OperatorKind, platform: PlatformId, available: bool) {
        debug_assert!(
            platform.index() < self.n_platforms,
            "{platform} out of range for {} platforms",
            self.n_platforms
        );
        let bit = 1u8 << platform.index();
        if available {
            self.masks[kind.index()] |= bit;
        } else {
            self.masks[kind.index()] &= !bit;
        }
    }

    /// Restrict `platform` to exactly `kinds` (all other kinds cleared).
    pub fn restrict_platform(&mut self, platform: PlatformId, kinds: &[OperatorKind]) {
        for kind in OperatorKind::ALL {
            self.set(kind, platform, kinds.contains(&kind));
        }
    }

    /// Restrict `kind` to exactly `platforms` (all other platforms cleared).
    pub fn restrict_kind(&mut self, kind: OperatorKind, platforms: &[PlatformId]) {
        let mut mask = 0u8;
        for &p in platforms {
            debug_assert!(p.index() < self.n_platforms);
            mask |= 1u8 << p.index();
        }
        self.masks[kind.index()] = mask;
    }

    /// Can `kind` execute on `platform`?
    #[inline]
    pub fn is_available(&self, kind: OperatorKind, platform: PlatformId) -> bool {
        debug_assert!(
            platform.index() < self.n_platforms,
            "{platform} out of range for {} platforms",
            self.n_platforms
        );
        self.masks[kind.index()] & (1u8 << platform.index()) != 0
    }

    /// Number of platforms that can execute `kind`.
    #[cfg(test)]
    fn support_count(&self, kind: OperatorKind) -> u32 {
        self.masks[kind.index()].count_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_query_roundtrip() {
        let mut m = AvailabilityMatrix::all_available(3);
        let p1 = PlatformId::from_index(1);
        assert!(m.is_available(OperatorKind::Join, p1));
        m.set(OperatorKind::Join, p1, false);
        assert!(!m.is_available(OperatorKind::Join, p1));
        assert_eq!(m.support_count(OperatorKind::Join), 2);
        m.set(OperatorKind::Join, p1, true);
        assert_eq!(m.support_count(OperatorKind::Join), 3);
    }

    #[test]
    fn restrict_platform_clears_everything_else() {
        let mut m = AvailabilityMatrix::all_available(2);
        let p0 = PlatformId::from_index(0);
        let p1 = PlatformId::from_index(1);
        m.restrict_platform(p1, &[OperatorKind::Map, OperatorKind::Filter]);
        assert!(m.is_available(OperatorKind::Map, p1));
        assert!(m.is_available(OperatorKind::Filter, p1));
        assert!(!m.is_available(OperatorKind::Join, p1));
        assert!(m.is_available(OperatorKind::Join, p0));
    }

    #[test]
    fn restrict_kind_clears_other_platforms() {
        let mut m = AvailabilityMatrix::all_available(4);
        let p2 = PlatformId::from_index(2);
        m.restrict_kind(OperatorKind::LocalCallbackSink, &[p2]);
        assert_eq!(m.support_count(OperatorKind::LocalCallbackSink), 1);
        assert!(m.is_available(OperatorKind::LocalCallbackSink, p2));
    }

    #[test]
    fn eight_platform_full_mask_does_not_overflow() {
        let m = AvailabilityMatrix::all_available(8);
        for kind in OperatorKind::ALL {
            assert_eq!(m.support_count(kind), 8);
        }
    }
}
