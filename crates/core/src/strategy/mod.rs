//! The paper's three filtering strategies and their composition.
//!
//! * [`rr`] — Rectilinear-Region-Based (paper §IV-A, Algorithm 1),
//! * [`or`] — Oblique-Region-Based (paper §IV-B),
//! * [`bf`] — Bounding-Function-Based (paper §IV-C, Algorithm 2).
//!
//! [`StrategySet`] selects which of them a query execution composes; the
//! paper evaluates the six combinations RR, BF, RR+BF, RR+OR, BF+OR, ALL
//! (§V-A).

pub mod bf;
pub mod or;
pub mod rr;

use crate::error::PrqError;

/// Which strategies a query execution composes.
///
/// OR cannot stand alone: it is a Phase-2 filter with no useful Phase-1
/// region of its own (its bounding box "is generally large", §IV-B), so a
/// valid set always contains RR or BF. Use the provided constants for the
/// paper's six combinations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrategySet {
    /// Rectilinear-region filtering (and, when set, the Phase-1 region).
    pub rr: bool,
    /// Oblique-region Phase-2 filtering.
    pub or: bool,
    /// Bounding-function accept/reject radii (Phase-1 region when RR is
    /// absent).
    pub bf: bool,
}

impl StrategySet {
    /// Rectilinear-region only (paper Algorithm 1).
    pub const RR: Self = StrategySet {
        rr: true,
        or: false,
        bf: false,
    };
    /// Bounding-function only (paper Algorithm 2).
    pub const BF: Self = StrategySet {
        rr: false,
        or: false,
        bf: true,
    };
    /// RR + BF.
    pub const RR_BF: Self = StrategySet {
        rr: true,
        or: false,
        bf: true,
    };
    /// RR + OR.
    pub const RR_OR: Self = StrategySet {
        rr: true,
        or: true,
        bf: false,
    };
    /// BF + OR.
    pub const BF_OR: Self = StrategySet {
        rr: false,
        or: true,
        bf: true,
    };
    /// All three (the paper's best performer in low dimensions).
    pub const ALL: Self = StrategySet {
        rr: true,
        or: true,
        bf: true,
    };
    /// No filter at all: the naive full scan's set, which planning
    /// rejects.
    pub(crate) const NONE: Self = StrategySet {
        rr: false,
        or: false,
        bf: false,
    };

    /// The six combinations evaluated in the paper's experiments, in the
    /// column order of Tables I–III.
    pub const PAPER_COMBINATIONS: [(&'static str, Self); 6] = [
        ("RR", Self::RR),
        ("BF", Self::BF),
        ("RR+BF", Self::RR_BF),
        ("RR+OR", Self::RR_OR),
        ("BF+OR", Self::BF_OR),
        ("ALL", Self::ALL),
    ];

    /// Validates that the set can produce a Phase-1 search region.
    ///
    /// # Errors
    ///
    /// Returns [`PrqError::NoPrimaryStrategy`] when neither RR nor BF is
    /// enabled — OR alone cannot produce a search region.
    pub fn validate(&self) -> Result<(), PrqError> {
        if self.rr || self.bf {
            Ok(())
        } else {
            Err(PrqError::NoPrimaryStrategy)
        }
    }

    /// Short display name matching the paper's table headers.
    pub fn name(&self) -> &'static str {
        match (self.rr, self.or, self.bf) {
            (true, false, false) => "RR",
            (false, false, true) => "BF",
            (true, false, true) => "RR+BF",
            (true, true, false) => "RR+OR",
            (false, true, true) => "BF+OR",
            (true, true, true) => "ALL",
            (false, true, false) => "OR",
            (false, false, false) => "(none)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_combinations_are_valid_and_named() {
        for (name, set) in StrategySet::PAPER_COMBINATIONS {
            assert!(set.validate().is_ok(), "{name}");
            assert_eq!(set.name(), name);
        }
    }

    #[test]
    fn or_alone_is_rejected() {
        let or_only = StrategySet {
            rr: false,
            or: true,
            bf: false,
        };
        assert!(matches!(
            or_only.validate(),
            Err(PrqError::NoPrimaryStrategy)
        ));
        assert_eq!(or_only.name(), "OR");
    }

    #[test]
    fn empty_set_is_rejected() {
        let none = StrategySet {
            rr: false,
            or: false,
            bf: false,
        };
        assert!(none.validate().is_err());
        assert_eq!(none.name(), "(none)");
    }
}
