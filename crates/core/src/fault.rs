//! Deterministic fault injection for chaos testing (the `fault-inject`
//! cargo feature).
//!
//! A [`FaultPlan`] holds one [`FaultSchedule`] per [`FaultSite`]. The
//! [`ResilientExecutor`] consults the plan at each site; when a site
//! *trips*, the executor behaves as if the corresponding real-world
//! failure happened — a failing index traversal, an erroring evaluator,
//! a degenerate Σ, an aborted batch member.
//!
//! Everything is deterministic: a plan built from a seed
//! ([`FaultPlan::from_seed`]) always trips the same sites on the same
//! calls, so a chaos-test failure reproduces from its seed alone. No
//! RNG state is consumed at query time — schedules are fixed counters.
//!
//! [`ResilientExecutor`]: crate::resilience::ResilientExecutor

use std::fmt;

/// A pipeline location where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// The Phase-1 index traversal aborts mid-descent.
    Phase1Traversal,
    /// A Phase-3 evaluation fails outright.
    Evaluator,
    /// Σ degenerates to a singular matrix before admission.
    SigmaDegeneracy,
    /// A batch member is aborted just before it runs: the batch
    /// executor runs the affected query with a fresh evaluator instead
    /// of its Σ-group's shared table, leaving every other member
    /// untouched.
    BatchAbort,
}

impl FaultSite {
    /// All sites, in a fixed order (used to derive per-site schedules
    /// from a seed): the i-th site takes the i-th `splitmix64` word.
    pub const ALL: [FaultSite; 4] = [
        FaultSite::Phase1Traversal,
        FaultSite::Evaluator,
        FaultSite::SigmaDegeneracy,
        FaultSite::BatchAbort,
    ];
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSite::Phase1Traversal => write!(f, "phase1-traversal"),
            FaultSite::Evaluator => write!(f, "evaluator"),
            FaultSite::SigmaDegeneracy => write!(f, "sigma-degeneracy"),
            FaultSite::BatchAbort => write!(f, "batch-abort"),
        }
    }
}

/// When a site trips, as a function of how often it has been consulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultSchedule {
    /// Never trips (the default).
    #[default]
    Never,
    /// Trips on every consultation.
    Always,
    /// Trips once, on the `n`-th consultation (0-based), then never
    /// again.
    OnNth(usize),
    /// Trips on every `n`-th consultation (`n ≥ 1`): consultations
    /// `n−1, 2n−1, …` trip.
    EveryNth(usize),
}

impl FaultSchedule {
    fn trips(self, hit: usize) -> bool {
        match self {
            FaultSchedule::Never => false,
            FaultSchedule::Always => true,
            FaultSchedule::OnNth(n) => hit == n,
            FaultSchedule::EveryNth(n) => n > 0 && (hit + 1) % n == 0,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct SiteState {
    schedule: FaultSchedule,
    hits: usize,
}

/// A deterministic per-site fault schedule with consultation counters.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    phase1: SiteState,
    evaluator: SiteState,
    sigma: SiteState,
    batch_abort: SiteState,
}

/// `splitmix64` — the standard seed expander; deterministic and cheap.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A plan in which no site ever trips.
    pub fn quiet() -> Self {
        Self::default()
    }

    /// Derives a plan deterministically from a seed: each site draws a
    /// schedule kind and parameter from a `splitmix64` stream, so
    /// distinct seeds exercise distinct fault mixes and the same seed
    /// always reproduces the same run.
    pub fn from_seed(seed: u64) -> Self {
        let mut state = seed;
        let mut plan = FaultPlan::quiet();
        for site in FaultSite::ALL {
            let word = splitmix64(&mut state);
            // 2 bits of kind, 4 bits of parameter — small n keeps the
            // faults frequent enough to bite in short test runs.
            let n = usize::try_from((word >> 2) & 0xF).unwrap_or(15);
            let schedule = match word & 0b11 {
                0 => FaultSchedule::Never,
                1 => FaultSchedule::OnNth(n),
                2 => FaultSchedule::EveryNth(n.max(1)),
                _ => FaultSchedule::Always,
            };
            plan = plan.with_schedule(site, schedule);
        }
        plan
    }

    /// Sets the schedule for one site (builder style).
    pub fn with_schedule(mut self, site: FaultSite, schedule: FaultSchedule) -> Self {
        self.state_mut(site).schedule = schedule;
        self
    }

    /// The schedule configured for `site`.
    pub fn schedule(&self, site: FaultSite) -> FaultSchedule {
        match site {
            FaultSite::Phase1Traversal => self.phase1.schedule,
            FaultSite::Evaluator => self.evaluator.schedule,
            FaultSite::SigmaDegeneracy => self.sigma.schedule,
            FaultSite::BatchAbort => self.batch_abort.schedule,
        }
    }

    /// How many times `site` has been consulted so far.
    pub fn hits(&self, site: FaultSite) -> usize {
        match site {
            FaultSite::Phase1Traversal => self.phase1.hits,
            FaultSite::Evaluator => self.evaluator.hits,
            FaultSite::SigmaDegeneracy => self.sigma.hits,
            FaultSite::BatchAbort => self.batch_abort.hits,
        }
    }

    /// Consults the plan at `site`: advances the site's counter and
    /// reports whether the fault fires on this consultation.
    pub fn trip(&mut self, site: FaultSite) -> bool {
        let state = self.state_mut(site);
        let fired = state.schedule.trips(state.hits);
        state.hits += 1;
        fired
    }

    fn state_mut(&mut self, site: FaultSite) -> &mut SiteState {
        match site {
            FaultSite::Phase1Traversal => &mut self.phase1,
            FaultSite::Evaluator => &mut self.evaluator,
            FaultSite::SigmaDegeneracy => &mut self.sigma,
            FaultSite::BatchAbort => &mut self.batch_abort,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_fire_as_documented() {
        assert!(!FaultSchedule::Never.trips(0));
        assert!(FaultSchedule::Always.trips(7));
        assert!(FaultSchedule::OnNth(2).trips(2));
        assert!(!FaultSchedule::OnNth(2).trips(3));
        assert!(FaultSchedule::EveryNth(3).trips(2));
        assert!(FaultSchedule::EveryNth(3).trips(5));
        assert!(!FaultSchedule::EveryNth(3).trips(3));
        assert!(!FaultSchedule::EveryNth(0).trips(0), "n = 0 never fires");
    }

    #[test]
    fn trip_advances_counters_per_site() {
        let mut plan = FaultPlan::quiet()
            .with_schedule(FaultSite::Evaluator, FaultSchedule::OnNth(1))
            .with_schedule(FaultSite::SigmaDegeneracy, FaultSchedule::Always);
        assert!(!plan.trip(FaultSite::Evaluator)); // hit 0
        assert!(plan.trip(FaultSite::Evaluator)); // hit 1 fires
        assert!(!plan.trip(FaultSite::Evaluator)); // once only
        assert_eq!(plan.hits(FaultSite::Evaluator), 3);
        // Other sites' counters are independent.
        assert_eq!(plan.hits(FaultSite::SigmaDegeneracy), 0);
        assert!(plan.trip(FaultSite::SigmaDegeneracy));
        assert!(!plan.trip(FaultSite::Phase1Traversal));
    }

    #[test]
    fn from_seed_is_deterministic_and_seed_sensitive() {
        let a = FaultPlan::from_seed(42);
        let b = FaultPlan::from_seed(42);
        for site in FaultSite::ALL {
            assert_eq!(a.schedule(site), b.schedule(site), "{site}");
        }
        // Across a handful of seeds, at least one schedule differs.
        let differs = (0u64..8).any(|s| {
            let p = FaultPlan::from_seed(s);
            FaultSite::ALL
                .iter()
                .any(|&site| p.schedule(site) != a.schedule(site))
        });
        assert!(differs, "seeds should produce distinct plans");
    }

    #[test]
    fn display_names_are_stable() {
        let names: Vec<String> = FaultSite::ALL.iter().map(|s| s.to_string()).collect();
        assert_eq!(
            names,
            [
                "phase1-traversal",
                "evaluator",
                "sigma-degeneracy",
                "batch-abort"
            ]
        );
    }
}
