//! Deterministic solver work budgets.
//!
//! Overloaded serving deployments need solves that *abort* rather than
//! stretch a tick, but a wall-clock watchdog would make results depend on
//! the machine and the scheduler's mood. [`WorkMeter`] instead counts
//! abstract **work units** — DLS candidate evaluations and path-enumeration
//! steps — which are a pure function of the scheduling problem
//! `(context, probabilities, solver config)`. Two consequences:
//!
//! * the same problem always costs the same number of units, so a
//!   budget-exceeded verdict is reproducible bit-for-bit across machines,
//!   worker counts and cache states;
//! * a warm-start path (a graph-pool hit in
//!   [`SolverWorkspace`](crate::SolverWorkspace)) can *re-charge* the
//!   stored cost of the work it skips, so a warm solve reaches the exact
//!   same verdict as a cold solve of the same problem.
//!
//! A meter either has a finite budget ([`WorkMeter::with_budget`]) or is
//! unlimited ([`WorkMeter::unlimited`]); the unlimited form never fails and
//! is what every pre-existing entry point uses, keeping unbudgeted solves
//! bit-identical to before this module existed.

use crate::error::SchedError;

/// Counts solver work units against an optional budget.
///
/// # Example
///
/// ```
/// use ctg_sched::{SchedError, WorkMeter};
///
/// let mut m = WorkMeter::with_budget(10);
/// assert!(m.charge(10).is_ok());
/// assert_eq!(m.spent(), 10);
/// assert!(matches!(
///     m.charge(1),
///     Err(SchedError::SolveBudgetExceeded { spent: 11, budget: 10 })
/// ));
/// ```
#[derive(Debug, Clone)]
pub struct WorkMeter {
    spent: u64,
    budget: u64,
}

impl WorkMeter {
    /// A meter that never exceeds its budget (`u64::MAX` units).
    #[must_use]
    pub fn unlimited() -> Self {
        WorkMeter {
            spent: 0,
            budget: u64::MAX,
        }
    }

    /// A meter that fails any charge taking the total past `budget`.
    #[must_use]
    pub fn with_budget(budget: u64) -> Self {
        WorkMeter { spent: 0, budget }
    }

    /// A meter for an optional budget: `None` is unlimited.
    #[must_use]
    pub fn from_limit(budget: Option<u64>) -> Self {
        match budget {
            Some(b) => WorkMeter::with_budget(b),
            None => WorkMeter::unlimited(),
        }
    }

    /// Work units charged so far.
    #[must_use]
    pub fn spent(&self) -> u64 {
        self.spent
    }

    /// Whether this meter can never fail a charge
    /// (see [`WorkMeter::unlimited`]).
    ///
    /// Path enumeration consults this: on an unlimited meter it counts its
    /// steps locally and charges the total once, while a *budgeted* meter
    /// is charged step by step so an abort lands on the exact crossing
    /// step.
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.budget == u64::MAX
    }

    /// Adds `units` to the running total.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::SolveBudgetExceeded`] as soon as the total
    /// crosses the budget; the meter keeps the crossed total so callers can
    /// report how far over the solve was when it aborted.
    #[inline]
    pub fn charge(&mut self, units: u64) -> Result<(), SchedError> {
        self.spent = self.spent.saturating_add(units);
        if self.spent > self.budget {
            Err(SchedError::SolveBudgetExceeded {
                spent: self.spent,
                budget: self.budget,
            })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_fails() {
        let mut m = WorkMeter::unlimited();
        m.charge(u64::MAX).unwrap();
        m.charge(u64::MAX).unwrap(); // saturates instead of wrapping
        assert_eq!(m.spent(), u64::MAX);
    }

    #[test]
    fn budget_fails_on_first_crossing_only() {
        let mut m = WorkMeter::with_budget(3);
        m.charge(2).unwrap();
        m.charge(1).unwrap(); // exactly at budget is fine
        assert_eq!(
            m.charge(1),
            Err(SchedError::SolveBudgetExceeded {
                spent: 4,
                budget: 3
            })
        );
    }

    #[test]
    fn zero_budget_rejects_any_work() {
        let mut m = WorkMeter::with_budget(0);
        assert!(m.charge(1).is_err());
        let mut free = WorkMeter::with_budget(0);
        free.charge(0).unwrap(); // zero work is within a zero budget
    }

    #[test]
    fn from_limit_maps_none_to_unlimited() {
        let mut m = WorkMeter::from_limit(None);
        m.charge(1 << 60).unwrap();
        let mut n = WorkMeter::from_limit(Some(1));
        assert!(n.charge(2).is_err());
    }
}
